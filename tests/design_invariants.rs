//! DESIGN.md's "Key invariants" name the tests and files that enforce
//! them. This test fails when a named test function or file disappears,
//! so the list cannot drift from the suite unnoticed.
//!
//! Inside that section, every backticked span ending in `…::name` must
//! match a `fn name` in the tree (in the named file, when the span
//! starts with a `….rs` path), and every `….rs` path must exist,
//! relative to the repository root or to `crates/`.

use std::fs;
use std::path::{Path, PathBuf};

/// The text of DESIGN.md's "Key invariants" section.
fn invariants_section(design: &str) -> &str {
    let start = design
        .find("## Key invariants")
        .expect("DESIGN.md has a \"Key invariants\" section");
    let rest = &design[start..];
    let end = rest[1..].find("\n## ").map_or(rest.len(), |i| i + 1);
    &rest[..end]
}

/// Backticked spans, without the whitespace a line wrap leaves inside.
fn code_spans(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.split_whitespace().collect())
        .collect()
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Every `.rs` file under `dir`, skipping build output and hidden dirs.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir").flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn defines_fn(source: &str, name: &str) -> bool {
    source.contains(&format!("fn {name}(")) || source.contains(&format!("fn {name}<"))
}

/// The references in `section` that do not resolve under `root`.
fn dangling(section: &str, root: &Path) -> Vec<String> {
    let mut sources = Vec::new();
    rust_sources(root, &mut sources);
    let tree: Vec<String> = sources
        .iter()
        .filter_map(|p| fs::read_to_string(p).ok())
        .collect();
    let mut missing = Vec::new();
    for span in code_spans(section) {
        let (file, path) = match span.find(".rs") {
            Some(i) => (Some(&span[..i + 3]), &span[i + 3..]),
            None => (None, span.as_str()),
        };
        let name = match path.rsplit_once("::") {
            Some((_, name)) if is_ident(name) => Some(name),
            _ => None,
        };
        let Some(file) = file else {
            if let Some(name) = name {
                if !tree.iter().any(|src| defines_fn(src, name)) {
                    missing.push(format!("`{span}`: no `fn {name}` in the tree"));
                }
            }
            continue;
        };
        let Some(resolved) = [root.join(file), root.join("crates").join(file)]
            .into_iter()
            .find(|p| p.is_file())
        else {
            missing.push(format!("`{span}`: no file {file}"));
            continue;
        };
        if let Some(name) = name {
            let src = fs::read_to_string(&resolved).unwrap_or_default();
            if !defines_fn(&src, name) {
                missing.push(format!("`{span}`: no `fn {name}` in {file}"));
            }
        }
    }
    missing
}

#[test]
fn every_named_test_and_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let missing = dangling(invariants_section(&design), root);
    assert!(missing.is_empty(), "DESIGN.md names what is gone:\n{}", missing.join("\n"));
}

#[test]
fn checker_reports_missing_functions_and_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let section = "## Key invariants\n1. Held by `tests/no_such_file.rs` and\n   \
                   `kernels::tests::\n   no_such_test_fn_zz`, beside `kernels/tests/\
                   proptests.rs::no_such_test_fn_zz`; `tests/chaos.rs` exists.\n";
    let missing = dangling(invariants_section(section), root);
    assert_eq!(missing.len(), 3, "{missing:?}");
    assert!(missing[0].contains("no file tests/no_such_file.rs"), "{missing:?}");
    assert!(missing[1].contains("in the tree"), "{missing:?}");
    assert!(missing[2].contains("in kernels/tests/proptests.rs"), "{missing:?}");
}
