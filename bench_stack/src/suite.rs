//! `bench_stack all`: every workload, each run in its own process of
//! this same binary, timed runs first and then one traced run, gathered
//! into one JSON (`bench_stack.json` in the output directory) that
//! `compare` reads.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host;
use crate::json::{self, Obj, Value};
use crate::stats;
use crate::workload::{Checks, SPECS};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Timed runs per workload (same seed, back to back): the spread
    /// `compare` judges by.
    pub runs: usize,
}

/// One child run: its exit status, wall-clock and run document.
struct Child {
    ok: bool,
    wall_s: f64,
    document: Option<Value>,
}

/// The child writes its run document where this process would
/// (`crate::out_dir()`: same binary, same environment).
fn run_child(workload: &str, opts: &SuiteOpts, trace: bool, out_dir: &Path) -> Child {
    let mode = if trace { "traced" } else { "timed" };
    let path = out_dir.join(format!("{workload}.{mode}.seed{}.json", opts.seed));
    // A child that dies before writing must not be read as the document
    // an earlier same-seed run left behind.
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            panic!("cannot clear {}: {e}", path.display())
        }
        _ => {}
    }
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args([
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let t = Instant::now();
    // `output` waits for the child and collects its stdout; stderr is
    // inherited so failed checks are visible as they happen.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn a workload run");
    let wall_s = t.elapsed().as_secs_f64();
    let document = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok());
    Child {
        ok: output.status.success(),
        wall_s,
        document,
    }
}

fn metric_value(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn detail<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.get("details")?.get(key)
}

/// Checks that need more than one run: counts that must repeat exactly
/// across same-seed runs, and the timed run's losses against the traced
/// run's uninstrumented pass, bit for bit.
fn cross_run_checks(timed: &[&Value], traced: Option<&Value>) -> Checks {
    let mut checks = Checks::default();
    let Some(first) = timed.first() else {
        return checks;
    };
    for key in [
        "loss_bits",
        "epochs_to_loss",
        "serve_cache_hits",
        "serve_cache_misses",
        "serve_rows_reaggregated",
    ] {
        let same = timed.iter().all(|d| detail(d, key) == detail(first, key));
        checks.check(
            &format!("repeats_exactly.{key}"),
            same,
            format!("over {} timed runs", timed.len()),
        );
    }
    if let Some(traced) = traced {
        let same = detail(first, "loss_bits").is_some()
            && detail(first, "loss_bits") == detail(traced, "loss_bits");
        checks.check(
            "timed_and_traced_losses_bit_equal",
            same,
            "every epoch".into(),
        );
    }
    checks
}

/// Runs the whole suite; returns the exit code.
pub fn main(opts: &SuiteOpts, out_dir: &Path) -> i32 {
    let t_all = Instant::now();
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut run_walls = Vec::new();
    for spec in SPECS {
        let mut children = Vec::new();
        for r in 0..opts.runs {
            let child = run_child(spec.name, opts, false, out_dir);
            println!(
                "{:<16} timed run {}/{}: {:.1} s{}",
                spec.name,
                r + 1,
                opts.runs,
                child.wall_s,
                if child.ok { "" } else { "  FAILED" }
            );
            children.push(child);
        }
        let traced = run_child(spec.name, opts, true, out_dir);
        println!(
            "{:<16} traced run: {:.1} s{}",
            spec.name,
            traced.wall_s,
            if traced.ok { "" } else { "  FAILED" }
        );

        let timed_docs: Vec<&Value> = children
            .iter()
            .filter_map(|c| c.document.as_ref())
            .collect();
        let traced_doc = traced.document.as_ref();
        let cross = cross_run_checks(&timed_docs, traced_doc);
        let children_ok = children
            .iter()
            .chain([&traced])
            .all(|c| c.ok && c.document.is_some());
        all_ok &= children_ok && cross.all_ok();

        let mut e2e = Obj::new();
        for m in END_TO_END {
            let values: Vec<f64> = timed_docs
                .iter()
                .filter_map(|d| metric_value(d, m.name))
                .collect();
            let mut row = Obj::new()
                .put("unit", m.unit)
                .put("better", m.better.name())
                .put("bound", m.bound)
                .put("values", values.as_slice());
            if !values.is_empty() {
                let (q1, q2, q3) = stats::quartiles(&values);
                row = row
                    .put("median", q2)
                    .put("q1", q1)
                    .put("q3", q3)
                    .put("spread", stats::spread(&values));
                println!(
                    "  {:<22} {:>14.4} {:<6} (q1 {:.4}, q3 {:.4}, n {})",
                    m.name,
                    q2,
                    m.unit,
                    q1,
                    q3,
                    values.len()
                );
            }
            e2e = e2e.put(m.name, row);
        }
        let mut layers = Obj::new();
        if let Some(doc) = traced_doc {
            for m in PER_LAYER {
                if let Some(v) = metric_value(doc, m.name) {
                    layers = layers.put(m.name, Obj::new().put("value", v).put("unit", m.unit));
                    println!("  {:<34} {:>16.4} {}", m.name, v, m.unit);
                }
            }
        }
        let sum = |key: &str| {
            timed_docs
                .iter()
                .filter_map(|d| d.get(key)?.as_f64())
                .sum::<f64>()
        };
        let runs: Vec<Value> = children
            .iter()
            .map(|c| (c, "timed"))
            .chain([(&traced, "traced")])
            .map(|(c, mode)| {
                run_walls.push(c.wall_s);
                Obj::new()
                    .put("mode", mode)
                    .put("exit_ok", c.ok)
                    .put("wall_s", c.wall_s)
                    .put("document", c.document.clone().unwrap_or(Value::Null))
                    .build()
            })
            .collect();
        workloads.push(
            Obj::new()
                .put("name", spec.name)
                .put("why", spec.why)
                .put(
                    "shape",
                    timed_docs
                        .first()
                        .and_then(|d| d.get("shape"))
                        .cloned()
                        .unwrap_or(Value::Null),
                )
                .put("correct", children_ok && cross.all_ok())
                .put("ops_attempted", sum("ops_attempted"))
                .put("ops_failed", sum("ops_failed"))
                .put("end_to_end", e2e)
                .put("per_layer", layers)
                .put("cross_run_checks", cross.to_json())
                .put("runs", runs)
                .build(),
        );
    }
    let doc = Obj::new()
        .put("schema", "bench_stack-v1")
        .put(
            "provenance",
            host::provenance(opts.seed, crate::workload::RANKS),
        )
        .put("seconds", opts.seconds)
        .put("smoke", opts.smoke)
        .put("timed_runs_per_workload", opts.runs)
        .put("workloads", workloads)
        .put("run_wall_s", run_walls.as_slice())
        .put("wall_s_total", t_all.elapsed().as_secs_f64())
        .build();
    let path = out_dir.join("bench_stack.json");
    std::fs::write(&path, json::to_string(&doc)).expect("write the suite document");
    println!(
        "wrote {} ({} runs, {:.1} s){}",
        path.display(),
        run_walls.len(),
        t_all.elapsed().as_secs_f64(),
        if all_ok { "" } else { "  -- FAILED CHECKS" }
    );
    i32::from(!all_ok)
}
