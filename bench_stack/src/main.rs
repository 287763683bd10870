//! `bench_stack` — the repository's one benchmark.
//!
//! ```text
//! bench_stack --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! bench_stack all [--seed n] [--seconds s] [--runs r] [--smoke]
//! bench_stack compare OLD.json NEW.json
//! bench_stack manifest
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md in this directory.

mod alloc;
mod catalog;
mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;

use json::Obj;
use std::path::PathBuf;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  bench_stack --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  bench_stack all [--seed n] [--seconds s] [--runs r] [--smoke]
  bench_stack compare OLD.json NEW.json
  bench_stack manifest      print BENCHMARK.json";

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_stack: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Everything the benchmark writes goes under the build's target
/// directory: `$CARGO_TARGET_DIR/bench_stack` when the variable is set
/// (the driver sets it), this package's own `target/` otherwise.
fn out_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
    .join("bench_stack")
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> &String {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value("a workload name").clone()),
            "--seed" => {
                f.seed = value("an unsigned integer")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed: not an unsigned integer"))
            }
            "--seconds" => {
                f.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds: not a number"));
                if !(f.seconds.is_finite() && f.seconds > 0.0 && f.seconds <= 600.0) {
                    usage_error("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                f.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                }
            }
            "--runs" => {
                f.runs = value("a count")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--runs: not a count"));
                if !(1..=100).contains(&f.runs) {
                    usage_error("--runs must be in 1..=100");
                }
            }
            "--smoke" => f.smoke = true,
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    f
}

fn run_one(f: &Flags) -> i32 {
    let name = f
        .workload
        .as_deref()
        .unwrap_or_else(|| usage_error("--workload is required"));
    let spec = workload::spec(name).unwrap_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        usage_error(&format!(
            "unknown workload `{name}` (have: {})",
            known.join(", ")
        ))
    });
    let opts = workload::RunOpts {
        seed: f.seed,
        seconds: f.seconds,
        smoke: f.smoke,
        trace: f.trace,
    };
    let report = run::run(spec, &opts, &out_dir());
    let mut metrics = Obj::new();
    for &(metric, value, unit) in &report.metrics {
        println!("{metric:<34} {value:>18.6} {unit}");
        metrics = metrics.put(metric, Obj::new().put("value", value).put("unit", unit));
    }
    println!(
        "ops_attempted {}  ops_failed {}  correct {}",
        report.attempted, report.failed, report.correct
    );
    let line = Obj::new()
        .put("correct", report.correct)
        .put("attempted", report.attempted)
        .put("failed", report.failed)
        .put("metrics", metrics)
        .build();
    println!("{}", json::to_string(&line));
    i32::from(!report.correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            0
        }
        Some("manifest") => {
            println!("{}", json::to_string(&catalog::manifest()));
            0
        }
        Some("compare") => match &args[1..] {
            [old, new] => compare::main(old, new),
            _ => usage_error("compare takes exactly two files"),
        },
        Some("all") => {
            let f = parse_flags(&args[1..]);
            let opts = suite::SuiteOpts {
                seed: f.seed,
                seconds: f.seconds,
                smoke: f.smoke,
                runs: f.runs,
            };
            suite::main(&opts, &out_dir())
        }
        Some(_) => run_one(&parse_flags(&args)),
    };
    std::process::exit(code);
}
