//! `bench_stack compare OLD.json NEW.json`: one row per workload ×
//! end-to-end metric, with both medians, the ratio and its base, the
//! bound the benchmark fixes, and a verdict.
//!
//! * `ok` — NEW's median is no worse than OLD's by more than the bound.
//! * `regressed` — it is worse by more than the bound.
//! * `unresolved` — the run-to-run spread (interquartile range over the
//!   median, the wider of the two files) exceeds the bound, so the runs
//!   cannot tell; reported as such, never as unchanged.
//!
//! Exit code 1 on any `regressed` row or a larger failed-operations
//! share in NEW; 2 on unreadable input.

use crate::catalog::{Better, END_TO_END};
use crate::json::{self, Value};
use crate::stats;
use crate::workload::SPECS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    pub old: f64,
    pub new: f64,
    /// `new / old`; the base is `old`.
    pub ratio: f64,
    /// Wider of the two files' IQR / median.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(old: &[f64], new: &[f64], better: Better, bound: f64) -> Row {
    let (o, n) = (stats::median(old), stats::median(new));
    let ratio = n / o;
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let spread = stats::spread(old).max(stats::spread(new));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        old: o,
        new: n,
        ratio,
        spread,
        verdict,
    }
}

/// The catalogued workload `name` in a suite document. A workload that
/// is missing (a dropped workload, a child that wrote nothing) is an
/// error, never a silent pass.
fn workload<'a>(doc: &'a Value, name: &str, file: &str) -> Result<&'a Value, String> {
    doc.get("workloads")
        .and_then(|w| w.as_arr())
        .ok_or_else(|| format!("{file}: no `workloads` array"))?
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(name))
        .ok_or_else(|| format!("{file}: workload {name} is missing"))
}

fn values_of(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    let values = workload
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    let nums: Vec<f64> = values.iter().filter_map(|v| v.as_f64()).collect();
    (!nums.is_empty() && nums.len() == values.len()).then_some(nums)
}

fn failed_share(workload: &Value) -> Option<f64> {
    let attempted = workload.get("ops_attempted")?.as_f64()?;
    let failed = workload.get("ops_failed")?.as_f64()?;
    (attempted > 0.0).then_some(failed / attempted)
}

/// The comparison table and whether it passes.
pub fn compare_docs(old: &Value, new: &Value) -> Result<(String, bool), String> {
    // Every ratio is NEW's median over OLD's: the base is OLD.
    let mut table = format!(
        "{:<16} {:<20} {:>12} {:>12} {:<6} {:>8} {:>6} {:>7}  {}\n",
        "workload", "metric", "old", "new", "unit", "new/old", "bound", "spread", "verdict"
    );
    let mut pass = true;
    for spec in SPECS {
        let name = spec.name;
        let (old_w, new_w) = (workload(old, name, "OLD")?, workload(new, name, "NEW")?);
        for m in END_TO_END {
            let (Some(o), Some(n)) = (values_of(old_w, m.name), values_of(new_w, m.name)) else {
                return Err(format!(
                    "{name}: metric {} missing or not numeric in one file",
                    m.name
                ));
            };
            let row = judge(&o, &n, m.better, m.bound);
            pass &= row.verdict != Verdict::Regressed;
            table.push_str(&format!(
                "{:<16} {:<20} {:>12.4} {:>12.4} {:<6} {:>8.4} {:>6.2} {:>7.3}  {}\n",
                name,
                m.name,
                row.old,
                row.new,
                m.unit,
                row.ratio,
                m.bound,
                row.spread,
                row.verdict.name()
            ));
        }
        let (old_share, new_share) = (failed_share(old_w), failed_share(new_w));
        if let (Some(o), Some(n)) = (old_share, new_share) {
            let worse = n > o;
            pass &= !worse;
            table.push_str(&format!(
                "{:<16} {:<20} {:>12.6} {:>12.6} {:>41}\n",
                name,
                "failed_ops_share",
                o,
                n,
                if worse {
                    "more failed operations"
                } else {
                    "ok"
                }
            ));
        } else {
            return Err(format!("{name}: ops_attempted / ops_failed missing"));
        }
    }
    Ok((table, pass))
}

/// Entry point of the `compare` subcommand; returns the exit code.
pub fn main(old_path: &str, new_path: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let result =
        load(old_path).and_then(|old| load(new_path).and_then(|new| compare_docs(&old, &new)));
    match result {
        Ok((table, pass)) => {
            print!("{table}");
            println!(
                "{}",
                if pass {
                    "compare: ok"
                } else {
                    "compare: REGRESSED"
                }
            );
            i32::from(!pass)
        }
        Err(e) => {
            eprintln!("bench_stack compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Obj;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Lower is better, bound 10%.
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let r = judge(
            &steady,
            &[104.0, 105.0, 104.5, 104.0, 105.0],
            Better::Lower,
            0.10,
        );
        assert_eq!(r.verdict, Verdict::Ok);
        assert!((r.ratio - 1.045).abs() < 1e-9);
        let r = judge(
            &steady,
            &[115.0, 116.0, 115.5, 115.0, 116.0],
            Better::Lower,
            0.10,
        );
        assert_eq!(r.verdict, Verdict::Regressed);
        // Faster is never a regression.
        assert_eq!(
            judge(&steady, &[50.0, 50.0, 50.0], Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // Higher is better: a 15% drop regresses, a 15% rise does not.
        assert_eq!(
            judge(&steady, &[85.0, 85.0, 85.0], Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &[115.0, 115.0, 115.0], Better::Higher, 0.10).verdict,
            Verdict::Ok
        );
        // Spread wider than the bound: cannot tell, whichever way the medians point.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
    }

    /// A suite document with every catalogued workload; `epoch_ms` and
    /// `failed` apply to the first one, the others are steady.
    fn suite(epoch_ms: &[f64], failed: u64) -> Value {
        let workloads: Vec<Value> = SPECS
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut e2e = Obj::new();
                for m in END_TO_END {
                    let values: Vec<f64> = if i == 0 && m.name == "epoch_ms_p50" {
                        epoch_ms.to_vec()
                    } else {
                        vec![10.0, 10.0, 10.0]
                    };
                    e2e = e2e.put(m.name, Obj::new().put("values", values.as_slice()));
                }
                Obj::new()
                    .put("name", spec.name)
                    .put("end_to_end", e2e)
                    .put("ops_attempted", 1000u64)
                    .put("ops_failed", if i == 0 { failed } else { 0 })
                    .build()
            })
            .collect();
        Obj::new().put("workloads", workloads).build()
    }

    #[test]
    fn compare_passes_on_equal_files_and_fails_on_regression() {
        let old = suite(&[80.0, 81.0, 80.5], 0);
        let (table, pass) = compare_docs(&old, &old).unwrap();
        assert!(pass, "{table}");
        assert_eq!(
            table.matches(" ok\n").count(),
            SPECS.len() * (END_TO_END.len() + 1),
            "{table}"
        );

        let slow = suite(&[120.0, 121.0, 120.5], 0);
        let (table, pass) = compare_docs(&old, &slow).unwrap();
        assert!(!pass);
        assert_eq!(table.matches("regressed").count(), 1, "{table}");

        let noisy = suite(&[60.0, 100.0, 140.0], 0);
        let (table, pass) = compare_docs(&old, &noisy).unwrap();
        assert!(pass, "unresolved is reported, not failed");
        assert_eq!(table.matches("unresolved").count(), 1, "{table}");
    }

    #[test]
    fn more_failed_operations_fail_the_comparison() {
        let (table, pass) = compare_docs(&suite(&[80.0], 0), &suite(&[80.0], 3)).unwrap();
        assert!(!pass);
        assert!(table.contains("more failed operations"));
    }

    #[test]
    fn malformed_files_are_errors_not_passes() {
        let broken = Obj::new()
            .put(
                "workloads",
                vec![Obj::new().put("name", "single_reddit").build()],
            )
            .build();
        assert!(compare_docs(&suite(&[80.0], 0), &broken).is_err());
        assert!(compare_docs(&Value::Null, &suite(&[80.0], 0)).is_err());
    }

    #[test]
    fn a_workload_missing_from_either_file_is_an_error() {
        let full = suite(&[80.0], 0);
        let Some(Value::Arr(all)) = full.get("workloads").cloned() else {
            panic!("suite has workloads");
        };
        let dropped = Obj::new().put("workloads", all[1..].to_vec()).build();
        let empty = Obj::new().put("workloads", Vec::<Value>::new()).build();
        for (old, new) in [(&full, &dropped), (&dropped, &full), (&full, &empty)] {
            let err = compare_docs(old, new).expect_err("missing workload");
            assert!(err.contains("is missing"), "{err}");
        }
    }
}
