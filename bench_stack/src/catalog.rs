//! The benchmark's contract in one place: workload names, end-to-end
//! metrics with unit, direction and regression bound, and per-layer
//! metrics with unit and direction. `BENCHMARK.json` at the repo root is
//! `bench_stack manifest` printed from these tables (a unit test holds
//! the two together); the README explains every row.

use crate::json::{Obj, Value};

/// Seconds one run measures at full size; `--seconds` scales the work
/// (epochs and request batches) in proportion to it.
pub const RUN_SECONDS: u64 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// Bounds are sized to this class of host (2 shared cores) from the
/// run-to-run spreads measured over ten seeds per workload; the measured
/// spreads, and how far below each bound they sit, are in the README
/// ("Noise floor").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "epoch_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "epochs_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_loss_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_qps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_batch_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_batch_us_p95",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_delta_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // tensor: dense matmul at the model's layer shapes.
    layer("tensor.matmul_fwd_ms", "ms", Lower),
    layer("tensor.matmul_bwd_ms", "ms", Lower),
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    // nn: linear layers, loss, optimizer.
    layer("nn.linear_fwd_ms", "ms", Lower),
    layer("nn.linear_bwd_ms", "ms", Lower),
    layer("nn.loss_ms", "ms", Lower),
    layer("nn.adam_ms", "ms", Lower),
    // kernels: the aggregation primitive.
    layer("kernels.ap_fwd_ms", "ms", Lower),
    layer("kernels.ap_bwd_ms", "ms", Lower),
    layer("kernels.ap_gflops", "GFLOP/s", Higher),
    layer("kernels.ap_gbps", "GB/s", Higher),
    layer("kernels.ap_roofline_frac", "ratio", Higher),
    layer("kernels.prepare_ms", "ms", Lower),
    // core: model passes, epoch shares, convergence, allocation, DRPA.
    layer("core.forward_ms", "ms", Lower),
    layer("core.backward_ms", "ms", Lower),
    layer("core.backward_share", "ratio", Lower),
    layer("core.agg_share", "ratio", Lower),
    layer("core.layer_sum_gap_pct", "%", Lower),
    layer("core.epochs_to_loss", "count", Lower),
    layer("core.final_loss", "loss", Lower),
    layer("core.test_acc", "ratio", Higher),
    layer("core.allocs_per_epoch", "count", Lower),
    layer("core.alloc_kib_per_epoch", "KiB", Lower),
    layer("core.drpa_lat_ms", "ms", Lower),
    layer("core.drpa_rat_ms", "ms", Lower),
    layer("core.drpa_bwd_agg_ms", "ms", Lower),
    layer("core.phase_forward_ms", "ms", Lower),
    layer("core.phase_backward_ms", "ms", Lower),
    layer("core.phase_aggregate_ms", "ms", Lower),
    layer("core.phase_optimizer_ms", "ms", Lower),
    layer("core.dist_vs_single_ratio", "ratio", Lower),
    // comm: exact volumes, measured waits, the alpha-beta prediction.
    layer("comm.bytes_per_epoch", "B", Lower),
    layer("comm.logical_bytes_per_epoch", "B", Lower),
    layer("comm.msgs_per_epoch", "count", Lower),
    layer("comm.retries", "count", Lower),
    layer("comm.send_ms", "ms", Lower),
    layer("comm.wait_ms", "ms", Lower),
    layer("comm.barrier_ms", "ms", Lower),
    layer("comm.unhidden_share", "ratio", Lower),
    layer("comm.model_wire_ms", "ms", Lower),
    layer("comm.allreduce_us", "us", Lower),
    layer("comm.alltoallv_us", "us", Lower),
    // partition: the vertex cut.
    layer("partition.libra_ms", "ms", Lower),
    layer("partition.build_ms", "ms", Lower),
    layer("partition.replication_factor", "ratio", Lower),
    layer("partition.edge_balance", "ratio", Lower),
    // io: checkpoints.
    layer("io.ckpt_bytes", "B", Lower),
    layer("io.ckpt_encode_ms", "ms", Lower),
    layer("io.ckpt_save_ms", "ms", Lower),
    layer("io.ckpt_load_ms", "ms", Lower),
    layer("io.ckpt_stall_ms", "ms", Lower),
    // serve: restore, cache build, warm and stale paths.
    layer("serve.restore_ms", "ms", Lower),
    layer("serve.build_ms", "ms", Lower),
    layer("serve.point_warm_ns", "ns", Lower),
    layer("serve.batch_warm_us", "us", Lower),
    layer("serve.batch_stale_us", "us", Lower),
    layer("serve.batch_us_p99", "us", Lower),
    layer("serve.cache_hit_rate", "ratio", Higher),
    layer("serve.rows_reagg_per_delta", "count", Lower),
    layer("serve.allocs_per_batch", "count", Lower),
    // Context, never gated.
    layer("graph.generate_ms", "ms", Lower),
    layer("graph.vertices", "count", Higher),
    layer("graph.edges", "count", Higher),
    layer("host.nproc", "count", Higher),
    layer("host.triad_gbps", "GB/s", Higher),
    layer("host.fma_gflops", "GFLOP/s", Higher),
    layer("host.idle_wake_us", "us", Lower),
    layer("telemetry.recorder_overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = crate::workload::SPECS
        .iter()
        .map(|w| Obj::new().put("name", w.name).put("why", w.why).build())
        .collect();
    let e2e: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            Obj::new()
                .put("name", m.name)
                .put("unit", m.unit)
                .put("better", m.better.name())
                .put("bound", m.bound)
                .build()
        })
        .collect();
    let layers: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            Obj::new()
                .put("name", m.name)
                .put("unit", m.unit)
                .put("better", m.better.name())
                .build()
        })
        .collect();
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "bench_stack/Cargo.toml",
        "--",
    ]
    .iter()
    .map(|s| Value::Str(s.to_string()))
    .collect();
    Obj::new()
        .put("command", command)
        .put("paths", vec![Value::Str("bench_stack".into())])
        .put("run_seconds", RUN_SECONDS)
        .put("workloads", workloads)
        .put("end_to_end", e2e)
        .put("per_layer", layers)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let mut seen = BTreeSet::new();
        for w in crate::workload::SPECS {
            assert!(valid_name(w.name), "workload name {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name), "metric name {}", m.name);
            assert!(valid_unit(m.unit), "unit of {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name), "metric name {}", m.name);
            assert!(valid_unit(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
    }

    #[test]
    fn counts_fit_the_contract() {
        assert!((2..=8).contains(&crate::workload::SPECS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// The `[profile.release]` table of a manifest: its `key = value`
    /// lines, comments and blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_matches_the_root_workspace() {
        // This package is its own workspace, so the root's profile does
        // not apply to it: the copy must follow the original, or the
        // crates under test are built differently from `cargo build
        // --release` at the root.
        let root = release_profile(include_str!("../../Cargo.toml"));
        let own = release_profile(include_str!("../Cargo.toml"));
        assert_eq!(own, root);
    }

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        let parsed = crate::json::parse(committed).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            manifest(),
            "run `bench_stack manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 << 10);
    }
}
