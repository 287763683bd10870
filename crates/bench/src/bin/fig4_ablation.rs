//! Figure 4: ablation of the three kernel optimizations — Dynamic
//! Scheduling (DS), cache Blocking, and Loop Reordering (the LIBXSMM
//! stand-in) — on memory IO and execution time, for Reddit-like and
//! Products-like workloads.
//!
//! Four cumulative configurations, as in the paper's bars:
//!   base          = static schedule, 1 block, destination-major
//!   +DS           = dynamic schedule
//!   +DS+Block     = dynamic + auto-chosen n_B
//!   +DS+Block+LR  = dynamic + blocking + feature-strip loop order

use distgnn_bench::{header, mib, print_table};
use distgnn_cachesim::CacheConfig;
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_kernels::instrumented::{replay_aggregation, ReplaySpec};
use distgnn_kernels::{AggregationConfig, BinaryOp, PreparedAggregation, ReduceOp, Schedule};
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let reps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    header("Figure 4 — optimization ablation (DS, Blocking, Loop Reorder)");
    let cache = CacheConfig::llc_model();

    for base_cfg in [ScaledConfig::reddit_s(), ScaledConfig::products_s()] {
        let cfg = base_cfg.scaled_by(scale);
        let ds = Dataset::generate(&cfg);
        let auto_nb = AggregationConfig::auto_blocks(ds.num_vertices(), ds.feat_dim(), cache.capacity);
        println!("\n--- {} (auto n_B = {auto_nb}) ---", ds.name);

        let variants: Vec<(&str, AggregationConfig)> = vec![
            ("base", AggregationConfig::baseline()),
            ("+DS", AggregationConfig::baseline().with_schedule(Schedule::Dynamic)),
            (
                "+DS+Block",
                AggregationConfig::baseline()
                    .with_schedule(Schedule::Dynamic)
                    .with_blocks(auto_nb),
            ),
            ("+DS+Block+LR", AggregationConfig::optimized(auto_nb)),
        ];

        let mut rows = Vec::new();
        let mut base_time = None;
        for (name, kcfg) in variants {
            // Split once, outside the timed loop, as in training.
            let prep = PreparedAggregation::new(&ds.graph, kcfg);
            let t0 = Instant::now();
            for _ in 0..reps {
                let out = prep.aggregate(&ds.features, None, BinaryOp::CopyLhs, ReduceOp::Sum);
                std::hint::black_box(out);
            }
            let elapsed = t0.elapsed() / reps as u32;
            base_time.get_or_insert(elapsed);

            let replay = replay_aggregation(
                &ds.graph,
                &ReplaySpec {
                    feat_dim: ds.feat_dim(),
                    n_blocks: kcfg.n_blocks,
                    loop_order: kcfg.loop_order,
                    op: BinaryOp::CopyLhs,
                },
                cache,
            );
            rows.push(vec![
                name.to_string(),
                mib(replay.traffic.total_io()),
                format!("{:.2}", elapsed.as_secs_f64() * 1e3),
                format!(
                    "{:.2}x",
                    base_time.unwrap().as_secs_f64() / elapsed.as_secs_f64()
                ),
            ]);
        }
        print_table(&["variant", "total IO (MiB)", "time (ms)", "speedup"], &rows);
    }
    println!();
    println!("Paper shape: DS matters for Products (power-law imbalance), not Reddit;");
    println!("Blocking matters for Reddit (reuse), not Products (n_B=1 already optimal);");
    println!("Loop Reordering helps both.");
}
