//! Figure 3: memory traffic (bytes read, written, total) and kernel
//! time as functions of the number of blocks `n_B`, for the dense and
//! sparse workloads.
//!
//! Traffic comes from the cache-model replay; time is the measured
//! wall-clock of the real optimized kernel at each `n_B`.

use distgnn_bench::{header, mib, print_table};
use distgnn_cachesim::CacheConfig;
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_kernels::instrumented::sweep_blocks;
use distgnn_kernels::{AggregationConfig, BinaryOp, LoopOrder, PreparedAggregation, ReduceOp};
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let reps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    header("Figure 3 — memory IO and AP time vs n_B");

    let block_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let cache = CacheConfig::llc_model();

    for cfg in [ScaledConfig::reddit_s(), ScaledConfig::products_s()] {
        let cfg = cfg.scaled_by(scale);
        let ds = Dataset::generate(&cfg);
        println!("\n--- {} ({} vertices, {} edges, d={}) ---",
            ds.name, ds.num_vertices(), ds.graph.num_edges(), ds.feat_dim());
        let reports =
            sweep_blocks(&ds.graph, ds.feat_dim(), LoopOrder::FeatureStrips, &block_counts, cache);

        let mut rows = Vec::new();
        for (n_b, rep) in reports {
            // Measure the real kernel at this n_B; the graph is split
            // once, outside the timed loop, as in training.
            let prep = PreparedAggregation::new(&ds.graph, AggregationConfig::optimized(n_b));
            let t0 = Instant::now();
            for _ in 0..reps {
                let out = prep.aggregate(&ds.features, None, BinaryOp::CopyLhs, ReduceOp::Sum);
                std::hint::black_box(out);
            }
            let elapsed = t0.elapsed() / reps as u32;
            rows.push(vec![
                format!("{n_b}"),
                mib(rep.traffic.bytes_read),
                mib(rep.traffic.bytes_written),
                mib(rep.traffic.total_io()),
                format!("{:.2}", elapsed.as_secs_f64() * 1e3),
            ]);
        }
        print_table(
            &["n_B", "read (MiB)", "written (MiB)", "total IO (MiB)", "time (ms)"],
            &rows,
        );
    }
    println!();
    println!("Paper shape: total IO is U-shaped in n_B for the dense graph (sweet spot");
    println!("where read+written is minimal); for the sparse graph blocking only adds");
    println!("f_O passes, so IO grows monotonically and n_B=1 is best.");
}
