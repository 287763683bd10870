//! Table 5: test accuracy of the single-socket model vs the
//! distributed algorithms (cd-0, cd-5, 0c) at increasing socket
//! counts, on the Reddit-like and Products-like datasets.
//!
//! These are real training runs through the threaded cluster: all
//! communication, staleness and binning effects of cd-r are exercised,
//! not modelled. The paper's claim under test: every distributed
//! algorithm stays within ~1% of single-socket accuracy, and cd-5/0c
//! sometimes exceed it.

use distgnn_bench::{header, print_table};
use distgnn_core::single::{Trainer, TrainerConfig};
use distgnn_core::{DistConfig, DistMode, DistTrainer};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_kernels::AggregationConfig;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let epochs: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(60);
    header("Table 5 — test accuracy of distributed algorithms");
    println!("(real threaded-cluster training, {epochs} epochs, lr 0.01, wd 5e-4, r = 5)");

    for base in [ScaledConfig::reddit_s(), ScaledConfig::products_s()] {
        let cfg = base.scaled_by(scale);
        let ds = Dataset::generate(&cfg);
        println!("\n--- {} ---", ds.name);

        // Single-socket reference.
        let single_cfg = TrainerConfig::for_dataset(&ds, AggregationConfig::optimized(2), epochs);
        let single = Trainer::run(&ds, &single_cfg);
        let mut rows = vec![vec![
            "1".to_string(),
            format!("{:.2}", single.test_accuracy * 100.0),
            format!("{:.2}", single.test_accuracy * 100.0),
            format!("{:.2}", single.test_accuracy * 100.0),
        ]];

        for k in [2usize, 4, 8] {
            let mut row = vec![format!("{k}")];
            for mode in [DistMode::Cd0, DistMode::CdR { delay: 5 }, DistMode::Oc] {
                let dcfg = DistConfig::new(&ds, mode, k, epochs);
                let r = DistTrainer::launch(&ds, None, &dcfg, None)
                    .expect("distributed training failed");
                row.push(format!("{:.2}", r.test_accuracy * 100.0));
            }
            rows.push(row);
        }
        print_table(&["sockets", "cd-0 acc%", "cd-5 acc%", "0c acc%"], &rows);
    }
    println!();
    println!("Paper: Reddit single-socket 93.40%, distributed 92.38–93.70%;");
    println!("Products single-socket 77.63%, distributed 77.12–79.18%. All within ~1%");
    println!("of (sometimes above) the single-socket reference; the same should hold");
    println!("here on the planted-label datasets.");
}
