//! Ablation (§6.3 accuracy discussion): sensitivity of cd-r to the
//! delay parameter r.
//!
//! The paper: "we do not see any discernible improvements in accuracy
//! with values of r < 5, while large values of r (e.g., r = 10)
//! degraded the accuracy due to increasingly stale feature
//! aggregates." This harness sweeps r with everything else fixed and
//! also reports the per-epoch clone-sync traffic (∝ 1/r).

use distgnn_bench::{header, print_table};
use distgnn_core::{DistConfig, DistMode, DistTrainer};
use distgnn_graph::{Dataset, ScaledConfig};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let epochs: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(60);
    header("Ablation — delay parameter r of cd-r");

    let ds = Dataset::generate(&ScaledConfig::products_s().scaled_by(scale));
    let k = 4;
    println!("dataset {}, {k} ranks, {epochs} epochs\n", ds.name);

    let mut rows = Vec::new();
    for r in [0usize, 1, 2, 5, 10, 20] {
        let mode = if r == 0 { DistMode::Cd0 } else { DistMode::CdR { delay: r } };
        let cfg = DistConfig::new(&ds, mode, k, epochs);
        let rep = DistTrainer::launch(&ds, None, &cfg, None).expect("distributed training failed");
        let sent: u64 = rep.per_rank_comm.iter().map(|s| s.bytes_sent).sum();
        rows.push(vec![
            mode.name(),
            format!("{:.2}", rep.test_accuracy * 100.0),
            format!("{:.4}", rep.epochs.last().unwrap().loss),
            format!("{:.1}", sent as f64 / (1 << 20) as f64 / epochs as f64),
        ]);
    }
    print_table(&["mode", "test acc %", "final loss", "sent MiB/epoch"], &rows);
    println!();
    println!("Expected (paper): accuracy flat for r <= 5, degrading for large r as");
    println!("aggregates go stale; per-epoch traffic shrinks ~1/r.");
}
