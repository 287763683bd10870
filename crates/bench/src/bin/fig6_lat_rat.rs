//! Figure 6: forward-pass local aggregation time (LAT) vs remote
//! aggregation time (RAT, incl. pre/post-processing) scaling with
//! socket count, per algorithm.
//!
//! Two views are printed: (a) the projected LAT/RAT from the scaling
//! model at paper-like socket counts, and (b) *measured* LAT/RAT from
//! real threaded cluster runs at small socket counts — the same
//! quantities the `RankAggregator` timers split.

use distgnn_bench::{header, millis, print_table};
use distgnn_comm::NetworkModel;
use distgnn_core::scaling::{calibrate, sweep};
use distgnn_core::{DistConfig, DistMode, DistTrainer, SageConfig};
use distgnn_graph::{Dataset, ScaledConfig};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    header("Figure 6 — forward-pass LAT vs RAT scaling");

    let net = NetworkModel::hdr_default();
    let modes = [DistMode::Cd0, DistMode::CdR { delay: 5 }, DistMode::Oc];

    // (a) Projection at paper-like socket counts.
    for cfg in [ScaledConfig::products_s(), ScaledConfig::proteins_s()] {
        let cfg = cfg.scaled_by(scale);
        let ds = Dataset::generate(&cfg);
        let model = SageConfig::standard_shape(ds.feat_dim(), ds.num_classes, 64, 1);
        let cal = calibrate(&ds, &model, 3);
        println!("\n--- {} — projected (model) ---", ds.name);
        let sockets = [2usize, 4, 8, 16, 32, 64];
        let points = sweep(&ds, &model, &cal, &net, &sockets, &modes);
        let mut rows = Vec::new();
        for &k in &sockets {
            let mut row = vec![format!("{k}")];
            for &mode in &modes {
                let p = points.iter().find(|p| p.sockets == k && p.mode == mode).unwrap();
                row.push(format!("{:.3}", p.lat_s * 1e3));
                row.push(format!("{:.3}", p.rat_s * 1e3));
            }
            rows.push(row);
        }
        print_table(
            &[
                "sockets", "cd-0 LAT", "cd-0 RAT", "cd-5 LAT", "cd-5 RAT", "0c LAT", "0c RAT",
            ],
            &rows,
        );
    }

    // (b) Measured from real threaded runs at small socket counts.
    let ds = Dataset::generate(&ScaledConfig::products_s().scaled_by(scale * 0.5));
    println!("\n--- {} — measured (threaded cluster, ms) ---", ds.name);
    let mut rows = Vec::new();
    for k in [2usize, 4, 8] {
        let mut row = vec![format!("{k}")];
        for mode in modes {
            let cfg = DistConfig::new(&ds, mode, k, 4);
            let r = DistTrainer::launch(&ds, None, &cfg, None)
                .expect("distributed training failed");
            row.push(millis(r.mean_lat()));
            row.push(millis(r.mean_rat()));
        }
        rows.push(row);
    }
    print_table(
        &[
            "sockets", "cd-0 LAT", "cd-0 RAT", "cd-5 LAT", "cd-5 RAT", "0c LAT", "0c RAT",
        ],
        &rows,
    );

    println!();
    println!("Paper shape: LAT scales ~linearly with sockets (except Reddit); RAT scales");
    println!("poorly (replication grows with partitions); 0c's RAT is zero; cd-0's RAT");
    println!("exceeds LAT on high-replication datasets.");
}
