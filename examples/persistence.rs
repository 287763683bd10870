//! Persistence workflow: generate once, partition once, train, stop,
//! resume from a checkpoint — the operational loop a production
//! deployment of DistGNN runs (Dist-DGL ships the same
//! partition/load-partition split). Ends with the crash-recovery
//! drill: a distributed run killed mid-training by an injected fault
//! resumes from its last consistent checkpoint and finishes with
//! parameters bit-identical to a never-killed run.
//!
//! Run with: `cargo run --release --example persistence`

use distgnn_suite::comm::FaultPlan;
use distgnn_suite::core::single::{Trainer, TrainerConfig};
use distgnn_suite::core::{DistConfig, DistMode, DistTrainer};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::io;
use distgnn_suite::kernels::AggregationConfig;
use distgnn_suite::partition::{libra_partition, PartitionedGraph};

fn main() {
    let work = std::env::temp_dir().join("distgnn-persistence-example");
    std::fs::create_dir_all(&work).unwrap();

    // 1. Generate and persist the dataset.
    let dataset = Dataset::generate(&ScaledConfig::am_s());
    io::save_dataset(&work.join("dataset"), &dataset).unwrap();
    println!("saved dataset to {:?}", work.join("dataset"));

    // 2. Partition once, persist the edge assignment.
    let edges = dataset.graph.to_edge_list();
    let partitioning = libra_partition(&edges, 4);
    io::save_partitioning(&work.join("libra-4.part"), &partitioning).unwrap();
    println!("saved 4-way Libra partitioning");

    // 3. A later process: load everything back and train distributed,
    //    reusing the stored partitioning (no re-partitioning cost).
    let loaded = io::load_dataset(&work.join("dataset")).unwrap();
    let loaded_part =
        io::load_partitioning(&work.join("libra-4.part"), &loaded.graph.to_edge_list()).unwrap();
    let pg = PartitionedGraph::build(&loaded.graph.to_edge_list(), &loaded_part, 0xD157);
    let cfg = DistConfig::new(&loaded, DistMode::CdR { delay: 5 }, 4, 30);
    let report = DistTrainer::launch(&loaded, Some(&pg), &cfg, None)
        .expect("distributed training failed");
    println!(
        "distributed run from disk: test accuracy {:.2}%",
        report.test_accuracy * 100.0
    );

    // 4. Single-socket training with checkpointing mid-run.
    let tcfg = TrainerConfig::for_dataset(&loaded, AggregationConfig::optimized(2), 15);
    let mut trainer = Trainer::new(&loaded, &tcfg);
    for _ in 0..15 {
        trainer.train_epoch();
    }
    io::save_params(&work.join("model.ckpt"), &trainer.model.write_params()).unwrap();
    let acc_at_ckpt = trainer.evaluate();
    println!("checkpoint written at accuracy {:.2}%", acc_at_ckpt * 100.0);

    // 5. Resume in a fresh trainer: accuracy carries over exactly.
    let mut resumed = Trainer::new(&loaded, &tcfg);
    let params = io::load_params(&work.join("model.ckpt")).unwrap();
    resumed.model.read_params(&params);
    let acc_resumed = resumed.evaluate();
    println!("resumed accuracy {:.2}%", acc_resumed * 100.0);
    assert_eq!(acc_at_ckpt, acc_resumed, "checkpoint round trip must be exact");

    for _ in 0..15 {
        resumed.train_epoch();
    }
    println!(
        "after 15 more epochs: {:.2}%",
        resumed.evaluate() * 100.0
    );

    // 6. Crash recovery drill: train with epoch-boundary checkpoints
    //    under a fault plan that crashes a rank mid-run, killing the
    //    attempt. The supervisor reloads the last consistent
    //    checkpoint, relaunches, and the recovered run's parameters
    //    are bit-identical to an uninterrupted reference run.
    let ckpt_root = work.join("checkpoints");
    let mut chaos = DistConfig::new(&loaded, DistMode::Cd0, 4, 12);
    chaos.checkpoint_every = 3;
    chaos.checkpoint_dir = Some(ckpt_root.clone());
    chaos.faults = FaultPlan::none().with_crash(1, 7);
    chaos.max_restarts = 2;
    let recovered = DistTrainer::launch(&loaded, Some(&pg), &chaos, None)
        .expect("the supervised run must recover");
    println!(
        "recovered run: {} restart(s), {} epoch(s) replayed",
        recovered.restarts, recovered.epochs_replayed
    );

    let mut clean = chaos.clone();
    clean.faults = FaultPlan::none();
    clean.checkpoint_every = 0;
    clean.checkpoint_dir = None;
    let reference = DistTrainer::try_run_on(&loaded, &pg, &clean).unwrap();
    assert_eq!(
        recovered.final_params, reference.final_params,
        "kill-and-resume must be bit-identical to the uninterrupted run"
    );
    println!("recovered parameters are bit-identical to the uninterrupted run");
    std::fs::remove_dir_all(&work).ok();
}
