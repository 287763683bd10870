//! Direct tests of the DRPA aggregator against a hand-built
//! partitioned graph, checking the sync semantics at the level of
//! individual split vertices (finer-grained than the end-to-end
//! equivalence tests under `tests/`).

use distgnn_core::drpa::RankAggregator;
use distgnn_core::model::Aggregator;
use distgnn_core::DistMode;
use distgnn_comm::{Cluster, WireCodec};
use distgnn_graph::generators::erdos_renyi;
use distgnn_graph::EdgeList;
use distgnn_kernels::AggregationConfig;
use distgnn_partition::{libra_partition, PartitionedGraph};
use distgnn_tensor::init::random_features;
use distgnn_tensor::Matrix;

/// A 4-vertex graph engineered so vertex 0 is split across both
/// partitions: edges (1 -> 0) and (2 -> 0) land in different
/// partitions by forcing them through a 2-way Libra run.
fn two_rank_setup() -> (EdgeList, PartitionedGraph) {
    // A bidirectional star around vertex 0: any balanced 2-way
    // edge-cut must split the hub, guaranteeing clone traffic.
    let mut pairs = Vec::new();
    for i in 1..=5u32 {
        pairs.push((i, 0));
        pairs.push((0, i));
    }
    let el = EdgeList::from_pairs(6, &pairs);
    let p = libra_partition(&el, 2);
    let pg = PartitionedGraph::build(&el, &p, 7);
    assert!(!pg.split_vertices.is_empty(), "hub must split");
    (el, pg)
}

fn feature_matrix(pg: &PartitionedGraph, rank: usize, base: &[f32]) -> Matrix {
    let part = &pg.parts[rank];
    let data: Vec<f32> = part.global_ids.iter().map(|&g| base[g as usize]).collect();
    Matrix::from_vec(part.num_local_vertices(), 1, data)
}

#[test]
fn cd0_sum_over_clones_is_exact_per_split_vertex() {
    let (el, pg) = two_rank_setup();
    if pg.split_vertices.is_empty() {
        // Partitioning may keep the graph clone-free at this size; the
        // invariant is then vacuous — force a denser check instead.
        panic!("setup must split at least one vertex");
    }
    let base = [0.0f32, 10.0, 20.0, 30.0, 40.0, 50.0];
    let outs = Cluster::run(2, |ctx| {
        let h = feature_matrix(&pg, ctx.rank(), &base);
        let mut agg = RankAggregator::new(ctx, &pg, DistMode::Cd0, AggregationConfig::baseline());
        agg.set_epoch(0);
        agg.forward(0, &h)
    });
    // Expected GCN value for every global vertex from the full graph.
    let full = distgnn_graph::Csr::from_edges(&el);
    for (rank, out) in outs.iter().enumerate() {
        for (local, &g) in pg.parts[rank].global_ids.iter().enumerate() {
            let nbrs = full.neighbors(g);
            let sum: f32 = nbrs.iter().map(|&u| base[u as usize]).sum();
            let expect = (sum + base[g as usize]) / (nbrs.len() as f32 + 1.0);
            assert!(
                (out[(local, 0)] - expect).abs() < 1e-5,
                "rank {rank} vertex {g}: {} vs {expect}",
                out[(local, 0)]
            );
        }
    }
}

#[test]
fn take_times_resets_counters() {
    let (_, pg) = two_rank_setup();
    let checks = Cluster::run(2, |ctx| {
        let h = Matrix::zeros(pg.parts[ctx.rank()].num_local_vertices(), 1);
        let mut agg = RankAggregator::new(ctx, &pg, DistMode::Cd0, AggregationConfig::baseline());
        agg.set_epoch(0);
        let _ = agg.forward(0, &h);
        let (lat1, _rat1, _) = agg.take_times();
        let (lat2, rat2, bwd2) = agg.take_times();
        lat1 > std::time::Duration::ZERO
            && lat2.is_zero()
            && rat2.is_zero()
            && bwd2.is_zero()
    });
    assert!(checks.iter().all(|&ok| ok));
}

#[test]
fn oc_never_touches_the_mailboxes() {
    let (_, pg) = two_rank_setup();
    let (_, comm) = Cluster::run_with_stats(2, |ctx| {
        let h = Matrix::zeros(pg.parts[ctx.rank()].num_local_vertices(), 2);
        let mut agg = RankAggregator::new(ctx, &pg, DistMode::Oc, AggregationConfig::baseline());
        for e in 0..3 {
            agg.set_epoch(e);
            let _ = agg.forward(0, &h);
            let _ = agg.backward(0, &Matrix::zeros(h.rows(), 2));
        }
    });
    assert!(comm.iter().all(|s| s.bytes_sent == 0 && s.bytes_received == 0));
}

#[test]
fn cdr_message_volume_is_one_bin_per_epoch() {
    let (_, pg) = two_rank_setup();
    let delay = 3;
    // Run exactly one epoch: only bin 0's leaves are sent.
    let (_, comm_one) = Cluster::run_with_stats(2, |ctx| {
        let h = Matrix::zeros(pg.parts[ctx.rank()].num_local_vertices(), 4);
        let mut agg =
            RankAggregator::new(ctx, &pg, DistMode::CdR { delay }, AggregationConfig::baseline());
        agg.set_epoch(0);
        let _ = agg.forward(0, &h);
    });
    let (_, comm_cd0) = Cluster::run_with_stats(2, |ctx| {
        let h = Matrix::zeros(pg.parts[ctx.rank()].num_local_vertices(), 4);
        let mut agg = RankAggregator::new(ctx, &pg, DistMode::Cd0, AggregationConfig::baseline());
        agg.set_epoch(0);
        let _ = agg.forward(0, &h);
    });
    let sent_cdr: u64 = comm_one.iter().map(|s| s.bytes_sent).sum();
    let sent_cd0: u64 = comm_cd0.iter().map(|s| s.bytes_sent).sum();
    assert!(
        sent_cdr < sent_cd0,
        "one cd-r epoch ({sent_cdr} B) must ship less than one cd-0 sync ({sent_cd0} B)"
    );
}

#[test]
fn backward_sync_only_in_cd0() {
    let (_, pg) = two_rank_setup();
    // Measure the bytes sent by the backward pass alone, per mode.
    let per_rank_delta = |mode: DistMode| -> u64 {
        Cluster::run(2, |ctx| {
            let n = pg.parts[ctx.rank()].num_local_vertices();
            let mut agg = RankAggregator::new(ctx, &pg, mode, AggregationConfig::baseline());
            agg.set_epoch(0);
            let _ = agg.forward(0, &Matrix::zeros(n, 2));
            let before = ctx.stats().bytes_sent;
            let _ = agg.backward(0, &Matrix::full(n, 2, 1.0));
            ctx.stats().bytes_sent - before
        })
        .into_iter()
        .sum()
    };
    assert!(per_rank_delta(DistMode::Cd0) > 0, "cd-0 must sync gradients");
    assert_eq!(per_rank_delta(DistMode::Oc), 0, "0c must not sync gradients");
    assert_eq!(
        per_rank_delta(DistMode::CdR { delay: 2 }),
        0,
        "cd-r keeps its backward clone-local"
    );
}

/// The identity codec ships raw rows: after a cd-0 sync every clone of
/// a split vertex holds the root's total bit for bit, epoch after
/// epoch. Accumulating the rows through delta mirrors instead would
/// break this from the second epoch on, since `M + (R - M)` need not
/// round back to `R` in f32.
#[test]
fn cd0_identity_codec_replicas_are_bit_identical_across_epochs() {
    let el = erdos_renyi(120, 900, 5);
    let pg = PartitionedGraph::build(&el, &libra_partition(&el, 2), 7);
    assert!(!pg.split_vertices.is_empty(), "setup must split vertices");
    let d = 32;
    let epochs = 3;
    let outs = Cluster::run(2, |ctx| {
        let part = &pg.parts[ctx.rank()];
        let mut agg = RankAggregator::new(ctx, &pg, DistMode::Cd0, AggregationConfig::baseline())
            .with_codec(WireCodec::None);
        (0..epochs)
            .map(|e| {
                let base = random_features(el.num_vertices(), d, 40 + e);
                let rows: Vec<usize> = part.global_ids.iter().map(|&g| g as usize).collect();
                let h = base.gather_rows(&rows);
                agg.set_epoch(e);
                agg.forward(0, &h)
            })
            .collect::<Vec<Matrix>>()
    });
    assert!(outs.iter().all(|o| o.len() == epochs as usize));
    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for &g in &pg.split_vertices {
        let local = |r: usize| pg.parts[r].local_of(g).expect("a split vertex is on both ranks");
        let (l0, l1) = (local(0) as usize, local(1) as usize);
        for (e, (a, b)) in outs[0].iter().zip(&outs[1]).enumerate() {
            assert_eq!(bits(a.row(l0)), bits(b.row(l1)), "epoch {e}, vertex {g}");
        }
    }
}
