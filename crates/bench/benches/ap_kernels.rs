//! Criterion bench: aggregation-primitive kernel variants (Fig. 2 / 4
//! microbenchmark) on dense and sparse workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_kernels::{aggregate, AggregationConfig, BinaryOp, ReduceOp, Schedule};
use std::hint::black_box;

fn bench_variants(c: &mut Criterion) {
    for cfg in [
        ScaledConfig::reddit_s().scaled_by(0.25),
        ScaledConfig::products_s().scaled_by(0.25),
    ] {
        let ds = Dataset::generate(&cfg);
        let auto_nb = AggregationConfig::auto_blocks(ds.num_vertices(), ds.feat_dim(), 1 << 20);
        let variants = [
            ("baseline", AggregationConfig::baseline()),
            (
                "dynamic",
                AggregationConfig::baseline().with_schedule(Schedule::Dynamic),
            ),
            (
                "dynamic+blocked",
                AggregationConfig::baseline()
                    .with_schedule(Schedule::Dynamic)
                    .with_blocks(auto_nb),
            ),
            ("optimized", AggregationConfig::optimized(auto_nb)),
        ];
        let mut group = c.benchmark_group(format!("ap/{}", ds.name));
        group.sample_size(10);
        for (name, kcfg) in variants {
            group.bench_function(BenchmarkId::from_parameter(name), |b| {
                b.iter(|| {
                    black_box(aggregate(
                        &ds.graph,
                        black_box(&ds.features),
                        None,
                        BinaryOp::CopyLhs,
                        ReduceOp::Sum,
                        &kcfg,
                    ))
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
