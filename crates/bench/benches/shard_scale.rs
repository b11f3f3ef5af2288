//! Scale-out of the sharded runtime on the deep-chain workload.
//!
//! Three measurements on the same 10 000-transaction, 1 000-member-chain
//! batch as `deep_workflow_scale/indexed/1000`:
//!
//! 1. the plain single-server engine (the floor the K=1 sharded path must
//!    stay within a few percent of — `shard_gate` enforces it);
//! 2. the sharded runtime at K ∈ {1, 2, 4} shard threads.
//!
//! Wall-clock speedup from the shard threads depends on host cores (CI is
//! effectively single-core), so these timings document the *overhead* of
//! the sharded path; the ≥2x scale-out acceptance claim is gated on
//! **simulated** throughput, which `shard_gate` recomputes in-process.

use asets_bench::chain_workload;
use asets_core::policy::PolicyKind;
use asets_core::time::SimDuration;
use asets_sim::{simulate, RebalanceConfig, ShardedRuntime};
use asets_workload::skewed_shards;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

fn shard_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_scale");
    g.sample_size(10);
    let chain_len = 1_000usize;
    let specs = chain_workload(10_000, chain_len);
    g.bench_with_input(BenchmarkId::new("engine", chain_len), &specs, |b, specs| {
        b.iter_batched(
            || specs.to_vec(),
            |specs| {
                black_box(
                    simulate(specs, PolicyKind::asets_star())
                        .unwrap()
                        .summary
                        .avg_tardiness,
                )
            },
            BatchSize::LargeInput,
        )
    });
    for k in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new(format!("sharded_k{k}"), chain_len),
            &specs,
            |b, specs| {
                b.iter_batched(
                    || specs.to_vec(),
                    |specs| {
                        let r = ShardedRuntime::new(specs, PolicyKind::asets_star())
                            .shards(k)
                            .run()
                            .unwrap();
                        black_box(r.merged.summary.avg_tardiness)
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

/// Rebalancing overhead on the Zipf-skewed web batch: the K = 4 runtime
/// with static placement, and on the threaded driver with epoch migration
/// and with migration + stealing. Wall-clock cost of the rebalancer
/// itself; the simulated-throughput *win* it buys is gated by
/// `steal_gate`. The rebalanced rows only show their scale-out on
/// multi-core hosts — on one core they document the barrier-protocol
/// overhead instead.
fn shard_skew(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_skew");
    g.sample_size(10);
    let specs = skewed_shards(4_000, 16, 1.5, 11);
    let epoch = SimDuration::from_units_int(200);
    let modes: [(&str, Option<RebalanceConfig>); 3] = [
        ("static", None),
        ("migrate", Some(RebalanceConfig::migrate_every(epoch))),
        (
            "migrate_steal",
            Some(RebalanceConfig::migrate_every(epoch).with_steal(4)),
        ),
    ];
    for (label, cfg) in modes {
        g.bench_with_input(BenchmarkId::new(label, 4_000), &specs, |b, specs| {
            b.iter_batched(
                || specs.to_vec(),
                |specs| {
                    let mut rt = ShardedRuntime::new(specs, PolicyKind::asets_star()).shards(4);
                    if let Some(cfg) = cfg {
                        rt = rt.rebalance(cfg);
                    }
                    black_box(rt.run().unwrap().merged.summary.avg_tardiness)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, shard_scale, shard_skew);
criterion_main!(benches);
