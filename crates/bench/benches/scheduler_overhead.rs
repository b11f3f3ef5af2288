//! The §III-A complexity claim: ASETS\* "scales in a similar manner as EDF
//! and SRPT" with `O(log N)` list maintenance.
//!
//! Four benches:
//! 1. keyed-queue primitive ops at several sizes (the `log N` factor);
//! 2. whole-run cost of the *indexed* ASETS\* vs the O(n)-rescan oracle at
//!    growing batch sizes — the ablation that justifies the index;
//! 3. whole-run cost of EDF vs SRPT vs ASETS\* at the same size (the
//!    "similar manner" claim);
//! 4. deep-workflow scaling: chain workflows of 10/100/1000 members, where
//!    the incremental `WorkflowIndex` (O(log |W|) per event) separates from
//!    the pre-index rescan implementation (O(|W|) per event), plus a
//!    100k-transaction batch at the indexed cost only.
//!
//! Every `indexed*` row runs ASETS\* under [`PerEvent`], maintaining its
//! index hook by hook; the `batched` rows run the same policy with its
//! coalesced `on_batch` pass, so `batched` vs `indexed` isolates coalescing.

use asets_bench::chain_workload;
use asets_core::policy::reference::{NaiveAsetsStar, PerEvent, RescanAsetsStar};
use asets_core::policy::{AsetsStar, PolicyKind};
use asets_core::queue::KeyedQueue;
use asets_core::table::TxnTable;
use asets_core::txn::TxnSpec;
use asets_sim::{simulate_with, Engine};
use asets_workload::{generate, TableISpec};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

fn queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("keyed_queue_ops");
    for n in [100u32, 1_000, 10_000] {
        g.bench_with_input(BenchmarkId::new("insert_pop_cycle", n), &n, |b, &n| {
            let mut q: KeyedQueue<u64> = KeyedQueue::with_capacity(n as usize);
            for i in 0..n {
                q.insert(i, (i as u64).wrapping_mul(0x9E3779B9) % 1_000_000);
            }
            let mut i = n;
            b.iter(|| {
                let (k, id) = q.pop().expect("non-empty");
                q.insert(id, k ^ 0x5555);
                i = i.wrapping_add(1);
                black_box(id)
            });
        });
    }
    g.finish();
}

fn indexed_vs_naive(c: &mut Criterion) {
    let mut g = c.benchmark_group("asets_star_indexed_vs_naive");
    g.sample_size(10);
    for n in [100usize, 400, 1_600] {
        let spec = TableISpec {
            n_txns: n,
            ..TableISpec::general_case(0.9)
        };
        let specs = generate(&spec, 101).expect("valid spec");
        g.bench_with_input(BenchmarkId::new("indexed", n), &specs, |b, specs| {
            b.iter(|| {
                let table = TxnTable::new(specs.clone()).unwrap();
                let policy = PerEvent(AsetsStar::with_defaults(&table));
                black_box(
                    simulate_with(specs.clone(), policy)
                        .unwrap()
                        .summary
                        .avg_tardiness,
                )
            });
        });
        // The naive oracle rescans every workflow at every decision. All
        // three sizes run, so the exported table has a complete oracle
        // column to divide by.
        g.bench_with_input(BenchmarkId::new("naive_oracle", n), &specs, |b, specs| {
            b.iter(|| {
                let table = TxnTable::new(specs.clone()).unwrap();
                let policy = NaiveAsetsStar::with_defaults(&table);
                black_box(
                    simulate_with(specs.clone(), policy)
                        .unwrap()
                        .summary
                        .avg_tardiness,
                )
            });
        });
    }
    g.finish();
}

fn scales_like_edf_srpt(c: &mut Criterion) {
    let mut g = c.benchmark_group("scales_like_edf_srpt");
    g.sample_size(10);
    let spec = TableISpec {
        n_txns: 2_000,
        ..TableISpec::transaction_level(0.9)
    };
    let specs = generate(&spec, 101).expect("valid spec");
    for kind in [
        PolicyKind::Edf,
        PolicyKind::Srpt,
        PolicyKind::Asets,
        PolicyKind::asets_star(),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    black_box(
                        asets_sim::simulate(specs.clone(), kind)
                            .unwrap()
                            .summary
                            .avg_tardiness,
                    )
                });
            },
        );
    }
    g.finish();
}

/// Time full simulation runs of `specs` under a policy, with the workload
/// clones prepared outside the timed region (`TxnTable::new` and
/// `simulate_with` both consume a `Vec`).
fn bench_runs<S, F>(
    g: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    specs: &[TxnSpec],
    make: F,
) where
    S: asets_core::policy::Scheduler,
    F: Fn(&TxnTable) -> S + Copy,
{
    g.bench_with_input(id, &specs, |b, specs| {
        b.iter_batched(
            || (specs.to_vec(), specs.to_vec()),
            |(for_table, for_sim)| {
                let table = TxnTable::new(for_table).unwrap();
                let policy = make(&table);
                let engine = Engine::new(for_sim, policy).unwrap();
                black_box(engine.run().summary.avg_tardiness)
            },
            BatchSize::LargeInput,
        )
    });
}

fn deep_workflow_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("deep_workflow_scale");
    g.sample_size(10);
    let n = 10_000;
    for chain_len in [10usize, 100, 1_000] {
        let specs = chain_workload(n, chain_len);
        // Transaction-level EDF on the same workload: the engine floor —
        // what a run costs with (near-)zero per-event policy work. The
        // scheduler-overhead share of the two ASETS* variants is their
        // distance from this line.
        bench_runs(
            &mut g,
            BenchmarkId::new("edf_floor", chain_len),
            &specs,
            |_| asets_core::policy::Edf::new(),
        );
        bench_runs(
            &mut g,
            BenchmarkId::new("indexed", chain_len),
            &specs,
            |t| PerEvent(AsetsStar::with_defaults(t)),
        );
        bench_runs(
            &mut g,
            BenchmarkId::new("rescan", chain_len),
            &specs,
            RescanAsetsStar::with_defaults,
        );
        // The same indexed policy with its coalesced maintain pass: the
        // bulk rebuilds should only ever move this below the `indexed` row.
        bench_runs(
            &mut g,
            BenchmarkId::new("batched", chain_len),
            &specs,
            AsetsStar::with_defaults,
        );
    }
    // Batch-size headroom: 100k transactions in 100-member workflows at the
    // indexed cost only (the rescan twin would dominate the bench's
    // wall-clock budget; its scaling is established above).
    let specs = chain_workload(100_000, 100);
    bench_runs(&mut g, BenchmarkId::new("indexed_100k", 100), &specs, |t| {
        PerEvent(AsetsStar::with_defaults(t))
    });
    bench_runs(
        &mut g,
        BenchmarkId::new("indexed_100k_batched", 100),
        &specs,
        AsetsStar::with_defaults,
    );
    g.finish();
}

criterion_group!(
    benches,
    queue_ops,
    indexed_vs_naive,
    scales_like_edf_srpt,
    deep_workflow_scale
);
criterion_main!(benches);
