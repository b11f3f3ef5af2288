//! Determinism oracle for the sharded runtime.
//!
//! The scale-out path is only trustworthy because it is anchored to an
//! exact baseline: `ShardedRuntime` at K=1 shards, M=1 servers must be
//! **bit-identical** to the plain single-server `Engine` — same outcomes
//! (exact finish ticks), same run statistics, same trace — for every
//! policy, on arbitrary dependent weighted workloads. Beyond K=1, sharded
//! runs must still satisfy the paper's aggregate definitions exactly:
//! the merged `MetricsSummary` equals a recompute over the concatenated
//! outcomes (Definitions 3–5), and per-shard stats add up to the merged
//! stats.

use asets_core::prelude::*;
use asets_sim::{simulate_traced, RebalanceConfig, RebalanceEvent, ShardedRuntime};
use proptest::prelude::*;

/// A random dependent, weighted workload (same shape as the policy-oracle
/// strategy). Dependencies only point to earlier ids, so the batch is
/// acyclic by construction.
fn workload_strategy(max_n: usize) -> impl Strategy<Value = Vec<TxnSpec>> {
    proptest::collection::vec(
        (
            0u64..60, // arrival
            1u64..20, // length
            0u64..40, // extra slack beyond length
            1u32..10, // weight
            proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        1..max_n,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (arr, len, slack, w, deps))| {
                let arrival = SimTime::from_units_int(arr);
                let length = SimDuration::from_units_int(len);
                let deadline = arrival + length + SimDuration::from_units_int(slack);
                let mut dep_ids: Vec<TxnId> = if i == 0 {
                    Vec::new()
                } else {
                    deps.into_iter()
                        .map(|idx| TxnId(idx.index(i) as u32))
                        .collect()
                };
                dep_ids.sort_unstable();
                dep_ids.dedup();
                TxnSpec {
                    arrival,
                    deadline,
                    length,
                    weight: Weight(w),
                    deps: dep_ids,
                }
            })
            .collect::<Vec<_>>()
    })
}

/// Every policy kind the factory can build, including both impact rules
/// and both balance-aware activation modes.
fn all_kinds() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Fcfs,
        PolicyKind::Edf,
        PolicyKind::Srpt,
        PolicyKind::LeastSlack,
        PolicyKind::Hdf,
        PolicyKind::Asets,
        PolicyKind::Mix { gamma: 2.0 },
        PolicyKind::Hvf,
        PolicyKind::LoadSwitch {
            threshold: 0.75,
            window: 10.0,
        },
        PolicyKind::Ready,
        PolicyKind::asets_star(),
        PolicyKind::AsetsStar {
            impact: ImpactRule::Symmetric,
        },
        PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::time_rate(0.01),
        },
        PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::count_rate(0.1),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K=1, M=1 is the seed engine, bit for bit, under every policy.
    #[test]
    fn k1_m1_is_bit_identical_to_engine(specs in workload_strategy(24)) {
        for kind in all_kinds() {
            let plain = simulate_traced(specs.clone(), kind).expect("acyclic");
            let sharded = ShardedRuntime::new(specs.clone(), kind)
                .shards(1)
                .servers(1)
                .with_trace()
                .run()
                .expect("acyclic");
            prop_assert_eq!(&sharded.merged.outcomes, &plain.outcomes, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.stats, &plain.stats, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.trace, &plain.trace, "{}", kind.label());
        }
    }

    /// Sharded runs complete every transaction exactly once, keep whole
    /// workflows on one shard, and their merged summary satisfies the
    /// paper's definitions exactly (recompute over concatenated outcomes).
    #[test]
    fn sharded_runs_are_complete_and_exact(
        specs in workload_strategy(32),
        k in 2usize..5,
    ) {
        let n = specs.len();
        let kind = PolicyKind::asets_star();
        let r = ShardedRuntime::new(specs.clone(), kind)
            .shards(k)
            .with_trace()
            .run()
            .expect("acyclic");

        // Completeness: every id exactly once, ascending.
        let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
        prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        prop_assert_eq!(r.merged.stats.completed, n as u64);

        // Workflows never split: each dependency stays on its txn's shard.
        for (i, spec) in specs.iter().enumerate() {
            for d in &spec.deps {
                prop_assert_eq!(r.shard_of[d.index()], r.shard_of[i]);
            }
        }

        // Definitions 3–5: merged headline equals the whole-batch recompute.
        let recomputed = MetricsSummary::from_outcomes(&r.merged.outcomes);
        prop_assert_eq!(&r.merged.summary, &recomputed);

        // Count-weighted merge of per-shard summaries agrees with the
        // headline on every field it can reconstruct exactly.
        let parts: Vec<MetricsSummary> =
            r.shards.iter().map(|s| s.result.summary.clone()).collect();
        let merged = MetricsSummary::merge(&parts);
        prop_assert_eq!(merged.count, recomputed.count);
        prop_assert!((merged.total_tardiness - recomputed.total_tardiness).abs() < 1e-6);
        prop_assert!((merged.avg_weighted_tardiness - recomputed.avg_weighted_tardiness).abs() < 1e-6);
        prop_assert!((merged.miss_ratio - recomputed.miss_ratio).abs() < 1e-9);
        prop_assert!((merged.max_tardiness - recomputed.max_tardiness).abs() < 1e-9);

        // Per-shard mechanics add up.
        let stats_parts: Vec<_> = r.shards.iter().map(|s| s.result.stats.clone()).collect();
        prop_assert_eq!(&asets_sim::RunStats::merge(&stats_parts), &r.merged.stats);

        // The merged trace is globally time-ordered.
        let trace = r.merged.trace.as_ref().expect("tracing enabled");
        for w in trace.events.windows(2) {
            prop_assert!(w[0].at() <= w[1].at());
        }

        // Per-transaction finish times are shard-local decisions: each
        // shard alone is a valid single-server simulation, so dependents
        // still never finish before predecessors globally.
        for (i, spec) in specs.iter().enumerate() {
            for d in &spec.deps {
                prop_assert!(r.merged.outcomes[d.index()].finish <= r.merged.outcomes[i].finish);
            }
        }
    }

    /// With one shard there is nobody to migrate to or steal from, so the
    /// coordinated runtime with rebalancing fully enabled must *still* be
    /// the seed engine bit for bit, under every policy — and must report
    /// zero rebalancing actions.
    #[test]
    fn k1_with_rebalancing_is_bit_identical_to_engine(specs in workload_strategy(24)) {
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(7)).with_steal(2);
        for kind in all_kinds() {
            let plain = simulate_traced(specs.clone(), kind).expect("acyclic");
            let sharded = ShardedRuntime::new(specs.clone(), kind)
                .shards(1)
                .servers(1)
                .rebalance(cfg)
                .with_trace()
                .run()
                .expect("acyclic");
            prop_assert_eq!(&sharded.merged.outcomes, &plain.outcomes, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.stats, &plain.stats, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.trace, &plain.trace, "{}", kind.label());
            let stats = sharded.rebalance.as_ref().expect("coordinated run");
            prop_assert_eq!(stats.steals, 0, "{}", kind.label());
            prop_assert_eq!(stats.migrated_components, 0, "{}", kind.label());
        }
    }

    /// Merge exactness survives rebalancing: with migration and stealing
    /// active at K>1, every transaction still completes exactly once, the
    /// merged summary still equals the whole-batch recompute, and the
    /// telemetry counters are conserved against the event log.
    #[test]
    fn rebalanced_runs_are_complete_and_exact(
        specs in workload_strategy(32),
        k in 2usize..5,
        epoch in 3u64..20,
    ) {
        let n = specs.len();
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch)).with_steal(3);
        for kind in all_kinds() {
            let r = ShardedRuntime::new(specs.clone(), kind)
                .shards(k)
                .rebalance(cfg)
                .run()
                .expect("acyclic");

            // Completeness: every id exactly once, ascending.
            let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
            prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "{}", kind.label());
            prop_assert_eq!(r.merged.stats.completed, n as u64, "{}", kind.label());

            // Definitions 3–5: merged headline equals the recompute.
            let recomputed = MetricsSummary::from_outcomes(&r.merged.outcomes);
            prop_assert_eq!(&r.merged.summary, &recomputed, "{}", kind.label());

            // Dependents never finish before predecessors, wherever they ran.
            for (i, spec) in specs.iter().enumerate() {
                for d in &spec.deps {
                    prop_assert!(
                        r.merged.outcomes[d.index()].finish <= r.merged.outcomes[i].finish
                    );
                }
            }

            // Telemetry counters are exactly the event log, re-aggregated.
            let stats = r.rebalance.as_ref().expect("coordinated run");
            let mut migrations = 0u64;
            let mut mig_txns = 0u64;
            let mut mig_work = 0u64;
            let mut steals = 0u64;
            let mut rounds = std::collections::BTreeSet::new();
            for e in &stats.events {
                match *e {
                    RebalanceEvent::Migration { at, from, to, txns, work_ticks, .. } => {
                        migrations += 1;
                        mig_txns += txns as u64;
                        mig_work += work_ticks;
                        rounds.insert(at);
                        prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
                    }
                    RebalanceEvent::Steal { from, to, .. } => {
                        steals += 1;
                        prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
                    }
                }
            }
            prop_assert_eq!(stats.migrated_components, migrations, "{}", kind.label());
            prop_assert_eq!(stats.migrated_txns, mig_txns, "{}", kind.label());
            prop_assert_eq!(stats.migrated_work, mig_work, "{}", kind.label());
            prop_assert_eq!(stats.steals, steals, "{}", kind.label());
            prop_assert_eq!(stats.migration_rounds, rounds.len() as u64, "{}", kind.label());
        }
    }

    /// More shards can only help ASETS* tardiness on independent-heavy
    /// workloads is *not* guaranteed in general — but determinism is:
    /// running the same configuration twice is bit-identical.
    #[test]
    fn sharded_runs_are_reproducible(
        specs in workload_strategy(24),
        k in 1usize..5,
        m in 1usize..3,
    ) {
        let kind = PolicyKind::asets_star();
        let a = ShardedRuntime::new(specs.clone(), kind)
            .shards(k)
            .servers(m)
            .with_trace()
            .run()
            .expect("acyclic");
        let b = ShardedRuntime::new(specs, kind)
            .shards(k)
            .servers(m)
            .with_trace()
            .run()
            .expect("acyclic");
        prop_assert_eq!(&a.merged.outcomes, &b.merged.outcomes);
        prop_assert_eq!(&a.merged.stats, &b.merged.stats);
        prop_assert_eq!(&a.merged.trace, &b.merged.trace);
        prop_assert_eq!(&a.shard_of, &b.shard_of);
    }
}

proptest! {
    // Threaded runs spawn real threads per case; fewer cases keep tier-1
    // wall time bounded without thinning the space much (each case covers
    // every policy kind).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The threaded driver is bit-identical across repeated executions:
    /// thread scheduling never leaks into outcomes, traces, telemetry or
    /// per-shard completion sets, for every policy kind at K∈{2,4}.
    #[test]
    fn threaded_runs_are_reproducible_bit_for_bit(
        specs in workload_strategy(20),
        k in 2usize..5,
        epoch in 3u64..16,
    ) {
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch)).with_steal(3);
        for kind in all_kinds() {
            let run = || {
                ShardedRuntime::new(specs.clone(), kind)
                    .shards(k)
                    .rebalance(cfg)
                    .threaded()
                    .with_trace()
                    .run()
                    .expect("acyclic")
            };
            let a = run();
            let b = run();
            prop_assert_eq!(&a.merged.outcomes, &b.merged.outcomes, "{}", kind.label());
            prop_assert_eq!(&a.merged.stats, &b.merged.stats, "{}", kind.label());
            prop_assert_eq!(&a.merged.trace, &b.merged.trace, "{}", kind.label());
            prop_assert_eq!(&a.rebalance, &b.rebalance, "{}", kind.label());
            prop_assert_eq!(&a.shard_of, &b.shard_of, "{}", kind.label());
            for (sa, sb) in a.shards.iter().zip(&b.shards) {
                prop_assert_eq!(&sa.txns, &sb.txns, "{}", kind.label());
            }
        }
    }

    /// Conservation under threaded rebalancing: replaying the event log
    /// over the static partition yields exactly the shard each
    /// transaction completed on — no transaction is lost, duplicated, or
    /// teleported outside a recorded migration or steal.
    #[test]
    fn threaded_rebalancing_conserves_transactions(
        specs in workload_strategy(28),
        k in 2usize..5,
        epoch in 3u64..16,
    ) {
        let n = specs.len();
        let keys = asets_core::shard::routing_keys(&specs);
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch)).with_steal(3);
        let r = ShardedRuntime::new(specs, PolicyKind::asets_star())
            .shards(k)
            .rebalance(cfg)
            .threaded()
            .run()
            .expect("acyclic");

        // Every id completes exactly once across the shard engines.
        let mut completed_on = vec![u32::MAX; n];
        for (s, shard) in r.shards.iter().enumerate() {
            for t in &shard.txns {
                prop_assert_eq!(completed_on[t.index()], u32::MAX, "txn {} completed twice", t.0);
                completed_on[t.index()] = s as u32;
            }
        }
        prop_assert!(
            completed_on.iter().all(|&s| s != u32::MAX),
            "every txn completes somewhere"
        );

        // Replay the globally ordered event log over the static partition:
        // a migration moves its whole component (all ids sharing the
        // routing key) from the current owner; a steal moves one
        // transaction from its current owner. The replayed final owner
        // must be exactly where each transaction completed.
        let mut owner: Vec<u32> = r.shard_of.clone();
        let stats = r.rebalance.as_ref().expect("threaded run");
        for e in &stats.events {
            match *e {
                RebalanceEvent::Migration { key, from, to, txns, .. } => {
                    prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
                    let members: Vec<usize> = (0..n).filter(|&i| keys[i] == key).collect();
                    prop_assert_eq!(members.len() as u32, txns, "whole components migrate");
                    for &m in &members {
                        prop_assert_eq!(owner[m], from, "migrations leave the current owner");
                        owner[m] = to;
                    }
                }
                RebalanceEvent::Steal { txn, from, to, .. } => {
                    prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
                    prop_assert_eq!(owner[txn.index()], from, "steals leave the current owner");
                    // Only singleton components are ever stolen.
                    prop_assert_eq!(keys.iter().filter(|&&x| x == keys[txn.index()]).count(), 1);
                    owner[txn.index()] = to;
                }
            }
        }
        for i in 0..n {
            prop_assert_eq!(
                completed_on[i],
                owner[i],
                "txn {} completed off its replayed owner",
                i
            );
        }
    }
}

/// A Zipf-skewed web batch — hot pages as huge-but-light stars, cold pages
/// as heavy singletons — of random size, skew and seed, with its epoch.
///
/// The coordinated loop plans a boundary at its first scheduling point at
/// or after it and moves only components arriving strictly after *that
/// point*; the threaded leader plans at the boundary instant and moves
/// components arriving strictly after *it*. The two views coincide when
/// the boundary is itself a scheduling point, so every epoch boundary the
/// batch's arrivals leave empty gets a unit-length singleton arriving
/// there. Without it a component arriving at the first point after an
/// empty boundary is movable to the threaded leader only.
fn skewed_strategy() -> impl Strategy<Value = (Vec<TxnSpec>, u64)> {
    (60usize..400, 4u64..17, 0usize..4, any::<u64>(), 5u64..60).prop_map(
        |(n, pages, a, seed, epoch)| {
            let mut specs = asets_workload::skewed_shards(n, pages, [0.0, 1.0, 1.5, 2.0][a], seed);
            let last = specs
                .iter()
                .map(|s| s.arrival)
                .max()
                .expect("non-empty batch");
            let mut boundary = SimTime::from_units_int(epoch);
            while boundary <= last {
                if !specs.iter().any(|s| s.arrival == boundary) {
                    specs.push(TxnSpec::independent(
                        boundary,
                        boundary + SimDuration::from_units_int(10),
                        SimDuration::from_units_int(1),
                        Weight::ONE,
                    ));
                }
                boundary += SimDuration::from_units_int(epoch);
            }
            (specs, epoch)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The coordinated loop is the threaded driver's oracle: with stealing
    /// off, a threaded run plans the same migrations at the same
    /// boundaries, so outcomes, run statistics and migration counters
    /// match the coordinated run exactly.
    #[test]
    fn threaded_migration_matches_the_coordinated_oracle(
        batch in skewed_strategy(),
        k in 2usize..5,
    ) {
        let (specs, epoch) = batch;
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch));
        let run = |threaded: bool| {
            let rt = ShardedRuntime::new(specs.clone(), PolicyKind::asets_star())
                .shards(k)
                .rebalance(cfg);
            let rt = if threaded { rt.threaded() } else { rt };
            rt.run().expect("acyclic")
        };
        let (coordinated, threaded) = (run(false), run(true));
        prop_assert_eq!(&threaded.merged.outcomes, &coordinated.merged.outcomes);
        prop_assert_eq!(&threaded.merged.stats, &coordinated.merged.stats);
        let counters = |r: &asets_sim::ShardedResult| {
            let s = r.rebalance.as_ref().expect("rebalanced run");
            (s.migration_rounds, s.migrated_components, s.migrated_txns, s.migrated_work)
        };
        prop_assert_eq!(counters(&threaded), counters(&coordinated));
    }
}
