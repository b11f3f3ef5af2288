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
use asets_sim::{
    simulate_traced, Engine, RebalanceConfig, RebalanceEvent, RebalanceStats, ShardedRuntime,
    SimResult, TraceEvent,
};
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
    /// runtime with rebalancing fully enabled must *still* be the seed
    /// engine bit for bit, under every policy — and must report zero
    /// rebalancing activity.
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
            prop_assert_eq!(
                &sharded.rebalance,
                &Some(RebalanceStats::default()),
                "{}",
                kind.label()
            );
        }
    }

    /// Merge exactness survives rebalancing: with migration and stealing
    /// active at K>1 (the threaded driver), every transaction still
    /// completes exactly once, the merged summary still equals the
    /// whole-batch recompute, dependents never finish before their
    /// predecessors, and the telemetry counters are exactly the event log
    /// re-aggregated — for every policy kind.
    #[test]
    fn rebalanced_runs_are_complete_and_exact(
        specs in workload_strategy(32),
        k in 2usize..5,
        epoch in 3u64..20,
    ) {
        let n = specs.len();
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch)).with_steal(3);
        for kind in all_kinds() {
            let label = kind.label();
            let r = ShardedRuntime::new(specs.clone(), kind)
                .shards(k)
                .rebalance(cfg)
                .run()
                .expect("acyclic");

            // Completeness: every id exactly once, ascending.
            let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
            prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "{}", &label);
            prop_assert_eq!(r.merged.stats.completed, n as u64, "{}", &label);

            // Definitions 3–5: merged headline equals the recompute.
            let recomputed = MetricsSummary::from_outcomes(&r.merged.outcomes);
            prop_assert_eq!(&r.merged.summary, &recomputed, "{}", &label);

            // Dependents never finish before predecessors, wherever they ran.
            for (i, spec) in specs.iter().enumerate() {
                for d in &spec.deps {
                    prop_assert!(
                        r.merged.outcomes[d.index()].finish <= r.merged.outcomes[i].finish
                    );
                }
            }

            // Telemetry counters are exactly the event log, re-aggregated.
            let stats = r.rebalance.as_ref().expect("rebalanced run");
            let (mut migrations, mut mig_txns, mut mig_work, mut steals) = (0u64, 0u64, 0u64, 0u64);
            let mut rounds = std::collections::BTreeSet::new();
            for e in &stats.events {
                match *e {
                    RebalanceEvent::Migration { at, from, to, txns, work_ticks, .. } => {
                        prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
                        migrations += 1;
                        mig_txns += txns as u64;
                        mig_work += work_ticks;
                        rounds.insert(at);
                    }
                    RebalanceEvent::Steal { from, to, .. } => {
                        prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
                        steals += 1;
                    }
                }
            }
            prop_assert_eq!(stats.migrated_components, migrations, "{}", &label);
            prop_assert_eq!(stats.migrated_txns, mig_txns, "{}", &label);
            prop_assert_eq!(stats.migrated_work, mig_work, "{}", &label);
            prop_assert_eq!(stats.steals, steals, "{}", &label);
            prop_assert_eq!(stats.migration_rounds, rounds.len() as u64, "{}", &label);
        }
    }

    /// Conservation under threaded rebalancing, for every policy kind:
    /// replaying the event log over the static partition yields exactly
    /// the shard each transaction completed on — no transaction is lost,
    /// duplicated, or teleported outside a recorded migration or steal.
    #[test]
    fn threaded_rebalancing_conserves_transactions(
        specs in workload_strategy(28),
        k in 2usize..5,
        epoch in 3u64..16,
    ) {
        let n = specs.len();
        let keys = asets_core::shard::routing_keys(&specs);
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch)).with_steal(3);
        for kind in all_kinds() {
            let r = ShardedRuntime::new(specs.clone(), kind)
                .shards(k)
                .rebalance(cfg)
                .run()
                .expect("acyclic");

            // Every id completes on exactly one shard engine.
            let mut completed_on = vec![u32::MAX; n];
            for (s, shard) in r.shards.iter().enumerate() {
                for t in &shard.txns {
                    prop_assert_eq!(completed_on[t.index()], u32::MAX, "txn {} completed twice", t.0);
                    completed_on[t.index()] = s as u32;
                }
            }

            // Replay the globally ordered event log over the static
            // partition: a migration moves its whole component (all ids
            // sharing the routing key) from the current owner; a steal
            // moves one singleton from its current owner. The replayed
            // final owner must be exactly where each transaction completed.
            let mut owner: Vec<u32> = r.shard_of.clone();
            let stats = r.rebalance.as_ref().expect("rebalanced run");
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
            // Every owner is a real shard, so equality also rules out a
            // transaction that never completed.
            prop_assert_eq!(completed_on, owner, "completed off the replayed owner ({})", kind.label());
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
        for kind in [PolicyKind::asets_star(), PolicyKind::Edf] {
            let run = || {
                ShardedRuntime::new(specs.clone(), kind)
                    .shards(k)
                    .servers(m)
                    .with_trace()
                    .run()
                    .expect("acyclic")
            };
            let (a, b) = (run(), run());
            prop_assert_eq!(&a.merged.outcomes, &b.merged.outcomes);
            prop_assert_eq!(&a.merged.stats, &b.merged.stats);
            prop_assert_eq!(&a.merged.trace, &b.merged.trace);
            prop_assert_eq!(&a.merged.epochs, &b.merged.epochs);
            prop_assert_eq!(&a.shard_of, &b.shard_of);
        }
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
}

/// A Zipf-skewed web batch — hot pages as huge-but-light stars, cold pages
/// as heavy singletons — of random size, skew and seed, with its epoch.
fn skewed_strategy() -> impl Strategy<Value = (Vec<TxnSpec>, u64)> {
    (60usize..400, 4u64..17, 0usize..4, any::<u64>(), 5u64..60).prop_map(
        |(n, pages, a, seed, epoch)| {
            let alpha = [0.0, 1.0, 1.5, 2.0][a];
            (asets_workload::skewed_shards(n, pages, alpha, seed), epoch)
        },
    )
}

/// The plain engine over exactly `txns` (global ids, ascending) of
/// `specs`, at their spec arrivals, traced, with ids mapped back to global.
fn replay(specs: &[TxnSpec], txns: &[TxnId], kind: PolicyKind, servers: usize) -> SimResult {
    let mut local = vec![u32::MAX; specs.len()];
    for (i, t) in txns.iter().enumerate() {
        local[t.index()] = i as u32;
    }
    let slice: Vec<TxnSpec> = txns
        .iter()
        .map(|t| {
            let mut spec = specs[t.index()].clone();
            for d in &mut spec.deps {
                *d = TxnId(local[d.index()]);
            }
            spec
        })
        .collect();
    let table = TxnTable::new(slice.clone()).expect("components complete whole");
    let mut r = Engine::new(slice, kind.build(&table))
        .expect("acyclic")
        .with_servers(servers)
        .with_trace()
        .run();
    let g = |t: TxnId| txns[t.index()];
    for o in &mut r.outcomes {
        o.id = g(o.id);
    }
    for e in &mut r.trace.as_mut().expect("traced").events {
        match e {
            TraceEvent::Arrived { txn, .. }
            | TraceEvent::Dispatched { txn, .. }
            | TraceEvent::Completed { txn, .. } => *txn = g(*txn),
            TraceEvent::Preempted { txn, by, .. } => {
                *txn = g(*txn);
                *by = g(*by);
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A migrate-only threaded run is a per-shard replay: the leader moves
    /// only components whose every member arrives strictly after the
    /// boundary, and the destination admits each member at its spec
    /// arrival, so each shard's schedule is the plain engine's over exactly
    /// the transactions that completed on it — outcomes, trace, run
    /// statistics and epoch telemetry, for every policy kind at M ∈ {1, 2}.
    ///
    /// One documented difference: a time-rate `BalanceAware` shard holds
    /// the full table, which never completes, so it keeps stepping
    /// activation wake-ups after its last completion until the leader's
    /// done round, where the plain engine stops. Its outcomes and trace
    /// still match; only `scheduling_points`, `idle` and the epoch count
    /// may run ahead of the replay's (the extra epochs are empty).
    #[test]
    fn threaded_migration_matches_the_per_shard_replay(
        batch in skewed_strategy(),
        k in 2usize..5,
    ) {
        let (specs, epoch) = batch;
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch));
        for kind in all_kinds() {
            let wakes_after_done = matches!(
                kind,
                PolicyKind::BalanceAware { activation: ActivationMode::TimeBased { .. }, .. }
            );
            for servers in [1usize, 2] {
                let r = ShardedRuntime::new(specs.clone(), kind)
                    .shards(k)
                    .servers(servers)
                    .rebalance(cfg)
                    .with_trace()
                    .run()
                    .expect("acyclic");
                for shard in &r.shards {
                    let tag = format!("{} M={} K={} shard {}", kind.label(), servers, k, shard.shard);
                    let plain = replay(&specs, &shard.txns, kind, servers);
                    let got = &shard.result;
                    prop_assert_eq!(&got.outcomes, &plain.outcomes, "{}", &tag);
                    prop_assert_eq!(&got.trace, &plain.trace, "{}", &tag);
                    if wakes_after_done {
                        let (g, p) = (&got.stats, &plain.stats);
                        prop_assert!(p.scheduling_points <= g.scheduling_points, "{}", &tag);
                        prop_assert!(p.idle <= g.idle, "{}", &tag);
                        prop_assert!(plain.epochs.epochs <= got.epochs.epochs, "{}", &tag);
                        // The extra points are empty epochs.
                        let mut same = g.clone();
                        same.scheduling_points = p.scheduling_points;
                        same.idle = p.idle;
                        prop_assert_eq!(&same, p, "{}", &tag);
                        let mut same = got.epochs;
                        same.epochs = plain.epochs.epochs;
                        prop_assert_eq!(&same, &plain.epochs, "{}", &tag);
                    } else {
                        prop_assert_eq!(&got.stats, &plain.stats, "{}", &tag);
                        prop_assert_eq!(&got.epochs, &plain.epochs, "{}", &tag);
                    }
                }
            }
        }
    }
}
