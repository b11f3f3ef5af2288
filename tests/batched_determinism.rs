//! Bit-identity oracle for epoch-batched maintenance.
//!
//! The engine hands every lifecycle event of a scheduling point to the
//! policy in one `on_batch` call after the table has settled. A policy may
//! override that call with a coalesced pass (ASETS\* does); the trait's
//! default replays the per-event hooks in engine order. Coalescing is an
//! optimization of *when* maintenance runs, not of *what* is decided: for
//! every policy kind and pool size, `Engine(S)` must equal
//! `Engine(PerEvent(S))` — the same policy with its `on_batch` replaced by
//! the hook-by-hook replay — bit for bit in outcomes (exact finish ticks),
//! run statistics, traces, epoch telemetry and the observer hook stream.

use asets_core::obs::{share, CompletionInfo, DecisionRecord, EpochSummary, MigrationEvent};
use asets_core::policy::reference::PerEvent;
use asets_core::prelude::*;
use asets_core::shard::partition;
use asets_sim::{Engine, ShardedRuntime, SimResult, TraceEvent};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A recording tap: every hook's arguments, verbatim and in order, so two
/// runs can be compared hook for hook. Declines timing so latencies are 0
/// in both runs and the streams stay bit-comparable.
#[derive(Default, Debug, Clone, PartialEq)]
struct Tap {
    points: Vec<SimTime>,
    decisions: Vec<DecisionRecord>,
    migrations: Vec<MigrationEvent>,
    dispatches: Vec<(SimTime, TxnId, Option<TxnId>)>,
    arrivals: Vec<(SimTime, TxnId, bool)>,
    ready: Vec<(SimTime, TxnId)>,
    served: Vec<(u32, TxnId, SimTime, SimTime, bool)>,
    completions: Vec<(SimTime, TxnId, CompletionInfo)>,
    epochs: Vec<EpochSummary>,
    epoch_events: u64,
}

impl Observer for Tap {
    fn decision(&mut self, rec: &DecisionRecord) {
        self.decisions.push(*rec);
    }
    fn migration(&mut self, ev: &MigrationEvent) {
        self.migrations.push(*ev);
    }
    fn sched_point(&mut self, at: SimTime, _latency_ns: u64) {
        self.points.push(at);
    }
    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        self.dispatches.push((at, txn, preempted));
    }
    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        self.arrivals.push((at, txn, ready));
    }
    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        self.ready.push((at, txn));
    }
    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        self.served.push((server, txn, from, until, completed));
    }
    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        self.completions.push((at, txn, *info));
    }
    fn on_epoch(&mut self, events: &[asets_core::policy::LifecycleEvent], summary: &EpochSummary) {
        self.epochs.push(*summary);
        self.epoch_events += events.len() as u64;
    }
    fn wants_timing(&self) -> bool {
        false
    }
}

impl Tap {
    /// The hook stream with migrations dropped, for comparing a coalesced
    /// run against its per-event replay.
    ///
    /// Migration *granularity* is the one documented divergence between
    /// the two (`AsetsStar::on_batch` in `asets_star.rs`): the coalesced pass
    /// refreshes each touched workflow once per epoch and reports the
    /// *net* EDF↔HDF crossing, while the per-event replay narrates every
    /// intermediate step — a workflow that leaves the lists and re-enters
    /// on the other side within one instant crosses silently per-event but
    /// visibly coalesced, and vice versa for flapping. Every other channel
    /// (decisions, dispatches, lifecycle spans, epochs) is bit-identical.
    fn sans_migrations(&self) -> Tap {
        let mut t = self.clone();
        t.migrations.clear();
        t
    }
}

/// A random dependent, weighted workload (the shard-determinism strategy).
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

/// Build `kind` for `specs` — wrapped in [`PerEvent`] when `per_event`, so
/// its maintenance replays hook by hook instead of coalescing.
fn build(specs: &[TxnSpec], kind: PolicyKind, per_event: bool) -> Box<dyn Scheduler> {
    let table = TxnTable::new(specs.to_vec()).expect("acyclic");
    let policy = kind.build(&table);
    if per_event {
        Box::new(PerEvent(policy))
    } else {
        policy
    }
}

/// Run `specs` under `kind` on an M-server pool with tracing.
fn run_engine(specs: &[TxnSpec], kind: PolicyKind, servers: usize, per_event: bool) -> SimResult {
    Engine::new(specs.to_vec(), build(specs, kind, per_event))
        .expect("acyclic")
        .with_servers(servers)
        .with_trace()
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core contract: coalesced == per-event replay, bit for bit, for
    /// every policy kind, at M=1 (the paper's model) and M=4.
    #[test]
    fn batched_engine_is_bit_identical(specs in workload_strategy(24)) {
        for kind in all_kinds() {
            for servers in [1usize, 4] {
                let per_event = run_engine(&specs, kind, servers, true);
                let batched = run_engine(&specs, kind, servers, false);
                let tag = format!("{} M={}", kind.label(), servers);
                prop_assert_eq!(&batched.outcomes, &per_event.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &per_event.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &per_event.trace, "{}", &tag);
                prop_assert_eq!(&batched.summary, &per_event.summary, "{}", &tag);
                // Epoch telemetry is maintenance-independent too: same
                // scheduling points, same lifecycle events, same widths.
                prop_assert_eq!(&batched.epochs, &per_event.epochs, "{}", &tag);
                prop_assert_eq!(
                    batched.epochs.epochs, batched.stats.scheduling_points,
                    "one epoch per scheduling point ({})", &tag
                );
            }
        }
    }

    /// The contract holds through the sharded runtime at K>1: each shard
    /// engine coalesces its own instants, so every shard of a sharded run
    /// equals the per-event replay of its slice, bit for bit.
    #[test]
    fn batched_sharded_is_bit_identical(
        specs in workload_strategy(32),
        k in 1usize..5,
    ) {
        let plan = partition(&specs, k);
        for kind in [PolicyKind::asets_star(), PolicyKind::Edf] {
            let sharded = ShardedRuntime::new(specs.clone(), kind)
                .shards(k)
                .with_trace()
                .run()
                .expect("acyclic");
            prop_assert_eq!(&sharded.shard_of, &plan.shard_of);
            prop_assert_eq!(sharded.shards.len(), plan.slices.len());
            for (slice, shard) in plan.slices.iter().zip(&sharded.shards) {
                let tag = format!("{} K={} shard {}", kind.label(), k, shard.shard);
                prop_assert_eq!(&shard.txns, &slice.to_global, "{}", &tag);
                let per_event = to_global(
                    run_engine(&slice.specs, kind, 1, true),
                    &slice.to_global,
                );
                let batched = &shard.result;
                prop_assert_eq!(&batched.outcomes, &per_event.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &per_event.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &per_event.trace, "{}", &tag);
                prop_assert_eq!(&batched.summary, &per_event.summary, "{}", &tag);
                prop_assert_eq!(&batched.epochs, &per_event.epochs, "{}", &tag);
            }
        }
    }
}

/// Rewrite a shard-local result to global transaction ids, as the sharded
/// runtime does for each [`asets_sim::ShardRun`].
fn to_global(mut r: SimResult, map: &[TxnId]) -> SimResult {
    let g = |t: TxnId| map[t.index()];
    for o in &mut r.outcomes {
        o.id = g(o.id);
    }
    if let Some(trace) = &mut r.trace {
        for e in &mut trace.events {
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
    }
    r
}

/// Run `specs` under `kind` observed by a fresh [`Tap`], returning the
/// result and the recorded hook stream.
fn run_tapped(
    specs: &[TxnSpec],
    kind: PolicyKind,
    servers: usize,
    per_event: bool,
) -> (SimResult, Tap) {
    let tap = Rc::new(RefCell::new(Tap::default()));
    let r = Engine::new(specs.to_vec(), build(specs, kind, per_event))
        .expect("acyclic")
        .with_servers(servers)
        .with_trace()
        .with_observer(share(&tap))
        .run();
    let recorded = tap.borrow().clone();
    (r, recorded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Observation is a pure tap: with an observer attached, the coalesced
    /// run still matches its per-event replay bit for bit — outcomes,
    /// stats, trace, *and* the hook stream the observer heard (decisions,
    /// dispatches, lifecycle spans, epochs; migrations differ only in
    /// granularity, see [`Tap::sans_migrations`]) — for every policy kind
    /// at M=1 and M=4, and equals the unobserved run.
    #[test]
    fn observed_batched_is_bit_identical(specs in workload_strategy(24)) {
        for kind in all_kinds() {
            for servers in [1usize, 4] {
                let (per_event, tap_pe) = run_tapped(&specs, kind, servers, true);
                let (batched, tap_b) = run_tapped(&specs, kind, servers, false);
                let tag = format!("{} M={}", kind.label(), servers);
                prop_assert_eq!(&batched.outcomes, &per_event.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &per_event.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &per_event.trace, "{}", &tag);
                prop_assert_eq!(&batched.summary, &per_event.summary, "{}", &tag);
                prop_assert_eq!(&batched.epochs, &per_event.epochs, "{}", &tag);
                prop_assert_eq!(
                    tap_b.sans_migrations(), tap_pe.sans_migrations(),
                    "hook stream ({})", &tag
                );
                // And observation never changed what happened: the observed
                // run equals the unobserved one.
                let unobserved = run_engine(&specs, kind, servers, false);
                prop_assert_eq!(&batched.outcomes, &unobserved.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &unobserved.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &unobserved.trace, "{}", &tag);
            }
        }
    }
}

/// Observation stays a pure tap through the sharded runtime: K observed
/// shard engines merge to exactly the unobserved result, at K=1 (the
/// inline fast path) and K=4, and every completion reaches exactly one
/// shard's tap.
#[test]
fn observed_batched_sharded_is_bit_identical() {
    let specs: Vec<TxnSpec> = (0..48)
        .map(|i| {
            let arrival = SimTime::from_units_int(i % 11);
            let length = SimDuration::from_units_int(1 + i % 5);
            TxnSpec {
                arrival,
                deadline: arrival + length + SimDuration::from_units_int(i % 13),
                length,
                weight: Weight(1 + (i % 4) as u32),
                deps: if i % 6 == 5 {
                    vec![TxnId(i as u32 - 1)]
                } else {
                    vec![]
                },
            }
        })
        .collect();
    for kind in [PolicyKind::asets_star(), PolicyKind::Edf] {
        for k in [1usize, 4] {
            let runtime = || {
                ShardedRuntime::new(specs.clone(), kind)
                    .shards(k)
                    .with_trace()
            };
            let base = runtime().run().expect("acyclic");
            let (observed, taps) = runtime()
                .run_observed(|_shard, _table| Tap::default())
                .expect("acyclic");
            let tag = format!("{} K={k}", kind.label());
            assert_eq!(observed.merged.outcomes, base.merged.outcomes, "{tag}");
            assert_eq!(observed.merged.stats, base.merged.stats, "{tag}");
            assert_eq!(observed.merged.trace, base.merged.trace, "{tag}");
            assert_eq!(observed.merged.epochs, base.merged.epochs, "{tag}");
            assert_eq!(observed.shard_of, base.shard_of, "{tag}");
            // Taps hear shard-local ids; map them back to global ids.
            assert_eq!(taps.len(), k, "one tap per shard ({tag})");
            let mut completed: Vec<TxnId> = taps
                .iter()
                .zip(&observed.shards)
                .flat_map(|(tap, run)| tap.completions.iter().map(|c| run.txns[c.1.index()]))
                .collect();
            completed.sort_unstable();
            let all: Vec<TxnId> = (0..specs.len() as u32).map(TxnId).collect();
            assert_eq!(
                completed, all,
                "every completion reaches exactly one shard tap ({tag})"
            );
        }
    }
}

/// Epoch telemetry reports real coalescing: simultaneous arrivals land in
/// one epoch, and the width peak sees them all.
#[test]
fn epoch_stats_report_coalesced_widths() {
    let specs: Vec<TxnSpec> = (0..10)
        .map(|_| {
            TxnSpec::independent(
                SimTime::ZERO,
                SimTime::from_units_int(200),
                SimDuration::from_units_int(2),
                Weight::ONE,
            )
        })
        .collect();
    let table = TxnTable::new(specs.clone()).expect("acyclic");
    let policy = PolicyKind::asets_star().build(&table);
    let r = Engine::new(specs, policy).expect("acyclic").run();
    assert_eq!(r.epochs.epochs, r.stats.scheduling_points);
    assert_eq!(
        r.epochs.max_epoch_width, 10,
        "all ten simultaneous arrivals coalesce into the first epoch"
    );
    // Every lifecycle event is counted: 10 arrivals + 10 completions, plus
    // one requeue per pause (none here: FCFS-like drain, no preemptions).
    assert_eq!(r.epochs.events, 20 + r.stats.preemptions);
}
