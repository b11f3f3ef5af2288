//! Cross-layer observability invariants: the flight-recorder dump must
//! agree with the engine's trace (every dispatch is explained by a
//! decision record), and every recorded Eq. 1 / Fig. 7 winner must
//! re-derive from the `r`/`s`/`w` values stored alongside it — the same
//! re-derivation `asets-obs check` runs.

use asets_core::obs::{DecisionRule, Winner};
use asets_core::policy::PolicyKind;
use asets_core::prelude::*;
use asets_experiments::obs_support::run_observed;
use asets_obs::{Dump, RecordedEvent};
use asets_sim::TraceEvent;

fn observed_dump(specs: Vec<TxnSpec>, kind: PolicyKind) -> (asets_sim::SimResult, Dump) {
    // Capacity far above any event count here: eviction would make the
    // dispatch<->decision comparison vacuous.
    let (result, recorder) = run_observed(specs, kind, 1 << 22).expect("valid workload");
    let dump = Dump::parse(&recorder.dump()).expect("dump round-trips");
    (result, dump)
}

/// Every `Dispatched` trace event has a decision record at the same
/// instant naming the same transaction — for the single-list baselines,
/// Eq. 1 ASETS, and Fig. 7 ASETS* alike.
#[test]
fn every_dispatch_is_explained_by_a_decision() {
    let spec = asets_workload::TableISpec {
        n_txns: 80,
        ..asets_workload::TableISpec::general_case(0.9)
    };
    let specs = asets_workload::generate(&spec, 11).unwrap();
    for kind in [PolicyKind::Edf, PolicyKind::Asets, PolicyKind::asets_star()] {
        let (result, dump) = observed_dump(specs.clone(), kind);
        let trace = result.trace.as_ref().expect("observed runs are traced");
        let mut dispatches = 0;
        for ev in &trace.events {
            if let TraceEvent::Dispatched { at, txn } = ev {
                dispatches += 1;
                assert!(
                    dump.decisions()
                        .any(|(_, rec)| rec.at == *at && rec.chosen == *txn),
                    "{}: dispatch of {txn} at {at:?} has no matching decision",
                    kind.label()
                );
            }
        }
        assert!(dispatches > 0, "{}: trace saw no dispatches", kind.label());
        // The dump's own cross-check (decision-seq adjacency) agrees.
        assert!(
            dump.dispatch_decision_mismatches().is_empty(),
            "{}: {:?}",
            kind.label(),
            dump.dispatch_decision_mismatches()
        );
    }
}

/// Example 2 / Fig. 4 through the recorder: Eq. 1 compares impact 5 (EDF
/// first) against 3 − 2 = 1 (SRPT first), so the SRPT top wins — and the
/// dump's stored candidates re-derive exactly that winner.
#[test]
fn eq1_winner_reproduced_on_example2() {
    let t = |arr: u64, dl: f64, len: u64| {
        TxnSpec::independent(
            SimTime::from_units_int(arr),
            SimTime::from_units(dl),
            SimDuration::from_units_int(len),
            Weight::ONE,
        )
    };
    // T0: r=3, d=3-eps (tardy from birth, SRPT top). T1: r=5, d=7, slack 2.
    let (_, dump) = observed_dump(vec![t(0, 3.0 - 1e-6, 3), t(0, 7.0, 5)], PolicyKind::Asets);
    assert!(dump.check().is_empty(), "{:?}", dump.check());
    let first = dump
        .decisions()
        .find(|(_, r)| r.is_comparison())
        .expect("two live candidates at t=0")
        .1;
    assert_eq!(first.rule, DecisionRule::Eq1);
    assert_eq!(first.winner, Winner::Hdf, "SRPT side wins Example 2");
    assert_eq!(first.chosen, TxnId(0));
    // Impacts as the paper states them: 5 vs 1 (in ticks).
    assert_eq!(first.impact_edf, units(5).ticks() as i128);
    assert_eq!(first.impact_hdf, units(1).ticks() as i128);

    // Example 3 / Fig. 5: zero slack on the EDF top flips it — 2 vs 3.
    let (_, dump) = observed_dump(vec![t(0, 3.0 - 1e-6, 3), t(0, 2.0, 2)], PolicyKind::Asets);
    assert!(dump.check().is_empty(), "{:?}", dump.check());
    let first = dump
        .decisions()
        .find(|(_, r)| r.is_comparison())
        .expect("two live candidates at t=0")
        .1;
    assert_eq!(first.winner, Winner::Edf, "zero slack flips Example 3");
    assert_eq!(first.chosen, TxnId(1));
}

/// A Fig. 7 (ASETS*) run's dump is fully self-consistent: every stored
/// two-sided impact pair re-derives from its candidates' r/s/w, migrations
/// carry consistent directions, and counters match event counts.
#[test]
fn fig7_dump_is_self_consistent_end_to_end() {
    let spec = asets_workload::TableISpec {
        n_txns: 120,
        ..asets_workload::TableISpec::workflow_level(0.9)
    };
    let specs = asets_workload::generate(&spec, 23).unwrap();
    let (result, dump) = observed_dump(specs, PolicyKind::asets_star());
    assert_eq!(result.stats.completed, result.outcomes.len() as u64);
    assert!(dump.check().is_empty(), "{:?}", dump.check());
    let comparisons = dump.decisions().filter(|(_, r)| r.is_comparison()).count();
    assert!(comparisons > 0, "workflow workload must exercise Fig. 7");
    assert!(dump
        .decisions()
        .filter(|(_, r)| r.is_comparison())
        .all(|(_, r)| r.rule == DecisionRule::Fig7Paper));
    // Decision records and dispatch events agree with the trace counters.
    let dispatches = dump
        .events
        .iter()
        .filter(|(_, e)| matches!(e, RecordedEvent::Dispatch { .. }))
        .count();
    let traced = result
        .trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Dispatched { .. }))
        .count();
    assert_eq!(dispatches, traced);
}

/// A rebalanced sharded run's telemetry survives the full observability
/// path: ingest into a flight recorder, counters match the run's stats,
/// and the dumped movement log parses back identical.
#[test]
fn rebalance_telemetry_flows_into_the_flight_recorder() {
    use asets_sim::{RebalanceConfig, ShardedRuntime};
    let specs = asets_workload::skewed_shards(600, 16, 2.0, 5);
    let r = ShardedRuntime::new(specs, PolicyKind::asets_star())
        .shards(4)
        .rebalance(RebalanceConfig::migrate_every(units(50)).with_steal(4))
        .run()
        .unwrap();
    let stats = r.rebalance.as_ref().expect("coordinated run");
    assert!(
        stats.steals > 0 || stats.migrated_components > 0,
        "skewed batch must trigger rebalancing"
    );
    let mut rec = asets_obs::FlightRecorder::new(1 << 16);
    rec.ingest_rebalance(stats);
    assert_eq!(
        rec.metrics().counter("rebalance_steals"),
        stats.steals,
        "counter mirrors the run"
    );
    assert_eq!(
        rec.metrics().counter("rebalance_migrated_txns"),
        stats.migrated_txns
    );
    let dump = Dump::parse(&rec.dump()).expect("rebalance lines round-trip");
    let restored: Vec<_> = dump.rebalances().map(|(_, e)| *e).collect();
    assert_eq!(restored, stats.events);
}

/// The telemetry bus rides sharded observed runs: one [`BusObserver`] per
/// shard engine, rings drained by the collector into one merged registry,
/// and the merged counters agree exactly with the run's own statistics.
#[test]
fn telemetry_bus_merges_sharded_observed_runs() {
    use asets_obs::TelemetryBus;
    use asets_sim::ShardedRuntime;
    use std::sync::Mutex;

    let n = 400;
    let specs = asets_workload::skewed_shards(n, 8, 1.5, 7);
    let shards = 4;
    let (observers, bus) = TelemetryBus::start(shards, 1 << 14);
    let slots = Mutex::new(observers.into_iter().map(Some).collect::<Vec<_>>());
    let (result, _obs) = ShardedRuntime::new(specs, PolicyKind::asets_star())
        .shards(shards)
        .run_observed(|shard, _table| {
            slots.lock().unwrap()[shard]
                .take()
                .expect("one observer per shard")
        })
        .unwrap();
    bus.shutdown();
    assert_eq!(bus.drops(), 0, "rings sized for the run must not drop");
    assert_eq!(bus.counter("bus_completions_total"), n as u64);
    assert_eq!(bus.counter("bus_arrivals_total"), n as u64);
    assert_eq!(
        bus.counter("bus_sched_points_total"),
        result.merged.stats.scheduling_points,
        "merged bus counters equal the merged run stats"
    );
    assert_eq!(
        bus.counter("bus_epochs_total"),
        result.merged.stats.scheduling_points,
        "batched shard engines report one epoch per point"
    );
    assert!(bus.counter("bus_decisions_total") > 0);
    let prom = bus.prometheus();
    assert!(prom.contains("bus_shards 4"), "{prom}");
    let slo = bus.slo_jsonl();
    assert!(
        slo.contains("\"slo_completions_total\",\"type\":\"counter\",\"value\":400"),
        "{slo}"
    );
}

fn units(u: u64) -> SimDuration {
    SimDuration::from_units_int(u)
}
