//! The observability tax, measured.
//!
//! Variants of the exact `deep_workflow_scale/indexed/100` workload
//! (10k transactions in 100-member interleaved chains under indexed
//! ASETS\*). The first four keep that row's per-event maintenance (ASETS\*
//! under [`PerEvent`]); the rest run its coalesced `on_batch` pass:
//!
//! 1. `disabled` — no observer attached. This is PR 1's hot path and MUST
//!    stay there: `ObserverSlot` is a single `Option` branch per decision
//!    and the engine takes zero clock reads. `obs_gate` compares this mean
//!    against `deep_workflow_scale/indexed/100` from a same-machine
//!    `BENCH_scheduler.json` and fails the build on a >5% regression.
//! 2. `noop` — a `NoopObserver` attached through the real `Rc<RefCell<..>>`
//!    plumbing. The delta over `disabled` is the cost of building decision
//!    records plus two `Instant` reads per scheduling point — the floor any
//!    real observer pays.
//! 3. `flight_recorder` — a full `FlightRecorder` (ring writes, counters,
//!    histograms). The delta over `noop` is the recording cost itself.
//! 4. `spans` — a full `SpanRecorder` (flight ring *plus* lifecycle span
//!    events and phase profiling). The delta over `flight_recorder` is the
//!    span-tracing cost; `obs_gate` prints it as its own artifact row.
//! 5. `disabled_batched` — coalesced maintenance, unobserved: the
//!    production default's baseline.
//! 6. `batched` — the same `FlightRecorder` over coalesced maintenance.
//!    `obs_gate` requires this to beat `flight_recorder` (the per-event
//!    observed run) by its pinned speedup floor: observation must not
//!    forfeit batching.
//! 7. `sampled_64` — a 1-in-64 `SamplingObserver` around the recorder,
//!    coalesced. Declines timing, samples spans, keeps counters and the
//!    SLO sketches exact. `obs_gate` pins this near `disabled_batched` —
//!    the always-on production configuration.
//! 8. `bus_live` — a `BusObserver` pushing into a lock-free ring with the
//!    collector thread live, coalesced: the scrape-endpoint deployment
//!    shape.

use asets_bench::chain_workload;
use asets_core::obs::{share, NoopObserver, SharedObserver};
use asets_core::policy::reference::PerEvent;
use asets_core::policy::{AsetsStar, Scheduler};
use asets_core::table::TxnTable;
use asets_core::txn::TxnSpec;
use asets_obs::{FlightRecorder, SamplingObserver, SpanRecorder, TelemetryBus};
use asets_sim::Engine;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

/// Ring size for the `flight_recorder` variant: large enough that the
/// 10k-transaction run never evicts, so the bench times steady-state pushes
/// rather than eviction churn.
const RING: usize = 1 << 20;

/// Span-sampling period of the `sampled_64` variant (must match the
/// `obs_gate` row name).
const SAMPLE_PERIOD: u64 = 64;

/// Bus ring capacity for `bus_live`: sized so a full run's events fit even
/// if the collector never wakes mid-iteration (drops would understate the
/// push cost).
const BUS_RING: usize = 1 << 18;

/// The `deep_workflow_scale/indexed` policy: ASETS\* maintained per event.
fn indexed(table: &TxnTable) -> PerEvent<AsetsStar> {
    PerEvent(AsetsStar::with_defaults(table))
}

/// Time full runs of `specs` under the policy `make` builds, with an
/// observer made by `make_obs` (or none), clones prepared outside the
/// timed region.
fn bench_observed<S, M, F>(
    g: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    specs: &[TxnSpec],
    make: M,
    make_obs: F,
) where
    S: Scheduler,
    M: Fn(&TxnTable) -> S,
    F: Fn() -> Option<SharedObserver>,
{
    g.bench_with_input(id, &specs, |b, specs| {
        b.iter_batched(
            || (specs.to_vec(), specs.to_vec(), make_obs()),
            |(for_table, for_sim, obs)| {
                let table = TxnTable::new(for_table).unwrap();
                let mut engine = Engine::new(for_sim, make(&table)).unwrap();
                if let Some(obs) = obs {
                    engine = engine.with_observer(obs);
                }
                black_box(engine.run().summary.avg_tardiness)
            },
            BatchSize::LargeInput,
        )
    });
}

fn observer_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("observer_overhead");
    g.sample_size(10);
    let specs = chain_workload(10_000, 100);

    // Per-event maintenance.
    bench_observed(
        &mut g,
        BenchmarkId::new("disabled", 100),
        &specs,
        indexed,
        || None,
    );
    bench_observed(
        &mut g,
        BenchmarkId::new("noop", 100),
        &specs,
        indexed,
        || Some(share(&Rc::new(RefCell::new(NoopObserver)))),
    );
    bench_observed(
        &mut g,
        BenchmarkId::new("flight_recorder", 100),
        &specs,
        indexed,
        || Some(share(&FlightRecorder::shared(RING))),
    );
    bench_observed(
        &mut g,
        BenchmarkId::new("spans", 100),
        &specs,
        indexed,
        || Some(share(&Rc::new(RefCell::new(SpanRecorder::new(RING))))),
    );

    // Coalesced maintenance.
    bench_observed(
        &mut g,
        BenchmarkId::new("disabled_batched", 100),
        &specs,
        AsetsStar::with_defaults,
        || None,
    );
    bench_observed(
        &mut g,
        BenchmarkId::new("batched", 100),
        &specs,
        AsetsStar::with_defaults,
        || Some(share(&FlightRecorder::shared(RING))),
    );
    bench_observed(
        &mut g,
        BenchmarkId::new("sampled_64", 100),
        &specs,
        AsetsStar::with_defaults,
        || {
            Some(share(&Rc::new(RefCell::new(SamplingObserver::new(
                FlightRecorder::new(RING),
                SAMPLE_PERIOD,
            )))))
        },
    );
    // One live bus for the whole variant: the collector thread drains while
    // iterations run, which is exactly the deployment shape. The single
    // ring is reused serially (one engine at a time), preserving SPSC.
    let (mut observers, bus) = TelemetryBus::start(1, BUS_RING);
    let bus_obs = share(&Rc::new(RefCell::new(observers.pop().unwrap())));
    bench_observed(
        &mut g,
        BenchmarkId::new("bus_live", 100),
        &specs,
        AsetsStar::with_defaults,
        move || Some(bus_obs.clone()),
    );
    g.finish();
    bus.shutdown();
}

criterion_group!(benches, observer_overhead);
criterion_main!(benches);
