//! The sharded runtime: scale the simulator across cores by partitioning
//! whole workflows onto shard threads.
//!
//! Dependencies only ever connect transactions of the same workflow, so the
//! weakly-connected components of the dependency graph are independent
//! scheduling problems. [`asets_core::shard::partition`] groups components
//! by their routing key (the minimum transaction id of the component) and
//! places them on K shards with a deterministic LPT rule; this module runs
//! one [`Engine`] per shard — each with its own policy instance, its own
//! [`asets_core::table::TxnTable`] slice and (optionally) its own observer —
//! and merges the per-shard results back into global ids. With
//! [`ShardedRuntime::rebalance`] at K > 1 the shards trade work at epoch
//! boundaries instead, on the threaded driver in [`crate::threaded`].
//!
//! Sharding changes the model: K shards of M servers each behave like K
//! *independent* M-server systems with a static workflow assignment, not
//! like one K·M-server system. With `K = 1, M = 1` the runtime is
//! bit-identical to the single [`Engine`] (the determinism oracle in
//! `tests/shard_determinism.rs` pins this), which is what makes the scale-out
//! path trustworthy: every speedup is measured against an exact baseline.
//!
//! Merging is exact where the paper's definitions allow it: per-transaction
//! outcomes are concatenated and the headline [`MetricsSummary`] is
//! recomputed from the merged outcomes (so Definitions 3–5 hold exactly);
//! [`RunStats`] counters add; traces and backlog series interleave by
//! instant with ties broken by shard index.

use crate::engine::{Engine, EventPump, SimResult};
use crate::stats::BacklogSeries;
use crate::stats::{EpochStats, RunStats};
use crate::trace::{Trace, TraceEvent};
use asets_core::dag::{DagError, DepDag};
use asets_core::metrics::MetricsSummary;
use asets_core::obs::{share, Observer};
use asets_core::policy::{PolicyKind, Scheduler};
use asets_core::shard::partition;
use asets_core::table::TxnTable;
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::{TxnId, TxnOutcome, TxnSpec};
use std::cell::RefCell;
use std::rc::Rc;

/// One shard's view of a sharded run, already remapped to global ids.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard index, `0..K`.
    pub shard: usize,
    /// The global transaction ids this shard owned, ascending.
    pub txns: Vec<TxnId>,
    /// The shard engine's result (outcomes/trace in global ids).
    pub result: SimResult,
}

/// The merged outcome of a sharded run plus per-shard detail.
#[derive(Debug, Clone)]
pub struct ShardedResult {
    /// Globally merged result: outcomes in id order, summary recomputed
    /// from the merged outcomes, stats/trace/backlog merged per their
    /// documented semantics.
    pub merged: SimResult,
    /// Per-shard results, indexed by shard.
    pub shards: Vec<ShardRun>,
    /// `shard_of[i]` is the shard that owned global `TxnId(i)` at the
    /// *initial* partition; rebalanced runs may complete it elsewhere (see
    /// [`RebalanceStats::events`] for the movement log).
    pub shard_of: Vec<u32>,
    /// Rebalancing telemetry; `Some` iff the run was built with
    /// [`ShardedRuntime::rebalance`] (all zero at `K = 1`, where there is
    /// no second shard to trade with).
    pub rebalance: Option<RebalanceStats>,
}

/// Configuration for the rebalanced sharded mode ([`crate::threaded`]).
///
/// Both mechanisms preserve the routing invariant — a workflow never spans
/// two shards mid-flight: migration moves whole dependency components whose
/// members are all strictly in the future, and stealing only takes
/// singleton components that are ready and have accrued no service.
/// Build one with [`RebalanceConfig::migrate_every`], which validates the
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// The boundary cadence: shards meet, and the migration planner runs,
    /// only at multiples of this interval, and only at those where a
    /// decision can happen. Always positive.
    pub(crate) epoch: SimDuration,
    /// Enable deadline-aware work stealing at epoch boundaries.
    pub(crate) steal: bool,
    /// Maximum transactions stolen per grab (clamped by idle servers).
    pub(crate) steal_k: usize,
}

impl RebalanceConfig {
    /// Migrate whole components at every `epoch` boundary.
    ///
    /// # Panics
    /// If `epoch` is zero: boundaries would never advance.
    pub fn migrate_every(epoch: SimDuration) -> RebalanceConfig {
        assert!(!epoch.is_zero(), "epoch must be positive");
        RebalanceConfig {
            epoch,
            steal: false,
            steal_k: 4,
        }
    }

    /// Enable work stealing (up to `k` transactions per grab).
    ///
    /// An idle thief asks for `min(idle servers, k)` transactions, so on
    /// one-server pools it asks for one and `k` never acts.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn with_steal(mut self, k: usize) -> RebalanceConfig {
        assert!(k >= 1, "steal_k must be at least 1");
        self.steal = true;
        self.steal_k = k;
        self
    }
}

/// One rebalancing action, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceEvent {
    /// A whole unarrived dependency component changed owner at an epoch
    /// boundary.
    Migration {
        /// Simulated instant of the epoch boundary.
        at: SimTime,
        /// Routing key (smallest transaction id) of the moved component.
        key: u32,
        /// Source shard.
        from: u32,
        /// Destination shard.
        to: u32,
        /// Members moved.
        txns: u32,
        /// Work moved, in ticks.
        work_ticks: u64,
    },
    /// An idle shard stole a ready, never-served singleton transaction.
    Steal {
        /// Simulated instant the handoff takes effect on the thief: the
        /// epoch boundary the grant rides to.
        at: SimTime,
        /// The stolen transaction.
        txn: TxnId,
        /// Victim shard.
        from: u32,
        /// Thief shard.
        to: u32,
        /// The requesting (thief) shard's clock when it asked.
        requested_at: SimTime,
        /// The granting (victim) shard's clock when it answered.
        granted_at: SimTime,
    },
}

/// Telemetry of a rebalanced run's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Epoch boundaries at which the planner produced at least one move.
    pub migration_rounds: u64,
    /// Whole components migrated.
    pub migrated_components: u64,
    /// Transactions carried by those components.
    pub migrated_txns: u64,
    /// Work carried by those components, in ticks.
    pub migrated_work: u64,
    /// Transactions stolen.
    pub steals: u64,
    /// Steal requests idle thieves posted in their boundary reports.
    pub steal_requests: u64,
    /// Boundary rounds the shards met at. Boundaries where no decision can
    /// happen — inside a quiet stretch, or in a drain before any shard can
    /// run dry — are skipped, so this counts fewer rounds than epochs.
    pub barriers: u64,
    /// Every action, in order: by boundary, migrations before steals.
    pub events: Vec<RebalanceEvent>,
}

/// Builder/runner for sharded simulations.
///
/// ```
/// use asets_core::prelude::*;
/// use asets_sim::ShardedRuntime;
///
/// let specs: Vec<TxnSpec> = (0..8)
///     .map(|_i| {
///         TxnSpec::independent(
///             SimTime::ZERO,
///             SimTime::from_units_int(20),
///             SimDuration::from_units_int(2),
///             Weight::ONE,
///         )
///     })
///     .collect();
/// let r = ShardedRuntime::new(specs, PolicyKind::Edf)
///     .shards(4)
///     .run()
///     .unwrap();
/// assert_eq!(r.merged.outcomes.len(), 8);
/// // 8 independent txns over 4 shards: 2 per shard, drained in parallel.
/// assert_eq!(r.merged.stats.makespan, SimTime::from_units_int(4));
/// ```
pub struct ShardedRuntime {
    pub(crate) specs: Vec<TxnSpec>,
    pub(crate) kind: PolicyKind,
    pub(crate) shards: usize,
    pub(crate) servers: usize,
    pub(crate) trace: bool,
    pub(crate) backlog: Option<SimDuration>,
    pub(crate) rebalance: Option<RebalanceConfig>,
}

impl ShardedRuntime {
    /// A runtime over `specs` under `kind`, defaulting to one shard with
    /// one server — the paper's model — on the simulated [`EventPump`].
    pub fn new(specs: Vec<TxnSpec>, kind: PolicyKind) -> ShardedRuntime {
        ShardedRuntime {
            specs,
            kind,
            shards: 1,
            servers: 1,
            trace: false,
            backlog: None,
            rebalance: None,
        }
    }

    /// Partition workflows across `k` shard threads.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        self.shards = k;
        self
    }

    /// Give each shard's engine a pool of `m` servers.
    ///
    /// # Panics
    /// If `m == 0`.
    pub fn servers(mut self, m: usize) -> Self {
        assert!(m >= 1, "need at least one server per shard");
        self.servers = m;
        self
    }

    /// Record execution traces (merged across shards by instant).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Sample each shard's backlog at most once per `interval`.
    pub fn with_backlog_sampling(mut self, interval: SimDuration) -> Self {
        self.backlog = Some(interval);
        self
    }

    /// Balance load dynamically on the threaded driver
    /// ([`crate::threaded`]): K shard threads each step their own engine
    /// through epoch windows and meet at one barrier at each epoch
    /// boundary where a decision can happen (quiet stretches and drains
    /// that cannot change anything are skipped). At the barrier every
    /// shard reads every shard's report and computes the same plan, and
    /// work changes hands through that plan and the reports; nothing else
    /// crosses threads. Runs are deterministic for a fixed batch and
    /// config: every cross-shard effect lands at a barrier-ordered
    /// simulated instant.
    ///
    /// Two layers, configured by [`RebalanceConfig`]:
    ///
    /// * **epoch migration** — at every epoch boundary, whole dependency
    ///   components that have not arrived yet move from backlogged shards
    ///   to idle ones, at most 1 018 members from one shard to another per
    ///   boundary (planner: [`asets_core::shard::plan_rebalance`]);
    /// * **work stealing** (optional) — a shard that ends a window with
    ///   idle servers and no ready work asks the most-backlogged shard,
    ///   which grants up to `steal_k` ready, never-served singleton
    ///   transactions in its latest-start order
    ///   ([`Scheduler::steal_candidates`]), effective at the next boundary.
    ///
    /// With `K = 1` the run is the plain engine, bit-identical to
    /// [`crate::runner::simulate`] whatever the config says — there is no
    /// second shard to trade with — and reports all-zero
    /// [`RebalanceStats`].
    pub fn rebalance(mut self, cfg: RebalanceConfig) -> Self {
        self.rebalance = Some(cfg);
        self
    }

    /// A no-op, kept so existing callers compile: every rebalanced run
    /// with `K > 1` already uses the threaded driver.
    pub fn threaded(self) -> Self {
        self
    }

    /// Run every shard to completion and merge.
    ///
    /// Dependency errors (unknown ids, cycles) are detected on the *global*
    /// batch before any shard engine runs, so the error carries global ids.
    pub fn run(self) -> Result<ShardedResult, DagError> {
        self.run_inner(|_shard, _table| NoopObserver, false)
            .map(|(result, _obs)| result)
    }

    /// Like [`ShardedRuntime::run`], but attach a fresh observer to every
    /// shard's engine and policy. `make(shard, table)` is called on the
    /// shard's own thread with the shard's *local* transaction table, so
    /// observers can snapshot workflow structure before the run (observers
    /// are deliberately not `Sync`; only the finished observer crosses
    /// back). Returns the recovered observers in shard order alongside the
    /// result. Note the table uses shard-local ids; remap with the
    /// [`ShardRun::txns`] map when exporting global artifacts.
    pub fn run_observed<O, F>(self, make: F) -> Result<(ShardedResult, Vec<O>), DagError>
    where
        O: Observer + Send + 'static,
        F: Fn(usize, &TxnTable) -> O + Sync,
    {
        self.run_inner(make, true)
    }

    fn run_inner<O, F>(self, make: F, attach: bool) -> Result<(ShardedResult, Vec<O>), DagError>
    where
        O: Observer + Send + 'static,
        F: Fn(usize, &TxnTable) -> O + Sync,
    {
        if let Some(cfg) = self.rebalance.filter(|_| self.shards > 1) {
            return self.run_threaded(make, attach, cfg);
        }
        let n = self.specs.len();
        let kind = self.kind;
        let trace = self.trace;
        let backlog = self.backlog;
        let knobs = EngineKnobs {
            servers: self.servers,
            trace,
            backlog,
        };

        if self.shards == 1 {
            // Inline fast path: the plan is the identity, so skip the
            // partition pass and the remap/merge machinery entirely. The
            // batch moves into the shard's table unchanged — that build is
            // the validation, in global ids — which keeps this path within
            // noise of the plain engine (the shard_gate bench enforces it).
            let table = TxnTable::new(self.specs)?;
            let (result, obs) =
                ShardEngine::<O>::new(table, kind, knobs, |table| make(0, table), attach)
                    .finish_with(Engine::run);
            return Ok((
                ShardedResult {
                    merged: result.clone(),
                    shards: vec![ShardRun {
                        shard: 0,
                        txns: (0..n as u32).map(TxnId).collect(),
                        result,
                    }],
                    shard_of: vec![0; n],
                    rebalance: self.rebalance.map(|_| RebalanceStats::default()),
                },
                vec![obs],
            ));
        }

        // Validate the whole batch first, so errors carry global ids:
        // per-shard tables rebuild their local DAGs, but those never fail
        // after this (partitioning keeps every dependency inside its shard).
        DepDag::build(&self.specs)?;
        let plan = partition(&self.specs, self.shards);
        let shard_of = plan.shard_of;
        // Move each slice's specs into its thread; keep the id maps back
        // on this thread for the remap.
        let (spec_vecs, to_globals): (Vec<Vec<TxnSpec>>, Vec<Vec<TxnId>>) = plan
            .slices
            .into_iter()
            .map(|s| (s.specs, s.to_global))
            .unzip();

        let runs: Vec<(SimResult, O)> = std::thread::scope(|scope| {
            let handles: Vec<_> = spec_vecs
                .into_iter()
                .enumerate()
                .map(|(i, specs)| {
                    let make = &make;
                    scope.spawn(move || {
                        run_shard::<O>(specs, kind, knobs, |table| make(i, table), attach)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });

        let mut shards = Vec::with_capacity(runs.len());
        let mut observers = Vec::with_capacity(runs.len());
        for (i, ((result, obs), to_global)) in runs.into_iter().zip(to_globals).enumerate() {
            let result = remap(result, &to_global);
            shards.push(ShardRun {
                shard: i,
                txns: to_global,
                result,
            });
            observers.push(obs);
        }

        let merged = merge(&shards, trace, backlog.is_some());
        Ok((
            ShardedResult {
                merged,
                shards,
                shard_of,
                rebalance: None,
            },
            observers,
        ))
    }
}

/// Observer used by the unobserved path; never attached.
struct NoopObserver;
impl Observer for NoopObserver {}

/// Engine-construction knobs forwarded unchanged to every shard engine.
#[derive(Clone, Copy)]
pub(crate) struct EngineKnobs {
    pub(crate) servers: usize,
    pub(crate) trace: bool,
    pub(crate) backlog: Option<SimDuration>,
}

/// One shard's engine and its observer, shared with the engine and policy
/// when the run is observed. The static and threaded drivers both build
/// their shard engines here.
pub(crate) struct ShardEngine<O> {
    pub(crate) engine: Engine<Box<dyn Scheduler>>,
    observer: Rc<RefCell<O>>,
}

impl<O: Observer + 'static> ShardEngine<O> {
    /// Build an engine over `table` the way `runner::simulate` does — the
    /// policy derived from the same table — so a shard over a whole batch
    /// is bit-identical to the plain engine. The observer is built first,
    /// so it can inspect workflow structure up front.
    pub(crate) fn new(
        table: TxnTable,
        kind: PolicyKind,
        knobs: EngineKnobs,
        make: impl FnOnce(&TxnTable) -> O,
        attach: bool,
    ) -> Self {
        let observer = Rc::new(RefCell::new(make(&table)));
        let policy = kind.build(&table);
        let pump = EventPump::new(table.specs());
        let mut engine = Engine::from_table(table, policy, pump).with_servers(knobs.servers);
        if knobs.trace {
            engine = engine.with_trace();
        }
        if let Some(interval) = knobs.backlog {
            engine = engine.with_backlog_sampling(interval);
        }
        if attach {
            engine = engine.with_observer(share(&observer));
        }
        ShardEngine { engine, observer }
    }

    /// Report through `report` — [`Engine::run`] or [`Engine::finish`],
    /// which drop the engine and its policy, leaving ours the last strong
    /// reference to the observer — and hand the observer back.
    pub(crate) fn finish_with(
        self,
        report: impl FnOnce(Engine<Box<dyn Scheduler>>) -> SimResult,
    ) -> (SimResult, O) {
        let result = report(self.engine);
        let obs = Rc::try_unwrap(self.observer)
            .unwrap_or_else(|_| panic!("engine retained the observer past its run"))
            .into_inner();
        (result, obs)
    }
}

/// Run one shard's specs to completion on the current thread.
fn run_shard<O: Observer + 'static>(
    specs: Vec<TxnSpec>,
    kind: PolicyKind,
    knobs: EngineKnobs,
    make: impl FnOnce(&TxnTable) -> O,
    attach: bool,
) -> (SimResult, O) {
    let table = TxnTable::new(specs).expect("validated on the global batch");
    ShardEngine::<O>::new(table, kind, knobs, make, attach).finish_with(Engine::run)
}

/// Rewrite a shard-local result to global transaction ids.
fn remap(mut result: SimResult, to_global: &[TxnId]) -> SimResult {
    let g = |t: TxnId| to_global[t.0 as usize];
    for o in &mut result.outcomes {
        o.id = g(o.id);
    }
    if let Some(trace) = &mut result.trace {
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
    result
}

/// Merge remapped per-shard results into one global [`SimResult`].
pub(crate) fn merge(shards: &[ShardRun], trace: bool, backlog: bool) -> SimResult {
    let mut outcomes: Vec<TxnOutcome> = shards
        .iter()
        .flat_map(|s| s.result.outcomes.iter().copied())
        .collect();
    outcomes.sort_by_key(|o| o.id);
    let summary = MetricsSummary::from_outcomes(&outcomes);
    let stats_parts: Vec<RunStats> = shards.iter().map(|s| s.result.stats.clone()).collect();
    let stats = RunStats::merge(&stats_parts);
    let epoch_parts: Vec<EpochStats> = shards.iter().map(|s| s.result.epochs).collect();
    let epochs = EpochStats::merge(&epoch_parts);
    let trace = trace.then(|| merge_traces(shards));
    let backlog = backlog.then(|| {
        let parts: Vec<BacklogSeries> = shards
            .iter()
            .filter_map(|s| s.result.backlog.clone())
            .collect();
        BacklogSeries::merge(&parts)
    });
    SimResult {
        summary,
        outcomes,
        stats,
        trace,
        backlog,
        epochs,
    }
}

/// Stable k-way merge of shard traces by instant; ties resolve to the
/// lower shard index, and each shard's internal event order is preserved.
fn merge_traces(shards: &[ShardRun]) -> Trace {
    let mut cursors: Vec<std::slice::Iter<'_, TraceEvent>> = shards
        .iter()
        .map(|s| {
            s.result
                .trace
                .as_ref()
                .map(|t| t.events.iter())
                .unwrap_or([].iter())
        })
        .collect();
    let mut heads: Vec<Option<&TraceEvent>> = cursors.iter_mut().map(|c| c.next()).collect();
    let total: usize = shards
        .iter()
        .filter_map(|s| s.result.trace.as_ref())
        .map(|t| t.events.len())
        .sum();
    let mut events = Vec::with_capacity(total);
    while let Some(i) = heads
        .iter()
        .enumerate()
        .filter_map(|(i, h)| h.map(|e| (e.at(), i)))
        .min()
        .map(|(_, i)| i)
    {
        events.push(*heads[i].expect("selected head present"));
        heads[i] = cursors[i].next();
    }
    Trace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{at, dep, ind, units};
    use asets_core::txn::TxnId;

    fn chain(start_arr: u64, first: usize, len: usize) -> Vec<TxnSpec> {
        // Caller is responsible for id placement; helper builds specs only.
        (0..len)
            .map(|i| {
                if i == 0 {
                    ind(start_arr, 100, 2)
                } else {
                    dep(start_arr, 100, 2, &[(first + i - 1) as u32])
                }
            })
            .collect()
    }

    #[test]
    fn k1_matches_plain_engine_exactly() {
        let specs = vec![
            ind(0, 9, 3),
            dep(0, 15, 2, &[0]),
            ind(1, 4, 2),
            ind(2, 30, 5),
        ];
        let plain =
            crate::runner::simulate_traced(specs.clone(), PolicyKind::asets_star()).unwrap();
        let sharded = ShardedRuntime::new(specs, PolicyKind::asets_star())
            .with_trace()
            .run()
            .unwrap();
        assert_eq!(sharded.merged.outcomes, plain.outcomes);
        assert_eq!(sharded.merged.stats, plain.stats);
        assert_eq!(sharded.merged.trace, plain.trace);
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.shard_of, vec![0, 0, 0, 0]);
    }

    #[test]
    fn k2_separates_independent_chains() {
        // Two 3-txn chains, contiguous ids: roots 0 and 3.
        let mut specs = chain(0, 0, 3);
        specs.extend(chain(0, 3, 3));
        let r = ShardedRuntime::new(specs, PolicyKind::Edf)
            .shards(2)
            .with_trace()
            .run()
            .unwrap();
        assert_eq!(r.shards[0].txns, vec![TxnId(0), TxnId(1), TxnId(2)]);
        assert_eq!(r.shards[1].txns, vec![TxnId(3), TxnId(4), TxnId(5)]);
        // Each chain drains serially on its own shard: 6 units each, in
        // parallel, versus 12 serially on one server.
        assert_eq!(r.merged.stats.makespan, at(6));
        assert_eq!(r.merged.stats.completed, 6);
        assert_eq!(r.merged.summary.count, 6);
        // Merged trace is time-ordered.
        let tr = r.merged.trace.unwrap();
        for w in tr.events.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }

    #[test]
    fn merged_summary_equals_whole_batch_recompute() {
        // Definitions 3–5: the merged summary must equal the summary of the
        // concatenated outcomes — not an average of per-shard summaries.
        let specs: Vec<TxnSpec> = (0..9).map(|i| ind(i % 3, 2 + i, 1 + i % 4)).collect();
        let r = ShardedRuntime::new(specs, PolicyKind::Srpt)
            .shards(3)
            .run()
            .unwrap();
        let recomputed = MetricsSummary::from_outcomes(&r.merged.outcomes);
        assert_eq!(r.merged.summary, recomputed);
        // Outcomes cover every id exactly once, in order.
        let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn dependent_work_stays_on_one_shard() {
        // One 4-txn diamond and two singletons: K=4 must keep the diamond
        // whole (no cross-shard dependencies to coordinate).
        let specs = vec![
            ind(0, 50, 2),
            dep(0, 50, 2, &[0]),
            dep(0, 50, 2, &[0]),
            dep(0, 50, 2, &[1, 2]),
            ind(0, 50, 2),
            ind(0, 50, 2),
        ];
        let r = ShardedRuntime::new(specs, PolicyKind::asets_star())
            .shards(4)
            .run()
            .unwrap();
        let diamond_shard = r.shard_of[0];
        for i in 0..4 {
            assert_eq!(r.shard_of[i], diamond_shard);
        }
        assert_eq!(r.merged.stats.completed, 6);
    }

    #[test]
    fn global_dag_errors_surface_with_global_ids() {
        // Static K=2 validates the global batch up front; K=1 and the
        // rebalanced driver validate by building their one table from it.
        let bad = || vec![ind(0, 5, 1), dep(0, 5, 1, &[7])];
        let runs = [
            ShardedRuntime::new(bad(), PolicyKind::Edf).shards(2),
            ShardedRuntime::new(bad(), PolicyKind::Edf),
            ShardedRuntime::new(bad(), PolicyKind::Edf)
                .shards(2)
                .rebalance(RebalanceConfig::migrate_every(units(5))),
        ];
        for rt in runs {
            match rt.run().unwrap_err() {
                DagError::UnknownTxn { txn, dep } => {
                    assert_eq!((txn, dep), (TxnId(1), TxnId(7)))
                }
                other => panic!("expected UnknownTxn, got {other:?}"),
            }
        }
    }

    #[test]
    fn backlog_merges_across_shards() {
        let specs: Vec<TxnSpec> = (0..8).map(|_| ind(0, 1, 5)).collect();
        let r = ShardedRuntime::new(specs, PolicyKind::Srpt)
            .shards(2)
            .with_backlog_sampling(units(1))
            .run()
            .unwrap();
        let series = r.merged.backlog.unwrap();
        assert!(!series.samples.is_empty());
        // Each shard saw 4 ready at t=0; the merged series keeps per-shard
        // samples (two t=0 entries), not a global snapshot.
        let t0: Vec<u32> = series
            .samples
            .iter()
            .filter(|s| s.at == at(0))
            .map(|s| s.ready)
            .collect();
        assert_eq!(t0, vec![4, 4]);
    }

    #[test]
    fn run_observed_returns_one_observer_per_shard() {
        use asets_core::obs::Observer;
        use asets_core::time::SimTime;

        struct Counter {
            shard: usize,
            sched_points: u64,
        }
        impl Observer for Counter {
            fn sched_point(&mut self, _at: SimTime, _latency_ns: u64) {
                self.sched_points += 1;
            }
        }

        let mut specs = chain(0, 0, 3);
        specs.extend(chain(0, 3, 3));
        let (r, observers) = ShardedRuntime::new(specs, PolicyKind::asets_star())
            .shards(2)
            .run_observed(|shard, _table| Counter {
                shard,
                sched_points: 0,
            })
            .unwrap();
        assert_eq!(observers.len(), 2);
        assert_eq!(observers[0].shard, 0);
        assert_eq!(observers[1].shard, 1);
        let total: u64 = observers.iter().map(|o| o.sched_points).sum();
        assert_eq!(total, r.merged.stats.scheduling_points);
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn migrate_every_rejects_a_zero_epoch() {
        // A zero cadence would never advance the boundary.
        let _ = RebalanceConfig::migrate_every(SimDuration::ZERO);
    }

    #[test]
    fn servers_knob_reaches_every_shard() {
        // 4 independent txns, 1 shard, 2 servers: pairwise parallel.
        let specs: Vec<TxnSpec> = (0..4).map(|_| ind(0, 20, 3)).collect();
        let r = ShardedRuntime::new(specs, PolicyKind::Edf)
            .servers(2)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.makespan, at(6));
    }
}
