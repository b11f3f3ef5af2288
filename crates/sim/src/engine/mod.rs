//! The discrete-event simulation engine, layered as an event pump plus a
//! server pool.
//!
//! Model (paper §II-A, §IV-A): a backend database server executes one
//! transaction at a time; service equals the transaction's processing time.
//! Scheduling is **event-preemptive**: a running transaction can lose its
//! server only at a scheduling point — a transaction arrival, a transaction
//! completion, or a policy wake-up (the balance-aware activation timer).
//! Between events servers run undisturbed, which is exactly the invocation
//! model the paper claims for ASETS\*.
//!
//! The runtime is layered:
//!
//! * [`pump::EventPump`] owns simulated time and the arrival schedule: it
//!   folds the next completion/arrival/wake-up into the next scheduling
//!   point and delivers arrivals in per-instant batches;
//! * [`pool::ServerPool`] owns M logical server slots (M = 1 by default,
//!   reproducing the paper's single-server model bit for bit);
//! * [`Engine`] orchestrates: it settles every server at a scheduling
//!   point, feeds lifecycle events to the policy, asks
//!   [`Scheduler::select_many`] for up to M choices, and dispatches.
//!
//! At every scheduling point the engine:
//!
//! 1. settles each server in index order — completing its transaction if
//!    the remaining time elapsed, otherwise *pausing* it (crediting
//!    service);
//! 2. delivers all arrivals due at this instant;
//! 3. hands the instant's lifecycle events to the policy in one
//!    [`Scheduler::on_batch`] maintain pass (the policy re-keys paused
//!    transactions, retires completed ones, indexes ready ones);
//! 4. asks the policy to fill the servers. Choices resume on their previous
//!    server when they have one (no trace events), otherwise they take the
//!    lowest-indexed free server — preferring genuinely empty servers over
//!    displacing a paused transaction. A paused transaction is *preempted*
//!    iff a different transaction took its server; paused transactions the
//!    policy did not re-choose and nobody displaced simply keep running
//!    (work conservation when a single-fill policy meets an M-server pool).
//!
//! With M = 1 this reduces exactly to the paper's semantics: the single
//! choice either resumes the paused transaction or preempts it, and a
//! `select` returning `None` while something is paused is a policy bug.
//!
//! The engine is fully deterministic: simultaneous events are processed in
//! a fixed order (servers by index, arrivals by id, choices in policy
//! order) and all policy tie-breaks are by transaction id.

pub mod pool;
pub mod pump;

pub use pool::{Running, ServerPool};
pub use pump::{EventPump, Pump};

use crate::stats::{BacklogSample, BacklogSeries, EpochStats, RunStats};
use crate::trace::{Trace, TraceEvent};
use asets_core::dag::DagError;
use asets_core::metrics::MetricsSummary;
use asets_core::obs::{CompletionInfo, EnginePhase, EpochSummary, SharedObserver};
use asets_core::policy::{LifecycleEvent, Scheduler};
use asets_core::table::TxnTable;
use asets_core::time::SimDuration;
use asets_core::time::SimTime;
use asets_core::txn::TxnPhase;
use asets_core::txn::{TxnId, TxnOutcome, TxnSpec};
use std::time::Instant;

/// The outcome of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Aggregated paper metrics (Definitions 3–5 and companions).
    pub summary: MetricsSummary,
    /// Per-transaction outcomes, in id order.
    pub outcomes: Vec<TxnOutcome>,
    /// Mechanical run statistics.
    pub stats: RunStats,
    /// Execution trace, when recording was requested.
    pub trace: Option<Trace>,
    /// Backlog time series, when sampling was requested.
    pub backlog: Option<BacklogSeries>,
    /// Epoch coalescing telemetry (see [`EpochStats`]).
    pub epochs: EpochStats,
}

/// A discrete-event simulation of one transaction batch under one policy,
/// on an M-server pool (M = 1 by default: the paper's model).
///
/// Generic over the time/arrival seam `P`: the default [`EventPump`] runs
/// in simulated time (every determinism pin uses it); a
/// [`crate::live::LivePump`] runs the same engine against the wall clock.
pub struct Engine<S, P = EventPump> {
    table: TxnTable,
    policy: S,
    pump: P,
    pool: ServerPool,
    stats: RunStats,
    trace: Option<Trace>,
    backlog: Option<(SimDuration, BacklogSeries)>,
    obs: Option<SharedObserver>,
    /// Whether the attached observer wants wall-clock latencies (cached at
    /// attach from [`asets_core::obs::Observer::wants_timing`]); `false`
    /// removes every `Instant` read from the scheduling-point path.
    obs_timing: bool,
    epoch: EpochStats,
    // Reused per-point scratch (no allocations on the hot path).
    choices: Vec<TxnId>,
    paused: Vec<(usize, TxnId)>,
    paused_on: Vec<Option<TxnId>>,
    taken: Vec<bool>,
    events: Vec<LifecycleEvent>,
    due: Vec<TxnId>,
    released: Vec<TxnId>,
}

impl<S: Scheduler> Engine<S> {
    /// Build a single-server engine over a validated batch, in simulated
    /// time (the default pump).
    pub fn new(specs: Vec<TxnSpec>, policy: S) -> Result<Self, DagError> {
        let pump = EventPump::new(&specs);
        Self::with_pump(specs, policy, pump)
    }
}

impl<S: Scheduler, P: Pump> Engine<S, P> {
    /// Build a single-server engine over a validated batch with an
    /// explicit pump — the generic constructor behind [`Engine::new`],
    /// and the way the live front-end installs a wall-clock pump.
    pub fn with_pump(specs: Vec<TxnSpec>, policy: S, pump: P) -> Result<Self, DagError> {
        let table = TxnTable::new(specs)?;
        Ok(Self::from_table(table, policy, pump))
    }

    /// Build an engine over an already-validated table. Callers that need
    /// the table before the engine exists — to build the policy from it —
    /// hand that same table over, so a run validates its batch and builds
    /// its DAG once. The threaded driver's K full-batch engines each take a
    /// cheap clone of one master table (spec and DAG storage is shared, see
    /// [`TxnTable`]), which keeps per-shard setup proportional to state,
    /// not to batch description.
    pub fn from_table(table: TxnTable, policy: S, pump: P) -> Self {
        Engine {
            table,
            policy,
            pump,
            pool: ServerPool::new(1),
            stats: RunStats::default(),
            trace: None,
            backlog: None,
            obs: None,
            obs_timing: true,
            epoch: EpochStats::default(),
            choices: Vec::new(),
            paused: Vec::new(),
            paused_on: Vec::new(),
            taken: Vec::new(),
            events: Vec::new(),
            due: Vec::new(),
            released: Vec::new(),
        }
    }

    /// Use a pool of `servers` logical servers instead of the default
    /// single server. Call before [`Engine::run`].
    ///
    /// # Panics
    /// If `servers == 0`.
    pub fn with_servers(mut self, servers: usize) -> Self {
        self.pool = ServerPool::new(servers);
        self
    }

    /// Enable trace recording (off by default; traces are large).
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Trace::default());
        self
    }

    /// Record a backlog sample at scheduling points, at most once per
    /// `interval` of simulated time.
    pub fn with_backlog_sampling(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        self.backlog = Some((interval, BacklogSeries::default()));
        self
    }

    /// Attach an observer: the engine reports scheduling points (with
    /// wall-clock decision latency) and dispatches, and hands the same
    /// observer to the policy for decision/migration provenance. Costs a
    /// few `Instant::now` reads per scheduling point when attached —
    /// unless the observer opts out via
    /// [`asets_core::obs::Observer::wants_timing`] (read once here), in
    /// which case the point path takes zero clock reads and latencies
    /// report as 0. Nothing is paid when detached.
    pub fn with_observer(mut self, obs: SharedObserver) -> Self {
        self.policy.attach_observer(obs.clone());
        self.obs_timing = obs.borrow().wants_timing();
        self.obs = Some(obs);
        self
    }

    /// Read access to the table mid-run (used by tests).
    pub fn table(&self) -> &TxnTable {
        &self.table
    }

    /// The policy driving this engine.
    pub fn policy(&self) -> &S {
        &self.policy
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.pool.len()
    }

    /// Run to completion of every transaction and report.
    ///
    /// # Panics
    /// If the policy stalls (returns no choice while transactions are
    /// ready) or selects a non-ready transaction — both are policy bugs,
    /// not workload conditions, so they fail loudly.
    pub fn run(mut self) -> SimResult {
        while self.step() {}
        debug_assert!(self.pump.exhausted());
        self.finish()
    }

    /// Process the next scheduling point; `false` once every transaction
    /// has completed. [`Engine::run`] is `while self.step() {}` plus the
    /// final report — stepping manually lets tests meter a warmed-up steady
    /// state (the zero-allocation suite drives the engine this way).
    ///
    /// # Panics
    /// As [`Engine::run`]: a stalled policy is a bug, not a workload
    /// condition.
    pub fn step(&mut self) -> bool {
        if self.table.all_completed() {
            return false;
        }
        let completion = self.pool.earliest_completion(&self.table);
        let now = self.pump.now();
        let wakeup = self.policy.next_wakeup(now).filter(|&w| w > now);
        let Some((t, _kind)) = self.pump.next_point(completion, wakeup) else {
            if P::REAL_TIME {
                // A drained wall-clock pump is normal termination: shed
                // (never-admitted) transactions legitimately never
                // complete, so `all_completed` cannot be the exit test.
                return false;
            }
            panic!(
                "simulation stalled at {} with {}/{} completed: policy `{}` \
                 left ready transactions unscheduled",
                self.pump.now(),
                self.table.completed_count(),
                self.table.len(),
                self.policy.name()
            );
        };
        self.step_to(t);
        true
    }

    /// Process the scheduling point at instant `t` as one *epoch*: settle
    /// every server and deliver the instant's arrivals (mutating the table
    /// and recording one [`LifecycleEvent`] per transition), then hand the
    /// whole same-instant batch to the policy in one [`Scheduler::on_batch`]
    /// call, then select and dispatch. Observer lifecycle hooks
    /// (`served`/`completed`/`became_ready`/`arrived`) fire inline, as the
    /// table mutations they narrate happen.
    ///
    /// Deferring the policy hooks past the table mutations is an
    /// optimization of *when* maintenance runs, not of what is decided:
    /// the events arrive in the order a per-event loop would have fired
    /// them, and the trait's default `on_batch` replays them hook by hook.
    /// `tests/batched_determinism.rs` pins every policy's `on_batch`
    /// against that replay ([`asets_core::policy::reference::PerEvent`]).
    fn step_to(&mut self, t: SimTime) {
        let gap = self.pump.advance(t);
        // Self-profiling clock: one Instant per phase boundary, and only
        // when an attached observer wants timing — the disabled path (and
        // the sampled path) takes no reads.
        let phase_started = (self.obs.is_some() && self.obs_timing).then(Instant::now);

        // 1. Settle every server, in index order. Completions release
        // their dependents through the reused scratch; survivors are paused
        // (service credited) and remembered with their server for affinity
        // resume.
        self.paused.clear();
        self.events.clear();
        for s in 0..self.pool.len() {
            match self.pool.take(s) {
                Some(r) => {
                    let served = t - r.since;
                    self.stats.busy += served;
                    let finishing = served == self.table.remaining(r.txn);
                    if let Some(obs) = &self.obs {
                        obs.borrow_mut()
                            .served(s as u32, r.txn, r.since, t, finishing);
                    }
                    if finishing {
                        // Lifecycle observers get the completion context
                        // captured *before* `complete_into` consumes the
                        // state.
                        let info = self.obs.is_some().then(|| {
                            let spec = self.table.spec(r.txn);
                            let ready_at = self.table.state(r.txn).ready_at.unwrap_or(spec.arrival);
                            CompletionInfo {
                                finish: t,
                                deadline: spec.deadline,
                                tardiness: t.saturating_since(spec.deadline),
                                queue_wait: t
                                    .saturating_since(ready_at)
                                    .saturating_sub(spec.length),
                                service: spec.length,
                                met_deadline: t <= spec.deadline,
                            }
                        });
                        self.released.clear();
                        self.table
                            .complete_into(r.txn, t, served, &mut self.released);
                        self.pump.note_completed(r.txn);
                        self.stats.completed += 1;
                        self.stats.makespan = t;
                        self.record(TraceEvent::Completed {
                            at: t,
                            txn: r.txn,
                            met_deadline: t <= self.table.deadline(r.txn),
                        });
                        if let (Some(obs), Some(info)) = (&self.obs, &info) {
                            obs.borrow_mut().completed(t, r.txn, info);
                        }
                        self.events.push(LifecycleEvent::Complete(r.txn));
                        for i in 0..self.released.len() {
                            if let Some(obs) = &self.obs {
                                obs.borrow_mut().became_ready(t, self.released[i]);
                            }
                            self.events.push(LifecycleEvent::Ready(self.released[i]));
                        }
                    } else {
                        self.table.pause(r.txn, served);
                        self.events.push(LifecycleEvent::Requeue(r.txn));
                        self.paused.push((s, r.txn));
                    }
                }
                None => {
                    self.stats.idle += gap;
                }
            }
        }

        // 2. Deliver arrivals due now (through the reused scratch buffer —
        // no per-point allocation).
        self.due.clear();
        self.pump.take_due_into(&mut self.due);
        for i in 0..self.due.len() {
            let id = self.due[i];
            if P::REAL_TIME {
                // Online serving: the SLA clock starts at admission, not
                // at the universe's pre-generated nominal arrival.
                self.table.rebase_arrival(id, t);
            }
            let ready = self.table.arrive(id, t);
            self.record(TraceEvent::Arrived {
                at: t,
                txn: id,
                ready,
            });
            if let Some(obs) = &self.obs {
                obs.borrow_mut().arrived(t, id, ready);
            }
            self.events.push(if ready {
                LifecycleEvent::Ready(id)
            } else {
                LifecycleEvent::BlockedArrival(id)
            });
        }

        // 3. One maintain pass over the whole epoch: the policy's
        // index-maintenance window.
        self.policy.on_batch(&self.events, &self.table, t);
        let _ = self.emit_phase(t, EnginePhase::Maintain, phase_started);
        let width = self.events.len() as u32;
        self.epoch.note(width);
        self.emit_epoch(t, width);

        // 4. Sample backlog if due, then select and dispatch.
        self.sample_backlog(t);
        self.select_and_dispatch(t);
    }

    /// Hand the attached observer the epoch it just heard piecemeal: the
    /// coalesced lifecycle slice plus the run's cumulative epoch telemetry,
    /// fired right after `EpochStats::note`.
    fn emit_epoch(&self, t: SimTime, width: u32) {
        if let Some(obs) = &self.obs {
            let summary = EpochSummary {
                at: t,
                width,
                epochs: self.epoch.epochs,
                events: self.epoch.events,
                max_width: self.epoch.max_epoch_width,
            };
            obs.borrow_mut().on_epoch(&self.events, &summary);
        }
    }

    /// Select and dispatch at instant `t` — the last phase of a scheduling
    /// point. Decision latency is only measured when an observer is
    /// attached, keeping the unobserved hot path free of clock reads.
    fn select_and_dispatch(&mut self, t: SimTime) {
        self.stats.scheduling_points += 1;
        let slots = self.pool.len();
        let started = (self.obs.is_some() && self.obs_timing).then(Instant::now);
        self.choices.clear();
        self.policy
            .select_many(&self.table, t, slots, &mut self.choices);
        if let Some(obs) = &self.obs {
            // `sched_point` always fires (counters hang off it); the Select
            // phase span only exists when latency was actually measured.
            let latency_ns = started
                .map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                .unwrap_or(0);
            let mut o = obs.borrow_mut();
            o.sched_point(t, latency_ns);
            if started.is_some() {
                o.engine_phase(t, EnginePhase::Select, latency_ns);
            }
        }
        let dispatch_started = (self.obs.is_some() && self.obs_timing).then(Instant::now);

        if self.choices.is_empty() {
            assert!(
                self.paused.is_empty(),
                "policy `{}` returned None while {} is paused with work left",
                self.policy.name(),
                self.paused.first().map(|&(_, p)| p).unwrap_or(TxnId(0))
            );
            // O(1): every server was taken before select, so nothing is
            // Running and the ready gauge counts exactly what `select` saw.
            debug_assert!(
                self.table.ready_count() == 0,
                "policy `{}` returned None with ready transactions pending",
                self.policy.name()
            );
            return;
        }
        assert!(
            self.choices.len() <= slots,
            "policy `{}` returned {} choices for {} servers",
            self.policy.name(),
            self.choices.len(),
            slots
        );
        for (i, &c) in self.choices.iter().enumerate() {
            assert!(
                self.table.state(c).is_ready(),
                "policy `{}` selected non-ready {c}",
                self.policy.name()
            );
            debug_assert!(
                !self.choices[..i].contains(&c),
                "policy `{}` selected {c} twice",
                self.policy.name()
            );
        }

        // Map each server to its paused former occupant and reserve the
        // servers that re-chosen transactions resume on (affinity).
        self.paused_on.clear();
        self.paused_on.resize(slots, None);
        for &(s, p) in &self.paused {
            self.paused_on[s] = Some(p);
        }
        self.taken.clear();
        self.taken.resize(slots, false);
        for &c in &self.choices {
            if let Some(&(s, _)) = self.paused.iter().find(|&&(_, p)| p == c) {
                self.taken[s] = true;
            }
        }

        // Dispatch choices in policy order. New dispatches prefer genuinely
        // empty servers (ascending index) before displacing a paused
        // transaction; displacement is a preemption.
        let choices = std::mem::take(&mut self.choices);
        for &c in &choices {
            let resume_on = self.paused.iter().find(|&&(_, p)| p == c).map(|&(s, _)| s);
            let s = match resume_on {
                Some(s) => s,
                None => {
                    let s = (0..slots)
                        .find(|&s| !self.taken[s] && self.paused_on[s].is_none())
                        .or_else(|| (0..slots).find(|&s| !self.taken[s]))
                        .expect("at most `slots` choices, so a server is free");
                    self.taken[s] = true;
                    s
                }
            };
            if resume_on.is_none() {
                let prev = self.paused_on[s];
                if let Some(p) = prev {
                    self.table.record_preemption(p);
                    self.stats.preemptions += 1;
                    self.record(TraceEvent::Preempted {
                        at: t,
                        txn: p,
                        by: c,
                    });
                }
                self.record(TraceEvent::Dispatched { at: t, txn: c });
                if let Some(obs) = &self.obs {
                    obs.borrow_mut().dispatched(t, c, prev);
                }
            }
            self.table.start_running(c);
            self.stats.dispatches += 1;
            self.pool.place(s, Running { txn: c, since: t });
        }
        self.choices = choices;

        // Work conservation: paused transactions the policy did not re-pick
        // and nobody displaced keep their servers. With M = 1 this is
        // unreachable (a non-empty choice set either resumed or displaced
        // the single paused transaction).
        for i in 0..self.paused.len() {
            let (s, p) = self.paused[i];
            if self.choices.contains(&p) || self.pool.occupant(s).is_some() {
                continue;
            }
            self.table.start_running(p);
            self.stats.dispatches += 1;
            self.pool.place(s, Running { txn: p, since: t });
        }

        let _ = self.emit_phase(t, EnginePhase::Dispatch, dispatch_started);
    }

    /// Emit a scheduler self-profiling span covering the wall-clock time
    /// since `started`, returning a fresh clock for the next phase. A `None`
    /// clock means no observer is attached and nothing is measured.
    fn emit_phase(
        &self,
        t: SimTime,
        phase: EnginePhase,
        started: Option<Instant>,
    ) -> Option<Instant> {
        let started = started?;
        let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(obs) = &self.obs {
            obs.borrow_mut().engine_phase(t, phase, wall_ns);
        }
        Some(Instant::now())
    }

    /// Take a backlog sample at `t` if the sampling interval elapsed. The
    /// throttle itself lives in [`BacklogSeries`]; the `due` pre-check just
    /// skips the table scan when the sample would be rejected anyway.
    fn sample_backlog(&mut self, t: SimTime) {
        let Some((interval, series)) = &mut self.backlog else {
            return;
        };
        if !series.due(*interval, t) {
            return;
        }
        let mut ready = 0u32;
        let mut blocked = 0u32;
        let mut infeasible = 0u32;
        for id in self.table.ids() {
            match self.table.state(id).phase {
                TxnPhase::Ready | TxnPhase::Running => {
                    ready += 1;
                    if !self.table.can_meet_deadline(id, t) {
                        infeasible += 1;
                    }
                }
                TxnPhase::Blocked => blocked += 1,
                _ => {}
            }
        }
        let accepted = series.record(
            *interval,
            BacklogSample {
                at: t,
                ready,
                blocked,
                infeasible,
            },
        );
        debug_assert!(accepted, "due() held, record() must accept");
    }

    fn record(&mut self, e: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.events.push(e);
        }
    }

    // ---- Rebalanced multi-shard surface ----
    //
    // The threaded rebalancing driver (`crate::threaded`) runs K engines
    // over one *global* spec batch: every engine holds the full table, but
    // its pump delivers only the shard's owned arrivals. These
    // crate-internal hooks expose exactly what its barrier rounds need —
    // the clock, windowed stepping, load gauges, and the victim half of a
    // steal (the thief admits a grant as a calendar arrival). Pump surgery
    // for epoch migration follows in its own block: the driver runs only
    // simulated shards, so it exists on the `EventPump` engine alone.

    /// The engine's next scheduling point, with the same completion >
    /// arrival > wakeup fold as [`Engine::step`] but no stall panic: a
    /// shard with nothing to do simply has no next point.
    fn next_point_time(&mut self) -> Option<SimTime> {
        let completion = self.pool.earliest_completion(&self.table);
        let now = self.pump.now();
        let wakeup = self.policy.next_wakeup(now).filter(|&w| w > now);
        self.pump.next_point(completion, wakeup).map(|(t, _)| t)
    }

    /// The engine's clock (the pump's current instant). The threaded
    /// rebalancing driver stamps steal requests and grants with it.
    pub(crate) fn now(&self) -> SimTime {
        self.pump.now()
    }

    /// Drive every scheduling point strictly before `horizon` and return
    /// the first point at/after it (`None` when the engine has no further
    /// event of its own). This is one shard's epoch window in the threaded
    /// rebalancing runtime: between two barriers a shard engine runs
    /// entirely on local state, so the whole window is a single call.
    pub(crate) fn run_window(&mut self, horizon: SimTime) -> Option<SimTime> {
        loop {
            match self.next_point_time() {
                Some(t) if t < horizon => self.step_to(t),
                other => return other,
            }
        }
    }

    /// Completed transactions so far (on this shard's table).
    pub(crate) fn completed(&self) -> usize {
        self.table.completed_count()
    }

    /// The instant of this engine's latest completion (zero before the
    /// first).
    pub(crate) fn last_completion(&self) -> SimTime {
        self.stats.makespan
    }

    /// Servers with no occupant right now.
    pub(crate) fn idle_servers(&self) -> usize {
        self.pool.len() - self.pool.busy_count()
    }

    /// Transactions ready but not running — the shard's waiting backlog
    /// gauge (a steal thief must read zero here; victims are ranked by it).
    /// O(1): the table maintains the count across lifecycle transitions.
    pub(crate) fn waiting_ready(&self) -> usize {
        self.table.ready_count()
    }

    /// Ask the policy for up to `k` steal candidates (latest-start order).
    pub(crate) fn steal_candidates_into(&self, k: usize, out: &mut Vec<TxnId>) {
        self.policy
            .steal_candidates(&self.table, self.pump.now(), k, out);
    }

    /// Victim half of a steal: return `t` to Pending (it must be ready and
    /// never served) and retire it from the policy's queues.
    pub(crate) fn retract_stolen(&mut self, t: TxnId, now: SimTime) {
        self.table.retract(t);
        self.policy.on_stolen(t, &self.table, now);
    }

    /// Final report over whatever completed on this engine's table: the
    /// whole batch in a solo run, the shard's final share when
    /// rebalanced, or the admitted-and-finished subset of a live serve
    /// loop (shed transactions have no outcome). Public since PR 8 so the
    /// live front-end can drive [`Engine::step`] manually — interleaving
    /// SLO reports between scheduling points — and still collect the
    /// standard report.
    pub fn finish(self) -> SimResult {
        let outcomes = self.table.outcomes();
        SimResult {
            summary: MetricsSummary::from_outcomes(&outcomes),
            outcomes,
            stats: self.stats,
            trace: self.trace,
            backlog: self.backlog.map(|(_, series)| series),
            epochs: self.epoch,
        }
    }
}

impl<S: Scheduler> Engine<S> {
    /// Restrict the pump to arrivals passing `keep` (shard ownership).
    /// Must be called before the first step.
    pub(crate) fn restrict_arrivals(&mut self, keep: impl FnMut(TxnId) -> bool) {
        self.pump.retain_arrivals(keep);
    }

    /// Extract the pending arrivals of `ids` (sorted ascending) for
    /// migration to another shard; appends `(time, id)` entries to `out`.
    pub(crate) fn extract_arrivals(&mut self, ids: &[TxnId], out: &mut Vec<(SimTime, TxnId)>) {
        self.pump.extract_arrivals(ids, out);
    }

    /// Admit arrival entries extracted from another shard.
    pub(crate) fn admit_arrivals(&mut self, entries: &[(SimTime, TxnId)]) {
        self.pump.admit_arrivals(entries);
    }

    /// True iff the calendar holds no pending arrival: every transaction
    /// this engine will run has arrived, unless another shard sends one.
    pub(crate) fn calendar_empty(&self) -> bool {
        self.pump.exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{at, dep, ind, units};
    use asets_core::policy::{Edf, Fcfs, Srpt};
    use asets_core::txn::{TxnSpec, Weight};

    #[test]
    fn single_txn_runs_immediately() {
        let r = Engine::new(vec![ind(0, 10, 4)], Fcfs::new())
            .unwrap()
            .with_trace()
            .run();
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.outcomes[0].finish, at(4));
        assert_eq!(r.summary.avg_tardiness, 0.0);
        assert_eq!(r.stats.makespan, at(4));
        assert_eq!(r.stats.preemptions, 0);
        assert_eq!(r.stats.busy, units(4));
        assert_eq!(r.stats.idle, SimDuration::ZERO);
    }

    #[test]
    fn fcfs_never_preempts() {
        // Short urgent txn arrives mid-service of a long one: FCFS ignores it.
        let r = Engine::new(vec![ind(0, 100, 10), ind(2, 3, 1)], Fcfs::new())
            .unwrap()
            .with_trace()
            .run();
        assert_eq!(r.stats.preemptions, 0);
        assert_eq!(r.outcomes[0].finish, at(10));
        assert_eq!(r.outcomes[1].finish, at(11));
        assert_eq!(r.outcomes[1].tardiness(), units(8));
    }

    #[test]
    fn srpt_preempts_on_shorter_arrival() {
        let r = Engine::new(vec![ind(0, 100, 10), ind(2, 100, 1)], Srpt::new())
            .unwrap()
            .with_trace()
            .run();
        assert_eq!(r.stats.preemptions, 1);
        let trace = r.trace.unwrap();
        assert_eq!(trace.completion_order(), vec![TxnId(1), TxnId(0)]);
        assert_eq!(r.outcomes[1].finish, at(3));
        assert_eq!(
            r.outcomes[0].finish,
            at(11),
            "work-conserving: 10 + 1 total"
        );
    }

    #[test]
    fn srpt_does_not_preempt_for_longer_arrival() {
        // Running has r=3 left when a len-5 txn arrives: no switch.
        let r = Engine::new(vec![ind(0, 100, 10), ind(7, 100, 5)], Srpt::new())
            .unwrap()
            .run();
        assert_eq!(r.stats.preemptions, 0);
        assert_eq!(r.outcomes[0].finish, at(10));
    }

    /// Paper Example 1 / Fig. 2(a): a case where EDF beats SRPT.
    /// T1: d=6, r=5; T2: d=7, r=2, both at t=0.
    /// EDF: T1 first -> T1 at 5 (on time), T2 at 7 (on time): tardiness 0.
    /// SRPT: T2 first -> T2 at 2, T1 at 7: tardiness 1.
    #[test]
    fn example1_edf_beats_srpt() {
        let specs = vec![ind(0, 6, 5), ind(0, 7, 2)];
        let edf = Engine::new(specs.clone(), Edf::new()).unwrap().run();
        let srpt = Engine::new(specs, Srpt::new()).unwrap().run();
        assert_eq!(edf.summary.total_tardiness, 0.0);
        assert_eq!(srpt.summary.total_tardiness, 1.0);
    }

    /// Paper Example 1 / Fig. 2(b): a case where SRPT beats EDF.
    /// T1: d=1, r=5 (hopeless); T2: d=4, r=2.
    /// EDF: T1 first (earlier deadline, already missed) -> T1 at 5 (t=4),
    /// T2 at 7 (t=3): total 7. SRPT: T2 at 2 (on time), T1 at 7 (t=6): 6.
    #[test]
    fn example1_srpt_beats_edf() {
        let specs = vec![ind(0, 1, 5), ind(0, 4, 2)];
        let edf = Engine::new(specs.clone(), Edf::new()).unwrap().run();
        let srpt = Engine::new(specs, Srpt::new()).unwrap().run();
        assert_eq!(edf.summary.total_tardiness, 7.0);
        assert_eq!(srpt.summary.total_tardiness, 6.0);
        assert!(srpt.summary.total_tardiness < edf.summary.total_tardiness);
    }

    #[test]
    fn idle_gaps_are_accounted() {
        let r = Engine::new(vec![ind(0, 10, 2), ind(7, 20, 3)], Fcfs::new())
            .unwrap()
            .run();
        assert_eq!(r.stats.busy, units(5));
        assert_eq!(r.stats.idle, units(5), "gap from 2 to 7");
        assert_eq!(r.stats.makespan, at(10));
    }

    #[test]
    fn dependencies_execute_in_order_with_fcfs() {
        // T1 depends on T0 but arrives first; FCFS must not run it early.
        let specs = vec![ind(5, 30, 2), dep(0, 10, 2, &[0])];
        let r = Engine::new(specs, Fcfs::new()).unwrap().with_trace().run();
        let trace = r.trace.unwrap();
        assert_eq!(trace.completion_order(), vec![TxnId(0), TxnId(1)]);
        assert_eq!(r.outcomes[0].finish, at(7));
        assert_eq!(r.outcomes[1].finish, at(9));
    }

    #[test]
    fn chain_release_is_immediate() {
        // T0 -> T1 -> T2, all at t=0: must run back-to-back.
        let specs = vec![ind(0, 100, 2), dep(0, 100, 3, &[0]), dep(0, 100, 4, &[1])];
        let r = Engine::new(specs, Edf::new()).unwrap().run();
        assert_eq!(r.stats.makespan, at(9));
        assert_eq!(r.stats.idle, SimDuration::ZERO);
    }

    #[test]
    fn work_conservation_across_policies() {
        // Same batch, all-busy horizon: every policy finishes at the same
        // makespan (the server never idles while work is pending).
        let specs = vec![ind(0, 5, 4), ind(1, 9, 3), ind(2, 4, 2), ind(3, 30, 5)];
        let m_fcfs = Engine::new(specs.clone(), Fcfs::new())
            .unwrap()
            .run()
            .stats
            .makespan;
        let m_edf = Engine::new(specs.clone(), Edf::new())
            .unwrap()
            .run()
            .stats
            .makespan;
        let m_srpt = Engine::new(specs, Srpt::new())
            .unwrap()
            .run()
            .stats
            .makespan;
        assert_eq!(m_fcfs, at(14));
        assert_eq!(m_edf, at(14));
        assert_eq!(m_srpt, at(14));
    }

    #[test]
    fn simultaneous_arrivals_tie_break_by_policy_key() {
        let r = Engine::new(vec![ind(0, 9, 3), ind(0, 4, 3)], Edf::new())
            .unwrap()
            .with_trace()
            .run();
        let trace = r.trace.unwrap();
        assert_eq!(trace.completion_order(), vec![TxnId(1), TxnId(0)]);
    }

    #[test]
    fn empty_batch_completes_trivially() {
        let r = Engine::new(vec![], Fcfs::new()).unwrap().run();
        assert_eq!(r.outcomes.len(), 0);
        assert_eq!(r.stats.scheduling_points, 0);
    }

    #[test]
    fn zero_length_transactions_complete_instantly() {
        // A zero-length transaction (legal at the type level, never emitted
        // by the generators) completes at its dispatch instant without
        // wedging the event loop.
        let specs = vec![
            TxnSpec::independent(at(0), at(5), SimDuration::ZERO, Weight::ONE),
            ind(0, 10, 3),
        ];
        let r = Engine::new(specs, Edf::new()).unwrap().run();
        assert_eq!(r.outcomes[0].finish, at(0));
        assert_eq!(r.outcomes[0].tardiness(), SimDuration::ZERO);
        assert_eq!(r.outcomes[1].finish, at(3));
    }

    #[test]
    fn backlog_sampling_observes_queue_growth() {
        // Ten simultaneous arrivals with dead deadlines: the first sample
        // (t=0) must see 10 ready, most already infeasible.
        let specs: Vec<TxnSpec> = (0..10).map(|_| ind(0, 1, 5)).collect();
        let r = Engine::new(specs, Srpt::new())
            .unwrap()
            .with_backlog_sampling(units(1))
            .run();
        let series = r.backlog.expect("sampling enabled");
        assert!(!series.samples.is_empty());
        let first = &series.samples[0];
        assert_eq!(first.at, at(0));
        assert_eq!(first.ready, 10);
        assert!(
            first.infeasible >= 9,
            "deadline 1, lengths 5: nearly all hopeless"
        );
        assert_eq!(series.peak_ready(), 10);
        // Samples honor the interval: strictly increasing times.
        for w in series.samples.windows(2) {
            assert!(w[1].at >= w[0].at + units(1));
        }
    }

    #[test]
    fn backlog_sampling_counts_blocked() {
        let specs = vec![ind(0, 100, 5), dep(0, 100, 5, &[0])];
        let r = Engine::new(specs, Fcfs::new())
            .unwrap()
            .with_backlog_sampling(units(1))
            .run();
        let series = r.backlog.unwrap();
        assert_eq!(series.samples[0].blocked, 1);
        assert_eq!(series.samples[0].ready, 1);
    }

    #[test]
    fn observer_hears_every_dispatch_and_scheduling_point() {
        use asets_core::obs::{share, Observer};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Cap {
            sched_points: u64,
            dispatches: Vec<(SimTime, TxnId, Option<TxnId>)>,
        }
        impl Observer for Cap {
            fn sched_point(&mut self, _at: SimTime, _latency_ns: u64) {
                self.sched_points += 1;
            }
            fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
                self.dispatches.push((at, txn, preempted));
            }
        }

        // SRPT preempts the long transaction at t=2 for the short arrival.
        let cap = Rc::new(RefCell::new(Cap::default()));
        let r = Engine::new(vec![ind(0, 100, 10), ind(2, 100, 1)], Srpt::new())
            .unwrap()
            .with_trace()
            .with_observer(share(&cap))
            .run();
        let c = cap.borrow();
        assert_eq!(c.sched_points, r.stats.scheduling_points);
        // Dispatch events mirror the trace's `Dispatched` entries exactly:
        // T0 at 0, T1 at 2 (preempting T0), T0 again at 3.
        let trace_dispatches: Vec<(SimTime, TxnId)> = r
            .trace
            .unwrap()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dispatched { at, txn } => Some((*at, *txn)),
                _ => None,
            })
            .collect();
        let obs_dispatches: Vec<(SimTime, TxnId)> =
            c.dispatches.iter().map(|&(at, t, _)| (at, t)).collect();
        assert_eq!(obs_dispatches, trace_dispatches);
        assert_eq!(c.dispatches[1], (at(2), TxnId(1), Some(TxnId(0))));
        assert_eq!(r.stats.preemptions, 1);
    }

    #[test]
    fn fractional_times_are_exact() {
        // Arrival at 0.5, length 1.25 -> finish at 1.75 exactly.
        let spec = TxnSpec::independent(
            SimTime::from_units(0.5),
            SimTime::from_units(3.0),
            SimDuration::from_units(1.25),
            Weight::ONE,
        );
        let r = Engine::new(vec![spec], Fcfs::new()).unwrap().run();
        assert_eq!(r.outcomes[0].finish, SimTime::from_units(1.75));
    }

    // ---- Multi-server (M > 1) pool semantics ----

    #[test]
    fn two_servers_run_independent_txns_in_parallel() {
        // EDF overrides select_many, so both servers fill at t=0.
        let r = Engine::new(vec![ind(0, 10, 5), ind(0, 10, 5)], Edf::new())
            .unwrap()
            .with_servers(2)
            .with_trace()
            .run();
        assert_eq!(r.stats.makespan, at(5), "parallel, not serial");
        assert_eq!(r.stats.busy, units(10), "aggregate server time");
        assert_eq!(r.stats.preemptions, 0);
        let trace = r.trace.unwrap();
        assert_eq!(trace.dispatch_sequence(), vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn new_dispatch_prefers_empty_server_over_displacement() {
        // T0 (long) runs on server 0; T1 arrives at t=2 with an earlier
        // deadline. Server 1 is empty, so T1 must go there — no preemption.
        let r = Engine::new(vec![ind(0, 100, 10), ind(2, 5, 1)], Edf::new())
            .unwrap()
            .with_servers(2)
            .with_trace()
            .run();
        assert_eq!(r.stats.preemptions, 0);
        assert_eq!(r.outcomes[0].finish, at(10));
        assert_eq!(r.outcomes[1].finish, at(3));
    }

    #[test]
    fn displacement_on_full_pool_is_a_preemption() {
        // Both servers busy with long work; two short urgent txns arrive.
        // EDF's top-2 are the newcomers: both incumbents are preempted.
        let specs = vec![ind(0, 100, 10), ind(0, 101, 10), ind(2, 5, 1), ind(2, 6, 1)];
        let r = Engine::new(specs, Edf::new())
            .unwrap()
            .with_servers(2)
            .with_trace()
            .run();
        assert_eq!(r.stats.preemptions, 2);
        assert_eq!(r.outcomes[2].finish, at(3));
        assert_eq!(r.outcomes[3].finish, at(3));
        // Work conservation: 22 units of work, 2 servers, no idle window.
        assert_eq!(r.stats.makespan, at(11));
    }

    #[test]
    fn single_fill_policy_keeps_incumbents_running() {
        // Ready keeps the trait's single-fill select_many default. With
        // M=2, T0 runs alone until the urgent T1 arrives at t=2; the policy
        // names only T1, which takes the *empty* server, and the engine
        // silently resumes the unchosen incumbent T0 on its own server —
        // parallel overlap with zero preemptions, no thrash.
        use asets_core::policy::Ready;
        let specs = vec![ind(0, 100, 10), ind(2, 5, 1)];
        let r = Engine::new(specs, Ready::new())
            .unwrap()
            .with_servers(2)
            .run();
        assert_eq!(r.stats.completed, 2);
        assert_eq!(r.stats.preemptions, 0);
        assert_eq!(r.outcomes[1].finish, at(3), "urgent txn ran in parallel");
        assert_eq!(r.outcomes[0].finish, at(10), "incumbent never lost time");
        // Dispatches: T0 at 0, T1 at 2, T0's silent resume at 2, and T0's
        // re-selection when T1's completion at 3 fires a scheduling point.
        assert_eq!(r.stats.dispatches, 4);
    }

    #[test]
    fn m1_and_m2_agree_on_totals() {
        // Same batch under EDF at M=1 and M=2: same completion count, the
        // pool only changes *when* things run.
        let specs: Vec<TxnSpec> = (0..12).map(|i| ind(i % 4, 10 + i, 1 + i % 3)).collect();
        let m1 = Engine::new(specs.clone(), Edf::new()).unwrap().run();
        let m2 = Engine::new(specs, Edf::new())
            .unwrap()
            .with_servers(2)
            .run();
        assert_eq!(m1.stats.completed, 12);
        assert_eq!(m2.stats.completed, 12);
        assert_eq!(m1.stats.busy, m2.stats.busy, "total service is invariant");
        assert!(m2.stats.makespan <= m1.stats.makespan);
        assert!(m2.summary.total_tardiness <= m1.summary.total_tardiness);
    }
}
