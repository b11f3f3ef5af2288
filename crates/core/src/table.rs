//! The transaction table: shared runtime state for one simulation run.
//!
//! The simulator engine owns a [`TxnTable`]; scheduling policies receive
//! `&TxnTable` when making decisions and are notified of lifecycle events
//! through the [`crate::policy::Scheduler`] trait. Keeping all mutation here
//! (and only notification in the policies) means every policy sees exactly
//! the same world, which is what makes policy-vs-oracle property tests and
//! cross-policy invariants (work conservation, identical completion sets)
//! meaningful.

use crate::dag::{DagError, DepDag};
use crate::time::{SimDuration, SimTime, Slack};
use crate::txn::{TxnId, TxnOutcome, TxnPhase, TxnSpec, TxnState, Weight};
use std::sync::Arc;

/// Runtime table over a validated batch of transactions.
///
/// The immutable batch description — specs and the validated dependency
/// DAG — lives behind [`Arc`]s, so cloning a *fresh* table (the sharded
/// runtimes instantiate one identical full-batch table per shard engine)
/// copies only the per-transaction state vector instead of re-validating
/// and re-allocating the whole batch. The only spec mutation in the
/// system, [`TxnTable::rebase_arrival`] on the live serving path, goes
/// through copy-on-write and is free there because a live engine's table
/// is never shared.
#[derive(Debug, Clone)]
pub struct TxnTable {
    specs: Arc<Vec<TxnSpec>>,
    states: Vec<TxnState>,
    dag: Arc<DepDag>,
    completed: usize,
    ready: usize,
    /// Σ remaining ticks over every transaction (completed ones hold 0).
    remaining_ticks: u64,
}

impl TxnTable {
    /// Build a table from a batch of specs, validating the dependency DAG.
    pub fn new(specs: Vec<TxnSpec>) -> Result<TxnTable, DagError> {
        let dag = DepDag::build(&specs)?;
        let states = specs.iter().map(TxnState::new).collect();
        let remaining_ticks = specs.iter().map(|s| s.length.ticks()).sum();
        Ok(TxnTable {
            specs: Arc::new(specs),
            states,
            dag: Arc::new(dag),
            completed: 0,
            ready: 0,
            remaining_ticks,
        })
    }

    /// Number of transactions in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True iff the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of completed transactions so far.
    #[inline]
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Number of transactions currently in the `Ready` phase (waiting,
    /// not running) — an O(1) gauge maintained across every lifecycle
    /// transition. Work stealing reads this constantly: a thief posts only
    /// when its own count is zero, and victims are ranked by it.
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.ready
    }

    /// Σ remaining ticks over the whole batch — an O(1) gauge kept by
    /// [`TxnTable::accrue_service`], the only place remaining time changes.
    /// The threaded sharded driver derives each shard's backlog from it.
    #[inline]
    pub fn remaining_ticks(&self) -> u64 {
        self.remaining_ticks
    }

    /// True iff every transaction has completed.
    #[inline]
    pub fn all_completed(&self) -> bool {
        self.completed == self.specs.len()
    }

    /// The immutable spec of `t`.
    #[inline]
    pub fn spec(&self, t: TxnId) -> &TxnSpec {
        &self.specs[t.index()]
    }

    /// The whole spec slice, indexed by transaction id.
    #[inline]
    pub fn specs(&self) -> &[TxnSpec] {
        &self.specs
    }

    /// The runtime state of `t`.
    #[inline]
    pub fn state(&self, t: TxnId) -> &TxnState {
        &self.states[t.index()]
    }

    /// The validated dependency DAG.
    #[inline]
    pub fn dag(&self) -> &DepDag {
        &self.dag
    }

    /// All transaction ids in the batch.
    pub fn ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        (0..self.specs.len() as u32).map(TxnId)
    }

    /// Remaining processing time `r_i` of `t`.
    #[inline]
    pub fn remaining(&self, t: TxnId) -> SimDuration {
        self.states[t.index()].remaining
    }

    /// Deadline `d_i` of `t`.
    #[inline]
    pub fn deadline(&self, t: TxnId) -> SimTime {
        self.specs[t.index()].deadline
    }

    /// Weight `w_i` of `t`.
    #[inline]
    pub fn weight(&self, t: TxnId) -> Weight {
        self.specs[t.index()].weight
    }

    /// Signed slack `s_i = d_i - (now + r_i)` of `t` (paper Definition 2).
    #[inline]
    pub fn slack(&self, t: TxnId, now: SimTime) -> Slack {
        Slack::compute(now, self.remaining(t), self.deadline(t))
    }

    /// Whether `t` can still meet its deadline if it starts right now —
    /// the EDF-List membership test of paper Definition 6.
    #[inline]
    pub fn can_meet_deadline(&self, t: TxnId, now: SimTime) -> bool {
        self.slack(t, now).is_feasible()
    }

    /// The *latest start time* of `t`: `d_i - r_i`. While `t` waits (its
    /// `r_i` frozen), `t` belongs in the EDF-List iff `now <= latest_start`.
    /// This static key is what lets ASETS\* migrate transactions from the
    /// EDF-List to the SRPT-List in `O(log n)` instead of rescanning.
    #[inline]
    pub fn latest_start(&self, t: TxnId) -> SimTime {
        let d = self.deadline(t);
        let r = self.remaining(t);
        if d.since_origin() <= r {
            // Already infeasible even from the origin: earliest possible key.
            SimTime::ZERO
        } else {
            d - r
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle transitions (called by the simulator engine only).
    // ------------------------------------------------------------------

    /// Mark `t` as arrived at `now`. Returns `true` iff it is immediately
    /// ready (all predecessors already completed).
    ///
    /// # Panics
    /// If `t` already arrived, or `now` precedes its declared arrival time.
    pub fn arrive(&mut self, t: TxnId, now: SimTime) -> bool {
        assert!(
            now >= self.specs[t.index()].arrival,
            "{t} arriving at {now} before declared {}",
            self.specs[t.index()].arrival
        );
        let st = &mut self.states[t.index()];
        assert_eq!(st.phase, TxnPhase::Pending, "{t} arrived twice");
        if st.blocked_on == 0 {
            st.phase = TxnPhase::Ready;
            st.ready_at = Some(now);
            self.ready += 1;
            true
        } else {
            st.phase = TxnPhase::Blocked;
            false
        }
    }

    /// Re-anchor `t`'s arrival at `now`, preserving its SLA width
    /// (`deadline − arrival`). The online serving path uses this at
    /// delivery: a live universe is compiled with nominal arrival times,
    /// but a request's SLA clock starts when admission actually delivers
    /// it, so the engine rebases the spec to the wall-clock instant before
    /// calling [`TxnTable::arrive`]. Purely-simulated runs never call this.
    ///
    /// # Panics
    /// If `t` has already arrived (its deadline is then live state).
    pub fn rebase_arrival(&mut self, t: TxnId, now: SimTime) {
        assert_eq!(
            self.states[t.index()].phase,
            TxnPhase::Pending,
            "{t} rebased after arrival"
        );
        let spec = &mut Arc::make_mut(&mut self.specs)[t.index()];
        let sla = spec.deadline.saturating_since(spec.arrival);
        spec.arrival = now;
        spec.deadline = now + sla;
    }

    /// Undo an arrival: return a ready, never-dispatched `t` to `Pending`.
    ///
    /// This is the victim-side half of a cross-shard steal. The thief's
    /// table re-`arrive`s the same global id, so the transaction must not
    /// have accrued any service here (stealing partially-served work would
    /// silently discard the credited time) and must have no released
    /// dependents (only whole singleton workflows are stealable).
    ///
    /// # Panics
    /// If `t` is not `Ready` or has already been served.
    pub fn retract(&mut self, t: TxnId) {
        let full = self.specs[t.index()].length;
        let st = &mut self.states[t.index()];
        assert_eq!(st.phase, TxnPhase::Ready, "{t} must be Ready to retract");
        assert_eq!(st.remaining, full, "{t} already served; cannot retract");
        st.phase = TxnPhase::Pending;
        st.ready_at = None;
        self.ready -= 1;
    }

    /// Mark `t` as the running transaction.
    ///
    /// # Panics
    /// If `t` is not ready.
    pub fn start_running(&mut self, t: TxnId) {
        let st = &mut self.states[t.index()];
        assert_eq!(st.phase, TxnPhase::Ready, "{t} must be Ready to run");
        st.phase = TxnPhase::Running;
        self.ready -= 1;
    }

    /// Credit `served` time to the running transaction `t` (it keeps
    /// running). Returns its new remaining time.
    ///
    /// # Panics
    /// If `t` is not running or `served` exceeds its remaining time.
    pub fn accrue_service(&mut self, t: TxnId, served: SimDuration) -> SimDuration {
        let st = &mut self.states[t.index()];
        assert_eq!(
            st.phase,
            TxnPhase::Running,
            "{t} must be Running to accrue service"
        );
        assert!(
            served <= st.remaining,
            "{t} served {served} with only {} remaining",
            st.remaining
        );
        st.remaining -= served;
        st.service += served;
        self.remaining_ticks -= served.ticks();
        st.remaining
    }

    /// Pause the running transaction `t` at a scheduling point after
    /// crediting `served`; it returns to Ready with reduced remaining time.
    /// This is *not* yet a preemption — the engine may immediately
    /// re-dispatch the same transaction; call [`TxnTable::record_preemption`]
    /// only when the server actually switches.
    pub fn pause(&mut self, t: TxnId, served: SimDuration) {
        let rem = self.accrue_service(t, served);
        assert!(
            !rem.is_zero(),
            "{t} paused with zero remaining — should complete instead"
        );
        self.states[t.index()].phase = TxnPhase::Ready;
        self.ready += 1;
    }

    /// Count a genuine preemption of `t` (it was paused and a different
    /// transaction was dispatched).
    pub fn record_preemption(&mut self, t: TxnId) {
        self.states[t.index()].preemptions += 1;
    }

    /// Preempt the running transaction `t` after crediting `served`; it goes
    /// back to Ready with reduced remaining time. Equivalent to
    /// [`TxnTable::pause`] + [`TxnTable::record_preemption`].
    pub fn preempt(&mut self, t: TxnId, served: SimDuration) {
        self.pause(t, served);
        self.record_preemption(t);
    }

    /// Complete the running transaction `t` at `now`, crediting its final
    /// slice of service. Returns the transactions *released* by this
    /// completion: dependents whose last outstanding predecessor was `t` and
    /// which have already arrived (they transition Blocked → Ready here).
    ///
    /// Dependents that have not yet arrived simply have their `blocked_on`
    /// count decremented; they will be ready upon arrival.
    pub fn complete(&mut self, t: TxnId, now: SimTime, final_slice: SimDuration) -> Vec<TxnId> {
        let mut released = Vec::new();
        self.complete_into(t, now, final_slice, &mut released);
        released
    }

    /// [`TxnTable::complete`] with the released dependents appended to a
    /// caller-owned buffer (not cleared) — the zero-alloc variant for the
    /// engine's steady-state loop.
    pub fn complete_into(
        &mut self,
        t: TxnId,
        now: SimTime,
        final_slice: SimDuration,
        released: &mut Vec<TxnId>,
    ) {
        let rem = self.accrue_service(t, final_slice);
        assert!(rem.is_zero(), "{t} completed with {rem} remaining");
        {
            let st = &mut self.states[t.index()];
            st.phase = TxnPhase::Completed;
            st.finish = Some(now);
        }
        self.completed += 1;

        // Index loop rather than iterating `succs(t)` directly: the state
        // updates need `&mut self` while the successor list borrows the DAG.
        for i in 0..self.dag.succs(t).len() {
            let s = self.dag.succs(t)[i];
            let st = &mut self.states[s.index()];
            assert!(
                st.blocked_on > 0,
                "{s} released more times than it has predecessors"
            );
            st.blocked_on -= 1;
            if st.blocked_on == 0 && st.phase == TxnPhase::Blocked {
                st.phase = TxnPhase::Ready;
                st.ready_at = Some(now);
                self.ready += 1;
                released.push(s);
            }
        }
    }

    /// The outcome of a completed transaction, for metrics.
    ///
    /// # Panics
    /// If `t` has not completed.
    pub fn outcome(&self, t: TxnId) -> TxnOutcome {
        let spec = &self.specs[t.index()];
        let st = &self.states[t.index()];
        TxnOutcome {
            id: t,
            arrival: spec.arrival,
            deadline: spec.deadline,
            finish: st.finish.expect("outcome of incomplete transaction"),
            weight: spec.weight,
            length: spec.length,
        }
    }

    /// Outcomes of all completed transactions, in id order.
    pub fn outcomes(&self) -> Vec<TxnOutcome> {
        self.ids()
            .filter(|&t| self.state(t).is_completed())
            .map(|t| self.outcome(t))
            .collect()
    }

    /// Ready transaction ids (including the running one), in id order.
    /// O(n); intended for oracles, assertions and tests, not hot paths.
    pub fn ready_ids(&self) -> Vec<TxnId> {
        self.ids().filter(|&t| self.state(t).is_ready()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }
    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn ind(arr: u64, dl: u64, len: u64) -> TxnSpec {
        TxnSpec::independent(at(arr), at(dl), units(len), Weight::ONE)
    }

    fn chain3() -> TxnTable {
        // T0 -> T1 -> T2
        let specs = vec![
            ind(0, 10, 2),
            TxnSpec {
                deps: vec![TxnId(0)],
                ..ind(0, 12, 3)
            },
            TxnSpec {
                deps: vec![TxnId(1)],
                ..ind(0, 20, 4)
            },
        ];
        TxnTable::new(specs).unwrap()
    }

    #[test]
    fn arrival_readiness_depends_on_preds() {
        let mut tbl = chain3();
        assert!(
            tbl.arrive(TxnId(0), at(0)),
            "independent txn ready at arrival"
        );
        assert!(
            !tbl.arrive(TxnId(1), at(0)),
            "dependent txn blocked at arrival"
        );
        assert_eq!(tbl.state(TxnId(1)).phase, TxnPhase::Blocked);
    }

    #[test]
    fn completion_releases_arrived_dependents() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        tbl.start_running(TxnId(0));
        let released = tbl.complete(TxnId(0), at(2), units(2));
        assert_eq!(released, vec![TxnId(1)]);
        assert_eq!(tbl.state(TxnId(1)).phase, TxnPhase::Ready);
        assert_eq!(tbl.state(TxnId(1)).ready_at, Some(at(2)));
    }

    #[test]
    fn completion_does_not_release_unarrived_dependents() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        let released = tbl.complete(TxnId(0), at(2), units(2));
        assert!(released.is_empty(), "T1 has not arrived yet");
        // When T1 now arrives it is immediately ready.
        assert!(tbl.arrive(TxnId(1), at(3)));
    }

    #[test]
    fn preemption_reduces_remaining_and_counts() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        tbl.preempt(TxnId(0), units(1));
        let st = tbl.state(TxnId(0));
        assert_eq!(st.phase, TxnPhase::Ready);
        assert_eq!(st.remaining, units(1));
        assert_eq!(st.service, units(1));
        assert_eq!(st.preemptions, 1);
    }

    #[test]
    fn slack_and_feasibility_track_time() {
        let tbl = chain3();
        // T0: len 2, deadline 10.
        assert!(tbl.can_meet_deadline(TxnId(0), at(8)));
        assert!(!tbl.can_meet_deadline(TxnId(0), at(9)));
        assert_eq!(tbl.slack(TxnId(0), at(5)).as_units(), 3.0);
        assert_eq!(tbl.latest_start(TxnId(0)), at(8));
    }

    #[test]
    fn latest_start_clamps_at_origin() {
        let specs = vec![ind(0, 1, 5)]; // deadline 1, length 5: infeasible from birth
        let tbl = TxnTable::new(specs).unwrap();
        assert_eq!(tbl.latest_start(TxnId(0)), SimTime::ZERO);
    }

    #[test]
    fn outcome_reports_finish_and_tardiness() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(12), units(2));
        let o = tbl.outcome(TxnId(0));
        assert_eq!(o.finish, at(12));
        assert_eq!(o.tardiness(), units(2)); // deadline was 10
        assert_eq!(tbl.completed_count(), 1);
        assert!(!tbl.all_completed());
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(0), at(1));
    }

    #[test]
    #[should_panic(expected = "must be Ready")]
    fn running_a_blocked_txn_panics() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(1), at(0));
        tbl.start_running(TxnId(1));
    }

    #[test]
    #[should_panic(expected = "completed with")]
    fn completing_with_leftover_work_panics() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(1), units(1)); // only 1 of 2 served
    }

    #[test]
    fn remaining_ticks_tracks_service() {
        let mut tbl = chain3();
        assert_eq!(tbl.remaining_ticks(), units(9).ticks());
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        tbl.preempt(TxnId(0), units(1));
        assert_eq!(tbl.remaining_ticks(), units(8).ticks());
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(2), units(1));
        let scan: u64 = tbl.ids().map(|t| tbl.remaining(t).ticks()).sum();
        assert_eq!(tbl.remaining_ticks(), scan);
        assert_eq!(scan, units(7).ticks());
    }

    #[test]
    fn ready_ids_lists_running_too() {
        let mut tbl = chain3();
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        assert_eq!(tbl.ready_ids(), vec![TxnId(0)]);
    }

    #[test]
    fn diamond_release_requires_all_preds() {
        // T2 depends on T0 and T1.
        let specs = vec![
            ind(0, 10, 1),
            ind(0, 10, 1),
            TxnSpec {
                deps: vec![TxnId(0), TxnId(1)],
                ..ind(0, 20, 1)
            },
        ];
        let mut tbl = TxnTable::new(specs).unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        tbl.arrive(TxnId(2), at(0));
        tbl.start_running(TxnId(0));
        assert!(tbl.complete(TxnId(0), at(1), units(1)).is_empty());
        tbl.start_running(TxnId(1));
        assert_eq!(tbl.complete(TxnId(1), at(2), units(1)), vec![TxnId(2)]);
    }
}
