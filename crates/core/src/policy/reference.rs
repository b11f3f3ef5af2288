//! O(n)-per-decision reference oracles.
//!
//! Each indexed policy in this crate has a deliberately naive twin here that
//! rescans the whole transaction table at every `select`. The twins share
//! the *decision* code (`decide_eq1`, `edf_wins`) but none of the *index*
//! code (keyed queues, migration, refresh), so a property test asserting
//! `indexed.select(..) == naive.select(..)` over random workloads exercises
//! exactly the bookkeeping that is hard to get right.
//!
//! The single-list twins (FCFS, EDF, SRPT, LS, HDF, HVF, MIX) also rank
//! for multi-server pools: their `select_many` sorts the ready set by
//! `(key, id)` and takes the first `slots`, the oracle for the indexed
//! policies' one ordered queue pass.
//!
//! They also serve as executable specifications: if the paper's prose and
//! the indexed implementation ever seem to disagree, the few lines of the
//! oracle are the ground truth to read.
//!
//! [`PerEvent`] is the maintenance-side oracle: it runs any policy with
//! its coalesced [`Scheduler::on_batch`] pass replaced by the trait's
//! hook-by-hook replay.

use super::asets::decide_eq1;
use super::asets_star::{edf_wins, hdf_key};
use super::{AsetsStarConfig, Ratio, Scheduler};
use crate::queue::KeyedQueue;
use crate::table::TxnTable;
use crate::time::{SimDuration, SimTime};
use crate::txn::{TxnId, TxnPhase};
use crate::workflow::{HeadRule, WfId, WorkflowSet};
use std::cmp::Reverse;

/// Scan-based argmin over ready transactions with a comparable key.
fn scan_min_by_key<K: Ord>(table: &TxnTable, key: impl Fn(TxnId) -> K) -> Option<TxnId> {
    table
        .ids()
        .filter(|&t| table.state(t).is_ready())
        .min_by_key(|&t| (key(t), t)) // tie-break by id, like KeyedQueue
}

/// Scan-and-sort ranking for `select_many`: every ready transaction sorted
/// by `(key, id)`, the first `slots` appended to `out`.
fn scan_rank_by_key<K: Ord>(
    table: &TxnTable,
    slots: usize,
    key: impl Fn(TxnId) -> K,
    out: &mut Vec<TxnId>,
) {
    let mut ranked: Vec<(K, TxnId)> = table
        .ids()
        .filter(|&t| table.state(t).is_ready())
        .map(|t| (key(t), t))
        .collect();
    ranked.sort_unstable();
    out.extend(ranked.into_iter().take(slots).map(|(_, t)| t));
}

macro_rules! naive_policy {
    ($(#[$doc:meta])* $name:ident, $label:literal, |$table:ident, $now:ident, $t:ident| $key:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name;

        impl $name {
            fn key($table: &TxnTable, $now: SimTime, $t: TxnId) -> impl Ord {
                let _ = $now;
                $key
            }
        }

        impl Scheduler for $name {
            fn name(&self) -> &str {
                $label
            }
            fn on_ready(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
            fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
            fn on_complete(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
            fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
                scan_min_by_key(table, |t| Self::key(table, now, t))
            }
            fn select_many(
                &mut self,
                table: &TxnTable,
                now: SimTime,
                slots: usize,
                out: &mut Vec<TxnId>,
            ) {
                scan_rank_by_key(table, slots, |t| Self::key(table, now, t), out);
            }
        }
    };
}

naive_policy!(
    /// O(n) FCFS: min arrival time.
    NaiveFcfs, "naive-FCFS", |table, now, t| table.spec(t).arrival
);
naive_policy!(
    /// O(n) EDF: min deadline.
    NaiveEdf, "naive-EDF", |table, now, t| table.deadline(t)
);
naive_policy!(
    /// O(n) SRPT: min remaining time.
    NaiveSrpt, "naive-SRPT", |table, now, t| table.remaining(t)
);
naive_policy!(
    /// O(n) Least-Slack: min signed slack (equivalently min `d − r`).
    NaiveLs, "naive-LS", |table, now, t| table.slack(t, now)
);
naive_policy!(
    /// O(n) HDF: max density `w/r` == min of the negated cross-product key.
    /// Encoded as `min (r/w)` lexicographic rational: compare `r·w'` vs `r'·w`
    /// via an exact (num, den) pair folded into a single `u128`-comparable
    /// form is not possible with a plain key, so we key by the reciprocal
    /// ratio using 128-bit scaled division with the id tie-break handled by
    /// `scan_min_by_key`. Remaining time is bounded (≪ 2⁶⁴), so scaling by
    /// 2³² keeps full precision for all realistic inputs... — but rather
    /// than argue precision, key exactly: `(r << 32) / w` never collides
    /// differently from `r/w` for `r < 2⁹²` and integral weights.
    NaiveHdf, "naive-HDF", |table, now, t| {
        let r = table.remaining(t).ticks() as u128;
        let w = table.weight(t).get() as u128;
        (r << 32) / w
    }
);
naive_policy!(
    /// O(n) HVF: max weight, i.e. min of the weight's distance below
    /// `u32::MAX`.
    NaiveHvf, "naive-HVF", |table, now, t| u32::MAX - table.weight(t).get()
);

/// O(n) MIX: min `d − γ·w`, in signed ticks.
#[derive(Debug, Clone, Copy)]
pub struct NaiveMix {
    /// Value factor γ: time units of deadline per unit of weight.
    pub gamma: SimDuration,
}

impl NaiveMix {
    fn key(&self, table: &TxnTable, t: TxnId) -> i128 {
        let value = i128::from(self.gamma.ticks()) * i128::from(table.weight(t).get());
        i128::from(table.deadline(t).ticks()) - value
    }
}

impl Scheduler for NaiveMix {
    fn name(&self) -> &str {
        "naive-MIX"
    }
    fn on_ready(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_complete(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn select(&mut self, table: &TxnTable, _now: SimTime) -> Option<TxnId> {
        scan_min_by_key(table, |t| self.key(table, t))
    }
    fn select_many(&mut self, table: &TxnTable, _now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        scan_rank_by_key(table, slots, |t| self.key(table, t), out);
    }
}

/// O(n) transaction-level ASETS: partition ready transactions by Definition
/// 6/7 feasibility, take the deadline-min and remaining-min of the halves,
/// and apply Eq. 1.
#[derive(Debug, Default)]
pub struct NaiveAsets;

impl Scheduler for NaiveAsets {
    fn name(&self) -> &str {
        "naive-ASETS"
    }
    fn on_ready(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_complete(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let mut edf_top: Option<TxnId> = None;
        let mut srpt_top: Option<TxnId> = None;
        for t in table.ids().filter(|&t| table.state(t).is_ready()) {
            if table.can_meet_deadline(t, now) {
                let better = edf_top.is_none_or(|b| table.deadline(t) < table.deadline(b));
                if better {
                    edf_top = Some(t);
                }
            } else {
                let better = srpt_top.is_none_or(|b| table.remaining(t) < table.remaining(b));
                if better {
                    srpt_top = Some(t);
                }
            }
        }
        decide_eq1(table, now, edf_top, srpt_top)
    }
}

/// O(n·workflows) workflow-level ASETS\*: rebuilds both lists from scratch
/// at every decision by scanning every workflow.
#[derive(Debug)]
pub struct NaiveAsetsStar {
    wfs: WorkflowSet,
    cfg: AsetsStarConfig,
}

impl NaiveAsetsStar {
    /// Build the oracle for a batch with the given configuration.
    pub fn new(table: &TxnTable, cfg: AsetsStarConfig) -> Self {
        NaiveAsetsStar {
            wfs: WorkflowSet::build(table),
            cfg,
        }
    }

    /// Paper-default configuration.
    pub fn with_defaults(table: &TxnTable) -> Self {
        Self::new(table, AsetsStarConfig::default())
    }
}

impl Scheduler for NaiveAsetsStar {
    fn name(&self) -> &str {
        "naive-ASETS*"
    }
    fn on_ready(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_blocked_arrival(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}
    fn on_complete(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        // Collect schedulable workflows with their representatives.
        let mut edf_top: Option<WfId> = None; // min (d_rep, id)
        let mut hdf_top: Option<WfId> = None; // max density, tie smaller id
        for w in self.wfs.ids() {
            if self
                .wfs
                .head(w, table, crate::workflow::HeadRule::FirstById)
                .is_none()
            {
                continue;
            }
            let Some(rep) = self.wfs.representative(w, table) else {
                continue;
            };
            if rep.can_meet_deadline(now) {
                let better = edf_top.is_none_or(|b| {
                    let bd = self.wfs.representative(b, table).unwrap().deadline;
                    rep.deadline < bd
                });
                if better {
                    edf_top = Some(w);
                }
            } else {
                let better = hdf_top.is_none_or(|b| {
                    let brep = self.wfs.representative(b, table).unwrap();
                    let lhs = rep.weight.get() as u128 * brep.remaining.ticks() as u128;
                    let rhs = brep.weight.get() as u128 * rep.remaining.ticks() as u128;
                    lhs > rhs
                });
                if better {
                    hdf_top = Some(w);
                }
            }
        }
        match (edf_top, hdf_top) {
            (None, None) => None,
            (Some(a), None) => self.wfs.head(a, table, self.cfg.edf_head),
            (None, Some(b)) => self.wfs.head(b, table, self.cfg.hdf_head),
            (Some(a), Some(b)) => {
                let head_a = self.wfs.head(a, table, self.cfg.edf_head).unwrap();
                let head_b = self.wfs.head(b, table, self.cfg.hdf_head).unwrap();
                let rep_a = self.wfs.representative(a, table).unwrap();
                let rep_b = self.wfs.representative(b, table).unwrap();
                if edf_wins(self.cfg.impact, table, now, head_a, &rep_a, head_b, &rep_b) {
                    Some(head_a)
                } else {
                    Some(head_b)
                }
            }
        }
    }
}

/// Which list (if any) a workflow currently occupies (mirror of the private
/// enum in `asets_star`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RescanSide {
    Out,
    Edf,
    Hdf,
}

/// The pre-index ASETS\* implementation: keyed EDF/HDF/latest-start lists
/// over *workflows* (like [`super::AsetsStar`]) but every `refresh` rescans
/// the touched workflow's member list for its head and representative —
/// `O(|W|)` per event instead of `O(log |W|)`.
///
/// Kept verbatim from before the [`crate::workflow::WorkflowIndex`] landed,
/// as (a) the baseline the scheduler-overhead bench compares against, and
/// (b) a third voice in the cross-policy oracle tests: it shares the list
/// and migration bookkeeping with `AsetsStar` but none of the incremental
/// aggregate maintenance, while [`NaiveAsetsStar`] shares neither.
#[derive(Debug)]
pub struct RescanAsetsStar {
    wfs: WorkflowSet,
    cfg: AsetsStarConfig,
    edf: KeyedQueue<u64>,
    hdf: KeyedQueue<Reverse<Ratio>>,
    latest_start: KeyedQueue<u64>,
    side: Vec<RescanSide>,
}

impl RescanAsetsStar {
    /// Build the policy for a transaction batch (extracting its workflows).
    pub fn new(table: &TxnTable, cfg: AsetsStarConfig) -> Self {
        let wfs = WorkflowSet::build(table);
        let n = wfs.len();
        RescanAsetsStar {
            wfs,
            cfg,
            edf: KeyedQueue::with_capacity(n),
            hdf: KeyedQueue::with_capacity(n),
            latest_start: KeyedQueue::with_capacity(n),
            side: vec![RescanSide::Out; n],
        }
    }

    /// Paper-default configuration.
    pub fn with_defaults(table: &TxnTable) -> Self {
        Self::new(table, AsetsStarConfig::default())
    }

    fn remove_from_lists(&mut self, w: WfId) {
        match self.side[w.index()] {
            RescanSide::Out => {}
            RescanSide::Edf => {
                self.edf.remove(w.0);
                self.latest_start.remove(w.0);
            }
            RescanSide::Hdf => {
                self.hdf.remove(w.0);
            }
        }
        self.side[w.index()] = RescanSide::Out;
    }

    /// Recompute `w`'s representative, classification and keys by rescanning
    /// its member list.
    fn refresh(&mut self, w: WfId, table: &TxnTable, now: SimTime) {
        let schedulable = self.wfs.head(w, table, HeadRule::FirstById).is_some();
        let rep = if schedulable {
            self.wfs.representative(w, table)
        } else {
            None
        };
        let Some(rep) = rep else {
            self.remove_from_lists(w);
            return;
        };
        self.remove_from_lists(w);
        if rep.can_meet_deadline(now) {
            self.edf.insert(w.0, rep.deadline.ticks());
            self.latest_start.insert(
                w.0,
                rep.deadline.ticks().saturating_sub(rep.remaining.ticks()),
            );
            self.side[w.index()] = RescanSide::Edf;
        } else {
            self.hdf.insert(w.0, Reverse(hdf_key(&rep)));
            self.side[w.index()] = RescanSide::Hdf;
        }
    }

    fn refresh_workflows_of(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        for i in 0..self.wfs.workflows_of(t).len() {
            let w = self.wfs.workflows_of(t)[i];
            self.refresh(w, table, now);
        }
    }

    fn migrate(&mut self, table: &TxnTable, now: SimTime) {
        let Some(bound) = now.ticks().checked_sub(1) else {
            return;
        };
        let mut drained = Vec::new();
        self.latest_start.drain_up_to_into(bound, &mut drained);
        for (_, id) in drained {
            let w = WfId(id);
            let removed = self.edf.remove(id);
            debug_assert!(
                removed.is_some(),
                "latest-start index out of sync with EDF-List"
            );
            let rep = self
                .wfs
                .representative(w, table)
                .expect("EDF-List workflow lost its representative without an event");
            self.hdf.insert(id, Reverse(hdf_key(&rep)));
            self.side[w.index()] = RescanSide::Hdf;
        }
    }

    fn head_of(&self, w: WfId, table: &TxnTable, rule: HeadRule) -> TxnId {
        self.wfs
            .head(w, table, rule)
            .expect("listed workflow must have a ready head")
    }
}

impl Scheduler for RescanAsetsStar {
    fn name(&self) -> &str {
        "rescan-ASETS*"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.refresh_workflows_of(t, table, now);
    }

    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.refresh_workflows_of(t, table, now);
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.refresh_workflows_of(t, table, now);
    }

    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.refresh_workflows_of(t, table, now);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.migrate(table, now);
        let edf_top = self.edf.peek_id().map(WfId);
        let hdf_top = self.hdf.peek_id().map(WfId);
        match (edf_top, hdf_top) {
            (None, None) => None,
            (Some(a), None) => Some(self.head_of(a, table, self.cfg.edf_head)),
            (None, Some(b)) => Some(self.head_of(b, table, self.cfg.hdf_head)),
            (Some(a), Some(b)) => {
                let head_a = self.head_of(a, table, self.cfg.edf_head);
                let head_b = self.head_of(b, table, self.cfg.hdf_head);
                let rep_a = self
                    .wfs
                    .representative(a, table)
                    .expect("EDF top has a rep");
                let rep_b = self
                    .wfs
                    .representative(b, table)
                    .expect("HDF top has a rep");
                if edf_wins(self.cfg.impact, table, now, head_a, &rep_a, head_b, &rep_b) {
                    Some(head_a)
                } else {
                    Some(head_b)
                }
            }
        }
    }
}

/// Per-event maintenance for any policy: forwards every [`Scheduler`]
/// method to `S` *except* [`Scheduler::on_batch`], so the trait's default
/// replay drives `S`'s lifecycle hooks one event at a time, in engine
/// order.
///
/// For a policy that keeps the default `on_batch` this changes nothing.
/// For one that overrides it with a coalesced pass (ASETS\*), running
/// `Engine(S)` against `Engine(PerEvent(S))` pins the coalesced pass
/// against its own per-event replay through one engine loop
/// (`tests/batched_determinism.rs`), and the benches use it as the
/// per-event baseline the batched pass must beat.
#[derive(Debug)]
pub struct PerEvent<S>(pub S);

impl<S: Scheduler> Scheduler for PerEvent<S> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_ready(t, table, now);
    }
    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_blocked_arrival(t, table, now);
    }
    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_requeue(t, table, now);
    }
    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_complete(t, table, now);
    }
    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.0.select(table, now)
    }
    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        self.0.select_many(table, now, slots, out);
    }
    fn steal_candidates(&self, table: &TxnTable, now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        self.0.steal_candidates(table, now, k, out);
    }
    fn on_stolen(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_stolen(t, table, now);
    }
    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.0.next_wakeup(now)
    }
    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.0.attach_observer(obs);
    }
}

/// Check that no transaction is Ready/Running without all predecessors
/// completed — a structural invariant used by integration tests.
pub fn check_precedence_invariant(table: &TxnTable) -> Result<(), String> {
    for t in table.ids() {
        let st = table.state(t);
        if matches!(
            st.phase,
            TxnPhase::Ready | TxnPhase::Running | TxnPhase::Completed
        ) {
            for &p in table.dag().preds(t) {
                let pred_done = table.state(p).is_completed();
                let self_started = st.phase == TxnPhase::Running || st.phase == TxnPhase::Completed;
                if self_started && !pred_done {
                    return Err(format!("{t} ran before its predecessor {p} completed"));
                }
                if st.phase == TxnPhase::Ready && !pred_done {
                    return Err(format!("{t} ready while predecessor {p} incomplete"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{TxnSpec, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }

    fn ready_table() -> TxnTable {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(30), units(2), Weight(1)),
            TxnSpec::independent(at(1), at(10), units(8), Weight(2)),
            TxnSpec::independent(at(2), at(20), units(4), Weight(9)),
        ])
        .unwrap();
        for t in 0..3u32 {
            tbl.arrive(TxnId(t), at(2));
        }
        tbl
    }

    #[test]
    fn naive_baselines_pick_like_their_indexed_twins() {
        let tbl = ready_table();
        assert_eq!(NaiveFcfs.select(&tbl, at(2)), Some(TxnId(0)));
        assert_eq!(NaiveEdf.select(&tbl, at(2)), Some(TxnId(1)));
        assert_eq!(NaiveSrpt.select(&tbl, at(2)), Some(TxnId(0)));
        assert_eq!(NaiveLs.select(&tbl, at(2)), Some(TxnId(1)));
        assert_eq!(NaiveHdf.select(&tbl, at(2)), Some(TxnId(2)));
        assert_eq!(NaiveHvf.select(&tbl, at(2)), Some(TxnId(2)));
        // γ=1: d−w = 29, 8, 11.
        let mut mix = NaiveMix { gamma: units(1) };
        assert_eq!(mix.select(&tbl, at(2)), Some(TxnId(1)));
    }

    #[test]
    fn naive_select_many_ranks_by_key_then_id() {
        let tbl = ready_table();
        let mut out = Vec::new();
        NaiveEdf.select_many(&tbl, at(2), 2, &mut out);
        assert_eq!(out, vec![TxnId(1), TxnId(2)], "deadlines 10 then 20");
        out.clear();
        NaiveMix { gamma: units(1) }.select_many(&tbl, at(2), 5, &mut out);
        assert_eq!(out, vec![TxnId(1), TxnId(2), TxnId(0)]);
        // Equal keys rank toward the smaller id.
        let one = TxnSpec::independent(at(0), at(9), units(1), Weight(1));
        let mut tied = TxnTable::new(vec![one; 3]).unwrap();
        for t in 0..3u32 {
            tied.arrive(TxnId(t), at(0));
        }
        out.clear();
        NaiveHvf.select_many(&tied, at(0), 3, &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(1), TxnId(2)]);
    }

    #[test]
    fn naive_asets_matches_example_2() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(
                at(0),
                SimTime::from_units(3.0 - 1e-6),
                units(3),
                Weight::ONE,
            ),
            TxnSpec::independent(at(0), at(7), units(5), Weight::ONE),
        ])
        .unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        assert_eq!(NaiveAsets.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn naive_star_runs_head_of_boosted_workflow() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec {
                deps: vec![],
                ..TxnSpec::independent(at(0), at(100), units(3), Weight(1))
            },
            TxnSpec {
                deps: vec![TxnId(0)],
                ..TxnSpec::independent(at(0), at(6), units(1), Weight(9))
            },
            TxnSpec::independent(at(0), at(50), units(2), Weight(1)),
        ])
        .unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        tbl.arrive(TxnId(2), at(0));
        let mut p = NaiveAsetsStar::with_defaults(&tbl);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn precedence_invariant_accepts_legal_states() {
        let tbl = ready_table();
        assert!(check_precedence_invariant(&tbl).is_ok());
    }

    #[test]
    fn empty_table_selects_none_everywhere() {
        let tbl = TxnTable::new(vec![]).unwrap();
        assert_eq!(NaiveFcfs.select(&tbl, at(0)), None);
        assert_eq!(NaiveAsets.select(&tbl, at(0)), None);
        let mut s = NaiveAsetsStar::with_defaults(&tbl);
        assert_eq!(s.select(&tbl, at(0)), None);
    }
}
