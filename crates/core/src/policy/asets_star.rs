//! Workflow-level ASETS\* — the paper's contribution (§III-B, §III-C, Fig. 7).
//!
//! The scheduling unit is the **workflow**. Each workflow with at least one
//! ready member sits in one of two lists, classified by its *representative*
//! transaction (min deadline, min remaining, max weight over visible
//! members — Definition 9):
//!
//! * **EDF-List** (`now + r_rep <= d_rep`), ordered by `d_rep`;
//! * **HDF-List** (otherwise), ordered by density `w_rep / r_rep`
//!   (which is SRPT order when all weights are equal — §III-C).
//!
//! At a scheduling point, with `A` topping the EDF-List and `B` topping the
//! HDF-List, the Fig. 7 negative-impact comparison decides who runs:
//!
//! ```text
//! impact(A first) = r_head(A) * w_rep(B)
//! impact(B first) = (r_head(B) - s_rep(A)) * w_rep(A)
//! run head(A)  iff  impact(A first) < impact(B first)
//! ```
//!
//! The *head* is a ready member of the winning workflow (Definition 8); what
//! actually executes. See DESIGN.md D1 (impact-rule variants), D2 (head
//! selection), D9 (representative visibility).

use super::{head_rule_for_side, LifecycleEvent, Ratio, Scheduler};
use crate::obs::{
    Candidate, DecisionRecord, DecisionRule, MigrationEvent, MigrationSubject, ObserverSlot, Winner,
};
use crate::queue::{Frontier, KeyedQueue};
use crate::table::TxnTable;
use crate::time::SimTime;
use crate::txn::TxnId;
use crate::workflow::{HeadRule, Representative, WfId, WorkflowIndex, WorkflowSet};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Which negative-impact comparison to use between the two list tops
/// (DESIGN.md D1: the paper's Eq. 1 / Fig. 7 is asymmetric; Example 4 uses a
/// symmetric form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ImpactRule {
    /// Fig. 7 pseudo-code (canonical):
    /// `r_head(A)·w_rep(B)  vs  (r_head(B) − s_rep(A))·w_rep(A)`.
    /// The EDF side's impact ignores the HDF side's (non-positive) slack.
    #[default]
    Paper,
    /// Example 4's symmetric form:
    /// `(r_head(A) − s_rep(B))·w_rep(B)  vs  (r_head(B) − s_rep(A))·w_rep(A)`.
    /// Coincides with `Paper` whenever the HDF-side representative's slack
    /// is exactly zero; differs when it is negative.
    Symmetric,
}

/// Configuration of the workflow-level policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsetsStarConfig {
    /// Negative-impact comparison (D1).
    pub impact: ImpactRule,
    /// Head selection for EDF-side workflows (D2).
    pub edf_head: HeadRule,
    /// Head selection for HDF-side workflows (D2).
    pub hdf_head: HeadRule,
}

impl Default for AsetsStarConfig {
    fn default() -> Self {
        AsetsStarConfig {
            impact: ImpactRule::Paper,
            edf_head: head_rule_for_side(true),
            hdf_head: head_rule_for_side(false),
        }
    }
}

/// Which list (if any) a workflow currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Not schedulable: no visible members or no ready head.
    Out,
    /// In the EDF-List.
    Edf,
    /// In the HDF-List.
    Hdf,
}

/// Workflow-level ASETS\* scheduler.
///
/// Per-event work is `O(k · log)` where `k` is the number of workflows
/// containing the touched transaction: the [`WorkflowIndex`] maintains each
/// workflow's representative aggregates and ready frontier incrementally, so
/// neither `refresh` nor `select` ever rescans a member list. The rescanning
/// twin lives in [`super::reference::RescanAsetsStar`] (the pre-index
/// implementation, kept for the scheduler-overhead ablation) and the fully
/// naive oracle in [`super::reference::NaiveAsetsStar`].
#[derive(Debug)]
pub struct AsetsStar {
    wfs: WorkflowSet,
    /// Incremental per-workflow aggregates and ready frontiers.
    index: WorkflowIndex,
    cfg: AsetsStarConfig,
    /// EDF-List: workflow id keyed by representative deadline. Each list is
    /// sized for every workflow id up front, so list maintenance never
    /// allocates and costs O(log) of the workflows listed.
    edf: KeyedQueue<u64>,
    /// HDF-List: workflow id keyed by representative density (max first).
    hdf: KeyedQueue<Reverse<Ratio>>,
    /// Migration index over EDF-List workflows: latest feasible start of the
    /// representative, `d_rep − r_rep`.
    latest_start: KeyedQueue<u64>,
    /// Current list of each workflow.
    side: Vec<Side>,
    /// Decision-provenance sink (detached by default; the hot path then
    /// pays a single branch per decision).
    obs: ObserverSlot,
    /// Scratch for `migrate` and `on_batch` (retained capacity: the
    /// steady-state loop allocates nothing).
    drained: Vec<(u64, u32)>,
    touched: Vec<WfId>,
    /// Scratch for `select_many` (retained capacity), including each
    /// list's best-first walk frontier.
    mf_edf: Vec<(u64, u32)>,
    mf_hdf: Vec<(Reverse<Ratio>, u32)>,
    mf_edf_frontier: Frontier<u64>,
    mf_hdf_frontier: Frontier<Reverse<Ratio>>,
}

impl AsetsStar {
    /// Build the policy for a transaction batch (extracting its workflows).
    pub fn new(table: &TxnTable, cfg: AsetsStarConfig) -> Self {
        let wfs = WorkflowSet::build(table);
        let n = wfs.len();
        let index = WorkflowIndex::new(&wfs, &[cfg.edf_head, cfg.hdf_head]);
        AsetsStar {
            index,
            wfs,
            cfg,
            edf: KeyedQueue::with_capacity(n),
            hdf: KeyedQueue::with_capacity(n),
            latest_start: KeyedQueue::with_capacity(n),
            side: vec![Side::Out; n],
            obs: ObserverSlot::empty(),
            drained: Vec::new(),
            touched: Vec::new(),
            mf_edf: Vec::new(),
            mf_hdf: Vec::new(),
            mf_edf_frontier: Frontier::new(),
            mf_hdf_frontier: Frontier::new(),
        }
    }

    /// The policy with the paper's default configuration.
    pub fn with_defaults(table: &TxnTable) -> Self {
        Self::new(table, AsetsStarConfig::default())
    }

    /// Number of workflows currently in the EDF-List (for tests/ablation).
    pub fn edf_len(&self) -> usize {
        self.edf.len()
    }

    /// Number of workflows currently in the HDF-List.
    pub fn hdf_len(&self) -> usize {
        self.hdf.len()
    }

    /// The workflow structure this policy derived from the batch.
    pub fn workflows(&self) -> &WorkflowSet {
        &self.wfs
    }

    fn remove_from_lists(&mut self, w: WfId) {
        match self.side[w.index()] {
            Side::Out => {}
            Side::Edf => {
                self.edf.set(w.0, None);
                self.latest_start.set(w.0, None);
            }
            Side::Hdf => {
                self.hdf.set(w.0, None);
            }
        }
        self.side[w.index()] = Side::Out;
    }

    /// Recompute workflow `w`'s representative, classification and keys.
    /// Idempotent; safe to call on any event touching any member. The
    /// representative and the schedulability test are O(1) peeks into the
    /// incremental index — no member rescan — and a workflow staying on the
    /// same side is re-keyed in place, which is free when the keys are
    /// unchanged (the common case: most events don't move a workflow's
    /// aggregate minima).
    fn refresh(&mut self, w: WfId, now: SimTime) {
        let prev_side = self.side[w.index()];
        let rep = if self.index.is_schedulable(w) {
            self.index.representative(w)
        } else {
            None
        };
        let Some(rep) = rep else {
            self.remove_from_lists(w);
            return;
        };
        if rep.can_meet_deadline(now) {
            let dl = rep.deadline.ticks();
            let ls = dl.saturating_sub(rep.remaining.ticks());
            if self.side[w.index()] == Side::Hdf {
                self.hdf.set(w.0, None);
            }
            self.edf.set(w.0, Some(dl));
            self.latest_start.set(w.0, Some(ls));
            self.side[w.index()] = Side::Edf;
        } else {
            let key = Reverse(hdf_key(&rep));
            if self.side[w.index()] == Side::Edf {
                self.edf.set(w.0, None);
                self.latest_start.set(w.0, None);
            }
            self.hdf.set(w.0, Some(key));
            self.side[w.index()] = Side::Hdf;
        }
        if self.obs.is_attached() {
            let to_hdf = match (prev_side, self.side[w.index()]) {
                (Side::Edf, Side::Hdf) => Some(true),
                (Side::Hdf, Side::Edf) => Some(false),
                _ => None,
            };
            if let Some(to_hdf) = to_hdf {
                let ev = MigrationEvent {
                    at: now,
                    subject: MigrationSubject::Workflow(w),
                    to_hdf,
                };
                self.obs.emit(|o| o.migration(&ev));
            }
        }
    }

    fn refresh_workflows_of(&mut self, t: TxnId, now: SimTime) {
        for i in 0..self.wfs.workflows_of(t).len() {
            let w = self.wfs.workflows_of(t)[i];
            self.refresh(w, now);
        }
    }

    /// Always 0: the policy keeps no decision cache, because a select only
    /// compares the two list tops. Kept for callers that report cache hits
    /// (perfbench's timing adapter).
    pub fn decision_cache_hits(&self) -> u64 {
        0
    }

    /// Move EDF-List workflows whose representative can no longer meet its
    /// deadline into the HDF-List. Between events a waiting workflow's
    /// representative is static, so the latest-start key is exact; the
    /// running head's workflows were refreshed by `on_requeue` just before
    /// any `select`.
    fn migrate(&mut self, now: SimTime) {
        let Some(bound) = now.ticks().checked_sub(1) else {
            return;
        };
        // Drain into owned scratch (capacity retained across points) so the
        // steady state allocates nothing. Index loop: the body re-keys the
        // lists while the scratch is still borrowed-by-value per entry.
        self.drained.clear();
        self.latest_start.drain_up_to_into(bound, &mut self.drained);
        for i in 0..self.drained.len() {
            let (_, id) = self.drained[i];
            let w = WfId(id);
            debug_assert!(
                self.edf.contains(id),
                "latest-start index out of sync with EDF-List"
            );
            self.edf.set(id, None);
            let rep = self
                .index
                .representative(w)
                .expect("EDF-List workflow lost its representative without an event");
            self.hdf.set(id, Some(Reverse(hdf_key(&rep))));
            self.side[w.index()] = Side::Hdf;
            if self.obs.is_attached() {
                let ev = MigrationEvent {
                    at: now,
                    subject: MigrationSubject::Workflow(w),
                    to_hdf: true,
                };
                self.obs.emit(|o| o.migration(&ev));
            }
        }
    }

    fn head_of(&self, w: WfId, rule: HeadRule) -> TxnId {
        self.index
            .head(w, &self.wfs, rule)
            .expect("listed workflow must have a ready head")
    }

    /// The provenance [`Candidate`] for workflow `w`'s head under its
    /// representative `rep` (observer path only).
    fn wf_candidate(
        &self,
        w: WfId,
        head: TxnId,
        rep: &Representative,
        table: &TxnTable,
        now: SimTime,
    ) -> Candidate {
        Candidate {
            txn: head,
            workflow: Some(w),
            r: table.remaining(head),
            slack: rep.slack(now),
            weight: rep.weight.get(),
            deadline: rep.deadline,
        }
    }

    /// The Fig. 7 decision rule as a provenance token.
    fn decision_rule(&self) -> DecisionRule {
        match self.cfg.impact {
            ImpactRule::Paper => DecisionRule::Fig7Paper,
            ImpactRule::Symmetric => DecisionRule::Fig7Symmetric,
        }
    }

    /// Build and emit a one-sided decision record (only one list
    /// populated).
    fn observe_unopposed(&self, table: &TxnTable, now: SimTime, w: WfId, head: TxnId, edf: bool) {
        if !self.obs.is_attached() {
            return;
        }
        let rep = self.index.representative(w).expect("listed wf has a rep");
        let cand = self.wf_candidate(w, head, &rep, table, now);
        let rec = DecisionRecord {
            at: now,
            rule: self.decision_rule(),
            edf: if edf { Some(cand) } else { None },
            hdf: if edf { None } else { Some(cand) },
            impact_edf: 0,
            impact_hdf: 0,
            winner: if edf {
                Winner::OnlyEdf
            } else {
                Winner::OnlyHdf
            },
            chosen: head,
            edf_len: self.edf.len() as u32,
            hdf_len: self.hdf.len() as u32,
        };
        self.obs.emit(|o| o.decision(&rec));
    }

    /// The Fig. 7 decision between the two list tops.
    fn decide(&self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let edf_top = self.edf.peek_id().map(WfId);
        let hdf_top = self.hdf.peek_id().map(WfId);
        match (edf_top, hdf_top) {
            (None, None) => None,
            (Some(a), None) => {
                let head = self.head_of(a, self.cfg.edf_head);
                self.observe_unopposed(table, now, a, head, true);
                Some(head)
            }
            (None, Some(b)) => {
                let head = self.head_of(b, self.cfg.hdf_head);
                self.observe_unopposed(table, now, b, head, false);
                Some(head)
            }
            (Some(a), Some(b)) => {
                let head_a = self.head_of(a, self.cfg.edf_head);
                let head_b = self.head_of(b, self.cfg.hdf_head);
                let rep_a = self.index.representative(a).expect("EDF top has a rep");
                let rep_b = self.index.representative(b).expect("HDF top has a rep");
                let (impact_a, impact_b) =
                    impact_values(self.cfg.impact, table, now, head_a, &rep_a, head_b, &rep_b);
                let edf_first = impact_a < impact_b;
                let chosen = if edf_first { head_a } else { head_b };
                if self.obs.is_attached() {
                    let rec = DecisionRecord {
                        at: now,
                        rule: self.decision_rule(),
                        edf: Some(self.wf_candidate(a, head_a, &rep_a, table, now)),
                        hdf: Some(self.wf_candidate(b, head_b, &rep_b, table, now)),
                        impact_edf: impact_a,
                        impact_hdf: impact_b,
                        winner: if edf_first { Winner::Edf } else { Winner::Hdf },
                        chosen,
                        edf_len: self.edf.len() as u32,
                        hdf_len: self.hdf.len() as u32,
                    };
                    self.obs.emit(|o| o.decision(&rec));
                }
                Some(chosen)
            }
        }
    }
}

/// Representative density key `w_rep / r_rep`.
pub(crate) fn hdf_key(rep: &Representative) -> Ratio {
    Ratio::new(rep.weight.get() as u64, rep.remaining.ticks())
}

/// Both sides of the negative-impact inequality, in tick·weight units:
/// `(impact of running A first, impact of running B first)`. Exposed to the
/// decision-provenance records so the dump always carries the exact values
/// that were compared.
pub(crate) fn impact_values(
    rule: ImpactRule,
    table: &TxnTable,
    now: SimTime,
    head_a: TxnId,
    rep_a: &Representative,
    head_b: TxnId,
    rep_b: &Representative,
) -> (i128, i128) {
    let r_head_a = table.remaining(head_a).ticks() as i128;
    let r_head_b = table.remaining(head_b).ticks() as i128;
    let w_a = rep_a.weight.get() as i128;
    let w_b = rep_b.weight.get() as i128;
    let s_rep_a = rep_a.slack(now).ticks();
    let impact_a_first = match rule {
        ImpactRule::Paper => r_head_a * w_b,
        ImpactRule::Symmetric => {
            let s_rep_b = rep_b.slack(now).ticks();
            (r_head_a - s_rep_b) * w_b
        }
    };
    let impact_b_first = (r_head_b - s_rep_a) * w_a;
    (impact_a_first, impact_b_first)
}

/// The negative-impact comparison (shared with the O(n) reference oracle):
/// returns true iff the EDF-side head should run. Ties go to the HDF side
/// (Fig. 7 line 17 uses a strict `<`).
pub(crate) fn edf_wins(
    rule: ImpactRule,
    table: &TxnTable,
    now: SimTime,
    head_a: TxnId,
    rep_a: &Representative,
    head_b: TxnId,
    rep_b: &Representative,
) -> bool {
    let (impact_a_first, impact_b_first) =
        impact_values(rule, table, now, head_a, rep_a, head_b, rep_b);
    impact_a_first < impact_b_first
}

impl Scheduler for AsetsStar {
    fn name(&self) -> &str {
        "ASETS*"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.index.on_ready(t, &self.wfs, table);
        self.refresh_workflows_of(t, now);
    }

    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        // A blocked arrival cannot run, but it becomes *visible*: its
        // deadline/weight may sharpen the representative of its workflows —
        // the whole point of scheduling at the workflow level.
        self.index.on_visible(t, &self.wfs, table);
        self.refresh_workflows_of(t, now);
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.index.on_requeue(t, &self.wfs, table);
        self.refresh_workflows_of(t, now);
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, now: SimTime) {
        self.index.on_complete(t, &self.wfs);
        self.refresh_workflows_of(t, now);
    }

    fn on_batch(&mut self, events: &[LifecycleEvent], table: &TxnTable, now: SimTime) {
        // One bulk index pass over the whole epoch, then one refresh per
        // *touched workflow* — the per-event path refreshes once per
        // (event × workflows-of-member), re-deriving the same final keys
        // each time. Final state is identical: refresh reads only the index
        // and `now`, both of which are settled once the batch is applied.
        // An observer sees each workflow's *net* crossing over the epoch;
        // intermediate flapping within one instant is coalesced away (event
        // content identical, hook granularity coarser).
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        self.index
            .apply_batch(events, &self.wfs, table, &mut touched);
        for &w in touched.iter() {
            self.refresh(w, now);
        }
        self.touched = touched;
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.migrate(now);
        self.decide(table, now)
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        debug_assert!(slots >= 1, "select_many requires at least one slot");
        let Some(first) = self.select(table, now) else {
            return;
        };
        out.push(first);
        if slots == 1 {
            return;
        }
        // Extra slots replay the Fig. 7 comparison *down* the two lists:
        // each list exposes its `slots` smallest keys without popping, and a
        // two-cursor merge decides each EDF-vs-HDF workflow pair with the
        // same negative-impact test `select` applies to the tops. Heads
        // already taken (the first pick, or a sub-transaction shared between
        // workflows) are skipped so the engine's distinctness invariant
        // holds.
        let mut edf_tops = std::mem::take(&mut self.mf_edf);
        let mut hdf_tops = std::mem::take(&mut self.mf_hdf);
        edf_tops.clear();
        hdf_tops.clear();
        edf_tops.extend(self.edf.ordered(&mut self.mf_edf_frontier).take(slots));
        hdf_tops.extend(self.hdf.ordered(&mut self.mf_hdf_frontier).take(slots));
        let (mut i, mut j) = (0usize, 0usize);
        while out.len() < slots && (i < edf_tops.len() || j < hdf_tops.len()) {
            let a = edf_tops.get(i).map(|&(_, w)| WfId(w));
            let b = hdf_tops.get(j).map(|&(_, w)| WfId(w));
            let (head, from_edf) = match (a, b) {
                (Some(a), None) => (self.head_of(a, self.cfg.edf_head), true),
                (None, Some(b)) => (self.head_of(b, self.cfg.hdf_head), false),
                (Some(a), Some(b)) => {
                    let head_a = self.head_of(a, self.cfg.edf_head);
                    let head_b = self.head_of(b, self.cfg.hdf_head);
                    let rep_a = self
                        .index
                        .representative(a)
                        .expect("EDF candidate has a rep");
                    let rep_b = self
                        .index
                        .representative(b)
                        .expect("HDF candidate has a rep");
                    if edf_wins(self.cfg.impact, table, now, head_a, &rep_a, head_b, &rep_b) {
                        (head_a, true)
                    } else {
                        (head_b, false)
                    }
                }
                (None, None) => unreachable!("loop condition guarantees a candidate"),
            };
            if from_edf {
                i += 1;
            } else {
                j += 1;
            }
            if !out.contains(&head) {
                out.push(head);
            }
        }
        self.mf_edf = edf_tops;
        self.mf_hdf = hdf_tops;
    }

    fn steal_candidates(&self, table: &TxnTable, _now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        // Victims expose candidates in latest-start order (most deferrable
        // first) via the migration index — the same `d_rep − r_rep` key the
        // epoch migration scan uses. Only never-served ready heads are
        // eligible: a stolen transaction restarts from its full length on
        // the thief's table. The walk stops at the k-th pick.
        let mut frontier = Frontier::new();
        let mut picked = 0usize;
        for (_, w) in self.latest_start.ordered(&mut frontier) {
            if picked >= k {
                break;
            }
            let head = self.head_of(WfId(w), self.cfg.edf_head);
            if table.state(head).phase == crate::txn::TxnPhase::Ready
                && table.remaining(head) == table.spec(head).length
                && !out.contains(&head)
            {
                out.push(head);
                picked += 1;
            }
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.obs.attach(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::txn::{TxnSpec, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }
    fn spec(arr: u64, dl: u64, len: u64, w: u32, deps: Vec<TxnId>) -> TxnSpec {
        TxnSpec {
            arrival: at(arr),
            deadline: at(dl),
            length: units(len),
            weight: Weight(w),
            deps,
        }
    }

    fn arrive_all(tbl: &mut TxnTable, p: &mut AsetsStar, now: SimTime) {
        for t in 0..tbl.len() as u32 {
            let id = TxnId(t);
            if tbl.arrive(id, now) {
                p.on_ready(id, tbl, now);
            } else {
                p.on_blocked_arrival(id, tbl, now);
            }
        }
    }

    /// Paper Example 4 (Fig. 6), equal weights. Two 2-transaction chains:
    ///
    /// K_A (EDF-List top):  head r=2;       rep: d=10, r=2 at t=8 → slack 0.
    /// K_B (HDF-List top):  head r=3;       rep: d=13, r=3 at t=8 → slack 2.
    ///
    /// impact(A first) = r_head,A − s_rep,B = 2 − 2 = 0 (symmetric rule)
    /// impact(B first) = r_head,B − s_rep,A = 3 − 0 = 3  → K_A runs.
    ///
    /// Under the Paper rule impact(A first) = r_head,A = 2 < 3, same winner.
    #[test]
    fn example4_edf_workflow_wins() {
        // K_A: T0 (head, ready) -> T1 (root). rep must have d=10, r=2:
        //   T0: d=10, r=2;  T1: d=40, r=9   (rep = min d 10, min r 2)
        // K_B: T2 (head, ready) -> T3 (root). rep d=13, r=3:
        //   T2: d=13, r=3;  T3: d=50, r=8
        // At t=8: K_A rep slack = 10-(8+2) = 0 (feasible, EDF side);
        //         K_B rep slack = 13-(8+3) = 2... that's feasible too — to put
        // K_B on the HDF side we give its rep a *negative* slack via T2's
        // deadline. Example 4's figure actually shows the SRPT-side rep with
        // positive slack (the paper's own inconsistency, DESIGN.md D1); here
        // we realize the *decision arithmetic* with K_B genuinely missed:
        //   T2: d=9, r=3 at t=8 → slack -2.
        let mut tbl = TxnTable::new(vec![
            spec(0, 10, 2, 1, vec![]),
            spec(0, 40, 9, 1, vec![TxnId(0)]),
            spec(0, 9, 3, 1, vec![]),
            spec(0, 50, 8, 1, vec![TxnId(2)]),
        ])
        .unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        // At t=8: K_A feasible (slack 0), K_B missed.
        let pick = p.select(&tbl, at(8));
        assert_eq!(p.edf_len(), 1);
        assert_eq!(p.hdf_len(), 1);
        // impact(A) = 2*1 = 2 < impact(B) = (3 - 0)*1 = 3 → head of K_A.
        assert_eq!(pick, Some(TxnId(0)));
    }

    #[test]
    fn hdf_head_wins_when_edf_head_is_long() {
        // K_A head r=6 (rep slack 0), K_B head r=3 (missed):
        // impact(A)=6 > impact(B)=3-0=3 → run K_B's head.
        let mut tbl = TxnTable::new(vec![
            spec(0, 6, 6, 1, vec![]), // K_A singleton: slack 0 at t=0
            spec(0, 1, 3, 1, vec![]), // K_B singleton: missed
        ])
        .unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
    }

    #[test]
    fn weights_scale_the_impacts() {
        // Same shape as above, but the EDF workflow carries weight 10:
        // impact(A)=6*1=6, impact(B)=(3-0)*10=30 → now K_A runs.
        let mut tbl =
            TxnTable::new(vec![spec(0, 6, 6, 10, vec![]), spec(0, 1, 3, 1, vec![])]).unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn blocked_member_boosts_workflow_priority() {
        // Workflow K0: T0 (ready, d=100, w=1) -> T1 (blocked, d=6, w=9).
        // Workflow K1: T2 (ready, d=50, r=2).
        // Without the representative, T2 (earlier own deadline than T0's 100)
        // would win; the blocked T1 drags K0's rep deadline to 6 and its
        // weight to 9, so K0's head T0 runs first.
        let mut tbl = TxnTable::new(vec![
            spec(0, 100, 3, 1, vec![]),
            spec(0, 6, 1, 9, vec![TxnId(0)]),
            spec(0, 50, 2, 1, vec![]),
        ])
        .unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        // K0 rep: d=6, r=1, w=9 → feasible at t=0 (0+1<=6): EDF side, key 6.
        // K1 rep: d=50, r=2 → EDF side, key 50. K0 tops the EDF-List.
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn workflow_migrates_when_rep_misses() {
        // Singleton workflow, d=10, r=4: feasible until t=6.
        let mut tbl = TxnTable::new(vec![spec(0, 10, 4, 1, vec![])]).unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.select(&tbl, at(6)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 1);
        assert_eq!(p.select(&tbl, at(7)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 0);
        assert_eq!(p.hdf_len(), 1);
    }

    #[test]
    fn completion_of_urgent_member_can_move_workflow_back_to_edf() {
        // K0: T0 (ready, d=3, r=3) -> T1 (root, d=100, r=2).
        // At t=1 the rep (d=3, r... min r = 2) has slack 3-(1+2)=0 —
        // feasible. At t=2 rep slack = -1 → HDF side. Complete T0 at t=4:
        // rep becomes T1 alone (d=100, r=2, slack 94) → back to EDF side.
        let mut tbl = TxnTable::new(vec![
            spec(0, 3, 3, 1, vec![]),
            spec(0, 100, 2, 1, vec![TxnId(0)]),
        ])
        .unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
        assert_eq!(p.hdf_len(), 1, "rep missed: HDF side");
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(4), units(3));
        p.on_complete(TxnId(0), &tbl, at(4));
        p.on_ready(TxnId(1), &tbl, at(4));
        assert_eq!(p.edf_len(), 1, "fresh rep is feasible again");
        assert_eq!(p.select(&tbl, at(4)), Some(TxnId(1)));
    }

    #[test]
    fn unready_workflow_stays_out_of_lists() {
        // Dependent T1 arrives; its leaf T0 has not arrived yet: the
        // workflow is visible but unschedulable.
        let mut tbl = TxnTable::new(vec![
            spec(5, 30, 2, 1, vec![]),
            spec(0, 20, 2, 1, vec![TxnId(0)]),
        ])
        .unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        assert!(!tbl.arrive(TxnId(1), at(0)));
        p.on_blocked_arrival(TxnId(1), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), None);
        // Leaf arrives: workflow becomes schedulable.
        assert!(tbl.arrive(TxnId(0), at(5)));
        p.on_ready(TxnId(0), &tbl, at(5));
        assert_eq!(p.select(&tbl, at(5)), Some(TxnId(0)));
    }

    #[test]
    fn symmetric_rule_differs_when_hdf_slack_is_negative() {
        // K_A: singleton, d=10, r=2 at t=0 → slack 8 (EDF side).
        // K_B: singleton, d=1, r=5 → slack -4 (HDF side).
        // Paper rule: impact(A)=2 < impact(B)=5-8=-3? No: 2 < -3 false → B.
        // Symmetric:  impact(A)=2-(-4)=6, impact(B)=-3 → 6 < -3 false → B.
        // Same here; build a case where they differ:
        // K_A: d=12, r=2 at t=0 → slack 10. K_B: d=1, r=13 → slack -12.
        // Paper: impact(A)=2, impact(B)=13-10=3 → 2<3 → A wins.
        // Symmetric: impact(A)=2-(-12)=14, impact(B)=3 → 14<3 false → B wins.
        let specs = vec![spec(0, 12, 2, 1, vec![]), spec(0, 1, 13, 1, vec![])];
        let mut tbl_p = TxnTable::new(specs.clone()).unwrap();
        let mut paper = AsetsStar::new(&tbl_p, AsetsStarConfig::default());
        arrive_all(&mut tbl_p, &mut paper, at(0));
        assert_eq!(paper.select(&tbl_p, at(0)), Some(TxnId(0)));

        let mut tbl_s = TxnTable::new(specs).unwrap();
        let mut sym = AsetsStar::new(
            &tbl_s,
            AsetsStarConfig {
                impact: ImpactRule::Symmetric,
                ..AsetsStarConfig::default()
            },
        );
        arrive_all(&mut tbl_s, &mut sym, at(0));
        assert_eq!(sym.select(&tbl_s, at(0)), Some(TxnId(1)));
    }

    #[test]
    fn empty_batch_selects_none() {
        let tbl = TxnTable::new(vec![]).unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        assert_eq!(p.select(&tbl, at(0)), None);
    }

    #[test]
    fn shared_member_updates_both_workflows() {
        // Shared leaf T0 feeds roots T1 and T2. Completing T0 must refresh
        // both workflows' heads.
        let mut tbl = TxnTable::new(vec![
            spec(0, 30, 1, 1, vec![]),
            spec(0, 10, 2, 1, vec![TxnId(0)]),
            spec(0, 8, 2, 1, vec![TxnId(0)]),
        ])
        .unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(1), units(1));
        p.on_complete(TxnId(0), &tbl, at(1));
        p.on_ready(TxnId(1), &tbl, at(1));
        p.on_ready(TxnId(2), &tbl, at(1));
        // Both workflows now schedulable; K(T2) has the earlier rep deadline.
        assert_eq!(p.select(&tbl, at(1)), Some(TxnId(2)));
    }

    /// The Fig. 7 record reproduces the impact arithmetic that drove the
    /// `hdf_head_wins_when_edf_head_is_long` decision, and names both
    /// workflow candidates.
    #[test]
    fn observer_sees_fig7_provenance() {
        use crate::obs::{share, DecisionRule, Observer, Winner};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Cap(Vec<crate::obs::DecisionRecord>);
        impl Observer for Cap {
            fn decision(&mut self, rec: &crate::obs::DecisionRecord) {
                self.0.push(*rec);
            }
        }

        // K_A head r=6 (rep slack 0), K_B head r=3 (missed):
        // impact(A)=6 > impact(B)=3-0=3 → run K_B's head.
        let mut tbl =
            TxnTable::new(vec![spec(0, 6, 6, 1, vec![]), spec(0, 1, 3, 1, vec![])]).unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        let cap = Rc::new(RefCell::new(Cap::default()));
        p.attach_observer(share(&cap));
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));

        let c = cap.borrow();
        let rec = c.0.last().expect("decision recorded");
        assert_eq!(rec.rule, DecisionRule::Fig7Paper);
        assert_eq!(rec.winner, Winner::Hdf);
        assert_eq!(rec.chosen, TxnId(1));
        let edf = rec.edf.expect("EDF candidate");
        let hdf = rec.hdf.expect("HDF candidate");
        assert_eq!(edf.txn, TxnId(0));
        assert_eq!(edf.workflow, Some(WfId(0)));
        assert_eq!(hdf.txn, TxnId(1));
        assert_eq!(hdf.workflow, Some(WfId(1)));
        // Paper rule: impact(A) = r_head,A * w_B = 6; impact(B) =
        // (r_head,B - s_rep,A) * w_A = 3.
        assert_eq!(rec.impact_edf, units(6).ticks() as i128);
        assert_eq!(rec.impact_hdf, units(3).ticks() as i128);
        assert!(rec.margin() < 0);
    }

    /// Workflow migration events fire when a rep's deadline becomes
    /// unreachable (EDF→HDF) and when it becomes feasible again.
    #[test]
    fn observer_sees_workflow_migration() {
        use crate::obs::{share, MigrationSubject, Observer};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Cap(Vec<crate::obs::MigrationEvent>);
        impl Observer for Cap {
            fn migration(&mut self, ev: &crate::obs::MigrationEvent) {
                self.0.push(*ev);
            }
        }

        // Singleton workflow, d=5, r=3: feasible until t>2.
        let mut tbl = TxnTable::new(vec![spec(0, 5, 3, 1, vec![])]).unwrap();
        let mut p = AsetsStar::with_defaults(&tbl);
        let cap = Rc::new(RefCell::new(Cap::default()));
        p.attach_observer(share(&cap));
        arrive_all(&mut tbl, &mut p, at(0));
        assert_eq!(p.edf_len(), 1);
        // At t=4 the rep can no longer meet its deadline (4+3 > 5).
        assert_eq!(p.select(&tbl, at(4)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 0, "migrated to HDF-List");
        let c = cap.borrow();
        assert_eq!(c.0.len(), 1);
        assert!(c.0[0].to_hdf);
        assert_eq!(c.0[0].subject, MigrationSubject::Workflow(WfId(0)));
    }
}
