//! Workflows: the scheduling unit of ASETS\* under precedence constraints.
//!
//! Paper §II-A: *"a workflow is defined for every transaction that does not
//! appear in any dependency list"* (a DAG root); the workflow contains the
//! root plus the transitive closure of its dependency list, and a transaction
//! can belong to more than one workflow (shared fragments).
//!
//! Two per-workflow notions drive the workflow-level policy (§III-B):
//!
//! * the **head transaction** (Definition 8) — a member that is ready for
//!   execution right now; it is the thing that actually runs, and
//! * the **representative transaction** (Definition 9) — a *virtual*
//!   transaction carrying the minimum deadline, minimum remaining processing
//!   time, and maximum weight over the workflow's remaining members; it is
//!   what the workflow is *ranked by* in the EDF/HDF lists.
//!
//! Interpretation decisions (documented in DESIGN.md):
//!
//! * **D2** — a tree-shaped workflow can have several ready members; the
//!   paper says "the" head. We expose all heads and a [`HeadRule`] selector
//!   (earliest deadline / highest density / lowest id).
//! * **D9** — the representative ranges over members that are *visible to
//!   the scheduler*: arrived and not yet completed. A member whose arrival
//!   event is still in the future is unknown to an online scheduler, so it
//!   cannot contribute its deadline or weight yet.

use crate::csr::{self, Csr};
use crate::policy::{LifecycleEvent, Ratio};
use crate::table::TxnTable;
use crate::time::{SimDuration, SimTime, Slack};
use crate::txn::{TxnId, TxnPhase, Weight};
use std::cmp::Reverse;
use std::fmt;

/// Identifier of a workflow within a [`WorkflowSet`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WfId(pub u32);

impl WfId {
    /// Dense index of this workflow.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// How to pick *the* head when a workflow has several ready members (D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeadRule {
    /// The ready member with the earliest deadline (ties by id). Natural for
    /// a workflow sitting in the EDF-List.
    #[default]
    EarliestDeadline,
    /// The ready member with the highest density `w/r` (ties by id). Natural
    /// for a workflow sitting in the HDF/SRPT-List.
    HighestDensity,
    /// The ready member with the smallest id — a deliberately naive baseline
    /// for the head-rule ablation.
    FirstById,
}

/// The virtual representative transaction of a workflow (Definition 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representative {
    /// Minimum (earliest) deadline among visible remaining members.
    pub deadline: SimTime,
    /// Minimum remaining processing time among visible remaining members.
    pub remaining: SimDuration,
    /// Maximum weight among visible remaining members.
    pub weight: Weight,
}

impl Representative {
    /// Slack of the representative at `now`: `d_rep - (now + r_rep)`.
    #[inline]
    pub fn slack(&self, now: SimTime) -> Slack {
        Slack::compute(now, self.remaining, self.deadline)
    }

    /// EDF-List membership test for the whole workflow (§III-B): the
    /// workflow belongs in the EDF-List iff its representative could still
    /// meet its deadline starting now.
    #[inline]
    pub fn can_meet_deadline(&self, now: SimTime) -> bool {
        self.slack(now).is_feasible()
    }
}

/// The static workflow structure extracted from a transaction batch.
///
/// Member lists and each transaction's workflow list are stored flat
/// ([`Csr`]), so the build costs a constant number of allocations however
/// many workflows the batch has.
#[derive(Debug, Clone)]
pub struct WorkflowSet {
    /// Row `w` = members of workflow `w`, sorted by id.
    members: Csr<TxnId>,
    /// Per-workflow root transaction.
    roots: Vec<TxnId>,
    /// Row `t` = workflows containing transaction `t`, ascending.
    of_txn: Csr<WfId>,
    /// Parallel to `of_txn`'s items: `t`'s position in each containing
    /// workflow's member list.
    pos_in: Vec<u32>,
}

impl WorkflowSet {
    /// Extract one workflow per DAG root. Every transaction belongs to at
    /// least one workflow (follow successors upward from any transaction and
    /// you must reach a root, since the graph is a finite DAG).
    ///
    /// One visit-stamp array serves every root's walk, so the build costs
    /// O(Σ members), not O(roots × n).
    pub fn build(table: &TxnTable) -> WorkflowSet {
        let dag = table.dag();
        let n = table.len();
        let roots: Vec<TxnId> = dag.roots().to_vec();
        // Σ members is at least n (every transaction is in a workflow) and
        // exactly n when no member is shared.
        let mut members: Csr<TxnId> = Csr::with_capacity(roots.len(), n);
        let mut stamp = vec![0u32; n];
        let mut walk = Vec::new();
        for (w, &root) in roots.iter().enumerate() {
            dag.workflow_members_stamped(root, &mut stamp, w as u32 + 1, &mut walk);
            members.extend_from_slice(&walk);
            members.close_row();
        }
        // Invert member lists into per-transaction workflow lists, scanning
        // workflows in id order so each row ascends. `stamp` is reused for
        // the row lengths, then as the scatter cursor.
        let counts = &mut stamp;
        counts.fill(0);
        for w in 0..members.len() {
            for &t in members.row(w) {
                counts[t.index()] += 1;
            }
        }
        let mut of_txn = Csr::from_counts(counts, WfId(0));
        let mut pos_in = vec![0u32; of_txn.items_mut().len()];
        let cursor = counts;
        cursor.copy_from_slice(of_txn.starts());
        for w in 0..members.len() {
            for (pos, &t) in members.row(w).iter().enumerate() {
                let slot = cursor[t.index()] as usize;
                of_txn.items_mut()[slot] = WfId(w as u32);
                pos_in[slot] = pos as u32;
                cursor[t.index()] += 1;
            }
        }
        WorkflowSet {
            members,
            roots,
            of_txn,
            pos_in,
        }
    }

    /// Number of workflows.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff there are no workflows (empty batch).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.len() == 0
    }

    /// All workflow ids.
    pub fn ids(&self) -> impl Iterator<Item = WfId> + '_ {
        (0..self.members.len() as u32).map(WfId)
    }

    /// Members of workflow `w`, sorted by transaction id.
    #[inline]
    pub fn members(&self, w: WfId) -> &[TxnId] {
        self.members.row(w.index())
    }

    /// Root transaction of workflow `w`.
    #[inline]
    pub fn root(&self, w: WfId) -> TxnId {
        self.roots[w.index()]
    }

    /// Workflows containing transaction `t` (at least one), ascending.
    #[inline]
    pub fn workflows_of(&self, t: TxnId) -> &[WfId] {
        self.of_txn.row(t.index())
    }

    /// Parallel to [`WorkflowSet::workflows_of`]: `t`'s position in each
    /// containing workflow's member list.
    #[inline]
    fn positions_of(&self, t: TxnId) -> &[u32] {
        &self.pos_in[self.of_txn.range(t.index())]
    }

    /// The representative transaction of `w` right now, or `None` when the
    /// workflow has no visible remaining member (everything completed, or
    /// nothing has arrived yet — D9).
    pub fn representative(&self, w: WfId, table: &TxnTable) -> Option<Representative> {
        let mut rep: Option<Representative> = None;
        for &t in self.members(w) {
            let st = table.state(t);
            let visible = matches!(
                st.phase,
                TxnPhase::Blocked | TxnPhase::Ready | TxnPhase::Running
            );
            if !visible {
                continue;
            }
            let spec = table.spec(t);
            match &mut rep {
                None => {
                    rep = Some(Representative {
                        deadline: spec.deadline,
                        remaining: st.remaining,
                        weight: spec.weight,
                    })
                }
                Some(r) => {
                    r.deadline = r.deadline.min(spec.deadline);
                    r.remaining = r.remaining.min(st.remaining);
                    r.weight = r.weight.max(spec.weight);
                }
            }
        }
        rep
    }

    /// All ready members of `w` (candidates for head), in id order.
    pub fn heads(&self, w: WfId, table: &TxnTable) -> Vec<TxnId> {
        self.members(w)
            .iter()
            .copied()
            .filter(|&t| table.state(t).is_ready())
            .collect()
    }

    /// The head of `w` under `rule`, or `None` if no member is ready.
    pub fn head(&self, w: WfId, table: &TxnTable, rule: HeadRule) -> Option<TxnId> {
        let mut best: Option<TxnId> = None;
        for &t in self.members(w) {
            if !table.state(t).is_ready() {
                continue;
            }
            best = Some(match best {
                None => t,
                Some(b) => match rule {
                    HeadRule::FirstById => b, // members are id-sorted; first wins
                    HeadRule::EarliestDeadline => {
                        if table.deadline(t) < table.deadline(b) {
                            t
                        } else {
                            b
                        }
                    }
                    HeadRule::HighestDensity => {
                        if denser(table, t, b) {
                            t
                        } else {
                            b
                        }
                    }
                },
            });
        }
        best
    }

    /// True iff every member of `w` has completed.
    pub fn is_finished(&self, w: WfId, table: &TxnTable) -> bool {
        self.members(w)
            .iter()
            .all(|&t| table.state(t).is_completed())
    }
}

/// A subtree summary that can absorb a sibling's summary. Implementors are
/// the node types of the [`seg`] trees.
trait Merge: Copy + PartialEq {
    fn merge(a: Self, b: Self) -> Self;
}

/// Values-only segment trees over member positions, each stored as a
/// node slice of `2·n` nodes in an arena shared by every workflow: node `i`
/// summarizes its subtree via [`Merge`] (`None` when no present member is
/// below), leaves live at `n + pos`, and the root at 1. A member phase
/// change is a single O(log n) walk on one flat slice (no allocation after
/// construction) and every whole-workflow query is an O(1) root read.
/// Fusing all of a workflow's aggregates into one node type is what keeps
/// per-event index maintenance to one walk instead of one per aggregate.
mod seg {
    use super::Merge;

    #[inline]
    fn merged<T: Merge>(a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(a), Some(b)) => Some(T::merge(a, b)),
            (a, b) => a.or(b),
        }
    }

    /// Set (or clear, with `None`) the leaf at `pos` and re-merge the path
    /// to the root. Free when the leaf is unchanged (zero-service requeues).
    pub(super) fn set<T: Merge>(nodes: &mut [Option<T>], pos: u32, v: Option<T>) {
        let mut i = nodes.len() / 2 + pos as usize;
        if nodes[i] == v {
            return;
        }
        nodes[i] = v;
        while i > 1 {
            i >>= 1;
            nodes[i] = merged(nodes[2 * i], nodes[2 * i + 1]);
        }
    }

    /// Write a leaf *without* re-merging its path — must be followed by a
    /// [`rebuild`] before any query, which is why bulk callers go through
    /// [`super::WorkflowIndex::apply_batch`] rather than calling this.
    #[inline]
    pub(super) fn set_leaf<T: Merge>(nodes: &mut [Option<T>], pos: u32, v: Option<T>) {
        nodes[nodes.len() / 2 + pos as usize] = v;
    }

    /// Re-merge every internal node bottom-up in O(n) — the bulk twin of
    /// k per-leaf `set` walks (k·O(log n)), profitable once `k·log₂ n ≳ n`.
    pub(super) fn rebuild<T: Merge>(nodes: &mut [Option<T>]) {
        for i in (1..nodes.len() / 2).rev() {
            nodes[i] = merged(nodes[2 * i], nodes[2 * i + 1]);
        }
    }

    #[inline]
    pub(super) fn leaf<T: Merge>(nodes: &[Option<T>], pos: u32) -> Option<T> {
        nodes[nodes.len() / 2 + pos as usize]
    }

    /// The merged summary over every present member.
    #[inline]
    pub(super) fn root<T: Merge>(nodes: &[Option<T>]) -> Option<T> {
        nodes[1]
    }
}

/// The per-member leaf of a workflow's aggregate tree: one visible member's
/// contribution to the representative. The root of the tree *is* the
/// representative — Definition 9 never asks *which* member holds each
/// extreme, only the component-wise values, so no winner positions are
/// tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Agg {
    /// Deadline (ticks).
    dl: u64,
    /// Remaining processing time (ticks).
    rem: u64,
    /// Weight.
    w: u32,
}

impl Agg {
    /// Visible member `t`'s contribution.
    #[inline]
    fn leaf(table: &TxnTable, t: TxnId) -> Agg {
        Agg {
            dl: table.deadline(t).ticks(),
            rem: table.remaining(t).ticks(),
            w: table.weight(t).get(),
        }
    }
}

impl Merge for Agg {
    /// Component-wise representative merge (Definition 9): min deadline, min
    /// remaining, max weight.
    fn merge(a: Agg, b: Agg) -> Agg {
        Agg {
            dl: a.dl.min(b.dl),
            rem: a.rem.min(b.rem),
            w: a.w.max(b.w),
        }
    }
}

/// The per-member leaf of a workflow's ready-frontier tree: the head winner
/// under *every* [`HeadRule`] at once, so one walk keeps all rules' heads
/// current. Winner ties break toward the smaller position, which is the
/// smaller id for id-sorted member lists — the naive scans' tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrontNode {
    /// `EarliestDeadline` winner: min (deadline ticks, position).
    dl: u64,
    dl_pos: u32,
    /// `HighestDensity` winner: max `w/r` (exact rational, zero remaining =
    /// +∞ — the same order as [`denser`]), min position on value ties.
    dens: Ratio,
    dens_pos: u32,
    /// `FirstById` winner: min ready position.
    first: u32,
}

impl FrontNode {
    fn leaf(pos: u32, table: &TxnTable, t: TxnId) -> FrontNode {
        FrontNode {
            dl: table.deadline(t).ticks(),
            dl_pos: pos,
            dens: Ratio::new(table.weight(t).get() as u64, table.remaining(t).ticks()),
            dens_pos: pos,
            first: pos,
        }
    }
}

impl Merge for FrontNode {
    fn merge(a: FrontNode, b: FrontNode) -> FrontNode {
        let (dl, dl_pos) = if (b.dl, b.dl_pos) < (a.dl, a.dl_pos) {
            (b.dl, b.dl_pos)
        } else {
            (a.dl, a.dl_pos)
        };
        let (dens, dens_pos) = if (Reverse(b.dens), b.dens_pos) < (Reverse(a.dens), a.dens_pos) {
            (b.dens, b.dens_pos)
        } else {
            (a.dens, a.dens_pos)
        };
        FrontNode {
            dl,
            dl_pos,
            dens,
            dens_pos,
            first: a.first.min(b.first),
        }
    }
}

/// Incremental per-workflow aggregates: the `O(log |W|)` replacement for the
/// member rescans in [`WorkflowSet::representative`] and
/// [`WorkflowSet::head`].
///
/// For every workflow it maintains two segment trees over the member list:
///
/// * an **aggregate tree** over *visible* members (arrived, not completed —
///   D9) whose root is the representative (deadline and weight leaves are
///   static; only the paused-running member's remaining time is ever
///   rewritten), and
/// * a **frontier tree** over *ready* members whose root carries the head
///   winner under every [`HeadRule`] (D2) at once, so `head()` is an O(1)
///   root read and frontier emptiness doubles as the schedulability test.
///
/// Trees are keyed by the member's *position* within the workflow's
/// id-sorted member list, which keeps the per-workflow storage dense (total
/// memory is O(Σ members), not O(workflows × transactions)) and makes
/// frontier tie-breaks coincide with the naive scans' id tie-breaks. Every
/// workflow's aggregate tree lives in one node arena and every frontier
/// tree in a second, at the same per-workflow base offsets, so building
/// the index costs a constant number of allocations.
///
/// The owner drives it from the policy hooks ([`WorkflowIndex::on_visible`],
/// [`WorkflowIndex::on_ready`], [`WorkflowIndex::on_requeue`],
/// [`WorkflowIndex::on_complete`]); a transaction shared by several
/// workflows updates each of them. Between hooks the index is exactly as
/// stale as the [`TxnTable`] itself (the engine pauses the running
/// transaction and requeues it before any query), so at every query point
/// it agrees with the naive rescans — asserted by the model-based property
/// test below and the cross-policy oracle tests.
#[derive(Debug, Clone)]
pub struct WorkflowIndex {
    /// Workflow `w`'s trees span `tree_off[w]..tree_off[w + 1]` in both
    /// arenas: `2·max(len, 1)` nodes each.
    tree_off: Vec<u32>,
    /// Representative aggregates over visible members, one tree per workflow.
    aggs: Vec<Option<Agg>>,
    /// Head rules the owner declared at construction (deduplicated). The
    /// fused [`FrontNode`] answers every rule; the list only enforces the
    /// contract that queries name a declared rule.
    rules: Vec<HeadRule>,
    /// Ready frontier of each workflow, all head rules fused per node.
    fronts: Vec<Option<FrontNode>>,
    /// Per-workflow maintenance mode for the `apply_batch` in flight
    /// (`MODE_IDLE` between calls): scratch, so batches allocate nothing.
    batch_agg_mode: Vec<u32>,
    batch_front_mode: Vec<u32>,
}

/// `apply_batch` per-tree modes: untouched / incremental path walks / raw
/// leaf writes followed by one full rebuild.
const MODE_IDLE: u32 = 0;
const MODE_BULK: u32 = u32::MAX;

/// Is one O(len) rebuild cheaper than `touches` O(log len) path walks?
/// Uses `floor(log2) + 1` as the walk length and a 2× margin for the
/// rebuild's cold sweep over untouched leaves.
#[inline]
pub(crate) fn bulk_profitable(touches: u32, len: usize) -> bool {
    let walk = usize::BITS - (len | 1).leading_zeros();
    (touches as usize) * walk as usize >= 2 * len
}

impl WorkflowIndex {
    /// Build an (empty) index over `wfs` maintaining frontiers for `rules`.
    /// Duplicate rules are collapsed; at least one rule is required, since
    /// frontier emptiness doubles as the schedulability test.
    pub fn new(wfs: &WorkflowSet, rules: &[HeadRule]) -> Self {
        assert!(
            !rules.is_empty(),
            "WorkflowIndex needs at least one head rule"
        );
        let mut dedup: Vec<HeadRule> = Vec::with_capacity(rules.len());
        for &r in rules {
            if !dedup.contains(&r) {
                dedup.push(r);
            }
        }
        let mut tree_off = Vec::with_capacity(wfs.len() + 1);
        let mut nodes = 0usize;
        tree_off.push(0);
        for w in wfs.ids() {
            nodes += 2 * wfs.members(w).len().max(1);
            tree_off.push(csr::offset(nodes));
        }
        WorkflowIndex {
            tree_off,
            aggs: vec![None; nodes],
            fronts: vec![None; nodes],
            rules: dedup,
            batch_agg_mode: vec![MODE_IDLE; wfs.len()],
            batch_front_mode: vec![MODE_IDLE; wfs.len()],
        }
    }

    /// An index maintaining every head rule (tests and ablations).
    pub fn with_all_rules(wfs: &WorkflowSet) -> Self {
        Self::new(
            wfs,
            &[
                HeadRule::EarliestDeadline,
                HeadRule::HighestDensity,
                HeadRule::FirstById,
            ],
        )
    }

    fn assert_maintained(&self, rule: HeadRule) {
        assert!(
            self.rules.contains(&rule),
            "head rule {rule:?} not maintained by this index"
        );
    }

    /// Where workflow `wi`'s trees live in the arenas.
    #[inline]
    fn tree(&self, wi: usize) -> std::ops::Range<usize> {
        self.tree_off[wi] as usize..self.tree_off[wi + 1] as usize
    }

    /// `t` became visible while still blocked (blocked arrival): it joins
    /// the aggregate queues of its workflows but no frontier.
    pub fn on_visible(&mut self, t: TxnId, wfs: &WorkflowSet, table: &TxnTable) {
        let agg = Some(Agg::leaf(table, t));
        for (&w, &pos) in wfs.workflows_of(t).iter().zip(wfs.positions_of(t)) {
            let tree = self.tree(w.index());
            seg::set(&mut self.aggs[tree], pos, agg);
        }
    }

    /// `t` became ready — either a fresh ready arrival (not yet visible) or
    /// a release of a previously blocked member. Joins the aggregates if
    /// absent, and every frontier.
    pub fn on_ready(&mut self, t: TxnId, wfs: &WorkflowSet, table: &TxnTable) {
        for (&w, &pos) in wfs.workflows_of(t).iter().zip(wfs.positions_of(t)) {
            let tree = self.tree(w.index());
            let aggs = &mut self.aggs[tree.clone()];
            if seg::leaf(aggs, pos).is_none() {
                seg::set(aggs, pos, Some(Agg::leaf(table, t)));
            }
            seg::set(
                &mut self.fronts[tree],
                pos,
                Some(FrontNode::leaf(pos, table, t)),
            );
        }
    }

    /// The running `t` was paused at a scheduling point: its remaining time
    /// shrank (or stayed, at zero-service pauses — then the rewrites below
    /// hit the unchanged-leaf fast paths and cost one comparison each). Only
    /// the remaining aggregate component and the frontier's density winner
    /// are remaining-dependent; deadline and weight leaves are static.
    pub fn on_requeue(&mut self, t: TxnId, wfs: &WorkflowSet, table: &TxnTable) {
        let rem = table.remaining(t).ticks();
        for (&w, &pos) in wfs.workflows_of(t).iter().zip(wfs.positions_of(t)) {
            let tree = self.tree(w.index());
            let aggs = &mut self.aggs[tree.clone()];
            let mut agg = seg::leaf(aggs, pos).expect("requeued member is visible");
            agg.rem = rem;
            seg::set(aggs, pos, Some(agg));
            seg::set(
                &mut self.fronts[tree],
                pos,
                Some(FrontNode::leaf(pos, table, t)),
            );
        }
    }

    /// `t` completed: leaves both trees of every containing workflow.
    pub fn on_complete(&mut self, t: TxnId, wfs: &WorkflowSet) {
        for (&w, &pos) in wfs.workflows_of(t).iter().zip(wfs.positions_of(t)) {
            let tree = self.tree(w.index());
            seg::set(&mut self.aggs[tree.clone()], pos, None);
            seg::set(&mut self.fronts[tree], pos, None);
        }
    }

    /// Apply one scheduling point's whole event batch at once, appending
    /// every touched workflow to `touched` (first-touch order; caller
    /// clears). Equivalent to replaying the per-event hooks in `events`
    /// order — the leaf state after the last event for a member depends only
    /// on the final table state, which is what the batch reads — but each
    /// tree picks between incremental path walks and raw leaf writes plus
    /// one O(len) rebuild, whichever the touch count makes cheaper.
    /// Allocation-free: the mode markers are index-owned scratch.
    pub fn apply_batch(
        &mut self,
        events: &[LifecycleEvent],
        wfs: &WorkflowSet,
        table: &TxnTable,
        touched: &mut Vec<WfId>,
    ) {
        let base = touched.len();
        // Pass 1: count leaf writes per workflow per tree (a blocked arrival
        // touches only the aggregate tree).
        for &ev in events {
            let t = ev.txn();
            let front = !matches!(ev, LifecycleEvent::BlockedArrival(_));
            for &w in wfs.workflows_of(t) {
                let wi = w.index();
                if self.batch_agg_mode[wi] == MODE_IDLE && self.batch_front_mode[wi] == MODE_IDLE {
                    touched.push(w);
                }
                self.batch_agg_mode[wi] += 1;
                if front {
                    self.batch_front_mode[wi] += 1;
                }
            }
        }
        // Resolve the counts into modes via the rebuild crossover.
        for &w in &touched[base..] {
            let wi = w.index();
            let len = wfs.members(w).len();
            for mode in [&mut self.batch_agg_mode[wi], &mut self.batch_front_mode[wi]] {
                if *mode != MODE_IDLE && bulk_profitable(*mode, len) {
                    *mode = MODE_BULK;
                }
            }
        }
        // Pass 2: write leaves in event order (later events win, matching
        // the hook replay).
        for &ev in events {
            let t = ev.txn();
            for (&w, &pos) in wfs.workflows_of(t).iter().zip(wfs.positions_of(t)) {
                let wi = w.index();
                let tree = self.tree(wi);
                let (agg, front) = match ev {
                    LifecycleEvent::Complete(_) => (None, Some(None)),
                    LifecycleEvent::Ready(_) | LifecycleEvent::Requeue(_) => (
                        Some(Agg::leaf(table, t)),
                        Some(Some(FrontNode::leaf(pos, table, t))),
                    ),
                    LifecycleEvent::BlockedArrival(_) => (Some(Agg::leaf(table, t)), None),
                };
                if self.batch_agg_mode[wi] == MODE_BULK {
                    seg::set_leaf(&mut self.aggs[tree.clone()], pos, agg);
                } else {
                    seg::set(&mut self.aggs[tree.clone()], pos, agg);
                }
                if let Some(front) = front {
                    if self.batch_front_mode[wi] == MODE_BULK {
                        seg::set_leaf(&mut self.fronts[tree], pos, front);
                    } else {
                        seg::set(&mut self.fronts[tree], pos, front);
                    }
                }
            }
        }
        // Rebuild the bulk-mode trees and reset the scratch.
        for &w in &touched[base..] {
            let wi = w.index();
            let tree = self.tree(wi);
            if self.batch_agg_mode[wi] == MODE_BULK {
                seg::rebuild(&mut self.aggs[tree.clone()]);
            }
            if self.batch_front_mode[wi] == MODE_BULK {
                seg::rebuild(&mut self.fronts[tree]);
            }
            self.batch_agg_mode[wi] = MODE_IDLE;
            self.batch_front_mode[wi] = MODE_IDLE;
        }
    }

    /// True iff `w` has a ready member (Definition 8 head exists) — an O(1)
    /// root check, replacing the `head(w, .., FirstById)` scan.
    #[inline]
    pub fn is_schedulable(&self, w: WfId) -> bool {
        seg::root(&self.fronts[self.tree(w.index())]).is_some()
    }

    /// The head of `w` under `rule` — an O(1) root read. Equals
    /// [`WorkflowSet::head`] at every hook/select point.
    ///
    /// # Panics
    /// If `rule` was not named at construction.
    pub fn head(&self, w: WfId, wfs: &WorkflowSet, rule: HeadRule) -> Option<TxnId> {
        self.assert_maintained(rule);
        let node = seg::root(&self.fronts[self.tree(w.index())])?;
        let pos = match rule {
            HeadRule::EarliestDeadline => node.dl_pos,
            HeadRule::HighestDensity => node.dens_pos,
            HeadRule::FirstById => node.first,
        };
        Some(wfs.members(w)[pos as usize])
    }

    /// The representative of `w` — one O(1) root read, no table access: the
    /// aggregate tree's root *is* (min deadline, min remaining, max weight)
    /// over the visible members. Equals [`WorkflowSet::representative`] at
    /// every hook/select point.
    pub fn representative(&self, w: WfId) -> Option<Representative> {
        let agg = seg::root(&self.aggs[self.tree(w.index())])?;
        Some(Representative {
            deadline: SimTime::from_ticks(agg.dl),
            remaining: SimDuration::from_ticks(agg.rem),
            weight: Weight(agg.w),
        })
    }
}

/// Exact density comparison `w_a/r_a > w_b/r_b` by cross-multiplication in
/// `u128` — no float rounding, and a zero remaining time (a transaction at
/// its completion instant) is treated as infinitely dense.
pub fn denser(table: &TxnTable, a: TxnId, b: TxnId) -> bool {
    let (wa, ra) = (
        table.weight(a).get() as u128,
        table.remaining(a).ticks() as u128,
    );
    let (wb, rb) = (
        table.weight(b).get() as u128,
        table.remaining(b).ticks() as u128,
    );
    match (ra == 0, rb == 0) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => wa > wb,
        (false, false) => wa * rb > wb * ra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnSpec;

    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }
    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
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

    /// The §II-B stock page: T0 (all prices) -> T1 (portfolio join) ->
    /// {T2 (portfolio value), T3 (alerts)}. Roots: T2 and T3; T3 (alerts)
    /// has the *earliest* deadline despite being most-dependent — the
    /// paper's deadline/precedence conflict.
    fn stock_table() -> TxnTable {
        TxnTable::new(vec![
            spec(0, 20, 4, 1, vec![]),
            spec(0, 18, 3, 2, vec![TxnId(0)]),
            spec(0, 25, 2, 3, vec![TxnId(1)]),
            spec(0, 9, 1, 5, vec![TxnId(1)]), // alerts: earliest deadline, max weight
        ])
        .unwrap()
    }

    #[test]
    fn one_workflow_per_root() {
        let tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        assert_eq!(wfs.len(), 2);
        assert_eq!(wfs.root(WfId(0)), TxnId(2));
        assert_eq!(wfs.root(WfId(1)), TxnId(3));
        assert_eq!(wfs.members(WfId(0)), &[TxnId(0), TxnId(1), TxnId(2)]);
        assert_eq!(wfs.members(WfId(1)), &[TxnId(0), TxnId(1), TxnId(3)]);
    }

    #[test]
    fn shared_members_map_to_both_workflows() {
        let tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        assert_eq!(wfs.workflows_of(TxnId(0)), &[WfId(0), WfId(1)]);
        assert_eq!(wfs.workflows_of(TxnId(1)), &[WfId(0), WfId(1)]);
        assert_eq!(wfs.workflows_of(TxnId(2)), &[WfId(0)]);
        assert_eq!(wfs.workflows_of(TxnId(3)), &[WfId(1)]);
    }

    #[test]
    fn representative_needs_visibility() {
        let mut tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        // Nothing arrived: no representative (D9).
        assert_eq!(wfs.representative(WfId(1), &tbl), None);
        // T0 arrives: representative = T0 alone.
        tbl.arrive(TxnId(0), at(0));
        let r = wfs.representative(WfId(1), &tbl).unwrap();
        assert_eq!(r.deadline, at(20));
        assert_eq!(r.remaining, units(4));
        assert_eq!(r.weight, Weight(1));
    }

    #[test]
    fn representative_takes_min_deadline_min_remaining_max_weight() {
        let mut tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        for t in 0..4 {
            tbl.arrive(TxnId(t), at(0));
        }
        // Workflow K1 = {T0(d20,r4,w1), T1(d18,r3,w2), T3(d9,r1,w5)}.
        let r = wfs.representative(WfId(1), &tbl).unwrap();
        assert_eq!(r.deadline, at(9), "alerts deadline dominates");
        assert_eq!(r.remaining, units(1));
        assert_eq!(r.weight, Weight(5));
    }

    #[test]
    fn representative_ignores_completed_members() {
        let mut tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        for t in 0..4 {
            tbl.arrive(TxnId(t), at(0));
        }
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(4), units(4));
        tbl.start_running(TxnId(1));
        tbl.complete(TxnId(1), at(7), units(3));
        // K1 remaining = {T3}: rep is T3 itself.
        let r = wfs.representative(WfId(1), &tbl).unwrap();
        assert_eq!(r.deadline, at(9));
        assert_eq!(r.remaining, units(1));
        assert_eq!(r.weight, Weight(5));
    }

    #[test]
    fn representative_slack_and_edf_membership() {
        let mut tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        for t in 0..4 {
            tbl.arrive(TxnId(t), at(0));
        }
        let r = wfs.representative(WfId(1), &tbl).unwrap();
        // d_rep=9, r_rep=1: feasible until t=8.
        assert!(r.can_meet_deadline(at(8)));
        assert!(!r.can_meet_deadline(at(9)));
        assert_eq!(r.slack(at(3)).as_units(), 5.0);
    }

    #[test]
    fn head_is_the_ready_frontier() {
        let mut tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        for t in 0..4 {
            tbl.arrive(TxnId(t), at(0));
        }
        // Only T0 (the leaf) is ready.
        assert_eq!(wfs.heads(WfId(1), &tbl), vec![TxnId(0)]);
        assert_eq!(
            wfs.head(WfId(1), &tbl, HeadRule::EarliestDeadline),
            Some(TxnId(0))
        );
        // Complete T0 and T1: now T2 and T3 are ready, and K0/K1 have
        // distinct heads.
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(4), units(4));
        tbl.start_running(TxnId(1));
        tbl.complete(TxnId(1), at(7), units(3));
        assert_eq!(
            wfs.head(WfId(0), &tbl, HeadRule::EarliestDeadline),
            Some(TxnId(2))
        );
        assert_eq!(
            wfs.head(WfId(1), &tbl, HeadRule::EarliestDeadline),
            Some(TxnId(3))
        );
    }

    #[test]
    fn head_rules_disagree_on_multi_ready_workflows() {
        // One root T2 depending on two ready leaves with opposite orderings:
        // T0: d=5,  r=4, w=1  (earlier deadline, low density 0.25)
        // T1: d=30, r=1, w=8  (later deadline, high density 8)
        let mut tbl = TxnTable::new(vec![
            spec(0, 5, 4, 1, vec![]),
            spec(0, 30, 1, 8, vec![]),
            spec(0, 40, 1, 1, vec![TxnId(0), TxnId(1)]),
        ])
        .unwrap();
        let wfs = WorkflowSet::build(&tbl);
        for t in 0..3 {
            tbl.arrive(TxnId(t), at(0));
        }
        let w = WfId(0);
        assert_eq!(
            wfs.head(w, &tbl, HeadRule::EarliestDeadline),
            Some(TxnId(0))
        );
        assert_eq!(wfs.head(w, &tbl, HeadRule::HighestDensity), Some(TxnId(1)));
        assert_eq!(wfs.head(w, &tbl, HeadRule::FirstById), Some(TxnId(0)));
    }

    #[test]
    fn no_head_when_nothing_ready() {
        let tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        assert_eq!(wfs.head(WfId(0), &tbl, HeadRule::default()), None);
        assert!(wfs.heads(WfId(0), &tbl).is_empty());
    }

    #[test]
    fn is_finished_tracks_completion() {
        let mut tbl = TxnTable::new(vec![spec(0, 10, 1, 1, vec![])]).unwrap();
        let wfs = WorkflowSet::build(&tbl);
        assert!(!wfs.is_finished(WfId(0), &tbl));
        tbl.arrive(TxnId(0), at(0));
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(1), units(1));
        assert!(wfs.is_finished(WfId(0), &tbl));
    }

    #[test]
    fn denser_cross_multiplication() {
        let mut tbl = TxnTable::new(vec![
            spec(0, 100, 3, 6, vec![]), // density 2
            spec(0, 100, 2, 5, vec![]), // density 2.5
            spec(0, 100, 4, 8, vec![]), // density 2
        ])
        .unwrap();
        for t in 0..3 {
            tbl.arrive(TxnId(t), at(0));
        }
        assert!(denser(&tbl, TxnId(1), TxnId(0)));
        assert!(!denser(&tbl, TxnId(0), TxnId(1)));
        assert!(
            !denser(&tbl, TxnId(0), TxnId(2)),
            "equal density is not strictly denser"
        );
    }

    #[test]
    fn independent_batch_yields_singleton_workflows() {
        let tbl =
            TxnTable::new(vec![spec(0, 10, 1, 1, vec![]), spec(0, 10, 1, 1, vec![])]).unwrap();
        let wfs = WorkflowSet::build(&tbl);
        assert_eq!(wfs.len(), 2);
        for w in wfs.ids() {
            assert_eq!(wfs.members(w).len(), 1);
        }
    }

    #[test]
    fn index_agrees_on_stock_page_lifecycle() {
        // Scripted walk through the §II-B example, checking the index
        // against the naive scans at every step (the property test below
        // does the same over random DAGs and schedules).
        let mut tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        let mut idx = WorkflowIndex::with_all_rules(&wfs);
        let check = |idx: &WorkflowIndex, tbl: &TxnTable| {
            for w in wfs.ids() {
                assert_eq!(
                    idx.is_schedulable(w),
                    wfs.head(w, tbl, HeadRule::FirstById).is_some()
                );
                for rule in [
                    HeadRule::EarliestDeadline,
                    HeadRule::HighestDensity,
                    HeadRule::FirstById,
                ] {
                    assert_eq!(idx.head(w, &wfs, rule), wfs.head(w, tbl, rule));
                }
                assert_eq!(idx.representative(w), wfs.representative(w, tbl));
            }
        };
        check(&idx, &tbl);
        for t in 0..4 {
            let t = TxnId(t);
            if tbl.arrive(t, at(0)) {
                idx.on_ready(t, &wfs, &tbl);
            } else {
                idx.on_visible(t, &wfs, &tbl);
            }
            check(&idx, &tbl);
        }
        // Run T0 in two slices, then complete it (releases T1).
        tbl.start_running(TxnId(0));
        tbl.pause(TxnId(0), units(3));
        idx.on_requeue(TxnId(0), &wfs, &tbl);
        check(&idx, &tbl);
        tbl.start_running(TxnId(0));
        let released = tbl.complete(TxnId(0), at(4), units(1));
        idx.on_complete(TxnId(0), &wfs);
        for r in released {
            idx.on_ready(r, &wfs, &tbl);
        }
        check(&idx, &tbl);
        // Finish T1: releases both roots T2 and T3.
        tbl.start_running(TxnId(1));
        let released = tbl.complete(TxnId(1), at(7), units(3));
        idx.on_complete(TxnId(1), &wfs);
        for r in released {
            idx.on_ready(r, &wfs, &tbl);
        }
        check(&idx, &tbl);
        assert_eq!(idx.head(WfId(0), &wfs, HeadRule::FirstById), Some(TxnId(2)));
        assert_eq!(idx.head(WfId(1), &wfs, HeadRule::FirstById), Some(TxnId(3)));
    }

    #[test]
    #[should_panic(expected = "not maintained")]
    fn head_with_unmaintained_rule_panics() {
        let tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        let idx = WorkflowIndex::new(&wfs, &[HeadRule::EarliestDeadline]);
        let _ = idx.head(WfId(0), &wfs, HeadRule::HighestDensity);
    }

    #[test]
    fn duplicate_rules_collapse() {
        let tbl = stock_table();
        let wfs = WorkflowSet::build(&tbl);
        let idx = WorkflowIndex::new(
            &wfs,
            &[HeadRule::EarliestDeadline, HeadRule::EarliestDeadline],
        );
        // Both name the same frontier; peeking through either works.
        assert!(!idx.is_schedulable(WfId(0)));
        assert_eq!(idx.head(WfId(0), &wfs, HeadRule::EarliestDeadline), None);
    }
}

/// Model-based property test: drive a random-but-legal transaction
/// lifecycle (the engine protocol — arrivals in any order, run slices that
/// pause or complete, dependents released on completion) over random DAGs
/// with shared members, mirroring every event into a [`WorkflowIndex`], and
/// assert after *every* mutation that the index agrees with the naive
/// [`WorkflowSet::representative`] / [`WorkflowSet::head`] rescans for
/// every workflow and every head rule.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::txn::TxnSpec;
    use proptest::prelude::*;

    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }
    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }

    /// Random acyclic weighted batch: every arrival at t=0 so the script
    /// below may arrive them in any order; deps point at earlier ids only.
    /// Multiple dependents of one transaction create shared members (and
    /// thus multi-workflow updates through the index).
    fn batch_strategy(max_n: usize) -> impl Strategy<Value = Vec<TxnSpec>> {
        prop::collection::vec(
            (
                1u64..12, // length
                0u64..50, // slack beyond length
                1u32..10, // weight
                prop::collection::vec(any::<prop::sample::Index>(), 0..3),
            ),
            1..max_n,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (len, slack, w, deps))| {
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
                        arrival: at(0),
                        deadline: at(len + slack),
                        length: units(len),
                        weight: Weight(w),
                        deps: dep_ids,
                    }
                })
                .collect::<Vec<_>>()
        })
    }

    fn check_agreement(idx: &WorkflowIndex, wfs: &WorkflowSet, tbl: &TxnTable) {
        for w in wfs.ids() {
            assert_eq!(
                idx.is_schedulable(w),
                wfs.head(w, tbl, HeadRule::FirstById).is_some(),
                "schedulability of {w} diverged"
            );
            for rule in [
                HeadRule::EarliestDeadline,
                HeadRule::HighestDensity,
                HeadRule::FirstById,
            ] {
                assert_eq!(
                    idx.head(w, wfs, rule),
                    wfs.head(w, tbl, rule),
                    "head of {w} under {rule:?} diverged"
                );
            }
            assert_eq!(
                idx.representative(w),
                wfs.representative(w, tbl),
                "representative of {w} diverged"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The stamped build collects exactly each root's
        /// [`DepDag::workflow_members`] (sorted by id), every
        /// transaction's workflow list ascends, and every stored position
        /// maps back to its transaction.
        ///
        /// [`DepDag::workflow_members`]: crate::dag::DepDag::workflow_members
        #[test]
        fn build_matches_per_root_workflow_members(specs in batch_strategy(40)) {
            let tbl = TxnTable::new(specs).expect("acyclic by construction");
            let wfs = WorkflowSet::build(&tbl);
            let dag = tbl.dag();
            prop_assert_eq!(wfs.len(), dag.roots().len());
            let mut of_txn: Vec<Vec<WfId>> = vec![Vec::new(); tbl.len()];
            for w in wfs.ids() {
                prop_assert_eq!(wfs.root(w), dag.roots()[w.index()]);
                prop_assert_eq!(wfs.members(w), &dag.workflow_members(wfs.root(w))[..]);
                for &t in wfs.members(w) {
                    of_txn[t.index()].push(w);
                }
            }
            for t in tbl.ids() {
                prop_assert_eq!(wfs.workflows_of(t), &of_txn[t.index()][..]);
                prop_assert_eq!(wfs.positions_of(t).len(), wfs.workflows_of(t).len());
                for (&w, &pos) in wfs.workflows_of(t).iter().zip(wfs.positions_of(t)) {
                    prop_assert_eq!(wfs.members(w)[pos as usize], t);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// `apply_batch` over random epoch widths agrees with the naive
        /// rescans (and hence with the per-event hooks, which the test
        /// above pins) at every epoch boundary — covering both the
        /// incremental and the bulk-rebuild sides of the crossover.
        #[test]
        fn apply_batch_matches_per_event_hooks(
            specs in batch_strategy(14),
            script in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..4), 0..80),
            widths in prop::collection::vec(1usize..12, 1..40),
        ) {
            let mut tbl = TxnTable::new(specs).expect("acyclic by construction");
            let wfs = WorkflowSet::build(&tbl);
            let mut idx = WorkflowIndex::with_all_rules(&wfs);
            let mut pending: Vec<TxnId> = tbl.ids().collect();
            let mut now = 0u64;
            let mut events: Vec<LifecycleEvent> = Vec::new();
            let mut touched: Vec<WfId> = Vec::new();
            let mut widths = widths.into_iter().cycle();
            let mut width = widths.next().unwrap();
            for (pick, amount, action) in script {
                now += 1;
                let ready = tbl.ready_ids();
                let arrive = !pending.is_empty() && (action == 0 || ready.is_empty());
                if arrive {
                    let t = pending.swap_remove(pick.index(pending.len()));
                    if tbl.arrive(t, at(now)) {
                        events.push(LifecycleEvent::Ready(t));
                    } else {
                        events.push(LifecycleEvent::BlockedArrival(t));
                    }
                } else if let Some(&r) = ready.get(pick.index(ready.len().max(1))) {
                    let rem = tbl.remaining(r);
                    tbl.start_running(r);
                    if action == 1 && rem.ticks() > 1 {
                        let served = amount.index(rem.ticks() as usize) as u64;
                        tbl.pause(r, SimDuration::from_ticks(served));
                        events.push(LifecycleEvent::Requeue(r));
                    } else {
                        let released = tbl.complete(r, at(now), rem);
                        events.push(LifecycleEvent::Complete(r));
                        for d in released {
                            events.push(LifecycleEvent::Ready(d));
                        }
                    }
                } else {
                    continue;
                }
                if events.len() >= width {
                    touched.clear();
                    idx.apply_batch(&events, &wfs, &tbl, &mut touched);
                    // Every workflow of every event member was reported.
                    for ev in &events {
                        for w in wfs.workflows_of(ev.txn()) {
                            prop_assert!(touched.contains(w));
                        }
                    }
                    events.clear();
                    check_agreement(&idx, &wfs, &tbl);
                    width = widths.next().unwrap();
                }
            }
            touched.clear();
            idx.apply_batch(&events, &wfs, &tbl, &mut touched);
            check_agreement(&idx, &wfs, &tbl);
        }

        #[test]
        fn index_matches_naive_rescans(
            specs in batch_strategy(14),
            script in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..4), 0..80),
        ) {
            let tbl = TxnTable::new(specs).expect("acyclic by construction");
            let mut tbl = tbl;
            let wfs = WorkflowSet::build(&tbl);
            let mut idx = WorkflowIndex::with_all_rules(&wfs);
            let mut pending: Vec<TxnId> = tbl.ids().collect();
            let mut now = 0u64;
            check_agreement(&idx, &wfs, &tbl);
            for (pick, amount, action) in script {
                now += 1;
                let ready = tbl.ready_ids();
                // Interleave arrivals and run slices; fall back to the
                // other move when the chosen one is unavailable.
                let arrive = !pending.is_empty() && (action == 0 || ready.is_empty());
                if arrive {
                    let t = pending.swap_remove(pick.index(pending.len()));
                    if tbl.arrive(t, at(now)) {
                        idx.on_ready(t, &wfs, &tbl);
                    } else {
                        idx.on_visible(t, &wfs, &tbl);
                    }
                } else if let Some(&r) = ready.get(pick.index(ready.len().max(1))) {
                    let rem = tbl.remaining(r);
                    tbl.start_running(r);
                    if action == 1 && rem.ticks() > 1 {
                        // Pause after a partial slice (possibly zero —
                        // the rekey fast path).
                        let served = amount.index(rem.ticks() as usize) as u64;
                        tbl.pause(r, SimDuration::from_ticks(served));
                        idx.on_requeue(r, &wfs, &tbl);
                    } else {
                        let released = tbl.complete(r, at(now), rem);
                        idx.on_complete(r, &wfs);
                        for d in released {
                            idx.on_ready(d, &wfs, &tbl);
                        }
                    }
                } else {
                    continue;
                }
                check_agreement(&idx, &wfs, &tbl);
            }
        }
    }
}
