//! Decision-provenance hooks: the `Observer` trait and its event records.
//!
//! ASETS\* is a *comparison-driven* policy — every scheduling point resolves
//! the Eq. 1 / Fig. 7 inequality between the tops of two lists — so the
//! interesting question about a run is rarely "what ran" (the trace answers
//! that) but "*why* did it run": who the candidates were, what their
//! `r`/`s`/`w` values said, which side of the inequality won and by what
//! margin, and when a workflow migrated from the EDF-List to the HDF-List.
//!
//! This module defines the hook layer those answers flow through:
//!
//! * [`Observer`] — a trait with empty default methods. Policies and the
//!   engine call it at decision points, passing records **by reference**;
//!   emission never allocates, and a policy without an attached observer
//!   pays only an `Option` test (the no-op path — see the
//!   `observer_overhead` bench).
//! * [`DecisionRecord`] / [`Candidate`] — one scheduling decision with full
//!   provenance: both list tops, the impact values, winner and margin.
//! * [`MigrationEvent`] — a workflow (or transaction) crossing from the
//!   feasible EDF-List to the infeasible HDF/SRPT-List.
//!
//! The concrete observers — flight recorder, metrics registry, exporters —
//! live in the `asets-obs` crate; this module stays dependency-free so the
//! policies themselves can emit. Observers are shared between the engine and
//! the policy via [`SharedObserver`] (`Rc<RefCell<…>>`: simulation runs are
//! single-threaded; sweeps parallelize across engines, not within one).

use crate::policy::LifecycleEvent;
use crate::time::{SimDuration, SimTime, Slack};
use crate::txn::TxnId;
use crate::workflow::WfId;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One side of a two-list comparison at a scheduling point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The transaction that would run if this side wins (the *head* for
    /// workflow-level policies, the list top itself at transaction level).
    pub txn: TxnId,
    /// The workflow the candidate represents (`None` at transaction level).
    pub workflow: Option<WfId>,
    /// Remaining processing time entering the inequality (`r_head` at
    /// workflow level, `r_i` at transaction level).
    pub r: SimDuration,
    /// Slack of the representative (or the transaction itself) at the
    /// decision instant — negative once the deadline is unreachable.
    pub slack: Slack,
    /// Weight entering the inequality (`w_rep` / `w_i`).
    pub weight: u32,
    /// Deadline of the representative (or the transaction itself).
    pub deadline: SimTime,
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(w) = self.workflow {
            write!(f, "{}[head {}]", w, self.txn)?;
        } else {
            write!(f, "{}", self.txn)?;
        }
        write!(
            f,
            "(r={:.3} s={:.3} w={} d={:.3})",
            self.r.as_units(),
            self.slack.as_units(),
            self.weight,
            self.deadline.as_units()
        )
    }
}

/// Which comparison produced a [`DecisionRecord`] — needed to *re-derive*
/// the winner from the recorded `r`/`s`/`w` values (what `asets-obs check`
/// does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionRule {
    /// Transaction-level Eq. 1: run EDF top iff `r_EDF < r_SRPT − s_EDF`.
    Eq1,
    /// Workflow-level Fig. 7 (paper rule):
    /// `r_head(A)·w_rep(B) < (r_head(B) − s_rep(A))·w_rep(A)`.
    Fig7Paper,
    /// Workflow-level symmetric rule (Example 4, DESIGN.md D1):
    /// `(r_head(A) − s_rep(B))·w_rep(B) < (r_head(B) − s_rep(A))·w_rep(A)`.
    Fig7Symmetric,
    /// No comparison happened: a single-priority policy (EDF, SRPT, …)
    /// peeked its queue top, or only one list was non-empty.
    Priority,
}

impl DecisionRule {
    /// Stable token used in dumps (and parsed back by `asets-obs`).
    pub fn token(self) -> &'static str {
        match self {
            DecisionRule::Eq1 => "eq1",
            DecisionRule::Fig7Paper => "fig7-paper",
            DecisionRule::Fig7Symmetric => "fig7-symmetric",
            DecisionRule::Priority => "priority",
        }
    }

    /// Inverse of [`DecisionRule::token`].
    pub fn parse(s: &str) -> Option<DecisionRule> {
        Some(match s {
            "eq1" => DecisionRule::Eq1,
            "fig7-paper" => DecisionRule::Fig7Paper,
            "fig7-symmetric" => DecisionRule::Fig7Symmetric,
            "priority" => DecisionRule::Priority,
            _ => return None,
        })
    }
}

/// Which side won a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// The EDF-side candidate won the comparison.
    Edf,
    /// The HDF/SRPT-side candidate won the comparison.
    Hdf,
    /// Only the EDF list was populated — no comparison.
    OnlyEdf,
    /// Only the HDF/SRPT list was populated — no comparison.
    OnlyHdf,
    /// Single-priority policy: the queue top ran.
    Single,
}

impl Winner {
    /// Stable token used in dumps.
    pub fn token(self) -> &'static str {
        match self {
            Winner::Edf => "edf",
            Winner::Hdf => "hdf",
            Winner::OnlyEdf => "only-edf",
            Winner::OnlyHdf => "only-hdf",
            Winner::Single => "single",
        }
    }

    /// Inverse of [`Winner::token`].
    pub fn parse(s: &str) -> Option<Winner> {
        Some(match s {
            "edf" => Winner::Edf,
            "hdf" => Winner::Hdf,
            "only-edf" => Winner::OnlyEdf,
            "only-hdf" => Winner::OnlyHdf,
            "single" => Winner::Single,
            _ => return None,
        })
    }
}

/// Full provenance of one scheduling decision.
///
/// For two-sided decisions ([`Winner::Edf`] / [`Winner::Hdf`]) the impact
/// fields hold both sides of the inequality, in the units of the rule
/// (ticks at transaction level, tick·weight at workflow level); the
/// *margin* [`DecisionRecord::margin`] is `impact_hdf − impact_edf`
/// (positive ⟺ the EDF side won, since the rule is `impact_edf <
/// impact_hdf` with ties to the HDF side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Decision instant.
    pub at: SimTime,
    /// The comparison that was evaluated.
    pub rule: DecisionRule,
    /// EDF-side candidate (the list top), if that list was non-empty.
    pub edf: Option<Candidate>,
    /// HDF/SRPT-side candidate, if that list was non-empty.
    pub hdf: Option<Candidate>,
    /// Negative impact of running the EDF side first (0 when one-sided).
    pub impact_edf: i128,
    /// Negative impact of running the HDF side first (0 when one-sided).
    pub impact_hdf: i128,
    /// Who won.
    pub winner: Winner,
    /// The transaction handed to the server.
    pub chosen: TxnId,
    /// EDF-List length at the decision (listed workflows / transactions).
    pub edf_len: u32,
    /// HDF/SRPT-List length at the decision.
    pub hdf_len: u32,
}

impl DecisionRecord {
    /// `impact_hdf − impact_edf`: by how much the winning side won.
    /// Positive ⟺ the EDF side won; zero margin goes to the HDF side
    /// (Fig. 7 line 17 uses strict `<`). Meaningful only for two-sided
    /// decisions.
    pub fn margin(&self) -> i128 {
        self.impact_hdf - self.impact_edf
    }

    /// True iff both lists were populated, i.e. an inequality was actually
    /// evaluated.
    pub fn is_comparison(&self) -> bool {
        matches!(self.winner, Winner::Edf | Winner::Hdf)
    }
}

impl fmt::Display for DecisionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10.3}] ", self.at.as_units())?;
        match (self.winner, &self.edf, &self.hdf) {
            (Winner::Edf | Winner::Hdf, Some(a), Some(b)) => {
                let (mark_a, mark_b) = if self.winner == Winner::Edf {
                    ("*", " ")
                } else {
                    (" ", "*")
                };
                write!(
                    f,
                    "{} ran: {mark_a}EDF {a} impact {} vs {mark_b}HDF {b} impact {} (margin {})",
                    self.chosen,
                    self.impact_edf,
                    self.impact_hdf,
                    self.margin()
                )
            }
            (Winner::OnlyEdf, Some(a), _) => {
                write!(f, "{} ran: EDF {a} unopposed", self.chosen)
            }
            (Winner::OnlyHdf, _, Some(b)) => {
                write!(f, "{} ran: HDF {b} unopposed", self.chosen)
            }
            _ => match &self.edf {
                Some(c) => write!(f, "{} ran: queue top {c}", self.chosen),
                None => write!(f, "{} ran", self.chosen),
            },
        }
    }
}

/// What migrated between lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationSubject {
    /// A whole workflow (its representative became infeasible).
    Workflow(WfId),
    /// A single transaction (transaction-level policies).
    Txn(TxnId),
}

/// A feasible→infeasible crossing: the subject left the EDF-List for the
/// HDF/SRPT-List because its (representative's) latest feasible start
/// passed. The reverse direction — back to the EDF-List after an urgent
/// member completes — is also reported, with `to_hdf = false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationEvent {
    /// When the crossing was detected (a scheduling point).
    pub at: SimTime,
    /// What moved.
    pub subject: MigrationSubject,
    /// Direction: `true` for EDF→HDF (missed), `false` for HDF→EDF
    /// (recovered feasibility).
    pub to_hdf: bool,
}

impl fmt::Display for MigrationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.to_hdf {
            "EDF -> HDF (deadline unreachable)"
        } else {
            "HDF -> EDF (feasible again)"
        };
        match self.subject {
            MigrationSubject::Workflow(w) => {
                write!(f, "[{:>10.3}] {w} migrated {dir}", self.at.as_units())
            }
            MigrationSubject::Txn(t) => {
                write!(f, "[{:>10.3}] {t} migrated {dir}", self.at.as_units())
            }
        }
    }
}

/// Everything known about a transaction at the instant it completed —
/// handed to [`Observer::completed`] so lifecycle observers (span
/// collectors, SLO monitors) never need table access of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionInfo {
    /// The completion instant (`finish` in the paper's Definition 3).
    pub finish: SimTime,
    /// The transaction's deadline.
    pub deadline: SimTime,
    /// `max(finish − deadline, 0)` — Definition 3 tardiness.
    pub tardiness: SimDuration,
    /// Time between becoming ready and finishing that was *not* service:
    /// `(finish − ready_at) − length`, saturating at zero.
    pub queue_wait: SimDuration,
    /// Total service received (the spec's processing time).
    pub service: SimDuration,
    /// `finish <= deadline`.
    pub met_deadline: bool,
}

/// Aggregate shape of one epoch (one coalesced scheduling point) — handed
/// to [`Observer::on_epoch`] together with the coalesced lifecycle events,
/// so a batch-native observer can account whole epochs without replaying
/// per-event hooks. Counters are cumulative over the run so far, matching
/// the engine's `EpochStats` telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// The epoch's instant (the scheduling point being processed).
    pub at: SimTime,
    /// Lifecycle events coalesced into this epoch.
    pub width: u32,
    /// Epochs processed so far, including this one.
    pub epochs: u64,
    /// Lifecycle events processed so far, including this epoch's.
    pub events: u64,
    /// Widest epoch seen so far.
    pub max_width: u32,
}

/// One phase of the engine's per-scheduling-point work, for the
/// self-profiling spans ([`Observer::engine_phase`]). Wall-clock is only
/// measured when an observer is attached, so the disabled path stays free
/// of clock reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Settling servers and delivering arrivals — the policy's index
    /// maintenance (`on_complete`/`on_ready`/`on_requeue`) happens here.
    Maintain,
    /// `select_many`: evaluating the Eq. 1 / Fig. 7 comparison.
    Select,
    /// Placing choices on servers (affinity resume, displacement, work
    /// conservation).
    Dispatch,
}

impl EnginePhase {
    /// All phases, in per-point execution order.
    pub const ALL: [EnginePhase; 3] = [
        EnginePhase::Maintain,
        EnginePhase::Select,
        EnginePhase::Dispatch,
    ];

    /// Stable token used in span dumps.
    pub fn token(self) -> &'static str {
        match self {
            EnginePhase::Maintain => "maintain",
            EnginePhase::Select => "select",
            EnginePhase::Dispatch => "dispatch",
        }
    }

    /// Inverse of [`EnginePhase::token`].
    pub fn parse(s: &str) -> Option<EnginePhase> {
        Some(match s {
            "maintain" => EnginePhase::Maintain,
            "select" => EnginePhase::Select,
            "dispatch" => EnginePhase::Dispatch,
            _ => return None,
        })
    }
}

/// The observation sink. Every method has an empty default body, so an
/// observer implements only what it cares about, and the *no-op* observer
/// is literally free once inlined.
///
/// Hot-path contract: records are passed by reference and must not be
/// retained without copying; implementations should not allocate per call
/// beyond amortized buffer growth (the flight recorder uses a fixed ring).
pub trait Observer {
    /// A scheduling decision was made (one per `select` that returned a
    /// transaction, for instrumented policies).
    fn decision(&mut self, _rec: &DecisionRecord) {}

    /// A workflow or transaction crossed between the EDF and HDF lists.
    fn migration(&mut self, _ev: &MigrationEvent) {}

    /// The engine processed a scheduling point; `latency_ns` is the
    /// wall-clock time the policy's `select` took (measured only when an
    /// observer is attached).
    fn sched_point(&mut self, _at: SimTime, _latency_ns: u64) {}

    /// The engine handed the server to `txn` (a switch, not a resume of the
    /// same transaction); `preempted` names the transaction that lost the
    /// server mid-work, if any.
    fn dispatched(&mut self, _at: SimTime, _txn: TxnId, _preempted: Option<TxnId>) {}

    /// `txn` arrived; `ready` is false when it is blocked on predecessors.
    fn arrived(&mut self, _at: SimTime, _txn: TxnId, _ready: bool) {}

    /// A previously blocked `txn` had its last dependency complete.
    fn became_ready(&mut self, _at: SimTime, _txn: TxnId) {}

    /// Server `server` ran `txn` over the closed interval `[from, until)`;
    /// `completed` is true when the transaction finished at `until`.
    /// Emitted retroactively at the settle step of the scheduling point
    /// that ends the interval, so intervals are always closed.
    fn served(
        &mut self,
        _server: u32,
        _txn: TxnId,
        _from: SimTime,
        _until: SimTime,
        _completed: bool,
    ) {
    }

    /// `txn` completed; `info` carries deadline/tardiness/queue-wait so the
    /// observer needs no table access.
    fn completed(&mut self, _at: SimTime, _txn: TxnId, _info: &CompletionInfo) {}

    /// One engine phase of the current scheduling point took `wall_ns`
    /// nanoseconds (only reported while an observer is attached).
    fn engine_phase(&mut self, _at: SimTime, _phase: EnginePhase, _wall_ns: u64) {}

    /// One whole epoch settled: `events` is the coalesced lifecycle slice
    /// in engine order (the exact events the lifecycle hooks above narrate
    /// one at a time), `summary` its aggregate shape. Fired once per
    /// scheduling point, right after the policy's maintain pass.
    fn on_epoch(&mut self, _events: &[LifecycleEvent], _summary: &EpochSummary) {}

    /// Whether this observer wants wall-clock latency in
    /// [`Observer::sched_point`] / [`Observer::engine_phase`]. The engine
    /// reads this once at attach; returning `false` removes every
    /// `Instant::now()` from the scheduling-point path — `sched_point`
    /// still fires with latency 0 (counters hang off it) but phase spans
    /// are skipped entirely. This opt-out is what keeps a sampling
    /// observer within a few percent of the unobserved engine.
    fn wants_timing(&self) -> bool {
        true
    }
}

/// An observer that ignores everything — the disabled path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Fan-out: forward every hook to each wrapped observer in attach order.
///
/// The engine and policy take exactly one [`SharedObserver`]; `Tee` lets a
/// run feed several sinks at once (an SLO monitor *and* a telemetry-bus
/// ring, say) without the sinks knowing about each other. Timing is
/// requested iff any branch wants it, so an all-sampling tee still keeps
/// the zero-clock-read fast path.
#[derive(Default)]
pub struct Tee {
    branches: Vec<SharedObserver>,
}

impl Tee {
    /// An empty tee (forwards to nobody — equivalent to [`NoopObserver`]).
    pub fn new() -> Tee {
        Tee::default()
    }

    /// Add a branch; hooks reach branches in the order they were added.
    pub fn with(mut self, obs: SharedObserver) -> Tee {
        self.branches.push(obs);
        self
    }

    /// Number of branches attached.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// True when no branches are attached.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }
}

impl fmt::Debug for Tee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tee({} branches)", self.branches.len())
    }
}

macro_rules! tee_forward {
    ($self:ident, $method:ident $(, $arg:expr)*) => {
        for b in &$self.branches {
            b.borrow_mut().$method($($arg),*);
        }
    };
}

impl Observer for Tee {
    fn decision(&mut self, rec: &DecisionRecord) {
        tee_forward!(self, decision, rec);
    }

    fn migration(&mut self, ev: &MigrationEvent) {
        tee_forward!(self, migration, ev);
    }

    fn sched_point(&mut self, at: SimTime, latency_ns: u64) {
        tee_forward!(self, sched_point, at, latency_ns);
    }

    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        tee_forward!(self, dispatched, at, txn, preempted);
    }

    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        tee_forward!(self, arrived, at, txn, ready);
    }

    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        tee_forward!(self, became_ready, at, txn);
    }

    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        tee_forward!(self, served, server, txn, from, until, completed);
    }

    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        tee_forward!(self, completed, at, txn, info);
    }

    fn engine_phase(&mut self, at: SimTime, phase: EnginePhase, wall_ns: u64) {
        tee_forward!(self, engine_phase, at, phase, wall_ns);
    }

    fn on_epoch(&mut self, events: &[LifecycleEvent], summary: &EpochSummary) {
        tee_forward!(self, on_epoch, events, summary);
    }

    fn wants_timing(&self) -> bool {
        self.branches.iter().any(|b| b.borrow().wants_timing())
    }
}

/// Shared handle through which the engine and the policy report into the
/// same observer. Simulations are single-threaded; `Rc<RefCell<…>>` keeps
/// the hot path at one pointer chase + borrow flag check.
pub type SharedObserver = Rc<RefCell<dyn Observer>>;

/// The observer slot a policy (or the engine) embeds: `None` until an
/// observer is attached, so the disabled hot path is a single branch.
///
/// Emission pattern — construct records only when attached:
///
/// ```ignore
/// if self.obs.is_attached() {
///     let rec = DecisionRecord { /* … */ };
///     self.obs.emit(|o| o.decision(&rec));
/// }
/// ```
#[derive(Clone, Default)]
pub struct ObserverSlot(Option<SharedObserver>);

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(attached)"
        } else {
            "ObserverSlot(empty)"
        })
    }
}

impl ObserverSlot {
    /// A detached slot (what policies start with).
    pub const fn empty() -> ObserverSlot {
        ObserverSlot(None)
    }

    /// Attach (or replace) the observer.
    pub fn attach(&mut self, obs: SharedObserver) {
        self.0 = Some(obs);
    }

    /// Whether emission is enabled. Check this *before* assembling a record
    /// so the disabled path does no work.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` against the observer, if attached.
    #[inline]
    pub fn emit(&self, f: impl FnOnce(&mut dyn Observer)) {
        if let Some(o) = &self.0 {
            f(&mut *o.borrow_mut());
        }
    }
}

/// Wrap a concrete observer for attachment. Keep your own
/// `Rc<RefCell<O>>` clone to inspect the observer after the run:
///
/// ```
/// use asets_core::obs::{share, NoopObserver, SharedObserver};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mine = Rc::new(RefCell::new(NoopObserver));
/// let handle: SharedObserver = share(&mine);
/// drop(handle);
/// assert_eq!(Rc::strong_count(&mine), 1);
/// ```
pub fn share<O: Observer + 'static>(obs: &Rc<RefCell<O>>) -> SharedObserver {
    Rc::clone(obs) as SharedObserver
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn cand(txn: u32, r: u64, slack: i128, w: u32, d: u64) -> Candidate {
        Candidate {
            txn: TxnId(txn),
            workflow: None,
            r: SimDuration::from_units_int(r),
            slack: Slack::from_ticks(slack),
            weight: w,
            deadline: SimTime::from_units_int(d),
        }
    }

    #[test]
    fn margin_sign_tracks_winner() {
        let rec = DecisionRecord {
            at: SimTime::from_units_int(8),
            rule: DecisionRule::Fig7Paper,
            edf: Some(cand(0, 2, 0, 1, 10)),
            hdf: Some(cand(2, 3, -2, 1, 9)),
            impact_edf: 2,
            impact_hdf: 3,
            winner: Winner::Edf,
            chosen: TxnId(0),
            edf_len: 1,
            hdf_len: 1,
        };
        assert_eq!(rec.margin(), 1);
        assert!(rec.is_comparison());
        let s = rec.to_string();
        assert!(s.contains("T0 ran"), "{s}");
        assert!(s.contains("margin 1"), "{s}");
    }

    #[test]
    fn tokens_round_trip() {
        for r in [
            DecisionRule::Eq1,
            DecisionRule::Fig7Paper,
            DecisionRule::Fig7Symmetric,
            DecisionRule::Priority,
        ] {
            assert_eq!(DecisionRule::parse(r.token()), Some(r));
        }
        for w in [
            Winner::Edf,
            Winner::Hdf,
            Winner::OnlyEdf,
            Winner::OnlyHdf,
            Winner::Single,
        ] {
            assert_eq!(Winner::parse(w.token()), Some(w));
        }
        assert_eq!(DecisionRule::parse("nope"), None);
        assert_eq!(Winner::parse("nope"), None);
        for p in EnginePhase::ALL {
            assert_eq!(EnginePhase::parse(p.token()), Some(p));
        }
        assert_eq!(EnginePhase::parse("nope"), None);
    }

    #[test]
    fn migration_display_names_subject_and_direction() {
        let ev = MigrationEvent {
            at: SimTime::from_units_int(7),
            subject: MigrationSubject::Workflow(WfId(3)),
            to_hdf: true,
        };
        let s = ev.to_string();
        assert!(
            s.contains("K3") || s.contains("W3") || s.contains('3'),
            "{s}"
        );
        assert!(s.contains("EDF -> HDF"), "{s}");
    }

    #[test]
    fn tee_forwards_to_every_branch_and_ors_timing() {
        #[derive(Default)]
        struct Count {
            decisions: u32,
            completions: u32,
            timing: bool,
        }
        impl Observer for Count {
            fn decision(&mut self, _rec: &DecisionRecord) {
                self.decisions += 1;
            }
            fn completed(&mut self, _at: SimTime, _txn: TxnId, _info: &CompletionInfo) {
                self.completions += 1;
            }
            fn wants_timing(&self) -> bool {
                self.timing
            }
        }
        let a = Rc::new(RefCell::new(Count::default()));
        let b = Rc::new(RefCell::new(Count {
            timing: true,
            ..Count::default()
        }));
        let mut tee = Tee::new().with(share(&a)).with(share(&b));
        assert_eq!(tee.len(), 2);
        assert!(!tee.is_empty());
        assert!(tee.wants_timing(), "any branch wanting timing wins");
        let rec = DecisionRecord {
            at: SimTime::ZERO,
            rule: DecisionRule::Priority,
            edf: None,
            hdf: None,
            impact_edf: 0,
            impact_hdf: 0,
            winner: Winner::Single,
            chosen: TxnId(0),
            edf_len: 1,
            hdf_len: 0,
        };
        tee.decision(&rec);
        tee.decision(&rec);
        tee.completed(
            SimTime::ZERO,
            TxnId(0),
            &CompletionInfo {
                finish: SimTime::ZERO,
                deadline: SimTime::ZERO,
                tardiness: SimDuration::ZERO,
                queue_wait: SimDuration::ZERO,
                service: SimDuration::ZERO,
                met_deadline: true,
            },
        );
        assert_eq!(a.borrow().decisions, 2);
        assert_eq!(b.borrow().decisions, 2);
        assert_eq!(a.borrow().completions, 1);
        assert!(!Tee::new().wants_timing(), "empty tee needs no clocks");
    }

    #[test]
    fn noop_observer_accepts_everything() {
        let mut o = NoopObserver;
        o.sched_point(SimTime::ZERO, 10);
        o.dispatched(SimTime::ZERO, TxnId(0), None);
        o.arrived(SimTime::ZERO, TxnId(0), true);
        o.became_ready(SimTime::ZERO, TxnId(1));
        o.served(0, TxnId(0), SimTime::ZERO, SimTime::from_units_int(2), true);
        o.completed(
            SimTime::from_units_int(2),
            TxnId(0),
            &CompletionInfo {
                finish: SimTime::from_units_int(2),
                deadline: SimTime::from_units_int(3),
                tardiness: SimDuration::ZERO,
                queue_wait: SimDuration::ZERO,
                service: SimDuration::from_units_int(2),
                met_deadline: true,
            },
        );
        o.engine_phase(SimTime::ZERO, EnginePhase::Select, 100);
        let shared = share(&Rc::new(RefCell::new(NoopObserver)));
        shared.borrow_mut().sched_point(SimTime::ZERO, 0);
    }
}
