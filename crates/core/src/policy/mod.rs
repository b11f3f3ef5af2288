//! Scheduling policies.
//!
//! All policies implement [`Scheduler`]: the simulator engine owns the
//! [`TxnTable`] and notifies the policy of lifecycle events; the policy keeps
//! whatever indexes it needs and answers [`Scheduler::select`] at every
//! *scheduling point* (transaction arrival or completion — the only two
//! events ASETS\* needs, §III-A, plus the balance-aware timer).
//!
//! ## Engine ↔ policy protocol
//!
//! 1. Ready transactions (including the one currently running) are always
//!    present in the policy's structures: `select` *peeks*, it never pops.
//! 2. Before any `select` at a scheduling point, the engine *pauses* the
//!    running transaction (crediting service, which shrinks its remaining
//!    time) and calls [`Scheduler::on_requeue`] so the policy can re-key it.
//! 3. [`Scheduler::on_complete`] removes a transaction from all structures;
//!    the engine then reports newly released dependents via
//!    [`Scheduler::on_ready`].
//! 4. `select` must return a transaction that is ready in the table, and
//!    must be deterministic given the table state (ties broken by id).
//! 5. The engine asks [`Scheduler::select_many`] for up to M choices per
//!    scheduling point, one on the paper's single server. The default
//!    implementation forwards to `select` (single fill), so every policy
//!    keeps its exact single-server behavior; queue-backed policies
//!    override it to rank their top-M.
//! 6. The engine delivers the hooks of points 2–3 (and arrivals) through
//!    one [`Scheduler::on_batch`] call per scheduling point, after the
//!    table has settled; the default replays them hook by hook.
//!
//! The available policies:
//!
//! | Policy | Priority | Paper role |
//! |---|---|---|
//! | [`Fcfs`] | arrival time | classical baseline (§IV-A) |
//! | [`Edf`] | deadline | deadline-cognizant baseline |
//! | [`Srpt`] | remaining time | load-cognizant baseline |
//! | [`LeastSlack`] | slack | Abbott & Garcia-Molina baseline |
//! | [`Hdf`] | weight/remaining | optimal when all deadlines missed |
//! | [`Asets`] | two-list hybrid (Eq. 1) | §III-A, transaction level |
//! | [`Ready`] | wait-queue strawman | §III-B baseline |
//! | [`AsetsStar`] | workflow-level hybrid (Fig. 7) | the paper's contribution |
//! | [`BalanceAware`] | ASETS\* + aging | §III-D |
//! | [`Mix`] | deadline − γ·value (static) | §V related work (extension) |
//! | [`Hvf`] | value | §V related work (extension) |
//! | [`LoadSwitch`] | EDF/SRPT by measured load | §III-A strawman (extension) |
//!
//! The seven single-list policies (FCFS through HDF, MIX and HVF) are one
//! generic [`Keyed`] policy, each with its own [`KeyRule`].
//!
//! `reference` contains deliberately naive O(n)-per-decision
//! re-implementations used as oracles in property tests.

mod asets;
mod asets_star;
mod balance;
mod baselines;
pub mod reference;
mod switch;

pub use asets::Asets;
pub use asets_star::{AsetsStar, AsetsStarConfig, ImpactRule};
pub use balance::{ActivationMode, BalanceAware};
pub use baselines::{
    Edf, EdfRule, Fcfs, FcfsRule, Hdf, HdfRule, Hvf, HvfRule, KeyRule, Keyed, LeastSlack,
    LeastSlackRule, Mix, MixRule, Ready, Srpt, SrptRule,
};
pub use switch::LoadSwitch;

use crate::table::TxnTable;
use crate::time::SimTime;
use crate::txn::TxnId;
use crate::workflow::HeadRule;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One table mutation at a scheduling point, in engine order — the unit of
/// [`Scheduler::on_batch`]. Each variant names the per-event hook it stands
/// for; the default `on_batch` replays a batch through those hooks in
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// `t` completed ([`Scheduler::on_complete`]).
    Complete(TxnId),
    /// `t` became ready ([`Scheduler::on_ready`]).
    Ready(TxnId),
    /// The running `t` was paused ([`Scheduler::on_requeue`]).
    Requeue(TxnId),
    /// `t` arrived blocked ([`Scheduler::on_blocked_arrival`]).
    BlockedArrival(TxnId),
}

impl LifecycleEvent {
    /// The transaction the event is about.
    #[inline]
    pub fn txn(self) -> TxnId {
        match self {
            LifecycleEvent::Complete(t)
            | LifecycleEvent::Ready(t)
            | LifecycleEvent::Requeue(t)
            | LifecycleEvent::BlockedArrival(t) => t,
        }
    }
}

/// The scheduling-policy interface driven by the simulator engine.
pub trait Scheduler {
    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> &str;

    /// `t` became ready: it arrived with an empty (or fully completed)
    /// dependency list, or its last outstanding predecessor just completed.
    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime);

    /// `t` arrived but is blocked on predecessors. Only dependency-aware
    /// policies care (workflow representatives must start reflecting `t`).
    fn on_blocked_arrival(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {}

    /// The running transaction `t` was paused at a scheduling point; its
    /// remaining time in the table has been reduced. Re-key any structure
    /// ordered by remaining time / slack / density.
    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime);

    /// `t` completed and left the system; remove it everywhere. The table
    /// already reflects the completion (and any released dependents are
    /// already `Ready` there; their `on_ready` calls follow this one).
    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime);

    /// Pick the transaction to occupy the server until the next scheduling
    /// point. `None` iff nothing is ready.
    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId>;

    /// Fill up to `slots` free servers at one scheduling point, pushing the
    /// chosen transactions into `out` in priority order (distinct, all ready
    /// in the table). Like [`Scheduler::select`] this *peeks*: the policy's
    /// structures must be unchanged afterwards.
    ///
    /// The default forwards to `select`, filling a single slot — with one
    /// server (`slots == 1`, the paper's model) every policy behaves exactly
    /// as before this method existed. Policies that can rank beyond their
    /// top choice override it to saturate multi-server pools; the engine
    /// keeps non-displaced running transactions on their servers when fewer
    /// than `slots` choices come back, so a single-fill policy on an
    /// M-server pool is still work-conserving once servers are occupied.
    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        debug_assert!(slots >= 1, "select_many needs at least one slot");
        let _ = slots;
        if let Some(t) = self.select(table, now) {
            out.push(t);
        }
    }

    /// Deliver every lifecycle event of one scheduling point at once. The
    /// engine mutates the table for the whole same-instant epoch first,
    /// then hands the events over in engine order (servers by index, each
    /// completion followed by the dependents it released, then arrivals by
    /// id) — this is the engine's only maintenance call.
    ///
    /// The default replays the per-event hooks in that order. Every hook
    /// in this crate reads only the event transaction's *own* table fields
    /// (deadline and weight are static; remaining time changes only through
    /// that transaction's own pause, which is itself one of the events), so
    /// reading them from the settled table is exact. Policies with
    /// cross-transaction maintenance override this to coalesce work across
    /// the batch; [`reference::PerEvent`] runs any policy with the default
    /// replay instead, the oracle an override is pinned against.
    fn on_batch(&mut self, events: &[LifecycleEvent], table: &TxnTable, now: SimTime) {
        for &ev in events {
            match ev {
                LifecycleEvent::Complete(t) => self.on_complete(t, table, now),
                LifecycleEvent::Ready(t) => self.on_ready(t, table, now),
                LifecycleEvent::Requeue(t) => self.on_requeue(t, table, now),
                LifecycleEvent::BlockedArrival(t) => self.on_blocked_arrival(t, table, now),
            }
        }
    }

    /// Expose up to `k` steal candidates to the rebalancing driver:
    /// ready, never-served transactions in the order this policy prefers to
    /// surrender them — latest feasible start ascending, the migration key
    /// (paper §III-A.2) that marks the work most likely to go tardy if it
    /// keeps queueing here. The driver filters further (whole singleton
    /// workflows only) and calls [`Scheduler::on_stolen`] for each take.
    ///
    /// Like `select` this *peeks*; the default derives the ranking from the
    /// table, so every policy is stealable-from. Policies that already keep
    /// a latest-start index override it with an ordered walk. See
    /// DESIGN.md §12 for what stealing may observe.
    fn steal_candidates(&self, table: &TxnTable, _now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        let mut ranked: Vec<(SimTime, TxnId)> = table
            .ids()
            .filter(|&t| {
                let st = table.state(t);
                st.phase == crate::txn::TxnPhase::Ready
                    && table.remaining(t) == table.spec(t).length
            })
            .map(|t| (table.latest_start(t), t))
            .collect();
        ranked.sort_unstable();
        out.extend(ranked.into_iter().take(k).map(|(_, t)| t));
    }

    /// `t` was stolen by another shard: forget it as if it completed — the
    /// table has already retracted it to `Pending` ([`TxnTable::retract`]),
    /// and it will arrive, run and complete on the thief. The default
    /// reuses `on_complete`, which is pure removal for every in-tree
    /// policy; override only if completion has aggregate side effects that
    /// a steal must not trigger.
    fn on_stolen(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.on_complete(t, table, now);
    }

    /// The next instant at which this policy wants an extra scheduling point
    /// even if nothing arrives or completes (balance-aware activation timer).
    fn next_wakeup(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Attach a decision-provenance observer (see [`crate::obs`]). The
    /// default ignores it: policies opt in, and an un-instrumented policy
    /// simply produces no decision records. Instrumented policies must keep
    /// the *detached* path free — guard every record construction behind
    /// the `Option` test.
    fn attach_observer(&mut self, _obs: crate::obs::SharedObserver) {}
}

impl Scheduler for Box<dyn Scheduler> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        (**self).on_ready(t, table, now);
    }
    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        (**self).on_blocked_arrival(t, table, now);
    }
    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        (**self).on_requeue(t, table, now);
    }
    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        (**self).on_complete(t, table, now);
    }
    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        (**self).select(table, now)
    }
    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        (**self).select_many(table, now, slots, out);
    }
    fn on_batch(&mut self, events: &[LifecycleEvent], table: &TxnTable, now: SimTime) {
        (**self).on_batch(events, table, now);
    }
    fn steal_candidates(&self, table: &TxnTable, now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        (**self).steal_candidates(table, now, k, out);
    }
    fn on_stolen(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        (**self).on_stolen(t, table, now);
    }
    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        (**self).next_wakeup(now)
    }
    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        (**self).attach_observer(obs);
    }
}

/// An exact-rational priority key `num/den`, ordered by value via `u128`
/// cross-multiplication — no float rounding in queue keys.
///
/// Used for HDF density (`w_i / r_i`) and the balance-aware aging ratio
/// (`w_i / d_i`). A zero denominator compares as +∞ (and among those, by
/// numerator), matching "a transaction at its completion instant is
/// infinitely dense".
#[derive(Debug, Clone, Copy, Default)]
pub struct Ratio {
    /// Numerator (e.g. weight).
    pub num: u64,
    /// Denominator (e.g. remaining-time ticks).
    pub den: u64,
}

impl Ratio {
    /// Construct a ratio key.
    #[inline]
    pub const fn new(num: u64, den: u64) -> Ratio {
        Ratio { num, den }
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ratio {}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.den == 0, other.den == 0) {
            (true, true) => self.num.cmp(&other.num),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => {
                let lhs = self.num as u128 * other.den as u128;
                let rhs = other.num as u128 * self.den as u128;
                lhs.cmp(&rhs)
            }
        }
    }
}

/// Enumeration of every policy in the crate, for experiment configs and the
/// policy factory. Serializable so experiment manifests can name policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// First-Come-First-Served.
    Fcfs,
    /// Earliest-Deadline-First.
    Edf,
    /// Shortest-Remaining-Processing-Time.
    Srpt,
    /// Least-Slack (Abbott & Garcia-Molina).
    LeastSlack,
    /// Highest-Density-First (`w/r`).
    Hdf,
    /// Transaction-level ASETS (Eq. 1 hybrid of EDF and SRPT).
    Asets,
    /// MIX (Buttazzo et al.): static linear deadline/value combination with
    /// value factor γ in time units per weight unit (§V related work;
    /// extension baseline).
    Mix {
        /// Value factor γ.
        gamma: f64,
    },
    /// Highest-Value-First (Buttazzo et al., §V related work; extension
    /// baseline): priority = weight alone.
    Hvf,
    /// The §III-A strawman: EDF below a measured-load threshold, SRPT
    /// above it, with a sliding-window load estimator (extension baseline).
    LoadSwitch {
        /// Load threshold for switching to SRPT.
        threshold: f64,
        /// Estimation window, in time units.
        window: f64,
    },
    /// The §III-B wait-queue strawman: transaction-level ASETS over ready
    /// transactions only.
    Ready,
    /// Workflow-level ASETS\* (Fig. 7), the paper's contribution.
    AsetsStar {
        /// Which negative-impact comparison to use (DESIGN.md D1).
        impact: ImpactRule,
    },
    /// Balance-aware ASETS\* (§III-D).
    BalanceAware {
        /// Impact rule for the inner ASETS\*.
        impact: ImpactRule,
        /// Activation mode/rate for the aging scheme.
        activation: ActivationMode,
    },
}

impl PolicyKind {
    /// Instantiate the policy for a transaction batch. Workflow-aware
    /// policies derive their [`crate::workflow::WorkflowSet`] from the table.
    pub fn build(self, table: &TxnTable) -> Box<dyn Scheduler> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::Edf => Box::new(Edf::new()),
            PolicyKind::Srpt => Box::new(Srpt::new()),
            PolicyKind::LeastSlack => Box::new(LeastSlack::new()),
            PolicyKind::Hdf => Box::new(Hdf::new()),
            PolicyKind::Asets => Box::new(Asets::new()),
            PolicyKind::Mix { gamma } => {
                Box::new(Mix::new(crate::time::SimDuration::from_units(gamma)))
            }
            PolicyKind::Hvf => Box::new(Hvf::new()),
            PolicyKind::LoadSwitch { threshold, window } => Box::new(LoadSwitch::new(
                threshold,
                crate::time::SimDuration::from_units(window),
            )),
            PolicyKind::Ready => Box::new(Ready::new()),
            PolicyKind::AsetsStar { impact } => Box::new(AsetsStar::new(
                table,
                AsetsStarConfig {
                    impact,
                    ..AsetsStarConfig::default()
                },
            )),
            PolicyKind::BalanceAware { impact, activation } => {
                let inner = AsetsStar::new(
                    table,
                    AsetsStarConfig {
                        impact,
                        ..AsetsStarConfig::default()
                    },
                );
                Box::new(BalanceAware::new(inner, activation))
            }
        }
    }

    /// Short label used in reports and plots.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Fcfs => "FCFS".into(),
            PolicyKind::Edf => "EDF".into(),
            PolicyKind::Srpt => "SRPT".into(),
            PolicyKind::LeastSlack => "LS".into(),
            PolicyKind::Hdf => "HDF".into(),
            PolicyKind::Asets => "ASETS".into(),
            PolicyKind::Mix { gamma } => format!("MIX(g={gamma})"),
            PolicyKind::Hvf => "HVF".into(),
            PolicyKind::LoadSwitch { threshold, .. } => format!("Switch(l={threshold})"),
            PolicyKind::Ready => "Ready".into(),
            PolicyKind::AsetsStar { .. } => "ASETS*".into(),
            PolicyKind::BalanceAware { activation, .. } => {
                format!("ASETS*-bal({activation})")
            }
        }
    }

    /// The standard ASETS\* configuration used throughout the paper's
    /// evaluation (Fig. 7 impact rule, default head rules).
    pub fn asets_star() -> PolicyKind {
        PolicyKind::AsetsStar {
            impact: ImpactRule::Paper,
        }
    }
}

/// Default head rule for a list side: EDF-side workflows expose their
/// earliest-deadline ready member, HDF-side workflows their densest.
pub(crate) fn head_rule_for_side(edf_side: bool) -> HeadRule {
    if edf_side {
        HeadRule::EarliestDeadline
    } else {
        HeadRule::HighestDensity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_orders_by_value() {
        assert!(Ratio::new(1, 2) < Ratio::new(2, 3));
        assert!(Ratio::new(3, 6) == Ratio::new(1, 2));
        assert!(Ratio::new(5, 1) > Ratio::new(4, 1));
    }

    #[test]
    fn ratio_zero_denominator_is_infinite() {
        assert!(Ratio::new(1, 0) > Ratio::new(u64::MAX, 1));
        assert!(
            Ratio::new(2, 0) > Ratio::new(1, 0),
            "among infinities, larger numerator wins"
        );
        assert!(Ratio::new(1, 0) == Ratio::new(1, 0));
    }

    #[test]
    fn ratio_no_overflow_at_extremes() {
        // u64::MAX * u64::MAX fits u128; ordering must still be correct.
        assert!(Ratio::new(u64::MAX, 1) > Ratio::new(u64::MAX, 2));
        assert!(Ratio::new(u64::MAX, u64::MAX) == Ratio::new(1, 1));
    }

    #[test]
    fn ratio_is_a_total_order() {
        let vals = [
            Ratio::new(0, 1),
            Ratio::new(1, 3),
            Ratio::new(1, 2),
            Ratio::new(2, 3),
            Ratio::new(1, 1),
            Ratio::new(3, 2),
            Ratio::new(7, 0),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::Edf.label(), "EDF");
        assert_eq!(PolicyKind::asets_star().label(), "ASETS*");
        assert_eq!(
            PolicyKind::BalanceAware {
                impact: ImpactRule::Paper,
                activation: ActivationMode::time_rate(0.002),
            }
            .label(),
            "ASETS*-bal(time:500)"
        );
    }

    #[test]
    fn every_policy_kind_builds() {
        use crate::table::TxnTable;
        let table = TxnTable::new(vec![]).unwrap();
        let kinds = [
            PolicyKind::Fcfs,
            PolicyKind::Edf,
            PolicyKind::Srpt,
            PolicyKind::LeastSlack,
            PolicyKind::Hdf,
            PolicyKind::Asets,
            PolicyKind::Ready,
            PolicyKind::asets_star(),
            PolicyKind::AsetsStar {
                impact: ImpactRule::Symmetric,
            },
            PolicyKind::BalanceAware {
                impact: ImpactRule::Paper,
                activation: ActivationMode::count_rate(0.1),
            },
        ];
        for k in kinds {
            let mut p = k.build(&table);
            assert_eq!(p.select(&table, SimTime::ZERO), None, "{}", k.label());
            assert!(!p.name().is_empty());
        }
    }
}
