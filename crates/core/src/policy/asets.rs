//! Transaction-level ASETS (§III-A.2, the core of ASETS\*).
//!
//! Two lists (Definitions 6–7):
//!
//! * **EDF-List** — transactions that can still meet their deadline if they
//!   start right now (`now + r_i <= d_i`), ordered by deadline;
//! * **SRPT-List** — transactions that already missed (`now + r_i > d_i`),
//!   ordered by remaining processing time.
//!
//! At each scheduling point the policy compares the tops `T_EDF` and
//! `T_SRPT` by their *negative impact* and runs the smaller (Eq. 1):
//!
//! ```text
//! run T_EDF  iff  r_EDF < r_SRPT - s_EDF        (s_EDF = d_EDF - (now + r_EDF))
//! ```
//!
//! running `T_EDF` first delays `T_SRPT` (already tardy) by `r_EDF`; running
//! `T_SRPT` first delays `T_EDF` by `r_SRPT`, of which `s_EDF` is absorbed
//! by slack.
//!
//! ## Migration in `O(log n)`
//!
//! Transactions start in the EDF-List and may *move* to the SRPT-List while
//! waiting. The quantity `now + r_i` is invariant while a transaction runs
//! (time and remaining trade one-for-one) and grows only while it waits —
//! so infeasibility is absorbing, and for a *waiting* transaction the
//! latest feasible start `d_i - r_i` is a static key. A third queue ordered
//! by latest start is drained up to `now` at each scheduling point, moving
//! exactly the newly infeasible transactions. The running transaction is
//! re-keyed on pause (its `r_i` changed), before any drain can observe a
//! stale key.

use super::Scheduler;
use crate::obs::{
    Candidate, DecisionRecord, DecisionRule, MigrationEvent, MigrationSubject, ObserverSlot, Winner,
};
use crate::queue::{Frontier, KeyedQueue};
use crate::table::TxnTable;
use crate::time::SimTime;
use crate::txn::TxnId;

/// Transaction-level ASETS scheduler.
#[derive(Debug, Default)]
pub struct Asets {
    /// Feasible transactions, keyed by deadline ticks.
    edf: KeyedQueue<u64>,
    /// Infeasible (already-missed) transactions, keyed by remaining ticks.
    srpt: KeyedQueue<u64>,
    /// Latest-start index over the EDF-List members, for migration.
    latest_start: KeyedQueue<u64>,
    /// Decision-provenance sink (detached by default).
    obs: ObserverSlot,
    /// Scratch for `migrate` and for multi-slot fills (`slots > 1` only),
    /// including the lists' shared walk frontier: capacity is retained, so
    /// the steady state allocates nothing.
    drained: Vec<(u64, u32)>,
    mf_edf: Vec<(u64, u32)>,
    mf_srpt: Vec<(u64, u32)>,
    frontier: Frontier<u64>,
}

impl Asets {
    /// New empty scheduler; its lists grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of transactions currently in the EDF-List.
    pub fn edf_len(&self) -> usize {
        self.edf.len()
    }

    /// Number of transactions currently in the SRPT-List.
    pub fn srpt_len(&self) -> usize {
        self.srpt.len()
    }

    fn insert_classified(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        if table.can_meet_deadline(t, now) {
            self.edf.insert(t.0, table.deadline(t).ticks());
            self.latest_start.insert(t.0, table.latest_start(t).ticks());
        } else {
            self.srpt.insert(t.0, table.remaining(t).ticks());
        }
    }

    /// Move every EDF-List member whose latest feasible start has passed
    /// into the SRPT-List (Definition 7 membership).
    fn migrate(&mut self, table: &TxnTable, now: SimTime) {
        // In the EDF-List iff `now <= d - r`; migrate strictly-older keys.
        let Some(bound) = now.ticks().checked_sub(1) else {
            return;
        };
        // Drain into retained scratch; index loop, since the body updates
        // the lists.
        self.drained.clear();
        self.latest_start.drain_up_to_into(bound, &mut self.drained);
        for i in 0..self.drained.len() {
            let (_, id) = self.drained[i];
            let removed = self.edf.remove(id);
            debug_assert!(
                removed.is_some(),
                "latest-start index out of sync with EDF-List"
            );
            self.srpt.insert(id, table.remaining(TxnId(id)).ticks());
            if self.obs.is_attached() {
                let ev = MigrationEvent {
                    at: now,
                    subject: MigrationSubject::Txn(TxnId(id)),
                    to_hdf: true,
                };
                self.obs.emit(|o| o.migration(&ev));
            }
        }
    }

    /// Eq. 1 decision between the two list tops; `None` iff both lists are
    /// empty. Public (crate-internal) so the reference oracle can share it.
    fn decide(&self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let edf_top = self.edf.peek_id().map(TxnId);
        let srpt_top = self.srpt.peek_id().map(TxnId);
        let chosen = decide_eq1(table, now, edf_top, srpt_top);
        if self.obs.is_attached() {
            if let Some(chosen) = chosen {
                let rec = self.provenance(table, now, edf_top, srpt_top, chosen);
                self.obs.emit(|o| o.decision(&rec));
            }
        }
        chosen
    }

    /// Reconstruct the Eq. 1 provenance of `decide`'s outcome (observer
    /// path only — never runs detached).
    fn provenance(
        &self,
        table: &TxnTable,
        now: SimTime,
        edf_top: Option<TxnId>,
        srpt_top: Option<TxnId>,
        chosen: TxnId,
    ) -> DecisionRecord {
        let cand = |t: TxnId| Candidate {
            txn: t,
            workflow: None,
            r: table.remaining(t),
            slack: table.slack(t, now),
            weight: table.weight(t).get(),
            deadline: table.deadline(t),
        };
        let (winner, impact_edf, impact_hdf) = match (edf_top, srpt_top) {
            (Some(e), Some(s)) => {
                let r_edf = table.remaining(e).ticks() as i128;
                let r_srpt = table.remaining(s).ticks() as i128;
                let s_edf = table.slack(e, now).ticks();
                let winner = if chosen == e {
                    Winner::Edf
                } else {
                    Winner::Hdf
                };
                (winner, r_edf, r_srpt - s_edf)
            }
            (Some(_), None) => (Winner::OnlyEdf, 0, 0),
            _ => (Winner::OnlyHdf, 0, 0),
        };
        DecisionRecord {
            at: now,
            rule: DecisionRule::Eq1,
            edf: edf_top.map(cand),
            hdf: srpt_top.map(cand),
            impact_edf,
            impact_hdf,
            winner,
            chosen,
            edf_len: self.edf.len() as u32,
            hdf_len: self.srpt.len() as u32,
        }
    }
}

/// The Eq. 1 comparison, shared by the indexed policy and the O(n) oracle:
/// run the EDF candidate iff `r_EDF < r_SRPT - s_EDF`, preferring the SRPT
/// side on ties (Fig. 7 uses a strict `<`).
pub(crate) fn decide_eq1(
    table: &TxnTable,
    now: SimTime,
    edf_top: Option<TxnId>,
    srpt_top: Option<TxnId>,
) -> Option<TxnId> {
    match (edf_top, srpt_top) {
        (None, None) => None,
        (Some(e), None) => Some(e),
        (None, Some(s)) => Some(s),
        (Some(e), Some(s)) => {
            let r_edf = table.remaining(e).ticks() as i128;
            let r_srpt = table.remaining(s).ticks() as i128;
            let s_edf = table.slack(e, now).ticks();
            debug_assert!(s_edf >= 0, "EDF-List member with negative slack");
            if r_edf < r_srpt - s_edf {
                Some(e)
            } else {
                Some(s)
            }
        }
    }
}

impl Scheduler for Asets {
    fn name(&self) -> &str {
        "ASETS"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.insert_classified(t, table, now);
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        if self.edf.contains(t.0) {
            // Feasibility is invariant while running, so the transaction
            // stays in the EDF-List; only its latest start moved (later).
            self.latest_start.rekey(t.0, table.latest_start(t).ticks());
        } else {
            self.srpt.rekey(t.0, table.remaining(t).ticks());
        }
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        if self.edf.remove(t.0).is_some() {
            self.latest_start.remove(t.0);
        } else {
            let removed = self.srpt.remove(t.0);
            debug_assert!(removed.is_some(), "completed txn was in neither list");
        }
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.migrate(table, now);
        self.decide(table, now)
    }

    /// Multi-slot fill: the first choice is exactly [`Asets::select`]
    /// (migration, Eq. 1, provenance); the remaining slots replay Eq. 1
    /// over the next list tops from one ordered walk per side into
    /// retained scratch, with cursors advancing past chosen entries. With
    /// `slots == 1` this is bit-identical to the trait default.
    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        let Some(first) = self.select(table, now) else {
            return;
        };
        out.push(first);
        if slots == 1 {
            return;
        }
        let mut e_tops = std::mem::take(&mut self.mf_edf);
        let mut s_tops = std::mem::take(&mut self.mf_srpt);
        e_tops.clear();
        s_tops.clear();
        e_tops.extend(self.edf.ordered(&mut self.frontier).take(slots));
        s_tops.extend(self.srpt.ordered(&mut self.frontier).take(slots));
        let (mut i, mut j) = (0, 0);
        while out.len() < slots {
            while i < e_tops.len() && e_tops[i].1 == first.0 {
                i += 1;
            }
            while j < s_tops.len() && s_tops[j].1 == first.0 {
                j += 1;
            }
            let e = e_tops.get(i).map(|&(_, id)| TxnId(id));
            let s = s_tops.get(j).map(|&(_, id)| TxnId(id));
            let Some(c) = decide_eq1(table, now, e, s) else {
                break;
            };
            out.push(c);
            if Some(c) == e {
                i += 1;
            } else {
                j += 1;
            }
        }
        self.mf_edf = e_tops;
        self.mf_srpt = s_tops;
    }

    /// Latest-start steal candidates straight off the migration index: the
    /// EDF-List members closest to going infeasible are exactly the ones
    /// that gain the most from starting sooner on an idle shard. Paused
    /// (partially-served) members are skipped — only never-served work is
    /// stealable. SRPT-List members are already tardy everywhere, so they
    /// are not offered. The ordered walk stops at the k-th candidate.
    fn steal_candidates(&self, table: &TxnTable, _now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        out.extend(
            self.latest_start
                .ordered(&mut Frontier::new())
                .map(|(_, id)| TxnId(id))
                .filter(|&t| {
                    table.state(t).phase == crate::txn::TxnPhase::Ready
                        && table.remaining(t) == table.spec(t).length
                })
                .take(k),
        );
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

    fn ready_all(specs: Vec<TxnSpec>, now: SimTime) -> (TxnTable, Asets) {
        let mut tbl = TxnTable::new(specs).unwrap();
        let mut p = Asets::new();
        for t in 0..tbl.len() as u32 {
            tbl.arrive(TxnId(t), now);
            p.on_ready(TxnId(t), &tbl, now);
        }
        (tbl, p)
    }

    /// Paper Example 2 (Fig. 4): T_SRPT r=3, d=3-ε (already missed);
    /// T_EDF r=5, d=7 (slack 2). Impacts: EDF-first = 5, SRPT-first =
    /// 3 - 2 = 1 → SRPT wins.
    #[test]
    fn example2_srpt_wins() {
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(
                    at(0),
                    SimTime::from_units(3.0 - 1e-6),
                    units(3),
                    Weight::ONE,
                ),
                TxnSpec::independent(at(0), at(7), units(5), Weight::ONE),
            ],
            at(0),
        );
        assert_eq!(p.srpt_len(), 1, "T0 missed from birth");
        assert_eq!(p.edf_len(), 1);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    /// Paper Example 3 (Fig. 5): same SRPT transaction, but the EDF top has
    /// zero slack and is *shorter* than the SRPT top — EDF wins
    /// (r_EDF = 2 < r_SRPT - s_EDF = 3 - 0).
    #[test]
    fn example3_edf_wins() {
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(
                    at(0),
                    SimTime::from_units(3.0 - 1e-6),
                    units(3),
                    Weight::ONE,
                ),
                TxnSpec::independent(at(0), at(2), units(2), Weight::ONE),
            ],
            at(0),
        );
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
    }

    #[test]
    fn tie_prefers_srpt_side() {
        // r_EDF = 3, r_SRPT = 3, s_EDF = 0: impacts equal -> SRPT (strict <).
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(at(0), at(1), units(3), Weight::ONE), // missed
                TxnSpec::independent(at(0), at(3), units(3), Weight::ONE), // slack 0
            ],
            at(0),
        );
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn reduces_to_edf_when_all_feasible() {
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(at(0), at(50), units(5), Weight::ONE),
                TxnSpec::independent(at(0), at(20), units(9), Weight::ONE),
                TxnSpec::independent(at(0), at(35), units(1), Weight::ONE),
            ],
            at(0),
        );
        assert_eq!(p.srpt_len(), 0);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)), "earliest deadline");
    }

    #[test]
    fn reduces_to_srpt_when_all_missed() {
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(at(0), at(1), units(5), Weight::ONE),
                TxnSpec::independent(at(0), at(1), units(2), Weight::ONE),
                TxnSpec::independent(at(0), at(1), units(9), Weight::ONE),
            ],
            at(0),
        );
        assert_eq!(p.edf_len(), 0);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)), "shortest remaining");
    }

    #[test]
    fn waiting_txn_migrates_when_deadline_becomes_unreachable() {
        // T0: d=10, r=4 -> latest start 6. Feasible at t=0, infeasible at t=7.
        let (tbl, mut p) = ready_all(
            vec![TxnSpec::independent(at(0), at(10), units(4), Weight::ONE)],
            at(0),
        );
        assert_eq!(p.select(&tbl, at(6)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 1);
        assert_eq!(p.select(&tbl, at(7)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 0, "migrated to SRPT-List");
        assert_eq!(p.srpt_len(), 1);
    }

    #[test]
    fn migration_is_by_latest_start_not_deadline_order() {
        // T0: d=10, r=9 (latest start 1); T1: d=5, r=1 (latest start 4).
        // T0 has the *later* deadline but migrates *first*.
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(at(0), at(10), units(9), Weight::ONE),
                TxnSpec::independent(at(0), at(5), units(1), Weight::ONE),
            ],
            at(0),
        );
        p.select(&tbl, at(2)); // t=2 > 1: T0 migrates, T1 stays
        assert_eq!(p.edf_len(), 1);
        assert_eq!(p.srpt_len(), 1);
        assert!(p.edf.contains(1));
        assert!(p.srpt.contains(0));
    }

    #[test]
    fn running_txn_is_rekeyed_not_migrated() {
        // T0 d=10, r=4 (latest start 6). It runs from 0 to 5 (r=... pause at 5
        // with r... served 5? r=4 only) — run 3 of 4 units: pause at t=3, r=1,
        // new latest start 9. At t=8 it must still be feasible.
        let (mut tbl, mut p) = ready_all(
            vec![TxnSpec::independent(at(0), at(10), units(4), Weight::ONE)],
            at(0),
        );
        tbl.start_running(TxnId(0));
        tbl.preempt(TxnId(0), units(3));
        p.on_requeue(TxnId(0), &tbl, at(3));
        assert_eq!(p.select(&tbl, at(8)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 1, "still feasible: 8 + 1 <= 10");
        assert_eq!(p.select(&tbl, at(10)), Some(TxnId(0)));
        assert_eq!(p.edf_len(), 0, "10 + 1 > 10: migrated");
    }

    #[test]
    fn completion_cleans_both_lists() {
        let (mut tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(at(0), at(1), units(2), Weight::ONE), // srpt
                TxnSpec::independent(at(0), at(50), units(2), Weight::ONE), // edf
            ],
            at(0),
        );
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(2), units(2));
        p.on_complete(TxnId(0), &tbl, at(2));
        assert_eq!(p.srpt_len(), 0);
        tbl.start_running(TxnId(1));
        tbl.complete(TxnId(1), at(4), units(2));
        p.on_complete(TxnId(1), &tbl, at(4));
        assert_eq!(p.edf_len(), 0);
        assert_eq!(p.select(&tbl, at(4)), None);
    }

    #[test]
    fn empty_selects_none() {
        let mut p = Asets::new();
        let tbl = TxnTable::new(vec![]).unwrap();
        assert_eq!(p.select(&tbl, at(0)), None);
    }

    #[test]
    fn arrival_straight_to_srpt_when_born_infeasible() {
        let (tbl, mut p) = ready_all(
            vec![TxnSpec::independent(at(0), at(2), units(5), Weight::ONE)],
            at(0),
        );
        assert_eq!(p.srpt_len(), 1);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    /// An attached observer sees an Eq. 1 record whose impacts reproduce the
    /// actual decision, and a migration event when a transaction's deadline
    /// becomes unreachable.
    #[test]
    fn observer_sees_eq1_provenance_and_migration() {
        use crate::obs::{share, DecisionRule, Observer, Winner};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Cap {
            decisions: Vec<crate::obs::DecisionRecord>,
            migrations: Vec<crate::obs::MigrationEvent>,
        }
        impl Observer for Cap {
            fn decision(&mut self, rec: &crate::obs::DecisionRecord) {
                self.decisions.push(*rec);
            }
            fn migration(&mut self, ev: &crate::obs::MigrationEvent) {
                self.migrations.push(*ev);
            }
        }

        // Example 2's shape: T0 already missed (SRPT list), T1 feasible.
        let (tbl, mut p) = ready_all(
            vec![
                TxnSpec::independent(
                    at(0),
                    SimTime::from_units(3.0 - 1e-6),
                    units(3),
                    Weight::ONE,
                ),
                TxnSpec::independent(at(0), at(7), units(5), Weight::ONE),
            ],
            at(0),
        );
        let cap = Rc::new(RefCell::new(Cap::default()));
        p.attach_observer(share(&cap));

        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
        {
            let c = cap.borrow();
            let rec = c.decisions.last().expect("decision recorded");
            assert_eq!(rec.rule, DecisionRule::Eq1);
            assert_eq!(rec.winner, Winner::Hdf, "SRPT side won Example 2");
            assert_eq!(rec.chosen, TxnId(0));
            // impact_edf = r_EDF = 5; impact_hdf = r_SRPT - s_EDF = 3 - 2 = 1.
            assert_eq!(rec.impact_edf, units(5).ticks() as i128);
            assert_eq!(rec.impact_hdf, units(1).ticks() as i128);
            assert!(rec.margin() < 0, "HDF win ⇒ negative margin");
            assert_eq!(rec.edf_len, 1);
            assert_eq!(rec.hdf_len, 1);
        }

        // At t=3, T1 (r=5, d=7) can no longer finish in time: EDF→HDF.
        assert_eq!(p.select(&tbl, at(3)), Some(TxnId(0)));
        let c = cap.borrow();
        assert_eq!(c.migrations.len(), 1);
        assert!(c.migrations[0].to_hdf);
        assert_eq!(
            c.migrations[0].subject,
            crate::obs::MigrationSubject::Txn(TxnId(1))
        );
    }

    /// With a single ready transaction the record is one-sided.
    #[test]
    fn observer_one_sided_record() {
        use crate::obs::{share, Observer, Winner};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Last(Option<crate::obs::DecisionRecord>);
        impl Observer for Last {
            fn decision(&mut self, rec: &crate::obs::DecisionRecord) {
                self.0 = Some(*rec);
            }
        }

        let (tbl, mut p) = ready_all(
            vec![TxnSpec::independent(at(0), at(9), units(2), Weight::ONE)],
            at(0),
        );
        let cap = Rc::new(RefCell::new(Last::default()));
        p.attach_observer(share(&cap));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
        let rec = cap.borrow().0.expect("record");
        assert_eq!(rec.winner, Winner::OnlyEdf);
        assert!(rec.hdf.is_none());
        assert!(!rec.is_comparison());
    }
}
