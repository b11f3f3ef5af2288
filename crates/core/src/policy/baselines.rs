//! The single-list priority policies: the baselines the paper compares
//! against (§II-C, §IV-A) — FCFS, EDF, SRPT, Least-Slack and HDF — and the
//! two related-work policies of §V, MIX and HVF; plus `Ready`, the §III-B
//! wait-queue strawman.
//!
//! Each single-list policy is one priority key over the ready set, which is
//! how SOAP (Scully & Harchol-Balter) models any such policy: one rank
//! function. So they share one implementation, [`Keyed`], a single
//! [`KeyedQueue`] whose minimum `select` peeks, and differ only in their
//! [`KeyRule`]. Dependency handling is identical for all of them: blocked
//! transactions simply have not been reported ready yet, which is exactly
//! the paper's framing of deadline-/dependency-oblivious baselines
//! (DESIGN.md D6).

use super::{Ratio, Scheduler};
use crate::obs::{Candidate, DecisionRecord, DecisionRule, ObserverSlot, SharedObserver, Winner};
use crate::queue::{Frontier, KeyedQueue};
use crate::table::TxnTable;
use crate::time::{SimDuration, SimTime};
use crate::txn::TxnId;
use std::cmp::Reverse;

/// Emit a single-candidate provenance record for a plain priority policy:
/// there is no Eq. 1 comparison, just "this transaction had top priority in
/// a queue of `qlen`". The candidate rides in the `edf` arm of the record.
fn emit_single(obs: &ObserverSlot, table: &TxnTable, now: SimTime, chosen: TxnId, qlen: usize) {
    if !obs.is_attached() {
        return;
    }
    let rec = DecisionRecord {
        at: now,
        rule: DecisionRule::Priority,
        edf: Some(Candidate {
            txn: chosen,
            workflow: None,
            r: table.remaining(chosen),
            slack: table.slack(chosen, now),
            weight: table.weight(chosen).get(),
            deadline: table.deadline(chosen),
        }),
        hdf: None,
        impact_edf: 0,
        impact_hdf: 0,
        winner: Winner::Single,
        chosen,
        edf_len: qlen as u32,
        hdf_len: 0,
    };
    obs.emit(|o| o.decision(&rec));
}

/// The priority rule of one single-list policy.
pub trait KeyRule {
    /// The priority key: the smallest key runs first, ties toward the
    /// smaller transaction id.
    type Key: Ord + Copy + std::fmt::Debug;
    /// The policy's report name ([`Scheduler::name`]).
    const NAME: &'static str;
    /// Whether the key reads remaining time, so that a pause must re-key.
    /// Keys over static fields (arrival, deadline, weight) skip the re-key.
    const REKEY_ON_PAUSE: bool;
    /// `t`'s key. It reads only `t`'s own table fields, so reading it from
    /// a settled table is exact (see [`Scheduler::on_batch`]).
    fn key(&self, table: &TxnTable, t: TxnId) -> Self::Key;
}

/// A single-list priority policy: the ready set in one [`KeyedQueue`]
/// ordered by `R`'s key.
#[derive(Debug)]
pub struct Keyed<R: KeyRule> {
    rule: R,
    queue: KeyedQueue<R::Key>,
    /// `select_many`'s walk frontier (retained capacity).
    frontier: Frontier<R::Key>,
    obs: ObserverSlot,
}

impl<R: KeyRule> Keyed<R> {
    fn with_rule(rule: R) -> Self {
        Keyed {
            rule,
            queue: KeyedQueue::new(),
            frontier: Frontier::new(),
            obs: ObserverSlot::empty(),
        }
    }

    /// True iff no transaction is ready.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<R: KeyRule + Default> Keyed<R> {
    /// A new empty policy.
    pub fn new() -> Self {
        Self::with_rule(R::default())
    }
}

impl<R: KeyRule + Default> Default for Keyed<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: KeyRule> Scheduler for Keyed<R> {
    fn name(&self) -> &str {
        R::NAME
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.insert(t.0, self.rule.key(table, t));
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        if R::REKEY_ON_PAUSE {
            self.queue.rekey(t.0, self.rule.key(table, t));
        }
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let chosen = self.queue.peek_id().map(TxnId);
        if let Some(c) = chosen {
            emit_single(&self.obs, table, now, c, self.queue.len());
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // A best-first walk over the queue, stopped after `slots` entries,
        // fills every slot without allocating.
        let len = self.queue.len();
        for (_, id) in self.queue.ordered(&mut self.frontier).take(slots) {
            let c = TxnId(id);
            emit_single(&self.obs, table, now, c, len);
            out.push(c);
        }
    }

    fn attach_observer(&mut self, obs: SharedObserver) {
        self.obs.attach(obs);
    }
}

/// First-Come-First-Served: priority = arrival time. Never preempts in
/// practice (the running transaction always has the earliest arrival among
/// ready ones).
pub type Fcfs = Keyed<FcfsRule>;

/// [`Fcfs`]'s key: the *submission* instant, so a dependent released late
/// still takes its place in the line, the classical definition.
#[derive(Debug, Default, Clone, Copy)]
pub struct FcfsRule;

impl KeyRule for FcfsRule {
    type Key = u64;
    const NAME: &'static str = "FCFS";
    const REKEY_ON_PAUSE: bool = false;
    fn key(&self, table: &TxnTable, t: TxnId) -> u64 {
        table.spec(t).arrival.ticks()
    }
}

/// Earliest-Deadline-First: priority = `1/d_i` (paper §II-C), i.e. the
/// smallest deadline wins. Optimal when the system is not over-utilized;
/// suffers the domino effect under overload (§III-A.1).
pub type Edf = Keyed<EdfRule>;

/// [`Edf`]'s key: the deadline.
#[derive(Debug, Default, Clone, Copy)]
pub struct EdfRule;

impl KeyRule for EdfRule {
    type Key = u64;
    const NAME: &'static str = "EDF";
    const REKEY_ON_PAUSE: bool = false;
    fn key(&self, table: &TxnTable, t: TxnId) -> u64 {
        table.deadline(t).ticks()
    }
}

/// Shortest-Remaining-Processing-Time: the smallest `r_i` wins. Optimal for
/// mean response time (Schroeder & Harchol-Balter), hence optimal for
/// tardiness once *every* deadline is already missed (§III-A.1).
pub type Srpt = Keyed<SrptRule>;

/// [`Srpt`]'s key: the remaining time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SrptRule;

impl KeyRule for SrptRule {
    type Key = u64;
    const NAME: &'static str = "SRPT";
    const REKEY_ON_PAUSE: bool = true;
    fn key(&self, table: &TxnTable, t: TxnId) -> u64 {
        table.remaining(t).ticks()
    }
}

/// Least-Slack: priority = `1/s_i` (Abbott & Garcia-Molina).
pub type LeastSlack = Keyed<LeastSlackRule>;

/// [`LeastSlack`]'s key. At any common instant `t`, ordering by slack
/// `d_i - (t + r_i)` is ordering by the latest start time `d_i - r_i`, so
/// the key is that signed difference and changes only with `r`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LeastSlackRule;

impl KeyRule for LeastSlackRule {
    type Key = i128;
    const NAME: &'static str = "LS";
    const REKEY_ON_PAUSE: bool = true;
    fn key(&self, table: &TxnTable, t: TxnId) -> i128 {
        table.deadline(t).ticks() as i128 - table.remaining(t).ticks() as i128
    }
}

/// Highest-Density-First: priority = `w_i / r_i` (Becchetti et al.) —
/// optimal for weighted tardiness when every deadline is already missed.
/// Reduces to SRPT when all weights are equal.
pub type Hdf = Keyed<HdfRule>;

/// [`Hdf`]'s key: the exact density `w/r`, reversed so the densest is
/// smallest.
#[derive(Debug, Default, Clone, Copy)]
pub struct HdfRule;

impl KeyRule for HdfRule {
    type Key = Reverse<Ratio>;
    const NAME: &'static str = "HDF";
    const REKEY_ON_PAUSE: bool = true;
    fn key(&self, table: &TxnTable, t: TxnId) -> Reverse<Ratio> {
        Reverse(Ratio::new(
            table.weight(t).get() as u64,
            table.remaining(t).ticks(),
        ))
    }
}

/// MIX (Buttazzo, Spuri & Sensini, RTSS '95), the related-work baseline
/// the paper contrasts ASETS\* against in §V: a **static linear
/// combination of deadline and value**, `key_i = d_i − γ·w_i`, smallest
/// first. γ = 0 is plain EDF; large γ approaches Highest-Value-First. The
/// paper's criticism, which the `mix_parameter` ablation lets you verify,
/// is that γ is *static*: "ASETS\* automatically adapts to different
/// workloads, switching between HDF and EDF, while MIX statically combines
/// both of them using a system parameter".
pub type Mix = Keyed<MixRule>;

/// [`Mix`]'s key `d − γ·w`.
#[derive(Debug, Clone, Copy)]
pub struct MixRule {
    /// Value factor γ: how many time units of deadline one unit of weight
    /// buys.
    pub gamma: SimDuration,
}

impl KeyRule for MixRule {
    type Key = i128;
    const NAME: &'static str = "MIX";
    const REKEY_ON_PAUSE: bool = false;
    fn key(&self, table: &TxnTable, t: TxnId) -> i128 {
        table.deadline(t).ticks() as i128
            - self.gamma.ticks() as i128 * table.weight(t).get() as i128
    }
}

impl Mix {
    /// Build MIX with value factor `gamma`.
    pub fn new(gamma: SimDuration) -> Mix {
        Keyed::with_rule(MixRule { gamma })
    }

    /// The configured value factor.
    pub fn gamma(&self) -> SimDuration {
        self.rule.gamma
    }
}

/// Highest-Value-First (Buttazzo et al., the other §V pole): priority is
/// the weight alone — deadline-oblivious, the mirror image of EDF's
/// value-obliviousness. Equivalent to [`Mix`] in the γ → ∞ limit, but with
/// exact (not scaled) ordering.
pub type Hvf = Keyed<HvfRule>;

/// [`Hvf`]'s key: the weight, reversed so the heaviest is smallest.
#[derive(Debug, Default, Clone, Copy)]
pub struct HvfRule;

impl KeyRule for HvfRule {
    type Key = Reverse<u32>;
    const NAME: &'static str = "HVF";
    const REKEY_ON_PAUSE: bool = false;
    fn key(&self, table: &TxnTable, t: TxnId) -> Reverse<u32> {
        Reverse(table.weight(t).get())
    }
}

/// The §III-B strawman: a Wait queue conceals blocked transactions, and the
/// ready ones are scheduled with transaction-level ASETS. Because the engine
/// only reports *ready* transactions to policies, `Ready` is exactly
/// transaction-level [`super::Asets`] run on a dependent workload — the
/// newtype exists so experiment reports and configs can name the strawman
/// explicitly.
#[derive(Debug, Default)]
pub struct Ready {
    inner: super::Asets,
}

impl Ready {
    /// New empty Ready policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Ready {
    fn name(&self) -> &str {
        "Ready"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_ready(t, table, now);
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_requeue(t, table, now);
    }

    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_complete(t, table, now);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.inner.select(table, now)
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // Deliberately single-fill (not forwarded to the inner multi-fill):
        // the strawman's Wait queue schedules one transaction per point,
        // and the engine's work-conservation pins rely on that shape.
        let _ = slots;
        if let Some(t) = self.select(table, now) {
            out.push(t);
        }
    }

    fn steal_candidates(&self, table: &TxnTable, now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        self.inner.steal_candidates(table, now, k, out);
    }

    fn on_stolen(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_stolen(t, table, now);
    }

    fn attach_observer(&mut self, obs: SharedObserver) {
        self.inner.attach_observer(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{share, Observer};
    use crate::txn::{TxnSpec, Weight};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }

    /// Three ready transactions with deliberately conflicting orderings:
    ///   T0: a=0, d=30, r=2, w=1   (FCFS first, SRPT first)
    ///   T1: a=1, d=10, r=8, w=2   (EDF first, LS first: d-r=2)
    ///   T2: a=2, d=20, r=4, w=9   (HDF first: density 2.25)
    fn table() -> TxnTable {
        TxnTable::new(vec![
            TxnSpec::independent(at(0), at(30), units(2), Weight(1)),
            TxnSpec::independent(at(1), at(10), units(8), Weight(2)),
            TxnSpec::independent(at(2), at(20), units(4), Weight(9)),
        ])
        .unwrap()
    }

    fn readied(policy: &mut dyn Scheduler) -> TxnTable {
        let mut tbl = table();
        for t in 0..3u32 {
            tbl.arrive(TxnId(t), at(tbl.spec(TxnId(t)).arrival.ticks() / 1_000_000));
            policy.on_ready(TxnId(t), &tbl, at(2));
        }
        tbl
    }

    /// Two arrived transactions at 0 for the value-based policies:
    /// T0: d=10, w=1. T1: d=14, w=9.
    fn value_table() -> TxnTable {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(10), units(2), Weight(1)),
            TxnSpec::independent(at(0), at(14), units(2), Weight(9)),
        ])
        .unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        tbl
    }

    fn readied_both(p: &mut dyn Scheduler, tbl: &TxnTable) {
        p.on_ready(TxnId(0), tbl, at(0));
        p.on_ready(TxnId(1), tbl, at(0));
    }

    #[test]
    fn fcfs_picks_earliest_arrival() {
        let mut p = Fcfs::new();
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
    }

    #[test]
    fn edf_picks_earliest_deadline() {
        let mut p = Edf::new();
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(1)));
    }

    #[test]
    fn srpt_picks_shortest_remaining() {
        let mut p = Srpt::new();
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
    }

    #[test]
    fn ls_picks_least_slack() {
        let mut p = LeastSlack::new();
        let tbl = readied(&mut p);
        // d-r: T0=28, T1=2, T2=16.
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(1)));
    }

    #[test]
    fn hdf_picks_highest_density() {
        let mut p = Hdf::new();
        let tbl = readied(&mut p);
        // densities: T0=0.5, T1=0.25, T2=2.25.
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(2)));
    }

    #[test]
    fn hdf_reduces_to_srpt_at_equal_weights() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(30), units(5), Weight(3)),
            TxnSpec::independent(at(0), at(30), units(2), Weight(3)),
            TxnSpec::independent(at(0), at(30), units(9), Weight(3)),
        ])
        .unwrap();
        let mut hdf = Hdf::new();
        let mut srpt = Srpt::new();
        for t in 0..3u32 {
            tbl.arrive(TxnId(t), at(0));
            hdf.on_ready(TxnId(t), &tbl, at(0));
            srpt.on_ready(TxnId(t), &tbl, at(0));
        }
        assert_eq!(hdf.select(&tbl, at(0)), srpt.select(&tbl, at(0)));
    }

    #[test]
    fn completion_removes_from_queue() {
        let mut p = Edf::new();
        let mut tbl = readied(&mut p);
        tbl.start_running(TxnId(1));
        tbl.complete(TxnId(1), at(10), units(8));
        p.on_complete(TxnId(1), &tbl, at(10));
        assert_eq!(
            p.select(&tbl, at(10)),
            Some(TxnId(2)),
            "next deadline after T1"
        );
    }

    #[test]
    fn srpt_requeue_reorders_after_partial_service() {
        // T1 (r=8) runs for 7 units, leaving r=1 < T0's r=2.
        let mut p = Srpt::new();
        let mut tbl = readied(&mut p);
        tbl.start_running(TxnId(1));
        tbl.preempt(TxnId(1), units(7));
        p.on_requeue(TxnId(1), &tbl, at(9));
        assert_eq!(p.select(&tbl, at(9)), Some(TxnId(1)));
    }

    #[test]
    fn ls_handles_negative_slack() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(1), units(10), Weight(1)), // d-r = -9
            TxnSpec::independent(at(0), at(100), units(1), Weight(1)), // d-r = 99
        ])
        .unwrap();
        let mut p = LeastSlack::new();
        for t in 0..2u32 {
            tbl.arrive(TxnId(t), at(0));
            p.on_ready(TxnId(t), &tbl, at(0));
        }
        assert_eq!(
            p.select(&tbl, at(0)),
            Some(TxnId(0)),
            "most negative slack first"
        );
    }

    #[test]
    fn select_many_ranks_top_k_without_popping() {
        let mut p = Edf::new();
        let tbl = readied(&mut p);
        let mut out = Vec::new();
        p.select_many(&tbl, at(2), 2, &mut out);
        assert_eq!(out, vec![TxnId(1), TxnId(2)], "deadlines 10 then 20");
        // Selection peeks: asking again yields the same (longer) ranking.
        let mut again = Vec::new();
        p.select_many(&tbl, at(2), 5, &mut again);
        assert_eq!(again, vec![TxnId(1), TxnId(2), TxnId(0)]);
        // A single slot agrees with plain select.
        let mut one = Vec::new();
        p.select_many(&tbl, at(2), 1, &mut one);
        assert_eq!(one, vec![p.select(&tbl, at(2)).unwrap()]);
    }

    #[test]
    fn default_select_many_fills_one_slot() {
        // Ready keeps the trait default via its inner ASETS policy: one
        // choice no matter how many slots are free.
        let mut p = Ready::new();
        let tbl = readied(&mut p);
        let mut out = Vec::new();
        p.select_many(&tbl, at(2), 3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], p.select(&tbl, at(2)).unwrap());
    }

    #[test]
    fn empty_policies_select_none() {
        let tbl = table();
        for p in [
            &mut Fcfs::new() as &mut dyn Scheduler,
            &mut Edf::new(),
            &mut Srpt::new(),
            &mut LeastSlack::new(),
            &mut Hdf::new(),
            &mut Mix::new(units(1)),
            &mut Hvf::new(),
            &mut Ready::new(),
        ] {
            assert_eq!(p.select(&tbl, at(0)), None);
        }
    }

    #[test]
    fn every_keyed_policy_records_its_decisions() {
        #[derive(Default)]
        struct Decisions(Vec<(DecisionRule, TxnId, u32)>);
        impl Observer for Decisions {
            fn decision(&mut self, rec: &DecisionRecord) {
                self.0.push((rec.rule, rec.chosen, rec.edf_len));
            }
        }
        for mut p in [
            Box::new(Fcfs::new()) as Box<dyn Scheduler>,
            Box::new(Edf::new()),
            Box::new(Srpt::new()),
            Box::new(LeastSlack::new()),
            Box::new(Hdf::new()),
            Box::new(Mix::new(units(1))),
            Box::new(Hvf::new()),
        ] {
            let rec = Rc::new(RefCell::new(Decisions::default()));
            p.attach_observer(share(&rec));
            let tbl = readied(&mut p);
            let chosen = p.select(&tbl, at(2)).unwrap();
            let mut ranked = Vec::new();
            p.select_many(&tbl, at(2), 2, &mut ranked);
            let expected: Vec<_> = std::iter::once(chosen)
                .chain(ranked)
                .map(|t| (DecisionRule::Priority, t, 3))
                .collect();
            assert_eq!(rec.borrow().0, expected, "{}", p.name());
        }
    }

    #[test]
    fn gamma_zero_is_edf() {
        let tbl = value_table();
        let mut p = Mix::new(SimDuration::ZERO);
        readied_both(&mut p, &tbl);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)), "earliest deadline");
    }

    #[test]
    fn large_gamma_prefers_value() {
        let tbl = value_table();
        // γ=1: keys 10−1=9 vs 14−9=5 → the heavy transaction wins despite
        // the later deadline.
        let mut p = Mix::new(units(1));
        readied_both(&mut p, &tbl);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
        assert_eq!(p.gamma(), units(1));
    }

    #[test]
    fn key_can_go_negative() {
        let mut tbl = TxnTable::new(vec![TxnSpec::independent(
            at(0),
            at(1),
            units(1),
            Weight(10),
        )])
        .unwrap();
        let mut p = Mix::new(units(1000));
        tbl.arrive(TxnId(0), at(0));
        p.on_ready(TxnId(0), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn completion_removes() {
        for mut p in [
            Box::new(Mix::new(units(1))) as Box<dyn Scheduler>,
            Box::new(Hvf::new()),
        ] {
            let mut tbl = value_table();
            readied_both(&mut p, &tbl);
            tbl.start_running(TxnId(1));
            tbl.complete(TxnId(1), at(2), units(2));
            p.on_complete(TxnId(1), &tbl, at(2));
            assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)), "{}", p.name());
        }
    }

    #[test]
    fn hvf_picks_heaviest_regardless_of_deadline() {
        let tbl = value_table(); // T0: d=10 w=1; T1: d=14 w=9
        let mut p = Hvf::new();
        readied_both(&mut p, &tbl);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
    }

    #[test]
    fn hvf_ties_break_by_id() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(10), units(2), Weight(5)),
            TxnSpec::independent(at(0), at(5), units(2), Weight(5)),
        ])
        .unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        let mut p = Hvf::new();
        readied_both(&mut p, &tbl);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }
}
