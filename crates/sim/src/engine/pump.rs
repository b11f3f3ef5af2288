//! The event pump: time bookkeeping and batched arrival delivery.
//!
//! The pump owns the arrival source and the clock (`now` plus the instant
//! of the previous scheduling point). It decides *when* the next scheduling
//! point is — folding the pool's earliest completion, the next arrival and
//! the policy wake-up through [`next_event`] — and hands the engine every
//! arrival due at that instant in one batch. It knows nothing about servers
//! or policies, which is what lets the dispatch layer grow to M servers
//! without touching time semantics.
//!
//! Since PR 8 the contract is a trait, [`Pump`]: the simulated
//! [`EventPump`] (the default — every determinism pin runs through it
//! unchanged) and the wall-clock [`crate::live::LivePump`] are the two
//! implementations. The engine is generic over the pump, so the simulated
//! hot path monomorphizes exactly as before.

use crate::events::{next_event, ArrivalSchedule, EventKind};
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::{TxnId, TxnSpec};

/// The time/arrival seam of the engine: who decides *when* the next
/// scheduling point fires and *which* arrivals are due at it.
///
/// The contract mirrors what [`EventPump`] always exposed:
///
/// * [`Pump::now`] / [`Pump::advance`] — the clock;
/// * [`Pump::next_point`] — fold the dispatch layer's earliest completion
///   and the policy wake-up with the pump's own next arrival into the next
///   scheduling point (tie order: completion > arrival > wakeup);
/// * [`Pump::take_due_into`] / [`Pump::exhausted`] — batched arrival
///   delivery;
/// * the calendar-surgery ops ([`Pump::retain_arrivals`],
///   [`Pump::extract_arrivals`], [`Pump::admit_arrivals`]) the rebalanced
///   sharded runtime uses for epoch migration.
///
/// `REAL_TIME` distinguishes the wall-clock pump: the engine rebases
/// arrival specs to the delivery instant (an online request's SLA clock
/// starts when it is admitted, not at a pre-generated nominal time) and
/// treats a drained pump as normal termination instead of a stall. For the
/// simulated pump the flag is `false` and both branches constant-fold away
/// — bit-identical behavior, which `tests/determinism_snapshot.rs` pins.
pub trait Pump {
    /// True for wall-clock pumps: arrivals are rebased to their delivery
    /// instant and a drained pump ends the run instead of panicking.
    const REAL_TIME: bool = false;

    /// The current instant.
    fn now(&self) -> SimTime;

    /// The next scheduling point given the dispatch layer's earliest
    /// completion and the policy's wake-up request, or `None` when no event
    /// is pending anywhere. A real-time pump may block here (waiting for
    /// the wall clock or for ingest); the simulated pump never does.
    fn next_point(
        &mut self,
        completion: Option<SimTime>,
        wakeup: Option<SimTime>,
    ) -> Option<(SimTime, EventKind)>;

    /// Advance the clock to `t` (the scheduling point being processed) and
    /// return the gap since the previous point — the duration an empty
    /// server sat idle.
    fn advance(&mut self, t: SimTime) -> SimDuration;

    /// Append every arrival due at the current instant to `due`.
    fn take_due_into(&mut self, due: &mut Vec<TxnId>);

    /// True iff every arrival has been delivered (for a real-time pump:
    /// ingest has shut down and nothing is buffered).
    fn exhausted(&self) -> bool;

    /// The engine completed transaction `t`. Real-time pumps use this to
    /// track in-flight work for admission control; the simulated pump
    /// ignores it (the default is a no-op the optimizer deletes).
    #[inline]
    fn note_completed(&mut self, _t: TxnId) {}

    /// Restrict the calendar to arrivals passing `keep` (rebalanced
    /// sharding: each shard's pump delivers only its owned transactions).
    fn retain_arrivals(&mut self, keep: &mut dyn FnMut(TxnId) -> bool);

    /// Extract the pending arrivals of `ids` (sorted ascending) for
    /// migration to another shard's pump; appends the entries to `out`.
    fn extract_arrivals(&mut self, ids: &[TxnId], out: &mut Vec<(SimTime, TxnId)>);

    /// Admit arrival entries extracted from another shard's pump.
    fn admit_arrivals(&mut self, entries: &[(SimTime, TxnId)]);
}

/// A [`Pump`] that can be built from a spec batch — what the runner and
/// the sharded runtime need to construct engines themselves. The
/// wall-clock pump is deliberately *not* one of these: it is built from a
/// live front-end (rings, admission config), not from a calendar.
pub trait SpecPump: Pump + Sized {
    /// A pump whose arrival calendar is the batch's declared arrivals.
    fn from_specs(specs: &[TxnSpec]) -> Self;
}

/// Clock and arrival-source for one engine, in simulated time.
#[derive(Debug)]
pub struct EventPump {
    arrivals: ArrivalSchedule,
    now: SimTime,
    last_event: SimTime,
}

impl EventPump {
    /// A pump over the batch's arrival schedule, starting at time zero.
    pub fn new(specs: &[TxnSpec]) -> EventPump {
        EventPump {
            arrivals: ArrivalSchedule::new(specs),
            now: SimTime::ZERO,
            last_event: SimTime::ZERO,
        }
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The next scheduling point given the dispatch layer's earliest
    /// completion and the policy wake-up request, or `None` when no event
    /// is pending anywhere (which the engine treats as a stall if work
    /// remains). Tie order per [`next_event`]: completion, arrival, wakeup.
    /// Borrows `&self`: peeking never moves the clock.
    pub fn peek_point(
        &self,
        completion: Option<SimTime>,
        wakeup: Option<SimTime>,
    ) -> Option<(SimTime, EventKind)> {
        next_event(completion, self.arrivals.peek_time(), wakeup)
    }

    /// Advance the clock to `t` (the scheduling point being processed) and
    /// return the gap since the previous point.
    pub fn advance(&mut self, t: SimTime) -> SimDuration {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        let gap = t - self.last_event;
        self.last_event = t;
        gap
    }

    /// Deliver every arrival due at the current instant into a caller-owned
    /// buffer (appends), in id order.
    pub fn take_due_into(&mut self, due: &mut Vec<TxnId>) {
        self.arrivals.pop_due_into(self.now, due);
    }

    /// True iff every arrival has been delivered.
    pub fn exhausted(&self) -> bool {
        self.arrivals.exhausted()
    }

    /// Restrict the calendar to arrivals passing `keep` (rebalanced
    /// sharding: each shard's pump delivers only its owned transactions).
    pub fn retain_arrivals(&mut self, keep: impl FnMut(TxnId) -> bool) {
        self.arrivals.retain(keep);
    }

    /// Extract the pending arrivals of `ids` (sorted ascending) for
    /// migration to another shard's pump; appends the entries to `out`.
    pub fn extract_arrivals(&mut self, ids: &[TxnId], out: &mut Vec<(SimTime, TxnId)>) {
        self.arrivals.extract_pending(ids, out);
    }

    /// Admit arrival entries extracted from another shard's pump.
    pub fn admit_arrivals(&mut self, entries: &[(SimTime, TxnId)]) {
        self.arrivals.admit(entries);
    }
}

impl Pump for EventPump {
    fn now(&self) -> SimTime {
        EventPump::now(self)
    }

    fn next_point(
        &mut self,
        completion: Option<SimTime>,
        wakeup: Option<SimTime>,
    ) -> Option<(SimTime, EventKind)> {
        EventPump::peek_point(self, completion, wakeup)
    }

    fn advance(&mut self, t: SimTime) -> SimDuration {
        EventPump::advance(self, t)
    }

    fn take_due_into(&mut self, due: &mut Vec<TxnId>) {
        EventPump::take_due_into(self, due);
    }

    fn exhausted(&self) -> bool {
        EventPump::exhausted(self)
    }

    fn retain_arrivals(&mut self, keep: &mut dyn FnMut(TxnId) -> bool) {
        EventPump::retain_arrivals(self, keep);
    }

    fn extract_arrivals(&mut self, ids: &[TxnId], out: &mut Vec<(SimTime, TxnId)>) {
        EventPump::extract_arrivals(self, ids, out);
    }

    fn admit_arrivals(&mut self, entries: &[(SimTime, TxnId)]) {
        EventPump::admit_arrivals(self, entries);
    }
}

impl SpecPump for EventPump {
    fn from_specs(specs: &[TxnSpec]) -> EventPump {
        EventPump::new(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{at, ind, units};

    /// Drain the due batch through the zero-alloc path (the engine always
    /// goes through `take_due_into` with a reused buffer).
    fn due_of(pump: &mut EventPump) -> Vec<TxnId> {
        let mut due = Vec::new();
        pump.take_due_into(&mut due);
        due
    }

    #[test]
    fn advance_tracks_gap_between_points() {
        let mut pump = EventPump::new(&[ind(0, 10, 1), ind(7, 20, 1)]);
        assert_eq!(pump.advance(at(0)), units(0));
        assert_eq!(due_of(&mut pump), vec![TxnId(0)]);
        assert_eq!(pump.advance(at(7)), units(7), "gap since previous point");
        assert_eq!(due_of(&mut pump), vec![TxnId(1)]);
        assert!(pump.exhausted());
    }

    #[test]
    fn next_point_folds_all_three_sources() {
        let pump = EventPump::new(&[ind(5, 10, 1)]);
        // Completion beats the later arrival; arrival beats the later wakeup.
        let (t, kind) = pump.peek_point(Some(at(3)), Some(at(9))).unwrap();
        assert_eq!((t, kind), (at(3), EventKind::Completion));
        let (t, kind) = pump.peek_point(None, Some(at(9))).unwrap();
        assert_eq!((t, kind), (at(5), EventKind::Arrival));
    }

    #[test]
    fn trait_and_inherent_paths_agree() {
        let mut a = EventPump::new(&[ind(0, 10, 1), ind(3, 20, 1)]);
        let mut b = EventPump::new(&[ind(0, 10, 1), ind(3, 20, 1)]);
        let via_trait = Pump::next_point(&mut a, None, None);
        let via_peek = b.peek_point(None, None);
        assert_eq!(via_trait, via_peek);
        Pump::advance(&mut a, at(0));
        b.advance(at(0));
        let mut da = Vec::new();
        let mut db = Vec::new();
        Pump::take_due_into(&mut a, &mut da);
        b.take_due_into(&mut db);
        assert_eq!(da, db);
        assert_eq!(Pump::exhausted(&a), b.exhausted());
    }
}
