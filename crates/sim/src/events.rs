//! The simulator's event calendar.
//!
//! Only three things can create a scheduling point (paper §III-A.2: "ASETS\*
//! needs only to be invoked in response to two types of events, the arrival
//! and the completion of a transaction", plus the §III-D activation timer):
//!
//! * **arrivals** — known up front from the workload, kept in a sorted
//!   cursor rather than a heap;
//! * **completion of the running transaction** — derived (`dispatch time +
//!   remaining`), never stored: a preemption would invalidate it;
//! * **policy wake-ups** — queried from [`asets_core::policy::Scheduler::next_wakeup`].
//!
//! [`ArrivalSchedule`] validates and sorts the arrival stream once;
//! [`next_event`] folds the three sources into the next instant to advance
//! to, with a deterministic priority for simultaneous events.

use asets_core::time::SimTime;
use asets_core::txn::{TxnId, TxnSpec};

/// The reason the engine advanced to an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The running transaction finishes exactly now.
    Completion,
    /// At least one transaction arrives now.
    Arrival,
    /// The policy asked to be woken now (activation timer).
    Wakeup,
}

/// Pre-sorted arrival stream with a consuming cursor.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    /// `(arrival time, id)`, ascending; ties by id for determinism.
    order: Vec<(SimTime, TxnId)>,
    next: usize,
}

impl ArrivalSchedule {
    /// Build from the batch's specs (`specs[i]` describes `TxnId(i)`).
    pub fn new(specs: &[TxnSpec]) -> ArrivalSchedule {
        let mut order: Vec<(SimTime, TxnId)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.arrival, TxnId(i as u32)))
            .collect();
        order.sort_unstable();
        ArrivalSchedule { order, next: 0 }
    }

    /// The instant of the next not-yet-delivered arrival.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.order.get(self.next).map(|&(t, _)| t)
    }

    /// Deliver every arrival at or before `now`, in (time, id) order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<TxnId> {
        let mut due = Vec::new();
        self.pop_due_into(now, &mut due);
        due
    }

    /// [`ArrivalSchedule::pop_due`] into a caller-owned buffer (appends),
    /// so the engine's steady state can reuse one allocation.
    pub fn pop_due_into(&mut self, now: SimTime, due: &mut Vec<TxnId>) {
        while let Some(&(t, id)) = self.order.get(self.next) {
            if t > now {
                break;
            }
            due.push(id);
            self.next += 1;
        }
    }

    /// Number of arrivals not yet delivered.
    #[inline]
    pub fn pending(&self) -> usize {
        self.order.len() - self.next
    }

    /// True iff every arrival has been delivered.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.next == self.order.len()
    }

    /// Drop every not-yet-delivered arrival whose id fails `keep`. Used by
    /// the rebalanced sharded runtime to restrict a full-batch calendar to
    /// the shard's owned transactions; already-delivered entries are
    /// untouched.
    pub fn retain(&mut self, mut keep: impl FnMut(TxnId) -> bool) {
        let mut write = self.next;
        for read in self.next..self.order.len() {
            if keep(self.order[read].1) {
                self.order.swap(write, read);
                write += 1;
            }
        }
        self.order.truncate(write);
    }

    /// Remove the pending arrivals of `ids` (sorted ascending, deduplicated)
    /// and append the extracted `(time, id)` entries to `out`. Entries of
    /// ids that are not pending are ignored. The remaining calendar stays
    /// sorted — extraction compacts in place.
    pub fn extract_pending(&mut self, ids: &[TxnId], out: &mut Vec<(SimTime, TxnId)>) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let mut write = self.next;
        for read in self.next..self.order.len() {
            let (t, id) = self.order[read];
            if ids.binary_search(&id).is_ok() {
                out.push((t, id));
            } else {
                self.order[write] = (t, id);
                write += 1;
            }
        }
        self.order.truncate(write);
    }

    /// Admit arrival entries for transactions another shard handed over.
    ///
    /// # Panics
    /// If any entry is not strictly in the future of the cursor (admitting
    /// an already-due arrival would silently never deliver it).
    pub fn admit(&mut self, entries: &[(SimTime, TxnId)]) {
        if entries.is_empty() {
            return;
        }
        if self.next > 0 {
            let cursor = self.order[self.next - 1].0;
            for &(t, _) in entries {
                assert!(
                    t >= cursor,
                    "admitted arrival at {t} behind the delivered cursor {cursor}"
                );
            }
        }
        self.order.extend_from_slice(entries);
        self.order[self.next..].sort_unstable();
    }
}

/// Fold the three event sources into the next instant to advance to.
///
/// Simultaneous events are merged into a single scheduling point; the
/// returned [`EventKind`] reports the highest-priority reason
/// (completion > arrival > wakeup) purely for tracing.
pub fn next_event(
    completion: Option<SimTime>,
    next_arrival: Option<SimTime>,
    wakeup: Option<SimTime>,
) -> Option<(SimTime, EventKind)> {
    let mut best: Option<(SimTime, EventKind)> = None;
    // Order of the candidates encodes the tie priority.
    for (t, kind) in [
        (completion, EventKind::Completion),
        (next_arrival, EventKind::Arrival),
        (wakeup, EventKind::Wakeup),
    ]
    .into_iter()
    .filter_map(|(t, k)| t.map(|t| (t, k)))
    {
        match best {
            None => best = Some((t, kind)),
            Some((bt, _)) if t < bt => best = Some((t, kind)),
            _ => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_core::time::SimDuration;
    use asets_core::txn::Weight;

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn spec(arrival: u64) -> TxnSpec {
        TxnSpec::independent(
            at(arrival),
            at(arrival + 10),
            SimDuration::from_units_int(1),
            Weight::ONE,
        )
    }

    #[test]
    fn arrivals_sorted_with_id_ties() {
        let mut sched = ArrivalSchedule::new(&[spec(5), spec(1), spec(5), spec(0)]);
        assert_eq!(sched.peek_time(), Some(at(0)));
        assert_eq!(sched.pop_due(at(1)), vec![TxnId(3), TxnId(1)]);
        assert_eq!(sched.pop_due(at(5)), vec![TxnId(0), TxnId(2)], "ties by id");
        assert!(sched.exhausted());
        assert_eq!(sched.pop_due(at(99)), Vec::<TxnId>::new());
    }

    #[test]
    fn pop_due_is_exclusive_of_future() {
        let mut sched = ArrivalSchedule::new(&[spec(3)]);
        assert!(sched.pop_due(at(2)).is_empty());
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.pop_due(at(3)), vec![TxnId(0)]);
    }

    #[test]
    fn next_event_takes_min() {
        assert_eq!(
            next_event(Some(at(9)), Some(at(4)), None),
            Some((at(4), EventKind::Arrival))
        );
        assert_eq!(
            next_event(Some(at(2)), Some(at(4)), Some(at(3))),
            Some((at(2), EventKind::Completion))
        );
        assert_eq!(next_event(None, None, None), None);
    }

    #[test]
    fn simultaneous_events_prefer_completion() {
        assert_eq!(
            next_event(Some(at(5)), Some(at(5)), Some(at(5))),
            Some((at(5), EventKind::Completion))
        );
        assert_eq!(
            next_event(None, Some(at(5)), Some(at(5))),
            Some((at(5), EventKind::Arrival))
        );
    }

    #[test]
    fn empty_schedule() {
        let sched = ArrivalSchedule::new(&[]);
        assert!(sched.exhausted());
        assert_eq!(sched.peek_time(), None);
    }
}
