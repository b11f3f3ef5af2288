//! The timing adapter: a [`Scheduler`] that wraps the policy under test and
//! times every call into it from outside.
//!
//! The adapter delivers each scheduling point's lifecycle events to the
//! inner policy as one [`Scheduler::on_batch`] call, made right before the
//! point's selection. That is exactly the call sequence the epoch-batched
//! engine behind `simulate` makes (table mutations first, one maintain pass,
//! then select), whichever engine arm `Engine::new` drives: per-event hooks
//! are buffered in engine order and handed over together, batch hooks pass
//! straight through. The inner policy therefore sees the same calls, with
//! the same table state, as in the untraced run, and the traced run's
//! schedule is bit-identical to it — which every traced run re-checks.

use asets_core::obs::SharedObserver;
use asets_core::policy::{AsetsStar, LifecycleEvent, Scheduler};
use asets_core::table::TxnTable;
use asets_core::time::SimTime;
use asets_core::txn::TxnId;
use std::time::Instant;

/// Wall-clock stamps for one transaction, in nanoseconds since the
/// adapter's base instant (0 = not yet seen).
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnStamps {
    /// The policy first heard of the transaction (its arrival event).
    pub delivered_ns: u64,
    /// The policy first chose the transaction.
    pub chosen_ns: u64,
}

/// What the adapter measured.
#[derive(Debug, Default, Clone)]
pub struct PolicyClock {
    /// Wall time of each maintain pass (one per point with events).
    pub maintain_ns: Vec<u64>,
    /// Lifecycle events handed to maintain passes.
    pub maintain_events: u64,
    /// Wall time of each `select`/`select_many` call.
    pub select_ns: Vec<u64>,
}

impl PolicyClock {
    /// Total maintain time, seconds.
    pub fn maintain_s(&self) -> f64 {
        self.maintain_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Total select time, seconds.
    pub fn select_s(&self) -> f64 {
        self.select_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Fold another clock into this one.
    pub fn absorb(&mut self, other: PolicyClock) {
        self.maintain_ns.extend(other.maintain_ns);
        self.maintain_events += other.maintain_events;
        self.select_ns.extend(other.select_ns);
    }
}

/// The timing adapter around policy `S`.
pub struct Timed<S> {
    inner: S,
    pending: Vec<LifecycleEvent>,
    clock: PolicyClock,
    base: Instant,
    stamps: Option<Vec<TxnStamps>>,
}

impl<S: Scheduler> Timed<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            pending: Vec::new(),
            clock: PolicyClock::default(),
            base: Instant::now(),
            stamps: None,
        }
    }

    /// Also stamp each of `n` transactions' delivery and first choice,
    /// relative to `base`.
    pub fn with_stamps(mut self, n: usize, base: Instant) -> Timed<S> {
        self.base = base;
        self.stamps = Some(vec![TxnStamps::default(); n]);
        self
    }

    /// The measurements so far.
    pub fn clock(&self) -> &PolicyClock {
        &self.clock
    }

    /// Per-transaction stamps, indexed by transaction (empty unless
    /// built [`Timed::with_stamps`]).
    pub fn stamps(&self) -> &[TxnStamps] {
        self.stamps.as_deref().unwrap_or(&[])
    }

    fn since_base(&self, at: Instant) -> u64 {
        (at.duration_since(self.base).as_nanos() as u64).max(1)
    }

    /// Hand the buffered events of this point to the policy in one pass.
    fn flush(&mut self, table: &TxnTable, now: SimTime) {
        if self.pending.is_empty() {
            return;
        }
        let started = Instant::now();
        self.inner.on_batch(&self.pending, table, now);
        let ended = Instant::now();
        self.clock
            .maintain_ns
            .push(ended.duration_since(started).as_nanos() as u64);
        self.clock.maintain_events += self.pending.len() as u64;
        let stamp = self.since_base(started);
        if let Some(stamps) = &mut self.stamps {
            for ev in &self.pending {
                if let LifecycleEvent::Ready(t) | LifecycleEvent::BlockedArrival(t) = *ev {
                    let s = &mut stamps[t.index()];
                    if s.delivered_ns == 0 {
                        s.delivered_ns = stamp;
                    }
                }
            }
        }
        self.pending.clear();
    }

    fn stamp_chosen(&mut self, chosen: &[TxnId], at: Instant) {
        let stamp = self.since_base(at);
        let Some(stamps) = &mut self.stamps else {
            return;
        };
        for t in chosen {
            let s = &mut stamps[t.index()];
            if s.chosen_ns == 0 {
                s.chosen_ns = stamp;
            }
        }
    }
}

impl Timed<AsetsStar> {
    /// Decisions ASETS\* answered from its decision cache.
    pub fn cache_hits(&self) -> u64 {
        self.inner.decision_cache_hits()
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_ready(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.pending.push(LifecycleEvent::Ready(t));
    }

    fn on_blocked_arrival(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.pending.push(LifecycleEvent::BlockedArrival(t));
    }

    fn on_requeue(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.pending.push(LifecycleEvent::Requeue(t));
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.pending.push(LifecycleEvent::Complete(t));
    }

    fn on_batch(&mut self, events: &[LifecycleEvent], _table: &TxnTable, _now: SimTime) {
        self.pending.extend_from_slice(events);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.flush(table, now);
        let started = Instant::now();
        let chosen = self.inner.select(table, now);
        let ended = Instant::now();
        self.clock
            .select_ns
            .push(ended.duration_since(started).as_nanos() as u64);
        if let Some(t) = chosen {
            self.stamp_chosen(&[t], ended);
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        self.flush(table, now);
        let before = out.len();
        let started = Instant::now();
        self.inner.select_many(table, now, slots, out);
        let ended = Instant::now();
        self.clock
            .select_ns
            .push(ended.duration_since(started).as_nanos() as u64);
        self.stamp_chosen(&out[before..], ended);
    }

    fn steal_candidates(&self, table: &TxnTable, now: SimTime, k: usize, out: &mut Vec<TxnId>) {
        debug_assert!(self.pending.is_empty(), "steal sweep between points");
        self.inner.steal_candidates(table, now, k, out);
    }

    fn on_stolen(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.flush(table, now);
        self.inner.on_stolen(t, table, now);
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wakeup(now)
    }

    fn attach_observer(&mut self, obs: SharedObserver) {
        self.inner.attach_observer(obs);
    }
}
