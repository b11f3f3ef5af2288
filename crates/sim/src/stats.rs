//! Run-level statistics beyond the per-transaction metrics.
//!
//! These let experiments report the *mechanics* of a run — how many
//! scheduling points fired, how often the server actually switched
//! transactions, how much of the horizon the (single) server was busy —
//! which is what the O(log n) overhead bench and the work-conservation
//! invariants are written against.

use asets_core::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One backlog sample taken at a scheduling point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BacklogSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Transactions ready to run (including the one about to be dispatched).
    pub ready: u32,
    /// Transactions arrived but blocked on predecessors.
    pub blocked: u32,
    /// Ready transactions that can no longer meet their deadline — the
    /// "domino" population EDF mishandles (§III-A).
    pub infeasible: u32,
}

/// A backlog time series sampled at scheduling points, at most one sample
/// per `interval` of simulated time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BacklogSeries {
    /// Samples in time order.
    pub samples: Vec<BacklogSample>,
}

impl BacklogSeries {
    /// Whether a sample taken at `at` would be accepted under the throttle:
    /// the series admits at most one sample per `interval`, measured from
    /// the previous *accepted* sample.
    pub fn due(&self, interval: SimDuration, at: SimTime) -> bool {
        match self.samples.last() {
            None => true,
            Some(last) => at >= last.at + interval,
        }
    }

    /// Append `sample` iff the throttle allows it; returns whether the
    /// sample was accepted. Callers that compute samples lazily can test
    /// [`BacklogSeries::due`] first and skip the work entirely.
    pub fn record(&mut self, interval: SimDuration, sample: BacklogSample) -> bool {
        if !self.due(interval, sample.at) {
            return false;
        }
        self.samples.push(sample);
        true
    }

    /// Merge per-shard series into one time-ordered series. Samples are
    /// interleaved by instant with ties broken by part index (a stable
    /// k-way merge), so merging a single series is the identity and peaks
    /// over the merged series equal the max of the per-part peaks.
    ///
    /// Note the semantics: each shard samples *its own* backlog, so the
    /// merged series reports per-shard queue depths on a shared timeline,
    /// not the instantaneous global backlog (shards sample at their own
    /// scheduling points, which generally differ).
    pub fn merge(parts: &[BacklogSeries]) -> BacklogSeries {
        let mut cursors: Vec<std::slice::Iter<'_, BacklogSample>> =
            parts.iter().map(|p| p.samples.iter()).collect();
        let mut heads: Vec<Option<&BacklogSample>> = cursors.iter_mut().map(|c| c.next()).collect();
        let total: usize = parts.iter().map(|p| p.samples.len()).sum();
        let mut merged = Vec::with_capacity(total);
        while let Some(i) = heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|s| (s.at, i)))
            .min()
            .map(|(_, i)| i)
        {
            merged.push(*heads[i].expect("selected head present"));
            heads[i] = cursors[i].next();
        }
        BacklogSeries { samples: merged }
    }

    /// Largest ready backlog observed.
    pub fn peak_ready(&self) -> u32 {
        self.samples.iter().map(|s| s.ready).max().unwrap_or(0)
    }

    /// Largest infeasible population observed.
    pub fn peak_infeasible(&self) -> u32 {
        self.samples.iter().map(|s| s.infeasible).max().unwrap_or(0)
    }
}

/// Mechanical statistics of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Scheduling points processed (arrivals + completions + wakeups,
    /// merged per instant).
    pub scheduling_points: u64,
    /// Times the server switched away from a paused transaction that still
    /// had work left (genuine preemptions).
    pub preemptions: u64,
    /// Times a `select` returned a transaction (dispatches, including
    /// resuming the same transaction after a pause).
    pub dispatches: u64,
    /// Total time the server spent executing transactions.
    pub busy: SimDuration,
    /// Total time the server sat idle with work still pending in the future.
    pub idle: SimDuration,
    /// Instant the last transaction completed.
    pub makespan: SimTime,
    /// Number of transactions completed (must equal the batch size at the
    /// end of a run).
    pub completed: u64,
}

impl RunStats {
    /// Server utilization over the makespan: `busy / makespan`
    /// (1.0 for an empty run to make the invariant `busy + idle = makespan`
    /// trivially consistent).
    pub fn utilization(&self) -> f64 {
        let horizon = self.makespan.since_origin();
        if horizon.is_zero() {
            1.0
        } else {
            self.busy.as_units() / horizon.as_units()
        }
    }

    /// Merge per-shard (or per-server-pool) run statistics: counters and
    /// busy/idle durations add, the makespan is the latest completion across
    /// parts. Merging a single part is the identity, so the K=1 sharded
    /// runtime reports exactly its engine's stats.
    ///
    /// `busy`/`idle` become *aggregate server-time* across all shards'
    /// servers — the work-conservation invariant generalizes to
    /// `busy + idle = Σ_shards (servers · local makespan horizon)`, not to
    /// the merged makespan.
    pub fn merge(parts: &[RunStats]) -> RunStats {
        let mut acc = RunStats::default();
        for p in parts {
            acc.scheduling_points += p.scheduling_points;
            acc.preemptions += p.preemptions;
            acc.dispatches += p.dispatches;
            acc.busy += p.busy;
            acc.idle += p.idle;
            acc.makespan = acc.makespan.max(p.makespan);
            acc.completed += p.completed;
        }
        acc
    }
}

/// Epoch mechanics of a run — how much same-instant work each scheduling
/// point coalesced into one `Scheduler::on_batch` maintain pass. Kept
/// *outside* [`RunStats`], which records what the schedule did rather than
/// how the engine grouped the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epochs processed — one per scheduling point.
    pub epochs: u64,
    /// Lifecycle events (completions, readies, requeues, blocked arrivals)
    /// delivered across all epochs.
    pub events: u64,
    /// Largest number of lifecycle events coalesced into a single epoch.
    pub max_epoch_width: u32,
}

impl EpochStats {
    /// Fold one epoch of `width` events into the totals.
    #[inline]
    pub fn note(&mut self, width: u32) {
        self.epochs += 1;
        self.events += width as u64;
        self.max_epoch_width = self.max_epoch_width.max(width);
    }

    /// Merge per-shard epoch stats: counters add, the width peak is the
    /// max across parts (shards coalesce their own instants).
    pub fn merge(parts: &[EpochStats]) -> EpochStats {
        let mut acc = EpochStats::default();
        for p in parts {
            acc.epochs += p.epochs;
            acc.events += p.events;
            acc.max_epoch_width = acc.max_epoch_width.max(p.max_epoch_width);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_makespan() {
        let s = RunStats {
            busy: SimDuration::from_units_int(30),
            idle: SimDuration::from_units_int(10),
            makespan: SimTime::from_units_int(40),
            ..RunStats::default()
        };
        assert!((s.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_run_utilization_is_defined() {
        assert_eq!(RunStats::default().utilization(), 1.0);
    }

    #[test]
    fn backlog_series_peaks() {
        let series = BacklogSeries {
            samples: vec![
                BacklogSample {
                    at: SimTime::ZERO,
                    ready: 2,
                    blocked: 1,
                    infeasible: 0,
                },
                BacklogSample {
                    at: SimTime::from_units_int(5),
                    ready: 7,
                    blocked: 0,
                    infeasible: 4,
                },
                BacklogSample {
                    at: SimTime::from_units_int(9),
                    ready: 3,
                    blocked: 2,
                    infeasible: 1,
                },
            ],
        };
        assert_eq!(series.peak_ready(), 7);
        assert_eq!(series.peak_infeasible(), 4);
        assert_eq!(BacklogSeries::default().peak_ready(), 0);
    }

    #[test]
    fn run_stats_merge_sums_counters_and_maxes_makespan() {
        let a = RunStats {
            scheduling_points: 10,
            preemptions: 2,
            dispatches: 12,
            busy: SimDuration::from_units_int(30),
            idle: SimDuration::from_units_int(5),
            makespan: SimTime::from_units_int(35),
            completed: 8,
        };
        let b = RunStats {
            scheduling_points: 4,
            preemptions: 1,
            dispatches: 5,
            busy: SimDuration::from_units_int(9),
            idle: SimDuration::from_units_int(1),
            makespan: SimTime::from_units_int(50),
            completed: 3,
        };
        let m = RunStats::merge(&[a.clone(), b]);
        assert_eq!(m.scheduling_points, 14);
        assert_eq!(m.preemptions, 3);
        assert_eq!(m.dispatches, 17);
        assert_eq!(m.busy, SimDuration::from_units_int(39));
        assert_eq!(m.idle, SimDuration::from_units_int(6));
        assert_eq!(m.makespan, SimTime::from_units_int(50));
        assert_eq!(m.completed, 11);
        // Identity: merging one part changes nothing.
        assert_eq!(RunStats::merge(std::slice::from_ref(&a)), a);
        assert_eq!(RunStats::merge(&[]), RunStats::default());
    }

    #[test]
    fn backlog_merge_interleaves_by_time_stably() {
        let s = |u: u64, ready: u32| BacklogSample {
            at: SimTime::from_units_int(u),
            ready,
            blocked: 0,
            infeasible: 0,
        };
        let a = BacklogSeries {
            samples: vec![s(0, 1), s(5, 3)],
        };
        let b = BacklogSeries {
            samples: vec![s(0, 2), s(3, 4), s(9, 1)],
        };
        let m = BacklogSeries::merge(&[a.clone(), b]);
        let got: Vec<(u64, u32)> = m.samples.iter().map(|x| (x.at.ticks(), x.ready)).collect();
        assert_eq!(
            got,
            vec![
                (0, 1), // tie at t=0 resolves to part 0 first
                (0, 2),
                (3_000_000, 4),
                (5_000_000, 3),
                (9_000_000, 1)
            ]
        );
        assert_eq!(m.peak_ready(), 4, "peak equals max of part peaks");
        // Identity on a single part.
        assert_eq!(BacklogSeries::merge(std::slice::from_ref(&a)), a);
        assert_eq!(BacklogSeries::merge(&[]), BacklogSeries::default());
    }

    #[test]
    fn backlog_merge_of_misaligned_throttles_is_sorted_and_lossless() {
        // Two shards sampling under the same 1-unit throttle but with
        // misaligned clocks: shard A records on unit boundaries t, shard B
        // one tick later at t+ε. Every record() is accepted (ε keeps each
        // shard's own spacing ≥ interval) and the merged stream must be
        // strictly sorted — one sample per instant — with nothing dropped.
        let interval = SimDuration::from_units_int(1);
        let sample = |ticks: u64, ready: u32| BacklogSample {
            at: SimTime::from_ticks(ticks),
            ready,
            blocked: ready / 2,
            infeasible: ready / 3,
        };
        let unit = SimDuration::from_units_int(1).ticks();
        let (mut a, mut b) = (BacklogSeries::default(), BacklogSeries::default());
        for i in 0..10u64 {
            assert!(a.record(interval, sample(i * unit, (i % 4) as u32 + 1)));
            assert!(b.record(interval, sample(i * unit + 1, (i % 3) as u32 + 2)));
        }
        let m = BacklogSeries::merge(&[a.clone(), b.clone()]);
        // Nothing dropped: merged length is the sum of the parts.
        assert_eq!(m.samples.len(), a.samples.len() + b.samples.len());
        // Sorted, and deduped per instant: ε-offsets never collide, so the
        // order is strictly increasing.
        for w in m.samples.windows(2) {
            assert!(w[0].at < w[1].at, "duplicate or out-of-order instant");
        }
        // Per-shard totals survive the merge exactly.
        let totals = |s: &BacklogSeries| {
            s.samples.iter().fold((0u64, 0u64, 0u64), |acc, x| {
                (
                    acc.0 + u64::from(x.ready),
                    acc.1 + u64::from(x.blocked),
                    acc.2 + u64::from(x.infeasible),
                )
            })
        };
        let (ta, tb, tm) = (totals(&a), totals(&b), totals(&m));
        assert_eq!(tm, (ta.0 + tb.0, ta.1 + tb.1, ta.2 + tb.2));
        assert_eq!(m.peak_ready(), a.peak_ready().max(b.peak_ready()));
    }

    #[test]
    fn record_throttles_to_one_sample_per_interval() {
        let interval = SimDuration::from_units_int(5);
        let sample = |u: u64| BacklogSample {
            at: SimTime::from_units_int(u),
            ready: 1,
            blocked: 0,
            infeasible: 0,
        };
        let mut series = BacklogSeries::default();
        // First sample always accepted.
        assert!(series.due(interval, SimTime::ZERO));
        assert!(series.record(interval, sample(0)));
        // Within the interval: rejected, series unchanged.
        assert!(!series.due(interval, SimTime::from_units_int(4)));
        assert!(!series.record(interval, sample(4)));
        assert_eq!(series.samples.len(), 1);
        // Exactly at the boundary: accepted.
        assert!(series.record(interval, sample(5)));
        // The throttle measures from the last *accepted* sample (5), not
        // from the rejected attempt at 4.
        assert!(!series.record(interval, sample(9)));
        assert!(series.record(interval, sample(10)));
        let times: Vec<u64> = series.samples.iter().map(|s| s.at.ticks()).collect();
        assert_eq!(
            times,
            vec![0, 5_000_000, 10_000_000],
            "accepted samples honor the 5-unit spacing"
        );
    }
}
