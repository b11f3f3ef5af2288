//! Performance metrics (paper §II-C, Definitions 3–5).
//!
//! The paper's headline metrics are **average tardiness**
//! (`(1/N) Σ t_i`, Definition 4), **average weighted tardiness**
//! (`(1/N) Σ t_i·w_i`, Definition 5) and, for the balance-aware study of
//! §IV-F, **maximum weighted tardiness** (worst case). We additionally track
//! deadline-miss ratio, mean/max response time and tardiness percentiles —
//! standard companions in the RTDBMS literature the paper builds on
//! (Abbott & Garcia-Molina; Haritsa et al.).
//!
//! All accumulation is exact integer arithmetic over microticks (`u128` for
//! weighted sums); conversion to `f64` happens only in the reported summary.

use crate::time::{SimDuration, TICKS_PER_UNIT};
use crate::txn::TxnOutcome;
use serde::{Deserialize, Serialize};

/// Aggregate metrics over a set of completed transactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Number of transactions aggregated (`N`).
    pub count: usize,
    /// Average tardiness in time units (Definition 4).
    pub avg_tardiness: f64,
    /// Average *weighted* tardiness in weight·time-units (Definition 5).
    pub avg_weighted_tardiness: f64,
    /// Maximum tardiness in time units.
    pub max_tardiness: f64,
    /// Maximum weighted tardiness in weight·time-units (worst case, §IV-F).
    pub max_weighted_tardiness: f64,
    /// Fraction of transactions that missed their deadline.
    pub miss_ratio: f64,
    /// Average response time (`f_i - a_i`) in time units.
    pub avg_response_time: f64,
    /// Maximum response time in time units.
    pub max_response_time: f64,
    /// 99th-percentile tardiness in time units (nearest-rank).
    pub p99_tardiness: f64,
    /// Total tardiness in time units (`Σ t_i`; `avg · N` without rounding).
    pub total_tardiness: f64,
}

impl MetricsSummary {
    /// Aggregate a slice of outcomes. An empty slice yields all-zero metrics
    /// with `count == 0`.
    pub fn from_outcomes(outcomes: &[TxnOutcome]) -> MetricsSummary {
        let n = outcomes.len();
        if n == 0 {
            return MetricsSummary::empty();
        }
        let mut sum_t: u128 = 0;
        let mut sum_wt: u128 = 0;
        let mut max_t: u64 = 0;
        let mut max_wt: u128 = 0;
        let mut misses = 0usize;
        let mut sum_rt: u128 = 0;
        let mut max_rt: u64 = 0;
        let mut tards: Vec<u64> = Vec::with_capacity(n);

        for o in outcomes {
            let t = o.tardiness().ticks();
            let wt = o.weighted_tardiness_ticks();
            let rt = o.response_time().ticks();
            sum_t += t as u128;
            sum_wt += wt;
            max_t = max_t.max(t);
            max_wt = max_wt.max(wt);
            if !o.met_deadline() {
                misses += 1;
            }
            sum_rt += rt as u128;
            max_rt = max_rt.max(rt);
            tards.push(t);
        }
        let p99 = percentile_nearest_rank(&mut tards, 0.99);

        let per = TICKS_PER_UNIT as f64;
        MetricsSummary {
            count: n,
            avg_tardiness: sum_t as f64 / n as f64 / per,
            avg_weighted_tardiness: sum_wt as f64 / n as f64 / per,
            max_tardiness: max_t as f64 / per,
            max_weighted_tardiness: max_wt as f64 / per,
            miss_ratio: misses as f64 / n as f64,
            avg_response_time: sum_rt as f64 / n as f64 / per,
            max_response_time: max_rt as f64 / per,
            p99_tardiness: p99 as f64 / per,
            total_tardiness: sum_t as f64 / per,
        }
    }

    /// The all-zero summary for an empty set.
    pub fn empty() -> MetricsSummary {
        MetricsSummary {
            count: 0,
            avg_tardiness: 0.0,
            avg_weighted_tardiness: 0.0,
            max_tardiness: 0.0,
            max_weighted_tardiness: 0.0,
            miss_ratio: 0.0,
            avg_response_time: 0.0,
            max_response_time: 0.0,
            p99_tardiness: 0.0,
            total_tardiness: 0.0,
        }
    }

    /// Merge summaries of **disjoint** outcome sets — the cross-shard
    /// aggregation of the sharded runtime, where each shard summarizes its
    /// own transactions and the union is the whole batch.
    ///
    /// Count-weighted sums and maxima recombine exactly (up to `f64`
    /// rounding), so Definitions 3–5 hold for the merged summary: the
    /// average (weighted) tardiness, miss ratio, response times, maxima and
    /// total tardiness all equal what [`MetricsSummary::from_outcomes`]
    /// yields on the union. The one exception is `p99_tardiness`: a
    /// percentile is not reconstructible from part summaries, so the merge
    /// takes the largest part percentile (a conservative stand-in; callers
    /// that need the exact percentile — the sharded runtime's headline
    /// summary does — recompute from the merged outcomes).
    ///
    /// Empty input (or all-empty parts) yields [`MetricsSummary::empty`].
    pub fn merge(parts: &[MetricsSummary]) -> MetricsSummary {
        let n: usize = parts.iter().map(|p| p.count).sum();
        if n == 0 {
            return MetricsSummary::empty();
        }
        let nf = n as f64;
        let mut acc = MetricsSummary::empty();
        acc.count = n;
        let mut misses = 0.0;
        let mut sum_wt = 0.0;
        let mut sum_rt = 0.0;
        for p in parts {
            let c = p.count as f64;
            acc.total_tardiness += p.total_tardiness;
            sum_wt += p.avg_weighted_tardiness * c;
            sum_rt += p.avg_response_time * c;
            misses += p.miss_ratio * c;
            acc.max_tardiness = acc.max_tardiness.max(p.max_tardiness);
            acc.max_weighted_tardiness = acc.max_weighted_tardiness.max(p.max_weighted_tardiness);
            acc.max_response_time = acc.max_response_time.max(p.max_response_time);
            acc.p99_tardiness = acc.p99_tardiness.max(p.p99_tardiness);
        }
        acc.avg_tardiness = acc.total_tardiness / nf;
        acc.avg_weighted_tardiness = sum_wt / nf;
        acc.avg_response_time = sum_rt / nf;
        acc.miss_ratio = misses / nf;
        acc
    }

    /// Pointwise mean of several summaries — the paper reports "the averages
    /// of five runs for each experiment setting" (§IV-A).
    ///
    /// # Panics
    /// If `runs` is empty.
    pub fn mean_of_runs(runs: &[MetricsSummary]) -> MetricsSummary {
        assert!(!runs.is_empty(), "mean of zero runs");
        let k = runs.len() as f64;
        let mut acc = MetricsSummary::empty();
        acc.count = runs.iter().map(|r| r.count).sum::<usize>() / runs.len();
        for r in runs {
            acc.avg_tardiness += r.avg_tardiness;
            acc.avg_weighted_tardiness += r.avg_weighted_tardiness;
            acc.max_tardiness += r.max_tardiness;
            acc.max_weighted_tardiness += r.max_weighted_tardiness;
            acc.miss_ratio += r.miss_ratio;
            acc.avg_response_time += r.avg_response_time;
            acc.max_response_time += r.max_response_time;
            acc.p99_tardiness += r.p99_tardiness;
            acc.total_tardiness += r.total_tardiness;
        }
        acc.avg_tardiness /= k;
        acc.avg_weighted_tardiness /= k;
        acc.max_tardiness /= k;
        acc.max_weighted_tardiness /= k;
        acc.miss_ratio /= k;
        acc.avg_response_time /= k;
        acc.max_response_time /= k;
        acc.p99_tardiness /= k;
        acc.total_tardiness /= k;
        acc
    }
}

/// Nearest-rank percentile of `values`, which it reorders: the element a
/// sort would put at rank − 1, found by selection in expected O(n) instead
/// of an O(n log n) sort. Returns 0 for an empty slice.
fn percentile_nearest_rank(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    debug_assert!((0.0..=1.0).contains(&p));
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}

/// Online (streaming) accumulator for the same metrics, used by the
/// simulator to avoid materializing all outcomes when only aggregates are
/// needed (e.g. inside criterion benches).
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    count: usize,
    sum_t: u128,
    sum_wt: u128,
    max_t: u64,
    max_wt: u128,
    misses: usize,
    sum_rt: u128,
    max_rt: u64,
    tards: Vec<u64>,
}

impl MetricsAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed transaction.
    pub fn record(&mut self, o: &TxnOutcome) {
        let t = o.tardiness().ticks();
        self.count += 1;
        self.sum_t += t as u128;
        self.sum_wt += o.weighted_tardiness_ticks();
        self.max_t = self.max_t.max(t);
        self.max_wt = self.max_wt.max(o.weighted_tardiness_ticks());
        if !o.met_deadline() {
            self.misses += 1;
        }
        let rt = o.response_time().ticks();
        self.sum_rt += rt as u128;
        self.max_rt = self.max_rt.max(rt);
        self.tards.push(t);
    }

    /// Number of recorded outcomes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total tardiness so far, as a duration (saturating at `u64::MAX` ticks).
    pub fn total_tardiness(&self) -> SimDuration {
        SimDuration::from_ticks(self.sum_t.min(u64::MAX as u128) as u64)
    }

    /// Finalize into a summary.
    pub fn summarize(&self) -> MetricsSummary {
        if self.count == 0 {
            return MetricsSummary::empty();
        }
        let mut tards = self.tards.clone();
        let per = TICKS_PER_UNIT as f64;
        let n = self.count as f64;
        MetricsSummary {
            count: self.count,
            avg_tardiness: self.sum_t as f64 / n / per,
            avg_weighted_tardiness: self.sum_wt as f64 / n / per,
            max_tardiness: self.max_t as f64 / per,
            max_weighted_tardiness: self.max_wt as f64 / per,
            miss_ratio: self.misses as f64 / n,
            avg_response_time: self.sum_rt as f64 / n / per,
            max_response_time: self.max_rt as f64 / per,
            p99_tardiness: percentile_nearest_rank(&mut tards, 0.99) as f64 / per,
            total_tardiness: self.sum_t as f64 / per,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::txn::{TxnId, Weight};
    use proptest::prelude::*;

    fn outcome(id: u32, arrival: u64, deadline: u64, finish: u64, weight: u32) -> TxnOutcome {
        TxnOutcome {
            id: TxnId(id),
            arrival: SimTime::from_units_int(arrival),
            deadline: SimTime::from_units_int(deadline),
            finish: SimTime::from_units_int(finish),
            weight: Weight(weight),
            length: SimDuration::from_units_int(1),
        }
    }

    #[test]
    fn definitions_4_and_5() {
        // t = [0, 2, 4]; w = [1, 2, 3] -> avg t = 2, avg wt = (0 + 4 + 12)/3.
        let outs = vec![
            outcome(0, 0, 10, 9, 1),
            outcome(1, 0, 10, 12, 2),
            outcome(2, 0, 10, 14, 3),
        ];
        let m = MetricsSummary::from_outcomes(&outs);
        assert_eq!(m.count, 3);
        assert!((m.avg_tardiness - 2.0).abs() < 1e-9);
        assert!((m.avg_weighted_tardiness - 16.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.max_tardiness, 4.0);
        assert_eq!(m.max_weighted_tardiness, 12.0);
        assert!((m.miss_ratio - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.total_tardiness, 6.0);
    }

    #[test]
    fn max_weighted_need_not_be_max_tardiness_txn() {
        // t=4,w=1 (wt=4) vs t=2,w=5 (wt=10): max weighted comes from the
        // *smaller* tardiness.
        let outs = vec![outcome(0, 0, 10, 14, 1), outcome(1, 0, 10, 12, 5)];
        let m = MetricsSummary::from_outcomes(&outs);
        assert_eq!(m.max_tardiness, 4.0);
        assert_eq!(m.max_weighted_tardiness, 10.0);
    }

    #[test]
    fn empty_set_is_all_zero() {
        let m = MetricsSummary::from_outcomes(&[]);
        assert_eq!(m, MetricsSummary::empty());
    }

    #[test]
    fn response_time_aggregates() {
        let outs = vec![outcome(0, 2, 10, 6, 1), outcome(1, 0, 10, 10, 1)];
        let m = MetricsSummary::from_outcomes(&outs);
        assert!((m.avg_response_time - 7.0).abs() < 1e-9);
        assert_eq!(m.max_response_time, 10.0);
    }

    #[test]
    fn p99_nearest_rank() {
        // 100 outcomes with tardiness 1..=100: p99 (nearest rank) = 99.
        let outs: Vec<TxnOutcome> = (1..=100).map(|i| outcome(i, 0, 0, i as u64, 1)).collect();
        let m = MetricsSummary::from_outcomes(&outs);
        assert_eq!(m.p99_tardiness, 99.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_nearest_rank(&mut [], 0.99), 0);
        assert_eq!(percentile_nearest_rank(&mut [7], 0.5), 7);
        assert_eq!(percentile_nearest_rank(&mut [1, 2, 3, 4], 1.0), 4);
        assert_eq!(percentile_nearest_rank(&mut [4, 3, 2, 1], 0.25), 1);
    }

    #[test]
    fn merge_of_disjoint_parts_matches_whole() {
        // The Definitions 3–5 invariant: summarize two disjoint halves,
        // merge, and compare against summarizing the union directly.
        let all: Vec<TxnOutcome> = (0..37)
            .map(|i| outcome(i, i as u64 % 5, 10, 8 + (i as u64 * 3) % 9, 1 + i % 4))
            .collect();
        let (a, b) = all.split_at(13);
        let merged = MetricsSummary::merge(&[
            MetricsSummary::from_outcomes(a),
            MetricsSummary::from_outcomes(b),
        ]);
        let whole = MetricsSummary::from_outcomes(&all);
        assert_eq!(merged.count, whole.count);
        assert!((merged.avg_tardiness - whole.avg_tardiness).abs() < 1e-9);
        assert!((merged.avg_weighted_tardiness - whole.avg_weighted_tardiness).abs() < 1e-9);
        assert_eq!(merged.max_tardiness, whole.max_tardiness);
        assert_eq!(merged.max_weighted_tardiness, whole.max_weighted_tardiness);
        assert!((merged.miss_ratio - whole.miss_ratio).abs() < 1e-9);
        assert!((merged.avg_response_time - whole.avg_response_time).abs() < 1e-9);
        assert_eq!(merged.max_response_time, whole.max_response_time);
        assert!((merged.total_tardiness - whole.total_tardiness).abs() < 1e-9);
        // p99 is the documented conservative stand-in, not the exact value.
        assert!(merged.p99_tardiness >= 0.0);
    }

    #[test]
    fn merge_with_empty_parts() {
        let outs = vec![outcome(0, 0, 10, 14, 2)];
        let part = MetricsSummary::from_outcomes(&outs);
        let merged = MetricsSummary::merge(&[MetricsSummary::empty(), part.clone()]);
        assert_eq!(merged, part);
        assert_eq!(MetricsSummary::merge(&[]), MetricsSummary::empty());
    }

    #[test]
    fn mean_of_runs_matches_paper_protocol() {
        let a = MetricsSummary {
            avg_tardiness: 2.0,
            ..MetricsSummary::empty()
        };
        let b = MetricsSummary {
            avg_tardiness: 4.0,
            ..MetricsSummary::empty()
        };
        let m = MetricsSummary::mean_of_runs(&[a, b]);
        assert!((m.avg_tardiness - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mean of zero runs")]
    fn mean_of_zero_runs_panics() {
        MetricsSummary::mean_of_runs(&[]);
    }

    #[test]
    fn accumulator_matches_batch() {
        let outs = vec![
            outcome(0, 0, 10, 9, 1),
            outcome(1, 0, 10, 12, 2),
            outcome(2, 1, 10, 14, 3),
            outcome(3, 0, 5, 5, 9),
        ];
        let mut acc = MetricsAccumulator::new();
        for o in &outs {
            acc.record(o);
        }
        assert_eq!(acc.count(), outs.len());
        assert_eq!(acc.summarize(), MetricsSummary::from_outcomes(&outs));
        assert_eq!(acc.total_tardiness(), SimDuration::from_units_int(6));
    }

    #[test]
    fn accumulator_empty_summary() {
        assert_eq!(
            MetricsAccumulator::new().summarize(),
            MetricsSummary::empty()
        );
    }

    #[test]
    fn unweighted_equals_weighted_when_all_weights_one() {
        let outs: Vec<TxnOutcome> = (0..20)
            .map(|i| outcome(i, 0, 5, 5 + (i as u64 % 7), 1))
            .collect();
        let m = MetricsSummary::from_outcomes(&outs);
        assert!((m.avg_tardiness - m.avg_weighted_tardiness).abs() < 1e-12);
        assert_eq!(m.max_tardiness, m.max_weighted_tardiness);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Selection returns the element a full sort puts at the nearest
        /// rank, ties and one- or zero-element inputs included.
        #[test]
        fn selected_percentile_matches_the_sorted_reference(
            values in prop::collection::vec(0u64..8, 0..40),
            p in 0.0f64..1.0,
        ) {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for p in [p, 0.99, 1.0] {
                let expect = match sorted.len() {
                    0 => 0,
                    n => sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
                };
                prop_assert_eq!(percentile_nearest_rank(&mut values.clone(), p), expect);
            }
        }
    }
}
