//! The load-threshold switching policy the paper argues *against*.
//!
//! §III-A.1: *"One possibility is to select the policy dynamically based on
//! the load of the system. However, measuring the load with reasonable
//! accuracy may require non-trivial resources. More importantly, when jobs
//! have deadlines, measuring the load does not only involve considering the
//! processing requirements of the transactions, but also the relationships
//! between processing times and deadlines."*
//!
//! [`LoadSwitch`] implements exactly that strawman: it estimates offered
//! load as work arrived over a sliding window, runs EDF while the estimate
//! is below a threshold and SRPT above it. Two tunables (threshold and
//! window) — versus parameter-free ASETS\* — and a load signal that is
//! blind to deadline tightness, which is precisely the failure mode the
//! `load_switch` ablation demonstrates (a batch of short-but-tight
//! transactions overloads the system at a low measured utilization).

use super::{Edf, Scheduler, Srpt};
use crate::table::TxnTable;
use crate::time::{SimDuration, SimTime};
use crate::txn::TxnId;
use std::collections::VecDeque;

/// EDF-below-threshold / SRPT-above-threshold with a sliding-window load
/// estimator.
#[derive(Debug)]
pub struct LoadSwitch {
    /// Switch to SRPT when estimated load exceeds this.
    threshold: f64,
    /// Sliding estimation window.
    window: SimDuration,
    /// EDF view of the ready set.
    edf: Edf,
    /// SRPT view of the ready set.
    srpt: Srpt,
    /// Recent arrivals: (arrival time, total work).
    recent: VecDeque<(SimTime, SimDuration)>,
    /// Sum of work in `recent`.
    pending_work: SimDuration,
    /// Scheduling decisions made in SRPT mode (observability).
    srpt_decisions: u64,
    /// Scheduling decisions made in EDF mode.
    edf_decisions: u64,
}

impl LoadSwitch {
    /// Build with the given threshold and estimation window.
    ///
    /// # Panics
    /// If the threshold is not positive and finite or the window is zero.
    pub fn new(threshold: f64, window: SimDuration) -> LoadSwitch {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        assert!(!window.is_zero(), "window must be positive");
        LoadSwitch {
            threshold,
            window,
            edf: Edf::new(),
            srpt: Srpt::new(),
            recent: VecDeque::new(),
            pending_work: SimDuration::ZERO,
            srpt_decisions: 0,
            edf_decisions: 0,
        }
    }

    /// The current load estimate at `now`: work arrived within the window,
    /// divided by the window.
    pub fn estimated_load(&mut self, now: SimTime) -> f64 {
        let horizon = now.saturating_since(SimTime::ZERO + self.window);
        let cutoff = SimTime::ZERO + horizon;
        while let Some(&(t, w)) = self.recent.front() {
            if t < cutoff {
                self.recent.pop_front();
                self.pending_work = self.pending_work.saturating_sub(w);
            } else {
                break;
            }
        }
        self.pending_work.as_units() / self.window.as_units()
    }

    /// Decisions made in each mode so far: `(edf, srpt)`.
    pub fn mode_decisions(&self) -> (u64, u64) {
        (self.edf_decisions, self.srpt_decisions)
    }

    /// The view to decide from at `now`, counting the decision; `None` iff
    /// nothing is ready.
    fn mode(&mut self, now: SimTime) -> Option<&mut dyn Scheduler> {
        if self.edf.is_empty() {
            return None;
        }
        if self.estimated_load(now) >= self.threshold {
            self.srpt_decisions += 1;
            Some(&mut self.srpt)
        } else {
            self.edf_decisions += 1;
            Some(&mut self.edf)
        }
    }
}

impl Scheduler for LoadSwitch {
    fn name(&self) -> &str {
        "LoadSwitch"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.edf.on_ready(t, table, now);
        self.srpt.on_ready(t, table, now);
        // Load accounting keys off *submission*: a released dependent was
        // already counted at its arrival.
        let spec = table.spec(t);
        if spec.deps.is_empty() || table.state(t).ready_at.is_some() {
            self.recent.push_back((spec.arrival, spec.length));
            self.pending_work += spec.length;
        }
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.srpt.on_requeue(t, table, now);
    }

    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.edf.on_complete(t, table, now);
        self.srpt.on_complete(t, table, now);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.mode(now)?.select(table, now)
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // One mode decision per scheduling point (the estimate is a
        // function of `now` alone), then the winning view fills every slot.
        if let Some(view) = self.mode(now) {
            view.select_many(table, now, slots, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{TxnSpec, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }

    fn ready(specs: Vec<TxnSpec>, now: SimTime) -> (TxnTable, LoadSwitch) {
        let mut tbl = TxnTable::new(specs).unwrap();
        let mut p = LoadSwitch::new(0.7, units(10));
        for t in 0..tbl.len() as u32 {
            tbl.arrive(TxnId(t), now.max(tbl.spec(TxnId(t)).arrival));
            p.on_ready(TxnId(t), &tbl, now);
        }
        (tbl, p)
    }

    #[test]
    fn light_load_behaves_like_edf() {
        // 2 units of work in a 10-unit window: load 0.2 < 0.7.
        let (tbl, mut p) = ready(
            vec![
                TxnSpec::independent(at(0), at(9), units(1), Weight::ONE),
                TxnSpec::independent(at(0), at(5), units(1), Weight::ONE),
            ],
            at(0),
        );
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)), "earliest deadline");
        assert_eq!(p.mode_decisions(), (1, 0));
    }

    #[test]
    fn heavy_load_behaves_like_srpt() {
        // 12 units of work in the window: load 1.2 >= 0.7.
        let (tbl, mut p) = ready(
            vec![
                TxnSpec::independent(at(0), at(5), units(9), Weight::ONE),
                TxnSpec::independent(at(0), at(50), units(3), Weight::ONE),
            ],
            at(0),
        );
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)), "shortest remaining");
        assert_eq!(p.mode_decisions(), (0, 1));
    }

    #[test]
    fn window_expiry_lowers_the_estimate() {
        let (tbl, mut p) = ready(
            vec![TxnSpec::independent(at(0), at(100), units(9), Weight::ONE)],
            at(0),
        );
        assert!(p.estimated_load(at(0)) > 0.7);
        // 11 units later the arrival has left the window.
        assert_eq!(p.estimated_load(at(11)), 0.0);
        let _ = tbl;
    }

    #[test]
    fn deadline_blindness_is_real() {
        // The paper's §III-A point: tiny work with hopeless deadlines reads
        // as "light load" to the estimator, so the switcher stays on EDF and
        // dominoes — while ASETS* classifies by feasibility, not volume.
        let specs: Vec<TxnSpec> = (0..4)
            .map(|i| {
                TxnSpec::independent(
                    at(0),
                    SimTime::from_units(0.5 + i as f64 * 0.01),
                    units(1),
                    Weight::ONE,
                )
            })
            .collect();
        let (tbl, mut p) = ready(specs, at(0));
        assert!(p.estimated_load(at(0)) < 0.7, "4 units / 10-unit window");
        // Still picks by deadline even though every deadline is dead.
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
        assert_eq!(p.mode_decisions(), (1, 0));
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn bad_threshold_panics() {
        LoadSwitch::new(0.0, units(10));
    }

    #[test]
    fn completion_cleans_both_views() {
        let (mut tbl, mut p) = ready(
            vec![TxnSpec::independent(at(0), at(9), units(1), Weight::ONE)],
            at(0),
        );
        tbl.start_running(TxnId(0));
        tbl.complete(TxnId(0), at(1), units(1));
        p.on_complete(TxnId(0), &tbl, at(1));
        assert_eq!(p.select(&tbl, at(1)), None);
    }
}
