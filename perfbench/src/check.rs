//! Output checks every run applies, and the page view of a batch.
//!
//! A check failure is a failed operation in the result line and makes the
//! run incorrect: the benchmark only counts work whose output is right.

use asets_core::metrics::MetricsSummary;
use asets_core::time::TICKS_PER_UNIT;
use asets_core::txn::{TxnOutcome, TxnSpec};

/// Every transaction of `specs` completed exactly once, with the outcome
/// fields of its own spec.
pub fn completes_once(specs: &[TxnSpec], outcomes: &[TxnOutcome]) -> Result<(), String> {
    if outcomes.len() != specs.len() {
        return Err(format!(
            "{} outcomes for {} transactions",
            outcomes.len(),
            specs.len()
        ));
    }
    let mut seen = vec![false; specs.len()];
    for o in outcomes {
        let i = o.id.index();
        if i >= specs.len() || seen[i] {
            return Err(format!("{} completed twice or is unknown", o.id));
        }
        seen[i] = true;
        let s = &specs[i];
        if (o.arrival, o.deadline, o.length, o.weight)
            != (s.arrival, s.deadline, s.length, s.weight)
        {
            return Err(format!("{} outcome does not match its spec", o.id));
        }
    }
    Ok(())
}

/// No transaction finished before its own arrival plus its length, nor
/// before a predecessor's finish plus its length; every predecessor of a
/// completed transaction completed.
pub fn precedence_holds(specs: &[TxnSpec], outcomes: &[TxnOutcome]) -> Result<(), String> {
    let mut finish = vec![None; specs.len()];
    for o in outcomes {
        finish[o.id.index()] = Some(o.finish);
    }
    for o in outcomes {
        if o.finish < o.arrival + o.length {
            return Err(format!("{} finished before arrival + length", o.id));
        }
        for d in &specs[o.id.index()].deps {
            match finish[d.index()] {
                Some(f) if f + o.length <= o.finish => {}
                Some(_) => return Err(format!("{} finished too soon after predecessor {d}", o.id)),
                None => return Err(format!("{} completed but predecessor {d} did not", o.id)),
            }
        }
    }
    Ok(())
}

/// The Definition 3–5 summary recomputed here, by exact integer sums over
/// the outcomes, equals the one the run reported.
pub fn summary_matches(outcomes: &[TxnOutcome], reported: &MetricsSummary) -> Result<(), String> {
    let n = outcomes.len();
    if reported.count != n {
        return Err(format!("summary counts {} of {n}", reported.count));
    }
    if n == 0 {
        return Ok(());
    }
    let (mut sum_t, mut sum_wt, mut max_t, mut misses) = (0u128, 0u128, 0u64, 0usize);
    for o in outcomes {
        let t = o.finish.ticks().saturating_sub(o.deadline.ticks());
        sum_t += t as u128;
        sum_wt += t as u128 * o.weight.get() as u128;
        max_t = max_t.max(t);
        misses += usize::from(o.finish > o.deadline);
    }
    let per = TICKS_PER_UNIT as f64;
    let expected = [
        (
            "avg_tardiness",
            sum_t as f64 / n as f64 / per,
            reported.avg_tardiness,
        ),
        (
            "avg_weighted_tardiness",
            sum_wt as f64 / n as f64 / per,
            reported.avg_weighted_tardiness,
        ),
        ("max_tardiness", max_t as f64 / per, reported.max_tardiness),
        ("miss_ratio", misses as f64 / n as f64, reported.miss_ratio),
        (
            "total_tardiness",
            sum_t as f64 / per,
            reported.total_tardiness,
        ),
    ];
    for (name, want, got) in expected {
        if (want - got).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!("{name}: recomputed {want}, reported {got}"));
        }
    }
    Ok(())
}

/// A finished batch run passes every check.
pub fn batch_output(
    specs: &[TxnSpec],
    outcomes: &[TxnOutcome],
    summary: &MetricsSummary,
) -> Result<(), String> {
    completes_once(specs, outcomes)?;
    precedence_holds(specs, outcomes)?;
    summary_matches(outcomes, summary)
}

/// The page view of a batch: each dependency component (workflow) is one
/// page, as in the paper's §II-B model, due when its latest member is due.
#[derive(Debug, Default)]
pub struct Pages {
    /// Page latency — last member's finish minus first member's arrival —
    /// in time units, one entry per page.
    pub latency_units: Vec<f64>,
    /// Pages whose last member finished by the page deadline.
    pub on_time: u64,
}

impl Pages {
    /// Fold the pages of one finished batch into `self`; `keys` are the
    /// batch's routing keys (`asets_core::shard::routing_keys`).
    pub fn add(&mut self, keys: &[u32], outcomes: &[TxnOutcome]) {
        // (first arrival, last finish, page deadline) in ticks, by key.
        let mut page: Vec<Option<(u64, u64, u64)>> = vec![None; keys.len()];
        for o in outcomes {
            let slot = &mut page[keys[o.id.index()] as usize];
            let (a, f, d) = (o.arrival.ticks(), o.finish.ticks(), o.deadline.ticks());
            *slot = Some(match *slot {
                None => (a, f, d),
                Some((a0, f0, d0)) => (a0.min(a), f0.max(f), d0.max(d)),
            });
        }
        for (a, f, d) in page.into_iter().flatten() {
            self.latency_units
                .push((f - a) as f64 / TICKS_PER_UNIT as f64);
            self.on_time += u64::from(f <= d);
        }
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.latency_units.len()
    }
}
