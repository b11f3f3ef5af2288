//! Parallel parameter sweeps.
//!
//! Every figure is a grid of independent simulation cells (utilization ×
//! policy × seed). Cells are pure functions of their parameters, so the
//! sweep fans them out over scoped threads (`std::thread::scope`) and
//! reassembles results in input order — determinism is preserved because
//! ordering, not scheduling, decides where each result lands.

use asets_core::metrics::MetricsSummary;
use asets_core::policy::PolicyKind;
use asets_sim::{simulate, SimResult};
use asets_workload::{generate, SpecError, TableISpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Parallel map preserving input order.
///
/// Spawns up to `available_parallelism` workers pulling indices from a
/// shared counter; falls back to sequential for tiny inputs. Workers never
/// contend on the result collection: each finished cell is sent tagged with
/// its index over a channel and the receiver places it in its slot, so the
/// hot path is one atomic fetch-add per cell and a channel send.
pub fn par_map<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = points.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if workers <= 1 || n <= 1 {
        return points.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&points[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collect on the scope's owning thread while workers run; the scope
        // still joins every worker (and propagates panics) on exit.
        for (i, r) in rx {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every cell filled"))
        .collect()
}

/// One simulation cell: a workload spec, a policy, a seed.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload parameters.
    pub spec: TableISpec,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Workload seed.
    pub seed: u64,
}

/// Run one cell.
pub fn run_cell(cell: &Cell) -> Result<SimResult, SpecError> {
    let specs = generate(&cell.spec, cell.seed)?;
    simulate(specs, cell.policy).map_err(|e| SpecError(format!("generated workload invalid: {e}")))
}

/// Run `spec` under `policy` once per seed and average the summaries —
/// the paper's five-run protocol, parallelized over seeds.
pub fn run_averaged(
    spec: &TableISpec,
    policy: PolicyKind,
    seeds: &[u64],
) -> Result<MetricsSummary, SpecError> {
    let cells: Vec<Cell> = seeds
        .iter()
        .map(|&seed| Cell {
            spec: *spec,
            policy,
            seed,
        })
        .collect();
    let runs = par_map(&cells, run_cell);
    let mut summaries = Vec::with_capacity(runs.len());
    for r in runs {
        summaries.push(r?.summary);
    }
    Ok(MetricsSummary::mean_of_runs(&summaries))
}

/// Run a (spec, policy) grid, averaged per cell over `seeds`. Returns
/// results in `points` order. The whole grid×seeds product is parallelized.
pub fn run_grid(
    points: &[(TableISpec, PolicyKind)],
    seeds: &[u64],
) -> Result<Vec<MetricsSummary>, SpecError> {
    let cells: Vec<Cell> = points
        .iter()
        .flat_map(|&(spec, policy)| seeds.iter().map(move |&seed| Cell { spec, policy, seed }))
        .collect();
    let runs = par_map(&cells, run_cell);
    let mut out = Vec::with_capacity(points.len());
    for chunk in runs.chunks(seeds.len()) {
        let mut summaries = Vec::with_capacity(chunk.len());
        for r in chunk {
            match r {
                Ok(res) => summaries.push(res.summary.clone()),
                Err(e) => return Err(e.clone()),
            }
        }
        out.push(MetricsSummary::mean_of_runs(&summaries));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..200).collect();
        let ys = par_map(&xs, |&x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(&Vec::<u32>::new(), |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn run_cell_produces_full_batch() {
        let cell = Cell {
            spec: TableISpec {
                n_txns: 50,
                ..TableISpec::transaction_level(0.5)
            },
            policy: PolicyKind::Edf,
            seed: 1,
        };
        let r = run_cell(&cell).unwrap();
        assert_eq!(r.outcomes.len(), 50);
    }

    #[test]
    fn averaged_equals_manual_mean() {
        let spec = TableISpec {
            n_txns: 50,
            ..TableISpec::transaction_level(0.8)
        };
        let seeds = [1, 2, 3];
        let avg = run_averaged(&spec, PolicyKind::Srpt, &seeds).unwrap();
        let manual: Vec<_> = seeds
            .iter()
            .map(|&s| {
                run_cell(&Cell {
                    spec,
                    policy: PolicyKind::Srpt,
                    seed: s,
                })
                .unwrap()
                .summary
            })
            .collect();
        let manual = asets_core::metrics::MetricsSummary::mean_of_runs(&manual);
        assert!((avg.avg_tardiness - manual.avg_tardiness).abs() < 1e-12);
    }

    #[test]
    fn grid_matches_pointwise_runs() {
        let spec_a = TableISpec {
            n_txns: 40,
            ..TableISpec::transaction_level(0.5)
        };
        let spec_b = TableISpec {
            n_txns: 40,
            ..TableISpec::transaction_level(0.9)
        };
        let points = vec![(spec_a, PolicyKind::Edf), (spec_b, PolicyKind::Srpt)];
        let seeds = [5, 6];
        let grid = run_grid(&points, &seeds).unwrap();
        assert_eq!(grid.len(), 2);
        for (i, &(spec, policy)) in points.iter().enumerate() {
            let direct = run_averaged(&spec, policy, &seeds).unwrap();
            assert!((grid[i].avg_tardiness - direct.avg_tardiness).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_spec_surfaces_as_error() {
        let spec = TableISpec {
            utilization: 0.0,
            ..TableISpec::transaction_level(0.5)
        };
        assert!(run_averaged(&spec, PolicyKind::Edf, &[1]).is_err());
    }
}
