//! The single-engine batch workloads: `table1_sweep` (the paper's Table-I
//! protocol, 100 small cells) and `deep_chains` (one 400k-transaction batch
//! of 100-member chains).
//!
//! Both are a list of cells simulated under ASETS\*. The untraced run times
//! `simulate` on every cell, sweep after sweep, for the run's seconds. The
//! traced run simulates one untraced sweep, then drives every cell through
//! `Engine::new`/`step`/`finish` with the timing adapter around the policy,
//! and requires the two sweeps' schedules to be identical.

use crate::adapter::{PolicyClock, Timed};
use crate::check::{self, Pages};
use crate::metrics::{
    another_setup, cpu_seconds, host_slowdown, median, quantile, reference_kernel, setup_seconds,
    Report,
};
use asets_core::policy::reference::NaiveAsetsStar;
use asets_core::policy::{AsetsStar, AsetsStarConfig, ImpactRule, PolicyKind};
use asets_core::shard::routing_keys;
use asets_core::table::TxnTable;
use asets_core::time::SimTime;
use asets_core::txn::TxnSpec;
use asets_sim::{simulate, Engine, SimResult};
use asets_workload::{deep_chains, generate, Rng64, TableISpec, PAPER_SEEDS};
use std::time::{Duration, Instant};

/// Transactions in the deep-chain batch.
const DEEP_N: usize = 400_000;
/// Members per chain.
const DEEP_CHAIN: usize = 100;
/// Fewest timed sweeps a run makes, whatever its seconds.
const MIN_SWEEPS: usize = 3;
/// Throughput is read at this quantile of the per-sweep CPU times:
/// interference from other tenants of a shared host only ever slows a
/// sweep, and measured medians swung ±20% between consecutive runs where
/// the lower decile held within ±10%.
pub const FAST_DECILE: f64 = 0.10;

/// One simulated batch.
pub struct Cell {
    specs: Vec<TxnSpec>,
    keys: Vec<u32>,
}

/// How a workload's cells are made from the run seed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Transaction- and workflow-level Table-I cells, n = 1000, U in
    /// {0.1, …, 1.0}, one per paper seed.
    Table1,
    /// 100-member interleaved chains, chain arrivals drawn from the seed.
    DeepChains,
}

/// The paper's ASETS\* configuration (Fig. 7 rule), as
/// `PolicyKind::asets_star()` builds it.
fn paper_config() -> AsetsStarConfig {
    AsetsStarConfig {
        impact: ImpactRule::Paper,
        ..AsetsStarConfig::default()
    }
}

/// ASETS\* in the paper's configuration over `table`.
pub fn asets_star(table: &TxnTable) -> AsetsStar {
    AsetsStar::new(table, paper_config())
}

fn generate_cells(batch: Batch, seed: u64) -> Result<Vec<Vec<TxnSpec>>, String> {
    match batch {
        Batch::Table1 => {
            // The protocol fixes its seeds (`PAPER_SEEDS`), so every run
            // sweeps the same cells; the run seed picks the cell that is
            // cross-checked against the reference implementation. Cells
            // near U = 1.0 are so seed-sensitive that reseeded sweeps
            // would spread mean tardiness by half or more between runs.
            let mut cells = Vec::with_capacity(100);
            let levels: [fn(f64) -> TableISpec; 2] =
                [TableISpec::transaction_level, TableISpec::workflow_level];
            for level in levels {
                for u in 1..=10 {
                    for paper_seed in PAPER_SEEDS {
                        let spec = level(u as f64 / 10.0);
                        cells.push(
                            generate(&spec, paper_seed)
                                .map_err(|e| format!("Table-I generation: {e}"))?,
                        );
                    }
                }
            }
            Ok(cells)
        }
        Batch::DeepChains => {
            let mut specs = deep_chains(DEEP_N, DEEP_CHAIN);
            // The generator is seedless; the seed draws each chain's arrival
            // instant over the generator's own 64-unit spread, keeping every
            // member's SLA width.
            let chains = DEEP_N / DEEP_CHAIN;
            let mut rng = Rng64::new(seed);
            let arrivals: Vec<u64> = (0..chains).map(|_| rng.range_u64(0, 63)).collect();
            for (i, s) in specs.iter_mut().enumerate() {
                let sla = s.deadline - s.arrival;
                s.arrival = SimTime::from_units_int(arrivals[i % chains]);
                s.deadline = s.arrival + sla;
            }
            Ok(vec![specs])
        }
    }
}

/// Setup as a user pays it: generate the inputs, build each cell's table
/// and DAG, build its policy. Repeated; the medians are reported.
pub fn setup(batch: Batch, seed: u64, report: &mut Report) -> Result<Vec<Cell>, String> {
    let (mut gen, mut table, mut policy, mut total, mut wall) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut kept = None;
    let begun = Instant::now();
    while another_setup(total.len(), begun) {
        let (started, c0) = (Instant::now(), cpu_seconds());
        let cells = generate_cells(batch, seed)?;
        let gen_s = cpu_seconds() - c0;
        let mut table_s = 0.0;
        let mut policy_s = 0.0;
        for specs in &cells {
            let t0 = cpu_seconds();
            let t = TxnTable::new(specs.clone()).map_err(|e| format!("table build: {e}"))?;
            let t1 = cpu_seconds();
            let p = std::hint::black_box(asets_star(&t));
            let t2 = cpu_seconds();
            drop((p, t));
            table_s += t1 - t0;
            policy_s += t2 - t1;
        }
        gen.push(gen_s);
        table.push(table_s);
        policy.push(policy_s);
        total.push(gen_s + table_s + policy_s);
        wall.push(started.elapsed().as_secs_f64());
        kept.get_or_insert(cells);
    }
    let (setup_s, slowdown) = setup_seconds(&total);
    report.set("setup_s", setup_s);
    report.set("workload.gen_s", median(&gen) / slowdown);
    report.set("table.build_s", median(&table) / slowdown);
    report.set("policy.build_s", median(&policy) / slowdown);
    let cells = kept.expect("set up at least once");
    report.note(format!(
        "setup: median CPU time of {} passes {:.6} s (median wall {:.6} s), divided by the \
         host slowdown {slowdown:.4}; {} cells, {} transactions",
        total.len(),
        median(&total),
        median(&wall),
        cells.len(),
        cells.iter().map(Vec::len).sum::<usize>()
    ));
    Ok(cells
        .into_iter()
        .map(|specs| Cell {
            keys: routing_keys(&specs),
            specs,
        })
        .collect())
}

/// Wall and CPU seconds spent in one sweep's `simulate` calls.
#[derive(Clone, Copy)]
struct Spent {
    wall: f64,
    cpu: f64,
}

/// One untraced sweep: `simulate` every cell under `kind`.
fn sweep(cells: &[Cell], kind: PolicyKind) -> Result<(Vec<SimResult>, Spent), String> {
    let mut spent = Spent {
        wall: 0.0,
        cpu: 0.0,
    };
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let specs = cell.specs.clone();
        let (started, cpu) = (Instant::now(), cpu_seconds());
        let r = simulate(specs, kind).map_err(|e| format!("simulate: {e}"))?;
        spent.cpu += cpu_seconds() - cpu;
        spent.wall += started.elapsed().as_secs_f64();
        results.push(r);
    }
    Ok((results, spent))
}

/// The counts a traced run must reproduce exactly.
fn same_schedule(a: &SimResult, b: &SimResult) -> bool {
    a.outcomes == b.outcomes && a.stats == b.stats && a.epochs == b.epochs && a.summary == b.summary
}

/// Check a sweep's outputs; every failing cell is a failed operation.
fn check_sweep(cells: &[Cell], results: &[SimResult], report: &mut Report) {
    for (i, (cell, r)) in cells.iter().zip(results).enumerate() {
        if let Err(e) = check::batch_output(&cell.specs, &r.outcomes, &r.summary) {
            report.fail(format!("cell {i}: {e}"));
        }
    }
}

/// On one cell per run, ASETS\*'s outcomes equal the naive reference
/// implementation's.
fn check_reference(cells: &[Cell], results: &[SimResult], seed: u64, report: &mut Report) {
    let i = (seed % cells.len() as u64) as usize;
    let specs = &cells[i].specs;
    let table = TxnTable::new(specs.clone()).expect("validated at setup");
    let naive = NaiveAsetsStar::new(&table, paper_config());
    let mut engine = Engine::new(specs.clone(), naive).expect("validated at setup");
    while engine.step() {}
    let reference = engine.finish();
    if reference.outcomes != results[i].outcomes {
        report.fail(format!(
            "cell {i}: ASETS* outcomes differ from NaiveAsetsStar's"
        ));
    }
    report.note(format!("reference check: cell {i} against NaiveAsetsStar"));
}

/// Schedule-quality and page metrics of one sweep.
/// `sweep_s` is the CPU time of one sweep: on a shared host the wall clock
/// also measures how the host scheduled the process.
fn quality(cells: &[Cell], results: &[SimResult], sweep_s: f64, report: &mut Report) {
    let txns: usize = cells.iter().map(|c| c.specs.len()).sum();
    let tard = results.iter().map(|r| r.summary.avg_tardiness).sum::<f64>() / results.len() as f64;
    let misses: f64 = results
        .iter()
        .map(|r| r.summary.miss_ratio * r.summary.count as f64)
        .sum();
    let mut pages = Pages::default();
    for (cell, r) in cells.iter().zip(results) {
        pages.add(&cell.keys, &r.outcomes);
    }
    let n_pages = pages.len();
    report.set("sim_txn_per_s", txns as f64 / sweep_s);
    report.set("avg_tardiness", tard);
    report.set("miss_ratio", misses / txns as f64);
    report.set("page_latency_p50", quantile(&mut pages.latency_units, 0.50));
    report.set("page_latency_p99", quantile(&mut pages.latency_units, 0.99));
    report.set(
        "page_miss_ratio",
        1.0 - pages.on_time as f64 / n_pages as f64,
    );
    report.set("capacity_pps", n_pages as f64 / sweep_s);
    report.note(format!(
        "pages are workflows; page_latency_p50/p99 over {n_pages} pages"
    ));
}

/// `--trace 0`: time sweeps for `seconds`, check every output.
pub fn run(batch: Batch, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let cells = setup(batch, seed, report)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (first, first_spent) = sweep(&cells, PolicyKind::asets_star())?;
    check_sweep(&cells, &first, report);
    if batch == Batch::Table1 {
        check_reference(&cells, &first, seed, report);
    }
    let mut spent = vec![first_spent];
    let mut kernel = Vec::new();
    while spent.len() < MIN_SWEEPS || Instant::now() < deadline {
        kernel.push(reference_kernel());
        let (results, s) = sweep(&cells, PolicyKind::asets_star())?;
        for (i, (a, b)) in first.iter().zip(&results).enumerate() {
            if !same_schedule(a, b) {
                report.fail(format!("cell {i}: sweep {} diverged", spent.len()));
            }
        }
        spent.push(s);
    }
    report.attempted = (spent.len() * cells.len()) as u64;
    let mut cpu: Vec<f64> = spent.iter().map(|s| s.cpu).collect();
    let wall: Vec<f64> = spent.iter().map(|s| s.wall).collect();
    let sweep_s = quantile(&mut cpu, FAST_DECILE);
    // Table-I cells are cache-resident, so their speed follows the
    // cache-resident reference kernel: quoting them at reference host
    // speed cut their run-to-run spread from ±20% to ±4%. The deep-chain
    // batch is memory-bound and does not follow it.
    let slowdown = match batch {
        Batch::Table1 => host_slowdown(&mut kernel, FAST_DECILE),
        Batch::DeepChains => 1.0,
    };
    report.note(format!(
        "sim_txn_per_s and capacity_pps: lower-decile CPU time of {} sweeps, {sweep_s:.6} s \
         (median CPU {:.6} s, median wall {:.6} s), divided by the host slowdown {slowdown:.4}",
        spent.len(),
        median(&cpu),
        median(&wall)
    ));
    quality(&cells, &first, sweep_s / slowdown, report);
    Ok(())
}

/// What the traced engine loop measured over all cells.
#[derive(Default)]
struct EngineTrace {
    clock: PolicyClock,
    cache_hits: u64,
    step_ns: Vec<f64>,
    step_total_ns: u64,
    finish_s: f64,
    wall_s: f64,
}

/// Drive one cell through `Engine::new`/`step`/`finish` with the timing
/// adapter, mirroring `simulate`: one table built for the policy, one inside
/// the engine.
fn traced_cell(specs: &[TxnSpec], acc: &mut EngineTrace) -> SimResult {
    let started = Instant::now();
    let table = TxnTable::new(specs.to_vec()).expect("validated at setup");
    let policy = Timed::new(asets_star(&table));
    let mut engine = Engine::new(specs.to_vec(), policy).expect("validated at setup");
    loop {
        let t = Instant::now();
        let more = engine.step();
        let ns = t.elapsed().as_nanos() as u64;
        acc.step_ns.push(ns as f64);
        acc.step_total_ns += ns;
        if !more {
            break;
        }
    }
    acc.cache_hits += engine.policy().cache_hits();
    acc.clock.absorb(engine.policy().clock().clone());
    let t = Instant::now();
    let result = engine.finish();
    acc.finish_s += t.elapsed().as_secs_f64();
    acc.wall_s += started.elapsed().as_secs_f64();
    result
}

/// `--trace 1`: one untraced sweep, one traced sweep with identical
/// schedules, per-layer metrics from the traced one.
pub fn run_traced(batch: Batch, seed: u64, report: &mut Report) -> Result<(), String> {
    let cells = setup(batch, seed, report)?;
    let (untraced, untraced_spent) = sweep(&cells, PolicyKind::asets_star())?;
    check_sweep(&cells, &untraced, report);
    if batch == Batch::Table1 {
        check_reference(&cells, &untraced, seed, report);
    }
    report.attempted = 2 * cells.len() as u64;

    let mut acc = EngineTrace::default();
    let (mut points, mut epochs, mut events, mut width, mut preempt) = (0, 0, 0, 0u32, 0);
    for (i, cell) in cells.iter().enumerate() {
        let r = traced_cell(&cell.specs, &mut acc);
        if !same_schedule(&r, &untraced[i]) {
            report.fail(format!(
                "cell {i}: traced schedule differs from the untraced one"
            ));
        }
        points += r.stats.scheduling_points;
        preempt += r.stats.preemptions;
        epochs += r.epochs.epochs;
        events += r.epochs.events;
        width = width.max(r.epochs.max_epoch_width);
    }
    let clock = &acc.clock;
    let mut maintain: Vec<f64> = clock.maintain_ns.iter().map(|&n| n as f64).collect();
    let mut select: Vec<f64> = clock.select_ns.iter().map(|&n| n as f64).collect();
    let selects = select.len() as f64;
    report.set("table.builds", 2.0);
    report.set("policy.maintain_s", clock.maintain_s());
    report.set("policy.maintain_calls", maintain.len() as f64);
    report.set("policy.maintain_events", clock.maintain_events as f64);
    report.set("policy.maintain_ns_p50", quantile(&mut maintain, 0.50));
    report.set("policy.maintain_ns_p99", quantile(&mut maintain, 0.99));
    report.set("policy.select_s", clock.select_s());
    report.set("policy.select_calls", selects);
    report.set("policy.select_ns_p50", quantile(&mut select, 0.50));
    report.set("policy.select_ns_p99", quantile(&mut select, 0.99));
    report.set("policy.cache_hits", acc.cache_hits as f64);
    report.set(
        "policy.cache_hit_ratio",
        acc.cache_hits as f64 / selects.max(1.0),
    );
    report.set("engine.points", points as f64);
    report.set("engine.epochs", epochs as f64);
    report.set("engine.events", events as f64);
    report.set("engine.max_epoch_width", width as f64);
    report.set("engine.preemptions", preempt as f64);
    report.set("engine.step_ns_p50", quantile(&mut acc.step_ns, 0.50));
    report.set("engine.step_ns_p99", quantile(&mut acc.step_ns, 0.99));
    report.set(
        "engine.self_s",
        acc.step_total_ns as f64 / 1e9 - clock.maintain_s() - clock.select_s(),
    );
    report.set("engine.finish_s", acc.finish_s);
    report.set("trace.overhead_ratio", acc.wall_s / untraced_spent.wall);
    report.note(format!(
        "percentiles: maintain over {} passes, select over {} calls, step over {} steps",
        maintain.len(),
        select.len(),
        acc.step_ns.len()
    ));

    // The same cells under EDF, alternating with ASETS*, median ratio.
    let reps = if batch == Batch::Table1 { 3 } else { 1 };
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (_, edf) = sweep(&cells, PolicyKind::Edf)?;
        let (_, asets) = sweep(&cells, PolicyKind::asets_star())?;
        ratios.push(asets.cpu / edf.cpu);
    }
    report.set("policy.asets_over_edf", median(&ratios));
    quality(&cells, &untraced, untraced_spent.cpu, report);
    Ok(())
}
