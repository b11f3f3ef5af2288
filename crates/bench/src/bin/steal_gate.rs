//! `steal_gate` — the rebalancing acceptance gate for skewed traffic.
//!
//! ```text
//! steal_gate [summary.json]
//! ```
//!
//! Runs the Zipf-skewed web batch ([`asets_workload::skewed_shards`]) and
//! its uniform (α = 0) twin through the sharded runtime at K ∈ {1, 2, 4, 8}
//! in three modes — static LPT placement, epoch migration, and migration +
//! work stealing, both rebalanced modes on the threaded driver — entirely
//! in-process, and gates on **simulated** throughput and tardiness
//! (`n / merged makespan` is the same metric `shard_gate` uses):
//!
//! 1. **Skewed win**: at K = 4, migration + stealing must reach at least
//!    **1.5x** the static-placement throughput. The skewed batch pins one
//!    shard with a huge-but-light hot-page star while heavy singletons
//!    crowd the rest; a rebalancer that cannot fix that is not doing its
//!    job.
//! 2. **Uniform no-regression**: at K = 4 on the uniform twin — where
//!    static LPT is already near-optimal — rebalancing must stay within
//!    **5 percent** of static throughput (no churn tax).
//! 3. **Wall-clock cost** (recorded, not gated): the threaded driver's
//!    K = 4 skewed wall clock over static placement's, best of 3 each.
//!    The target — within 1.5x of static — is still open.
//! 4. **Tardiness win**: migration + stealing at K = 4 skewed must retain
//!    at least **1.5x** lower average simulated tardiness than static
//!    placement — going parallel must not forfeit the balancing win.
//! 5. **Bit-identity**: two migration + stealing K = 4 skewed runs must be
//!    bit-identical (outcomes, stats, telemetry) — thread scheduling must
//!    never leak into results.
//!
//! The full mode × K table is written as a provenance-stamped JSON summary
//! (same flat-results shape as the criterion shim) for the CI artifact.

use asets_bench::artifact;
use asets_core::policy::PolicyKind;
use asets_core::time::SimDuration;
use asets_core::txn::TxnSpec;
use asets_sim::{RebalanceConfig, ShardedResult, ShardedRuntime};
use asets_workload::skewed_shards;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Transactions per batch.
const N: usize = 4_000;
/// Pages in the Zipf popularity distribution. Few enough pages that the
/// hot-page star leaves real slack for the planner: at K = 4 the skewed
/// batch is imbalance-limited, not work-limited, so rebalancing headroom
/// exists for the tardiness gate to measure.
const PAGES: u64 = 16;
/// Zipf exponent of the skewed batch. At 1.5 the hot components are big
/// but the singleton tail still carries enough work to overload shards
/// unevenly; steeper skews collapse the batch into one giant star whose
/// balanced makespan already equals the work bound (no headroom left).
const ALPHA: f64 = 1.5;
/// Workload seed (any fixed value; the gate is deterministic given it).
const SEED: u64 = 11;
/// Shard counts visited by the table.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Migration epoch: ~10 planner rounds inside the n/2-tick arrival window.
const EPOCH_UNITS: u64 = 200;
/// Wall-clock samples per side of the threaded-vs-static ratio.
const WALL_SAMPLES: usize = 3;

/// One measured cell of the mode × K table.
struct Cell {
    dist: &'static str,
    mode: &'static str,
    k: usize,
    throughput: f64,
    makespan: f64,
    avg_tardiness: f64,
    wall_ms: f64,
    migrated: u64,
    steals: u64,
}

fn mode_config(mode: &str) -> Option<RebalanceConfig> {
    let epoch = SimDuration::from_units_int(EPOCH_UNITS);
    match mode {
        "static" => None,
        "migrate" => Some(RebalanceConfig::migrate_every(epoch)),
        "migrate_steal" => Some(RebalanceConfig::migrate_every(epoch).with_steal(4)),
        _ => unreachable!("unknown mode {mode}"),
    }
}

fn run_mode(specs: &[TxnSpec], mode: &str, k: usize) -> Result<ShardedResult, String> {
    let mut rt = ShardedRuntime::new(specs.to_vec(), PolicyKind::asets_star()).shards(k);
    if let Some(cfg) = mode_config(mode) {
        rt = rt.rebalance(cfg);
    }
    rt.run()
        .map_err(|e| format!("batch failed to simulate: {e}"))
}

fn run_table() -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (dist, alpha) in [("skewed", ALPHA), ("uniform", 0.0)] {
        let specs = skewed_shards(N, PAGES, alpha, SEED);
        println!("{dist} batch (n={N}, pages={PAGES}, alpha={alpha}):");
        println!(
            "  K   mode            txns/unit   makespan   avg_tard    wall_ms   migrated   stolen"
        );
        for &k in &SHARD_COUNTS {
            for mode in ["static", "migrate", "migrate_steal"] {
                let started = Instant::now();
                let r =
                    run_mode(&specs, mode, k).map_err(|e| format!("{dist} {mode} K={k}: {e}"))?;
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let makespan = r.merged.stats.makespan.as_units();
                let (migrated, steals) = r
                    .rebalance
                    .as_ref()
                    .map(|s| (s.migrated_txns, s.steals))
                    .unwrap_or((0, 0));
                let cell = Cell {
                    dist,
                    mode,
                    k,
                    throughput: N as f64 / makespan,
                    makespan,
                    avg_tardiness: r.merged.summary.avg_tardiness,
                    wall_ms,
                    migrated,
                    steals,
                };
                println!(
                    "  {k}   {mode:<14}  {:>9.3}   {makespan:>8.1}   {:>8.2}   {wall_ms:>8.1}   {migrated:>8}   {steals:>6}",
                    cell.throughput, cell.avg_tardiness
                );
                cells.push(cell);
            }
        }
    }
    Ok(cells)
}

fn cell_of<'a>(cells: &'a [Cell], dist: &str, mode: &str, k: usize) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.dist == dist && c.mode == mode && c.k == k)
        .expect("cell visited by run_table")
}

fn check_gates(cells: &[Cell]) -> Result<(), String> {
    let skew_static = cell_of(cells, "skewed", "static", 4).throughput;
    let skew_stolen = cell_of(cells, "skewed", "migrate_steal", 4).throughput;
    let win = skew_stolen / skew_static;
    if win < 1.5 {
        return Err(format!(
            "skewed K=4 migrate+steal is only {win:.2}x static throughput (gate: >= 1.5x)"
        ));
    }
    println!("gate ok: skewed K=4 migrate+steal is {win:.2}x static (>= 1.5x)");

    let uni_static = cell_of(cells, "uniform", "static", 4).throughput;
    let uni_stolen = cell_of(cells, "uniform", "migrate_steal", 4).throughput;
    let parity = uni_stolen / uni_static;
    if (parity - 1.0).abs() > 0.05 {
        return Err(format!(
            "uniform K=4 migrate+steal throughput is {:.2}% off static (gate: within 5%)",
            (parity - 1.0) * 100.0
        ));
    }
    println!(
        "gate ok: uniform K=4 migrate+steal within 5% of static ({:+.2}%)",
        (parity - 1.0) * 100.0
    );

    // Tardiness win: the parallel driver keeps the balancing benefit
    // (simulated time, so exact and machine-independent).
    let static_tard = cell_of(cells, "skewed", "static", 4).avg_tardiness;
    let stolen_tard = cell_of(cells, "skewed", "migrate_steal", 4).avg_tardiness;
    let tard_win = static_tard / stolen_tard.max(f64::EPSILON);
    if tard_win < 1.5 {
        return Err(format!(
            "skewed K=4 migrate+steal avg tardiness is only {tard_win:.2}x better than static \
             ({stolen_tard:.2} vs {static_tard:.2}; gate: >= 1.5x)"
        ));
    }
    println!(
        "gate ok: skewed K=4 migrate+steal tardiness is {tard_win:.2}x better than static (>= 1.5x)"
    );
    Ok(())
}

/// Best-of-N wall clock for one configuration.
fn best_wall_ms(specs: &[TxnSpec], mode: &str, k: usize) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..WALL_SAMPLES {
        let started = Instant::now();
        run_mode(specs, mode, k)?;
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(best)
}

/// Row 3 and gate 5: the threaded driver's wall clock against static
/// placement at K=4 on the skewed batch (recorded), and its bit-identity.
fn check_threaded(cells: &mut Vec<Cell>) -> Result<(), String> {
    let specs = skewed_shards(N, PAGES, ALPHA, SEED);

    let static_ms = best_wall_ms(&specs, "static", 4)?;
    let threaded = best_wall_ms(&specs, "migrate_steal", 4)?;
    let ratio = threaded / static_ms;
    cells.push(Cell {
        dist: "skewed",
        mode: "threaded_k4_wall_best",
        k: 4,
        throughput: 0.0,
        makespan: 0.0,
        avg_tardiness: ratio, // recorded ratio; labelled row below
        wall_ms: threaded,
        migrated: 0,
        steals: 0,
    });
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "recorded: threaded K=4 skewed wall clock is {ratio:.2}x static \
         ({threaded:.1} ms vs {static_ms:.1} ms, best of {WALL_SAMPLES}, {cores} CPUs)"
    );

    let a = run_mode(&specs, "migrate_steal", 4)?;
    let b = run_mode(&specs, "migrate_steal", 4)?;
    if a.merged.outcomes != b.merged.outcomes
        || a.merged.stats != b.merged.stats
        || a.rebalance != b.rebalance
    {
        return Err("threaded K=4 skewed runs are not bit-identical across executions".into());
    }
    println!("gate ok: threaded K=4 skewed is bit-identical across repeated runs");
    Ok(())
}

fn write_summary(path: &str, cells: &[Cell]) -> Result<(), String> {
    let mut out = artifact::header("steal_gate");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(
        out,
        "  \"workload\": {{\"n\": {N}, \"pages\": {PAGES}, \"alpha_skewed\": {ALPHA}, \
         \"seed\": {SEED}, \"epoch\": {EPOCH_UNITS}, \"cores\": {cores}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"group\": \"steal_gate\", \"id\": \"{}/{}/k{}\", \"throughput\": {:.6}, \
             \"makespan\": {:.1}, \"avg_tardiness\": {:.4}, \"wall_ms\": {:.2}, \
             \"migrated_txns\": {}, \"steals\": {}}}{}",
            c.dist,
            c.mode,
            c.k,
            c.throughput,
            c.makespan,
            c.avg_tardiness,
            c.wall_ms,
            c.migrated,
            c.steals,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("could not write {path}: {e}"))?;
    println!("gate summary written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_steal_gate.json");
    let run = run_table().and_then(|mut cells| {
        let gates = check_gates(&cells).and_then(|()| check_threaded(&mut cells));
        write_summary(path, &cells)?;
        gates
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("steal_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
