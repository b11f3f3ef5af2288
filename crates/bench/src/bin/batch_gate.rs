//! `batch_gate` — fail the build if epoch-coalesced maintenance stops
//! paying for itself.
//!
//! ```text
//! batch_gate [BENCH_scheduler.json] [threshold-%]
//! ```
//!
//! Reads the criterion-shim summary for `scheduler_overhead` and compares
//! `deep_workflow_scale/batched/100` against
//! `deep_workflow_scale/indexed/100` — the *same* workload under the same
//! indexed ASETS\* policy, the only difference being that the latter runs
//! it under `PerEvent` (hook-by-hook maintenance). The coalesced
//! `on_batch` pass exists purely as an optimization (its results are
//! pinned bit-identical by `tests/batched_determinism.rs`, which CI runs
//! next to this gate), so it is never allowed to cost more than
//! `threshold` (default 5) percent over the per-event baseline.
//!
//! Both rows must come from one bench invocation on one machine; comparing
//! a quick-mode run against a checked-in full-mode file measures the mode,
//! not the code. The 100k-transaction headroom ratio is printed as an
//! informational row but not gated (quick-mode sampling is too coarse at
//! that size for a hard threshold).

use asets_bench::artifact::mean_ns;
use std::process::ExitCode;

fn run(sched_path: &str, threshold_pct: f64) -> Result<(), String> {
    let baseline = mean_ns(sched_path, "deep_workflow_scale", "indexed/100")?;
    let batched = mean_ns(sched_path, "deep_workflow_scale", "batched/100")?;
    let ratio = batched / baseline;
    println!(
        "baseline  deep_workflow_scale/indexed/100   {:>14.1} ns",
        baseline
    );
    println!(
        "batched   deep_workflow_scale/batched/100   {:>14.1} ns   ({:+.2}% vs baseline)",
        batched,
        (ratio - 1.0) * 100.0
    );
    // Informational: the 100k-transaction headroom comparison.
    if let (Ok(big), Ok(big_batched)) = (
        mean_ns(sched_path, "deep_workflow_scale", "indexed_100k/100"),
        mean_ns(
            sched_path,
            "deep_workflow_scale",
            "indexed_100k_batched/100",
        ),
    ) {
        println!(
            "headroom  indexed_100k_batched/100          {:>14.1} ns   ({:.2}x vs indexed_100k)",
            big_batched,
            big / big_batched
        );
    }
    if ratio > 1.0 + threshold_pct / 100.0 {
        return Err(format!(
            "batched engine mode is {:.2}% slower than the per-event baseline \
             (threshold {threshold_pct}%)",
            (ratio - 1.0) * 100.0
        ));
    }
    println!("gate ok: batched mode within {threshold_pct}% of the per-event baseline");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sched_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_scheduler.json");
    let threshold = match args.get(1).map(|s| s.parse::<f64>()) {
        None => 5.0,
        Some(Ok(v)) if v > 0.0 => v,
        Some(_) => {
            eprintln!("usage: batch_gate [scheduler.json] [threshold-%]");
            return ExitCode::FAILURE;
        }
    };
    match run(sched_path, threshold) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("batch_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
