//! `obs_gate` — fail the build if the observer-disabled scheduler path
//! regresses against the uninstrumented baseline.
//!
//! ```text
//! obs_gate [BENCH_obs.json] [BENCH_scheduler.json] [threshold-%]
//! ```
//!
//! Reads the criterion-shim summaries for `observer_overhead` (obs file)
//! and `scheduler_overhead` (baseline file), then compares
//! `observer_overhead/disabled/100` against
//! `deep_workflow_scale/indexed/100` — the *same* workload under the same
//! indexed ASETS\* policy, the only difference being that the former is
//! built from code carrying the `ObserverSlot` hooks. If the disabled path
//! is more than `threshold` (default 5) percent slower, exits non-zero.
//!
//! Both files must come from the same machine and the same bench mode
//! (CI regenerates both in `BENCH_QUICK=1`); comparing a quick-mode run
//! against a checked-in full-mode file measures the mode, not the code.
//! The noop/flight-recorder/spans ratios are printed as their own artifact
//! rows but not gated — attached-observer cost is a feature, not a
//! regression.
//!
//! Two further gates pin the batch-native observation contract:
//!
//! * `observer_overhead/batched/100` (observed, coalesced maintenance)
//!   must be at least [`MIN_BATCHED_SPEEDUP`]× faster than
//!   `observer_overhead/flight_recorder/100` (the same observer with
//!   ASETS\* under `PerEvent`) — attaching an observer must not forfeit
//!   the coalescing speedup.
//! * `observer_overhead/sampled_64/100` (1-in-64 sampling observer,
//!   coalesced) must be within [`SAMPLED_MAX_OVER_PCT`] percent of
//!   `observer_overhead/disabled_batched/100` — always-on production
//!   telemetry at the default sampling rate is close enough to free.

use asets_bench::artifact::mean_ns;
use std::process::ExitCode;

fn run(obs_path: &str, sched_path: &str, threshold_pct: f64) -> Result<(), String> {
    let baseline = mean_ns(sched_path, "deep_workflow_scale", "indexed/100")?;
    let disabled = mean_ns(obs_path, "observer_overhead", "disabled/100")?;
    let ratio = disabled / baseline;
    println!(
        "baseline  deep_workflow_scale/indexed/100   {:>14.1} ns",
        baseline
    );
    println!(
        "disabled  observer_overhead/disabled/100    {:>14.1} ns   ({:+.2}% vs baseline)",
        disabled,
        (ratio - 1.0) * 100.0
    );
    // Informational: what attaching an observer actually costs.
    for id in [
        "noop/100",
        "flight_recorder/100",
        "spans/100",
        "disabled_batched/100",
        "batched/100",
        "sampled_64/100",
        "bus_live/100",
    ] {
        if let Ok(v) = mean_ns(obs_path, "observer_overhead", id) {
            println!(
                "attached  observer_overhead/{id:<20} {:>14.1} ns   ({:+.2}% vs disabled)",
                v,
                (v / disabled - 1.0) * 100.0
            );
        }
    }
    if ratio > 1.0 + threshold_pct / 100.0 {
        return Err(format!(
            "observer-disabled path is {:.2}% slower than the uninstrumented baseline \
             (threshold {threshold_pct}%)",
            (ratio - 1.0) * 100.0
        ));
    }
    println!("gate ok: disabled path within {threshold_pct}% of baseline");

    // Batch-native observation gates (rows exist from this PR on; older
    // artifact files fail loudly via mean_ns's missing-row error).
    let per_event_observed = mean_ns(obs_path, "observer_overhead", "flight_recorder/100")?;
    let batched_observed = mean_ns(obs_path, "observer_overhead", "batched/100")?;
    let speedup = per_event_observed / batched_observed;
    if speedup < MIN_BATCHED_SPEEDUP {
        return Err(format!(
            "observed-batched is only {speedup:.2}x the observed-per-event run \
             (gate: >= {MIN_BATCHED_SPEEDUP}x) — observation is forfeiting batching"
        ));
    }
    println!(
        "gate ok: observed-batched {speedup:.2}x observed-per-event (>= {MIN_BATCHED_SPEEDUP}x)"
    );

    let disabled_batched = mean_ns(obs_path, "observer_overhead", "disabled_batched/100")?;
    let sampled = mean_ns(obs_path, "observer_overhead", "sampled_64/100")?;
    let sampled_ratio = sampled / disabled_batched;
    if sampled_ratio > 1.0 + SAMPLED_MAX_OVER_PCT / 100.0 {
        return Err(format!(
            "sampled-1/64 observation is {:.2}% over the unobserved batched engine \
             (threshold {SAMPLED_MAX_OVER_PCT}%)",
            (sampled_ratio - 1.0) * 100.0
        ));
    }
    println!(
        "gate ok: sampled-1/64 within {SAMPLED_MAX_OVER_PCT}% of unobserved batched ({:+.2}%)",
        (sampled_ratio - 1.0) * 100.0
    );
    Ok(())
}

/// Minimum speedup of observed coalesced maintenance over the observed
/// `PerEvent` run. Measured 1.19-1.25x across quick-mode runs on the
/// 10k/100-chain workload against a per-event baseline that also
/// allocated per completion; interleaved on a shared 2-vCPU host the
/// allocation-free `PerEvent` baseline reads 1.10-1.13x (recording cost
/// dominates both runs, so the relative gain is smaller than the
/// unobserved ~1.25x). Coalescing silently lost shows ~1.0x.
const MIN_BATCHED_SPEEDUP: f64 = 1.1;

/// Ceiling on the sampled-1/64 overhead versus the unobserved batched
/// engine, in percent. Measured 2-6% across quick-mode runs; an unsampled
/// recorder costs ~66%, so 10% cleanly separates "sampling works" from
/// "sampling silently bypassed" on a noisy 3-sample CI run.
const SAMPLED_MAX_OVER_PCT: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let obs_path = args.first().map(String::as_str).unwrap_or("BENCH_obs.json");
    let sched_path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_scheduler.json");
    let threshold = match args.get(2).map(|s| s.parse::<f64>()) {
        None => 5.0,
        Some(Ok(v)) if v > 0.0 => v,
        Some(_) => {
            eprintln!("usage: obs_gate [obs.json] [scheduler.json] [threshold-%]");
            return ExitCode::FAILURE;
        }
    };
    match run(obs_path, sched_path, threshold) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
