//! `serve_gate` — the online-serving acceptance gate.
//!
//! ```text
//! serve_gate [summary.json] [--secs N]
//! ```
//!
//! Runs two wall-clock soaks of the live front-end (`asets-serve` stack:
//! ingest rings → admission control → `LivePump` engine → `SloMonitor`)
//! and gates on what must hold at each operating point:
//!
//! 1. **Steady** (30 s at 15 pages/s on 2 servers by default): no
//!    ingest-ring overflow, no shedding, periodic SLO reports actually
//!    flowed (no monitor stall), lifetime miss ratio at or under the
//!    pinned threshold, and clean counter conservation.
//! 2. **Overload** (5 s at 20x the steady rate with a tight in-flight
//!    bound): admission *must* shed, the in-flight bound must hold
//!    (bounded queues, not collapse), and admitted work still completes.
//!
//! The steady soak also runs the full telemetry side-car: a live
//! `TelemetryBus` + scrape endpoint, probed over real HTTP *while the
//! soak runs*. The gate requires every mid-soak `GET /metrics`, `/slo`
//! and `/health` to answer 200, and the bus's merged completion counter
//! to equal the SLO monitor's exactly (zero ring drops tolerated at
//! steady load) — counter conservation across the second pipeline.
//!
//! `--secs` (or `SERVE_GATE_SECS`) shrinks the steady soak for local
//! runs; the summary JSON is provenance-stamped like `steal_gate`'s.

use asets_bench::artifact;
use asets_experiments::serve::{
    check_conservation, run_serve, run_serve_with, ServeConfig, ServeMode, ServeReport,
    ServeTelemetry,
};
use asets_obs::http_get;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Steady offered load, pages per wall second.
const STEADY_RATE: f64 = 15.0;
/// Overload offered load, pages per wall second.
const OVERLOAD_RATE: f64 = 300.0;
/// Overload in-flight bound (transactions).
const OVERLOAD_INFLIGHT: usize = 12;
/// Pinned lifetime miss-ratio ceiling for the steady soak. Measured ~0.00
/// at 15 pages/s on 2 servers; 0.05 leaves room for slow CI machines.
const STEADY_MISS_CEILING: f64 = 0.05;
/// Workload seed.
const SEED: u64 = 11;

struct Row {
    name: &'static str,
    secs: f64,
    report: ServeReport,
    scrape: Option<ScrapeStats>,
}

/// What the mid-soak HTTP probes and the post-soak bus saw.
struct ScrapeStats {
    probes: u64,
    failures: u64,
    metrics_well_formed: bool,
    slo_well_formed: bool,
    bus_completions: u64,
    bus_drops: u64,
}

/// Wall cadence of the mid-soak scrape probes.
const PROBE_EVERY: Duration = Duration::from_millis(250);

fn steady_cfg(secs: f64) -> ServeConfig {
    ServeConfig {
        seed: SEED,
        duration: Duration::from_secs_f64(secs),
        mode: ServeMode::Open {
            pages_per_sec: STEADY_RATE,
        },
        report_every: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

fn overload_cfg(secs: f64) -> ServeConfig {
    ServeConfig {
        max_inflight: OVERLOAD_INFLIGHT,
        mode: ServeMode::Open {
            pages_per_sec: OVERLOAD_RATE,
        },
        ..steady_cfg(secs)
    }
}

/// Run the steady soak with the telemetry side-car attached and a probe
/// thread scraping the endpoint over real HTTP for the whole soak.
fn run_steady_scraped(cfg: &ServeConfig) -> Result<(ServeReport, ScrapeStats), String> {
    let mut telemetry = ServeTelemetry::start("127.0.0.1:0")?;
    let addr = telemetry.addr();
    println!("  scrape endpoint live at {}", telemetry.url());
    let stop = Arc::new(AtomicBool::new(false));
    let probe_stop = Arc::clone(&stop);
    let prober = std::thread::spawn(move || {
        let (mut probes, mut failures) = (0u64, 0u64);
        let (mut metrics_ok, mut slo_ok) = (false, false);
        while !probe_stop.load(Ordering::Acquire) {
            probes += 1;
            match http_get(addr, "/metrics") {
                Ok((200, body)) => metrics_ok |= body.contains("bus_completions_total"),
                _ => failures += 1,
            }
            match http_get(addr, "/slo") {
                Ok((200, body)) => slo_ok |= body.contains("slo_completions_total"),
                _ => failures += 1,
            }
            if !matches!(http_get(addr, "/health"), Ok((200, _))) {
                failures += 1;
            }
            std::thread::sleep(PROBE_EVERY);
        }
        (probes, failures, metrics_ok, slo_ok)
    });
    let report = run_serve_with(cfg, Some(&mut telemetry));
    stop.store(true, Ordering::Release);
    let (probes, failures, metrics_well_formed, slo_well_formed) =
        prober.join().map_err(|_| "probe thread panicked")?;
    let bus = telemetry.finish();
    let report = report?;
    Ok((
        report,
        ScrapeStats {
            probes,
            failures,
            metrics_well_formed,
            slo_well_formed,
            bus_completions: bus.counter("bus_completions_total"),
            bus_drops: bus.drops(),
        },
    ))
}

fn run_rows(steady_secs: f64) -> Result<Vec<Row>, String> {
    let overload_secs = steady_secs.clamp(1.0, 5.0);
    let mut rows = Vec::new();
    for (name, cfg, secs) in [
        ("steady", steady_cfg(steady_secs), steady_secs),
        ("overload", overload_cfg(overload_secs), overload_secs),
    ] {
        println!(
            "{name}: {:?} for {secs:.0}s, max in-flight {}",
            cfg.mode, cfg.max_inflight
        );
        let (report, scrape) = if name == "steady" {
            let (report, scrape) = run_steady_scraped(&cfg)?;
            (report, Some(scrape))
        } else {
            (run_serve(&cfg)?, None)
        };
        println!("  {}", report.summary());
        rows.push(Row {
            name,
            secs,
            report,
            scrape,
        });
    }
    Ok(rows)
}

fn check_gates(rows: &[Row]) -> Result<(), String> {
    let steady = &rows[0].report;
    let overload = &rows[1].report;
    for row in rows {
        check_conservation(&row.report)
            .map_err(|e| format!("{}: counter conservation: {e}", row.name))?;
    }

    if steady.live.dropped > 0 {
        return Err(format!(
            "steady: {} jobs dropped at the ingest ring (gate: 0)",
            steady.live.dropped
        ));
    }
    if steady.live.shed_overload + steady.live.shed_infeasible > 0 {
        return Err(format!(
            "steady: shed {}+{} at sane load (gate: 0)",
            steady.live.shed_overload, steady.live.shed_infeasible
        ));
    }
    // SLO-monitor stall check: at a 500 ms cadence a soak must emit at
    // least half its nominal report count (heartbeats guarantee the loop
    // never sleeps through the reporter).
    let expected_reports = (rows[0].secs / 0.5) as u64;
    if steady.reports_emitted < expected_reports / 2 {
        return Err(format!(
            "steady: only {} of ~{expected_reports} SLO reports emitted (monitor stall?)",
            steady.reports_emitted
        ));
    }
    if steady.completions == 0 {
        return Err("steady: no completions".into());
    }
    if steady.miss_ratio > STEADY_MISS_CEILING {
        return Err(format!(
            "steady: miss ratio {:.4} above pinned ceiling {STEADY_MISS_CEILING}",
            steady.miss_ratio
        ));
    }
    println!(
        "gate ok: steady soak clean (miss ratio {:.4} <= {STEADY_MISS_CEILING}, {} reports)",
        steady.miss_ratio, steady.reports_emitted
    );

    let scrape = rows[0]
        .scrape
        .as_ref()
        .ok_or("steady: soak ran without the telemetry side-car")?;
    if scrape.probes == 0 {
        return Err("steady: scrape endpoint was never probed".into());
    }
    if scrape.failures > 0 {
        return Err(format!(
            "steady: {} of {} mid-soak scrape probes failed (gate: 0)",
            scrape.failures,
            scrape.probes * 3
        ));
    }
    if !scrape.metrics_well_formed {
        return Err("steady: no /metrics response carried bus_completions_total".into());
    }
    if !scrape.slo_well_formed {
        return Err("steady: no /slo response carried slo_completions_total".into());
    }
    if scrape.bus_drops > 0 {
        return Err(format!(
            "steady: telemetry bus dropped {} events at steady load (gate: 0)",
            scrape.bus_drops
        ));
    }
    if scrape.bus_completions != steady.completions {
        return Err(format!(
            "steady: bus saw {} completions but the SLO monitor saw {} — \
             counter conservation broken across the telemetry bus",
            scrape.bus_completions, steady.completions
        ));
    }
    println!(
        "gate ok: scrape endpoint answered {} probes mid-soak, bus conserved {} completions",
        scrape.probes, scrape.bus_completions
    );

    if overload.live.shed_overload == 0 {
        return Err(format!(
            "overload: nothing shed at {OVERLOAD_RATE} pages/s with a {OVERLOAD_INFLIGHT}-txn bound"
        ));
    }
    if overload.live.peak_inflight > OVERLOAD_INFLIGHT as u64 {
        return Err(format!(
            "overload: peak in-flight {} exceeded the bound {OVERLOAD_INFLIGHT}",
            overload.live.peak_inflight
        ));
    }
    if overload.completions == 0 {
        return Err("overload: admitted work never completed".into());
    }
    println!(
        "gate ok: overload shed {} jobs, peak in-flight {} <= {OVERLOAD_INFLIGHT}",
        overload.live.shed_overload, overload.live.peak_inflight
    );
    Ok(())
}

fn write_summary(path: &str, rows: &[Row]) -> Result<(), String> {
    let mut out = artifact::header("serve_gate");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"steady_rate\": {STEADY_RATE}, \"overload_rate\": {OVERLOAD_RATE}, \
         \"overload_inflight\": {OVERLOAD_INFLIGHT}, \"seed\": {SEED}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let l = &row.report.live;
        let scrape = row.scrape.as_ref().map_or(String::new(), |s| {
            format!(
                ", \"scrape_probes\": {}, \"scrape_failures\": {}, \
                 \"bus_completions\": {}, \"bus_drops\": {}",
                s.probes, s.failures, s.bus_completions, s.bus_drops
            )
        });
        let _ = writeln!(
            out,
            "    {{\"group\": \"serve_gate\", \"id\": \"{}\", \"secs\": {:.1}, \
             \"submitted\": {}, \"dropped\": {}, \"admitted\": {}, \"shed_overload\": {}, \
             \"shed_infeasible\": {}, \"completions\": {}, \"miss_ratio\": {:.6}, \
             \"window_miss_ratio\": {:.6}, \"p99_tardiness_units\": {:.4}, \
             \"peak_inflight\": {}, \"reports\": {}{}}}{}",
            row.name,
            row.secs,
            l.submitted,
            l.dropped,
            l.admitted,
            l.shed_overload,
            l.shed_infeasible,
            row.report.completions,
            row.report.miss_ratio,
            row.report.window_miss_ratio,
            row.report.p99_tardiness_units,
            l.peak_inflight,
            row.report.reports_emitted,
            scrape,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("could not write {path}: {e}"))?;
    println!("gate summary written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = "BENCH_serve_gate.json".to_string();
    let mut secs = std::env::var("SERVE_GATE_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(30.0);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--secs" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => secs = v,
                _ => {
                    eprintln!("serve_gate: --secs needs a positive number");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            path = arg.clone();
        }
    }
    let run = run_rows(secs).and_then(|rows| {
        write_summary(&path, &rows)?;
        check_gates(&rows)
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
