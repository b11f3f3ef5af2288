//! `asets-serve` — the online serving front-end.
//!
//! Runs a wall-clock soak of the ASETS\* scheduler behind live ingest,
//! admission control and SLO telemetry:
//!
//! ```text
//! asets-serve                         # 5 s open-loop smoke at 10 pages/s
//! asets-serve soak                    # 30 s soak with live SLO output
//! asets-serve --mode closed --users 8 --think 50
//! asets-serve --rate 200 --max-inflight 64 --shed-infeasible   # overload
//! asets-serve soak --prometheus slo.prom --jsonl slo.jsonl
//! asets-serve soak --scrape 127.0.0.1:9898     # live GET /metrics, /slo
//! asets-serve --flight-out flight.jsonl        # asets-obs why explains sheds
//! ```
//!
//! Flags: `--duration SECS`, `--mode open|closed`, `--rate PAGES/S`,
//! `--users N`, `--think MS`, `--policy NAME`, `--servers N`,
//! `--max-inflight N`, `--shed-infeasible`, `--seed N`, `--scale TICKS/µS`,
//! `--report-every MS`, `--prometheus PATH`, `--jsonl PATH`,
//! `--scrape ADDR` (live scrape endpoint, `:0` picks a port),
//! `--flight-out PATH` (admission flight dump for `asets-obs`), `--quiet`.

use asets_experiments::config::{parse_policy, policy_names};
use asets_experiments::serve::{
    check_conservation, run_serve_with, ServeConfig, ServeMode, ServeTelemetry,
};
use asets_obs::FlightRecorder;
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    cfg: ServeConfig,
    prometheus: Option<String>,
    jsonl: Option<String>,
    scrape: Option<String>,
    flight_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = ServeConfig {
        live_output: true,
        ..ServeConfig::default()
    };
    let mut prometheus = None;
    let mut jsonl = None;
    let mut scrape = None;
    let mut flight_out = None;
    let mut rate = None;
    let mut users = None;
    let mut think = None;
    let mut mode = None;
    let mut it = args.iter().peekable();
    let next_val = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
                    flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "soak" => {
                cfg.duration = Duration::from_secs(30);
            }
            "--duration" => {
                let v: f64 = next_val(&mut it, "--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
                cfg.duration = Duration::from_secs_f64(v);
            }
            "--mode" => mode = Some(next_val(&mut it, "--mode")?),
            "--rate" => {
                rate = Some(
                    next_val(&mut it, "--rate")?
                        .parse::<f64>()
                        .map_err(|e| format!("--rate: {e}"))?,
                )
            }
            "--users" => {
                users = Some(
                    next_val(&mut it, "--users")?
                        .parse::<u64>()
                        .map_err(|e| format!("--users: {e}"))?,
                )
            }
            "--think" => {
                think = Some(
                    next_val(&mut it, "--think")?
                        .parse::<f64>()
                        .map_err(|e| format!("--think: {e}"))?,
                )
            }
            "--policy" => {
                let name = next_val(&mut it, "--policy")?;
                cfg.policy = parse_policy(&name)
                    .ok_or_else(|| format!("unknown policy `{name}` ({})", policy_names()))?
            }
            "--servers" => {
                cfg.servers = next_val(&mut it, "--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?
            }
            "--max-inflight" => {
                cfg.max_inflight = next_val(&mut it, "--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--shed-infeasible" => cfg.shed_infeasible = true,
            "--seed" => {
                cfg.seed = next_val(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--scale" => {
                cfg.scale = next_val(&mut it, "--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--report-every" => {
                let ms: u64 = next_val(&mut it, "--report-every")?
                    .parse()
                    .map_err(|e| format!("--report-every: {e}"))?;
                cfg.report_every = Duration::from_millis(ms.max(1));
            }
            "--prometheus" => prometheus = Some(next_val(&mut it, "--prometheus")?),
            "--jsonl" => jsonl = Some(next_val(&mut it, "--jsonl")?),
            "--scrape" => scrape = Some(next_val(&mut it, "--scrape")?),
            "--flight-out" => flight_out = Some(next_val(&mut it, "--flight-out")?),
            "--quiet" => cfg.live_output = false,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see --help in the doc)"
                ))
            }
        }
    }
    cfg.mode = match mode.as_deref() {
        None | Some("open") => ServeMode::Open {
            pages_per_sec: rate.unwrap_or(10.0),
        },
        Some("closed") => ServeMode::Closed {
            users: users.unwrap_or(8).clamp(1, 64),
            mean_think_ms: think.unwrap_or(50.0),
        },
        Some(other) => return Err(format!("unknown mode `{other}` (open|closed)")),
    };
    Ok(Cli {
        cfg,
        prometheus,
        jsonl,
        scrape,
        flight_out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("asets-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "asets-serve: {:?} for {:.1}s, policy {}, {} servers, max in-flight {}",
        cli.cfg.mode,
        cli.cfg.duration.as_secs_f64(),
        cli.cfg.policy.label(),
        cli.cfg.servers,
        cli.cfg.max_inflight,
    );
    let mut telemetry = match cli.scrape.as_deref() {
        Some(addr) => match ServeTelemetry::start(addr) {
            Ok(t) => {
                println!(
                    "scrape endpoint live at {} (GET /metrics, /slo, /health)",
                    t.url()
                );
                Some(t)
            }
            Err(e) => {
                eprintln!("asets-serve: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let report = match run_serve_with(&cli.cfg, telemetry.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("asets-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary());
    if let Some(t) = telemetry.take() {
        let bus = t.finish();
        println!(
            "telemetry bus: {} completions, {} decisions, {} dropped events",
            bus.counter("bus_completions_total"),
            bus.counter("bus_decisions_total"),
            bus.drops(),
        );
    }
    if let Err(e) = check_conservation(&report) {
        eprintln!("asets-serve: counter conservation violated: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = cli.prometheus {
        if let Err(e) = std::fs::write(&path, &report.prometheus) {
            eprintln!("asets-serve: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("prometheus exposition written to {path}");
    }
    if let Some(path) = cli.jsonl {
        let body = report.jsonl.join("\n") + "\n";
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("asets-serve: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{} JSONL reports written to {path}", report.reports_emitted);
    }
    if let Some(path) = cli.flight_out {
        let mut rec = FlightRecorder::new(report.admission.events.len().max(16));
        rec.ingest_admission(&report.admission);
        if let Err(e) = rec.dump_to(std::path::Path::new(&path)) {
            eprintln!("asets-serve: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "{} admission events written to {path} (try: asets-obs summary {path})",
            report.admission.events.len()
        );
    }
    ExitCode::SUCCESS
}
