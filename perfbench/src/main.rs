//! `asets-perfbench` — the scheduler's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_sweep|deep_chains|skewed_shards|live_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every measured metric as `name = value unit`, then one JSON
//! result line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` beside this crate for why each
//! workload exists and which end-to-end metric each layer metric moves.

mod adapter;
mod batch;
mod check;
mod live;
mod metrics;
mod shards;

use metrics::{median, nproc, peak_rss_mb, Report};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["table1_sweep", "deep_chains", "skewed_shards", "live_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Fresh processes that each run the workload's setup alone, one after
/// another, before the measured run. Setup speed on a shared host depends
/// on the process: the same seed's setup read 0.06 s in one process and
/// 0.085 s in the next, which no reference kernel run inside the process
/// tracked. `setup_s` is the median over these processes and the measured
/// one.
const SETUP_PROCESSES: usize = 4;
/// Set in the environment of a setup-only process.
const SETUP_ONLY: &str = "ASETS_PERFBENCH_SETUP_ONLY";

/// `setup_s` of each setup-only process.
fn setup_in_fresh_processes() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..SETUP_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(std::env::args().skip(1))
                .env(SETUP_ONLY, "1")
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("setup process: {e}"))?;
            if !out.status.success() {
                return Err(format!("setup process exited with {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("setup_s = "))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
                .ok_or_else(|| "setup process printed no setup_s".to_string())
        })
        .collect()
}

/// Only the workload's setup, for `setup_in_fresh_processes`.
fn setup_only(args: &Args, report: &mut Report) -> Result<(), String> {
    use batch::Batch;
    match args.workload.as_str() {
        "table1_sweep" => batch::setup(Batch::Table1, args.seed, report).map(drop),
        "deep_chains" => batch::setup(Batch::DeepChains, args.seed, report).map(drop),
        "skewed_shards" => {
            shards::setup(args.seed, report);
            Ok(())
        }
        "live_open" => live::setup(args.seed, args.seconds, false, report).map(drop),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    use batch::Batch;
    match (args.workload.as_str(), args.trace) {
        ("table1_sweep", false) => batch::run(Batch::Table1, args.seed, args.seconds, report),
        ("table1_sweep", true) => batch::run_traced(Batch::Table1, args.seed, report),
        ("deep_chains", false) => batch::run(Batch::DeepChains, args.seed, args.seconds, report),
        ("deep_chains", true) => batch::run_traced(Batch::DeepChains, args.seed, report),
        ("skewed_shards", false) => shards::run(args.seed, args.seconds, report),
        ("skewed_shards", true) => shards::run_traced(args.seed, report),
        ("live_open", false) => live::run(args.seed, args.seconds, report),
        ("live_open", true) => live::run_traced(args.seed, args.seconds, report),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asets-perfbench: {e}");
            eprintln!(
                "usage: asets-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if std::env::var_os(SETUP_ONLY).is_some() {
        if let Err(e) = setup_only(&args, &mut report) {
            eprintln!("asets-perfbench: {} setup: {e}", args.workload);
            return ExitCode::FAILURE;
        }
        println!("setup_s = {} s", report.get("setup_s").unwrap_or(0.0));
        return ExitCode::SUCCESS;
    }
    let mut setups = Vec::new();
    if !args.trace {
        match setup_in_fresh_processes() {
            Ok(s) => setups = s,
            Err(e) => {
                eprintln!("asets-perfbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = run(&args, &mut report) {
        eprintln!("asets-perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(own) = report.get("setup_s").filter(|_| !setups.is_empty()) {
        setups.push(own);
        report.set("setup_s", median(&setups));
        report.note(format!(
            "setup_s: median over {} processes, the last the measured one: {setups:?}",
            setups.len()
        ));
    }
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("host.nproc", nproc() as f64);
    report.note(format!(
        "workload {} seed {} trace {} nproc {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc()
    ));
    let missing = report.missing_end_to_end();
    if !args.trace && !missing.is_empty() {
        report.fail(format!("metrics not measured: {}", missing.join(", ")));
    }
    report.print(args.trace);
    ExitCode::SUCCESS
}
