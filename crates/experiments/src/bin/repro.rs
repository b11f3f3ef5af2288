//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <figure>... [--quick] [--csv <dir>] [--md <file>] [--obs-out <dir>]
//! repro all [--quick] [--csv <dir>] [--md <file>]
//! repro list
//! repro dump <util> <seed> <file>                  # archive one Table I batch
//! repro replay <file> <policy> [--obs-out <dir>]   # simulate an archived batch
//! repro spans <dir> [txns] [shards] [servers]      # traced sharded run
//! ```
//!
//! `--md` appends every report as a markdown table to the given file —
//! how EXPERIMENTS.md's measured sections are produced. `dump`/`replay`
//! use the exact text trace format of `asets_workload::io`. `--obs-out`
//! attaches a flight recorder (to the replay, or to one representative
//! general-case run after the figures) and writes `flight.jsonl` +
//! `metrics.prom` + `metrics.jsonl` for the `asets-obs` CLI.
//!
//! Figures: table1, fig8, fig9, fig10, fig11, fig12, fig13, alpha, fig14,
//! fig15, fig16, fig17, ablations.

use asets_core::policy::PolicyKind;
use asets_core::txn::TxnSpec;
use asets_experiments::config::{parse_policy, policy_names, ExpConfig, FigureId};
use asets_experiments::figures::run_figure;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `repro dump <util> <seed> <file>` — archive a general-case Table I batch.
fn dump(args: &[String]) -> ExitCode {
    let (Some(util), Some(seed), Some(path)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("usage: repro dump <util> <seed> <file>");
        return ExitCode::FAILURE;
    };
    let Ok(util) = util.parse::<f64>() else {
        eprintln!("bad utilization `{util}`");
        return ExitCode::FAILURE;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("bad seed `{seed}`");
        return ExitCode::FAILURE;
    };
    let spec = asets_workload::TableISpec::general_case(util);
    let specs = match asets_workload::generate(&spec, seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = asets_workload::save(&specs, std::path::Path::new(path)) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} transactions to {path}", specs.len());
    ExitCode::SUCCESS
}

/// The `<file> <policy>` arguments `replay` and `gantt` share: the archived
/// batch and the policy to run it under. Prints the problem (`usage` for
/// missing arguments) and returns `None` on failure.
fn load_batch(args: &[String], usage: &str) -> Option<(Vec<TxnSpec>, PolicyKind)> {
    let (Some(path), Some(policy)) = (args.first(), args.get(1)) else {
        eprintln!("usage: {usage}");
        return None;
    };
    let Some(kind) = parse_policy(policy) else {
        eprintln!("unknown policy `{policy}`");
        return None;
    };
    match asets_workload::load(std::path::Path::new(path)) {
        Ok(specs) => Some((specs, kind)),
        Err(e) => {
            eprintln!("{e}");
            None
        }
    }
}

/// `repro replay <file> <policy> [--obs-out <dir>]` — simulate an archived
/// batch, optionally with a flight recorder attached.
fn replay(args: &[String], obs_out: Option<&PathBuf>) -> ExitCode {
    let usage = format!("repro replay <file> <{}> [--obs-out <dir>]", policy_names());
    let Some((specs, kind)) = load_batch(args, &usage) else {
        return ExitCode::FAILURE;
    };
    let observed = match obs_out {
        Some(dir) => {
            match asets_experiments::obs_support::run_observed(specs, kind, usize::MAX / 2) {
                Ok((r, recorder)) => {
                    match asets_experiments::obs_support::write_artifacts(dir, &recorder) {
                        Ok(a) => println!(
                            "flight recorder: {} events -> {}",
                            recorder.total_recorded(),
                            a.flight.display()
                        ),
                        Err(e) => {
                            eprintln!("failed to write observation artifacts: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    Ok(r)
                }
                Err(e) => Err(e),
            }
        }
        None => asets_sim::simulate(specs, kind),
    };
    match observed {
        Ok(r) => {
            println!(
                "{}: {} txns, avg tardiness {:.4}, avg weighted tardiness {:.4}, \
                 max weighted tardiness {:.2}, miss ratio {:.3}",
                kind.label(),
                r.summary.count,
                r.summary.avg_tardiness,
                r.summary.avg_weighted_tardiness,
                r.summary.max_weighted_tardiness,
                r.summary.miss_ratio
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid workload: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro spans <dir> [txns] [shards] [servers]` — trace the deep-chain
/// workload on a sharded runtime and write span/SLO artifacts for the
/// `asets-obs timeline`/`slo` subcommands plus a Perfetto-loadable
/// `trace.json`.
fn spans(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        eprintln!("usage: repro spans <dir> [txns] [shards] [servers]");
        return ExitCode::FAILURE;
    };
    let mut nums = [2000usize, 4, 2];
    for (slot, arg) in nums.iter_mut().zip(args.iter().skip(1)) {
        match arg.parse::<usize>() {
            Ok(n) if n > 0 => *slot = n,
            _ => {
                eprintln!("bad count `{arg}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let [txns, shards, servers] = nums;
    match asets_experiments::obs_support::spans_run(
        std::path::Path::new(dir),
        txns,
        shards,
        servers,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro gantt <file> <policy>` — render an archived batch's schedule as
/// an ASCII Gantt chart (keep the batch small; one row per transaction).
fn gantt(args: &[String]) -> ExitCode {
    let usage = format!("repro gantt <file> <{}>", policy_names());
    let Some((specs, kind)) = load_batch(args, &usage) else {
        return ExitCode::FAILURE;
    };
    if specs.len() > 60 {
        eprintln!(
            "batch has {} transactions; gantt is readable up to ~60",
            specs.len()
        );
        return ExitCode::FAILURE;
    }
    match asets_sim::simulate_traced(specs, kind) {
        Ok(r) => {
            println!("{} schedule:", kind.label());
            print!("{}", r.trace.expect("traced run").render_gantt(100));
            println!(
                "avg tardiness {:.3}, preemptions {}",
                r.summary.avg_tardiness, r.stats.preemptions
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid workload: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <figure>... [--quick] [--csv <dir>]\n\
         figures: {} | all | list",
        FigureId::ALL.map(|f| f.name()).join(" | ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    // `--obs-out <dir>` is shared by the figure path and `replay`.
    let mut obs_out: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--obs-out") {
        if i + 1 >= args.len() {
            return usage();
        }
        obs_out = Some(PathBuf::from(&args[i + 1]));
        args.drain(i..=i + 1);
    }
    match args[0].as_str() {
        "dump" => return dump(&args[1..]),
        "replay" => return replay(&args[1..], obs_out.as_ref()),
        "gantt" => return gantt(&args[1..]),
        "spans" => return spans(&args[1..]),
        _ => {}
    }

    let mut figures: Vec<FigureId> = Vec::new();
    let mut quick = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut md_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => match it.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--md" => match it.next() {
                Some(f) => md_file = Some(PathBuf::from(f)),
                None => return usage(),
            },
            "all" => figures.extend(FigureId::ALL),
            "list" => {
                for f in FigureId::ALL {
                    println!("{}", f.name());
                }
                return ExitCode::SUCCESS;
            }
            name => match FigureId::parse(name) {
                Some(f) => figures.push(f),
                None => {
                    eprintln!("unknown figure `{name}`");
                    return usage();
                }
            },
        }
    }
    if figures.is_empty() {
        return usage();
    }

    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::paper()
    };
    println!(
        "protocol: {} txns, {} seeds, {} utilization points{}",
        cfg.n_txns,
        cfg.seeds.len(),
        cfg.utilizations.len(),
        if quick { " (quick)" } else { "" }
    );

    let mut md = String::new();
    for fig in figures {
        let started = Instant::now();
        let reports = run_figure(fig, &cfg);
        for (i, r) in reports.iter().enumerate() {
            println!("\n{}", r.to_text());
            if let Some(dir) = &csv_dir {
                let slug = if reports.len() == 1 {
                    fig.name().to_string()
                } else {
                    format!("{}_{}", fig.name(), i)
                };
                if let Err(e) = r.write_csv(dir, &slug) {
                    eprintln!("failed to write {slug}.csv: {e}");
                    return ExitCode::FAILURE;
                }
            }
            md.push_str(&r.to_markdown());
            md.push('\n');
        }
        println!("[{} done in {:.1?}]", fig.name(), started.elapsed());
    }
    if let Some(f) = md_file {
        if let Err(e) = std::fs::write(&f, md) {
            eprintln!("failed to write {}: {e}", f.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = obs_out {
        match asets_experiments::obs_support::representative_run(&cfg, &dir) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("observed run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
