//! `skewed_shards`: the Zipf-skewed web batch and its uniform twin on the
//! threaded rebalanced driver (K = 2, epoch 200, stealing on).
//!
//! The untraced run times `ShardedRuntime::run` on both batches, again and
//! again, for the run's seconds. The traced run attaches one observer per
//! shard through `ShardedRuntime::run_observed`; each stamps the wall clock
//! and counts lifecycle events per epoch window on its shard's own thread.
//! The traced schedule must equal the untraced one exactly.

use crate::check::{self, Pages};
use crate::metrics::{another_setup, cpu_seconds, median, quantile, setup_seconds, Report};
use asets_core::obs::{EpochSummary, Observer};
use asets_core::policy::{LifecycleEvent, PolicyKind};
use asets_core::shard::{partition, routing_keys};
use asets_core::table::TxnTable;
use asets_core::time::SimDuration;
use asets_core::txn::TxnSpec;
use asets_sim::{RebalanceConfig, ShardedResult, ShardedRuntime};
use asets_workload::skewed_shards;
use std::time::{Duration, Instant};

/// Transactions per batch.
const N: usize = 40_000;
/// Pages in the popularity distribution (the `steal_gate` shape).
const PAGES: u64 = 16;
/// Zipf exponent of the skewed batch; the twin uses 0 (uniform).
const ALPHA: f64 = 1.5;
/// Migration epoch, the barrier cadence.
const EPOCH_UNITS: u64 = 200;
/// Shard threads.
const K: usize = 2;
/// Steal grab size.
const STEAL_K: usize = 4;
/// Fewest timed repetitions a run makes, whatever its seconds.
const MIN_REPS: usize = 3;

pub struct Batch {
    name: &'static str,
    specs: Vec<TxnSpec>,
    keys: Vec<u32>,
}

fn runtime(specs: &[TxnSpec], k: usize) -> ShardedRuntime {
    let epoch = SimDuration::from_units_int(EPOCH_UNITS);
    ShardedRuntime::new(specs.to_vec(), PolicyKind::asets_star())
        .shards(k)
        .rebalance(RebalanceConfig::migrate_every(epoch).with_steal(STEAL_K))
        .threaded()
}

/// Generate both batches and pay the per-batch setup a user of the sharded
/// runtime pays: validate the table and DAG, partition, build the policy.
pub fn setup(seed: u64, report: &mut Report) -> Vec<Batch> {
    let (mut gen, mut table, mut part, mut policy, mut total, mut wall) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut kept = None;
    let begun = Instant::now();
    while another_setup(total.len(), begun) {
        let (started, c0) = (Instant::now(), cpu_seconds());
        let batches = [("skewed", ALPHA), ("uniform", 0.0)]
            .map(|(name, alpha)| (name, skewed_shards(N, PAGES, alpha, seed)));
        let gen_s = cpu_seconds() - c0;
        let (mut table_s, mut part_s, mut policy_s) = (0.0, 0.0, 0.0);
        for (_, specs) in &batches {
            let t0 = cpu_seconds();
            let t = TxnTable::new(specs.clone()).expect("generated batches are acyclic");
            let t1 = cpu_seconds();
            let plan = std::hint::black_box(partition(specs, K));
            let t2 = cpu_seconds();
            let p = std::hint::black_box(PolicyKind::asets_star().build(&t));
            let t3 = cpu_seconds();
            drop((p, plan, t));
            table_s += t1 - t0;
            part_s += t2 - t1;
            policy_s += t3 - t2;
        }
        gen.push(gen_s);
        table.push(table_s);
        part.push(part_s);
        policy.push(policy_s);
        total.push(gen_s + table_s + part_s + policy_s);
        wall.push(started.elapsed().as_secs_f64());
        kept.get_or_insert(batches);
    }
    let (setup_s, slowdown) = setup_seconds(&total);
    report.set("setup_s", setup_s);
    report.set("workload.gen_s", median(&gen) / slowdown);
    report.set("table.build_s", median(&table) / slowdown);
    report.set("shard.partition_s", median(&part) / slowdown);
    report.set("policy.build_s", median(&policy) / slowdown);
    report.note(format!(
        "setup: median CPU time of {} passes {:.6} s (median wall {:.6} s), divided by the \
         host slowdown {slowdown:.4}; two batches of {N} transactions, K={K}",
        total.len(),
        median(&total),
        median(&wall)
    ));
    kept.expect("set up at least once")
        .map(|(name, specs)| Batch {
            name,
            keys: routing_keys(&specs),
            specs,
        })
        .into()
}

/// The counts a traced run must reproduce exactly.
fn same_schedule(a: &ShardedResult, b: &ShardedResult) -> bool {
    a.merged.outcomes == b.merged.outcomes
        && a.merged.stats == b.merged.stats
        && a.merged.epochs == b.merged.epochs
        && a.rebalance == b.rebalance
}

/// Run one batch untraced; returns the result, its wall and CPU seconds.
fn run_batch(b: &Batch) -> Result<(ShardedResult, f64, f64), String> {
    let rt = runtime(&b.specs, K);
    let (started, cpu) = (Instant::now(), cpu_seconds());
    let r = rt.run().map_err(|e| format!("{}: {e}", b.name))?;
    Ok((r, started.elapsed().as_secs_f64(), cpu_seconds() - cpu))
}

fn check_batch(b: &Batch, r: &ShardedResult, report: &mut Report) {
    if let Err(e) = check::batch_output(&b.specs, &r.merged.outcomes, &r.merged.summary) {
        report.fail(format!("{}: {e}", b.name));
    }
}

/// `rep_s` is the CPU time (both shard threads) of one repetition: on a
/// shared host, barrier wake-ups make the wall clock measure the host.
fn quality(batches: &[Batch], results: &[ShardedResult], rep_s: f64, report: &mut Report) {
    let txns = (N * batches.len()) as f64;
    let tard: f64 = results
        .iter()
        .map(|r| r.merged.summary.total_tardiness)
        .sum();
    let misses: f64 = results
        .iter()
        .map(|r| r.merged.summary.miss_ratio * r.merged.summary.count as f64)
        .sum();
    let mut pages = Pages::default();
    for (b, r) in batches.iter().zip(results) {
        pages.add(&b.keys, &r.merged.outcomes);
    }
    let n_pages = pages.len() as f64;
    report.set("sim_txn_per_s", txns / rep_s);
    report.set("avg_tardiness", tard / txns);
    report.set("miss_ratio", misses / txns);
    report.set("page_latency_p50", quantile(&mut pages.latency_units, 0.50));
    report.set("page_latency_p99", quantile(&mut pages.latency_units, 0.99));
    report.set("page_miss_ratio", 1.0 - pages.on_time as f64 / n_pages);
    report.set("capacity_pps", n_pages / rep_s);
    report.note(format!(
        "pages are dependency components; page_latency_p50/p99 over {n_pages} pages"
    ));
}

/// `--trace 0`: time both batches for `seconds`, check every output.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let batches = setup(seed, report);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first: Vec<ShardedResult> = Vec::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while walls.len() < MIN_REPS || Instant::now() < deadline {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for (i, b) in batches.iter().enumerate() {
            let (r, w, c) = run_batch(b)?;
            wall += w;
            cpu += c;
            match first.get(i) {
                None => {
                    check_batch(b, &r, report);
                    first.push(r);
                }
                Some(f) if !same_schedule(f, &r) => {
                    report.fail(format!("{}: repetition {} diverged", b.name, walls.len()));
                }
                Some(_) => {}
            }
        }
        walls.push(wall);
        cpus.push(cpu);
    }
    report.attempted = (walls.len() * batches.len()) as u64;
    let rep_s = quantile(&mut cpus, crate::batch::FAST_DECILE);
    report.note(format!(
        "sim_txn_per_s and capacity_pps: lower-decile CPU time of {} repetitions, \
         {rep_s:.6} s (median wall {:.6} s)",
        walls.len(),
        median(&walls)
    ));
    quality(&batches, &first, rep_s, report);
    Ok(())
}

/// One shard's view of its epoch windows: per window (barrier round), the
/// wall instants of its first and last epoch and the lifecycle events it
/// processed. Epoch windows are `epoch`-aligned, so an epoch at instant
/// `at` belongs to window `at / epoch`.
struct ShardClock {
    epoch_ticks: u64,
    windows: Vec<Window>,
}

#[derive(Clone, Copy)]
struct Window {
    index: u64,
    first: Instant,
    last: Instant,
    events: u64,
}

impl Observer for ShardClock {
    fn on_epoch(&mut self, events: &[LifecycleEvent], summary: &EpochSummary) {
        let now = Instant::now();
        let index = summary.at.ticks() / self.epoch_ticks;
        match self.windows.last_mut() {
            Some(w) if w.index == index => {
                w.last = now;
                w.events += events.len() as u64;
            }
            _ => self.windows.push(Window {
                index,
                first: now,
                last: now,
                events: events.len() as u64,
            }),
        }
    }

    fn wants_timing(&self) -> bool {
        false
    }
}

fn run_observed(
    specs: &[TxnSpec],
    k: usize,
) -> Result<(ShardedResult, Vec<ShardClock>, f64), String> {
    let epoch_ticks = SimDuration::from_units_int(EPOCH_UNITS).ticks();
    let rt = runtime(specs, k);
    let started = Instant::now();
    let (r, clocks) = rt
        .run_observed(|_, _| ShardClock {
            epoch_ticks,
            windows: Vec::new(),
        })
        .map_err(|e| format!("{e}"))?;
    Ok((r, clocks, started.elapsed().as_secs_f64()))
}

/// Σ events ÷ Σ over windows of the busiest shard's events: the speedup
/// the schedule permits on K cores, from exact counts.
fn cp_bound(clocks: &[ShardClock]) -> f64 {
    let mut per_window: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut total = 0u64;
    for c in clocks {
        for w in &c.windows {
            let m = per_window.entry(w.index).or_insert(0);
            *m = (*m).max(w.events);
            total += w.events;
        }
    }
    total as f64 / per_window.values().sum::<u64>().max(1) as f64
}

/// `--trace 1`: one untraced and one observed run of each batch at K=2
/// (identical schedules required), plus observed runs of the skewed batch
/// at K=4 and K=8 for the parallelism bound.
pub fn run_traced(seed: u64, report: &mut Report) -> Result<(), String> {
    let batches = setup(seed, report);
    let (mut untraced, mut untraced_s, mut untraced_cpu, mut traced_s) =
        (Vec::new(), 0.0, 0.0, 0.0);
    let (mut rounds, mut migrated, mut mig_rounds, mut steals, mut requests) = (0, 0, 0, 0, 0);
    let (mut points, mut epochs, mut events, mut width, mut preempt) = (0, 0, 0, 0u32, 0);
    let (mut busy, mut wait) = (0.0, 0.0);
    let mut round_us: Vec<f64> = Vec::new();
    for b in &batches {
        let (r, s, c) = run_batch(b)?;
        check_batch(b, &r, report);
        untraced_s += s;
        untraced_cpu += c;
        let (t, clocks, wall) = run_observed(&b.specs, K)?;
        traced_s += wall;
        if !same_schedule(&r, &t) {
            report.fail(format!(
                "{}: traced schedule differs from the untraced one",
                b.name
            ));
        }
        report.set(&format!("shard.{}.run_s", b.name), wall);
        let stats = t.rebalance.clone().unwrap_or_default();
        rounds += stats.barriers;
        migrated += stats.migrated_txns;
        mig_rounds += stats.migration_rounds;
        steals += stats.steals;
        requests += stats.steal_requests;
        points += t.merged.stats.scheduling_points;
        preempt += t.merged.stats.preemptions;
        epochs += t.merged.epochs.epochs;
        events += t.merged.epochs.events;
        width = width.max(t.merged.epochs.max_epoch_width);
        // Window work: first to last epoch of each window on each shard;
        // the rest of each shard thread's run is reporting, planning,
        // barrier waits and inbox drains.
        for c in &clocks {
            let b: f64 = c
                .windows
                .iter()
                .map(|w| (w.last - w.first).as_secs_f64())
                .sum();
            busy += b;
            wait += wall - b;
        }
        // Round length: between the earliest first stamps of consecutive
        // windows, over all shards.
        let mut starts: std::collections::BTreeMap<u64, Instant> = Default::default();
        for c in &clocks {
            for w in &c.windows {
                let s = starts.entry(w.index).or_insert(w.first);
                *s = (*s).min(w.first);
            }
        }
        let starts: Vec<Instant> = starts.into_values().collect();
        round_us.extend(starts.windows(2).map(|p| (p[1] - p[0]).as_secs_f64() * 1e6));
        if b.name == "skewed" {
            let per_shard: Vec<u64> = clocks
                .iter()
                .map(|c| c.windows.iter().map(|w| w.events).sum())
                .collect();
            let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
            let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
            report.set("shard.imbalance", max / mean.max(1.0));
            report.set("shard.cp_bound.k2", cp_bound(&clocks));
        }
        untraced.push(r);
    }
    report.attempted = 2 * batches.len() as u64 + 2;
    for k in [4, 8] {
        let (_, clocks, _) = run_observed(&batches[0].specs, k)?;
        report.set(&format!("shard.cp_bound.k{k}"), cp_bound(&clocks));
    }
    let windows = round_us.len();
    report.set("shard.rounds", rounds as f64);
    report.set("shard.migrated_txns", migrated as f64);
    report.set("shard.migration_rounds", mig_rounds as f64);
    report.set("shard.steals", steals as f64);
    report.set("shard.steal_requests", requests as f64);
    report.set("shard.busy_s", busy);
    report.set("shard.wait_s", wait);
    report.set("shard.round_us_p50", quantile(&mut round_us, 0.50));
    report.set("shard.round_us_p99", quantile(&mut round_us, 0.99));
    report.set("engine.points", points as f64);
    report.set("engine.epochs", epochs as f64);
    report.set("engine.events", events as f64);
    report.set("engine.max_epoch_width", width as f64);
    report.set("engine.preemptions", preempt as f64);
    report.set("trace.overhead_ratio", traced_s / untraced_s);
    report.note(format!(
        "shard.round_us percentiles over {windows} rounds with events; \
         cp_bound.k4/k8 from observed skewed runs"
    ));
    quality(&batches, &untraced, untraced_cpu, report);
    Ok(())
}
