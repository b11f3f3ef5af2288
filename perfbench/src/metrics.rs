//! The metric registry, the result line, and the small statistics every
//! workload shares.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`: a run with
//! `--trace 0` puts exactly the end-to-end metrics in its result line, a run
//! with `--trace 1` exactly the per-layer ones. A per-layer metric a
//! workload does not exercise reads 0 there (a shard metric on a
//! single-engine workload, say); every end-to-end metric is measured on
//! every workload.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Setup runs at least this many times per run and is timed in CPU
/// seconds: it is single-threaded, so its CPU time is the work it does,
/// where the wall clock also counts preemption. See `setup_seconds`.
const SETUP_MIN_REPS: usize = 3;
/// Setup repeats until this much wall time has gone, up to the cap.
const SETUP_BUDGET: Duration = Duration::from_millis(1000);
const SETUP_MAX_REPS: usize = 60;

/// CPU seconds `reference_alloc_kernel` took in a quiet period on the
/// two-vCPU host the bounds were set on; `setup_s` is quoted at that speed.
const REFERENCE_ALLOC_KERNEL_S: f64 = 0.005;

thread_local! {
    /// The allocation kernel's CPU time after each setup pass of this run.
    static SETUP_KERNEL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Whether to set up again after `done` repetitions begun at `started`.
/// After each pass it also times `reference_alloc_kernel`, for
/// `setup_seconds`.
pub fn another_setup(done: usize, started: Instant) -> bool {
    SETUP_KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        if done == 0 {
            k.clear();
        } else {
            k.push(reference_alloc_kernel());
        }
    });
    done < SETUP_MIN_REPS || (done < SETUP_MAX_REPS && started.elapsed() < SETUP_BUDGET)
}

/// `setup_s` from the CPU seconds of each setup pass, and the host
/// slowdown it was divided by: the median pass, quoted at reference host
/// speed by the median time of the allocation kernel run after each pass.
/// Set-up allocates and walks tens of megabytes, and on a shared host its
/// speed follows the host's memory: raw medians of the same code moved by
/// ±25% between runs and by a third between sets of runs, while their
/// ratio to the kernel held within ±5%.
pub fn setup_seconds(pass_cpu_s: &[f64]) -> (f64, f64) {
    let kernel = SETUP_KERNEL.with(|k| median(&k.borrow()));
    let slowdown = kernel / REFERENCE_ALLOC_KERNEL_S;
    (median(pass_cpu_s) / slowdown, slowdown)
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_txn_per_s", "txn/s"),
    ("peak_rss_mb", "MB"),
    ("avg_tardiness", "units"),
    ("miss_ratio", "ratio"),
    ("page_latency_p50", "units"),
    ("page_latency_p99", "units"),
    ("page_miss_ratio", "ratio"),
    ("capacity_pps", "pages/s"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("table.build_s", "s"),
    ("table.builds", "count"),
    ("policy.build_s", "s"),
    ("policy.maintain_s", "s"),
    ("policy.maintain_calls", "count"),
    ("policy.maintain_events", "count"),
    ("policy.maintain_ns_p50", "ns"),
    ("policy.maintain_ns_p99", "ns"),
    ("policy.select_s", "s"),
    ("policy.select_calls", "count"),
    ("policy.select_ns_p50", "ns"),
    ("policy.select_ns_p99", "ns"),
    ("policy.cache_hits", "count"),
    ("policy.cache_hit_ratio", "ratio"),
    ("policy.asets_over_edf", "ratio"),
    ("engine.points", "count"),
    ("engine.epochs", "count"),
    ("engine.events", "count"),
    ("engine.max_epoch_width", "count"),
    ("engine.preemptions", "count"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.self_s", "s"),
    ("engine.finish_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.rounds", "count"),
    ("shard.migrated_txns", "count"),
    ("shard.migration_rounds", "count"),
    ("shard.steals", "count"),
    ("shard.steal_requests", "count"),
    ("shard.busy_s", "s"),
    ("shard.wait_s", "s"),
    ("shard.round_us_p50", "us"),
    ("shard.round_us_p99", "us"),
    ("shard.imbalance", "ratio"),
    ("shard.skewed.run_s", "s"),
    ("shard.uniform.run_s", "s"),
    ("shard.cp_bound.k2", "ratio"),
    ("shard.cp_bound.k4", "ratio"),
    ("shard.cp_bound.k8", "ratio"),
    ("webdb.db_build_s", "s"),
    ("webdb.compile_s", "s"),
    ("webdb.compiled_txns", "count"),
    ("live.page_ms_p50", "ms"),
    ("live.page_ms_p99", "ms"),
    ("live.page_miss_ratio", "ratio"),
    ("live.capacity_pps", "pages/s"),
    ("live.ring_wait_ms_p50", "ms"),
    ("live.ring_wait_ms_p99", "ms"),
    ("live.queue_ms_p50", "ms"),
    ("live.queue_ms_p99", "ms"),
    ("live.service_ms_p50", "ms"),
    ("live.lag_ms_p99", "ms"),
    ("live.admitted", "count"),
    ("live.dropped", "count"),
    ("live.shed_overload", "count"),
    ("live.shed_infeasible", "count"),
    ("live.heartbeats", "count"),
    ("live.peak_inflight", "count"),
    ("obs.slo_s", "s"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.nproc", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    /// Human-readable lines printed before the metrics (sample counts,
    /// informational values outside the registry).
    pub notes: Vec<String>,
    /// Operations attempted (cells, batch runs, offered pages).
    pub attempted: u64,
    /// Operations whose output check failed, or pages lost at the
    /// reference rate.
    pub failed: u64,
    /// Reasons the run is not correct; empty means correct.
    pub errors: Vec<String>,
}

impl Report {
    /// Record metric `name` (must be in one of the registries).
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the registry"
        );
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Add a human-readable note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fail the run's correctness with `why` (also counted as one failure).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Print every measured metric by name with its unit, then the result
    /// line: end-to-end metrics when `trace` is off, per-layer otherwise.
    pub fn print(&self, trace: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        for err in &self.errors {
            println!("# CHECK FAILED: {err}");
        }
        for (name, value) in &self.values {
            println!("{name} = {value} {}", unit_of(name).unwrap_or("?"));
        }
        let registry = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
    }

    /// Every end-to-end metric this run must carry but did not record.
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .filter(|(n, _)| self.get(n).is_none())
            .map(|&(n, _)| n)
            .collect()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `xs`; 0 if empty. Sorts in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host parallelism, stamped into every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// CPU seconds `reference_kernel` took (lower decile) on the two-vCPU
/// host the bounds were set on; normalized throughputs are quoted at that
/// host speed.
const REFERENCE_KERNEL_S: f64 = 0.0026;

/// A fixed, cache-resident CPU reference that shares no code with the
/// program under test: sort 2^17 pseudo-random words. Returns the CPU
/// seconds it took. Run between timed repetitions, it tracks how fast the
/// host is running the process at the time, which on a shared host drifts
/// by ±20% over minutes.
pub fn reference_kernel() -> f64 {
    let started = cpu_seconds();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut words: Vec<u64> = (0..1 << 17)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    std::hint::black_box(&words);
    cpu_seconds() - started
}

/// An allocation-bound CPU reference that shares no code with the program
/// under test: 2^16 small vectors of pseudo-random words built, walked in a
/// scattered order, and dropped. Returns the CPU seconds it took. Run
/// right after a setup pass, it reuses the memory that pass freed.
pub fn reference_alloc_kernel() -> f64 {
    let started = cpu_seconds();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let n = 1 << 16;
    let vecs: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let len = 1 + (next() % 6) as usize;
            (0..len).map(|_| next() as u32).collect()
        })
        .collect();
    let mut sum = 0u64;
    let mut i = 0usize;
    for _ in 0..n {
        i = (i + 40_503) & (n - 1);
        sum = sum.wrapping_add(vecs[i].iter().map(|&w| u64::from(w)).sum::<u64>());
    }
    std::hint::black_box(sum);
    drop(vecs);
    cpu_seconds() - started
}

/// How much slower than the reference host this host ran, from the
/// kernel times taken during a run.
pub fn host_slowdown(kernel_s: &mut [f64], decile: f64) -> f64 {
    quantile(kernel_s, decile) / REFERENCE_KERNEL_S
}

/// `struct timespec` as `clock_gettime` fills it on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads (finished ones
/// included), in seconds.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and `CLOCK_PROCESS_CPUTIME_ID` is a clock every Linux kernel
    // provides; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registries and `BENCHMARK.json` name the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let entries: Vec<(&str, &str)> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|rest| {
                let (name, rest) = rest.split_once('"')?;
                let entry = rest.split_once('}')?.0;
                let unit = entry.split_once("\"unit\": \"")?.1.split_once('"')?.0;
                Some((name, unit))
            })
            .collect();
        let expected: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        assert_eq!(entries, expected);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.50), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
