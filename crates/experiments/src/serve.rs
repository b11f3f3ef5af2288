//! The online serving harness behind the `asets-serve` binary.
//!
//! Wires the full live stack together for one soak:
//!
//! 1. build the §II-B stock market database and compile a **request
//!    universe** — one job per potential page view, Zipf-skewed over user
//!    portfolios — via `asets_webdb::compile_requests` (the pre-registered
//!    universe an online tier would keep as prepared plans);
//! 2. spawn generator threads: **open-loop** (Poisson wall-clock arrivals
//!    that drop on a full ring — arrivals don't wait) or **closed-loop**
//!    ([`asets_workload::sessions`] emulated users that request, wait for
//!    the page to settle on the [`JobBoard`], think, repeat);
//! 3. drive a [`LivePump`](asets_sim::LivePump)-backed engine on the
//!    calling thread with a [`SloMonitor`] observer, emitting windowed
//!    miss-ratio/tardiness reports (Prometheus text + JSONL) at a fixed
//!    wall cadence — the pump's idle heartbeat guarantees the reporter
//!    never stalls;
//! 4. join everything and fold the run into a [`ServeReport`] the CI gate
//!    and tests assert against.
//!
//! Determinism note: *which* pages exist, their costs, and every session
//! script are seed-reproducible; the wall-clock interleaving (and hence
//! which jobs get shed under overload) is not — that is the point of a
//! live run. Everything asserted by gates is therefore either structural
//! (counter conservation) or thresholded, never bit-exact.

use asets_core::obs::{share, Tee};
use asets_core::policy::{PolicyKind, Scheduler};
use asets_core::table::TxnTable;
use asets_core::time::SimDuration;
use asets_obs::{BusHandle, BusObserver, ScrapeServer, SloMonitor, TelemetryBus};
use asets_sim::live::{
    AdmissionStats, JobBoard, JobStatus, LiveConfig, LiveFrontend, LiveSnapshot,
};
use asets_sim::Engine;
use asets_webdb::app::stock::{stock_database, stock_page_template, StockDbParams};
use asets_webdb::{compile_requests, CostModel, PageRequest};
use asets_workload::poisson::Exponential;
use asets_workload::sessions::{session_scripts, SessionConfig};
use asets_workload::{Rng64, Zipf};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the generators offer load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeMode {
    /// Open loop: Poisson page arrivals at a fixed wall rate; a full ring
    /// drops the page (arrivals don't wait for the system).
    Open {
        /// Offered load, pages per wall second.
        pages_per_sec: f64,
    },
    /// Closed loop: emulated users who submit, wait for the page to
    /// settle, think, and repeat; offered load self-regulates.
    Closed {
        /// Concurrent emulated users (one generator thread each).
        users: u64,
        /// Mean think time in wall milliseconds.
        mean_think_ms: f64,
    },
}

/// One soak's configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for the database, the request universe and every session.
    pub seed: u64,
    /// Wall-clock soak length (generators stop offering load after this).
    pub duration: Duration,
    /// Load shape.
    pub mode: ServeMode,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Servers in the pool.
    pub servers: usize,
    /// Admission bound on in-flight transactions.
    pub max_inflight: usize,
    /// Shed SLA-infeasible work under backlog.
    pub shed_infeasible: bool,
    /// Simulated ticks per wall microsecond (1000 ⇒ 1 unit = 1 ms).
    pub scale: u64,
    /// Wall cadence of SLO report emission.
    pub report_every: Duration,
    /// Print each periodic report to stdout as it is emitted.
    pub live_output: bool,
    /// Zipf skew of page popularity across user portfolios.
    pub zipf_alpha: f64,
    /// Backing database size.
    pub db: StockDbParams,
    /// Per-ring queued-job capacity.
    pub ring_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 42,
            duration: Duration::from_secs(5),
            mode: ServeMode::Open {
                pages_per_sec: 10.0,
            },
            policy: PolicyKind::asets_star(),
            servers: 2,
            max_inflight: 256,
            shed_infeasible: false,
            scale: 1000,
            report_every: Duration::from_millis(500),
            live_output: false,
            zipf_alpha: 1.0,
            db: StockDbParams {
                n_stocks: 100,
                n_users: 16,
                holdings_per_user: 6,
                alerts_per_user: 2,
            },
            ring_capacity: 256,
        }
    }
}

/// The always-on telemetry side-car of a soak: a single-shard
/// [`TelemetryBus`] whose observer rides the engine (tee'd with the SLO
/// monitor) and a [`ScrapeServer`] answering `GET /metrics`, `GET /slo`
/// and `GET /health` from the bus's merged state — *while the soak runs*,
/// not after it. Build one, read [`ServeTelemetry::addr`] for the
/// OS-assigned port, then hand it to [`run_serve_with`]; keep it alive
/// after the soak to scrape final state, and [`ServeTelemetry::finish`]
/// it for shutdown-ordered counters.
pub struct ServeTelemetry {
    bus: BusHandle,
    observer: Option<BusObserver>,
    scrape: ScrapeServer,
}

/// Per-soak bus buffering: events between collector drains. Sized for an
/// overload soak's burst arrivals (each page is 4 transactions and every
/// transaction emits a handful of events) with the collector's 1 ms
/// drain cadence.
const BUS_CAPACITY: usize = 64 * 1024;

impl ServeTelemetry {
    /// Start the bus and bind the scrape endpoint on `addr` (use
    /// `"127.0.0.1:0"` to let the OS pick a port).
    pub fn start(addr: &str) -> Result<ServeTelemetry, String> {
        let (mut observers, bus) = TelemetryBus::start(1, BUS_CAPACITY);
        let metrics_bus = bus.clone();
        let slo_bus = bus.clone();
        let scrape = ScrapeServer::start(
            addr,
            Arc::new(move || metrics_bus.prometheus()),
            Arc::new(move || slo_bus.slo_jsonl()),
        )
        .map_err(|e| format!("scrape bind {addr}: {e}"))?;
        Ok(ServeTelemetry {
            bus,
            observer: observers.pop(),
            scrape,
        })
    }

    /// The scrape endpoint's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.scrape.addr()
    }

    /// The scrape endpoint's base URL.
    pub fn url(&self) -> String {
        self.scrape.url()
    }

    /// The live bus handle (merged counters and SLO state mid-soak).
    pub fn bus(&self) -> &BusHandle {
        &self.bus
    }

    /// Stop the scrape endpoint, final-drain the bus, and return the
    /// handle for post-run counter assertions.
    pub fn finish(mut self) -> BusHandle {
        self.scrape.stop();
        self.bus.shutdown();
        self.bus
    }
}

/// What came out of a soak.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Live front-end counters at shutdown.
    pub live: LiveSnapshot,
    /// Transactions that completed (from the SLO monitor).
    pub completions: u64,
    /// Deadline misses among completions.
    pub misses: u64,
    /// Lifetime miss ratio.
    pub miss_ratio: f64,
    /// Miss ratio over the monitor's sliding window at shutdown.
    pub window_miss_ratio: f64,
    /// p99 tardiness in time units (0 when nothing missed).
    pub p99_tardiness_units: f64,
    /// Periodic SLO reports emitted during the soak.
    pub reports_emitted: u64,
    /// The JSONL line per emitted report, in order.
    pub jsonl: Vec<String>,
    /// Final Prometheus exposition text.
    pub prometheus: String,
    /// Jobs in the pre-compiled universe.
    pub universe_jobs: u64,
    /// True when an open-loop generator ran out of pre-compiled jobs
    /// before the soak deadline (size the universe up if it matters).
    pub universe_exhausted: bool,
    /// Wall time actually spent in the serve loop.
    pub wall: Duration,
    /// Admission telemetry: run totals plus every retained shed event, in
    /// the shape `FlightRecorder::ingest_admission` consumes.
    pub admission: AdmissionStats,
}

impl ServeReport {
    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let l = &self.live;
        format!(
            "soak {:.1}s: submitted {} dropped {} admitted {} shed {}+{} \
             completed {} (miss ratio {:.3}, window {:.3}, p99 tardiness {:.2}u) \
             peak in-flight {} reports {}{}",
            self.wall.as_secs_f64(),
            l.submitted,
            l.dropped,
            l.admitted,
            l.shed_overload,
            l.shed_infeasible,
            self.completions,
            self.miss_ratio,
            self.window_miss_ratio,
            self.p99_tardiness_units,
            l.peak_inflight,
            self.reports_emitted,
            if self.universe_exhausted {
                " [universe exhausted]"
            } else {
                ""
            },
        )
    }
}

/// The compiled request universe: every page view the soak may admit.
struct Universe {
    specs: Vec<asets_core::txn::TxnSpec>,
    jobs: Vec<(u32, u32)>,
    /// Closed mode: `per_user[u]` is the job-id range of user `u`'s script.
    per_user: Vec<std::ops::Range<u32>>,
    /// Closed mode: the session script's think time after each job,
    /// aligned with `per_user[u]`.
    thinks: Vec<Vec<SimDuration>>,
}

/// Compile the soak's request universe. Open loop pre-draws a Zipf page
/// sequence sized ~1.6× the expected offered volume; closed loop compiles
/// exactly the pages every session script will request.
fn build_universe(cfg: &ServeConfig) -> Result<Universe, String> {
    let db = stock_database(&cfg.db, cfg.seed).map_err(|e| format!("stock db: {e}"))?;
    let cost = CostModel::default();
    let zipf = Zipf::new(cfg.db.n_users as u64, cfg.zipf_alpha);
    let mut rng = Rng64::new(cfg.seed).fork(0xF00D);
    let mut requests: Vec<PageRequest> = Vec::new();
    let mut per_user = Vec::new();
    let mut thinks = Vec::new();
    let push = |requests: &mut Vec<PageRequest>, user: u64| {
        requests.push(PageRequest {
            template: stock_page_template(user as i64),
            submit: asets_core::time::SimTime::ZERO,
        });
    };
    match cfg.mode {
        ServeMode::Open { pages_per_sec } => {
            if !(pages_per_sec.is_finite() && pages_per_sec > 0.0) {
                return Err(format!("bad open-loop rate {pages_per_sec}"));
            }
            let expected = pages_per_sec * cfg.duration.as_secs_f64();
            let n = ((expected * 1.6).ceil() as usize).max(32);
            for _ in 0..n {
                let user = zipf.sample(&mut rng) - 1;
                push(&mut requests, user);
            }
        }
        ServeMode::Closed {
            users,
            mean_think_ms,
        } => {
            // One simulated unit is one wall ms at the default scale, so
            // the session layer's think units map straight onto the knob.
            let scripts = session_scripts(
                &SessionConfig {
                    pages: cfg.db.n_users as u64,
                    zipf_alpha: cfg.zipf_alpha,
                    mean_think: mean_think_ms.max(0.001),
                    ..SessionConfig::default()
                },
                users,
                cfg.seed,
            );
            for script in &scripts {
                let first = requests.len() as u32;
                for step in script {
                    push(&mut requests, step.page);
                }
                per_user.push(first..requests.len() as u32);
                thinks.push(script.iter().map(|s| s.think).collect());
            }
        }
    }
    let (specs, binding) = compile_requests(&requests, &db, &cost).map_err(|e| format!("{e}"))?;
    Ok(Universe {
        specs,
        jobs: binding.jobs(),
        per_user,
        thinks,
    })
}

fn wall_of_units(d: SimDuration, scale: u64) -> Duration {
    Duration::from_micros(d.ticks() / scale)
}

/// Open-loop generator body: Poisson-paced submissions, drop on full ring.
fn open_loop(
    producer: asets_sim::live::JobProducer,
    pages_per_sec: f64,
    jobs: u64,
    deadline: Instant,
    seed: u64,
) -> bool {
    let mut producer = producer;
    let exp = Exponential::new(pages_per_sec);
    let mut rng = Rng64::new(seed).fork(0xA51);
    let mut next = Instant::now();
    let mut job = 0u64;
    let exhausted = loop {
        if Instant::now() >= deadline {
            break false;
        }
        if job >= jobs {
            break true;
        }
        next += Duration::from_secs_f64(exp.sample(&mut rng));
        loop {
            let now = Instant::now();
            if now >= next || now >= deadline {
                break;
            }
            std::thread::sleep((next - now).min(Duration::from_micros(200)));
        }
        if !producer.submit(job as u32) {
            producer.drop_job(job as u32);
        }
        job += 1;
    };
    producer.finish();
    exhausted
}

/// Closed-loop generator body for one user: submit (retrying a full ring —
/// the user waits), block until the page settles, think, repeat.
fn closed_loop(
    producer: asets_sim::live::JobProducer,
    board: Arc<JobBoard>,
    jobs: std::ops::Range<u32>,
    thinks: Vec<Duration>,
    deadline: Instant,
) {
    let mut producer = producer;
    let settle_grace = Duration::from_secs(5);
    for (job, think) in jobs.zip(thinks) {
        if Instant::now() >= deadline {
            break;
        }
        while !producer.submit(job) {
            if Instant::now() >= deadline {
                producer.finish();
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let settle_by = deadline + settle_grace;
        while !board.settled(job) && Instant::now() < settle_by {
            std::thread::sleep(Duration::from_micros(200));
        }
        if board.status(job) == JobStatus::Shed {
            continue; // no think over a page the user never saw
        }
        std::thread::sleep(think);
    }
    producer.finish();
}

/// Run one soak to completion and report.
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    run_serve_with(cfg, None)
}

/// Like [`run_serve`], but with an optional live-telemetry side-car: the
/// bus observer is tee'd onto the engine next to the SLO monitor, so the
/// scrape endpoint answers with current counters for the whole soak.
pub fn run_serve_with(
    cfg: &ServeConfig,
    telemetry: Option<&mut ServeTelemetry>,
) -> Result<ServeReport, String> {
    assert!(cfg.scale > 0 && cfg.servers > 0);
    let universe = build_universe(cfg)?;
    let n_producers = match cfg.mode {
        ServeMode::Open { .. } => 1,
        ServeMode::Closed { users, .. } => users.max(1) as usize,
    };
    let live_cfg = LiveConfig {
        scale: cfg.scale,
        servers: cfg.servers,
        max_inflight: cfg.max_inflight,
        shed_infeasible: cfg.shed_infeasible,
        rings: n_producers,
        ring_capacity: cfg.ring_capacity,
        ..LiveConfig::default()
    };
    let frontend = LiveFrontend::new(&universe.specs, &universe.jobs, live_cfg);
    let LiveFrontend {
        pump,
        producers,
        board,
        stats,
        universe: _,
        admissions,
    } = frontend;

    let table = TxnTable::new(universe.specs.clone()).map_err(|e| format!("{e}"))?;
    let policy: Box<dyn Scheduler> = cfg.policy.build(&table);
    let monitor = Rc::new(RefCell::new(SloMonitor::new()));
    // The SLO monitor always rides the engine; a telemetry side-car adds
    // its bus observer through a tee so neither sink knows the other.
    let observer = match telemetry.and_then(|t| t.observer.take()) {
        Some(bus_obs) => {
            let tee = Tee::new()
                .with(share(&monitor))
                .with(share(&Rc::new(RefCell::new(bus_obs))));
            share(&Rc::new(RefCell::new(tee)))
        }
        None => share(&monitor),
    };
    let mut engine = Engine::from_table(table, policy, pump)
        .with_servers(cfg.servers)
        .with_observer(observer);

    let started = Instant::now();
    let deadline = started + cfg.duration;
    let total_jobs = universe.jobs.len() as u64;
    let mut handles = Vec::new();
    let exhausted = Arc::new(std::sync::atomic::AtomicBool::new(false));
    match cfg.mode {
        ServeMode::Open { pages_per_sec } => {
            let mut producers = producers;
            let producer = producers.remove(0);
            let seed = cfg.seed;
            let flag = Arc::clone(&exhausted);
            handles.push(std::thread::spawn(move || {
                if open_loop(producer, pages_per_sec, total_jobs, deadline, seed) {
                    flag.store(true, Ordering::Relaxed);
                }
            }));
        }
        ServeMode::Closed { .. } => {
            for (u, producer) in producers.into_iter().enumerate() {
                let range = universe.per_user[u].clone();
                // Think times come from the user's session script, mapped
                // to wall time through the soak's scale.
                let thinks: Vec<Duration> = universe.thinks[u]
                    .iter()
                    .map(|&t| wall_of_units(t, cfg.scale))
                    .collect();
                let board = Arc::clone(&board);
                handles.push(std::thread::spawn(move || {
                    closed_loop(producer, board, range, thinks, deadline);
                }));
            }
        }
    }

    let mut reports_emitted = 0u64;
    let mut jsonl = Vec::new();
    let mut next_report = started + cfg.report_every;
    while engine.step() {
        if Instant::now() >= next_report {
            next_report += cfg.report_every;
            reports_emitted += 1;
            let m = monitor.borrow();
            let line = m.to_jsonl_labeled(Some(("soak", format!("{reports_emitted}"))));
            if cfg.live_output {
                println!(
                    "[{:6.1}s] completions {} window miss ratio {:.3} in-flight {}",
                    started.elapsed().as_secs_f64(),
                    m.completions(),
                    m.window_miss_ratio(),
                    stats.peak_inflight.load(Ordering::Relaxed),
                );
            }
            jsonl.push(line);
        }
    }
    for h in handles {
        h.join().map_err(|_| "generator thread panicked")?;
    }
    let wall = started.elapsed();
    let m = monitor.borrow();
    let live = stats.snapshot();
    let _ = board;
    Ok(ServeReport {
        completions: m.completions(),
        misses: m.misses(),
        miss_ratio: m.miss_ratio(),
        window_miss_ratio: m.window_miss_ratio(),
        p99_tardiness_units: m
            .tardiness()
            .quantile(0.99)
            .map(|t| SimDuration::from_ticks(t).as_units())
            .unwrap_or(0.0),
        reports_emitted,
        jsonl,
        prometheus: m.to_prometheus_labeled(Some(("mode", mode_label(cfg.mode)))),
        universe_jobs: total_jobs,
        universe_exhausted: exhausted.load(Ordering::Relaxed),
        wall,
        admission: admissions.stats(&live),
        live,
    })
}

fn mode_label(mode: ServeMode) -> String {
    match mode {
        ServeMode::Open { .. } => "open".into(),
        ServeMode::Closed { .. } => "closed".into(),
    }
}

/// Sanity checks every soak must satisfy regardless of timing: counter
/// conservation across the admission pipeline.
pub fn check_conservation(r: &ServeReport) -> Result<(), String> {
    let l = &r.live;
    if l.admitted + l.shed_overload + l.shed_infeasible > l.submitted {
        return Err(format!("admission outcomes exceed submissions: {l:?}"));
    }
    if l.completed_txns > l.delivered_txns {
        return Err(format!(
            "completed {} > delivered {}",
            l.completed_txns, l.delivered_txns
        ));
    }
    if r.completions != l.completed_txns {
        return Err(format!(
            "SLO monitor saw {} completions, pump saw {}",
            r.completions, l.completed_txns
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_open_sizes_to_offered_load() {
        let cfg = ServeConfig {
            duration: Duration::from_secs(2),
            mode: ServeMode::Open {
                pages_per_sec: 20.0,
            },
            ..ServeConfig::default()
        };
        let u = build_universe(&cfg).unwrap();
        assert_eq!(u.jobs.len(), 64, "ceil(40 * 1.6)");
        assert_eq!(u.specs.len(), 64 * 4, "four fragments per stock page");
        assert!(u.per_user.is_empty());
    }

    #[test]
    fn universe_closed_matches_scripts() {
        let cfg = ServeConfig {
            mode: ServeMode::Closed {
                users: 3,
                mean_think_ms: 5.0,
            },
            ..ServeConfig::default()
        };
        let u = build_universe(&cfg).unwrap();
        assert_eq!(u.per_user.len(), 3);
        let total: u32 = u.per_user.iter().map(|r| r.end - r.start).sum();
        assert_eq!(u.jobs.len() as u32, total);
        // Ranges tile the job space in user order.
        assert_eq!(u.per_user[0].start, 0);
        assert_eq!(u.per_user[2].end as usize, u.jobs.len());
    }

    #[test]
    fn universe_is_seed_deterministic() {
        let cfg = ServeConfig::default();
        let a = build_universe(&cfg).unwrap();
        let b = build_universe(&cfg).unwrap();
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.jobs, b.jobs);
    }
}
