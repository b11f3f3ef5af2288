//! `live_open`: open-loop Poisson page requests for §II-B stock pages,
//! compiled by `asets_webdb`, through `LiveFrontend` → `LivePump` engine
//! (2 servers, ASETS\*) with the `SloMonitor` attached. One generator
//! thread plus the engine thread; no scrape or bus side-car.
//!
//! Time is compressed (`SCALE` simulated ticks per wall microsecond, one
//! time unit = 20 µs) so the engine loop, not the modelled service, bounds
//! throughput. An untraced run measures the engine's saturated retirement
//! rate over repeated overload soaks, and the schedule quality of the live
//! page mix from a replay in simulated time: at this compression, on a
//! shared host, wall-clock latency tails measure host preemption more than
//! the program. A traced run measures the wall-clock page phases at the
//! reference rate, timing each page from the instant it was *due*, and
//! climbs the capacity ladder. The compiled universe covers the largest
//! soak's offered volume; a generator lagging beyond `LAG_BOUND_MS`
//! invalidates a rung instead of flattering it.

use crate::adapter::{PolicyClock, Timed, TxnStamps};
use crate::check;
use crate::metrics::{another_setup, cpu_seconds, median, quantile, setup_seconds, Report};
use asets_core::obs::{share, CompletionInfo, EpochSummary, Observer};
use asets_core::policy::{LifecycleEvent, PolicyKind, Scheduler};
use asets_core::table::TxnTable;
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::TxnSpec;
use asets_obs::SloMonitor;
use asets_sim::live::{
    JobProducer, JobStatus, LiveConfig, LiveFrontend, LivePump, LiveSnapshot, LiveUniverse,
};
use asets_sim::{Engine, SimResult};
use asets_webdb::app::stock::{stock_database, stock_page_template, StockDbParams};
use asets_webdb::{compile_requests, CostModel, PageRequest};
use asets_workload::poisson::Exponential;
use asets_workload::{Rng64, Zipf};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated ticks per wall microsecond: one time unit is 20 µs, so a
/// stock page's widest fragment SLA (40 units) is 0.8 ms of wall time.
const SCALE: u64 = 50_000;
/// Servers in the engine's pool.
const SERVERS: usize = 2;
/// Admission bound on in-flight transactions (the serving default).
const MAX_INFLIGHT: usize = 256;
/// Ingest ring capacity in jobs (the serving default).
const RING_CAPACITY: usize = 256;
/// Zipf skew of page popularity over user portfolios.
const ZIPF_ALPHA: f64 = 1.0;
/// Distinct page requests compiled per setup; longer soaks replay them in
/// order (compilation is per request, so the replayed universe is exactly
/// what compiling the repeated request list would produce).
const COMPILE_PAGES: usize = 4000;
/// The reference rate of traced runs, pages per wall second: the
/// wall-clock page phases are measured here.
const REF_RATE: f64 = 2000.0;
/// Length of the traced runs' reference soak, seconds of offered load.
const REF_SECS: f64 = 2.0;
/// The capacity ladder: `LADDER_BASE · LADDER_STEP^k` pages per wall
/// second, `k < LADDER_RUNGS`, searched by bisection.
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.07;
const LADDER_RUNGS: usize = 42;
/// Length of one capacity rung.
const RUNG_SECS: f64 = 1.0;
/// A capacity rung passes at or under this admitted (fragment) miss ratio.
const KNEE_MISS: f64 = 0.05;
/// A capacity rung whose generator's p99 send lag exceeds this is invalid:
/// it is measured again, up to `TRIES` times in all, and never counted.
const LAG_BOUND_MS: f64 = 2.0;
const TRIES: usize = 3;
/// The offered rate above the knee, pages per wall second, where the
/// engine's saturated retirement rate is measured.
const OVER_RATE: f64 = 10_000.0;
/// Length of one overload soak; the run's seconds set how many (at least
/// 3), and the retirement rates are their medians.
const OVER_SECS: f64 = 0.6;

/// Seed of the stock database: the served application's data is fixed
/// (the serving harness's default seed); the run seed drives the requests.
const DB_SEED: u64 = 42;

fn db_params() -> StockDbParams {
    StockDbParams {
        n_stocks: 100,
        n_users: 16,
        holdings_per_user: 6,
        alerts_per_user: 2,
    }
}

/// The compiled page universe every soak serves a prefix of.
pub struct Universe {
    specs: Vec<TxnSpec>,
    /// `(first transaction, fragment count)` per page.
    jobs: Vec<(u32, u32)>,
    /// Page SLA in wall nanoseconds: the page's tightest fragment SLA,
    /// the budget `LiveUniverse::sla` prices admission against.
    page_sla_ns: Vec<u64>,
}

impl Universe {
    /// The specs and page tiling of the first `pages` pages.
    fn prefix(&self, pages: usize) -> (&[TxnSpec], &[(u32, u32)]) {
        let txns = self.jobs[..pages].iter().map(|&(_, c)| c as usize).sum();
        (&self.specs[..txns], &self.jobs[..pages])
    }
}

/// One soak: an offered rate and the due offsets of its pages, in
/// nanoseconds from the generator's start.
struct Soak {
    rate: f64,
    due_ns: Vec<u64>,
}

/// Poisson due offsets over `secs` at `rate`.
fn schedule(rate: f64, secs: f64, rng: &mut Rng64) -> Soak {
    let exp = Exponential::new(rate);
    let mut t = 0.0;
    let mut due_ns = Vec::new();
    loop {
        t += exp.sample(rng);
        if t >= secs {
            return Soak { rate, due_ns };
        }
        due_ns.push((t * 1e9) as u64);
    }
}

fn ticks_to_wall_ns(ticks: u64) -> u64 {
    ticks * 1000 / SCALE
}

/// Every soak of a run: the overload soaks for an untraced run; one
/// reference soak and the capacity ladder for a traced one.
pub struct Plan {
    reference: Option<Soak>,
    rungs: Vec<Soak>,
    over: Vec<Soak>,
}

impl Plan {
    fn draw(seed: u64, seconds: f64, traced: bool) -> Plan {
        let root = Rng64::new(seed);
        if traced {
            let rungs = (0..LADDER_RUNGS)
                .map(|k| {
                    let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
                    schedule(rate, RUNG_SECS, &mut root.fork(100 + k as u64))
                })
                .collect();
            return Plan {
                reference: Some(schedule(REF_RATE, REF_SECS, &mut root.fork(1))),
                rungs,
                over: Vec::new(),
            };
        }
        let soaks = ((0.5 * seconds / OVER_SECS).round() as usize).max(3);
        let over = (0..soaks)
            .map(|i| schedule(OVER_RATE, OVER_SECS, &mut root.fork(200 + i as u64)))
            .collect();
        Plan {
            reference: None,
            rungs: Vec::new(),
            over,
        }
    }

    fn pages(&self) -> usize {
        self.reference
            .iter()
            .chain(&self.rungs)
            .chain(&self.over)
            .map(|s| s.due_ns.len())
            .max()
            .unwrap_or(0)
    }
}

/// What one setup pass produced and how long each part took.
struct Built {
    plan: Plan,
    universe: Universe,
    compiled_txns: usize,
    gen_s: f64,
    db_s: f64,
    compile_s: f64,
    table_s: f64,
    policy_s: f64,
    wall_s: f64,
}

/// Draw the schedules and the page sequence, build the stock database,
/// compile the page requests, lay out the universe, and build its table
/// and policy.
fn build(seed: u64, seconds: f64, traced: bool) -> Result<Built, String> {
    let started = Instant::now();
    let t0 = cpu_seconds();
    let plan = Plan::draw(seed, seconds, traced);
    let pages = plan.pages();
    let zipf = Zipf::new(db_params().n_users as u64, ZIPF_ALPHA);
    let mut rng = Rng64::new(seed).fork(0);
    let requests: Vec<PageRequest> = (0..pages.min(COMPILE_PAGES))
        .map(|_| PageRequest {
            template: stock_page_template(zipf.sample(&mut rng) as i64 - 1),
            submit: SimTime::ZERO,
        })
        .collect();
    let t1 = cpu_seconds();
    let db = stock_database(&db_params(), DB_SEED).map_err(|e| format!("stock db: {e}"))?;
    let t2 = cpu_seconds();
    let (compiled, binding) = compile_requests(&requests, &db, &CostModel::default())
        .map_err(|e| format!("compile: {e}"))?;
    let t3 = cpu_seconds();
    let compiled_jobs = binding.jobs();
    let mut specs = Vec::new();
    let mut jobs = Vec::with_capacity(pages);
    for p in 0..pages {
        let (first, count) = compiled_jobs[p % compiled_jobs.len()];
        let base = specs.len() as u32;
        jobs.push((base, count));
        for spec in &compiled[first as usize..(first + count) as usize] {
            let mut spec = spec.clone();
            for d in &mut spec.deps {
                d.0 = d.0 - first + base;
            }
            specs.push(spec);
        }
    }
    let page_sla_ns = jobs
        .iter()
        .map(|&(first, count)| {
            let tightest = specs[first as usize..(first + count) as usize]
                .iter()
                .map(|s| (s.deadline - s.arrival).ticks())
                .min()
                .unwrap_or(0);
            ticks_to_wall_ns(tightest)
        })
        .collect();
    let universe = Universe {
        specs,
        jobs,
        page_sla_ns,
    };
    let t4 = cpu_seconds();
    let table = TxnTable::new(universe.specs.clone()).map_err(|e| format!("table: {e}"))?;
    let t5 = cpu_seconds();
    let policy = std::hint::black_box(PolicyKind::asets_star().build(&table));
    let t6 = cpu_seconds();
    drop((policy, table));
    Ok(Built {
        plan,
        universe,
        compiled_txns: compiled.len(),
        // Laying out the universe counts as input generation.
        gen_s: (t1 - t0) + (t4 - t3),
        db_s: t2 - t1,
        compile_s: t3 - t2,
        table_s: t5 - t4,
        policy_s: t6 - t5,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Build repeatedly; report medians, keep the first build.
pub fn setup(
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(Plan, Universe), String> {
    let mut builds = Vec::new();
    let begun = Instant::now();
    while another_setup(builds.len(), begun) {
        builds.push(build(seed, seconds, traced)?);
    }
    let med = |f: fn(&Built) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    let total: Vec<f64> = builds
        .iter()
        .map(|b| b.gen_s + b.db_s + b.compile_s + b.table_s + b.policy_s)
        .collect();
    let (setup_s, slowdown) = setup_seconds(&total);
    report.set("setup_s", setup_s);
    report.set("workload.gen_s", med(|b| b.gen_s) / slowdown);
    report.set("webdb.db_build_s", med(|b| b.db_s) / slowdown);
    report.set("webdb.compile_s", med(|b| b.compile_s) / slowdown);
    report.set("table.build_s", med(|b| b.table_s) / slowdown);
    report.set("policy.build_s", med(|b| b.policy_s) / slowdown);
    report.set("table.builds", 2.0);
    let (cpu, wall) = (median(&total), med(|b| b.wall_s));
    let built = builds.swap_remove(0);
    if built.plan.pages() > built.universe.jobs.len() {
        report.fail("the compiled universe ran out before the offered volume");
    }
    report.set("webdb.compiled_txns", built.compiled_txns as f64);
    report.note(format!(
        "setup: median CPU time of {} passes {cpu:.6} s (median wall {wall:.6} s), divided \
         by the host slowdown {slowdown:.4}; {} transactions compiled, universe of {} pages",
        builds.len() + 1,
        built.compiled_txns,
        built.universe.jobs.len()
    ));
    Ok((built.plan, built.universe))
}

/// The SLO monitor behind a wrapper observer that sees only whole epochs:
/// it rebuilds each completion's context from the epoch slice (arrival and
/// readiness instants, the compiled SLA width), feeds `SloMonitor::record`,
/// and stamps the wall instant each page's last fragment completes.
struct PageClock {
    t0: Instant,
    universe: Arc<LiveUniverse>,
    sla: Vec<SimDuration>,
    length: Vec<SimDuration>,
    arrived: Vec<Option<SimTime>>,
    ready_at: Vec<Option<SimTime>>,
    remaining: Vec<u32>,
    done_ns: Vec<u64>,
    monitor: SloMonitor,
    /// Traced soaks only: time in the monitor, per-epoch processing lag,
    /// and the wall instant of the latest epoch.
    traced: Option<EpochTrace>,
}

struct EpochTrace {
    pump_start: Instant,
    slo_ns: u64,
    lag_ms: Vec<f64>,
    last_epoch: Option<Instant>,
}

impl Observer for PageClock {
    fn on_epoch(&mut self, events: &[LifecycleEvent], summary: &EpochSummary) {
        let at = summary.at;
        for ev in events {
            match *ev {
                LifecycleEvent::Ready(t) => {
                    self.arrived[t.index()].get_or_insert(at);
                    self.ready_at[t.index()].get_or_insert(at);
                }
                LifecycleEvent::BlockedArrival(t) => self.arrived[t.index()] = Some(at),
                LifecycleEvent::Requeue(_) => {}
                LifecycleEvent::Complete(t) => {
                    let i = t.index();
                    let arrival = self.arrived[i].expect("completed transactions arrived");
                    let deadline = arrival + self.sla[i];
                    let ready = self.ready_at[i].unwrap_or(arrival);
                    let info = CompletionInfo {
                        finish: at,
                        deadline,
                        tardiness: at.saturating_since(deadline),
                        queue_wait: at.saturating_since(ready).saturating_sub(self.length[i]),
                        service: self.length[i],
                        met_deadline: at <= deadline,
                    };
                    match &mut self.traced {
                        Some(tr) => {
                            let started = Instant::now();
                            self.monitor.record(&info);
                            tr.slo_ns += started.elapsed().as_nanos() as u64;
                        }
                        None => self.monitor.record(&info),
                    }
                    let job = self.universe.job_of(t) as usize;
                    self.remaining[job] -= 1;
                    if self.remaining[job] == 0 {
                        self.done_ns[job] = (self.t0.elapsed().as_nanos() as u64).max(1);
                    }
                }
            }
        }
        if let Some(tr) = &mut self.traced {
            let now = Instant::now();
            let due = tr.pump_start + Duration::from_nanos(ticks_to_wall_ns(at.ticks()));
            let lag = match now.checked_duration_since(due) {
                Some(d) => d.as_secs_f64(),
                None => -(due - now).as_secs_f64(),
            };
            tr.lag_ms.push(lag * 1e3);
            tr.last_epoch = Some(now);
        }
    }

    fn wants_timing(&self) -> bool {
        false
    }
}

/// What the timing adapter saw during a traced soak. Stamps count from
/// the pump's start.
struct PolicyProbe {
    clock: PolicyClock,
    stamps: Vec<TxnStamps>,
    cache_hits: u64,
}

/// The traced part of a soak.
struct SoakTrace {
    epochs: EpochTrace,
    probe: PolicyProbe,
    step_ns: Vec<f64>,
    finish_s: f64,
}

/// One finished soak. Every wall offset counts from the generator's
/// start, the instant page 0's due offset is measured from.
struct SoakOut {
    rate: f64,
    /// Offered window: the last page's due offset.
    secs: f64,
    sent_ns: Vec<u64>,
    status: Vec<JobStatus>,
    done_ns: Vec<u64>,
    snap: LiveSnapshot,
    result: SimResult,
    monitor_completions: u64,
    /// Wall time of the engine loop.
    wall_s: f64,
    /// How much later than the pump the generator started; subtract it
    /// from pump-based stamps.
    gen_offset_ns: u64,
    trace: Option<SoakTrace>,
}

/// The generator: send each page when it is due (sleeping in short
/// slices, like the serving harness's open loop), drop it if the ring is
/// full, and retire. Returns each page's send offset.
fn generate(mut producer: JobProducer, due_ns: &[u64], t0: Instant) -> Vec<u64> {
    let mut sent = vec![0u64; due_ns.len()];
    for (j, &d) in due_ns.iter().enumerate() {
        let due = t0 + Duration::from_nanos(d);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(200)));
        }
        sent[j] = t0.elapsed().as_nanos() as u64;
        if !producer.submit(j as u32) {
            producer.drop_job(j as u32);
        }
    }
    producer.finish();
    sent
}

fn live_config() -> LiveConfig {
    LiveConfig {
        scale: SCALE,
        servers: SERVERS,
        max_inflight: MAX_INFLIGHT,
        ring_capacity: RING_CAPACITY,
        rings: 1,
        ..LiveConfig::default()
    }
}

/// Run one soak: engine on this thread, generator on a scoped thread.
fn run_soak(u: &Universe, soak: &Soak, traced: bool) -> Result<SoakOut, String> {
    let (specs, jobs) = u.prefix(soak.due_ns.len());
    let specs = specs.to_vec();
    let n = specs.len();
    let table = TxnTable::new(specs.clone()).map_err(|e| format!("table: {e}"))?;
    let frontend = LiveFrontend::new(&specs, jobs, live_config());
    // The pump starts its wall clock inside `LiveFrontend::new`; this is
    // within microseconds of it.
    let pump_start = Instant::now();
    let LiveFrontend {
        pump,
        mut producers,
        board,
        stats,
        universe,
        ..
    } = frontend;
    let clock = Rc::new(RefCell::new(PageClock {
        t0: pump_start,
        universe,
        sla: specs.iter().map(|s| s.deadline - s.arrival).collect(),
        length: specs.iter().map(|s| s.length).collect(),
        arrived: vec![None; n],
        ready_at: vec![None; n],
        remaining: jobs.iter().map(|&(_, c)| c).collect(),
        done_ns: vec![0; jobs.len()],
        monitor: SloMonitor::new(),
        traced: traced.then(|| EpochTrace {
            pump_start,
            slo_ns: 0,
            lag_ms: Vec::new(),
            last_epoch: None,
        }),
    }));
    let producer = producers.remove(0);
    let driven = if traced {
        let policy = Timed::new(crate::batch::asets_star(&table)).with_stamps(n, pump_start);
        let engine = Engine::with_pump(specs, policy, pump)
            .map_err(|e| format!("engine: {e}"))?
            .with_servers(SERVERS)
            .with_observer(share(&clock));
        drive(engine, producer, &soak.due_ns, &clock, |p| {
            Some(PolicyProbe {
                clock: p.clock().clone(),
                stamps: p.stamps().to_vec(),
                cache_hits: p.cache_hits(),
            })
        })
    } else {
        let policy: Box<dyn Scheduler> = PolicyKind::asets_star().build(&table);
        let engine = Engine::with_pump(specs, policy, pump)
            .map_err(|e| format!("engine: {e}"))?
            .with_servers(SERVERS)
            .with_observer(share(&clock));
        drive(engine, producer, &soak.due_ns, &clock, |_| None)
    };
    let gen_offset_ns = (driven.gen_start - pump_start).as_nanos() as u64;
    let mut clock = Rc::try_unwrap(clock)
        .map_err(|_| "engine kept the page clock")?
        .into_inner();
    let done_ns = clock
        .done_ns
        .iter()
        .map(|&d| {
            if d == 0 {
                0
            } else {
                d.saturating_sub(gen_offset_ns).max(1)
            }
        })
        .collect();
    let trace = match (clock.traced.take(), driven.probe) {
        (Some(epochs), Some(probe)) => Some(SoakTrace {
            epochs,
            probe,
            step_ns: driven.step_ns,
            finish_s: driven.finish_s,
        }),
        _ => None,
    };
    Ok(SoakOut {
        rate: soak.rate,
        secs: soak.due_ns.last().map_or(0.0, |&d| d as f64 / 1e9),
        sent_ns: driven.sent_ns,
        status: (0..jobs.len() as u32).map(|j| board.status(j)).collect(),
        done_ns,
        snap: stats.snapshot(),
        result: driven.result,
        monitor_completions: clock.monitor.completions(),
        wall_s: driven.wall_s,
        gen_offset_ns,
        trace,
    })
}

/// What driving the engine produced.
struct Driven {
    result: SimResult,
    sent_ns: Vec<u64>,
    gen_start: Instant,
    wall_s: f64,
    step_ns: Vec<f64>,
    finish_s: f64,
    probe: Option<PolicyProbe>,
}

/// Start the generator, step the engine until the pump drains, join.
/// Traced soaks also time each step from its epoch report to its return.
fn drive<S: Scheduler>(
    mut engine: Engine<S, LivePump>,
    producer: JobProducer,
    due_ns: &[u64],
    clock: &Rc<RefCell<PageClock>>,
    probe: impl FnOnce(&S) -> Option<PolicyProbe>,
) -> Driven {
    let traced = clock.borrow().traced.is_some();
    let mut step_ns = Vec::new();
    let gen_start = Instant::now();
    let (sent_ns, wall_s) = std::thread::scope(|scope| {
        let gen = scope.spawn(|| generate(producer, due_ns, gen_start));
        loop {
            let more = engine.step();
            if traced {
                let end = Instant::now();
                let mut c = clock.borrow_mut();
                if let Some(mark) = c.traced.as_mut().and_then(|tr| tr.last_epoch.take()) {
                    step_ns.push((end - mark).as_nanos() as f64);
                }
            }
            if !more {
                break;
            }
        }
        let wall_s = gen_start.elapsed().as_secs_f64();
        (gen.join().expect("generator thread panicked"), wall_s)
    });
    let probe = probe(engine.policy());
    let started = Instant::now();
    let result = engine.finish();
    Driven {
        result,
        sent_ns,
        gen_start,
        wall_s,
        step_ns,
        finish_s: started.elapsed().as_secs_f64(),
        probe,
    }
}

/// Page-level view of a soak.
struct PageView {
    latency_ms: Vec<f64>,
    on_time: u64,
    lost: u64,
    scheduled: u64,
    lag_ms: Vec<f64>,
}

impl PageView {
    fn of(u: &Universe, soak: &Soak, s: &SoakOut) -> PageView {
        let mut v = PageView {
            latency_ms: Vec::new(),
            on_time: 0,
            lost: 0,
            scheduled: soak.due_ns.len() as u64,
            lag_ms: Vec::new(),
        };
        for (j, &due) in soak.due_ns.iter().enumerate() {
            v.lag_ms.push(s.sent_ns[j].saturating_sub(due) as f64 / 1e6);
            if s.done_ns[j] == 0 {
                v.lost += 1;
                continue;
            }
            let latency = s.done_ns[j].saturating_sub(due);
            v.latency_ms.push(latency as f64 / 1e6);
            v.on_time += u64::from(latency <= u.page_sla_ns[j]);
        }
        v
    }

    /// Pages late or lost (dropped, shed, unfinished), over pages offered.
    fn miss_ratio(&self) -> f64 {
        1.0 - self.on_time as f64 / self.scheduled.max(1) as f64
    }

    fn lag_p99(&mut self) -> f64 {
        quantile(&mut self.lag_ms, 0.99)
    }
}

/// Output checks of a soak: conservation across the admission pipeline,
/// exactly-once completion and precedence among admitted transactions,
/// and the Definition 3–5 summary.
fn check_soak(u: &Universe, soak: &Soak, s: &SoakOut, report: &mut Report) {
    let (specs, _) = u.prefix(soak.due_ns.len());
    let l = &s.snap;
    let sent = soak.due_ns.len() as u64;
    let mut errors = Vec::new();
    if l.submitted + l.dropped != sent {
        errors.push(format!(
            "{sent} sent, {} submitted + {} dropped",
            l.submitted, l.dropped
        ));
    }
    if l.admitted + l.shed_overload + l.shed_infeasible != l.submitted {
        errors.push(format!("admission outcomes do not add up: {l:?}"));
    }
    if l.completed_txns != l.delivered_txns || l.completed_txns != s.result.outcomes.len() as u64 {
        errors.push(format!(
            "{} delivered, {} completed, {} outcomes",
            l.delivered_txns,
            l.completed_txns,
            s.result.outcomes.len()
        ));
    }
    if s.monitor_completions != l.completed_txns {
        errors.push(format!(
            "SLO monitor saw {} completions, pump {}",
            s.monitor_completions, l.completed_txns
        ));
    }
    let done = s.status.iter().filter(|&&st| st == JobStatus::Done).count() as u64;
    let stamped = s.done_ns.iter().filter(|&&d| d != 0).count() as u64;
    if done != l.admitted || stamped != done {
        errors.push(format!(
            "{} admitted, {done} done on the board, {stamped} stamped done",
            l.admitted
        ));
    }
    let mut seen = vec![false; specs.len()];
    for o in &s.result.outcomes {
        if std::mem::replace(&mut seen[o.id.index()], true) {
            errors.push(format!("{} completed twice", o.id));
            break;
        }
    }
    if let Err(e) = check::precedence_holds(specs, &s.result.outcomes) {
        errors.push(e);
    }
    if let Err(e) = check::summary_matches(&s.result.outcomes, &s.result.summary) {
        errors.push(e);
    }
    for e in errors {
        report.fail(format!("{} pages/s soak: {e}", s.rate));
    }
}

/// Measure a rung: soak it, and again while the generator lagged past
/// its bound (an invalid measurement), up to `TRIES` times. Returns
/// whether it passed.
fn climb(u: &Universe, rung: &Soak, report: &mut Report) -> Result<bool, String> {
    for attempt in 1..=TRIES {
        let out = run_soak(u, rung, false)?;
        check_soak(u, rung, &out, report);
        let mut v = PageView::of(u, rung, &out);
        let lag = v.lag_p99();
        let l = &out.snap;
        let shed = l.shed_overload + l.shed_infeasible;
        let valid = lag <= LAG_BOUND_MS;
        let miss = out.result.summary.miss_ratio;
        let pass = valid && miss <= KNEE_MISS && l.dropped == 0 && shed == 0;
        report.note(format!(
            "rung {:.0} pages/s (try {attempt}): {} pages, admitted miss {miss:.4}, page miss \
             {:.4}, dropped {}, shed {shed}, generator p99 lag {lag:.3} ms: {}",
            rung.rate,
            v.scheduled,
            v.miss_ratio(),
            l.dropped,
            if pass {
                "pass"
            } else if valid {
                "fail"
            } else {
                "invalid"
            }
        ));
        if valid {
            return Ok(pass);
        }
    }
    Ok(false)
}

/// The simulated-time replay: `REPLAY_CHUNKS` independent streams of
/// `REPLAY_PAGES` pages each. Chunks keep each engine's table small: a
/// decision's cost grows with the number of workflows in the table.
const REPLAY_CHUNKS: u64 = 80;
const REPLAY_PAGES: usize = 2500;
/// Modelled utilization of the two-server pool during the replay.
const REPLAY_LOAD: f64 = 0.75;

/// Schedule quality of the live page mix, from the replay.
struct Replay {
    avg_tardiness: f64,
    miss_ratio: f64,
    page_units: Vec<f64>,
    page_misses: u64,
}

/// The live page mix replayed in simulated time on the same two-server
/// pool (`EventPump`): per chunk, `REPLAY_PAGES` pages of the universe, in
/// order, arriving as a Poisson stream at `REPLAY_LOAD` modelled
/// utilization.
/// Deterministic for a seed, so the schedule-quality metrics it yields do
/// not depend on how the host schedules threads. Page latency (arrival to
/// last fragment done) is read in wall ms at the serving scale and misses
/// the page SLA when it exceeds the page's tightest fragment SLA.
fn replay(u: &Universe, seed: u64, report: &mut Report) -> Result<Replay, String> {
    let exp_service: f64 =
        u.specs.iter().map(|s| s.length.as_units()).sum::<f64>() / u.jobs.len() as f64;
    let exp = Exponential::new(REPLAY_LOAD * SERVERS as f64 / exp_service);
    let mut out = Replay {
        avg_tardiness: 0.0,
        miss_ratio: 0.0,
        page_units: Vec::with_capacity(REPLAY_PAGES * REPLAY_CHUNKS as usize),
        page_misses: 0,
    };
    for chunk in 0..REPLAY_CHUNKS {
        let mut rng = Rng64::new(seed).fork(300 + chunk);
        let mut at = 0.0;
        let mut specs = Vec::new();
        let mut pages = Vec::with_capacity(REPLAY_PAGES);
        for p in 0..REPLAY_PAGES {
            at += exp.sample(&mut rng);
            let arrival = SimTime::from_units(at);
            let (first, count) = u.jobs[p % u.jobs.len()];
            let base = specs.len() as u32;
            pages.push((base, count, u.page_sla_ns[p % u.jobs.len()]));
            for s in &u.specs[first as usize..(first + count) as usize] {
                let mut s = s.clone();
                for d in &mut s.deps {
                    d.0 = d.0 - first + base;
                }
                let sla = s.deadline - s.arrival;
                s.arrival = arrival;
                s.deadline = arrival + sla;
                specs.push(s);
            }
        }
        let table = TxnTable::new(specs.clone()).map_err(|e| format!("table: {e}"))?;
        let policy = PolicyKind::asets_star().build(&table);
        let mut engine = Engine::new(specs.clone(), policy)
            .map_err(|e| format!("engine: {e}"))?
            .with_servers(SERVERS);
        while engine.step() {}
        let r = engine.finish();
        if let Err(e) = check::batch_output(&specs, &r.outcomes, &r.summary) {
            report.fail(format!("replay: {e}"));
        }
        out.avg_tardiness += r.summary.avg_tardiness / REPLAY_CHUNKS as f64;
        out.miss_ratio += r.summary.miss_ratio / REPLAY_CHUNKS as f64;
        for (base, count, sla_ns) in pages {
            let members = &r.outcomes[base as usize..(base + count) as usize];
            let done = members
                .iter()
                .map(|o| o.finish)
                .max()
                .expect("pages are non-empty");
            let latency = done - members[0].arrival;
            out.page_units.push(latency.as_units());
            out.page_misses += u64::from(ticks_to_wall_ns(latency.ticks()) > sla_ns);
        }
    }
    Ok(out)
}

/// The capacity ladder's knee: the highest rung, found by bisection
/// (rungs pass below the knee and fail above it), whose admitted miss
/// ratio is at most 0.05 with no ring drop and no shed; 0 if none passes.
fn knee(plan: &Plan, u: &Universe, report: &mut Report) -> Result<f64, String> {
    let (mut lo, mut hi) = (None::<usize>, plan.rungs.len());
    let mut next = plan.rungs.len() / 2;
    loop {
        if climb(u, &plan.rungs[next], report)? {
            lo = Some(next);
        } else {
            hi = next;
        }
        let floor = lo.map_or(0, |l| l + 1);
        if floor >= hi {
            return Ok(lo.map_or(0.0, |k| plan.rungs[k].rate));
        }
        next = (floor + hi) / 2;
    }
}

/// `--trace 0`: the overload soaks and the replay.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let (plan, u) = setup(seed, seconds, false, report)?;

    let (mut retired, mut pages) = (Vec::new(), Vec::new());
    for soak in &plan.over {
        let out = run_soak(&u, soak, false)?;
        check_soak(&u, soak, &out, report);
        report.attempted += soak.due_ns.len() as u64;
        let v = PageView::of(&u, soak, &out);
        retired.push(out.snap.completed_txns as f64 / out.wall_s);
        pages.push(out.snap.admitted as f64 / out.wall_s);
        report.note(format!(
            "overload {OVER_RATE} pages/s: {} pages offered, {} on time ({:.1} pages/s \
             goodput), {} dropped, {} shed, {:.0} transactions retired per second",
            v.scheduled,
            v.on_time,
            v.on_time as f64 / out.secs,
            out.snap.dropped,
            out.snap.shed_overload + out.snap.shed_infeasible,
            retired.last().expect("pushed above")
        ));
    }
    report.set("sim_txn_per_s", median(&retired));
    report.set("capacity_pps", median(&pages));

    let mut r = replay(&u, seed, report)?;
    let replayed = REPLAY_PAGES * REPLAY_CHUNKS as usize;
    report.attempted += replayed as u64;
    report.set("avg_tardiness", r.avg_tardiness);
    report.set("miss_ratio", r.miss_ratio);
    report.set("page_latency_p50", quantile(&mut r.page_units, 0.50));
    report.set("page_latency_p99", quantile(&mut r.page_units, 0.99));
    report.set("page_miss_ratio", r.page_misses as f64 / replayed as f64);
    report.note(format!(
        "sim_txn_per_s, capacity_pps: median of {} overload soaks; avg_tardiness, miss_ratio \
         and the page \
         metrics: {replayed} pages replayed in simulated time on the same pool at \
         {REPLAY_LOAD} modelled load",
        plan.over.len()
    ));
    Ok(())
}

/// `--trace 1`: the reference soak untraced, then traced with the timing
/// adapter and the page clock's epoch stamps.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let (plan, u) = setup(seed, seconds, true, report)?;
    let soak = plan
        .reference
        .as_ref()
        .expect("traced plans carry a reference soak");
    let untraced = run_soak(&u, soak, false)?;
    check_soak(&u, soak, &untraced, report);
    let mut base = PageView::of(&u, soak, &untraced);
    let out = run_soak(&u, soak, true)?;
    check_soak(&u, soak, &out, report);
    let mut view = PageView::of(&u, soak, &out);
    report.attempted = 2 * view.scheduled;
    report.failed += view.lost + base.lost;
    let tr = out.trace.as_ref().ok_or("traced soak carries no trace")?;

    // Page phases: due -> first fragment delivered -> first fragment
    // selected -> last fragment done. Adapter stamps count from the pump's
    // start; page offsets from the generator's.
    let (mut ring, mut queue, mut service) = (Vec::new(), Vec::new(), Vec::new());
    let first_of = |stamps: &mut dyn Iterator<Item = u64>| {
        stamps
            .filter(|&ns| ns != 0)
            .min()
            .map(|ns| ns.saturating_sub(out.gen_offset_ns))
    };
    for (j, &(first, count)) in u.prefix(soak.due_ns.len()).1.iter().enumerate() {
        if out.done_ns[j] == 0 {
            continue;
        }
        let members = &tr.probe.stamps[first as usize..(first + count) as usize];
        let delivered = first_of(&mut members.iter().map(|s| s.delivered_ns));
        let chosen = first_of(&mut members.iter().map(|s| s.chosen_ns));
        if let (Some(d), Some(c)) = (delivered, chosen) {
            ring.push(d.saturating_sub(soak.due_ns[j]) as f64 / 1e6);
            queue.push(c.saturating_sub(d) as f64 / 1e6);
            service.push(out.done_ns[j].saturating_sub(c) as f64 / 1e6);
        }
    }
    let phases = ring.len();
    let l = &out.snap;
    report.set("live.ring_wait_ms_p50", quantile(&mut ring, 0.50));
    report.set("live.ring_wait_ms_p99", quantile(&mut ring, 0.99));
    report.set("live.queue_ms_p50", quantile(&mut queue, 0.50));
    report.set("live.queue_ms_p99", quantile(&mut queue, 0.99));
    report.set("live.service_ms_p50", quantile(&mut service, 0.50));
    report.set(
        "live.lag_ms_p99",
        quantile(&mut tr.epochs.lag_ms.clone(), 0.99),
    );
    report.set("live.admitted", l.admitted as f64);
    report.set("live.dropped", l.dropped as f64);
    report.set("live.shed_overload", l.shed_overload as f64);
    report.set("live.shed_infeasible", l.shed_infeasible as f64);
    report.set("live.heartbeats", l.heartbeats as f64);
    report.set("live.peak_inflight", l.peak_inflight as f64);
    report.set("obs.slo_s", tr.epochs.slo_ns as f64 / 1e9);
    report.set("loadgen.lag_ms_p99", view.lag_p99());
    report.set("loadgen.sent", view.scheduled as f64);

    let clock = &tr.probe.clock;
    let mut maintain: Vec<f64> = clock.maintain_ns.iter().map(|&n| n as f64).collect();
    let mut select: Vec<f64> = clock.select_ns.iter().map(|&n| n as f64).collect();
    let mut step_ns = tr.step_ns.clone();
    let selects = select.len() as f64;
    report.set("policy.maintain_s", clock.maintain_s());
    report.set("policy.maintain_calls", maintain.len() as f64);
    report.set("policy.maintain_events", clock.maintain_events as f64);
    report.set("policy.maintain_ns_p50", quantile(&mut maintain, 0.50));
    report.set("policy.maintain_ns_p99", quantile(&mut maintain, 0.99));
    report.set("policy.select_s", clock.select_s());
    report.set("policy.select_calls", selects);
    report.set("policy.select_ns_p50", quantile(&mut select, 0.50));
    report.set("policy.select_ns_p99", quantile(&mut select, 0.99));
    report.set("policy.cache_hits", tr.probe.cache_hits as f64);
    report.set(
        "policy.cache_hit_ratio",
        tr.probe.cache_hits as f64 / selects.max(1.0),
    );
    let stats = &out.result.stats;
    let epochs = &out.result.epochs;
    report.set("engine.points", stats.scheduling_points as f64);
    report.set("engine.epochs", epochs.epochs as f64);
    report.set("engine.events", epochs.events as f64);
    report.set("engine.max_epoch_width", epochs.max_epoch_width as f64);
    report.set("engine.preemptions", stats.preemptions as f64);
    report.set("engine.step_ns_p50", quantile(&mut step_ns, 0.50));
    report.set("engine.step_ns_p99", quantile(&mut step_ns, 0.99));
    report.set(
        "engine.self_s",
        step_ns.iter().sum::<f64>() / 1e9 - clock.maintain_s() - clock.select_s(),
    );
    report.set("engine.finish_s", tr.finish_s);
    let base_p50 = quantile(&mut base.latency_ms, 0.50);
    report.set("live.page_ms_p50", base_p50);
    let knee_pps = knee(&plan, &u, report)?;
    report.set("live.capacity_pps", knee_pps);
    report.set("live.page_ms_p99", quantile(&mut base.latency_ms, 0.99));
    report.set("live.page_miss_ratio", base.miss_ratio());
    let p50 = quantile(&mut view.latency_ms, 0.50);
    report.set("trace.overhead_ratio", p50 / base_p50);
    report.note(format!(
        "traced reference soak: {} pages offered; page phases over {phases} pages; \
         engine.step_ns runs from each point's epoch report to the step's return \
         (the pump's wall-clock wait excluded); trace.overhead_ratio is traced over \
         untraced live.page_ms_p50. Live admission follows the wall clock, so traced and \
         untraced soaks are checked separately, not compared schedule for schedule",
        view.scheduled
    ));
    Ok(())
}
