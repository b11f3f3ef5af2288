//! Online serving: a wall-clock [`Pump`] fed by ingest threads.
//!
//! The simulated engine replays a pre-timed calendar; this module replaces
//! the calendar with *live* ingest. Producer threads (load generators)
//! push **jobs** — atomic admission units, one per compiled page request —
//! into bounded lock-free SPSC rings; the [`LivePump`], on the engine
//! thread, drains the rings at each scheduling point, runs **admission
//! control** (bounded in-flight transactions; optional shedding of work
//! whose SLA is already infeasible given the current backlog), and
//! delivers admitted transactions to the engine, which rebases each spec's
//! arrival/deadline to the wall-clock admission instant
//! ([`asets_core::table::TxnTable::rebase_arrival`]).
//!
//! The transaction *universe* (specs, dependency DAG, workflow indices) is
//! compiled up front and fixed for the soak — exactly like a prepared-
//! statement cache: the set of pages a server can serve is known; *when*
//! and *whether* each request is admitted is decided live. Shed jobs never
//! arrive, never touch the policy's queues (their workflows stay
//! non-schedulable), and are reported separately; this is what keeps
//! overload a bounded-queue regime instead of a miss-ratio collapse.
//!
//! Backpressure is the ring bound: a full ring rejects the push and the
//! generator decides — an open-loop generator drops (counted, a gate
//! failure at sane load), a closed-loop generator waits (its user thinks).
//!
//! Wall-clock mapping: `scale` simulated ticks per wall microsecond. The
//! default `scale = 1000` makes one simulated unit equal one wall
//! millisecond, so Table-I-style second-scale workloads compress ×1000
//! into interactive soaks.

use crate::engine::Pump;
use crate::events::{next_event, EventKind};
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::{TxnId, TxnSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bounded lock-free single-producer/single-consumer ring of job ids.
///
/// One generator thread pushes, the pump thread pops; both sides are
/// wait-free. The SPSC discipline is enforced by construction: the
/// front-end hands out exactly one (non-clonable) [`JobProducer`] per
/// ring, and only the pump drains.
#[derive(Debug)]
pub struct IngestRing {
    slots: Box<[AtomicU32]>,
    /// Consumer cursor (monotonic; slot = head % capacity).
    head: AtomicUsize,
    /// Producer cursor (monotonic; slot = tail % capacity).
    tail: AtomicUsize,
}

impl IngestRing {
    /// A ring holding up to `capacity` queued jobs.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> IngestRing {
        assert!(capacity > 0, "ring capacity must be positive");
        IngestRing {
            slots: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Queue capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: push `job`, or return `false` when the ring is full
    /// (backpressure — the producer chooses to drop or retry).
    pub fn push(&self, job: u32) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return false;
        }
        self.slots[tail % self.slots.len()].store(job, Ordering::Relaxed);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: pop the oldest queued job, if any.
    pub fn pop(&self) -> Option<u32> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let job = self.slots[head % self.slots.len()].load(Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(job)
    }

    /// True when nothing is queued (linearizable only from the consumer).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == self.tail.load(Ordering::Acquire)
    }
}

/// Where a job stands, as published on the [`JobBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Not yet seen by admission (unsubmitted, queued, or dropped at the
    /// ring).
    Pending,
    /// Admitted; some member transactions have not completed yet.
    Admitted,
    /// Every member transaction completed.
    Done,
    /// Rejected by admission control; its transactions will never run.
    Shed,
}

const STATUS_PENDING: u8 = 0;
const STATUS_ADMITTED: u8 = 1;
const STATUS_DONE: u8 = 2;
const STATUS_SHED: u8 = 3;

/// Shared job-completion scoreboard: the pump publishes admission and
/// completion transitions; closed-loop generators poll it to pace
/// sessions (think time starts when the page settles — done *or* shed).
#[derive(Debug)]
pub struct JobBoard {
    status: Box<[AtomicU8]>,
    remaining: Box<[AtomicU32]>,
}

impl JobBoard {
    fn new(job_count: &[u32]) -> JobBoard {
        JobBoard {
            status: job_count.iter().map(|_| AtomicU8::new(0)).collect(),
            remaining: job_count.iter().map(|&n| AtomicU32::new(n)).collect(),
        }
    }

    /// Number of jobs on the board.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// True iff the universe has no jobs.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// The job's current status.
    pub fn status(&self, job: u32) -> JobStatus {
        match self.status[job as usize].load(Ordering::Acquire) {
            STATUS_PENDING => JobStatus::Pending,
            STATUS_ADMITTED => JobStatus::Admitted,
            STATUS_DONE => JobStatus::Done,
            _ => JobStatus::Shed,
        }
    }

    /// True once the job can no longer change state: completed or shed.
    /// This is the closed-loop generator's wait condition.
    pub fn settled(&self, job: u32) -> bool {
        matches!(self.status(job), JobStatus::Done | JobStatus::Shed)
    }

    fn mark_admitted(&self, job: u32) {
        self.status[job as usize].store(STATUS_ADMITTED, Ordering::Release);
    }

    fn mark_shed(&self, job: u32) {
        self.status[job as usize].store(STATUS_SHED, Ordering::Release);
    }

    fn note_txn_done(&self, job: u32) {
        if self.remaining[job as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.status[job as usize].store(STATUS_DONE, Ordering::Release);
        }
    }
}

/// Live-loop counters, shared between the pump, the producers and the
/// reporter. All relaxed: they are telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct LiveStats {
    /// Jobs successfully pushed into a ring.
    pub submitted: AtomicU64,
    /// Jobs a producer dropped because its ring was full (open-loop
    /// overflow; closed-loop producers retry instead).
    pub dropped: AtomicU64,
    /// Jobs admitted.
    pub admitted: AtomicU64,
    /// Jobs shed because admitting them would exceed the in-flight bound.
    pub shed_overload: AtomicU64,
    /// Jobs shed because the backlog made their SLA infeasible.
    pub shed_infeasible: AtomicU64,
    /// Transactions delivered to the engine.
    pub delivered_txns: AtomicU64,
    /// Transactions completed.
    pub completed_txns: AtomicU64,
    /// Liveness heartbeats the pump injected while idle.
    pub heartbeats: AtomicU64,
    /// Highest in-flight transaction count ever admitted (must stay within
    /// the configured bound — the admission invariant tests pin this).
    pub peak_inflight: AtomicUsize,
}

/// A plain-data copy of [`LiveStats`] for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Jobs pushed into rings.
    pub submitted: u64,
    /// Jobs dropped at a full ring.
    pub dropped: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs shed for the in-flight bound.
    pub shed_overload: u64,
    /// Jobs shed as SLA-infeasible.
    pub shed_infeasible: u64,
    /// Transactions delivered.
    pub delivered_txns: u64,
    /// Transactions completed.
    pub completed_txns: u64,
    /// Idle heartbeats injected.
    pub heartbeats: u64,
    /// Peak in-flight transactions.
    pub peak_inflight: u64,
}

impl LiveStats {
    /// Read every counter (relaxed, point-in-time).
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            shed_infeasible: self.shed_infeasible.load(Ordering::Relaxed),
            delivered_txns: self.delivered_txns.load(Ordering::Relaxed),
            completed_txns: self.completed_txns.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            peak_inflight: self.peak_inflight.load(Ordering::Relaxed) as u64,
        }
    }
}

/// One admission-control rejection, with enough context to answer "why
/// was this job shed": which bound fired and how loaded the pump was at
/// the instant it fired. Admitted jobs are *not* logged (counters cover
/// them); sheds are rare and are exactly what post-mortems ask about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// The admission stamp (simulated time of the rejection).
    pub at: SimTime,
    /// The shed job.
    pub job: u32,
    /// First member transaction of the job.
    pub first_txn: TxnId,
    /// Member transaction count.
    pub txns: u32,
    /// `true`: the in-flight bound fired; `false`: the SLA-infeasibility
    /// shed fired.
    pub overload: bool,
    /// In-flight transactions at the rejection (what the job was priced
    /// against).
    pub inflight: u32,
}

/// Bounded shed-event log shared between the pump (writer) and the serve
/// harness (reader). Keeps the **last** `cap` events, flight-recorder
/// style; `total` keeps counting past evictions. The mutex is uncontended
/// in practice — sheds are rare and the reader polls.
#[derive(Debug)]
pub struct AdmissionLog {
    events: Mutex<VecDeque<AdmissionEvent>>,
    cap: usize,
    total: AtomicU64,
}

impl AdmissionLog {
    /// Default retained-event bound.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A log keeping the last `cap` shed events.
    pub fn new(cap: usize) -> AdmissionLog {
        assert!(cap > 0, "admission log needs a non-empty ring");
        AdmissionLog {
            events: Mutex::new(VecDeque::with_capacity(cap.min(256))),
            cap,
            total: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: AdmissionEvent) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(ev);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds ever logged (≥ retained; the difference was evicted).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<AdmissionEvent> {
        self.events.lock().unwrap().iter().copied().collect()
    }

    /// Assemble the flight-recorder ingest payload from this log plus the
    /// run's counters.
    pub fn stats(&self, snap: &LiveSnapshot) -> AdmissionStats {
        AdmissionStats {
            admitted: snap.admitted,
            ring_dropped: snap.dropped,
            shed_overload: snap.shed_overload,
            shed_infeasible: snap.shed_infeasible,
            events: self.snapshot(),
        }
    }
}

/// Admission telemetry in the shape `FlightRecorder::ingest_admission`
/// consumes: run-wide totals plus the retained shed events — the
/// admission-control counterpart of `RebalanceStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs dropped at a full ingest ring (never reached admission).
    pub ring_dropped: u64,
    /// Jobs shed by the in-flight bound.
    pub shed_overload: u64,
    /// Jobs shed as SLA-infeasible.
    pub shed_infeasible: u64,
    /// Retained shed events, oldest first.
    pub events: Vec<AdmissionEvent>,
}

/// The pre-compiled job/transaction universe of one soak: which contiguous
/// transaction range each job (page) owns, plus the aggregates admission
/// control prices against.
#[derive(Debug)]
pub struct LiveUniverse {
    job_first: Vec<u32>,
    job_count: Vec<u32>,
    /// `txn -> job`.
    job_of: Vec<u32>,
    /// Total service demand of the job (sum of member lengths).
    job_service: Vec<SimDuration>,
    /// Tightest member SLA width (`deadline − arrival`), the admission
    /// feasibility budget.
    job_sla: Vec<SimDuration>,
    txn_len: Vec<SimDuration>,
}

impl LiveUniverse {
    /// Build from the compiled specs and their job tiling: `jobs[i]` is
    /// `(first transaction id, member count)` of job `i`. Jobs must tile
    /// the spec range contiguously, in order — which is exactly what
    /// `asets-webdb`'s request compiler emits.
    ///
    /// # Panics
    /// If the tiling has gaps, overlaps, or does not cover every spec.
    pub fn new(specs: &[TxnSpec], jobs: &[(u32, u32)]) -> LiveUniverse {
        let mut job_first = Vec::with_capacity(jobs.len());
        let mut job_count = Vec::with_capacity(jobs.len());
        let mut job_service = Vec::with_capacity(jobs.len());
        let mut job_sla = Vec::with_capacity(jobs.len());
        let mut job_of = vec![0u32; specs.len()];
        let mut next = 0u32;
        for (j, &(first, count)) in jobs.iter().enumerate() {
            assert_eq!(first, next, "job {j} does not tile the spec range");
            assert!(count > 0, "job {j} is empty");
            let mut service = SimDuration::ZERO;
            let mut sla = SimDuration::MAX;
            for t in first..first + count {
                let spec = &specs[t as usize];
                service += spec.length;
                sla = sla.min(spec.deadline.saturating_since(spec.arrival));
                job_of[t as usize] = j as u32;
            }
            job_first.push(first);
            job_count.push(count);
            job_service.push(service);
            job_sla.push(sla);
            next = first + count;
        }
        assert_eq!(
            next as usize,
            specs.len(),
            "jobs must cover every compiled spec"
        );
        LiveUniverse {
            job_first,
            job_count,
            job_of,
            job_service,
            job_sla,
            txn_len: specs.iter().map(|s| s.length).collect(),
        }
    }

    /// Number of jobs.
    pub fn jobs(&self) -> usize {
        self.job_first.len()
    }

    /// Number of transactions.
    pub fn txns(&self) -> usize {
        self.txn_len.len()
    }

    /// The job owning transaction `t`.
    pub fn job_of(&self, t: TxnId) -> u32 {
        self.job_of[t.index()]
    }

    /// Total service demand of `job`.
    pub fn service(&self, job: u32) -> SimDuration {
        self.job_service[job as usize]
    }

    /// Tightest member SLA width of `job`.
    pub fn sla(&self, job: u32) -> SimDuration {
        self.job_sla[job as usize]
    }
}

/// Admission-control and pacing knobs for the live loop.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Simulated ticks per wall-clock microsecond (default `1000`: one
    /// simulated unit per wall millisecond).
    pub scale: u64,
    /// Server count the backlog estimate divides by (match the engine's
    /// pool size).
    pub servers: usize,
    /// Bound on in-flight (admitted, not yet completed) transactions; a
    /// job whose admission would exceed it is shed.
    pub max_inflight: usize,
    /// Shed jobs whose tightest SLA cannot be met even optimistically,
    /// given the current admitted backlog.
    pub shed_infeasible: bool,
    /// Longest the pump will block without returning a scheduling point —
    /// the liveness heartbeat that keeps SLO reporting flowing when idle.
    pub heartbeat: Duration,
    /// Sleep granularity while waiting for the wall clock.
    pub poll: Duration,
    /// Number of ingest rings (= max producer threads).
    pub rings: usize,
    /// Per-ring queued-job capacity.
    pub ring_capacity: usize,
    /// Smoothing factor of the EWMA over observed per-fragment service
    /// times that replaces the compiled-cost backlog estimate once warm.
    pub ewma_alpha: f64,
    /// Completions observed before the estimator trusts itself; until
    /// then the infeasibility shed prices against compiled costs.
    pub estimator_warmup: u64,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            scale: 1000,
            servers: 1,
            max_inflight: 4096,
            shed_infeasible: false,
            heartbeat: Duration::from_millis(100),
            poll: Duration::from_micros(200),
            rings: 1,
            ring_capacity: 1024,
            ewma_alpha: 0.2,
            estimator_warmup: 64,
        }
    }
}

/// Producer handle: one per ring, owned by one generator thread.
///
/// Dropping (or [`JobProducer::finish`]) retires the producer; when the
/// last producer retires, the pump sees shutdown and drains out.
#[derive(Debug)]
pub struct JobProducer {
    ring: Arc<IngestRing>,
    stats: Arc<LiveStats>,
    active: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    finished: bool,
}

impl JobProducer {
    /// Push `job`; `false` means the ring is full (backpressure). The
    /// caller decides the semantics: retry (closed loop — the user waits)
    /// or [`JobProducer::drop_job`] (open loop — arrivals don't wait).
    pub fn submit(&self, job: u32) -> bool {
        let ok = self.ring.push(job);
        if ok {
            self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Count `job` as dropped at the door (open-loop ring overflow).
    pub fn drop_job(&self, _job: u32) {
        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Retire this producer. The last retirement flips shutdown: the pump
    /// finishes draining and the engine loop ends cleanly.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shutdown.store(true, Ordering::Release);
        }
    }
}

impl Drop for JobProducer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Wall-clock [`Pump`]: scheduling points fire when the wall clock
/// reaches them, arrivals come from the ingest rings through admission
/// control, and an idle pump emits bounded-latency heartbeats so the SLO
/// reporter never stalls.
#[derive(Debug)]
pub struct LivePump {
    start: Instant,
    scale: u64,
    now: SimTime,
    last_event: SimTime,
    universe: Arc<LiveUniverse>,
    rings: Vec<Arc<IngestRing>>,
    board: Arc<JobBoard>,
    stats: Arc<LiveStats>,
    shutdown: Arc<AtomicBool>,
    cfg: LiveConfig,
    /// Admitted, not yet delivered: `(admission stamp, txn)`, stamp
    /// nondecreasing (drain order follows the wall clock).
    pending: VecDeque<(SimTime, TxnId)>,
    /// Admitted, not yet completed (transactions).
    inflight: usize,
    /// Service demand of the in-flight set — the backlog estimate the
    /// infeasibility shed prices against until the estimator is warm.
    inflight_service: SimDuration,
    /// EWMA of observed per-fragment service time, in time units.
    ewma_units: f64,
    /// Completions the estimator has seen.
    service_samples: u64,
    /// Shed-event log (shared with the serve harness via
    /// [`LiveFrontend::admissions`]).
    admissions: Arc<AdmissionLog>,
}

/// Everything the live loop needs, wired together: the pump (for the
/// engine), one producer per ring (for generator threads), and the shared
/// board/stats handles (for pacing and reporting).
#[derive(Debug)]
pub struct LiveFrontend {
    /// Wall-clock pump to build the engine with.
    pub pump: LivePump,
    /// One producer handle per ring; hand each to exactly one generator
    /// thread.
    pub producers: Vec<JobProducer>,
    /// Job scoreboard (closed-loop pacing, tests).
    pub board: Arc<JobBoard>,
    /// Live counters (reporting, gates).
    pub stats: Arc<LiveStats>,
    /// The compiled universe (aggregates, membership).
    pub universe: Arc<LiveUniverse>,
    /// Shed-event log — feed [`AdmissionLog::stats`] into
    /// `FlightRecorder::ingest_admission` after the run so `asets-obs why`
    /// can explain sheds the same way it explains dispatches.
    pub admissions: Arc<AdmissionLog>,
}

impl LiveFrontend {
    /// Wire a live front-end over a compiled universe. `jobs` is the
    /// `(first txn, count)` tiling (see [`LiveUniverse::new`]).
    pub fn new(specs: &[TxnSpec], jobs: &[(u32, u32)], cfg: LiveConfig) -> LiveFrontend {
        assert!(cfg.scale > 0, "scale must be positive");
        assert!(cfg.servers > 0, "servers must be positive");
        assert!(cfg.rings > 0, "need at least one ring");
        let universe = Arc::new(LiveUniverse::new(specs, jobs));
        let board = Arc::new(JobBoard::new(&universe.job_count));
        let stats = Arc::new(LiveStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(cfg.rings));
        let rings: Vec<Arc<IngestRing>> = (0..cfg.rings)
            .map(|_| Arc::new(IngestRing::new(cfg.ring_capacity)))
            .collect();
        let producers = rings
            .iter()
            .map(|ring| JobProducer {
                ring: Arc::clone(ring),
                stats: Arc::clone(&stats),
                active: Arc::clone(&active),
                shutdown: Arc::clone(&shutdown),
                finished: false,
            })
            .collect();
        let admissions = Arc::new(AdmissionLog::new(AdmissionLog::DEFAULT_CAPACITY));
        let pump = LivePump {
            start: Instant::now(),
            scale: cfg.scale,
            now: SimTime::ZERO,
            last_event: SimTime::ZERO,
            universe: Arc::clone(&universe),
            rings,
            board: Arc::clone(&board),
            stats: Arc::clone(&stats),
            shutdown,
            cfg,
            pending: VecDeque::new(),
            inflight: 0,
            inflight_service: SimDuration::ZERO,
            ewma_units: 0.0,
            service_samples: 0,
            admissions: Arc::clone(&admissions),
        };
        LiveFrontend {
            pump,
            producers,
            board,
            stats,
            universe,
            admissions,
        }
    }
}

impl LivePump {
    /// The wall clock mapped into simulated time.
    fn wall_now(&self) -> SimTime {
        let micros = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        SimTime::from_ticks(micros.saturating_mul(self.scale))
    }

    /// Wall sleep needed for the clock to reach simulated `t`.
    fn wall_gap(&self, t: SimTime) -> Duration {
        let ticks = t.saturating_since(self.wall_now()).ticks();
        Duration::from_micros(ticks / self.scale)
    }

    /// Drain every ring through admission control, stamping admitted
    /// transactions with the current wall instant.
    fn drain_rings(&mut self) {
        let stamp = self.wall_now().max(self.now);
        for i in 0..self.rings.len() {
            while let Some(job) = self.rings[i].pop() {
                self.admit_or_shed(job, stamp);
            }
        }
    }

    /// Admission control for one job: bounded in-flight first, then the
    /// optional SLA-infeasibility shed, then admit.
    fn admit_or_shed(&mut self, job: u32, stamp: SimTime) {
        let count = self.universe.job_count[job as usize] as usize;
        let service = self.universe.job_service[job as usize];
        if self.inflight + count > self.cfg.max_inflight {
            self.board.mark_shed(job);
            self.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
            self.log_shed(job, stamp, true);
            return;
        }
        if self.cfg.shed_infeasible {
            // Optimistic response-time estimate: the admitted backlog
            // spread over the pool, plus this job's own demand. If even
            // that exceeds the job's tightest SLA, admitting it only
            // buys a guaranteed miss that delays feasible work. Once the
            // completion-fed EWMA is warm it replaces compiled costs —
            // the estimator tracks the service times the pool actually
            // delivers, so a biased cost model stops steering admission.
            let infeasible = if self.service_samples >= self.cfg.estimator_warmup {
                let estimate = (self.inflight as f64 / self.cfg.servers as f64 + count as f64)
                    * self.ewma_units;
                estimate > self.universe.job_sla[job as usize].as_units()
            } else {
                let estimate = self.inflight_service / self.cfg.servers as u64 + service;
                estimate > self.universe.job_sla[job as usize]
            };
            if infeasible {
                self.board.mark_shed(job);
                self.stats.shed_infeasible.fetch_add(1, Ordering::Relaxed);
                self.log_shed(job, stamp, false);
                return;
            }
        }
        let first = self.universe.job_first[job as usize];
        for t in first..first + count as u32 {
            self.pending.push_back((stamp, TxnId(t)));
        }
        self.inflight += count;
        self.inflight_service += service;
        self.stats
            .peak_inflight
            .fetch_max(self.inflight, Ordering::Relaxed);
        self.board.mark_admitted(job);
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
    }

    fn log_shed(&self, job: u32, stamp: SimTime, overload: bool) {
        self.admissions.push(AdmissionEvent {
            at: stamp,
            job,
            first_txn: TxnId(self.universe.job_first[job as usize]),
            txns: self.universe.job_count[job as usize],
            overload,
            inflight: self.inflight as u32,
        });
    }

    fn rings_empty(&self) -> bool {
        self.rings.iter().all(|r| r.is_empty())
    }

    /// Shared stats handle (reporting).
    pub fn stats(&self) -> Arc<LiveStats> {
        Arc::clone(&self.stats)
    }

    /// In-flight (admitted, not completed) transactions right now.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// The completion-fed per-fragment service estimate, once warm
    /// (`None` while admission still prices against compiled costs).
    pub fn estimated_service(&self) -> Option<SimDuration> {
        (self.service_samples >= self.cfg.estimator_warmup)
            .then(|| SimDuration::from_units(self.ewma_units))
    }
}

impl Pump for LivePump {
    const REAL_TIME: bool = true;

    fn now(&self) -> SimTime {
        self.now
    }

    /// Block until the next scheduling point is *due on the wall clock*:
    /// the earliest of the pool's completion, the oldest admitted arrival
    /// and the policy wake-up, with rings re-drained on every poll so a
    /// fresh ingest can preempt a far-future completion — the same
    /// event-preemptive semantics as the simulator, at wall granularity.
    /// Returns a synthetic heartbeat after `cfg.heartbeat` without an
    /// event (keeping the serve loop's reporting live), and `None` only
    /// when every producer retired and everything drained.
    fn next_point(
        &mut self,
        completion: Option<SimTime>,
        wakeup: Option<SimTime>,
    ) -> Option<(SimTime, EventKind)> {
        let entered = Instant::now();
        loop {
            self.drain_rings();
            let arrival = self.pending.front().map(|&(t, _)| t);
            let candidate = next_event(completion, arrival, wakeup);
            let wall = self.wall_now();
            match candidate {
                Some((t, kind)) if t <= wall => return Some((t, kind)),
                None => {
                    if self.shutdown.load(Ordering::Acquire)
                        && self.pending.is_empty()
                        && self.rings_empty()
                    {
                        return None;
                    }
                }
                Some(_) => {}
            }
            if entered.elapsed() >= self.cfg.heartbeat {
                self.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                return Some((wall.max(self.now), EventKind::Wakeup));
            }
            let sleep = match candidate {
                Some((t, _)) => self.wall_gap(t).min(self.cfg.poll),
                None => self.cfg.poll,
            };
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
        }
    }

    fn advance(&mut self, t: SimTime) -> SimDuration {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        let gap = t - self.last_event;
        self.last_event = t;
        gap
    }

    fn take_due_into(&mut self, due: &mut Vec<TxnId>) {
        while let Some(&(stamp, id)) = self.pending.front() {
            if stamp > self.now {
                break;
            }
            due.push(id);
            self.pending.pop_front();
            self.stats.delivered_txns.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn exhausted(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) && self.pending.is_empty() && self.rings_empty()
    }

    fn note_completed(&mut self, t: TxnId) {
        self.inflight -= 1;
        let served = self.universe.txn_len[t.index()];
        self.inflight_service = self.inflight_service.saturating_sub(served);
        // Feed the admission estimator: every completion is one observed
        // per-fragment service time.
        self.service_samples += 1;
        if self.service_samples == 1 {
            self.ewma_units = served.as_units();
        } else {
            self.ewma_units += self.cfg.ewma_alpha * (served.as_units() - self.ewma_units);
        }
        self.board.note_txn_done(self.universe.job_of(t));
        self.stats.completed_txns.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ind, units};

    fn cfg(max_inflight: usize, shed_infeasible: bool) -> LiveConfig {
        LiveConfig {
            max_inflight,
            shed_infeasible,
            ..LiveConfig::default()
        }
    }

    /// Three 2-txn jobs: lengths 1+2, SLA widths 10.
    fn universe() -> (Vec<asets_core::txn::TxnSpec>, Vec<(u32, u32)>) {
        let specs = (0..3)
            .flat_map(|_| [ind(0, 10, 1), ind(0, 10, 2)])
            .collect();
        (specs, vec![(0, 2), (2, 2), (4, 2)])
    }

    #[test]
    fn ring_wraps_and_preserves_fifo() {
        let ring = IngestRing::new(2);
        assert!(ring.push(1));
        assert!(ring.push(2));
        assert_eq!(ring.pop(), Some(1));
        assert!(ring.push(3), "slot freed by pop is reusable");
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn full_ring_rejects_push() {
        let ring = IngestRing::new(2);
        assert!(ring.push(1));
        assert!(ring.push(2));
        assert!(!ring.push(3), "bounded: third push must be refused");
        ring.pop();
        assert!(ring.push(3), "accepts again after a pop");
    }

    #[test]
    fn producer_counts_submissions_and_drops() {
        let (specs, jobs) = universe();
        let mut fe = LiveFrontend::new(
            &specs,
            &jobs,
            LiveConfig {
                ring_capacity: 1,
                ..cfg(100, false)
            },
        );
        let p = &fe.producers[0];
        assert!(p.submit(0));
        assert!(!p.submit(1), "capacity-1 ring is full");
        p.drop_job(1);
        let s = fe.stats.snapshot();
        assert_eq!((s.submitted, s.dropped), (1, 1));
        fe.pump.drain_rings();
        assert_eq!(fe.stats.snapshot().admitted, 1);
    }

    #[test]
    fn admission_bounds_inflight_and_sheds_overload() {
        let (specs, jobs) = universe();
        // Bound of 4 transactions: two 2-txn jobs fit, the third is shed.
        let mut fe = LiveFrontend::new(&specs, &jobs, cfg(4, false));
        for j in 0..3 {
            assert!(fe.producers[0].submit(j));
        }
        fe.pump.drain_rings();
        let s = fe.stats.snapshot();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed_overload, 1);
        assert_eq!(fe.pump.inflight(), 4);
        assert!(s.peak_inflight <= 4, "bounded in-flight invariant");
        assert_eq!(fe.board.status(2), JobStatus::Shed);
        assert!(fe.board.settled(2), "shed settles the job for sessions");
        assert_eq!(fe.board.status(0), JobStatus::Admitted);
    }

    #[test]
    fn infeasible_jobs_are_shed_under_backlog() {
        let (_, jobs) = universe();
        // Same tiling, tighter deadlines: each job demands 3 units of
        // service against a 4-unit SLA width.
        let tight: Vec<_> = (0..3).flat_map(|_| [ind(0, 4, 1), ind(0, 4, 2)]).collect();
        let mut fe = LiveFrontend::new(&tight, &jobs, cfg(100, true));
        for j in 0..3 {
            assert!(fe.producers[0].submit(j));
        }
        fe.pump.drain_rings();
        let s = fe.stats.snapshot();
        // SLA width 4: job 0 admits (0 + 3 <= 4); job 1 sees 3 + 3 > 4 and
        // is shed, as is job 2.
        assert_eq!(s.admitted, 1);
        assert_eq!(s.shed_infeasible, 2);
        assert_eq!(fe.board.status(1), JobStatus::Shed);
    }

    #[test]
    fn completion_feedback_releases_admission_budget() {
        let (specs, jobs) = universe();
        let mut fe = LiveFrontend::new(&specs, &jobs, cfg(2, false));
        assert!(fe.producers[0].submit(0));
        fe.pump.drain_rings();
        assert_eq!(fe.pump.inflight(), 2);
        // Completing both members frees the budget and settles the job.
        fe.pump.note_completed(TxnId(0));
        fe.pump.note_completed(TxnId(1));
        assert_eq!(fe.pump.inflight(), 0);
        assert_eq!(fe.board.status(0), JobStatus::Done);
        assert!(fe.producers[0].submit(1));
        fe.pump.drain_rings();
        assert_eq!(fe.stats.snapshot().shed_overload, 0);
    }

    #[test]
    fn last_producer_retirement_flips_shutdown() {
        let (specs, jobs) = universe();
        let fe = LiveFrontend::new(
            &specs,
            &jobs,
            LiveConfig {
                rings: 2,
                ..cfg(100, false)
            },
        );
        let mut producers = fe.producers;
        let pump = fe.pump;
        assert!(!pump.exhausted());
        producers[0].finish();
        assert!(!pump.exhausted(), "one producer still active");
        producers[1].finish();
        assert!(pump.exhausted(), "all retired, nothing buffered");
    }

    #[test]
    fn delivery_follows_admission_stamps() {
        let (specs, jobs) = universe();
        let mut fe = LiveFrontend::new(&specs, &jobs, cfg(100, false));
        assert!(fe.producers[0].submit(1));
        fe.pump.drain_rings();
        let stamp = fe.pump.pending.front().unwrap().0;
        fe.pump.advance(stamp);
        let mut due = Vec::new();
        fe.pump.take_due_into(&mut due);
        assert_eq!(due, vec![TxnId(2), TxnId(3)], "job 1 owns txns 2..4");
        assert_eq!(fe.stats.snapshot().delivered_txns, 2);
    }

    #[test]
    fn universe_aggregates_are_per_job() {
        let (specs, jobs) = universe();
        let u = LiveUniverse::new(&specs, &jobs);
        assert_eq!(u.jobs(), 3);
        assert_eq!(u.txns(), 6);
        assert_eq!(u.service(0), units(3));
        assert_eq!(u.sla(0), units(10));
        assert_eq!(u.job_of(TxnId(5)), 2);
    }
}
