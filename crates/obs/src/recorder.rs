//! The flight recorder: a bounded ring of recent scheduler events plus a
//! [`MetricsRegistry`], dumpable on demand or on panic.
//!
//! Attach one recorder to an engine (`Engine::with_observer`) and it
//! captures, in one ordered stream: decision records with full Eq. 1 /
//! Fig. 7 provenance, list-migration events, and dispatches. The ring keeps
//! the **last** `capacity` events — like an aircraft flight recorder, the
//! interesting part of a crashed run is the tail — while the counters and
//! histograms aggregate over the *whole* run regardless of ring evictions.
//! Every event carries a global sequence number, so a truncated dump is
//! self-describing (`seq` gaps at the front, never in the middle).

use crate::json::JsonObject;
use crate::metrics::MetricsRegistry;
use asets_core::obs::{DecisionRecord, MigrationEvent, MigrationSubject, Observer};
use asets_core::time::SimTime;
use asets_core::txn::TxnId;
use asets_sim::{AdmissionEvent, AdmissionStats, BacklogSeries, RebalanceEvent, RebalanceStats};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Decision-latency buckets (nanoseconds). `select` on the indexed policy
/// is sub-microsecond; the tail buckets exist to catch pathological cases.
pub const LATENCY_NS_BOUNDS: [u64; 11] = [
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// List-length / queue-depth buckets (entries).
pub const LIST_LEN_BOUNDS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// One event in the recorder's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordedEvent {
    /// A scheduling decision with provenance.
    Decision(DecisionRecord),
    /// A list migration.
    Migration(MigrationEvent),
    /// The server switched to `txn` (engine-level event).
    Dispatch {
        /// When.
        at: SimTime,
        /// The transaction handed the server.
        txn: TxnId,
        /// The transaction that lost the server mid-work, if any.
        preempted: Option<TxnId>,
    },
    /// A cross-shard rebalancing action from a rebalanced sharded run —
    /// ingested post-run via [`FlightRecorder::ingest_rebalance`].
    Rebalance(RebalanceEvent),
    /// An admission-control shed from a live-path run — ingested via
    /// [`FlightRecorder::ingest_admission`].
    Admission(AdmissionEvent),
}

impl RecordedEvent {
    /// The simulation instant of the event.
    pub fn at(&self) -> SimTime {
        match self {
            RecordedEvent::Decision(r) => r.at,
            RecordedEvent::Migration(m) => m.at,
            RecordedEvent::Dispatch { at, .. } => *at,
            RecordedEvent::Rebalance(
                RebalanceEvent::Migration { at, .. } | RebalanceEvent::Steal { at, .. },
            ) => *at,
            RecordedEvent::Admission(a) => a.at,
        }
    }
}

/// Bounded-ring observer with run-wide metrics.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<(u64, RecordedEvent)>,
    metrics: MetricsRegistry,
    shard: Option<u32>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring size: generous for paper-scale runs (a 5000-transaction
    /// batch emits ~3 events per scheduling point), bounded for sweeps.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Recorder keeping the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder needs a non-empty ring");
        let mut metrics = MetricsRegistry::new();
        metrics.register_histogram("decision_latency_ns", &LATENCY_NS_BOUNDS);
        metrics.register_histogram("edf_list_len", &LIST_LEN_BOUNDS);
        metrics.register_histogram("hdf_list_len", &LIST_LEN_BOUNDS);
        metrics.register_histogram("queue_depth_ready", &LIST_LEN_BOUNDS);
        FlightRecorder {
            capacity,
            next_seq: 0,
            ring: VecDeque::with_capacity(capacity.min(1024)),
            metrics,
            shard: None,
        }
    }

    /// Stamp every dumped event line and metric export with a shard label.
    /// Used by the sharded runtime, which gives each shard its own recorder
    /// (`ShardedRuntime::run_observed`) so streams from different shards
    /// stay distinguishable after concatenation.
    pub fn with_shard(mut self, shard: u32) -> FlightRecorder {
        self.shard = Some(shard);
        self
    }

    /// The shard label, if this recorder belongs to a sharded run.
    pub fn shard(&self) -> Option<u32> {
        self.shard
    }

    /// Convenience: a shareable recorder ready for `Engine::with_observer`
    /// (pass `asets_core::obs::share(&rc)` and keep the `Rc` to inspect).
    pub fn shared(capacity: usize) -> Rc<RefCell<FlightRecorder>> {
        Rc::new(RefCell::new(FlightRecorder::new(capacity)))
    }

    fn push(&mut self, ev: RecordedEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((self.next_seq, ev));
        self.next_seq += 1;
    }

    /// Events currently in the ring, oldest first, with sequence numbers.
    pub fn events(&self) -> impl Iterator<Item = (u64, &RecordedEvent)> {
        self.ring.iter().map(|(s, e)| (*s, e))
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded (or everything evicted — impossible,
    /// eviction only happens by insertion).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever observed (≥ `len()`; the difference was evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// The run-wide metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Rewrite shard-local transaction ids to global ids, so per-shard
    /// recorders from `ShardedRuntime::run_observed` can be dumped into one
    /// stream that speaks the global id space (workflow ids stay
    /// shard-local; the shard label disambiguates them).
    pub fn remap_txns(&mut self, to_global: &[TxnId]) {
        let g = |t: TxnId| to_global[t.0 as usize];
        for (_, ev) in &mut self.ring {
            match ev {
                RecordedEvent::Decision(r) => {
                    r.chosen = g(r.chosen);
                    if let Some(c) = &mut r.edf {
                        c.txn = g(c.txn);
                    }
                    if let Some(c) = &mut r.hdf {
                        c.txn = g(c.txn);
                    }
                }
                RecordedEvent::Migration(m) => {
                    if let MigrationSubject::Txn(t) = &mut m.subject {
                        *t = g(*t);
                    }
                }
                RecordedEvent::Dispatch { txn, preempted, .. } => {
                    *txn = g(*txn);
                    *preempted = preempted.map(g);
                }
                // Rebalance and admission events come from the rebalanced
                // runtime / live front-end, which already speak global
                // ids — nothing to rewrite.
                RecordedEvent::Rebalance(_) | RecordedEvent::Admission(_) => {}
            }
        }
    }

    /// Fold a run's backlog series into the `queue_depth_ready` histogram
    /// (the engine samples it; the recorder just aggregates).
    pub fn ingest_backlog(&mut self, series: &BacklogSeries) {
        for s in &series.samples {
            self.metrics.observe("queue_depth_ready", s.ready as u64);
        }
    }

    /// Fold a rebalanced run's telemetry into the recorder:
    /// the run-wide totals become counters, the movement log becomes ring
    /// events (interleaved with whatever the run recorded live, in
    /// ingestion order — sequence numbers keep the provenance honest).
    pub fn ingest_rebalance(&mut self, stats: &RebalanceStats) {
        self.metrics
            .add("rebalance_migration_rounds", stats.migration_rounds);
        self.metrics
            .add("rebalance_migrated_components", stats.migrated_components);
        self.metrics
            .add("rebalance_migrated_txns", stats.migrated_txns);
        self.metrics
            .add("rebalance_migrated_work_ticks", stats.migrated_work);
        self.metrics.add("rebalance_steals", stats.steals);
        self.metrics
            .add("rebalance_steal_requests", stats.steal_requests);
        self.metrics.add("rebalance_barriers", stats.barriers);
        for e in &stats.events {
            self.push(RecordedEvent::Rebalance(*e));
        }
    }

    /// Fold a live run's admission telemetry into the recorder, mirroring
    /// [`FlightRecorder::ingest_rebalance`]: totals become counters, shed
    /// events become ring events, so `asets-obs why` can answer for a
    /// transaction that never ran because its job was turned away.
    pub fn ingest_admission(&mut self, stats: &AdmissionStats) {
        self.metrics.add("admission_admitted_jobs", stats.admitted);
        self.metrics
            .add("admission_ring_dropped_jobs", stats.ring_dropped);
        self.metrics
            .add("admission_shed_overload_jobs", stats.shed_overload);
        self.metrics
            .add("admission_shed_infeasible_jobs", stats.shed_infeasible);
        for e in &stats.events {
            self.push(RecordedEvent::Admission(*e));
        }
    }

    /// Serialize the ring as JSON lines (see `analysis::Dump` for the
    /// reader). One flat object per event; candidates are inlined with
    /// `edf_`/`hdf_` prefixes. Recorders stamped via
    /// [`FlightRecorder::with_shard`] add a `shard` field to every line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (seq, ev) in self.events() {
            out.push_str(&event_line_labeled(seq, ev, self.shard));
            out.push('\n');
        }
        out
    }

    /// Write [`FlightRecorder::dump`] to `path`.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.dump())
    }

    /// Write the metrics in Prometheus text format to `path`. A shard label
    /// set via [`FlightRecorder::with_shard`] is attached to every series.
    pub fn metrics_prometheus_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.metrics.to_prometheus_labeled(self.label()))
    }

    /// Write the metrics as JSON lines to `path`, shard-labeled when set.
    pub fn metrics_jsonl_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.metrics.to_jsonl_labeled(self.label()))
    }

    fn label(&self) -> Option<(&'static str, String)> {
        self.shard.map(|s| ("shard", s.to_string()))
    }
}

/// Concatenate several shard recorders' dumps into one stream — each line
/// already carries its recorder's `shard` field, so the result is a single
/// self-describing file (`asets-obs` filters on `shard` to split it back).
pub fn dump_sharded(recorders: &[FlightRecorder]) -> String {
    recorders.iter().map(|r| r.dump()).collect()
}

impl Observer for FlightRecorder {
    fn decision(&mut self, rec: &DecisionRecord) {
        self.metrics.inc("decisions_total");
        if rec.is_comparison() {
            self.metrics.inc("comparisons_total");
        }
        self.metrics.observe("edf_list_len", rec.edf_len as u64);
        self.metrics.observe("hdf_list_len", rec.hdf_len as u64);
        self.push(RecordedEvent::Decision(*rec));
    }

    fn migration(&mut self, ev: &MigrationEvent) {
        self.metrics.inc(if ev.to_hdf {
            "migrations_to_hdf_total"
        } else {
            "migrations_to_edf_total"
        });
        self.push(RecordedEvent::Migration(*ev));
    }

    fn sched_point(&mut self, _at: SimTime, latency_ns: u64) {
        self.metrics.inc("sched_points_total");
        self.metrics.observe("decision_latency_ns", latency_ns);
    }

    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        self.metrics.inc("dispatches_total");
        if preempted.is_some() {
            self.metrics.inc("preemptions_total");
        }
        self.push(RecordedEvent::Dispatch { at, txn, preempted });
    }
}

/// Serialize one ring event as a flat JSON line (no trailing newline).
pub fn event_line(seq: u64, ev: &RecordedEvent) -> String {
    event_line_labeled(seq, ev, None)
}

/// [`event_line`] with an optional shard label appended as a `shard` field.
pub fn event_line_labeled(seq: u64, ev: &RecordedEvent, shard: Option<u32>) -> String {
    let line = event_line_inner(seq, ev);
    match shard {
        // Lines are flat `{...}` objects; splice the label before the brace.
        Some(s) => format!("{},\"shard\":{s}}}", &line[..line.len() - 1]),
        None => line,
    }
}

fn event_line_inner(seq: u64, ev: &RecordedEvent) -> String {
    match ev {
        RecordedEvent::Decision(r) => {
            let mut obj = JsonObject::new()
                .str("kind", "decision")
                .int("seq", seq as i128)
                .int("at", r.at.ticks() as i128)
                .str("rule", r.rule.token())
                .str("winner", r.winner.token())
                .int("chosen", r.chosen.0 as i128)
                .int("impact_edf", r.impact_edf)
                .int("impact_hdf", r.impact_hdf)
                .int("edf_len", r.edf_len as i128)
                .int("hdf_len", r.hdf_len as i128);
            for (prefix, cand) in [("edf", &r.edf), ("hdf", &r.hdf)] {
                let Some(c) = cand else { continue };
                obj = obj
                    .int(&format!("{prefix}_txn"), c.txn.0 as i128)
                    .int(&format!("{prefix}_r"), c.r.ticks() as i128)
                    .int(&format!("{prefix}_slack"), c.slack.ticks())
                    .int(&format!("{prefix}_weight"), c.weight as i128)
                    .int(&format!("{prefix}_deadline"), c.deadline.ticks() as i128);
                if let Some(w) = c.workflow {
                    obj = obj.int(&format!("{prefix}_wf"), w.0 as i128);
                }
            }
            obj.finish()
        }
        RecordedEvent::Migration(m) => {
            let obj = JsonObject::new()
                .str("kind", "migration")
                .int("seq", seq as i128)
                .int("at", m.at.ticks() as i128)
                .bool("to_hdf", m.to_hdf);
            match m.subject {
                MigrationSubject::Workflow(w) => obj.int("wf", w.0 as i128).finish(),
                MigrationSubject::Txn(t) => obj.int("txn", t.0 as i128).finish(),
            }
        }
        RecordedEvent::Dispatch { at, txn, preempted } => {
            let obj = JsonObject::new()
                .str("kind", "dispatch")
                .int("seq", seq as i128)
                .int("at", at.ticks() as i128)
                .int("txn", txn.0 as i128);
            match preempted {
                Some(p) => obj.int("preempted", p.0 as i128).finish(),
                None => obj.finish(),
            }
        }
        RecordedEvent::Rebalance(e) => match *e {
            RebalanceEvent::Migration {
                at,
                key,
                from,
                to,
                txns,
                work_ticks,
            } => JsonObject::new()
                .str("kind", "rebalance")
                .str("action", "migration")
                .int("seq", seq as i128)
                .int("at", at.ticks() as i128)
                .int("key", key as i128)
                .int("from", from as i128)
                .int("to", to as i128)
                .int("txns", txns as i128)
                .int("work_ticks", work_ticks as i128)
                .finish(),
            RebalanceEvent::Steal {
                at,
                txn,
                from,
                to,
                requested_at,
                granted_at,
            } => JsonObject::new()
                .str("kind", "rebalance")
                .str("action", "steal")
                .int("seq", seq as i128)
                .int("at", at.ticks() as i128)
                .int("txn", txn.0 as i128)
                .int("from", from as i128)
                .int("to", to as i128)
                .int("requested_at", requested_at.ticks() as i128)
                .int("granted_at", granted_at.ticks() as i128)
                .finish(),
        },
        RecordedEvent::Admission(a) => JsonObject::new()
            .str("kind", "admission")
            .str("reason", if a.overload { "overload" } else { "infeasible" })
            .int("seq", seq as i128)
            .int("at", a.at.ticks() as i128)
            .int("job", a.job as i128)
            .int("txn", a.first_txn.0 as i128)
            .int("txns", a.txns as i128)
            .int("inflight", a.inflight as i128)
            .finish(),
    }
}

/// Dump-on-panic guard: holds a recorder handle and a target path; if the
/// thread is panicking when the guard drops, the ring and metrics are
/// written out so the last decisions before the crash survive.
///
/// ```no_run
/// use asets_obs::{FlightRecorder, PanicDump};
/// let rec = FlightRecorder::shared(1024);
/// let _guard = PanicDump::new(rec.clone(), "flight-crash.jsonl");
/// // ... drive an engine; on panic, flight-crash.jsonl appears ...
/// ```
#[derive(Debug)]
pub struct PanicDump {
    recorder: Rc<RefCell<FlightRecorder>>,
    path: PathBuf,
}

impl PanicDump {
    /// Arm the guard.
    pub fn new(recorder: Rc<RefCell<FlightRecorder>>, path: impl Into<PathBuf>) -> PanicDump {
        PanicDump {
            recorder,
            path: path.into(),
        }
    }
}

impl Drop for PanicDump {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // A poisoned-borrow or I/O failure must not turn a panic into an
        // abort; best-effort only.
        if let Ok(rec) = self.recorder.try_borrow() {
            if rec.dump_to(&self.path).is_ok() {
                eprintln!(
                    "flight recorder: dumped {} events to {}",
                    rec.len(),
                    self.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_core::obs::{Candidate, DecisionRule, Winner};
    use asets_core::time::{SimDuration, Slack};
    use asets_sim::BacklogSample;

    fn decision(at: u64, chosen: u32) -> DecisionRecord {
        DecisionRecord {
            at: SimTime::from_units_int(at),
            rule: DecisionRule::Eq1,
            edf: Some(Candidate {
                txn: TxnId(chosen),
                workflow: None,
                r: SimDuration::from_units_int(2),
                slack: Slack::from_ticks(-7),
                weight: 1,
                deadline: SimTime::from_units_int(9),
            }),
            hdf: None,
            impact_edf: 0,
            impact_hdf: 0,
            winner: Winner::OnlyEdf,
            chosen: TxnId(chosen),
            edf_len: 1,
            hdf_len: 0,
        }
    }

    #[test]
    fn ring_keeps_the_tail() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.decision(&decision(i, i as u32));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.total_recorded(), 5);
        let seqs: Vec<u64> = rec.events().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order preserved");
        assert_eq!(rec.metrics().counter("decisions_total"), 5);
    }

    #[test]
    fn metrics_classify_events() {
        let mut rec = FlightRecorder::new(16);
        rec.sched_point(SimTime::ZERO, 700);
        rec.dispatched(SimTime::ZERO, TxnId(0), None);
        rec.dispatched(SimTime::from_units_int(1), TxnId(1), Some(TxnId(0)));
        rec.migration(&MigrationEvent {
            at: SimTime::ZERO,
            subject: MigrationSubject::Txn(TxnId(0)),
            to_hdf: true,
        });
        let m = rec.metrics();
        assert_eq!(m.counter("sched_points_total"), 1);
        assert_eq!(m.counter("dispatches_total"), 2);
        assert_eq!(m.counter("preemptions_total"), 1);
        assert_eq!(m.counter("migrations_to_hdf_total"), 1);
        assert_eq!(m.counter("migrations_to_edf_total"), 0);
        // 700ns lands in the le=1000 bucket.
        let h = m.histogram("decision_latency_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_le(0.5), Some(1_000));
    }

    #[test]
    fn backlog_ingestion_fills_queue_depth() {
        let mut rec = FlightRecorder::new(4);
        let series = BacklogSeries {
            samples: vec![
                BacklogSample {
                    at: SimTime::ZERO,
                    ready: 3,
                    blocked: 1,
                    infeasible: 0,
                },
                BacklogSample {
                    at: SimTime::from_units_int(1),
                    ready: 10,
                    blocked: 0,
                    infeasible: 5,
                },
            ],
        };
        rec.ingest_backlog(&series);
        let h = rec.metrics().histogram("queue_depth_ready").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 13);
    }

    #[test]
    fn dump_lines_parse_back() {
        let mut rec = FlightRecorder::new(8);
        rec.decision(&decision(1, 4));
        rec.dispatched(SimTime::from_units_int(1), TxnId(4), Some(TxnId(2)));
        let dump = rec.dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        let d = crate::json::parse_flat(lines[0]).unwrap();
        assert_eq!(d.str("kind"), Some("decision"));
        assert_eq!(d.int("chosen"), Some(4));
        assert_eq!(d.int("edf_slack"), Some(-7));
        assert_eq!(d.str("rule"), Some("eq1"));
        let p = crate::json::parse_flat(lines[1]).unwrap();
        assert_eq!(p.str("kind"), Some("dispatch"));
        assert_eq!(p.int("preempted"), Some(2));
    }

    #[test]
    fn rebalance_telemetry_ingests_as_counters_and_ring_events() {
        use asets_sim::RebalanceStats;
        let mut rec = FlightRecorder::new(8);
        let stats = RebalanceStats {
            migration_rounds: 1,
            migrated_components: 1,
            migrated_txns: 3,
            migrated_work: 40,
            steals: 1,
            steal_requests: 1,
            barriers: 4,
            events: vec![
                RebalanceEvent::Migration {
                    at: SimTime::from_units_int(10),
                    key: 2,
                    from: 1,
                    to: 0,
                    txns: 3,
                    work_ticks: 40,
                },
                RebalanceEvent::Steal {
                    at: SimTime::from_units_int(12),
                    txn: TxnId(7),
                    from: 1,
                    to: 0,
                    requested_at: SimTime::from_units_int(11),
                    granted_at: SimTime::from_units_int(12),
                },
            ],
        };
        rec.ingest_rebalance(&stats);
        assert_eq!(rec.metrics().counter("rebalance_migrated_txns"), 3);
        assert_eq!(rec.metrics().counter("rebalance_steals"), 1);
        assert_eq!(rec.metrics().counter("rebalance_steal_requests"), 1);
        assert_eq!(rec.metrics().counter("rebalance_barriers"), 4);
        assert_eq!(rec.len(), 2);
        let dump = rec.dump();
        let lines: Vec<&str> = dump.lines().collect();
        let m = crate::json::parse_flat(lines[0]).unwrap();
        assert_eq!(m.str("kind"), Some("rebalance"));
        assert_eq!(m.str("action"), Some("migration"));
        assert_eq!(m.int("work_ticks"), Some(40));
        let s = crate::json::parse_flat(lines[1]).unwrap();
        assert_eq!(s.str("action"), Some("steal"));
        assert_eq!(s.int("txn"), Some(7));
    }

    #[test]
    fn admission_telemetry_ingests_as_counters_and_ring_events() {
        use asets_sim::AdmissionStats;
        let mut rec = FlightRecorder::new(8);
        rec.ingest_admission(&AdmissionStats {
            admitted: 40,
            ring_dropped: 2,
            shed_overload: 3,
            shed_infeasible: 1,
            events: vec![
                AdmissionEvent {
                    at: SimTime::from_units_int(5),
                    job: 9,
                    first_txn: TxnId(27),
                    txns: 3,
                    overload: true,
                    inflight: 12,
                },
                AdmissionEvent {
                    at: SimTime::from_units_int(6),
                    job: 10,
                    first_txn: TxnId(30),
                    txns: 2,
                    overload: false,
                    inflight: 11,
                },
            ],
        });
        assert_eq!(rec.metrics().counter("admission_admitted_jobs"), 40);
        assert_eq!(rec.metrics().counter("admission_shed_overload_jobs"), 3);
        assert_eq!(rec.metrics().counter("admission_shed_infeasible_jobs"), 1);
        assert_eq!(rec.len(), 2);
        let dump = rec.dump();
        let lines: Vec<&str> = dump.lines().collect();
        let o = crate::json::parse_flat(lines[0]).unwrap();
        assert_eq!(o.str("kind"), Some("admission"));
        assert_eq!(o.str("reason"), Some("overload"));
        assert_eq!(o.int("txn"), Some(27));
        assert_eq!(o.int("inflight"), Some(12));
        let i = crate::json::parse_flat(lines[1]).unwrap();
        assert_eq!(i.str("reason"), Some("infeasible"));
        assert_eq!(i.int("job"), Some(10));
    }

    #[test]
    fn shard_label_stamps_every_dump_line() {
        let mut a = FlightRecorder::new(8).with_shard(0);
        let mut b = FlightRecorder::new(8).with_shard(1);
        a.decision(&decision(1, 4));
        b.dispatched(SimTime::from_units_int(2), TxnId(9), None);
        assert_eq!(a.shard(), Some(0));
        let merged = dump_sharded(&[a, b]);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(lines.len(), 2);
        let d = crate::json::parse_flat(lines[0]).unwrap();
        assert_eq!(d.int("shard"), Some(0));
        assert_eq!(d.str("kind"), Some("decision"));
        let p = crate::json::parse_flat(lines[1]).unwrap();
        assert_eq!(p.int("shard"), Some(1));
        assert_eq!(p.int("txn"), Some(9));
        // Unlabeled recorders emit no shard field at all.
        let mut plain = FlightRecorder::new(8);
        plain.decision(&decision(1, 4));
        let line = plain.dump();
        let obj = crate::json::parse_flat(line.trim()).unwrap();
        assert_eq!(obj.int("shard"), None);
    }

    #[test]
    fn labeled_dumps_still_analyze() {
        // The Dump reader must tolerate the extra shard field.
        let mut rec = FlightRecorder::new(8).with_shard(3);
        rec.decision(&decision(1, 4));
        let dump = crate::analysis::Dump::parse(&rec.dump()).unwrap();
        assert_eq!(dump.decisions().count(), 1);
        assert!(dump.check().is_empty());
    }

    #[test]
    fn panic_dump_writes_only_on_panic() {
        let dir = std::env::temp_dir().join("asets-obs-panic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.jsonl");
        let crash = dir.join("crash.jsonl");
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&crash);

        // Clean drop: no file.
        {
            let rec = FlightRecorder::shared(4);
            let _g = PanicDump::new(rec, &clean);
        }
        assert!(!clean.exists());

        // Panicking drop: dump appears.
        let crash2 = crash.clone();
        let res = std::panic::catch_unwind(move || {
            let rec = FlightRecorder::shared(4);
            rec.borrow_mut().decision(&decision(0, 0));
            let _g = PanicDump::new(rec, &crash2);
            panic!("boom");
        });
        assert!(res.is_err());
        let contents = std::fs::read_to_string(&crash).unwrap();
        assert_eq!(contents.lines().count(), 1);
    }
}
