//! Lifecycle span collection: the write side of transaction tracing.
//!
//! A [`SpanCollector`] listens to the full `asets_core::obs` hook stream and
//! turns it into a causal span record per transaction:
//!
//! `arrival → ready (deps cleared) → dispatched(server) → [preempted /
//! resumed]* → completed`
//!
//! plus run segments (`served` intervals per server), a snapshot of the
//! workflow membership (so workflow-level decisions can be cross-checked
//! against what actually ran), and scheduler self-profiling aggregates per
//! [`EnginePhase`]. Each dispatch edge is stamped with the sequence number
//! of the flight-recorder decision that caused it: the collector counts
//! ring-bound events (decisions, migrations, dispatches) exactly like
//! [`FlightRecorder`] assigns sequence numbers, so
//! when both observe the same stream — see [`SpanRecorder`] — the stamp
//! indexes straight into `flight.jsonl`.
//!
//! The read side ([`crate::timeline`]) parses the dump back, merges shards,
//! and renders timelines / Perfetto traces.

use crate::json::JsonObject;
use crate::recorder::FlightRecorder;
use asets_core::obs::{CompletionInfo, DecisionRecord, EnginePhase, MigrationEvent, Observer};
use asets_core::table::TxnTable;
use asets_core::time::SimTime;
use asets_core::txn::TxnId;
use asets_core::workflow::WorkflowSet;
use std::io;
use std::path::Path;

/// One lifecycle event, in emission (= causal) order within a collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// The transaction entered the system (`ready` = no open dependencies).
    Arrived {
        /// When.
        at: SimTime,
        /// Which transaction.
        txn: TxnId,
        /// Whether it was immediately schedulable.
        ready: bool,
    },
    /// A blocked transaction's last dependency cleared.
    Ready {
        /// When.
        at: SimTime,
        /// Which transaction.
        txn: TxnId,
    },
    /// The engine handed `txn` a server (a fresh dispatch, not a resume).
    Dispatched {
        /// When.
        at: SimTime,
        /// Which transaction.
        txn: TxnId,
        /// The transaction it displaced mid-work, if any (a preemption).
        displaced: Option<TxnId>,
        /// Sequence number of the same-instant flight-recorder decision
        /// that chose `txn`, when one was observed.
        decision_seq: Option<u64>,
    },
    /// Server `server` ran `txn` over `[from, until)`; `completed` marks
    /// the segment that finished the transaction.
    Served {
        /// Server index within the shard.
        server: u32,
        /// Which transaction.
        txn: TxnId,
        /// Segment start.
        from: SimTime,
        /// Segment end (the settle instant the segment was reported at).
        until: SimTime,
        /// Whether the transaction completed at `until`.
        completed: bool,
    },
    /// The transaction finished, with its lifecycle summary.
    Completed {
        /// When (== `info.finish`).
        at: SimTime,
        /// Which transaction.
        txn: TxnId,
        /// Tardiness/queue-wait summary captured at completion.
        info: CompletionInfo,
    },
}

impl SpanEvent {
    /// The instant the event was emitted at — the k-way merge key.
    /// `Served` segments merge at their *end* instant, which is when the
    /// engine reported them.
    pub fn at(&self) -> SimTime {
        match self {
            SpanEvent::Arrived { at, .. }
            | SpanEvent::Ready { at, .. }
            | SpanEvent::Dispatched { at, .. }
            | SpanEvent::Completed { at, .. } => *at,
            SpanEvent::Served { until, .. } => *until,
        }
    }

    fn remap(&mut self, g: impl Fn(TxnId) -> TxnId) {
        match self {
            SpanEvent::Arrived { txn, .. }
            | SpanEvent::Ready { txn, .. }
            | SpanEvent::Served { txn, .. }
            | SpanEvent::Completed { txn, .. } => *txn = g(*txn),
            SpanEvent::Dispatched { txn, displaced, .. } => {
                *txn = g(*txn);
                *displaced = displaced.map(&g);
            }
        }
    }
}

/// Wall-clock aggregate for one [`EnginePhase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Scheduling points that reported this phase.
    pub count: u64,
    /// Total wall-clock nanoseconds across those points.
    pub total_ns: u64,
    /// The slowest single occurrence.
    pub max_ns: u64,
}

impl PhaseAgg {
    /// Mean nanoseconds per occurrence (0 when never reported).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Observer that records the lifecycle span stream of one engine.
///
/// Unlike the flight recorder's bounded ring, the collector keeps the whole
/// run: spans are the primary artifact of a tracing run, so truncating them
/// would silently drop the head of every timeline.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    shard: Option<u32>,
    events: Vec<SpanEvent>,
    /// Workflow membership snapshot, `(wf, txn)` pairs in build order.
    pub(crate) wf_members: Vec<(u32, TxnId)>,
    /// Indexed by `EnginePhase::ALL` order.
    profile: [PhaseAgg; 3],
    /// Mirrors the flight recorder's sequence counter: incremented once per
    /// ring-bound event (decision, migration, dispatch) in hook order.
    flight_seq: u64,
    /// Decisions observed at the instant currently being processed:
    /// `(seq, at, chosen)`. Cleared whenever the instant advances, so a
    /// dispatch is only ever matched against same-instant decisions.
    recent_decisions: Vec<(u64, SimTime, TxnId)>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> SpanCollector {
        SpanCollector::default()
    }

    /// Stamp every dumped line with a shard label (the sharded runtime
    /// gives each shard its own collector).
    pub fn with_shard(mut self, shard: u32) -> SpanCollector {
        self.shard = Some(shard);
        self
    }

    /// Snapshot the workflow membership of `table` so the span stream is
    /// self-contained: `asets-obs check` can verify workflow-level
    /// decisions against what ran without re-deriving the DAG.
    pub fn with_workflows_from(mut self, table: &TxnTable) -> SpanCollector {
        let wfs = WorkflowSet::build(table);
        self.wf_members.clear();
        for w in wfs.ids() {
            for &t in wfs.members(w) {
                self.wf_members.push((w.0, t));
            }
        }
        self
    }

    /// The shard label, if any.
    pub fn shard(&self) -> Option<u32> {
        self.shard
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// The workflow membership snapshot as `(wf, txn)` pairs.
    pub fn workflow_members(&self) -> &[(u32, TxnId)] {
        &self.wf_members
    }

    /// The self-profiling aggregate for `phase`.
    pub fn phase(&self, phase: EnginePhase) -> PhaseAgg {
        self.profile[phase as usize]
    }

    /// Rewrite shard-local transaction ids to global ids (workflow ids stay
    /// shard-local; the shard label keeps them unambiguous). Mirrors
    /// `ShardedRuntime`'s trace remap so concatenated multi-shard dumps
    /// speak one id space.
    pub fn remap_txns(&mut self, to_global: &[TxnId]) {
        let g = |t: TxnId| to_global[t.0 as usize];
        for ev in &mut self.events {
            ev.remap(g);
        }
        for (_, t) in &mut self.wf_members {
            *t = g(*t);
        }
        for (_, _, t) in &mut self.recent_decisions {
            *t = g(*t);
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.flight_seq;
        self.flight_seq += 1;
        s
    }

    /// Serialize as JSON lines: workflow membership first, then phase
    /// profiles, then the event stream in emission order. Every line is a
    /// flat object (`crate::json`), shard-labeled when set.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for line in self.lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Write [`SpanCollector::dump`] to `path`.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.dump())
    }

    fn tag(&self, obj: JsonObject) -> JsonObject {
        match self.shard {
            Some(s) => obj.int("shard", s as i128),
            None => obj,
        }
    }

    fn header_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.wf_members.len() + 3);
        for &(w, t) in &self.wf_members {
            out.push(
                self.tag(
                    JsonObject::new()
                        .str("kind", "wf-member")
                        .int("wf", w as i128)
                        .int("txn", t.0 as i128),
                )
                .finish(),
            );
        }
        for p in EnginePhase::ALL {
            let agg = self.phase(p);
            if agg.count == 0 {
                continue;
            }
            out.push(
                self.tag(
                    JsonObject::new()
                        .str("kind", "profile")
                        .str("phase", p.token())
                        .int("count", agg.count as i128)
                        .int("total_ns", agg.total_ns as i128)
                        .int("max_ns", agg.max_ns as i128),
                )
                .finish(),
            );
        }
        out
    }

    fn event_line(&self, ev: &SpanEvent) -> String {
        let obj = match ev {
            SpanEvent::Arrived { at, txn, ready } => JsonObject::new()
                .str("kind", "span-arrived")
                .int("at", at.ticks() as i128)
                .int("txn", txn.0 as i128)
                .bool("ready", *ready),
            SpanEvent::Ready { at, txn } => JsonObject::new()
                .str("kind", "span-ready")
                .int("at", at.ticks() as i128)
                .int("txn", txn.0 as i128),
            SpanEvent::Dispatched {
                at,
                txn,
                displaced,
                decision_seq,
            } => {
                let mut obj = JsonObject::new()
                    .str("kind", "span-dispatch")
                    .int("at", at.ticks() as i128)
                    .int("txn", txn.0 as i128);
                if let Some(p) = displaced {
                    obj = obj.int("displaced", p.0 as i128);
                }
                if let Some(s) = decision_seq {
                    obj = obj.int("decision_seq", *s as i128);
                }
                obj
            }
            SpanEvent::Served {
                server,
                txn,
                from,
                until,
                completed,
            } => JsonObject::new()
                .str("kind", "span-served")
                .int("server", *server as i128)
                .int("txn", txn.0 as i128)
                .int("from", from.ticks() as i128)
                .int("until", until.ticks() as i128)
                .bool("completed", *completed),
            SpanEvent::Completed { at, txn, info } => JsonObject::new()
                .str("kind", "span-completed")
                .int("at", at.ticks() as i128)
                .int("txn", txn.0 as i128)
                .int("deadline", info.deadline.ticks() as i128)
                .int("tardiness", info.tardiness.ticks() as i128)
                .int("queue_wait", info.queue_wait.ticks() as i128)
                .int("service", info.service.ticks() as i128)
                .bool("met", info.met_deadline),
        };
        self.tag(obj).finish()
    }

    fn lines(&self) -> Vec<String> {
        let mut out = self.header_lines();
        out.extend(self.events.iter().map(|e| self.event_line(e)));
        out
    }
}

impl Observer for SpanCollector {
    fn decision(&mut self, rec: &DecisionRecord) {
        let seq = self.next_seq();
        if self
            .recent_decisions
            .last()
            .is_some_and(|&(_, at, _)| at != rec.at)
        {
            self.recent_decisions.clear();
        }
        self.recent_decisions.push((seq, rec.at, rec.chosen));
    }

    fn migration(&mut self, _ev: &MigrationEvent) {
        // Not a span edge, but it consumes a flight-recorder sequence
        // number — count it so dispatch stamps stay aligned.
        let _ = self.next_seq();
    }

    fn dispatched(&mut self, at: SimTime, txn: TxnId, displaced: Option<TxnId>) {
        let _dispatch_seq = self.next_seq();
        // M > 1 dispatches several choices after several same-instant
        // decisions; scan newest-first so repeated choices of the same
        // transaction (impossible today, cheap to be robust about) bind to
        // the nearest decision.
        let decision_seq = self
            .recent_decisions
            .iter()
            .rev()
            .find(|&&(_, d_at, chosen)| d_at == at && chosen == txn)
            .map(|&(s, _, _)| s);
        self.events.push(SpanEvent::Dispatched {
            at,
            txn,
            displaced,
            decision_seq,
        });
    }

    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        self.events.push(SpanEvent::Arrived { at, txn, ready });
    }

    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        self.events.push(SpanEvent::Ready { at, txn });
    }

    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        self.events.push(SpanEvent::Served {
            server,
            txn,
            from,
            until,
            completed,
        });
    }

    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        self.events.push(SpanEvent::Completed {
            at,
            txn,
            info: *info,
        });
    }

    fn engine_phase(&mut self, _at: SimTime, phase: EnginePhase, wall_ns: u64) {
        let agg = &mut self.profile[phase as usize];
        agg.count += 1;
        agg.total_ns += wall_ns;
        agg.max_ns = agg.max_ns.max(wall_ns);
    }
}

/// Merge several shard collectors into one span dump: every shard's
/// workflow/profile header first, then a stable k-way merge of the event
/// streams by instant (ties resolve to the lower collector index, each
/// stream's internal order preserved — the PR 3 trace-merge discipline).
pub fn dump_spans(collectors: &[SpanCollector]) -> String {
    let mut out = String::new();
    for c in collectors {
        for line in c.header_lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    let mut cursors: Vec<std::iter::Peekable<std::slice::Iter<'_, SpanEvent>>> = collectors
        .iter()
        .map(|c| c.events.iter().peekable())
        .collect();
    loop {
        let next = cursors
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| c.peek().map(|e| (e.at(), i)))
            .min()
            .map(|(_, i)| i);
        let Some(i) = next else { break };
        let ev = cursors[i].next().expect("peeked head present");
        out.push_str(&collectors[i].event_line(ev));
        out.push('\n');
    }
    out
}

/// The tracing bundle: a [`FlightRecorder`] and a [`SpanCollector`] fed
/// from the same hook stream, so span dispatch edges can stamp the exact
/// `seq` their decision has in `flight.jsonl`.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    /// Decision provenance ring + metrics.
    pub flight: FlightRecorder,
    /// Lifecycle spans.
    pub spans: SpanCollector,
}

impl SpanRecorder {
    /// A bundle whose ring keeps the last `capacity` events.
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            flight: FlightRecorder::new(capacity),
            spans: SpanCollector::new(),
        }
    }

    /// Label both halves with a shard index.
    pub fn with_shard(mut self, shard: u32) -> SpanRecorder {
        self.flight = self.flight.with_shard(shard);
        self.spans = self.spans.with_shard(shard);
        self
    }

    /// Snapshot workflow membership into the span half.
    pub fn with_workflows_from(mut self, table: &TxnTable) -> SpanRecorder {
        self.spans = self.spans.with_workflows_from(table);
        self
    }

    /// Remap both halves to global transaction ids.
    pub fn remap_txns(&mut self, to_global: &[TxnId]) {
        self.flight.remap_txns(to_global);
        self.spans.remap_txns(to_global);
    }
}

impl Observer for SpanRecorder {
    fn decision(&mut self, rec: &DecisionRecord) {
        self.flight.decision(rec);
        self.spans.decision(rec);
    }

    fn migration(&mut self, ev: &MigrationEvent) {
        self.flight.migration(ev);
        self.spans.migration(ev);
    }

    fn sched_point(&mut self, at: SimTime, latency_ns: u64) {
        self.flight.sched_point(at, latency_ns);
        self.spans.sched_point(at, latency_ns);
    }

    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        self.flight.dispatched(at, txn, preempted);
        self.spans.dispatched(at, txn, preempted);
    }

    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        self.flight.arrived(at, txn, ready);
        self.spans.arrived(at, txn, ready);
    }

    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        self.flight.became_ready(at, txn);
        self.spans.became_ready(at, txn);
    }

    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        self.flight.served(server, txn, from, until, completed);
        self.spans.served(server, txn, from, until, completed);
    }

    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        self.flight.completed(at, txn, info);
        self.spans.completed(at, txn, info);
    }

    fn engine_phase(&mut self, at: SimTime, phase: EnginePhase, wall_ns: u64) {
        self.flight.engine_phase(at, phase, wall_ns);
        self.spans.engine_phase(at, phase, wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_flat;
    use asets_core::obs::{Candidate, DecisionRule, Winner};
    use asets_core::time::{SimDuration, Slack};

    fn decision_at(at: u64, chosen: u32) -> DecisionRecord {
        DecisionRecord {
            at: SimTime::from_units_int(at),
            rule: DecisionRule::Eq1,
            edf: Some(Candidate {
                txn: TxnId(chosen),
                workflow: None,
                r: SimDuration::from_units_int(1),
                slack: Slack::from_ticks(0),
                weight: 1,
                deadline: SimTime::from_units_int(10),
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

    fn info(finish: u64) -> CompletionInfo {
        CompletionInfo {
            finish: SimTime::from_units_int(finish),
            deadline: SimTime::from_units_int(finish + 1),
            tardiness: SimDuration::ZERO,
            queue_wait: SimDuration::from_units_int(1),
            service: SimDuration::from_units_int(2),
            met_deadline: true,
        }
    }

    #[test]
    fn dispatch_edges_stamp_same_instant_decision_seq() {
        let mut c = SpanCollector::new();
        c.decision(&decision_at(0, 3)); // seq 0
        c.migration(&MigrationEvent {
            at: SimTime::ZERO,
            subject: asets_core::obs::MigrationSubject::Txn(TxnId(3)),
            to_hdf: true,
        }); // seq 1
        c.decision(&decision_at(0, 5)); // seq 2
        c.dispatched(SimTime::ZERO, TxnId(3), None); // seq 3
        c.dispatched(SimTime::ZERO, TxnId(5), Some(TxnId(9))); // seq 4
                                                               // Next instant: stale decisions must not match.
        c.decision(&decision_at(1, 7)); // seq 5
        c.dispatched(SimTime::from_units_int(2), TxnId(7), None); // seq 6

        let stamps: Vec<(TxnId, Option<u64>)> = c
            .events()
            .iter()
            .filter_map(|e| match e {
                SpanEvent::Dispatched {
                    txn, decision_seq, ..
                } => Some((*txn, *decision_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(
            stamps,
            vec![(TxnId(3), Some(0)), (TxnId(5), Some(2)), (TxnId(7), None)]
        );
    }

    #[test]
    fn seq_counter_matches_flight_recorder() {
        // Feed the identical stream to a SpanRecorder; the dispatch stamp
        // must index the decision's seq in the flight dump.
        let mut r = SpanRecorder::new(64);
        r.decision(&decision_at(0, 3));
        r.dispatched(SimTime::ZERO, TxnId(3), None);
        let stamp = match r.spans.events()[0] {
            SpanEvent::Dispatched { decision_seq, .. } => decision_seq.unwrap(),
            ref other => panic!("expected dispatch, got {other:?}"),
        };
        let (flight_seq, _) = r
            .flight
            .events()
            .find(|(_, e)| matches!(e, crate::RecordedEvent::Decision(_)))
            .unwrap();
        assert_eq!(stamp, flight_seq);
    }

    #[test]
    fn dump_lines_are_flat_and_shard_labeled() {
        let mut c = SpanCollector::new().with_shard(2);
        c.arrived(SimTime::ZERO, TxnId(0), true);
        c.served(0, TxnId(0), SimTime::ZERO, SimTime::from_units_int(2), true);
        c.completed(SimTime::from_units_int(2), TxnId(0), &info(2));
        c.engine_phase(SimTime::ZERO, EnginePhase::Select, 500);
        let dump = c.dump();
        let mut kinds = Vec::new();
        for line in dump.lines() {
            let obj = parse_flat(line).expect(line);
            assert_eq!(obj.int("shard"), Some(2), "{line}");
            kinds.push(obj.str("kind").unwrap().to_string());
        }
        assert_eq!(
            kinds,
            vec!["profile", "span-arrived", "span-served", "span-completed"]
        );
    }

    #[test]
    fn merged_dump_interleaves_by_instant() {
        let mut a = SpanCollector::new().with_shard(0);
        let mut b = SpanCollector::new().with_shard(1);
        a.arrived(SimTime::from_units_int(1), TxnId(0), true);
        a.arrived(SimTime::from_units_int(3), TxnId(1), true);
        b.arrived(SimTime::from_units_int(2), TxnId(2), true);
        let merged = dump_spans(&[a, b]);
        let ats: Vec<i128> = merged
            .lines()
            .map(|l| parse_flat(l).unwrap().int("at").unwrap())
            .collect();
        assert_eq!(
            ats,
            vec![1_000_000, 2_000_000, 3_000_000],
            "events sorted across shards"
        );
    }

    #[test]
    fn remap_rewrites_every_txn_field() {
        let mut c = SpanCollector::new();
        c.arrived(SimTime::ZERO, TxnId(0), true);
        c.dispatched(SimTime::ZERO, TxnId(0), Some(TxnId(1)));
        c.wf_members.push((0, TxnId(1)));
        c.remap_txns(&[TxnId(10), TxnId(11)]);
        assert_eq!(
            c.events()[0],
            SpanEvent::Arrived {
                at: SimTime::ZERO,
                txn: TxnId(10),
                ready: true
            }
        );
        match c.events()[1] {
            SpanEvent::Dispatched { txn, displaced, .. } => {
                assert_eq!(txn, TxnId(10));
                assert_eq!(displaced, Some(TxnId(11)));
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.workflow_members(), &[(0, TxnId(11))]);
    }

    #[test]
    fn phase_profile_aggregates() {
        let mut c = SpanCollector::new();
        c.engine_phase(SimTime::ZERO, EnginePhase::Maintain, 100);
        c.engine_phase(SimTime::ZERO, EnginePhase::Maintain, 300);
        let agg = c.phase(EnginePhase::Maintain);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total_ns, 400);
        assert_eq!(agg.max_ns, 300);
        assert_eq!(agg.mean_ns(), 200.0);
        assert_eq!(c.phase(EnginePhase::Dispatch), PhaseAgg::default());
    }
}
