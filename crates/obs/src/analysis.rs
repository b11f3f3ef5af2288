//! Reading flight-recorder dumps back and asking questions of them.
//!
//! This is the library behind the `asets-obs` CLI: load a `flight.jsonl`,
//! then answer "why did transaction X run at time t", "what is workflow W's
//! migration history", "which decisions were closest/widest", and — the
//! trust anchor — *re-derive* every recorded decision from its own
//! `r`/`s`/`w` numbers and confirm the recorded winner actually satisfies
//! the Eq. 1 / Fig. 7 inequality ([`Dump::check`]).

use crate::json::{parse_flat, FlatObj};
use crate::recorder::RecordedEvent;
use asets_core::obs::{
    Candidate, DecisionRecord, DecisionRule, MigrationEvent, MigrationSubject, Winner,
};
use asets_core::time::{SimDuration, SimTime, Slack};
use asets_core::txn::TxnId;
use asets_core::workflow::WfId;
use asets_sim::{AdmissionEvent, RebalanceEvent};
use std::path::Path;

/// A parsed flight-recorder dump: `(seq, event)` pairs in dump order.
#[derive(Debug, Clone, Default)]
pub struct Dump {
    /// Events with their global sequence numbers.
    pub events: Vec<(u64, RecordedEvent)>,
    /// Per-event shard labels, aligned with `events` (`None` for lines
    /// without a `shard` field — unsharded runs).
    pub shards: Vec<Option<u32>>,
}

impl Dump {
    /// Parse a dump from its JSONL text.
    pub fn parse(text: &str) -> Result<Dump, String> {
        let mut events = Vec::new();
        let mut shards = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj = parse_flat(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(parse_event(&obj).map_err(|e| format!("line {}: {e}", i + 1))?);
            shards.push(obj.int("shard").map(|s| s as u32));
        }
        Ok(Dump { events, shards })
    }

    /// Read and parse a dump file.
    pub fn load(path: &Path) -> Result<Dump, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Dump::parse(&text)
    }

    /// All decision records, with sequence numbers.
    pub fn decisions(&self) -> impl Iterator<Item = (u64, &DecisionRecord)> {
        self.events.iter().filter_map(|(s, e)| match e {
            RecordedEvent::Decision(r) => Some((*s, r)),
            _ => None,
        })
    }

    /// All migration events.
    pub fn migrations(&self) -> impl Iterator<Item = (u64, &MigrationEvent)> {
        self.events.iter().filter_map(|(s, e)| match e {
            RecordedEvent::Migration(m) => Some((*s, m)),
            _ => None,
        })
    }

    /// All cross-shard rebalancing actions (rebalanced sharded runs).
    pub fn rebalances(&self) -> impl Iterator<Item = (u64, &RebalanceEvent)> {
        self.events.iter().filter_map(|(s, e)| match e {
            RecordedEvent::Rebalance(r) => Some((*s, r)),
            _ => None,
        })
    }

    /// All admission-control sheds (live-path runs).
    pub fn admissions(&self) -> impl Iterator<Item = (u64, &AdmissionEvent)> {
        self.events.iter().filter_map(|(s, e)| match e {
            RecordedEvent::Admission(a) => Some((*s, a)),
            _ => None,
        })
    }

    /// Why did `txn` never run — the admission shed (if any) whose job
    /// owned it. The complement of [`Dump::why`]: a transaction either
    /// dispatched (decisions explain it) or its job was turned away at
    /// the door (this explains it).
    pub fn shed_of(&self, txn: TxnId) -> Option<AdmissionEvent> {
        self.admissions()
            .find(|(_, a)| (a.first_txn.0..a.first_txn.0 + a.txns).contains(&txn.0))
            .map(|(_, a)| *a)
    }

    /// Why did `txn` run — every decision that chose it, optionally
    /// restricted to instant `at`.
    pub fn why(&self, txn: TxnId, at: Option<SimTime>) -> Vec<(u64, DecisionRecord)> {
        self.decisions()
            .filter(|(_, r)| r.chosen == txn && at.is_none_or(|t| r.at == t))
            .map(|(s, r)| (s, *r))
            .collect()
    }

    /// Migration history of one subject, in time order.
    pub fn migrations_of(&self, subject: MigrationSubject) -> Vec<MigrationEvent> {
        self.migrations()
            .filter(|(_, m)| m.subject == subject)
            .map(|(_, m)| *m)
            .collect()
    }

    /// The `k` two-sided decisions with the largest absolute margin — the
    /// most lopsided comparisons of the run. Ties broken by sequence.
    pub fn top_by_margin(&self, k: usize) -> Vec<(u64, DecisionRecord)> {
        let mut cmp: Vec<(u64, DecisionRecord)> = self
            .decisions()
            .filter(|(_, r)| r.is_comparison())
            .map(|(s, r)| (s, *r))
            .collect();
        cmp.sort_by_key(|(s, r)| (std::cmp::Reverse(r.margin().unsigned_abs()), *s));
        cmp.truncate(k);
        cmp
    }

    /// Re-derive every decision from its recorded `r`/`s`/`w` values and
    /// report records whose stored impacts, winner, or chosen transaction
    /// contradict the rule they claim to have evaluated. An empty result is
    /// the acceptance criterion: the dump *is* the Eq. 1 arithmetic.
    pub fn check(&self) -> Vec<CheckFailure> {
        let mut failures = Vec::new();
        for (seq, rec) in self.decisions() {
            if let Err(reason) = check_record(rec) {
                failures.push(CheckFailure { seq, reason });
            }
        }
        failures
    }

    /// Cross-check Fig. 7 workflow-level decisions against the span
    /// stream: the transaction a decision chose must be a member of the
    /// winning candidate's workflow, per the membership snapshot the span
    /// collector took from the live table. [`Dump::check`] re-derives the
    /// *arithmetic* of each record; this verifies its *referents* — a
    /// decision can be internally consistent yet dispatch a transaction
    /// from the wrong workflow, which only the span stream can expose.
    /// Workflow ids are shard-local, so each decision is resolved under
    /// its own line's shard label.
    pub fn check_against_timeline(&self, tl: &crate::timeline::Timeline) -> Vec<CheckFailure> {
        let mut failures = Vec::new();
        for (i, (seq, ev)) in self.events.iter().enumerate() {
            let RecordedEvent::Decision(rec) = ev else {
                continue;
            };
            let winning = match rec.winner {
                Winner::Edf | Winner::OnlyEdf | Winner::Single => rec.edf.as_ref(),
                Winner::Hdf | Winner::OnlyHdf => rec.hdf.as_ref(),
            };
            let Some(w) = winning.and_then(|c| c.workflow) else {
                continue; // transaction-level decision: nothing to check
            };
            let shard = self.shards.get(i).copied().flatten();
            let members = tl.workflow_members(shard, w);
            if members.is_empty() {
                failures.push(CheckFailure {
                    seq: *seq,
                    reason: format!(
                        "decision chose {} for W{} but the span stream knows no such workflow",
                        rec.chosen, w.0
                    ),
                });
            } else if !members.contains(&rec.chosen) {
                failures.push(CheckFailure {
                    seq: *seq,
                    reason: format!(
                        "dispatched head {} does not belong to winning workflow W{} \
                         (members: {})",
                        rec.chosen,
                        w.0,
                        members
                            .iter()
                            .map(|t| t.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                    ),
                });
            }
        }
        failures
    }

    /// [`Dump::check`] plus [`Dump::check_against_timeline`], in one list.
    pub fn check_with_spans(&self, tl: &crate::timeline::Timeline) -> Vec<CheckFailure> {
        let mut failures = self.check();
        failures.extend(self.check_against_timeline(tl));
        failures.sort_by_key(|f| f.seq);
        failures
    }

    /// Dispatches with no same-instant decision choosing the same
    /// transaction (the dispatch↔decision invariant). Dispatches that
    /// precede the first retained decision are skipped: a ring that evicted
    /// the front of the run cannot testify about it.
    pub fn dispatch_decision_mismatches(&self) -> Vec<(u64, SimTime, TxnId)> {
        let first_decision_seq = match self.decisions().map(|(s, _)| s).min() {
            Some(s) => s,
            None => return Vec::new(),
        };
        self.events
            .iter()
            .filter_map(|(s, e)| match e {
                RecordedEvent::Dispatch { at, txn, .. } if *s > first_decision_seq => {
                    Some((*s, *at, *txn))
                }
                _ => None,
            })
            .filter(|(_, at, txn)| {
                !self
                    .decisions()
                    .any(|(_, r)| r.at == *at && r.chosen == *txn)
            })
            .collect()
    }
}

/// One record that failed [`Dump::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// Sequence number of the offending decision.
    pub seq: u64,
    /// What contradicted the rule.
    pub reason: String,
}

/// Re-derive the impacts a rule prescribes from two candidates. Returns
/// `(impact_edf, impact_hdf)` in the rule's units (ticks at transaction
/// level, tick·weight at workflow level).
pub fn derive_impacts(rule: DecisionRule, edf: &Candidate, hdf: &Candidate) -> (i128, i128) {
    let r_a = edf.r.ticks() as i128;
    let r_b = hdf.r.ticks() as i128;
    let s_a = edf.slack.ticks();
    let s_b = hdf.slack.ticks();
    let w_a = edf.weight as i128;
    let w_b = hdf.weight as i128;
    match rule {
        // Eq. 1: run EDF top iff r_EDF < r_SRPT − s_EDF.
        DecisionRule::Eq1 => (r_a, r_b - s_a),
        // Fig. 7 paper rule: r_head(A)·w_B < (r_head(B) − s_rep(A))·w_A.
        DecisionRule::Fig7Paper => (r_a * w_b, (r_b - s_a) * w_a),
        // Symmetric variant: subtract the other side's rep slack too.
        DecisionRule::Fig7Symmetric => ((r_a - s_b) * w_b, (r_b - s_a) * w_a),
        DecisionRule::Priority => (0, 0),
    }
}

fn check_record(rec: &DecisionRecord) -> Result<(), String> {
    match rec.winner {
        Winner::Edf | Winner::Hdf => {
            let (Some(edf), Some(hdf)) = (&rec.edf, &rec.hdf) else {
                return Err("comparison winner but a candidate is missing".into());
            };
            let (want_edf, want_hdf) = derive_impacts(rec.rule, edf, hdf);
            if (rec.impact_edf, rec.impact_hdf) != (want_edf, want_hdf) {
                return Err(format!(
                    "stored impacts ({}, {}) != derived ({want_edf}, {want_hdf}) under {}",
                    rec.impact_edf,
                    rec.impact_hdf,
                    rec.rule.token()
                ));
            }
            // Strict `<`: ties go to the HDF side.
            let edf_wins = want_edf < want_hdf;
            let (want_winner, want_chosen) = if edf_wins {
                (Winner::Edf, edf.txn)
            } else {
                (Winner::Hdf, hdf.txn)
            };
            if rec.winner != want_winner {
                return Err(format!(
                    "recorded winner {} but {} < {} says {}",
                    rec.winner.token(),
                    want_edf,
                    want_hdf,
                    want_winner.token()
                ));
            }
            if rec.chosen != want_chosen {
                return Err(format!(
                    "winner {} implies {} runs, but {} was chosen",
                    want_winner.token(),
                    want_chosen,
                    rec.chosen
                ));
            }
            Ok(())
        }
        Winner::OnlyEdf => match &rec.edf {
            Some(c) if c.txn == rec.chosen => Ok(()),
            Some(c) => Err(format!("unopposed EDF {} but {} chosen", c.txn, rec.chosen)),
            None => Err("only-edf with no EDF candidate".into()),
        },
        Winner::OnlyHdf => match &rec.hdf {
            Some(c) if c.txn == rec.chosen => Ok(()),
            Some(c) => Err(format!("unopposed HDF {} but {} chosen", c.txn, rec.chosen)),
            None => Err("only-hdf with no HDF candidate".into()),
        },
        Winner::Single => match &rec.edf {
            Some(c) if c.txn == rec.chosen => Ok(()),
            _ => Err("single-priority record must carry its queue top".into()),
        },
    }
}

fn parse_event(obj: &FlatObj) -> Result<(u64, RecordedEvent), String> {
    let seq = obj.int("seq").ok_or("missing seq")? as u64;
    let at = SimTime::from_ticks(obj.int("at").ok_or("missing at")? as u64);
    let ev = match obj.str("kind") {
        Some("decision") => RecordedEvent::Decision(DecisionRecord {
            at,
            rule: obj
                .str("rule")
                .and_then(DecisionRule::parse)
                .ok_or("bad rule")?,
            edf: parse_candidate(obj, "edf")?,
            hdf: parse_candidate(obj, "hdf")?,
            impact_edf: obj.int("impact_edf").ok_or("missing impact_edf")?,
            impact_hdf: obj.int("impact_hdf").ok_or("missing impact_hdf")?,
            winner: obj
                .str("winner")
                .and_then(Winner::parse)
                .ok_or("bad winner")?,
            chosen: TxnId(obj.int("chosen").ok_or("missing chosen")? as u32),
            edf_len: obj.int("edf_len").unwrap_or(0) as u32,
            hdf_len: obj.int("hdf_len").unwrap_or(0) as u32,
        }),
        Some("migration") => RecordedEvent::Migration(MigrationEvent {
            at,
            subject: match (obj.int("wf"), obj.int("txn")) {
                (Some(w), _) => MigrationSubject::Workflow(WfId(w as u32)),
                (None, Some(t)) => MigrationSubject::Txn(TxnId(t as u32)),
                (None, None) => return Err("migration without wf/txn".into()),
            },
            to_hdf: obj.bool("to_hdf").ok_or("missing to_hdf")?,
        }),
        Some("dispatch") => RecordedEvent::Dispatch {
            at,
            txn: TxnId(obj.int("txn").ok_or("missing txn")? as u32),
            preempted: obj.int("preempted").map(|p| TxnId(p as u32)),
        },
        Some("rebalance") => RecordedEvent::Rebalance(match obj.str("action") {
            Some("migration") => RebalanceEvent::Migration {
                at,
                key: obj.int("key").ok_or("missing key")? as u32,
                from: obj.int("from").ok_or("missing from")? as u32,
                to: obj.int("to").ok_or("missing to")? as u32,
                txns: obj.int("txns").ok_or("missing txns")? as u32,
                work_ticks: obj.int("work_ticks").ok_or("missing work_ticks")? as u64,
            },
            Some("steal") => RebalanceEvent::Steal {
                at,
                txn: TxnId(obj.int("txn").ok_or("missing txn")? as u32),
                from: obj.int("from").ok_or("missing from")? as u32,
                to: obj.int("to").ok_or("missing to")? as u32,
                // Dumps from before the threaded protocol carry no request
                // or grant clocks; those steals were synchronous sweeps, so
                // both default to the grab instant.
                requested_at: obj
                    .int("requested_at")
                    .map(|t| SimTime::from_ticks(t as u64))
                    .unwrap_or(at),
                granted_at: obj
                    .int("granted_at")
                    .map(|t| SimTime::from_ticks(t as u64))
                    .unwrap_or(at),
            },
            other => return Err(format!("unknown rebalance action {other:?}")),
        }),
        Some("admission") => RecordedEvent::Admission(AdmissionEvent {
            at,
            job: obj.int("job").ok_or("missing job")? as u32,
            first_txn: TxnId(obj.int("txn").ok_or("missing txn")? as u32),
            txns: obj.int("txns").ok_or("missing txns")? as u32,
            overload: match obj.str("reason") {
                Some("overload") => true,
                Some("infeasible") => false,
                other => return Err(format!("unknown admission reason {other:?}")),
            },
            inflight: obj.int("inflight").unwrap_or(0) as u32,
        }),
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok((seq, ev))
}

fn parse_candidate(obj: &FlatObj, prefix: &str) -> Result<Option<Candidate>, String> {
    let Some(txn) = obj.int(&format!("{prefix}_txn")) else {
        return Ok(None);
    };
    let field = |name: &str| -> Result<i128, String> {
        obj.int(&format!("{prefix}_{name}"))
            .ok_or_else(|| format!("missing {prefix}_{name}"))
    };
    Ok(Some(Candidate {
        txn: TxnId(txn as u32),
        workflow: obj.int(&format!("{prefix}_wf")).map(|w| WfId(w as u32)),
        r: SimDuration::from_ticks(field("r")? as u64),
        slack: Slack::from_ticks(field("slack")?),
        weight: field("weight")? as u32,
        deadline: SimTime::from_ticks(field("deadline")? as u64),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{event_line, FlightRecorder};
    use asets_core::obs::Observer;

    fn cand(txn: u32, wf: Option<u32>, r: u64, slack: i128, w: u32) -> Candidate {
        Candidate {
            txn: TxnId(txn),
            workflow: wf.map(WfId),
            r: SimDuration::from_units_int(r),
            slack: Slack::from_ticks(slack * asets_core::time::TICKS_PER_UNIT as i128),
            weight: w,
            deadline: SimTime::from_units_int(100),
        }
    }

    fn eq1_record(at: u64) -> DecisionRecord {
        // r_EDF=5, s_EDF=2, r_SRPT=3: impacts 5 vs 1 → HDF wins (Example 2).
        let u = asets_core::time::TICKS_PER_UNIT as i128;
        DecisionRecord {
            at: SimTime::from_units_int(at),
            rule: DecisionRule::Eq1,
            edf: Some(cand(1, None, 5, 2, 1)),
            hdf: Some(cand(0, None, 3, -3, 1)),
            impact_edf: 5 * u,
            impact_hdf: u,
            winner: Winner::Hdf,
            chosen: TxnId(0),
            edf_len: 1,
            hdf_len: 1,
        }
    }

    fn dump_of(events: Vec<RecordedEvent>) -> Dump {
        let text: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| event_line(i as u64, e) + "\n")
            .collect();
        Dump::parse(&text).unwrap()
    }

    #[test]
    fn round_trip_through_recorder_dump() {
        let mut rec = FlightRecorder::new(16);
        rec.decision(&eq1_record(8));
        rec.migration(&MigrationEvent {
            at: SimTime::from_units_int(9),
            subject: MigrationSubject::Workflow(WfId(2)),
            to_hdf: true,
        });
        rec.dispatched(SimTime::from_units_int(8), TxnId(0), None);
        let dump = Dump::parse(&rec.dump()).unwrap();
        assert_eq!(dump.events.len(), 3);
        let (_, restored) = dump.decisions().next().unwrap();
        assert_eq!(*restored, eq1_record(8));
        assert_eq!(
            dump.migrations_of(MigrationSubject::Workflow(WfId(2)))
                .len(),
            1
        );
    }

    #[test]
    fn rebalance_events_round_trip() {
        let mut rec = FlightRecorder::new(16);
        rec.ingest_rebalance(&asets_sim::RebalanceStats {
            migration_rounds: 1,
            migrated_components: 1,
            migrated_txns: 2,
            migrated_work: 9,
            steals: 1,
            events: vec![
                RebalanceEvent::Migration {
                    at: SimTime::from_units_int(5),
                    key: 3,
                    from: 0,
                    to: 2,
                    txns: 2,
                    work_ticks: 9,
                },
                RebalanceEvent::Steal {
                    at: SimTime::from_units_int(6),
                    txn: TxnId(4),
                    from: 0,
                    to: 1,
                    // Threaded-protocol clocks: asked at 4, answered at 5,
                    // effective at the boundary 6.
                    requested_at: SimTime::from_units_int(4),
                    granted_at: SimTime::from_units_int(5),
                },
            ],
            ..Default::default()
        });
        let dump = Dump::parse(&rec.dump()).unwrap();
        let restored: Vec<RebalanceEvent> = dump.rebalances().map(|(_, e)| *e).collect();
        assert_eq!(restored.len(), 2);
        assert_eq!(
            restored[0],
            RebalanceEvent::Migration {
                at: SimTime::from_units_int(5),
                key: 3,
                from: 0,
                to: 2,
                txns: 2,
                work_ticks: 9,
            }
        );
        assert_eq!(
            restored[1],
            RebalanceEvent::Steal {
                at: SimTime::from_units_int(6),
                txn: TxnId(4),
                from: 0,
                to: 1,
                requested_at: SimTime::from_units_int(4),
                granted_at: SimTime::from_units_int(5),
            },
            "protocol clocks survive the JSONL round trip"
        );
    }

    #[test]
    fn legacy_steal_lines_parse_with_synchronous_clocks() {
        // Dumps written before the threaded protocol have no
        // requested_at/granted_at; both must default to the grab instant.
        let line =
            r#"{"kind":"rebalance","action":"steal","seq":0,"at":6000000,"txn":4,"from":0,"to":1}"#;
        let dump = Dump::parse(line).unwrap();
        let restored: Vec<RebalanceEvent> = dump.rebalances().map(|(_, e)| *e).collect();
        match restored[0] {
            RebalanceEvent::Steal {
                at,
                requested_at,
                granted_at,
                ..
            } => {
                assert_eq!(requested_at, at);
                assert_eq!(granted_at, at);
            }
            other => panic!("expected a steal, got {other:?}"),
        }
    }

    #[test]
    fn admission_events_round_trip_and_explain_sheds() {
        let shed = AdmissionEvent {
            at: SimTime::from_units_int(4),
            job: 7,
            first_txn: TxnId(21),
            txns: 3,
            overload: true,
            inflight: 16,
        };
        let d = dump_of(vec![
            RecordedEvent::Decision(eq1_record(8)),
            RecordedEvent::Admission(shed),
        ]);
        let restored: Vec<AdmissionEvent> = d.admissions().map(|(_, a)| *a).collect();
        assert_eq!(restored, vec![shed]);
        // Every member transaction of the shed job resolves to the event.
        for t in 21..24 {
            assert_eq!(d.shed_of(TxnId(t)), Some(shed), "T{t}");
        }
        // A transaction outside the job does not.
        assert_eq!(d.shed_of(TxnId(20)), None);
        assert_eq!(d.shed_of(TxnId(24)), None);
    }

    #[test]
    fn why_filters_by_txn_and_time() {
        let d = dump_of(vec![
            RecordedEvent::Decision(eq1_record(8)),
            RecordedEvent::Decision(eq1_record(11)),
        ]);
        assert_eq!(d.why(TxnId(0), None).len(), 2);
        assert_eq!(d.why(TxnId(0), Some(SimTime::from_units_int(11))).len(), 1);
        assert_eq!(d.why(TxnId(9), None).len(), 0);
    }

    #[test]
    fn top_by_margin_orders_by_absolute_margin() {
        let mut wide = eq1_record(1);
        wide.impact_edf = 100;
        wide.impact_hdf = 0;
        let mut narrow = eq1_record(2);
        narrow.impact_edf = 3;
        narrow.impact_hdf = 0;
        let d = dump_of(vec![
            RecordedEvent::Decision(narrow),
            RecordedEvent::Decision(wide),
        ]);
        let top = d.top_by_margin(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].1.margin(), -100);
    }

    #[test]
    fn check_accepts_consistent_and_flags_corrupted() {
        let good = dump_of(vec![RecordedEvent::Decision(eq1_record(8))]);
        assert!(good.check().is_empty());

        // Flip the winner: the stored inequality now contradicts it.
        let mut bad = eq1_record(8);
        bad.winner = Winner::Edf;
        bad.chosen = TxnId(1);
        let d = dump_of(vec![RecordedEvent::Decision(bad)]);
        let failures = d.check();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].reason.contains("winner"), "{failures:?}");

        // Corrupt an impact: derivation catches it.
        let mut skewed = eq1_record(8);
        skewed.impact_hdf += 1;
        let d = dump_of(vec![RecordedEvent::Decision(skewed)]);
        assert!(d.check()[0].reason.contains("derived"));
    }

    #[test]
    fn fig7_rules_derive_with_weights() {
        // Paper rule: impact(A) = r_A·w_B = 6·1, impact(B) = (r_B−s_A)·w_A
        // = (3−0)·10 = 30 → EDF wins.
        let edf = cand(0, Some(0), 6, 0, 10);
        let hdf = cand(1, Some(1), 3, -2, 1);
        let u = asets_core::time::TICKS_PER_UNIT as i128;
        assert_eq!(
            derive_impacts(DecisionRule::Fig7Paper, &edf, &hdf),
            (6 * u, 30 * u)
        );
        // Symmetric subtracts s_B from the EDF side too: (6−(−2))·1 = 8.
        assert_eq!(
            derive_impacts(DecisionRule::Fig7Symmetric, &edf, &hdf),
            (8 * u, 30 * u)
        );
    }

    #[test]
    fn timeline_cross_check_verifies_workflow_membership() {
        use crate::span::SpanCollector;
        use crate::timeline::Timeline;

        // Span stream knows W0 = {T0, T2}, W1 = {T1}.
        let mut c = SpanCollector::new();
        c.wf_members.push((0, TxnId(0)));
        c.wf_members.push((0, TxnId(2)));
        c.wf_members.push((1, TxnId(1)));
        let tl = Timeline::from_collectors(&[c]);

        // A Fig. 7 decision won by W0's head T0: impacts 6 vs 30 → EDF.
        let u = asets_core::time::TICKS_PER_UNIT as i128;
        let rec = DecisionRecord {
            at: SimTime::from_units_int(1),
            rule: DecisionRule::Fig7Paper,
            edf: Some(cand(0, Some(0), 6, 0, 10)),
            hdf: Some(cand(1, Some(1), 3, -2, 1)),
            impact_edf: 6 * u,
            impact_hdf: 30 * u,
            winner: Winner::Edf,
            chosen: TxnId(0),
            edf_len: 1,
            hdf_len: 1,
        };
        let good = dump_of(vec![RecordedEvent::Decision(rec)]);
        assert!(good.check_against_timeline(&tl).is_empty());
        assert!(good.check_with_spans(&tl).is_empty());

        // Same record but the chosen txn belongs to the *other* workflow.
        let mut bad = rec;
        bad.chosen = TxnId(1);
        let d = dump_of(vec![RecordedEvent::Decision(bad)]);
        let fails = d.check_against_timeline(&tl);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].reason.contains("does not belong"), "{fails:?}");
        assert!(fails[0].reason.contains("T1"), "names the txn: {fails:?}");

        // A workflow the span stream never saw.
        let mut ghost = rec;
        ghost.edf.as_mut().unwrap().workflow = Some(WfId(9));
        let d = dump_of(vec![RecordedEvent::Decision(ghost)]);
        let fails = d.check_against_timeline(&tl);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].reason.contains("no such workflow"), "{fails:?}");

        // Transaction-level decisions (no workflow) are skipped.
        let txn_level = dump_of(vec![RecordedEvent::Decision(eq1_record(3))]);
        assert!(txn_level.check_against_timeline(&tl).is_empty());
    }

    #[test]
    fn dispatch_mismatch_detection() {
        let ok = dump_of(vec![
            RecordedEvent::Decision(eq1_record(8)),
            RecordedEvent::Dispatch {
                at: SimTime::from_units_int(8),
                txn: TxnId(0),
                preempted: None,
            },
        ]);
        assert!(ok.dispatch_decision_mismatches().is_empty());

        let bad = dump_of(vec![
            RecordedEvent::Decision(eq1_record(8)),
            RecordedEvent::Dispatch {
                at: SimTime::from_units_int(8),
                txn: TxnId(7),
                preempted: None,
            },
        ]);
        assert_eq!(bad.dispatch_decision_mismatches().len(), 1);
    }
}
