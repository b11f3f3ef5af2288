//! Observed runs: attach a flight recorder to a simulation and write its
//! artifacts (`flight.jsonl`, `metrics.prom`, `metrics.jsonl`) to a
//! directory.
//!
//! The figure runners stay uninstrumented — observation costs wall-clock
//! and the sweeps average hundreds of cells — so `--obs-out` instruments
//! **one representative run** per invocation instead: the general-case
//! workload at the highest configured utilization under ASETS\*, first
//! configured seed. That is the run whose decisions the paper's figures
//! hinge on, and the dump is what the `asets-obs` CLI answers questions
//! about.

use crate::config::ExpConfig;
use asets_core::obs::share;
use asets_core::policy::PolicyKind;
use asets_core::table::TxnTable;
use asets_core::time::SimDuration;
use asets_core::txn::TxnSpec;
use asets_obs::{FlightRecorder, SloMonitor, SpanRecorder, Timeline};
use asets_sim::{Engine, EventPump, SimResult};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Paths written by [`write_artifacts`].
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// The event dump (`flight.jsonl`).
    pub flight: PathBuf,
    /// Prometheus text metrics (`metrics.prom`).
    pub metrics_prom: PathBuf,
    /// JSON-lines metrics (`metrics.jsonl`).
    pub metrics_jsonl: PathBuf,
}

/// Run `specs` under `kind` with a flight recorder (ring size `capacity`)
/// attached to both engine and policy, trace recording on, and backlog
/// sampled once per simulated unit into the recorder's queue-depth
/// histogram.
pub fn run_observed(
    specs: Vec<TxnSpec>,
    kind: PolicyKind,
    capacity: usize,
) -> Result<(SimResult, FlightRecorder), asets_core::dag::DagError> {
    let table = TxnTable::new(specs)?;
    let policy = kind.build(&table);
    let pump = EventPump::new(table.specs());
    let rec = FlightRecorder::shared(capacity);
    let result = Engine::from_table(table, policy, pump)
        .with_trace()
        .with_backlog_sampling(SimDuration::from_units_int(1))
        .with_observer(share(&rec))
        .run();
    let mut recorder = Rc::try_unwrap(rec)
        .expect("engine dropped its observer handle")
        .into_inner();
    if let Some(series) = &result.backlog {
        recorder.ingest_backlog(series);
    }
    Ok((result, recorder))
}

/// Write the recorder's dump and both metric expositions into `dir`
/// (created if missing).
pub fn write_artifacts(dir: &Path, recorder: &FlightRecorder) -> std::io::Result<ObsArtifacts> {
    std::fs::create_dir_all(dir)?;
    let artifacts = ObsArtifacts {
        flight: dir.join("flight.jsonl"),
        metrics_prom: dir.join("metrics.prom"),
        metrics_jsonl: dir.join("metrics.jsonl"),
    };
    recorder.dump_to(&artifacts.flight)?;
    recorder.metrics_prometheus_to(&artifacts.metrics_prom)?;
    recorder.metrics_jsonl_to(&artifacts.metrics_jsonl)?;
    Ok(artifacts)
}

/// The `--obs-out` representative run: general-case Table I workload at the
/// highest configured utilization, ASETS\* (paper rule), first configured
/// seed. Returns a one-line summary for the console.
pub fn representative_run(cfg: &ExpConfig, dir: &Path) -> Result<String, String> {
    let util = cfg
        .utilizations
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !util.is_finite() {
        return Err("no utilization points configured".into());
    }
    let seed = *cfg.seeds.first().ok_or("no seeds configured")?;
    let spec = asets_workload::TableISpec {
        n_txns: cfg.n_txns,
        ..asets_workload::TableISpec::general_case(util)
    };
    let specs = asets_workload::generate(&spec, seed).map_err(|e| e.to_string())?;
    let (_result, recorder) = run_observed(specs, PolicyKind::asets_star(), usize::MAX / 2)
        .map_err(|e| format!("generated workload invalid: {e}"))?;
    let artifacts = write_artifacts(dir, &recorder).map_err(|e| e.to_string())?;
    Ok(format!(
        "observed {} at U={util:.1} seed {seed}: {} events ({} decisions, {} migrations) -> {}",
        PolicyKind::asets_star().label(),
        recorder.total_recorded(),
        recorder.metrics().counter("decisions_total"),
        recorder.metrics().counter("migrations_to_hdf_total")
            + recorder.metrics().counter("migrations_to_edf_total"),
        artifacts.flight.display()
    ))
}

/// Paths written by [`write_span_artifacts`].
#[derive(Debug, Clone)]
pub struct SpanArtifacts {
    /// Merged lifecycle span stream (`spans.jsonl`).
    pub spans: PathBuf,
    /// Chrome/Perfetto trace-event JSON (`trace.json`).
    pub trace: PathBuf,
    /// Merged flight-recorder dump (`flight.jsonl`).
    pub flight: PathBuf,
    /// SLO telemetry, Prometheus text (`slo.prom`).
    pub slo_prom: PathBuf,
    /// SLO telemetry, JSON lines (`slo.jsonl`).
    pub slo_jsonl: PathBuf,
}

/// Run `specs` under `kind` on a sharded runtime (K shards × M servers)
/// with a [`SpanRecorder`] on every shard: flight ring + lifecycle spans +
/// workflow snapshot, decision-seq links intact. Recorders come back
/// remapped to **global** transaction ids, in shard order.
pub fn run_traced(
    specs: Vec<TxnSpec>,
    kind: PolicyKind,
    shards: usize,
    servers: usize,
    capacity: usize,
) -> Result<(asets_sim::ShardedResult, Vec<SpanRecorder>), asets_core::dag::DagError> {
    let (result, mut recorders) = asets_sim::ShardedRuntime::new(specs, kind)
        .shards(shards)
        .servers(servers)
        .run_observed(|shard, table| {
            SpanRecorder::new(capacity)
                .with_shard(shard as u32)
                .with_workflows_from(table)
        })?;
    for (rec, run) in recorders.iter_mut().zip(&result.shards) {
        rec.remap_txns(&run.txns);
    }
    Ok((result, recorders))
}

/// Replay a merged timeline's completions (in finish order, ties by txn
/// id) into a fresh [`SloMonitor`] — the run-level SLO view the artifacts
/// and the `asets-obs slo` CLI both report.
pub fn slo_from_timeline(tl: &Timeline, window: usize) -> SloMonitor {
    let mut completions: Vec<_> = tl
        .txns()
        .filter_map(|(id, t)| t.completion.map(|c| (c.finish.ticks(), id.0, c)))
        .collect();
    completions.sort_by_key(|&(finish, id, _)| (finish, id));
    let mut slo = SloMonitor::with_window(window);
    for (_, _, info) in &completions {
        slo.record(info);
    }
    slo
}

/// Write a traced run's artifacts into `dir` (created if missing): the
/// merged span stream, the Perfetto trace, the merged flight dump, and
/// both SLO expositions.
pub fn write_span_artifacts(
    dir: &Path,
    recorders: &[SpanRecorder],
) -> std::io::Result<SpanArtifacts> {
    std::fs::create_dir_all(dir)?;
    let spans: Vec<_> = recorders.iter().map(|r| r.spans.clone()).collect();
    let flights: Vec<_> = recorders.iter().map(|r| r.flight.clone()).collect();
    let tl = Timeline::from_collectors(&spans);
    let slo = slo_from_timeline(&tl, asets_obs::DEFAULT_SLO_WINDOW);
    let artifacts = SpanArtifacts {
        spans: dir.join("spans.jsonl"),
        trace: dir.join("trace.json"),
        flight: dir.join("flight.jsonl"),
        slo_prom: dir.join("slo.prom"),
        slo_jsonl: dir.join("slo.jsonl"),
    };
    std::fs::write(&artifacts.spans, asets_obs::dump_spans(&spans))?;
    std::fs::write(&artifacts.trace, tl.to_perfetto())?;
    std::fs::write(&artifacts.flight, asets_obs::dump_sharded(&flights))?;
    std::fs::write(&artifacts.slo_prom, slo.to_prometheus())?;
    std::fs::write(&artifacts.slo_jsonl, slo.to_jsonl())?;
    Ok(artifacts)
}

/// The `repro spans` run: trace the deep-chain workload on a sharded
/// runtime and drop every span/SLO artifact into `dir`. Returns a console
/// summary. The trace is verified before it is written: span-interval
/// invariants against the merged run stats, and every workflow-level
/// decision against the span stream's membership snapshot.
pub fn spans_run(
    dir: &Path,
    n_txns: usize,
    shards: usize,
    servers: usize,
) -> Result<String, String> {
    let specs = asets_workload::deep_chains(n_txns, 25.min(n_txns.max(1)));
    let (result, recorders) = run_traced(
        specs,
        PolicyKind::asets_star(),
        shards,
        servers,
        usize::MAX / 2,
    )
    .map_err(|e| format!("deep-chain workload invalid: {e}"))?;

    let span_halves: Vec<_> = recorders.iter().map(|r| r.spans.clone()).collect();
    let tl = Timeline::from_collectors(&span_halves);
    let fails = tl.check(Some(result.merged.stats.preemptions));
    if !fails.is_empty() {
        return Err(format!("span invariants violated: {fails:?}"));
    }
    let flight_text = asets_obs::dump_sharded(
        &recorders
            .iter()
            .map(|r| r.flight.clone())
            .collect::<Vec<_>>(),
    );
    let dump = asets_obs::Dump::parse(&flight_text).map_err(|e| format!("flight dump: {e}"))?;
    let fails = dump.check_with_spans(&tl);
    if !fails.is_empty() {
        return Err(format!("decision checks failed: {fails:?}"));
    }

    let artifacts = write_span_artifacts(dir, &recorders).map_err(|e| e.to_string())?;
    let slo = slo_from_timeline(&tl, asets_obs::DEFAULT_SLO_WINDOW);
    Ok(format!(
        "traced {} txns over {shards} shard(s) x {servers} server(s): \
         {} preemptions, miss-ratio {:.4}, p95 tardiness {:.3} units -> {}",
        result.merged.stats.completed,
        result.merged.stats.preemptions,
        slo.miss_ratio(),
        slo.tardiness().quantile(0.95).unwrap_or(0) as f64
            / asets_core::time::TICKS_PER_UNIT as f64,
        artifacts.trace.display(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_obs::Dump;

    #[test]
    fn observed_run_dump_checks_clean() {
        let spec = asets_workload::TableISpec {
            n_txns: 60,
            ..asets_workload::TableISpec::general_case(0.9)
        };
        let specs = asets_workload::generate(&spec, 7).unwrap();
        let (result, recorder) = run_observed(specs, PolicyKind::asets_star(), 1 << 20).unwrap();
        assert_eq!(result.stats.completed, 60);
        assert!(recorder.metrics().counter("decisions_total") > 0);
        assert!(
            recorder
                .metrics()
                .histogram("queue_depth_ready")
                .unwrap()
                .count()
                > 0,
            "backlog folded into queue-depth histogram"
        );
        let dump = Dump::parse(&recorder.dump()).unwrap();
        assert!(dump.check().is_empty(), "{:?}", dump.check());
        assert!(dump.dispatch_decision_mismatches().is_empty());
    }

    #[test]
    fn artifacts_land_in_directory() {
        let dir = std::env::temp_dir().join("asets-obs-artifacts-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ExpConfig {
            seeds: vec![3],
            n_txns: 40,
            utilizations: vec![0.5, 0.9],
            ..ExpConfig::quick()
        };
        let line = representative_run(&cfg, &dir).unwrap();
        assert!(line.contains("U=0.9"), "{line}");
        for f in ["flight.jsonl", "metrics.prom", "metrics.jsonl"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let dump = Dump::load(&dir.join("flight.jsonl")).unwrap();
        assert!(dump.check().is_empty());
    }
}
