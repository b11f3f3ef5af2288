//! `epoch_profile` — side-by-side timing of per-event and epoch-coalesced
//! maintenance on the deep-workflow stress workload, with the bit-identity
//! contract asserted on every run.
//!
//! ```text
//! epoch_profile [n_txns] [chain_len] [out.json]
//! ```
//!
//! Runs ASETS\* over `chain_workload(n_txns, chain_len)` twice — with its
//! coalesced `on_batch` pass, and hook by hook under [`PerEvent`] — (best
//! of three runs each), verifies outcomes/stats/summary/epochs are
//! identical, prints a human-readable comparison, and writes a
//! provenance-stamped flat-JSON artifact (same line shape as the criterion
//! shim summaries, so `asets_bench::artifact::mean_ns` reads either file).
//! Default output path: `BENCH_epoch_profile.json`.

use asets_bench::{artifact, chain_workload};
use asets_core::policy::reference::PerEvent;
use asets_core::policy::PolicyKind;
use asets_core::table::TxnTable;
use asets_core::txn::TxnSpec;
use asets_sim::{simulate_with, SimResult};
use std::time::Instant;

const REPS: usize = 3;

/// One ASETS\* run over `specs`, coalesced or under [`PerEvent`].
fn run(specs: &[TxnSpec], per_event: bool) -> SimResult {
    let table = TxnTable::new(specs.to_vec()).expect("chain workload is acyclic");
    let policy = PolicyKind::asets_star().build(&table);
    if per_event {
        simulate_with(specs.to_vec(), PerEvent(policy))
    } else {
        simulate_with(specs.to_vec(), policy)
    }
    .expect("chain workload is acyclic")
}

fn best_of(specs: &[TxnSpec], per_event: bool) -> (f64, SimResult) {
    let mut best: Option<(f64, SimResult)> = None;
    for _ in 0..REPS {
        let started = Instant::now();
        let r = run(specs, per_event);
        let dt = started.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| dt < *b) {
            best = Some((dt, r));
        }
    }
    best.expect("REPS > 0")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args
        .first()
        .map(|s| s.parse().expect("n_txns"))
        .unwrap_or(100_000);
    let chain_len: usize = args
        .get(1)
        .map(|s| s.parse().expect("chain_len"))
        .unwrap_or(100);
    let out_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "BENCH_epoch_profile.json".to_string());

    let specs = chain_workload(n, chain_len);
    let (per_event_s, base) = best_of(&specs, true);
    let (batched_s, fast) = best_of(&specs, false);

    // The profile is only meaningful if the two agree bit for bit.
    assert_eq!(fast.outcomes, base.outcomes, "batched outcomes diverged");
    assert_eq!(fast.stats, base.stats, "batched stats diverged");
    assert_eq!(fast.summary, base.summary, "batched summary diverged");
    assert_eq!(fast.epochs, base.epochs, "epoch telemetry diverged");

    let speedup = per_event_s / batched_s;
    let e = fast.epochs;
    println!("workload: {n} txns in {chain_len}-member chains");
    println!("per-event: {per_event_s:.3}s   batched: {batched_s:.3}s   speedup: {speedup:.2}x");
    println!(
        "epochs={} events={} max_width={} avg_width={:.2} points={}",
        e.epochs,
        e.events,
        e.max_epoch_width,
        e.events as f64 / e.epochs.max(1) as f64,
        fast.stats.scheduling_points,
    );

    let mut out = artifact::header("epoch_profile");
    out.push_str("  \"results\": [\n");
    let rows = [("per_event", per_event_s), ("batched", batched_s)];
    for (mode, secs) in rows {
        out.push_str(&format!(
            "    {{\"group\": \"epoch_profile\", \"id\": \"{mode}/{chain_len}\", \
             \"mean_ns\": {:.1}, \"n_txns\": {n}, \"epochs\": {}, \"events\": {}, \
             \"max_epoch_width\": {}}},\n",
            secs * 1e9,
            e.epochs,
            e.events,
            e.max_epoch_width,
        ));
    }
    out.push_str(&format!(
        "    {{\"group\": \"epoch_profile\", \"id\": \"speedup/{chain_len}\", \
         \"mean_ns\": {:.4}, \"n_txns\": {n}}}\n  ]\n}}\n",
        speedup,
    ));
    std::fs::write(&out_path, out).expect("write epoch profile artifact");
    println!("epoch profile written to {out_path}");
}
