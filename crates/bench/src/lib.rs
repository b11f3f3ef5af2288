//! Shared helpers for the benchmark harness.
//!
//! Each `benches/*.rs` file regenerates one of the paper's tables or
//! figures as a criterion benchmark: the benched closure is exactly one
//! *simulation cell* of that figure (one workload seed under one policy),
//! so criterion's timings double as a record of how cheap the reproduction
//! is to re-run. Benchmark sizes are scaled down from the paper protocol
//! (which `repro` runs at full size) to keep `cargo bench --workspace` in
//! the minutes range.

pub mod artifact;

use asets_core::policy::PolicyKind;
use asets_core::txn::TxnSpec;
use asets_sim::{simulate, SimResult};
use asets_workload::{generate, TableISpec};

/// Batch size used by the figure benches.
pub const BENCH_N: usize = 300;
/// The seed used by the figure benches.
pub const BENCH_SEED: u64 = 101;

/// Generate one bench-sized Table I batch.
pub fn bench_workload(spec: &TableISpec) -> Vec<TxnSpec> {
    let spec = TableISpec {
        n_txns: BENCH_N,
        ..*spec
    };
    generate(&spec, BENCH_SEED).expect("valid bench spec")
}

/// Run one cell and return its result (the benched unit).
pub fn run_cell(specs: &[TxnSpec], policy: PolicyKind) -> SimResult {
    simulate(specs.to_vec(), policy).expect("bench workload is acyclic")
}

/// SplitMix64 finalizer — deterministic pseudo-randomization by index, so
/// bench workloads are reproducible without a RNG dependency.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deep interleaved dependency chains — the scaling and scale-out workload.
///
/// Shared by `scheduler_overhead` (the scaling claim), `observer_overhead`
/// (the no-op-observer gate) and `shard_scale` (the sharded-runtime gate) so
/// all three benches time the exact same workload. Now lives in the workload
/// crate ([`asets_workload::deep_chains`]); this wrapper keeps the bench
/// call sites and recorded baselines pointed at a byte-identical batch.
pub fn chain_workload(n: usize, chain_len: usize) -> Vec<TxnSpec> {
    asets_workload::deep_chains(n, chain_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_cell_runs() {
        let specs = bench_workload(&TableISpec::transaction_level(0.5));
        let r = run_cell(&specs, PolicyKind::asets_star());
        assert_eq!(r.outcomes.len(), BENCH_N);
    }

    #[test]
    fn chain_workload_links_interleaved_chains() {
        use asets_core::txn::TxnId;
        let specs = chain_workload(1_000, 100);
        assert_eq!(specs.len(), 1_000);
        let n_chains = 10;
        // Chain heads have no deps; every later member depends on the
        // transaction one stride back (same chain, previous position).
        for (i, s) in specs.iter().enumerate() {
            if i < n_chains {
                assert!(s.deps.is_empty(), "T{i} should be a chain head");
            } else {
                assert_eq!(s.deps, vec![TxnId((i - n_chains) as u32)]);
            }
        }
    }

    #[test]
    fn chain_workload_is_the_workload_crate_deep_chains() {
        // The recorded scheduler_overhead baselines assume this exact batch;
        // the delegation to asets-workload must stay byte-identical.
        assert_eq!(
            chain_workload(500, 50),
            asets_workload::deep_chains(500, 50)
        );
    }
}
