//! Analytical validation of the simulator against queueing theory.
//!
//! The Table I workload is literally an M/G/1 queue: Poisson arrivals at
//! rate λ = U/E[S], i.i.d. service times S (Zipf lengths). Classical
//! results then pin what a *correct* simulator must measure:
//!
//! * **FCFS** mean response time obeys Pollaczek–Khinchine:
//!   `E[T] = E[S] + λ·E[S²] / (2(1−ρ))` with `ρ = λ·E[S]`;
//! * the server's long-run **busy fraction** equals ρ;
//! * **SRPT** improves mean response time over FCFS (optimality);
//! * no policy, on any pool or shard count, beats one SRPT server of the
//!   combined speed on total flow time (an exact pathwise bound).
//!
//! These catch a whole class of engine bugs (service accounting, event
//! ordering, preemption arithmetic) that policy unit tests cannot see.

use asets_core::prelude::*;
use asets_sim::{simulate, RebalanceConfig, ShardedRuntime};
use asets_workload::{generate, TableISpec};
use proptest::prelude::*;

/// Empirical moments of the generated batch (the generator's λ uses the
/// empirical mean — DESIGN.md D10 — so the analytical prediction must too).
fn batch_moments(specs: &[asets_core::txn::TxnSpec]) -> (f64, f64) {
    let n = specs.len() as f64;
    let m1 = specs.iter().map(|s| s.length.as_units()).sum::<f64>() / n;
    let m2 = specs
        .iter()
        .map(|s| s.length.as_units().powi(2))
        .sum::<f64>()
        / n;
    (m1, m2)
}

#[test]
fn fcfs_matches_pollaczek_khinchine() {
    // Moderate load keeps relative confidence intervals tight at this n.
    for util in [0.3, 0.6] {
        let spec = TableISpec {
            n_txns: 30_000,
            ..TableISpec::transaction_level(util)
        };
        let mut measured = 0.0;
        let mut predicted = 0.0;
        for seed in [101u64, 202, 303] {
            let specs = generate(&spec, seed).unwrap();
            let (m1, m2) = batch_moments(&specs);
            let lambda = util / m1;
            let rho = lambda * m1; // == util by construction
            predicted += m1 + lambda * m2 / (2.0 * (1.0 - rho));
            let r = simulate(specs, PolicyKind::Fcfs).unwrap();
            measured += r.summary.avg_response_time;
        }
        measured /= 3.0;
        predicted /= 3.0;
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.08,
            "U={util}: measured E[T]={measured:.2}, P-K predicts {predicted:.2} (rel {rel:.3})"
        );
    }
}

#[test]
fn busy_fraction_matches_offered_load() {
    let util = 0.5;
    let spec = TableISpec {
        n_txns: 20_000,
        ..TableISpec::transaction_level(util)
    };
    let specs = generate(&spec, 404).unwrap();
    let r = simulate(specs, PolicyKind::Fcfs).unwrap();
    // Over the horizon up to the last *arrival*, the busy fraction tracks ρ
    // (the tail after the last arrival only drains).
    let busy = r.stats.busy.as_units();
    let horizon = r.stats.makespan.as_units();
    let rho_measured = busy / horizon;
    assert!(
        (rho_measured - util).abs() < 0.05,
        "busy fraction {rho_measured:.3} vs offered load {util}"
    );
}

#[test]
fn srpt_beats_fcfs_on_mean_response_time() {
    let spec = TableISpec {
        n_txns: 10_000,
        ..TableISpec::transaction_level(0.7)
    };
    let specs = generate(&spec, 505).unwrap();
    let fcfs = simulate(specs.clone(), PolicyKind::Fcfs).unwrap();
    let srpt = simulate(specs, PolicyKind::Srpt).unwrap();
    assert!(
        srpt.summary.avg_response_time < fcfs.summary.avg_response_time * 0.8,
        "SRPT {:.2} vs FCFS {:.2}: SRPT should win decisively under skewed service",
        srpt.summary.avg_response_time,
        fcfs.summary.avg_response_time
    );
}

#[test]
fn response_time_grows_superlinearly_with_load() {
    // 1/(1−ρ) growth: the U=0.9 queue must be far worse than 3× the U=0.3 one.
    let mut means = Vec::new();
    for util in [0.3, 0.9] {
        let spec = TableISpec {
            n_txns: 10_000,
            ..TableISpec::transaction_level(util)
        };
        let specs = generate(&spec, 606).unwrap();
        means.push(
            simulate(specs, PolicyKind::Fcfs)
                .unwrap()
                .summary
                .avg_response_time,
        );
    }
    assert!(
        means[1] > means[0] * 3.0,
        "U=0.9 {:.1} vs U=0.3 {:.1}",
        means[1],
        means[0]
    );
}

/// A random dependent, weighted batch with clustered arrivals, so servers
/// contend. Dependencies only point to earlier ids, so the batch is
/// acyclic by construction.
fn dependent_batch(max_n: usize) -> impl Strategy<Value = Vec<TxnSpec>> {
    proptest::collection::vec(
        (
            0u64..30, // arrival
            1u64..20, // length
            0u64..40, // extra slack beyond length
            1u32..10, // weight
            proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        1..max_n,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (arr, len, slack, w, deps))| {
                let arrival = SimTime::from_units_int(arr);
                let length = SimDuration::from_units_int(len);
                let mut deps: Vec<TxnId> = if i == 0 {
                    Vec::new()
                } else {
                    deps.into_iter()
                        .map(|idx| TxnId(idx.index(i) as u32))
                        .collect()
                };
                deps.sort_unstable();
                deps.dedup();
                TxnSpec {
                    arrival,
                    deadline: arrival + length + SimDuration::from_units_int(slack),
                    length,
                    weight: Weight(w),
                    deps,
                }
            })
            .collect::<Vec<_>>()
    })
}

/// Every policy kind the factory can build, including both impact rules
/// and both balance-aware activation modes.
fn all_kinds() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Fcfs,
        PolicyKind::Edf,
        PolicyKind::Srpt,
        PolicyKind::LeastSlack,
        PolicyKind::Hdf,
        PolicyKind::Asets,
        PolicyKind::Mix { gamma: 2.0 },
        PolicyKind::Hvf,
        PolicyKind::LoadSwitch {
            threshold: 0.75,
            window: 10.0,
        },
        PolicyKind::Ready,
        PolicyKind::asets_star(),
        PolicyKind::AsetsStar {
            impact: ImpactRule::Symmetric,
        },
        PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::time_rate(0.01),
        },
        PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::count_rate(0.1),
        },
    ]
}

/// Total flow time `Σ (f_i − a_i)` of a run, in ticks.
fn total_flow(outcomes: &[TxnOutcome]) -> u128 {
    outcomes
        .iter()
        .map(|o| u128::from(o.finish.ticks() - o.arrival.ticks()))
        .sum()
}

/// `Σ (f*_i − p·a_i)`: the total flow time, in ticks, of one-server SRPT on
/// `specs` with dependencies dropped and every instant stretched by `p`.
fn stretched_srpt_flow(specs: &[TxnSpec], p: u64) -> u128 {
    let stretched: Vec<TxnSpec> = specs
        .iter()
        .map(|s| TxnSpec {
            arrival: SimTime::from_ticks(s.arrival.ticks() * p),
            deadline: SimTime::from_ticks(s.deadline.ticks() * p),
            deps: Vec::new(),
            ..s.clone()
        })
        .collect();
    total_flow(&simulate(stretched, PolicyKind::Srpt).unwrap().outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No schedule on P = K·M unit-speed servers beats one SRPT server of
    /// speed P on total flow time: `P·Σ(f_i − a_i) ≥ Σ(f*_i − P·a_i)`,
    /// exactly, in integer ticks. A speed-P server can run any P-server
    /// schedule by sharing itself among the running transactions, so the
    /// left side is the flow time of a feasible one-server schedule once
    /// time is stretched by P; single-machine preemptive SRPT minimizes
    /// total flow time, and dropping dependencies only relaxes the
    /// problem. The bound holds for every policy, pool size and sharded
    /// driver, including ASETS\*, for which no closed form exists.
    #[test]
    fn no_schedule_beats_one_fast_srpt_server(
        specs in dependent_batch(40),
        epoch in 2u64..12,
    ) {
        let n = specs.len();
        let rebalance = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch))
            .with_steal(2);
        // (shards, rebalanced): the plain engine (K = 1), static splits,
        // and the threaded driver with migration and stealing.
        for (k, rebalanced) in [(1usize, false), (2, false), (4, false), (2, true)] {
            for m in [1usize, 2, 4] {
                let p = (k * m) as u64;
                let bound = stretched_srpt_flow(&specs, p);
                for kind in all_kinds() {
                    let mut rt = ShardedRuntime::new(specs.clone(), kind)
                        .shards(k)
                        .servers(m);
                    if rebalanced {
                        rt = rt.rebalance(rebalance);
                    }
                    let r = rt.run().expect("acyclic");
                    prop_assert_eq!(r.merged.outcomes.len(), n);
                    let flow = u128::from(p) * total_flow(&r.merged.outcomes);
                    prop_assert!(
                        flow >= bound,
                        "{} at K={} M={} (rebalanced: {}): P·flow {} < stretched SRPT {}",
                        kind.label(),
                        k,
                        m,
                        rebalanced,
                        flow,
                        bound
                    );
                }
            }
        }
    }
}
