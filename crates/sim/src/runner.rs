//! Convenience entry points for running simulations.
//!
//! The experiment harness and the examples almost always want one of two
//! things: "run this batch under this policy" ([`simulate`]) or "run it
//! under several policies and compare" ([`compare_policies`]). Both wrap
//! [`Engine`] with the policy factory from `asets-core`.

use crate::engine::{Engine, EventPump, SimResult};
use asets_core::dag::DagError;
use asets_core::policy::{PolicyKind, Scheduler};
use asets_core::table::TxnTable;
use asets_core::txn::TxnSpec;

/// Run `specs` to completion under `kind`.
pub fn simulate(specs: Vec<TxnSpec>, kind: PolicyKind) -> Result<SimResult, DagError> {
    Ok(engine_for(specs, kind)?.run())
}

/// Run `specs` under `kind` with trace recording.
pub fn simulate_traced(specs: Vec<TxnSpec>, kind: PolicyKind) -> Result<SimResult, DagError> {
    Ok(engine_for(specs, kind)?.with_trace().run())
}

/// One table built from the moved specs serves both the policy factory
/// (workflow structure) and the engine.
fn engine_for(
    specs: Vec<TxnSpec>,
    kind: PolicyKind,
) -> Result<Engine<Box<dyn Scheduler>>, DagError> {
    let table = TxnTable::new(specs)?;
    let policy = kind.build(&table);
    let pump = EventPump::new(table.specs());
    Ok(Engine::from_table(table, policy, pump))
}

/// Run `specs` under a caller-constructed policy (custom configurations).
pub fn simulate_with<S: Scheduler>(specs: Vec<TxnSpec>, policy: S) -> Result<SimResult, DagError> {
    Ok(Engine::new(specs, policy)?.run())
}

/// Run `specs` under `kind` with `obs` attached to both the engine (trace
/// events, scheduling-point latency) and the policy (decision/migration
/// provenance). Trace recording is enabled too, so callers can cross-check
/// dispatches against decision records.
pub fn simulate_observed(
    specs: Vec<TxnSpec>,
    kind: PolicyKind,
    obs: asets_core::obs::SharedObserver,
) -> Result<SimResult, DagError> {
    Ok(engine_for(specs, kind)?
        .with_trace()
        .with_observer(obs)
        .run())
}

/// Run the same batch under each policy and return the results in order.
pub fn compare_policies(
    specs: &[TxnSpec],
    kinds: &[PolicyKind],
) -> Result<Vec<(PolicyKind, SimResult)>, DagError> {
    kinds
        .iter()
        .map(|&k| simulate(specs.to_vec(), k).map(|r| (k, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_core::time::{SimDuration, SimTime};
    use asets_core::txn::{TxnId, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn ind(arr: u64, dl: u64, len: u64) -> TxnSpec {
        TxnSpec::independent(
            at(arr),
            at(dl),
            SimDuration::from_units_int(len),
            Weight::ONE,
        )
    }

    #[test]
    fn simulate_runs_every_policy_kind() {
        let specs = vec![
            ind(0, 5, 4),
            TxnSpec {
                deps: vec![TxnId(0)],
                ..ind(1, 9, 3)
            },
            ind(2, 4, 2),
        ];
        use asets_core::policy::{ActivationMode, ImpactRule};
        let kinds = [
            PolicyKind::Fcfs,
            PolicyKind::Edf,
            PolicyKind::Srpt,
            PolicyKind::LeastSlack,
            PolicyKind::Hdf,
            PolicyKind::Asets,
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
        ];
        for (kind, result) in compare_policies(&specs, &kinds).unwrap() {
            assert_eq!(result.outcomes.len(), specs.len(), "{}", kind.label());
            assert_eq!(result.stats.completed, specs.len() as u64);
        }
    }

    #[test]
    fn traced_run_produces_events() {
        let r = simulate_traced(vec![ind(0, 5, 1)], PolicyKind::Edf).unwrap();
        assert!(r.trace.is_some());
        assert_eq!(r.trace.unwrap().completion_order(), vec![TxnId(0)]);
    }

    #[test]
    fn cycle_is_reported_not_panicked() {
        let specs = vec![
            TxnSpec {
                deps: vec![TxnId(1)],
                ..ind(0, 5, 1)
            },
            TxnSpec {
                deps: vec![TxnId(0)],
                ..ind(0, 5, 1)
            },
        ];
        assert!(simulate(specs, PolicyKind::Edf).is_err());
    }
}
