//! Workflow-preserving shard partitioning.
//!
//! The sharded runtime (in `asets-sim`) runs K independent single- or
//! multi-server engines, one per shard, each with its own policy instance
//! and [`crate::table::TxnTable`]. For that to be semantically sound a shard
//! must own *whole workflows*: every dependency edge must stay inside one
//! shard, otherwise a transaction could wait on a predecessor another shard
//! owns and the per-shard engines would deadlock or diverge from the paper's
//! single-queue semantics.
//!
//! The unit of placement is therefore the *weakly connected component* of
//! the dependency graph — the transitive closure of "shares a workflow
//! with" (paper §II-A workflows can share members, e.g. Fig. 1's shared
//! leaf, so a component can span several workflow roots). Each component is
//! identified by its **routing key**: the smallest transaction id in the
//! component, which is stable under re-ordering of the dependency lists and
//! cheap to compute with a union-find pass.
//!
//! Assignment is deterministic: components are placed largest-first
//! (ties toward the smaller routing key) onto the currently least-loaded
//! shard (ties toward the smaller shard index) — classic LPT balancing,
//! reproducible for a given batch. With `k == 1` the plan is the identity:
//! one slice containing every transaction with unchanged ids, which is what
//! the K=1 bit-for-bit determinism oracle relies on.

use crate::txn::{TxnId, TxnSpec};

/// One shard's share of a batch: a self-contained spec slice with
/// dependencies remapped to the slice-local dense id space.
#[derive(Debug, Clone)]
pub struct ShardSlice {
    /// The shard's transactions, re-indexed so `specs[i]` is local
    /// `TxnId(i)`; dependency lists are rewritten to local ids.
    pub specs: Vec<TxnSpec>,
    /// Local id → global id. Ascending: local order preserves global order.
    pub to_global: Vec<TxnId>,
}

impl ShardSlice {
    /// Number of transactions in the slice.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True iff the slice holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// A deterministic assignment of a batch onto `k` shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// One slice per shard. Slices can be empty when there are fewer
    /// components than shards.
    pub slices: Vec<ShardSlice>,
    /// Global id → shard index.
    pub shard_of: Vec<u32>,
}

/// The routing key of every transaction: the smallest transaction id in its
/// weakly connected dependency component. Transactions with equal keys must
/// land on the same shard; independent transactions are their own key.
///
/// Dependency entries that are out of range or self-referential are ignored
/// here — [`crate::dag::DepDag::build`] is the validator and reports them
/// properly; this pass only needs to be total.
pub fn routing_keys(specs: &[TxnSpec]) -> Vec<u32> {
    let n = specs.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            // Path halving: point at the grandparent while walking up.
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for (i, spec) in specs.iter().enumerate() {
        for &d in &spec.deps {
            if d.index() >= n || d.index() == i {
                continue;
            }
            let a = find(&mut parent, i as u32);
            let b = find(&mut parent, d.0);
            if a != b {
                // The smaller id stays root, so the final root of every
                // component is its minimum member — the routing key.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|i| find(&mut parent, i)).collect()
}

/// Partition `specs` onto `k` shards, keeping every dependency component
/// whole. See the module docs for the placement rule.
///
/// # Panics
/// If `k == 0`.
pub fn partition(specs: &[TxnSpec], k: usize) -> ShardPlan {
    assert!(k >= 1, "shard count must be at least 1");
    let n = specs.len();
    let keys = routing_keys(specs);

    // Components in routing-key order, members ascending (ids are scanned
    // in order and appended).
    let mut members_of: std::collections::BTreeMap<u32, Vec<u32>> =
        std::collections::BTreeMap::new();
    for (i, &key) in keys.iter().enumerate() {
        members_of.entry(key).or_default().push(i as u32);
    }

    // LPT placement: largest component first (ties toward the smaller
    // routing key), onto the least-loaded shard (ties toward the smaller
    // shard index).
    let mut order: Vec<(&u32, &Vec<u32>)> = members_of.iter().collect();
    order.sort_by_key(|(key, members)| (std::cmp::Reverse(members.len()), **key));
    let mut shard_members: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut load = vec![0usize; k];
    for (_, members) in order {
        let target = (0..k).min_by_key(|&s| (load[s], s)).expect("k >= 1");
        load[target] += members.len();
        shard_members[target].extend_from_slice(members);
    }

    // Materialize slices: members ascending so local order preserves global
    // order (and k == 1 is the identity mapping).
    let mut shard_of = vec![0u32; n];
    let mut to_local = vec![0u32; n];
    let mut slices = Vec::with_capacity(k);
    for (s, mut members) in shard_members.into_iter().enumerate() {
        members.sort_unstable();
        for (local, &g) in members.iter().enumerate() {
            shard_of[g as usize] = s as u32;
            to_local[g as usize] = local as u32;
        }
        let mut slice_specs = Vec::with_capacity(members.len());
        for &g in &members {
            let mut spec = specs[g as usize].clone();
            for d in &mut spec.deps {
                if d.index() < n {
                    *d = TxnId(to_local[d.index()]);
                }
                // Out-of-range deps are preserved as-is: they are invalid in
                // any id space and DepDag::build will reject the slice just
                // as it rejects the original batch.
            }
            slice_specs.push(spec);
        }
        slices.push(ShardSlice {
            specs: slice_specs,
            to_global: members.into_iter().map(TxnId).collect(),
        });
    }
    ShardPlan { slices, shard_of }
}

/// A dependency component eligible for migration between shards, as seen by
/// the online rebalancer: identified by its routing key, owned by one shard,
/// carrying some amount of not-yet-served work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovableComponent {
    /// Routing key (smallest global transaction id in the component).
    pub key: u32,
    /// Shard that currently owns the component.
    pub owner: u32,
    /// Remaining work in the component, in ticks.
    pub work: u64,
}

/// One planned whole-component migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentMove {
    /// Routing key of the component to move.
    pub key: u32,
    /// Source shard.
    pub from: u32,
    /// Destination shard.
    pub to: u32,
    /// Remaining work moved, in ticks.
    pub work: u64,
}

/// Plan a deterministic backlog-driven rebalance: given each shard's backlog
/// gauge (remaining work, in ticks) and the set of components that are safe
/// to move (fully unarrived — the runtime decides eligibility), produce
/// whole-component moves that monotonically shrink the spread.
///
/// Greedy rule, mirroring the static LPT pass: consider candidates
/// largest-work first (ties toward the smaller routing key); send each to
/// the currently least-loaded shard (ties toward the smaller index) iff
/// `2·work ≤ load[owner] − load[target]`, so every applied move strictly
/// reduces the owner/target gap and never overshoots — the plan cannot
/// oscillate across epochs. Each component is considered exactly once.
///
/// An applied move never widens the max−min spread: the owner drops by
/// `work` yet stays at or above the target, which rises from the minimum by
/// `work`. Every later gap is therefore bounded by the initial spread, so a
/// candidate with `2·work` above it can never move and is dropped before
/// the sort — the plan is unchanged, and a balanced boundary with many
/// future components costs one linear filter instead of a sort.
pub fn plan_rebalance(loads: &[u64], movable: &[MovableComponent]) -> Vec<ComponentMove> {
    let k = loads.len();
    if k < 2 {
        return Vec::new();
    }
    let mut load = loads.to_vec();
    let spread = load.iter().max().expect("k >= 2") - load.iter().min().expect("k >= 2");
    let mut order: Vec<MovableComponent> = movable
        .iter()
        .filter(|m| m.work > 0 && 2 * m.work <= spread)
        .copied()
        .collect();
    order.sort_by_key(|m| (std::cmp::Reverse(m.work), m.key));
    let mut moves = Vec::new();
    for m in order {
        debug_assert!((m.owner as usize) < k, "owner shard out of range");
        let target = (0..k).min_by_key(|&s| (load[s], s)).expect("k >= 2") as u32;
        if target == m.owner {
            continue;
        }
        let gap = load[m.owner as usize] - load[target as usize];
        if 2 * m.work <= gap {
            load[m.owner as usize] -= m.work;
            load[target as usize] += m.work;
            moves.push(ComponentMove {
                key: m.key,
                from: m.owner,
                to: target,
                work: m.work,
            });
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::txn::Weight;
    use proptest::prelude::*;

    fn ind(arr: u64) -> TxnSpec {
        TxnSpec::independent(
            SimTime::from_units_int(arr),
            SimTime::from_units_int(arr + 10),
            SimDuration::from_units_int(1),
            Weight::ONE,
        )
    }

    fn dep(arr: u64, deps: &[u32]) -> TxnSpec {
        TxnSpec {
            deps: deps.iter().map(|&d| TxnId(d)).collect(),
            ..ind(arr)
        }
    }

    #[test]
    fn routing_keys_follow_components() {
        // Two chains 0->2->4 and 1->3, plus the loner 5.
        let specs = vec![
            ind(0),
            ind(0),
            dep(0, &[0]),
            dep(0, &[1]),
            dep(0, &[2]),
            ind(0),
        ];
        assert_eq!(routing_keys(&specs), vec![0, 1, 0, 1, 0, 5]);
    }

    #[test]
    fn shared_leaf_merges_workflows_into_one_component() {
        // Fig. 1 shape: two roots sharing leaf T0 — one component, key 0.
        let specs = vec![ind(0), dep(0, &[0]), dep(0, &[0])];
        assert_eq!(routing_keys(&specs), vec![0, 0, 0]);
    }

    #[test]
    fn k1_partition_is_identity() {
        let specs = vec![ind(0), dep(1, &[0]), ind(2), dep(3, &[2, 1])];
        let plan = partition(&specs, 1);
        assert_eq!(plan.slices.len(), 1);
        assert_eq!(plan.slices[0].specs, specs);
        assert_eq!(
            plan.slices[0].to_global,
            (0..4).map(TxnId).collect::<Vec<_>>()
        );
        assert!(plan.shard_of.iter().all(|&s| s == 0));
    }

    #[test]
    fn dependencies_never_cross_shards() {
        // 8 chains of 3, partitioned 3 ways.
        let mut specs = Vec::new();
        for c in 0..8u32 {
            let base = specs.len() as u32;
            specs.push(ind(c as u64));
            specs.push(dep(c as u64, &[base]));
            specs.push(dep(c as u64, &[base + 1]));
        }
        let plan = partition(&specs, 3);
        for (i, spec) in specs.iter().enumerate() {
            for d in &spec.deps {
                assert_eq!(
                    plan.shard_of[i],
                    plan.shard_of[d.index()],
                    "dep edge {i}->{d} crosses shards"
                );
            }
        }
        // Slices are internally consistent: remapped deps resolve to the
        // same global transactions.
        for slice in &plan.slices {
            for (local, spec) in slice.specs.iter().enumerate() {
                let global = slice.to_global[local];
                for (ld, gd) in spec.deps.iter().zip(&specs[global.index()].deps) {
                    assert_eq!(slice.to_global[ld.index()], *gd);
                }
            }
        }
    }

    #[test]
    fn lpt_balances_uneven_components() {
        // Components of sizes 4, 2, 1, 1 over 2 shards: LPT gives 4 vs 2+1+1.
        let specs = vec![
            ind(0),
            dep(0, &[0]),
            dep(0, &[1]),
            dep(0, &[2]), // size 4, key 0
            ind(0),
            dep(0, &[4]), // size 2, key 4
            ind(0),       // key 6
            ind(0),       // key 7
        ];
        let plan = partition(&specs, 2);
        let mut sizes: Vec<usize> = plan.slices.iter().map(|s| s.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![4, 4]);
    }

    #[test]
    fn more_shards_than_components_leaves_empty_slices() {
        let specs = vec![ind(0), dep(0, &[0])];
        let plan = partition(&specs, 4);
        assert_eq!(plan.slices.len(), 4);
        assert_eq!(plan.slices.iter().filter(|s| !s.is_empty()).count(), 1);
        assert_eq!(plan.slices.iter().map(ShardSlice::len).sum::<usize>(), 2);
    }

    #[test]
    fn empty_batch_partitions_trivially() {
        let plan = partition(&[], 3);
        assert_eq!(plan.slices.len(), 3);
        assert!(plan.slices.iter().all(ShardSlice::is_empty));
        assert!(plan.shard_of.is_empty());
    }

    fn mov(key: u32, owner: u32, work: u64) -> MovableComponent {
        MovableComponent { key, owner, work }
    }

    #[test]
    fn rebalance_moves_work_off_the_backlogged_shard() {
        // Shard 0 drowning, shard 1 idle; two movable components on 0.
        let moves = plan_rebalance(&[100, 0], &[mov(3, 0, 30), mov(7, 0, 10)]);
        assert_eq!(
            moves,
            vec![
                ComponentMove {
                    key: 3,
                    from: 0,
                    to: 1,
                    work: 30
                },
                ComponentMove {
                    key: 7,
                    from: 0,
                    to: 1,
                    work: 10
                },
            ]
        );
    }

    #[test]
    fn rebalance_never_overshoots() {
        // Moving 30 across a gap of 40 would leave 10 vs 60 — worse spread
        // direction reversal is forbidden by the 2·work ≤ gap rule.
        assert!(plan_rebalance(&[40, 0], &[mov(0, 0, 30)]).is_empty());
        // Gap of exactly 2·work is allowed: lands perfectly balanced.
        assert_eq!(plan_rebalance(&[60, 0], &[mov(0, 0, 30)]).len(), 1);
    }

    #[test]
    fn rebalance_is_a_no_op_when_balanced() {
        assert!(plan_rebalance(&[50, 50, 50], &[mov(0, 0, 10), mov(1, 1, 10)]).is_empty());
        assert!(plan_rebalance(&[100], &[mov(0, 0, 50)]).is_empty());
        assert!(plan_rebalance(&[], &[]).is_empty());
    }

    #[test]
    fn rebalance_largest_first_ties_toward_smaller_key_and_shard() {
        // Equal-work candidates: key order decides who moves first; the two
        // equally idle shards are filled smaller-index first.
        let moves = plan_rebalance(&[80, 0, 0], &[mov(9, 0, 20), mov(4, 0, 20)]);
        assert_eq!(moves.len(), 2);
        assert_eq!((moves[0].key, moves[0].to), (4, 1));
        assert_eq!((moves[1].key, moves[1].to), (9, 2));
    }

    #[test]
    fn rebalance_skips_zero_work_components() {
        assert!(plan_rebalance(&[10, 0], &[mov(0, 0, 0)]).is_empty());
    }

    /// The greedy without the spread filter: every candidate sorted and
    /// offered the gap test.
    fn unfiltered_plan(loads: &[u64], movable: &[MovableComponent]) -> Vec<ComponentMove> {
        let k = loads.len();
        if k < 2 {
            return Vec::new();
        }
        let mut load = loads.to_vec();
        let mut order = movable.to_vec();
        order.sort_by_key(|m| (std::cmp::Reverse(m.work), m.key));
        let mut moves = Vec::new();
        for m in order {
            if m.work == 0 {
                continue;
            }
            let target = (0..k).min_by_key(|&s| (load[s], s)).expect("k >= 2") as u32;
            if target == m.owner {
                continue;
            }
            if 2 * m.work <= load[m.owner as usize] - load[target as usize] {
                load[m.owner as usize] -= m.work;
                load[target as usize] += m.work;
                moves.push(ComponentMove {
                    key: m.key,
                    from: m.owner,
                    to: target,
                    work: m.work,
                });
            }
        }
        moves
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dropping candidates wider than the spread never changes the plan.
        #[test]
        fn spread_filter_keeps_the_greedy_plan(
            loads in proptest::collection::vec(0u64..400, 1..6),
            comps in proptest::collection::vec((0u32..8, 0u64..120), 0..40),
        ) {
            let k = loads.len() as u32;
            let movable: Vec<MovableComponent> = comps
                .iter()
                .enumerate()
                .map(|(i, &(owner, work))| mov(i as u32, owner % k, work))
                .collect();
            prop_assert_eq!(
                plan_rebalance(&loads, &movable),
                unfiltered_plan(&loads, &movable)
            );
        }
    }
}
