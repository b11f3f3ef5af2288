//! The dependency DAG over a batch of transactions.
//!
//! Dependency lists (`T_x -> T_y` meaning "`T_y` depends on `T_x`") induce a
//! directed graph; the paper requires it to be acyclic (a workflow is a
//! partial order of transaction execution, §II-A). This module builds the
//! graph once from a slice of [`TxnSpec`]s, validates it, and answers the
//! structural questions the scheduler and the workflow extractor need:
//! successors, predecessors, roots, leaves, ancestor sets, and a
//! deterministic topological order.

use crate::csr::Csr;
use crate::txn::{TxnId, TxnSpec};
use std::fmt;

/// Errors detected while validating a dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A dependency list referenced a transaction id outside the batch.
    UnknownTxn {
        /// The transaction whose dependency list is bad.
        txn: TxnId,
        /// The referenced id that is not in the batch.
        dep: TxnId,
    },
    /// A transaction listed itself as its own predecessor.
    SelfDependency(TxnId),
    /// The same predecessor appeared twice in one dependency list.
    DuplicateDependency {
        /// The transaction whose dependency list is bad.
        txn: TxnId,
        /// The duplicated predecessor.
        dep: TxnId,
    },
    /// The graph contains a cycle (witnessed by one transaction on it).
    Cycle(TxnId),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownTxn { txn, dep } => {
                write!(f, "{txn} depends on {dep}, which is not in the batch")
            }
            DagError::SelfDependency(t) => write!(f, "{t} depends on itself"),
            DagError::DuplicateDependency { txn, dep } => {
                write!(f, "{txn} lists {dep} twice in its dependency list")
            }
            DagError::Cycle(t) => write!(f, "dependency cycle through {t}"),
        }
    }
}

impl std::error::Error for DagError {}

/// The ids in `0..n` passing `keep`, ascending, in one exact allocation.
fn ids_where(n: usize, keep: impl Fn(usize) -> bool) -> Vec<TxnId> {
    let mut ids = Vec::with_capacity((0..n).filter(|&i| keep(i)).count());
    ids.extend((0..n).filter(|&i| keep(i)).map(|i| TxnId(i as u32)));
    ids
}

/// An immutable, validated dependency DAG.
///
/// Predecessor and successor lists are stored flat ([`Csr`]), so a build
/// costs a constant number of allocations however large the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDag {
    /// Row `i` = dependency list of `TxnId(i)`, sorted ascending.
    preds: Csr<TxnId>,
    /// Row `i` = transactions that depend directly on `TxnId(i)`,
    /// ascending (release order follows it).
    succs: Csr<TxnId>,
    /// Transactions appearing in no dependency list (workflow roots).
    roots: Vec<TxnId>,
    /// Transactions with empty dependency lists (workflow leaves /
    /// independent transactions).
    leaves: Vec<TxnId>,
    /// A topological order (predecessors before successors), deterministic
    /// for a given input (Kahn's algorithm with an id-ordered frontier).
    topo: Vec<TxnId>,
}

impl DepDag {
    /// Build and validate the DAG for a batch of specs, where `specs[i]`
    /// describes `TxnId(i)`.
    ///
    /// Errors name the first failing transaction by id; within one
    /// dependency list a duplicate is reported before an unknown id or a
    /// self dependency, and those two in ascending dependency order.
    pub fn build(specs: &[TxnSpec]) -> Result<DepDag, DagError> {
        let n = specs.len();
        let edges: usize = specs.iter().map(|s| s.deps.len()).sum();
        let mut preds: Csr<TxnId> = Csr::with_capacity(n, edges);
        // Successor count per transaction, then (below) the Kahn indegree.
        let mut counts = vec![0u32; n];

        for (i, spec) in specs.iter().enumerate() {
            let me = TxnId(i as u32);
            preds.extend_from_slice(&spec.deps);
            let deps = preds.open_row_mut();
            deps.sort_unstable();
            for w in deps.windows(2) {
                if w[0] == w[1] {
                    return Err(DagError::DuplicateDependency { txn: me, dep: w[0] });
                }
            }
            for &d in deps.iter() {
                if d.index() >= n {
                    return Err(DagError::UnknownTxn { txn: me, dep: d });
                }
                if d == me {
                    return Err(DagError::SelfDependency(me));
                }
                counts[d.index()] += 1;
            }
            preds.close_row();
        }

        // Scatter every edge into its predecessor's successor row. Visiting
        // dependents in id order leaves each row ascending.
        let mut succs = Csr::from_counts(&counts, TxnId(0));
        let mut cursor = succs.starts().to_vec();
        for i in 0..n {
            for &d in preds.row(i) {
                succs.items_mut()[cursor[d.index()] as usize] = TxnId(i as u32);
                cursor[d.index()] += 1;
            }
        }

        // Kahn's algorithm with `topo` as the FIFO frontier: it starts as
        // the id-sorted sources and every release appends, so the order
        // matches a queue seeded in id order.
        for (i, c) in counts.iter_mut().enumerate() {
            *c = preds.row(i).len() as u32;
        }
        let indegree = &mut counts;
        let mut topo: Vec<TxnId> = Vec::with_capacity(n);
        topo.extend(
            (0..n as u32)
                .map(TxnId)
                .filter(|t| indegree[t.index()] == 0),
        );
        let mut head = 0;
        while head < topo.len() {
            let t = topo[head];
            head += 1;
            for &s in succs.row(t.index()) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    topo.push(s);
                }
            }
        }
        if topo.len() != n {
            // Some transaction still has positive indegree: it lies on (or
            // downstream of) a cycle. Report the smallest such id.
            let witness = (0..n as u32)
                .map(TxnId)
                .find(|t| indegree[t.index()] > 0)
                .expect("topo shortfall implies a positive-indegree node");
            return Err(DagError::Cycle(witness));
        }

        let roots = ids_where(n, |i| succs.row(i).is_empty());
        let leaves = ids_where(n, |i| preds.row(i).is_empty());

        Ok(DepDag {
            preds,
            succs,
            roots,
            leaves,
            topo,
        })
    }

    /// Number of transactions in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.len() == 0
    }

    /// Direct predecessors (the deduplicated dependency list) of `t`.
    #[inline]
    pub fn preds(&self, t: TxnId) -> &[TxnId] {
        self.preds.row(t.index())
    }

    /// Direct successors of `t` (transactions whose dependency list
    /// contains `t`), ascending by id.
    #[inline]
    pub fn succs(&self, t: TxnId) -> &[TxnId] {
        self.succs.row(t.index())
    }

    /// Workflow roots: transactions that appear in no dependency list
    /// (paper §II-A: "a workflow is defined for every transaction that does
    /// not appear in any dependency list").
    #[inline]
    pub fn roots(&self) -> &[TxnId] {
        &self.roots
    }

    /// Independent transactions (empty dependency list); in a workflow these
    /// are the leaves.
    #[inline]
    pub fn leaves(&self) -> &[TxnId] {
        &self.leaves
    }

    /// A deterministic topological order: every transaction appears after
    /// all of its predecessors.
    #[inline]
    pub fn topological_order(&self) -> &[TxnId] {
        &self.topo
    }

    /// All transitive predecessors of `t` (the transitive closure of its
    /// dependency list, paper's transitivity remark), *excluding* `t`.
    ///
    /// Returned sorted by id.
    pub fn ancestors(&self, t: TxnId) -> Vec<TxnId> {
        let mut m = self.workflow_members(t);
        let pos = m.binary_search(&t).expect("a workflow holds its root");
        m.remove(pos);
        m
    }

    /// The full membership of the workflow rooted at `root`: `root` plus all
    /// of its transitive predecessors, sorted by id (paper Definition of a
    /// workflow: "includes all transactions that appear in `l_i`, and
    /// recursively ...").
    pub fn workflow_members(&self, root: TxnId) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.workflow_members_stamped(root, &mut vec![0; self.len()], 1, &mut out);
        out
    }

    /// [`DepDag::workflow_members`] into `out` (cleared first), marking
    /// visits in caller-owned `stamp` (one slot per transaction): `t` counts
    /// as visited once `stamp[t] == mark`. A caller walking many roots
    /// reuses one `stamp` with a fresh `mark` per root instead of zeroing
    /// an n-sized array each time, so the walks cost O(Σ members).
    ///
    /// # Panics
    /// If `stamp` is shorter than the batch or `mark` is 0 (fresh slots).
    pub fn workflow_members_stamped(
        &self,
        root: TxnId,
        stamp: &mut [u32],
        mark: u32,
        out: &mut Vec<TxnId>,
    ) {
        assert!(mark != 0, "mark 0 is every slot's unvisited value");
        out.clear();
        out.push(root);
        stamp[root.index()] = mark;
        // `out` doubles as the worklist: everything before `i` has had its
        // predecessors pushed.
        let mut i = 0;
        while i < out.len() {
            for &p in self.preds(out[i]) {
                if stamp[p.index()] != mark {
                    stamp[p.index()] = mark;
                    out.push(p);
                }
            }
            i += 1;
        }
        out.sort_unstable();
    }

    /// True iff `x` transitively precedes `y` (`x -> y`).
    pub fn precedes(&self, x: TxnId, y: TxnId) -> bool {
        if x == y {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![y];
        while let Some(t) = stack.pop() {
            for &p in self.preds(t) {
                if p == x {
                    return true;
                }
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::txn::Weight;
    use proptest::prelude::*;

    fn spec(deps: Vec<TxnId>) -> TxnSpec {
        TxnSpec {
            arrival: SimTime::ZERO,
            deadline: SimTime::from_units_int(10),
            length: SimDuration::from_units_int(1),
            weight: Weight::ONE,
            deps,
        }
    }

    /// The paper's Figure 1 page: two workflows sharing leaf T0:
    /// `<T0, T1, T2, T3>` (chain) and `<T0, T4, T5, T6>` (chain).
    fn figure1_like() -> Vec<TxnSpec> {
        vec![
            spec(vec![]),         // T0 leaf
            spec(vec![TxnId(0)]), // T1
            spec(vec![TxnId(1)]), // T2
            spec(vec![TxnId(2)]), // T3 root of workflow A
            spec(vec![TxnId(0)]), // T4
            spec(vec![TxnId(4)]), // T5
            spec(vec![TxnId(5)]), // T6 root of workflow B
        ]
    }

    #[test]
    fn builds_figure1_structure() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        assert_eq!(dag.len(), 7);
        assert_eq!(dag.roots(), &[TxnId(3), TxnId(6)]);
        assert_eq!(dag.leaves(), &[TxnId(0)]);
        assert_eq!(dag.succs(TxnId(0)), &[TxnId(1), TxnId(4)]);
        assert_eq!(dag.preds(TxnId(3)), &[TxnId(2)]);
    }

    #[test]
    fn workflow_members_are_transitive() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        assert_eq!(
            dag.workflow_members(TxnId(3)),
            vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3)]
        );
        assert_eq!(
            dag.workflow_members(TxnId(6)),
            vec![TxnId(0), TxnId(4), TxnId(5), TxnId(6)]
        );
    }

    #[test]
    fn shared_leaf_belongs_to_both_workflows() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        for root in [TxnId(3), TxnId(6)] {
            assert!(dag.workflow_members(root).contains(&TxnId(0)));
        }
    }

    #[test]
    fn precedes_is_transitive_and_irreflexive() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        assert!(dag.precedes(TxnId(0), TxnId(3)));
        assert!(dag.precedes(TxnId(0), TxnId(6)));
        assert!(!dag.precedes(TxnId(3), TxnId(0)));
        assert!(!dag.precedes(TxnId(1), TxnId(1)));
        assert!(
            !dag.precedes(TxnId(1), TxnId(6)),
            "branches are incomparable"
        );
    }

    #[test]
    fn topological_order_respects_preds() {
        let dag = DepDag::build(&figure1_like()).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.len()];
            for (i, t) in dag.topological_order().iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for t in 0..dag.len() as u32 {
            for &d in dag.preds(TxnId(t)) {
                assert!(pos[d.index()] < pos[t as usize]);
            }
        }
    }

    #[test]
    fn diamond_dag_ancestors() {
        // T3 depends on T1 and T2, both depend on T0 (the stock example of
        // §II-B has exactly this diamond with T4).
        let specs = vec![
            spec(vec![]),
            spec(vec![TxnId(0)]),
            spec(vec![TxnId(0)]),
            spec(vec![TxnId(1), TxnId(2)]),
        ];
        let dag = DepDag::build(&specs).unwrap();
        assert_eq!(dag.ancestors(TxnId(3)), vec![TxnId(0), TxnId(1), TxnId(2)]);
        assert_eq!(dag.roots(), &[TxnId(3)]);
    }

    #[test]
    fn detects_cycle() {
        let specs = vec![spec(vec![TxnId(1)]), spec(vec![TxnId(0)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::Cycle(TxnId(0))
        );
    }

    #[test]
    fn detects_self_dependency() {
        let specs = vec![spec(vec![TxnId(0)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::SelfDependency(TxnId(0))
        );
    }

    #[test]
    fn detects_unknown_txn() {
        let specs = vec![spec(vec![TxnId(9)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::UnknownTxn {
                txn: TxnId(0),
                dep: TxnId(9)
            }
        );
    }

    #[test]
    fn detects_duplicate_dependency() {
        let specs = vec![spec(vec![]), spec(vec![TxnId(0), TxnId(0)])];
        assert_eq!(
            DepDag::build(&specs).unwrap_err(),
            DagError::DuplicateDependency {
                txn: TxnId(1),
                dep: TxnId(0)
            }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let dag = DepDag::build(&[]).unwrap();
        assert!(dag.is_empty());
        assert!(dag.roots().is_empty());
    }

    #[test]
    fn all_independent_means_every_txn_is_root_and_leaf() {
        let specs = vec![spec(vec![]), spec(vec![]), spec(vec![])];
        let dag = DepDag::build(&specs).unwrap();
        assert_eq!(dag.roots().len(), 3);
        assert_eq!(dag.leaves().len(), 3);
        assert_eq!(dag.workflow_members(TxnId(1)), vec![TxnId(1)]);
    }

    /// The pre-CSR build, one `Vec` per list: the reference the flat
    /// layout must reproduce list for list and error for error.
    struct Reference {
        preds: Vec<Vec<TxnId>>,
        succs: Vec<Vec<TxnId>>,
        roots: Vec<TxnId>,
        leaves: Vec<TxnId>,
        topo: Vec<TxnId>,
    }

    fn reference_build(specs: &[TxnSpec]) -> Result<Reference, DagError> {
        let n = specs.len();
        let mut preds: Vec<Vec<TxnId>> = Vec::with_capacity(n);
        let mut succs: Vec<Vec<TxnId>> = vec![Vec::new(); n];
        for (i, spec) in specs.iter().enumerate() {
            let me = TxnId(i as u32);
            let mut deps = spec.deps.clone();
            deps.sort_unstable();
            for w in deps.windows(2) {
                if w[0] == w[1] {
                    return Err(DagError::DuplicateDependency { txn: me, dep: w[0] });
                }
            }
            for &d in &deps {
                if d.index() >= n {
                    return Err(DagError::UnknownTxn { txn: me, dep: d });
                }
                if d == me {
                    return Err(DagError::SelfDependency(me));
                }
                succs[d.index()].push(me);
            }
            preds.push(deps);
        }
        let mut indegree: Vec<u32> = preds.iter().map(|p| p.len() as u32).collect();
        let mut frontier: std::collections::VecDeque<TxnId> = (0..n as u32)
            .map(TxnId)
            .filter(|t| indegree[t.index()] == 0)
            .collect();
        let mut topo = Vec::new();
        while let Some(t) = frontier.pop_front() {
            topo.push(t);
            for &s in &succs[t.index()] {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    frontier.push_back(s);
                }
            }
        }
        if topo.len() != n {
            let witness = (0..n as u32)
                .map(TxnId)
                .find(|t| indegree[t.index()] > 0)
                .unwrap();
            return Err(DagError::Cycle(witness));
        }
        let roots = (0..n as u32)
            .map(TxnId)
            .filter(|t| succs[t.index()].is_empty())
            .collect();
        let leaves = (0..n as u32)
            .map(TxnId)
            .filter(|t| preds[t.index()].is_empty())
            .collect();
        Ok(Reference {
            preds,
            succs,
            roots,
            leaves,
            topo,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random batches — acyclic or not, with unknown ids, self and
        /// duplicate dependencies mixed in — the flat build returns exactly
        /// the reference's lists, or exactly its error.
        #[test]
        fn csr_build_matches_the_vec_of_vecs_reference(
            rows in prop::collection::vec(prop::collection::vec((0u8..10, 0u8..4), 0..4), 0..24),
        ) {
            // Draw kinds 0 and 1 pick an earlier id (acyclic); kind 2 an id
            // past the batch or the transaction itself; kind 3 any id, so
            // cycles appear. Repeated draws make duplicates.
            let n = rows.len();
            let specs: Vec<TxnSpec> = rows
                .iter()
                .enumerate()
                .map(|(i, draws)| {
                    let deps = draws
                        .iter()
                        .filter_map(|&(x, kind)| {
                            let x = x as usize;
                            let id = match kind {
                                0 | 1 if i == 0 => return None,
                                0 | 1 => x % i,
                                2 if x < 5 => n + x,
                                2 => i,
                                _ => x % n,
                            };
                            Some(TxnId(id as u32))
                        })
                        .collect();
                    spec(deps)
                })
                .collect();
            match (DepDag::build(&specs), reference_build(&specs)) {
                (Ok(dag), Ok(r)) => {
                    for t in (0..n as u32).map(TxnId) {
                        prop_assert_eq!(dag.preds(t), &r.preds[t.index()][..]);
                        prop_assert_eq!(dag.succs(t), &r.succs[t.index()][..]);
                    }
                    prop_assert_eq!(dag.roots(), &r.roots[..]);
                    prop_assert_eq!(dag.leaves(), &r.leaves[..]);
                    prop_assert_eq!(dag.topological_order(), &r.topo[..]);
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = DagError::Cycle(TxnId(2));
        assert!(e.to_string().contains("T2"));
        let e = DagError::UnknownTxn {
            txn: TxnId(1),
            dep: TxnId(5),
        };
        assert!(e.to_string().contains("T5"));
    }
}
