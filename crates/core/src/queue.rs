//! Keyed priority queues for scheduler lists.
//!
//! Every policy in this crate maintains one or more *lists* of transactions
//! (or workflows) ordered by some key — deadline for EDF, remaining time for
//! SRPT, density for HDF, latest start time for the ASETS\* migration index.
//! Beyond `peek-min`/`pop-min` they all need `remove(id)` (a transaction can
//! leave a list from the middle: it completes, migrates between lists, or is
//! preempted and re-keyed). The paper asks for `O(log N)` updates and
//! suggests a balanced binary search tree; [`KeyedQueue`] gets the same
//! bounds from an array-backed binary min-heap of `(key, id)` entries plus a
//! dense id → heap-position index, so removal never scans, updates touch
//! `O(log live)` contiguous slots, and nothing allocates once the two arrays
//! are sized. The cost follows the entries listed, not the id space.
//!
//! Keys must be totally ordered and `Copy`. Entries are ordered by
//! `(key, id)`, so ties are broken by id, which makes every policy
//! deterministic for a given workload (important for the seed-reproducible
//! experiments and for the policy-vs-oracle property tests). That order is
//! total, so what the queue yields never depends on the heap's layout.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The caller-retained candidate set of an [`KeyedQueue::ordered`] walk.
pub type Frontier<K> = BinaryHeap<Reverse<(K, u32)>>;

/// `pos` entry of an id that is not in the queue.
const ABSENT: u32 = u32::MAX;

/// A priority queue over dense `u32` ids with `O(log n)` insert, remove,
/// re-key and pop, and an `O(1)` minimum. Smallest key wins; ties break
/// toward the smaller id.
#[derive(Debug, Clone, Default)]
pub struct KeyedQueue<K: Ord + Copy> {
    /// Binary min-heap over `(key, id)`: no entry is smaller than its parent.
    heap: Vec<(K, u32)>,
    /// `pos[id]` is `id`'s index in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl<K: Ord + Copy> KeyedQueue<K> {
    /// An empty queue; both arrays grow on demand.
    pub fn new() -> Self {
        KeyedQueue {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// An empty queue with both arrays sized for ids `0..capacity`, so no
    /// operation on those ids allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyedQueue {
            heap: Vec::with_capacity(capacity),
            pos: vec![ABSENT; capacity],
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `id`'s heap index, if present.
    #[inline]
    fn at(&self, id: u32) -> Option<usize> {
        match self.pos.get(id as usize) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// True iff `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.at(id).is_some()
    }

    /// The key currently associated with `id`, if present.
    #[inline]
    pub fn key_of(&self, id: u32) -> Option<K> {
        self.at(id).map(|p| self.heap[p].0)
    }

    /// Insert `id` with `key`.
    ///
    /// # Panics
    /// If `id` is already present — callers are expected to know; a silent
    /// upsert here has historically masked list-migration bugs.
    pub fn insert(&mut self, id: u32, key: K) {
        assert!(*self.slot(id) == ABSENT, "id {id} inserted twice");
        self.heap.push((key, id));
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove `id`. Returns its key, or `None` if it was not present.
    pub fn remove(&mut self, id: u32) -> Option<K> {
        let p = self.at(id)?;
        Some(self.remove_at(p).0)
    }

    /// Change the key of `id` (must be present). Returns early when the key
    /// is unchanged — re-keys at zero-service pauses are common (the engine
    /// requeues the running transaction at every scheduling point, whether
    /// or not it accrued service).
    ///
    /// # Panics
    /// If `id` is not present.
    pub fn rekey(&mut self, id: u32, key: K) {
        let p = self
            .at(id)
            .unwrap_or_else(|| panic!("rekey of absent id {id}"));
        self.rekey_at(p, key);
    }

    /// Insert or re-key `id` (with `Some`), or remove it (with `None`; a
    /// no-op when absent). Free when the key is unchanged.
    pub fn set(&mut self, id: u32, key: Option<K>) {
        match (self.at(id), key) {
            (Some(p), Some(key)) => self.rekey_at(p, key),
            (Some(p), None) => {
                self.remove_at(p);
            }
            (None, Some(key)) => self.insert(id, key),
            (None, None) => {}
        }
    }

    /// The (key, id) pair with the smallest key, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(K, u32)> {
        self.heap.first().copied()
    }

    /// The id with the smallest key, without removing it.
    #[inline]
    pub fn peek_id(&self) -> Option<u32> {
        self.heap.first().map(|&(_, id)| id)
    }

    /// Remove and return the (key, id) pair with the smallest key.
    pub fn pop(&mut self) -> Option<(K, u32)> {
        (!self.heap.is_empty()).then(|| self.remove_at(0))
    }

    /// Drain every entry whose key is `<= bound` into `out`, in key order
    /// (appends; does not clear). This is the ASETS\* migration primitive:
    /// with keys = latest start times, draining up to `now` yields exactly
    /// the transactions that just became infeasible and must move from the
    /// EDF-List to the SRPT-List.
    pub fn drain_up_to_into(&mut self, bound: K, out: &mut Vec<(K, u32)>) {
        while let Some(&(key, _)) = self.heap.first() {
            if key > bound {
                break;
            }
            out.push(self.remove_at(0));
        }
    }

    /// The entries in key order (ties toward the smaller id), lazily and
    /// without disturbing the queue: a best-first walk down the heap, so a
    /// multi-server `select_many` that takes the first `k` only *peeks*.
    /// `frontier` holds the entries not yet yielded whose parents were, and
    /// its smallest is the next entry; it is caller-retained storage, so
    /// steady-state walks do not allocate. Yielding j entries costs
    /// O(j log j), however long the queue.
    pub fn ordered<'a>(&'a self, frontier: &'a mut Frontier<K>) -> Ordered<'a, K> {
        frontier.clear();
        if let Some(&top) = self.heap.first() {
            frontier.push(Reverse(top));
        }
        Ordered {
            queue: self,
            frontier,
        }
    }

    fn rekey_at(&mut self, p: usize, key: K) {
        let old = self.heap[p].0;
        if key == old {
            return;
        }
        self.heap[p].0 = key;
        if key < old {
            self.sift_up(p);
        } else {
            self.sift_down(p);
        }
    }

    /// Remove the entry at heap index `p`: the last entry fills the hole and
    /// sifts whichever way its key points.
    fn remove_at(&mut self, p: usize) -> (K, u32) {
        let gone = self.heap.swap_remove(p);
        self.pos[gone.1 as usize] = ABSENT;
        if let Some(&moved) = self.heap.get(p) {
            if moved < gone {
                self.sift_up(p);
            } else {
                self.sift_down(p);
            }
        }
        gone
    }

    /// Move the entry at `p` up past every larger parent.
    fn sift_up(&mut self, mut p: usize) {
        let entry = self.heap[p];
        while p > 0 {
            let parent = (p - 1) / 2;
            if self.heap[parent] <= entry {
                break;
            }
            self.place(p, self.heap[parent]);
            p = parent;
        }
        self.place(p, entry);
    }

    /// Move the entry at `p` down past every smaller child.
    fn sift_down(&mut self, mut p: usize) {
        let entry = self.heap[p];
        let len = self.heap.len();
        loop {
            let mut child = 2 * p + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if entry <= self.heap[child] {
                break;
            }
            self.place(p, self.heap[child]);
            p = child;
        }
        self.place(p, entry);
    }

    /// `id`'s `pos` entry, growing the index to cover it.
    fn slot(&mut self, id: u32) -> &mut u32 {
        let idx = id as usize;
        if idx >= self.pos.len() {
            self.pos.resize(idx + 1, ABSENT);
        }
        &mut self.pos[idx]
    }

    /// Write `entry` at heap index `p` and point its id there.
    #[inline]
    fn place(&mut self, p: usize, entry: (K, u32)) {
        self.heap[p] = entry;
        self.pos[entry.1 as usize] = p as u32;
    }
}

/// The walk [`KeyedQueue::ordered`] returns.
#[derive(Debug)]
pub struct Ordered<'a, K: Ord + Copy> {
    queue: &'a KeyedQueue<K>,
    frontier: &'a mut Frontier<K>,
}

impl<K: Ord + Copy> Iterator for Ordered<'_, K> {
    type Item = (K, u32);

    fn next(&mut self) -> Option<(K, u32)> {
        let Reverse(entry) = self.frontier.pop()?;
        let p = self.queue.pos[entry.1 as usize] as usize;
        for child in [2 * p + 1, 2 * p + 2] {
            if let Some(&c) = self.queue.heap.get(child) {
                self.frontier.push(Reverse(c));
            }
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_order_with_tie_break_by_id() {
        let mut q = KeyedQueue::new();
        q.insert(3, 10u64);
        q.insert(1, 10u64);
        q.insert(2, 5u64);
        assert_eq!(q.peek(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((10, 1)), "equal keys break toward smaller id");
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn remove_from_middle() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(0u32, 3u64), (1, 1), (2, 2)] {
            q.insert(id, k);
        }
        assert_eq!(q.remove(2), Some(2));
        assert!(!q.contains(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((3, 0)));
    }

    #[test]
    fn remove_absent_is_none() {
        let mut q: KeyedQueue<u64> = KeyedQueue::new();
        assert_eq!(q.remove(7), None);
        q.insert(7, 1);
        assert_eq!(q.remove(7), Some(1));
        assert_eq!(q.remove(7), None, "second removal is a no-op");
    }

    #[test]
    fn rekey_moves_position() {
        let mut q = KeyedQueue::new();
        q.insert(0, 10u64);
        q.insert(1, 20u64);
        q.rekey(1, 5);
        assert_eq!(q.peek(), Some((5, 1)));
        assert_eq!(q.key_of(1), Some(5));
    }

    #[test]
    fn rekey_same_key_is_noop() {
        let mut q = KeyedQueue::new();
        q.insert(0, 10u64);
        q.insert(1, 20u64);
        q.rekey(1, 20);
        assert_eq!(q.key_of(1), Some(20));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((10, 0)));
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((20, 1)), "entry survives an unchanged rekey");
    }

    #[test]
    fn set_inserts_rekeys_and_clears() {
        let mut q = KeyedQueue::with_capacity(3);
        q.set(0, Some(10u64));
        q.set(1, Some(20u64));
        q.set(1, Some(5)); // re-key moves the minimum
        assert_eq!(q.peek(), Some((5, 1)));
        q.set(1, Some(5)); // unchanged key is a no-op
        assert_eq!(q.len(), 2);
        q.set(1, None);
        q.set(1, None); // clearing an absent id is a no-op
        assert_eq!(q.peek(), Some((10, 0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut q = KeyedQueue::new();
        q.insert(0, 1u64);
        q.insert(0, 2u64);
    }

    #[test]
    #[should_panic(expected = "rekey of absent")]
    fn rekey_absent_panics() {
        let mut q: KeyedQueue<u64> = KeyedQueue::new();
        q.rekey(0, 1);
    }

    #[test]
    fn drain_up_to_takes_exactly_the_prefix() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(0u32, 1u64), (1, 3), (2, 5), (3, 7)] {
            q.insert(id, k);
        }
        let mut drained = Vec::new();
        q.drain_up_to_into(5, &mut drained);
        assert_eq!(drained, vec![(1, 0), (3, 1), (5, 2)], "bound is inclusive");
        assert_eq!(q.len(), 1);
        assert!(q.contains(3));
    }

    #[test]
    fn drain_up_to_empty_prefix() {
        let mut q = KeyedQueue::new();
        q.insert(0, 10u64);
        let mut drained = Vec::new();
        q.drain_up_to_into(5, &mut drained);
        assert!(drained.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn top_k_peeks_prefix_in_key_order() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(5u32, 50u64), (1, 10), (3, 30), (2, 10)] {
            q.insert(id, k);
        }
        let mut frontier = Frontier::new();
        let top_k = |k: usize, frontier: &mut Frontier<u64>| {
            let ids = q.ordered(frontier).take(k).map(|(_, id)| id);
            ids.collect::<Vec<u32>>()
        };
        assert_eq!(
            top_k(3, &mut frontier),
            vec![1, 2, 3],
            "ties break toward smaller id"
        );
        assert_eq!(
            top_k(10, &mut frontier),
            vec![1, 2, 3, 5],
            "short queues return all"
        );
        assert_eq!(top_k(0, &mut frontier), Vec::<u32>::new());
        assert_eq!(q.len(), 4, "top_k must not disturb the queue");
    }

    #[test]
    fn ordered_walk_stops_where_its_caller_does() {
        let mut q = KeyedQueue::new();
        for id in 0..64u32 {
            q.insert(id, u64::from(63 - id));
        }
        let mut frontier = Frontier::new();
        let first: Vec<u32> = q.ordered(&mut frontier).map(|(_, id)| id).take(3).collect();
        assert_eq!(first, vec![63, 62, 61]);
        assert!(
            frontier.len() <= 4,
            "three yields leave at most four candidates, not the whole queue"
        );
    }

    #[test]
    fn with_capacity_presizes_back_index() {
        let mut q: KeyedQueue<u64> = KeyedQueue::with_capacity(100);
        q.insert(99, 1);
        assert!(q.contains(99));
    }

    #[test]
    fn tuple_keys_compose() {
        // Composite key: (deadline, arrival) — the kind EDF-with-FCFS-tiebreak uses.
        let mut q = KeyedQueue::new();
        q.insert(0, (10u64, 5u64));
        q.insert(1, (10u64, 3u64));
        assert_eq!(q.peek_id(), Some(1));
    }

    #[test]
    fn drain_up_to_appends_without_clearing() {
        let mut q = KeyedQueue::new();
        for (id, k) in [(0u32, 1u64), (1, 3), (2, 5)] {
            q.insert(id, k);
        }
        let mut drained = vec![(0u64, 77u32)];
        q.drain_up_to_into(3, &mut drained);
        assert_eq!(drained, vec![(0, 77), (1, 0), (3, 1)]);
        assert_eq!(q.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::Ratio;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    /// One queue operation. Keys are small codes, mapped to a key type per
    /// test, so equal keys (and the id tie-break) are common.
    #[derive(Debug, Clone)]
    enum Op {
        /// `set(id, key)`; flag 0 means `None` (the shim has no `option::of`).
        Set(u32, u8, u8),
        Insert(u32, u8),
        Remove(u32),
        Rekey(u32, u8),
        Pop,
        DrainUpTo(u8),
        /// The first k entries of an `ordered` walk, for every k in
        /// `0..=len + 1`.
        TopK,
    }

    const IDS: u32 = 24;

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..IDS, 0u8..4, 0u8..12).prop_map(|(i, f, k)| Op::Set(i, f, k)),
            (0u32..IDS, 0u8..12).prop_map(|(i, k)| Op::Insert(i, k)),
            (0u32..IDS).prop_map(Op::Remove),
            (0u32..IDS, 0u8..12).prop_map(|(i, k)| Op::Rekey(i, k)),
            Just(Op::Pop),
            (0u8..12).prop_map(Op::DrainUpTo),
            Just(Op::TopK),
        ]
    }

    /// The model's entries in queue order: sorted by (key, id).
    fn model_sorted<K: Ord + Copy>(model: &BTreeMap<u32, K>) -> Vec<(K, u32)> {
        let mut all: Vec<(K, u32)> = model.iter().map(|(&id, &k)| (k, id)).collect();
        all.sort_unstable();
        all
    }

    /// Run `ops` against a `KeyedQueue` and a `BTreeMap<id, key>` model,
    /// checking every answer and, after every op, the length, the minimum
    /// and every id's key (which a stale position index would get wrong).
    fn check_against_model<K: Ord + Copy + Debug>(ops: Vec<Op>, key: impl Fn(u8) -> K) {
        let mut q: KeyedQueue<K> = KeyedQueue::new();
        let mut model: BTreeMap<u32, K> = BTreeMap::new();
        let mut frontier = Frontier::new();
        let mut out = Vec::new();
        for op in ops {
            match op {
                Op::Set(id, flag, k) => {
                    let k = (flag != 0).then(|| key(k));
                    q.set(id, k);
                    match k {
                        Some(k) => model.insert(id, k),
                        None => model.remove(&id),
                    };
                }
                Op::Insert(id, k) => {
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(id) {
                        q.insert(id, key(k));
                        e.insert(key(k));
                    }
                }
                Op::Remove(id) => {
                    assert_eq!(q.remove(id), model.remove(&id));
                }
                Op::Rekey(id, k) => {
                    if model.contains_key(&id) {
                        q.rekey(id, key(k));
                        model.insert(id, key(k));
                    }
                }
                Op::Pop => {
                    let expect = model_sorted(&model).first().copied();
                    if let Some((_, id)) = expect {
                        model.remove(&id);
                    }
                    assert_eq!(q.pop(), expect);
                }
                Op::DrainUpTo(bound) => {
                    let bound = key(bound);
                    let expect: Vec<(K, u32)> = model_sorted(&model)
                        .into_iter()
                        .filter(|&(k, _)| k <= bound)
                        .collect();
                    for (_, id) in &expect {
                        model.remove(id);
                    }
                    out.clear();
                    q.drain_up_to_into(bound, &mut out);
                    assert_eq!(out, expect);
                }
                Op::TopK => {
                    let sorted = model_sorted(&model);
                    for k in 0..=q.len() + 1 {
                        out.clear();
                        out.extend(q.ordered(&mut frontier).take(k));
                        assert_eq!(out[..], sorted[..k.min(sorted.len())]);
                    }
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.peek(), model_sorted(&model).first().copied());
            for id in 0..IDS {
                assert_eq!(q.key_of(id), model.get(&id).copied(), "key of id {id}");
            }
        }
    }

    proptest! {
        /// The queue behaves like a `BTreeMap<id, key>` under arbitrary
        /// sequences of every operation.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            check_against_model(ops, u64::from);
        }

        /// The same with HDF's `Reverse<Ratio>` keys, written so that equal
        /// densities take different forms (1/2 and 2/4, 0/1 and 0/2): the
        /// queue compares them by value, as the model does.
        #[test]
        fn ratio_keys_match_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            check_against_model(ops, |code| {
                let scale = u64::from(code % 2) + 1;
                let value = u64::from(code / 2);
                Reverse(Ratio::new(value % 3 * scale, (value / 3 + 1) * scale))
            });
        }
    }
}
