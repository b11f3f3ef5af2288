//! The rebalancing driver behind [`ShardedRuntime::rebalance`]: K shard
//! threads, barrier-synchronized epochs, lock-free cross-shard message
//! channels.
//!
//! Every shard engine holds the *full* global table and a policy built from
//! it, so moving a transaction never needs spec surgery — only its pending
//! arrival entry changes calendars — but each pump delivers only the
//! shard's owned arrivals. Each shard thread steps its own engine through
//! an *epoch window* `[B, B')` without talking to anyone, and all
//! cross-shard traffic — migration payloads, steal grants — takes effect
//! only at window boundaries, where a poisonable round barrier
//! (`ShardBarrier`) lines the threads up. Between boundaries the only
//! sharing is bounded lock-free SPSC rings (`Chan`, the
//! [`crate::live::IngestRing`] idiom generalized to typed messages), and
//! rings are *written during* a window but *read after* the next barrier,
//! so every message is ordered by barrier happens-before, never by
//! delivery timing.
//!
//! Per round, each thread:
//!
//! 1. **answers** steal requests buffered at the last drain (grants ride to
//!    the *next* boundary; see below),
//! 2. **runs** its engine up to (not including) the horizon,
//! 3. **posts** one steal request if it ended the window idle,
//! 4. **reports** load / backlog / next point into its report slot and
//!    waits (`#1`),
//! 5. **plans**: reads every shard's report and computes the boundary plan
//!    — migrations from [`plan_rebalance`] (greedy largest-work-first under
//!    the `2·work ≤ gap` rule) over its own replica of the movable-component
//!    index, then the next boundary. The plan is a pure function of the
//!    reports and the index, and every replica applies the same moves, so
//!    every shard computes the same plan; there is no leader. Shard 0 alone
//!    records it in the telemetry,
//! 6. **executes** its slice of the plan — extracting, in one calendar
//!    pass, the entries of every component it sends away and pushing each
//!    to its destination's ring — and waits (`#2`),
//! 7. **drains** its inboxes: migrated arrivals and steal grants join the
//!    calendar, requests are buffered for the next answer phase, acks
//!    release the thief to ask again. Rings are parity-paired —
//!    `chans[round & 1]` — so a neighbour racing ahead into round E+1
//!    pushes into the *other* ring set and can never land a message in a
//!    ring still being drained for round E; two barriers per round, not
//!    three.
//!
//! Report slots need no parity pair: every shard reads the round's reports
//! before it reaches barrier `#2`, and no shard can overwrite its own
//! report until it has passed that barrier.
//!
//! ## The migration budget binds
//!
//! Each round's migration payloads must fit the rings: the plan drops any
//! move that would push more than `MSG_RING_CAPACITY − steal_k − 2`
//! calendar entries through one channel (1018 at the default `steal_k` of
//! 4), and replans it from fresh loads at the next boundary. On a skewed
//! batch this cap is a migration-rate limit, not a safety margin: on the
//! benchmark's Zipf-skewed `skewed_shards` batch (K = 2) it binds in most
//! migration rounds and drops thousands of planned moves per run, while
//! the uniform twin never reaches it. Any change to the message transport
//! (ring size, message layout) therefore changes schedules.
//!
//! ## The asynchronous steal protocol
//!
//! A thief cannot grab from a victim's queue mid-instant without locking
//! both engines, so stealing is request/grant: an idle thief posts
//! `Request{epoch, want, at}` stamped with its clock; the victim answers at
//! its next answer phase — one epoch later, the first scheduling point at
//! which the request is deterministically visible — retracting up to `want`
//! ready never-served singletons ([`Scheduler::steal_candidates`] order)
//! and granting them *effective at the boundary its current window ends
//! on*; the thief admits each grant as a normal calendar arrival at that
//! boundary. The thief's clock only ever meets arrivals at or after its
//! last step, so time never runs backward, and because a grant's effect
//! time is a function of the epoch it was issued in — never of when the
//! message physically moved — the run is bit-identical across executions
//! for a fixed seed and config. [`RebalanceEvent::Steal`] records all three
//! clocks (`requested_at`, `granted_at`, effect `at`).
//!
//! ## Why decisions stay deterministic
//!
//! * Every round-E push precedes barrier `#1` or `#2` of round E, every
//!   round-E drain runs after `#2`, and round-E±1 traffic rides the other
//!   parity's rings. Reaching round E+2 — the same parity again — means
//!   passing barrier `#1` of round E+1, which waits on every thread's
//!   round-E drain; so each drain sees exactly the round-E message set,
//!   every run.
//! * The victim acts on requests only at the answer phase, from state at
//!   the window start; grants land only at the boundary. No decision reads
//!   a ring mid-window.
//! * Every shard plans from the full report vector and an index replica
//!   that has seen the same moves; thief victim-selection uses the
//!   *previous* boundary's reports.
//! * No wall clock anywhere: horizons, effect times and stamps are all
//!   simulated instants derived from the epoch cadence.
//!
//! ## What a migrate-only run equals
//!
//! The plan is made at the boundary instant and moves only components whose
//! every member arrives strictly after it, and the destination admits each
//! member at its spec arrival. A migrated component therefore only ever
//! arrives on its final owner, and without stealing each shard's schedule
//! is the plain engine's over exactly the transactions that completed
//! there. `tests/shard_determinism.rs` pins that replay for every policy
//! kind. Stealing breaks it on purpose: a grant arrives on the thief at a
//! boundary, not at its spec arrival.
//!
//! ## Boundaries cost O(changes)
//!
//! A boundary never rescans live work. A shard's load is its table's
//! [`TxnTable::remaining_ticks`] gauge minus the full length of every
//! transaction it does not own — exact, because a non-owned transaction is
//! always `Pending` at full length in that shard's table (never arrived
//! there, migrated away unarrived, or retracted unserved by a steal). The
//! worker adjusts that foreign sum on each migration and steal. Movable
//! components live in each shard's replica of the index (`MovableIndex`),
//! ordered by earliest arrival so the advancing horizon retires them with a
//! cursor; since steals only take already-arrived singletons, migrations
//! are the only ownership change the index must follow, and every shard
//! applies those from the plan.
//!
//! [`Scheduler::steal_candidates`]: asets_core::policy::Scheduler::steal_candidates

use crate::engine::{Engine, SimResult};
use crate::sharded::{
    merge, EngineKnobs, RebalanceConfig, RebalanceEvent, RebalanceStats, ShardEngine, ShardRun,
    ShardedResult, ShardedRuntime,
};
use asets_core::dag::DagError;
use asets_core::obs::Observer;
use asets_core::policy::PolicyKind;
use asets_core::shard::{placement, plan_rebalance, routing_keys, ComponentMove, MovableComponent};
use asets_core::table::TxnTable;
use asets_core::time::SimTime;
use asets_core::txn::{TxnId, TxnSpec};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Slots per cross-shard ring. Bounds every round's traffic: the plan
/// budgets migration payloads per channel (see [`Shared::mig_budget`]) and
/// steal traffic is at most one request, `steal_k` grants and one ack.
pub(crate) const MSG_RING_CAPACITY: usize = 1024;

/// Bounded lock-free SPSC ring of `Copy` messages — [`crate::live::IngestRing`]
/// generalized from `u32` job ids to typed payloads. Monotonic cursors,
/// slot = cursor % capacity; the producer owns `tail`, the consumer owns
/// `head`, and each reads the other side with `Acquire` to see slot writes.
///
/// The SPSC discipline is by construction: in the channel matrix
/// `chans[a][b]`, thread `a` is the only pusher and thread `b` the only
/// popper.
pub(crate) struct Chan<T: Copy> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor (monotonic).
    head: AtomicUsize,
    /// Producer cursor (monotonic).
    tail: AtomicUsize,
}

// SAFETY: a slot is written by the single producer strictly before the
// `Release` store of `tail`, and read by the single consumer strictly after
// the `Acquire` load of `tail` (and vice versa for reuse after `head`), so
// no slot is ever accessed concurrently. `T: Copy` means reads need no
// ownership transfer and abandoned messages need no drop.
unsafe impl<T: Copy + Send> Sync for Chan<T> {}

impl<T: Copy> Chan<T> {
    /// A ring holding up to `capacity` in-flight messages.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Chan<T> {
        assert!(capacity > 0, "channel capacity must be positive");
        Chan {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: push `value`, or return `false` when the ring is
    /// full. In the threaded protocol a full ring is a planner bug, not
    /// backpressure — the receiver is parked at a barrier and will never
    /// drain mid-window — so callers assert the result.
    pub(crate) fn push(&self, value: T) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return false;
        }
        // SAFETY: `head`'s Acquire proves the consumer is done with this
        // slot; only this thread writes slots (single producer).
        unsafe { (*self.slots[tail % self.slots.len()].get()).write(value) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: pop the oldest message, if any.
    pub(crate) fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `tail`'s Acquire proves the producer initialized this
        // slot; only this thread reads slots (single consumer).
        let value = unsafe { (*self.slots[head % self.slots.len()].get()).assume_init() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

/// The round barrier: `std::sync::Barrier` plus poisoning.
///
/// A shard that panics mid-round never reaches its next barrier, so with a
/// plain barrier its peers would wait forever and the scoped run would
/// never return. Each worker holds a [`PoisonOnUnwind`] guard instead:
/// unwinding poisons the barrier, which wakes every waiter, and every wait
/// from then on panics naming the failed shard — the run fails instead of
/// hanging. One mutex and one condvar, one `notify_all` per crossing, as
/// in the standard barrier.
struct ShardBarrier {
    state: Mutex<BarrierState>,
    crossed: Condvar,
    parties: usize,
}

struct BarrierState {
    /// Threads waiting in the current crossing.
    arrived: usize,
    /// Completed crossings; a waiter leaves once this moves.
    generation: u64,
    /// The first shard that panicked, once one has.
    failed: Option<usize>,
}

impl ShardBarrier {
    /// A barrier for `parties` threads.
    fn new(parties: usize) -> ShardBarrier {
        ShardBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                failed: None,
            }),
            crossed: Condvar::new(),
            parties,
        }
    }

    /// Block until every party has called `wait` for this crossing.
    ///
    /// # Panics
    /// If a shard panicked before or during the wait.
    fn wait(&self) {
        // The mutex guards only counters that every step leaves valid, and
        // poisoning is reported through `failed`, so a poisoned lock is
        // recovered rather than treated as a second failure.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let generation = st.generation;
        if st.failed.is_none() {
            st.arrived += 1;
            if st.arrived == self.parties {
                st.arrived = 0;
                st.generation += 1;
                self.crossed.notify_all();
                return;
            }
            while st.generation == generation && st.failed.is_none() {
                st = self
                    .crossed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if st.generation == generation {
            let failed = st.failed.expect("a waiter leaves early only on poison");
            drop(st);
            panic!("shard {failed} panicked; abandoning the threaded run");
        }
    }

    /// Mark `shard` as failed and wake every waiter. Never panics: it runs
    /// while `shard` unwinds.
    fn poison(&self, shard: usize) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.failed.get_or_insert(shard);
        self.crossed.notify_all();
    }
}

/// Poisons the round barrier if its shard thread unwinds (see
/// [`ShardBarrier`]).
struct PoisonOnUnwind<'a> {
    barrier: &'a ShardBarrier,
    shard: usize,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poison(self.shard);
        }
    }
}

/// A cross-shard message. Everything is `Copy`: calendar entries and steal
/// control traffic, never spec payloads — every engine holds the full
/// global table, so moving a transaction is pure calendar surgery.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Msg {
    /// A migrated component member's calendar entry (original arrival).
    Arrival {
        /// The spec's arrival instant (strictly beyond the boundary).
        at: SimTime,
        /// The member transaction.
        txn: TxnId,
    },
    /// A steal grant: `txn` was retracted from the victim and arrives on
    /// the thief at `effect` — the boundary the victim's current window
    /// ends on, which is ≥ every clock the thief can have inside it.
    Grant {
        /// Boundary instant the grant takes effect at on the thief.
        effect: SimTime,
        /// The stolen transaction.
        txn: TxnId,
    },
    /// An idle thief asking for work.
    Request {
        /// The thief's epoch index when it posted (visibility stamp).
        epoch: u64,
        /// Transactions wanted (idle servers, clamped by `steal_k`).
        want: u32,
        /// The thief's clock when it posted (telemetry: `requested_at`).
        at: SimTime,
    },
    /// Closes a request (sent even when zero transactions were granted);
    /// the thief may post again after receiving it.
    Ack {
        /// Epoch stamp of the request being closed.
        epoch: u64,
    },
}

/// A buffered steal request, waiting for the receiving victim's next
/// answer phase.
struct PendingReq {
    from: u32,
    epoch: u64,
    want: u32,
    at: SimTime,
}

/// One shard's boundary snapshot, published before barrier `#1`.
#[derive(Clone, Copy)]
struct Report {
    /// Remaining work of owned, uncompleted transactions (ticks), read
    /// from the O(1) gauge.
    load: u64,
    /// Ready transactions waiting for a server.
    waiting: usize,
    /// Completions on this shard's table. Every transaction completes on
    /// exactly one table (its final owner), so the global done test is
    /// `Σ completed == n` — grants in flight keep the sum short.
    completed: usize,
    /// The engine's next scheduling point at or beyond the boundary.
    next_point: Option<SimTime>,
    /// True iff this shard posted a steal request this window.
    posted: bool,
    /// Steal requests answered at this window's answer phase.
    answered: u32,
}

/// The verdict for one boundary. Every shard computes it right after
/// barrier `#1` from the same reports and its own index replica, so every
/// shard holds the same plan.
struct Plan {
    /// Every transaction completed: all threads exit this round.
    done: bool,
    /// No scheduling point anywhere, nothing in flight, work incomplete —
    /// provably unreachable; every thread panics rather than spinning.
    stalled: bool,
    /// Horizon of the next window. `boundary + epoch` while anything is in
    /// flight; otherwise skipped ahead to cover the earliest next point.
    next_boundary: SimTime,
    /// Migrations to execute at this boundary.
    moves: Vec<ComponentMove>,
}

/// The migration candidates: every component ordered by earliest member
/// arrival, with its planning weight and current owner. Each shard keeps a
/// replica.
///
/// Under restricted arrivals a component is fully unarrived — hence
/// movable — exactly while its earliest arrival lies beyond the horizon,
/// and the horizon only grows, so a cursor retires components for good.
/// Owners change only through applied moves, which every shard applies to
/// its replica from the same plan: a steal takes a ready singleton, which
/// the cursor retired a round earlier.
#[derive(Clone)]
struct MovableIndex {
    /// Earliest member arrival of `comps[i]`, ascending.
    min_arrival: Vec<SimTime>,
    /// Components by earliest arrival (ties by key); `work` is the total
    /// member length, a function of the specs alone.
    comps: Vec<MovableComponent>,
    /// `comps[..cursor]` have an arrival at or before the last boundary.
    cursor: usize,
    /// Position in `comps`, indexed by routing key (transaction id).
    pos: Vec<u32>,
}

impl MovableIndex {
    fn new(
        comp_members: &BTreeMap<u32, Vec<TxnId>>,
        specs: &[TxnSpec],
        shard_of: &[u32],
    ) -> MovableIndex {
        let mut order: Vec<(SimTime, MovableComponent)> = comp_members
            .iter()
            .map(|(&key, members)| {
                let min_arrival = members
                    .iter()
                    .map(|&m| specs[m.index()].arrival)
                    .min()
                    .expect("components are non-empty");
                let work = members
                    .iter()
                    .map(|&m| specs[m.index()].length.ticks())
                    .sum();
                let owner = shard_of[key as usize];
                (min_arrival, MovableComponent { key, owner, work })
            })
            .collect();
        // Stable over key order: ties stay by key.
        order.sort_by_key(|&(at, _)| at);
        let (min_arrival, comps): (Vec<SimTime>, Vec<MovableComponent>) = order.into_iter().unzip();
        let mut pos = vec![u32::MAX; specs.len()];
        for (i, c) in comps.iter().enumerate() {
            pos[c.key as usize] = i as u32;
        }
        MovableIndex {
            min_arrival,
            comps,
            cursor: 0,
            pos,
        }
    }

    /// The components still fully unarrived at `boundary`.
    fn movable(&mut self, boundary: SimTime) -> &[MovableComponent] {
        while self.cursor < self.comps.len() && self.min_arrival[self.cursor] <= boundary {
            self.cursor += 1;
        }
        &self.comps[self.cursor..]
    }

    /// Record an applied migration.
    fn moved(&mut self, mv: &ComponentMove) {
        self.comps[self.pos[mv.key as usize] as usize].owner = mv.to;
    }
}

/// Read-only protocol state borrowed into every worker thread.
struct Shared<'a> {
    k: usize,
    n: usize,
    cfg: RebalanceConfig,
    /// Migration calendar entries the planner may route through one
    /// channel per round, leaving headroom for steal traffic.
    mig_budget: usize,
    /// `chans[round & 1][a][b]`: messages from shard `a` to shard `b`,
    /// double-buffered by round parity so a drain never shares a ring with
    /// a faster neighbour's next-round pushes.
    chans: &'a [Vec<Vec<Chan<Msg>>>; 2],
    barrier: &'a ShardBarrier,
    /// `reports[s]`: shard `s`'s latest boundary snapshot. One slot per
    /// shard suffices: every shard reads the round's reports before the
    /// sends barrier, and no shard writes its next report before passing
    /// it.
    reports: &'a [Mutex<Option<Report>>],
    /// Component membership by routing key, members ascending.
    comp_members: &'a BTreeMap<u32, Vec<TxnId>>,
    /// The movable index at the start of the run; each shard plans over a
    /// clone.
    movable: &'a MovableIndex,
    /// Routing key of every transaction.
    keys: &'a [u32],
    /// The initial (static) partition; arrival restriction baseline.
    shard_of: &'a [u32],
}

impl ShardedRuntime {
    /// Run the K > 1 rebalanced mode: one thread per shard engine, each
    /// over the full global table with restricted arrivals, trading work
    /// over [`Chan`]s; results are merged in global ids.
    pub(crate) fn run_threaded<O, F>(
        self,
        make: F,
        attach: bool,
        cfg: RebalanceConfig,
    ) -> Result<(ShardedResult, Vec<O>), DagError>
    where
        O: Observer + Send + 'static,
        F: Fn(usize, &TxnTable) -> O + Sync,
    {
        let k = self.shards;
        // One master table built from the moved specs — its build is the
        // batch's validation, in global ids; each worker thread gets a
        // cheap clone (shared spec/DAG storage, fresh state) instead of
        // re-validating the full batch K times.
        let master = TxnTable::new(self.specs)?;
        let n = master.len();
        let keys = routing_keys(master.specs());
        let shard_of = placement(&keys, k);
        let mut comp_members: BTreeMap<u32, Vec<TxnId>> = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            comp_members.entry(key).or_default().push(TxnId(i as u32));
        }

        let chans: [Vec<Vec<Chan<Msg>>>; 2] = std::array::from_fn(|_| {
            (0..k)
                .map(|_| (0..k).map(|_| Chan::new(MSG_RING_CAPACITY)).collect())
                .collect()
        });
        let barrier = ShardBarrier::new(k);
        let reports: Vec<Mutex<Option<Report>>> = (0..k).map(|_| Mutex::new(None)).collect();
        let movable = MovableIndex::new(&comp_members, master.specs(), &shard_of);
        let shared = Shared {
            k,
            n,
            cfg,
            mig_budget: MSG_RING_CAPACITY.saturating_sub(cfg.steal_k + 2),
            chans: &chans,
            barrier: &barrier,
            reports: &reports,
            comp_members: &comp_members,
            movable: &movable,
            keys: &keys,
            shard_of: &shard_of,
        };
        let knobs = EngineKnobs {
            servers: self.servers,
            trace: self.trace,
            backlog: self.backlog,
        };
        let kind = self.kind;
        let master_ref = &master;
        let make = &make;
        let shared_ref = &shared;

        let runs: Vec<(SimResult, O, RebalanceStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..k)
                .map(|s| {
                    scope.spawn(move || {
                        run_worker::<O>(
                            s,
                            master_ref.clone(),
                            kind,
                            knobs,
                            shared_ref,
                            |table| make(s, table),
                            attach,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });

        let mut stats = RebalanceStats::default();
        let mut shards = Vec::with_capacity(k);
        let mut observers = Vec::with_capacity(k);
        for (s, (result, obs, local)) in runs.into_iter().enumerate() {
            stats.migration_rounds += local.migration_rounds;
            stats.migrated_components += local.migrated_components;
            stats.migrated_txns += local.migrated_txns;
            stats.migrated_work += local.migrated_work;
            stats.steals += local.steals;
            stats.steal_requests += local.steal_requests;
            stats.barriers += local.barriers;
            stats.events.extend(local.events);
            let txns: Vec<TxnId> = result.outcomes.iter().map(|o| o.id).collect();
            shards.push(ShardRun {
                shard: s,
                txns,
                result,
            });
            observers.push(obs);
        }
        // Shard-local logs are deterministic; a global order needs a rule.
        // Stable sort by (instant, kind, shards): migrations (shard 0's log)
        // before steals at the same boundary, each shard's internal order
        // preserved.
        stats.events.sort_by_key(|e| match *e {
            RebalanceEvent::Migration {
                at, key, from, to, ..
            } => (at, 0u8, from, to, key),
            RebalanceEvent::Steal {
                at, txn, from, to, ..
            } => (at, 1u8, from, to, txn.0),
        });

        let merged = merge(&shards, self.trace, self.backlog.is_some());
        Ok((
            ShardedResult {
                merged,
                shards,
                shard_of,
                rebalance: Some(stats),
            },
            observers,
        ))
    }
}

/// One shard thread: build the policy and observer locally (they are
/// deliberately not `Sync`) over a cheap clone of the master table, then
/// run the barrier rounds until the plan declares the batch done.
/// Returns the finished result, the observer and this shard's slice of the
/// rebalance telemetry.
fn run_worker<O: Observer + 'static>(
    s: usize,
    table: TxnTable,
    kind: PolicyKind,
    knobs: EngineKnobs,
    shared: &Shared<'_>,
    make: impl FnOnce(&TxnTable) -> O,
    attach: bool,
) -> (SimResult, O, RebalanceStats) {
    let _poison = PoisonOnUnwind {
        barrier: shared.barrier,
        shard: s,
    };
    // Every shard plans, over its own replica of the movable index.
    let mut index = shared.movable.clone();
    let mut shard = ShardEngine::<O>::new(table, kind, knobs, make, attach);
    let engine = &mut shard.engine;
    engine.restrict_arrivals(|t| shared.shard_of[t.index()] == s as u32);

    // Evolving ownership, this shard's view: the ground truth the load
    // gauge is checked against. Migration updates come from the plan (all
    // shards see them); steal updates from the grant (victim clears at
    // grant, thief sets at drain) — the one-round gap where a granted
    // transaction is in neither load is harmless, because a stolen
    // singleton has an in-past arrival and can never look movable.
    let mut owned: Vec<bool> = shared.shard_of.iter().map(|&o| o == s as u32).collect();
    // Σ full length of the transactions this shard does not own, moved in
    // step with `owned`: the load gauge is the table's remaining sum minus
    // this (see the module docs for why that is exact).
    let mut foreign: u64 = {
        let specs = engine.table().specs();
        (0..shared.n)
            .filter(|&i| !owned[i])
            .map(|i| specs[i].length.ticks())
            .sum()
    };
    let steal = shared.cfg.steal;
    let mut stats = RebalanceStats::default();
    let mut horizon = SimTime::ZERO + shared.cfg.epoch;
    let mut epoch_idx: u64 = 0;
    // The epoch stamp of this shard's unanswered steal request, if any.
    let mut pending_post: Option<u64> = None;
    // The last boundary's reports, every shard's: the plan's input, and
    // the backlog snapshot the next window's thief picks its victim from
    // (one round stale, deterministically so).
    let mut reports: Vec<Report> = Vec::with_capacity(shared.k);
    let mut req_buf: Vec<PendingReq> = Vec::new();
    let mut candidates: Vec<TxnId> = Vec::new();
    let mut entries: Vec<(SimTime, TxnId)> = Vec::new();
    // Members leaving this shard at a boundary, and each outbound
    // component's destination by routing key.
    let mut outbound: Vec<TxnId> = Vec::new();
    let mut routes: Vec<(u32, u32)> = Vec::new();

    loop {
        // This round's ring set: everything pushed in round E is drained in
        // round E from `chans[E & 1]`; a neighbour already in round E+1
        // writes the other set.
        let par = (epoch_idx & 1) as usize;
        // Answer phase: every request drained at the last barrier gets its
        // reply at this shard's first scheduling opportunity of the new
        // window, from pre-window state — deterministic by barrier order.
        let mut answered = 0u32;
        if steal && !req_buf.is_empty() {
            let mut acts = std::mem::take(&mut req_buf);
            acts.sort_by_key(|r| (r.epoch, r.from));
            let now = engine.now();
            for req in acts {
                debug_assert!(
                    req.epoch < epoch_idx,
                    "requests act one epoch after posting"
                );
                candidates.clear();
                // Over-ask: some candidates fail the singleton filter.
                engine.steal_candidates_into(req.want as usize * 4, &mut candidates);
                let mut granted = 0u32;
                for &c in &candidates {
                    if granted >= req.want {
                        break;
                    }
                    if shared.comp_members[&shared.keys[c.index()]].len() != 1 {
                        continue;
                    }
                    debug_assert!(owned[c.index()], "ready candidates are owned");
                    engine.retract_stolen(c, now);
                    owned[c.index()] = false;
                    foreign += engine.table().spec(c).length.ticks();
                    let sent = shared.chans[par][s][req.from as usize].push(Msg::Grant {
                        effect: horizon,
                        txn: c,
                    });
                    assert!(sent, "steal grant overflowed the ring");
                    stats.steals += 1;
                    stats.events.push(RebalanceEvent::Steal {
                        at: horizon,
                        txn: c,
                        from: s as u32,
                        to: req.from,
                        requested_at: req.at,
                        granted_at: now,
                    });
                    granted += 1;
                }
                let sent =
                    shared.chans[par][s][req.from as usize].push(Msg::Ack { epoch: req.epoch });
                assert!(sent, "steal ack overflowed the ring");
                answered += 1;
            }
        }

        // Run the window: every scheduling point strictly below the
        // horizon, no cross-shard interaction.
        let next_point = engine.run_window(horizon);

        // Post phase: idle at the window's end with no ready work — ask
        // the shard that reported the deepest backlog at the last barrier.
        let mut posted = false;
        if steal
            && pending_post.is_none()
            && engine.idle_servers() > 0
            && engine.waiting_ready() == 0
        {
            if let Some(victim) = pick_victim(&reports, s) {
                let want = engine.idle_servers().min(shared.cfg.steal_k) as u32;
                let sent = shared.chans[par][s][victim].push(Msg::Request {
                    epoch: epoch_idx,
                    want,
                    at: engine.now(),
                });
                assert!(sent, "steal request overflowed the ring");
                pending_post = Some(epoch_idx);
                stats.steal_requests += 1;
                posted = true;
            }
        }

        // Report phase: boundary snapshot for every planner, O(1). While the
        // accounting is exact `foreign` never exceeds the table's remaining
        // sum, so the subtraction never saturates; test builds check the
        // gauge against the scan every round (a failure poisons the
        // barrier, so the whole run fails).
        let load = engine.table().remaining_ticks().saturating_sub(foreign);
        if cfg!(any(test, debug_assertions)) {
            let scanned = scanned_load(engine.table(), &owned);
            assert_eq!(
                load, scanned,
                "load gauge drifted from the remaining-work scan on shard {s} in round {epoch_idx}"
            );
        }
        let report = Report {
            load,
            waiting: engine.waiting_ready(),
            completed: engine.completed(),
            next_point,
            posted,
            answered,
        };
        *shared.reports[s]
            .lock()
            .expect("no shard panics while holding a report slot") = Some(report);
        shared.barrier.wait(); // #1: all reports published

        // Plan phase: every shard derives the same plan from the same
        // reports; shard 0 alone records it, so the telemetry counts each
        // boundary once.
        reports.clear();
        reports.extend(shared.reports.iter().map(|slot| {
            slot.lock()
                .expect("no shard panics while holding a report slot")
                .expect("every shard reported")
        }));
        let plan = plan_boundary(&reports, horizon, shared, &mut index);
        if s == 0 {
            record_plan(&plan, horizon, shared, &mut stats);
        }
        assert!(
            !plan.stalled,
            "threaded run stalled on shard {s}: no scheduling points, nothing in flight, work incomplete"
        );
        if plan.done {
            break;
        }

        // Execute phase: this shard's slice of the migration plan. Every
        // shard applies the ownership updates that involve it; a source
        // additionally extracts every outbound calendar entry in one pass
        // and ships each to its component's destination. The receiver's
        // admit re-sorts its calendar, so ring order is immaterial.
        outbound.clear();
        routes.clear();
        for mv in &plan.moves {
            let members = &shared.comp_members[&mv.key];
            if mv.from == s as u32 {
                outbound.extend_from_slice(members);
                routes.push((mv.key, mv.to));
                foreign += mv.work;
                for &m in members {
                    owned[m.index()] = false;
                }
            } else if mv.to == s as u32 {
                foreign -= mv.work;
                for &m in members {
                    owned[m.index()] = true;
                }
            }
        }
        if !outbound.is_empty() {
            outbound.sort_unstable();
            routes.sort_unstable();
            entries.clear();
            engine.extract_arrivals(&outbound, &mut entries);
            debug_assert_eq!(
                entries.len(),
                outbound.len(),
                "movable components are fully unarrived"
            );
            for &(at, txn) in &entries {
                let key = shared.keys[txn.index()];
                let route = routes
                    .binary_search_by_key(&key, |&(k, _)| k)
                    .expect("extracted members belong to an outbound component");
                let sent =
                    shared.chans[par][s][routes[route].1 as usize].push(Msg::Arrival { at, txn });
                assert!(
                    sent,
                    "migration payload overflowed the ring (planner budget)"
                );
            }
        }
        shared.barrier.wait(); // #2: all boundary sends complete

        // Drain phase: this round's inboxes in sender order. Everything
        // sent this round is visible (the senders passed barrier #1 or #2
        // after pushing); anything newer targets the other parity's rings.
        entries.clear();
        for from in 0..shared.k {
            if from == s {
                continue;
            }
            while let Some(msg) = shared.chans[par][from][s].pop() {
                match msg {
                    Msg::Arrival { at, txn } => entries.push((at, txn)),
                    Msg::Grant { effect, txn } => {
                        // A stolen singleton's arrival is in the past, so it
                        // joins the load but never the movable set.
                        owned[txn.index()] = true;
                        foreign -= engine.table().spec(txn).length.ticks();
                        entries.push((effect, txn));
                    }
                    Msg::Request { epoch, want, at } => req_buf.push(PendingReq {
                        from: from as u32,
                        epoch,
                        want,
                        at,
                    }),
                    Msg::Ack { epoch } => {
                        if pending_post == Some(epoch) {
                            pending_post = None;
                        }
                    }
                }
            }
        }
        if !entries.is_empty() {
            engine.admit_arrivals(&entries);
        }
        // No closing barrier: a fast peer's round-E+1 pushes land in the
        // other parity's rings, and its round-E+2 pushes — this parity
        // again — are fenced by barrier #1 of round E+1, which waits on
        // this thread's report (sequenced after this drain).
        horizon = plan.next_boundary;
        epoch_idx += 1;
    }

    let (result, obs) = shard.finish_with(Engine::finish);
    (result, obs, stats)
}

/// The load gauge's definition by brute force: remaining work of the owned
/// transactions (completed ones hold zero). Test and debug builds check the
/// O(1) gauge against it every round.
fn scanned_load(table: &TxnTable, owned: &[bool]) -> u64 {
    table
        .ids()
        .filter(|t| owned[t.index()])
        .map(|t| table.remaining(t).ticks())
        .sum()
}

/// Deepest waiting backlog among the other shards at the last boundary,
/// ties toward the lower index; `None` when nobody has ready work to spare
/// (or before the first boundary).
fn pick_victim(reports: &[Report], s: usize) -> Option<usize> {
    (0..reports.len())
        .filter(|&v| v != s && reports[v].waiting > 0)
        .max_by_key(|&v| (reports[v].waiting, std::cmp::Reverse(v)))
}

/// The boundary decision: done test, migration plan (flow-control filtered
/// to the per-channel budget), next horizon. A pure function of the reports
/// and the index, which it updates with the moves it plans; every shard
/// runs it between barriers `#1` and `#2`.
fn plan_boundary(
    reports: &[Report],
    boundary: SimTime,
    shared: &Shared<'_>,
    index: &mut MovableIndex,
) -> Plan {
    let epoch = shared.cfg.epoch;
    let completed: usize = reports.iter().map(|r| r.completed).sum();
    if completed == shared.n {
        return Plan {
            done: true,
            stalled: false,
            next_boundary: boundary + epoch,
            moves: Vec::new(),
        };
    }

    let loads: Vec<u64> = reports.iter().map(|r| r.load).collect();
    let planned = plan_rebalance(&loads, index.movable(boundary));
    // Flow control: a component's calendar entries must fit the channel
    // alongside this round's steal traffic. Dropped moves are replanned at
    // the next boundary from fresh loads.
    let mut used: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut moves = Vec::with_capacity(planned.len());
    for mv in planned {
        let len = shared.comp_members[&mv.key].len();
        let slot = used.entry((mv.from, mv.to)).or_insert(0);
        if *slot + len > shared.mig_budget {
            continue;
        }
        *slot += len;
        moves.push(mv);
    }
    for mv in &moves {
        index.moved(mv);
    }

    // Next horizon: anything in flight (migration payloads landing at this
    // drain, steal requests posted or answered this window) pins the next
    // boundary one epoch out; otherwise skip idle epochs so a quiet stretch
    // costs one barrier round, not span/epoch of them.
    let traffic = !moves.is_empty() || reports.iter().any(|r| r.posted || r.answered > 0);
    let min_point = reports.iter().filter_map(|r| r.next_point).min();
    let (next_boundary, stalled) = if traffic {
        (boundary + epoch, false)
    } else {
        match min_point {
            Some(m) => {
                let mut b = boundary + epoch;
                while b <= m {
                    b += epoch;
                }
                (b, false)
            }
            None => (boundary + epoch, true),
        }
    };
    Plan {
        done: false,
        stalled,
        next_boundary,
        moves,
    }
}

/// Record one boundary's plan in the run's telemetry: the round and every
/// planned migration. Only shard 0 calls it, so each is counted once.
fn record_plan(plan: &Plan, boundary: SimTime, shared: &Shared<'_>, stats: &mut RebalanceStats) {
    stats.barriers += 1;
    if !plan.moves.is_empty() {
        stats.migration_rounds += 1;
    }
    for mv in &plan.moves {
        let members = shared.comp_members[&mv.key].len();
        stats.migrated_components += 1;
        stats.migrated_txns += members as u64;
        stats.migrated_work += mv.work;
        stats.events.push(RebalanceEvent::Migration {
            at: boundary,
            key: mv.key,
            from: mv.from,
            to: mv.to,
            txns: members as u32,
            work_ticks: mv.work,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedRuntime;
    use crate::testutil::{dep, ind, units};
    use asets_core::metrics::MetricsSummary;

    #[test]
    fn chan_wraps_and_preserves_fifo() {
        let chan: Chan<u64> = Chan::new(2);
        assert!(chan.push(1));
        assert!(chan.push(2));
        assert_eq!(chan.pop(), Some(1));
        assert!(chan.push(3), "slot freed by pop is reusable");
        assert_eq!(chan.pop(), Some(2));
        assert_eq!(chan.pop(), Some(3));
        assert_eq!(chan.pop(), None);
    }

    #[test]
    fn chan_full_rejects_push() {
        let chan: Chan<u64> = Chan::new(2);
        assert!(chan.push(1));
        assert!(chan.push(2));
        assert!(!chan.push(3), "bounded: third push must be refused");
        chan.pop();
        assert!(chan.push(3), "accepts again after a pop");
    }

    #[test]
    fn chan_carries_messages_across_threads() {
        // The ThreadSanitizer target: concurrent producer/consumer over one
        // ring, FIFO and no losses under real contention.
        const N: u64 = 10_000;
        let chan: Chan<u64> = Chan::new(64);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..N {
                    while !chan.push(i) {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut expect = 0u64;
            while expect < N {
                if let Some(v) = chan.pop() {
                    assert_eq!(v, expect, "FIFO order violated");
                    expect += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            assert_eq!(chan.pop(), None);
        });
    }

    /// Skewed batch: heavy singletons piled on one shard plus a big cheap
    /// chain that finishes instantly, leaving its shard idle.
    fn skewed_specs() -> Vec<asets_core::txn::TxnSpec> {
        let mut specs: Vec<asets_core::txn::TxnSpec> = (0..8).map(|_| ind(0, 100, 10)).collect();
        let first = specs.len() as u32;
        specs.push(ind(0, 100, 1));
        for i in 1..9u32 {
            specs.push(dep(0, 100, 1, &[first + i - 1]));
        }
        specs
    }

    #[test]
    fn threaded_run_completes_and_merges_exactly() {
        let specs = skewed_specs();
        let n = specs.len();
        let cfg = RebalanceConfig::migrate_every(units(5)).with_steal(4);
        let r = ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.completed, n as u64);
        assert_eq!(
            r.merged.summary,
            MetricsSummary::from_outcomes(&r.merged.outcomes)
        );
        let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        let reb = r.rebalance.unwrap();
        assert!(reb.barriers > 0, "threaded runs cross barriers");
    }

    #[test]
    fn threaded_stealing_beats_the_static_split() {
        let specs = skewed_specs();
        let cfg = RebalanceConfig::migrate_every(units(5)).with_steal(4);
        let r = ShardedRuntime::new(specs.clone(), asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        let reb = r.rebalance.as_ref().unwrap();
        assert!(reb.steals > 0, "idle shard must have stolen: {reb:?}");
        assert!(
            reb.steal_requests > 0,
            "threaded steals ride the request/grant protocol"
        );
        let static_r = ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .run()
            .unwrap();
        assert!(
            r.merged.stats.makespan < static_r.merged.stats.makespan,
            "stolen {} vs static {}",
            r.merged.stats.makespan,
            static_r.merged.stats.makespan
        );
    }

    #[test]
    fn threaded_is_bit_identical_across_runs() {
        let cfg = RebalanceConfig::migrate_every(units(7)).with_steal(3);
        let run = || {
            ShardedRuntime::new(skewed_specs(), asets_core::policy::PolicyKind::asets_star())
                .shards(4)
                .rebalance(cfg)
                .with_trace()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.merged.outcomes, b.merged.outcomes);
        assert_eq!(a.merged.stats, b.merged.stats);
        assert_eq!(a.merged.trace, b.merged.trace);
        assert_eq!(a.rebalance, b.rebalance);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.txns, sb.txns, "per-shard completion sets must match");
        }
    }

    #[test]
    fn steal_events_carry_protocol_clocks() {
        let specs = skewed_specs();
        let cfg = RebalanceConfig::migrate_every(units(5)).with_steal(4);
        let r = ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        let reb = r.rebalance.unwrap();
        let mut steals = 0;
        for e in &reb.events {
            if let RebalanceEvent::Steal {
                at,
                requested_at,
                granted_at,
                ..
            } = e
            {
                steals += 1;
                assert!(requested_at <= at, "request precedes the effect boundary");
                assert!(granted_at <= at, "grant precedes the effect boundary");
            }
        }
        assert_eq!(steals as u64, reb.steals);
    }

    #[test]
    fn load_gauge_matches_the_remaining_scan_every_round() {
        // The report phase asserts gauge == `scanned_load` on every round
        // in test builds; these runs make sure both of its moving parts —
        // migrations and steals — fire along the way.
        let mut specs = skewed_specs();
        for i in 0..12u64 {
            specs.push(ind(6 + 3 * i, 60 + 3 * i, 8));
        }
        let chain = specs.len() as u32;
        specs.push(ind(30, 200, 2));
        for i in 1..6u32 {
            specs.push(dep(30, 200, 2, &[chain + i - 1]));
        }
        let (mut steals, mut migrated) = (0, 0);
        for k in 2..5 {
            for epoch in [3, 5, 7] {
                let cfg = RebalanceConfig::migrate_every(units(epoch)).with_steal(2);
                let r = ShardedRuntime::new(
                    specs.clone(),
                    asets_core::policy::PolicyKind::asets_star(),
                )
                .shards(k)
                .rebalance(cfg)
                .run()
                .unwrap();
                assert_eq!(r.merged.stats.completed, specs.len() as u64);
                let reb = r.rebalance.unwrap();
                steals += reb.steals;
                migrated += reb.migrated_txns;
            }
        }
        assert!(steals > 0, "no run stole");
        assert!(migrated > 0, "no run migrated");
    }

    #[test]
    fn threaded_migration_moves_future_components() {
        // Shard imbalance visible at t=5: the shard with the heavy head
        // also owns heavy future singletons; migration hands them over.
        let mut specs = vec![ind(0, 200, 40), ind(0, 200, 1)];
        specs.extend((0..6).map(|i| ind(20 + i, 300, 10)));
        let cfg = RebalanceConfig::migrate_every(units(5));
        let r = ShardedRuntime::new(specs.clone(), asets_core::policy::PolicyKind::Srpt)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        let reb = r.rebalance.as_ref().unwrap();
        assert_eq!(r.merged.stats.completed, specs.len() as u64);
        assert_eq!(
            r.merged.summary,
            MetricsSummary::from_outcomes(&r.merged.outcomes)
        );
        assert!(reb.migrated_components > 0, "no migration: {reb:?}");
        // Counters stay consistent with the event log, and every moved
        // member was still in the future at its boundary.
        let (mut comps, mut txns) = (0u64, 0u64);
        for e in &reb.events {
            if let RebalanceEvent::Migration {
                at, key, txns: m, ..
            } = *e
            {
                comps += 1;
                txns += m as u64;
                assert!(
                    specs[key as usize].arrival > at,
                    "moved an arrived component"
                );
            }
        }
        assert_eq!(comps, reb.migrated_components);
        assert_eq!(txns, reb.migrated_txns);
    }

    #[test]
    fn threaded_shard_panic_fails_the_run_instead_of_hanging() {
        // Shard 1's observer panics at its third epoch, mid-round; its
        // peers must fail at their next barrier rather than wait forever.
        struct PanicAt {
            shard: usize,
            epochs: u32,
        }
        impl Observer for PanicAt {
            fn on_epoch(
                &mut self,
                _events: &[asets_core::policy::LifecycleEvent],
                _summary: &asets_core::obs::EpochSummary,
            ) {
                self.epochs += 1;
                assert!(
                    self.shard != 1 || self.epochs < 3,
                    "observer failure on shard 1"
                );
            }
        }
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                let mut specs = skewed_specs();
                specs.extend((0..40).map(|i| ind(i, 200, 3)));
                let cfg = RebalanceConfig::migrate_every(units(2)).with_steal(2);
                ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
                    .shards(3)
                    .rebalance(cfg)
                    .run_observed(|shard, _table| PanicAt { shard, epochs: 0 })
            });
            let _ = done.send(run.is_err());
        });
        let panicked = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the threaded run hung after a shard panicked");
        assert!(panicked, "the run must fail when a shard panics");
    }

    #[test]
    fn quiet_stretches_skip_epochs() {
        // Arrivals at 0 and 1000 with a tiny epoch: without skip-ahead the
        // run would cross ~500 barriers; the plan jumps the gap.
        let mut specs = vec![ind(0, 10, 2), ind(0, 10, 2)];
        specs.push(ind(1000, 1010, 2));
        specs.push(ind(1000, 1010, 2));
        let cfg = RebalanceConfig::migrate_every(units(2)).with_steal(2);
        let r = ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.completed, 4);
        let reb = r.rebalance.unwrap();
        assert!(
            reb.barriers < 50,
            "idle epochs must be skipped, crossed {} barriers",
            reb.barriers
        );
    }
}
