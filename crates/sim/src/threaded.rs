//! The rebalancing driver behind [`ShardedRuntime::rebalance`]: K shard
//! threads that meet at one barrier per round and trade work through their
//! boundary reports and a plan every shard computes from them.
//!
//! Every shard engine holds the *full* global table and a policy built from
//! it, so moving a transaction never needs spec surgery — only its pending
//! arrival entry changes calendars — but each pump delivers only the
//! shard's owned arrivals. Each shard thread steps its own engine through
//! an *epoch window* `[B, B')` without talking to anyone, and every
//! cross-shard effect — migrations, steal grants — takes effect only at a
//! window boundary, where a poisonable round barrier (`ShardBarrier`) lines
//! the threads up. The threads share nothing but that barrier and the
//! report slots: each shard writes its report before the barrier and reads
//! every shard's after it, so every exchange is ordered by barrier
//! happens-before, never by timing.
//!
//! Per round, each thread:
//!
//! 1. **answers** the steal requests addressed to it in the last round's
//!    reports (its grants take effect at this round's boundary; see below),
//! 2. **runs** its engine up to (not including) the horizon,
//! 3. **posts** one steal request if it ended the window idle,
//! 4. **reports** load / backlog / next point, its request and its grants
//!    into its report slot, stamped with the round,
//! 5. waits at the round's one **barrier**,
//! 6. **plans**: reads every shard's report and computes the boundary plan
//!    — migrations from [`plan_rebalance`] (greedy largest-work-first under
//!    the `2·work ≤ gap` rule) over its own replica of the movable-component
//!    index, then the next boundary, the next one at which a decision can
//!    happen (see below). The plan is a pure function of the reports and
//!    the index, and every replica applies the same moves, so every shard
//!    computes the same plan; there is no leader. Shard 0 alone records it
//!    in the telemetry,
//! 7. **applies** the moves and grants that involve it: a source extracts,
//!    in one calendar pass, the entries of every component it sends away; a
//!    destination admits each inbound member at its spec arrival, read from
//!    the plan; a thief admits each grant addressed to it at the boundary.
//!
//! ## Why decisions stay deterministic
//!
//! * Report slots are parity-paired: round E writes and reads
//!   `slots[E & 1]`. Every round-E report is written before the round-E
//!   barrier and read after it. A peer racing ahead into round E+1 writes
//!   the other set, and before it can write this set again, in round E+2,
//!   it must pass the barrier of round E+1, which every shard reaches only
//!   after reading round E. So each read sees exactly the round-E reports,
//!   every run. Each report carries its round and every reader asserts it:
//!   a broken pairing fails the run, naming the shards and rounds, instead
//!   of planning from a mix of rounds.
//! * The victim acts on requests only at the answer phase, from state at
//!   the window start; grants land only at the boundary. No decision reads
//!   another shard mid-window.
//! * Every shard plans from the full report vector and an index replica
//!   that has seen the same moves; thief victim-selection uses the
//!   *previous* boundary's reports.
//! * No wall clock anywhere: horizons, effect times and stamps are all
//!   simulated instants derived from the epoch cadence.
//!
//! ## The migration cap binds
//!
//! The plan moves at most `MIGRATION_CAP` (1 018) members from one source
//! to one destination at one boundary: it drops any move that would exceed
//! the cap and replans it from fresh loads at the next boundary. On a skewed
//! batch this is a migration-rate limit, not a safety margin: on the
//! benchmark's Zipf-skewed `skewed_shards` batch (K = 2) it binds in most
//! migration rounds and drops thousands of planned moves per run, while the
//! uniform twin never reaches it. Lifting or removing it changes schedules.
//!
//! ## Stealing is request and grant
//!
//! A thief cannot grab from a victim's queue mid-instant without locking
//! both engines, so stealing is request/grant: an idle thief puts a request
//! (victim, want, its clock) in its report; the victim answers at its next
//! answer phase — one round later, the first scheduling point at which the
//! request is deterministically visible — retracting up to `want` ready
//! never-served singletons ([`Scheduler::steal_candidates`] order) and
//! granting them in its report, *effective at the boundary its current
//! window ends on*; the thief admits each grant as a normal calendar
//! arrival at that boundary. The thief's clock only ever meets arrivals at
//! or after its last step, so time never runs backward, and because a
//! grant's effect time is a function of the round it was issued in, the
//! run is bit-identical across executions for a fixed seed and config.
//! Nothing acknowledges a request: the victim answers every request at its
//! very next answer phase, so a thief may post again two rounds after it
//! posted. [`RebalanceEvent::Steal`] records all three clocks
//! (`requested_at`, `granted_at`, effect `at`).
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
//! ## Rounds only where a decision can happen
//!
//! The paper invokes the scheduler only at scheduling points; the driver
//! likewise meets only at boundaries that can carry a decision. While
//! anything is in flight — a migration, a steal request posted or answered
//! in the window — the next horizon is one epoch out. Otherwise it
//! is the first boundary past the earliest next point of any shard, so a
//! quiet stretch costs one round. And when every shard reports an
//! `idle_at` — one server and an empty calendar, so nothing new can reach
//! it and its server cannot finish the owned backlog before `now + load`
//! (it finishes exactly then: the server never idles while owned work
//! remains) — the horizon moves on to the last boundary at or before the
//! earliest `idle_at`, if that lies further. With stealing off, a shard
//! that has already run dry (no load) is left out of that minimum: nothing
//! can reach it, and it asks for nothing. Both targets are computed by
//! division (`first_boundary_past`). Between the boundary and that target
//! no decision can happen:
//!
//! * every calendar is empty, so no component is movable and the plan
//!   moves nothing;
//! * every shard that has not run dry is still busy at each skipped
//!   boundary, so nobody ends a window idle, posts a steal request or has
//!   one to answer;
//! * some shard still holds work, so the run is neither done nor stalled;
//! * a window's scheduling points do not depend on where its horizon
//!   falls: one long window steps the same points as the skipped windows
//!   in turn.
//!
//! The target is itself a round, so the first thief to run dry, in the
//! window after it, still picks its victim from the preceding boundary's
//! reports, as when every boundary was crossed; eliding that round too
//! would hand it older reports. Pools with more than one server report no
//! `idle_at`: one of their servers can sit idle, and ask to steal, while
//! another still works, so they keep per-epoch rounds through the drain.
//! Only [`RebalanceStats::barriers`] changes; the `threaded_golden_*` tests
//! pin steal clocks and per-shard trailing wake-ups captured from the
//! driver that crossed every boundary.
//!
//! ## What a boundary costs
//!
//! A boundary never rescans arrived work. A shard's load is its table's
//! [`TxnTable::remaining_ticks`] gauge minus the full length of every
//! transaction it does not own — exact, because a non-owned transaction is
//! always `Pending` at full length in that shard's table (never arrived
//! there, migrated away unarrived, or retracted unserved by a steal). The
//! worker adjusts that foreign sum on each migration and steal. Movable
//! components live in each shard's replica of the index (`MovableIndex`),
//! ordered by earliest arrival so the advancing horizon retires them with a
//! cursor; since steals only take already-arrived singletons, migrations
//! are the only ownership change the index must follow, and every shard
//! applies those from the plan. Component members are read from one flat
//! [`ComponentTable`].
//!
//! What every boundary does scan, on every shard, is the still-movable set:
//! [`plan_rebalance`] filters each component the cursor has not retired
//! against the load spread and sorts the survivors, so planning costs
//! O(movable) per round plus that sort.
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
use asets_core::shard::{
    placement, plan_rebalance, routing_keys, ComponentMove, ComponentTable, MovableComponent,
};
use asets_core::table::TxnTable;
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::{TxnId, TxnSpec};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, PoisonError};

/// Members one source may migrate to one destination at one boundary; the
/// plan drops a move that would exceed it and replans it at the next
/// boundary (see the module docs). The value is what the driver's former
/// message rings left for migrations at the default `steal_k` (1 024 slots
/// less six for steal traffic), so every run keeps the schedule those rings
/// gave it at that `steal_k`.
pub(crate) const MIGRATION_CAP: usize = 1018;

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

/// An idle thief asking its victim for work, carried in the thief's report.
#[derive(Clone, Copy)]
struct StealRequest {
    /// The shard asked: the deepest backlog at the previous boundary.
    victim: u32,
    /// Transactions wanted (idle servers, clamped by `steal_k`).
    want: u32,
    /// The thief's clock when it posted (telemetry: `requested_at`).
    at: SimTime,
}

/// One shard's boundary snapshot, written into its slot of the round's
/// parity before the barrier.
#[derive(Clone)]
struct Report {
    /// The round this report belongs to; every reader asserts it.
    round: u64,
    /// Remaining work of owned, uncompleted transactions (ticks), read
    /// from the O(1) gauge.
    load: u64,
    /// Ready transactions waiting for a server.
    waiting: usize,
    /// Completions on this shard's table. Every transaction completes on
    /// exactly one table (its final owner), so the global done test is
    /// `Σ completed == n` — grants not yet admitted keep the sum short.
    completed: usize,
    /// The engine's next scheduling point at or beyond the boundary.
    next_point: Option<SimTime>,
    /// The steal request this shard posted this window, if any.
    request: Option<StealRequest>,
    /// Steal requests answered at this window's answer phase.
    answered: u32,
    /// Grants issued at this window's answer phase as `(thief, txn)`: each
    /// was retracted here and arrives on the thief at this round's
    /// boundary, which is ≥ every clock the thief can have inside it.
    grants: Vec<(u32, TxnId)>,
    /// When this shard's server finishes its owned backlog, if nothing can
    /// reach it first: `Some(now + load)` when the pool has one server and
    /// the calendar is empty. One server cannot finish sooner, and does not
    /// finish later, since it never idles while owned work remains.
    idle_at: Option<SimTime>,
}

/// The verdict for one boundary. Every shard computes it right after the
/// barrier from the same reports and its own index replica, so every shard
/// holds the same plan.
struct Plan {
    /// Every transaction completed: all threads exit this round.
    done: bool,
    /// No scheduling point anywhere, nothing in flight, work incomplete —
    /// provably unreachable; every thread panics rather than spinning.
    stalled: bool,
    /// Horizon of the next window. `boundary + epoch` while anything is in
    /// flight; otherwise skipped ahead to cover the earliest next point, or
    /// further, to the last boundary before any shard can run dry.
    next_boundary: SimTime,
    /// The next window skips boundaries because every shard reported an
    /// `idle_at`, not only because no point falls on them.
    elided: bool,
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
    fn new(components: &ComponentTable, specs: &[TxnSpec], shard_of: &[u32]) -> MovableIndex {
        let mut order: Vec<(SimTime, MovableComponent)> = components
            .iter()
            .map(|(key, members)| {
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

/// Protocol state borrowed into every worker thread.
struct Shared<'a> {
    cfg: RebalanceConfig,
    barrier: &'a ShardBarrier,
    /// `slots[round & 1][s]`: shard `s`'s report of the latest round of
    /// that parity (see the module docs for why two sets suffice).
    slots: &'a [Vec<Mutex<Option<Report>>>; 2],
    /// The batch, in global ids.
    specs: &'a [TxnSpec],
    /// Component membership by routing key, members ascending.
    components: &'a ComponentTable,
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
    /// through the boundary reports and plans; results are merged in
    /// global ids.
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
        let keys = routing_keys(master.specs());
        let shard_of = placement(&keys, k);
        let components = ComponentTable::new(&keys);

        let barrier = ShardBarrier::new(k);
        let slots: [Vec<Mutex<Option<Report>>>; 2] =
            std::array::from_fn(|_| (0..k).map(|_| Mutex::new(None)).collect());
        let movable = MovableIndex::new(&components, master.specs(), &shard_of);
        let shared = Shared {
            cfg,
            barrier: &barrier,
            slots: &slots,
            specs: master.specs(),
            components: &components,
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
    let me = s as u32;
    let specs = shared.specs;
    // Every shard plans, over its own replica of the movable index.
    let mut index = shared.movable.clone();
    let mut shard = ShardEngine::<O>::new(table, kind, knobs, make, attach);
    let engine = &mut shard.engine;
    engine.restrict_arrivals(|t| shared.shard_of[t.index()] == me);

    // Evolving ownership, this shard's view: the ground truth the load
    // gauge is checked against. Migration updates come from the plan (all
    // shards see them); steal updates from the grant (victim clears at
    // grant, thief sets after the barrier) — the gap where a granted
    // transaction is in neither load is harmless, because a stolen
    // singleton has an in-past arrival and can never look movable.
    let mut owned: Vec<bool> = shared.shard_of.iter().map(|&o| o == me).collect();
    // Σ full length of the transactions this shard does not own, moved in
    // step with `owned`: the load gauge is the table's remaining sum minus
    // this (see the module docs for why that is exact).
    let mut foreign: u64 = specs
        .iter()
        .zip(&owned)
        .filter(|&(_, &own)| !own)
        .map(|(spec, _)| spec.length.ticks())
        .sum();
    let steal = shared.cfg.steal;
    let mut stats = RebalanceStats::default();
    let mut horizon = SimTime::ZERO + shared.cfg.epoch;
    // Whether the current window was elided (see `Plan::elided`), and
    // whether this shard had already run dry when it began.
    let mut elided = false;
    let mut dry_at_start = false;
    let mut round: u64 = 0;
    // The round this shard last posted a steal request in. Its victim
    // answers in the next round, so it may post again in the one after.
    let mut last_post: Option<u64> = None;
    // The last boundary's reports, every shard's: the plan's input, the
    // steal requests this shard answers next, and the backlog snapshot the
    // next window's thief picks its victim from (one round stale,
    // deterministically so).
    let mut reports: Vec<Report> = Vec::with_capacity(shared.slots[0].len());
    let mut candidates: Vec<TxnId> = Vec::new();
    // Calendar entries this shard admits at a boundary, and the members it
    // sends away with the entries they leave.
    let mut entries: Vec<(SimTime, TxnId)> = Vec::new();
    let mut outbound: Vec<TxnId> = Vec::new();
    let mut extracted: Vec<(SimTime, TxnId)> = Vec::new();

    loop {
        // This round's report set: a peer already in round E+1 writes the
        // other one.
        let par = (round & 1) as usize;
        // Answer phase: every request in the last boundary's reports gets
        // its reply at this shard's first scheduling opportunity of the new
        // window, from pre-window state, in thief order.
        let mut answered = 0u32;
        let mut grants: Vec<(u32, TxnId)> = Vec::new();
        let requests = reports
            .iter()
            .enumerate()
            .filter_map(|(from, r)| r.request.map(|req| (from as u32, req)));
        let now = engine.now();
        for (thief, req) in requests.filter(|&(_, req)| req.victim == me) {
            candidates.clear();
            // Over-ask: some candidates fail the singleton filter.
            engine.steal_candidates_into(req.want as usize * 4, &mut candidates);
            let mut granted = 0u32;
            for &c in &candidates {
                if granted >= req.want {
                    break;
                }
                if shared.components.members(shared.keys[c.index()]).len() != 1 {
                    continue;
                }
                debug_assert!(owned[c.index()], "ready candidates are owned");
                engine.retract_stolen(c, now);
                owned[c.index()] = false;
                foreign += specs[c.index()].length.ticks();
                grants.push((thief, c));
                stats.steals += 1;
                stats.events.push(RebalanceEvent::Steal {
                    at: horizon,
                    txn: c,
                    from: me,
                    to: thief,
                    requested_at: req.at,
                    granted_at: now,
                });
                granted += 1;
            }
            answered += 1;
        }

        // Run the window: every scheduling point strictly below the
        // horizon, no cross-shard interaction.
        let next_point = engine.run_window(horizon);
        // Elision skips only boundaries at which every shard that had not
        // run dry before the window was still busy: such a shard that ends
        // an elided window idle ran dry after its last skipped boundary.
        debug_assert!(
            !elided
                || dry_at_start
                || engine.idle_servers() == 0
                || engine.last_completion() >= horizon - shared.cfg.epoch,
            "shard {s} ran dry at {}, before a boundary the window up to {horizon} elided",
            engine.last_completion()
        );

        // Post phase: idle at the window's end with no ready work — ask
        // the shard that reported the deepest backlog at the last boundary.
        let mut request = None;
        if steal
            && last_post.is_none_or(|p| p + 1 < round)
            && engine.idle_servers() > 0
            && engine.waiting_ready() == 0
        {
            if let Some(victim) = pick_victim(&reports, s) {
                request = Some(StealRequest {
                    victim: victim as u32,
                    want: engine.idle_servers().min(shared.cfg.steal_k) as u32,
                    at: engine.now(),
                });
                last_post = Some(round);
                stats.steal_requests += 1;
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
                "load gauge drifted from the remaining-work scan on shard {s} in round {round}"
            );
        }
        let idle_at = (engine.servers() == 1 && engine.calendar_empty())
            .then(|| engine.now().saturating_add(SimDuration::from_ticks(load)));
        let report = Report {
            round,
            load,
            waiting: engine.waiting_ready(),
            completed: engine.completed(),
            next_point,
            request,
            answered,
            grants,
            idle_at,
        };
        *shared.slots[par][s]
            .lock()
            .expect("no shard panics while holding a report slot") = Some(report);
        shared.barrier.wait();

        // Plan phase: every shard derives the same plan from the same
        // reports; shard 0 alone records it, so the telemetry counts each
        // boundary once.
        reports.clear();
        reports.extend(shared.slots[par].iter().enumerate().map(|(from, slot)| {
            let report = slot
                .lock()
                .expect("no shard panics while holding a report slot")
                .clone()
                .expect("every shard reported");
            assert_eq!(
                report.round, round,
                "shard {s} in round {round} read shard {from}'s report of round {}",
                report.round
            );
            report
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

        // Apply phase: this shard's part of the plan and of the grants.
        // Every shard applies the ownership updates that involve it. A
        // source extracts every outbound calendar entry in one pass; a
        // destination admits each inbound member at its spec arrival,
        // which is where the source's entry sat, since a movable member
        // has arrived nowhere. A thief admits its grants at the boundary.
        outbound.clear();
        entries.clear();
        for mv in &plan.moves {
            let members = shared.components.members(mv.key);
            if mv.from == me {
                outbound.extend_from_slice(members);
                foreign += mv.work;
                for &m in members {
                    owned[m.index()] = false;
                }
            } else if mv.to == me {
                foreign -= mv.work;
                for &m in members {
                    owned[m.index()] = true;
                    entries.push((specs[m.index()].arrival, m));
                }
            }
        }
        if !outbound.is_empty() {
            outbound.sort_unstable();
            extracted.clear();
            engine.extract_arrivals(&outbound, &mut extracted);
            debug_assert_eq!(
                extracted.len(),
                outbound.len(),
                "movable components are fully unarrived"
            );
            debug_assert!(
                extracted
                    .iter()
                    .all(|&(at, txn)| at == specs[txn.index()].arrival),
                "a movable member waits at its spec arrival"
            );
        }
        for &(thief, txn) in reports.iter().flat_map(|r| &r.grants) {
            if thief == me {
                // A stolen singleton's arrival is in the past, so it joins
                // the load but never the movable set.
                owned[txn.index()] = true;
                foreign -= specs[txn.index()].length.ticks();
                entries.push((horizon, txn));
            }
        }
        if !entries.is_empty() {
            engine.admit_arrivals(&entries);
        }
        horizon = plan.next_boundary;
        elided = plan.elided;
        dry_at_start = load == 0;
        round += 1;
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

/// The boundary decision: done test, migration plan (capped per
/// source→destination pair), next horizon. A pure function of the reports
/// and the index, which it updates with the moves it plans; every shard
/// runs it right after the barrier.
fn plan_boundary(
    reports: &[Report],
    boundary: SimTime,
    shared: &Shared<'_>,
    index: &mut MovableIndex,
) -> Plan {
    let epoch = shared.cfg.epoch;
    let completed: usize = reports.iter().map(|r| r.completed).sum();
    if completed == shared.specs.len() {
        return Plan {
            done: true,
            stalled: false,
            next_boundary: boundary + epoch,
            elided: false,
            moves: Vec::new(),
        };
    }

    let loads: Vec<u64> = reports.iter().map(|r| r.load).collect();
    let planned = plan_rebalance(&loads, index.movable(boundary));
    // Rate limit: at most `MIGRATION_CAP` members per source→destination
    // pair. Dropped moves are replanned at the next boundary from fresh
    // loads.
    let mut used: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut moves = Vec::with_capacity(planned.len());
    for mv in planned {
        let len = shared.components.members(mv.key).len();
        let slot = used.entry((mv.from, mv.to)).or_insert(0);
        if *slot + len > MIGRATION_CAP {
            continue;
        }
        *slot += len;
        moves.push(mv);
    }
    for mv in &moves {
        index.moved(mv);
    }

    // Next horizon: anything in flight (migrations applied at this
    // boundary, steal requests posted or answered this window) pins the
    // next boundary one epoch out. Otherwise skip idle epochs, so a quiet
    // stretch costs one barrier round, not span/epoch of them; and once
    // every shard reports when it runs dry, skip on to the last boundary at
    // or before the earliest of those instants (see the module docs).
    // `None` orders below `Some`, so the minimum is `Some` only when every
    // shard reports.
    let traffic = !moves.is_empty()
        || reports
            .iter()
            .any(|r| r.request.is_some() || r.answered > 0);
    // Without stealing, a shard that has run dry (no load, an `idle_at`)
    // decides nothing until the run ends: elision needs every calendar
    // empty, so no migration can reach it, and it never steals.
    let min_point = reports.iter().filter_map(|r| r.next_point).min();
    let dry = reports
        .iter()
        .filter(|r| shared.cfg.steal || r.load > 0 || r.idle_at.is_none())
        .map(|r| r.idle_at)
        .min()
        .flatten();
    let (next_boundary, stalled, elided) = match min_point {
        _ if traffic => (boundary + epoch, false, false),
        None => (boundary + epoch, true, false),
        Some(m) => {
            let quiet = first_boundary_past(boundary, m, epoch);
            match dry.map(|e| first_boundary_past(boundary, e, epoch) - epoch) {
                Some(last) if last > quiet => (last, false, true),
                _ => (quiet, false, false),
            }
        }
    };
    Plan {
        done: false,
        stalled,
        next_boundary,
        elided,
        moves,
    }
}

/// The first boundary `boundary + j·epoch` (`j ≥ 1`) strictly past `t`:
/// the horizon of a window that covers a scheduling point at `t`, or
/// `boundary + epoch` when `t` lies before it. By division, so skipping a
/// quiet stretch costs O(1) however many epochs it spans.
fn first_boundary_past(boundary: SimTime, t: SimTime, epoch: SimDuration) -> SimTime {
    let whole = t
        .checked_since(boundary)
        .map_or(0, |gap| gap.ticks() / epoch.ticks());
    boundary + epoch * (whole + 1)
}

/// Record one boundary's plan in the run's telemetry: the round and every
/// planned migration. Only shard 0 calls it, so each is counted once.
fn record_plan(plan: &Plan, boundary: SimTime, shared: &Shared<'_>, stats: &mut RebalanceStats) {
    stats.barriers += 1;
    if !plan.moves.is_empty() {
        stats.migration_rounds += 1;
    }
    for mv in &plan.moves {
        let members = shared.components.members(mv.key).len();
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
    use crate::stats::{EpochStats, RunStats};
    use crate::testutil::{dep, ind, units};
    use asets_core::metrics::MetricsSummary;

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
    fn threaded_first_boundary_past_matches_the_loop() {
        // The division agrees with walking the boundaries one epoch at a
        // time: on every small boundary, instant and epoch (in ticks), and
        // on pseudo-random larger ones.
        fn walked(boundary: u64, instant: u64, epoch: u64) -> SimTime {
            let mut b = SimTime::from_ticks(boundary) + SimDuration::from_ticks(epoch);
            while b <= SimTime::from_ticks(instant) {
                b += SimDuration::from_ticks(epoch);
            }
            b
        }
        let check = |boundary: u64, instant: u64, epoch: u64| {
            assert_eq!(
                first_boundary_past(
                    SimTime::from_ticks(boundary),
                    SimTime::from_ticks(instant),
                    SimDuration::from_ticks(epoch)
                ),
                walked(boundary, instant, epoch),
                "boundary {boundary}, instant {instant}, epoch {epoch}"
            );
        };
        for epoch in 1..8 {
            for boundary in 0..24 {
                for instant in 0..72 {
                    check(boundary, instant, epoch);
                }
            }
        }
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for _ in 0..1000 {
            let boundary = next(1 << 40);
            let instant = boundary.saturating_sub(1000) + next(6000);
            check(boundary, instant, 1 + next(97));
        }
    }

    #[test]
    fn threaded_quiet_gap_of_1e11_epochs_costs_one_round() {
        // Walking the gap one epoch at a time would take 10^11 steps in one
        // plan; by division the skip is O(1).
        let gap = 100_000_000_000;
        let specs = vec![
            ind(0, 10, 2),
            ind(0, 10, 2),
            ind(gap, gap + 10, 2),
            ind(gap, gap + 10, 2),
        ];
        let cfg = RebalanceConfig::migrate_every(units(1)).with_steal(2);
        let r = ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.completed, 4);
        assert_eq!(r.merged.stats.makespan, SimTime::from_units_int(gap + 2));
        let reb = r.rebalance.unwrap();
        assert!(reb.barriers < 10, "crossed {} barriers", reb.barriers);
    }

    #[test]
    fn threaded_drain_with_stealing_crosses_few_barriers() {
        // Two shards with 200 five-unit singletons each, all arrived at
        // zero: both stay busy until 1000, so no boundary in between can
        // move, post or grant anything. Per-completion rounds would cross
        // ~200 barriers; elision crosses a handful.
        let specs: Vec<_> = (0..400).map(|_| ind(0, 2000, 5)).collect();
        let cfg = RebalanceConfig::migrate_every(units(1)).with_steal(4);
        let r = ShardedRuntime::new(specs, asets_core::policy::PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.completed, 400);
        assert_eq!(r.merged.stats.makespan, SimTime::from_units_int(1000));
        let reb = r.rebalance.unwrap();
        assert_eq!(reb.steal_requests, 0, "nobody ran dry before the end");
        assert!(
            reb.barriers < 10,
            "the drain must be elided, crossed {} barriers",
            reb.barriers
        );
    }

    /// Three shards, all work arrived at zero: a 20-member chain of unit
    /// steps (shard 0, dry at 20) and sixteen singletons alternating
    /// between shard 1 (length 3, dry at 24) and shard 2 (length 5, dry at
    /// 40). At epoch 1 the drain is elided up to 20, so the first thief's
    /// victim comes from the reports of the boundary at 20 — shard 2 with
    /// four waiting, not shard 1 as the reports at 1 would say.
    fn drain_steal_specs() -> Vec<TxnSpec> {
        let mut specs = vec![ind(0, 200, 1)];
        for i in 1..20u32 {
            specs.push(dep(0, 200, 1, &[i - 1]));
        }
        for i in 0..16u64 {
            specs.push(ind(0, 100, if i % 2 == 0 { 3 } else { 5 }));
        }
        specs
    }

    #[test]
    fn threaded_golden_drain_steals() {
        // Captured from the driver that crossed every boundary.
        let cfg = RebalanceConfig::migrate_every(units(1)).with_steal(4);
        let r = ShardedRuntime::new(drain_steal_specs(), asets_core::policy::PolicyKind::Edf)
            .shards(3)
            .rebalance(cfg)
            .run()
            .unwrap();
        let steals: Vec<(u64, u32, u32, u32, u64, u64)> = r
            .rebalance
            .as_ref()
            .unwrap()
            .events
            .iter()
            .filter_map(|e| match *e {
                RebalanceEvent::Steal {
                    at,
                    txn,
                    from,
                    to,
                    requested_at,
                    granted_at,
                } => Some((
                    at.ticks() / units(1).ticks(),
                    txn.0,
                    from,
                    to,
                    requested_at.ticks() / units(1).ticks(),
                    granted_at.ticks() / units(1).ticks(),
                )),
                RebalanceEvent::Migration { .. } => None,
            })
            .collect();
        assert_eq!(steals, [(22, 31, 2, 0, 20, 20), (26, 33, 2, 1, 24, 20)]);
        let finish: Vec<SimTime> = r.merged.outcomes.iter().map(|o| o.finish).collect();
        let expect: Vec<SimTime> = (1..=20)
            .chain([3, 5, 6, 10, 9, 15, 12, 20, 15, 25, 18, 27, 21, 31, 24, 30])
            .map(SimTime::from_units_int)
            .collect();
        assert_eq!(finish, expect);
    }

    #[test]
    fn threaded_golden_balance_aware_drain_stats() {
        // A time-rate BalanceAware shard wakes every period until the done
        // round, so its point and epoch counts pin where that round falls.
        // Captured from the driver that crossed every boundary, as
        // (points, dispatches, busy, idle, makespan, completed, events).
        use asets_core::policy::{ActivationMode, ImpactRule, PolicyKind};
        type Row = (u64, u64, u64, u64, u64, u64, u64);
        let kind = PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::time_rate(0.1),
        };
        let cases: [(bool, [Row; 3]); 2] = [
            (
                false,
                [
                    (23, 20, 20, 20, 20, 20, 59),
                    (13, 10, 24, 16, 24, 8, 18),
                    (9, 8, 40, 0, 40, 8, 16),
                ],
            ),
            (
                true,
                [
                    (24, 21, 25, 5, 27, 21, 61),
                    (14, 12, 29, 2, 31, 9, 21),
                    (7, 6, 30, 0, 30, 6, 14),
                ],
            ),
        ];
        for (steal, rows) in cases {
            let mut cfg = RebalanceConfig::migrate_every(units(1));
            if steal {
                cfg = cfg.with_steal(4);
            }
            let r = ShardedRuntime::new(drain_steal_specs(), kind)
                .shards(3)
                .rebalance(cfg)
                .run()
                .unwrap();
            for (shard, &(points, dispatches, busy, idle, makespan, completed, events)) in
                r.shards.iter().zip(&rows)
            {
                let stats = RunStats {
                    scheduling_points: points,
                    preemptions: 0,
                    dispatches,
                    busy: units(busy),
                    idle: units(idle),
                    makespan: SimTime::from_units_int(makespan),
                    completed,
                };
                let epochs = EpochStats {
                    epochs: points,
                    events,
                    max_epoch_width: if shard.shard == 0 { 20 } else { 8 },
                };
                let tag = format!("steal {steal}, shard {}", shard.shard);
                assert_eq!(shard.result.stats, stats, "{tag}");
                assert_eq!(shard.result.epochs, epochs, "{tag}");
            }
        }
    }

    #[test]
    fn migrate_only_drain_skips_the_dry_shards() {
        // Migrate-only, the drain of `drain_steal_specs` is elided past
        // shard 0 running dry at 20 and shard 1 at 24, on to the done round
        // after shard 2's last completion at 40. Were the dry shards' stale
        // `idle_at` kept in the elision minimum, it would take 9 barriers.
        use asets_core::policy::{ActivationMode, ImpactRule, PolicyKind};
        let kinds = [
            PolicyKind::BalanceAware {
                impact: ImpactRule::Paper,
                activation: ActivationMode::time_rate(0.1),
            },
            PolicyKind::Edf,
            PolicyKind::asets_star(),
        ];
        for kind in kinds {
            let r = ShardedRuntime::new(drain_steal_specs(), kind)
                .shards(3)
                .rebalance(RebalanceConfig::migrate_every(units(1)))
                .run()
                .unwrap();
            assert_eq!(r.merged.stats.completed, 36, "{kind:?}");
            assert_eq!(r.rebalance.unwrap().barriers, 7, "{kind:?}");
        }
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
