//! Steady-state allocation audit for the batched hot path.
//!
//! The epoch-coalesced engine recycles every per-point buffer (lifecycle
//! events, due arrivals, released dependents, choices, paused sets, the
//! policy's staging/touched/drained scratch). Once those buffers reach
//! their high-water marks, a scheduling step must not touch the allocator
//! at all. This test installs a counting `#[global_allocator]` (which is
//! why it lives in its own integration-test binary), warms an AsetsStar
//! engine through most of a chain-heavy run, then asserts the remaining
//! steps allocate nothing — with one server, and with two, where every
//! point fills its slots through `select_many`'s top-k walk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asets_core::prelude::*;
use asets_sim::Engine;

struct CountingAlloc;

thread_local! {
    // Per thread, so tests running concurrently (and the harness) never
    // count against each other. A `const` `Cell` needs no lazy init and no
    // destructor, so touching it cannot itself allocate.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh acquisition from the hot path's point of
        // view: growing a scratch Vec past its high-water mark counts.
        count_call();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Staggered identical chains: the same epoch shape repeats for the whole
/// run, so every scratch buffer's high-water mark is reached early.
fn chain_workload(chains: u64, depth: u64) -> Vec<TxnSpec> {
    let mut specs = Vec::new();
    for c in 0..chains {
        let head = specs.len() as u32;
        for d in 0..depth {
            let arrival = SimTime::from_units_int(c);
            let length = SimDuration::from_units_int(2);
            specs.push(TxnSpec {
                arrival,
                deadline: arrival + SimDuration::from_units_int(8 * (d + 1) + 40),
                length,
                weight: Weight(1 + (c % 3) as u32),
                deps: if d == 0 {
                    vec![]
                } else {
                    vec![TxnId(head + d as u32 - 1)]
                },
            });
        }
    }
    specs
}

/// Warm an AsetsStar engine with `servers` servers through most of the
/// chain workload, then assert that a window of steady-state steps makes
/// no allocator call.
fn assert_steady_state_does_not_allocate(servers: usize) {
    let specs = chain_workload(300, 4);
    let n = specs.len();
    let table = TxnTable::new(specs.clone()).expect("acyclic");
    let policy = PolicyKind::asets_star().build(&table);
    let mut engine = Engine::new(specs, policy)
        .expect("acyclic")
        .with_servers(servers)
        .with_batching();

    // Warm-up: run most of the batch so every scratch buffer has seen its
    // widest epoch (the workload repeats one epoch shape, so the mark is
    // hit long before this).
    let warmup = 3 * n / 4;
    let mut steps = 0usize;
    while steps < warmup && engine.step() {
        steps += 1;
    }
    assert!(steps == warmup, "workload must outlast the warm-up window");

    // Measured window: a representative slice of steady-state steps.
    let window = n / 8;
    let before = alloc_calls();
    let mut measured = 0usize;
    while measured < window && engine.step() {
        measured += 1;
    }
    let delta = alloc_calls() - before;

    assert!(measured == window, "window must consist of live steps");
    assert_eq!(
        delta, 0,
        "steady-state batched steps must not allocate at M={servers} \
         ({delta} allocator calls over {measured} steps)"
    );

    // The engine still finishes correctly after being driven manually.
    while engine.step() {}
    let result = engine.run();
    assert_eq!(result.stats.completed, n as u64);
}

#[test]
fn batched_steady_state_steps_do_not_allocate() {
    assert_steady_state_does_not_allocate(1);
}

#[test]
fn multi_server_steady_state_steps_do_not_allocate() {
    assert_steady_state_does_not_allocate(2);
}
