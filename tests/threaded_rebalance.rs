//! The threaded rebalancing driver on generated batches: behaviour that
//! only a batch of realistic size reaches.

use asets_core::policy::PolicyKind;
use asets_core::time::{SimDuration, SimTime};
use asets_sim::{RebalanceConfig, RebalanceEvent, ShardedRuntime};
use asets_workload::skewed_shards;
use std::collections::BTreeMap;

/// At the first boundary of this Zipf-skewed batch the plan wants to move
/// 1 142 members from shard 1 to shard 0. The driver moves at most 1 018
/// members from one source to one destination at one boundary, so the move
/// is spread over two boundaries: the cap's 1 018 at 200, the remaining
/// 124 at 400, replanned from fresh loads.
#[test]
fn threaded_migration_cap_spreads_a_large_move() {
    let specs = skewed_shards(10_000, 16, 1.5, 1);
    let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(200));
    let r = ShardedRuntime::new(specs, PolicyKind::Edf)
        .shards(2)
        .rebalance(cfg)
        .run()
        .unwrap();
    let reb = r.rebalance.unwrap();
    let mut moved: BTreeMap<(SimTime, u32, u32), u64> = BTreeMap::new();
    for e in &reb.events {
        if let RebalanceEvent::Migration {
            at, from, to, txns, ..
        } = *e
        {
            *moved.entry((at, from, to)).or_default() += u64::from(txns);
        }
    }
    let expect = BTreeMap::from([
        ((SimTime::from_units_int(200), 1, 0), 1_018),
        ((SimTime::from_units_int(400), 1, 0), 124),
    ]);
    assert_eq!(moved, expect, "members moved per (boundary, from, to)");
    assert_eq!(reb.migration_rounds, 2);
    assert_eq!(reb.migrated_txns, 1_142);
}
