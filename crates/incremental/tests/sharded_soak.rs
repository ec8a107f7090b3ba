//! Sharding slices of the service model: an in-memory service on one
//! view of each datagen database, at 2 and then 4 shards, driven
//! by mixed churn rounds (inserts and deletes, empty batches, skipped
//! tables). After every step the sharded engine equals the unsharded one
//! in cover, triples and per-FD classification, and both equal full
//! `InFine::discover` re-discovery (`model/mod.rs`, invariants 1 and 2).
//! One shard, where the sharded engine is a single fragment, runs on a
//! third of the `service_model` seeds.

mod model;

use infine_incremental::DeletePolicy;
use model::*;

fn sharded(case: &'static str, seed: u64) {
    for (i, shards) in [2, 4].into_iter().enumerate() {
        let cfg = Config {
            case,
            shards,
            delete: DeletePolicy::Compact,
            durable: false,
            ..SCRIPTED
        };
        slice(seed + i as u64, cfg, 2, |m| m.churn());
    }
}

#[test]
fn tpch_soak_sharded_equals_unsharded_equals_full() {
    sharded("tpch_q2", 0x50AC_0010);
}

#[test]
fn mimic_soak_sharded_equals_unsharded_equals_full() {
    sharded("mimic_q_patients_admissions", 0x50AC_0020);
}

#[test]
fn ptc_soak_sharded_equals_unsharded_equals_full() {
    sharded("ptc_connected_bond", 0x50AC_0030);
}

#[test]
fn pte_soak_sharded_equals_unsharded_equals_full() {
    sharded("pte_atm_drug", 0x50AC_0040);
}
