//! Tombstone and vacuum slices of the service model: a service under
//! `DeletePolicy::Tombstone` on one view of each datagen database, with
//! a vacuum every third step. After each vacuum no dead row remains,
//! every vacuumed relation is byte-equal to a rebuild of its live rows,
//! `self_check` passes, covers and triples are unchanged, and dictionary
//! entries and physical rows stay within 3× a fresh engine's
//! (`model/mod.rs`, invariant 8).

mod model;

use model::*;

fn vacuum(case: &'static str, shards: usize, every: usize, seed: u64) {
    let cfg = Config {
        case,
        shards,
        durable: false,
        ..SCRIPTED
    };
    let coverage = slice(seed, cfg, every, |m| m.vacuum());
    assert!(coverage.contains_key("delete Tombstone"));
}

#[test]
fn tpch_vacuum_soak() {
    vacuum("tpch_q2", 4, 3, 0x7AC0_0001);
}

#[test]
fn mimic_vacuum_soak() {
    vacuum("mimic_q_patients_admissions", 1, 3, 0x7AC0_0002);
}

#[test]
fn ptc_vacuum_soak() {
    vacuum("ptc_connected_bond", 2, 3, 0x7AC0_0003);
}

#[test]
fn pte_vacuum_soak() {
    vacuum("pte_atm_drug", 4, 3, 0x7AC0_0004);
}

/// Sustained churn with a vacuum every second step: the 3× footprint
/// bound is checked at each one.
#[test]
fn churn_memory_stays_bounded_with_periodic_vacuum() {
    vacuum("tpch_q2", 1, 2, 0x7AC0_00FF);
}
