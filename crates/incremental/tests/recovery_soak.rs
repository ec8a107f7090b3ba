//! Kill-and-recover slices of the service model: a durable service on
//! one view of each datagen database where every second step crashes the
//! worker at the next of the five failpoint sites in turn. Each crash is
//! healed from snapshot and commitlog, and the recovered state must equal
//! the run that never crashed: triples, cover, tombstone accounting, row
//! payloads and one probe round (`model/mod.rs`, invariants 5 and 6).

mod model;

use model::*;
use std::cell::Cell;

fn recovery(case: &'static str, shards: usize, seed: u64) {
    let cfg = Config {
        case,
        shards,
        ..SCRIPTED
    };
    let next = Cell::new(0);
    let coverage = slice(seed, cfg, 2, |m| {
        let site = SITES[next.replace(next.get() + 1) % SITES.len()];
        m.fault(Fault::Crash(site));
    });
    for site in SITES {
        let key = format!("crash at {site}");
        assert!(coverage.contains_key(&key), "never reached: {key}");
    }
}

#[test]
fn tpch_recovery_soak() {
    recovery("tpch_q2", 2, 0x7AC0_0001);
}

#[test]
fn mimic_recovery_soak() {
    recovery("mimic_q_patients_admissions", 4, 0x7AC0_0002);
}

#[test]
fn ptc_recovery_soak() {
    recovery("ptc_connected_bond", 1, 0x7AC0_0003);
}

#[test]
fn pte_recovery_soak() {
    recovery("pte_atm_drug", 2, 0x7AC0_0004);
}
