//! View-mode slices of the service model: a service in
//! `ViewMode::JoinIndex` on one view of each datagen database, under the
//! compacting delete policy and under tombstones with a vacuum every
//! third step. After every step JoinIndex equals Materialized in cover
//! and per-FD classification, both equal full `InFine::discover`, and
//! JoinIndex lanes hold zero resident view rows (`model/mod.rs`,
//! invariants 1, 2, 7 and 8). A durable JoinIndex service also crashes
//! and recovers against the run that never crashed (invariants 5 and 6).

mod model;

use infine_durability::failpoint::WAL_APPEND;
use infine_incremental::{DeletePolicy, ViewMode};
use model::*;

const JOIN_INDEX: Config = Config {
    view: ViewMode::JoinIndex,
    durable: false,
    ..SCRIPTED
};

fn agree(case: &'static str, shards: usize, seed: u64) {
    let cfg = Config {
        case,
        shards,
        delete: DeletePolicy::Compact,
        ..JOIN_INDEX
    };
    slice(seed, cfg, 2, |m| m.churn());
}

fn agree_under_tombstones(case: &'static str, shards: usize, seed: u64) {
    let cfg = Config {
        case,
        shards,
        ..JOIN_INDEX
    };
    slice(seed, cfg, 3, |m| m.vacuum());
}

#[test]
fn tpch_view_modes_agree() {
    agree("tpch_q2", 1, 0x51EA_0001);
}

#[test]
fn tpch_view_modes_agree_under_tombstones() {
    agree_under_tombstones("tpch_q2", 2, 0x51EA_0101);
}

#[test]
fn mimic_view_modes_agree() {
    agree("mimic_q_patients_admissions", 4, 0x51EA_0002);
}

#[test]
fn mimic_view_modes_agree_under_tombstones() {
    agree_under_tombstones("mimic_q_patients_admissions", 1, 0x51EA_0102);
}

#[test]
fn ptc_view_modes_agree() {
    agree("ptc_connected_bond", 2, 0x51EA_0003);
}

#[test]
fn ptc_view_modes_agree_under_tombstones() {
    agree_under_tombstones("ptc_connected_bond", 4, 0x51EA_0103);
}

#[test]
fn pte_view_modes_agree() {
    agree("pte_atm_drug", 1, 0x51EA_0004);
}

#[test]
fn pte_view_modes_agree_under_tombstones() {
    agree_under_tombstones("pte_atm_drug", 2, 0x51EA_0104);
}

/// A durable JoinIndex service alternates WAL-append crashes and fresh
/// recoveries; the view mode survives both.
#[test]
fn joinindex_durability_kill_and_recover() {
    let cfg = Config {
        durable: true,
        ..JOIN_INDEX
    };
    let coverage = scripted(0x51EA_00FF, cfg, |m| {
        for i in 1..=steps() / 2 {
            match i % 6 {
                3 => m.op(|m| m.fault(Fault::Crash(WAL_APPEND))),
                0 => m.op(|m| m.recover()),
                _ => m.step(),
            }
        }
    });
    assert!(coverage.contains_key("crash at wal_append"));
    assert!(coverage.contains_key("recover"));
}
