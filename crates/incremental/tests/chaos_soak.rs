//! Chaos slices of the service model: a durable service on one view of
//! each datagen database where every second step arms a random fault (a
//! crash at any site, a transient or fatal I/O error, or a slow disk) and
//! runs the op that hits it. The survivor must equal the run that never
//! faulted, and every ingested round is applied, dropped and re-offered,
//! or lost and re-fed (`model/mod.rs`, invariants 5 and 6).

mod model;

use model::*;

fn chaos(case: &'static str, shards: usize, seed: u64) {
    let cfg = Config {
        case,
        shards,
        ..SCRIPTED
    };
    slice(seed, cfg, 2, |m| {
        let fault = Fault::draw(&mut m.rng);
        m.fault(fault);
    });
}

#[test]
fn tpch_chaos_soak() {
    chaos("tpch_q2", 1, 0xC4A0_0001);
}

#[test]
fn mimic_chaos_soak() {
    chaos("mimic_q_patients_admissions", 2, 0xC4A0_0002);
}

#[test]
fn ptc_chaos_soak() {
    chaos("ptc_connected_bond", 4, 0xC4A0_0003);
}

#[test]
fn pte_chaos_soak() {
    chaos("pte_atm_drug", 1, 0xC4A0_0004);
}
