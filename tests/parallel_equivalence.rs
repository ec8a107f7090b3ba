//! Parallel/sequential equivalence (satellite of the CSR + parallelism
//! PR): every miner, the full InFine pipeline, and the maintenance
//! engine must produce *byte-identical* output whether the `infine-exec`
//! pool runs one worker (pure sequential) or several. Parallelism in
//! this workspace only changes *when* partitions get computed, never
//! which FDs are derived — these tests pin that contract.
//!
//! The worker count is a process-wide knob, so every test serializes on
//! one lock before flipping it.

use infine_algebra::ViewSpec;
use infine_core::InFine;
use infine_datagen::{find, random_churn, DatasetKind, Scale};
use infine_discovery::{Algorithm, FdSet};
use infine_incremental::MaintenanceEngine;
use infine_relation::{Database, DeltaRelation, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes tests that flip the global worker count.
static EXEC_LOCK: Mutex<()> = Mutex::new(());

fn with_thread_counts<R: PartialEq + std::fmt::Debug>(label: &str, run: impl Fn() -> R) {
    let _guard = EXEC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    infine_exec::set_parallelism(1);
    let sequential = run();
    for threads in [2usize, 4] {
        infine_exec::set_parallelism(threads);
        let parallel = run();
        assert_eq!(
            sequential, parallel,
            "{label}: output diverged at {threads} workers"
        );
    }
    infine_exec::set_parallelism(0);
}

fn mining_targets() -> Vec<Relation> {
    let db = DatasetKind::Pte.generate(Scale::of(0.01));
    let mimic = DatasetKind::Mimic.generate(Scale::of(0.005));
    let tpch = DatasetKind::Tpch.generate(Scale::of(0.005));
    let ptc = DatasetKind::Ptc.generate(Scale::of(0.005));
    let mut rels = vec![
        db.expect("atm").clone(),
        db.expect("drug").clone(),
        mimic.expect("patients").clone(),
        tpch.expect("supplier").clone(),
        ptc.expect("bond").clone(),
    ];
    // Keep the quadratic miners honest but fast.
    rels.iter_mut().for_each(|r| {
        if r.nrows() > 400 {
            let keep: Vec<u32> = (0..400).collect();
            *r = r.gather(&keep, r.name.clone());
        }
    });
    rels
}

#[test]
fn every_miner_is_thread_count_invariant() {
    let rels = mining_targets();
    for algo in [
        Algorithm::Tane,
        Algorithm::Fun,
        Algorithm::FastFds,
        Algorithm::HyFd,
        Algorithm::Levelwise,
    ] {
        for rel in &rels {
            with_thread_counts(&format!("{} on {}", algo.name(), rel.name), || {
                algo.discover(rel).to_sorted_vec()
            });
        }
    }
}

fn pipeline_cases() -> Vec<(Database, ViewSpec)> {
    [
        "pte_atm_drug",
        "ptc_connected_bond",
        "mimic_q_patients_admissions",
        "tpch_q2",
    ]
    .iter()
    .map(|id| {
        let case = find(id).unwrap_or_else(|| panic!("unknown case {id}"));
        (case.dataset.generate(Scale::of(0.005)), case.spec)
    })
    .collect()
}

#[test]
fn pipeline_discovery_is_thread_count_invariant() {
    for (db, spec) in pipeline_cases() {
        with_thread_counts(&format!("discover {spec}"), || {
            let report = InFine::default().discover(&db, &spec).expect("pipeline");
            // The stats pin the work of the walk, not only its output.
            (report.triples, report.stats)
        });
    }
}

#[test]
fn maintenance_rounds_are_thread_count_invariant() {
    let case = find("tpch_q2").expect("catalog case");
    let db = case.dataset.generate(Scale::of(0.005));
    with_thread_counts("maintenance tpch_q2", || {
        let mut engine = MaintenanceEngine::new(InFine::default(), db.clone(), case.spec.clone())
            .expect("bootstrap");
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut outputs: Vec<(Vec<infine_discovery::Fd>, usize)> = Vec::new();
        for _ in 0..3 {
            let rel = engine.database().expect("supplier");
            let delta = random_churn(&mut rng, rel, 0.05);
            let report = engine
                .apply_one(&DeltaRelation::new("supplier", delta.batch))
                .expect("apply");
            outputs.push((report.cover.to_sorted_vec(), report.triples.len()));
        }
        (outputs, engine.fd_set().to_sorted_vec())
    });
}

#[test]
fn incremental_base_fds_still_skip_premining() {
    // The hoisted parallel step-1 must not re-mine labels the caller
    // supplied (the incremental engine depends on this staying free).
    let _guard = EXEC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    infine_exec::set_parallelism(4);
    let case = find("pte_atm_drug").expect("catalog case");
    let db = case.dataset.generate(Scale::of(0.01));
    let base_fds: infine_core::BaseFds = infine_core::base_scopes(&db, &case.spec)
        .expect("scopes")
        .into_iter()
        .map(|s| {
            let rel = s.project(&db);
            let fds: FdSet = Algorithm::Levelwise.discover_restricted(&rel, rel.attr_set());
            (s.label, fds)
        })
        .collect();
    let full = InFine::default().discover(&db, &case.spec).expect("full");
    let inc = InFine::default()
        .discover_incremental(&db, &case.spec, &base_fds)
        .expect("incremental");
    infine_exec::set_parallelism(0);
    assert_eq!(full.triples, inc.triples);
    assert_eq!(inc.timings.base_mining, std::time::Duration::ZERO);
}
