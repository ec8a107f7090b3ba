//! View-mode equivalence soak (satellite of the materialization-free
//! view PR): ≥20 seeded random churn rounds on one representative view
//! of each of the four datagen databases, pinning after **every** round
//! that [`ViewMode::JoinIndex`] — unsharded and at 1, 2, and 4 shards —
//! produces the same cover, the same surviving provenance triples, and
//! the same per-FD round classification as [`ViewMode::Materialized`],
//! and that both equal full `InFine::discover` re-discovery of the
//! updated database. The virtual lanes must hold **zero** resident
//! materialized view rows throughout.
//!
//! Each case runs twice: once under the compacting delete policy and
//! once under tombstones with a mid-soak vacuum, pinning the stored
//! base tables' tombstone accounting byte-equal across modes and the
//! covers unchanged across the vacuum. A final kill-and-recover pass
//! drives a durable service in JoinIndex mode through a WAL-append
//! crash and pins the recovered engine (and its published cover
//! snapshots) against a never-crashed reference.
//!
//! Scale via `INFINE_SOAK_SCALE` (default 0.002) and round count via
//! `INFINE_SOAK_ROUNDS` (default 20, the satellite's floor).

use infine_core::InFine;
use infine_datagen::{find, random_delta, Scale};
use infine_discovery::{same_fds, Fd, FdSet};
use infine_durability::failpoint::WAL_APPEND;
use infine_durability::{FailPoints, SnapshotPolicy};
use infine_incremental::{
    DeletePolicy, DurabilityOptions, InsertPolicy, MaintenanceEngine, MaintenanceError,
    MaintenanceMode, MaintenanceReport, MaintenanceService, ShardedEngine, TombstoneStats,
    VacuumPolicy, ViewMode,
};
use infine_relation::{AttrSet, Database, DeltaBatch, DeltaRelation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn soak_rounds() -> usize {
    std::env::var("INFINE_SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

fn soak_scale() -> Scale {
    Scale::of(
        std::env::var("INFINE_SOAK_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.002),
    )
}

/// One random round: per base table, usually a mixed batch sized by a
/// per-round dice roll, sometimes an explicitly empty batch, sometimes
/// no batch at all. Generated against the compacting oracle engine so
/// row ids address the logical (tombstone-free) table.
fn random_round(
    rng: &mut StdRng,
    oracle: &MaintenanceEngine,
    tables: &[String],
) -> Vec<DeltaRelation> {
    let mut round = Vec::new();
    for t in tables {
        match rng.gen_range(0..10u32) {
            0 => {}
            1 => round.push(DeltaRelation::new(t.clone(), DeltaBatch::new())),
            _ => {
                let rel = oracle.database().expect(t);
                let max = (rel.nrows() / 20).max(3);
                let deletes = rng.gen_range(0..=max);
                let inserts = rng.gen_range(0..=max);
                round.push(DeltaRelation::new(
                    t.clone(),
                    random_delta(rng, rel, deletes, inserts),
                ));
            }
        }
    }
    round
}

/// Sortable digest of one round report: surviving triples plus the
/// per-FD classification — the full observable surface of a cover-only
/// round. Two backends that merely *look* equal diverge here.
type ReportDigest = (
    Vec<infine_core::ProvenanceTriple>,
    Vec<(
        infine_discovery::Fd,
        infine_core::FdKind,
        String,
        infine_incremental::FdStatus,
    )>,
    Vec<infine_discovery::Fd>,
);

fn digest(r: &MaintenanceReport) -> ReportDigest {
    let mut held: Vec<_> = r
        .held
        .iter()
        .map(|(t, s)| (t.fd, t.kind, t.subquery.clone(), *s))
        .collect();
    held.sort();
    let mut fresh = r.fresh.clone();
    fresh.sort();
    (r.triples.clone(), held, fresh)
}

/// Tombstone accounting of the *stored base tables* only — the part
/// that must be byte-equal across view backends (backend-held state is
/// view-shaped in one mode and base-shaped in the other, so the engine
/// totals legitimately differ).
fn stored_table_stats(db: &Database) -> TombstoneStats {
    let mut stats = TombstoneStats::default();
    let mut names: Vec<&str> = db.names().collect();
    names.sort();
    for name in names {
        stats.merge(TombstoneStats::of(db.expect(name)));
    }
    stats
}

fn soak(case_id: &str, seed: u64, delete_policy: DeletePolicy) {
    let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
    let db = case.dataset.generate(soak_scale());
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds = soak_rounds();
    let tables: Vec<String> = case
        .spec
        .base_tables()
        .into_iter()
        .map(str::to_string)
        .collect();

    // The compacting exact-provenance oracle: addresses the delta
    // generator and anchors the full-re-discovery comparison.
    let mut exact = MaintenanceEngine::new(InFine::default(), db.clone(), case.spec.clone())
        .unwrap_or_else(|e| panic!("{case_id}: oracle bootstrap failed: {e}"));

    let mut mat = MaintenanceEngine::with_options(
        InFine::default(),
        db.clone(),
        case.spec.clone(),
        MaintenanceMode::CoverOnly,
        delete_policy,
        ViewMode::Materialized,
    )
    .unwrap_or_else(|e| panic!("{case_id}: materialized bootstrap failed: {e}"));
    let mut virt = MaintenanceEngine::with_options(
        InFine::default(),
        db.clone(),
        case.spec.clone(),
        MaintenanceMode::CoverOnly,
        delete_policy,
        ViewMode::JoinIndex,
    )
    .unwrap_or_else(|e| panic!("{case_id}: join-index bootstrap failed: {e}"));
    // The soak is vacuous if the spec silently fell back to
    // materialization — pin the active backend, not just the request.
    assert_eq!(
        virt.active_view_mode(),
        Some(ViewMode::JoinIndex),
        "{case_id}: spec must be inside the virtual subset"
    );
    assert_eq!(
        mat.active_view_mode(),
        Some(ViewMode::Materialized),
        "{case_id}: materialized lane lost its backend"
    );

    let mut sharded: Vec<ShardedEngine> = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let eng = ShardedEngine::with_options(
                InFine::default(),
                db.clone(),
                case.spec.clone(),
                n,
                InsertPolicy::default(),
                delete_policy,
                ViewMode::JoinIndex,
            )
            .unwrap_or_else(|e| panic!("{case_id}: {n}-shard bootstrap failed: {e}"));
            assert_eq!(
                eng.active_view_mode(),
                ViewMode::JoinIndex,
                "{case_id}: {n}-shard lane fell back to materialization"
            );
            eng
        })
        .collect();

    // All lanes bootstrap to the same exact-provenance report.
    for (n, eng) in SHARD_COUNTS.iter().zip(&sharded) {
        assert_eq!(
            eng.report().triples,
            virt.report().triples,
            "{case_id}: {n}-shard bootstrap diverged"
        );
    }
    assert_eq!(
        mat.report().triples,
        virt.report().triples,
        "{case_id}: bootstrap reports diverged across view modes"
    );

    for round in 0..rounds {
        let deltas = random_round(&mut rng, &exact, &tables);
        exact
            .apply(&deltas)
            .unwrap_or_else(|e| panic!("{case_id}: oracle round {round} failed: {e}"));
        let m = mat
            .apply(&deltas)
            .unwrap_or_else(|e| panic!("{case_id}: materialized round {round} failed: {e}"));
        let v = virt
            .apply(&deltas)
            .unwrap_or_else(|e| panic!("{case_id}: join-index round {round} failed: {e}"));

        // Triples, covers, and classification: JoinIndex == Materialized.
        assert_eq!(
            digest(&m),
            digest(&v),
            "{case_id}: view modes diverged at round {round}"
        );
        assert!(
            same_fds(&m.cover, &v.cover),
            "{case_id}: covers diverged at round {round}"
        );
        // ... == full re-discovery on the updated database (aligned by
        // attribute name — the backend's view schema and the pipeline's
        // report schema may order attributes differently).
        let full = InFine::default()
            .discover(exact.database(), &case.spec)
            .unwrap_or_else(|e| panic!("{case_id}: full discover at round {round} failed: {e}"));
        let map: Vec<usize> = (0..v.schema.len())
            .map(|i| full.schema.expect_id(v.schema.name(i)))
            .collect();
        let aligned = v
            .cover
            .iter()
            .map(|fd| {
                Fd::new(
                    fd.lhs.iter().map(|a| map[a]).collect::<AttrSet>(),
                    map[fd.rhs],
                )
            })
            .fold(FdSet::new(), |mut s, fd| {
                s.insert_unchecked(fd);
                s
            });
        assert!(
            aligned.equivalent(&full.fd_set()),
            "{case_id}: join-index cover ≠ full re-discovery at round {round}"
        );
        // The whole point: nothing view-shaped is resident.
        assert_eq!(
            virt.resident_view_rows(),
            0,
            "{case_id}: virtual lane materialized rows at round {round}"
        );

        for (&n, eng) in SHARD_COUNTS.iter().zip(sharded.iter_mut()) {
            let s = eng
                .apply(&deltas)
                .unwrap_or_else(|e| panic!("{case_id}: {n}-shard round {round} failed: {e}"));
            assert_eq!(
                digest(&s),
                digest(&v),
                "{case_id}: {n}-shard join-index diverged at round {round}"
            );
            assert_eq!(eng.resident_view_rows(), 0);
        }

        // Under tombstones the stored base tables must carry identical
        // accounting in both modes (same deltas, same policy); mid-soak,
        // vacuum every lane and pin the covers across the move.
        if round == rounds / 2 {
            if delete_policy == DeletePolicy::Tombstone {
                let (sm, sv) = (
                    stored_table_stats(mat.database()),
                    stored_table_stats(virt.database()),
                );
                assert_eq!(
                    sm, sv,
                    "{case_id}: stored-table tombstone accounting diverged"
                );
            }
            let cover_before = virt.fd_set();
            mat.vacuum();
            virt.vacuum();
            for eng in sharded.iter_mut() {
                eng.vacuum();
            }
            assert!(
                same_fds(&cover_before, &virt.fd_set()),
                "{case_id}: vacuum changed the join-index cover"
            );
            assert!(
                same_fds(&mat.fd_set(), &virt.fd_set()),
                "{case_id}: covers diverged across vacuum"
            );
            if delete_policy == DeletePolicy::Tombstone {
                let sv = stored_table_stats(virt.database());
                assert_eq!(
                    sv.physical_rows, sv.live_rows,
                    "{case_id}: vacuum left stored tombstones behind"
                );
            }
        }
    }

    // End of stream: deep self-checks (virtual view re-materialized and
    // re-mined from scratch) on the surviving lanes.
    virt.self_check();
    for eng in &sharded {
        eng.self_check();
    }
}

// ---------------------------------------------------------------------
// Durability: kill-and-recover in JoinIndex mode.
// ---------------------------------------------------------------------

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "infine-vmsoak-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_engine(case_id: &str, db: &Database, spec: &infine_algebra::ViewSpec) -> ShardedEngine {
    let eng = ShardedEngine::with_options(
        InFine::default(),
        db.clone(),
        spec.clone(),
        2,
        InsertPolicy::default(),
        DeletePolicy::Tombstone,
        ViewMode::JoinIndex,
    )
    .unwrap_or_else(|e| panic!("{case_id}: durable bootstrap failed: {e}"));
    assert_eq!(eng.active_view_mode(), ViewMode::JoinIndex);
    eng
}

/// Feed the stream through a durable JoinIndex service; if `failpoints`
/// arms a crash site, respawn from snapshot + commitlog on worker death
/// and re-feed exactly the rounds recovery reports as lost. Returns the
/// final engine plus the last published read snapshot.
fn durable_run(
    case_id: &str,
    db: &Database,
    spec: &infine_algebra::ViewSpec,
    dir: &std::path::Path,
    failpoints: Option<FailPoints>,
    rounds: &[Vec<DeltaRelation>],
) -> (
    ShardedEngine,
    std::sync::Arc<infine_incremental::PublishedCovers>,
    usize,
) {
    let mut options = DurabilityOptions::new(dir).snapshot_policy(SnapshotPolicy::every_rounds(5));
    let crashing = failpoints.is_some();
    if let Some(fp) = failpoints {
        options = options.failpoints(fp);
    }
    let mut service = MaintenanceService::spawn_durable(
        durable_engine(case_id, db, spec),
        VacuumPolicy::at_fraction(0.5),
        options,
    )
    .unwrap_or_else(|e| panic!("{case_id}: durable spawn failed: {e}"));
    let reader = service.reader();
    let mut recoveries = 0usize;
    let mut i = 0usize;
    while i < rounds.len() {
        let died = match service.ingest(rounds[i].clone()) {
            Err(MaintenanceError::WorkerDied) => true,
            Err(e) => panic!("{case_id}: ingest {i} failed: {e}"),
            Ok(()) => match service.recv_report() {
                Some(Ok(_)) => {
                    i += 1;
                    false
                }
                Some(Err(MaintenanceError::WorkerDied)) | None => true,
                Some(Err(e)) => panic!("{case_id}: round {i} failed: {e}"),
            },
        };
        if died {
            assert!(crashing, "{case_id}: crash-free run lost its worker");
            while let Some(r) = service.try_recv_report() {
                assert!(r.is_err(), "{case_id}: report after death");
            }
            let info = service
                .respawn()
                .unwrap_or_else(|e| panic!("{case_id}: respawn failed: {e}"));
            assert!(!info.clean_shutdown);
            i = info.durable_rounds as usize;
            recoveries += 1;
            assert!(recoveries <= 2, "{case_id}: worker keeps dying");
        }
    }
    let snap = reader.current();
    let eng = service.shutdown().unwrap();
    (eng, snap, recoveries)
}

/// A durable JoinIndex service crashes mid-WAL-append, recovers from
/// snapshot + commitlog, and ends byte-equal to a never-crashed run —
/// engine state, published read snapshot, and one live probe round.
#[test]
fn joinindex_durability_kill_and_recover() {
    let case_id = "tpch_q2";
    let case = find(case_id).unwrap();
    let db = case.dataset.generate(soak_scale());
    let tables: Vec<String> = case
        .spec
        .base_tables()
        .into_iter()
        .map(str::to_string)
        .collect();

    // Pre-generate one identical stream (non-empty rounds: the
    // ingest→report lockstep needs every ingest to produce a round).
    let mut rng = StdRng::seed_from_u64(0x51EA_0005);
    let mut oracle =
        MaintenanceEngine::new(InFine::default(), db.clone(), case.spec.clone()).unwrap();
    let mut rounds: Vec<Vec<DeltaRelation>> = Vec::new();
    for _ in 0..soak_rounds() {
        let mut round = random_round(&mut rng, &oracle, &tables);
        if round.is_empty() {
            round.push(DeltaRelation::new(tables[0].clone(), DeltaBatch::new()));
        }
        oracle.apply(&round).unwrap();
        rounds.push(round);
    }
    let probe = {
        let mut r = random_round(&mut rng, &oracle, &tables);
        if r.is_empty() {
            r.push(DeltaRelation::new(tables[0].clone(), DeltaBatch::new()));
        }
        r
    };

    let ref_dir = tmpdir("ref");
    let (mut reference, ref_snap, _) =
        durable_run(case_id, &db, &case.spec, &ref_dir, None, &rounds);

    let crash_dir = tmpdir("crash");
    let mut fp = FailPoints::none();
    fp.arm(WAL_APPEND, 10);
    let (mut recovered, rec_snap, recoveries) =
        durable_run(case_id, &db, &case.spec, &crash_dir, Some(fp), &rounds);
    assert_eq!(recoveries, 1, "expected exactly one injected crash");

    // Recovery preserved the mode — the snapshot's view-mode record
    // round-tripped — and everything at rest matches the reference.
    assert_eq!(recovered.active_view_mode(), ViewMode::JoinIndex);
    assert_eq!(recovered.resident_view_rows(), 0);
    assert_eq!(
        reference.report().triples,
        recovered.report().triples,
        "triples diverged across recovery"
    );
    assert!(same_fds(&reference.fd_set(), &recovered.fd_set()));

    // Published reads agree too: same round frontier, same cover, same
    // triples through the published-cover reader.
    assert_eq!(ref_snap.round, rec_snap.round);
    assert!(same_fds(&ref_snap.cover, &rec_snap.cover));
    assert_eq!(ref_snap.triples, rec_snap.triples);

    // One live probe round pins post-recovery classification behavior.
    let want = digest(&reference.apply(&probe).unwrap());
    let got = digest(&recovered.apply(&probe).unwrap());
    assert_eq!(got, want, "probe round diverged after recovery");
    recovered.self_check();

    std::fs::remove_dir_all(&ref_dir).unwrap();
    std::fs::remove_dir_all(&crash_dir).unwrap();
}

// ---------------------------------------------------------------------
// The four datagen databases × both delete policies.
// ---------------------------------------------------------------------

#[test]
fn tpch_view_modes_agree() {
    soak("tpch_q2", 0x51EA_0001, DeletePolicy::Compact);
}

#[test]
fn tpch_view_modes_agree_under_tombstones() {
    soak("tpch_q2", 0x51EA_0001, DeletePolicy::Tombstone);
}

#[test]
fn mimic_view_modes_agree() {
    soak(
        "mimic_q_patients_admissions",
        0x51EA_0002,
        DeletePolicy::Compact,
    );
}

#[test]
fn mimic_view_modes_agree_under_tombstones() {
    soak(
        "mimic_q_patients_admissions",
        0x51EA_0002,
        DeletePolicy::Tombstone,
    );
}

#[test]
fn ptc_view_modes_agree() {
    soak("ptc_connected_bond", 0x51EA_0003, DeletePolicy::Compact);
}

#[test]
fn ptc_view_modes_agree_under_tombstones() {
    soak("ptc_connected_bond", 0x51EA_0003, DeletePolicy::Tombstone);
}

#[test]
fn pte_view_modes_agree() {
    soak("pte_atm_drug", 0x51EA_0004, DeletePolicy::Compact);
}

#[test]
fn pte_view_modes_agree_under_tombstones() {
    soak("pte_atm_drug", 0x51EA_0004, DeletePolicy::Tombstone);
}
