//! Reader-consistency soak for the published cover read path:
//! concurrent [`CoverReader`]s sample while a durable service churns
//! through a seeded stream, with an injected worker crash and respawn
//! mid-stream.
//!
//! Pinned invariants, at 1, 2, and 4 shards:
//! - every sampled snapshot's cover equals the *exact* cover the
//!   driver's paired `recv_report` recorded for that round id (round 0
//!   is the bootstrap cover) — readers never see a torn or intermediate
//!   state;
//! - read-your-writes: once `recv_report` returns round N, a reader's
//!   `current().round` is at least N;
//! - round ids observed through one handle are monotonically
//!   non-decreasing, including across the injected crash and
//!   [`MaintenanceService::respawn`];
//! - a fresh [`MaintenanceService::recover`] of the same directory hands
//!   out readers that resume exactly at [`RecoveryInfo::durable_rounds`]
//!   with the final cover.
//!
//! Friendly to `INFINE_THREADS=2` CI lanes: two sampler threads per
//! shard count, tiny tables, short stream.

use infine_core::InFine;
use infine_discovery::{same_fds, FdSet};
use infine_durability::failpoint::WAL_APPEND;
use infine_durability::{FailPoints, SnapshotPolicy};
use infine_incremental::{
    DurabilityOptions, MaintenanceError, MaintenanceService, ShardedEngine, VacuumPolicy,
};
use infine_relation::{relation_from_rows, Database, DeltaBatch, DeltaRelation, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ROUNDS: u64 = 24;
/// The WAL append whose failpoint panic kills the worker mid-stream.
const CRASH_AT: u64 = 8;
const READERS: usize = 2;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "infine-readsoak-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_db() -> Database {
    let mut db = Database::new();
    db.insert(relation_from_rows(
        "p",
        &["pid", "grp", "flag"],
        &[
            &[Value::Int(1), Value::str("a"), Value::Int(0)],
            &[Value::Int(2), Value::str("a"), Value::Int(0)],
            &[Value::Int(3), Value::str("b"), Value::Int(1)],
            &[Value::Int(4), Value::str("b"), Value::Int(1)],
        ],
    ));
    db.insert(relation_from_rows(
        "q",
        &["pid", "site"],
        &[
            &[Value::Int(1), Value::str("x")],
            &[Value::Int(2), Value::str("x")],
            &[Value::Int(3), Value::str("y")],
        ],
    ));
    db
}

fn view() -> infine_algebra::ViewSpec {
    infine_algebra::ViewSpec::base("p").inner_join(infine_algebra::ViewSpec::base("q"), &["pid"])
}

/// Round `i` of the seeded churn: one new joined (p, q) pair whose
/// attribute pattern varies with `i`, so the maintained cover actually
/// moves over the stream instead of staying constant.
fn churn_round(i: u64) -> Vec<DeltaRelation> {
    let pid = 100 + i as i64;
    let grp = ["a", "b", "c"][(i % 3) as usize];
    let site = ["x", "y", "z", "x"][(i % 4) as usize];
    let mut p = DeltaBatch::new();
    p.insert(vec![
        Value::Int(pid),
        Value::str(grp),
        Value::Int((i % 5) as i64),
    ]);
    let mut q = DeltaBatch::new();
    q.insert(vec![Value::Int(pid), Value::str(site)]);
    vec![
        DeltaRelation::new("p".to_string(), p),
        DeltaRelation::new("q".to_string(), q),
    ]
}

/// One sampler's trace: the distinct (round, cover) pairs it observed,
/// in observation order (monotonicity is asserted inline, at sample
/// time).
fn sample_loop(
    reader: infine_incremental::CoverReader,
    stop: Arc<AtomicBool>,
    tag: String,
) -> Vec<(u64, FdSet)> {
    let mut observed: Vec<(u64, FdSet)> = Vec::new();
    let mut last = 0u64;
    loop {
        let snap = reader.current();
        assert!(
            snap.round >= last,
            "{tag}: round went backwards: {} after {last}",
            snap.round
        );
        last = snap.round;
        if observed.last().map(|(r, _)| *r) != Some(snap.round) {
            observed.push((snap.round, snap.cover.clone()));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        std::thread::yield_now();
    }
    observed
}

fn soak(shards: usize) {
    let tag = format!("{shards}sh");
    let dir = tmpdir(&tag);
    let engine = ShardedEngine::new(InFine::default(), small_db(), view(), shards).unwrap();
    // Round 0's published cover is the bootstrap state.
    let mut cover_by_round: Vec<FdSet> = vec![engine.fd_set()];
    let mut fp = FailPoints::none();
    fp.arm(WAL_APPEND, CRASH_AT);
    let mut service = MaintenanceService::spawn_durable(
        engine,
        VacuumPolicy::default(),
        DurabilityOptions::new(&dir)
            .snapshot_policy(SnapshotPolicy::every_rounds(5))
            .failpoints(fp),
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let samplers: Vec<_> = (0..READERS)
        .map(|r| {
            let reader = service.reader();
            let stop = Arc::clone(&stop);
            let tag = format!("{tag}/reader{r}");
            std::thread::spawn(move || sample_loop(reader, stop, tag))
        })
        .collect();

    // Drive the stream in ingest→report lockstep, recording each round's
    // exact cover from its report; on the injected death, respawn from
    // disk and resume where durability says — samplers keep running
    // across the crash, the respawn, and every snapshot cut.
    let mut respawns = 0usize;
    let mut i = 0u64;
    while i < ROUNDS {
        let died = match service.ingest(churn_round(i)) {
            Err(MaintenanceError::WorkerDied) => true,
            Err(e) => panic!("{tag}: ingest {i} failed: {e}"),
            Ok(()) => match service.recv_report() {
                Some(Ok(report)) => {
                    let read = service.reader().current().round;
                    assert!(read > i, "{tag}: report {} but reader at {read}", i + 1);
                    cover_by_round.push(report.cover.clone());
                    assert_eq!(cover_by_round.len() as u64 - 1, i + 1);
                    i += 1;
                    false
                }
                Some(Err(MaintenanceError::WorkerDied)) | None => true,
                Some(Err(e)) => panic!("{tag}: round {i} failed: {e}"),
            },
        };
        if died {
            while let Some(r) = service.try_recv_report() {
                assert!(r.is_err(), "{tag}: report after death");
            }
            let info = service
                .respawn()
                .unwrap_or_else(|e| panic!("{tag}: respawn failed: {e}"));
            // Lost rounds lose their cover records too: resume both the
            // stream and the oracle vector at the durable head.
            cover_by_round.truncate(info.durable_rounds as usize + 1);
            i = info.durable_rounds;
            respawns += 1;
            assert!(respawns <= 1, "{tag}: worker keeps dying");
        }
    }
    assert_eq!(respawns, 1, "{tag}: expected exactly one injected crash");

    stop.store(true, Ordering::Relaxed);
    // The last report was the last round, so it is already published.
    let final_round = service.reader().current();
    assert_eq!(final_round.round, ROUNDS, "{tag}: final round");
    assert!(
        same_fds(&final_round.cover, &cover_by_round[ROUNDS as usize]),
        "{tag}: final published cover diverged from the last report"
    );

    // Every sampled snapshot is some round's exact reported cover.
    for sampler in samplers {
        let observed = sampler.join().unwrap();
        assert!(!observed.is_empty());
        for (round, cover) in observed {
            let want = cover_by_round
                .get(round as usize)
                .unwrap_or_else(|| panic!("{tag}: sampled round {round} was never reported"));
            assert!(
                same_fds(&cover, want),
                "{tag}: sampled cover at round {round} is not that round's reported cover"
            );
        }
    }

    // A fresh recovery of the same directory resumes readers exactly at
    // the durable head with the final cover.
    drop(service);
    let (recovered, info) = MaintenanceService::recover(
        DurabilityOptions::new(&dir),
        InFine::default(),
        view(),
        VacuumPolicy::default(),
    )
    .unwrap();
    assert_eq!(info.durable_rounds, ROUNDS, "{tag}: clean-shutdown rounds");
    let snap = recovered.reader().current();
    assert_eq!(snap.round, info.durable_rounds, "{tag}: recovered round");
    assert!(
        same_fds(&snap.cover, &cover_by_round[ROUNDS as usize]),
        "{tag}: recovered reader cover diverged"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn readers_observe_exact_round_covers_1_shard() {
    soak(1);
}

#[test]
fn readers_observe_exact_round_covers_2_shards() {
    soak(2);
}

#[test]
fn readers_observe_exact_round_covers_4_shards() {
    soak(4);
}
