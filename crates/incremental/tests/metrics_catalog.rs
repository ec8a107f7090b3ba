//! Golden catalog test: drive the full stack — discovery pipeline,
//! unsharded engine, sharded fleet, service loop, vacuum, one ad-hoc
//! span — inside one scoped registry, then pin the exposition's metric
//! names and types. Renaming, retyping, adding, or dropping a series is
//! a deliberate catalog change and must update this list (and the
//! catalog table in `crates/incremental/README.md`).

use infine_algebra::ViewSpec;
use infine_core::InFine;
use infine_incremental::{
    DeletePolicy, DurabilityOptions, MaintenanceEngine, MaintenanceService, ShardedEngine,
    VacuumPolicy, ViewMode,
};
use infine_incremental::{InsertPolicy, ShardRouter};
use infine_obs::Registry;
use infine_relation::{relation_from_rows, Database, DeltaBatch, DeltaRelation, Value};

fn db() -> Database {
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
            &[Value::Int(3), Value::str("y")],
        ],
    ));
    db
}

fn view() -> ViewSpec {
    ViewSpec::base("p").inner_join(ViewSpec::base("q"), &["pid"])
}

#[test]
fn metric_catalog_is_pinned() {
    let registry = Registry::scoped();
    let _scope = registry.enter();

    // Discovery: pipeline phase + miner + kernel + PLI cache series.
    InFine::default().discover(&db(), &view()).unwrap();

    // Unsharded engine round, with its per-round metrics delta.
    let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
    let mut b = DeltaBatch::new();
    b.insert(vec![Value::Int(2), Value::str("a"), Value::Int(9)]);
    let report = engine.apply_one(&DeltaRelation::new("p", b)).unwrap();
    assert!(
        report.metrics.kernel_checks() > 0,
        "a cover-revalidating round runs kernel checks:\n{}",
        report.metrics.to_json()
    );
    assert_eq!(
        report
            .metrics
            .get("infine_round_seconds_count{engine=\"maintenance\"}"),
        Some(1.0),
        "one apply call is one round observation"
    );

    // Sharded fleet behind a *durable* service loop (commitlog + one
    // explicit snapshot + a post-snapshot round that recovery replays,
    // so the WAL/snapshot/recovery series all carry traffic);
    // tombstoned deletes so the explicit vacuum reclaims rows; the
    // join-index view mode so the join-probe series register and count.
    let dir = std::env::temp_dir().join(format!(
        "infine-catalog-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let _ = ShardRouter::new(&db(), 2); // router alone registers nothing
    let sharded = ShardedEngine::with_options(
        InFine::default(),
        db(),
        view(),
        2,
        InsertPolicy::default(),
        DeletePolicy::Tombstone,
        ViewMode::JoinIndex,
    )
    .unwrap();
    let service = MaintenanceService::spawn_durable(
        sharded,
        VacuumPolicy::default(),
        DurabilityOptions::new(&dir),
    )
    .unwrap();
    let mut b = DeltaBatch::new();
    b.delete(0).delete(1);
    service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
    let report = service.recv_report().unwrap().unwrap();
    assert!(report.vacuum.is_none());
    service.vacuum().unwrap();
    let report = service.recv_report().unwrap().unwrap();
    assert!(report.vacuum.unwrap().rows_dropped > 0);
    service.snapshot().unwrap();
    service.recv_report().unwrap().unwrap();
    let mut b = DeltaBatch::new();
    b.insert(vec![Value::Int(9), Value::str("c"), Value::Int(2)]);
    service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
    service.recv_report().unwrap().unwrap();
    // The read path: reads + lag + publish series carry traffic. Each
    // round is published before its report, so this read sees round 4
    // (rounds: delete, vacuum, snapshot, insert).
    assert_eq!(service.reader().current().round, 4);
    let stats = service.stats();
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.rounds_completed >= 2);
    assert!(stats.last_round > std::time::Duration::ZERO);
    assert!(stats.worker_alive);
    service.shutdown().unwrap();

    // Recovery replays the post-snapshot round through the round path.
    let (recovered, info) = MaintenanceService::recover(
        DurabilityOptions::new(&dir),
        InFine::default(),
        view(),
        VacuumPolicy::default(),
    )
    .unwrap();
    assert!(info.replayed_rounds >= 1);
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // One ad-hoc span pins the span series.
    drop(infine_obs::span("catalog_probe", &[]));

    // The catalog: every metric name and type, in exposition order.
    let render = registry.render();
    let types: Vec<&str> = render
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .collect();
    let expected = [
        "# TYPE infine_exec_inline_tasks_total counter",
        "# TYPE infine_exec_steals_total counter",
        "# TYPE infine_exec_tasks_total counter",
        "# TYPE infine_join_probe_early_exits_total counter",
        "# TYPE infine_join_probe_index_hops_total counter",
        "# TYPE infine_join_probe_probes_total counter",
        "# TYPE infine_kernel_checks_total counter",
        "# TYPE infine_kernel_early_exits_total counter",
        "# TYPE infine_kernel_products_avoided_total counter",
        "# TYPE infine_miner_level_seconds histogram",
        "# TYPE infine_miner_seconds histogram",
        "# TYPE infine_pipeline_phase_seconds histogram",
        "# TYPE infine_pipeline_seconds histogram",
        "# TYPE infine_pli_cache_evictions_total counter",
        "# TYPE infine_pli_cache_hits_total counter",
        "# TYPE infine_pli_cache_misses_total counter",
        "# TYPE infine_publish_seconds histogram",
        "# TYPE infine_read_round_lag gauge",
        "# TYPE infine_reads_total counter",
        "# TYPE infine_recovery_seconds histogram",
        "# TYPE infine_retry_attempts_total counter",
        "# TYPE infine_round_phase_seconds histogram",
        "# TYPE infine_round_seconds histogram",
        "# TYPE infine_service_batches_total counter",
        "# TYPE infine_service_breaker_state gauge",
        "# TYPE infine_service_coalesced_total counter",
        "# TYPE infine_service_degraded_rounds_total counter",
        "# TYPE infine_service_in_flight gauge",
        "# TYPE infine_service_queue_depth gauge",
        "# TYPE infine_service_rejected_total counter",
        "# TYPE infine_service_respawns_total counter",
        "# TYPE infine_service_round_seconds histogram",
        "# TYPE infine_service_rounds_total counter",
        "# TYPE infine_service_shed_total counter",
        "# TYPE infine_shard_fanout_shards histogram",
        "# TYPE infine_snapshot_prune_failures_total counter",
        "# TYPE infine_snapshot_seconds histogram",
        "# TYPE infine_span_seconds histogram",
        "# TYPE infine_vacuum_dict_entries_dropped_total counter",
        "# TYPE infine_vacuum_passes_total counter",
        "# TYPE infine_vacuum_rows_dropped_total counter",
        "# TYPE infine_wal_appends_total counter",
        "# TYPE infine_wal_bytes_total counter",
        "# TYPE infine_wal_replayed_rounds_total counter",
    ];
    assert_eq!(
        types, expected,
        "metric catalog drifted — update the catalog test AND the README table\n{render}"
    );

    // Key series carry real traffic, not just registrations.
    let snap = registry.snapshot();
    assert!(snap.total("infine_kernel_checks_total") > 0.0);
    assert!(snap.total("infine_pli_cache_misses_total") > 0.0);
    // Join-index rounds validate through the probe kernel: probes ran,
    // and every probe resolved codes through the join index.
    assert!(snap.total("infine_join_probe_probes_total") > 0.0);
    assert!(snap.total("infine_join_probe_index_hops_total") > 0.0);
    assert!(
        snap.get("infine_round_seconds_count{engine=\"sharded\"}")
            .unwrap()
            >= 2.0
    );
    assert!(snap.get("infine_service_rounds_total").unwrap() >= 2.0);
    assert!(snap.get("infine_service_batches_total").unwrap() >= 1.0);
    assert_eq!(snap.get("infine_service_queue_depth"), Some(0.0));
    assert!(snap.total("infine_vacuum_rows_dropped_total") > 0.0);
    assert!(snap.get("infine_pipeline_seconds_count").unwrap() >= 1.0);
    assert!(snap.total("infine_miner_seconds") >= 0.0);
    // Durability series: four logged rounds, one explicit snapshot cut,
    // one recovery that replayed the post-snapshot round. Respawns are
    // registered (catalog above) but idle — no worker died here.
    assert!(snap.get("infine_wal_appends_total").unwrap() >= 4.0);
    assert!(snap.get("infine_wal_bytes_total").unwrap() > 0.0);
    assert!(snap.get("infine_snapshot_seconds_count").unwrap() >= 1.0);
    assert!(snap.get("infine_recovery_seconds_count").unwrap() >= 1.0);
    assert!(snap.get("infine_wal_replayed_rounds_total").unwrap() >= 1.0);
    assert_eq!(snap.get("infine_service_respawns_total"), Some(0.0));
    // Read path: the reader above served at least the publishes it
    // polled for, each round's publish was timed, the final read saw a
    // fully caught-up snapshot, and no prune ever failed.
    assert!(snap.get("infine_reads_total").unwrap() >= 1.0);
    assert!(snap.get("infine_publish_seconds_count").unwrap() >= 4.0);
    assert_eq!(snap.get("infine_read_round_lag"), Some(0.0));
    assert_eq!(snap.get("infine_snapshot_prune_failures_total"), Some(0.0));
    // Overload/supervision series register but stay quiet on a healthy,
    // uncontended run: nothing shed, no retries, breaker closed, no
    // degraded rounds, and in-flight settled back to zero.
    assert_eq!(snap.get("infine_service_shed_total"), Some(0.0));
    assert_eq!(snap.get("infine_service_in_flight"), Some(0.0));
    assert_eq!(snap.get("infine_service_breaker_state"), Some(0.0));
    assert_eq!(snap.get("infine_service_degraded_rounds_total"), Some(0.0));
    assert_eq!(snap.get("infine_retry_attempts_total"), Some(0.0));
}
