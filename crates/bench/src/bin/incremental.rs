//! Incremental maintenance vs full re-discovery.
//!
//! For each representative catalog view, two maintenance engines are
//! bootstrapped — cover-only (delta joins + patched view PLIs, no
//! pipeline replay) and exact-provenance (pipeline replay with base
//! mining skipped) — then identical random churn batches (half deletes,
//! half perturbed-copy inserts) of 0.1%, 1%, and 10% of the target
//! table's rows are applied to both. Each round reports both engines'
//! wall-clock against re-running `InFine::discover` from scratch on the
//! identical post-delta database (base mining included — a from-scratch
//! run pays it), plus the straightforward TANE baseline when
//! `INFINE_BENCH_STRAIGHTFORWARD=1`.
//!
//! Cover equivalence is asserted every round: the fast engine's cover is
//! logically equivalent to the full run's triple set. Scale via
//! `INFINE_SCALE` (default 0.01); `--threads N` pins the worker count.
//! The emitted JSON records `threads` and the validation-kernel counters
//! (checks run, early exits, products avoided) for the whole run.

#[global_allocator]
static ALLOC: infine_bench::alloc::CountingAlloc = infine_bench::alloc::CountingAlloc;

use infine_bench::json::{self, Obj};
use infine_bench::runner::{
    apply_cli_flags, bench_durability, bench_overload, bench_readers, bench_scale, bench_shards,
    bench_view_mode, mib, run_baseline, run_full_rediscovery, run_maintenance,
    run_sharded_maintenance, secs, TextTable,
};
use infine_core::InFine;
use infine_datagen::{find, random_churn, random_delta};
use infine_discovery::{same_fds, Algorithm, Fd, FdSet};
use infine_incremental::{
    DeletePolicy, DurabilityOptions, FdStatus, IngestPolicy, MaintenanceEngine, MaintenanceError,
    MaintenanceMode, MaintenanceService, ServicePolicies, ShardedEngine, SnapshotPolicy,
    VacuumPolicy, ViewMode,
};
use infine_relation::AttrSet;
use infine_relation::{Database, DeltaRelation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// (case id, delta target table) — targets chosen as mid-sized tables so
/// the run shows both skipped mining on the untouched tables and real
/// revalidation work on the touched one.
const SCENARIOS: &[(&str, &str)] = &[
    ("tpch_q2", "supplier"),
    ("tpch_q3", "customer"),
    ("mimic_q_patients_admissions", "patients"),
    ("ptc_connected_bond", "bond"),
    ("pte_atm_drug", "atm"),
];

const FRACTIONS: &[f64] = &[0.001, 0.01, 0.1];

/// Delta composition per round.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// Half deletes, half perturbed-copy inserts.
    Churn,
    /// Inserts only — the streaming-ingest case (no compaction work).
    Append,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Append => "append",
        }
    }
}

fn main() {
    apply_cli_flags();
    infine_partitions::reset_kernel_counters();
    let scale = bench_scale();
    let shards = bench_shards();
    eprintln!("# sharded lane: {shards} shard(s) (set --shards N / INFINE_SHARDS)");
    let straightforward = std::env::var("INFINE_BENCH_STRAIGHTFORWARD").is_ok();

    let mut headers = vec![
        "workload",
        "view",
        "Δtable",
        "Δrows",
        "Δ%",
        "FDs",
        "untouched",
        "reval",
        "invalid",
        "t_cover",
        "t_exact",
        "t_sharded",
        "t_full",
        "speedup_cover",
        "speedup_exact",
        "peak_cover(MiB)",
    ];
    if straightforward {
        headers.push("t_straightforward");
    }
    let mut table = TextTable::new(&headers);
    let mut one_percent: Vec<(Workload, String, f64)> = Vec::new();
    let mut json_rows: Vec<Obj> = Vec::new();

    for workload in [Workload::Churn, Workload::Append] {
        let mut rng = StdRng::seed_from_u64(0xDE17A);
        for &(case_id, target) in SCENARIOS {
            let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
            let db = case.dataset.generate(scale);
            let t0 = Instant::now();
            let mut fast = MaintenanceEngine::with_mode(
                InFine::default(),
                db.clone(),
                case.spec.clone(),
                MaintenanceMode::CoverOnly,
            )
            .unwrap_or_else(|e| panic!("{case_id}: fast bootstrap failed: {e}"));
            let mut exact =
                MaintenanceEngine::new(InFine::default(), db.clone(), case.spec.clone())
                    .unwrap_or_else(|e| panic!("{case_id}: exact bootstrap failed: {e}"));
            let mut sharded = ShardedEngine::new(InFine::default(), db, case.spec.clone(), shards)
                .unwrap_or_else(|e| panic!("{case_id}: sharded bootstrap failed: {e}"));
            assert!(
                fast.supports_cover_fast_path(),
                "{case_id}: scenario views must support the fast path"
            );
            eprintln!(
                "# {case_id} [{}]: engines bootstrapped in {} s ({} FDs)",
                workload.label(),
                secs(t0.elapsed()),
                exact.report().triples.len()
            );

            for &fraction in FRACTIONS {
                let rel = fast.database().expect(target);
                let mut delta = random_churn(&mut rng, rel, fraction);
                if workload == Workload::Append {
                    delta.batch.deletes.clear();
                }
                let delta_rows = delta.batch.num_deletes() + delta.batch.num_inserts();
                let fast_run = run_maintenance(&mut fast, std::slice::from_ref(&delta));
                let exact_run = run_maintenance(&mut exact, std::slice::from_ref(&delta));
                let sharded_run =
                    run_sharded_maintenance(&mut sharded, std::slice::from_ref(&delta));
                assert_eq!(
                    sharded_run.report.triples, exact_run.report.triples,
                    "{case_id}: sharded({shards}) diverged from the exact engine"
                );

                // From-scratch re-discovery on the identical database.
                let (full, t_full) = run_full_rediscovery(fast.database(), &case);
                assert_covers_equivalent(&fast_run.report, &full);
                let speedup_cover = t_full.as_secs_f64() / fast_run.total.as_secs_f64().max(1e-9);
                let speedup_exact = t_full.as_secs_f64() / exact_run.total.as_secs_f64().max(1e-9);
                let speedup_sharded =
                    t_full.as_secs_f64() / sharded_run.total.as_secs_f64().max(1e-9);
                if (fraction - 0.01).abs() < 1e-12 {
                    one_percent.push((workload, format!("{case_id}/{target}"), speedup_cover));
                }

                json_rows.push(
                    Obj::new()
                        .str("workload", workload.label())
                        .str("view", case_id)
                        .str("delta_table", target)
                        .num("delta_fraction", fraction)
                        .int("delta_rows", delta_rows as i64)
                        .int("fds", fast_run.report.cover.len() as i64)
                        .num("cover_s", fast_run.total.as_secs_f64())
                        .num("exact_s", exact_run.total.as_secs_f64())
                        .num("sharded_s", sharded_run.total.as_secs_f64())
                        .num("full_s", t_full.as_secs_f64())
                        .num("speedup_cover", speedup_cover)
                        .num("speedup_exact", speedup_exact)
                        .num("speedup_sharded", speedup_sharded),
                );
                let mut row = vec![
                    workload.label().to_string(),
                    case_id.to_string(),
                    target.to_string(),
                    delta_rows.to_string(),
                    format!("{:.1}", fraction * 100.0),
                    fast_run.report.cover.len().to_string(),
                    fast_run
                        .report
                        .count_status(FdStatus::Untouched)
                        .to_string(),
                    fast_run
                        .report
                        .count_status(FdStatus::Revalidated)
                        .to_string(),
                    fast_run
                        .report
                        .count_status(FdStatus::Invalidated)
                        .to_string(),
                    secs(fast_run.total),
                    secs(exact_run.total),
                    secs(sharded_run.total),
                    secs(t_full),
                    format!("{speedup_cover:.1}x"),
                    format!("{speedup_exact:.1}x"),
                    mib(fast_run.peak_bytes),
                ];
                if straightforward {
                    let b = run_baseline(fast.database(), &case, Algorithm::Tane);
                    row.push(secs(b.total));
                }
                table.row(row);
            }
        }
    }

    // ---- delete-heavy churn lane: tombstoned deletes + vacuum ----
    //
    // Two cover-only engines fed identical delete-heavy rounds: the
    // compacting baseline pays a column rewrite per affected view node
    // per round, the tombstone engine marks bits and vacuums once at the
    // end. Recorded per scenario: summed round wall-clock for both,
    // tombstone/live/dictionary ratios at their peak, the vacuum pass
    // itself, and a post-vacuum equivalence check (tombstone cover ==
    // compacting cover == canonical).
    println!("{}", table.render());
    let delete_rounds: usize = std::env::var("INFINE_BENCH_DELETE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let mut delete_speedups: Vec<f64> = Vec::new();
    let mut delete_table = TextTable::new(&[
        "view",
        "Δtable",
        "rounds",
        "Δrows",
        "t_compact",
        "t_tombstone",
        "round_speedup",
        "peak_rows_ratio",
        "peak_dict_ratio",
        "t_vacuum",
        "vacuum_rows",
        "vacuum_dict",
    ]);
    {
        let mut rng = StdRng::seed_from_u64(0xDE1E7E);
        for &(case_id, target) in SCENARIOS {
            let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
            let db = case.dataset.generate(scale);
            let mut compact = MaintenanceEngine::with_options(
                InFine::default(),
                db.clone(),
                case.spec.clone(),
                MaintenanceMode::CoverOnly,
                DeletePolicy::Compact,
                ViewMode::default(),
            )
            .unwrap_or_else(|e| panic!("{case_id}: compact bootstrap failed: {e}"));
            let mut tomb = MaintenanceEngine::with_options(
                InFine::default(),
                db,
                case.spec.clone(),
                MaintenanceMode::CoverOnly,
                DeletePolicy::Tombstone,
                ViewMode::default(),
            )
            .unwrap_or_else(|e| panic!("{case_id}: tombstone bootstrap failed: {e}"));
            let baseline = tomb.tombstone_stats();

            let (mut t_compact, mut t_tomb) = (0f64, 0f64);
            let mut delta_rows = 0usize;
            let (mut peak_rows_ratio, mut peak_dict_ratio) = (1f64, 1f64);
            for _ in 0..delete_rounds {
                // Delete-heavy: 4 deletes per insert, ~4% of live rows.
                let rel = tomb.database().expect(target);
                let max = (rel.live_rows() / 25).max(2);
                let delta = DeltaRelation::new(
                    target.to_string(),
                    random_delta(&mut rng, rel, max, max / 4),
                );
                delta_rows += delta.batch.num_deletes() + delta.batch.num_inserts();
                let run_t = run_maintenance(&mut tomb, std::slice::from_ref(&delta));
                let run_c = run_maintenance(&mut compact, std::slice::from_ref(&delta));
                t_tomb += run_t.total.as_secs_f64();
                t_compact += run_c.total.as_secs_f64();
                let s = tomb.tombstone_stats();
                peak_rows_ratio =
                    peak_rows_ratio.max(s.physical_rows as f64 / s.live_rows.max(1) as f64);
                peak_dict_ratio = peak_dict_ratio
                    .max(s.dict_entries as f64 / baseline.dict_entries.max(1) as f64);
            }

            // One vacuum cycle reclaims everything; covers must be
            // untouched and equal the compacting engine's.
            let t0 = Instant::now();
            let vac = tomb.vacuum();
            let t_vacuum = t0.elapsed();
            assert_eq!(tomb.tombstone_stats().dead_rows(), 0);
            assert!(
                same_fds(&tomb.fd_set(), &compact.fd_set()),
                "{case_id}: tombstone cover diverged from the compacting engine"
            );

            let round_speedup = t_compact / t_tomb.max(1e-9);
            delete_speedups.push(round_speedup);
            json_rows.push(
                Obj::new()
                    .str("workload", "delete_churn")
                    .str("view", case_id)
                    .str("delta_table", target)
                    .int("rounds", delete_rounds as i64)
                    .int("delta_rows", delta_rows as i64)
                    .num("compact_s", t_compact)
                    .num("tombstone_s", t_tomb)
                    .num("round_speedup", round_speedup)
                    .num("peak_physical_over_live", peak_rows_ratio)
                    .num("peak_dict_over_baseline", peak_dict_ratio)
                    .num("vacuum_s", t_vacuum.as_secs_f64())
                    .int("vacuum_rows_dropped", vac.rows_dropped as i64)
                    .int(
                        "vacuum_dict_entries_dropped",
                        vac.dict_entries_dropped as i64,
                    ),
            );
            delete_table.row(vec![
                case_id.to_string(),
                target.to_string(),
                delete_rounds.to_string(),
                delta_rows.to_string(),
                secs(std::time::Duration::from_secs_f64(t_compact)),
                secs(std::time::Duration::from_secs_f64(t_tomb)),
                format!("{round_speedup:.2}x"),
                format!("{peak_rows_ratio:.2}"),
                format!("{peak_dict_ratio:.2}"),
                secs(t_vacuum),
                vac.rows_dropped.to_string(),
                vac.dict_entries_dropped.to_string(),
            ]);
        }
    }
    println!("# delete-heavy churn (cover-only rounds, compacting vs tombstoned deletes):");
    println!("{}", delete_table.render());
    let delete_geomean = (delete_speedups.iter().map(|s| s.ln()).sum::<f64>()
        / delete_speedups.len().max(1) as f64)
        .exp();
    println!("# delete-churn round speedup geometric mean (tombstoned vs compacting): {delete_geomean:.2}x");

    // ---- view-mode lane (--view-mode / INFINE_BENCH_VIEW_MODE=1) ----
    //
    // Two cover-only engines fed identical churn rounds: one holds the
    // materialized rid-augmented view, the other only base relations +
    // join indexes (`ViewMode::JoinIndex`) and validates through the
    // join-probe kernel. Recorded per scenario: summed round
    // wall-clock for both, peak resident rows and dictionary entries
    // (engine-wide tombstone accounting), and the resident materialized
    // view rows — which the virtual engine must pin at **zero** while
    // its cover stays equal to the materialized engine's every round.
    let mut view_mode_geomean = None;
    if bench_view_mode() {
        let view_rounds: usize = std::env::var("INFINE_BENCH_VIEW_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6);
        let mut vm_table = TextTable::new(&[
            "view",
            "Δtable",
            "rounds",
            "t_materialized",
            "t_joinindex",
            "round_ratio",
            "view_rows(mat)",
            "view_rows(virt)",
            "peak_rows(mat)",
            "peak_rows(virt)",
            "peak_dict(mat)",
            "peak_dict(virt)",
        ]);
        let mut ratios: Vec<f64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(0x51E77E);
        for &(case_id, target) in SCENARIOS {
            let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
            let db = case.dataset.generate(scale);
            let mut mat = MaintenanceEngine::with_options(
                InFine::default(),
                db.clone(),
                case.spec.clone(),
                MaintenanceMode::CoverOnly,
                DeletePolicy::Compact,
                ViewMode::Materialized,
            )
            .unwrap_or_else(|e| panic!("{case_id}: materialized bootstrap failed: {e}"));
            let mut virt = MaintenanceEngine::with_options(
                InFine::default(),
                db,
                case.spec.clone(),
                MaintenanceMode::CoverOnly,
                DeletePolicy::Compact,
                ViewMode::JoinIndex,
            )
            .unwrap_or_else(|e| panic!("{case_id}: join-index bootstrap failed: {e}"));
            assert_eq!(
                virt.active_view_mode(),
                Some(ViewMode::JoinIndex),
                "{case_id}: scenario views must be inside the virtual subset"
            );

            let (mut t_mat, mut t_virt) = (0f64, 0f64);
            let mut peak_view_rows = mat.resident_view_rows();
            let s0m = mat.tombstone_stats();
            let s0v = virt.tombstone_stats();
            let (mut peak_rows_mat, mut peak_dict_mat) = (s0m.physical_rows, s0m.dict_entries);
            let (mut peak_rows_virt, mut peak_dict_virt) = (s0v.physical_rows, s0v.dict_entries);
            for _ in 0..view_rounds {
                let rel = virt.database().expect(target);
                let delta = random_churn(&mut rng, rel, 0.01);
                let run_m = run_maintenance(&mut mat, std::slice::from_ref(&delta));
                let run_v = run_maintenance(&mut virt, std::slice::from_ref(&delta));
                t_mat += run_m.total.as_secs_f64();
                t_virt += run_v.total.as_secs_f64();
                assert!(
                    same_fds(&run_m.report.cover, &run_v.report.cover),
                    "{case_id}: view modes diverged under the bench stream"
                );
                assert_eq!(
                    virt.resident_view_rows(),
                    0,
                    "{case_id}: the virtual engine materialized view rows"
                );
                peak_view_rows = peak_view_rows.max(mat.resident_view_rows());
                let (sm, sv) = (mat.tombstone_stats(), virt.tombstone_stats());
                peak_rows_mat = peak_rows_mat.max(sm.physical_rows);
                peak_dict_mat = peak_dict_mat.max(sm.dict_entries);
                peak_rows_virt = peak_rows_virt.max(sv.physical_rows);
                peak_dict_virt = peak_dict_virt.max(sv.dict_entries);
            }

            let round_ratio = t_mat / t_virt.max(1e-9);
            ratios.push(round_ratio);
            json_rows.push(
                Obj::new()
                    .str("workload", "view_mode")
                    .str("view", case_id)
                    .str("delta_table", target)
                    .int("rounds", view_rounds as i64)
                    .num("materialized_s", t_mat)
                    .num("joinindex_s", t_virt)
                    .num("round_ratio", round_ratio)
                    .int("resident_view_rows_materialized", peak_view_rows as i64)
                    .int("resident_view_rows_joinindex", 0)
                    .int("peak_rows_materialized", peak_rows_mat as i64)
                    .int("peak_rows_joinindex", peak_rows_virt as i64)
                    .int("peak_dict_materialized", peak_dict_mat as i64)
                    .int("peak_dict_joinindex", peak_dict_virt as i64),
            );
            vm_table.row(vec![
                case_id.to_string(),
                target.to_string(),
                view_rounds.to_string(),
                secs(std::time::Duration::from_secs_f64(t_mat)),
                secs(std::time::Duration::from_secs_f64(t_virt)),
                format!("{round_ratio:.2}x"),
                peak_view_rows.to_string(),
                "0".to_string(),
                peak_rows_mat.to_string(),
                peak_rows_virt.to_string(),
                peak_dict_mat.to_string(),
                peak_dict_virt.to_string(),
            ]);
        }
        println!("# view modes (materialized vs join-index cover rounds, identical churn):");
        println!("{}", vm_table.render());
        let geo = (ratios.iter().map(|s| s.ln()).sum::<f64>() / ratios.len().max(1) as f64).exp();
        println!(
            "# view-mode round latency ratio geometric mean (materialized / join-index): {geo:.2}x"
        );
        view_mode_geomean = Some(geo);
    }

    // ---- durability lane (--durability / INFINE_BENCH_DURABILITY=1) ----
    //
    // Two sharded services fed identical pre-generated churn streams:
    // one plain, one durable (commitlog + snapshot every 3 rounds). The
    // per-round wall-clock difference is the WAL append overhead; after
    // shutdown, `MaintenanceService::recover` on the durable directory is
    // timed against the crash-restart alternative it replaces: full
    // discovery re-bootstrap on the identical final database plus
    // `spawn_durable` (a restarted service must be durable again).
    let mut durability_geomean = None;
    if bench_durability() {
        let durable_rounds: usize = std::env::var("INFINE_BENCH_DURABLE_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6);
        let mut dur_table = TextTable::new(&[
            "view",
            "Δtable",
            "rounds",
            "t_plain",
            "t_durable",
            "wal_overhead/round",
            "replayed",
            "t_recover",
            "t_rebootstrap",
            "recover_speedup",
        ]);
        let mut recover_speedups: Vec<f64> = Vec::new();
        let mut tpch_recover_ok = true;
        let mut rng = StdRng::seed_from_u64(0xD04AB1E);
        for &(case_id, target) in SCENARIOS {
            let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
            let db = case.dataset.generate(scale);

            // Pre-generate identical rounds by evolving a standalone copy
            // of the target relation (cheap oracle, no discovery
            // bootstrap) so both services see the exact same stream.
            let mut oracle = db.expect(target).clone();
            let mut rounds: Vec<DeltaRelation> = Vec::new();
            for _ in 0..durable_rounds {
                let max = (oracle.live_rows() / 50).max(2);
                let batch = random_delta(&mut rng, &oracle, max, max);
                let (next, _) = oracle.apply_delta(&batch, target);
                oracle = next;
                rounds.push(DeltaRelation::new(target.to_string(), batch));
            }

            let bootstrap = |db: Database| {
                ShardedEngine::new(InFine::default(), db, case.spec.clone(), shards)
                    .unwrap_or_else(|e| panic!("{case_id}: durability bootstrap failed: {e}"))
            };
            let dir = std::env::temp_dir().join(format!(
                "infine-bench-durable-{}-{case_id}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
            // Cadence divides the round count so the final snapshot lands
            // at the durable head — recovery then measures the
            // snapshot-restore path (replay suffix empty), which is the
            // steady-state restart cost a periodic snapshot policy buys.
            let options =
                || DurabilityOptions::new(&dir).snapshot_policy(SnapshotPolicy::every_rounds(3));

            let plain = MaintenanceService::spawn(bootstrap(db.clone()));
            let durable = MaintenanceService::spawn_durable(
                bootstrap(db),
                VacuumPolicy::default(),
                options(),
            )
            .unwrap_or_else(|e| panic!("{case_id}: spawn_durable failed: {e}"));
            let run_stream = |service: &MaintenanceService| -> f64 {
                let mut total = 0f64;
                for delta in &rounds {
                    let t0 = Instant::now();
                    service.ingest(vec![delta.clone()]).unwrap();
                    service
                        .recv_report()
                        .expect("worker died mid-bench")
                        .unwrap_or_else(|e| panic!("{case_id}: round failed: {e}"));
                    total += t0.elapsed().as_secs_f64();
                }
                total
            };
            let t_plain = run_stream(&plain);
            let t_durable = run_stream(&durable);
            let overhead_per_round = (t_durable - t_plain) / durable_rounds as f64;
            let plain_engine = plain.shutdown().unwrap();
            durable.shutdown().unwrap();

            // Crash-restart cost, both roads ending at a *serving durable
            // service*: recover from snapshot + WAL suffix, vs full
            // discovery re-bootstrap on the identical final database
            // followed by `spawn_durable` (the alternative must also cut
            // its baseline snapshot to be durable again).
            let t0 = Instant::now();
            let (recovered, info) = MaintenanceService::recover(
                options(),
                InFine::default(),
                case.spec.clone(),
                VacuumPolicy::default(),
            )
            .unwrap_or_else(|e| panic!("{case_id}: recovery failed: {e}"));
            let t_recover = t0.elapsed();
            assert_eq!(info.durable_rounds, durable_rounds as u64);
            assert!(info.clean_shutdown, "{case_id}: shutdown marker missing");
            let recovered_engine = recovered.shutdown().unwrap();
            let dir2 = std::env::temp_dir().join(format!(
                "infine-bench-reboot-{}-{case_id}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir2);
            std::fs::create_dir_all(&dir2)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir2.display()));
            let t0 = Instant::now();
            let reboot_service = MaintenanceService::spawn_durable(
                bootstrap(recovered_engine.database().clone()),
                VacuumPolicy::default(),
                DurabilityOptions::new(&dir2).snapshot_policy(SnapshotPolicy::every_rounds(3)),
            )
            .unwrap_or_else(|e| panic!("{case_id}: re-bootstrap spawn failed: {e}"));
            let t_rebootstrap = t0.elapsed();
            let rebootstrapped = reboot_service.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(&dir2);
            assert_eq!(
                recovered_engine.report().triples,
                rebootstrapped.report().triples,
                "{case_id}: recovered cover diverged from re-bootstrap"
            );
            assert_eq!(
                recovered_engine.report().triples,
                plain_engine.report().triples,
                "{case_id}: durable service diverged from the plain service"
            );
            let _ = std::fs::remove_dir_all(&dir);

            let recover_speedup = t_rebootstrap.as_secs_f64() / t_recover.as_secs_f64().max(1e-9);
            recover_speedups.push(recover_speedup);
            if case_id.starts_with("tpch") && t_recover >= t_rebootstrap {
                tpch_recover_ok = false;
            }
            json_rows.push(
                Obj::new()
                    .str("workload", "durability")
                    .str("view", case_id)
                    .str("delta_table", target)
                    .int("rounds", durable_rounds as i64)
                    .num("plain_round_s", t_plain / durable_rounds as f64)
                    .num("durable_round_s", t_durable / durable_rounds as f64)
                    .num("wal_overhead_s_per_round", overhead_per_round)
                    .int("replayed_rounds", info.replayed_rounds as i64)
                    .num("recovery_s", t_recover.as_secs_f64())
                    .num("rebootstrap_s", t_rebootstrap.as_secs_f64())
                    .num("recover_speedup", recover_speedup),
            );
            dur_table.row(vec![
                case_id.to_string(),
                target.to_string(),
                durable_rounds.to_string(),
                secs(std::time::Duration::from_secs_f64(t_plain)),
                secs(std::time::Duration::from_secs_f64(t_durable)),
                secs(std::time::Duration::from_secs_f64(
                    overhead_per_round.max(0.0),
                )),
                info.replayed_rounds.to_string(),
                secs(t_recover),
                secs(t_rebootstrap),
                format!("{recover_speedup:.1}x"),
            ]);
        }
        println!("# durability (plain vs WAL+snapshot service, recovery vs re-bootstrap):");
        println!("{}", dur_table.render());
        let geo = (recover_speedups.iter().map(|s| s.ln()).sum::<f64>()
            / recover_speedups.len().max(1) as f64)
            .exp();
        println!("# recovery vs re-bootstrap geometric mean: {geo:.1}x");
        println!(
            "# recovery strictly below full re-bootstrap on TPC-H views: {}",
            if tpch_recover_ok { "PASS" } else { "MISS" }
        );
        durability_geomean = Some(geo);
    }

    // ---- overload lane (--overload / INFINE_BENCH_OVERLOAD=1) ----
    //
    // One service per admission policy, each flooded with the same
    // pre-generated churn stream as fast as it will accept it: the
    // unbounded queue absorbs the whole burst in memory, the bounded
    // queue parks the producer at the high-water mark, and
    // coalesce-in-place folds the backlog into one pending round per
    // table. Reported per policy: producer-side flood wall-clock, total
    // time to a drained service, rounds reported, batches shed, and the
    // peak backlog the producer observed. The final covers must agree
    // across all policies — admission control changes pacing, never the
    // answer.
    if bench_overload() {
        let overload_rounds: usize = std::env::var("INFINE_BENCH_OVERLOAD_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48);
        let (case_id, target) = ("tpch_q2", "supplier");
        let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
        let db = case.dataset.generate(scale);
        let mut rng = StdRng::seed_from_u64(0x0E7010AD);
        let mut oracle = db.expect(target).clone();
        let mut rounds: Vec<DeltaRelation> = Vec::new();
        for _ in 0..overload_rounds {
            let max = (oracle.live_rows() / 50).max(2);
            let batch = random_delta(&mut rng, &oracle, max, max);
            let (next, _) = oracle.apply_delta(&batch, target);
            oracle = next;
            rounds.push(DeltaRelation::new(target.to_string(), batch));
        }
        let lanes: [(&str, IngestPolicy); 3] = [
            ("unbounded", IngestPolicy::unbounded()),
            (
                "bounded+block",
                IngestPolicy::block(4, Duration::from_secs(120)),
            ),
            ("coalesce", IngestPolicy::coalesce_in_place()),
        ];
        let mut over_table = TextTable::new(&[
            "policy",
            "rounds",
            "t_flood",
            "t_drained",
            "reports",
            "shed",
            "peak_backlog",
        ]);
        let mut covers: Vec<(&str, Vec<infine_core::ProvenanceTriple>)> = Vec::new();
        for (label, ingest) in lanes {
            let engine =
                ShardedEngine::new(InFine::default(), db.clone(), case.spec.clone(), shards)
                    .unwrap_or_else(|e| panic!("{case_id}: overload bootstrap failed: {e}"));
            let service = MaintenanceService::spawn_with_policies(
                engine,
                ServicePolicies::default().ingest(ingest),
            );
            let mut shed = 0usize;
            let mut peak_backlog = 0usize;
            let t0 = Instant::now();
            for delta in &rounds {
                match service.ingest(vec![delta.clone()]) {
                    Ok(()) => {}
                    Err(MaintenanceError::Overloaded { shed: s }) => shed += s,
                    Err(e) => panic!("{case_id}: overload ingest failed: {e}"),
                }
                peak_backlog = peak_backlog.max(service.stats().queue_depth);
            }
            let t_flood = t0.elapsed();
            loop {
                let stats = service.stats();
                if stats.queue_depth == 0 && stats.in_flight == 0 {
                    break;
                }
                assert!(stats.worker_alive, "{case_id}: overload worker died");
                std::thread::sleep(Duration::from_micros(200));
            }
            let t_drained = t0.elapsed();
            let mut reports = 0usize;
            while let Some(r) = service.try_recv_report() {
                r.unwrap_or_else(|e| panic!("{case_id}: overload round failed: {e}"));
                reports += 1;
            }
            assert_eq!(shed, 0, "{case_id}: nothing sheds under these deadlines");
            covers.push((label, service.shutdown().unwrap().report().triples.clone()));
            json_rows.push(
                Obj::new()
                    .str("workload", "overload")
                    .str("view", case_id)
                    .str("policy", label)
                    .int("rounds", overload_rounds as i64)
                    .num("flood_s", t_flood.as_secs_f64())
                    .num("drained_s", t_drained.as_secs_f64())
                    .int("reports", reports as i64)
                    .int("shed", shed as i64)
                    .int("peak_backlog", peak_backlog as i64),
            );
            over_table.row(vec![
                label.to_string(),
                overload_rounds.to_string(),
                secs(t_flood),
                secs(t_drained),
                reports.to_string(),
                shed.to_string(),
                peak_backlog.to_string(),
            ]);
        }
        for (label, triples) in &covers[1..] {
            assert_eq!(
                triples, &covers[0].1,
                "{case_id}: policy {label} diverged from the unbounded cover"
            );
        }
        println!("# overload (flood ingest under each admission policy):");
        println!("{}", over_table.render());
    }

    // ---- reader-flood lane (--readers N / INFINE_BENCH_READERS=N) ----
    //
    // N threads hammer the published-cover read path (`CoverReader::current`)
    // while the service churns through the same seeded stream used
    // uncontended as the baseline. Reported: total reads, read
    // throughput per thread, the worst round lag any reader observed,
    // and churn wall-clock with and without the flood — pinning the
    // tentpole's claim that reads never queue behind ingest and the
    // flood never stalls the worker.
    let readers = bench_readers();
    if readers > 0 {
        let reader_rounds: usize = std::env::var("INFINE_BENCH_READER_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48);
        let (case_id, target) = ("tpch_q2", "supplier");
        let case = find(case_id).unwrap_or_else(|| panic!("unknown case {case_id}"));
        let db = case.dataset.generate(scale);
        let mut rng = StdRng::seed_from_u64(0x00_5EAD);
        let mut oracle = db.expect(target).clone();
        let mut rounds: Vec<DeltaRelation> = Vec::new();
        for _ in 0..reader_rounds {
            let max = (oracle.live_rows() / 50).max(2);
            let batch = random_delta(&mut rng, &oracle, max, max);
            let (next, _) = oracle.apply_delta(&batch, target);
            oracle = next;
            rounds.push(DeltaRelation::new(target.to_string(), batch));
        }
        let churn = |flood: usize| -> (Duration, u64, u64) {
            let engine =
                ShardedEngine::new(InFine::default(), db.clone(), case.spec.clone(), shards)
                    .unwrap_or_else(|e| panic!("{case_id}: reader-lane bootstrap failed: {e}"));
            let service = MaintenanceService::spawn(engine);
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flooders: Vec<_> = (0..flood)
                .map(|_| {
                    let reader = service.reader();
                    let stop = std::sync::Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let (mut reads, mut worst_lag) = (0u64, 0u64);
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let snap = reader.current();
                            worst_lag =
                                worst_lag.max(reader.head_round().saturating_sub(snap.round));
                            reads += 1;
                        }
                        (reads, worst_lag)
                    })
                })
                .collect();
            let t0 = Instant::now();
            for delta in &rounds {
                service
                    .ingest(vec![delta.clone()])
                    .unwrap_or_else(|e| panic!("{case_id}: reader-lane ingest failed: {e}"));
                service
                    .recv_report()
                    .unwrap_or_else(|| panic!("{case_id}: reader-lane round lost"))
                    .unwrap_or_else(|e| panic!("{case_id}: reader-lane round failed: {e}"));
            }
            let t_churn = t0.elapsed();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let (mut reads, mut worst_lag) = (0u64, 0u64);
            for f in flooders {
                let (r, l) = f.join().expect("reader thread panicked");
                reads += r;
                worst_lag = worst_lag.max(l);
            }
            service.shutdown().unwrap();
            (t_churn, reads, worst_lag)
        };
        let (t_alone, _, _) = churn(0);
        let (t_flooded, reads, worst_lag) = churn(readers);
        let reads_per_sec = reads as f64 / t_flooded.as_secs_f64();
        let mut read_table = TextTable::new(&[
            "readers",
            "rounds",
            "t_churn_alone",
            "t_churn_flooded",
            "reads",
            "reads_per_sec",
            "worst_lag",
        ]);
        read_table.row(vec![
            readers.to_string(),
            reader_rounds.to_string(),
            secs(t_alone),
            secs(t_flooded),
            reads.to_string(),
            format!("{reads_per_sec:.0}"),
            worst_lag.to_string(),
        ]);
        json_rows.push(
            Obj::new()
                .str("workload", "readers")
                .str("view", case_id)
                .int("readers", readers as i64)
                .int("rounds", reader_rounds as i64)
                .num("churn_alone_s", t_alone.as_secs_f64())
                .num("churn_flooded_s", t_flooded.as_secs_f64())
                .int("reads", reads as i64)
                .num("reads_per_sec", reads_per_sec)
                .int("worst_lag", worst_lag as i64),
        );
        println!("# readers (published cover reads under churn):");
        println!("{}", read_table.render());
    }

    println!("# 1%-delta speedups (cover maintenance vs full InFine re-discovery):");
    let mut geomeans = Vec::new();
    for workload in [Workload::Churn, Workload::Append] {
        let speedups: Vec<f64> = one_percent
            .iter()
            .filter(|(w, _, _)| *w == workload)
            .map(|(_, label, s)| {
                println!("#   [{}] {label}: {s:.1}x", workload.label());
                *s
            })
            .collect();
        let geomean =
            (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
        println!("#   [{}] geometric mean: {geomean:.1}x", workload.label());
        geomeans.push(geomean);
    }
    let headline = geomeans.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "# headline (min geometric mean across workloads): {headline:.1}x \
         (acceptance threshold: 5x) — {}",
        if headline >= 5.0 { "PASS" } else { "MISS" }
    );

    // Machine-readable mirror of the run (per-scenario rows + headline),
    // tracked across PRs like BENCH_discovery.json.
    let out_path =
        std::env::var("INFINE_BENCH_OUT").unwrap_or_else(|_| "BENCH_incremental.json".to_string());
    let kernel = infine_partitions::kernel_counters();
    let mut header = Obj::new()
        .str(
            "benchmark",
            "incremental maintenance vs full re-discovery (single-shot wall-clock seconds)",
        )
        .num("scale", scale.factor)
        .int("threads", infine_exec::parallelism() as i64)
        .int("shards", shards as i64)
        .num("churn_1pct_geomean_speedup_cover", geomeans[0])
        .num("append_1pct_geomean_speedup_cover", geomeans[1])
        .num("headline_min_geomean", headline)
        .num("delete_churn_round_speedup_geomean", delete_geomean)
        .int("kernel_checks", kernel.checks as i64)
        .int("kernel_early_exits", kernel.early_exits as i64)
        .int("products_avoided", kernel.products_avoided as i64)
        // Whole-run registry snapshot (every infine_* series, flat
        // object). The kernel_* fields above predate it and stay for
        // cross-PR trajectory compatibility.
        .raw("metrics", infine_obs::snapshot().to_json());
    if let Some(geo) = durability_geomean {
        header = header.num("durability_recover_speedup_geomean", geo);
    }
    if let Some(geo) = view_mode_geomean {
        header = header.num("view_mode_round_ratio_geomean", geo);
    }
    std::fs::write(&out_path, json::render_report(header, &json_rows))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("# wrote {out_path}");
    infine_obs::dump_if_requested();
}

/// The fast engine's canonical cover must be logically equivalent to the
/// full pipeline's triple set (id spaces aligned by column name).
fn assert_covers_equivalent(
    report: &infine_incremental::MaintenanceReport,
    full: &infine_core::InFineReport,
) {
    let map: Vec<usize> = (0..report.schema.len())
        .map(|i| full.schema.expect_id(report.schema.name(i)))
        .collect();
    let remapped = report
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
        remapped.equivalent(&full.fd_set()),
        "incremental cover diverged from full re-discovery"
    );
}
