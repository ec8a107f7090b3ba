//! Shared measurement harness: run InFine and the four baselines on a
//! catalog view and collect the quantities each paper table/figure needs.

use crate::alloc::measure_peak;
use infine_algebra::execute;
use infine_core::{discover_base_fds, straightforward, FdKind, InFine, InFineReport};
use infine_datagen::{QueryCase, Scale};
use infine_discovery::Algorithm;
use infine_incremental::{MaintenanceEngine, MaintenanceReport};
use infine_relation::{Database, DeltaRelation};
use std::time::{Duration, Instant};

/// One measured run of InFine on a view.
pub struct InFineRun {
    /// The pipeline report (triples, timings, stats).
    pub report: InFineReport,
    /// Wall-clock of the whole pipeline (excluding base mining).
    pub total: Duration,
    /// Peak allocation bytes (0 unless the counting allocator is active).
    pub peak_bytes: usize,
}

/// One measured run of a baseline (full SPJ + discovery + diff labelling).
pub struct BaselineRun {
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Total wall-clock (view computation + discovery + labelling).
    pub total: Duration,
    /// View materialization time alone.
    pub view_time: Duration,
    /// Number of FDs discovered on the view.
    pub fds: usize,
    /// Rows of the materialized view.
    pub view_rows: usize,
    /// Peak allocation bytes (0 unless the counting allocator is active).
    pub peak_bytes: usize,
}

/// Run InFine on a case (fresh database generation is *not* measured).
pub fn run_infine(db: &Database, case: &QueryCase) -> InFineRun {
    let engine = InFine::default();
    let (report, peak_bytes) = measure_peak(|| {
        engine
            .discover(db, &case.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", case.id))
    });
    let total = report.timings.infine_total();
    InFineRun {
        report,
        total,
        peak_bytes,
    }
}

/// Run one baseline on a case. Base-table FD discovery is excluded from
/// the timing (the paper treats it as a shared cost), so it runs outside
/// the measured region.
pub fn run_baseline(db: &Database, case: &QueryCase, algorithm: Algorithm) -> BaselineRun {
    let base_fds = discover_base_fds(db, &case.spec, algorithm);
    let (report, peak_bytes) = measure_peak(|| {
        straightforward(db, &case.spec, algorithm, &base_fds)
            .unwrap_or_else(|e| panic!("{}: {e}", case.id))
    });
    BaselineRun {
        algorithm,
        total: report.timings.total(),
        view_time: report.timings.view_computation,
        fds: report.fds.len(),
        view_rows: report.view_rows,
        peak_bytes,
    }
}

/// One measured maintenance round of the incremental engine.
pub struct MaintenanceRun {
    /// The engine's round report (classification, per-base stats,
    /// timing breakdown).
    pub report: MaintenanceReport,
    /// Wall-clock of the whole `apply` call.
    pub total: Duration,
    /// Peak allocation bytes (0 unless the counting allocator is active).
    pub peak_bytes: usize,
}

/// Shared measurement wrapper for the maintenance lanes — every lane
/// must time and peak-track its apply identically or their columns stop
/// being comparable.
fn measure_maintenance(apply: impl FnOnce() -> MaintenanceReport) -> MaintenanceRun {
    let t0 = Instant::now();
    let (report, peak_bytes) = measure_peak(apply);
    MaintenanceRun {
        report,
        total: t0.elapsed(),
        peak_bytes,
    }
}

/// Apply one round of deltas through the maintenance engine, measured.
pub fn run_maintenance(engine: &mut MaintenanceEngine, deltas: &[DeltaRelation]) -> MaintenanceRun {
    measure_maintenance(|| {
        engine
            .apply(deltas)
            .unwrap_or_else(|e| panic!("maintenance apply failed: {e}"))
    })
}

/// [`run_maintenance`] for the sharded engine (same report shape).
pub fn run_sharded_maintenance(
    engine: &mut infine_incremental::ShardedEngine,
    deltas: &[DeltaRelation],
) -> MaintenanceRun {
    measure_maintenance(|| {
        engine
            .apply(deltas)
            .unwrap_or_else(|e| panic!("sharded maintenance apply failed: {e}"))
    })
}

/// Wall-clock one full `InFine::discover` from scratch (base mining
/// included — from-scratch re-discovery pays it, unlike the per-phase
/// split of [`run_infine`]).
pub fn run_full_rediscovery(db: &Database, case: &QueryCase) -> (InFineReport, Duration) {
    let t0 = Instant::now();
    let report = InFine::default()
        .discover(db, &case.spec)
        .unwrap_or_else(|e| panic!("{}: {e}", case.id));
    (report, t0.elapsed())
}

/// Tuple count of a view result (materializes it; used by Table II).
pub fn view_rows(db: &Database, case: &QueryCase) -> usize {
    execute(&case.spec, db)
        .unwrap_or_else(|e| panic!("{}: {e}", case.id))
        .nrows()
}

/// InFine accuracy shares in the Table III sense.
pub fn shares(report: &InFineReport) -> (f64, f64, f64) {
    report.phase_shares()
}

/// FD count per kind, rendered compactly (diagnostics).
pub fn kind_summary(report: &InFineReport) -> String {
    FdKind::ALL
        .iter()
        .map(|&k| format!("{}={}", k.label(), report.count_kind(k)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Format a duration in seconds with sub-millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Format bytes as mebibytes.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Shard-count override set by `--shards` (0 = unset).
static SHARDS_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Shard count for the sharded-maintenance bench lane: `--shards N` flag,
/// else `INFINE_SHARDS`, else 2 (so the sharded path is exercised by
/// default without degenerating to the unsharded case).
pub fn bench_shards() -> usize {
    let o = SHARDS_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    std::env::var("INFINE_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Parse the bench binaries' shared CLI flags.
///
/// `--threads N` pins the `infine-exec` worker count for the whole run
/// (equivalent to `INFINE_THREADS=N` but visible in shell history and
/// recorded via `infine_exec::parallelism()` in the emitted JSON);
/// `--shards N` pins the shard count of the sharded maintenance lane
/// (equivalent to `INFINE_SHARDS=N`, recorded via [`bench_shards`]);
/// `--durability` enables the durability lane of the incremental bench
/// (equivalent to `INFINE_BENCH_DURABILITY=1`, see [`bench_durability`]);
/// `--overload` enables the overload lane — ingest throughput under
/// each admission policy (equivalent to `INFINE_BENCH_OVERLOAD=1`, see
/// [`bench_overload`]); `--readers N` enables the reader-flood lane —
/// N [`CoverReader`](infine_incremental::CoverReader) threads
/// hammering `current()` while the service churns (equivalent to
/// `INFINE_BENCH_READERS=N`, see [`bench_readers`]).
///
/// Also arms the observability env knobs: `INFINE_METRICS_ADDR` starts
/// the Prometheus scrape endpoint for the duration of the run (watch a
/// long bench live), and `INFINE_METRICS_DUMP` is honored by each
/// binary's exit path via [`infine_obs::dump_if_requested`].
pub fn apply_cli_flags() {
    infine_obs::serve_from_env();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| panic!("--threads needs a positive integer"));
                infine_exec::set_parallelism(n);
            }
            "--shards" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| panic!("--shards needs a positive integer"));
                SHARDS_OVERRIDE.store(n, std::sync::atomic::Ordering::Relaxed);
            }
            "--durability" => {
                DURABILITY.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            "--overload" => {
                OVERLOAD.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            "--view-mode" => {
                VIEW_MODE.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            "--readers" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| panic!("--readers needs a positive integer"));
                READERS.store(n, std::sync::atomic::Ordering::Relaxed);
            }
            other => panic!(
                "unknown argument {other:?} (supported: --threads N, --shards N, --durability, --overload, --view-mode, --readers N)"
            ),
        }
    }
}

/// Durability-lane switch set by `--durability` or
/// `INFINE_BENCH_DURABILITY=1`: the incremental bench adds a lane that
/// measures WAL append overhead per round and recovery time vs full
/// re-bootstrap.
static DURABILITY: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the durability bench lane is enabled for this run.
pub fn bench_durability() -> bool {
    DURABILITY.load(std::sync::atomic::Ordering::Relaxed)
        || std::env::var("INFINE_BENCH_DURABILITY").is_ok_and(|v| v != "0")
}

/// Overload-lane switch set by `--overload` or
/// `INFINE_BENCH_OVERLOAD=1`: the incremental bench adds a lane that
/// floods a service under each admission policy (unbounded queue,
/// bounded+block, coalesce-in-place) and reports ingest throughput,
/// peak backlog, and shed counts.
static OVERLOAD: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the overload bench lane is enabled for this run.
pub fn bench_overload() -> bool {
    OVERLOAD.load(std::sync::atomic::Ordering::Relaxed)
        || std::env::var("INFINE_BENCH_OVERLOAD").is_ok_and(|v| v != "0")
}

/// View-mode-lane switch set by `--view-mode` or
/// `INFINE_BENCH_VIEW_MODE=1`: the incremental bench adds a lane that
/// drives identical churn through a materialized and a join-index
/// (virtual) cover-only engine and compares round latency and peak
/// resident rows/dictionary entries.
static VIEW_MODE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the view-mode bench lane is enabled for this run.
pub fn bench_view_mode() -> bool {
    VIEW_MODE.load(std::sync::atomic::Ordering::Relaxed)
        || std::env::var("INFINE_BENCH_VIEW_MODE").is_ok_and(|v| v != "0")
}

/// Reader-flood lane thread count set by `--readers N` or
/// `INFINE_BENCH_READERS=N` (0 = lane disabled): the incremental bench
/// adds a lane where N threads hammer `CoverReader::current()`
/// while the service churns, and reports read throughput and round lag.
static READERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Reader count for the reader-flood bench lane (0 = disabled).
pub fn bench_readers() -> usize {
    let o = READERS.load(std::sync::atomic::Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    std::env::var("INFINE_BENCH_READERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

/// Scale from the environment with a stderr note (shared by binaries).
pub fn bench_scale() -> Scale {
    let s = Scale::from_env();
    eprintln!(
        "# scale factor {} (set INFINE_SCALE to change; 1.0 = paper-published sizes)",
        s.factor
    );
    s
}

/// Simple fixed-width text table writer for the harness binaries.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (arity must match the headers).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        let _ = ncols;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_datagen::find;

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(&["a", "long header"]);
        t.row(vec!["xx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("--"));
    }

    #[test]
    fn infine_and_baseline_run_on_a_small_case() {
        let case = find("pte_active_drug").unwrap();
        let db = case.dataset.generate(Scale::of(0.01));
        let i = run_infine(&db, &case);
        assert!(!i.report.triples.is_empty());
        let b = run_baseline(&db, &case, Algorithm::Tane);
        assert!(b.fds > 0);
        assert!(b.view_rows > 0);
        // shares sum to 1
        let (u, f, m) = shares(&i.report);
        assert!((u + f + m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.5000");
        assert_eq!(mib(1024 * 1024), "1.00");
    }
}
