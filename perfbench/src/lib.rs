//! Seeded end-to-end and per-layer benchmark for InFine.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload: it generates every input from the seed, sets the
//! system up, measures for the given seconds, checks the outputs against
//! an oracle outside the timed region, and prints its metrics, the JSON
//! summary last. With `--trace 0` the summary holds the end-to-end
//! metrics; with `--trace 1` the per-layer ones. `perfbench-peak` measures
//! `peak_mib` in its own process, under the counting allocator, so timed
//! runs keep the system allocator; `run.py` joins the two.

mod adapter;
mod discover;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub const WORKLOADS: [&str; 4] = ["discover", "churn_tpch", "churn_durable", "read_mostly"];

/// End-to-end metrics of the timed process (`peak_mib` comes from the
/// peak process). Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("rounds_per_s", "1/s"),
];

/// The peak process's one metric: peak heap of one untimed pass.
pub const PEAK: [(&str, &str); 1] = [("peak_mib", "MiB")];

/// Per-layer metrics of a traced run. A layer that does no work in a
/// workload reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.base_mining_ms", "ms"),
    ("core.io_ms", "ms"),
    ("core.upstage_ms", "ms"),
    ("core.infer_ms", "ms"),
    ("core.mine_ms", "ms"),
    ("core.mine_validated", "count"),
    ("core.pruned_by_theorem4", "count"),
    ("core.partial_join_rows", "count"),
    ("partitions.kernel_checks", "count"),
    ("partitions.early_exit_ratio", "ratio"),
    ("partitions.pli_cache_hit_ratio", "ratio"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("algebra.view_execute_ms", "ms"),
    ("discovery.view_tane_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.delta_apply_ms", "ms"),
    ("engine.base_maintain_ms", "ms"),
    ("engine.pipeline_ms", "ms"),
    ("engine.view_maintain_ms", "ms"),
    ("engine.untouched_ratio", "ratio"),
    ("engine.kernel_checks_per_round", "count"),
    ("engine.touched_shards", "count"),
    ("engine.resident_rows", "count"),
    ("engine.dict_entries", "count"),
    ("service.overhead_ms", "ms"),
    ("read.publish_ms", "ms"),
    ("read.report_to_visible_ms", "ms"),
    ("read.stale_after_report", "count"),
    ("read.current_ns", "ns"),
    ("read.visible_p50_ms", "ms"),
    ("read.visible_p99_ms", "ms"),
    ("read.reads_per_s", "1/s"),
    ("durability.wal_bytes_per_round", "B"),
    ("durability.snapshot_cut_ms", "ms"),
    ("durability.snapshot_bytes", "B"),
    ("durability.replayed_rounds", "count"),
    ("durability.recovery_ms", "ms"),
    ("durability.recover_s", "s"),
    ("bench.generator_late_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.error_rate", "ratio"),
];

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| **w == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Counted operations, failures, and the metrics one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    /// Record metric `name` measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// One checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// One operation that failed outright.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check(false, || what.into());
    }

    /// The JSON summary line reporting metrics `names`.
    pub fn summary(&self, names: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.values.get(name).map_or(0.0, |v| v.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable lines: every metric measured, with unit and sample
    /// count, then every failure.
    pub fn text(&self, args: &Args) -> String {
        let mut out = format!(
            "# {} seed={} seconds={} trace={} threads={}\n",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        for (name, unit) in END_TO_END.iter().chain(&PEAK).chain(&PER_LAYER) {
            if let Some((value, n)) = self.values.get(name) {
                let _ = writeln!(out, "{name:<34} {value:>14.4} {unit:<6} n={n}");
            }
        }
        let _ = writeln!(
            out,
            "{:<34} {:>14.4} ratio  ({} failed of {} attempted)",
            "error_rate",
            stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            let _ = writeln!(out, "FAILED: {e}");
        }
        out
    }

    /// Fail the run when an end-to-end metric is missing, zero, or not a
    /// number: each must be measured on every workload.
    fn require_end_to_end(&mut self) {
        for (name, _) in END_TO_END {
            let value = self.values.get(name).map_or(0.0, |v| v.0);
            if !(value.is_finite() && value > 0.0) {
                self.fail(format!("{name} was not measured (value {value})"));
            }
        }
    }

    fn finish_layers(&mut self) {
        let rate = stats::ratio(self.failed as f64, self.attempted as f64);
        self.set("bench.error_rate", rate, self.attempted as usize);
    }
}

/// Scratch directory of one run under `perfbench/.run/` in the working
/// directory; removed, with everything in it, when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(args: &Args, tag: &str) -> WorkDir {
        let dir = Path::new("perfbench/.run").join(format!(
            "{}-{}-{}-{}",
            args.workload,
            args.seed,
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }

    /// A fresh subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kernel, PLI-cache and pool work per unit (pass or round), from a
/// registry delta over `units` units.
fn counter_layers(delta: &adapter::Counters, units: usize, out: &mut Outcome) {
    let per_unit = |x: f64| x / units.max(1) as f64;
    let checks = delta.kernel_checks();
    out.set("partitions.kernel_checks", per_unit(checks), units);
    out.set(
        "partitions.early_exit_ratio",
        stats::ratio(delta.kernel_early_exits(), checks),
        units,
    );
    let hits = delta.cache_hits();
    out.set(
        "partitions.pli_cache_hit_ratio",
        stats::ratio(hits, hits + delta.cache_misses()),
        units,
    );
    out.set("exec.tasks", per_unit(delta.exec_tasks()), units);
    out.set("exec.steals", per_unit(delta.exec_steals()), units);
}

/// Run one workload in the timed process.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = trace::Trace::new();
    match args.workload {
        "discover" => discover::run(args, &mut out, &mut trace),
        name => stream::run(stream::config(name), args, &mut out, &mut trace),
    }
    if args.trace {
        out.finish_layers();
        let path =
            Path::new("perfbench/.run").join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all("perfbench/.run")
            .and_then(|()| std::fs::write(&path, trace.render()));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
        }
    } else {
        out.require_end_to_end();
    }
    out
}

/// One untimed pass of a workload for `peak_mib`; meaningful only in a
/// binary that registers the counting allocator.
pub fn run_peak(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let bytes = match args.workload {
        "discover" => discover::peak_pass(args, &mut out),
        name => stream::peak_pass(stream::config(name), args, &mut out),
    };
    out.set("peak_mib", bytes as f64 / (1u64 << 20) as f64, 1);
    out
}
