//! The stream workloads: one producer thread feeds a maintenance service a
//! seeded delta stream and reads the published cover back.
//!
//! * `churn_tpch` — closed loop, 1 % churn rounds on `tpch_q2`/`supplier`,
//!   in memory, 2 shards, 2 pool threads.
//! * `churn_durable` — the same loop on `pte_atm_drug`/`atm` against a
//!   durable service; the run ends by recovering copies of its directory
//!   taken as a crash would leave it.
//! * `read_mostly` — open loop on `tpch_q2`: a 1-row insert into
//!   `partsupp`, its largest table, is due every 20 ms and the producer
//!   reads the cover continuously in between; one pool thread.

use crate::adapter::{self, Case, Change, Checkpoint, Delta, Round, Service, SNAPSHOT_EVERY};
use crate::stats::{mean, median, quantile, ratio, windowed_quantile};
use crate::trace::Trace;
use crate::{Args, Outcome, WorkDir};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Config {
    view: &'static str,
    target: &'static str,
    factor: f64,
    shards: usize,
    threads: usize,
    durable: bool,
    change: Change,
    /// Open loop with a batch due every period; closed loop when `None`.
    period: Option<Duration>,
    warmup: usize,
}

pub fn config(workload: &str) -> Config {
    let tpch = Config {
        view: "tpch_q2",
        target: "supplier",
        factor: 0.01,
        shards: 2,
        threads: 2,
        durable: false,
        change: Change::Churn(0.01),
        period: None,
        warmup: 16,
    };
    match workload {
        "churn_tpch" => tpch,
        "churn_durable" => Config {
            view: "pte_atm_drug",
            target: "atm",
            durable: true,
            warmup: 64,
            ..tpch
        },
        "read_mostly" => Config {
            target: "partsupp",
            threads: 1,
            change: Change::Insert(1),
            period: Some(Duration::from_millis(20)),
            ..tpch
        },
        other => unreachable!("workload {other} is checked when parsed"),
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Recoveries, each on a fresh copy of the crashed directory.
const RECOVERIES: usize = 5;
/// A closed-loop run stops at a round count `≡ STOP_AT (mod
/// SNAPSHOT_EVERY)`, so a crash there leaves the same WAL suffix past the
/// last snapshot in every run.
const STOP_AT: usize = 8;
/// Cap on pre-generated rounds, which bounds the oracle checkpoints held.
const MAX_ROUNDS: usize = 20_000;
/// `CoverReader::current` calls per read batch (per timed batch when
/// tracing).
const READ_BATCH: usize = 64;

/// One batch of the measured stream, from send (or due time) to visible.
struct Sample {
    traced: bool,
    round_ms: f64,
    visible_ms: f64,
    report_to_visible_ms: f64,
}

#[derive(Default)]
struct Measured {
    samples: Vec<Sample>,
    /// Deltas ingested, timed or not, and the round the service reached.
    sent: usize,
    last_round: u64,
    /// Wall-clock of the timed part.
    elapsed: f64,
    reads: u64,
    stale: u64,
    current_ns: Vec<f64>,
    late_ms: Vec<f64>,
}

pub fn run(cfg: Config, args: &Args, out: &mut Outcome, trace: &mut Trace) {
    adapter::set_pool_threads(cfg.threads);
    let case = adapter::case(cfg.view, cfg.factor);
    let work = WorkDir::new(args, "stream");
    let budget = if args.trace {
        args.seconds * 0.75
    } else {
        args.seconds
    };

    // Set-up, several times: generated inputs in memory to a serving
    // service (bootstrap plus spawn).
    let mut setup_s = Vec::new();
    let mut service: Option<Service> = None;
    let mut dir = PathBuf::new();
    for i in 0..SETUPS {
        let db = case.database();
        dir = work.sub(&format!("service-{i}"));
        let t0 = Instant::now();
        let started = adapter::bootstrap(&case, db, cfg.shards).and_then(|engine| {
            if cfg.durable {
                adapter::spawn_durable(engine, &dir)
            } else {
                Ok(adapter::spawn(engine))
            }
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        match started {
            Ok(s) => {
                if let Some(Err(e)) = service.replace(s).map(Service::shutdown) {
                    out.fail(format!("shutdown after set-up: {e}"));
                }
            }
            Err(e) => return out.fail(format!("set-up: {e}")),
        }
    }
    out.set("setup_s", median(&setup_s), SETUPS);
    let service = service.expect("at least one set-up");

    // Inputs, all before timing: warm-up rounds, then the measured stream
    // with oracle checkpoints wherever a closed-loop run may stop.
    let mut stream = adapter::Stream::new(&case, cfg.target, cfg.change, args.seed);
    let warm: Vec<Delta> = (0..cfg.warmup).map(|_| stream.next_delta()).collect();
    let w0 = Instant::now();
    let mut round_id = 0;
    for delta in &warm {
        match closed_round(&service, delta, round_id) {
            Ok(r) => round_id = r.id,
            Err(e) => return out.fail(format!("warm-up: {e}")),
        }
    }
    let warm_rate = warm.len() as f64 / w0.elapsed().as_secs_f64();
    let mut n = match cfg.period {
        Some(p) => (budget / p.as_secs_f64()) as usize,
        None => ((warm_rate * budget * 2.0) as usize + 32).min(MAX_ROUNDS),
    };
    if cfg.period.is_none() {
        n += (STOP_AT + SNAPSHOT_EVERY as usize - (cfg.warmup + n) % SNAPSHOT_EVERY as usize)
            % SNAPSHOT_EVERY as usize;
    }
    let mut checkpoints: Vec<(usize, Checkpoint)> = Vec::new();
    let mut deltas = Vec::with_capacity(n);
    for j in 0..n {
        if cfg.period.is_none() && (cfg.warmup + j) % SNAPSHOT_EVERY as usize == STOP_AT {
            checkpoints.push((j, stream.checkpoint()));
        }
        deltas.push(stream.next_delta());
    }
    checkpoints.push((n, stream.checkpoint()));

    let before = adapter::counters();
    let m = match cfg.period {
        Some(period) => open_loop(&service, &deltas, round_id, period, args, trace, out),
        None => closed_loop(&service, &deltas, round_id, budget, args, trace, out),
    };
    let registry = adapter::counters().since(&before);

    // A crash image: the directory of an idle durable service, copied
    // before it shuts down cleanly.
    service.wait_idle(m.last_round);
    let crash = cfg.durable.then(|| {
        let image = work.sub("crash");
        copy_dir(&dir, &image);
        image
    });
    let final_cover = match service.shutdown() {
        Ok(c) => Some(c),
        Err(e) => {
            out.fail(format!("shutdown: {e}"));
            None
        }
    };

    // Correctness gate, untimed: the final cover against a fresh discover
    // on the producer's oracle database.
    let Some((_, checkpoint)) = checkpoints.iter().find(|(j, _)| *j == m.sent) else {
        return out.fail(format!(
            "the stream stopped off a checkpoint, after {}",
            m.sent
        ));
    };
    match (adapter::discover(&case.at(checkpoint)), &final_cover) {
        (Ok(d), Some(cover)) => out.check(cover.equivalent(&d.cover), || {
            "the service's final cover differs from discover on the oracle".to_string()
        }),
        (Err(e), _) => out.fail(format!("discover on the oracle: {e}")),
        (Ok(_), None) => {}
    }

    let n_samples = m.samples.len();
    let round_ms: Vec<f64> = m.samples.iter().map(|s| s.round_ms).collect();
    let visible_ms: Vec<f64> = m.samples.iter().map(|s| s.visible_ms).collect();
    out.set("round_p50_ms", median(&round_ms), n_samples);
    out.set(
        "round_p99_ms",
        windowed_quantile(&round_ms, 0.99),
        n_samples,
    );
    out.set("rounds_per_s", n_samples as f64 / m.elapsed, n_samples);
    out.set("read.visible_p50_ms", median(&visible_ms), n_samples);
    out.set(
        "read.visible_p99_ms",
        windowed_quantile(&visible_ms, 0.99),
        n_samples,
    );
    if cfg.period.is_some() {
        out.set(
            "read.reads_per_s",
            m.reads as f64 / m.elapsed,
            m.reads as usize,
        );
        out.set(
            "bench.generator_late_ms",
            quantile(&m.late_ms, 0.99),
            m.late_ms.len(),
        );
    }

    if let (Some(image), Some(cover)) = (&crash, &final_cover) {
        recover_copies(&case, image, &work, cover, m.last_round, out);
    }

    if args.trace {
        crate::counter_layers(&registry, (m.last_round - round_id) as usize, out);
        let apply_ms = replay_bare(&case, &cfg, &warm, &deltas[..m.sent], args, trace, out);
        out.set(
            "service.overhead_ms",
            median(&round_ms) - apply_ms,
            n_samples,
        );

        let (publishes, publish_s) = registry.publishes();
        out.set(
            "read.publish_ms",
            ratio(publish_s * 1e3, publishes),
            publishes as usize,
        );
        let to_visible: Vec<f64> = m.samples.iter().map(|s| s.report_to_visible_ms).collect();
        out.set("read.report_to_visible_ms", median(&to_visible), n_samples);
        out.set("read.stale_after_report", m.stale as f64, n_samples);
        out.set("read.current_ns", median(&m.current_ns), m.current_ns.len());
        let (appends, wal_bytes) = registry.wal();
        out.set(
            "durability.wal_bytes_per_round",
            ratio(wal_bytes, appends),
            appends as usize,
        );
        let (cuts, cut_s) = registry.snapshot_cuts();
        out.set(
            "durability.snapshot_cut_ms",
            ratio(cut_s * 1e3, cuts),
            cuts as usize,
        );
        let split = |traced: bool| -> Vec<f64> {
            m.samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.round_ms)
                .collect()
        };
        let untraced = median(&split(false));
        out.set(
            "bench.trace_overhead_pct",
            ratio(median(&split(true)) - untraced, untraced) * 100.0,
            n_samples,
        );
    }
}

/// Rounds in the peak pass.
const PEAK_ROUNDS: usize = 64;

/// Peak heap of set-up plus [`PEAK_ROUNDS`] closed-loop rounds, in bytes.
pub fn peak_pass(cfg: Config, args: &Args, out: &mut Outcome) -> usize {
    adapter::set_pool_threads(cfg.threads);
    let case = adapter::case(cfg.view, cfg.factor);
    let work = WorkDir::new(args, "peak");
    let dir = work.sub("service");
    let mut stream = adapter::Stream::new(&case, cfg.target, cfg.change, args.seed);
    let deltas: Vec<Delta> = (0..PEAK_ROUNDS).map(|_| stream.next_delta()).collect();
    let db = case.database();
    let (result, bytes) = adapter::peak_bytes(|| -> Result<(), String> {
        let engine = adapter::bootstrap(&case, db, cfg.shards)?;
        let service = if cfg.durable {
            adapter::spawn_durable(engine, &dir)?
        } else {
            adapter::spawn(engine)
        };
        let mut id = 0;
        for delta in &deltas {
            id = closed_round(&service, delta, id)?.id;
        }
        service.shutdown().map(drop)
    });
    match result {
        Ok(()) => out.check(true, String::new),
        Err(e) => out.fail(format!("peak pass: {e}")),
    }
    bytes
}

/// One closed-loop round as the producer saw it.
struct ClosedRound {
    id: u64,
    ingest: (Instant, Instant),
    reported: Instant,
    visible: Instant,
    stale: bool,
    reads: u64,
}

/// Ingest, wait for the report, then read until the round is visible.
fn closed_round(service: &Service, delta: &Delta, last: u64) -> Result<ClosedRound, String> {
    let t0 = Instant::now();
    service.ingest(delta)?;
    let t1 = Instant::now();
    service.await_report()?;
    let reported = Instant::now();
    let id = last + 1;
    let mut seen = service.read_round();
    let stale = seen < id;
    let mut reads = 1;
    while seen < id {
        seen = service.read_round();
        reads += 1;
    }
    Ok(ClosedRound {
        id,
        ingest: (t0, t1),
        reported,
        visible: Instant::now(),
        stale,
        reads,
    })
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Closed loop: the next round is sent once the previous one is visible.
/// Past the budget, rounds run on untimed up to the next checkpoint.
fn closed_loop(
    service: &Service,
    deltas: &[Delta],
    first_round: u64,
    budget: f64,
    args: &Args,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Measured {
    let mut m = Measured {
        last_round: first_round,
        ..Measured::default()
    };
    let start = Instant::now();
    for (i, delta) in deltas.iter().enumerate() {
        let timed = start.elapsed().as_secs_f64() < budget;
        if !timed && m.last_round as usize % SNAPSHOT_EVERY as usize == STOP_AT {
            break;
        }
        let r = match closed_round(service, delta, m.last_round) {
            Ok(r) => r,
            Err(e) => {
                // The service no longer follows the oracle: stop here.
                out.fail(format!("round {}: {e}", m.last_round + 1));
                break;
            }
        };
        out.check(true, String::new);
        m.sent = i + 1;
        m.last_round = r.id;
        if !timed {
            continue;
        }
        let (t0, t1) = r.ingest;
        let traced = args.trace && i.is_multiple_of(2);
        if traced {
            let span = trace.record("round", i, None, t0, r.reported);
            trace.record("ingest", i, Some(span), t0, t1);
            trace.record("await_report", i, Some(span), t1, r.reported);
            trace.record("visible", i, None, r.reported, r.visible);
            let r0 = Instant::now();
            for _ in 0..READ_BATCH {
                black_box(service.read_round());
            }
            let r1 = Instant::now();
            trace.record("read_batch", i, None, r0, r1);
            m.current_ns
                .push((r1 - r0).as_nanos() as f64 / READ_BATCH as f64);
        }
        m.samples.push(Sample {
            traced,
            round_ms: ms(t0, r.reported),
            visible_ms: ms(t0, r.visible),
            report_to_visible_ms: ms(r.reported, r.visible),
        });
        m.stale += u64::from(r.stale);
        m.reads += r.reads;
        m.elapsed = (r.visible - start).as_secs_f64();
    }
    m
}

/// Open loop: batch `k` is due at `k × period`; between sends the producer
/// reads the cover continuously. Latencies count from the due time.
fn open_loop(
    service: &Service,
    deltas: &[Delta],
    first_round: u64,
    period: Duration,
    args: &Args,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Measured {
    let n = deltas.len();
    let mut m = Measured::default();
    // The report (index) each batch landed in: a report covers every
    // batch queued when its round started.
    let mut batch_report: Vec<usize> = Vec::with_capacity(n);
    let mut reported_at: Vec<Instant> = Vec::with_capacity(n);
    let mut visible_at: Vec<Option<Instant>> = vec![None; n];
    let mut last_seen = first_round;
    let start = Instant::now();
    let due = |k: usize| start + period * k as u32;
    let deadline = due(n) + Duration::from_secs(30);
    let mut next = 0;
    loop {
        let now = Instant::now();
        if now > deadline {
            out.fail("open loop: reports stopped arriving");
            break;
        }
        if next < n && now >= due(next) {
            m.late_ms.push(ms(due(next), now));
            if let Err(e) = service.ingest(&deltas[next]) {
                out.fail(format!("ingest of batch {next}: {e}"));
            }
            next += 1;
            continue;
        }
        if let Some(report) = service.poll_report() {
            let at = Instant::now();
            match report {
                Ok(r) => {
                    out.check(true, String::new);
                    let left = n - batch_report.len();
                    let covered = (r.inserted as usize).min(left).max(1.min(left));
                    batch_report.extend(std::iter::repeat_n(reported_at.len(), covered));
                    reported_at.push(at);
                    let id = first_round + reported_at.len() as u64;
                    m.stale += u64::from(service.read_round() < id);
                }
                Err(e) => out.fail(format!("round {}: {e}", reported_at.len() + 1)),
            }
        }
        // Reads come in batches between checks for due batches and
        // reports; in the period of an even batch each batch is timed.
        let traced = args.trace && next > 0 && (next - 1).is_multiple_of(2);
        let r0 = Instant::now();
        let mut seen = 0;
        for _ in 0..READ_BATCH {
            seen = black_box(service.read_round());
        }
        let r1 = Instant::now();
        m.reads += READ_BATCH as u64;
        if traced {
            trace.record("read_batch", next - 1, None, r0, r1);
            m.current_ns
                .push((r1 - r0).as_nanos() as f64 / READ_BATCH as f64);
        }
        if seen > last_seen {
            for id in last_seen + 1..=seen {
                if let Some(slot) = visible_at.get_mut((id - first_round - 1) as usize) {
                    *slot = Some(r1);
                }
            }
            last_seen = seen;
        }
        let done = first_round + reported_at.len() as u64;
        if next == n && batch_report.len() == n && last_seen >= done {
            break;
        }
    }
    m.elapsed = start.elapsed().as_secs_f64();
    m.sent = next;
    m.last_round = first_round + reported_at.len() as u64;
    for (k, &j) in batch_report.iter().enumerate() {
        let (reported, visible) = (reported_at[j], visible_at[j].unwrap_or(reported_at[j]));
        if args.trace && k.is_multiple_of(2) {
            trace.record("round", k, None, due(k), reported);
        }
        m.samples.push(Sample {
            traced: args.trace && k.is_multiple_of(2),
            round_ms: ms(due(k), reported),
            visible_ms: ms(due(k), visible),
            report_to_visible_ms: if visible >= reported {
                ms(reported, visible)
            } else {
                -ms(visible, reported)
            },
        });
    }
    m
}

/// The same stream through a bare `ShardedEngine::apply`, no service: the
/// engine's phase split and the engine time a service round contains.
/// Returns the median apply time in milliseconds.
fn replay_bare(
    case: &Case,
    cfg: &Config,
    warm: &[Delta],
    measured: &[Delta],
    args: &Args,
    trace: &mut Trace,
    out: &mut Outcome,
) -> f64 {
    let mut engine = match adapter::bootstrap(case, case.database(), cfg.shards) {
        Ok(e) => e,
        Err(e) => {
            out.fail(format!("bare bootstrap: {e}"));
            return 0.0;
        }
    };
    for delta in warm {
        if let Err(e) = engine.apply(delta) {
            out.fail(format!("bare warm-up: {e}"));
            return 0.0;
        }
    }
    let mut rounds: Vec<(f64, Round)> = Vec::new();
    let before = adapter::counters();
    let start = Instant::now();
    for (i, delta) in measured.iter().enumerate() {
        if start.elapsed().as_secs_f64() > args.seconds * 0.25 {
            break;
        }
        let t0 = Instant::now();
        let applied = engine.apply(delta);
        let t1 = Instant::now();
        match applied {
            Ok(r) => {
                trace.record("apply", i, None, t0, t1);
                rounds.push((ms(t0, t1), r));
            }
            Err(e) => {
                out.fail(format!("bare round {i}: {e}"));
                break;
            }
        }
    }
    let counters = adapter::counters().since(&before);
    let k = rounds.len();
    let of = |f: &dyn Fn(&(f64, Round)) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let apply_ms = median(&of(&|r| r.0));
    out.set("engine.apply_ms", apply_ms, k);
    out.set(
        "engine.delta_apply_ms",
        median(&of(&|r| r.1.delta_apply_ms)),
        k,
    );
    out.set(
        "engine.base_maintain_ms",
        median(&of(&|r| r.1.base_maintain_ms)),
        k,
    );
    out.set("engine.pipeline_ms", median(&of(&|r| r.1.pipeline_ms)), k);
    out.set(
        "engine.view_maintain_ms",
        median(&of(&|r| r.1.view_maintain_ms)),
        k,
    );
    out.set(
        "engine.untouched_ratio",
        mean(&of(&|r| ratio(r.1.untouched as f64, r.1.held as f64))),
        k,
    );
    out.set(
        "engine.kernel_checks_per_round",
        ratio(counters.kernel_checks(), k as f64),
        k,
    );
    out.set(
        "engine.touched_shards",
        ratio(counters.touched_shards(), k as f64),
        k,
    );
    out.set("engine.resident_rows", engine.resident_rows() as f64, 1);
    out.set("engine.dict_entries", engine.dict_entries() as f64, 1);
    out.set(
        "bench.unattributed_ms",
        median(&of(&|r| r.0 - r.1.phases_ms())),
        k,
    );
    apply_ms
}

/// Recover fresh copies of the crash image, timing each recovery, and
/// check each recovered cover against the cover before the crash.
fn recover_copies(
    case: &Case,
    image: &Path,
    work: &WorkDir,
    before_crash: &adapter::Cover,
    last_round: u64,
    out: &mut Outcome,
) {
    let dirs: Vec<PathBuf> = (0..RECOVERIES)
        .map(|i| {
            let dir = work.sub(&format!("recover-{i}"));
            copy_dir(image, &dir);
            dir
        })
        .collect();
    let before = adapter::counters();
    let (mut recover_s, mut replayed) = (Vec::new(), Vec::new());
    for dir in &dirs {
        let t0 = Instant::now();
        let recovered = adapter::recover(case, dir);
        let took = t0.elapsed().as_secs_f64();
        let (service, info) = match recovered {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("recover: {e}"));
                continue;
            }
        };
        recover_s.push(took);
        replayed.push(info.replayed_rounds as f64);
        out.check(
            info.durable_rounds == last_round && !info.clean_shutdown,
            || {
                format!(
                    "recovered {} rounds (clean shutdown: {}), expected {last_round} after a crash",
                    info.durable_rounds, info.clean_shutdown
                )
            },
        );
        match service.shutdown() {
            Ok(cover) => out.check(cover.equivalent(before_crash), || {
                "the recovered cover differs from the cover before the crash".to_string()
            }),
            Err(e) => out.fail(format!("shutdown after recovery: {e}")),
        }
    }
    let (count, seconds) = adapter::counters().since(&before).recoveries();
    out.set("durability.recover_s", median(&recover_s), recover_s.len());
    out.set(
        "durability.replayed_rounds",
        median(&replayed),
        replayed.len(),
    );
    out.set(
        "durability.recovery_ms",
        ratio(seconds * 1e3, count),
        count as usize,
    );
    out.set(
        "durability.snapshot_bytes",
        adapter::snapshot_bytes(image) as f64,
        1,
    );
}

/// Copy the files of a durable service's directory tree.
fn copy_dir(from: &Path, to: &Path) {
    let entries =
        std::fs::read_dir(from).unwrap_or_else(|e| panic!("cannot list {}: {e}", from.display()));
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| panic!("cannot list {}: {e}", from.display()));
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            std::fs::create_dir_all(&dst)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dst.display()));
            copy_dir(&src, &dst);
        } else {
            std::fs::copy(&src, &dst)
                .unwrap_or_else(|e| panic!("cannot copy {}: {e}", src.display()));
        }
    }
}
