//! `discover`: the paper's own operation. One pass runs `InFine::discover`
//! on six catalog views; the run repeats passes for the measured seconds.
//! A round of this workload is one pass.

use crate::adapter::{self, CoreCounts, CorePhases, Discovery};
use crate::stats::{mean, median, ratio, windowed_quantile};
use crate::trace::Trace;
use crate::{Args, Outcome};
use std::time::Instant;

/// `tpch_q9` is left out: at about 2.2 s it would be most of a pass.
const VIEWS: [&str; 6] = [
    "tpch_q2",
    "tpch_q3",
    "tpch_q11",
    "mimic_q_patients_admissions",
    "ptc_connected_bond",
    "pte_atm_drug",
];
const SCALE: f64 = 0.05;
const THREADS: usize = 2;
/// Repeats of the reference path, whose median pass the layer metrics
/// report.
const REFERENCE_REPEATS: usize = 3;

/// What a traced pass saw besides its wall-clock.
struct TracedPass {
    phases: CorePhases,
    counts: CoreCounts,
    unattributed_ms: f64,
}

/// The pass's views, in an order rotated by the seed.
fn inputs(seed: u64) -> Vec<adapter::Case> {
    let mut cases = adapter::cases(&VIEWS, SCALE);
    cases.rotate_left((seed % VIEWS.len() as u64) as usize);
    cases
}

/// Peak heap of one pass, in bytes.
pub fn peak_pass(args: &Args, out: &mut Outcome) -> usize {
    adapter::set_pool_threads(THREADS);
    let cases = inputs(args.seed);
    let (results, bytes) =
        adapter::peak_bytes(|| cases.iter().map(adapter::discover).collect::<Vec<_>>());
    for (case, result) in cases.iter().zip(results) {
        if let Err(e) = result {
            out.fail(format!("{}: discover failed: {e}", case.id));
        } else {
            out.check(true, String::new);
        }
    }
    bytes
}

pub fn run(args: &Args, out: &mut Outcome, trace: &mut Trace) {
    adapter::set_pool_threads(THREADS);
    let cases = inputs(args.seed);

    // Set-up: the first, cold pass.
    let t0 = Instant::now();
    let cold: Vec<Result<Discovery, String>> = cases.iter().map(adapter::discover).collect();
    out.set("setup_s", t0.elapsed().as_secs_f64(), 1);
    let mut first = Vec::new();
    for (case, result) in cases.iter().zip(cold) {
        match result {
            Ok(d) => first.push(d),
            Err(e) => return out.fail(format!("{}: discover failed: {e}", case.id)),
        }
    }

    let mut passes_ms: Vec<f64> = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut traced: Vec<TracedPass> = Vec::new();
    let before = adapter::counters();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let unit = passes_ms.len();
        let tracing = args.trace && unit.is_multiple_of(2);
        let p0 = Instant::now();
        let mut calls = Vec::with_capacity(cases.len());
        for case in &cases {
            let c0 = Instant::now();
            let result = adapter::discover(case);
            calls.push((result, c0, Instant::now()));
        }
        let p1 = Instant::now();
        let pass_ms = (p1 - p0).as_secs_f64() * 1e3;
        passes_ms.push(pass_ms);

        let span = tracing.then(|| trace.record("pass", unit, None, p0, p1));
        let mut phases = CorePhases::default();
        let mut counts = CoreCounts::default();
        for ((result, c0, c1), (case, expected)) in calls.into_iter().zip(cases.iter().zip(&first))
        {
            match result {
                Ok(d) => {
                    out.check(d.cover.same(&expected.cover), || {
                        format!("{}: pass {unit} cover differs from the first pass", case.id)
                    });
                    if span.is_some() {
                        trace.record("discover", unit, span, c0, c1);
                        phases.add(&d.phases);
                        counts.add(&d.counts);
                    }
                }
                Err(e) => out.fail(format!("{}: discover failed: {e}", case.id)),
            }
        }
        if tracing {
            traced.push(TracedPass {
                unattributed_ms: pass_ms - phases.total(),
                phases,
                counts,
            });
            traced_ms.push(pass_ms);
        } else {
            untraced_ms.push(pass_ms);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let counters = adapter::counters().since(&before);
    let n = passes_ms.len();
    out.set("round_p50_ms", median(&passes_ms), n);
    out.set("round_p99_ms", windowed_quantile(&passes_ms, 0.99), n);
    out.set("rounds_per_s", n as f64 / elapsed, n);

    // Correctness gate, untimed: every view's cover is equivalent to TANE
    // on the materialized view.
    let mut execute_ms = vec![0.0; REFERENCE_REPEATS];
    let mut tane_ms = vec![0.0; REFERENCE_REPEATS];
    for (case, found) in cases.iter().zip(&first) {
        for rep in 0..REFERENCE_REPEATS {
            match adapter::reference(case) {
                Ok(r) => {
                    execute_ms[rep] += r.execute_ms;
                    tane_ms[rep] += r.tane_ms;
                    if rep == 0 {
                        out.check(found.cover.equivalent(&r.cover), || {
                            format!("{}: InFine cover differs from TANE on the view", case.id)
                        });
                    }
                }
                Err(e) => out.fail(format!("{}: reference path failed: {e}", case.id)),
            }
        }
    }

    if args.trace {
        let k = traced.len();
        let per_pass =
            |f: &dyn Fn(&TracedPass) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
        out.set(
            "core.base_mining_ms",
            median(&per_pass(&|p| p.phases.base_mining)),
            k,
        );
        out.set("core.io_ms", median(&per_pass(&|p| p.phases.io)), k);
        out.set(
            "core.upstage_ms",
            median(&per_pass(&|p| p.phases.upstage)),
            k,
        );
        out.set("core.infer_ms", median(&per_pass(&|p| p.phases.infer)), k);
        out.set("core.mine_ms", median(&per_pass(&|p| p.phases.mine)), k);
        out.set(
            "core.mine_validated",
            mean(&per_pass(&|p| p.counts.mine_validated as f64)),
            k,
        );
        out.set(
            "core.pruned_by_theorem4",
            mean(&per_pass(&|p| p.counts.pruned_by_theorem4 as f64)),
            k,
        );
        out.set(
            "core.partial_join_rows",
            mean(&per_pass(&|p| p.counts.partial_join_rows as f64)),
            k,
        );
        crate::counter_layers(&counters, n, out);
        out.set(
            "algebra.view_execute_ms",
            median(&execute_ms),
            REFERENCE_REPEATS,
        );
        out.set(
            "discovery.view_tane_ms",
            median(&tane_ms),
            REFERENCE_REPEATS,
        );
        out.set(
            "bench.unattributed_ms",
            median(&per_pass(&|p| p.unattributed_ms)),
            k,
        );
        let untraced = median(&untraced_ms);
        out.set(
            "bench.trace_overhead_pct",
            ratio(median(&traced_ms) - untraced, untraced) * 100.0,
            n,
        );
    }
}
