//! Seeded model test of the maintenance service: each seed draws one
//! configuration and one random operation sequence, and the harness in
//! `model/mod.rs` checks its invariants after every step. Two behaviours
//! stay scripted on the same harness: the `CoalesceInPlace` flood and the
//! breaker's open → half-open → closed cycle.

mod model;

use infine_durability::failpoint::{ROUND_COMMIT, SNAPSHOT_WRITE, WAL_APPEND, WAL_APPEND_TORN};
use model::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn service_model() {
    let (seeds, default_set) = seeds();
    let steps = steps();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(&seed) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let outcome = run(seed, None, |m| (0..steps).for_each(|_| m.step()));
                    results.lock().unwrap().push((seed, outcome));
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(seed, _)| *seed);
    let mut coverage = Coverage::new();
    let mut failures = Vec::new();
    for (_, outcome) in results {
        match outcome {
            Ok(c) => c
                .into_iter()
                .for_each(|(k, n)| *coverage.entry(k).or_default() += n),
            Err(e) => failures.push(e),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
    eprintln!("coverage: {coverage:?}");
    if default_set {
        let mut required: Vec<String> = REQUIRED.split(", ").map(str::to_string).collect();
        for case in CASES {
            required.extend(SHARDS.map(|n| format!("{case} x {n} shards")));
        }
        let missing: Vec<_> = required
            .iter()
            .filter(|k| !coverage.contains_key(*k))
            .collect();
        assert!(missing.is_empty(), "never reached: {missing:?}");
    }
}

/// The `CoalesceInPlace` flood: twenty rounds at once while transient
/// commitlog faults and slow snapshot writes fire. Nothing is shed,
/// nothing lost, and the folded backlog ends equal to the lanes.
#[test]
fn overload_burst_folds_backlog_without_loss() {
    let cfg = Config {
        coalesce: true,
        ..SCRIPTED
    };
    scripted(0xB057, cfg, |m| {
        // Three errors on the first append stay inside the retry budget.
        m.fp.arm_err(WAL_APPEND, 1, 3, true);
        m.fp.arm_delay(SNAPSHOT_WRITE, 1, 2, 2);
        let before = m.registry.snapshot();
        let batches = m.burst(20);
        m.check_idle();
        let after = m.registry.snapshot();
        let delta = |name: &str| after.get(name).unwrap_or(0.0) - before.get(name).unwrap_or(0.0);
        assert_eq!(delta("infine_service_shed_total"), 0.0);
        assert_eq!(delta("infine_service_rejected_total"), 0.0);
        let accepted = delta("infine_service_batches_total");
        assert_eq!(accepted, batches as f64, "every batch accepted once");
        assert!(delta("infine_retry_attempts_total") > 0.0, "no retries");
    });
}

/// Supervision: crash every third round, cycling the worker-side sites,
/// and let the service heal itself; the breaker goes open → half-open →
/// closed and the stream still ends equal to the lanes.
#[test]
fn supervised_service_self_heals_through_the_breaker() {
    let cfg = Config {
        supervised: true,
        ..SCRIPTED
    };
    let coverage = scripted(0x5EEF, cfg, |m| {
        let sites = [WAL_APPEND, ROUND_COMMIT, WAL_APPEND_TORN];
        for i in 0..12 {
            if i % 3 == 2 {
                m.fault(Fault::Crash(sites[i / 3 % sites.len()]));
            } else {
                m.churn();
            }
            m.check_idle();
        }
        let snap = m.registry.snapshot();
        let respawns = snap.get("infine_service_respawns_total");
        assert!(respawns >= Some(4.0), "respawns {respawns:?}");
        let breaker = snap.get("infine_service_breaker_state");
        assert_eq!(breaker, Some(0.0), "breaker ends closed");
    });
    assert!(
        coverage.contains_key("breaker open"),
        "breaker never opened"
    );
}
