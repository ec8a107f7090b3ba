//! Fault injection for the seeded service model test
//! (`crates/incremental/tests/service_model.rs`) and the durability
//! tests.
//!
//! A fail point is a named site in the durability/service code that, when
//! armed, fires an injected fault on its *n*-th hit. Three fault shapes
//! exist: [`FailAction::Panic`] kills the worker thread exactly where a
//! real crash could strike (before a WAL append, mid-append with a torn
//! record already on disk, after a snapshot temp file is written but
//! before the rename, after a round is applied but before its report is
//! sent); [`FailAction::Err`] makes the site return an injected
//! `io::Error`, either transient (retryable — `ErrorKind::Interrupted`,
//! the EINTR/ENOSPC-blip stand-in) or fatal (`ErrorKind::InvalidData`);
//! [`FailAction::Delay`] stalls the site to simulate a slow disk. The
//! model test arms sites, drives churn through the injected faults, and
//! pins the surviving state equal to an unfaulted run.
//!
//! Arming is runtime state, not a cfg gate: integration tests live
//! outside the crate, so the hooks must exist in release
//! builds. Unarmed hits are one mutex-free `Arc` null-check beyond a
//! `Mutex` lock only taken when at least one site is armed; production
//! callers pass [`FailPoints::none`] and pay a single branch.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault before the WAL record for a round is written: on panic the
/// round is lost entirely and recovery must converge without it; on an
/// injected error the append is retried (transient) or the round is
/// dropped with an `Err` report (fatal / retries exhausted).
pub const WAL_APPEND: &str = "wal_append";
/// Crash after a *prefix* of the WAL record hits the file: recovery sees
/// a torn tail and must truncate-and-warn, never panic. Panic-only —
/// a torn write that returns instead of crashing cannot happen.
pub const WAL_APPEND_TORN: &str = "wal_append_torn";
/// Fault after the snapshot temp file is written but before the atomic
/// rename: no new snapshot exists and the temp file must be ignored
/// (crash) or the publication retried (injected error).
pub const SNAPSHOT_WRITE: &str = "snapshot_write";
/// Crash after the round is durably logged and applied, but before its
/// report is sent: recovery replays a round the engine already ran.
/// Panic-only — the site has no error path.
pub const ROUND_COMMIT: &str = "round_commit";
/// Fault after a directory entry changes (snapshot rename landed, or a
/// fresh WAL segment was created) but before the parent directory is
/// fsynced: a crash here may lose the entry itself even though the file
/// contents were synced, and recovery must still converge from the
/// previous snapshot + intact log suffix.
pub const DIR_FSYNC: &str = "dir_fsync";

/// What an armed fail point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Kill the calling thread (the injected "crash").
    Panic,
    /// Return an injected `io::Error` from the site. `transient: true`
    /// uses `ErrorKind::Interrupted` (classified retryable); `false`
    /// uses `ErrorKind::InvalidData` (fatal, never retried).
    Err {
        /// Whether the injected error should classify as retryable.
        transient: bool,
    },
    /// Sleep this long at the site, then continue normally (slow disk).
    Delay {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Hits to absorb before the first fire (0 = next hit fires).
    skip: u64,
    /// How many consecutive hits fire once `skip` is exhausted; the
    /// site disarms when this reaches zero.
    fires: u64,
    action: FailAction,
}

/// A shared set of armed fail-point sites with hit countdowns.
#[derive(Debug, Clone, Default)]
pub struct FailPoints {
    // None = nothing ever armed (the production fast path).
    armed: Option<Arc<Mutex<HashMap<String, Armed>>>>,
}

impl FailPoints {
    /// No fail points; every [`FailPoints::hit`] is a no-op branch.
    pub fn none() -> FailPoints {
        FailPoints::default()
    }

    /// Fail points from `INFINE_FAILPOINT`, a comma-separated list of:
    ///
    /// - `site:N` — panic on the N-th hit (N = 1 kills on the first);
    /// - `site:N:err` — return a transient injected error once;
    /// - `site:N:err!` — return a fatal injected error once;
    /// - `site:N:delay=MS` — stall MS milliseconds once.
    ///
    /// Unset or malformed entries arm nothing.
    pub fn from_env() -> FailPoints {
        let mut fp = FailPoints::none();
        let Ok(spec) = std::env::var("INFINE_FAILPOINT") else {
            return fp;
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut fields = part.split(':');
            let site = fields.next().unwrap_or_default();
            let Ok(nth) = fields.next().unwrap_or("1").parse::<u64>() else {
                continue;
            };
            match fields.next() {
                None => fp.arm(site, nth),
                Some("err") => fp.arm_action(site, nth, 1, FailAction::Err { transient: true }),
                Some("err!") => fp.arm_action(site, nth, 1, FailAction::Err { transient: false }),
                Some(d) => {
                    if let Some(ms) = d.strip_prefix("delay=").and_then(|m| m.parse().ok()) {
                        fp.arm_action(site, nth, 1, FailAction::Delay { ms });
                    }
                }
            }
        }
        fp
    }

    /// Arm `site` to panic on its `nth` hit (1-based; 0 is clamped to 1).
    pub fn arm(&mut self, site: &str, nth: u64) {
        self.arm_action(site, nth, 1, FailAction::Panic);
    }

    /// Arm `site` to return an injected `io::Error` on its `nth` hit and
    /// the `times - 1` hits after it (so a transient error armed with
    /// `times` > retry budget exhausts the retry policy).
    pub fn arm_err(&mut self, site: &str, nth: u64, times: u64, transient: bool) {
        self.arm_action(site, nth, times, FailAction::Err { transient });
    }

    /// Arm `site` to stall `ms` milliseconds on its `nth` hit and the
    /// `times - 1` hits after it.
    pub fn arm_delay(&mut self, site: &str, nth: u64, times: u64, ms: u64) {
        self.arm_action(site, nth, times, FailAction::Delay { ms });
    }

    fn arm_action(&mut self, site: &str, nth: u64, times: u64, action: FailAction) {
        let armed = self
            .armed
            .get_or_insert_with(|| Arc::new(Mutex::new(HashMap::new())));
        armed.lock().unwrap().insert(
            site.to_string(),
            Armed {
                skip: nth.max(1) - 1,
                fires: times.max(1),
                action,
            },
        );
    }

    /// True iff any site is armed (used to skip torn-write staging).
    pub fn any_armed(&self) -> bool {
        self.armed
            .as_ref()
            .is_some_and(|a| !a.lock().unwrap().is_empty())
    }

    /// True iff `site` specifically is armed (the torn-append path must
    /// decide whether to stage a partial write *before* hitting).
    pub fn is_armed(&self, site: &str) -> bool {
        self.armed
            .as_ref()
            .is_some_and(|a| a.lock().unwrap().contains_key(site))
    }

    /// True iff the *next* [`FailPoints::hit`] at `site` will panic. The
    /// torn-append path stages its partial write only on the hit that
    /// actually crashes — a staged-but-surviving append would corrupt
    /// the log mid-file, which no real crash can do. Err/Delay actions
    /// never report true: the append survives them, so nothing may be
    /// staged.
    pub fn will_fire(&self, site: &str) -> bool {
        self.armed.as_ref().is_some_and(|a| {
            a.lock().unwrap().get(site).is_some_and(|armed| {
                armed.skip == 0 && armed.fires > 0 && armed.action == FailAction::Panic
            })
        })
    }

    // Advance the countdown for `site` and return the action to perform
    // now, if any. The lock is released before the caller acts (a Delay
    // must not stall other sites; a Panic must not poison the map).
    fn advance(&self, site: &str) -> Option<FailAction> {
        let armed = self.armed.as_ref()?;
        let mut armed = armed.lock().unwrap();
        let entry = armed.get_mut(site)?;
        if entry.skip > 0 {
            entry.skip -= 1;
            return None;
        }
        entry.fires -= 1;
        let action = entry.action;
        if entry.fires == 0 {
            // Disarms as it finishes firing so a recovered worker does
            // not immediately die again.
            armed.remove(site);
        }
        Some(action)
    }

    /// Register a hit at a site with no error path. A due `Panic` kills
    /// the calling thread; a due `Delay` stalls it; a due `Err` degrades
    /// to a panic (an error cannot be returned from here) so a misarmed
    /// test fails loudly instead of silently skipping the injection.
    pub fn hit(&self, site: &str) {
        match self.advance(site) {
            None => {}
            Some(FailAction::Panic) => panic!("failpoint {site:?} fired (injected crash)"),
            Some(FailAction::Delay { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FailAction::Err { .. }) => {
                panic!("failpoint {site:?}: Err action armed at a panic-only site")
            }
        }
    }

    /// Register a hit at a fallible site. A due `Err` returns the
    /// injected `io::Error`; a due `Panic` kills the thread; a due
    /// `Delay` stalls and returns `Ok`.
    pub fn hit_io(&self, site: &str) -> std::io::Result<()> {
        match self.advance(site) {
            None => Ok(()),
            Some(FailAction::Panic) => panic!("failpoint {site:?} fired (injected crash)"),
            Some(FailAction::Delay { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            Some(FailAction::Err { transient }) => {
                let kind = if transient {
                    std::io::ErrorKind::Interrupted
                } else {
                    std::io::ErrorKind::InvalidData
                };
                Err(std::io::Error::new(
                    kind,
                    format!("failpoint {site:?} fired (injected error, transient={transient})"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_hits_are_noops() {
        let fp = FailPoints::none();
        fp.hit(WAL_APPEND);
        fp.hit("anything");
        assert!(fp.hit_io(WAL_APPEND).is_ok());
        assert!(!fp.any_armed());
    }

    #[test]
    fn fires_on_nth_hit_and_disarms() {
        let mut fp = FailPoints::none();
        fp.arm(SNAPSHOT_WRITE, 3);
        fp.hit(SNAPSHOT_WRITE);
        assert!(!fp.will_fire(SNAPSHOT_WRITE));
        fp.hit(SNAPSHOT_WRITE);
        assert!(fp.will_fire(SNAPSHOT_WRITE));
        let fp2 = fp.clone();
        let died = std::panic::catch_unwind(move || fp2.hit(SNAPSHOT_WRITE));
        assert!(died.is_err());
        // The firing disarmed the site (shared state with the clone).
        fp.hit(SNAPSHOT_WRITE);
        assert!(!fp.any_armed());
    }

    #[test]
    fn other_sites_do_not_fire() {
        let mut fp = FailPoints::none();
        fp.arm(WAL_APPEND, 1);
        fp.hit(SNAPSHOT_WRITE);
        fp.hit(ROUND_COMMIT);
        assert!(fp.any_armed());
    }

    #[test]
    fn err_action_returns_injected_errors_then_disarms() {
        let mut fp = FailPoints::none();
        fp.arm_err(WAL_APPEND, 2, 2, true);
        assert!(fp.hit_io(WAL_APPEND).is_ok());
        // Err actions must never trigger torn-write staging.
        assert!(!fp.will_fire(WAL_APPEND));
        for _ in 0..2 {
            let err = fp.hit_io(WAL_APPEND).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        }
        assert!(fp.hit_io(WAL_APPEND).is_ok());
        assert!(!fp.any_armed());
    }

    #[test]
    fn fatal_err_uses_invalid_data() {
        let mut fp = FailPoints::none();
        fp.arm_err(SNAPSHOT_WRITE, 1, 1, false);
        let err = fp.hit_io(SNAPSHOT_WRITE).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn delay_action_stalls_then_continues() {
        let mut fp = FailPoints::none();
        fp.arm_delay(WAL_APPEND, 1, 1, 20);
        let t0 = std::time::Instant::now();
        assert!(fp.hit_io(WAL_APPEND).is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!fp.any_armed());
    }

    #[test]
    fn from_env_syntax_round_trips() {
        // from_env reads a process-global; build the same shapes via the
        // parser's internals by arming directly and comparing behavior.
        let mut fp = FailPoints::none();
        fp.arm_action("a", 1, 1, FailAction::Err { transient: true });
        fp.arm_action("b", 1, 1, FailAction::Err { transient: false });
        fp.arm_action("c", 1, 1, FailAction::Delay { ms: 1 });
        assert_eq!(
            fp.hit_io("a").unwrap_err().kind(),
            std::io::ErrorKind::Interrupted
        );
        assert_eq!(
            fp.hit_io("b").unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        assert!(fp.hit_io("c").is_ok());
    }
}
