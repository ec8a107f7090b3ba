//! Miner instrumentation: one handle bundle per miner invocation.
//!
//! Every miner resolves a [`MinerObs`] against the ambient `infine-obs`
//! registry on entry (so timings land in the caller's engine scope) and
//! records two series, both labelled by algorithm:
//!
//! * `infine_miner_seconds{algo}` — wall time of the whole invocation,
//!   recorded by a span guard;
//! * `infine_miner_level_seconds{algo}` — wall time of each lattice
//!   level (level-wise miners), validation round (HyFD), or phase
//!   (FastFDs, which has no lattice levels).

use std::time::Instant;

pub(crate) struct MinerObs {
    total: infine_obs::SpanTimer,
    level: infine_obs::Histogram,
}

impl MinerObs {
    pub(crate) fn resolve(algo: &'static str) -> Self {
        infine_obs::with_current(|r| {
            // Pin the help text before the span timer's generic one.
            r.duration_histogram(
                "infine_miner_seconds",
                "Wall time of one full miner invocation.",
                &[("algo", algo)],
            );
            Self {
                total: r.span_timer("infine_miner_seconds", &[("algo", algo)]),
                level: r.duration_histogram(
                    "infine_miner_level_seconds",
                    "Wall time of one lattice level / round / phase of a miner.",
                    &[("algo", algo)],
                ),
            }
        })
    }

    /// Guard timing the whole invocation (records on drop).
    pub(crate) fn start(&self) -> infine_obs::SpanGuard<'_> {
        self.total.start()
    }

    /// Record one level ending now; returns the next level's start.
    pub(crate) fn level_done(&self, t0: Instant) -> Instant {
        let now = Instant::now();
        self.level.observe_duration(now.duration_since(t0));
        now
    }
}
