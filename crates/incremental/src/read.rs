//! Published cover reads (MVCC-lite).
//!
//! The service worker is the single writer: after every round it
//! publishes an immutable [`Arc<PublishedCovers>`] snapshot into a
//! [`CoverCell`], and any number of [`CoverReader`] handles get the
//! latest snapshot — consistent as of its round — without touching the
//! ingest queue, while the next round is still being computed.
//!
//! The cell is a std `RwLock<Arc<PublishedCovers>>`. A read clones the
//! `Arc` under the read guard; a publish swaps the `Arc` under the write
//! guard and drops the old one after releasing it, so freeing a large
//! snapshot never holds readers up. A snapshot a reader holds stays
//! intact for as long as it holds it, whatever is published meanwhile.

use crate::engine::TombstoneStats;
use infine_core::{BaseFds, ProvenanceTriple};
use infine_discovery::FdSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// One round's published cover state: everything a read-side client
/// needs, immutable and consistent as of `round`.
#[derive(Debug, Clone)]
pub struct PublishedCovers {
    /// The maintenance round this snapshot is current as of (equals the
    /// durable round index for durable services — after a recovery,
    /// readers resume at `RecoveryInfo::durable_rounds`).
    pub round: u64,
    /// Per-label canonical covers of the base relations (the sharded
    /// engine's merged read-time cache, cloned — never recomputed).
    pub base: BaseFds,
    /// The minimal FD cover of the view.
    pub cover: FdSet,
    /// View-level provenance triples (FD, kind, justifying sub-query).
    pub triples: Vec<ProvenanceTriple>,
    /// Tombstone/row accounting at publish time.
    pub tombstones: TombstoneStats,
}

/// The publication slot shared by the worker (single writer) and every
/// [`CoverReader`].
pub(crate) struct CoverCell {
    /// Poison is ignored: the only write replaces the whole `Arc`, so
    /// the value is valid even if a lock holder panicked.
    current: RwLock<Arc<PublishedCovers>>,
    /// Latest round the worker has *committed* (logged, or counted by an
    /// in-memory service) but maybe not yet published; `head -
    /// current.round` is the read lag the gauge reports.
    head: AtomicU64,
    /// `infine_reads_total` — one tick per `current()` call.
    reads: infine_obs::Counter,
    /// `infine_read_round_lag` — head minus the round served, sampled at
    /// each read.
    lag: infine_obs::Gauge,
}

impl CoverCell {
    /// A cell holding `initial` (readers created before the first round
    /// see the bootstrap/recovered state).
    pub(crate) fn new(
        initial: PublishedCovers,
        reads: infine_obs::Counter,
        lag: infine_obs::Gauge,
    ) -> CoverCell {
        CoverCell {
            head: AtomicU64::new(initial.round),
            current: RwLock::new(Arc::new(initial)),
            reads,
            lag,
        }
    }

    /// Record that the worker committed round `round` (it is applying;
    /// the publish will follow). Readers report `head - snapshot.round`
    /// as their lag.
    pub(crate) fn note_head(&self, round: u64) {
        self.head.store(round, Ordering::Relaxed);
    }

    /// Swap in a new snapshot (single writer: the worker thread, or the
    /// spawning/recovering thread before the worker starts).
    pub(crate) fn publish(&self, snapshot: PublishedCovers) {
        if snapshot.round > self.head.load(Ordering::Relaxed) {
            self.note_head(snapshot.round);
        }
        // The write guard is a temporary of this statement, so `old` is
        // dropped below with the lock already released.
        let old = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            Arc::new(snapshot),
        );
        drop(old);
    }
}

/// A cloneable handle onto the service's published cover state
/// ([`MaintenanceService::reader`]): [`CoverReader::current`] returns
/// the latest round's snapshot without blocking behind the ingest queue
/// and without ever observing a torn state. Rounds observed through one
/// handle are monotonically non-decreasing, including across
/// `respawn()` and recovery (the cell outlives worker incarnations).
///
/// The handle is `Send + Sync`: share one by reference across threads,
/// or clone it (a refcount bump) to hand threads their own.
///
/// [`MaintenanceService::reader`]: crate::MaintenanceService::reader
#[derive(Clone)]
pub struct CoverReader {
    cell: Arc<CoverCell>,
}

impl CoverReader {
    pub(crate) fn new(cell: Arc<CoverCell>) -> CoverReader {
        CoverReader { cell }
    }

    /// The latest published snapshot, independent of the ingest queue:
    /// a flooded service slows *rounds* down, never this call.
    pub fn current(&self) -> Arc<PublishedCovers> {
        let snap = Arc::clone(
            &self
                .cell
                .current
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.cell.reads.inc();
        let head = self.cell.head.load(Ordering::Relaxed);
        self.cell.lag.set(head.saturating_sub(snap.round) as i64);
        snap
    }

    /// Latest round the worker has committed; `head_round() -
    /// current().round` is how far a read lags the write frontier.
    pub fn head_round(&self) -> u64 {
        self.cell.head.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn handles() -> (infine_obs::Counter, infine_obs::Gauge) {
        let registry = infine_obs::Registry::scoped();
        (
            registry.counter("test_reads_total", "", &[]),
            registry.gauge("test_read_lag", "", &[]),
        )
    }

    fn snap(round: u64) -> PublishedCovers {
        PublishedCovers {
            round,
            base: BaseFds::new(),
            cover: FdSet::new(),
            triples: Vec::new(),
            tombstones: TombstoneStats::default(),
        }
    }

    #[test]
    fn reads_see_the_latest_publish() {
        let (reads, lag) = handles();
        let cell = Arc::new(CoverCell::new(snap(0), reads, lag));
        let reader = CoverReader::new(Arc::clone(&cell));
        assert_eq!(reader.current().round, 0);
        cell.publish(snap(1));
        cell.publish(snap(2));
        assert_eq!(reader.current().round, 2);
        assert_eq!(reader.head_round(), 2);
    }

    #[test]
    fn held_snapshots_survive_later_publishes() {
        let (reads, lag) = handles();
        let cell = Arc::new(CoverCell::new(snap(7), reads, lag));
        let reader = CoverReader::new(Arc::clone(&cell));
        let held = reader.current();
        for r in 8..40 {
            cell.publish(snap(r));
        }
        // The cell dropped its count of the old snapshot, but the
        // reader's Arc keeps the payload alive and intact.
        assert_eq!(held.round, 7);
        assert_eq!(reader.current().round, 39);
    }

    #[test]
    fn concurrent_readers_observe_monotonic_rounds() {
        let (reads, lag) = handles();
        let cell = Arc::new(CoverCell::new(snap(0), reads, lag));
        // One handle shared by reference across every thread (Sync).
        let reader = CoverReader::new(Arc::clone(&cell));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut last = 0u64;
                        let mut seen = 0u64;
                        // do-while: at least one read even if every
                        // publish lands before this thread first runs.
                        loop {
                            let s = reader.current();
                            assert!(
                                s.round >= last,
                                "round went backwards: {} after {last}",
                                s.round
                            );
                            last = s.round;
                            seen += 1;
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        seen
                    })
                })
                .collect();
            for r in 1..=5_000 {
                cell.publish(snap(r));
            }
            stop.store(true, Ordering::Relaxed);
            for t in threads {
                assert!(t.join().unwrap() > 0);
            }
        });
        assert_eq!(reader.current().round, 5_000);
    }
}
