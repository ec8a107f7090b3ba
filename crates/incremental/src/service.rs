//! The channel-driven maintenance service: deltas in,
//! [`MaintenanceReport`]s out, producers never block on maintenance
//! unless they opt into a bounded queue.
//!
//! [`MaintenanceService::spawn`] moves a [`ShardedEngine`] onto a worker
//! thread and hands back a handle with two channels: a request sender
//! (ingest / flush / vacuum) and a report receiver. Producers [`ingest`]
//! batches at any rate; the worker drains everything queued while it was
//! busy and **coalesces the pending batches per table**
//! ([`DeltaBatch::then`]) before running one sharded maintenance round —
//! so a burst of ten batches against one table costs one round, not ten,
//! and the emitted report describes the combined delta.
//!
//! Batch addressing contract: each ingested batch addresses its table in
//! the *logical stream state* — the base table after every previously
//! *accepted* batch, in ingestion order. That is exactly what a producer
//! tailing its own change feed sees. Malformed batches (unknown table,
//! out-of-range delete, arity mismatch) are rejected at ingestion and
//! surface as `Err` on the report channel without poisoning the pending
//! state; the rest of the failing [`ingest`] call is dropped with them
//! (its batches assumed the rejected one applied). The whole boundary is
//! panic-free: validation plus the fallible [`DeltaBatch::try_then`]
//! composition guarantee a malformed batch can never kill the worker
//! thread. A rejection is a stream fault: batches the producer derived
//! *after* the rejected one — including ones already queued in later
//! ingest calls — may address rows the service never created, so on an
//! `Err` report the producer should re-derive its feed from the engine's
//! actual state (e.g. flush, then rebuild its mirror).
//!
//! ## Backpressure and admission control
//!
//! By default the request queue is unbounded. An [`IngestPolicy`] with a
//! capacity turns [`ingest`] into an admission decision against the live
//! queue depth, with three overflow behaviors ([`OverflowPolicy`]):
//!
//! - **`Reject`** — shed immediately: the call returns
//!   [`MaintenanceError::Overloaded`] with the batch count, nothing is
//!   queued, and the `infine_service_shed_total` counter records the
//!   loss. The producer's stream position is unchanged; it may re-offer.
//! - **`Block { deadline }`** — wait for the worker to drain below
//!   capacity, up to the deadline; past it the call sheds like `Reject`.
//! - **`CoalesceInPlace`** — never shed, never block: every batch goes
//!   to a shared overflow inbox and the worker folds it into its pending
//!   per-table delta ([`DeltaBatch::try_then`]) at the next drain, so
//!   backlog memory is bounded by table count, not batch count. All
//!   ingests route through the inbox under this policy (mixing the
//!   channel and the inbox would race batch order, and order is load-
//!   bearing for positional deletes).
//!
//! Shed work is never silent: it is an `Err` on the calling side *and* a
//! metric. [`IngestPolicy::degrade_above`] adds graceful degradation: a
//! round that starts with more queued batches than the high-water mark
//! runs **degraded** — policy vacuums are skipped and policy snapshot
//! cuts deferred (explicit commands still honored) so the worker spends
//! its time draining. Degraded rounds are flagged in the commitlog
//! (`ROUND_DEGRADED`) so recovery replays the same decisions.
//!
//! ## Transient faults and retry
//!
//! Durable services classify storage failures: `Interrupted` /
//! `WouldBlock` / `TimedOut` I/O errors are *transient*
//! ([`DurabilityError::is_transient`]); corruption and every other kind
//! are *fatal*. Commitlog appends and snapshot publications run under
//! the [`RetryPolicy`] in [`DurabilityOptions`] — bounded exponential
//! backoff with deterministic jitter, one `infine_retry_attempts_total`
//! tick per absorbed fault. Only a fatal error or an exhausted budget
//! surfaces, and an unloggable round is still DROPPED, not applied: the
//! engine never runs ahead of the log.
//!
//! ## Vacuum between rounds
//!
//! Under [`DeletePolicy`](crate::DeletePolicy)`::Tombstone` the engine's
//! fragments accumulate dead rows until a vacuum. The service runs one
//! **between rounds** — the ingest loop never stops — in two ways:
//! automatically, when the engine's tombstone fraction exceeds
//! [`VacuumPolicy::max_tombstone_fraction`] after a round; or on demand
//! via [`MaintenanceService::vacuum`] (the explicit vacuum command,
//! which also forces a round so a report is emitted promptly). Either
//! way the pass is recorded in the emitted report's
//! [`vacuum`](MaintenanceReport::vacuum) field.
//!
//! ## Worker death and supervision
//!
//! If the worker thread ever panics (a bug, not reachable from malformed
//! input), the handle reports it instead of hanging or panicking the
//! caller: [`ingest`]/[`flush`]/[`vacuum`] return
//! [`MaintenanceError::WorkerDied`], [`recv_report`] yields it once as a
//! final `Err` report, and [`shutdown`] returns it instead of
//! propagating the panic. Durable services can restart from disk —
//! manually via [`respawn`], or automatically when
//! [`SupervisorPolicy::auto_respawn`] is on: the next request finding a
//! dead worker rebuilds it from the snapshot + commitlog (with backoff),
//! guarded by a circuit breaker — [`SupervisorPolicy::breaker_deaths`]
//! deaths inside the window open it ([`MaintenanceError::BreakerOpen`])
//! until the cooldown allows one half-open probe; a clean round closes
//! it. After any respawn the engine holds exactly the durable rounds;
//! [`take_recovery_info`] tells the producer where to resume. Automatic
//! respawn is therefore only safe for producers that can re-derive their
//! feed from that resume point (e.g. insert-only or re-playable
//! streams); positional delete streams should drive [`respawn`]
//! explicitly.
//!
//! [`ingest`]: MaintenanceService::ingest
//! [`flush`]: MaintenanceService::flush
//! [`vacuum`]: MaintenanceService::vacuum
//! [`recv_report`]: MaintenanceService::recv_report
//! [`respawn`]: MaintenanceService::respawn
//! [`take_recovery_info`]: MaintenanceService::take_recovery_info
//! [`shutdown`]: MaintenanceService::shutdown

use crate::engine::{MaintenanceError, MaintenanceReport, TombstoneStats};
use crate::persist;
use crate::read::{CoverCell, CoverReader};
use crate::shard::ShardedEngine;
use infine_algebra::ViewSpec;
use infine_core::InFine;
use infine_durability::failpoint::ROUND_COMMIT;
use infine_durability::{
    wal, DurabilityError, FailPoints, RetryPolicy, SnapshotPolicy, SnapshotStore, Wal,
};
use infine_relation::{DeltaBatch, DeltaRelation};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Request {
    Ingest(Vec<DeltaRelation>),
    /// Wake the worker: the overflow inbox has entries to drain.
    Kick,
    Flush,
    Vacuum,
    /// Cut a snapshot now (durable services; a plain flush otherwise).
    Snapshot,
    /// Test-only: make the worker panic to exercise death handling.
    #[cfg(test)]
    Poison,
}

fn dur(e: DurabilityError) -> MaintenanceError {
    MaintenanceError::Durability(e.to_string())
}

/// Lock that shrugs off poisoning: the structures behind these mutexes
/// (overflow inbox, drain signal) stay consistent even if a panicking
/// thread held the guard, and the model test kills workers on purpose.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// When the service runs a vacuum between rounds (tombstone engines).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VacuumPolicy {
    /// Vacuum after any round that leaves the engine's dead-row fraction
    /// ([`TombstoneStats::fraction`]) above this threshold. `None`
    /// disables automatic vacuums (explicit
    /// [`MaintenanceService::vacuum`] commands still work).
    pub max_tombstone_fraction: Option<f64>,
}

impl VacuumPolicy {
    /// Vacuum whenever the dead fraction exceeds `fraction` (0.25 = a
    /// quarter of the physical rows are garbage).
    pub fn at_fraction(fraction: f64) -> VacuumPolicy {
        VacuumPolicy {
            max_tombstone_fraction: Some(fraction),
        }
    }

    fn should(&self, stats: TombstoneStats) -> bool {
        self.max_tombstone_fraction
            .is_some_and(|t| stats.fraction() > t)
    }
}

/// What [`MaintenanceService::ingest`] does when the queue is full (see
/// the module docs on backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Wait for the worker to drain below capacity; shed with
    /// [`MaintenanceError::Overloaded`] once the deadline elapses.
    Block {
        /// Longest one ingest call may wait for queue space.
        deadline: Duration,
    },
    /// Shed immediately with [`MaintenanceError::Overloaded`].
    Reject,
    /// Never shed, never block: fold into the worker's pending per-table
    /// delta via the shared overflow inbox.
    CoalesceInPlace,
}

/// Admission control for [`MaintenanceService::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestPolicy {
    /// Queue high-water mark in batches: an ingest is admitted while the
    /// queue holds fewer than this many undraned batches (a multi-batch
    /// call may overshoot by its own size). `None` = unbounded.
    pub capacity: Option<usize>,
    /// What to do with an ingest that arrives at capacity.
    pub on_full: OverflowPolicy,
    /// Graceful degradation: a round starting with more queued batches
    /// than this runs degraded — policy vacuums skipped, policy snapshot
    /// cuts deferred — so the worker drains instead of housekeeping.
    pub degrade_above: Option<usize>,
}

impl Default for IngestPolicy {
    fn default() -> IngestPolicy {
        IngestPolicy {
            capacity: None,
            on_full: OverflowPolicy::Reject,
            degrade_above: None,
        }
    }
}

impl IngestPolicy {
    /// The default: no admission control, no degradation.
    pub fn unbounded() -> IngestPolicy {
        IngestPolicy::default()
    }

    /// Bounded queue with an explicit overflow behavior.
    pub fn bounded(capacity: usize, on_full: OverflowPolicy) -> IngestPolicy {
        IngestPolicy {
            capacity: Some(capacity),
            on_full,
            degrade_above: None,
        }
    }

    /// Shed ingests that arrive with `capacity` batches already queued.
    pub fn reject(capacity: usize) -> IngestPolicy {
        IngestPolicy::bounded(capacity, OverflowPolicy::Reject)
    }

    /// Block full ingests up to `deadline`, then shed.
    pub fn block(capacity: usize, deadline: Duration) -> IngestPolicy {
        IngestPolicy::bounded(capacity, OverflowPolicy::Block { deadline })
    }

    /// Route every ingest through the overflow inbox: the worker folds
    /// backlog into per-table pending deltas instead of queuing batches.
    pub fn coalesce_in_place() -> IngestPolicy {
        IngestPolicy::bounded(0, OverflowPolicy::CoalesceInPlace)
    }

    /// Enable degraded rounds above a queued-batch high-water mark.
    pub fn degrade_above(mut self, depth: usize) -> IngestPolicy {
        self.degrade_above = Some(depth);
        self
    }
}

/// Supervised self-healing for durable services (see the module docs on
/// worker death and supervision). Disabled by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restart a dead worker from durable state on the next request
    /// instead of returning [`MaintenanceError::WorkerDied`].
    pub auto_respawn: bool,
    /// Base backoff slept before a respawn, scaled linearly by the
    /// number of respawns since the last clean round (capped at 1s).
    pub respawn_backoff: Duration,
    /// Worker deaths inside [`breaker_window`](Self::breaker_window)
    /// that open the circuit breaker.
    pub breaker_deaths: u32,
    /// Sliding window over which deaths are counted.
    pub breaker_window: Duration,
    /// How long an open breaker refuses respawns before allowing one
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            auto_respawn: false,
            respawn_backoff: Duration::from_millis(10),
            breaker_deaths: 3,
            breaker_window: Duration::from_secs(30),
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

impl SupervisorPolicy {
    /// No automatic respawns ([`MaintenanceService::respawn`] still
    /// works).
    pub fn disabled() -> SupervisorPolicy {
        SupervisorPolicy::default()
    }

    /// Automatic respawn with the default backoff and breaker (3 deaths
    /// in 30s open it; 250ms cooldown).
    pub fn auto() -> SupervisorPolicy {
        SupervisorPolicy {
            auto_respawn: true,
            ..SupervisorPolicy::default()
        }
    }

    /// Replace the respawn backoff base.
    pub fn respawn_backoff(mut self, backoff: Duration) -> SupervisorPolicy {
        self.respawn_backoff = backoff;
        self
    }

    /// Replace the circuit-breaker parameters.
    pub fn breaker(
        mut self,
        deaths: u32,
        window: Duration,
        cooldown: Duration,
    ) -> SupervisorPolicy {
        self.breaker_deaths = deaths.max(1);
        self.breaker_window = window;
        self.breaker_cooldown = cooldown;
        self
    }
}

/// Everything policy-shaped about one service: vacuum cadence, admission
/// control, supervision.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServicePolicies {
    /// Between-round vacuums (tombstone engines).
    pub vacuum: VacuumPolicy,
    /// Queue admission control and degradation.
    pub ingest: IngestPolicy,
    /// Automatic respawn and circuit breaker.
    pub supervisor: SupervisorPolicy,
}

impl ServicePolicies {
    /// Replace the vacuum policy.
    pub fn vacuum(mut self, policy: VacuumPolicy) -> ServicePolicies {
        self.vacuum = policy;
        self
    }

    /// Replace the ingest policy.
    pub fn ingest(mut self, policy: IngestPolicy) -> ServicePolicies {
        self.ingest = policy;
        self
    }

    /// Replace the supervisor policy.
    pub fn supervisor(mut self, policy: SupervisorPolicy) -> ServicePolicies {
        self.supervisor = policy;
        self
    }
}

/// Where and how a durable service persists its state
/// ([`MaintenanceService::spawn_durable`] /
/// [`MaintenanceService::recover`]).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding the commitlog segments and snapshots.
    pub dir: PathBuf,
    /// When the worker cuts a snapshot (an explicit
    /// [`MaintenanceService::snapshot`] command always does).
    pub snapshot_policy: SnapshotPolicy,
    /// Bounded retry for transient storage faults on commitlog appends
    /// and snapshot publications.
    pub retry: RetryPolicy,
    /// Injected-crash sites for kill-and-recover testing
    /// ([`FailPoints::none`] in production).
    pub failpoints: FailPoints,
}

impl DurabilityOptions {
    /// Durability under `dir` with a snapshot every 32 rounds, the
    /// default transient-fault retry budget, and no fail points.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: dir.into(),
            snapshot_policy: SnapshotPolicy::every_rounds(32),
            retry: RetryPolicy::default(),
            failpoints: FailPoints::none(),
        }
    }

    /// Replace the snapshot policy.
    pub fn snapshot_policy(mut self, policy: SnapshotPolicy) -> DurabilityOptions {
        self.snapshot_policy = policy;
        self
    }

    /// Replace the transient-fault retry policy
    /// ([`RetryPolicy::none`] disables retries).
    pub fn retry(mut self, retry: RetryPolicy) -> DurabilityOptions {
        self.retry = retry;
        self
    }

    /// Arm fail points (tests; see [`FailPoints::from_env`]).
    pub fn failpoints(mut self, failpoints: FailPoints) -> DurabilityOptions {
        self.failpoints = failpoints;
        self
    }
}

/// What [`MaintenanceService::recover`] found and did.
#[derive(Debug)]
pub struct RecoveryInfo {
    /// Rounds durably incorporated in the recovered engine: the snapshot
    /// epoch plus every commitlog round replayed on top. A producer
    /// re-feeding its stream resumes after this many rounds.
    pub durable_rounds: u64,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Commitlog rounds replayed through the normal round path.
    pub replayed_rounds: u64,
    /// The log ended with an intact clean-shutdown marker (no tail
    /// suspicion; any warning below is real corruption, not a crash).
    pub clean_shutdown: bool,
    /// What salvage had to tolerate: snapshots skipped for checksum
    /// failures, a torn or corrupt commitlog tail.
    pub warnings: Vec<String>,
}

/// Durability state owned by the worker thread.
struct DurableWorker {
    wal: Wal,
    store: SnapshotStore,
    policy: SnapshotPolicy,
    retry: RetryPolicy,
    failpoints: FailPoints,
    /// Index of the last round appended to the commitlog (1-based;
    /// equals the snapshot epoch right after a cut).
    round_index: u64,
    rounds_since_snapshot: u64,
    bytes_since_snapshot: u64,
}

/// Everything the handle needs to rebuild the service from disk after
/// the worker dies ([`MaintenanceService::respawn`]).
struct DurableContext {
    options: DurabilityOptions,
    spec: ViewSpec,
    respawns: infine_obs::Counter,
}

/// Point-in-time service health, from [`MaintenanceService::stats`] —
/// lock-free reads of counters the handle and the worker share, safe to
/// poll from any thread at any rate.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Delta batches ingested but not yet drained into a round by the
    /// worker (the backlog admission control measures).
    pub queue_depth: usize,
    /// Delta batches drained from the queue whose round has not yet
    /// completed (work in the engine right now).
    pub in_flight: usize,
    /// Maintenance rounds completed since spawn (drained-on-shutdown
    /// rounds included).
    pub rounds_completed: u64,
    /// Wall time of the most recent round (drain + coalesce + apply +
    /// any folded vacuum). Zero until the first round completes.
    pub last_round: Duration,
    /// False once the worker thread has exited — cleanly after
    /// [`MaintenanceService::shutdown`]/drop, or by panicking.
    pub worker_alive: bool,
}

/// Counters and rendezvous state shared between the handle and the
/// worker thread.
#[derive(Default)]
struct SharedStats {
    queue_depth: AtomicI64,
    in_flight: AtomicI64,
    rounds: AtomicU64,
    last_round_nanos: AtomicU64,
    /// Overflow inbox for [`OverflowPolicy::CoalesceInPlace`]: ingest
    /// calls push here (in call order, serialized by the lock) instead
    /// of the request channel; the worker drains it every cycle.
    inbox: Mutex<Vec<Vec<DeltaRelation>>>,
    /// True while a `Kick` covering the current inbox contents is in
    /// flight (cleared by the worker under the inbox lock at drain).
    kicked: AtomicBool,
    /// Rendezvous for [`OverflowPolicy::Block`]: the worker signals
    /// `drained` after moving queued batches into a round.
    drain: Mutex<()>,
    drained: Condvar,
}

/// Preregistered service-loop metric handles. Registered at spawn time
/// on the *caller's* ambient registry (worker threads have no ambient
/// scope of their own), then moved onto the worker.
struct ServiceObs {
    queue_depth: infine_obs::Gauge,
    in_flight: infine_obs::Gauge,
    rounds: infine_obs::Counter,
    batches: infine_obs::Counter,
    coalesced: infine_obs::Counter,
    rejected: infine_obs::Counter,
    shed: infine_obs::Counter,
    degraded_rounds: infine_obs::Counter,
    breaker_state: infine_obs::Gauge,
    retry_attempts: infine_obs::Counter,
    round_seconds: infine_obs::Histogram,
    wal_appends: infine_obs::Counter,
    wal_bytes: infine_obs::Counter,
    snapshot_seconds: infine_obs::Histogram,
    respawns: infine_obs::Counter,
    publish_seconds: infine_obs::Histogram,
    prune_failures: infine_obs::Counter,
    reads: infine_obs::Counter,
    read_lag: infine_obs::Gauge,
}

impl ServiceObs {
    fn resolve() -> ServiceObs {
        // Pin the recovery-path series alongside the rest so the
        // exposition catalog is identical before and after a recovery.
        let _ = ServiceObs::recovery_handles();
        infine_obs::with_current(|r| {
            ServiceObs {
            queue_depth: r.gauge(
                "infine_service_queue_depth",
                "Delta batches ingested but not yet drained into a round.",
                &[],
            ),
            in_flight: r.gauge(
                "infine_service_in_flight",
                "Delta batches drained from the queue whose round has not yet completed.",
                &[],
            ),
            rounds: r.counter(
                "infine_service_rounds_total",
                "Maintenance rounds the service loop has completed.",
                &[],
            ),
            batches: r.counter(
                "infine_service_batches_total",
                "Delta batches accepted at ingestion (validation passed).",
                &[],
            ),
            coalesced: r.counter(
                "infine_service_coalesced_total",
                "Accepted batches folded into an already-pending batch for the same table (rounds saved by coalescing).",
                &[],
            ),
            rejected: r.counter(
                "infine_service_rejected_total",
                "Delta batches rejected at ingestion (malformed).",
                &[],
            ),
            shed: r.counter(
                "infine_service_shed_total",
                "Ingest batches shed by admission control (rejected at capacity, or blocked past the deadline).",
                &[],
            ),
            degraded_rounds: r.counter(
                "infine_service_degraded_rounds_total",
                "Rounds run degraded (policy vacuums skipped, policy snapshot cuts deferred) because the queue backlog exceeded the high-water mark.",
                &[],
            ),
            breaker_state: r.gauge(
                "infine_service_breaker_state",
                "Supervisor circuit breaker state: 0 closed, 1 open, 2 half-open.",
                &[],
            ),
            retry_attempts: r.counter(
                "infine_retry_attempts_total",
                "Transient durability faults absorbed by bounded retry (one per backoff sleep).",
                &[],
            ),
            round_seconds: r.duration_histogram(
                "infine_service_round_seconds",
                "Wall time of one service round: queue drain, coalescing, the engine round, and any folded vacuum.",
                &[],
            ),
            wal_appends: r.counter(
                "infine_wal_appends_total",
                "Round records appended (and flushed) to the write-ahead commitlog.",
                &[],
            ),
            wal_bytes: r.counter(
                "infine_wal_bytes_total",
                "Bytes appended to the write-ahead commitlog.",
                &[],
            ),
            snapshot_seconds: r.duration_histogram(
                "infine_snapshot_seconds",
                "Wall time of one snapshot cut: canonicalizing vacuum, engine freeze, atomic publish, and log rotation.",
                &[],
            ),
            respawns: r.counter(
                "infine_service_respawns_total",
                "Workers restarted from durable state after a death (MaintenanceService::respawn).",
                &[],
            ),
            publish_seconds: r.duration_histogram(
                "infine_publish_seconds",
                "Wall time to build and publish one read-path cover snapshot (MVCC-lite swap at the end of a round).",
                &[],
            ),
            prune_failures: r.counter(
                "infine_snapshot_prune_failures_total",
                "Old snapshots whose best-effort prune failed after a durable publish (retained and retried at the next cut).",
                &[],
            ),
            reads: r.counter(
                "infine_reads_total",
                "Published-cover snapshot reads served through CoverReader::current.",
                &[],
            ),
            read_lag: r.gauge(
                "infine_read_round_lag",
                "Rounds the most recent read lagged the worker's write frontier (head round minus published round).",
                &[],
            ),
        }
        })
    }

    /// The recovery-path series, registered alongside the rest of the
    /// service catalog so the exposition is identical whether or not a
    /// recovery has happened yet.
    fn recovery_handles() -> (infine_obs::Histogram, infine_obs::Counter) {
        infine_obs::with_current(|r| {
            (
                r.duration_histogram(
                    "infine_recovery_seconds",
                    "Wall time of one recovery: snapshot load, engine restore, commitlog replay, fresh snapshot.",
                    &[],
                ),
                r.counter(
                    "infine_wal_replayed_rounds_total",
                    "Commitlog rounds replayed through the normal round path during recovery.",
                    &[],
                ),
            )
        })
    }
}

/// The channel half of a service: everything that is replaced wholesale
/// when a dead worker is respawned from durable state.
struct Conn {
    requests: Sender<Request>,
    reports: Receiver<Result<MaintenanceReport, MaintenanceError>>,
    worker: Option<JoinHandle<ShardedEngine>>,
    /// Worker death is reported through `recv_report` exactly once.
    death_reported: bool,
    /// This incarnation's death has been counted by the supervisor
    /// (exactly once per incarnation, however many requests find it
    /// dead).
    death_counted: bool,
    /// Lock-free health counters shared with the worker.
    stats: Arc<SharedStats>,
}

impl Conn {
    fn worker_dead(&self) -> bool {
        self.death_reported || self.worker.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

/// Circuit-breaker state machine for supervised respawns.
enum Breaker {
    Closed,
    Open { since: Instant },
    HalfOpen,
}

/// Supervisor bookkeeping on the handle side.
struct SupervisorState {
    /// Death timestamps inside the sliding breaker window.
    deaths: Vec<Instant>,
    /// Respawns since the last clean round (scales the backoff).
    consecutive: u32,
    breaker: Breaker,
}

impl Default for SupervisorState {
    fn default() -> SupervisorState {
        SupervisorState {
            deaths: Vec::new(),
            consecutive: 0,
            breaker: Breaker::Closed,
        }
    }
}

/// Which conduit an admitted ingest takes to the worker.
enum Admission {
    /// The request channel (counted against capacity).
    Queue,
    /// The shared overflow inbox (`CoalesceInPlace`).
    Inbox,
}

/// Handle to a background sharded-maintenance loop.
///
/// ```
/// use infine_core::InFine;
/// use infine_incremental::{MaintenanceService, ShardedEngine};
/// use infine_algebra::ViewSpec;
/// use infine_relation::{relation_from_rows, Database, DeltaBatch, DeltaRelation, Value};
///
/// let mut db = Database::new();
/// db.insert(relation_from_rows(
///     "t",
///     &["k", "v"],
///     &[&[Value::Int(1), Value::Int(10)], &[Value::Int(2), Value::Int(20)]],
/// ));
/// let engine = ShardedEngine::new(InFine::default(), db, ViewSpec::base("t"), 2).unwrap();
/// let service = MaintenanceService::spawn(engine);
/// let mut batch = DeltaBatch::new();
/// batch.insert(vec![Value::Int(3), Value::Int(10)]);
/// service.ingest(vec![DeltaRelation::new("t", batch)]).unwrap();
/// let report = service.recv_report().unwrap().unwrap();
/// assert!(report.exact_provenance);
/// let engine = service.shutdown().unwrap();
/// assert_eq!(engine.database().expect("t").nrows(), 3);
/// ```
pub struct MaintenanceService {
    conn: RefCell<Conn>,
    policies: ServicePolicies,
    sup: RefCell<SupervisorState>,
    /// RecoveryInfo from the most recent *automatic* respawn, for the
    /// producer to pick up ([`MaintenanceService::take_recovery_info`]).
    auto_recovery: RefCell<Option<RecoveryInfo>>,
    /// Queue-depth gauge (the handle raises it at ingestion, the worker
    /// lowers it when it drains).
    queue_gauge: infine_obs::Gauge,
    /// Shed-batch counter (admission control lives on the handle).
    shed: infine_obs::Counter,
    /// Breaker-state gauge (0 closed / 1 open / 2 half-open).
    breaker_gauge: infine_obs::Gauge,
    /// Set when durability is on: everything respawn needs to rebuild
    /// the worker from disk.
    durable: Option<DurableContext>,
    /// The read-path publication cell. Lives on the handle (not in
    /// [`Conn`]) so it survives respawns: readers registered before a
    /// crash keep observing the recovered worker's publishes.
    covers: Arc<CoverCell>,
}

impl MaintenanceService {
    /// Move `engine` onto a worker thread and start the loop (no
    /// automatic vacuums; see [`MaintenanceService::spawn_with_policy`]).
    pub fn spawn(engine: ShardedEngine) -> MaintenanceService {
        MaintenanceService::spawn_with_policies(engine, ServicePolicies::default())
    }

    /// [`MaintenanceService::spawn`] with a vacuum policy: after each
    /// round the worker checks the engine's tombstone fraction and runs
    /// a per-shard parallel vacuum when the policy says so — between
    /// rounds, without stopping the ingest loop.
    pub fn spawn_with_policy(engine: ShardedEngine, policy: VacuumPolicy) -> MaintenanceService {
        MaintenanceService::spawn_with_policies(engine, ServicePolicies::default().vacuum(policy))
    }

    /// [`MaintenanceService::spawn`] with the full policy set: vacuum
    /// cadence, ingest admission control, supervision.
    pub fn spawn_with_policies(
        engine: ShardedEngine,
        policies: ServicePolicies,
    ) -> MaintenanceService {
        MaintenanceService::spawn_inner(engine, policies, None, None, None)
    }

    /// [`MaintenanceService::spawn_with_policy`] with crash-safe
    /// durability: every ingested round is appended (and flushed) to a
    /// write-ahead commitlog under `options.dir` *before* the engine
    /// runs it, and the engine state is snapshotted in vacuum-canonical
    /// form on the snapshot policy (or an explicit
    /// [`MaintenanceService::snapshot`] command). A baseline snapshot is
    /// cut here, so [`MaintenanceService::recover`] always has a
    /// starting point. The engine is vacuumed as part of the cut.
    pub fn spawn_durable(
        engine: ShardedEngine,
        policy: VacuumPolicy,
        options: DurabilityOptions,
    ) -> Result<MaintenanceService, MaintenanceError> {
        MaintenanceService::spawn_durable_with_policies(
            engine,
            options,
            ServicePolicies::default().vacuum(policy),
        )
    }

    /// [`MaintenanceService::spawn_durable`] with the full policy set.
    pub fn spawn_durable_with_policies(
        mut engine: ShardedEngine,
        options: DurabilityOptions,
        policies: ServicePolicies,
    ) -> Result<MaintenanceService, MaintenanceError> {
        let obs = ServiceObs::resolve();
        let context = DurableContext {
            options: options.clone(),
            spec: engine.spec.clone(),
            respawns: obs.respawns.clone(),
        };
        let store = SnapshotStore::new(&options.dir, options.failpoints.clone());
        engine.vacuum();
        let payload = persist::freeze_engine(&mut engine)?;
        let outcome = options
            .retry
            .run(
                || store.publish(0, &payload),
                |_, _| obs.retry_attempts.inc(),
            )
            .map_err(dur)?;
        obs.prune_failures.add(outcome.prune_warnings.len() as u64);
        let wal = Wal::create(&options.dir, 0, options.failpoints.clone()).map_err(dur)?;
        let durable = DurableWorker {
            wal,
            store,
            policy: options.snapshot_policy,
            retry: options.retry,
            failpoints: options.failpoints,
            round_index: 0,
            rounds_since_snapshot: 0,
            bytes_since_snapshot: 0,
        };
        Ok(MaintenanceService::spawn_inner(
            engine,
            policies,
            Some(durable),
            Some(context),
            None,
        ))
    }

    fn spawn_inner(
        engine: ShardedEngine,
        policies: ServicePolicies,
        durable: Option<DurableWorker>,
        context: Option<DurableContext>,
        cell: Option<Arc<CoverCell>>,
    ) -> MaintenanceService {
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (rep_tx, rep_rx) = std::sync::mpsc::channel();
        let stats = Arc::new(SharedStats::default());
        let obs = ServiceObs::resolve();
        let queue_gauge = obs.queue_depth.clone();
        let shed = obs.shed.clone();
        let breaker_gauge = obs.breaker_state.clone();
        // Publish the bootstrap (or recovered) state before the worker
        // starts: a reader created right after spawn always sees a
        // snapshot — at round 0, or at the durable round readers resume
        // from after a recovery. A pre-existing cell (respawn) keeps its
        // readers; durable_rounds is ≥ any round they observed (every
        // published round was logged first), so rounds stay monotone
        // and every report already received stays readable.
        let initial = durable.as_ref().map_or(0, |d| d.round_index);
        let covers = match cell {
            Some(cell) => {
                cell.publish(engine.published_covers(initial));
                cell
            }
            None => Arc::new(CoverCell::new(
                engine.published_covers(initial),
                obs.reads.clone(),
                obs.read_lag.clone(),
            )),
        };
        let worker_stats = Arc::clone(&stats);
        let worker_covers = Arc::clone(&covers);
        let worker = std::thread::Builder::new()
            .name("infine-maintenance".into())
            .spawn(move || {
                run(
                    engine,
                    policies,
                    durable,
                    req_rx,
                    rep_tx,
                    worker_stats,
                    obs,
                    worker_covers,
                )
            })
            .expect("spawn maintenance worker");
        MaintenanceService {
            conn: RefCell::new(Conn {
                requests: req_tx,
                reports: rep_rx,
                worker: Some(worker),
                death_reported: false,
                death_counted: false,
                stats,
            }),
            policies,
            sup: RefCell::new(SupervisorState::default()),
            auto_recovery: RefCell::new(None),
            queue_gauge,
            shed,
            breaker_gauge,
            durable: context,
            covers,
        }
    }

    /// A read handle onto the published cover state: each
    /// [`CoverReader::current`] call returns the latest round's
    /// snapshot without queueing behind ingest. The handle is
    /// `Send + Sync`; share or clone it to fan readers out across
    /// threads. Handles keep working across [`respawn`] and automatic
    /// supervision, resuming at the recovered durable round.
    ///
    /// [`respawn`]: MaintenanceService::respawn
    pub fn reader(&self) -> CoverReader {
        CoverReader::new(Arc::clone(&self.covers))
    }

    /// Rebuild a service from the durable state under `options.dir`:
    /// load the newest valid snapshot (falling back to an older one on
    /// checksum mismatch), replay the commitlog suffix through the
    /// normal round path — tolerating a torn or corrupt tail by
    /// truncating at the damage — cut a fresh snapshot at the recovered
    /// head, and spawn the worker. `infine` and `spec` must match the
    /// original spawn (the snapshot's spec fingerprint is checked).
    ///
    /// The returned [`RecoveryInfo`] says how many rounds are durably
    /// incorporated; a producer re-feeds its stream from there.
    pub fn recover(
        options: DurabilityOptions,
        infine: InFine,
        spec: ViewSpec,
        vacuum_policy: VacuumPolicy,
    ) -> Result<(MaintenanceService, RecoveryInfo), MaintenanceError> {
        MaintenanceService::recover_with_policies(
            options,
            infine,
            spec,
            ServicePolicies::default().vacuum(vacuum_policy),
        )
    }

    /// [`MaintenanceService::recover`] with the full policy set.
    pub fn recover_with_policies(
        options: DurabilityOptions,
        infine: InFine,
        spec: ViewSpec,
        policies: ServicePolicies,
    ) -> Result<(MaintenanceService, RecoveryInfo), MaintenanceError> {
        MaintenanceService::recover_inner(options, infine, spec, policies, None)
    }

    /// [`recover_with_policies`] plus an existing publication cell to
    /// resume (respawn path): readers registered on the old incarnation
    /// see the recovered state published at `durable_rounds`.
    ///
    /// [`recover_with_policies`]: MaintenanceService::recover_with_policies
    fn recover_inner(
        options: DurabilityOptions,
        infine: InFine,
        spec: ViewSpec,
        policies: ServicePolicies,
        cell: Option<Arc<CoverCell>>,
    ) -> Result<(MaintenanceService, RecoveryInfo), MaintenanceError> {
        let t0 = Instant::now();
        let (recovery_seconds, replayed_counter) = ServiceObs::recovery_handles();
        let obs = ServiceObs::resolve();
        let vacuum_policy = policies.vacuum;
        let context = DurableContext {
            options: options.clone(),
            spec: spec.clone(),
            respawns: obs.respawns.clone(),
        };
        let store = SnapshotStore::new(&options.dir, options.failpoints.clone());
        let loaded = store.load_newest().map_err(dur)?.ok_or_else(|| {
            MaintenanceError::Durability(format!("no valid snapshot under {:?}", options.dir))
        })?;
        let mut warnings: Vec<String> = loaded
            .skipped
            .iter()
            .map(|(epoch, why)| format!("snapshot {epoch} skipped: {why}"))
            .collect();
        let mut engine = persist::restore_engine(&loaded.payload, infine, spec)?;
        let scan = wal::scan(&options.dir, loaded.epoch).map_err(dur)?;
        warnings.extend(scan.warning.clone());

        // Replay the salvaged suffix through the normal round path,
        // re-deciding every vacuum exactly as the live run decided it:
        // explicit commands from the record flags, policy vacuums from
        // the (identical) engine state, snapshot-cut vacuums from the
        // (identically recomputed) due counters — snapshots themselves
        // are not re-published; one fresh cut below supersedes them.
        // Degraded rounds skipped their policy housekeeping, and the
        // flag in the record makes the replay skip it identically.
        let mut round_index = loaded.epoch;
        let mut rounds_since = 0u64;
        let mut bytes_since = 0u64;
        for record in &scan.rounds {
            let (deltas, flags) = persist::decode_round(&record.body)?;
            let degraded = flags & persist::ROUND_DEGRADED != 0;
            engine.apply(&deltas).map_err(|e| {
                MaintenanceError::Durability(format!(
                    "replay of round {} failed: {e}",
                    record.round_index
                ))
            })?;
            if flags & persist::ROUND_VACUUM != 0
                || (!degraded && vacuum_policy.should(engine.tombstone_stats()))
            {
                engine.vacuum();
            }
            round_index = record.round_index;
            rounds_since += 1;
            bytes_since += Wal::round_record_len(record.body.len());
            if flags & persist::ROUND_SNAPSHOT != 0
                || (!degraded && options.snapshot_policy.due(rounds_since, bytes_since))
            {
                engine.vacuum();
                rounds_since = 0;
                bytes_since = 0;
            }
            replayed_counter.inc();
        }

        // Cut a fresh snapshot at the recovered head and rotate the log:
        // recovery is idempotent and the next replay suffix starts empty.
        // Exception: when the newest on-disk snapshot loaded cleanly and
        // the log held nothing past it, the engine *is* that snapshot —
        // re-freezing it would only burn serialization and fsync time
        // (this is the common restart-after-clean-shutdown case), so
        // only the log segment is reset.
        let retain_from = if scan.rounds.is_empty() && loaded.skipped.is_empty() {
            store
                .epochs()
                .map_err(dur)?
                .first()
                .copied()
                .unwrap_or(round_index)
        } else {
            engine.vacuum();
            let payload = persist::freeze_engine(&mut engine)?;
            let outcome = options
                .retry
                .run(
                    || store.publish(round_index, &payload),
                    |_, _| obs.retry_attempts.inc(),
                )
                .map_err(dur)?;
            obs.prune_failures.add(outcome.prune_warnings.len() as u64);
            warnings.extend(
                outcome
                    .prune_warnings
                    .iter()
                    .map(|w| format!("snapshot prune: {w}")),
            );
            outcome.retained.first().copied().unwrap_or(round_index)
        };
        let wal =
            Wal::create(&options.dir, round_index, options.failpoints.clone()).map_err(dur)?;
        wal::prune_segments(&options.dir, retain_from).map_err(dur)?;

        let info = RecoveryInfo {
            durable_rounds: round_index,
            snapshot_epoch: loaded.epoch,
            replayed_rounds: scan.rounds.len() as u64,
            clean_shutdown: scan.clean_shutdown,
            warnings,
        };
        recovery_seconds.observe_duration(t0.elapsed());
        let durable = DurableWorker {
            wal,
            store,
            policy: options.snapshot_policy,
            retry: options.retry,
            failpoints: options.failpoints,
            round_index,
            rounds_since_snapshot: 0,
            bytes_since_snapshot: 0,
        };
        let service =
            MaintenanceService::spawn_inner(engine, policies, Some(durable), Some(context), cell);
        Ok((service, info))
    }

    /// Restart a dead worker from the durable state on disk (snapshot +
    /// commitlog), in place: after this returns `Ok`, the handle serves
    /// requests again. Only valid for services spawned with
    /// [`MaintenanceService::spawn_durable`] (or recovered) whose worker
    /// has died; retries the recovery a bounded number of times before
    /// giving up with the last error. Health counters restart from zero
    /// with the new worker. Bypasses the supervisor's circuit breaker —
    /// an explicit respawn is the operator overriding it.
    pub fn respawn(&mut self) -> Result<RecoveryInfo, MaintenanceError> {
        self.respawn_in_place()
    }

    /// The shared respawn machinery behind [`respawn`] (manual) and the
    /// supervisor (automatic): join the dead worker, recover from disk
    /// with this handle's policies, and splice the fresh connection into
    /// the handle.
    ///
    /// [`respawn`]: MaintenanceService::respawn
    fn respawn_in_place(&self) -> Result<RecoveryInfo, MaintenanceError> {
        const ATTEMPTS: usize = 3;
        let Some(context) = &self.durable else {
            return Err(MaintenanceError::Durability(
                "respawn requires a durable service".into(),
            ));
        };
        if !self.conn.borrow().worker_dead() {
            return Err(MaintenanceError::Durability(
                "respawn requires a dead worker (the current one is alive)".into(),
            ));
        }
        // Wait out the unwind before rebuilding from the directory the
        // dying worker still holds open (a reported death guarantees the
        // join terminates: the report channel only disconnects on exit).
        if let Some(worker) = self.conn.borrow_mut().worker.take() {
            let _ = worker.join();
        }
        let options = context.options.clone();
        let spec = context.spec.clone();
        let respawns = context.respawns.clone();
        let mut last = None;
        for _ in 0..ATTEMPTS {
            match MaintenanceService::recover_inner(
                options.clone(),
                InFine::default(),
                spec.clone(),
                self.policies,
                Some(Arc::clone(&self.covers)),
            ) {
                Ok((service, info)) => {
                    // Splice the fresh connection into this handle; the
                    // temporary handle drops holding the joined dead one
                    // (worker already None, so its Drop is a no-op).
                    std::mem::swap(
                        &mut *self.conn.borrow_mut(),
                        &mut *service.conn.borrow_mut(),
                    );
                    respawns.inc();
                    return Ok(info);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// The supervisor: called by every request path that finds the
    /// worker dead while [`SupervisorPolicy::auto_respawn`] is on.
    /// Counts the death (once per incarnation), drives the circuit
    /// breaker, sleeps the escalating backoff, and respawns.
    fn supervised_respawn(&self) -> Result<(), MaintenanceError> {
        let policy = self.policies.supervisor;
        let newly_dead = !std::mem::replace(&mut self.conn.borrow_mut().death_counted, true);
        {
            let mut sup = self.sup.borrow_mut();
            let now = Instant::now();
            if newly_dead {
                sup.deaths.push(now);
                let window = policy.breaker_window;
                sup.deaths.retain(|t| now.duration_since(*t) <= window);
                match sup.breaker {
                    // The half-open probe died: straight back to open.
                    Breaker::HalfOpen => {
                        sup.breaker = Breaker::Open { since: now };
                        self.breaker_gauge.set(1);
                        return Err(MaintenanceError::BreakerOpen);
                    }
                    Breaker::Closed if sup.deaths.len() as u32 >= policy.breaker_deaths => {
                        sup.breaker = Breaker::Open { since: now };
                        self.breaker_gauge.set(1);
                        return Err(MaintenanceError::BreakerOpen);
                    }
                    _ => {}
                }
            }
            if let Breaker::Open { since } = sup.breaker {
                if since.elapsed() < policy.breaker_cooldown {
                    return Err(MaintenanceError::BreakerOpen);
                }
                // Cooldown elapsed: let one probe respawn through.
            }
            sup.consecutive = sup.consecutive.saturating_add(1);
        }
        let consecutive = self.sup.borrow().consecutive;
        let backoff = policy
            .respawn_backoff
            .saturating_mul(consecutive.min(16))
            .min(Duration::from_secs(1));
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        let info = self.respawn_in_place()?;
        {
            let mut sup = self.sup.borrow_mut();
            if matches!(sup.breaker, Breaker::Open { .. }) {
                sup.breaker = Breaker::HalfOpen;
                self.breaker_gauge.set(2);
            }
        }
        *self.auto_recovery.borrow_mut() = Some(info);
        Ok(())
    }

    /// RecoveryInfo from the most recent *automatic* respawn, consumed:
    /// after a request unexpectedly succeeds against a worker the
    /// producer saw die, this says how many rounds are durable so the
    /// producer can resume its feed from there.
    pub fn take_recovery_info(&self) -> Option<RecoveryInfo> {
        self.auto_recovery.borrow_mut().take()
    }

    /// Request-path gate: `Ok` with a live worker (respawning it first
    /// when supervision allows), `Err(WorkerDied)` / `Err(BreakerOpen)`
    /// otherwise.
    fn ensure_worker(&self) -> Result<(), MaintenanceError> {
        if !self.conn.borrow().worker_dead() {
            return Ok(());
        }
        if !self.policies.supervisor.auto_respawn || self.durable.is_none() {
            return Err(MaintenanceError::WorkerDied);
        }
        self.supervised_respawn()
    }

    /// A round report arrived intact: the current incarnation is
    /// healthy. Resets the backoff escalation and closes a half-open
    /// breaker (the report receiver is replaced per respawn, so an `Ok`
    /// here is guaranteed to come from the incarnation under probe).
    fn note_clean_round(&self) {
        let mut sup = self.sup.borrow_mut();
        sup.consecutive = 0;
        if matches!(sup.breaker, Breaker::HalfOpen) {
            sup.breaker = Breaker::Closed;
            sup.deaths.clear();
            self.breaker_gauge.set(0);
        }
    }

    /// Ask the worker to cut a snapshot now (durable services; on a
    /// non-durable service this degrades to a flush). A round report is
    /// emitted. `Err(WorkerDied)` when the worker is gone.
    pub fn snapshot(&self) -> Result<(), MaintenanceError> {
        self.ensure_worker()?;
        self.send(Request::Snapshot)
    }

    /// Queue a round of delta batches. Non-blocking under the default
    /// unbounded [`IngestPolicy`]; with a capacity set, admission
    /// control applies first (see the module docs): the call may block
    /// (`Block`), shed with [`MaintenanceError::Overloaded`]
    /// (`Reject`, or `Block` past its deadline), or divert to the
    /// overflow inbox (`CoalesceInPlace`). `Err(WorkerDied)` when the
    /// worker is gone (nothing was queued).
    pub fn ingest(&self, deltas: Vec<DeltaRelation>) -> Result<(), MaintenanceError> {
        self.ensure_worker()?;
        let queued = deltas.len() as i64;
        match self.admit(queued)? {
            Admission::Queue => {
                let conn = self.conn.borrow();
                // Raise the depth BEFORE the send so a worker waking on
                // the request always observes a backlog ≥ the batches it
                // is about to drain (degraded-round detection reads this
                // before decrementing).
                conn.stats.queue_depth.fetch_add(queued, Ordering::Relaxed);
                self.queue_gauge.add(queued);
                if conn.requests.send(Request::Ingest(deltas)).is_err() {
                    conn.stats.queue_depth.fetch_sub(queued, Ordering::Relaxed);
                    self.queue_gauge.sub(queued);
                    return Err(MaintenanceError::WorkerDied);
                }
                Ok(())
            }
            Admission::Inbox => {
                let conn = self.conn.borrow();
                conn.stats.queue_depth.fetch_add(queued, Ordering::Relaxed);
                self.queue_gauge.add(queued);
                let kick = {
                    let mut inbox = relock(&conn.stats.inbox);
                    inbox.push(deltas);
                    !conn.stats.kicked.swap(true, Ordering::Relaxed)
                };
                // One Kick per inbox refill is enough; the worker clears
                // `kicked` under the inbox lock when it drains. A failed
                // send means the worker panicked (our live sender rules
                // out a clean exit) and never drained our entry, so the
                // push is withdrawn cleanly.
                if kick && conn.requests.send(Request::Kick).is_err() {
                    relock(&conn.stats.inbox).pop();
                    conn.stats.kicked.store(false, Ordering::Relaxed);
                    conn.stats.queue_depth.fetch_sub(queued, Ordering::Relaxed);
                    self.queue_gauge.sub(queued);
                    return Err(MaintenanceError::WorkerDied);
                }
                Ok(())
            }
        }
    }

    /// Admission control for one ingest of `n` batches (see
    /// [`IngestPolicy`]). Shed batches are counted on
    /// `infine_service_shed_total` and surfaced as
    /// [`MaintenanceError::Overloaded`] — never silent.
    fn admit(&self, n: i64) -> Result<Admission, MaintenanceError> {
        let policy = self.policies.ingest;
        let Some(cap) = policy.capacity else {
            return Ok(Admission::Queue);
        };
        if matches!(policy.on_full, OverflowPolicy::CoalesceInPlace) {
            return Ok(Admission::Inbox);
        }
        let stats = Arc::clone(&self.conn.borrow().stats);
        let full =
            |stats: &SharedStats| stats.queue_depth.load(Ordering::Relaxed).max(0) as usize >= cap;
        if !full(&stats) {
            return Ok(Admission::Queue);
        }
        match policy.on_full {
            OverflowPolicy::Reject => {
                self.shed.add(n as u64);
                Err(MaintenanceError::Overloaded { shed: n as usize })
            }
            OverflowPolicy::Block { deadline } => {
                let t0 = Instant::now();
                loop {
                    if !full(&stats) {
                        return Ok(Admission::Queue);
                    }
                    if self.conn.borrow().worker_dead() {
                        return Err(MaintenanceError::WorkerDied);
                    }
                    let left = deadline.saturating_sub(t0.elapsed());
                    if left.is_zero() {
                        self.shed.add(n as u64);
                        return Err(MaintenanceError::Overloaded { shed: n as usize });
                    }
                    // Short slices bound the lost-wakeup window between
                    // the depth check above and this wait.
                    let slice = left.min(Duration::from_millis(5));
                    let guard = relock(&stats.drain);
                    let _ = stats.drained.wait_timeout(guard, slice);
                }
            }
            OverflowPolicy::CoalesceInPlace => unreachable!("diverted to the inbox above"),
        }
    }

    /// Point-in-time service health: queue depth, in-flight batches,
    /// rounds completed, last-round latency, and whether the worker
    /// thread is alive. Lock-free; callable from any thread at any rate.
    pub fn stats(&self) -> ServiceStats {
        let conn = self.conn.borrow();
        ServiceStats {
            queue_depth: conn.stats.queue_depth.load(Ordering::Relaxed).max(0) as usize,
            in_flight: conn.stats.in_flight.load(Ordering::Relaxed).max(0) as usize,
            rounds_completed: conn.stats.rounds.load(Ordering::Relaxed),
            last_round: Duration::from_nanos(conn.stats.last_round_nanos.load(Ordering::Relaxed)),
            worker_alive: conn.worker.as_ref().is_some_and(|w| !w.is_finished()),
        }
    }

    /// Force a maintenance round now, even if nothing is pending (the
    /// empty round re-emits the current state with every FD untouched).
    /// `Err(WorkerDied)` when the worker is gone.
    pub fn flush(&self) -> Result<(), MaintenanceError> {
        self.ensure_worker()?;
        self.send(Request::Flush)
    }

    /// [`MaintenanceService::flush`] that also waits (up to `deadline`)
    /// for the next report and returns it. Note the report returned is
    /// the *next* one — with rounds already queued it may describe an
    /// earlier round, not the flush itself; producers that need strict
    /// pairing should drain reports before calling.
    /// `Err(`[`MaintenanceError::Timeout`]`)` when nothing arrives in
    /// time.
    pub fn flush_deadline(
        &self,
        deadline: Duration,
    ) -> Result<MaintenanceReport, MaintenanceError> {
        self.flush()?;
        match self.recv_report_timeout(deadline) {
            Some(Ok(report)) => Ok(report),
            Some(Err(e)) => Err(e),
            None => Err(MaintenanceError::WorkerDied),
        }
    }

    /// Run a vacuum pass between rounds (after draining whatever is
    /// pending), regardless of the policy threshold. A round report is
    /// always emitted, carrying the pass's accounting in
    /// [`MaintenanceReport::vacuum`]. `Err(WorkerDied)` when the worker
    /// is gone.
    pub fn vacuum(&self) -> Result<(), MaintenanceError> {
        self.ensure_worker()?;
        self.send(Request::Vacuum)
    }

    /// Shared request path: a finished worker (panicked, or somehow
    /// exited) can never process the request, so refuse up front; a
    /// failing send (receiver dropped mid-unwind) means the same thing.
    fn send(&self, req: Request) -> Result<(), MaintenanceError> {
        let conn = self.conn.borrow();
        if conn.worker.as_ref().is_none_or(JoinHandle::is_finished) {
            return Err(MaintenanceError::WorkerDied);
        }
        conn.requests
            .send(req)
            .map_err(|_| MaintenanceError::WorkerDied)
    }

    /// Block until the next round report (or ingestion error) arrives.
    /// `None` once the worker has exited cleanly (after
    /// [`MaintenanceService::shutdown`]-less drop) and the channel
    /// drained. If the worker *died* (panicked), the disconnect is
    /// reported as one final `Err(`[`MaintenanceError::WorkerDied`]`)`,
    /// then `None`.
    ///
    /// Read-your-writes: the worker publishes a round's covers before it
    /// sends the round's report, so once this (or
    /// [`try_recv_report`](MaintenanceService::try_recv_report) /
    /// [`recv_report_timeout`](MaintenanceService::recv_report_timeout))
    /// returns the report for round N, `current().round ≥ N` on every
    /// [`CoverReader`] of this service.
    pub fn recv_report(&self) -> Option<Result<MaintenanceReport, MaintenanceError>> {
        let received = self.conn.borrow().reports.recv();
        match received {
            Ok(r) => {
                if r.is_ok() {
                    self.note_clean_round();
                }
                Some(r)
            }
            Err(_) => self.report_death(),
        }
    }

    /// [`MaintenanceService::recv_report`] bounded by a deadline:
    /// `Some(Err(`[`MaintenanceError::Timeout`]`))` when no report lands
    /// in time (the worker may be stalled mid-round, or simply idle —
    /// check [`MaintenanceService::stats`] to tell which). Same
    /// read-your-writes contract: report N means readers see round ≥ N.
    pub fn recv_report_timeout(
        &self,
        deadline: Duration,
    ) -> Option<Result<MaintenanceReport, MaintenanceError>> {
        let received = self.conn.borrow().reports.recv_timeout(deadline);
        match received {
            Ok(r) => {
                if r.is_ok() {
                    self.note_clean_round();
                }
                Some(r)
            }
            Err(RecvTimeoutError::Timeout) => Some(Err(MaintenanceError::Timeout)),
            Err(RecvTimeoutError::Disconnected) => self.report_death(),
        }
    }

    /// Non-blocking report poll (same death and read-your-writes
    /// contracts as [`MaintenanceService::recv_report`]).
    pub fn try_recv_report(&self) -> Option<Result<MaintenanceReport, MaintenanceError>> {
        let received = self.conn.borrow().reports.try_recv();
        match received {
            Ok(r) => {
                if r.is_ok() {
                    self.note_clean_round();
                }
                Some(r)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => self.report_death(),
        }
    }

    /// A disconnected report channel while this handle is still alive
    /// means the worker exited on its own — it panicked (the only clean
    /// exit is our own sender drop in shutdown/Drop). Surface that once.
    fn report_death(&self) -> Option<Result<MaintenanceReport, MaintenanceError>> {
        if std::mem::replace(&mut self.conn.borrow_mut().death_reported, true) {
            None
        } else {
            Some(Err(MaintenanceError::WorkerDied))
        }
    }

    /// Stop the loop (after a final round draining any pending batches)
    /// and get the engine back for inspection. Unread reports are
    /// discarded with the handle — receive them first if you need them;
    /// the engine's state reflects every drained round either way.
    /// `Err(WorkerDied)` when the worker panicked instead of finishing.
    pub fn shutdown(self) -> Result<ShardedEngine, MaintenanceError> {
        let worker = {
            let mut conn = self.conn.borrow_mut();
            let (dangling, _) = std::sync::mpsc::channel();
            drop(std::mem::replace(&mut conn.requests, dangling));
            conn.worker.take().expect("shutdown called once")
        };
        worker.join().map_err(|_| MaintenanceError::WorkerDied)
    }

    /// [`MaintenanceService::shutdown`] bounded by a deadline: signal
    /// shutdown, then wait at most `deadline` for the worker to finish
    /// its final drain. On timeout the worker is *detached* — it keeps
    /// draining and (for durable services) still marks the log cleanly
    /// shut down, but the engine is unrecoverable from this handle —
    /// and `Err(`[`MaintenanceError::Timeout`]`)` is returned.
    pub fn shutdown_deadline(self, deadline: Duration) -> Result<ShardedEngine, MaintenanceError> {
        {
            let mut conn = self.conn.borrow_mut();
            let (dangling, _) = std::sync::mpsc::channel();
            drop(std::mem::replace(&mut conn.requests, dangling));
        }
        let t0 = Instant::now();
        loop {
            let finished = self
                .conn
                .borrow()
                .worker
                .as_ref()
                .is_none_or(JoinHandle::is_finished);
            if finished {
                let worker = self.conn.borrow_mut().worker.take();
                return match worker {
                    Some(w) => w.join().map_err(|_| MaintenanceError::WorkerDied),
                    None => Err(MaintenanceError::WorkerDied),
                };
            }
            if t0.elapsed() >= deadline {
                // Dropping the JoinHandle detaches the still-draining
                // worker; this handle's Drop then has nothing to join.
                drop(self.conn.borrow_mut().worker.take());
                return Err(MaintenanceError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Test-only worker killer (panics the worker thread).
    #[cfg(test)]
    fn poison(&self) {
        self.conn.borrow().requests.send(Request::Poison).unwrap();
    }

    /// Test-only liveness probe, bypassing the death bookkeeping.
    #[cfg(test)]
    fn worker_finished_now(&self) -> bool {
        self.conn
            .borrow()
            .worker
            .as_ref()
            .is_none_or(JoinHandle::is_finished)
    }
}

impl Drop for MaintenanceService {
    fn drop(&mut self) {
        let worker = {
            let mut conn = self.conn.borrow_mut();
            // Disconnect the request channel so the loop exits, then wait
            // for the final round.
            let (dangling, _) = std::sync::mpsc::channel();
            drop(std::mem::replace(&mut conn.requests, dangling));
            conn.worker.take()
        };
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

/// The worker loop: block for work, drain the queue and the overflow
/// inbox, coalesce, run one round (logged first when durable), vacuum by
/// policy/command, cut snapshots, repeat. A disconnected request channel
/// ends the loop after a final round for whatever is still pending; a
/// durable worker then marks the log cleanly shut down.
#[allow(clippy::too_many_arguments)]
fn run(
    mut engine: ShardedEngine,
    policies: ServicePolicies,
    mut durable: Option<DurableWorker>,
    requests: Receiver<Request>,
    reports: Sender<Result<MaintenanceReport, MaintenanceError>>,
    stats: Arc<SharedStats>,
    obs: ServiceObs,
    covers: Arc<CoverCell>,
) -> ShardedEngine {
    let vacuum_policy = policies.vacuum;
    // The round id stamped on read-path publishes. Durable services use
    // the WAL round index (so recovered readers resume exactly where a
    // producer resumes); non-durable services count completed rounds
    // from zero with the same advance point.
    let round_counter = std::cell::Cell::new(durable.as_ref().map_or(0, |d| d.round_index));
    // One round's bookkeeping: observe latency, bump the shared health
    // counters, forward the report.
    let finish_round = |result: Result<MaintenanceReport, MaintenanceError>, t0: Instant| {
        let elapsed = t0.elapsed();
        obs.round_seconds.observe_duration(elapsed);
        obs.rounds.inc();
        stats.rounds.fetch_add(1, Ordering::Relaxed);
        stats
            .last_round_nanos
            .store(elapsed.as_nanos() as u64, Ordering::Relaxed);
        let _ = reports.send(result);
    };

    // Publish the engine's covers for readers, stamped with the round
    // they are current as of. Pure clones of read-time caches (the
    // sharded engine's merged per-label covers) — no recomputation.
    let publish_covers = |engine: &ShardedEngine| {
        let t0 = Instant::now();
        covers.publish(engine.published_covers(round_counter.get()));
        obs.publish_seconds.observe_duration(t0.elapsed());
    };

    // One full round, write-ahead: log the batch set, apply it, vacuum
    // (commanded or by policy), report, then cut a snapshot when due.
    // The round is sorted by target so the live apply order equals the
    // replay order (`decode_round` yields the codec's name-sorted form).
    // A degraded round logs its flag, skips policy vacuums, and defers
    // policy snapshot cuts; explicit commands are always honored.
    let run_round = |engine: &mut ShardedEngine,
                     durable: &mut Option<DurableWorker>,
                     mut round: Vec<DeltaRelation>,
                     vacuum: bool,
                     snapshot_cmd: bool,
                     degraded: bool,
                     round_t0: Instant| {
        round.sort_by(|a, b| a.target.cmp(&b.target));
        if degraded {
            obs.degraded_rounds.inc();
        }
        if let Some(d) = durable.as_mut() {
            let mut flags = 0u8;
            if vacuum {
                flags |= persist::ROUND_VACUUM;
            }
            if snapshot_cmd {
                flags |= persist::ROUND_SNAPSHOT;
            }
            if degraded {
                flags |= persist::ROUND_DEGRADED;
            }
            let body = persist::encode_round(&round, flags);
            let retry = d.retry;
            let next = d.round_index + 1;
            match retry.run(
                || d.wal.append_round(next, &body),
                |_, _| obs.retry_attempts.inc(),
            ) {
                Ok(bytes) => {
                    obs.wal_appends.inc();
                    obs.wal_bytes.add(bytes);
                    d.round_index += 1;
                    d.rounds_since_snapshot += 1;
                    d.bytes_since_snapshot += bytes;
                    round_counter.set(d.round_index);
                }
                Err(e) => {
                    // The engine must never run ahead of the log: an
                    // unloggable round is DROPPED, not applied, and the
                    // producer re-derives its feed like any rejected
                    // ingest. Round counters stay put — no round ran.
                    let _ = reports.send(Err(dur(e)));
                    return;
                }
            }
        } else {
            // Same advance point as the durable path: the round is now
            // committed to run (nothing after this can drop it).
            round_counter.set(round_counter.get() + 1);
        }
        // The write frontier moved: readers lag until the publish. Only
        // a committed round moves it, so a dropped one leaves no lag.
        covers.note_head(round_counter.get());
        let mut result = engine.apply(&round);
        // Vacuum between rounds: commanded, or by policy threshold (the
        // latter suppressed while degraded — draining beats grooming).
        // The ingest loop keeps running — producers only ever see the
        // pass as accounting on a round report.
        if vacuum || (!degraded && vacuum_policy.should(engine.tombstone_stats())) {
            let stats = engine.vacuum();
            match result.as_mut() {
                Ok(report) => report.vacuum = Some(stats),
                Err(_) => {
                    // The failed round still surfaces as its own Err;
                    // the pass is then acknowledged on an empty
                    // follow-up round, keeping the documented "a
                    // vacuum is always reported" contract (consumers
                    // drain until they see `report.vacuum`).
                    let _ = reports.send(result);
                    result = engine.apply(&[]).map(|mut report| {
                        report.vacuum = Some(stats);
                        report
                    });
                }
            }
        }
        if let Some(d) = durable.as_ref() {
            // Logged and applied, report not yet sent — the crash that
            // makes recovery replay an already-run round.
            d.failpoints.hit(ROUND_COMMIT);
        }
        // Publish before reporting: a client holding report N must read
        // round ≥ N (the contract on `recv_report`).
        publish_covers(engine);
        finish_round(result, round_t0);
        let Some(d) = durable.as_mut() else { return };
        // A degraded round defers the policy cut — counters keep
        // accumulating and the first non-degraded round cuts — exactly
        // what replay decides from the logged flag.
        if !snapshot_cmd
            && (degraded
                || !d
                    .policy
                    .due(d.rounds_since_snapshot, d.bytes_since_snapshot))
        {
            return;
        }
        // Counters reset on ENTRY, publish or fail: replay recomputes
        // due-points from the same counters and must reach the same
        // decisions whether or not the publish below survived.
        d.rounds_since_snapshot = 0;
        d.bytes_since_snapshot = 0;
        let snap_t0 = Instant::now();
        let retry = d.retry;
        let cut = (|| -> Result<(), MaintenanceError> {
            engine.vacuum();
            let payload = persist::freeze_engine(engine)?;
            let outcome = retry
                .run(
                    || d.store.publish(d.round_index, &payload),
                    |_, _| obs.retry_attempts.inc(),
                )
                .map_err(dur)?;
            obs.prune_failures.add(outcome.prune_warnings.len() as u64);
            let retain_from = outcome.retained.first().copied().unwrap_or(d.round_index);
            d.wal.rotate(d.round_index, retain_from).map_err(dur)?;
            Ok(())
        })();
        obs.snapshot_seconds.observe_duration(snap_t0.elapsed());
        match cut {
            // The cut's canonicalizing vacuum compacted the engine;
            // re-publish the same round in vacuum-canonical form so
            // reader-visible tombstone stats match the durable state.
            // Same round id as the one already published and reported,
            // so it neither rewinds readers nor breaks read-your-writes.
            Ok(()) => publish_covers(engine),
            // A failed cut is survivable — the previous snapshot plus
            // the still-growing log cover everything — but loud.
            Err(e) => {
                let _ = reports.send(Err(e));
            }
        }
    };

    let mut pending: HashMap<String, DeltaBatch> = HashMap::new();

    // Move one cycle's batches — this cycle's channel ingests plus
    // everything in the overflow inbox — from "queued" to "in flight"
    // and fold them into the pending per-table state. Returns how many
    // batches moved (settled back off `in_flight` after the round).
    let drain_batches = |engine: &ShardedEngine,
                         pending: &mut HashMap<String, DeltaBatch>,
                         ingests: Vec<Vec<DeltaRelation>>|
     -> i64 {
        let all: Vec<Vec<DeltaRelation>> = {
            let mut inbox = relock(&stats.inbox);
            // Clearing `kicked` under the same lock producers push under
            // guarantees no refill is missed: a push after this drain
            // sees kicked == false and sends a fresh Kick.
            stats.kicked.store(false, Ordering::Relaxed);
            let mut all: Vec<Vec<DeltaRelation>> = inbox.drain(..).collect();
            // Channel ingests and inbox entries never mix (the conduit
            // is fixed by the ingest policy), so appending preserves
            // ingestion order for whichever conduit is in use.
            all.extend(ingests);
            all
        };
        let mut drained = 0i64;
        for deltas in all {
            let n = deltas.len() as i64;
            drained += n;
            // Credit `in_flight` BEFORE debiting `queue_depth`: a
            // concurrent stats() sample (which reads depth first, then
            // in-flight) may double-count a batch mid-hand-off but can
            // never miss it — momentary overcounts are honest "work
            // exists", an undercount would read as a drained service.
            stats.in_flight.fetch_add(n, Ordering::Relaxed);
            obs.in_flight.add(n);
            stats.queue_depth.fetch_sub(n, Ordering::Relaxed);
            obs.queue_depth.sub(n);
            // One rejected batch drops the REST of this ingest request
            // too: every later batch addresses a stream state that
            // assumed the rejected one applied, so folding it in would
            // silently hit the wrong rows. The producer sees the `Err`
            // report and re-derives its feed from the engine state.
            for d in deltas {
                match coalesce_into(engine, pending, d) {
                    Ok(folded) => {
                        obs.batches.inc();
                        if folded {
                            obs.coalesced.inc();
                        }
                    }
                    Err(e) => {
                        obs.rejected.inc();
                        let _ = reports.send(Err(e));
                        break;
                    }
                }
            }
        }
        if drained > 0 {
            // Wake any producer blocked on admission: queue space freed.
            drop(relock(&stats.drain));
            stats.drained.notify_all();
        }
        drained
    };
    let settle_in_flight = |drained: i64| {
        if drained > 0 {
            stats.in_flight.fetch_sub(drained, Ordering::Relaxed);
            obs.in_flight.sub(drained);
        }
    };

    while let Ok(first) = requests.recv() {
        let round_t0 = Instant::now();
        // The backlog this round starts with — read BEFORE the drain
        // decrements it (producers raise it before sending, so batches
        // about to be drained are always counted).
        let backlog = stats.queue_depth.load(Ordering::Relaxed).max(0) as usize;
        let mut queued = vec![first];
        while let Ok(more) = requests.try_recv() {
            queued.push(more);
        }
        let mut flush = false;
        let mut vacuum = false;
        let mut snapshot = false;
        let mut ingests: Vec<Vec<DeltaRelation>> = Vec::new();
        for req in queued {
            match req {
                Request::Ingest(deltas) => ingests.push(deltas),
                Request::Kick => {}
                Request::Flush => flush = true,
                Request::Vacuum => vacuum = true,
                Request::Snapshot => snapshot = true,
                #[cfg(test)]
                Request::Poison => panic!("test-injected worker panic"),
            }
        }
        let drained = drain_batches(&engine, &mut pending, ingests);
        let degraded = policies
            .ingest
            .degrade_above
            .is_some_and(|high| backlog > high);
        if !pending.is_empty() || flush || vacuum || snapshot {
            let round: Vec<DeltaRelation> = pending
                .drain()
                .map(|(target, batch)| DeltaRelation::new(target, batch))
                .collect();
            run_round(
                &mut engine,
                &mut durable,
                round,
                vacuum,
                snapshot,
                degraded,
                round_t0,
            );
        }
        settle_in_flight(drained);
    }
    // Final drain: the channel is disconnected (all its ingests were
    // received above), but the inbox may hold entries whose Kick raced
    // the shutdown — absorb them so every admitted batch is applied.
    let round_t0 = Instant::now();
    let drained = drain_batches(&engine, &mut pending, Vec::new());
    if !pending.is_empty() {
        let round: Vec<DeltaRelation> = pending
            .drain()
            .map(|(target, batch)| DeltaRelation::new(target, batch))
            .collect();
        run_round(
            &mut engine,
            &mut durable,
            round,
            false,
            false,
            false,
            round_t0,
        );
    }
    settle_in_flight(drained);
    if let Some(d) = durable.as_mut() {
        // Everything reported is logged; tell the next recovery it may
        // treat ANY tail damage as real corruption, not a crash artifact.
        let _ = d.wal.mark_clean_shutdown();
    }
    engine
}

/// Validate one incoming batch against the logical stream state and fold
/// it into the pending per-table batch; `Ok(true)` when it was folded
/// into an already-pending batch for the same table (a round saved by
/// coalescing). Fully fallible: nothing here — including the
/// [`DeltaBatch::try_then`] composition — can panic on malformed input,
/// so a bad batch can never take the worker down.
fn coalesce_into(
    engine: &ShardedEngine,
    pending: &mut HashMap<String, DeltaBatch>,
    delta: DeltaRelation,
) -> Result<bool, MaintenanceError> {
    let Some(table) = engine.database().get(&delta.target) else {
        return Err(MaintenanceError::UnknownTable(delta.target));
    };
    if let Some(bad) = delta
        .batch
        .inserts
        .iter()
        .find(|r| r.len() != table.ncols())
    {
        return Err(MaintenanceError::BadBatch(format!(
            "insert arity {} does not match {:?} ({} columns)",
            bad.len(),
            delta.target,
            table.ncols()
        )));
    }
    let base_nrows = table.live_rows();
    let logical_nrows = match pending.get(&delta.target) {
        None => base_nrows,
        Some(p) => {
            let distinct_deletes: std::collections::HashSet<u32> =
                p.deletes.iter().copied().collect();
            base_nrows - distinct_deletes.len() + p.inserts.len()
        }
    };
    if let Some(&row) = delta
        .batch
        .deletes
        .iter()
        .find(|&&r| r as usize >= logical_nrows)
    {
        return Err(MaintenanceError::BadBatch(format!(
            "delete of row {row} out of range for {:?} ({logical_nrows} rows in the pending state)",
            delta.target
        )));
    }
    match pending.remove(&delta.target) {
        None => {
            pending.insert(delta.target, delta.batch);
            Ok(false)
        }
        Some(p) => match p.try_then(&delta.batch, base_nrows) {
            Ok(folded) => {
                pending.insert(delta.target, folded);
                Ok(true)
            }
            Err(msg) => Err(MaintenanceError::BadBatch(msg)),
        },
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeletePolicy;
    use crate::shard::InsertPolicy;
    use crate::MaintenanceEngine;
    use infine_algebra::ViewSpec;
    use infine_core::InFine;
    use infine_relation::{relation_from_rows, Database, Value};

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

    fn tombstone_engine() -> ShardedEngine {
        ShardedEngine::with_options(
            InFine::default(),
            db(),
            view(),
            2,
            InsertPolicy::default(),
            DeletePolicy::Tombstone,
            crate::ViewMode::default(),
        )
        .unwrap()
    }

    #[test]
    fn service_round_trips_and_matches_full_discovery() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(2), Value::str("a"), Value::Int(9)]);
        service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
        let report = service.recv_report().unwrap().unwrap();
        assert!(report.exact_provenance);
        assert!(report.vacuum.is_none());
        let engine = service.shutdown().unwrap();
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(engine.report().triples, fresh.triples);
        assert_eq!(report.triples, fresh.triples);
    }

    #[test]
    fn sequential_ingests_for_one_table_coalesce_like_sequential_rounds() {
        // Reference: an unsharded engine fed the two batches as two
        // rounds. The service receives both in one ingest call, coalesces
        // them into one round, and must land in the same state.
        let mut reference = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut b1 = DeltaBatch::new();
        b1.delete(0)
            .insert(vec![Value::Int(5), Value::str("c"), Value::Int(2)]);
        // b2 addresses the post-b1 state: rid 3 is the inserted row.
        let mut b2 = DeltaBatch::new();
        b2.delete(3)
            .insert(vec![Value::Int(1), Value::str("a"), Value::Int(0)]);
        reference
            .apply_one(&DeltaRelation::new("p", b1.clone()))
            .unwrap();
        reference
            .apply_one(&DeltaRelation::new("p", b2.clone()))
            .unwrap();

        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        service
            .ingest(vec![
                DeltaRelation::new("p", b1),
                DeltaRelation::new("p", b2),
            ])
            .unwrap();
        let report = service.recv_report().unwrap().unwrap();
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.report().triples, reference.report().triples);
        assert_eq!(
            report.cover.to_sorted_vec(),
            reference.fd_set().to_sorted_vec()
        );
        // Row values agree (codes may differ through coalescing).
        let a = reference.database().expect("p");
        let b = engine.database().expect("p");
        assert_eq!(a.nrows(), b.nrows());
        for r in 0..a.nrows() {
            assert_eq!(a.row(r), b.row(r));
        }
    }

    #[test]
    fn malformed_ingest_surfaces_as_error_without_poisoning() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        let mut bad = DeltaBatch::new();
        bad.delete(99);
        service.ingest(vec![DeltaRelation::new("p", bad)]).unwrap();
        let err = service.recv_report().unwrap().unwrap_err();
        assert!(matches!(err, MaintenanceError::BadBatch(_)));
        // The loop is still alive and healthy.
        let mut ok = DeltaBatch::new();
        ok.insert(vec![Value::Int(9), Value::str("z"), Value::Int(3)]);
        service.ingest(vec![DeltaRelation::new("p", ok)]).unwrap();
        let report = service.recv_report().unwrap().unwrap();
        assert!(report.exact_provenance);
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 5);
    }

    #[test]
    fn malformed_coalesced_batch_cannot_kill_the_worker() {
        // A second batch whose deletes are in range of the *base* table
        // but out of range of the coalesced intermediate state: with the
        // panicking `then` this killed the worker; `try_then` turns it
        // into an Err report and the loop survives.
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        let mut b1 = DeltaBatch::new();
        b1.delete(0).delete(1).delete(2); // p: 4 rows → 1 row pending
        let mut b2 = DeltaBatch::new();
        b2.delete(2); // in range of base p (4 rows), not of pending (1 row)
        service
            .ingest(vec![
                DeltaRelation::new("p", b1),
                DeltaRelation::new("p", b2),
            ])
            .unwrap();
        let err = service.recv_report().unwrap().unwrap_err();
        assert!(matches!(err, MaintenanceError::BadBatch(_)));
        // b1 alone was accepted and the worker is alive: the round ran.
        let report = service.recv_report().unwrap().unwrap();
        assert!(report.exact_provenance);
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 1);
    }

    #[test]
    fn flush_emits_an_untouched_round() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let held = engine.fd_set().len();
        let service = MaintenanceService::spawn(engine);
        service.flush().unwrap();
        let report = service.recv_report().unwrap().unwrap();
        assert_eq!(report.count_status(crate::FdStatus::Untouched), held,);
        service.shutdown().unwrap();
    }

    #[test]
    fn pending_batches_drain_on_shutdown() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(8), Value::str("d"), Value::Int(4)]);
        service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 5);
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(engine.report().triples, fresh.triples);
    }

    #[test]
    fn worker_death_surfaces_as_errors_not_hangs_or_panics() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        service.poison();
        // The death is reported exactly once, then the stream ends.
        let err = service.recv_report().unwrap().unwrap_err();
        assert!(matches!(err, MaintenanceError::WorkerDied));
        assert!(service.recv_report().is_none());
        // Wait out the unwind so the request-side observations below are
        // deterministic (the report channel disconnects mid-unwind).
        while !service.worker_finished_now() {
            std::thread::yield_now();
        }
        // Every request path errors promptly instead of hanging.
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(9), Value::str("z"), Value::Int(3)]);
        assert!(matches!(
            service.ingest(vec![DeltaRelation::new("p", b)]),
            Err(MaintenanceError::WorkerDied)
        ));
        assert!(matches!(service.flush(), Err(MaintenanceError::WorkerDied)));
        assert!(matches!(
            service.vacuum(),
            Err(MaintenanceError::WorkerDied)
        ));
        // ... and shutdown reports the death instead of panicking.
        assert!(matches!(
            service.shutdown(),
            Err(MaintenanceError::WorkerDied)
        ));
    }

    #[test]
    fn explicit_vacuum_command_runs_between_rounds() {
        let service = MaintenanceService::spawn(tombstone_engine());
        let mut b = DeltaBatch::new();
        b.delete(0).delete(2);
        service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
        let report = service.recv_report().unwrap().unwrap();
        assert!(report.vacuum.is_none()); // no policy, no command yet
        service.vacuum().unwrap();
        let report = service.recv_report().unwrap().unwrap();
        let stats = report.vacuum.expect("vacuum command reports its pass");
        assert!(stats.rows_dropped > 0);
        // The loop keeps serving afterwards.
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(7), Value::str("c"), Value::Int(2)]);
        service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
        let report = service.recv_report().unwrap().unwrap();
        assert!(report.exact_provenance);
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.tombstone_stats().dead_rows(), 0);
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(engine.report().triples, fresh.triples);
    }

    #[test]
    fn vacuum_policy_triggers_automatically() {
        let service = MaintenanceService::spawn_with_policy(
            tombstone_engine(),
            VacuumPolicy::at_fraction(0.2),
        );
        // Delete half of p: the fragment garbage crosses the threshold.
        let mut b = DeltaBatch::new();
        b.delete(0).delete(1);
        service.ingest(vec![DeltaRelation::new("p", b)]).unwrap();
        let report = service.recv_report().unwrap().unwrap();
        let stats = report.vacuum.expect("policy-triggered vacuum");
        assert!(stats.rows_dropped >= 2);
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.tombstone_stats().dead_rows(), 0);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "infine-svc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn insert_p(v: i64) -> Vec<DeltaRelation> {
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(v), Value::str("c"), Value::Int(2)]);
        vec![DeltaRelation::new("p", b)]
    }

    #[test]
    fn durable_service_recovers_after_clean_shutdown() {
        let dir = tmpdir("clean");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        service.ingest(insert_p(5)).unwrap();
        service.recv_report().unwrap().unwrap();
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(5), Value::str("z")]);
        service.ingest(vec![DeltaRelation::new("q", b)]).unwrap();
        service.recv_report().unwrap().unwrap();
        let engine = service.shutdown().unwrap();
        let expect = engine.report().triples.clone();

        let (service, info) = MaintenanceService::recover(
            DurabilityOptions::new(&dir),
            InFine::default(),
            view(),
            VacuumPolicy::default(),
        )
        .unwrap();
        assert!(info.clean_shutdown);
        assert_eq!(info.snapshot_epoch, 0);
        assert_eq!(info.replayed_rounds, 2);
        assert_eq!(info.durable_rounds, 2);
        assert!(info.warnings.is_empty(), "{:?}", info.warnings);
        let recovered = service.shutdown().unwrap();
        assert_eq!(recovered.report().triples, expect);
        let fresh = InFine::default()
            .discover(recovered.database(), recovered.spec())
            .unwrap();
        assert_eq!(recovered.report().triples, fresh.triples);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_commit_crash_respawns_without_losing_the_durable_round() {
        let dir = tmpdir("commit-crash");
        let mut fp = FailPoints::none();
        fp.arm(ROUND_COMMIT, 1);
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let mut service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir).failpoints(fp),
        )
        .unwrap();
        service.ingest(insert_p(5)).unwrap();
        // The worker dies after logging + applying, before the report.
        let err = service.recv_report().unwrap().unwrap_err();
        assert!(matches!(err, MaintenanceError::WorkerDied));
        let info = service.respawn().unwrap();
        // The crashed round was already durable: nothing to re-feed.
        assert_eq!(info.durable_rounds, 1);
        assert_eq!(info.replayed_rounds, 1);
        assert!(!info.clean_shutdown);
        service.ingest(insert_p(6)).unwrap();
        let report = service.recv_report().unwrap().unwrap();
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 6);
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(report.triples, fresh.triples);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_append_crash_drops_exactly_the_unlogged_round() {
        let dir = tmpdir("append-crash");
        let mut fp = FailPoints::none();
        fp.arm(infine_durability::failpoint::WAL_APPEND, 2);
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let mut service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir).failpoints(fp),
        )
        .unwrap();
        service.ingest(insert_p(5)).unwrap();
        service.recv_report().unwrap().unwrap();
        service.ingest(insert_p(6)).unwrap();
        let err = service.recv_report().unwrap().unwrap_err();
        assert!(matches!(err, MaintenanceError::WorkerDied));
        let info = service.respawn().unwrap();
        // Round 2 never reached the log: the producer re-feeds it.
        assert_eq!(info.durable_rounds, 1);
        service.ingest(insert_p(6)).unwrap();
        service.recv_report().unwrap().unwrap();
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 6);
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(engine.report().triples, fresh.triples);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_round_leaves_no_read_lag() {
        let registry = infine_obs::Registry::scoped();
        let _scope = registry.enter();
        let dir = tmpdir("drop-lag");
        let mut fp = FailPoints::none();
        fp.arm_err(infine_durability::failpoint::WAL_APPEND, 1, 10, false);
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 1).unwrap();
        let service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir).failpoints(fp),
        )
        .unwrap();
        service.ingest(insert_p(5)).unwrap();
        let err = service.recv_report().unwrap().unwrap_err();
        assert!(matches!(err, MaintenanceError::Durability(_)));
        // Nothing committed, so nothing is pending for readers.
        let reader = service.reader();
        assert_eq!(reader.current().round, 0);
        assert_eq!(reader.head_round(), 0);
        assert_eq!(registry.snapshot().get("infine_read_round_lag"), Some(0.0));
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_policy_cuts_and_recovery_replays_only_the_suffix() {
        let dir = tmpdir("snap-policy");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir).snapshot_policy(SnapshotPolicy::every_rounds(2)),
        )
        .unwrap();
        for v in [5, 6, 7] {
            service.ingest(insert_p(v)).unwrap();
            service.recv_report().unwrap().unwrap();
        }
        let engine = service.shutdown().unwrap();
        let expect = engine.report().triples.clone();

        let (service, info) = MaintenanceService::recover(
            DurabilityOptions::new(&dir).snapshot_policy(SnapshotPolicy::every_rounds(2)),
            InFine::default(),
            view(),
            VacuumPolicy::default(),
        )
        .unwrap();
        // The round-2 snapshot took; only round 3 replays from the log.
        assert_eq!(info.snapshot_epoch, 2);
        assert_eq!(info.replayed_rounds, 1);
        assert_eq!(info.durable_rounds, 3);
        assert!(info.clean_shutdown);
        let recovered = service.shutdown().unwrap();
        assert_eq!(recovered.report().triples, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_snapshot_command_advances_the_recovery_epoch() {
        let dir = tmpdir("snap-cmd");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        service.ingest(insert_p(5)).unwrap();
        service.recv_report().unwrap().unwrap();
        service.snapshot().unwrap();
        service.recv_report().unwrap().unwrap();
        service.ingest(insert_p(6)).unwrap();
        service.recv_report().unwrap().unwrap();
        drop(service); // shutdown-less drop still drains + marks clean

        let (service, info) = MaintenanceService::recover(
            DurabilityOptions::new(&dir),
            InFine::default(),
            view(),
            VacuumPolicy::default(),
        )
        .unwrap();
        // The snapshot command ran as round 2 (an empty flush round).
        assert_eq!(info.snapshot_epoch, 2);
        assert_eq!(info.replayed_rounds, 1);
        assert_eq!(info.durable_rounds, 3);
        let recovered = service.shutdown().unwrap();
        assert_eq!(recovered.database().expect("p").nrows(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn respawn_refuses_live_workers_and_non_durable_services() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let mut plain = MaintenanceService::spawn(engine);
        assert!(matches!(
            plain.respawn(),
            Err(MaintenanceError::Durability(_))
        ));
        plain.shutdown().unwrap();

        let dir = tmpdir("respawn-live");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let mut service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert!(matches!(
            service.respawn(),
            Err(MaintenanceError::Durability(_))
        ));
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn wait_dead(service: &MaintenanceService) {
        let t0 = Instant::now();
        while !service.worker_finished_now() {
            assert!(t0.elapsed() < Duration::from_secs(5), "worker never died");
            std::thread::yield_now();
        }
    }

    #[test]
    fn reject_policy_sheds_at_capacity_and_counts() {
        let registry = infine_obs::Registry::scoped();
        let _scope = registry.enter();
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let policies = ServicePolicies::default().ingest(IngestPolicy::reject(0));
        let service = MaintenanceService::spawn_with_policies(engine, policies);
        match service.ingest(insert_p(5)) {
            Err(MaintenanceError::Overloaded { shed }) => assert_eq!(shed, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Nothing was queued, and the shed work is accounted for.
        assert_eq!(service.stats().queue_depth, 0);
        assert_eq!(
            registry.snapshot().get("infine_service_shed_total"),
            Some(1.0)
        );
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 4);
    }

    #[test]
    fn block_policy_sheds_after_the_deadline() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let deadline = Duration::from_millis(40);
        let policies = ServicePolicies::default().ingest(IngestPolicy::block(0, deadline));
        let service = MaintenanceService::spawn_with_policies(engine, policies);
        let t0 = Instant::now();
        match service.ingest(insert_p(5)) {
            Err(MaintenanceError::Overloaded { shed }) => assert_eq!(shed, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(t0.elapsed() >= deadline, "shed before the deadline");
        service.shutdown().unwrap();
    }

    #[test]
    fn block_policy_waits_for_drain_then_admits() {
        let dir = tmpdir("block-drain");
        let mut fp = FailPoints::none();
        fp.arm_delay(infine_durability::failpoint::WAL_APPEND, 1, 1, 150);
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let policies =
            ServicePolicies::default().ingest(IngestPolicy::block(1, Duration::from_secs(10)));
        let service = MaintenanceService::spawn_durable_with_policies(
            engine,
            DurabilityOptions::new(&dir).failpoints(fp),
            policies,
        )
        .unwrap();
        // First batch drains immediately and stalls in the delayed WAL
        // append: in flight, not queued.
        service.ingest(insert_p(5)).unwrap();
        let t0 = Instant::now();
        while service.stats().in_flight != 1 {
            assert!(t0.elapsed() < Duration::from_secs(5), "never saw in-flight");
            std::thread::yield_now();
        }
        assert_eq!(service.stats().queue_depth, 0);
        // Second batch fills the queue; the third must block on the
        // condvar until the worker drains, then be admitted (the 10s
        // deadline far outlives the 150ms stall).
        service.ingest(insert_p(6)).unwrap();
        service.ingest(insert_p(7)).unwrap();
        service.recv_report().unwrap().unwrap();
        service.recv_report().unwrap().unwrap();
        // Queue and in-flight both settle to zero: no gauge drift.
        let t0 = Instant::now();
        loop {
            let stats = service.stats();
            if stats.queue_depth == 0 && stats.in_flight == 0 {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "stats never settled");
            std::thread::yield_now();
        }
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite of the queue/in-flight hand-off fix: the drain credits
    /// `in_flight` BEFORE debiting `queue_depth`, so a stats() sample
    /// taken any time before a round's report lands counts the batch in
    /// at least one bucket (the old order had a window where a mid-drain
    /// sample saw it in neither). The slow-WAL failpoint widens the
    /// in-flight phase so the samples straddle the hand-off.
    #[test]
    fn stats_sample_never_undercounts_mid_drain() {
        let dir = tmpdir("stats-mid-drain");
        let mut fp = FailPoints::none();
        fp.arm_delay(infine_durability::failpoint::WAL_APPEND, 1, 3, 40);
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn_durable_with_policies(
            engine,
            DurabilityOptions::new(&dir).failpoints(fp),
            ServicePolicies::default(),
        )
        .unwrap();
        for row in [5, 6, 7] {
            service.ingest(insert_p(row)).unwrap();
            let t0 = Instant::now();
            loop {
                // Sample BEFORE polling the report: a `None` poll proves
                // the report had not been sent at sample time, so the
                // batch was still queued or in flight then.
                let stats = service.stats();
                match service.try_recv_report() {
                    Some(r) => {
                        r.unwrap();
                        break;
                    }
                    None => assert!(
                        stats.queue_depth + stats.in_flight >= 1,
                        "unfinished batch invisible to stats \
                         (queue_depth + in_flight == 0 before its report)"
                    ),
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "round never reported"
                );
                std::hint::spin_loop();
            }
        }
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesce_in_place_folds_backlog_and_matches_discovery() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let policies = ServicePolicies::default().ingest(IngestPolicy::coalesce_in_place());
        let service = MaintenanceService::spawn_with_policies(engine, policies);
        for v in 5..9 {
            service.ingest(insert_p(v)).unwrap();
        }
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 8);
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(engine.report().triples, fresh.triples);
    }

    #[test]
    fn supervisor_breaker_opens_probes_and_closes() {
        let registry = infine_obs::Registry::scoped();
        let _scope = registry.enter();
        let dir = tmpdir("breaker");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let policies = ServicePolicies::default().supervisor(
            SupervisorPolicy::auto()
                .respawn_backoff(Duration::ZERO)
                .breaker(2, Duration::from_secs(30), Duration::from_millis(100)),
        );
        let service = MaintenanceService::spawn_durable_with_policies(
            engine,
            DurabilityOptions::new(&dir),
            policies,
        )
        .unwrap();

        // Death 1: the next request transparently respawns the worker
        // and leaves the resume point for the producer to pick up.
        service.poison();
        wait_dead(&service);
        service.flush().unwrap();
        let info = service.take_recovery_info().expect("auto-respawn info");
        assert_eq!(info.durable_rounds, 0);
        service.recv_report().unwrap().unwrap();
        assert!(service.take_recovery_info().is_none(), "info is consumed");

        // Death 2 reaches the threshold: the breaker opens and stays
        // open for the cooldown, refusing every request.
        service.poison();
        wait_dead(&service);
        assert!(matches!(
            service.flush(),
            Err(MaintenanceError::BreakerOpen)
        ));
        assert!(matches!(
            service.flush(),
            Err(MaintenanceError::BreakerOpen)
        ));
        assert_eq!(
            registry.snapshot().get("infine_service_breaker_state"),
            Some(1.0)
        );

        // Cooldown elapsed: one half-open probe respawns the worker...
        std::thread::sleep(Duration::from_millis(120));
        service.flush().unwrap();
        assert_eq!(
            registry.snapshot().get("infine_service_breaker_state"),
            Some(2.0)
        );
        // ...and its clean round closes the breaker again.
        service.recv_report().unwrap().unwrap();
        assert_eq!(
            registry.snapshot().get("infine_service_breaker_state"),
            Some(0.0)
        );
        assert_eq!(
            registry.snapshot().get("infine_service_respawns_total"),
            Some(2.0)
        );
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn respawn_retry_exhaustion_surfaces_the_last_error() {
        let dir = tmpdir("exhaust");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let mut service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        service.poison();
        wait_dead(&service);
        assert!(matches!(
            service.recv_report(),
            Some(Err(MaintenanceError::WorkerDied))
        ));
        // Nuke the durable state: every recovery attempt must fail, and
        // respawn gives up with the last error instead of spinning.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            service.respawn(),
            Err(MaintenanceError::Durability(_))
        ));
    }

    #[test]
    fn deadline_variants_time_out_and_pair_cleanly() {
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn(engine);
        // Idle service: a bounded receive reports Timeout, not a hang.
        assert!(matches!(
            service.recv_report_timeout(Duration::from_millis(20)),
            Some(Err(MaintenanceError::Timeout))
        ));
        // flush_deadline pairs the command with the next report.
        let report = service.flush_deadline(Duration::from_secs(5)).unwrap();
        assert!(report.vacuum.is_none());
        // shutdown_deadline with a live, idle worker completes normally.
        let engine = service
            .shutdown_deadline(Duration::from_secs(5))
            .expect("idle shutdown beats the deadline");
        assert_eq!(engine.database().expect("p").nrows(), 4);
    }

    #[test]
    fn shutdown_deadline_detaches_a_stalled_worker() {
        let dir = tmpdir("detach");
        let mut fp = FailPoints::none();
        fp.arm_delay(infine_durability::failpoint::WAL_APPEND, 1, 1, 400);
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let service = MaintenanceService::spawn_durable(
            engine,
            VacuumPolicy::default(),
            DurabilityOptions::new(&dir).failpoints(fp),
        )
        .unwrap();
        service.ingest(insert_p(5)).unwrap();
        let t0 = Instant::now();
        while service.stats().in_flight != 1 {
            assert!(t0.elapsed() < Duration::from_secs(5), "never saw in-flight");
            std::thread::yield_now();
        }
        match service.shutdown_deadline(Duration::from_millis(50)) {
            Err(MaintenanceError::Timeout) => {}
            Err(e) => panic!("expected Timeout, got {e:?}"),
            Ok(_) => panic!("expected Timeout, got a finished engine"),
        }
        // The detached worker finishes its drain on its own; let it
        // release the directory before sweeping.
        std::thread::sleep(Duration::from_millis(500));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_rounds_defer_snapshots_until_backlog_clears() {
        let registry = infine_obs::Registry::scoped();
        let _scope = registry.enter();
        let dir = tmpdir("degraded");
        let engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let policies =
            ServicePolicies::default().ingest(IngestPolicy::unbounded().degrade_above(0));
        let options = DurabilityOptions::new(&dir).snapshot_policy(SnapshotPolicy::every_rounds(1));
        let service =
            MaintenanceService::spawn_durable_with_policies(engine, options.clone(), policies)
                .unwrap();
        // Every ingest-driven round starts with its own batch already
        // counted in the backlog, so with a high-water mark of 0 each
        // one runs degraded and the every-round snapshot policy defers.
        for v in 5..8 {
            service.ingest(insert_p(v)).unwrap();
            service.recv_report().unwrap().unwrap();
        }
        assert_eq!(
            registry
                .snapshot()
                .get("infine_service_degraded_rounds_total"),
            Some(3.0)
        );
        let mut snaps: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.ends_with(".snap"))
            .collect();
        snaps.sort();
        assert_eq!(
            snaps,
            vec!["snap-00000000000000000000.snap".to_string()],
            "policy cuts must defer while degraded"
        );
        // An explicit snapshot command is always honored.
        service.snapshot().unwrap();
        service.recv_report().unwrap().unwrap();
        let engine = service.shutdown().unwrap();
        let expect = engine.report().triples.clone();
        // Recovery replays the degraded suffix with the same deferrals
        // and converges to the same state.
        let (service, info) = MaintenanceService::recover(
            options,
            InFine::default(),
            view(),
            VacuumPolicy::default(),
        )
        .unwrap();
        assert!(info.clean_shutdown);
        assert_eq!(info.snapshot_epoch, 4);
        assert_eq!(info.durable_rounds, 4);
        let recovered = service.shutdown().unwrap();
        assert_eq!(recovered.report().triples, expect);
        assert_eq!(recovered.database().expect("p").nrows(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
