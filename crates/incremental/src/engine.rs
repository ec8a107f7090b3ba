//! The maintenance engine: delta-in, report-out.
//!
//! [`MaintenanceEngine`] owns a database, a view specification, and the
//! view's current provenance-annotated FD set. Feeding it
//! [`DeltaRelation`] batches keeps that FD set current **without full
//! re-discovery**, in one of two modes:
//!
//! * [`MaintenanceMode::ExactProvenance`] (default) — per-base-table FD
//!   covers are maintained incrementally (patched PLIs, dirty-class
//!   revalidation, targeted re-mining; see [`crate::cover`]), then the
//!   view-level phases (upstage, infer, mine) are replayed through
//!   [`InFine::discover_incremental`] with base mining skipped entirely.
//!   The resulting report is *triple-for-triple identical* to a fresh
//!   [`InFine::discover`] on the updated database.
//! * [`MaintenanceMode::CoverOnly`] — for inner-join views, the
//!   materialized view itself is maintained through delta joins with
//!   row-id provenance (see [`crate::view`]) and the FD cover is
//!   maintained directly on the patched view. No pipeline replay, no
//!   base mining, no full joins: delta-sized work. The cover equals the
//!   canonical minimal cover of the view (logically equivalent to the
//!   exact mode's triple set); provenance *labels* of fresh FDs are not
//!   re-derived until [`MaintenanceEngine::refresh_provenance`] is
//!   called.
//!
//! Either way, each held FD is classified per round as *untouched*
//! (provenance untouched by the delta), *revalidated* (provenance
//! touched, FD still in the cover), or *invalidated* (no longer in the
//! cover) — the provenance-guided revalidation the paper's triples make
//! possible.

use crate::cover::{CoverDeltaStats, CoverState};
use crate::obs::{EngineObs, RoundMetrics};
use crate::view::{self, ViewBackend, ViewMode, ViewState, VirtualView};
use infine_algebra::ViewSpec;
use infine_core::{
    base_scopes, BaseFds, BaseScope, FdKind, InFine, InFineError, InFineReport, ProvenanceTriple,
};
use infine_discovery::{Fd, FdSet};
use infine_relation::{Database, DeltaBatch, DeltaRelation, DictIndexes, Relation, RowMap, Schema};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors from the maintenance engine.
#[derive(Debug)]
pub enum MaintenanceError {
    /// A delta targeted a relation the database does not contain.
    UnknownTable(String),
    /// One `apply` call carried two batches for the same table (batch row
    /// ids are relative to one version; merge them before applying).
    DuplicateTarget(String),
    /// A batch is malformed (delete row id out of range, insert arity
    /// mismatch). Rejected before any state is touched.
    BadBatch(String),
    /// Underlying pipeline failure.
    Pipeline(InFineError),
    /// The maintenance service's worker thread is gone (it panicked or
    /// was shut down); the request could not be (or was not) processed.
    WorkerDied,
    /// The durability layer failed: commitlog/snapshot I/O, unusable
    /// on-disk state, or a snapshot that does not match the requested
    /// view/configuration.
    Durability(String),
    /// Admission control shed this ingest: the maintenance queue was at
    /// capacity and the overflow policy said reject (or the blocking
    /// deadline elapsed). `shed` is how many batches were dropped —
    /// none of them were queued, so the producer's stream position is
    /// unchanged and it may simply re-offer them.
    Overloaded {
        /// Batches in the shed ingest call.
        shed: usize,
    },
    /// The supervisor's circuit breaker is open: the worker died too
    /// many times inside the breaker window and automatic respawns are
    /// refused until the cooldown elapses (then one half-open probe is
    /// allowed through).
    BreakerOpen,
    /// A deadline-bounded call (`recv_report_timeout`, `flush_deadline`,
    /// `shutdown_deadline`) ran out of time before the worker responded.
    Timeout,
}

impl From<InFineError> for MaintenanceError {
    fn from(e: InFineError) -> Self {
        MaintenanceError::Pipeline(e)
    }
}

impl fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintenanceError::UnknownTable(t) => {
                write!(f, "delta targets unknown relation {t:?}")
            }
            MaintenanceError::DuplicateTarget(t) => write!(
                f,
                "two delta batches for {t:?} in one apply call; merge them first"
            ),
            MaintenanceError::BadBatch(msg) => write!(f, "malformed delta batch: {msg}"),
            MaintenanceError::Pipeline(e) => write!(f, "{e}"),
            MaintenanceError::WorkerDied => {
                write!(f, "maintenance worker is gone (panicked or shut down)")
            }
            MaintenanceError::Durability(msg) => write!(f, "durability failure: {msg}"),
            MaintenanceError::Overloaded { shed } => write!(
                f,
                "maintenance queue at capacity: {shed} batch(es) shed by admission control"
            ),
            MaintenanceError::BreakerOpen => write!(
                f,
                "supervisor circuit breaker is open: respawn refused until the cooldown elapses"
            ),
            MaintenanceError::Timeout => write!(f, "maintenance deadline elapsed"),
        }
    }
}

impl std::error::Error for MaintenanceError {}

/// How the engine keeps the FD set current (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Exact provenance triples every round (pipeline replay with base
    /// mining skipped).
    #[default]
    ExactProvenance,
    /// Delta-sized cover maintenance on the materialized view; provenance
    /// labels refresh on demand. Falls back to exact-provenance rounds
    /// when the spec has outer joins or repeated tables.
    CoverOnly,
}

/// How the engine applies delete batches to its stored relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletePolicy {
    /// Compact columns eagerly on every delete batch — `O(rows · cols)`
    /// per affected relation, the original behavior. Memory stays tight
    /// without vacuums, at the price of O(table) delete rounds.
    #[default]
    Compact,
    /// Mark deleted rows in a tombstone bitmap (`O(|Δ|)` per batch; no
    /// column rewrite, no row-id shifts for survivors) and restore the
    /// compact invariant on demand with [`MaintenanceEngine::vacuum`] /
    /// [`ShardedEngine`](crate::ShardedEngine) vacuum, or by service
    /// policy ([`crate::service::VacuumPolicy`]). The externally visible
    /// row addressing is unchanged — batches keep speaking logical
    /// (compacted) row ids; the engine translates via
    /// [`RowMap`](infine_relation::RowMap).
    Tombstone,
}

/// Accounting of one vacuum pass (see [`MaintenanceEngine::vacuum`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct VacuumStats {
    /// Relations compacted (stored tables, scoped base states, view
    /// nodes).
    pub relations: usize,
    /// Tombstoned rows physically dropped.
    pub rows_dropped: usize,
    /// Dictionary entries garbage-collected (dead values reclaimed).
    pub dict_entries_dropped: usize,
    /// Wall-clock of the pass.
    pub duration: Duration,
}

impl VacuumStats {
    /// Fold another pass's accounting into this one.
    pub fn merge(&mut self, other: VacuumStats) {
        self.relations += other.relations;
        self.rows_dropped += other.rows_dropped;
        self.dict_entries_dropped += other.dict_entries_dropped;
        self.duration += other.duration;
    }

    /// True iff the pass found nothing to reclaim.
    pub fn is_noop(&self) -> bool {
        self.relations == 0
    }
}

/// Point-in-time memory accounting of an engine's relation state
/// (stored tables + scoped base states + view nodes, rid columns
/// included). `physical_rows - live_rows` is the reclaimable garbage;
/// [`TombstoneStats::fraction`] drives the service's vacuum policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TombstoneStats {
    /// Physical rows held (dead included), summed over relations.
    pub physical_rows: usize,
    /// Live rows.
    pub live_rows: usize,
    /// Dictionary entries held, summed over columns of all relations.
    pub dict_entries: usize,
}

impl TombstoneStats {
    /// Dead rows awaiting a vacuum.
    pub fn dead_rows(&self) -> usize {
        self.physical_rows - self.live_rows
    }

    /// Dead fraction of the physical rows (0 when empty).
    pub fn fraction(&self) -> f64 {
        if self.physical_rows == 0 {
            0.0
        } else {
            self.dead_rows() as f64 / self.physical_rows as f64
        }
    }

    /// Fold another relation's accounting into this one.
    pub fn merge(&mut self, other: TombstoneStats) {
        self.physical_rows += other.physical_rows;
        self.live_rows += other.live_rows;
        self.dict_entries += other.dict_entries;
    }

    /// Accounting of one relation.
    pub fn of(rel: &Relation) -> TombstoneStats {
        TombstoneStats {
            physical_rows: rel.nrows(),
            live_rows: rel.live_rows(),
            dict_entries: dict_entries(rel),
        }
    }
}

/// Sum of every column's dictionary length (vacuum accounting).
pub(crate) fn dict_entries(rel: &Relation) -> usize {
    (0..rel.ncols()).map(|c| rel.column(c).dict_len()).sum()
}

/// How one previously-held FD fared under a delta batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FdStatus {
    /// No base table under the FD's justifying sub-query changed; the FD
    /// is still valid with no data touched.
    Untouched,
    /// The provenance was touched, the FD was revalidated, and it is
    /// still part of the minimal cover.
    Revalidated,
    /// The FD no longer belongs to the view's minimal cover (it broke, or
    /// a newly valid smaller FD evicted it).
    Invalidated,
}

impl FdStatus {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FdStatus::Untouched => "untouched",
            FdStatus::Revalidated => "revalidated",
            FdStatus::Invalidated => "invalidated",
        }
    }
}

/// Wall-clock breakdown of one [`MaintenanceEngine::apply`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaintenanceTimings {
    /// Applying delta batches to base tables and scoped projections.
    pub delta_apply: Duration,
    /// Per-base-table cover maintenance (PLI patching, revalidation,
    /// targeted re-mining).
    pub base_maintain: Duration,
    /// View maintenance in cover-only mode (delta joins + view cover).
    pub view_maintain: Duration,
    /// View-level pipeline replay (`discover_incremental`), exact mode.
    pub pipeline: Duration,
}

impl MaintenanceTimings {
    /// Total maintenance wall-clock.
    pub fn total(&self) -> Duration {
        self.delta_apply + self.base_maintain + self.view_maintain + self.pipeline
    }
}

/// Per-base-table accounting of one maintenance round.
#[derive(Debug, Clone)]
pub struct BaseMaintenance {
    /// Base label (alias or table name).
    pub label: String,
    /// Underlying table.
    pub table: String,
    /// Scoped rows before the batch.
    pub rows_before: usize,
    /// Rows after.
    pub rows_after: usize,
    /// Rows deleted by the batch.
    pub deleted: usize,
    /// Rows inserted.
    pub inserted: usize,
    /// Cover maintenance accounting (held/broken/recovered/surfaced FDs,
    /// PLI patch counters).
    pub cover: CoverDeltaStats,
}

/// The result of one maintenance round — the incremental mirror of
/// [`InFineReport`]: the new FD cover plus what the delta did to the
/// previously held one.
#[derive(Debug)]
pub struct MaintenanceReport {
    /// Schema of the view's projected output.
    pub schema: Schema,
    /// The current minimal FD cover of the view.
    pub cover: FdSet,
    /// Provenance triples. Exact mode: the complete post-batch set,
    /// identical to a fresh [`InFine::discover`]. Cover-only mode: the
    /// surviving triples with their last-known labels (fresh FDs appear
    /// in [`MaintenanceReport::fresh`] until the next provenance
    /// refresh).
    pub triples: Vec<ProvenanceTriple>,
    /// Classification of every FD held before the batch.
    pub held: Vec<(ProvenanceTriple, FdStatus)>,
    /// FDs in the new cover that were not held before.
    pub fresh: Vec<Fd>,
    /// Per-changed-table maintenance accounting.
    pub base: Vec<BaseMaintenance>,
    /// View-cover accounting (cover-only mode rounds).
    pub view_cover: Option<CoverDeltaStats>,
    /// True when `triples` carries exact, freshly derived provenance.
    pub exact_provenance: bool,
    /// Vacuum pass folded into this round (service-triggered — by policy
    /// threshold or an explicit vacuum command). `None` for plain rounds.
    pub vacuum: Option<VacuumStats>,
    /// Wall-clock breakdown.
    pub timings: MaintenanceTimings,
    /// What the round recorded into the engine's metrics registry
    /// (kernel checks, cache traffic, phase timings — exact per-round
    /// deltas; see [`RoundMetrics`]).
    pub metrics: RoundMetrics,
}

impl MaintenanceReport {
    /// The new FD cover as a set.
    pub fn fd_set(&self) -> FdSet {
        self.cover.clone()
    }

    /// Count held FDs with one status.
    pub fn count_status(&self, status: FdStatus) -> usize {
        self.held.iter().filter(|(_, s)| *s == status).count()
    }

    /// The invalidated triples.
    pub fn invalidated(&self) -> impl Iterator<Item = &ProvenanceTriple> {
        self.held
            .iter()
            .filter(|(_, s)| *s == FdStatus::Invalidated)
            .map(|(t, _)| t)
    }

    /// Count triples of one provenance kind.
    pub fn count_kind(&self, kind: FdKind) -> usize {
        self.triples.iter().filter(|t| t.kind == kind).count()
    }

    /// One-line summary (status counts + timings).
    pub fn summary(&self) -> String {
        format!(
            "{} FDs ({} untouched, {} revalidated, {} invalidated, {} fresh) in {:.2?}",
            self.cover.len(),
            self.count_status(FdStatus::Untouched),
            self.count_status(FdStatus::Revalidated),
            self.count_status(FdStatus::Invalidated),
            self.fresh.len(),
            self.timings.total(),
        )
    }

    /// Render the triples with attribute names.
    pub fn render(&self) -> String {
        self.triples
            .iter()
            .map(|t| t.render(&self.schema))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Maintained state for one base occurrence (label) of the view.
struct BaseState {
    scope: BaseScope,
    /// Current scoped relation (the columns step 1 mines). Tombstoned
    /// under [`DeletePolicy::Tombstone`]; its physical row space is its
    /// own (independent of the stored table's once they diverge).
    rel: Relation,
    /// Maintained minimal FD cover of `rel` plus backing partitions.
    cover: CoverState,
    /// Persistent dictionary index of `rel` (delta-sized encoding).
    dict_index: DictIndexes,
    /// Logical → physical row map of `rel` (identity under
    /// [`DeletePolicy::Compact`]).
    row_map: RowMap,
}

/// Stateful incremental FD maintenance over one view.
///
/// See the [module docs](self) for the algorithm; see
/// [`MaintenanceEngine::apply`] for the per-batch contract.
pub struct MaintenanceEngine {
    infine: InFine,
    spec: ViewSpec,
    db: Database,
    states: Vec<BaseState>,
    mode: MaintenanceMode,
    /// Which backend cover-only rounds run on (materialized view vs
    /// join-index-only virtual view).
    view_mode: ViewMode,
    /// Fast-path view backend (cover-only mode on supported specs).
    view: Option<Box<dyn ViewBackend>>,
    /// Last exact pipeline report (stale in cover-only mode until
    /// [`MaintenanceEngine::refresh_provenance`]).
    report: InFineReport,
    /// The current cover (exact mode: the report's triple set; cover-only
    /// mode: the canonical minimal cover, densified to the view schema).
    cover: FdSet,
    /// Labels whose base-table FD state missed deltas (cover-only rounds
    /// defer per-table maintenance; resynced on demand).
    stale: HashSet<String>,
    /// How delete batches hit the stored relations.
    delete_policy: DeletePolicy,
    /// Persistent dictionary indexes of the stored base tables, built on
    /// a table's first delta.
    table_indexes: HashMap<String, DictIndexes>,
    /// Logical → physical row maps of stored tables that are tombstoned
    /// (cover-only fast rounds under [`DeletePolicy::Tombstone`]).
    table_row_maps: HashMap<String, RowMap>,
    /// Rendered sub-query → base tables beneath it (provenance
    /// classification index).
    subquery_tables: HashMap<String, HashSet<String>>,
    /// Scoped metrics registry + round/phase/vacuum handles.
    obs: EngineObs,
}

impl MaintenanceEngine {
    /// Bootstrap: full discovery once, then per-table FD/PLI state.
    pub fn new(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
    ) -> Result<MaintenanceEngine, MaintenanceError> {
        MaintenanceEngine::with_mode(infine, db, spec, MaintenanceMode::default())
    }

    /// Bootstrap with an explicit maintenance mode (and the default,
    /// compacting delete policy).
    pub fn with_mode(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        mode: MaintenanceMode,
    ) -> Result<MaintenanceEngine, MaintenanceError> {
        MaintenanceEngine::with_options(
            infine,
            db,
            spec,
            mode,
            DeletePolicy::default(),
            ViewMode::default(),
        )
    }

    /// Bootstrap with explicit mode, delete policy, and view backend.
    /// [`ViewMode::JoinIndex`] falls back to the materialized backend on
    /// specs outside the virtual subset (see
    /// [`view::supports_virtual`]).
    pub fn with_options(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        mode: MaintenanceMode,
        delete_policy: DeletePolicy,
        view_mode: ViewMode,
    ) -> Result<MaintenanceEngine, MaintenanceError> {
        // The engine's own registry scopes everything from bootstrap
        // mining onward (kernel checks, cache traffic, miner timings).
        let obs = EngineObs::new(EngineObs::scoped_registry(), "maintenance");
        let _obs_scope = obs.registry.enter();
        let states = bootstrap_states(&db, &spec)?;
        let base_fds: BaseFds = states
            .iter()
            .map(|s| (s.scope.label.clone(), s.cover.fds.clone()))
            .collect();
        let report = infine.discover_incremental(&db, &spec, &base_fds)?;
        let cover = report.fd_set();
        let subquery_tables = subquery_table_index(&spec);
        let view = if mode == MaintenanceMode::CoverOnly {
            bootstrap_backend(&db, &spec, delete_policy, view_mode)
        } else {
            None
        };
        Ok(MaintenanceEngine {
            infine,
            spec,
            db,
            states,
            mode,
            view_mode,
            view,
            report,
            cover,
            stale: HashSet::new(),
            delete_policy,
            table_indexes: HashMap::new(),
            table_row_maps: HashMap::new(),
            subquery_tables,
            obs,
        })
    }

    /// Bootstrap with the default pipeline configuration.
    pub fn with_defaults(
        db: Database,
        spec: ViewSpec,
    ) -> Result<MaintenanceEngine, MaintenanceError> {
        MaintenanceEngine::new(InFine::default(), db, spec)
    }

    /// Bootstrap the per-base cover state only, skipping the view-level
    /// pipeline run — [`MaintenanceEngine::report`] and
    /// [`MaintenanceEngine::fd_set`] start empty and stay stale until
    /// [`MaintenanceEngine::refresh_provenance`]. The fragment-engine
    /// constructor of the sharded service, which consumes only
    /// [`MaintenanceEngine::base_covers`] / `apply_base_only`.
    pub(crate) fn new_base_only(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        delete_policy: DeletePolicy,
        registry: infine_obs::Registry,
    ) -> Result<MaintenanceEngine, MaintenanceError> {
        // Fragment engines share the sharded façade's registry (and its
        // `engine="sharded"` label) instead of scoping their own: the
        // fleet is one logical engine.
        let obs = EngineObs::new(registry, "sharded");
        let _obs_scope = obs.registry.enter();
        let states = bootstrap_states(&db, &spec)?;
        let subquery_tables = subquery_table_index(&spec);
        Ok(MaintenanceEngine {
            infine,
            spec,
            db,
            states,
            mode: MaintenanceMode::ExactProvenance,
            view_mode: ViewMode::default(),
            view: None,
            report: InFineReport {
                schema: Schema::new(),
                triples: Vec::new(),
                timings: infine_core::PhaseTimings::default(),
                stats: infine_core::PipelineStats::default(),
            },
            cover: FdSet::new(),
            stale: HashSet::new(),
            delete_policy,
            table_indexes: HashMap::new(),
            table_row_maps: HashMap::new(),
            subquery_tables,
            obs,
        })
    }

    /// Rebuild a base-only fragment engine from snapshotted state: the
    /// fragment database (vacuum-canonical, persisted verbatim) and the
    /// per-label covers mined before the snapshot. The scoped relations
    /// re-project from the database — byte-equal to what was running,
    /// because projection shares columns and both sides are compact —
    /// and [`CoverState::restore`] recomputes partitions without
    /// re-mining, which is what makes recovery strictly cheaper than a
    /// bootstrap.
    pub(crate) fn restore_base_only(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        delete_policy: DeletePolicy,
        registry: infine_obs::Registry,
        covers: &BaseFds,
    ) -> Result<MaintenanceEngine, MaintenanceError> {
        let obs = EngineObs::new(registry, "sharded");
        let _obs_scope = obs.registry.enter();
        let states = base_scopes(&db, &spec)?
            .into_iter()
            .map(|scope| {
                let rel = scope.project(&db);
                let attrs = rel.attr_set();
                let fds = covers.get(&scope.label).cloned().ok_or_else(|| {
                    MaintenanceError::Durability(format!(
                        "snapshot carries no cover for base label {:?}",
                        scope.label
                    ))
                })?;
                let cover = CoverState::restore(&rel, attrs, fds);
                let dict_index = DictIndexes::build(&rel);
                let row_map = RowMap::identity(rel.nrows());
                Ok(BaseState {
                    scope,
                    rel,
                    cover,
                    dict_index,
                    row_map,
                })
            })
            .collect::<Result<Vec<BaseState>, MaintenanceError>>()?;
        let subquery_tables = subquery_table_index(&spec);
        Ok(MaintenanceEngine {
            infine,
            spec,
            db,
            states,
            mode: MaintenanceMode::ExactProvenance,
            view_mode: ViewMode::default(),
            view: None,
            report: InFineReport {
                schema: Schema::new(),
                triples: Vec::new(),
                timings: infine_core::PhaseTimings::default(),
                stats: infine_core::PipelineStats::default(),
            },
            cover: FdSet::new(),
            stale: HashSet::new(),
            delete_policy,
            table_indexes: HashMap::new(),
            table_row_maps: HashMap::new(),
            subquery_tables,
            obs,
        })
    }

    /// The maintained view specification.
    pub fn spec(&self) -> &ViewSpec {
        &self.spec
    }

    /// The current database (base tables after every applied batch).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The active maintenance mode.
    pub fn mode(&self) -> MaintenanceMode {
        self.mode
    }

    /// The configured view backend mode.
    pub fn view_mode(&self) -> ViewMode {
        self.view_mode
    }

    /// The backend actually carrying cover-only rounds right now —
    /// `None` outside cover-only mode, and [`ViewMode::Materialized`]
    /// when a [`ViewMode::JoinIndex`] request fell back on an
    /// unsupported spec.
    pub fn active_view_mode(&self) -> Option<ViewMode> {
        self.view.as_ref().map(|v| v.mode())
    }

    /// Resident materialized view rows the active backend holds — zero
    /// for the virtual backend (and outside cover-only mode).
    pub fn resident_view_rows(&self) -> usize {
        self.view.as_ref().map_or(0, |v| v.resident_view_rows())
    }

    /// Does the spec support the cover-only fast path (inner joins, no
    /// repeated base table)?
    pub fn supports_cover_fast_path(&self) -> bool {
        view::supports(&self.spec)
    }

    /// Switch modes. Entering cover-only mode (re)materializes the
    /// augmented view; entering exact mode refreshes provenance so the
    /// report is current again.
    pub fn set_mode(&mut self, mode: MaintenanceMode) -> Result<(), MaintenanceError> {
        if mode == self.mode {
            return Ok(());
        }
        self.mode = mode;
        match mode {
            MaintenanceMode::CoverOnly => {
                // The view materializes from the stored tables — they
                // must be compact (no-op unless fast tombstone rounds
                // preceded a round-trip through exact mode).
                self.compact_stored_tables();
                self.view =
                    bootstrap_backend(&self.db, &self.spec, self.delete_policy, self.view_mode);
            }
            MaintenanceMode::ExactProvenance => {
                self.view = None;
                self.refresh_provenance()?;
            }
        }
        Ok(())
    }

    /// The last exact pipeline report. Current in exact mode; in
    /// cover-only mode it reflects the last bootstrap/refresh (call
    /// [`MaintenanceEngine::refresh_provenance`] to bring it current).
    pub fn report(&self) -> &InFineReport {
        &self.report
    }

    /// The current FD cover of the view.
    pub fn fd_set(&self) -> FdSet {
        self.cover.clone()
    }

    /// Re-derive exact provenance triples for the current database by
    /// replaying the pipeline with the maintained base FD sets (base
    /// mining skipped — except for tables whose per-table state went
    /// stale during cover-only rounds, which are re-mined here once).
    /// Updates [`MaintenanceEngine::report`].
    pub fn refresh_provenance(&mut self) -> Result<&InFineReport, MaintenanceError> {
        let _obs_scope = self.obs.registry.enter();
        // The pipeline replays on the stored tables; restore the compact
        // invariant first (no-op outside tombstoned fast rounds).
        self.compact_stored_tables();
        self.resync_stale_states();
        let base_fds: BaseFds = self
            .states
            .iter()
            .map(|s| (s.scope.label.clone(), s.cover.fds.clone()))
            .collect();
        self.report = self
            .infine
            .discover_incremental(&self.db, &self.spec, &base_fds)?;
        if self.mode == MaintenanceMode::ExactProvenance {
            self.cover = self.report.fd_set();
        }
        Ok(&self.report)
    }

    /// Apply one batch.
    pub fn apply_one(
        &mut self,
        delta: &DeltaRelation,
    ) -> Result<MaintenanceReport, MaintenanceError> {
        self.apply(std::slice::from_ref(delta))
    }

    /// Apply a round of delta batches (at most one per base table) and
    /// bring the FD set current.
    ///
    /// Row ids in each batch address the targeted table *as of the
    /// previous round*. The returned report carries the new cover, the
    /// per-FD classification, per-table accounting, and the timing
    /// breakdown.
    pub fn apply(
        &mut self,
        deltas: &[DeltaRelation],
    ) -> Result<MaintenanceReport, MaintenanceError> {
        let _obs_scope = self.obs.registry.enter();
        let obs_before = self.obs.registry.snapshot();
        let round_t0 = Instant::now();
        let mut timings = MaintenanceTimings::default();
        // Validate every batch before touching any state: a mid-round
        // panic would leave the engine's db/view/cover inconsistent.
        validate_deltas(&self.db, deltas)?;

        let mut changed_tables: HashSet<String> = HashSet::new();
        let mut base_reports: Vec<BaseMaintenance> = Vec::new();
        let mut view_cover_stats: Option<CoverDeltaStats> = None;
        let use_fast = self.mode == MaintenanceMode::CoverOnly && self.view.is_some();
        if !use_fast {
            // Defensive: per-table state that missed fast-round deltas
            // must be current before it is maintained further or fed to
            // the pipeline (mode switches already resync, so this is a
            // no-op in practice).
            self.resync_stale_states();
        }

        for delta in deltas {
            if delta.batch.is_empty() {
                continue;
            }
            changed_tables.insert(delta.target.clone());

            // Fast path first: the view state needs the pre-batch table
            // untouched only via its own caches, but run it before the
            // db swap for clarity.
            if use_fast {
                let t0 = Instant::now();
                if let Some(stats) = self
                    .view
                    .as_mut()
                    .expect("use_fast checked")
                    .apply_table(&delta.target, &delta.batch)
                {
                    let merged = view_cover_stats.get_or_insert_with(CoverDeltaStats::default);
                    merged.held += stats.held;
                    merged.broken += stats.broken;
                    merged.recovered += stats.recovered;
                    merged.surfaced += stats.surfaced;
                    merged.plis_patched += stats.plis_patched;
                    merged.plis_evicted += stats.plis_evicted;
                    merged.dirty_classes += stats.dirty_classes;
                }
                timings.view_maintain += t0.elapsed();
            }

            // Patch the stored base table (taken out of the database so
            // the dictionary Arcs are extended in place, not cloned).
            // Fast rounds under the tombstone policy mark instead of
            // compacting — the stored table is not read again until
            // provenance refresh/resync, which vacuum first. The exact
            // path keeps the table compact: the pipeline replays on it
            // this very round.
            let t0 = Instant::now();
            let table = self.db.remove(&delta.target).expect("validated above");
            let index = self
                .table_indexes
                .entry(delta.target.clone())
                .or_insert_with(|| DictIndexes::build(&table));
            let new_table = if use_fast && self.delete_policy == DeletePolicy::Tombstone {
                let map = self
                    .table_row_maps
                    .entry(delta.target.clone())
                    .or_insert_with(|| RowMap::identity(table.nrows()));
                let phys = map.rebase_batch(&delta.batch, table.nrows());
                let (t, _) = table.apply_delta_tombstoned(
                    &phys,
                    &delta.batch.inserts,
                    delta.target.clone(),
                    index,
                );
                t
            } else {
                let (t, _) = table.apply_delta_owned(&delta.batch, delta.target.clone(), index);
                t
            };
            self.db.insert(new_table);
            timings.delta_apply += t0.elapsed();

            // Maintain every base occurrence of that table — or, in fast
            // rounds, defer (the per-table state is only needed when
            // provenance is refreshed).
            if use_fast {
                for state in self.states.iter() {
                    if state.scope.table == delta.target {
                        self.stale.insert(state.scope.label.clone());
                    }
                }
            } else {
                for state in self
                    .states
                    .iter_mut()
                    .filter(|s| s.scope.table == delta.target)
                {
                    base_reports.push(maintain_base(
                        state,
                        &delta.batch,
                        self.delete_policy,
                        &mut timings,
                    ));
                }
            }
        }

        // Snapshot the pre-batch provenance labels before the report is
        // replaced — the held-FD classification reports them.
        let old_triples: HashMap<Fd, ProvenanceTriple> = self
            .report
            .triples
            .iter()
            .map(|t| (t.fd, t.clone()))
            .collect();

        // Compute the new cover (and, in exact mode, the new triples).
        let (new_cover, new_triples, exact) = if use_fast {
            let view = self.view.as_ref().expect("use_fast checked");
            let cover = view.dense_cover();
            // Surviving triples keep their last-known labels.
            let triples: Vec<ProvenanceTriple> = self
                .report
                .triples
                .iter()
                .filter(|t| cover.contains(&t.fd))
                .cloned()
                .collect();
            (cover, triples, false)
        } else {
            let t0 = Instant::now();
            let base_fds: BaseFds = self
                .states
                .iter()
                .map(|s| (s.scope.label.clone(), s.cover.fds.clone()))
                .collect();
            let new_report = self
                .infine
                .discover_incremental(&self.db, &self.spec, &base_fds)?;
            timings.pipeline += t0.elapsed();
            let cover = new_report.fd_set();
            let triples = new_report.triples.clone();
            self.report = new_report;
            (cover, triples, true)
        };

        // Provenance-guided classification of the previously held cover.
        let old_cover = std::mem::replace(&mut self.cover, new_cover.clone());
        let (held, fresh) = classify_round(
            &old_triples,
            &old_cover,
            &new_cover,
            &self.subquery_tables,
            &changed_tables,
        );

        let schema = if exact {
            self.report.schema.clone()
        } else {
            self.view
                .as_ref()
                .map(|v| v.dense_schema())
                .unwrap_or_else(|| self.report.schema.clone())
        };
        self.obs.observe_round(&timings, round_t0.elapsed());
        Ok(MaintenanceReport {
            schema,
            cover: new_cover,
            triples: new_triples,
            held,
            fresh,
            base: base_reports,
            view_cover: view_cover_stats,
            exact_provenance: exact,
            vacuum: None,
            timings,
            metrics: RoundMetrics::capture(&self.obs.registry, &obs_before),
        })
    }

    /// The maintained per-base-occurrence FD covers, keyed by label — the
    /// [`BaseFds`] this engine would feed to
    /// [`InFine::discover_incremental`]. Labels whose state went stale
    /// during cover-only rounds are resynced first.
    pub fn base_covers(&mut self) -> BaseFds {
        self.resync_stale_states();
        self.states
            .iter()
            .map(|s| (s.scope.label.clone(), s.cover.fds.clone()))
            .collect()
    }

    /// [`MaintenanceEngine::base_covers`] restricted to the labels whose
    /// underlying table is in `tables` — the per-round slice the sharded
    /// engine re-merges (covers of untouched labels are cached there,
    /// so cloning them would be waste).
    pub(crate) fn base_covers_for(&mut self, tables: &HashSet<String>) -> BaseFds {
        self.resync_stale_states();
        self.states
            .iter()
            .filter(|s| tables.contains(&s.scope.table))
            .map(|s| (s.scope.label.clone(), s.cover.fds.clone()))
            .collect()
    }

    /// Maintain only the per-base-table covers through a round, skipping
    /// the view-level pipeline replay and FD classification entirely —
    /// the fragment-engine workhorse of the sharded service, where a
    /// shard's view-level state is never read and only
    /// [`MaintenanceEngine::base_covers`] is consumed.
    ///
    /// After this call [`MaintenanceEngine::report`] and
    /// [`MaintenanceEngine::fd_set`] lag the database (bring them current
    /// with [`MaintenanceEngine::refresh_provenance`]); `base_covers`
    /// stays exact. A later [`MaintenanceEngine::apply`] still produces a
    /// correct new cover — only its held-FD baseline is the last exact
    /// report.
    pub(crate) fn apply_base_only(
        &mut self,
        deltas: &[DeltaRelation],
    ) -> Result<(Vec<BaseMaintenance>, MaintenanceTimings), MaintenanceError> {
        let _obs_scope = self.obs.registry.enter();
        validate_deltas(&self.db, deltas)?;
        self.resync_stale_states();
        let mut timings = MaintenanceTimings::default();
        let mut reports = Vec::new();
        for delta in deltas {
            if delta.batch.is_empty() {
                continue;
            }
            // Patch the stored fragment table. Base-only engines never
            // replay a pipeline on it, so the tombstone policy can mark
            // instead of compacting indefinitely — vacuum reclaims.
            let t0 = Instant::now();
            let table = self.db.remove(&delta.target).expect("validated above");
            let index = self
                .table_indexes
                .entry(delta.target.clone())
                .or_insert_with(|| DictIndexes::build(&table));
            let new_table = if self.delete_policy == DeletePolicy::Tombstone {
                let map = self
                    .table_row_maps
                    .entry(delta.target.clone())
                    .or_insert_with(|| RowMap::identity(table.nrows()));
                let phys = map.rebase_batch(&delta.batch, table.nrows());
                let (t, _) = table.apply_delta_tombstoned(
                    &phys,
                    &delta.batch.inserts,
                    delta.target.clone(),
                    index,
                );
                t
            } else {
                let (t, _) = table.apply_delta_owned(&delta.batch, delta.target.clone(), index);
                t
            };
            self.db.insert(new_table);
            timings.delta_apply += t0.elapsed();
            for state in self
                .states
                .iter_mut()
                .filter(|s| s.scope.table == delta.target)
            {
                reports.push(maintain_base(
                    state,
                    &delta.batch,
                    self.delete_policy,
                    &mut timings,
                ));
            }
        }
        Ok((reports, timings))
    }

    /// The active delete policy.
    pub fn delete_policy(&self) -> DeletePolicy {
        self.delete_policy
    }

    /// Point-in-time memory accounting: physical vs live rows and
    /// dictionary entries across every relation this engine holds
    /// (stored tables, scoped base states, view nodes with their rid
    /// columns). [`TombstoneStats::fraction`] is what the service's
    /// vacuum policy thresholds on.
    pub fn tombstone_stats(&self) -> TombstoneStats {
        let mut stats = TombstoneStats::default();
        for name in self.db.names() {
            stats.merge(TombstoneStats::of(self.db.expect(name)));
        }
        for state in &self.states {
            stats.merge(TombstoneStats::of(&state.rel));
        }
        if let Some(view) = &self.view {
            stats.merge(view.tombstone_stats());
        }
        stats
    }

    /// Restore the compact invariant everywhere: vacuum every tombstoned
    /// relation (stored tables, scoped base states, and — in cover-only
    /// mode — the materialized view's nodes, whose rid columns and
    /// dictionaries are garbage-collected along the way), rebase the
    /// cached PLIs and violation witnesses across the move, rebuild the
    /// dictionary indexes, and reset the row maps to the identity.
    ///
    /// The maintained covers, reports, and the externally visible
    /// logical row addressing are all unchanged — vacuum moves bytes,
    /// never answers. Idempotent; a no-op on a fully compact engine.
    pub fn vacuum(&mut self) -> VacuumStats {
        let _obs_scope = self.obs.registry.enter();
        let t0 = Instant::now();
        let mut stats = VacuumStats::default();
        stats.merge(self.compact_stored_tables());

        let stale = &self.stale;
        for state in &mut self.states {
            if !state.rel.has_tombstones() || stale.contains(&state.scope.label) {
                // Stale states are rebuilt wholesale at the next resync;
                // compacting them now would be wasted work.
                continue;
            }
            stats.relations += 1;
            stats.rows_dropped += state.rel.tombstone_count();
            let old = std::mem::replace(&mut state.rel, Relation::empty("", Schema::new()));
            let dicts_before = dict_entries(&old);
            let (v, applied) = old.vacuum();
            stats.dict_entries_dropped += dicts_before - dict_entries(&v);
            state.cover.rebase_rows(&v, &applied);
            state.dict_index = DictIndexes::build(&v);
            state.row_map.reset_identity(v.nrows());
            state.rel = v;
        }

        if let Some(view) = self.view.as_mut() {
            stats.merge(view.vacuum());
        }
        stats.duration = t0.elapsed();
        self.obs.observe_vacuum(&stats);
        stats
    }

    /// Vacuum the *stored tables* only (the relations the pipeline and
    /// scope projections read) — the guard run before any path that
    /// consumes them, and the first phase of [`MaintenanceEngine::vacuum`].
    fn compact_stored_tables(&mut self) -> VacuumStats {
        let mut stats = VacuumStats::default();
        let names: Vec<String> = self.db.names().map(str::to_string).collect();
        for name in names {
            let table = self.db.remove(&name).expect("listed above");
            if !table.has_tombstones() {
                self.db.insert(table);
                continue;
            }
            stats.relations += 1;
            stats.rows_dropped += table.tombstone_count();
            let dicts_before = dict_entries(&table);
            let (v, _) = table.vacuum();
            stats.dict_entries_dropped += dicts_before - dict_entries(&v);
            // Codes changed: the persistent dictionary index and the
            // logical row map both restart from the compact relation.
            self.table_indexes
                .insert(name.clone(), DictIndexes::build(&v));
            if let Some(map) = self.table_row_maps.get_mut(&name) {
                map.reset_identity(v.nrows());
            }
            self.db.insert(v);
        }
        stats
    }

    /// Soak/debug hook: verify the engine's incremental state against
    /// from-scratch rebuilds — every non-stale base state's cover,
    /// partitions, and witnesses are checked against its scoped relation
    /// ([`CoverState::self_check`]), and — under the tombstone policy,
    /// the only one that maintains them — row maps must agree with their
    /// relations' live counts. O(full re-mine); tests only.
    pub fn self_check(&self) {
        // Compact rounds never consult or update the logical row maps
        // (they are reset wholesale by vacuum/resync), so row-map sync
        // is only an invariant under tombstones.
        let maps_maintained = self.delete_policy == DeletePolicy::Tombstone;
        for state in &self.states {
            assert!(
                !maps_maintained || state.row_map.len() == state.rel.live_rows(),
                "{}: row map diverged from live rows",
                state.scope.label
            );
            if !self.stale.contains(&state.scope.label) {
                state.cover.self_check(&state.rel);
            }
        }
        for (name, map) in &self.table_row_maps {
            assert!(
                !maps_maintained || map.len() == self.db.expect(name).live_rows(),
                "{name}: table row map diverged from live rows"
            );
        }
    }
}

/// Validate a round of delta batches against `db` without touching any
/// state: unknown targets, duplicate targets, out-of-range deletes, and
/// arity-mismatched inserts are all rejected up front (shared by
/// [`MaintenanceEngine::apply`] and the sharded engine).
pub(crate) fn validate_deltas(
    db: &Database,
    deltas: &[DeltaRelation],
) -> Result<(), MaintenanceError> {
    let mut seen: HashSet<&str> = HashSet::new();
    for d in deltas {
        let Some(table) = db.get(&d.target) else {
            return Err(MaintenanceError::UnknownTable(d.target.clone()));
        };
        if !seen.insert(&d.target) {
            return Err(MaintenanceError::DuplicateTarget(d.target.clone()));
        }
        if let Some(&row) = d
            .batch
            .deletes
            .iter()
            .find(|&&r| r as usize >= table.live_rows())
        {
            return Err(MaintenanceError::BadBatch(format!(
                "delete of row {row} out of range for {:?} ({} rows)",
                d.target,
                table.live_rows()
            )));
        }
        if let Some(bad) = d.batch.inserts.iter().find(|r| r.len() != table.ncols()) {
            return Err(MaintenanceError::BadBatch(format!(
                "insert arity {} does not match {:?} ({} columns)",
                bad.len(),
                d.target,
                table.ncols()
            )));
        }
    }
    Ok(())
}

/// Does the triple's justifying sub-query sit above a changed table?
/// Unknown sub-query strings (defensive) count as touched.
fn provenance_touched(
    subquery_tables: &HashMap<String, HashSet<String>>,
    t: &ProvenanceTriple,
    changed: &HashSet<String>,
) -> bool {
    match subquery_tables.get(&t.subquery) {
        Some(tables) => tables.iter().any(|tb| changed.contains(tb)),
        None => !changed.is_empty(),
    }
}

/// Provenance-guided classification of a round: how each FD of the
/// previously held cover fared (with its best-known provenance label),
/// plus the FDs fresh in the new cover. Shared by the unsharded engine
/// and the sharded service so per-round classifications are identical by
/// construction.
pub(crate) fn classify_round(
    old_triples: &HashMap<Fd, ProvenanceTriple>,
    old_cover: &FdSet,
    new_cover: &FdSet,
    subquery_tables: &HashMap<String, HashSet<String>>,
    changed: &HashSet<String>,
) -> (Vec<(ProvenanceTriple, FdStatus)>, Vec<Fd>) {
    let held = old_cover
        .iter()
        .map(|fd| {
            // Use the best provenance label we have for the held FD; FDs
            // without one (fresh under cover-only rounds, whose labels
            // were never derived) get a synthetic one.
            let triple = old_triples
                .get(&fd)
                .cloned()
                .unwrap_or_else(|| ProvenanceTriple::new(fd, FdKind::JoinFd, "Δ-maintained"));
            let status = if !new_cover.contains(&fd) {
                FdStatus::Invalidated
            } else if provenance_touched(subquery_tables, &triple, changed) {
                FdStatus::Revalidated
            } else {
                FdStatus::Untouched
            };
            (triple, status)
        })
        .collect();
    let fresh: Vec<Fd> = new_cover
        .iter()
        .filter(|fd| !old_cover.contains(fd))
        .collect();
    (held, fresh)
}

impl MaintenanceEngine {
    /// Rebuild per-table FD state for every label that missed deltas
    /// during cover-only rounds.
    fn resync_stale_states(&mut self) {
        if self.stale.is_empty() {
            return;
        }
        // Stale states re-project from the stored tables, which must be
        // compact (tombstoned fast rounds leave them marked).
        self.compact_stored_tables();
        for state in self.states.iter_mut() {
            if self.stale.remove(&state.scope.label) {
                resync_state(state, &self.db);
            }
        }
        self.stale.clear();
    }
}

/// Bootstrap the cover-only backend `view_mode` asks for:
/// [`ViewMode::JoinIndex`] builds a [`VirtualView`] when the spec is in
/// the virtual subset and falls back to the materialized [`ViewState`]
/// otherwise; [`ViewMode::Materialized`] always materializes. `None`
/// when even the materialized fast path cannot carry the spec.
fn bootstrap_backend(
    db: &Database,
    spec: &ViewSpec,
    delete_policy: DeletePolicy,
    view_mode: ViewMode,
) -> Option<Box<dyn ViewBackend>> {
    if view_mode == ViewMode::JoinIndex {
        if let Some(v) = VirtualView::bootstrap(db, spec, delete_policy) {
            return Some(Box::new(v));
        }
    }
    ViewState::bootstrap(db, spec, delete_policy).map(|v| Box::new(v) as Box<dyn ViewBackend>)
}

/// Mine the per-base-occurrence cover state of a view from scratch — the
/// shared bootstrap block of every engine constructor (unsharded modes
/// and the sharded service's fragment engines alike, so their base-state
/// semantics cannot drift apart).
fn bootstrap_states(db: &Database, spec: &ViewSpec) -> Result<Vec<BaseState>, MaintenanceError> {
    Ok(base_scopes(db, spec)?
        .into_iter()
        .map(|scope| {
            let rel = scope.project(db);
            let attrs = rel.attr_set();
            let cover = CoverState::bootstrap(&rel, attrs);
            let dict_index = DictIndexes::build(&rel);
            let row_map = RowMap::identity(rel.nrows());
            BaseState {
                scope,
                rel,
                cover,
                dict_index,
                row_map,
            }
        })
        .collect())
}

/// Recompute a base state's scoped relation and cover from the current
/// database (used when the incremental history was skipped).
fn resync_state(state: &mut BaseState, db: &Database) {
    state.rel = state.scope.project(db);
    let attrs = state.rel.attr_set();
    state.cover = CoverState::bootstrap(&state.rel, attrs);
    state.dict_index = DictIndexes::build(&state.rel);
    state.row_map.reset_identity(state.rel.nrows());
}

/// Maintain one base occurrence through a batch; returns the accounting.
/// Under [`DeletePolicy::Tombstone`] the scoped batch is translated to
/// the state's physical row space and applied without compaction.
fn maintain_base(
    state: &mut BaseState,
    batch: &DeltaBatch,
    policy: DeletePolicy,
    timings: &mut MaintenanceTimings,
) -> BaseMaintenance {
    let t0 = Instant::now();
    let scoped_batch = batch.project(&state.scope.attrs);
    let name = state.rel.name.clone();
    let old = std::mem::replace(&mut state.rel, Relation::empty("", Schema::new()));
    let rows_before = old.live_rows();
    let (new_rel, applied) = match policy {
        DeletePolicy::Compact => old.apply_delta_owned(&scoped_batch, name, &mut state.dict_index),
        DeletePolicy::Tombstone => {
            let phys = state.row_map.rebase_batch(&scoped_batch, old.nrows());
            old.apply_delta_tombstoned(&phys, &scoped_batch.inserts, name, &mut state.dict_index)
        }
    };
    timings.delta_apply += t0.elapsed();

    let t1 = Instant::now();
    let stats = state.cover.maintain(&new_rel, &applied);
    timings.base_maintain += t1.elapsed();

    let out = BaseMaintenance {
        label: state.scope.label.clone(),
        table: state.scope.table.clone(),
        rows_before,
        rows_after: new_rel.live_rows(),
        deleted: applied.num_deleted(),
        inserted: applied.num_inserted(),
        cover: stats,
    };
    state.rel = new_rel;
    out
}

/// Rendered sub-query → base tables beneath it, for every node of the
/// spec (plus the root-projection label `π(spec)` the pipeline emits when
/// it restricts to the final attribute set).
pub(crate) fn subquery_table_index(spec: &ViewSpec) -> HashMap<String, HashSet<String>> {
    fn walk(spec: &ViewSpec, out: &mut HashMap<String, HashSet<String>>) -> HashSet<String> {
        let tables: HashSet<String> = match spec {
            ViewSpec::Base { table, .. } => [table.clone()].into_iter().collect(),
            ViewSpec::Project { input, .. } | ViewSpec::Select { input, .. } => walk(input, out),
            ViewSpec::Join { left, right, .. } => {
                let mut t = walk(left, out);
                t.extend(walk(right, out));
                t
            }
        };
        out.insert(spec.to_string(), tables.clone());
        tables
    }
    let mut out = HashMap::new();
    let all = walk(spec, &mut out);
    out.insert(format!("π({spec})"), all);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_algebra::execute;
    use infine_discovery::{same_fds, tane};
    use infine_relation::{relation_from_rows, AttrSet, Value};

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

    fn assert_current(engine: &MaintenanceEngine) {
        let fresh = InFine::default()
            .discover(engine.database(), engine.spec())
            .unwrap();
        assert_eq!(
            engine.report().triples,
            fresh.triples,
            "engine state diverged from full re-discovery"
        );
    }

    /// The engine's database with tombstones compacted away — the oracle
    /// view must be computed over live rows only.
    fn compacted_db(engine: &MaintenanceEngine) -> Database {
        let mut out = Database::new();
        for name in engine.database().names() {
            let (v, _) = engine.database().expect(name).clone().vacuum();
            out.insert(v);
        }
        out
    }

    /// Cover-only invariant: the engine's cover is the canonical minimal
    /// cover of the materialized view (name-aligned).
    fn assert_cover_current(engine: &MaintenanceEngine, schema: &Schema) {
        let compact = compacted_db(engine);
        let real = execute(engine.spec(), &compact).unwrap();
        let canonical = tane(&real, real.attr_set());
        let map: Vec<usize> = (0..schema.len())
            .map(|i| real.schema.expect_id(schema.name(i)))
            .collect();
        let remapped = engine
            .fd_set()
            .iter()
            .map(|fd| {
                Fd::new(
                    fd.lhs.iter().map(|a| map[a]).collect::<AttrSet>(),
                    map[fd.rhs],
                )
            })
            .fold(FdSet::new(), |mut s, fd| {
                s.insert_minimal(fd);
                s
            });
        assert!(
            same_fds(&remapped, &canonical),
            "cover diverged from canonical:\n{:?}\nvs\n{:?}",
            remapped.to_sorted_vec(),
            canonical.to_sorted_vec()
        );
    }

    #[test]
    fn bootstrap_matches_full_discovery() {
        let engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        assert_current(&engine);
    }

    #[test]
    fn insert_breaking_an_fd_is_tracked() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        // grp → flag holds on p; break it with a row that joins (pid 2
        // matches q), so the violation reaches the view.
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(2), Value::str("a"), Value::Int(9)]);
        let report = engine.apply_one(&DeltaRelation::new("p", batch)).unwrap();
        assert!(
            report.count_status(FdStatus::Invalidated) > 0,
            "{}",
            report.summary()
        );
        assert!(report.base[0].cover.broken > 0);
        assert!(report.exact_provenance);
        // Held FDs are classified with their real pre-batch provenance
        // labels, never the synthetic cover-only placeholder.
        assert!(report
            .held
            .iter()
            .all(|(t, _)| t.subquery != "Δ-maintained"));
        assert_current(&engine);
        assert!(same_fds(&engine.fd_set(), &report.fd_set()));
    }

    #[test]
    fn dangling_insert_upstages_instead_of_invalidating() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        // pid 5 has no partner in q: the base FD grp → flag breaks on p
        // but the violating row dangles out of the inner join, so the
        // view cover is unchanged — the FD merely changes provenance.
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(5), Value::str("a"), Value::Int(9)]);
        let report = engine.apply_one(&DeltaRelation::new("p", batch)).unwrap();
        assert!(report.base[0].cover.broken > 0);
        assert_eq!(report.count_status(FdStatus::Invalidated), 0);
        assert_current(&engine);
    }

    #[test]
    fn delete_surfacing_an_fd_is_tracked() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut batch = DeltaBatch::new();
        batch.delete(2).delete(3);
        let report = engine.apply_one(&DeltaRelation::new("p", batch)).unwrap();
        assert_eq!(report.base[0].deleted, 2);
        assert_current(&engine);
        // deletes alone never require revalidation of base FDs
        assert_eq!(report.base[0].cover.broken, 0);
    }

    #[test]
    fn untouched_tables_leave_fds_untouched() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(9), Value::str("z")]);
        let report = engine.apply_one(&DeltaRelation::new("q", batch)).unwrap();
        // base-only FDs justified by p alone are untouched
        let untouched_from_p = report
            .held
            .iter()
            .filter(|(t, s)| *s == FdStatus::Untouched && t.subquery == "p")
            .count();
        assert!(untouched_from_p > 0, "{}", report.summary());
        assert_current(&engine);
    }

    #[test]
    fn mixed_rounds_stay_equivalent() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let rounds: Vec<(&str, DeltaBatch)> = vec![
            ("p", {
                let mut b = DeltaBatch::new();
                b.delete(0)
                    .insert(vec![Value::Int(7), Value::str("b"), Value::Int(0)]);
                b
            }),
            ("q", {
                let mut b = DeltaBatch::new();
                b.insert(vec![Value::Int(7), Value::str("x")])
                    .insert(vec![Value::Int(4), Value::str("y")])
                    .delete(1);
                b
            }),
            ("p", {
                let mut b = DeltaBatch::new();
                b.insert(vec![Value::Int(8), Value::str("c"), Value::Int(2)])
                    .insert(vec![Value::Int(9), Value::str("c"), Value::Int(2)]);
                b
            }),
        ];
        for (target, batch) in rounds {
            engine
                .apply_one(&DeltaRelation::new(target, batch))
                .unwrap();
            assert_current(&engine);
        }
    }

    #[test]
    fn cover_only_mode_maintains_canonical_cover() {
        let mut engine = MaintenanceEngine::with_mode(
            InFine::default(),
            db(),
            view(),
            MaintenanceMode::CoverOnly,
        )
        .unwrap();
        assert!(engine.supports_cover_fast_path());
        let rounds: Vec<(&str, DeltaBatch)> = vec![
            ("p", {
                let mut b = DeltaBatch::new();
                b.insert(vec![Value::Int(2), Value::str("a"), Value::Int(9)]);
                b
            }),
            ("q", {
                let mut b = DeltaBatch::new();
                b.delete(0).insert(vec![Value::Int(4), Value::str("w")]);
                b
            }),
            ("p", {
                let mut b = DeltaBatch::new();
                b.delete(1).delete(2);
                b
            }),
        ];
        for (target, batch) in rounds {
            let report = engine
                .apply_one(&DeltaRelation::new(target, batch))
                .unwrap();
            assert!(!report.exact_provenance);
            assert!(report.view_cover.is_some());
            assert_cover_current(&engine, &report.schema);
        }
        // provenance refresh brings exact triples back, with no base
        // mining, and the pipeline cover is logically the canonical one
        // (id spaces aligned by name first).
        let canonical = engine.fd_set();
        let view_schema = engine
            .view
            .as_ref()
            .map(|v| v.dense_schema())
            .expect("cover-only mode keeps the view");
        let report = engine.refresh_provenance().unwrap();
        assert_eq!(report.timings.base_mining, Duration::ZERO);
        let map: Vec<usize> = (0..view_schema.len())
            .map(|i| report.schema.expect_id(view_schema.name(i)))
            .collect();
        let remapped = canonical
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
        assert!(report.fd_set().equivalent(&remapped));
    }

    #[test]
    fn cover_only_falls_back_on_outer_joins() {
        let spec = ViewSpec::base("p").join(
            ViewSpec::base("q"),
            infine_algebra::JoinOp::LeftOuter,
            &[("pid", "pid")],
        );
        let mut engine =
            MaintenanceEngine::with_mode(InFine::default(), db(), spec, MaintenanceMode::CoverOnly)
                .unwrap();
        assert!(!engine.supports_cover_fast_path());
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(9), Value::str("c"), Value::Int(1)]);
        let report = engine.apply_one(&DeltaRelation::new("p", batch)).unwrap();
        // fell back to the exact path
        assert!(report.exact_provenance);
        assert_current(&engine);
    }

    #[test]
    fn mode_switching_round_trips() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        engine.set_mode(MaintenanceMode::CoverOnly).unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(1), Value::str("b"), Value::Int(4)]);
        let report = engine.apply_one(&DeltaRelation::new("p", batch)).unwrap();
        assert!(!report.exact_provenance);
        engine.set_mode(MaintenanceMode::ExactProvenance).unwrap();
        assert_current(&engine);
    }

    #[test]
    fn batches_to_both_tables_in_one_round() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut bp = DeltaBatch::new();
        bp.insert(vec![Value::Int(5), Value::str("a"), Value::Int(0)]);
        let mut bq = DeltaBatch::new();
        bq.delete(3);
        let report = engine
            .apply(&[DeltaRelation::new("p", bp), DeltaRelation::new("q", bq)])
            .unwrap();
        assert_eq!(report.base.len(), 2);
        assert_current(&engine);
    }

    #[test]
    fn empty_round_is_all_untouched() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let held_before = engine.fd_set().len();
        let report = engine.apply(&[]).unwrap();
        assert_eq!(report.count_status(FdStatus::Untouched), held_before);
        assert!(report.fresh.is_empty());
        assert_current(&engine);
    }

    #[test]
    fn unknown_target_is_rejected() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let err = engine
            .apply_one(&DeltaRelation::new("nope", DeltaBatch::new()))
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::UnknownTable(_)));
    }

    #[test]
    fn malformed_batches_are_rejected_atomically() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let before = engine.fd_set();
        let rows_before = engine.database().expect("p").nrows();

        // First batch is fine, second is out of range: nothing may apply.
        let mut ok = DeltaBatch::new();
        ok.insert(vec![Value::Int(5), Value::str("a"), Value::Int(0)]);
        let mut bad = DeltaBatch::new();
        bad.delete(99);
        let err = engine
            .apply(&[DeltaRelation::new("p", ok), DeltaRelation::new("q", bad)])
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::BadBatch(_)));
        assert_eq!(engine.database().expect("p").nrows(), rows_before);
        assert!(same_fds(&engine.fd_set(), &before));

        // Wrong arity is rejected the same way.
        let mut bad = DeltaBatch::new();
        bad.insert(vec![Value::Int(1)]);
        let err = engine.apply_one(&DeltaRelation::new("p", bad)).unwrap_err();
        assert!(matches!(err, MaintenanceError::BadBatch(_)));
        assert_current(&engine);
    }

    #[test]
    fn duplicate_target_is_rejected() {
        let mut engine = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let err = engine
            .apply(&[
                DeltaRelation::new("p", DeltaBatch::new()),
                DeltaRelation::new("p", DeltaBatch::new()),
            ])
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::DuplicateTarget(_)));
    }

    #[test]
    fn aliased_self_join_maintains_both_occurrences() {
        let mut db = Database::new();
        db.insert(relation_from_rows(
            "e",
            &["id", "boss"],
            &[
                &[Value::Int(1), Value::Int(2)],
                &[Value::Int(2), Value::Int(2)],
                &[Value::Int(3), Value::Int(1)],
            ],
        ));
        let spec = ViewSpec::base_as("e", "w").join(
            ViewSpec::base_as("e", "m"),
            infine_algebra::JoinOp::Inner,
            &[("boss", "id")],
        );
        let mut engine = MaintenanceEngine::with_defaults(db, spec).unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(4), Value::Int(1)]).delete(0);
        let report = engine.apply_one(&DeltaRelation::new("e", batch)).unwrap();
        assert_eq!(report.base.len(), 2); // both w and m maintained
        assert_current(&engine);
    }

    #[test]
    fn tombstone_policy_exact_mode_stays_equivalent() {
        let mut engine = MaintenanceEngine::with_options(
            InFine::default(),
            db(),
            view(),
            MaintenanceMode::ExactProvenance,
            DeletePolicy::Tombstone,
            ViewMode::default(),
        )
        .unwrap();
        let rounds: Vec<(&str, DeltaBatch)> = vec![
            ("p", {
                let mut b = DeltaBatch::new();
                b.delete(0).delete(2);
                b
            }),
            ("q", {
                let mut b = DeltaBatch::new();
                b.delete(1).insert(vec![Value::Int(4), Value::str("w")]);
                b
            }),
            ("p", {
                let mut b = DeltaBatch::new();
                // post-delete logical state of p has rows 0..=1
                b.delete(1)
                    .insert(vec![Value::Int(3), Value::str("b"), Value::Int(1)]);
                b
            }),
        ];
        for (target, batch) in rounds {
            engine
                .apply_one(&DeltaRelation::new(target, batch))
                .unwrap();
            assert_current(&engine);
            engine.self_check();
        }
        // Scoped base states accumulated garbage; vacuum reclaims it and
        // changes no answer.
        let stats_before = engine.tombstone_stats();
        assert!(stats_before.dead_rows() > 0);
        let vac = engine.vacuum();
        assert!(!vac.is_noop());
        assert_eq!(vac.rows_dropped, stats_before.dead_rows());
        let after = engine.tombstone_stats();
        assert_eq!(after.dead_rows(), 0);
        assert!(after.dict_entries <= stats_before.dict_entries);
        assert_current(&engine);
        engine.self_check();
        // Idempotent.
        assert!(engine.vacuum().is_noop());
    }

    #[test]
    fn tombstone_policy_cover_only_rounds_and_refresh() {
        let mut engine = MaintenanceEngine::with_options(
            InFine::default(),
            db(),
            view(),
            MaintenanceMode::CoverOnly,
            DeletePolicy::Tombstone,
            ViewMode::default(),
        )
        .unwrap();
        let rounds: Vec<(&str, DeltaBatch)> = vec![
            ("p", {
                let mut b = DeltaBatch::new();
                b.insert(vec![Value::Int(2), Value::str("a"), Value::Int(9)]);
                b
            }),
            ("q", {
                let mut b = DeltaBatch::new();
                b.delete(0)
                    .delete(2)
                    .insert(vec![Value::Int(4), Value::str("w")]);
                b
            }),
            ("p", {
                let mut b = DeltaBatch::new();
                b.delete(1).delete(2);
                b
            }),
        ];
        for (target, batch) in rounds {
            let report = engine
                .apply_one(&DeltaRelation::new(target, batch))
                .unwrap();
            assert!(!report.exact_provenance);
            assert_cover_current(&engine, &report.schema);
        }
        // Stored tables and view nodes hold tombstones now.
        assert!(engine.tombstone_stats().dead_rows() > 0);
        let schema = engine
            .view
            .as_ref()
            .map(|v| v.dense_schema())
            .expect("cover-only keeps the view");
        // Vacuum mid-stream: cover unchanged, memory reclaimed.
        let vac = engine.vacuum();
        assert!(!vac.is_noop());
        assert_eq!(engine.tombstone_stats().dead_rows(), 0);
        assert_cover_current(&engine, &schema);
        if let Some(view) = &engine.view {
            view.self_check();
        }
        // Provenance refresh (pipeline on stored tables) auto-compacts
        // anything still marked and lands on full-discovery triples.
        engine.refresh_provenance().unwrap();
        assert_current(&engine);
    }

    #[test]
    fn tombstoned_db_reads_live_rows_for_validation() {
        let mut engine = MaintenanceEngine::with_options(
            InFine::default(),
            db(),
            view(),
            MaintenanceMode::CoverOnly,
            DeletePolicy::Tombstone,
            ViewMode::default(),
        )
        .unwrap();
        let mut b = DeltaBatch::new();
        b.delete(0).delete(1);
        engine.apply_one(&DeltaRelation::new("p", b)).unwrap();
        // p now has 2 live rows (physical 4): a delete of logical row 2
        // must be rejected, logical row 1 accepted.
        let mut bad = DeltaBatch::new();
        bad.delete(2);
        let err = engine.apply_one(&DeltaRelation::new("p", bad)).unwrap_err();
        assert!(matches!(err, MaintenanceError::BadBatch(_)));
        let mut ok = DeltaBatch::new();
        ok.delete(1);
        engine.apply_one(&DeltaRelation::new("p", ok)).unwrap();
        engine.refresh_provenance().unwrap();
        assert_eq!(engine.database().expect("p").nrows(), 1);
        assert_current(&engine);
    }

    #[test]
    fn selection_view_stays_equivalent() {
        let mut engine = MaintenanceEngine::with_defaults(
            db(),
            ViewSpec::base("p")
                .select(infine_algebra::Predicate::eq("flag", 0i64))
                .inner_join(ViewSpec::base("q"), &["pid"]),
        )
        .unwrap();
        let mut batch = DeltaBatch::new();
        batch
            .insert(vec![Value::Int(6), Value::str("b"), Value::Int(0)])
            .delete(1);
        engine.apply_one(&DeltaRelation::new("p", batch)).unwrap();
        assert_current(&engine);
    }
}
