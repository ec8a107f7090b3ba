//! Key-range delta sharding: several maintenance engines, each owning a
//! disjoint fragment of every base table, kept current in parallel and
//! merged into the exact global answer at read time.
//!
//! Three pieces:
//!
//! * [`ShardRouter`] — assigns every base-table row to a shard (contiguous
//!   rid ranges at bootstrap, a rotating cursor for fresh inserts) and
//!   splits each incoming [`DeltaBatch`] into per-shard sub-batches whose
//!   row ids address the shard's *local* fragment. The router is the only
//!   component that knows global row ids; everything downstream works
//!   fragment-locally.
//! * [`ShardedEngine`] — one [`MaintenanceEngine`] per shard over the
//!   fragment database, a full-table mirror for the read side, and the
//!   read-time cover merge: per base label the fragment covers are
//!   unioned with [`FdSet::extend_minimal`], candidates are revalidated
//!   against the full relation, and failures grow upward through the
//!   seeded lattice walk (see
//!   [`merge_fragment_covers`](infine_core::merge_fragment_covers)). The
//!   merged round report — cover, triples, and per-FD classification — is
//!   **identical** to an unsharded [`MaintenanceEngine`] fed the same
//!   batches, and therefore to full re-discovery.
//! * [`crate::service::MaintenanceService`] — the channel-driven loop
//!   wrapping this engine (deltas in, reports out, per-table coalescing
//!   between rounds).
//!
//! Shard rounds fan out over the `infine-exec` pool
//! ([`infine_exec::par_map_mut`], one task per shard) and maintain only
//! the per-base covers (`apply_base_only` — a shard's own view-level
//! state is never read, so no fragment pipeline replays); shards whose
//! sub-round is empty are skipped entirely — their fragments did not
//! change, so their covers are current by construction.

use crate::engine::{
    classify_round, subquery_table_index, validate_deltas, DeletePolicy, MaintenanceEngine,
    MaintenanceError, MaintenanceReport, MaintenanceTimings, TombstoneStats, VacuumStats,
};
use crate::obs::{EngineObs, RoundMetrics};
use crate::view::{ViewBackend, ViewMode, VirtualView};
use crate::CoverDeltaStats;
use infine_algebra::ViewSpec;
use infine_core::{
    base_scopes, merge_label_covers, BaseFds, BaseScope, InFine, InFineReport, ProvenanceTriple,
};
use infine_discovery::{Fd, FdSet};
use infine_relation::{Database, DeltaBatch, DeltaRelation, DictIndexes};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Where the router sends freshly inserted rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertPolicy {
    /// Rotate a per-table cursor across shards — keeps fragments balanced
    /// under append-heavy feeds.
    #[default]
    Spread,
    /// Every insert lands in one fixed shard (clamped to the shard
    /// count). Useful for tests and for skewed-ownership setups.
    Fixed(usize),
}

/// Home of one global row: which shard owns it and at which local rid.
/// (`pub(crate)` so [`crate::persist`] can freeze/restore the router.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowHome {
    pub(crate) shard: u32,
    pub(crate) local: u32,
}

/// Per-table routing state, indexed by *current* global row id.
#[derive(Debug)]
pub(crate) struct TableMap {
    pub(crate) home: Vec<RowHome>,
    /// Current fragment sizes per shard.
    pub(crate) frag_rows: Vec<usize>,
    /// Rotating insert cursor ([`InsertPolicy::Spread`]).
    pub(crate) cursor: usize,
}

/// Key-range partitioner for delta batches.
///
/// At bootstrap each table's rid space `0..n` is cut into `shards`
/// contiguous ranges (the same `ceil(n / shards)` dealing the exec pool
/// uses), so shard `s` owns one key range of every table. The router then
/// mirrors every batch it splits: deletes are translated to the owning
/// shard's local rids, surviving rows are compacted per shard exactly as
/// [`infine_relation::Relation::apply_delta`] will compact them, and
/// inserts are placed by the [`InsertPolicy`]. Row-id bookkeeping is the
/// router's whole job — it never touches row *data*.
#[derive(Debug)]
pub struct ShardRouter {
    pub(crate) shards: usize,
    pub(crate) policy: InsertPolicy,
    pub(crate) tables: HashMap<String, TableMap>,
}

impl ShardRouter {
    /// Partition `db`'s rid spaces into `shards` contiguous ranges.
    pub fn new(db: &Database, shards: usize) -> ShardRouter {
        ShardRouter::with_policy(db, shards, InsertPolicy::default())
    }

    /// [`ShardRouter::new`] with an explicit insert policy.
    pub fn with_policy(db: &Database, shards: usize, policy: InsertPolicy) -> ShardRouter {
        let shards = shards.max(1);
        let tables = db
            .names()
            .map(|name| {
                let n = db.expect(name).nrows();
                let chunk = n.div_ceil(shards).max(1);
                let mut frag_rows = vec![0usize; shards];
                let home = (0..n)
                    .map(|g| {
                        let shard = (g / chunk).min(shards - 1);
                        let local = frag_rows[shard];
                        frag_rows[shard] += 1;
                        RowHome {
                            shard: shard as u32,
                            local: local as u32,
                        }
                    })
                    .collect();
                (
                    name.to_string(),
                    TableMap {
                        home,
                        frag_rows,
                        cursor: 0,
                    },
                )
            })
            .collect();
        ShardRouter {
            shards,
            policy,
            tables,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Current fragment sizes of one table (rows per shard).
    pub fn fragment_rows(&self, table: &str) -> &[usize] {
        &self
            .tables
            .get(table)
            .expect("router knows every table")
            .frag_rows
    }

    /// Materialize the per-shard fragment databases for the router's
    /// *current* assignment (bootstrap: contiguous rid ranges). Fragments
    /// share the source tables' dictionaries (`Arc`) — building them is a
    /// code-vector copy, not a value copy.
    pub fn fragments(&self, db: &Database) -> Vec<Database> {
        (0..self.shards)
            .map(|s| {
                let mut frag = Database::new();
                for (name, tm) in &self.tables {
                    let table = db.expect(name);
                    let mut evict = DeltaBatch::new();
                    for (g, h) in tm.home.iter().enumerate() {
                        if h.shard as usize != s {
                            evict.delete(g as u32);
                        }
                    }
                    let (rel, _) = table.apply_delta(&evict, name.clone());
                    frag.insert(rel);
                }
                frag
            })
            .collect()
    }

    /// Split a round of batches into per-shard sub-rounds (local row
    /// ids), updating the row-home maps to the post-batch state. Batches
    /// must be pre-validated (in-range deletes, matching arity, one batch
    /// per table) — the router panics on malformed input rather than
    /// guessing.
    pub fn split(&mut self, deltas: &[DeltaRelation]) -> Vec<Vec<DeltaRelation>> {
        let mut out: Vec<Vec<DeltaRelation>> = (0..self.shards).map(|_| Vec::new()).collect();
        for d in deltas {
            if d.batch.is_empty() {
                continue;
            }
            let subs = self.route(&d.target, &d.batch);
            for (s, b) in subs.into_iter().enumerate() {
                if !b.is_empty() {
                    out[s].push(DeltaRelation::new(d.target.clone(), b));
                }
            }
        }
        out
    }

    /// Route one table's batch; mirror of one `apply_delta` call.
    fn route(&mut self, table: &str, batch: &DeltaBatch) -> Vec<DeltaBatch> {
        let tm = self
            .tables
            .get_mut(table)
            .expect("router knows every table");
        let n = tm.home.len();
        let mut subs: Vec<DeltaBatch> = vec![DeltaBatch::new(); self.shards];

        // Deletes: translate each global rid to its owner's local rid
        // (deduplicated — apply_delta tolerates duplicates, but the home
        // compaction below must count each row once).
        let mut dead = vec![false; n];
        for &g in &batch.deletes {
            let g = g as usize;
            assert!(
                g < n,
                "router: delete of row {g} out of range for {table:?} ({n} rows)"
            );
            if !dead[g] {
                dead[g] = true;
                let h = tm.home[g];
                subs[h.shard as usize].delete(h.local);
            }
        }

        // Survivors compact globally *and* per fragment in the same
        // relative order — recompute both numberings in one pass.
        let mut home: Vec<RowHome> = Vec::with_capacity(n);
        let mut frag_rows = vec![0usize; self.shards];
        for (old_home, _) in tm.home.iter().zip(&dead).filter(|(_, &is_dead)| !is_dead) {
            let s = old_home.shard as usize;
            home.push(RowHome {
                shard: s as u32,
                local: frag_rows[s] as u32,
            });
            frag_rows[s] += 1;
        }

        // Inserts: placed by policy, appended to the owner's fragment.
        for row in &batch.inserts {
            let s = match self.policy {
                InsertPolicy::Fixed(k) => k.min(self.shards - 1),
                InsertPolicy::Spread => {
                    let s = tm.cursor % self.shards;
                    tm.cursor += 1;
                    s
                }
            };
            subs[s].insert(row.clone());
            home.push(RowHome {
                shard: s as u32,
                local: frag_rows[s] as u32,
            });
            frag_rows[s] += 1;
        }

        tm.home = home;
        tm.frag_rows = frag_rows;
        subs
    }
}

/// A fleet of per-shard [`MaintenanceEngine`]s behind one exact façade.
///
/// `apply` routes each round through the [`ShardRouter`], runs the
/// affected shards' maintenance in parallel
/// ([`infine_exec::par_map_mut`]), and derives the round report from the
/// full-table mirror: per-label fragment covers are merged
/// ([`merge_fragment_covers`] — `extend_minimal` + global revalidation +
/// seeded lattice ascent) into exactly the [`BaseFds`] an unsharded
/// engine maintains, and the pipeline replays on them. Merged per-label
/// covers are **cached** between rounds — a label is re-merged only when
/// its base table appears in the round's deltas (neither the full
/// relation nor any fragment changed otherwise), so a round touching one
/// table pays one merge, not one per label. The resulting cover,
/// triples, and per-FD classification are identical to the unsharded
/// engine's — and to a fresh [`InFine::discover`] on the updated
/// database. (The stateless one-shot equivalent of this read side is
/// [`merge_label_covers`] per label, then
/// [`InFine::discover_incremental`].)
pub struct ShardedEngine {
    pub(crate) infine: InFine,
    pub(crate) spec: ViewSpec,
    /// Full-table mirror (the read side the merged pipeline replays on).
    pub(crate) db: Database,
    pub(crate) table_indexes: HashMap<String, DictIndexes>,
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<MaintenanceEngine>,
    /// Base scopes of the spec (label → table/attrs), fixed at bootstrap.
    pub(crate) scopes: Vec<BaseScope>,
    /// Cached read-time merge: per label, the canonical cover of the full
    /// scoped relation (re-merged only when the label's table changes).
    pub(crate) merged_base: BaseFds,
    pub(crate) report: InFineReport,
    pub(crate) cover: FdSet,
    /// Which view backend carries the read-side cover between rounds.
    pub(crate) view_mode: ViewMode,
    /// Mirror-hosted virtual view ([`ViewMode::JoinIndex`]): rounds
    /// maintain the cover through the join-probe kernel instead of
    /// replaying the view-level pipeline on the mirror. Always runs the
    /// compacting delete policy — the mirror it shadows compacts every
    /// round. `None` under [`ViewMode::Materialized`] or when the spec
    /// is outside the virtual subset (exact pipeline replay then).
    pub(crate) virtual_view: Option<VirtualView>,
    pub(crate) subquery_tables: HashMap<String, HashSet<String>>,
    /// Fleet-wide metrics registry (shared with every fragment engine)
    /// plus round/phase/vacuum handles, all labeled `engine="sharded"`.
    pub(crate) obs: EngineObs,
    /// Shards actually touched per round (fan-out occupancy).
    pub(crate) fanout: infine_obs::Histogram,
}

/// One registry for the whole fleet: the façade and every fragment
/// engine record into it, so per-fleet deltas are exact even with
/// several sharded engines in one process. Shared by bootstrap
/// ([`ShardedEngine::with_options`]) and snapshot restore
/// ([`crate::persist`]).
pub(crate) fn fleet_obs() -> (EngineObs, infine_obs::Histogram) {
    let obs = EngineObs::new(EngineObs::scoped_registry(), "sharded");
    let fanout = obs.registry.histogram(
        "infine_shard_fanout_shards",
        "Shards touched by one sharded maintenance round.",
        &[],
        infine_obs::FANOUT_BUCKETS,
    );
    (obs, fanout)
}

impl ShardedEngine {
    /// Bootstrap `shards` fragment engines plus the merged read state.
    pub fn new(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        shards: usize,
    ) -> Result<ShardedEngine, MaintenanceError> {
        ShardedEngine::with_policy(infine, db, spec, shards, InsertPolicy::default())
    }

    /// [`ShardedEngine::new`] with an explicit insert policy.
    pub fn with_policy(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        shards: usize,
        policy: InsertPolicy,
    ) -> Result<ShardedEngine, MaintenanceError> {
        ShardedEngine::with_options(
            infine,
            db,
            spec,
            shards,
            policy,
            DeletePolicy::default(),
            ViewMode::default(),
        )
    }

    /// [`ShardedEngine::new`] with explicit insert/delete policies and
    /// view backend mode.
    ///
    /// Under [`DeletePolicy::Tombstone`] each *fragment* engine
    /// tombstones its deletes (fragment databases never feed a pipeline
    /// replay, so they can stay marked indefinitely) and
    /// [`ShardedEngine::vacuum`] compacts them per shard, in parallel.
    /// The full-table mirror stays compacting either way: the merged
    /// pipeline replays on it every round.
    ///
    /// Under [`ViewMode::JoinIndex`] the façade additionally hosts a
    /// [`VirtualView`] over the mirror and derives each round's cover
    /// from it through the join-probe kernel — no per-round view-level
    /// pipeline replay. Provenance labels then stay at their bootstrap
    /// values (surviving triples keep their last-known labels, like the
    /// unsharded cover-only fast path) and reports carry
    /// `exact_provenance = false`. Specs outside the virtual subset fall
    /// back to the exact replay transparently.
    pub fn with_options(
        infine: InFine,
        db: Database,
        spec: ViewSpec,
        shards: usize,
        policy: InsertPolicy,
        delete_policy: DeletePolicy,
        view_mode: ViewMode,
    ) -> Result<ShardedEngine, MaintenanceError> {
        let (obs, fanout) = fleet_obs();
        let _obs_scope = obs.registry.enter();
        let router = ShardRouter::with_policy(&db, shards, policy);
        let fragments = router.fragments(&db);
        // Fragment engines bootstrap base-cover state only — a shard's
        // own view-level report is never read, so no fragment pipeline
        // runs at bootstrap either — and in parallel, one pool task per
        // shard, like the rounds they will later run.
        let mut slots: Vec<Option<Database>> = fragments.into_iter().map(Some).collect();
        let spec_ref = &spec;
        let registry_ref = &obs.registry;
        let mut engines = infine_exec::par_map_mut(&mut slots, |_, slot| {
            let frag = slot.take().expect("each fragment bootstraps once");
            MaintenanceEngine::new_base_only(
                InFine::default(),
                frag,
                spec_ref.clone(),
                delete_policy,
                registry_ref.clone(),
            )
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let scopes = base_scopes(&db, &spec)?;
        let shard_base: Vec<BaseFds> = engines.iter_mut().map(|e| e.base_covers()).collect();
        let mut merged_base = BaseFds::new();
        for scope in &scopes {
            if let Some(fds) = merge_label_covers(&db, scope, &shard_base) {
                merged_base.insert(scope.label.clone(), fds);
            }
        }
        let report = infine.discover_incremental(&db, &spec, &merged_base)?;
        let cover = report.fd_set();
        let subquery_tables = subquery_table_index(&spec);
        let virtual_view = if view_mode == ViewMode::JoinIndex {
            // The mirror compacts every round, so its shadow does too.
            VirtualView::bootstrap(&db, &spec, DeletePolicy::Compact)
        } else {
            None
        };
        Ok(ShardedEngine {
            infine,
            spec,
            db,
            table_indexes: HashMap::new(),
            router,
            shards: engines,
            scopes,
            merged_base,
            report,
            cover,
            view_mode,
            virtual_view,
            subquery_tables,
            obs,
            fanout,
        })
    }

    /// The maintained view specification.
    pub fn spec(&self) -> &ViewSpec {
        &self.spec
    }

    /// The full-table mirror (after every applied round).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The router (fragment sizes, shard count).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The configured view backend mode.
    pub fn view_mode(&self) -> ViewMode {
        self.view_mode
    }

    /// The backend actually carrying the cover — `Materialized` when a
    /// [`ViewMode::JoinIndex`] request fell back on an unsupported spec.
    pub fn active_view_mode(&self) -> ViewMode {
        if self.virtual_view.is_some() {
            ViewMode::JoinIndex
        } else {
            ViewMode::Materialized
        }
    }

    /// Resident materialized view rows held by the read side — zero
    /// always: the sharded façade replays the pipeline (materialized
    /// mode, transient joins) or probes join indexes (virtual mode).
    pub fn resident_view_rows(&self) -> usize {
        0
    }

    /// The current merged pipeline report (exact provenance, always
    /// current — identical to the unsharded engine's). Under
    /// [`ViewMode::JoinIndex`] it reflects bootstrap (the per-round cover
    /// comes from the virtual view; labels are not re-derived).
    pub fn report(&self) -> &InFineReport {
        &self.report
    }

    /// The current FD cover of the view.
    pub fn fd_set(&self) -> FdSet {
        self.cover.clone()
    }

    /// A publishable read snapshot as of `round`: the merged per-label
    /// base covers (PR 4's read-time cache — cloned, never recomputed),
    /// the view cover, the provenance triples, and tombstone accounting.
    pub fn published_covers(&self, round: u64) -> crate::read::PublishedCovers {
        crate::read::PublishedCovers {
            round,
            base: self.merged_base.clone(),
            cover: self.cover.clone(),
            triples: self.report.triples.clone(),
            tombstones: self.tombstone_stats(),
        }
    }

    /// Apply one batch.
    pub fn apply_one(
        &mut self,
        delta: &DeltaRelation,
    ) -> Result<MaintenanceReport, MaintenanceError> {
        self.apply(std::slice::from_ref(delta))
    }

    /// Apply a round of delta batches (at most one per base table):
    /// route, fan out over the shard engines, merge, classify.
    ///
    /// The returned report's `base` accounting carries one entry per
    /// *(base occurrence, shard)* actually maintained, with the label
    /// suffixed `@shard<i>`, and `timings.base_maintain` is the
    /// wall-clock of the whole parallel shard fan-out (delta apply
    /// included); cover, triples, `held`, and `fresh` are identical to
    /// the unsharded [`MaintenanceEngine::apply`] fed the same round.
    ///
    /// Error contract: validation errors (unknown/duplicate target,
    /// out-of-range delete, arity mismatch) are returned before any
    /// state is touched. Errors past validation cannot occur for inputs
    /// that passed it (sub-batches are in-range by construction and the
    /// spec was validated at bootstrap); if one ever surfaced, treat it
    /// like a mid-round panic and discard the engine — router, mirror,
    /// and shard state may be ahead of the read-side cover.
    pub fn apply(
        &mut self,
        deltas: &[DeltaRelation],
    ) -> Result<MaintenanceReport, MaintenanceError> {
        let _obs_scope = self.obs.registry.enter();
        let obs_before = self.obs.registry.snapshot();
        let round_t0 = Instant::now();
        validate_deltas(&self.db, deltas)?;
        let mut timings = MaintenanceTimings::default();
        let changed: HashSet<String> = deltas
            .iter()
            .filter(|d| !d.batch.is_empty())
            .map(|d| d.target.clone())
            .collect();

        // Virtual-view maintenance first: batch row ids address the
        // pre-round tables, and the view keeps its own chain copies.
        let mut view_cover_stats: Option<CoverDeltaStats> = None;
        if let Some(vv) = self.virtual_view.as_mut() {
            let tv = Instant::now();
            for d in deltas {
                if d.batch.is_empty() {
                    continue;
                }
                if let Some(stats) = vv.apply_table(&d.target, &d.batch) {
                    let merged = view_cover_stats.get_or_insert_with(CoverDeltaStats::default);
                    merged.held += stats.held;
                    merged.broken += stats.broken;
                    merged.recovered += stats.recovered;
                    merged.surfaced += stats.surfaced;
                }
            }
            timings.view_maintain += tv.elapsed();
        }

        // Route first (pure bookkeeping), then bring the mirror forward.
        let sub_rounds = self.router.split(deltas);
        self.fanout
            .observe(sub_rounds.iter().filter(|r| !r.is_empty()).count() as f64);
        let t0 = Instant::now();
        for d in deltas {
            if d.batch.is_empty() {
                continue;
            }
            let table = self.db.remove(&d.target).expect("validated above");
            let index = self
                .table_indexes
                .entry(d.target.clone())
                .or_insert_with(|| DictIndexes::build(&table));
            let (new_table, _) = table.apply_delta_owned(&d.batch, d.target.clone(), index);
            self.db.insert(new_table);
        }
        timings.delta_apply += t0.elapsed();

        // Shard rounds in parallel — one task per *touched* shard,
        // base-cover maintenance only (a shard's view-level state is
        // never read; the merged pipeline below replays on the mirror).
        // An untouched shard's fragments did not change, so its state is
        // current without any work.
        let t1 = Instant::now();
        let sub_rounds = &sub_rounds;
        let shard_results = infine_exec::par_map_mut(&mut self.shards, |s, engine| {
            if sub_rounds[s].is_empty() {
                return Ok(None);
            }
            engine.apply_base_only(&sub_rounds[s]).map(Some)
        });
        let mut base_reports = Vec::new();
        for (s, result) in shard_results.into_iter().enumerate() {
            if let Some((reports, _shard_timings)) = result? {
                for mut b in reports {
                    b.label = format!("{}@shard{s}", b.label);
                    base_reports.push(b);
                }
            }
        }
        // Wall-clock of the parallel shard fan-out (per-shard CPU time
        // can exceed this with 2+ workers; summing it would make the
        // components disagree with the round's wall time).
        timings.base_maintain += t1.elapsed();

        // Merged read: re-merge the fragment covers of every label whose
        // base table changed (cached merges stay valid otherwise — no
        // fragment of an untouched table moved), then replay the
        // pipeline on the exact global BaseFds.
        let t2 = Instant::now();
        let old_triples: HashMap<Fd, ProvenanceTriple> = self
            .report
            .triples
            .iter()
            .map(|t| (t.fd, t.clone()))
            .collect();
        let old_cover = self.cover.clone();
        if !changed.is_empty() {
            // Only the changed labels' covers leave the shard engines.
            let shard_base: Vec<BaseFds> = self
                .shards
                .iter_mut()
                .map(|e| e.base_covers_for(&changed))
                .collect();
            for scope in &self.scopes {
                if !changed.contains(&scope.table) {
                    continue;
                }
                if let Some(fds) = merge_label_covers(&self.db, scope, &shard_base) {
                    self.merged_base.insert(scope.label.clone(), fds);
                }
            }
            match self.virtual_view.as_ref() {
                // Join-index mode: the cover comes out of the virtual
                // view (already maintained above); the bootstrap report
                // and its labels stand, like the unsharded fast path.
                Some(vv) => self.cover = vv.dense_cover(),
                None => {
                    let new_report = self.infine.discover_incremental(
                        &self.db,
                        &self.spec,
                        &self.merged_base,
                    )?;
                    self.cover = new_report.fd_set();
                    self.report = new_report;
                }
            }
        }
        // An empty round changed nothing, so the current report *is* the
        // round's report — no pipeline replay needed (classify_round
        // with an empty changed set marks everything untouched, exactly
        // what a replay would conclude).
        timings.pipeline += t2.elapsed();

        let new_cover = self.cover.clone();
        let (held, fresh) = classify_round(
            &old_triples,
            &old_cover,
            &new_cover,
            &self.subquery_tables,
            &changed,
        );
        let exact = self.virtual_view.is_none();
        let schema = self.report.schema.clone();
        // Virtual mode: surviving triples with their last-known labels,
        // exactly like the unsharded cover-only fast path.
        let triples: Vec<ProvenanceTriple> = if exact {
            self.report.triples.clone()
        } else {
            self.report
                .triples
                .iter()
                .filter(|t| new_cover.contains(&t.fd))
                .cloned()
                .collect()
        };
        self.obs.observe_round(&timings, round_t0.elapsed());
        Ok(MaintenanceReport {
            schema,
            cover: new_cover,
            triples,
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

    /// Memory accounting summed over the fragment engines (fragment
    /// tables + scoped base states). The compacting mirror is excluded —
    /// it holds no tombstones by construction.
    pub fn tombstone_stats(&self) -> TombstoneStats {
        let mut stats = TombstoneStats::default();
        for engine in &self.shards {
            stats.merge(engine.tombstone_stats());
        }
        stats
    }

    /// Vacuum every fragment independently and **in parallel** (one
    /// [`infine_exec::par_map_mut`] task per shard): each shard compacts
    /// its own fragment tables and scoped base states, garbage-collects
    /// its dictionaries, and rebases its PLIs/witnesses — without ever
    /// synchronizing with the other shards.
    ///
    /// No router rebuild is needed: the [`ShardRouter`]'s global↔local
    /// maps speak *logical* (compacted-equivalent) row ids, and a vacuum
    /// only moves physical bytes inside one fragment — the logical
    /// content of every fragment is unchanged. (Each fragment engine's
    /// own [`RowMap`](infine_relation::RowMap)s reset to the identity;
    /// that is the whole address-space fix-up.) Covers, reports, and the
    /// mirror are untouched.
    pub fn vacuum(&mut self) -> VacuumStats {
        // Each fragment engine's vacuum records its own pass into the
        // shared registry (`infine_vacuum_*{engine="sharded"}`).
        let _obs_scope = self.obs.registry.enter();
        let t0 = Instant::now();
        let per_shard = infine_exec::par_map_mut(&mut self.shards, |_, engine| engine.vacuum());
        let mut stats = VacuumStats::default();
        for s in per_shard {
            stats.merge(s);
        }
        // Wall-clock of the parallel fan-out, not summed per-shard CPU
        // time (the components would exceed the round with 2+ workers).
        stats.duration = t0.elapsed();
        stats
    }

    /// One shard's fragment database (the model test pins vacuumed
    /// fragments byte-equal to from-scratch rebuilds).
    pub fn shard_database(&self, shard: usize) -> &Database {
        self.shards[shard].database()
    }

    /// Soak/debug hook: run every fragment engine's
    /// [`MaintenanceEngine::self_check`] plus router/fragment size
    /// consistency. O(full re-mine per fragment); tests only.
    pub fn self_check(&self) {
        if let Some(vv) = &self.virtual_view {
            vv.self_check();
        }
        for (s, engine) in self.shards.iter().enumerate() {
            engine.self_check();
            for (name, tm_rows) in self
                .db
                .names()
                .map(|n| (n.to_string(), self.router.fragment_rows(n)[s]))
                .collect::<Vec<_>>()
            {
                assert_eq!(
                    engine.database().expect(&name).live_rows(),
                    tm_rows,
                    "shard {s}: fragment {name} diverged from the router's size"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_relation::{relation_from_rows, Value};

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

    #[test]
    fn router_bootstrap_ranges_are_contiguous_and_disjoint() {
        let router = ShardRouter::new(&db(), 2);
        assert_eq!(router.fragment_rows("p"), &[2, 2]);
        assert_eq!(router.fragment_rows("q"), &[2, 2]);
        let frags = router.fragments(&db());
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].expect("p").nrows(), 2);
        assert_eq!(frags[0].expect("p").value(0, 0), &Value::Int(1));
        assert_eq!(frags[1].expect("p").value(0, 0), &Value::Int(3));
    }

    #[test]
    fn router_split_mirrors_apply_delta_compaction() {
        let mut router = ShardRouter::new(&db(), 2);
        let mut batch = DeltaBatch::new();
        // delete one row from each shard's range, insert two rows
        batch
            .delete(0)
            .delete(3)
            .insert(vec![Value::Int(5), Value::str("c"), Value::Int(2)])
            .insert(vec![Value::Int(6), Value::str("c"), Value::Int(2)]);
        let subs = router.split(&[DeltaRelation::new("p", batch)]);
        // shard 0: local delete 0, one insert (cursor starts at 0)
        let s0 = &subs[0][0].batch;
        assert_eq!(s0.deletes, vec![0]);
        assert_eq!(s0.num_inserts(), 1);
        let s1 = &subs[1][0].batch;
        assert_eq!(s1.deletes, vec![1]);
        assert_eq!(s1.num_inserts(), 1);
        // post-state: both fragments at 2 rows again
        assert_eq!(router.fragment_rows("p"), &[2, 2]);
    }

    #[test]
    fn router_single_shard_passes_batches_through() {
        let mut router = ShardRouter::new(&db(), 1);
        let mut batch = DeltaBatch::new();
        batch
            .delete(2)
            .insert(vec![Value::Int(9), Value::str("z"), Value::Int(1)]);
        let subs = router.split(&[DeltaRelation::new("p", batch.clone())]);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0][0].batch.deletes, batch.deletes);
        assert_eq!(subs[0][0].batch.inserts, batch.inserts);
    }

    #[test]
    fn sharded_engine_matches_unsharded_rounds() {
        let mut unsharded = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut sharded = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        assert_eq!(sharded.report().triples, unsharded.report().triples);

        let rounds: Vec<Vec<DeltaRelation>> = vec![
            vec![DeltaRelation::new("p", {
                let mut b = DeltaBatch::new();
                b.insert(vec![Value::Int(2), Value::str("a"), Value::Int(9)]);
                b
            })],
            vec![
                DeltaRelation::new("p", {
                    let mut b = DeltaBatch::new();
                    b.delete(0)
                        .insert(vec![Value::Int(7), Value::str("b"), Value::Int(0)]);
                    b
                }),
                DeltaRelation::new("q", {
                    let mut b = DeltaBatch::new();
                    b.insert(vec![Value::Int(7), Value::str("x")]).delete(1);
                    b
                }),
            ],
            vec![DeltaRelation::new("q", {
                let mut b = DeltaBatch::new();
                b.delete(0).delete(2);
                b
            })],
        ];
        for round in rounds {
            let a = unsharded.apply(&round).unwrap();
            let b = sharded.apply(&round).unwrap();
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.cover.to_sorted_vec(), b.cover.to_sorted_vec());
            let mut ha: Vec<_> = a.held.iter().map(|(t, s)| (t.fd, *s)).collect();
            let mut hb: Vec<_> = b.held.iter().map(|(t, s)| (t.fd, *s)).collect();
            ha.sort();
            hb.sort();
            assert_eq!(ha, hb);
        }
        // Mirror databases agree row-for-row.
        let p = unsharded.database().expect("p");
        let sp = sharded.database().expect("p");
        assert_eq!(p.nrows(), sp.nrows());
        for r in 0..p.nrows() {
            assert_eq!(p.row(r), sp.row(r));
        }
    }

    #[test]
    fn sharded_engine_rejects_malformed_batches() {
        let mut sharded = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let mut bad = DeltaBatch::new();
        bad.delete(99);
        let err = sharded
            .apply_one(&DeltaRelation::new("p", bad))
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::BadBatch(_)));
        let err = sharded
            .apply_one(&DeltaRelation::new("nope", DeltaBatch::new()))
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::UnknownTable(_)));
    }

    #[test]
    fn tombstoned_fragments_match_unsharded_and_vacuum_in_parallel() {
        let mut unsharded = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut sharded = ShardedEngine::with_options(
            InFine::default(),
            db(),
            view(),
            2,
            InsertPolicy::default(),
            DeletePolicy::Tombstone,
            ViewMode::default(),
        )
        .unwrap();
        let rounds: Vec<Vec<DeltaRelation>> = vec![
            vec![DeltaRelation::new("p", {
                let mut b = DeltaBatch::new();
                b.delete(0)
                    .delete(3)
                    .insert(vec![Value::Int(7), Value::str("b"), Value::Int(0)]);
                b
            })],
            vec![DeltaRelation::new("q", {
                let mut b = DeltaBatch::new();
                b.delete(1).delete(2);
                b
            })],
            vec![DeltaRelation::new("p", {
                let mut b = DeltaBatch::new();
                b.delete(1)
                    .insert(vec![Value::Int(1), Value::str("a"), Value::Int(0)]);
                b
            })],
        ];
        for round in rounds {
            let a = unsharded.apply(&round).unwrap();
            let b = sharded.apply(&round).unwrap();
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.cover.to_sorted_vec(), b.cover.to_sorted_vec());
        }
        // Fragments accumulated tombstones; the mirror did not.
        let before = sharded.tombstone_stats();
        assert!(before.dead_rows() > 0);
        // Which fragments actually hold garbage (those get dictionary-GC'd
        // to rebuild-equal form; untouched fragments keep sharing their
        // bootstrap dictionary Arc with the source table — a constant,
        // not growth).
        let dirty: Vec<(usize, &str)> = (0..sharded.shards())
            .flat_map(|s| ["p", "q"].into_iter().map(move |n| (s, n)))
            .filter(|&(s, n)| sharded.shard_database(s).expect(n).has_tombstones())
            .collect();
        assert!(!dirty.is_empty());
        let triples_before = sharded.report().triples.clone();
        let vac = sharded.vacuum();
        assert!(!vac.is_noop());
        assert_eq!(sharded.tombstone_stats().dead_rows(), 0);
        // Router untouched, state self-consistent, answers unchanged.
        sharded.self_check();
        assert_eq!(sharded.report().triples, triples_before);
        // Vacuumed fragments are byte-equal to from-scratch rebuilds.
        for (s, name) in dirty {
            let rel = sharded.shard_database(s).expect(name);
            let rows: Vec<Vec<Value>> = (0..rel.nrows()).map(|r| rel.row(r)).collect();
            let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
            let names: Vec<&str> = (0..rel.ncols()).map(|c| rel.schema.name(c)).collect();
            let rebuilt = relation_from_rows(name, &names, &refs);
            for c in 0..rel.ncols() {
                assert_eq!(rel.column(c).codes, rebuilt.column(c).codes);
                assert_eq!(
                    rel.column(c).dict.as_slice(),
                    rebuilt.column(c).dict.as_slice()
                );
            }
        }
        // And further rounds keep matching the unsharded engine.
        let mut b = DeltaBatch::new();
        b.delete(0);
        let round = vec![DeltaRelation::new("p", b)];
        let a = unsharded.apply(&round).unwrap();
        let s = sharded.apply(&round).unwrap();
        assert_eq!(a.triples, s.triples);
    }

    #[test]
    fn more_shards_than_rows_leaves_trailing_shards_empty() {
        // Both tables have 4 rows; with 8 shards the trailing fragments
        // are genuinely empty (ceil(4/8) = 1 row per leading shard) —
        // bootstrap over 0-row fragments and a round must still match
        // unsharded.
        let mut sharded = ShardedEngine::new(InFine::default(), db(), view(), 8).unwrap();
        assert_eq!(sharded.router().fragment_rows("p")[7], 0);
        let mut unsharded = MaintenanceEngine::with_defaults(db(), view()).unwrap();
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(1), Value::str("b"), Value::Int(5)]);
        let round = vec![DeltaRelation::new("p", b)];
        let a = unsharded.apply(&round).unwrap();
        let s = sharded.apply(&round).unwrap();
        assert_eq!(a.triples, s.triples);
    }
}
