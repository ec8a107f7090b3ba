//! Algorithm 1 — the InFine pipeline.
//!
//! Recursive traversal of the SPJ view specification:
//!
//! * **base relation** — mine FDs restricted to the *needed* attributes
//!   (the projected attributes of the whole view plus every join key on
//!   the path, realizing the projection pruning of Algorithm 1 lines 3–5);
//! * **projection** — closure-restrict the child's triples (Theorem 1:
//!   projections never add FDs);
//! * **selection** — keep the child's triples (still valid) and mine the
//!   upstaged-selection FDs when tuples were filtered (Algorithm 2);
//! * **join** — inherit both sides' triples (re-validated when outer
//!   padding is in play), mine upstaged join FDs on the side instances
//!   (Algorithm 3), infer through the join keys (Algorithm 4), and
//!   selectively mine the remaining join FDs (Algorithm 5).
//!
//! The *root* view result is never materialized unless `mineFDs` had to
//! compute it anyway — this is where the order-of-magnitude runtime wins
//! of the paper's Fig. 3 come from.

use crate::infer::infer_fds;
use crate::instance::side_instance;
use crate::minefds::mine_join_fds;
use crate::provenance::{FdKind, ProvenanceBuilder, ProvenanceTriple};
use crate::restrict::restrict_triples;
use infine_algebra::{
    derive_schema, join_relations, joined_schema, resolve, resolve_join_conditions, select_rows,
    AlgebraError, JoinOp, ViewSpec,
};
use infine_discovery::{extend_seeds, mine_new_fds, Algorithm, ExactValidity, Fd, FdSet};
use infine_partitions::PliCache;
use infine_relation::{AttrId, AttrSet, Database, Origin, Relation, Schema};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Pre-computed minimal FD sets for (scoped) base relations, keyed by base
/// label (alias when present, table name otherwise). The incremental
/// entry point consumes these instead of re-mining — see
/// [`InFine::discover_incremental`].
///
/// Each `FdSet` must be the complete minimal FD set of the corresponding
/// scoped base relation (attribute ids as produced by [`base_scopes`]);
/// the pipeline trusts it without re-validation.
pub type BaseFds = HashMap<String, FdSet>;

/// The attribute scope the pipeline mines for one base occurrence of a
/// view: the base-table columns that survive Algorithm 1's projection
/// push-down (the view's projected attributes plus every join key and
/// selection attribute on the path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseScope {
    /// Base label: alias when the occurrence is aliased, table name
    /// otherwise. Unique per view (enforced like [`InFine::discover`]).
    pub label: String,
    /// Underlying base-table name in the database.
    pub table: String,
    /// Kept column ids of the base table, ascending. The scoped relation
    /// is `table.project(&attrs)`; FD sets in [`BaseFds`] use ids into
    /// this projection.
    pub attrs: Vec<AttrId>,
}

impl BaseScope {
    /// Materialize the scoped relation this scope describes.
    pub fn project(&self, db: &Database) -> Relation {
        db.expect(&self.table)
            .project(&self.attrs, self.label.clone())
    }
}

/// Errors from the pipeline.
#[derive(Debug)]
pub enum InFineError {
    /// Underlying algebra failure (unknown relation/attribute, ambiguity).
    Algebra(AlgebraError),
    /// The same base table appears twice without distinguishing aliases;
    /// origin-based scope push-down would be ambiguous.
    DuplicateBaseLabel(String),
}

impl From<AlgebraError> for InFineError {
    fn from(e: AlgebraError) -> Self {
        InFineError::Algebra(e)
    }
}

impl std::fmt::Display for InFineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InFineError::Algebra(e) => write!(f, "{e}"),
            InFineError::DuplicateBaseLabel(t) => write!(
                f,
                "base table {t:?} appears multiple times without distinct aliases"
            ),
        }
    }
}

impl std::error::Error for InFineError {}

/// Wall-clock breakdown per pipeline phase (the Fig. 5 / Table III split).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimings {
    /// Step 1: FD mining on the base tables (excluded from the paper's
    /// comparisons — both pipelines pay it identically).
    pub base_mining: Duration,
    /// Scoped base-table materialization — the I/O analogue.
    pub io: Duration,
    /// `selectionFDs` + `joinUpFDs` (semi-join computation included).
    pub upstage: Duration,
    /// `inferFDs` including its refine partial joins.
    pub infer: Duration,
    /// `mineFDs` including the partial SPJ computation and any child-join
    /// materialization forced by a parent node.
    pub mine: Duration,
}

impl PhaseTimings {
    /// Total time excluding base mining (the paper's reported quantity).
    pub fn infine_total(&self) -> Duration {
        self.io + self.upstage + self.infer + self.mine
    }
}

/// Counters reported alongside the result.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Rows of all partial joins materialized by infer/mine.
    pub partial_join_rows: usize,
    /// Candidates rejected by the Theorem 4 constraint (no data touched).
    pub pruned_by_theorem4: usize,
    /// Candidates validated against data in `mineFDs`.
    pub mine_validated: usize,
}

/// The step-1 base-table miner. `CoverState::bootstrap` in the
/// incremental crate mines with the same algorithm. The minimal cover of
/// a relation is unique, so the choice changes cost, never the answer.
const BASE_MINER: Algorithm = Algorithm::Levelwise;

/// The result of a pipeline run.
#[derive(Debug)]
pub struct InFineReport {
    /// Schema of the view's projected output.
    pub schema: Schema,
    /// Provenance triples over `schema` ids — the complete minimal FD set
    /// of the view, each annotated with kind and first-holding sub-query.
    pub triples: Vec<ProvenanceTriple>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Counters.
    pub stats: PipelineStats,
}

impl InFineReport {
    /// The FDs as a set.
    pub fn fd_set(&self) -> FdSet {
        FdSet::from_fds(self.triples.iter().map(|t| t.fd))
    }

    /// Number of triples of one kind.
    pub fn count_kind(&self, kind: FdKind) -> usize {
        self.triples.iter().filter(|t| t.kind == kind).count()
    }

    /// The paper's three-way share (Table III / Fig. 5): fraction of FDs
    /// attributable to `upstageFDs` (base + all upstaged kinds — Algorithm
    /// 3 re-validates and carries the side FDs), `inferFDs`, and `mineFDs`.
    pub fn phase_shares(&self) -> (f64, f64, f64) {
        let total = self.triples.len().max(1) as f64;
        let upstage = (self.count_kind(FdKind::Base)
            + self.count_kind(FdKind::UpstagedSelection)
            + self.count_kind(FdKind::UpstagedLeft)
            + self.count_kind(FdKind::UpstagedRight)) as f64;
        let infer = self.count_kind(FdKind::Inferred) as f64;
        let mine = self.count_kind(FdKind::JoinFd) as f64;
        (upstage / total, infer / total, mine / total)
    }

    /// Render all triples with attribute names.
    pub fn render(&self) -> String {
        self.triples
            .iter()
            .map(|t| t.render(&self.schema))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Origin key used for scope push-down.
type OriginKey = (String, String);

fn origin_key(o: &Origin) -> OriginKey {
    (o.relation.clone(), o.attribute.clone())
}

/// Lazily materialized node relation.
enum NodeRel {
    Ready(Relation),
    /// A join whose materialization is deferred until (and unless) a
    /// parent needs it. `keep` optionally restricts output columns
    /// (projection pushed into the lazy join).
    LazyJoin {
        left: Box<Relation>,
        right: Box<Relation>,
        op: JoinOp,
        on: Vec<(AttrId, AttrId)>,
        keep: Option<Vec<AttrId>>,
        name: String,
    },
}

/// One processed node of the view tree.
struct Node {
    schema: Schema,
    rel: NodeRel,
    triples: Vec<ProvenanceTriple>,
}

impl Node {
    fn fd_set(&self) -> FdSet {
        FdSet::from_fds(self.triples.iter().map(|t| t.fd))
    }
}

/// The InFine pipeline (Algorithm 1). It holds no configuration:
/// build one with `InFine::default()`.
#[derive(Debug, Default)]
pub struct InFine {}

impl InFine {
    /// Discover the provenance-annotated FDs of `spec` over `db`.
    pub fn discover(&self, db: &Database, spec: &ViewSpec) -> Result<InFineReport, InFineError> {
        self.discover_inner(db, spec, None)
    }

    /// Incremental entry point: run the pipeline with step-1 base mining
    /// replaced by the caller's maintained [`BaseFds`].
    ///
    /// This is the hinge the `infine-incremental` maintenance engine hangs
    /// off: after a delta batch it revalidates each base table's FD set
    /// against patched PLIs (instead of re-mining the lattice), then calls
    /// here to rebuild the view-level provenance triples. Because the
    /// complete minimal FD set of a relation is unique, supplying the
    /// maintained sets yields a report identical to a full
    /// [`InFine::discover`] on the updated database — at none of the base
    /// mining cost, which dominates end-to-end re-discovery.
    ///
    /// Labels missing from `base_fds` fall back to full mining, so partial
    /// overrides are fine. `timings.base_mining` counts only the fallback
    /// mining actually performed.
    pub fn discover_incremental(
        &self,
        db: &Database,
        spec: &ViewSpec,
        base_fds: &BaseFds,
    ) -> Result<InFineReport, InFineError> {
        self.discover_inner(db, spec, Some(base_fds))
    }

    fn discover_inner(
        &self,
        db: &Database,
        spec: &ViewSpec,
        base_fds: Option<&BaseFds>,
    ) -> Result<InFineReport, InFineError> {
        validate_alias_uniqueness(spec)?;
        // AV — the projected attribute set of the whole view (Def. 3).
        let root_schema = derive_schema(spec, db)?;
        let needed: HashSet<OriginKey> = root_schema
            .iter()
            .filter_map(|a| a.origin.as_ref().map(origin_key))
            .collect();

        // Step 1, hoisted and parallel: when the pool can actually fan
        // out, mine every base scope the caller did not supply *before*
        // the sequential tree walk — one pool task per base occurrence.
        // The scopes here are by construction the same column subsets
        // `process_base` would mine (see the COUPLING note on
        // `collect_scopes`), and the minimal FD set of a relation is
        // unique, so `process_base` consuming these sets produces triples
        // byte-identical to mining inline. The scoped projection is
        // materialized once more inside `process_base` (counted as io
        // there); that duplicated column clone is noise next to mining —
        // but it is not free, so with a sequential pool (or fewer than
        // two scopes to mine) the hoist is skipped entirely and
        // `process_base` mines inline exactly as before.
        let mut scopes: Vec<BaseScope> = Vec::new();
        collect_scopes(db, spec, &needed, &mut scopes)?;
        let to_mine: Vec<BaseScope> = scopes
            .into_iter()
            .filter(|s| base_fds.is_none_or(|m| !m.contains_key(&s.label)))
            .collect();
        let mut premine_time = Duration::ZERO;
        let hoisted: Option<BaseFds> = if to_mine.len() >= 2 && !infine_exec::sequential() {
            let t0 = Instant::now();
            let mined = infine_exec::par_map(&to_mine, |_, scope| {
                let rel = scope.project(db);
                BASE_MINER.discover_restricted(&rel, rel.attr_set())
            });
            premine_time = t0.elapsed();
            let mut effective: BaseFds = base_fds.cloned().unwrap_or_default();
            for (scope, fds) in to_mine.into_iter().zip(mined) {
                effective.insert(scope.label, fds);
            }
            Some(effective)
        } else {
            None
        };

        let mut ctx = Ctx {
            db,
            timings: PhaseTimings {
                base_mining: premine_time,
                ..PhaseTimings::default()
            },
            stats: PipelineStats::default(),
            final_av: needed.clone(),
            base_fds: hoisted.as_ref().or(base_fds),
        };
        let node = ctx.process(spec, &needed, true)?;

        // Final restriction to exactly the projected attributes (scope
        // push-down may have kept extra join keys below the root).
        let keep: Vec<AttrId> = root_schema
            .iter()
            .filter_map(|a| {
                let o = a.origin.as_ref()?;
                (0..node.schema.len()).find(|&i| {
                    node.schema
                        .attr(i)
                        .origin
                        .as_ref()
                        .map(|no| no == o)
                        .unwrap_or(false)
                })
            })
            .collect();
        let (schema, triples) = if keep.len() == node.schema.len() {
            (node.schema, node.triples)
        } else {
            restrict_triples(&node.triples, &node.schema, &keep, &format!("π({spec})"))
        };
        record_phase_metrics(&ctx.timings);
        Ok(InFineReport {
            schema,
            triples,
            timings: ctx.timings,
            stats: ctx.stats,
        })
    }
}

/// Record one discovery run's phase breakdown into the ambient
/// `infine-obs` registry (`infine_pipeline_phase_seconds{phase}` plus
/// the aggregate `infine_pipeline_seconds`). One observation per phase
/// per run — registration cost only, never on the per-candidate path.
fn record_phase_metrics(timings: &PhaseTimings) {
    infine_obs::with_current(|r| {
        for (phase, elapsed) in [
            ("base_mining", timings.base_mining),
            ("io", timings.io),
            ("upstage", timings.upstage),
            ("infer", timings.infer),
            ("mine", timings.mine),
        ] {
            r.duration_histogram(
                "infine_pipeline_phase_seconds",
                "Wall time per InFine pipeline phase, one observation per discovery run.",
                &[("phase", phase)],
            )
            .observe_duration(elapsed);
        }
        r.duration_histogram(
            "infine_pipeline_seconds",
            "InFine pipeline wall time excluding base mining (the paper's reported split).",
            &[],
        )
        .observe_duration(timings.infine_total());
    });
}

struct Ctx<'a> {
    db: &'a Database,
    timings: PhaseTimings,
    stats: PipelineStats,
    /// Origins of the view's final projected attributes (AV); used to
    /// mask rhs candidates of `mineFDs` at the root join only.
    final_av: HashSet<OriginKey>,
    /// Per-label base FD overrides for incremental runs (skip step-1
    /// mining for labels present here).
    base_fds: Option<&'a BaseFds>,
}

impl Ctx<'_> {
    fn force<'n>(&mut self, node: &'n mut Node) -> &'n Relation {
        if let NodeRel::LazyJoin {
            left,
            right,
            op,
            on,
            keep,
            name,
        } = &node.rel
        {
            let t0 = Instant::now();
            let nl = left.ncols();
            let (keep_left, keep_right): (Option<Vec<AttrId>>, Option<Vec<AttrId>>) = match keep {
                None => (None, None),
                Some(ids) => {
                    let l: Vec<AttrId> = ids.iter().copied().filter(|&i| i < nl).collect();
                    let r: Vec<AttrId> = ids
                        .iter()
                        .copied()
                        .filter(|&i| i >= nl)
                        .map(|i| i - nl)
                        .collect();
                    (Some(l), Some(r))
                }
            };
            let rel = join_relations(
                left,
                right,
                *op,
                on,
                keep_left.as_deref(),
                keep_right.as_deref(),
                name,
            );
            self.stats.partial_join_rows += rel.nrows();
            self.timings.mine += t0.elapsed();
            node.rel = NodeRel::Ready(rel);
        }
        match &node.rel {
            NodeRel::Ready(r) => r,
            NodeRel::LazyJoin { .. } => unreachable!("forced above"),
        }
    }

    fn process(
        &mut self,
        spec: &ViewSpec,
        needed: &HashSet<OriginKey>,
        at_root: bool,
    ) -> Result<Node, InFineError> {
        match spec {
            ViewSpec::Base { .. } => self.process_base(spec, needed),
            ViewSpec::Project { input, attrs } => {
                // projections preserve root-ness (only they sit between a
                // root join and the top of the spec in practice)
                self.process_project(spec, input, attrs, needed, at_root)
            }
            ViewSpec::Select { input, predicate } => {
                self.process_select(spec, input, predicate, needed)
            }
            ViewSpec::Join {
                left,
                right,
                op,
                on,
            } => self.process_join(spec, left, right, *op, on, needed, at_root),
        }
    }

    fn process_base(
        &mut self,
        spec: &ViewSpec,
        needed: &HashSet<OriginKey>,
    ) -> Result<Node, InFineError> {
        let t0 = Instant::now();
        // Project the needed columns straight out of the stored relation —
        // `execute` would clone every column first, which hurts on wide
        // tables like lineitem. The schema (with alias-adjusted origins)
        // is derived separately and only the scoped columns are copied.
        let full_schema = derive_schema(spec, self.db)?;
        let (table, label) = match spec {
            ViewSpec::Base { table, alias } => (
                self.db.expect(table),
                alias.as_deref().unwrap_or(table.as_str()),
            ),
            _ => unreachable!("process_base called on a non-base spec"),
        };
        let scope: Vec<AttrId> = (0..full_schema.len())
            .filter(|&i| {
                full_schema
                    .attr(i)
                    .origin
                    .as_ref()
                    .map(|o| needed.contains(&origin_key(o)))
                    .unwrap_or(false)
            })
            .collect();
        let mut schema = Schema::new();
        for &i in &scope {
            schema.push(full_schema.attr(i).clone());
        }
        let columns = scope.iter().map(|&i| table.column(i).clone()).collect();
        let rel = Relation::from_columns(spec.to_string(), schema, columns, table.nrows());
        self.timings.io += t0.elapsed();

        // Incremental runs supply maintained base FD sets; mine otherwise.
        let fds = match self.base_fds.and_then(|m| m.get(label)) {
            Some(maintained) => maintained.clone(),
            None => {
                let t1 = Instant::now();
                let fds = BASE_MINER.discover_restricted(&rel, rel.attr_set());
                self.timings.base_mining += t1.elapsed();
                fds
            }
        };

        let subquery = spec.to_string();
        let triples = fds
            .to_sorted_vec()
            .into_iter()
            .map(|fd| ProvenanceTriple::new(fd, FdKind::Base, subquery.clone()))
            .collect();
        Ok(Node {
            schema: rel.schema.clone(),
            rel: NodeRel::Ready(rel),
            triples,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn process_project(
        &mut self,
        spec: &ViewSpec,
        input: &ViewSpec,
        attrs: &[String],
        needed: &HashSet<OriginKey>,
        at_root: bool,
    ) -> Result<Node, InFineError> {
        let child = self.process(input, needed, at_root)?;
        // Resolve projected names against the child's *scoped* schema,
        // skipping attributes the scope already dropped (they cannot be
        // needed above, or they would be in `needed`).
        let mut keep: Vec<AttrId> = Vec::new();
        for a in attrs {
            if let Ok(id) = resolve(&child.schema, a) {
                keep.push(id);
            }
        }
        let (schema, triples) =
            restrict_triples(&child.triples, &child.schema, &keep, &spec.to_string());
        let rel = match child.rel {
            NodeRel::Ready(r) => NodeRel::Ready(r.project(&keep, spec.to_string())),
            NodeRel::LazyJoin {
                left,
                right,
                op,
                on,
                keep: inner_keep,
                name,
            } => {
                // Push the projection into the lazy join.
                let composed: Vec<AttrId> = match inner_keep {
                    None => keep.clone(),
                    Some(prev) => keep.iter().map(|&i| prev[i]).collect(),
                };
                NodeRel::LazyJoin {
                    left,
                    right,
                    op,
                    on,
                    keep: Some(composed),
                    name,
                }
            }
        };
        Ok(Node {
            schema,
            rel,
            triples,
        })
    }

    fn process_select(
        &mut self,
        spec: &ViewSpec,
        input: &ViewSpec,
        predicate: &infine_algebra::Predicate,
        needed: &HashSet<OriginKey>,
    ) -> Result<Node, InFineError> {
        // Add the predicate's attributes to the child scope.
        let child_full = derive_schema(input, self.db)?;
        let mut child_needed = needed.clone();
        collect_predicate_origins(predicate, &child_full, &mut child_needed)?;
        let mut child = self.process(input, &child_needed, false)?;
        self.force(&mut child);
        let child_rel = match &child.rel {
            NodeRel::Ready(r) => r,
            _ => unreachable!(),
        };

        let t0 = Instant::now();
        let rows = select_rows(child_rel, predicate)?;
        let filtered = rows.len() < child_rel.nrows();
        let rel = child_rel.gather(&rows, spec.to_string());

        let mut builder = ProvenanceBuilder::new();
        for t in &child.triples {
            builder.insert(t.clone());
        }
        if filtered {
            // Algorithm 2: mine the FDs that became exact.
            let known = child.fd_set();
            let new = mine_new_fds(&rel, rel.attr_set(), &known);
            let subquery = spec.to_string();
            for fd in new.to_sorted_vec() {
                builder.insert(ProvenanceTriple::new(
                    fd,
                    FdKind::UpstagedSelection,
                    subquery.clone(),
                ));
            }
        }
        self.timings.upstage += t0.elapsed();
        Ok(Node {
            schema: child.schema.clone(),
            rel: NodeRel::Ready(rel),
            triples: builder.into_triples(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn process_join(
        &mut self,
        spec: &ViewSpec,
        left: &ViewSpec,
        right: &ViewSpec,
        op: JoinOp,
        on: &[(String, String)],
        needed: &HashSet<OriginKey>,
        at_root: bool,
    ) -> Result<Node, InFineError> {
        // Split the needed set between the children and add the join keys.
        let ls_full = derive_schema(left, self.db)?;
        let rs_full = derive_schema(right, self.db)?;
        let on_full = resolve_join_conditions(&ls_full, &rs_full, on)?;
        let left_origins: HashSet<OriginKey> = ls_full
            .iter()
            .filter_map(|a| a.origin.as_ref().map(origin_key))
            .collect();
        let right_origins: HashSet<OriginKey> = rs_full
            .iter()
            .filter_map(|a| a.origin.as_ref().map(origin_key))
            .collect();
        let mut needed_left: HashSet<OriginKey> = needed
            .iter()
            .filter(|o| left_origins.contains(*o))
            .cloned()
            .collect();
        let mut needed_right: HashSet<OriginKey> = needed
            .iter()
            .filter(|o| right_origins.contains(*o))
            .cloned()
            .collect();
        for &(l, r) in &on_full {
            if let Some(o) = &ls_full.attr(l).origin {
                needed_left.insert(origin_key(o));
            }
            if let Some(o) = &rs_full.attr(r).origin {
                needed_right.insert(origin_key(o));
            }
        }

        let mut lnode = self.process(left, &needed_left, false)?;
        let mut rnode = self.process(right, &needed_right, false)?;
        self.force(&mut lnode);
        self.force(&mut rnode);
        let l_rel = match &lnode.rel {
            NodeRel::Ready(r) => r.clone(),
            _ => unreachable!(),
        };
        let r_rel = match &rnode.rel {
            NodeRel::Ready(r) => r.clone(),
            _ => unreachable!(),
        };
        let on_ids = resolve_join_conditions(&l_rel.schema, &r_rel.schema, on)?;
        let nl = l_rel.ncols();
        let subquery = spec.to_string();

        // Semi-joins keep a single side: inherited + upstaged only.
        if matches!(op, JoinOp::LeftSemi | JoinOp::RightSemi) {
            let keep_left_side = op == JoinOp::LeftSemi;
            let (kept_node, kept_rel) = if keep_left_side {
                (&lnode, &l_rel)
            } else {
                (&rnode, &r_rel)
            };
            let t0 = Instant::now();
            let si = side_instance(&l_rel, &r_rel, &on_ids, op, keep_left_side);
            let mut builder = ProvenanceBuilder::new();
            for t in &kept_node.triples {
                builder.insert(t.clone());
            }
            if si.lost_rows {
                let known = kept_node.fd_set();
                let new = mine_new_fds(&si.rel, si.rel.attr_set(), &known);
                let kind = if keep_left_side {
                    FdKind::UpstagedLeft
                } else {
                    FdKind::UpstagedRight
                };
                for fd in new.to_sorted_vec() {
                    builder.insert(ProvenanceTriple::new(fd, kind, subquery.clone()));
                }
            }
            self.timings.upstage += t0.elapsed();
            return Ok(Node {
                schema: kept_rel.schema.clone(),
                rel: NodeRel::Ready(si.rel),
                triples: builder.into_triples(),
            });
        }

        let schema = joined_schema(&l_rel.schema, &r_rel.schema, op);
        let mut builder = ProvenanceBuilder::new();

        // ---- Step A: inherited + upstaged (Algorithm 3) ----
        // The two sides are independent; fan them out over the pool and
        // merge left-then-right so the triple order matches the serial
        // path at any worker count.
        let t0 = Instant::now();
        let mut sides = infine_exec::par_map(&[true, false], |_, &is_left| {
            let node = if is_left { &lnode } else { &rnode };
            let offset = if is_left { 0 } else { nl };
            let si = side_instance(&l_rel, &r_rel, &on_ids, op, is_left);
            let mut side_known = FdSet::new();
            let mut triples: Vec<ProvenanceTriple> = Vec::with_capacity(node.triples.len());
            if si.padded {
                // Outer padding can break inherited FDs: re-validate.
                let mut cache = PliCache::new(&si.rel);
                for t in &node.triples {
                    let ok = if t.fd.lhs.is_empty() {
                        si.rel.nrows() == 0 || si.rel.distinct_count(t.fd.rhs) <= 1
                    } else {
                        cache.fd_holds(t.fd.lhs, t.fd.rhs)
                    };
                    if ok {
                        side_known.insert_minimal(t.fd);
                        triples.push(offset_triple(t, offset));
                    }
                }
            } else {
                for t in &node.triples {
                    side_known.insert_minimal(t.fd);
                    triples.push(offset_triple(t, offset));
                }
            }
            let mut side_all = side_known.clone();
            if si.lost_rows {
                let new = mine_new_fds(&si.rel, si.rel.attr_set(), &side_known);
                let kind = if is_left {
                    FdKind::UpstagedLeft
                } else {
                    FdKind::UpstagedRight
                };
                for fd in new.to_sorted_vec() {
                    side_all.insert_minimal(fd);
                    triples.push(ProvenanceTriple::new(
                        Fd::new(
                            fd.lhs.iter().map(|a| a + offset).collect::<AttrSet>(),
                            fd.rhs + offset,
                        ),
                        kind,
                        subquery.clone(),
                    ));
                }
            }
            (side_all, triples)
        })
        .into_iter();
        let (dl, l_triples) = sides.next().expect("left side result");
        let (dr, r_triples) = sides.next().expect("right side result");
        for t in l_triples.into_iter().chain(r_triples) {
            builder.insert(t);
        }
        self.timings.upstage += t0.elapsed();

        // Join-key equivalence FDs (x → y / y → x) where guaranteed by the
        // operator/padding analysis — fed to inference and mining closures.
        let t1 = Instant::now();
        for &(x, y) in &on_ids {
            let (xy_ok, yx_ok) = key_equivalence_validity(&l_rel, &r_rel, &on_ids, op, x, y);
            if xy_ok {
                builder.insert(ProvenanceTriple::new(
                    Fd::new(AttrSet::single(x), nl + y),
                    FdKind::Inferred,
                    subquery.clone(),
                ));
            }
            if yx_ok {
                builder.insert(ProvenanceTriple::new(
                    Fd::new(AttrSet::single(nl + y), x),
                    FdKind::Inferred,
                    subquery.clone(),
                ));
            }
        }

        // ---- Step B: inferred FDs (Algorithm 4) ----
        let known_snapshot = builder.fds().clone();
        let (inferred, infer_rows) =
            infer_fds(&l_rel, &r_rel, op, &on_ids, &dl, &dr, &known_snapshot);
        self.stats.partial_join_rows += infer_rows;
        for fd in inferred {
            builder.insert(ProvenanceTriple::new(
                fd,
                FdKind::Inferred,
                subquery.clone(),
            ));
        }
        self.timings.infer += t1.elapsed();

        // ---- Step C: join FDs (Algorithm 5) ----
        let t2 = Instant::now();
        let known_snapshot = builder.fds().clone();
        // At the root join, skip rhs attributes the final projection drops
        // (safe there only: inner nodes' FD sets feed parent closures).
        let rhs_mask = if at_root {
            let mask_of = |rel: &Relation| -> AttrSet {
                (0..rel.ncols())
                    .filter(|&i| {
                        rel.schema
                            .attr(i)
                            .origin
                            .as_ref()
                            .map(|o| self.final_av.contains(&origin_key(o)))
                            .unwrap_or(true)
                    })
                    .collect()
            };
            Some((mask_of(&l_rel), mask_of(&r_rel)))
        } else {
            None
        };
        let outcome = mine_join_fds(
            &l_rel,
            &r_rel,
            op,
            &on_ids,
            &dl,
            &dr,
            &known_snapshot,
            rhs_mask,
        );
        self.stats.partial_join_rows += outcome.partial_rows;
        self.stats.pruned_by_theorem4 += outcome.pruned_by_theorem4;
        self.stats.mine_validated += outcome.validated;
        for fd in outcome.fds {
            builder.insert(ProvenanceTriple::new(fd, FdKind::JoinFd, subquery.clone()));
        }
        self.timings.mine += t2.elapsed();

        let rel = match outcome.join {
            Some(join) => NodeRel::Ready(join),
            None => NodeRel::LazyJoin {
                left: Box::new(l_rel),
                right: Box::new(r_rel),
                op,
                on: on_ids,
                keep: None,
                name: subquery,
            },
        };
        Ok(Node {
            schema,
            rel,
            triples: builder.into_triples(),
        })
    }
}

/// Compute the per-base attribute scopes of a view — the exact column
/// subsets [`InFine::discover`] mines in step 1 (projection push-down of
/// Algorithm 1 lines 3–5). The result is the contract between the
/// maintenance engine's per-table FD state and
/// [`InFine::discover_incremental`]'s [`BaseFds`] input: mine (or
/// incrementally maintain) FDs on `scope.project(db)` and key them by
/// `scope.label`.
///
/// Scopes are returned in base-occurrence order (left-to-right in the
/// spec).
pub fn base_scopes(db: &Database, spec: &ViewSpec) -> Result<Vec<BaseScope>, InFineError> {
    validate_alias_uniqueness(spec)?;
    let root_schema = derive_schema(spec, db)?;
    let needed: HashSet<OriginKey> = root_schema
        .iter()
        .filter_map(|a| a.origin.as_ref().map(origin_key))
        .collect();
    let mut out = Vec::new();
    collect_scopes(db, spec, &needed, &mut out)?;
    Ok(out)
}

/// Merge one base label's fragment covers out of per-shard [`BaseFds`]
/// maps: `None` when no shard supplies the label (callers then let the
/// pipeline fall back to mining it), the single cover as-is when exactly
/// one shard does (its fragment is the whole relation), and
/// [`merge_fragment_covers`] on the full scoped relation otherwise. The
/// per-label unit of the incremental crate's sharded engine (which
/// caches merges per label).
pub fn merge_label_covers(
    db: &Database,
    scope: &BaseScope,
    shard_base_fds: &[BaseFds],
) -> Option<FdSet> {
    let covers: Vec<&FdSet> = shard_base_fds
        .iter()
        .filter_map(|m| m.get(&scope.label))
        .collect();
    match covers.len() {
        0 => None,
        1 => Some(covers[0].clone()),
        _ => Some(merge_fragment_covers(&scope.project(db), &covers)),
    }
}

/// Merge canonical minimal covers of disjoint *fragments* of `rel` (row
/// subsets that union to it) into the canonical minimal cover of `rel`
/// itself.
///
/// FD validity is anti-monotone in rows, so every globally valid FD holds
/// on each fragment and each fragment cover contains a subset-lhs seed
/// for it. The merge therefore:
///
/// 1. unions the fragment covers into one antichain
///    ([`FdSet::extend_minimal`] — the read-time merge);
/// 2. validates every merged candidate against the full relation with the
///    counting kernel (candidates valid on one fragment may split classes
///    that span fragments);
/// 3. grows the failed candidates upward through the seeded lattice walk
///    ([`extend_seeds`]) until the minimal globally valid supersets are
///    reached.
///
/// Surviving candidates are globally *minimal* for free: a strictly
/// smaller valid lhs would itself be fragment-valid everywhere and would
/// have evicted the candidate from the merged antichain in step 1. The
/// result is exactly the cover a from-scratch miner produces on `rel`.
pub fn merge_fragment_covers(rel: &Relation, covers: &[&FdSet]) -> FdSet {
    let mut candidates = FdSet::new();
    for c in covers {
        candidates.extend_minimal(c);
    }
    if covers.len() <= 1 {
        return candidates;
    }
    let mut cache = PliCache::new(rel);
    let mut survivors = FdSet::new();
    let mut broken: Vec<Fd> = Vec::new();
    for fd in candidates.to_sorted_vec() {
        if cache.check(fd.lhs, fd.rhs) {
            survivors.insert_minimal(fd);
        } else {
            broken.push(fd);
        }
    }
    if !broken.is_empty() {
        let mut validity = ExactValidity(&mut cache);
        let recovered = extend_seeds(&mut validity, rel.attr_set(), &broken, &survivors);
        survivors.extend_minimal(&recovered);
    }
    survivors
}

/// Recursive worker of [`base_scopes`], mirroring the needed-origin
/// propagation of `Ctx::process` without touching any data.
///
/// COUPLING: this must stay in lockstep with the scoping decisions in
/// `process_base` / `process_select` / `process_join` above — the
/// incremental engine keys its trusted [`BaseFds`] to these scopes, so a
/// divergence silently mines the wrong column subsets. Any change to the
/// push-down there must be replicated here (the
/// `discover_incremental_replays_discover_exactly` test plus the
/// catalog-wide equivalence suite in `infine-incremental` guard this).
fn collect_scopes(
    db: &Database,
    spec: &ViewSpec,
    needed: &HashSet<OriginKey>,
    out: &mut Vec<BaseScope>,
) -> Result<(), InFineError> {
    match spec {
        ViewSpec::Base { table, alias } => {
            let full_schema = derive_schema(spec, db)?;
            let attrs: Vec<AttrId> = (0..full_schema.len())
                .filter(|&i| {
                    full_schema
                        .attr(i)
                        .origin
                        .as_ref()
                        .map(|o| needed.contains(&origin_key(o)))
                        .unwrap_or(false)
                })
                .collect();
            out.push(BaseScope {
                label: alias.clone().unwrap_or_else(|| table.clone()),
                table: table.clone(),
                attrs,
            });
            Ok(())
        }
        ViewSpec::Project { input, .. } => collect_scopes(db, input, needed, out),
        ViewSpec::Select { input, predicate } => {
            let child_full = derive_schema(input, db)?;
            let mut child_needed = needed.clone();
            collect_predicate_origins(predicate, &child_full, &mut child_needed)?;
            collect_scopes(db, input, &child_needed, out)
        }
        ViewSpec::Join {
            left, right, on, ..
        } => {
            let ls_full = derive_schema(left, db)?;
            let rs_full = derive_schema(right, db)?;
            let on_full = resolve_join_conditions(&ls_full, &rs_full, on)?;
            let left_origins: HashSet<OriginKey> = ls_full
                .iter()
                .filter_map(|a| a.origin.as_ref().map(origin_key))
                .collect();
            let right_origins: HashSet<OriginKey> = rs_full
                .iter()
                .filter_map(|a| a.origin.as_ref().map(origin_key))
                .collect();
            let mut needed_left: HashSet<OriginKey> = needed
                .iter()
                .filter(|o| left_origins.contains(*o))
                .cloned()
                .collect();
            let mut needed_right: HashSet<OriginKey> = needed
                .iter()
                .filter(|o| right_origins.contains(*o))
                .cloned()
                .collect();
            for &(l, r) in &on_full {
                if let Some(o) = &ls_full.attr(l).origin {
                    needed_left.insert(origin_key(o));
                }
                if let Some(o) = &rs_full.attr(r).origin {
                    needed_right.insert(origin_key(o));
                }
            }
            collect_scopes(db, left, &needed_left, out)?;
            collect_scopes(db, right, &needed_right, out)
        }
    }
}

/// Shift a triple's FD into the join id space.
fn offset_triple(t: &ProvenanceTriple, offset: usize) -> ProvenanceTriple {
    ProvenanceTriple::new(
        Fd::new(
            t.fd.lhs.iter().map(|a| a + offset).collect::<AttrSet>(),
            t.fd.rhs + offset,
        ),
        t.kind,
        t.subquery.clone(),
    )
}

/// Is `x → y` (and `y → x`) guaranteed on the join result for a key pair?
///
/// Matched rows always satisfy both (the values are equal). Padding is the
/// only risk: when the operator preserves dangling rows of one side, the
/// other side's key column is NULL on those rows, so e.g. `x → y` breaks
/// iff ≥ 2 preserved dangling *right* rows carry distinct `y` values
/// (their `x` is uniformly NULL).
fn key_equivalence_validity(
    l_rel: &Relation,
    r_rel: &Relation,
    on_ids: &[(AttrId, AttrId)],
    op: JoinOp,
    x: AttrId,
    y: AttrId,
) -> (bool, bool) {
    use infine_algebra::matching_rows;
    let lkeys: Vec<AttrId> = on_ids.iter().map(|&(a, _)| a).collect();
    let rkeys: Vec<AttrId> = on_ids.iter().map(|&(_, b)| b).collect();

    // Counting-only, early-exit check: the verdict needs "≥ 2 distinct
    // codes among dangling rows", never the exact count, so the scan
    // hoists the code column, marks matched rows in a dense bitmap, and
    // stops at the second distinct dangling code.
    let dangling_splits = |rel: &Relation,
                           other: &Relation,
                           keys: &[AttrId],
                           other_keys: &[AttrId],
                           attr: AttrId|
     -> bool {
        let mut matched = vec![false; rel.nrows()];
        for row in matching_rows(rel, other, keys, other_keys) {
            matched[row as usize] = true;
        }
        let codes = &rel.column(attr).codes;
        let mut first: Option<u32> = None;
        for (row, &is_matched) in matched.iter().enumerate() {
            if is_matched {
                continue;
            }
            match first {
                None => first = Some(codes[row]),
                Some(f) if f != codes[row] => return true,
                Some(_) => {}
            }
        }
        false
    };

    // x → y threatened by preserved dangling right rows (x = NULL there).
    let xy_ok = if matches!(op, JoinOp::RightOuter | JoinOp::FullOuter) {
        !dangling_splits(r_rel, l_rel, &rkeys, &lkeys, y)
    } else {
        true
    };
    // y → x threatened by preserved dangling left rows.
    let yx_ok = if matches!(op, JoinOp::LeftOuter | JoinOp::FullOuter) {
        !dangling_splits(l_rel, r_rel, &lkeys, &rkeys, x)
    } else {
        true
    };
    (xy_ok, yx_ok)
}

/// Collect the origins of every attribute a predicate references.
fn collect_predicate_origins(
    pred: &infine_algebra::Predicate,
    schema: &Schema,
    out: &mut HashSet<OriginKey>,
) -> Result<(), AlgebraError> {
    use infine_algebra::Predicate as P;
    let mut add = |name: &str| -> Result<(), AlgebraError> {
        let id = resolve(schema, name)?;
        if let Some(o) = &schema.attr(id).origin {
            out.insert(origin_key(o));
        }
        Ok(())
    };
    match pred {
        P::True => Ok(()),
        P::Cmp { attr, .. } | P::IsNull(attr) | P::IsNotNull(attr) | P::In { attr, .. } => {
            add(attr)
        }
        P::And(a, b) | P::Or(a, b) => {
            collect_predicate_origins(a, schema, out)?;
            collect_predicate_origins(b, schema, out)
        }
        P::Not(a) => collect_predicate_origins(a, schema, out),
    }
}

/// Reject specs where the same base table appears twice without aliases —
/// origin-based scope push-down would conflate the two occurrences.
fn validate_alias_uniqueness(spec: &ViewSpec) -> Result<(), InFineError> {
    fn collect<'a>(spec: &'a ViewSpec, out: &mut Vec<&'a str>) {
        match spec {
            ViewSpec::Base { table, alias } => {
                out.push(alias.as_deref().unwrap_or(table.as_str()));
            }
            ViewSpec::Project { input, .. } | ViewSpec::Select { input, .. } => collect(input, out),
            ViewSpec::Join { left, right, .. } => {
                collect(left, out);
                collect(right, out);
            }
        }
    }
    let mut labels = Vec::new();
    collect(spec, &mut labels);
    let mut seen = HashSet::new();
    for l in labels {
        if !seen.insert(l) {
            return Err(InFineError::DuplicateBaseLabel(l.to_string()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_algebra::execute;
    use infine_relation::{relation_from_rows, Value};

    /// The paper's Fig. 1 excerpt (PATIENT ⋈ ADMISSION on subject_id).
    fn fig1_db() -> Database {
        let patient = relation_from_rows(
            "patient",
            &["subject_id", "gender", "dob", "dod", "expire_flag"],
            &[
                &[
                    Value::Int(249),
                    Value::str("F"),
                    Value::str("13/03/75"),
                    Value::Null,
                    Value::Int(0),
                ],
                &[
                    Value::Int(250),
                    Value::str("F"),
                    Value::str("27/12/64"),
                    Value::str("22/11/88"),
                    Value::Int(1),
                ],
                &[
                    Value::Int(251),
                    Value::str("M"),
                    Value::str("15/03/90"),
                    Value::Null,
                    Value::Int(0),
                ],
                &[
                    Value::Int(252),
                    Value::str("M"),
                    Value::str("06/03/78"),
                    Value::Null,
                    Value::Int(0),
                ],
                &[
                    Value::Int(257),
                    Value::str("F"),
                    Value::str("03/04/31"),
                    Value::str("08/07/21"),
                    Value::Int(1),
                ],
            ],
        );
        let admission = relation_from_rows(
            "admission",
            &[
                "subject_id",
                "admittime",
                "admission_location",
                "insurance",
                "diagnosis",
                "h_expire_flag",
            ],
            &[
                &[
                    Value::Int(247),
                    Value::str("03/08/56"),
                    Value::str("CLINIC"),
                    Value::str("UNOBTAINABLE"),
                    Value::str("CHEST PAIN"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(248),
                    Value::str("19/10/42"),
                    Value::str("EMERGENCY"),
                    Value::str("Private"),
                    Value::str("S/P MOTOR"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(249),
                    Value::str("17/12/49"),
                    Value::str("EMERGENCY"),
                    Value::str("Medicare"),
                    Value::str("UNSTABLE ANGINA"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(249),
                    Value::str("03/02/55"),
                    Value::str("EMERGENCY"),
                    Value::str("Medicare"),
                    Value::str("CHEST PAIN"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(249),
                    Value::str("27/04/56"),
                    Value::str("PHYS REF"),
                    Value::str("Medicare"),
                    Value::str("GI BLEEDING"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(250),
                    Value::str("12/11/88"),
                    Value::str("EMERGENCY"),
                    Value::str("Self Pay"),
                    Value::str("PNEUMONIA"),
                    Value::Int(1),
                ],
                &[
                    Value::Int(251),
                    Value::str("27/07/10"),
                    Value::str("EMERGENCY"),
                    Value::str("Private"),
                    Value::str("HEAD BLEED"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(252),
                    Value::str("31/03/33"),
                    Value::str("EMERGENCY"),
                    Value::str("Private"),
                    Value::str("GI BLEED"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(252),
                    Value::str("15/08/33"),
                    Value::str("EMERGENCY"),
                    Value::str("Private"),
                    Value::str("GI BLEED"),
                    Value::Int(0),
                ],
                &[
                    Value::Int(253),
                    Value::str("21/01/74"),
                    Value::str("TRANSFER"),
                    Value::str("Medicare"),
                    Value::str("HEART BLOCK"),
                    Value::Int(0),
                ],
            ],
        );
        let mut db = Database::new();
        db.insert(patient);
        db.insert(admission);
        db
    }

    fn fig1_view() -> ViewSpec {
        ViewSpec::base("patient").inner_join(ViewSpec::base("admission"), &["subject_id"])
    }

    /// Oracle: FDs a baseline discovers on the fully materialized view.
    fn oracle(db: &Database, spec: &ViewSpec) -> (Schema, FdSet) {
        let view = execute(spec, db).unwrap();
        let fds = Algorithm::Tane.discover(&view);
        (view.schema.clone(), fds)
    }

    /// Completeness + correctness (Theorems 5 & 6) against the oracle,
    /// modulo attribute-name alignment between the two schemas.
    fn assert_matches_oracle(db: &Database, spec: &ViewSpec) {
        let report = InFine::default().discover(db, spec).unwrap();
        let (oschema, ofds) = oracle(db, spec);
        // Align: InFine schema attr i ↔ oracle schema attr with same name.
        let map: Vec<AttrId> = (0..report.schema.len())
            .map(|i| oschema.expect_id(report.schema.name(i)))
            .collect();
        let infds: FdSet = report
            .triples
            .iter()
            .map(|t| {
                Fd::new(
                    t.fd.lhs.iter().map(|a| map[a]).collect::<AttrSet>(),
                    map[t.fd.rhs],
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
            .fold(FdSet::new(), |mut s, fd| {
                s.insert_unchecked(fd);
                s
            });
        assert!(
            infds.equivalent(&ofds),
            "InFine ≠ oracle\nInFine:\n{}\noracle:\n{}",
            infds.render(&oschema),
            ofds.render(&oschema)
        );
    }

    #[test]
    fn fig1_join_matches_oracle() {
        let db = fig1_db();
        assert_matches_oracle(&db, &fig1_view());
    }

    #[test]
    fn fig1_upstaged_expire_flag_to_dod() {
        // The paper's flagship upstaged FD: expire_flag ⇁ dod is an AFD in
        // PATIENT (violated by #257) that becomes exact in the join.
        let db = fig1_db();
        let report = InFine::default().discover(&db, &fig1_view()).unwrap();
        let ef = report.schema.expect_id("expire_flag");
        let dod = report.schema.expect_id("dod");
        let t = report
            .triples
            .iter()
            .find(|t| t.fd == Fd::new(AttrSet::single(ef), dod))
            .expect("expire_flag → dod must be discovered");
        assert_eq!(t.kind, FdKind::UpstagedLeft);
    }

    #[test]
    fn fig1_has_inferred_and_join_fds() {
        let db = fig1_db();
        let report = InFine::default().discover(&db, &fig1_view()).unwrap();
        assert!(report.count_kind(FdKind::Base) > 0);
        assert!(report.count_kind(FdKind::Inferred) > 0);
        // diagnosis → dob is the paper's example of an inferred FD...
        // (diagnosis → subject_id is upstaged first, then composed).
        let diag = report.schema.expect_id("diagnosis");
        let dob = report.schema.expect_id("dob");
        assert!(
            report
                .triples
                .iter()
                .any(|t| t.fd == Fd::new(AttrSet::single(diag), dob)),
            "diagnosis → dob missing:\n{}",
            report.render()
        );
    }

    #[test]
    fn selection_upstages_fds() {
        // σ filters the violating tuple → x→y becomes exact.
        let mut db = Database::new();
        db.insert(relation_from_rows(
            "t",
            &["x", "y", "z"],
            &[
                &[Value::Int(1), Value::Int(10), Value::Int(0)],
                &[Value::Int(1), Value::Int(20), Value::Int(1)],
                &[Value::Int(2), Value::Int(30), Value::Int(0)],
            ],
        ));
        let spec = ViewSpec::base("t").select(infine_algebra::Predicate::eq("z", 0i64));
        let report = InFine::default().discover(&db, &spec).unwrap();
        assert!(report.count_kind(FdKind::UpstagedSelection) > 0);
        assert_matches_oracle(&db, &spec);
    }

    #[test]
    fn projection_restricts_and_infers() {
        let db = fig1_db();
        let spec = fig1_view().project(&["gender", "diagnosis", "dob"]);
        assert_matches_oracle(&db, &spec);
    }

    #[test]
    fn left_outer_join_matches_oracle() {
        let db = fig1_db();
        let spec = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::LeftOuter,
            &[("subject_id", "subject_id")],
        );
        let report = InFine::default().discover(&db, &spec).unwrap();
        // Correctness: every reported FD holds on the materialized view.
        let view = execute(&spec, &db).unwrap();
        let mut cache = PliCache::new(&view);
        for t in &report.triples {
            let lhs: AttrSet =
                t.fd.lhs
                    .iter()
                    .map(|a| view.schema.expect_id(report.schema.name(a)))
                    .collect();
            let rhs = view.schema.expect_id(report.schema.name(t.fd.rhs));
            let ok = if lhs.is_empty() {
                view.distinct_count(rhs) <= 1
            } else {
                cache.fd_holds(lhs, rhs)
            };
            assert!(ok, "{} does not hold on the view", t.render(&report.schema));
        }
    }

    #[test]
    fn semi_join_keeps_one_side() {
        let db = fig1_db();
        let spec = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::LeftSemi,
            &[("subject_id", "subject_id")],
        );
        assert_matches_oracle(&db, &spec);
    }

    #[test]
    fn duplicate_base_label_rejected() {
        let db = fig1_db();
        let spec = ViewSpec::base("patient").join(
            ViewSpec::base("patient"),
            JoinOp::Inner,
            &[("gender", "gender")],
        );
        assert!(matches!(
            InFine::default().discover(&db, &spec),
            Err(InFineError::DuplicateBaseLabel(_))
        ));
    }

    #[test]
    fn aliased_self_join_works() {
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
            JoinOp::Inner,
            &[("boss", "id")],
        );
        assert_matches_oracle(&db, &spec);
    }

    #[test]
    fn nested_join_matches_oracle() {
        let db = {
            let mut db = fig1_db();
            db.insert(relation_from_rows(
                "icd",
                &["subject_id", "icd9_code"],
                &[
                    &[Value::Int(249), Value::str("I20")],
                    &[Value::Int(250), Value::str("J18")],
                    &[Value::Int(251), Value::str("I62")],
                    &[Value::Int(252), Value::str("K92")],
                    &[Value::Int(252), Value::str("K93")],
                ],
            ));
            db
        };
        let spec = ViewSpec::base("patient")
            .inner_join(ViewSpec::base("admission"), &["subject_id"])
            .join(
                ViewSpec::base("icd"),
                JoinOp::Inner,
                &[("patient.subject_id", "subject_id")],
            );
        assert_matches_oracle(&db, &spec);
    }

    #[test]
    fn phase_shares_sum_to_one() {
        let db = fig1_db();
        let report = InFine::default().discover(&db, &fig1_view()).unwrap();
        let (u, i, m) = report.phase_shares();
        assert!((u + i + m - 1.0).abs() < 1e-9);
        assert!(u > 0.0);
    }

    /// Mine every base scope the way the maintenance engine would.
    fn mined_base_fds(db: &Database, spec: &ViewSpec) -> BaseFds {
        base_scopes(db, spec)
            .unwrap()
            .into_iter()
            .map(|s| {
                let rel = s.project(db);
                let fds = Algorithm::Levelwise.discover_restricted(&rel, rel.attr_set());
                (s.label, fds)
            })
            .collect()
    }

    #[test]
    fn discover_incremental_replays_discover_exactly() {
        let db = fig1_db();
        for spec in [
            fig1_view(),
            fig1_view().project(&["gender", "diagnosis", "dob"]),
            ViewSpec::base("patient")
                .select(infine_algebra::Predicate::eq("expire_flag", 0i64))
                .join(
                    ViewSpec::base("admission"),
                    JoinOp::LeftOuter,
                    &[("subject_id", "subject_id")],
                ),
        ] {
            let base_fds = mined_base_fds(&db, &spec);
            let full = InFine::default().discover(&db, &spec).unwrap();
            let inc = InFine::default()
                .discover_incremental(&db, &spec, &base_fds)
                .unwrap();
            assert_eq!(full.triples, inc.triples, "spec {spec}");
            // step-1 mining was skipped entirely
            assert_eq!(inc.timings.base_mining, Duration::ZERO);
        }
    }

    /// Restrict every table of `db` to the rows of fragment `shard` out
    /// of `shards` contiguous rid ranges (ceil-chunked like the router).
    fn fragment_db(db: &Database, shards: usize, shard: usize) -> Database {
        let names: Vec<String> = db.names().map(str::to_string).collect();
        let mut out = Database::new();
        for name in names {
            let rel = db.expect(&name);
            let n = rel.nrows();
            let chunk = n.div_ceil(shards).max(1);
            let mut evict = infine_relation::DeltaBatch::new();
            for g in 0..n {
                if (g / chunk).min(shards - 1) != shard {
                    evict.delete(g as u32);
                }
            }
            let (frag, _) = rel.apply_delta(&evict, name.clone());
            out.insert(frag);
        }
        out
    }

    #[test]
    fn merge_fragment_covers_recovers_canonical_cover() {
        let db = fig1_db();
        for table in ["patient", "admission"] {
            let rel = db.expect(table);
            let canonical = Algorithm::Levelwise.discover_restricted(rel, rel.attr_set());
            for shards in [2usize, 3, 4, 8] {
                // 8 fragments of a 5-row table: some are empty — their
                // covers degenerate to "everything is constant" and must
                // still merge away.
                let covers: Vec<FdSet> = (0..shards)
                    .map(|s| {
                        let frag = fragment_db(&db, shards, s);
                        let frel = frag.expect(table);
                        Algorithm::Levelwise.discover_restricted(frel, frel.attr_set())
                    })
                    .collect();
                let refs: Vec<&FdSet> = covers.iter().collect();
                let merged = merge_fragment_covers(rel, &refs);
                assert!(
                    infine_discovery::same_fds(&merged, &canonical),
                    "{table} at {shards} fragments:\n{:?}\nvs canonical\n{:?}",
                    merged.to_sorted_vec(),
                    canonical.to_sorted_vec()
                );
            }
        }
    }

    #[test]
    fn discover_sharded_equals_discover() {
        let db = fig1_db();
        for spec in [
            fig1_view(),
            fig1_view().project(&["gender", "diagnosis", "dob"]),
        ] {
            let full = InFine::default().discover(&db, &spec).unwrap();
            for shards in [1usize, 2, 3] {
                let shard_base: Vec<BaseFds> = (0..shards)
                    .map(|s| {
                        let frag = fragment_db(&db, shards, s);
                        // Scopes are schema-derived, so computing them on
                        // the fragment db matches the full db.
                        base_scopes(&frag, &spec)
                            .unwrap()
                            .into_iter()
                            .map(|sc| {
                                let rel = sc.project(&frag);
                                let fds =
                                    Algorithm::Levelwise.discover_restricted(&rel, rel.attr_set());
                                (sc.label, fds)
                            })
                            .collect()
                    })
                    .collect();
                let merged: BaseFds = base_scopes(&db, &spec)
                    .unwrap()
                    .iter()
                    .filter_map(|sc| {
                        merge_label_covers(&db, sc, &shard_base).map(|fds| (sc.label.clone(), fds))
                    })
                    .collect();
                let sharded = InFine::default()
                    .discover_incremental(&db, &spec, &merged)
                    .unwrap();
                assert_eq!(
                    full.triples, sharded.triples,
                    "spec {spec} at {shards} shards"
                );
                assert_eq!(sharded.timings.base_mining, Duration::ZERO);
            }
        }
    }

    #[test]
    fn base_scopes_cover_aliased_tables_and_join_keys() {
        let mut db = Database::new();
        db.insert(relation_from_rows(
            "e",
            &["id", "boss", "pay"],
            &[
                &[Value::Int(1), Value::Int(2), Value::Int(10)],
                &[Value::Int(2), Value::Int(2), Value::Int(20)],
            ],
        ));
        let spec = ViewSpec::base_as("e", "w")
            .join(
                ViewSpec::base_as("e", "m"),
                JoinOp::Inner,
                &[("boss", "id")],
            )
            .project(&["w.id", "m.pay"]);
        let scopes = base_scopes(&db, &spec).unwrap();
        assert_eq!(scopes.len(), 2);
        let w = scopes.iter().find(|s| s.label == "w").unwrap();
        let m = scopes.iter().find(|s| s.label == "m").unwrap();
        assert_eq!(w.table, "e");
        // w keeps id (projected) + boss (join key); pay is pruned
        assert_eq!(w.attrs, vec![0, 1]);
        // m keeps id (join key) + pay (projected)
        assert_eq!(m.attrs, vec![0, 2]);
        // overrides keyed by alias are honoured
        let base_fds = mined_base_fds(&db, &spec);
        let full = InFine::default().discover(&db, &spec).unwrap();
        let inc = InFine::default()
            .discover_incremental(&db, &spec, &base_fds)
            .unwrap();
        assert_eq!(full.triples, inc.triples);
        assert_eq!(inc.timings.base_mining, Duration::ZERO);
    }

    #[test]
    fn partial_base_fds_fall_back_to_mining() {
        let db = fig1_db();
        let spec = fig1_view();
        let mut base_fds = mined_base_fds(&db, &spec);
        base_fds.remove("admission");
        let full = InFine::default().discover(&db, &spec).unwrap();
        let inc = InFine::default()
            .discover_incremental(&db, &spec, &base_fds)
            .unwrap();
        assert_eq!(full.triples, inc.triples);
        // admission still mined
        assert!(inc.timings.base_mining > Duration::ZERO);
    }

    #[test]
    fn timings_are_populated() {
        let db = fig1_db();
        let report = InFine::default().discover(&db, &fig1_view()).unwrap();
        assert!(report.timings.base_mining > Duration::ZERO);
        // upstage ran (semi-joins + mining)
        assert!(report.timings.upstage > Duration::ZERO);
    }

    #[test]
    fn step_a_output_is_identical_at_any_worker_count() {
        // Step A fans the two join sides out over the pool; the merged
        // triple stream must be byte-identical regardless of worker count.
        let db = fig1_db();
        let specs = [
            fig1_view(),
            ViewSpec::base("patient").join(
                ViewSpec::base("admission"),
                JoinOp::LeftOuter,
                &[("subject_id", "subject_id")],
            ),
            ViewSpec::base("patient").join(
                ViewSpec::base("admission"),
                JoinOp::FullOuter,
                &[("subject_id", "subject_id")],
            ),
        ];
        for spec in &specs {
            let renders: Vec<String> = [1usize, 2, 4]
                .iter()
                .map(|&n| {
                    infine_exec::set_parallelism(n);
                    let report = InFine::default().discover(&db, spec).unwrap();
                    report
                        .triples
                        .iter()
                        .map(|t| t.render(&report.schema))
                        .collect::<Vec<_>>()
                        .join("\n")
                })
                .collect();
            infine_exec::set_parallelism(0);
            assert_eq!(renders[0], renders[1], "1 vs 2 workers differ: {spec}");
            assert_eq!(renders[0], renders[2], "1 vs 4 workers differ: {spec}");
        }
    }
}
