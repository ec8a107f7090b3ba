//! Incrementally maintained materialized view with row-id provenance —
//! the engine's cover-only fast path.
//!
//! Every base table is augmented with a hidden `__rid_<label>` column
//! holding a stable logical row id. The view (and every intermediate
//! node of its spec tree) is materialized once with those columns
//! threaded through, after which a delta batch against one base table is
//! delta-sized work:
//!
//! * **Deletes** — a view row sourced from a deleted base row is found by
//!   scanning the node's rid column (linear, no hashing), and removed by
//!   an ordinary [`Relation::apply_delta`](infine_relation::Relation::apply_delta)
//!   compaction. Inner-join trees are monotone, so removed base rows can
//!   only ever remove view rows.
//! * **Inserts** — the new view rows are exactly `Δ ⋈ (other sides)`, so
//!   the inserted base rows are joined *only against the cached sibling
//!   relations along the path to the root* — never recomputing an
//!   unchanged subtree.
//!
//! The view's minimal FD cover rides along in a [`CoverState`] over the
//! visible (non-rid) columns: dirty-class revalidation plus targeted
//! re-mining against the patched view, with no pipeline replay and no
//! base-table mining. This is what lets maintenance beat full
//! re-discovery by an order of magnitude on small deltas.
//!
//! Supported specs: any Select/Project tree over **inner** joins where no
//! base table appears twice (outer joins repad existing rows under
//! inserts, and repeated tables need inclusion–exclusion delta joins —
//! both fall back to the engine's exact-provenance path).

use crate::cover::{CoverDeltaStats, CoverState};
use crate::engine::{dict_entries, DeletePolicy, TombstoneStats, VacuumStats};
use infine_algebra::{
    join_relations, joined_schema, resolve, resolve_join_conditions, select_rows, JoinOp,
    Predicate, ViewSpec,
};
use infine_discovery::{extend_seeds, mine_new_fds_via, Fd, FdSet, Validity};
use infine_partitions::{JoinProbe, Pli, ProbeSink};
use infine_relation::{
    AppliedDelta, AttrId, AttrSet, Attribute, Column, Database, DeltaBatch, DictIndexes, Relation,
    RelationBuilder, Schema, Value,
};
use std::collections::{HashMap, HashSet};

/// One flattened node of the spec tree.
enum NodeOp {
    Base {
        table: String,
    },
    Select {
        child: usize,
        predicate: Predicate,
    },
    Project {
        child: usize,
        /// Resolved child column ids to keep (listed attrs + child rids).
        keep: Vec<AttrId>,
    },
    Join {
        left: usize,
        right: usize,
        /// Resolved (left id, right id) join pairs.
        on: Vec<(AttrId, AttrId)>,
    },
}

struct Node {
    op: NodeOp,
    /// Current materialized augmented relation of this node.
    rel: Relation,
    /// Base table → rid column id within `rel`.
    rid_cols: HashMap<String, AttrId>,
}

/// Persistent join-key index over one side of a join node: key values →
/// current row ids of that side's relation. Rebuilding the probe hash per
/// delta would cost a full pass over the big side every round; this index
/// is built once and carried across versions — deletions remap row ids
/// (integer work, no hashing), insertions hash only the delta rows.
#[derive(Default)]
struct JoinIndex {
    map: HashMap<Vec<Value>, Vec<u32>>,
}

impl JoinIndex {
    /// Build from a relation's join-key columns. Rows with a NULL key
    /// component are excluded (SQL join semantics: null matches nothing).
    fn build(rel: &Relation, keys: &[AttrId]) -> JoinIndex {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for row in 0..rel.nrows() {
            if let Some(key) = key_of(rel, row, keys) {
                map.entry(key).or_default().push(row as u32);
            }
        }
        JoinIndex { map }
    }

    /// Matching rows for one probe key.
    fn get(&self, key: &[Value]) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Carry the index across the indexed side's version change.
    fn patch(&mut self, new_rel: &Relation, keys: &[AttrId], applied: &AppliedDelta) {
        if applied.num_deleted() > 0 {
            self.map.retain(|_, rows| {
                rows.retain_mut(|r| match applied.remap[*r as usize] {
                    Some(new_id) => {
                        *r = new_id;
                        true
                    }
                    None => false,
                });
                !rows.is_empty()
            });
        }
        for row in applied.first_inserted as usize..applied.new_nrows {
            if let Some(key) = key_of(new_rel, row, keys) {
                self.map.entry(key).or_default().push(row as u32);
            }
        }
    }
}

/// Join-key values of one row; `None` when any component is NULL.
fn key_of(rel: &Relation, row: usize, keys: &[AttrId]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(keys.len());
    for &k in keys {
        if rel.is_null(row, k) {
            return None;
        }
        key.push(rel.value(row, k).clone());
    }
    Some(key)
}

/// Stable logical row ids for one base table, aligned with its current
/// row positions.
struct RidState {
    rids: Vec<i64>,
    next: i64,
}

/// The incrementally maintained augmented view plus its FD cover.
pub struct ViewState {
    nodes: Vec<Node>,
    root: usize,
    /// Visible (non-rid) column ids of the root relation, ascending.
    visible_ids: Vec<AttrId>,
    cover: CoverState,
    base_rids: HashMap<String, RidState>,
    /// Per-join-node persistent key indexes: `(left side, right side)`,
    /// keyed by node id. Kept outside [`Node`] so index patching can read
    /// child relations while mutating the index.
    join_indexes: HashMap<usize, (JoinIndex, JoinIndex)>,
    /// Per-node persistent value → dictionary-code indexes, so delta
    /// application never re-hashes a dictionary.
    dict_indexes: Vec<DictIndexes>,
    /// How delete batches hit the node relations (tombstoned nodes skip
    /// the per-round column compaction; see [`ViewState::vacuum`]).
    delete_policy: DeletePolicy,
}

/// Can the fast path maintain this spec? Inner joins only, each base
/// table at most once.
pub fn supports(spec: &ViewSpec) -> bool {
    fn walk(spec: &ViewSpec, tables: &mut HashSet<String>) -> bool {
        match spec {
            ViewSpec::Base { table, .. } => tables.insert(table.clone()),
            ViewSpec::Select { input, .. } | ViewSpec::Project { input, .. } => walk(input, tables),
            ViewSpec::Join {
                left, right, op, ..
            } => *op == JoinOp::Inner && walk(left, tables) && walk(right, tables),
        }
    }
    walk(spec, &mut HashSet::new())
}

/// Name of the hidden rid column for one base label.
fn rid_name(label: &str) -> String {
    format!("__rid_{label}")
}

impl ViewState {
    /// Materialize the augmented view bottom-up and mine its cover.
    pub fn bootstrap(
        db: &Database,
        spec: &ViewSpec,
        delete_policy: DeletePolicy,
    ) -> Option<ViewState> {
        if !supports(spec) {
            return None;
        }
        let mut nodes: Vec<Node> = Vec::new();
        let root = build_node(db, spec, &mut nodes)?;
        let root_rel = &nodes[root].rel;
        let visible_ids: Vec<AttrId> = (0..root_rel.ncols())
            .filter(|&i| !root_rel.schema.name(i).starts_with("__rid_"))
            .collect();
        let visible: AttrSet = visible_ids.iter().copied().collect();
        let cover = CoverState::bootstrap(root_rel, visible);
        let base_rids = nodes
            .iter()
            .filter_map(|n| match &n.op {
                NodeOp::Base { table } => Some((
                    table.clone(),
                    RidState {
                        rids: (0..n.rel.nrows() as i64).collect(),
                        next: n.rel.nrows() as i64,
                    },
                )),
                _ => None,
            })
            .collect();
        let join_indexes = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.op {
                NodeOp::Join { left, right, on } => {
                    let lkeys: Vec<AttrId> = on.iter().map(|&(l, _)| l).collect();
                    let rkeys: Vec<AttrId> = on.iter().map(|&(_, r)| r).collect();
                    Some((
                        i,
                        (
                            JoinIndex::build(&nodes[*left].rel, &lkeys),
                            JoinIndex::build(&nodes[*right].rel, &rkeys),
                        ),
                    ))
                }
                _ => None,
            })
            .collect();
        let dict_indexes = nodes.iter().map(|n| DictIndexes::build(&n.rel)).collect();
        Some(ViewState {
            nodes,
            root,
            visible_ids,
            cover,
            base_rids,
            join_indexes,
            dict_indexes,
            delete_policy,
        })
    }

    /// The maintained minimal cover, densified onto the visible columns
    /// (ids match the real view's column order).
    pub fn dense_cover(&self) -> FdSet {
        let mut dense = vec![usize::MAX; self.nodes[self.root].rel.ncols()];
        for (d, &v) in self.visible_ids.iter().enumerate() {
            dense[v] = d;
        }
        self.cover
            .fds
            .iter()
            .map(|fd| {
                Fd::new(
                    fd.lhs.iter().map(|a| dense[a]).collect::<AttrSet>(),
                    dense[fd.rhs],
                )
            })
            .fold(FdSet::new(), |mut s, fd| {
                s.insert_minimal(fd);
                s
            })
    }

    /// Schema of the visible columns (the real view's schema).
    pub fn dense_schema(&self) -> Schema {
        let rel = &self.nodes[self.root].rel;
        let mut schema = Schema::new();
        for &v in &self.visible_ids {
            schema.push(rel.schema.attr(v).clone());
        }
        schema
    }

    /// Current number of (live) view rows.
    pub fn view_rows(&self) -> usize {
        self.nodes[self.root].rel.live_rows()
    }

    /// Is `table` one of the view's base tables?
    pub fn involves(&self, table: &str) -> bool {
        self.base_rids.contains_key(table)
    }

    /// Propagate one base-table batch through the node tree and maintain
    /// the cover. Returns `None` when the table is not part of the view.
    pub fn apply_table(&mut self, table: &str, batch: &DeltaBatch) -> Option<CoverDeltaStats> {
        self.base_rids.get(table)?;

        // Stable-id bookkeeping: which logical rows die, which are born.
        let rid_state = self.base_rids.get_mut(table).expect("checked above");
        let mut dead = vec![false; rid_state.rids.len()];
        for &d in &batch.deletes {
            dead[d as usize] = true;
        }
        let deleted_rids: HashSet<i64> = rid_state
            .rids
            .iter()
            .zip(&dead)
            .filter_map(|(&rid, &is_dead)| is_dead.then_some(rid))
            .collect();
        let fresh_rids: Vec<i64> = (0..batch.inserts.len() as i64)
            .map(|i| rid_state.next + i)
            .collect();
        rid_state.next += batch.inserts.len() as i64;
        let mut kept: Vec<i64> = rid_state
            .rids
            .iter()
            .zip(&dead)
            .filter_map(|(&rid, &is_dead)| (!is_dead).then_some(rid))
            .collect();
        kept.extend(&fresh_rids);
        rid_state.rids = kept;

        // Phase 1 — compute every changed node's Δ relation bottom-up.
        // Joins probe the *persistent* sibling index with the delta rows,
        // so the work is delta-sized — no pass over unchanged relations.
        let deltas: Vec<Option<Relation>> = {
            let mut deltas: Vec<Option<Relation>> = Vec::with_capacity(self.nodes.len());
            for (i, node) in self.nodes.iter().enumerate() {
                let d = match &node.op {
                    NodeOp::Base { table: t } => {
                        if t == table && !batch.inserts.is_empty() {
                            Some(augmented_rows(
                                &node.rel.schema,
                                &batch.inserts,
                                &fresh_rids,
                            ))
                        } else {
                            None
                        }
                    }
                    NodeOp::Select { child, predicate } => deltas[*child].as_ref().map(|d| {
                        let rows =
                            select_rows(d, predicate).expect("predicate resolved at bootstrap");
                        d.gather(&rows, format!("Δ{i}"))
                    }),
                    NodeOp::Project { child, keep } => deltas[*child]
                        .as_ref()
                        .map(|d| d.project(keep, format!("Δ{i}"))),
                    NodeOp::Join { left, right, on } => {
                        let (left_index, right_index) =
                            self.join_indexes.get(&i).expect("index built at bootstrap");
                        match (&deltas[*left], &deltas[*right]) {
                            (None, None) => None,
                            (Some(dl), None) => Some(probe_join(
                                dl,
                                &self.nodes[*right].rel,
                                right_index,
                                &on.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
                                &node.rel.schema,
                                true,
                            )),
                            (None, Some(dr)) => Some(probe_join(
                                dr,
                                &self.nodes[*left].rel,
                                left_index,
                                &on.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
                                &node.rel.schema,
                                false,
                            )),
                            (Some(_), Some(_)) => {
                                unreachable!("fast path rejects repeated base tables")
                            }
                        }
                    }
                };
                deltas.push(d);
            }
            deltas
        };

        // Phase 2 — apply one combined batch (rid-matched deletes + Δ
        // inserts) to every node above the changed table, remembering the
        // row remap so the join indexes can follow.
        let mut applied_by_node: Vec<Option<AppliedDelta>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let rid_col = match node.rid_cols.get(table) {
                Some(&c) => c,
                None => continue, // node not above the changed table
            };
            let mut node_batch = DeltaBatch::new();
            if !deleted_rids.is_empty() {
                // Translate deleted logical ids to this node's rows via
                // the rid column's dictionary codes: hash only the
                // deleted ids, then compare codes (pure integer scan).
                let rid_column = node.rel.column(rid_col);
                let dead_codes: HashSet<u32> = rid_column
                    .dict
                    .iter()
                    .enumerate()
                    .filter_map(|(code, v)| {
                        v.as_i64()
                            .filter(|rid| deleted_rids.contains(rid))
                            .map(|_| code as u32)
                    })
                    .collect();
                if !dead_codes.is_empty() {
                    for (row, code) in rid_column.codes.iter().enumerate() {
                        if dead_codes.contains(code) {
                            node_batch.delete(row as u32);
                        }
                    }
                }
            }
            if let Some(d) = &deltas[i] {
                for row in 0..d.nrows() {
                    node_batch.insert(d.row(row));
                }
            }
            // Consume the node's relation so dictionary extension reuses
            // the Arc in place (no deep clone on fresh values — rid
            // columns bring one every insert round). The rid scan above
            // names *physical* rows, which is exactly what the
            // tombstoned apply consumes — no row-map translation needed
            // at the node level.
            let name = node.rel.name.clone();
            let old = std::mem::replace(&mut node.rel, Relation::empty("", Schema::new()));
            let (new_rel, applied) = match self.delete_policy {
                DeletePolicy::Compact => {
                    old.apply_delta_owned(&node_batch, name, &mut self.dict_indexes[i])
                }
                DeletePolicy::Tombstone => old.apply_delta_tombstoned(
                    &node_batch.deletes,
                    &node_batch.inserts,
                    name,
                    &mut self.dict_indexes[i],
                ),
            };
            node.rel = new_rel;
            applied_by_node[i] = Some(applied);
        }

        // Phase 2.5 — carry join indexes across their children's version
        // changes (delta-sized hashing, integer remaps).
        for (i, (left_index, right_index)) in self.join_indexes.iter_mut() {
            let NodeOp::Join { left, right, on } = &self.nodes[*i].op else {
                unreachable!("join_indexes only holds join nodes");
            };
            if let Some(applied) = &applied_by_node[*left] {
                let lkeys: Vec<AttrId> = on.iter().map(|&(l, _)| l).collect();
                left_index.patch(&self.nodes[*left].rel, &lkeys, applied);
            }
            if let Some(applied) = &applied_by_node[*right] {
                let rkeys: Vec<AttrId> = on.iter().map(|&(_, r)| r).collect();
                right_index.patch(&self.nodes[*right].rel, &rkeys, applied);
            }
        }

        // Phase 3 — bring the cover across the root's version change.
        let applied = applied_by_node[self.root]
            .take()
            .expect("root is above every base table");
        let stats = self.cover.maintain(&self.nodes[self.root].rel, &applied);
        Some(stats)
    }

    /// Memory accounting over every node relation (rid columns and their
    /// dictionaries included — the append-only growth a vacuum reclaims).
    pub fn tombstone_stats(&self) -> TombstoneStats {
        let mut stats = TombstoneStats::default();
        for node in &self.nodes {
            stats.merge(TombstoneStats::of(&node.rel));
        }
        stats
    }

    /// Vacuum every tombstoned node: drop dead rows, rewrite the rid
    /// columns, garbage-collect dictionaries (dead rid values and dead
    /// data values alike), carry the persistent join indexes across the
    /// row moves, rebase the root cover's PLIs and witnesses, and
    /// rebuild the per-node dictionary indexes. The maintained cover and
    /// the stable logical rids are unchanged.
    pub fn vacuum(&mut self) -> VacuumStats {
        let t0 = std::time::Instant::now();
        let mut stats = VacuumStats::default();
        let mut applied_by_node: Vec<Option<AppliedDelta>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !node.rel.has_tombstones() {
                continue;
            }
            stats.relations += 1;
            stats.rows_dropped += node.rel.tombstone_count();
            let old = std::mem::replace(&mut node.rel, Relation::empty("", Schema::new()));
            let dicts_before = dict_entries(&old);
            let (v, applied) = old.vacuum();
            stats.dict_entries_dropped += dicts_before - dict_entries(&v);
            self.dict_indexes[i] = DictIndexes::build(&v);
            node.rel = v;
            applied_by_node[i] = Some(applied);
        }
        // Join indexes follow their children's row moves (values are
        // unchanged, so the keys stay valid — only row ids renumber).
        for (i, (left_index, right_index)) in self.join_indexes.iter_mut() {
            let NodeOp::Join { left, right, on } = &self.nodes[*i].op else {
                unreachable!("join_indexes only holds join nodes");
            };
            if let Some(applied) = &applied_by_node[*left] {
                let lkeys: Vec<AttrId> = on.iter().map(|&(l, _)| l).collect();
                left_index.patch(&self.nodes[*left].rel, &lkeys, applied);
            }
            if let Some(applied) = &applied_by_node[*right] {
                let rkeys: Vec<AttrId> = on.iter().map(|&(_, r)| r).collect();
                right_index.patch(&self.nodes[*right].rel, &rkeys, applied);
            }
        }
        if let Some(applied) = applied_by_node[self.root].take() {
            self.cover.rebase_rows(&self.nodes[self.root].rel, &applied);
        }
        stats.duration = t0.elapsed();
        stats
    }

    /// Soak/debug hook: the maintained cover must equal a from-scratch
    /// mine of the current root relation. O(full mine); tests only.
    pub fn self_check(&self) {
        self.cover.self_check(&self.nodes[self.root].rel);
    }
}

/// Build the augmented Δ relation for inserted base rows.
fn augmented_rows(schema: &Schema, inserts: &[Vec<Value>], rids: &[i64]) -> Relation {
    let mut builder = RelationBuilder::new("Δbase", schema.clone());
    for (row, &rid) in inserts.iter().zip(rids) {
        let mut r = row.clone();
        r.push(Value::Int(rid));
        builder.push_row(r);
    }
    builder.finish()
}

/// Join delta rows against the sibling side through its persistent index,
/// producing rows in the join node's schema (left columns then right).
/// Cost: `O(|Δ| + matches)` — the sibling relation is only row-gathered
/// at matched positions.
fn probe_join(
    delta: &Relation,
    other: &Relation,
    other_index: &JoinIndex,
    delta_keys: &[AttrId],
    schema: &Schema,
    delta_is_left: bool,
) -> Relation {
    let mut builder = RelationBuilder::new("Δ⋈", schema.clone());
    for row in 0..delta.nrows() {
        let Some(key) = key_of(delta, row, delta_keys) else {
            continue; // NULL key joins nothing
        };
        for &o in other_index.get(&key) {
            let vals = if delta_is_left {
                let mut v = delta.row(row);
                v.extend(other.row(o as usize));
                v
            } else {
                let mut v = other.row(o as usize);
                v.extend(delta.row(row));
                v
            };
            builder.push_row(vals);
        }
    }
    builder.finish()
}

/// Recursively materialize `spec` (augmented), appending to `nodes`;
/// returns the node index, or `None` if resolution fails.
fn build_node(db: &Database, spec: &ViewSpec, nodes: &mut Vec<Node>) -> Option<usize> {
    let node = match spec {
        ViewSpec::Base { table, alias } => {
            let base = db.get(table)?;
            let label = alias.as_deref().unwrap_or(table);
            let mut schema = Schema::new();
            for attr in base.schema.iter() {
                schema.push(attr.clone());
            }
            schema.push(Attribute::new(rid_name(label)));
            let n = base.nrows();
            let mut columns: Vec<Column> =
                (0..base.ncols()).map(|c| base.column(c).clone()).collect();
            columns.push(Column {
                codes: (0..n as u32).collect(),
                dict: std::sync::Arc::new((0..n as i64).map(Value::Int).collect()),
                null_code: None,
            });
            let rid_col = base.ncols();
            Node {
                op: NodeOp::Base {
                    table: table.clone(),
                },
                rel: Relation::from_columns(format!("aug({table})"), schema, columns, n),
                rid_cols: [(table.clone(), rid_col)].into_iter().collect(),
            }
        }
        ViewSpec::Select { input, predicate } => {
            let child = build_node(db, input, nodes)?;
            let child_rel = &nodes[child].rel;
            let rows = select_rows(child_rel, predicate).ok()?;
            let rel = child_rel.gather(&rows, "aug(σ)");
            Node {
                op: NodeOp::Select {
                    child,
                    predicate: predicate.clone(),
                },
                rel,
                rid_cols: nodes[child].rid_cols.clone(),
            }
        }
        ViewSpec::Project { input, attrs } => {
            let child = build_node(db, input, nodes)?;
            let child_rel = &nodes[child].rel;
            let mut keep: Vec<AttrId> = Vec::new();
            for name in attrs {
                keep.push(resolve(&child_rel.schema, name).ok()?);
            }
            let mut rid_cols = HashMap::new();
            for (table, &c) in &nodes[child].rid_cols {
                rid_cols.insert(table.clone(), keep.len());
                keep.push(c);
            }
            let rel = child_rel.project(&keep, "aug(π)");
            Node {
                op: NodeOp::Project { child, keep },
                rel,
                rid_cols,
            }
        }
        ViewSpec::Join {
            left,
            right,
            op,
            on,
        } => {
            debug_assert_eq!(*op, JoinOp::Inner, "fast path rejects non-inner joins");
            let l = build_node(db, left, nodes)?;
            let r = build_node(db, right, nodes)?;
            let (l_rel, r_rel) = (&nodes[l].rel, &nodes[r].rel);
            let on_ids = resolve_join_conditions(&l_rel.schema, &r_rel.schema, on).ok()?;
            let rel = join_relations(l_rel, r_rel, JoinOp::Inner, &on_ids, None, None, "aug(⋈)");
            let nl = l_rel.ncols();
            let mut rid_cols = nodes[l].rid_cols.clone();
            for (table, &c) in &nodes[r].rid_cols {
                rid_cols.insert(table.clone(), c + nl);
            }
            Node {
                op: NodeOp::Join {
                    left: l,
                    right: r,
                    on: on_ids,
                },
                rel,
                rid_cols,
            }
        }
    };
    nodes.push(node);
    Some(nodes.len() - 1)
}

// ---------------------------------------------------------------------------
// View backends: one trait, two engines.
// ---------------------------------------------------------------------------

/// Which view backend the cover-only fast path runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewMode {
    /// Materialize the rid-augmented view tree and maintain it in place
    /// ([`ViewState`]): memory, vacuum, and snapshot cost scale with
    /// |view|, but every validation is a local partition scan.
    #[default]
    Materialized,
    /// Store only per-table base chains plus persistent join indexes and
    /// answer view-level validation through the join-probe kernel
    /// ([`VirtualView`]): zero resident view rows, validation resolves
    /// probe codes through the join indexes instead.
    JoinIndex,
}

/// What the maintenance engine needs from a view implementation — the
/// seam that lets the engine/durability/service stack stop hard-coding
/// "the view is a relation".
pub trait ViewBackend: Send {
    /// Which backend this is (threads into persistence and reports).
    fn mode(&self) -> ViewMode;
    /// Propagate one base-table batch and maintain the cover; `None`
    /// when the table is not part of the view.
    fn apply_table(&mut self, table: &str, batch: &DeltaBatch) -> Option<CoverDeltaStats>;
    /// The maintained minimal cover over the visible view columns.
    fn dense_cover(&self) -> FdSet;
    /// Schema of the visible columns (the real view's schema).
    fn dense_schema(&self) -> Schema;
    /// Current number of live view rows (computed, for a virtual view).
    fn view_rows(&self) -> usize;
    /// Materialized view rows held resident in memory — what a vacuum or
    /// snapshot must carry. Zero for a virtual view.
    fn resident_view_rows(&self) -> usize;
    /// Is `table` one of the view's base tables?
    fn involves(&self, table: &str) -> bool;
    /// Memory accounting over the backend's resident relations.
    fn tombstone_stats(&self) -> TombstoneStats;
    /// Compact tombstoned resident state.
    fn vacuum(&mut self) -> VacuumStats;
    /// Soak/debug hook: panic unless the maintained cover matches a
    /// from-scratch mine. O(full mine); tests only.
    fn self_check(&self);
}

/// The materialized backend is the original [`ViewState`].
pub type MaterializedView = ViewState;

impl ViewBackend for ViewState {
    fn mode(&self) -> ViewMode {
        ViewMode::Materialized
    }
    fn apply_table(&mut self, table: &str, batch: &DeltaBatch) -> Option<CoverDeltaStats> {
        ViewState::apply_table(self, table, batch)
    }
    fn dense_cover(&self) -> FdSet {
        ViewState::dense_cover(self)
    }
    fn dense_schema(&self) -> Schema {
        ViewState::dense_schema(self)
    }
    fn view_rows(&self) -> usize {
        ViewState::view_rows(self)
    }
    fn resident_view_rows(&self) -> usize {
        ViewState::view_rows(self)
    }
    fn involves(&self, table: &str) -> bool {
        ViewState::involves(self, table)
    }
    fn tombstone_stats(&self) -> TombstoneStats {
        ViewState::tombstone_stats(self)
    }
    fn vacuum(&mut self) -> VacuumStats {
        ViewState::vacuum(self)
    }
    fn self_check(&self) {
        ViewState::self_check(self)
    }
}

// ---------------------------------------------------------------------------
// VirtualView: materialization-free backend.
// ---------------------------------------------------------------------------

/// One join constraint of the (tree-shaped) join graph, resolved to base
/// chains: `keys_a` columns of table `a`'s chain top equi-join `keys_b`
/// of table `b`'s, with a persistent [`JoinIndex`] per side.
struct JoinEdge {
    a: usize,
    keys_a: Vec<AttrId>,
    index_a: JoinIndex,
    b: usize,
    keys_b: Vec<AttrId>,
    index_b: JoinIndex,
}

/// Materialization-free view backend: per-base-table chains (the base
/// relation with its single-table selects/projects applied, rid columns
/// threaded through for delete translation) plus persistent join indexes
/// over the resolved join keys — **no view rows are ever resident**.
///
/// View-level FD validation composes the counting kernel with the join
/// indexes: for `X → a`, walk CSR classes of `π_{X∩anchor}` over the
/// base chain owning `a` (the *anchor*), expand each member row through
/// the Steiner tree of join edges connecting the tables of `X ∪ {a}`,
/// and feed the `(outside-anchor codes, rhs code)` pairs to
/// [`JoinProbe`], which early-exits with a violating pair exactly like
/// `refines_with`. Soundness rests on Yannakakis' full-reduction
/// property: per-table *survival* bitmaps (semijoin fixpoint, recomputed
/// per round) guarantee every consistent partial match over a connected
/// subtree extends to a full view row, so enumerating only the Steiner
/// tree is both sound and complete.
///
/// The cover itself is maintained as a plain [`FdSet`]: inserts
/// revalidate held FDs (deletes cannot break an inner-join view FD) and
/// re-extend broken seeds upward; deletes re-run the level-wise miner
/// with the surviving cover as its pruning set — the same state machine
/// as [`CoverState::maintain`], with the join probe as its oracle.
///
/// Supported specs: the materialized subset, further restricted to
/// non-empty join conditions whose per-side keys resolve into a single
/// base chain, and selects pushed below every join. Unsupported specs
/// fall back to the materialized backend.
pub struct VirtualView {
    /// Chain nodes of every table (single-table subtrees, flattened).
    nodes: Vec<Node>,
    /// Chain top node per table.
    tops: Vec<usize>,
    /// Base table name per chain.
    table_names: Vec<String>,
    /// Tree-shaped join graph over the chains.
    edges: Vec<JoinEdge>,
    /// Table → incident edge ids.
    adj: Vec<Vec<usize>>,
    /// Visible view column → (table, column id in that chain's top).
    col_map: Vec<(usize, AttrId)>,
    /// The real view's schema (visible columns).
    schema: Schema,
    /// Maintained minimal cover, dense over the visible columns.
    cover: FdSet,
    base_rids: HashMap<String, RidState>,
    dict_indexes: Vec<DictIndexes>,
    delete_policy: DeletePolicy,
    /// Per-table survival bitmap: row is live *and* participates in at
    /// least one view row (the Yannakakis full reduction).
    survive: Vec<Vec<bool>>,
}

/// Can the virtual backend maintain this spec? The materialized subset
/// ([`supports`]), further requiring every select below the joins and
/// every join an equi-join whose sides resolve within one base chain
/// (checked structurally here, per-side at build time).
pub fn supports_virtual(spec: &ViewSpec) -> bool {
    fn walk(spec: &ViewSpec) -> bool {
        if !spec_has_join(spec) {
            return true; // single-table subtree: becomes one chain
        }
        match spec {
            ViewSpec::Join {
                left,
                right,
                op,
                on,
            } => *op == JoinOp::Inner && !on.is_empty() && walk(left) && walk(right),
            ViewSpec::Project { input, .. } => walk(input),
            // A select above a join filters on multi-table state the
            // chains cannot represent.
            _ => false,
        }
    }
    supports(spec) && walk(spec)
}

fn spec_has_join(spec: &ViewSpec) -> bool {
    match spec {
        ViewSpec::Base { .. } => false,
        ViewSpec::Select { input, .. } | ViewSpec::Project { input, .. } => spec_has_join(input),
        ViewSpec::Join { .. } => true,
    }
}

fn single_base_table(spec: &ViewSpec) -> Option<&str> {
    match spec {
        ViewSpec::Base { table, .. } => Some(table),
        ViewSpec::Select { input, .. } | ViewSpec::Project { input, .. } => {
            single_base_table(input)
        }
        ViewSpec::Join { .. } => None,
    }
}

/// Recursively decompose `spec` into chains + join edges, computing each
/// output column's (table, chain column) provenance and the schema the
/// materialized path would produce at this point of the tree.
fn build_virtual(
    db: &Database,
    spec: &ViewSpec,
    nodes: &mut Vec<Node>,
    tables: &mut Vec<(String, usize)>,
    raw_edges: &mut Vec<(usize, Vec<AttrId>, usize, Vec<AttrId>)>,
) -> Option<(Vec<(usize, AttrId)>, Schema)> {
    if !spec_has_join(spec) {
        let top = build_node(db, spec, nodes)?;
        let name = single_base_table(spec)?.to_string();
        let t = tables.len();
        tables.push((name, top));
        let rel = &nodes[top].rel;
        let cols = (0..rel.ncols()).map(|c| (t, c)).collect();
        return Some((cols, rel.schema.clone()));
    }
    match spec {
        ViewSpec::Join {
            left,
            right,
            op,
            on,
        } => {
            if *op != JoinOp::Inner {
                return None;
            }
            let (lcols, ls) = build_virtual(db, left, nodes, tables, raw_edges)?;
            let (rcols, rs) = build_virtual(db, right, nodes, tables, raw_edges)?;
            let on_ids = resolve_join_conditions(&ls, &rs, on).ok()?;
            let (mut ta, mut tb) = (None, None);
            let mut keys_a: Vec<AttrId> = Vec::new();
            let mut keys_b: Vec<AttrId> = Vec::new();
            for &(l, r) in &on_ids {
                let (tl, cl) = lcols[l];
                let (tr, cr) = rcols[r];
                if *ta.get_or_insert(tl) != tl || *tb.get_or_insert(tr) != tr {
                    return None; // composite key spans two base chains
                }
                keys_a.push(cl);
                keys_b.push(cr);
            }
            raw_edges.push((ta?, keys_a, tb?, keys_b));
            let mut cols = lcols;
            cols.extend(rcols);
            Some((cols, joined_schema(&ls, &rs, JoinOp::Inner)))
        }
        ViewSpec::Project { input, attrs } => {
            let (icols, ischema) = build_virtual(db, input, nodes, tables, raw_edges)?;
            let mut cols = Vec::new();
            let mut schema = Schema::new();
            for name in attrs {
                let id = resolve(&ischema, name).ok()?;
                cols.push(icols[id]);
                schema.push(ischema.attr(id).clone());
            }
            Some((cols, schema))
        }
        _ => None,
    }
}

/// One Steiner-plan step: expand from an assigned `parent` table's row to
/// its join partners in `child` through `edge`.
struct PlanEdge {
    edge: usize,
    parent: usize,
    child: usize,
}

/// Expands one anchor row into its `(probe key, rhs code)` view-row
/// projections by walking the Steiner plan through the join indexes.
struct Expander<'a> {
    view: &'a VirtualView,
    plan: &'a [PlanEdge],
    outer: &'a [(usize, AttrId)],
    anchor: usize,
    rhs_col: AttrId,
}

impl Expander<'_> {
    fn expand(&self, row: u32, sink: &mut ProbeSink) {
        if !self.view.survive[self.anchor][row as usize] {
            return; // dangling or dead: joins into no view row
        }
        let mut assign = vec![u32::MAX; self.view.tops.len()];
        assign[self.anchor] = row;
        self.go(0, &mut assign, sink);
    }

    fn go(&self, idx: usize, assign: &mut Vec<u32>, sink: &mut ProbeSink) {
        if idx == self.plan.len() {
            let key: Vec<u32> = self
                .outer
                .iter()
                .map(|&(t, c)| self.view.code_at(t, assign[t], c))
                .collect();
            let code = self
                .view
                .code_at(self.anchor, assign[self.anchor], self.rhs_col);
            sink.emit(key, code);
            return;
        }
        let pe = &self.plan[idx];
        let e = &self.view.edges[pe.edge];
        let (pkeys, index_child) = if e.a == pe.parent {
            (&e.keys_a, &e.index_b)
        } else {
            (&e.keys_b, &e.index_a)
        };
        sink.hops(1);
        if let Some(key) = key_of(
            self.view.top_rel(pe.parent),
            assign[pe.parent] as usize,
            pkeys,
        ) {
            for &p in index_child.get(&key) {
                if !self.view.survive[pe.child][p as usize] {
                    continue;
                }
                assign[pe.child] = p;
                self.go(idx + 1, assign, sink);
            }
        }
    }
}

/// [`Validity`] oracle over a [`VirtualView`]: every `holds` question
/// runs one [`JoinProbe`] check. Anchor partitions (with their stripped
/// singleton rows) are cached per `(table, lhs∩anchor)` for the duration
/// of one maintenance round.
struct VirtualValidity<'a> {
    view: &'a VirtualView,
    probe: JoinProbe,
    plis: HashMap<(usize, AttrSet), (Pli, Vec<u32>)>,
}

impl<'a> VirtualValidity<'a> {
    fn new(view: &'a VirtualView) -> Self {
        VirtualValidity {
            view,
            probe: JoinProbe::new(),
            plis: HashMap::new(),
        }
    }
}

impl Validity for VirtualValidity<'_> {
    fn holds(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        let view = self.view;
        let (anchor, rhs_col) = view.col_map[rhs];
        let mut anchor_set = AttrSet::EMPTY;
        let mut outer: Vec<(usize, AttrId)> = Vec::new();
        let mut needed: HashSet<usize> = HashSet::new();
        for a in lhs.iter() {
            let (t, c) = view.col_map[a];
            if t == anchor {
                anchor_set = anchor_set.with(c);
            } else {
                outer.push((t, c));
                needed.insert(t);
            }
        }
        let plan = view.steiner_plan(anchor, &needed);
        let expander = Expander {
            view,
            plan: &plan,
            outer: &outer,
            anchor,
            rhs_col,
        };
        if anchor_set.is_empty() {
            // Every anchor row agrees on X∩anchor = ∅: one big class.
            let top = view.top_rel(anchor);
            let rows: Vec<u32> = (0..top.nrows() as u32)
                .filter(|&r| top.is_live(r as usize))
                .collect();
            self.probe
                .check_class(&rows, |row, sink| expander.expand(row, sink))
                .holds()
        } else {
            let (pli, singles) = self.plis.entry((anchor, anchor_set)).or_insert_with(|| {
                let top = view.top_rel(anchor);
                let pli = Pli::for_set(top, anchor_set);
                let mut in_class = vec![false; top.nrows()];
                for class in pli.classes() {
                    for &r in class {
                        in_class[r as usize] = true;
                    }
                }
                let singles = (0..top.nrows() as u32)
                    .filter(|&r| top.is_live(r as usize) && !in_class[r as usize])
                    .collect();
                (pli, singles)
            });
            self.probe
                .check(pli, singles, |row, sink| expander.expand(row, sink))
                .holds()
        }
    }
}

impl VirtualView {
    /// Build the chains + join indexes and mine the cover through the
    /// join probe. `None` when the spec is outside the virtual subset.
    pub fn bootstrap(
        db: &Database,
        spec: &ViewSpec,
        delete_policy: DeletePolicy,
    ) -> Option<VirtualView> {
        Self::build(db, spec, delete_policy, None)
    }

    /// Rebuild from a persisted cover without re-mining (the snapshot
    /// layer stores the dense cover; WAL replay pins it current).
    pub fn restore(
        db: &Database,
        spec: &ViewSpec,
        delete_policy: DeletePolicy,
        cover: FdSet,
    ) -> Option<VirtualView> {
        Self::build(db, spec, delete_policy, Some(cover))
    }

    fn build(
        db: &Database,
        spec: &ViewSpec,
        delete_policy: DeletePolicy,
        cover: Option<FdSet>,
    ) -> Option<VirtualView> {
        if !supports_virtual(spec) {
            return None;
        }
        let mut nodes: Vec<Node> = Vec::new();
        let mut tables: Vec<(String, usize)> = Vec::new();
        let mut raw_edges: Vec<(usize, Vec<AttrId>, usize, Vec<AttrId>)> = Vec::new();
        let (cols, schema) = build_virtual(db, spec, &mut nodes, &mut tables, &mut raw_edges)?;
        let mut col_map = Vec::new();
        let mut visible_schema = Schema::new();
        for (i, &col) in cols.iter().enumerate().take(schema.len()) {
            if !schema.name(i).starts_with("__rid_") {
                col_map.push(col);
                visible_schema.push(schema.attr(i).clone());
            }
        }
        let edges: Vec<JoinEdge> = raw_edges
            .into_iter()
            .map(|(a, keys_a, b, keys_b)| JoinEdge {
                index_a: JoinIndex::build(&nodes[tables[a].1].rel, &keys_a),
                index_b: JoinIndex::build(&nodes[tables[b].1].rel, &keys_b),
                a,
                keys_a,
                b,
                keys_b,
            })
            .collect();
        let mut adj = vec![Vec::new(); tables.len()];
        for (i, e) in edges.iter().enumerate() {
            adj[e.a].push(i);
            adj[e.b].push(i);
        }
        let base_rids = nodes
            .iter()
            .filter_map(|n| match &n.op {
                NodeOp::Base { table } => Some((
                    table.clone(),
                    RidState {
                        rids: (0..n.rel.nrows() as i64).collect(),
                        next: n.rel.nrows() as i64,
                    },
                )),
                _ => None,
            })
            .collect();
        let dict_indexes = nodes.iter().map(|n| DictIndexes::build(&n.rel)).collect();
        let mut view = VirtualView {
            nodes,
            tops: tables.iter().map(|&(_, top)| top).collect(),
            table_names: tables.into_iter().map(|(name, _)| name).collect(),
            edges,
            adj,
            col_map,
            schema: visible_schema,
            cover: FdSet::new(),
            base_rids,
            dict_indexes,
            delete_policy,
            survive: Vec::new(),
        };
        view.recompute_survival();
        view.cover = match cover {
            Some(c) => c,
            None => view.mine_cover(),
        };
        Some(view)
    }

    fn top_rel(&self, t: usize) -> &Relation {
        &self.nodes[self.tops[t]].rel
    }

    fn code_at(&self, t: usize, row: u32, col: AttrId) -> u32 {
        self.top_rel(t).column(col).codes[row as usize]
    }

    /// The attribute universe of the (dense) visible columns.
    fn visible_attrs(&self) -> AttrSet {
        (0..self.col_map.len()).collect()
    }

    /// Pruned pre-order edge walk from `anchor` covering `needed` tables.
    fn steiner_plan(&self, anchor: usize, needed: &HashSet<usize>) -> Vec<PlanEdge> {
        let mut plan = Vec::new();
        self.plan_dfs(anchor, usize::MAX, needed, &mut plan);
        plan
    }

    fn plan_dfs(
        &self,
        t: usize,
        from_edge: usize,
        needed: &HashSet<usize>,
        plan: &mut Vec<PlanEdge>,
    ) -> bool {
        let mut any = needed.contains(&t);
        for &ei in &self.adj[t] {
            if ei == from_edge {
                continue;
            }
            let e = &self.edges[ei];
            let child = if e.a == t { e.b } else { e.a };
            let mark = plan.len();
            plan.push(PlanEdge {
                edge: ei,
                parent: t,
                child,
            });
            if self.plan_dfs(child, ei, needed, plan) {
                any = true;
            } else {
                plan.truncate(mark); // subtree holds nothing needed
            }
        }
        any
    }

    /// Recompute the per-table survival bitmaps: the Yannakakis full
    /// reduction as a semijoin fixpoint over the join tree (converges in
    /// a handful of passes — the tree diameter bounds it).
    fn recompute_survival(&mut self) {
        let mut survive: Vec<Vec<bool>> = (0..self.tops.len())
            .map(|t| {
                let rel = self.top_rel(t);
                (0..rel.nrows()).map(|r| rel.is_live(r)).collect()
            })
            .collect();
        if !self.edges.is_empty() {
            loop {
                let mut changed = false;
                for e in &self.edges {
                    for (src, src_keys, dst, dst_keys) in [
                        (e.a, &e.keys_a, e.b, &e.keys_b),
                        (e.b, &e.keys_b, e.a, &e.keys_a),
                    ] {
                        let rel_src = self.top_rel(src);
                        let keys: HashSet<Vec<Value>> = survive[src]
                            .iter()
                            .enumerate()
                            .filter(|&(_, &s)| s)
                            .filter_map(|(r, _)| key_of(rel_src, r, src_keys))
                            .collect();
                        let rel_dst = self.top_rel(dst);
                        for (r, s) in survive[dst].iter_mut().enumerate() {
                            if *s
                                && !key_of(rel_dst, r, dst_keys)
                                    .map(|k| keys.contains(&k))
                                    .unwrap_or(false)
                            {
                                *s = false;
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        self.survive = survive;
    }

    /// Mine the full cover from scratch through the join probe.
    fn mine_cover(&self) -> FdSet {
        let attrs = self.visible_attrs();
        let known = FdSet::new();
        let mut validity = VirtualValidity::new(self);
        let constants = self.constant_cols(&mut validity, &known);
        mine_new_fds_via(&mut validity, constants, attrs, &known)
    }

    /// Visible columns constant over the current view rows (`∅ → a`).
    /// FDs already in `known` are trusted (the callers only pass sets
    /// whose members were validated against the current version).
    fn constant_cols(&self, validity: &mut VirtualValidity, known: &FdSet) -> AttrSet {
        self.visible_attrs()
            .iter()
            .filter(|&a| {
                known.has_subset_lhs(AttrSet::EMPTY, a) || validity.holds(AttrSet::EMPTY, a)
            })
            .collect()
    }

    /// Bring the cover across one maintenance round — the
    /// [`CoverState::maintain`] state machine with the join probe as its
    /// oracle and no partition/witness state to carry:
    /// * inserts revalidate every held FD (view-row additions are the
    ///   only thing that can break one) and re-extend broken seeds;
    /// * deletes re-run the level-wise miner with the surviving cover as
    ///   its pruning `known` set.
    fn remine_cover(&self, had_inserts: bool, had_deletes: bool) -> (FdSet, CoverDeltaStats) {
        let mut stats = CoverDeltaStats {
            held: self.cover.len(),
            ..CoverDeltaStats::default()
        };
        let attrs = self.visible_attrs();
        let mut validity = VirtualValidity::new(self);
        let mut survivors = FdSet::new();
        let mut broken: Vec<Fd> = Vec::new();
        if !had_inserts {
            survivors = self.cover.clone();
        } else {
            for fd in self.cover.to_sorted_vec() {
                if validity.holds(fd.lhs, fd.rhs) {
                    survivors.insert_minimal(fd);
                } else {
                    broken.push(fd);
                }
            }
        }
        stats.broken = broken.len();
        let mut fds = survivors.clone();
        if !broken.is_empty() {
            let recovered = extend_seeds(&mut validity, attrs, &broken, &survivors);
            stats.recovered = recovered.len();
            fds.extend_minimal(&recovered);
        }
        if had_deletes {
            let constants = self.constant_cols(&mut validity, &fds);
            let surfaced = mine_new_fds_via(&mut validity, constants, attrs, &fds);
            stats.surfaced = surfaced.len();
            fds.extend_minimal(&surfaced);
        }
        (fds, stats)
    }

    /// Propagate one base-table batch through that table's chain, patch
    /// the incident join indexes, refresh survival, and maintain the
    /// cover. Returns `None` when the table is not part of the view.
    pub fn apply_table(&mut self, table: &str, batch: &DeltaBatch) -> Option<CoverDeltaStats> {
        self.base_rids.get(table)?;

        // Stable-id bookkeeping — identical to the materialized path.
        let rid_state = self.base_rids.get_mut(table).expect("checked above");
        let mut dead = vec![false; rid_state.rids.len()];
        for &d in &batch.deletes {
            dead[d as usize] = true;
        }
        let deleted_rids: HashSet<i64> = rid_state
            .rids
            .iter()
            .zip(&dead)
            .filter_map(|(&rid, &is_dead)| is_dead.then_some(rid))
            .collect();
        let fresh_rids: Vec<i64> = (0..batch.inserts.len() as i64)
            .map(|i| rid_state.next + i)
            .collect();
        rid_state.next += batch.inserts.len() as i64;
        let mut kept: Vec<i64> = rid_state
            .rids
            .iter()
            .zip(&dead)
            .filter_map(|(&rid, &is_dead)| (!is_dead).then_some(rid))
            .collect();
        kept.extend(&fresh_rids);
        rid_state.rids = kept;

        // Phase 1 — Δ relations along the changed table's chain (chains
        // hold no joins, so this never probes an index).
        let deltas: Vec<Option<Relation>> = {
            let mut deltas: Vec<Option<Relation>> = Vec::with_capacity(self.nodes.len());
            for (i, node) in self.nodes.iter().enumerate() {
                let d = match &node.op {
                    NodeOp::Base { table: t } => {
                        if t == table && !batch.inserts.is_empty() {
                            Some(augmented_rows(
                                &node.rel.schema,
                                &batch.inserts,
                                &fresh_rids,
                            ))
                        } else {
                            None
                        }
                    }
                    NodeOp::Select { child, predicate } => deltas[*child].as_ref().map(|d| {
                        let rows =
                            select_rows(d, predicate).expect("predicate resolved at bootstrap");
                        d.gather(&rows, format!("Δ{i}"))
                    }),
                    NodeOp::Project { child, keep } => deltas[*child]
                        .as_ref()
                        .map(|d| d.project(keep, format!("Δ{i}"))),
                    NodeOp::Join { .. } => unreachable!("chains contain no joins"),
                };
                deltas.push(d);
            }
            deltas
        };

        // Phase 2 — apply rid-matched deletes + Δ inserts per chain node.
        let mut applied_by_node: Vec<Option<AppliedDelta>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let rid_col = match node.rid_cols.get(table) {
                Some(&c) => c,
                None => continue,
            };
            let mut node_batch = DeltaBatch::new();
            if !deleted_rids.is_empty() {
                let rid_column = node.rel.column(rid_col);
                let dead_codes: HashSet<u32> = rid_column
                    .dict
                    .iter()
                    .enumerate()
                    .filter_map(|(code, v)| {
                        v.as_i64()
                            .filter(|rid| deleted_rids.contains(rid))
                            .map(|_| code as u32)
                    })
                    .collect();
                if !dead_codes.is_empty() {
                    for (row, code) in rid_column.codes.iter().enumerate() {
                        if dead_codes.contains(code) {
                            node_batch.delete(row as u32);
                        }
                    }
                }
            }
            if let Some(d) = &deltas[i] {
                for row in 0..d.nrows() {
                    node_batch.insert(d.row(row));
                }
            }
            let name = node.rel.name.clone();
            let old = std::mem::replace(&mut node.rel, Relation::empty("", Schema::new()));
            let (new_rel, applied) = match self.delete_policy {
                DeletePolicy::Compact => {
                    old.apply_delta_owned(&node_batch, name, &mut self.dict_indexes[i])
                }
                DeletePolicy::Tombstone => old.apply_delta_tombstoned(
                    &node_batch.deletes,
                    &node_batch.inserts,
                    name,
                    &mut self.dict_indexes[i],
                ),
            };
            node.rel = new_rel;
            applied_by_node[i] = Some(applied);
        }

        // Phase 2.5 — carry the incident join indexes across the chain
        // top's version change (delta-sized hashing, integer remaps).
        let t = self
            .table_names
            .iter()
            .position(|n| n == table)
            .expect("base_rids and table_names agree");
        let top = self.tops[t];
        if let Some(applied) = &applied_by_node[top] {
            let top_rel = &self.nodes[top].rel;
            for &ei in &self.adj[t] {
                let e = &mut self.edges[ei];
                if e.a == t {
                    e.index_a.patch(top_rel, &e.keys_a, applied);
                } else {
                    e.index_b.patch(top_rel, &e.keys_b, applied);
                }
            }
        }

        // Phase 3 — refresh survival, then bring the cover across.
        self.recompute_survival();
        let (cover, stats) =
            self.remine_cover(!batch.inserts.is_empty(), !batch.deletes.is_empty());
        self.cover = cover;
        Some(stats)
    }

    /// Memory accounting over the chain relations — there is no resident
    /// view state to account for.
    pub fn tombstone_stats(&self) -> TombstoneStats {
        let mut stats = TombstoneStats::default();
        for node in &self.nodes {
            stats.merge(TombstoneStats::of(&node.rel));
        }
        stats
    }

    /// Vacuum tombstoned chain nodes and carry the join indexes across
    /// the row moves. The cover is row-id-free, so nothing rebases.
    pub fn vacuum(&mut self) -> VacuumStats {
        let t0 = std::time::Instant::now();
        let mut stats = VacuumStats::default();
        let mut applied_by_node: Vec<Option<AppliedDelta>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !node.rel.has_tombstones() {
                continue;
            }
            stats.relations += 1;
            stats.rows_dropped += node.rel.tombstone_count();
            let old = std::mem::replace(&mut node.rel, Relation::empty("", Schema::new()));
            let dicts_before = dict_entries(&old);
            let (v, applied) = old.vacuum();
            stats.dict_entries_dropped += dicts_before - dict_entries(&v);
            self.dict_indexes[i] = DictIndexes::build(&v);
            node.rel = v;
            applied_by_node[i] = Some(applied);
        }
        for e in self.edges.iter_mut() {
            if let Some(applied) = &applied_by_node[self.tops[e.a]] {
                e.index_a
                    .patch(&self.nodes[self.tops[e.a]].rel, &e.keys_a, applied);
            }
            if let Some(applied) = &applied_by_node[self.tops[e.b]] {
                e.index_b
                    .patch(&self.nodes[self.tops[e.b]].rel, &e.keys_b, applied);
            }
        }
        self.recompute_survival();
        stats.duration = t0.elapsed();
        stats
    }

    /// Count the view rows without materializing them: bottom-up per-row
    /// expansion counts over the full join tree.
    fn count_rows(&self) -> usize {
        if self.tops.is_empty() {
            return 0;
        }
        let needed: HashSet<usize> = (0..self.tops.len()).collect();
        let plan = self.steiner_plan(0, &needed);
        let mut cnt: Vec<Vec<u64>> = self
            .survive
            .iter()
            .map(|bits| bits.iter().map(|&s| u64::from(s)).collect())
            .collect();
        // Pre-order plan ⇒ reverse order folds children before parents.
        for pe in plan.iter().rev() {
            let e = &self.edges[pe.edge];
            let (pkeys, index_child) = if e.a == pe.parent {
                (&e.keys_a, &e.index_b)
            } else {
                (&e.keys_b, &e.index_a)
            };
            let prel = self.top_rel(pe.parent);
            let child_cnt = std::mem::take(&mut cnt[pe.child]);
            for (r, c) in cnt[pe.parent].iter_mut().enumerate() {
                if *c == 0 {
                    continue;
                }
                let expansions: u64 = match key_of(prel, r, pkeys) {
                    Some(key) => index_child
                        .get(&key)
                        .iter()
                        .map(|&p| child_cnt[p as usize])
                        .sum(),
                    None => 0,
                };
                *c *= expansions;
            }
            cnt[pe.child] = child_cnt;
        }
        cnt[0].iter().sum::<u64>() as usize
    }

    /// Materialize the visible view rows by full-tree enumeration —
    /// O(|view|), tests and `self_check` only.
    fn materialize(&self) -> Relation {
        let mut builder = RelationBuilder::new("virtual", self.schema.clone());
        if !self.tops.is_empty() {
            let needed: HashSet<usize> = (0..self.tops.len()).collect();
            let plan = self.steiner_plan(0, &needed);
            let mut assign = vec![u32::MAX; self.tops.len()];
            for r in 0..self.top_rel(0).nrows() as u32 {
                if !self.survive[0][r as usize] {
                    continue;
                }
                assign[0] = r;
                self.enumerate(&plan, 0, &mut assign, &mut builder);
            }
        }
        builder.finish()
    }

    fn enumerate(
        &self,
        plan: &[PlanEdge],
        idx: usize,
        assign: &mut Vec<u32>,
        builder: &mut RelationBuilder,
    ) {
        if idx == plan.len() {
            let row: Vec<Value> = self
                .col_map
                .iter()
                .map(|&(t, c)| self.top_rel(t).value(assign[t] as usize, c).clone())
                .collect();
            builder.push_row(row);
            return;
        }
        let pe = &plan[idx];
        let e = &self.edges[pe.edge];
        let (pkeys, index_child) = if e.a == pe.parent {
            (&e.keys_a, &e.index_b)
        } else {
            (&e.keys_b, &e.index_a)
        };
        if let Some(key) = key_of(self.top_rel(pe.parent), assign[pe.parent] as usize, pkeys) {
            for &p in index_child.get(&key) {
                if !self.survive[pe.child][p as usize] {
                    continue;
                }
                assign[pe.child] = p;
                self.enumerate(plan, idx + 1, assign, builder);
            }
        }
    }

    /// Soak/debug hook: the maintained cover must equal a from-scratch
    /// mine of the materialized view rows. O(full mine); tests only.
    pub fn self_check(&self) {
        let rel = self.materialize();
        let fresh = infine_discovery::mine_fds(&rel, rel.attr_set());
        assert!(
            infine_discovery::same_fds(&self.cover, &fresh),
            "virtual cover diverged from fresh mine:\n{:?}\nvs\n{:?}",
            self.cover.to_sorted_vec(),
            fresh.to_sorted_vec()
        );
    }
}

impl ViewBackend for VirtualView {
    fn mode(&self) -> ViewMode {
        ViewMode::JoinIndex
    }
    fn apply_table(&mut self, table: &str, batch: &DeltaBatch) -> Option<CoverDeltaStats> {
        VirtualView::apply_table(self, table, batch)
    }
    fn dense_cover(&self) -> FdSet {
        self.cover.clone()
    }
    fn dense_schema(&self) -> Schema {
        self.schema.clone()
    }
    fn view_rows(&self) -> usize {
        self.count_rows()
    }
    fn resident_view_rows(&self) -> usize {
        0
    }
    fn involves(&self, table: &str) -> bool {
        self.base_rids.contains_key(table)
    }
    fn tombstone_stats(&self) -> TombstoneStats {
        VirtualView::tombstone_stats(self)
    }
    fn vacuum(&mut self) -> VacuumStats {
        VirtualView::vacuum(self)
    }
    fn self_check(&self) {
        VirtualView::self_check(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_algebra::execute;
    use infine_discovery::{same_fds, tane};
    use infine_relation::relation_from_rows;

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
                &[Value::Int(4), Value::str("z")],
            ],
        ));
        db
    }

    fn spec() -> ViewSpec {
        ViewSpec::base("p").inner_join(ViewSpec::base("q"), &["pid"])
    }

    /// Oracle: the canonical cover of the real (un-augmented) view.
    fn oracle_cover(db: &Database, spec: &ViewSpec) -> FdSet {
        let view = execute(spec, db).unwrap();
        tane(&view, view.attr_set())
    }

    fn assert_view_current(view: &ViewState, db: &Database, spec: &ViewSpec) {
        let real = execute(spec, db).unwrap();
        assert_eq!(view.view_rows(), real.nrows(), "row count diverged");
        // visible columns match the real view by name and content
        let schema = view.dense_schema();
        for i in 0..schema.len() {
            assert_eq!(schema.name(i), real.schema.name(i), "column order diverged");
        }
        assert!(
            same_fds(&view.dense_cover(), &oracle_cover(db, spec)),
            "cover diverged from the canonical view cover"
        );
    }

    /// Apply a batch to both the view state and the plain database.
    fn apply_both(view: &mut ViewState, db: &mut Database, table: &str, batch: &DeltaBatch) {
        let stats = view.apply_table(table, batch);
        assert!(stats.is_some());
        let (new_table, _) = db.expect(table).apply_delta(batch, table.to_string());
        db.insert(new_table);
    }

    #[test]
    fn supports_rejects_outer_joins_and_repeats() {
        assert!(supports(&spec()));
        assert!(!supports(&ViewSpec::base("p").join(
            ViewSpec::base("q"),
            JoinOp::LeftOuter,
            &[("pid", "pid")],
        )));
        assert!(!supports(&ViewSpec::base_as("p", "x").join(
            ViewSpec::base_as("p", "y"),
            JoinOp::Inner,
            &[("x.pid", "y.pid")],
        )));
    }

    #[test]
    fn bootstrap_matches_real_view() {
        let db = db();
        let view = ViewState::bootstrap(&db, &spec(), DeletePolicy::Compact).unwrap();
        assert_view_current(&view, &db, &spec());
    }

    #[test]
    fn inserts_deletes_and_mixed_rounds_stay_current() {
        let mut db = db();
        let spec = spec();
        let mut view = ViewState::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();

        // insert into p that joins twice
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(1), Value::str("b"), Value::Int(5)]);
        apply_both(&mut view, &mut db, "p", &b);
        assert_view_current(&view, &db, &spec);

        // delete from q (drops the joined rows)
        let mut b = DeltaBatch::new();
        b.delete(0).delete(3);
        apply_both(&mut view, &mut db, "q", &b);
        assert_view_current(&view, &db, &spec);

        // mixed on p
        let mut b = DeltaBatch::new();
        b.delete(1)
            .insert(vec![Value::Int(3), Value::str("a"), Value::Int(0)])
            .insert(vec![Value::Int(9), Value::str("c"), Value::Int(1)]); // dangles
        apply_both(&mut view, &mut db, "p", &b);
        assert_view_current(&view, &db, &spec);

        // insert into q matching a previously dangling p row
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(9), Value::str("w")]);
        apply_both(&mut view, &mut db, "q", &b);
        assert_view_current(&view, &db, &spec);
    }

    #[test]
    fn selects_and_projects_are_maintained() {
        let mut db = db();
        let spec = ViewSpec::base("p")
            .select(Predicate::eq("flag", 0i64))
            .inner_join(ViewSpec::base("q"), &["pid"])
            .project(&["grp", "site"]);
        let mut view = ViewState::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();
        assert_view_current(&view, &db, &spec);

        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(3), Value::str("c"), Value::Int(0)]) // passes σ, joins
            .insert(vec![Value::Int(1), Value::str("d"), Value::Int(7)]) // filtered by σ
            .delete(0);
        apply_both(&mut view, &mut db, "p", &b);
        assert_view_current(&view, &db, &spec);

        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(2), Value::str("y")]).delete(2);
        apply_both(&mut view, &mut db, "q", &b);
        assert_view_current(&view, &db, &spec);
    }

    #[test]
    fn delete_then_reinsert_same_key_gets_fresh_rid() {
        let mut db = db();
        let spec = spec();
        let mut view = ViewState::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();
        // delete p row 0 (pid 1), then re-insert an identical row — the
        // fresh rid must not resurrect the dead view rows.
        let mut b = DeltaBatch::new();
        b.delete(0);
        apply_both(&mut view, &mut db, "p", &b);
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(1), Value::str("a"), Value::Int(0)]);
        apply_both(&mut view, &mut db, "p", &b);
        assert_view_current(&view, &db, &spec);
    }

    #[test]
    fn untouched_table_delta_is_none() {
        let db = db();
        let mut view = ViewState::bootstrap(&db, &spec(), DeletePolicy::Compact).unwrap();
        assert!(view.apply_table("unrelated", &DeltaBatch::new()).is_none());
        assert!(view.involves("p") && !view.involves("unrelated"));
    }

    // -- VirtualView ------------------------------------------------------

    fn assert_virtual_current(view: &VirtualView, db: &Database, spec: &ViewSpec) {
        let real = execute(spec, db).unwrap();
        assert_eq!(
            ViewBackend::view_rows(view),
            real.nrows(),
            "virtual row count diverged"
        );
        assert_eq!(view.resident_view_rows(), 0, "virtual view holds rows");
        let schema = ViewBackend::dense_schema(view);
        for i in 0..schema.len() {
            assert_eq!(schema.name(i), real.schema.name(i), "column order diverged");
        }
        assert!(
            same_fds(&ViewBackend::dense_cover(view), &oracle_cover(db, spec)),
            "virtual cover diverged from the canonical view cover"
        );
        view.self_check();
    }

    fn apply_both_virtual(
        view: &mut VirtualView,
        db: &mut Database,
        table: &str,
        batch: &DeltaBatch,
    ) {
        let stats = view.apply_table(table, batch);
        assert!(stats.is_some());
        let (new_table, _) = db.expect(table).apply_delta(batch, table.to_string());
        db.insert(new_table);
    }

    #[test]
    fn supports_virtual_accepts_chain_specs_and_rejects_the_rest() {
        assert!(supports_virtual(&spec()));
        assert!(supports_virtual(
            &ViewSpec::base("p")
                .select(Predicate::eq("flag", 0i64))
                .inner_join(ViewSpec::base("q"), &["pid"])
                .project(&["grp", "site"])
        ));
        // select above a join filters multi-table state
        assert!(!supports_virtual(
            &spec().select(Predicate::eq("flag", 0i64))
        ));
        // cross join has no keys to index
        assert!(!supports_virtual(&ViewSpec::base("p").join(
            ViewSpec::base("q"),
            JoinOp::Inner,
            &[],
        )));
        // outer joins stay out (also rejected by the materialized subset)
        assert!(!supports_virtual(&ViewSpec::base("p").join(
            ViewSpec::base("q"),
            JoinOp::LeftOuter,
            &[("pid", "pid")],
        )));
    }

    #[test]
    fn virtual_bootstrap_matches_real_view() {
        let db = db();
        let view = VirtualView::bootstrap(&db, &spec(), DeletePolicy::Compact).unwrap();
        assert_eq!(view.mode(), ViewMode::JoinIndex);
        assert_virtual_current(&view, &db, &spec());
    }

    #[test]
    fn virtual_mixed_rounds_stay_current() {
        let mut db = db();
        let spec = spec();
        let mut view = VirtualView::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();

        // insert into p that joins twice
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(1), Value::str("b"), Value::Int(5)]);
        apply_both_virtual(&mut view, &mut db, "p", &b);
        assert_virtual_current(&view, &db, &spec);

        // delete from q (drops the joined rows)
        let mut b = DeltaBatch::new();
        b.delete(0).delete(3);
        apply_both_virtual(&mut view, &mut db, "q", &b);
        assert_virtual_current(&view, &db, &spec);

        // mixed on p
        let mut b = DeltaBatch::new();
        b.delete(1)
            .insert(vec![Value::Int(3), Value::str("a"), Value::Int(0)])
            .insert(vec![Value::Int(9), Value::str("c"), Value::Int(1)]); // dangles
        apply_both_virtual(&mut view, &mut db, "p", &b);
        assert_virtual_current(&view, &db, &spec);

        // insert into q matching a previously dangling p row
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(9), Value::str("w")]);
        apply_both_virtual(&mut view, &mut db, "q", &b);
        assert_virtual_current(&view, &db, &spec);
    }

    #[test]
    fn virtual_selects_and_projects_are_maintained() {
        let mut db = db();
        let spec = ViewSpec::base("p")
            .select(Predicate::eq("flag", 0i64))
            .inner_join(ViewSpec::base("q"), &["pid"])
            .project(&["grp", "site"]);
        let mut view = VirtualView::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();
        assert_virtual_current(&view, &db, &spec);

        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(3), Value::str("c"), Value::Int(0)]) // passes σ, joins
            .insert(vec![Value::Int(1), Value::str("d"), Value::Int(7)]) // filtered by σ
            .delete(0);
        apply_both_virtual(&mut view, &mut db, "p", &b);
        assert_virtual_current(&view, &db, &spec);

        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(2), Value::str("y")]).delete(2);
        apply_both_virtual(&mut view, &mut db, "q", &b);
        assert_virtual_current(&view, &db, &spec);
    }

    #[test]
    fn virtual_delete_then_reinsert_same_key_gets_fresh_rid() {
        let mut db = db();
        let spec = spec();
        let mut view = VirtualView::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();
        let mut b = DeltaBatch::new();
        b.delete(0);
        apply_both_virtual(&mut view, &mut db, "p", &b);
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(1), Value::str("a"), Value::Int(0)]);
        apply_both_virtual(&mut view, &mut db, "p", &b);
        assert_virtual_current(&view, &db, &spec);
    }

    #[test]
    fn virtual_tombstone_policy_and_vacuum() {
        let mut db = db();
        let spec = spec();
        let mut view = VirtualView::bootstrap(&db, &spec, DeletePolicy::Tombstone).unwrap();
        let mut b = DeltaBatch::new();
        b.delete(1)
            .insert(vec![Value::Int(2), Value::str("c"), Value::Int(1)]);
        apply_both_virtual(&mut view, &mut db, "p", &b);
        assert_virtual_current(&view, &db, &spec);
        let ts = ViewBackend::tombstone_stats(&view);
        assert!(
            ts.physical_rows > ts.live_rows,
            "tombstone policy left no stones"
        );

        let stats = view.vacuum();
        assert!(stats.relations > 0 && stats.rows_dropped > 0);
        let ts = ViewBackend::tombstone_stats(&view);
        assert_eq!(ts.physical_rows, ts.live_rows);
        assert_virtual_current(&view, &db, &spec);

        // churn after the vacuum keeps working against rebased indexes
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(4), Value::str("w")]).delete(0);
        apply_both_virtual(&mut view, &mut db, "q", &b);
        assert_virtual_current(&view, &db, &spec);
    }

    #[test]
    fn virtual_three_table_chain_walks_the_steiner_tree() {
        let mut db = db();
        db.insert(relation_from_rows(
            "r",
            &["site", "region"],
            &[
                &[Value::str("x"), Value::str("north")],
                &[Value::str("y"), Value::str("south")],
                &[Value::str("z"), Value::str("south")],
            ],
        ));
        let spec = ViewSpec::base("p")
            .inner_join(ViewSpec::base("q"), &["pid"])
            .inner_join(ViewSpec::base("r"), &["site"]);
        let mut view = VirtualView::bootstrap(&db, &spec, DeletePolicy::Compact).unwrap();
        assert_virtual_current(&view, &db, &spec);

        // drop a region row — every view row through site "y" disappears
        let mut b = DeltaBatch::new();
        b.delete(1)
            .insert(vec![Value::str("w"), Value::str("east")]);
        apply_both_virtual(&mut view, &mut db, "r", &b);
        assert_virtual_current(&view, &db, &spec);

        // p-side churn must revalidate across both hops
        let mut b = DeltaBatch::new();
        b.insert(vec![Value::Int(4), Value::str("a"), Value::Int(0)]);
        apply_both_virtual(&mut view, &mut db, "p", &b);
        assert_virtual_current(&view, &db, &spec);
    }

    #[test]
    fn virtual_restore_skips_the_mine() {
        let db = db();
        let fresh = VirtualView::bootstrap(&db, &spec(), DeletePolicy::Compact).unwrap();
        let restored = VirtualView::restore(
            &db,
            &spec(),
            DeletePolicy::Compact,
            ViewBackend::dense_cover(&fresh),
        )
        .unwrap();
        assert_virtual_current(&restored, &db, &spec());
    }
}
