//! Execution of SPJ view specifications.
//!
//! The executor materializes views for the *straightforward* baseline
//! pipeline (discover FDs on the full view result) and provides the
//! building blocks InFine uses for *partial* computation: semi-join
//! match-row extraction and column-pruned joins.
//!
//! Joins are hash equi-joins over dictionary codes. Each relation has its
//! own dictionary, so per key column the build side's *used* codes get
//! dense value ids (one hash per distinct value) and each used probe code
//! is translated once; NULL and unmatched codes get no id. Multi-column
//! keys fold into one dense tuple id, and the build table is CSR (counts,
//! prefix sums, row list) on that id. Semi-joins and [`matching_rows`] are
//! a membership test on the ids. No per-row key is allocated or hashed.
//! All kernels scan physical rows `0..nrows`: inputs must be compact.

use crate::spec::{CmpOp, JoinCondition, JoinOp, Predicate, ViewSpec};
use infine_relation::{AttrId, Attribute, Column, Database, Origin, Relation, Schema, Value};
use std::collections::HashMap;

/// Errors raised while deriving schemas or executing views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// A base table named in the spec is missing from the database.
    UnknownRelation(String),
    /// An attribute name did not resolve against a schema.
    UnknownAttribute {
        /// The name that failed to resolve.
        name: String,
        /// The names that were available.
        available: Vec<String>,
    },
    /// An attribute name resolved to more than one schema position.
    AmbiguousAttribute(String),
}

impl std::fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgebraError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            AlgebraError::UnknownAttribute { name, available } => {
                write!(f, "unknown attribute {name:?} (available: {available:?})")
            }
            AlgebraError::AmbiguousAttribute(a) => write!(f, "ambiguous attribute {a:?}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

/// Resolve an attribute reference against a schema.
///
/// Resolution order: exact name match; unique `.name` suffix match (so
/// `subject_id` finds `patients.subject_id` after a collision rename);
/// unique lineage match on `origin.attribute`; unique lineage match on
/// `origin.relation.origin.attribute`.
pub fn resolve(schema: &Schema, name: &str) -> Result<AttrId, AlgebraError> {
    if let Some(id) = schema.id_of(name) {
        return Ok(id);
    }
    let suffix = format!(".{name}");
    let qualified = name.rsplit_once('.');
    let origin_is = |a: &Attribute, rel: Option<&str>, attr: &str| {
        (a.origin.as_ref())
            .is_some_and(|o| o.attribute == attr && rel.is_none_or(|r| o.relation == r))
    };
    // Fallbacks in order; the qualified one (`rel.attr` against full
    // lineage) lets a query say `atm.drug_id` even when the (base)
    // schema's display name is the bare `drug_id`.
    let fallbacks: [&dyn Fn(&Attribute) -> bool; 3] = [
        &|a| a.name.ends_with(&suffix),
        &|a| origin_is(a, None, name),
        &|a| qualified.is_some_and(|(rel, attr)| origin_is(a, Some(rel), attr)),
    ];
    for matches in fallbacks {
        let hits: Vec<AttrId> = (0..schema.len())
            .filter(|&i| matches(schema.attr(i)))
            .collect();
        match hits[..] {
            [id] => return Ok(id),
            [] => {}
            _ => return Err(AlgebraError::AmbiguousAttribute(name.to_string())),
        }
    }
    Err(AlgebraError::UnknownAttribute {
        name: name.to_string(),
        available: schema.names().map(str::to_string).collect(),
    })
}

/// Compute the combined schema of a join, renaming name collisions.
///
/// An attribute keeps its name when unique across both inputs; otherwise it
/// is renamed to `origin.relation.origin.attribute` (falling back to an
/// `l.`/`r.` prefix without lineage), and numeric suffixes `#2`, `#3`, …
/// disambiguate any residual clash.
pub fn joined_schema(left: &Schema, right: &Schema, op: JoinOp) -> Schema {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    let sides: Vec<(&Schema, &str)> = match op {
        JoinOp::LeftSemi => vec![(left, "l")],
        JoinOp::RightSemi => vec![(right, "r")],
        _ => vec![(left, "l"), (right, "r")],
    };
    for (s, _) in &sides {
        for n in s.names() {
            *counts.entry(n).or_insert(0) += 1;
        }
    }
    let mut out = Schema::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    for (s, side) in &sides {
        for attr in s.iter() {
            let base_name = if counts[attr.name.as_str()] > 1 {
                match &attr.origin {
                    Some(o) => format!("{}.{}", o.relation, o.attribute),
                    None => format!("{side}.{}", attr.name),
                }
            } else {
                attr.name.clone()
            };
            let n = used.entry(base_name.clone()).or_insert(0);
            *n += 1;
            let final_name = if *n == 1 {
                base_name
            } else {
                format!("{base_name}#{n}")
            };
            out.push(Attribute {
                name: final_name,
                origin: attr.origin.clone(),
            });
        }
    }
    out
}

/// Key id of a row whose key has a NULL component (SQL: null keys never
/// match) or, on the probe side, no equal build key.
const NO_KEY: u32 = u32::MAX;
/// Memo slot of a dictionary code not yet translated.
const UNSEEN: u32 = u32::MAX - 1;

/// Dense key ids for an equi-join of `build` and `probe` on paired key
/// columns: `(build ids, probe ids, n)`.
///
/// Build rows get ids in `0..n`, one per distinct key tuple they hold; a
/// probe row gets the id of the equal build tuple, so its id is set iff
/// it has a join partner. Per column, each used build code is hashed once
/// into a value map and each used probe code is translated once through
/// it; further columns fold `(tuple id, value id)` into dense tuple ids
/// through a `u64`-keyed map. Rows already without an id are skipped.
fn key_ids(
    build: &Relation,
    bkeys: &[AttrId],
    probe: &Relation,
    pkeys: &[AttrId],
) -> (Vec<u32>, Vec<u32>, usize) {
    assert_eq!(bkeys.len(), pkeys.len());
    let mut b_ids = vec![0; build.nrows()];
    let mut p_ids = vec![if build.nrows() > 0 { 0 } else { NO_KEY }; probe.nrows()];
    let mut n = 1;
    for (&ba, &pa) in bkeys.iter().zip(pkeys) {
        let mut values: HashMap<&Value, u32> = HashMap::new();
        let bv = value_ids(build.column(ba), &b_ids, |v| {
            let next = values.len() as u32;
            *values.entry(v).or_insert(next)
        });
        let pv = value_ids(probe.column(pa), &p_ids, |v| {
            values.get(v).copied().unwrap_or(NO_KEY)
        });
        if n == 1 {
            // Every tuple id so far is 0: the value id is the tuple id.
            (b_ids, p_ids, n) = (bv, pv, values.len());
            continue;
        }
        let m = values.len() as u64;
        let mut tuples: HashMap<u64, u32> = HashMap::new();
        let tuple = |t: u32, v: u32| (v != NO_KEY).then(|| t as u64 * m + v as u64);
        for (t, &v) in b_ids.iter_mut().zip(&bv) {
            let next = tuples.len() as u32;
            *t = tuple(*t, v).map_or(NO_KEY, |k| *tuples.entry(k).or_insert(next));
        }
        for (t, &v) in p_ids.iter_mut().zip(&pv) {
            *t = tuple(*t, v)
                .and_then(|k| tuples.get(&k).copied())
                .unwrap_or(NO_KEY);
        }
        n = tuples.len();
    }
    (b_ids, p_ids, n)
}

/// Per-row value ids of one key column, for rows whose `tuple` id is set;
/// `id` runs once per distinct non-NULL code among them.
fn value_ids<'a>(col: &'a Column, tuple: &[u32], mut id: impl FnMut(&'a Value) -> u32) -> Vec<u32> {
    let mut memo = vec![UNSEEN; col.dict.len()];
    col.codes
        .iter()
        .zip(tuple)
        .map(|(&c, &t)| {
            if t == NO_KEY || Some(c) == col.null_code {
                return NO_KEY;
            }
            let slot = &mut memo[c as usize];
            if *slot == UNSEEN {
                *slot = id(&col.dict[c as usize]);
            }
            *slot
        })
        .collect()
}

/// Rows holding a key id, ascending.
fn keyed(ids: &[u32]) -> impl Iterator<Item = u32> + '_ {
    (0..ids.len() as u32).filter(|&row| ids[row as usize] != NO_KEY)
}

/// Gather output codes for one side's column given (possibly absent) row
/// indices; dangling rows become NULL.
fn gather_optional(col: &Column, rows: &[Option<u32>]) -> Column {
    let mut dict = col.dict.clone();
    let mut null_code = col.null_code;
    if rows.iter().any(Option::is_none) && null_code.is_none() {
        null_code = Some(dict.len() as u32);
        std::sync::Arc::make_mut(&mut dict).push(Value::Null);
    }
    let codes = rows
        .iter()
        .map(|r| match r {
            Some(i) => col.codes[*i as usize],
            None => null_code.expect("null code allocated above"),
        })
        .collect();
    Column {
        codes,
        dict,
        null_code,
    }
}

/// Hash equi-join over two relations with explicit join-attribute ids.
///
/// `keep_left` / `keep_right` prune the output to the listed columns (in
/// that order); `None` keeps everything. Column pruning is what makes
/// InFine's *partial SPJ computation* (Algorithm 4 line 19, Algorithm 5)
/// cheap — only the attributes under test are materialized.
///
/// Rows come out left-major, each left row's partners in ascending right
/// row order, then (right/full outer) the dangling right rows ascending.
/// Both inputs must be compact: the kernel scans physical rows
/// `0..nrows` and does not consult tombstones.
pub fn join_relations(
    left: &Relation,
    right: &Relation,
    op: JoinOp,
    on: &[(AttrId, AttrId)],
    keep_left: Option<&[AttrId]>,
    keep_right: Option<&[AttrId]>,
    name: &str,
) -> Relation {
    debug_assert!(
        !left.has_tombstones() && !right.has_tombstones(),
        "compact inputs only"
    );
    let lattrs: Vec<AttrId> = on.iter().map(|&(l, _)| l).collect();
    let rattrs: Vec<AttrId> = on.iter().map(|&(_, r)| r).collect();
    let (r_ids, l_ids, n) = key_ids(right, &rattrs, left, &lattrs);

    let mut pairs: Vec<(Option<u32>, Option<u32>)> = Vec::new();
    match op {
        JoinOp::LeftSemi => pairs.extend(keyed(&l_ids).map(|l| (Some(l), None))),
        JoinOp::RightSemi => {
            let mut hit = vec![false; n];
            for l in keyed(&l_ids) {
                hit[l_ids[l as usize] as usize] = true;
            }
            let right_hit = keyed(&r_ids).filter(|&r| hit[r_ids[r as usize] as usize]);
            pairs.extend(right_hit.map(|r| (None, Some(r))));
        }
        _ => {
            // CSR build table: right rows grouped by key id, ascending.
            let mut start = vec![0u32; n + 1];
            for r in keyed(&r_ids) {
                start[r_ids[r as usize] as usize + 1] += 1;
            }
            for i in 0..n {
                start[i + 1] += start[i];
            }
            let mut fill = start.clone();
            let mut rows = vec![0u32; start[n] as usize];
            for r in keyed(&r_ids) {
                let slot = &mut fill[r_ids[r as usize] as usize];
                rows[*slot as usize] = r;
                *slot += 1;
            }
            let mut right_matched = vec![false; right.nrows()];
            for (l, &id) in (0u32..).zip(&l_ids) {
                if id == NO_KEY {
                    if matches!(op, JoinOp::LeftOuter | JoinOp::FullOuter) {
                        pairs.push((Some(l), None));
                    }
                    continue;
                }
                for &r in &rows[start[id as usize] as usize..start[id as usize + 1] as usize] {
                    right_matched[r as usize] = true;
                    pairs.push((Some(l), Some(r)));
                }
            }
            if matches!(op, JoinOp::RightOuter | JoinOp::FullOuter) {
                let dangling = (0u32..).zip(right_matched).filter(|&(_, m)| !m);
                pairs.extend(dangling.map(|(r, _)| (None, Some(r))));
            }
        }
    }

    // Assemble output columns.
    let all_left: Vec<AttrId> = (0..left.ncols()).collect();
    let all_right: Vec<AttrId> = (0..right.ncols()).collect();
    let kept_left: &[AttrId] = if op.keeps_left_attrs() {
        keep_left.unwrap_or(&all_left)
    } else {
        &[]
    };
    let kept_right: &[AttrId] = if op.keeps_right_attrs() {
        keep_right.unwrap_or(&all_right)
    } else {
        &[]
    };

    let nrows = pairs.len();
    let (left_rows, right_rows): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();

    // Restricted schemas drive the collision renaming.
    let restrict = |s: &Schema, attrs: &[AttrId]| {
        let mut out = Schema::new();
        for &a in attrs {
            out.push(s.attr(a).clone());
        }
        out
    };
    let lschema = restrict(&left.schema, kept_left);
    let schema = joined_schema(
        &lschema,
        &restrict(&right.schema, kept_right),
        JoinOp::Inner,
    );
    let columns = (kept_left.iter())
        .map(|&a| gather_optional(left.column(a), &left_rows))
        .chain(
            kept_right
                .iter()
                .map(|&a| gather_optional(right.column(a), &right_rows)),
        )
        .collect();
    Relation::from_columns(name, schema, columns, nrows)
}

/// Distinct rows of `probe` that have at least one join partner in `other`.
///
/// This realizes `I ♦X=Y πY(J)` of Algorithm 3 line 13 *without* computing
/// the join: only the key columns are touched and each probe row appears at
/// most once, in ascending order. The result drives both the size check
/// (line 14) and the upstaged-FD mining input. Both inputs must be compact
/// (physical rows `0..nrows`, no tombstones).
pub fn matching_rows(
    probe: &Relation,
    other: &Relation,
    probe_keys: &[AttrId],
    other_keys: &[AttrId],
) -> Vec<u32> {
    debug_assert!(
        !probe.has_tombstones() && !other.has_tombstones(),
        "compact inputs only"
    );
    let (_, ids, _) = key_ids(other, other_keys, probe, probe_keys);
    keyed(&ids).collect()
}

/// A predicate compiled against one relation: a row test.
type RowTest<'a> = Box<dyn Fn(usize) -> bool + 'a>;

/// Compile a predicate, resolving every attribute name once up front — so
/// an unknown name is an error whether or not the relation has rows.
fn compile<'a>(rel: &'a Relation, pred: &'a Predicate) -> Result<RowTest<'a>, AlgebraError> {
    let attr = |name: &str| resolve(&rel.schema, name);
    Ok(match pred {
        Predicate::True => Box::new(|_| true),
        Predicate::Cmp {
            attr: name,
            op,
            value,
        } => {
            let (a, op) = (attr(name)?, *op);
            // SQL: comparisons with NULL are not true.
            Box::new(move |row| {
                !rel.is_null(row, a) && {
                    let v = rel.value(row, a);
                    match op {
                        CmpOp::Eq => v == value,
                        CmpOp::Ne => v != value,
                        CmpOp::Lt => v < value,
                        CmpOp::Le => v <= value,
                        CmpOp::Gt => v > value,
                        CmpOp::Ge => v >= value,
                    }
                }
            })
        }
        Predicate::IsNull(name) | Predicate::IsNotNull(name) => {
            let (a, null) = (attr(name)?, matches!(pred, Predicate::IsNull(_)));
            Box::new(move |row| rel.is_null(row, a) == null)
        }
        Predicate::In { attr: name, values } => {
            let a = attr(name)?;
            Box::new(move |row| !rel.is_null(row, a) && values.contains(rel.value(row, a)))
        }
        Predicate::And(x, y) => {
            let (x, y) = (compile(rel, x)?, compile(rel, y)?);
            Box::new(move |row| x(row) && y(row))
        }
        Predicate::Or(x, y) => {
            let (x, y) = (compile(rel, x)?, compile(rel, y)?);
            Box::new(move |row| x(row) || y(row))
        }
        Predicate::Not(x) => {
            let x = compile(rel, x)?;
            Box::new(move |row| !x(row))
        }
    })
}

/// Apply a selection, returning the surviving row indices.
///
/// The input must be compact: physical rows `0..nrows` are scanned and
/// tombstones are not consulted.
pub fn select_rows(rel: &Relation, pred: &Predicate) -> Result<Vec<u32>, AlgebraError> {
    debug_assert!(!rel.has_tombstones(), "compact input only");
    let test = compile(rel, pred)?;
    Ok((0..rel.nrows() as u32)
        .filter(|&row| test(row as usize))
        .collect())
}

fn apply_alias(rel: &Relation, alias: &str) -> Relation {
    let mut schema = Schema::new();
    for attr in rel.schema.iter() {
        let origin = attr
            .origin
            .as_ref()
            .map(|o| Origin::new(alias, o.attribute.clone()))
            .or_else(|| Some(Origin::new(alias, attr.name.clone())));
        schema.push(Attribute {
            name: attr.name.clone(),
            origin,
        });
    }
    Relation::from_columns(
        alias,
        schema,
        (0..rel.ncols()).map(|c| rel.column(c).clone()).collect(),
        rel.nrows(),
    )
}

/// Materialize a view specification against a database.
///
/// This is the *full* SPJ computation the paper charges to the baseline
/// methods; InFine calls it only on sub-plans it genuinely needs.
pub fn execute(spec: &ViewSpec, db: &Database) -> Result<Relation, AlgebraError> {
    match spec {
        ViewSpec::Base { table, alias } => {
            let rel = db
                .get(table)
                .ok_or_else(|| AlgebraError::UnknownRelation(table.clone()))?;
            // The executor scans physical rows; tombstoned inputs must be
            // vacuumed first (the maintenance engine does so before any
            // pipeline replay — see infine-relation::vacuum).
            debug_assert!(
                !rel.has_tombstones(),
                "execute over tombstoned relation {table:?}: vacuum it first"
            );
            Ok(match alias {
                Some(a) => apply_alias(rel, a),
                None => rel.clone(),
            })
        }
        ViewSpec::Project { input, attrs } => {
            let rel = execute(input, db)?;
            let ids = attrs
                .iter()
                .map(|a| resolve(&rel.schema, a))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(rel.project(&ids, format!("π({})", rel.name)))
        }
        ViewSpec::Select { input, predicate } => {
            let rel = execute(input, db)?;
            let rows = select_rows(&rel, predicate)?;
            Ok(rel.gather(&rows, format!("σ({})", rel.name)))
        }
        ViewSpec::Join {
            left,
            right,
            op,
            on,
        } => {
            let l = execute(left, db)?;
            let r = execute(right, db)?;
            let ids = resolve_join_conditions(&l.schema, &r.schema, on)?;
            let name = format!("({} {} {})", l.name, op.symbol(), r.name);
            Ok(join_relations(&l, &r, *op, &ids, None, None, &name))
        }
    }
}

/// Resolve the name pairs of a join condition against both input schemas.
pub fn resolve_join_conditions(
    left: &Schema,
    right: &Schema,
    on: &[JoinCondition],
) -> Result<Vec<(AttrId, AttrId)>, AlgebraError> {
    on.iter()
        .map(|(l, r)| Ok((resolve(left, l)?, resolve(right, r)?)))
        .collect()
}

/// Derive the output schema of a view without executing it.
///
/// Used by `proj()` (Definition 3) and by InFine's step 1 to restrict base
/// mining to projected attributes. Matches `execute`'s schema exactly.
pub fn derive_schema(spec: &ViewSpec, db: &Database) -> Result<Schema, AlgebraError> {
    match spec {
        ViewSpec::Base { table, alias } => {
            let rel = db
                .get(table)
                .ok_or_else(|| AlgebraError::UnknownRelation(table.clone()))?;
            Ok(match alias {
                Some(a) => {
                    let mut s = Schema::new();
                    for attr in rel.schema.iter() {
                        let origin = attr
                            .origin
                            .as_ref()
                            .map(|o| Origin::new(a.clone(), o.attribute.clone()))
                            .or_else(|| Some(Origin::new(a.clone(), attr.name.clone())));
                        s.push(Attribute {
                            name: attr.name.clone(),
                            origin,
                        });
                    }
                    s
                }
                None => rel.schema.clone(),
            })
        }
        ViewSpec::Project { input, attrs } => {
            let inner = derive_schema(input, db)?;
            let mut s = Schema::new();
            for a in attrs {
                let id = resolve(&inner, a)?;
                s.push(inner.attr(id).clone());
            }
            Ok(s)
        }
        ViewSpec::Select { input, .. } => derive_schema(input, db),
        ViewSpec::Join {
            left, right, op, ..
        } => {
            let l = derive_schema(left, db)?;
            let r = derive_schema(right, db)?;
            Ok(joined_schema(&l, &r, *op))
        }
    }
}

/// The set of output attribute *names* of a view: `proj(V)` of Definition 3.
pub fn proj(spec: &ViewSpec, db: &Database) -> Result<Vec<String>, AlgebraError> {
    Ok(derive_schema(spec, db)?
        .names()
        .map(str::to_string)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_relation::relation_from_rows;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(relation_from_rows(
            "patient",
            &["subject_id", "gender", "dod"],
            &[
                &[Value::Int(249), Value::str("F"), Value::Null],
                &[Value::Int(250), Value::str("F"), Value::str("22/11/88")],
                &[Value::Int(251), Value::str("M"), Value::Null],
                &[Value::Int(257), Value::str("F"), Value::str("08/07/21")],
            ],
        ));
        db.insert(relation_from_rows(
            "admission",
            &["subject_id", "insurance"],
            &[
                &[Value::Int(249), Value::str("Medicare")],
                &[Value::Int(249), Value::str("Medicare")],
                &[Value::Int(250), Value::str("Self Pay")],
                &[Value::Int(251), Value::str("Private")],
                &[Value::Int(247), Value::str("Home")],
            ],
        ));
        db
    }

    #[test]
    fn inner_join_matches_and_renames() {
        let v = ViewSpec::base("patient").inner_join(ViewSpec::base("admission"), &["subject_id"]);
        let r = execute(&v, &db()).unwrap();
        // 249 matches twice, 250 once, 251 once; 257 and 247 dangle.
        assert_eq!(r.nrows(), 4);
        // collision renamed via origins
        assert!(r.schema.id_of("patient.subject_id").is_some());
        assert!(r.schema.id_of("admission.subject_id").is_some());
        assert!(r.schema.id_of("gender").is_some());
    }

    #[test]
    fn derive_schema_matches_execute() {
        let v = ViewSpec::base("patient")
            .inner_join(ViewSpec::base("admission"), &["subject_id"])
            .select(Predicate::eq("insurance", "Medicare"))
            .project(&["gender", "insurance"]);
        let d = db();
        let r = execute(&v, &d).unwrap();
        let s = derive_schema(&v, &d).unwrap();
        assert_eq!(
            r.schema.names().collect::<Vec<_>>(),
            s.names().collect::<Vec<_>>()
        );
        assert_eq!(proj(&v, &d).unwrap(), vec!["gender", "insurance"]);
    }

    #[test]
    fn left_outer_keeps_dangling_left() {
        let v = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::LeftOuter,
            &[("subject_id", "subject_id")],
        );
        let r = execute(&v, &db()).unwrap();
        assert_eq!(r.nrows(), 5); // 4 matches + dangling 257
        let ins = r.schema.expect_id("insurance");
        let dangling = (0..r.nrows()).filter(|&i| r.is_null(i, ins)).count();
        assert_eq!(dangling, 1);
    }

    #[test]
    fn right_and_full_outer() {
        let d = db();
        let v = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::RightOuter,
            &[("subject_id", "subject_id")],
        );
        assert_eq!(execute(&v, &d).unwrap().nrows(), 5); // 4 + dangling 247
        let v = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::FullOuter,
            &[("subject_id", "subject_id")],
        );
        assert_eq!(execute(&v, &d).unwrap().nrows(), 6);
    }

    #[test]
    fn semi_joins_keep_one_side() {
        let d = db();
        let v = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::LeftSemi,
            &[("subject_id", "subject_id")],
        );
        let r = execute(&v, &d).unwrap();
        assert_eq!(r.nrows(), 3); // 249, 250, 251 (each once)
        assert_eq!(r.ncols(), 3);
        assert!(r.schema.id_of("insurance").is_none());

        let v = ViewSpec::base("patient").join(
            ViewSpec::base("admission"),
            JoinOp::RightSemi,
            &[("subject_id", "subject_id")],
        );
        let r = execute(&v, &d).unwrap();
        assert_eq!(r.nrows(), 4); // both 249 rows, 250, 251
        assert_eq!(r.ncols(), 2);
    }

    #[test]
    fn selection_filters_rows() {
        let v = ViewSpec::base("admission").select(Predicate::eq("insurance", "Medicare"));
        let r = execute(&v, &db()).unwrap();
        assert_eq!(r.nrows(), 2);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut d = Database::new();
        d.insert(relation_from_rows(
            "l",
            &["k", "x"],
            &[
                &[Value::Null, Value::Int(1)],
                &[Value::Int(1), Value::Int(2)],
            ],
        ));
        d.insert(relation_from_rows(
            "r",
            &["k", "y"],
            &[
                &[Value::Null, Value::Int(9)],
                &[Value::Int(1), Value::Int(8)],
            ],
        ));
        let v = ViewSpec::base("l").inner_join(ViewSpec::base("r"), &["k"]);
        let res = execute(&v, &d).unwrap();
        assert_eq!(res.nrows(), 1); // NULL = NULL does not join
    }

    #[test]
    fn matching_rows_is_distinct_and_partial() {
        let d = db();
        let p = d.expect("patient");
        let a = d.expect("admission");
        let rows = matching_rows(p, a, &[0], &[0]);
        assert_eq!(rows, vec![0, 1, 2]); // 249,250,251 each once
        let rows = matching_rows(a, p, &[0], &[0]);
        assert_eq!(rows.len(), 4); // both 249 rows kept (distinct probe rows)
    }

    #[test]
    fn join_with_column_pruning() {
        let d = db();
        let p = d.expect("patient");
        let a = d.expect("admission");
        let r = join_relations(
            p,
            a,
            JoinOp::Inner,
            &[(0, 0)],
            Some(&[1]), // gender
            Some(&[1]), // insurance
            "partial",
        );
        assert_eq!(r.ncols(), 2);
        assert_eq!(r.nrows(), 4);
        assert_eq!(r.schema.name(0), "gender");
        assert_eq!(r.schema.name(1), "insurance");
    }

    #[test]
    fn predicate_errors_are_reported() {
        let v = ViewSpec::base("patient").select(Predicate::eq("nope", 1i64));
        assert!(matches!(
            execute(&v, &db()),
            Err(AlgebraError::UnknownAttribute { .. })
        ));
        let v = ViewSpec::base("missing");
        assert!(matches!(
            execute(&v, &db()),
            Err(AlgebraError::UnknownRelation(_))
        ));
        // Attributes resolve before any row is read: an empty input errs too.
        let mut d = db();
        d.insert(relation_from_rows("empty", &["a"], &[]));
        let v = ViewSpec::base("empty").select(Predicate::eq("nope", 1i64));
        assert!(matches!(
            execute(&v, &d),
            Err(AlgebraError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn alias_changes_lineage() {
        let d = db();
        let v = ViewSpec::base_as("patient", "p1").join(
            ViewSpec::base_as("patient", "p2"),
            JoinOp::Inner,
            &[("gender", "gender")],
        );
        let r = execute(&v, &d).unwrap();
        assert!(r.schema.id_of("p1.subject_id").is_some());
        assert!(r.schema.id_of("p2.subject_id").is_some());
        // F appears 3x on each side → 9 pairs; M 1x1 → 1 pair
        assert_eq!(r.nrows(), 10);
    }

    #[test]
    fn resolve_falls_back_to_suffix_and_origin() {
        let d = db();
        let v = ViewSpec::base("patient").inner_join(ViewSpec::base("admission"), &["subject_id"]);
        let r = execute(&v, &d).unwrap();
        // bare name resolves via unique suffix? both sides have .subject_id
        assert!(matches!(
            resolve(&r.schema, "subject_id"),
            Err(AlgebraError::AmbiguousAttribute(_))
        ));
        assert!(resolve(&r.schema, "patient.subject_id").is_ok());
        assert!(resolve(&r.schema, "gender").is_ok());
    }
}
