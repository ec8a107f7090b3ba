//! Seeded property test: the join kernels against a nested-loop oracle.
//!
//! `join_relations` (all six operators, with and without column pruning)
//! and `matching_rows` are compared to a reference that pairs rows by
//! comparing key *values* — no dictionary codes, no hashing. The two sides
//! are built independently, so their dictionaries differ: overlapping,
//! disjoint, permuted (values first seen in another order), carrying
//! unused codes (a gathered subset), or shared (a self-join). Keys have
//! 1–3 columns of `Int`, `Str` or `Float` values with NULLs and duplicates
//! (or no column: a cross product), and either side may be empty.

use infine_algebra::{join_relations, matching_rows, JoinOp};
use infine_relation::{relation_from_rows, AttrId, Relation, Value};

const OPS: [JoinOp; 6] = [
    JoinOp::Inner,
    JoinOp::LeftOuter,
    JoinOp::RightOuter,
    JoinOp::FullOuter,
    JoinOp::LeftSemi,
    JoinOp::RightSemi,
];

/// SplitMix64: a self-contained seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// The `i`-th value of a key domain of the given type.
fn key_value(ty: usize, i: usize) -> Value {
    match ty {
        0 => Value::Int(i as i64),
        1 => Value::str(format!("k{i}")),
        _ => Value::float(i as f64 + 0.25),
    }
}

/// One side: column 0 is the row id, then the key columns, then a payload
/// column with NULLs. Keys draw from `offset..offset + domain`.
fn side(rng: &mut Rng, name: &str, types: &[usize], domain: usize, offset: usize) -> Relation {
    let rows = if rng.chance(10) { 0 } else { 1 + rng.below(24) };
    // Extra rows that a gather drops again leave unused dictionary codes.
    let extra = if rng.chance(40) { 1 + rng.below(8) } else { 0 };
    let mut attrs = vec!["rid".to_string()];
    attrs.extend((0..types.len()).map(|k| format!("k{k}")));
    attrs.push("p".to_string());
    let data: Vec<Vec<Value>> = (0..rows + extra)
        .map(|_| {
            let mut row = vec![Value::Int(0)];
            for &ty in types {
                row.push(if rng.chance(12) {
                    Value::Null
                } else {
                    key_value(ty, offset + rng.below(domain))
                });
            }
            row.push(if rng.chance(25) {
                Value::Null
            } else {
                Value::Int(rng.below(5) as i64)
            });
            row
        })
        .collect();
    let refs: Vec<&[Value]> = data.iter().map(Vec::as_slice).collect();
    let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let full = relation_from_rows(name, &names, &refs);
    let mut keep: Vec<u32> = (0..(rows + extra) as u32).collect();
    while keep.len() > rows {
        keep.remove(rng.below(keep.len()));
    }
    let gathered = full.gather(&keep, name);
    // Renumber the row ids so column 0 names the physical row.
    let ids: Vec<Vec<Value>> = (0..rows).map(|r| vec![Value::Int(r as i64)]).collect();
    let id_refs: Vec<&[Value]> = ids.iter().map(Vec::as_slice).collect();
    let rid = relation_from_rows("rid", &["rid"], &id_refs);
    let mut columns = vec![rid.column(0).clone()];
    columns.extend((1..gathered.ncols()).map(|c| gathered.column(c).clone()));
    Relation::from_columns(name, gathered.schema.clone(), columns, rows)
}

/// A row's key values, `None` when any is NULL (SQL: null keys never match).
fn key(rel: &Relation, row: usize, attrs: &[AttrId]) -> Option<Vec<Value>> {
    attrs
        .iter()
        .map(|&a| Some(rel.value(row, a).clone()).filter(|v| !v.is_null()))
        .collect()
}

/// Nested-loop reference: output row pairs in the kernel's documented order.
fn reference(
    left: &Relation,
    right: &Relation,
    op: JoinOp,
    on: &[(AttrId, AttrId)],
) -> Vec<(Option<usize>, Option<usize>)> {
    let lk: Vec<AttrId> = on.iter().map(|p| p.0).collect();
    let rk: Vec<AttrId> = on.iter().map(|p| p.1).collect();
    let joins = |l: usize, r: usize| match (key(left, l, &lk), key(right, r, &rk)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };
    let (nl, nr) = (left.nrows(), right.nrows());
    let mut out = Vec::new();
    match op {
        JoinOp::LeftSemi => out.extend(
            (0..nl)
                .filter(|&l| (0..nr).any(|r| joins(l, r)))
                .map(|l| (Some(l), None)),
        ),
        JoinOp::RightSemi => out.extend(
            (0..nr)
                .filter(|&r| (0..nl).any(|l| joins(l, r)))
                .map(|r| (None, Some(r))),
        ),
        _ => {
            for l in 0..nl {
                let partners: Vec<usize> = (0..nr).filter(|&r| joins(l, r)).collect();
                if partners.is_empty() && matches!(op, JoinOp::LeftOuter | JoinOp::FullOuter) {
                    out.push((Some(l), None));
                }
                out.extend(partners.into_iter().map(|r| (Some(l), Some(r))));
            }
            if matches!(op, JoinOp::RightOuter | JoinOp::FullOuter) {
                let dangling = (0..nr).filter(|&r| (0..nl).all(|l| !joins(l, r)));
                out.extend(dangling.map(|r| (None, Some(r))));
            }
        }
    }
    out
}

/// A random ordered subset of a side's columns, or `None` (keep all).
fn pruning(rng: &mut Rng, ncols: usize) -> Option<Vec<AttrId>> {
    rng.chance(50).then(|| {
        let mut cols: Vec<AttrId> = (0..ncols).filter(|_| rng.chance(50)).collect();
        if cols.len() > 1 && rng.chance(50) {
            cols.reverse();
        }
        cols
    })
}

/// Check one join's output values against the reference pairs.
#[allow(clippy::too_many_arguments)]
fn check_join(
    case: usize,
    left: &Relation,
    right: &Relation,
    op: JoinOp,
    on: &[(AttrId, AttrId)],
    keep_left: Option<&[AttrId]>,
    keep_right: Option<&[AttrId]>,
    pairs: &[(Option<usize>, Option<usize>)],
) {
    let out = join_relations(left, right, op, on, keep_left, keep_right, "out");
    let all_left: Vec<AttrId> = (0..left.ncols()).collect();
    let all_right: Vec<AttrId> = (0..right.ncols()).collect();
    let mut cols: Vec<(&Relation, bool, AttrId)> = Vec::new();
    if op.keeps_left_attrs() {
        cols.extend(
            keep_left
                .unwrap_or(&all_left)
                .iter()
                .map(|&a| (left, true, a)),
        );
    }
    if op.keeps_right_attrs() {
        cols.extend(
            keep_right
                .unwrap_or(&all_right)
                .iter()
                .map(|&a| (right, false, a)),
        );
    }
    let ctx = format!("case {case} {op:?} on {on:?} keep {keep_left:?}/{keep_right:?}");
    assert_eq!(out.nrows(), pairs.len(), "{ctx}: row count");
    assert_eq!(out.ncols(), cols.len(), "{ctx}: column count");
    for (i, &(l, r)) in pairs.iter().enumerate() {
        for (c, &(rel, is_left, a)) in cols.iter().enumerate() {
            let want = match if is_left { l } else { r } {
                Some(row) => rel.value(row, a).clone(),
                None => Value::Null,
            };
            assert_eq!(out.value(i, c), &want, "{ctx}: row {i} column {c}");
            assert_eq!(
                out.is_null(i, c),
                want.is_null(),
                "{ctx}: row {i} column {c}"
            );
        }
    }
}

#[test]
fn join_kernels_match_the_nested_loop_oracle() {
    let mut rng = Rng(0x1f2e_3d4c);
    for case in 0..600 {
        let arity = rng.below(4); // 0 keys: the cross product
        let types: Vec<usize> = (0..arity).map(|_| rng.below(3)).collect();
        let domain = 1 + rng.below(6);
        // Overlapping, partly overlapping or disjoint key domains.
        let offset = [0, domain / 2, domain + 1][rng.below(3)];
        let left = side(&mut rng, "l", &types, domain, 0);
        let right = if rng.chance(10) {
            left.clone() // self-join: one shared dictionary
        } else {
            side(&mut rng, "r", &types, domain, offset)
        };
        let on: Vec<(AttrId, AttrId)> = (1..=arity).map(|k| (k, k)).collect();

        let lkeys: Vec<AttrId> = on.iter().map(|p| p.0).collect();
        let rkeys: Vec<AttrId> = on.iter().map(|p| p.1).collect();
        let semi = |p: &[(Option<usize>, Option<usize>)]| -> Vec<u32> {
            p.iter()
                .filter_map(|&(l, r)| l.or(r).map(|x| x as u32))
                .collect()
        };
        let left_semi = reference(&left, &right, JoinOp::LeftSemi, &on);
        let right_semi = reference(&left, &right, JoinOp::RightSemi, &on);
        assert_eq!(
            matching_rows(&left, &right, &lkeys, &rkeys),
            semi(&left_semi),
            "case {case}"
        );
        assert_eq!(
            matching_rows(&right, &left, &rkeys, &lkeys),
            semi(&right_semi),
            "case {case}"
        );

        for op in OPS {
            let pairs = reference(&left, &right, op, &on);
            // Keeping only the row ids exposes the exact pairs and order.
            check_join(case, &left, &right, op, &on, Some(&[0]), Some(&[0]), &pairs);
            let keep_left = pruning(&mut rng, left.ncols());
            let keep_right = pruning(&mut rng, right.ncols());
            let (kl, kr) = (keep_left.as_deref(), keep_right.as_deref());
            check_join(case, &left, &right, op, &on, kl, kr, &pairs);
        }
    }
}
