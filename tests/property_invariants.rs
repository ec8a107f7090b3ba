//! Property-based invariants (proptest) across the whole stack:
//! partitions, the four miners, Armstrong reasoning, the algebra, and the
//! InFine pipeline against the brute-force oracle on random instances.

use infine_algebra::{execute, JoinOp, ViewSpec};
use infine_core::{all_hold, mine_join_fds_with_options, side_instance, InFine};
use infine_discovery::{
    fastfds, fun, hyfd, mine_afds, mine_fds, mine_fds_bruteforce, same_fds, tane, Fd, FdSet,
};
use infine_partitions::{fd_holds, fd_holds_bruteforce, Pli, PliCache};
use infine_relation::{relation_from_rows, AttrSet, Database, Relation, Value};
use proptest::prelude::*;

/// A small random relation: `ncols` in 2..=4, up to 12 rows, tiny domains
/// (tiny domains maximize FD/violation structure).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=4, 0usize..=12)
        .prop_flat_map(|(ncols, nrows)| {
            proptest::collection::vec(proptest::collection::vec(0i64..4, ncols), nrows..=nrows)
        })
        .prop_map(|rows| {
            let ncols = rows.first().map(Vec::len).unwrap_or(2);
            let names: Vec<String> = (0..ncols).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let value_rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|&v| if v == 3 { Value::Null } else { Value::Int(v) })
                        .collect()
                })
                .collect();
            let refs: Vec<&[Value]> = value_rows.iter().map(|r| r.as_slice()).collect();
            relation_from_rows("t", &name_refs, &refs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_miners_agree_with_bruteforce(rel in arb_relation()) {
        let attrs = rel.attr_set();
        let oracle = mine_fds_bruteforce(&rel, attrs);
        for (name, fds) in [
            ("tane", tane(&rel, attrs)),
            ("fun", fun(&rel, attrs)),
            ("fastfds", fastfds(&rel, attrs)),
            ("hyfd", hyfd(&rel, attrs)),
            ("levelwise", mine_fds(&rel, attrs)),
        ] {
            prop_assert!(
                same_fds(&fds, &oracle),
                "{name} disagrees:\n{:?}\nvs oracle\n{:?}",
                fds.to_sorted_vec(), oracle.to_sorted_vec()
            );
        }
    }

    #[test]
    fn pli_fd_check_matches_bruteforce(rel in arb_relation()) {
        let n = rel.ncols();
        for lhs_bits in 1u64..(1 << n) {
            let lhs = AttrSet::from_bits(lhs_bits);
            for rhs in 0..n {
                if lhs.contains(rhs) { continue; }
                prop_assert_eq!(
                    fd_holds(&rel, lhs, rhs),
                    fd_holds_bruteforce(&rel, lhs, rhs)
                );
            }
        }
    }

    #[test]
    fn pli_product_equals_direct_grouping(rel in arb_relation()) {
        let n = rel.ncols();
        for i in 0..n {
            for j in (i + 1)..n {
                let a = Pli::for_attr(&rel, i);
                let b = Pli::for_attr(&rel, j);
                let product = a.intersect(&b);
                let direct = Pli::for_set(&rel, [i, j].into_iter().collect());
                prop_assert_eq!(product, direct);
            }
        }
    }

    #[test]
    fn g3_is_bounded_and_zero_iff_exact(rel in arb_relation()) {
        if rel.nrows() == 0 { return Ok(()); }
        let mut cache = PliCache::new(&rel);
        let n = rel.ncols();
        for a in 0..n {
            for b in 0..n {
                if a == b { continue; }
                let g = cache.g3(AttrSet::single(a), b);
                prop_assert!((0.0..=1.0).contains(&g));
                prop_assert_eq!(g == 0.0, cache.fd_holds(AttrSet::single(a), b));
            }
        }
    }

    #[test]
    fn afds_superset_of_exact_and_monotone_in_epsilon(rel in arb_relation()) {
        let attrs = rel.attr_set();
        let exact = mine_fds(&rel, attrs);
        let loose = mine_afds(&rel, attrs, 0.3);
        // every exact FD is implied by the AFD set (antichains may shrink
        // lhs further under the weaker validity)
        for fd in exact.iter() {
            prop_assert!(
                loose.has_subset_lhs(fd.lhs, fd.rhs),
                "AFD set lost exact FD {fd}"
            );
        }
    }

    #[test]
    fn closure_laws(rel in arb_relation()) {
        let fds = mine_fds(&rel, rel.attr_set());
        let n = rel.ncols();
        for bits in 0u64..(1 << n) {
            let x = AttrSet::from_bits(bits);
            let cx = fds.closure(x);
            // extensive, monotone (via subset sampling), idempotent
            prop_assert!(x.is_subset(cx));
            prop_assert_eq!(fds.closure(cx), cx);
            for b in x.iter() {
                let sub = x.without(b);
                prop_assert!(fds.closure(sub).is_subset(cx));
            }
        }
    }

    #[test]
    fn minimal_cover_is_equivalent(rel in arb_relation()) {
        let fds = mine_fds(&rel, rel.attr_set());
        let cover = fds.minimal_cover();
        prop_assert!(cover.equivalent(&fds));
        prop_assert!(cover.len() <= fds.len());
    }

    #[test]
    fn theorem1_selection_preserves_fds(rel in arb_relation()) {
        if rel.nrows() == 0 { return Ok(()); }
        // σ keeps rows with c0 = 0 (dictionary-coded: compare value)
        let rows: Vec<u32> = (0..rel.nrows() as u32)
            .filter(|&r| rel.value(r as usize, 0) == &Value::Int(0))
            .collect();
        let filtered = rel.gather(&rows, "σ");
        let before = mine_fds(&rel, rel.attr_set());
        // every FD valid before stays valid after row removal
        prop_assert!(all_hold(&filtered, &before));
    }

    #[test]
    fn theorem1_inner_join_preserves_side_fds(l in arb_relation(), r in arb_relation()) {
        let mut db = Database::new();
        let lrel = rename(&l, "l");
        let rrel = rename(&r, "r");
        db.insert(lrel.clone());
        db.insert(rrel.clone());
        let spec = ViewSpec::base("l").join(
            ViewSpec::base("r"),
            JoinOp::Inner,
            &[("l.c0", "r.c0")],
        );
        let view = execute(&spec, &db).unwrap();
        // left FDs hold on the view's left columns (ids 0..ncols_l)
        let lfds = mine_fds(&lrel, lrel.attr_set());
        prop_assert!(all_hold(&view, &lfds));
        // right FDs hold with offset ids
        let rfds = mine_fds(&rrel, rrel.attr_set());
        let shifted: FdSet = rfds
            .iter()
            .map(|fd| Fd::new(
                fd.lhs.iter().map(|a| a + lrel.ncols()).collect::<AttrSet>(),
                fd.rhs + lrel.ncols(),
            ))
            .collect::<Vec<_>>()
            .into_iter()
            .fold(FdSet::new(), |mut s, fd| { s.insert_unchecked(fd); s });
        prop_assert!(all_hold(&view, &shifted));
    }

    #[test]
    fn infine_matches_oracle_on_random_joins(l in arb_relation(), r in arb_relation()) {
        let mut db = Database::new();
        db.insert(rename(&l, "l"));
        db.insert(rename(&r, "r"));
        let spec = ViewSpec::base("l").join(
            ViewSpec::base("r"),
            JoinOp::Inner,
            &[("l.c0", "r.c0")],
        );
        let view = execute(&spec, &db).unwrap();
        let report = InFine::default().discover(&db, &spec).unwrap();
        // align by display name
        let map: Vec<usize> = (0..report.schema.len())
            .map(|i| view.schema.expect_id(report.schema.name(i)))
            .collect();
        let infds = report.triples.iter().fold(FdSet::new(), |mut s, t| {
            s.insert_unchecked(Fd::new(
                t.fd.lhs.iter().map(|a| map[a]).collect::<AttrSet>(),
                map[t.fd.rhs],
            ));
            s
        });
        prop_assert!(all_hold(&view, &infds), "correctness violated");
        let oracle = tane(&view, view.attr_set());
        prop_assert!(
            infds.equivalent(&oracle),
            "completeness violated:\nInFine {:?}\noracle {:?}",
            infds.to_sorted_vec(), oracle.to_sorted_vec()
        );
    }

    #[test]
    fn theorem4_pruning_never_changes_mined_fds(l in arb_relation(), r in arb_relation()) {
        // mineFDs' inputs as the pipeline builds them for `l ⋈ r` on c0:
        // the complete FD sets of both side instances.
        let on = [(0, 0)];
        let side_fds = |left| {
            let si = side_instance(&l, &r, &on, JoinOp::Inner, left);
            mine_fds(&si.rel, si.rel.attr_set())
        };
        let (dl, dr) = (side_fds(true), side_fds(false));
        let mine = |use_theorem4| {
            mine_join_fds_with_options(
                &l, &r, JoinOp::Inner, &on, &dl, &dr, &FdSet::new(), None, use_theorem4,
            )
        };
        let (with, without) = (mine(true), mine(false));
        // A refused candidate cannot hold, so it is extended either way:
        // both runs walk the same lattice.
        prop_assert_eq!(without.pruned_by_theorem4, 0);
        prop_assert_eq!(without.validated, with.validated + with.pruned_by_theorem4);
        prop_assert!(
            same_fds(&FdSet::from_fds(with.fds.iter().copied()), &FdSet::from_fds(without.fds)),
            "Theorem 4 pruning changed the mined FDs"
        );
    }

    #[test]
    fn lemma1_join_order_invariance(l in arb_relation(), r in arb_relation()) {
        let mut db = Database::new();
        db.insert(rename(&l, "l"));
        db.insert(rename(&r, "r"));
        let ab = ViewSpec::base("l").join(
            ViewSpec::base("r"), JoinOp::Inner, &[("l.c0", "r.c0")]);
        let ba = ViewSpec::base("r").join(
            ViewSpec::base("l"), JoinOp::Inner, &[("r.c0", "l.c0")]);
        let ra = InFine::default().discover(&db, &ab).unwrap();
        let rb = InFine::default().discover(&db, &ba).unwrap();
        // same FDs up to the schema permutation (align by names)
        let map: Vec<usize> = (0..ra.schema.len())
            .map(|i| rb.schema.expect_id(ra.schema.name(i)))
            .collect();
        let fa = ra.triples.iter().fold(FdSet::new(), |mut s, t| {
            s.insert_unchecked(Fd::new(
                t.fd.lhs.iter().map(|a| map[a]).collect::<AttrSet>(),
                map[t.fd.rhs],
            ));
            s
        });
        let fb = rb.triples.iter().fold(FdSet::new(), |mut s, t| {
            s.insert_unchecked(t.fd);
            s
        });
        prop_assert!(fa.equivalent(&fb), "join order changed the FD set");
    }
}

/// Rename a generated relation (and its lineage) to `name`.
fn rename(rel: &Relation, name: &str) -> Relation {
    let names: Vec<String> = rel.schema.names().map(str::to_string).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let rows: Vec<Vec<Value>> = (0..rel.nrows()).map(|r| rel.row(r)).collect();
    let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
    relation_from_rows(name, &name_refs, &refs)
}
