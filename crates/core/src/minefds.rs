//! Algorithm 5 — `mineFDs`: selective mining of the remaining join FDs.
//!
//! Theorem 3 shows some join FDs are invisible to logic: they must be
//! checked against data. Theorem 4 bounds the damage: a mixed FD
//! `A A' → b` (with `A` from the opposite side and `A', b` from `b`'s own
//! side `J`) can only be valid when `Y ∪ A' → b` already holds on `J`'s
//! side instance, `Y` being `J`'s join attributes. Since the side FD sets
//! are complete, that premise is a *free* closure test — candidates
//! failing it are rejected without touching data.
//!
//! The exploration is the shared level-wise walk
//! ([`infine_discovery::walk_plan`]) over one plan entry per plausible
//! rhs. Its lhs universe is mixed: own-side attributes minus the rhs,
//! plus opposite-side non-key attributes (Algorithm 5 line 12's
//! `A ⊆ atts(I) \ X`). The walk prunes candidates by the already-known
//! FD antichain, the join oracle's `admits` applies the Theorem 4 closure
//! test, and its `holds` validates the survivors on the scoped join. The
//! join is computed **only when at least one rhs is plausible**; when
//! computed, it is handed back to the caller so a parent node can reuse
//! it instead of re-materializing.

use infine_algebra::{join_relations, JoinOp};
use infine_discovery::{walk_plan, Fd, FdSet, Validity};
use infine_partitions::PliCache;
use infine_relation::{AttrId, AttrSet, Relation};

/// Result of the selective mining step.
pub struct MineOutcome {
    /// Join FDs discovered (over join ids).
    pub fds: Vec<Fd>,
    /// The scoped join, if it had to be computed (reusable by the caller).
    pub join: Option<Relation>,
    /// Rows of the computed join (0 when skipped).
    pub partial_rows: usize,
    /// Candidates rejected by the Theorem 4 constraint without data access.
    pub pruned_by_theorem4: usize,
    /// Candidates validated against data.
    pub validated: usize,
}

/// Run `mineFDs` for one join node. `known` is the FD antichain already
/// established over join ids (inherited + upstaged + inferred).
///
/// `rhs_mask` optionally restricts the mined rhs attributes per side
/// (side-local ids). It is safe **only at the root join** of a view, to
/// skip rhs attributes the final projection drops — inner nodes must stay
/// complete because their FD sets feed the parents' Theorem 4 closures.
#[allow(clippy::too_many_arguments)]
pub fn mine_join_fds(
    l_rel: &Relation,
    r_rel: &Relation,
    op: JoinOp,
    on: &[(AttrId, AttrId)],
    dl: &FdSet,
    dr: &FdSet,
    known: &FdSet,
    rhs_mask: Option<(AttrSet, AttrSet)>,
) -> MineOutcome {
    mine_join_fds_with_options(l_rel, r_rel, op, on, dl, dr, known, rhs_mask, true)
}

/// [`mine_join_fds`] with the Theorem 4 constraint made optional — the
/// `ablation` bench measures the pruning's contribution by disabling it
/// (every candidate is then validated against data, as a naive miner
/// would). Results are identical either way; only work differs.
#[allow(clippy::too_many_arguments)]
pub fn mine_join_fds_with_options(
    l_rel: &Relation,
    r_rel: &Relation,
    op: JoinOp,
    on: &[(AttrId, AttrId)],
    dl: &FdSet,
    dr: &FdSet,
    known: &FdSet,
    rhs_mask: Option<(AttrSet, AttrSet)>,
    use_theorem4: bool,
) -> MineOutcome {
    let nl = l_rel.ncols();
    let x_set: AttrSet = on.iter().map(|&(a, _)| a).collect();
    let y_set: AttrSet = on.iter().map(|&(_, b)| b).collect();

    // Plausible rhs attributes per side (Theorem 4 feasibility with the
    // largest possible A'): side J's attribute b is plausible iff
    // b ∈ closure_{D_J}(keys(J) ∪ (atts(J) \ {b})).
    //
    // Join-key attributes themselves are *always* plausible (b ∈ keys(J)
    // makes the closure test trivially true): mixed FDs with a join-key
    // rhs — e.g. `o_orderdate, ps_supplycost, l_quantity → o_orderkey` on
    // TPC-H Q9* — are genuine minimal view FDs that nothing else implies.
    // The paper's Algorithm 5 draws its rhs from `D_J` FDs only and would
    // miss them; completeness (Theorem 5) requires including them here.
    let plausible = |side_fds: &FdSet, keys: AttrSet, atts: AttrSet| -> Vec<AttrId> {
        atts.iter()
            .filter(|&b| side_fds.closure(keys.union(atts.without(b))).contains(b))
            .collect()
    };
    let (mask_l, mask_r) = rhs_mask.unwrap_or((l_rel.attr_set(), r_rel.attr_set()));
    let rhs_right: Vec<AttrId> = plausible(dr, y_set, r_rel.attr_set())
        .into_iter()
        .filter(|&b| mask_r.contains(b))
        .collect();
    let rhs_left: Vec<AttrId> = plausible(dl, x_set, l_rel.attr_set())
        .into_iter()
        .filter(|&b| mask_l.contains(b))
        .collect();
    if rhs_right.is_empty() && rhs_left.is_empty() {
        return MineOutcome {
            fds: Vec::new(),
            join: None,
            partial_rows: 0,
            pruned_by_theorem4: 0,
            validated: 0,
        };
    }

    // Partial SPJ computation (charged to mineFDs, as in the paper §V).
    let join = join_relations(l_rel, r_rel, op, on, None, None, "mine");
    let partial_rows = join.nrows();

    // One plan entry per plausible rhs, right side first: the lhs universe
    // over join ids is the rhs's own side minus the rhs, plus the opposite
    // side minus its join keys.
    let left_ids = l_rel.attr_set();
    let right_ids = AttrSet::from_bits(r_rel.attr_set().bits() << nl);
    let left_non_keys = left_ids.difference(x_set);
    let right_non_keys = AttrSet::from_bits(r_rel.attr_set().difference(y_set).bits() << nl);
    let plan: Vec<(AttrId, AttrSet)> = rhs_right
        .iter()
        .map(|&b| (nl + b, right_ids.without(nl + b).union(left_non_keys)))
        .chain(
            rhs_left
                .iter()
                .map(|&b| (b, left_ids.without(b).union(right_non_keys))),
        )
        .collect();
    let mut oracle = JoinOracle {
        cache: PliCache::new(&join),
        use_theorem4,
        nl,
        dl,
        dr,
        x_set,
        y_set,
        pruned_by_theorem4: 0,
        validated: 0,
    };
    let fds = walk_plan(&mut oracle, &plan, known);
    let (pruned_by_theorem4, validated) = (oracle.pruned_by_theorem4, oracle.validated);

    MineOutcome {
        fds,
        join: Some(join),
        partial_rows,
        pruned_by_theorem4,
        validated,
    }
}

/// Validity of mixed candidates on the scoped join, behind the Theorem 4
/// filter. Forwards no `prefetch`: `mineFDs` validates sequentially.
struct JoinOracle<'a, 'r> {
    cache: PliCache<'r>,
    use_theorem4: bool,
    /// Join ids below `nl` are left attributes, the rest right ones.
    nl: usize,
    dl: &'a FdSet,
    dr: &'a FdSet,
    x_set: AttrSet,
    y_set: AttrSet,
    pruned_by_theorem4: usize,
    validated: usize,
}

impl Validity for JoinOracle<'_, '_> {
    /// Theorem 4: the own-side part `A'` of the lhs must satisfy
    /// `b ∈ closure_{D_own}(keys_own ∪ A')`.
    fn admits(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        if !self.use_theorem4 {
            return true;
        }
        let nl = self.nl;
        let (own_fds, own_keys, a_prime_own, b_own) = if rhs < nl {
            (self.dl, self.x_set, lhs.intersect(AttrSet::all(nl)), rhs)
        } else {
            (
                self.dr,
                self.y_set,
                AttrSet::from_bits(lhs.bits() >> nl),
                rhs - nl,
            )
        };
        let admitted = own_fds.closure(own_keys.union(a_prime_own)).contains(b_own);
        if !admitted {
            self.pruned_by_theorem4 += 1;
        }
        admitted
    }

    fn holds(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        self.validated += 1;
        self.cache.check(lhs, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_relation::{relation_from_rows, Value};

    /// The Theorem 3 counterexample from the paper's appendix: the join FD
    /// `A A' → b` holds on L ⋈ R but is not inferable from L's and R's FDs.
    fn theorem3_sides() -> (Relation, Relation) {
        let l = relation_from_rows(
            "L",
            &["x", "a"],
            &[
                &[Value::Int(0), Value::Int(0)],
                &[Value::Int(1), Value::Int(0)],
                &[Value::Int(1), Value::Int(1)],
                &[Value::Int(2), Value::Int(2)],
            ],
        );
        let r = relation_from_rows(
            "R",
            &["y", "ap", "b"],
            &[
                &[Value::Int(0), Value::Int(0), Value::Int(0)],
                &[Value::Int(1), Value::Int(0), Value::Int(0)],
                &[Value::Int(1), Value::Int(1), Value::Int(1)],
                &[Value::Int(2), Value::Int(1), Value::Int(0)],
            ],
        );
        (l, r)
    }

    #[test]
    fn finds_the_theorem3_join_fd() {
        let (l, r) = theorem3_sides();
        // Complete FD sets of the sides over their own attrs:
        // L: no non-trivial FDs except... x is not a key ({1} twice);
        // a is not a key; verified: only trivial ones. Use miner.
        let dl = infine_discovery::mine_fds(&l, l.attr_set());
        let dr = infine_discovery::mine_fds(&r, r.attr_set());
        // The paper states Y,A'→b and Y,b→A' hold on R: sanity-check.
        assert!(dl.is_empty(), "dl = {:?}", dl.to_sorted_vec());
        assert!(dr.contains(&Fd::new([0usize, 1].into_iter().collect::<AttrSet>(), 2)));
        let known = FdSet::new();
        let out = mine_join_fds(&l, &r, JoinOp::Inner, &[(0, 0)], &dl, &dr, &known, None);
        // join ids: x=0, a=1, y=2, ap=3, b=4. Expect a,ap→b.
        let expect = Fd::new([1usize, 3].into_iter().collect::<AttrSet>(), 4);
        assert!(out.fds.contains(&expect), "missing AA'→b in {:?}", out.fds);
        assert!(out.join.is_some());
        assert!(out.partial_rows > 0);
    }

    #[test]
    fn theorem4_constraint_prunes_without_data() {
        let (l, r) = theorem3_sides();
        let dl = infine_discovery::mine_fds(&l, l.attr_set());
        let dr = infine_discovery::mine_fds(&r, r.attr_set());
        let out = mine_join_fds(
            &l,
            &r,
            JoinOp::Inner,
            &[(0, 0)],
            &dl,
            &dr,
            &FdSet::new(),
            None,
        );
        assert!(
            out.pruned_by_theorem4 > 0,
            "expected some constraint pruning"
        );
    }

    #[test]
    fn skips_join_when_masked_rhs_leaves_nothing() {
        // Sides with NO FDs at all: closure(Y ∪ rest) never reaches b
        // unless b ∈ rest... wait, b ∉ its own lhs universe, and with no
        // FDs closure(S) = S, so b ∉ closure ⇒ no plausible rhs.
        let l = relation_from_rows(
            "l",
            &["k", "a"],
            &[
                &[Value::Int(1), Value::Int(1)],
                &[Value::Int(1), Value::Int(2)],
                &[Value::Int(2), Value::Int(1)],
                &[Value::Int(2), Value::Int(2)],
            ],
        );
        let r = relation_from_rows(
            "r",
            &["k", "b"],
            &[
                &[Value::Int(1), Value::Int(1)],
                &[Value::Int(1), Value::Int(2)],
                &[Value::Int(2), Value::Int(1)],
                &[Value::Int(2), Value::Int(2)],
            ],
        );
        let dl = infine_discovery::mine_fds(&l, l.attr_set());
        let dr = infine_discovery::mine_fds(&r, r.attr_set());
        assert!(dl.is_empty() && dr.is_empty());
        // With no side FDs the only plausible rhs are the join keys
        // themselves; masking them out (the root-projection case) lets
        // mineFDs skip the join entirely.
        let mask = (AttrSet::single(1), AttrSet::single(1)); // non-key attrs
        let out = mine_join_fds(
            &l,
            &r,
            JoinOp::Inner,
            &[(0, 0)],
            &dl,
            &dr,
            &FdSet::new(),
            Some(mask),
        );
        assert!(out.join.is_none(), "join should be skipped");
        assert!(out.fds.is_empty());
        assert_eq!(out.partial_rows, 0);
        // Unmasked, the key columns are plausible rhs and the join runs.
        let out = mine_join_fds(
            &l,
            &r,
            JoinOp::Inner,
            &[(0, 0)],
            &dl,
            &dr,
            &FdSet::new(),
            None,
        );
        assert!(out.join.is_some());
    }

    #[test]
    fn known_subsets_suppress_candidates() {
        let (l, r) = theorem3_sides();
        let dl = infine_discovery::mine_fds(&l, l.attr_set());
        let dr = infine_discovery::mine_fds(&r, r.attr_set());
        let mut known = FdSet::new();
        // pretend a→b is already known (join ids 1 → 4)
        known.insert_minimal(Fd::new(AttrSet::single(1), 4));
        let out = mine_join_fds(&l, &r, JoinOp::Inner, &[(0, 0)], &dl, &dr, &known, None);
        let aap = Fd::new([1usize, 3].into_iter().collect::<AttrSet>(), 4);
        assert!(
            !out.fds.contains(&aap),
            "superset of known should be pruned"
        );
    }
}
