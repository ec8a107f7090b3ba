//! Generic level-wise (lattice) FD mining.
//!
//! One bottom-up walk, [`walk_plan`], serves the paper's Algorithms 2, 3
//! and 5 (selection upstage, join upstage and `mineFDs`) as well as plain
//! base-table mining. Its input is a *plan*: a list of `(rhs,
//! lhs_universe)` pairs. For each pair it explores candidate lhs sets
//! drawn from `lhs_universe` level by level, prunes every candidate whose
//! lhs has a valid subset (in the output so far *or* in the
//! externally-known FD set `DV` — lines 8–9 of Algorithm 2), asks the
//! oracle's [`Validity::admits`] filter, validates the admitted survivors
//! with [`Validity::holds`], and extends every candidate that was refused
//! or failed. A rhs is done when a level generates nothing.
//!
//! [`mine_new_fds_via`] plans one entry per non-constant attribute over
//! the same attribute set (its level 0 reports the constants); with an
//! empty `known` set it is a complete minimal-FD miner, and with `g3`
//! validity it surfaces the approximate FDs that later become exact on
//! views. `mineFDs` plans mixed lhs universes across a join and uses
//! `admits` for the Theorem 4 closure test.

use crate::fd::{Fd, FdSet};
use crate::obs::MinerObs;
use infine_partitions::PliCache;
use infine_relation::{AttrId, AttrSet, Relation};

/// Attributes that are constant over the relation's rows (`∅ → a` holds).
///
/// Constants are excluded from lattice universes everywhere: a constant
/// attribute can never be part of a *minimal* lhs (it refines nothing) and
/// as a rhs it is covered by the level-0 FD `∅ → a`.
pub fn constant_attrs(rel: &Relation, attrs: AttrSet) -> AttrSet {
    // Live rows: `distinct_count` skips tombstoned rows, and a relation
    // whose every row is dead is an empty instance.
    if rel.live_rows() == 0 {
        // Every FD (vacuously) holds on an empty instance; by convention we
        // report every attribute as constant.
        return attrs;
    }
    attrs
        .iter()
        .filter(|&a| rel.distinct_count(a) <= 1)
        .collect()
}

/// Validity oracle for candidate FDs.
pub trait Validity {
    /// Does `lhs → rhs` hold (for this oracle's notion of "hold")?
    fn holds(&mut self, lhs: AttrSet, rhs: AttrId) -> bool;

    /// Candidate filter asked before [`Validity::holds`]: a refused
    /// candidate is neither validated nor reported, only extended, just
    /// like an invalid one. It must refuse only candidates that cannot
    /// hold (e.g. `mineFDs`' Theorem 4 test); the default admits all.
    fn admits(&mut self, _lhs: AttrSet, _rhs: AttrId) -> bool {
        true
    }

    /// Hint that every listed candidate is about to be checked. Oracles
    /// backed by a [`PliCache`] compute the partitions those checks will
    /// need in parallel (see [`PliCache::prefetch`]); the default is a
    /// no-op. Must not change any verdict — only when work happens.
    fn prefetch(&mut self, _candidates: &[(AttrSet, AttrId)]) {}
}

/// Exact validity through a [`PliCache`].
pub struct ExactValidity<'a, 'r>(pub &'a mut PliCache<'r>);

impl Validity for ExactValidity<'_, '_> {
    fn holds(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        self.0.check(lhs, rhs)
    }

    fn prefetch(&mut self, candidates: &[(AttrSet, AttrId)]) {
        // The counting kernel answers each check from π_lhs and the rhs
        // code column — `π_{lhs∪rhs}` is never materialized, so only the
        // lhs partitions are worth batch-computing.
        let sets: Vec<AttrSet> = candidates.iter().map(|&(lhs, _)| lhs).collect();
        self.0.prefetch(&sets);
    }
}

/// `g3 ≤ ε` validity (approximate FDs) through a [`PliCache`].
pub struct ApproxValidity<'a, 'r> {
    /// The partition provider.
    pub cache: &'a mut PliCache<'r>,
    /// Error threshold (fraction of rows to delete).
    pub epsilon: f64,
}

impl Validity for ApproxValidity<'_, '_> {
    fn holds(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        self.cache.g3(lhs, rhs) <= self.epsilon
    }

    fn prefetch(&mut self, candidates: &[(AttrSet, AttrId)]) {
        // g3 needs the lhs partition only (the rhs enters via its codes).
        let sets: Vec<AttrSet> = candidates.iter().map(|&(lhs, _)| lhs).collect();
        self.cache.prefetch(&sets);
    }
}

/// Mine the minimal FDs over `attrs` that are *new* w.r.t. `known`.
///
/// An FD is pruned (neither validated nor extended) when a subset-lhs FD
/// with the same rhs exists in `known` or in the output so far — exactly
/// the pruning of Algorithm 2 lines 8–9. With an empty `known` this is a
/// complete minimal-FD miner.
pub fn mine_new_fds_with<V: Validity>(
    validity: &mut V,
    rel: &Relation,
    attrs: AttrSet,
    known: &FdSet,
) -> FdSet {
    mine_new_fds_via(validity, constant_attrs(rel, attrs), attrs, known)
}

/// [`mine_new_fds_with`] with the level-0 constant set supplied by the
/// caller instead of computed from a [`Relation`] — the whole lattice
/// walk then runs against the oracle alone, which lets virtual-view
/// backends mine without any materialized relation to hand. `constants`
/// must equal the attributes for which `∅ → a` holds under `validity`'s
/// notion of validity (all of `attrs` for an empty instance).
pub fn mine_new_fds_via<V: Validity>(
    validity: &mut V,
    constants: AttrSet,
    attrs: AttrSet,
    known: &FdSet,
) -> FdSet {
    let obs = MinerObs::resolve("Levelwise");
    let _span = obs.start();
    let mut found = FdSet::new();
    if attrs.is_empty() {
        return found;
    }

    // Level 0: constant attributes.
    for a in constants.iter() {
        if !known.has_subset_lhs(AttrSet::EMPTY, a) {
            found.insert_minimal(Fd::new(AttrSet::EMPTY, a));
        }
    }
    let universe = attrs.difference(constants);
    let plan: Vec<(AttrId, AttrSet)> = universe
        .iter()
        .map(|rhs| (rhs, universe.without(rhs)))
        .collect();
    for fd in walk(validity, &plan, known, Some(&obs)) {
        found.insert_minimal(fd);
    }
    found
}

/// The shared level-wise walk: for each `(rhs, lhs_universe)` of `plan`,
/// in order, the minimal lhs sets drawn from `lhs_universe` for which
/// `validity` admits and holds `lhs → rhs`, skipping every lhs with a
/// subset-lhs FD in `known` or among the FDs found so far. Returns the
/// FDs in discovery order. A rhs with `∅ → rhs` in `known` is skipped.
/// Each rhs appears at most once in `plan`: only FDs found for the same
/// entry prune its candidates.
pub fn walk_plan<V: Validity>(
    validity: &mut V,
    plan: &[(AttrId, AttrSet)],
    known: &FdSet,
) -> Vec<Fd> {
    walk(validity, plan, known, None)
}

/// [`walk_plan`], recording each level's wall time when `obs` is given.
fn walk<V: Validity>(
    validity: &mut V,
    plan: &[(AttrId, AttrSet)],
    known: &FdSet,
    obs: Option<&MinerObs>,
) -> Vec<Fd> {
    let mut out = Vec::new();
    for &(rhs, lhs_universe) in plan {
        if known.has_subset_lhs(AttrSet::EMPTY, rhs) {
            continue; // ∅ → rhs already known
        }
        // Lhs sets found for this rhs: the only ones that can prune it.
        let mut found: Vec<AttrSet> = Vec::new();
        // Level 1 candidates.
        let mut level: Vec<AttrSet> = lhs_universe.iter().map(AttrSet::single).collect();
        let mut level_t0 = std::time::Instant::now();
        while !level.is_empty() {
            // The subset-pruning outcome is fixed before any validation of
            // this level runs: an FD found *at* this level has a lhs of the
            // same size as every candidate, so it can only "prune" the
            // identical candidate (which is never revisited). Settling the
            // survivor list (and each survivor's `admits` verdict) up
            // front is therefore behavior-preserving, and lets the oracle
            // prefetch the whole level's partitions in one parallel batch.
            let survivors: Vec<(AttrSet, bool)> = level
                .iter()
                .copied()
                .filter(|&lhs| {
                    !known.has_subset_lhs(lhs, rhs) && !found.iter().any(|&x| x.is_subset(lhs))
                })
                .map(|lhs| (lhs, validity.admits(lhs, rhs)))
                .collect();
            if !infine_exec::sequential() {
                let candidates: Vec<(AttrSet, AttrId)> = survivors
                    .iter()
                    .filter(|&&(_, admitted)| admitted)
                    .map(|&(lhs, _)| (lhs, rhs))
                    .collect();
                validity.prefetch(&candidates);
            }
            let mut extendable: Vec<AttrSet> = Vec::new();
            for &(lhs, admitted) in &survivors {
                if admitted && validity.holds(lhs, rhs) {
                    found.push(lhs);
                    out.push(Fd::new(lhs, rhs));
                } else {
                    extendable.push(lhs);
                }
            }
            // Generate the next level by max-attribute extension: each set
            // is produced exactly once, from its parent without its
            // maximum attribute.
            let mut next = Vec::new();
            for &lhs in &extendable {
                let max_attr = lhs.iter().last().expect("non-empty lhs");
                for b in lhs_universe.iter() {
                    if b > max_attr {
                        next.push(lhs.with(b));
                    }
                }
            }
            level = next;
            if let Some(obs) = obs {
                level_t0 = obs.level_done(level_t0);
            }
        }
    }
    out
}

/// Seeded upward lattice walk: find the minimal valid strict supersets of
/// the invalid `seeds`, pruning against `known`.
///
/// This is the "targeted lattice search" shared by incremental cover
/// maintenance (seeds = FDs broken by an insert batch) and sharded cover
/// merging (seeds = fragment-cover candidates that fail globally). It is
/// complete whenever every set strictly between a seed and a minimal
/// valid superset is itself invalid — which holds in both uses, because
/// any such intermediate set is a proper subset of a minimal valid lhs:
///
/// * after an insert-only batch every newly minimal FD `Y → a` was valid
///   before the batch, so its pre-batch minimal subset either survived
///   (then `Y` is not minimal) or broke and seeds the walk;
/// * a fragment-valid candidate `W → a` that fails on the union seeds
///   every globally minimal `X ⊇ W → a` (validity is anti-monotone in
///   rows, so each fragment cover contains some subset of `X`).
pub fn extend_seeds<V: Validity>(
    validity: &mut V,
    universe: AttrSet,
    seeds: &[Fd],
    known: &FdSet,
) -> FdSet {
    let mut found = FdSet::new();
    let mut by_rhs: std::collections::HashMap<AttrId, Vec<AttrSet>> =
        std::collections::HashMap::new();
    for fd in seeds {
        by_rhs.entry(fd.rhs).or_default().push(fd.lhs);
    }
    for (rhs, seeds) in by_rhs {
        let lhs_universe = universe.without(rhs);
        let mut seen: std::collections::HashSet<AttrSet> = std::collections::HashSet::new();
        let mut level: Vec<AttrSet> = seeds;
        while !level.is_empty() {
            let mut next: Vec<AttrSet> = Vec::new();
            for &lhs in &level {
                for b in lhs_universe.difference(lhs).iter() {
                    let cand = lhs.with(b);
                    if !seen.insert(cand) {
                        continue;
                    }
                    if known.has_subset_lhs(cand, rhs) || found.has_subset_lhs(cand, rhs) {
                        continue; // any validation would be non-minimal
                    }
                    if validity.holds(cand, rhs) {
                        found.insert_minimal(Fd::new(cand, rhs));
                    } else {
                        next.push(cand);
                    }
                }
            }
            level = next;
        }
    }
    found
}

/// Exact-FD variant of [`mine_new_fds_with`] with its own cache.
pub fn mine_new_fds(rel: &Relation, attrs: AttrSet, known: &FdSet) -> FdSet {
    let mut cache = PliCache::with_attrs(rel, attrs);
    let mut v = ExactValidity(&mut cache);
    mine_new_fds_with(&mut v, rel, attrs, known)
}

/// All minimal exact FDs over `attrs` (empty `known` set).
pub fn mine_fds(rel: &Relation, attrs: AttrSet) -> FdSet {
    mine_new_fds(rel, attrs, &FdSet::new())
}

/// All minimal approximate FDs over `attrs` at threshold `epsilon`
/// (`g3 ≤ ε`); exact FDs are a subset (ε = 0 degenerates to exact mining).
pub fn mine_afds(rel: &Relation, attrs: AttrSet, epsilon: f64) -> FdSet {
    let mut cache = PliCache::with_attrs(rel, attrs);
    let mut v = ApproxValidity {
        cache: &mut cache,
        epsilon,
    };
    mine_new_fds_with(&mut v, rel, attrs, &FdSet::new())
}

/// Reference oracle: brute-force minimal FD discovery by pairwise row
/// comparison over every candidate. Exponential ×  quadratic — tests only.
pub fn mine_fds_bruteforce(rel: &Relation, attrs: AttrSet) -> FdSet {
    use infine_partitions::fd_holds_bruteforce;
    let mut found = FdSet::new();
    let constants = constant_attrs(rel, attrs);
    for a in constants.iter() {
        found.insert_minimal(Fd::new(AttrSet::EMPTY, a));
    }
    let universe = attrs.difference(constants);
    for rhs in universe.iter() {
        let lhs_universe = universe.without(rhs);
        // enumerate all subsets by increasing size
        let mut all: Vec<AttrSet> = subsets_of(lhs_universe);
        all.sort_by_key(|s| (s.len(), s.bits()));
        for lhs in all {
            if lhs.is_empty() {
                continue;
            }
            if found.has_subset_lhs(lhs, rhs) {
                continue;
            }
            if fd_holds_bruteforce(rel, lhs, rhs) {
                found.insert_minimal(Fd::new(lhs, rhs));
            }
        }
    }
    found
}

fn subsets_of(set: AttrSet) -> Vec<AttrSet> {
    let mut out = set.strict_subsets();
    out.push(set);
    out.push(AttrSet::EMPTY);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::same_fds;
    use infine_relation::{relation_from_rows, Value};

    fn rel() -> Relation {
        relation_from_rows(
            "t",
            &["a", "b", "c", "d"],
            &[
                &[Value::Int(1), Value::Int(10), Value::Int(0), Value::Int(7)],
                &[Value::Int(2), Value::Int(10), Value::Int(0), Value::Int(7)],
                &[Value::Int(3), Value::Int(20), Value::Int(1), Value::Int(7)],
                &[Value::Int(4), Value::Int(20), Value::Int(1), Value::Int(7)],
                &[Value::Int(5), Value::Int(30), Value::Int(0), Value::Int(7)],
            ],
        )
    }

    #[test]
    fn matches_bruteforce_on_sample() {
        let r = rel();
        let fast = mine_fds(&r, r.attr_set());
        let slow = mine_fds_bruteforce(&r, r.attr_set());
        assert!(
            same_fds(&fast, &slow),
            "\nfast: {:?}\nslow: {:?}",
            fast.to_sorted_vec(),
            slow.to_sorted_vec()
        );
    }

    #[test]
    fn finds_constants_as_empty_lhs() {
        let r = rel();
        let fds = mine_fds(&r, r.attr_set());
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, 3))); // d constant
    }

    #[test]
    fn key_attribute_determines_everything() {
        let r = rel();
        let fds = mine_fds(&r, r.attr_set());
        // a is a key: a→b, a→c minimal (a→d shadowed by ∅→d)
        assert!(fds.contains(&Fd::new(AttrSet::single(0), 1)));
        assert!(fds.contains(&Fd::new(AttrSet::single(0), 2)));
        assert!(!fds.contains(&Fd::new(AttrSet::single(0), 3)));
    }

    #[test]
    fn b_determines_c_minimally() {
        let r = rel();
        let fds = mine_fds(&r, r.attr_set());
        assert!(fds.contains(&Fd::new(AttrSet::single(1), 2))); // 10→0, 20→1, 30→0
                                                                // c does not determine b (c=0 maps to b∈{10,30})
        assert!(!fds.contains(&Fd::new(AttrSet::single(2), 1)));
    }

    #[test]
    fn known_fds_prune_output() {
        let r = rel();
        let known = FdSet::from_fds([Fd::new(AttrSet::single(1), 2)]);
        let fds = mine_new_fds(&r, r.attr_set(), &known);
        // b→c is known → not re-reported, nor any superset
        assert!(!fds.contains(&Fd::new(AttrSet::single(1), 2)));
        for fd in fds.iter() {
            assert!(!(fd.rhs == 2 && AttrSet::single(1).is_subset(fd.lhs)));
        }
    }

    #[test]
    fn restricted_attrs_limit_scope() {
        let r = rel();
        let attrs: AttrSet = [0usize, 1].into_iter().collect();
        let fds = mine_fds(&r, attrs);
        for fd in fds.iter() {
            assert!(fd.attrs().is_subset(attrs));
        }
        // a→b still found within the restriction
        assert!(fds.contains(&Fd::new(AttrSet::single(0), 1)));
    }

    #[test]
    fn afds_include_exact_and_near_fds() {
        let r = relation_from_rows(
            "t",
            &["x", "y"],
            &[
                &[Value::Int(1), Value::Int(1)],
                &[Value::Int(1), Value::Int(1)],
                &[Value::Int(1), Value::Int(1)],
                &[Value::Int(1), Value::Int(2)], // one violation of x→y
                &[Value::Int(2), Value::Int(3)],
            ],
        );
        let exact = mine_fds(&r, r.attr_set());
        assert!(!exact.contains(&Fd::new(AttrSet::single(0), 1)));
        let afds = mine_afds(&r, r.attr_set(), 0.25); // 1/5 violations allowed
        assert!(afds.contains(&Fd::new(AttrSet::single(0), 1)));
        // ε = 0 degenerates to exact
        let zero = mine_afds(&r, r.attr_set(), 0.0);
        assert!(same_fds(&zero, &exact));
    }

    #[test]
    fn empty_relation_reports_all_constant() {
        let r = relation_from_rows("t", &["a", "b"], &[]);
        let fds = mine_fds(&r, r.attr_set());
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, 0)));
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, 1)));
        assert_eq!(fds.len(), 2);
    }
}
