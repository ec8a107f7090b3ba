//! Incremental maintenance of a relation's minimal FD cover.
//!
//! [`CoverState`] keeps, for one (possibly attribute-restricted) relation:
//! the canonical minimal FD cover (every subset-minimal valid FD, as a
//! complete level-wise miner would produce it) and the partitions backing
//! it — all singletons plus `π_lhs` for every held FD.
//!
//! [`CoverState::maintain`] brings both across a
//! [`Relation::apply_delta`](infine_relation::Relation::apply_delta)
//! version change:
//!
//! * partitions are patched ([`rebase_plis`]), never rebuilt;
//! * held FDs are revalidated only against the *dirty* classes of their
//!   lhs partition, and only when the batch inserted rows (deletes can
//!   never break an FD — validity is anti-monotone in rows);
//! * FDs broken by inserts are replaced through a seeded upward lattice
//!   walk ([`extend_seeds`]) — after an insert-only batch every newly
//!   minimal FD is a strict superset of a broken one;
//! * FDs surfaced by deletes are recovered by the shared level-wise miner
//!   with the surviving set as its pruning `known` input (the machinery
//!   of the paper's Algorithm 2, reused verbatim).
//!
//! The same state machine serves the engine's per-base-table FD sets and
//! the materialized-view cover of the fast path.

use infine_discovery::{extend_seeds, mine_new_fds_with, Algorithm, Fd, FdSet, Validity};
use infine_partitions::{rebase_plis, Pli, PliCache};
use infine_relation::{AppliedDelta, AttrSet, Relation};
use std::collections::{HashMap, HashSet};

/// Accounting for one [`CoverState::maintain`] round.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverDeltaStats {
    /// FDs held before the round.
    pub held: usize,
    /// Held FDs broken by inserted rows.
    pub broken: usize,
    /// Minimal FDs recovered by the seeded upward walk.
    pub recovered: usize,
    /// Minimal FDs surfaced by the delete-path miner.
    pub surfaced: usize,
    /// Partitions patched in place.
    pub plis_patched: usize,
    /// Partitions evicted (recomputed on demand later).
    pub plis_evicted: usize,
    /// Dirty equivalence classes across all patched partitions.
    pub dirty_classes: usize,
    /// Delete-path candidates rejected in O(1) by a surviving violation
    /// witness (no partition work at all).
    pub witness_hits: usize,
    /// Delete-path candidates that needed real partition validation.
    pub witness_misses: usize,
}

/// A maintained minimal FD cover over `attrs` of one relation.
#[derive(Debug)]
pub struct CoverState {
    /// Attribute universe the cover ranges over (mining never leaves it).
    pub attrs: AttrSet,
    /// The canonical minimal cover: every subset-minimal valid FD.
    pub fds: FdSet,
    /// Maintained partitions: singletons plus `π_lhs` per held FD.
    plis: HashMap<AttrSet, Pli>,
    /// One violating row pair per known-invalid candidate. Surviving rows
    /// keep their dictionary codes across deltas, so as long as both rows
    /// are alive the pair still *proves* invalidity — which turns the
    /// delete-path lattice walk's re-validations into O(1) lookups.
    /// Remapped (and pruned) through every delete batch.
    witnesses: HashMap<Fd, (u32, u32)>,
}

impl CoverState {
    /// Mine the full cover from scratch, with the algorithm of InFine's
    /// step-1 base mining (`BASE_MINER` in `infine-core`), and seed the
    /// partition state.
    pub fn bootstrap(rel: &Relation, attrs: AttrSet) -> CoverState {
        let fds = Algorithm::Levelwise.discover_restricted(rel, attrs);
        let mut state = CoverState {
            attrs,
            fds,
            plis: HashMap::new(),
            witnesses: HashMap::new(),
        };
        state.settle(rel);
        state
    }

    /// Rebuild a state from a persisted cover without re-mining: the
    /// snapshot layer stores `fds` (mined before the crash and pinned
    /// current by the WAL replay contract), and [`CoverState::settle`]
    /// recomputes the backing partitions from the relation. Witnesses
    /// start empty — they are a cache of *proofs*, rebuilt lazily as
    /// rounds run, and their absence never changes any verdict.
    pub fn restore(rel: &Relation, attrs: AttrSet, fds: FdSet) -> CoverState {
        let mut state = CoverState {
            attrs,
            fds,
            plis: HashMap::new(),
            witnesses: HashMap::new(),
        };
        state.settle(rel);
        state
    }

    /// Bring the cover across `old relation → new_rel` as described by
    /// `applied`. Returns the round's accounting.
    pub fn maintain(&mut self, new_rel: &Relation, applied: &AppliedDelta) -> CoverDeltaStats {
        let mut stats = CoverDeltaStats {
            held: self.fds.len(),
            ..CoverDeltaStats::default()
        };

        // Patch the partitions backing the held cover; evict the rest.
        let held_lhs: HashSet<AttrSet> = self.fds.iter().map(|fd| fd.lhs).collect();
        let (plis, dirty, rebase) =
            rebase_plis(std::mem::take(&mut self.plis), new_rel, applied, |set| {
                set.len() <= 1 || held_lhs.contains(&set)
            });
        stats.plis_patched = rebase.patched;
        stats.plis_evicted = rebase.evicted;
        stats.dirty_classes = rebase.dirty_classes;
        let mut cache = PliCache::from_map(new_rel, plis);

        // Carry violation witnesses across the version change: remap the
        // row ids; pairs losing a row no longer prove anything.
        if applied.num_deleted() > 0 {
            self.witnesses.retain(|_, pair| {
                match (
                    applied.remap[pair.0 as usize],
                    applied.remap[pair.1 as usize],
                ) {
                    (Some(a), Some(b)) => {
                        *pair = (a, b);
                        true
                    }
                    _ => false,
                }
            });
        }

        // Revalidate held FDs over dirty classes only (insert batches).
        // Each check runs the counting kernel against a patched lhs
        // partition and the rhs code column — no shared mutable state —
        // so the held set fans out over the `infine-exec` pool, one task
        // per FD, with verdicts collected in canonical FD order (the
        // sequential path sees the exact same verdicts, so survivors,
        // witnesses, and the final cover are identical). The kernel's
        // early exit yields each broken FD's violating pair as a
        // by-product; no separate witness scan runs.
        let mut survivors = FdSet::new();
        let mut broken: Vec<Fd> = Vec::new();
        if applied.num_inserted() == 0 {
            survivors = self.fds.clone();
        } else {
            let held: Vec<Fd> = self.fds.to_sorted_vec();
            // The rebase predicate kept every held lhs partition; compute
            // any defensively-missing one here so the parallel region is
            // read-only on the cache.
            for fd in &held {
                cache.get(fd.lhs);
            }
            let cache_ref = &cache;
            let verdicts: Vec<Option<(u32, u32)>> = infine_exec::par_map(&held, |_, fd| {
                let pli = cache_ref.peek(fd.lhs).expect("made resident above");
                let codes = &new_rel.column(fd.rhs).codes;
                let verdict = match dirty.get(&fd.lhs) {
                    // The FD held before the batch, so violations can only
                    // live in dirty classes — the restricted scan is
                    // complete and surfaces the same witnessing pair.
                    Some(d) => pli.refines_on(d.risky(), codes),
                    // lhs partition was not maintained (defensive): full check.
                    None => pli.refines_with(codes),
                };
                verdict.violating_pair()
            });
            for (&fd, witness) in held.iter().zip(verdicts) {
                match witness {
                    None => {
                        survivors.insert_minimal(fd);
                    }
                    Some(pair) => {
                        // Keep the pair so later delete rounds reject the
                        // candidate in O(1).
                        self.witnesses.insert(fd, pair);
                        broken.push(fd);
                    }
                }
            }
        }
        stats.broken = broken.len();

        // Targeted re-mining.
        let mut fds = survivors.clone();
        if !broken.is_empty() {
            let recovered = {
                let mut validity = WitnessValidity {
                    cache: &mut cache,
                    witnesses: &mut self.witnesses,
                    hits: 0,
                    misses: 0,
                };
                let found = extend_seeds(&mut validity, self.attrs, &broken, &survivors);
                stats.witness_hits += validity.hits;
                stats.witness_misses += validity.misses;
                found
            };
            stats.recovered = recovered.len();
            fds.extend_minimal(&recovered);
        }
        if applied.num_deleted() > 0 {
            // Delete path: new FDs can appear anywhere below the
            // surviving frontier; reuse the level-wise miner with `fds`
            // as its pruning `known` set. Candidates whose violation
            // witness survived the batch are rejected without touching a
            // partition, so the walk's cost tracks the delta, not the
            // lattice.
            let mut validity = WitnessValidity {
                cache: &mut cache,
                witnesses: &mut self.witnesses,
                hits: 0,
                misses: 0,
            };
            let surfaced = mine_new_fds_with(&mut validity, new_rel, self.attrs, &fds);
            stats.witness_hits += validity.hits;
            stats.witness_misses += validity.misses;
            stats.surfaced = surfaced.len();
            fds.extend_minimal(&surfaced);
        }

        self.plis = cache.into_map();
        self.fds = fds;
        self.settle(new_rel);
        stats
    }

    /// Carry the state across a pure monotone row remap — the
    /// [`Relation::vacuum`](infine_relation::Relation::vacuum) move.
    /// Membership is unchanged (the remap only renumbers live rows), so
    /// partitions are patched id-for-id, witnesses are renumbered, and
    /// the cover itself is untouched: no revalidation, no mining.
    pub fn rebase_rows(&mut self, new_rel: &Relation, applied: &AppliedDelta) {
        debug_assert_eq!(applied.num_inserted(), 0, "rebase_rows is remap-only");
        let (plis, _, _) = rebase_plis(std::mem::take(&mut self.plis), new_rel, applied, |_| true);
        self.plis = plis;
        self.witnesses.retain(|_, pair| {
            match (
                applied.remap[pair.0 as usize],
                applied.remap[pair.1 as usize],
            ) {
                (Some(a), Some(b)) => {
                    *pair = (a, b);
                    true
                }
                _ => false,
            }
        });
    }

    /// Soak/debug hook: panic unless this state equals a from-scratch
    /// bootstrap on `rel` — the cover matches a fresh levelwise mine,
    /// every backing partition matches a rebuild, and every cached
    /// witness names a live, genuinely violating pair. O(full mine);
    /// tests and soak suites only.
    pub fn self_check(&self, rel: &Relation) {
        let fresh = infine_discovery::mine_fds(rel, self.attrs);
        assert!(
            infine_discovery::same_fds(&self.fds, &fresh),
            "cover diverged from fresh mine:\n{:?}\nvs\n{:?}",
            self.fds.to_sorted_vec(),
            fresh.to_sorted_vec()
        );
        for (&set, pli) in &self.plis {
            assert_eq!(
                *pli,
                infine_partitions::Pli::for_set(rel, set),
                "partition {set:?} diverged from rebuild"
            );
        }
        for (fd, pair) in &self.witnesses {
            let (i, j) = (pair.0 as usize, pair.1 as usize);
            assert!(
                rel.is_live(i) && rel.is_live(j),
                "witness for {fd:?} references a dead row"
            );
            assert!(
                fd.lhs.iter().all(|a| rel.code(i, a) == rel.code(j, a))
                    && rel.code(i, fd.rhs) != rel.code(j, fd.rhs),
                "witness for {fd:?} does not violate"
            );
        }
    }

    /// (Re)compute partitions for every held FD lhs and drop partitions
    /// backing nothing — the eviction side of the cache contract.
    fn settle(&mut self, rel: &Relation) {
        let wanted: HashSet<AttrSet> = self.fds.iter().map(|fd| fd.lhs).collect();
        let mut cache = PliCache::from_map(rel, std::mem::take(&mut self.plis));
        for &set in &wanted {
            cache.get(set);
        }
        let mut map = cache.into_map();
        map.retain(|set, _| set.len() <= 1 || wanted.contains(set));
        self.plis = map;
    }
}

/// Validity oracle that consults (and feeds) the violation-witness cache
/// before doing any partition work. Misses run the counting kernel
/// through [`PliCache::check_witness`] — π_lhs only, no product — and the
/// kernel's early-exit pair becomes the new witness.
struct WitnessValidity<'a, 'r> {
    cache: &'a mut PliCache<'r>,
    witnesses: &'a mut HashMap<Fd, (u32, u32)>,
    hits: usize,
    misses: usize,
}

impl Validity for WitnessValidity<'_, '_> {
    fn holds(&mut self, lhs: AttrSet, rhs: usize) -> bool {
        let fd = Fd::new(lhs, rhs);
        if self.witnesses.contains_key(&fd) {
            self.hits += 1;
            return false;
        }
        self.misses += 1;
        match self.cache.check_witness(lhs, rhs) {
            Some(pair) => {
                self.witnesses.insert(fd, pair);
                false
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infine_discovery::{mine_fds, same_fds};
    use infine_relation::{relation_from_rows, DeltaBatch, Value};

    fn rel() -> Relation {
        relation_from_rows(
            "t",
            &["a", "b", "c"],
            &[
                &[Value::Int(1), Value::Int(10), Value::Int(0)],
                &[Value::Int(2), Value::Int(10), Value::Int(0)],
                &[Value::Int(3), Value::Int(20), Value::Int(1)],
                &[Value::Int(4), Value::Int(20), Value::Int(1)],
            ],
        )
    }

    fn assert_cover_current(state: &CoverState, rel: &Relation) {
        let fresh = mine_fds(rel, state.attrs);
        assert!(
            same_fds(&state.fds, &fresh),
            "cover diverged:\n{:?}\nvs fresh\n{:?}",
            state.fds.to_sorted_vec(),
            fresh.to_sorted_vec()
        );
    }

    #[test]
    fn bootstrap_equals_full_mine() {
        let r = rel();
        let state = CoverState::bootstrap(&r, r.attr_set());
        assert_cover_current(&state, &r);
    }

    #[test]
    fn inserts_break_and_recover() {
        let r = rel();
        let mut state = CoverState::bootstrap(&r, r.attr_set());
        // break b → c (and a stays a key)
        let mut batch = DeltaBatch::new();
        batch.insert(vec![Value::Int(5), Value::Int(10), Value::Int(7)]);
        let (r2, applied) = r.apply_delta(&batch, "t");
        let stats = state.maintain(&r2, &applied);
        assert!(stats.broken > 0);
        assert_cover_current(&state, &r2);
    }

    #[test]
    fn deletes_surface_new_fds() {
        let r = rel();
        let mut state = CoverState::bootstrap(&r, r.attr_set());
        // delete the b=20 group: b,c become constants
        let mut batch = DeltaBatch::new();
        batch.delete(2).delete(3);
        let (r2, applied) = r.apply_delta(&batch, "t");
        let stats = state.maintain(&r2, &applied);
        assert_eq!(stats.broken, 0);
        assert!(stats.surfaced > 0);
        assert_cover_current(&state, &r2);
    }

    #[test]
    fn restricted_attrs_stay_restricted() {
        let r = rel();
        let attrs: AttrSet = [0usize, 1].into_iter().collect();
        let mut state = CoverState::bootstrap(&r, attrs);
        let mut batch = DeltaBatch::new();
        batch
            .insert(vec![Value::Int(1), Value::Int(30), Value::Int(9)])
            .delete(0);
        let (r2, applied) = r.apply_delta(&batch, "t");
        state.maintain(&r2, &applied);
        for fd in state.fds.iter() {
            assert!(fd.attrs().is_subset(attrs));
        }
        assert_cover_current(&state, &r2);
    }

    #[test]
    fn chained_random_rounds_stay_current() {
        let mut r = rel();
        let mut state = CoverState::bootstrap(&r, r.attr_set());
        let batches: Vec<DeltaBatch> = vec![
            {
                let mut b = DeltaBatch::new();
                b.insert(vec![Value::Int(9), Value::Int(20), Value::Int(0)]);
                b
            },
            {
                let mut b = DeltaBatch::new();
                b.delete(0).delete(4);
                b
            },
            {
                let mut b = DeltaBatch::new();
                b.delete(1)
                    .insert(vec![Value::Int(2), Value::Int(20), Value::Int(1)])
                    .insert(vec![Value::Int(2), Value::Int(10), Value::Int(1)]);
                b
            },
        ];
        for batch in batches {
            let (r2, applied) = r.apply_delta(&batch, "t");
            state.maintain(&r2, &applied);
            assert_cover_current(&state, &r2);
            r = r2;
        }
    }
}
