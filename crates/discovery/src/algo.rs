//! The common interface over the FD-discovery algorithms: the paper's four
//! baselines (Fig. 3/4) plus the shared level-wise miner.

use crate::fastfds::fastfds;
use crate::fd::FdSet;
use crate::fun::fun;
use crate::hyfd::hyfd;
use crate::levelwise::mine_fds;
use crate::tane::tane;
use infine_relation::{AttrSet, Relation};

/// The discovery algorithms available in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// TANE — level-wise, partition-based, C⁺ pruning.
    Tane,
    /// FUN — level-wise over free sets, cardinality counting.
    Fun,
    /// FastFDs — difference sets + depth-first minimal covers.
    FastFds,
    /// HyFD — hybrid sampling/induction/validation.
    HyFd,
    /// The plain shared level-wise miner (InFine's internal base miner).
    Levelwise,
}

impl Algorithm {
    /// All baseline algorithms the paper compares against (Fig. 3/4).
    pub const BASELINES: [Algorithm; 4] = [
        Algorithm::HyFd,
        Algorithm::FastFds,
        Algorithm::Fun,
        Algorithm::Tane,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Tane => "TANE",
            Algorithm::Fun => "FUN",
            Algorithm::FastFds => "FastFDs",
            Algorithm::HyFd => "HyFD",
            Algorithm::Levelwise => "Levelwise",
        }
    }

    /// Run discovery over all attributes of a relation.
    pub fn discover(self, rel: &Relation) -> FdSet {
        self.discover_restricted(rel, rel.attr_set())
    }

    /// Run discovery restricted to an attribute subset (InFine step 1's
    /// projection pruning hands the projected attribute set here).
    pub fn discover_restricted(self, rel: &Relation, attrs: AttrSet) -> FdSet {
        match self {
            Algorithm::Tane => tane(rel, attrs),
            Algorithm::Fun => fun(rel, attrs),
            Algorithm::FastFds => fastfds(rel, attrs),
            Algorithm::HyFd => hyfd(rel, attrs),
            Algorithm::Levelwise => mine_fds(rel, attrs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::same_fds;
    use infine_relation::{relation_from_rows, Value};

    #[test]
    fn all_algorithms_agree() {
        let r = relation_from_rows(
            "t",
            &["a", "b", "c"],
            &[
                &[Value::Int(1), Value::Int(1), Value::Int(2)],
                &[Value::Int(2), Value::Int(1), Value::Int(2)],
                &[Value::Int(3), Value::Int(2), Value::Int(2)],
                &[Value::Int(4), Value::Int(2), Value::Int(3)],
            ],
        );
        let reference = Algorithm::Tane.discover(&r);
        for algo in [
            Algorithm::Fun,
            Algorithm::FastFds,
            Algorithm::HyFd,
            Algorithm::Levelwise,
        ] {
            let fds = algo.discover(&r);
            assert!(
                same_fds(&fds, &reference),
                "{} disagrees with TANE:\n{:?}\nvs\n{:?}",
                algo.name(),
                fds.to_sorted_vec(),
                reference.to_sorted_vec()
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::Tane.name(), "TANE");
        assert_eq!(Algorithm::HyFd.name(), "HyFD");
        assert_eq!(Algorithm::BASELINES.len(), 4);
    }
}
