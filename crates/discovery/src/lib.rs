//! # infine-discovery
//!
//! From-scratch reimplementations of the four FD-discovery baselines the
//! InFine paper evaluates against — TANE, FUN, FastFDs, and HyFD — plus
//! the shared FD representation ([`Fd`]/[`FdSet`], Armstrong reasoning)
//! and the generic level-wise walk that InFine's own Algorithms 2, 3 and 5
//! run on (candidate pruning against already-known FD sets, an optional
//! candidate filter, exact or `g3`-approximate validity).
//!
//! All algorithms operate on the same storage and partition substrate,
//! making the benchmark comparison purely algorithmic.

pub mod algo;
pub mod fastfds;
pub mod fd;
pub mod fun;
pub mod hyfd;
pub mod levelwise;
pub(crate) mod obs;
pub mod tane;

pub use algo::Algorithm;
pub use fastfds::fastfds;
pub use fd::{same_fds, Fd, FdSet};
pub use fun::fun;
pub use hyfd::hyfd;
pub use levelwise::{
    constant_attrs, extend_seeds, mine_afds, mine_fds, mine_fds_bruteforce, mine_new_fds,
    mine_new_fds_via, mine_new_fds_with, walk_plan, ApproxValidity, ExactValidity, Validity,
};
pub use tane::tane;
