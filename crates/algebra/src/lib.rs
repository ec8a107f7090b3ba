//! # infine-algebra
//!
//! SPJ view specifications (Definition 2 of the InFine paper) and their
//! execution: projections, selections, and the six join operators
//! `{⋈, ⟕, ⟖, ⟗, ⋉, ⋊}` as equi-joins over dictionary codes: key values
//! get dense ids (multi-column keys one dense tuple id) and the build
//! side is a CSR table on that id, so no per-row key is hashed.
//!
//! Besides full materialization (what the baseline pipeline pays for),
//! this crate exposes the *partial* computations InFine relies on:
//!
//! * [`matching_rows`] — the semi-join row set `I ♦ πY(J)` of Algorithm 3,
//!   computed touching only key columns: a per-row membership test on the
//!   probe side's dense key ids;
//! * [`join_relations`] with column pruning — the horizontal partitions of
//!   Algorithm 4 (`refine`) and the selective joins of Algorithm 5, probing
//!   the CSR build table by key id.
//!
//! The join and selection kernels scan physical rows: their inputs must be
//! compact (no tombstones; vacuum first).
//! * [`coverage::coverage`] — the §V coverage measure, computed without
//!   materializing the join.

pub mod coverage;
pub mod exec;
pub mod spec;

pub use coverage::coverage;
pub use exec::{
    derive_schema, execute, join_relations, joined_schema, matching_rows, proj, resolve,
    resolve_join_conditions, select_rows, AlgebraError,
};
pub use spec::{CmpOp, JoinCondition, JoinOp, Predicate, ViewSpec};
