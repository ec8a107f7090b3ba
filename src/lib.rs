//! InFine umbrella crate — re-exports the full public API of the
//! workspace: relational substrate, SPJ algebra, partitions, the four
//! FD-discovery baselines, the InFine provenance pipeline, and the
//! incremental FD maintenance engine.
//!
//! `infine_core::InFine` is the main discovery entry point;
//! `infine_incremental::MaintenanceEngine` keeps a discovered FD set
//! current under base-table deltas without full re-discovery.

pub use infine_algebra as algebra;
pub use infine_core as core;
pub use infine_datagen as datagen;
pub use infine_discovery as discovery;
pub use infine_incremental as incremental;
pub use infine_partitions as partitions;
pub use infine_relation as relation;

pub use infine_algebra::{JoinOp, Predicate, ViewSpec};
pub use infine_core::{FdKind, InFine, InFineReport, ProvenanceTriple};
pub use infine_discovery::{Algorithm, Fd, FdSet};
pub use infine_incremental::{FdStatus, MaintenanceEngine, MaintenanceMode, MaintenanceReport};
pub use infine_relation::{AttrSet, Database, DeltaBatch, DeltaRelation, Relation, Schema, Value};
