//! # infine-incremental
//!
//! Incremental FD maintenance over integrated views — the "delta-in,
//! report-out" layer on top of the InFine pipeline.
//!
//! The paper's provenance triples record *which sub-query of the view*
//! justifies each FD. This crate exploits that: when base tables change,
//! only the FDs whose justifying sub-query sits above a changed table
//! need attention, and those are revalidated against *patched* position
//! list indexes instead of re-running discovery from scratch.
//!
//! ## Quick start
//!
//! ```
//! use infine_incremental::MaintenanceEngine;
//! use infine_algebra::ViewSpec;
//! use infine_relation::{relation_from_rows, Database, DeltaBatch, DeltaRelation, Value};
//!
//! let mut db = Database::new();
//! db.insert(relation_from_rows(
//!     "patient",
//!     &["subject_id", "gender"],
//!     &[
//!         &[Value::Int(1), Value::str("F")],
//!         &[Value::Int(2), Value::str("M")],
//!     ],
//! ));
//! db.insert(relation_from_rows(
//!     "admission",
//!     &["subject_id", "insurance"],
//!     &[
//!         &[Value::Int(1), Value::str("Medicare")],
//!         &[Value::Int(2), Value::str("Private")],
//!     ],
//! ));
//! let view = ViewSpec::base("patient")
//!     .inner_join(ViewSpec::base("admission"), &["subject_id"]);
//! let mut engine = MaintenanceEngine::with_defaults(db, view).unwrap();
//!
//! // A delta arrives: one new admission.
//! let mut batch = DeltaBatch::new();
//! batch.insert(vec![Value::Int(1), Value::str("Medicare")]);
//! let report = engine.apply_one(&DeltaRelation::new("admission", batch)).unwrap();
//! println!("{}", report.summary());
//! assert!(!report.triples.is_empty());
//! ```
//!
//! The maintained cover is always *identical* to what a fresh
//! [`InFine::discover`](infine_core::InFine::discover) on the updated
//! database would produce — incrementality changes the cost, never the
//! answer. See `crates/incremental/README.md` for the design notes and
//! the complexity discussion.
//!
//! For production-shaped deployments, [`ShardedEngine`] partitions every
//! base table into key-range fragments maintained by one engine per
//! shard (covers merged exactly at read time), and
//! [`MaintenanceService`] wraps it in a channel-driven loop — deltas in,
//! reports out, per-table batch coalescing between rounds — so producers
//! never block on maintenance. [`MaintenanceService::reader`] hands out
//! [`CoverReader`] handles onto the latest published cover snapshot, so
//! read-side clients never queue behind ingest either; a report for
//! round N means round N is readable.

pub mod cover;
pub mod engine;
mod obs;
mod persist;
pub mod read;
pub mod service;
pub mod shard;
pub mod view;

pub use cover::{CoverDeltaStats, CoverState};
pub use engine::{
    BaseMaintenance, DeletePolicy, FdStatus, MaintenanceEngine, MaintenanceError, MaintenanceMode,
    MaintenanceReport, MaintenanceTimings, TombstoneStats, VacuumStats,
};
pub use obs::RoundMetrics;
pub use read::{CoverReader, PublishedCovers};
pub use service::{
    DurabilityOptions, IngestPolicy, MaintenanceService, OverflowPolicy, RecoveryInfo,
    ServicePolicies, ServiceStats, SupervisorPolicy, VacuumPolicy,
};
// Durability knobs callers need to configure a durable service without
// depending on the storage crate directly.
pub use infine_durability::{FailPoints, RetryPolicy, SnapshotPolicy};
pub use shard::{InsertPolicy, ShardRouter, ShardedEngine};
pub use view::{supports_virtual, MaterializedView, ViewBackend, ViewMode, ViewState, VirtualView};
