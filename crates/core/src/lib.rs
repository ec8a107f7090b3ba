//! # infine-core
//!
//! InFine — provenance-aware discovery of functional dependencies on
//! integrated SPJ views (Comignani, Berti-Equille, Novelli & Bonifati,
//! ICDE 2022). This crate implements the paper's five algorithms:
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 `InFine` | [`InFine::discover`] (recursive traversal) |
//! | Algorithm 2 `selectionFDs` | selection handling in [`pipeline`] |
//! | Algorithm 3 `joinUpFDs` | side instances + upstaged mining |
//! | Algorithm 4 `inferFDs` | [`infer::infer_fds`] |
//! | Algorithm 5 `mineFDs` | [`minefds::mine_join_fds`] |
//!
//! plus the provenance-triple machinery (Definition 8) and the
//! *straightforward* comparison pipeline of §V ([`comparator`]).
//!
//! ## Quick start
//!
//! ```
//! use infine_core::{InFine, FdKind};
//! use infine_algebra::ViewSpec;
//! use infine_relation::{relation_from_rows, Database, Value};
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
//!         &[Value::Int(1), Value::str("Medicare")],
//!         &[Value::Int(2), Value::str("Private")],
//!     ],
//! ));
//! let view = ViewSpec::base("patient")
//!     .inner_join(ViewSpec::base("admission"), &["subject_id"]);
//! let report = InFine::default().discover(&db, &view).unwrap();
//! assert!(report.triples.iter().any(|t| t.kind == FdKind::Base));
//! ```

pub mod afd;
pub mod comparator;
pub mod determinants;
pub mod infer;
pub mod instance;
pub mod minefds;
pub mod pipeline;
pub mod provenance;
pub mod restrict;

pub use afd::{afd_origins, AfdOrigin};
pub use comparator::{
    all_hold, discover_base_fds, straightforward, BaselineReport, BaselineTimings,
};
pub use determinants::minimal_determinants;
pub use infer::infer_fds;
pub use instance::{side_instance, SideInstance};
pub use minefds::{mine_join_fds, mine_join_fds_with_options, MineOutcome};
pub use pipeline::{
    base_scopes, merge_fragment_covers, merge_label_covers, BaseFds, BaseScope, InFine,
    InFineError, InFineReport, PhaseTimings, PipelineStats,
};
pub use provenance::{FdKind, ProvenanceBuilder, ProvenanceTriple};
pub use restrict::restrict_triples;
