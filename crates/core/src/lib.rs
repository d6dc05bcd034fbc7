#![warn(missing_docs)]

//! # zoom-core
//!
//! The ZOOM*UserViews system facade — the Rust analog of the prototype of
//! Section IV: register workflow specifications, construct good user views
//! interactively, ingest run logs into the provenance warehouse, and answer
//! immediate/deep/forward provenance queries *with respect to a user view*,
//! with rendered (DOT / text) provenance graphs.
//!
//! ```
//! use zoom_core::Zoom;
//! use zoom_model::{DataId, SpecBuilder, RunBuilder};
//!
//! // A two-module workflow: formatting then analysis.
//! let mut b = SpecBuilder::new("demo");
//! b.formatting("Format");
//! b.analysis("Analyze");
//! b.from_input("Format").edge("Format", "Analyze").to_output("Analyze");
//! let spec = b.build().unwrap();
//!
//! let mut zoom = Zoom::new();
//! let sid = zoom.register_workflow(spec.clone()).unwrap();
//! // Only "Analyze" matters to this user: formatting folds into its view.
//! let view = zoom.build_view(sid, &["Analyze"]).unwrap();
//!
//! let mut rb = RunBuilder::new(&spec);
//! let s1 = rb.step(spec.module("Format").unwrap());
//! let s2 = rb.step(spec.module("Analyze").unwrap());
//! rb.input_edge(s1, [1]).data_edge(s1, s2, [2]).output_edge(s2, [3]);
//! let rid = zoom.load_run(sid, rb.build().unwrap()).unwrap();
//!
//! let prov = zoom.deep_provenance(rid, view, DataId(3)).unwrap();
//! // d2 (internal to the composite) is hidden; d1 and d3 are visible.
//! assert_eq!(prov.tuples(), 2);
//! ```

pub mod compare;
pub mod queries;
pub mod remote;
pub mod render;
pub mod server;
pub mod session;
pub mod system;

pub use compare::{compare_view_runs, ComparisonReport, ExecMatch, RunComparison};
pub use queries::CannedQuery;
pub use remote::{RemoteError, RemoteResult, RemoteRetry, RemoteZoom};
pub use render::{provenance_to_dot, provenance_to_text, view_on_spec_to_dot, view_run_to_dot};
pub use server::{Daemon, DaemonConfig, DrainReport};
pub use session::QuerySession;
pub use system::Zoom;

pub use zoom_warehouse::{
    Answer, BreakerState, Cx, HealthReport, ImmediateAnswer, IndexBackend, Op, ProvenanceResult,
    ProvenanceRow, PushOutcome, ReplayOptions, ReplayReport, Result, RunId, SpecId, StreamError,
    TraceError, TraceRecorder, TraceReplayer, TraceTarget, ViewId, VisibilityPolicy, Warehouse,
    WarehouseError,
};
