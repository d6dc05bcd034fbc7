#![warn(missing_docs)]

//! # zoom-model
//!
//! The workflow model of *"Querying and Managing Provenance through User
//! Views in Scientific Workflows"* (ICDE 2008), Section II:
//!
//! * [`spec`] — workflow specifications `G_w(N, E)` with distinguished
//!   input/output nodes (possibly cyclic);
//! * [`run`] — workflow runs: DAGs of steps with data-labeled edges, loops
//!   unrolled, unique producers per data object;
//! * [`log`] — event logs (the system-agnostic interface ZOOM consumes) and
//!   run ⇄ log conversion;
//! * [`view`] — user views: partitions of the modules into composite
//!   modules (UAdmin / UBlackBox / custom);
//! * [`induced`] — the induced higher-level specification `U(G_w)`;
//! * [`composite`] — composite executions: the run projected through a view,
//!   hiding steps and data internal to composite executions;
//! * [`ids`], [`error`] — shared identifiers and error types.

pub mod composite;
pub mod error;
pub mod ids;
pub mod induced;
pub mod log;
pub mod run;
pub mod spec;
pub mod view;

pub use composite::{CompositeExecution, ViewRun};
pub use error::{ModelError, Result};
pub use ids::{CompositeId, DataId, StepId, Timestamp};
pub use induced::{induced_spec, InducedSpec};
pub use log::{EventLog, LogEvent};
pub use run::{Producer, RunBuilder, RunNode, StepAppend, UserInputMeta, WorkflowRun};
pub use spec::{ModuleKind, SpecBuilder, SpecNode, WorkflowSpec};
pub use view::{CompositeModule, UserView};
