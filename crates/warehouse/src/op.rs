//! The operation algebra: every data-plane operation ZOOM answers, as one
//! [`Op`], and every answer, as one [`Answer`].
//!
//! Each backend has one `apply`: [`Store::apply`], written once for both
//! in-process stores ([`Warehouse`] and [`DurableWarehouse`]),
//! [`crate::wire::ShardRouter::apply`], and the facades in `zoom-core`.
//! Every read reaches one admitted, timed and recorded path,
//! [`Warehouse::read`], carrying a [`Cx`]: who asks, and how long it may
//! take.
//! Every dispatch on an op's kind names each variant, so a new op kind
//! does not compile until each backend and the privacy gate handle it.
//! Trace capture/replay, the wire protocol's `Request::Data`, the
//! daemon's privacy gate ([`crate::privacy::Gate::apply`]) and the canned
//! query forms all carry these two enums, so the op set is written out
//! once.
//!
//! `Op`'s first nine variants are the trace format's original op set, in
//! their original order and field order: the codec writes a `u32` variant
//! index and then the fields, so recorded traces decode unchanged.

use crate::durable::DurableWarehouse;
use crate::query::ProvenanceResult;
use crate::schema::{RunId, SpecId, ViewId};
use crate::store::{ImmediateAnswer, Result, Warehouse, WarehouseError};
use crate::stream::PushOutcome;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Display};
use std::time::Duration;
use zoom_model::{DataId, EventLog, LogEvent, StepId, UserView, WorkflowSpec};

/// The per-request context a read carries from its facade to
/// [`Warehouse::read`]: who asks and how long the answer may take. Both
/// are choices of the call, not of the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cx<'a> {
    /// The tenant the request executes for: its visibility policy gates
    /// the op at the facades, and slow-log entries carry its name. `None`
    /// is the embedder (admin).
    pub tenant: Option<&'a str>,
    /// The request's time budget; `None` defers to the store's default
    /// deadline. Either way the deadline carries the store's cancel token.
    pub budget: Option<Duration>,
}

impl Cx<'static> {
    /// The embedder: no tenant, the store's default budget.
    pub const ADMIN: Cx<'static> = Cx {
        tenant: None,
        budget: None,
    };
}

impl<'a> Cx<'a> {
    /// A request by `tenant`, under the store's default budget.
    pub fn tenant(tenant: &'a str) -> Self {
        Cx {
            tenant: Some(tenant),
            budget: None,
        }
    }

    /// This request with a time budget of its own.
    pub fn within(self, budget: Duration) -> Self {
        Cx {
            budget: Some(budget),
            ..self
        }
    }
}

/// One data-plane operation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Op {
    /// Registers a workflow specification.
    RegisterSpec(WorkflowSpec),
    /// Registers an explicit user view of a specification.
    RegisterView(SpecId, UserView),
    /// Loads a complete event log as a new run.
    LoadLog(SpecId, EventLog),
    /// Opens a streaming run.
    BeginStream(SpecId),
    /// Pushes one event into an open stream.
    PushEvent(RunId, LogEvent),
    /// Seals an open stream.
    SealStream(RunId),
    /// Deep provenance of a data object.
    DeepProvenance(RunId, ViewId, DataId),
    /// Immediate provenance of a data object.
    ImmediateProvenance(RunId, ViewId, DataId),
    /// The data objects with this one in their provenance.
    DependentsOf(RunId, ViewId, DataId),
    /// Data passed between two executions (`None` = input/output node).
    DataBetween(RunId, ViewId, Option<StepId>, Option<StepId>),
    /// The run's final outputs.
    FinalOutputs(RunId),
    /// Every data object visible at the view level.
    VisibleData(RunId, ViewId),
    /// Deep provenance of many `(run, view, data)` triples, answered in
    /// input order.
    Batch(Vec<(RunId, ViewId, DataId)>),
    /// Builds the good user view for these relevant module labels with
    /// `RelevUserViewBuilder` and registers it, or finds it registered.
    BuildView(SpecId, Vec<String>),
    /// Registers the admin (identity) view, or finds it registered.
    AdminView(SpecId),
}

impl Op {
    /// Short operation name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Op::RegisterSpec(_) => "register_spec",
            Op::RegisterView(..) => "register_view",
            Op::LoadLog(..) => "load_log",
            Op::BeginStream(_) => "begin_stream",
            Op::PushEvent(..) => "push_event",
            Op::SealStream(_) => "seal_stream",
            Op::DeepProvenance(..) => "deep_provenance",
            Op::ImmediateProvenance(..) => "immediate_provenance",
            Op::DependentsOf(..) => "dependents_of",
            Op::DataBetween(..) => "data_between",
            Op::FinalOutputs(_) => "final_outputs",
            Op::VisibleData(..) => "visible_data",
            Op::Batch(_) => "batch",
            Op::BuildView(..) => "build_view",
            Op::AdminView(_) => "admin_view",
        }
    }

    /// Whether applying this op twice differs from applying it once: it
    /// allocates a fresh id or appends to a stream. A client that lost
    /// its connection with such an op in flight cannot know whether the
    /// server applied it, so it must fail loudly instead of re-sending.
    /// View building finds an existing view before registering, so it is
    /// safe to re-send.
    pub fn allocates(&self) -> bool {
        match self {
            Op::RegisterSpec(_)
            | Op::RegisterView(..)
            | Op::LoadLog(..)
            | Op::BeginStream(_)
            | Op::PushEvent(..)
            | Op::SealStream(_) => true,
            Op::DeepProvenance(..)
            | Op::ImmediateProvenance(..)
            | Op::DependentsOf(..)
            | Op::DataBetween(..)
            | Op::FinalOutputs(_)
            | Op::VisibleData(..)
            | Op::Batch(_)
            | Op::BuildView(..)
            | Op::AdminView(_) => false,
        }
    }

    /// Whether this op can add a specification or a view — what
    /// installed visibility policies are compiled against.
    pub fn registers(&self) -> bool {
        match self {
            Op::RegisterSpec(_) | Op::RegisterView(..) | Op::BuildView(..) | Op::AdminView(_) => {
                true
            }
            Op::LoadLog(..)
            | Op::BeginStream(_)
            | Op::PushEvent(..)
            | Op::SealStream(_)
            | Op::DeepProvenance(..)
            | Op::ImmediateProvenance(..)
            | Op::DependentsOf(..)
            | Op::DataBetween(..)
            | Op::FinalOutputs(_)
            | Op::VisibleData(..)
            | Op::Batch(_) => false,
        }
    }

    /// This op re-addressed to `run` and, for view-addressed queries, to
    /// `view` (`None` keeps the view). Ops that address no run come back
    /// unchanged. Query fields are `Copy`, so re-addressing a query
    /// allocates nothing.
    pub(crate) fn retarget(&self, run: RunId, view: Option<ViewId>) -> Op {
        let at = |v: ViewId| view.unwrap_or(v);
        match self {
            Op::PushEvent(_, ev) => Op::PushEvent(run, ev.clone()),
            Op::SealStream(_) => Op::SealStream(run),
            &Op::DeepProvenance(_, v, d) => Op::DeepProvenance(run, at(v), d),
            &Op::ImmediateProvenance(_, v, d) => Op::ImmediateProvenance(run, at(v), d),
            &Op::DependentsOf(_, v, d) => Op::DependentsOf(run, at(v), d),
            &Op::DataBetween(_, v, from, to) => Op::DataBetween(run, at(v), from, to),
            Op::FinalOutputs(_) => Op::FinalOutputs(run),
            &Op::VisibleData(_, v) => Op::VisibleData(run, at(v)),
            Op::RegisterSpec(_)
            | Op::RegisterView(..)
            | Op::LoadLog(..)
            | Op::BeginStream(_)
            | Op::Batch(_)
            | Op::BuildView(..)
            | Op::AdminView(_) => self.clone(),
        }
    }

    /// The view a [`Op::BuildView`] asks for, built against its
    /// specification; the admin view for [`Op::AdminView`] (the only other
    /// op this is called for).
    pub(crate) fn derived_view(&self, spec: &WorkflowSpec) -> Result<UserView> {
        let Op::BuildView(_, labels) = self else {
            return Ok(UserView::admin(spec));
        };
        let relevant = labels
            .iter()
            .map(|l| spec.module(l))
            .collect::<zoom_model::Result<Vec<_>>>()?;
        Ok(zoom_views::relev_user_view_builder(spec, &relevant)?.view)
    }
}

/// The answer to one [`Op`]. `E` is the error a batch slot carries:
/// [`WarehouseError`] in process, the client's error type over the wire.
#[derive(Debug)]
pub enum Answer<E = WarehouseError> {
    /// A registered specification id.
    Spec(SpecId),
    /// A registered (or found) view id.
    View(ViewId),
    /// A loaded or opened run id.
    Run(RunId),
    /// What a pushed event did to the committed prefix.
    Push(PushOutcome),
    /// The stream was sealed.
    Sealed,
    /// A deep-provenance answer.
    Provenance(ProvenanceResult),
    /// An immediate-provenance answer.
    Immediate(ImmediateAnswer),
    /// A plain list of data objects.
    Data(Vec<DataId>),
    /// Batched deep-provenance answers, input order.
    Batch(Vec<std::result::Result<ProvenanceResult, E>>),
}

/// A value one [`Answer`] variant carries — what typed sugar over an
/// `apply` unwraps.
pub trait FromAnswer: Sized {
    /// The value, when `answer` carries one of this type.
    fn from_answer<E>(answer: Answer<E>) -> Option<Self>;
}

macro_rules! from_answer {
    ($($ty:ty => $variant:ident),* $(,)?) => {$(
        impl FromAnswer for $ty {
            fn from_answer<E>(answer: Answer<E>) -> Option<Self> {
                match answer {
                    Answer::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

from_answer!(
    SpecId => Spec,
    ViewId => View,
    RunId => Run,
    PushOutcome => Push,
    ProvenanceResult => Provenance,
    ImmediateAnswer => Immediate,
    Vec<DataId> => Data,
);

impl FromAnswer for () {
    fn from_answer<E>(answer: Answer<E>) -> Option<Self> {
        matches!(answer, Answer::Sealed).then_some(())
    }
}

/// The typed value inside an in-process answer. An in-process backend
/// answers each op with the variant the op names, so a mismatch is a bug.
pub fn typed<T: FromAnswer>(res: Result<Answer>) -> Result<T> {
    res.map(|a| T::from_answer(a).expect("an in-process answer matches its op"))
}

fn join<T: Display>(items: impl IntoIterator<Item = T>, sep: &str) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

fn canonical_deep(p: &ProvenanceResult) -> String {
    let rows = p.rows.iter().map(|row| {
        let producer = row.producer.map_or("u".to_string(), |s| s.0.to_string());
        format!("{}<-{producer}", row.data.0)
    });
    format!(
        "deep:{};{};{}",
        p.target.0,
        join(rows, ","),
        join(p.execs.iter().map(|s| s.0), ",")
    )
}

impl<E: Display> Answer<E> {
    /// The canonical rendering trace digests hash: ids in their display
    /// form, provenance rows and executions in the query layer's sorted
    /// order, data lists re-sorted here. It is deterministic, so two
    /// backends agree on an answer iff they agree on these bytes.
    pub fn canonical(&self) -> String {
        match self {
            Answer::Spec(id) => id.to_string(),
            Answer::View(id) => id.to_string(),
            Answer::Run(id) => id.to_string(),
            Answer::Push(PushOutcome::Buffered) => "buffered".to_string(),
            Answer::Push(PushOutcome::Committed(steps)) => {
                format!("committed:{}", join(steps.iter().map(|s| s.0), ","))
            }
            Answer::Sealed => "sealed".to_string(),
            Answer::Provenance(p) => canonical_deep(p),
            Answer::Immediate(ImmediateAnswer::Produced {
                exec,
                inputs,
                params,
            }) => format!(
                "produced:{};in={};p={}",
                exec.0,
                join(inputs.iter().map(|d| d.0), ","),
                join(
                    params.iter().map(|(s, k, v)| format!("{}={k}:{v}", s.0)),
                    ";"
                )
            ),
            Answer::Immediate(ImmediateAnswer::UserInput { meta: Some(m) }) => {
                format!("user:{}@{}", m.user, m.time.0)
            }
            Answer::Immediate(ImmediateAnswer::UserInput { meta: None }) => "user:?".to_string(),
            Answer::Data(ds) => {
                let mut ds = ds.clone();
                ds.sort();
                format!("deps:{}", join(ds.iter().map(|d| d.0), ","))
            }
            Answer::Batch(slots) => {
                let slots = slots.iter().map(|s| match s {
                    Ok(p) => canonical_deep(p),
                    Err(e) => format!("err:{e}"),
                });
                format!("batch:{}", join(slots, "|"))
            }
        }
    }
}

/// The human rendering `zoomctl query` prints.
impl<E: Display> Display for Answer<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Provenance(p) => {
                writeln!(
                    f,
                    "deep provenance of {}: {} tuples, {} execution(s)",
                    p.target,
                    p.tuples(),
                    p.exec_count()
                )?;
                const SHOWN: usize = 24;
                for row in p.rows.iter().take(SHOWN) {
                    match row.producer {
                        Some(s) => writeln!(f, "  {} <- {}", row.data, s)?,
                        None => writeln!(f, "  {} <- user input", row.data)?,
                    }
                }
                if p.rows.len() > SHOWN {
                    writeln!(f, "  … and {} more rows", p.rows.len() - SHOWN)?;
                }
                Ok(())
            }
            Answer::Immediate(ImmediateAnswer::Produced {
                exec,
                inputs,
                params,
            }) => {
                write!(
                    f,
                    "produced by {exec} from {} input(s): {}",
                    inputs.len(),
                    zoom_model::run::format_data_range(inputs)
                )?;
                for (step, k, v) in params {
                    write!(f, "\n  param {step}.{k} = {v}")?;
                }
                Ok(())
            }
            Answer::Immediate(ImmediateAnswer::UserInput { meta }) => match meta {
                Some(m) => write!(f, "user input by `{}` at {}", m.user, m.time),
                None => write!(f, "user input (no metadata recorded)"),
            },
            Answer::Data(ds) => write!(
                f,
                "{} data object(s): {}",
                ds.len(),
                zoom_model::run::format_data_range(ds)
            ),
            // Write acknowledgements and batches print their canonical form.
            other => f.write_str(&other.canonical()),
        }
    }
}

/// An in-process store — [`Warehouse`] or [`DurableWarehouse`]: the
/// tables reads are answered from and the six writes, which a durable
/// store journals before it acknowledges them. [`Store::apply`] and
/// [`Store::register_view_if_absent`] are written once over these for
/// both stores; warehouse-level rejections render the same from either.
pub trait Store {
    /// The tables reads are answered from.
    fn tables(&self) -> &Warehouse;
    /// Registers a workflow specification.
    fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId>;
    /// Registers a user view of a specification.
    fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId>;
    /// Loads a complete event log as a new run.
    fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId>;
    /// Opens a streaming run.
    fn begin_stream(&mut self, spec: SpecId) -> Result<RunId>;
    /// Pushes one event into an open stream.
    fn stream_push(&mut self, run: RunId, event: &LogEvent) -> Result<PushOutcome>;
    /// Seals an open stream.
    fn stream_seal(&mut self, run: RunId) -> Result<()>;

    /// Registers `view`, or returns the id of the view already registered
    /// under `spec` with the same name without registering.
    fn register_view_if_absent(&mut self, spec: SpecId, view: UserView) -> Result<ViewId> {
        match self.tables().find_view(spec, view.name()) {
            Some(id) => Ok(id),
            None => self.register_view(spec, view),
        }
    }

    /// Applies any op as the embedder: writes through the methods above,
    /// reads through [`Warehouse::read`] on the tables.
    fn apply(&mut self, op: &Op) -> Result<Answer> {
        Ok(match op {
            Op::RegisterSpec(spec) => Answer::Spec(self.register_spec(spec.clone())?),
            Op::RegisterView(spec, view) => Answer::View(self.register_view(*spec, view.clone())?),
            Op::BuildView(spec, _) | Op::AdminView(spec) => {
                let view = op.derived_view(self.tables().spec(*spec)?)?;
                Answer::View(self.register_view_if_absent(*spec, view)?)
            }
            Op::LoadLog(spec, log) => Answer::Run(self.load_log(*spec, log)?),
            Op::BeginStream(spec) => Answer::Run(self.begin_stream(*spec)?),
            Op::PushEvent(run, ev) => Answer::Push(self.stream_push(*run, ev)?),
            Op::SealStream(run) => {
                self.stream_seal(*run)?;
                Answer::Sealed
            }
            Op::DeepProvenance(..)
            | Op::ImmediateProvenance(..)
            | Op::DependentsOf(..)
            | Op::DataBetween(..)
            | Op::FinalOutputs(_)
            | Op::VisibleData(..)
            | Op::Batch(_) => return self.tables().read(&Cx::ADMIN, op),
        })
    }
}

impl Store for Warehouse {
    fn tables(&self) -> &Warehouse {
        self
    }
    fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId> {
        Warehouse::register_spec(self, spec)
    }
    fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId> {
        Warehouse::register_view(self, spec, view)
    }
    fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId> {
        Warehouse::load_log(self, spec, log)
    }
    fn begin_stream(&mut self, spec: SpecId) -> Result<RunId> {
        Warehouse::begin_stream(self, spec)
    }
    fn stream_push(&mut self, run: RunId, event: &LogEvent) -> Result<PushOutcome> {
        Warehouse::stream_push(self, run, event)
    }
    fn stream_seal(&mut self, run: RunId) -> Result<()> {
        Warehouse::stream_seal(self, run)
    }
}

/// Durability failures surface as [`WarehouseError::Durability`].
impl Store for DurableWarehouse {
    fn tables(&self) -> &Warehouse {
        self.warehouse()
    }
    fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId> {
        Ok(DurableWarehouse::register_spec(self, spec)?)
    }
    fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId> {
        Ok(DurableWarehouse::register_view(self, spec, view)?)
    }
    fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId> {
        Ok(DurableWarehouse::load_log(self, spec, log)?)
    }
    fn begin_stream(&mut self, spec: SpecId) -> Result<RunId> {
        Ok(DurableWarehouse::begin_stream(self, spec)?)
    }
    fn stream_push(&mut self, run: RunId, event: &LogEvent) -> Result<PushOutcome> {
        Ok(DurableWarehouse::stream_push(self, run, event)?)
    }
    fn stream_seal(&mut self, run: RunId) -> Result<()> {
        Ok(DurableWarehouse::stream_seal(self, run)?)
    }
}
