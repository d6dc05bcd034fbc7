//! Streaming ingestion: reconstructing a run *while it executes*.
//!
//! The paper treats a run as a finished event log, but its motivating
//! scenario — a biologist watching a workflow execute and asking "where did
//! this data item come from?" mid-run — needs provenance that is queryable
//! while steps are still appending. A [`RunIngestor`] accepts
//! [`LogEvent`]s one at a time, validates them against the specification
//! and the stream's own history (monotone timestamps, unique producers,
//! write-before-read), and commits steps into a growing *prefix run*
//! (`WorkflowRun::append_step`) the moment they — and every step producing
//! their inputs — have finished.
//!
//! The accept/apply split is the warehouse's write protocol: [`RunIngestor::accept`]
//! is read-only validation that either rejects the event with a typed
//! [`StreamError`] or yields a [`StreamCommit`]; the caller may then journal
//! the commit, after which [`RunIngestor::apply`] is infallible. An event is
//! therefore never journaled unless it will apply, and never applied
//! half-way.
//!
//! Commit order is the key invariant: a step enters the committed prefix
//! only after all steps that produced its inputs, so every append adds a
//! node whose in-neighbors already exist — exactly the pure-extension
//! contract `LabelIndex::append_node` needs to extend the interval index
//! without a rebuild.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use zoom_graph::fxhash::{FxHashMap, FxHashSet};
use zoom_model::ids::{DataId, StepId, Timestamp};
use zoom_model::{LogEvent, StepAppend, UserInputMeta, WorkflowRun, WorkflowSpec};

/// Why an event (or a seal) was rejected. Rejection leaves the ingestor and
/// the prefix run exactly as they were — a bad log cannot corrupt a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// `StepStarted` named a module label the specification does not have.
    UnknownModule(String),
    /// `StepStarted` reused a step id already started in this stream.
    DuplicateStep(StepId),
    /// An event referenced a step that was never started.
    UnknownStep(StepId),
    /// An event referenced a step that already finished.
    StepAlreadyFinished(StepId),
    /// The event's timestamp went backwards.
    NonMonotonicTime {
        /// The stream clock (largest timestamp seen so far).
        last: Timestamp,
        /// The offending event's timestamp.
        got: Timestamp,
    },
    /// Two different steps wrote the same data object.
    DataProducedTwice {
        /// The object.
        data: DataId,
        /// The step that wrote it first.
        first: StepId,
        /// The conflicting writer.
        second: StepId,
    },
    /// A step wrote a data object that an earlier `Read` already classified
    /// as a user input (read before any writer existed). Admitting the
    /// write would silently re-parent the object's provenance.
    WriteAfterRead {
        /// The object.
        data: DataId,
        /// The step that read it as a user input.
        step: StepId,
    },
    /// A step finished without reading anything, so it would be unreachable
    /// from the run's input node.
    NoInputs(StepId),
    /// A run edge the event stream implies has no specification edge.
    SpecMismatch(String),
    /// `Finalized` named a data object no step has written.
    UnwrittenFinal(DataId),
    /// Seal was requested while steps were still open or uncommitted.
    UnfinishedSteps(usize),
    /// Seal was requested but no data object was ever `Finalized`.
    NoFinalOutputs,
    /// The stream was already sealed (or the operation requires a live
    /// stream on this run).
    SealedStream,
    /// A snapshot's stream bookkeeping does not continue its prefix run:
    /// the bytes were doctored, or written against another run.
    BadState(&'static str),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnknownModule(m) => write!(f, "unknown module `{m}` in stream"),
            StreamError::DuplicateStep(s) => write!(f, "step {s} already started"),
            StreamError::UnknownStep(s) => write!(f, "step {s} was never started"),
            StreamError::StepAlreadyFinished(s) => write!(f, "step {s} already finished"),
            StreamError::NonMonotonicTime { last, got } => {
                write!(f, "event time {:?} precedes stream clock {:?}", got, last)
            }
            StreamError::DataProducedTwice {
                data,
                first,
                second,
            } => write!(f, "{data} written by both {first} and {second}"),
            StreamError::WriteAfterRead { data, step } => {
                write!(
                    f,
                    "{data} was read as a user input by {step} before being written"
                )
            }
            StreamError::NoInputs(s) => write!(f, "step {s} finished without reading any data"),
            StreamError::SpecMismatch(m) => write!(f, "spec mismatch: {m}"),
            StreamError::UnwrittenFinal(d) => write!(f, "finalized object {d} was never written"),
            StreamError::UnfinishedSteps(n) => {
                write!(f, "cannot seal: {n} step(s) still open or uncommitted")
            }
            StreamError::NoFinalOutputs => write!(f, "cannot seal: no finalized outputs"),
            StreamError::SealedStream => write!(f, "stream already sealed"),
            StreamError::BadState(what) => {
                write!(f, "stream state does not continue its run: {what}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A step that has started but not yet finished.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct PendingStep {
    module: zoom_graph::NodeId,
    reads: Vec<DataId>,
    params: BTreeMap<String, String>,
}

/// A finished step waiting for its producers to commit.
#[derive(Clone, Debug)]
struct FinishedStep {
    pending: PendingStep,
    waiting: usize,
}

/// What a validated event will do when applied. Produced by
/// [`RunIngestor::accept`], consumed by [`RunIngestor::apply`].
#[derive(Clone, Debug)]
pub struct StreamCommit {
    event: LogEvent,
    commits: Vec<StepAppend>,
}

impl StreamCommit {
    /// The steps this event commits into the prefix (producers first).
    pub fn steps(&self) -> impl Iterator<Item = StepId> + '_ {
        self.commits.iter().map(|s| s.id)
    }

    /// The validated event.
    pub fn event(&self) -> &LogEvent {
        &self.event
    }
}

/// A commit is journaled as the event it applies; replay accepts the
/// event again to rebuild the commit.
impl serde::Serialize for StreamCommit {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(&self.event, s)
    }
}

/// What applying one event did to the committed prefix.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PushOutcome {
    /// The event was recorded but committed no new step (e.g. a `Read` of
    /// an open step, or a `StepFinished` still waiting on a producer).
    Buffered,
    /// These steps (producers first) joined the committed prefix and are
    /// now visible to every query.
    Committed(Vec<StepId>),
}

/// The final-output groups a seal will append. Produced by
/// [`RunIngestor::seal_check`], consumed by [`RunIngestor::apply_seal`].
#[derive(Clone, Debug)]
pub struct SealCommit {
    finals: Vec<(StepId, Vec<DataId>)>,
}

/// A seal is journaled as its run id alone, so its commit encodes as
/// nothing; replay checks the seal again to rebuild it.
impl serde::Serialize for SealCommit {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_unit()
    }
}

/// Incremental event-log-to-run reconstruction for one stream.
///
/// All bookkeeping lives here; the prefix [`WorkflowRun`] itself is owned by
/// the warehouse row and mutated only through [`RunIngestor::apply`] /
/// [`RunIngestor::apply_seal`].
#[derive(Clone, Debug, Default)]
pub struct RunIngestor {
    /// Largest timestamp accepted so far (events may tie, never regress).
    clock: Timestamp,
    /// Producer of each written data object.
    writer: FxHashMap<DataId, StepId>,
    /// Recorded `UserInput` metadata (first event wins).
    user_meta: FxHashMap<DataId, UserInputMeta>,
    /// Data classified as user input by a `Read` that found no writer,
    /// mapped to the step that first read it.
    user_read: FxHashMap<DataId, StepId>,
    /// Started, not yet finished.
    open: FxHashMap<StepId, PendingStep>,
    /// Finished, waiting on `waiting` uncommitted producers.
    finished: FxHashMap<StepId, FinishedStep>,
    /// Producer -> finished steps waiting on it.
    dependents: FxHashMap<StepId, Vec<StepId>>,
    /// Steps already appended to the prefix run.
    committed: FxHashSet<StepId>,
    /// Module of every started step (survives commit, for spec checks).
    module_of: FxHashMap<StepId, zoom_graph::NodeId>,
    /// `Finalized` objects, in arrival order, deduplicated.
    finals: Vec<DataId>,
    sealed: bool,
}

/// A live stream's bookkeeping as a snapshot carries it beside the
/// stream's prefix run, every table in key order. The prefix records
/// neither the clock, the first reader of each user input nor the order
/// finished steps registered with their producers, so replaying the
/// uncommitted events alone would not rebuild the stream. What the prefix
/// does record is derived from it: the committed steps and their modules,
/// and how many producers each finished step waits on. Saving encodes
/// borrowed tables (`M = &UserInputMeta`, ...), loading decodes owned
/// ones; both have the same bytes.
#[derive(Serialize, Deserialize)]
pub(crate) struct StreamState<M, P, D> {
    clock: Timestamp,
    writers: Vec<(DataId, StepId)>,
    user_meta: Vec<(DataId, M)>,
    /// Data classified as user input, with the step that first read each.
    user_reads: Vec<(DataId, StepId)>,
    open: Vec<(StepId, P)>,
    finished: Vec<(StepId, P)>,
    /// Each uncommitted producer's waiting steps, in registration order.
    dependents: Vec<(StepId, D)>,
    finals: Vec<DataId>,
}

/// A decoded [`StreamState`].
pub(crate) type SavedStream = StreamState<UserInputMeta, PendingStep, Vec<StepId>>;

/// `entries` in key order.
pub(crate) fn by_key<K: Ord + Copy, V>(entries: impl Iterator<Item = (K, V)>) -> Vec<(K, V)> {
    let mut v: Vec<_> = entries.collect();
    v.sort_unstable_by_key(|e| e.0);
    v
}

/// Whether `entries` are in strictly increasing key order: decoded tables
/// must be exactly as saved, with no key twice.
fn strictly_by_key<K: Ord, V>(entries: &[(K, V)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// A snapshot encodes a live ingestor as its `StreamState`.
impl Serialize for RunIngestor {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let copied = |m: &FxHashMap<DataId, StepId>| by_key(m.iter().map(|(&k, &v)| (k, v)));
        StreamState {
            clock: self.clock,
            writers: copied(&self.writer),
            user_meta: by_key(self.user_meta.iter().map(|(&k, v)| (k, v))),
            user_reads: copied(&self.user_read),
            open: by_key(self.open.iter().map(|(&k, p)| (k, p))),
            finished: by_key(self.finished.iter().map(|(&k, f)| (k, &f.pending))),
            dependents: by_key(self.dependents.iter().map(|(&k, d)| (k, d.as_slice()))),
            finals: self.finals.clone(),
        }
        .serialize(s)
    }
}

impl RunIngestor {
    /// A fresh ingestor for an empty prefix run.
    pub fn new() -> Self {
        RunIngestor::default()
    }

    /// The ingestor `state` describes, continuing the prefix `run` of
    /// `spec`. Every invariant [`RunIngestor::apply`] and
    /// [`RunIngestor::seal_check`] rely on is checked, so doctored bytes
    /// are refused here and can never make a later event panic.
    pub(crate) fn resume(
        state: SavedStream,
        spec: &WorkflowSpec,
        run: &WorkflowRun,
    ) -> Result<Self, StreamError> {
        let bad = |what| Err(StreamError::BadState(what));
        let StreamState {
            clock,
            writers,
            user_meta,
            user_reads,
            open,
            finished,
            dependents,
            finals,
        } = state;
        if !run.is_prefix() {
            return bad("its run is sealed");
        }
        if !(strictly_by_key(&writers)
            && strictly_by_key(&user_meta)
            && strictly_by_key(&user_reads)
            && strictly_by_key(&open)
            && strictly_by_key(&finished)
            && strictly_by_key(&dependents))
        {
            return bad("a table is not in key order");
        }
        let mut ing = RunIngestor {
            clock,
            ..RunIngestor::default()
        };
        // Started steps: the committed ones are the run's, the pending
        // ones the state's, and no step is both.
        for (step, module) in run.steps() {
            ing.committed.insert(step);
            ing.module_of.insert(step, module);
        }
        let modules = spec.graph().node_count();
        for (step, p) in open.iter().chain(&finished) {
            if p.module.index() >= modules || !spec.is_module(p.module) {
                return bad("a pending step executes no module");
            }
            if ing.module_of.insert(*step, p.module).is_some() {
                return bad("a step is started twice");
            }
        }
        ing.writer = writers.into_iter().collect();
        ing.user_read = user_reads.into_iter().collect();
        if ing.writer.values().any(|s| !ing.module_of.contains_key(s)) {
            return bad("a writer was never started");
        }
        if ing
            .user_read
            .iter()
            .any(|(d, s)| ing.writer.contains_key(d) || !ing.module_of.contains_key(s))
        {
            return bad("a user input has a writer or an unstarted reader");
        }
        // Every datum the prefix holds came from its writer, or was read
        // as a user input; so did every datum a pending step reads.
        for (e, src, _, _) in run.graph().edges() {
            let from = run.step_at(src).map(|(step, _)| step);
            for d in run.edge_data(e) {
                let agrees = match from {
                    Some(step) => ing.writer.get(d) == Some(&step),
                    None => ing.user_read.contains_key(d),
                };
                if !agrees {
                    return bad("the run's data disagree with the writers");
                }
            }
        }
        let known = |d: &DataId| ing.writer.contains_key(d) || ing.user_read.contains_key(d);
        if !open
            .iter()
            .chain(&finished)
            .all(|(_, p)| p.reads.iter().all(known))
        {
            return bad("a pending step read a datum nobody wrote");
        }
        // A finished step waits on its uncommitted producers, and is
        // listed once among the dependents of each.
        let mut waits: FxHashSet<(StepId, StepId)> = FxHashSet::default();
        for (step, pending) in finished {
            let producers: FxHashSet<StepId> = pending
                .reads
                .iter()
                .filter_map(|d| ing.writer.get(d))
                .filter(|p| !ing.committed.contains(p))
                .copied()
                .collect();
            if producers.is_empty() {
                return bad("a finished step waits on no producer");
            }
            waits.extend(producers.iter().map(|&p| (p, step)));
            let waiting = producers.len();
            ing.finished.insert(step, FinishedStep { pending, waiting });
        }
        for (producer, steps) in dependents {
            if steps.is_empty() || !steps.iter().all(|&s| waits.remove(&(producer, s))) {
                return bad("the dependents disagree with the finished steps");
            }
            ing.dependents.insert(producer, steps);
        }
        if !waits.is_empty() {
            return bad("the dependents disagree with the finished steps");
        }
        let mut seen = FxHashSet::default();
        for d in &finals {
            let feeds_output = ing
                .writer
                .get(d)
                .is_some_and(|w| spec.graph().has_edge(ing.module_of[w], spec.output()));
            if !feeds_output || !seen.insert(d) {
                return bad("a final output is unwritten, repeated or not an output");
            }
        }
        ing.open = open.into_iter().collect();
        ing.user_meta = user_meta.into_iter().collect();
        ing.finals = finals;
        Ok(ing)
    }

    /// Steps started but not yet committed (open + finished-waiting).
    pub fn uncommitted_steps(&self) -> usize {
        self.open.len() + self.finished.len()
    }

    /// Steps already in the committed prefix.
    pub fn committed_steps(&self) -> usize {
        self.committed.len()
    }

    /// Validates `event` against the specification and the stream history.
    /// Read-only: on success the returned [`StreamCommit`] must be passed to
    /// [`RunIngestor::apply`] (possibly after journaling the event) to take
    /// effect; on failure nothing changed.
    pub fn accept(
        &self,
        spec: &WorkflowSpec,
        event: &LogEvent,
    ) -> Result<StreamCommit, StreamError> {
        if self.sealed {
            return Err(StreamError::SealedStream);
        }
        let t = event.time();
        if t < self.clock {
            return Err(StreamError::NonMonotonicTime {
                last: self.clock,
                got: t,
            });
        }
        let mut commits = Vec::new();
        match event {
            LogEvent::UserInput { .. } => {}
            LogEvent::StepStarted { step, module, .. } => {
                if self.module_of.contains_key(step) {
                    return Err(StreamError::DuplicateStep(*step));
                }
                spec.node_by_label(module)
                    .filter(|&n| spec.is_module(n))
                    .ok_or_else(|| StreamError::UnknownModule(module.clone()))?;
            }
            LogEvent::Param { step, .. } | LogEvent::Read { step, .. } => {
                self.require_open(*step)?;
            }
            LogEvent::Wrote { step, data, .. } => {
                self.require_open(*step)?;
                if let Some(&first) = self.writer.get(data) {
                    if first != *step {
                        return Err(StreamError::DataProducedTwice {
                            data: *data,
                            first,
                            second: *step,
                        });
                    }
                } else if let Some(&reader) = self.user_read.get(data) {
                    return Err(StreamError::WriteAfterRead {
                        data: *data,
                        step: reader,
                    });
                }
            }
            LogEvent::StepFinished { step, .. } => {
                let pending = self.open.get(step).ok_or_else(|| {
                    if self.module_of.contains_key(step) {
                        StreamError::StepAlreadyFinished(*step)
                    } else {
                        StreamError::UnknownStep(*step)
                    }
                })?;
                if pending.reads.is_empty() {
                    return Err(StreamError::NoInputs(*step));
                }
                commits = self.simulate_cascade(spec, *step, pending)?;
            }
            LogEvent::Finalized { data, .. } => {
                let Some(writer) = self.writer.get(data) else {
                    return Err(StreamError::UnwrittenFinal(*data));
                };
                // The writer's module must feed the spec's output, just as
                // the batch path rejects an `output_edge` from a
                // non-terminal module.
                let module = *self.module_of.get(writer).expect("writer was started");
                if !spec.graph().has_edge(module, spec.output()) {
                    return Err(StreamError::SpecMismatch(format!(
                        "finalized {data:?} is produced by a module with no edge to Output"
                    )));
                }
            }
        }
        Ok(StreamCommit {
            event: event.clone(),
            commits,
        })
    }

    /// Applies a validated event: updates the stream bookkeeping and appends
    /// any newly committed steps to `run`. Infallible by construction —
    /// every failure mode was rejected by [`RunIngestor::accept`].
    pub fn apply(
        &mut self,
        spec: &WorkflowSpec,
        run: &mut WorkflowRun,
        commit: StreamCommit,
    ) -> PushOutcome {
        let StreamCommit { event, commits } = commit;
        self.clock = event.time();
        match event {
            LogEvent::UserInput { data, user, time } => {
                self.user_meta.entry(data).or_insert(UserInputMeta {
                    user: user.into(),
                    time,
                });
            }
            LogEvent::StepStarted { step, module, .. } => {
                let m = spec
                    .node_by_label(&module)
                    .expect("accept resolved the module");
                self.module_of.insert(step, m);
                self.open.insert(
                    step,
                    PendingStep {
                        module: m,
                        reads: Vec::new(),
                        params: BTreeMap::new(),
                    },
                );
            }
            LogEvent::Param {
                step, key, value, ..
            } => {
                let p = self.open.get_mut(&step).expect("accept required open");
                p.params.insert(key, value);
            }
            LogEvent::Read { step, data, .. } => {
                let p = self.open.get_mut(&step).expect("accept required open");
                if !p.reads.contains(&data) {
                    p.reads.push(data);
                }
                if !self.writer.contains_key(&data) {
                    self.user_read.entry(data).or_insert(step);
                }
            }
            LogEvent::Wrote { step, data, .. } => {
                self.writer.insert(data, step);
            }
            LogEvent::StepFinished { step, .. } => {
                let pending = self.open.remove(&step).expect("accept required open");
                let waiting = self.register_finished(step, pending);
                if waiting > 0 {
                    debug_assert!(commits.is_empty());
                    return PushOutcome::Buffered;
                }
                let ids: Vec<StepId> = commits.iter().map(|s| s.id).collect();
                for sa in &commits {
                    run.append_step(spec, sa)
                        .expect("accept validated the append");
                    self.finished.remove(&sa.id);
                    self.committed.insert(sa.id);
                    for dep in self.dependents.remove(&sa.id).unwrap_or_default() {
                        let f = self
                            .finished
                            .get_mut(&dep)
                            .expect("dependents are finished steps");
                        f.waiting -= 1;
                    }
                }
                return PushOutcome::Committed(ids);
            }
            LogEvent::Finalized { data, .. } => {
                if !self.finals.contains(&data) {
                    self.finals.push(data);
                }
            }
        }
        PushOutcome::Buffered
    }

    /// Validates a seal request: every started step must have committed and
    /// at least one object must be finalized. Read-only, like `accept`.
    pub fn seal_check(&self) -> Result<SealCommit, StreamError> {
        if self.sealed {
            return Err(StreamError::SealedStream);
        }
        let unfinished = self.uncommitted_steps();
        if unfinished > 0 {
            return Err(StreamError::UnfinishedSteps(unfinished));
        }
        if self.finals.is_empty() {
            return Err(StreamError::NoFinalOutputs);
        }
        let mut by_producer: BTreeMap<StepId, Vec<DataId>> = BTreeMap::new();
        for &d in &self.finals {
            let p = *self.writer.get(&d).expect("accept required a writer");
            by_producer.entry(p).or_default().push(d);
        }
        Ok(SealCommit {
            finals: by_producer.into_iter().collect(),
        })
    }

    /// Applies a validated seal: connects the final outputs to the run's
    /// output node, turning the prefix into a complete run.
    pub fn apply_seal(&mut self, spec: &WorkflowSpec, run: &mut WorkflowRun, commit: SealCommit) {
        run.add_final_outputs(spec, &commit.finals)
            .expect("seal_check validated the finals");
        self.sealed = true;
    }

    fn require_open(&self, step: StepId) -> Result<(), StreamError> {
        if self.open.contains_key(&step) {
            Ok(())
        } else if self.module_of.contains_key(&step) {
            Err(StreamError::StepAlreadyFinished(step))
        } else {
            Err(StreamError::UnknownStep(step))
        }
    }

    /// Read-only cascade simulation for a `StepFinished { step }` event:
    /// if every producer of `step`'s reads has committed, `step` commits,
    /// which may unblock finished dependents, transitively. Returns the
    /// committing steps' appends in producers-first order (empty when the
    /// step must wait).
    fn simulate_cascade(
        &self,
        spec: &WorkflowSpec,
        step: StepId,
        pending: &PendingStep,
    ) -> Result<Vec<StepAppend>, StreamError> {
        if self.producers_waiting(pending) > 0 {
            return Ok(Vec::new());
        }
        let mut appends = vec![self.build_append(spec, step, pending)?];
        let mut newly: FxHashSet<StepId> = FxHashSet::default();
        newly.insert(step);
        let mut waiting_now: FxHashMap<StepId, usize> = FxHashMap::default();
        let mut i = 0;
        while i < appends.len() {
            let c = appends[i].id;
            i += 1;
            for dep in self.dependents.get(&c).map(Vec::as_slice).unwrap_or(&[]) {
                if newly.contains(dep) {
                    continue;
                }
                let f = &self.finished[dep];
                let w = *waiting_now.get(dep).unwrap_or(&f.waiting);
                debug_assert!(w > 0);
                if w == 1 {
                    newly.insert(*dep);
                    appends.push(self.build_append(spec, *dep, &f.pending)?);
                } else {
                    waiting_now.insert(*dep, w - 1);
                }
            }
        }
        Ok(appends)
    }

    /// How many distinct uncommitted producers `pending`'s reads depend on.
    fn producers_waiting(&self, pending: &PendingStep) -> usize {
        let mut producers: FxHashSet<StepId> = FxHashSet::default();
        for d in &pending.reads {
            if let Some(&p) = self.writer.get(d) {
                if !self.committed.contains(&p) {
                    producers.insert(p);
                }
            }
        }
        producers.len()
    }

    /// Moves a just-finished step into the waiting set, registering it with
    /// every uncommitted producer. Returns the waiting count (0 = commits
    /// now; the caller handles the cascade).
    fn register_finished(&mut self, step: StepId, pending: PendingStep) -> usize {
        let mut producers: FxHashSet<StepId> = FxHashSet::default();
        for d in &pending.reads {
            if let Some(&p) = self.writer.get(d) {
                if !self.committed.contains(&p) {
                    producers.insert(p);
                }
            }
        }
        let waiting = producers.len();
        for p in &producers {
            self.dependents.entry(*p).or_default().push(step);
        }
        self.finished
            .insert(step, FinishedStep { pending, waiting });
        waiting
    }

    /// Builds the [`StepAppend`] for a committing step, checking the
    /// specification edges the run edges will need.
    fn build_append(
        &self,
        spec: &WorkflowSpec,
        step: StepId,
        pending: &PendingStep,
    ) -> Result<StepAppend, StreamError> {
        let mut by_producer: BTreeMap<Option<StepId>, Vec<DataId>> = BTreeMap::new();
        for &d in &pending.reads {
            by_producer
                .entry(self.writer.get(&d).copied())
                .or_default()
                .push(d);
        }
        let mut inputs = Vec::with_capacity(by_producer.len());
        let mut user_meta = Vec::new();
        for (producer, ds) in by_producer {
            let spec_src = match producer {
                None => {
                    for &d in &ds {
                        let meta = self.user_meta.get(&d).cloned().unwrap_or(UserInputMeta {
                            user: "user".into(),
                            time: self.clock,
                        });
                        user_meta.push((d, meta));
                    }
                    spec.input()
                }
                Some(p) => *self.module_of.get(&p).expect("writers were started"),
            };
            if !spec.graph().has_edge(spec_src, pending.module) {
                return Err(StreamError::SpecMismatch(format!(
                    "run edge into {step} has no specification edge {} -> {}",
                    spec.label(spec_src),
                    spec.label(pending.module)
                )));
            }
            inputs.push((producer, ds));
        }
        Ok(StepAppend {
            id: step,
            module: pending.module,
            inputs,
            params: pending.params.clone(),
            user_meta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::spec::SpecBuilder;
    use zoom_model::EventLog;

    /// input -> A -> B -> output
    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("s");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    struct Harness {
        spec: WorkflowSpec,
        run: WorkflowRun,
        ing: RunIngestor,
        t: u64,
    }

    impl Harness {
        fn new() -> Self {
            let spec = spec();
            let run = WorkflowRun::empty_prefix(&spec);
            Harness {
                spec,
                run,
                ing: RunIngestor::new(),
                t: 0,
            }
        }

        fn tick(&mut self) -> Timestamp {
            self.t += 1;
            Timestamp(self.t)
        }

        fn push(&mut self, ev: LogEvent) -> Result<PushOutcome, StreamError> {
            let c = self.ing.accept(&self.spec, &ev)?;
            Ok(self.ing.apply(&self.spec, &mut self.run, c))
        }

        fn started(&mut self, s: u32, m: &str) -> Result<PushOutcome, StreamError> {
            let time = self.tick();
            self.push(LogEvent::StepStarted {
                step: StepId(s),
                module: m.into(),
                time,
            })
        }

        fn read(&mut self, s: u32, d: u64) -> Result<PushOutcome, StreamError> {
            let time = self.tick();
            self.push(LogEvent::Read {
                step: StepId(s),
                data: DataId(d),
                time,
            })
        }

        fn wrote(&mut self, s: u32, d: u64) -> Result<PushOutcome, StreamError> {
            let time = self.tick();
            self.push(LogEvent::Wrote {
                step: StepId(s),
                data: DataId(d),
                time,
            })
        }

        fn finished(&mut self, s: u32) -> Result<PushOutcome, StreamError> {
            let time = self.tick();
            self.push(LogEvent::StepFinished {
                step: StepId(s),
                time,
            })
        }

        fn finalized(&mut self, d: u64) -> Result<PushOutcome, StreamError> {
            let time = self.tick();
            self.push(LogEvent::Finalized {
                data: DataId(d),
                time,
            })
        }

        fn seal(&mut self) -> Result<(), StreamError> {
            let c = self.ing.seal_check()?;
            self.ing.apply_seal(&self.spec, &mut self.run, c);
            Ok(())
        }
    }

    #[test]
    fn happy_path_streams_to_complete_run() {
        let mut h = Harness::new();
        let time = h.tick();
        h.push(LogEvent::UserInput {
            data: DataId(1),
            user: "joe".into(),
            time,
        })
        .unwrap();
        h.started(1, "A").unwrap();
        h.read(1, 1).unwrap();
        h.wrote(1, 2).unwrap();
        assert_eq!(
            h.finished(1).unwrap(),
            PushOutcome::Committed(vec![StepId(1)])
        );
        assert!(h.run.is_prefix());
        assert_eq!(h.run.step_count(), 1);
        h.started(2, "B").unwrap();
        h.read(2, 2).unwrap();
        h.wrote(2, 3).unwrap();
        assert_eq!(
            h.finished(2).unwrap(),
            PushOutcome::Committed(vec![StepId(2)])
        );
        h.finalized(3).unwrap();
        h.seal().unwrap();
        assert!(!h.run.is_prefix());
        h.run.validate(&h.spec).unwrap();
        assert_eq!(h.run.final_outputs(), vec![DataId(3)]);
        assert_eq!(
            h.run.user_input_meta(DataId(1)).map(|m| &*m.user),
            Some("joe")
        );
    }

    #[test]
    fn consumer_finishing_first_commits_with_producer() {
        // B finishes before A (its producer): B buffers, then A's finish
        // commits both, producer first.
        let mut h = Harness::new();
        h.started(1, "A").unwrap();
        h.read(1, 1).unwrap();
        h.wrote(1, 2).unwrap();
        h.started(2, "B").unwrap();
        h.read(2, 2).unwrap();
        h.wrote(2, 3).unwrap();
        assert_eq!(h.finished(2).unwrap(), PushOutcome::Buffered);
        assert_eq!(h.ing.uncommitted_steps(), 2);
        assert_eq!(
            h.finished(1).unwrap(),
            PushOutcome::Committed(vec![StepId(1), StepId(2)])
        );
        assert_eq!(h.ing.committed_steps(), 2);
        assert_eq!(h.run.inputs_of(StepId(2)).unwrap(), vec![DataId(2)]);
    }

    #[test]
    fn rejects_unknown_module() {
        let mut h = Harness::new();
        assert_eq!(
            h.started(1, "ZZZ").unwrap_err(),
            StreamError::UnknownModule("ZZZ".into())
        );
    }

    #[test]
    fn rejects_duplicate_step() {
        let mut h = Harness::new();
        h.started(1, "A").unwrap();
        assert_eq!(
            h.started(1, "A").unwrap_err(),
            StreamError::DuplicateStep(StepId(1))
        );
        // Still duplicate after it finished and committed.
        h.read(1, 1).unwrap();
        h.finished(1).unwrap();
        assert_eq!(
            h.started(1, "A").unwrap_err(),
            StreamError::DuplicateStep(StepId(1))
        );
    }

    #[test]
    fn rejects_events_for_unknown_or_finished_steps() {
        let mut h = Harness::new();
        assert_eq!(
            h.read(9, 1).unwrap_err(),
            StreamError::UnknownStep(StepId(9))
        );
        assert_eq!(
            h.finished(9).unwrap_err(),
            StreamError::UnknownStep(StepId(9))
        );
        h.started(1, "A").unwrap();
        h.read(1, 1).unwrap();
        h.finished(1).unwrap();
        assert_eq!(
            h.read(1, 2).unwrap_err(),
            StreamError::StepAlreadyFinished(StepId(1))
        );
        assert_eq!(
            h.finished(1).unwrap_err(),
            StreamError::StepAlreadyFinished(StepId(1))
        );
    }

    #[test]
    fn rejects_time_regression() {
        let mut h = Harness::new();
        h.started(1, "A").unwrap();
        let err = h
            .push(LogEvent::Read {
                step: StepId(1),
                data: DataId(1),
                time: Timestamp(0),
            })
            .unwrap_err();
        assert!(matches!(err, StreamError::NonMonotonicTime { .. }));
        // Equal timestamps are allowed.
        h.push(LogEvent::Read {
            step: StepId(1),
            data: DataId(1),
            time: Timestamp(h.t),
        })
        .unwrap();
    }

    #[test]
    fn rejects_double_write() {
        let mut h = Harness::new();
        h.started(1, "A").unwrap();
        h.started(2, "A").unwrap();
        h.wrote(1, 7).unwrap();
        assert_eq!(
            h.wrote(2, 7).unwrap_err(),
            StreamError::DataProducedTwice {
                data: DataId(7),
                first: StepId(1),
                second: StepId(2),
            }
        );
        // Re-write by the same step is idempotent.
        h.wrote(1, 7).unwrap();
    }

    #[test]
    fn rejects_write_after_user_classified_read() {
        let mut h = Harness::new();
        h.started(1, "A").unwrap();
        h.read(1, 5).unwrap(); // no writer: 5 is a user input now
        h.started(2, "A").unwrap();
        assert_eq!(
            h.wrote(2, 5).unwrap_err(),
            StreamError::WriteAfterRead {
                data: DataId(5),
                step: StepId(1),
            }
        );
    }

    #[test]
    fn rejects_step_without_reads() {
        let mut h = Harness::new();
        h.started(1, "A").unwrap();
        assert_eq!(h.finished(1).unwrap_err(), StreamError::NoInputs(StepId(1)));
    }

    #[test]
    fn rejects_spec_violating_edge() {
        // B -> A is not a specification edge (spec is input->A->B->output).
        let mut h = Harness::new();
        h.started(1, "B").unwrap();
        h.read(1, 1).unwrap();
        let err = h.finished(1).unwrap_err();
        assert!(matches!(err, StreamError::SpecMismatch(_)), "{err:?}");
        // The rejection left the step open, not corrupted.
        assert_eq!(h.ing.uncommitted_steps(), 1);
        assert_eq!(h.run.step_count(), 0);
    }

    #[test]
    fn rejects_unwritten_final_and_premature_seal() {
        let mut h = Harness::new();
        assert_eq!(
            h.finalized(9).unwrap_err(),
            StreamError::UnwrittenFinal(DataId(9))
        );
        h.started(1, "A").unwrap();
        h.read(1, 1).unwrap();
        h.wrote(1, 2).unwrap();
        assert_eq!(h.seal().unwrap_err(), StreamError::UnfinishedSteps(1));
        h.finished(1).unwrap();
        assert_eq!(h.seal().unwrap_err(), StreamError::NoFinalOutputs);
        // Data 2 comes from module A, which does not feed Output.
        let err = h.finalized(2).unwrap_err();
        assert!(matches!(err, StreamError::SpecMismatch(_)), "{err:?}");
        h.started(2, "B").unwrap();
        h.read(2, 2).unwrap();
        h.wrote(2, 3).unwrap();
        h.finished(2).unwrap();
        h.finalized(3).unwrap();
        h.seal().unwrap();
        assert_eq!(h.seal().unwrap_err(), StreamError::SealedStream);
        // No events after seal.
        assert_eq!(h.started(3, "B").unwrap_err(), StreamError::SealedStream);
    }

    #[test]
    fn streamed_run_equals_batch_reconstruction() {
        // Stream a from_run log event-by-event; the sealed run must match
        // the batch to_run reconstruction exactly.
        let spec = spec();
        let (a, b) = (spec.module("A").unwrap(), spec.module("B").unwrap());
        let mut rb = zoom_model::RunBuilder::new(&spec);
        rb.user("joe");
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.param(s1, "k", "v")
            .input_edge(s1, [1, 2])
            .data_edge(s1, s2, [3])
            .output_edge(s2, [4]);
        let run = rb.build().unwrap();
        let log = EventLog::from_run(&run, &spec);

        let batch = log.to_run(&spec).unwrap();
        let mut streamed = WorkflowRun::empty_prefix(&spec);
        let mut ing = RunIngestor::new();
        for ev in &log.events {
            let c = ing.accept(&spec, ev).unwrap();
            ing.apply(&spec, &mut streamed, c);
        }
        let sc = ing.seal_check().unwrap();
        ing.apply_seal(&spec, &mut streamed, sc);

        streamed.validate(&spec).unwrap();
        // The slot table grown by appends tiles the streamed edges' data.
        let mut next = 0;
        for e in streamed.graph().edge_ids() {
            let slots = streamed.edge_slots(e);
            assert_eq!(slots.start, next);
            next = slots.end;
        }
        assert_eq!(next, streamed.slot_count());
        assert_eq!(streamed.slot_count(), batch.slot_count());
        assert_eq!(streamed.step_count(), batch.step_count());
        assert_eq!(streamed.all_data(), batch.all_data());
        assert_eq!(streamed.user_inputs(), batch.user_inputs());
        assert_eq!(streamed.final_outputs(), batch.final_outputs());
        for (sid, m) in batch.steps() {
            assert_eq!(streamed.module_of(sid).unwrap(), m);
            assert_eq!(
                streamed.inputs_of(sid).unwrap(),
                batch.inputs_of(sid).unwrap()
            );
            assert_eq!(
                streamed.outputs_of(sid).unwrap(),
                batch.outputs_of(sid).unwrap()
            );
        }
        assert_eq!(streamed.params_of(s1)["k"], "v");
        assert_eq!(
            streamed.user_input_meta(DataId(1)).map(|m| m.user.clone()),
            batch.user_input_meta(DataId(1)).map(|m| m.user.clone())
        );
    }

    /// Events of every kind, leaving the stream with a committed step,
    /// two open steps, two finished steps waiting on one open producer
    /// (the later-numbered one registered first), a final output and a
    /// user input first read by an open step.
    fn mid_stream() -> Harness {
        let mut h = Harness::new();
        let time = h.tick();
        h.push(LogEvent::UserInput {
            data: DataId(1),
            user: "joe".into(),
            time,
        })
        .unwrap();
        h.started(1, "A").unwrap();
        h.read(1, 1).unwrap();
        h.wrote(1, 2).unwrap();
        h.finished(1).unwrap();
        h.started(2, "B").unwrap();
        h.read(2, 2).unwrap();
        h.wrote(2, 3).unwrap();
        h.started(3, "A").unwrap();
        h.read(3, 1).unwrap();
        h.wrote(3, 4).unwrap();
        h.wrote(3, 6).unwrap();
        h.started(6, "B").unwrap();
        h.read(6, 6).unwrap();
        h.wrote(6, 7).unwrap();
        assert_eq!(h.finished(6).unwrap(), PushOutcome::Buffered);
        h.started(4, "B").unwrap();
        h.read(4, 4).unwrap();
        h.wrote(4, 5).unwrap();
        assert_eq!(h.finished(4).unwrap(), PushOutcome::Buffered);
        h.finalized(5).unwrap();
        h.started(5, "A").unwrap();
        h.read(5, 9).unwrap();
        h
    }

    /// `h`'s ingestor and prefix run as a snapshot stores them.
    fn saved(h: &Harness) -> (SavedStream, WorkflowRun) {
        let state = crate::codec::to_bytes(&h.ing).unwrap();
        let run = crate::codec::to_bytes(&h.run).unwrap();
        (
            crate::codec::from_bytes(&state).unwrap(),
            crate::codec::from_bytes(&run).unwrap(),
        )
    }

    /// Resuming a saved stream gives a stream that answers every later
    /// event, valid or not, as the original does, and seals to the same
    /// bytes.
    #[test]
    fn a_resumed_stream_continues_as_the_original() {
        let mut live = mid_stream();
        let (state, run) = saved(&live);
        let ing = RunIngestor::resume(state, &live.spec, &run).unwrap();
        let mut resumed = Harness {
            spec: spec(),
            run,
            ing,
            t: live.t,
        };
        let t = Timestamp(live.t);
        let script = [
            // Invalid: each error names bookkeeping the prefix lacks.
            LogEvent::Wrote {
                step: StepId(3),
                data: DataId(9),
                time: t,
            },
            LogEvent::Read {
                step: StepId(3),
                data: DataId(1),
                time: Timestamp(0),
            },
            LogEvent::StepStarted {
                step: StepId(1),
                module: "A".into(),
                time: t,
            },
            LogEvent::Read {
                step: StepId(1),
                data: DataId(1),
                time: t,
            },
            LogEvent::StepFinished {
                step: StepId(4),
                time: t,
            },
            // Valid: step 3 commits, and steps 6 and 4 with it, in that order.
            LogEvent::StepFinished {
                step: StepId(3),
                time: t,
            },
            LogEvent::Wrote {
                step: StepId(5),
                data: DataId(6),
                time: t,
            },
            LogEvent::StepFinished {
                step: StepId(5),
                time: t,
            },
            LogEvent::StepFinished {
                step: StepId(2),
                time: t,
            },
            LogEvent::Finalized {
                data: DataId(3),
                time: t,
            },
        ];
        for ev in &script {
            let want = live.push(ev.clone()).map_err(|e| e.to_string());
            assert_eq!(resumed.push(ev.clone()).map_err(|e| e.to_string()), want);
        }
        live.seal().unwrap();
        resumed.seal().unwrap();
        let bytes = |h: &Harness| crate::codec::to_bytes(&h.run).unwrap();
        assert_eq!(bytes(&resumed), bytes(&live));
    }

    /// A change to a saved stream's bookkeeping.
    type Doctoring = fn(&mut SavedStream);

    /// Doctored bookkeeping is refused with a typed error, never a panic.
    #[test]
    fn doctored_stream_states_are_refused() {
        let h = mid_stream();
        let doctor = |f: Doctoring| {
            let (mut state, run) = saved(&h);
            f(&mut state);
            match RunIngestor::resume(state, &h.spec, &run) {
                Err(StreamError::BadState(what)) => what,
                other => panic!("resumed a doctored state: {other:?}"),
            }
        };
        let cases: [(Doctoring, &str); 9] = [
            (|s| s.writers.swap(0, 1), "a table is not in key order"),
            (
                |s| s.writers.retain(|e| e.0 != DataId(2)),
                "a pending step read a datum nobody wrote",
            ),
            (
                |s| s.user_reads.retain(|e| e.0 != DataId(1)),
                "the run's data disagree with the writers",
            ),
            (
                |s| s.writers.push((DataId(50), StepId(99))),
                "a writer was never started",
            ),
            (
                |s| s.dependents.clear(),
                "the dependents disagree with the finished steps",
            ),
            (
                |s| s.dependents[0].1.push(StepId(4)),
                "the dependents disagree with the finished steps",
            ),
            (
                |s| s.finals.push(DataId(77)),
                "a final output is unwritten, repeated or not an output",
            ),
            (
                |s| {
                    let step = s.open[0].1.clone();
                    s.open.insert(0, (StepId(1), step));
                },
                "a step is started twice",
            ),
            (
                |s| s.finished[0].1.module = zoom_graph::NodeId::from_index(0),
                "a pending step executes no module",
            ),
        ];
        for (f, want) in cases {
            assert_eq!(doctor(f), want);
        }
        // A sealed run has no live stream to resume.
        let (state, _) = saved(&h);
        let mut done = Harness::new();
        done.started(1, "A").unwrap();
        done.read(1, 1).unwrap();
        done.wrote(1, 2).unwrap();
        done.finished(1).unwrap();
        done.started(2, "B").unwrap();
        done.read(2, 2).unwrap();
        done.wrote(2, 3).unwrap();
        done.finished(2).unwrap();
        done.finalized(3).unwrap();
        done.seal().unwrap();
        assert_eq!(
            RunIngestor::resume(state, &h.spec, &done.run).unwrap_err(),
            StreamError::BadState("its run is sealed")
        );
    }
}
