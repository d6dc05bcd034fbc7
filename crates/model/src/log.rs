//! Event logs (Section II): the raw material of provenance.
//!
//! "We assume that each workflow run generates a log of events, which tells
//! what module a step is an instance of, what data objects and parameters
//! were input to that step, and what data objects were output from that
//! step." ZOOM is workflow-system-agnostic: anything that can produce this
//! log can be loaded into the provenance warehouse. This module defines the
//! log format, synthesizes logs from runs (our simulated executions), and —
//! the direction real deployments use — reconstructs runs from logs.

use crate::error::{ModelError, Result};
use crate::ids::{DataId, StepId, Timestamp};
use crate::run::{RunBuilder, WorkflowRun};
use crate::spec::WorkflowSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use zoom_graph::fxhash::FxHashMap;
use zoom_graph::radix_sort_by_key;

/// One event in a workflow-system log.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogEvent {
    /// The user provided a data object (recorded with who/when — this *is*
    /// the provenance of user-input data).
    UserInput {
        /// The provided object.
        data: DataId,
        /// Who provided it.
        user: String,
        /// When.
        time: Timestamp,
    },
    /// A parameter was passed to a step.
    Param {
        /// The receiving step.
        step: StepId,
        /// Parameter name.
        key: String,
        /// Parameter value.
        value: String,
        /// When.
        time: Timestamp,
    },
    /// A step began, as an instance of the named module.
    StepStarted {
        /// The step.
        step: StepId,
        /// Label of the module it instantiates.
        module: String,
        /// Start time.
        time: Timestamp,
    },
    /// A step read a data object.
    Read {
        /// The reading step.
        step: StepId,
        /// The object read.
        data: DataId,
        /// When.
        time: Timestamp,
    },
    /// A step wrote a data object.
    Wrote {
        /// The writing step.
        step: StepId,
        /// The object written.
        data: DataId,
        /// When.
        time: Timestamp,
    },
    /// A step finished.
    StepFinished {
        /// The step.
        step: StepId,
        /// When.
        time: Timestamp,
    },
    /// A data object was designated a final output of the run.
    Finalized {
        /// The object.
        data: DataId,
        /// When.
        time: Timestamp,
    },
}

impl LogEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Timestamp {
        match self {
            LogEvent::UserInput { time, .. }
            | LogEvent::Param { time, .. }
            | LogEvent::StepStarted { time, .. }
            | LogEvent::Read { time, .. }
            | LogEvent::Wrote { time, .. }
            | LogEvent::StepFinished { time, .. }
            | LogEvent::Finalized { time, .. } => *time,
        }
    }
}

/// A log of one workflow run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventLog {
    /// Name of the executed specification.
    pub spec_name: String,
    /// Events in time order.
    pub events: Vec<LogEvent>,
}

impl EventLog {
    /// Synthesizes the event log a workflow system would have produced for
    /// `run`: user inputs first, then — in a topological order of the run —
    /// one `StepStarted`, the step's `Read`s, its `Wrote`s, and a
    /// `StepFinished` per step, and finally `Finalized` events for the run's
    /// final outputs. Timestamps are a logical clock.
    pub fn from_run(run: &WorkflowRun, spec: &WorkflowSpec) -> Self {
        let mut events = Vec::new();
        let mut clock = Timestamp(0);
        let mut tick = || {
            clock = clock.tick();
            clock
        };

        for d in run.user_inputs() {
            let meta = run
                .user_input_meta(d)
                .expect("user inputs always carry metadata");
            events.push(LogEvent::UserInput {
                data: d,
                user: meta.user.to_string(),
                time: tick(),
            });
        }

        let order = zoom_graph::algo::topo::topological_sort(run.graph())
            .expect("validated runs are acyclic");
        for node in order {
            let Some((sid, module)) = run.step_at(node) else {
                continue;
            };
            events.push(LogEvent::StepStarted {
                step: sid,
                module: spec.label(module).to_string(),
                time: tick(),
            });
            for (key, value) in run.params_of(sid) {
                events.push(LogEvent::Param {
                    step: sid,
                    key: key.clone(),
                    value: value.clone(),
                    time: tick(),
                });
            }
            for d in run.inputs_of(sid).expect("step exists") {
                events.push(LogEvent::Read {
                    step: sid,
                    data: d,
                    time: tick(),
                });
            }
            for d in run.outputs_of(sid).expect("step exists") {
                events.push(LogEvent::Wrote {
                    step: sid,
                    data: d,
                    time: tick(),
                });
            }
            events.push(LogEvent::StepFinished {
                step: sid,
                time: tick(),
            });
        }

        for d in run.final_outputs() {
            events.push(LogEvent::Finalized {
                data: d,
                time: tick(),
            });
        }

        EventLog {
            spec_name: spec.name().to_string(),
            events,
        }
    }

    /// Reconstructs the run from this log: the step that wrote an object is
    /// its producer; an edge `A -> B` carries every object written by `A`
    /// and read by `B`; objects read but never written are user inputs;
    /// `Finalized` objects flow to the run's output node.
    pub fn to_run(&self, spec: &WorkflowSpec) -> Result<WorkflowRun> {
        self.reconstruct(spec, false)
    }

    /// Reconstructs a streaming *prefix* run from this log: like
    /// [`EventLog::to_run`], but `Finalized` events are ignored (the stream
    /// has not sealed yet) and the resulting run satisfies only the prefix
    /// invariants ([`RunBuilder::build_prefix`]). This is the batch oracle
    /// the differential streaming tests compare against.
    pub fn to_run_prefix(&self, spec: &WorkflowSpec) -> Result<WorkflowRun> {
        self.reconstruct(spec, true)
    }

    fn reconstruct(&self, spec: &WorkflowSpec, prefix: bool) -> Result<WorkflowRun> {
        if spec.name() != self.spec_name {
            return Err(ModelError::SpecMismatch(format!(
                "log is for spec `{}`, got `{}`",
                self.spec_name,
                spec.name()
            )));
        }

        let mut rb = RunBuilder::new(spec);
        let mut writer: FxHashMap<DataId, StepId> = FxHashMap::default();
        // Every read as (reading step, datum), in log order.
        let mut reads: Vec<(StepId, DataId)> = Vec::new();
        // User names are shared: consecutive inputs of one user hold one
        // name, as a decoded run's do.
        let mut user_meta: FxHashMap<DataId, (Arc<str>, Timestamp)> = FxHashMap::default();
        let mut last_user: Option<Arc<str>> = None;
        let mut finals: Vec<DataId> = Vec::new();
        // Applied after the scan so Param events may precede StepStarted in
        // foreign logs.
        let mut params: Vec<(StepId, String, String)> = Vec::new();

        for ev in &self.events {
            match ev {
                LogEvent::StepStarted { step, module, .. } => {
                    let m = spec
                        .node_by_label(module)
                        .filter(|&n| spec.is_module(n))
                        .ok_or_else(|| {
                            ModelError::BadLog(format!("unknown module `{module}` in log"))
                        })?;
                    rb.step_with_id(*step, m);
                }
                LogEvent::Read { step, data, .. } => {
                    reads.push((*step, *data));
                }
                LogEvent::Wrote { step, data, .. } => {
                    if let Some(prev) = writer.insert(*data, *step) {
                        if prev != *step {
                            return Err(ModelError::DataProducedTwice {
                                data: data.0,
                                first: prev.0,
                                second: step.0,
                            });
                        }
                    }
                }
                LogEvent::UserInput { data, user, time } => {
                    let name = match &last_user {
                        Some(last) if **last == **user => last.clone(),
                        _ => last_user.insert(Arc::from(user.as_str())).clone(),
                    };
                    user_meta.insert(*data, (name, *time));
                }
                LogEvent::Param {
                    step, key, value, ..
                } => {
                    params.push((*step, key.clone(), value.clone()));
                }
                LogEvent::Finalized { data, .. } => {
                    if !prefix {
                        finals.push(*data);
                    }
                }
                LogEvent::StepFinished { .. } => {}
            }
        }

        for (step, key, value) in params {
            rb.param(step, key, value);
        }

        // One edge per (producer, consumer): `None` is the input node as a
        // producer and the output node as a consumer. Reads are taken a
        // consumer at a time, grouped by producer in one scratch buffer,
        // and every edge's data go to one flat array.
        radix_sort_by_key(&mut reads, |&(step, _)| u64::from(step.0));
        let mut edges: Vec<LogEdge> = Vec::new();
        let mut data: Vec<u64> = Vec::new();
        let mut refs: Vec<(Option<StepId>, u64)> = Vec::new();
        for chunk in reads.chunk_by(|a, b| a.0 == b.0) {
            refs.extend(chunk.iter().map(|&(_, d)| (writer.get(&d).copied(), d.0)));
            group_by_producer(&mut refs, Some(chunk[0].0), &mut edges, &mut data);
        }
        for d in finals {
            let p = writer.get(&d).copied().ok_or_else(|| {
                ModelError::BadLog(format!("finalized object {d} was never written"))
            })?;
            refs.push((Some(p), d.0));
        }
        group_by_producer(&mut refs, None, &mut edges, &mut data);
        // Edges in order of the smallest datum they carry, then by
        // consumer with the output last: producers come in production
        // order, so the run's slots follow data ids as a generated run's
        // do, and its projections need no sort.
        edges.sort_unstable_by_key(|e| (e.first, e.consumer.is_none(), e.consumer));
        for e in edges {
            let ds = data[e.data].iter().copied();
            match (e.producer, e.consumer) {
                (Some(p), None) => {
                    rb.output_edge(p, ds);
                }
                (Some(p), Some(step)) => {
                    rb.data_edge(p, step, ds);
                }
                (None, Some(step)) => {
                    // Read but never written: user input. Restore the
                    // recorded who/when — the streaming ingestor keeps
                    // the log's own metadata, and batch reconstruction
                    // must agree with it exactly.
                    rb.input_edge(step, ds.clone());
                    for d in ds {
                        if let Some((user, time)) = user_meta.get(&DataId(d)) {
                            rb.input_meta(d, user.clone(), *time);
                        }
                    }
                }
                (None, None) => unreachable!("final outputs always have a producer"),
            }
        }

        if prefix {
            rb.build_prefix()
        } else {
            rb.build()
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One run edge rebuilt from a log: its producer and consumer (`None`
/// for the input and output nodes), its data's range of the flat data
/// array, and its smallest datum.
struct LogEdge {
    first: u64,
    producer: Option<StepId>,
    consumer: Option<StepId>,
    data: std::ops::Range<usize>,
}

/// Appends one edge to `consumer` per producer in `refs` ((producer,
/// datum) pairs), its data to `data`, and empties `refs`.
fn group_by_producer(
    refs: &mut Vec<(Option<StepId>, u64)>,
    consumer: Option<StepId>,
    edges: &mut Vec<LogEdge>,
    data: &mut Vec<u64>,
) {
    refs.sort_unstable();
    for group in refs.chunk_by(|a, b| a.0 == b.0) {
        let start = data.len();
        data.extend(group.iter().map(|&(_, d)| d));
        edges.push(LogEdge {
            first: group[0].1,
            producer: group[0].0,
            consumer,
            data: start..data.len(),
        });
    }
    refs.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Producer;
    use crate::spec::SpecBuilder;

    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("s");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    fn run(spec: &WorkflowSpec) -> WorkflowRun {
        let (a, b) = (spec.module("A").unwrap(), spec.module("B").unwrap());
        let mut rb = RunBuilder::new(spec);
        rb.user("joe");
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.param(s1, "threshold", "0.05")
            .input_edge(s1, [1, 2])
            .data_edge(s1, s2, [3, 4])
            .output_edge(s2, [5]);
        rb.build().unwrap()
    }

    #[test]
    fn inputs_of_one_user_share_one_name() {
        let s = spec();
        let log = EventLog::from_run(&run(&s), &s);
        let rebuilt = log.to_run(&s).unwrap();
        let meta = |d| rebuilt.user_input_meta(DataId(d)).unwrap();
        assert_eq!(&*meta(1).user, "joe");
        assert!(Arc::ptr_eq(&meta(1).user, &meta(2).user));
    }

    #[test]
    fn log_contains_expected_events() {
        let s = spec();
        let r = run(&s);
        let log = EventLog::from_run(&r, &s);
        assert_eq!(log.spec_name, "s");
        assert!(!log.is_empty());
        // 2 user inputs + (start [+ params] + reads + writes + finish) per
        // step + 1 final. S1: start + 1 param + 2 reads + 2 writes + finish
        // = 7; S2: start + 2 reads + 1 write + finish = 5.
        assert_eq!(log.len(), 2 + 7 + 5 + 1);
        // Times strictly increase.
        for w in log.events.windows(2) {
            assert!(w[0].time() < w[1].time());
        }
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e, LogEvent::UserInput { user, .. } if user == "joe")));
        assert!(log.events.iter().any(|e| matches!(
            e,
            LogEvent::Finalized {
                data: DataId(5),
                ..
            }
        )));
    }

    #[test]
    fn roundtrip_run_log_run() {
        let s = spec();
        let r = run(&s);
        let log = EventLog::from_run(&r, &s);
        let r2 = log.to_run(&s).unwrap();
        assert_eq!(r2.step_count(), r.step_count());
        assert_eq!(r2.all_data(), r.all_data());
        assert_eq!(r2.user_inputs(), r.user_inputs());
        assert_eq!(r2.final_outputs(), r.final_outputs());
        for (sid, m) in r.steps() {
            assert_eq!(r2.module_of(sid).unwrap(), m);
            assert_eq!(r2.inputs_of(sid).unwrap(), r.inputs_of(sid).unwrap());
            assert_eq!(r2.outputs_of(sid).unwrap(), r.outputs_of(sid).unwrap());
        }
        assert_eq!(r2.producer_of(DataId(3)), Some(Producer::Step(StepId(1))));
        assert_eq!(r2.user_input_meta(DataId(1)).map(|m| &*m.user), Some("joe"));
        // Parameters survive the roundtrip.
        assert_eq!(r2.params_of(StepId(1))["threshold"], "0.05");
    }

    #[test]
    fn spec_name_mismatch_rejected() {
        let s = spec();
        let r = run(&s);
        let log = EventLog::from_run(&r, &s);
        let mut other = SpecBuilder::new("other");
        other.analysis("A");
        other.from_input("A").to_output("A");
        let other = other.build().unwrap();
        assert!(matches!(
            log.to_run(&other).unwrap_err(),
            ModelError::SpecMismatch(_)
        ));
    }

    #[test]
    fn unknown_module_in_log_rejected() {
        let s = spec();
        let log = EventLog {
            spec_name: "s".into(),
            events: vec![LogEvent::StepStarted {
                step: StepId(1),
                module: "ZZZ".into(),
                time: Timestamp(1),
            }],
        };
        assert!(matches!(log.to_run(&s).unwrap_err(), ModelError::BadLog(_)));
    }

    #[test]
    fn finalized_unwritten_rejected() {
        let s = spec();
        let log = EventLog {
            spec_name: "s".into(),
            events: vec![LogEvent::Finalized {
                data: DataId(9),
                time: Timestamp(1),
            }],
        };
        assert!(matches!(log.to_run(&s).unwrap_err(), ModelError::BadLog(_)));
    }

    #[test]
    fn double_write_rejected() {
        let s = spec();
        let log = EventLog {
            spec_name: "s".into(),
            events: vec![
                LogEvent::StepStarted {
                    step: StepId(1),
                    module: "A".into(),
                    time: Timestamp(1),
                },
                LogEvent::StepStarted {
                    step: StepId(2),
                    module: "B".into(),
                    time: Timestamp(2),
                },
                LogEvent::Wrote {
                    step: StepId(1),
                    data: DataId(7),
                    time: Timestamp(3),
                },
                LogEvent::Wrote {
                    step: StepId(2),
                    data: DataId(7),
                    time: Timestamp(4),
                },
            ],
        };
        assert!(matches!(
            log.to_run(&s).unwrap_err(),
            ModelError::DataProducedTwice { data: 7, .. }
        ));
    }
}
