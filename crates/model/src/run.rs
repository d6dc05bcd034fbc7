//! Workflow runs (Section II): executions of a specification.
//!
//! A run is a DAG whose nodes are *steps* labeled with unique step ids and
//! the modules they execute (module labels repeat when loops are unrolled),
//! plus distinguished input/output nodes. Edges carry the ids of the data
//! objects output by the source step and input to the target step. Every
//! node lies on some path from input to output, and — because data is never
//! overwritten — every data object is produced by at most one node.

use crate::error::{ModelError, Result};
use crate::ids::{DataId, StepId, Timestamp};
use crate::spec::WorkflowSpec;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use zoom_graph::algo::paths::all_nodes_on_paths;
use zoom_graph::algo::topo::is_acyclic;
use zoom_graph::fxhash::FxHashMap;
use zoom_graph::{radix_sort_by_key, BitSet, Digraph, EdgeId, NodeId};

/// Metadata recorded when a data object is input by the user rather than
/// produced by a step: "who input the data and the time at which the input
/// occurred" (Section II).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserInputMeta {
    /// Who provided the data.
    pub user: String,
    /// When it was provided.
    pub time: Timestamp,
}

/// A node of a run graph.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunNode {
    /// Beginning of the execution.
    Input,
    /// End of the execution.
    Output,
    /// One execution of a module.
    Step {
        /// Unique step id (`S1`, `S2`, …).
        id: StepId,
        /// The module (a node of the specification) this step executes.
        module: NodeId,
    },
}

/// Who produced a data object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Producer {
    /// Produced by a step of the run.
    Step(StepId),
    /// Input by the user (provenance is the recorded metadata).
    UserInput,
}

/// One committed step of a streaming ingestion, ready to be appended to a
/// prefix run: the step's identity plus its inputs grouped by producer
/// (`None` = user input) — exactly the grouping [`crate::EventLog::to_run`]
/// derives for batch logs, so a streamed prefix and a batch-loaded prefix
/// are structurally identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepAppend {
    /// The step id.
    pub id: StepId,
    /// The module (a specification node) the step executes.
    pub module: NodeId,
    /// Inputs grouped by producing step (`None` = user input).
    pub inputs: Vec<(Option<StepId>, Vec<DataId>)>,
    /// Parameters recorded for the step.
    pub params: BTreeMap<String, String>,
    /// Metadata for user-input data first read by this step.
    pub user_meta: Vec<(DataId, UserInputMeta)>,
}

/// A validated workflow run.
#[derive(Clone, Debug)]
pub struct WorkflowRun {
    spec_name: String,
    graph: Digraph<RunNode, Vec<DataId>>,
    node_of_step: FxHashMap<StepId, NodeId>,
    /// For every data object: the run-graph node that produced it (the input
    /// node for user-provided data).
    producer: FxHashMap<DataId, NodeId>,
    user_input_meta: FxHashMap<DataId, UserInputMeta>,
    /// Parameters passed to each step ("what data objects and parameters
    /// were input to that step", Section II). Sparse: steps without
    /// parameters have no entry.
    params: FxHashMap<StepId, BTreeMap<String, String>>,
    /// Edge-data slot offsets: the data of edge `e` occupy slots
    /// `edge_slot[e]..edge_slot[e + 1]`, one per (edge, datum) reference.
    /// Derived from `graph`: never serialized, rebuilt on decode, and only
    /// ever appended to, since run edges are immutable once added.
    edge_slot: Vec<u32>,
    /// One bit per edge-data slot, set when the slot is its datum's first
    /// (see [`WorkflowRun::is_canonical_slot`]). Derived like `edge_slot`.
    canonical: BitSet,
}

/// The serialized fields of a [`WorkflowRun`], in encoding order: all but
/// the derived slot table.
#[derive(Deserialize)]
struct RunFields {
    spec_name: String,
    graph: Digraph<RunNode, Vec<DataId>>,
    node_of_step: FxHashMap<StepId, NodeId>,
    producer: FxHashMap<DataId, NodeId>,
    user_input_meta: FxHashMap<DataId, UserInputMeta>,
    params: FxHashMap<StepId, BTreeMap<String, String>>,
}

impl Serialize for WorkflowRun {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("WorkflowRun", 6)?;
        st.serialize_field("spec_name", &self.spec_name)?;
        st.serialize_field("graph", &self.graph)?;
        st.serialize_field("node_of_step", &KeyOrder(&self.node_of_step))?;
        st.serialize_field("producer", &KeyOrder(&self.producer))?;
        st.serialize_field("user_input_meta", &KeyOrder(&self.user_input_meta))?;
        st.serialize_field("params", &KeyOrder(&self.params))?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for WorkflowRun {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let f = RunFields::deserialize(deserializer)?;
        let edge_slot = slot_table(&f.graph);
        Ok(WorkflowRun {
            canonical: canonical_table(&f.graph, &edge_slot),
            edge_slot,
            spec_name: f.spec_name,
            graph: f.graph,
            node_of_step: f.node_of_step,
            producer: f.producer,
            user_input_meta: f.user_input_meta,
            params: f.params,
        })
    }
}

/// A hash map encoded in key order, in the map layout it would have
/// anyway: equal runs encode to equal bytes, whatever the hasher, and
/// decoding is unchanged.
struct KeyOrder<'a, K, V>(&'a FxHashMap<K, V>);

/// An integer map key, ordered as its [`RadixKey::radix`] value.
trait RadixKey: Copy {
    fn radix(self) -> u64;
}

impl RadixKey for StepId {
    fn radix(self) -> u64 {
        u64::from(self.0)
    }
}

impl RadixKey for DataId {
    fn radix(self) -> u64 {
        self.0
    }
}

impl<K: RadixKey + Serialize, V: Serialize> Serialize for KeyOrder<'_, K, V> {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeMap;
        // Keys copied inline: the sort never reads the table.
        let mut entries: Vec<(K, &V)> = self.0.iter().map(|(&k, v)| (k, v)).collect();
        radix_sort_by_key(&mut entries, |&(k, _)| k.radix());
        let mut map = serializer.serialize_map(Some(entries.len()))?;
        for (k, v) in entries {
            map.serialize_entry(&k, v)?;
        }
        map.end()
    }
}

/// The edge-data slot offsets of `graph` (see [`WorkflowRun::edge_slots`]).
fn slot_table(graph: &Digraph<RunNode, Vec<DataId>>) -> Vec<u32> {
    let mut table = Vec::with_capacity(graph.edge_count() + 1);
    table.push(0);
    for (_, _, _, data) in graph.edges() {
        push_slots(&mut table, data.len());
    }
    table
}

/// Appends the end offset of a new edge carrying `len` data.
fn push_slots(table: &mut Vec<u32>, len: usize) {
    let end = *table.last().expect("the table starts at 0") as usize + len;
    table.push(u32::try_from(end).expect("fewer than 2^32 data references per run"));
}

/// The canonical slots of `graph` (see [`WorkflowRun::is_canonical_slot`])
/// given its slot table. Every slot starts canonical; only a node with two
/// or more out-edges can repeat a datum, and only when the id spans of its
/// out-edges overlap, so just those nodes have their slots sorted by datum
/// to find the repeats. No slot is hashed.
fn canonical_table(graph: &Digraph<RunNode, Vec<DataId>>, edge_slot: &[u32]) -> BitSet {
    let mut canonical = BitSet::full(*edge_slot.last().expect("the table starts at 0") as usize);
    let mut spans: Vec<(DataId, DataId)> = Vec::new();
    let mut refs: Vec<(DataId, u32)> = Vec::new();
    for n in graph.node_ids() {
        if graph.out_degree(n) < 2 {
            continue;
        }
        spans.clear();
        spans.extend(graph.out_edges(n).filter_map(|e| {
            let data = graph.edge(e);
            Some((*data.first()?, *data.last()?))
        }));
        spans.sort_unstable();
        if spans.windows(2).all(|w| w[0].1 < w[1].0) {
            continue;
        }
        refs.clear();
        for e in graph.out_edges(n) {
            let start = edge_slot[e.index()];
            refs.extend(
                graph
                    .edge(e)
                    .iter()
                    .zip(start..)
                    .map(|(&d, slot)| (d, slot)),
            );
        }
        refs.sort_unstable();
        for w in refs.windows(2) {
            if w[0].0 == w[1].0 {
                canonical.remove(w[1].1 as usize);
            }
        }
    }
    canonical
}

impl WorkflowRun {
    /// The name of the specification this run executes.
    pub fn spec_name(&self) -> &str {
        &self.spec_name
    }

    /// The underlying run graph. Edge weights are the (sorted) data ids
    /// passed along the edge.
    pub fn graph(&self) -> &Digraph<RunNode, Vec<DataId>> {
        &self.graph
    }

    /// The run's input node (always node 0).
    pub fn input(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// The run's output node (always node 1).
    pub fn output(&self) -> NodeId {
        NodeId::from_index(1)
    }

    /// Number of steps (excluding input/output).
    pub fn step_count(&self) -> usize {
        self.graph.node_count() - 2
    }

    /// Iterates over `(step id, module)` in node order.
    pub fn steps(&self) -> impl Iterator<Item = (StepId, NodeId)> + '_ {
        self.graph.nodes().filter_map(|(_, n)| match n {
            RunNode::Step { id, module } => Some((*id, *module)),
            _ => None,
        })
    }

    /// The run-graph node of a step.
    pub fn node_of_step(&self, s: StepId) -> Result<NodeId> {
        self.node_of_step
            .get(&s)
            .copied()
            .ok_or(ModelError::UnknownStep(s.0))
    }

    /// The step at a run-graph node, if it is one.
    pub fn step_at(&self, n: NodeId) -> Option<(StepId, NodeId)> {
        match self.graph.node(n) {
            RunNode::Step { id, module } => Some((*id, *module)),
            _ => None,
        }
    }

    /// The module a step executes.
    pub fn module_of(&self, s: StepId) -> Result<NodeId> {
        let n = self.node_of_step(s)?;
        match self.graph.node(n) {
            RunNode::Step { module, .. } => Ok(*module),
            _ => unreachable!("node_of_step always returns a step node"),
        }
    }

    /// Who produced `d`, or `None` if `d` does not occur in this run.
    pub fn producer_of(&self, d: DataId) -> Option<Producer> {
        let &n = self.producer.get(&d)?;
        Some(match self.graph.node(n) {
            RunNode::Input => Producer::UserInput,
            RunNode::Step { id, .. } => Producer::Step(*id),
            RunNode::Output => unreachable!("output node never produces data"),
        })
    }

    /// The run-graph node that produced `d`.
    pub fn producer_node(&self, d: DataId) -> Option<NodeId> {
        self.producer.get(&d).copied()
    }

    /// The edge-data slots of edge `e`: position `j` of `graph().edge(e)`
    /// is slot `edge_slots(e).start + j`. Slots number every (edge, datum)
    /// reference of the run densely, whatever the data ids, so per-view
    /// data properties fit one bit per reference.
    #[inline]
    pub fn edge_slots(&self, e: EdgeId) -> std::ops::Range<usize> {
        self.edge_slot[e.index()] as usize..self.edge_slot[e.index() + 1] as usize
    }

    /// The number of edge-data slots (data references) in the run.
    pub fn slot_count(&self) -> usize {
        *self.edge_slot.last().expect("the table starts at 0") as usize
    }

    /// The producer of `d` and `d`'s canonical slot. Every edge carrying
    /// `d` leaves its producer, so the slot is found among the producer's
    /// out-edges.
    pub fn producer_slot(&self, d: DataId) -> Option<(NodeId, usize)> {
        let p = self.producer_node(d)?;
        Some((p, self.canonical_slot(p, d)?))
    }

    /// The canonical slot of `d` among the out-edges of `p`, its producer:
    /// `d`'s position on the first of them that carries it.
    pub fn canonical_slot(&self, p: NodeId, d: DataId) -> Option<usize> {
        self.graph.out_edges(p).find_map(|e| {
            let j = self.graph.edge(e).binary_search(&d).ok()?;
            Some(self.edge_slots(e).start + j)
        })
    }

    /// Whether `slot` is canonical: the first slot of its datum, which is
    /// the datum's position on its producer's first out-edge carrying it.
    /// Every datum has exactly one canonical slot, and which slot it is
    /// does not depend on any view, so one bit per slot serves every
    /// view's projection.
    #[inline]
    pub fn is_canonical_slot(&self, slot: usize) -> bool {
        self.canonical.contains(slot)
    }

    /// The canonical slots, one bit per slot of the run.
    pub fn canonical_slots(&self) -> &BitSet {
        &self.canonical
    }

    /// The edge holding slot `slot` (below [`Self::slot_count`]), found by
    /// galloping forward from edge `from`, which must not lie past it. The
    /// search costs `O(log distance)`, so a walk over slots in ascending
    /// order pays `O(1)` per edge when the edges it visits are close.
    #[inline]
    pub fn edge_of_slot(&self, slot: usize, from: EdgeId) -> EdgeId {
        // ends[i] is the end of edge `from + i`.
        let ends = &self.edge_slot[from.index() + 1..];
        let mut hi = 1;
        while hi < ends.len() && ends[hi - 1] as usize <= slot {
            hi *= 2;
        }
        let lo = hi / 2;
        let i = lo + ends[lo..hi.min(ends.len())].partition_point(|&s| s as usize <= slot);
        EdgeId::from_index(from.index() + i)
    }

    /// User-input metadata for `d`, if `d` was input by the user.
    pub fn user_input_meta(&self, d: DataId) -> Option<&UserInputMeta> {
        self.user_input_meta.get(&d)
    }

    /// All data ids occurring in the run, sorted.
    pub fn all_data(&self) -> Vec<DataId> {
        let mut v: Vec<DataId> = self.producer.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of distinct data objects in the run.
    pub fn data_count(&self) -> usize {
        self.producer.len()
    }

    /// The set of data input by the user, sorted.
    pub fn user_inputs(&self) -> Vec<DataId> {
        let mut v: Vec<DataId> = self
            .graph
            .out_edges(self.input())
            .flat_map(|e| self.graph.edge(e).iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The final outputs of the run (data on edges into the output node),
    /// sorted.
    pub fn final_outputs(&self) -> Vec<DataId> {
        let mut v: Vec<DataId> = self
            .graph
            .in_edges(self.output())
            .flat_map(|e| self.graph.edge(e).iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The data objects input to a step: the union of the data on its
    /// incoming edges, sorted.
    pub fn inputs_of(&self, s: StepId) -> Result<Vec<DataId>> {
        let n = self.node_of_step(s)?;
        let mut v: Vec<DataId> = self
            .graph
            .in_edges(n)
            .flat_map(|e| self.graph.edge(e).iter().copied())
            .collect();
        v.sort();
        v.dedup();
        Ok(v)
    }

    /// The data objects output by a step: the union of the data on its
    /// outgoing edges, sorted.
    pub fn outputs_of(&self, s: StepId) -> Result<Vec<DataId>> {
        let n = self.node_of_step(s)?;
        let mut v: Vec<DataId> = self
            .graph
            .out_edges(n)
            .flat_map(|e| self.graph.edge(e).iter().copied())
            .collect();
        v.sort();
        v.dedup();
        Ok(v)
    }

    /// Whether this run is a streaming *prefix*: no data has reached the
    /// output node yet. Complete runs always have final outputs, so an
    /// untouched output node is the structural signature of a run still
    /// being ingested (see [`WorkflowRun::empty_prefix`]).
    pub fn is_prefix(&self) -> bool {
        self.graph.in_edges(self.output()).next().is_none()
    }

    /// An empty streaming prefix of `spec`: input and output nodes only.
    /// Steps arrive through [`WorkflowRun::append_step`] and the run is
    /// completed by [`WorkflowRun::add_final_outputs`].
    pub fn empty_prefix(spec: &WorkflowSpec) -> Self {
        let mut graph = Digraph::new();
        graph.add_node(RunNode::Input);
        graph.add_node(RunNode::Output);
        WorkflowRun {
            spec_name: spec.name().to_string(),
            graph,
            node_of_step: FxHashMap::default(),
            producer: FxHashMap::default(),
            user_input_meta: FxHashMap::default(),
            params: FxHashMap::default(),
            edge_slot: vec![0],
            canonical: BitSet::new(0),
        }
    }

    /// Appends one committed step to a prefix run, in place.
    ///
    /// The step's node is added *after* every existing node and only edges
    /// *into* it are created, so incremental reachability indexes can
    /// extend rather than rebuild ([`append_node`]'s pure-extension
    /// contract: every endpoint of a new edge precedes the new node).
    /// Every referenced producer must already be present — streaming
    /// ingestion guarantees this by committing a step only after all of
    /// its producers.
    ///
    /// [`append_node`]: https://en.wikipedia.org/wiki/Reachability
    pub fn append_step(&mut self, spec: &WorkflowSpec, step: &StepAppend) -> Result<()> {
        if self.node_of_step.contains_key(&step.id) {
            return Err(ModelError::DuplicateStep(step.id.0));
        }
        if !spec.is_module(step.module) {
            return Err(ModelError::SpecMismatch(format!(
                "step {} executes a non-module node",
                step.id
            )));
        }
        // Validate every group before mutating anything, so a rejected
        // append leaves the prefix untouched.
        for (producer, data) in &step.inputs {
            if data.is_empty() {
                return Err(ModelError::EmptyDataEdge {
                    from: format!("{producer:?}"),
                    to: format!("{}", step.id),
                });
            }
            let (src, spec_src) = match producer {
                None => (self.input(), spec.input()),
                Some(p) => {
                    let n = self.node_of_step(*p)?;
                    match self.graph.node(n) {
                        RunNode::Step { module, .. } => (n, *module),
                        _ => unreachable!("node_of_step always returns a step node"),
                    }
                }
            };
            if !spec.graph().has_edge(spec_src, step.module) {
                return Err(ModelError::SpecMismatch(format!(
                    "run edge {} -> {} has no specification edge",
                    self.graph.node(src),
                    step.id
                )));
            }
            for &d in data {
                if let Some(&prev) = self.producer.get(&d) {
                    if prev != src {
                        let step_of = |n: NodeId| match self.graph.node(n) {
                            RunNode::Step { id, .. } => id.0,
                            _ => 0,
                        };
                        return Err(ModelError::DataProducedTwice {
                            data: d.0,
                            first: step_of(prev),
                            second: step_of(src),
                        });
                    }
                }
            }
        }
        let node = self.graph.add_node(RunNode::Step {
            id: step.id,
            module: step.module,
        });
        self.node_of_step.insert(step.id, node);
        for (producer, data) in &step.inputs {
            let src = match producer {
                None => self.input(),
                Some(p) => self.node_of_step[p],
            };
            let mut ds = data.clone();
            ds.sort();
            ds.dedup();
            self.push_edge(src, node, ds);
        }
        for (d, meta) in &step.user_meta {
            self.user_input_meta
                .entry(*d)
                .or_insert_with(|| meta.clone());
        }
        if !step.params.is_empty() {
            self.params
                .entry(step.id)
                .or_default()
                .extend(step.params.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        Ok(())
    }

    /// Completes a prefix run: adds the final-output edges (grouped by
    /// producing step) into the output node. After this the run is a
    /// complete run and [`WorkflowRun::validate`] applies the full
    /// every-node-on-an-input-output-path invariant again.
    pub fn add_final_outputs(
        &mut self,
        spec: &WorkflowSpec,
        finals: &[(StepId, Vec<DataId>)],
    ) -> Result<()> {
        for (p, data) in finals {
            if data.is_empty() {
                return Err(ModelError::EmptyDataEdge {
                    from: format!("{p}"),
                    to: "output".to_string(),
                });
            }
            let n = self.node_of_step(*p)?;
            let module = match self.graph.node(n) {
                RunNode::Step { module, .. } => *module,
                _ => unreachable!("node_of_step always returns a step node"),
            };
            if !spec.graph().has_edge(module, spec.output()) {
                return Err(ModelError::SpecMismatch(format!(
                    "final outputs of {p} have no specification edge to output"
                )));
            }
            for &d in data {
                if let Some(&src) = self.producer.get(&d) {
                    if src != n {
                        let step_of = |m: NodeId| match self.graph.node(m) {
                            RunNode::Step { id, .. } => id.0,
                            _ => 0,
                        };
                        return Err(ModelError::DataProducedTwice {
                            data: d.0,
                            first: step_of(src),
                            second: p.0,
                        });
                    }
                }
            }
        }
        let output = self.output();
        for (p, data) in finals {
            let n = self.node_of_step[p];
            let mut ds = data.clone();
            ds.sort();
            ds.dedup();
            self.push_edge(n, output, ds);
        }
        Ok(())
    }

    /// Appends edge `src -> dst` carrying the sorted, deduplicated `data`
    /// (whose producer, if already known, is `src`): its slots, their
    /// canonical bits and the producer of each new datum.
    fn push_edge(&mut self, src: NodeId, dst: NodeId, data: Vec<DataId>) {
        let first = self.slot_count();
        push_slots(&mut self.edge_slot, data.len());
        self.canonical.grow(self.slot_count());
        for (slot, &d) in (first..).zip(&data) {
            if let Entry::Vacant(v) = self.producer.entry(d) {
                v.insert(src);
                self.canonical.insert(slot);
            }
        }
        self.graph.add_edge(src, dst, data);
    }

    /// Re-validates the structural invariants against `spec` — used when a
    /// run arrives from untrusted bytes (snapshot/journal deserialization)
    /// rather than through [`RunBuilder`]. Streaming prefixes (runs whose
    /// output node is still untouched) relax the path invariant to
    /// reachable-from-input; everything else is checked identically.
    pub fn validate(&self, spec: &WorkflowSpec) -> Result<()> {
        if spec.name() != self.spec_name {
            return Err(ModelError::SpecMismatch(format!(
                "run is of `{}`, spec is `{}`",
                self.spec_name,
                spec.name()
            )));
        }
        if !is_acyclic(&self.graph) {
            return Err(ModelError::RunHasCycle);
        }
        if self.is_prefix() {
            // Committed streaming steps always hang off the input node
            // through their (already committed) producers; the output node
            // is legitimately unreachable until the stream seals.
            let reach = zoom_graph::reachable_set(
                &self.graph,
                self.input(),
                zoom_graph::Direction::Forward,
            );
            let output = self.output();
            if self
                .graph
                .node_ids()
                .any(|n| n != output && !reach.contains(n.index()))
            {
                return Err(ModelError::NotOnInputOutputPath(
                    "prefix run node".to_string(),
                ));
            }
        } else if !all_nodes_on_paths(&self.graph, self.input(), self.output()) {
            return Err(ModelError::NotOnInputOutputPath("run node".to_string()));
        }
        // Step index consistency and module existence.
        for (&sid, &node) in &self.node_of_step {
            match self.graph.node(node) {
                RunNode::Step { id, module } if *id == sid => {
                    if module.index() >= spec.graph().node_count() || !spec.is_module(*module) {
                        return Err(ModelError::SpecMismatch(format!(
                            "step {sid} executes a non-module node"
                        )));
                    }
                }
                _ => return Err(ModelError::UnknownStep(sid.0)),
            }
        }
        // Producers: unique and consistent with edge labels. Every slot's
        // datum must name the slot's edge source as its producer; then the
        // distinct data are exactly the canonical slots, so the table has
        // no entry beyond them if it has as many entries.
        for (_, src, tgt, data) in self.graph.edges() {
            self.check_sorted(src, tgt, data)?;
            if data.iter().any(|d| self.producer.get(d) != Some(&src)) {
                return Err(self.producer_error());
            }
        }
        if self.producer.len() != self.canonical.count() {
            return Err(producer_out_of_sync());
        }
        // Spec conformance of every edge.
        for (_, src, tgt, _) in self.graph.edges() {
            let map = |n: NodeId| match self.graph.node(n) {
                RunNode::Input => spec.input(),
                RunNode::Output => spec.output(),
                RunNode::Step { module, .. } => *module,
            };
            if !spec.graph().has_edge(map(src), map(tgt)) {
                return Err(ModelError::SpecMismatch(format!(
                    "run edge {} -> {} has no specification edge",
                    self.graph.node(src),
                    self.graph.node(tgt)
                )));
            }
        }
        // Params refer to existing steps.
        for sid in self.params.keys() {
            if !self.node_of_step.contains_key(sid) {
                return Err(ModelError::UnknownStep(sid.0));
            }
        }
        Ok(())
    }

    /// Checks that the data on run edge `src -> tgt` are strictly sorted:
    /// slot lookups binary-search edge data, and every constructor leaves
    /// it so.
    fn check_sorted(&self, src: NodeId, tgt: NodeId, data: &[DataId]) -> Result<()> {
        if data.windows(2).all(|w| w[0] < w[1]) {
            return Ok(());
        }
        Err(ModelError::SpecMismatch(format!(
            "data on run edge {} -> {} is not sorted and deduplicated",
            self.graph.node(src),
            self.graph.node(tgt)
        )))
    }

    /// The error [`WorkflowRun::validate`] reports once some slot's datum
    /// names another producer than the slot's edge source: the first
    /// fault in edge order, as a producer table rebuilt from the edges
    /// finds it. Cold: only failing runs come here, so it may hash.
    #[cold]
    fn producer_error(&self) -> ModelError {
        let mut seen: FxHashMap<DataId, NodeId> = FxHashMap::default();
        for (_, src, tgt, data) in self.graph.edges() {
            if let Err(e) = self.check_sorted(src, tgt, data) {
                return e;
            }
            for &d in data {
                if *seen.entry(d).or_insert(src) != src {
                    return ModelError::DataProducedTwice {
                        data: d.0,
                        first: 0,
                        second: 0,
                    };
                }
            }
        }
        producer_out_of_sync()
    }

    /// The parameters recorded for a step (empty map if none).
    pub fn params_of(&self, s: StepId) -> &BTreeMap<String, String> {
        static EMPTY: std::sync::OnceLock<BTreeMap<String, String>> = std::sync::OnceLock::new();
        self.params
            .get(&s)
            .unwrap_or_else(|| EMPTY.get_or_init(BTreeMap::new))
    }

    /// The largest step id in the run (0 if there are none). Virtual
    /// composite executions are numbered after this.
    pub fn max_step_id(&self) -> u32 {
        self.steps().map(|(s, _)| s.0).max().unwrap_or(0)
    }

    /// Renders the run as GraphViz DOT (steps labeled `S1:M3`, edges labeled
    /// with compact data ranges), as in the paper's Figure 2.
    pub fn to_dot(&self, spec: &WorkflowSpec) -> String {
        use zoom_graph::dot::{to_dot, DotStyle};
        let style = DotStyle {
            node_label: Box::new(move |_, n: &RunNode| match n {
                RunNode::Input => "input".to_string(),
                RunNode::Output => "output".to_string(),
                RunNode::Step { id, module } => format!("{id}:{}", spec.label(*module)),
            }),
            node_attrs: Box::new(|_, n: &RunNode| match n {
                RunNode::Input | RunNode::Output => "shape=circle".to_string(),
                RunNode::Step { .. } => "shape=box".to_string(),
            }),
            edge_label: Box::new(|_, data: &Vec<DataId>| format_data_range(data)),
            graph_attrs: vec!["rankdir=LR".to_string()],
        };
        to_dot(&self.graph, &format!("run of {}", self.spec_name), &style)
    }
}

/// The error for a producer table that disagrees with the run's edges.
fn producer_out_of_sync() -> ModelError {
    ModelError::SpecMismatch("producer index out of sync with edges".to_string())
}

/// Formats a sorted data-id list compactly, e.g. `d1..d100` or `d410`.
pub fn format_data_range(data: &[DataId]) -> String {
    if data.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = Vec::new();
    let mut start = data[0].0;
    let mut prev = start;
    for &DataId(d) in &data[1..] {
        if d == prev + 1 {
            prev = d;
            continue;
        }
        parts.push(if start == prev {
            format!("d{start}")
        } else {
            format!("d{start}..d{prev}")
        });
        start = d;
        prev = d;
    }
    parts.push(if start == prev {
        format!("d{start}")
    } else {
        format!("d{start}..d{prev}")
    });
    parts.join(",")
}

/// Incremental builder for [`WorkflowRun`]. Validates the run against its
/// specification at [`RunBuilder::build`].
#[derive(Debug)]
pub struct RunBuilder<'a> {
    spec: &'a WorkflowSpec,
    graph: Digraph<RunNode, Vec<DataId>>,
    node_of_step: FxHashMap<StepId, NodeId>,
    next_step: u32,
    default_user: String,
    clock: Timestamp,
    user_input_meta: FxHashMap<DataId, UserInputMeta>,
    params: FxHashMap<StepId, BTreeMap<String, String>>,
    deferred: Vec<ModelError>,
}

impl<'a> RunBuilder<'a> {
    /// Starts building a run of `spec`.
    pub fn new(spec: &'a WorkflowSpec) -> Self {
        let mut graph = Digraph::new();
        graph.add_node(RunNode::Input);
        graph.add_node(RunNode::Output);
        RunBuilder {
            spec,
            graph,
            node_of_step: FxHashMap::default(),
            next_step: 1,
            default_user: "user".to_string(),
            clock: Timestamp(0),
            user_input_meta: FxHashMap::default(),
            params: FxHashMap::default(),
            deferred: Vec::new(),
        }
    }

    /// Sets the user name recorded for subsequent user inputs.
    pub fn user(&mut self, name: impl Into<String>) -> &mut Self {
        self.default_user = name.into();
        self
    }

    /// Adds a step executing `module` with an auto-assigned id.
    pub fn step(&mut self, module: NodeId) -> StepId {
        while self.node_of_step.contains_key(&StepId(self.next_step)) {
            self.next_step += 1;
        }
        let id = StepId(self.next_step);
        self.next_step += 1;
        self.step_with_id(id, module);
        id
    }

    /// Adds a step with an explicit id (to mirror the paper's `S1..S10`).
    pub fn step_with_id(&mut self, id: StepId, module: NodeId) -> StepId {
        if !self.spec.is_module(module) {
            self.deferred.push(ModelError::SpecMismatch(format!(
                "step {id} executes non-module node `{}`",
                self.spec.label(module)
            )));
        }
        if self.node_of_step.contains_key(&id) {
            self.deferred.push(ModelError::DuplicateStep(id.0));
            return id;
        }
        let n = self.graph.add_node(RunNode::Step { id, module });
        self.node_of_step.insert(id, n);
        id
    }

    fn step_node(&mut self, s: StepId) -> Option<NodeId> {
        let n = self.node_of_step.get(&s).copied();
        if n.is_none() {
            self.deferred.push(ModelError::UnknownStep(s.0));
        }
        n
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId, data: Vec<DataId>) {
        if data.is_empty() {
            self.deferred.push(ModelError::EmptyDataEdge {
                from: format!("{:?}", self.graph.node(from)),
                to: format!("{:?}", self.graph.node(to)),
            });
            return;
        }
        let mut data = data;
        data.sort();
        data.dedup();
        self.graph.add_edge(from, to, data);
    }

    /// Records that `from` passed the given data objects to `to`.
    pub fn data_edge(
        &mut self,
        from: StepId,
        to: StepId,
        data: impl IntoIterator<Item = u64>,
    ) -> &mut Self {
        let (Some(a), Some(b)) = (self.step_node(from), self.step_node(to)) else {
            return self;
        };
        let data: Vec<DataId> = data.into_iter().map(DataId).collect();
        self.push_edge(a, b, data);
        self
    }

    /// Records a parameter passed to a step, e.g. an alignment tool's
    /// gap-penalty setting.
    pub fn param(
        &mut self,
        step: StepId,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> &mut Self {
        if self.step_node(step).is_some() {
            self.params
                .entry(step)
                .or_default()
                .insert(key.into(), value.into());
        }
        self
    }

    /// Records user-provided data flowing from the run's input node to `to`.
    pub fn input_edge(&mut self, to: StepId, data: impl IntoIterator<Item = u64>) -> &mut Self {
        let Some(b) = self.step_node(to) else {
            return self;
        };
        let data: Vec<DataId> = data.into_iter().map(DataId).collect();
        self.clock = self.clock.tick();
        for &d in &data {
            self.user_input_meta
                .entry(d)
                .or_insert_with(|| UserInputMeta {
                    user: self.default_user.clone(),
                    time: self.clock,
                });
        }
        self.push_edge(NodeId::from_index(0), b, data);
        self
    }

    /// Overrides the recorded metadata of one user-input object. Log
    /// reconstruction uses this to restore the log's who/when — the actual
    /// provenance of user-input data — in place of the builder's own
    /// default user and logical clock.
    pub fn input_meta(&mut self, data: u64, user: impl Into<String>, time: Timestamp) -> &mut Self {
        self.user_input_meta.insert(
            DataId(data),
            UserInputMeta {
                user: user.into(),
                time,
            },
        );
        self
    }

    /// Records final outputs flowing from `from` to the run's output node.
    pub fn output_edge(&mut self, from: StepId, data: impl IntoIterator<Item = u64>) -> &mut Self {
        let Some(a) = self.step_node(from) else {
            return self;
        };
        let data: Vec<DataId> = data.into_iter().map(DataId).collect();
        self.push_edge(a, NodeId::from_index(1), data);
        self
    }

    /// Validates and finalizes the run.
    pub fn build(self) -> Result<WorkflowRun> {
        self.finish(false)
    }

    /// Validates and finalizes a streaming *prefix*: final outputs may be
    /// absent and nodes only need to be reachable from the input node
    /// (the seal will connect them to the output). All other invariants —
    /// acyclicity, unique producers, spec conformance — hold unchanged.
    pub fn build_prefix(self) -> Result<WorkflowRun> {
        self.finish(true)
    }

    fn finish(self, prefix: bool) -> Result<WorkflowRun> {
        if let Some(e) = self.deferred.into_iter().next() {
            return Err(e);
        }
        let graph = self.graph;
        let input = NodeId::from_index(0);
        let output = NodeId::from_index(1);

        if !is_acyclic(&graph) {
            return Err(ModelError::RunHasCycle);
        }
        if prefix {
            let reach = zoom_graph::reachable_set(&graph, input, zoom_graph::Direction::Forward);
            if let Some(bad) = graph
                .node_ids()
                .find(|&n| n != output && !reach.contains(n.index()))
            {
                return Err(ModelError::NotOnInputOutputPath(format!(
                    "{:?}",
                    graph.node(bad)
                )));
            }
        } else if !all_nodes_on_paths(&graph, input, output) {
            let on = zoom_graph::algo::paths::nodes_on_paths(&graph, input, output);
            let bad = graph
                .node_ids()
                .find(|n| !on.contains(n.index()))
                .expect("some node is off the input-output paths");
            return Err(ModelError::NotOnInputOutputPath(format!(
                "{:?}",
                graph.node(bad)
            )));
        }

        // Unique producer per data object; the producer is the source node of
        // every edge carrying the object. Edges are visited in slot order,
        // so a datum seen before is at a non-canonical slot.
        let edge_slot = slot_table(&graph);
        let mut canonical =
            BitSet::full(*edge_slot.last().expect("the table starts at 0") as usize);
        let mut producer: FxHashMap<DataId, NodeId> = FxHashMap::default();
        let mut slot = 0;
        for (e, src, _, _) in graph.edges() {
            for &d in graph.edge(e) {
                match producer.entry(d) {
                    Entry::Occupied(prev) if *prev.get() != src => {
                        let step_of = |n: NodeId| match graph.node(n) {
                            RunNode::Step { id, .. } => id.0,
                            _ => 0,
                        };
                        return Err(ModelError::DataProducedTwice {
                            data: d.0,
                            first: step_of(*prev.get()),
                            second: step_of(src),
                        });
                    }
                    Entry::Occupied(_) => {
                        canonical.remove(slot);
                    }
                    Entry::Vacant(v) => {
                        v.insert(src);
                    }
                }
                slot += 1;
            }
        }

        // Spec conformance: every run edge must follow a specification edge.
        for (_, src, tgt, _) in graph.edges() {
            let spec_node = |n: NodeId| match graph.node(n) {
                RunNode::Input => Some(self.spec.input()),
                RunNode::Output => Some(self.spec.output()),
                RunNode::Step { module, .. } => Some(*module),
            };
            let (a, b) = (
                spec_node(src).expect("total"),
                spec_node(tgt).expect("total"),
            );
            if !self.spec.graph().has_edge(a, b) {
                return Err(ModelError::SpecMismatch(format!(
                    "run edge {} -> {} has no specification edge {} -> {}",
                    graph.node(src),
                    graph.node(tgt),
                    self.spec.label(a),
                    self.spec.label(b)
                )));
            }
        }

        // Keep metadata only for data actually input by the user.
        let user_input_meta = self
            .user_input_meta
            .into_iter()
            .filter(|(d, _)| producer.get(d) == Some(&input))
            .collect();

        Ok(WorkflowRun {
            spec_name: self.spec.name().to_string(),
            edge_slot,
            canonical,
            graph,
            node_of_step: self.node_of_step,
            producer,
            user_input_meta,
            params: self.params,
        })
    }
}

impl std::fmt::Display for RunNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunNode::Input => write!(f, "input"),
            RunNode::Output => write!(f, "output"),
            RunNode::Step { id, .. } => write!(f, "{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    /// input -> A -> B -> output with a loop B -> A
    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("s");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "A")
            .to_output("B");
        b.build().unwrap()
    }

    #[test]
    fn build_simple_run() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.input_edge(s1, [1, 2])
            .data_edge(s1, s2, [3])
            .output_edge(s2, [4]);
        let run = rb.build().unwrap();
        assert_eq!(run.step_count(), 2);
        assert_eq!(run.data_count(), 4);
        assert_eq!(run.user_inputs(), vec![DataId(1), DataId(2)]);
        assert_eq!(run.final_outputs(), vec![DataId(4)]);
        assert_eq!(run.producer_of(DataId(1)), Some(Producer::UserInput));
        assert_eq!(run.producer_of(DataId(3)), Some(Producer::Step(s1)));
        assert_eq!(run.producer_of(DataId(99)), None);
        assert_eq!(run.inputs_of(s2).unwrap(), vec![DataId(3)]);
        assert_eq!(run.outputs_of(s1).unwrap(), vec![DataId(3)]);
        assert!(run.user_input_meta(DataId(1)).is_some());
        assert!(run.user_input_meta(DataId(3)).is_none());
        assert_eq!(run.module_of(s2).unwrap(), b);
        assert_eq!(run.max_step_id(), 2);
        assert_eq!(run.slot_count(), 4);
        assert_eq!(
            run.producer_slot(DataId(3)),
            Some((run.node_of_step(s1).unwrap(), 2))
        );
        assert_eq!(run.producer_slot(DataId(99)), None);
        // Slots 0..2 on input -> S1, 2 on S1 -> S2, 3 on S2 -> output.
        let edge = |slot, from| run.edge_of_slot(slot, EdgeId::from_index(from)).index();
        assert_eq!(
            [edge(0, 0), edge(1, 0), edge(2, 0), edge(3, 0)],
            [0, 0, 1, 2]
        );
        assert_eq!([edge(2, 1), edge(3, 1), edge(3, 2)], [1, 2, 2]);
    }

    #[test]
    fn validate_rejects_modules_beyond_the_spec() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        let run = rb.build().unwrap();
        // A same-named spec with fewer modules, as a doctored store could
        // pair the run with.
        let mut sb = SpecBuilder::new("s");
        sb.analysis("A");
        sb.from_input("A").to_output("A");
        let smaller = sb.build().unwrap();
        assert!(run.validate(&smaller).is_err());
    }

    #[test]
    fn loop_unrolling_allows_repeated_modules() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        let s3 = rb.step(a); // second execution of A (loop unrolled)
        let s4 = rb.step(b);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s2, s3, [3])
            .data_edge(s3, s4, [4])
            .output_edge(s4, [5]);
        let run = rb.build().unwrap();
        assert_eq!(run.step_count(), 4);
        assert_eq!(run.module_of(s3).unwrap(), a);
    }

    #[test]
    fn cyclic_run_rejected() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s2, s1, [3])
            .output_edge(s2, [4]);
        assert_eq!(rb.build().unwrap_err(), ModelError::RunHasCycle);
    }

    #[test]
    fn data_produced_twice_rejected() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [2]); // d2 also "produced" by s2
        let err = rb.build().unwrap_err();
        assert!(matches!(err, ModelError::DataProducedTwice { data: 2, .. }));
    }

    #[test]
    fn fanout_of_same_datum_is_fine() {
        // d2 produced by s1 flows to two consumers.
        let mut sb = SpecBuilder::new("fan");
        sb.analysis("A");
        sb.analysis("B");
        sb.analysis("C");
        sb.from_input("A")
            .edge("A", "B")
            .edge("A", "C")
            .to_output("B")
            .to_output("C");
        let s = sb.build().unwrap();
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        let s3 = rb.step(c);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s1, s3, [2])
            .output_edge(s2, [3])
            .output_edge(s3, [4]);
        let run = rb.build().unwrap();
        assert_eq!(run.producer_of(DataId(2)), Some(Producer::Step(s1)));
    }

    #[test]
    fn run_must_follow_spec_edges() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        // Spec has no edge input -> B.
        rb.input_edge(s1, [1])
            .input_edge(s2, [9])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        assert!(matches!(
            rb.build().unwrap_err(),
            ModelError::SpecMismatch(_)
        ));
    }

    #[test]
    fn disconnected_step_rejected() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        let _s3 = rb.step(a); // never wired up
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        assert!(matches!(
            rb.build().unwrap_err(),
            ModelError::NotOnInputOutputPath(_)
        ));
    }

    #[test]
    fn duplicate_and_unknown_steps() {
        let s = spec();
        let a = s.module("A").unwrap();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        rb.step_with_id(s1, a);
        assert_eq!(rb.build().unwrap_err(), ModelError::DuplicateStep(1));

        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        rb.input_edge(s1, [1]).data_edge(s1, StepId(42), [2]);
        assert_eq!(rb.build().unwrap_err(), ModelError::UnknownStep(42));
    }

    #[test]
    fn empty_edge_rejected() {
        let s = spec();
        let a = s.module("A").unwrap();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        rb.input_edge(s1, std::iter::empty::<u64>());
        assert!(matches!(
            rb.build().unwrap_err(),
            ModelError::EmptyDataEdge { .. }
        ));
    }

    #[test]
    fn explicit_ids_and_auto_ids_coexist() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s5 = rb.step_with_id(StepId(5), a);
        let s1 = rb.step(b); // auto: S1
        assert_eq!(s1, StepId(1));
        rb.input_edge(s5, [1])
            .data_edge(s5, s1, [2])
            .output_edge(s1, [3]);
        let run = rb.build().unwrap();
        assert_eq!(run.max_step_id(), 5);
    }

    #[test]
    fn step_parameters() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.param(s1, "gap-penalty", "0.5")
            .param(s1, "matrix", "BLOSUM62")
            .param(StepId(99), "ignored", "x") // unknown step: recorded error later
            .input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        let err_or_run = rb.build();
        // The unknown step surfaced as an error.
        assert!(matches!(err_or_run, Err(ModelError::UnknownStep(99))));

        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.param(s1, "gap-penalty", "0.5")
            .param(s1, "matrix", "BLOSUM62")
            .input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        let run = rb.build().unwrap();
        assert_eq!(run.params_of(s1).len(), 2);
        assert_eq!(run.params_of(s1)["matrix"], "BLOSUM62");
        assert!(run.params_of(s2).is_empty());
    }

    #[test]
    fn data_range_formatting() {
        let d = |v: &[u64]| v.iter().copied().map(DataId).collect::<Vec<_>>();
        assert_eq!(format_data_range(&d(&[1, 2, 3, 4])), "d1..d4");
        assert_eq!(format_data_range(&d(&[5])), "d5");
        assert_eq!(format_data_range(&d(&[1, 3, 4, 9])), "d1,d3..d4,d9");
        assert_eq!(format_data_range(&[]), "");
    }

    #[test]
    fn dot_rendering() {
        let s = spec();
        let (a, b) = (s.module("A").unwrap(), s.module("B").unwrap());
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        rb.input_edge(s1, [1, 2, 3])
            .data_edge(s1, s2, [4])
            .output_edge(s2, [5]);
        let run = rb.build().unwrap();
        let dot = run.to_dot(&s);
        assert!(dot.contains("S1:A"));
        assert!(dot.contains("S2:B"));
        assert!(dot.contains("d1..d3"));
    }
}
