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
use serde::de::{self, cautious_capacity, DeserializeSeed, MapAccess, SeqAccess, Visitor};
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use zoom_graph::algo::paths::all_nodes_on_paths;
use zoom_graph::algo::topo::is_acyclic;
use zoom_graph::digraph::EdgeWeights;
use zoom_graph::fxhash::FxHashMap;
use zoom_graph::{radix_sort_by_key, BitSet, Digraph, EdgeId, NodeId};

/// Metadata recorded when a data object is input by the user rather than
/// produced by a step: "who input the data and the time at which the input
/// occurred" (Section II).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserInputMeta {
    /// Who provided the data: one name shared by every datum a run records
    /// for that user.
    pub user: Arc<str>,
    /// When it was provided.
    pub time: Timestamp,
}

impl Serialize for UserInputMeta {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("UserInputMeta", 2)?;
        st.serialize_field("user", &*self.user)?;
        st.serialize_field("time", &self.time)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for UserInputMeta {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        MetaIn(&mut None).deserialize(deserializer)
    }
}

/// Decodes a [`UserInputMeta`], sharing the user name with the one
/// decoded before it when they are equal: a run's user inputs mostly name
/// one user, so its table decodes in a fixed number of allocations.
struct MetaIn<'a>(&'a mut Option<Arc<str>>);

impl<'de> DeserializeSeed<'de> for MetaIn<'_> {
    type Value = UserInputMeta;

    fn deserialize<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> std::result::Result<UserInputMeta, D::Error> {
        deserializer.deserialize_struct("UserInputMeta", &["user", "time"], self)
    }
}

impl<'de> Visitor<'de> for MetaIn<'_> {
    type Value = UserInputMeta;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("user-input metadata")
    }

    fn visit_seq<A: SeqAccess<'de>>(
        self,
        mut seq: A,
    ) -> std::result::Result<UserInputMeta, A::Error> {
        let missing = |i| de::Error::invalid_length(i, "user-input metadata");
        let user = seq
            .next_element_seed(NameIn(self.0))?
            .ok_or_else(|| missing(0))?;
        let time = seq.next_element()?.ok_or_else(|| missing(1))?;
        Ok(UserInputMeta { user, time })
    }
}

/// A user name: the previous one again when equal, else a new one.
struct NameIn<'a>(&'a mut Option<Arc<str>>);

impl<'de> DeserializeSeed<'de> for NameIn<'_> {
    type Value = Arc<str>;

    fn deserialize<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> std::result::Result<Arc<str>, D::Error> {
        deserializer.deserialize_str(self)
    }
}

impl<'de> Visitor<'de> for NameIn<'_> {
    type Value = Arc<str>;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a user name")
    }

    fn visit_str<E: de::Error>(self, v: &str) -> std::result::Result<Arc<str>, E> {
        match self.0 {
            Some(last) if **last == *v => Ok(last.clone()),
            _ => Ok(self.0.insert(Arc::from(v)).clone()),
        }
    }
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
/// derives for batch logs, so a streamed prefix has the edges of a
/// batch-loaded one (in commit order, where the batch run orders them by
/// the data they carry).
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
///
/// Stored flat: the graph's forward-star arrays, plus every edge's data in
/// one array, `slot_data`, in edge order. The data of edge `e` are
/// [`WorkflowRun::edge_data`], the slots [`WorkflowRun::edge_slots`] of
/// that array.
#[derive(Clone, Debug)]
pub struct WorkflowRun {
    spec_name: String,
    graph: Digraph<RunNode, ()>,
    /// Every edge's data, sorted within each edge, edge after edge.
    slot_data: Vec<DataId>,
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
    /// `edge_slot[e]..edge_slot[e + 1]` of `slot_data`, one per (edge,
    /// datum) reference. Never serialized (the bytes carry each edge's
    /// data), rebuilt on decode, and only ever appended to, since run
    /// edges are immutable once added.
    edge_slot: Vec<u32>,
    /// One bit per edge-data slot, set when the slot is its datum's first
    /// (see [`WorkflowRun::is_canonical_slot`]). Derived like `edge_slot`.
    canonical: BitSet,
}

/// The encoded fields of a [`WorkflowRun`], in encoding order. The graph
/// encodes with each edge's data as its weight, as a
/// `Digraph<RunNode, Vec<DataId>>` does; the slot table and the canonical
/// bits are derived.
const RUN_FIELDS: &[&str] = &[
    "spec_name",
    "graph",
    "node_of_step",
    "producer",
    "user_input_meta",
    "params",
];

impl Serialize for WorkflowRun {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("WorkflowRun", RUN_FIELDS.len())?;
        st.serialize_field("spec_name", &self.spec_name)?;
        st.serialize_field("graph", &GraphOut(self))?;
        st.serialize_field("node_of_step", &KeyOrder(&self.node_of_step))?;
        st.serialize_field("producer", &KeyOrder(&self.producer))?;
        st.serialize_field("user_input_meta", &KeyOrder(&self.user_input_meta))?;
        st.serialize_field("params", &KeyOrder(&self.params))?;
        st.end()
    }
}

/// A run's graph, encoded with each edge's data as its weight.
struct GraphOut<'a>(&'a WorkflowRun);

impl Serialize for GraphOut<'_> {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let run = self.0;
        run.graph.serialize_with(serializer, |e| run.edge_data(e))
    }
}

impl<'de> Deserialize<'de> for WorkflowRun {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        deserializer.deserialize_struct("WorkflowRun", RUN_FIELDS, RunIn)
    }
}

/// Decodes a [`WorkflowRun`]: the graph and the edge data stream into the
/// flat arrays, and each table decodes into one allocation.
struct RunIn;

impl<'de> Visitor<'de> for RunIn {
    type Value = WorkflowRun;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a workflow run")
    }

    fn visit_seq<A: SeqAccess<'de>>(
        self,
        mut seq: A,
    ) -> std::result::Result<WorkflowRun, A::Error> {
        let missing = |i| de::Error::invalid_length(i, "a workflow run");
        let spec_name = seq.next_element()?.ok_or_else(|| missing(0))?;
        let mut slots = SlotsIn {
            data: Vec::new(),
            ends: Vec::new(),
        };
        let graph = seq
            .next_element_seed(GraphIn(&mut slots))?
            .ok_or_else(|| missing(1))?;
        let node_of_step = seq.next_element()?.ok_or_else(|| missing(2))?;
        let producer = seq.next_element()?.ok_or_else(|| missing(3))?;
        let user_input_meta = seq
            .next_element_seed(MetaTableIn)?
            .ok_or_else(|| missing(4))?;
        let params = seq.next_element()?.ok_or_else(|| missing(5))?;
        let SlotsIn {
            data: mut slot_data,
            ends: edge_slot,
        } = slots;
        slot_data.shrink_to_fit();
        Ok(WorkflowRun {
            canonical: canonical_table(&graph, &edge_slot, &slot_data),
            spec_name,
            graph,
            slot_data,
            node_of_step,
            producer,
            user_input_meta,
            params,
            edge_slot,
        })
    }
}

struct GraphIn<'a>(&'a mut SlotsIn);

impl<'de> DeserializeSeed<'de> for GraphIn<'_> {
    type Value = Digraph<RunNode, ()>;

    fn deserialize<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> std::result::Result<Self::Value, D::Error> {
        Digraph::deserialize_with(deserializer, self.0)
    }
}

/// A run's edge data as they decode: appended to one array, edge after
/// edge, with the slot table's end offset of each edge.
struct SlotsIn {
    data: Vec<DataId>,
    ends: Vec<u32>,
}

/// How many data per edge a run's decode reserves room for, before it
/// knows (the bytes give each edge's count only when it arrives). Over
/// the 3,600 runs of the `Scale::Paper` corpus (seed 1) a run averages
/// 5.7 data per edge at the median, 16.0 at the 90th percentile and 24.4
/// at most, so nine runs in ten decode into one reservation and the rest
/// grow once; the 10k-step chain and the lattice carry one datum per
/// edge. The array is trimmed once after decoding.
const RESERVED_SLOTS_PER_EDGE: usize = 16;

impl<'de> EdgeWeights<'de, ()> for SlotsIn {
    fn reserve(&mut self, edges: usize) {
        self.ends
            .reserve_exact(cautious_capacity::<u32>(edges.saturating_add(1)));
        self.ends.push(0);
        self.data.reserve_exact(cautious_capacity::<DataId>(
            edges.saturating_mul(RESERVED_SLOTS_PER_EDGE),
        ));
    }

    fn decode<D: Deserializer<'de>>(
        &mut self,
        deserializer: D,
    ) -> std::result::Result<(), D::Error> {
        deserializer.deserialize_seq(&mut *self)
    }
}

impl<'de> Visitor<'de> for &mut SlotsIn {
    type Value = ();

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("the data of a run edge")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> std::result::Result<(), A::Error> {
        while let Some(d) = seq.next_element()? {
            self.data.push(d);
        }
        let end = u32::try_from(self.data.len())
            .map_err(|_| de::Error::custom("a run holds 2^32 or more data references"))?;
        self.ends.push(end);
        Ok(())
    }
}

/// Decodes a run's user-input table, sharing user names (see [`MetaIn`]).
struct MetaTableIn;

impl<'de> DeserializeSeed<'de> for MetaTableIn {
    type Value = FxHashMap<DataId, UserInputMeta>;

    fn deserialize<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> std::result::Result<Self::Value, D::Error> {
        deserializer.deserialize_map(self)
    }
}

impl<'de> Visitor<'de> for MetaTableIn {
    type Value = FxHashMap<DataId, UserInputMeta>;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a user-input table")
    }

    fn visit_map<A: MapAccess<'de>>(
        self,
        mut map: A,
    ) -> std::result::Result<Self::Value, A::Error> {
        let cap = cautious_capacity::<(DataId, UserInputMeta)>(map.size_hint().unwrap_or(0));
        let mut table = FxHashMap::with_capacity_and_hasher(cap, Default::default());
        let mut last = None;
        while let Some(d) = map.next_key()? {
            let meta = map.next_value_seed(MetaIn(&mut last))?;
            table.insert(d, meta);
        }
        Ok(table)
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

/// Seals a new edge whose data were just appended to `slot_data`, after
/// the last end offset in `edge_slot`: sorts and deduplicates them, and
/// appends the edge's end offset. Returns how many data it carries.
fn seal_edge(slot_data: &mut Vec<DataId>, edge_slot: &mut Vec<u32>) -> usize {
    let first = *edge_slot.last().expect("the table starts at 0") as usize;
    let new = &mut slot_data[first..];
    new.sort_unstable();
    let mut kept = 0;
    for i in 0..new.len() {
        if kept == 0 || new[i] != new[kept - 1] {
            new[kept] = new[i];
            kept += 1;
        }
    }
    slot_data.truncate(first + kept);
    edge_slot.push(u32::try_from(first + kept).expect("fewer than 2^32 data references per run"));
    kept
}

/// The canonical slots of a run (see [`WorkflowRun::is_canonical_slot`])
/// given its graph, slot table and edge data. Every slot starts
/// canonical; only a node whose out-edges share a datum can repeat one,
/// and not when each out-edge's data all follow the previous one's, so
/// just the other nodes have their slots sorted by datum to find the
/// repeats. No slot is hashed.
fn canonical_table(
    graph: &Digraph<RunNode, ()>,
    edge_slot: &[u32],
    slot_data: &[DataId],
) -> BitSet {
    let slots = |e: EdgeId| edge_slot[e.index()] as usize..edge_slot[e.index() + 1] as usize;
    let mut canonical = BitSet::full(slot_data.len());
    let mut refs: Vec<(DataId, u32)> = Vec::new();
    for n in graph.node_ids() {
        let mut last: Option<DataId> = None;
        let ascending = graph.out_edges(n).all(|e| {
            let data = &slot_data[slots(e)];
            let (Some(&first), Some(&end)) = (data.first(), data.last()) else {
                return true;
            };
            let after = last.is_none_or(|l| l < first);
            last = Some(end);
            after
        });
        if ascending {
            continue;
        }
        // Room for every slot at the first such node: one allocation
        // however many nodes need sorting.
        if refs.capacity() == 0 {
            refs.reserve_exact(slot_data.len());
        }
        refs.clear();
        for e in graph.out_edges(n) {
            let span = slots(e);
            refs.extend(
                slot_data[span.clone()]
                    .iter()
                    .zip(span.start as u32..)
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

    /// The underlying run graph. The data passed along edge `e` are
    /// [`Self::edge_data`]`(e)`.
    pub fn graph(&self) -> &Digraph<RunNode, ()> {
        &self.graph
    }

    /// The data passed along edge `e`, sorted.
    #[inline]
    pub fn edge_data(&self, e: EdgeId) -> &[DataId] {
        &self.slot_data[self.edge_slots(e)]
    }

    /// Every edge's data, edge after edge: slot `i` of the run holds
    /// datum `slot_data()[i]`.
    #[inline]
    pub fn slot_data(&self) -> &[DataId] {
        &self.slot_data
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

    /// The edge-data slots of edge `e`: position `j` of `edge_data(e)`
    /// is slot `edge_slots(e).start + j`. Slots number every (edge, datum)
    /// reference of the run densely, whatever the data ids, so per-view
    /// data properties fit one bit per reference.
    #[inline]
    pub fn edge_slots(&self, e: EdgeId) -> std::ops::Range<usize> {
        self.edge_slot[e.index()] as usize..self.edge_slot[e.index() + 1] as usize
    }

    /// The number of edge-data slots (data references) in the run.
    pub fn slot_count(&self) -> usize {
        self.slot_data.len()
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
            let j = self.edge_data(e).binary_search(&d).ok()?;
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
            .flat_map(|e| self.edge_data(e).iter().copied())
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
            .flat_map(|e| self.edge_data(e).iter().copied())
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
            .flat_map(|e| self.edge_data(e).iter().copied())
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
            .flat_map(|e| self.edge_data(e).iter().copied())
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
            slot_data: Vec::new(),
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
            self.push_edge(src, node, data);
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
            self.push_edge(n, output, data);
        }
        Ok(())
    }

    /// Appends edge `src -> dst` carrying `data` (whose producer, if
    /// already known, is `src`), sorted and deduplicated: its slots, their
    /// canonical bits and the producer of each new datum.
    fn push_edge(&mut self, src: NodeId, dst: NodeId, data: &[DataId]) {
        let first = self.slot_count();
        self.slot_data.extend_from_slice(data);
        seal_edge(&mut self.slot_data, &mut self.edge_slot);
        self.canonical.grow(self.slot_count());
        for (slot, &d) in (first..).zip(&self.slot_data[first..]) {
            if let Entry::Vacant(v) = self.producer.entry(d) {
                v.insert(src);
                self.canonical.insert(slot);
            }
        }
        self.graph.add_edge(src, dst, ());
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
            if node.index() >= self.graph.node_count() {
                return Err(ModelError::UnknownStep(sid.0));
            }
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
        for (e, src, tgt, _) in self.graph.edges() {
            let data = self.edge_data(e);
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
        for (e, src, tgt, _) in self.graph.edges() {
            let data = self.edge_data(e);
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
            edge_label: Box::new(|e, _: &()| format_data_range(self.edge_data(e))),
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
    graph: Digraph<RunNode, ()>,
    /// Edge data and slot table, as in [`WorkflowRun`].
    slot_data: Vec<DataId>,
    edge_slot: Vec<u32>,
    node_of_step: FxHashMap<StepId, NodeId>,
    next_step: u32,
    default_user: Arc<str>,
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
            slot_data: Vec::new(),
            edge_slot: vec![0],
            node_of_step: FxHashMap::default(),
            next_step: 1,
            default_user: Arc::from("user"),
            clock: Timestamp(0),
            user_input_meta: FxHashMap::default(),
            params: FxHashMap::default(),
            deferred: Vec::new(),
        }
    }

    /// Sets the user name recorded for subsequent user inputs.
    pub fn user(&mut self, name: impl Into<Arc<str>>) -> &mut Self {
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

    /// Adds edge `from -> to` carrying `data`; returns the range of its
    /// slots.
    fn push_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        data: impl IntoIterator<Item = u64>,
    ) -> std::ops::Range<usize> {
        let first = self.slot_data.len();
        self.slot_data.extend(data.into_iter().map(DataId));
        if self.slot_data.len() == first {
            self.deferred.push(ModelError::EmptyDataEdge {
                from: format!("{:?}", self.graph.node(from)),
                to: format!("{:?}", self.graph.node(to)),
            });
            return first..first;
        }
        let len = seal_edge(&mut self.slot_data, &mut self.edge_slot);
        self.graph.add_edge(from, to, ());
        first..first + len
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
        self.clock = self.clock.tick();
        let slots = self.push_edge(NodeId::from_index(0), b, data);
        for &d in &self.slot_data[slots] {
            self.user_input_meta
                .entry(d)
                .or_insert_with(|| UserInputMeta {
                    user: self.default_user.clone(),
                    time: self.clock,
                });
        }
        self
    }

    /// Overrides the recorded metadata of one user-input object. Log
    /// reconstruction uses this to restore the log's who/when — the actual
    /// provenance of user-input data — in place of the builder's own
    /// default user and logical clock.
    pub fn input_meta(
        &mut self,
        data: u64,
        user: impl Into<Arc<str>>,
        time: Timestamp,
    ) -> &mut Self {
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
        let (slot_data, edge_slot) = (self.slot_data, self.edge_slot);
        let mut canonical = BitSet::full(slot_data.len());
        let mut producer: FxHashMap<DataId, NodeId> = FxHashMap::default();
        let mut slot = 0;
        for (e, src, _, _) in graph.edges() {
            let span = edge_slot[e.index()] as usize..edge_slot[e.index() + 1] as usize;
            for &d in &slot_data[span] {
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
            slot_data,
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
