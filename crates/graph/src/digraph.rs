//! An arena-based directed multigraph.
//!
//! Nodes and edges are stored in append-only arenas and addressed by
//! [`NodeId`] / [`EdgeId`] handles. The graph is a *multigraph*: parallel
//! edges between the same pair of nodes are allowed (a workflow run can pass
//! several data sets between the same two steps), and self-loops are allowed
//! (a workflow specification may contain a reflexive loop pattern).
//!
//! The arenas are append-only by design: ZOOM never mutates a registered
//! workflow graph in place — derived graphs (induced specifications,
//! condensations) are built as new graphs — so the ids stay stable for the
//! lifetime of the graph and can be used as dense indices everywhere else in
//! the workspace.

use serde::de::{self, cautious_capacity, DeserializeSeed, SeqAccess, Visitor};
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::marker::PhantomData;

/// A handle to a node in a [`Digraph`]. Dense: `index()` is in `0..node_count()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

/// A handle to an edge in a [`Digraph`]. Dense: `index()` is in `0..edge_count()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// Callers must ensure the index denotes an existing node of the graph
    /// they use it with; methods panic on out-of-range ids.
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index overflows u32"))
    }
}

impl EdgeId {
    /// The dense index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a dense index.
    pub fn from_index(i: usize) -> Self {
        EdgeId(u32::try_from(i).expect("edge index overflows u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Ends an adjacency list: the `next` link of its last edge, and both
/// heads of an empty list.
const END: u32 = u32::MAX;

/// The heads of one node's adjacency lists: its first and last out-edge
/// and in-edge ([`END`] when it has none).
#[derive(Clone, Copy, Debug)]
struct Links {
    first_out: u32,
    last_out: u32,
    first_in: u32,
    last_in: u32,
}

impl Links {
    const EMPTY: Links = Links {
        first_out: END,
        last_out: END,
        first_in: END,
        last_in: END,
    };
}

/// One edge: its endpoints, the edges after it on its source's out-list
/// and its target's in-list, and its weight.
#[derive(Clone, Debug)]
struct EdgeData<E> {
    source: NodeId,
    target: NodeId,
    next_out: u32,
    next_in: u32,
    weight: E,
}

/// An append-only directed multigraph with node weights `N` and edge weights `E`.
///
/// Stored as flat *forward-star* arrays: the node weights, one head record
/// per node, and one record per edge holding its endpoints, its weight and
/// the links threading it onto its source's out-list and its target's
/// in-list. Adding an edge appends to both lists, so every adjacency list
/// is in insertion (edge id) order, and a graph of any size is three
/// allocations.
///
/// ```
/// use zoom_graph::Digraph;
/// let mut g: Digraph<&str, u32> = Digraph::new();
/// let a = g.add_node("align");
/// let b = g.add_node("build-tree");
/// g.add_edge(a, b, 7);
/// assert!(g.has_edge(a, b));
/// assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b]);
/// assert_eq!(*g.node(b), "build-tree");
/// ```
#[derive(Clone, Debug)]
pub struct Digraph<N, E> {
    weights: Vec<N>,
    links: Vec<Links>,
    edges: Vec<EdgeData<E>>,
}

/// The edges of one adjacency list, in insertion order: an out-list when
/// `OUT`, an in-list otherwise.
struct Adjacent<'a, E, const OUT: bool> {
    edges: &'a [EdgeData<E>],
    next: u32,
}

impl<'a, E, const OUT: bool> Iterator for Adjacent<'a, E, OUT> {
    type Item = (EdgeId, &'a EdgeData<E>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next == END {
            return None;
        }
        let id = EdgeId(self.next);
        let e = &self.edges[self.next as usize];
        self.next = if OUT { e.next_out } else { e.next_in };
        Some((id, e))
    }
}

impl<N, E> Default for Digraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Digraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Digraph {
            weights: Vec::new(),
            links: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Digraph {
            weights: Vec::with_capacity(nodes),
            links: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId::from_index(self.weights.len());
        self.weights.push(weight);
        self.links.push(Links::EMPTY);
        id
    }

    /// Adds a directed edge `source -> target` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(
            source.index() < self.weights.len(),
            "source {source:?} out of range"
        );
        assert!(
            target.index() < self.weights.len(),
            "target {target:?} out of range"
        );
        let id = EdgeId::from_index(self.edges.len());
        assert!(id.0 != END, "edge index overflows u32");
        self.edges.push(EdgeData {
            source,
            target,
            next_out: END,
            next_in: END,
            weight,
        });
        self.link(id.0);
        id
    }

    /// Appends edge `e`, whose links are [`END`], to its source's out-list
    /// and its target's in-list.
    fn link(&mut self, e: u32) {
        let (s, t) = (self.edges[e as usize].source, self.edges[e as usize].target);
        let last = std::mem::replace(&mut self.links[s.index()].last_out, e);
        match last {
            END => self.links[s.index()].first_out = e,
            prev => self.edges[prev as usize].next_out = e,
        }
        let last = std::mem::replace(&mut self.links[t.index()].last_in, e);
        match last {
            END => self.links[t.index()].first_in = e,
            prev => self.edges[prev as usize].next_in = e,
        }
    }

    fn outs(&self, n: NodeId) -> Adjacent<'_, E, true> {
        Adjacent {
            edges: &self.edges,
            next: self.links[n.index()].first_out,
        }
    }

    fn ins(&self, n: NodeId) -> Adjacent<'_, E, false> {
        Adjacent {
            edges: &self.edges,
            next: self.links[n.index()].first_in,
        }
    }

    /// Immutable access to a node's weight.
    pub fn node(&self, id: NodeId) -> &N {
        &self.weights[id.index()]
    }

    /// Mutable access to a node's weight.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.weights[id.index()]
    }

    /// Immutable access to an edge's weight.
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edges[id.index()].weight
    }

    /// Mutable access to an edge's weight.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut E {
        &mut self.edges[id.index()].weight
    }

    /// The `(source, target)` endpoints of an edge.
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.index()];
        (e.source, e.target)
    }

    /// Source node of an edge.
    pub fn source(&self, id: EdgeId) -> NodeId {
        self.edges[id.index()].source
    }

    /// Target node of an edge.
    pub fn target(&self, id: EdgeId) -> NodeId {
        self.edges[id.index()].target
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.weights.len()).map(NodeId::from_index)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterates over `(id, &weight)` for all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &N)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| (NodeId::from_index(i), w))
    }

    /// Iterates over `(id, source, target, &weight)` for all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, d)| (EdgeId::from_index(i), d.source, d.target, &d.weight))
    }

    /// Out-edges of `n` in insertion order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.outs(n).map(|(e, _)| e)
    }

    /// In-edges of `n` in insertion order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.ins(n).map(|(e, _)| e)
    }

    /// Successor nodes of `n` (with multiplicity if parallel edges exist).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.outs(n).map(|(_, d)| d.target)
    }

    /// Predecessor nodes of `n` (with multiplicity if parallel edges exist).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.ins(n).map(|(_, d)| d.source)
    }

    /// Out-degree of `n` (counting parallel edges), in `O(degree)`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.outs(n).count()
    }

    /// In-degree of `n` (counting parallel edges), in `O(degree)`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.ins(n).count()
    }

    /// Returns `true` if there is at least one edge `a -> b`.
    ///
    /// Walks `a`'s out-list and `b`'s in-list in step, so it stops within
    /// twice the shorter list.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (mut out, mut inn) = (self.outs(a), self.ins(b));
        loop {
            match out.next() {
                None => return false,
                Some((_, e)) if e.target == b => return true,
                _ => {}
            }
            match inn.next() {
                None => return false,
                Some((_, e)) if e.source == a => return true,
                _ => {}
            }
        }
    }

    /// Returns the first edge `a -> b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.outs(a).find(|(_, e)| e.target == b).map(|(e, _)| e)
    }

    /// Maps node and edge weights into a structurally identical graph.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeId, &N) -> N2,
        mut edge_map: impl FnMut(EdgeId, &E) -> E2,
    ) -> Digraph<N2, E2> {
        Digraph {
            weights: self.nodes().map(|(n, w)| node_map(n, w)).collect(),
            links: self.links.clone(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, d)| EdgeData {
                    source: d.source,
                    target: d.target,
                    next_out: d.next_out,
                    next_in: d.next_in,
                    weight: edge_map(EdgeId::from_index(i), &d.weight),
                })
                .collect(),
        }
    }

    /// Returns the reverse graph (every edge flipped), preserving ids.
    pub fn reversed(&self) -> Digraph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        Digraph {
            weights: self.weights.clone(),
            links: self
                .links
                .iter()
                .map(|l| Links {
                    first_out: l.first_in,
                    last_out: l.last_in,
                    first_in: l.first_out,
                    last_in: l.last_out,
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|d| EdgeData {
                    source: d.target,
                    target: d.source,
                    next_out: d.next_in,
                    next_in: d.next_out,
                    weight: d.weight.clone(),
                })
                .collect(),
        }
    }
}

// --- Encoding ---------------------------------------------------------------
//
// A graph encodes as it did when it was stored as per-node adjacency
// vectors: a struct of `nodes` (each its weight, out-edge ids and in-edge
// ids) and `edges` (each its weight, source and target). The adjacency
// lists are redundant with the edge list; decoding derives them from it
// and refuses bytes whose lists say otherwise.

/// The error for encoded adjacency lists that differ from the lists the
/// edge list gives.
pub const ADJACENCY_MISMATCH: &str = "graph adjacency lists do not match its edge list";

/// The error for an encoded edge whose endpoint is not a node.
pub const ENDPOINT_OUT_OF_RANGE: &str = "graph edge endpoint is not a node";

/// Decodes a graph's edge weights, one edge at a time in edge order, for
/// [`Digraph::deserialize_with`]. Lets a caller stream them into storage
/// of its own: a workflow run keeps every edge's data in one flat array.
pub trait EdgeWeights<'de, E> {
    /// Called once before the first edge with the encoded edge count (`0`
    /// when the format does not say).
    fn reserve(&mut self, _edges: usize) {}

    /// Decodes the weight of the next edge.
    fn decode<D: Deserializer<'de>>(&mut self, deserializer: D) -> Result<E, D::Error>;
}

/// Edge weights decoded as themselves.
struct Plain;

impl<'de, E: Deserialize<'de>> EdgeWeights<'de, E> for Plain {
    fn decode<D: Deserializer<'de>>(&mut self, deserializer: D) -> Result<E, D::Error> {
        E::deserialize(deserializer)
    }
}

impl<N: Serialize, E: Serialize> Serialize for Digraph<N, E> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.serialize_with(serializer, |e| self.edge(e))
    }
}

impl<'de, N: Deserialize<'de>, E: Deserialize<'de>> Deserialize<'de> for Digraph<N, E> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Self::deserialize_with(deserializer, &mut Plain)
    }
}

impl<N: Serialize, E> Digraph<N, E> {
    /// Encodes the graph with `edge_weight(e)` in place of each edge's
    /// weight: the bytes of a graph whose edge weights are those values.
    pub fn serialize_with<S: Serializer, W: Serialize>(
        &self,
        serializer: S,
        edge_weight: impl Fn(EdgeId) -> W,
    ) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("Digraph", 2)?;
        st.serialize_field("nodes", &NodesOut(self))?;
        st.serialize_field("edges", &EdgesOut(self, &edge_weight, PhantomData))?;
        st.end()
    }
}

struct NodesOut<'a, N, E>(&'a Digraph<N, E>);

impl<N: Serialize, E> Serialize for NodesOut<'_, N, E> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let g = self.0;
        let mut seq = serializer.serialize_seq(Some(g.node_count()))?;
        for n in g.node_ids() {
            seq.serialize_element(&NodeOut(g, n))?;
        }
        seq.end()
    }
}

struct NodeOut<'a, N, E>(&'a Digraph<N, E>, NodeId);

impl<N: Serialize, E> Serialize for NodeOut<'_, N, E> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let NodeOut(g, n) = *self;
        let mut st = serializer.serialize_struct("NodeData", 3)?;
        st.serialize_field("weight", g.node(n))?;
        st.serialize_field("out_edges", &ListOut(|| g.out_edges(n)))?;
        st.serialize_field("in_edges", &ListOut(|| g.in_edges(n)))?;
        st.end()
    }
}

/// An adjacency list, encoded as a sequence of edge ids.
struct ListOut<F>(F);

impl<F: Fn() -> I, I: Iterator<Item = EdgeId>> Serialize for ListOut<F> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some((self.0)().count()))?;
        for e in (self.0)() {
            seq.serialize_element(&e)?;
        }
        seq.end()
    }
}

struct EdgesOut<'a, N, E, F, W>(&'a Digraph<N, E>, &'a F, PhantomData<fn() -> W>);

impl<N, E, F: Fn(EdgeId) -> W, W: Serialize> Serialize for EdgesOut<'_, N, E, F, W> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let g = self.0;
        let mut seq = serializer.serialize_seq(Some(g.edge_count()))?;
        for (e, source, target, _) in g.edges() {
            seq.serialize_element(&EdgeOut {
                weight: (self.1)(e),
                source,
                target,
            })?;
        }
        seq.end()
    }
}

#[derive(Serialize)]
struct EdgeOut<W> {
    weight: W,
    source: NodeId,
    target: NodeId,
}

impl<N, E> Digraph<N, E> {
    /// Decodes a graph whose edge weights `weights` decodes, one edge at a
    /// time in edge order (see [`EdgeWeights`]).
    ///
    /// The node weights and edges stream straight into the flat arrays, and
    /// the adjacency lists are derived from the edge list. The encoded
    /// lists are checked against them: bytes whose lists differ fail with
    /// [`ADJACENCY_MISMATCH`], and an edge whose endpoint is not a node
    /// with [`ENDPOINT_OUT_OF_RANGE`]. A graph decodes in a fixed number of
    /// allocations while its arrays fit [`serde::de::cautious_capacity`].
    pub fn deserialize_with<'de, D, W>(deserializer: D, weights: &mut W) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>,
        N: Deserialize<'de>,
        W: EdgeWeights<'de, E>,
    {
        deserializer.deserialize_struct(
            "Digraph",
            &["nodes", "edges"],
            GraphIn {
                weights,
                graph: PhantomData,
            },
        )
    }
}

/// Decoding state: the graph's arrays so far, and the encoded adjacency
/// lists, each a length followed by its edge ids, out-list then in-list
/// for each node in turn.
struct Decoding<N, E> {
    graph: Digraph<N, E>,
    lists: Vec<u32>,
}

struct GraphIn<'w, W, N, E> {
    weights: &'w mut W,
    graph: PhantomData<fn() -> (N, E)>,
}

impl<'de, N: Deserialize<'de>, E, W: EdgeWeights<'de, E>> Visitor<'de> for GraphIn<'_, W, N, E> {
    type Value = Digraph<N, E>;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a graph")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
        let mut d = Decoding {
            graph: Digraph::new(),
            lists: Vec::new(),
        };
        seq.next_element_seed(NodesIn(&mut d))?
            .ok_or_else(|| de::Error::invalid_length(0, "a graph"))?;
        seq.next_element_seed(EdgesIn(&mut d, self.weights))?
            .ok_or_else(|| de::Error::invalid_length(1, "a graph"))?;
        let Decoding { mut graph, lists } = d;
        graph.links = vec![Links::EMPTY; graph.weights.len()];
        for e in 0..graph.edges.len() as u32 {
            graph.link(e);
        }
        let mut encoded = lists.into_iter();
        for n in graph.node_ids() {
            if !same_list(&mut encoded, graph.out_edges(n))
                || !same_list(&mut encoded, graph.in_edges(n))
            {
                return Err(de::Error::custom(ADJACENCY_MISMATCH));
            }
        }
        Ok(graph)
    }
}

/// Whether the next list in `encoded` (its length, then its edge ids) is
/// `derived`.
fn same_list(
    encoded: &mut impl Iterator<Item = u32>,
    derived: impl Iterator<Item = EdgeId>,
) -> bool {
    let Some(len) = encoded.next() else {
        return false;
    };
    let mut count = 0;
    for e in derived {
        if count == len || encoded.next() != Some(e.0) {
            return false;
        }
        count += 1;
    }
    count == len
}

struct NodesIn<'a, N, E>(&'a mut Decoding<N, E>);

impl<'de, N: Deserialize<'de>, E> DeserializeSeed<'de> for NodesIn<'_, N, E> {
    type Value = ();

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
        deserializer.deserialize_seq(self)
    }
}

impl<'de, N: Deserialize<'de>, E> Visitor<'de> for NodesIn<'_, N, E> {
    type Value = ();

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a sequence of graph nodes")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let n = seq.size_hint().unwrap_or(0);
        let d = self.0;
        d.graph.weights.reserve_exact(cautious_capacity::<N>(n));
        // Two length words per node, and room for two edges per node on
        // each side. Generated runs need at most 4.52 words per node over
        // the `Scale::Paper` corpus (seed 1) and 5.99 on the 1,000-step
        // lattice; a denser graph grows the buffer as it decodes.
        d.lists
            .reserve_exact(cautious_capacity::<u32>(n.saturating_mul(6)));
        while let Some(weight) = seq.next_element_seed(NodeIn(&mut d.lists, PhantomData))? {
            d.graph.weights.push(weight);
        }
        Ok(())
    }
}

struct NodeIn<'a, N>(&'a mut Vec<u32>, PhantomData<fn() -> N>);

impl<'de, N: Deserialize<'de>> DeserializeSeed<'de> for NodeIn<'_, N> {
    type Value = N;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<N, D::Error> {
        deserializer.deserialize_struct("NodeData", &["weight", "out_edges", "in_edges"], self)
    }
}

impl<'de, N: Deserialize<'de>> Visitor<'de> for NodeIn<'_, N> {
    type Value = N;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a graph node")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<N, A::Error> {
        let weight = seq
            .next_element()?
            .ok_or_else(|| de::Error::invalid_length(0, "a graph node"))?;
        for i in 1..3 {
            seq.next_element_seed(ListIn(&mut *self.0))?
                .ok_or_else(|| de::Error::invalid_length(i, "a graph node"))?;
        }
        Ok(weight)
    }
}

/// One encoded adjacency list, appended to the decoding's lists.
struct ListIn<'a>(&'a mut Vec<u32>);

impl<'de> DeserializeSeed<'de> for ListIn<'_> {
    type Value = ();

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
        deserializer.deserialize_seq(self)
    }
}

impl<'de> Visitor<'de> for ListIn<'_> {
    type Value = ();

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a list of edge ids")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let at = self.0.len();
        self.0.push(0);
        while let Some(EdgeId(e)) = seq.next_element()? {
            self.0.push(e);
        }
        // A list longer than `u32::MAX` would not fit the graph anyway.
        self.0[at] = u32::try_from(self.0.len() - at - 1).unwrap_or(END);
        Ok(())
    }
}

struct EdgesIn<'a, 'w, N, E, W>(&'a mut Decoding<N, E>, &'w mut W);

impl<'de, N, E, W: EdgeWeights<'de, E>> DeserializeSeed<'de> for EdgesIn<'_, '_, N, E, W> {
    type Value = ();

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
        deserializer.deserialize_seq(self)
    }
}

impl<'de, N, E, W: EdgeWeights<'de, E>> Visitor<'de> for EdgesIn<'_, '_, N, E, W> {
    type Value = ();

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a sequence of graph edges")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let EdgesIn(d, weights) = self;
        let n = seq.size_hint().unwrap_or(0);
        d.graph
            .edges
            .reserve_exact(cautious_capacity::<EdgeData<E>>(n));
        weights.reserve(n);
        let nodes = d.graph.weights.len();
        while let Some(edge) = seq.next_element_seed(EdgeIn(&mut *weights, PhantomData))? {
            if edge.source.index() >= nodes || edge.target.index() >= nodes {
                return Err(de::Error::custom(ENDPOINT_OUT_OF_RANGE));
            }
            if d.graph.edges.len() >= END as usize {
                return Err(de::Error::custom("graph has too many edges"));
            }
            d.graph.edges.push(edge);
        }
        Ok(())
    }
}

struct EdgeIn<'w, W, E>(&'w mut W, PhantomData<fn() -> E>);

impl<'de, E, W: EdgeWeights<'de, E>> DeserializeSeed<'de> for EdgeIn<'_, W, E> {
    type Value = EdgeData<E>;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<EdgeData<E>, D::Error> {
        deserializer.deserialize_struct("EdgeData", &["weight", "source", "target"], self)
    }
}

impl<'de, E, W: EdgeWeights<'de, E>> Visitor<'de> for EdgeIn<'_, W, E> {
    type Value = EdgeData<E>;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a graph edge")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<EdgeData<E>, A::Error> {
        let missing = |i| de::Error::invalid_length(i, "a graph edge");
        let weight = seq
            .next_element_seed(WeightIn(self.0, PhantomData))?
            .ok_or_else(|| missing(0))?;
        let source = seq.next_element()?.ok_or_else(|| missing(1))?;
        let target = seq.next_element()?.ok_or_else(|| missing(2))?;
        Ok(EdgeData {
            source,
            target,
            next_out: END,
            next_in: END,
            weight,
        })
    }
}

struct WeightIn<'w, W, E>(&'w mut W, PhantomData<fn() -> E>);

impl<'de, E, W: EdgeWeights<'de, E>> DeserializeSeed<'de> for WeightIn<'_, W, E> {
    type Value = E;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<E, D::Error> {
        self.0.decode(deserializer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Digraph<&'static str, u32>, [NodeId; 4]) {
        // a -> b -> d, a -> c -> d
        let mut g = Digraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(a), "a");
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        let e = g.find_edge(c, d).unwrap();
        assert_eq!(*g.edge(e), 4);
        assert_eq!(g.endpoints(e), (c, d));
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: Digraph<(), u32> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(a, a, 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(b), 2);
        assert!(g.has_edge(a, a));
        assert_eq!(g.successors(a).filter(|&n| n == b).count(), 2);
    }

    #[test]
    fn map_preserves_structure() {
        let (g, [a, .., d]) = diamond();
        let h = g.map(|_, &n| n.to_uppercase(), |_, &w| w * 10);
        assert_eq!(h.node(a), "A");
        assert_eq!(*h.edge(EdgeId::from_index(3)), 40);
        assert_eq!(h.successors(a).count(), 2);
        assert_eq!(h.in_degree(d), 2);
    }

    #[test]
    fn reversed_flips_edges() {
        let (g, [a, b, _, d]) = diamond();
        let r = g.reversed();
        assert!(r.has_edge(b, a));
        assert!(!r.has_edge(a, b));
        assert_eq!(r.out_degree(d), 2);
        assert_eq!(r.in_degree(d), 0);
        // Edge ids are preserved, endpoints swapped.
        assert_eq!(r.endpoints(EdgeId::from_index(0)), (b, a));
    }

    #[test]
    fn node_edge_mut() {
        let (mut g, [a, ..]) = diamond();
        *g.node_mut(a) = "z";
        assert_eq!(*g.node(a), "z");
        let e = EdgeId::from_index(0);
        *g.edge_mut(e) = 99;
        assert_eq!(*g.edge(e), 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bad_endpoint_panics() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(7), ());
    }
}
