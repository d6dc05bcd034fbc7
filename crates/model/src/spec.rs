//! Workflow specifications (Section II of the paper).
//!
//! A specification is a directed graph `G_w(N, E)` whose nodes are uniquely
//! labeled modules plus two special nodes, `input` and `output`; every node
//! must lie on some path from `input` to `output`. Edges represent precedence
//! and potential dataflow. The graph may contain cycles (loops are unrolled
//! at execution time).

use crate::error::{ModelError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use zoom_graph::algo::paths::all_nodes_on_paths;
use zoom_graph::{Digraph, NodeId};

/// Coarse classification of a module's role. The paper motivates user views
/// by the observation that scientific workflows are dominated by formatting
/// tasks that are "unimportant in terms of the scientific goal"; the
/// synthetic-workflow generator uses this tag to model the biologist's choice
/// of relevant modules (UBio views flag the analysis modules).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// A scientifically meaningful task (alignment, tree building, curation…).
    #[default]
    Analysis,
    /// A formatting / plumbing task.
    Formatting,
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleKind::Analysis => write!(f, "analysis"),
            ModuleKind::Formatting => write!(f, "formatting"),
        }
    }
}

/// A node of the specification graph.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecNode {
    /// The distinguished source node `I`.
    Input,
    /// The distinguished sink node `O`.
    Output,
    /// A workflow module with a unique label.
    Module {
        /// Unique label, e.g. `"M3"` or `"Run alignment"`.
        label: String,
        /// Analysis vs. formatting classification.
        kind: ModuleKind,
    },
}

impl fmt::Display for SpecNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecNode::Input => write!(f, "input"),
            SpecNode::Output => write!(f, "output"),
            SpecNode::Module { label, .. } => write!(f, "{label}"),
        }
    }
}

/// A validated workflow specification.
///
/// Node ids are dense and stable: `input` is always node 0 and `output` node
/// 1, followed by the modules in insertion order. Modules are addressed by
/// [`NodeId`] in the rest of the workspace; labels are for humans.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkflowSpec {
    name: String,
    graph: Digraph<SpecNode, ()>,
    /// Ordered, so equal specs encode to equal bytes.
    by_label: BTreeMap<String, NodeId>,
}

impl WorkflowSpec {
    /// The specification's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying graph (nodes: input, output, modules).
    pub fn graph(&self) -> &Digraph<SpecNode, ()> {
        &self.graph
    }

    /// The distinguished `input` node (always node 0).
    pub fn input(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// The distinguished `output` node (always node 1).
    pub fn output(&self) -> NodeId {
        NodeId::from_index(1)
    }

    /// Returns `true` if `n` is a module (not `input`/`output`).
    pub fn is_module(&self, n: NodeId) -> bool {
        matches!(self.graph.node(n), SpecNode::Module { .. })
    }

    /// Iterates over the module nodes in insertion order.
    pub fn module_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids().filter(move |&n| self.is_module(n))
    }

    /// Number of modules (excluding input/output).
    pub fn module_count(&self) -> usize {
        self.graph.node_count() - 2
    }

    /// The label of a node (`"input"` / `"output"` for the special nodes).
    pub fn label(&self, n: NodeId) -> &str {
        match self.graph.node(n) {
            SpecNode::Input => "input",
            SpecNode::Output => "output",
            SpecNode::Module { label, .. } => label,
        }
    }

    /// The kind of a module node.
    ///
    /// # Panics
    /// Panics if `n` is the input or output node.
    pub fn kind(&self, n: NodeId) -> ModuleKind {
        match self.graph.node(n) {
            SpecNode::Module { kind, .. } => *kind,
            other => panic!("kind() called on special node {other}"),
        }
    }

    /// Looks a module (or `"input"`/`"output"`) up by label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        match label {
            "input" => Some(self.input()),
            "output" => Some(self.output()),
            _ => self.by_label.get(label).copied(),
        }
    }

    /// Looks a module up by label, erroring if absent.
    pub fn module(&self, label: &str) -> Result<NodeId> {
        self.by_label
            .get(label)
            .copied()
            .ok_or_else(|| ModelError::UnknownModule(label.to_string()))
    }

    /// Re-validates the structural invariants — used when a specification
    /// arrives from untrusted bytes (snapshot/journal deserialization)
    /// rather than through [`SpecBuilder`].
    pub fn validate(&self) -> Result<()> {
        if self.graph.node_count() < 2
            || !matches!(self.graph.node(NodeId::from_index(0)), SpecNode::Input)
            || !matches!(self.graph.node(NodeId::from_index(1)), SpecNode::Output)
        {
            return Err(ModelError::BadEndpointEdge(
                "missing input/output nodes".to_string(),
            ));
        }
        if self.module_count() == 0 {
            return Err(ModelError::EmptySpec);
        }
        // Labels: unique, consistent with the index, no extra specials.
        let mut seen = std::collections::HashSet::new();
        for n in self.graph.node_ids().skip(2) {
            let SpecNode::Module { label, .. } = self.graph.node(n) else {
                return Err(ModelError::BadEndpointEdge(format!(
                    "extra special node at {n:?}"
                )));
            };
            if label == "input" || label == "output" || !seen.insert(label.clone()) {
                return Err(ModelError::DuplicateModule(label.clone()));
            }
            if self.by_label.get(label) != Some(&n) {
                return Err(ModelError::UnknownModule(format!(
                    "label index out of sync for `{label}`"
                )));
            }
        }
        if self.by_label.len() != self.module_count() {
            return Err(ModelError::NotAPartition(
                "label index size mismatch".to_string(),
            ));
        }
        for (_, s, t, _) in self.graph.edges() {
            if t == self.input() || s == self.output() {
                return Err(ModelError::BadEndpointEdge(format!(
                    "edge {} -> {}",
                    self.label(s),
                    self.label(t)
                )));
            }
        }
        if !all_nodes_on_paths(&self.graph, self.input(), self.output()) {
            return Err(ModelError::NotOnInputOutputPath(
                "some node is off the input-output paths".to_string(),
            ));
        }
        Ok(())
    }

    /// Renders the specification as GraphViz DOT, shading the given set of
    /// relevant modules (as in the paper's Figure 1).
    pub fn to_dot(&self, relevant: &[NodeId]) -> String {
        use zoom_graph::dot::{to_dot, DotStyle};
        let style = DotStyle {
            node_label: Box::new(|_, n: &SpecNode| n.to_string()),
            node_attrs: Box::new(move |id, n: &SpecNode| match n {
                SpecNode::Input | SpecNode::Output => "shape=circle".to_string(),
                SpecNode::Module { .. } if relevant.contains(&id) => {
                    "shape=box,style=filled,fillcolor=gray".to_string()
                }
                SpecNode::Module { .. } => "shape=box".to_string(),
            }),
            edge_label: Box::new(|_, _| String::new()),
            graph_attrs: vec!["rankdir=LR".to_string()],
        };
        to_dot(&self.graph, &self.name, &style)
    }
}

/// Incremental builder for [`WorkflowSpec`].
///
/// Errors (duplicate labels, unknown endpoints) are deferred to
/// [`SpecBuilder::build`] so that construction code can chain calls freely.
///
/// ```
/// use zoom_model::SpecBuilder;
/// let mut b = SpecBuilder::new("align-and-report");
/// b.formatting("Format");
/// b.analysis("Align");
/// b.from_input("Format")
///     .edge("Format", "Align")
///     .edge("Align", "Align") // a reflexive refinement loop
///     .to_output("Align");
/// let spec = b.build().unwrap();
/// assert_eq!(spec.module_count(), 2);
/// ```
#[derive(Debug)]
pub struct SpecBuilder {
    name: String,
    graph: Digraph<SpecNode, ()>,
    by_label: BTreeMap<String, NodeId>,
    deferred: Vec<ModelError>,
}

impl SpecBuilder {
    /// Starts a new specification named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        let mut graph = Digraph::new();
        graph.add_node(SpecNode::Input);
        graph.add_node(SpecNode::Output);
        SpecBuilder {
            name: name.into(),
            graph,
            by_label: BTreeMap::new(),
            deferred: Vec::new(),
        }
    }

    /// Adds a module with the given label and kind; returns its node id.
    pub fn module(&mut self, label: impl Into<String>, kind: ModuleKind) -> NodeId {
        let label = label.into();
        if self.by_label.contains_key(&label) || label == "input" || label == "output" {
            self.deferred
                .push(ModelError::DuplicateModule(label.clone()));
        }
        let id = self.graph.add_node(SpecNode::Module {
            label: label.clone(),
            kind,
        });
        self.by_label.insert(label, id);
        id
    }

    /// Adds an analysis module (shorthand).
    pub fn analysis(&mut self, label: impl Into<String>) -> NodeId {
        self.module(label, ModuleKind::Analysis)
    }

    /// Adds a formatting module (shorthand).
    pub fn formatting(&mut self, label: impl Into<String>) -> NodeId {
        self.module(label, ModuleKind::Formatting)
    }

    fn resolve(&mut self, label: &str) -> Option<NodeId> {
        let id = match label {
            "input" => Some(NodeId::from_index(0)),
            "output" => Some(NodeId::from_index(1)),
            _ => self.by_label.get(label).copied(),
        };
        if id.is_none() {
            self.deferred
                .push(ModelError::UnknownModule(label.to_string()));
        }
        id
    }

    /// Adds an edge between two labeled nodes (labels `"input"`/`"output"`
    /// denote the special nodes). Duplicate edges are ignored.
    pub fn edge(&mut self, from: &str, to: &str) -> &mut Self {
        let (Some(a), Some(b)) = (self.resolve(from), self.resolve(to)) else {
            return self;
        };
        self.connect(a, b)
    }

    /// Adds an edge between two node ids. Duplicate edges are ignored.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        if to == NodeId::from_index(0) {
            self.deferred.push(ModelError::BadEndpointEdge(format!(
                "edge into input from {}",
                self.graph.node(from)
            )));
            return self;
        }
        if from == NodeId::from_index(1) {
            self.deferred.push(ModelError::BadEndpointEdge(format!(
                "edge out of output to {}",
                self.graph.node(to)
            )));
            return self;
        }
        if !self.graph.has_edge(from, to) {
            self.graph.add_edge(from, to, ());
        }
        self
    }

    /// Shorthand for `edge("input", m)`.
    pub fn from_input(&mut self, m: &str) -> &mut Self {
        self.edge("input", m)
    }

    /// Shorthand for `edge(m, "output")`.
    pub fn to_output(&mut self, m: &str) -> &mut Self {
        self.edge(m, "output")
    }

    /// Validates and finalizes the specification.
    pub fn build(self) -> Result<WorkflowSpec> {
        if let Some(e) = self.deferred.into_iter().next() {
            return Err(e);
        }
        if self.graph.node_count() <= 2 {
            return Err(ModelError::EmptySpec);
        }
        let input = NodeId::from_index(0);
        let output = NodeId::from_index(1);
        if !all_nodes_on_paths(&self.graph, input, output) {
            // Identify one offending node for the error message.
            let on = zoom_graph::algo::paths::nodes_on_paths(&self.graph, input, output);
            let bad = self
                .graph
                .node_ids()
                .find(|n| !on.contains(n.index()))
                .expect("some node is off the input-output paths");
            return Err(ModelError::NotOnInputOutputPath(
                self.graph.node(bad).to_string(),
            ));
        }
        Ok(WorkflowSpec {
            name: self.name,
            graph: self.graph,
            by_label: self.by_label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear3() -> WorkflowSpec {
        let mut b = SpecBuilder::new("linear");
        b.analysis("A");
        b.formatting("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .to_output("C");
        b.build().unwrap()
    }

    #[test]
    fn build_linear_spec() {
        let s = linear3();
        assert_eq!(s.name(), "linear");
        assert_eq!(s.module_count(), 3);
        let a = s.module("A").unwrap();
        assert_eq!(s.label(a), "A");
        assert_eq!(s.kind(a), ModuleKind::Analysis);
        let b = s.module("B").unwrap();
        assert_eq!(s.kind(b), ModuleKind::Formatting);
        assert!(s.graph().has_edge(s.input(), a));
        assert!(s.is_module(a));
        assert!(!s.is_module(s.input()));
        assert_eq!(s.node_by_label("input"), Some(s.input()));
        assert_eq!(s.node_by_label("nope"), None);
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = SpecBuilder::new("dup");
        b.analysis("A");
        b.analysis("A");
        b.from_input("A").to_output("A");
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::DuplicateModule("A".into())
        );
    }

    #[test]
    fn reserved_labels_rejected() {
        let mut b = SpecBuilder::new("bad");
        b.analysis("input");
        assert!(matches!(b.build(), Err(ModelError::DuplicateModule(_))));
    }

    #[test]
    fn unknown_module_in_edge() {
        let mut b = SpecBuilder::new("bad");
        b.analysis("A");
        b.from_input("A").edge("A", "Z").to_output("A");
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::UnknownModule("Z".into())
        );
    }

    #[test]
    fn dangling_module_rejected() {
        let mut b = SpecBuilder::new("dangling");
        b.analysis("A");
        b.analysis("Z");
        b.from_input("A").to_output("A").edge("A", "Z");
        // Z has no path to output.
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::NotOnInputOutputPath("Z".into())
        );
    }

    #[test]
    fn empty_spec_rejected() {
        assert_eq!(
            SpecBuilder::new("empty").build().unwrap_err(),
            ModelError::EmptySpec
        );
    }

    #[test]
    fn edges_into_input_or_out_of_output_rejected() {
        let mut b = SpecBuilder::new("bad");
        b.analysis("A");
        b.from_input("A").to_output("A").edge("A", "input");
        assert!(matches!(b.build(), Err(ModelError::BadEndpointEdge(_))));

        let mut b = SpecBuilder::new("bad2");
        b.analysis("A");
        b.from_input("A").to_output("A").edge("output", "A");
        assert!(matches!(b.build(), Err(ModelError::BadEndpointEdge(_))));
    }

    #[test]
    fn loops_are_allowed() {
        // A <-> B loop, as in the paper's M3-M5 alignment loop.
        let mut b = SpecBuilder::new("loopy");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "A")
            .to_output("A");
        let s = b.build().unwrap();
        assert_eq!(s.module_count(), 2);
    }

    #[test]
    fn self_loop_allowed() {
        let mut b = SpecBuilder::new("reflexive");
        b.analysis("A");
        b.from_input("A").edge("A", "A").to_output("A");
        assert!(b.build().is_ok());
    }

    #[test]
    fn duplicate_edges_deduped() {
        let mut b = SpecBuilder::new("dedup");
        b.analysis("A");
        b.from_input("A").from_input("A").to_output("A");
        let s = b.build().unwrap();
        assert_eq!(s.graph().edge_count(), 2);
    }

    #[test]
    fn dot_renders_relevant_shading() {
        let s = linear3();
        let a = s.module("A").unwrap();
        let dot = s.to_dot(&[a]);
        assert!(dot.contains("fillcolor=gray"));
        assert!(dot.contains("label=\"A\""));
        assert!(dot.contains("label=\"input\""));
    }
}
