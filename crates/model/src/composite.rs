//! Composite executions (Section II): the run as seen through a user view.
//!
//! "The execution of consecutive steps within the same composite module
//! causes a virtual execution of the composite step." We materialize this as
//! a [`ViewRun`]: the run graph whose nodes are *composite executions* —
//! weakly-connected groups of steps belonging to the same composite module —
//! and whose edges carry only the data passed **between** composite
//! executions. Data passed between steps inside one composite execution is
//! hidden, which is exactly how user views restrict provenance.
//!
//! On the paper's Figure 2 with Joe's view, the three steps of `M10`'s loop
//! collapse into one virtual execution `S13` (input `{d308..d408}`, output
//! `{d413}`); with Mary's view, `M11` yields two virtual executions `S11`
//! and `S12` because the loop leaves the composite through `M5` and
//! re-enters.
//!
//! Design note: a *singleton* composite (one module, as every composite of
//! UAdmin) whose execution group is a single step keeps the original step
//! id, so UAdmin's view-run is the run itself. Virtual executions get fresh
//! ids numbered after the run's largest step id, in order of their smallest
//! member step.

use crate::ids::{CompositeId, DataId, StepId};
use crate::run::{RunNode, WorkflowRun};
use crate::spec::WorkflowSpec;
use crate::view::UserView;
use std::collections::hash_map::Entry;
use zoom_graph::fxhash::FxHashMap;
use zoom_graph::{Digraph, NodeId};

/// One (possibly virtual) execution of a composite module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeExecution {
    /// The execution's step id — original for singleton groups of singleton
    /// composites, fresh ("virtual") otherwise.
    pub id: StepId,
    /// The composite module this is an execution of.
    pub composite: CompositeId,
    /// The member steps, sorted.
    pub members: Vec<StepId>,
    /// Whether the id is virtual (constructed, not present in the log).
    pub is_virtual: bool,
}

/// A node of a view-run graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewRunNode {
    /// Beginning of the execution.
    Input,
    /// End of the execution.
    Output,
    /// A composite execution (index into [`ViewRun::execs`]).
    Exec(u32),
}

/// Marks "no composite / no execution" in the dense per-node arrays.
const NONE: u32 = u32::MAX;

/// A workflow run projected through a user view.
#[derive(Clone, Debug)]
pub struct ViewRun {
    spec_name: String,
    view_name: String,
    execs: Vec<CompositeExecution>,
    graph: Digraph<ViewRunNode, Vec<DataId>>,
    /// Execution index of every run-graph node, indexed by run node
    /// ([`NONE`] for the input and output nodes).
    exec_of_node: Vec<u32>,
    /// `(id, execution index)` sorted by id: one entry per member step,
    /// then one per virtual execution (whose ids all follow the largest
    /// step id). Answers both [`Self::exec_of_step`] and
    /// [`Self::exec_index_by_id`] by binary search.
    exec_of_id: Vec<(StepId, u32)>,
    /// Producing view-graph node for every *visible* data object.
    producer: FxHashMap<DataId, NodeId>,
}

impl ViewRun {
    /// Projects `run` through `view`.
    ///
    /// # Panics
    /// Panics if `run` and `view` do not belong to the same specification
    /// (callers go through the warehouse or [`crate::spec::WorkflowSpec`]
    /// APIs which guarantee this).
    pub fn new(run: &WorkflowRun, view: &UserView) -> Self {
        assert_eq!(
            run.spec_name(),
            view.spec_name(),
            "run and view must be over the same specification"
        );
        let composites = view.composites();
        let multi_module = |c: u32| composites[c as usize].members.len() > 1;

        // --- 1. Composite and step id of every step node, in dense arrays.
        let module_span = composites
            .iter()
            .flat_map(|c| &c.members)
            .map(|m| m.index() + 1)
            .max()
            .unwrap_or(0);
        let mut comp_of_module = vec![NONE; module_span];
        for (c, comp) in composites.iter().enumerate() {
            for m in &comp.members {
                comp_of_module[m.index()] = c as u32;
            }
        }
        let rg = run.graph();
        let n = rg.node_count();
        let mut comp_of_node = vec![NONE; n];
        let mut step_of_node = vec![StepId(0); n];
        let mut step_nodes: Vec<usize> = Vec::with_capacity(n);
        for (node, weight) in rg.nodes() {
            if let RunNode::Step { id, module } = weight {
                let c = comp_of_module.get(module.index()).copied();
                comp_of_node[node.index()] = c
                    .filter(|&c| c != NONE)
                    .expect("every module of the run belongs to a composite of the view");
                step_of_node[node.index()] = *id;
                step_nodes.push(node.index());
            }
        }

        // --- 2. Union-find over step nodes. Steps group only within
        // *composite* modules proper — a singleton composite is the module
        // itself, so its steps (e.g. the unrolled iterations of a reflexive
        // loop) stay separate. This keeps UAdmin ("no composite modules")
        // the finest level: its view-run is exactly the run.
        let mut uf = UnionFind::new(n);
        for (_, s, t, _) in rg.edges() {
            let (cs, ct) = (comp_of_node[s.index()], comp_of_node[t.index()]);
            if cs != NONE && cs == ct && multi_module(cs) {
                uf.union(s.index(), t.index());
            }
        }

        // --- 3. Groups, numbered in order of smallest member step id:
        // visiting steps by id, a group's index is fixed by its first
        // member.
        step_nodes.sort_unstable_by_key(|&i| step_of_node[i]);
        let mut group_of_root = vec![NONE; n];
        let mut exec_of_node = vec![NONE; n];
        let mut first_node: Vec<usize> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        for &i in &step_nodes {
            let root = uf.find(i);
            if group_of_root[root] == NONE {
                group_of_root[root] = first_node.len() as u32;
                first_node.push(i);
                sizes.push(0);
            }
            let g = group_of_root[root];
            exec_of_node[i] = g;
            sizes[g as usize] += 1;
        }

        // --- 4. Execution ids: original for a singleton group of a
        // singleton composite, fresh after the largest step id otherwise.
        let max_step = step_nodes.last().map_or(0, |&i| step_of_node[i].0);
        let mut next_virtual = max_step + 1;
        let mut execs: Vec<CompositeExecution> = first_node
            .iter()
            .zip(&sizes)
            .map(|(&i, &size)| {
                let composite = comp_of_node[i];
                let is_virtual = size > 1 || multi_module(composite);
                let id = if is_virtual {
                    next_virtual += 1;
                    StepId(next_virtual - 1)
                } else {
                    step_of_node[i]
                };
                CompositeExecution {
                    id,
                    composite: CompositeId(composite),
                    members: Vec::with_capacity(size as usize),
                    is_virtual,
                }
            })
            .collect();
        let virtuals = (next_virtual - max_step - 1) as usize;
        let mut exec_of_id: Vec<(StepId, u32)> = Vec::with_capacity(step_nodes.len() + virtuals);
        for &i in &step_nodes {
            let g = exec_of_node[i];
            execs[g as usize].members.push(step_of_node[i]);
            exec_of_id.push((step_of_node[i], g));
        }
        // Virtual ids all exceed the largest step id, and rise in execution
        // order, so appending them keeps the table sorted.
        exec_of_id.extend(
            (0..execs.len() as u32)
                .filter(|&g| execs[g as usize].is_virtual)
                .map(|g| (execs[g as usize].id, g)),
        );

        // --- 5. Build the view graph with merged boundary edges.
        let mut graph: Digraph<ViewRunNode, Vec<DataId>> =
            Digraph::with_capacity(execs.len() + 2, rg.edge_count());
        let vin = graph.add_node(ViewRunNode::Input);
        let vout = graph.add_node(ViewRunNode::Output);
        for i in 0..execs.len() {
            graph.add_node(ViewRunNode::Exec(i as u32));
        }
        let map = |node: NodeId| -> NodeId {
            match exec_of_node[node.index()] {
                NONE if node == run.input() => vin,
                NONE => vout,
                i => NodeId::from_index(i as usize + 2),
            }
        };
        let mut slot_of_pair: FxHashMap<(NodeId, NodeId), u32> = FxHashMap::default();
        slot_of_pair.reserve(rg.edge_count());
        let mut merged: Vec<(NodeId, NodeId, Vec<DataId>)> = Vec::new();
        let mut carried = 0;
        for (_, s, t, data) in rg.edges() {
            let (vs, vt) = (map(s), map(t));
            if vs == vt {
                continue; // internal to a composite execution: hidden
            }
            carried += data.len();
            match slot_of_pair.entry((vs, vt)) {
                Entry::Occupied(slot) => merged[*slot.get() as usize].2.extend_from_slice(data),
                Entry::Vacant(slot) => {
                    slot.insert(merged.len() as u32);
                    merged.push((vs, vt, data.clone()));
                }
            }
        }
        let mut producer: FxHashMap<DataId, NodeId> = FxHashMap::default();
        producer.reserve(carried);
        for (vs, vt, mut data) in merged {
            data.sort_unstable();
            data.dedup();
            for &d in &data {
                producer.insert(d, vs);
            }
            graph.add_edge(vs, vt, data);
        }
        // `carried` counts a datum once per consuming edge; keep only the
        // table its distinct data need.
        producer.shrink_to_fit();

        ViewRun {
            spec_name: run.spec_name().to_string(),
            view_name: view.name().to_string(),
            execs,
            graph,
            exec_of_node,
            exec_of_id,
            producer,
        }
    }

    /// The specification's name.
    pub fn spec_name(&self) -> &str {
        &self.spec_name
    }

    /// The view's name.
    pub fn view_name(&self) -> &str {
        &self.view_name
    }

    /// The composite executions, ordered by smallest member step.
    pub fn execs(&self) -> &[CompositeExecution] {
        &self.execs
    }

    /// The view-level run graph.
    pub fn graph(&self) -> &Digraph<ViewRunNode, Vec<DataId>> {
        &self.graph
    }

    /// The input node (always node 0).
    pub fn input(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// The output node (always node 1).
    pub fn output(&self) -> NodeId {
        NodeId::from_index(1)
    }

    /// The view-graph node of execution index `i`.
    pub fn node_of_exec(&self, i: u32) -> NodeId {
        NodeId::from_index(i as usize + 2)
    }

    /// The execution at a view-graph node, if it is one.
    pub fn exec_at(&self, n: NodeId) -> Option<&CompositeExecution> {
        match self.graph.node(n) {
            ViewRunNode::Exec(i) => Some(&self.execs[*i as usize]),
            _ => None,
        }
    }

    /// The composite execution containing run-graph node `n` — the
    /// dense form of [`Self::exec_of_step`] for callers walking the run
    /// graph. `None` for the input/output nodes and for nodes the run this
    /// view-run was built from does not have.
    #[inline]
    pub fn exec_at_run_node(&self, n: NodeId) -> Option<&CompositeExecution> {
        let &i = self.exec_of_node.get(n.index())?;
        self.execs.get(i as usize)
    }

    /// The `exec_of_id` entry for `id`, a step id or a virtual id.
    fn exec_index_of(&self, id: StepId) -> Option<u32> {
        let pos = self
            .exec_of_id
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()?;
        Some(self.exec_of_id[pos].1)
    }

    /// The composite execution containing original step `s`.
    pub fn exec_of_step(&self, s: StepId) -> Option<&CompositeExecution> {
        let e = &self.execs[self.exec_index_of(s)? as usize];
        // A virtual id shares the table but names no member step.
        (!e.is_virtual || e.id != s).then_some(e)
    }

    /// Finds an execution by its (possibly virtual) id.
    pub fn exec_by_id(&self, id: StepId) -> Option<&CompositeExecution> {
        self.exec_index_by_id(id).map(|i| &self.execs[i as usize])
    }

    /// The position of the execution with (possibly virtual) id `id` — the
    /// index [`Self::node_of_exec`] expects. A virtual id has its own table
    /// entry; an original id `s` is its execution's single member, so it is
    /// found through `s`'s entry.
    pub fn exec_index_by_id(&self, id: StepId) -> Option<u32> {
        let i = self.exec_index_of(id)?;
        (self.execs[i as usize].id == id).then_some(i)
    }

    /// The data input to execution `i`: union of its incoming edges, sorted.
    pub fn inputs_of(&self, i: u32) -> Vec<DataId> {
        let n = self.node_of_exec(i);
        let mut v: Vec<DataId> = self
            .graph
            .in_edges(n)
            .flat_map(|e| self.graph.edge(e).iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The data output by execution `i`: union of its outgoing edges, sorted.
    pub fn outputs_of(&self, i: u32) -> Vec<DataId> {
        let n = self.node_of_exec(i);
        let mut v: Vec<DataId> = self
            .graph
            .out_edges(n)
            .flat_map(|e| self.graph.edge(e).iter().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// All data visible at this view level, sorted. Data passed strictly
    /// inside a composite execution is *not* visible.
    pub fn visible_data(&self) -> Vec<DataId> {
        let mut v: Vec<DataId> = self.producer.keys().copied().collect();
        v.sort();
        v
    }

    /// Whether `d` is visible at this view level.
    pub fn is_visible(&self, d: DataId) -> bool {
        self.producer.contains_key(&d)
    }

    /// The view-graph node that produced visible datum `d`.
    pub fn producer_node(&self, d: DataId) -> Option<NodeId> {
        self.producer.get(&d).copied()
    }

    /// Renders the view-run as DOT, labeling executions `S13:M10`-style.
    pub fn to_dot(&self, spec: &WorkflowSpec, view: &UserView) -> String {
        use crate::run::format_data_range;
        use zoom_graph::dot::{to_dot, DotStyle};
        let _ = spec;
        let style = DotStyle {
            node_label: Box::new(move |_, n: &ViewRunNode| match n {
                ViewRunNode::Input => "input".to_string(),
                ViewRunNode::Output => "output".to_string(),
                ViewRunNode::Exec(i) => {
                    let e = &self.execs[*i as usize];
                    format!("{}:{}", e.id, view.composite_name(e.composite))
                }
            }),
            node_attrs: Box::new(|_, n: &ViewRunNode| match n {
                ViewRunNode::Input | ViewRunNode::Output => "shape=circle".to_string(),
                ViewRunNode::Exec(_) => "shape=box,style=dotted".to_string(),
            }),
            edge_label: Box::new(|_, data: &Vec<DataId>| format_data_range(data)),
            graph_attrs: vec!["rankdir=LR".to_string()],
        };
        to_dot(
            &self.graph,
            &format!("{} through {}", self.spec_name, self.view_name),
            &style,
        )
    }
}

/// Minimal union-find with path halving and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use crate::spec::SpecBuilder;
    use crate::view::CompositeModule;

    /// input -> A -> B -> C -> output with loop C -> B (the M3/M5 shape).
    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("s");
        b.analysis("A");
        b.analysis("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .edge("C", "B")
            .to_output("C");
        b.build().unwrap()
    }

    /// A run unrolling the B/C loop twice:
    /// S1:A -> S2:B -> S3:C -> S4:B -> S5:C -> output
    fn run(s: &WorkflowSpec) -> WorkflowRun {
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let mut rb = RunBuilder::new(s);
        let s1 = rb.step(a);
        let s2 = rb.step(b);
        let s3 = rb.step(c);
        let s4 = rb.step(b);
        let s5 = rb.step(c);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s2, s3, [3])
            .data_edge(s3, s4, [4])
            .data_edge(s4, s5, [5])
            .output_edge(s5, [6]);
        rb.build().unwrap()
    }

    #[test]
    fn admin_view_run_is_the_run() {
        let s = spec();
        let r = run(&s);
        let v = UserView::admin(&s);
        let vr = ViewRun::new(&r, &v);
        assert_eq!(vr.execs().len(), r.step_count());
        assert!(vr.execs().iter().all(|e| !e.is_virtual));
        assert!(vr.execs().iter().all(|e| e.members == vec![e.id]));
        assert_eq!(vr.visible_data().len(), r.data_count());
        assert_eq!(vr.graph().edge_count(), r.graph().edge_count());
    }

    #[test]
    fn blackbox_hides_everything_internal() {
        let s = spec();
        let r = run(&s);
        let v = UserView::black_box(&s);
        let vr = ViewRun::new(&r, &v);
        assert_eq!(vr.execs().len(), 1);
        let e = &vr.execs()[0];
        assert!(e.is_virtual);
        assert_eq!(e.id, StepId(6)); // fresh, after max step id 5
        assert_eq!(e.members.len(), 5);
        // Only the initial input and the final output are visible.
        assert_eq!(vr.visible_data(), vec![DataId(1), DataId(6)]);
        assert_eq!(vr.inputs_of(0), vec![DataId(1)]);
        assert_eq!(vr.outputs_of(0), vec![DataId(6)]);
    }

    #[test]
    fn loop_leaving_composite_splits_executions() {
        // Composite {A, B}: the loop goes B -> C -> B, leaving through C, so
        // B's two steps do NOT merge: groups {S1,S2}, {S4}.
        let s = spec();
        let r = run(&s);
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let v = UserView::new(
            "v",
            &s,
            vec![
                CompositeModule::new("AB", vec![a, b]),
                CompositeModule::new("C", vec![c]),
            ],
        )
        .unwrap();
        let vr = ViewRun::new(&r, &v);
        assert_eq!(vr.execs().len(), 4);
        let e0 = vr.exec_of_step(StepId(1)).unwrap();
        assert_eq!(e0.members, vec![StepId(1), StepId(2)]);
        assert!(e0.is_virtual);
        assert_eq!(e0.id, StepId(6));
        let e1 = vr.exec_of_step(StepId(4)).unwrap();
        assert_eq!(e1.members, vec![StepId(4)]);
        // Single-step group of a multi-module composite is still virtual.
        assert!(e1.is_virtual);
        assert_eq!(e1.id, StepId(7));
        // C's steps keep their original ids (singleton composite).
        let e2 = vr.exec_of_step(StepId(3)).unwrap();
        assert_eq!(e2.id, StepId(3));
        assert!(!e2.is_virtual);
        // d2 (A->B inside the composite) is hidden.
        assert!(!vr.is_visible(DataId(2)));
        assert!(vr.is_visible(DataId(3)));
    }

    #[test]
    fn loop_inside_composite_merges_executions() {
        // Composite {B, C}: the whole loop is internal, one execution.
        let s = spec();
        let r = run(&s);
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let v = UserView::new(
            "v",
            &s,
            vec![
                CompositeModule::new("A", vec![a]),
                CompositeModule::new("BC", vec![b, c]),
            ],
        )
        .unwrap();
        let vr = ViewRun::new(&r, &v);
        assert_eq!(vr.execs().len(), 2);
        let e = vr.exec_of_step(StepId(2)).unwrap();
        assert_eq!(e.members, vec![StepId(2), StepId(3), StepId(4), StepId(5)]);
        assert_eq!(vr.inputs_of(1), vec![DataId(2)]);
        assert_eq!(vr.outputs_of(1), vec![DataId(6)]);
        // The looping (d3, d4, d5) is invisible.
        assert_eq!(vr.visible_data(), vec![DataId(1), DataId(2), DataId(6)]);
    }

    #[test]
    fn parallel_executions_stay_separate() {
        // spec: input -> A -> {B, B'} -> C -> output where two B-steps run in
        // parallel with no edge between them: they form two executions.
        let mut sb = SpecBuilder::new("par");
        sb.analysis("A");
        sb.analysis("B");
        sb.analysis("C");
        sb.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
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
        let s3 = rb.step(b);
        let s4 = rb.step(c);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s1, s3, [3])
            .data_edge(s2, s4, [4])
            .data_edge(s3, s4, [5])
            .output_edge(s4, [6]);
        let r = rb.build().unwrap();
        let v = UserView::admin(&s);
        let vr = ViewRun::new(&r, &v);
        let eb1 = vr.exec_of_step(s2).unwrap();
        let eb2 = vr.exec_of_step(s3).unwrap();
        assert_ne!(eb1.id, eb2.id);
        assert_eq!(vr.execs().len(), 4);
    }

    #[test]
    fn exec_lookup_apis() {
        let s = spec();
        let r = run(&s);
        let v = UserView::black_box(&s);
        let vr = ViewRun::new(&r, &v);
        assert!(vr.exec_by_id(StepId(6)).is_some());
        assert!(vr.exec_by_id(StepId(1)).is_none());
        assert_eq!(vr.producer_node(DataId(1)), Some(vr.input()));
        let e = vr.exec_by_id(StepId(6)).unwrap();
        assert_eq!(vr.producer_node(DataId(6)), Some(vr.node_of_exec(0)));
        assert_eq!(e.composite, CompositeId(0));
        assert!(vr.exec_at(vr.node_of_exec(0)).is_some());
        assert!(vr.exec_at(vr.input()).is_none());
    }

    #[test]
    fn dot_rendering_shows_virtual_ids() {
        let s = spec();
        let r = run(&s);
        let v = UserView::black_box(&s);
        let vr = ViewRun::new(&r, &v);
        let dot = vr.to_dot(&s, &v);
        assert!(dot.contains("S6:s-blackbox"));
        assert!(dot.contains("style=dotted"));
    }
}
