//! Composite executions (Section II): the run as seen through a user view.
//!
//! "The execution of consecutive steps within the same composite module
//! causes a virtual execution of the composite step." We materialize this as
//! a [`ViewRun`]: the run's steps grouped into *composite executions* —
//! weakly-connected groups of steps belonging to the same composite module.
//! Data passed between different composite executions is visible; data
//! passed only inside one is hidden, which is exactly how user views
//! restrict provenance.
//!
//! On the paper's Figure 2 with Joe's view, the three steps of `M10`'s loop
//! collapse into one virtual execution `S13` (input `{d308..d408}`, output
//! `{d413}`); with Mary's view, `M11` yields two virtual executions `S11`
//! and `S12` because the loop leaves the composite through `M5` and
//! re-enters.
//!
//! A view-run stores only what depends on the view, in flat arrays: the
//! execution table, the execution of every run node, and one visibility
//! bit per edge-data slot of the run ([`WorkflowRun::edge_slots`]). It
//! copies no data: producers, execution inputs and outputs and the data
//! between two executions are derived on demand from the run it was built
//! from, which every such method takes.
//!
//! Design note: a *singleton* composite (one module, as every composite of
//! UAdmin) whose execution group is a single step keeps the original step
//! id, so UAdmin's view-run is the run itself. Virtual executions get fresh
//! ids numbered after the run's largest step id, in order of their smallest
//! member step.

use crate::ids::{CompositeId, DataId, StepId};
use crate::run::{RunNode, WorkflowRun};
use crate::view::UserView;
use zoom_graph::{BitSet, NodeId};

/// One (possibly virtual) execution of a composite module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompositeExecution<'a> {
    /// The execution's step id — original for singleton groups of singleton
    /// composites, fresh ("virtual") otherwise.
    pub id: StepId,
    /// The composite module this is an execution of.
    pub composite: CompositeId,
    /// The member steps, sorted.
    pub members: &'a [StepId],
    /// Whether the id is virtual (constructed, not present in the log).
    pub is_virtual: bool,
}

/// Marks "no execution" in [`ViewRun::exec_of_node`].
const NONE: u32 = u32::MAX;

/// Flags a virtual execution in [`ViewRun::heads`].
const VIRTUAL: u32 = 1 << 31;

/// A workflow run projected through a user view.
#[derive(Clone, Debug)]
pub struct ViewRun {
    /// Per execution, ordered by smallest member step: its id and its
    /// composite, with [`VIRTUAL`] set for a virtual execution.
    heads: Vec<(StepId, u32)>,
    /// Execution `i`'s members are `members[member_start[i]..member_start[i + 1]]`.
    member_start: Vec<u32>,
    /// Every execution's member steps, sorted within each execution.
    members: Vec<StepId>,
    /// Execution index of every run-graph node, indexed by run node
    /// ([`NONE`] for the input and output nodes).
    exec_of_node: Vec<u32>,
    /// `(id, execution index)` sorted by id: one entry per member step,
    /// then one per virtual execution (whose ids all follow the largest
    /// step id). Answers both [`Self::exec_of_step`] and
    /// [`Self::exec_index_by_id`] by binary search.
    exec_of_id: Vec<(StepId, u32)>,
    /// Visibility of every edge-data slot of the run. A datum's slots all
    /// lie on its producer's out-edges and share one bit value: set when
    /// some edge carrying it joins two different executions.
    visible: BitSet,
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
        let rg = run.graph();
        let n = rg.node_count();
        let composite_at = |node: NodeId| match rg.node(node) {
            RunNode::Step { module, .. } => {
                view.try_composite_of(*module)
                    .expect("every module of the run belongs to a composite of the view")
                    .0
            }
            _ => NONE,
        };
        let multi_module = |c: u32| view.members(CompositeId(c)).len() > 1;

        // --- 1. Steps in id order, as `(id, run node)`; the entries become
        // `(id, execution)` once the executions are numbered.
        let mut exec_of_id: Vec<(StepId, u32)> = Vec::with_capacity(run.step_count());
        exec_of_id.extend(rg.nodes().filter_map(|(node, w)| match w {
            RunNode::Step { id, .. } => Some((*id, node.index() as u32)),
            _ => None,
        }));
        exec_of_id.sort_unstable_by_key(|&(id, _)| id);

        // --- 2. Union-find over step nodes. Steps group only within
        // *composite* modules proper — a singleton composite is the module
        // itself, so its steps (e.g. the unrolled iterations of a reflexive
        // loop) stay separate. This keeps UAdmin ("no composite modules")
        // the finest level: its view-run is exactly the run.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for (_, s, t, _) in rg.edges() {
            let c = composite_at(s);
            if c != NONE && c == composite_at(t) && multi_module(c) {
                let (rs, rt) = (find(&mut parent, s.index()), find(&mut parent, t.index()));
                parent[rs.max(rt) as usize] = rs.min(rt);
            }
        }

        // --- 3. Executions, numbered in order of smallest member step id:
        // visiting steps by id, a group's index is fixed by its first
        // member (recorded at its union-find root).
        let mut exec_of_node = vec![NONE; n];
        let mut execs = 0u32;
        for &(_, node) in &exec_of_id {
            let root = find(&mut parent, node as usize) as usize;
            if exec_of_node[root] == NONE {
                exec_of_node[root] = execs;
                execs += 1;
            }
            exec_of_node[node as usize] = exec_of_node[root];
        }

        // --- 4. The execution table in CSR form. A head is first written
        // by its smallest member; ids are original for a singleton group of
        // a singleton composite, fresh after the largest step id otherwise.
        let mut heads = vec![(StepId(0), NONE); execs as usize];
        let mut member_start = vec![0u32; execs as usize + 1];
        for &(id, node) in &exec_of_id {
            let g = exec_of_node[node as usize] as usize;
            if heads[g].1 == NONE {
                heads[g] = (id, composite_at(NodeId::from_index(node as usize)));
            }
            member_start[g + 1] += 1;
        }
        let max_step = exec_of_id.last().map_or(0, |&(id, _)| id.0);
        let mut next_virtual = max_step;
        for (g, (id, composite)) in heads.iter_mut().enumerate() {
            member_start[g + 1] += member_start[g];
            if member_start[g + 1] - member_start[g] > 1 || multi_module(*composite) {
                next_virtual += 1;
                (*id, *composite) = (StepId(next_virtual), *composite | VIRTUAL);
            }
        }
        // The union-find forest is spent: reuse it as the fill cursors.
        let cursor = &mut parent[..heads.len()];
        cursor.copy_from_slice(&member_start[..heads.len()]);
        let mut members = vec![StepId(0); exec_of_id.len()];
        for entry in &mut exec_of_id {
            let g = exec_of_node[entry.1 as usize];
            members[cursor[g as usize] as usize] = entry.0;
            cursor[g as usize] += 1;
            entry.1 = g;
        }
        // Virtual ids all exceed the largest step id, and rise in execution
        // order, so appending them keeps the table sorted.
        exec_of_id.reserve_exact((next_virtual - max_step) as usize);
        exec_of_id.extend(
            (0..execs)
                .filter(|&g| heads[g as usize].1 & VIRTUAL != 0)
                .map(|g| (heads[g as usize].0, g)),
        );

        let mut vr = ViewRun {
            heads,
            member_start,
            members,
            exec_of_node,
            exec_of_id,
            visible: BitSet::new(0),
        };
        vr.visible = vr.visibility(run);
        vr
    }

    /// Step 5 of [`ViewRun::new`]: the visible slots. An edge between two
    /// different view nodes shows all its data; a datum on an internal edge
    /// is still visible when another out-edge of its producer shows it.
    fn visibility(&self, run: &WorkflowRun) -> BitSet {
        let rg = run.graph();
        let mut visible = BitSet::new(run.slot_count());
        for s in rg.node_ids() {
            let vs = self.view_node(run, s);
            let crosses = |t| self.view_node(run, t) != vs;
            if !rg.out_edges(s).any(|e| crosses(rg.target(e))) {
                continue;
            }
            for e in rg.out_edges(s) {
                if crosses(rg.target(e)) {
                    visible.insert_range(run.edge_slots(e));
                    continue;
                }
                for (slot, d) in run.edge_slots(e).zip(run.edge_data(e)) {
                    if rg
                        .out_edges(s)
                        .any(|f| crosses(rg.target(f)) && run.edge_data(f).binary_search(d).is_ok())
                    {
                        visible.insert(slot);
                    }
                }
            }
        }
        visible
    }

    /// The number of composite executions.
    pub fn exec_count(&self) -> usize {
        self.heads.len()
    }

    /// Execution `i` (an index below [`Self::exec_count`]).
    #[inline]
    pub fn exec(&self, i: u32) -> CompositeExecution<'_> {
        let i = i as usize;
        let (id, composite) = self.heads[i];
        CompositeExecution {
            id,
            composite: CompositeId(composite & !VIRTUAL),
            members: &self.members
                [self.member_start[i] as usize..self.member_start[i + 1] as usize],
            is_virtual: composite & VIRTUAL != 0,
        }
    }

    /// The composite executions, ordered by smallest member step.
    pub fn execs(&self) -> impl ExactSizeIterator<Item = CompositeExecution<'_>> + '_ {
        (0..self.heads.len() as u32).map(|i| self.exec(i))
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

    /// The index of the execution at a view-graph node, if it is one.
    pub fn exec_index_at(&self, n: NodeId) -> Option<u32> {
        let i = n.index().checked_sub(2)?;
        (i < self.heads.len()).then_some(i as u32)
    }

    /// The execution at a view-graph node, if it is one.
    pub fn exec_at(&self, n: NodeId) -> Option<CompositeExecution<'_>> {
        self.exec_index_at(n).map(|i| self.exec(i))
    }

    /// The composite execution containing run-graph node `n` — the
    /// dense form of [`Self::exec_of_step`] for callers walking the run
    /// graph. `None` for the input/output nodes and for nodes the run this
    /// view-run was built from does not have.
    #[inline]
    pub fn exec_at_run_node(&self, n: NodeId) -> Option<CompositeExecution<'_>> {
        self.exec_index_at_run_node(n).map(|i| self.exec(i))
    }

    /// The index of the execution containing run-graph node `n`: `None`
    /// for the input/output nodes and for nodes the run this view-run was
    /// built from does not have.
    #[inline]
    pub fn exec_index_at_run_node(&self, n: NodeId) -> Option<u32> {
        self.exec_of_node
            .get(n.index())
            .copied()
            .filter(|&i| i != NONE)
    }

    /// The view-graph node of run-graph node `n`: the input, the output,
    /// or the node of its execution.
    pub fn view_node(&self, run: &WorkflowRun, n: NodeId) -> NodeId {
        match self.exec_of_node.get(n.index()) {
            Some(&i) if i != NONE => self.node_of_exec(i),
            _ if n == run.input() => self.input(),
            _ => self.output(),
        }
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
    pub fn exec_of_step(&self, s: StepId) -> Option<CompositeExecution<'_>> {
        let e = self.exec(self.exec_index_of(s)?);
        // A virtual id shares the table but names no member step.
        (!e.is_virtual || e.id != s).then_some(e)
    }

    /// Finds an execution by its (possibly virtual) id.
    pub fn exec_by_id(&self, id: StepId) -> Option<CompositeExecution<'_>> {
        self.exec_index_by_id(id).map(|i| self.exec(i))
    }

    /// The position of the execution with (possibly virtual) id `id` — the
    /// index [`Self::node_of_exec`] expects. A virtual id has its own table
    /// entry; an original id `s` is its execution's single member, so it is
    /// found through `s`'s entry.
    pub fn exec_index_by_id(&self, id: StepId) -> Option<u32> {
        let i = self.exec_index_of(id)?;
        (self.heads[i as usize].0 == id).then_some(i)
    }

    /// Whether this view-run's tables fit `run` (same node and slot
    /// counts): a necessary condition for having been built from it.
    pub fn fits(&self, run: &WorkflowRun) -> bool {
        self.exec_of_node.len() == run.graph().node_count()
            && self.visible.len() == run.slot_count()
    }

    /// The visibility bits, one per edge-data slot of the run: the
    /// projection ors them into its answer a word at a time.
    pub fn visible_slots(&self) -> &BitSet {
        &self.visible
    }

    /// The run-graph node that produced `d` and `d`'s canonical slot
    /// ([`WorkflowRun::producer_slot`]), if `d` is visible at this view
    /// level.
    pub fn visible_producer_slot(&self, run: &WorkflowRun, d: DataId) -> Option<(NodeId, usize)> {
        let (p, slot) = run.producer_slot(d)?;
        self.visible.contains(slot).then_some((p, slot))
    }

    /// The run-graph node that produced `d`, if `d` is visible at this
    /// view level.
    pub fn visible_run_producer(&self, run: &WorkflowRun, d: DataId) -> Option<NodeId> {
        self.visible_producer_slot(run, d).map(|(p, _)| p)
    }

    /// The view-graph node that produced visible datum `d`.
    pub fn producer_node(&self, run: &WorkflowRun, d: DataId) -> Option<NodeId> {
        Some(self.view_node(run, self.visible_run_producer(run, d)?))
    }

    /// Whether `d` is visible at this view level.
    pub fn is_visible(&self, run: &WorkflowRun, d: DataId) -> bool {
        self.visible_run_producer(run, d).is_some()
    }

    /// All data visible at this view level, sorted. Data passed strictly
    /// inside a composite execution is *not* visible.
    pub fn visible_data(&self, run: &WorkflowRun) -> Vec<DataId> {
        let mut v: Vec<DataId> = run
            .slot_data()
            .iter()
            .enumerate()
            .filter(|&(slot, _)| self.visible.contains(slot))
            .map(|(_, &d)| d)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The data input to execution `i`: union of its incoming edges, sorted.
    pub fn inputs_of(&self, run: &WorkflowRun, i: u32) -> Vec<DataId> {
        self.boundary_data(run, self.node_of_exec(i), false, None)
    }

    /// The data output by execution `i`: union of its outgoing edges, sorted.
    pub fn outputs_of(&self, run: &WorkflowRun, i: u32) -> Vec<DataId> {
        self.boundary_data(run, self.node_of_exec(i), true, None)
    }

    /// The data passed from view node `a` to view node `b`, sorted; empty
    /// when no edge joins them.
    pub fn data_between(&self, run: &WorkflowRun, a: NodeId, b: NodeId) -> Vec<DataId> {
        self.boundary_data(run, a, true, Some(b))
    }

    /// The data on the run edges leaving (`outgoing`) or entering view node
    /// `v` from another view node — only from `far` when given — sorted.
    fn boundary_data(
        &self,
        run: &WorkflowRun,
        v: NodeId,
        outgoing: bool,
        far: Option<NodeId>,
    ) -> Vec<DataId> {
        let rg = run.graph();
        let endpoint = match v.index() {
            0 => Some(run.input()),
            1 => Some(run.output()),
            _ => None,
        };
        let members = self.exec_at(v).map_or(&[][..], |e| e.members);
        let nodes = endpoint
            .into_iter()
            .chain(members.iter().filter_map(|&s| run.node_of_step(s).ok()));
        let mut out: Vec<DataId> = Vec::new();
        for n in nodes {
            let edges =
                (rg.out_edges(n).filter(|_| outgoing)).chain(rg.in_edges(n).filter(|_| !outgoing));
            for e in edges {
                let (s, t) = rg.endpoints(e);
                let other = self.view_node(run, if outgoing { t } else { s });
                if other != v && far.is_none_or(|f| f == other) {
                    out.extend_from_slice(run.edge_data(e));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Union-find root of `x`, with path halving.
fn find(parent: &mut [u32], mut x: usize) -> u32 {
    while parent[x] as usize != x {
        parent[x] = parent[parent[x] as usize];
        x = parent[x] as usize;
    }
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use crate::spec::SpecBuilder;
    use crate::spec::WorkflowSpec;
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
        assert_eq!(vr.exec_count(), r.step_count());
        assert!(vr.execs().all(|e| !e.is_virtual));
        assert!(vr.execs().all(|e| e.members == vec![e.id]));
        assert_eq!(vr.visible_data(&r).len(), r.data_count());
        // Every run edge joins two different view nodes.
        assert!(r
            .graph()
            .edges()
            .all(|(_, s, t, _)| vr.view_node(&r, s) != vr.view_node(&r, t)));
    }

    #[test]
    fn blackbox_hides_everything_internal() {
        let s = spec();
        let r = run(&s);
        let v = UserView::black_box(&s);
        let vr = ViewRun::new(&r, &v);
        assert_eq!(vr.exec_count(), 1);
        let e = vr.exec(0);
        assert!(e.is_virtual);
        assert_eq!(e.id, StepId(6)); // fresh, after max step id 5
        assert_eq!(e.members.len(), 5);
        // Only the initial input and the final output are visible.
        assert_eq!(vr.visible_data(&r), vec![DataId(1), DataId(6)]);
        assert_eq!(vr.inputs_of(&r, 0), vec![DataId(1)]);
        assert_eq!(vr.outputs_of(&r, 0), vec![DataId(6)]);
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
        assert_eq!(vr.exec_count(), 4);
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
        assert!(!vr.is_visible(&r, DataId(2)));
        assert!(vr.is_visible(&r, DataId(3)));
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
        assert_eq!(vr.exec_count(), 2);
        let e = vr.exec_of_step(StepId(2)).unwrap();
        assert_eq!(e.members, vec![StepId(2), StepId(3), StepId(4), StepId(5)]);
        assert_eq!(vr.inputs_of(&r, 1), vec![DataId(2)]);
        assert_eq!(vr.outputs_of(&r, 1), vec![DataId(6)]);
        // The looping (d3, d4, d5) is invisible.
        assert_eq!(vr.visible_data(&r), vec![DataId(1), DataId(2), DataId(6)]);
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
        assert_eq!(vr.exec_count(), 4);
    }

    #[test]
    fn exec_lookup_apis() {
        let s = spec();
        let r = run(&s);
        let v = UserView::black_box(&s);
        let vr = ViewRun::new(&r, &v);
        assert!(vr.exec_by_id(StepId(6)).is_some());
        assert!(vr.exec_by_id(StepId(1)).is_none());
        assert_eq!(vr.producer_node(&r, DataId(1)), Some(vr.input()));
        let e = vr.exec_by_id(StepId(6)).unwrap();
        assert_eq!(vr.producer_node(&r, DataId(6)), Some(vr.node_of_exec(0)));
        assert_eq!(e.composite, CompositeId(0));
        assert!(vr.exec_at(vr.node_of_exec(0)).is_some());
        assert!(vr.exec_at(vr.input()).is_none());
    }
}
