//! Tree-cover reachability labels over a run DAG.
//!
//! The bitset [`ProvenanceIndex`](crate::ProvenanceIndex) stores two full
//! closure rows per node — `O(n²/64)` words — which caps the warehouse far
//! below the 100k–1M-step target. This module trades that for the labeling
//! scheme of the paper's follow-up line (Bao & Davidson, *Labeling Workflow
//! Views with Fine-Grained Dependencies*): every node carries a small set
//! of *post-order intervals* over a spanning forest of the run graph, such
//! that
//!
//! ```text
//! reaches(u, v)  ⇔  post(v) ∈ label(u)
//! ```
//!
//! exactly. A node's tree-descendants form one contiguous interval for
//! free; non-tree edges contribute the (already compact) labels of their
//! targets, and adjacent/overlapping intervals merge on union, so the
//! common workflow shapes — chains, fan-outs, series-parallel lattices —
//! keep one or two intervals per node and total memory `O(n · avg_labels)`.
//! Membership is a binary search; enumerating a closure walks the
//! intervals through the `node_of_post` permutation in `O(answer)`,
//! pruning every subtree whose interval proves non-membership without
//! ever touching it.
//!
//! [`LabelIndex::append_node`] extends the index *incrementally*: an
//! appended step becomes a fresh singleton root in both forests (no
//! renumbering, ever), its labels are unions of its neighbors' labels,
//! and only the nodes that actually gain reachability — its ancestors and
//! descendants — are touched: `O(affected)` instead of a full rebuild.
//! [`LabelIndex::update_to`] wraps that with a cheap staleness check,
//! falling back to a rebuild when the new graph is not a pure extension
//! or when repeated appends have fragmented the labels.

use crate::index::IndexBuildError;
use crate::resilience::{Deadline, Interrupt};
use zoom_graph::algo::topo::topological_sort;
use zoom_graph::{spanning_forest_postorder, Digraph, Direction, IntervalSet, NodeId, PostOrder};
use zoom_model::{ModelError, WorkflowRun};

/// Labels above this many intervals per node (on average, with slack)
/// trigger a rebuild in [`LabelIndex::update_to`]: fresh builds of
/// workflow-shaped DAGs sit near 1–2 intervals/node, so crossing this
/// line means incremental appends have fragmented the index enough that
/// re-deriving the spanning forest pays for itself.
pub const FRAGMENTATION_FACTOR: usize = 8;
const FRAGMENTATION_SLACK: usize = 1024;

/// How [`LabelIndex::update_to`] reconciled the index with a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The graph was unchanged; nothing to do.
    Fresh,
    /// The graph was a pure extension: this many nodes were appended
    /// incrementally in `O(affected)`.
    Appended(usize),
    /// The staleness check failed (non-extension change, or fragmented
    /// labels) and the index was rebuilt from scratch.
    Rebuilt,
}

/// One direction's labels: a spanning-forest post-order plus, per node,
/// the canonical interval set covering exactly its closure.
#[derive(Clone, Debug)]
struct DirLabels {
    /// `post[v]` — post-order number of node `v`.
    post: Vec<u32>,
    /// `node_of_post[p]` — inverse permutation of `post`.
    node_of_post: Vec<u32>,
    /// `labels[v]` — exactly `{post(x) : v reaches x}` (including `v`).
    labels: Vec<IntervalSet>,
}

impl DirLabels {
    /// Builds labels for `dir` in one pass over `order` (a topological
    /// order of the graph): each node's label is its tree-cover interval
    /// unioned with the labels of its already-processed dir-successors.
    fn build<N, E>(
        g: &Digraph<N, E>,
        order: &[NodeId],
        dir: Direction,
        deadline: &mut Deadline,
    ) -> Result<Self, Interrupt> {
        let po: PostOrder = spanning_forest_postorder(g, dir);
        let n = g.node_count();
        let mut labels = vec![IntervalSet::new(); n];
        // Descendant labels need successors done first (reverse topo);
        // ancestor labels need predecessors done first (forward topo).
        let order_iter: Box<dyn Iterator<Item = &NodeId>> = match dir {
            Direction::Forward => Box::new(order.iter().rev()),
            Direction::Backward => Box::new(order.iter()),
        };
        for &v in order_iter {
            deadline.tick()?;
            let (lo, hi) = po.interval(v.index());
            let mut set = IntervalSet::of(lo, hi);
            match dir {
                Direction::Forward => {
                    for s in g.successors(v) {
                        set.union_with(&labels[s.index()]);
                    }
                }
                Direction::Backward => {
                    for p in g.predecessors(v) {
                        set.union_with(&labels[p.index()]);
                    }
                }
            }
            labels[v.index()] = set;
        }
        Ok(DirLabels {
            post: po.post,
            node_of_post: po.node_of_post,
            labels,
        })
    }

    /// Appends a node as a singleton root with the given in-closure
    /// sources (`from`, the nodes whose closures the new node inherits),
    /// returning the new node's label. Propagation to the rest of the
    /// graph is the caller's job ([`LabelIndex::append_node`]).
    fn push_singleton(&mut self, from: &[usize]) -> IntervalSet {
        let p = self.node_of_post.len() as u32;
        let v = self.labels.len() as u32;
        self.post.push(p);
        self.node_of_post.push(v);
        let mut set = IntervalSet::of(p, p);
        for &s in from {
            set.union_with(&self.labels[s]);
        }
        self.labels.push(set.clone());
        set
    }

    fn reaches(&self, u: usize, v: usize) -> bool {
        self.labels[u].contains(self.post[v])
    }

    /// Nodes covered by `set`, in post-order. Whole non-member subtrees
    /// fall between intervals and are skipped without being visited.
    fn members<'a>(&'a self, set: &'a IntervalSet) -> impl Iterator<Item = usize> + 'a {
        set.points()
            .map(move |p| self.node_of_post[p as usize] as usize)
    }

    fn closure(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.members(&self.labels[v])
    }

    fn interval_count(&self) -> u64 {
        self.labels.iter().map(|l| l.len() as u64).sum()
    }

    fn heap_bytes(&self) -> usize {
        let fixed = (self.post.capacity() + self.node_of_post.capacity())
            * std::mem::size_of::<u32>()
            + self.labels.capacity() * std::mem::size_of::<IntervalSet>();
        fixed
            + self
                .labels
                .iter()
                .map(IntervalSet::heap_bytes)
                .sum::<usize>()
    }
}

/// Interval reachability labels for one run DAG, both directions.
///
/// `anc` answers deep provenance (who does this node depend on?), `desc`
/// answers forward provenance (who depends on it?). Both include the node
/// itself, mirroring the bitset index's row convention.
#[derive(Clone, Debug)]
pub struct LabelIndex {
    anc: DirLabels,
    desc: DirLabels,
    nodes: usize,
    edges: usize,
}

impl LabelIndex {
    /// Builds both directions for `run`'s graph.
    ///
    /// Returns [`ModelError::RunHasCycle`] if the run graph is cyclic
    /// (possible only for hand-loaded or corrupted stores — validated
    /// runs never are).
    pub fn build(run: &WorkflowRun) -> Result<Self, ModelError> {
        Self::build_deadline(run, &mut Deadline::unlimited()).map_err(|e| match e {
            IndexBuildError::Cycle => ModelError::RunHasCycle,
            IndexBuildError::Interrupted(_) => unreachable!("unlimited deadline never interrupts"),
        })
    }

    /// [`LabelIndex::build`] under an execution budget: both label passes
    /// poll `deadline` per node, exactly like the bitset index's build.
    pub fn build_deadline(
        run: &WorkflowRun,
        deadline: &mut Deadline,
    ) -> Result<Self, IndexBuildError> {
        Self::build_graph(run.graph(), deadline)
    }

    /// Graph-level constructor (the run-level forms delegate here; tests
    /// and benchmarks use it on raw DAGs).
    pub fn build_graph<N, E>(
        g: &Digraph<N, E>,
        deadline: &mut Deadline,
    ) -> Result<Self, IndexBuildError> {
        let order = topological_sort(g).ok_or(IndexBuildError::Cycle)?;
        let desc = DirLabels::build(g, &order, Direction::Forward, deadline)?;
        let anc = DirLabels::build(g, &order, Direction::Backward, deadline)?;
        Ok(LabelIndex {
            anc,
            desc,
            nodes: g.node_count(),
            edges: g.edge_count(),
        })
    }

    /// Whether `u` reaches `v` along run-graph edges (reflexively):
    /// one binary search over `u`'s descendant label.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.desc.reaches(u.index(), v.index())
    }

    /// The backward closure of `n` — itself plus every node it
    /// transitively depends on — enumerated in `O(answer)`.
    pub fn ancestors_of(&self, n: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.anc.closure(n.index())
    }

    /// The forward closure of `n` — itself plus every node derived from
    /// it — enumerated in `O(answer)`.
    pub fn descendants_of(&self, n: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.desc.closure(n.index())
    }

    /// Number of indexed run-graph nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of indexed run-graph edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Total intervals across both directions — the scheme's native size
    /// measure (`O(n · avg_labels)` memory).
    pub fn interval_count(&self) -> u64 {
        self.anc.interval_count() + self.desc.interval_count()
    }

    /// Resident bytes: permutations, label vectors, and interval heap.
    pub fn memory_bytes(&self) -> usize {
        self.anc.heap_bytes() + self.desc.heap_bytes() + std::mem::size_of::<Self>()
    }

    /// Power-of-two histogram of per-node label sizes (both directions):
    /// bucket `i` counts labels with `len` in `[2^(i-1), 2^i)` — bucket 0
    /// is empty labels, the last bucket absorbs the tail.
    pub fn label_count_histogram(&self) -> [u64; 16] {
        let mut hist = [0u64; 16];
        for l in self.anc.labels.iter().chain(self.desc.labels.iter()) {
            let bucket = (usize::BITS - l.len().leading_zeros()) as usize;
            hist[bucket.min(15)] += 1;
        }
        hist
    }

    /// Appends one node with edges `preds → v` and `v → succs`, updating
    /// labels in `O(|ancestors| + |descendants|)` interval-merge work.
    ///
    /// The new node is a *singleton root* in both spanning forests with a
    /// fresh maximal post number, so no existing interval is renumbered:
    /// its ancestor label is the union of its predecessors' (plus
    /// itself), its descendant label the union of its successors' (plus
    /// itself), and exactly the nodes that gained reachability — members
    /// of those two labels — absorb the opposite label. The result is
    /// *exact*, not approximate; repeated appends can only cost extra
    /// intervals (fragmentation), never wrong answers.
    ///
    /// Panics if any endpoint index is out of range or would create an
    /// obvious cycle (`preds`/`succs` containing the new node itself).
    pub fn append_node(&mut self, preds: &[usize], succs: &[usize]) -> usize {
        let v = self.nodes;
        assert!(
            preds.iter().chain(succs.iter()).all(|&x| x < v),
            "append_node endpoints must be existing nodes"
        );
        let anc_label = self.anc.push_singleton(preds);
        let desc_label = self.desc.push_singleton(succs);

        // Every proper ancestor now also reaches everything v reaches;
        // every proper descendant is now also reached from everything
        // that reaches v. (A node cannot be both — that would close a
        // cycle through v.)
        for a in self.anc.members(&anc_label).collect::<Vec<_>>() {
            if a != v {
                self.desc.labels[a].union_with(&desc_label);
            }
        }
        for d in self.desc.members(&desc_label).collect::<Vec<_>>() {
            if d != v {
                self.anc.labels[d].union_with(&anc_label);
            }
        }
        self.nodes += 1;
        self.edges += preds.len() + succs.len();
        v
    }

    /// Reconciles the index with `g`: a no-op if unchanged, incremental
    /// [`append_node`](Self::append_node) calls if `g` is a pure
    /// extension (new nodes appended after all old ones, every new edge
    /// incident to a new node, new-new edges respecting index order), a
    /// full rebuild otherwise — or when accumulated appends have
    /// fragmented labels past [`FRAGMENTATION_FACTOR`].
    pub fn update_to<N, E>(
        &mut self,
        g: &Digraph<N, E>,
        deadline: &mut Deadline,
    ) -> Result<UpdateOutcome, IndexBuildError> {
        let (n_old, e_old) = (self.nodes, self.edges);
        let (n_new, e_new) = (g.node_count(), g.edge_count());
        if n_new == n_old && e_new == e_old {
            return Ok(UpdateOutcome::Fresh);
        }
        if self.extension_plan(g, n_old, e_old).is_some() {
            let mut appended = 0;
            for v in n_old..n_new {
                deadline.tick()?;
                let vid = NodeId::from_index(v);
                let preds: Vec<usize> = g.predecessors(vid).map(NodeId::index).collect();
                // New→new edges are applied once, as the *target's* preds
                // (extension_plan guarantees the target comes later).
                let succs: Vec<usize> = g
                    .successors(vid)
                    .map(NodeId::index)
                    .filter(|&t| t < n_old)
                    .collect();
                self.append_node(&preds, &succs);
                appended += 1;
            }
            debug_assert_eq!((self.nodes, self.edges), (n_new, e_new));
            let budget =
                FRAGMENTATION_FACTOR as u64 * 2 * n_new as u64 + FRAGMENTATION_SLACK as u64;
            if self.interval_count() <= budget {
                return Ok(UpdateOutcome::Appended(appended));
            }
        }
        *self = Self::build_graph(g, deadline)?;
        Ok(UpdateOutcome::Rebuilt)
    }

    /// `Some(())` iff `g` extends the indexed graph append-only: node and
    /// edge counts grew, every new edge touches a new node, each new
    /// node's in-neighbors precede it, and its out-neighbors are either
    /// old nodes or later new nodes. Any old→old insertion (which could
    /// invalidate intervals) fails the check.
    fn extension_plan<N, E>(&self, g: &Digraph<N, E>, n_old: usize, e_old: usize) -> Option<()> {
        let (n_new, e_new) = (g.node_count(), g.edge_count());
        if n_new < n_old || e_new < e_old || (n_new == n_old && e_new != e_old) {
            return None;
        }
        let mut incident = 0usize;
        for v in n_old..n_new {
            let vid = NodeId::from_index(v);
            for p in g.predecessors(vid) {
                if p.index() >= v {
                    return None; // new in-edge from a later node: not appendable in order
                }
                incident += 1;
            }
            for s in g.successors(vid) {
                let t = s.index();
                if t >= n_old {
                    if t <= v {
                        return None; // self-loop or back edge among new nodes
                    }
                    // Counted once, as the target's in-edge.
                } else {
                    incident += 1;
                }
            }
        }
        // Any remaining new edge must be old→old: intervals invalid.
        (e_old + incident == e_new).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_graph::reachable_set;

    fn dag(n: usize, edges: &[(usize, usize)]) -> Digraph<(), ()> {
        let mut g = Digraph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for &(a, b) in edges {
            g.add_edge(ids[a], ids[b], ());
        }
        g
    }

    fn assert_matches_bfs(idx: &LabelIndex, g: &Digraph<(), ()>) {
        for u in g.node_ids() {
            let fwd = reachable_set(g, u, Direction::Forward);
            let bwd = reachable_set(g, u, Direction::Backward);
            for v in g.node_ids() {
                assert_eq!(
                    idx.reaches(u, v),
                    fwd.contains(v.index()),
                    "reaches({u:?},{v:?}) diverges from BFS"
                );
            }
            let mut descs: Vec<usize> = idx.descendants_of(u).collect();
            descs.sort_unstable();
            assert_eq!(descs, fwd.iter().collect::<Vec<_>>());
            let mut ancs: Vec<usize> = idx.ancestors_of(u).collect();
            ancs.sort_unstable();
            assert_eq!(ancs, bwd.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn diamond_with_shortcut_is_exact() {
        // 0→1→3, 0→2→3, plus shortcut 0→3 and a stray 1→4.
        let g = dag(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 3), (1, 4)]);
        let idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
        assert_matches_bfs(&idx, &g);
        assert_eq!(idx.node_count(), 5);
        assert_eq!(idx.edge_count(), 6);
        assert!(idx.interval_count() >= 10); // every node has itself
    }

    #[test]
    fn chain_labels_stay_one_interval() {
        let n = 200;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = dag(n, &edges);
        let idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
        // A chain is a single tree path in both directions: exactly one
        // interval per node per direction.
        assert_eq!(idx.interval_count(), 2 * n as u64);
        assert!(idx.reaches(NodeId::from_index(0), NodeId::from_index(n - 1)));
        assert!(!idx.reaches(NodeId::from_index(n - 1), NodeId::from_index(0)));
        assert_eq!(idx.descendants_of(NodeId::from_index(0)).count(), n);
    }

    #[test]
    fn cycle_is_rejected() {
        let g = dag(2, &[(0, 1), (1, 0)]);
        assert!(matches!(
            LabelIndex::build_graph(&g, &mut Deadline::unlimited()),
            Err(IndexBuildError::Cycle)
        ));
    }

    #[test]
    fn single_node_graph() {
        let g = dag(1, &[]);
        let idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
        let n0 = NodeId::from_index(0);
        assert!(idx.reaches(n0, n0));
        assert_eq!(idx.ancestors_of(n0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(idx.descendants_of(n0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn append_matches_scratch_build() {
        // Grow 0→1→2 with node 3 (preds {1}, succs {2}) — a mid-insertion
        // by reachability, an append by construction order.
        let mut g = dag(3, &[(0, 1), (1, 2)]);
        let mut idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
        let n3 = g.add_node(());
        g.add_edge(NodeId::from_index(1), n3, ());
        g.add_edge(n3, NodeId::from_index(2), ());
        let v = idx.append_node(&[1], &[2]);
        assert_eq!(v, 3);
        assert_matches_bfs(&idx, &g);
        assert_eq!(idx.edge_count(), g.edge_count());
    }

    #[test]
    fn update_to_classifies_changes() {
        let mut g = dag(3, &[(0, 1), (1, 2)]);
        let mut idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
        let mut dl = Deadline::unlimited();

        assert_eq!(
            idx.update_to(&g, &mut dl).expect("ok"),
            UpdateOutcome::Fresh
        );

        // Pure extension: two appended sink steps.
        let n3 = g.add_node(());
        g.add_edge(NodeId::from_index(2), n3, ());
        let n4 = g.add_node(());
        g.add_edge(n3, n4, ());
        g.add_edge(NodeId::from_index(0), n4, ());
        assert_eq!(
            idx.update_to(&g, &mut dl).expect("ok"),
            UpdateOutcome::Appended(2)
        );
        assert_matches_bfs(&idx, &g);

        // An old→old edge insertion invalidates intervals: rebuild.
        g.add_edge(NodeId::from_index(0), NodeId::from_index(2), ());
        assert_eq!(
            idx.update_to(&g, &mut dl).expect("ok"),
            UpdateOutcome::Rebuilt
        );
        assert_matches_bfs(&idx, &g);
    }

    #[test]
    fn append_is_cheaper_than_rebuild() {
        // Appending a sink to an n-chain is O(ancestors) constant-time
        // interval pushes (the fast append path of `union_with`), never a
        // forest rebuild. The singleton-root scheme pays in
        // fragmentation: each proper ancestor's descendant label gains
        // one extra interval (its old posts are far from the fresh max),
        // except the root whose label was already contiguous to the end.
        let n = 500;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = dag(n, &edges);
        let mut idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
        assert_eq!(idx.interval_count(), 2 * n as u64);
        idx.append_node(&[n - 1], &[]);
        assert_eq!(idx.interval_count(), 2 * (n as u64 + 1) + (n as u64 - 1));
        assert!(idx.reaches(NodeId::from_index(0), NodeId::from_index(n)));
    }

    #[test]
    fn build_respects_deadline() {
        let n = 600; // > CHECK_STRIDE so the strided poll fires
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = dag(n, &edges);
        let mut dl = Deadline::at(std::time::Instant::now());
        assert!(matches!(
            LabelIndex::build_graph(&g, &mut dl),
            Err(IndexBuildError::Interrupted(Interrupt::DeadlineExceeded))
        ));
    }
}
