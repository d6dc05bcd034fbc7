//! Breadth-first and depth-first traversal over [`Digraph`]s.

use crate::bitset::BitSet;
use crate::digraph::{Digraph, NodeId};
use std::collections::VecDeque;

/// Direction of traversal relative to edge orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges source → target.
    Forward,
    /// Follow edges target → source.
    Backward,
}

/// A breadth-first iterator over the nodes reachable from a set of roots.
///
/// Yields each node exactly once, roots first, in BFS layer order.
pub struct Bfs {
    queue: VecDeque<NodeId>,
    seen: BitSet,
    dir: Direction,
}

impl Bfs {
    /// Starts a forward BFS from a single root.
    pub fn new<N, E>(graph: &Digraph<N, E>, root: NodeId) -> Self {
        Self::with_direction(graph, [root], Direction::Forward)
    }

    /// Starts a BFS in the given direction from multiple roots.
    pub fn with_direction<N, E>(
        graph: &Digraph<N, E>,
        roots: impl IntoIterator<Item = NodeId>,
        dir: Direction,
    ) -> Self {
        let mut seen = BitSet::new(graph.node_count());
        // Each node enters the queue at most once.
        let mut queue = VecDeque::with_capacity(graph.node_count());
        for r in roots {
            if seen.insert(r.index()) {
                queue.push_back(r);
            }
        }
        Bfs { queue, seen, dir }
    }

    /// Advances the traversal by one node.
    pub fn next<N, E>(&mut self, graph: &Digraph<N, E>) -> Option<NodeId> {
        let n = self.queue.pop_front()?;
        let push = |queue: &mut VecDeque<NodeId>, seen: &mut BitSet, m: NodeId| {
            if seen.insert(m.index()) {
                queue.push_back(m);
            }
        };
        match self.dir {
            Direction::Forward => {
                for m in graph.successors(n) {
                    push(&mut self.queue, &mut self.seen, m);
                }
            }
            Direction::Backward => {
                for m in graph.predecessors(n) {
                    push(&mut self.queue, &mut self.seen, m);
                }
            }
        }
        Some(n)
    }

    /// Drains the traversal into a vector.
    pub fn collect<N, E>(mut self, graph: &Digraph<N, E>) -> Vec<NodeId> {
        let mut out = Vec::new();
        while let Some(n) = self.next(graph) {
            out.push(n);
        }
        out
    }
}

/// A depth-first iterator (preorder) over the nodes reachable from a root.
pub struct Dfs {
    stack: Vec<NodeId>,
    seen: BitSet,
    dir: Direction,
}

impl Dfs {
    /// Starts a forward DFS from a single root.
    pub fn new<N, E>(graph: &Digraph<N, E>, root: NodeId) -> Self {
        Self::with_direction(graph, root, Direction::Forward)
    }

    /// Starts a DFS in the given direction.
    pub fn with_direction<N, E>(graph: &Digraph<N, E>, root: NodeId, dir: Direction) -> Self {
        let mut seen = BitSet::new(graph.node_count());
        seen.insert(root.index());
        Dfs {
            stack: vec![root],
            seen,
            dir,
        }
    }

    /// Advances the traversal by one node (preorder).
    pub fn next<N, E>(&mut self, graph: &Digraph<N, E>) -> Option<NodeId> {
        let n = self.stack.pop()?;
        match self.dir {
            Direction::Forward => {
                for m in graph.successors(n) {
                    if self.seen.insert(m.index()) {
                        self.stack.push(m);
                    }
                }
            }
            Direction::Backward => {
                for m in graph.predecessors(n) {
                    if self.seen.insert(m.index()) {
                        self.stack.push(m);
                    }
                }
            }
        }
        Some(n)
    }
}

/// The set of nodes reachable from `root` (including `root`) following `dir`.
pub fn reachable_set<N, E>(graph: &Digraph<N, E>, root: NodeId, dir: Direction) -> BitSet {
    let mut bfs = Bfs::with_direction(graph, [root], dir);
    while bfs.next(graph).is_some() {}
    bfs.seen
}

/// The set of nodes reachable from `root` without traversing *through*
/// disallowed intermediate nodes.
///
/// This is the primitive behind the paper's *nr-paths* (Section III): a path
/// counts only if every **intermediate** node satisfies `allow_intermediate`.
/// The root and the reached endpoints themselves are unconstrained: a node is
/// included in the result as soon as a qualifying path reaches it, but the
/// traversal only continues *through* it if `allow_intermediate` holds.
///
/// The returned set does not contain `root` unless a qualifying nontrivial
/// cycle returns to it.
pub fn constrained_reachable_set<N, E>(
    graph: &Digraph<N, E>,
    root: NodeId,
    dir: Direction,
    mut allow_intermediate: impl FnMut(NodeId) -> bool,
) -> BitSet {
    let mut reached = BitSet::new(graph.node_count());
    let mut expanded = BitSet::new(graph.node_count());
    let mut queue = VecDeque::with_capacity(graph.node_count());
    queue.push_back(root);
    expanded.insert(root.index());
    while let Some(n) = queue.pop_front() {
        let step = |m: NodeId,
                    reached: &mut BitSet,
                    expanded: &mut BitSet,
                    queue: &mut VecDeque<NodeId>,
                    allow: &mut dyn FnMut(NodeId) -> bool| {
            reached.insert(m.index());
            if allow(m) && expanded.insert(m.index()) {
                queue.push_back(m);
            }
        };
        match dir {
            Direction::Forward => {
                for m in graph.successors(n) {
                    step(
                        m,
                        &mut reached,
                        &mut expanded,
                        &mut queue,
                        &mut allow_intermediate,
                    );
                }
            }
            Direction::Backward => {
                for m in graph.predecessors(n) {
                    step(
                        m,
                        &mut reached,
                        &mut expanded,
                        &mut queue,
                        &mut allow_intermediate,
                    );
                }
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 2 -> 4, 0 -> 3 -> 4, 5 isolated
    fn g() -> Digraph<(), ()> {
        let mut g = Digraph::new();
        let n: Vec<NodeId> = (0..6).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[4], ());
        g.add_edge(n[0], n[3], ());
        g.add_edge(n[3], n[4], ());
        g
    }

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn bfs_forward_layers() {
        let g = g();
        let order = Bfs::new(&g, n(0)).collect(&g);
        assert_eq!(order, vec![n(0), n(1), n(3), n(2), n(4)]);
    }

    #[test]
    fn bfs_backward() {
        let g = g();
        let order = Bfs::with_direction(&g, [n(4)], Direction::Backward).collect(&g);
        assert_eq!(order[0], n(4));
        assert_eq!(order.len(), 5);
        assert!(!order.contains(&n(5)));
    }

    #[test]
    fn bfs_multi_root_dedups() {
        let g = g();
        let order = Bfs::with_direction(&g, [n(1), n(3), n(1)], Direction::Forward).collect(&g);
        assert_eq!(order, vec![n(1), n(3), n(2), n(4)]);
    }

    #[test]
    fn dfs_visits_all_reachable_once() {
        let g = g();
        let mut dfs = Dfs::new(&g, n(0));
        let mut seen = Vec::new();
        while let Some(x) = dfs.next(&g) {
            seen.push(x);
        }
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0], n(0));
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn reachable_sets() {
        let g = g();
        let fwd = reachable_set(&g, n(1), Direction::Forward);
        assert_eq!(fwd.iter().collect::<Vec<_>>(), vec![1, 2, 4]);
        let bwd = reachable_set(&g, n(4), Direction::Backward);
        assert_eq!(bwd.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn constrained_reachability_blocks_intermediates() {
        let g = g();
        // Block node 1 and 3 as intermediates: from 0 we still *reach* them
        // (they are endpoints of direct edges) but cannot go through them.
        let r = constrained_reachable_set(&g, n(0), Direction::Forward, |m| m != n(1) && m != n(3));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 3]);
        // Block only node 1: 4 is still reachable via 3.
        let r = constrained_reachable_set(&g, n(0), Direction::Forward, |m| m != n(1));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn constrained_reachability_root_not_included_without_cycle() {
        let g = g();
        let r = constrained_reachable_set(&g, n(0), Direction::Forward, |_| true);
        assert!(!r.contains(0));
        // With a cycle, the root is re-reached.
        let mut g2: Digraph<(), ()> = Digraph::new();
        let a = g2.add_node(());
        let b = g2.add_node(());
        g2.add_edge(a, b, ());
        g2.add_edge(b, a, ());
        let r2 = constrained_reachable_set(&g2, a, Direction::Forward, |_| true);
        assert!(r2.contains(a.index()));
    }
}
