//! Topological ordering (Kahn's algorithm) and acyclicity checking.

use crate::digraph::{Digraph, NodeId};

/// Computes a topological order of the graph, or `None` if it has a cycle.
///
/// Parallel edges are handled correctly (each contributes to the in-degree).
pub fn topological_sort<N, E>(graph: &Digraph<N, E>) -> Option<Vec<NodeId>> {
    let mut order = Vec::with_capacity(graph.node_count());
    kahn(graph, |v| order.push(v)).then_some(order)
}

/// Returns `true` if the graph has no directed cycle.
pub fn is_acyclic<N, E>(graph: &Digraph<N, E>) -> bool {
    kahn(graph, |_| {})
}

/// Kahn's algorithm: calls `visit` on the nodes in a topological order and
/// returns whether every node was visited (the graph is acyclic). Two
/// allocations, each sized to the node count.
fn kahn<N, E>(graph: &Digraph<N, E>, mut visit: impl FnMut(NodeId)) -> bool {
    let n = graph.node_count();
    let mut indeg = vec![0u32; n];
    for (_, _, t, _) in graph.edges() {
        indeg[t.index()] += 1;
    }
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    queue.extend(graph.node_ids().filter(|v| indeg[v.index()] == 0));
    let mut visited = 0;
    while let Some(v) = queue.pop() {
        visit(v);
        visited += 1;
        for w in graph.successors(v) {
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push(w);
            }
        }
    }
    visited == n
}

/// Returns, for each node, its position in some topological order,
/// or `None` if the graph is cyclic.
pub fn topological_ranks<N, E>(graph: &Digraph<N, E>) -> Option<Vec<usize>> {
    let order = topological_sort(graph)?;
    let mut rank = vec![0usize; graph.node_count()];
    for (i, v) in order.iter().enumerate() {
        rank[v.index()] = i;
    }
    Some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_dag() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(a, c, ());
        let order = topological_sort(&g).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
        assert!(is_acyclic(&g));
    }

    #[test]
    fn detects_cycle() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(topological_sort(&g).is_none());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn parallel_edges_ok() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        assert!(is_acyclic(&g));
        assert_eq!(topological_sort(&g).unwrap(), vec![a, b]);
    }

    #[test]
    fn ranks_respect_edges() {
        let mut g: Digraph<(), ()> = Digraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[2], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[3], ());
        g.add_edge(n[2], n[4], ());
        let ranks = topological_ranks(&g).unwrap();
        for (_, s, t, _) in g.edges() {
            assert!(ranks[s.index()] < ranks[t.index()]);
        }
    }

    #[test]
    fn empty_graph() {
        let g: Digraph<(), ()> = Digraph::new();
        assert_eq!(topological_sort(&g).unwrap(), Vec::<NodeId>::new());
    }
}
