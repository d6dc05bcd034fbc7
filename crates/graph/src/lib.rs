#![warn(missing_docs)]

//! # zoom-graph
//!
//! Directed-graph substrate for the ZOOM*UserViews workspace — a Rust
//! reproduction of *"Querying and Managing Provenance through User Views in
//! Scientific Workflows"* (Biton, Cohen-Boulakia, Davidson, Hara; ICDE 2008).
//!
//! Everything in the paper is a graph: workflow specifications are directed
//! graphs (possibly cyclic), workflow runs are DAGs, user views induce new
//! graphs, and provenance answers are sub-DAGs. This crate provides the
//! shared machinery:
//!
//! * [`Digraph`] — an arena-based directed multigraph with stable dense ids;
//! * [`bitset::BitSet`] — a dense bit set used for all reachability work;
//! * [`traversal`] — BFS/DFS, plus the *constrained* reachability primitive
//!   behind the paper's nr-paths;
//! * [`algo::topo`] — topological sorting / acyclicity (run validation);
//! * [`algo::scc`] — Tarjan SCC + condensation (loop detection, closure);
//! * [`algo::reach`] — transitive closure (provenance and view properties);
//! * [`algo::paths`] — "every node on an input→output path" well-formedness,
//!   simple-path enumeration;
//! * [`algo::cycles`] — back edges and elementary cycles (loop unrolling);
//! * [`labels`] — interval sets + spanning-forest post-order, the raw
//!   material of the warehouse's tree-cover reachability labels;
//! * [`dot`] — GraphViz rendering;
//! * [`fxhash`] — the FxHash hasher behind the workspace's integer-keyed
//!   hash maps;
//! * [`radix`] — a radix sort on integer keys (ids).
//!
//! The crate is dependency-free apart from `serde` (graphs are persisted in
//! the provenance warehouse's snapshots).

pub mod bitset;
pub mod digraph;
pub mod dot;
pub mod fxhash;
pub mod labels;
pub mod radix;
pub mod traversal;

pub mod algo {
    //! Graph algorithms.
    pub mod cycles;
    pub mod paths;
    pub mod reach;
    pub mod scc;
    pub mod topo;
}

pub use bitset::BitSet;
pub use digraph::{Digraph, EdgeId, NodeId};
pub use labels::{spanning_forest_postorder, IntervalSet, PostOrder};
pub use radix::radix_sort_by_key;
pub use traversal::{constrained_reachable_set, reachable_set, Bfs, Dfs, Direction};
