//! Per-run base-closure provenance index.
//!
//! The paper's winning strategy (Section V-B) computes provenance "at the
//! finest granularity" once per run and then *projects* it per user view —
//! that is what made view switches ≈13 ms. The [`ViewRunCache`] covers the
//! projection half (materialized composite executions); this module covers
//! the closure half: a view-independent reachability index over the raw run
//! DAG, the embedded analog of the prototype's base-provenance temp table.
//!
//! [`ProvenanceIndex`] stores, per run-graph node, two [`BitSet`] rows —
//! the backward closure (the node and everything its data transitively
//! derived from) and the forward closure (the node and everything derived
//! from it). Rows are built in one topological pass each, unioning
//! predecessor (resp. successor) rows: `O(V·E/64)` words of work, instead
//! of one `O(V+E)` BFS *per query*. Deep provenance at any view level then
//! reduces to iterating the members of one precomputed row and projecting
//! them through the view; the forward query reduces to unioning a handful
//! of rows. The index never looks at views, so one copy per run serves
//! every registered view, exactly like the paper's shared temp table.
//!
//! [`ProvenanceIndexCache`] is the run-keyed cache the [`crate::Warehouse`]
//! holds next to its [`ViewRunCache`]; both are invalidated together.
//!
//! [`ViewRunCache`]: crate::cache::ViewRunCache

use crate::resilience::{Deadline, Interrupt};
use crate::schema::RunId;
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zoom_graph::algo::topo::topological_sort;
use zoom_graph::fxhash::FxHashMap;
use zoom_graph::{BitSet, NodeId};
use zoom_model::{ModelError, WorkflowRun};

/// Why a deadline-aware index build failed: either the run is structurally
/// bad (cyclic) or the build was interrupted by its [`Deadline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexBuildError {
    /// The run graph is cyclic ([`ModelError::RunHasCycle`]).
    Cycle,
    /// The deadline passed or the build was cancelled mid-pass.
    Interrupted(Interrupt),
}

impl fmt::Display for IndexBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexBuildError::Cycle => write!(f, "run graph has a cycle"),
            IndexBuildError::Interrupted(i) => i.fmt(f),
        }
    }
}

impl From<Interrupt> for IndexBuildError {
    fn from(i: Interrupt) -> Self {
        IndexBuildError::Interrupted(i)
    }
}

impl std::error::Error for IndexBuildError {}

/// Reachability rows over one run's raw (UAdmin-level) graph.
///
/// Both directions include the node itself, so a row *is* the visited set
/// the recursive `CONNECT BY` query would produce starting from that node.
#[derive(Clone, Debug)]
pub struct ProvenanceIndex {
    ancestors: Vec<BitSet>,
    descendants: Vec<BitSet>,
}

impl ProvenanceIndex {
    /// Builds both closure directions for `run` in two topological passes.
    ///
    /// Returns [`ModelError::RunHasCycle`] if the run graph is cyclic.
    /// Validated runs never are, but a hand-loaded or corrupted durable
    /// log can hand us one, and building an index must not crash `open()`.
    pub fn build(run: &WorkflowRun) -> Result<Self, ModelError> {
        Self::build_deadline(run, &mut Deadline::unlimited()).map_err(|e| match e {
            IndexBuildError::Cycle => ModelError::RunHasCycle,
            IndexBuildError::Interrupted(_) => unreachable!("unlimited deadline never interrupts"),
        })
    }

    /// [`ProvenanceIndex::build`] under an execution budget: both
    /// topological passes poll `deadline` per node, so an adversarially
    /// large run cannot pin a core unbounded while its index materializes.
    pub fn build_deadline(
        run: &WorkflowRun,
        deadline: &mut Deadline,
    ) -> Result<Self, IndexBuildError> {
        let g = run.graph();
        let n = g.node_count();
        let order = topological_sort(g).ok_or(IndexBuildError::Cycle)?;

        // Placeholder rows are never unioned: topological order guarantees
        // every predecessor's real row exists before its dependents read it.
        let mut ancestors = vec![BitSet::new(0); n];
        for &node in &order {
            deadline.tick()?;
            let mut row = BitSet::new(n);
            row.insert(node.index());
            for p in g.predecessors(node) {
                row.union_with(&ancestors[p.index()]);
            }
            ancestors[node.index()] = row;
        }

        let mut descendants = vec![BitSet::new(0); n];
        for &node in order.iter().rev() {
            deadline.tick()?;
            let mut row = BitSet::new(n);
            row.insert(node.index());
            for s in g.successors(node) {
                row.union_with(&descendants[s.index()]);
            }
            descendants[node.index()] = row;
        }

        Ok(ProvenanceIndex {
            ancestors,
            descendants,
        })
    }

    /// The backward closure of `n`: itself plus every node it transitively
    /// depends on.
    pub fn ancestors(&self, n: NodeId) -> &BitSet {
        &self.ancestors[n.index()]
    }

    /// The forward closure of `n`: itself plus every node derived from it.
    pub fn descendants(&self, n: NodeId) -> &BitSet {
        &self.descendants[n.index()]
    }

    /// Number of indexed run-graph nodes.
    pub fn node_count(&self) -> usize {
        self.ancestors.len()
    }

    /// Approximate heap footprint of the rows, in bytes.
    pub fn memory_bytes(&self) -> usize {
        let n = self.ancestors.len();
        2 * n * n.div_ceil(64) * std::mem::size_of::<u64>()
    }
}

/// The bitset index's run-keyed cache (see [`RunKeyedCache`]).
pub type ProvenanceIndexCache = RunKeyedCache<ProvenanceIndex>;

/// A concurrent `run → T` cache with lock-free counters, shared by the
/// bitset [`ProvenanceIndex`] and the interval
/// [`LabelIndex`](crate::labels::LabelIndex).
///
/// Obeys the same counter-accuracy guarantee as
/// [`crate::cache::ViewRunCache`]: `hits + misses` equals the number of
/// successful `get_or_build` calls; a build that loses the insert race
/// counts as a hit plus one `race_lost_builds`. A build that *fails*
/// counts as neither (the query itself surfaces the error).
#[derive(Debug)]
pub struct RunKeyedCache<T> {
    map: RwLock<FxHashMap<RunId, Arc<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    race_lost_builds: AtomicU64,
    build_nanos: AtomicU64,
}

// Manual impl: `derive(Default)` would demand `T: Default`, which the
// cached values never need (they are always built through the closure).
impl<T> Default for RunKeyedCache<T> {
    fn default() -> Self {
        RunKeyedCache {
            map: RwLock::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            race_lost_builds: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
        }
    }
}

impl<T> RunKeyedCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached value for `run`, or builds and caches it.
    /// Build failures are propagated and cache nothing.
    pub fn get_or_build<E>(
        &self,
        run: RunId,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if let Some(hit) = self.map.read().get(&run).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        // Build outside the lock; a racing builder costs duplicate work but
        // never blocks readers for the duration of the closure computation.
        let started = Instant::now();
        let idx = Arc::new(build()?);
        let nanos = started.elapsed().as_nanos() as u64;
        let mut map = self.map.write();
        if let Some(existing) = map.get(&run).cloned() {
            // Lost the insert race: answered from the cache, so a hit —
            // keeping hits + misses == queries.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.race_lost_builds.fetch_add(1, Ordering::Relaxed);
            return Ok(existing);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_nanos.fetch_add(nanos, Ordering::Relaxed);
        map.insert(run, idx.clone());
        Ok(idx)
    }

    /// Mutates the cached value for `run` in place, if one is resident —
    /// the streaming hook that lets a label index *extend* instead of
    /// being dropped and rebuilt. Copy-on-write: concurrent readers
    /// holding the old `Arc` keep a consistent pre-update snapshot
    /// (`Arc::make_mut` clones only when the entry is shared). Returns
    /// `Ok(None)` when nothing is cached; on a closure error the entry is
    /// evicted (a half-updated index must never be served) and the error
    /// propagates.
    pub fn update_entry<R, E>(
        &self,
        run: RunId,
        update: impl FnOnce(&mut T) -> Result<R, E>,
    ) -> Result<Option<R>, E>
    where
        T: Clone,
    {
        let mut map = self.map.write();
        let Some(entry) = map.get_mut(&run) else {
            return Ok(None);
        };
        match update(Arc::make_mut(entry)) {
            Ok(r) => Ok(Some(r)),
            Err(e) => {
                map.remove(&run);
                Err(e)
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Folds over every cached value — the metrics layer's hook for
    /// bytes-resident gauges and label-size histograms. Holds the read
    /// lock for the duration, so callbacks must stay cheap.
    pub fn fold_entries<B>(&self, init: B, mut f: impl FnMut(B, &T) -> B) -> B {
        self.map.read().values().fold(init, |acc, v| f(acc, v))
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Total nanoseconds spent building indexes (across misses).
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos.load(Ordering::Relaxed)
    }

    /// A full counter snapshot for the metrics layer (this cache is
    /// unbounded — indexes are per-run and invalidated with the run — so
    /// `evictions` is always 0).
    pub fn metrics(&self) -> crate::metrics::CacheMetrics {
        crate::metrics::CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            race_lost_builds: self.race_lost_builds.load(Ordering::Relaxed),
            evictions: 0,
            entries: self.len() as u64,
            build_nanos: self.build_nanos.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached index.
    pub fn clear(&self) {
        self.map.write().clear();
    }

    /// Drops the index for one run.
    pub fn invalidate_run(&self, run: RunId) {
        self.map.write().remove(&run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder};

    /// input -> A -> B -> C -> output, A also feeds C directly.
    fn diamondish() -> WorkflowRun {
        let mut b = SpecBuilder::new("idx");
        b.analysis("A");
        b.analysis("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .edge("A", "C")
            .to_output("C");
        let s = b.build().unwrap();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(s.module("A").unwrap());
        let s2 = rb.step(s.module("B").unwrap());
        let s3 = rb.step(s.module("C").unwrap());
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s2, s3, [3])
            .data_edge(s1, s3, [4])
            .output_edge(s3, [5]);
        rb.build().unwrap()
    }

    #[test]
    fn rows_match_bfs_closures() {
        let run = diamondish();
        let g = run.graph();
        let idx = ProvenanceIndex::build(&run).unwrap();
        assert_eq!(idx.node_count(), g.node_count());
        for n in g.node_ids() {
            let back = zoom_graph::reachable_set(g, n, zoom_graph::Direction::Backward);
            let fwd = zoom_graph::reachable_set(g, n, zoom_graph::Direction::Forward);
            assert_eq!(idx.ancestors(n), &back, "ancestors of {n:?}");
            assert_eq!(idx.descendants(n), &fwd, "descendants of {n:?}");
        }
    }

    #[test]
    fn rows_contain_self() {
        let run = diamondish();
        let idx = ProvenanceIndex::build(&run).unwrap();
        for n in run.graph().node_ids() {
            assert!(idx.ancestors(n).contains(n.index()));
            assert!(idx.descendants(n).contains(n.index()));
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_build_time() {
        let run = diamondish();
        let cache = ProvenanceIndexCache::new();
        for _ in 0..3 {
            let idx = cache
                .get_or_build(RunId(7), || ProvenanceIndex::build(&run))
                .unwrap();
            assert_eq!(idx.node_count(), run.graph().node_count());
        }
        assert_eq!(cache.counters(), (2, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache.build_nanos() > 0);
        cache.invalidate_run(RunId(7));
        assert!(cache.is_empty());
        cache
            .get_or_build(RunId(7), || ProvenanceIndex::build(&run))
            .unwrap();
        assert_eq!(cache.counters(), (2, 2));
        cache.clear();
        assert!(cache.is_empty());
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.race_lost_builds), (2, 2, 0));
        assert_eq!(m.entries, 0);
    }

    /// A failed build caches nothing and counts neither hit nor miss.
    #[test]
    fn failed_build_is_not_cached_or_counted() {
        let cache = ProvenanceIndexCache::new();
        let r: Result<Arc<ProvenanceIndex>, &str> = cache.get_or_build(RunId(1), || Err("cyclic"));
        assert_eq!(r.unwrap_err(), "cyclic");
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), (0, 0));
    }

    /// Satellite 3: a cyclic run graph — which every builder/validator
    /// rejects, but a corrupted snapshot can smuggle past them via the
    /// codec — yields `RunHasCycle` instead of a panic.
    #[test]
    fn cyclic_run_yields_error_not_panic() {
        use serde::Serialize;
        use std::collections::{BTreeMap, HashMap};
        use zoom_graph::Digraph;
        use zoom_model::{DataId, ModelError, RunNode, StepId, UserInputMeta};

        // Mirror of WorkflowRun's serialized (positional) layout.
        #[derive(Serialize)]
        struct RawRun {
            spec_name: String,
            graph: Digraph<RunNode, Vec<DataId>>,
            node_of_step: HashMap<StepId, NodeId>,
            producer: HashMap<DataId, NodeId>,
            user_input_meta: HashMap<DataId, UserInputMeta>,
            params: HashMap<StepId, BTreeMap<String, String>>,
        }

        let mut g: Digraph<RunNode, Vec<DataId>> = Digraph::new();
        let input = g.add_node(RunNode::Input);
        let output = g.add_node(RunNode::Output);
        let a = g.add_node(RunNode::Step {
            id: StepId(1),
            module: NodeId::from_index(2),
        });
        let b = g.add_node(RunNode::Step {
            id: StepId(2),
            module: NodeId::from_index(3),
        });
        g.add_edge(input, a, vec![DataId(1)]);
        g.add_edge(a, b, vec![DataId(2)]);
        g.add_edge(b, a, vec![DataId(3)]); // the cycle
        g.add_edge(b, output, vec![DataId(4)]);
        let raw = RawRun {
            spec_name: "cyclic".into(),
            graph: g,
            node_of_step: HashMap::from([(StepId(1), a), (StepId(2), b)]),
            producer: HashMap::from([
                (DataId(1), input),
                (DataId(2), a),
                (DataId(3), b),
                (DataId(4), b),
            ]),
            user_input_meta: HashMap::new(),
            params: HashMap::new(),
        };
        let bytes = crate::codec::to_bytes(&raw).unwrap();
        let run: WorkflowRun = crate::codec::from_bytes(&bytes).unwrap();

        let err = ProvenanceIndex::build(&run).unwrap_err();
        assert_eq!(err, ModelError::RunHasCycle);
    }
}
