//! Synthetic workflow-run generator (Table II).
//!
//! Simulates an execution of a specification: loops are unrolled into a
//! chosen number of iterations, each step produces a configurable number of
//! fresh data objects, and user-input sizes follow the class parameters:
//!
//! | Kind   | user input | data/step | loop iterations | max nodes+edges |
//! |--------|-----------|-----------|-----------------|-----------------|
//! | Small  | 1–100     | 1–3       | 1–10            | 100             |
//! | Medium | 1–100     | 1–10      | 10–20           | 1,000           |
//! | Large  | 1–100     | 1–30      | 10–40           | 10,000          |
//!
//! ## Unrolling
//!
//! Back edges (w.r.t. a DFS of the specification) are the loop edges; the
//! remaining *forward graph* is a DAG. Each back edge's body is the set of
//! nodes on forward paths from its target back to its source; overlapping
//! bodies are merged into one loop group that iterates together. Iteration
//! `i` of a group is wired to iteration `i+1` through the group's back
//! edges; edges entering a group feed its first iteration and edges leaving
//! it exit from the last — matching the paper's Figure 2, where the
//! alignment loop's result flows onward only after the final iteration.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use zoom_graph::algo::cycles::back_edges;
use zoom_graph::algo::paths::nodes_on_paths;
use zoom_graph::{Digraph, EdgeId, NodeId};
use zoom_model::{DataId, Result, RunBuilder, SpecNode, StepId, WorkflowRun, WorkflowSpec};

/// The three run-size classes of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RunKind {
    /// run1: up to 100 nodes and edges.
    Small,
    /// run2: up to 1,000 nodes and edges.
    Medium,
    /// run3: up to 10,000 nodes and edges.
    Large,
}

impl RunKind {
    /// All kinds, Table II order.
    pub const ALL: [RunKind; 3] = [RunKind::Small, RunKind::Medium, RunKind::Large];

    /// Table II row label.
    pub fn label(self) -> &'static str {
        match self {
            RunKind::Small => "Small (run1)",
            RunKind::Medium => "Medium (run2)",
            RunKind::Large => "Large (run3)",
        }
    }
}

impl std::fmt::Display for RunKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Parameters for [`generate_run`]; presets per [`RunKind`] follow Table II.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunGenConfig {
    /// Number of user-input data objects (inclusive range).
    pub user_input: (u32, u32),
    /// Data objects produced by each step (inclusive range).
    pub data_per_step: (u32, u32),
    /// Loop iterations per loop group (inclusive range).
    pub loop_iterations: (u32, u32),
    /// Cap on run-graph nodes (steps + input/output).
    pub max_nodes: usize,
    /// Cap on run-graph edges.
    pub max_edges: usize,
}

impl RunGenConfig {
    /// The Table II preset for a run kind.
    pub fn for_kind(kind: RunKind) -> Self {
        match kind {
            RunKind::Small => RunGenConfig {
                user_input: (1, 100),
                data_per_step: (1, 3),
                loop_iterations: (1, 10),
                max_nodes: 100,
                max_edges: 100,
            },
            RunKind::Medium => RunGenConfig {
                user_input: (1, 100),
                data_per_step: (1, 10),
                loop_iterations: (10, 20),
                max_nodes: 1_000,
                max_edges: 1_000,
            },
            RunKind::Large => RunGenConfig {
                user_input: (1, 100),
                data_per_step: (1, 30),
                loop_iterations: (10, 40),
                max_nodes: 10_000,
                max_edges: 10_000,
            },
        }
    }
}

/// A copy of `run` whose data ids are mapped one-to-one onto random ids
/// below 2^40: ids become sparse and their order shuffled, so the run's
/// edge-slot order is no longer id order and nothing may rely on ids being
/// contiguous. Steps, edges and their order are kept (user-input metadata
/// is not).
pub fn scatter_data_ids<R: Rng>(
    spec: &WorkflowSpec,
    run: &WorkflowRun,
    rng: &mut R,
) -> WorkflowRun {
    let mut taken = BTreeSet::new();
    let mut scattered: BTreeMap<DataId, u64> = BTreeMap::new();
    for d in run.all_data() {
        let id = loop {
            let id = rng.random_range(0..1u64 << 40);
            if taken.insert(id) {
                break id;
            }
        };
        scattered.insert(d, id);
    }
    let g = run.graph();
    let mut rb = RunBuilder::new(spec);
    for (id, module) in run.steps() {
        rb.step_with_id(id, module);
    }
    for (e, s, t, _) in g.edges() {
        let data = run.edge_data(e).iter().map(|d| scattered[d]);
        match (run.step_at(s), run.step_at(t)) {
            (Some((a, _)), Some((b, _))) => rb.data_edge(a, b, data),
            (None, Some((b, _))) => rb.input_edge(b, data),
            (Some((a, _)), None) => rb.output_edge(a, data),
            (None, None) => unreachable!("no run edge joins input and output"),
        };
    }
    rb.build().expect("renaming data keeps a run valid")
}

/// Draws an integer log-uniformly from `lo..=hi` (both ≥ 1): small values
/// are common, the upper end rare.
fn log_uniform<R: Rng>(lo: u32, hi: u32, rng: &mut R) -> u32 {
    if lo >= hi {
        return lo;
    }
    let (llo, lhi) = (f64::from(lo.max(1)).ln(), f64::from(hi).ln());
    let x = llo + (lhi - llo) * rng.random_range(0.0..1.0);
    (x.exp().round() as u32).clamp(lo, hi)
}

/// Generates a simulated run of `spec`.
pub fn generate_run<R: Rng>(
    spec: &WorkflowSpec,
    cfg: &RunGenConfig,
    rng: &mut R,
) -> Result<WorkflowRun> {
    let g = spec.graph();
    let backs: Vec<EdgeId> = back_edges(g);
    let back_set: std::collections::HashSet<EdgeId> = backs.iter().copied().collect();

    // Forward graph: same nodes, non-back edges only.
    let mut fwd: Digraph<(), ()> = Digraph::with_capacity(g.node_count(), g.edge_count());
    for _ in 0..g.node_count() {
        fwd.add_node(());
    }
    for e in g.edge_ids() {
        if !back_set.contains(&e) {
            let (s, t) = g.endpoints(e);
            fwd.add_edge(s, t, ());
        }
    }
    debug_assert!(zoom_graph::algo::topo::is_acyclic(&fwd));

    // Loop groups: union of overlapping back-edge bodies.
    let mut group_of: Vec<Option<usize>> = vec![None; g.node_count()];
    let mut n_groups = 0usize;
    for &e in &backs {
        let (u, v) = g.endpoints(e);
        let body = nodes_on_paths(&fwd, v, u);
        // Collect existing groups touched by this body.
        let mut target: Option<usize> = None;
        for i in body.iter() {
            if let Some(gid) = group_of[i] {
                target = Some(match target {
                    None => gid,
                    Some(t) if t != gid => {
                        // Merge gid into t.
                        for slot in group_of.iter_mut() {
                            if *slot == Some(gid) {
                                *slot = Some(t);
                            }
                        }
                        t
                    }
                    Some(t) => t,
                });
            }
        }
        let gid = target.unwrap_or_else(|| {
            n_groups += 1;
            n_groups - 1
        });
        for i in body.iter() {
            group_of[i] = Some(gid);
        }
        // A self-loop's body is just the node itself.
        if u == v {
            group_of[u.index()] = Some(gid);
        }
    }

    // Iterations per group, capped so the expanded run fits max_nodes.
    let mut iters: HashMap<usize, u32> = HashMap::new();
    let group_ids: Vec<usize> = {
        let mut ids: Vec<usize> = group_of.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    for &gid in &group_ids {
        iters.insert(
            gid,
            rng.random_range(cfg.loop_iterations.0..=cfg.loop_iterations.1),
        );
    }
    // Size estimate and proportional clamping.
    let group_size = |gid: usize| group_of.iter().filter(|&&x| x == Some(gid)).count();
    let fixed: usize = group_of
        .iter()
        .enumerate()
        .filter(|&(i, x)| {
            x.is_none() && i >= 2 // skip input/output nodes 0 and 1
        })
        .count();
    loop {
        let total: usize = fixed
            + group_ids
                .iter()
                .map(|&gid| group_size(gid) * iters[&gid] as usize)
                .sum::<usize>();
        if total + 2 <= cfg.max_nodes || group_ids.iter().all(|gid| iters[gid] <= 1) {
            break;
        }
        for gid in &group_ids {
            let k = iters.get_mut(gid).expect("group registered");
            *k = (*k / 2).max(1);
        }
    }

    // In the final iteration of a loop, only the body nodes that can still
    // reach a loop *exit* (a cross edge leaving the group) execute — exactly
    // as in the paper's Figure 2, where the rectifier M5 runs once while M3
    // runs twice. Compute, per group, the backward closure of the exit
    // nodes over intra-group forward edges.
    let mut can_exit: Vec<bool> = vec![true; g.node_count()];
    for &gid in &group_ids {
        let members: Vec<NodeId> = g
            .node_ids()
            .filter(|n| group_of[n.index()] == Some(gid))
            .collect();
        let mut marked = vec![false; g.node_count()];
        let mut stack: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&m| g.successors(m).any(|t| group_of[t.index()] != Some(gid)))
            .collect();
        for &m in &stack {
            marked[m.index()] = true;
        }
        while let Some(x) = stack.pop() {
            for p in fwd.predecessors(x) {
                if group_of[p.index()] == Some(gid) && !marked[p.index()] {
                    marked[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        for &m in &members {
            can_exit[m.index()] = marked[m.index()];
        }
    }

    // Expand: create steps per (module, iteration).
    let mut rb = RunBuilder::new(spec);
    rb.user("simulated");
    let mut steps: HashMap<(NodeId, u32), StepId> = HashMap::new();
    let module_iters = |m: NodeId| -> u32 {
        match group_of[m.index()] {
            None => 1,
            Some(gid) => {
                let k = iters[&gid];
                if can_exit[m.index()] {
                    k
                } else {
                    k - 1 // skipped in the final iteration
                }
            }
        }
    };
    for m in spec.module_ids() {
        for i in 0..module_iters(m) {
            let sid = rb.step(m);
            steps.insert((m, i), sid);
        }
    }

    // Data production: each step produces `data_per_step` fresh objects,
    // carried by every outgoing edge of that step.
    let mut next_data: u64 = 1;
    let mut produced: HashMap<StepId, Vec<u64>> = HashMap::new();
    let mut produce = |sid: StepId, rng: &mut R, next_data: &mut u64| -> Vec<u64> {
        produced
            .entry(sid)
            .or_insert_with(|| {
                let p = rng.random_range(cfg.data_per_step.0..=cfg.data_per_step.1) as u64;
                let ids: Vec<u64> = (*next_data..*next_data + p).collect();
                *next_data += p;
                ids
            })
            .clone()
    };

    // User inputs: split across the spec's input edges (skipping any target
    // that ended up with zero iterations). Sizes are drawn *log-uniformly*
    // within the configured range: the paper's observed result sizes (an
    // average of 24 provenance tuples for small runs, and UBio ≈ 22×
    // UBlackBox) imply that most collected runs had small user inputs even
    // though the range extends to 100; a uniform draw would make user
    // inputs dominate every black-box provenance answer.
    let input_targets: Vec<NodeId> = g
        .successors(spec.input())
        .filter(|&m| module_iters(m) >= 1)
        .collect();
    let total_user = log_uniform(cfg.user_input.0, cfg.user_input.1, rng) as usize;
    let share = (total_user / input_targets.len().max(1)).max(1);
    for &m in &input_targets {
        let sid = steps[&(m, 0)];
        let ids: Vec<u64> = (next_data..next_data + share as u64).collect();
        next_data += share as u64;
        rb.input_edge(sid, ids);
    }

    // Wire the expanded edges.
    for e in g.edge_ids() {
        let (a, b) = g.endpoints(e);
        if a == spec.input() || b == spec.output() {
            continue; // handled separately
        }
        let (ga, gb) = (group_of[a.index()], group_of[b.index()]);
        let is_back = back_set.contains(&e);
        if is_back {
            // u@i -> v@{i+1} within the group.
            let gid = ga.expect("back edge source is in a loop group");
            debug_assert_eq!(gb, Some(gid), "back edge stays within its group");
            let k = iters[&gid];
            for i in 0..k.saturating_sub(1) {
                let (Some(&sa), Some(&sb)) = (steps.get(&(a, i)), steps.get(&(b, i + 1))) else {
                    continue;
                };
                let data = produce(sa, rng, &mut next_data);
                rb.data_edge(sa, sb, data);
            }
        } else if ga.is_some() && ga == gb {
            // Intra-group forward edge: a@i -> b@i.
            let k = iters[&ga.expect("checked")];
            for i in 0..k {
                let (Some(&sa), Some(&sb)) = (steps.get(&(a, i)), steps.get(&(b, i))) else {
                    continue;
                };
                let data = produce(sa, rng, &mut next_data);
                rb.data_edge(sa, sb, data);
            }
        } else {
            // Cross edge: last iteration of a feeds first iteration of b.
            // A cross edge's source always has an exit (this edge), so its
            // last iteration exists.
            if module_iters(a) == 0 || module_iters(b) == 0 {
                continue;
            }
            let sa = steps[&(a, module_iters(a) - 1)];
            let sb = steps[&(b, 0)];
            let data = produce(sa, rng, &mut next_data);
            rb.data_edge(sa, sb, data);
        }
    }

    // Output edges: last iteration flows to output.
    for m in g.predecessors(spec.output()) {
        if matches!(g.node(m), SpecNode::Input) {
            continue;
        }
        let sid = steps[&(m, module_iters(m) - 1)];
        let data = produce(sid, rng, &mut next_data);
        rb.output_edge(sid, data);
    }

    rb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::WorkflowClass;
    use crate::specgen::{generate_spec, SpecGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zoom_model::SpecBuilder;

    fn loopy_spec() -> WorkflowSpec {
        // I -> A -> B -> C -> O with C -> B back edge.
        let mut b = SpecBuilder::new("loopy");
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

    #[test]
    fn unrolls_loops_to_iteration_count() {
        let s = loopy_spec();
        let cfg = RunGenConfig {
            user_input: (5, 5),
            data_per_step: (1, 1),
            loop_iterations: (3, 3),
            max_nodes: 1000,
            max_edges: 1000,
        };
        let run = generate_run(&s, &cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        // A once, B and C three times each.
        assert_eq!(run.step_count(), 1 + 3 + 3);
        let b = s.module("B").unwrap();
        let b_steps = run.steps().filter(|&(_, m)| m == b).count();
        assert_eq!(b_steps, 3);
    }

    #[test]
    fn respects_node_cap() {
        let s = loopy_spec();
        let cfg = RunGenConfig {
            user_input: (1, 1),
            data_per_step: (1, 1),
            loop_iterations: (40, 40),
            max_nodes: 20,
            max_edges: 10_000,
        };
        let run = generate_run(&s, &cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        assert!(run.graph().node_count() <= 20);
    }

    #[test]
    fn self_loop_unrolls() {
        let mut b = SpecBuilder::new("self");
        b.analysis("A");
        b.from_input("A").edge("A", "A").to_output("A");
        let s = b.build().unwrap();
        let cfg = RunGenConfig {
            user_input: (2, 2),
            data_per_step: (1, 1),
            loop_iterations: (4, 4),
            max_nodes: 100,
            max_edges: 100,
        };
        let run = generate_run(&s, &cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(run.step_count(), 4);
    }

    #[test]
    fn all_classes_and_kinds_generate_valid_runs() {
        let mut rng = StdRng::seed_from_u64(4);
        for class in [
            WorkflowClass::Linear,
            WorkflowClass::Parallel,
            WorkflowClass::Loop,
        ] {
            let spec = generate_spec("t", &SpecGenConfig::new(class, 20), &mut rng);
            for kind in RunKind::ALL {
                let cfg = RunGenConfig::for_kind(kind);
                let run = generate_run(&spec, &cfg, &mut rng)
                    .unwrap_or_else(|e| panic!("{class} {kind}: {e}"));
                assert!(run.graph().node_count() <= cfg.max_nodes + 2);
                assert!(run.step_count() >= spec.module_count());
            }
        }
    }

    #[test]
    fn library_specs_generate_valid_runs() {
        let mut rng = StdRng::seed_from_u64(5);
        for spec in crate::library::real_workflows() {
            for kind in RunKind::ALL {
                let cfg = RunGenConfig::for_kind(kind);
                generate_run(&spec, &cfg, &mut rng)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let s = loopy_spec();
        let cfg = RunGenConfig::for_kind(RunKind::Medium);
        let a = generate_run(&s, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = generate_run(&s, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.step_count(), b.step_count());
        assert_eq!(a.all_data(), b.all_data());
    }

    #[test]
    fn larger_kinds_give_larger_runs() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = generate_spec("t", &SpecGenConfig::new(WorkflowClass::Loop, 20), &mut rng);
        let small = generate_run(
            &spec,
            &RunGenConfig::for_kind(RunKind::Small),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        let large = generate_run(
            &spec,
            &RunGenConfig::for_kind(RunKind::Large),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        assert!(large.step_count() > small.step_count());
        assert!(large.data_count() > small.data_count());
    }
}
