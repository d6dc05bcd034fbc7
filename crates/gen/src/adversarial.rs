//! Adversarial run shapes for the reachability-index scaling sweep.
//!
//! The interval-label index (`zoom-warehouse::labels`) has sharply
//! shape-dependent costs: a deep chain is its best case (every closure is
//! one interval), a diamond lattice its worst practical case (non-tree
//! edges force exception intervals), and a wide fan-out stresses the
//! spanning-forest construction with maximal branching. These generators
//! build such runs at controlled sizes — up to a million steps — so the
//! `index_scaling` experiment and the `label_scaling` smoke test can
//! compare BFS, bitset, and label backends on the shapes that separate
//! them.
//!
//! All three are deterministic (no RNG): the shapes, not sampled noise,
//! are the point. Each returns the `(spec, run)` pair; the specs are the
//! minimal ones that make the run spec-conformant (chains and lattices
//! reuse one self-looping module, the legal "Loop pattern" encoding).

use zoom_model::{ModuleKind, SpecBuilder, StepId, WorkflowRun, WorkflowSpec};

/// Minimal spec for chain/lattice runs: `input -> A`, `A -> A`,
/// `A -> output`. The self-edge is the Loop-pattern encoding that lets a
/// single module appear at every depth.
fn self_loop_spec(name: &str) -> WorkflowSpec {
    let mut b = SpecBuilder::new(name);
    b.module("A", ModuleKind::Analysis);
    b.from_input("A").edge("A", "A").to_output("A");
    b.build().expect("self-loop spec is valid")
}

/// A run that is a single chain of `steps` steps:
/// `input -> s1 -> s2 -> ... -> s_n -> output`.
///
/// Best case for interval labels — the spanning forest is the chain
/// itself, every label is exactly one interval, and both closure queries
/// degenerate to a single interval-containment test.
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn deep_chain(steps: usize) -> (WorkflowSpec, WorkflowRun) {
    assert!(steps >= 1, "deep_chain needs at least one step");
    let spec = self_loop_spec("adversarial-deep-chain");
    let module = spec.module("A").expect("module A exists");
    let mut rb = zoom_model::RunBuilder::new(&spec);
    let ids: Vec<StepId> = (0..steps).map(|_| rb.step(module)).collect();
    rb.input_edge(ids[0], [1]);
    for i in 1..steps {
        rb.data_edge(ids[i - 1], ids[i], [1 + i as u64]);
    }
    rb.output_edge(ids[steps - 1], [1 + steps as u64]);
    let run = rb.build().expect("deep chain is a valid run");
    (spec, run)
}

/// A run with one root step fanning out to `width` leaf steps, each of
/// which feeds the output:
/// `input -> root -> {leaf_1 .. leaf_w} -> output`.
///
/// Maximal branching: the root's forward closure is every leaf, and the
/// spanning forest degenerates to a star. Exercises wide frontier handling
/// in the BFS oracle and bulk interval unioning in the label builder.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn wide_fanout(width: usize) -> (WorkflowSpec, WorkflowRun) {
    assert!(width >= 1, "wide_fanout needs at least one leaf");
    let mut b = SpecBuilder::new("adversarial-wide-fanout");
    b.module("A", ModuleKind::Analysis);
    b.module("B", ModuleKind::Analysis);
    b.from_input("A").edge("A", "B").to_output("B");
    let spec = b.build().expect("fan-out spec is valid");
    let root_m = spec.module("A").expect("module A exists");
    let leaf_m = spec.module("B").expect("module B exists");

    let mut rb = zoom_model::RunBuilder::new(&spec);
    let root = rb.step(root_m);
    rb.input_edge(root, [1]);
    let d = 2u64; // the one object the root hands every leaf
    for j in 0..width as u64 {
        let leaf = rb.step(leaf_m);
        rb.data_edge(root, leaf, [d]);
        rb.output_edge(leaf, [d + 1 + j]);
    }
    let run = rb.build().expect("wide fan-out is a valid run");
    (spec, run)
}

/// A diamond lattice of `layers × width` steps. Step `(i, j)` feeds both
/// `(i+1, j)` and `(i+1, (j+1) % width)`, so closures interleave columns
/// and any spanning forest leaves `layers × width` non-tree edges —
/// the worst practical shape for interval labels (per-node label counts
/// grow with `width`) while staying a valid acyclic run.
///
/// # Panics
///
/// Panics if `layers == 0` or `width == 0`.
pub fn diamond_lattice(layers: usize, width: usize) -> (WorkflowSpec, WorkflowRun) {
    assert!(layers >= 1 && width >= 1, "lattice needs positive extent");
    let spec = self_loop_spec("adversarial-diamond-lattice");
    let module = spec.module("A").expect("module A exists");
    let mut rb = zoom_model::RunBuilder::new(&spec);
    let w = width as u64;
    let ids: Vec<StepId> = (0..layers * width).map(|_| rb.step(module)).collect();
    let at = |i: usize, j: usize| ids[i * width + j];
    // Step (i, j) produces exactly one object, carried on all its out-edges.
    let out = |i: usize, j: usize| 1 + w + (i * width + j) as u64;
    for j in 0..width {
        rb.input_edge(at(0, j), [1 + j as u64]);
    }
    for i in 0..layers - 1 {
        for j in 0..width {
            rb.data_edge(at(i, j), at(i + 1, j), [out(i, j)]);
            if width > 1 {
                rb.data_edge(at(i, j), at(i + 1, (j + 1) % width), [out(i, j)]);
            }
        }
    }
    for j in 0..width {
        rb.output_edge(at(layers - 1, j), [out(layers - 1, j)]);
    }
    let run = rb.build().expect("diamond lattice is a valid run");
    (spec, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_chain_shape() {
        let (_, run) = deep_chain(100);
        let g = run.graph();
        assert_eq!(g.node_count(), 102); // input + output + 100 steps
        assert_eq!(g.edge_count(), 101); // a single path
    }

    #[test]
    fn single_step_chain() {
        let (_, run) = deep_chain(1);
        assert_eq!(run.graph().node_count(), 3);
    }

    #[test]
    fn wide_fanout_shape() {
        let (_, run) = wide_fanout(50);
        let g = run.graph();
        assert_eq!(g.node_count(), 53); // input + output + root + 50 leaves
        assert_eq!(g.edge_count(), 101); // in-edge + 50 fan-out + 50 out-edges
    }

    #[test]
    fn diamond_lattice_shape() {
        let (_, run) = diamond_lattice(10, 8);
        let g = run.graph();
        assert_eq!(g.node_count(), 82); // input + output + 80 steps
                                        // 8 input edges + 9*8*2 internal + 8 output edges
        assert_eq!(g.edge_count(), 8 + 144 + 8);
    }

    #[test]
    fn degenerate_lattice_is_a_chain() {
        let (_, run) = diamond_lattice(5, 1);
        let g = run.graph();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn shapes_scale_without_blowup() {
        // A quick sanity run at 10k steps; the million-step sizes are
        // exercised by the release-mode bench and label_scaling test.
        let (_, run) = deep_chain(10_000);
        assert_eq!(run.graph().node_count(), 10_002);
        let (_, run) = diamond_lattice(1_000, 10);
        assert_eq!(run.graph().node_count(), 10_002);
    }
}
