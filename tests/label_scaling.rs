//! Release-mode scaling smoke for the interval-label index: a 100k-step
//! deep chain must build, answer, and incrementally extend under a
//! generous wall-clock budget, and must beat the `O(n²/64)` bitset on
//! memory by an order of magnitude. Debug builds run a 20k-step chain
//! with the timing assertions relaxed, so `cargo test -q` stays fast;
//! CI runs this test with `--release` for the real budget.

use std::time::{Duration, Instant};
use zoom::gen::deep_chain;
use zoom::graph::NodeId;
use zoom::model::{UserView, ViewRun};
use zoom::warehouse::{
    deep_provenance_labeled, dependents_of, Deadline, LabelIndex, Reach, UpdateOutcome,
};

const RELEASE: bool = !cfg!(debug_assertions);

#[test]
fn label_index_scales_to_deep_chains() {
    let steps = if RELEASE { 100_000 } else { 20_000 };
    let build_budget = if RELEASE {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(120)
    };

    let (spec, run) = deep_chain(steps);
    let nodes = run.graph().node_count();

    let started = Instant::now();
    let labels = LabelIndex::build(&run).expect("chains are acyclic");
    let build = started.elapsed();
    assert!(
        build < build_budget,
        "label build took {build:?} for {nodes} nodes (budget {build_budget:?})"
    );

    // O(n · avg_labels) memory: a chain's labels are one interval per
    // node per direction, and the bitset analytic footprint is ≥10× that
    // from well below this size.
    let bitset_bytes = 2 * nodes * nodes.div_ceil(64) * 8;
    let label_bytes = labels.memory_bytes();
    assert!(
        label_bytes * 10 <= bitset_bytes,
        "labels {label_bytes}B vs bitset {bitset_bytes}B — less than 10x smaller"
    );

    // Point queries answer in microseconds: the closure of an early step's
    // output is tiny and label-directed enumeration is O(answer).
    let vr = ViewRun::new(&run, &UserView::admin(&spec));
    let early = run.all_data()[1]; // produced by the first step
    let started = Instant::now();
    let reps = 50u32;
    for _ in 0..reps {
        deep_provenance_labeled(&run, &vr, &labels, early)
            .expect("no failure")
            .expect("visible");
    }
    let per_query = started.elapsed() / reps;
    if RELEASE {
        assert!(
            per_query < Duration::from_millis(5),
            "point query took {per_query:?}"
        );
    }

    // The full-closure query from the final output touches every node —
    // still bounded, since enumeration is O(answer) not O(n²).
    let out = run.final_outputs()[0];
    let started = Instant::now();
    let full = deep_provenance_labeled(&run, &vr, &labels, out)
        .expect("no failure")
        .expect("visible");
    let closure = started.elapsed();
    assert!(full.tuples() >= steps, "full closure misses the chain");
    if RELEASE {
        assert!(
            closure < Duration::from_secs(5),
            "closure query took {closure:?}"
        );
    }

    // Forward provenance from the first user input reaches the whole chain.
    let first = run.all_data()[0];
    let dependents = dependents_of(
        &run,
        &vr,
        Reach::Labels(&labels),
        first,
        &mut Deadline::unlimited(),
    )
    .unwrap()
    .expect("visible");
    assert!(
        dependents.len() >= steps,
        "forward closure misses the chain"
    );

    // Incremental append: extending the chain by one sink touches every
    // ancestor, so it shares the rebuild's O(n) asymptotics — only assert
    // it does not *exceed* a rebuild by more than noise. The asymptotic
    // win is asserted below on the fan-out, where `affected` is O(1).
    let mut grown = labels.clone();
    let last_step = NodeId::from_index(nodes - 1);
    let started = Instant::now();
    let v = grown.append_node(&[last_step.index()], &[]);
    let append = started.elapsed();
    assert!(grown.reaches(NodeId::from_index(0), NodeId::from_index(v)));
    assert!(grown.reaches(last_step, NodeId::from_index(v)));
    if RELEASE {
        assert!(
            append < build * 2,
            "chain append ({append:?}) should not dwarf a rebuild ({build:?})"
        );
    }

    // The asymptotic append win: on a wide fan-out a new leaf's closure
    // is {input, root, leaf}, so `O(affected)` is constant while a
    // rebuild is O(n) — two-plus orders of magnitude at this size. The
    // first append after a build pays a one-off Vec-doubling realloc of
    // the label storage, so it absorbs that untimed; the timed appends
    // after it measure the actual incremental work.
    let (_, fan) = zoom::gen::wide_fanout(steps);
    let started = Instant::now();
    let mut fan_labels = LabelIndex::build(&fan).expect("fan-outs are acyclic");
    let fan_build = started.elapsed();
    let root = NodeId::from_index(2); // input, output, then the root step
    let leaf = fan_labels.append_node(&[root.index()], &[]);
    assert!(fan_labels.reaches(root, NodeId::from_index(leaf)));
    assert!(fan_labels.reaches(NodeId::from_index(0), NodeId::from_index(leaf)));
    let append_reps = 32u32;
    let started = Instant::now();
    for _ in 0..append_reps {
        fan_labels.append_node(&[root.index()], &[]);
    }
    let fan_append = started.elapsed() / append_reps;
    if RELEASE {
        assert!(
            fan_append * 50 < fan_build,
            "fan-out append ({fan_append:?}) should be far under a rebuild ({fan_build:?})"
        );
    }

    // And update_to on an unchanged graph is a free no-op.
    let outcome = grown
        .update_to(run.graph(), &mut Deadline::unlimited())
        .expect("acyclic");
    // `grown` has one more node than the run graph, so this is a rebuild
    // request; the original index sees Fresh.
    let mut unchanged = labels.clone();
    assert_eq!(
        unchanged
            .update_to(run.graph(), &mut Deadline::unlimited())
            .expect("acyclic"),
        UpdateOutcome::Fresh
    );
    assert_eq!(outcome, UpdateOutcome::Rebuilt);

    eprintln!(
        "label_scaling: {nodes} nodes — build {build:?}, point {per_query:?}, \
         closure {closure:?}, append {append:?}, {label_bytes}B labels vs \
         {bitset_bytes}B bitset"
    );
}
