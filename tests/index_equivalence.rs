//! The reachability indexes are *optimizations*, not semantics changes:
//! on generated workloads across all workflow classes, the bitset-indexed
//! and interval-labeled query paths must return byte-identical answers to
//! both the member-iterating BFS path and the original whole-graph-scan
//! reference (`*_bfs`), at every view level — UAdmin, UBlackBox, and a
//! built intermediate view — and the incrementally-appended label index
//! must equal the from-scratch build on every pair. Runs are checked both
//! as generated and with their data ids scattered (sparse and shuffled),
//! so the projection kernel's slot order is not id order: its
//! non-canonical dedup and its fallback sort both run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use zoom::graph::{reachable_set, Digraph, Direction, NodeId};
use zoom::model::{DataId, UserView, ViewRun, WorkflowRun, WorkflowSpec};
use zoom::warehouse::{
    deep_provenance, deep_provenance_bfs, deep_provenance_indexed, deep_provenance_labeled,
    dependents_of, dependents_of_bfs, Deadline, LabelIndex, ProvenanceIndex, QueryFailure, Reach,
    UpdateOutcome,
};
use zoom_gen::{
    generate_run, generate_spec, scatter_data_ids, RunGenConfig, SpecGenConfig, WorkflowClass,
};
use zoom_views::relev_user_view_builder;

/// A generated run; with `scatter`, its data ids are scattered.
fn workload(seed: u64, class: u8, modules: usize, scatter: bool) -> (WorkflowSpec, WorkflowRun) {
    let mut rng = StdRng::seed_from_u64(seed);
    let class = match class % 3 {
        0 => WorkflowClass::Linear,
        1 => WorkflowClass::Parallel,
        _ => WorkflowClass::Loop,
    };
    let spec = generate_spec("idx-prop", &SpecGenConfig::new(class, modules), &mut rng);
    let cfg = RunGenConfig {
        user_input: (1, 20),
        data_per_step: (1, 4),
        loop_iterations: (1, 6),
        max_nodes: 300,
        max_edges: 300,
    };
    let run = generate_run(&spec, &cfg, &mut rng).expect("valid run");
    if scatter {
        let run = scatter_data_ids(&spec, &run, &mut rng);
        return (spec, run);
    }
    (spec, run)
}

/// A built intermediate view from a random relevant-module mask.
fn mid_view(spec: &WorkflowSpec, mask: u64) -> UserView {
    let relevant: Vec<_> = spec
        .module_ids()
        .enumerate()
        .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
        .map(|(_, m)| m)
        .collect();
    relev_user_view_builder(spec, &relevant)
        .expect("builds")
        .view
}

/// Checks all four deep-provenance forms and all four dependents forms
/// agree for every (sampled) data object of the run at one view level.
fn assert_equivalent(
    run: &WorkflowRun,
    vr: &ViewRun,
    index: &ProvenanceIndex,
    labels: &LabelIndex,
) {
    let data = run.all_data();
    for &d in data.iter().step_by((data.len() / 25).max(1)) {
        let plain = deep_provenance(run, vr, Reach::Bfs, d, &mut Deadline::unlimited());
        let indexed = deep_provenance_indexed(run, vr, index, d);
        let labeled = deep_provenance_labeled(run, vr, labels, d);
        let oracle = deep_provenance_bfs(run, vr, d);
        assert_eq!(indexed, oracle, "indexed deep provenance of {d} diverges");
        assert_eq!(labeled, oracle, "labeled deep provenance of {d} diverges");
        let oracle = oracle.map_err(QueryFailure::from);
        assert_eq!(plain, oracle, "plain deep provenance of {d} diverges");

        let plain = dependents_of(run, vr, Reach::Bfs, d, &mut Deadline::unlimited());
        let indexed = dependents_of(run, vr, Reach::Bitset(index), d, &mut Deadline::unlimited());
        let labeled = dependents_of(
            run,
            vr,
            Reach::Labels(labels),
            d,
            &mut Deadline::unlimited(),
        );
        let oracle = dependents_of_bfs(run, vr, d).map_err(QueryFailure::from);
        assert_eq!(indexed, oracle, "indexed dependents of {d} diverge");
        assert_eq!(labeled, oracle, "labeled dependents of {d} diverge");
        assert_eq!(plain, oracle, "plain dependents of {d} diverge");
    }
}

/// Builds a DAG from per-node predecessor lists (edges `p -> v`, `p < v`).
fn dag_from_preds(preds: &[Vec<usize>]) -> Digraph<(), ()> {
    let mut g = Digraph::new();
    for _ in 0..preds.len() {
        g.add_node(());
    }
    for (v, ps) in preds.iter().enumerate() {
        for &p in ps {
            g.add_edge(NodeId::from_index(p), NodeId::from_index(v), ());
        }
    }
    g
}

/// Random predecessor lists for an `n`-node DAG in index order: node `v`
/// draws each earlier node as a predecessor with probability ~`density`%.
fn random_preds(seed: u64, n: usize, density: u8) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = f64::from(density % 50) / 100.0 + 0.02;
    (0..n)
        .map(|v| (0..v).filter(|_| rng.random_bool(p)).collect())
        .collect()
}

/// Asserts `idx` answers `reaches` exactly like a fresh build *and* like
/// the per-source BFS oracle, over every ordered pair.
fn assert_label_index_exact(idx: &LabelIndex, g: &Digraph<(), ()>) {
    let fresh = LabelIndex::build_graph(g, &mut Deadline::unlimited()).expect("acyclic");
    for u in g.node_ids() {
        let reach = reachable_set(g, u, Direction::Forward);
        for v in g.node_ids() {
            let oracle = reach.contains(v.index());
            assert_eq!(idx.reaches(u, v), oracle, "reaches({u:?},{v:?}) diverges");
            assert_eq!(fresh.reaches(u, v), oracle, "fresh reaches({u:?},{v:?})");
        }
    }
    assert_eq!(idx.node_count(), fresh.node_count());
    assert_eq!(idx.edge_count(), fresh.edge_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One index per run answers every view level exactly like the
    /// per-query BFS and the original scan-everything reference.
    #[test]
    fn indexed_queries_match_bfs_oracles(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..15,
        mask in any::<u64>(),
        scatter in any::<bool>(),
    ) {
        let (spec, run) = workload(seed, class, modules, scatter);
        let index = ProvenanceIndex::build(&run).expect("generated runs are acyclic");
        let labels = LabelIndex::build(&run).expect("generated runs are acyclic");
        prop_assert_eq!(index.node_count(), run.graph().node_count());
        prop_assert_eq!(labels.node_count(), run.graph().node_count());

        for view in [
            UserView::admin(&spec),
            UserView::black_box(&spec),
            mid_view(&spec, mask),
        ] {
            let vr = ViewRun::new(&run, &view);
            assert_equivalent(&run, &vr, &index, &labels);
        }
    }

    /// Hidden data is rejected identically by all three forms (None from
    /// each), so the facade's visible/missing error mapping is unaffected
    /// by which path answers.
    #[test]
    fn invisibility_agrees_across_forms(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..12,
        scatter in any::<bool>(),
    ) {
        let (spec, run) = workload(seed, class, modules, scatter);
        let index = ProvenanceIndex::build(&run).expect("generated runs are acyclic");
        let labels = LabelIndex::build(&run).expect("generated runs are acyclic");
        let vr = ViewRun::new(&run, &UserView::black_box(&spec));
        for &d in run.all_data().iter().take(40) {
            let visible = vr.is_visible(&run, d);
            prop_assert_eq!(deep_provenance(&run, &vr, Reach::Bfs, d, &mut Deadline::unlimited()).unwrap().is_some(), visible);
            prop_assert_eq!(deep_provenance_indexed(&run, &vr, &index, d).unwrap().is_some(), visible);
            prop_assert_eq!(deep_provenance_labeled(&run, &vr, &labels, d).unwrap().is_some(), visible);
            prop_assert_eq!(deep_provenance_bfs(&run, &vr, d).unwrap().is_some(), visible);
            prop_assert_eq!(dependents_of(&run, &vr, Reach::Bfs, d, &mut Deadline::unlimited()).unwrap().is_some(), visible);
            prop_assert_eq!(dependents_of(&run, &vr, Reach::Bitset(&index), d, &mut Deadline::unlimited()).unwrap().is_some(), visible);
            prop_assert_eq!(dependents_of(&run, &vr, Reach::Labels(&labels), d, &mut Deadline::unlimited()).unwrap().is_some(), visible);
            prop_assert_eq!(dependents_of_bfs(&run, &vr, d).unwrap().is_some(), visible);
        }
    }

    /// Growing the label index one appended sink at a time is exactly
    /// equivalent to rebuilding from scratch — every ordered `reaches`
    /// pair matches the fresh build and the BFS oracle.
    #[test]
    fn incremental_append_matches_scratch_build(
        seed in any::<u64>(),
        n in 1usize..32,
        density in any::<u8>(),
    ) {
        let preds = random_preds(seed, n, density);
        let g = dag_from_preds(&preds);

        let empty = Digraph::<(), ()>::new();
        let mut idx = LabelIndex::build_graph(&empty, &mut Deadline::unlimited()).expect("empty");
        for ps in &preds {
            idx.append_node(ps, &[]);
        }
        assert_label_index_exact(&idx, &g);
    }

    /// `update_to` on a pure sink-extension takes the incremental path and
    /// still answers exactly like a from-scratch build; a non-extension
    /// change (an inserted old→old edge) is detected and rebuilt, again
    /// exactly.
    #[test]
    fn update_to_matches_scratch_build(
        seed in any::<u64>(),
        n_old in 1usize..16,
        n_extra in 1usize..16,
        density in any::<u8>(),
    ) {
        let preds = random_preds(seed, n_old + n_extra, density);
        let g_old = dag_from_preds(&preds[..n_old]);
        let g_new = dag_from_preds(&preds);

        let mut idx = LabelIndex::build_graph(&g_old, &mut Deadline::unlimited()).expect("acyclic");
        let outcome = idx.update_to(&g_new, &mut Deadline::unlimited()).expect("acyclic");
        prop_assert!(
            matches!(outcome, UpdateOutcome::Appended(k) if k == n_extra)
                || matches!(outcome, UpdateOutcome::Rebuilt),
            "sink extension should append (or rebuild on fragmentation), got {outcome:?}"
        );
        assert_label_index_exact(&idx, &g_new);

        // Second update with no change is a no-op.
        prop_assert_eq!(
            idx.update_to(&g_new, &mut Deadline::unlimited()).expect("acyclic"),
            UpdateOutcome::Fresh
        );

        // An old→old edge insertion is NOT an extension: update must fall
        // back to a rebuild and stay exact.
        if n_old >= 2 {
            let mut g_edge = dag_from_preds(&preds);
            g_edge.add_edge(NodeId::from_index(0), NodeId::from_index(n_old - 1), ());
            let had_edge = g_new.has_edge(NodeId::from_index(0), NodeId::from_index(n_old - 1));
            let outcome = idx.update_to(&g_edge, &mut Deadline::unlimited()).expect("acyclic");
            if !had_edge {
                prop_assert_eq!(outcome, UpdateOutcome::Rebuilt);
            }
            assert_label_index_exact(&idx, &g_edge);
        }
    }
}

/// How the projection kernel meets deep provenance of `d` (visible):
/// `(sorted, repeats)`. Each answer datum is emitted at the first slot the
/// closure's in-edges (or the target) mark, so the walk emits rows by
/// ascending id exactly when `sorted`, and else takes the fallback sort;
/// `repeats` counts the data marked at two or more slots, which only the
/// non-canonical dedup keeps to one row.
fn kernel_path(
    run: &WorkflowRun,
    vr: &ViewRun,
    index: &ProvenanceIndex,
    d: DataId,
) -> (bool, usize) {
    let (start, target) = vr.visible_producer_slot(run, d).expect("visible");
    let g = run.graph();
    let mut marked: BTreeMap<DataId, Vec<usize>> = BTreeMap::new();
    marked.insert(d, vec![target]);
    for n in index.ancestors(start).iter() {
        for e in g.in_edges(NodeId::from_index(n)) {
            for (slot, &x) in run.edge_slots(e).zip(g.edge(e)) {
                if vr.visible_slots().contains(slot) {
                    marked.entry(x).or_default().push(slot);
                }
            }
        }
    }
    let repeats = marked.values().filter(|slots| slots.len() > 1).count();
    let mut emitted: Vec<(usize, DataId)> = marked
        .into_iter()
        .map(|(x, slots)| (*slots.iter().min().expect("marked"), x))
        .collect();
    emitted.sort();
    (emitted.windows(2).all(|w| w[0].1 < w[1].1), repeats)
}

/// Scattered ids put every branch of the projection kernel to work, and
/// each form still answers like the oracles: the runs have non-canonical
/// slots, some answers repeat a datum across slots, some take the
/// fallback sort, and some list virtual executions.
#[test]
fn sparse_shuffled_ids_exercise_every_kernel_branch() {
    let (mut non_canonical, mut repeats, mut fallbacks, mut virtual_execs) = (0, 0, 0, 0);
    for seed in 0..12u64 {
        let (spec, run) = workload(seed, seed as u8, 4 + seed as usize % 9, true);
        non_canonical += run.slot_count() - run.canonical_slots().count();
        let index = ProvenanceIndex::build(&run).expect("acyclic");
        let labels = LabelIndex::build(&run).expect("acyclic");
        for view in [
            UserView::admin(&spec),
            UserView::black_box(&spec),
            mid_view(&spec, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ] {
            let vr = ViewRun::new(&run, &view);
            assert_equivalent(&run, &vr, &index, &labels);
            for d in run.all_data() {
                let Some(answer) = deep_provenance_indexed(&run, &vr, &index, d).expect("fits")
                else {
                    continue;
                };
                let (sorted, repeated) = kernel_path(&run, &vr, &index, d);
                fallbacks += usize::from(!sorted);
                repeats += repeated;
                virtual_execs += answer
                    .execs
                    .iter()
                    .filter(|&&e| vr.exec_by_id(e).is_some_and(|x| x.is_virtual))
                    .count();
            }
        }
    }
    eprintln!(
        "kernel branches: {non_canonical} non-canonical slots, {repeats} repeated data, \
         {fallbacks} fallback sorts, {virtual_execs} virtual executions"
    );
    assert!(non_canonical > 0, "no run has a non-canonical slot");
    assert!(repeats > 0, "no answer marks a datum at two slots");
    assert!(fallbacks > 0, "no projection takes the fallback sort");
    assert!(virtual_execs > 0, "no answer lists a virtual execution");
}

/// The deterministic adversarial shapes — including the single-step chain
/// (a 3-node run graph) — agree across all four query forms at both view
/// extremes.
#[test]
fn adversarial_shapes_and_single_node_agree() {
    let shapes = [
        zoom_gen::deep_chain(1),
        zoom_gen::deep_chain(64),
        zoom_gen::wide_fanout(48),
        zoom_gen::diamond_lattice(8, 6),
        zoom_gen::diamond_lattice(12, 1),
    ];
    for (spec, run) in &shapes {
        let index = ProvenanceIndex::build(run).expect("acyclic");
        let labels = LabelIndex::build(run).expect("acyclic");
        for view in [UserView::admin(spec), UserView::black_box(spec)] {
            let vr = ViewRun::new(run, &view);
            assert_equivalent(run, &vr, &index, &labels);
        }
    }
}

/// A single-node graph (no edges at all) round-trips through build,
/// append, and update without panicking and with reflexive reachability.
#[test]
fn single_node_graph_label_index() {
    let mut g = Digraph::<(), ()>::new();
    g.add_node(());
    let idx = LabelIndex::build_graph(&g, &mut Deadline::unlimited()).expect("acyclic");
    assert!(idx.reaches(NodeId::from_index(0), NodeId::from_index(0)));
    assert_label_index_exact(&idx, &g);

    // Grow it by one appended sink.
    let mut idx = idx;
    g.add_node(());
    g.add_edge(NodeId::from_index(0), NodeId::from_index(1), ());
    assert_eq!(
        idx.update_to(&g, &mut Deadline::unlimited())
            .expect("acyclic"),
        UpdateOutcome::Appended(1)
    );
    assert_label_index_exact(&idx, &g);
}
