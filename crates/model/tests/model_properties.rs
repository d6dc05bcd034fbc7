//! Property-based tests of the model builders and derived structures.
//! The builder properties use raw random inputs: whatever the builders
//! *accept* must satisfy the structural invariants, and whatever violates
//! them must be rejected. The view-run property uses the workload
//! generator's runs and checks [`ViewRun::new`] against a reference
//! derived independently in this file.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use zoom_gen::{
    generate_run, generate_spec, scatter_data_ids, RunGenConfig, RunKind, SpecGenConfig,
    WorkflowClass,
};
use zoom_graph::NodeId;
use zoom_model::{
    induced_spec, CompositeId, CompositeModule, DataId, ModelError, RunBuilder, RunNode,
    SpecBuilder, StepId, UserView, ViewRun, WorkflowRun, WorkflowSpec,
};

/// Random spec input: module count and raw edge commands.
#[derive(Debug, Clone)]
struct RawSpec {
    modules: usize,
    /// (from, to) indices into 0..modules+2 where 0=input, 1=output,
    /// 2..=modules+1 are modules M1..Mn.
    edges: Vec<(usize, usize)>,
}

fn arb_raw_spec() -> impl Strategy<Value = RawSpec> {
    (1usize..10).prop_flat_map(|modules| {
        let node = 0..modules + 2;
        proptest::collection::vec((node.clone(), node), 0..30)
            .prop_map(move |edges| RawSpec { modules, edges })
    })
}

fn build(raw: &RawSpec) -> Result<WorkflowSpec, ModelError> {
    let mut b = SpecBuilder::new("prop");
    let mut ids = vec![
        zoom_graph::NodeId::from_index(0),
        zoom_graph::NodeId::from_index(1),
    ];
    for i in 0..raw.modules {
        ids.push(b.analysis(format!("M{}", i + 1)));
    }
    for &(f, t) in &raw.edges {
        b.connect(ids[f], ids[t]);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness: every spec the builder accepts passes the independent
    /// re-validator; every rejection is one of the documented error kinds.
    #[test]
    fn spec_builder_sound(raw in arb_raw_spec()) {
        match build(&raw) {
            Ok(spec) => {
                prop_assert!(spec.validate().is_ok());
                prop_assert_eq!(spec.module_count(), raw.modules);
            }
            Err(
                ModelError::BadEndpointEdge(_)
                | ModelError::NotOnInputOutputPath(_)
                | ModelError::EmptySpec,
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
    }

    /// Completeness of rejection: a spec with an edge into `input` or out
    /// of `output` never builds.
    #[test]
    fn bad_endpoint_edges_always_rejected(raw in arb_raw_spec(), bad_into_input in any::<bool>()) {
        let mut raw = raw;
        if bad_into_input {
            raw.edges.push((2, 0));
        } else {
            raw.edges.push((1, 2));
        }
        prop_assert!(build(&raw).is_err());
    }

    /// UAdmin's induced specification is always isomorphic to the original
    /// (same module count, same deduplicated edge multiset by label).
    #[test]
    fn admin_induced_is_isomorphic(raw in arb_raw_spec()) {
        let Ok(spec) = build(&raw) else { return Ok(()); };
        let admin = UserView::admin(&spec);
        let ind = induced_spec(&spec, &admin);
        prop_assert_eq!(ind.spec.module_count(), spec.module_count());
        let edge_labels = |s: &WorkflowSpec| -> std::collections::BTreeSet<(String, String)> {
            s.graph()
                .edges()
                .map(|(_, a, b, _)| (s.label(a).to_string(), s.label(b).to_string()))
                .collect()
        };
        // Composite names equal module labels under UAdmin.
        prop_assert_eq!(edge_labels(&ind.spec), edge_labels(&spec));
    }

    /// Any two-block split of the modules is accepted as a partition, and
    /// the resulting composite-of map is total and consistent.
    #[test]
    fn arbitrary_bipartitions_are_views(raw in arb_raw_spec(), mask in any::<u32>()) {
        let Ok(spec) = build(&raw) else { return Ok(()); };
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (i, m) in spec.module_ids().enumerate() {
            if mask & (1 << (i % 32)) != 0 {
                left.push(m);
            } else {
                right.push(m);
            }
        }
        let mut parts = Vec::new();
        if !left.is_empty() {
            parts.push(CompositeModule::new("L", left.clone()));
        }
        if !right.is_empty() {
            parts.push(CompositeModule::new("R", right.clone()));
        }
        let view = UserView::new("bi", &spec, parts).expect("partition");
        for m in spec.module_ids() {
            let c = view.composite_of(m);
            prop_assert!(view.members(c).contains(&m));
        }
        prop_assert!(view.refines(&UserView::black_box(&spec)));
        prop_assert!(UserView::admin(&spec).refines(&view));
    }

    /// Run builder: a random linear run over a random spec path either
    /// builds and validates, or fails with a documented error.
    #[test]
    fn linear_runs_validate(raw in arb_raw_spec(), reps in 1usize..4) {
        let Ok(spec) = build(&raw) else { return Ok(()); };
        // Follow an actual path input -> ... -> output if one exists with
        // at least one module.
        let g = spec.graph();
        let paths = zoom_graph::algo::paths::simple_paths(g, spec.input(), spec.output(), 5);
        let Some(path) = paths.iter().find(|p| p.len() > 2) else { return Ok(()); };
        let modules = &path[1..path.len() - 1];

        let mut rb = RunBuilder::new(&spec);
        let mut d = 1u64;
        let mut steps = Vec::new();
        for _ in 0..reps {
            for &m in modules {
                steps.push(rb.step(m));
            }
        }
        // Wire them in sequence; repetitions of the path are legal only if
        // the spec lets the last module loop back to the first, so only
        // wire reps > 1 when that edge exists.
        let loops_back = g.has_edge(*modules.last().expect("nonempty"), modules[0]);
        let reps = if loops_back { reps } else { 1 };
        let used = &steps[..reps * modules.len()];
        rb.input_edge(used[0], [d]);
        for w in used.windows(2) {
            d += 1;
            rb.data_edge(w[0], w[1], [d]);
        }
        d += 1;
        rb.output_edge(*used.last().expect("nonempty"), [d]);
        // Steps beyond `used` are unwired; drop them from the run by
        // rebuilding when necessary.
        if used.len() != steps.len() {
            let mut rb2 = RunBuilder::new(&spec);
            let mut d = 1u64;
            let steps2: Vec<_> = (0..used.len())
                .map(|i| rb2.step(modules[i % modules.len()]))
                .collect();
            rb2.input_edge(steps2[0], [d]);
            for w in steps2.windows(2) {
                d += 1;
                rb2.data_edge(w[0], w[1], [d]);
            }
            d += 1;
            rb2.output_edge(*steps2.last().expect("nonempty"), [d]);
            let run = rb2.build().expect("linear run over a real path");
            prop_assert!(run.validate(&spec).is_ok());
            return Ok(());
        }
        let run = rb.build().expect("linear run over a real path");
        prop_assert!(run.validate(&spec).is_ok());
        prop_assert_eq!(run.step_count(), used.len());

        // Its UAdmin view-run mirrors it 1:1.
        let vr = ViewRun::new(&run, &UserView::admin(&spec));
        prop_assert_eq!(vr.exec_count(), run.step_count());
        prop_assert_eq!(vr.visible_data(&run).len(), run.data_count());
    }

    /// `ViewRun::new` on generated runs of every [`RunKind`] through a
    /// random partition view agrees with [`reference_view_run`]: the
    /// executions (ids, composites, members, virtuality, order), the
    /// visible data, and every lookup. The run's data ids are first
    /// scattered over 2^40, so nothing may rely on them being contiguous
    /// or on edge order following id order.
    #[test]
    fn view_run_matches_reference(
        seed in any::<u64>(),
        kind in 0usize..3,
        class in 0usize..3,
        modules in 3usize..14,
        blocks in 1u32..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let class = [WorkflowClass::Linear, WorkflowClass::Parallel, WorkflowClass::Loop][class];
        let spec = generate_spec("vr", &SpecGenConfig::new(class, modules), &mut rng);
        let mut cfg = RunGenConfig::for_kind(RunKind::ALL[kind]);
        // Keep large runs quick to check; the shape, not the size, matters.
        cfg.max_nodes = cfg.max_nodes.min(1_500);
        cfg.max_edges = cfg.max_edges.min(1_500);
        let run = generate_run(&spec, &cfg, &mut rng).expect("generated runs are valid");
        let run = scatter_data_ids(&spec, &run, &mut rng);
        let mut parts: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for m in spec.module_ids() {
            parts.entry(rng.random_range(0..blocks)).or_default().push(m);
        }
        let composites = parts
            .into_iter()
            .map(|(b, ms)| CompositeModule::new(format!("B{b}"), ms))
            .collect();
        let view = UserView::new("random", &spec, composites).expect("a partition");

        let vr = ViewRun::new(&run, &view);
        let reference = reference_view_run(&run, &view);
        prop_assert_eq!(vr.exec_count(), reference.execs.len());
        for (i, (e, r)) in vr.execs().zip(&reference.execs).enumerate() {
            prop_assert_eq!((e.id, e.composite, e.members.to_vec(), e.is_virtual), r.clone(), "exec {}", i);
            prop_assert_eq!(vr.exec_index_by_id(e.id), Some(i as u32));
            prop_assert_eq!(vr.exec_by_id(e.id), Some(e));
            prop_assert_eq!(vr.exec_at(vr.node_of_exec(i as u32)), Some(e));
            prop_assert_eq!(vr.exec_of_step(e.id).is_some(), !e.is_virtual);
            let (inputs, outputs) = &reference.io[i];
            prop_assert_eq!(&vr.inputs_of(&run, i as u32), inputs);
            prop_assert_eq!(&vr.outputs_of(&run, i as u32), outputs);
        }
        for (node, weight) in run.graph().nodes() {
            let RunNode::Step { id, .. } = weight else {
                prop_assert!(vr.exec_at_run_node(node).is_none());
                continue;
            };
            let i = reference.exec_of_node[node.index()].expect("steps have executions");
            let e = vr.exec(i as u32);
            prop_assert_eq!(vr.exec_at_run_node(node), Some(e));
            prop_assert_eq!(vr.exec_of_step(*id), Some(e));
            // A member of a virtual execution is not an execution id.
            prop_assert_eq!(vr.exec_index_by_id(*id).is_some(), !e.is_virtual);
        }
        prop_assert_eq!(
            vr.visible_data(&run),
            reference.producer.keys().copied().collect::<Vec<_>>()
        );
        // Producer and immediate provenance (the producing execution and
        // its full input set) of every datum.
        let view_node = |p: Option<usize>| match p {
            None => vr.input(),
            Some(i) => vr.node_of_exec(i as u32),
        };
        for d in run.all_data() {
            let want = reference.producer.get(&d).copied();
            prop_assert_eq!(vr.producer_node(&run, d), want.map(view_node));
            prop_assert_eq!(vr.is_visible(&run, d), want.is_some());
            if let Some(Some(i)) = want {
                prop_assert_eq!(&vr.inputs_of(&run, i as u32), &reference.io[i].0);
            }
        }
        // The data between every ordered pair of view nodes.
        let ends: Vec<Endpoint> = [INPUT, OUTPUT].into_iter().chain(0..vr.exec_count() as isize).collect();
        let node = |e: Endpoint| match e {
            INPUT => vr.input(),
            OUTPUT => vr.output(),
            i => vr.node_of_exec(i as u32),
        };
        for &a in &ends {
            for &b in &ends {
                let want = reference.between.get(&(a, b)).cloned().unwrap_or_default();
                prop_assert_eq!(vr.data_between(&run, node(a), node(b)), want, "{} -> {}", a, b);
            }
        }
    }
}

/// A view node in [`Reference`]: an execution index, or one of these.
type Endpoint = isize;
const INPUT: Endpoint = -1;
const OUTPUT: Endpoint = -2;

/// What [`reference_view_run`] derives: executions as
/// `(id, composite, members, is_virtual)` in order, each one's
/// `(inputs, outputs)`, the execution of every run node, and the producing
/// execution of every visible datum (`None` = the input node).
struct Reference {
    execs: Vec<(StepId, CompositeId, Vec<StepId>, bool)>,
    io: Vec<(Vec<DataId>, Vec<DataId>)>,
    exec_of_node: Vec<Option<usize>>,
    producer: BTreeMap<DataId, Option<usize>>,
    /// The data passed between two view nodes, sorted.
    between: BTreeMap<(Endpoint, Endpoint), Vec<DataId>>,
}

/// The view-run of Section II computed the plain way: executions are the
/// weakly connected components of each multi-module composite's steps
/// (found by flood fill), singleton composites keep one execution per
/// step, and the visible data are those on edges between different
/// executions.
fn reference_view_run(run: &WorkflowRun, view: &UserView) -> Reference {
    let g = run.graph();
    let n = g.node_count();
    let comp = |node: NodeId| match g.node(node) {
        RunNode::Step { module, .. } => Some(view.composite_of(*module)),
        _ => None,
    };
    let step = |node: NodeId| run.step_at(node).map(|(s, _)| s);
    let grouping = |node: NodeId| comp(node).filter(|&c| view.members(c).len() > 1);

    // Flood-fill components, then order them by smallest member step.
    let mut component: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for start in g.node_ids() {
        if comp(start).is_none() || component[start.index()].is_some() {
            continue;
        }
        let mut members = vec![start];
        component[start.index()] = Some(groups.len());
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            let Some(c) = grouping(x) else { continue };
            for y in g.successors(x).chain(g.predecessors(x)) {
                if grouping(y) == Some(c) && component[y.index()].is_none() {
                    component[y.index()] = Some(groups.len());
                    members.push(y);
                    stack.push(y);
                }
            }
        }
        members.sort_by_key(|&m| step(m));
        groups.push(members);
    }
    groups.sort_by_key(|g| step(g[0]));

    let max_step = run.steps().map(|(s, _)| s.0).max().unwrap_or(0);
    let mut next_virtual = max_step;
    let mut exec_of_node: Vec<Option<usize>> = vec![None; n];
    let mut execs = Vec::new();
    for (i, members) in groups.iter().enumerate() {
        let c = comp(members[0]).expect("steps");
        let is_virtual = members.len() > 1 || view.members(c).len() > 1;
        let id = if is_virtual {
            next_virtual += 1;
            StepId(next_virtual)
        } else {
            step(members[0]).expect("steps")
        };
        for m in members {
            exec_of_node[m.index()] = Some(i);
        }
        let steps = members.iter().map(|&m| step(m).expect("steps")).collect();
        execs.push((id, c, steps, is_virtual));
    }

    // Edges between different executions (input and output count as their
    // own endpoints) carry the visible data.
    let endpoint = |node: NodeId| match exec_of_node[node.index()] {
        Some(i) => i as Endpoint,
        None if node == run.input() => INPUT,
        None => OUTPUT,
    };
    let mut io = vec![(Vec::new(), Vec::new()); execs.len()];
    let mut producer = BTreeMap::new();
    let mut between: BTreeMap<(Endpoint, Endpoint), Vec<DataId>> = BTreeMap::new();
    for (e, s, t, _) in g.edges() {
        if endpoint(s) == endpoint(t) {
            continue;
        }
        between
            .entry((endpoint(s), endpoint(t)))
            .or_default()
            .extend(run.edge_data(e));
        for &d in run.edge_data(e) {
            producer.insert(d, exec_of_node[s.index()]);
            if let Some(i) = exec_of_node[s.index()] {
                io[i].1.push(d);
            }
            if let Some(i) = exec_of_node[t.index()] {
                io[i].0.push(d);
            }
        }
    }
    for v in io
        .iter_mut()
        .flat_map(|(i, o)| [i, o])
        .chain(between.values_mut())
    {
        v.sort();
        v.dedup();
    }
    Reference {
        execs,
        io,
        exec_of_node,
        producer,
        between,
    }
}
