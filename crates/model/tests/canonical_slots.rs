//! The canonical-slot bits of a run (`WorkflowRun::is_canonical_slot`)
//! mark exactly the first slot of each datum, however the run was made:
//! built by `RunBuilder`, reconstructed from its event log, decoded from
//! its bytes, or streamed step by step, where they hold after every
//! append. A streamed run equals the run batch-built on the same edges,
//! byte for byte, and decoding re-encodes to the same bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use zoom_gen::{
    generate_run, generate_spec, scatter_data_ids, RunGenConfig, RunKind, SpecGenConfig,
    WorkflowClass,
};
use zoom_graph::algo::topo::topological_sort;
use zoom_graph::BitSet;
use zoom_model::{
    DataId, EventLog, RunBuilder, SpecBuilder, StepAppend, StepId, WorkflowRun, WorkflowSpec,
};
use zoom_warehouse::codec::{from_bytes, to_bytes};

/// The first slot of each datum, found by walking the slots in order.
fn first_slots(run: &WorkflowRun) -> BitSet {
    let g = run.graph();
    let mut seen = HashSet::new();
    let mut first = BitSet::new(run.slot_count());
    for e in g.edge_ids() {
        for (slot, d) in run.edge_slots(e).zip(run.edge_data(e)) {
            if seen.insert(*d) {
                first.insert(slot);
            }
        }
    }
    first
}

fn assert_canonical(run: &WorkflowRun, what: &str) {
    assert_eq!(run.canonical_slots(), &first_slots(run), "{what}");
}

/// input -> A -> {B, C} -> output, where S1 sends d2 to both consumers
/// and the user sends d1 to all three steps: a non-canonical slot on a
/// step's out-edge and two on the input node's.
fn fan_out() -> (WorkflowSpec, WorkflowRun) {
    let mut sb = SpecBuilder::new("fan");
    for m in ["A", "B", "C"] {
        sb.analysis(m);
    }
    sb.from_input("A")
        .from_input("B")
        .from_input("C")
        .edge("A", "B")
        .edge("A", "C")
        .to_output("B")
        .to_output("C");
    let spec = sb.build().expect("a valid spec");
    let module = |m| spec.module(m).expect("declared");
    let mut rb = RunBuilder::new(&spec);
    let s1 = rb.step(module("A"));
    let s2 = rb.step(module("B"));
    let s3 = rb.step(module("C"));
    rb.input_edge(s1, [1])
        .input_edge(s2, [1, 5])
        .input_edge(s3, [1])
        .data_edge(s1, s2, [2, 3])
        .data_edge(s1, s3, [2, 4])
        .output_edge(s2, [6])
        .output_edge(s3, [7]);
    let run = rb.build().expect("a valid run");
    (spec, run)
}

/// Generated runs of every class, as generated and with scattered ids,
/// plus the hand-made fan-out.
fn runs() -> Vec<(WorkflowSpec, WorkflowRun)> {
    let mut out = vec![fan_out()];
    for (seed, class) in [
        WorkflowClass::Linear,
        WorkflowClass::Parallel,
        WorkflowClass::Loop,
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let spec = generate_spec("canon", &SpecGenConfig::new(class, 10), &mut rng);
        let run = generate_run(&spec, &RunGenConfig::for_kind(RunKind::Medium), &mut rng)
            .expect("generated runs are valid");
        let scattered = scatter_data_ids(&spec, &run, &mut rng);
        out.push((spec.clone(), run));
        out.push((spec, scattered));
    }
    out
}

#[test]
fn builder_log_and_decoded_runs_mark_each_datums_first_slot() {
    let mut non_canonical = 0;
    for (spec, run) in runs() {
        assert_canonical(&run, "built run");
        non_canonical += run.slot_count() - run.canonical_slots().count();
        let logged = EventLog::from_run(&run, &spec)
            .to_run(&spec)
            .expect("a run's own log rebuilds it");
        assert_canonical(&logged, "run rebuilt from its log");
        let bytes = to_bytes(&run).expect("runs encode");
        let back: WorkflowRun = from_bytes(&bytes).expect("runs decode");
        assert_canonical(&back, "decoded run");
        assert_eq!(back.canonical_slots(), run.canonical_slots());
        assert_eq!(to_bytes(&back).expect("runs encode"), bytes);
    }
    assert!(non_canonical > 0, "no run repeats a datum");
}

/// Streams each run's steps in a topological order through `append_step`
/// and its final outputs through `add_final_outputs`, checking the bits
/// after every call, then compares with the run `RunBuilder` makes from
/// the same steps and edges in the same order.
#[test]
fn streamed_prefixes_mark_each_datums_first_slot_and_equal_the_batch_run() {
    for (spec, run) in runs() {
        let g = run.graph();
        let order = topological_sort(g).expect("runs are acyclic");
        let step_of = |n| run.step_at(n).map(|(id, _)| id);
        let data = |e| run.edge_data(e).iter().map(|d| d.0).collect::<Vec<_>>();

        let mut rb = RunBuilder::new(&spec);
        for &n in &order {
            if let Some((id, module)) = run.step_at(n) {
                rb.step_with_id(id, module);
            }
        }
        for &n in &order {
            let Some(id) = step_of(n) else { continue };
            for e in g.in_edges(n) {
                match step_of(g.source(e)) {
                    Some(p) => rb.data_edge(p, id, data(e)),
                    None => rb.input_edge(id, data(e)),
                };
            }
        }
        let mut finals: Vec<(StepId, Vec<DataId>)> = Vec::new();
        for e in g.in_edges(run.output()) {
            let p = step_of(g.source(e)).expect("steps produce final outputs");
            rb.output_edge(p, data(e));
            finals.push((p, run.edge_data(e).to_vec()));
        }
        let batch = rb.build().expect("the same edges make a valid run");

        let mut streamed = WorkflowRun::empty_prefix(&spec);
        for &n in &order {
            let Some((id, module)) = run.step_at(n) else {
                continue;
            };
            let inputs: Vec<(Option<StepId>, Vec<DataId>)> = g
                .in_edges(n)
                .map(|e| (step_of(g.source(e)), run.edge_data(e).to_vec()))
                .collect();
            let user_meta = inputs
                .iter()
                .filter(|(p, _)| p.is_none())
                .flat_map(|(_, ds)| ds)
                .filter_map(|&d| Some((d, batch.user_input_meta(d)?.clone())))
                .collect();
            let append = StepAppend {
                id,
                module,
                inputs,
                params: BTreeMap::new(),
                user_meta,
            };
            streamed
                .append_step(&spec, &append)
                .expect("producers come first");
            assert_canonical(&streamed, "streamed prefix");
        }
        streamed
            .add_final_outputs(&spec, &finals)
            .expect("the run's own finals");
        assert_canonical(&streamed, "sealed stream");
        assert_eq!(streamed.canonical_slots(), batch.canonical_slots());
        assert_eq!(
            to_bytes(&streamed).expect("runs encode"),
            to_bytes(&batch).expect("runs encode"),
            "the streamed run encodes like the batch run"
        );
    }
}
