//! End-to-end verification of every worked example in the paper's
//! Sections I–II, on the Figure 1 phylogenomic workflow and its Figure 2
//! run, across the whole crate stack (gen → views → model → warehouse →
//! core).

use zoom::core::ImmediateAnswer;
use zoom::model::{CompositeModule, DataId, StepId, UserView, ViewRun};
use zoom::views::relev_user_view_builder;
use zoom::Zoom;
use zoom_gen::library::{figure2_run, phylogenomic};

fn labels(spec: &zoom::WorkflowSpec, view: &UserView, of: &str) -> Vec<String> {
    let m = spec.module(of).unwrap();
    let c = view.composite_of(m);
    let mut ls: Vec<String> = view
        .members(c)
        .iter()
        .map(|&x| spec.label(x).to_string())
        .collect();
    ls.sort();
    ls
}

/// Joe flags {M2, M3, M7}: the algorithm produces his size-4 view with
/// M10 = {M3, M4, M5} and M9 = {M6, M7, M8} (Section I / Figure 3a).
#[test]
fn joes_view_is_constructed_automatically() {
    let spec = phylogenomic();
    let rel: Vec<_> = ["M2", "M3", "M7"]
        .iter()
        .map(|l| spec.module(l).unwrap())
        .collect();
    let built = relev_user_view_builder(&spec, &rel).unwrap();
    assert_eq!(built.view.size(), 4, "Joe's view has size 4");
    assert_eq!(labels(&spec, &built.view, "M3"), vec!["M3", "M4", "M5"]); // M10
    assert_eq!(labels(&spec, &built.view, "M7"), vec!["M6", "M7", "M8"]); // M9
    assert_eq!(labels(&spec, &built.view, "M2"), vec!["M2"]);
    assert_eq!(labels(&spec, &built.view, "M1"), vec!["M1"]);
    assert!(zoom::views::is_good_view(&spec, &built.view, &rel));
    assert!(zoom::views::is_minimal(&spec, &built.view, &rel));
}

/// Mary also cares about the rectification step M5: her view has size 5
/// with M11 = {M3, M4}, and she agrees with Joe on M9 (Section I /
/// Figure 3b).
#[test]
fn marys_view_is_constructed_automatically() {
    let spec = phylogenomic();
    let rel: Vec<_> = ["M2", "M3", "M5", "M7"]
        .iter()
        .map(|l| spec.module(l).unwrap())
        .collect();
    let built = relev_user_view_builder(&spec, &rel).unwrap();
    assert_eq!(built.view.size(), 5, "Mary's view has size 5");
    assert_eq!(labels(&spec, &built.view, "M3"), vec!["M3", "M4"]); // M11
    assert_eq!(labels(&spec, &built.view, "M5"), vec!["M5"]);
    assert_eq!(labels(&spec, &built.view, "M7"), vec!["M6", "M7", "M8"]); // M9
}

/// Returns Joe's and Mary's views (built by the algorithm) and the spec.
fn joe_and_mary() -> (zoom::WorkflowSpec, UserView, UserView) {
    let spec = phylogenomic();
    let joe = relev_user_view_builder(&spec, &["M2", "M3", "M7"].map(|l| spec.module(l).unwrap()))
        .unwrap()
        .view;
    let mary = relev_user_view_builder(
        &spec,
        &["M2", "M3", "M5", "M7"].map(|l| spec.module(l).unwrap()),
    )
    .unwrap()
    .view;
    (spec, joe, mary)
}

/// Section II, composite executions: Joe sees one execution S13 of M10 with
/// input {d308..d408} and output {d413}; Mary sees two executions of M11 —
/// S11 (input {d308..d408}, output {d410}) and S12 (input {d411}, output
/// {d413}).
#[test]
fn composite_executions_match_section_two() {
    let (spec, joe, mary) = joe_and_mary();
    let run = figure2_run(&spec);

    // Joe: M10's steps {S2, S3, S4, S5, S6} form ONE virtual execution.
    let vr = ViewRun::new(&run, &joe);
    let e = vr.exec_of_step(StepId(2)).unwrap();
    assert!(e.is_virtual);
    assert_eq!(
        e.members,
        [2, 3, 4, 5, 6].map(StepId).to_vec(),
        "S13 groups the whole alignment loop"
    );
    let d308_408: Vec<DataId> = (308..=408).map(DataId).collect();
    let idx = vr.execs().position(|x| x.id == e.id).expect("exec exists") as u32;
    assert_eq!(vr.inputs_of(&run, idx), d308_408);
    assert_eq!(vr.outputs_of(&run, idx), vec![DataId(413)]);

    // Mary: M11 has TWO executions.
    let vr = ViewRun::new(&run, &mary);
    let s11 = vr.exec_of_step(StepId(2)).unwrap();
    assert_eq!(s11.members, vec![StepId(2), StepId(3)]);
    let s12 = vr.exec_of_step(StepId(5)).unwrap();
    assert_eq!(s12.members, vec![StepId(5), StepId(6)]);
    assert_ne!(s11.id, s12.id);
    let i11 = vr.execs().position(|x| x.id == s11.id).unwrap() as u32;
    let i12 = vr.execs().position(|x| x.id == s12.id).unwrap() as u32;
    assert_eq!(vr.inputs_of(&run, i11), d308_408);
    assert_eq!(vr.outputs_of(&run, i11), vec![DataId(410)]);
    assert_eq!(vr.inputs_of(&run, i12), vec![DataId(411)]);
    assert_eq!(vr.outputs_of(&run, i12), vec![DataId(413)]);
}

/// Section II: "the immediate provenance of d413 seen by Joe would be S13
/// and its input {d308..d408} … that seen by Mary would be S12 and its
/// input {d411}". And Mary's deep provenance of d413 includes S11 with
/// {d308..d408}, while Joe never sees d410/d411/d412.
#[test]
fn provenance_of_d413_through_both_views() {
    let (spec, joe, mary) = joe_and_mary();
    let run = figure2_run(&spec);
    let mut z = Zoom::new();
    let sid = z.register_workflow(spec.clone()).unwrap();
    let vjoe = z.register_view(sid, joe).unwrap();
    let vmary = z.register_view(sid, mary).unwrap();
    let rid = z.load_run(sid, run).unwrap();

    // Joe's immediate provenance of d413.
    match z
        .warehouse()
        .immediate_provenance(rid, vjoe, DataId(413))
        .unwrap()
    {
        ImmediateAnswer::Produced { inputs, .. } => {
            assert_eq!(inputs, (308..=408).map(DataId).collect::<Vec<_>>());
        }
        o => panic!("unexpected {o:?}"),
    }
    // Mary's immediate provenance of d413.
    match z
        .warehouse()
        .immediate_provenance(rid, vmary, DataId(413))
        .unwrap()
    {
        ImmediateAnswer::Produced { inputs, .. } => {
            assert_eq!(inputs, vec![DataId(411)]);
        }
        o => panic!("unexpected {o:?}"),
    }

    // Mary sees d410 and d411 ("the data passed between executions of M11
    // and M5"); Joe sees neither, nor d412 (internal looping).
    let mary_deep = z.deep_provenance(rid, vmary, DataId(413)).unwrap();
    let mary_data = mary_deep.data_ids();
    assert!(mary_data.contains(&DataId(410)));
    assert!(mary_data.contains(&DataId(411)));
    let joe_deep = z.deep_provenance(rid, vjoe, DataId(413)).unwrap();
    let joe_data = joe_deep.data_ids();
    for hidden in [410u64, 411, 412] {
        assert!(
            !joe_data.contains(&DataId(hidden)),
            "Joe must not see d{hidden}"
        );
        assert!(z.deep_provenance(rid, vjoe, DataId(hidden)).is_err());
    }
    // d412 is internal to M11's executions, hidden even from Mary.
    assert!(!mary_data.contains(&DataId(412)));
}

/// Parameters recorded on steps surface through composite executions: the
/// two alignment steps' settings are reported as part of S13's immediate
/// provenance under Joe's view ("what data objects and parameters were
/// input to that step").
#[test]
fn parameters_surface_through_composite_executions() {
    let (spec, joe, _) = joe_and_mary();
    let run = figure2_run(&spec);
    let mut z = Zoom::new();
    let sid = z.register_workflow(spec).unwrap();
    let vjoe = z.register_view(sid, joe).unwrap();
    let rid = z.load_run(sid, run).unwrap();
    match z
        .warehouse()
        .immediate_provenance(rid, vjoe, DataId(413))
        .unwrap()
    {
        ImmediateAnswer::Produced { params, .. } => {
            // Params of both M3 executions (S2 and S5) belong to the
            // composite execution that produced d413.
            assert!(params.contains(&(StepId(2), "gap-penalty".into(), "10".into())));
            assert!(params.contains(&(StepId(5), "gap-penalty".into(), "8".into())));
            assert_eq!(params.len(), 4);
        }
        o => panic!("unexpected {o:?}"),
    }
}

/// Section I: "the provenance of the final data object d447 would include
/// every data object (d1..d447) and every step (S1..S10)" — at the UAdmin
/// level.
#[test]
fn deep_provenance_of_d447_under_uadmin_is_everything() {
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let mut z = Zoom::new();
    let sid = z.register_workflow(spec).unwrap();
    let admin = z.admin_view(sid).unwrap();
    let rid = z.load_run(sid, run).unwrap();
    let res = z.deep_provenance(rid, admin, DataId(447)).unwrap();
    assert_eq!(res.tuples(), 447, "all 447 data objects");
    assert_eq!(
        res.execs,
        (1..=10).map(StepId).collect::<Vec<_>>(),
        "all ten steps"
    );
}

/// The introduction's cautionary example: grouping M1 with M2 fabricates an
/// apparent dependency of Run-alignment on Annotation-checking; the
/// property checker rejects that view.
#[test]
fn grouping_m1_with_m2_is_rejected() {
    let spec = phylogenomic();
    let m = |l: &str| spec.module(l).unwrap();
    let rel = vec![m("M2"), m("M3"), m("M7")];
    let bad = UserView::new(
        "bad-joe",
        &spec,
        vec![
            CompositeModule::new("M12", vec![m("M1"), m("M2")]),
            CompositeModule::new("M10", vec![m("M3"), m("M4"), m("M5")]),
            CompositeModule::new("M9", vec![m("M6"), m("M7"), m("M8")]),
        ],
    )
    .unwrap();
    assert!(!zoom::views::is_good_view(&spec, &bad, &rel));
}

/// The full pipeline through logs: synthesizing the Figure 2 run's event
/// log, ingesting it into the warehouse, and querying, gives the same
/// answers as loading the run directly.
#[test]
fn log_ingestion_preserves_provenance_answers() {
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = zoom::model::EventLog::from_run(&run, &spec);

    let mut z = Zoom::new();
    let sid = z.register_workflow(spec.clone()).unwrap();
    let admin = z.admin_view(sid).unwrap();
    let direct = z.load_run(sid, run).unwrap();
    let via_log = z.load_log(sid, &log).unwrap();

    let a = z.deep_provenance(direct, admin, DataId(447)).unwrap();
    let b = z.deep_provenance(via_log, admin, DataId(447)).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.execs, b.execs);
}

/// Joe's and Mary's induced specifications have the expected shapes
/// (Figure 3): sizes 4 and 5, and Mary's keeps the M11 <-> M5 loop visible
/// while Joe's hides the loop inside M10.
#[test]
fn induced_specifications_match_figure3() {
    let (spec, joe, mary) = joe_and_mary();

    // Joe: the M3->M4->M5 cycle is internal to M10, so it surfaces only as
    // a self-loop on M10 (a loop that *was* present in the original, per
    // the paper's no-new-loops lemma); there is no cycle between distinct
    // composites.
    let ij = zoom::model::induced_spec(&spec, &joe);
    assert_eq!(ij.spec.module_count(), 4);
    let m10 = ij.node(joe.composite_of(spec.module("M3").unwrap()));
    assert!(
        ij.spec.graph().has_edge(m10, m10),
        "M10 carries a self-loop"
    );
    let ij_backs = zoom::graph::algo::cycles::back_edges(ij.spec.graph());
    assert_eq!(
        ij_backs.len(),
        1,
        "the self-loop is the only cycle Joe sees"
    );
    assert_eq!(ij.spec.graph().endpoints(ij_backs[0]), (m10, m10));

    // Mary: the loop leaves M11 through M5, so she sees a genuine
    // two-composite cycle M11 <-> M5.
    let im = zoom::model::induced_spec(&spec, &mary);
    assert_eq!(im.spec.module_count(), 5);
    let m11 = im.node(mary.composite_of(spec.module("M3").unwrap()));
    let m5 = im.node(mary.composite_of(spec.module("M5").unwrap()));
    assert!(im.spec.graph().has_edge(m11, m5));
    assert!(im.spec.graph().has_edge(m5, m11));
    assert!(!im.spec.graph().has_edge(m11, m11));
}
