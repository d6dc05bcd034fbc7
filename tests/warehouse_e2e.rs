//! End-to-end warehouse tests on generated workloads: ingestion paths agree,
//! caching is transparent, persistence survives at scale, and the
//! evaluation corpus behaves like Section V expects.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zoom::model::{DataId, EventLog};
use zoom::Zoom;
use zoom_bench::{build_corpus, Scale};
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};

/// Loading a run directly and loading its synthesized log give identical
/// provenance answers across all three view families.
#[test]
fn run_and_log_ingestion_agree_on_generated_workloads() {
    let mut rng = StdRng::seed_from_u64(77);
    for class in [WorkflowClass::Linear, WorkflowClass::Loop] {
        let spec = generate_spec("agree", &SpecGenConfig::new(class, 15), &mut rng);
        let run = generate_run(&spec, &RunGenConfig::for_kind(RunKind::Medium), &mut rng)
            .expect("valid run");
        let log = EventLog::from_run(&run, &spec);

        let mut z = Zoom::new();
        let sid = z.register_workflow(spec.clone()).expect("fresh");
        let admin = z.admin_view(sid).expect("admin");
        let bb = z.black_box_view(sid).expect("bb");
        let direct = z.load_run(sid, run).expect("loads");
        let via_log = z.load_log(sid, &log).expect("loads");

        for view in [admin, bb] {
            let a = z
                .deep_provenance_of_final_output(direct, view)
                .expect("visible");
            let b = z
                .deep_provenance_of_final_output(via_log, view)
                .expect("visible");
            assert_eq!(a.rows, b.rows, "{class} view {view}");
            assert_eq!(a.execs, b.execs);
        }
    }
}

/// Cached and uncached query paths return identical answers; the cache
/// registers hits on repeats.
#[test]
fn cache_is_transparent() {
    let corpus = build_corpus(Scale::Quick, 123);
    corpus.zoom.warehouse().clear_cache();
    let w = &corpus.workflows[0];
    let rid = w.runs[2].1[0]; // a large run
    let cached = corpus
        .zoom
        .deep_provenance_of_final_output(rid, w.bio)
        .expect("visible");
    let vr = corpus
        .zoom
        .warehouse()
        .view_run_uncached(rid, w.bio)
        .expect("valid");
    let target = corpus.zoom.final_outputs(rid).expect("loaded")[0];
    let run = corpus.zoom.warehouse().run(rid).expect("loaded");
    let uncached = zoom::warehouse::deep_provenance(
        run,
        &vr,
        zoom::warehouse::Reach::Bfs,
        target,
        &mut zoom::warehouse::Deadline::unlimited(),
    )
    .expect("well-formed")
    .expect("visible");
    assert_eq!(cached.rows, uncached.rows);
    assert_eq!(cached.execs, uncached.execs);

    let before = corpus.zoom.warehouse().cache_counters();
    corpus
        .zoom
        .deep_provenance_of_final_output(rid, w.bio)
        .expect("visible");
    let after = corpus.zoom.warehouse().cache_counters();
    assert_eq!(after.0, before.0 + 1, "second query hits the cache");
}

/// A full quick-scale corpus survives snapshot persistence with identical
/// query answers.
#[test]
fn corpus_snapshot_roundtrip() {
    let corpus = build_corpus(Scale::Quick, 321);
    let mut path = std::env::temp_dir();
    path.push(format!("zoom-e2e-snapshot-{}", std::process::id()));
    corpus.zoom.save(&path).expect("saves");
    let reloaded = Zoom::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();

    let s1 = corpus.zoom.warehouse().stats();
    let s2 = reloaded.warehouse().stats();
    assert_eq!(s1.specs, s2.specs);
    assert_eq!(s1.views, s2.views);
    assert_eq!(s1.runs, s2.runs);
    assert_eq!(s1.steps, s2.steps);
    assert_eq!(s1.data_objects, s2.data_objects);

    for w in corpus.workflows.iter().take(4) {
        for (_, runs) in &w.runs {
            let rid = runs[0];
            for view in [w.admin, w.bio, w.black_box] {
                let a = corpus
                    .zoom
                    .deep_provenance_of_final_output(rid, view)
                    .expect("visible");
                let b = reloaded
                    .deep_provenance_of_final_output(rid, view)
                    .expect("visible");
                assert_eq!(a.rows, b.rows);
            }
        }
    }
}

/// The Section V headline ordering holds on every run of a quick corpus:
/// UAdmin ≥ UBio ≥ UBlackBox, and UBlackBox answers contain only user
/// inputs plus the target.
#[test]
fn view_family_ordering_holds_corpus_wide() {
    let corpus = build_corpus(Scale::Quick, 55);
    for w in &corpus.workflows {
        for (_, runs) in &w.runs {
            for &rid in runs {
                let q = |view| {
                    corpus
                        .zoom
                        .deep_provenance_of_final_output(rid, view)
                        .expect("visible")
                };
                let (a, b, c) = (q(w.admin), q(w.bio), q(w.black_box));
                assert!(a.tuples() >= b.tuples());
                assert!(b.tuples() >= c.tuples());
                // Black-box answers: every row is user input or the target.
                let run = corpus.zoom.warehouse().run(rid).expect("loaded");
                let finals = run.final_outputs();
                for row in &c.rows {
                    assert!(
                        row.producer.is_none() || finals.contains(&row.data),
                        "black-box row {row:?} is neither user input nor final"
                    );
                }
            }
        }
    }
}

/// Journaled ingestion reaches the same state as bulk loading followed by
/// a snapshot: same stats, same provenance answers.
#[test]
fn journal_and_snapshot_agree() {
    use zoom::warehouse::DurableWarehouse;
    let mut rng = StdRng::seed_from_u64(888);
    let specs: Vec<_> = (0..3)
        .map(|i| {
            generate_spec(
                &format!("jn-{i}"),
                &SpecGenConfig::new(WorkflowClass::Loop, 10),
                &mut rng,
            )
        })
        .collect();
    let runs: Vec<Vec<_>> = specs
        .iter()
        .map(|s| {
            (0..2)
                .map(|_| {
                    generate_run(s, &RunGenConfig::for_kind(RunKind::Medium), &mut rng)
                        .expect("valid run")
                })
                .collect()
        })
        .collect();

    // Path A: journal every mutation, then reopen (replaying the journal).
    let mut dir = std::env::temp_dir();
    dir.push(format!("zoom-e2e-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut dw = DurableWarehouse::open(&dir).expect("creates");
        for (s, rs) in specs.iter().zip(&runs) {
            let sid = dw.register_spec(s.clone()).expect("registers");
            dw.register_view(sid, zoom::model::UserView::admin(s))
                .expect("registers");
            for r in rs {
                dw.load_run(sid, r.clone()).expect("loads");
            }
        }
    }
    let replayed = DurableWarehouse::open(&dir).expect("replays");
    let st = replayed.stats();
    assert_eq!(st.epoch, 0, "reopened from the journal, not a snapshot");
    assert_eq!(st.journal_records, 3 * (2 + 2));

    // Path B: bulk-load the same content into a plain warehouse, then
    // round-trip it through a snapshot.
    let mut bulk = Zoom::new();
    for (s, rs) in specs.iter().zip(&runs) {
        let sid = bulk.register_workflow(s.clone()).expect("registers");
        bulk.admin_view(sid).expect("registers");
        for r in rs {
            bulk.load_run(sid, r.clone()).expect("loads");
        }
    }
    let mut spath = std::env::temp_dir();
    // Not `corpus_snapshot_roundtrip`'s file: the two tests run in parallel.
    spath.push(format!("zoom-e2e-journal-snapshot-{}", std::process::id()));
    bulk.save(&spath).expect("snapshot saved");
    let z = Zoom::load(&spath).expect("snapshot loads");
    std::fs::remove_file(&spath).ok();

    let (a, b) = (replayed.warehouse().stats(), z.warehouse().stats());
    assert_eq!(a.specs, b.specs);
    assert_eq!(a.views, b.views);
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.data_objects, b.data_objects);

    // Same answers for every final output.
    for name in specs.iter().map(|s| s.name()) {
        let (sa, sb) = (
            replayed.warehouse().spec_by_name(name).expect("present"),
            z.warehouse().spec_by_name(name).expect("present"),
        );
        let (va, vb) = (
            replayed
                .warehouse()
                .find_view(sa, "UAdmin")
                .expect("present"),
            z.warehouse().find_view(sb, "UAdmin").expect("present"),
        );
        for (&ra, &rb) in replayed
            .warehouse()
            .runs_of_spec(sa)
            .iter()
            .zip(z.warehouse().runs_of_spec(sb))
        {
            let target = replayed
                .warehouse()
                .run(ra)
                .expect("loaded")
                .final_outputs()[0];
            let x = replayed
                .warehouse()
                .deep_provenance(ra, va, target)
                .expect("visible");
            let y = z
                .warehouse()
                .deep_provenance(rb, vb, target)
                .expect("visible");
            assert_eq!(x.rows, y.rows);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Edge inspection (Section IV): for every view edge of a materialized
/// view-run, `data_between` returns exactly the edge label — the data of
/// the run edges the view edge merges.
#[test]
fn data_between_agrees_with_view_run_edges() {
    let corpus = build_corpus(Scale::Quick, 99);
    let w = &corpus.workflows[8]; // a synthetic workflow
    let rid = w.runs[1].1[0];
    let vr = corpus
        .zoom
        .warehouse()
        .view_run(rid, w.bio)
        .expect("materializes");
    let run = corpus.zoom.warehouse().run(rid).expect("loaded");
    let mut labels: std::collections::BTreeMap<_, Vec<DataId>> = Default::default();
    for (e, s, t, _) in run.graph().edges() {
        let (vs, vt) = (vr.view_node(run, s), vr.view_node(run, t));
        if vs != vt {
            labels.entry((vs, vt)).or_default().extend(run.edge_data(e));
        }
    }
    let mut checked = 0;
    for ((s, t), mut data) in labels {
        let from = vr.exec_at(s).map(|x| x.id);
        let to = vr.exec_at(t).map(|x| x.id);
        let op = zoom::core::Op::DataBetween(rid, w.bio, from, to);
        let got: Vec<DataId> =
            zoom::warehouse::typed(corpus.zoom.read(&zoom::core::Cx::ADMIN, &op))
                .expect("valid endpoints");
        data.sort();
        data.dedup();
        assert_eq!(got, data);
        checked += 1;
    }
    assert!(checked > 0);
}
