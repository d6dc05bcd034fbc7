//! A domain walkthrough: a biologist explores provenance interactively.
//!
//! Simulates the Section IV user experience on the phylogenomic workflow:
//! flag/unflag relevant modules and watch the view evolve; run the workflow
//! several times (the generator unrolls the alignment loop differently per
//! run); focus a data object; switch between views and observe how much
//! provenance each level reveals; and ask the canned forward query.
//!
//! ```sh
//! cargo run --example phylogenomics
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use zoom::model::DataId;
use zoom::{QuerySession, Zoom};
use zoom_gen::library::phylogenomic;
use zoom_gen::{generate_run, RunGenConfig, RunKind};
use zoom_views::InteractiveViewBuilder;

fn main() {
    let spec = phylogenomic();

    // --- 1. Interactive view building: the user flags modules one by one
    // and the good view is rebuilt each time (Section IV).
    println!("== Interactive view building ==");
    let mut builder = InteractiveViewBuilder::new(&spec);
    for label in ["M3", "M7", "M2"] {
        builder.flag(label).expect("module exists");
        let built = builder.current().expect("builder succeeds");
        println!(
            "flag {label:<3} -> view of size {} ({} non-relevant composite(s))",
            built.view.size(),
            built.non_relevant_composites
        );
    }
    // A second thought: unflag M2 again.
    builder.unflag("M2").expect("module exists");
    let built = builder.current().expect("builder succeeds");
    println!("unflag M2 -> view of size {}", built.view.size());
    builder.flag("M2").expect("module exists");

    // --- 2. Register everything with ZOOM.
    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).expect("fresh spec");
    let joe = zoom
        .build_view(sid, &["M2", "M3", "M7"])
        .expect("good view");
    let mary = zoom
        .build_view(sid, &["M2", "M3", "M5", "M7"])
        .expect("good view");
    let admin = zoom.admin_view(sid).expect("admin");
    let blackbox = zoom.black_box_view(sid).expect("blackbox");

    // --- 3. Execute the workflow three times ("workflows may be executed
    // several times a month"): simulated runs with different loop counts.
    let mut rng = StdRng::seed_from_u64(2008);
    let mut runs = Vec::new();
    for i in 0..3 {
        let run = generate_run(&spec, &RunGenConfig::for_kind(RunKind::Medium), &mut rng)
            .expect("valid run");
        println!(
            "\nrun {}: {} steps, {} data objects",
            i + 1,
            run.step_count(),
            run.data_count()
        );
        runs.push(zoom.load_run(sid, run).expect("loads"));
    }

    // --- 4. A query session on the latest run: focus the final tree and
    // zoom through the view levels.
    println!("\n== Query session on the latest run ==");
    let rid = *runs.last().expect("three runs");
    let mut session = QuerySession::new(&zoom, rid, admin);
    let res = session.focus_final_output().expect("final output visible");
    println!(
        "UAdmin   : {} tuples, {} executions",
        res.tuples(),
        res.exec_count()
    );
    for (name, v) in [("Joe", joe), ("Mary", mary), ("UBlackBox", blackbox)] {
        let res = session.switch_view(v).expect("final output always visible");
        println!(
            "{name:<9}: {} tuples, {} executions",
            res.tuples(),
            res.exec_count()
        );
    }
    println!(
        "query timings: {:?}",
        session
            .history()
            .iter()
            .map(|(_, d)| format!("{d:.1?}"))
            .collect::<Vec<_>>()
    );

    // --- 5. The canned forward query: what depends on the alignment?
    println!("\n== Forward provenance ==");
    let vr = zoom.warehouse().view_run(rid, admin).expect("materialized");
    // Pick the first data object produced by an M3 (alignment) step.
    let run = zoom.warehouse().run(rid).expect("loaded");
    let m3 = spec.module("M3").expect("exists");
    let alignment_datum: DataId = run
        .steps()
        .filter(|&(_, m)| m == m3)
        .filter_map(|(s, _)| run.outputs_of(s).ok())
        .flatten()
        .find(|&d| vr.is_visible(run, d))
        .expect("some alignment output is visible");
    let dependents = zoom
        .warehouse()
        .dependents_of(rid, admin, alignment_datum)
        .expect("visible");
    println!(
        "{} data object(s) depend on alignment output {alignment_datum}",
        dependents.len()
    );

    // --- 5b. Reproducibility check: compare two runs at two view levels.
    // The runs differ in loop iterations; Joe's view (which folds the
    // alignment loop into one composite) may hide exactly that difference.
    println!("\n== Run comparison (reproducibility) ==");
    let (ra, rb) = (runs[0], runs[1]);
    for (name, v) in [("UAdmin", admin), ("Joe", joe)] {
        let vra = zoom.warehouse().view_run(ra, v).expect("materializes");
        let vrb = zoom.warehouse().view_run(rb, v).expect("materializes");
        let run = |r| zoom.warehouse().run(r).expect("loaded");
        let cmp = zoom::core::compare_view_runs((run(ra), &vra), (run(rb), &vrb));
        println!(
            "{name:<7}: {} aligned, {} divergence(s){}",
            cmp.matched.len(),
            cmp.divergences(),
            if cmp.identical_shape() {
                " — indistinguishable at this level"
            } else {
                ""
            }
        );
    }

    // --- 6. Immediate provenance of a user input resolves to metadata.
    let ui = run.user_inputs()[0];
    match zoom
        .warehouse()
        .immediate_provenance(rid, admin, ui)
        .expect("user input visible")
    {
        zoom::core::ImmediateAnswer::UserInput { meta } => {
            let meta = meta.expect("recorded");
            println!("{ui} was provided by `{}` at {}", meta.user, meta.time);
        }
        other => panic!("unexpected {other:?}"),
    }
}
