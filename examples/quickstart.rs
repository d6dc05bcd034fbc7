//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Figure 1 phylogenomic workflow and its Figure 2 run, derives
//! Joe's and Mary's user views with `RelevUserViewBuilder`, loads everything
//! into the provenance warehouse, and asks the paper's provenance questions.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use zoom::core::ImmediateAnswer;
use zoom::model::DataId;
use zoom::Zoom;
use zoom_gen::library::{figure2_run, phylogenomic};

fn main() {
    // --- 1. The workflow specification (Figure 1).
    let spec = phylogenomic();
    println!(
        "Workflow `{}` with {} modules:",
        spec.name(),
        spec.module_count()
    );

    // --- 2. Register it and build the two user views of the introduction.
    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).expect("fresh spec");
    // Joe finds annotation checking, alignment, and tree building relevant.
    let joe = zoom
        .build_view(sid, &["M2", "M3", "M7"])
        .expect("good view");
    // Mary also cares about rectification (M5).
    let mary = zoom
        .build_view(sid, &["M2", "M3", "M5", "M7"])
        .expect("good view");
    let admin = zoom.admin_view(sid).expect("admin view");

    for (who, v) in [("Joe", joe), ("Mary", mary)] {
        let view = zoom.warehouse().view(v).expect("registered");
        println!("{who}'s view (size {}):", view.size());
        for c in view.composites() {
            let members: Vec<&str> = c.members.iter().map(|&m| spec.label(m)).collect();
            println!("  {} = {members:?}", c.name);
        }
    }

    // Render Figure 1 itself: Joe's composites as dotted boxes, his
    // relevant modules shaded.
    let joe_view = zoom.warehouse().view(joe).expect("registered").clone();
    let rel: Vec<_> = ["M2", "M3", "M7"]
        .iter()
        .map(|l| spec.module(l).expect("exists"))
        .collect();
    println!("\nFigure 1 with Joe's view overlaid (DOT):");
    println!(
        "{}",
        zoom::core::view_on_spec_to_dot(&spec, &joe_view, &rel)
    );

    // --- 3. Load the Figure 2 run (steps S1..S10, data d1..d447).
    let run = figure2_run(&spec);
    let rid = zoom.load_run(sid, run).expect("valid run");

    // --- 4. The paper's provenance questions.
    println!("\nImmediate provenance of d413:");
    for (who, v) in [("Joe", joe), ("Mary", mary)] {
        match zoom
            .warehouse()
            .immediate_provenance(rid, v, DataId(413))
            .expect("d413 visible")
        {
            ImmediateAnswer::Produced { exec, inputs, .. } => {
                println!(
                    "  {who}: produced by {exec} from {} input object(s) [{}..{}]",
                    inputs.len(),
                    inputs.first().expect("nonempty"),
                    inputs.last().expect("nonempty"),
                );
            }
            ImmediateAnswer::UserInput { .. } => unreachable!("d413 is produced"),
        }
    }

    println!("\nDeep provenance of the final tree d447:");
    for (who, v) in [("admin", admin), ("Joe", joe), ("Mary", mary)] {
        let res = zoom
            .deep_provenance(rid, v, DataId(447))
            .expect("final output visible");
        println!(
            "  {who:>5}: {} tuples across {} execution(s)",
            res.tuples(),
            res.exec_count()
        );
    }

    // --- 5. Render Joe's provenance graph (the Figure 9 analog).
    let run = zoom.warehouse().run(rid).expect("loaded");
    let vr = zoom.warehouse().view_run(rid, joe).expect("materialized");
    let view = zoom.warehouse().view(joe).expect("registered");
    let res = zoom
        .deep_provenance(rid, joe, DataId(447))
        .expect("visible");
    println!("\nJoe's provenance graph of d447 (DOT):");
    println!("{}", zoom::core::provenance_to_dot(run, &vr, view, &res));
    println!("Joe's provenance of d447 as a tree:");
    println!("{}", zoom::core::provenance_to_text(run, &vr, view, &res));
}
