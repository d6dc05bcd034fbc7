//! The First Provenance Challenge, through user views.
//!
//! The paper's provenance model was the authors' entry to the First
//! Provenance Challenge (references [5], [6]). This example loads the
//! challenge's fMRI workflow — four anatomy images aligned, resliced,
//! averaged, sliced along three axes, and converted to atlas graphics —
//! and answers challenge-style queries at three view levels, including the
//! challenge's signature Query 1: *"find the process that led to Atlas X
//! Graphic"*.
//!
//! ```sh
//! cargo run --example provenance_challenge
//! ```

use zoom::core::{CannedQuery, Cx};
use zoom::model::DataId;
use zoom::Zoom;
use zoom_gen::library::{provenance_challenge, provenance_challenge_run};

fn main() {
    let spec = provenance_challenge();
    let run = provenance_challenge_run(&spec);
    println!(
        "challenge workflow: {} modules; canonical run: {} steps, {} data objects\n",
        spec.module_count(),
        run.step_count(),
        run.data_count()
    );

    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).expect("fresh");
    let admin = zoom.admin_view(sid).expect("admin");
    // A neuroscientist's view: alignment details are plumbing; what matters
    // is the averaging and the slicing.
    let science = zoom
        .build_view(sid, &["Softmean", "Slicer"])
        .expect("good view");
    let blackbox = zoom.black_box_view(sid).expect("blackbox");
    let rid = zoom.load_run(sid, run).expect("loads");

    let view_of = |v| zoom.warehouse().view(v).expect("registered");
    println!("views:");
    for v in [admin, science, blackbox] {
        let view = view_of(v);
        println!("  {:<12} size {}", view.name(), view.size());
    }

    // Challenge Query 1: the process that led to Atlas X Graphic (d21).
    println!("\nQ1 — everything that led to Atlas X Graphic (d21):");
    for (who, v) in [
        ("admin", admin),
        ("science", science),
        ("blackbox", blackbox),
    ] {
        let res = zoom.deep_provenance(rid, v, DataId(21)).expect("visible");
        println!(
            "  {who:<9}: {} tuples, {} execution(s)",
            res.tuples(),
            res.exec_count()
        );
    }

    // At the science view, alignment and reslicing collapse into the
    // Softmean composite: the answer names the averaged atlas and the raw
    // inputs, not the warp parameters.
    let vr = zoom
        .warehouse()
        .view_run(rid, science)
        .expect("materialized");
    let res = zoom
        .deep_provenance(rid, science, DataId(21))
        .expect("visible");
    println!("\nthe science-level provenance graph of d21:");
    print!(
        "{}",
        zoom::core::provenance_to_text(
            zoom.warehouse().run(rid).expect("loaded"),
            &vr,
            view_of(science),
            &res
        )
    );

    // Challenge-style forward query: everything affected by the second
    // anatomy image (d3).
    let q = CannedQuery::parse("dependents d3").expect("parses");
    let ans = zoom.read(&Cx::ADMIN, &q.op(rid, admin)).expect("answers");
    println!("\neverything derived from anatomy image d3:\n  {ans}");

    // Edge inspection: what flowed from Softmean's execution to the first
    // slicer at the admin level? (S9 is the softmean step.)
    let q = CannedQuery::parse("between S9 S10").expect("parses");
    let ans = zoom.read(&Cx::ADMIN, &q.op(rid, admin)).expect("answers");
    println!("\ndata from softmean (S9) to the first slicer (S10):\n  {ans}");
}
