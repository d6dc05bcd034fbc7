//! A simulated laboratory's provenance warehouse.
//!
//! Section V sizes the evaluation as "what would happen in a large
//! laboratory with 40 workflows, each of which is executed about twice a
//! week". This example builds that lab: 10 real (curated) workflows plus 30
//! synthetic ones across the Table I classes, eight runs each, a UBio view
//! per workflow, everything persisted to a snapshot and reloaded.
//!
//! ```sh
//! cargo run --release --example lab_warehouse
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use zoom::model::ModuleKind;
use zoom::Zoom;
use zoom_gen::{
    generate_run, generate_spec, library, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(40);
    let mut zoom = Zoom::new();

    // --- 1. Forty workflows: ten from the curated library plus 10 per
    // synthetic class.
    let mut specs: Vec<_> = library::real_workflows().into_iter().take(10).collect();
    for class in [
        WorkflowClass::Linear,
        WorkflowClass::Parallel,
        WorkflowClass::Loop,
    ] {
        for i in 0..10 {
            specs.push(generate_spec(
                &format!("{}-{}", class.label(), i + 1),
                &SpecGenConfig::new(class, 20),
                &mut rng,
            ));
        }
    }
    assert_eq!(specs.len(), 40);

    let mut total_runs = 0usize;
    for spec in specs {
        let sid = zoom.register_workflow(spec.clone()).expect("unique names");

        // A UBio view: the biologist flags the analysis (non-formatting)
        // modules as relevant.
        let relevant: Vec<&str> = spec
            .module_ids()
            .filter(|&m| spec.kind(m) == ModuleKind::Analysis)
            .map(|m| spec.label(m))
            .collect();
        zoom.build_view(sid, &relevant).expect("good view");
        zoom.admin_view(sid).expect("admin");
        zoom.black_box_view(sid).expect("blackbox");

        // Eight runs (about a month at twice a week), mixed sizes.
        for r in 0..8 {
            let kind = match r % 3 {
                0 => RunKind::Small,
                1 => RunKind::Medium,
                _ => RunKind::Large,
            };
            let run =
                generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng).expect("valid run");
            zoom.load_run(sid, run).expect("loads");
            total_runs += 1;
        }
    }

    let stats = zoom.warehouse().stats();
    println!("lab warehouse loaded:");
    println!("  workflows    : {}", stats.specs);
    println!("  user views   : {}", stats.views);
    println!("  runs         : {} (loaded {total_runs})", stats.runs);
    println!("  steps        : {}", stats.steps);
    println!("  data objects : {}", stats.data_objects);

    // --- 2. Query every run's final output through its UBio view.
    let mut tuples_admin = 0usize;
    let mut tuples_bio = 0usize;
    let mut tuples_bb = 0usize;
    for sid in (0..stats.specs as u32).map(zoom::core::SpecId) {
        let spec_name = zoom
            .warehouse()
            .spec(sid)
            .expect("registered")
            .name()
            .to_string();
        let bio = zoom
            .warehouse()
            .views_of_spec(sid)
            .iter()
            .copied()
            .find(|&v| {
                zoom.warehouse()
                    .view(v)
                    .is_ok_and(|vw| vw.name().starts_with("UV("))
            })
            .unwrap_or_else(|| panic!("UBio view registered for {spec_name}"));
        let admin = zoom.warehouse().find_view(sid, "UAdmin").expect("admin");
        let bb = zoom
            .warehouse()
            .find_view(sid, "UBlackBox")
            .expect("blackbox");
        for &rid in zoom.warehouse().runs_of_spec(sid) {
            tuples_admin += zoom
                .deep_provenance_of_final_output(rid, admin)
                .expect("visible")
                .tuples();
            tuples_bio += zoom
                .deep_provenance_of_final_output(rid, bio)
                .expect("visible")
                .tuples();
            tuples_bb += zoom
                .deep_provenance_of_final_output(rid, bb)
                .expect("visible")
                .tuples();
        }
    }
    println!("\ndeep provenance of every final output ({total_runs} runs):");
    println!("  UAdmin    tuples: {tuples_admin}");
    println!("  UBio      tuples: {tuples_bio}");
    println!("  UBlackBox tuples: {tuples_bb}");
    let (hits, misses) = zoom.warehouse().cache_counters();
    println!("  view-run cache: {hits} hits / {misses} misses");

    // --- 3. Persist and reload; answers survive.
    let mut path = std::env::temp_dir();
    path.push("zoom-lab-warehouse.snapshot");
    zoom.save(&path).expect("snapshot saved");
    let size = std::fs::metadata(&path).expect("exists").len();
    println!("\nsnapshot: {} ({size} bytes)", path.display());

    // --- 3b. Incremental durability: the same lab can journal each
    // mutation as it happens instead of re-snapshotting; a crash only ever
    // loses the torn tail record.
    let mut dir = std::env::temp_dir();
    dir.push("zoom-lab-warehouse.durable");
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut durable =
            zoom::warehouse::DurableWarehouse::open(&dir).expect("durable store created");
        let spec = zoom_gen::library::phylogenomic();
        let sid = durable.register_spec(spec.clone()).expect("registers");
        durable
            .register_view(sid, zoom::model::UserView::admin(&spec))
            .expect("registers");
        durable
            .load_run(sid, zoom_gen::library::figure2_run(&spec))
            .expect("loads");
        println!(
            "journal: {} records under {}",
            durable.stats().journal_records,
            dir.display()
        );
    }
    let replayed = zoom::warehouse::DurableWarehouse::open(&dir).expect("replays");
    assert_eq!(replayed.warehouse().stats().runs, 1);
    println!(
        "journal replayed: {} records intact",
        replayed.stats().journal_records
    );
    std::fs::remove_dir_all(&dir).ok();

    let reloaded = Zoom::load(&path).expect("snapshot loads");
    std::fs::remove_file(&path).ok();
    let rstats = reloaded.warehouse().stats();
    assert_eq!(rstats.specs, stats.specs);
    assert_eq!(rstats.runs, stats.runs);
    assert_eq!(rstats.data_objects, stats.data_objects);
    // Spot-check a reloaded query.
    let sid = reloaded
        .warehouse()
        .spec_by_name("phylogenomic")
        .expect("library spec present");
    let admin = reloaded
        .warehouse()
        .find_view(sid, "UAdmin")
        .expect("still registered");
    let rid = reloaded.warehouse().runs_of_spec(sid)[0];
    let res = reloaded
        .deep_provenance_of_final_output(rid, admin)
        .expect("visible");
    println!(
        "reloaded warehouse answers queries (phylogenomic run: {} tuples)",
        res.tuples()
    );
}
