//! Property-based invariants of provenance through user views, checked on
//! generated workloads across the whole stack.
//!
//! The key laws:
//!
//! 1. **Oracle agreement.** UAdmin deep provenance equals the textbook
//!    recursive definition `prov(d) = {d} ∪ ⋃ prov(inputs(producer(d)))`
//!    computed directly on the run (an independent code path).
//! 2. **Refinement monotonicity.** If view `V1` refines `V2`, everything
//!    visible at `V2` is visible at `V1`, and the deep-provenance data of a
//!    commonly-visible object at `V2` is contained in its data at `V1`,
//!    restricted to `V2`-visible objects... precisely: the `V2` answer's
//!    data set is a subset of the `V1` answer's data set *unioned with
//!    data hidden at `V1`*: we check the practical corollary —
//!    `tuples(V1) ≥ tuples(V2)` for final outputs, with UAdmin maximal.
//! 3. **Duality.** `d ∈ prov(x)` iff `x ∈ dependents(d)` (both visible).
//! 4. **Boundary law.** A composite execution's inputs/outputs are exactly
//!    the data crossing its boundary in the run.
//! 5. **Log round-trip.** Generated runs survive run → log → run with
//!    identical provenance answers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use zoom::model::{DataId, EventLog, Producer, UserView, ViewRun, WorkflowRun, WorkflowSpec};
use zoom_gen::{generate_run, generate_spec, RunGenConfig, SpecGenConfig, WorkflowClass};
use zoom_views::relev_user_view_builder;

fn workload(seed: u64, class: u8, modules: usize) -> (WorkflowSpec, WorkflowRun) {
    let mut rng = StdRng::seed_from_u64(seed);
    let class = match class % 3 {
        0 => WorkflowClass::Linear,
        1 => WorkflowClass::Parallel,
        _ => WorkflowClass::Loop,
    };
    let spec = generate_spec("prop", &SpecGenConfig::new(class, modules), &mut rng);
    let cfg = RunGenConfig {
        user_input: (1, 20),
        data_per_step: (1, 4),
        loop_iterations: (1, 6),
        max_nodes: 300,
        max_edges: 300,
    };
    let run = generate_run(&spec, &cfg, &mut rng).expect("valid run");
    (spec, run)
}

/// The textbook recursive provenance definition, memoized, straight off the
/// run graph — independent of the ViewRun machinery.
fn oracle_prov(
    run: &WorkflowRun,
    d: DataId,
    memo: &mut HashMap<DataId, BTreeSet<DataId>>,
) -> BTreeSet<DataId> {
    if let Some(hit) = memo.get(&d) {
        return hit.clone();
    }
    let mut acc: BTreeSet<DataId> = BTreeSet::new();
    acc.insert(d);
    if let Some(Producer::Step(s)) = run.producer_of(d) {
        for x in run.inputs_of(s).expect("step exists") {
            acc.extend(oracle_prov(run, x, memo));
        }
    }
    memo.insert(d, acc.clone());
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Law 1: UAdmin deep provenance ≡ the recursive definition.
    #[test]
    fn admin_provenance_matches_recursive_definition(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..15,
    ) {
        let (spec, run) = workload(seed, class, modules);
        let vr = ViewRun::new(&run, &UserView::admin(&spec));
        let mut memo = HashMap::new();
        for &d in run.all_data().iter().take(40) {
            let got: BTreeSet<DataId> = zoom::warehouse::deep_provenance(&run, &vr, zoom::warehouse::Reach::Bfs, d, &mut zoom::warehouse::Deadline::unlimited())
                .expect("run is well-formed")
                .expect("all data visible under UAdmin")
                .data_ids()
                .into_iter()
                .collect();
            let want = oracle_prov(&run, d, &mut memo);
            prop_assert_eq!(&got, &want, "provenance of {} diverges", d);
        }
    }

    /// Law 2: result size shrinks monotonically as views coarsen along a
    /// refinement chain UAdmin -> built view -> UBlackBox.
    #[test]
    fn refinement_shrinks_results(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..15,
        mask in any::<u64>(),
    ) {
        let (spec, run) = workload(seed, class, modules);
        let relevant: Vec<_> = spec
            .module_ids()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, m)| m)
            .collect();
        let mid = relev_user_view_builder(&spec, &relevant).expect("builds").view;
        let admin = UserView::admin(&spec);
        let bb = UserView::black_box(&spec);
        prop_assume!(!run.final_outputs().is_empty());
        let target = run.final_outputs()[0];
        let size = |v: &UserView| {
            zoom::warehouse::deep_provenance(
                &run,
                &ViewRun::new(&run, v),
                zoom::warehouse::Reach::Bfs,
                target,
                &mut zoom::warehouse::Deadline::unlimited(),
            )
                .expect("run is well-formed")
                .expect("final outputs visible at every level")
                .tuples()
        };
        let (a, m, b) = (size(&admin), size(&mid), size(&bb));
        prop_assert!(a >= m, "UAdmin {a} < built view {m}");
        prop_assert!(m >= b, "built view {m} < UBlackBox {b}");
        // Visibility is monotone, too.
        let vr_mid = ViewRun::new(&run, &mid);
        let vr_admin = ViewRun::new(&run, &admin);
        for d in vr_mid.visible_data(&run) {
            prop_assert!(vr_admin.is_visible(&run, d));
        }
        let vr_bb = ViewRun::new(&run, &bb);
        for d in vr_bb.visible_data(&run) {
            prop_assert!(vr_mid.is_visible(&run, d), "{d} visible at blackbox but not mid");
        }
    }

    /// Law 3: provenance/dependents duality at the UAdmin level.
    #[test]
    fn provenance_dependents_duality(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..12,
    ) {
        let (spec, run) = workload(seed, class, modules);
        let vr = ViewRun::new(&run, &UserView::admin(&spec));
        let data = run.all_data();
        // Sample pairs to keep the quadratic check bounded.
        for &d in data.iter().step_by((data.len() / 12).max(1)) {
            let deps = zoom::warehouse::dependents_of(&run, &vr, zoom::warehouse::Reach::Bfs, d, &mut zoom::warehouse::Deadline::unlimited())
                .unwrap()
                .expect("visible");
            for &x in data.iter().step_by((data.len() / 12).max(1)) {
                if x == d {
                    continue;
                }
                let prov_x: Vec<DataId> = zoom::warehouse::deep_provenance(&run, &vr, zoom::warehouse::Reach::Bfs, x, &mut zoom::warehouse::Deadline::unlimited())
                    .expect("run is well-formed")
                    .expect("visible")
                    .data_ids();
                prop_assert_eq!(
                    prov_x.contains(&d),
                    deps.contains(&x),
                    "duality broken for d={}, x={}",
                    d,
                    x
                );
            }
        }
    }

    /// Law 4: composite-execution boundary data.
    #[test]
    fn composite_boundary_law(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..15,
        mask in any::<u64>(),
    ) {
        let (spec, run) = workload(seed, class, modules);
        let relevant: Vec<_> = spec
            .module_ids()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, m)| m)
            .collect();
        let view = relev_user_view_builder(&spec, &relevant).expect("builds").view;
        let vr = ViewRun::new(&run, &view);
        for (i, exec) in vr.execs().enumerate() {
            let members: BTreeSet<_> = exec.members.iter().copied().collect();
            // Expected inputs: data on run edges from outside into a member.
            let mut expect_in: BTreeSet<DataId> = BTreeSet::new();
            let mut expect_out: BTreeSet<DataId> = BTreeSet::new();
            let g = run.graph();
            for (e, s, t, data) in g.edges() {
                let _ = e;
                let s_in = run.step_at(s).map(|(id, _)| members.contains(&id)).unwrap_or(false);
                let t_in = run.step_at(t).map(|(id, _)| members.contains(&id)).unwrap_or(false);
                if !s_in && t_in {
                    expect_in.extend(data.iter().copied());
                }
                if s_in && !t_in {
                    expect_out.extend(data.iter().copied());
                }
            }
            let got_in: BTreeSet<DataId> = vr.inputs_of(&run, i as u32).into_iter().collect();
            let got_out: BTreeSet<DataId> = vr.outputs_of(&run, i as u32).into_iter().collect();
            prop_assert_eq!(&got_in, &expect_in, "inputs of {:?}", exec.id);
            prop_assert_eq!(&got_out, &expect_out, "outputs of {:?}", exec.id);
        }
    }

    /// Law 6 (the implementation strategy as a theorem): the deep
    /// provenance at any view level is exactly the UAdmin answer's data set
    /// intersected with the view-visible data — "first compute UAdmin and
    /// then remove information hidden within composite steps".
    #[test]
    fn view_answer_is_projection_of_admin_answer(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..15,
        mask in any::<u64>(),
    ) {
        let (spec, run) = workload(seed, class, modules);
        let relevant: Vec<_> = spec
            .module_ids()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, m)| m)
            .collect();
        let view = relev_user_view_builder(&spec, &relevant).expect("builds").view;
        let vr = ViewRun::new(&run, &view);
        let vr_admin = ViewRun::new(&run, &UserView::admin(&spec));
        prop_assume!(!run.final_outputs().is_empty());
        let target = run.final_outputs()[0];
        let admin: BTreeSet<DataId> = zoom::warehouse::deep_provenance(&run, &vr_admin, zoom::warehouse::Reach::Bfs, target, &mut zoom::warehouse::Deadline::unlimited())
            .expect("run is well-formed")
            .expect("visible")
            .data_ids()
            .into_iter()
            .collect();
        let at_view: BTreeSet<DataId> = zoom::warehouse::deep_provenance(&run, &vr, zoom::warehouse::Reach::Bfs, target, &mut zoom::warehouse::Deadline::unlimited())
            .expect("run is well-formed")
            .expect("final output visible")
            .data_ids()
            .into_iter()
            .collect();
        let projected: BTreeSet<DataId> = admin
            .iter()
            .copied()
            .filter(|&d| vr.is_visible(&run, d))
            .collect();
        prop_assert_eq!(&at_view, &projected);
    }

    /// Law 5: run -> log -> run preserves provenance answers.
    #[test]
    fn log_roundtrip_preserves_provenance(
        seed in any::<u64>(),
        class in any::<u8>(),
        modules in 3usize..15,
    ) {
        let (spec, run) = workload(seed, class, modules);
        let log = EventLog::from_run(&run, &spec);
        let back = log.to_run(&spec).expect("reconstructs");
        prop_assert_eq!(back.step_count(), run.step_count());
        prop_assert_eq!(back.all_data(), run.all_data());
        let admin = UserView::admin(&spec);
        let (va, vb) = (ViewRun::new(&run, &admin), ViewRun::new(&back, &admin));
        for &d in run.final_outputs().iter().take(3) {
            let a = zoom::warehouse::deep_provenance(&run, &va, zoom::warehouse::Reach::Bfs, d, &mut zoom::warehouse::Deadline::unlimited())
                .expect("well-formed")
                .expect("visible");
            let b = zoom::warehouse::deep_provenance(&back, &vb, zoom::warehouse::Reach::Bfs, d, &mut zoom::warehouse::Deadline::unlimited())
                .expect("well-formed")
                .expect("visible");
            prop_assert_eq!(a.rows, b.rows);
        }
    }
}
