//! Allocation budget of the projection kernel: on paper-scale runs a deep
//! projection makes at most [`DEEP_BUDGET`] heap allocations and a
//! dependents collection at most [`DEPENDENTS_BUDGET`], whether the
//! closure comes from the bitset index or the label index, whatever the
//! view. A warm deep read through a tenant's privacy gate allocates
//! exactly as often as the same read at the effective view without one.
//! A counting global allocator tallies the allocations of the calling
//! thread, so this check lives in a test binary of its own.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};
use zoom_graph::NodeId;
use zoom_model::{CompositeModule, UserView, ViewRun, WorkflowRun};
use zoom_warehouse::{
    deep_provenance_indexed, deep_provenance_labeled, dependents_of, Cx, Deadline, LabelIndex,
    MutRegistrar, Op, PolicyTable, ProvenanceIndex, Reach, VisibilityPolicy, Warehouse,
};

/// The most heap allocations one deep projection may make: its scratch
/// bitsets, its rows and its executions.
const DEEP_BUDGET: usize = 3;

/// The most heap allocations one dependents collection may make: its
/// scratch bitsets and its data.
const DEPENDENTS_BUDGET: usize = 2;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The most allocations seen per deep projection and per dependents
/// collection, over both indexes.
#[derive(Default)]
struct Worst {
    deep: usize,
    dependents: usize,
}

/// Checks every visible datum of `run` through `view` against both
/// budgets, through both indexes.
fn check(run: &WorkflowRun, view: &UserView, worst: &mut Worst) {
    let index = ProvenanceIndex::build(run).expect("generated runs are acyclic");
    let labels = LabelIndex::build(run).expect("generated runs are acyclic");
    let vr = ViewRun::new(run, view);
    for d in vr.visible_data(run) {
        let deep = [
            allocations(|| drop(deep_provenance_indexed(run, &vr, &index, d))),
            allocations(|| drop(deep_provenance_labeled(run, &vr, &labels, d))),
        ];
        let dependents = [
            allocations(|| {
                drop(dependents_of(
                    run,
                    &vr,
                    Reach::Bitset(&index),
                    d,
                    &mut Deadline::unlimited(),
                ))
            }),
            allocations(|| {
                drop(dependents_of(
                    run,
                    &vr,
                    Reach::Labels(&labels),
                    d,
                    &mut Deadline::unlimited(),
                ))
            }),
        ];
        for (form, n) in ["bitset", "label"].iter().zip(deep) {
            assert!(
                n <= DEEP_BUDGET,
                "deep provenance of {d} through `{}` ({form} index): {n} allocations, budget {DEEP_BUDGET}",
                view.name()
            );
        }
        for (form, n) in ["bitset", "label"].iter().zip(dependents) {
            assert!(
                n <= DEPENDENTS_BUDGET,
                "dependents of {d} through `{}` ({form} index): {n} allocations, budget {DEPENDENTS_BUDGET}",
                view.name()
            );
        }
        worst.deep = worst.deep.max(deep[0]).max(deep[1]);
        worst.dependents = worst.dependents.max(dependents[0]).max(dependents[1]);
    }
}

/// Table II's medium and large runs of a looping workflow of the paper's
/// average size (12 modules), through UAdmin, UBlackBox and random
/// partitions.
#[test]
fn projections_stay_within_the_allocation_budget() {
    let mut rng = StdRng::seed_from_u64(18);
    let spec = generate_spec(
        "budget",
        &SpecGenConfig::new(WorkflowClass::Loop, 12),
        &mut rng,
    );
    let modules: Vec<NodeId> = spec.module_ids().collect();
    let mut worst = Worst::default();
    for kind in [RunKind::Medium, RunKind::Large] {
        let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng)
            .expect("generated runs are valid");
        let mut views = vec![UserView::admin(&spec), UserView::black_box(&spec)];
        for blocks in [2, 4] {
            let mut parts: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
            for &m in &modules {
                parts
                    .entry(rng.random_range(0..blocks))
                    .or_default()
                    .push(m);
            }
            let composites = parts
                .into_iter()
                .map(|(b, ms)| CompositeModule::new(format!("B{b}"), ms))
                .collect();
            views.push(UserView::new("random", &spec, composites).expect("a partition"));
        }
        for view in &views {
            check(&run, view, &mut worst);
        }
    }
    eprintln!(
        "projection allocations, worst case: deep {}, dependents {}",
        worst.deep, worst.dependents
    );
}

/// A restricted tenant's warm deep read, gated by its policy, allocates as
/// often as the admin's read at the effective view it is substituted to:
/// the gate's cache lookups are keyed by the tenant's name and allocate
/// nothing.
#[test]
fn a_gated_deep_read_allocates_as_often_as_the_ungated_one() {
    let mut rng = StdRng::seed_from_u64(20);
    let spec = generate_spec(
        "gated",
        &SpecGenConfig::new(WorkflowClass::Loop, 12),
        &mut rng,
    );
    let run = generate_run(&spec, &RunGenConfig::for_kind(RunKind::Medium), &mut rng)
        .expect("generated runs are valid");
    let hidden = spec.label(spec.module_ids().nth(1).expect("12 modules"));
    let policy = VisibilityPolicy {
        hidden_modules: vec![hidden.to_string()],
        ..VisibilityPolicy::default()
    };
    let mut wh = Warehouse::new();
    let sid = wh.register_spec(spec.clone()).expect("registers");
    let admin = wh
        .register_view(sid, UserView::admin(&spec))
        .expect("registers");
    let rid = wh.load_run(sid, run.clone()).expect("loads");
    let table = PolicyTable::new();
    {
        let reg = MutRegistrar::new(&mut wh);
        table
            .install("restricted", Some(policy), &reg)
            .expect("satisfiable");
        table.compile_all(&reg).expect("compiles");
    }
    // A slow-log entry would copy the tenant's name; keep the log closed.
    wh.metrics_registry().set_slow_threshold_nanos(u64::MAX);
    let gate = table.gate("restricted", &wh);
    let effective = gate.view(rid, admin).expect("restricted, not denied");
    assert_ne!(effective, admin, "the policy substitutes a coarser view");
    let cx = Cx::tenant("restricted");
    let gated = |d| gate.apply(&Op::DeepProvenance(rid, admin, d), |op| wh.read(&cx, op));
    let ungated = |d| wh.read(&Cx::ADMIN, &Op::DeepProvenance(rid, effective, d));
    let vr = ViewRun::new(&run, wh.view(effective).expect("registered"));
    let mut checked = 0;
    for d in vr.visible_data(&run).into_iter().step_by(7) {
        // Warm both paths: the view-run, the index and the gate's caches.
        let want = format!("{:?}", ungated(d));
        assert_eq!(format!("{:?}", gated(d)), want);
        let (g, u) = (
            allocations(|| drop(gated(d))),
            allocations(|| drop(ungated(d))),
        );
        assert_eq!(g, u, "deep read of {d}: gated {g} allocations, ungated {u}");
        checked += 1;
    }
    assert!(checked > 0);
}
