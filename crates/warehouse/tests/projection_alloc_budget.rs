//! Allocation budget of the projection kernel: on paper-scale runs a deep
//! projection makes at most [`DEEP_BUDGET`] heap allocations and a
//! dependents collection at most [`DEPENDENTS_BUDGET`], whether the
//! closure comes from the bitset index or the label index, whatever the
//! view. A counting global allocator tallies the allocations of the
//! calling thread, so this check lives in a test binary of its own.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use zoom_gen::{generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig, WorkflowClass};
use zoom_graph::NodeId;
use zoom_model::{CompositeModule, UserView, ViewRun, WorkflowRun};
use zoom_warehouse::{
    deep_provenance_indexed, deep_provenance_labeled, dependents_of_indexed, dependents_of_labeled,
    LabelIndex, ProvenanceIndex,
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
            allocations(|| drop(dependents_of_indexed(run, &vr, &index, d))),
            allocations(|| drop(dependents_of_labeled(run, &vr, &labels, d))),
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
