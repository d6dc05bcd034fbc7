//! Allocation budget of view-run materialization: `ViewRun::new` makes at
//! most [`BUDGET`] heap allocations, build temporaries included, whatever
//! the run's size and the view. A counting global allocator tallies the
//! allocations of the calling thread, so this check lives in a test binary
//! of its own.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use zoom_gen::{
    deep_chain, diamond_lattice, generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig,
    WorkflowClass,
};
use zoom_graph::NodeId;
use zoom_model::{CompositeModule, UserView, ViewRun, WorkflowRun};

/// The most heap allocations (allocations plus reallocations) one
/// materialization may make.
const BUDGET: usize = 12;

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

/// Asserts the budget for `run` through every view in `views`.
fn check(run: &WorkflowRun, views: &[UserView]) {
    for view in views {
        let n = allocations(|| drop(ViewRun::new(run, view)));
        assert!(
            n <= BUDGET,
            "a {}-step run through `{}`: {n} allocations, budget {BUDGET}",
            run.step_count(),
            view.name()
        );
    }
}

/// Table II's medium and large runs of a looping workflow of the paper's
/// average size (12 modules), through UAdmin, UBlackBox and random
/// partitions.
#[test]
fn materialization_stays_within_the_allocation_budget() {
    let mut rng = StdRng::seed_from_u64(16);
    let spec = generate_spec(
        "budget",
        &SpecGenConfig::new(WorkflowClass::Loop, 12),
        &mut rng,
    );
    let modules: Vec<NodeId> = spec.module_ids().collect();
    for kind in [RunKind::Medium, RunKind::Large] {
        let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng)
            .expect("generated runs are valid");
        let mut views = vec![UserView::admin(&spec), UserView::black_box(&spec)];
        for blocks in [2, 4, 6] {
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
        check(&run, &views);
    }
}

/// The count does not grow with the run: a 10,000-step chain and a
/// 1,000-step lattice stay within the same budget.
#[test]
fn the_budget_does_not_grow_with_the_run() {
    for (spec, run) in [deep_chain(10_000), diamond_lattice(50, 20)] {
        check(&run, &[UserView::admin(&spec), UserView::black_box(&spec)]);
    }
}
