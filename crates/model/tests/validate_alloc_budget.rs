//! Allocation budget of run validation: `WorkflowRun::validate` makes at
//! most [`BUDGET`] heap allocations however many data the run holds, so
//! checking a decoded run builds no per-datum table. A counting global
//! allocator tallies the allocations of the calling thread, so this check
//! lives in a test binary of its own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use zoom_gen::{
    deep_chain, diamond_lattice, generate_run, generate_spec, RunGenConfig, RunKind, SpecGenConfig,
    WorkflowClass,
};
use zoom_model::{WorkflowRun, WorkflowSpec};

/// The most heap allocations (allocations plus reallocations) one
/// validation may make.
const BUDGET: usize = 8;

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

/// Asserts the budget for validating `run` against `spec`.
fn check(spec: &WorkflowSpec, run: &WorkflowRun) {
    let mut result = Ok(());
    let n = allocations(|| result = run.validate(spec));
    result.expect("a valid run");
    assert!(
        n <= BUDGET,
        "validating a {}-step run with {} data: {n} allocations, budget {BUDGET}",
        run.step_count(),
        run.data_count()
    );
}

/// Table II's medium and large runs of a looping workflow of the paper's
/// average size (12 modules).
#[test]
fn validation_stays_within_the_allocation_budget() {
    let mut rng = StdRng::seed_from_u64(16);
    let spec = generate_spec(
        "budget",
        &SpecGenConfig::new(WorkflowClass::Loop, 12),
        &mut rng,
    );
    for kind in [RunKind::Medium, RunKind::Large] {
        let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng)
            .expect("generated runs are valid");
        check(&spec, &run);
    }
}

/// The count does not grow with the run: a 10,000-step chain with 10,001
/// data and a 1,000-step lattice 20 steps wide stay within the same
/// budget, since the searches size their queues to the node count.
#[test]
fn the_budget_does_not_grow_with_the_run() {
    for (spec, run) in [deep_chain(10_000), diamond_lattice(50, 20)] {
        check(&spec, &run);
    }
}
