//! Allocation budget of run decoding: decoding a `WorkflowRun` from its
//! snapshot bytes makes at most [`BUDGET`] heap allocations however many
//! steps the run has, since the graph, its edge data and its tables each
//! decode into one flat array. A counting global allocator tallies the
//! allocations of the calling thread, so this check lives in a test
//! binary of its own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use zoom_gen::{
    deep_chain, diamond_lattice, generate_run, generate_spec, workflows_of_class, RunGenConfig,
    RunKind, SpecGenConfig, WorkflowClass,
};
use zoom_model::WorkflowRun;
use zoom_warehouse::codec;

/// The most heap allocations (allocations plus reallocations) one decode
/// may make.
const BUDGET: usize = 16;

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

/// Asserts the budget for decoding `run`'s bytes, and that the decoded
/// run encodes to the same bytes.
fn check(what: &str, run: &WorkflowRun) {
    let bytes = codec::to_bytes(run).expect("runs encode");
    let mut decoded = None;
    let n = allocations(|| decoded = Some(codec::from_bytes::<WorkflowRun>(&bytes)));
    let decoded = decoded.unwrap().expect("a run's own bytes decode");
    assert_eq!(codec::to_bytes(&decoded).unwrap(), bytes, "{what}");
    println!(
        "{what}: {} steps, {} slots: {n} allocations",
        run.step_count(),
        run.slot_count()
    );
    assert!(
        n <= BUDGET,
        "decoding {what} ({} steps, {} data): {n} allocations, budget {BUDGET}",
        run.step_count(),
        run.data_count()
    );
}

/// Table II's runs of a looping workflow of the paper's average size (12
/// modules).
#[test]
fn decoding_table_ii_runs_stays_within_the_allocation_budget() {
    let mut rng = StdRng::seed_from_u64(16);
    let spec = generate_spec(
        "budget",
        &SpecGenConfig::new(WorkflowClass::Loop, 12),
        &mut rng,
    );
    for kind in [RunKind::Small, RunKind::Medium, RunKind::Large] {
        let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng)
            .expect("generated runs are valid");
        check(&format!("{kind:?} run"), &run);
    }
}

/// The count does not grow with the run: a 10,000-step chain and a
/// 1,000-step lattice stay within the same budget.
#[test]
fn the_decode_budget_does_not_grow_with_the_run() {
    check("10k-step chain", &deep_chain(10_000).1);
    check("1,000-step lattice", &diamond_lattice(50, 20).1);
}

/// Every run of a small corpus (4 workflows per class, 3 runs per kind,
/// the shape of the `Scale::Quick` benchmark corpus) stays within the
/// budget, including runs whose edges carry more data on average than
/// decode reserves per edge before it knows, so their edge data grow once.
#[test]
fn decoding_every_corpus_run_stays_within_the_allocation_budget() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut dense = 0;
    for class in WorkflowClass::ALL {
        for spec in workflows_of_class(class, 4, 20, &mut rng) {
            for kind in RunKind::ALL {
                for i in 0..3 {
                    let run = generate_run(&spec, &RunGenConfig::for_kind(kind), &mut rng)
                        .expect("generated runs are valid");
                    if run.slot_count() > 16 * run.graph().edge_count() {
                        dense += 1;
                    }
                    check(&format!("{} {kind:?} run {i}", spec.name()), &run);
                }
            }
        }
    }
    assert!(
        dense > 0,
        "no corpus run carries more than 16 data per edge"
    );
}
