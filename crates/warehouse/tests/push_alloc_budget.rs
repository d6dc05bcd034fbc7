//! Allocation budget of a durable stream push: journaling an event costs
//! exactly one heap allocation beyond the in-memory push, the frame it is
//! encoded into. The payload is encoded in place behind the frame's
//! header and appended to a journal path the store keeps, so no second
//! buffer and no path is built per push. A counting global allocator
//! tallies the allocations of the calling thread, so this check lives in a
//! test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use zoom_gen::library::{figure2_run, phylogenomic};
use zoom_model::EventLog;
use zoom_warehouse::{DurableOptions, DurableWarehouse, Warehouse};

/// Heap allocations a durable push may make beyond the in-memory push.
const JOURNAL_BUDGET: usize = 1;

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
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Every event of the paper's Figure 2 run, pushed into a durable store
/// and into an in-memory twin with the same history.
#[test]
fn a_durable_push_allocates_only_its_frame() {
    let dir = std::env::temp_dir().join(format!("zoom-push-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = DurableOptions {
        auto_compact: false,
        ..DurableOptions::default()
    };
    let mut dw = DurableWarehouse::open_opts(&dir, options).unwrap();
    let mut twin = Warehouse::new();
    let spec = phylogenomic();
    let log = EventLog::from_run(&figure2_run(&spec), &spec);
    let sid = dw.register_spec(spec.clone()).unwrap();
    twin.register_spec(spec).unwrap();
    let rid = dw.begin_stream(sid).unwrap();
    twin.begin_stream(sid).unwrap();
    for ev in &log.events {
        let (durable, n) = allocations(|| dw.stream_push(rid, ev).unwrap());
        let (memory, m) = allocations(|| twin.stream_push(rid, ev).unwrap());
        assert_eq!(durable, memory);
        assert_eq!(
            n,
            m + JOURNAL_BUDGET,
            "{ev:?}: {n} allocations durable, {m} in memory"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
