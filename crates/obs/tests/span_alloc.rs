//! A span below `Level::Full` allocates nothing: it times its scope and
//! pops the nesting stack, and builds no path string. Its own test
//! binary, because the counting allocator below is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fui_obs as obs;

/// System allocator counting the allocations of the calling thread, so
/// the test harness's other threads do not show up in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn nested_spans_below_full_allocate_nothing() {
    obs::set_level(obs::Level::Counters);
    let _outer = obs::span!("test.alloc.outer");
    // The first pair grows the thread's nesting stack; later pairs
    // reuse it.
    drop(obs::span!("test.alloc.inner"));
    let before = allocs();
    for _ in 0..1_000 {
        let _inner = obs::span!("test.alloc.inner");
    }
    assert_eq!(
        allocs() - before,
        0,
        "1 000 nested spans at Level::Counters allocated"
    );
    assert_eq!(obs::Span::depth(), 1);
}
