//! A counting `#[global_allocator]` for the tests that gate "this path
//! allocates nothing" without a clock (`crates/cbn/tests/alloc_free.rs`
//! and, by `#[path]`, `crates/spe/tests/alloc_free.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // The cell has no destructor, so it outlives every allocation of
    // its thread; `try_with` only keeps teardown from panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the size obligations are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by the calling thread while `f` runs.
pub fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}
