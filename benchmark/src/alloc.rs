//! A counting global allocator — the only `unsafe` in the benchmark.
//!
//! It forwards every request to the system allocator and, only while
//! [`count`] is running, adds to two relaxed counters. The traced run
//! switches it on around its real `publish_batch` calls; the measured
//! run never does, and pays one relaxed load per allocation (shown in
//! the README to cost less than 1 % of `tuples_per_s`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` and `layout` come from the caller, who got them
        // from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with counting on; returns `(allocations, bytes requested)`
/// made during the call. Single-threaded use only (the benchmark is).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        COUNT.load(Ordering::Relaxed) - c0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}
