//! A counting global allocator scoped to the calling thread.
//!
//! The harness runs a binary's tests on parallel threads, so a
//! process-global counter charges one test with another's
//! allocations. Each thread counts its own instead: everything these
//! gates measure runs on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised `Cell`s of `Copy` types have neither a lazy
    // initialiser nor a destructor, so the allocator may touch them at
    // any point of a thread's life without allocating or panicking.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and requested bytes; frees are not tracked (the
/// gates care about allocation *pressure*, not live bytes).
pub struct CountingAlloc;

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
}

// SAFETY: delegates directly to `System`; the bookkeeping touches only
// destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// (allocations, requested bytes) made so far by the calling thread.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
