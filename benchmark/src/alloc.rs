//! Thread-scoped counting allocator.
//!
//! Every thread counts its own allocations in its own slot of a fixed
//! table, so a sample is a sum over exactly the threads the caller
//! names: the generator and collector never leak into
//! `allocs_per_msg`, and the UDP reader threads attribute to
//! `transport`. (Process-global counters shared by concurrent threads
//! are the race ROADMAP item 4 records in `alloc_regression.rs`.)
//!
//! A slot is claimed on a thread's first allocation and is keyed by
//! the OS thread id; [`crate::procfs`] maps thread ids to thread names,
//! which is where the `totem-udp-*` / `totem-*` / everything-else
//! classification happens. Slots are never recycled: a run spawns a
//! few dozen threads at most, and a full table spills into one shared
//! overflow slot instead of failing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 1024;
/// Index of the shared spill slot (also the initial thread-local
/// value's successor: thread-local 0 means "not yet claimed").
const OVERFLOW: usize = SLOTS - 1;

struct Slot {
    tid: AtomicI32,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot =
    Slot { tid: AtomicI32::new(0), allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) };
static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Slot index + 1; 0 = unclaimed. A const-initialised `Cell` of a
    // `Copy` type has no destructor and no lazy initialiser, so it is
    // safe to touch from inside the allocator at any point of a
    // thread's life.
    static MY_SLOT: Cell<usize> = const { Cell::new(0) };
}

extern "C" {
    /// glibc ≥ 2.30: the caller's kernel thread id.
    fn gettid() -> i32;
}

/// The calling thread's kernel thread id (the name of its directory
/// under `/proc/self/task`).
pub fn current_tid() -> i32 {
    // SAFETY: `gettid` takes no arguments, touches no memory and
    // cannot fail.
    unsafe { gettid() }
}

#[inline]
fn my_slot() -> &'static Slot {
    let idx = MY_SLOT.with(|s| {
        let v = s.get();
        if v != 0 {
            return v - 1;
        }
        let claimed = NEXT.fetch_add(1, Ordering::Relaxed).min(OVERFLOW);
        if claimed != OVERFLOW {
            TABLE[claimed].tid.store(current_tid(), Ordering::Relaxed);
        }
        s.set(claimed + 1);
        claimed
    });
    &TABLE[idx]
}

/// The global allocator: `System`, plus two relaxed adds on the calling
/// thread's own slot.
#[derive(Debug)]
pub struct ThreadCountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only statics and a destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let slot = my_slot();
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let slot = my_slot();
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let slot = my_slot();
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals of one thread (or a sum of threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// `self - earlier`, for a window between two samples.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, rhs: AllocCount) {
        self.allocs += rhs.allocs;
        self.bytes += rhs.bytes;
    }
}

/// Totals of the calling thread.
pub fn current_thread() -> AllocCount {
    let slot = my_slot();
    AllocCount {
        allocs: slot.allocs.load(Ordering::Relaxed),
        bytes: slot.bytes.load(Ordering::Relaxed),
    }
}

/// Totals of every thread that has allocated so far, keyed by kernel
/// thread id. Threads that spilled into the overflow slot are not
/// listed (none do in practice; see the module docs).
pub fn per_thread() -> Vec<(i32, AllocCount)> {
    let used = NEXT.load(Ordering::Relaxed).min(OVERFLOW);
    TABLE[..used]
        .iter()
        .map(|s| {
            (
                s.tid.load(Ordering::Relaxed),
                AllocCount {
                    allocs: s.allocs.load(Ordering::Relaxed),
                    bytes: s.bytes.load(Ordering::Relaxed),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_threads_allocations_land_in_its_own_slot_only() {
        let before_main = current_thread();
        let (tid, inside) = std::thread::spawn(|| {
            let before = current_thread();
            let v: Vec<u64> = Vec::with_capacity(1000);
            std::hint::black_box(&v);
            (current_tid(), current_thread().since(before))
        })
        .join()
        .expect("worker");
        assert!(inside.allocs >= 1 && inside.bytes >= 8000, "worker saw its own Vec: {inside:?}");
        let listed = per_thread().into_iter().find(|(t, _)| *t == tid).expect("worker slot listed");
        assert!(listed.1.allocs >= inside.allocs);
        // Parallel test threads allocate in *their* slots, never ours:
        // between the two samples this thread only spawned and joined.
        let main_delta = current_thread().since(before_main);
        assert!(main_delta.bytes < 8000, "worker's 8 kB leaked into the spawner: {main_delta:?}");
    }
}
