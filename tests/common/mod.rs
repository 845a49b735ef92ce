//! The counting allocator of the `alloc_*` / `serve_alloc` test binaries:
//! records the size of every allocation above [`BIG`] bytes made while
//! [`big_allocations`] runs its closure (and counts the allocations of
//! any size), on any thread that has not called [`exempt_this_thread`],
//! and keeps the process's live heap bytes ([`live_bytes`]) all along.
//! Each of those binaries holds a single `#[test]`, so no concurrent test
//! thread allocates inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations above this many bytes are recorded.
pub const BIG: usize = 1024;

struct RecordingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static SEEN: AtomicUsize = AtomicUsize::new(0);
static ALL: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; 64] = [const { AtomicUsize::new(0) }; 64];
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// No destructor, so the allocator may read it at any point of a
    /// thread's life.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Stops recording this thread's allocations (a test's own bookkeeping:
/// the inputs it clones, the channel it collects replies on).
#[allow(dead_code)] // not every test binary has such a thread
pub fn exempt_this_thread() {
    EXEMPT.with(|e| e.set(true));
}

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) && !EXEMPT.with(Cell::get) {
        ALL.fetch_add(1, Ordering::Relaxed);
        if size > BIG {
            let i = SEEN.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = SIZES.get(i) {
                slot.store(size, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: delegates every operation to `System`; only records sizes.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        LIVE.fetch_add(new_size.wrapping_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: RecordingAlloc = RecordingAlloc;

/// The sizes of the big allocations made while `f` runs, ascending.
#[allow(dead_code)] // `pack_alloc` counts allocations instead
pub fn big_allocations(f: impl FnOnce()) -> Vec<usize> {
    SEEN.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    let seen = SEEN.load(Ordering::Relaxed);
    assert!(seen <= SIZES.len(), "{seen} allocations above {BIG} bytes");
    let mut sizes: Vec<usize> = SIZES[..seen].iter().map(|s| s.load(Ordering::Relaxed)).collect();
    sizes.sort_unstable();
    sizes
}

/// How many allocations (and reallocations) of any size `f` makes.
#[allow(dead_code)] // only `pack_alloc` counts; the others measure sizes
pub fn allocation_count(f: impl FnOnce()) -> usize {
    ALL.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    ALL.load(Ordering::Relaxed)
}

/// Bytes the process's heap holds now: every allocation's size, less
/// what was freed.
#[allow(dead_code)] // only `drop_alloc` reads it
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}
