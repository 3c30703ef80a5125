//! The system allocator with a per-thread tally, shared by the integration
//! tests that bound what one call holds or how often it allocates while
//! other tests run beside it.

// Each test binary uses only the half of this module it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds relative to the last reset, their peak, and
    /// the number of allocations since.
    static TALLY: Cell<(isize, isize, usize)> = const { Cell::new((0, 0, 0)) };
}

struct Tallying;

fn track(delta: isize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = TALLY.try_with(|c| {
        let (live, peak, allocs) = c.get();
        let live = live + delta;
        c.set((live, peak.max(live), allocs + (delta > 0) as usize));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialized thread-local `Cell`, which never allocates. `realloc`
// is the provided method, so a growing buffer is counted as one `alloc`.
unsafe impl GlobalAlloc for Tallying {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller's obligations on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Tallying = Tallying;

/// Runs `f` and returns the most bytes it held at once.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    TALLY.set((0, 0, 0));
    let out = f();
    (out, TALLY.get().1.max(0) as usize)
}

/// Runs `f` and returns how many allocations this thread made meanwhile.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    TALLY.set((0, 0, 0));
    let out = f();
    (out, TALLY.get().2)
}
