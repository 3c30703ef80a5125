//! A counting wrapper around the system allocator.
//!
//! `EmulationReport::engine_reallocs` is a hand-kept count of the places the
//! event path is *known* to grow a buffer; this wrapper counts what the
//! allocator is actually asked for, so `engine.allocs_per_kevent` can sit
//! beside `engine.reallocs_per_kevent`. It is the only `unsafe` in the
//! package: the library crates stay `forbid(unsafe_code)` and never see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls to `alloc`, `alloc_zeroed` and `realloc` since the process started.
/// `Relaxed`: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed counter
// increment, which neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees both.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation requests made so far, by every thread of the process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_heap_allocation_is_counted() {
        let before = super::allocations();
        let v = std::hint::black_box(vec![1u8; 4096]);
        assert!(super::allocations() > before);
        drop(v);
    }
}
