//! What the integration tests share: the system allocator with a
//! per-thread tally, for the tests that bound what one call holds or how
//! often it allocates while other tests run beside it, and
//! [`run_on_workers`], for the tests that hold the worker path to the
//! sequential one.

// Each test binary uses only the part of this module it needs.
#![allow(dead_code)]

use massf_core::engine::{EmulationConfig, EmulationReport, SteppableEmulation};
use massf_core::routing::RoutingTables;
use massf_core::topology::Network;
use massf_core::traffic::FlowSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The run with every slice on two worker threads, whatever its density
/// (`run_parallel` leaves windows this sparse on the calling thread).
pub fn run_on_workers(
    net: &Network,
    tables: &RoutingTables,
    flows: &[FlowSpec],
    cfg: &EmulationConfig,
) -> EmulationReport {
    let mut emu = SteppableEmulation::new(net, tables, flows, cfg.clone());
    emu.set_workers((0..cfg.nengines).map(|e| e % 2).collect(), 0);
    emu.run_to_completion();
    emu.finish()
}

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
