//! Deterministic parallelism primitives for the mapping pipeline.
//!
//! Everything here is built on `std::thread::scope` — no external thread
//! pool — and is designed so that **results are a pure function of the
//! inputs, never of the thread count or scheduling**:
//!
//! * [`Parallelism`] is the thread-count knob plumbed through the
//!   pipeline. [`Parallelism::serial`] (1 thread) runs the exact
//!   sequential code path with zero thread machinery.
//! * [`par_indexed_map`] fans an indexed computation over worker threads
//!   and returns results in index order, so any subsequent reduction
//!   happens in a fixed order regardless of which thread computed what.
//! * [`par_for_each_init`] hands owned work items to workers that each
//!   keep one reusable state — the shape used by routing-table
//!   construction, where an item is one source's output slot and the
//!   state is a Dijkstra scratch.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a parallel stage may use.
///
/// `Parallelism(1)` is a strict promise: the stage runs the plain
/// sequential loop on the calling thread (no scope, no atomics), so it
/// can serve as the reference implementation in determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Exactly one thread: the sequential reference path.
    pub fn serial() -> Self {
        Self(NonZeroUsize::MIN)
    }

    /// `threads` workers; zero is clamped to one.
    pub fn new(threads: usize) -> Self {
        Self(NonZeroUsize::new(threads.max(1)).expect("max(1) is nonzero"))
    }

    /// One worker per available CPU (the default), falling back to 1
    /// when the count is unavailable.
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Caps the worker count at `n` (useful when there are fewer work
    /// items than threads).
    pub fn capped(self, n: usize) -> Self {
        Self::new(self.get().min(n.max(1)))
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::available()
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Computes `f(0), f(1), …, f(n-1)` on up to `par` threads and returns
/// the results **in index order**.
///
/// Work is handed out via an atomic counter, so scheduling is dynamic,
/// but because every result is placed at its own index the output — and
/// any in-order fold over it — is identical for every thread count.
/// With `par` serial (or `n < 2`) this is a plain sequential map.
pub fn par_indexed_map<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = par.capped(n).get();
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut partials: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_indexed_map worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in partials.drain(..).flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// Runs `f(&mut state, item)` once per item on up to `par` threads, each
/// worker owning one `init()` state that it reuses across every item it
/// takes — the shape of the routing-table builds, where the state is a
/// Dijkstra scratch and an item is one source's disjoint output slot.
///
/// Items are handed out from a shared queue, so which worker takes which
/// item is unspecified: the result is deterministic as long as `f` writes
/// only through its item. With `par` serial (or fewer than two items) this
/// is a plain loop over `items` in order, on the calling thread.
pub fn par_for_each_init<T, S, I, F>(par: Parallelism, items: Vec<T>, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) + Sync,
{
    let workers = par.capped(items.len()).get();
    if workers <= 1 {
        let mut state = init();
        for item in items {
            f(&mut state, item);
        }
        return;
    }
    let queue = Mutex::new(items);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let item = queue.lock().expect("work queue").pop();
                    match item {
                        Some(item) => f(&mut state, item),
                        None => break,
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_basics() {
        assert_eq!(Parallelism::serial().get(), 1);
        assert_eq!(Parallelism::new(0).get(), 1);
        assert_eq!(Parallelism::new(8).capped(3).get(), 3);
        assert_eq!(Parallelism::new(2).capped(0).get(), 1);
        assert!(Parallelism::available().get() >= 1);
        assert_eq!(format!("{}", Parallelism::new(4)), "4");
    }

    #[test]
    fn indexed_map_orders_results() {
        for threads in [1, 2, 4, 7] {
            let got = par_indexed_map(Parallelism::new(threads), 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn indexed_map_empty_and_single() {
        assert_eq!(
            par_indexed_map(Parallelism::new(4), 0, |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(
            par_indexed_map(Parallelism::new(4), 1, |i| i + 10),
            vec![10]
        );
    }

    #[test]
    fn indexed_map_matches_serial_for_float_folds() {
        // The in-order guarantee means an in-order fold is bit-identical.
        let serial = par_indexed_map(Parallelism::serial(), 1000, |i| 1.0f64 / (i as f64 + 1.0));
        let threaded = par_indexed_map(Parallelism::new(4), 1000, |i| 1.0f64 / (i as f64 + 1.0));
        let fold = |v: &[f64]| v.iter().fold(0.0f64, |a, b| a + b).to_bits();
        assert_eq!(fold(&serial), fold(&threaded));
    }

    #[test]
    fn for_each_init_visits_every_item_with_one_state_per_worker() {
        for threads in [1, 2, 5] {
            let states = AtomicUsize::new(0);
            let mut out = vec![0usize; 50];
            par_for_each_init(
                Parallelism::new(threads),
                out.iter_mut().enumerate().collect(),
                || states.fetch_add(1, Ordering::Relaxed),
                |_, (i, slot)| *slot = i + 1,
            );
            assert_eq!(out, (1..=50).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(states.load(Ordering::Relaxed), threads);
        }
    }
}
