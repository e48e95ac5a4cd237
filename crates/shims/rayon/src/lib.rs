//! Vendored stand-in for `rayon`.
//!
//! Implements the one parallel-iterator chain this workspace calls —
//! `(0..n).into_par_iter().map(f).collect()` — on top of
//! `std::thread::scope`. `map` is *eager*: it splits the range into one
//! contiguous run per thread, maps the first run on the caller's thread and
//! each other run on a thread of its own, and concatenates the results in
//! input order, which matches rayon's semantics for pure per-item closures.
//!
//! Single-item inputs and single-core machines short-circuit to the
//! serial path, and a thread-local nesting guard makes parallel calls
//! issued *from inside a run* (the caller's included) run serially — so
//! nested parallelism degrades gracefully instead of spawning
//! `k x cores` threads. Both short-circuits are decided before the core
//! count is asked for, and the core count is read once per process:
//! `available_parallelism()` reads cgroup files (~17 µs a call), which no
//! call after the first has a reason to pay.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// True while the current thread maps a run of a `parallel_map`;
    /// nested parallel calls on such a thread stay serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads a parallel operation will use: the machine's
/// available parallelism, as it read the first time anyone asked.
fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Clears the caller's nesting flag when its run ends, unwinding included.
struct CallerRun;

impl Drop for CallerRun {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

/// Maps `items` over contiguous runs, one per thread, the first on the
/// caller's thread, preserving input order in the result. A panicking item
/// panics the caller once every run has ended.
fn parallel_map<R: Send>(items: Range<usize>, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let n = items.len();
    // The cheap reasons to stay serial first: asking for the core count is
    // the expensive one.
    let threads = if n <= 1 || IN_WORKER.with(Cell::get) {
        1
    } else {
        current_num_threads().min(n)
    };
    if threads <= 1 {
        return items.map(f).collect();
    }

    let run = n.div_ceil(threads);
    let f = &f;
    IN_WORKER.with(|w| w.set(true));
    let _caller = CallerRun;
    std::thread::scope(|s| {
        let others: Vec<_> = (items.start + run..items.end)
            .step_by(run)
            .map(|start| {
                let end = items.end.min(start + run);
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    (start..end).map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(n);
        out.extend((items.start..items.start + run).map(f));
        for other in others {
            out.extend(
                other
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

/// A parallel iterator over a range of indices.
pub struct Iter {
    range: Range<usize>,
}

impl Iter {
    /// Applies `f` to every index in parallel, preserving order.
    pub fn map<R: Send, F: Fn(usize) -> R + Sync>(self, f: F) -> Map<R> {
        Map {
            items: parallel_map(self.range, f),
        }
    }
}

/// The results of [`Iter::map`], already computed in input order.
pub struct Map<R> {
    items: Vec<R>,
}

impl<R> Map<R> {
    /// Collects the results.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a parallel iterator (`.into_par_iter()`).
pub trait IntoParallelIterator {
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Iter;
}

impl IntoParallelIterator for Range<usize> {
    fn into_par_iter(self) -> Iter {
        Iter { range: self }
    }
}

/// Common imports.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_holds_when_the_runs_are_uneven() {
        // Item counts that are no multiple of the thread count, and a range
        // that does not start at zero: the last run is short.
        let threads = current_num_threads();
        for n in [threads + 1, 2 * threads + 1, 3 * threads - 1, 7] {
            let out: Vec<usize> = (5..5 + n).into_par_iter().map(|i| i * i).collect();
            assert_eq!(out, (5..5 + n).map(|i| i * i).collect::<Vec<_>>(), "{n} items");
        }
    }

    #[test]
    fn thread_count_is_read_once_and_stays_put() {
        let first = current_num_threads();
        assert!(first >= 1);
        assert_eq!(current_num_threads(), first);
        // Other threads see the same cached reading.
        let elsewhere = std::thread::spawn(current_num_threads).join().expect("reader thread");
        assert_eq!(elsewhere, first);
    }

    #[test]
    fn nested_parallel_calls_stay_serial() {
        // An inner call inside any run — the caller's first run included —
        // must not spawn another thread fleet; it still computes correctly.
        let outer: Vec<Vec<usize>> = (0..4usize)
            .into_par_iter()
            .map(|i| {
                let inner = (0..8usize)
                    .into_par_iter()
                    .map(move |j| (i * 10 + j, std::thread::current().id()))
                    .collect::<Vec<_>>();
                let here = std::thread::current().id();
                assert!(
                    inner.iter().all(|&(_, t)| t == here),
                    "run {i}: a nested call left its thread"
                );
                inner.into_iter().map(|(v, _)| v).collect()
            })
            .collect();
        assert_eq!(outer.len(), 4);
        assert_eq!(outer[2][3], 23);
        assert!(!IN_WORKER.with(Cell::get), "the caller's nesting flag is cleared");
    }

    #[test]
    fn a_panicking_item_panics_the_caller_who_fans_out_again() {
        let threads = current_num_threads();
        for bad in [0, 2 * threads - 1] {
            let caught = std::panic::catch_unwind(|| {
                (0..2 * threads)
                    .into_par_iter()
                    .map(|i| {
                        assert_ne!(i, bad, "item {i} fails");
                        i
                    })
                    .collect::<Vec<_>>()
            });
            assert!(caught.is_err(), "item {bad}'s panic reaches the caller");
            assert!(
                !IN_WORKER.with(Cell::get),
                "the nesting flag is restored after item {bad}'s panic"
            );
        }
        // The caller fans out again: some item runs off the caller's thread
        // when there is more than one core.
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = (0..2 * threads)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_eq!(ids.iter().any(|&t| t != caller), threads > 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<usize> = (0..0usize).into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
        let one: Vec<usize> = (7..8usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
