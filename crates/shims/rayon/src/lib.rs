//! Vendored stand-in for `rayon`.
//!
//! Implements the parallel-iterator subset this workspace uses —
//! `into_par_iter()` / `par_iter()` / `par_chunks()` followed by `map` and
//! `collect`, plus [`join`] — on top of `std::thread::scope`. `map` is
//! *eager*: it distributes items over a work-sharing index queue across
//! `available_parallelism()` threads and materializes the results in input
//! order, which matches rayon's semantics for the pure per-item closures
//! used here (no `for_each` side-effect ordering is relied upon).
//!
//! Single-item inputs and single-core machines short-circuit to the
//! serial path, and a thread-local nesting guard makes parallel calls
//! issued *from inside a worker* run serially — so nested parallelism
//! (ensemble members × inference chunks) degrades gracefully instead of
//! spawning `k x cores` threads. Both short-circuits are decided before
//! the core count is asked for, and the core count is read once per
//! process: `available_parallelism()` reads cgroup files (~17 µs a call),
//! which no call after the first has a reason to pay.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// True while the current thread is a `parallel_map` worker; nested
    /// parallel calls on such a thread stay serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a parallel operation will use: the machine's
/// available parallelism, as it read the first time anyone asked.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if IN_WORKER.with(Cell::get) || current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("joined closure panicked");
        (ra, rb)
    })
}

/// Distributes `items` over worker threads and applies `f`, preserving
/// input order in the result.
fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    // The cheap reasons to stay serial first: asking for the core count is
    // the expensive one.
    let threads = if n <= 1 || IN_WORKER.with(Cell::get) {
        1
    } else {
        current_num_threads().min(n)
    };
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Items move to whichever worker claims their index; results land in
    // their original slot.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().expect("item slot").take().expect("item claimed once");
                    let r = f(item);
                    *results[i].lock().expect("result slot") = Some(r);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("worker filled every slot"))
        .collect()
}

/// An eager parallel iterator: holds the already-materialized items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item in parallel, preserving order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync + Send>(self, f: F) -> ParIter<R> {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Collects the results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion of owned collections into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;

    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;

    fn into_par_iter(self) -> ParIter<u64> {
        ParIter { items: self.collect() }
    }
}

/// Borrowing conversion (`.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    /// Item type (a reference).
    type Item: Send + 'data;

    /// Parallel iterator over references.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;

    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;

    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel chunking of slices (`.par_chunks(n)`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over non-overlapping chunks of `size` elements
    /// (last chunk may be shorter).
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        assert!(size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(size).collect(),
        }
    }
}

/// Common imports.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSlice};
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
    fn par_iter_borrows() {
        let v = vec![1u64, 2, 3, 4];
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        assert_eq!(v.len(), 4, "original still usable");
    }

    #[test]
    fn par_chunks_cover_slice() {
        let v: Vec<usize> = (0..10).collect();
        let sums: Vec<usize> = v.par_chunks(3).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, vec![3, 12, 21, 9]);
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
    fn join_returns_both() {
        let (a, b) = join(|| 40 + 2, || "ok");
        assert_eq!((a, b), (42, "ok"));
    }

    #[test]
    fn nested_parallel_calls_stay_serial() {
        // Inner par_iter inside a worker must not spawn another thread
        // fleet; it should still compute correctly.
        let outer: Vec<Vec<u64>> = (0..4u64)
            .into_par_iter()
            .map(|i| (0..8u64).into_par_iter().map(move |j| i * 10 + j).collect())
            .collect();
        assert_eq!(outer.len(), 4);
        assert_eq!(outer[2][3], 23);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
