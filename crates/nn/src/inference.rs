//! Recycling buffer pool for tape-free execution and backward scratch.
//!
//! The [`Tape`](crate::tape::Tape) exists to support `backward`: every op
//! records its result in a node so the reverse pass can replay the graph.
//! Inference needs none of that — no node recording, no retained
//! intermediates. This module provides the [`InferenceArena`], a
//! free-list of `f32` buffers that forward-only code allocates scratch
//! tensors from and recycles as soon as a value is dead. Together with
//! the fused [`Tensor::affine_into`] kernel this removes all per-op
//! allocation and bookkeeping from the hot prediction path.
//!
//! The same pool serves training: a [`Tape`](crate::tape::Tape) built with
//! [`Tape::with_arena`](crate::tape::Tape::with_arena) draws every forward
//! value, every retained activation and every backward scratch tensor
//! from it and hands it back through
//! [`Tape::into_arena`](crate::tape::Tape::into_arena), so a training loop
//! that threads one arena through its minibatches allocates no tensor
//! buffer in steady state.
//!
//! See the crate-level docs for when to use the tape path versus this
//! arena path.

use crate::tensor::Tensor;

/// A recycling allocator for inference scratch tensors.
///
/// `alloc_zeroed` hands out a tensor backed by a previously recycled
/// buffer when one is available (resized and zero-filled), falling back
/// to a fresh allocation. Dropping tensors back via [`InferenceArena::recycle`]
/// keeps the steady-state allocation count of a forward pass at zero —
/// after the first batch, every buffer in the pass is reused.
///
/// Free buffers are binned by size class (capacities are powers of two),
/// so a request only ever takes a buffer that already fits it: a pass
/// that repeats finds, in every class, exactly the buffers its previous
/// run returned, and neither allocates nor grows anything — whatever the
/// mix of sizes and whatever order they come back in.
///
/// The arena is plain owned data (`Send`), so it can be handed off
/// across threads: a serving worker keeps one arena alive for its entire
/// lifetime and recycles it across every request batch it processes,
/// reaching the same steady-state zero-allocation behaviour as the
/// training loop. It is deliberately *not* `Sync`-shared — one arena per
/// worker, no locks on the hot path.
#[derive(Default)]
pub struct InferenceArena {
    /// `bins[c]` holds the free buffers whose capacity is in
    /// `[2^c, 2^(c+1))`; a request for `len` floats pops from the
    /// smallest class whose every buffer fits it.
    bins: Vec<Vec<Vec<f32>>>,
    /// Emptied bookkeeping lists a tape parks here between minibatches.
    pub(crate) lists: TapeLists,
}

/// The tape's tensor lists, kept (empty, capacity retained) by the arena a
/// tape hands back so the next tape built on it grows none of them again.
/// Untouched by tape-free callers: three empty `Vec`s own no memory.
#[derive(Default)]
pub(crate) struct TapeLists {
    /// Activations retained by fused nodes for the backward pass.
    pub saved: Vec<Tensor>,
    /// One gradient slot per tape node.
    pub slots: Vec<Option<Tensor>>,
    /// Weight transposes of one backward pass, keyed by tensor address.
    pub transposed: Vec<(usize, Tensor)>,
}

impl InferenceArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.bins.iter().map(Vec::len).sum()
    }

    /// Total `f32` capacity currently held by pooled buffers — the
    /// arena's steady-state memory footprint (serving-layer metrics).
    pub fn pooled_floats(&self) -> usize {
        self.bins.iter().flatten().map(Vec::capacity).sum()
    }

    /// A free buffer of capacity at least `len`, contents unspecified.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let class = len.max(1).next_power_of_two().trailing_zeros() as usize;
        match self.bins.get_mut(class).and_then(Vec::pop) {
            Some(buf) => buf,
            None => Vec::with_capacity(1 << class),
        }
    }

    /// Allocates a `rows x cols` zero-filled tensor, reusing a pooled
    /// buffer when possible.
    pub fn alloc_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let mut buf = self.take(len);
        buf.clear();
        buf.resize(len, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Allocates a `rows x cols` tensor **without zero-filling** recycled
    /// contents — only growth past the buffer's previous length is
    /// (necessarily) zero-initialized. For buffers whose every cell is
    /// overwritten before being read (assign-semantics kernel outputs,
    /// fully-assembled wave inputs): skipping the fill removes a full
    /// pass over the buffer from the serving hot path. Reading a cell
    /// before writing it yields stale values from an unrelated earlier
    /// tensor — never do that.
    pub fn alloc_scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let mut buf = self.take(len);
        buf.resize(len, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Allocates a tensor holding a copy of `src`.
    pub fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.alloc_scratch(src.rows(), src.cols());
        t.copy_from(src);
        t
    }

    /// The end of an intermediate's forward life: kept on `saved` when a
    /// backward pass will replay it, recycled otherwise.
    pub(crate) fn retire(&mut self, t: Tensor, saved: Option<&mut Vec<Tensor>>) {
        match saved {
            Some(saved) => saved.push(t),
            None => self.recycle(t),
        }
    }

    /// Returns a tensor's buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        let buf = t.into_data();
        if buf.capacity() == 0 {
            return;
        }
        let class = buf.capacity().ilog2() as usize;
        if self.bins.len() <= class {
            self.bins.resize_with(class + 1, Vec::new);
        }
        self.bins[class].push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_after_recycle() {
        let mut arena = InferenceArena::new();
        let a = arena.alloc_zeroed(4, 8);
        let ptr = a.data().as_ptr();
        arena.recycle(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.alloc_zeroed(2, 16); // same capacity, different shape
        assert_eq!(b.data().as_ptr(), ptr, "buffer must be recycled");
        assert!(b.data().iter().all(|&v| v == 0.0));
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn recycled_buffers_are_rezeroed() {
        let mut arena = InferenceArena::new();
        let mut a = arena.alloc_zeroed(2, 2);
        a.data_mut().fill(7.0);
        arena.recycle(a);
        let b = arena.alloc_zeroed(3, 3); // grows beyond old capacity
        assert_eq!(b.len(), 9);
        assert!(b.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn arena_is_send_for_cross_thread_handoff() {
        fn assert_send<T: Send>() {}
        assert_send::<InferenceArena>();
        // And the footprint counter sees recycled capacity.
        let mut arena = InferenceArena::new();
        let a = arena.alloc_zeroed(4, 8);
        arena.recycle(a);
        assert!(arena.pooled_floats() >= 32);
    }

    #[test]
    fn alloc_scratch_reuses_without_zeroing() {
        let mut arena = InferenceArena::new();
        let mut a = arena.alloc_zeroed(2, 4);
        a.data_mut().fill(7.0);
        arena.recycle(a);
        // Shrinking reuse (same size class): stale contents may (and here
        // do) survive.
        let b = arena.alloc_scratch(1, 5);
        assert_eq!(b.shape(), (1, 5));
        assert!(b.data().iter().all(|&v| v == 7.0));
        arena.recycle(b);
        // Growth beyond the recycled length zero-fills only the tail.
        let c = arena.alloc_scratch(2, 4);
        assert_eq!(&c.data()[5..], &[0.0; 3]);
    }

    #[test]
    fn a_request_never_takes_a_buffer_too_small_for_it() {
        // Mixed sizes coming back in any order: the second round of the
        // same requests finds a fitting buffer for each and grows nothing.
        let mut arena = InferenceArena::new();
        let shapes = [(3, 7), (40, 64), (1, 1), (9, 48), (40, 64), (2, 3)];
        let round = |arena: &mut InferenceArena, reverse: bool| {
            let mut live: Vec<Tensor> = shapes.iter().map(|&(r, c)| arena.alloc_scratch(r, c)).collect();
            if reverse {
                live.reverse();
            }
            live.into_iter().for_each(|t| arena.recycle(t));
        };
        round(&mut arena, false);
        let after_first = (arena.pooled(), arena.pooled_floats());
        round(&mut arena, true);
        round(&mut arena, false);
        assert_eq!((arena.pooled(), arena.pooled_floats()), after_first);
    }

    #[test]
    fn alloc_copy_matches_source() {
        let mut arena = InferenceArena::new();
        let src = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let c = arena.alloc_copy(&src);
        assert_eq!(c.data(), src.data());
    }
}
