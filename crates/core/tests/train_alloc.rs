//! Allocation audit of the training loop: once the first minibatch has
//! sized the arena and the training pass, a training step on a batch of
//! that shape allocates nothing at all — forward values, retained
//! activations, the loss seed, backward scratch and weight transposes all
//! cycle through the arena the `Trainer` threads from step to step, the
//! pass's own lists keep their capacity — and the arena itself stops
//! growing.
//!
//! Tensor buffers are `Vec<f32>`s, the only 4-byte-aligned allocations on
//! this path (index lists and bookkeeping are `usize`- or pointer-aligned),
//! so the counting allocator tells them apart by alignment: a failure says
//! which kind a step allocated.
//!
//! Single test in this file on purpose: the counting allocator is
//! process-global (the counters are thread-local, but a lone test keeps
//! the audit unambiguous).

use costream::dataset::Corpus;
use costream::model::GnnModel;
use costream::train::{prepare_training, TrainConfig, Trainer, LEARNING_RATE};
use costream_dsps::{CostMetric, SimConfig};
use costream_query::ranges::FeatureRanges;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static F32_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations (and growing reallocations) on the current thread,
/// and separately those aligned like `f32`.
struct CountingAlloc;

fn count(layout: Layout) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if layout.align() == std::mem::align_of::<f32>() {
        F32_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_training_step_allocates_no_tensor_buffer() {
    let corpus = Corpus::generate(16, 10, FeatureRanges::training(), &SimConfig::default());
    let cfg = TrainConfig::default();
    let metric = CostMetric::ProcessingLatency;
    let prepared = prepare_training(&corpus, metric, &cfg);
    let batch = &prepared.batches[0];
    let mut model = GnnModel::new(cfg.model);
    let mut trainer = Trainer::new(&model, metric, LEARNING_RATE);

    // Minibatch 1 sizes everything: arena buffers, Adam's moments.
    trainer.step(&mut model, batch);
    let (buffers, floats) = (trainer.arena().pooled(), trainer.arena().pooled_floats());
    assert!(floats > 0, "the first step must leave its buffers in the arena");

    const STEPS: u64 = 8;
    let f32_before = F32_ALLOCS.with(Cell::get);
    let mut all_before = 0;
    for step in 2..2 + STEPS {
        if step == 3 {
            all_before = ALLOCS.with(Cell::get);
        }
        trainer.step(&mut model, batch);
        assert_eq!(
            (trainer.arena().pooled(), trainer.arena().pooled_floats()),
            (buffers, floats),
            "arena grew at minibatch {step}"
        );
    }
    let tensor_buffers = F32_ALLOCS.with(Cell::get) - f32_before;
    let all = ALLOCS.with(Cell::get) - all_before;
    assert_eq!(
        tensor_buffers, 0,
        "minibatches 2.. allocated {tensor_buffers} tensor buffers"
    );
    assert_eq!(all, 0, "minibatches 3.. allocated {all} times");
}
