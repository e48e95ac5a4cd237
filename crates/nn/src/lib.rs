//! # costream-nn — a minimal neural-network substrate
//!
//! The Costream paper builds its cost model with PyTorch; no comparable GNN
//! stack exists for Rust, so this crate provides the (small) slice of deep
//! learning that the paper's Algorithm 1 actually needs, built from scratch:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` matrices whose every
//!   matmul is one call of one descriptor (bias/ReLU epilogue included),
//!   dispatched to a register-tiled body per tier;
//! * [`wave`] — the one [`TrainingPass`]: per-type encoding into the
//!   initial state and the message-passing waves, each step with its
//!   hand-written backward, chained with the pool and readout, and the
//!   traits through which a caller's batch plan describes a batch;
//! * [`inference::InferenceArena`] — the recycling buffer pool every pass
//!   runs on;
//! * [`layers::Mlp`] — per-node-type encoders, update networks and output
//!   heads;
//! * [`params`] — the [`ParamStore`] and the [`Gradients`] a backward pass
//!   accumulates into;
//! * [`loss`] — MSLE (the paper's regression loss), BCE-with-logits (the
//!   classification loss for backpressure/query-success) and plain MSE;
//! * [`optim`] — Adam with global-norm gradient clipping;
//! * [`init::Initializer`] — deterministic seeded initialization, the basis
//!   of the paper's seed-varied ensembles.
//!
//! # Execution paths: two passes and one per-op oracle
//!
//! Two production passes run the GNN on the fused affine kernel and on
//! arena buffers:
//!
//! 1. **Stacked** ([`fused::StackedMlp`]): forward only, k members wide.
//!    All prediction work runs it: `costream-core`'s one fused pass, for
//!    a single model (k = 1) as for an ensemble.
//! 2. **The training pass** ([`TrainingPass`]): one fixed forward — encode,
//!    the caller's waves, pool, readout — that keeps what its backward
//!    replays (wave inputs and MLP hidden layers, not the states), and one
//!    fixed backward that transposes each weight once per step and forms
//!    no gradient for constant inputs. A training loop threads one arena
//!    through its minibatches and, after the first, allocates nothing.
//!
//! Both are held to one reference, the per-op chain that the hidden `tape`
//! module (a test oracle no production code names) records with
//! `Tape::gnn`: `tests/wave_parity.rs` holds the training pass's outputs
//! and gradients to it bit for bit, and `costream-core`'s sequential
//! oracle runs it over real plans, every wave included, to hold the
//! stacked pass to its outputs. So models trained by the pass are served
//! on the stacked path without recalibration.
//!
//! Everything is deterministic given a seed and has no external
//! dependencies beyond `rand` and `serde`.

#![warn(missing_docs)]

pub mod fused;
pub mod inference;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
#[doc(hidden)]
pub mod tape;
pub mod tensor;
pub mod wave;

pub use fused::{StackedLinear, StackedMlp, WeightPrecision};
pub use inference::InferenceArena;
pub use init::Initializer;
pub use layers::{Linear, Mlp};
pub use params::{Gradients, ParamId, ParamStore};
pub use tensor::{kernel_tier, Tensor, Window};
pub use wave::{BatchSpec, EncodeSpec, EncoderPart, Gnn, TrainingPass, WaveGroup, WaveSpec};
