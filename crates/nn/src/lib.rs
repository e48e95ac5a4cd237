//! # costream-nn — a minimal neural-network substrate
//!
//! The Costream paper builds its cost model with PyTorch; no comparable GNN
//! stack exists for Rust, so this crate provides the (small) slice of deep
//! learning that the paper's Algorithm 1 actually needs, built from scratch:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` matrices with blocked,
//!   branch-free matmul kernels and a fused affine(+ReLU) op;
//! * [`wave`] — the GNN's steps, defined once for inference and training:
//!   per-type encoding into the initial state and one message-passing
//!   wave, each with its hand-written backward, and the one
//!   [`TrainingPass`] that chains them with the pool and readout;
//! * [`inference::InferenceArena`] — the recycling buffer pool every pass
//!   runs on;
//! * [`layers::Mlp`] — per-node-type encoders, update networks and output
//!   heads;
//! * [`params`] — the [`ParamStore`] and the [`Gradients`] a backward pass
//!   accumulates into;
//! * [`loss`] — MSLE (the paper's regression loss), BCE-with-logits (the
//!   classification loss for backpressure/query-success) and plain MSE;
//! * [`optim`] — Adam and SGD with global-norm gradient clipping;
//! * [`init::Initializer`] — deterministic seeded initialization, the basis
//!   of the paper's seed-varied ensembles.
//!
//! # Execution paths: stacked, arena alone, the training pass
//!
//! There is one definition of the GNN's arithmetic — [`wave::encode_scatter`],
//! [`wave::wave_update`] and [`Mlp::forward_arena`], all running the fused
//! affine kernel on arena buffers — and it runs in three places:
//!
//! 1. **Stacked** ([`fused::StackedMlp`]): forward only, k members wide.
//!    All prediction work runs it: `costream-core`'s one fused pass, for
//!    a single model (k = 1) as for an ensemble.
//! 2. **Arena alone** (`Mlp::forward_inference`, the `wave` routines with
//!    `saved: None`): forward only, node by node, every intermediate
//!    recycled the moment it is dead. Its one user is `costream-core`'s
//!    sequential test oracle, which the stacked path is held to.
//! 3. **The training pass** ([`TrainingPass`]): one fixed forward — encode,
//!    the caller's waves, pool, readout — running the same routines with
//!    `saved: Some(..)`, so the training forward is the inference forward
//!    plus the activations its backward replays (wave inputs and MLP
//!    hidden layers, not the `[total x hidden]` states); and one fixed
//!    backward over them. The backward accumulates in the order the per-op
//!    chain does, transposes each weight matrix once per step and forms no
//!    gradient for constant inputs. Parameters are read straight from the
//!    [`ParamStore`]; gradients go to preallocated [`Gradients`]. A
//!    training loop threads one arena through its minibatches and, after
//!    the first, allocates nothing.
//!
//! Besides these, a per-op reverse-mode tape survives as a test oracle
//! (the hidden `tape` module, which no production code names): the
//! bitwise tests write the GNN down op by op on it and hold the training
//! pass's outputs and gradients to it (`tests/wave_parity.rs`).
//!
//! Because all three run one arithmetic, their outputs are bitwise equal
//! (`costream-core`'s `tests/fastpath.rs`), and models trained by the pass
//! are served on the stacked path without recalibration.
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
pub use tensor::{kernel_tier, Tensor};
pub use wave::{BatchSpec, EncodeSpec, EncoderPart, Gnn, TrainingPass, WaveGroup, WaveSpec};
