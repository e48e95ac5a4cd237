//! # costream-nn — a minimal neural-network substrate
//!
//! The Costream paper builds its cost model with PyTorch; no comparable GNN
//! stack exists for Rust, so this crate provides the (small) slice of deep
//! learning that the paper's Algorithm 1 actually needs, built from scratch:
//!
//! * [`tensor::Tensor`] — dense row-major `f32` matrices with blocked,
//!   branch-free matmul kernels and a fused affine(+ReLU) op;
//! * [`tape::Tape`] — reverse-mode autodiff over a fixed op set, including
//!   the graph primitives `gather_rows` and `segment_sum` used for
//!   "sum the hidden states of the children" and the final graph readout,
//!   and two fused nodes that record a whole GNN step each;
//! * [`wave`] — those two steps, defined once for inference and training:
//!   per-type encoding into the initial state, and one message-passing
//!   wave;
//! * [`inference::InferenceArena`] — the recycling buffer pool both
//!   execution paths run on (see *Execution paths* below);
//! * [`layers::Mlp`] — per-node-type encoders, update networks and output
//!   heads;
//! * [`loss`] — MSLE (the paper's regression loss), BCE-with-logits (the
//!   classification loss for backpressure/query-success) and plain MSE;
//! * [`optim`] — Adam and SGD with global-norm gradient clipping;
//! * [`init::Initializer`] — deterministic seeded initialization, the basis
//!   of the paper's seed-varied ensembles.
//!
//! # Execution paths: when to use the tape, when the arena alone
//!
//! There is one definition of the GNN's arithmetic — [`wave::encode_scatter`],
//! [`wave::wave_update`] and [`Mlp::forward_arena`], all running the fused
//! affine kernel on arena buffers — and two ways to run it:
//!
//! 1. **Arena alone** (`Mlp::forward_inference`, the `wave` routines with
//!    `saved: None`): forward only. Every intermediate goes back to the
//!    [`InferenceArena`] the moment it is dead, nothing is recorded, and a
//!    warm arena makes a pass allocation-free. Use it for *all* prediction
//!    work: model evaluation, ensemble prediction, and the placement
//!    optimizer's candidate scoring.
//! 2. **Tape** ([`Tape`]): anything that needs gradients — training,
//!    fine-tuning, gradient checks. [`Tape::encode_scatter`] and
//!    [`Tape::wave_update`] run the same `wave` routines with
//!    `saved: Some(..)`, so the training forward is the inference forward
//!    plus the activations a backward pass replays (wave inputs and MLP
//!    hidden layers — not the `[total x hidden]` states), at within a few
//!    percent of its cost. Their hand-written backward accumulates in the
//!    order the per-op chain they replace does, transposes each weight
//!    matrix once per step, and forms no gradient for constant inputs.
//!    Pinned parameters are **borrowed** from the [`ParamStore`]
//!    (zero-clone); gradients go to preallocated [`tape::Gradients`]. A
//!    tape owns the arena it draws every value and every backward scratch
//!    tensor from ([`Tape::with_arena`] / [`Tape::into_arena`]); a training
//!    loop threads one arena through its minibatches and, after the first,
//!    allocates no tensor buffer. The small ops (`gather_rows`,
//!    `segment_sum`, `concat_cols`, `add`, ...) stay available for ad-hoc
//!    graphs and as the oracle the fused nodes are held to, bit for bit
//!    (`tests/wave_parity.rs`).
//!
//! Because both run one routine, tape and arena outputs are bitwise equal
//! (`costream-core`'s `tests/fastpath.rs`), and models trained on the tape
//! are served on the arena path without recalibration.
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
pub mod tape;
pub mod tensor;
pub mod wave;

pub use fused::{StackedLinear, StackedMlp, WeightPrecision};
pub use inference::InferenceArena;
pub use init::Initializer;
pub use layers::{Linear, Mlp};
pub use tape::{Gradients, NodeId, ParamId, ParamStore, Tape};
pub use tensor::{kernel_tier, Tensor};
pub use wave::{EncodeSpec, EncoderPart, WaveGroup, WaveSpec};
