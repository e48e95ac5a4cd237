//! Trainable parameters and their gradients.
//!
//! Model parameters live in a [`ParamStore`]; each registered tensor is
//! named by a [`ParamId`]. Gradients are kept apart in a [`Gradients`]
//! buffer set, preallocated once per training run and zeroed in place
//! between minibatches: a backward pass reads the parameter values while it
//! accumulates into the independent buffers, and the optimizer then
//! updates the store.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// Storage for trainable parameters.
///
/// Gradients live separately in [`Gradients`] so a backward pass (which
/// reads parameter values) never aliases the buffers it writes into.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor under a diagnostic name.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }
}

/// Per-parameter gradient buffers, shape-matched to a [`ParamStore`].
///
/// Allocate once per training run with [`Gradients::for_store`], zero in
/// place with [`Gradients::zero`] before each backward pass, and hand to
/// the optimizer together with the store. Keeping these out of the
/// `ParamStore` lets a backward pass accumulate into them while it still
/// borrows the parameter values.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    bufs: Vec<Tensor>,
}

impl Gradients {
    /// Creates zeroed gradient buffers matching every parameter in `store`.
    pub fn for_store(store: &ParamStore) -> Self {
        Gradients {
            bufs: store.params.iter().map(|p| Tensor::zeros(p.rows(), p.cols())).collect(),
        }
    }

    /// Number of gradient buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True when no buffers are held.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.bufs[id.0]
    }

    /// Zeroes every buffer in place (no reallocation).
    pub fn zero(&mut self) {
        for g in &mut self.bufs {
            g.fill_zero();
        }
    }

    /// Adds `delta` into the gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.bufs[id.0].add_assign(delta);
    }

    /// Global gradient norm (L2 over all scalars), used for clipping.
    pub fn norm(&self) -> f32 {
        self.bufs.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scales all gradients in place: the two-pass form of the clip that
    /// [`Adam::step_scaled`](crate::optim::Adam::step_scaled) folds into its
    /// update, kept as the reference the optimizer tests hold that fold to.
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.bufs {
            g.scale_assign(s);
        }
    }
}
