//! Seeded weight initialization.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic weight initializer.
///
/// Costream trains *ensembles* of models that differ only in their random
/// initialization seed (§IV-A of the paper), so reproducible seeding is part
/// of the public API rather than an implementation detail.
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// Creates an initializer from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// He/Kaiming uniform initialization, suited to ReLU activations.
    pub fn kaiming(&mut self, rows: usize, cols: usize) -> Tensor {
        let a = (6.0 / rows as f32).sqrt();
        let data = (0..rows * cols).map(|_| self.rng.gen_range(-a..a)).collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Zero-initialized tensor (biases).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::zeros(rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let a = Initializer::new(7).kaiming(4, 5);
        let b = Initializer::new(7).kaiming(4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Initializer::new(1).kaiming(4, 5);
        let b = Initializer::new(2).kaiming(4, 5);
        assert_ne!(a, b);
    }
}
