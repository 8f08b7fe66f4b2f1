//! Inverted dropout.

use rand::rngs::StdRng;
use rand::Rng;
use stone_tensor::Tensor;

use crate::layer::{Cache, Layer, Mode};

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1 / (1 - p)`; inference is the identity.
///
/// The STONE paper interleaves dropout between the encoder's convolution
/// layers to improve generalization (Sec. IV.D).
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use stone_nn::{Dropout, Layer, Mode};
/// use stone_tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let d = Dropout::new(0.5);
/// let x = Tensor::ones(vec![8]);
/// let (y, _) = d.forward(&x, Mode::Infer, &mut rng);
/// assert_eq!(y.as_slice(), x.as_slice()); // identity at inference
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    #[must_use]
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1), got {p}");
        Self { p }
    }

    /// The drop probability.
    #[must_use]
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&self, x: &Tensor, mode: Mode, rng: &mut StdRng) -> (Tensor, Cache) {
        match mode {
            Mode::Infer => (x.clone(), Cache::empty()),
            Mode::Train => {
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                // The mask already includes the 1/keep scaling so backward is
                // a single elementwise product.
                let mask = Tensor::from_fn(x.shape().to_vec(), |_| {
                    if rng.gen::<f32>() < keep {
                        scale
                    } else {
                        0.0
                    }
                });
                let y = &mask * x;
                (y, Cache::one(mask))
            }
        }
    }

    fn infer(&self, x: Tensor) -> Tensor {
        x
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        match cache.tensors.first() {
            None => (grad_out.clone(), Vec::new()), // inference cache
            Some(mask) => (mask * grad_out, Vec::new()),
        }
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn inference_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Dropout::new(0.9);
        let x = Tensor::from_slice(&[1., 2., 3.]);
        let (y, _) = d.forward(&x, Mode::Infer, &mut rng);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn training_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Dropout::new(0.3);
        let x = Tensor::ones(vec![20_000]);
        let (y, _) = d.forward(&x, Mode::Train, &mut rng);
        let mean = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn surviving_elements_are_scaled() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Dropout::new(0.5);
        let x = Tensor::ones(vec![64]);
        let (y, _) = d.forward(&x, Mode::Train, &mut rng);
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6, "unexpected value {v}");
        }
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Dropout::new(0.5);
        let x = Tensor::ones(vec![32]);
        let (y, cache) = d.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::ones(vec![32]);
        let (gx, _) = d.backward(&cache, &g);
        // Gradient flows exactly where the forward pass let values through.
        for (yo, go) in y.as_slice().iter().zip(gx.as_slice()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn zero_p_keeps_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Dropout::new(0.0);
        let x = Tensor::from_slice(&[1., 2., 3.]);
        let (y, _) = d.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.as_slice(), x.as_slice());
    }
}
