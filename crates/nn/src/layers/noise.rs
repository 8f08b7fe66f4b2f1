//! Additive Gaussian input noise.

use rand::rngs::StdRng;
use stone_tensor::{rng as trng, Tensor};

use crate::layer::{Cache, Layer, Mode};

/// Adds `N(0, sigma²)` noise during training; identity at inference.
///
/// STONE injects Gaussian noise (σ = 0.10) at the encoder input to harden it
/// against short-term RSSI fluctuations (Sec. IV.D, Fig. 1). The gradient
/// passes through unchanged because the noise does not depend on the input.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use stone_nn::{GaussianNoise, Layer, Mode};
/// use stone_tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let noise = GaussianNoise::new(0.1);
/// let x = Tensor::zeros(vec![4]);
/// let (y, _) = noise.forward(&x, Mode::Train, &mut rng);
/// assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GaussianNoise {
    sigma: f32,
}

impl GaussianNoise {
    /// Creates a Gaussian-noise layer with standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics when `sigma` is negative.
    #[must_use]
    pub fn new(sigma: f32) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative, got {sigma}");
        Self { sigma }
    }

    /// The noise standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f32 {
        self.sigma
    }
}

impl Layer for GaussianNoise {
    fn forward(&self, x: &Tensor, mode: Mode, rng: &mut StdRng) -> (Tensor, Cache) {
        match mode {
            Mode::Infer => (x.clone(), Cache::empty()),
            Mode::Train => {
                let noise = trng::normal_tensor(rng, x.shape().to_vec(), 0.0, self.sigma);
                (x + &noise, Cache::empty())
            }
        }
    }

    fn infer(&self, x: Tensor) -> Tensor {
        x
    }

    fn backward(&self, _cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        (grad_out.clone(), Vec::new())
    }

    fn name(&self) -> &'static str {
        "gaussian_noise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn inference_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = GaussianNoise::new(0.5);
        let x = Tensor::from_slice(&[1., 2.]);
        let (y, _) = n.forward(&x, Mode::Infer, &mut rng);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn training_noise_has_requested_sigma() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = GaussianNoise::new(0.1);
        let x = Tensor::zeros(vec![50_000]);
        let (y, _) = n.forward(&x, Mode::Train, &mut rng);
        let mean = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        let var =
            y.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / y.len() as f32;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn gradient_passes_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = GaussianNoise::new(0.1);
        let x = Tensor::zeros(vec![3]);
        let (_, cache) = n.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::from_slice(&[1., 2., 3.]);
        let (gx, gp) = n.backward(&cache, &g);
        assert_eq!(gx.as_slice(), g.as_slice());
        assert!(gp.is_empty());
    }

    #[test]
    fn zero_sigma_is_identity_even_in_training() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = GaussianNoise::new(0.0);
        let x = Tensor::from_slice(&[1., 2., 3.]);
        let (y, _) = n.forward(&x, Mode::Train, &mut rng);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
