//! The elementwise activation layer.

use rand::rngs::StdRng;
use stone_tensor::Tensor;

use crate::layer::{Cache, Layer, Mode};

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu {
    _priv: (),
}

impl Relu {
    /// Creates a ReLU activation.
    #[must_use]
    pub fn new() -> Self {
        Self { _priv: () }
    }
}

impl Layer for Relu {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        (x.map(|v| v.max(0.0)), Cache::one(x.clone()))
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        x.map_in_place(|v| v.max(0.0));
        x
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let x = &cache.tensors[0];
        let gx = grad_out
            .zip_map(x, |g, xv| if xv > 0.0 { g } else { 0.0 })
            .expect("cached input and gradient shapes match");
        (gx, Vec::new())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn relu_clamps_and_gates() {
        let x = Tensor::from_slice(&[-1., 0., 2.]);
        let (y, cache) = Relu::new().forward(&x, Mode::Infer, &mut rng());
        assert_eq!(y.as_slice(), &[0., 0., 2.]);
        let g = Tensor::from_slice(&[1., 1., 1.]);
        let (gx, _) = Relu::new().backward(&cache, &g);
        assert_eq!(gx.as_slice(), &[0., 0., 1.]);
    }

    #[test]
    fn relu_has_no_params() {
        assert!(Relu::new().params().is_empty());
    }
}
