//! Elementwise activation layers.

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

/// Leaky rectified linear unit: `y = x` for `x > 0`, `alpha * x` otherwise.
#[derive(Debug, Clone, Copy)]
pub struct LeakyRelu {
    alpha: f32,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with negative-side slope `alpha`.
    #[must_use]
    pub fn new(alpha: f32) -> Self {
        Self { alpha }
    }

    /// The negative-side slope.
    #[must_use]
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl Layer for LeakyRelu {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        let a = self.alpha;
        (x.map(|v| if v > 0.0 { v } else { a * v }), Cache::one(x.clone()))
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let x = &cache.tensors[0];
        let a = self.alpha;
        let gx = grad_out
            .zip_map(x, |g, xv| if xv > 0.0 { g } else { a * g })
            .expect("cached input and gradient shapes match");
        (gx, Vec::new())
    }

    fn name(&self) -> &'static str {
        "leaky_relu"
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^-x)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sigmoid {
    _priv: (),
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    #[must_use]
    pub fn new() -> Self {
        Self { _priv: () }
    }
}

impl Layer for Sigmoid {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        (y.clone(), Cache::one(y))
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let y = &cache.tensors[0];
        let gx = grad_out
            .zip_map(y, |g, yv| g * yv * (1.0 - yv))
            .expect("cached output and gradient shapes match");
        (gx, Vec::new())
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tanh {
    _priv: (),
}

impl Tanh {
    /// Creates a tanh activation.
    #[must_use]
    pub fn new() -> Self {
        Self { _priv: () }
    }
}

impl Layer for Tanh {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        let y = x.map(f32::tanh);
        (y.clone(), Cache::one(y))
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let y = &cache.tensors[0];
        let gx = grad_out
            .zip_map(y, |g, yv| g * (1.0 - yv * yv))
            .expect("cached output and gradient shapes match");
        (gx, Vec::new())
    }

    fn name(&self) -> &'static str {
        "tanh"
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
    fn leaky_relu_negative_slope() {
        let x = Tensor::from_slice(&[-2., 2.]);
        let l = LeakyRelu::new(0.1);
        let (y, cache) = l.forward(&x, Mode::Infer, &mut rng());
        assert!((y.as_slice()[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 2.0);
        let (gx, _) = l.backward(&cache, &Tensor::from_slice(&[1., 1.]));
        assert!((gx.as_slice()[0] - 0.1).abs() < 1e-6);
        assert_eq!(gx.as_slice()[1], 1.0);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let x = Tensor::from_slice(&[-10., 0., 10.]);
        let (y, _) = Sigmoid::new().forward(&x, Mode::Infer, &mut rng());
        assert!(y.as_slice()[0] < 0.001);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 0.999);
    }

    #[test]
    fn tanh_is_odd() {
        let x = Tensor::from_slice(&[-1., 1.]);
        let (y, _) = Tanh::new().forward(&x, Mode::Infer, &mut rng());
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn activations_have_no_params() {
        assert!(Relu::new().params().is_empty());
        assert!(LeakyRelu::default().params().is_empty());
        assert!(Sigmoid::new().params().is_empty());
        assert!(Tanh::new().params().is_empty());
    }
}
