//! Shape-manipulation layers.

use rand::rngs::StdRng;
use stone_tensor::Tensor;

use crate::layer::{Cache, Layer, Mode};

/// Flattens `[batch, ...]` inputs to `[batch, prod(...)]`, remembering the
/// original shape for the backward pass.
///
/// Sits between the convolutional trunk and the fully-connected head of the
/// STONE encoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten {
    _priv: (),
}

impl Flatten {
    /// Creates a flatten layer.
    #[must_use]
    pub fn new() -> Self {
        Self { _priv: () }
    }
}

/// `[batch, prod(rest)]` for a `[batch, ...]` input.
fn flat_shape(x: &Tensor) -> Vec<usize> {
    assert!(x.rank() >= 2, "Flatten expects rank >= 2, got {}", x.rank());
    vec![x.shape()[0], x.shape()[1..].iter().product()]
}

impl Layer for Flatten {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        let y = x.reshape(flat_shape(x)).expect("flatten preserves element count");
        (y, Cache { tensors: Vec::new(), shape: x.shape().to_vec() })
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        x.reshape_in_place(flat_shape(&x)).expect("flatten preserves element count");
        x
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let gx = grad_out.reshape(cache.shape.clone()).expect("unflatten preserves element count");
        (gx, Vec::new())
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn flatten_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let f = Flatten::new();
        let x = Tensor::from_fn(vec![2, 3, 4, 5], |i| i as f32);
        let (y, cache) = f.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[2, 60]);
        let (gx, _) = f.backward(&cache, &y);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gx.as_slice(), x.as_slice());
    }

    #[test]
    fn flatten_rank2_is_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let f = Flatten::new();
        let x = Tensor::ones(vec![3, 7]);
        let (y, _) = f.forward(&x, Mode::Infer, &mut rng);
        assert_eq!(y.shape(), &[3, 7]);
    }
}
