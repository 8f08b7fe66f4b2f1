//! Fully-connected (affine) layer.

use rand::rngs::StdRng;
use stone_tensor::{matmul, matmul_a_bt, matmul_at_b, sum_axis0, Tensor};

use crate::layer::{Cache, Layer, Mode};

/// A fully-connected layer computing `y = x · W + b` over a
/// `[batch, in_features]` input.
///
/// The STONE encoder uses two of these: a 100-unit hidden layer and the
/// final embedding projection (Sec. IV.D of the paper).
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use stone_nn::{Dense, Layer, Mode};
/// use stone_tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Dense::new(3, 2, &mut rng);
/// let x = Tensor::ones(vec![4, 3]);
/// let (y, _) = layer.forward(&x, Mode::Infer, &mut rng);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor, // [in, out]
    bias: Tensor,   // [out]
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: crate::init::xavier_uniform(
                vec![in_features, out_features],
                in_features,
                out_features,
                rng,
            ),
            bias: Tensor::zeros(vec![out_features]),
            in_features,
            out_features,
        }
    }

    /// Creates a dense layer from explicit parameters (used by tests and
    /// weight loading).
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not `[in, out]` or `bias` is not `[out]`.
    #[must_use]
    pub fn from_params(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.rank(), 2, "Dense weight must be rank 2");
        let (in_features, out_features) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(bias.shape(), &[out_features], "Dense bias shape mismatch");
        Self { weight, bias, in_features, out_features }
    }

    /// Number of input features.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// `x · W + b`, the product shared by `forward` and `infer`.
    fn affine(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.cols(),
            self.in_features,
            "Dense expected {} input features, got {}",
            self.in_features,
            x.cols()
        );
        let mut y = matmul(x, &self.weight);
        for r in 0..y.rows() {
            for (v, &b) in y.row_mut(r).iter_mut().zip(self.bias.as_slice()) {
                *v += b;
            }
        }
        y
    }
}

impl Layer for Dense {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        (self.affine(x), Cache::one(x.clone()))
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.affine(&x)
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let x = &cache.tensors[0];
        let grad_w = matmul_at_b(x, grad_out);
        let grad_b = sum_axis0(grad_out);
        let grad_x = matmul_a_bt(grad_out, &self.weight);
        (grad_x, vec![grad_w, grad_b])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_affine_known_values() {
        let w = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_slice(&[10., 20.]);
        let layer = Dense::from_params(w, b);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]).unwrap();
        let (y, _) = layer.forward(&x, Mode::Infer, &mut rng);
        assert_eq!(y.as_slice(), &[14., 26.]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(3, 5, &mut rng);
        let x = Tensor::ones(vec![2, 3]);
        let (y, cache) = layer.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::ones(vec![2, 5]);
        let (gx, gp) = layer.backward(&cache, &g);
        assert_eq!(y.shape(), &[2, 5]);
        assert_eq!(gx.shape(), &[2, 3]);
        assert_eq!(gp[0].shape(), &[3, 5]);
        assert_eq!(gp[1].shape(), &[5]);
    }

    #[test]
    fn bias_gradient_sums_batch() {
        let w = Tensor::zeros(vec![1, 2]);
        let b = Tensor::zeros(vec![2]);
        let layer = Dense::from_params(w, b);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::ones(vec![3, 1]);
        let (_, cache) = layer.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::ones(vec![3, 2]);
        let (_, gp) = layer.backward(&cache, &g);
        assert_eq!(gp[1].as_slice(), &[3., 3.]);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::ones(vec![1, 4]);
        let _ = layer.forward(&x, Mode::Infer, &mut rng);
    }
}
