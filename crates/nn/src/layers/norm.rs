//! Row-wise L2 normalization, the encoder's output layer.

use rand::rngs::StdRng;
use stone_tensor::Tensor;

use crate::layer::{Cache, Layer, Mode};

/// Row-wise L2 normalization: each row of a `[batch, d]` input is projected
/// onto the unit hypersphere, `y = x / max(||x||, 1e-8)`.
///
/// This is the final layer of the STONE encoder: the paper constrains
/// embeddings to `||f(x)||₂ = 1` (Sec. III), which together with the margin
/// prevents the trivial `f(x) = 0` solution of the triplet inequality.
///
/// The backward pass uses the exact Jacobian of the normalization:
/// `∂L/∂x = (g - y (g·y)) / ||x||` per row.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Normalize {
    _priv: (),
}

/// The norm floor that keeps an all-zero row finite.
const EPS: f32 = 1e-8;

impl L2Normalize {
    /// Creates an L2 normalization layer.
    #[must_use]
    pub fn new() -> Self {
        Self { _priv: () }
    }
}

impl Layer for L2Normalize {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        let (m, d) = (x.rows(), x.cols());
        let mut y = Tensor::zeros(vec![m, d]);
        let mut norms = Tensor::zeros(vec![m]);
        for i in 0..m {
            let row = x.row(i);
            let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt().max(EPS);
            norms.as_mut_slice()[i] = norm;
            for (o, &v) in y.row_mut(i).iter_mut().zip(row) {
                *o = v / norm;
            }
        }
        (y.clone(), Cache { tensors: vec![y, norms], shape: Vec::new() })
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let y = &cache.tensors[0];
        let norms = &cache.tensors[1];
        let (m, d) = (y.rows(), y.cols());
        let mut gx = Tensor::zeros(vec![m, d]);
        for i in 0..m {
            let yr = y.row(i);
            let gr = grad_out.row(i);
            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            let inv_norm = 1.0 / norms.as_slice()[i];
            for ((o, &g), &yv) in gx.row_mut(i).iter_mut().zip(gr).zip(yr) {
                *o = (g - yv * dot) * inv_norm;
            }
        }
        (gx, Vec::new())
    }

    fn name(&self) -> &'static str {
        "l2_normalize"
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
    fn l2_rows_are_unit_norm() {
        let x = Tensor::from_vec(vec![2, 3], vec![3., 0., 4., 1., 1., 1.]).unwrap();
        let (y, _) = L2Normalize::new().forward(&x, Mode::Infer, &mut rng());
        for i in 0..2 {
            let n: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
        assert!((y.at2(0, 0) - 0.6).abs() < 1e-6);
        assert!((y.at2(0, 2) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn l2_handles_zero_rows() {
        let x = Tensor::zeros(vec![1, 4]);
        let (y, _) = L2Normalize::new().forward(&x, Mode::Infer, &mut rng());
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn l2_backward_orthogonal_to_output() {
        // The normalization Jacobian projects out the radial component, so
        // grad_in must be orthogonal to the (unit) output row.
        let x = Tensor::from_vec(vec![1, 3], vec![1., 2., 2.]).unwrap();
        let l = L2Normalize::new();
        let (y, cache) = l.forward(&x, Mode::Train, &mut rng());
        let g = Tensor::from_vec(vec![1, 3], vec![0.3, -0.7, 0.2]).unwrap();
        let (gx, _) = l.backward(&cache, &g);
        let dot: f32 = gx.row(0).iter().zip(y.row(0)).map(|(&a, &b)| a * b).sum();
        assert!(dot.abs() < 1e-6, "radial component leaked: {dot}");
    }
}
