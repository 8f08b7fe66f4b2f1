//! 2-D convolution over NCHW batches: fused windows-to-tiles products
//! forward and backward.

use rand::rngs::StdRng;
use stone_tensor::{conv2d, conv2d_backward, Conv2dGeometry, Tensor};

use crate::layer::{Cache, Layer, Mode};

/// A "valid" (unpadded) 2-D convolution layer.
///
/// The STONE encoder stacks two of these with 2×2 kernels, stride 1 and
/// 64/128 filters (Sec. IV.D, Fig. 1 of the paper). Weights are stored as a
/// `[out_channels, in_channels * kh * kw]` matrix. The forward pass, in
/// every mode, is one fused [`stone_tensor::conv2d`] product: input windows
/// are packed straight into the matmul microkernel's panels and each tile
/// is stored with its bias straight into NCHW. The backward pass is one
/// fused [`stone_tensor::conv2d_backward`] call: the weight gradient packs
/// input windows straight into tiles, and the input gradient is scattered
/// per sample, with no column matrix.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use stone_nn::{Conv2d, Layer, Mode};
/// use stone_tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let conv = Conv2d::new(1, 4, 2, 1, &mut rng);
/// let x = Tensor::ones(vec![2, 1, 8, 8]);
/// let (y, _) = conv.forward(&x, Mode::Infer, &mut rng);
/// assert_eq!(y.shape(), &[2, 4, 7, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor, // [out_channels, in_channels * kh * kw]
    bias: Tensor,   // [out_channels]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights and zero bias.
    ///
    /// `kernel` is the square kernel side; `stride` applies to both axes.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Self {
            weight: crate::init::he_normal(vec![out_channels, fan_in], fan_in, rng),
            bias: Tensor::zeros(vec![out_channels]),
            in_channels,
            out_channels,
            kernel,
            stride,
        }
    }

    /// Number of output channels (filters).
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn geometry(&self, x: &Tensor) -> Conv2dGeometry {
        assert_eq!(x.rank(), 4, "Conv2d expects [batch, C, H, W], got rank {}", x.rank());
        assert_eq!(
            x.shape()[1],
            self.in_channels,
            "Conv2d expected {} input channels, got {}",
            self.in_channels,
            x.shape()[1]
        );
        Conv2dGeometry::new(
            self.in_channels,
            x.shape()[2],
            x.shape()[3],
            self.kernel,
            self.kernel,
            self.stride,
        )
        .expect("convolution geometry must be valid for the given input")
    }

    /// The fused product shared by `forward` and `infer`.
    fn product(&self, x: &Tensor) -> Tensor {
        conv2d(x, &self.weight, self.bias.as_slice(), &self.geometry(x))
    }
}

impl Layer for Conv2d {
    fn forward(&self, x: &Tensor, _mode: Mode, _rng: &mut StdRng) -> (Tensor, Cache) {
        // Every mode keeps the input: backward re-reads its windows, and an
        // Infer-mode cache must still serve `gradcheck`.
        (self.product(x), Cache::one(x.clone()))
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.product(&x)
    }

    fn backward(&self, cache: &Cache, grad_out: &Tensor) -> (Tensor, Vec<Tensor>) {
        let x = &cache.tensors[0];
        let (grad_x, grad_w, grad_b) =
            conv2d_backward(x, &self.weight, grad_out, &self.geometry(x));
        (grad_x, vec![grad_w, grad_b])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 2, 2, 1, &mut rng);
        // Zero weights: output equals bias everywhere.
        conv.weight.fill(0.0);
        conv.bias.as_mut_slice().copy_from_slice(&[1.5, -0.5]);
        let x = Tensor::ones(vec![1, 1, 3, 3]);
        let (y, _) = conv.forward(&x, Mode::Infer, &mut rng);
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-0.5; 4]);
    }

    #[test]
    fn forward_known_convolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, &mut rng);
        // Kernel [[1, 0], [0, 1]] sums the main diagonal of each window.
        conv.weight.as_mut_slice().copy_from_slice(&[1., 0., 0., 1.]);
        conv.bias.fill(0.0);
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let (y, _) = conv.forward(&x, Mode::Infer, &mut rng);
        // Windows: [1,2;4,5]->6, [2,3;5,6]->8, [4,5;7,8]->12, [5,6;8,9]->14.
        assert_eq!(y.as_slice(), &[6., 8., 12., 14.]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(2, 3, 2, 1, &mut rng);
        let x = Tensor::ones(vec![2, 2, 4, 4]);
        let (y, cache) = conv.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::ones(y.shape().to_vec());
        let (gx, gp) = conv.backward(&cache, &g);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gp[0].shape(), &[3, 2 * 2 * 2]);
        assert_eq!(gp[1].shape(), &[3]);
    }

    #[test]
    fn stride_two_halves_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, 2, 2, &mut rng);
        let x = Tensor::ones(vec![1, 1, 6, 6]);
        let (y, _) = conv.forward(&x, Mode::Infer, &mut rng);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 1, 2, 1, &mut rng);
        let x = Tensor::ones(vec![1, 2, 4, 4]);
        let _ = conv.forward(&x, Mode::Infer, &mut rng);
    }
}
