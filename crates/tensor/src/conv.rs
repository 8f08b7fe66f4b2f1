//! `im2col`/`col2im` lowering for 2-D convolutions.
//!
//! [`im2col`] lowers one sample of an NCHW batch to a column matrix, which
//! expresses the convolution as a matrix product (the standard im2col
//! trick); [`col2im`] is its exact adjoint scatter-add. The convolution
//! layers in `stone-nn` build no column matrix: [`crate::conv2d`] and
//! [`crate::conv2d_backward`] pack input windows straight into the matmul
//! microkernel's operands. `im2col` defines what they compute, and is the
//! tests' oracle; `conv2d_backward` scatters each sample's input-gradient
//! columns with `col2im`.

use crate::{Result, Tensor, TensorError};

/// Static geometry of a 2-D "valid" (no padding) convolution.
///
/// # Example
///
/// ```
/// use stone_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(1, 8, 8, 2, 2, 1)?;
/// assert_eq!((g.out_h, g.out_w), (7, 7));
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes the output geometry of a valid convolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the kernel is larger
    /// than the input, or any dimension/stride is zero.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
    ) -> Result<Self> {
        if channels == 0 || in_h == 0 || in_w == 0 {
            return Err(TensorError::InvalidDimension { what: "zero-sized convolution input" });
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidDimension { what: "zero-sized convolution kernel" });
        }
        if stride == 0 {
            return Err(TensorError::InvalidDimension { what: "zero convolution stride" });
        }
        if kernel_h > in_h || kernel_w > in_w {
            return Err(TensorError::InvalidDimension { what: "kernel larger than input" });
        }
        Ok(Self {
            channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            out_h: (in_h - kernel_h) / stride + 1,
            out_w: (in_w - kernel_w) / stride + 1,
        })
    }

    /// Number of rows of the column matrix: `channels * kernel_h * kernel_w`.
    #[must_use]
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel_h * self.kernel_w
    }

    /// Number of columns of the column matrix: `out_h * out_w`.
    #[must_use]
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Lowers one CHW sample (a contiguous slice of length
/// `channels * in_h * in_w`) to its im2col matrix of shape
/// `[col_rows, col_cols]`.
///
/// Row layout: `c * kh * kw + ki * kw + kj`; column layout: `oh * out_w + ow`.
///
/// # Panics
///
/// Panics when `sample` does not have exactly `channels * in_h * in_w`
/// elements.
#[must_use]
pub fn im2col(sample: &[f32], g: &Conv2dGeometry) -> Tensor {
    assert_eq!(
        sample.len(),
        g.channels * g.in_h * g.in_w,
        "im2col sample length must match geometry"
    );
    let mut out = Tensor::zeros(vec![g.col_rows(), g.col_cols()]);
    let mut rows = out.as_mut_slice().chunks_exact_mut(g.col_cols());
    for plane in sample.chunks_exact(g.in_h * g.in_w) {
        for ki in 0..g.kernel_h {
            for kj in 0..g.kernel_w {
                let dstrow = rows.next().expect("one column-matrix row per kernel tap");
                for oh in 0..g.out_h {
                    let src_row = oh * g.stride + ki;
                    let src = &plane[src_row * g.in_w..(src_row + 1) * g.in_w];
                    for ow in 0..g.out_w {
                        dstrow[oh * g.out_w + ow] = src[ow * g.stride + kj];
                    }
                }
            }
        }
    }
    out
}

/// Adjoint of [`im2col`]: scatter-adds a column-matrix gradient back onto a
/// CHW gradient buffer, row by row (`c`, `ki`, `kj`) and, within a row, in
/// output-position order.
///
/// # Panics
///
/// Panics when `grad_cols` does not have shape `[col_rows, col_cols]` or
/// `out` does not have exactly `channels * in_h * in_w` elements.
pub fn col2im(grad_cols: &Tensor, g: &Conv2dGeometry, out: &mut [f32]) {
    assert_eq!(grad_cols.shape(), &[g.col_rows(), g.col_cols()], "col2im gradient shape mismatch");
    assert_eq!(out.len(), g.channels * g.in_h * g.in_w, "col2im output length mismatch");
    let mut rows = grad_cols.as_slice().chunks_exact(g.col_cols());
    for plane in out.chunks_exact_mut(g.in_h * g.in_w) {
        for ki in 0..g.kernel_h {
            for kj in 0..g.kernel_w {
                let src = rows.next().expect("one column-matrix row per kernel tap");
                for oh in 0..g.out_h {
                    let dst_row = oh * g.stride + ki;
                    for ow in 0..g.out_w {
                        plane[dst_row * g.in_w + ow * g.stride + kj] += src[oh * g.out_w + ow];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_valid_conv() {
        let g = Conv2dGeometry::new(3, 8, 8, 2, 2, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (7, 7));
        assert_eq!(g.col_rows(), 3 * 4);
        assert_eq!(g.col_cols(), 49);
    }

    #[test]
    fn geometry_with_stride() {
        let g = Conv2dGeometry::new(1, 6, 6, 2, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (3, 3));
    }

    #[test]
    fn geometry_rejects_bad_inputs() {
        assert!(Conv2dGeometry::new(0, 4, 4, 2, 2, 1).is_err());
        assert!(Conv2dGeometry::new(1, 4, 4, 0, 2, 1).is_err());
        assert!(Conv2dGeometry::new(1, 4, 4, 2, 2, 0).is_err());
        assert!(Conv2dGeometry::new(1, 1, 1, 2, 2, 1).is_err());
    }

    #[test]
    fn im2col_known_2x2() {
        // 1 channel, 3x3 input, 2x2 kernel, stride 1 -> 2x2 output.
        let g = Conv2dGeometry::new(1, 3, 3, 2, 2, 1).unwrap();
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[4, 4]);
        // Rows are kernel positions (ki,kj); columns are output positions.
        assert_eq!(cols.row(0), &[1., 2., 4., 5.]); // top-left taps
        assert_eq!(cols.row(1), &[2., 3., 5., 6.]); // top-right taps
        assert_eq!(cols.row(2), &[4., 5., 7., 8.]); // bottom-left taps
        assert_eq!(cols.row(3), &[5., 6., 8., 9.]); // bottom-right taps
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct convolution vs im2col+matmul for random-ish data.
        let g = Conv2dGeometry::new(2, 4, 5, 2, 3, 1).unwrap();
        let x: Vec<f32> =
            (0..g.channels * g.in_h * g.in_w).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..g.col_rows()).map(|i| (i as f32 * 0.11).cos()).collect();

        let cols = im2col(&x, &g);
        let wt = Tensor::from_vec(vec![1, g.col_rows()], w.clone()).unwrap();
        let y = crate::matmul(&wt, &cols);

        for oh in 0..g.out_h {
            for ow in 0..g.out_w {
                let mut acc = 0.0f32;
                for c in 0..g.channels {
                    for ki in 0..g.kernel_h {
                        for kj in 0..g.kernel_w {
                            let xv = x[c * g.in_h * g.in_w + (oh + ki) * g.in_w + (ow + kj)];
                            let wv = w[c * g.kernel_h * g.kernel_w + ki * g.kernel_w + kj];
                            acc += xv * wv;
                        }
                    }
                }
                let got = y.at2(0, oh * g.out_w + ow);
                assert!((acc - got).abs() < 1e-4, "mismatch at ({oh},{ow}): {acc} vs {got}");
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y (adjoint property).
        let g = Conv2dGeometry::new(2, 5, 4, 2, 2, 1).unwrap();
        let x: Vec<f32> =
            (0..g.channels * g.in_h * g.in_w).map(|i| (i as f32 * 0.7).sin()).collect();
        let ydata: Vec<f32> =
            (0..g.col_rows() * g.col_cols()).map(|i| (i as f32 * 0.3).cos()).collect();
        let y = Tensor::from_vec(vec![g.col_rows(), g.col_cols()], ydata).unwrap();

        let ax = im2col(&x, &g);
        let lhs: f32 = ax.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();

        let mut aty = vec![0.0f32; x.len()];
        col2im(&y, &g, &mut aty);
        let rhs: f32 = x.iter().zip(&aty).map(|(&a, &b)| a * b).sum();

        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_into_existing_buffer() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 2, 1).unwrap();
        let y = Tensor::ones(vec![g.col_rows(), g.col_cols()]);
        let mut out = vec![1.0f32; 9];
        col2im(&y, &g, &mut out);
        // Center pixel participates in all 4 windows at all 4 kernel taps once
        // each = 4 contributions, plus the existing 1.0.
        assert_eq!(out[4], 5.0);
        // Corner pixel participates once.
        assert_eq!(out[0], 2.0);
    }
}
