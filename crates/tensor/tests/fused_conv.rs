//! The fused convolution products against their unfused definitions.
//!
//! `stone_tensor::conv2d` packs input windows straight into the matmul
//! microkernel's panels and stores each tile plus its bias straight into
//! NCHW. It must equal the unfused pipeline — `im2col` per sample, the
//! scalar reference product, then the bias — **bit for bit**, at any
//! thread count, on the environment's backend (AVX2, or portable under
//! `STONE_NO_SIMD=1`). `stone_tensor::conv2d_backward` must likewise equal
//! the lowered backward pipeline (`im2col`, `matmul_a_bt`, `matmul_at_b`,
//! `col2im`) bit for bit.

use stone_tensor::{
    col2im, conv2d, conv2d_backward, im2col, matmul_a_bt, matmul_at_b, matmul_scalar,
    Conv2dGeometry, Tensor,
};

/// Deterministic values in `[-1, 1)`; one in seven is an exact zero when
/// `zeros` is set. The scalar reference skips exactly-zero weights, so
/// weights are drawn without zeros.
fn pseudo(shape: &[usize], salt: u32, zeros: bool) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |i| {
        let h = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt).rotate_left(7);
        if zeros && h.is_multiple_of(7) {
            0.0
        } else {
            (h % 4001) as f32 / 2000.0 - 1.0 + 1.0 / 4096.0
        }
    })
}

/// The unfused definition: per sample, `im2col`, the scalar reference
/// product, then the bias.
fn unfused(x: &Tensor, w: &Tensor, bias: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let batch = x.shape()[0];
    let sample_len = g.channels * g.in_h * g.in_w;
    let mut out = Vec::with_capacity(batch * w.rows() * g.col_cols());
    for sample in x.as_slice().chunks_exact(sample_len) {
        let yw = matmul_scalar(w, &im2col(sample, g));
        for (oc, &b) in bias.iter().enumerate() {
            out.extend(yw.row(oc).iter().map(|&v| v + b));
        }
    }
    out
}

/// The unfused backward pipeline, returning `(grad_x, grad_w, grad_b)`:
/// the batch lowered into one `[taps, batch · plane]` matrix by per-sample
/// `im2col` and the gradient gathered into `[out_channels, batch · plane]`;
/// then `matmul_a_bt` for the weight, the gathered rows' `.sum()` for the
/// bias, and `matmul_at_b` with each sample's columns scattered by
/// `col2im` for the input.
fn unfused_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    g: &Conv2dGeometry,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (batch, oc) = (x.shape()[0], w.rows());
    let (taps, plane) = (g.col_rows(), g.col_cols());
    let (sample_len, wide) = (g.channels * g.in_h * g.in_w, batch * plane);
    let mut cols = Tensor::zeros(vec![taps, wide]);
    let mut gathered = Tensor::zeros(vec![oc, wide]);
    for (n, sample) in x.as_slice().chunks_exact(sample_len).enumerate() {
        let lowered = im2col(sample, g);
        for s in 0..taps {
            cols.as_mut_slice()[s * wide + n * plane..][..plane].copy_from_slice(lowered.row(s));
        }
        for o in 0..oc {
            gathered.as_mut_slice()[o * wide + n * plane..][..plane]
                .copy_from_slice(&dy.as_slice()[(n * oc + o) * plane..][..plane]);
        }
    }
    let grad_w = matmul_a_bt(&gathered, &cols).into_vec();
    let grad_b = (0..oc).map(|o| gathered.row(o).iter().sum()).collect();
    let dcols = matmul_at_b(w, &gathered);
    let mut grad_x = vec![0.0; batch * sample_len];
    for (n, gx) in grad_x.chunks_exact_mut(sample_len).enumerate() {
        let mut sample_cols = Tensor::zeros(vec![taps, plane]);
        for s in 0..taps {
            sample_cols.as_mut_slice()[s * plane..][..plane]
                .copy_from_slice(&dcols.row(s)[n * plane..][..plane]);
        }
        col2im(&sample_cols, g, gx);
    }
    (grad_x, grad_w, grad_b)
}

/// A `grad_out` with exact zeros of both signs: output channel 0 is all
/// `-0.0` (so its bias sum, and any weight-gradient sum of its products
/// with non-negative inputs, is a sum of signed zeros), and one in nine
/// other elements is `+0.0` and one in nine `-0.0`.
fn signed_zero_grad(shape: &[usize], salt: u32) -> Tensor {
    let plane = shape[2] * shape[3];
    let base = pseudo(shape, salt, false);
    Tensor::from_fn(shape.to_vec(), |i| {
        let h = (i as u32).wrapping_mul(2_246_822_519).wrapping_add(salt) % 9;
        if (i / plane).is_multiple_of(shape[1]) || h == 1 {
            -0.0
        } else if h == 0 {
            0.0
        } else {
            base.as_slice()[i]
        }
    })
}

/// Index of the first element whose bits differ, if any.
fn first_bit_difference(got: &[f32], want: &[f32]) -> Option<usize> {
    assert_eq!(got.len(), want.len(), "gradient lengths differ");
    (0..want.len()).find(|&i| got[i].to_bits() != want[i].to_bits())
}

/// `(channels, in_h, in_w, kernel, stride, out_channels, batches)`.
type Case = (usize, usize, usize, usize, usize, usize, &'static [usize]);

const CASES: &[Case] = &[
    // 7×7 plane (49 positions: a ragged last panel), fewer than 8 filters.
    (3, 8, 8, 2, 1, 5, &[1, 9, 64]),
    // Kernel 3, 13 filters (a ragged last tile).
    (5, 9, 9, 3, 1, 13, &[1, 9, 64]),
    // Stride 2: a 5×5 plane, 3 filters.
    (7, 11, 10, 2, 2, 3, &[1, 9, 64]),
    // Kernel 3 and stride 2: a 6×6 plane, 9 filters.
    (4, 13, 13, 3, 2, 9, &[1, 9, 64]),
    // One sample above the parallel threshold: the output-channel split
    // at 2 threads starts its second block at row 19, inside a tile.
    (16, 12, 12, 3, 1, 37, &[1, 9]),
    // The encoder's second convolution.
    (64, 8, 8, 2, 1, 128, &[1, 9]),
];

#[test]
fn fused_conv_equals_im2col_matmul_bias_bitwise() {
    for (ci, &(channels, in_h, in_w, kernel, stride, oc, batches)) in CASES.iter().enumerate() {
        let g = Conv2dGeometry::new(channels, in_h, in_w, kernel, kernel, stride).unwrap();
        let salt = ci as u32 * 100;
        let w = pseudo(&[oc, g.col_rows()], salt + 1, false);
        let bias: Vec<f32> = pseudo(&[oc], salt + 2, false).into_vec();
        for &batch in batches {
            let x = pseudo(&[batch, channels, in_h, in_w], salt + 3, true);
            let want = unfused(&x, &w, &bias, &g);
            for threads in [1, 2] {
                let y = stone_par::with_threads(threads, || conv2d(&x, &w, &bias, &g));
                assert_eq!(y.shape(), &[batch, oc, g.out_h, g.out_w]);
                let got = y.as_slice();
                if let Some(i) = (0..want.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                    panic!(
                        "case {ci} {g:?} oc={oc} batch={batch} threads={threads}: element {i} \
                         is {} (bits {:#x}), unfused {} (bits {:#x})",
                        got[i],
                        got[i].to_bits(),
                        want[i],
                        want[i].to_bits()
                    );
                }
            }
        }
    }
}

#[test]
fn fused_conv_backward_equals_lowered_pipeline_bitwise() {
    for (ci, &(channels, in_h, in_w, kernel, stride, oc, batches)) in CASES.iter().enumerate() {
        let g = Conv2dGeometry::new(channels, in_h, in_w, kernel, kernel, stride).unwrap();
        let salt = ci as u32 * 100 + 50;
        let w = pseudo(&[oc, g.col_rows()], salt + 1, true);
        for &batch in batches {
            let signed = pseudo(&[batch, channels, in_h, in_w], salt + 3, true);
            // Non-negative inputs, like a convolution after ReLU: with the
            // all-`-0.0` channel, every product of a weight-gradient sum
            // is a signed zero.
            let relu = signed.map(f32::abs);
            let dy = signed_zero_grad(&[batch, oc, g.out_h, g.out_w], salt + 4);
            for (input, x) in [("signed", &signed), ("non-negative", &relu)] {
                let (want_x, want_w, want_b) = unfused_backward(x, &w, &dy, &g);
                for threads in [1, 2, 3] {
                    let (gx, gw, gb) =
                        stone_par::with_threads(threads, || conv2d_backward(x, &w, &dy, &g));
                    assert_eq!(gx.shape(), x.shape());
                    assert_eq!(gw.shape(), w.shape());
                    assert_eq!(gb.shape(), &[oc]);
                    for (name, got, want) in [
                        ("grad_x", gx.as_slice(), &want_x),
                        ("grad_w", gw.as_slice(), &want_w),
                        ("grad_b", gb.as_slice(), &want_b),
                    ] {
                        if let Some(i) = first_bit_difference(got, want) {
                            panic!(
                                "case {ci} {g:?} oc={oc} batch={batch} {input} input, \
                                 threads={threads}: {name}[{i}] is {} (bits {:#x}), \
                                 lowered {} (bits {:#x})",
                                got[i],
                                got[i].to_bits(),
                                want[i],
                                want[i].to_bits()
                            );
                        }
                    }
                }
            }
        }
    }
}
