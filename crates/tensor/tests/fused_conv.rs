//! The fused convolution product against its unfused definition.
//!
//! `stone_tensor::conv2d` packs input windows straight into the matmul
//! microkernel's panels and stores each tile plus its bias straight into
//! NCHW. It must equal the unfused pipeline — `im2col` per sample, the
//! scalar reference product, then the bias — **bit for bit**, at any
//! thread count. The portable backend is pinned: the reference never
//! contracts a multiply-add, so only the mul+add backends are bit-equal
//! to it.

use stone_tensor::{
    conv2d, im2col, matmul_scalar, with_backend, Conv2dGeometry, MatmulBackend, Tensor,
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
                let y = stone_par::with_threads(threads, || {
                    with_backend(MatmulBackend::Portable, || conv2d(&x, &w, &bias, &g))
                });
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
