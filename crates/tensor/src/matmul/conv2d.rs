//! The fused convolution products: the forward `W · im2col(x) + bias` and
//! its three gradients, from NCHW batches straight into NCHW results.
//!
//! [`conv2d`] runs the register-tiled pipeline of the matmul dispatchers
//! with the convolution's lowering folded into the packing step:
//!
//! 1. **Pack**: each sample's input windows are gathered directly into the
//!    microkernel's [`LANES`]-wide B panels ([`pack_windows`]) — no
//!    `im2col` column matrix, no second pass to pack it. The weight is
//!    packed into [`TILE_ROWS`]-row A tiles once per worker.
//! 2. **Tile**: the same [`microkernel::tile`] as [`super::matmul`], on
//!    the backend [`microkernel::active_backend`] picks.
//! 3. **Store**: each live tile lane plus its channel's bias goes straight
//!    into the sample's NCHW output plane — no `[OC, batch · plane]`
//!    intermediate to scatter.
//!
//! Every output element is one accumulator lane, summed from zero over the
//! inner index `c·kh·kw + ki·kw + kj` in increasing order, with the bias
//! added once after the sum. That is exactly what `im2col` followed by
//! [`super::matmul`] and a bias pass computes, so the two are bitwise
//! equal on the same backend.
//!
//! A batch is split across threads by sample; a single sample is split by
//! output channel, like the row split of [`super::matmul`]. Neither split
//! touches any element's accumulation, so the result is bitwise identical
//! at any thread count.
//!
//! [`conv2d_backward`] fuses the backward pass the same way:
//!
//! * **Weight gradient**, computed as its transpose `dWᵀ = windows ·
//!   gradᵀ` and split over kernel taps: each worker packs its A tiles
//!   straight from the input windows ([`pack_window_taps`], 8 taps per
//!   tile, one step per (sample, position)) against output-channel B
//!   panels packed once from `grad_out`.
//! * **Input gradient**, split by sample: each worker packs `Wᵀ` into A
//!   tiles once, then per sample packs the `grad_out` plane into B panels,
//!   stores the tiles into a `[taps, plane]` buffer and scatters it with
//!   [`crate::col2im`].
//! * **Bias gradient**: each channel's `grad_out`, summed over samples,
//!   then positions.
//!
//! Each gradient element is summed over the same products in the same
//! order as the unfused pipeline — the whole batch lowered by `im2col`,
//! `matmul_a_bt` for the weight, `matmul_at_b` then `col2im` per sample
//! for the input — so the two are bitwise equal at any thread count and on
//! either backend, without the column matrix, the gathered gradient or
//! the whole-batch `dcols` matrix.

use std::sync::OnceLock;

use stone_obs::prof::{maybe_start, KernelProf};

use super::microkernel::{self, MatmulBackend, LANES, TILE_ROWS};
use super::{dispatch, pack, prof_record, tiled_block, worth_threads};
use crate::{col2im, Conv2dGeometry, Tensor};

static CONV2D_PROF: OnceLock<KernelProf> = OnceLock::new();
static CONV2D_BACKWARD_PROF: OnceLock<KernelProf> = OnceLock::new();

/// Valid (unpadded) 2-D convolution of an NCHW batch `x` with a
/// `[out_channels, channels · kh · kw]` weight and one bias per output
/// channel, returning `[batch, out_channels, out_h, out_w]`.
///
/// The weight's column order is the row order of [`crate::im2col`]
/// (`c · kh · kw + ki · kw + kj`). The result is bitwise equal to lowering
/// each sample with [`crate::im2col`], multiplying with
/// [`crate::matmul`] and adding the bias, at any thread count and on
/// either bit-equal microkernel backend — but builds no column matrix.
///
/// # Panics
///
/// Panics when `x` is not `[batch, channels, in_h, in_w]` for the
/// geometry, the weight has the wrong inner dimension, or `bias` does not
/// have one entry per weight row.
///
/// # Example
///
/// ```
/// use stone_tensor::{conv2d, Conv2dGeometry, Tensor};
///
/// let g = Conv2dGeometry::new(1, 3, 3, 2, 2, 1)?;
/// let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect())?;
/// // One filter summing each window's main diagonal, plus a bias of 0.5.
/// let w = Tensor::from_vec(vec![1, 4], vec![1., 0., 0., 1.])?;
/// let y = conv2d(&x, &w, &[0.5], &g);
/// assert_eq!(y.shape(), &[1, 1, 2, 2]);
/// assert_eq!(y.as_slice(), &[6.5, 8.5, 12.5, 14.5]);
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[must_use]
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: &[f32], g: &Conv2dGeometry) -> Tensor {
    let batch = check_input(x, weight, g);
    let (oc, steps) = (weight.rows(), weight.cols());
    assert_eq!(bias.len(), oc, "conv2d bias must have one entry per output channel");
    let plane = g.col_cols();
    let mut y = Tensor::zeros(vec![batch, oc, g.out_h, g.out_w]);
    if y.is_empty() {
        return y;
    }
    let prof = maybe_start();
    let macs = batch * oc * steps * plane;
    let backend = microkernel::active_backend();
    let wd = weight.as_slice();
    let xd = x.as_slice();
    if batch == 1 {
        // One sample: pack its windows once, split the output channels.
        let mut panels = vec![0.0; panels_len(g)];
        pack_windows(xd, g, &mut panels);
        dispatch(y.as_mut_slice(), plane, worth_threads(macs), |r0, out| {
            let rows = out.len() / plane;
            let tiles = pack_tiles(rows, steps, |t0, width, tile| {
                pack::pack_width_major(wd, steps, r0 + t0, width, tile);
            });
            store_tiles(&tiles, &panels, Some(&bias[r0..r0 + rows]), out, rows, steps, backend);
        });
    } else {
        // A batch: split the samples; each worker packs the weight once and
        // every sample's windows into one reused panel buffer.
        let sample_len = xd.len() / batch;
        dispatch(y.as_mut_slice(), oc * plane, worth_threads(macs), |n0, block| {
            let tiles = pack_tiles(oc, steps, |r0, width, tile| {
                pack::pack_width_major(wd, steps, r0, width, tile);
            });
            let mut panels = vec![0.0; panels_len(g)];
            for (i, out) in block.chunks_exact_mut(oc * plane).enumerate() {
                pack_windows(&xd[(n0 + i) * sample_len..][..sample_len], g, &mut panels);
                store_tiles(&tiles, &panels, Some(bias), out, oc, steps, backend);
            }
        });
    }
    prof_record(&CONV2D_PROF, "conv2d", prof, macs);
    y
}

/// The gradients of [`conv2d`]: given its input `x`, its weight and the
/// loss gradient `grad_out` of its output, returns `(grad_x, grad_w,
/// grad_b)`, shaped like `x`, the weight and the bias.
///
/// Each gradient is bitwise equal to the unfused pipeline: the batch
/// lowered into one `[channels · kh · kw, batch · out_h · out_w]` matrix
/// by per-sample [`crate::im2col`], `grad_w` as [`crate::matmul_a_bt`] of
/// the gathered `[out_channels, batch · out_h · out_w]` gradient and that
/// matrix, `grad_b` as the gathered rows' `.sum()`, and `grad_x` as
/// [`crate::col2im`] of each sample's columns of [`crate::matmul_at_b`]
/// of the weight and the gathered gradient. That holds at any thread count
/// and on either microkernel backend; no such matrix is built.
///
/// # Panics
///
/// Panics when `x` is not `[batch, channels, in_h, in_w]` for the
/// geometry, the weight has the wrong inner dimension, or `grad_out` is
/// not `[batch, out_channels, out_h, out_w]`.
///
/// # Example
///
/// ```
/// use stone_tensor::{conv2d_backward, Conv2dGeometry, Tensor};
///
/// let g = Conv2dGeometry::new(1, 3, 3, 2, 2, 1)?;
/// let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect())?;
/// let w = Tensor::from_vec(vec![1, 4], vec![1., 0., 0., 1.])?;
/// // A unit gradient at the top-left output only.
/// let dy = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 0., 0., 0.])?;
/// let (dx, dw, db) = conv2d_backward(&x, &w, &dy, &g);
/// assert_eq!(dx.as_slice(), &[1., 0., 0., 0., 1., 0., 0., 0., 0.]);
/// assert_eq!(dw.as_slice(), &[1., 2., 4., 5.]); // the top-left window
/// assert_eq!(db.as_slice(), &[1.]);
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[must_use]
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    g: &Conv2dGeometry,
) -> (Tensor, Tensor, Tensor) {
    let batch = check_input(x, weight, g);
    let oc = weight.rows();
    assert_eq!(
        grad_out.shape(),
        &[batch, oc, g.out_h, g.out_w],
        "conv2d_backward gradient must be [batch, out_channels, out_h, out_w]"
    );
    let prof = maybe_start();
    let macs = batch * oc * g.col_rows() * g.col_cols();
    let backend = microkernel::active_backend();
    let (xd, wd, gd) = (x.as_slice(), weight.as_slice(), grad_out.as_slice());
    let grad_x = input_gradient(wd, gd, g, batch, oc, backend);
    let grad_w = weight_gradient(xd, gd, g, batch, oc, backend);
    // Each channel's `grad_out`, summed over samples, then positions.
    let plane = g.col_cols();
    let grad_b = Tensor::from_fn(vec![oc], |o| {
        (0..batch).flat_map(|n| &gd[(n * oc + o) * plane..][..plane]).sum()
    });
    prof_record(&CONV2D_BACKWARD_PROF, "conv2d_backward", prof, 2 * macs);
    (grad_x, grad_w, grad_b)
}

/// Checks `x` and the weight against the geometry; returns the batch size.
fn check_input(x: &Tensor, weight: &Tensor, g: &Conv2dGeometry) -> usize {
    let batch = x.shape().first().copied().unwrap_or(0);
    assert_eq!(
        x.shape(),
        &[batch, g.channels, g.in_h, g.in_w],
        "conv2d input must be [batch, channels, in_h, in_w] for the geometry"
    );
    assert_eq!(
        weight.cols(),
        g.col_rows(),
        "conv2d weight must be [out_channels, channels · kh · kw]"
    );
    batch
}

/// `dWᵀ = windows · gradᵀ`, split over kernel taps (rows of `dWᵀ`), then
/// transposed into the weight's `[out_channels, taps]` layout. Element
/// `(o, s)` sums `grad_out[n][o][p] · window_s[n][p]` over `(n, p)` in
/// increasing order from `+0.0`, as `matmul_a_bt` of the lowered batch
/// does.
fn weight_gradient(
    xd: &[f32],
    gd: &[f32],
    g: &Conv2dGeometry,
    batch: usize,
    oc: usize,
    backend: MatmulBackend,
) -> Tensor {
    let (taps, plane) = (g.col_rows(), g.col_cols());
    if batch == 0 {
        return Tensor::zeros(vec![oc, taps]); // an empty sum: all zeros
    }
    let inner = batch * plane;
    // Panel `jp` holds output channels `jp · LANES ..`, one step per
    // (sample, position): each sample's `[oc, plane]` block, transposed.
    let gpanels = pack::PackedPanels::build(inner, oc, |o0, width, panel| {
        for (n, steps) in panel.chunks_exact_mut(plane * LANES).enumerate() {
            pack::pack_width_major(&gd[n * oc * plane..][..oc * plane], plane, o0, width, steps);
        }
    });
    let mut grad_wt = Tensor::zeros(vec![taps, oc]);
    dispatch(grad_wt.as_mut_slice(), oc, worth_threads(inner * taps * oc), |s0, block| {
        tiled_block(block, oc, s0, inner, &gpanels, backend, |s, width, buf| {
            pack_window_taps(xd, g, s, width, buf);
        });
    });
    grad_wt.transposed()
}

/// `grad_x`, split by sample: per sample, `dcols = Wᵀ · grad_out[n]` into a
/// `[taps, plane]` buffer (each element summed over output channels in
/// increasing order from `+0.0`, as `matmul_at_b` does), then
/// [`col2im`] into the sample's gradient.
fn input_gradient(
    wd: &[f32],
    gd: &[f32],
    g: &Conv2dGeometry,
    batch: usize,
    oc: usize,
    backend: MatmulBackend,
) -> Tensor {
    let (taps, plane) = (g.col_rows(), g.col_cols());
    let sample_len = g.channels * g.in_h * g.in_w;
    let mut grad_x = Tensor::zeros(vec![batch, g.channels, g.in_h, g.in_w]);
    if oc == 0 {
        return grad_x; // an empty sum over output channels: all zeros
    }
    let macs = batch * oc * taps * plane;
    dispatch(grad_x.as_mut_slice(), sample_len, worth_threads(macs), |n0, block| {
        // Wᵀ tiles: tile `t` holds taps `t · TILE_ROWS ..`, one step per
        // output channel.
        let tiles = pack_tiles(taps, oc, |s0, width, tile| {
            pack::pack_step_major(wd, taps, s0, width, tile);
        });
        let mut panels = vec![0.0; plane.div_ceil(LANES) * oc * LANES];
        let mut dcols = Tensor::zeros(vec![taps, plane]);
        for (i, gx) in block.chunks_exact_mut(sample_len).enumerate() {
            let grad = &gd[(n0 + i) * oc * plane..][..oc * plane];
            for (jp, panel) in panels.chunks_exact_mut(oc * LANES).enumerate() {
                let p0 = jp * LANES;
                pack::pack_step_major(grad, plane, p0, (plane - p0).min(LANES), panel);
            }
            store_tiles(&tiles, &panels, None, dcols.as_mut_slice(), taps, oc, backend);
            col2im(&dcols, g, gx);
        }
    });
    grad_x
}

/// Length of one sample's packed B panels: one [`LANES`]-wide panel per
/// started group of output positions, `col_rows` steps each.
fn panels_len(g: &Conv2dGeometry) -> usize {
    g.col_cols().div_ceil(LANES) * g.col_rows() * LANES
}

/// Packs `rows` output rows into consecutive A tiles of `inner` steps and
/// [`TILE_ROWS`] rows (the last one zero-padded); `pack(r0, width, tile)`
/// fills the tile of rows `r0 .. r0 + width`.
fn pack_tiles(rows: usize, inner: usize, pack: impl Fn(usize, usize, &mut [f32])) -> Vec<f32> {
    let mut tiles = vec![0.0; rows.div_ceil(TILE_ROWS) * inner * TILE_ROWS];
    for (t, tile) in tiles.chunks_exact_mut(inner * TILE_ROWS).enumerate() {
        let r0 = t * TILE_ROWS;
        pack(r0, (rows - r0).min(TILE_ROWS), tile);
    }
    tiles
}

/// Packs one CHW sample's convolution windows into B panels: panel `jp`
/// covers output positions `jp · LANES ..` of the plane, and its step
/// `c · kh · kw + ki · kw + kj` holds those positions' input taps
/// `x[c][oh · stride + ki][ow · stride + kj]`. This is the panel a
/// `pack_step_major` of the sample's `im2col` matrix would give, with
/// lanes past the plane zero-padded.
fn pack_windows(sample: &[f32], g: &Conv2dGeometry, dst: &mut [f32]) {
    let plane = g.col_cols();
    for (jp, panel) in dst.chunks_exact_mut(g.col_rows() * LANES).enumerate() {
        let p0 = jp * LANES;
        let live = (plane - p0).min(LANES);
        // Offset of each live lane's window origin within a channel.
        let mut origin = [0usize; LANES];
        for (l, o) in origin.iter_mut().enumerate().take(live) {
            let (oh, ow) = ((p0 + l) / g.out_w, (p0 + l) % g.out_w);
            *o = oh * g.stride * g.in_w + ow * g.stride;
        }
        let mut lanes = panel.chunks_exact_mut(LANES);
        for chan in sample.chunks_exact(g.in_h * g.in_w) {
            for ki in 0..g.kernel_h {
                for kj in 0..g.kernel_w {
                    let lane = lanes.next().expect("one panel step per kernel tap");
                    let tap = &chan[ki * g.in_w + kj..];
                    for (v, &o) in lane.iter_mut().zip(&origin[..live]) {
                        *v = tap[o];
                    }
                    lane[live..].fill(0.0);
                }
            }
        }
    }
}

/// Packs the A tile of kernel taps `s0 .. s0 + width` for the weight
/// gradient: step `n · plane + p` holds, in lane `w`, tap `s0 + w` of
/// sample `n`'s window at output position `p` — rows `s0 ..` of the
/// lowered batch, transposed. Lanes past `width` are zero.
fn pack_window_taps(xd: &[f32], g: &Conv2dGeometry, s0: usize, width: usize, dst: &mut [f32]) {
    let (kk, chan_len) = (g.kernel_h * g.kernel_w, g.in_h * g.in_w);
    let sample_len = g.channels * chan_len;
    if width < TILE_ROWS {
        dst.fill(0.0);
    }
    for w in 0..width {
        let s = s0 + w;
        let (c, ki, kj) = (s / kk, s % kk / g.kernel_w, s % g.kernel_w);
        let mut lane = dst[w..].iter_mut().step_by(TILE_ROWS);
        for sample in xd.chunks_exact(sample_len) {
            let tap = &sample[c * chan_len + ki * g.in_w + kj..];
            for oh in 0..g.out_h {
                let row = &tap[oh * g.stride * g.in_w..];
                for ow in 0..g.out_w {
                    *lane.next().expect("one step per (sample, position)") = row[ow * g.stride];
                }
            }
        }
    }
}

/// The tile loop over one sample: `tiles` holds `rows` output rows as A
/// tiles and `panels` the sample's B panels, both `inner` steps deep, and
/// `out` is the sample's `[rows, plane]` result. Each live accumulator
/// lane is stored plus its row's bias, or as it is without one.
fn store_tiles(
    tiles: &[f32],
    panels: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    rows: usize,
    inner: usize,
    backend: MatmulBackend,
) {
    let plane = out.len() / rows;
    for (t, apack) in tiles.chunks_exact(inner * TILE_ROWS).enumerate() {
        let t0 = t * TILE_ROWS;
        let mr = (rows - t0).min(TILE_ROWS);
        for (jp, bpanel) in panels.chunks_exact(inner * LANES).enumerate() {
            let j0 = jp * LANES;
            let nr = (plane - j0).min(LANES);
            let acc = microkernel::tile(apack, bpanel, backend);
            for (r, accrow) in acc.iter().enumerate().take(mr) {
                let dst = &mut out[(t0 + r) * plane + j0..][..nr];
                match bias {
                    Some(bias) => {
                        let b = bias[t0 + r];
                        for (d, &a) in dst.iter_mut().zip(&accrow[..nr]) {
                            *d = a + b;
                        }
                    }
                    None => dst.copy_from_slice(&accrow[..nr]),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col;

    /// Deterministic pseudo-random data with exact zeros and negatives
    /// (the bitwise product test is `tests/fused_conv.rs`).
    fn pseudo(shape: &[usize], salt: u32) -> Tensor {
        Tensor::from_fn(shape.to_vec(), |i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            if h.is_multiple_of(7) {
                0.0
            } else {
                (h % 2003) as f32 / 1001.5 - 1.0
            }
        })
    }

    #[test]
    fn windows_pack_matches_im2col_panels() {
        // 7×5 input, 2×3 kernel, stride 2: a 3×2 plane, one ragged panel.
        let g = Conv2dGeometry::new(3, 7, 5, 2, 3, 2).unwrap();
        let x = pseudo(&[g.channels * g.in_h * g.in_w], 1);
        let mut panels = vec![f32::NAN; panels_len(&g)];
        pack_windows(x.as_slice(), &g, &mut panels);
        let cols = im2col(x.as_slice(), &g);
        let (steps, plane) = (g.col_rows(), g.col_cols());
        for (jp, panel) in panels.chunks_exact(steps * LANES).enumerate() {
            let mut want = vec![f32::NAN; steps * LANES];
            let c0 = jp * LANES;
            pack::pack_step_major(cols.as_slice(), plane, c0, (plane - c0).min(LANES), &mut want);
            assert_eq!(panel, want.as_slice(), "panel {jp}");
        }
    }

    #[test]
    fn empty_batch_and_channels_yield_empty_outputs() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 2, 1).unwrap();
        let w = Tensor::zeros(vec![2, 4]);
        assert_eq!(
            conv2d(&Tensor::zeros(vec![0, 1, 3, 3]), &w, &[0.0; 2], &g).shape(),
            &[0, 2, 2, 2]
        );
        let w = Tensor::zeros(vec![0, 4]);
        assert_eq!(conv2d(&Tensor::zeros(vec![1, 1, 3, 3]), &w, &[], &g).shape(), &[1, 0, 2, 2]);
    }

    #[test]
    fn empty_batch_and_channels_yield_zero_gradients() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 2, 1).unwrap();
        let shapes = |(dx, dw, db): (Tensor, Tensor, Tensor)| {
            assert!(dx.as_slice().iter().chain(dw.as_slice()).all(|&v| v == 0.0));
            [dx.shape().to_vec(), dw.shape().to_vec(), db.shape().to_vec()]
        };
        let (x, w) = (Tensor::zeros(vec![0, 1, 3, 3]), Tensor::ones(vec![2, 4]));
        let dy = Tensor::zeros(vec![0, 2, 2, 2]);
        assert_eq!(
            shapes(conv2d_backward(&x, &w, &dy, &g)),
            [vec![0, 1, 3, 3], vec![2, 4], vec![2]]
        );
        let (x, w) = (Tensor::ones(vec![1, 1, 3, 3]), Tensor::zeros(vec![0, 4]));
        let dy = Tensor::zeros(vec![1, 0, 2, 2]);
        assert_eq!(
            shapes(conv2d_backward(&x, &w, &dy, &g)),
            [vec![1, 1, 3, 3], vec![0, 4], vec![0]]
        );
    }
}
