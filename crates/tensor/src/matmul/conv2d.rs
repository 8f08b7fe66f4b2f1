//! The fused convolution product: `W · im2col(x) + bias`, from an NCHW
//! batch straight into an NCHW output.
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

use std::sync::OnceLock;

use stone_obs::prof::{maybe_start, KernelProf};

use super::microkernel::{self, MatmulBackend, LANES, TILE_ROWS};
use super::{dispatch, pack, prof_record, worth_threads};
use crate::{Conv2dGeometry, Tensor};

static CONV2D_PROF: OnceLock<KernelProf> = OnceLock::new();

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
    let batch = x.shape().first().copied().unwrap_or(0);
    assert_eq!(
        x.shape(),
        &[batch, g.channels, g.in_h, g.in_w],
        "conv2d input must be [batch, channels, in_h, in_w] for the geometry"
    );
    let (oc, steps) = (weight.rows(), weight.cols());
    assert_eq!(steps, g.col_rows(), "conv2d weight must be [out_channels, channels · kh · kw]");
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
            let tiles = pack_weight(wd, steps, r0, rows);
            store_tiles(&tiles, &panels, &bias[r0..r0 + rows], out, steps, backend);
        });
    } else {
        // A batch: split the samples; each worker packs the weight once and
        // every sample's windows into one reused panel buffer.
        let sample_len = xd.len() / batch;
        dispatch(y.as_mut_slice(), oc * plane, worth_threads(macs), |n0, block| {
            let tiles = pack_weight(wd, steps, 0, oc);
            let mut panels = vec![0.0; panels_len(g)];
            for (i, out) in block.chunks_exact_mut(oc * plane).enumerate() {
                pack_windows(&xd[(n0 + i) * sample_len..][..sample_len], g, &mut panels);
                store_tiles(&tiles, &panels, bias, out, steps, backend);
            }
        });
    }
    prof_record(&CONV2D_PROF, "conv2d", prof, macs);
    y
}

/// Length of one sample's packed B panels: one [`LANES`]-wide panel per
/// started group of output positions, `col_rows` steps each.
fn panels_len(g: &Conv2dGeometry) -> usize {
    g.col_cols().div_ceil(LANES) * g.col_rows() * LANES
}

/// Packs rows `[r0, r0 + rows)` of a `[_, steps]` weight into consecutive
/// A tiles of [`TILE_ROWS`] rows (the last one zero-padded).
fn pack_weight(w: &[f32], steps: usize, r0: usize, rows: usize) -> Vec<f32> {
    let mut tiles = vec![0.0; rows.div_ceil(TILE_ROWS) * steps * TILE_ROWS];
    for (t, tile) in tiles.chunks_exact_mut(steps * TILE_ROWS).enumerate() {
        let t0 = t * TILE_ROWS;
        pack::pack_width_major(w, steps, r0 + t0, (rows - t0).min(TILE_ROWS), tile);
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

/// The tile loop over one sample's output rows: `out` holds `bias.len()`
/// rows of the plane, `tiles` their A tiles and `panels` the sample's B
/// panels. Each live accumulator lane is stored plus its row's bias.
fn store_tiles(
    tiles: &[f32],
    panels: &[f32],
    bias: &[f32],
    out: &mut [f32],
    steps: usize,
    backend: MatmulBackend,
) {
    let plane = out.len() / bias.len();
    for (t, apack) in tiles.chunks_exact(steps * TILE_ROWS).enumerate() {
        let t0 = t * TILE_ROWS;
        let mr = (bias.len() - t0).min(TILE_ROWS);
        for (jp, bpanel) in panels.chunks_exact(steps * LANES).enumerate() {
            let j0 = jp * LANES;
            let nr = (plane - j0).min(LANES);
            let acc = microkernel::tile(apack, bpanel, backend);
            for (r, accrow) in acc.iter().enumerate().take(mr) {
                let b = bias[t0 + r];
                let dst = &mut out[(t0 + r) * plane + j0..][..nr];
                for (d, &a) in dst.iter_mut().zip(&accrow[..nr]) {
                    *d = a + b;
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
}
