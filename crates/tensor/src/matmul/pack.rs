//! Panel packing for the register-tiled matmul kernels.
//!
//! The microkernel (see [`super::microkernel`]) consumes two packed
//! operands per inner step `t`:
//!
//! * an **A-side tile** of [`TILE_ROWS`] values — one per output row of the
//!   register tile: `apack[t * TILE_ROWS + r]`;
//! * a **B-side panel** of [`LANES`] values — one per output column of the
//!   register tile: `bpanel[t * LANES + l]`.
//!
//! Packing turns every source layout the three matmul variants need —
//! row-major rows, row-major columns, and transposed rows — into those two
//! contiguous streams, so the microkernel's inner loop never issues a
//! strided load. Ragged edges (a tile or panel that sticks out past the
//! matrix) are zero-padded: the padded lanes accumulate `a · 0` products
//! that the store step discards, which keeps the inner loop branch-free.
//!
//! Only two primitives are needed. Reading `width` *consecutive* values per
//! step is [`pack_step_major`]; reading one value from each of `width`
//! consecutive *rows* is [`pack_width_major`] (a fused transpose). Each
//! matmul variant is some combination of the two:
//!
//! | product | A-side pack | B-side pack |
//! | --- | --- | --- |
//! | `A · B` | `pack_width_major` (tile rows of `A`) | `pack_step_major` (panel columns of `B`) |
//! | `Aᵀ · B` | `pack_step_major` (tile columns of `A`) | `pack_step_major` (panel columns of `B`) |
//! | `A · Bᵀ` | `pack_width_major` (tile rows of `A`) | `pack_width_major` (panel rows of `B`) |
//!
//! A whole B operand ([`PackedPanels`]) is packed across the worker pool,
//! one panel per task, once it holds [`super::PAR_MIN_MACS`] elements —
//! the dense layer's 8192 × 100 weight, for one.

use super::microkernel::LANES;

// The two pack widths coincide (`TILE_ROWS == LANES == 8`), so both
// primitives pack to a fixed width of `LANES` and serve either side.

/// Packs `width` **consecutive values per inner step**: for every step `t`
/// (one per `ld`-element row of `src`), copies
/// `src[t * ld + c0 .. t * ld + c0 + width]` to `dst[t * LANES ..]`,
/// zero-filling lanes `width..LANES`.
///
/// The number of steps is `dst.len() / LANES`.
///
/// # Panics
///
/// Panics (via slice indexing) when `src` is shorter than the last read or
/// `dst.len()` is not a multiple of [`LANES`].
pub fn pack_step_major(src: &[f32], ld: usize, c0: usize, width: usize, dst: &mut [f32]) {
    debug_assert!(width <= LANES);
    assert_eq!(dst.len() % LANES, 0, "packed panel length must be a whole number of lane groups");
    for (t, lane) in dst.chunks_exact_mut(LANES).enumerate() {
        let row = &src[t * ld + c0..t * ld + c0 + width];
        lane[..width].copy_from_slice(row);
        lane[width..].fill(0.0);
    }
}

/// Packs **one value per step from each of `width` consecutive rows** (a
/// fused transpose): for every step `t`, lane `w` of `dst[t * LANES ..]` is
/// `src[(r0 + w) * ld + t]`, zero-filling lanes `width..LANES`.
///
/// The number of steps is `dst.len() / LANES`.
///
/// # Panics
///
/// Panics (via slice indexing) when `src` is shorter than the last read or
/// `dst.len()` is not a multiple of [`LANES`].
pub fn pack_width_major(src: &[f32], ld: usize, r0: usize, width: usize, dst: &mut [f32]) {
    debug_assert!(width <= LANES);
    assert_eq!(dst.len() % LANES, 0, "packed panel length must be a whole number of lane groups");
    let steps = dst.len() / LANES;
    dst.fill(0.0);
    for w in 0..width {
        let row = &src[(r0 + w) * ld..(r0 + w) * ld + steps];
        for (t, &v) in row.iter().enumerate() {
            dst[t * LANES + w] = v;
        }
    }
}

/// A whole B operand packed into [`LANES`]-column panels, shared read-only
/// across the worker threads of one dispatch.
///
/// Panel `jp` covers output columns `jp * LANES ..` and stores `steps`
/// packed steps contiguously, so the microkernel walks it linearly.
pub struct PackedPanels {
    data: Vec<f32>,
    steps: usize,
}

impl PackedPanels {
    /// Packs `n` output columns of `steps` steps each: `fill(c0, width,
    /// panel)` packs columns `c0 .. c0 + width` into one zero-padded panel.
    ///
    /// An operand of at least [`super::PAR_MIN_MACS`] elements (`steps ·
    /// n`) is packed across the worker pool, panel by panel. Each panel is
    /// filled by one worker from the same source values, so the packing
    /// is identical at any thread count.
    #[must_use]
    pub fn build(steps: usize, n: usize, fill: impl Fn(usize, usize, &mut [f32]) + Sync) -> Self {
        let mut data = vec![0.0; n.div_ceil(LANES) * steps * LANES];
        let len = steps * LANES;
        super::dispatch(&mut data, len, super::worth_threads(steps * n), |jp0, block| {
            for (i, panel) in block.chunks_exact_mut(len).enumerate() {
                let c0 = (jp0 + i) * LANES;
                fill(c0, LANES.min(n - c0), panel);
            }
        });
        Self { data, steps }
    }

    /// Packs a `[steps, n]` row-major operand column-panel by column-panel
    /// (the B side of `A · B` and `Aᵀ · B`).
    #[must_use]
    pub fn from_rows(src: &[f32], steps: usize, n: usize) -> Self {
        Self::build(steps, n, |c0, width, panel| pack_step_major(src, n, c0, width, panel))
    }

    /// Packs an `[n, steps]` row-major operand whose *rows* are output
    /// columns (the B side of `A · Bᵀ`), transposing as it packs.
    #[must_use]
    pub fn from_transposed_rows(src: &[f32], steps: usize, n: usize) -> Self {
        Self::build(steps, n, |r0, width, panel| pack_width_major(src, steps, r0, width, panel))
    }

    /// The packed panel covering output columns `jp * LANES ..`.
    #[must_use]
    pub fn panel(&self, jp: usize) -> &[f32] {
        &self.data[jp * self.steps * LANES..(jp + 1) * self.steps * LANES]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_major_copies_rows_and_pads() {
        // src is 3 rows × 4 cols; pack columns 1..4 (width 3).
        let src: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let mut dst = vec![f32::NAN; 3 * LANES];
        pack_step_major(&src, 4, 1, 3, &mut dst);
        assert_eq!(&dst[..4], &[1.0, 2.0, 3.0, 0.0]);
        assert_eq!(&dst[LANES..LANES + 4], &[5.0, 6.0, 7.0, 0.0]);
        assert!(dst.iter().skip(3).step_by(LANES).all(|&v| v == 0.0), "pad lanes must be zero");
    }

    #[test]
    fn width_major_transposes_and_pads() {
        // src is 3 rows × 4 cols; pack rows 1..3 (width 2), 4 steps.
        let src: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let mut dst = vec![f32::NAN; 4 * LANES];
        pack_width_major(&src, 4, 1, 2, &mut dst);
        // Step t holds src[1][t], src[2][t], then zeros.
        for t in 0..4 {
            assert_eq!(dst[t * LANES], (4 + t) as f32);
            assert_eq!(dst[t * LANES + 1], (8 + t) as f32);
            assert!(dst[t * LANES + 2..(t + 1) * LANES].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn packed_panels_cover_ragged_widths() {
        // 2 steps × 11 columns → two panels, second ragged (3 live lanes).
        let src: Vec<f32> = (0..22).map(|v| v as f32).collect();
        let p = PackedPanels::from_rows(&src, 2, 11);
        assert_eq!(p.panel(0)[..8], src[..8]);
        assert_eq!(&p.panel(1)[..3], &src[8..11]);
        assert!(p.panel(1)[3..8].iter().all(|&v| v == 0.0));
        // Second step of the ragged panel.
        assert_eq!(&p.panel(1)[8..11], &src[19..22]);
    }

    #[test]
    fn transposed_panels_match_explicit_transpose() {
        // src is 5 rows × 3 steps; panel 0 step t = column t of rows 0..5.
        let src: Vec<f32> = (0..15).map(|v| v as f32).collect();
        let p = PackedPanels::from_transposed_rows(&src, 3, 5);
        for t in 0..3 {
            for w in 0..5 {
                assert_eq!(p.panel(0)[t * LANES + w], src[w * 3 + t], "step {t} lane {w}");
            }
        }
    }
}
