//! Dense matrix products.
//!
//! Three variants cover every product the backpropagation code needs without
//! ever materializing an explicit transpose:
//!
//! * [`matmul`]      — `C = A · B`
//! * [`matmul_at_b`] — `C = Aᵀ · B` (used for input gradients)
//! * [`matmul_a_bt`] — `C = A · Bᵀ` (used for weight gradients)
//!
//! A fourth, [`conv2d`], is the convolution forward product with its
//! `im2col` lowering fused into the packing step (see [`conv2d`]'s module).
//!
//! # Execution model
//!
//! All of them run the same register-tiled pipeline:
//!
//! 1. **Pack** ([`pack`]): the B operand is repacked once per call into
//!    [`microkernel::LANES`]-column panels; each worker repacks the A rows
//!    of its current tile. Packing fuses any transpose the variant needs,
//!    so the kernel's inner loop sees two contiguous streams regardless of
//!    the source layout.
//! 2. **Tile** ([`microkernel`]): an 8-row × 8-lane register tile
//!    accumulates into a fixed array of lane accumulators across the whole
//!    inner dimension — broadcast, multiply, add; no strided loads, no
//!    per-element branches, no horizontal reductions. A portable kernel
//!    and an AVX2 kernel ([`simd`], selected by runtime CPU detection,
//!    disabled by `STONE_NO_SIMD=1`) execute the identical lane arithmetic
//!    and are bit-equal by construction.
//! 3. **Store**: live tile lanes are copied into the output; zero-padded
//!    ragged-edge lanes are discarded.
//!
//! A dispatcher either runs the tile loop once (small products) or
//! partitions the output rows across threads with [`stone_par::par_chunks`]
//! (products above [`PAR_MIN_MACS`] multiply-accumulates). Outputs
//! narrower than one tile (fewer than [`TILE_MIN_ROWS`] rows — e.g. the
//! single-scan encoder forward pass, `m = 1`) skip packing entirely and
//! run a streaming row-wise kernel in the same accumulation order.
//!
//! # Canonical accumulation order
//!
//! Every output element is owned by exactly one accumulator lane, updated
//! at every inner-dimension step in strictly increasing order — the same
//! order as a naive triple loop. Tiling groups *which elements* are
//! computed together; it never changes any element's own sum. The result
//! is therefore **bitwise identical** across the serial path, every
//! parallel row split (any `STONE_THREADS`), both microkernel backends,
//! and the naive reference — the contract `tests/parallel_determinism.rs`
//! and the property tests pin.
//!
//! The scalar blocked kernels this pipeline replaced are kept in
//! [`reference`] as the bench baseline and test oracle.

mod conv2d;
mod microkernel;
mod pack;
mod reference;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use conv2d::conv2d;
pub use microkernel::{
    configured_backend, fma_available, simd_available, with_backend, MatmulBackend,
};
pub use reference::{matmul_a_bt_scalar, matmul_at_b_scalar, matmul_scalar};

use std::sync::OnceLock;

use microkernel::{LANES, TILE_ROWS};
use stone_obs::prof::{maybe_start, KernelProf};

use crate::Tensor;

/// Per-kernel `STONE_PROF=1` timing: counters are resolved once per
/// dispatcher and fed only when profiling is enabled (`start` is `None`
/// otherwise — one cached bool load on the default path).
fn prof_record(
    slot: &'static OnceLock<KernelProf>,
    name: &'static str,
    start: Option<std::time::Instant>,
    macs: usize,
) {
    if let Some(start) = start {
        slot.get_or_init(|| KernelProf::register(name)).record(start, macs as u64);
    }
}

static MM_PROF: OnceLock<KernelProf> = OnceLock::new();
static MM_AT_B_PROF: OnceLock<KernelProf> = OnceLock::new();
static MM_A_BT_PROF: OnceLock<KernelProf> = OnceLock::new();

/// Multiply-accumulate count (`m·k·n`) below which the dispatchers stay
/// serial. Re-derived against the worker pool (PR 6): one fork-join
/// region now costs ~3.3 µs at a 2-thread budget (`stone-par`'s
/// `spawn_probe` example — pool dispatch, down from ~22–28 µs when every
/// region spawned scoped threads), and splitting a product in half must
/// save more than that to pay off. At the tiled kernels' ~25 MAC/ns,
/// break-even sits near 2·3.3 µs ≈ 165K MACs; 2¹⁸ (~10.5 µs of work,
/// ~5.2 µs saved per extra thread) keeps a ~1.6× margin over dispatch
/// jitter. The old spawn-era threshold was 2²⁰ — the pool is what lets
/// serve-time small products parallelize at all. See
/// `docs/PERFORMANCE.md` ("Knobs") for the measurement.
pub const PAR_MIN_MACS: usize = 1 << 18;

/// Whether a product with `macs` total multiply-accumulates is worth
/// dispatching through the thread pool (which resolves the actual thread
/// count itself, capped by the number of output rows).
fn worth_threads(macs: usize) -> bool {
    macs >= PAR_MIN_MACS
}

/// Below this many output rows (`matmul`, `matmul_a_bt`) or inner steps
/// (`matmul_at_b`), the dispatchers skip packing and run a streaming
/// row-wise kernel instead: packing B costs `O(k·n)` — the size of the
/// whole product when `m = 1` (a single-scan encoder forward pass) — and a
/// register tile would be mostly padding rows. The row-wise kernels use
/// the same canonical accumulation order (each element summed over a
/// strictly increasing inner index, one accumulator), so crossing the
/// threshold never changes results, bit for bit.
const TILE_MIN_ROWS: usize = TILE_ROWS;

/// Runs a kernel over all of `out`, a whole number of `unit`-long records,
/// through the thread pool when `parallel` (a 1-thread budget degrades to
/// the serial call inside `par_chunks`). The kernel gets the index of its
/// block's first record and the block.
fn dispatch(
    out: &mut [f32],
    unit: usize,
    parallel: bool,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    if parallel {
        stone_par::par_chunks(out, unit, kernel);
    } else {
        kernel(0, out);
    }
}

/// The tile loop for one contiguous range of output rows.
///
/// `block` holds rows `[r0, r0 + block.len() / n)` of the output; `steps`
/// is the inner-dimension length; `pack_a(first_row, width, buf)` fills the
/// packed A tile for `width` output rows starting at the *global* row
/// `first_row`. The packed B panels are shared read-only across workers.
fn tiled_block(
    block: &mut [f32],
    n: usize,
    r0: usize,
    steps: usize,
    bpack: &pack::PackedPanels,
    backend: MatmulBackend,
    pack_a: impl Fn(usize, usize, &mut [f32]),
) {
    let rows = block.len() / n;
    let panels = n.div_ceil(LANES);
    let mut apack = vec![0.0f32; steps * TILE_ROWS];
    for t0 in (0..rows).step_by(TILE_ROWS) {
        let mr = (rows - t0).min(TILE_ROWS);
        pack_a(r0 + t0, mr, &mut apack);
        for jp in 0..panels {
            let j0 = jp * LANES;
            let nr = (n - j0).min(LANES);
            let acc = microkernel::tile(&apack, bpack.panel(jp), backend);
            for (r, accrow) in acc.iter().enumerate().take(mr) {
                let dst = &mut block[(t0 + r) * n + j0..(t0 + r) * n + j0 + nr];
                dst.copy_from_slice(&accrow[..nr]);
            }
        }
    }
}

/// Streaming `A · B` kernel for narrow outputs (fewer than
/// [`TILE_MIN_ROWS`] rows), over output rows `[r0, r0 + rows)`:
/// axpy-style row accumulation over increasing `p` — the canonical order,
/// bit-equal to the tiled path. Dispatched like the tiled kernels, so a
/// narrow-but-huge product still splits its rows across threads.
fn mm_narrow(a: &Tensor, b: &Tensor, block: &mut [f32], r0: usize) {
    let (k, n) = (a.cols(), b.cols());
    let bd = b.as_slice();
    for (ri, crow) in block.chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + ri);
        for p in 0..k {
            let av = arow[p];
            for (cv, &bv) in crow.iter_mut().zip(&bd[p * n..(p + 1) * n]) {
                *cv += av * bv;
            }
        }
    }
}

/// Streaming `Aᵀ · B` kernel for short inner dimensions (fewer than
/// [`TILE_MIN_ROWS`] steps), over output rows `[p0, p0 + rows)` (output
/// row `p` is column `p` of `A`): same canonical order as the tiled path.
/// The parallel axis (`k` output rows) is independent of the short inner
/// dimension, so dispatch still splits large outputs across threads.
fn mm_at_b_narrow(a: &Tensor, b: &Tensor, block: &mut [f32], p0: usize) {
    let n = b.cols();
    let rows = block.len() / n;
    for i in 0..a.rows() {
        let arow = &a.row(i)[p0..p0 + rows];
        let brow = b.row(i);
        for (crow, &av) in block.chunks_exact_mut(n).zip(arow) {
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Streaming `A · Bᵀ` kernel for narrow outputs, over output rows
/// `[r0, r0 + rows)`: per-element dot products over increasing `p` — the
/// canonical order.
fn mm_a_bt_narrow(a: &Tensor, b: &Tensor, block: &mut [f32], r0: usize) {
    let n = b.rows();
    for (ri, crow) in block.chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + ri);
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv = arow.iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum();
        }
    }
}

/// Computes `A · B` for `A: [m, k]` and `B: [k, n]`.
///
/// Register-tiled (see the module docs); products with at least
/// [`PAR_MIN_MACS`] multiply-accumulates are split across threads by output
/// row. The result is bitwise identical at any thread count and on either
/// microkernel backend.
///
/// # Panics
///
/// Panics when either operand is not rank 2 or the inner dimensions differ.
///
/// # Example
///
/// ```
/// use stone_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.])?;
/// let b = Tensor::from_vec(vec![2, 1], vec![5., 6.])?;
/// assert_eq!(matmul(&a, &b).as_slice(), &[17., 39.]);
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (bk, n) = (b.rows(), b.cols());
    assert_eq!(k, bk, "matmul inner dimensions differ: {k} vs {bk}");
    let mut c = Tensor::zeros(vec![m, n]);
    if c.is_empty() || k == 0 {
        return c; // empty output, or an empty sum: all zeros
    }
    let prof = maybe_start();
    if m < TILE_MIN_ROWS {
        dispatch(c.as_mut_slice(), n, worth_threads(m * k * n), |r0, block| {
            mm_narrow(a, b, block, r0);
        });
    } else {
        let bpack = pack::PackedPanels::from_rows(b.as_slice(), k, n);
        let backend = microkernel::active_backend();
        let ad = a.as_slice();
        dispatch(c.as_mut_slice(), n, worth_threads(m * k * n), |r0, block| {
            tiled_block(block, n, r0, k, &bpack, backend, |row0, width, buf| {
                pack::pack_width_major(ad, k, row0, width, buf);
            });
        });
    }
    prof_record(&MM_PROF, "matmul", prof, m * k * n);
    c
}

/// Computes `Aᵀ · B` for `A: [m, k]` and `B: [m, n]`, yielding `[k, n]`.
///
/// Register-tiled; parallel above [`PAR_MIN_MACS`] multiply-accumulates,
/// bitwise identical at any thread count and on either microkernel
/// backend.
///
/// # Panics
///
/// Panics when either operand is not rank 2 or the leading dimensions differ.
///
/// # Example
///
/// ```
/// use stone_tensor::{matmul, matmul_at_b, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// let b = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.])?;
/// assert_eq!(matmul_at_b(&a, &b), matmul(&a.transposed(), &b));
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[must_use]
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (bm, n) = (b.rows(), b.cols());
    assert_eq!(m, bm, "matmul_at_b leading dimensions differ: {m} vs {bm}");
    let mut c = Tensor::zeros(vec![k, n]);
    if c.is_empty() || m == 0 {
        return c; // empty output, or an empty sum: all zeros
    }
    let prof = maybe_start();
    if m < TILE_MIN_ROWS {
        dispatch(c.as_mut_slice(), n, worth_threads(m * k * n), |p0, block| {
            mm_at_b_narrow(a, b, block, p0);
        });
    } else {
        // Output rows are columns of A; the inner dimension is m.
        let bpack = pack::PackedPanels::from_rows(b.as_slice(), m, n);
        let backend = microkernel::active_backend();
        let ad = a.as_slice();
        dispatch(c.as_mut_slice(), n, worth_threads(m * k * n), |p0, block| {
            tiled_block(block, n, p0, m, &bpack, backend, |col0, width, buf| {
                pack::pack_step_major(ad, k, col0, width, buf);
            });
        });
    }
    prof_record(&MM_AT_B_PROF, "matmul_at_b", prof, m * k * n);
    c
}

/// Computes `A · Bᵀ` for `A: [m, k]` and `B: [n, k]`, yielding `[m, n]`.
///
/// Register-tiled; parallel above [`PAR_MIN_MACS`] multiply-accumulates,
/// bitwise identical at any thread count and on either microkernel
/// backend.
///
/// # Panics
///
/// Panics when either operand is not rank 2 or the trailing dimensions
/// differ.
///
/// # Example
///
/// ```
/// use stone_tensor::{matmul, matmul_a_bt, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// let b = Tensor::from_vec(vec![2, 3], vec![1., 1., 1., 2., 2., 2.])?;
/// assert_eq!(matmul_a_bt(&a, &b), matmul(&a, &b.transposed()));
/// # Ok::<(), stone_tensor::TensorError>(())
/// ```
#[must_use]
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, bk) = (b.rows(), b.cols());
    assert_eq!(k, bk, "matmul_a_bt trailing dimensions differ: {k} vs {bk}");
    let mut c = Tensor::zeros(vec![m, n]);
    if c.is_empty() || k == 0 {
        return c; // empty output, or an empty sum: all zeros
    }
    let prof = maybe_start();
    if m < TILE_MIN_ROWS {
        dispatch(c.as_mut_slice(), n, worth_threads(m * k * n), |r0, block| {
            mm_a_bt_narrow(a, b, block, r0);
        });
    } else {
        // Rows of B are output columns; packing fuses the transpose.
        let bpack = pack::PackedPanels::from_transposed_rows(b.as_slice(), k, n);
        let backend = microkernel::active_backend();
        let ad = a.as_slice();
        dispatch(c.as_mut_slice(), n, worth_threads(m * k * n), |r0, block| {
            tiled_block(block, n, r0, k, &bpack, backend, |row0, width, buf| {
                pack::pack_width_major(ad, k, row0, width, buf);
            });
        });
    }
    prof_record(&MM_A_BT_PROF, "matmul_a_bt", prof, m * k * n);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small_known_values() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[3, 3], &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        assert_eq!(matmul(&a, &Tensor::eye(3)), a);
        assert_eq!(matmul(&Tensor::eye(3), &a), a);
    }

    #[test]
    fn matmul_zero_annihilates() {
        let a = t(&[2, 2], &[1., 2., 3., 4.]);
        let z = Tensor::zeros(vec![2, 2]);
        assert_eq!(matmul(&a, &z), z);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t(&[3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 4], &[1., 0., 2., 0., 0., 1., 0., 2., 1., 1., 1., 1.]);
        assert_eq!(matmul_at_b(&a, &b), matmul(&a.transposed(), &b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t(&[3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[4, 2], &[1., 0., 0., 1., 1., 1., 2., 3.]);
        assert_eq!(matmul_a_bt(&a, &b), matmul(&a, &b.transposed()));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn rectangular_chain_shapes() {
        let a = Tensor::ones(vec![4, 5]);
        let b = Tensor::ones(vec![5, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[4, 2]);
        assert!(c.as_slice().iter().all(|&x| (x - 5.0).abs() < 1e-6));
    }

    #[test]
    fn degenerate_dimensions_yield_empty_or_zero() {
        // k = 0: the sum over an empty inner dimension is all zeros.
        let a = Tensor::zeros(vec![3, 0]);
        let b = Tensor::zeros(vec![0, 2]);
        assert_eq!(matmul(&a, &b), Tensor::zeros(vec![3, 2]));
        // n = 0: empty output.
        let a = Tensor::zeros(vec![3, 2]);
        let b = Tensor::zeros(vec![2, 0]);
        assert_eq!(matmul(&a, &b).shape(), &[3, 0]);
        // Transposed variants, k = 0 / m = 0.
        let a = Tensor::zeros(vec![0, 3]);
        let b = Tensor::zeros(vec![0, 2]);
        assert_eq!(matmul_at_b(&a, &b), Tensor::zeros(vec![3, 2]));
        let a = Tensor::zeros(vec![3, 0]);
        let b = Tensor::zeros(vec![2, 0]);
        assert_eq!(matmul_a_bt(&a, &b), Tensor::zeros(vec![3, 2]));
    }

    /// Deterministic pseudo-random matrix (no RNG dependency in unit tests).
    fn pseudo(shape: &[usize], salt: u32) -> Tensor {
        Tensor::from_fn(shape.to_vec(), |i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            (h % 2003) as f32 / 1001.5 - 1.0
        })
    }

    #[test]
    fn parallel_paths_are_bitwise_identical_to_serial() {
        // 144·112·80 = 1 290 240 MACs — above PAR_MIN_MACS, and the odd
        // dimensions leave ragged tiles at every edge and uneven row splits
        // at 2 and 8 threads.
        let a = pseudo(&[144, 112], 1);
        let b = pseudo(&[112, 80], 2);
        let at = pseudo(&[112, 144], 3);
        let bt = pseudo(&[80, 112], 4);
        let serial = stone_par::with_threads(1, || {
            (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
        });
        for nt in [2, 3, 8] {
            let par = stone_par::with_threads(nt, || {
                (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
            });
            assert_eq!(serial.0.as_slice(), par.0.as_slice(), "matmul, {nt} threads");
            assert_eq!(serial.1.as_slice(), par.1.as_slice(), "matmul_at_b, {nt} threads");
            assert_eq!(serial.2.as_slice(), par.2.as_slice(), "matmul_a_bt, {nt} threads");
        }
    }

    #[test]
    fn narrow_parallel_paths_are_bitwise_identical_to_serial() {
        // Narrow (< TILE_MIN_ROWS) but above PAR_MIN_MACS: 4·600·600 =
        // 1.44M MACs. The narrow kernels must also row-split across
        // threads — for at_b the parallel axis (600 output rows) is
        // independent of the short inner dimension.
        let a = pseudo(&[4, 600], 70);
        let b = pseudo(&[600, 600], 71);
        let at = pseudo(&[4, 600], 72);
        let bt2 = pseudo(&[4, 600], 73);
        let serial = stone_par::with_threads(1, || {
            (matmul(&a, &b), matmul_at_b(&at, &bt2), matmul_a_bt(&a, &b.transposed()))
        });
        for nt in [2, 8] {
            let par = stone_par::with_threads(nt, || {
                (matmul(&a, &b), matmul_at_b(&at, &bt2), matmul_a_bt(&a, &b.transposed()))
            });
            assert_eq!(serial.0, par.0, "narrow matmul, {nt} threads");
            assert_eq!(serial.1, par.1, "narrow matmul_at_b, {nt} threads");
            assert_eq!(serial.2, par.2, "narrow matmul_a_bt, {nt} threads");
        }
    }

    #[test]
    fn tiled_kernel_matches_naive_triple_loop_bitwise() {
        // Ragged everywhere: 67 % 8 = 3 rows, 9 % 8 = 1 lane, k = 130.
        // The canonical accumulation order means bit-equality with the
        // naive loop, not approximate agreement.
        let a = pseudo(&[67, 130], 5);
        let b = pseudo(&[130, 9], 6);
        let c = matmul(&a, &b);
        for i in 0..67 {
            for j in 0..9 {
                let mut acc = 0.0f32;
                for p in 0..130 {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                assert_eq!(c.at2(i, j), acc, "element ({i},{j})");
            }
        }
    }

    #[test]
    fn backends_are_bitwise_identical_on_ragged_shapes() {
        let _g = microkernel::backend_test_lock();
        if !simd_available() {
            return; // single-backend machine: nothing to compare
        }
        for (m, k, n, salt) in [(1, 1, 1, 10), (8, 8, 8, 20), (13, 21, 11, 30), (64, 50, 33, 40)] {
            let a = pseudo(&[m, k], salt);
            let b = pseudo(&[k, n], salt + 1);
            let at = pseudo(&[k, m], salt + 2);
            let bt = pseudo(&[n, k], salt + 3);
            let run = || (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt));
            let portable = with_backend(MatmulBackend::Portable, run);
            let simd = with_backend(MatmulBackend::Simd, run);
            assert_eq!(portable.0, simd.0, "matmul {m}x{k}x{n}");
            assert_eq!(portable.1, simd.1, "matmul_at_b {m}x{k}x{n}");
            assert_eq!(portable.2, simd.2, "matmul_a_bt {m}x{k}x{n}");
        }
    }

    #[test]
    fn narrow_path_is_bitwise_identical_to_tiled_rows() {
        // Products are row-independent, so rows 0..3 of a 12-row (tiled)
        // product must be bit-equal to the 3-row (narrow-path) product of
        // the same rows — crossing TILE_MIN_ROWS never changes numbers.
        let a = pseudo(&[12, 31], 60);
        let b = pseudo(&[31, 17], 61);
        let bt = pseudo(&[17, 31], 62);
        let a3 = Tensor::from_vec(vec![3, 31], a.as_slice()[..3 * 31].to_vec()).unwrap();
        let full = matmul(&a, &b);
        let narrow = matmul(&a3, &b);
        assert_eq!(&full.as_slice()[..narrow.len()], narrow.as_slice());
        let full = matmul_a_bt(&a, &bt);
        let narrow = matmul_a_bt(&a3, &bt);
        assert_eq!(&full.as_slice()[..narrow.len()], narrow.as_slice());
        // at_b: the narrow axis is the inner dimension; compare a 3-step
        // (narrow) sum against the naive loop to pin the canonical order.
        let at = pseudo(&[3, 9], 63);
        let bb = pseudo(&[3, 7], 64);
        let c = matmul_at_b(&at, &bb);
        for p in 0..9 {
            for j in 0..7 {
                let mut acc = 0.0f32;
                for i in 0..3 {
                    acc += at.at2(i, p) * bb.at2(i, j);
                }
                assert_eq!(c.at2(p, j), acc, "element ({p},{j})");
            }
        }
    }

    #[test]
    fn scalar_reference_agrees_with_tiled_kernels() {
        // The PR 3 scalar kernels share the canonical accumulation order,
        // so on data with no exact zeros they are bit-equal too.
        let a = pseudo(&[23, 17], 50);
        let b = pseudo(&[17, 19], 51);
        let at = pseudo(&[17, 23], 52);
        let bt = pseudo(&[19, 17], 53);
        assert_eq!(matmul(&a, &b), matmul_scalar(&a, &b));
        assert_eq!(matmul_at_b(&at, &b), matmul_at_b_scalar(&at, &b));
        assert_eq!(matmul_a_bt(&a, &bt), matmul_a_bt_scalar(&a, &bt));
    }
}
