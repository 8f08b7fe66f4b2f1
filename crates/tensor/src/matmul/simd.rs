//! Explicit AVX2 implementation of the register-tiled microkernel.
//!
//! This is the only module in the workspace allowed to use `unsafe`
//! (`unsafe_code` is denied crate- and workspace-wide): the unsafety is
//! confined to the `core::arch` intrinsics behind a safe wrapper that
//! re-checks CPU support, and the data side stays entirely in
//! bounds-checked slices — every load and store goes through a slice whose
//! length proves the access valid.
//!
//! The kernel is the literal vector transcription of the portable
//! tile loop: per inner step, one 8-lane load of the packed B panel, then
//! per tile row a broadcast of the packed A value, a lane multiply
//! (`vmulps`) and a lane add (`vaddps`) into that row's accumulator
//! register. No FMA is issued — IEEE single-precision multiply-then-add is
//! exactly what the portable kernel's scalar lane arithmetic performs, so
//! the two backends are **bit-equal** on every input, which
//! `tests/parallel_determinism.rs` pins.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};

use super::microkernel::{simd_available, Acc, LANES, TILE_ROWS};

/// Computes one register tile with AVX2 intrinsics. Safe wrapper: verifies
/// AVX2 support (a cached atomic load) before entering the
/// `#[target_feature]` kernel.
///
/// # Panics
///
/// Panics when the CPU lacks AVX2 — the dispatchers only select this
/// backend after runtime detection, so a panic here means a caller bypassed
/// [`super::MatmulBackend`] selection.
pub fn tile(apack: &[f32], bpanel: &[f32]) -> Acc {
    assert!(simd_available(), "AVX2 microkernel invoked without CPU support");
    // SAFETY: AVX2 availability was just verified at runtime.
    unsafe { tile_avx2(apack, bpanel) }
}

/// The AVX2 tile loop. Eight `__m256` accumulators (one per tile row) live
/// in registers across the whole inner dimension; the inner step is
/// load + broadcast + multiply + add, nothing else.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(apack: &[f32], bpanel: &[f32]) -> Acc {
    let mut vacc = [_mm256_setzero_ps(); TILE_ROWS];
    for (astep, bstep) in apack.chunks_exact(TILE_ROWS).zip(bpanel.chunks_exact(LANES)) {
        // SAFETY (loadu/storeu): `chunks_exact` yields slices of exactly
        // LANES / TILE_ROWS elements, so 8-wide unaligned loads from their
        // base pointers stay in bounds.
        let b = _mm256_loadu_ps(bstep.as_ptr());
        for (va, &a) in vacc.iter_mut().zip(astep) {
            *va = _mm256_add_ps(*va, _mm256_mul_ps(_mm256_set1_ps(a), b));
        }
    }
    let mut acc: Acc = [[0.0; LANES]; TILE_ROWS];
    for (row, va) in acc.iter_mut().zip(&vacc) {
        _mm256_storeu_ps(row.as_mut_ptr(), *va);
    }
    acc
}
