//! The register-tiled microkernel and its backend selection.
//!
//! One output tile is [`TILE_ROWS`] × [`LANES`] elements, held in a fixed
//! array of lane accumulators for the whole inner dimension. Per inner step
//! the kernel reads [`TILE_ROWS`] packed A values and one [`LANES`]-wide
//! packed B vector (see [`super::pack`]) and performs
//! `acc[r][l] += a[r] * b[l]` — a broadcast, a multiply and an add per row,
//! with no strided loads, no `!= 0.0` branches, and no horizontal
//! reductions.
//!
//! # Canonical accumulation order
//!
//! Every output element owns exactly one accumulator lane, updated at every
//! inner step in strictly increasing order. That order — the same order a
//! naive `for p { c[i][j] += a[i][p] * b[p][j] }` triple loop uses — is the
//! *canonical* accumulation order of the crate: the portable kernel, the
//! AVX2 kernel, the serial dispatch and every parallel row split all
//! produce it, which is what makes results bitwise identical across
//! backends and thread counts.
//!
//! # Backends
//!
//! * [`MatmulBackend::Portable`] — safe Rust over fixed-size lane arrays;
//!   the compiler vectorizes it for the baseline target.
//! * [`MatmulBackend::Simd`] — explicit AVX2 intrinsics
//!   ([`super::simd`]), selected at runtime when the CPU supports AVX2.
//!
//! Both evaluate each lane as an IEEE-754 single-precision multiply
//! followed by an add (no FMA contraction), so their results are
//! **bit-equal**, not merely close: `Simd` is an execution strategy, never
//! a numerics change. `STONE_NO_SIMD=1` forces `Portable` process-wide
//! ([`configured_backend`]); [`super::with_backend`] overrides the choice
//! in a scope (tests, benches).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Output rows per register tile.
pub const TILE_ROWS: usize = 8;

/// Output columns per register tile (the SIMD lane width of one AVX2
/// `f32x8` vector; the portable kernel uses the same shape).
pub const LANES: usize = 8;

/// One microkernel invocation's accumulator tile.
pub type Acc = [[f32; LANES]; TILE_ROWS];

/// Which microkernel implementation executes the tile loop.
///
/// `Portable` and `Simd` produce bitwise-identical results. See the module
/// docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatmulBackend {
    /// Safe, compiler-vectorized lane arithmetic. Always available; forced
    /// by `STONE_NO_SIMD=1`.
    Portable,
    /// Explicit AVX2 intrinsics (`x86_64` with runtime AVX2 support only).
    Simd,
}

/// Process-wide scoped override installed by [`super::with_backend`];
/// 0 = none, 1 = portable, 2 = SIMD.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Whether the explicit SIMD microkernel can run on this machine.
#[must_use]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the CPU supports AVX2 and FMA. A CPU report for benchmark
/// records only: no kernel issues FMA instructions, because contracting
/// the multiply and add would change results (see the module docs).
#[must_use]
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Pure backend-selection policy, split out so tests can pin every
/// combination without faking CPUID or the environment: `STONE_NO_SIMD`
/// (the operator kill-switch) forces [`MatmulBackend::Portable`], else
/// AVX2 detection picks [`MatmulBackend::Simd`], else
/// [`MatmulBackend::Portable`].
fn backend_from_flags(no_simd: bool, avx2: bool) -> MatmulBackend {
    if avx2 && !no_simd {
        MatmulBackend::Simd
    } else {
        MatmulBackend::Portable
    }
}

/// `true` when the env var is set to anything but `0`/empty.
fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| !v.trim().is_empty() && v.trim() != "0").unwrap_or(false)
}

/// The backend the environment selects: `STONE_NO_SIMD` set to anything
/// but `0`/empty forces [`MatmulBackend::Portable`], otherwise AVX2
/// runtime detection decides. Read once per process (this sits under
/// every matmul call); [`super::with_backend`] overrides it in a scope.
#[must_use]
pub fn configured_backend() -> MatmulBackend {
    static CONFIGURED: OnceLock<MatmulBackend> = OnceLock::new();
    *CONFIGURED.get_or_init(|| backend_from_flags(env_flag("STONE_NO_SIMD"), simd_available()))
}

/// The backend the dispatchers will hand to the tile loop: the scoped
/// override if one is installed, else the environment/detection choice.
pub fn active_backend() -> MatmulBackend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => MatmulBackend::Portable,
        2 => MatmulBackend::Simd,
        _ => configured_backend(),
    }
}

/// Runs `f` with the microkernel backend pinned, restoring the previous
/// setting afterwards (also on panic). Process-wide, like
/// `stone_par::with_threads`; concurrent callers would race, so tests
/// serialize their use.
///
/// The override deliberately takes precedence over `STONE_NO_SIMD`: it is
/// a test/bench hook for comparing the two backends, so it must be able
/// to select [`MatmulBackend::Simd`] in an environment whose *default*
/// is portable. Tests honoring the env var as an operator kill-switch
/// should ask [`configured_backend`] before requesting the SIMD backend.
///
/// # Panics
///
/// Panics when [`MatmulBackend::Simd`] is requested on a machine without
/// AVX2 ([`simd_available`] is `false`).
pub fn with_backend<R>(backend: MatmulBackend, f: impl FnOnce() -> R) -> R {
    assert!(
        backend != MatmulBackend::Simd || simd_available(),
        "SIMD backend requested but AVX2 is not available on this CPU"
    );
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let code = match backend {
        MatmulBackend::Portable => 1,
        MatmulBackend::Simd => 2,
    };
    let _restore = Restore(OVERRIDE.swap(code, Ordering::SeqCst));
    f()
}

/// Computes one [`TILE_ROWS`] × [`LANES`] output tile over the whole inner
/// dimension (`apack.len() / TILE_ROWS` steps) on the given backend.
///
/// `apack` and `bpanel` must describe the same number of steps.
#[inline]
pub fn tile(apack: &[f32], bpanel: &[f32], backend: MatmulBackend) -> Acc {
    debug_assert_eq!(apack.len() / TILE_ROWS, bpanel.len() / LANES);
    match backend {
        MatmulBackend::Portable => tile_portable(apack, bpanel),
        #[cfg(target_arch = "x86_64")]
        MatmulBackend::Simd => super::simd::tile(apack, bpanel),
        #[cfg(not(target_arch = "x86_64"))]
        MatmulBackend::Simd => unreachable!("the SIMD backend cannot be selected off x86_64"),
    }
}

/// The portable tile loop: fixed-size lane arrays the compiler keeps in
/// vector registers. Multiply then add per lane — the bit-exact twin of the
/// AVX2 kernel.
fn tile_portable(apack: &[f32], bpanel: &[f32]) -> Acc {
    let mut acc: Acc = [[0.0; LANES]; TILE_ROWS];
    for (astep, bstep) in apack.chunks_exact(TILE_ROWS).zip(bpanel.chunks_exact(LANES)) {
        let bvec: [f32; LANES] = bstep.try_into().expect("chunk is exactly LANES wide");
        for (&a, accrow) in astep.iter().zip(&mut acc) {
            for (&b, lane) in bvec.iter().zip(accrow.iter_mut()) {
                *lane += a * b;
            }
        }
    }
    acc
}

/// `with_backend` installs a process-wide override, so tests that touch it
/// (here and in `super::tests`) serialize through this lock — cargo's
/// default test harness runs them concurrently on multicore machines.
#[cfg(test)]
pub(super) static BACKEND_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Poison-tolerant acquire: a failing backend test must not cascade.
#[cfg(test)]
pub(super) fn backend_test_lock() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 - n as f32 / 2.0) * scale).collect()
    }

    #[test]
    fn portable_tile_matches_scalar_reference() {
        let kc = 13;
        let apack = seq(kc * TILE_ROWS, 0.25);
        let bpanel = seq(kc * LANES, -0.5);
        let acc = tile(&apack, &bpanel, MatmulBackend::Portable);
        for (r, accrow) in acc.iter().enumerate() {
            for (l, &got) in accrow.iter().enumerate() {
                let mut want = 0.0f32;
                for t in 0..kc {
                    want += apack[t * TILE_ROWS + r] * bpanel[t * LANES + l];
                }
                assert_eq!(got, want, "tile ({r},{l})");
            }
        }
    }

    #[test]
    fn simd_tile_is_bit_equal_to_portable() {
        if !simd_available() {
            return; // nothing to compare on this machine
        }
        let kc = 37;
        let apack = seq(kc * TILE_ROWS, 0.37);
        let bpanel = seq(kc * LANES, 0.73);
        let portable = tile(&apack, &bpanel, MatmulBackend::Portable);
        let simd = tile(&apack, &bpanel, MatmulBackend::Simd);
        assert_eq!(portable, simd);
    }

    #[test]
    fn empty_inner_dimension_yields_zero_tile() {
        let acc = tile(&[], &[], MatmulBackend::Portable);
        assert_eq!(acc, [[0.0; LANES]; TILE_ROWS]);
    }

    /// Every branch of the selection policy, pinned without touching real
    /// CPUID or env state.
    #[test]
    fn backend_flag_policy_covers_every_combination() {
        use MatmulBackend::{Portable, Simd};
        // The kill-switch beats AVX2 detection.
        assert_eq!(backend_from_flags(true, true), Portable);
        assert_eq!(backend_from_flags(true, false), Portable);
        // Without it: ordinary AVX2 detection.
        assert_eq!(backend_from_flags(false, true), Simd);
        assert_eq!(backend_from_flags(false, false), Portable);
    }

    #[test]
    fn with_backend_restores_previous_choice() {
        let _g = backend_test_lock();
        let before = active_backend();
        with_backend(MatmulBackend::Portable, || {
            assert_eq!(active_backend(), MatmulBackend::Portable);
        });
        assert_eq!(active_backend(), before);
    }
}
