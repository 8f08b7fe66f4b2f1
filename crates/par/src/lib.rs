//! # stone-par
//!
//! Dependency-free data parallelism for the STONE reproduction.
//!
//! The workspace builds offline (crates.io is unreachable, see the `shims/`
//! vendoring policy), so instead of `rayon` this crate provides the two
//! fork-join primitives the hot paths actually need:
//!
//! * [`par_chunks`] — partition a mutable buffer into contiguous blocks and
//!   fill each block on its own worker (the matmul work-split);
//! * [`par_map`] — map a function over a slice, preserving input order.
//!
//! Since PR 6 the primitives dispatch to a lazily-initialized, **long-lived
//! worker pool** (`pool.rs`: channel-fed per-worker queues, join-barrier
//! completion) instead of spawning scoped threads per region. A fork-join
//! region now costs ~3 µs instead of ~20–40 µs (`spawn_probe` example),
//! which is what let the dispatch thresholds above this crate
//! (`stone_tensor::PAR_MIN_MACS` & co.) drop far enough to parallelize
//! serve-time small batches. [`shutdown_pool`] tears the workers down (the
//! next call re-initializes); [`pool_threads`] observes the worker count.
//!
//! # Determinism
//!
//! Every primitive assigns work by *input position*, never by completion
//! order or worker identity: `par_chunks` hands each arm a disjoint,
//! contiguous output block, and `par_map` stitches per-arm results back
//! together in input order. A caller that computes each output element
//! independently of the others therefore produces **bitwise-identical
//! results at any thread count, on any pool state** — the property the
//! workspace determinism tests (`tests/parallel_determinism.rs`) and the
//! pool stress test (`tests/pool_stress.rs`) pin down.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] resolves, in priority order:
//!
//! 1. a scoped process-wide override installed by [`with_threads`]
//!    (tests/benches);
//! 2. the `STONE_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! The env var is read once per process (`max_threads` sits on per-call hot
//! paths). Inside a parallel region every arm — pool workers *and* the
//! calling thread while it executes its own share — reports a budget of 1,
//! so nested parallel calls run inline instead of oversubscribing the
//! machine (for example a parallel experiment runner whose workers call
//! parallel matmul). The budget caps threads *per region*; the pool itself
//! grows to the largest budget ever requested minus one and holds no
//! threads before the first dispatch.
//!
//! # Example
//!
//! ```
//! let squares = stone_par::par_map(&[1_i32, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

// `deny` rather than `forbid` since PR 6: the pool module carries the
// workspace's second audited `unsafe` exception (lifetime erasure behind
// a join barrier; see `pool`'s module docs), mirroring the AVX2 module in
// `stone-tensor`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{pool_threads, shutdown_pool};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Process-wide thread-count override; 0 means "no override installed".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside worker closures so nested parallel calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a parallel worker for the guard's lifetime,
/// restoring the previous state on drop. Applied both to spawned workers
/// and to the calling thread while it executes its own share of a parallel
/// region, so *every* arm of a region sees a budget of 1.
struct WorkerGuard(bool);

impl WorkerGuard {
    fn enter() -> Self {
        Self(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// `STONE_THREADS` (else available parallelism), resolved once per process:
/// `max_threads` sits on per-matmul/per-query hot paths, where a getenv
/// and parse per call would be measurable.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("STONE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
    })
}

/// The number of threads parallel primitives may use from the calling
/// thread.
///
/// Resolution order: [`with_threads`] override, then `STONE_THREADS`, then
/// [`std::thread::available_parallelism`] (the latter two are read once per
/// process and cached). Always at least 1, and exactly 1 when called from
/// inside another primitive's worker (nested parallelism runs inline).
///
/// # Example
///
/// ```
/// assert!(stone_par::max_threads() >= 1);
/// assert_eq!(stone_par::with_threads(3, stone_par::max_threads), 3);
/// ```
#[must_use]
pub fn max_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    configured_threads()
}

/// Runs `f` with the thread count pinned to `n`, restoring the previous
/// setting afterwards (also on panic).
///
/// The override is **process-wide** (it must reach worker threads spawned
/// while it is active), so concurrent callers would race each other's
/// setting; it exists for tests and benchmarks, which serialize their use.
///
/// # Panics
///
/// Panics when `n` is zero.
///
/// # Example
///
/// ```
/// use stone_par::{max_threads, with_threads};
///
/// let outside = max_threads();
/// with_threads(2, || assert_eq!(max_threads(), 2));
/// assert_eq!(max_threads(), outside);
/// ```
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(OVERRIDE.swap(n, Ordering::SeqCst));
    f()
}

/// Maps `f` over `items` on up to [`max_threads`] threads, preserving input
/// order.
///
/// `f` receives `(index, &item)` so callers can derive per-item state (seeds,
/// labels) from the item's *position* rather than from scheduling order —
/// the hook that keeps parallel runs byte-identical to serial ones.
///
/// # Panics
///
/// Propagates the first worker panic.
///
/// # Example
///
/// ```
/// let doubled = stone_par::par_map(&[10_u32, 20, 30], |i, &x| x + i as u32);
/// assert_eq!(doubled, vec![10, 21, 32]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let nt = max_threads().min(items.len());
    if nt <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(nt);
    // One result slot per block, indexed by block position: the stitch
    // order below depends only on the input split, never on which worker
    // (or the caller — arm 0 maps the first block itself) ran a block.
    let blocks: Vec<&[T]> = items.chunks(chunk).collect();
    let mut parts: Vec<Option<Vec<R>>> = (0..blocks.len()).map(|_| None).collect();
    let arms: Vec<pool::Task<'_>> = blocks
        .iter()
        .zip(parts.iter_mut())
        .enumerate()
        .map(|(bi, (block, slot))| {
            let f = &f;
            Box::new(move || {
                *slot = Some(block.iter().enumerate().map(|(j, t)| f(bi * chunk + j, t)).collect());
            }) as pool::Task<'_>
        })
        .collect();
    pool::run_region(arms);
    let mut out = Vec::with_capacity(items.len());
    for part in &mut parts {
        out.extend(part.take().expect("every region arm fills its slot"));
    }
    out
}

/// Splits `data` into contiguous blocks of whole `unit`-element records and
/// processes each block on its own thread.
///
/// `f` receives `(first_record_index, block)`; blocks are disjoint and cover
/// `data` exactly, so each record of the output is written by exactly one
/// worker — the row-partitioned matmul work-split.
///
/// # Panics
///
/// Panics when `unit` is zero or does not divide `data.len()`, and
/// propagates worker panics.
///
/// # Example
///
/// ```
/// let mut rows = vec![0_usize; 6];
/// // Two-element records: record r spans rows[2r..2r+2].
/// stone_par::par_chunks(&mut rows, 2, |first, block| {
///     for (i, v) in block.iter_mut().enumerate() {
///         *v = first + i / 2;
///     }
/// });
/// assert_eq!(rows, vec![0, 0, 1, 1, 2, 2]);
/// ```
pub fn par_chunks<T, F>(data: &mut [T], unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "record size must be positive");
    assert_eq!(data.len() % unit, 0, "buffer is not a whole number of records");
    let records = data.len() / unit;
    let nt = max_threads().min(records);
    if nt <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let per_block = records.div_ceil(nt);
    // Disjoint mutable blocks, each an arm; the caller processes block 0
    // itself while pool workers fill the rest. `run_region` joins every
    // arm and re-raises their panics.
    let arms: Vec<pool::Task<'_>> = data
        .chunks_mut(per_block * unit)
        .enumerate()
        .map(|(bi, block)| {
            let f = &f;
            Box::new(move || f(bi * per_block, block)) as pool::Task<'_>
        })
        .collect();
    pool::run_region(arms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `with_threads` is process-wide; tests that install an override take
    /// this lock so cargo's parallel test harness cannot interleave them.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    /// Poison-tolerant lock: a panicking test (e.g. the deliberate one
    /// below) must not cascade into every later test.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let _g = lock();
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for nt in [1, 2, 3, 8, 64] {
            let got = with_threads(nt, || par_map(&items, |_, &x| x * 3 + 1));
            assert_eq!(got, expect, "thread count {nt}");
        }
    }

    #[test]
    fn par_map_passes_input_indices() {
        let _g = lock();
        let items = vec![(); 257];
        let got = with_threads(4, || par_map(&items, |i, ()| i));
        assert_eq!(got, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_every_record_once() {
        let _g = lock();
        for nt in [1, 2, 5, 16] {
            let mut buf = vec![0u32; 30];
            with_threads(nt, || {
                par_chunks(&mut buf, 3, |first, block| {
                    for (i, v) in block.iter_mut().enumerate() {
                        *v += (first + i / 3) as u32 + 1;
                    }
                });
            });
            let expect: Vec<u32> = (0..10).flat_map(|r| [r + 1; 3]).collect();
            assert_eq!(buf, expect, "thread count {nt}");
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let _g = lock();
        let inner_counts = with_threads(4, || par_map(&[(), (), ()], |_, ()| max_threads()));
        // Workers must see a single-thread budget regardless of the override.
        assert_eq!(inner_counts, vec![1, 1, 1]);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let _g = lock();
        let before = max_threads();
        with_threads(7, || assert_eq!(max_threads(), 7));
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: [u8; 0] = [];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        let mut buf: [f32; 0] = [];
        par_chunks(&mut buf, 4, |_, _| unreachable!("no records to process"));
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn par_chunks_rejects_ragged_buffers() {
        let mut buf = vec![0u8; 7];
        par_chunks(&mut buf, 2, |_, _| {});
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = lock();
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                par_map(&[0, 1, 2, 3], |_, &x| {
                    assert!(x < 2, "boom");
                    x
                })
            })
        });
        assert!(result.is_err());
    }
}
