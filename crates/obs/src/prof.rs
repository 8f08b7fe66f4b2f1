//! `STONE_PROF=1`-gated kernel profiling hooks.
//!
//! The compute layers (`stone-tensor` matmul dispatch, the `stone-par`
//! worker pool) are far too hot to pay for unconditional timing, so the
//! hooks follow the same discipline as `STONE_NO_SIMD`: the
//! env var is read once (first use, cached in a `OnceLock`), and when it
//! is unset the entire hook is one branch on a cached bool — no clock
//! read, no registry traffic.
//!
//! With `STONE_PROF=1`, each instrumented kernel feeds three counters in
//! the global registry, labelled by kernel name:
//!
//! ```text
//! stone_prof_kernel_calls_total{kernel="matmul"}    — invocations
//! stone_prof_kernel_busy_us_total{kernel="matmul"}  — wall-clock µs inside the kernel
//! stone_prof_kernel_work_total{kernel="matmul"}     — work units (MACs, tasks, …)
//! ```
//!
//! Call sites cache a [`KernelProf`] in a `OnceLock` so the steady-state
//! enabled cost is two atomic adds and one `Instant` pair per call.

use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::{global, Counter};

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| !v.trim().is_empty() && v.trim() != "0").unwrap_or(false)
}

/// Whether `STONE_PROF=1` profiling is enabled (read once, cached).
pub fn prof_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| env_flag("STONE_PROF"))
}

/// Start a profiling clock — `Some(now)` only when profiling is
/// enabled, so disabled call sites skip the clock read entirely.
pub fn maybe_start() -> Option<Instant> {
    if prof_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Cached counter handles for one instrumented kernel.
#[derive(Clone, Debug)]
pub struct KernelProf {
    calls: Counter,
    busy_us: Counter,
    work: Counter,
}

impl KernelProf {
    /// Resolve (or create) the three per-kernel counters in the global
    /// registry. Call once per site and cache the result in a
    /// `OnceLock`.
    pub fn register(kernel: &str) -> KernelProf {
        let labels = [("kernel", kernel)];
        KernelProf {
            calls: global().counter("stone_prof_kernel_calls_total", &labels),
            busy_us: global().counter("stone_prof_kernel_busy_us_total", &labels),
            work: global().counter("stone_prof_kernel_work_total", &labels),
        }
    }

    /// Record one kernel invocation that started at `start` and
    /// performed `work` units.
    pub fn record(&self, start: Instant, work: u64) {
        self.calls.inc();
        self.busy_us.add(start.elapsed().as_micros() as u64);
        self.work.add(work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_prof_counts_calls_busy_and_work() {
        let prof = KernelProf::register("test_kernel_prof");
        let start = Instant::now();
        prof.record(start, 123);
        prof.record(start, 1);
        assert_eq!(prof.calls.get(), 2);
        assert_eq!(prof.work.get(), 124);
        // Busy time is non-negative and monotone in call count; the
        // exact value is wall-clock.
        let text = crate::dump();
        assert!(text.contains("stone_prof_kernel_calls_total{kernel=\"test_kernel_prof\"} 2"));
    }

    #[test]
    fn maybe_start_is_none_when_unset() {
        // The test environment does not set STONE_PROF; if it ever does,
        // this assertion flips — keep them consistent.
        if !prof_enabled() {
            assert!(maybe_start().is_none());
        } else {
            assert!(maybe_start().is_some());
        }
    }
}
