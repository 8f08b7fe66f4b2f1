//! Deterministic fault injection for the serving stack.
//!
//! The resilience contract of PR 9 — panic-isolated batches, the per-venue
//! circuit breaker, last-good model rollback — only means something if it
//! can be *demonstrated*, repeatedly, in CI. This module provides the
//! demonstration hooks: a [`ChaosConfig`] of rules that make the model
//! path panic or stall for chosen venues (optionally gated on a specific
//! model **version**, so "v2 is broken, v1 is fine" scenarios resolve
//! deterministically once the breaker rolls the venue back), plus a
//! [`corrupt_blob`] helper for testing that a corrupted publish is rejected
//! by the blob checksum and never reaches serving.
//!
//! Faults fire inside the scheduler's `catch_unwind` region, exactly where
//! a real model bug would: after the batch's registry snapshot is taken,
//! before `locate_batch` runs.
//!
//! Rules are built programmatically ([`ChaosConfig::with_panic`],
//! [`ChaosConfig::with_stall`]) and handed to
//! [`crate::LocalizationServer::start_with_chaos`], so parallel tests never
//! race on process-wide state.
//!
//! Injected panics unwind via [`std::panic::resume_unwind`], so they do not
//! spam the default panic hook's backtrace while still exercising the full
//! isolation path.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// One fault to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ChaosFault {
    /// Panic the batch (caught by the scheduler's isolation; the batch
    /// fails with [`crate::ServeError::Internal`]).
    Panic,
    /// Sleep this long before executing the batch — a stalling model.
    Stall(Duration),
}

/// One injection rule: which venue, which model version, what fault, how
/// many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChaosRule {
    /// The venue whose batches this rule hits.
    venue: String,
    /// Only fire when the batch executes against this model version
    /// (`None` = any version). Version gating is what makes
    /// breaker-rollback scenarios deterministic: a rule pinned to the bad
    /// version stops firing the moment the rollback restores the previous
    /// one.
    version: Option<u64>,
    /// The fault to inject.
    fault: ChaosFault,
    /// How many batches to hit (`None` = every matching batch).
    count: Option<u32>,
}

/// A set of fault-injection rules, normally empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    rules: Vec<ChaosRule>,
}

impl ChaosConfig {
    /// No fault injection (the default).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a panic rule: batches for `venue` (optionally only under model
    /// `version`, optionally only the first `count` of them) panic.
    #[must_use]
    pub fn with_panic(mut self, venue: &str, version: Option<u64>, count: Option<u32>) -> Self {
        self.rules.push(ChaosRule {
            venue: venue.to_string(),
            version,
            fault: ChaosFault::Panic,
            count,
        });
        self
    }

    /// Adds a stall rule: batches for `venue` sleep `stall` before
    /// executing.
    #[must_use]
    pub fn with_stall(
        mut self,
        venue: &str,
        version: Option<u64>,
        stall: Duration,
        count: Option<u32>,
    ) -> Self {
        self.rules.push(ChaosRule {
            venue: venue.to_string(),
            version,
            fault: ChaosFault::Stall(stall),
            count,
        });
        self
    }
}

/// One rule armed with its remaining-fire budget.
#[derive(Debug)]
struct ArmedRule {
    rule: ChaosRule,
    /// Batches this rule may still hit; `u32::MAX` means unlimited.
    remaining: AtomicU32,
}

impl ArmedRule {
    fn try_consume(&self) -> bool {
        loop {
            let cur = self.remaining.load(Ordering::Relaxed);
            if cur == u32::MAX {
                return true;
            }
            if cur == 0 {
                return false;
            }
            if self
                .remaining
                .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// The runtime form of a [`ChaosConfig`], owned by the server's shared
/// state.
#[derive(Debug)]
pub(crate) struct ChaosState {
    rules: Vec<ArmedRule>,
}

impl ChaosState {
    pub(crate) fn new(cfg: ChaosConfig) -> Self {
        Self {
            rules: cfg
                .rules
                .into_iter()
                .map(|rule| ArmedRule {
                    remaining: AtomicU32::new(rule.count.map_or(u32::MAX, |c| c.min(u32::MAX - 1))),
                    rule,
                })
                .collect(),
        }
    }

    /// Invoked by the scheduler inside its panic-isolation region, right
    /// before the model call, with the batch's venue and the model version
    /// its snapshot carries. May sleep (stall rules) or unwind (panic
    /// rules).
    pub(crate) fn before_batch(&self, venue: &str, version: u64) {
        for armed in &self.rules {
            let rule = &armed.rule;
            if rule.venue != venue || rule.version.is_some_and(|v| v != version) {
                continue;
            }
            if !armed.try_consume() {
                continue;
            }
            match rule.fault {
                // resume_unwind skips the panic hook: an *injected* panic
                // should exercise the isolation path without spamming
                // backtraces over every chaos test run.
                ChaosFault::Panic => std::panic::resume_unwind(Box::new(format!(
                    "stone-chaos: injected panic for venue {venue:?} (model v{version})"
                ))),
                ChaosFault::Stall(d) => std::thread::sleep(d),
            }
        }
    }
}

/// Returns a copy of `blob` with one byte flipped deep inside it — past
/// every header, inside the weight/reference payload. Deterministic: the
/// same blob always corrupts the same way. Feeding the result to
/// [`crate::ModelRegistry::publish_bytes`] must fail with
/// [`stone::ModelIoError::ChecksumMismatch`], leaving the venue's current
/// model serving — the corrupt-publish-under-fire test scenario.
#[must_use]
pub fn corrupt_blob(blob: &[u8]) -> Vec<u8> {
    let mut bad = blob.to_vec();
    if !bad.is_empty() {
        let mid = bad.len() * 2 / 3;
        bad[mid] ^= 0x40;
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_gate_and_budget_limit_fires() {
        let state = ChaosState::new(ChaosConfig::none().with_panic("office", Some(2), Some(2)));
        // Wrong venue / wrong version: no fire.
        state.before_batch("cafe", 2);
        state.before_batch("office", 1);
        // Right venue + version: fires (twice), then the budget is spent.
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.before_batch("office", 2);
            }));
            assert!(r.is_err(), "panic rule must fire while budget remains");
        }
        state.before_batch("office", 2); // budget spent: no panic
    }

    #[test]
    fn corrupt_blob_differs_in_exactly_one_byte() {
        let blob = vec![0u8; 99];
        let bad = corrupt_blob(&blob);
        assert_eq!(bad.len(), blob.len());
        let diffs: Vec<usize> = (0..blob.len()).filter(|&i| blob[i] != bad[i]).collect();
        assert_eq!(diffs, vec![66]);
    }
}
