//! Per-venue circuit breakers over the batch-execution path.
//!
//! A batch whose model call panics is isolated (`catch_unwind` in
//! `scheduler.rs`) and answered with [`crate::ServeError::Internal`] — but
//! a *persistently* broken model (a bad publish) would then burn an
//! executor on every drain, panicking batch after batch while queued
//! requests pile up behind the doomed venue. The breaker turns that into a
//! bounded blast radius:
//!
//! ```text
//!            K consecutive batch failures
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ cooldown elapses
//!     │ probe batch succeeds                  ▼
//!     └─────────────────────────────────── HalfOpen
//!                 (a probe failure reopens: HalfOpen ──▶ Open)
//! ```
//!
//! * **Closed** — batches execute normally; a success resets the
//!   consecutive-failure count.
//! * **Open** — every batch for the venue **fast-fails** with
//!   [`crate::ServeError::VenueUnavailable`], without touching the model,
//!   until the cooldown elapses. The trip also triggers the registry's
//!   last-good rollback (see `scheduler.rs`), so by the time the breaker
//!   re-probes, the venue is usually serving its previous snapshot.
//! * **HalfOpen** — batches execute as *probes*: the first success closes
//!   the breaker, the first failure reopens it for another cooldown.
//!
//! Each venue's breaker lives in its entry of the queue's venue table and
//! travels to the executor with the venue's batch, so the state machine
//! costs one tiny mutex per *batch* (never per request) and no lookup at
//! all. A threshold of 0 disables the breaker entirely.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

#[derive(Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// A venue breaker's position in the state machine, as reported by
/// [`crate::ServerHandle::breaker_states`] for the admin surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Batches execute normally.
    Closed,
    /// Batches fast-fail until the cooldown elapses. An Open breaker whose
    /// cooldown has already elapsed still reports Open here — the
    /// Open→HalfOpen transition happens on the next *batch admission*, not
    /// on observation.
    Open,
    /// The next batch is a probe deciding re-close vs. re-open.
    HalfOpen,
}

impl BreakerState {
    /// The state as a metrics gauge value: 0 closed, 1 half-open, 2 open.
    #[must_use]
    pub fn as_gauge(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Open => "open",
        })
    }
}

/// One venue's circuit breaker.
#[derive(Debug)]
pub(crate) struct Breaker {
    /// Consecutive batch failures that trip a closed breaker; 0 disables.
    threshold: u32,
    /// How long an open breaker fast-fails before probing again.
    cooldown: Duration,
    state: Mutex<State>,
}

impl Breaker {
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> Self {
        Self { threshold, cooldown, state: Mutex::new(State::Closed { consecutive_failures: 0 }) }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gate for one batch about to execute: `false` means the breaker is
    /// open and the whole batch fast-fails without touching the model. An
    /// open breaker past its cooldown turns half-open here and admits the
    /// batch as its probe.
    pub(crate) fn admit(&self) -> bool {
        if self.threshold == 0 {
            return true;
        }
        let mut state = self.lock();
        match *state {
            State::Open { until } if Instant::now() < until => false,
            State::Open { .. } => {
                *state = State::HalfOpen;
                true
            }
            State::Closed { .. } | State::HalfOpen => true,
        }
    }

    /// Records a batch whose model call completed without panicking.
    pub(crate) fn record_success(&self) {
        if self.threshold != 0 {
            *self.lock() = State::Closed { consecutive_failures: 0 };
        }
    }

    /// Records a panicked batch; returns `true` when this failure
    /// transitioned the breaker to Open (the moment the scheduler rolls the
    /// venue back to its last-good model).
    pub(crate) fn record_failure(&self) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut state = self.lock();
        let open = State::Open { until: Instant::now() + self.cooldown };
        match *state {
            State::Closed { consecutive_failures } => {
                let failures = consecutive_failures + 1;
                let trips = failures >= self.threshold;
                *state =
                    if trips { open } else { State::Closed { consecutive_failures: failures } };
                trips
            }
            // A failed probe reopens for another full cooldown.
            State::HalfOpen => {
                *state = open;
                true
            }
            // Fast-failed batches never reach record_failure; a failure
            // while already Open just restarts the cooldown without
            // counting as a fresh trip.
            State::Open { .. } => {
                *state = open;
                false
            }
        }
    }

    /// The current state — a pure observation: no lazy Open→HalfOpen
    /// transition is applied (that belongs to batch admission).
    pub(crate) fn state(&self) -> BreakerState {
        match *self.lock() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_recovers_through_half_open() {
        let b = Breaker::new(2, Duration::from_millis(20));
        assert!(b.admit());
        assert!(!b.record_failure(), "first failure must not trip");
        assert!(b.admit());
        assert!(b.record_failure(), "second failure trips");
        assert!(!b.admit());
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "cooldown over: the probe is admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let b = Breaker::new(1, Duration::from_millis(15));
        assert!(b.record_failure());
        std::thread::sleep(Duration::from_millis(20));
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_failure(), "failed probe re-trips");
        assert!(!b.admit());
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = Breaker::new(2, Duration::from_millis(10));
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure(), "count restarted after a success");
        assert!(b.record_failure());
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let b = Breaker::new(0, Duration::from_millis(10));
        for _ in 0..10 {
            assert!(!b.record_failure());
        }
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn state_observes_without_transitioning() {
        let b = Breaker::new(1, Duration::from_millis(10));
        assert_eq!(b.state(), BreakerState::Closed, "a fresh breaker reads Closed");
        assert!(b.record_failure());
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        // Observation alone never flips Open→HalfOpen, even past cooldown…
        assert_eq!(b.state(), BreakerState::Open);
        // …the next batch admission does.
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }
}
