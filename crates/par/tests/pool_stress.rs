//! Stress test for the shared worker pool (PR 6): many OS threads hammer
//! `par_map` with nested two-arm `par_map`s through the *one* process-wide
//! pool for thousands of regions across varying `with_threads` budgets,
//! asserting every result stays bitwise-identical to an independent serial
//! oracle and that teardown ([`stone_par::shutdown_pool`]) neither
//! deadlocks nor drops queued work — including when it races active
//! dispatchers mid-test. Teardown at process exit is covered by every
//! other test binary in the workspace, which simply returns with live
//! workers.
//!
//! `with_threads` installs a process-wide override, so the tests here
//! serialize through `STRESS_LOCK`, and the hammer threads themselves
//! never touch the override — the budget is installed once on the main
//! thread around the whole scope.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use stone_par::{par_map, pool_threads, shutdown_pool, with_threads};

static STRESS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    STRESS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel region: a `par_map` whose every element runs a *nested*
/// two-arm `par_map` (which must run inline inside pool workers — budget 1).
fn region(seed: u64) -> Vec<u64> {
    let items: Vec<u64> = (0..61).map(|i| i ^ seed).collect();
    par_map(&items, |i, &x| {
        let arms = par_map(&[0, 1], |arm, _| match arm {
            0 => x.wrapping_mul(2654435761).wrapping_add(i as u64),
            _ => x.rotate_left((i % 63) as u32),
        });
        arms[0] ^ arms[1]
    })
}

/// The serial oracle: the same math as [`region`], with no `stone-par`
/// call anywhere — what "bitwise-identical to serial" is measured
/// against.
fn region_oracle(seed: u64) -> Vec<u64> {
    (0..61u64)
        .map(|i| {
            let x = i ^ seed;
            let a = x.wrapping_mul(2654435761).wrapping_add(i);
            let b = x.rotate_left((i % 63) as u32);
            a ^ b
        })
        .collect()
}

/// A top-level two-arm fork whose both arms are themselves parallel
/// regions.
fn forked_regions(seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut arms = par_map(&[seed, seed.wrapping_add(0x9e3779b9)], |_, &s| region(s));
    let right = arms.pop().expect("two arms");
    let left = arms.pop().expect("two arms");
    (left, right)
}

/// Blocks until every pool worker has exited, or panics — a worker stuck
/// past this deadline after `shutdown_pool` *is* the teardown deadlock
/// this test exists to rule out.
fn await_pool_drained() {
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool_threads() > 0 {
        assert!(Instant::now() < deadline, "pool workers failed to exit after shutdown");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn concurrent_hammer_is_bitwise_identical_to_serial_at_every_budget() {
    let _g = lock();
    const HAMMERS: usize = 4;
    const ITERS: u64 = 250;
    // Budget 1 exercises the fully-inline path; the larger budgets make
    // concurrent regions share (and grow) the pool. 4 hammer threads ×
    // 250 iterations × 4 budgets × 3 regions/iteration = 12 000 regions
    // through one pool.
    for budget in [1, 2, 4, 8] {
        with_threads(budget, || {
            std::thread::scope(|s| {
                for t in 0..HAMMERS as u64 {
                    s.spawn(move || {
                        for j in 0..ITERS {
                            let seed = t.wrapping_mul(0x1000) + j;
                            // One hammer thread also tears the pool down
                            // mid-flight every so often: shutdown must
                            // race active dispatchers without deadlock or
                            // lost results, and the next region re-inits.
                            if t == 0 && j % 50 == 25 {
                                shutdown_pool();
                            }
                            let (left, right) = forked_regions(seed);
                            assert_eq!(left, region_oracle(seed), "budget {budget} seed {seed}");
                            assert_eq!(
                                right,
                                region_oracle(seed.wrapping_add(0x9e3779b9)),
                                "budget {budget} seed {seed}"
                            );
                        }
                    });
                }
            });
        });
    }
    shutdown_pool();
    await_pool_drained();
    // A post-teardown region must lazily re-initialize a fresh pool.
    assert_eq!(with_threads(4, || region(99)), region_oracle(99));
}

#[test]
fn panicking_region_leaves_the_pool_usable() {
    let _g = lock();
    with_threads(4, || {
        for round in 0..20u64 {
            let items: Vec<u64> = (0..32).collect();
            let caught = std::panic::catch_unwind(|| {
                par_map(&items, |_, &x| {
                    assert!(x < 24, "deliberate stress panic");
                    x
                })
            });
            assert!(caught.is_err(), "round {round}: panic must propagate");
            // The very next region on the same pool must be unaffected.
            assert_eq!(region(round), region_oracle(round), "round {round}");
        }
    });
}

#[test]
fn repeated_shutdown_and_reinit_cycles_never_wedge() {
    let _g = lock();
    for cycle in 0..30u64 {
        assert_eq!(with_threads(3, || region(cycle)), region_oracle(cycle), "cycle {cycle}");
        shutdown_pool();
        // Double shutdown (already-empty pool) must be a no-op.
        shutdown_pool();
    }
    await_pool_drained();
}
