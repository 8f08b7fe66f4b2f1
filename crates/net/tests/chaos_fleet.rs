//! The PR 9 acceptance scenario: a small fleet hammers a chaos-injected
//! server — one venue panics on its latest model, stalls are injected, a
//! corrupt publish lands mid-run — and the contract holds:
//!
//! * zero executor / connection thread deaths, and no server thread left
//!   after shutdown (pinned via `/proc`);
//! * every failed request is wire-visible with a correct status from the
//!   documented set — nothing hangs, nothing vanishes;
//! * the panicking venue trips its breaker and rolls back to the last-good
//!   model, then serves again;
//! * no expired or fast-failed request ever occupies a batch slot
//!   (`batched + expired + fast_failed == completed`);
//! * every frame the fleet sent, re-sends included, is decoded
//!   (`sent + retried == requests_decoded`);
//! * the corrupt publish is rejected and the incumbent keeps serving.

mod common;

use std::sync::Arc;
use std::time::Duration;

use stone_net::{ClientError, NetClient, NetServer, RetryPolicy, WireStatus};
use stone_serve::{corrupt_blob, ChaosConfig, LocalizationServer, ModelRegistry, ServerConfig};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 120;
const TIMEOUT: Duration = Duration::from_secs(20);

/// Current OS thread count of this process (Linux only — the death/leak
/// check degenerates to `0 == 0` elsewhere).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status readable")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("thread count parses")
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> usize {
    0
}

/// Threads of this process other than the `stone-par` pool workers. The
/// pool is process-lifetime and spawns lazily on the first parallel kernel
/// (training the fixture model, say), so its workers belong to neither the
/// idle baseline nor the server; every server and connection thread still
/// counts.
fn non_pool_threads() -> usize {
    thread_count().saturating_sub(stone_par::pool_threads())
}

#[test]
fn chaos_fleet_survives_with_wire_visible_failures() {
    let idle_threads = non_pool_threads();

    let suite = common::tiny_suite(31);
    let blob = common::tiny_localizer(&suite, 31).save();
    let scan = suite.train.records()[0].rssi.clone();

    let registry = Arc::new(ModelRegistry::new());
    assert_eq!(registry.publish_bytes("stable", &blob).unwrap(), 1);
    assert_eq!(registry.publish_bytes("flaky", &blob).unwrap(), 1);
    // The "bad deploy": flaky's v2 panics on every batch (chaos below).
    assert_eq!(registry.publish_bytes("flaky", &blob).unwrap(), 2);

    let chaos = ChaosConfig::none().with_panic("flaky", Some(2), None).with_stall(
        "stable",
        None,
        Duration::from_millis(5),
        Some(3),
    );
    let inner = LocalizationServer::start_with_chaos(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 16,
            queue_capacity: 64,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(30),
        },
        chaos,
    );
    let mut server = NetServer::start_with(inner, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();

    // Persistent fleet connections, established before the baseline so the
    // per-connection reader/writer threads are part of it.
    let clients: Vec<NetClient> = (0..CLIENTS)
        .map(|i| {
            let mut c =
                NetClient::connect_with(addr, RetryPolicy::quick(31 + i as u64)).expect("connect");
            c.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
            // One warmup round-trip: a response proves this connection's
            // reader and writer threads are up, so they are part of the
            // baseline below.
            assert!(c.locate("stable", &scan).is_ok(), "warmup request serves");
            c
        })
        .collect();
    let baseline = non_pool_threads();

    // The fleet: every client mixes venues and deadline budgets; every
    // outcome must be an answer or a documented wire status.
    let mut ok = 0u64;
    let mut failed = 0u64;
    let clients: Vec<NetClient> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(ci, mut client)| {
                let scan = scan.clone();
                s.spawn(move || {
                    let mut ok = 0u64;
                    let mut failed = 0u64;
                    for i in 0..REQUESTS_PER_CLIENT {
                        let venue = if i % 2 == 0 { "stable" } else { "flaky" };
                        // Every 8th request carries a 1 µs budget it cannot
                        // possibly meet — the deadline-expiry stream.
                        let deadline_us = if i % 8 == 3 { 1 } else { 0 };
                        match client.locate_deadline_us(venue, &scan, deadline_us) {
                            Ok(pos) => {
                                assert!(pos.x.is_finite() && pos.y.is_finite());
                                ok += 1;
                            }
                            Err(ClientError::Status(status)) => {
                                assert!(
                                    matches!(
                                        status,
                                        WireStatus::Shed
                                            | WireStatus::Internal
                                            | WireStatus::Unavailable
                                            | WireStatus::DeadlineExceeded
                                    ),
                                    "client {ci} got an undocumented failure: {status:?}"
                                );
                                failed += 1;
                            }
                            Err(other) => panic!("client {ci} lost a request: {other:?}"),
                        }
                    }
                    (client, ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (client, client_ok, client_failed) = h.join().expect("client thread survives");
                ok += client_ok;
                failed += client_failed;
                client
            })
            .collect()
    });
    assert_eq!(
        ok + failed,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "every request resolved to an answer or a documented status"
    );

    // Mid-run event, replayed at rest for determinism of the assertion: a
    // corrupt publish must be rejected with the incumbent left serving.
    assert!(
        registry.publish_bytes("stable", &corrupt_blob(&blob)).is_err(),
        "corrupt blob must fail its checksum"
    );
    assert_eq!(registry.snapshot("stable").expect("still published").version(), 1);

    // Thread deaths are leaks in reverse: a panicking batch must not have
    // cost an executor, and no connection thread may have died (the fleet
    // connections are all still open).
    assert_eq!(non_pool_threads(), baseline, "an executor or connection thread died (or leaked)");

    // The flaky venue tripped, rolled back to last-good v1, and serves.
    assert_eq!(registry.snapshot("flaky").expect("still published").version(), 1);
    let stats = server.serve_stats();
    assert!(stats.panicked_batches >= 2, "the bad deploy panicked until the breaker tripped");
    let flaky = stats.venues.iter().find(|v| v.venue == "flaky").expect("venue stats");
    assert!(flaky.breaker_trips >= 1);
    assert!(stats.expired >= 1, "the 1 µs budgets produced wire-visible expirations");

    // Every completed request was either batched, expired in the queue, or
    // fast-failed by an open breaker — expired and fast-failed work never
    // occupied a batch slot.
    let batched: u64 = stats.batch_hist.iter().enumerate().map(|(i, &n)| (i as u64 + 1) * n).sum();
    let fast_failed: u64 = stats.venues.iter().map(|v| v.fast_failed).sum();
    assert_eq!(batched + stats.expired + fast_failed, stats.completed);

    // The server still serves both venues after the storm.
    let mut check = NetClient::connect(addr).expect("connect");
    check.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    assert!(check.locate("stable", &scan).is_ok());
    assert!(check.locate("flaky", &scan).is_ok(), "rolled-back venue serves again");

    assert!(ok > 0, "the fleet got real answers through the chaos");
    let retried: u64 = clients.iter().map(NetClient::total_retries).sum();
    drop(check);
    drop(clients);
    let ledger = server.shutdown();
    assert_eq!(ledger.requests_decoded, ledger.responses_written, "no request went unanswered");
    // Every frame sent, re-sends included, was decoded: the warm-ups, the
    // fleet, the two post-storm checks, and one frame per retry.
    let sent = (CLIENTS + CLIENTS * REQUESTS_PER_CLIENT + 2) as u64;
    assert_eq!(ledger.requests_decoded, sent + retried, "sent + retried == decoded");

    // Everything the front-end spawned is joined; only the harness threads
    // that existed before the server remain (plus the pool's workers).
    let deadline = std::time::Instant::now() + TIMEOUT;
    while non_pool_threads() > idle_threads {
        assert!(std::time::Instant::now() < deadline, "server threads leaked past shutdown");
        std::thread::sleep(Duration::from_millis(2));
    }
}
