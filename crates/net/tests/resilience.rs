//! Wire-level resilience (PR 9): deadline budgets ride the wire and expire
//! server-side as wire-visible `DeadlineExceeded`; the client retry policy
//! retries sheds with jittered backoff, reconnects through dropped
//! connections, refuses to retry terminal statuses, and gives up cleanly
//! when the server is gone; and `NetServer::shutdown` is idempotent,
//! returning the same settled ledger twice.

mod common;

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use stone_net::{ClientError, NetClient, NetServer, RetryPolicy, WireStatus};
use stone_par::with_threads;
use stone_serve::{LocalizationServer, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(20);

fn quick_config() -> ServerConfig {
    ServerConfig { max_batch: 16, ..ServerConfig::default() }
}

/// A request's deadline budget is honored end to end: queued past its
/// budget on a paused server, it comes back `DeadlineExceeded` while an
/// unbudgeted request submitted alongside it is answered. Pinned across
/// `STONE_THREADS` ∈ {1, 2, 8}.
#[test]
fn wire_deadline_budget_expires_server_side() {
    let (registry, suite) = common::office_registry(21);
    let scan = &suite.train.records()[0].rssi;
    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            let inner =
                LocalizationServer::start_paused(std::sync::Arc::clone(&registry), quick_config());
            let mut server =
                NetServer::start_with(inner, "127.0.0.1:0").expect("bind ephemeral port");
            let mut client = NetClient::connect(server.local_addr()).expect("connect");
            client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");

            // 1 ms budget vs. no budget, both parked in the paused queue.
            let doomed = client.send_deadline("office", scan, 1_000).expect("send");
            let alive = client.send("office", scan).expect("send");
            std::thread::sleep(Duration::from_millis(20));
            server.resume();

            for _ in 0..2 {
                let resp = client.recv().expect("both requests answered");
                if resp.request_id == doomed {
                    assert_eq!(resp.result, Err(WireStatus::DeadlineExceeded));
                } else {
                    assert_eq!(resp.request_id, alive);
                    assert!(resp.result.is_ok(), "unbudgeted request answers normally");
                }
            }
            let stats = server.serve_stats();
            assert_eq!(stats.expired, 1);
            server.shutdown();
        });
    }
}

/// A shed (`WireStatus::Shed`) is transient: the retry policy backs off
/// and wins once capacity frees up, and the retry count is observable.
#[test]
fn retry_policy_rides_out_a_shed() {
    let (registry, suite) = common::office_registry(23);
    let scan = suite.train.records()[0].rssi.clone();
    // Capacity 1 and paused executors: the first request wedges the queue,
    // everything else sheds until `resume`.
    let inner = LocalizationServer::start_paused(
        registry,
        ServerConfig { queue_capacity: 1, ..quick_config() },
    );
    let mut server = NetServer::start_with(inner, "127.0.0.1:0").expect("bind ephemeral port");

    let mut filler = NetClient::connect(server.local_addr()).expect("connect");
    filler.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    let filler_id = filler.send("office", &scan).expect("fills the queue");
    // The submit happens on the server's reader thread: wait until the
    // queue really holds it before counting on sheds.
    let deadline = std::time::Instant::now() + TIMEOUT;
    while server.serve_stats().queue_depth < 1 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut client = NetClient::connect_with(
        server.local_addr(),
        RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            retry_budget: u32::MAX,
            jitter_seed: 23,
        },
    )
    .expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");

    // Unblock the queue mid-retry-loop.
    let server_ref = &server;
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(40));
            server_ref.resume();
        });
        let pos = client.locate("office", &scan).expect("retries ride out the shed");
        assert!(pos.x.is_finite() && pos.y.is_finite());
    });
    assert!(client.total_retries() >= 1, "at least one attempt was shed and retried");

    // The queue-filling request is answered too once resumed.
    let resp = filler.recv().expect("filler answered");
    assert_eq!(resp.request_id, filler_id);
    assert!(resp.result.is_ok());
    let wire = server.shutdown();
    // Every frame the clients sent, re-sends included, was decoded: the
    // filler, the first attempt, then one frame per retry — each retry
    // answering a shed.
    assert_eq!(wire.requests_decoded, 2 + client.total_retries(), "sent + retried == decoded");
    assert_eq!(wire.shed, client.total_retries(), "every retry answered a shed");
}

/// `DeadlineExceeded` is terminal: the budget is the client saying the
/// answer is worthless after that long, so the policy must NOT retry it.
#[test]
fn deadline_exceeded_is_not_retried() {
    let (registry, suite) = common::office_registry(24);
    let scan = suite.train.records()[0].rssi.clone();
    let inner = LocalizationServer::start_paused(registry, quick_config());
    let mut server = NetServer::start_with(inner, "127.0.0.1:0").expect("bind ephemeral port");

    let mut client =
        NetClient::connect_with(server.local_addr(), RetryPolicy::quick(24)).expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");

    let server_ref = &server;
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            server_ref.resume();
        });
        let err = client.locate_deadline_us("office", &scan, 1_000).unwrap_err();
        assert!(
            matches!(err, ClientError::Status(WireStatus::DeadlineExceeded)),
            "expected terminal DeadlineExceeded, got {err:?}"
        );
    });
    assert_eq!(client.total_retries(), 0, "terminal statuses are never retried");
    server.shutdown();
}

/// A dropped connection is transient: the client reconnects (to the same
/// peer) and the retried attempt succeeds. The flaky first hop is a local
/// proxy that kills its first connection unanswered, then pipes every
/// later one through to the real server.
#[test]
fn retry_reconnects_through_a_dropped_connection() {
    let (registry, suite) = common::office_registry(25);
    let scan = suite.train.records()[0].rssi.clone();
    let mut server =
        NetServer::start(registry, "127.0.0.1:0", quick_config()).expect("bind ephemeral port");
    let upstream = server.local_addr();

    let flaky = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let flaky_addr = flaky.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        // Connection #1: accepted and immediately dropped — the client
        // sees EOF/reset mid-request.
        if let Ok((first, _)) = flaky.accept() {
            drop(first);
        }
        // Later connections: byte-for-byte pipes to the real server.
        while let Ok((down, _)) = flaky.accept() {
            let Ok(up) = TcpStream::connect(upstream) else { return };
            let (mut d2u_r, mut d2u_w) =
                (down.try_clone().expect("clone"), up.try_clone().expect("clone"));
            let pump = std::thread::spawn(move || {
                let _ = std::io::copy(&mut d2u_r, &mut d2u_w);
                let _ = d2u_w.shutdown(std::net::Shutdown::Write);
            });
            let (mut u2d_r, mut u2d_w) = (up, down);
            let _ = std::io::copy(&mut u2d_r, &mut u2d_w);
            let _ = u2d_w.shutdown(std::net::Shutdown::Write);
            let _ = pump.join();
        }
    });

    let mut client = NetClient::connect_with(
        flaky_addr,
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            retry_budget: u32::MAX,
            jitter_seed: 25,
        },
    )
    .expect("connect through proxy");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");

    let pos = client.locate("office", &scan).expect("reconnect + retry succeeds");
    assert!(pos.x.is_finite() && pos.y.is_finite());
    assert!(client.total_retries() >= 1, "the dropped first connection forced a retry");
    server.shutdown();
}

/// When the server is gone for good, the policy gives up after its bounded
/// attempts instead of spinning forever.
#[test]
fn retry_gives_up_when_the_server_stays_dead() {
    let (registry, suite) = common::office_registry(26);
    let scan = suite.train.records()[0].rssi.clone();
    let mut server =
        NetServer::start(registry, "127.0.0.1:0", quick_config()).expect("bind ephemeral port");

    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        retry_budget: u32::MAX,
        jitter_seed: 26,
    };
    let mut client = NetClient::connect_with(server.local_addr(), policy).expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    server.shutdown();

    let err = client.locate("office", &scan).unwrap_err();
    assert!(
        matches!(err, ClientError::Closed | ClientError::Io(_)),
        "a dead server surfaces as a connection error, got {err:?}"
    );
    assert_eq!(client.total_retries(), 3, "max_attempts - 1 retries, then give up");
}

/// The lifetime retry budget caps total retries across calls even when
/// per-call attempts would allow more.
#[test]
fn retry_budget_is_a_lifetime_cap() {
    let (registry, suite) = common::office_registry(27);
    let scan = suite.train.records()[0].rssi.clone();
    let mut server =
        NetServer::start(registry, "127.0.0.1:0", quick_config()).expect("bind ephemeral port");

    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        retry_budget: 2,
        jitter_seed: 27,
    };
    let mut client = NetClient::connect_with(server.local_addr(), policy).expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    server.shutdown();

    let _ = client.locate("office", &scan).unwrap_err();
    assert_eq!(client.total_retries(), 2, "the lifetime budget stops the loop, not attempts");
    let _ = client.locate("office", &scan).unwrap_err();
    assert_eq!(client.total_retries(), 2, "a spent budget allows no further retries");
}

/// `NetServer::shutdown` is idempotent: the second call is a no-op that
/// returns the same settled ledger (satellite regression for PR 9).
#[test]
fn double_shutdown_returns_the_same_settled_ledger() {
    let (registry, suite) = common::office_registry(28);
    let scan = &suite.train.records()[0].rssi;
    let mut server =
        NetServer::start(registry, "127.0.0.1:0", quick_config()).expect("bind ephemeral port");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    client.locate("office", scan).expect("served");
    drop(client);

    let first = server.shutdown();
    assert_eq!(first.requests_decoded, 1);
    assert_eq!(first.responses_written, 1);
    let second = server.shutdown();
    assert_eq!(first, second, "second shutdown returns the identical ledger");
}
