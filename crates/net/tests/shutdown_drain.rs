//! Shutdown coverage (satellite 4): graceful drain answers everything
//! already accepted, new connects are refused once drain begins, and
//! `shutdown()` joins every thread it spawned — pinned across a worker
//! budget of 1, 2 and 8 (`STONE_THREADS` scoped via `stone_par`), with a
//! `/proc`-based thread-leak check on Linux.

mod common;

use std::net::TcpStream;
use std::time::{Duration, Instant};

use stone_net::{ClientError, NetClient, NetServer};
use stone_par::with_threads;
use stone_serve::{LocalizationServer, ServerConfig};

const IN_FLIGHT: usize = 16;

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Current OS thread count of this process (Linux only — the leak check is
/// skipped elsewhere).
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
    0 // no /proc: the leak assertion degenerates to 0 == 0
}

/// One full lifecycle: start paused, accept a client, take `IN_FLIGHT`
/// requests into the queue, then shut down — the drain must *answer* all
/// of them (then EOF), and a connect attempted after drain must fail.
/// The registry (and its trained model) is shared across cycles: training
/// is the expensive part, and the lifecycle under test starts at `start`.
fn drain_cycle(registry: &std::sync::Arc<stone_serve::ModelRegistry>, scan: &[f32]) {
    let registry = std::sync::Arc::clone(registry);
    let snapshot = registry.snapshot("office").expect("published");

    // Paused executors: every request is *accepted but unanswered* when
    // the drain begins, which is exactly the case graceful shutdown must
    // not drop.
    let inner = LocalizationServer::start_paused(
        registry,
        ServerConfig {
            max_batch: IN_FLIGHT,
            queue_capacity: 2 * IN_FLIGHT,
            ..ServerConfig::default()
        },
    );
    let mut server = NetServer::start_with(inner, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    for _ in 0..IN_FLIGHT {
        client.send("office", scan).expect("send");
    }
    wait_for(
        || server.serve_stats().enqueued as usize == IN_FLIGHT,
        "all requests accepted into the queue",
    );

    // Drain. This resumes the executors, answers the 16 queued requests,
    // flushes them to the socket, half-closes, and joins every thread —
    // all before returning.
    let wire = server.shutdown();
    assert_eq!(wire.requests_decoded as usize, IN_FLIGHT);
    assert_eq!(wire.responses_written as usize, IN_FLIGHT, "drain answered everything accepted");
    assert_eq!(wire.shed, 0);
    assert_eq!(wire.malformed_frames, 0);
    assert_eq!(
        wire.connections_closed, wire.connections_accepted,
        "every connection fully torn down"
    );

    // The client reads all 16 answers (correct ones), then a clean EOF.
    let mut ids: Vec<u64> = (0..IN_FLIGHT)
        .map(|_| {
            let resp = client.recv().expect("drained answer");
            let pos = resp.result.expect("drained request answered, not errored");
            assert_eq!(pos.model_version, snapshot.version());
            resp.request_id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=IN_FLIGHT as u64).collect::<Vec<_>>(), "no answer lost or duplicated");
    assert!(
        matches!(client.recv(), Err(ClientError::Closed)),
        "after the drained answers comes EOF, not garbage"
    );

    // The listener is gone: new connects are refused (or at worst reset —
    // they never reach a serving state).
    assert!(
        TcpStream::connect(addr).is_err(),
        "connect after shutdown should be refused at {addr}"
    );
}

#[test]
fn drain_completes_in_flight_under_every_thread_budget() {
    let (registry, suite) = common::office_registry(33);
    let scan = suite.train.records()[0].rssi.clone();
    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            // Warm-up: populates stone-par's persistent worker pool and any
            // lazily-initialized state, so the leak check below compares
            // steady state to steady state.
            drain_cycle(&registry, &scan);
            let baseline = thread_count();
            drain_cycle(&registry, &scan);
            let after = thread_count();
            assert_eq!(
                after, baseline,
                "thread leak at STONE_THREADS={threads}: {baseline} -> {after}"
            );
        });
    }
}
