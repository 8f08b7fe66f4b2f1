//! The venue-sharded scheduler contract (PR 8): single-venue batches,
//! deepest-first drains bounded by `max_wait` per request (no starvation),
//! the global-vs-venue shed split, venue removal failing queued requests
//! per-request, and the exactly-K-shed ledger agreeing wire-vs-serve across
//! kernel thread budgets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use stone::{KnnMode, StoneBuilder, StoneConfig, StoneLocalizer, TrainerConfig};
use stone_dataset::{office_suite, SuiteConfig};
use stone_net::{NetClient, NetServer, WireStatus};
use stone_par::with_threads;
use stone_serve::{
    LocalizationServer, LocateResponse, ModelRegistry, ServeError, ServerConfig, ServerHandle,
    Submit,
};

fn tiny_localizer(train: &stone_dataset::FingerprintDataset, seed: u64) -> StoneLocalizer {
    StoneBuilder::from_config(StoneConfig {
        trainer: TrainerConfig {
            embed_dim: 4,
            epochs: 1,
            triplets_per_epoch: 16,
            batch_size: 8,
            ..TrainerConfig::quick()
        },
        knn_k: 3,
        knn_mode: KnnMode::WeightedRegression,
    })
    .fit(train, seed)
}

/// A fail-fast submit whose answer arrives on the returned receiver.
fn try_submit(
    handle: &ServerHandle,
    venue: &str,
    scan: &[f32],
) -> Result<mpsc::Receiver<Result<LocateResponse, ServeError>>, ServeError> {
    let (tx, rx) = mpsc::channel();
    handle.try_submit_with(Submit::new(venue, scan), move |result| drop(tx.send(result)))?;
    Ok(rx)
}

/// A registry serving the same tiny model for every named venue, plus a
/// scan that fits it.
fn registry_for(venues: &[String], seed: u64) -> (Arc<ModelRegistry>, Vec<f32>) {
    let suite = office_suite(&SuiteConfig::tiny(seed));
    let scan = suite.train.records()[0].rssi.clone();
    let model = tiny_localizer(&suite.train, seed);
    let blob = model.save();
    let registry = Arc::new(ModelRegistry::new());
    for venue in venues {
        registry.publish_bytes(venue, &blob).expect("model publishes from bytes");
    }
    (registry, scan)
}

/// With `max_wait = 0` every queued head is overdue, so the scheduler runs
/// strictly oldest-venue-first while still draining whole venues: requests
/// interleaved as hot×8, cold-0..2, hot×8 complete as exactly that venue
/// sequence, with the hot venue's two batches staying fat (size 8) and each
/// cold venue served alone — deterministic, single executor, paused start.
#[test]
fn oldest_first_drains_whole_venues_in_arrival_order() {
    let venues: Vec<String> =
        ["hot", "cold-0", "cold-1", "cold-2"].iter().map(|s| (*s).to_string()).collect();
    let (registry, scan) = registry_for(&venues, 41);
    let mut server = LocalizationServer::start_paused(
        registry,
        ServerConfig {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_capacity: 64,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();

    let completions: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let submit = |venue: &str| {
        let completions = Arc::clone(&completions);
        let venue_owned = venue.to_string();
        handle
            .try_submit_with(Submit::new(venue, &scan), move |result| {
                result.expect("answered");
                completions.lock().expect("completions").push(venue_owned);
            })
            .expect("fits in queue");
    };
    for _ in 0..8 {
        submit("hot");
    }
    for cold in ["cold-0", "cold-1", "cold-2"] {
        submit(cold);
    }
    for _ in 0..8 {
        submit("hot");
    }

    server.resume();
    let deadline = Instant::now() + Duration::from_secs(20);
    while completions.lock().expect("completions").len() < 19 {
        assert!(Instant::now() < deadline, "timed out waiting for completions");
        std::thread::sleep(Duration::from_millis(2));
    }

    let order = completions.lock().expect("completions").clone();
    let mut expected = vec!["hot"; 8];
    expected.extend(["cold-0", "cold-1", "cold-2"]);
    expected.extend(["hot"; 8]);
    assert_eq!(order, expected, "oldest-venue-first, whole-venue drains");

    let stats = server.stats();
    server.shutdown();
    let hot = stats.venue("hot").expect("hot venue tracked");
    assert_eq!(hot.batch_hist[7], 2, "both hot drains stayed fat: {:?}", hot.batch_hist);
    assert_eq!(hot.completed, 16);
    for cold in ["cold-0", "cold-1", "cold-2"] {
        let v = stats.venue(cold).expect("cold venue tracked");
        assert_eq!(v.batch_hist[0], 1, "{cold} served as its own batch");
        assert_eq!(v.completed, 1);
    }
    // Aggregate histogram is the sum of the venue histograms.
    assert_eq!(stats.batches(), 5);
    assert_eq!(stats.mean_batch_size(), 19.0 / 5.0);
}

/// Inside the `max_wait` window the scheduler prefers the *deepest* venue —
/// a lone fresh request does not break up a fat batch opportunity — but
/// once a head ages past `max_wait` it goes first. Paused start: one early
/// "shallow" request, then 8 "deep" ones; the deep venue drains first.
#[test]
fn deepest_venue_wins_within_the_max_wait_window() {
    let venues: Vec<String> = ["shallow", "deep"].iter().map(|s| (*s).to_string()).collect();
    let (registry, scan) = registry_for(&venues, 42);
    let mut server = LocalizationServer::start_paused(
        registry,
        ServerConfig {
            max_batch: 8,
            // Far above scheduling jitter: "shallow" cannot turn overdue
            // between submit and the first drain on any plausible CI box.
            max_wait: Duration::from_secs(30),
            queue_capacity: 64,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();

    let completions: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let submit = |venue: &str| {
        let completions = Arc::clone(&completions);
        let venue_owned = venue.to_string();
        handle
            .try_submit_with(Submit::new(venue, &scan), move |result| {
                result.expect("answered");
                completions.lock().expect("completions").push(venue_owned);
            })
            .expect("fits in queue");
    };
    submit("shallow"); // oldest head, depth 1
    for _ in 0..8 {
        submit("deep"); // depth 8 == max_batch: executes with no straggler wait
    }

    server.resume();
    let deadline = Instant::now() + Duration::from_secs(20);
    while completions.lock().expect("completions").len() < 8 {
        assert!(Instant::now() < deadline, "timed out waiting for the deep batch");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        completions.lock().expect("completions").as_slice(),
        &["deep"; 8],
        "the full deep batch executed before the older shallow request"
    );
    // The shallow request is *scheduled* next (nothing else is queued); its
    // under-full batch may legitimately be held open for stragglers, so
    // shut down to flush it rather than wait out the window.
    server.shutdown();
    let order = completions.lock().expect("completions").clone();
    assert_eq!(order.len(), 9, "shutdown drained the shallow request");
    assert_eq!(order[8], "shallow");
}

/// The live starvation bound of the ISSUE: one hot venue under continuous
/// closed-loop load must not starve 15 cold venues — every cold request is
/// answered while the hot load is still running, far faster than waiting
/// for the hot backlog to dry up.
#[test]
fn hot_venue_does_not_starve_fifteen_cold_venues() {
    let mut venues: Vec<String> = vec!["hot".to_string()];
    venues.extend((0..15).map(|i| format!("cold-{i:02}")));
    let (registry, scan) = registry_for(&venues, 43);
    let mut server = LocalizationServer::start(
        registry,
        ServerConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(10),
            queue_capacity: 256,
            workers: 1,
            ..ServerConfig::default()
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    let cold_latencies = std::thread::scope(|s| {
        // Two hot producers keep the hot backlog non-empty for the whole
        // test: each pipelines 32 tickets at a time, refilling as they
        // drain, until told to stop.
        let hot_threads: Vec<_> = (0..2)
            .map(|_| {
                let handle = server.handle();
                let stop = Arc::clone(&stop);
                let scan = &scan;
                s.spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let tickets: Vec<_> = (0..32)
                            .map(|_| handle.submit("hot", scan).expect("hot enqueue"))
                            .collect();
                        for t in tickets {
                            t.wait().expect("hot answered");
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();

        // Let the hot backlog establish itself, then fire one request per
        // cold venue and time it.
        std::thread::sleep(Duration::from_millis(100));
        let handle = server.handle();
        let latencies: Vec<(String, Duration)> = venues[1..]
            .iter()
            .map(|venue| {
                let sent = Instant::now();
                handle.locate(venue, &scan).expect("cold venue answered");
                (venue.clone(), sent.elapsed())
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        let hot_served: u64 = hot_threads.into_iter().map(|t| t.join().expect("hot thread")).sum();
        assert!(hot_served > 0, "hot load ran");
        latencies
    });

    let stats = server.stats();
    server.shutdown();
    for (venue, latency) in &cold_latencies {
        // Generous CI bound — the point is "milliseconds, not the several
        // seconds a drain-the-hot-backlog-first policy would take".
        assert!(
            *latency < Duration::from_secs(2),
            "{venue} starved behind the hot venue: waited {latency:?}"
        );
    }
    let hot = stats.venue("hot").expect("hot venue tracked");
    assert!(hot.mean_batch_size() > 1.0, "hot venue coalesced under load: {:?}", hot.batch_hist);
    for (venue, _) in &cold_latencies {
        assert_eq!(stats.venue(venue).expect("cold venue tracked").completed, 1);
    }
}

/// The shed split (satellite 1): a venue hitting its own sub-queue cap
/// sheds with `VenueQueueFull` while the shared capacity sheds with
/// `QueueFull`, the per-venue stats attribute each cause, and the aggregate
/// `rejected` counter keeps counting both (the wire contract).
#[test]
fn venue_cap_and_global_capacity_shed_distinctly() {
    let venues: Vec<String> = ["a", "b", "c", "d", "e"].iter().map(|s| (*s).to_string()).collect();
    let (registry, scan) = registry_for(&venues, 44);
    let mut server = LocalizationServer::start_paused(
        registry,
        ServerConfig {
            max_batch: 16,
            max_wait: Duration::ZERO,
            queue_capacity: 8,
            venue_capacity: Some(2),
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();

    // Venue "a": 2 fit under the venue cap, 2 more shed as VenueQueueFull
    // (global capacity still has room).
    let mut tickets = Vec::new();
    for i in 0..4 {
        match try_submit(&handle, "a", &scan) {
            Ok(t) => {
                assert!(i < 2, "submission {i} beyond the venue cap was accepted");
                tickets.push(t);
            }
            Err(e) => {
                assert!(i >= 2, "submission {i} under the venue cap was shed: {e}");
                assert_eq!(e, ServeError::VenueQueueFull { venue: "a".into() });
            }
        }
    }
    // Venues b, c, d: 2 each — the queue now holds 8 == queue_capacity.
    for venue in ["b", "c", "d"] {
        for _ in 0..2 {
            tickets.push(try_submit(&handle, venue, &scan).expect("fits under both caps"));
        }
    }
    // Venue "e" has an empty sub-queue, but the *global* capacity is gone.
    assert_eq!(try_submit(&handle, "e", &scan).unwrap_err(), ServeError::QueueFull);

    let stats = server.stats();
    assert_eq!(stats.rejected, 3, "aggregate rejected counts both shed causes");
    assert_eq!(stats.enqueued, 8);
    let a = stats.venue("a").expect("venue a tracked");
    assert_eq!((a.shed_venue, a.shed_global), (2, 0));
    let e = stats.venue("e").expect("venue e tracked");
    assert_eq!((e.shed_venue, e.shed_global), (0, 1));
    assert_eq!(e.enqueued, 0, "a shed is never counted as enqueued");

    server.resume();
    for rx in tickets {
        rx.recv().expect("answered").expect("accepted request answered");
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.queue_depth, 0);
}

/// Satellite 2: removing a venue from the registry while requests for it
/// sit in the queue fails exactly those requests with a per-request
/// `UnknownVenue` — no panic, no hung ticket — and other venues' queued
/// requests still succeed.
#[test]
fn removing_a_venue_with_queued_requests_fails_them_per_request() {
    let venues: Vec<String> = ["office", "doomed"].iter().map(|s| (*s).to_string()).collect();
    let (registry, scan) = registry_for(&venues, 45);
    let mut server = LocalizationServer::start_paused(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_capacity: 16,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let handle = server.handle();

    let doomed: Vec<_> =
        (0..3).map(|_| try_submit(&handle, "doomed", &scan).expect("enqueue")).collect();
    let office: Vec<_> =
        (0..2).map(|_| try_submit(&handle, "office", &scan).expect("enqueue")).collect();

    assert!(registry.remove("doomed"), "venue was published");
    server.resume();

    for rx in doomed {
        assert_eq!(
            rx.recv().expect("answered").unwrap_err(),
            ServeError::UnknownVenue { venue: "doomed".into() },
            "queued request for the removed venue fails individually"
        );
    }
    for rx in office {
        rx.recv().expect("answered").expect("other venues unaffected by the removal");
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.completed, 5, "every queued request was answered, none dropped");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.venue("doomed").expect("doomed venue tracked").completed, 3);
}

/// Satellite 3 (ledger half): exactly K requests beyond capacity are shed,
/// and the serve-side ledger, the per-venue breakdown and the wire-visible
/// `Shed` count all agree — across kernel thread budgets 1, 2 and 8.
#[test]
fn exactly_k_shed_ledgers_agree_wire_vs_serve_across_thread_budgets() {
    const CAPACITY: usize = 4;
    const SENT: usize = 9;
    let venues = vec!["office".to_string()];
    let (registry, scan) = registry_for(&venues, 46);

    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            let inner = LocalizationServer::start_paused(
                Arc::clone(&registry),
                ServerConfig {
                    max_batch: 16,
                    max_wait: Duration::ZERO,
                    queue_capacity: CAPACITY,
                    workers: 1,
                    ..ServerConfig::default()
                },
            );
            let mut server = NetServer::start_with(inner, "127.0.0.1:0").expect("bind");
            let mut client = NetClient::connect(server.local_addr()).expect("connect");
            client.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");

            for _ in 0..SENT {
                client.send("office", &scan).expect("send");
            }
            // The overflow beyond CAPACITY comes back first, shed inline.
            let mut shed = 0;
            for _ in 0..SENT - CAPACITY {
                let resp = client.recv().expect("shed response");
                assert_eq!(resp.result, Err(WireStatus::Shed));
                shed += 1;
            }
            server.resume();
            for _ in 0..CAPACITY {
                let resp = client.recv().expect("answer");
                resp.result.expect("accepted request answered");
            }

            let serve = server.serve_stats();
            let wire = server.shutdown();
            assert_eq!(shed, SENT - CAPACITY);
            assert_eq!(serve.rejected as usize, SENT - CAPACITY, "threads={threads}");
            assert_eq!(serve.completed as usize, CAPACITY, "threads={threads}");
            let venue = serve.venue("office").expect("venue tracked");
            assert_eq!(venue.shed_global as usize, SENT - CAPACITY, "threads={threads}");
            assert_eq!(venue.shed_venue, 0, "threads={threads}");
            assert_eq!(venue.completed as usize, CAPACITY, "threads={threads}");
            assert_eq!(wire.shed as usize, SENT - CAPACITY, "threads={threads}");
            assert_eq!(wire.requests_decoded as usize, SENT, "threads={threads}");
            assert_eq!(wire.responses_written as usize, SENT, "threads={threads}");
        });
    }
}
