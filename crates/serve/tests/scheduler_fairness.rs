//! The venue-sharded scheduler contract: single-venue batches
//! drained oldest-head-first (no starvation), venue removal failing queued
//! requests per-request, and the exactly-K-shed ledger agreeing
//! wire-vs-serve across kernel thread budgets.

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

/// The scheduler runs strictly oldest-venue-first while still draining
/// whole venues: requests interleaved as hot×8, cold-0..2, hot×8 complete
/// as exactly that venue sequence, with the hot venue's two batches
/// staying fat (size 8) and each cold venue served alone — deterministic,
/// single executor, paused start.
#[test]
fn oldest_first_drains_whole_venues_in_arrival_order() {
    let venues: Vec<String> =
        ["hot", "cold-0", "cold-1", "cold-2"].iter().map(|s| (*s).to_string()).collect();
    let (registry, scan) = registry_for(&venues, 41);
    let mut server = LocalizationServer::start_paused(
        registry,
        ServerConfig { max_batch: 8, queue_capacity: 64, ..ServerConfig::default() },
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
        ServerConfig { max_batch: 16, queue_capacity: 256, ..ServerConfig::default() },
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
        ServerConfig { max_batch: 8, queue_capacity: 16, ..ServerConfig::default() },
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
                ServerConfig { max_batch: 16, queue_capacity: CAPACITY, ..ServerConfig::default() },
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
            assert_eq!(venue.shed as usize, SENT - CAPACITY, "threads={threads}");
            assert_eq!(venue.completed as usize, CAPACITY, "threads={threads}");
            assert_eq!(wire.shed as usize, SENT - CAPACITY, "threads={threads}");
            assert_eq!(wire.requests_decoded as usize, SENT, "threads={threads}");
            assert_eq!(wire.responses_written as usize, SENT, "threads={threads}");
        });
    }
}
