//! The resilience acceptance suite (PR 9): deadlines expire in the queue
//! without ever reaching the model, a panicking model fails only its own
//! batch, consecutive panics trip the per-venue circuit breaker (fast-fail,
//! half-open probe, re-close) and roll the venue back to its last-good
//! snapshot, and a corrupt publish is rejected while the old model keeps
//! serving. The breaker lifecycle is pinned across `STONE_THREADS` budgets
//! of 1, 2 and 8.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use stone::{KnnMode, StoneBuilder, StoneConfig, StoneLocalizer, TrainerConfig};
use stone_dataset::{office_suite, SuiteConfig};
use stone_par::with_threads;
use stone_serve::{
    corrupt_blob, ChaosConfig, LocalizationServer, LocateResponse, ModelRegistry, ServeError,
    ServerConfig, ServerHandle, Submit,
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

/// One trained model blob plus a scan that matches it — the suite fixture.
/// Training once and republishing the blob keeps each test's wall clock on
/// the serving path under test, not on gradient descent.
fn fixture(seed: u64) -> (Vec<u8>, Vec<f32>) {
    let suite = office_suite(&SuiteConfig::tiny(seed));
    let model = tiny_localizer(&suite.train, seed);
    let scan = suite.train.records()[0].rssi.clone();
    (model.save(), scan)
}

fn quick_config() -> ServerConfig {
    ServerConfig { max_batch: 16, ..ServerConfig::default() }
}

/// Submits `scan` with a deadline budget; the receiver yields its answer.
fn submit_deadline(
    handle: &ServerHandle,
    scan: &[f32],
    deadline: Duration,
) -> mpsc::Receiver<Result<LocateResponse, ServeError>> {
    let (tx, rx) = mpsc::channel();
    let submit = Submit { deadline: Some(deadline), ..Submit::new("office", scan) };
    handle.try_submit_with(submit, move |result| drop(tx.send(result))).expect("queue has room");
    rx
}

/// Requests whose deadline lapses while queued answer `DeadlineExceeded`
/// and never occupy a batch slot; requests without a deadline (or with
/// budget to spare) are untouched. Paused executors make the race-free
/// version of the scenario: everything is queued, *then* time passes,
/// *then* the drain runs.
#[test]
fn expired_requests_never_reach_the_model() {
    let (blob, scan) = fixture(11);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("office", &blob).expect("publish");

    let mut server = LocalizationServer::start_paused(Arc::clone(&registry), quick_config());
    let handle = server.handle();

    // 3 requests with a 5 ms budget, 3 with none, interleaved.
    let mut doomed = Vec::new();
    let mut alive = Vec::new();
    for _ in 0..3 {
        doomed.push(submit_deadline(&handle, &scan, Duration::from_millis(5)));
        alive.push(handle.submit("office", &scan).expect("accepts while paused"));
    }
    std::thread::sleep(Duration::from_millis(20));
    server.resume();

    for rx in doomed {
        let result = rx.recv().expect("answered");
        assert_eq!(result.unwrap_err(), ServeError::DeadlineExceeded { venue: "office".into() });
    }
    for t in alive {
        assert_eq!(t.wait().expect("no-deadline requests answer").model_version, 1);
    }

    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.expired, 3);
    assert_eq!(stats.completed, 6, "expired requests still count as completions");
    assert_eq!(stats.queue_depth, 0);
    // Expired requests never occupied a batch slot: every executed batch is
    // made of live requests only.
    let batched: u64 = stats.batch_hist.iter().enumerate().map(|(i, &n)| (i as u64 + 1) * n).sum();
    assert_eq!(batched, 3, "only the three live requests were batched");
    let office = stats.venues.iter().find(|v| v.venue == "office").expect("venue stats");
    assert_eq!(office.expired, 3);
    assert_eq!(office.panicked_batches, 0);
}

/// A generous deadline is a no-op: the request executes normally and the
/// expired counter stays zero.
#[test]
fn unexpired_deadlines_do_not_drop_requests() {
    let (blob, scan) = fixture(12);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("office", &blob).expect("publish");
    let mut server = LocalizationServer::start(Arc::clone(&registry), quick_config());
    let handle = server.handle();
    let rx = submit_deadline(&handle, &scan, Duration::from_secs(30));
    let resp = rx.recv().expect("answered").expect("in budget");
    assert_eq!(resp.model_version, 1);
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.completed, 1);
}

/// The full breaker lifecycle, deterministic because the server's one
/// executor runs one batch at a time: a panicking v2 model fails its own batches
/// (`Internal`, executor survives), the second consecutive panic trips the
/// breaker (rolling the venue back to last-good v1), the open breaker
/// fast-fails without touching the model, and the post-cooldown half-open
/// probe lands on the rolled-back v1 and re-closes. Pinned at
/// `STONE_THREADS` ∈ {1, 2, 8} — the kernel thread budget must not change
/// any of it.
#[test]
fn breaker_trips_rolls_back_and_recloses_across_thread_budgets() {
    let (blob, scan) = fixture(13);
    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            let registry = Arc::new(ModelRegistry::new());
            assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 1);
            assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 2);

            // Panic every batch that executes against v2; v1 is healthy.
            let chaos = ChaosConfig::none().with_panic("office", Some(2), None);
            let cooldown = Duration::from_millis(40);
            let mut server = LocalizationServer::start_with_chaos(
                Arc::clone(&registry),
                ServerConfig { breaker_threshold: 2, breaker_cooldown: cooldown, ..quick_config() },
                chaos,
            );
            let handle = server.handle();

            // Two consecutive panicked batches: isolated per-batch failures.
            for _ in 0..2 {
                assert_eq!(
                    handle.locate("office", &scan).unwrap_err(),
                    ServeError::Internal { venue: "office".into() }
                );
            }
            // The trip rolled the venue back to last-good v1 (consuming it).
            assert_eq!(registry.snapshot("office").expect("still published").version(), 1);
            assert_eq!(registry.last_good_version("office"), None);

            // While open: fast-fail, no model touched, no new panics.
            let opened = Instant::now();
            assert_eq!(
                handle.locate("office", &scan).unwrap_err(),
                ServeError::VenueUnavailable { venue: "office".into() }
            );
            assert!(opened.elapsed() < cooldown, "fast-fail must not wait out the cooldown");

            // After the cooldown the half-open probe executes against the
            // rolled-back v1, succeeds, and re-closes the breaker.
            std::thread::sleep(cooldown + Duration::from_millis(10));
            let probe = handle.locate("office", &scan).expect("probe lands on last-good v1");
            assert_eq!(probe.model_version, 1);
            let after = handle.locate("office", &scan).expect("breaker re-closed");
            assert_eq!(after.model_version, 1);

            let stats = server.stats();
            server.shutdown();
            assert_eq!(stats.panicked_batches, 2);
            let office = stats.venues.iter().find(|v| v.venue == "office").expect("venue stats");
            assert_eq!(office.panicked_batches, 2);
            assert_eq!(office.breaker_trips, 1);
            assert_eq!(office.fast_failed, 1);
            assert_eq!(office.completed, 5, "every request was answered exactly once");
        });
    }
}

/// `breaker_threshold: 0` disables the breaker: every panicking batch fails
/// `Internal`, nothing fast-fails, and no rollback happens.
#[test]
fn breaker_threshold_zero_disables_tripping() {
    let (blob, scan) = fixture(14);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("office", &blob).expect("publish");

    let chaos = ChaosConfig::none().with_panic("office", None, None);
    let mut server = LocalizationServer::start_with_chaos(
        Arc::clone(&registry),
        ServerConfig { breaker_threshold: 0, ..quick_config() },
        chaos,
    );
    let handle = server.handle();
    for _ in 0..4 {
        assert_eq!(
            handle.locate("office", &scan).unwrap_err(),
            ServeError::Internal { venue: "office".into() }
        );
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.panicked_batches, 4);
    let office = stats.venues.iter().find(|v| v.venue == "office").expect("venue stats");
    assert_eq!(office.breaker_trips, 0);
    assert_eq!(office.fast_failed, 0);
    assert_eq!(registry.snapshot("office").expect("still published").version(), 1);
}

/// A panicking venue never bleeds into a healthy one: with chaos armed for
/// "flaky" only, "stable" keeps answering throughout trip and cooldown.
#[test]
fn panicking_venue_does_not_affect_others() {
    let (blob, scan) = fixture(15);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("stable", &blob).expect("publish");
    registry.publish_bytes("flaky", &blob).expect("publish");

    let chaos = ChaosConfig::none().with_panic("flaky", None, None);
    let mut server = LocalizationServer::start_with_chaos(
        Arc::clone(&registry),
        ServerConfig { breaker_threshold: 2, ..quick_config() },
        chaos,
    );
    let handle = server.handle();
    for _ in 0..3 {
        assert!(handle.locate("flaky", &scan).is_err());
        assert!(handle.locate("stable", &scan).is_ok());
    }
    let stats = server.stats();
    server.shutdown();
    let stable = stats.venues.iter().find(|v| v.venue == "stable").expect("venue stats");
    assert_eq!(stable.panicked_batches, 0);
    assert_eq!(stable.fast_failed, 0);
    assert_eq!(stable.completed, 3);
}

/// An injected stall delays the batch but does not corrupt it, and a
/// bounded `count` disarms the rule after it fires.
#[test]
fn stall_chaos_delays_but_answers() {
    let (blob, scan) = fixture(16);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("office", &blob).expect("publish");

    let stall = Duration::from_millis(30);
    let chaos = ChaosConfig::none().with_stall("office", None, stall, Some(1));
    let mut server =
        LocalizationServer::start_with_chaos(Arc::clone(&registry), quick_config(), chaos);
    let handle = server.handle();

    let t0 = Instant::now();
    let slow = handle.locate("office", &scan).expect("stalled, not failed");
    assert!(t0.elapsed() >= stall, "first batch absorbs the injected stall");
    // The budget of 1 is spent: later batches run at full speed (asserting
    // only correctness — wall-clock upper bounds flake on loaded CI).
    let fast = handle.locate("office", &scan).expect("rule disarmed");
    assert_eq!(slow.position, fast.position);
    server.shutdown();
}

/// A corrupt publish is rejected by the blob checksum before it can serve,
/// and the incumbent model keeps answering mid-drain; a clean republish
/// then takes over at the next version.
#[test]
fn corrupt_publish_is_rejected_and_old_model_keeps_serving() {
    let (blob, scan) = fixture(17);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("office", &blob).expect("publish");

    let mut server = LocalizationServer::start(Arc::clone(&registry), quick_config());
    let handle = server.handle();
    let before = handle.locate("office", &scan).expect("serving v1");
    assert_eq!(before.model_version, 1);

    // Mid-drain: keep a stream of requests in flight while the corrupt
    // publish is attempted, so "the old model keeps serving" is exercised
    // under load rather than at rest.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let h = server.handle();
            let scan = scan.clone();
            std::thread::spawn(move || {
                let mut answered = 0u64;
                for _ in 0..50 {
                    let resp = h.locate("office", &scan).expect("old model keeps serving");
                    assert_eq!(resp.model_version, 1);
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    let corrupted = corrupt_blob(&blob);
    assert!(registry.publish_bytes("office", &corrupted).is_err(), "checksum rejects the blob");
    assert_eq!(registry.snapshot("office").expect("still published").version(), 1);

    for w in workers {
        assert_eq!(w.join().expect("no panic"), 50);
    }

    // A clean republish takes over cleanly at v2.
    assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 2);
    let after = handle.locate("office", &scan).expect("serving v2");
    assert_eq!(after.model_version, 2);
    server.shutdown();
}

/// Removing a venue with requests still queued fails each of them with
/// `UnknownVenue` (nothing hangs, nothing panics), and a republish starts a
/// fresh version lineage that serves immediately.
#[test]
fn remove_then_republish_venue_with_queued_requests() {
    let (blob, scan) = fixture(18);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes("office", &blob).expect("publish");

    let mut server = LocalizationServer::start_paused(Arc::clone(&registry), quick_config());
    let handle = server.handle();
    let tickets: Vec<_> =
        (0..4).map(|_| handle.submit("office", &scan).expect("accepts while paused")).collect();

    assert!(registry.remove("office"));
    server.resume();
    for t in tickets {
        assert_eq!(t.wait().unwrap_err(), ServeError::UnknownVenue { venue: "office".into() });
    }

    // Republish: a removed venue restarts its lineage at v1 and serves.
    assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 1);
    let resp = handle.locate("office", &scan).expect("republished venue serves");
    assert_eq!(resp.model_version, 1);
    server.shutdown();
}

/// The registry's last-good retention contract: publish keeps exactly one
/// predecessor, rollback consumes it (restoring its version), and the
/// version counter never reuses numbers even across a rollback.
#[test]
fn registry_rollback_restores_last_good_and_keeps_versions_monotonic() {
    let (blob, _) = fixture(19);
    let registry = ModelRegistry::new();
    assert_eq!(registry.rollback("office"), None, "nothing to roll back yet");

    assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 1);
    assert_eq!(registry.last_good_version("office"), None, "first publish has no predecessor");

    assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 2);
    assert_eq!(registry.last_good_version("office"), Some(1));

    assert_eq!(registry.rollback("office"), Some(1));
    assert_eq!(registry.snapshot("office").expect("published").version(), 1);
    assert_eq!(registry.last_good_version("office"), None, "rollback consumes last-good");
    assert_eq!(registry.rollback("office"), None, "a second rollback has nowhere to go");

    // The counter is monotonic across the rollback: no version reuse.
    assert_eq!(registry.publish_bytes("office", &blob).unwrap(), 3);
    assert_eq!(registry.last_good_version("office"), Some(1));
}
