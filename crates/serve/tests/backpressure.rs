//! The in-process half of the backpressure contract (satellite 3): with a
//! paused server and a queue of capacity K, exactly the overflow beyond K
//! is shed, the stats ledger matches, and the `try_submit_with` callback
//! fires exactly once per request — including across shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stone::{KnnMode, StoneBuilder, StoneConfig, StoneLocalizer, TrainerConfig};
use stone_dataset::{office_suite, SuiteConfig};
use stone_serve::{LocalizationServer, ModelRegistry, ServeError, ServerConfig, Submit};

const CAPACITY: usize = 4;
const SUBMITTED: usize = 9;

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

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn overflow_beyond_capacity_is_shed_exactly() {
    let suite = office_suite(&SuiteConfig::tiny(11));
    let scan = suite.train.records()[0].rssi.clone();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("office", tiny_localizer(&suite.train, 1));

    // Paused: the executors are parked, so "queue full" is a state we set
    // up exactly, not a race we hope to win.
    let mut server = LocalizationServer::start_paused(
        registry,
        ServerConfig { max_batch: 16, queue_capacity: CAPACITY, ..ServerConfig::default() },
    );
    let handle = server.handle();

    type Outcomes = Arc<Mutex<Vec<(usize, Result<u64, ServeError>)>>>;
    let outcomes: Outcomes = Arc::new(Mutex::new(Vec::new()));
    let mut returns = Vec::new();
    for i in 0..SUBMITTED {
        let outcomes = Arc::clone(&outcomes);
        returns.push(handle.try_submit_with(Submit::new("office", &scan), move |result| {
            outcomes.lock().expect("outcomes").push((i, result.map(|r| r.model_version)));
        }));
    }

    // The first K submissions were accepted; the rest were refused at the
    // door, with their callbacks already run (QueueFull) before the call
    // returned.
    for (i, r) in returns.iter().enumerate() {
        if i < CAPACITY {
            assert!(r.is_ok(), "submission {i} should fit (capacity {CAPACITY})");
        } else {
            assert!(matches!(r, Err(ServeError::QueueFull)), "submission {i} should shed: {r:?}");
        }
    }
    {
        let shed: Vec<usize> = outcomes.lock().expect("outcomes").iter().map(|o| o.0).collect();
        assert_eq!(shed, (CAPACITY..SUBMITTED).collect::<Vec<_>>(), "shed callbacks fire inline");
    }
    let stats = server.stats();
    assert_eq!(stats.rejected as usize, SUBMITTED - CAPACITY);
    assert_eq!(stats.enqueued as usize, CAPACITY, "a shed is never counted as enqueued");
    assert_eq!(stats.queue_depth, CAPACITY);
    assert_eq!(stats.completed, 0, "nothing executed while paused");

    // Resume: everything accepted is answered.
    server.resume();
    wait_for(|| outcomes.lock().expect("outcomes").len() == SUBMITTED, "accepted answers");

    let mut seen = [0usize; SUBMITTED];
    for (i, result) in outcomes.lock().expect("outcomes").iter() {
        seen[*i] += 1;
        if *i < CAPACITY {
            assert_eq!(*result, Ok(1), "accepted request answered by model v1");
        } else {
            assert_eq!(*result, Err(ServeError::QueueFull));
        }
    }
    assert_eq!(seen, [1; SUBMITTED], "every callback fired exactly once");

    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.completed as usize, CAPACITY);
    assert_eq!(stats.rejected as usize, SUBMITTED - CAPACITY);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn callbacks_fire_exactly_once_across_shutdown() {
    let suite = office_suite(&SuiteConfig::tiny(12));
    let scan = suite.train.records()[0].rssi.clone();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("office", tiny_localizer(&suite.train, 1));

    let mut server = LocalizationServer::start_paused(
        registry,
        ServerConfig { max_batch: 16, queue_capacity: 8, ..ServerConfig::default() },
    );
    let handle = server.handle();

    let fired = Arc::new(AtomicUsize::new(0));
    let ok = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let fired = Arc::clone(&fired);
        let ok = Arc::clone(&ok);
        handle
            .try_submit_with(Submit::new("office", &scan), move |result| {
                fired.fetch_add(1, Ordering::SeqCst);
                if result.is_ok() {
                    ok.fetch_add(1, Ordering::SeqCst);
                }
            })
            .expect("fits in queue");
    }
    assert_eq!(fired.load(Ordering::SeqCst), 0, "paused server has not answered yet");

    // Shutdown resumes the executors and drains: both accepted requests
    // are *answered*, not dropped.
    server.shutdown();
    assert_eq!(fired.load(Ordering::SeqCst), 2, "drain answers everything accepted");
    assert_eq!(ok.load(Ordering::SeqCst), 2, "drained requests succeed");

    // After shutdown the callback still fires exactly once — inline, with
    // ShuttingDown.
    let fired_in_cb = Arc::clone(&fired);
    let r = handle.try_submit_with(Submit::new("office", &scan), move |result| {
        assert!(matches!(result, Err(ServeError::ShuttingDown)));
        fired_in_cb.fetch_add(1, Ordering::SeqCst);
    });
    assert!(matches!(r, Err(ServeError::ShuttingDown)));
    assert_eq!(fired.load(Ordering::SeqCst), 3, "post-shutdown callback fired inline");
}
