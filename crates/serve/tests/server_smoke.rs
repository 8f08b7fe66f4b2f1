//! The serving-layer acceptance test: concurrent clients, observable
//! coalescing, warm reload mid-stream with zero dropped queries, and
//! bitwise agreement with direct serial `locate` calls on the same model
//! snapshot.

use std::sync::Arc;

use stone::{KnnMode, StoneBuilder, StoneConfig, StoneLocalizer, TrainerConfig};
use stone_dataset::{office_suite, Localizer, SuiteConfig};
use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig};

const CLIENTS: usize = 4;
const SCANS_PER_CLIENT_PER_PHASE: usize = 8;

fn tiny_localizer(train: &stone_dataset::FingerprintDataset, seed: u64) -> StoneLocalizer {
    StoneBuilder::from_config(StoneConfig {
        trainer: TrainerConfig {
            embed_dim: 4,
            epochs: 2,
            triplets_per_epoch: 32,
            batch_size: 16,
            ..TrainerConfig::quick()
        },
        knn_k: 3,
        knn_mode: KnnMode::WeightedRegression,
    })
    .fit(train, seed)
}

#[test]
fn concurrent_clients_coalesce_and_survive_warm_reload() {
    let suite = office_suite(&SuiteConfig::tiny(42));
    // Scans drawn from the evaluation buckets — real "phones months after
    // deployment" queries, one distinct scan per (client, slot).
    let scans: Vec<Vec<f32>> = suite
        .buckets
        .iter()
        .flat_map(|b| b.trajectories.iter().flat_map(|t| &t.fingerprints))
        .map(|f| f.rssi.clone())
        .take(CLIENTS * SCANS_PER_CLIENT_PER_PHASE * 2)
        .collect();
    assert_eq!(scans.len(), 64, "need 64 distinct scans for the two phases");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("office", tiny_localizer(&suite.train, 1));
    let retrained = tiny_localizer(&suite.train, 2);

    let mut server = LocalizationServer::start(
        Arc::clone(&registry),
        ServerConfig { max_batch: 16, queue_capacity: 256, ..ServerConfig::default() },
    );
    let v1 = registry.snapshot("office").expect("v1 published");
    assert_eq!(v1.version(), 1);

    // Phase 1: 4 clients × 8 pipelined single-scan queries against v1.
    let phase1: Vec<(usize, stone_serve::LocateResponse)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let scans = &scans;
                s.spawn(move || {
                    let mine: Vec<usize> = (0..SCANS_PER_CLIENT_PER_PHASE)
                        .map(|k| c * SCANS_PER_CLIENT_PER_PHASE + k)
                        .collect();
                    // Submit every ticket first (pipelining into the
                    // coalescing window), then collect.
                    let tickets: Vec<_> = mine
                        .iter()
                        .map(|&i| handle.submit("office", &scans[i]).expect("enqueue"))
                        .collect();
                    mine.into_iter()
                        .zip(tickets)
                        .map(|(i, t)| (i, t.wait().expect("answered")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(phase1.len(), CLIENTS * SCANS_PER_CLIENT_PER_PHASE, "phase 1 dropped queries");
    for (i, resp) in &phase1 {
        assert_eq!(resp.model_version, 1, "phase 1 ran before the reload");
        assert_eq!(
            resp.position,
            v1.model().locate(&scans[*i]),
            "scan {i}: served answer differs from direct locate on v1"
        );
    }

    // Phase 2: same client pattern, with the retrained model published
    // concurrently — mid-stream, while queries are in flight. No query may
    // be dropped; each answer must match the snapshot its version names.
    let phase2: Vec<(usize, stone_serve::LocateResponse)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let scans = &scans;
                s.spawn(move || {
                    let base = CLIENTS * SCANS_PER_CLIENT_PER_PHASE;
                    let mine: Vec<usize> = (0..SCANS_PER_CLIENT_PER_PHASE)
                        .map(|k| base + c * SCANS_PER_CLIENT_PER_PHASE + k)
                        .collect();
                    let tickets: Vec<_> = mine
                        .iter()
                        .map(|&i| handle.submit("office", &scans[i]).expect("enqueue"))
                        .collect();
                    mine.into_iter()
                        .zip(tickets)
                        .map(|(i, t)| (i, t.wait().expect("answered")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // The warm reload races the in-flight phase-2 queries on purpose.
        let swapper = {
            let registry = Arc::clone(&registry);
            s.spawn(move || registry.publish("office", retrained))
        };
        assert_eq!(swapper.join().expect("swap thread"), 2);
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let v2 = registry.snapshot("office").expect("v2 published");
    assert_eq!(v2.version(), 2);
    assert_eq!(phase2.len(), CLIENTS * SCANS_PER_CLIENT_PER_PHASE, "reload dropped queries");
    for (i, resp) in &phase2 {
        let snapshot = match resp.model_version {
            1 => &v1,
            2 => &v2,
            v => panic!("scan {i}: unknown model version {v}"),
        };
        assert_eq!(
            resp.position,
            snapshot.model().locate(&scans[*i]),
            "scan {i}: served answer differs from direct locate on v{}",
            resp.model_version
        );
    }

    // After the reload settles, new queries must see v2.
    let settled = server.handle().locate("office", &scans[0]).expect("post-reload query");
    assert_eq!(settled.model_version, 2);
    assert_eq!(settled.position, v2.model().locate(&scans[0]));

    let stats = server.stats();
    server.shutdown();
    let total = (CLIENTS * SCANS_PER_CLIENT_PER_PHASE * 2 + 1) as u64;
    assert_eq!(stats.enqueued, total, "every query was accepted");
    assert_eq!(stats.completed, total, "every query was answered — zero drops");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.queue_depth, 0, "nothing left in flight");
    assert!(
        stats.coalesced_batches() > 0,
        "batch-size histogram shows no coalescing: {:?}",
        stats.batch_hist
    );
    // p50/p99 are observable once traffic has flowed.
    assert!(stats.p50().is_some() && stats.p99().is_some());
    assert!(stats.p50() <= stats.p99());
}
