//! Stage-span tracing through the live server.
//!
//! Pins the PR 10 attribution contract: when tracing is enabled, every
//! *answered* request records exactly five contiguous stage spans (queue
//! wait → collect → snapshot → infer → write-back) under one trace ID,
//! the span ledger stays balanced (opened == closed), and a request
//! served while tracing is disabled records nothing at all.
//!
//! Tracing state is process-global, so this file holds a single test.

use std::collections::HashMap;
use std::sync::Arc;

use stone::{KnnMode, StoneBuilder, StoneConfig, TrainerConfig};
use stone_dataset::{office_suite, SuiteConfig};
use stone_obs::{set_tracing, span_ledger, span_snapshot, Stage};
use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig};

fn tiny_localizer(train: &stone_dataset::FingerprintDataset, seed: u64) -> stone::StoneLocalizer {
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

#[test]
fn traced_requests_record_balanced_contiguous_stage_spans() {
    let suite = office_suite(&SuiteConfig::tiny(11));
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("office", tiny_localizer(&suite.train, 11));
    let mut server = LocalizationServer::start(
        Arc::clone(&registry),
        ServerConfig { max_batch: 8, ..Default::default() },
    );
    let handle = server.handle();

    // Disabled (the default): requests run untraced and touch the ledger
    // not at all.
    let baseline = span_ledger();
    handle.locate("office", &suite.train.records()[0].rssi).expect("untraced locate");
    assert_eq!(span_ledger(), baseline, "disabled tracing records nothing");

    set_tracing(true);
    let (opened0, closed0) = span_ledger();
    let pending: Vec<_> = (0..16)
        .map(|i| handle.submit("office", &suite.train.records()[i % 4].rssi).expect("submit"))
        .collect();
    for p in pending {
        p.wait().expect("traced locate");
    }
    // Shut down *before* disabling tracing: joining the executors
    // guarantees every in-flight span was recorded first.
    server.shutdown();
    let (opened1, closed1) = span_ledger();
    set_tracing(false);

    assert_eq!(opened1 - opened0, closed1 - closed0, "span ledger balances");
    assert_eq!(opened1 - opened0, 16 * 5, "five spans per answered request");

    let mut by_trace: HashMap<u64, Vec<stone_obs::SpanRecord>> = HashMap::new();
    for rec in span_snapshot() {
        by_trace.entry(rec.trace_id).or_default().push(rec);
    }
    let complete: Vec<&Vec<stone_obs::SpanRecord>> =
        by_trace.values().filter(|s| s.len() == 5).collect();
    assert!(!complete.is_empty(), "ring retains at least one complete trace");
    for spans in complete {
        let mut ordered = spans.clone();
        ordered.sort_by_key(|s| s.stage as u8);
        let stages: Vec<Stage> = ordered.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            [Stage::QueueWait, Stage::Collect, Stage::Snapshot, Stage::Infer, Stage::WriteBack],
            "each stage appears exactly once"
        );
        // Contiguity is the attribution contract: stage k+1 starts where
        // stage k ended, so the five durations sum to the request's
        // end-to-end latency. Microsecond truncation of start/duration
        // allows a couple of µs of slack at each boundary.
        for w in ordered.windows(2) {
            let end = w[0].start_us + w[0].dur_us;
            assert!(
                w[1].start_us + 3 >= end && w[1].start_us <= end + 3,
                "stage {} ends at {}µs but stage {} starts at {}µs",
                w[0].stage,
                end,
                w[1].stage,
                w[1].start_us
            );
        }
    }
}
