//! # stone-serve
//!
//! The online half of the reproduction: a long-running localization server
//! in front of [`stone::StoneLocalizer`], built only on std threads and
//! channels (the workspace builds offline — see the `shims/` policy).
//!
//! The offline pipeline (`stone-dataset` → `stone` → `stone-eval`) answers
//! "how accurate is the model months after deployment?"; this crate answers
//! the ROADMAP's other question — serving location queries to many phones
//! at once. Three pieces:
//!
//! * [`LocalizationServer`] — a **venue-sharded** bounded request queue
//!   (per-venue FIFO sub-queues under one shared global capacity) plus one
//!   batch executor thread that drains **single-venue** batches and
//!   **coalesces concurrent single-scan queries** into
//!   [`stone::StoneLocalizer::locate_batch`] calls (micro-batching up to
//!   [`ServerConfig::max_batch`], backpressure via the bounded queue). A
//!   phone submits one scan; the server amortizes the encoder forward pass
//!   across every scan that piled up *for the same venue* while the
//!   previous batch ran — batches stay fat per venue however many venues
//!   fan out, and the scheduler drains the venue whose head request is
//!   oldest, so no venue starves.
//! * [`ModelRegistry`] — per-venue models behind atomic [`Arc`] swaps:
//!   publishing a retrained model is a **warm reload**. In-flight batches
//!   finish on the snapshot they started with, new batches see the new
//!   model, and no query is ever dropped. Models cross process boundaries
//!   via [`stone::StoneLocalizer::save`]/`load`
//!   ([`ModelRegistry::publish_bytes`]).
//! * [`StatsSnapshot`] — queue depth, a batch-size histogram (the direct
//!   observability of coalescing) and p50/p99 enqueue→reply latency
//!   (rank-interpolated within power-of-two buckets), per venue
//!   ([`VenueStatsSnapshot`]) and summed across venues. Snapshots render as
//!   Prometheus-style text ([`StatsSnapshot::exposition`]) for the wire
//!   admin endpoint.
//!
//! Clients reach the server through [`ServerHandle`]: [`ServerHandle::submit`]
//! blocks while the queue is full and returns a ticket,
//! [`ServerHandle::try_submit_with`] takes a [`Submit`] (venue, scan,
//! optional deadline and trace ID) and sheds instead of blocking, answering
//! through a callback, and [`ServerHandle::locate`] is submit-and-wait.
//! The queue's shards double as the **venue table**: each venue's counters
//! and circuit breaker live in its shard and travel to the executor with
//! its batch.
//!
//! # Observability
//!
//! The crate feeds the `stone-obs` tracing layer: every submit mints (or
//! carries, for wire requests) a trace ID, and when tracing is enabled
//! ([`stone_obs::set_tracing`]) each answered request records five
//! contiguous stage spans — queue wait, collect, snapshot, infer,
//! write-back — whose durations sum to its end-to-end latency. Hot-path
//! cost when disabled is one relaxed atomic load per request.
//! [`ServerHandle::breaker_states`] exposes each venue's [`BreakerState`]
//! for the admin surfaces.
//!
//! # Resilience
//!
//! Failure is contained per layer (DESIGN.md, "Failure modes & degradation
//! ladder"): a request may carry a **deadline** budget — expired requests
//! are dropped at batch-collect time with [`ServeError::DeadlineExceeded`],
//! never reaching the model; a panicking model call is **isolated** to its
//! own batch ([`ServeError::Internal`], executor survives); consecutive
//! panics trip a per-venue **circuit breaker** that fast-fails the venue
//! ([`ServeError::VenueUnavailable`]) and rolls it back to the registry's
//! retained **last-good** snapshot ([`ModelRegistry::rollback`]); model
//! blobs are checksummed so a corrupt publish is rejected before it can
//! serve. Deterministic fault injection for all of this lives behind
//! [`ChaosConfig`] ([`LocalizationServer::start_with_chaos`]).
//!
//! # Determinism
//!
//! Batching never changes answers: every response is bitwise identical to
//! a direct serial `Localizer::locate` call on the same model snapshot,
//! whatever the coalescing pattern, thread count or warm reload timing — each response carries the [`LocateResponse::model_version`]
//! that produced it, making the property testable (`tests/server_smoke.rs`).
//!
//! [`Arc`]: std::sync::Arc
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use stone::StoneBuilder;
//! use stone_dataset::{office_suite, SuiteConfig};
//! use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig};
//!
//! let suite = office_suite(&SuiteConfig::tiny(1));
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish("office", StoneBuilder::quick().fit(&suite.train, 1));
//!
//! let mut server = LocalizationServer::start(Arc::clone(&registry), ServerConfig::default());
//! let handle = server.handle();
//!
//! // Clients submit single scans from any number of threads...
//! let resp = handle.locate("office", &suite.train.records()[0].rssi).unwrap();
//! println!("{} (model v{})", resp.position, resp.model_version);
//!
//! // ...and a retrain hot-swaps the venue without dropping a query.
//! registry.publish("office", StoneBuilder::quick().fit(&suite.train, 2));
//! println!("batches: {:?}", server.stats().batch_hist);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod chaos;
mod queue;
mod registry;
mod scheduler;
mod server;
mod stats;

pub use breaker::BreakerState;
pub use chaos::{corrupt_blob, ChaosConfig};
pub use registry::{ModelEntry, ModelRegistry};
pub use server::{
    LocalizationServer, LocateResponse, PendingLocate, ServeError, ServerConfig, ServerHandle,
    Submit,
};
pub use stats::{StatsSnapshot, VenueStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stone::{KnnMode, StoneBuilder, StoneConfig, TrainerConfig};
    use stone_dataset::{office_suite, Localizer, SuiteConfig};

    fn tiny_localizer(seed: u64) -> stone::StoneLocalizer {
        let suite = office_suite(&SuiteConfig::tiny(seed));
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
        .fit(&suite.train, seed)
    }

    fn quick_config() -> ServerConfig {
        ServerConfig { max_batch: 8, ..Default::default() }
    }

    #[test]
    fn served_answers_match_direct_locate() {
        let suite = office_suite(&SuiteConfig::tiny(1));
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("office", tiny_localizer(1));
        let mut server = LocalizationServer::start(Arc::clone(&registry), quick_config());
        let handle = server.handle();
        let snapshot = registry.snapshot("office").unwrap();
        for r in suite.train.records().iter().take(8) {
            let resp = handle.locate("office", &r.rssi).unwrap();
            assert_eq!(resp.position, snapshot.model().locate(&r.rssi));
            assert_eq!(resp.model_version, 1);
        }
        let stats = server.stats();
        server.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn unknown_venue_and_bad_scan_fail_per_request() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("office", tiny_localizer(2));
        let mut server = LocalizationServer::start(Arc::clone(&registry), quick_config());
        let handle = server.handle();
        assert_eq!(
            handle.locate("warehouse", &[0.0; 4]).unwrap_err(),
            ServeError::UnknownVenue { venue: "warehouse".into() }
        );
        let expected = registry.snapshot("office").unwrap().model().encoder().codec().ap_count();
        assert_eq!(
            handle.locate("office", &[-60.0; 3]).unwrap_err(),
            ServeError::ScanDimensionMismatch { venue: "office".into(), expected, got: 3 }
        );
        // The server survives bad requests: a good one still works.
        let suite = office_suite(&SuiteConfig::tiny(2));
        assert!(handle.locate("office", &suite.train.records()[0].rssi).is_ok());
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_requests_and_joins() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("office", tiny_localizer(3));
        let mut server = LocalizationServer::start(registry, quick_config());
        let handle = server.handle();
        server.shutdown();
        // Idempotent: a second shutdown is a no-op, not a hang or a panic.
        server.shutdown();
        assert_eq!(handle.locate("office", &[0.0; 4]).unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn registry_versions_are_monotonic_per_venue() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.publish("a", tiny_localizer(4)), 1);
        assert_eq!(registry.publish("b", tiny_localizer(5)), 1);
        assert_eq!(registry.publish("a", tiny_localizer(6)), 2);
        assert_eq!(registry.venues(), vec!["a".to_string(), "b".to_string()]);
        assert!(registry.remove("b"));
        assert!(!registry.remove("b"));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn publish_bytes_roundtrips_through_serialization() {
        let loc = tiny_localizer(7);
        let suite = office_suite(&SuiteConfig::tiny(7));
        let scan = &suite.train.records()[0].rssi;
        let direct = loc.locate(scan);
        let blob = loc.save();

        let registry = ModelRegistry::new();
        let version = registry.publish_bytes("office", &blob).unwrap();
        assert_eq!(version, 1);
        assert_eq!(registry.snapshot("office").unwrap().model().locate(scan), direct);
        assert!(registry.publish_bytes("office", &blob[..10]).is_err());
        // The failed publish left v1 in place.
        assert_eq!(registry.snapshot("office").unwrap().version(), 1);
    }
}
