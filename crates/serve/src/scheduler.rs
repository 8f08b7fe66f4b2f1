//! The batch executor.
//!
//! The server's one executor thread loops: ask the [`ShardedQueue`] for
//! its next **single-venue** batch (the venue with the oldest head request
//! — see the queue's victim policy), snapshot that venue's model once, run
//! one [`stone::StoneLocalizer::locate_batch`], reply. The batch fans out
//! across `STONE_THREADS` inside the batched kernels. Because a batch never
//! mixes venues, the encoder amortization that pays for batching survives
//! venue fan-out: 16 venues at depth 64 drain as 16 fat single-venue
//! batches, not 16 four-scan slivers per drain.
//!
//! The registry snapshot is taken *per batch*: a warm reload
//! ([`crate::ModelRegistry::publish`]) between two batches of the same
//! venue is picked up by the second one, while the in-flight batch keeps
//! the `Arc` snapshot it started with — reload never tears a batch.
//! A venue removed from the registry while requests are queued fails those
//! requests per-request with [`ServeError::UnknownVenue`]; nothing panics
//! and no ticket hangs.
//!
//! # Resilience (PR 9)
//!
//! The executor is the server's failure containment point:
//!
//! * **Expired requests** (deadline passed while queued) are split out by
//!   the queue at collect time and answered
//!   [`ServeError::DeadlineExceeded`] here — they never occupy a batch slot
//!   and never reach `locate_batch`.
//! * **The model call runs under `catch_unwind`**: a panicking model (a bad
//!   publish, a poisoned weight) fails only its own batch's requests with
//!   [`ServeError::Internal`]; the executor thread survives and keeps
//!   draining.
//! * **Consecutive panicked batches trip the venue's circuit breaker**
//!   ([`crate::ServerConfig::breaker_threshold`]): while open, the venue's
//!   batches fast-fail with [`ServeError::VenueUnavailable`] without
//!   touching the model, and the trip rolls the venue back to its
//!   last-good registry snapshot ([`crate::ModelRegistry::rollback`]) so
//!   the half-open probe after the cooldown usually lands on a healthy
//!   model. Other venues never notice.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use stone_obs::{record_span_between, Stage};
use stone_radio::Point2;

use crate::chaos::ChaosState;
use crate::queue::{Collected, Request, ShardedQueue, Venue};
use crate::registry::ModelRegistry;
use crate::server::{LocateResponse, ServeError};
use crate::stats::VenueStats;

/// The executor thread: pull a single-venue batch, execute, reply, repeat —
/// until the queue closes and drains dry. The batch carries its venue's
/// counters and breaker, so nothing here looks a venue up.
pub(crate) fn executor_loop(queue: &ShardedQueue, registry: &ModelRegistry, chaos: &ChaosState) {
    while let Collected::Batch { venue, requests, expired, drained_at } = queue.collect() {
        // Last-resort isolation: the model call has its own catch_unwind
        // below, but nothing anywhere in batch handling may kill the
        // executor. Requests dropped by a panic here still answer — a
        // reply fires ShuttingDown from its Drop impl.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            if !expired.is_empty() {
                let err = ServeError::DeadlineExceeded { venue: venue.name.clone() };
                fail_unbatched(&venue, expired, VenueStats::record_expired, &err);
            }
            if !requests.is_empty() {
                execute_batch(registry, chaos, &venue, requests, drained_at);
            }
        }));
    }
}

/// Answers requests that never reached the model — expired in the queue,
/// or fast-failed by an open breaker — with `err`. Each counts as a
/// completion (queue-depth accounting) and under `counter`, never as a
/// batch.
fn fail_unbatched(
    venue: &Venue,
    requests: Vec<Request>,
    counter: fn(&VenueStats),
    err: &ServeError,
) {
    for req in requests {
        counter(&venue.stats);
        venue.stats.record_completed(req.enqueued.elapsed());
        req.reply.send(Err(err.clone()));
    }
}

/// Answers every request of one single-venue batch: snapshot the venue's
/// model once (the consistency unit across warm reloads), one
/// `locate_batch` for every well-formed scan, per-request errors for the
/// rest — one bad query never takes down a batch, a worker, or the server.
///
/// When tracing is enabled, every answered request of the batch gets five
/// contiguous stage spans whose durations sum to its end-to-end latency:
/// queue wait (enqueue → drain begin), collect (drain begin → batch handed
/// over), snapshot (breaker admission + registry snapshot), infer
/// (dimension checks + the model call + result assembly) and write-back
/// (results ready → this request's reply sent). Expired and fast-failed requests record no
/// spans — they never ran the pipeline being attributed.
#[allow(clippy::too_many_lines)]
fn execute_batch(
    registry: &ModelRegistry,
    chaos: &ChaosState,
    venue: &Venue,
    batch: Vec<Request>,
    drained_at: Instant,
) {
    // Stage boundary: the batch is in the executor's hands from here.
    let collected_at = Instant::now();
    let (name, vstats) = (venue.name.as_str(), &venue.stats);

    // Breaker admission is per *batch*, before any batch accounting: a
    // fast-failed batch is not a batch the model executed.
    if !venue.breaker.admit() {
        let err = ServeError::VenueUnavailable { venue: name.to_string() };
        fail_unbatched(venue, batch, VenueStats::record_fast_failed, &err);
        return;
    }

    vstats.record_batch(batch.len());

    let mut results: Vec<Option<Result<LocateResponse, ServeError>>> = Vec::new();
    results.resize_with(batch.len(), || None);

    let entry = registry.snapshot(name);
    // Stage boundary: the model snapshot (the batch's consistency unit)
    // is pinned; everything after is inference.
    let snapshotted_at = Instant::now();
    match entry {
        // Unknown venue (never published, or removed with requests still
        // queued): every request fails individually — the regression pinned
        // by tests/scheduler_fairness.rs. No model ran, so the breaker
        // state is left untouched (a half-open probe stays half-open).
        None => {
            for r in &mut results {
                *r = Some(Err(ServeError::UnknownVenue { venue: name.to_string() }));
            }
        }
        Some(entry) if entry.model().knn().is_empty() => {
            for r in &mut results {
                *r = Some(Err(ServeError::EmptyModel { venue: name.to_string() }));
            }
        }
        Some(entry) => {
            let expected = entry.model().encoder().codec().ap_count();
            let mut ok_idx = Vec::with_capacity(batch.len());
            for (i, req) in batch.iter().enumerate() {
                let got = req.rssi.len();
                if got == expected {
                    ok_idx.push(i);
                } else {
                    results[i] = Some(Err(ServeError::ScanDimensionMismatch {
                        venue: name.to_string(),
                        expected,
                        got,
                    }));
                }
            }
            if !ok_idx.is_empty() {
                let scans: Vec<&[f32]> = ok_idx.iter().map(|&i| batch[i].rssi.as_slice()).collect();
                let version = entry.version();
                let model = entry.model();
                // The isolation boundary: a panic in the model call (or an
                // injected chaos fault, which fires exactly here) fails
                // only this batch. AssertUnwindSafe is sound — the model
                // snapshot is immutable and dropped with the batch, and
                // every mutable capture is written only after a normal
                // return.
                let outcome = catch_unwind(AssertUnwindSafe(|| -> Vec<Point2> {
                    chaos.before_batch(name, version);
                    model.locate_batch(&scans)
                }));
                match outcome {
                    Ok(positions) => {
                        venue.breaker.record_success();
                        for (&i, position) in ok_idx.iter().zip(positions) {
                            results[i] =
                                Some(Ok(LocateResponse { position, model_version: version }));
                        }
                    }
                    Err(_) => {
                        vstats.record_panicked_batch();
                        if venue.breaker.record_failure() {
                            vstats.record_breaker_trip();
                            // The trip's degradation move: swap the venue
                            // back to the snapshot the bad publish
                            // replaced, so the post-cooldown probe lands on
                            // the last-good model instead of re-panicking.
                            let _ = registry.rollback(name);
                        }
                        for &i in &ok_idx {
                            results[i] =
                                Some(Err(ServeError::Internal { venue: name.to_string() }));
                        }
                    }
                }
            }
        }
    }

    // Stage boundary: every request's result is decided; what remains is
    // per-request accounting and reply delivery.
    let inferred_at = Instant::now();

    for (req, result) in batch.into_iter().zip(results) {
        let result = result.expect("every request of the batch is answered");
        // Record completion *before* the reply lands: the moment a client's
        // wait() returns, a stats() snapshot must already account for its
        // request (the smoke test reads exact counts right after the last
        // reply).
        vstats.record_completed(req.enqueued.elapsed());
        if req.trace_id != 0 && stone_obs::tracing_enabled() {
            let (trace_id, enqueued) = (req.trace_id, req.enqueued);
            req.reply.send(result);
            let replied_at = Instant::now();
            record_span_between(trace_id, Stage::QueueWait, enqueued, drained_at);
            record_span_between(trace_id, Stage::Collect, drained_at, collected_at);
            record_span_between(trace_id, Stage::Snapshot, collected_at, snapshotted_at);
            record_span_between(trace_id, Stage::Infer, snapshotted_at, inferred_at);
            record_span_between(trace_id, Stage::WriteBack, inferred_at, replied_at);
        } else {
            req.reply.send(result);
        }
    }
}
