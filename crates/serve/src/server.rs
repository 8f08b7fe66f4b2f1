//! The batching localization server: public API and lifecycle.
//!
//! Clients submit *single* scans; one batch executor thread pulls
//! **single-venue** batches off the venue-sharded queue (see
//! [`crate::queue`]) and coalesces whatever is waiting for that venue (up
//! to [`ServerConfig::max_batch`]) into one
//! [`stone::StoneLocalizer::locate_batch`] call — the path that amortizes
//! the encoder forward pass and unlocks the parallel kernels. Results are
//! **bitwise identical** to per-scan `Localizer::locate` calls on the same
//! model snapshot: batching changes cost, never answers.
//!
//! This module owns the public surface (errors, config, handles, tickets);
//! the queue discipline and the venue table live in `queue.rs` and the
//! drain policy plus batch execution in `scheduler.rs`.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stone_radio::Point2;

use crate::breaker::BreakerState;
use crate::chaos::{ChaosConfig, ChaosState};
use crate::queue::{Reply, Request, ShardedQueue};
use crate::registry::ModelRegistry;
use crate::scheduler::executor_loop;
use crate::stats::StatsSnapshot;

/// Why a localization request failed. Always per-request: one bad query
/// never takes down a batch, a worker, or the server.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No model is published for the requested venue.
    UnknownVenue {
        /// The venue the client asked for.
        venue: String,
    },
    /// The venue's model has an empty reference set and cannot answer.
    EmptyModel {
        /// The venue whose model is empty.
        venue: String,
    },
    /// The scan's AP count does not match the venue's model.
    ScanDimensionMismatch {
        /// The venue the client asked for.
        venue: String,
        /// AP universe of the published model.
        expected: usize,
        /// Length of the submitted scan.
        got: usize,
    },
    /// The **shared global capacity** of the bounded request queue is full
    /// (backpressure; only [`ServerHandle::try_submit_with`] reports this —
    /// [`ServerHandle::submit`] waits for a slot instead).
    QueueFull,
    /// The request's deadline expired while it was still queued. The
    /// scheduler drops expired requests at collect time — they never occupy
    /// a batch slot or reach the model. Only requests submitted with a
    /// [`Submit::deadline`] (or a wire request with a non-zero budget) can
    /// fail this way.
    DeadlineExceeded {
        /// The venue the expired request targeted.
        venue: String,
    },
    /// The batch this request was part of panicked inside the model call.
    /// The panic is isolated — the executor survives and only this batch's
    /// requests fail — and counts toward the venue's circuit breaker.
    Internal {
        /// The venue whose batch panicked.
        venue: String,
    },
    /// The venue's circuit breaker is open: enough consecutive batches
    /// panicked that the server fast-fails the venue's requests without
    /// touching the model until the cooldown elapses (and rolls the venue
    /// back to its last-good model, when one is retained). Other venues are
    /// unaffected. Retryable after the breaker's cooldown.
    VenueUnavailable {
        /// The venue whose breaker is open.
        venue: String,
    },
    /// The server is shutting down (or already gone).
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownVenue { venue } => write!(f, "no model published for {venue:?}"),
            ServeError::EmptyModel { venue } => {
                write!(f, "model for {venue:?} has no reference embeddings")
            }
            ServeError::ScanDimensionMismatch { venue, expected, got } => {
                write!(f, "scan has {got} APs but the model for {venue:?} expects {expected}")
            }
            ServeError::QueueFull => write!(f, "request queue full"),
            ServeError::DeadlineExceeded { venue } => {
                write!(f, "request for {venue:?} expired in queue before execution")
            }
            ServeError::Internal { venue } => {
                write!(f, "batch for {venue:?} failed internally (isolated panic)")
            }
            ServeError::VenueUnavailable { venue } => {
                write!(f, "circuit breaker open for {venue:?}; retry after cooldown")
            }
            ServeError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful localization answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocateResponse {
    /// The predicted floorplan position.
    pub position: Point2,
    /// Version of the model snapshot that produced the answer (see
    /// [`crate::ModelEntry::version`]) — lets callers attribute every
    /// response to an exact model across warm reloads.
    pub model_version: u64,
}

/// Knobs of one [`LocalizationServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Most requests coalesced into one `locate_batch` call. 1 disables
    /// batching (every request runs alone — the baseline the micro benches
    /// compare against). Whatever is queued for the picked venue coalesces
    /// without waiting (adaptive batching: what piled up while the previous
    /// batch executed forms the next one), so batching adds no latency.
    pub max_batch: usize,
    /// Capacity of the bounded request queue — the backpressure boundary,
    /// **shared across all venues**. [`ServerHandle::submit`] waits for a
    /// slot; [`ServerHandle::try_submit_with`] sheds with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Consecutive panicked batches that trip a venue's circuit breaker
    /// (fast-failing the venue with [`ServeError::VenueUnavailable`] and
    /// rolling it back to its last-good model). **0 disables the breaker**;
    /// the default is 3.
    pub breaker_threshold: u32,
    /// How long a tripped breaker fast-fails before letting a probe batch
    /// through (half-open). Default 100 ms.
    pub breaker_cooldown: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_capacity: 1024,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
        }
    }
}

impl ServerConfig {
    fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be at least 1");
        assert!(self.queue_capacity > 0, "queue_capacity must be at least 1");
    }
}

/// A long-running localization service over a [`ModelRegistry`].
///
/// See the crate docs for the architecture; the acceptance contract
/// (coalescing observable in the batch histogram, warm reload with zero
/// dropped queries, responses bitwise-equal to direct `locate` calls on the
/// same snapshot) is pinned by `tests/server_smoke.rs`, and the sharded
/// scheduler's order and starvation bound by `tests/scheduler_fairness.rs`.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use stone::StoneBuilder;
/// use stone_dataset::{office_suite, SuiteConfig};
/// use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig};
///
/// let suite = office_suite(&SuiteConfig::tiny(1));
/// let registry = Arc::new(ModelRegistry::new());
/// registry.publish("office", StoneBuilder::quick().fit(&suite.train, 1));
///
/// let mut server = LocalizationServer::start(registry, ServerConfig::default());
/// let handle = server.handle();
/// let resp = handle.locate("office", &suite.train.records()[0].rssi).unwrap();
/// println!("located at {} by model v{}", resp.position, resp.model_version);
/// server.shutdown();
/// ```
pub struct LocalizationServer {
    registry: Arc<ModelRegistry>,
    queue: Arc<ShardedQueue>,
    cfg: ServerConfig,
    /// The batch executor thread; `None` once shut down.
    executor: Option<JoinHandle<()>>,
}

impl LocalizationServer {
    /// Starts the executor thread and returns the running server.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (zero `max_batch` or
    /// `queue_capacity`) or the thread cannot be spawned.
    #[must_use]
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Self {
        Self::start_inner(registry, cfg, false, ChaosConfig::none())
    }

    /// Like [`LocalizationServer::start`], but the executor begins *parked*:
    /// submits are accepted into the bounded queue (up to `queue_capacity`)
    /// yet nothing executes until [`LocalizationServer::resume`] is called.
    /// This turns "queue full" from a race into a deterministic state — the
    /// backpressure contract tests fill the queue, observe exactly the
    /// overflow being shed, then resume.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LocalizationServer::start`].
    #[must_use]
    pub fn start_paused(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Self {
        Self::start_inner(registry, cfg, true, ChaosConfig::none())
    }

    /// Like [`LocalizationServer::start`], with a fault-injection
    /// configuration — what the resilience test suites use.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LocalizationServer::start`].
    #[must_use]
    pub fn start_with_chaos(
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
        chaos: ChaosConfig,
    ) -> Self {
        Self::start_inner(registry, cfg, false, chaos)
    }

    /// Unparks the executor of a [`LocalizationServer::start_paused`]
    /// server. Idempotent; a no-op on a server started normally.
    pub fn resume(&self) {
        self.queue.resume();
    }

    fn start_inner(
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
        paused: bool,
        chaos: ChaosConfig,
    ) -> Self {
        cfg.validate();
        let queue = Arc::new(ShardedQueue::new(cfg, paused));
        let executor = {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("stone-serve".into())
                .spawn(move || executor_loop(&queue, &registry, &ChaosState::new(chaos)))
                .expect("spawn executor thread")
        };
        Self { registry, queue, cfg, executor: Some(executor) }
    }

    /// A cloneable client handle feeding this server's queue.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { queue: Arc::clone(&self.queue) }
    }

    /// The registry this server resolves venues against (publish retrained
    /// models here; the next batch picks them up).
    #[must_use]
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// A point-in-time copy of the server's counters (see
    /// [`ServerHandle::stats`]).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.handle().stats()
    }

    /// Stops accepting new requests, drains every request already queued,
    /// and joins the executor thread. Queued requests are *answered*, not
    /// dropped — the zero-dropped-queries half of the warm-reload story.
    ///
    /// Idempotent: calling it again (or dropping the server afterwards) is
    /// a no-op — shutdown paths layered above (wire front-end teardown,
    /// signal handlers, test harnesses) may all race to stop the same
    /// server safely.
    pub fn shutdown(&mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(executor) = self.executor.take() else { return };
        // Closing refuses new submits and fails blocked producers with
        // ShuttingDown, wakes a parked or waiting executor (pause is
        // cleared — the drain must run), and lets it keep collecting
        // single-venue batches until the queue is empty before it exits.
        self.queue.close();
        let _ = executor.join();
    }
}

impl Drop for LocalizationServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for LocalizationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LocalizationServer({:?}, venues={})", self.cfg, self.registry.len())
    }
}

/// One scan to localize, as [`ServerHandle::try_submit_with`] takes it.
#[derive(Debug, Clone, Copy)]
pub struct Submit<'a> {
    /// The venue whose model answers.
    pub venue: &'a str,
    /// The RSSI vector, one entry per AP of the venue's universe.
    pub rssi: &'a [f32],
    /// Deadline budget counted from submission, queueing time included: a
    /// request still queued once it elapses is dropped at batch-collect
    /// time — before ever occupying a batch slot — and answered
    /// [`ServeError::DeadlineExceeded`]. `None` never expires.
    pub deadline: Option<Duration>,
    /// Tracing correlation ID. `0` means "untraced caller": a fresh ID is
    /// minted when tracing is enabled server-side, and the request stays
    /// untraced otherwise. A nonzero ID (a wire frame's `trace_id`) is
    /// carried through verbatim, so the stage spans recorded for it can be
    /// joined with client-side timings by ID.
    pub trace_id: u64,
}

impl<'a> Submit<'a> {
    /// A request for `venue` with no deadline and no trace ID.
    #[must_use]
    pub fn new(venue: &'a str, rssi: &'a [f32]) -> Self {
        Self { venue, rssi, deadline: None, trace_id: 0 }
    }
}

/// A client-side handle: submit scans, get positions. Cloneable and
/// shareable across client threads.
#[derive(Clone)]
pub struct ServerHandle {
    queue: Arc<ShardedQueue>,
}

impl ServerHandle {
    /// The one submit body behind both entries: stamp the request, then
    /// queue it (waiting for a slot when `block`). A refused request's
    /// reply has fired with the returned error.
    fn enqueue(&self, submit: Submit<'_>, reply: Reply, block: bool) -> Result<(), ServeError> {
        // One Instant::now() stamps both: the deadline budget counts from
        // the moment of submission, queueing time included.
        let now = Instant::now();
        let trace_id = match submit.trace_id {
            // The submit-side cost of disabled tracing is this one relaxed
            // load.
            0 if stone_obs::tracing_enabled() => stone_obs::mint_trace_id(),
            id => id,
        };
        let req = Request {
            rssi: submit.rssi.to_vec(),
            enqueued: now,
            deadline: submit.deadline.map(|d| now + d),
            trace_id,
            reply,
        };
        self.queue.push(submit.venue, req, block)
    }

    /// Enqueues a scan, **blocking while the queue is full** (backpressure),
    /// and returns a ticket to collect the answer. Submitting without
    /// immediately waiting is how a client pipelines many scans into one
    /// coalescing window.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] when the server no longer
    /// accepts requests.
    pub fn submit(&self, venue: &str, rssi: &[f32]) -> Result<PendingLocate, ServeError> {
        let (tx, rx) = mpsc::channel();
        // A client that gave up and dropped its ticket is not an error.
        let reply = Reply::new(move |result| drop(tx.send(result)));
        self.enqueue(Submit::new(venue, rssi), reply, true)?;
        Ok(PendingLocate { rx })
    }

    /// Enqueues a scan **without blocking**: it fails fast with
    /// [`ServeError::QueueFull`] when the bounded queue has no slot. The answer is delivered by invoking
    /// `reply` from the executor thread — the submit path a wire front-end
    /// uses to write responses back in **completion order** (a shed
    /// response for a late request can overtake the answer to an earlier
    /// queued one).
    ///
    /// The callback is invoked **exactly once** for every call, including
    /// failed submits: on a shed or [`ServeError::ShuttingDown`] it fires
    /// inline with that error (and the same error is also returned, so the
    /// caller can stop reading without inspecting responses). An expired
    /// request's callback fires with [`ServeError::DeadlineExceeded`]. If
    /// the server is torn down with the request still queued, the callback
    /// fires with `ShuttingDown`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] or [`ServeError::ShuttingDown`];
    /// the callback has already been invoked with the same error.
    pub fn try_submit_with<F>(&self, submit: Submit<'_>, reply: F) -> Result<(), ServeError>
    where
        F: FnOnce(Result<LocateResponse, ServeError>) + Send + 'static,
    {
        self.enqueue(submit, Reply::new(reply), false)
    }

    /// Submits one scan and blocks until its answer arrives.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] except `QueueFull` (a full queue blocks instead).
    pub fn locate(&self, venue: &str, rssi: &[f32]) -> Result<LocateResponse, ServeError> {
        self.submit(venue, rssi)?.wait()
    }

    /// A point-in-time copy of the server's counters: the per-venue
    /// breakdowns of [`StatsSnapshot::venues`] and their sums.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let venues = self.queue.venues().iter().map(|v| v.stats.snapshot(&v.name)).collect();
        StatsSnapshot::from_venues(venues, self.queue.cfg.max_batch)
    }

    /// The current [`BreakerState`] of every venue the queue has seen,
    /// sorted by venue name; a venue no batch has run for yet reads
    /// [`BreakerState::Closed`]. A pure observation (see
    /// [`BreakerState::Open`] for the non-transition caveat). What the
    /// wire admin endpoint exposes as the `stone_serve_breaker_state`
    /// gauge.
    #[must_use]
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        self.queue.venues().iter().map(|v| (v.name.clone(), v.breaker.state())).collect()
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandle({:?})", self.queue)
    }
}

/// A submitted request whose answer has not been collected yet.
#[derive(Debug)]
pub struct PendingLocate {
    rx: mpsc::Receiver<Result<LocateResponse, ServeError>>,
}

impl PendingLocate {
    /// Blocks until the answer arrives.
    ///
    /// # Errors
    ///
    /// The request's own [`ServeError`], or [`ServeError::ShuttingDown`]
    /// when the server died before answering.
    pub fn wait(self) -> Result<LocateResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}
