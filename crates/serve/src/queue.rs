//! The venue-sharded request queue.
//!
//! One [`ShardedQueue`] replaces the single shared `sync_channel` of the
//! pre-PR 8 server: every venue gets its own FIFO sub-queue, all of them
//! accounted against **one shared global capacity**, so the bounded-queue /
//! shed contract of the backpressure suites is preserved exactly.
//!
//! The payoff is on the *drain* side: [`ShardedQueue::collect`] hands the
//! executor one **single-venue** batch — the venue whose head request has
//! waited longest, drained whole up to `max_batch`. That bounds
//! starvation: a venue's head is passed over only by older heads. Under
//! venue fan-out whole-venue drains keep encoder batches fat per venue
//! instead of fragmenting a mixed drain into per-venue slivers (the
//! 16-venue regression of docs/PERFORMANCE.md).
//!
//! The shards are also the server's **venue table**: each one holds its
//! venue's [`VenueStats`] counters and circuit [`Breaker`], and a batch
//! carries them to the executor. The shard lookup `push` does under the
//! queue lock is therefore the only per-request venue lookup, and enqueues
//! and sheds are counted under that lock, exactly when they happen.
//!
//! Pause (`start_paused`) and close (shutdown) live here too: a paused
//! queue accepts up to capacity but hands out nothing; a closed queue
//! refuses pushes while `collect` keeps handing out batches until empty —
//! the drain that answers everything accepted.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::breaker::Breaker;
use crate::server::{LocateResponse, ServeError, ServerConfig};
use crate::stats::VenueStats;

/// The boxed form of a reply callback.
type BoxedReply = Box<dyn FnOnce(Result<LocateResponse, ServeError>) + Send>;

/// How a request's answer travels back to whoever submitted it: a callback
/// invoked exactly once, from the executor thread or inline when a submit
/// is refused. A [`crate::PendingLocate`] ticket is a callback that sends
/// into the ticket's channel. If the server ever drops a request without
/// answering it (torn down mid-flight), the callback still fires with
/// [`ServeError::ShuttingDown`], so a wire front-end can always send *some*
/// response frame and its writer never hangs.
pub(crate) struct Reply(Option<BoxedReply>);

impl Reply {
    pub(crate) fn new(f: impl FnOnce(Result<LocateResponse, ServeError>) + Send + 'static) -> Self {
        Self(Some(Box::new(f)))
    }

    pub(crate) fn send(mut self, result: Result<LocateResponse, ServeError>) {
        if let Some(f) = self.0.take() {
            f(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(Err(ServeError::ShuttingDown));
        }
    }
}

/// One queued localization request. Its venue is the shard it sits in.
pub(crate) struct Request {
    pub(crate) rssi: Vec<f32>,
    pub(crate) enqueued: Instant,
    /// Answer-by instant, stamped at submit from the client's deadline
    /// budget. A request still queued past this instant is dropped at
    /// [`ShardedQueue::collect`] time and answered
    /// [`ServeError::DeadlineExceeded`] without ever reaching the model.
    pub(crate) deadline: Option<Instant>,
    /// Tracing correlation ID: nonzero when the submitter carried one in
    /// from the wire or tracing was enabled at submit time, `0` otherwise
    /// (untraced — the executor records no spans for it).
    pub(crate) trace_id: u64,
    pub(crate) reply: Reply,
}

/// One venue's entry in the venue table: its counters and its breaker.
/// Created on the venue's first submit and kept for the server's lifetime.
#[derive(Debug)]
pub(crate) struct Venue {
    pub(crate) name: String,
    pub(crate) stats: VenueStats,
    pub(crate) breaker: Breaker,
}

/// What [`ShardedQueue::collect`] handed out.
pub(crate) enum Collected {
    /// A single-venue batch: every request targets `venue`, FIFO order.
    Batch {
        /// The venue every request of this batch targets.
        venue: Arc<Venue>,
        /// The drained live requests (up to `max_batch` of them; may be
        /// empty when every drained request had already expired).
        requests: Vec<Request>,
        /// Requests whose deadline passed while queued: already past
        /// saving, they are split out at drain time so expired work never
        /// occupies a batch slot or reaches the model. The executor answers
        /// each with [`ServeError::DeadlineExceeded`].
        expired: Vec<Request>,
        /// When the executor began draining this batch — the boundary
        /// between a request's queue-wait span and the collect span.
        drained_at: Instant,
    },
    /// The queue is closed and fully drained: the executor exits.
    Closed,
}

/// One venue's FIFO sub-queue. Shards are created on a venue's first push
/// and retained (empty) afterwards, so shard indices stay stable.
struct Shard {
    venue: Arc<Venue>,
    queue: VecDeque<Request>,
}

struct Inner {
    shards: Vec<Shard>,
    by_venue: HashMap<String, usize>,
    /// Total requests across all shards — the shared global accounting.
    queued: usize,
    closed: bool,
    paused: bool,
}

impl Inner {
    fn shard_idx(&mut self, venue: &str, cfg: &ServerConfig) -> usize {
        if let Some(&i) = self.by_venue.get(venue) {
            return i;
        }
        let i = self.shards.len();
        let venue = Arc::new(Venue {
            name: venue.to_string(),
            stats: VenueStats::new(cfg.max_batch),
            breaker: Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
        });
        self.by_venue.insert(venue.name.clone(), i);
        self.shards.push(Shard { venue, queue: VecDeque::new() });
        i
    }

    /// The venue the executor should drain next — the one whose head
    /// request has waited longest — or `None` when nothing is queued.
    fn pick_victim(&self) -> Option<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, shard)| shard.queue.front().map(|head| (head.enqueued, i)))
            .min()
            .map(|(_, i)| i)
    }
}

/// The per-venue bounded queue shared by client handles and the executor.
pub(crate) struct ShardedQueue {
    inner: Mutex<Inner>,
    /// The executor waits here for work (and for resume/close).
    work: Condvar,
    /// Blocking producers wait here for a slot.
    space: Condvar,
    pub(crate) cfg: ServerConfig,
}

impl ShardedQueue {
    pub(crate) fn new(cfg: ServerConfig, paused: bool) -> Self {
        Self {
            inner: Mutex::new(Inner {
                shards: Vec::new(),
                by_venue: HashMap::new(),
                queued: 0,
                closed: false,
                paused,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cfg,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `req` for `venue`. When the shared capacity is exhausted,
    /// `block` waits for a slot (backpressure); otherwise the request is
    /// shed with [`ServeError::QueueFull`]. A closed queue refuses with
    /// [`ServeError::ShuttingDown`]. A refused request is answered with the
    /// returned error before this returns, outside the lock.
    pub(crate) fn push(&self, venue: &str, req: Request, block: bool) -> Result<(), ServeError> {
        let mut inner = self.lock();
        let err = loop {
            if inner.closed {
                break ServeError::ShuttingDown;
            }
            let idx = inner.shard_idx(venue, &self.cfg);
            let full = inner.queued >= self.cfg.queue_capacity;
            let shard = &mut inner.shards[idx];
            if !full {
                // Counted under the lock: no executor can pull (and
                // complete) the request before its enqueue is recorded.
                shard.venue.stats.record_enqueued();
                shard.queue.push_back(req);
                inner.queued += 1;
                drop(inner);
                self.work.notify_all();
                return Ok(());
            }
            if !block {
                shard.venue.stats.record_shed();
                break ServeError::QueueFull;
            }
            inner = self.space.wait(inner).unwrap_or_else(PoisonError::into_inner);
        };
        drop(inner);
        req.reply.send(Err(err.clone()));
        Err(err)
    }

    /// Every venue the queue has seen, sorted by name.
    pub(crate) fn venues(&self) -> Vec<Arc<Venue>> {
        let mut venues: Vec<Arc<Venue>> =
            self.lock().shards.iter().map(|s| Arc::clone(&s.venue)).collect();
        venues.sort_by(|a, b| a.name.cmp(&b.name));
        venues
    }

    /// Hands the calling executor its next single-venue batch, blocking
    /// while the queue is empty or paused: the venue with the oldest head
    /// request, drained up to `max_batch`. Whatever piled up for that
    /// venue coalesces; no batch waits for more.
    ///
    /// Requests whose deadline has already passed are split into the
    /// batch's `expired` list as they are popped: expired work never
    /// occupies one of the `max_batch` live slots and never reaches
    /// `locate_batch`.
    pub(crate) fn collect(&self) -> Collected {
        let mut inner = self.lock();
        let idx = loop {
            if inner.paused && !inner.closed {
                inner = self.work.wait(inner).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if let Some(idx) = inner.pick_victim() {
                break idx;
            }
            if inner.closed {
                return Collected::Closed;
            }
            inner = self.work.wait(inner).unwrap_or_else(PoisonError::into_inner);
        };

        let drained_at = Instant::now();
        let shard = &mut inner.shards[idx];
        let venue = Arc::clone(&shard.venue);
        let mut requests = Vec::new();
        let mut expired = Vec::new();
        while requests.len() < self.cfg.max_batch {
            let Some(req) = shard.queue.pop_front() else { break };
            if req.deadline.is_some_and(|d| drained_at >= d) {
                expired.push(req);
            } else {
                requests.push(req);
            }
        }
        inner.queued -= requests.len() + expired.len();
        drop(inner);
        self.space.notify_all();
        Collected::Batch { venue, requests, expired, drained_at }
    }

    /// Unparks an executor parked by a paused start. Idempotent.
    pub(crate) fn resume(&self) {
        let mut inner = self.lock();
        if inner.paused {
            inner.paused = false;
            drop(inner);
            self.work.notify_all();
        }
    }

    /// Closes the queue: pushes fail from here on, blocked producers wake
    /// with their request handed back, and the executor drains what
    /// remains then receives [`Collected::Closed`]. Clears pause — a drain
    /// must run.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.paused = false;
        drop(inner);
        self.work.notify_all();
        self.space.notify_all();
    }
}

impl std::fmt::Debug for ShardedQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        write!(
            f,
            "ShardedQueue(queued={}, venues={}, capacity={})",
            inner.queued,
            inner.shards.len(),
            self.cfg.queue_capacity
        )
    }
}
