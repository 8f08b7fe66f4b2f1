//! Per-request stage tracing: trace IDs, stage spans, and a fixed-size
//! lock-free span ring.
//!
//! The serving stack answers "how slow" with end-to-end latency
//! histograms; this module answers "why slow". Each request carries a
//! process-unique trace ID (minted at submit, or carried in from the
//! wire), and every pipeline stage it passes through — queue wait, batch
//! collect, registry snapshot, inference, write-back — records one
//! [`SpanRecord`] into a global ring buffer. Draining the ring
//! ([`span_snapshot`]) yields the raw material for per-stage latency
//! attribution: group by trace ID and the stage durations of one request
//! sum (to within timestamp quantization) to its end-to-end latency.
//!
//! # Cost model
//!
//! Tracing is **off by default**. Disabled, [`SpanTimer::start`] is one
//! relaxed atomic load and no clock read; enabling it
//! ([`set_tracing`]) allocates the ring once and arms the timers. The
//! ring is a seqlock over plain atomics. A writer claims an index with
//! one `fetch_add`, then takes that index's slot with one compare-and-swap
//! from a complete (even) sequence word older than its claim to its own
//! odd word. If another writer still holds the slot mid-record, or a newer
//! claim already filled it, the writer drops its record instead — it
//! still closes its ledger side — so writers never block and never mix
//! their field stores in one slot. Readers retry a slot whose sequence
//! word changes under them and skip one that is mid-write, so a snapshot
//! holds whole records only, never a torn one. A slot whose writer was
//! lapped may show an older record than the newest claim of its index.
//! There is no `unsafe` anywhere in this crate.
//!
//! # Ledger
//!
//! Every armed timer increments `spans_opened` at start and
//! `spans_closed` when it records. A request that vanishes mid-pipeline
//! (a dropped reply, a leaked timer) leaves the ledger unbalanced —
//! [`span_ledger`] is the invariant the serve and wire suites assert after
//! draining: spans opened == spans closed.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of span slots in the global ring (a power of two). At five
/// spans per request this retains complete traces for the most recent
/// ~6500 requests.
pub const SPAN_RING_CAPACITY: usize = 1 << 15;

/// A pipeline stage a request passes through, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Submit accepted → popped from the sharded queue by an executor.
    QueueWait = 0,
    /// The executor's `collect` call that drained this request's batch.
    Collect = 1,
    /// Registry lookup + model snapshot for the batch.
    Snapshot = 2,
    /// The `locate_batch` model call (including breaker admission).
    Infer = 3,
    /// Reply delivery: callback/channel send back toward the client.
    WriteBack = 4,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::QueueWait, Stage::Collect, Stage::Snapshot, Stage::Infer, Stage::WriteBack];

    /// Stable snake_case name used in exposition text and trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Collect => "collect",
            Stage::Snapshot => "snapshot",
            Stage::Infer => "infer",
            Stage::WriteBack => "write_back",
        }
    }

    /// Inverse of the `repr(u8)` discriminant; `None` for unknown bytes.
    pub fn from_u8(b: u8) -> Option<Stage> {
        match b {
            0 => Some(Stage::QueueWait),
            1 => Some(Stage::Collect),
            2 => Some(Stage::Snapshot),
            3 => Some(Stage::Infer),
            4 => Some(Stage::WriteBack),
            _ => None,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded stage span: a plain, `Copy` struct — exactly what sits
/// in the ring slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request's trace ID ([`mint_trace_id`] or carried from the wire).
    pub trace_id: u64,
    /// Which pipeline stage this span timed.
    pub stage: Stage,
    /// Span start, in µs since the process trace epoch (first enable).
    pub start_us: u64,
    /// Span duration in µs.
    pub dur_us: u64,
}

/// One ring slot: a seqlock sequence word plus the four record fields.
///
/// `seq == 0` means never written; odd means a write is in progress;
/// even (`2·(claim+1)`) means the record of claim index `claim` is
/// complete.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    stage: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static HEAD: AtomicU64 = AtomicU64::new(0);
static OPENED: AtomicU64 = AtomicU64::new(0);
static CLOSED: AtomicU64 = AtomicU64::new(0);
static RING: OnceLock<Vec<Slot>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn ring() -> &'static [Slot] {
    RING.get_or_init(|| (0..SPAN_RING_CAPACITY).map(|_| Slot::new()).collect())
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch. Monotonic within the process.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Globally enable or disable span recording. Enabling allocates the
/// ring and pins the trace epoch on first use. Safe to call from any
/// thread at any time; timers capture the flag at start, so a flip
/// mid-request cannot unbalance the ledger.
pub fn set_tracing(enabled: bool) {
    if enabled {
        let _ = ring();
        let _ = epoch();
    }
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mint a process-unique, monotonically increasing trace ID (never 0 —
/// 0 is the wire's "no trace" sentinel). Minting is independent of the
/// tracing flag so wire clients can carry IDs even when the server
/// records nothing.
pub fn mint_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Spans opened vs. closed since process start: `(opened, closed)`.
/// Balanced (`opened == closed`) whenever no request is mid-pipeline —
/// the ledger invariant the serve and wire suites assert after draining.
pub fn span_ledger() -> (u64, u64) {
    // Closed is read first: a timer finishing between the two loads can
    // only make `opened >= closed` — never a phantom negative balance.
    let closed = CLOSED.load(Ordering::Acquire);
    let opened = OPENED.load(Ordering::Acquire);
    (opened, closed)
}

/// Record one complete span directly (both ledger sides at once). Used
/// for batch-level stages whose duration is measured once and attributed
/// to every member request.
pub fn record_span(trace_id: u64, stage: Stage, start_us: u64, dur_us: u64) {
    if !tracing_enabled() {
        return;
    }
    OPENED.fetch_add(1, Ordering::Relaxed);
    write_record(trace_id, stage, start_us, dur_us);
}

/// Record a span from two wall-clock instants — the batch executors'
/// recording shape, where one pipeline timestamp set is shared by every
/// request of a batch and the per-request stage boundaries are derived
/// after the fact. `end < start` records a zero-length span rather than
/// wrapping. Both ledger sides move together, so this can never
/// unbalance [`span_ledger`].
pub fn record_span_between(trace_id: u64, stage: Stage, start: Instant, end: Instant) {
    if !tracing_enabled() {
        return;
    }
    let e = epoch();
    let start_us = start.checked_duration_since(e).map(|d| d.as_micros() as u64).unwrap_or(0);
    let dur_us = end.checked_duration_since(start).map(|d| d.as_micros() as u64).unwrap_or(0);
    OPENED.fetch_add(1, Ordering::Relaxed);
    write_record(trace_id, stage, start_us, dur_us);
}

fn write_record(trace_id: u64, stage: Stage, start_us: u64, dur_us: u64) {
    let ring = ring();
    let claim = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &ring[(claim as usize) & (SPAN_RING_CAPACITY - 1)];
    // Seqlock write: odd while in progress, even (= 2·(claim+1)) once
    // complete. The slot is taken only from an even word of an older
    // claim, so no two writers ever hold it at once. The Release fence
    // orders the odd word before the field stores (a reader that sees a
    // new field sees the odd word on its re-check); the Release on the
    // final seq store publishes the fields.
    let held = 2 * claim + 1;
    let cur = slot.seq.load(Ordering::Relaxed);
    let taken = cur.is_multiple_of(2)
        && cur < held
        && slot.seq.compare_exchange(cur, held, Ordering::Relaxed, Ordering::Relaxed).is_ok();
    if taken {
        fence(Ordering::Release);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.stage.store(stage as u8 as u64, Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.dur_us.store(dur_us, Ordering::Relaxed);
        slot.seq.store(held + 1, Ordering::Release);
    }
    CLOSED.fetch_add(1, Ordering::Release);
}

/// Snapshot the ring: every complete record currently resident, oldest
/// first (by claim order). Lock-free — concurrent writers are retried
/// per slot, and a slot overwritten mid-read is skipped rather than
/// returned torn.
pub fn span_snapshot() -> Vec<SpanRecord> {
    let Some(ring) = RING.get() else {
        return Vec::new();
    };
    let mut out: Vec<(u64, SpanRecord)> = Vec::with_capacity(SPAN_RING_CAPACITY);
    for slot in ring {
        // Bounded retry: a slot being rewritten twice during one read is
        // a lapping writer — take the miss rather than spin.
        for _ in 0..2 {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                break;
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let stage = slot.stage.load(Ordering::Relaxed);
            let start_us = slot.start_us.load(Ordering::Relaxed);
            let dur_us = slot.dur_us.load(Ordering::Relaxed);
            // Pairs with the writer's Release fence: a field load that saw
            // a newer writer's store makes this re-read see its odd word.
            fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Relaxed);
            if before != after {
                continue;
            }
            if let Some(stage) = Stage::from_u8(stage as u8) {
                let claim = before / 2 - 1;
                out.push((claim, SpanRecord { trace_id, stage, start_us, dur_us }));
            }
            break;
        }
    }
    out.sort_by_key(|&(claim, _)| claim);
    out.into_iter().map(|(_, r)| r).collect()
}

/// An in-flight stage measurement. Obtained from [`SpanTimer::start`],
/// carried (it is `Send`) to wherever the stage ends, and finished with
/// [`SpanTimer::finish`]. An armed timer that is dropped without
/// finishing leaves the span ledger unbalanced — deliberately, so leaks
/// are observable.
#[derive(Debug)]
pub struct SpanTimer {
    armed: bool,
    stage: Stage,
    start_us: u64,
}

impl SpanTimer {
    /// Begin timing a stage. When tracing is disabled this is one
    /// relaxed load: no clock read, no ledger traffic, and the returned
    /// timer is inert.
    pub fn start(stage: Stage) -> SpanTimer {
        if !tracing_enabled() {
            return SpanTimer { armed: false, stage, start_us: 0 };
        }
        OPENED.fetch_add(1, Ordering::Relaxed);
        SpanTimer { armed: true, stage, start_us: now_us() }
    }

    /// Finish the span and record it against `trace_id`. Inert timers
    /// (started while tracing was disabled) record nothing.
    pub fn finish(self, trace_id: u64) {
        if !self.armed {
            return;
        }
        let dur_us = now_us().saturating_sub(self.start_us);
        write_record(trace_id, self.stage, self.start_us, dur_us);
    }

    /// Whether this timer was armed at start (tracing enabled).
    pub fn armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace statics are process-global, so these tests share them:
    // each serializes on TEST_LOCK and asserts on deltas, not absolutes.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_timers_are_inert() {
        let _guard = serial();
        set_tracing(false);
        let (o0, c0) = span_ledger();
        let t = SpanTimer::start(Stage::Infer);
        assert!(!t.armed());
        t.finish(42);
        record_span(42, Stage::Collect, 0, 1);
        let (o1, c1) = span_ledger();
        assert_eq!(o0, o1);
        assert_eq!(c0, c1);
    }

    #[test]
    fn spans_record_and_ledger_balances() {
        let _guard = serial();
        set_tracing(true);
        let (o0, c0) = span_ledger();
        let id = mint_trace_id();
        let t = SpanTimer::start(Stage::QueueWait);
        assert!(t.armed());
        t.finish(id);
        record_span(id, Stage::Infer, 7, 3);
        let (o1, c1) = span_ledger();
        assert_eq!(o1 - o0, 2);
        assert_eq!(c1 - c0, 2);
        let spans: Vec<SpanRecord> =
            span_snapshot().into_iter().filter(|s| s.trace_id == id).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::QueueWait);
        assert_eq!(spans[1].stage, Stage::Infer);
        assert_eq!(spans[1].start_us, 7);
        assert_eq!(spans[1].dur_us, 3);
        set_tracing(false);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let _guard = serial();
        set_tracing(true);
        let base = mint_trace_id();
        for i in 0..(SPAN_RING_CAPACITY as u64 + 64) {
            record_span(base, Stage::Collect, i, 1);
        }
        let spans = span_snapshot();
        // The ring holds exactly CAPACITY records and the newest write
        // (start_us == CAPACITY + 63) survived the wrap.
        assert!(spans.len() <= SPAN_RING_CAPACITY);
        assert!(spans.iter().any(|s| s.start_us == SPAN_RING_CAPACITY as u64 + 63));
        set_tracing(false);
    }

    #[test]
    fn writer_skips_a_slot_held_mid_write() {
        let _guard = serial();
        set_tracing(true);
        let slot = &ring()[(HEAD.load(Ordering::Relaxed) as usize) & (SPAN_RING_CAPACITY - 1)];
        let fields = |s: &Slot| {
            [&s.trace_id, &s.stage, &s.start_us, &s.dur_us].map(|f| f.load(Ordering::Relaxed))
        };
        // An earlier writer of the next claim's slot is still mid-record.
        let complete = slot.seq.load(Ordering::Relaxed);
        let held = complete | 1;
        slot.seq.store(held, Ordering::Relaxed);
        let before = fields(slot);
        let (o0, c0) = span_ledger();
        record_span(mint_trace_id(), Stage::Infer, 7, 3);
        let (o1, c1) = span_ledger();
        assert_eq!(slot.seq.load(Ordering::Relaxed), held, "the holder keeps its odd word");
        assert_eq!(fields(slot), before, "the skipped record wrote no field");
        assert_eq!((o1 - o0, c1 - c0), (1, 1), "a skipped record still closes its span");
        slot.seq.store(complete, Ordering::Relaxed);
        set_tracing(false);
    }
}
