//! Server observability: queue depth, batch-size histogram, latency
//! percentiles — per venue, and summed across venues.
//!
//! The live counters are one [`VenueStats`] block of relaxed atomics per
//! venue, held in the venue's entry of the queue's venue table: a submit
//! records against it under the queue lock it already takes, and the
//! executor records against the block its batch carries, so each event is
//! one relaxed increment and no lookup. [`StatsSnapshot`] is the
//! plain-data copy handed to callers; every aggregate field is the sum over
//! its [`StatsSnapshot::venues`], computed at snapshot time, and
//! percentiles are computed on the snapshot so the hot path never sorts
//! anything.
//!
//! The server executes **single-venue** batches (the venue-sharded
//! scheduler), so the per-venue batch-size histograms are the direct
//! observability of per-venue coalescing.
//!
//! Latencies land in the power-of-two microsecond buckets of
//! [`stone_obs::metrics::pow2_bucket`] (bucket `i` holds `[2^i, 2^(i+1))`
//! µs), which bounds the memory at a fixed 40 counters regardless of
//! traffic volume; a reported percentile is interpolated within its bucket
//! by rank (see [`hist_quantile`] for the error bound).
//!
//! Snapshots also render as Prometheus-style exposition text
//! ([`StatsSnapshot::exposition`]) using the shared `stone-obs` format
//! helpers, so the wire admin endpoint and any scrape tooling read one
//! canonical shape.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use stone_obs::metrics::{
    pow2_bucket, write_pow2_histogram, write_sample, write_type, HIST_BUCKETS,
};

/// The `q`-quantile of a power-of-two bucket histogram, interpolated
/// within the bucket by rank. Shared by the summed and per-venue views.
///
/// The decisive request has rank `ceil(q · total)`, clamped to
/// `[1, total]` — so `q = 0` resolves to the fastest recorded request and
/// `q = 1` to the slowest. If that rank is the `k`-th of the `c` requests
/// in bucket `[2^i, 2^(i+1))` µs, the estimate places it linearly within
/// the bucket: `2^i · (1 + k/c)` µs — the expected position of that order
/// statistic under a uniform-within-bucket assumption. With `k = c` this
/// degenerates to the bucket's upper edge, the pre-interpolation answer.
///
/// # Error bound
///
/// The true rank-`k` latency lies in `[2^i, 2^(i+1))` and the estimate in
/// `(2^i, 2^(i+1)]`, so the absolute error is strictly less than the
/// bucket width `2^i` µs — the estimate is always within **2×** of the
/// true value, the same hard bound the old upper-edge rule had. What
/// interpolation buys: distinct quantiles inside one bucket resolve to
/// distinct, rank-ordered values instead of all pinning to the upper
/// edge, and under the uniform assumption the *expected* absolute error
/// halves. Latencies at or above `2^39` µs (~6.4 days) clamp into the top
/// bucket and interpolate toward its `2^40` µs upper edge.
fn hist_quantile(hist: &[u64], q: f64) -> Option<Duration> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    // Rank of the request that decides the quantile (1-based).
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bucket width equals its lower edge (2^i µs); `k` is the
            // rank's 1-based position among this bucket's occupants.
            let lower_us = (1u64 << i) as f64;
            let k = (rank - (seen - c)) as f64;
            let est_us = lower_us * (1.0 + k / c as f64);
            return Some(Duration::from_nanos((est_us * 1_000.0).round() as u64));
        }
    }
    unreachable!("rank <= total by construction")
}

/// Copies a snapshot's latency histogram into the fixed-width array the
/// `stone-obs` exposition helpers take.
fn hist_array(hist: &[u64]) -> [u64; HIST_BUCKETS] {
    let mut out = [0u64; HIST_BUCKETS];
    for (o, &c) in out.iter_mut().zip(hist) {
        *o = c;
    }
    out
}

/// Mean batch size of a `batch_hist[s - 1] = count` histogram.
fn hist_mean_batch(hist: &[u64]) -> f64 {
    let batches: u64 = hist.iter().sum();
    if batches == 0 {
        return 0.0;
    }
    let requests: u64 = hist.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
    requests as f64 / batches as f64
}

/// Live counters of one venue's traffic, one instance per venue ever seen
/// by a submit.
#[derive(Debug)]
pub(crate) struct VenueStats {
    /// Requests currently enqueued or being executed.
    queue_depth: AtomicUsize,
    /// Requests accepted into the venue's sub-queue since startup.
    enqueued: AtomicU64,
    /// Requests answered (successfully or with a per-request error).
    completed: AtomicU64,
    /// Requests shed because the shared capacity was exhausted.
    shed: AtomicU64,
    /// Requests whose deadline expired before a batch executed them.
    expired: AtomicU64,
    /// Batches whose model call panicked (isolated; failed as `Internal`).
    panicked_batches: AtomicU64,
    /// Times this venue's circuit breaker transitioned to Open.
    breaker_trips: AtomicU64,
    /// Requests fast-failed while the venue's breaker was open.
    fast_failed: AtomicU64,
    /// `batch_hist[s - 1]` counts executed single-venue batches of size `s`.
    batch_hist: Vec<AtomicU64>,
    /// Power-of-two microsecond latency buckets (enqueue → reply).
    latency_hist: [AtomicU64; HIST_BUCKETS],
}

impl VenueStats {
    pub(crate) fn new(max_batch: usize) -> Self {
        Self {
            queue_depth: AtomicUsize::new(0),
            enqueued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panicked_batches: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            fast_failed: AtomicU64::new(0),
            batch_hist: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            latency_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn record_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_panicked_batch(&self) {
        self.panicked_batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fast_failed(&self) {
        self.fast_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize) {
        debug_assert!(size >= 1 && size <= self.batch_hist.len());
        self.batch_hist[size - 1].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_completed(&self, latency: Duration) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        let bucket = pow2_bucket(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
        self.latency_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, venue: &str) -> VenueStatsSnapshot {
        VenueStatsSnapshot {
            venue: venue.to_string(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            panicked_batches: self.panicked_batches.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            fast_failed: self.fast_failed.load(Ordering::Relaxed),
            batch_hist: self.batch_hist.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            latency_hist: self.latency_hist.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of one venue's counters (see
/// [`StatsSnapshot::venues`]). Every executed batch is single-venue under
/// the sharded scheduler, so `batch_hist` here is the venue's *own* encoder
/// batch-size distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VenueStatsSnapshot {
    /// The venue these counters describe.
    pub venue: String,
    /// Requests currently enqueued or being executed for this venue.
    pub queue_depth: usize,
    /// Requests accepted into this venue's sub-queue since startup.
    pub enqueued: u64,
    /// Requests answered (successfully or with a per-request error).
    pub completed: u64,
    /// Requests for this venue shed because the server's shared capacity
    /// was full ([`crate::ServeError::QueueFull`]).
    pub shed: u64,
    /// Requests whose deadline expired before a batch executed them
    /// ([`crate::ServeError::DeadlineExceeded`]); expired work never
    /// reaches the model.
    pub expired: u64,
    /// Batches whose model call panicked. Each one was isolated: its
    /// requests failed with [`crate::ServeError::Internal`] and the
    /// executor survived.
    pub panicked_batches: u64,
    /// Times this venue's circuit breaker tripped open (each trip also
    /// attempts a last-good model rollback).
    pub breaker_trips: u64,
    /// Requests fast-failed with [`crate::ServeError::VenueUnavailable`]
    /// while the venue's breaker was open.
    pub fast_failed: u64,
    /// `batch_hist[s - 1]` counts executed single-venue batches of size `s`.
    pub batch_hist: Vec<u64>,
    /// Power-of-two microsecond latency buckets: `latency_hist[i]` counts
    /// requests whose enqueue→reply latency fell in `[2^i, 2^(i+1))` µs.
    pub latency_hist: Vec<u64>,
}

impl VenueStatsSnapshot {
    /// Number of single-venue batches executed for this venue.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batch_hist.iter().sum()
    }

    /// Mean executed batch size for this venue (0.0 when no batch ran yet).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        hist_mean_batch(&self.batch_hist)
    }

    /// The `q`-quantile (`0.0..=1.0`) of this venue's enqueue→reply
    /// latency, rank-interpolated within its power-of-two microsecond
    /// bucket (within 2× of the true value in the worst case; see the
    /// module docs for the full error bound). Returns `None` when no
    /// request completed yet.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        hist_quantile(&self.latency_hist, q)
    }

    /// Median enqueue→reply latency for this venue.
    #[must_use]
    pub fn p50(&self) -> Option<Duration> {
        self.latency_quantile(0.50)
    }

    /// 99th-percentile enqueue→reply latency for this venue.
    #[must_use]
    pub fn p99(&self) -> Option<Duration> {
        self.latency_quantile(0.99)
    }
}

/// A point-in-time copy of a server's counters. Every field but `venues`
/// is the sum of the same field over `venues` (`rejected` sums `shed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests currently enqueued or being executed.
    pub queue_depth: usize,
    /// Requests accepted into the queue since startup.
    pub enqueued: u64,
    /// Requests answered (successfully or with a per-request error).
    pub completed: u64,
    /// Requests rejected because the bounded queue was full
    /// ([`crate::ServerHandle::try_submit_with`] backpressure).
    pub rejected: u64,
    /// Requests whose deadline expired before a batch executed them, across
    /// all venues.
    pub expired: u64,
    /// Batches whose model call panicked (isolated per batch), across all
    /// venues.
    pub panicked_batches: u64,
    /// `batch_hist[s - 1]` counts executed batches of size `s`.
    pub batch_hist: Vec<u64>,
    /// Power-of-two microsecond latency buckets: `latency_hist[i]` counts
    /// requests whose enqueue→reply latency fell in `[2^i, 2^(i+1))` µs.
    pub latency_hist: Vec<u64>,
    /// Per-venue breakdowns, sorted by venue name. A venue appears once any
    /// submit has touched it (including submits that were shed).
    pub venues: Vec<VenueStatsSnapshot>,
}

/// Adds `src` into `dst` element-wise.
fn add_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl StatsSnapshot {
    /// Sums per-venue snapshots (sorted by venue name) into the aggregate
    /// view; `max_batch` sizes the batch histogram when no venue exists yet.
    pub(crate) fn from_venues(venues: Vec<VenueStatsSnapshot>, max_batch: usize) -> Self {
        let mut sum = StatsSnapshot {
            queue_depth: 0,
            enqueued: 0,
            completed: 0,
            rejected: 0,
            expired: 0,
            panicked_batches: 0,
            batch_hist: vec![0; max_batch],
            latency_hist: vec![0; HIST_BUCKETS],
            venues: Vec::new(),
        };
        for v in &venues {
            sum.queue_depth += v.queue_depth;
            sum.enqueued += v.enqueued;
            sum.completed += v.completed;
            sum.rejected += v.shed;
            sum.expired += v.expired;
            sum.panicked_batches += v.panicked_batches;
            add_into(&mut sum.batch_hist, &v.batch_hist);
            add_into(&mut sum.latency_hist, &v.latency_hist);
        }
        sum.venues = venues;
        sum
    }

    /// Number of batches executed.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batch_hist.iter().sum()
    }

    /// Number of executed batches that coalesced more than one request.
    #[must_use]
    pub fn coalesced_batches(&self) -> u64 {
        self.batch_hist.iter().skip(1).sum()
    }

    /// Mean executed batch size (0.0 when no batch ran yet).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        hist_mean_batch(&self.batch_hist)
    }

    /// The per-venue breakdown for `venue`, if any submit path touched it.
    #[must_use]
    pub fn venue(&self, venue: &str) -> Option<&VenueStatsSnapshot> {
        self.venues.iter().find(|v| v.venue == venue)
    }

    /// The `q`-quantile (`0.0..=1.0`) of the enqueue→reply latency,
    /// rank-interpolated within its power-of-two microsecond bucket
    /// (within 2× of the true value in the worst case; see the module docs
    /// for the full error bound). Returns `None` when no request completed
    /// yet.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        hist_quantile(&self.latency_hist, q)
    }

    /// Median enqueue→reply latency (see [`StatsSnapshot::latency_quantile`]).
    #[must_use]
    pub fn p50(&self) -> Option<Duration> {
        self.latency_quantile(0.50)
    }

    /// 99th-percentile enqueue→reply latency (see
    /// [`StatsSnapshot::latency_quantile`]).
    #[must_use]
    pub fn p99(&self) -> Option<Duration> {
        self.latency_quantile(0.99)
    }

    /// Renders this snapshot as Prometheus-style exposition text via the
    /// shared `stone-obs` format helpers.
    ///
    /// Aggregate series carry no labels; per-venue series carry
    /// `venue="..."`.
    /// The output round-trips through [`stone_obs::parse_exposition`] —
    /// pinned by a unit test here and re-checked over the wire by
    /// `stone-net`'s `admin_telemetry` suite.
    #[must_use]
    pub fn exposition(&self) -> String {
        type VenueVal = fn(&VenueStatsSnapshot) -> u64;
        let mut out = String::new();

        write_type(&mut out, "stone_serve_queue_depth", "gauge");
        write_sample(&mut out, "stone_serve_queue_depth", &[], self.queue_depth as f64);
        for v in &self.venues {
            write_sample(
                &mut out,
                "stone_serve_queue_depth",
                &[("venue", &v.venue)],
                v.queue_depth as f64,
            );
        }

        let counters: [(&str, u64, Option<VenueVal>); 6] = [
            ("stone_serve_enqueued_total", self.enqueued, Some(|v| v.enqueued)),
            ("stone_serve_completed_total", self.completed, Some(|v| v.completed)),
            ("stone_serve_rejected_total", self.rejected, None),
            ("stone_serve_expired_total", self.expired, Some(|v| v.expired)),
            (
                "stone_serve_panicked_batches_total",
                self.panicked_batches,
                Some(|v| v.panicked_batches),
            ),
            ("stone_serve_batches_total", self.batches(), Some(VenueStatsSnapshot::batches)),
        ];
        for (name, agg, venue_val) in counters {
            write_type(&mut out, name, "counter");
            write_sample(&mut out, name, &[], agg as f64);
            if let Some(f) = venue_val {
                for v in &self.venues {
                    write_sample(&mut out, name, &[("venue", &v.venue)], f(v) as f64);
                }
            }
        }

        write_type(&mut out, "stone_serve_shed_total", "counter");
        for v in &self.venues {
            write_sample(&mut out, "stone_serve_shed_total", &[("venue", &v.venue)], v.shed as f64);
        }
        write_type(&mut out, "stone_serve_breaker_trips_total", "counter");
        for v in &self.venues {
            write_sample(
                &mut out,
                "stone_serve_breaker_trips_total",
                &[("venue", &v.venue)],
                v.breaker_trips as f64,
            );
        }
        write_type(&mut out, "stone_serve_fast_failed_total", "counter");
        for v in &self.venues {
            write_sample(
                &mut out,
                "stone_serve_fast_failed_total",
                &[("venue", &v.venue)],
                v.fast_failed as f64,
            );
        }

        write_type(&mut out, "stone_serve_mean_batch_size", "gauge");
        write_sample(&mut out, "stone_serve_mean_batch_size", &[], self.mean_batch_size());
        for v in &self.venues {
            write_sample(
                &mut out,
                "stone_serve_mean_batch_size",
                &[("venue", &v.venue)],
                v.mean_batch_size(),
            );
        }

        write_type(&mut out, "stone_serve_latency_us", "histogram");
        write_pow2_histogram(
            &mut out,
            "stone_serve_latency_us",
            &[],
            &hist_array(&self.latency_hist),
            None,
        );
        for v in &self.venues {
            write_pow2_histogram(
                &mut out,
                "stone_serve_latency_us",
                &[("venue", &v.venue)],
                &hist_array(&v.latency_hist),
                None,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summed snapshot of one venue named "v".
    fn one(v: &VenueStats, max_batch: usize) -> StatsSnapshot {
        StatsSnapshot::from_venues(vec![v.snapshot("v")], max_batch)
    }

    #[test]
    fn batch_histogram_counts_by_size() {
        let v = VenueStats::new(4);
        v.record_batch(1);
        v.record_batch(3);
        v.record_batch(3);
        let snap = one(&v, 4);
        assert_eq!(snap.batch_hist, vec![1, 0, 2, 0]);
        assert_eq!(snap.batches(), 3);
        assert_eq!(snap.coalesced_batches(), 2);
        let mean = snap.mean_batch_size();
        assert!((mean - 7.0 / 3.0).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    fn queue_depth_tracks_enqueue_and_complete() {
        let v = VenueStats::new(2);
        v.record_enqueued();
        v.record_enqueued();
        assert_eq!(one(&v, 2).queue_depth, 2);
        v.record_completed(Duration::from_micros(10));
        let snap = one(&v, 2);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.enqueued, 2);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn latency_quantiles_interpolate_within_buckets() {
        let v = VenueStats::new(1);
        // 99 fast requests (~8 µs bucket [8, 16)), 1 slow (~1024 µs).
        for _ in 0..99 {
            v.record_completed(Duration::from_micros(9));
        }
        v.record_completed(Duration::from_micros(1500));
        let snap = one(&v, 1);
        // Rank ceil(0.5 * 100) = 50, the 50th of 99 bucket occupants:
        // 8 µs · (1 + 50/99) = 12040.40… ns.
        assert_eq!(snap.p50(), Some(Duration::from_nanos(12040)));
        // Rank ceil(0.99 * 100) = 99 — the last occupant of the fast
        // bucket, so the estimate degenerates to its 16 µs upper edge.
        assert_eq!(snap.p99(), Some(Duration::from_micros(16)));
        assert_eq!(snap.latency_quantile(1.0), Some(Duration::from_micros(2048)));
    }

    #[test]
    fn extreme_quantiles_clamp_to_first_and_last_rank() {
        let v = VenueStats::new(1);
        // Four records in the [8, 16) µs bucket.
        for _ in 0..4 {
            v.record_completed(Duration::from_micros(9));
        }
        let snap = one(&v, 1);
        // q = 0 → rank clamps to 1 of 4: 8 µs · (1 + 1/4) = 10 µs.
        assert_eq!(snap.latency_quantile(0.0), Some(Duration::from_micros(10)));
        // q = 1 → rank 4 of 4: the bucket's 16 µs upper edge.
        assert_eq!(snap.latency_quantile(1.0), Some(Duration::from_micros(16)));
    }

    #[test]
    fn absurd_latencies_clamp_into_top_bucket() {
        let v = VenueStats::new(1);
        // ~116 days — far beyond the 2^39 µs last bucket's lower edge.
        v.record_completed(Duration::from_secs(10_000_000));
        let snap = one(&v, 1);
        assert_eq!(snap.latency_hist[HIST_BUCKETS - 1], 1);
        // Sole occupant interpolates to the top bucket's 2^40 µs upper edge.
        assert_eq!(snap.latency_quantile(1.0), Some(Duration::from_micros(1 << 40)));
    }

    #[test]
    fn exposition_round_trips_through_the_obs_parser() {
        let a = VenueStats::new(4);
        a.record_enqueued();
        a.record_enqueued();
        a.record_batch(2);
        a.record_completed(Duration::from_micros(9));
        a.record_completed(Duration::from_micros(1500));
        a.record_shed();
        let b = VenueStats::new(4);
        b.record_enqueued();
        b.record_batch(1);
        b.record_completed(Duration::from_micros(9));
        b.record_shed();
        b.record_breaker_trip();

        let snap = StatsSnapshot::from_venues(vec![a.snapshot("hall-a"), b.snapshot("hall-b")], 4);
        let samples = stone_obs::parse_exposition(&snap.exposition()).expect("exposition parses");
        let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels.len() == labels.len()
                        && s.labels.iter().zip(labels).all(|((k, v), (ek, ev))| k == ek && v == ev)
                })
                .unwrap_or_else(|| panic!("sample {name}{labels:?} missing"))
                .value
        };
        assert_eq!(find("stone_serve_enqueued_total", &[]), 3.0);
        assert_eq!(find("stone_serve_completed_total", &[]), 3.0);
        assert_eq!(find("stone_serve_rejected_total", &[]), 2.0);
        assert_eq!(find("stone_serve_batches_total", &[]), 2.0);
        assert_eq!(find("stone_serve_mean_batch_size", &[]), 1.5);
        assert_eq!(find("stone_serve_enqueued_total", &[("venue", "hall-a")]), 2.0);
        assert_eq!(find("stone_serve_shed_total", &[("venue", "hall-b")]), 1.0);
        assert_eq!(find("stone_serve_breaker_trips_total", &[("venue", "hall-b")]), 1.0);
        // Histogram lines are cumulative: all three completions are under
        // the +Inf bucket, only the two fast ones under le="16".
        assert_eq!(find("stone_serve_latency_us_count", &[]), 3.0);
        assert_eq!(find("stone_serve_latency_us_bucket", &[("le", "+Inf")]), 3.0);
        assert_eq!(find("stone_serve_latency_us_bucket", &[("le", "16")]), 2.0);
    }

    #[test]
    fn empty_stats_have_no_quantiles() {
        let snap = StatsSnapshot::from_venues(Vec::new(), 1);
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.mean_batch_size(), 0.0);
        assert_eq!(snap.batch_hist, vec![0]);
        assert!(snap.venues.is_empty());
    }

    #[test]
    fn sub_microsecond_latencies_clamp_into_first_bucket() {
        let v = VenueStats::new(1);
        v.record_completed(Duration::from_nanos(1));
        assert_eq!(one(&v, 1).latency_quantile(1.0), Some(Duration::from_micros(2)));
    }

    #[test]
    fn aggregates_sum_the_venues() {
        let a = VenueStats::new(4);
        a.record_enqueued();
        a.record_batch(1);
        a.record_completed(Duration::from_micros(9));
        a.record_expired();
        let b = VenueStats::new(4);
        b.record_enqueued();
        b.record_shed();
        b.record_shed();
        b.record_shed();
        b.record_panicked_batch();

        let snap = StatsSnapshot::from_venues(vec![a.snapshot("a"), b.snapshot("b")], 4);
        let names: Vec<&str> = snap.venues.iter().map(|v| v.venue.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let va = snap.venue("a").expect("venue a tracked");
        assert_eq!((va.enqueued, va.completed, va.queue_depth), (1, 1, 0));
        assert_eq!(va.batch_hist, vec![1, 0, 0, 0]);
        assert!((va.mean_batch_size() - 1.0).abs() < 1e-12);
        assert_eq!(va.p50(), Some(Duration::from_micros(16)));
        let vb = snap.venue("b").expect("venue b tracked");
        assert_eq!((vb.enqueued, vb.queue_depth), (1, 1));
        assert_eq!(vb.shed, 3);
        assert_eq!(vb.p50(), None);
        assert!(snap.venue("c").is_none());
        // Every aggregate is the sum over the venues.
        assert_eq!((snap.enqueued, snap.completed, snap.queue_depth), (2, 1, 1));
        assert_eq!((snap.rejected, snap.expired, snap.panicked_batches), (3, 1, 1));
        assert_eq!(snap.batch_hist, vec![1, 0, 0, 0]);
        assert_eq!(snap.latency_hist, va.latency_hist);
    }
}
