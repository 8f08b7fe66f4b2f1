//! Ledger property test for the one submit body. Seeded random op lists —
//! fail-fast callback submits over three venues (one never published),
//! with and without deadlines, plus blocking ticket submits while the
//! queue has room — run against a paused server with a small
//! `queue_capacity`, then resume and shut down.
//!
//! Every reply must fire exactly once, every outcome must match a model of
//! the capacity, and the counters must balance:
//! `enqueued == completed + queue_depth` while paused, `rejected == Σ shed`,
//! `batched + expired + fast_failed == completed` after the drain, and
//! every aggregate field equals the sum over `venues`. The stats and
//! `breaker_states` list every venue submitted to, sorted by name, and a
//! venue no batch has run for reads `Closed`.
//!
//! The vendored proptest shim does not shrink, so a failing case reports
//! its seed and op list, which replays it exactly.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use stone::{KnnMode, StoneBuilder, StoneConfig, TrainerConfig};
use stone_dataset::{office_suite, Localizer, SuiteConfig};
use stone_radio::Point2;
use stone_serve::{
    BreakerState, LocalizationServer, LocateResponse, ModelRegistry, PendingLocate, ServeError,
    ServerConfig, StatsSnapshot, Submit,
};

const SEEDS: u64 = 64;
/// "ghost" is never published: its live requests answer `UnknownVenue`.
const VENUES: [&str; 3] = ["office", "lobby", "ghost"];
const CAPACITY: usize = 6;
/// Requests with a budget at or below this expire while the server is
/// paused (the test sleeps past it before resuming).
const SHORT: Duration = Duration::from_millis(1);
const DEADLINES: [Option<Duration>; 4] =
    [None, Some(Duration::ZERO), Some(SHORT), Some(Duration::from_secs(60))];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `try_submit_with` with a callback.
    TrySubmit { venue: usize, scan: usize, deadline: Option<Duration> },
    /// Blocking `submit`, generated only while the queue has room.
    Submit { venue: usize, scan: usize },
}

/// What the capacity model predicts for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    Accepted,
    Shed,
}

/// SplitMix64: one seed drives a whole op list.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The queue's shared capacity, replayed.
#[derive(Default)]
struct Model {
    queued: usize,
}

impl Model {
    fn admit(&mut self) -> Admission {
        if self.has_room() {
            self.queued += 1;
            Admission::Accepted
        } else {
            Admission::Shed
        }
    }

    fn has_room(&self) -> bool {
        self.queued < CAPACITY
    }
}

/// A random op list plus the admission the model predicts for each op.
fn ops_for(seed: u64, scans: usize) -> Vec<(Op, Admission)> {
    let mut rng = Rng(seed);
    let mut model = Model::default();
    (0..6 + rng.below(15))
        .map(|_| {
            let (venue, scan) = (rng.below(VENUES.len()), rng.below(scans));
            let op = if rng.below(4) == 0 && model.has_room() {
                Op::Submit { venue, scan }
            } else {
                Op::TrySubmit { venue, scan, deadline: DEADLINES[rng.below(DEADLINES.len())] }
            };
            (op, model.admit())
        })
        .collect()
}

/// Every aggregate field of `stats` equals the sum over its venues.
fn assert_aggregate_is_venue_sum(stats: &StatsSnapshot) {
    let sum = |f: fn(&stone_serve::VenueStatsSnapshot) -> u64| -> u64 {
        stats.venues.iter().map(f).sum()
    };
    assert_eq!(stats.queue_depth, stats.venues.iter().map(|v| v.queue_depth).sum::<usize>());
    assert_eq!(stats.enqueued, sum(|v| v.enqueued));
    assert_eq!(stats.completed, sum(|v| v.completed));
    assert_eq!(stats.rejected, sum(|v| v.shed));
    assert_eq!(stats.expired, sum(|v| v.expired));
    assert_eq!(stats.panicked_batches, sum(|v| v.panicked_batches));
    for (i, &n) in stats.batch_hist.iter().enumerate() {
        assert_eq!(n, stats.venues.iter().map(|v| v.batch_hist[i]).sum::<u64>(), "batch_hist");
    }
    for (i, &n) in stats.latency_hist.iter().enumerate() {
        assert_eq!(n, stats.venues.iter().map(|v| v.latency_hist[i]).sum::<u64>(), "latency");
    }
}

type Replies = Arc<Mutex<Vec<Vec<Result<LocateResponse, ServeError>>>>>;

/// Runs one op list and checks the ledger; panics on any violation.
fn run(registry: &Arc<ModelRegistry>, scans: &[Vec<f32>], direct: &[Point2], seed: u64) {
    let ops = ops_for(seed, scans.len());
    let mut server = LocalizationServer::start_paused(
        Arc::clone(registry),
        ServerConfig { max_batch: 4, queue_capacity: CAPACITY, ..ServerConfig::default() },
    );
    let handle = server.handle();
    let replies: Replies = Arc::new(Mutex::new(vec![Vec::new(); ops.len()]));
    let fired = |i: usize| replies.lock().expect("replies")[i].len();
    let mut tickets: Vec<Option<PendingLocate>> = Vec::new();
    let (mut accepted, mut shed) = (0u64, 0u64);
    let mut seen = BTreeSet::new();

    for (i, &(op, admission)) in ops.iter().enumerate() {
        let venue = match op {
            Op::TrySubmit { venue, scan, deadline } => {
                let replies = Arc::clone(&replies);
                let submit = Submit { deadline, ..Submit::new(VENUES[venue], &scans[scan]) };
                let returned = handle.try_submit_with(submit, move |result| {
                    replies.lock().expect("replies")[i].push(result);
                });
                let expected = match admission {
                    Admission::Accepted => Ok(()),
                    Admission::Shed => Err(ServeError::QueueFull),
                };
                assert_eq!(returned, expected, "op {i} admission");
                // A shed fires inline before the call returns; an accepted
                // request waits for the paused executor.
                assert_eq!(fired(i), usize::from(returned.is_err()), "op {i} inline fires");
                tickets.push(None);
                venue
            }
            Op::Submit { venue, scan } => {
                assert_eq!(
                    admission,
                    Admission::Accepted,
                    "generator keeps blocking submits in room"
                );
                tickets.push(Some(handle.submit(VENUES[venue], &scans[scan]).expect("room")));
                venue
            }
        };
        seen.insert(VENUES[venue]);
        match admission {
            Admission::Accepted => accepted += 1,
            Admission::Shed => shed += 1,
        }

        let stats = handle.stats();
        assert_aggregate_is_venue_sum(&stats);
        assert_eq!(stats.completed, 0, "nothing completes while paused");
        assert_eq!(stats.enqueued, stats.completed + stats.queue_depth as u64);
        assert_eq!(stats.enqueued, accepted);
        assert_eq!(stats.rejected, shed);
        let names: Vec<&str> = stats.venues.iter().map(|v| v.venue.as_str()).collect();
        assert_eq!(names, Vec::from_iter(seen.iter().copied()), "every venue seen, by name");
        let breakers = handle.breaker_states();
        assert!(breakers.iter().map(|(v, _)| v.as_str()).eq(seen.iter().copied()));
        assert!(breakers.iter().all(|(_, s)| *s == BreakerState::Closed), "never batched");
    }

    // Every short budget lapses while the executors are still parked.
    std::thread::sleep(SHORT * 5);
    server.resume();
    let mut expired = 0u64;
    for (i, (&(op, admission), ticket)) in ops.iter().zip(tickets).enumerate() {
        let (venue, scan, deadline, result) = match (op, ticket) {
            (Op::Submit { venue, scan }, Some(ticket)) => (venue, scan, None, ticket.wait()),
            (Op::TrySubmit { venue, scan, deadline }, None) => {
                let deadline_at = std::time::Instant::now() + Duration::from_secs(20);
                while fired(i) == 0 {
                    assert!(std::time::Instant::now() < deadline_at, "op {i} never answered");
                    std::thread::sleep(Duration::from_millis(1));
                }
                (venue, scan, deadline, replies.lock().expect("replies")[i][0].clone())
            }
            _ => unreachable!("one ticket per blocking submit"),
        };
        if admission != Admission::Accepted {
            continue; // its inline answer was checked at submit time
        }
        let name = VENUES[venue];
        if deadline.is_some_and(|d| d <= SHORT) {
            expired += 1;
            assert_eq!(result, Err(ServeError::DeadlineExceeded { venue: name.into() }), "op {i}");
        } else if name == "ghost" {
            assert_eq!(result, Err(ServeError::UnknownVenue { venue: name.into() }), "op {i}");
        } else {
            let resp = result.unwrap_or_else(|e| panic!("op {i} failed: {e}"));
            assert_eq!(resp.position, direct[scan], "op {i}: served == direct locate");
            assert_eq!(resp.model_version, 1);
        }
    }
    server.shutdown();

    // After the drain: still exactly one reply per callback, and the
    // completion ledger balances.
    for (i, answers) in replies.lock().expect("replies").iter().enumerate() {
        let want = usize::from(matches!(ops[i].0, Op::TrySubmit { .. }));
        assert_eq!(answers.len(), want, "op {i} fired {} times", answers.len());
    }
    let stats = handle.stats();
    assert_aggregate_is_venue_sum(&stats);
    let batched: u64 = stats.batch_hist.iter().enumerate().map(|(i, &n)| (i as u64 + 1) * n).sum();
    let fast_failed: u64 = stats.venues.iter().map(|v| v.fast_failed).sum();
    assert_eq!(batched + stats.expired + fast_failed, stats.completed);
    assert_eq!((stats.completed, stats.queue_depth), (accepted, 0));
    assert_eq!(stats.expired, expired);
    assert_eq!(stats.rejected, shed);

    // A submit after shutdown still fires exactly once, inline.
    let count = Arc::new(Mutex::new(0));
    let counter = Arc::clone(&count);
    let r = handle.try_submit_with(Submit::new("office", &scans[0]), move |result| {
        assert_eq!(result.unwrap_err(), ServeError::ShuttingDown);
        *counter.lock().expect("count") += 1;
    });
    assert_eq!(r, Err(ServeError::ShuttingDown));
    assert_eq!(*count.lock().expect("count"), 1);
}

#[test]
fn submit_ledger_balances_under_random_op_lists() {
    let suite = office_suite(&SuiteConfig::tiny(51));
    let model = StoneBuilder::from_config(StoneConfig {
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
    .fit(&suite.train, 51);
    let scans: Vec<Vec<f32>> =
        suite.train.records().iter().take(4).map(|r| r.rssi.clone()).collect();
    let direct: Vec<Point2> = scans.iter().map(|s| model.locate(s)).collect();
    let blob = model.save();
    let registry = Arc::new(ModelRegistry::new());
    for venue in &VENUES[..2] {
        registry.publish_bytes(venue, &blob).expect("publish");
    }

    for seed in 0..SEEDS {
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&registry, &scans, &direct, seed)));
        if outcome.is_err() {
            panic!("ledger violated for seed {seed}; op list: {:?}", ops_for(seed, scans.len()));
        }
    }
}
