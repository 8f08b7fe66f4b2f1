//! `fleet_16venue`: an in-process `NetServer` over 16 venues, driven by
//! open-loop Poisson arrivals over two pipelined `NetClient` connections,
//! while a publisher thread warm-republishes one venue per second.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stone_repro::net::{ClientError, NetClient, ScanResponse, WireStatus};
use stone_repro::obs::{mint_trace_id, set_tracing};
use stone_repro::prelude::*;

use crate::deploy::{self, same_point};
use crate::layers::{self, Prof, Stages};
use crate::stats::{median, quantile, sorted};
use crate::{Args, Outcome};

pub const VENUES: usize = 16;
/// Offered load over all connections, requests per second. A batch-1
/// request costs the executor ~0.5 ms here, so it stays about a quarter
/// busy: queueing stays small and latency is the per-request path.
pub const RATE_HZ: f64 = 500.0;
/// Pipelined client connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// Seconds between two warm republishes (round-robin over the venues).
pub const PUBLISH_EVERY_S: u64 = 1;
/// A run whose generator sent later than this at p99 did not offer the
/// intended schedule; it is reported invalid.
pub const LAG_P99_BOUND_US: f64 = 5_000.0;

/// One request awaiting its answer.
struct Pending {
    scheduled: Instant,
    sent: Instant,
    scan: usize,
    trace_id: u64,
}

/// What one connection's generator saw.
#[derive(Default)]
struct Report {
    sent: u64,
    ok: u64,
    wrong: u64,
    shed: u64,
    expired: u64,
    errors: u64,
    timeouts: u64,
    /// (scheduled send as an offset into the window in s, scheduled send →
    /// answer in ms) of each correct answer.
    answers: Vec<(f64, f64)>,
    /// Actual send − scheduled send, µs.
    lags_us: Vec<f64>,
    /// (trace id, actual send → answer in µs) of each correct answer.
    client_us: Vec<(u64, f64)>,
}

struct Traffic<'a> {
    addr: SocketAddr,
    venues: &'a [String],
    pool: &'a [Vec<f32>],
    expected: &'a [Point2],
    start: Instant,
    end: Instant,
    /// Held around "peek the next trace id, send" so the id the client
    /// mints for a request is known (traced runs only).
    mint: &'a Mutex<()>,
    traced: bool,
}

impl Report {
    fn absorb(&mut self, resp: &ScanResponse, in_flight: &mut HashMap<u64, Pending>, t: &Traffic) {
        let Some(p) = in_flight.remove(&resp.request_id) else { return };
        let now = Instant::now();
        match resp.result {
            Ok(pos) => {
                let expected = t.expected[p.scan];
                if same_point(Point2::new(pos.x, pos.y), expected) {
                    self.ok += 1;
                    let at = (p.scheduled - t.start).as_secs_f64();
                    self.answers.push((at, (now - p.scheduled).as_secs_f64() * 1e3));
                    self.client_us.push((p.trace_id, (now - p.sent).as_secs_f64() * 1e6));
                } else {
                    self.wrong += 1;
                }
            }
            Err(WireStatus::Shed) => self.shed += 1,
            Err(WireStatus::DeadlineExceeded) => self.expired += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// One connection: Poisson arrivals at `rate_hz` on an absolute schedule
/// (a stall bursts to catch up rather than lowering the offered rate),
/// waiting on the socket for answers between sends.
fn generate(t: &Traffic, rate_hz: f64, seed: u64) -> Report {
    let mut r = Report::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = NetClient::connect(t.addr).expect("connect to the bench server");
    let mut in_flight: HashMap<u64, Pending> = HashMap::new();
    let mut next = t.start;
    loop {
        let now = Instant::now();
        if now >= t.end {
            break;
        }
        if now >= next {
            let venue = &t.venues[rng.gen_range(0..t.venues.len())];
            let scan = rng.gen_range(0..t.pool.len());
            let (id, trace_id) = {
                let _guard = t.traced.then(|| t.mint.lock().expect("mint lock"));
                let trace_id = if t.traced { mint_trace_id() + 1 } else { 0 };
                (client.send(venue, &t.pool[scan]).expect("send a scan"), trace_id)
            };
            let sent = Instant::now();
            r.lags_us.push((sent - next).as_secs_f64() * 1e6);
            in_flight.insert(id, Pending { scheduled: next, sent, scan, trace_id });
            r.sent += 1;
            let u: f64 = rng.gen();
            next += Duration::from_secs_f64(-(1.0 - u).ln() / rate_hz);
            continue;
        }
        let idle = next.min(t.end) - now;
        if idle.is_zero() {
            continue;
        }
        if in_flight.is_empty() {
            std::thread::sleep(idle);
            continue;
        }
        client.set_read_timeout(Some(idle)).expect("set read timeout");
        match client.recv() {
            Ok(resp) => r.absorb(&resp, &mut in_flight, t),
            Err(ClientError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("bench connection failed: {e:?}"),
        }
    }
    // Every request sent deserves its answer; what is missing after the
    // grace period is a timeout.
    client.finish_sending().expect("half-close");
    client.set_read_timeout(Some(Duration::from_secs(5))).expect("set read timeout");
    while !in_flight.is_empty() {
        match client.recv() {
            Ok(resp) => r.absorb(&resp, &mut in_flight, t),
            Err(_) => break,
        }
    }
    r.timeouts = in_flight.len() as u64;
    r
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut dep = deploy::serving(process_start, true);
    let t = Instant::now();
    let venues: Vec<String> = (0..VENUES).map(|v| format!("venue-{v:02}")).collect();
    let registry = Arc::new(ModelRegistry::new());
    for v in &venues {
        registry.publish_bytes(v, &dep.blob).expect("the deployment blob publishes");
    }
    let mut server = NetServer::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig { max_batch: 64, ..ServerConfig::default() },
    )
    .expect("bind a loopback port");
    let setup_s = dep.setup_s + t.elapsed().as_secs_f64();

    set_tracing(args.trace);
    let prof_before = Prof::now();
    let serve_before = server.serve_stats();
    let trace_low = mint_trace_id();
    let mint = Mutex::new(());
    let start = Instant::now();
    let traffic = Traffic {
        addr: server.local_addr(),
        venues: &venues,
        pool: &dep.pool,
        expected: &dep.expected,
        start,
        end: start + args.window(),
        mint: &mint,
        traced: args.trace,
    };
    let (reports, publish_ms) = std::thread::scope(|s| {
        let generators: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let traffic = &traffic;
                let seed = args.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                s.spawn(move || generate(traffic, RATE_HZ / CONNECTIONS as f64, seed))
            })
            .collect();
        // The publisher: one venue per tick, round-robin.
        let mut publish_ms = Vec::new();
        for k in 1u64.. {
            let tick = start + Duration::from_secs(k * PUBLISH_EVERY_S);
            if tick >= traffic.end {
                break;
            }
            std::thread::sleep(tick.saturating_duration_since(Instant::now()));
            let venue = &venues[(k as usize - 1) % VENUES];
            let t = Instant::now();
            registry.publish_bytes(venue, &dep.blob).expect("warm republish");
            publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let reports: Vec<Report> =
            generators.into_iter().map(|g| g.join().expect("generator thread")).collect();
        (reports, publish_ms)
    });
    let wall = start.elapsed().as_secs_f64();
    let trace_high = mint_trace_id();

    let mut r = Report::default();
    for mut g in reports {
        r.sent += g.sent;
        r.ok += g.ok;
        r.wrong += g.wrong;
        r.shed += g.shed;
        r.expired += g.expired;
        r.errors += g.errors;
        r.timeouts += g.timeouts;
        r.answers.append(&mut g.answers);
        r.lags_us.append(&mut g.lags_us);
        r.client_us.append(&mut g.client_us);
    }
    let lag_p99 = quantile(&sorted(&r.lags_us), 0.99);
    let wire = server.stats();
    let serve_after = server.serve_stats();
    let prof_after = Prof::now();
    dep.remeasure();

    let mut out = Outcome::new(r.sent, r.ok);
    out.checks.extend(dep.checks.iter().map(|&(n, v)| (n.to_string(), v)));
    out.check(
        "ledger_sent_eq_ok_wrong_shed_expired_errors_timeouts",
        r.sent == r.ok + r.wrong + r.shed + r.expired + r.errors + r.timeouts,
    );
    out.check("wire_decoded_eq_sent", wire.requests_decoded == r.sent);
    out.check(
        "serve_completed_eq_submitted",
        serve_after.completed - serve_before.completed == r.sent - wire.shed,
    );
    out.check("oracle_zero_mismatches", r.wrong == 0);
    let republished: u64 =
        venues.iter().filter_map(|v| registry.snapshot(v)).map(|e| e.version() - 1).sum();
    out.check("registry_versions_count_republishes", republished == publish_ms.len() as u64);
    out.valid = lag_p99 <= LAG_P99_BOUND_US;
    out.params = vec![
        ("loop", "open (Poisson)".into()),
        ("rate_hz", RATE_HZ.to_string()),
        ("connections", CONNECTIONS.to_string()),
        ("venues", VENUES.to_string()),
        ("references", dep.model.knn().len().to_string()),
        ("pool_scans", dep.pool.len().to_string()),
        ("device_mix", deploy::device_mix().map(|(n, _)| n).join(",")),
        ("publish_every_s", PUBLISH_EVERY_S.to_string()),
        ("republishes", publish_ms.len().to_string()),
        ("max_batch", "64".into()),
        ("window_s", format!("{wall:.3}")),
        ("lag_p99_us", format!("{lag_p99:.1}")),
        ("lag_p99_bound_us", LAG_P99_BOUND_US.to_string()),
    ];
    out.put_serving_e2e(&dep, setup_s, args, &r.answers);

    if args.trace {
        let m = &mut out.layer;
        let spans = Stages::collect(trace_low, trace_high);
        out.checks.push(("span_ledger_balanced".into(), layers::span_ledger_balances()));
        out.checks.push(("stage_shares_sum_to_100".into(), spans.shares_sum_to_100()));
        spans.put(m);
        layers::put_batches(m, Some((&serve_before, &serve_after)));
        m.put("serve.publish_ms.p50", median(&publish_ms), "ms", publish_ms.len() as u64);
        let overhead: Vec<f64> = r
            .client_us
            .iter()
            .filter_map(|(id, us)| spans.sums.get(id).map(|&sum| us - sum as f64))
            .collect();
        let overhead = sorted(&overhead);
        let n = overhead.len() as u64;
        m.put("net.overhead_us.p50", quantile(&overhead, 0.5), "us", n);
        m.put("net.overhead_us.p99", quantile(&overhead, 0.99), "us", n);
        m.put("net.frames_decoded", wire.requests_decoded as f64, "count", wire.requests_decoded);
        m.put("loadgen.lag_us.p99", lag_p99, "us", r.lags_us.len() as u64);
        layers::put_core_and_nn(m, &dep.model, &dep.pool);
        layers::put_absent(m, &layers::TRAIN_METRICS);
        prof_after.put_since(&prof_before, m);
        m.put("dataset.suite_build_ms", dep.suite_build_ms, "ms", deploy::SETUP_REPEATS as u64);
    }
    server.shutdown();
    out
}
