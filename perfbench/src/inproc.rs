//! `inproc_saturated`: one generator thread keeps 64 `ServerHandle::submit`
//! requests outstanding against a one-venue in-process server (a closed
//! loop), so the executor always has a full coalesced batch waiting.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stone_repro::obs::{mint_trace_id, set_tracing};
use stone_repro::prelude::*;

use crate::deploy::{self, same_point};
use crate::layers::{self, Prof, Stages};
use crate::{Args, Outcome};

/// Requests the generator keeps in flight.
pub const OUTSTANDING: usize = 64;
const VENUE: &str = "venue-00";

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut dep = deploy::serving(process_start, false);
    let t = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_bytes(VENUE, &dep.blob).expect("the deployment blob publishes");
    let mut server = LocalizationServer::start(
        Arc::clone(&registry),
        ServerConfig { max_batch: 64, ..ServerConfig::default() },
    );
    let handle = server.handle();
    let setup_s = dep.setup_s + t.elapsed().as_secs_f64();

    set_tracing(args.trace);
    let prof_before = Prof::now();
    let stats_before = server.stats();
    let trace_low = mint_trace_id();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut in_flight = VecDeque::with_capacity(OUTSTANDING);
    let (mut submitted, mut ok, mut wrong, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut answers = Vec::new();
    let start = Instant::now();
    let end = start + args.window();
    loop {
        let now = Instant::now();
        if now < end {
            while in_flight.len() < OUTSTANDING {
                let i = rng.gen_range(0..dep.pool.len());
                match handle.submit(VENUE, &dep.pool[i]) {
                    Ok(p) => in_flight.push_back((p, i, Instant::now())),
                    Err(_) => errors += 1,
                }
                submitted += 1;
            }
        }
        let Some((pending, i, sent)) = in_flight.pop_front() else { break };
        match pending.wait() {
            Ok(resp) if same_point(resp.position, dep.expected[i]) => {
                ok += 1;
                answers.push(((sent - start).as_secs_f64(), sent.elapsed().as_secs_f64() * 1e3));
            }
            Ok(_) => wrong += 1,
            Err(_) => errors += 1,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let trace_high = mint_trace_id();
    let stats_after = server.stats();
    let prof_after = Prof::now();
    dep.remeasure();

    let mut out = Outcome::new(submitted, ok);
    out.checks.extend(dep.checks.iter().map(|&(n, v)| (n.to_string(), v)));
    out.check("ledger_submitted_eq_ok_wrong_errors", submitted == ok + wrong + errors);
    out.check(
        "serve_completed_eq_submitted",
        stats_after.completed - stats_before.completed == submitted,
    );
    out.check("oracle_zero_mismatches", wrong == 0);
    out.params = vec![
        ("loop", "closed".into()),
        ("outstanding", OUTSTANDING.to_string()),
        ("venues", "1".into()),
        ("references", dep.model.knn().len().to_string()),
        ("pool_scans", dep.pool.len().to_string()),
        ("max_batch", "64".into()),
        ("window_s", format!("{wall:.3}")),
    ];
    out.put_serving_e2e(&dep, setup_s, args, &answers);

    if args.trace {
        let m = &mut out.layer;
        let spans = Stages::collect(trace_low, trace_high);
        out.checks.push(("span_ledger_balanced".into(), layers::span_ledger_balances()));
        out.checks.push(("stage_shares_sum_to_100".into(), spans.shares_sum_to_100()));
        spans.put(m);
        layers::put_batches(m, Some((&stats_before, &stats_after)));
        layers::put_absent(m, &layers::PUBLISH_METRIC);
        layers::put_absent(m, &layers::NET_METRICS);
        layers::put_core_and_nn(m, &dep.model, &dep.pool);
        layers::put_absent(m, &layers::TRAIN_METRICS);
        prof_after.put_since(&prof_before, m);
        m.put("dataset.suite_build_ms", dep.suite_build_ms, "ms", deploy::SETUP_REPEATS as u64);
    }
    server.shutdown();
    out
}
