//! The wire-queryable telemetry surface (PR 10): admin stats/trace
//! queries answered over TCP, exposition text that round-trips through
//! the strict parser, wire trace ids carried from the client into the
//! server's stage spans, and a balanced span ledger.
//!
//! Tracing state is process-global, so this file holds a single test.

mod common;

use std::time::Duration;

use stone_net::{ClientError, NetClient, WireStatus};
use stone_obs::{mint_trace_id, parse_exposition, set_tracing, Sample};
use stone_serve::ServerConfig;

const SCANS: usize = 12;

/// The first sample with `name` and exactly these labels.
fn find<'a>(samples: &'a [Sample], name: &str, labels: &[(&str, &str)]) -> Option<&'a Sample> {
    samples.iter().find(|s| {
        s.name == name
            && s.labels.len() == labels.len()
            && s.labels.iter().zip(labels).all(|(got, want)| got.0 == want.0 && got.1 == want.1)
    })
}

#[test]
fn admin_queries_answer_over_tcp_with_carried_trace_ids() {
    let (registry, suite) = common::office_registry(31);
    let scan = suite.train.records()[0].rssi.clone();
    let mut server = stone_net::NetServer::start(
        registry,
        "127.0.0.1:0",
        ServerConfig { max_batch: 8, ..ServerConfig::default() },
    )
    .expect("bind ephemeral port");

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");

    set_tracing(true);
    // Bracket the run with two locally minted ids: every id the client
    // mints for the scans below falls strictly between them, and if the
    // server were re-minting instead of carrying the wire's trace id, the
    // bracket would widen by another SCANS.
    let low = mint_trace_id();
    for _ in 0..SCANS {
        client.locate("office", &scan).expect("traced locate");
    }
    let high = mint_trace_id();
    assert_eq!(
        high - low,
        SCANS as u64 + 1,
        "one minted id per scan: the server carried the wire ids instead of re-minting"
    );
    // A venue name from the wire becomes a label value of every later
    // stats document, so a newline in it must be escaped, not emitted.
    let hostile = "a\nb";
    assert!(matches!(
        client.locate(hostile, &scan),
        Err(ClientError::Status(WireStatus::UnknownVenue))
    ));
    // The WriteBack span is recorded *after* the reply is sent, so give
    // the executor a beat to finish the last request's bookkeeping before
    // snapshotting ledgers over the wire.
    std::thread::sleep(Duration::from_millis(200));

    // Stats: the whole surface in one parseable document.
    let stats = client.fetch_stats().expect("fetch stats");
    let samples = parse_exposition(&stats).expect("exposition parses strictly");
    let completed = find(&samples, "stone_serve_completed_total", &[]).expect("completed counter");
    assert!(completed.value >= SCANS as f64, "completed {} < {SCANS}", completed.value);
    let version =
        find(&samples, "stone_model_version", &[("venue", "office")]).expect("model version gauge");
    assert_eq!(version.value, 1.0);
    let decoded =
        find(&samples, "stone_net_requests_decoded_total", &[]).expect("net decode counter");
    assert!(decoded.value >= SCANS as f64);
    assert!(
        find(&samples, "stone_serve_latency_us_count", &[]).is_some(),
        "latency histogram crossed the wire"
    );
    let opened = find(&samples, "stone_trace_spans_opened_total", &[]).expect("ledger opened");
    let closed = find(&samples, "stone_trace_spans_closed_total", &[]).expect("ledger closed");
    assert_eq!(opened.value, closed.value, "span ledger balances over the wire");
    assert!(opened.value >= (SCANS * 5) as f64, "five spans per answered scan");
    let hostile_enqueued = find(&samples, "stone_serve_enqueued_total", &[("venue", hostile)])
        .expect("the newline venue's label parses back exactly");
    assert_eq!(hostile_enqueued.value, 1.0);

    // Trace: the span ring as text, holding complete traces for the
    // bracketed ids — five stages each.
    let trace = client.fetch_trace().expect("fetch trace");
    assert!(trace.starts_with("# span ring:"), "header line present: {trace:?}");
    for stage in ["queue_wait", "collect", "snapshot", "infer", "write_back"] {
        assert!(trace.contains(&format!("stage={stage}")), "{stage} span in dump");
    }
    let mut in_bracket = 0usize;
    for line in trace.lines().filter(|l| !l.starts_with('#')) {
        let id: u64 = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("trace_id="))
            .expect("trace_id field")
            .parse()
            .expect("numeric trace id");
        if id > low && id < high {
            in_bracket += 1;
        }
    }
    assert_eq!(in_bracket, SCANS * 5, "every scan's five spans carry its wire trace id");

    set_tracing(false);
    server.shutdown();
}
