//! The wire half of the backpressure contract (satellite 3): a paused
//! inner server with queue capacity K behind the TCP front-end, more than
//! K pipelined requests in flight — exactly the overflow is shed with a
//! wire-visible [`WireStatus::Shed`], the shed responses overtake the
//! queued answers (completion order), and the serve-side `rejected`
//! counter matches what the client observed on the wire.

mod common;

use std::time::Duration;

use stone_net::{NetClient, NetServer, WireStatus};
use stone_serve::{LocalizationServer, ServerConfig};

const CAPACITY: usize = 4;
const SENT: usize = 9;

#[test]
fn overflow_is_shed_on_the_wire_and_ledgers_agree() {
    let (registry, suite) = common::office_registry(21);
    let scan = suite.train.records()[0].rssi.clone();

    // Paused executors: the queue fills to exactly CAPACITY before any
    // request executes, so the shed set is deterministic.
    let inner = LocalizationServer::start_paused(
        registry,
        ServerConfig { max_batch: 16, queue_capacity: CAPACITY, ..ServerConfig::default() },
    );
    let mut server = NetServer::start_with(inner, "127.0.0.1:0").expect("bind ephemeral port");

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");

    // Fire SENT pipelined requests; ids come back 1..=SENT.
    let ids: Vec<u64> = (0..SENT).map(|_| client.send("office", &scan).expect("send")).collect();
    assert_eq!(ids, (1..=SENT as u64).collect::<Vec<_>>());

    // The overflow is answered first: its Shed responses are produced
    // inline at submit time, while the accepted requests sit in the
    // paused queue. Completion order means the wire shows the sheds
    // *before* the answers to earlier requests.
    let mut shed_ids = Vec::new();
    for _ in 0..SENT - CAPACITY {
        let resp = client.recv().expect("shed response");
        assert_eq!(resp.result, Err(WireStatus::Shed), "id {}", resp.request_id);
        shed_ids.push(resp.request_id);
    }
    shed_ids.sort_unstable();
    assert_eq!(
        shed_ids,
        (CAPACITY as u64 + 1..=SENT as u64).collect::<Vec<_>>(),
        "exactly the requests beyond capacity are shed"
    );

    // Nothing has executed yet; the ledgers already show the sheds.
    let mid = server.serve_stats();
    assert_eq!(mid.rejected as usize, SENT - CAPACITY);
    assert_eq!(mid.enqueued as usize, CAPACITY);
    assert_eq!(mid.completed, 0, "executors are still paused");
    assert_eq!(server.stats().shed as usize, SENT - CAPACITY);

    // Resume: every accepted request is answered (completion order again —
    // one batch, so arrival order within it is submission order).
    server.resume();
    let mut ok_ids = Vec::new();
    for _ in 0..CAPACITY {
        let resp = client.recv().expect("answer");
        let pos = resp.result.expect("accepted request answered");
        assert_eq!(pos.model_version, 1);
        ok_ids.push(resp.request_id);
    }
    ok_ids.sort_unstable();
    assert_eq!(ok_ids, (1..=CAPACITY as u64).collect::<Vec<_>>());

    let served = server.serve_stats();
    assert_eq!(served.completed as usize, CAPACITY);
    assert_eq!(served.rejected as usize, SENT - CAPACITY);
    assert_eq!(served.queue_depth, 0);

    let wire = server.shutdown();
    assert_eq!(wire.requests_decoded as usize, SENT);
    assert_eq!(wire.shed as usize, SENT - CAPACITY, "wire sheds match the serve ledger");
    assert_eq!(wire.responses_written as usize, SENT, "every request got a wire answer");
    assert_eq!(wire.malformed_frames, 0);
}
