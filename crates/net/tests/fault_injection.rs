//! Fault-injection suite (satellite 2): hostile and broken connections —
//! half-open peers, mid-frame disconnects, garbage preambles, clients on an
//! old protocol version, one-byte dribblers — must each affect only
//! themselves. Throughout, a well-behaved
//! client keeps getting answers that are bitwise equal to direct in-process
//! `locate` calls, and the wire counters account for every event exactly.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stone_dataset::Localizer;
use stone_net::codec::{decode_response, encode_request, FrameBuffer};
use stone_net::{NetClient, NetServer, ScanRequest, WireStatus};
use stone_serve::ServerConfig;

const TIMEOUT: Duration = Duration::from_secs(20);

fn poll_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + TIMEOUT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A scan request frame in the layout of protocol v1 (no deadline, no
/// trace id) or v2 (deadline, no trace id) — what a client built before the
/// wire settled on one version would send.
fn old_request_frame(version: u8, venue: &str, rssi: &[f32]) -> Vec<u8> {
    let mut payload = vec![version, 1];
    payload.extend_from_slice(&7u64.to_le_bytes());
    if version == 2 {
        payload.extend_from_slice(&0u32.to_le_bytes());
    }
    payload.push(venue.len() as u8);
    payload.extend_from_slice(venue.as_bytes());
    payload.extend_from_slice(&(rssi.len() as u16).to_le_bytes());
    for v in rssi {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn faulty_connections_only_hurt_themselves() {
    let (registry, suite) = common::office_registry(7);
    let snapshot = registry.snapshot("office").expect("published");
    let scans: Vec<Vec<f32>> = suite
        .buckets
        .iter()
        .flat_map(|b| b.trajectories.iter().flat_map(|t| &t.fingerprints))
        .map(|f| f.rssi.clone())
        .take(8)
        .collect();
    assert_eq!(scans.len(), 8, "suite too small for the scenario");

    let mut server = NetServer::start(
        registry,
        "127.0.0.1:0",
        ServerConfig { queue_capacity: 64, ..ServerConfig::default() },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Fault 1: a half-open peer — connects, sends nothing, just sits there.
    // It must not occupy anything the other connections need.
    let half_open = TcpStream::connect(addr).expect("half-open connect");

    // Fault 2: a mid-frame disconnect — declares a 64-byte payload,
    // delivers 10 bytes, vanishes. Not a protocol violation the server can
    // even prove (the rest could have been in flight), so it is *not*
    // counted malformed; the reader just unwinds.
    {
        let mut s = TcpStream::connect(addr).expect("mid-frame connect");
        s.write_all(&64u32.to_le_bytes()).expect("length prefix");
        s.write_all(&[0u8; 10]).expect("partial payload");
    } // dropped here: RST/FIN mid-frame

    // Fault 3: bytes that never parse as a current frame — a garbage
    // preamble (an HTTP request, say: the first four bytes read as a
    // ~540 MB declared length, rejected without allocating), and requests
    // from protocol v1 and v2 clients. Each connection gets the
    // request-id-0 Malformed goodbye, then the server closes it.
    let hostile = [
        b"GET /locate HTTP/1.1\r\n\r\n".to_vec(),
        old_request_frame(1, "office", &scans[0]),
        old_request_frame(2, "office", &scans[0]),
    ];
    for bytes in hostile {
        let mut conn = TcpStream::connect(addr).expect("hostile connect");
        conn.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
        conn.write_all(&bytes).expect("hostile bytes");
        let mut frames = FrameBuffer::new();
        let mut buf = [0u8; 256];
        let goodbye = loop {
            if let Some(payload) = frames.next_payload().expect("well-formed goodbye") {
                break decode_response(&payload).expect("goodbye decodes");
            }
            let n = conn.read(&mut buf).expect("read goodbye");
            assert!(n > 0, "EOF before the Malformed goodbye");
            frames.push_bytes(&buf[..n]);
        };
        assert_eq!(goodbye.request_id, 0);
        assert_eq!(goodbye.result, Err(WireStatus::Malformed));
        // After the goodbye the server closes the connection.
        poll_until(|| conn.read(&mut buf).map(|n| n == 0).unwrap_or(true), "hostile conn EOF");
    }

    // Fault 4: a dribbler — a perfectly valid frame delivered one byte at a
    // time. Slow is not wrong: it must get a real answer.
    {
        let frame = encode_request(&ScanRequest {
            request_id: 99,
            deadline_us: 0,
            trace_id: 0,
            venue: "office".into(),
            rssi: scans[0].clone(),
        })
        .expect("within caps");
        let mut s = TcpStream::connect(addr).expect("dribble connect");
        s.set_nodelay(true).expect("nodelay");
        s.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
        for &b in &frame {
            s.write_all(&[b]).expect("dribble byte");
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut frames = FrameBuffer::new();
        let mut buf = [0u8; 256];
        let resp = loop {
            if let Some(payload) = frames.next_payload().expect("well-formed response") {
                break decode_response(&payload).expect("response decodes");
            }
            let n = s.read(&mut buf).expect("read response");
            assert!(n > 0, "EOF before the dribbler's answer");
            frames.push_bytes(&buf[..n]);
        };
        assert_eq!(resp.request_id, 99);
        let pos = resp.result.expect("dribbled request is answered");
        let direct = snapshot.model().locate(&scans[0]);
        assert_eq!((pos.x, pos.y), (direct.x, direct.y), "dribbled answer differs from direct");
        assert_eq!(pos.model_version, snapshot.version());
    }

    // Meanwhile, a well-behaved client gets every answer, each bitwise
    // equal to a direct in-process locate on the same snapshot.
    let mut client = NetClient::connect(addr).expect("good client connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    for scan in &scans {
        let pos = client.locate("office", scan).expect("good client is served");
        let direct = snapshot.model().locate(scan);
        assert_eq!((pos.x, pos.y), (direct.x, direct.y), "served answer differs from direct");
        assert_eq!(pos.model_version, snapshot.version());
    }

    // Unknown venues and dimension mismatches come back as status codes on
    // a healthy connection — not as closes.
    let err = client.locate("atlantis", &scans[0]).expect_err("unknown venue");
    assert!(
        matches!(err, stone_net::ClientError::Status(WireStatus::UnknownVenue)),
        "unexpected error: {err}"
    );
    let err = client.locate("office", &[0.0_f32; 3]).expect_err("dimension mismatch");
    assert!(
        matches!(err, stone_net::ClientError::Status(WireStatus::DimensionMismatch)),
        "unexpected error: {err}"
    );
    let pos = client.locate("office", &scans[0]).expect("still serving after status errors");
    assert_eq!(pos.model_version, snapshot.version());

    // The broken connections (mid-frame, the three hostile ones, the
    // dribbler) have fully closed by now; the half-open one and the good
    // client are still up.
    poll_until(|| server.stats().connections_closed >= 5, "faulty conns torn down");

    let live = server.stats();
    assert_eq!(
        live.connections_accepted, 7,
        "half-open + mid-frame + garbage + v1 + v2 + dribble + good"
    );
    assert_eq!(live.malformed_frames, 3, "garbage, v1 and v2 are provably malformed");
    // 8 good locates + unknown-venue + mismatch + 1 retry + 1 dribble.
    assert_eq!(live.requests_decoded, 12);
    assert_eq!(live.shed, 0, "nothing overflowed the queue in this scenario");

    let final_stats = server.shutdown();
    drop(half_open);
    assert_eq!(final_stats.connections_closed, 7, "every connection torn down on drain");
    assert_eq!(final_stats.responses_written, 15, "12 answers + 3 malformed goodbyes");
}
