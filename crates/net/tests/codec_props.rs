//! Property tests for the wire codec (satellite 1): round-trips are
//! bit-exact (including NaN RSSI payloads), and hostile bytes — truncated,
//! oversized, any version byte but the current one, or plain random — are
//! rejected with a `WireError`, never a panic and never an oversized
//! allocation.

use proptest::prelude::*;
use stone_net::codec::{
    decode_request, decode_response, encode_request, encode_response, FrameBuffer,
};
use stone_net::{
    ScanRequest, ScanResponse, WireError, WirePosition, WireStatus, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Arbitrary request ids, venue names (0..=24 lowercase chars) and RSSI
/// vectors drawn from the *full* `f32` bit space — NaNs, infinities,
/// subnormals and all — so "bit-exact" means exactly that.
fn request_strategy() -> impl Strategy<Value = ScanRequest> {
    any::<u64>().prop_map(|seed| {
        let mut rng = sample_rng(seed);
        let venue_len = (rng.next() % 25) as usize;
        let venue: String =
            (0..venue_len).map(|_| char::from(b'a' + (rng.next() % 26) as u8)).collect();
        let ap_count = (rng.next() % 65) as usize;
        let rssi: Vec<f32> = (0..ap_count).map(|_| f32::from_bits(rng.next())).collect();
        ScanRequest {
            request_id: rng.next_u64(),
            deadline_us: rng.next(),
            trace_id: rng.next_u64(),
            venue,
            rssi,
        }
    })
}

/// A tiny splitmix-style generator so one sampled `u64` can drive a whole
/// variable-length structure (the proptest shim samples each argument
/// independently, which cannot express "length then that many elements").
struct SampleRng(u64);

fn sample_rng(seed: u64) -> SampleRng {
    SampleRng(seed)
}

impl SampleRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
        z ^ (z >> 33)
    }

    fn next(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const STATUSES: [WireStatus; 9] = [
    WireStatus::Shed,
    WireStatus::UnknownVenue,
    WireStatus::DimensionMismatch,
    WireStatus::EmptyModel,
    WireStatus::ShuttingDown,
    WireStatus::Malformed,
    WireStatus::Internal,
    WireStatus::DeadlineExceeded,
    WireStatus::Unavailable,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrip_is_bit_exact(req in request_strategy()) {
        let frame = encode_request(&req).expect("within caps by construction");
        prop_assert_eq!(frame[4], PROTOCOL_VERSION);
        let got = decode_request(&frame[4..]).expect("own encoding decodes");
        prop_assert_eq!(got.request_id, req.request_id);
        prop_assert_eq!(got.deadline_us, req.deadline_us);
        prop_assert_eq!(got.trace_id, req.trace_id);
        prop_assert_eq!(&got.venue, &req.venue);
        prop_assert_eq!(bits(&got.rssi), bits(&req.rssi));
    }

    #[test]
    fn response_roundtrip_is_bit_exact(seed in any::<u64>()) {
        let mut rng = sample_rng(seed);
        let result = if rng.next().is_multiple_of(2) {
            Ok(WirePosition {
                x: f64::from_bits(rng.next_u64()),
                y: f64::from_bits(rng.next_u64()),
                model_version: rng.next_u64(),
            })
        } else {
            Err(STATUSES[(rng.next() % 9) as usize])
        };
        let resp = ScanResponse { request_id: rng.next_u64(), result };
        let frame = encode_response(&resp);
        let got = decode_response(&frame[4..]).expect("own encoding decodes");
        prop_assert_eq!(got.request_id, resp.request_id);
        match (got.result, resp.result) {
            (Ok(g), Ok(w)) => {
                prop_assert_eq!(g.x.to_bits(), w.x.to_bits());
                prop_assert_eq!(g.y.to_bits(), w.y.to_bits());
                prop_assert_eq!(g.model_version, w.model_version);
            }
            (Err(g), Err(w)) => prop_assert_eq!(g, w),
            (g, w) => return Err(format!("arm flipped: {g:?} vs {w:?}")),
        }
    }

    #[test]
    fn every_strict_prefix_is_rejected_not_panicked(req in request_strategy()) {
        // Every field is length-declared, so cutting the payload anywhere
        // must surface as an error (almost always `Truncated`) — and the
        // decoder must never panic on any cut point.
        let frame = encode_request(&req).expect("within caps");
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            prop_assert!(
                decode_request(&payload[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                payload.len()
            );
        }
        for cut in 0..14.min(payload.len()) {
            prop_assert!(decode_response(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoders(seed in any::<u64>(), len in 0usize..256) {
        let mut rng = sample_rng(seed);
        let payload: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
        // Either outcome is fine; panicking or over-allocating is not.
        let _ = decode_request(&payload);
        let _ = decode_response(&payload);
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&payload);
        while let Ok(Some(p)) = fb.next_payload() {
            let _ = decode_request(&p);
            let _ = decode_response(&p);
        }
    }

    #[test]
    fn frame_buffer_reassembly_is_chunking_invariant(req in request_strategy(), seed in any::<u64>()) {
        // Delivering the same two frames under any chunking (down to one
        // byte per read) yields the same payload sequence.
        let mut rng = sample_rng(seed);
        let mut stream = encode_request(&req).expect("within caps");
        stream.extend_from_slice(&encode_response(&ScanResponse {
            request_id: req.request_id,
            result: Err(WireStatus::Shed),
        }));
        let mut fb = FrameBuffer::new();
        let mut payloads = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let take = 1 + (rng.next() as usize) % rest.len().min(7);
            let (chunk, tail) = rest.split_at(take.min(rest.len()));
            fb.push_bytes(chunk);
            rest = tail;
            while let Some(p) = fb.next_payload().expect("well-formed stream") {
                payloads.push(p);
            }
        }
        prop_assert_eq!(payloads.len(), 2);
        let got = decode_request(&payloads[0]).expect("request arrives intact");
        prop_assert_eq!(bits(&got.rssi), bits(&req.rssi));
        prop_assert_eq!(
            decode_response(&payloads[1]).expect("response arrives intact").result,
            Err(WireStatus::Shed)
        );
        prop_assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn corrupted_header_bytes_are_rejected(req in request_strategy(), tweak in any::<u32>()) {
        let mut frame = encode_request(&req).expect("within caps");
        // Corrupt the version byte to anything but PROTOCOL_VERSION.
        let bad_version = match (tweak & 0xff) as u8 {
            PROTOCOL_VERSION => PROTOCOL_VERSION ^ 0x80,
            v => v,
        };
        frame[4] = bad_version;
        prop_assert_eq!(
            decode_request(&frame[4..]).map(|_| ()),
            Err(WireError::BadVersion(bad_version))
        );
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_buffering(extra in 1usize..1_000_000) {
        let declared = MAX_FRAME_LEN + extra;
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&(declared as u32).to_le_bytes());
        prop_assert_eq!(fb.next_payload(), Err(WireError::Oversized { declared }));
    }
}
