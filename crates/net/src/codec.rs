//! The wire codec: length-prefixed binary frames for scan requests and
//! position responses.
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload; every payload starts with a protocol version byte and a message
//! kind byte, then a client-chosen `u64` request id that the response
//! echoes (responses travel back in **completion order**, so the id is what
//! lets a pipelining client match them up). Hard caps bound every
//! allocation *before* it happens: a declared payload length above
//! [`MAX_FRAME_LEN`], a venue name above [`MAX_VENUE_LEN`] or an AP count
//! above [`MAX_AP_COUNT`] is rejected without reserving a byte, and counts
//! are additionally validated against the bytes actually present — hostile
//! input produces a [`WireError`], never a panic and never an oversized
//! allocation. The full frame layout table lives in `DESIGN.md`.

/// The one protocol version: every frame carries it, and the decoders
/// reject any other version byte with [`WireError::BadVersion`] — a server
/// answers such a frame with the [`WireStatus::Malformed`] goodbye and
/// closes the connection. Every client lives in this repository, so the
/// wire has no compatibility window to keep open.
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard cap on the declared payload length, in bytes. Anything larger is
/// rejected before allocation (a generous bound: the largest legal request
/// is `12 + 1 + 255 + 2 + 4·MAX_AP_COUNT` ≈ 8.5 KiB).
pub const MAX_FRAME_LEN: usize = 16 * 1024;

/// Hard cap on the RSSI vector length of one request.
pub const MAX_AP_COUNT: usize = 2048;

/// Hard cap on the venue-name byte length (it is length-prefixed by a
/// single byte, so this is also the representable maximum).
pub const MAX_VENUE_LEN: usize = 255;

/// Payload bytes shared by every message kind: version, kind, request id.
const HEADER_LEN: usize = 1 + 1 + 8;

/// Message kind byte of a scan request.
pub const KIND_REQUEST: u8 = 1;
/// Message kind byte of a position response.
pub const KIND_RESPONSE: u8 = 2;
/// Message kind byte of an admin **stats** query (header-only payload).
pub const KIND_STATS_REQUEST: u8 = 3;
/// Message kind byte of an admin **trace-snapshot** query (header-only
/// payload).
pub const KIND_TRACE_REQUEST: u8 = 4;
/// Message kind byte of one admin text chunk answering either query.
pub const KIND_ADMIN_CHUNK: u8 = 5;

/// Most text bytes one admin chunk can carry: whatever fits in a frame
/// after the header and the last-chunk flag. Longer admin bodies are split
/// across several chunks ([`encode_admin_chunks`]) rather than raising
/// [`MAX_FRAME_LEN`] for everyone.
pub const MAX_ADMIN_TEXT_LEN: usize = MAX_FRAME_LEN - HEADER_LEN - 1;

/// One localization query as it travels over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRequest {
    /// Client-chosen id echoed verbatim in the response.
    pub request_id: u64,
    /// Venue (building / floorplan) the scan belongs to.
    pub venue: String,
    /// The RSSI vector, one entry per AP of the venue's universe.
    pub rssi: Vec<f32>,
    /// Deadline budget in microseconds, counted from the moment the server
    /// decodes the request; **0 means no deadline**. A request still queued
    /// when its budget runs out is answered [`WireStatus::DeadlineExceeded`]
    /// without ever reaching the model. The `u32` range tops out around 71
    /// minutes — far past any sane queueing deadline.
    pub deadline_us: u32,
    /// Tracing correlation ID; **0 means untraced**. A nonzero ID is carried
    /// verbatim through the server's submit path, so the stage spans
    /// recorded for this request (when server-side tracing is enabled) can
    /// be joined with the client's own timings by ID.
    pub trace_id: u64,
}

/// A successful localization answer carried by a [`ScanResponse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePosition {
    /// Predicted floorplan x, in meters.
    pub x: f64,
    /// Predicted floorplan y, in meters.
    pub y: f64,
    /// Version of the model snapshot that produced the answer.
    pub model_version: u64,
}

/// Why a request failed, as a wire-visible status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireStatus {
    /// Backpressure: the server's bounded queue was full and the request
    /// was shed at the door. Retry with backoff.
    Shed = 1,
    /// No model is published for the requested venue.
    UnknownVenue = 2,
    /// The scan's AP count does not match the venue's model.
    DimensionMismatch = 3,
    /// The venue's model has an empty reference set.
    EmptyModel = 4,
    /// The server is draining and no longer accepts requests.
    ShuttingDown = 5,
    /// The connection sent bytes that do not parse as a frame. Sent with
    /// request id 0 as a goodbye: the server closes the connection after
    /// it (a framing error is not recoverable in-stream).
    Malformed = 6,
    /// Any server-side failure without a more specific code — including a
    /// batch that panicked inside the model call (isolated server-side; the
    /// request fails, the server survives).
    Internal = 7,
    /// The request's deadline budget expired while it was still queued; it
    /// never reached the model. Only requests that carried a deadline
    /// (`deadline_us > 0`) can receive this.
    DeadlineExceeded = 8,
    /// The venue's circuit breaker is open: recent batches for it kept
    /// failing, and the server fast-fails the venue without touching the
    /// model until a cooldown passes (rolling back to its last-good model
    /// meanwhile). Retryable — but give it longer than a [`WireStatus::Shed`]
    /// retry.
    Unavailable = 9,
}

impl WireStatus {
    /// Decodes a status byte (0 means OK and is handled by the response
    /// decoder, so it is not a `WireStatus`).
    fn from_byte(b: u8) -> Option<WireStatus> {
        Some(match b {
            1 => WireStatus::Shed,
            2 => WireStatus::UnknownVenue,
            3 => WireStatus::DimensionMismatch,
            4 => WireStatus::EmptyModel,
            5 => WireStatus::ShuttingDown,
            6 => WireStatus::Malformed,
            7 => WireStatus::Internal,
            8 => WireStatus::DeadlineExceeded,
            9 => WireStatus::Unavailable,
            _ => return None,
        })
    }
}

impl std::fmt::Display for WireStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireStatus::Shed => "shed (queue full)",
            WireStatus::UnknownVenue => "unknown venue",
            WireStatus::DimensionMismatch => "scan dimension mismatch",
            WireStatus::EmptyModel => "empty model",
            WireStatus::ShuttingDown => "server shutting down",
            WireStatus::Malformed => "malformed frame",
            WireStatus::Internal => "internal error",
            WireStatus::DeadlineExceeded => "deadline exceeded in queue",
            WireStatus::Unavailable => "venue unavailable (breaker open)",
        };
        f.write_str(s)
    }
}

impl From<&stone_serve::ServeError> for WireStatus {
    fn from(e: &stone_serve::ServeError) -> Self {
        use stone_serve::ServeError;
        match e {
            ServeError::QueueFull => WireStatus::Shed,
            ServeError::UnknownVenue { .. } => WireStatus::UnknownVenue,
            ServeError::ScanDimensionMismatch { .. } => WireStatus::DimensionMismatch,
            ServeError::EmptyModel { .. } => WireStatus::EmptyModel,
            ServeError::ShuttingDown => WireStatus::ShuttingDown,
            ServeError::DeadlineExceeded { .. } => WireStatus::DeadlineExceeded,
            ServeError::VenueUnavailable { .. } => WireStatus::Unavailable,
            // `ServeError` is non_exhaustive; anything future maps to the
            // catch-all rather than silently becoming a different contract.
            _ => WireStatus::Internal,
        }
    }
}

/// One response frame: the echoed request id plus either a position or a
/// [`WireStatus`] error code.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResponse {
    /// The [`ScanRequest::request_id`] this answers (0 for the connection-
    /// level [`WireStatus::Malformed`] goodbye).
    pub request_id: u64,
    /// The answer: a position, or the wire error code.
    pub result: Result<WirePosition, WireStatus>,
}

/// Why a frame failed to encode or decode. Decoding hostile bytes returns
/// one of these — it never panics and never allocates past the caps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the declared content.
    Truncated,
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared length.
        declared: usize,
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The kind byte is not a known message kind.
    BadKind(u8),
    /// The status byte of a response is not a known status.
    BadStatus(u8),
    /// The venue name exceeds [`MAX_VENUE_LEN`] (encode-side only; the wire
    /// length prefix is a single byte, so decode cannot see this).
    VenueTooLong(usize),
    /// The venue name bytes are not UTF-8.
    BadVenueUtf8,
    /// The text bytes of an admin chunk are not UTF-8.
    BadTextUtf8,
    /// The AP count exceeds [`MAX_AP_COUNT`].
    TooManyAps(usize),
    /// The payload has bytes left over after the declared content.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Oversized { declared } => {
                write!(f, "declared payload of {declared} B exceeds the {MAX_FRAME_LEN} B cap")
            }
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (supported: {PROTOCOL_VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadStatus(s) => write!(f, "unknown status code {s}"),
            WireError::VenueTooLong(n) => {
                write!(f, "venue name of {n} B exceeds the {MAX_VENUE_LEN} B cap")
            }
            WireError::BadVenueUtf8 => write!(f, "venue name is not UTF-8"),
            WireError::BadTextUtf8 => write!(f, "admin chunk text is not UTF-8"),
            WireError::TooManyAps(n) => {
                write!(f, "AP count {n} exceeds the {MAX_AP_COUNT} cap")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.bytes.len()))
        }
    }

    /// Consumes whatever remains of the payload.
    fn rest(self) -> &'a [u8] {
        self.bytes
    }
}

fn push_header(out: &mut Vec<u8>, kind: u8, request_id: u64) {
    out.extend_from_slice(&[PROTOCOL_VERSION, kind]);
    out.extend_from_slice(&request_id.to_le_bytes());
}

/// Seals a payload into a frame by prefixing its `u32` length.
fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() >= 4 + HEADER_LEN && payload.len() - 4 <= MAX_FRAME_LEN);
    let len = (payload.len() - 4) as u32;
    payload[..4].copy_from_slice(&len.to_le_bytes());
    payload
}

/// Encodes one request into a ready-to-send frame (length prefix included).
///
/// # Errors
///
/// [`WireError::VenueTooLong`] / [`WireError::TooManyAps`] when the request
/// exceeds the wire caps — nothing is sent for such a request.
pub fn encode_request(req: &ScanRequest) -> Result<Vec<u8>, WireError> {
    let venue = req.venue.as_bytes();
    if venue.len() > MAX_VENUE_LEN {
        return Err(WireError::VenueTooLong(venue.len()));
    }
    if req.rssi.len() > MAX_AP_COUNT {
        return Err(WireError::TooManyAps(req.rssi.len()));
    }
    let mut out =
        Vec::with_capacity(4 + HEADER_LEN + 4 + 8 + 1 + venue.len() + 2 + 4 * req.rssi.len());
    out.extend_from_slice(&[0; 4]); // length backpatched by seal()
    push_header(&mut out, KIND_REQUEST, req.request_id);
    out.extend_from_slice(&req.deadline_us.to_le_bytes());
    out.extend_from_slice(&req.trace_id.to_le_bytes());
    out.push(venue.len() as u8);
    out.extend_from_slice(venue);
    out.extend_from_slice(&(req.rssi.len() as u16).to_le_bytes());
    for &v in &req.rssi {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(seal(out))
}

/// Encodes one response into a ready-to-send frame (length prefix
/// included).
#[must_use]
pub fn encode_response(resp: &ScanResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + HEADER_LEN + 1 + 24);
    out.extend_from_slice(&[0; 4]);
    push_header(&mut out, KIND_RESPONSE, resp.request_id);
    match &resp.result {
        Ok(pos) => {
            out.push(0);
            out.extend_from_slice(&pos.x.to_le_bytes());
            out.extend_from_slice(&pos.y.to_le_bytes());
            out.extend_from_slice(&pos.model_version.to_le_bytes());
        }
        Err(status) => out.push(*status as u8),
    }
    seal(out)
}

/// Validates the version byte; returns the kind byte.
fn decode_version_and_kind(c: &mut Cursor<'_>) -> Result<u8, WireError> {
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    c.u8()
}

/// Validates version + kind; returns the request id.
fn decode_header(c: &mut Cursor<'_>, want_kind: u8) -> Result<u64, WireError> {
    let kind = decode_version_and_kind(c)?;
    if kind != want_kind {
        return Err(WireError::BadKind(kind));
    }
    c.u64()
}

/// Decodes one request payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// A [`WireError`] describing the first malformation found; hostile input
/// never panics and never allocates beyond the [`MAX_AP_COUNT`] cap.
pub fn decode_request(payload: &[u8]) -> Result<ScanRequest, WireError> {
    let mut c = Cursor { bytes: payload };
    let request_id = decode_header(&mut c, KIND_REQUEST)?;
    let deadline_us = c.u32()?;
    let trace_id = c.u64()?;
    let venue_len = c.u8()? as usize;
    let venue =
        std::str::from_utf8(c.take(venue_len)?).map_err(|_| WireError::BadVenueUtf8)?.to_string();
    let ap_count = c.u16()? as usize;
    if ap_count > MAX_AP_COUNT {
        return Err(WireError::TooManyAps(ap_count));
    }
    // The cursor bounds-checks every element read, so a count larger than
    // the bytes present fails with Truncated before the vector grows past
    // what the payload could actually hold.
    let mut rssi = Vec::with_capacity(ap_count.min(payload.len() / 4 + 1));
    for _ in 0..ap_count {
        rssi.push(c.f32()?);
    }
    c.finish()?;
    Ok(ScanRequest { request_id, venue, rssi, deadline_us, trace_id })
}

/// Decodes one response payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// A [`WireError`] describing the first malformation found.
pub fn decode_response(payload: &[u8]) -> Result<ScanResponse, WireError> {
    let mut c = Cursor { bytes: payload };
    let request_id = decode_header(&mut c, KIND_RESPONSE)?;
    let status = c.u8()?;
    let result = if status == 0 {
        Ok(WirePosition { x: c.f64()?, y: c.f64()?, model_version: c.u64()? })
    } else {
        Err(WireStatus::from_byte(status).ok_or(WireError::BadStatus(status))?)
    };
    c.finish()?;
    Ok(ScanResponse { request_id, result })
}

/// Which admin surface a telemetry query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminQuery {
    /// Prometheus-style exposition text: the serve stats (aggregate and
    /// per venue), breaker states, published model versions, the net
    /// front-end's own counters, the kernel-profiling registry and the
    /// span ledger.
    Stats,
    /// The span ring as text, one `trace_id stage start_us dur_us` line
    /// per record — newest window of traced requests.
    Trace,
}

/// One chunk of an admin reply. Bodies longer than
/// [`MAX_ADMIN_TEXT_LEN`] arrive as several chunks sharing the query's
/// request id; `last` marks the final one. Chunks for one request id are
/// contiguous and in order (the writer thread serializes them), so the
/// client just concatenates until `last`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminChunk {
    /// The admin query's request id, echoed on every chunk.
    pub request_id: u64,
    /// True on the final chunk of this reply.
    pub last: bool,
    /// This chunk's slice of the reply text.
    pub text: String,
}

/// Encodes an admin telemetry query (header-only payload).
#[must_use]
pub fn encode_admin_request(query: AdminQuery, request_id: u64) -> Vec<u8> {
    let kind = match query {
        AdminQuery::Stats => KIND_STATS_REQUEST,
        AdminQuery::Trace => KIND_TRACE_REQUEST,
    };
    let mut out = Vec::with_capacity(4 + HEADER_LEN);
    out.extend_from_slice(&[0; 4]);
    push_header(&mut out, kind, request_id);
    seal(out)
}

/// Decodes an admin telemetry query payload.
///
/// # Errors
///
/// [`WireError::BadKind`] when the payload is not an admin query, plus the
/// usual header malformations.
pub fn decode_admin_request(payload: &[u8]) -> Result<(AdminQuery, u64), WireError> {
    let mut c = Cursor { bytes: payload };
    let query = match decode_version_and_kind(&mut c)? {
        KIND_STATS_REQUEST => AdminQuery::Stats,
        KIND_TRACE_REQUEST => AdminQuery::Trace,
        k => return Err(WireError::BadKind(k)),
    };
    let request_id = c.u64()?;
    c.finish()?;
    Ok((query, request_id))
}

/// Encodes an admin reply as one or more ready-to-send chunk frames, each
/// within [`MAX_FRAME_LEN`], split at UTF-8 character boundaries. Always
/// yields at least one chunk (an empty reply is a single empty `last`
/// chunk).
#[must_use]
pub fn encode_admin_chunks(request_id: u64, text: &str) -> Vec<Vec<u8>> {
    let bytes = text.as_bytes();
    let mut chunks = Vec::new();
    let mut start = 0;
    loop {
        let mut end = (start + MAX_ADMIN_TEXT_LEN).min(bytes.len());
        // Back off to a char boundary so every chunk is valid UTF-8 on its
        // own (MAX_ADMIN_TEXT_LEN ≥ 4 guarantees progress).
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let last = end == bytes.len();
        let mut out = Vec::with_capacity(4 + HEADER_LEN + 1 + (end - start));
        out.extend_from_slice(&[0; 4]);
        push_header(&mut out, KIND_ADMIN_CHUNK, request_id);
        out.push(u8::from(last));
        out.extend_from_slice(&bytes[start..end]);
        chunks.push(seal(out));
        if last {
            return chunks;
        }
        start = end;
    }
}

/// Decodes one admin chunk payload.
///
/// # Errors
///
/// [`WireError::BadTextUtf8`] when the chunk's text bytes are not UTF-8,
/// plus the usual header malformations.
pub fn decode_admin_chunk(payload: &[u8]) -> Result<AdminChunk, WireError> {
    let mut c = Cursor { bytes: payload };
    let request_id = decode_header(&mut c, KIND_ADMIN_CHUNK)?;
    let last = c.u8()? != 0;
    let text = std::str::from_utf8(c.rest()).map_err(|_| WireError::BadTextUtf8)?.to_string();
    Ok(AdminChunk { request_id, last, text })
}

/// The kind byte of a decoded-but-unparsed payload — what a server's
/// reader uses to route a frame to the right decoder. `None` when the
/// payload is too short to carry a header.
#[must_use]
pub fn payload_kind(payload: &[u8]) -> Option<u8> {
    (payload.len() >= HEADER_LEN).then(|| payload[1])
}

/// An incremental frame accumulator: push whatever bytes the socket
/// yielded, pop complete payloads. This is what makes partial reads (slow
/// writers dribbling one byte at a time, short nonblocking reads) safe —
/// no byte is ever consumed until its whole frame arrived.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the socket.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload (without its length prefix), or
    /// `None` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the declared length exceeds
    /// [`MAX_FRAME_LEN`], or [`WireError::Truncated`] when it is too short
    /// to hold a header — the stream is desynchronized and the connection
    /// must be closed.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(WireError::Oversized { declared });
        }
        if declared < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        let payload = self.buf[4..4 + declared].to_vec();
        self.buf.drain(..4 + declared);
        Ok(Some(payload))
    }

    /// Bytes currently buffered (incomplete frame residue).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> ScanRequest {
        ScanRequest {
            request_id: 42,
            venue: "office-east".into(),
            rssi: vec![-60.0, -100.0, f32::NAN, 0.0, -71.5],
            deadline_us: 2_500,
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn request_roundtrip_is_bit_exact() {
        let frame = encode_request(&req()).unwrap();
        assert_eq!(frame[4], PROTOCOL_VERSION);
        let got = decode_request(&frame[4..]).unwrap();
        assert_eq!(got.request_id, 42);
        assert_eq!(got.venue, "office-east");
        assert_eq!(got.deadline_us, 2_500);
        assert_eq!(got.trace_id, 0xDEAD_BEEF_CAFE_F00D);
        // NaN-safe bit comparison.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.rssi), bits(&req().rssi));
    }

    #[test]
    fn response_roundtrips_both_arms() {
        let ok = ScanResponse {
            request_id: 7,
            result: Ok(WirePosition { x: 1.25, y: -3.5, model_version: 9 }),
        };
        let err = ScanResponse { request_id: 8, result: Err(WireStatus::Shed) };
        for resp in [&ok, &err] {
            let frame = encode_response(resp);
            assert_eq!(frame[4], PROTOCOL_VERSION);
            assert_eq!(&decode_response(&frame[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn caps_reject_before_allocation() {
        let huge = ScanRequest {
            request_id: 1,
            venue: "v".into(),
            rssi: vec![0.0; 3000],
            deadline_us: 0,
            trace_id: 0,
        };
        assert_eq!(encode_request(&huge).unwrap_err(), WireError::TooManyAps(3000));
        let long = ScanRequest {
            request_id: 1,
            venue: "v".repeat(300),
            rssi: vec![],
            deadline_us: 0,
            trace_id: 0,
        };
        assert_eq!(encode_request(&long).unwrap_err(), WireError::VenueTooLong(300));

        // A forged payload declaring more APs than the cap.
        let mut payload = Vec::new();
        push_header(&mut payload, KIND_REQUEST, 1);
        payload.extend_from_slice(&0u32.to_le_bytes()); // no deadline
        payload.extend_from_slice(&0u64.to_le_bytes()); // untraced
        payload.push(0); // empty venue
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode_request(&payload).unwrap_err(), WireError::TooManyAps(65535));
    }

    #[test]
    fn frame_buffer_reassembles_byte_dribble() {
        let frame = encode_request(&req()).unwrap();
        let mut fb = FrameBuffer::new();
        for &b in &frame[..frame.len() - 1] {
            fb.push_bytes(&[b]);
            assert_eq!(fb.next_payload().unwrap(), None);
        }
        fb.push_bytes(&frame[frame.len() - 1..]);
        let payload = fb.next_payload().unwrap().unwrap();
        assert_eq!(decode_request(&payload).unwrap().venue, "office-east");
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_unallocated() {
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&u32::MAX.to_le_bytes());
        assert_eq!(
            fb.next_payload().unwrap_err(),
            WireError::Oversized { declared: u32::MAX as usize }
        );
    }

    #[test]
    fn admin_request_roundtrips_both_queries() {
        for query in [AdminQuery::Stats, AdminQuery::Trace] {
            let frame = encode_admin_request(query, 77);
            assert_eq!(decode_admin_request(&frame[4..]).unwrap(), (query, 77));
            // The reader's router sees the right kind byte.
            let kind = payload_kind(&frame[4..]).unwrap();
            assert_eq!(kind, if query == AdminQuery::Stats { 3 } else { 4 });
        }
        // A scan request payload is not an admin query.
        let scan = encode_request(&req()).unwrap();
        assert_eq!(decode_admin_request(&scan[4..]).unwrap_err(), WireError::BadKind(KIND_REQUEST));
    }

    #[test]
    fn admin_chunks_split_reassemble_and_stay_within_the_frame_cap() {
        // Multi-byte chars across the split boundary exercise the UTF-8
        // backoff; 2.5 chunks' worth of text exercises the chunk loop.
        let text = "é".repeat(MAX_ADMIN_TEXT_LEN * 5 / 4);
        let chunks = encode_admin_chunks(9, &text);
        assert!(chunks.len() >= 3, "long body splits into several chunks");
        let mut rebuilt = String::new();
        for (i, frame) in chunks.iter().enumerate() {
            assert!(frame.len() - 4 <= MAX_FRAME_LEN, "chunk within the frame cap");
            let chunk = decode_admin_chunk(&frame[4..]).unwrap();
            assert_eq!(chunk.request_id, 9);
            assert_eq!(chunk.last, i == chunks.len() - 1, "only the final chunk is last");
            rebuilt.push_str(&chunk.text);
        }
        assert_eq!(rebuilt, text, "chunks concatenate back to the body");

        // An empty reply is still one (empty, last) chunk.
        let empty = encode_admin_chunks(3, "");
        assert_eq!(empty.len(), 1);
        let chunk = decode_admin_chunk(&empty[0][4..]).unwrap();
        assert!(chunk.last && chunk.text.is_empty());
    }

    #[test]
    fn wrong_version_and_kind_are_rejected() {
        // Every version byte but the current one is rejected — the old v1
        // and v2 included — on scan requests and admin queries alike.
        for version in [0, 1, 2, 4, 9] {
            let mut frame = encode_request(&req()).unwrap();
            frame[4] = version;
            assert_eq!(decode_request(&frame[4..]).unwrap_err(), WireError::BadVersion(version));
            let mut frame = encode_admin_request(AdminQuery::Stats, 1);
            frame[4] = version;
            let err = decode_admin_request(&frame[4..]).unwrap_err();
            assert_eq!(err, WireError::BadVersion(version));
        }
        let mut frame = encode_request(&req()).unwrap();
        frame[5] = 77;
        assert_eq!(decode_request(&frame[4..]).unwrap_err(), WireError::BadKind(77));
    }
}
