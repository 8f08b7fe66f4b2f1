//! A blocking (optionally pipelining) client for the framed-TCP protocol.
//!
//! [`NetClient::locate`] is the one-call path: send a scan, wait for its
//! answer. A fleet simulator instead **pipelines**: [`NetClient::send`]
//! fires requests open-loop and [`NetClient::try_recv`] opportunistically
//! drains whatever responses have arrived, matching them back to requests
//! by the echoed id — which is what lets one thread simulate a device that
//! keeps scanning regardless of how far behind the server is.
//!
//! A client can carry a [`RetryPolicy`]: the blocking `locate` paths then
//! retry **transient** failures only — [`WireStatus::Shed`] (backpressure),
//! [`WireStatus::ShuttingDown`], and connection errors (reconnecting first)
//! — with exponential backoff and deterministic, seed-derived jitter.
//! Terminal answers (unknown venue, dimension mismatch, a deadline already
//! spent, an open breaker) are never retried: hammering a server that just
//! told you why the request cannot succeed is how retry storms start.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::codec::{
    decode_admin_chunk, decode_response, encode_admin_request, encode_request, payload_kind,
    AdminQuery, FrameBuffer, ScanRequest, ScanResponse, WireError, WirePosition, WireStatus,
    KIND_ADMIN_CHUNK,
};

/// How the blocking `locate` paths of a [`NetClient`] handle transient
/// failures. [`RetryPolicy::none`] (the [`NetClient::connect`] default)
/// surfaces every error to the caller — existing backpressure contracts see
/// every shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per `locate`, the first included; 1 disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) exponential backoff.
    pub max_backoff: Duration,
    /// Lifetime cap on retries across the whole client — the anti-
    /// retry-storm valve: once spent, errors surface immediately even if
    /// `max_attempts` would allow another try. `u32::MAX` means unlimited.
    pub retry_budget: u32,
    /// Seed for the deterministic jitter: each backoff is scaled by a
    /// factor in `[0.5, 1.0)` derived from `jitter_seed ^ attempt`, so a
    /// fleet of clients with different seeds decorrelates without any
    /// global randomness (reruns stay reproducible).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces to the caller immediately.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            retry_budget: 0,
            jitter_seed: 0,
        }
    }

    /// A small default: 3 tries, 1 ms base backoff capped at 50 ms,
    /// unlimited budget, jittered by `seed`.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            retry_budget: u32::MAX,
            jitter_seed: seed,
        }
    }

    /// The sleep before retry number `attempt` (1-based): exponential,
    /// capped, jittered into `[0.5, 1.0)` of the nominal value.
    fn backoff(&self, attempt: u32) -> Duration {
        let nominal = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let jitter = 0.5 + 0.5 * frac64(splitmix64(self.jitter_seed ^ u64::from(attempt)));
        nominal.mul_f64(jitter)
    }
}

/// SplitMix64 — the workspace's stock seed scrambler.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a u64 to `[0, 1)`.
fn frac64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket error (includes timeouts on the blocking paths).
    Io(std::io::Error),
    /// The server sent bytes that do not parse as a response frame.
    Wire(WireError),
    /// The request itself violates the wire caps and was never sent.
    Encode(WireError),
    /// The server closed the connection (EOF).
    Closed,
    /// The server answered the request with a wire error code.
    Status(WireStatus),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "bad response frame: {e}"),
            ClientError::Encode(e) => write!(f, "request violates wire caps: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Status(s) => write!(f, "server error: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One framed-TCP connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    frames: FrameBuffer,
    next_id: u64,
    policy: RetryPolicy,
    /// Where we connected — the reconnect target after a broken pipe.
    peer: SocketAddr,
    read_timeout: Option<Duration>,
    total_retries: u64,
}

impl NetClient {
    /// Connects to a server with no retry policy ([`RetryPolicy::none`]).
    /// `TCP_NODELAY` is enabled — frames are small and latency-sensitive.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, RetryPolicy::none())
    }

    /// Connects with a [`RetryPolicy`] applied by the blocking `locate`
    /// paths.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from connecting.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream,
            frames: FrameBuffer::new(),
            next_id: 1,
            policy,
            peer,
            read_timeout: None,
            total_retries: 0,
        })
    }

    /// Retries performed over this client's lifetime (across reconnects) —
    /// the retry-amplification numerator: a server's decoded requests are
    /// its clients' sends plus their retries.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// The local socket address.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Sends one scan without waiting, returning the request id its
    /// response will echo (ids count up from 1 per connection).
    ///
    /// # Errors
    ///
    /// [`ClientError::Encode`] when the request violates the wire caps
    /// (nothing is sent), or [`ClientError::Io`] from the socket.
    pub fn send(&mut self, venue: &str, rssi: &[f32]) -> Result<u64, ClientError> {
        self.send_deadline(venue, rssi, 0)
    }

    /// [`NetClient::send`] with a deadline budget in microseconds (0 = no
    /// deadline): if the request is still queued server-side when the
    /// budget runs out, its response is [`WireStatus::DeadlineExceeded`]
    /// and the model is never consulted.
    ///
    /// When tracing is enabled in this process
    /// ([`stone_obs::tracing_enabled`]), the request carries a freshly
    /// minted trace ID on the wire so the server's stage spans attribute
    /// to it; otherwise the trace-id field is 0 and the server mints its
    /// own (or none, if tracing is off server-side too).
    ///
    /// # Errors
    ///
    /// Same as [`NetClient::send`].
    pub fn send_deadline(
        &mut self,
        venue: &str,
        rssi: &[f32],
        deadline_us: u32,
    ) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        let trace_id = if stone_obs::tracing_enabled() { stone_obs::mint_trace_id() } else { 0 };
        let frame = encode_request(&ScanRequest {
            request_id,
            venue: venue.to_string(),
            rssi: rssi.to_vec(),
            deadline_us,
            trace_id,
        })
        .map_err(ClientError::Encode)?;
        self.stream.write_all(&frame)?;
        self.next_id += 1;
        Ok(request_id)
    }

    /// Pops one response if a complete frame has already arrived, without
    /// blocking. Returns `Ok(None)` when the socket has nothing ready.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF, [`ClientError::Wire`] on an
    /// unparseable frame, or [`ClientError::Io`].
    pub fn try_recv(&mut self) -> Result<Option<ScanResponse>, ClientError> {
        if let Some(payload) = self.frames.next_payload().map_err(ClientError::Wire)? {
            return decode_response(&payload).map(Some).map_err(ClientError::Wire);
        }
        self.stream.set_nonblocking(true)?;
        let fill = self.fill_from_socket();
        self.stream.set_nonblocking(false)?;
        let closed = match fill {
            Ok(()) => false,
            Err(ClientError::Closed) => true,
            Err(e) => return Err(e),
        };
        match self.frames.next_payload().map_err(ClientError::Wire)? {
            Some(payload) => decode_response(&payload).map(Some).map_err(ClientError::Wire),
            // EOF with no frame ready: surface the close.
            None if closed => Err(ClientError::Closed),
            None => Ok(None),
        }
    }

    /// Blocks until the next response arrives (in completion order, which
    /// for pipelined traffic is not necessarily send order).
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF, [`ClientError::Wire`] on an
    /// unparseable frame, or [`ClientError::Io`] (including read
    /// timeouts configured on the socket).
    pub fn recv(&mut self) -> Result<ScanResponse, ClientError> {
        let payload = self.next_payload_blocking()?;
        decode_response(&payload).map_err(ClientError::Wire)
    }

    /// Sends one scan and blocks until **its** answer arrives (responses
    /// to other pipelined requests received meanwhile are decoded and
    /// dropped — use [`NetClient::send`]/[`NetClient::recv`] directly when
    /// pipelining). Transient failures are retried per the client's
    /// [`RetryPolicy`] (none by default).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a server-side error code surfaces as
    /// [`ClientError::Status`].
    pub fn locate(&mut self, venue: &str, rssi: &[f32]) -> Result<WirePosition, ClientError> {
        self.locate_deadline_us(venue, rssi, 0)
    }

    /// [`NetClient::locate`] with a per-attempt deadline budget in
    /// microseconds (see [`NetClient::send_deadline`]). A
    /// [`WireStatus::DeadlineExceeded`] answer is **not** retried — the
    /// budget is the client saying the answer is worthless after that long.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a server-side error code surfaces as
    /// [`ClientError::Status`].
    pub fn locate_deadline_us(
        &mut self,
        venue: &str,
        rssi: &[f32],
        deadline_us: u32,
    ) -> Result<WirePosition, ClientError> {
        let mut attempt = 1u32;
        loop {
            let err = match self.locate_once(venue, rssi, deadline_us) {
                Ok(pos) => return Ok(pos),
                Err(e) => e,
            };
            if attempt >= self.policy.max_attempts
                || self.total_retries >= u64::from(self.policy.retry_budget)
                || !retryable(&err)
            {
                return Err(err);
            }
            // A dead connection gets one reconnect try per retry; if it
            // fails, keep the broken stream — the next attempt fails fast
            // and may retry again, until attempts or budget run out.
            if matches!(err, ClientError::Closed | ClientError::Io(_)) {
                self.reconnect();
            }
            self.total_retries += 1;
            std::thread::sleep(self.policy.backoff(attempt));
            attempt += 1;
        }
    }

    /// One send + wait-for-my-id cycle, no retries.
    fn locate_once(
        &mut self,
        venue: &str,
        rssi: &[f32],
        deadline_us: u32,
    ) -> Result<WirePosition, ClientError> {
        let id = self.send_deadline(venue, rssi, deadline_us)?;
        loop {
            let resp = self.recv()?;
            if resp.request_id == id {
                return resp.result.map_err(ClientError::Status);
            }
        }
    }

    /// Fetches the server's full stats surface as Prometheus-style
    /// exposition text (parseable with [`stone_obs::parse_exposition`]):
    /// serve counters and latency histograms, breaker states, model
    /// versions, wire counters, the kernel-profiling registry and the span
    /// ledger.
    ///
    /// Best sent on an **idle** connection: scan responses to still-
    /// pipelined requests that arrive while the reply streams in are
    /// decoded and dropped, exactly like [`NetClient::locate`]'s wait
    /// loop.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF, [`ClientError::Wire`] on an
    /// unparseable frame, or [`ClientError::Io`].
    pub fn fetch_stats(&mut self) -> Result<String, ClientError> {
        self.fetch_admin(AdminQuery::Stats)
    }

    /// Fetches the server's span-ring snapshot as text — one
    /// `trace_id=… stage=… start_us=… dur_us=…` line per record after a
    /// `#` header carrying the ledger. Same idle-connection caveat as
    /// [`NetClient::fetch_stats`].
    ///
    /// # Errors
    ///
    /// Same as [`NetClient::fetch_stats`].
    pub fn fetch_trace(&mut self) -> Result<String, ClientError> {
        self.fetch_admin(AdminQuery::Trace)
    }

    /// Sends one admin query and concatenates its reply chunks until the
    /// `last` flag (the server's writer thread keeps them contiguous).
    fn fetch_admin(&mut self, query: AdminQuery) -> Result<String, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&encode_admin_request(query, request_id))?;
        let mut text = String::new();
        loop {
            let payload = self.next_payload_blocking()?;
            if payload_kind(&payload) != Some(KIND_ADMIN_CHUNK) {
                // A scan response to a still-pipelined request: decode (to
                // keep framing honest) and drop, as locate's wait loop does.
                decode_response(&payload).map_err(ClientError::Wire)?;
                continue;
            }
            let chunk = decode_admin_chunk(&payload).map_err(ClientError::Wire)?;
            if chunk.request_id != request_id {
                continue; // a stale admin reply from an abandoned fetch
            }
            text.push_str(&chunk.text);
            if chunk.last {
                return Ok(text);
            }
        }
    }

    /// Blocks until one complete frame payload is available, whatever its
    /// kind.
    fn next_payload_blocking(&mut self) -> Result<Vec<u8>, ClientError> {
        loop {
            if let Some(payload) = self.frames.next_payload().map_err(ClientError::Wire)? {
                return Ok(payload);
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.frames.push_bytes(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Re-dials the peer, replacing the dead stream and dropping any
    /// half-received frame residue (it belonged to the old connection).
    /// Returns whether the dial succeeded.
    fn reconnect(&mut self) -> bool {
        let Ok(stream) = TcpStream::connect(self.peer) else { return false };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(self.read_timeout);
        self.stream = stream;
        self.frames = FrameBuffer::new();
        true
    }

    /// Sets the blocking-read timeout used by [`NetClient::recv`] /
    /// [`NetClient::locate`] (`None` blocks forever). Survives a
    /// retry-triggered reconnect.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the socket.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.read_timeout = timeout;
        self.stream.set_read_timeout(timeout)
    }

    /// Half-closes the write side, telling the server this client will
    /// send no more requests (pending responses can still be read).
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the socket.
    pub fn finish_sending(&self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Drains socket bytes into the frame buffer until `WouldBlock`.
    fn fill_from_socket(&mut self) -> Result<(), ClientError> {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.frames.push_bytes(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Whether an error is worth another try under a [`RetryPolicy`]:
/// backpressure sheds, a draining server, and connection-level failures.
/// Everything else is terminal — the server *answered*; asking again with
/// the same request reproduces the same answer at best and a retry storm at
/// worst.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Status(WireStatus::Shed | WireStatus::ShuttingDown) => true,
        ClientError::Closed => true,
        ClientError::Io(e) => matches!(
            e.kind(),
            ErrorKind::BrokenPipe
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::ConnectionRefused
                | ErrorKind::NotConnected
                | ErrorKind::UnexpectedEof
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_jittered_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(40),
            retry_budget: u32::MAX,
            jitter_seed: 7,
        };
        for attempt in 1..10 {
            let nominal = p
                .base_backoff
                .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
                .min(p.max_backoff);
            let b = p.backoff(attempt);
            assert_eq!(b, p.backoff(attempt), "same seed + attempt → same backoff");
            assert!(b >= nominal.mul_f64(0.5) && b < nominal, "jitter stays in [0.5, 1.0)");
        }
        // Different seeds decorrelate (not a proof, but the obvious check).
        let q = RetryPolicy { jitter_seed: 8, ..p };
        assert_ne!(p.backoff(3), q.backoff(3));
    }

    #[test]
    fn only_transient_errors_are_retryable() {
        assert!(retryable(&ClientError::Status(WireStatus::Shed)));
        assert!(retryable(&ClientError::Status(WireStatus::ShuttingDown)));
        assert!(retryable(&ClientError::Closed));
        assert!(retryable(&ClientError::Io(std::io::Error::from(ErrorKind::BrokenPipe))));
        for terminal in [
            WireStatus::UnknownVenue,
            WireStatus::DimensionMismatch,
            WireStatus::EmptyModel,
            WireStatus::Malformed,
            WireStatus::Internal,
            WireStatus::DeadlineExceeded,
            WireStatus::Unavailable,
        ] {
            assert!(!retryable(&ClientError::Status(terminal)), "{terminal:?} must be terminal");
        }
        assert!(!retryable(&ClientError::Io(std::io::Error::from(ErrorKind::TimedOut))));
        assert!(!retryable(&ClientError::Wire(WireError::Truncated)));
    }
}
