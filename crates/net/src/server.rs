//! The framed-TCP listener in front of a [`LocalizationServer`].
//!
//! One accept thread, and per connection a **reader** thread (decode
//! frames, feed the server's bounded queue via the fail-fast callback
//! submit) and a **writer** thread (encode and send response frames in the
//! order answers become available — completion order, so a shed response
//! for a late request overtakes the answer to an earlier queued one).
//! Backpressure is wire-visible: a full queue sheds the request with
//! [`WireStatus::Shed`] instead of stalling the connection or panicking.
//!
//! Shutdown drains gracefully: stop accepting, half-close the read side of
//! every connection (no new requests), answer everything already accepted,
//! flush and half-close the write sides, join every thread.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use stone_obs::metrics::{write_sample, write_type};
use stone_serve::{
    LocalizationServer, LocateResponse, ModelRegistry, ServeError, ServerConfig, ServerHandle,
    StatsSnapshot, Submit,
};

use crate::codec::{
    decode_admin_request, decode_request, encode_admin_chunks, encode_response, AdminQuery,
    ScanResponse, WirePosition, WireStatus, KIND_STATS_REQUEST, KIND_TRACE_REQUEST, MAX_FRAME_LEN,
};

/// Live wire-level counters of one [`NetServer`], shared across its
/// connection threads (relaxed atomics — same recording discipline as
/// `stone-serve`'s per-venue counters).
#[derive(Debug, Default)]
struct NetStats {
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
    requests_decoded: AtomicU64,
    responses_written: AtomicU64,
    shed: AtomicU64,
    malformed_frames: AtomicU64,
    admin_requests: AtomicU64,
}

/// A point-in-time copy of a [`NetServer`]'s wire-level counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections fully torn down (writer flushed and exited).
    pub connections_closed: u64,
    /// Request frames successfully decoded.
    pub requests_decoded: u64,
    /// Response frames written to sockets (including error responses).
    pub responses_written: u64,
    /// Requests shed at the door with [`WireStatus::Shed`] (the wire view
    /// of the server's `rejected` counter).
    pub shed: u64,
    /// Frames that failed to parse; each one closed its connection after a
    /// [`WireStatus::Malformed`] goodbye.
    pub malformed_frames: u64,
    /// Admin telemetry queries ([`AdminQuery`]) answered.
    pub admin_requests: u64,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            requests_decoded: self.requests_decoded.load(Ordering::Relaxed),
            responses_written: self.responses_written.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            admin_requests: self.admin_requests.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the accept loop and the connection threads.
struct NetShared {
    accepting: AtomicBool,
    stats: NetStats,
    handle: ServerHandle,
    /// The inner server's registry — the admin stats surface reports each
    /// venue's published model version from here.
    registry: Arc<ModelRegistry>,
    conns: Mutex<Vec<Conn>>,
}

/// What a reader queues for its connection's writer thread.
enum Outbound {
    /// A scan answer.
    Response(ScanResponse),
    /// An admin reply body; the writer chunks it
    /// ([`encode_admin_chunks`]) so chunks of one reply are contiguous on
    /// the wire however many queries race.
    Admin { request_id: u64, text: String },
}

/// One live connection's threads plus a stream clone for half-closing.
/// The handles are `Option` only so shutdown can join the readers first
/// (drain order) and the writers after the inner server flushed.
struct Conn {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl Conn {
    fn is_finished(&self) -> bool {
        self.reader.as_ref().is_none_or(JoinHandle::is_finished)
            && self.writer.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

/// A framed-TCP localization server: a [`LocalizationServer`] with a wire.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use stone::StoneBuilder;
/// use stone_dataset::{office_suite, SuiteConfig};
/// use stone_net::{NetClient, NetServer};
/// use stone_serve::{ModelRegistry, ServerConfig};
///
/// let suite = office_suite(&SuiteConfig::tiny(1));
/// let registry = Arc::new(ModelRegistry::new());
/// registry.publish("office", StoneBuilder::quick().fit(&suite.train, 1));
///
/// let mut server = NetServer::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
/// let mut client = NetClient::connect(server.local_addr()).unwrap();
/// let pos = client.locate("office", &suite.train.records()[0].rssi).unwrap();
/// println!("located at ({}, {}) by model v{}", pos.x, pos.y, pos.model_version);
/// server.shutdown();
/// ```
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    server: Option<LocalizationServer>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `registry` with a fresh inner [`LocalizationServer`] built from
    /// `cfg`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener.
    pub fn start(
        registry: Arc<ModelRegistry>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::start_with(LocalizationServer::start(registry, cfg), addr)
    }

    /// Puts a wire in front of an already-running [`LocalizationServer`] —
    /// the composition point that lets tests start the inner server
    /// *paused* ([`LocalizationServer::start_paused`]) to pin the
    /// backpressure contract deterministically.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener.
    pub fn start_with(
        server: LocalizationServer,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Self> {
        // `STONE_TRACE=1` arms stage-span tracing for the whole process at
        // the moment the wire goes up — the ops-facing switch mirroring
        // `STONE_PROF` for kernels (in-process callers use
        // `stone_obs::set_tracing` directly).
        if std::env::var("STONE_TRACE").is_ok_and(|v| matches!(v.as_str(), "1" | "true")) {
            stone_obs::set_tracing(true);
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            accepting: AtomicBool::new(true),
            stats: NetStats::default(),
            handle: server.handle(),
            registry: Arc::clone(server.registry()),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stone-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(Self { addr: local, shared, accept: Some(accept), server: Some(server) })
    }

    /// The bound address (resolves the ephemeral port of `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Unparks the inner server's executor (see
    /// [`LocalizationServer::resume`]). A no-op unless it was started
    /// paused.
    pub fn resume(&self) {
        if let Some(server) = &self.server {
            server.resume();
        }
    }

    /// A point-in-time copy of the wire-level counters.
    #[must_use]
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A point-in-time copy of the inner [`LocalizationServer`]'s counters
    /// (queue depth, batch histogram, latency buckets).
    ///
    /// # Panics
    ///
    /// Panics when called after `shutdown` (the inner server is gone).
    #[must_use]
    pub fn serve_stats(&self) -> StatsSnapshot {
        self.server.as_ref().expect("server running").stats()
    }

    /// Gracefully drains and tears the whole front-end down:
    ///
    /// 1. stop accepting (new connects are refused once the listener
    ///    closes);
    /// 2. half-close the **read** side of every connection — no new
    ///    requests, but nothing already accepted is lost;
    /// 3. shut the inner server down, which answers every queued request
    ///    (their callbacks enqueue response frames);
    /// 4. writers flush those frames, half-close the **write** sides and
    ///    exit; every thread is joined before this returns.
    ///
    /// Returns the final wire-level counters — the only way to observe
    /// `connections_closed` at its settled value, since every writer has
    /// exited by the time this returns.
    ///
    /// Idempotent: a second call is a no-op that returns the same settled
    /// ledger (nothing moves the counters once every thread has exited).
    pub fn shutdown(&mut self) -> NetStatsSnapshot {
        self.shutdown_inner();
        self.shared.stats.snapshot()
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.shared.accepting.store(false, Ordering::SeqCst);
        // The accept loop is parked in accept(); a loopback connect wakes
        // it so it can observe the flag and drop the listener.
        drop(TcpStream::connect(self.addr));
        let _ = accept.join();

        let mut conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in &mut conns {
            // Readers exit on the EOF the half-close produced, after
            // submitting whatever complete frames they had already read;
            // they only block in read(), never in submit (try_submit_with
            // is non-blocking), so this join cannot deadlock.
            if let Some(reader) = conn.reader.take() {
                let _ = reader.join();
            }
        }
        // Drains the bounded queue: every accepted request is *answered*
        // (callbacks fire, enqueueing response frames on the writers).
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        // With all callback senders consumed and the readers gone, each
        // writer's channel disconnects once it has flushed everything.
        for mut conn in conns {
            if let Some(writer) = conn.writer.take() {
                let _ = writer.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetServer({})", self.addr)
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>) {
    for stream in listener.incoming() {
        if !shared.accepting.load(Ordering::SeqCst) {
            // The wake-up connect (or a straggler) lands here; dropping
            // the listener refuses everything after it.
            return;
        }
        let Ok(stream) = stream else { continue };
        shared.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        // Reap connections whose threads already finished so a long-lived
        // server's list tracks live connections, not history.
        conns.retain(|c| !c.is_finished());
        conns.push(spawn_connection(stream, shared));
    }
}

/// Spawns the reader/writer pair for one accepted connection.
fn spawn_connection(stream: TcpStream, shared: &Arc<NetShared>) -> Conn {
    // Response frames are small and latency-sensitive; never Nagle them.
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<Outbound>();
    let reader = {
        let stream = stream.try_clone().expect("clone stream");
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("stone-net-read".into())
            .spawn(move || reader_loop(stream, &shared, &tx))
            .expect("spawn reader thread")
    };
    let writer = {
        let stream = stream.try_clone().expect("clone stream");
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("stone-net-write".into())
            .spawn(move || writer_loop(stream, &shared, &rx))
            .expect("spawn writer thread")
    };
    Conn { stream, reader: Some(reader), writer: Some(writer) }
}

/// Reads frames off one connection, routes them by kind — scan requests
/// feed the server's bounded queue, admin queries are answered from the
/// telemetry surfaces — and exits on EOF, read error, or an unparseable
/// frame (after queueing a [`WireStatus::Malformed`] goodbye — framing
/// errors are not recoverable in-stream).
fn reader_loop(stream: TcpStream, shared: &Arc<NetShared>, tx: &Sender<Outbound>) {
    let mut reader = BufReader::new(stream);
    loop {
        let mut len_buf = [0u8; 4];
        if reader.read_exact(&mut len_buf).is_err() {
            return; // peer closed (or drain half-closed our read side)
        }
        let declared = u32::from_le_bytes(len_buf) as usize;
        if declared > MAX_FRAME_LEN {
            // Reject before allocating: an attacker-declared length never
            // reserves memory. (Lengths too short for a header fall through
            // to decode_request, which rejects them as Truncated.)
            goodbye(shared, tx);
            return;
        }
        let mut payload = vec![0u8; declared];
        if reader.read_exact(&mut payload).is_err() {
            return; // truncated mid-frame: peer gone
        }
        if matches!(
            crate::codec::payload_kind(&payload),
            Some(KIND_STATS_REQUEST | KIND_TRACE_REQUEST)
        ) {
            let Ok((query, request_id)) = decode_admin_request(&payload) else {
                goodbye(shared, tx);
                return;
            };
            shared.stats.admin_requests.fetch_add(1, Ordering::Relaxed);
            let text = match query {
                AdminQuery::Stats => stats_text(shared),
                AdminQuery::Trace => trace_text(),
            };
            drop(tx.send(Outbound::Admin { request_id, text }));
            continue;
        }
        // Any other protocol version fails here too (BadVersion): one
        // goodbye and a close, like any other unparseable frame.
        let Ok(req) = decode_request(&payload) else {
            goodbye(shared, tx);
            return;
        };
        shared.stats.requests_decoded.fetch_add(1, Ordering::Relaxed);
        let reply_tx = tx.clone();
        let reply_shared = Arc::clone(shared);
        let request_id = req.request_id;
        // The deadline budget counts from decode time (the server cannot
        // know the client's send instant); 0 on the wire means none.
        let deadline = (req.deadline_us > 0)
            .then(|| std::time::Duration::from_micros(u64::from(req.deadline_us)));
        let reply = move |result: Result<LocateResponse, ServeError>| {
            let result = match result {
                Ok(resp) => Ok(WirePosition {
                    x: resp.position.x,
                    y: resp.position.y,
                    model_version: resp.model_version,
                }),
                Err(e) => {
                    let status = WireStatus::from(&e);
                    if status == WireStatus::Shed {
                        reply_shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(status)
                }
            };
            // The writer being gone (peer vanished) is not an error.
            drop(reply_tx.send(Outbound::Response(ScanResponse { request_id, result })));
        };
        // The frame's trace id rides through to the executor's stage spans;
        // 0 lets the server mint its own.
        let submit =
            Submit { venue: &req.venue, rssi: &req.rssi, deadline, trace_id: req.trace_id };
        // A shed was already answered through the callback (that is the
        // wire-visible shed); only a draining server ends the read loop.
        if let Err(ServeError::ShuttingDown) = shared.handle.try_submit_with(submit, reply) {
            return;
        }
    }
}

/// Renders the full stats surface as one exposition document: the inner
/// server's counters and histograms, breaker states, published model
/// versions, the wire front-end's own counters, the global obs registry
/// (kernel profiling, pool dispatch) and the span ledger.
fn stats_text(shared: &NetShared) -> String {
    let mut out = shared.handle.stats().exposition();
    let breakers = shared.handle.breaker_states();
    if !breakers.is_empty() {
        write_type(&mut out, "stone_serve_breaker_state", "gauge");
        for (venue, state) in &breakers {
            write_sample(
                &mut out,
                "stone_serve_breaker_state",
                &[("venue", venue)],
                f64::from(state.as_gauge()),
            );
        }
    }
    let venues = shared.registry.venues();
    if !venues.is_empty() {
        write_type(&mut out, "stone_model_version", "gauge");
        for venue in &venues {
            if let Some(entry) = shared.registry.snapshot(venue) {
                let version = entry.version() as f64;
                write_sample(&mut out, "stone_model_version", &[("venue", venue)], version);
            }
        }
    }
    let net = shared.stats.snapshot();
    let counters = [
        ("stone_net_connections_accepted_total", net.connections_accepted),
        ("stone_net_connections_closed_total", net.connections_closed),
        ("stone_net_requests_decoded_total", net.requests_decoded),
        ("stone_net_responses_written_total", net.responses_written),
        ("stone_net_shed_total", net.shed),
        ("stone_net_malformed_frames_total", net.malformed_frames),
        ("stone_net_admin_requests_total", net.admin_requests),
    ];
    for (name, value) in counters {
        write_type(&mut out, name, "counter");
        write_sample(&mut out, name, &[], value as f64);
    }
    // The global registry (kernel profiling under STONE_PROF, pool
    // dispatch) plus the span ledger — CI's opened == closed invariant,
    // checked over the wire.
    out.push_str(&stone_obs::dump());
    let (opened, closed) = stone_obs::span_ledger();
    write_type(&mut out, "stone_trace_spans_opened_total", "counter");
    write_sample(&mut out, "stone_trace_spans_opened_total", &[], opened as f64);
    write_type(&mut out, "stone_trace_spans_closed_total", "counter");
    write_sample(&mut out, "stone_trace_spans_closed_total", &[], closed as f64);
    out
}

/// Most span records one trace query returns (newest kept). Bounds the
/// reply at roughly a quarter megabyte of text however full the ring is;
/// the header says when the window clipped.
const TRACE_DUMP_CAP: usize = 4096;

/// Renders the span ring as text: a `#`-prefixed header with the ledger
/// and window, then one `trace_id=… stage=… start_us=… dur_us=…` line per
/// record, oldest first.
fn trace_text() -> String {
    let spans = stone_obs::span_snapshot();
    let (opened, closed) = stone_obs::span_ledger();
    let skipped = spans.len().saturating_sub(TRACE_DUMP_CAP);
    let mut out = format!(
        "# span ring: {} records ({} older clipped), ledger opened={opened} closed={closed}, tracing={}\n",
        spans.len().min(TRACE_DUMP_CAP),
        skipped,
        if stone_obs::tracing_enabled() { "on" } else { "off" },
    );
    for s in &spans[skipped..] {
        out.push_str(&format!(
            "trace_id={} stage={} start_us={} dur_us={}\n",
            s.trace_id, s.stage, s.start_us, s.dur_us
        ));
    }
    out
}

/// Queues the request-id-0 Malformed goodbye that precedes closing a
/// desynchronized connection (or one speaking another protocol version).
fn goodbye(shared: &NetShared, tx: &Sender<Outbound>) {
    shared.stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
    let goodbye = ScanResponse { request_id: 0, result: Err(WireStatus::Malformed) };
    drop(tx.send(Outbound::Response(goodbye)));
}

/// Writes response frames in the order answers arrive (completion order),
/// flushing whenever the channel runs momentarily dry so latency never
/// waits on the buffer filling up.
fn writer_loop(stream: TcpStream, shared: &Arc<NetShared>, rx: &Receiver<Outbound>) {
    let half_close = stream.try_clone();
    let mut writer = BufWriter::new(stream);
    'outer: loop {
        let outbound = match rx.try_recv() {
            Ok(resp) => resp,
            Err(TryRecvError::Empty) => {
                if writer.flush().is_err() {
                    break;
                }
                match rx.recv() {
                    Ok(resp) => resp,
                    Err(_) => break, // reader gone and every callback fired
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match outbound {
            Outbound::Response(resp) => {
                if writer.write_all(&encode_response(&resp)).is_err() {
                    break; // peer gone; pending callbacks tolerate the dead channel
                }
                shared.stats.responses_written.fetch_add(1, Ordering::Relaxed);
            }
            // Chunks of one admin reply go out back to back — this thread
            // is the only writer, so a client can concatenate until `last`
            // without reordering logic.
            Outbound::Admin { request_id, text } => {
                for chunk in encode_admin_chunks(request_id, &text) {
                    if writer.write_all(&chunk).is_err() {
                        break 'outer;
                    }
                    shared.stats.responses_written.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    let _ = writer.flush();
    if let Ok(stream) = half_close {
        let _ = stream.shutdown(Shutdown::Write);
    }
    shared.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
}
