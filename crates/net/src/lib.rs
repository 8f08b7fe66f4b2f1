//! # stone-net
//!
//! The framed-TCP front-end for [`stone_serve`]: the wire that turns the
//! in-process batching localization server into something phones on a
//! venue's network can actually query. Std-only (a `TcpListener`, threads
//! and channels — the workspace builds offline; see the `shims/` policy).
//!
//! Three pieces:
//!
//! * [`codec`] — a length-prefixed binary protocol for scan requests and
//!   position responses, with one version byte ([`PROTOCOL_VERSION`]) and
//!   hard caps on frame size, venue length and AP count enforced *before*
//!   any allocation. Hostile bytes produce a [`WireError`], never a panic.
//! * [`NetServer`] — an accept loop plus a reader/writer thread pair per
//!   connection. Readers feed the inner server's bounded queue through the
//!   fail-fast callback submit, so a full queue becomes a wire-visible
//!   [`WireStatus::Shed`] response instead of a stalled connection;
//!   writers send responses back in completion order. Shutdown drains
//!   gracefully: stop accepting, half-close reads, answer everything
//!   accepted, flush, join every thread.
//! * [`NetClient`] — a blocking client that can also pipeline: fire
//!   requests open-loop and drain responses opportunistically, matching
//!   them by the echoed request id (what perfbench's `fleet_16venue`
//!   workload runs on).
//!
//! A misbehaving connection — half-open, truncated mid-frame, dribbling
//! bytes, sending garbage or another protocol version — affects only
//! itself: the worst it gets is a [`WireStatus::Malformed`] goodbye and a
//! close, while every other connection keeps being served
//! (`tests/fault_injection.rs` pins this).
//!
//! The wire carries the resilience contract end to end: requests hold a
//! **deadline budget** (expired requests answer
//! [`WireStatus::DeadlineExceeded`] without touching the model), and
//! [`NetClient`] can carry a [`RetryPolicy`] that retries only transient
//! failures — sheds, a draining server, broken connections (reconnecting
//! first) — with deterministic jittered backoff.
//!
//! It carries the observability surface too: requests carry a **trace
//! id** (0 = untraced) that rides through to the server's stage spans, and
//! two header-only **admin queries** ([`codec::AdminQuery`]) answer with
//! chunked text — [`NetClient::fetch_stats`] returns the full telemetry
//! surface as Prometheus-style exposition (serve counters, latency
//! histograms, breaker states, model versions, wire counters, kernel
//! profiling, span ledger) and [`NetClient::fetch_trace`] dumps the span
//! ring. Setting `STONE_TRACE=1` where the server starts arms tracing
//! process-wide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

mod client;
mod server;

pub use client::{ClientError, NetClient, RetryPolicy};
pub use codec::{
    AdminChunk, AdminQuery, ScanRequest, ScanResponse, WireError, WirePosition, WireStatus,
    MAX_ADMIN_TEXT_LEN, MAX_AP_COUNT, MAX_FRAME_LEN, MAX_VENUE_LEN, PROTOCOL_VERSION,
};
pub use server::{NetServer, NetStatsSnapshot};
