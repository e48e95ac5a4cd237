//! # costream-front — the network-attached serving front-end
//!
//! `costream-serve` batches concurrent scoring requests *in process*.
//! This crate puts a wire protocol and a fault-tolerance boundary in
//! front of it, turning the batcher into a deployable service:
//!
//! * **Length-prefixed-JSON protocol** over [`std::net`] (see
//!   [`wire`]): a 4-byte big-endian length header followed by a JSON
//!   payload. The vendored serde shim prints floats shortest-roundtrip,
//!   so an `f64` score survives the wire **bitwise** — the golden tests
//!   compare served scores against direct in-process prediction with
//!   `==`.
//! * **Signature-sharded scoring** (see [`server`]): the front-end runs
//!   [`FrontConfig::shards`] independent `ScoringService`s and routes
//!   each request by the hash of its plan signature, so every shard's
//!   plan-cache LRU stays hot on its own subset of graph shapes instead
//!   of all shards thrashing over the full shape universe.
//! * **Priority QoS and deadlines**: the wire request carries a lane
//!   ([`wire::WireLane`]) and an optional *relative* deadline in
//!   microseconds (relative, so clients need no clock sync with the
//!   server); both map directly onto the serving layer's lanes and
//!   load-shedding.
//! * **Versioned hot model swap**: [`server::Frontend::swap_model`]
//!   atomically replaces the model on every shard with zero downtime;
//!   each scored response reports the version that produced it.
//! * **Connection-level fault handling**: malformed payloads — bad
//!   JSON, the wrong shape, nesting past the decoder's depth limit,
//!   numbers out of `f64`'s range — get a typed error response and the
//!   connection keeps serving; oversized frames get a typed error and a
//!   close; mid-frame disconnects are dropped silently. The decoder's
//!   stack and time are bounded by constants and the frame length, so
//!   none of these can kill the acceptor, a reader thread or the
//!   process.
//! * **Graceful drain**: [`server::Frontend::shutdown`] stops
//!   accepting, closes connection reads, finishes everything already
//!   submitted (bounded by a deadline), then exits.
//!
//! A reusable load generator ([`loadgen`]) drives a front-end with
//! mixed-lane pipelined traffic and optional connection-level fault
//! injection, recording per-lane latency percentiles — the bench harness
//! uses it for the sustained million-request run.

#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{ClientError, FrontClient};
pub use server::{FrontReport, FrontStats, Frontend};
pub use wire::{ErrorKind, FrameError, Request, RequestBody, Response, WireLane};

use costream_serve::ServeConfig;

/// Front-end tuning knobs.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// Independent `ScoringService` shards. Requests route by
    /// `hash(plan_signature) % shards`, so a recurring graph shape always
    /// lands on the same shard and that shard's fragment cache stays hot
    /// on it, whatever the shapes batched with it.
    /// Each shard gets its own worker pool and queue budgets from
    /// [`FrontConfig::serve`].
    pub shards: usize,
    /// Per-shard serving configuration (workers, lane queue budgets,
    /// plan-cache capacity).
    pub serve: ServeConfig,
    /// Maximum accepted frame payload, bytes. A frame header declaring
    /// more is answered with a typed `Oversized` error and the
    /// connection is closed (the stream cannot be resynchronized
    /// without consuming the payload).
    pub max_frame_bytes: usize,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            shards: 2,
            serve: ServeConfig::default(),
            max_frame_bytes: 8 << 20,
        }
    }
}
