//! The front-end server: acceptor, per-connection reader/writer pairs,
//! signature-based shard routing, drain.
//!
//! Threading model (std-only, no async runtime in the offline build):
//!
//! * one **acceptor** thread owns the listener;
//! * each connection gets a **reader** (buffered frames → decode → route
//!   → submit) and a **writer** (await pending scores in submission
//!   order → encode → write, gathering the responses that are already
//!   known into one `write`), coupled by a [`sync_channel`] of
//!   `MAX_PIPELINE` jobs: the pipeline bound doubles as backpressure on
//!   the reader, and whichever side ends first (the reader returning or
//!   unwinding, the writer losing its peer) drops its end of the channel,
//!   which disconnects the other;
//! * scoring itself happens in the shards' own worker pools
//!   ([`costream_serve::ScoringService`]).
//!
//! Fault containment is per layer: an undecodable payload answers a
//! typed error and the connection keeps serving; an oversized or
//! truncated frame ends only that connection; a worker panic is
//! respawned inside the shard. The payload decoder recurses at most
//! `serde::json::MAX_DEPTH` levels and reads each byte once, so no frame
//! can overflow a reader's stack (which would abort the process, past
//! any `catch_unwind`) or hold it for longer than the frame is long:
//! nothing a client sends can reach the acceptor.

use crate::wire::{self, decode_request, ErrorKind, FrameError, FrameReader, Request, RequestBody, Response};
use crate::FrontConfig;
use costream::ensemble::Ensemble;
use costream::graph::JointGraph;
use costream::model::Scheme;
use costream::plan::plan_signature;
use costream_serve::{Pending, ScoreClient, ScoringService, ServeStats, SubmitOptions, SwapError};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shard-routing key: the parts of the model config a plan signature
/// depends on. Swap-invariant (swaps must be plan-congruent), so it is
/// captured once at startup.
#[derive(Clone, Copy)]
struct RouteKey {
    scheme: Scheme,
    traditional_rounds: usize,
}

/// What one connection's writer still owes the peer.
enum Job {
    /// An immediately-known response (errors, pongs, load acks).
    Ready(Response),
    /// A submitted score: resolved when the shard answers.
    Scored { id: u64, pending: Pending },
}

/// Maximum responses in flight per connection, the capacity of its job
/// channel: the reader stops pulling new frames while this many submitted
/// requests are unanswered — per-connection backpressure, so one
/// pipelining client cannot queue unbounded work.
const MAX_PIPELINE: usize = 128;

#[derive(Default)]
struct FrontCounters {
    connections: AtomicU64,
    bad_requests: AtomicU64,
    oversized: AtomicU64,
    disconnects: AtomicU64,
}

struct FrontShared {
    clients: Vec<ScoreClient>,
    route: RouteKey,
    cfg: FrontConfig,
    accepting: AtomicBool,
    conns: Mutex<Vec<ConnHandle>>,
    counters: FrontCounters,
}

struct ConnHandle {
    /// A clone of the connection's stream, kept so drain/shutdown can
    /// close it from outside the connection threads.
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// Connection-level counters of the front-end (shard counters live in
/// [`FrontStats::shards`]).
#[derive(Clone, Debug)]
pub struct FrontStats {
    /// Connections accepted over the front-end's lifetime.
    pub connections: u64,
    /// Frames whose payload was not a decodable request, or held a graph
    /// with a non-finite feature (answered with a typed `BadRequest`
    /// error; connection kept).
    pub bad_requests: u64,
    /// Frames declaring an over-limit payload (answered with a typed
    /// `Oversized` error; connection closed).
    pub oversized: u64,
    /// Connections that ended mid-frame or with a transport error.
    pub disconnects: u64,
    /// Per-shard serving counters, indexed by shard.
    pub shards: Vec<ServeStats>,
}

impl FrontStats {
    /// Worker respawns summed over all shards.
    pub fn worker_respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.worker_respawns).sum()
    }
}

/// What [`Frontend::shutdown`] achieved.
#[derive(Clone, Copy, Debug)]
pub struct FrontReport {
    /// Every request submitted before the drain was answered.
    pub drained: bool,
    /// Requests failed with `ShutDown` at the drain deadline, summed
    /// over shards.
    pub abandoned: u64,
}

/// The network front-end: a TCP acceptor over sharded
/// [`ScoringService`]s.
///
/// Dropping a `Frontend` shuts it down immediately (connections are
/// closed, queued work fails with `ShuttingDown`); call
/// [`Frontend::shutdown`] for a graceful drain.
pub struct Frontend {
    shards: Vec<ScoringService>,
    /// Held across a swap's loop over the shards, so concurrent swaps
    /// take effect one after another on every shard alike.
    swap: Mutex<()>,
    shared: Arc<FrontShared>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
    stopped: bool,
}

impl Frontend {
    /// Binds `127.0.0.1:0` (the OS picks a free port) and starts
    /// serving `ensemble` — cloned into [`FrontConfig::shards`]
    /// independent scoring services.
    ///
    /// # Errors
    /// I/O errors from binding the listener.
    ///
    /// # Panics
    /// Panics when `cfg.shards` is zero.
    pub fn start(ensemble: Ensemble, cfg: FrontConfig) -> io::Result<Self> {
        assert!(cfg.shards > 0, "a front-end needs at least one shard");
        let model_cfg = ensemble.model_config();
        let route = RouteKey {
            scheme: model_cfg.scheme,
            traditional_rounds: model_cfg.traditional_rounds,
        };
        let shards: Vec<ScoringService> = (0..cfg.shards)
            .map(|_| ScoringService::start(ensemble.clone(), cfg.serve.clone()))
            .collect();
        let clients = shards.iter().map(ScoringService::client).collect();

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(FrontShared {
            clients,
            route,
            cfg,
            accepting: AtomicBool::new(true),
            conns: Mutex::new(Vec::new()),
            counters: FrontCounters::default(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("costream-front-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(Frontend {
            shards,
            swap: Mutex::new(()),
            shared,
            acceptor: Some(acceptor),
            addr,
            stopped: false,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hot-swaps the served model on **every** shard (see
    /// [`ScoringService::swap_model`], the one model-update path, which
    /// only the hot-swap tests call). All shards serve clones of the
    /// same ensemble, so compatibility is uniform: either every shard
    /// accepts the replacement or none does. Concurrent calls are
    /// serialized, so once they return every shard serves the ensemble of
    /// the last one, at the same version.
    ///
    /// # Errors
    /// The first shard's [`SwapError`] when the replacement is not
    /// serving-compatible (no shard is swapped in that case).
    pub fn swap_model(&self, ensemble: &Ensemble) -> Result<u64, SwapError> {
        let _one_swap_at_a_time = self.swap.lock().unwrap_or_else(|e| e.into_inner());
        let mut version = 0;
        for shard in &self.shards {
            version = shard.swap_model(ensemble.clone())?;
        }
        Ok(version)
    }

    /// Connection- and shard-level counters.
    pub fn stats(&self) -> FrontStats {
        let c = &self.shared.counters;
        FrontStats {
            connections: c.connections.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            oversized: c.oversized.load(Ordering::Relaxed),
            disconnects: c.disconnects.load(Ordering::Relaxed),
            shards: self.shards.iter().map(ScoringService::stats).collect(),
        }
    }

    /// Fault-injection hook: panic one worker of `shard` at its next
    /// tick (see [`ScoringService::inject_worker_panic`]).
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, shard: usize) {
        self.shards[shard].inject_worker_panic();
    }

    /// Graceful drain: stop accepting, stop reading new requests from
    /// every connection, finish everything already submitted (waiting up
    /// to `drain` per the shards' drain clock), flush the responses,
    /// then exit.
    pub fn shutdown(mut self, drain: Duration) -> FrontReport {
        self.stop(Some(drain))
    }

    fn stop(&mut self, drain: Option<Duration>) -> FrontReport {
        if self.stopped {
            return FrontReport {
                drained: true,
                abandoned: 0,
            };
        }
        self.stopped = true;
        // 1. Stop accepting; wake the blocked acceptor with a throwaway
        //    connection.
        self.shared.accepting.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 2. Close the read half of every connection: readers see EOF at
        //    a frame boundary and stop submitting; writers keep flushing.
        let conns: Vec<ConnHandle> = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        let (mut readers, mut writers) = (Vec::new(), Vec::new());
        for c in conns {
            readers.push(c.reader);
            writers.push((c.stream, c.writer));
        }
        for r in readers {
            let _ = r.join();
        }
        // 3. Drain (or immediately stop) the shards: every submitted
        //    request gets answered, which unblocks the writers.
        let mut drained = true;
        let mut abandoned = 0;
        for shard in &mut self.shards {
            let outcome = shard.shutdown_drain(drain.unwrap_or(Duration::ZERO));
            drained &= outcome.drained;
            abandoned += outcome.abandoned;
        }
        // 4. Let the writers flush the tail of answered responses, then
        //    close for real.
        for (stream, w) in writers {
            let _ = w.join();
            let _ = stream.shutdown(Shutdown::Both);
        }
        FrontReport { drained, abandoned }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.stop(None);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<FrontShared>) {
    for stream in listener.incoming() {
        if !shared.accepting.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        // A peer that stops reading must not wedge its writer forever.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let Ok(read_half) = stream.try_clone() else { continue };
        let Ok(registry_handle) = stream.try_clone() else {
            continue;
        };
        let (tx, rx) = sync_channel(MAX_PIPELINE);
        let reader = {
            let shared = Arc::clone(shared);
            let mut stream = read_half;
            std::thread::Builder::new()
                .name("costream-front-read".into())
                .spawn(move || reader_loop(&mut stream, &shared, tx))
                .expect("spawn connection reader")
        };
        let writer = {
            let mut stream = stream;
            std::thread::Builder::new()
                .name("costream-front-write".into())
                .spawn(move || {
                    writer_loop(&mut stream, rx);
                    // The registry also holds a clone of this stream, so
                    // dropping ours would not send FIN. Shut the socket
                    // down explicitly (affects all clones) — everything
                    // owed to the peer has been flushed by now.
                    let _ = stream.shutdown(Shutdown::Both);
                })
                .expect("spawn connection writer")
        };
        let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        // Compact finished connections so a long-lived front-end with
        // connection churn doesn't grow the registry unboundedly.
        conns.retain(|c| !(c.reader.is_finished() && c.writer.is_finished()));
        conns.push(ConnHandle {
            stream: registry_handle,
            reader,
            writer,
        });
    }
}

/// Routes a graph to its shard: hash of the structural plan signature,
/// so a recurring shape deterministically reuses the same shard's
/// fragment cache.
fn shard_of(graph: &JointGraph, route: RouteKey, shards: usize) -> usize {
    let sig = plan_signature(&[graph], route.scheme, route.traditional_rounds);
    let mut h = DefaultHasher::new();
    sig.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Reads, decodes and submits a connection's frames until EOF, a frame
/// error or the writer's end of `jobs` is gone. Returning (or unwinding)
/// drops `jobs`, which tells the writer that nothing more is coming.
fn reader_loop(stream: &mut TcpStream, shared: &Arc<FrontShared>, jobs: SyncSender<Job>) {
    // Per-connection graph pool for `ScorePooled`: slot → (graph, shard).
    // Dropped with the connection.
    let mut pool: HashMap<u32, (Arc<JointGraph>, usize)> = HashMap::new();
    let mut frames = FrameReader::default();
    loop {
        match frames.next_frame(stream, shared.cfg.max_frame_bytes) {
            Ok(None) => break, // Clean close (or drain's read-shutdown).
            Ok(Some(payload)) => {
                let job = match decode_request(payload) {
                    Ok(req) => handle_request(req, shared, &mut pool),
                    Err(e) => {
                        // The framing was intact — only the payload was
                        // bad. Answer typed and keep serving.
                        shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                        Job::Ready(Response::Error {
                            id: None,
                            kind: ErrorKind::BadRequest,
                            detail: e.to_string(),
                        })
                    }
                };
                if jobs.send(job).is_err() {
                    break; // Writer is gone; nobody to answer to.
                }
            }
            Err(FrameError::Oversized { declared, max }) => {
                // The payload was never consumed, so the stream cannot
                // be resynchronized: answer typed, then close.
                shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
                let _ = jobs.send(Job::Ready(Response::Error {
                    id: None,
                    kind: ErrorKind::Oversized,
                    detail: format!("frame declares {declared} bytes, max is {max}"),
                }));
                break;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                // Mid-frame disconnect: nothing to answer, nobody left
                // to hear it. Drop the connection silently.
                shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Malformed(_)) => unreachable!("the frame reader does not decode payloads"),
        }
    }
}

fn handle_request(req: Request, shared: &Arc<FrontShared>, pool: &mut HashMap<u32, (Arc<JointGraph>, usize)>) -> Job {
    let opts = SubmitOptions {
        lane: req.lane.into(),
        deadline: req.deadline_us.map(|us| Instant::now() + Duration::from_micros(us)),
    };
    match req.body {
        RequestBody::Ping => Job::Ready(Response::Pong {
            id: req.id,
            version: shared.clients[0].model_version(),
            shards: shared.clients.len() as u32,
        }),
        RequestBody::LoadPool { base_slot, graphs } => {
            if let Some((g, node, feature)) = graphs
                .iter()
                .enumerate()
                .find_map(|(g, graph)| non_finite_feature(graph).map(|(node, feature)| (g, node, feature)))
            {
                return bad_graph(req.id, &format!("graph {g} of the upload: "), node, feature, shared);
            }
            let count = graphs.len() as u32;
            for (i, graph) in graphs.into_iter().enumerate() {
                let shard = shard_of(&graph, shared.route, shared.clients.len());
                pool.insert(base_slot.wrapping_add(i as u32), (Arc::new(graph), shard));
            }
            Job::Ready(Response::Loaded { id: req.id, count })
        }
        RequestBody::Score { graph } => {
            if let Some((node, feature)) = non_finite_feature(&graph) {
                return bad_graph(req.id, "", node, feature, shared);
            }
            let shard = shard_of(&graph, shared.route, shared.clients.len());
            submit(req.id, Arc::new(graph), shard, opts, shared)
        }
        RequestBody::ScorePooled { slot } => match pool.get(&slot) {
            Some((graph, shard)) => submit(req.id, Arc::clone(graph), *shard, opts, shared),
            None => Job::Ready(Response::Error {
                id: Some(req.id),
                kind: ErrorKind::BadSlot,
                detail: format!("pool slot {slot} was never loaded on this connection"),
            }),
        },
    }
}

/// The first feature of `graph` that is NaN or infinite, as (node, index in
/// its row). The decoder reads `null` as NaN and a number past `f32::MAX`
/// as infinite, and the model would score either to a finite, wrong cost.
fn non_finite_feature(graph: &JointGraph) -> Option<(usize, usize)> {
    graph
        .nodes
        .iter()
        .enumerate()
        .find_map(|(n, node)| node.features.iter().position(|f| !f.is_finite()).map(|i| (n, i)))
}

/// The typed answer to a graph with a non-finite feature: the request was
/// decodable, but the front-end does not score it (the connection keeps
/// serving).
fn bad_graph(id: u64, what: &str, node: usize, feature: usize, shared: &FrontShared) -> Job {
    shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
    Job::Ready(Response::Error {
        id: Some(id),
        kind: ErrorKind::BadRequest,
        detail: format!("{what}feature {feature} of node {node} is not a finite f32"),
    })
}

fn submit(id: u64, graph: Arc<JointGraph>, shard: usize, opts: SubmitOptions, shared: &Arc<FrontShared>) -> Job {
    match shared.clients[shard].submit_with(graph, opts) {
        Ok(pending) => Job::Scored { id, pending },
        Err(e) => Job::Ready(Response::Error {
            id: Some(id),
            kind: e.into(),
            detail: e.to_string(),
        }),
    }
}

/// Writes what `out` holds; `false` when the peer is gone (the writer then
/// returns, and dropping its receiver discards the queued jobs and tells
/// the reader to stop pulling frames).
fn flush(out: &mut Vec<u8>, stream: &mut TcpStream) -> bool {
    let written = out.is_empty() || stream.write_all(out).is_ok();
    out.clear();
    written
}

/// Answers a connection's jobs in submission order. Responses that are
/// already known are gathered into one buffer and written together (at
/// depth 32 a micro-batch's worth of answers leaves in one `write`): a
/// scored job's answer is taken with [`Pending::try_scored`] if it is
/// already there. The buffer is written out before the writer parks,
/// whether on an empty queue or on an unanswered job (in
/// [`Pending::wait_scored`]): no response ever waits for a later one.
fn writer_loop(stream: &mut TcpStream, jobs: Receiver<Job>) {
    let mut out: Vec<u8> = Vec::new();
    let mut json = String::new();
    loop {
        let job = match jobs.try_recv() {
            Ok(job) => job,
            Err(_) => {
                if !flush(&mut out, stream) {
                    return;
                }
                match jobs.recv() {
                    Ok(job) => job,
                    Err(_) => return, // The reader is done and every job answered.
                }
            }
        };
        let response = match job {
            Job::Ready(r) => r,
            Job::Scored { id, pending } => {
                let result = match pending.try_scored() {
                    Some(result) => result,
                    None => {
                        if !flush(&mut out, stream) {
                            return;
                        }
                        pending.wait_scored()
                    }
                };
                match result {
                    Ok(scored) => Response::Scored {
                        id,
                        score: scored.score,
                        version: scored.version,
                    },
                    Err(e) => Response::Error {
                        id: Some(id),
                        kind: e.into(),
                        detail: e.to_string(),
                    },
                }
            }
        };
        wire::append_frame(&mut out, &mut json, &response).expect("a response is far below 4 GiB");
        if out.len() >= wire::IO_BUF_BYTES && !flush(&mut out, stream) {
            return;
        }
    }
}
