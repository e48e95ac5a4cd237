//! A reusable mixed-lane load generator for the front-end.
//!
//! Each connection uploads the graph pool once (`LoadPool`), then drives
//! pipelined `ScorePooled` traffic — requests on the wire are a few
//! dozen bytes, so a sustained million-request run is scoring-bound, not
//! serialization-bound. Interactive and bulk connections run
//! concurrently with independent deadlines; per-request latencies are
//! recorded and reduced to per-lane p50/p99 (the bench harness persists
//! those into `BENCH_micro.json`).
//!
//! A chaos thread continuously attacks the front-end *while the
//! measured traffic runs*: malformed
//! frames, oversized headers, and mid-frame disconnects. The report
//! counts the chaos rounds; the measured connections assert nothing
//! about them — the point is that the numbers hold up while the faults
//! land.

use crate::client::FrontClient;
use crate::wire::{Request, RequestBody, Response, WireLane};
use costream::graph::JointGraph;
use costream::qerror::percentile;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Interactive-lane connections.
pub const INTERACTIVE_CONNS: usize = 2;
/// Bulk-lane connections.
pub const BULK_CONNS: usize = 2;
/// Requests each connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 32;
/// Relative deadline for interactive requests, µs.
pub const INTERACTIVE_DEADLINE_US: u64 = 1_000_000;
/// Relative deadline for bulk requests, µs.
pub const BULK_DEADLINE_US: u64 = 20_000;

/// Per-lane outcome counts and latency percentiles.
#[derive(Clone, Debug, Default)]
pub struct LaneReport {
    /// Requests sent.
    pub sent: u64,
    /// Scored responses.
    pub ok: u64,
    /// Typed `Overloaded` rejections.
    pub overloaded: u64,
    /// Typed `DeadlineExceeded` sheds.
    pub shed: u64,
    /// Any other error responses.
    pub other_errors: u64,
    /// Overall p50 latency, nanoseconds (scored responses only; nearest
    /// rank, as [`costream::qerror::percentile`]; 0 when none was scored).
    pub p50_ns: u64,
    /// Overall p99 latency, nanoseconds (same rule).
    pub p99_ns: u64,
}

/// The full run outcome.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Interactive-lane outcomes.
    pub interactive: LaneReport,
    /// Bulk-lane outcomes.
    pub bulk: LaneReport,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Chaos-thread attack rounds completed.
    pub chaos_rounds: u64,
}

struct ThreadOutcome {
    sent: u64,
    ok: u64,
    overloaded: u64,
    shed: u64,
    other_errors: u64,
    /// Latency, ns, of each scored response.
    latencies_ns: Vec<f64>,
}

/// Drives `requests` pipelined requests against `addr`, split evenly
/// over [`INTERACTIVE_CONNS`] interactive and [`BULK_CONNS`] bulk
/// connections, with the chaos thread running alongside, and reduces
/// per-lane latency percentiles.
///
/// # Panics
/// Panics when the pool is empty, a connection cannot be established,
/// or the pool upload fails — load generation is a harness, not a
/// production path, and a broken fixture should fail loudly.
pub fn run(addr: SocketAddr, pool: &[JointGraph], requests: u64) -> LoadReport {
    assert!(!pool.is_empty(), "load generator needs a graph pool");
    let conns = INTERACTIVE_CONNS + BULK_CONNS;
    let per_conn = (requests / conns as u64).max(1);

    let stop_chaos = AtomicBool::new(false);
    let started = Instant::now();
    let (interactive, bulk, chaos_rounds) = std::thread::scope(|s| {
        let stop = &stop_chaos;
        let chaos = s.spawn(move || chaos_loop(addr, stop));
        let mut interactive_handles = Vec::new();
        let mut bulk_handles = Vec::new();
        for c in 0..conns {
            let (lane, deadline_us) = if c < INTERACTIVE_CONNS {
                (WireLane::Interactive, INTERACTIVE_DEADLINE_US)
            } else {
                (WireLane::Bulk, BULK_DEADLINE_US)
            };
            let handle = s.spawn(move || connection_loop(addr, pool, lane, deadline_us, per_conn));
            match lane {
                WireLane::Interactive => interactive_handles.push(handle),
                WireLane::Bulk => bulk_handles.push(handle),
            }
        }
        let interactive: Vec<ThreadOutcome> = interactive_handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread"))
            .collect();
        let bulk: Vec<ThreadOutcome> = bulk_handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread"))
            .collect();
        stop_chaos.store(true, Ordering::SeqCst);
        let chaos_rounds = chaos.join().expect("chaos thread");
        (interactive, bulk, chaos_rounds)
    });

    LoadReport {
        interactive: reduce(interactive),
        bulk: reduce(bulk),
        elapsed: started.elapsed(),
        chaos_rounds,
    }
}

fn connection_loop(
    addr: SocketAddr,
    pool: &[JointGraph],
    lane: WireLane,
    deadline_us: u64,
    requests: u64,
) -> ThreadOutcome {
    let mut client = FrontClient::connect(addr).expect("loadgen connect");
    match client.load_pool(0, 0, pool.to_vec()).expect("pool upload") {
        Response::Loaded { .. } => {}
        other => panic!("pool upload answered {other:?}"),
    }
    let mut out = ThreadOutcome {
        sent: 0,
        ok: 0,
        overloaded: 0,
        shed: 0,
        other_errors: 0,
        latencies_ns: Vec::with_capacity(requests as usize),
    };
    // In-flight send timestamps, FIFO (the server answers per-connection
    // traffic in submission order).
    let mut in_flight: std::collections::VecDeque<Instant> = std::collections::VecDeque::with_capacity(PIPELINE_DEPTH);
    let mut received = 0u64;
    while received < requests {
        while out.sent < requests && (out.sent - received) < PIPELINE_DEPTH as u64 {
            let req = Request {
                id: out.sent,
                lane,
                deadline_us: Some(deadline_us),
                body: RequestBody::ScorePooled {
                    slot: (out.sent % pool.len() as u64) as u32,
                },
            };
            client.send(&req).expect("loadgen send");
            in_flight.push_back(Instant::now());
            out.sent += 1;
        }
        let response = client.recv().expect("loadgen recv");
        let sent_at = in_flight.pop_front().expect("response without request");
        received += 1;
        match response {
            Response::Scored { .. } => {
                out.ok += 1;
                out.latencies_ns.push(sent_at.elapsed().as_nanos() as f64);
            }
            Response::Error { kind, .. } => match kind {
                crate::wire::ErrorKind::Overloaded => out.overloaded += 1,
                crate::wire::ErrorKind::DeadlineExceeded => out.shed += 1,
                _ => out.other_errors += 1,
            },
            other => panic!("unexpected response to ScorePooled: {other:?}"),
        }
    }
    out
}

/// Connection-level fault injection: malformed payloads, oversized
/// headers, mid-frame disconnects — in a loop, against a live
/// front-end, until told to stop. Returns the number of full attack
/// rounds.
fn chaos_loop(addr: SocketAddr, stop: &AtomicBool) -> u64 {
    use std::io::Write;
    let mut rounds = 0;
    while !stop.load(Ordering::SeqCst) {
        // 1. Valid frame, garbage payload: expect a typed error back.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = crate::wire::write_frame(&mut s, b"{ not json");
        }
        // 2. Oversized header.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(&u32::MAX.to_be_bytes());
        }
        // 3. Mid-frame disconnect: declare 64 bytes, send 3, hang up.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(&64u32.to_be_bytes());
            let _ = s.write_all(b"abc");
        }
        rounds += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    rounds
}

fn reduce(outcomes: Vec<ThreadOutcome>) -> LaneReport {
    let mut report = LaneReport::default();
    let mut all = Vec::new();
    for o in outcomes {
        report.sent += o.sent;
        report.ok += o.ok;
        report.overloaded += o.overloaded;
        report.shed += o.shed;
        report.other_errors += o.other_errors;
        all.extend(o.latencies_ns);
    }
    // The workspace's one percentile rule (nearest rank); an empty lane
    // reads 0.
    let lane_percentile = |p| if all.is_empty() { 0 } else { percentile(&all, p) as u64 };
    report.p50_ns = lane_percentile(0.50);
    report.p99_ns = lane_percentile(0.99);
    report
}
