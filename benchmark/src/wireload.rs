//! The wire phase (`wire_hot` / `wire_cold`): the harness's own closed-loop
//! load generator on `FrontClient::{send, recv}` against a `Frontend` over
//! loopback.
//!
//! Callers of the scoring service are optimizers that wait for replies, so
//! both sub-phases are closed loops: `rtt` is one connection at depth 1,
//! `sat` is one connection per core (at most two: one interactive, one
//! bulk) at depth 32. No deadlines, no fault injection. Every connection
//! keeps a FIFO of send stamps; the server answers a connection in
//! submission order, so the head of the FIFO belongs to the next response.
//!
//! The front-end and its `sat` connections live for the whole run; the `rtt`
//! connection is made anew every round. A connection's reader and writer
//! threads stay where the guest's scheduler first put them, and whether that
//! is next to the shard's workers or across the socket is worth a fifth of a
//! depth-1 round trip for as long as the connection lives; a new connection
//! per round puts every graph through several placements.
//!
//! A slice is a fixed piece of work, not a fixed time: every connection
//! sends the whole pool a whole number of times. So every slice of a run is a
//! repetition of the same work, and what is reported is the fastest
//! repetition (see [`stats::fastest_per_item`]): per graph the fastest of
//! its depth-1 round trips, and of the `sat` slices the one with the most
//! responses per second and the one with the lowest 99th percentile.

use crate::setup::{Fixtures, WireKind};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::Tally;
use costream_front::{
    ErrorKind, FrontClient, FrontConfig, FrontStats, Frontend, Request, RequestBody, Response, WireLane,
};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SAT_DEPTH: usize = 32;
/// Requests per connection in one slice: whole passes over the pool, at
/// least this many (41 beyond the 99th percentile of a two-connection slice).
pub const RTT_SLICE_REQUESTS: usize = 1024;
pub const SAT_SLICE_REQUESTS: usize = 2048;
/// `sat` slices repeat within a round until this much of it is used.
pub const SAT_ROUND: Duration = Duration::from_millis(700);
const DRAIN: Duration = Duration::from_secs(10);

/// Per-sub-phase outcome counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub sent: u64,
    /// `Scored`, with the echoed id in order, `version == 1` and the score
    /// bitwise equal to `Ensemble::predict_graphs` for that graph.
    pub ok: u64,
    pub overloaded: u64,
    pub shed: u64,
    /// Any other response, including a `Scored` with a wrong value.
    pub other: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.overloaded += o.overloaded;
        self.shed += o.shed;
        self.other += o.other;
    }
}

/// What one round read over all its slices: the weather table's view.
#[derive(Clone, Copy, Debug)]
pub struct WireRound {
    /// Depth-1 send→recv median of the `rtt` slice, µs.
    pub rtt_p50_us: f64,
    /// Correct `Scored` responses per second over the `sat` slices.
    pub sat_req_per_s: f64,
    /// send→recv 99th percentile over the `sat` slices, ms.
    pub sat_p99_ms: f64,
}

/// One `sat` slice.
#[derive(Clone, Copy, Debug)]
pub struct SatSlice {
    pub traced: bool,
    /// Correct `Scored` responses per second, common start to last response.
    pub req_per_s: f64,
    /// send→recv 99th percentile of the slice, ms.
    pub p99_ms: f64,
}

pub struct WireOutcome {
    pub rounds: Vec<WireRound>,
    pub sat_slices: Vec<SatSlice>,
    /// Requests per connection in a `sat` slice.
    pub sat_slice_requests: u64,
    /// Per graph, the fastest of its depth-1 round trips, µs (infinite for
    /// a graph no round reached).
    pub rtt_fastest_us: Vec<f64>,
    /// Median over every depth-1 round trip of the run, µs.
    pub rtt_all_p50_us: f64,
    pub rtt: Counts,
    pub sat: Counts,
    pub sat_connections: usize,
    /// Serving counters over the `sat` slices only.
    pub sat_mean_batch: f64,
    pub sat_plan_cache_hit_rate: f64,
    /// Front-end counters at the end of the run.
    pub stats: FrontStats,
    /// Resolved program configuration, for the run's `meta`.
    pub shards: usize,
    pub workers_per_shard: usize,
}

impl WireOutcome {
    /// Responses per second of the fastest `sat` slice among those recorded
    /// with spans on (`traced`) or off.
    pub fn best_req_per_s(&self, traced: bool) -> f64 {
        self.sat_slices
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.req_per_s)
            .fold(f64::NAN, f64::max)
    }

    /// Lowest 99th percentile any untraced `sat` slice read, ms.
    pub fn best_p99_ms(&self) -> f64 {
        self.sat_slices
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.p99_ms)
            .fold(f64::NAN, f64::min)
    }

    /// Median over the graphs of each graph's fastest depth-1 round trip, µs.
    pub fn rtt_fastest_p50_us(&self) -> f64 {
        let mut reached: Vec<f64> = self
            .rtt_fastest_us
            .iter()
            .copied()
            .filter(|us| us.is_finite())
            .collect();
        stats::median(&mut reached)
    }
}

/// One connection, its prebuilt requests and its place in the id sequence.
struct Conn {
    client: FrontClient,
    reqs: Vec<Request>,
    /// Requests sent (= responses received between slices): the next id.
    sent: u64,
    /// Request `id` carries graph `(id + first_slot) % graphs`. Connections
    /// that walk the pool in step send the same graph at the same moment and
    /// hit each other's plans; spread over the pool they do not, whatever
    /// their relative speed.
    first_slot: u64,
}

/// One correct response: which graph, and send→recv.
#[derive(Clone, Copy)]
struct Reply {
    slot: u32,
    latency_ns: u64,
}

struct Slice {
    counts: Counts,
    replies: Vec<Reply>,
    finished: Instant,
    tracer: Tracer,
}

pub struct Wire<'a> {
    phase: &'static str,
    kind: WireKind,
    fx: &'a Fixtures,
    front: Frontend,
    sat_conns: Vec<Conn>,
    /// batches, batched graphs, plan-cache hits, misses over `sat` slices.
    sat_serving: [u64; 4],
    /// Every depth-1 round trip so far, µs.
    rtt_all_us: Vec<f64>,
    out: WireOutcome,
}

fn connect(front: &Frontend, kind: WireKind, fx: &Fixtures, lane: WireLane, first_slot: u64) -> Conn {
    let mut client = FrontClient::connect(front.addr()).expect("connect to the front-end");
    if kind == WireKind::Hot {
        match client.load_pool(0, 0, fx.wire.graphs.clone()).expect("pool upload") {
            Response::Loaded { count, .. } if count as usize == fx.wire.graphs.len() => {}
            other => panic!("pool upload answered {other:?}"),
        }
    }
    let reqs = fx
        .wire
        .graphs
        .iter()
        .enumerate()
        .map(|(slot, graph)| Request {
            id: 0,
            lane,
            deadline_us: None,
            body: match kind {
                WireKind::Hot => RequestBody::ScorePooled { slot: slot as u32 },
                WireKind::Cold => RequestBody::Score { graph: graph.clone() },
            },
        })
        .collect();
    Conn {
        client,
        reqs,
        sent: 0,
        first_slot,
    }
}

/// One connection's closed loop: once `start` fires, keep `depth` requests
/// in flight until `requests` are sent, then drain what is in flight.
fn drive(
    conn: &mut Conn,
    expected: &[f64],
    depth: usize,
    requests: u64,
    start: &Barrier,
    phase: &'static str,
    mut tracer: Tracer,
) -> Slice {
    let n = conn.reqs.len() as u64;
    let mut counts = Counts::default();
    let mut replies = Vec::new();
    // (wall stamp, trace stamp of send start, trace stamp of send end)
    let mut in_flight: VecDeque<(Instant, u64, u64)> = VecDeque::with_capacity(depth);
    let mut received = conn.sent;

    start.wait();
    while counts.sent < requests || received < conn.sent {
        while counts.sent < requests && (conn.sent - received) < depth as u64 {
            let req = &mut conn.reqs[((conn.sent + conn.first_slot) % n) as usize];
            req.id = conn.sent;
            let (t_send, sent_at) = (tracer.now(), Instant::now());
            conn.client.send(req).expect("send");
            in_flight.push_back((sent_at, t_send, tracer.now()));
            conn.sent += 1;
            counts.sent += 1;
        }
        let t_recv = tracer.now();
        let response = conn.client.recv().expect("recv");
        let (sent_at, t_send, t_sent) = in_flight.pop_front().expect("a response has a request");
        let elapsed = sent_at.elapsed();
        let t_done = tracer.now();
        let id = received;
        received += 1;
        match response {
            Response::Scored {
                id: echoed,
                score,
                version,
            } if echoed == id
                && version == 1
                && score.to_bits() == expected[((id + conn.first_slot) % n) as usize].to_bits() =>
            {
                counts.ok += 1;
                replies.push(Reply {
                    slot: ((id + conn.first_slot) % n) as u32,
                    latency_ns: elapsed.as_nanos() as u64,
                });
            }
            Response::Error {
                kind: ErrorKind::Overloaded,
                ..
            } => counts.overloaded += 1,
            Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                ..
            } => counts.shed += 1,
            _ => counts.other += 1,
        }
        if let Some(root) = tracer.push(Span {
            id,
            parent: None,
            phase,
            layer: "front",
            name: "request (send start to recv end)",
            start_ns: t_send,
            end_ns: t_done,
        }) {
            for (name, start_ns, end_ns) in [
                ("FrontClient::send", t_send, t_sent),
                ("FrontClient::recv", t_recv.max(t_send), t_done),
            ] {
                tracer.push(Span {
                    id,
                    parent: Some(root),
                    phase,
                    layer: "front",
                    name,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
    Slice {
        counts,
        replies,
        finished: Instant::now(),
        tracer,
    }
}

/// Drives every connection of `conns` concurrently through `requests`
/// requests each; returns the slices and the wall time from the common
/// start to the last finish.
fn slice(
    conns: &mut [Conn],
    expected: &[f64],
    depth: usize,
    requests: u64,
    phase: &'static str,
    tracer: &mut Tracer,
) -> (Vec<Slice>, Duration) {
    let start = Barrier::new(conns.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let fork = tracer.fork();
                let start = &start;
                s.spawn(move || drive(conn, expected, depth, requests, start, phase, fork))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let slices: Vec<Slice> = handles
            .into_iter()
            .map(|h| h.join().expect("load-generator connection"))
            .collect();
        let end = slices
            .iter()
            .map(|o| o.finished)
            .max()
            .expect("at least one connection");
        (slices, end.duration_since(t0))
    })
}

/// The least whole number of passes over a pool of `pool` graphs that is
/// `at_least` requests, in requests.
fn whole_passes(pool: usize, at_least: usize) -> u64 {
    (pool * at_least.div_ceil(pool)) as u64
}

fn serving_totals(stats: &FrontStats) -> [u64; 4] {
    let sum = |f: fn(&costream_serve::ServeStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    [
        sum(|s| s.batches),
        sum(|s| s.batched_graphs),
        sum(|s| s.plan_cache_hits),
        sum(|s| s.plan_cache_misses),
    ]
}

impl<'a> Wire<'a> {
    pub fn start(kind: WireKind, phase: &'static str, fx: &'a Fixtures) -> Self {
        let nproc = crate::nproc();
        let sat_lanes: &[WireLane] = if nproc >= 2 {
            &[WireLane::Interactive, WireLane::Bulk]
        } else {
            &[WireLane::Interactive]
        };
        assert!(
            sat_lanes.len() <= nproc,
            "generator threads and connections stay within nproc"
        );

        // Shipped defaults are what is measured.
        let cfg = FrontConfig::default();
        let (shards, workers_per_shard) = (cfg.shards, cfg.serve.workers);
        let front = Frontend::start(fx.models.target.clone(), cfg).expect("bind the front-end");
        let pool = fx.wire.graphs.len();
        let sat_conns: Vec<Conn> = sat_lanes
            .iter()
            .enumerate()
            .map(|(k, &lane)| connect(&front, kind, fx, lane, (k * pool / sat_lanes.len()) as u64))
            .collect();
        let stats = front.stats();
        Wire {
            phase,
            kind,
            fx,
            rtt_all_us: Vec::new(),
            out: WireOutcome {
                rounds: Vec::new(),
                sat_slices: Vec::new(),
                sat_slice_requests: whole_passes(pool, SAT_SLICE_REQUESTS),
                rtt_fastest_us: vec![f64::INFINITY; fx.wire.graphs.len()],
                rtt_all_p50_us: f64::NAN,
                rtt: Counts::default(),
                sat: Counts::default(),
                sat_connections: sat_conns.len(),
                sat_mean_batch: f64::NAN,
                sat_plan_cache_hit_rate: f64::NAN,
                stats,
                shards,
                workers_per_shard,
            },
            front,
            sat_conns,
            sat_serving: [0; 4],
        }
    }

    /// One `rtt` slice, then `sat` slices for [`SAT_ROUND`].
    pub fn round(&mut self, tracer: &mut Tracer) {
        let expected = &self.fx.wire.expected;
        let mut rtt_conn = connect(&self.front, self.kind, self.fx, WireLane::Interactive, 0);
        let (rtt, _) = slice(
            std::slice::from_mut(&mut rtt_conn),
            expected,
            1,
            whole_passes(expected.len(), RTT_SLICE_REQUESTS),
            self.phase,
            tracer,
        );
        let mut rtt_us = Vec::new();
        for s in rtt {
            self.out.rtt.absorb(&s.counts);
            for r in &s.replies {
                let us = r.latency_ns as f64 / 1e3;
                let best = &mut self.out.rtt_fastest_us[r.slot as usize];
                *best = best.min(us);
                rtt_us.push(us);
            }
            tracer.absorb(s.tracer);
        }
        self.rtt_all_us.extend_from_slice(&rtt_us);

        let before = serving_totals(&self.front.stats());
        let (mut round_ms, mut round_ok, mut round_wall) = (Vec::new(), 0, Duration::ZERO);
        let t0 = Instant::now();
        while t0.elapsed() < SAT_ROUND {
            let (sat, wall) = slice(
                &mut self.sat_conns,
                expected,
                SAT_DEPTH,
                self.out.sat_slice_requests,
                self.phase,
                tracer,
            );
            let (mut ms, mut ok) = (Vec::new(), 0);
            for s in sat {
                self.out.sat.absorb(&s.counts);
                ok += s.counts.ok;
                ms.extend(s.replies.iter().map(|r| r.latency_ns as f64 / 1e6));
                tracer.absorb(s.tracer);
            }
            self.out.sat_slices.push(SatSlice {
                traced: tracer.on(),
                req_per_s: ok as f64 / wall.as_secs_f64(),
                p99_ms: stats::percentile(&mut ms, 0.99),
            });
            round_ok += ok;
            round_wall += wall;
            round_ms.append(&mut ms);
        }
        let after = serving_totals(&self.front.stats());
        for (total, (a, b)) in self.sat_serving.iter_mut().zip(after.iter().zip(before)) {
            *total += a - b;
        }
        self.out.rounds.push(WireRound {
            rtt_p50_us: stats::median(&mut rtt_us),
            sat_req_per_s: round_ok as f64 / round_wall.as_secs_f64(),
            sat_p99_ms: stats::percentile(&mut round_ms, 0.99),
        });
    }

    /// Drains the front-end and checks what it counted.
    pub fn finish(self, tally: &mut Tally) -> WireOutcome {
        let Wire {
            phase,
            front,
            sat_conns,
            sat_serving: [batches, graphs, hits, misses],
            mut rtt_all_us,
            mut out,
            ..
        } = self;
        out.rtt_all_p50_us = stats::median(&mut rtt_all_us);
        // Clean closes at a frame boundary: not a disconnect.
        drop(sat_conns);
        out.stats = front.stats();
        let report = front.shutdown(DRAIN);
        out.sat_mean_batch = graphs as f64 / (batches as f64).max(1.0);
        out.sat_plan_cache_hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);

        for (name, c) in [("rtt", &out.rtt), ("sat", &out.sat)] {
            tally.ops(
                c.sent,
                c.sent - c.ok,
                format!(
                    "{phase}/{name}: of {} sent, {} overloaded, {} shed, {} wrong or errored",
                    c.sent, c.overloaded, c.shed, c.other
                ),
            );
        }
        let s = &out.stats;
        let clean =
            s.bad_requests == 0 && s.oversized == 0 && s.disconnects == 0 && report.drained && report.abandoned == 0;
        tally.op((!clean).then(|| {
            format!(
                "{phase}: front-end saw {} bad requests, {} oversized, {} disconnects; drained={} abandoned={}",
                s.bad_requests, s.oversized, s.disconnects, report.drained, report.abandoned
            )
        }));
        out
    }
}
