//! The fluid (time-stepped queueing) simulator of a Storm-like DSPS.
//!
//! One [`simulate`] call executes a placed query against a cluster and
//! measures the five cost metrics of §IV-A. The model is a discrete-time
//! fluid approximation of the real engine:
//!
//! * every operator is a fluid queue served at a rate bounded by its share
//!   of the host's CPU (processor sharing with work-conserving
//!   water-filling across co-located operators);
//! * a Kafka-like broker feeds each source; when the query cannot keep up,
//!   tuples accumulate at the broker — the backpressure rate `R` of
//!   Definition 4 — and add broker waiting time to the end-to-end latency
//!   (Definition 3);
//! * downstream operators grant credits to upstream operators so bounded
//!   internal queues propagate pressure upstream like Storm's max-spout
//!   pending / disruptor queues;
//! * cross-host edges pay link latency and are throttled by the egress
//!   host's bandwidth;
//! * window state and queue backlogs consume host memory; high utilization
//!   triggers GC slowdown and ultimately a crash (query success = 0,
//!   Definition 5).
//!
//! The latency of a tick is the critical-path sum of per-operator
//! residence times (M/M/1-style congestion wait + fluid queue drain time +
//! window residence) plus network latencies — the "oldest contributing
//! input tuple" reading of Definitions 2/3.

use crate::config::{SimConfig, BACKPRESSURE_THRESHOLD, QUEUE_CAPACITY, TICK_S};
use crate::cost::ExecutionProfile;
use crate::drift::DriftScenario;
use crate::memory;
use crate::metrics::CostMetrics;
use crate::trace::RunTrace;
use costream_query::hardware::Cluster;
use costream_query::operators::{OpKind, Query};
use costream_query::placement::Placement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The measured cost metrics (the training labels).
    pub metrics: CostMetrics,
    /// Runtime statistics for monitoring-based baselines.
    pub trace: RunTrace,
}

fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

/// Work-conserving processor sharing: distributes `capacity` cores over
/// operators with the given CPU demands. Under contention every operator
/// gets at most the water-filling level; spare capacity is spread evenly so
/// operators can burst (μ > demand keeps M/M/1 utilization below 1).
fn water_fill(demands: &[f64], capacity: f64) -> Vec<f64> {
    let n = demands.len();
    if n == 0 {
        return Vec::new();
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        let spare = (capacity - total) / n as f64;
        return demands.iter().map(|d| d + spare).collect();
    }
    // Contention: find the level L with Σ min(d_i, L) = capacity.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| demands[a].partial_cmp(&demands[b]).expect("finite demands"));
    let mut alloc = vec![0.0; n];
    let mut remaining = capacity;
    let mut left = n;
    for (k, &i) in idx.iter().enumerate() {
        let level = remaining / left as f64;
        if demands[i] <= level {
            alloc[i] = demands[i];
            remaining -= demands[i];
            left -= 1;
        } else {
            // Everyone remaining gets the level.
            for &j in &idx[k..] {
                alloc[j] = level;
            }
            return alloc;
        }
    }
    alloc
}

/// Executes a placed query on a cluster and measures its cost metrics.
///
/// # Panics
/// Panics if the placement does not match the query/cluster arity. (Rule
/// violations of Fig. 5 are *not* rejected here — the simulator can execute
/// any placement; the rules belong to the enumeration strategy.)
pub fn simulate(query: &Query, cluster: &Cluster, placement: &Placement, config: &SimConfig) -> SimResult {
    simulate_with_drift(query, cluster, placement, config, &DriftScenario::none())
}

/// Executes a placed query while a [`DriftScenario`] perturbs the world
/// mid-run: source rates ramp, selectivities shift, hosts slow down or are
/// lost outright. A lost host's operators stall (they process nothing from
/// the loss onward) but the simulation keeps running and measuring —
/// degraded, not panicking — so callers can observe the damage.
///
/// Under the empty scenario every drift factor is exactly `1.0` and every
/// host stays alive, making this bitwise identical to [`simulate`]: the
/// drift layer cannot move the golden training labels.
///
/// # Panics
/// Panics if the placement does not match the query/cluster arity.
pub fn simulate_with_drift(
    query: &Query,
    cluster: &Cluster,
    placement: &Placement,
    config: &SimConfig,
    drift: &DriftScenario,
) -> SimResult {
    simulate_corun_with_drift(&[(query, placement)], cluster, config, drift)
        .pop()
        .expect("one member in, one result out")
}

/// Executes several placed queries **co-resident on one cluster** and
/// measures each query's cost metrics under the shared-resource physics:
/// CPU is water-filled across *all* co-located operators, egress byte
/// budgets and memory (GC slowdown, crash) are per-host across members,
/// and a host OOM fails every member with operators anywhere (the shared
/// JVM worker dies). This is the measurement side of the interference
/// model: co-run cost vs [`simulate`]d solo cost is the inflation label.
///
/// With a single member this is **bitwise identical** to [`simulate`] /
/// [`simulate_with_drift`]: the member loop preserves the exact float-op
/// and RNG-draw order of the single-query engine, so the golden training
/// labels cannot move.
///
/// Drift event indices address each member's *local* operator indices
/// (world drift applies to every query, matching the adaptive loop's
/// reading); source jitter phases use the global operator index so
/// co-resident sources don't jitter in lockstep.
///
/// # Panics
/// Panics when `members` is empty or any placement does not match its
/// query/cluster arity.
pub fn simulate_corun(members: &[(&Query, &Placement)], cluster: &Cluster, config: &SimConfig) -> Vec<SimResult> {
    simulate_corun_with_drift(members, cluster, config, &DriftScenario::none())
}

/// Per-member bookkeeping of a co-run simulation: global-index ranges and
/// per-member accumulators.
struct Member<'a> {
    query: &'a Query,
    /// First global operator index of this member.
    base: usize,
    n_ops: usize,
    /// Topological order, in global indices.
    order: Vec<usize>,
    /// Sink, global index.
    sink: usize,
    /// First edge index of this member in the global edge list.
    edge_base: usize,
    n_edges: usize,
    /// Static desired ingest (sum of nominal source rates).
    desired_total: f64,
    // accumulators
    sink_total: f64,
    sink_measured: f64,
    lp_sum: f64,
    le_sum: f64,
    bp_rate_sum: f64,
    desired_dyn_sum: f64,
    trace: RunTrace,
}

/// [`simulate_corun`] under a [`DriftScenario`] (see
/// [`simulate_with_drift`] for drift semantics).
///
/// # Panics
/// Panics when `members` is empty or any placement does not match its
/// query/cluster arity.
pub fn simulate_corun_with_drift(
    members: &[(&Query, &Placement)],
    cluster: &Cluster,
    config: &SimConfig,
    drift: &DriftScenario,
) -> Vec<SimResult> {
    assert!(!members.is_empty(), "co-run set must have at least one query");
    let mut ms: Vec<Member<'_>> = Vec::with_capacity(members.len());
    // Global (concatenated, member-major) per-operator arrays.
    let mut host_of: Vec<usize> = Vec::new();
    let mut ups: Vec<Vec<usize>> = Vec::new();
    let mut downs: Vec<Vec<usize>> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut profile_cost_ms: Vec<f64> = Vec::new();
    let mut output_factor: Vec<f64> = Vec::new();
    let mut out_tuple_bytes: Vec<f64> = Vec::new();
    let mut state_bytes: Vec<f64> = Vec::new();
    for &(query, placement) in members {
        assert_eq!(placement.assignment().len(), query.len(), "placement arity mismatch");
        let base = host_of.len();
        let nq = query.len();
        let profile = ExecutionProfile::of(query);
        let edge_base = edges.len();
        ms.push(Member {
            query,
            base,
            n_ops: nq,
            order: query
                .topo_order()
                .expect("valid query")
                .iter()
                .map(|&i| base + i)
                .collect(),
            sink: base + query.sink(),
            edge_base,
            n_edges: query.edges().len(),
            desired_total: query
                .ops()
                .filter_map(|(_, op)| match op {
                    OpKind::Source(s) => Some(s.event_rate),
                    _ => None,
                })
                .sum(),
            sink_total: 0.0,
            sink_measured: 0.0,
            lp_sum: 0.0,
            le_sum: 0.0,
            bp_rate_sum: 0.0,
            desired_dyn_sum: 0.0,
            trace: RunTrace::new(nq, cluster.len(), query.edges().len()),
        });
        for i in 0..nq {
            host_of.push(placement.host_of(i));
            ups.push(query.upstream(i).iter().map(|&u| base + u).collect());
            downs.push(query.downstream(i).iter().map(|&d| base + d).collect());
        }
        edges.extend(query.edges().iter().map(|&(a, b)| (base + a, base + b)));
        profile_cost_ms.extend_from_slice(&profile.service_cost_ms);
        output_factor.extend_from_slice(&profile.output_factor);
        out_tuple_bytes.extend_from_slice(&profile.out_tuple_bytes);
        state_bytes.extend((0..nq).map(|i| profile.state_bytes(i)));
    }
    let n = host_of.len();
    let capacity: Vec<f64> = cluster.hosts().iter().map(|h| h.cpu / 100.0).collect();
    // Global operator index -> (member, local operator index).
    let member_of: Vec<usize> = ms
        .iter()
        .enumerate()
        .flat_map(|(m, mb)| std::iter::repeat_n(m, mb.n_ops))
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Per-run cost perturbation: a real cluster never reproduces costs
    // exactly across runs. Drawn per member in member order, so the
    // single-member RNG stream matches the historical single-query one.
    let cost_ms: Vec<f64> = (0..n)
        .map(|i| profile_cost_ms[i] * lognormal(&mut rng, config.cost_noise_sigma))
        .collect();

    let dt = TICK_S;
    let ticks = config.ticks();
    let warmup_ticks = (config.warmup_s / dt).ceil() as usize;

    // --- mutable simulation state ---
    let mut queue = vec![0.0f64; n]; // tuples waiting at each operator
    let mut broker_backlog = vec![0.0f64; n]; // per source op
    let mut gc = vec![1.0f64; cluster.len()];
    let mut alloc: Vec<f64> = {
        // Initial allocation: equal split per host, over *all* members'
        // co-located operators.
        let mut per_host_ops = vec![0usize; cluster.len()];
        for &h in &host_of {
            per_host_ops[h] += 1;
        }
        (0..n)
            .map(|i| capacity[host_of[i]] / per_host_ops[host_of[i]].max(1) as f64)
            .collect()
    };
    let mut net_scale = vec![1.0f64; cluster.len()]; // diagnostic: egress saturation
    let mut crashed = false;
    // Windowed operators emit nothing until their first window completes.
    let mut window_fill = vec![0.0f64; n]; // tuples (count) or seconds (time)
    let window_gate: Vec<Option<(bool, f64)>> = (0..n)
        .map(|i| match ms[member_of[i]].query.op(i - ms[member_of[i]].base) {
            OpKind::WindowAggregate(a) => Some((
                matches!(a.window.policy, costream_query::operators::WindowPolicy::CountBased),
                a.window.size,
            )),
            OpKind::WindowJoin(j) => Some((
                matches!(j.window.policy, costream_query::operators::WindowPolicy::CountBased),
                j.window.size,
            )),
            _ => None,
        })
        .collect();

    let mut measured_ticks = 0usize;

    let mut processed = vec![0.0f64; n];
    let mut arrivals = vec![0.0f64; n];
    let mut out_rate = vec![0.0f64; n];
    let mut src_offered = vec![0.0f64; n]; // per-tick broker offer (sources)
    let mut path_lat = vec![0.0f64; n];

    for tick in 0..ticks {
        let measuring = tick >= warmup_ticks;
        let t = tick as f64 * dt;
        let host_alive: Vec<bool> = (0..cluster.len()).map(|h| drift.host_alive(h, t)).collect();

        // Service rate bound per operator for this tick. Operators on a
        // lost host stall: they serve nothing, accept nothing.
        let mu: Vec<f64> = (0..n)
            .map(|i| {
                if !host_alive[host_of[i]] {
                    0.0
                } else {
                    alloc[i].max(1e-9) * 1000.0 / (cost_ms[i] * gc[host_of[i]]).max(1e-9)
                }
            })
            .collect();
        // Credits: how many tuples/s each operator can accept this tick.
        let mut credit: Vec<f64> = (0..n)
            .map(|i| {
                if !host_alive[host_of[i]] {
                    0.0
                } else {
                    mu[i] + (QUEUE_CAPACITY - queue[i]).max(0.0) / dt
                }
            })
            .collect();
        // Per-host egress byte budget for this tick (bytes/s) — shared
        // across members: co-resident streams drain one NIC.
        let mut egress_budget: Vec<f64> = cluster.hosts().iter().map(|h| h.bandwidth_mbits * 1e6 / 8.0).collect();

        // Forward pass along each member's data flow, members in order.
        // (Within a tick earlier members claim shared credit/egress
        // first; the dt-granular fluid steps make the bias negligible,
        // and determinism matters more than fairness here.)
        for mb in &ms {
            for &i in &mb.order {
                let li = i - mb.base;
                let a: f64 = if matches!(mb.query.op(li), OpKind::Source(_)) {
                    0.0
                } else {
                    arrivals[i]
                };
                let offered = match mb.query.op(li) {
                    OpKind::Source(s) => {
                        let jitter = 1.0 + 0.05 * (tick as f64 * 0.7 + i as f64).sin();
                        let desired = s.event_rate
                            * drift.rate_factor(li, t)
                            * if config.cost_noise_sigma > 0.0 { jitter } else { 1.0 };
                        src_offered[i] = desired + broker_backlog[i] / dt;
                        src_offered[i]
                    }
                    _ => a + queue[i] / dt,
                };
                // A windowed operator buffers input but emits nothing until its
                // first window is complete.
                // `window_fill` counts processed tuples (count-based) or
                // elapsed seconds (time-based) toward the first full window.
                let gate_open = match window_gate[i] {
                    None => true,
                    Some((_, size)) => window_fill[i] >= size,
                };
                // Selectivity drift scales the operator's output factor.
                let ofac = output_factor[i] * drift.selectivity_factor(li, t);
                // Downstream credit limits how much output we may emit.
                let mut p = offered.min(mu[i]);
                if let Some(&d) = downs[i].first() {
                    let factor = ofac.max(1e-9);
                    let allowed_out = credit[d].max(0.0);
                    p = p.min(allowed_out / factor);
                    // Cross-host edges spend the egress host's byte budget.
                    if host_of[d] != host_of[i] {
                        let bytes = out_tuple_bytes[i].max(1.0);
                        let allowed_by_net = egress_budget[host_of[i]].max(0.0) / bytes;
                        p = p.min(allowed_by_net / factor);
                    }
                }
                p = p.max(0.0);
                processed[i] = p;
                out_rate[i] = if gate_open { p * ofac } else { 0.0 };
                if let Some(&d) = downs[i].first() {
                    arrivals[d] += out_rate[i];
                    credit[d] -= out_rate[i];
                    if host_of[d] != host_of[i] {
                        egress_budget[host_of[i]] -= out_rate[i] * out_tuple_bytes[i];
                    }
                }
                if window_gate[i].is_some() {
                    let count_based = window_gate[i].expect("windowed").0;
                    window_fill[i] += if count_based { p * dt } else { dt };
                }
            }
        }

        // Queue and broker updates + backpressure measurement.
        let mut bp_rate = vec![0.0f64; ms.len()];
        for i in 0..n {
            let m = member_of[i];
            let li = i - ms[m].base;
            let source_rate = match ms[m].query.op(li) {
                OpKind::Source(s) => Some(s.event_rate),
                _ => None,
            };
            match source_rate {
                Some(event_rate) => {
                    let rate = event_rate * drift.rate_factor(li, t);
                    // The backpressure rate R of Definition 4 counts what
                    // the broker offered this tick — fresh (jittered)
                    // demand *plus* the standing backlog, which is itself
                    // unserved demand — minus what the query absorbed. A
                    // source keeping up reports exactly 0; one eating into
                    // a standing backlog still reports the unserved rest.
                    let shortfall = (src_offered[i] - processed[i]).max(0.0);
                    broker_backlog[i] = (broker_backlog[i] + (rate - processed[i]) * dt).max(0.0);
                    bp_rate[m] += shortfall;
                    if measuring {
                        ms[m].desired_dyn_sum += rate;
                    }
                }
                None => {
                    queue[i] = (queue[i] + (arrivals[i] - processed[i]) * dt).clamp(0.0, QUEUE_CAPACITY);
                }
            }
        }

        // Egress bandwidth scaling for the next tick.
        let mut egress_bytes = vec![0.0f64; cluster.len()];
        for &(a, b) in &edges {
            if host_of[a] != host_of[b] {
                egress_bytes[host_of[a]] += out_rate[a] * out_tuple_bytes[a];
            }
        }
        for h in 0..cluster.len() {
            let bw_bytes = cluster.host(h).bandwidth_mbits * 1e6 / 8.0;
            net_scale[h] = if egress_bytes[h] > bw_bytes {
                (bw_bytes / egress_bytes[h]).max(0.01)
            } else {
                1.0
            };
        }

        // Memory model: window state + queue backlog per host, summed
        // over all members — co-residents share the worker heap.
        let mut host_state = vec![0.0f64; cluster.len()];
        let mut host_queue_bytes = vec![0.0f64; cluster.len()];
        let mut host_ops = vec![0usize; cluster.len()];
        for i in 0..n {
            let h = host_of[i];
            host_ops[h] += 1;
            host_state[h] += state_bytes[i];
            let in_bytes = if ups[i].is_empty() {
                out_tuple_bytes[i]
            } else {
                ups[i].iter().map(|&u| out_tuple_bytes[u]).sum::<f64>() / ups[i].len() as f64
            };
            host_queue_bytes[h] += queue[i] * in_bytes * 16.0; // JVM expansion
        }
        let mut mem_ratio = vec![0.0f64; cluster.len()];
        for h in 0..cluster.len() {
            if host_ops[h] == 0 {
                continue;
            }
            // A lost host cannot crash the run: its operators are already
            // stalled and its memory no longer belongs to the queries.
            if !host_alive[h] {
                continue;
            }
            let demand = memory::host_demand_bytes(host_ops[h], host_state[h], host_queue_bytes[h]);
            mem_ratio[h] = demand / (cluster.host(h).ram_mb * 1024.0 * 1024.0);
            gc[h] = memory::gc_slowdown(mem_ratio[h]);
            if memory::crashes(mem_ratio[h]) {
                // The worker host OOMs: every member fails, not just the
                // one whose state tipped the heap — that is precisely the
                // blast-radius coupling a co-run corpus must label.
                crashed = true;
            }
            for mb in ms.iter_mut() {
                if mb.trace.host_mem_ratio[h] < mem_ratio[h] {
                    mb.trace.host_mem_ratio[h] = mem_ratio[h];
                }
            }
        }
        if crashed {
            break;
        }

        // Latency sample: critical path from sources to sink, per member.
        for mb in &ms {
            for &i in &mb.order {
                let li = i - mb.base;
                let svc = (cost_ms[i] * gc[host_of[i]]) / 1000.0;
                let demand_cores = processed[i] * svc;
                let rho = (demand_cores / alloc[i].max(1e-9)).min(0.98);
                let congestion = svc * rho / (1.0 - rho);
                let drain = queue[i] / mu[i].max(1e-6);
                let window_wait = match mb.query.op(li) {
                    OpKind::WindowAggregate(a) => 0.5 * a.window.emission_period(arrivals[i].max(1e-3)),
                    OpKind::WindowJoin(j) => 0.5 * j.window.emission_period(arrivals[i].max(1e-3) / 2.0),
                    _ => 0.0,
                };
                let residence = svc + congestion + drain + window_wait.min(config.duration_s);
                let mut upstream_lat = 0.0f64;
                for &u in &ups[i] {
                    let mut l = path_lat[u];
                    if host_of[u] != host_of[i] {
                        l += cluster.link_latency_ms(host_of[u], host_of[i]) / 1000.0;
                        let bw = cluster.link_bandwidth_mbits(host_of[u], host_of[i]) * net_scale[host_of[u]];
                        l += out_tuple_bytes[u] * 8.0 / (bw * 1e6).max(1.0);
                    }
                    upstream_lat = upstream_lat.max(l);
                }
                path_lat[i] = upstream_lat + residence;
            }
        }

        for (m, mb) in ms.iter_mut().enumerate() {
            mb.sink_total += processed[mb.sink] * dt;
            if measuring {
                mb.sink_measured += processed[mb.sink] * dt;
                mb.lp_sum += path_lat[mb.sink].min(config.duration_s);
                let broker_wait = mb
                    .query
                    .ops()
                    .filter_map(|(i, op)| match op {
                        OpKind::Source(s) => Some(broker_backlog[mb.base + i] / s.event_rate.max(1e-9)),
                        _ => None,
                    })
                    .fold(0.0f64, f64::max);
                mb.le_sum += (path_lat[mb.sink] + broker_wait).min(2.0 * config.duration_s);
                mb.bp_rate_sum += bp_rate[m];
                for li in 0..mb.n_ops {
                    let i = mb.base + li;
                    mb.trace.op_rate[li] += processed[i];
                    mb.trace.op_cpu_cores[li] += processed[i] * cost_ms[i] * gc[host_of[i]] / 1000.0;
                    mb.trace.op_queue_len[li] += queue[i];
                }
                for e in 0..mb.n_edges {
                    let (a, b) = edges[mb.edge_base + e];
                    if host_of[a] != host_of[b] {
                        mb.trace.edge_bytes_per_s[e] += out_rate[a] * out_tuple_bytes[a];
                    }
                }
            }
        }
        if measuring {
            measured_ticks += 1;
        }

        // Allocation for the next tick: water-fill over this tick's
        // demand. Co-located members' operators sit in one demand list —
        // this *is* the CPU interference the corpus measures.
        let mut host_demands: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cluster.len()];
        for i in 0..n {
            let m = member_of[i];
            let li = i - ms[m].base;
            let svc = cost_ms[i] * gc[host_of[i]] / 1000.0;
            let want = (arrivals[i]
                + queue[i] / dt
                + match ms[m].query.op(li) {
                    OpKind::Source(s) => s.event_rate * drift.rate_factor(li, t) + broker_backlog[i] / dt,
                    _ => 0.0,
                })
                * svc;
            host_demands[host_of[i]].push((i, want));
        }
        for h in 0..cluster.len() {
            if host_demands[h].is_empty() {
                continue;
            }
            let demands: Vec<f64> = host_demands[h].iter().map(|&(_, d)| d).collect();
            // Host slowdown drift shrinks the capacity being shared.
            let allocs = water_fill(&demands, capacity[h] * drift.cpu_factor(h, t));
            for (k, &(i, _)) in host_demands[h].iter().enumerate() {
                alloc[i] = allocs[k];
            }
        }

        arrivals.iter_mut().for_each(|a| *a = 0.0);
    }

    // Host utilization means for the traces.
    let mt = measured_ticks as f64;
    if measured_ticks > 0 {
        for mb in ms.iter_mut() {
            for v in mb
                .trace
                .op_rate
                .iter_mut()
                .chain(mb.trace.op_cpu_cores.iter_mut())
                .chain(mb.trace.op_queue_len.iter_mut())
                .chain(mb.trace.edge_bytes_per_s.iter_mut())
            {
                *v /= mt;
            }
            for (h, cap) in capacity.iter().enumerate() {
                let demand: f64 = (0..mb.n_ops)
                    .filter(|&li| host_of[mb.base + li] == h)
                    .map(|li| mb.trace.op_cpu_cores[li])
                    .sum();
                mb.trace.host_utilization[h] = demand / cap.max(1e-9);
            }
        }
    }

    let measured_s = mt * dt;
    let has_rate_events = drift.has_rate_events();
    ms.into_iter()
        .map(|mb| {
            // A run that ends before its warm-up does (a zero, negative or
            // NaN duration included) measured nothing: it has no label.
            if crashed || measured_ticks == 0 {
                return SimResult {
                    metrics: CostMetrics::failed(),
                    trace: mb.trace,
                };
            }
            let throughput = mb.sink_measured / measured_s;
            let lp_s = mb.lp_sum / mt;
            let le_s = mb.le_sum / mt;
            let r = mb.bp_rate_sum / mt;
            // Under rate drift the nominal ingest is not the right
            // backpressure basis; use the time-averaged offered rate
            // instead. Without rate events the static sum is kept so
            // drift-free runs stay bitwise identical (a mean of identical
            // float sums need not round-trip).
            let desired_basis = if has_rate_events {
                mb.desired_dyn_sum / mt
            } else {
                mb.desired_total
            };
            let backpressure = r > BACKPRESSURE_THRESHOLD * desired_basis.max(1e-9);
            let success = mb.sink_total >= 1.0;

            // Label noise: per member, in member order, after all cost
            // draws — the single-member stream matches the historical one.
            let label_noise = |rng: &mut StdRng| lognormal(rng, config.label_noise_sigma);
            let noisy_lp = lp_s * 1000.0 * label_noise(&mut rng);
            let metrics = CostMetrics {
                throughput: throughput * label_noise(&mut rng),
                processing_latency_ms: noisy_lp,
                // The end-to-end latency includes the broker wait and can
                // never be below the processing latency (Definitions 2/3).
                e2e_latency_ms: (le_s * 1000.0 * label_noise(&mut rng)).max(noisy_lp),
                backpressure,
                backpressure_rate: r,
                success,
            };
            SimResult {
                metrics,
                trace: mb.trace,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_query::datatypes::{DataType, TupleSchema};
    use costream_query::hardware::Host;
    use costream_query::operators::*;

    fn int_schema() -> TupleSchema {
        TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Int])
    }

    fn filter_query(rate: f64, sel: f64) -> Query {
        Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: rate,
                    schema: int_schema(),
                }),
                OpKind::Filter(FilterSpec {
                    function: FilterFunction::Less,
                    literal_type: DataType::Int,
                    selectivity: sel,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        )
    }

    fn strong_host() -> Host {
        Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        }
    }

    fn weak_host() -> Host {
        Host {
            cpu: 50.0,
            ram_mb: 1000.0,
            bandwidth_mbits: 25.0,
            latency_ms: 160.0,
        }
    }

    #[test]
    fn healthy_query_reaches_nominal_throughput() {
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let r = simulate(&q, &c, &p, &SimConfig::deterministic());
        assert!(r.metrics.success);
        assert!(!r.metrics.backpressure, "R = {}", r.metrics.backpressure_rate);
        assert!(
            (r.metrics.throughput - 500.0).abs() < 25.0,
            "T = {}",
            r.metrics.throughput
        );
        assert!(
            r.metrics.processing_latency_ms < 100.0,
            "Lp = {}",
            r.metrics.processing_latency_ms
        );
    }

    #[test]
    fn a_run_that_ends_before_its_warmup_measures_nothing() {
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let warmup_s = SimConfig::default().warmup_s;
        for duration_s in [0.0, f64::NAN, -1.0, 0.5 * warmup_s, warmup_s] {
            let cfg = SimConfig {
                duration_s,
                ..SimConfig::deterministic()
            };
            let m = simulate(&q, &c, &p, &cfg).metrics;
            assert!(!m.success, "duration {duration_s}: nothing measured, no success");
            for v in [
                m.throughput,
                m.processing_latency_ms,
                m.e2e_latency_ms,
                m.backpressure_rate,
            ] {
                assert!(v.is_finite() && v >= 0.0, "duration {duration_s}: metric {v}");
            }
        }
    }

    #[test]
    fn a_run_that_never_ends_returns_failed_metrics() {
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig {
            duration_s: f64::INFINITY,
            ..SimConfig::deterministic()
        };
        // On its own thread, so a run that does not return fails the
        // timeout instead of hanging the suite.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut metrics = vec![simulate(&q, &c, &p, &cfg).metrics];
            metrics.extend(
                simulate_corun(&[(&q, &p), (&q, &p)], &c, &cfg)
                    .into_iter()
                    .map(|r| r.metrics),
            );
            let _ = done.send(metrics);
        });
        let metrics = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("an infinite duration must return, not run forever");
        assert_eq!(metrics.len(), 3, "one single run, two co-run members");
        for m in metrics {
            assert!(!m.success, "nothing measured, no success");
            for v in [
                m.throughput,
                m.processing_latency_ms,
                m.e2e_latency_ms,
                m.backpressure_rate,
            ] {
                assert!(v.is_finite() && v >= 0.0, "metric {v}");
            }
        }
    }

    #[test]
    fn weak_cpu_causes_backpressure() {
        let q = filter_query(25600.0, 0.5);
        let c = Cluster::new(vec![weak_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let r = simulate(&q, &c, &p, &SimConfig::deterministic());
        assert!(
            r.metrics.backpressure,
            "expected backpressure, R = {}",
            r.metrics.backpressure_rate
        );
        assert!(r.metrics.throughput < 25600.0 * 0.5);
        // Backpressure inflates the e2e latency well beyond processing.
        assert!(r.metrics.e2e_latency_ms > 2.0 * r.metrics.processing_latency_ms);
    }

    #[test]
    fn throughput_conservation_never_exceeds_nominal() {
        use costream_query::generator::WorkloadGenerator;
        use costream_query::ranges::FeatureRanges;
        let mut g = WorkloadGenerator::new(3, FeatureRanges::training());
        for k in 0..30 {
            let (q, c, p) = g.workload_item();
            let r = simulate(&q, &c, &p, &SimConfig::deterministic().with_seed(k));
            let nominal = ExecutionProfile::of(&q).nominal_in_rate[q.sink()];
            assert!(
                r.metrics.throughput <= nominal * 1.35 + 1.0,
                "throughput {} exceeds nominal {} (item {k})",
                r.metrics.throughput,
                nominal
            );
        }
    }

    #[test]
    fn cross_host_placement_adds_latency() {
        let q = filter_query(500.0, 0.5);
        let far = Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 80.0,
        };
        let c = Cluster::new(vec![far, strong_host()]);
        let colocated = simulate(&q, &c, &Placement::new(vec![1, 1, 1]), &SimConfig::deterministic());
        let spread = simulate(&q, &c, &Placement::new(vec![0, 1, 1]), &SimConfig::deterministic());
        assert!(
            spread.metrics.processing_latency_ms > colocated.metrics.processing_latency_ms + 50.0,
            "spread {} vs colocated {}",
            spread.metrics.processing_latency_ms,
            colocated.metrics.processing_latency_ms
        );
    }

    #[test]
    fn big_time_window_on_small_ram_crashes() {
        let w = WindowSpec {
            window_type: WindowType::Sliding,
            policy: WindowPolicy::TimeBased,
            size: 16.0,
            slide: 5.0,
        };
        let q = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 25600.0,
                    schema: int_schema(),
                }),
                OpKind::WindowAggregate(AggSpec {
                    function: AggFunction::Mean,
                    agg_type: DataType::Int,
                    group_by: Some(DataType::Int),
                    window: w,
                    selectivity: 0.5,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        );
        let weak_big_cpu = Host {
            cpu: 800.0,
            ram_mb: 1000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        };
        let c = Cluster::new(vec![weak_big_cpu]);
        let r = simulate(&q, &c, &Placement::new(vec![0, 0, 0]), &SimConfig::deterministic());
        assert!(!r.metrics.success, "expected OOM crash");
        // Same query on a 32 GB host succeeds.
        let c2 = Cluster::new(vec![strong_host()]);
        let r2 = simulate(&q, &c2, &Placement::new(vec![0, 0, 0]), &SimConfig::deterministic());
        assert!(r2.metrics.success);
    }

    #[test]
    fn tiny_join_selectivity_with_long_windows_can_fail() {
        // A tumbling window of 640 tuples at 20 ev/s emits every 32 s; with
        // selectivity pushing output below one tuple per run, no tuple
        // reaches the sink within the 4-minute execution.
        let w = WindowSpec {
            window_type: WindowType::Tumbling,
            policy: WindowPolicy::CountBased,
            size: 640.0,
            slide: 640.0,
        };
        let q = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 0.05,
                    schema: int_schema(),
                }),
                OpKind::Source(SourceSpec {
                    event_rate: 0.05,
                    schema: int_schema(),
                }),
                OpKind::WindowJoin(JoinSpec {
                    key_type: DataType::Int,
                    window: w,
                    selectivity: 1e-3,
                }),
                OpKind::Sink,
            ],
            vec![(0, 2), (1, 2), (2, 3)],
        );
        let c = Cluster::new(vec![strong_host()]);
        let r = simulate(&q, &c, &Placement::new(vec![0, 0, 0, 0]), &SimConfig::deterministic());
        assert!(!r.metrics.success, "T = {}", r.metrics.throughput);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let q = filter_query(1000.0, 0.3);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig::default().with_seed(7);
        let a = simulate(&q, &c, &p, &cfg);
        let b = simulate(&q, &c, &p, &cfg);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seeds_give_noisy_labels() {
        let q = filter_query(1000.0, 0.3);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let a = simulate(&q, &c, &p, &SimConfig::default().with_seed(1));
        let b = simulate(&q, &c, &p, &SimConfig::default().with_seed(2));
        assert_ne!(a.metrics.throughput, b.metrics.throughput);
        // ...but within noise bounds.
        let ratio = a.metrics.throughput / b.metrics.throughput;
        assert!(ratio > 0.7 && ratio < 1.4);
    }

    #[test]
    fn trace_reports_rates_and_utilization() {
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let r = simulate(&q, &c, &p, &SimConfig::deterministic());
        assert!((r.trace.op_rate[0] - 1000.0).abs() < 50.0);
        assert!((r.trace.op_rate[1] - 1000.0).abs() < 50.0);
        assert!(r.trace.host_utilization[0] > 0.0 && r.trace.host_utilization[0] < 1.0);
    }

    #[test]
    fn water_fill_under_and_over_subscription() {
        let a = water_fill(&[1.0, 2.0], 6.0);
        assert!((a[0] - 2.5).abs() < 1e-9 && (a[1] - 3.5).abs() < 1e-9);
        let b = water_fill(&[1.0, 5.0], 4.0);
        assert!((b[0] - 1.0).abs() < 1e-9 && (b[1] - 3.0).abs() < 1e-9);
        let c = water_fill(&[5.0, 5.0], 4.0);
        assert!((c[0] - 2.0).abs() < 1e-9 && (c[1] - 2.0).abs() < 1e-9);
        let total: f64 = water_fill(&[0.5, 1.5, 9.0], 4.0).iter().sum();
        assert!((total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn low_bandwidth_throttles_wide_streams() {
        // 12800 ev/s of ~40-byte tuples ≈ 4 Mbit/s; a 2 Mbit/s-ish egress
        // cannot carry it.
        let q = filter_query(12800.0, 1.0);
        let slow_net = Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 2.0,
            latency_ms: 5.0,
        };
        let c = Cluster::new(vec![slow_net, strong_host()]);
        let r = simulate(&q, &c, &Placement::new(vec![0, 1, 1]), &SimConfig::deterministic());
        assert!(r.metrics.throughput < 12800.0 * 0.6, "T = {}", r.metrics.throughput);
        assert!(r.metrics.backpressure);
    }

    use crate::drift::{DriftEvent, DriftScenario};

    #[test]
    fn future_drift_events_leave_run_bitwise_identical() {
        // Drift factors are exactly 1.0 before onset, so a scenario whose
        // events all fire after the run ends must not move a single bit.
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig::default().with_seed(11);
        let scenario = DriftScenario::new(vec![
            DriftEvent::RateRamp {
                source: 0,
                at_s: 1e6,
                over_s: 10.0,
                factor: 4.0,
            },
            DriftEvent::HostSlowdown {
                host: 0,
                at_s: 1e6,
                factor: 0.1,
            },
            DriftEvent::HostLoss { host: 0, at_s: 1e6 },
        ]);
        let plain = simulate(&q, &c, &p, &cfg);
        let drifted = simulate_with_drift(&q, &c, &p, &cfg, &scenario);
        assert_eq!(plain.metrics, drifted.metrics);
    }

    #[test]
    fn standing_backlog_reports_nonzero_backpressure() {
        // Regression for the dead `(broker_backlog / dt).min(0.0)` term:
        // a rate spike builds broker backlog, the spike ends before the
        // measurement window opens, and the host then serves *above* the
        // nominal rate while draining. Fresh arrivals are fully absorbed,
        // so the old shortfall — (rate - processed).max(0) — was exactly
        // zero; the standing backlog is unserved demand and must count.
        let q = filter_query(1000.0, 0.5);
        let host = Host {
            cpu: 60.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        };
        let c = Cluster::new(vec![host]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig {
            warmup_s: 170.0,
            ..SimConfig::deterministic()
        };
        let control = simulate(&q, &c, &p, &cfg);
        assert!(control.metrics.success);
        assert_eq!(
            control.metrics.backpressure_rate, 0.0,
            "control must be healthy for the regression to be meaningful"
        );
        let spike = DriftScenario::new(vec![
            DriftEvent::RateRamp {
                source: 0,
                at_s: 40.0,
                over_s: 0.0,
                factor: 5.0,
            },
            // Composes to 5.0 * 0.2 = nominal again after the spike.
            DriftEvent::RateRamp {
                source: 0,
                at_s: 160.0,
                over_s: 0.0,
                factor: 0.2,
            },
        ]);
        let r = simulate_with_drift(&q, &c, &p, &cfg, &spike);
        assert!(
            r.metrics.backpressure_rate > 0.0,
            "standing backlog must surface as backpressure, R = {}",
            r.metrics.backpressure_rate
        );
        assert!(r.metrics.backpressure);
        // The broker wait also shows up in the end-to-end latency.
        assert!(r.metrics.e2e_latency_ms > control.metrics.e2e_latency_ms);
    }

    #[test]
    fn host_loss_at_start_fails_query_deterministically() {
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host()]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig::deterministic();
        let loss = DriftScenario::new(vec![DriftEvent::HostLoss { host: 0, at_s: 0.0 }]);
        let a = simulate_with_drift(&q, &c, &p, &cfg, &loss);
        let b = simulate_with_drift(&q, &c, &p, &cfg, &loss);
        assert!(!a.metrics.success, "no tuple can ever reach the sink");
        assert_eq!(a.metrics, b.metrics, "degradation must be deterministic");
    }

    #[test]
    fn host_loss_mid_run_stalls_without_panicking() {
        let q = filter_query(1000.0, 0.5);
        let c = Cluster::new(vec![strong_host(), strong_host()]);
        let p = Placement::new(vec![0, 1, 1]);
        let cfg = SimConfig::deterministic();
        let control = simulate(&q, &c, &p, &cfg);
        let loss = DriftScenario::new(vec![DriftEvent::HostLoss { host: 1, at_s: 120.0 }]);
        let a = simulate_with_drift(&q, &c, &p, &cfg, &loss);
        let b = simulate_with_drift(&q, &c, &p, &cfg, &loss);
        assert_eq!(a.metrics, b.metrics);
        assert!(
            a.metrics.throughput < 0.6 * control.metrics.throughput,
            "sink stalls halfway through: {} vs control {}",
            a.metrics.throughput,
            control.metrics.throughput
        );
        assert!(a.metrics.backpressure, "stalled operators propagate pressure upstream");
    }

    #[test]
    fn host_slowdown_degrades_performance() {
        let q = filter_query(6400.0, 0.5);
        let host = Host {
            cpu: 200.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        };
        let c = Cluster::new(vec![host]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig::deterministic();
        let control = simulate(&q, &c, &p, &cfg);
        assert!(
            !control.metrics.backpressure,
            "control healthy, R = {}",
            control.metrics.backpressure_rate
        );
        let slow = DriftScenario::new(vec![DriftEvent::HostSlowdown {
            host: 0,
            at_s: 60.0,
            factor: 0.1,
        }]);
        let r = simulate_with_drift(&q, &c, &p, &cfg, &slow);
        assert!(r.metrics.backpressure, "a 10x slower host cannot keep up");
        assert!(r.metrics.throughput < control.metrics.throughput);
    }

    /// The single-member co-run path IS the historical single-query
    /// engine: identical metrics and trace, bit for bit, with and
    /// without noise. This is the invariant that keeps every golden
    /// training label in the repo fixed.
    #[test]
    fn single_member_corun_is_bitwise_identical_to_solo() {
        use costream_query::generator::WorkloadGenerator;
        use costream_query::ranges::FeatureRanges;
        let mut g = WorkloadGenerator::new(11, FeatureRanges::training());
        for k in 0..10 {
            let (q, c, p) = g.workload_item();
            for cfg in [
                SimConfig::deterministic().with_seed(k),
                SimConfig::default().with_seed(k),
            ] {
                let solo = simulate(&q, &c, &p, &cfg);
                let corun = simulate_corun(&[(&q, &p)], &c, &cfg).pop().expect("one result");
                assert_eq!(solo.metrics, corun.metrics, "metrics drifted (item {k})");
                assert_eq!(solo.trace.op_rate, corun.trace.op_rate, "op_rate drifted (item {k})");
                assert_eq!(
                    solo.trace.op_cpu_cores, corun.trace.op_cpu_cores,
                    "cpu drifted (item {k})"
                );
                assert_eq!(
                    solo.trace.op_queue_len, corun.trace.op_queue_len,
                    "queue drifted (item {k})"
                );
                assert_eq!(
                    solo.trace.edge_bytes_per_s, corun.trace.edge_bytes_per_s,
                    "edges drifted (item {k})"
                );
                assert_eq!(
                    solo.trace.host_utilization, corun.trace.host_utilization,
                    "util drifted (item {k})"
                );
                assert_eq!(
                    solo.trace.host_mem_ratio, corun.trace.host_mem_ratio,
                    "mem drifted (item {k})"
                );
            }
        }
    }

    /// Two copies of a query that is healthy solo, stacked on the same
    /// host, must each run worse than alone: the water-filled CPU is
    /// split, so contention shows up as backpressure and latency
    /// inflation. Deterministically.
    #[test]
    fn corun_contention_inflates_cost_versus_solo() {
        let q1 = filter_query(6400.0, 0.5);
        let q2 = filter_query(6400.0, 0.5);
        let host = Host {
            cpu: 100.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        };
        let c = Cluster::new(vec![host]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig::deterministic();
        let solo = simulate(&q1, &c, &p, &cfg);
        assert!(
            !solo.metrics.backpressure,
            "solo must be healthy, R = {}",
            solo.metrics.backpressure_rate
        );
        let results = simulate_corun(&[(&q1, &p), (&q2, &p)], &c, &cfg);
        let again = simulate_corun(&[(&q1, &p), (&q2, &p)], &c, &cfg);
        assert_eq!(results.len(), 2);
        for (r, r2) in results.iter().zip(&again) {
            assert_eq!(r.metrics, r2.metrics, "co-run must be deterministic");
            assert!(
                r.metrics.e2e_latency_ms > 1.2 * solo.metrics.e2e_latency_ms,
                "co-run {} vs solo {}",
                r.metrics.e2e_latency_ms,
                solo.metrics.e2e_latency_ms
            );
            assert!(r.metrics.backpressure, "halved CPU cannot absorb full rate");
        }
    }

    /// A host OOM kills the shared worker: a member that would be
    /// perfectly healthy alone fails too when its co-resident blows the
    /// heap — the blast-radius coupling the interference corpus labels.
    #[test]
    fn corun_oom_fails_every_member_on_the_host() {
        let w = WindowSpec {
            window_type: WindowType::Sliding,
            policy: WindowPolicy::TimeBased,
            size: 16.0,
            slide: 5.0,
        };
        let heavy = Query::new(
            vec![
                OpKind::Source(SourceSpec {
                    event_rate: 25600.0,
                    schema: int_schema(),
                }),
                OpKind::WindowAggregate(AggSpec {
                    function: AggFunction::Mean,
                    agg_type: DataType::Int,
                    group_by: Some(DataType::Int),
                    window: w,
                    selectivity: 0.5,
                }),
                OpKind::Sink,
            ],
            vec![(0, 1), (1, 2)],
        );
        let light = filter_query(100.0, 0.5);
        let small_ram = Host {
            cpu: 800.0,
            ram_mb: 1000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        };
        let c = Cluster::new(vec![small_ram]);
        let p = Placement::new(vec![0, 0, 0]);
        let cfg = SimConfig::deterministic();
        assert!(
            simulate(&light, &c, &p, &cfg).metrics.success,
            "light query healthy alone"
        );
        let results = simulate_corun(&[(&heavy, &p), (&light, &p)], &c, &cfg);
        assert!(!results[0].metrics.success, "heavy member OOMs");
        assert!(!results[1].metrics.success, "co-resident member dies with the worker");
    }
}
