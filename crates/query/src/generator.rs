//! Random workload, hardware and placement generation.
//!
//! Reproduces the benchmark generation procedure of §VI: queries are drawn
//! from the three templates of Fig. 6 (linear filter queries, 2-way joins
//! and 3-way joins at 35/34/31%), decorated with a random number of filter
//! predicates (35% one, 34% two, 24% three, 6% four filters, 1% none) and
//! an aggregation in half of the queries; every data stream gets a random
//! tuple width and event rate; every window gets a random type, policy,
//! size and slide, all from the configured [`FeatureRanges`].

use crate::datatypes::{DataType, TupleSchema};
use crate::hardware::{Cluster, Host};
use crate::operators::{
    AggFunction, AggSpec, FilterFunction, FilterSpec, JoinSpec, OpId, OpKind, Query, SourceSpec, WindowPolicy,
    WindowSpec, WindowType,
};
use crate::placement::Placement;
use crate::ranges::FeatureRanges;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The three query templates of Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryTemplate {
    /// `source → {filter} → [agg] → sink`.
    Linear,
    /// Two sources joined, then optional filters/aggregation.
    TwoWayJoin,
    /// Three sources, two joins, then optional filters/aggregation.
    ThreeWayJoin,
}

impl QueryTemplate {
    /// All templates with their benchmark shares (35/34/31, §VI).
    pub const DISTRIBUTION: [(QueryTemplate, f64); 3] = [
        (QueryTemplate::Linear, 0.35),
        (QueryTemplate::TwoWayJoin, 0.34),
        (QueryTemplate::ThreeWayJoin, 0.31),
    ];

    /// Name used in result tables (Fig. 8 / Fig. 9).
    pub fn name(self) -> &'static str {
        match self {
            QueryTemplate::Linear => "Linear",
            QueryTemplate::TwoWayJoin => "2-Way-Join",
            QueryTemplate::ThreeWayJoin => "3-Way-Join",
        }
    }
}

/// Deterministic workload generator.
pub struct WorkloadGenerator {
    rng: StdRng,
    ranges: FeatureRanges,
}

impl WorkloadGenerator {
    /// Creates a generator with the given seed and feature ranges.
    pub fn new(seed: u64, ranges: FeatureRanges) -> Self {
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
            ranges,
        }
    }

    fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        *values.choose(&mut self.rng).expect("non-empty range")
    }

    /// Samples a query template according to the benchmark distribution.
    fn sample_template(&mut self) -> QueryTemplate {
        let x: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (t, p) in QueryTemplate::DISTRIBUTION {
            acc += p;
            if x < acc {
                return t;
            }
        }
        QueryTemplate::ThreeWayJoin
    }

    /// Samples the total number of filter predicates in a query
    /// (distribution from §VI).
    pub fn sample_filter_count(&mut self) -> usize {
        let x: f64 = self.rng.gen();
        match x {
            x if x < 0.35 => 1,
            x if x < 0.69 => 2,
            x if x < 0.93 => 3,
            x if x < 0.99 => 4,
            _ => 0,
        }
    }

    fn sample_schema(&mut self) -> TupleSchema {
        let width = self.pick(&self.ranges.tuple_widths.clone());
        let attributes = (0..width).map(|_| self.pick(&DataType::ALL)).collect();
        TupleSchema::new(attributes)
    }

    fn sample_source(&mut self, template: QueryTemplate) -> SourceSpec {
        let rates = match template {
            QueryTemplate::Linear => self.ranges.event_rate_linear.clone(),
            QueryTemplate::TwoWayJoin => self.ranges.event_rate_two_way.clone(),
            QueryTemplate::ThreeWayJoin => self.ranges.event_rate_three_way.clone(),
        };
        SourceSpec {
            event_rate: self.pick(&rates),
            schema: self.sample_schema(),
        }
    }

    /// Samples a window configuration from the ranges.
    fn sample_window(&mut self) -> WindowSpec {
        let window_type = if self.rng.gen_bool(0.5) {
            WindowType::Sliding
        } else {
            WindowType::Tumbling
        };
        let policy = if self.rng.gen_bool(0.5) {
            WindowPolicy::CountBased
        } else {
            WindowPolicy::TimeBased
        };
        let size = match policy {
            WindowPolicy::CountBased => self.pick(&self.ranges.window_size_count.clone()),
            WindowPolicy::TimeBased => self.pick(&self.ranges.window_size_time.clone()),
        };
        let slide = match window_type {
            WindowType::Tumbling => size,
            WindowType::Sliding => {
                let (lo, hi) = self.ranges.slide_factor;
                let f = self.rng.gen_range(lo..hi);
                (size * f).max(1e-3)
            }
        };
        WindowSpec {
            window_type,
            policy,
            size,
            slide,
        }
    }

    fn sample_filter(&mut self) -> FilterSpec {
        FilterSpec {
            function: self.pick(&FilterFunction::ALL),
            literal_type: self.pick(&DataType::ALL),
            selectivity: self.rng.gen_range(0.05..1.0),
        }
    }

    fn sample_join(&mut self) -> JoinSpec {
        // Join selectivities are log-uniform: realistic equi-joins qualify
        // a small fraction of the cross product.
        let log_sel = self.rng.gen_range((1e-3f64).ln()..(0.1f64).ln());
        JoinSpec {
            key_type: self.pick(&DataType::ALL),
            window: self.sample_window(),
            selectivity: log_sel.exp(),
        }
    }

    fn sample_agg(&mut self) -> AggSpec {
        let group_by = if self.rng.gen_bool(0.5) {
            Some(self.pick(&DataType::ALL))
        } else {
            None
        };
        AggSpec {
            function: self.pick(&AggFunction::ALL),
            agg_type: self.pick(&[DataType::Int, DataType::Double]),
            group_by,
            window: self.sample_window(),
            selectivity: self.rng.gen_range(0.02..1.0),
        }
    }

    /// Generates a random query following the benchmark distribution.
    pub fn query(&mut self) -> Query {
        let template = self.sample_template();
        self.query_of(template)
    }

    /// Generates a random query of a specific template.
    pub fn query_of(&mut self, template: QueryTemplate) -> Query {
        let n_filters = self.sample_filter_count();
        let with_agg = self.rng.gen_bool(0.5);
        self.query_with(template, n_filters, with_agg)
    }

    /// Generates a query with explicit filter count and aggregation flag.
    /// The filters are distributed over the template's filter slots
    /// (after each source and after the last join).
    pub fn query_with(&mut self, template: QueryTemplate, n_filters: usize, with_agg: bool) -> Query {
        let n_sources = match template {
            QueryTemplate::Linear => 1,
            QueryTemplate::TwoWayJoin => 2,
            QueryTemplate::ThreeWayJoin => 3,
        };
        // Slot i < n_sources: after source i. Slot n_sources: post-join
        // (or mid-chain for linear queries).
        let n_slots = n_sources + 1;
        let mut per_slot = vec![0usize; n_slots];
        for _ in 0..n_filters {
            // Training data contains at most one consecutive filter per
            // slot where possible (Exp 5 introduces longer chains as the
            // *unseen* pattern); prefer empty slots first.
            let empty: Vec<usize> = (0..n_slots).filter(|&s| per_slot[s] == 0).collect();
            let slot = if empty.is_empty() {
                self.rng.gen_range(0..n_slots)
            } else {
                *empty.choose(&mut self.rng).expect("non-empty")
            };
            per_slot[slot] += 1;
        }

        let mut ops: Vec<OpKind> = Vec::new();
        let mut edges: Vec<(OpId, OpId)> = Vec::new();
        let mut branch_heads: Vec<OpId> = Vec::new();

        for &slot_filters in per_slot.iter().take(n_sources) {
            let src = ops.len();
            ops.push(OpKind::Source(self.sample_source(template)));
            let mut head = src;
            for _ in 0..slot_filters {
                let f = ops.len();
                ops.push(OpKind::Filter(self.sample_filter()));
                edges.push((head, f));
                head = f;
            }
            branch_heads.push(head);
        }

        // Join the branches pairwise left to right.
        let mut head = branch_heads[0];
        for &right in &branch_heads[1..] {
            let j = ops.len();
            ops.push(OpKind::WindowJoin(self.sample_join()));
            edges.push((head, j));
            edges.push((right, j));
            head = j;
        }

        for _ in 0..per_slot[n_sources] {
            let f = ops.len();
            ops.push(OpKind::Filter(self.sample_filter()));
            edges.push((head, f));
            head = f;
        }

        if with_agg {
            let a = ops.len();
            ops.push(OpKind::WindowAggregate(self.sample_agg()));
            edges.push((head, a));
            head = a;
        }

        let sink = ops.len();
        ops.push(OpKind::Sink);
        edges.push((head, sink));
        Query::new(ops, edges)
    }

    /// Generates a linear query whose mid-chain consists of exactly
    /// `chain_len` consecutive filters — the *unseen query pattern* of
    /// Exp 5 (training data never contains chains longer than 1).
    pub fn filter_chain_query(&mut self, chain_len: usize) -> Query {
        assert!(chain_len >= 1);
        let mut ops: Vec<OpKind> = vec![OpKind::Source(self.sample_source(QueryTemplate::Linear))];
        let mut edges = Vec::new();
        let mut head = 0;
        for _ in 0..chain_len {
            let f = ops.len();
            ops.push(OpKind::Filter(self.sample_filter()));
            edges.push((head, f));
            head = f;
        }
        let sink = ops.len();
        ops.push(OpKind::Sink);
        edges.push((head, sink));
        Query::new(ops, edges)
    }

    /// Samples one host from the hardware ranges.
    pub fn host(&mut self) -> Host {
        Host {
            cpu: self.pick(&self.ranges.cpu.clone()),
            ram_mb: self.pick(&self.ranges.ram_mb.clone()),
            bandwidth_mbits: self.pick(&self.ranges.bandwidth_mbits.clone()),
            latency_ms: self.pick(&self.ranges.latency_ms.clone()),
        }
    }

    /// Samples a cluster of `n` random hosts.
    pub fn cluster(&mut self, n: usize) -> Cluster {
        Cluster::new((0..n).map(|_| self.host()).collect())
    }

    /// Samples a cluster sized for a query (one host per 1–2 operators,
    /// at least 2), mirroring the paper's clusters of small machine groups.
    fn cluster_for(&mut self, query: &Query) -> Cluster {
        let n = self.rng.gen_range(2..=query.len().max(3));
        self.cluster(n)
    }

    /// Constructs a random placement satisfying the rules of Fig. 5 by
    /// walking the query in topological order and choosing uniformly among
    /// the hosts that keep the placement valid. In rare corner cases (two
    /// join branches that between them have already visited every eligible
    /// host) a topological walk can dead-end; the construction then retries
    /// and, as a last resort, co-locates the whole query on the most
    /// capable host — which is always valid.
    pub fn placement(&mut self, query: &Query, cluster: &Cluster) -> Placement {
        for _ in 0..8 {
            if let Some(p) = crate::placement::sample_valid(query, cluster, &mut self.rng) {
                debug_assert!(p.is_valid(query, cluster));
                return p;
            }
        }
        crate::placement::colocate_on_strongest(query, cluster)
    }

    /// Convenience: one full benchmark item (query, cluster, placement).
    pub fn workload_item(&mut self) -> (Query, Cluster, Placement) {
        let query = self.query();
        let cluster = self.cluster_for(&query);
        let placement = self.placement(&query, &cluster);
        (query, cluster, placement)
    }

    /// Samples a wide cluster with the default scenario shape
    /// ([`WideClusterSpec::wide`]) and returns just the hosts.
    pub fn wide_cluster(&mut self, hosts: usize) -> Cluster {
        self.wide_scenario(&WideClusterSpec::wide(hosts)).cluster
    }

    /// Samples a wide-cluster scenario: `spec.hosts` hosts drawn from the
    /// training hardware ranges, stretched by per-host geo-latency tiers,
    /// optionally with asymmetric uplinks and a spot-host subset. This is
    /// the scale the paper's testbed could not reach — hundreds of hosts
    /// across sites — generated from the same transferable feature space
    /// the models were trained on.
    fn wide_scenario(&mut self, spec: &WideClusterSpec) -> WideScenario {
        assert!(spec.hosts > 0, "a scenario needs at least one host");
        assert!(spec.geo_tiers > 0, "at least one geo tier");
        let mut hosts = Vec::with_capacity(spec.hosts);
        let mut geo_tier = Vec::with_capacity(spec.hosts);
        let mut uplinks = Vec::with_capacity(spec.hosts);
        let mut spot_hosts = Vec::new();
        for id in 0..spec.hosts {
            let mut h = self.host();
            // Geo tier t multiplies egress latency: same-metro hosts keep
            // their sampled latency, farther tiers pay the WAN round trip.
            let tier = self.rng.gen_range(0..spec.geo_tiers);
            h.latency_ms *= WideScenario::GEO_LATENCY_FACTORS[tier.min(WideScenario::GEO_LATENCY_FACTORS.len() - 1)];
            geo_tier.push(tier);
            // Last-mile asymmetry: egress is a fraction of link speed.
            uplinks.push(if spec.asymmetric_uplinks {
                h.bandwidth_mbits * self.rng.gen_range(0.1..1.0)
            } else {
                h.bandwidth_mbits
            });
            if self.rng.gen_bool(spec.spot_fraction.clamp(0.0, 1.0)) {
                spot_hosts.push(id);
            }
            hosts.push(h);
        }
        let mut cluster = Cluster::new(hosts);
        if spec.asymmetric_uplinks {
            cluster = cluster.with_uplinks(uplinks);
        }
        WideScenario {
            cluster,
            geo_tier,
            spot_hosts,
        }
    }
}

/// Shape of a generated wide-cluster scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WideClusterSpec {
    /// Number of hosts (128 / 256 / 512 in the wide benches).
    pub hosts: usize,
    /// Number of geo-latency tiers hosts are spread across.
    pub geo_tiers: usize,
    /// Fraction of hosts flagged spot/preemptible.
    pub spot_fraction: f64,
    /// Whether egress bandwidth is an asymmetric fraction of link speed.
    pub asymmetric_uplinks: bool,
}

impl WideClusterSpec {
    /// The default wide scenario: 3 geo tiers, 15% spot hosts, asymmetric
    /// last-mile uplinks.
    pub fn wide(hosts: usize) -> Self {
        WideClusterSpec {
            hosts,
            geo_tiers: 3,
            spot_fraction: 0.15,
            asymmetric_uplinks: true,
        }
    }
}

/// A generated wide cluster plus its scenario annotations.
#[derive(Clone, Debug)]
pub struct WideScenario {
    /// The cluster (uplink overrides installed when the spec asks).
    pub cluster: Cluster,
    /// Geo-latency tier of each host (0 = same metro).
    pub geo_tier: Vec<usize>,
    /// Hosts flagged spot/preemptible. The DES drift engine already
    /// expresses preemption as `HostLoss` events; these flags name the
    /// hosts such events should target.
    pub spot_hosts: Vec<usize>,
}

impl WideScenario {
    /// Egress-latency multiplier per geo tier: metro, cross-region,
    /// cross-continent.
    pub const GEO_LATENCY_FACTORS: [f64; 3] = [1.0, 3.0, 8.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_queries_are_valid() {
        let mut g = WorkloadGenerator::new(1, FeatureRanges::training());
        for _ in 0..200 {
            let q = g.query();
            assert!(q.validate().is_ok());
        }
    }

    #[test]
    fn template_distribution_roughly_matches() {
        let mut g = WorkloadGenerator::new(2, FeatureRanges::training());
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            match g.sample_template() {
                QueryTemplate::Linear => counts[0] += 1,
                QueryTemplate::TwoWayJoin => counts[1] += 1,
                QueryTemplate::ThreeWayJoin => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / 3000.0 - 0.35).abs() < 0.05);
        assert!((counts[1] as f64 / 3000.0 - 0.34).abs() < 0.05);
        assert!((counts[2] as f64 / 3000.0 - 0.31).abs() < 0.05);
    }

    #[test]
    fn filter_count_distribution() {
        let mut g = WorkloadGenerator::new(3, FeatureRanges::training());
        let mut ones = 0;
        for _ in 0..2000 {
            if g.sample_filter_count() == 1 {
                ones += 1;
            }
        }
        assert!((ones as f64 / 2000.0 - 0.35).abs() < 0.05);
    }

    #[test]
    fn three_way_join_has_three_sources_two_joins() {
        let mut g = WorkloadGenerator::new(4, FeatureRanges::training());
        let q = g.query_with(QueryTemplate::ThreeWayJoin, 2, true);
        let (s, _, a, j) = q.kind_counts();
        assert_eq!(s, 3);
        assert_eq!(j, 2);
        assert_eq!(a, 1);
    }

    #[test]
    fn filter_chain_has_exact_length() {
        let mut g = WorkloadGenerator::new(5, FeatureRanges::training());
        for len in 1..=4 {
            let q = g.filter_chain_query(len);
            let (_, f, _, _) = q.kind_counts();
            assert_eq!(f, len);
            assert!(q.validate().is_ok());
        }
    }

    #[test]
    fn generated_placements_are_valid() {
        let mut g = WorkloadGenerator::new(6, FeatureRanges::training());
        for _ in 0..200 {
            let (q, c, p) = g.workload_item();
            assert!(
                p.validate(&q, &c).is_ok(),
                "invalid placement: {:?}",
                p.validate(&q, &c)
            );
        }
    }

    #[test]
    fn hosts_come_from_ranges() {
        let ranges = FeatureRanges::training();
        let mut g = WorkloadGenerator::new(7, ranges.clone());
        for _ in 0..50 {
            let h = g.host();
            assert!(ranges.cpu.contains(&h.cpu));
            assert!(ranges.ram_mb.contains(&h.ram_mb));
            assert!(ranges.bandwidth_mbits.contains(&h.bandwidth_mbits));
            assert!(ranges.latency_ms.contains(&h.latency_ms));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = WorkloadGenerator::new(8, FeatureRanges::training()).query();
        let b = WorkloadGenerator::new(8, FeatureRanges::training()).query();
        assert_eq!(a, b);
    }

    #[test]
    fn wide_scenario_has_requested_shape() {
        let mut g = WorkloadGenerator::new(10, FeatureRanges::training());
        for n in [128usize, 256, 512] {
            let sc = g.wide_scenario(&WideClusterSpec::wide(n));
            assert_eq!(sc.cluster.len(), n);
            assert_eq!(sc.geo_tier.len(), n);
            assert!(sc.geo_tier.iter().all(|&t| t < 3));
            // All three tiers appear at these sizes.
            for tier in 0..3 {
                assert!(sc.geo_tier.contains(&tier), "{n} hosts missing tier {tier}");
            }
            // Spot fraction lands near the requested 15%.
            let frac = sc.spot_hosts.len() as f64 / n as f64;
            assert!((frac - 0.15).abs() < 0.1, "spot fraction {frac}");
            assert!(sc.spot_hosts.iter().all(|&h| h < n));
            // Uplinks are installed and never exceed link speed.
            for a in 0..n.min(8) {
                for b in 0..n.min(8) {
                    if a != b {
                        let bw = sc.cluster.link_bandwidth_mbits(a, b);
                        assert!(bw <= sc.cluster.host(a).bandwidth_mbits);
                        assert!(bw > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn wide_scenario_is_deterministic_and_tiers_stretch_latency() {
        let spec = WideClusterSpec::wide(128);
        let a = WorkloadGenerator::new(11, FeatureRanges::training()).wide_scenario(&spec);
        let b = WorkloadGenerator::new(11, FeatureRanges::training()).wide_scenario(&spec);
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.geo_tier, b.geo_tier);
        assert_eq!(a.spot_hosts, b.spot_hosts);
        // Tier-2 hosts have higher mean latency than tier-0 hosts.
        let mean_lat = |tier: usize| {
            let hs: Vec<f64> = a
                .geo_tier
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t == tier)
                .map(|(i, _)| a.cluster.host(i).latency_ms)
                .collect();
            hs.iter().sum::<f64>() / hs.len() as f64
        };
        assert!(mean_lat(2) > mean_lat(0));
    }

    #[test]
    fn symmetric_wide_cluster_skips_uplinks() {
        let mut g = WorkloadGenerator::new(12, FeatureRanges::training());
        let sc = g.wide_scenario(&WideClusterSpec {
            hosts: 64,
            geo_tiers: 3,
            spot_fraction: 0.0,
            asymmetric_uplinks: false,
        });
        assert!(sc.spot_hosts.is_empty());
        for h in 0..8 {
            assert_eq!(sc.cluster.uplink_mbits(h), sc.cluster.host(h).bandwidth_mbits);
        }
    }

    #[test]
    fn sliding_windows_have_smaller_slide() {
        let mut g = WorkloadGenerator::new(9, FeatureRanges::training());
        for _ in 0..100 {
            let w = g.sample_window();
            match w.window_type {
                WindowType::Tumbling => assert_eq!(w.slide, w.size),
                WindowType::Sliding => assert!(w.slide < w.size && w.slide > 0.0),
            }
        }
    }
}
