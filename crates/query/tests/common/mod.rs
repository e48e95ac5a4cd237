//! Shared by the neighbourhood property suites: cluster shapes that
//! stress the host equivalence classes, placements confined to a few
//! hosts, and the pre-class sampler as an oracle.
#![allow(dead_code)]

use costream_query::hardware::{CapabilityBin, Cluster, Host, HostId};
use costream_query::operators::Query;
use costream_query::placement::{colocate_on_strongest, Placement};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// An `n`-host cluster cycling through `tiers` (0 = edge, 1 = fog,
/// 2 = cloud), with a small monotone per-host perturbation so hosts are
/// distinct but stay within their capability bin. `&[0, 1, 2]` is the
/// heterogeneous mix, `&[0, 2]` leaves the fog bin empty, `&[1]` puts
/// every host in one bin.
pub fn tiered_cluster(n: usize, tiers: &[usize]) -> Cluster {
    let hosts = (0..n)
        .map(|i| {
            let tier = tiers[i % tiers.len()];
            let bump = 1.0 + 0.2 * i as f64 / n as f64;
            Host {
                cpu: [50.0, 300.0, 800.0][tier] * bump,
                ram_mb: [1000.0, 8000.0, 32000.0][tier] * bump,
                bandwidth_mbits: [25.0, 400.0, 10000.0][tier] * bump,
                latency_ms: [160.0, 10.0, 1.0][tier],
            }
        })
        .collect();
    let cluster = Cluster::new(hosts);
    for (i, h) in cluster.hosts().iter().enumerate() {
        let want = [CapabilityBin::Edge, CapabilityBin::Fog, CapabilityBin::Cloud][tiers[i % tiers.len()]];
        assert_eq!(CapabilityBin::classify(h), want, "host {i} left its tier");
    }
    cluster
}

/// The three cluster shapes of the class tests, at one width.
pub fn cluster_shapes(n: usize) -> [(&'static str, Cluster); 3] {
    [
        ("mixed", tiered_cluster(n, &[0, 1, 2])),
        ("no fog", tiered_cluster(n, &[0, 2])),
        ("one bin", tiered_cluster(n, &[1])),
    ]
}

/// The filter-and-`choose` sampler that preceded rank-select, verbatim:
/// per operator it lists every host that keeps the placement valid and
/// draws one with a single `gen_range(0..len)`.
pub fn sample_valid_oracle(query: &Query, cluster: &Cluster, rng: &mut StdRng) -> Option<Placement> {
    let order = query.topo_order().expect("valid query");
    let mut assignment: Vec<HostId> = vec![usize::MAX; query.len()];
    let mut visited: Vec<Vec<HostId>> = vec![Vec::new(); query.len()];
    let bins: Vec<CapabilityBin> = cluster.hosts().iter().map(CapabilityBin::classify).collect();
    for &op in &order {
        let ups = query.upstream(op);
        let candidates: Vec<HostId> = (0..cluster.len())
            .filter(|&h| {
                ups.iter().all(|&u| {
                    let ok_bin = bins[h] >= bins[assignment[u]];
                    let ok_cycle = h == assignment[u] || !visited[u].contains(&h);
                    ok_bin && ok_cycle
                })
            })
            .collect();
        let chosen = *candidates.choose(rng)?;
        assignment[op] = chosen;
        let mut v = vec![chosen];
        for &u in &ups {
            v.extend(visited[u].iter().copied());
        }
        v.sort_unstable();
        v.dedup();
        visited[op] = v;
    }
    Some(Placement::new(assignment))
}

/// A valid placement of `query` that uses at most `m` distinct hosts of
/// `cluster`: sampled on the sub-cluster of `m` randomly chosen hosts and
/// mapped back (host specs, hence bins and rule ③, carry over).
pub fn placement_on_few_hosts(query: &Query, cluster: &Cluster, m: usize, rng: &mut StdRng) -> Placement {
    let mut ids: Vec<HostId> = (0..cluster.len()).collect();
    ids.shuffle(rng);
    ids.truncate(m.clamp(1, cluster.len()));
    ids.sort_unstable();
    let sub = Cluster::new(ids.iter().map(|&h| *cluster.host(h)).collect());
    let p = sample_valid_oracle(query, &sub, rng).unwrap_or_else(|| colocate_on_strongest(query, &sub));
    let mapped = Placement::new(p.assignment().iter().map(|&h| ids[h]).collect());
    assert!(mapped.is_valid(query, cluster), "sub-cluster placement must stay valid");
    mapped
}
