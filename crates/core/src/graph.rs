//! The joint operator-resource graph (§III-A).
//!
//! A [`JointGraph`] merges the logical query DAG, the data sources/sinks,
//! and the hardware nodes into one learnable graph: operator vertices carry
//! the operator/data features of Table I, host vertices carry the hardware
//! features, and directed edge sets describe (a) the logical data flow and
//! (b) the operator placement (op ↔ host, in both directions, used by the
//! OPS→HW and HW→OPS message-passing phases of Algorithm 1).

use costream_query::features::{host_features, op_features, NodeType};
use costream_query::hardware::{Cluster, HostId};
use costream_query::operators::Query;
use costream_query::placement::Placement;
use serde::{Deserialize, Serialize};

/// Which parts of the joint representation are encoded — the featurization
/// ablation of Exp 7a (Fig. 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Featurization {
    /// Operators and data sources/sinks only: the model knows the query
    /// logic but neither the placement nor the hardware.
    QueryOnly,
    /// Adds host nodes and placement edges (co-location is visible) but
    /// masks the hardware features.
    HardwareNodes,
    /// The full scheme: host nodes with CPU/RAM/bandwidth/latency features.
    Full,
}

/// One node of the joint graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphNode {
    /// Node type, selecting the encoder and update MLPs.
    pub node_type: NodeType,
    /// Transferable feature vector (width = `node_type.feature_width()`).
    pub features: Vec<f32>,
}

/// The joint operator-resource graph of one placed query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JointGraph {
    /// All nodes; operator nodes first (index = `OpId`), then host nodes.
    pub nodes: Vec<GraphNode>,
    /// Logical data-flow edges `(from, to)` between operator nodes.
    pub dataflow_edges: Vec<(usize, usize)>,
    /// Placement edges `(op, host)`; traversed op→host in the OPS→HW phase
    /// and host→op in the HW→OPS phase.
    pub placement_edges: Vec<(usize, usize)>,
    /// Topological wave of each operator node along the data flow
    /// (sources are wave 0); `None` for host nodes.
    pub waves: Vec<Option<usize>>,
}

impl JointGraph {
    /// Builds the joint graph for a placed query.
    ///
    /// `est_sels` are the *estimated* selectivities per operator (the model
    /// never sees true selectivities; see §IV-B).
    ///
    /// One-shot convenience over [`GraphTemplate`]: callers featurizing
    /// the same query under many placements should build the template
    /// once and [`GraphTemplate::instantiate`] per placement instead.
    pub fn build(
        query: &Query,
        cluster: &Cluster,
        placement: &Placement,
        est_sels: &[f64],
        featurization: Featurization,
    ) -> Self {
        GraphTemplate::new(query, cluster, est_sels, featurization).into_instance(placement)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of operator nodes (= number of query operators).
    pub fn n_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.node_type != NodeType::Host).count()
    }

    /// Highest wave index plus one (the number of dataflow waves).
    pub fn n_waves(&self) -> usize {
        self.waves.iter().flatten().max().map_or(0, |w| w + 1)
    }
}

/// Placement-invariant featurization template for one (query, cluster,
/// selectivities, featurization) combination.
///
/// Everything in a [`JointGraph`] except the host-node tail and the
/// placement edges is independent of the placement: the operator features
/// of Table I, the dataflow edges and the topological waves depend only on
/// the query, and each host's feature vector depends only on the cluster.
/// A search strategy that scores hundreds of placements of *one* query
/// would recompute all of it per candidate through [`JointGraph::build`].
///
/// A `GraphTemplate` computes the invariant parts once;
/// [`GraphTemplate::instantiate`] then produces the joint graph of any
/// placement by appending the used-host nodes and the placement edges —
/// and [`GraphTemplate::patch`] does the same *in place* on an existing
/// graph, reusing its allocations and leaving the operator prefix
/// untouched. This is the canonical featurization path:
/// [`JointGraph::build`] is a one-shot template-and-instantiate, so the
/// two can never diverge, and golden tests additionally pin `patch`
/// chains bitwise-equal to fresh builds.
#[derive(Clone, Debug)]
pub struct GraphTemplate {
    featurization: Featurization,
    op_nodes: Vec<GraphNode>,
    dataflow_edges: Vec<(usize, usize)>,
    op_waves: Vec<Option<usize>>,
    /// Per cluster host (used or not), the feature vector its node gets.
    host_feats: Vec<Vec<f32>>,
}

impl GraphTemplate {
    /// Precomputes the placement-invariant parts of the joint graph.
    ///
    /// # Panics
    /// Panics when `est_sels` does not provide one estimate per operator.
    pub fn new(query: &Query, cluster: &Cluster, est_sels: &[f64], featurization: Featurization) -> Self {
        assert_eq!(est_sels.len(), query.len(), "one estimated selectivity per operator");
        let schemas = query.output_schemas();
        let op_nodes: Vec<GraphNode> = query
            .ops()
            .map(|(id, op)| GraphNode {
                node_type: NodeType::of_op(op),
                features: op_features(query, id, &schemas, est_sels[id]),
            })
            .collect();
        let order = query.topo_order().expect("valid query");
        let mut op_waves: Vec<Option<usize>> = vec![None; query.len()];
        for &op in &order {
            let w = query
                .upstream(op)
                .iter()
                .map(|&u| op_waves[u].expect("topo order") + 1)
                .max()
                .unwrap_or(0);
            op_waves[op] = Some(w);
        }
        let host_feats = match featurization {
            Featurization::QueryOnly => Vec::new(),
            Featurization::Full => cluster.hosts().iter().map(host_features).collect(),
            Featurization::HardwareNodes => cluster
                .hosts()
                .iter()
                .map(|_| vec![1.0; NodeType::Host.feature_width()])
                .collect(),
        };
        GraphTemplate {
            featurization,
            op_nodes,
            dataflow_edges: query.edges().to_vec(),
            op_waves,
            host_feats,
        }
    }

    /// Number of operator nodes.
    pub fn n_ops(&self) -> usize {
        self.op_nodes.len()
    }

    /// The featurization the template encodes.
    pub fn featurization(&self) -> Featurization {
        self.featurization
    }

    /// Builds the joint graph of one placement from the template —
    /// bitwise identical to [`JointGraph::build`] with the template's
    /// inputs, without recomputing any operator or host features.
    pub fn instantiate(&self, placement: &Placement) -> JointGraph {
        self.instantiate_with_host_overrides(placement, &[])
    }

    /// Like [`GraphTemplate::instantiate`], but consumes the template so
    /// the operator prefix moves into the graph instead of being cloned —
    /// the one-shot path [`JointGraph::build`] uses.
    pub fn into_instance(self, placement: &Placement) -> JointGraph {
        let GraphTemplate {
            featurization,
            op_nodes,
            dataflow_edges,
            op_waves,
            host_feats,
        } = self;
        let n_ops = op_nodes.len();
        let mut graph = JointGraph {
            nodes: op_nodes,
            dataflow_edges,
            placement_edges: Vec::new(),
            waves: op_waves,
        };
        patch_placement(featurization, &host_feats, &[], n_ops, &mut graph, placement);
        graph
    }

    /// Delta re-featurization: rewrites only the placement-dependent
    /// parts of `graph` — the host-node tail, the placement edges and the
    /// host entries of the wave list — for `placement`, reusing the
    /// operator prefix (and the buffers) of the existing graph. `graph`
    /// must come from this template ([`GraphTemplate::instantiate`] or an
    /// earlier `patch`).
    ///
    /// # Panics
    /// Panics when `graph` has a different operator prefix length or
    /// `placement` references a host outside the template's cluster.
    pub fn patch(&self, graph: &mut JointGraph, placement: &Placement) {
        self.patch_with_host_overrides(graph, placement, &[]);
    }

    /// The per-host feature rows the template instantiates host nodes
    /// from (empty under [`Featurization::QueryOnly`]). A contention-aware
    /// scorer reads the uncontended row here and substitutes degraded
    /// rows through [`GraphTemplate::patch_with_host_overrides`].
    pub fn host_feature_rows(&self) -> &[Vec<f32>] {
        &self.host_feats
    }

    /// Like [`GraphTemplate::patch`], but a host listed in `overrides`
    /// gets that row instead of the template's own — the hook multi-query
    /// co-placement uses to price host contention: only the contended
    /// hosts of the placement (at most one per operator) are named, every
    /// other row and the operator prefix are the template's, untouched.
    /// No overrides is bitwise [`GraphTemplate::patch`].
    ///
    /// # Panics
    /// Panics on the conditions of [`GraphTemplate::patch`].
    pub fn patch_with_host_overrides(
        &self,
        graph: &mut JointGraph,
        placement: &Placement,
        overrides: &[(HostId, Vec<f32>)],
    ) {
        patch_placement(
            self.featurization,
            &self.host_feats,
            overrides,
            self.op_nodes.len(),
            graph,
            placement,
        );
    }

    /// One-shot [`GraphTemplate::patch_with_host_overrides`]: builds the
    /// joint graph of `placement` with the overridden host rows.
    ///
    /// # Panics
    /// Panics on the conditions of [`GraphTemplate::patch`].
    pub fn instantiate_with_host_overrides(
        &self,
        placement: &Placement,
        overrides: &[(HostId, Vec<f32>)],
    ) -> JointGraph {
        let mut graph = JointGraph {
            nodes: self.op_nodes.clone(),
            dataflow_edges: self.dataflow_edges.clone(),
            placement_edges: Vec::new(),
            waves: self.op_waves.clone(),
        };
        self.patch_with_host_overrides(&mut graph, placement, overrides);
        graph
    }
}

/// The single implementation behind [`GraphTemplate::patch`] and
/// [`GraphTemplate::into_instance`]: rewrites the placement-dependent
/// parts of `graph` (host-node tail, placement edges, host wave entries)
/// for `placement`, leaving the `n_ops`-long operator prefix untouched.
fn patch_placement(
    featurization: Featurization,
    host_feats: &[Vec<f32>],
    overrides: &[(HostId, Vec<f32>)],
    n_ops: usize,
    graph: &mut JointGraph,
    placement: &Placement,
) {
    assert!(graph.nodes.len() >= n_ops, "graph is not an instance of this template");
    assert_eq!(placement.assignment().len(), n_ops, "placement arity mismatch");
    graph.nodes.truncate(n_ops);
    graph.waves.truncate(n_ops);
    graph.placement_edges.clear();
    if featurization == Featurization::QueryOnly {
        return;
    }
    // Host-node layout: one node per *used* host, in ascending host
    // order, so co-location is structural — and a host's node id is its
    // rank in that list.
    let used = placement.hosts_used();
    for &h in &used {
        let row = overrides
            .iter()
            .find(|(o, _)| *o == h)
            .map_or(&host_feats[h], |(_, row)| row);
        graph.nodes.push(GraphNode {
            node_type: NodeType::Host,
            features: row.clone(),
        });
        graph.waves.push(None);
    }
    for op in 0..n_ops {
        let rank = used
            .binary_search(&placement.host_of(op))
            .expect("used host has a node");
        graph.placement_edges.push((op, n_ops + rank));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;
    use costream_query::selectivity::SelectivityEstimator;

    fn item(seed: u64) -> (costream_query::Query, Cluster, Placement, Vec<f64>) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let (q, c, p) = g.workload_item();
        let sels = SelectivityEstimator::realistic(seed).estimate_query(&q);
        (q, c, p, sels)
    }

    #[test]
    fn full_graph_has_op_and_host_nodes() {
        let (q, c, p, sels) = item(1);
        let g = JointGraph::build(&q, &c, &p, &sels, Featurization::Full);
        assert_eq!(g.n_ops(), q.len());
        assert_eq!(g.len() - g.n_ops(), p.hosts_used().len());
        assert_eq!(g.placement_edges.len(), q.len());
        assert_eq!(g.dataflow_edges.len(), q.edges().len());
    }

    #[test]
    fn query_only_graph_has_no_hosts() {
        let (q, c, p, sels) = item(2);
        let g = JointGraph::build(&q, &c, &p, &sels, Featurization::QueryOnly);
        assert_eq!(g.len(), q.len());
        assert!(g.placement_edges.is_empty());
    }

    #[test]
    fn hardware_nodes_variant_masks_features() {
        let (q, c, p, sels) = item(3);
        let g = JointGraph::build(&q, &c, &p, &sels, Featurization::HardwareNodes);
        let host_nodes: Vec<_> = g.nodes.iter().filter(|n| n.node_type == NodeType::Host).collect();
        assert!(!host_nodes.is_empty());
        for h in host_nodes {
            assert!(h.features.iter().all(|&f| f == 1.0));
        }
    }

    #[test]
    fn colocated_ops_share_one_host_node() {
        let (q, c, _p, sels) = item(4);
        let all_on_one = Placement::new(vec![0; q.len()]);
        let g = JointGraph::build(&q, &c, &all_on_one, &sels, Featurization::Full);
        assert_eq!(g.len(), q.len() + 1);
        let host_idx = q.len();
        assert!(g.placement_edges.iter().all(|&(_, h)| h == host_idx));
    }

    #[test]
    fn waves_increase_along_dataflow() {
        let (q, c, p, sels) = item(5);
        let g = JointGraph::build(&q, &c, &p, &sels, Featurization::Full);
        for &(a, b) in &g.dataflow_edges {
            assert!(g.waves[a].unwrap() < g.waves[b].unwrap());
        }
        assert!(g.n_waves() >= 2);
    }

    fn assert_bitwise_eq(a: &JointGraph, b: &JointGraph) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.node_type, y.node_type);
            assert_eq!(x.features, y.features, "feature rows must match bitwise");
        }
        assert_eq!(a.dataflow_edges, b.dataflow_edges);
        assert_eq!(a.placement_edges, b.placement_edges);
        assert_eq!(a.waves, b.waves);
    }

    #[test]
    fn template_instantiate_matches_build_bitwise() {
        for seed in 0..10 {
            let (q, c, p, sels) = item(seed);
            for fz in [
                Featurization::Full,
                Featurization::HardwareNodes,
                Featurization::QueryOnly,
            ] {
                let template = GraphTemplate::new(&q, &c, &sels, fz);
                assert_bitwise_eq(&template.instantiate(&p), &JointGraph::build(&q, &c, &p, &sels, fz));
            }
        }
    }

    #[test]
    fn template_patch_tracks_placement_changes_bitwise() {
        let (q, c, p, sels) = item(6);
        let template = GraphTemplate::new(&q, &c, &sels, Featurization::Full);
        let mut graph = template.instantiate(&p);
        // Walk through several placements (including ones that change the
        // used-host count) patching the same graph in place.
        let strongest = costream_query::placement::colocate_on_strongest(&q, &c);
        let spread = p.clone();
        for placement in [&strongest, &spread, &strongest, &p] {
            template.patch(&mut graph, placement);
            assert_bitwise_eq(
                &graph,
                &JointGraph::build(&q, &c, placement, &sels, Featurization::Full),
            );
        }
    }

    #[test]
    fn feature_widths_match_node_types() {
        for seed in 0..20 {
            let (q, c, p, sels) = item(seed);
            let g = JointGraph::build(&q, &c, &p, &sels, Featurization::Full);
            for node in &g.nodes {
                assert_eq!(node.features.len(), node.node_type.feature_width());
            }
        }
    }
}
