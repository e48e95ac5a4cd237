//! Multi-query co-placement: joint placements of a *set* of queries on
//! one shared cluster, and the cross-query edit neighborhood a joint
//! optimizer searches.
//!
//! A single-query [`Placement`](crate::placement::Placement) maps one
//! query's operators to hosts; real clusters run many queries at once,
//! and co-resident operators shift each other's costs. A
//! [`JointPlacement`] bundles one placement per query together with the
//! per-host **occupancy** (how many operators, across all queries, are
//! resident on each host) — the quantity a contention-aware scorer
//! prices. Occupancy is maintained *incrementally* across edits, and
//! validity is still the per-query Fig. 5 rules: queries are logically
//! independent, so an edit touching one query only re-checks that query
//! (the cross-query coupling is soft, through contention, and is the
//! scorer's business, not the validity rules').
//!
//! [`JointNeighborhood`] generates the joint move space: relocating any
//! operator of any query, swapping hosts within a query, and swapping
//! hosts *across* queries. Every check reuses the single-query
//! incremental machinery of [`neighborhood`](crate::placement::neighborhood)
//! (capability rule on touched-incident edges, host-revisit masks over
//! the touched downstream cone), so a joint candidate check costs the
//! same as a single-query one per touched query.

use crate::hardware::{Cluster, HostId};
use crate::operators::{OpId, Query};
use crate::placement::neighborhood::{Move, MoveCounts, MoveScratch, Neighborhood, VisitState};
use crate::placement::Placement;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A placement of several queries on one shared cluster: one
/// [`Placement`] per query plus the per-host operator occupancy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointPlacement {
    per_query: Vec<Placement>,
    occupancy: Vec<usize>,
}

impl JointPlacement {
    /// Bundles per-query placements into a joint placement on a cluster
    /// of `n_hosts` hosts, counting the initial occupancy.
    ///
    /// # Panics
    /// Panics when a placement references a host `>= n_hosts`.
    pub fn new(n_hosts: usize, per_query: Vec<Placement>) -> Self {
        let occupancy = count_occupancy(n_hosts, &per_query);
        JointPlacement { per_query, occupancy }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.per_query.len()
    }

    /// True when no queries are placed.
    pub fn is_empty(&self) -> bool {
        self.per_query.is_empty()
    }

    /// The placement of query `q`.
    pub fn query(&self, q: usize) -> &Placement {
        &self.per_query[q]
    }

    /// All per-query placements.
    pub fn placements(&self) -> &[Placement] {
        &self.per_query
    }

    /// The per-query placements, by value.
    pub fn into_placements(self) -> Vec<Placement> {
        self.per_query
    }

    /// Per-host operator occupancy across all queries (index = host id).
    pub fn occupancy(&self) -> &[usize] {
        &self.occupancy
    }

    /// Number of operators of query `q` resident on `host`.
    pub fn own_load(&self, q: usize, host: HostId) -> usize {
        self.per_query[q].assignment().iter().filter(|&&h| h == host).count()
    }

    /// The flattened assignment of all queries, in query order — the
    /// canonical duplicate-suppression key of a joint search (query
    /// arities are fixed per problem, so the concatenation is
    /// unambiguous).
    pub fn flattened(&self) -> Vec<HostId> {
        let mut out = Vec::new();
        self.flatten_into(&mut out);
        out
    }

    /// [`JointPlacement::flattened`] into a caller-owned buffer (cleared
    /// first) — no allocation once the buffer has grown.
    pub fn flatten_into(&self, out: &mut Vec<HostId>) {
        out.clear();
        for p in &self.per_query {
            out.extend_from_slice(p.assignment());
        }
    }

    /// Writes the flattened assignment of `self.apply(mv)` into `out`
    /// without constructing the edited joint placement — the
    /// allocation-free duplicate-suppression probe of a joint search.
    pub fn flattened_after(&self, mv: JointMove, out: &mut Vec<HostId>) {
        self.flatten_into(out);
        let offset = |q: usize| -> usize { self.per_query[..q].iter().map(|p| p.assignment().len()).sum() };
        match mv {
            JointMove::Relocate { query, op, to } => out[offset(query) + op] = to,
            JointMove::Swap { qa, a, qb, b } => out.swap(offset(qa) + a, offset(qb) + b),
        }
    }

    /// True when every query's placement satisfies its Fig. 5 rules.
    pub fn is_valid(&self, queries: &[&Query], cluster: &Cluster) -> bool {
        self.per_query.len() == queries.len() && self.per_query.iter().zip(queries).all(|(p, q)| p.is_valid(q, cluster))
    }

    /// The joint placement produced by applying `mv`, with occupancy
    /// maintained incrementally (a relocation shifts one unit of load;
    /// swaps exchange residents, leaving every host's total unchanged).
    pub fn apply(&self, mv: JointMove) -> JointPlacement {
        let mut next = self.clone();
        match mv {
            JointMove::Relocate { query, op, to } => {
                let from = next.per_query[query].host_of(op);
                let mut a = next.per_query[query].assignment().to_vec();
                a[op] = to;
                next.per_query[query] = Placement::new(a);
                next.occupancy[from] -= 1;
                next.occupancy[to] += 1;
            }
            JointMove::Swap { qa, a, qb, b } => {
                let ha = next.per_query[qa].host_of(a);
                let hb = next.per_query[qb].host_of(b);
                if qa == qb {
                    let mut v = next.per_query[qa].assignment().to_vec();
                    v.swap(a, b);
                    next.per_query[qa] = Placement::new(v);
                } else {
                    let mut va = next.per_query[qa].assignment().to_vec();
                    let mut vb = next.per_query[qb].assignment().to_vec();
                    va[a] = hb;
                    vb[b] = ha;
                    next.per_query[qa] = Placement::new(va);
                    next.per_query[qb] = Placement::new(vb);
                }
                // Hosts exchange residents: totals are unchanged.
            }
        }
        next
    }
}

/// Counts per-host occupancy from scratch — the reference the
/// incremental bookkeeping is tested against.
///
/// # Panics
/// Panics when a placement references a host `>= n_hosts`.
pub fn count_occupancy(n_hosts: usize, placements: &[Placement]) -> Vec<usize> {
    let mut occ = vec![0usize; n_hosts];
    for p in placements {
        for &h in p.assignment() {
            assert!(h < n_hosts, "placement references host {h} outside the cluster");
            occ[h] += 1;
        }
    }
    occ
}

/// A single edit of a joint placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JointMove {
    /// Move one operator of one query to another host.
    Relocate {
        /// The query whose operator moves.
        query: usize,
        /// The operator to move.
        op: OpId,
        /// Its new host.
        to: HostId,
    },
    /// Exchange the hosts of two operators — of the same query or of two
    /// different queries (`(qa, a)` is kept lexicographically before
    /// `(qb, b)` by the generators so each exchange appears once).
    Swap {
        /// Query of the first operator.
        qa: usize,
        /// First operator.
        a: OpId,
        /// Query of the second operator.
        qb: usize,
        /// Second operator.
        b: OpId,
    },
}

/// Precomputed structure for the joint move space: one single-query
/// [`Neighborhood`] per query (shared cluster), reused across every
/// joint placement a search visits.
pub struct JointNeighborhood<'a> {
    queries: Vec<&'a Query>,
    cluster: &'a Cluster,
    nbs: Vec<Neighborhood<'a>>,
    // One max-query-sized scratch shared by the enumeration entry points
    // (locked once per enumeration).
    scratch: std::sync::Mutex<MoveScratch>,
}

impl<'a> JointNeighborhood<'a> {
    /// Precomputes the per-query structure for one (queries, cluster)
    /// problem.
    pub fn new(queries: &[&'a Query], cluster: &'a Cluster) -> Self {
        let max_ops = queries.iter().map(|q| q.len()).max().unwrap_or(0);
        let words = cluster.len().div_ceil(64).max(1);
        JointNeighborhood {
            queries: queries.to_vec(),
            cluster,
            nbs: queries.iter().map(|q| Neighborhood::new(q, cluster)).collect(),
            scratch: std::sync::Mutex::new(MoveScratch::new(max_ops, words)),
        }
    }

    /// Number of queries in the move space.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// Draws one random joint placement: every query sampled
    /// independently under its own Fig. 5 rules
    /// ([`Neighborhood::sample_valid`]) from one rng stream, in problem
    /// order, stopping at the first query that dead-ends.
    pub fn sample_valid(&self, rng: &mut StdRng) -> Option<JointPlacement> {
        let placements: Option<Vec<Placement>> = self.nbs.iter().map(|nb| nb.sample_valid(rng)).collect();
        Some(JointPlacement::new(self.cluster.len(), placements?))
    }

    /// The rule ③ visit state of every query's placement, computed once
    /// per joint placement and reused for every candidate edit.
    pub fn visit_states(&self, jp: &JointPlacement) -> Vec<VisitState> {
        let mut states = Vec::new();
        self.visit_states_into(jp, &mut states);
        states
    }

    /// [`JointNeighborhood::visit_states`] into caller-owned states,
    /// reusing every per-query mask buffer across recomputations.
    pub fn visit_states_into(&self, jp: &JointPlacement, states: &mut Vec<VisitState>) {
        states.resize_with(self.nbs.len(), VisitState::empty);
        for ((nb, p), state) in self.nbs.iter().zip(jp.placements()).zip(states.iter_mut()) {
            nb.visit_state_into(p, state);
        }
    }

    /// Checks whether applying `mv` to the (valid) joint placement `jp`
    /// yields another valid joint placement, re-validating only the
    /// touched queries incrementally. `states` must be
    /// `self.visit_states(jp)`.
    pub fn is_valid_move(&self, jp: &JointPlacement, states: &[VisitState], mv: JointMove) -> bool {
        let mut scratch = self.scratch.lock().expect("joint neighborhood scratch lock");
        self.is_valid_move_with(jp, states, mv, &mut scratch)
    }

    /// [`JointNeighborhood::is_valid_move`] with caller-provided working
    /// buffers, without touching the shared lock.
    pub fn is_valid_move_with(
        &self,
        jp: &JointPlacement,
        states: &[VisitState],
        mv: JointMove,
        scratch: &mut MoveScratch,
    ) -> bool {
        match mv {
            JointMove::Relocate { query, op, to } => {
                self.nbs[query].is_valid_move_with(jp.query(query), &states[query], Move::Relocate { op, to }, scratch)
            }
            JointMove::Swap { qa, a, qb, b } => {
                if qa == qb {
                    return self.nbs[qa].is_valid_move_with(jp.query(qa), &states[qa], Move::Swap { a, b }, scratch);
                }
                let (ha, hb) = (jp.query(qa).host_of(a), jp.query(qb).host_of(b));
                if ha == hb {
                    return false; // no-op exchange
                }
                // Across queries the exchange decomposes into two
                // independent relocations (the queries share no edges),
                // each checked incrementally within its own query.
                self.nbs[qa].is_valid_move_with(jp.query(qa), &states[qa], Move::Relocate { op: a, to: hb }, scratch)
                    && self.nbs[qb].is_valid_move_with(
                        jp.query(qb),
                        &states[qb],
                        Move::Relocate { op: b, to: ha },
                        scratch,
                    )
            }
        }
    }

    /// One relocation unit: every candidate host for operator `op` of
    /// query `q`, in ascending host order — the query's own relocation
    /// unit (one full check per used host and per class of unused ones).
    fn relocations_of(
        &self,
        q: usize,
        op: OpId,
        jp: &JointPlacement,
        states: &[VisitState],
        scratch: &mut MoveScratch,
        f: &mut impl FnMut(JointMove),
    ) -> MoveCounts {
        self.nbs[q].relocations_of(op, jp.query(q), &states[q], scratch, &mut |to| {
            f(JointMove::Relocate { query: q, op, to })
        })
    }

    /// One intra-query swap unit: every swap within query `q` whose first
    /// operand is `a`, in ascending second-operand order.
    fn intra_swaps_of(
        &self,
        q: usize,
        a: OpId,
        jp: &JointPlacement,
        states: &[VisitState],
        scratch: &mut MoveScratch,
        f: &mut impl FnMut(JointMove),
    ) -> MoveCounts {
        let mut counts = MoveCounts::default();
        for b in (a + 1)..self.queries[q].len() {
            if jp.query(q).host_of(a) == jp.query(q).host_of(b) {
                continue;
            }
            let mv = JointMove::Swap { qa: q, a, qb: q, b };
            if self.is_valid_move_with(jp, states, mv, scratch) {
                counts.generated += 1;
                f(mv);
            } else {
                counts.rejected += 1;
            }
        }
        counts
    }

    /// One cross-query swap unit: every exchange between queries `qa` and
    /// `qb` (`qa < qb`), in ascending (a, b) order. Same-host exchanges
    /// are no-ops and skipped without a check.
    fn cross_swaps_of(
        &self,
        qa: usize,
        qb: usize,
        jp: &JointPlacement,
        states: &[VisitState],
        scratch: &mut MoveScratch,
        f: &mut impl FnMut(JointMove),
    ) -> MoveCounts {
        let mut counts = MoveCounts::default();
        for a in 0..self.queries[qa].len() {
            for b in 0..self.queries[qb].len() {
                if jp.query(qa).host_of(a) == jp.query(qb).host_of(b) {
                    continue;
                }
                let mv = JointMove::Swap { qa, a, qb, b };
                if self.is_valid_move_with(jp, states, mv, scratch) {
                    counts.generated += 1;
                    f(mv);
                } else {
                    counts.rejected += 1;
                }
            }
        }
        counts
    }

    /// Streams the full joint neighborhood through `f` in the same
    /// deterministic order as [`JointNeighborhood::neighbors`], without
    /// materializing a move list.
    pub fn for_each_neighbor(
        &self,
        jp: &JointPlacement,
        states: &[VisitState],
        mut f: impl FnMut(JointMove),
    ) -> MoveCounts {
        let mut scratch = self.scratch.lock().expect("joint neighborhood scratch lock");
        let mut counts = MoveCounts::default();
        for (q, query) in self.queries.iter().enumerate() {
            for op in 0..query.len() {
                counts.absorb(self.relocations_of(q, op, jp, states, &mut scratch, &mut f));
            }
        }
        for (q, query) in self.queries.iter().enumerate() {
            for a in 0..query.len() {
                counts.absorb(self.intra_swaps_of(q, a, jp, states, &mut scratch, &mut f));
            }
        }
        for qa in 0..self.queries.len() {
            for qb in (qa + 1)..self.queries.len() {
                counts.absorb(self.cross_swaps_of(qa, qb, jp, states, &mut scratch, &mut f));
            }
        }
        counts
    }

    /// Fills `out` (cleared first) with the full joint neighborhood; no
    /// allocation once `out` has grown to the steady-state size.
    pub fn neighbors_into(&self, jp: &JointPlacement, states: &[VisitState], out: &mut Vec<JointMove>) -> MoveCounts {
        out.clear();
        self.for_each_neighbor(jp, states, |mv| out.push(mv))
    }

    /// The full joint neighborhood of `jp`, in deterministic order: all
    /// valid relocations by (query, op, host), then all valid intra-query
    /// swaps by (query, a, b), then all valid cross-query swaps by
    /// (qa, qb, a, b). `states` must be `self.visit_states(jp)`.
    pub fn neighbors(&self, jp: &JointPlacement, states: &[VisitState]) -> Vec<JointMove> {
        let mut out = Vec::new();
        self.neighbors_into(jp, states, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::placement::{colocate_on_strongest, sample_valid};
    use crate::ranges::FeatureRanges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(seed: u64, n_queries: usize) -> (Vec<Query>, Cluster) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let queries: Vec<Query> = (0..n_queries).map(|_| g.query()).collect();
        let cluster = g.cluster(4);
        (queries, cluster)
    }

    fn sample_joint(queries: &[&Query], cluster: &Cluster, seed: u64) -> JointPlacement {
        let mut rng = StdRng::seed_from_u64(seed);
        let placements = queries
            .iter()
            .map(|q| sample_valid(q, cluster, &mut rng).unwrap_or_else(|| colocate_on_strongest(q, cluster)))
            .collect();
        JointPlacement::new(cluster.len(), placements)
    }

    #[test]
    fn occupancy_counts_all_queries() {
        let (queries, cluster) = fixture(1, 3);
        let refs: Vec<&Query> = queries.iter().collect();
        let jp = sample_joint(&refs, &cluster, 2);
        let total_ops: usize = queries.iter().map(|q| q.len()).sum();
        assert_eq!(jp.occupancy().iter().sum::<usize>(), total_ops);
        assert_eq!(
            jp.occupancy(),
            count_occupancy(cluster.len(), jp.placements()).as_slice()
        );
    }

    #[test]
    fn apply_maintains_occupancy_incrementally() {
        let (queries, cluster) = fixture(3, 2);
        let refs: Vec<&Query> = queries.iter().collect();
        let mut jp = sample_joint(&refs, &cluster, 4);
        let jnb = JointNeighborhood::new(&refs, &cluster);
        for round in 0..4 {
            let states = jnb.visit_states(&jp);
            let neighbors = jnb.neighbors(&jp, &states);
            let Some(&mv) = neighbors.get(round % neighbors.len().max(1)) else {
                break;
            };
            jp = jp.apply(mv);
            assert!(jp.is_valid(&refs, &cluster), "{mv:?} broke validity");
            assert_eq!(
                jp.occupancy(),
                count_occupancy(cluster.len(), jp.placements()).as_slice(),
                "{mv:?} broke occupancy bookkeeping"
            );
        }
    }

    #[test]
    fn cross_query_swap_exchanges_hosts() {
        let (queries, cluster) = fixture(5, 2);
        let refs: Vec<&Query> = queries.iter().collect();
        let jp = sample_joint(&refs, &cluster, 6);
        let jnb = JointNeighborhood::new(&refs, &cluster);
        let states = jnb.visit_states(&jp);
        let cross = jnb
            .neighbors(&jp, &states)
            .into_iter()
            .find(|mv| matches!(mv, JointMove::Swap { qa, qb, .. } if qa != qb));
        if let Some(JointMove::Swap { qa, a, qb, b }) = cross {
            let next = jp.apply(JointMove::Swap { qa, a, qb, b });
            assert_eq!(next.query(qa).host_of(a), jp.query(qb).host_of(b));
            assert_eq!(next.query(qb).host_of(b), jp.query(qa).host_of(a));
            assert_eq!(next.occupancy(), jp.occupancy(), "swap must not change totals");
        }
    }
}
