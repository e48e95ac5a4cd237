//! The one search core: co-placement of N queries with contention-aware
//! scoring, N = 1 included.
//!
//! The paper has one placement procedure (§V, Figs. 4–5): enumerate under
//! the co-location / capability / acyclicity rules, score with the target,
//! success and backpressure models, filter, pick. This module implements
//! it once. Real clusters run *many* queries at once, and co-resident
//! operators shift each other's costs, so the procedure is written over a
//! **set** of queries; a single query is the set of one
//! ([`crate::search::PlacementSearch`] is a thin adapter onto this
//! module), and migration-aware re-placement ([`replan`]) ranks through
//! the same evaluator with one more term in its key. The parts:
//!
//! * a [`JointSearchProblem`] bundles N queries (with their estimated
//!   selectivities) on one shared cluster;
//! * a [`JointScorer`] prices **host contention**: each query's joint
//!   graph sees the host rows *degraded* by co-resident load — a host
//!   shared with other queries contributes only the query's
//!   proportional share of its CPU/RAM/bandwidth — and is scored through
//!   any [`Scorer`] backend (the direct
//!   [`EnsembleScorer`](crate::search::EnsembleScorer), or `costream-serve`'s
//!   `ServeScorer` so N tenants' candidate batches coalesce server-side;
//!   the occupancy snapshot travels inside each request's featurized
//!   host rows). A batch goes to the backend as a [`CandidateBatch`]:
//!   the per-query [`GraphTemplate`]s, the candidates' placements and
//!   only the occupancy-dependent host rows, at most one per operator.
//!   No graph is built here: the in-process scorer lowers the placements
//!   straight into the search's memo, and a graph-based backend builds
//!   the graphs itself. A host with no external load gets the
//!   *identical* (bitwise) row — so an uncontended joint placement
//!   scores exactly like N independent queries, and recurring topologies
//!   keep hitting the serving layer's plan cache;
//! * the search strategies ([`RandomEnumeration`], [`BeamSearch`],
//!   [`LocalSearch`], [`SimulatedAnnealing`]) each have their one loop
//!   here, behind the [`JointPlacementSearch`] trait, walking the
//!   cross-query relocate/swap neighborhood of
//!   [`costream_query::joint::JointNeighborhood`] with incremental
//!   validity checks per touched query and incrementally maintained
//!   occupancy;
//! * one internal evaluator serves all of them and [`replan`]: budget
//!   accounting, duplicate suppression, scoring, the Fig. 4 selection
//!   rule, the restart sampler, and the ranking key — the signed total
//!   cost, plus the horizon-amortized migration charge under replan.
//!
//! Budget is counted in **joint candidates scored** (each costs N graph
//! predictions), so a joint search at budget `B` spends the same scoring
//! work as N independent searches at budget `B` each. Warm-starting via
//! [`JointPlacementSearch::search_joint_seeded`] (e.g. with the
//! combination of independent per-query results) guarantees the joint
//! result is never worse than its seeds on the viability-then-cost
//! ranking: every seed is scored, and the best candidate ever scored is
//! returned.

use crate::graph::{CandidateBatch, Featurization, GraphTemplate};
use crate::interference::{rate_weighted_share, InterferenceModel};
use crate::search::ranking;
use crate::search::{
    BeamSearch, LocalSearch, PlacementScores, RandomEnumeration, ScoreMemo, Scorer, SearchStats, SimulatedAnnealing,
    ANNEAL_COOLING, ANNEAL_INITIAL_TEMP, ANNEAL_SEED_SHARE, BEAM_EXPAND, BEAM_SEED_SHARE, BEAM_WIDTH,
    LOCAL_SAMPLE_SIZE, LOCAL_SEED_SHARE,
};
use costream_dsps::corun::{profile_loads, OpLoad};
use costream_dsps::{CostMetric, ExecutionProfile};
use costream_query::features::host_features;
use costream_query::hardware::{Cluster, Host, HostId};
use costream_query::joint::{JointMove, JointNeighborhood, JointPlacement};
use costream_query::operators::Query;
use costream_query::placement::neighborhood::VisitState;
use costream_query::placement::{colocate_on_strongest, Placement};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// One query of a joint co-placement problem.
#[derive(Clone, Copy, Debug)]
pub struct JointQuery<'a> {
    /// The streaming query.
    pub query: &'a Query,
    /// Estimated selectivity per operator (§IV-B).
    pub est_sels: &'a [f64],
}

impl<'a> JointQuery<'a> {
    /// Pairs each query with its estimated selectivities — the standard
    /// way to assemble a [`JointSearchProblem`]'s query list.
    ///
    /// # Panics
    /// Panics when the two slices differ in length.
    pub fn zip(queries: &'a [Query], est_sels: &'a [Vec<f64>]) -> Vec<JointQuery<'a>> {
        assert_eq!(queries.len(), est_sels.len(), "one selectivity vector per query");
        queries
            .iter()
            .zip(est_sels)
            .map(|(query, sels)| JointQuery { query, est_sels: sels })
            .collect()
    }
}

/// A multi-query co-placement problem: N queries sharing one cluster.
#[derive(Clone, Copy, Debug)]
pub struct JointSearchProblem<'a> {
    /// The queries to place jointly.
    pub queries: &'a [JointQuery<'a>],
    /// The shared hardware.
    pub cluster: &'a Cluster,
    /// Featurization of the candidate graphs. Contention degradation
    /// only applies under [`Featurization::Full`] (the other ablations
    /// mask or drop the host features it would act on).
    pub featurization: Featurization,
    /// Learned co-run interference model pricing contended hosts. `None`
    /// falls back to the rate-weighted proportional-share heuristic.
    /// Either way, hosts without external load keep their template rows
    /// bitwise untouched (the plan-cache-congruence invariant).
    pub interference: Option<&'a InterferenceModel>,
}

impl<'a> JointSearchProblem<'a> {
    /// The bare query references, in problem order.
    pub fn query_refs(&self) -> Vec<&'a Query> {
        self.queries.iter().map(|jq| jq.query).collect()
    }
}

/// Contention-aware scoring of joint placements: prices each query's
/// occupancy-degraded host rows and hands all graphs of all candidates to
/// one [`Scorer`] call, as one [`CandidateBatch`].
pub struct JointScorer<'a> {
    scorer: &'a dyn Scorer,
    cluster: &'a Cluster,
    featurization: Featurization,
    /// One per query, shared with every batch the scorer hands out.
    templates: Arc<[GraphTemplate]>,
    /// Per-query, per-operator nominal resource loads, for contention
    /// pricing (rate-weighted share or learned interference).
    loads: Vec<Vec<OpLoad>>,
    interference: Option<&'a InterferenceModel>,
    maximize: bool,
}

impl<'a> JointScorer<'a> {
    /// Builds the per-query [`GraphTemplate`]s once for the whole search.
    pub fn new(problem: &JointSearchProblem<'a>, scorer: &'a dyn Scorer) -> Self {
        let templates: Arc<[GraphTemplate]> = problem
            .queries
            .iter()
            .map(|jq| GraphTemplate::new(jq.query, problem.cluster, jq.est_sels, problem.featurization))
            .collect();
        JointScorer {
            scorer,
            cluster: problem.cluster,
            featurization: problem.featurization,
            templates,
            loads: problem.queries.iter().map(|jq| profile_loads(jq.query)).collect(),
            interference: problem.interference,
            maximize: scorer.target_metric() == CostMetric::Throughput,
        }
    }

    /// The host feature rows of query `q` that joint placement `jp`
    /// degrades, as `(host, row)` overrides of the template's rows: CPU,
    /// RAM and bandwidth of every used host with external load scaled to
    /// the capacity share the query effectively keeps (see
    /// [`JointScorer::contended_share`]). At most one entry per operator,
    /// whatever the cluster's width; empty when no used host is contended
    /// (the plain template rows apply, bitwise) — always, for a lone
    /// query: no co-resident exists, so its hosts are not even looked at.
    fn contended_rows(&self, jp: &JointPlacement, q: usize) -> Vec<(HostId, Vec<f32>)> {
        if self.featurization != Featurization::Full || self.templates.len() == 1 {
            return Vec::new();
        }
        let occupancy = jp.occupancy();
        jp.query(q)
            .hosts_used()
            .into_iter()
            .filter(|&h| occupancy[h] > jp.own_load(q, h))
            .map(|h| {
                let share = self.contended_share(jp, q, h);
                (h, host_features(&shrunk_host(self.cluster.host(h), share)))
            })
            .collect()
    }

    /// The capacity share query `q` effectively keeps of contended host
    /// `h`. With a learned [`InterferenceModel`] configured, the share is
    /// the reciprocal of the predicted co-run cost inflation (a query
    /// predicted to run 2x slower effectively sees half a machine);
    /// otherwise the rate-weighted proportional-share fallback applies.
    /// Only called for hosts with external load.
    fn contended_share(&self, jp: &JointPlacement, q: usize, h: usize) -> f64 {
        let (own, ext) = resident_loads(&self.loads, jp, q, h);
        match self.interference {
            Some(model) => 1.0 / model.predict_inflation(&own, &ext, self.cluster.host(h)),
            None => rate_weighted_share(&own, &ext),
        }
    }

    /// The full host-feature row set query `q` sees under `jp` —
    /// contended rows where co-residents share hosts, the plain template
    /// rows everywhere else. Public so tests can pin the
    /// uncontended-rows-bitwise-identical invariant directly.
    pub fn host_rows(&self, jp: &JointPlacement, q: usize) -> Vec<Vec<f32>> {
        let template = &self.templates[q];
        let mut rows: Vec<Vec<f32>> = (0..template.n_hosts()).map(|h| template.host_row(h)).collect();
        for (h, row) in self.contended_rows(jp, q) {
            rows[h] = row;
        }
        rows
    }

    /// Scores a batch of joint candidates: all `candidates.len() * N`
    /// graphs go through the backend as **one** batch (what lets a
    /// serve-backed joint search coalesce across queries, rounds and
    /// tenants), split back into per-query scores per candidate.
    ///
    /// # Panics
    /// Panics when a candidate's query count does not match the problem,
    /// or the backend returns non-finite or miscounted predictions.
    pub fn evaluate(&self, candidates: &[JointPlacement]) -> Vec<JointCandidateEvaluation> {
        self.evaluate_in(candidates.to_vec(), &mut SearchStats::default(), &mut ScoreMemo::new())
    }

    /// [`JointScorer::evaluate`] for one batch of a search, scored
    /// through the search's memo: the candidates travel to the scorer as
    /// placements, with only their contended host rows priced here.
    fn evaluate_in(
        &self,
        candidates: Vec<JointPlacement>,
        stats: &mut SearchStats,
        memo: &mut ScoreMemo,
    ) -> Vec<JointCandidateEvaluation> {
        let n_q = self.templates.len();
        let n_candidates = candidates.len() as u64;
        let t0 = Instant::now();
        let batch = CandidateBatch::new(Arc::clone(&self.templates), candidates, |jp, q| {
            self.contended_rows(jp, q)
        });
        stats.featurize_ns += t0.elapsed().as_nanos() as u64;
        stats.candidates_scored += n_candidates;
        stats.score_batches += 1;
        stats.max_batch = stats.max_batch.max(n_candidates);
        let t1 = Instant::now();
        let scores = self.scorer.score_batch_in(&batch, memo);
        stats.score_ns += t1.elapsed().as_nanos() as u64;
        assert_eq!(scores.len(), batch.len(), "scorer must return one result per graph");
        batch
            .into_candidates()
            .into_iter()
            .zip(scores.chunks(n_q.max(1)))
            .map(|(placement, per_query)| {
                for s in per_query {
                    assert!(
                        s.cost.is_finite() && s.success.is_finite() && s.backpressure.is_finite(),
                        "finite predictions"
                    );
                }
                JointCandidateEvaluation {
                    placement,
                    per_query: per_query.to_vec(),
                }
            })
            .collect()
    }
}

/// The host a contended query effectively runs on: `share` of its CPU,
/// RAM and bandwidth (egress latency is a link property, not a shared
/// resource, and is kept).
fn shrunk_host(host: &Host, share: f64) -> Host {
    Host {
        cpu: host.cpu * share,
        ram_mb: host.ram_mb * share,
        bandwidth_mbits: host.bandwidth_mbits * share,
        latency_ms: host.latency_ms,
    }
}

/// Splits the resident operator loads of host `h` under `jp` into query
/// `q`'s own loads and everyone else's. `loads` is indexed
/// `[query][operator]` in problem order.
fn resident_loads(loads: &[Vec<OpLoad>], jp: &JointPlacement, q: usize, h: usize) -> (Vec<OpLoad>, Vec<OpLoad>) {
    let mut own = Vec::new();
    let mut ext = Vec::new();
    for (qq, per_op) in loads.iter().enumerate() {
        let placement = jp.query(qq);
        for (i, &l) in per_op.iter().enumerate() {
            if placement.host_of(i) == h {
                if qq == q {
                    own.push(l);
                } else {
                    ext.push(l);
                }
            }
        }
    }
    (own, ext)
}

/// Contention-aware predictions of one joint candidate.
#[derive(Clone, Debug)]
pub struct JointCandidateEvaluation {
    /// The candidate joint placement.
    pub placement: JointPlacement,
    /// Per-query scores under the candidate's occupancy (problem order).
    pub per_query: Vec<PlacementScores>,
}

impl JointCandidateEvaluation {
    /// Total predicted cost: the sum of the per-query target-metric
    /// predictions (the quantity a joint search optimizes).
    pub fn total_cost(&self) -> f64 {
        self.per_query.iter().map(|s| s.cost).sum()
    }

    /// The Fig. 4 sanity filter, jointly: every query must be predicted
    /// to succeed without backpressure.
    pub fn all_viable(&self) -> bool {
        self.per_query.iter().all(PlacementScores::viable)
    }
}

/// Outcome of a joint placement optimization.
#[derive(Clone, Debug)]
pub struct JointOptimizationResult {
    /// The chosen joint placement.
    pub best: JointPlacement,
    /// The first candidate scored (seed or initial heuristic) — the
    /// baseline a joint search is measured against.
    pub initial: JointPlacement,
    /// All evaluated candidates, in scoring order.
    pub candidates: Vec<JointCandidateEvaluation>,
    /// True when the sanity filters removed every candidate.
    pub all_filtered: bool,
    /// Profiling counters of the joint search run (moves generated and
    /// rejected across all queries, time split across validity checks /
    /// featurization / scoring).
    pub stats: SearchStats,
}

impl JointOptimizationResult {
    /// The evaluation of the chosen joint placement.
    pub fn best_evaluation(&self) -> &JointCandidateEvaluation {
        self.candidates
            .iter()
            .find(|e| e.placement == self.best)
            .expect("best is a scored candidate")
    }
}

/// A search strategy over the joint placement space. Budget is counted
/// in joint candidates scored (each costs one graph prediction per
/// query). Deterministic for fixed inputs and seed, independent of the
/// scorer's batching — exactly like [`crate::search::PlacementSearch`].
pub trait JointPlacementSearch: Sync {
    /// Strategy name for logs and benchmarks.
    fn name(&self) -> &'static str;

    /// Runs the search, scoring at most `budget.max(1)` joint candidates.
    /// (Named `search_joint` so strategy structs can implement both this
    /// trait and [`crate::search::PlacementSearch`] without ambiguous
    /// method calls.)
    fn search_joint(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult {
        self.search_joint_seeded(problem, scorer, &[], budget, seed)
    }

    /// Like [`JointPlacementSearch::search_joint`], but scores `seeds` first
    /// (against the same budget). Because every strategy returns the
    /// best candidate it ever scored, the result can never be worse than
    /// the best seed — the warm-start contract the joint-vs-independent
    /// comparison relies on.
    fn search_joint_seeded(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult;
}

/// The one-time charge [`replan`] adds to the ranking key: each scored
/// candidate's modeled migration cost from the *running* incumbent (not
/// the repaired baseline — the system migrates from what is actually
/// running), amortized over the horizon.
struct Migration<'a> {
    model: MigrationCostModel,
    /// Amortization horizon, epochs (clamped ≥ 1).
    horizon: f64,
    queries: Vec<&'a Query>,
    incumbent: &'a JointPlacement,
    /// Modeled cost per scored candidate, in scoring order.
    cost_ms: Vec<f64>,
}

/// The bookkeeping every search shares — the four strategies (at any
/// query count, one included) and [`replan`]: budget accounting,
/// duplicate suppression over flattened assignments, contention-aware
/// scoring, the Fig. 4 selection rule and the ranking objective (signed
/// total cost, plus the amortized [`Migration`] charge under replan).
struct Evaluator<'a> {
    scorer: JointScorer<'a>,
    /// Every node state the scorer computed for this search; dropped with
    /// the evaluator, so nothing scored survives the search.
    memo: ScoreMemo,
    budget: usize,
    seen: HashSet<Vec<HostId>>,
    evaluated: Vec<JointCandidateEvaluation>,
    /// `Some` under [`replan`] only.
    migration: Option<Migration<'a>>,
    stats: SearchStats,
}

impl<'a> Evaluator<'a> {
    fn new(problem: &JointSearchProblem<'a>, scorer: &'a dyn Scorer, budget: usize) -> Self {
        Evaluator {
            scorer: JointScorer::new(problem, scorer),
            memo: ScoreMemo::new(),
            budget: budget.max(1),
            seen: HashSet::new(),
            evaluated: Vec::new(),
            migration: None,
            stats: SearchStats {
                threads: 1,
                ..Default::default()
            },
        }
    }

    fn remaining(&self) -> usize {
        self.budget - self.evaluated.len()
    }

    fn is_seen(&self, jp: &JointPlacement) -> bool {
        self.seen.contains(&jp.flattened())
    }

    /// Duplicate check over an already-flattened assignment — lets
    /// strategies test a move via [`JointPlacement::flattened_after`]
    /// into a reused buffer without materializing the placement.
    fn is_seen_flat(&self, flat: &[HostId]) -> bool {
        self.seen.contains(flat)
    }

    /// Scores the not-yet-seen candidates (in order, up to the remaining
    /// budget) in one backend batch; returns their indices.
    fn score(&mut self, candidates: Vec<JointPlacement>) -> Vec<usize> {
        let mut fresh: Vec<JointPlacement> = Vec::new();
        for jp in candidates {
            if fresh.len() >= self.remaining() {
                break;
            }
            let key = jp.flattened();
            if self.seen.contains(&key) {
                continue;
            }
            self.seen.insert(key);
            fresh.push(jp);
        }
        if fresh.is_empty() {
            return Vec::new();
        }
        if let Some(m) = &mut self.migration {
            let cluster = self.scorer.cluster;
            let charges = fresh
                .iter()
                .map(|jp| m.model.cost_ms(&m.queries, cluster, m.incumbent, jp));
            m.cost_ms.extend(charges);
        }
        let start = self.evaluated.len();
        let scored = self.scorer.evaluate_in(fresh, &mut self.stats, &mut self.memo);
        self.evaluated.extend(scored);
        (start..self.evaluated.len()).collect()
    }

    /// Scores one candidate; `None` when it was a duplicate.
    fn score_one(&mut self, candidate: JointPlacement) -> Option<usize> {
        self.score(vec![candidate]).first().copied()
    }

    /// The ranking key, lower is always better: the signed total cost,
    /// plus under [`replan`] the horizon-amortized migration cost. Both
    /// are latency-shaped milliseconds for the default metric; for a
    /// maximized metric (throughput) the migration term acts as a
    /// switching penalty in the same signed space. The steady cost recurs
    /// every epoch while the migration is paid once, so a plan expected
    /// to run for `horizon` epochs is charged `migration / horizon` per
    /// epoch — zero stays zero, so the incumbent's key is
    /// horizon-invariant.
    fn key(&self, i: usize) -> f64 {
        let total = self.evaluated[i].total_cost();
        let signed = if self.scorer.maximize { -total } else { total };
        match &self.migration {
            None => signed,
            Some(m) => signed + m.cost_ms[i] / m.horizon,
        }
    }

    /// Strict "candidate `a` beats candidate `b`" on the (all-viable,
    /// key) ranking (see [`ranking::better`]).
    fn better(&self, a: usize, b: usize) -> bool {
        ranking::better(
            self.evaluated[a].all_viable(),
            self.key(a),
            self.evaluated[b].all_viable(),
            self.key(b),
        )
    }

    /// The best of `indices` (first wins ties); `None` when empty.
    fn best_in(&self, indices: &[usize]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for &i in indices {
            best = match best {
                None => Some(i),
                Some(b) if self.better(i, b) => Some(i),
                keep => keep,
            };
        }
        best
    }

    /// The `k` best of `indices`, best first (earlier-scored wins ties).
    fn top_of(&self, indices: Vec<usize>, k: usize) -> Vec<usize> {
        ranking::top_of(indices, k, |i| self.evaluated[i].all_viable(), |i| self.key(i))
    }

    /// Final Fig. 4 selection: the best viable candidate ever scored,
    /// falling back to the least-bad overall when the sanity filters
    /// removed everything.
    fn best(&self) -> usize {
        let all: Vec<usize> = (0..self.evaluated.len()).collect();
        self.best_in(&all).expect("search must score at least one candidate")
    }

    fn finish(self) -> JointOptimizationResult {
        let best = self.best();
        let all_filtered = !self.evaluated.iter().any(JointCandidateEvaluation::all_viable);
        JointOptimizationResult {
            best: self.evaluated[best].placement.clone(),
            initial: self.evaluated[0].placement.clone(),
            candidates: self.evaluated,
            all_filtered,
            stats: self.stats,
        }
    }

    /// Draws up to one fresh (unseen) joint placement whose hosts all
    /// pass `live` from a seeded stream — the restart point of a stalled
    /// walk.
    fn fresh_sample(
        &self,
        jnb: &JointNeighborhood<'_>,
        live: impl Fn(HostId) -> bool,
        seed: u64,
        round: u64,
    ) -> Option<JointPlacement> {
        for attempt in 0..32u64 {
            let s = seed
                ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(1);
            let mut rng = StdRng::seed_from_u64(s);
            if let Some(jp) = jnb.sample_valid(&mut rng) {
                let flat = jp.flattened();
                if flat.iter().all(|&h| live(h)) && !self.is_seen_flat(&flat) {
                    return Some(jp);
                }
            }
        }
        None
    }
}

/// One joint-strategy round's neighborhood enumeration: recompute every
/// query's rule ③ state and fill `buf` with the full cross-query move
/// list, folding counters and wall time into `stats`.
fn enumerate_joint_neighbors(
    jnb: &JointNeighborhood<'_>,
    jp: &JointPlacement,
    states: &mut Vec<VisitState>,
    buf: &mut Vec<JointMove>,
    stats: &mut SearchStats,
) {
    let t0 = Instant::now();
    jnb.visit_states_into(jp, states);
    let counts = jnb.neighbors_into(jp, states, buf);
    stats.validity_ns += t0.elapsed().as_nanos() as u64;
    stats.moves_generated += counts.generated;
    stats.moves_rejected += counts.rejected;
}

/// The always-valid joint fallback: every query co-located on the
/// strongest host (maximum contention, but satisfies every rule).
fn fallback_joint(problem: &JointSearchProblem<'_>) -> JointPlacement {
    JointPlacement::new(
        problem.cluster.len(),
        problem
            .queries
            .iter()
            .map(|jq| colocate_on_strongest(jq.query, problem.cluster))
            .collect(),
    )
}

/// Enumerates up to `k` distinct random joint placements: [`enumerate_distinct`]
/// over [`JointNeighborhood::sample_valid`], falling back to the co-located
/// placement when sampling yields nothing.
fn enumerate_joint(
    problem: &JointSearchProblem<'_>,
    jnb: &JointNeighborhood<'_>,
    k: usize,
    seed: u64,
) -> Vec<JointPlacement> {
    enumerate_distinct(
        k,
        seed,
        |rng| jnb.sample_valid(rng),
        JointPlacement::flatten_into,
        || fallback_joint(problem),
    )
}

/// The one random enumeration: up to `k` distinct samples from a seeded
/// stream. Every sampling attempt draws from its own seed (derived from
/// `seed` and the attempt index) and attempts are consumed in index order,
/// so the output is deterministic. `key` writes a sample's flattened
/// assignment, the duplicate-suppression key. When `k > 0` and sampling
/// yields nothing, the result is `fallback()` alone. At one query,
/// [`JointNeighborhood::sample_valid`] draws exactly like
/// `Neighborhood::sample_valid`, so the joint enumerator and
/// [`crate::optimizer::enumerate_candidates`] yield the same stream.
pub(crate) fn enumerate_distinct<T>(
    k: usize,
    seed: u64,
    mut sample: impl FnMut(&mut StdRng) -> Option<T>,
    key: impl Fn(&T, &mut Vec<HostId>),
    fallback: impl FnOnce() -> T,
) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    if k == 0 {
        return out;
    }
    let mut seen: HashSet<Vec<HostId>> = HashSet::new();
    let mut buf: Vec<HostId> = Vec::new();
    // Generous attempt budget: distinct valid placements can be scarce on
    // small clusters.
    for a in 0..(k * 20) as u64 {
        if out.len() >= k {
            break;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        if let Some(x) = sample(&mut rng) {
            // Membership is probed through a reused key buffer, so a
            // rejected duplicate allocates no key; only genuinely new
            // assignments are copied into the set.
            key(&x, &mut buf);
            if !seen.contains(buf.as_slice()) {
                seen.insert(buf.clone());
                out.push(x);
            }
        }
    }
    if out.is_empty() {
        out.push(fallback());
    }
    out
}

/// Restarts a strategy's stalled walk: scores a fresh sample from
/// anywhere on the cluster, else the co-located fallback while it is
/// still unscored, and returns its index; `None` when neither is left.
fn restart(
    problem: &JointSearchProblem<'_>,
    jnb: &JointNeighborhood<'_>,
    ev: &mut Evaluator<'_>,
    seed: u64,
    round: u64,
) -> Option<usize> {
    let jp = ev
        .fresh_sample(jnb, |_| true, seed, round)
        .or_else(|| Some(fallback_joint(problem)).filter(|jp| !ev.is_seen(jp)))?;
    ev.score_one(jp)
}

/// Seeds the evaluator: explicit warm-start seeds first, then random
/// joint placements up to `n_random`, then the fallback if still empty.
fn seed_pool(
    ev: &mut Evaluator<'_>,
    problem: &JointSearchProblem<'_>,
    jnb: &JointNeighborhood<'_>,
    seeds: &[JointPlacement],
    n_random: usize,
    seed: u64,
) -> Vec<usize> {
    let mut indices = ev.score(seeds.to_vec());
    let fill = n_random.min(ev.remaining());
    if fill > 0 {
        indices.extend(ev.score(enumerate_joint(problem, jnb, fill, seed)));
    }
    if ev.evaluated.is_empty() {
        indices.extend(ev.score(vec![fallback_joint(problem)]));
    }
    indices
}

impl JointPlacementSearch for RandomEnumeration {
    fn name(&self) -> &'static str {
        "random"
    }

    /// The baseline, jointly: score the seeds, then distinct random
    /// joint placements until the budget is spent.
    fn search_joint_seeded(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult {
        let mut ev = Evaluator::new(problem, scorer, budget);
        let jnb = JointNeighborhood::new(&problem.query_refs(), problem.cluster);
        let n = ev.budget;
        seed_pool(&mut ev, problem, &jnb, seeds, n, seed);
        ev.finish()
    }
}

impl JointPlacementSearch for LocalSearch {
    fn name(&self) -> &'static str {
        "local"
    }

    /// Hill climbing with restarts over the cross-query move space, with
    /// [`JointNeighborhood`] generating relocations and (cross-query)
    /// swaps and occupancy maintained incrementally by
    /// [`JointPlacement::apply`].
    fn search_joint_seeded(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult {
        let mut ev = Evaluator::new(problem, scorer, budget);
        let refs = problem.query_refs();
        let jnb = JointNeighborhood::new(&refs, problem.cluster);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10CA_15EA_2C4B_AD5E);
        let mut restarts: u64 = 0;

        // Exploration pool: the seeds, then the seeded stream the baseline
        // enumerates (its first member is therefore the "initial heuristic
        // placement" of the other strategies too).
        let n_random = ranking::seed_count(ev.budget, LOCAL_SEED_SHARE, 1).saturating_sub(seeds.len());
        let mut pool_indices = seed_pool(&mut ev, problem, &jnb, seeds, n_random, seed);
        let Some(mut current) = ev.best_in(&pool_indices) else {
            return ev.finish();
        };
        // Restart order: best pool members first.
        pool_indices = ev.top_of(pool_indices, usize::MAX);
        let mut next_pool = 0usize;
        let mut expanded: HashSet<usize> = HashSet::new();
        let mut states: Vec<VisitState> = Vec::new();
        let mut moves_buf: Vec<JointMove> = Vec::new();
        let mut flat_buf: Vec<HostId> = Vec::new();

        while ev.remaining() > 0 {
            expanded.insert(current);
            let jp = ev.evaluated[current].placement.clone();
            enumerate_joint_neighbors(&jnb, &jp, &mut states, &mut moves_buf, &mut ev.stats);
            moves_buf.shuffle(&mut rng);
            let mut candidates: Vec<JointPlacement> = Vec::new();
            for &mv in &moves_buf {
                if candidates.len() >= LOCAL_SAMPLE_SIZE {
                    break;
                }
                jp.flattened_after(mv, &mut flat_buf);
                if !ev.is_seen_flat(&flat_buf) {
                    candidates.push(jp.apply(mv));
                }
            }

            let mut next: Option<usize> = None;
            if !candidates.is_empty() {
                let scored = ev.score(candidates);
                if let Some(best) = ev.best_in(&scored) {
                    if ev.better(best, current) {
                        next = Some(best);
                    }
                }
            }
            match next {
                Some(idx) => current = idx,
                None => {
                    // Local optimum (or neighborhood exhausted): restart
                    // from the best unexpanded pool member, then from
                    // fresh random placements once the pool is spent.
                    while next_pool < pool_indices.len() && expanded.contains(&pool_indices[next_pool]) {
                        next_pool += 1;
                    }
                    if next_pool < pool_indices.len() {
                        current = pool_indices[next_pool];
                        next_pool += 1;
                        continue;
                    }
                    restarts += 1;
                    let Some(idx) = restart(problem, &jnb, &mut ev, seed, restarts) else {
                        break;
                    };
                    current = idx;
                }
            }
        }
        ev.finish()
    }
}

impl JointPlacementSearch for BeamSearch {
    fn name(&self) -> &'static str {
        "beam"
    }

    /// Beam search over the cross-query move space: keep the
    /// [`BEAM_WIDTH`] best joint candidates, expand each by up to
    /// [`BEAM_EXPAND`] unseen neighbors per round, re-rank, repeat.
    fn search_joint_seeded(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult {
        let mut ev = Evaluator::new(problem, scorer, budget);
        let refs = problem.query_refs();
        let jnb = JointNeighborhood::new(&refs, problem.cluster);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEA3_5EA2_C4A6_1D07);
        let n_random = ranking::seed_count(ev.budget, BEAM_SEED_SHARE, BEAM_WIDTH).saturating_sub(seeds.len());
        let scored = seed_pool(&mut ev, problem, &jnb, seeds, n_random, seed);
        let mut beam = ev.top_of(scored, BEAM_WIDTH);
        let mut states: Vec<VisitState> = Vec::new();
        let mut moves_buf: Vec<JointMove> = Vec::new();
        let mut flat_buf: Vec<HostId> = Vec::new();

        while ev.remaining() > 0 {
            let mut expansion: Vec<JointPlacement> = Vec::new();
            // Round-local dedup over flattened assignments (computed once
            // per candidate, into a reused buffer, not per pairwise
            // comparison).
            let mut in_round: HashSet<Vec<HostId>> = HashSet::new();
            for &bi in &beam {
                // Every entry is unseen and distinct within the round, so
                // `score` takes exactly the first `remaining` and the search
                // ends: what later members would add is never looked at.
                if expansion.len() >= ev.remaining() {
                    break;
                }
                let jp = ev.evaluated[bi].placement.clone();
                enumerate_joint_neighbors(&jnb, &jp, &mut states, &mut moves_buf, &mut ev.stats);
                moves_buf.shuffle(&mut rng);
                let mut taken = 0usize;
                for &mv in &moves_buf {
                    if taken >= BEAM_EXPAND {
                        break;
                    }
                    jp.flattened_after(mv, &mut flat_buf);
                    if ev.is_seen_flat(&flat_buf) || in_round.contains(flat_buf.as_slice()) {
                        continue;
                    }
                    in_round.insert(flat_buf.clone());
                    expansion.push(jp.apply(mv));
                    taken += 1;
                }
            }
            if expansion.is_empty() {
                break;
            }
            let scored = ev.score(expansion);
            if scored.is_empty() {
                break;
            }
            let mut pool = beam;
            pool.extend(scored);
            beam = ev.top_of(pool, BEAM_WIDTH);
        }
        ev.finish()
    }
}

impl JointPlacementSearch for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "anneal"
    }

    /// Simulated annealing over the cross-query move space: one chain,
    /// Metropolis acceptance on the relative total-cost delta (see
    /// `ranking::anneal_accepts`), restart on exhaustion.
    /// Best-ever-scored is returned.
    fn search_joint_seeded(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult {
        let mut ev = Evaluator::new(problem, scorer, budget);
        let refs = problem.query_refs();
        let jnb = JointNeighborhood::new(&refs, problem.cluster);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA44E_A1E4_0C0A_57A7);

        let n_random = ranking::seed_count(ev.budget, ANNEAL_SEED_SHARE, 1).saturating_sub(seeds.len());
        let scored = seed_pool(&mut ev, problem, &jnb, seeds, n_random, seed);
        let Some(mut current) = ev.best_in(&scored) else {
            return ev.finish();
        };

        let mut temp = ANNEAL_INITIAL_TEMP;
        let mut restarts: u64 = 0;
        let mut states: Vec<VisitState> = Vec::new();
        let mut moves_buf: Vec<JointMove> = Vec::new();
        let mut flat_buf: Vec<HostId> = Vec::new();
        while ev.remaining() > 0 {
            let jp = ev.evaluated[current].placement.clone();
            enumerate_joint_neighbors(&jnb, &jp, &mut states, &mut moves_buf, &mut ev.stats);
            moves_buf.shuffle(&mut rng);
            let mut next: Option<JointPlacement> = None;
            for &mv in &moves_buf {
                jp.flattened_after(mv, &mut flat_buf);
                if !ev.is_seen_flat(&flat_buf) {
                    next = Some(jp.apply(mv));
                    break;
                }
            }
            match next {
                Some(np) => {
                    let Some(cand) = ev.score_one(np) else {
                        break;
                    };
                    let accept = ranking::anneal_accepts(
                        (ev.evaluated[current].all_viable(), ev.key(current)),
                        (ev.evaluated[cand].all_viable(), ev.key(cand)),
                        temp,
                        &mut rng,
                    );
                    if accept {
                        current = cand;
                    }
                }
                None => {
                    // Every neighbor already scored: restart the chain
                    // from a fresh random placement.
                    restarts += 1;
                    let Some(idx) = restart(problem, &jnb, &mut ev, seed, restarts) else {
                        break;
                    };
                    current = idx;
                }
            }
            temp = (temp * ANNEAL_COOLING).max(1e-4);
        }
        ev.finish()
    }
}

// ---------------------------------------------------------------------------
// Migration-aware re-placement (the runtime elasticity loop's search step)
// ---------------------------------------------------------------------------

/// Models what moving operators between hosts costs at runtime: each
/// moved operator pauses its subgraph for a fixed window plus the time
/// to ship its state (windowed tuples, from the simulator's
/// [`ExecutionProfile`], plus a fixed runtime-image overhead) over the
/// bottleneck link between old and new host. Units are milliseconds so
/// the cost composes with the latency-shaped steady-state objective.
#[derive(Clone, Copy, Debug)]
pub struct MigrationCostModel {
    /// Fixed pause per moved operator (checkpoint + redeploy + catch-up
    /// stall), in milliseconds.
    pub pause_ms_per_op: f64,
    /// State shipped per moved operator beyond window state: serialized
    /// operator image, connection re-establishment, in-flight buffers.
    pub per_op_overhead_bytes: f64,
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        MigrationCostModel {
            pause_ms_per_op: 250.0,
            per_op_overhead_bytes: 2.0 * 1024.0 * 1024.0,
        }
    }
}

impl MigrationCostModel {
    /// Total modeled migration cost (ms) of switching the running system
    /// from joint placement `from` to `to`. Unmoved operators are free;
    /// a moved operator pays the fixed pause plus its state over the
    /// `from`→`to` host link. Link bandwidth of a *dead* source host is
    /// still used — state is recovered from the checkpoint store over
    /// the same links, which this model prices identically.
    pub fn cost_ms(&self, queries: &[&Query], cluster: &Cluster, from: &JointPlacement, to: &JointPlacement) -> f64 {
        assert_eq!(from.len(), queries.len());
        assert_eq!(to.len(), queries.len());
        let mut total = 0.0;
        for (q, query) in queries.iter().enumerate() {
            let profile = ExecutionProfile::of(query);
            let (fp, tp) = (from.query(q), to.query(q));
            for op in 0..query.len() {
                let (a, b) = (fp.host_of(op), tp.host_of(op));
                if a == b {
                    continue;
                }
                let bytes = profile.state_bytes(op) + self.per_op_overhead_bytes;
                let bytes_per_s = (cluster.link_bandwidth_mbits(a, b) * 1e6 / 8.0).max(1.0);
                total += self.pause_ms_per_op + 1000.0 * bytes / bytes_per_s;
            }
        }
        total
    }
}

/// Knobs of the migration-aware re-placement search.
#[derive(Clone, Copy, Debug)]
pub struct ReplanConfig {
    /// Prices candidate migrations against steady-state gains.
    pub migration: MigrationCostModel,
    /// Joint candidates scored per replan call.
    pub budget: usize,
    /// Neighbors scored per hill-climbing round.
    pub sample_size: usize,
    /// Expected epochs the chosen plan will keep running. The one-time
    /// migration charge is amortized over this horizon on the ranking
    /// (`steady + migration / horizon`): a move that cannot pay for
    /// itself within one epoch may still win when its steady-state gain
    /// repeats for many. `1.0` (the default) reproduces the
    /// un-amortized objective; values below 1 are clamped to 1, so the
    /// migration charge is never inflated. Staying put costs zero
    /// migration at any horizon — the never-worse-than-staying-put
    /// contract is horizon-independent.
    pub horizon_epochs: f64,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            migration: MigrationCostModel::default(),
            budget: 24,
            sample_size: 8,
            horizon_epochs: 1.0,
        }
    }
}

/// What a replan decided, and the evidence behind it.
#[derive(Clone, Debug)]
pub struct ReplanOutcome {
    /// The chosen joint placement (the incumbent itself when staying put
    /// wins).
    pub plan: JointPlacement,
    /// Whether the chosen plan moves any operator off the incumbent.
    pub migrated: bool,
    /// Whether the incumbent had operators on dead hosts and had to be
    /// repaired before scoring.
    pub repaired: bool,
    /// Predicted steady-state cost of the chosen plan (sum of per-query
    /// target-metric predictions; sign as-is, not the internal key).
    pub steady_cost: f64,
    /// Every chosen query predicted viable (Fig. 4) under the plan.
    pub viable: bool,
    /// Modeled one-time cost of moving from the incumbent to the plan.
    pub migration_cost_ms: f64,
    /// Predicted steady-state cost of the (repaired) incumbent — the
    /// do-nothing baseline the plan had to beat.
    pub incumbent_steady_cost: f64,
    /// Whether that baseline was itself predicted viable.
    pub incumbent_viable: bool,
}

/// Migration-aware joint re-placement: searches for a new joint
/// placement whose objective is the predicted steady-state cost **plus**
/// the modeled one-time migration cost from the running `incumbent`
/// amortized over [`ReplanConfig::horizon_epochs`] (a per-epoch charge:
/// the steady cost recurs, the migration is paid once), with
/// `dead_hosts` hard-excluded from the candidate space.
///
/// The search is warm-started from the incumbent: the (dead-host-
/// repaired) incumbent is the first candidate scored, then a
/// hill-climb walks the incremental [`JointNeighborhood`] from the best
/// known candidate, with seeded random restarts when no sampled
/// neighbor improves. Because the incumbent pays zero migration cost
/// and the best candidate *ever scored* is returned, the outcome is
/// never worse than staying put on the (viability, steady + migration)
/// ranking — the never-worse contract the adaptive controller relies
/// on. With dead hosts, "staying put" is impossible; the repaired
/// incumbent (dead-hosted operators bumped to the strongest live host)
/// plays the baseline role instead.
///
/// Deterministic for a given `(problem, incumbent, dead_hosts, seed)`.
///
/// # Errors
/// Returns [`ReplanError::NoLiveHosts`] when `dead_hosts` covers the
/// whole cluster — there is nowhere to place anything, and crashing the
/// controller loop over it would turn a dead cluster into a dead
/// controller — and [`ReplanError::QueryCountMismatch`] when the
/// incumbent does not place exactly the problem's queries. Ids in
/// `dead_hosts` that name no host of the cluster are ignored.
pub fn replan(
    problem: &JointSearchProblem<'_>,
    scorer: &dyn Scorer,
    incumbent: &JointPlacement,
    dead_hosts: &[HostId],
    cfg: &ReplanConfig,
    seed: u64,
) -> Result<ReplanOutcome, ReplanError> {
    if incumbent.len() != problem.queries.len() {
        return Err(ReplanError::QueryCountMismatch {
            expected: problem.queries.len(),
            got: incumbent.len(),
        });
    }
    let n_hosts = problem.cluster.len();
    let dead: HashSet<HostId> = dead_hosts.iter().copied().filter(|&h| h < n_hosts).collect();
    if dead.len() >= n_hosts {
        return Err(ReplanError::NoLiveHosts);
    }
    let refs = problem.query_refs();
    let jnb = JointNeighborhood::new(&refs, problem.cluster);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x8E9A_11D7_5C3B_F021);

    let (start, repaired) = repair_joint(problem, incumbent, &dead);

    let mut ev = Evaluator::new(problem, scorer, cfg.budget);
    ev.migration = Some(Migration {
        model: cfg.migration,
        // NaN-safe clamp: f64::max returns the non-NaN operand.
        horizon: cfg.horizon_epochs.max(1.0),
        queries: refs,
        incumbent,
        cost_ms: Vec::new(),
    });

    // The do-nothing (or forced-repair) baseline is always scored first;
    // best-ever-scored selection below makes it the floor.
    let mut current = ev
        .score_one(start)
        .expect("nothing is a duplicate of the first candidate");
    let mut restarts = 0u64;
    let mut states: Vec<VisitState> = Vec::new();
    let mut moves: Vec<JointMove> = Vec::new();
    while ev.remaining() > 0 {
        let jp = ev.evaluated[current].placement.clone();
        enumerate_joint_neighbors(&jnb, &jp, &mut states, &mut moves, &mut ev.stats);
        // The base placement never occupies a dead host (the start is
        // repaired and no relocation kept here targets one), so swaps
        // only exchange live hosts.
        moves.retain(|mv| !matches!(*mv, JointMove::Relocate { to, .. } if dead.contains(&to)));
        moves.shuffle(&mut rng);
        let candidates: Vec<JointPlacement> = moves
            .iter()
            .take(cfg.sample_size.max(1))
            .map(|&mv| jp.apply(mv))
            .collect();
        let scored = ev.score(candidates);
        match ev.best_in(&scored) {
            Some(i) if ev.better(i, current) => current = i,
            _ => {
                // Local optimum (or neighborhood exhausted): restart
                // from a fresh live-host sample.
                restarts += 1;
                let Some(idx) = ev
                    .fresh_sample(&jnb, |h| !dead.contains(&h), seed, restarts)
                    .and_then(|np| ev.score_one(np))
                else {
                    break;
                };
                current = idx;
            }
        }
    }

    let best = ev.best();
    let chosen = &ev.evaluated[best];
    let migration = ev.migration.as_ref().expect("replan ranks with the migration term");
    Ok(ReplanOutcome {
        plan: chosen.placement.clone(),
        migrated: chosen.placement.flattened() != incumbent.flattened(),
        repaired,
        steady_cost: chosen.total_cost(),
        viable: chosen.all_viable(),
        migration_cost_ms: migration.cost_ms[best],
        incumbent_steady_cost: ev.evaluated[0].total_cost(),
        incumbent_viable: ev.evaluated[0].all_viable(),
    })
}

/// Why a [`replan`] call could not produce a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanError {
    /// Every host in the cluster is dead: no placement exists. The
    /// caller keeps the (unservable) incumbent and should surface the
    /// outage instead of crashing.
    NoLiveHosts,
    /// The incumbent places `got` queries, the problem has `expected`:
    /// the two do not describe the same running system.
    QueryCountMismatch {
        /// Queries in the problem.
        expected: usize,
        /// Queries the incumbent places.
        got: usize,
    },
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::NoLiveHosts => write!(f, "replan impossible: no live hosts in the cluster"),
            ReplanError::QueryCountMismatch { expected, got } => write!(
                f,
                "replan impossible: the incumbent places {got} queries, the problem has {expected}"
            ),
        }
    }
}

impl std::error::Error for ReplanError {}

/// Moves the incumbent off dead hosts with as little churn as possible:
/// dead-hosted operators go to the strongest live host; when that edit
/// breaks a Fig. 5 rule, the whole query falls back to co-location on
/// the strongest live host (always valid). Queries untouched by the
/// failures keep their placement bit-for-bit.
fn repair_joint(
    problem: &JointSearchProblem<'_>,
    incumbent: &JointPlacement,
    dead: &HashSet<HostId>,
) -> (JointPlacement, bool) {
    if dead.is_empty() {
        return (incumbent.clone(), false);
    }
    let strongest_live = (0..problem.cluster.len())
        .filter(|h| !dead.contains(h))
        .max_by(|&a, &b| {
            let (sa, sb) = (
                problem.cluster.host(a).capability_score(),
                problem.cluster.host(b).capability_score(),
            );
            sa.total_cmp(&sb).then(b.cmp(&a))
        })
        .expect("at least one live host");
    let mut touched = false;
    let placements: Vec<Placement> = problem
        .queries
        .iter()
        .enumerate()
        .map(|(q, jq)| {
            let p = incumbent.query(q);
            if !p.assignment().iter().any(|h| dead.contains(h)) {
                return p.clone();
            }
            touched = true;
            let minimal = Placement::new(
                p.assignment()
                    .iter()
                    .map(|&h| if dead.contains(&h) { strongest_live } else { h })
                    .collect(),
            );
            if minimal.is_valid(jq.query, problem.cluster) {
                minimal
            } else {
                Placement::new(vec![strongest_live; jq.query.len()])
            }
        })
        .collect();
    (JointPlacement::new(problem.cluster.len(), placements), touched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::EnsembleScorer;
    use crate::test_fixtures;

    fn problem_fixture(seed: u64) -> (Vec<Query>, Cluster, Vec<Vec<f64>>) {
        test_fixtures::multi_query_workload(seed, 2, 4)
    }

    #[test]
    fn shrunk_host_scales_shared_resources_only() {
        let h = Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        };
        let alone = shrunk_host(&h, 1.0);
        assert_eq!(alone.cpu, h.cpu);
        let shared = shrunk_host(&h, 0.5);
        assert_eq!(shared.cpu, 400.0);
        assert_eq!(shared.ram_mb, 16000.0);
        assert_eq!(shared.bandwidth_mbits, 5000.0);
        assert_eq!(shared.latency_ms, h.latency_ms);
        let crowded = shrunk_host(&h, 0.25);
        assert!(crowded.cpu < shared.cpu);
    }

    /// Regression for the count-proportional pricing bug: a windowed
    /// join carrying nearly all of the host's tuple rate, co-resident
    /// with N cheap filters, must keep nearly the whole machine — not
    /// `1 / (N + 1)` of it as the old operator-count share gave.
    #[test]
    fn proportional_fallback_weights_by_rate_not_count() {
        use costream_query::generator::WorkloadGenerator;
        use costream_query::ranges::FeatureRanges;
        let mut g = WorkloadGenerator::new(404, FeatureRanges::training());
        // A join query (heavy, high-rate sources) sharing a host with a
        // long chain of filters downstream of one low-rate source.
        let join_q = g.query_with(costream_query::generator::QueryTemplate::TwoWayJoin, 0, false);
        let filters_q = g.filter_chain_query(8);
        let loads_join = profile_loads(&join_q);
        let loads_filters = profile_loads(&filters_q);
        let join_rate: f64 = loads_join.iter().map(|l| l.in_rate).sum();
        let filter_rate: f64 = loads_filters.iter().map(|l| l.in_rate).sum();
        let share = rate_weighted_share(&loads_join, &loads_filters);
        let expected = join_rate / (join_rate + filter_rate);
        assert!((share - expected).abs() < 1e-9, "share {share} vs expected {expected}");
        // The old count share: join ops vs (join + 10 filter-chain ops).
        let count_share = loads_join.len() as f64 / (loads_join.len() + loads_filters.len()) as f64;
        if join_rate > 4.0 * filter_rate {
            assert!(
                share > 1.5 * count_share,
                "rate weighting must dominate counts: {share} vs {count_share}"
            );
        }
        // Symmetry: the shares of the two tenants partition the host.
        let other = rate_weighted_share(&loads_filters, &loads_join);
        assert!((share + other - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uncontended_joint_scores_match_single_query_bitwise() {
        let corpus = test_fixtures::corpus(60, 90);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (queries, cluster, sels) = problem_fixture(91);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        // Disjoint placements: query 0 on host 0, query 1 on host 1 — no
        // shared host, so no contention.
        let jp = JointPlacement::new(
            cluster.len(),
            vec![
                Placement::new(vec![0; queries[0].len()]),
                Placement::new(vec![1; queries[1].len()]),
            ],
        );
        let js = JointScorer::new(&problem, &scorer);
        let joint = js.evaluate(std::slice::from_ref(&jp));
        let direct = EnsembleScorer::new(&fx.target, &fx.success, &fx.backpressure);
        for (q, jq) in jqs.iter().enumerate() {
            let graph =
                crate::graph::JointGraph::build(jq.query, &cluster, jp.query(q), jq.est_sels, Featurization::Full);
            let single = direct.score_batch(vec![graph]);
            assert_eq!(joint[0].per_query[q].cost.to_bits(), single[0].cost.to_bits());
            assert_eq!(joint[0].per_query[q].success.to_bits(), single[0].success.to_bits());
        }
    }

    #[test]
    fn contention_changes_scores_when_hosts_are_shared() {
        let corpus = test_fixtures::corpus(60, 92);
        let fx = test_fixtures::trio(&corpus, 4, 2);
        let scorer = fx.scorer();
        let (queries, cluster, sels) = problem_fixture(93);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let js = JointScorer::new(&problem, &scorer);
        // Both queries stacked on one host vs. split across two.
        let stacked = JointPlacement::new(
            cluster.len(),
            vec![
                Placement::new(vec![1; queries[0].len()]),
                Placement::new(vec![1; queries[1].len()]),
            ],
        );
        let split = JointPlacement::new(
            cluster.len(),
            vec![
                Placement::new(vec![1; queries[0].len()]),
                Placement::new(vec![2; queries[1].len()]),
            ],
        );
        let evals = js.evaluate(&[stacked.clone(), split]);
        // The stacked query-0 sees a degraded host, the split one the
        // pristine host: the featurizations must differ, hence (almost
        // surely) the predictions.
        assert_ne!(
            evals[0].per_query[0].cost.to_bits(),
            evals[1].per_query[0].cost.to_bits(),
            "contention must be visible in the predictions"
        );
        // And an isolated single-query featurization matches the
        // *uncontended* joint one, not the contended one.
        assert_eq!(stacked.occupancy()[1], queries[0].len() + queries[1].len());
    }

    #[test]
    fn joint_strategies_respect_budget_and_are_deterministic() {
        let corpus = test_fixtures::corpus(60, 94);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (queries, cluster, sels) = problem_fixture(95);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let refs = problem.query_refs();
        for strategy in [
            &RandomEnumeration as &dyn JointPlacementSearch,
            &BeamSearch,
            &LocalSearch,
            &SimulatedAnnealing,
        ] {
            let budget = 12;
            let a = strategy.search_joint(&problem, &scorer, budget, 7);
            assert!(a.candidates.len() <= budget, "{} overspent", strategy.name());
            assert!(!a.candidates.is_empty());
            assert!(a.best.is_valid(&refs, &cluster), "{} best invalid", strategy.name());
            for e in &a.candidates {
                assert_eq!(
                    e.placement.occupancy(),
                    costream_query::joint::count_occupancy(cluster.len(), e.placement.placements()).as_slice(),
                    "{}: occupancy bookkeeping",
                    strategy.name()
                );
            }
            let b = strategy.search_joint(&problem, &scorer, budget, 7);
            assert_eq!(a.candidates.len(), b.candidates.len(), "{}", strategy.name());
            for (x, y) in a.candidates.iter().zip(&b.candidates) {
                assert_eq!(x.placement, y.placement, "{}", strategy.name());
                assert_eq!(
                    x.total_cost().to_bits(),
                    y.total_cost().to_bits(),
                    "{}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn seeded_search_never_loses_to_its_seed() {
        let corpus = test_fixtures::corpus(60, 96);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (queries, cluster, sels) = problem_fixture(97);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let seed_jp = fallback_joint(&problem);
        let js = JointScorer::new(&problem, &scorer);
        let seed_eval = js.evaluate(std::slice::from_ref(&seed_jp));
        let r = LocalSearch.search_joint_seeded(&problem, &scorer, std::slice::from_ref(&seed_jp), 10, 3);
        assert_eq!(r.initial, seed_jp, "first scored candidate is the seed");
        let best = r.best_evaluation();
        // The seed was scored, so the best can only match or beat it
        // (on the viability-then-cost ranking).
        if best.all_viable() == seed_eval[0].all_viable() {
            assert!(best.total_cost() <= seed_eval[0].total_cost());
        } else {
            assert!(best.all_viable());
        }
    }

    #[test]
    fn migration_cost_is_zero_iff_nothing_moves() {
        let (queries, cluster, _) = problem_fixture(101);
        let refs: Vec<&Query> = queries.iter().collect();
        let a = JointPlacement::new(
            cluster.len(),
            vec![
                Placement::new(vec![0; queries[0].len()]),
                Placement::new(vec![1; queries[1].len()]),
            ],
        );
        let model = MigrationCostModel::default();
        assert_eq!(model.cost_ms(&refs, &cluster, &a, &a), 0.0);

        // Move one operator of query 0: exactly one pause plus one
        // transfer is charged.
        let mut moved_one = a.placements().to_vec();
        let mut asg = moved_one[0].assignment().to_vec();
        asg[0] = 2;
        moved_one[0] = Placement::new(asg);
        let b = JointPlacement::new(cluster.len(), moved_one);
        let one = model.cost_ms(&refs, &cluster, &a, &b);
        assert!(one > model.pause_ms_per_op, "pause plus transfer, got {one}");

        // Moving a second operator strictly adds cost.
        let mut moved_two = b.placements().to_vec();
        let mut asg = moved_two[1].assignment().to_vec();
        asg[0] = 2;
        moved_two[1] = Placement::new(asg);
        let c = JointPlacement::new(cluster.len(), moved_two);
        assert!(model.cost_ms(&refs, &cluster, &a, &c) > one);
    }

    #[test]
    fn replan_is_never_worse_than_staying_put() {
        let corpus = test_fixtures::corpus(60, 98);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        for seed in [11u64, 12, 13] {
            let (queries, cluster, sels) = problem_fixture(seed);
            let jqs = JointQuery::zip(&queries, &sels);
            let problem = JointSearchProblem {
                queries: &jqs,
                cluster: &cluster,
                featurization: Featurization::Full,
                interference: None,
            };
            let incumbent = LocalSearch.search_joint(&problem, &scorer, 10, seed).best;
            let outcome =
                replan(&problem, &scorer, &incumbent, &[], &ReplanConfig::default(), seed).expect("live hosts");
            assert!(!outcome.repaired, "no dead hosts, nothing to repair");
            if outcome.migrated {
                // A migration must pay for itself on the ranking: either
                // it restores viability, or it wins on steady cost even
                // after the one-time migration charge.
                if outcome.incumbent_viable {
                    assert!(outcome.viable);
                    assert!(
                        outcome.steady_cost + outcome.migration_cost_ms <= outcome.incumbent_steady_cost,
                        "migrated into a worse plan: {} + {} vs {}",
                        outcome.steady_cost,
                        outcome.migration_cost_ms,
                        outcome.incumbent_steady_cost
                    );
                }
            } else {
                assert_eq!(outcome.migration_cost_ms, 0.0);
                assert_eq!(outcome.plan.flattened(), incumbent.flattened());
                assert_eq!(outcome.steady_cost, outcome.incumbent_steady_cost);
            }
        }
    }

    #[test]
    fn migration_amortizes_over_the_remaining_horizon() {
        let corpus = test_fixtures::corpus(60, 98);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        // A migration price no single epoch can justify (the fixture's
        // steady costs sit far below it): at horizon 1 replan must stay
        // put, at a long horizon the per-epoch charge vanishes and a
        // steady-state gain can pay for the move.
        let prohibitive = MigrationCostModel {
            pause_ms_per_op: 1.0e18,
            ..MigrationCostModel::default()
        };
        let mut migrated_somewhere = false;
        for seed in [11u64, 12, 13] {
            let (queries, cluster, sels) = problem_fixture(seed);
            let jqs = JointQuery::zip(&queries, &sels);
            let problem = JointSearchProblem {
                queries: &jqs,
                cluster: &cluster,
                featurization: Featurization::Full,
                interference: None,
            };
            let incumbent = LocalSearch.search_joint(&problem, &scorer, 10, seed).best;
            let myopic = ReplanConfig {
                migration: prohibitive,
                horizon_epochs: 1.0,
                ..ReplanConfig::default()
            };
            let outcome = replan(&problem, &scorer, &incumbent, &[], &myopic, seed).expect("live hosts");
            if outcome.incumbent_viable {
                assert!(!outcome.migrated, "seed {seed}: no epoch pays a 1e18 ms pause");
                assert_eq!(outcome.plan.flattened(), incumbent.flattened());
            }

            // Sub-1 horizons clamp to 1: bitwise the myopic outcome.
            let clamped = replan(
                &problem,
                &scorer,
                &incumbent,
                &[],
                &ReplanConfig {
                    horizon_epochs: 0.001,
                    ..myopic
                },
                seed,
            )
            .expect("live hosts");
            assert_eq!(clamped.plan.flattened(), outcome.plan.flattened());
            assert_eq!(clamped.steady_cost.to_bits(), outcome.steady_cost.to_bits());

            let horizon = 1.0e12;
            let long = replan(
                &problem,
                &scorer,
                &incumbent,
                &[],
                &ReplanConfig {
                    migration: prohibitive,
                    horizon_epochs: horizon,
                    ..ReplanConfig::default()
                },
                seed,
            )
            .expect("live hosts");
            if long.migrated {
                migrated_somewhere = true;
                // Never-worse holds on the *amortized* ranking: the move
                // either restores viability or wins per epoch.
                if long.incumbent_viable {
                    assert!(long.viable);
                    assert!(
                        long.steady_cost + long.migration_cost_ms / horizon <= long.incumbent_steady_cost,
                        "seed {seed}: amortized key must beat staying put"
                    );
                }
            }
        }
        assert!(
            migrated_somewhere,
            "a vanishing per-epoch charge must unlock at least one steady-state win across the fixture seeds"
        );
    }

    #[test]
    fn replan_hard_excludes_dead_hosts_and_is_deterministic() {
        let corpus = test_fixtures::corpus(60, 99);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (queries, cluster, sels) = problem_fixture(103);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let incumbent = LocalSearch.search_joint(&problem, &scorer, 10, 5).best;
        // Kill the incumbent's most-loaded host: the repair path and the
        // exclusion filter both have to act.
        let dead = (0..cluster.len())
            .max_by_key(|&h| incumbent.occupancy()[h])
            .expect("non-empty cluster");
        assert!(incumbent.occupancy()[dead] > 0, "fixture must actually occupy the host");
        let outcome = replan(&problem, &scorer, &incumbent, &[dead], &ReplanConfig::default(), 5).expect("live hosts");
        assert!(outcome.repaired);
        assert!(outcome.migrated, "operators on a dead host must move");
        assert!(
            outcome.plan.flattened().iter().all(|&h| h != dead),
            "replan placed an operator on the dead host"
        );
        assert!(outcome.migration_cost_ms > 0.0);
        let again = replan(&problem, &scorer, &incumbent, &[dead], &ReplanConfig::default(), 5).expect("live hosts");
        assert_eq!(outcome.plan.flattened(), again.plan.flattened());
        assert_eq!(outcome.steady_cost.to_bits(), again.steady_cost.to_bits());
        assert_eq!(outcome.migration_cost_ms.to_bits(), again.migration_cost_ms.to_bits());
    }

    #[test]
    fn replan_ignores_dead_ids_outside_the_cluster_and_rejects_a_foreign_incumbent() {
        let corpus = test_fixtures::corpus(60, 99);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (queries, cluster, sels) = problem_fixture(107);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        let incumbent = LocalSearch.search_joint(&problem, &scorer, 10, 5).best;
        let cfg = ReplanConfig::default();

        // As many phantom deaths as the cluster has hosts: every real host
        // is still alive, so the call is the `dead_hosts = []` call.
        let phantoms: Vec<HostId> = (cluster.len()..2 * cluster.len()).collect();
        let want = replan(&problem, &scorer, &incumbent, &[], &cfg, 5).expect("live hosts");
        let got = replan(&problem, &scorer, &incumbent, &phantoms, &cfg, 5).expect("phantom ids kill no host");
        assert_eq!(got.plan, want.plan);
        assert_eq!(
            (got.migrated, got.repaired, got.viable, got.incumbent_viable),
            (want.migrated, want.repaired, want.viable, want.incumbent_viable)
        );
        assert_eq!(got.steady_cost.to_bits(), want.steady_cost.to_bits());
        assert_eq!(got.migration_cost_ms.to_bits(), want.migration_cost_ms.to_bits());
        assert_eq!(
            got.incumbent_steady_cost.to_bits(),
            want.incumbent_steady_cost.to_bits()
        );

        // An incumbent of another problem is an error value, not a panic.
        let foreign = JointPlacement::new(cluster.len(), incumbent.placements()[..1].to_vec());
        assert_eq!(
            replan(&problem, &scorer, &foreign, &[], &cfg, 5).err(),
            Some(ReplanError::QueryCountMismatch { expected: 2, got: 1 })
        );
    }

    #[test]
    fn repair_keeps_untouched_queries_bit_for_bit() {
        let (queries, cluster, sels) = problem_fixture(105);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        // Query 0 entirely on host 0, query 1 entirely on host 1; host 1
        // dies — query 0's placement must survive unchanged.
        let incumbent = JointPlacement::new(
            cluster.len(),
            vec![
                Placement::new(vec![0; queries[0].len()]),
                Placement::new(vec![1; queries[1].len()]),
            ],
        );
        let dead: HashSet<HostId> = [1usize].into_iter().collect();
        let (repaired, touched) = repair_joint(&problem, &incumbent, &dead);
        assert!(touched);
        assert_eq!(repaired.query(0).assignment(), incumbent.query(0).assignment());
        assert!(repaired.query(1).assignment().iter().all(|&h| h != 1));
        let refs = problem.query_refs();
        assert!(repaired.is_valid(&refs, &cluster));
        // No dead hosts: the repair is the identity.
        let (same, untouched) = repair_joint(&problem, &incumbent, &HashSet::new());
        assert!(!untouched);
        assert_eq!(same.flattened(), incumbent.flattened());
    }
}
