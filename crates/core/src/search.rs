//! Pluggable placement search (§V, Figs. 4–5).
//!
//! The seed-era optimizer had exactly one strategy baked in: sample `k`
//! random valid placements, featurize each from scratch, score once, pick
//! the best. This module splits that monolith into swappable parts:
//!
//! * a [`Scorer`] — the backend that turns candidate [`JointGraph`]s into
//!   predicted cost / success / backpressure triples. [`EnsembleScorer`]
//!   runs the three ensembles' fused views over one shared plan per
//!   chunk, in-process; `costream-serve` provides a `ScoreClient`-backed
//!   implementation so *concurrent* optimizer runs coalesce their
//!   candidate batches through the serving layer;
//! * a [`PlacementSearch`] strategy — how the placement space is explored
//!   under a fixed scoring budget. [`RandomEnumeration`] is the paper's
//!   baseline (and the seed behavior, bit for bit); [`BeamSearch`],
//!   [`LocalSearch`] and [`SimulatedAnnealing`] walk the move/swap
//!   neighborhood of `costream_query::placement::neighborhood` with
//!   incremental validity checks;
//! * one search core, in [`crate::joint`]: each strategy is implemented
//!   once, over N queries sharing a cluster, and placing a single query is
//!   the N = 1 case — every [`PlacementSearch`] impl here is a few-line
//!   adapter onto it. The core's evaluator does the shared bookkeeping:
//!   budget accounting, duplicate suppression, delta re-featurization
//!   through a [`GraphTemplate`](crate::graph::GraphTemplate) (operator
//!   features are computed once per search, not once per candidate), and
//!   the Fig. 4 sanity-filter selection rule.
//!
//! Every strategy is deterministic for fixed inputs and seed, independent
//! of how the scorer batches its requests: candidate generation order is
//! fixed, all randomness flows through seeded `StdRng` streams, and the
//! prediction kernels are batch-composition invariant (a guarantee the
//! serving layer's golden tests pin down). Deciding *which* candidates to
//! score runs on the caller's thread: a 512-host neighbourhood enumerates
//! in tens of microseconds and a candidate featurizes in under one, so no
//! hand-off to a worker can pay for itself.

use crate::ensemble::Ensemble;
use crate::graph::{Featurization, JointGraph};
use crate::joint::{JointPlacementSearch, JointQuery, JointSearchProblem};
use crate::model::{map_spans, INFERENCE_CHUNK};
use crate::optimizer::{CandidateEvaluation, OptimizationResult};
use crate::plan::BatchPlan;
use costream_dsps::CostMetric;
use costream_nn::InferenceArena;
use costream_query::hardware::Cluster;
use costream_query::joint::JointPlacement;
use costream_query::operators::Query;
use std::sync::{Mutex, MutexGuard};

/// Profiling counters of one search run, threaded through every strategy
/// (single-query and joint) and exposed on
/// [`OptimizationResult::stats`](crate::optimizer::OptimizationResult) /
/// [`JointOptimizationResult`](crate::joint::JointOptimizationResult).
/// Where search wall time goes at wide cluster widths: move generation
/// (`validity_ns`), delta featurization (`featurize_ns`) or model
/// inference (`score_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Valid neighborhood moves generated across all rounds.
    pub moves_generated: u64,
    /// Candidate moves rejected by the incremental validity checks.
    pub moves_rejected: u64,
    /// Candidates actually scored (= budget spent).
    pub candidates_scored: u64,
    /// Scoring batches issued to the scorer backend.
    pub score_batches: u64,
    /// Largest scoring batch.
    pub max_batch: u64,
    /// Nanoseconds spent generating + validity-checking moves.
    pub validity_ns: u64,
    /// Nanoseconds spent featurizing candidates (template instantiation).
    pub featurize_ns: u64,
    /// Nanoseconds spent in the scorer backend.
    pub score_ns: u64,
    /// Threads the run decided on: always 1, the caller's (kept for the
    /// readers of this struct; the scorer backend may still fan out).
    pub threads: u64,
}

impl SearchStats {
    /// Total candidate moves judged by the incremental validity rules
    /// (a host class's one check judges all its hosts) — the throughput
    /// unit of the wide-cluster search benches (candidates/s = moves
    /// judged over wall time).
    pub fn validity_checks(&self) -> u64 {
        self.moves_generated + self.moves_rejected
    }

    /// Folds another run's counters into this one (used by the joint
    /// evaluator to combine per-query enumeration stats).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.moves_generated += other.moves_generated;
        self.moves_rejected += other.moves_rejected;
        self.candidates_scored += other.candidates_scored;
        self.score_batches += other.score_batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.validity_ns += other.validity_ns;
        self.featurize_ns += other.featurize_ns;
        self.score_ns += other.score_ns;
        self.threads = self.threads.max(other.threads);
    }
}

/// Predicted scores of one placement candidate, as produced by a
/// [`Scorer`] backend.
#[derive(Clone, Copy, Debug)]
pub struct PlacementScores {
    /// Predicted target-metric value (the quantity being optimized).
    pub cost: f64,
    /// Majority-vote probability that the query executes successfully.
    pub success: f64,
    /// Majority-vote probability that the query is backpressured.
    pub backpressure: f64,
}

impl PlacementScores {
    /// The Fig. 4 sanity filter: a candidate is viable when it is
    /// predicted to succeed and not to be backpressured.
    pub fn viable(&self) -> bool {
        self.success >= 0.5 && self.backpressure < 0.5
    }
}

/// A batch scoring backend for placement candidates.
///
/// Implementations must be deterministic per graph and independent of how
/// candidates are grouped into batches, so search results do not depend
/// on batch composition (the ensembles' kernels guarantee this; a remote
/// scorer must preserve it).
pub trait Scorer: Sync {
    /// The regression metric the cost predictions refer to (minimized,
    /// or maximized for [`CostMetric::Throughput`]).
    fn target_metric(&self) -> CostMetric;

    /// Scores a batch of candidate graphs, one result per graph in order.
    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores>;
}

/// The direct scoring backend: the three ensembles in-process, on the
/// member-fused production path ([`Ensemble::fused`]). A candidate batch
/// is lowered to its chunk [`BatchPlan`]s **once**; all three fused views
/// run over those plans on an arena kept warm across batches, and a batch
/// of one chunk spawns no thread. Bitwise, the scores are those of three
/// [`Ensemble::predict_graphs`] calls.
pub struct EnsembleScorer<'a> {
    /// Target, success and backpressure ensembles, in that order.
    trio: [&'a Ensemble; 3],
    /// Warm arenas, one per caller ever inside `score_batch` at once;
    /// locked to pop or push one, never across a forward pass.
    arenas: Mutex<Vec<InferenceArena>>,
}

impl<'a> EnsembleScorer<'a> {
    /// Creates a scorer from the three required ensembles: target metric
    /// plus the query-success and backpressure sanity models.
    ///
    /// # Panics
    /// Panics if the ensembles' metrics do not match their roles, or if
    /// they differ in featurization, message-passing scheme or round
    /// count: one graph set and one plan per chunk serve all three.
    pub fn new(target: &'a Ensemble, success: &'a Ensemble, backpressure: &'a Ensemble) -> Self {
        assert!(target.metric.is_regression(), "target must be a regression metric");
        assert_eq!(success.metric, CostMetric::Success);
        assert_eq!(backpressure.metric, CostMetric::Backpressure);
        let trio = [target, success, backpressure];
        let plan_key = |e: &Ensemble| {
            let cfg = e.model_config();
            (e.featurization(), cfg.scheme, cfg.traditional_rounds)
        };
        assert!(
            trio.iter().all(|e| plan_key(e) == plan_key(target)),
            "the ensembles are not congruent (featurization, scheme, rounds)"
        );
        EnsembleScorer {
            trio,
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// The target ensemble (exposed for featurization queries).
    pub fn target(&self) -> &Ensemble {
        self.trio[0]
    }

    fn arenas(&self) -> MutexGuard<'_, Vec<InferenceArena>> {
        self.arenas.lock().expect("callers only pop or push under this lock")
    }
}

impl Scorer for EnsembleScorer<'_> {
    fn target_metric(&self) -> CostMetric {
        self.trio[0].metric
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        let cfg = self.trio[0].model_config();
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        map_spans(&refs, |span| {
            let mut arena = self.arenas().pop().unwrap_or_default();
            let plans: Vec<BatchPlan> = span
                .chunks(INFERENCE_CHUNK)
                .map(|c| BatchPlan::build(c, cfg.scheme, cfg.traditional_rounds))
                .collect();
            let [cost, success, backpressure] = self.trio.map(|e| e.fused().predict_plans_arena(&plans, &mut arena));
            self.arenas().push(arena);
            (0..span.len())
                .map(|i| PlacementScores {
                    cost: cost[i],
                    success: success[i],
                    backpressure: backpressure[i],
                })
                .collect()
        })
    }
}

/// One placement-optimization problem instance.
#[derive(Clone, Copy, Debug)]
pub struct SearchProblem<'a> {
    /// The streaming query.
    pub query: &'a Query,
    /// The hardware it will run on.
    pub cluster: &'a Cluster,
    /// Estimated selectivity per operator (§IV-B: the model never sees
    /// true selectivities).
    pub est_sels: &'a [f64],
    /// Featurization of the candidate graphs (the scorer's models must
    /// have been trained with the same one).
    pub featurization: Featurization,
}

/// A search strategy over the placement space.
///
/// `budget` bounds the number of candidates *scored* (the unit the
/// strategies are compared at — scoring dominates search cost); every
/// strategy returns the best candidate it scored, so more budget can
/// never make the predicted outcome worse.
pub trait PlacementSearch: Sync {
    /// Strategy name for logs and benchmarks.
    fn name(&self) -> &'static str;

    /// Runs the search, scoring at most `budget.max(1)` candidates
    /// through `scorer`. Deterministic for fixed inputs and seed.
    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult;
}

/// The single-query adapter: a [`SearchProblem`] *is* the one-query
/// [`JointSearchProblem`] — no co-resident exists, so no host row is ever
/// degraded and `interference` has nothing to price — and every
/// [`PlacementSearch`] impl below runs its strategy's one implementation
/// ([`crate::joint`]) on it, then unwraps query 0 of every candidate.
/// `core/tests/search_digest.rs` holds the adapter to the joint run at
/// N = 1: same candidates, same order, same bits, same counters.
fn search_one_query(
    strategy: &impl JointPlacementSearch,
    problem: &SearchProblem<'_>,
    scorer: &dyn Scorer,
    budget: usize,
    seed: u64,
) -> OptimizationResult {
    let queries = [JointQuery {
        query: problem.query,
        est_sels: problem.est_sels,
    }];
    let joint = JointSearchProblem {
        queries: &queries,
        cluster: problem.cluster,
        featurization: problem.featurization,
        interference: None,
    };
    let r = strategy.search_joint(&joint, scorer, budget, seed);
    let only = |jp: JointPlacement| jp.into_placements().pop().expect("one query, one placement");
    OptimizationResult {
        best: only(r.best),
        initial: only(r.initial),
        candidates: r
            .candidates
            .into_iter()
            .map(|c| CandidateEvaluation {
                placement: only(c.placement),
                predicted_cost: c.per_query[0].cost,
                predicted_success: c.per_query[0].success,
                predicted_backpressure: c.per_query[0].backpressure,
            })
            .collect(),
        all_filtered: r.all_filtered,
        stats: r.stats,
    }
}

/// Ranking and acceptance primitives of the search core in
/// [`crate::joint`]: the Fig. 4 selection semantics, the exploration
/// split and the annealing acceptance rule, as pure functions of
/// `(viable, signed key)` pairs.
pub(crate) mod ranking {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strict "candidate `a` beats candidate `b`": viable candidates
    /// rank before filtered ones, then by signed cost key (lower is
    /// better). Ties are *not* better, so a first-encountered candidate
    /// wins them — deterministic because candidate generation order is.
    pub(crate) fn better(va: bool, ka: f64, vb: bool, kb: f64) -> bool {
        if va != vb {
            return va;
        }
        ka < kb
    }

    /// Sorts candidate indices best-first (viable before filtered, then
    /// signed key, then earlier-scored wins ties) and keeps the best
    /// `k.max(1)`.
    pub(crate) fn top_of(
        mut indices: Vec<usize>,
        k: usize,
        viable: impl Fn(usize) -> bool,
        key: impl Fn(usize) -> f64,
    ) -> Vec<usize> {
        indices.sort_by(|&a, &b| {
            viable(b)
                .cmp(&viable(a))
                .then(key(a).total_cmp(&key(b)))
                .then(a.cmp(&b))
        });
        indices.truncate(k.max(1));
        indices
    }

    /// Number of exploration seeds an explore-then-refine strategy
    /// spends: `share` of `budget`, floored at `floor` (strategy-specific
    /// minimum, e.g. the beam width) and capped so at least one
    /// refinement candidate remains.
    pub(crate) fn seed_count(budget: usize, share: f64, floor: usize) -> usize {
        ((budget as f64 * share.clamp(0.0, 1.0)) as usize)
            .max(floor)
            .min(budget.saturating_sub(1).max(1))
    }

    /// The annealing move rule: improvements
    /// under [`better`] always move; worsenings move with the Metropolis
    /// probability on the relative cost delta, shifted by a fixed
    /// penalty when the move leaves the Fig. 4-viable region. (A move
    /// *into* the viable region is always an improvement under
    /// [`better`], so no symmetric bonus exists.) `cur` and `cand` are
    /// `(viable, signed cost key)` pairs.
    pub(crate) fn anneal_accepts(cur: (bool, f64), cand: (bool, f64), temp: f64, rng: &mut StdRng) -> bool {
        if better(cand.0, cand.1, cur.0, cur.1) {
            return true;
        }
        let dk = cand.1 - cur.1;
        let scale = cur.1.abs().max(1e-9);
        let class = if cur.0 && !cand.0 { 1.0 } else { 0.0 };
        let delta = (dk / scale + class).max(0.0);
        rng.gen::<f64>() < (-delta / temp.max(1e-6)).exp()
    }
}

/// The paper's baseline strategy (and the seed-era `optimize()` behavior):
/// enumerate `budget` distinct random valid placements under the Fig. 5
/// rules, score them all once, pick the best.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomEnumeration;

impl PlacementSearch for RandomEnumeration {
    fn name(&self) -> &'static str {
        "random"
    }

    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult {
        search_one_query(self, problem, scorer, budget, seed)
    }
}

/// Beam search over the move/swap neighborhood: spend `seed_share` of the
/// budget on random-valid exploration (the same stream the baseline
/// enumerates), then keep the `width` best candidates found and expand
/// each by up to `expand` unseen neighbors per round, re-rank, repeat
/// until the scoring budget is spent or the frontier dries up. The
/// explore-then-refine split is what keeps beam competitive with pure
/// enumeration on wide landscapes while still exploiting local structure.
#[derive(Clone, Copy, Debug)]
pub struct BeamSearch {
    /// Candidates kept per round.
    pub width: usize,
    /// Neighbors expanded per beam member per round.
    pub expand: usize,
    /// Fraction of the budget spent seeding the beam with random valid
    /// placements before refinement (clamped to keep at least `width`
    /// seeds and at least one refinement round).
    pub seed_share: f64,
}

impl Default for BeamSearch {
    fn default() -> Self {
        BeamSearch {
            width: 4,
            expand: 8,
            seed_share: 0.5,
        }
    }
}

impl PlacementSearch for BeamSearch {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult {
        search_one_query(self, problem, scorer, budget, seed)
    }
}

/// Hill climbing with restarts: spend `seed_share` of the budget on a
/// random-valid exploration pool (the same stream the baseline
/// enumerates), then greedily follow the best improving neighbor of the
/// best pool member (scoring `sample_size` unseen neighbors per round);
/// at a local optimum, restart from the best not-yet-expanded pool
/// member, falling back to fresh random placements when the pool is
/// exhausted. The best candidate *ever* scored is returned, so restarts
/// never lose progress.
#[derive(Clone, Copy, Debug)]
pub struct LocalSearch {
    /// Neighbors scored per hill-climbing round.
    pub sample_size: usize,
    /// Fraction of the budget spent on the exploration pool (clamped to
    /// keep at least one seed and at least one refinement round).
    pub seed_share: f64,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            sample_size: 8,
            seed_share: 0.5,
        }
    }
}

impl PlacementSearch for LocalSearch {
    fn name(&self) -> &'static str {
        "local"
    }

    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult {
        search_one_query(self, problem, scorer, budget, seed)
    }
}

/// Simulated annealing: a single chain that always accepts improving
/// neighbors and accepts *worsening* ones with probability
/// `exp(-delta / T)` under a geometrically cooling temperature `T` —
/// early on the walk crosses cost barriers hill climbing cannot, late it
/// behaves greedily. `delta` is the relative cost worsening (scale-free:
/// normalized by the current candidate's cost magnitude), shifted by a
/// fixed penalty when the move leaves the Fig. 4-viable region (moves
/// *into* it always count as improvements). The best candidate *ever*
/// scored is returned (via the shared evaluator), so accepting bad moves
/// never loses progress. Worth trying over [`LocalSearch`] on wide
/// clusters whose plateaus stall greedy climbing.
#[derive(Clone, Copy, Debug)]
pub struct SimulatedAnnealing {
    /// Starting temperature, in units of relative cost worsening (0.4
    /// means an initial ~37% chance of accepting a 40% cost increase).
    pub initial_temp: f64,
    /// Geometric cooling factor applied per scored neighbor.
    pub cooling: f64,
    /// Fraction of the budget spent seeding the chain with random valid
    /// placements from the baseline's exact stream (clamped to keep at
    /// least one seed and at least one annealing step).
    pub seed_share: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temp: 0.4,
            cooling: 0.9,
            seed_share: 0.25,
        }
    }
}

impl PlacementSearch for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult {
        search_one_query(self, problem, scorer, budget, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Scheme, INFERENCE_CHUNK};
    use crate::test_fixtures;
    use crate::train::TrainConfig;
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;
    use costream_query::selectivity::SelectivityEstimator;

    #[test]
    fn strategies_respect_budget_and_return_valid_best() {
        let corpus = test_fixtures::corpus(80, 51);
        let fx = test_fixtures::trio(&corpus, 4, 2);
        let scorer = fx.scorer();
        let (q, c, sels) = test_fixtures::workload(52, 5);
        let problem = SearchProblem {
            query: &q,
            cluster: &c,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        let budget = 24;
        for strategy in [
            &RandomEnumeration as &dyn PlacementSearch,
            &BeamSearch::default(),
            &LocalSearch::default(),
            &SimulatedAnnealing::default(),
        ] {
            let r = strategy.search(&problem, &scorer, budget, 9);
            assert!(r.candidates.len() <= budget, "{} overspent", strategy.name());
            assert!(!r.candidates.is_empty());
            assert!(r.best.is_valid(&q, &c), "{} best invalid", strategy.name());
            assert!(r.initial.is_valid(&q, &c));
            // No duplicate candidate may be scored twice.
            let mut seen = std::collections::HashSet::new();
            for e in &r.candidates {
                assert!(
                    seen.insert(e.placement.assignment().to_vec()),
                    "{} rescored",
                    strategy.name()
                );
            }
            // The reported best is the best scored candidate.
            let viable: Vec<_> = r.candidates.iter().filter(|e| e.viable()).collect();
            let pool: Vec<_> = if viable.is_empty() {
                r.candidates.iter().collect()
            } else {
                viable
            };
            let best_cost = pool.iter().map(|e| e.predicted_cost).fold(f64::INFINITY, f64::min);
            assert_eq!(r.best_evaluation().predicted_cost, best_cost, "{}", strategy.name());
        }
    }

    #[test]
    fn searches_are_deterministic_across_runs() {
        let corpus = test_fixtures::corpus(60, 54);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (q, c, sels) = test_fixtures::workload(55, 4);
        let problem = SearchProblem {
            query: &q,
            cluster: &c,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        for strategy in [
            &RandomEnumeration as &dyn PlacementSearch,
            &BeamSearch::default(),
            &LocalSearch::default(),
            &SimulatedAnnealing::default(),
        ] {
            let a = strategy.search(&problem, &scorer, 16, 3);
            let bb = strategy.search(&problem, &scorer, 16, 3);
            assert_eq!(a.best.assignment(), bb.best.assignment(), "{}", strategy.name());
            assert_eq!(a.candidates.len(), bb.candidates.len());
            for (x, y) in a.candidates.iter().zip(&bb.candidates) {
                assert_eq!(x.placement.assignment(), y.placement.assignment());
                assert_eq!(
                    x.predicted_cost.to_bits(),
                    y.predicted_cost.to_bits(),
                    "{}",
                    strategy.name()
                );
            }
        }
    }

    /// A 2-member trio trained just enough to have weights (the bitwise
    /// tests below do not care what they are).
    fn trio_for(scheme: Scheme, featurization: Featurization) -> test_fixtures::Trio {
        let corpus = test_fixtures::corpus(24, 61);
        let mut cfg = TrainConfig {
            epochs: 1,
            featurization,
            ..Default::default()
        };
        cfg.model.scheme = scheme;
        let train = |metric| Ensemble::train(&corpus, metric, &cfg, 2);
        test_fixtures::Trio {
            target: train(CostMetric::ProcessingLatency),
            success: train(CostMetric::Success),
            backpressure: train(CostMetric::Backpressure),
        }
    }

    fn sample_graphs(n: usize, seed: u64, featurization: Featurization) -> Vec<JointGraph> {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let mut e = SelectivityEstimator::realistic(seed.wrapping_add(1));
        (0..n)
            .map(|_| {
                let (q, c, p) = g.workload_item();
                JointGraph::build(&q, &c, &p, &e.estimate_query(&q), featurization)
            })
            .collect()
    }

    /// The sequential reference path: per ensemble, member after member
    /// over plans chunked at the default width.
    fn oracle(fx: &test_fixtures::Trio, graphs: &[JointGraph]) -> Vec<[u64; 3]> {
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let per: Vec<Vec<f64>> = [&fx.target, &fx.success, &fx.backpressure]
            .iter()
            .map(|e| {
                let plans: Vec<BatchPlan> = refs
                    .chunks(INFERENCE_CHUNK)
                    .map(|c| e.members()[0].model().plan(c))
                    .collect();
                e.predict_plans_arena(&plans, &mut InferenceArena::new())
            })
            .collect();
        (0..graphs.len())
            .map(|i| [per[0][i].to_bits(), per[1][i].to_bits(), per[2][i].to_bits()])
            .collect()
    }

    fn bits(scores: &[PlacementScores]) -> Vec<[u64; 3]> {
        scores
            .iter()
            .map(|s| [s.cost.to_bits(), s.success.to_bits(), s.backpressure.to_bits()])
            .collect()
    }

    #[test]
    fn score_batch_and_predict_graphs_match_the_sequential_oracle_bitwise() {
        for scheme in [Scheme::Costream, Scheme::Traditional] {
            for featurization in [
                Featurization::QueryOnly,
                Featurization::HardwareNodes,
                Featurization::Full,
            ] {
                let fx = trio_for(scheme, featurization);
                let scorer = fx.scorer();
                let graphs = sample_graphs(130, 62, featurization);
                // 1 and 7 sit inside a chunk, 64 fills one, 65 and 130
                // cross one and two chunk boundaries.
                for n in [1, 7, 64, 65, 130] {
                    let ctx = format!("{scheme:?} {featurization:?} n={n}");
                    let want = oracle(&fx, &graphs[..n]);
                    assert_eq!(
                        bits(&scorer.score_batch(graphs[..n].to_vec())),
                        want,
                        "score_batch {ctx}"
                    );
                    let refs: Vec<&JointGraph> = graphs[..n].iter().collect();
                    for (col, e) in [&fx.target, &fx.success, &fx.backpressure].into_iter().enumerate() {
                        let got: Vec<u64> = e.predict_graphs(&refs).iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> = want.iter().map(|w| w[col]).collect();
                        assert_eq!(got, want, "predict_graphs {:?} {ctx}", e.metric);
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_batches_reuse_one_warm_arena() {
        let fx = trio_for(Scheme::Costream, Featurization::Full);
        let scorer = fx.scorer();
        let batch = sample_graphs(10, 63, Featurization::Full);
        let pooled =
            |s: &EnsembleScorer<'_>| -> Vec<usize> { s.arenas().iter().map(InferenceArena::pooled_floats).collect() };
        scorer.score_batch(batch.clone());
        let warm = pooled(&scorer);
        assert_eq!(warm.len(), 1, "one caller, one arena");
        assert!(warm[0] > 0);
        for _ in 0..5 {
            scorer.score_batch(batch.clone());
            assert_eq!(pooled(&scorer), warm, "a same-shape batch must not grow the arena");
        }
    }

    #[test]
    fn concurrent_callers_of_one_scorer_get_the_serial_scores() {
        const CALLERS: usize = 4;
        let fx = trio_for(Scheme::Costream, Featurization::Full);
        let scorer = fx.scorer();
        let batches: Vec<Vec<JointGraph>> = (0..CALLERS)
            .map(|i| sample_graphs(5 + 3 * i, 64 + i as u64, Featurization::Full))
            .collect();
        let serial: Vec<_> = batches.iter().map(|b| bits(&scorer.score_batch(b.clone()))).collect();
        // The barrier puts all four callers inside `score_batch` at once.
        let start = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|s| {
            for (batch, want) in batches.iter().zip(&serial) {
                let (scorer, start) = (&scorer, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..8 {
                        assert_eq!(&bits(&scorer.score_batch(batch.clone())), want);
                    }
                });
            }
        });
        let kept = scorer.arenas().len();
        assert!(
            (1..=CALLERS).contains(&kept),
            "{kept} arenas kept for {CALLERS} callers"
        );
    }

    #[test]
    #[should_panic(expected = "not congruent")]
    fn incongruent_trio_is_rejected() {
        let fx = trio_for(Scheme::Costream, Featurization::Full);
        let other = trio_for(Scheme::Traditional, Featurization::Full);
        let _ = EnsembleScorer::new(&fx.target, &other.success, &fx.backpressure);
    }
}
