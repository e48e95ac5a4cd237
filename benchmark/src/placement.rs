//! The search phase (`search_narrow` / `search_wide`): single-query
//! placement search, 3-query joint co-placement and re-planning after a
//! host loss, timed per decision, with every chosen plan checked and then
//! deployed through the simulator.
//!
//! A round is one pass: one decision of each kind per timed item, always
//! with the same seeds, so every later pass must choose what pass 0 chose
//! and does the same work doing so. What is reported per item is its fastest
//! pass (see [`stats::fastest_per_item`]), then the median or 95th
//! percentile over the items. Re-planning runs in the first
//! [`REPLAN_PASSES`] passes only: what it costs depends on the models the
//! seed trained more than on anything else (4 to 5.4 ms from seed to seed on
//! a quiet machine), so it is a per-layer reading, not an end-to-end one.

use crate::setup::{mix, Fixtures, JointItem, SearchKind, SingleItem};
use crate::stats::{self, Digest};
use crate::trace::{Span, Tracer};
use crate::Tally;
use costream::prelude::*;
use costream_dsps::simulate;
use costream_query::joint::JointPlacement;
use costream_query::operators::Query;
use costream_query::placement::Placement;
use std::time::Instant;

/// Passes that also re-plan: the first times it, the second shows it repeats.
const REPLAN_PASSES: usize = 2;

/// What one pass measured: ms per decision, one slot per item.
#[derive(Clone, Debug)]
pub struct SearchPass {
    pub traced: bool,
    pub single_ms: Vec<f64>,
    pub joint_ms: Vec<f64>,
    /// Empty after the first [`REPLAN_PASSES`] passes.
    pub replan_ms: Vec<f64>,
}

pub struct SearchOutcome {
    pub passes: Vec<SearchPass>,
    /// Decisions per pass: (single, joint, replan).
    pub per_pass: (usize, usize, usize),
    /// `SearchStats` summed over every single / joint search of every pass.
    pub single_stats: SearchStats,
    pub joint_stats: SearchStats,
    /// Geometric mean over the single items of simulated latency(`initial`)
    /// / simulated latency(`best`).
    pub sim_speedup: f64,
    /// Digest over every first choice: identical for identical seeds.
    pub digest: Digest,
}

/// Lower is better, viable before filtered: the program's ranking rule,
/// restated so the check does not depend on the code it checks.
fn ranks_below(viable: bool, key: f64, ref_viable: bool, ref_key: f64) -> bool {
    if viable != ref_viable {
        return ref_viable;
    }
    key > ref_key
}

fn stats_children(stats: &SearchStats) -> [(&'static str, &'static str, u64); 3] {
    [
        ("query", "neighborhood (from SearchStats)", stats.validity_ns),
        ("core", "featurize (from SearchStats)", stats.featurize_ns),
        ("core", "score (from SearchStats)", stats.score_ns),
    ]
}

pub struct Search<'a> {
    phase: &'static str,
    fx: &'a Fixtures,
    seed: u64,
    scorer: EnsembleScorer<'a>,
    /// Strategy structs stay at their shipped defaults (`threads: None`).
    single: LocalSearch,
    joint: Box<dyn JointPlacementSearch>,
    single_budget: usize,
    joint_budget: usize,
    /// First choice per single item: (`initial`, `best`).
    chosen: Vec<Option<(Placement, Placement)>>,
    incumbents: Vec<Option<JointPlacement>>,
    replanned: Vec<Option<Vec<usize>>>,
    next_id: u64,
    out: SearchOutcome,
}

impl SearchOutcome {
    /// Per single-query item, its fastest pass among those recorded with
    /// spans on (`traced`) or off, ms.
    pub fn single_fastest_ms(&self, traced: bool) -> Vec<f64> {
        stats::fastest_per_item(
            self.passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| &p.single_ms[..]),
        )
    }

    /// Per joint item, its fastest untraced pass, ms.
    pub fn joint_fastest_ms(&self) -> Vec<f64> {
        stats::fastest_per_item(self.passes.iter().filter(|p| !p.traced).map(|p| &p.joint_ms[..]))
    }

    /// Per joint item, its fastest re-plan (traced or not), ms.
    pub fn replan_fastest_ms(&self) -> Vec<f64> {
        stats::fastest_per_item(
            self.passes
                .iter()
                .filter(|p| !p.replan_ms.is_empty())
                .map(|p| &p.replan_ms[..]),
        )
    }
}

impl<'a> Search<'a> {
    pub fn new(kind: SearchKind, phase: &'static str, fx: &'a Fixtures, seed: u64) -> Self {
        let (single_budget, joint): (_, Box<dyn JointPlacementSearch>) = match kind {
            SearchKind::Narrow => (32, Box::new(LocalSearch::default())),
            SearchKind::Wide => (16, Box::new(BeamSearch::default())),
        };
        Search {
            phase,
            fx,
            seed,
            scorer: fx.models.scorer(),
            single: LocalSearch::default(),
            joint,
            single_budget,
            joint_budget: 16,
            chosen: vec![None; fx.search.singles.len()],
            incumbents: vec![None; fx.search.joints.len()],
            replanned: vec![None; fx.search.joints.len()],
            next_id: 0,
            out: SearchOutcome {
                passes: Vec::new(),
                per_pass: (fx.search.singles.len(), fx.search.joints.len(), fx.search.joints.len()),
                single_stats: SearchStats::default(),
                joint_stats: SearchStats::default(),
                sim_speedup: f64::NAN,
                digest: Digest::default(),
            },
        }
    }

    /// One single-query search, checked; returns its wall time, ms.
    fn search_single(&mut self, i: usize, tracer: &mut Tracer, tally: &mut Tally) -> f64 {
        let (phase, fx) = (self.phase, self.fx);
        let SingleItem { query, cluster, sels } = &fx.search.singles[i];
        let cluster = &fx.search.clusters[*cluster];
        let problem = SearchProblem {
            query,
            cluster,
            est_sels: sels,
            featurization: fx.models.target.featurization(),
        };
        let s = tracer.now();
        let t0 = Instant::now();
        let r = self.single.search(
            &problem,
            &self.scorer,
            self.single_budget,
            mix(self.seed, 400 + i as u64),
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let e = tracer.now();
        let id = self.next_id;
        self.next_id += 1;
        let span = tracer.push(Span {
            id,
            parent: None,
            phase,
            layer: "core",
            name: "PlacementSearch::search",
            start_ns: s,
            end_ns: e,
        });
        tracer.children_from_totals(phase, id, span, s, &stats_children(&r.stats));
        self.out.single_stats.absorb(&r.stats);

        let best = r.best_evaluation();
        let first = &r.candidates[0];
        let repeats = match &self.chosen[i] {
            None => {
                self.out.digest.slice(r.best.assignment());
                self.chosen[i] = Some((r.initial.clone(), r.best.clone()));
                true
            }
            Some((_, best0)) => best0 == &r.best,
        };
        let fault = if !r.best.is_valid(query, cluster) {
            Some("chose an invalid plan")
        } else if ranks_below(best.viable(), best.predicted_cost, first.viable(), first.predicted_cost) {
            Some("ranks below its seed")
        } else if !repeats {
            Some("differs from its first choice")
        } else {
            None
        };
        tally.op(fault.map(|f| format!("{phase}: single item {i}: {f}")));
        ms
    }

    /// One joint search of joint item `j`, checked; returns its wall time, ms.
    fn search_joint(&mut self, j: usize, tracer: &mut Tracer, tally: &mut Tally) -> f64 {
        let (phase, fx) = (self.phase, self.fx);
        let JointItem { queries, cluster, sels } = &fx.search.joints[j];
        let cluster = &fx.search.clusters[*cluster];
        let jqs = JointQuery::zip(queries, sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster,
            featurization: fx.models.target.featurization(),
            interference: Some(&fx.models.interference),
        };
        let refs: Vec<&Query> = queries.iter().collect();

        let s = tracer.now();
        let t0 = Instant::now();
        let r = self.joint.search_joint(
            &problem,
            &self.scorer,
            self.joint_budget,
            mix(self.seed, 500 + j as u64),
        );
        let joint_ms = t0.elapsed().as_secs_f64() * 1e3;
        let e = tracer.now();
        let id = self.next_id;
        self.next_id += 1;
        let span = tracer.push(Span {
            id,
            parent: None,
            phase,
            layer: "core",
            name: "JointPlacementSearch::search_joint",
            start_ns: s,
            end_ns: e,
        });
        tracer.children_from_totals(phase, id, span, s, &stats_children(&r.stats));
        self.out.joint_stats.absorb(&r.stats);

        let best = r.best_evaluation();
        let first = &r.candidates[0];
        let repeats = match &self.incumbents[j] {
            None => {
                self.out.digest.slice(&r.best.flattened());
                self.incumbents[j] = Some(r.best.clone());
                true
            }
            Some(best0) => best0.flattened() == r.best.flattened(),
        };
        let fault = if !r.best.is_valid(&refs, cluster) {
            Some("chose an invalid plan")
        } else if ranks_below(
            best.all_viable(),
            best.total_cost(),
            first.all_viable(),
            first.total_cost(),
        ) {
            Some("ranks below its seed")
        } else if !repeats {
            Some("differs from its first choice")
        } else {
            None
        };
        tally.op(fault.map(|f| format!("{phase}: joint item {j}: {f}")));
        joint_ms
    }

    /// One re-plan of joint item `j` after losing its incumbent's busiest
    /// host, checked; returns its wall time, ms.
    fn replan_joint(&mut self, j: usize, tracer: &mut Tracer, tally: &mut Tally) -> f64 {
        let (phase, fx) = (self.phase, self.fx);
        let JointItem { queries, cluster, sels } = &fx.search.joints[j];
        let cluster = &fx.search.clusters[*cluster];
        let jqs = JointQuery::zip(queries, sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster,
            featurization: fx.models.target.featurization(),
            interference: Some(&fx.models.interference),
        };
        let refs: Vec<&Query> = queries.iter().collect();
        let incumbent = self.incumbents[j]
            .as_ref()
            .expect("the joint search of this pass set it");
        let dead = busiest_host(incumbent);
        let cfg = ReplanConfig::default();
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let (o, _) = tracer.timed(phase, "core", "joint::replan", id, None, || {
            replan(
                &problem,
                &self.scorer,
                incumbent,
                &[dead],
                &cfg,
                mix(self.seed, 600 + j as u64),
            )
        });
        let replan_ms = t0.elapsed().as_secs_f64() * 1e3;
        let fault = match o {
            Err(_) => Some("returned an error"),
            Ok(o) => {
                let flat = o.plan.flattened();
                let repeats = match &self.replanned[j] {
                    None => {
                        self.out.digest.slice(&flat);
                        self.replanned[j] = Some(flat);
                        true
                    }
                    Some(flat0) => flat0 == &flat,
                };
                // With a dead host the baseline is the *repaired*
                // incumbent, whose own migration charge the outcome does
                // not return; the viability half of the never-worse rule
                // is what can be checked from here.
                if !o.plan.is_valid(&refs, cluster) {
                    Some("chose an invalid plan")
                } else if o.plan.occupancy()[dead] != 0 {
                    Some("kept operators on the dead host")
                } else if (o.incumbent_viable && !o.viable) || !o.steady_cost.is_finite() {
                    Some("ranks below the repaired incumbent")
                } else if !repeats {
                    Some("differs from its first choice")
                } else {
                    None
                }
            }
        };
        tally.op(fault.map(|f| format!("{phase}: replan item {j}: {f}")));
        replan_ms
    }

    /// One pass over the timed items.
    pub fn round(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        let single_ms = (0..self.fx.search.singles.len())
            .map(|i| self.search_single(i, tracer, tally))
            .collect();
        let joints = 0..self.fx.search.joints.len();
        let joint_ms = joints.clone().map(|j| self.search_joint(j, tracer, tally)).collect();
        let replan_ms = if self.out.passes.len() < REPLAN_PASSES {
            joints.map(|j| self.replan_joint(j, tracer, tally)).collect()
        } else {
            Vec::new()
        };
        self.out.passes.push(SearchPass {
            traced: tracer.on(),
            single_ms,
            joint_ms,
            replan_ms,
        });
    }

    /// Ground truth: deploy every chosen single-query plan and its heuristic
    /// seed through the simulator.
    pub fn finish(mut self, tracer: &mut Tracer, tally: &mut Tally) -> SearchOutcome {
        let (phase, fx) = (self.phase, self.fx);
        let mut log_ratio_sum = 0.0;
        for (i, (item, plans)) in fx.search.singles.iter().zip(&self.chosen).enumerate() {
            let (initial, best) = plans.as_ref().expect("every single item was searched");
            let sim = SimConfig::deterministic().with_seed(mix(self.seed, 700 + i as u64));
            let cluster = &fx.search.clusters[item.cluster];
            let mut deployed = |p: &Placement| {
                let id = self.next_id;
                self.next_id += 1;
                let (r, _) = tracer.timed(phase, "dsps", "simulate", id, None, || {
                    simulate(&item.query, cluster, p, &sim)
                });
                // A failed run is charged the whole simulated duration.
                if r.metrics.success {
                    r.metrics.processing_latency_ms
                } else {
                    sim.duration_s * 1e3
                }
            };
            let (l0, l1) = (deployed(initial), deployed(best));
            let positive = l0.is_finite() && l1.is_finite() && l0 > 0.0 && l1 > 0.0;
            tally.op((!positive).then(|| format!("{phase}: simulated latency of item {i} is not a positive number")));
            log_ratio_sum += (l0 / l1).ln();
        }
        self.out.sim_speedup = (log_ratio_sum / fx.search.singles.len() as f64).exp();
        self.out.digest.f64(self.out.sim_speedup);
        self.out
    }
}

/// The host carrying most operators (lowest id on ties).
fn busiest_host(jp: &JointPlacement) -> usize {
    let occ = jp.occupancy();
    (0..occ.len())
        .max_by_key(|&h| (occ[h], std::cmp::Reverse(h)))
        .expect("cluster has hosts")
}
