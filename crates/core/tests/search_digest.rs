//! Bitwise pin of the search contract.
//!
//! What a search scores, in which order, and what it returns are a
//! constant of the repository for fixed inputs and seed: how candidates are
//! found (which hosts get a validity check of their own, how a random valid
//! placement is drawn, how many neighbourhoods a round enumerates) may
//! change, the stream may not. Each case below folds every scored
//! candidate — assignment and the three predicted bit patterns, in scoring
//! order — and the chosen plan into an FNV-1a digest. The values were
//! recorded on the per-host enumeration and the filter-and-`choose` sampler
//! that preceded host equivalence classes; a change that moves one means
//! some search now walks differently. One implementation serves all three
//! callers pinned here — single-query search is the joint search at one
//! query, `replan` ranks through the same evaluator — and
//! `single_query_search_is_the_joint_search_at_one_query` holds the
//! single-query adapter to the one-query joint run.
//!
//! The scores come from a trained trio, so the digests belong to the
//! `avx2+fma` kernel tier, like `train_digest.rs`.

use costream::prelude::*;
use costream::test_fixtures;
use costream_query::hardware::Cluster;
use costream_query::joint::JointPlacement;
use std::sync::LazyLock;

static TRIO: LazyLock<test_fixtures::Trio> = LazyLock::new(|| {
    let corpus = test_fixtures::corpus(80, 71);
    test_fixtures::trio(&corpus, 3, 2)
});

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hosts(&mut self, assignment: &[usize]) {
        self.u64(assignment.len() as u64);
        for &h in assignment {
            self.u64(h as u64);
        }
    }

    fn scores(&mut self, s: &PlacementScores) {
        self.u64(s.cost.to_bits());
        self.u64(s.success.to_bits());
        self.u64(s.backpressure.to_bits());
    }
}

fn digest_single(r: &OptimizationResult) -> u64 {
    let mut h = Fnv::new();
    for c in &r.candidates {
        h.hosts(c.placement.assignment());
        h.scores(&c.scores());
    }
    h.hosts(r.best.assignment());
    h.0
}

fn digest_joint(r: &JointOptimizationResult) -> u64 {
    let mut h = Fnv::new();
    for c in &r.candidates {
        h.hosts(&c.placement.flattened());
        c.per_query.iter().for_each(|s| h.scores(s));
    }
    h.hosts(&r.best.flattened());
    h.0
}

fn single_strategies() -> [(&'static str, Box<dyn PlacementSearch>); 4] {
    [
        ("random", Box::new(RandomEnumeration)),
        ("beam", Box::new(BeamSearch)),
        ("local", Box::new(LocalSearch)),
        ("anneal", Box::new(SimulatedAnnealing)),
    ]
}

fn joint_strategies() -> [(&'static str, Box<dyn JointPlacementSearch>); 4] {
    [
        ("random", Box::new(RandomEnumeration)),
        ("beam", Box::new(BeamSearch)),
        ("local", Box::new(LocalSearch)),
        ("anneal", Box::new(SimulatedAnnealing)),
    ]
}

/// Holds every `(case, digest)` to the recorded table and reports all the
/// moved ones at once, with their new values.
fn assert_pinned(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    if costream_nn::kernel_tier() != "avx2+fma" {
        eprintln!("skipped: digests are recorded for the avx2+fma kernel tier");
        return;
    }
    let moved: Vec<String> = got
        .iter()
        .filter(|(case, d)| !pinned.iter().any(|(c, p)| c == case && p == d))
        .map(|(case, d)| format!("(\"{case}\", {d:#018x}),"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == pinned.len(),
        "search streams moved (or cases changed):\n{}",
        moved.join("\n")
    );
}

#[test]
fn single_query_streams_are_pinned() {
    let scorer = TRIO.scorer();
    let (q, narrow, sels) = test_fixtures::workload(311, 8);
    let wide = test_fixtures::wide_cluster(256);
    let mut got = Vec::new();
    // Budget 16 ends a default beam's first round after one member (8 seeds,
    // 8 expansions); budget 64 spends whole rounds only (32 seeds, 4 × 8).
    for (cluster, label, budgets) in [(&narrow, "8h", [16usize, 64]), (&wide, "256h", [16, 64])] {
        let problem = SearchProblem {
            query: &q,
            cluster,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        for (name, strategy) in single_strategies() {
            for budget in budgets {
                // The other strategies have no round structure to vary.
                if budget == 64 && name != "beam" {
                    continue;
                }
                let r = strategy.search(&problem, &scorer, budget, 23);
                got.push((format!("{name}/{label}/b{budget}"), digest_single(&r)));
            }
        }
    }
    assert_pinned(
        &got,
        &[
            ("random/8h/b16", 0x978213ea526b49d7),
            ("beam/8h/b16", 0x38820665f4906a81),
            ("beam/8h/b64", 0xbf39e9b9102ddfa0),
            ("local/8h/b16", 0x36cd6a8601418f99),
            ("anneal/8h/b16", 0xde8c3749f178a8ae),
            ("random/256h/b16", 0x8adb21fb2ef550af),
            ("beam/256h/b16", 0x3a18cc6a04754493),
            ("beam/256h/b64", 0xfa5a1846b6d00a72),
            ("local/256h/b16", 0x786e6045c95cb988),
            ("anneal/256h/b16", 0xe50f7b8c40b85217),
        ],
    );
}

/// The identity the single-query adapter rests on: a one-query joint search
/// and the `PlacementSearch` run score the same candidates, in the same
/// order, with the same bits, return the same plan and count the same work.
/// Structural, so it holds on every kernel tier.
#[test]
fn single_query_search_is_the_joint_search_at_one_query() {
    let scorer = TRIO.scorer();
    let (q, narrow, sels) = test_fixtures::workload(311, 8);
    let wide = test_fixtures::wide_cluster(256);
    let stream = |hosts: Vec<usize>, s: PlacementScores| {
        (hosts, s.cost.to_bits(), s.success.to_bits(), s.backpressure.to_bits())
    };
    let counters = |s: &SearchStats| {
        [
            s.moves_generated,
            s.moves_rejected,
            s.candidates_scored,
            s.score_batches,
            s.max_batch,
        ]
    };
    for (cluster, label) in [(&narrow, "8h"), (&wide, "256h")] {
        let problem = SearchProblem {
            query: &q,
            cluster,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        let jqs = [JointQuery {
            query: &q,
            est_sels: &sels,
        }];
        let joint_problem = JointSearchProblem {
            queries: &jqs,
            cluster,
            featurization: Featurization::Full,
            interference: None,
        };
        for ((name, single), (_, joint)) in single_strategies().into_iter().zip(joint_strategies()) {
            for budget in [1usize, 2, 16, 64] {
                let ctx = format!("{name}/{label}/b{budget}");
                let s = single.search(&problem, &scorer, budget, 23);
                let j = joint.search_joint(&joint_problem, &scorer, budget, 23);
                let s_stream: Vec<_> = s
                    .candidates
                    .iter()
                    .map(|c| stream(c.placement.assignment().to_vec(), c.scores()))
                    .collect();
                let j_stream: Vec<_> = j
                    .candidates
                    .iter()
                    .map(|c| stream(c.placement.flattened(), c.per_query[0]))
                    .collect();
                assert_eq!(s_stream, j_stream, "{ctx}: candidate streams");
                assert_eq!(s.best.assignment(), j.best.flattened().as_slice(), "{ctx}: best");
                assert_eq!(
                    s.initial.assignment(),
                    j.initial.flattened().as_slice(),
                    "{ctx}: initial"
                );
                assert_eq!(s.all_filtered, j.all_filtered, "{ctx}: all_filtered");
                assert_eq!(counters(&s.stats), counters(&j.stats), "{ctx}: counters");
            }
        }
    }
}

fn joint_cases(cluster: &Cluster, label: &str, interference: Option<&InterferenceModel>) -> Vec<(String, u64)> {
    let scorer = TRIO.scorer();
    let (queries, _, sels) = test_fixtures::multi_query_workload(523, 3, 4);
    let jqs = JointQuery::zip(&queries, &sels);
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster,
        featurization: Featurization::Full,
        interference,
    };
    let mut got = Vec::new();
    for (name, strategy) in joint_strategies() {
        for budget in [16usize, 64] {
            if budget == 64 && name != "beam" {
                continue;
            }
            let r = strategy.search_joint(&problem, &scorer, budget, 29);
            got.push((format!("{name}/{label}/b{budget}"), digest_joint(&r)));
        }
    }
    got
}

#[test]
fn joint_streams_are_pinned() {
    // Three queries on eight hosts contend on most candidates, so the
    // narrow cases also pin the contended host rows, learned pricing on.
    let learned = InterferenceModel::from_weights(vec![0.05; INTERFERENCE_DIM]);
    let (_, narrow, _) = test_fixtures::multi_query_workload(523, 3, 8);
    let mut got = joint_cases(&narrow, "8h", Some(&learned));
    got.extend(joint_cases(&test_fixtures::wide_cluster(256), "256h", None));
    assert_pinned(
        &got,
        &[
            ("random/8h/b16", 0x10c8eb86d637253d),
            ("beam/8h/b16", 0x5d409a4d91e02656),
            ("beam/8h/b64", 0xd05e98238fe9beff),
            ("local/8h/b16", 0x8063ec5f9704d31d),
            ("anneal/8h/b16", 0x37d56263e2076268),
            ("random/256h/b16", 0xf81e8c43ad8fdf8a),
            ("beam/256h/b16", 0x3806ae3f705940d5),
            ("beam/256h/b64", 0x0c444f8ab9e050d9),
            ("local/256h/b16", 0x60f900541fe93d79),
            ("anneal/256h/b16", 0xc9a2a2045b993693),
        ],
    );
}

#[test]
fn replan_stream_is_pinned() {
    let scorer = TRIO.scorer();
    let (queries, cluster, sels) = test_fixtures::multi_query_workload(541, 3, 8);
    let jqs = JointQuery::zip(&queries, &sels);
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster: &cluster,
        featurization: Featurization::Full,
        interference: None,
    };
    let incumbent: JointPlacement = LocalSearch.search_joint(&problem, &scorer, 12, 31).best;
    let dead = (0..cluster.len())
        .max_by_key(|&h| (incumbent.occupancy()[h], std::cmp::Reverse(h)))
        .expect("cluster has hosts");
    let mut got = Vec::new();
    for (label, dead_hosts) in [("stay", &[][..]), ("lost-host", &[dead][..])] {
        let o = replan(&problem, &scorer, &incumbent, dead_hosts, &ReplanConfig::default(), 37).expect("live hosts");
        let mut h = Fnv::new();
        h.hosts(&o.plan.flattened());
        h.u64(o.steady_cost.to_bits());
        h.u64(o.migration_cost_ms.to_bits());
        h.u64(o.incumbent_steady_cost.to_bits());
        got.push((format!("replan/{label}"), h.0));
    }
    assert_pinned(
        &got,
        &[
            ("replan/stay", 0x3685c071b200e9fc),
            ("replan/lost-host", 0x1436ffdaf5ff6746),
        ],
    );
}
