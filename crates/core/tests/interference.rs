//! Acceptance suite for the learned co-run interference model:
//!
//! 1. the plan-cache-congruence invariant — under the learned model,
//!    hosts without external load keep their plain template feature
//!    rows **bitwise** (property-tested over random joint placements);
//! 2. the pricing-accuracy bar — on a held-out co-run corpus (disjoint
//!    generation seed from the training corpus), the learned model's
//!    inflation predictions must beat the rate-weighted
//!    proportional-share heuristic on median q-error, strictly;
//! 3. the whole measure → fit loop is deterministic end to end.

use costream::prelude::*;
use costream::test_fixtures;
use costream_query::features::host_features;
use costream_query::joint::JointPlacement;
use costream_query::placement::Placement;
use proptest::prelude::*;

/// A learned model with every coefficient deliberately non-zero, so a
/// contended row is guaranteed to move: any leak of learned pricing
/// into an uncontended row would be visible.
fn nonzero_model() -> InterferenceModel {
    InterferenceModel::from_weights(vec![0.05; INTERFERENCE_DIM])
}

/// Deterministic pseudo-random joint placement: op `i` of query `q`
/// goes to host `(seed + 31 q + 7 i) mod hosts`.
fn scatter(queries: &[costream_query::Query], n_hosts: usize, seed: u64) -> JointPlacement {
    let placements = queries
        .iter()
        .enumerate()
        .map(|(q, query)| {
            Placement::new(
                (0..query.len())
                    .map(|i| ((seed as usize).wrapping_add(31 * q + 7 * i)) % n_hosts)
                    .collect(),
            )
        })
        .collect();
    JointPlacement::new(n_hosts, placements)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every query and host under a random joint placement: no
    /// external co-residents ⇒ the host's feature row is bitwise the
    /// plain template row, learned model or not; external co-residents
    /// ⇒ the learned row differs (the model priced the contention).
    #[test]
    fn uncontended_rows_stay_bitwise_identical_under_learned_model(seed in 0u64..1_000) {
        let (queries, cluster, sels) = test_fixtures::multi_query_workload(600 + seed, 3, 5);
        let corpus = test_fixtures::corpus(40, 601);
        let trio = test_fixtures::trio(&corpus, 3, 2);
        let scorer = trio.scorer();
        let jqs = JointQuery::zip(&queries, &sels);
        let model = nonzero_model();
        let learned = JointScorer::new(
            &JointSearchProblem {
                queries: &jqs,
                cluster: &cluster,
                featurization: Featurization::Full,
                interference: Some(&model),
            },
            &scorer,
        );
        let jp = scatter(&queries, cluster.len(), seed);
        let occupancy = jp.occupancy().to_vec();
        for q in 0..queries.len() {
            let rows = learned.host_rows(&jp, q);
            prop_assert_eq!(rows.len(), cluster.len());
            for h in 0..cluster.len() {
                let external = occupancy[h] - jp.own_load(q, h);
                // The plain row: what a template gives host `h`'s node.
                let plain = &host_features(cluster.host(h));
                let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                if external == 0 || jp.own_load(q, h) == 0 {
                    prop_assert_eq!(
                        bits(&rows[h]),
                        bits(plain),
                        "query {} host {}: uncontended row must stay bitwise",
                        q,
                        h
                    );
                } else {
                    prop_assert_ne!(
                        bits(&rows[h]),
                        bits(plain),
                        "query {} host {}: contended row must be re-priced",
                        q,
                        h
                    );
                }
            }
        }
    }
}

/// The headline acceptance criterion: fit on one corpus, evaluate on a
/// corpus generated from a disjoint seed, and the learned median
/// q-error must be strictly below the proportional-share heuristic's.
#[test]
fn learned_pricing_beats_proportional_share_on_held_out_corpus() {
    let train = generate_corpus(&CorunConfig::default());
    let held_out = generate_corpus(&CorunConfig {
        seed: 1007,
        ..CorunConfig::default()
    });
    assert!(train.len() >= 40, "training corpus too small: {}", train.len());
    assert!(held_out.len() >= 40, "held-out corpus too small: {}", held_out.len());

    let model = InterferenceModel::fit(&train, 1.0);
    let learned: Vec<(f64, f64)> = held_out
        .iter()
        .map(|s| (s.inflation, model.predict_inflation_raw(&s.own, &s.ext, &s.host)))
        .collect();
    let proportional: Vec<(f64, f64)> = held_out
        .iter()
        .map(|s| (s.inflation, proportional_inflation(&s.own, &s.ext)))
        .collect();
    let lq = QErrorSummary::of(&learned);
    let pq = QErrorSummary::of(&proportional);
    assert!(
        lq.q50 < pq.q50,
        "learned pricing must track co-run inflation strictly better than \
         proportional share: learned {lq}, proportional {pq}"
    );
}

/// Measure → fit is replayable: the same config yields bitwise
/// identical corpora and bitwise identical fitted coefficients.
#[test]
fn measure_fit_loop_is_deterministic_end_to_end() {
    let cfg = CorunConfig {
        scenarios: 12,
        ..CorunConfig::default()
    };
    let a = generate_corpus(&cfg);
    let b = generate_corpus(&cfg);
    assert_eq!(a, b, "corpus generation must be replayable");
    let ma = InterferenceModel::fit(&a, 1.0);
    let mb = InterferenceModel::fit(&b, 1.0);
    let bits = |m: &InterferenceModel| m.weights().iter().map(|w| w.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&ma), bits(&mb), "fit must be bitwise deterministic");
}
