//! Property-based tests of the cross-query joint neighborhood: the
//! incremental validity checks must agree with full per-query
//! revalidation for every candidate edit, and the incrementally
//! maintained occupancy must equal a full recount after every edit
//! sequence (mirrors `neighborhood_properties.rs` for the single-query
//! machinery, host equivalence classes included).

mod common;

use common::{cluster_shapes, placement_on_few_hosts, sample_valid_oracle};
use costream_query::generator::WorkloadGenerator;
use costream_query::joint::{count_occupancy, JointMove, JointNeighborhood, JointPlacement};
use costream_query::placement::neighborhood::MoveCounts;
use costream_query::placement::{colocate_on_strongest, sample_valid, Placement};
use costream_query::ranges::FeatureRanges;
use costream_query::{Cluster, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn fixture(seed: u64) -> (Vec<Query>, Cluster, JointPlacement) {
    let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
    let n_queries = 2 + (seed % 2) as usize;
    let queries: Vec<Query> = (0..n_queries).map(|_| g.query()).collect();
    let cluster = g.cluster(3 + (seed % 3) as usize);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let placements = queries
        .iter()
        .map(|q| sample_valid(q, &cluster, &mut rng).unwrap_or_else(|| colocate_on_strongest(q, &cluster)))
        .collect();
    let jp = JointPlacement::new(cluster.len(), placements);
    (queries, cluster, jp)
}

/// Full revalidation of a joint move: apply it, then check every touched
/// query against the complete Fig. 5 rules and the occupancy against a
/// recount.
fn full_check(queries: &[&Query], cluster: &Cluster, jp: &JointPlacement, mv: JointMove) -> bool {
    // Degenerate edits the generators never emit are invalid by
    // definition (no-ops must be rejected so search never rescoring the
    // same assignment).
    match mv {
        JointMove::Relocate { query, op, to } => {
            if to >= cluster.len() || to == jp.query(query).host_of(op) {
                return false;
            }
        }
        JointMove::Swap { qa, a, qb, b } => {
            if (qa, a) == (qb, b) || jp.query(qa).host_of(a) == jp.query(qb).host_of(b) {
                return false;
            }
        }
    }
    jp.apply(mv).is_valid(queries, cluster)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental joint move check is exactly full revalidation:
    /// for every possible relocation, intra-query swap and cross-query
    /// swap, both judges agree.
    #[test]
    fn joint_incremental_check_equals_full_validation(seed in 0u64..100_000) {
        let (queries, cluster, jp) = fixture(seed);
        let refs: Vec<&Query> = queries.iter().collect();
        let jnb = JointNeighborhood::new(&refs, &cluster);
        let states = jnb.visit_states(&jp);
        for (q, query) in refs.iter().enumerate() {
            for op in 0..query.len() {
                for to in 0..cluster.len() {
                    if to == jp.query(q).host_of(op) {
                        continue;
                    }
                    let mv = JointMove::Relocate { query: q, op, to };
                    prop_assert_eq!(
                        jnb.is_valid_move(&jp, &states, mv),
                        full_check(&refs, &cluster, &jp, mv),
                        "relocate q{} op{} -> {} disagrees", q, op, to
                    );
                }
            }
        }
        for qa in 0..refs.len() {
            for qb in qa..refs.len() {
                for a in 0..refs[qa].len() {
                    let b0 = if qa == qb { a + 1 } else { 0 };
                    for b in b0..refs[qb].len() {
                        let mv = JointMove::Swap { qa, a, qb, b };
                        if jp.query(qa).host_of(a) == jp.query(qb).host_of(b) {
                            continue; // no-op exchange, rejected by both
                        }
                        prop_assert_eq!(
                            jnb.is_valid_move(&jp, &states, mv),
                            full_check(&refs, &cluster, &jp, mv),
                            "swap q{}.{} <-> q{}.{} disagrees", qa, a, qb, b
                        );
                    }
                }
            }
        }
    }

    /// The streaming joint enumerator is the same function as the
    /// allocating one: `neighbors_into` reproduces `neighbors` element for
    /// element, order included, and `flattened_after` equals
    /// apply-then-flatten for every emitted move.
    #[test]
    fn joint_streaming_enumeration_matches_allocating(seed in 0u64..50_000) {
        let (queries, cluster, jp) = fixture(seed);
        let refs: Vec<&Query> = queries.iter().collect();
        let jnb = JointNeighborhood::new(&refs, &cluster);
        let mut states = jnb.visit_states(&jp);
        let expected = jnb.neighbors(&jp, &states);
        // Reuse state and buffers across calls, as the strategies do.
        jnb.visit_states_into(&jp, &mut states);
        let mut streamed = Vec::new();
        let counts = jnb.neighbors_into(&jp, &states, &mut streamed);
        prop_assert_eq!(&streamed, &expected);
        prop_assert_eq!(counts.generated as usize, expected.len());
        let mut flat = Vec::new();
        for mv in expected {
            jp.flattened_after(mv, &mut flat);
            prop_assert_eq!(&flat, &jp.apply(mv).flattened(), "{:?}", mv);
        }
    }

    /// Validity by class is invisible in the joint move space too. At 8,
    /// 70 and 512 hosts (mixed bins, an empty bin, a single bin), with
    /// every query confined to a few hosts, the enumerated list is exactly
    /// the per-host `is_valid_move` sweep in generator order, every host
    /// considered is counted, and full revalidation of every applied edit
    /// agrees with its verdict.
    #[test]
    fn joint_enumeration_by_class_equals_the_per_host_sweep(seed in 0u64..50_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let queries: Vec<Query> = (0..2).map(|_| g.query()).collect();
        let refs: Vec<&Query> = queries.iter().collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(13));
        for n in [8usize, 70, 512] {
            for (shape, c) in cluster_shapes(n) {
                let placements: Vec<Placement> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| placement_on_few_hosts(q, &c, 1 + (seed as usize + n + i) % q.len(), &mut rng))
                    .collect();
                let jp = JointPlacement::new(c.len(), placements);
                let jnb = JointNeighborhood::new(&refs, &c);
                let states = jnb.visit_states(&jp);
                let mut candidates = Vec::new();
                for (q, query) in refs.iter().enumerate() {
                    for op in 0..query.len() {
                        candidates.extend((0..c.len()).map(|to| JointMove::Relocate { query: q, op, to }));
                    }
                }
                for (q, query) in refs.iter().enumerate() {
                    for a in 0..query.len() {
                        candidates.extend(((a + 1)..query.len()).map(|b| JointMove::Swap { qa: q, a, qb: q, b }));
                    }
                }
                for a in 0..refs[0].len() {
                    candidates.extend((0..refs[1].len()).map(|b| JointMove::Swap { qa: 0, a, qb: 1, b }));
                }
                let mut sweep = Vec::new();
                let mut counts = MoveCounts::default();
                for mv in candidates {
                    let noop = match mv {
                        JointMove::Relocate { query, op, to } => to == jp.query(query).host_of(op),
                        JointMove::Swap { qa, a, qb, b } => jp.query(qa).host_of(a) == jp.query(qb).host_of(b),
                    };
                    if noop {
                        continue; // skipped without a check, counted nowhere
                    }
                    let ok = jnb.is_valid_move(&jp, &states, mv);
                    prop_assert_eq!(ok, full_check(&refs, &c, &jp, mv), "{} hosts, {}: {:?}", n, shape, mv);
                    if ok {
                        counts.generated += 1;
                        sweep.push(mv);
                    } else {
                        counts.rejected += 1;
                    }
                }
                let mut listed = Vec::new();
                let got = jnb.neighbors_into(&jp, &states, &mut listed);
                prop_assert_eq!(&listed, &sweep, "{} hosts, {}", n, shape);
                prop_assert_eq!(got, counts, "{} hosts, {}: counts", n, shape);
            }
        }
    }

    /// A joint sample is the per-query filter-and-`choose` sampler run
    /// over the queries in order on one rng stream, stopping at the first
    /// dead end — same placements, same rng state afterwards.
    #[test]
    fn joint_sampling_equals_per_query_filter_and_choose(seed in 0u64..50_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let queries: Vec<Query> = (0..3).map(|_| g.query()).collect();
        let refs: Vec<&Query> = queries.iter().collect();
        for n in [3usize, 8, 70, 512] {
            for (shape, c) in cluster_shapes(n) {
                let jnb = JointNeighborhood::new(&refs, &c);
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let want: Option<Vec<Placement>> = refs.iter().map(|q| sample_valid_oracle(q, &c, &mut a)).collect();
                let got = jnb.sample_valid(&mut b);
                prop_assert_eq!(
                    got.as_ref().map(|jp| jp.placements()),
                    want.as_deref(),
                    "{} hosts, {}", n, shape
                );
                prop_assert_eq!(b.next_u64(), a.next_u64(), "{} hosts, {}: rng state", n, shape);
                if let Some(jp) = got {
                    let recount = count_occupancy(c.len(), jp.placements());
                    prop_assert_eq!(jp.occupancy(), recount.as_slice());
                }
            }
        }
    }

    /// Along every edit sequence the generators produce, incremental
    /// occupancy bookkeeping equals a full recount, every emitted
    /// neighbor is valid, and chained edits remain valid bases.
    #[test]
    fn joint_edit_sequences_keep_occupancy_and_validity(seed in 0u64..100_000) {
        let (queries, cluster, mut jp) = fixture(seed);
        let refs: Vec<&Query> = queries.iter().collect();
        prop_assert!(jp.is_valid(&refs, &cluster));
        let jnb = JointNeighborhood::new(&refs, &cluster);
        for round in 0..4usize {
            let states = jnb.visit_states(&jp);
            let neighbors = jnb.neighbors(&jp, &states);
            for mv in &neighbors {
                let np = jp.apply(*mv);
                prop_assert!(np.is_valid(&refs, &cluster),
                    "round {}: {:?} produced invalid joint placement", round, mv);
                let recount = count_occupancy(cluster.len(), np.placements());
                prop_assert_eq!(
                    np.occupancy(),
                    recount.as_slice(),
                    "round {}: {:?} broke occupancy bookkeeping", round, mv
                );
                prop_assert_ne!(np.flattened(), jp.flattened(), "{:?} is a no-op", mv);
            }
            // Chain: continue the walk from a mid-list neighbor.
            match neighbors.get(round % neighbors.len().max(1)) {
                Some(mv) => jp = jp.apply(*mv),
                None => break,
            }
        }
    }
}
