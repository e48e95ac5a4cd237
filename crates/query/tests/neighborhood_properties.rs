//! Property-based tests of the placement neighborhood generators: the
//! incremental Fig. 5 validity checks must agree with full revalidation
//! on every candidate edit, every emitted neighbor must satisfy the
//! same rules `sample_valid` enforces, and the host equivalence classes
//! (one verdict per bin of unused hosts; rank-select sampling) must be
//! invisible: same moves, same counts, same placements, same rng state as
//! a per-host sweep and the filter-and-`choose` sampler.

mod common;

use common::{cluster_shapes, placement_on_few_hosts, sample_valid_oracle};
use costream_query::generator::WorkloadGenerator;
use costream_query::hardware::{Cluster, Host};
use costream_query::placement::neighborhood::{Move, MoveCounts, Neighborhood};
use costream_query::placement::{colocate_on_strongest, sample_valid};
use costream_query::ranges::FeatureRanges;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A ~100-host heterogeneous cluster: edge/fog/cloud tiers cycling, with
/// a small monotone per-host perturbation so hosts are distinct but stay
/// within their capability bin. Wide enough that the rule-③ visited-host
/// bitmasks span two `u64` words.
fn wide_cluster(n: usize) -> Cluster {
    let mut hosts = Vec::with_capacity(n);
    for i in 0..n {
        let tier = i % 3;
        let bump = 1.0 + 0.01 * (i / 3) as f64;
        hosts.push(Host {
            cpu: [50.0, 300.0, 800.0][tier] * bump,
            ram_mb: [1000.0, 8000.0, 32000.0][tier] * bump,
            bandwidth_mbits: [25.0, 400.0, 10000.0][tier] * bump,
            latency_ms: [160.0, 10.0, 1.0][tier],
        });
    }
    Cluster::new(hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental move check is exactly full revalidation: for every
    /// possible relocation and swap of a valid placement, both judges
    /// must agree.
    #[test]
    fn incremental_check_equals_full_validation(seed in 0u64..100_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let (q, c, _) = g.workload_item();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let p = sample_valid(&q, &c, &mut rng).unwrap_or_else(|| colocate_on_strongest(&q, &c));
        prop_assert!(p.is_valid(&q, &c));
        let nb = Neighborhood::new(&q, &c);
        let st = nb.visit_state(&p);
        for op in 0..q.len() {
            for to in 0..c.len() {
                if to == p.host_of(op) {
                    continue;
                }
                let mv = Move::Relocate { op, to };
                prop_assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "relocate {} -> {} disagrees", op, to
                );
            }
        }
        for a in 0..q.len() {
            for b in (a + 1)..q.len() {
                if p.host_of(a) == p.host_of(b) {
                    continue;
                }
                let mv = Move::Swap { a, b };
                prop_assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "swap {} <-> {} disagrees", a, b
                );
            }
        }
    }

    /// The same agreement on a ~100-host cluster, where the visited-host
    /// bitmasks span multiple words: the incremental path (not a
    /// full-revalidation fallback) must still equal full revalidation for
    /// every candidate edit.
    #[test]
    fn incremental_check_equals_full_validation_on_wide_cluster(seed in 0u64..20_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let (q, _, _) = g.workload_item();
        let c = wide_cluster(100);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
        let p = sample_valid(&q, &c, &mut rng).unwrap_or_else(|| colocate_on_strongest(&q, &c));
        prop_assert!(p.is_valid(&q, &c));
        let nb = Neighborhood::new(&q, &c);
        let st = nb.visit_state(&p);
        for op in 0..q.len() {
            for to in 0..c.len() {
                if to == p.host_of(op) {
                    continue;
                }
                let mv = Move::Relocate { op, to };
                prop_assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "wide cluster: relocate {} -> {} disagrees", op, to
                );
            }
        }
        for a in 0..q.len() {
            for b in (a + 1)..q.len() {
                if p.host_of(a) == p.host_of(b) {
                    continue;
                }
                let mv = Move::Swap { a, b };
                prop_assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "wide cluster: swap {} <-> {} disagrees", a, b
                );
            }
        }
    }

    /// Incremental == full revalidation at the bitmask word boundaries:
    /// 63/64/65 and 127/128/129 hosts exercise the last bit of a word,
    /// an exact word fill and the first bit of the next word, for every
    /// relocation and swap of a valid placement.
    #[test]
    fn incremental_check_agrees_at_word_boundaries(seed in 0u64..8_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let (q, _, _) = g.workload_item();
        for &n in &[63usize, 64, 65, 127, 128, 129] {
            let c = wide_cluster(n);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(5));
            let p = sample_valid(&q, &c, &mut rng).unwrap_or_else(|| colocate_on_strongest(&q, &c));
            prop_assert!(p.is_valid(&q, &c));
            let nb = Neighborhood::new(&q, &c);
            let st = nb.visit_state(&p);
            for op in 0..q.len() {
                for to in 0..c.len() {
                    if to == p.host_of(op) {
                        continue;
                    }
                    let mv = Move::Relocate { op, to };
                    prop_assert_eq!(
                        nb.is_valid_move(&p, &st, mv),
                        mv.apply(&p).is_valid(&q, &c),
                        "{} hosts: relocate {} -> {} disagrees", n, op, to
                    );
                }
            }
            for a in 0..q.len() {
                for b in (a + 1)..q.len() {
                    if p.host_of(a) == p.host_of(b) {
                        continue;
                    }
                    let mv = Move::Swap { a, b };
                    prop_assert_eq!(
                        nb.is_valid_move(&p, &st, mv),
                        mv.apply(&p).is_valid(&q, &c),
                        "{} hosts: swap {} <-> {} disagrees", n, a, b
                    );
                }
            }
        }
    }

    /// The streaming enumerator is the same function as the allocating
    /// one: `neighbors_into` reproduces `neighbors` element for element
    /// (order included) on narrow and multi-word-wide clusters alike.
    #[test]
    fn streaming_enumeration_matches_allocating(seed in 0u64..20_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let (q, narrow, _) = g.workload_item();
        for c in [narrow, wide_cluster(130)] {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7));
            let p = sample_valid(&q, &c, &mut rng).unwrap_or_else(|| colocate_on_strongest(&q, &c));
            let nb = Neighborhood::new(&q, &c);
            let mut st = nb.visit_state(&p);
            let expected = nb.neighbors(&p, &st);
            // Reuse state and buffers across calls, as the strategies do.
            nb.visit_state_into(&p, &mut st);
            let mut streamed = Vec::new();
            let counts = nb.neighbors_into(&p, &st, &mut streamed);
            prop_assert_eq!(&streamed, &expected);
            prop_assert_eq!(counts.generated as usize, expected.len());
        }
    }

    /// Validity by class is invisible. At 8, 70 and 512 hosts — mixed
    /// bins, an empty bin, a single bin — and for placements confined to
    /// 1..=n_ops hosts, the enumerated list is exactly the per-host
    /// `is_valid_move` sweep in (operator, host) then (a, b) order, every
    /// host considered is counted, and full `Placement::validate` of every
    /// applied edit agrees with its verdict.
    #[test]
    fn enumeration_by_class_equals_the_per_host_sweep(seed in 0u64..50_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let q = g.query();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(11));
        for n in [8usize, 70, 512] {
            for (shape, c) in cluster_shapes(n) {
                let m = 1 + (seed as usize + n) % q.len();
                let p = placement_on_few_hosts(&q, &c, m, &mut rng);
                let nb = Neighborhood::new(&q, &c);
                let st = nb.visit_state(&p);
                let mut sweep = Vec::new();
                let mut counts = MoveCounts::default();
                let relocations = (0..q.len())
                    .flat_map(|op| (0..c.len()).map(move |to| Move::Relocate { op, to }))
                    .filter(|&mv| matches!(mv, Move::Relocate { op, to } if to != p.host_of(op)));
                let swaps = (0..q.len())
                    .flat_map(|a| ((a + 1)..q.len()).map(move |b| Move::Swap { a, b }))
                    .filter(|&mv| matches!(mv, Move::Swap { a, b } if p.host_of(a) != p.host_of(b)));
                for mv in relocations.chain(swaps) {
                    let ok = nb.is_valid_move(&p, &st, mv);
                    prop_assert_eq!(
                        ok,
                        mv.apply(&p).validate(&q, &c).is_ok(),
                        "{} hosts, {}, {} used: {:?}", n, shape, m, mv
                    );
                    if ok {
                        counts.generated += 1;
                        sweep.push(mv);
                    } else {
                        counts.rejected += 1;
                    }
                }
                let mut listed = Vec::new();
                let got = nb.neighbors_into(&p, &st, &mut listed);
                prop_assert_eq!(&listed, &sweep, "{} hosts, {}, {} used", n, shape, m);
                prop_assert_eq!(got, counts, "{} hosts, {}, {} used: counts", n, shape, m);
            }
        }
    }

    /// Rank-select sampling is the filter-and-`choose` sampler: the same
    /// placement (or the same dead end) from the same rng, which is left
    /// in the same state — on every cluster shape and width, and on
    /// clusters small enough that join branches exhaust them.
    #[test]
    fn rank_select_sampling_equals_filter_and_choose(seed in 0u64..50_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let q = g.query();
        let mut clusters: Vec<Cluster> = [8usize, 70, 512]
            .into_iter()
            .flat_map(|n| cluster_shapes(n).map(|(_, c)| c))
            .collect();
        clusters.extend([2usize, 3].into_iter().flat_map(|n| cluster_shapes(n).map(|(_, c)| c)));
        for c in &clusters {
            let nb = Neighborhood::new(&q, c);
            for draw in 0..4u64 {
                let s = seed.wrapping_mul(31).wrapping_add(draw);
                let (mut a, mut b, mut w) = (StdRng::seed_from_u64(s), StdRng::seed_from_u64(s), StdRng::seed_from_u64(s));
                let want = sample_valid_oracle(&q, c, &mut a);
                prop_assert_eq!(&nb.sample_valid(&mut b), &want, "{} hosts, draw {}", c.len(), draw);
                prop_assert_eq!(b.next_u64(), a.next_u64(), "{} hosts, draw {}: rng state", c.len(), draw);
                // The free function is the same sampler behind a fresh
                // neighbourhood.
                prop_assert_eq!(&sample_valid(&q, c, &mut w), &want);
                if let Some(p) = want {
                    prop_assert!(p.is_valid(&q, c));
                }
            }
        }
    }

    /// Every neighbor the generators emit satisfies the same validity
    /// rules as `sample_valid`'s output — including after chaining edits
    /// (each neighbor is itself a valid base for the next round).
    #[test]
    fn generated_neighbors_always_valid(seed in 0u64..100_000) {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let (q, c, _) = g.workload_item();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let mut p = sample_valid(&q, &c, &mut rng).unwrap_or_else(|| colocate_on_strongest(&q, &c));
        for round in 0..3 {
            let nb = Neighborhood::new(&q, &c);
            let st = nb.visit_state(&p);
            let neighbors = nb.neighbors(&p, &st);
            for mv in &neighbors {
                let np = mv.apply(&p);
                prop_assert!(np.is_valid(&q, &c), "round {}: {:?} produced invalid placement", round, mv);
                prop_assert_ne!(np.assignment(), p.assignment());
            }
            // Chain: continue the walk from the first neighbor (if any).
            match neighbors.first() {
                Some(mv) => p = mv.apply(&p),
                None => break,
            }
        }
    }
}

/// The dead-end branch of the sampler equivalence is not vacuous: on
/// two- and three-host clusters a fixed sweep of generator queries runs
/// into operators with no candidate left, and there the rank-select
/// sampler returns `None` without drawing, like `choose` on an empty list.
#[test]
fn dead_ends_return_none_without_drawing() {
    let mut dead_ends = 0;
    for seed in 0..400u64 {
        let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
        let q = g.query();
        for (_, c) in cluster_shapes(2).into_iter().chain(cluster_shapes(3)) {
            let nb = Neighborhood::new(&q, &c);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let want = sample_valid_oracle(&q, &c, &mut a);
            assert_eq!(nb.sample_valid(&mut b), want, "seed {seed}, {} hosts", c.len());
            assert_eq!(b.next_u64(), a.next_u64(), "seed {seed}: rng state");
            dead_ends += want.is_none() as usize;
        }
    }
    assert!(dead_ends > 0, "the sweep must reach at least one dead end");
}
