//! The fused GNN tape nodes against the per-op chain they stand for.
//!
//! `Tape::encode_scatter` and `Tape::wave_update` each record as one node
//! what used to be a chain of small ops. The small ops are still on the
//! tape, so the chain can be written down here as the oracle: on random
//! typed node sets, random waves and random MLP shapes, the fused pass
//! must reproduce the chain's outputs and every parameter gradient bit
//! for bit — including waves that update every row (empty `keep`), waves
//! whose targets share one type (identity group), single-row groups, waves
//! without edges, and one wave applied several times in a pass (the
//! shared rounds of the traditional message-passing scheme).

use costream_nn::{
    EncodeSpec, EncoderPart, Gradients, Initializer, Mlp, NodeId, ParamStore, Tape, Tensor, WaveGroup, WaveSpec,
};
use proptest::prelude::*;

/// Deterministic index source (the shim's strategies only draw ranges).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }
}

struct Group {
    mlp: usize,
    rows: Vec<usize>,
    globals: Vec<usize>,
}

struct Wave {
    child_rows: Vec<usize>,
    segs: Vec<usize>,
    targets: Vec<usize>,
    keep: Vec<usize>,
    groups: Vec<Group>,
}

impl WaveSpec for Wave {
    fn child_rows(&self) -> &[usize] {
        &self.child_rows
    }
    fn segs(&self) -> &[usize] {
        &self.segs
    }
    fn targets(&self) -> &[usize] {
        &self.targets
    }
    fn keep(&self) -> &[usize] {
        &self.keep
    }
    fn groups(&self) -> usize {
        self.groups.len()
    }
    fn group(&self, i: usize) -> WaveGroup<'_> {
        let g = &self.groups[i];
        WaveGroup {
            mlp: g.mlp,
            rows: &g.rows,
            globals: &g.globals,
            is_identity: g.rows.len() == self.targets.len(),
        }
    }
}

struct Encoding {
    /// `(type, features, state rows)` per type present.
    parts: Vec<(usize, Tensor, Vec<usize>)>,
}

impl EncodeSpec for Encoding {
    fn parts(&self) -> usize {
        self.parts.len()
    }
    fn part(&self, i: usize) -> EncoderPart<'_> {
        let (mlp, features, globals) = &self.parts[i];
        EncoderPart {
            mlp: *mlp,
            features,
            globals,
        }
    }
}

/// How a wave picks its targets.
#[derive(Clone, Copy)]
enum Targets {
    All,
    Some,
    OneRow,
    OneType,
}

fn wave(rng: &mut Lcg, types: &[usize], n_types: usize, pick: Targets) -> Wave {
    let total = types.len();
    let targets: Vec<usize> = match pick {
        Targets::All => (0..total).collect(),
        Targets::Some => {
            let mut t: Vec<usize> = (0..total).filter(|_| rng.below(2) == 0).collect();
            if t.is_empty() {
                t.push(rng.below(total));
            }
            t
        }
        Targets::OneRow => vec![rng.below(total)],
        Targets::OneType => {
            let ty = types[rng.below(total)];
            (0..total).filter(|&r| types[r] == ty).collect()
        }
    };
    let keep = (0..total).filter(|r| !targets.contains(r)).collect();
    let n_edges = rng.below(2 * targets.len() + 1);
    let child_rows = (0..n_edges).map(|_| rng.below(total)).collect();
    let segs = (0..n_edges).map(|_| rng.below(targets.len())).collect();
    let groups = (0..n_types)
        .filter_map(|ty| {
            let rows: Vec<usize> = (0..targets.len()).filter(|&r| types[targets[r]] == ty).collect();
            (!rows.is_empty()).then(|| Group {
                mlp: ty,
                globals: rows.iter().map(|&r| targets[r]).collect(),
                rows,
            })
        })
        .collect();
    Wave {
        child_rows,
        segs,
        targets,
        keep,
        groups,
    }
}

struct Model {
    store: ParamStore,
    encoders: Vec<Mlp>,
    updaters: Vec<Mlp>,
    readout: Mlp,
    hidden: usize,
}

/// The per-op chain: what `GnnModel::forward_with_plan` recorded before
/// the fused nodes existed.
fn unfused<'p>(
    m: &'p Model,
    enc: &'p Encoding,
    waves: &'p [Wave],
    order: &'p [usize],
    graph_of: &'p [usize],
    n_graphs: usize,
) -> (Tape<'p>, NodeId) {
    let total = graph_of.len();
    let mut tape = Tape::new();
    let mut h0 = tape.input(Tensor::zeros(total, m.hidden));
    for (ty, feats, globals) in &enc.parts {
        let x = tape.input_ref(feats);
        let e = m.encoders[*ty].forward(&mut tape, &m.store, x);
        let scattered = tape.segment_sum(e, &globals[..], total);
        h0 = tape.add(h0, scattered);
    }
    let mut cur = h0;
    for &w in order {
        let wave = &waves[w];
        let child_sum = tape.gather_segment_sum(cur, &wave.child_rows[..], &wave.segs[..], wave.targets.len());
        let own = tape.gather_rows(h0, &wave.targets[..]);
        let inp = tape.concat_cols(child_sum, own);
        let mut updated = tape.input(Tensor::zeros(total, m.hidden));
        for group in &wave.groups {
            let sub = tape.gather_rows(inp, &group.rows[..]);
            let out = m.updaters[group.mlp].forward(&mut tape, &m.store, sub);
            let scattered = tape.segment_sum(out, &group.globals[..], total);
            updated = tape.add(updated, scattered);
        }
        cur = if wave.keep.is_empty() {
            updated
        } else {
            let kept = tape.gather_segment_sum(cur, &wave.keep[..], &wave.keep[..], total);
            tape.add(updated, kept)
        };
    }
    let pooled = tape.segment_sum(cur, graph_of, n_graphs);
    let out = m.readout.forward(&mut tape, &m.store, pooled);
    (tape, out)
}

fn fused<'p>(
    m: &'p Model,
    enc: &'p Encoding,
    waves: &'p [Wave],
    order: &'p [usize],
    graph_of: &'p [usize],
    n_graphs: usize,
) -> (Tape<'p>, NodeId) {
    let mut tape = Tape::new();
    let h0 = tape.encode_scatter(enc, &m.encoders, &m.store, graph_of.len(), m.hidden);
    let mut cur = h0;
    for &w in order {
        cur = tape.wave_update(cur, h0, &waves[w], &m.updaters, &m.store);
    }
    let pooled = tape.segment_sum(cur, graph_of, n_graphs);
    let out = m.readout.forward(&mut tape, &m.store, pooled);
    (tape, out)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_nodes_match_the_per_op_chain_bitwise(
        seed in 0u64..100_000,
        total in 1usize..24,
        n_types in 1usize..4,
        hidden in 1usize..9,
        mlp_hidden in 1usize..11,
        deep in 0usize..2,
    ) {
        let mut rng = Lcg(seed);
        let types: Vec<usize> = (0..total).map(|_| rng.below(n_types)).collect();
        let n_graphs = 1 + rng.below(3);
        let graph_of: Vec<usize> = (0..total).map(|_| rng.below(n_graphs)).collect();

        // Encoder inputs: type `ty` has `2 + ty` features per row.
        let enc = Encoding {
            parts: (0..n_types)
                .filter_map(|ty| {
                    let globals: Vec<usize> = (0..total).filter(|&r| types[r] == ty).collect();
                    let width = 2 + ty;
                    let data = (0..globals.len() * width)
                        .map(|i| ((i as f32 + seed as f32) * 0.37 + ty as f32).sin())
                        .collect();
                    (!globals.is_empty()).then(|| (ty, Tensor::from_vec(globals.len(), width, data), globals))
                })
                .collect(),
        };

        // Every way of picking targets, then a schedule that revisits waves.
        let waves: Vec<Wave> = [Targets::All, Targets::Some, Targets::OneRow, Targets::OneType, Targets::Some]
            .iter()
            .map(|&pick| wave(&mut rng, &types, n_types, pick))
            .collect();
        let order: Vec<usize> = (0..(2 + rng.below(7))).map(|_| rng.below(waves.len())).collect();

        // `deep` adds a second hidden layer to every MLP.
        let widths = |inp: usize, out: usize| {
            let mut w = vec![inp, mlp_hidden];
            if deep == 1 {
                w.push(mlp_hidden + 1);
            }
            w.push(out);
            w
        };
        let mut store = ParamStore::new();
        let mut init = Initializer::new(seed);
        let encoders = (0..n_types)
            .map(|ty| Mlp::new(&mut store, &mut init, &format!("enc{ty}"), &widths(2 + ty, hidden)))
            .collect();
        let updaters = (0..n_types)
            .map(|ty| Mlp::new(&mut store, &mut init, &format!("upd{ty}"), &widths(2 * hidden, hidden)))
            .collect();
        let readout = Mlp::new(&mut store, &mut init, "readout", &widths(hidden, 1));
        let m = Model { store, encoders, updaters, readout, hidden };

        let seed_t = Tensor::from_vec(n_graphs, 1, (0..n_graphs).map(|i| (i as f32 * 0.9 + 0.3).cos()).collect());
        let mut grads_chain = Gradients::for_store(&m.store);
        let (mut chain, chain_out) = unfused(&m, &enc, &waves, &order, &graph_of, n_graphs);
        chain.backward(chain_out, seed_t.clone(), &mut grads_chain);
        let mut grads_fused = Gradients::for_store(&m.store);
        let (mut tape, out) = fused(&m, &enc, &waves, &order, &graph_of, n_graphs);
        tape.backward(out, seed_t, &mut grads_fused);

        prop_assert_eq!(bits(tape.value(out)), bits(chain.value(chain_out)), "forward output");
        prop_assert_eq!(tape.len(), 1 + order.len() + 1 + 3 * m.readout.layers().len(), "one node per step");
        for id in m.store.ids() {
            prop_assert_eq!(
                bits(grads_fused.grad(id)),
                bits(grads_chain.grad(id)),
                "gradient of {}",
                m.store.name(id)
            );
        }
    }
}
