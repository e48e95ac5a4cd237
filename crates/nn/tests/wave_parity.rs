//! The training pass against the per-op chain it stands for.
//!
//! `TrainingPass` runs each encoding and each wave as one step, with a
//! hand-written backward, where the per-op oracle (`Tape::gnn`) records a
//! chain of small ops. On random typed node sets, random waves and random
//! MLP shapes, the pass must reproduce the chain's outputs and every
//! parameter gradient bit for bit — including waves that update every row
//! (nothing carried), waves whose targets share one type (identity group),
//! single-row groups, waves without edges, and one wave applied several
//! times in a pass (the shared rounds of the traditional message-passing
//! scheme). costream-core's `tests/fastpath.rs` holds both production
//! passes to the same chain on real batch plans.

use costream_nn::tape::Tape;
use costream_nn::{
    BatchSpec, EncodeSpec, EncoderPart, Gnn, Gradients, InferenceArena, Initializer, Mlp, ParamStore, Tensor,
    TrainingPass, WaveGroup, WaveSpec,
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
    /// Graph of every state row.
    graph_of: Vec<usize>,
    n_graphs: usize,
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

impl BatchSpec for Encoding {
    fn graph_of(&self) -> &[usize] {
        &self.graph_of
    }
    fn n_graphs(&self) -> usize {
        self.n_graphs
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
        groups,
    }
}

struct Model {
    store: ParamStore,
    encoders: Vec<Mlp>,
    updaters: Vec<Mlp>,
    readout: Mlp,
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
            graph_of,
            n_graphs,
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
        let m = Model { store, encoders, updaters, readout };

        let seed_t = Tensor::from_vec(n_graphs, 1, (0..n_graphs).map(|i| (i as f32 * 0.9 + 0.3).cos()).collect());
        let gnn = Gnn { store: &m.store, encoders: &m.encoders, updaters: &m.updaters, readout: &m.readout };
        let run = || order.iter().map(|&w| &waves[w] as &dyn WaveSpec);
        let mut grads_chain = Gradients::for_store(&m.store);
        let mut chain = Tape::new();
        let chain_out = chain.gnn(gnn, &enc, run());
        chain.backward(chain_out, seed_t.clone(), &mut grads_chain);
        let mut grads_fused = Gradients::for_store(&m.store);
        let (mut pass, mut arena) = (TrainingPass::default(), InferenceArena::new());
        let out = pass.forward(gnn, &enc, run(), &mut arena).clone();
        pass.backward(gnn, &enc, run(), seed_t, &mut grads_fused, &mut arena);

        prop_assert_eq!(bits(&out), bits(chain.value(chain_out)), "forward output");
        prop_assert_eq!(pass.waves(), order.len(), "one step per wave");
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
