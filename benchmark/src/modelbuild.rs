//! The build phase (`build_model`): the offline path a user runs before
//! anything can be scored — simulate a training corpus, measure co-run
//! interference, train an ensemble, evaluate it on held-out traces, fit the
//! interference model. The only phase where `dsps` and the `nn` backward
//! kernels do most of the work.
//!
//! Each of the first [`MODEL_CHUNKS`] rounds simulates one fresh chunk of the
//! corpus and a slice of the co-run corpus; every round trains
//! [`TRAIN_CALLS`] small ensembles. Chunks differ on purpose: what a trace
//! costs to simulate varies by an order of magnitude, and eight different
//! chunks say more about the simulator than the same chunk eight times.
//! Training is the opposite: every call trains on the same
//! [`TRAIN_ITEMS`] traces of chunk 0 from the same seed, so the calls are
//! repetitions of one piece of work and the fastest of them is reported
//! (see [`crate::stats::fastest_per_item`]). The model whose held-out q-error is
//! reported is trained once, after the rounds, on the first
//! [`MODEL_CHUNKS`] chunks, so it is a function of the seed alone however
//! many rounds the machine managed; chunk 0 is then simulated again and its
//! labels must not move.

use crate::setup::mix;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::Tally;
use costream::prelude::*;
use costream::qerror::QErrorSummary;
use costream_dsps::corun::{generate_corpus, CorunConfig};
use std::time::Instant;

const CHUNK_TRACES: usize = 300;
const CHUNK_CORUN_SCENARIOS: usize = 6;
/// Training calls per round, each over [`TRAIN_ITEMS`] traces for
/// [`TRAIN_EPOCHS`] epochs: about 25 ms a call on the box this was sized on.
const TRAIN_CALLS: usize = 4;
const TRAIN_ITEMS: usize = 256;
const TRAIN_EPOCHS: usize = 2;
/// Chunks the reported model is built from: 2 400 traces, 48 co-run
/// scenarios (the size of the default co-run corpus).
const MODEL_CHUNKS: usize = 8;
const MODEL_TRAIN_ITEMS_MAX: usize = 1500;
const MODEL_EPOCHS: usize = 20;
const MEMBERS: usize = 2;
const ROUNDTRIP_ITEMS: usize = 64;

/// What simulating one chunk measured.
#[derive(Clone, Copy, Debug)]
pub struct ChunkRates {
    /// Solo + co-run member simulations per second.
    pub sim_runs_per_s: f64,
    /// Labeled co-run samples produced per second of `generate_corpus`.
    pub corun_samples_per_s: f64,
}

pub struct BuildOutcome {
    pub chunks: Vec<ChunkRates>,
    /// Per round: items × epochs × members per second of its fastest
    /// `Ensemble::train` call.
    pub train_samples_per_s: Vec<f64>,
    pub sim_runs: u64,
    pub train_samples: u64,
    pub cost_qerror_p50: f64,
    pub heldout_items: usize,
    /// One epoch of the reported model's training (all members), ms.
    pub train_epoch_ms: f64,
    pub interference_fit_ms: f64,
    pub interference_qerror_p50: f64,
    /// Labels of the model's corpus and its held-out predictions.
    pub digest: Digest,
}

fn label_digest(corpus: &Corpus) -> Digest {
    let mut d = Digest::default();
    for item in &corpus.items {
        let m = &item.metrics;
        for x in [
            m.throughput,
            m.processing_latency_ms,
            m.e2e_latency_ms,
            m.backpressure_rate,
        ] {
            d.f64(x);
        }
        d.word(u64::from(m.backpressure) << 1 | u64::from(m.success));
    }
    d
}

pub struct Build {
    phase: &'static str,
    seed: u64,
    chunks: Vec<Corpus>,
    corun: Vec<CorunSample>,
    /// The first [`TRAIN_ITEMS`] successful traces of chunk 0.
    train_set: Option<Corpus>,
    next_id: u64,
    out: BuildOutcome,
}

impl Build {
    pub fn new(phase: &'static str, seed: u64) -> Self {
        Build {
            phase,
            seed,
            chunks: Vec::new(),
            corun: Vec::new(),
            train_set: None,
            next_id: 0,
            out: BuildOutcome {
                chunks: Vec::new(),
                train_samples_per_s: Vec::new(),
                sim_runs: 0,
                train_samples: 0,
                cost_qerror_p50: f64::NAN,
                heldout_items: 0,
                train_epoch_ms: f64::NAN,
                interference_fit_ms: f64::NAN,
                interference_qerror_p50: f64::NAN,
                digest: Digest::default(),
            },
        }
    }

    fn span_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Simulates the next chunk and its co-run scenarios.
    fn simulate_chunk(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        let (phase, k) = (self.phase, self.chunks.len() as u64);
        let sim = SimConfig::default();
        let corun_cfg = CorunConfig {
            scenarios: CHUNK_CORUN_SCENARIOS,
            seed: mix(self.seed, 4000 + k),
            ..Default::default()
        };
        let t0 = Instant::now();
        let (chunk, _) = tracer.timed(phase, "dsps", "Corpus::generate", k, None, || {
            Corpus::generate(CHUNK_TRACES, mix(self.seed, 3000 + k), FeatureRanges::training(), &sim)
        });
        let t1 = Instant::now();
        let (corun, _) = tracer.timed(phase, "dsps", "corun::generate_corpus", k, None, || {
            generate_corpus(&corun_cfg)
        });
        let (corun_s, sim_s) = (t1.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64());
        // Computed, not counted: every member of every scenario runs once
        // solo and once co-run.
        let corun_runs = (corun_cfg.scenarios * corun_cfg.queries_per_scenario * 2) as u64;
        let runs = CHUNK_TRACES as u64 + corun_runs;
        self.out.sim_runs += runs;
        tally.ops(
            runs,
            if chunk.len() == CHUNK_TRACES && !corun.is_empty() {
                0
            } else {
                runs
            },
            format!("{phase}: chunk {k} came back short"),
        );
        self.out.chunks.push(ChunkRates {
            sim_runs_per_s: runs as f64 / sim_s,
            corun_samples_per_s: corun.len() as f64 / corun_s,
        });
        self.corun.extend(corun);
        self.chunks.push(chunk);
    }

    /// One chunk simulated (in the first rounds), [`TRAIN_CALLS`] small
    /// ensembles trained.
    pub fn round(&mut self, tracer: &mut Tracer, tally: &mut Tally) {
        if self.chunks.len() < MODEL_CHUNKS {
            self.simulate_chunk(tracer, tally);
        }
        let train = self.train_set.take().unwrap_or_else(|| Corpus {
            items: self.chunks[0]
                .successful()
                .into_iter()
                .take(TRAIN_ITEMS)
                .cloned()
                .collect(),
        });
        let cfg = TrainConfig {
            epochs: TRAIN_EPOCHS,
            seed: mix(self.seed, 33),
            ..Default::default()
        };
        let samples = (train.len() * TRAIN_EPOCHS * MEMBERS) as u64;
        let mut fastest_s = f64::INFINITY;
        for _ in 0..TRAIN_CALLS {
            let id = self.span_id();
            let t0 = Instant::now();
            let (ensemble, _) = tracer.timed(self.phase, "core", "Ensemble::train", id, None, || {
                Ensemble::train(&train, CostMetric::ProcessingLatency, &cfg, MEMBERS)
            });
            fastest_s = fastest_s.min(t0.elapsed().as_secs_f64());
            self.out.train_samples += samples;
            let finite = ensemble
                .predict_items(&train.items.iter().take(8).collect::<Vec<_>>())
                .iter()
                .all(|p| p.is_finite());
            tally.ops(
                samples,
                if finite { 0 } else { samples },
                format!("{}: a small model predicts a non-finite cost", self.phase),
            );
        }
        self.train_set = Some(train);
        self.out.train_samples_per_s.push(samples as f64 / fastest_s);
    }

    /// Trains and evaluates the reported model, fits the interference model.
    pub fn finish(mut self, tracer: &mut Tracer, tally: &mut Tally) -> BuildOutcome {
        let phase = self.phase;
        while self.chunks.len() < MODEL_CHUNKS {
            self.simulate_chunk(tracer, tally);
        }
        let first = label_digest(&self.chunks[0]);
        let again = Corpus::generate(
            CHUNK_TRACES,
            mix(self.seed, 3000),
            FeatureRanges::training(),
            &SimConfig::default(),
        );
        tally.ops(
            CHUNK_TRACES as u64,
            if label_digest(&again) == first {
                0
            } else {
                CHUNK_TRACES as u64
            },
            format!("{phase}: two passes over chunk 0 produced different labels"),
        );
        let corpus = Corpus {
            items: self.chunks.drain(..).flat_map(|c| c.items).collect(),
        };
        let mut digest = label_digest(&corpus);

        // --- train on the successful part of the 80 % split ---
        let (train, val, test) = corpus.split(mix(self.seed, 32));
        let train = Corpus {
            items: train
                .successful()
                .into_iter()
                .take(MODEL_TRAIN_ITEMS_MAX)
                .cloned()
                .collect(),
        };
        let cfg = TrainConfig {
            epochs: MODEL_EPOCHS,
            seed: mix(self.seed, 33),
            ..Default::default()
        };
        let id = self.span_id();
        let t0 = Instant::now();
        let (ensemble, _) = tracer.timed(phase, "core", "Ensemble::train", id, None, || {
            Ensemble::train(&train, CostMetric::ProcessingLatency, &cfg, MEMBERS)
        });
        self.out.train_epoch_ms = t0.elapsed().as_secs_f64() * 1e3 / MODEL_EPOCHS as f64;
        let samples = (train.len() * MODEL_EPOCHS * MEMBERS) as u64;
        self.out.train_samples += samples;

        // --- held-out q-error (validation + test splits: 20 % of the corpus) ---
        let heldout: Vec<&CorpusItem> = val.successful().into_iter().chain(test.successful()).collect();
        let id = self.span_id();
        let (predicted, _) = tracer.timed(phase, "core", "Ensemble::predict_items", id, None, || {
            ensemble.predict_items(&heldout)
        });
        let pairs: Vec<(f64, f64)> = heldout
            .iter()
            .zip(&predicted)
            .map(|(item, &p)| (item.metrics.processing_latency_ms, p))
            .collect();
        let q = QErrorSummary::of(&pairs);
        for &p in &predicted {
            digest.f64(p);
        }
        tally.ops(
            samples,
            if q.q50.is_finite() && q.q95.is_finite() {
                0
            } else {
                samples
            },
            format!("{phase}: held-out q-error is not finite"),
        );
        self.out.cost_qerror_p50 = q.q50;
        self.out.heldout_items = heldout.len();
        self.out.digest = digest;

        // --- the saved model must predict bitwise what the trained one does ---
        let json = serde_json::to_string(&ensemble).expect("ensembles serialize");
        let probe = &heldout[..heldout.len().min(ROUNDTRIP_ITEMS)];
        let same = serde_json::from_str::<Ensemble>(&json).is_ok_and(|back| {
            back.predict_items(probe)
                .iter()
                .zip(&predicted)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        tally.op((!same).then(|| format!("{phase}: the model does not survive a JSON round trip bitwise")));

        // --- interference model: fit, then q-error on a disjoint co-run corpus ---
        tally.op(self
            .corun
            .is_empty()
            .then(|| format!("{phase}: the co-run corpus is empty")));
        let id = self.span_id();
        let t0 = Instant::now();
        let (model, _) = tracer.timed(phase, "core", "InterferenceModel::fit", id, None, || {
            InterferenceModel::fit(&self.corun, 1.0)
        });
        self.out.interference_fit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let unseen = generate_corpus(&CorunConfig {
            seed: mix(self.seed, 34),
            ..Default::default()
        });
        let inflation: Vec<(f64, f64)> = unseen
            .iter()
            .map(|s| (s.inflation, model.predict_inflation_raw(&s.own, &s.ext, &s.host)))
            .collect();
        self.out.interference_qerror_p50 = QErrorSummary::of(&inflation).q50;
        tally.op((!self.out.interference_qerror_p50.is_finite())
            .then(|| format!("{phase}: interference q-error is not finite")));
        self.out
    }
}
