//! The two serialization paths of the serde shim on the artifacts this
//! repo stores: a trained `Ensemble` (nested tensors, enums, skipped
//! caches) and a `Corpus` (queries, clusters, placements, labels). The
//! text path `to_string` / `from_str` take must write the bytes the tree
//! path always wrote — stored models stay loadable and byte-stable — and
//! read back what it reads.

use costream::prelude::*;
use costream::test_fixtures;
use serde::{json, Deserialize, Serialize, Value};

/// The tree path, spelled out: value tree, then its compact rendering.
fn via_tree(value: &impl Serialize) -> String {
    let mut out = String::new();
    json::write_value(&value.to_value(), &mut out);
    out
}

fn from_tree<T: Deserialize>(text: &str) -> T {
    let tree: Value = serde_json::from_str(text).expect("own output parses as a tree");
    T::from_value(&tree).expect("own output has the type's shape")
}

#[test]
fn a_trained_ensemble_and_a_corpus_serialize_identically_on_both_paths() {
    let corpus = test_fixtures::corpus(24, 140);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 2);

    let corpus_text = serde_json::to_string(&corpus).expect("serializes");
    assert_eq!(corpus_text, via_tree(&corpus));
    assert_eq!(corpus_text, corpus.to_json());
    let ensemble_text = serde_json::to_string(&ensemble).expect("serializes");
    assert_eq!(ensemble_text, via_tree(&ensemble));

    // Read back on either path, both are the artifact that was written.
    for back in [
        serde_json::from_str::<Corpus>(&corpus_text).expect("text path"),
        from_tree::<Corpus>(&corpus_text),
    ] {
        assert_eq!(serde_json::to_string(&back).expect("serializes"), corpus_text);
    }
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = ensemble.predict_graphs(&refs);
    for back in [
        serde_json::from_str::<Ensemble>(&ensemble_text).expect("text path"),
        from_tree::<Ensemble>(&ensemble_text),
    ] {
        assert_eq!(serde_json::to_string(&back).expect("serializes"), ensemble_text);
        let again = back.predict_graphs(&refs);
        assert!(
            direct.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()),
            "a reloaded ensemble predicts bitwise what the trained one does"
        );
    }
}
