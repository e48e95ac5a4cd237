//! One language through the bridge: the text methods (`write_json` /
//! `read_json`, what `to_string` / `from_str` take) against the tree
//! methods (`to_value` / `from_value` over a parsed [`Value`], which
//! bridge through text), for every derived shape the workspace uses. They
//! must print the same bytes and accept the same inputs — including the
//! inputs only a hostile or a newer peer would send.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{json, Deserialize, Serialize, Value};
use serde_json::{from_str, to_string};

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Inner {
    a: u32,
    b: Option<f32>,
    label: String,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Pair(i32, f64);

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Marker;

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Kind {
    Unit,
    Other,
    One(Newtype),
    Two(u8, String),
    Rec { x: f32, inner: Inner },
    Empty {},
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Outer {
    id: u64,
    kind: Kind,
    #[serde(skip)]
    cache: Vec<u8>,
    edges: Vec<(usize, usize)>,
    waves: Vec<Option<usize>>,
    pair: Pair,
    boxed: Box<Inner>,
    flag: bool,
    neg: i64,
    marker: Marker,
    kinds: Vec<Kind>,
}

fn string(rng: &mut StdRng) -> String {
    const PIECES: [&str; 10] = ["a", "label", "\"", "\\", "\n", "\t", "\u{1}", "ü", "→", "𝄞"];
    (0..rng.gen_range(0..6usize))
        .map(|_| *PIECES.choose(rng).expect("non-empty"))
        .collect()
}

fn float(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..8u32) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => rng.gen_range(0..1000u32) as f32,
        3 => f32::from_bits(rng.gen::<u32>()),
        _ => rng.gen_range(-1e6f32..1e6),
    }
}

fn inner(rng: &mut StdRng) -> Inner {
    Inner {
        a: rng.gen(),
        b: rng.gen_bool(0.6).then(|| float(rng)),
        label: string(rng),
    }
}

fn kind(rng: &mut StdRng) -> Kind {
    match rng.gen_range(0..6u32) {
        0 => Kind::Unit,
        1 => Kind::Other,
        2 => Kind::One(Newtype(rng.gen())),
        3 => Kind::Two(rng.gen_range(0..=255u8), string(rng)),
        4 => Kind::Rec {
            x: float(rng),
            inner: inner(rng),
        },
        _ => Kind::Empty {},
    }
}

fn outer(rng: &mut StdRng) -> Outer {
    Outer {
        id: rng.gen(),
        kind: kind(rng),
        cache: vec![1, 2, 3],
        edges: (0..rng.gen_range(0..4usize))
            .map(|_| (rng.gen_range(0..50usize), rng.gen()))
            .collect(),
        waves: (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0..9usize)))
            .collect(),
        pair: Pair(rng.gen_range(i32::MIN..i32::MAX), f64::from(float(rng)) * 1e30),
        boxed: Box::new(inner(rng)),
        flag: rng.gen(),
        neg: rng.gen_range(i64::MIN..0),
        marker: Marker,
        kinds: (0..rng.gen_range(0..3usize)).map(|_| kind(rng)).collect(),
    }
}

fn compact(v: &Value) -> String {
    let mut out = String::new();
    json::write_value(v, &mut out);
    out
}

/// Both paths over one text: `Ok` with the same value (compared through
/// `Debug`, so NaN equals NaN) or `Err` together.
fn paths_agree<T: Deserialize + std::fmt::Debug>(text: &str) -> Result<(), TestCaseError> {
    let streamed = from_str::<T>(text).map(|v| format!("{v:?}")).ok();
    let via_tree = from_str::<Value>(text)
        .ok()
        .and_then(|tree| T::from_value(&tree).ok())
        .map(|v| format!("{v:?}"));
    prop_assert_eq!(&streamed, &via_tree, "paths disagree on {}", text);
    Ok(())
}

/// A small arbitrary tree: what an unknown field or a confused peer holds.
fn arbitrary(rng: &mut StdRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 6u32 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::UInt(rng.gen_range(0..300u64)),
        3 => Value::Int(-rng.gen_range(1..300i64)),
        4 => Value::Float(f64::from(rng.gen_range(-5.0f32..5.0))),
        5 => Value::Str(string(rng)),
        6 => Value::Array(
            (0..rng.gen_range(0..3usize))
                .map(|_| arbitrary(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..3usize))
                .map(|_| (string(rng), arbitrary(rng, depth - 1)))
                .collect(),
        ),
    }
}

const AS_FLOAT: &str = "§as-float§";

/// Walks the tree and applies, with some probability at each node, one of
/// the edits a reader must survive.
fn mutate(v: &mut Value, rng: &mut StdRng) {
    if rng.gen_bool(0.01) {
        *v = arbitrary(rng, 2);
        return;
    }
    match v {
        // Rendered as `<n>.0` by `render`: a float token where the type may
        // want an integer.
        Value::UInt(n) if rng.gen_bool(0.02) => *v = Value::Str(format!("{AS_FLOAT}{n}")),
        Value::Array(items) => {
            match rng.gen_range(0..12u32) {
                0 => items.push(arbitrary(rng, 1)),
                1 => drop(items.pop()),
                _ => {}
            }
            items.iter_mut().for_each(|item| mutate(item, rng));
        }
        Value::Object(fields) => {
            fields.iter_mut().for_each(|(_, item)| mutate(item, rng));
            if rng.gen_bool(0.5) {
                fields.shuffle(rng);
            }
            let at = rng.gen_range(0..=fields.len());
            match rng.gen_range(0..10u32) {
                0 => fields.insert(at, (format!("x{}", string(rng)), arbitrary(rng, 2))),
                1 if !fields.is_empty() => {
                    let key = fields.choose(rng).expect("non-empty").0.clone();
                    fields.insert(at, (key, arbitrary(rng, 2)));
                }
                2 if !fields.is_empty() => drop(fields.remove(at % fields.len())),
                _ => {}
            }
        }
        _ => {}
    }
}

fn render(v: &Value) -> String {
    let text = compact(v);
    let mut out = String::new();
    let mut rest = text.as_str();
    let marker = format!("\"{AS_FLOAT}");
    while let Some(at) = rest.find(&marker) {
        let digits = &rest[at + marker.len()..];
        let end = digits.find('"').expect("the marker sits in a string");
        out.push_str(&rest[..at]);
        out.push_str(&digits[..end]);
        out.push_str(".0");
        rest = &digits[end + 1..];
    }
    out + rest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn the_text_path_prints_the_tree_paths_bytes(seed in 0u64..u64::MAX) {
        let x = outer(&mut StdRng::seed_from_u64(seed));
        let text = to_string(&x).expect("serializes");
        prop_assert_eq!(&text, &compact(&x.to_value()));
        // What it printed reads back on either path; to the same value
        // unless a non-finite float went out as `null`.
        let want = format!("{:?}", Outer { cache: Vec::new(), ..x.clone() });
        let exact = !want.contains("NaN") && !want.contains("inf");
        let back = from_str::<Outer>(&text).expect("own output parses");
        prop_assert!(!exact || format!("{back:?}") == want, "{:?} came back as {:?}", x, back);
        prop_assert!(back.cache.is_empty(), "a skipped field is neither written nor read");
        paths_agree::<Outer>(&text)?;
    }

    #[test]
    fn both_paths_accept_the_same_language(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = outer(&mut rng).to_value();
        for _ in 0..rng.gen_range(1..4usize) {
            mutate(&mut tree, &mut rng);
        }
        let text = render(&tree);
        paths_agree::<Outer>(&text)?;
        for _ in 0..8 {
            let mut cut = rng.gen_range(0..text.len().max(1));
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            paths_agree::<Outer>(&text[..cut])?;
        }
    }
}

#[test]
fn the_edits_reach_both_outcomes() {
    // The language test is only worth its name if the mutated texts are
    // neither all accepted nor all rejected.
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..300 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = outer(&mut rng).to_value();
        mutate(&mut tree, &mut rng);
        match from_str::<Outer>(&render(&tree)) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted > 30 && rejected > 30,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn the_accepted_language_by_example() {
    let base = r#"{"a":1,"b":null,"label":"x"}"#;
    assert!(from_str::<Inner>(base).is_ok());
    // Any order; unknown fields skipped; the first of a repeated key wins.
    let v: Inner =
        from_str(r#" { "label" : "x", "zz": [1, {"q": null}], "a": 1, "a": "later", "b": 2 } "#).expect("ok");
    assert_eq!((v.a, v.b, v.label.as_str()), (1, Some(2.0), "x"));
    // A missing field is an error that names it.
    let err = from_str::<Inner>(r#"{"a":1,"label":"x"}"#).expect_err("b is missing");
    assert!(err.to_string().contains("missing field `b`"), "{err}");
    // An integer token for a float, not a float token for an integer.
    assert!(from_str::<Inner>(r#"{"a":1.0,"b":null,"label":"x"}"#).is_err());
    assert!(from_str::<Pair>("[1,2]").is_ok());
    assert!(from_str::<Pair>("[1.0,2]").is_err());
    // `null` is `None` for an option and NaN for a float.
    assert!(from_str::<Pair>("[1,null]").expect("ok").1.is_nan());
    // Externally tagged enums: a bare string or a one-key object.
    assert!(matches!(from_str::<Kind>(r#""Unit""#), Ok(Kind::Unit)));
    assert!(matches!(from_str::<Kind>(r#"{"Two":[7,"s"]}"#), Ok(Kind::Two(7, _))));
    assert!(from_str::<Kind>(r#""Two""#).is_err());
    assert!(from_str::<Kind>(r#"{"Unit":null,"Other":null}"#).is_err());
    assert!(from_str::<Kind>(r#"{"Nope":null}"#).is_err());
    assert!(from_str::<Kind>("{}").is_err());
}
