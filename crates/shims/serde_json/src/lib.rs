//! Vendored stand-in for `serde_json`: the two entry points over the
//! serde shim's JSON layer (`serde::json`).
//!
//! [`to_string`] and [`from_str`] take the text methods of the traits
//! (`Serialize::write_json`, `Deserialize::read_json`): one pass over the
//! value or the input, no `Value` tree in between. A hand-written impl
//! that defines only the tree methods (`to_value` / `from_value`) works
//! with both through the traits' default bridge.
//!
//! Numbers print as Rust's `{}` prints them (shortest round trip for a
//! float), so `f32`/`f64` values survive a serialize → parse cycle exactly,
//! `-0.0` included. Non-finite floats serialize as `null` (as upstream
//! serde_json does) and parse back as NaN. A number token follows RFC 8259
//! (`+1`, `01`, `.5` and `1.` are errors); one no finite `f64` holds, and an
//! integer its type does not hold (`300` for a `u8`), is "number out of
//! range" (as upstream's), never wrapped. As upstream, `-0` is a float
//! token, refused where an integer is expected. Arrays and objects nest at
//! most `serde::json::MAX_DEPTH` deep.

use serde::json::Reader;
use serde::{DeError, Deserialize, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::with_capacity(128);
    value.write_json(&mut out);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = Reader::new(s);
    let value = T::read_json(&mut reader)?;
    reader.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(), u64::MAX);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        // Compared bit for bit: `==` would let `-0.0` come back as `0.0`.
        for &x in &[0.1f32, 1e-7, 2.718_45, -2.0, 6.02e23, -0.0, 0.0, 16_777_216.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&s).unwrap().to_bits(), x.to_bits(), "via {s}");
        }
        for &x in &[
            0.1f64,
            1e-300,
            2.0f64.powi(60) + 1.0,
            -0.0,
            0.0,
            1e300,
            -(2f64.powi(53)),
        ] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap().to_bits(), x.to_bits(), "via {s}");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let original = "line\n\"quoted\"\tüñî";
        let s = to_string(&original.to_string()).unwrap();
        assert_eq!(from_str::<String>(&s).unwrap(), original);
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<(usize, usize)> = vec![(1, 2), (3, 4)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,2],[3,4]]");
        assert_eq!(from_str::<Vec<(usize, usize)>>(&s).unwrap(), v);
        let o: Option<Vec<f32>> = Some(vec![1.0, 2.0]);
        let s = to_string(&o).unwrap();
        assert_eq!(from_str::<Option<Vec<f32>>>(&s).unwrap(), o);
    }

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    struct Metric {
        value: f64,
        unit: String,
    }

    /// Name → metric in report order, written against `Value` alone (the
    /// derive covers no map types): only the tree methods are defined, and
    /// `to_string` / `from_str` reach it through the traits' bridge.
    #[derive(Debug)]
    struct Metrics(Vec<(String, Metric)>);

    impl Serialize for Metrics {
        fn to_value(&self) -> Value {
            Value::Object(self.0.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
        }
    }

    impl Deserialize for Metrics {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            match v {
                Value::Object(fields) => fields
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), Metric::from_value(v)?)))
                    .collect::<Result<Vec<_>, DeError>>()
                    .map(Metrics),
                other => Err(DeError::msg(format!("expected metrics object, got {other:?}"))),
            }
        }
    }

    #[test]
    fn a_tree_only_impl_round_trips_through_the_text_entry_points() {
        let metric = |value: f64, unit: &str| Metric {
            value,
            unit: unit.into(),
        };
        let m = Metrics(vec![
            ("rate".into(), metric(2.5, "1/s")),
            ("count".into(), metric(3.0, "count")),
            ("gap".into(), metric(f64::NAN, "ms")),
        ]);
        let text = to_string(&m).unwrap();
        let want = r#"{"rate":{"value":2.5,"unit":"1/s"},"count":{"value":3,"unit":"count"},"gap":{"value":null,"unit":"ms"}}"#;
        assert_eq!(text, want);
        let back: Metrics = from_str(&text).unwrap();
        assert_eq!(to_string(&back).unwrap(), want);
        assert_eq!((back.0[0].1.value, back.0[1].1.value), (2.5, 3.0));
        assert!(back.0[2].1.value.is_nan());
        // A member's text rules hold through the bridge: `value` takes an
        // integer token, `unit` does not.
        assert!(from_str::<Metrics>(r#"{"x":{"value":1,"unit":2}}"#).is_err());
        assert!(from_str::<Metrics>("[]").is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u8>>("[1, 2").is_err());
        assert!(from_str::<u8>("1 garbage").is_err());
    }
}
