//! Vendored stand-in for `serde_json`: the three entry points over the
//! serde shim's JSON layer (`serde::json`).
//!
//! [`to_string`] and [`from_str`] take the text methods of the traits
//! (`Serialize::write_json`, `Deserialize::read_json`): one pass over the
//! value or the input, no `Value` tree in between. [`to_string_pretty`] is
//! the one caller of the tree (`Serialize::to_value`): an indenting printer
//! has to know whether a container is empty before it opens it. Hand-written
//! impls that define only the tree methods work with all three through the
//! traits' default bodies.
//!
//! Numbers print through Rust's shortest-round-trip float formatting, so
//! `f32`/`f64` values survive a serialize → parse cycle exactly. Non-finite
//! floats serialize as `null` (as upstream serde_json does) and parse back
//! as NaN; a number token no finite `f64` holds is an error (as upstream's
//! "number out of range"). Arrays and objects nest at most
//! `serde::json::MAX_DEPTH` deep.

use serde::json::{self, Reader};
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

/// Serializes a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    json::write_value(&value.to_value(), &mut out, Some(2));
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
        for &x in &[0.1f32, 1e-7, 2.718_45, -2.0, 6.02e23] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&s).unwrap(), x, "via {s}");
        }
        for &x in &[0.1f64, 1e-300, 2.0f64.powi(60) + 1.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "via {s}");
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

    #[test]
    fn pretty_output_is_parseable() {
        let v: Vec<Vec<u8>> = vec![vec![1], vec![2, 3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u8>>>(&s).unwrap(), v);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u8>>("[1, 2").is_err());
        assert!(from_str::<u8>("1 garbage").is_err());
    }
}
