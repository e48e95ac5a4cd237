//! Vendored stand-in for `serde`.
//!
//! The build environment is offline, so this crate provides the slice of
//! serde this workspace relies on: `#[derive(Serialize, Deserialize)]` for
//! structs and enums (including `#[serde(skip)]`), implementations for the
//! std types used in the models (numbers, strings, `Vec`, `Option`,
//! tuples), a generic [`Value`] tree, and the JSON text layer ([`json`]).
//!
//! The data model follows serde's JSON conventions: structs become
//! objects, unit enum variants become strings, newtype/tuple variants
//! become single-key objects (externally tagged), and newtype structs are
//! transparent.
//!
//! # One path, and a bridge
//!
//! Serialization is JSON text. [`Serialize::write_json`] appends it and
//! [`Deserialize::read_json`] pulls tokens from a [`json::Reader`]; the
//! derive and every impl in this crate define exactly these, so
//! `serde_json::to_string` / `from_str` build no tree, allocate no key and
//! print no number through a temporary.
//!
//! [`Serialize::to_value`] and [`Deserialize::from_value`] are a bridge to
//! the [`Value`] tree for hand-written impls (a map type, say, which the
//! derive does not cover). Each trait's two methods default to each other
//! through text, so an impl defines either one per trait: text types get
//! the tree by parsing what they write, and a type written against
//! [`Value`] alone gets the text methods by rendering its tree. The bridge
//! accepts exactly what the text path accepts: a float stays a float
//! token across it, so an integer field rejects `1.0` either way.

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::fmt::{self, Write};

/// A self-describing serialized value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for non-finite floats).
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (used when the value does not fit `i64`).
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Ordered key-value map (field order preserved).
    Object(Vec<(String, Value)>),
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Clone, Debug)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves as JSON text. Define either method;
/// each default goes through the other.
pub trait Serialize {
    /// Appends `self` as compact JSON. The default renders
    /// [`Serialize::to_value`].
    fn write_json(&self, out: &mut String) {
        json::write_value(&self.to_value(), out);
    }

    /// `self` as a value tree. The default parses what
    /// [`Serialize::write_json`] writes, so the tree holds what the text
    /// path reads back (a float printed as `2` is the integer `2`).
    ///
    /// # Panics
    /// When that text nests deeper than [`json::MAX_DEPTH`].
    fn to_value(&self) -> Value {
        let mut text = String::new();
        self.write_json(&mut text);
        json::Reader::new(&text).value().expect("own JSON output parses")
    }
}

/// Types that can be rebuilt from JSON text. Define either method; each
/// default goes through the other.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the reader's next value. The default parses a
    /// [`Value`] and hands it to [`Deserialize::from_value`].
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        Self::from_value(&r.value()?)
    }

    /// Rebuilds `Self` from a value tree. The default renders the tree and
    /// reads it back with [`Deserialize::read_json`].
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mut text = String::new();
        json::write_value(v, &mut text);
        Self::read_json(&mut json::Reader::new(&text))
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        json::write_value(self, out);
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.value()
    }

    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) { let _ = write!(out, "{self}"); }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                match r.number()? {
                    Value::Int(i) => Ok(i as $t),
                    Value::UInt(u) => Ok(u as $t),
                    other => Err(DeError::msg(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) { let _ = write!(out, "{self}"); }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                match r.number()? {
                    Value::UInt(u) => Ok(u as $t),
                    other => Err(DeError::msg(format!("expected unsigned integer, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            // An `f32` prints as its `f64` widening: stored models and wire
            // frames keep their bytes.
            fn write_json(&self, out: &mut String) { json::write_f64(*self as f64, out); }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                if r.null()? {
                    return Ok(<$t>::NAN);
                }
                match r.number()? {
                    Value::Float(f) => Ok(f as $t),
                    Value::Int(i) => Ok(i as $t),
                    Value::UInt(u) => Ok(u as $t),
                    other => Err(DeError::msg(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Deserialize for String {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.string().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        T::read_json(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(inner) => inner.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        let mut more = r.begin_array()?;
        while more {
            items.push(T::read_json(r)?);
            more = r.array_next()?;
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                $(
                    out.push(if $n == 0 { '[' } else { ',' });
                    self.$n.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                let mut more = r.begin_array()?;
                let tuple = ($(de_helpers::read_elem::<$t>(r, &mut more, $n)?,)+);
                de_helpers::finish_array(r, more)?;
                Ok(tuple)
            }
        }
    )*};
}
impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Helpers referenced by the code that `#[derive(Serialize, Deserialize)]`
/// expands to. Not intended for direct use.
pub mod de_helpers {
    use super::json::Reader;
    use super::{DeError, Deserialize};

    /// Reads the value of a named field the reader stands at.
    pub fn read_field<T: Deserialize>(r: &mut Reader<'_>, name: &str) -> Result<T, DeError> {
        T::read_json(r).map_err(|e| DeError::msg(format!("field `{name}`: {}", e.0)))
    }

    /// Unwraps a field slot after its object has been read.
    pub fn required<T>(slot: Option<T>, name: &str) -> Result<T, DeError> {
        slot.ok_or_else(|| DeError::msg(format!("missing field `{name}`")))
    }

    /// Reads element `idx` of the array the reader is inside; `more` is what
    /// `begin_array` / `array_next` last returned and is kept up to date.
    pub fn read_elem<T: Deserialize>(r: &mut Reader<'_>, more: &mut bool, idx: usize) -> Result<T, DeError> {
        if !*more {
            return Err(DeError::msg(format!("missing tuple element {idx}")));
        }
        let elem = T::read_json(r)?;
        *more = r.array_next()?;
        Ok(elem)
    }

    /// Skips the elements a tuple does not take, up to the `]`.
    pub fn finish_array(r: &mut Reader<'_>, mut more: bool) -> Result<(), DeError> {
        while more {
            r.skip_value()?;
            more = r.array_next()?;
        }
        Ok(())
    }

    /// The error for text that is neither `"Variant"` nor a one-key object.
    pub fn not_a_variant(type_name: &str) -> DeError {
        DeError::msg(format!("expected enum variant of {type_name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        let t: (usize, usize) = Deserialize::from_value(&(3usize, 4usize).to_value()).unwrap();
        assert_eq!(t, (3, 4));
        // An integer takes no float, as `from_str` rejects `1.0` for one.
        assert!(u32::from_value(&Value::Float(1.0)).is_err());
        assert_eq!(f64::from_value(&Value::UInt(1)).unwrap(), 1.0);
    }

    #[test]
    fn nan_becomes_null_and_back() {
        let v = f64::NAN.to_value();
        assert_eq!(v, Value::Null);
        assert!(f64::from_value(&v).unwrap().is_nan());
    }

    #[test]
    fn vec_of_tuples_roundtrips() {
        let edges: Vec<(usize, usize)> = vec![(0, 1), (2, 3)];
        let back: Vec<(usize, usize)> = Deserialize::from_value(&edges.to_value()).unwrap();
        assert_eq!(back, edges);
    }
}
