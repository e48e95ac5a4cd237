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
//! # Two methods per trait
//!
//! Each trait has a text method and a tree method. [`Serialize::write_json`]
//! appends JSON text and [`Deserialize::read_json`] pulls tokens from a
//! [`json::Reader`]; the derive and every impl in this crate define them
//! directly, so `serde_json::to_string` / `from_str` build no tree, allocate
//! no key and print no number through a temporary. [`Serialize::to_value`]
//! and [`Deserialize::from_value`] go through a [`Value`] tree. The tree
//! stays for two callers: pretty printing, which needs to know a
//! container's contents before it indents them, and hand-written impls
//! (a map type, say), which can be written against [`Value`] alone because
//! the text methods default to a bridge through it. The derive emits both
//! pairs; nothing chooses between them at run time, and the shim's
//! differential tests hold them to one language and one output.

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

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
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

/// Types that can render themselves as JSON text or as a [`Value`].
pub trait Serialize {
    /// Serializes `self` into the value tree.
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON: the same bytes as rendering
    /// [`Serialize::to_value`], which is what the default body does.
    fn write_json(&self, out: &mut String) {
        json::write_value(&self.to_value(), out, None);
    }
}

/// Types that can be rebuilt from JSON text or from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Rebuilds `Self` from the reader's next value, accepting what
    /// [`Deserialize::from_value`] accepts of the parsed tree, which is
    /// what the default body does.
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        Self::from_value(&r.value()?)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool, got {other:?}"))),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
            fn write_json(&self, out: &mut String) { let _ = write!(out, "{self}"); }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => Err(DeError::msg(format!("expected integer, got {other:?}"))),
                }
            }
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                Self::from_value(&r.number()?)
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
            fn write_json(&self, out: &mut String) { let _ = write!(out, "{self}"); }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) if *i >= 0 => Ok(*i as $t),
                    other => Err(DeError::msg(format!("expected unsigned integer, got {other:?}"))),
                }
            }
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                Self::from_value(&r.number()?)
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                if f.is_finite() { Value::Float(f) } else { Value::Null }
            }
            // An `f32` prints as its `f64` widening, like the tree path:
            // stored models and wire frames keep their bytes.
            fn write_json(&self, out: &mut String) { json::write_f64(*self as f64, out); }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::msg(format!("expected number, got {other:?}"))),
                }
            }
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                if r.null()? { Ok(<$t>::NAN) } else { Self::from_value(&r.number()?) }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string, got {other:?}"))),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.string().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Box::new(T::from_value(v)?))
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        T::read_json(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(inner) => inner.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::msg(format!("expected array, got {other:?}"))),
        }
    }

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
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

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
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
            fn write_json(&self, out: &mut String) {
                $(
                    out.push(if $n == 0 { '[' } else { ',' });
                    self.$n.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) => {
                        Ok(($($t::from_value(items.get($n).ok_or_else(|| DeError::msg("tuple too short"))?)?,)+))
                    }
                    other => Err(DeError::msg(format!("expected tuple array, got {other:?}"))),
                }
            }
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
    use super::{DeError, Deserialize, Value};

    /// Extracts and deserializes a named struct field.
    pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
        match v.get(name) {
            Some(inner) => T::from_value(inner).map_err(|e| DeError::msg(format!("field `{name}`: {}", e.0))),
            None => Err(DeError::msg(format!("missing field `{name}`"))),
        }
    }

    /// Extracts and deserializes one element of a tuple-struct array.
    pub fn elem<T: Deserialize>(v: &Value, idx: usize) -> Result<T, DeError> {
        match v {
            Value::Array(items) => {
                let inner = items
                    .get(idx)
                    .ok_or_else(|| DeError::msg(format!("missing tuple element {idx}")))?;
                T::from_value(inner)
            }
            other => Err(DeError::msg(format!("expected tuple array, got {other:?}"))),
        }
    }

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

    /// Splits an externally-tagged enum value into `(variant, payload)`.
    pub fn enum_variant(v: &Value) -> Result<(&str, Option<&Value>), DeError> {
        match v {
            Value::Str(name) => Ok((name.as_str(), None)),
            Value::Object(fields) if fields.len() == 1 => Ok((fields[0].0.as_str(), Some(&fields[0].1))),
            other => Err(DeError::msg(format!("expected enum variant, got {other:?}"))),
        }
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
