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
use std::fmt;

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

/// Integers print through [`json::write_u64`] and read through the reader's
/// 64-bit entries; a value the type does not hold is "number out of range",
/// never wrapped.
macro_rules! impl_int {
    ($wide:ty, $write:ident, $read:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) { json::$write(*self as $wide, out); }
        }
        impl Deserialize for $t {
            #[inline]
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                let wide = r.$read()?;
                <$t>::try_from(wide).map_err(|_| json::out_of_range(&wide.to_string()))
            }
        }
    )*};
}
impl_int!(i64, write_i64, i64: i8, i16, i32, i64, isize);
impl_int!(u64, write_u64, u64: u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            // An `f32` prints as its `f64` widening: stored models and wire
            // frames keep their bytes.
            fn write_json(&self, out: &mut String) { json::write_f64(*self as f64, out); }
        }
        impl Deserialize for $t {
            #[inline]
            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                if r.null()? {
                    return Ok(<$t>::NAN);
                }
                r.f64().map(|f| f as $t)
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

/// The first `FIRST_ELEMENTS` elements are read into a buffer on the
/// stack, so an array no longer than that (a feature vector, an edge list)
/// costs one allocation of exactly its length, not a chain of doublings.
impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        let mut first = [const { None }; FIRST_ELEMENTS];
        let mut n = 0;
        let mut more = r.begin_array()?;
        while more && n < FIRST_ELEMENTS {
            first[n] = Some(T::read_json(r)?);
            n += 1;
            more = r.array_next()?;
        }
        let mut items = Vec::with_capacity(if more { 2 * FIRST_ELEMENTS } else { n });
        items.extend(first.into_iter().flatten());
        while more {
            items.push(T::read_json(r)?);
            more = r.array_next()?;
        }
        Ok(items)
    }
}

/// How many elements of an array [`Vec`]'s reader holds before it allocates.
const FIRST_ELEMENTS: usize = 16;

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

    fn text<T: Serialize>(v: T) -> String {
        let mut out = String::new();
        v.write_json(&mut out);
        out
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut r = json::Reader::new(text);
        let v = T::read_json(&mut r)?;
        r.end()?;
        Ok(v)
    }

    #[test]
    fn integer_writers_print_what_to_string_prints() {
        macro_rules! check {
            ($($t:ty),*) => {$(
                for v in [0, 9, 10, <$t>::MIN, <$t>::MAX, <$t>::MAX / 7] {
                    assert_eq!(text(v), v.to_string(), stringify!($t));
                    assert_eq!(read::<$t>(&text(v)).unwrap(), v, stringify!($t));
                }
            )*};
        }
        check!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);
    }

    #[test]
    fn integers_refuse_what_their_type_does_not_hold() {
        let out_of_range = |e: DeError| e.0.contains("number out of range");
        assert!(read::<u32>("4294967296").is_err_and(out_of_range));
        assert!(read::<u8>("300").is_err_and(out_of_range));
        assert!(read::<u8>("-1").is_err_and(out_of_range));
        assert!(read::<i32>("3000000000").is_err_and(out_of_range));
        assert!(read::<i64>("18446744073709551615").is_err_and(out_of_range));
        assert!(read::<u64>("18446744073709551616").is_err_and(out_of_range));
        assert!(read::<i8>("-129").is_err_and(out_of_range));
        assert_eq!(read::<i8>("-128").unwrap(), i8::MIN);
        assert_eq!(read::<u32>("4294967295").unwrap(), u32::MAX);
        // A float token is not an integer, `-0` included.
        for float in ["1.0", "1e2", "-0"] {
            let err = read::<i64>(float).expect_err(float);
            assert!(err.0.contains("expected integer"), "{err}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        assert_eq!(text(-0.0f64), "-0");
        assert_eq!(text(-0.0f32), "-0");
        assert_eq!(read::<f64>("-0").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(read::<f32>("-0").unwrap().to_bits(), (-0.0f32).to_bits());
        // Through the tree as well.
        let tree = (-0.0f32).to_value();
        assert_eq!(f32::from_value(&tree).unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(f64::from_value(&tree).unwrap().to_bits(), (-0.0f64).to_bits());
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
