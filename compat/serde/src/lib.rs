//! Minimal, offline, API-compatible subset of `serde`: serialization
//! only.
//!
//! The real `serde` crate is unavailable in this build environment (no
//! registry access), so the workspace vendors a tiny replacement that
//! supports exactly the surface the jgre crates use: `#[derive(Serialize)]`
//! on non-generic structs and enums whose fields are built from std
//! types. Instead of serde's visitor architecture, serialization goes
//! through an intermediate [`Value`] tree, which `serde_json` renders
//! using the same JSON encoding conventions as real serde + serde_json
//! (externally tagged enums, `null` for `None`, arrays for tuples and
//! sequences, objects for maps and named structs). Nothing is decoded
//! back into typed values: `serde_json` parses JSON text into a
//! [`Value`] and stops there.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

pub use serde_derive::Serialize;

/// Intermediate self-describing data tree used by this serde subset.
///
/// Object fields are kept in insertion order (a `Vec`, not a map) so that
/// struct serialization preserves declaration order like real serde.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (JSON number without sign or fraction).
    UInt(u64),
    /// Signed integer (negative JSON number).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, fields in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Return the elements if this value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Return the string contents if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Return the value as an unsigned integer if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Return the value as a signed integer if it fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Return the value as a float (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Return the boolean if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Indexing an object value by field name; absent fields yield `Null`
/// (mirrors `serde_json::Value`'s `Index<&str>` behaviour).
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// Indexing an array value by position; out-of-range yields `Null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! impl_value_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::UInt(n) => i128::from(*n) == *other as i128,
                    Value::Int(n) => i128::from(*n) == *other as i128,
                    _ => false,
                }
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_value_eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` into the intermediate value tree.
    fn to_value(&self) -> Value;

    /// The value tree to render: borrowed when `self` already is a
    /// [`Value`], so a renderer writes it in place instead of deep-copying
    /// it; [`Serialize::to_value`] otherwise.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(u64::from(*self))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = i64::from(*self);
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        let v = *self as i64;
        if v >= 0 {
            Value::UInt(v as u64)
        } else {
            Value::Int(v)
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

/// Serializes the shared value, as serde's `rc` feature does (sharing is
/// not preserved).
#[cfg(feature = "rc")]
impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + Eq + std::hash::Hash> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// How map keys are encoded as JSON object keys. Mirrors serde_json: a
/// string key is used verbatim, an integer key is rendered in decimal.
pub trait MapKey {
    /// Render the key as a JSON object key.
    fn to_key(&self) -> String;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
}

macro_rules! impl_map_key_num {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

impl_map_key_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
