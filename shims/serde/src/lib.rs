//! Offline shim for the `serde` crate (see `shims/README.md`).
//!
//! Instead of serde's visitor-based data model, this shim routes every type
//! through a single self-describing [`Value`] tree: `Serialize` renders to
//! a `Value`, `Deserialize` parses from one. The `serde_json` shim then
//! maps `Value` to and from JSON text. Semantics follow real serde where
//! the workspace depends on them: externally tagged enums, field/variant
//! `rename`, container-level `try_from`/`into`, missing `Option` fields
//! deserializing to `None`, and unknown fields being ignored.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model both traits go through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer (used when the value exceeds `i64`).
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map with insertion-ordered string keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short description of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// An error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> DeError {
        DeError(msg.to_string())
    }

    /// A type-mismatch error.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Renders a value into the [`Value`] data model.
pub trait Serialize {
    /// The value tree for this object.
    fn to_value(&self) -> Value;
}

/// Parses a value out of the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Builds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Called when a struct field is absent entirely. `Option` overrides
    /// this to produce `None` (mirroring serde's `missing_field`); all
    /// other types report the missing field.
    fn from_missing(field: &str) -> Result<Self, DeError> {
        Err(DeError(format!("missing field `{field}`")))
    }
}

// ---------------------------------------------------------------- scalars

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i128;
                if v >= 0 && v > i64::MAX as i128 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(v as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("integer {n} out of range"))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("integer {n} out of range"))),
                    Value::F64(n) if n.fract() == 0.0 => Ok(*n as $t),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<f64, DeError> {
        match v {
            Value::F64(n) => Ok(*n),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            other => Err(DeError::expected("float", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<f32, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<(), DeError> {
        match v {
            Value::Null => Ok(()),
            other => Err(DeError::expected("null", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for &'static str {
    /// Real serde deserializes `&str` zero-copy from borrowed input; the
    /// shim's owned `Value` tree can't lend out data, so the string is
    /// leaked. Only tiny static tables (provider catalogs) use this.
    fn from_value(v: &Value) -> Result<&'static str, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<char, DeError> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single char, got {s:?}"))),
        }
    }
}

// ----------------------------------------------------------- std wrappers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Box<T>, DeError> {
        T::from_value(v).map(Box::new)
    }
}

// Real serde has these under its `rc` feature, which the shim declares but
// does not gate on. Each deserialized `Arc` is a fresh allocation.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<std::sync::Arc<T>, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_missing(_field: &str) -> Result<Option<T>, DeError> {
        Ok(None)
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn to_value(&self) -> Value {
        match self {
            Ok(x) => Value::Map(vec![("Ok".to_string(), x.to_value())]),
            Err(e) => Value::Map(vec![("Err".to_string(), e.to_value())]),
        }
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn from_value(v: &Value) -> Result<Result<T, E>, DeError> {
        if let Some(inner) = v.get("Ok") {
            return T::from_value(inner).map(Ok);
        }
        if let Some(inner) = v.get("Err") {
            return E::from_value(inner).map(Err);
        }
        Err(DeError::expected("{\"Ok\": ..} or {\"Err\": ..}", v))
    }
}

// ------------------------------------------------------------ collections

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("sequence", other)),
        }
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(v: &Value) -> Result<std::collections::BTreeSet<T>, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("sequence", other)),
        }
    }
}

impl<T: Serialize, S> Serialize for std::collections::HashSet<T, S> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort the rendered elements. HashSet
        // iteration order would otherwise leak into serialized artifacts.
        let mut values: Vec<Value> = self.iter().map(Serialize::to_value).collect();
        values.sort_by_key(|v| format!("{v:?}"));
        Value::Seq(values)
    }
}

impl<T: Deserialize + std::hash::Hash + Eq> Deserialize for std::collections::HashSet<T> {
    fn from_value(v: &Value) -> Result<std::collections::HashSet<T>, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("sequence", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<[T; N], DeError> {
        let items = Vec::<T>::from_value(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $idx:tt),+)),*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<($($t,)+), DeError> {
                let Value::Seq(items) = v else {
                    return Err(DeError::expected("tuple sequence", v));
                };
                let expect = [$(stringify!($idx)),+].len();
                if items.len() != expect {
                    return Err(DeError(format!(
                        "expected tuple of {expect}, got {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// Renders a map key: serde_json requires string keys, so the key's value
/// form must be a string (or integer, which is stringified like serde_json
/// does).
fn key_string<K: Serialize>(key: &K) -> String {
    match key.to_value() {
        Value::Str(s) => s,
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        other => panic!("map keys must serialize to strings, got {}", other.kind()),
    }
}

fn key_from_str<K: Deserialize>(s: &str) -> Result<K, DeError> {
    // Try the string form first, then integer forms (serde_json stringifies
    // integer keys on the way out).
    if let Ok(k) = K::from_value(&Value::Str(s.to_string())) {
        return Ok(k);
    }
    if let Ok(n) = s.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::I64(n)) {
            return Ok(k);
        }
    }
    Err(DeError(format!("cannot rebuild map key from {s:?}")))
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + std::hash::Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<HashMap<K, V>, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((key_from_str(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("map", other)),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<BTreeMap<K, V>, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((key_from_str(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("map", other)),
        }
    }
}

// ---------------------------------------------------------------- Value
// Identity impls, mirroring real serde_json's `Value: Serialize +
// Deserialize`: a `Value` serializes as itself and deserializes by
// cloning the tree, so `serde_json::from_str::<Value>` parses arbitrary
// JSON without a struct definition per file shape. The workspace's one
// user of `Value` is `scanner::supervisor`, which walks a serialized
// report into the run manifest's totals.

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// ------------------------------------------------------------- std::net

impl Serialize for std::net::Ipv4Addr {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for std::net::Ipv4Addr {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v)?
            .parse()
            .map_err(|e| DeError(format!("invalid IPv4 address: {e}")))
    }
}

impl Serialize for std::net::Ipv6Addr {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for std::net::Ipv6Addr {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v)?
            .parse()
            .map_err(|e| DeError(format!("invalid IPv6 address: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(7u32.to_value(), Value::I64(7));
        assert_eq!(u32::from_value(&Value::I64(7)).unwrap(), 7);
        assert_eq!(u64::MAX.to_value(), Value::U64(u64::MAX));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert!(u8::from_value(&Value::I64(300)).is_err());
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_string().to_value(), Value::Str("x".into()));
    }

    #[test]
    fn option_missing_field_is_none() {
        assert_eq!(Option::<u8>::from_missing("f").unwrap(), None);
        assert!(u8::from_missing("f").is_err());
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u8>::from_value(&Value::I64(4)).unwrap(), Some(4));
    }

    #[test]
    fn result_externally_tagged() {
        let ok: Result<u8, String> = Ok(1);
        let err: Result<u8, String> = Err("bad".into());
        assert_eq!(ok.to_value().get("Ok"), Some(&Value::I64(1)));
        assert_eq!(err.to_value().get("Err"), Some(&Value::Str("bad".into())));
        assert_eq!(
            Result::<u8, String>::from_value(&ok.to_value()).unwrap(),
            ok
        );
        assert_eq!(
            Result::<u8, String>::from_value(&err.to_value()).unwrap(),
            err
        );
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u8, 2, 3];
        assert_eq!(Vec::<u8>::from_value(&v.to_value()).unwrap(), v);
        let t = (1u8, "x".to_string());
        assert_eq!(<(u8, String)>::from_value(&t.to_value()).unwrap(), t);
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 5u8);
        assert_eq!(
            BTreeMap::<String, u8>::from_value(&m.to_value()).unwrap(),
            m
        );
        let shared = std::sync::Arc::new(7u8);
        assert_eq!(shared.to_value(), Value::I64(7));
        assert_eq!(
            std::sync::Arc::<u8>::from_value(&shared.to_value()).unwrap(),
            shared
        );
    }
}
