//! Cell values.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A value stored in a database cell.
///
/// ```
/// use todr_db::Value;
///
/// let v = Value::Int(42);
/// assert_eq!(v.as_int(), Some(42));
/// assert_eq!(v.to_string(), "42");
/// ```
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub enum Value {
    /// Absent / SQL NULL.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes (e.g. an opaque application payload).
    Bytes(Vec<u8>),
}

impl Clone for Value {
    fn clone(&self) -> Self {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(n) => Value::Int(*n),
            Value::Text(s) => Value::Text(s.clone()),
            Value::Bytes(v) => Value::Bytes(v.clone()),
        }
    }

    /// Reuses `self`'s buffer when both values are text or both are
    /// bytes, so overwriting a row with a value of the same kind and no
    /// larger allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Value::Text(held), Value::Text(s)) => held.clone_from(s),
            (Value::Bytes(held), Value::Bytes(v)) => held.clone_from(v),
            (held, source) => *held = source.clone(),
        }
    }
}

impl Value {
    /// The integer inside, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The text inside, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Feeds this value into a running FNV-1a digest; used for database
    /// content digests.
    pub(crate) fn digest_into(&self, h: &mut u64) {
        fn byte(h: &mut u64, b: u8) {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100000001b3);
        }
        match self {
            Value::Null => byte(h, 0),
            Value::Bool(b) => {
                byte(h, 1);
                byte(h, *b as u8);
            }
            Value::Int(n) => {
                byte(h, 2);
                for b in n.to_le_bytes() {
                    byte(h, b);
                }
            }
            Value::Text(s) => {
                byte(h, 3);
                for b in s.as_bytes() {
                    byte(h, *b);
                }
            }
            Value::Bytes(v) => {
                byte(h, 4);
                for b in v {
                    byte(h, *b);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Text("x".into()).as_int(), None);
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(vec![1u8]), Value::Bytes(vec![1]));
    }

    #[test]
    fn digest_distinguishes_types() {
        // Int(0), Bool(false), Null must digest differently.
        let digests: Vec<u64> = [Value::Int(0), Value::Bool(false), Value::Null]
            .iter()
            .map(|v| {
                let mut h = 0xcbf29ce484222325;
                v.digest_into(&mut h);
                h
            })
            .collect();
        assert_ne!(digests[0], digests[1]);
        assert_ne!(digests[1], digests[2]);
        assert_ne!(digests[0], digests[2]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Text("a".into()).to_string(), "\"a\"");
        assert_eq!(Value::Bytes(vec![0, 1]).to_string(), "<2 bytes>");
    }
}
