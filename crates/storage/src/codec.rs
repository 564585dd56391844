//! The record codec: the one place that decides how a typed value
//! becomes stored bytes and back.
//!
//! Records and log entries are the vendored serde facade's binary
//! documents ([`serde::bin`]): a format byte, then one self-describing
//! value written in a single streaming pass, byte strings as one bulk
//! copy. Encoding cannot fail. Decoding is total over arbitrary bytes —
//! stored bytes are outside input once a disk has had them — and a
//! record written by an earlier build as JSON text fails at its first
//! byte with [`CodecErrorKind::BadFormat`].

use serde::de::DeserializeOwned;
use serde::Serialize;

pub use serde::bin::{Error as CodecError, ErrorKind as CodecErrorKind};

/// Encodes a value for storage.
pub(crate) fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    serde::bin::to_vec(value)
}

/// Decodes bytes produced by [`to_bytes`].
pub(crate) fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    serde::bin::from_slice(bytes)
}
