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
//!
//! A named record is that document sealed with its checksum
//! ([`encode_record`]): the log seals each entry in its record header,
//! a named record carries its seal in its own bytes, so a buffer shared
//! by every replica that stores it is sealed once.

use std::cell::Cell;
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;
use todr_sim::checksum64_words;

pub use serde::bin::{Error as CodecError, ErrorKind as CodecErrorKind};

thread_local! {
    /// The buffer [`to_shared`] encodes into, kept between calls.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The largest [`SCRATCH`] buffer kept for the next encode.
const SCRATCH_KEEP: usize = 64 << 10;

/// Encodes a value as shareable bytes — what [`SharedEntry::encode`]
/// logs (the log seals each entry in its record header). The same bytes
/// as `serde::bin::to_vec`, in one allocation: the document is written
/// into a reused buffer first.
///
/// [`SharedEntry::encode`]: crate::SharedEntry::encode
pub fn to_shared<T: Serialize + ?Sized>(value: &T) -> Arc<[u8]> {
    encode_with(value, false)
}

/// Encodes a value as a named record: its codec document
/// followed by the 8-byte checksum of the document, computed once here
/// and shared with the bytes. What [`StorageHandle::put_record`] stages, and
/// what [`StorageHandle::put_record_shared`] takes; read back by
/// [`StableStore::get_record`](crate::StableStore::get_record), which
/// checks the seal.
///
/// [`StorageHandle::put_record`]: crate::StorageHandle::put_record
/// [`StorageHandle::put_record_shared`]: crate::StorageHandle::put_record_shared
pub fn encode_record<T: Serialize + ?Sized>(value: &T) -> Arc<[u8]> {
    encode_with(value, true)
}

/// Seals `payload` as a named record (see [`encode_record`]).
pub fn seal_record(payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    out.extend_from_slice(&checksum64_words(payload).to_le_bytes());
    out
}

/// Bytes of the checksum that ends a named record.
const SEAL_BYTES: usize = 8;

/// The document inside a sealed named record, if the seal holds.
pub(crate) fn unseal(record: &[u8]) -> Option<&[u8]> {
    let split = record.len().checked_sub(SEAL_BYTES)?;
    let (payload, seal) = record.split_at(split);
    let seal = u64::from_le_bytes(seal.try_into().ok()?);
    (seal == checksum64_words(payload)).then_some(payload)
}

fn encode_with<T: Serialize + ?Sized>(value: &T, seal: bool) -> Arc<[u8]> {
    let mut out = SCRATCH.take();
    out.clear();
    out.push(serde::bin::FORMAT);
    value.encode(&mut out);
    if seal {
        let checksum = checksum64_words(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
    }
    let bytes = Arc::from(&out[..]);
    if out.capacity() <= SCRATCH_KEEP {
        SCRATCH.set(out);
    }
    bytes
}

/// Decodes bytes produced by [`to_shared`].
pub(crate) fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    serde::bin::from_slice(bytes)
}
