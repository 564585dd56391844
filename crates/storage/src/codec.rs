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

use std::cell::Cell;
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;

pub use serde::bin::{Error as CodecError, ErrorKind as CodecErrorKind};

thread_local! {
    /// The buffer [`to_shared`] encodes into, kept between calls.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The largest [`SCRATCH`] buffer kept for the next encode.
const SCRATCH_KEEP: usize = 64 << 10;

/// Encodes a value for storage as shareable bytes — what
/// [`StorageHandle::put_record`] stages and [`SharedEntry::encode`]
/// logs, for a caller that shares them through
/// [`StorageHandle::put_record_shared`]. The same bytes as
/// `serde::bin::to_vec`, in one allocation: the document is written into
/// a reused buffer first.
///
/// [`StorageHandle::put_record`]: crate::StorageHandle::put_record
/// [`SharedEntry::encode`]: crate::SharedEntry::encode
/// [`StorageHandle::put_record_shared`]: crate::StorageHandle::put_record_shared
pub fn to_shared<T: Serialize + ?Sized>(value: &T) -> Arc<[u8]> {
    let mut out = SCRATCH.take();
    out.clear();
    out.push(serde::bin::FORMAT);
    value.encode(&mut out);
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
