//! A deterministic 64-bit checksum shared by the storage and wire
//! layers.
//!
//! FNV-1a over the bytes: tiny, allocation-free and stable across
//! platforms — exactly what a simulated disk format and a byte-codec
//! need to detect torn writes and flipped bits. It is **not** a
//! cryptographic hash; the threat model is hardware corruption, not an
//! adversary.

/// FNV-1a 64-bit hash of `bytes`.
///
/// Used as the per-record checksum in `todr-storage`'s log format and
/// as the frame trailer of `todr-evs`'s byte codec. A single flipped
/// bit anywhere in the input changes the output with overwhelming
/// probability (collision odds ~2⁻⁶⁴ for random corruption).
pub fn checksum64(bytes: &[u8]) -> u64 {
    fold(OFFSET, bytes)
}

/// [`checksum64`] of the concatenation of `parts`, without building it:
/// FNV-1a folds one byte at a time, so the hash simply runs on from one
/// part into the next.
pub fn checksum64_of(parts: &[&[u8]]) -> u64 {
    parts.iter().fold(OFFSET, |hash, part| fold(hash, part))
}

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(checksum64(b""), 0xcbf29ce484222325);
        assert_eq!(checksum64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(checksum64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parts_hash_as_their_concatenation() {
        let whole = b"epoch-bytes||payload";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(checksum64_of(&[a, b]), checksum64(whole), "cut {cut}");
        }
        assert_eq!(checksum64_of(&[]), checksum64(b""));
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let base = b"the quick brown fox".to_vec();
        let reference = checksum64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn prefix_truncation_changes_the_checksum() {
        let base = b"0123456789abcdef".to_vec();
        let reference = checksum64(&base);
        for cut in 0..base.len() {
            assert_ne!(checksum64(&base[..cut]), reference, "cut {cut}");
        }
    }
}
