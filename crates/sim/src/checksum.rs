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

/// A 64-bit checksum of `bytes` that folds eight bytes per step, four
/// independent lanes at a time: for bytes sealed on every write, where
/// [`checksum64`]'s byte-at-a-time loop shows in host time (a named
/// record in `todr-storage` is re-encoded and re-sealed whenever it
/// changes). Each step is a bijection of its lane's state for a given
/// word — xor, multiply by an odd constant, xor-shift — and the lanes,
/// the tail words and the length are folded in by the same step, so a
/// change confined to one 8-byte word always changes the result; a cut
/// changes the folded length too. A different function from
/// [`checksum64`], not a faster form of it.
pub fn checksum64_words(bytes: &[u8]) -> u64 {
    fn step(hash: u64, word: u64) -> u64 {
        let x = (hash ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^ (x >> 32)
    }
    fn word(bytes: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(buf)
    }
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut hash = lanes.into_iter().fold(OFFSET, step);
    for w in blocks.remainder().chunks(8) {
        hash = step(hash, word(w));
    }
    step(hash, bytes.len() as u64)
}

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

    #[test]
    fn word_checksum_sees_every_flip_cut_and_trailing_zero() {
        // Two 32-byte blocks, a tail word and a tail fragment.
        let base: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(29)).collect();
        let reference = checksum64_words(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64_words(&flipped), reference, "{byte}.{bit}");
            }
        }
        for cut in 0..base.len() {
            assert_ne!(checksum64_words(&base[..cut]), reference, "cut {cut}");
        }
        // The zero-padded tail word is told apart by the length.
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(checksum64_words(&padded), reference);
    }
}
