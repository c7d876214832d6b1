//! FNV-1a, the workspace's one 64-bit content hash: counts checksums,
//! calibration snapshot keys, service job keys and waveform hashes all
//! fold their inputs through it, so their values stay comparable.

/// The FNV-1a offset basis, the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds one `u64` word into `h`, as its eight little-endian bytes.
#[inline]
pub fn fnv1a(h: u64, word: u64) -> u64 {
    fnv1a_bytes(h, &word.to_le_bytes())
}

/// Folds a byte string into `h`.
#[inline]
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(FNV_OFFSET, 7),
            fnv1a_bytes(FNV_OFFSET, &7u64.to_le_bytes())
        );
    }
}
