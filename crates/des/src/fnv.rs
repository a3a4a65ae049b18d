//! FNV-1a 64-bit: the one stable, dependency-free hash of the workspace.
//!
//! Region fingerprints in the location cache, checkpoint-shard and frame
//! checksums, the scrubber's replica digests and report digests all use
//! it. The hash has to be *stable* (the same bytes always hash the same
//! way, across runs and processes — fingerprints and digests travel
//! through reports and tests) and *cheap* (it sits on the hot path in
//! front of the index and under every sealed transfer), so it is the
//! classic FNV-1a function rather than `std`'s randomly-keyed `SipHash`.
//! It is **not** cryptographic: the threat model of the checksums is
//! silent corruption, not an adversary.
//!
//! Hash equality does NOT imply equality of what was hashed: callers that
//! need exactness (the location cache does) must confirm candidate hits
//! with a real equality check. Collisions there cost a cache miss, never
//! a wrong answer.

/// The FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with FNV-1a 64-bit.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(FNV64_OFFSET, bytes)
}

/// Continue an FNV-1a 64-bit hash: the hash of the bytes hashed into
/// `state` so far (starting from [`FNV64_OFFSET`]) followed by `bytes`.
#[inline]
pub fn fnv1a_64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values of the canonical FNV-1a 64-bit function.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        let whole = fnv1a_64(b"foobar");
        assert_eq!(fnv1a_64_extend(fnv1a_64(b"foo"), b"bar"), whole);
        assert_eq!(fnv1a_64_extend(whole, b""), whole);
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(fnv1a_64(b"0 10"), fnv1a_64(b"0 11"));
        assert_ne!(fnv1a_64(&[0, 1]), fnv1a_64(&[1, 0]));
    }
}
