//! The workspace's one hasher for in-memory tables keyed by a few words.
//!
//! `std`'s `HashMap` hashes with SipHash under a random key, a defence
//! against adversarial keys that the simulator's tables (tree paths, cache
//! keys) never see and that costs as much as the probe it serves. A
//! [`MulXor`] folds each word of the key into its state with a rotate, an
//! xor and one multiply. Nothing observable may depend on such a table's
//! iteration order — it was already random per process under SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply-xor round per integer the key writes (a byte slice is
/// written byte by byte); `finish` folds the well-mixed high half into the
/// low bits the table indexes by.
#[derive(Default, Clone, Copy)]
pub struct MulXor(u64);

impl Hasher for MulXor {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(29) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` hashed by [`MulXor`].
pub type MulXorMap<K, V> = HashMap<K, V, BuildHasherDefault<MulXor>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<MulXor>::default().hash_one(key)
    }

    #[test]
    fn each_word_of_a_key_moves_the_low_bits() {
        // The table indexes by the low bits: keys differing in any one word
        // must land in different buckets of a small table.
        let base = (3u32, 7usize, 0xdead_beef_u64);
        let keys = [
            base,
            (4, 7, 0xdead_beef),
            (3, 8, 0xdead_beef),
            (3, 7, 0xdead_bef0),
        ];
        let low: std::collections::BTreeSet<u64> = keys.iter().map(|k| hash_of(k) & 0xff).collect();
        assert_eq!(low.len(), keys.len());
    }

    #[test]
    fn a_map_keyed_by_words_finds_what_it_holds() {
        let mut map = MulXorMap::default();
        for i in 0..1_000u64 {
            map.insert((i as u32, i as usize % 7, i * 31), i);
        }
        assert!((0..1_000u64).all(|i| map[&(i as u32, i as usize % 7, i * 31)] == i));
    }
}
