//! Keyed (map/set) data items — the paper's claim that "more complex
//! structures like lists, trees, graphs, sets, maps … can be implemented
//! using this interface" (Sections 1 and 3.1), made concrete for maps.
//!
//! Elements are addressed by the *hash bucket* of their key: the region
//! scheme [`BucketRegion`] is a bitmask over `B` buckets (closed under the
//! set operations trivially), and [`KeyedFragment`] stores the key-value
//! pairs of the covered buckets. Distribution therefore follows consistent
//! hashing: the runtime can migrate or replicate any subset of buckets.

use allscale_des::fnv::{fnv1a_64, fnv1a_64_extend, FNV64_OFFSET};
use allscale_des::wire::{wire_struct, Sink, Wire};
use std::collections::BTreeMap;

use crate::fragment::Fragment;
use crate::region::Region;

/// A region over the hash buckets of a keyed data item.
///
/// All regions of one item must use the same bucket count; mixing counts
/// panics (it is a programming error, like mixing items).
#[derive(Clone)]
pub struct BucketRegion {
    buckets: u32,
    words: Vec<u64>,
}
wire_struct!(BucketRegion { buckets, words });

impl PartialEq for BucketRegion {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: empty regions are equal regardless of bucket
        // count (the canonical `Region::empty()` uses one bucket).
        if self.buckets == other.buckets {
            self.words == other.words
        } else {
            self.is_empty() && other.is_empty()
        }
    }
}

impl Eq for BucketRegion {}

impl BucketRegion {
    /// An empty region over `buckets` buckets.
    pub fn new(buckets: u32) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        BucketRegion {
            buckets,
            words: vec![0; (buckets as usize).div_ceil(64)],
        }
    }

    /// The region covering every bucket.
    pub fn full(buckets: u32) -> Self {
        Self::of_range(buckets, 0, buckets)
    }

    /// A region of one bucket.
    pub fn of_bucket(buckets: u32, b: u32) -> Self {
        let mut r = Self::new(buckets);
        r.set(b, true);
        r
    }

    /// A contiguous bucket range `[lo, hi)` — the block-distribution
    /// building block.
    pub fn of_range(buckets: u32, lo: u32, hi: u32) -> Self {
        let mut r = Self::new(buckets);
        let (lo, hi) = (lo as u64, hi.min(buckets) as u64);
        for (w, word) in r.words.iter_mut().enumerate() {
            // The part of [lo, hi) inside this word's 64 buckets.
            let base = w as u64 * 64;
            let from = lo.max(base) - base;
            let to = hi.min(base + 64).saturating_sub(base);
            if from < to {
                *word = (u64::MAX >> (64 - (to - from))) << from;
            }
        }
        r
    }

    /// Total bucket count of the item.
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Select or deselect a bucket.
    pub fn set(&mut self, b: u32, on: bool) {
        assert!(b < self.buckets, "bucket out of range");
        let (w, i) = ((b / 64) as usize, b % 64);
        if on {
            self.words[w] |= 1 << i;
        } else {
            self.words[w] &= !(1 << i);
        }
    }

    /// Whether bucket `b` is covered.
    pub fn contains(&self, b: u32) -> bool {
        if b >= self.buckets {
            return false;
        }
        (self.words[(b / 64) as usize] >> (b % 64)) & 1 == 1
    }

    /// Iterate covered buckets.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(w as u32 * 64 + bit)
            })
        })
    }

    /// Number of covered buckets.
    pub fn cardinality(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The bucket a key hashes into (FNV-1a 64 of its bytes: stable across
    /// runs and processes, like every other hash of the workspace).
    pub fn bucket_of_bytes(buckets: u32, key_bytes: &[u8]) -> u32 {
        (fnv1a_64(key_bytes) % buckets as u64) as u32
    }

    /// Regions of different bucket counts combine only when one is empty.
    #[inline]
    fn check_counts(&self, other: &Self) {
        if self.buckets != other.buckets {
            assert!(
                self.is_empty() || other.is_empty(),
                "bucket regions with different bucket counts"
            );
        }
    }

    /// Word-wise for every operand pair. The canonical `Region::empty()`
    /// has one bucket whatever the item's count — a data item manager's
    /// replica coverage is that value until a replica arrives — so an empty
    /// operand of another count reads as zero words of the larger count.
    fn zip(&self, other: &Self, op: fn(u64, u64) -> u64) -> Self {
        self.check_counts(other);
        // An operand has no buckets beyond its own end. Equal lengths — every
        // pair but those with the canonical empty — skip the padding, which
        // costs 20 % on hostbench's `region.bucket` probe.
        fn padded(r: &BucketRegion, len: usize) -> impl Iterator<Item = u64> + '_ {
            r.words.iter().copied().chain(std::iter::repeat(0)).take(len)
        }
        let len = self.words.len().max(other.words.len());
        let words = if self.words.len() == other.words.len() {
            self.words.iter().zip(&other.words).map(|(&a, &b)| op(a, b)).collect()
        } else {
            padded(self, len).zip(padded(other, len)).map(|(a, b)| op(a, b)).collect()
        };
        BucketRegion {
            buckets: self.buckets.max(other.buckets),
            words,
        }
    }
}

impl std::fmt::Debug for BucketRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BucketRegion({}/{} buckets)",
            self.cardinality(),
            self.buckets
        )
    }
}

impl Region for BucketRegion {
    fn empty() -> Self {
        BucketRegion::new(1)
    }
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
    fn union(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }
    fn intersect(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }
    fn difference(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & !b)
    }
    // The predicates read the words in place. An operand has no buckets
    // beyond its own end, so against the shorter canonical empty region
    // the missing words count as zero, as in `zip`.
    fn is_disjoint(&self, other: &Self) -> bool {
        self.check_counts(other);
        self.words.iter().zip(&other.words).all(|(&a, &b)| a & b == 0)
    }
    fn is_subset_of(&self, other: &Self) -> bool {
        self.check_counts(other);
        let theirs = other.words.iter().copied().chain(std::iter::repeat(0));
        self.words.iter().zip(theirs).all(|(&a, b)| a & !b == 0)
    }
}

/// The key-value pairs of a keyed data item's covered buckets.
#[derive(Clone)]
pub struct KeyedFragment<K: Ord, V> {
    region: BucketRegion,
    entries: BTreeMap<K, (u32, V)>, // key -> (bucket, value)
}
wire_struct!(KeyedFragment<K: Ord, V> { region, entries });

impl<K, V> KeyedFragment<K, V>
where
    K: Ord + Clone + Wire + 'static,
    V: Clone + Wire + 'static,
{
    /// An empty fragment covering `region`.
    pub fn new(region: BucketRegion) -> Self {
        KeyedFragment {
            region,
            entries: BTreeMap::new(),
        }
    }

    /// The bucket a key belongs to.
    pub fn bucket_of(&self, key: &K) -> u32 {
        let mut hash = KeyHash(FNV64_OFFSET);
        key.put(&mut hash);
        (hash.0 % self.region.buckets() as u64) as u32
    }

    /// Insert a key-value pair. Returns `false` (dropping the value) when
    /// the key's bucket is not covered here.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let b = self.bucket_of(&key);
        if !self.region.contains(b) {
            return false;
        }
        self.entries.insert(key, (b, value));
        true
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, (_, v))| (k, v))
    }
}

/// A key hashes as its wire form without the length prefixes, so that a
/// `String` key lands in the bucket of [`BucketRegion::bucket_of_bytes`]
/// over its UTF-8 bytes and an integer key in that of its little-endian
/// ones.
struct KeyHash(u64);

impl Sink for KeyHash {
    fn put(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_64_extend(self.0, bytes);
    }
    fn put_len(&mut self, _: usize) {}
}

impl<K, V> Fragment for KeyedFragment<K, V>
where
    K: Ord + Clone + Wire + 'static,
    V: Clone + Wire + 'static,
{
    type Region = BucketRegion;

    fn empty() -> Self {
        KeyedFragment {
            region: BucketRegion::empty(),
            entries: BTreeMap::new(),
        }
    }

    fn alloc(region: &BucketRegion) -> Self {
        KeyedFragment::new(region.clone())
    }

    fn region(&self) -> BucketRegion {
        self.region.clone()
    }

    fn extract(&self, region: &BucketRegion) -> Self {
        let r = self.region.intersect(region);
        let entries = self
            .entries
            .iter()
            .filter(|(_, (b, _))| r.contains(*b))
            .map(|(k, bv)| (k.clone(), bv.clone()))
            .collect();
        KeyedFragment { region: r, entries }
    }

    fn insert(&mut self, other: &Self) {
        self.region = self.region.union(&other.region);
        for (k, bv) in &other.entries {
            self.entries.insert(k.clone(), bv.clone());
        }
    }

    fn remove(&mut self, region: &BucketRegion) {
        self.region = self.region.difference(region);
        let keep = self.region.clone();
        self.entries.retain(|_, (b, _)| keep.contains(*b));
    }
}

impl<K: Ord, V> std::fmt::Debug for KeyedFragment<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KeyedFragment({:?}, {} entries)",
            self.region,
            self.entries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    const B: u32 = 16;

    fn oracle(r: &BucketRegion) -> BTreeSet<u32> {
        r.iter().collect()
    }

    #[test]
    fn bucket_region_laws() {
        let cases = [
            BucketRegion::new(B),
            BucketRegion::full(B),
            BucketRegion::of_range(B, 0, 8),
            BucketRegion::of_range(B, 4, 12),
            BucketRegion::of_bucket(B, 15),
        ];
        for a in &cases {
            for b in &cases {
                check_laws(a, b, oracle);
            }
        }
    }

    #[test]
    fn algebra_with_the_canonical_empty_matches_sets() {
        // 130 buckets: three words, the last one partial.
        const N: u32 = 130;
        let mut sparse = BucketRegion::new(N);
        for b in [0, 63, 64, 100, 129] {
            sparse.set(b, true);
        }
        let operands = [
            BucketRegion::empty(),
            BucketRegion::new(N),
            sparse,
            BucketRegion::of_range(N, 60, 70),
            BucketRegion::full(N),
        ];
        type RegionOp = fn(&BucketRegion, &BucketRegion) -> BucketRegion;
        type SetOp = fn(&BTreeSet<u32>, &BTreeSet<u32>) -> BTreeSet<u32>;
        let ops: [(RegionOp, SetOp); 3] = [
            (BucketRegion::union, |a, b| a | b),
            (BucketRegion::intersect, |a, b| a & b),
            (BucketRegion::difference, |a, b| a - b),
        ];
        for a in &operands {
            for b in &operands {
                // The predicates never index past the shorter operand.
                assert_eq!(a.is_subset_of(b), oracle(a).is_subset(&oracle(b)), "{a:?} ⊆ {b:?}");
                assert_eq!(a.is_disjoint(b), oracle(a).is_disjoint(&oracle(b)), "{a:?} ∩ {b:?}");
                for (op, set_op) in &ops {
                    let r = op(a, b);
                    assert_eq!(oracle(&r), set_op(&oracle(a), &oracle(b)), "{a:?} {b:?}");
                    assert_eq!(r.buckets(), a.buckets().max(b.buckets()));
                    assert_eq!(r.words.len(), (r.buckets() as usize).div_ceil(64));
                    assert_eq!(r.cardinality() as usize, oracle(&r).len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different bucket counts")]
    fn mixing_non_empty_bucket_counts_panics() {
        let _ = BucketRegion::full(8).union(&BucketRegion::full(16));
    }

    #[test]
    #[should_panic(expected = "different bucket counts")]
    fn predicates_on_non_empty_bucket_counts_panic_like_the_algebra() {
        let _ = BucketRegion::full(8).is_subset_of(&BucketRegion::full(16));
    }

    #[test]
    fn ranges_and_iteration_cross_word_boundaries() {
        for buckets in [1, 63, 64, 65, 130, 512] {
            for (lo, hi) in [(0, 0), (0, 1), (3, 64), (60, 70), (64, 128), (0, 600), (70, 60)] {
                let r = BucketRegion::of_range(buckets, lo, hi);
                let want: Vec<u32> = (lo..hi.min(buckets)).collect();
                assert_eq!(r.iter().collect::<Vec<_>>(), want, "{buckets}: [{lo}, {hi})");
                assert!(want.iter().all(|&b| r.contains(b)));
                assert_eq!(r.cardinality() as usize, want.len());
            }
            assert_eq!(BucketRegion::full(buckets).cardinality(), buckets);
        }
    }

    #[test]
    fn hashing_is_stable_and_spread() {
        // Same key, same bucket, forever.
        let b1 = BucketRegion::bucket_of_bytes(B, b"hello");
        let b2 = BucketRegion::bucket_of_bytes(B, b"hello");
        assert_eq!(b1, b2);
        // Different keys spread over multiple buckets.
        let used: BTreeSet<u32> = (0..64u64)
            .map(|i| BucketRegion::bucket_of_bytes(B, &i.to_le_bytes()))
            .collect();
        assert!(used.len() >= 8, "poor spread: {used:?}");
    }

    #[test]
    fn keyed_fragment_insert_get() {
        let mut f: KeyedFragment<u64, String> = KeyedFragment::new(BucketRegion::full(B));
        assert!(f.insert(7, "seven".into()));
        assert!(f.insert(11, "eleven".into()));
        assert_eq!(f.get(&7).map(String::as_str), Some("seven"));
        assert_eq!(f.get(&99), None);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn uncovered_buckets_reject_inserts() {
        // Find a key for bucket 0 and one for another bucket.
        let covered = BucketRegion::of_bucket(B, 3);
        let mut f: KeyedFragment<u64, u64> = KeyedFragment::new(covered);
        let mut hit = None;
        let mut miss = None;
        for k in 0..1000u64 {
            let b = f.bucket_of(&k);
            if b == 3 && hit.is_none() {
                hit = Some(k);
            }
            if b != 3 && miss.is_none() {
                miss = Some(k);
            }
        }
        let (hit, miss) = (hit.unwrap(), miss.unwrap());
        let mut f2 = f.extract(&BucketRegion::full(B));
        assert!(f.insert(hit, 1));
        assert!(!f.insert(miss, 2), "uncovered bucket must reject");
        let _ = &mut f2;
    }

    #[test]
    fn migration_moves_buckets() {
        let mut src: KeyedFragment<u64, u64> = KeyedFragment::new(BucketRegion::full(B));
        for k in 0..200u64 {
            src.insert(k, k * 10);
        }
        let lower = BucketRegion::of_range(B, 0, 8);
        let moved = src.extract(&lower);
        src.remove(&lower);
        let mut dst: KeyedFragment<u64, u64> = KeyedFragment::new(BucketRegion::new(B));
        Fragment::insert(&mut dst, &moved);
        assert_eq!(src.len() + dst.len(), 200);
        // Every key is in exactly one fragment, determined by its bucket.
        for k in 0..200u64 {
            let in_src = src.get(&k).is_some();
            let in_dst = dst.get(&k).is_some();
            assert!(in_src ^ in_dst, "key {k}");
        }
    }

    #[test]
    fn string_and_tuple_keys_hash() {
        let mut f: KeyedFragment<String, u32> = KeyedFragment::new(BucketRegion::full(B));
        assert!(f.insert("alpha".into(), 1));
        assert_eq!(f.get(&"alpha".to_string()), Some(&1));
        // A key hashes without its length prefix: callers that hold the
        // bytes (`examples/wordcount.rs`) find the same bucket.
        let of_bytes = BucketRegion::bucket_of_bytes(B, b"alpha");
        assert_eq!(f.bucket_of(&"alpha".to_string()), of_bytes);
        let mut g: KeyedFragment<(u32, u32), u32> = KeyedFragment::new(BucketRegion::full(B));
        assert!(g.insert((3, 4), 7));
        assert_eq!(g.get(&(3, 4)), Some(&7));
    }
}
