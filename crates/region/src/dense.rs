//! Dense regions: a set over a fixed universe of slots, one bit per slot,
//! packed into `u64` words — the representation of both the hash-bucket
//! regions of keyed items ([`BucketRegion`](crate::BucketRegion), the
//! universe is the bucket count) and the blocked tree regions
//! ([`BitmaskTreeRegion`](crate::BitmaskTreeRegion), the universe is the
//! split depth `h`, which names `2^h + 1` slots).
//!
//! The set algebra is word-wise logic and lives here once, with its one
//! rule for operands of two universes: they combine only when the
//! smaller-universe one is empty, and the result is in the larger
//! universe. The canonical `Region::empty()` has the smallest universe
//! whatever the item's — a data item manager's replica coverage is that
//! value until a replica arrives — so it combines with every region of
//! every item, and an empty result it takes part in is sized like the
//! item's regions. Two non-empty operands of two universes are a
//! programming error (like mixing items) and panic with the scheme's
//! message.

use std::fmt;

use allscale_des::wire::{wire_struct, Wire};

use crate::region::Region;

/// The size of a dense region's universe: a bucket count (`u32`) or a
/// tree's split depth (`u8`). A larger value never names fewer slots.
pub trait Universe: Copy + Ord + Wire + 'static {
    /// The universe of the canonical `Region::empty()`.
    const CANONICAL: Self;
    /// The panic message for two non-empty operands of two universes.
    const MIXED: &'static str;
    /// How many slots the universe has.
    fn slots(self) -> usize;
    /// The scheme's `Debug` form of `r`.
    fn describe(r: &Dense<Self>, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

/// A set of slots of a universe `S`; its wire form is the universe, then
/// the words.
#[derive(Clone)]
pub struct Dense<S> {
    pub(crate) universe: S,
    /// Slot `i` is bit `i % 64` of word `i / 64`; bits past the last slot
    /// are zero.
    pub(crate) words: Vec<u64>,
}
wire_struct!(Dense<S> { universe, words });

impl<S: Universe> Dense<S> {
    /// The empty set over `universe`.
    pub(crate) fn empty_in(universe: S) -> Self {
        Dense {
            universe,
            words: vec![0; universe.slots().div_ceil(64)],
        }
    }

    pub(crate) fn set_bit(&mut self, i: usize, on: bool) {
        let (w, b) = (i / 64, i % 64);
        if on {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    pub(crate) fn bit(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set the slots `[lo, hi)` (`hi` at most the slot count).
    pub(crate) fn fill(&mut self, lo: usize, hi: usize) {
        for (w, word) in self.words.iter_mut().enumerate() {
            // The part of [lo, hi) inside this word's 64 slots.
            let base = w * 64;
            let from = lo.max(base) - base;
            let to = hi.min(base + 64).saturating_sub(base);
            if from < to {
                *word |= (u64::MAX >> (64 - (to - from))) << from;
            }
        }
    }

    /// The set slots, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(w * 64 + bit as usize)
            })
        })
    }

    /// How many slots are set.
    pub(crate) fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Panics unless `self` and `other` may combine: one universe, or the
    /// smaller-universe operand empty.
    #[inline]
    fn check_mix(&self, other: &Self) {
        if self.universe != other.universe {
            let smaller = if self.universe < other.universe {
                self
            } else {
                other
            };
            assert!(smaller.is_empty(), "{}", S::MIXED);
        }
    }

    /// Word-wise `op` of the two operands, in the larger universe; the
    /// smaller-universe operand has no slots past its own words, which
    /// read as zero.
    fn zip(&self, other: &Self, op: fn(u64, u64) -> u64) -> Self {
        self.check_mix(other);
        // Equal lengths — every pair but some with the canonical empty —
        // skip the padding, which costs 20 % on hostbench's `region.bucket`
        // probe.
        fn padded<S>(r: &Dense<S>, len: usize) -> impl Iterator<Item = u64> + '_ {
            r.words
                .iter()
                .copied()
                .chain(std::iter::repeat(0))
                .take(len)
        }
        let len = self.words.len().max(other.words.len());
        let words = if self.words.len() == other.words.len() {
            self.words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| op(a, b))
                .collect()
        } else {
            padded(self, len)
                .zip(padded(other, len))
                .map(|(a, b)| op(a, b))
                .collect()
        };
        Dense {
            universe: self.universe.max(other.universe),
            words,
        }
    }
}

impl<S: Universe> PartialEq for Dense<S> {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: empty regions are equal whatever their
        // universe.
        if self.universe == other.universe {
            // Same universe, same number of words: compared in one pass of
            // xors, for a handful of words cheaper than a `memcmp` call.
            let diff = self.words.iter().zip(&other.words);
            diff.fold(0, |acc, (a, b)| acc | (a ^ b)) == 0
        } else {
            self.is_empty() && other.is_empty()
        }
    }
}

impl<S: Universe> Eq for Dense<S> {}

impl<S: Universe> fmt::Debug for Dense<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        S::describe(self, f)
    }
}

impl<S: Universe> Region for Dense<S> {
    fn empty() -> Self {
        Dense::empty_in(S::CANONICAL)
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
    // The predicates read the words in place, the missing words of a
    // smaller-universe operand counting as zero, as in `zip`.
    fn is_disjoint(&self, other: &Self) -> bool {
        self.check_mix(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }
    fn is_subset_of(&self, other: &Self) -> bool {
        self.check_mix(other);
        let theirs = other.words.iter().copied().chain(std::iter::repeat(0));
        self.words.iter().zip(theirs).all(|(&a, b)| a & !b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitmaskTreeRegion, BucketRegion};
    use allscale_des::wire;

    /// One scheme's three operands: the canonical empty (`C`), an empty
    /// (`E`) and a non-empty (`N`) region of an item's universe.
    fn mixing_table<S: Universe + fmt::Debug>(sized_empty: Dense<S>, non_empty: Dense<S>) {
        let operands = [
            ('C', Dense::<S>::empty()),
            ('E', sized_empty),
            ('N', non_empty),
        ];
        let named = |c: char| &operands.iter().find(|(n, _)| *n == c).unwrap().1;
        // a, b: a ∪ b, a ∩ b, a ∖ b, then whether a ⊆ b, a ∩ b = ∅, a = b.
        // A result named `E` is the empty region of the item's universe.
        #[rustfmt::skip]
        let table = [
            ("CC", "CCC", [true, true, true]),
            ("CE", "EEE", [true, true, true]),
            ("CN", "NEE", [true, true, false]),
            ("EC", "EEE", [true, true, true]),
            ("EE", "EEE", [true, true, true]),
            ("EN", "NEE", [true, true, false]),
            ("NC", "NEN", [false, true, false]),
            ("NE", "NEN", [false, true, false]),
            ("NN", "NNE", [true, false, true]),
        ];
        type Op<S> = fn(&Dense<S>, &Dense<S>) -> Dense<S>;
        let ops: [(&str, Op<S>); 3] = [
            ("∪", Dense::union),
            ("∩", Dense::intersect),
            ("∖", Dense::difference),
        ];
        for (pair, results, [subset, disjoint, equal]) in table {
            let mut names = pair.chars();
            let (a, b) = (names.next().unwrap(), names.next().unwrap());
            let (x, y) = (named(a), named(b));
            for ((sym, op), want) in ops.iter().zip(results.chars()) {
                let (got, want) = (op(x, y), named(want));
                assert_eq!(got.universe, want.universe, "universe of {a} {sym} {b}");
                assert_eq!(
                    wire::encode(&got),
                    wire::encode(want),
                    "bytes of {a} {sym} {b}"
                );
            }
            assert_eq!(x.is_subset_of(y), subset, "{a} ⊆ {b}");
            assert_eq!(x.is_disjoint(y), disjoint, "{a} ∩ {b} = ∅");
            assert_eq!(x == y, equal, "{a} = {b}");
        }
    }

    #[test]
    fn mixed_universes_combine_into_the_larger_one_in_both_schemes() {
        // 130 buckets: three words; split depth 8: 257 slots, five words.
        mixing_table(BucketRegion::new(130), BucketRegion::of_range(130, 60, 70));
        let mut tree = BitmaskTreeRegion::of_subtree(8, 200);
        tree.set_root_block(true);
        mixing_table(BitmaskTreeRegion::new(8), tree);
    }
}
