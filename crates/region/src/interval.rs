//! One-dimensional interval-set regions — the natural region type for
//! arrays and other linearly addressed data items (paper Example 2.1).

use allscale_des::wire::wire_struct;

use crate::region::Region;

/// A set of disjoint, non-adjacent, sorted half-open intervals `[lo, hi)`
/// over `u64` element indices.
#[derive(Clone, PartialEq, Eq)]
pub struct IntervalRegion {
    /// Sorted, pairwise disjoint, non-touching intervals.
    ivs: Vec<(u64, u64)>,
}
wire_struct!(IntervalRegion { ivs });

impl IntervalRegion {
    /// The single interval `[lo, hi)`; empty when `lo >= hi`.
    pub fn span(lo: u64, hi: u64) -> Self {
        if lo >= hi {
            Self::empty()
        } else {
            IntervalRegion { ivs: vec![(lo, hi)] }
        }
    }

    /// Build from arbitrary intervals (overlap and disorder allowed).
    pub fn from_intervals<I: IntoIterator<Item = (u64, u64)>>(ivs: I) -> Self {
        let mut v: Vec<(u64, u64)> = ivs.into_iter().filter(|(l, h)| l < h).collect();
        v.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
        for (l, h) in v {
            match out.last_mut() {
                Some((_, ph)) if l <= *ph => *ph = (*ph).max(h),
                _ => out.push((l, h)),
            }
        }
        IntervalRegion { ivs: out }
    }

    /// The normalized intervals.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.ivs
    }

    /// Number of covered indices.
    pub fn cardinality(&self) -> u64 {
        self.ivs.iter().map(|(l, h)| h - l).sum()
    }

    /// Whether index `i` is covered.
    pub fn contains(&self, i: u64) -> bool {
        // Binary search on interval starts.
        match self.ivs.binary_search_by(|&(l, _)| l.cmp(&i)) {
            Ok(_) => true,
            Err(0) => false,
            Err(k) => i < self.ivs[k - 1].1,
        }
    }

    /// Iterate over every covered index.
    pub fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.ivs.iter().flat_map(|&(l, h)| l..h)
    }
}

impl std::fmt::Debug for IntervalRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Intervals{:?}", self.ivs)
    }
}

impl Region for IntervalRegion {
    fn empty() -> Self {
        IntervalRegion { ivs: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    fn union(&self, other: &Self) -> Self {
        Self::from_intervals(self.ivs.iter().chain(other.ivs.iter()).copied())
    }

    fn intersect(&self, other: &Self) -> Self {
        // Linear merge sweep over both sorted interval lists.
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.ivs.len() && j < other.ivs.len() {
            let (al, ah) = self.ivs[i];
            let (bl, bh) = other.ivs[j];
            let lo = al.max(bl);
            let hi = ah.min(bh);
            if lo < hi {
                out.push((lo, hi));
            }
            if ah <= bh {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalRegion { ivs: out }
    }

    fn difference(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let mut j = 0;
        for &(al, ah) in &self.ivs {
            let mut lo = al;
            // Skip other-intervals entirely before this one.
            while j < other.ivs.len() && other.ivs[j].1 <= al {
                j += 1;
            }
            let mut k = j;
            while k < other.ivs.len() && other.ivs[k].0 < ah {
                let (bl, bh) = other.ivs[k];
                if lo < bl {
                    out.push((lo, bl.min(ah)));
                }
                lo = lo.max(bh);
                if bh >= ah {
                    break;
                }
                k += 1;
            }
            if lo < ah {
                out.push((lo, ah));
            }
        }
        IntervalRegion { ivs: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    fn oracle(r: &IntervalRegion) -> BTreeSet<u64> {
        r.indices().collect()
    }

    #[test]
    fn normalization_merges_touching() {
        let r = IntervalRegion::from_intervals([(5, 7), (0, 3), (3, 5)]);
        assert_eq!(r.intervals(), &[(0, 7)]);
        assert_eq!(r.cardinality(), 7);
    }

    #[test]
    fn degenerate_spans_are_empty() {
        assert!(IntervalRegion::span(4, 4).is_empty());
        assert!(IntervalRegion::span(5, 2).is_empty());
    }

    #[test]
    fn contains_uses_binary_search_correctly() {
        let r = IntervalRegion::from_intervals([(2, 4), (8, 10)]);
        for i in 0..12 {
            assert_eq!(r.contains(i), (2..4).contains(&i) || (8..10).contains(&i));
        }
    }

    #[test]
    fn laws_on_fixed_cases() {
        let cases = [
            IntervalRegion::empty(),
            IntervalRegion::span(0, 10),
            IntervalRegion::span(5, 15),
            IntervalRegion::from_intervals([(0, 2), (4, 6), (8, 10)]),
            IntervalRegion::from_intervals([(1, 5), (9, 12)]),
            IntervalRegion::span(3, 4),
        ];
        for a in &cases {
            for b in &cases {
                check_laws(a, b, oracle);
            }
        }
    }

    #[test]
    fn difference_splinters() {
        let a = IntervalRegion::span(0, 10);
        let b = IntervalRegion::from_intervals([(2, 3), (5, 7)]);
        let d = a.difference(&b);
        assert_eq!(d.intervals(), &[(0, 2), (3, 5), (7, 10)]);
    }
}
