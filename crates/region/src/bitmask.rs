//! Blocked tree regions (paper Fig. 4c): "the overall tree is divided into
//! one root tree of height h and 2^h sub-trees. Thus, a simple bit-mask of
//! length 2^h + 1 is sufficient to model regions, providing a much more
//! efficient scheme, yet less flexible distribution options."
//!
//! Bit 0 selects the root block (the top `h` levels as a whole); bit
//! `1 + i` selects the complete subtree hanging below the `i`-th node of
//! level `h` (left to right). All set operations are plain bitwise logic —
//! this is the scheme the TPC evaluation code uses to distribute its
//! kd-tree.

use allscale_des::wire::wire_struct;

use crate::region::Region;
use crate::tree::TreeRegion;
use crate::treepath::TreePath;

/// A coarse, bitmask-backed region over a binary tree split at depth `h`.
///
/// Two regions are only compatible (for set operations) if they share the
/// same split depth `h`; mixing depths is a programming error and panics.
#[derive(Clone)]
pub struct BitmaskTreeRegion {
    h: u8,
    /// Bit 0: root block; bits 1..=2^h: subtrees, packed into u64 words.
    words: Vec<u64>,
}
wire_struct!(BitmaskTreeRegion { h, words });

impl PartialEq for BitmaskTreeRegion {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: all empty regions are equal regardless of
        // split depth (the canonical `Region::empty()` uses depth 0).
        if self.h == other.h {
            self.words == other.words
        } else {
            self.is_empty() && other.is_empty()
        }
    }
}

impl Eq for BitmaskTreeRegion {}

impl BitmaskTreeRegion {
    /// An empty region for a tree split at depth `h` (`h <= 24`).
    pub fn new(h: u8) -> Self {
        assert!(h <= 24, "split depth {h} too large for a bitmask region");
        let bits = (1usize << h) + 1;
        BitmaskTreeRegion {
            h,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// The split depth.
    #[inline]
    pub fn split_depth(&self) -> u8 {
        self.h
    }

    /// Number of subtree blocks (`2^h`).
    #[inline]
    pub fn subtree_count(&self) -> usize {
        1 << self.h
    }

    /// The whole tree: root block plus every subtree.
    pub fn full(h: u8) -> Self {
        let mut r = Self::new(h);
        r.set_root_block(true);
        for i in 0..r.subtree_count() {
            r.set_subtree(i, true);
        }
        r
    }

    /// Select or deselect the root block (top `h` levels).
    pub fn set_root_block(&mut self, on: bool) {
        self.set_bit(0, on);
    }

    /// Whether the root block is selected.
    pub fn has_root_block(&self) -> bool {
        self.get_bit(0)
    }

    /// Select or deselect subtree `i` (0-based, left to right at depth `h`).
    pub fn set_subtree(&mut self, i: usize, on: bool) {
        assert!(i < self.subtree_count(), "subtree index out of range");
        self.set_bit(1 + i, on);
    }

    /// Whether subtree `i` is selected.
    pub fn has_subtree(&self, i: usize) -> bool {
        assert!(i < self.subtree_count(), "subtree index out of range");
        self.get_bit(1 + i)
    }

    /// Indices of all selected subtrees.
    pub fn subtrees(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.subtree_count()).filter(|&i| self.has_subtree(i))
    }

    /// A region containing exactly subtree `i`.
    pub fn of_subtree(h: u8, i: usize) -> Self {
        let mut r = Self::new(h);
        r.set_subtree(i, true);
        r
    }

    /// A region containing exactly the root block.
    pub fn of_root_block(h: u8) -> Self {
        let mut r = Self::new(h);
        r.set_root_block(true);
        r
    }

    /// The path of the node at depth `h` that roots subtree `i`: the `h`
    /// bits of `i`, most-significant step first (left-to-right ordering of
    /// level `h`).
    pub fn subtree_root(&self, i: usize) -> TreePath {
        assert!(i < self.subtree_count());
        let steps: Vec<bool> = (0..self.h)
            .rev()
            .map(|b| (i >> b) & 1 == 1)
            .collect();
        TreePath::from_steps(&steps)
    }

    /// Which block a node path belongs to: `None` = root block, `Some(i)` =
    /// subtree `i`.
    pub fn block_of(h: u8, path: &TreePath) -> Option<usize> {
        if path.depth() < h {
            return None;
        }
        let mut i = 0usize;
        for d in 0..h {
            i = (i << 1) | (path.step(d) as usize);
        }
        Some(i)
    }

    /// Whether the node at `path` is in the region.
    pub fn contains(&self, path: &TreePath) -> bool {
        match Self::block_of(self.h, path) {
            None => self.has_root_block(),
            Some(i) => self.has_subtree(i),
        }
    }

    /// Number of member nodes in a complete tree of `height` levels.
    pub fn cardinality(&self, height: u8) -> u64 {
        let mut n = 0;
        if self.has_root_block() {
            n += (1u64 << self.h.min(height)) - 1;
        }
        if height > self.h {
            let per_subtree = (1u64 << (height - self.h)) - 1;
            n += self.subtrees().count() as u64 * per_subtree;
        }
        n
    }

    /// Convert to the flexible [`TreeRegion`] scheme (exact).
    pub fn to_tree_region(&self, height: u8) -> TreeRegion {
        let mut r = TreeRegion::empty();
        if self.has_root_block() {
            // Root block = whole tree minus all depth-h subtrees, bounded
            // implicitly by the item height when enumerated.
            let mut block = TreeRegion::subtree(TreePath::ROOT);
            for i in 0..self.subtree_count() {
                block = block.difference(&TreeRegion::subtree(self.subtree_root(i)));
            }
            r = r.union(&block);
        }
        for i in self.subtrees() {
            r = r.union(&TreeRegion::subtree(self.subtree_root(i)));
        }
        let _ = height; // height only matters for enumeration, not structure
        r
    }

    fn set_bit(&mut self, i: usize, on: bool) {
        let (w, b) = (i / 64, i % 64);
        if on {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    fn get_bit(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        (self.words[w] >> b) & 1 == 1
    }

    fn assert_one_empty(&self, other: &Self) {
        assert!(
            self.is_empty() || other.is_empty(),
            "bitmask regions with different split depths are incompatible"
        );
    }

    fn zip(&self, other: &Self, op: fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.h, other.h,
            "bitmask regions with different split depths are incompatible"
        );
        BitmaskTreeRegion {
            h: self.h,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| op(a, b))
                .collect(),
        }
    }
}

impl std::fmt::Debug for BitmaskTreeRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitmaskTreeRegion(h={}, root={}, subtrees={:?})",
            self.h,
            self.has_root_block(),
            self.subtrees().collect::<Vec<_>>()
        )
    }
}

impl Region for BitmaskTreeRegion {
    fn empty() -> Self {
        // The canonical empty region uses split depth 0 (1 subtree). All
        // operations require matching depths, so `empty()` is mostly useful
        // through `R::new(h)`; is_empty/union handle the general case.
        BitmaskTreeRegion::new(0)
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn union(&self, other: &Self) -> Self {
        // Allow the canonical empty value to combine with any depth.
        if self.is_empty() && self.h != other.h {
            return other.clone();
        }
        if other.is_empty() && self.h != other.h {
            return self.clone();
        }
        self.zip(other, |a, b| a | b)
    }

    fn intersect(&self, other: &Self) -> Self {
        if (self.is_empty() || other.is_empty()) && self.h != other.h {
            return Self::new(self.h.max(other.h));
        }
        self.zip(other, |a, b| a & b)
    }

    fn difference(&self, other: &Self) -> Self {
        if other.is_empty() && self.h != other.h {
            return self.clone();
        }
        if self.is_empty() && self.h != other.h {
            return Self::new(self.h);
        }
        self.zip(other, |a, b| a & !b)
    }

    // The predicates read the words in place; across split depths they
    // give the algebra's answer for an empty operand and panic like it
    // for two non-empty ones.
    fn is_disjoint(&self, other: &Self) -> bool {
        if self.h != other.h {
            self.assert_one_empty(other);
            return true;
        }
        self.words.iter().zip(&other.words).all(|(&a, &b)| a & b == 0)
    }

    fn is_subset_of(&self, other: &Self) -> bool {
        if self.h != other.h {
            self.assert_one_empty(other);
            return self.is_empty();
        }
        self.words.iter().zip(&other.words).all(|(&a, &b)| a & !b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    const H_SPLIT: u8 = 2;
    const HEIGHT: u8 = 5;

    fn oracle(r: &BitmaskTreeRegion) -> BTreeSet<TreePath> {
        // Enumerate all paths in a HEIGHT-level tree, keep members.
        let mut out = BTreeSet::new();
        let mut stack = vec![TreePath::ROOT];
        while let Some(p) = stack.pop() {
            if r.contains(&p) {
                out.insert(p);
            }
            if p.depth() + 1 < HEIGHT {
                stack.push(p.left());
                stack.push(p.right());
            }
        }
        out
    }

    #[test]
    fn block_membership() {
        let mut r = BitmaskTreeRegion::new(H_SPLIT);
        r.set_subtree(2, true); // subtree rooted at path RL
        let root = TreePath::ROOT;
        assert!(!r.contains(&root));
        let rl = TreePath::from_steps(&[true, false]);
        assert!(r.contains(&rl));
        assert!(r.contains(&rl.left().right()));
        let rr = TreePath::from_steps(&[true, true]);
        assert!(!r.contains(&rr));
    }

    #[test]
    fn root_block_is_top_levels_only() {
        let r = BitmaskTreeRegion::of_root_block(H_SPLIT);
        assert!(r.contains(&TreePath::ROOT));
        assert!(r.contains(&TreePath::from_steps(&[true])));
        assert!(!r.contains(&TreePath::from_steps(&[true, false])));
        assert_eq!(r.cardinality(HEIGHT), 3); // depths 0 and 1
    }

    #[test]
    fn full_covers_complete_tree() {
        let r = BitmaskTreeRegion::full(H_SPLIT);
        assert_eq!(r.cardinality(HEIGHT), (1 << HEIGHT) - 1);
    }

    #[test]
    fn subtree_root_paths_order_left_to_right() {
        let r = BitmaskTreeRegion::new(2);
        assert_eq!(r.subtree_root(0), TreePath::from_steps(&[false, false]));
        assert_eq!(r.subtree_root(1), TreePath::from_steps(&[false, true]));
        assert_eq!(r.subtree_root(2), TreePath::from_steps(&[true, false]));
        assert_eq!(r.subtree_root(3), TreePath::from_steps(&[true, true]));
    }

    #[test]
    fn block_of_inverts_subtree_root() {
        let r = BitmaskTreeRegion::new(3);
        for i in 0..8 {
            let p = r.subtree_root(i);
            assert_eq!(BitmaskTreeRegion::block_of(3, &p), Some(i));
            assert_eq!(BitmaskTreeRegion::block_of(3, &p.left().right()), Some(i));
        }
        assert_eq!(
            BitmaskTreeRegion::block_of(3, &TreePath::from_steps(&[true])),
            None
        );
    }

    #[test]
    fn laws_on_fixed_cases() {
        let mut a = BitmaskTreeRegion::new(H_SPLIT);
        a.set_root_block(true);
        a.set_subtree(0, true);
        let mut b = BitmaskTreeRegion::new(H_SPLIT);
        b.set_subtree(0, true);
        b.set_subtree(3, true);
        let cases = [
            BitmaskTreeRegion::new(H_SPLIT),
            BitmaskTreeRegion::full(H_SPLIT),
            BitmaskTreeRegion::of_root_block(H_SPLIT),
            BitmaskTreeRegion::of_subtree(H_SPLIT, 1),
            a,
            b,
        ];
        for x in &cases {
            for y in &cases {
                check_laws(x, y, oracle);
            }
        }
    }

    #[test]
    fn agrees_with_tree_region_conversion() {
        let mut r = BitmaskTreeRegion::new(H_SPLIT);
        r.set_root_block(true);
        r.set_subtree(1, true);
        let t = r.to_tree_region(HEIGHT);
        // Membership must agree for every node shallower than HEIGHT...
        let mut stack = vec![TreePath::ROOT];
        while let Some(p) = stack.pop() {
            if p.depth() < H_SPLIT {
                // ...within the root block the TreeRegion is bounded by the
                // subtree subtraction, identical to bitmask semantics.
                assert_eq!(r.contains(&p), t.contains(&p), "path {p:?}");
            } else {
                assert_eq!(r.contains(&p), t.contains(&p), "path {p:?}");
            }
            if p.depth() + 1 < HEIGHT {
                stack.push(p.left());
                stack.push(p.right());
            }
        }
    }

    #[test]
    #[should_panic(expected = "different split depths")]
    fn mixing_depths_panics() {
        let a = BitmaskTreeRegion::full(2);
        let b = BitmaskTreeRegion::full(3);
        let _ = a.union(&b);
    }

    #[test]
    fn canonical_empty_combines_with_any_depth() {
        // `Region::empty()` has depth 0 whatever the item's split depth.
        let nothing = BitmaskTreeRegion::empty();
        for x in [
            BitmaskTreeRegion::new(8),
            BitmaskTreeRegion::of_subtree(8, 200),
            BitmaskTreeRegion::full(8),
        ] {
            for (a, b) in [(&x, &nothing), (&nothing, &x)] {
                assert_eq!(a.is_subset_of(b), a.difference(b).is_empty(), "{a:?} ⊆ {b:?}");
                assert_eq!(a.is_disjoint(b), a.intersect(b).is_empty(), "{a:?} ∩ {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different split depths")]
    fn predicates_on_non_empty_depths_panic_like_the_algebra() {
        let _ = BitmaskTreeRegion::full(2).is_disjoint(&BitmaskTreeRegion::full(3));
    }

    #[test]
    fn large_split_depth_uses_multiple_words() {
        let mut r = BitmaskTreeRegion::new(8); // 257 bits
        r.set_subtree(200, true);
        r.set_root_block(true);
        assert!(r.has_subtree(200));
        assert!(!r.has_subtree(199));
        assert_eq!(r.subtrees().collect::<Vec<_>>(), vec![200]);
    }
}
