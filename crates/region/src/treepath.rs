//! Addresses of nodes in binary-tree data items.
//!
//! A node is addressed by the left/right path from the root (paper Fig. 4b
//! identifies subtrees "by its respective root node"). Paths support at
//! most 64 levels, far beyond any practical tree height.

use allscale_des::wire::wire_struct;
use std::fmt;

/// The path from the root of a binary tree to one of its nodes.
///
/// Bit `i` (little-endian within `bits`) is 0 for "left child" and 1 for
/// "right child" at depth `i`. `len` is the node's depth; the root has
/// `len == 0`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreePath {
    bits: u64,
    len: u8,
}
wire_struct!(TreePath { bits, len });

impl TreePath {
    /// The root node.
    pub const ROOT: TreePath = TreePath { bits: 0, len: 0 };

    /// Build a path from a slice of steps (`false` = left, `true` = right).
    pub fn from_steps(steps: &[bool]) -> Self {
        assert!(steps.len() <= 64, "tree paths support at most 64 levels");
        let mut bits = 0u64;
        for (i, &s) in steps.iter().enumerate() {
            if s {
                bits |= 1 << i;
            }
        }
        TreePath {
            bits,
            len: steps.len() as u8,
        }
    }

    /// Depth of the addressed node (root = 0).
    #[inline]
    pub fn depth(&self) -> u8 {
        self.len
    }

    /// The step at depth `i` (`false` = left).
    #[inline]
    pub fn step(&self, i: u8) -> bool {
        debug_assert!(i < self.len);
        (self.bits >> i) & 1 == 1
    }

    /// The left child of this node.
    pub fn left(&self) -> TreePath {
        assert!(self.len < 64);
        TreePath {
            bits: self.bits,
            len: self.len + 1,
        }
    }

    /// The right child of this node.
    pub fn right(&self) -> TreePath {
        assert!(self.len < 64);
        TreePath {
            bits: self.bits | (1 << self.len),
            len: self.len + 1,
        }
    }

    /// The child selected by `step` (`false` = left).
    pub fn child(&self, step: bool) -> TreePath {
        if step {
            self.right()
        } else {
            self.left()
        }
    }

    /// The parent node, or `None` for the root.
    pub fn parent(&self) -> Option<TreePath> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(TreePath {
            bits: self.bits & !(u64::MAX << len),
            len,
        })
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &TreePath) -> bool {
        if self.len > other.len {
            return false;
        }
        let mask = if self.len == 0 {
            0
        } else {
            u64::MAX >> (64 - self.len)
        };
        (self.bits & mask) == (other.bits & mask)
    }

    /// Where this node sits in the subtree rooted at `root`: how many
    /// levels down, and the steps taken below `root` (bit `i` is the step at
    /// depth `root.depth() + i`). `None` when `root` is not an ancestor.
    #[inline]
    pub(crate) fn below(&self, root: &TreePath) -> Option<(u8, u64)> {
        if !root.is_prefix_of(self) {
            return None;
        }
        // A root at depth 64 has only itself below it: no steps.
        let steps = self.bits.checked_shr(root.len as u32).unwrap_or(0);
        Some((self.len - root.len, steps))
    }

    /// Inverse of [`TreePath::below`]: the node `levels` down from this one
    /// along `steps`.
    #[inline]
    pub(crate) fn descend(&self, levels: u8, steps: u64) -> TreePath {
        debug_assert!(self.len + levels <= 64);
        TreePath {
            bits: self.bits | steps.checked_shl(self.len as u32).unwrap_or(0),
            len: self.len + levels,
        }
    }

    /// The index of this node in breadth-first order (root = 0, its
    /// children 1 and 2, …) — the classic heap layout.
    pub fn bfs_index(&self) -> u64 {
        let mut idx: u64 = 0;
        for i in 0..self.len {
            idx = 2 * idx + 1 + (self.step(i) as u64);
        }
        idx
    }

    /// Inverse of [`TreePath::bfs_index`].
    pub fn from_bfs_index(mut idx: u64) -> TreePath {
        let mut steps = Vec::new();
        while idx > 0 {
            steps.push(idx.is_multiple_of(2)); // right children have even indices
            idx = (idx - 1) / 2;
        }
        steps.reverse();
        TreePath::from_steps(&steps)
    }
}

impl fmt::Debug for TreePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε")?;
        for i in 0..self.len {
            write!(f, "{}", if self.step(i) { 'R' } else { 'L' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_children() {
        let r = TreePath::ROOT;
        assert_eq!(r.depth(), 0);
        let l = r.left();
        let rr = r.right();
        assert_eq!(l.depth(), 1);
        assert!(!l.step(0));
        assert!(rr.step(0));
        assert_eq!(l.parent(), Some(r));
        assert_eq!(rr.parent(), Some(r));
        assert_eq!(r.parent(), None);
    }

    #[test]
    fn prefix_relation() {
        let p = TreePath::from_steps(&[true, false]);
        let q = p.left().right();
        assert!(p.is_prefix_of(&q));
        assert!(p.is_prefix_of(&p));
        assert!(!q.is_prefix_of(&p));
        assert!(TreePath::ROOT.is_prefix_of(&q));
        let sib = TreePath::from_steps(&[true, true]);
        assert!(!p.is_prefix_of(&sib));
    }

    #[test]
    fn below_and_descend_are_inverse() {
        let root = TreePath::from_steps(&[true, false, true]);
        for idx in 0..63u64 {
            let rel = TreePath::from_bfs_index(idx);
            let mut node = root;
            for i in 0..rel.depth() {
                node = node.child(rel.step(i));
            }
            let (levels, steps) = node.below(&root).expect("descendant");
            assert_eq!((levels, steps), (rel.depth(), rel.bits));
            assert_eq!(root.descend(levels, steps), node);
        }
        assert_eq!(root.below(&root), Some((0, 0)));
        assert_eq!(TreePath::ROOT.below(&root), None);
        assert_eq!(root.right().below(&root.left()), None);
        let deepest = TreePath::from_steps(&[true; 64]);
        assert_eq!(deepest.below(&deepest), Some((0, 0)));
        assert_eq!(deepest.descend(0, 0), deepest);
    }

    #[test]
    fn bfs_index_round_trip() {
        for idx in 0..127u64 {
            let p = TreePath::from_bfs_index(idx);
            assert_eq!(p.bfs_index(), idx, "path {p:?}");
        }
        // Spot checks against the heap layout.
        assert_eq!(TreePath::ROOT.bfs_index(), 0);
        assert_eq!(TreePath::ROOT.left().bfs_index(), 1);
        assert_eq!(TreePath::ROOT.right().bfs_index(), 2);
        assert_eq!(TreePath::ROOT.left().right().bfs_index(), 4);
    }

    #[test]
    fn parent_clears_high_bit() {
        let p = TreePath::from_steps(&[true, true, true]);
        let q = p.parent().unwrap();
        assert_eq!(q, TreePath::from_steps(&[true, true]));
    }

    #[test]
    fn debug_format() {
        let p = TreePath::from_steps(&[true, false, true]);
        assert_eq!(format!("{p:?}"), "εRLR");
    }
}
