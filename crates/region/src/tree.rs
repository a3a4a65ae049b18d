//! Flexible tree regions (paper Fig. 4b): unions of whole subtrees minus
//! excluded nested subtrees.
//!
//! The paper describes these regions as "two sets of sub-trees … the first
//! set enumerates included sub-trees, while the second set enumerates
//! excluded sub-trees nested within the included trees". The canonical
//! machine representation of exactly that language of node sets is a binary
//! *trie* whose leaves mark uniformly-included or uniformly-excluded
//! subtrees; interior trie nodes additionally record whether the tree node
//! they sit on is itself a member. The trie form is closed under all three
//! set operations, and its normalized shape is canonical, making structural
//! equality semantic.

use allscale_des::wire::{wire_struct, Reader, Sink, Wire, WireError};

use crate::region::Region;
use crate::treepath::TreePath;

/// A region over the nodes of a (conceptually unbounded) binary tree.
#[derive(Clone, PartialEq, Eq)]
pub struct TreeRegion {
    root: Trie,
}
wire_struct!(TreeRegion { root });

#[derive(Clone, PartialEq, Eq)]
enum Trie {
    /// The whole subtree (including its root) is in the region.
    Full,
    /// Nothing of the subtree is in the region.
    Empty,
    /// Mixed: `self_in` tells whether this node belongs to the region.
    Node {
        self_in: bool,
        left: Box<Trie>,
        right: Box<Trie>,
    },
}

/// A `u32` variant index, then the variant's fields.
impl Wire for Trie {
    fn put(&self, out: &mut impl Sink) {
        match self {
            Trie::Full => 0u32.put(out),
            Trie::Empty => 1u32.put(out),
            Trie::Node {
                self_in,
                left,
                right,
            } => {
                2u32.put(out);
                self_in.put(out);
                left.put(out);
                right.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u32::get(r)? {
            0 => Trie::Full,
            1 => Trie::Empty,
            2 => Trie::Node {
                self_in: Wire::get(r)?,
                left: Wire::get(r)?,
                right: Wire::get(r)?,
            },
            n => return Err(WireError::InvalidData(format!("invalid Trie variant {n}"))),
        })
    }
}

impl Trie {
    fn node(self_in: bool, left: Trie, right: Trie) -> Trie {
        // Normalize: collapse uniform subtrees so the form is canonical.
        match (&left, &right) {
            (Trie::Full, Trie::Full) if self_in => Trie::Full,
            (Trie::Empty, Trie::Empty) if !self_in => Trie::Empty,
            _ => Trie::Node {
                self_in,
                left: Box::new(left),
                right: Box::new(right),
            },
        }
    }

    fn binop(&self, other: &Trie, op: fn(bool, bool) -> bool) -> Trie {
        match (self, other) {
            // Uniform × uniform resolves immediately.
            (Trie::Full, Trie::Full) => uniform(op(true, true)),
            (Trie::Full, Trie::Empty) => uniform(op(true, false)),
            (Trie::Empty, Trie::Full) => uniform(op(false, true)),
            (Trie::Empty, Trie::Empty) => uniform(op(false, false)),
            _ => {
                let (a_in, al, ar) = self.parts();
                let (b_in, bl, br) = other.parts();
                Trie::node(op(a_in, b_in), al.binop(bl, op), ar.binop(br, op))
            }
        }
    }

    /// View any trie as (self_in, left, right).
    fn parts(&self) -> (bool, &Trie, &Trie) {
        match self {
            Trie::Full => (true, &Trie::Full, &Trie::Full),
            Trie::Empty => (false, &Trie::Empty, &Trie::Empty),
            Trie::Node {
                self_in,
                left,
                right,
            } => (*self_in, left, right),
        }
    }

    fn contains(&self, path: &TreePath, depth: u8) -> bool {
        match self {
            Trie::Full => true,
            Trie::Empty => false,
            Trie::Node {
                self_in,
                left,
                right,
            } => {
                if depth == path.depth() {
                    *self_in
                } else if path.step(depth) {
                    right.contains(path, depth + 1)
                } else {
                    left.contains(path, depth + 1)
                }
            }
        }
    }

    /// Count member nodes among depths `0..height` below this point.
    fn cardinality(&self, height: u8) -> u64 {
        if height == 0 {
            return 0;
        }
        match self {
            Trie::Full => (1u64 << height) - 1,
            Trie::Empty => 0,
            Trie::Node {
                self_in,
                left,
                right,
            } => (*self_in as u64) + left.cardinality(height - 1) + right.cardinality(height - 1),
        }
    }

    fn collect(&self, prefix: TreePath, height: u8, out: &mut Vec<TreePath>) {
        if height == 0 {
            return;
        }
        let (self_in, l, r) = self.parts();
        if self_in {
            out.push(prefix);
        }
        if height > 1 {
            match self {
                Trie::Empty => {}
                _ => {
                    l.collect(prefix.left(), height - 1, out);
                    r.collect(prefix.right(), height - 1, out);
                }
            }
        }
    }

    /// Depth of the trie representation (for complexity assertions).
    fn repr_depth(&self) -> u32 {
        match self {
            Trie::Full | Trie::Empty => 0,
            Trie::Node { left, right, .. } => 1 + left.repr_depth().max(right.repr_depth()),
        }
    }
}

fn uniform(b: bool) -> Trie {
    if b {
        Trie::Full
    } else {
        Trie::Empty
    }
}

impl TreeRegion {
    /// The region containing the whole subtree rooted at `path` (the paper's
    /// "included sub-tree identified by its root node").
    pub fn subtree(path: TreePath) -> Self {
        let mut t = Trie::Full;
        for i in (0..path.depth()).rev() {
            t = if path.step(i) {
                Trie::node(false, Trie::Empty, t)
            } else {
                Trie::node(false, t, Trie::Empty)
            };
        }
        TreeRegion { root: t }
    }

    /// The region containing the single node at `path`.
    pub fn single(path: TreePath) -> Self {
        let mut t = Trie::node(true, Trie::Empty, Trie::Empty);
        for i in (0..path.depth()).rev() {
            t = if path.step(i) {
                Trie::node(false, Trie::Empty, t)
            } else {
                Trie::node(false, t, Trie::Empty)
            };
        }
        TreeRegion { root: t }
    }

    /// Build from the paper's include/exclude representation: the union of
    /// the `include` subtrees, minus the union of the `exclude` subtrees.
    pub fn from_include_exclude(include: &[TreePath], exclude: &[TreePath]) -> Self {
        let mut r = Self::empty();
        for p in include {
            r = r.union(&Self::subtree(*p));
        }
        for p in exclude {
            r = r.difference(&Self::subtree(*p));
        }
        r
    }

    /// Whether the node at `path` is in the region.
    pub fn contains(&self, path: &TreePath) -> bool {
        self.root.contains(path, 0)
    }

    /// Number of member nodes with depth `< height` (i.e. within a complete
    /// binary tree of `height` levels).
    pub fn cardinality(&self, height: u8) -> u64 {
        self.root.cardinality(height)
    }

    /// All member node paths with depth `< height`, in DFS order.
    pub fn paths(&self, height: u8) -> Vec<TreePath> {
        let mut out = Vec::new();
        self.root.collect(TreePath::ROOT, height, &mut out);
        out
    }

    /// Depth of the internal trie (proportional to representation size).
    pub fn repr_depth(&self) -> u32 {
        self.root.repr_depth()
    }
}

impl std::fmt::Debug for TreeRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn rec(t: &Trie, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match t {
                Trie::Full => write!(f, "*"),
                Trie::Empty => write!(f, "."),
                Trie::Node {
                    self_in,
                    left,
                    right,
                } => {
                    write!(f, "({}", if *self_in { '+' } else { '-' })?;
                    rec(left, f)?;
                    rec(right, f)?;
                    write!(f, ")")
                }
            }
        }
        write!(f, "TreeRegion[")?;
        rec(&self.root, f)?;
        write!(f, "]")
    }
}

impl Region for TreeRegion {
    fn empty() -> Self {
        TreeRegion { root: Trie::Empty }
    }

    fn is_empty(&self) -> bool {
        matches!(self.root, Trie::Empty)
    }

    fn union(&self, other: &Self) -> Self {
        TreeRegion {
            root: self.root.binop(&other.root, |a, b| a | b),
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        TreeRegion {
            root: self.root.binop(&other.root, |a, b| a & b),
        }
    }

    fn difference(&self, other: &Self) -> Self {
        TreeRegion {
            root: self.root.binop(&other.root, |a, b| a & !b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    const H: u8 = 5; // 31-node universe for oracles

    fn oracle(r: &TreeRegion) -> BTreeSet<TreePath> {
        r.paths(H).into_iter().collect()
    }

    fn p(steps: &[bool]) -> TreePath {
        TreePath::from_steps(steps)
    }

    #[test]
    fn subtree_membership() {
        let r = TreeRegion::subtree(p(&[true]));
        assert!(!r.contains(&TreePath::ROOT));
        assert!(!r.contains(&p(&[false])));
        assert!(r.contains(&p(&[true])));
        assert!(r.contains(&p(&[true, false, true])));
    }

    #[test]
    fn single_node_region() {
        let r = TreeRegion::single(p(&[false, true]));
        assert_eq!(r.cardinality(H), 1);
        assert!(r.contains(&p(&[false, true])));
        assert!(!r.contains(&p(&[false, true, false])));
    }

    #[test]
    fn paper_example_fig4b() {
        // "at most three nodes characterize the regions": e.g. include the
        // left subtree but exclude its right-right corner.
        let include = [p(&[false])];
        let exclude = [p(&[false, true, true])];
        let r = TreeRegion::from_include_exclude(&include, &exclude);
        assert!(r.contains(&p(&[false])));
        assert!(r.contains(&p(&[false, true])));
        assert!(!r.contains(&p(&[false, true, true])));
        assert!(!r.contains(&p(&[false, true, true, false])));
        // Cardinality in a 5-level tree: subtree at depth1 has 15 nodes,
        // excluded subtree at depth 3 has 3 → 12.
        assert_eq!(r.cardinality(H), 12);
    }

    #[test]
    fn cardinality_of_full_tree() {
        let full = TreeRegion::subtree(TreePath::ROOT);
        assert_eq!(full.cardinality(4), 15); // the paper's Example 2.1 tree
        assert_eq!(full.cardinality(1), 1);
        assert_eq!(full.cardinality(0), 0);
    }

    #[test]
    fn normalization_makes_equality_semantic() {
        // left ∪ right ∪ root == whole tree
        let l = TreeRegion::subtree(p(&[false]));
        let r = TreeRegion::subtree(p(&[true]));
        let root = TreeRegion::single(TreePath::ROOT);
        let assembled = l.union(&r).union(&root);
        assert_eq!(assembled, TreeRegion::subtree(TreePath::ROOT));
        assert_eq!(assembled.repr_depth(), 0); // collapsed to Full
    }

    #[test]
    fn laws_on_fixed_cases() {
        let cases = [
            TreeRegion::empty(),
            TreeRegion::subtree(TreePath::ROOT),
            TreeRegion::subtree(p(&[false])),
            TreeRegion::subtree(p(&[true, true])),
            TreeRegion::single(TreePath::ROOT),
            TreeRegion::from_include_exclude(&[p(&[false])], &[p(&[false, false])]),
            TreeRegion::single(p(&[true])).union(&TreeRegion::subtree(p(&[false, true]))),
        ];
        for a in &cases {
            for b in &cases {
                check_laws(a, b, oracle);
            }
        }
    }

    #[test]
    fn representation_stays_compact() {
        // Region expressible with 3 subtree roots must not blow up.
        let r = TreeRegion::from_include_exclude(
            &[p(&[false]), p(&[true, true])],
            &[p(&[false, true, false])],
        );
        assert!(r.repr_depth() <= 4);
    }

    #[test]
    fn difference_of_nested_subtrees() {
        let outer = TreeRegion::subtree(p(&[false]));
        let inner = TreeRegion::subtree(p(&[false, false]));
        let d = outer.difference(&inner);
        assert!(d.contains(&p(&[false])));
        assert!(!d.contains(&p(&[false, false])));
        assert!(d.contains(&p(&[false, true])));
        assert!(inner.is_subset_of(&outer));
        assert!(!outer.is_subset_of(&inner));
    }
}
