//! Fragments of binary-tree data items (paper Fig. 4b/4c).
//!
//! A [`TreeFragment`] stores the nodes of its region in dense heap-layout
//! blocks and is generic over the region scheme: the flexible
//! [`TreeRegion`] or the blocked [`BitmaskTreeRegion`], both of which
//! implement [`PathRegion`]. The TPC evaluation code distributes its
//! kd-tree with the blocked scheme.
//!
//! A traversal reads one node per visit. [`TreeFragment::subtree`] resolves
//! the block of a traversal's root once, after which a visit inside that
//! block is one index; any other lookup probes at most `H` ancestors in an
//! index of block roots. What is observable does not depend on the blocks:
//! serialized fragment bytes are billed on the virtual clock, and the wire
//! form is the map of nodes in path order.

use std::cell::Cell;
use std::fmt;

use allscale_des::hash::MulXorMap;
use allscale_des::wire::{wire_struct, Reader, Sink, Wire, WireError};

use crate::bitmask::BitmaskTreeRegion;
use crate::fragment::Fragment;
use crate::region::Region;
use crate::tree::TreeRegion;
use crate::treepath::TreePath;

/// A region scheme over binary-tree node paths that can answer point
/// membership queries — the capability tree fragments need to clip data.
pub trait PathRegion: Region {
    /// Whether the node at `path` belongs to the region.
    fn contains_path(&self, path: &TreePath) -> bool;
}

impl PathRegion for TreeRegion {
    fn contains_path(&self, path: &TreePath) -> bool {
        self.contains(path)
    }
}

impl PathRegion for BitmaskTreeRegion {
    fn contains_path(&self, path: &TreePath) -> bool {
        self.contains(path)
    }
}

/// Most levels a block holds below its root (the `H` of DESIGN.md §5.3),
/// which bounds what a sparse block can waste (see [`TreeFragment`]) and
/// how many ancestors a lookup probes. A constant, not a knob: nothing
/// observable depends on it.
const SPAN: u8 = 12;

/// A subtree of `levels` ≤ [`SPAN`] levels below `root`. `slots` is its
/// heap layout — the node `n` levels down along steps `s` has slot
/// `(1 << n) - 1 + s` — and holds 0 for "no node", else 1 + the node's
/// position in `nodes`. It always ends on a level boundary: the block
/// *claims* every path of its `levels` levels, stored or not. Values sit
/// out of line so that an empty slot costs four bytes, and hold nothing
/// but the value: the two rare walks that need a value's slot
/// ([`Block::entries`], [`Block::retain`]) invert `slots` to find it.
#[derive(Clone)]
struct Block<T> {
    root: TreePath,
    slots: Vec<u32>,
    /// The stored values, in arrival order.
    nodes: Vec<T>,
}

/// The slot `levels` down from a block's root along `steps`.
#[inline]
fn slot_at(levels: u8, steps: u64) -> usize {
    (1usize << levels) - 1 + steps as usize
}

/// The path heap slot `slot` of a block rooted at `root` stands for.
fn path_at(root: TreePath, slot: u32) -> TreePath {
    let levels = (slot + 1).ilog2();
    let steps = slot + 1 - (1 << levels);
    root.descend(levels as u8, steps as u64)
}

impl<T> Block<T> {
    /// The slot of `path` if this block claims it.
    #[inline]
    fn slot_of(&self, path: &TreePath) -> Option<usize> {
        let (levels, steps) = path.below(&self.root)?;
        if levels >= SPAN {
            return None;
        }
        let slot = slot_at(levels, steps);
        (slot < self.slots.len()).then_some(slot)
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<&T> {
        let at = self.slots[slot].checked_sub(1)?;
        Some(&self.nodes[at as usize])
    }

    fn store(&mut self, slot: usize, value: T) {
        match self.slots[slot].checked_sub(1) {
            Some(at) => self.nodes[at as usize] = value,
            None => {
                self.nodes.push(value);
                self.slots[slot] = self.nodes.len() as u32;
            }
        }
    }

    /// Each stored value's slot, by the value's position in `nodes`.
    fn slots_by_arrival(&self) -> Vec<u32> {
        let mut by_arrival = vec![0; self.nodes.len()];
        for (slot, &at) in self.slots.iter().enumerate() {
            if let Some(at) = at.checked_sub(1) {
                by_arrival[at as usize] = slot as u32;
            }
        }
        by_arrival
    }

    /// Stored nodes in arrival order.
    fn entries(&self) -> impl Iterator<Item = (TreePath, &T)> {
        let root = self.root;
        self.slots_by_arrival()
            .into_iter()
            .zip(&self.nodes)
            .map(move |(slot, v)| (path_at(root, slot), v))
    }

    /// Keep the nodes whose paths `keep` accepts, in arrival order.
    fn retain(&mut self, mut keep: impl FnMut(&TreePath) -> bool) {
        let by_arrival = self.slots_by_arrival();
        let mut at = 0;
        for &slot in &by_arrival {
            let stays = keep(&path_at(self.root, slot));
            at += u32::from(stays);
            self.slots[slot as usize] = if stays { at } else { 0 };
        }
        let (slots, mut by_arrival) = (&self.slots, by_arrival.into_iter());
        self.nodes.retain(|_| {
            by_arrival
                .next()
                .is_some_and(|slot| slots[slot as usize] != 0)
        });
    }
}

/// A fragment's index by [`TreePath`]: two multiply-xor rounds per path
/// (SipHash would cost as much as the probe it serves, and paths are not
/// adversarial input).
type PathMap<V> = MulXorMap<TreePath, V>;

#[cfg(test)]
thread_local! {
    /// Index probes made by this thread, for the complexity guard.
    static PROBES: Cell<u64> = const { Cell::new(0) };
}

/// One probe of a fragment's index.
#[inline]
fn probe<V: Copy>(map: &PathMap<V>, path: &TreePath) -> Option<V> {
    #[cfg(test)]
    PROBES.with(|n| n.set(n.get() + 1));
    map.get(path).copied()
}

/// The node storage of a [`TreeFragment`].
///
/// **One home per path**: no block's root lies among the paths another
/// block claims. So the claims are disjoint, and the only block that can
/// claim a path is rooted at the path's nearest ancestor (itself included)
/// that roots any block — an ancestor fewer than [`SPAN`] levels up, found
/// by at most `SPAN` probes of `roots`. A block grows a level only where
/// that stays true, which its root's fence answers in one probe; otherwise
/// the path opens a block of its own. Which blocks exist therefore follows
/// the order nodes arrived in — a subtree filled from its root down is one
/// block — and shows in nothing but lookup cost.
#[derive(Clone)]
struct Nodes<T> {
    blocks: Vec<Block<T>>,
    /// Each block's index in `blocks`, by its root.
    roots: PathMap<u32>,
    /// A path's **fence**: the fewest levels below it (at least one) at
    /// which a block's root lies, for every path where that is fewer than
    /// [`SPAN`]. A block may grow while its claim stays above its root's
    /// fence.
    fences: PathMap<u8>,
    /// Index of the block that served the latest lookup: a hint
    /// [`Nodes::locate`] validates before use, so edits to `blocks` need
    /// not maintain it. Not part of the wire form.
    finger: Cell<usize>,
}

impl<T> Nodes<T> {
    fn new() -> Self {
        Nodes {
            blocks: Vec::new(),
            roots: PathMap::default(),
            fences: PathMap::default(),
            finger: Cell::new(0),
        }
    }

    /// The home of `path` as (block index, slot), if a block claims it.
    #[inline]
    fn locate(&self, path: &TreePath) -> Option<(usize, usize)> {
        let hint = self.finger.get();
        match self.blocks.get(hint).and_then(|b| b.slot_of(path)) {
            Some(slot) => Some((hint, slot)),
            None => self.locate_indexed(path),
        }
    }

    /// [`Nodes::locate`] past a finger miss: the block rooted at the
    /// nearest root above `path`, if its claim reaches `path`.
    #[inline(never)]
    fn locate_indexed(&self, path: &TreePath) -> Option<(usize, usize)> {
        let (block, _) = self.nearest_root(path, 0)?;
        let slot = self.blocks[block].slot_of(path)?;
        self.finger.set(block);
        Some((block, slot))
    }

    /// The block rooted at the nearest ancestor of `path` that roots one,
    /// `from` to `SPAN − 1` levels up, and how many levels up it is.
    fn nearest_root(&self, path: &TreePath, from: u8) -> Option<(usize, u8)> {
        (from..SPAN.min(path.depth() + 1)).find_map(|up| {
            let block = probe(&self.roots, &path.ancestor(path.depth() - up))?;
            Some((block as usize, up))
        })
    }

    #[inline]
    fn get(&self, path: &TreePath) -> Option<&T> {
        let (block, slot) = self.locate(path)?;
        self.blocks[block].get(slot)
    }

    fn set(&mut self, path: TreePath, value: T) {
        let (block, slot) = match self.locate(&path).or_else(|| self.grow_to(&path)) {
            Some(home) => home,
            None => {
                self.blocks.push(Block {
                    root: path,
                    slots: vec![0],
                    nodes: Vec::new(),
                });
                self.index(self.blocks.len() - 1);
                (self.blocks.len() - 1, 0)
            }
        };
        self.blocks[block].store(slot, value);
    }

    /// Give `path`, which no block claims, a home in a block above it: the
    /// one rooted at the nearest root above it, if that block's claim can
    /// reach down to `path`'s level without taking in another block's root.
    /// Of the roots above, only the nearest can: it is a root under the
    /// others.
    fn grow_to(&mut self, path: &TreePath) -> Option<(usize, usize)> {
        let (block, levels) = self.nearest_root(path, 1)?;
        let root = self.blocks[block].root;
        if probe(&self.fences, &root).is_some_and(|fence| fence <= levels) {
            return None;
        }
        let (_, steps) = path.below(&root)?;
        self.blocks[block].slots.resize((2 << levels) - 1, 0);
        Some((block, slot_at(levels, steps)))
    }

    /// Enter block `b` in the index: its root, and that root as a fence of
    /// each ancestor fewer than [`SPAN`] levels up. Where an ancestor's
    /// fence is already as near, so is every fence above it.
    fn index(&mut self, b: usize) {
        let root = self.blocks[b].root;
        self.roots.insert(root, b as u32);
        for up in 1..SPAN.min(root.depth() + 1) {
            let fence = self
                .fences
                .entry(root.ancestor(root.depth() - up))
                .or_insert(SPAN);
            if *fence <= up {
                break;
            }
            *fence = up;
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.nodes.len()).sum()
    }

    /// Stored nodes, each block's in arrival order.
    fn entries(&self) -> impl Iterator<Item = (TreePath, &T)> {
        self.blocks.iter().flat_map(Block::entries)
    }

    /// Stored nodes in path order — `(bits, len)`, the order of the wire.
    fn sorted(&self) -> Vec<(TreePath, &T)> {
        let mut nodes: Vec<_> = self.entries().collect();
        nodes.sort_unstable_by_key(|&(path, _)| path);
        nodes
    }

    fn retain(&mut self, mut keep: impl FnMut(&TreePath) -> bool) {
        for block in &mut self.blocks {
            block.retain(&mut keep);
        }
        let before = self.blocks.len();
        self.blocks.retain(|b| !b.nodes.is_empty());
        if self.blocks.len() < before {
            self.roots.clear();
            self.fences.clear();
            for b in 0..self.blocks.len() {
                self.index(b);
            }
        }
    }
}

/// The wire form is the map of nodes in path order, whatever the blocks.
impl<T: Wire> Wire for Nodes<T> {
    fn put(&self, out: &mut impl Sink) {
        let nodes = self.sorted();
        out.put_len(nodes.len());
        for (path, value) in nodes {
            path.put(out);
            value.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut nodes = Nodes::new();
        for _ in 0..r.get_len()? {
            nodes.set(Wire::get(r)?, Wire::get(r)?);
        }
        Ok(nodes)
    }
}

/// The nodes of one region of a binary-tree data item, held in a single
/// address space.
///
/// A node exists once the application stores a value at its path and the
/// path lies inside the fragment's region, which fits both incomplete trees
/// (kd-trees over arbitrary point sets) and staged construction.
///
/// Storage is dense per block of up to `H` = 12 levels, allocated down to
/// the deepest level in use, at four bytes per slot plus the stored values:
/// a complete subtree costs its nodes, a path of `n` nodes from a block's
/// root costs `2^n − 1` slots, and the worst case — a lone node `H − 1`
/// levels under its block's root — keeps `2^H − 1` = 4 095 slots (16 KiB)
/// for one value. Lookups that stay in one block (a depth-first traversal
/// does) cost one prefix test and one index; a lookup that changes block
/// probes at most `H` ancestors in an index of block roots. A traversal
/// reads through [`TreeFragment::subtree`], which finds its root's block
/// once.
#[derive(Clone)]
pub struct TreeFragment<T, R: PathRegion> {
    region: R,
    nodes: Nodes<T>,
}
wire_struct!(TreeFragment<T, R: PathRegion> { region, nodes });

impl<T, R> TreeFragment<T, R>
where
    T: Clone + Wire + 'static,
    R: PathRegion,
{
    /// An empty fragment covering `region` (no nodes stored yet).
    pub fn new(region: R) -> Self {
        TreeFragment {
            region,
            nodes: Nodes::new(),
        }
    }

    /// Read the node at `path`, if present.
    #[inline]
    pub fn get(&self, path: &TreePath) -> Option<&T> {
        self.nodes.get(path)
    }

    /// A read view of the subtree below `root`, for a traversal: the block
    /// claiming `root` is found here, once, and every node of that block's
    /// claim is then read by one index.
    pub fn subtree(&self, root: TreePath) -> Subtree<'_, T> {
        let mut view = Subtree {
            nodes: &self.nodes,
            root,
            slots: &[],
            values: &[],
            reach: 0,
            down: 0,
            base: 0,
        };
        if let Some((b, _)) = self.nodes.locate(&root) {
            let block = &self.nodes.blocks[b];
            let (down, base) = root
                .below(&block.root)
                .expect("a block claims only its descendants");
            let claimed = (block.slots.len() + 1).ilog2() as u8;
            view.slots = &block.slots;
            view.values = &block.nodes;
            view.reach = claimed - down;
            view.down = down;
            view.base = base;
        }
        view
    }

    /// Store a value at `path`. Returns `false` (and drops the value) when
    /// `path` is outside the fragment's region.
    pub fn set(&mut self, path: TreePath, value: T) -> bool {
        if !self.region.contains_path(&path) {
            return false;
        }
        self.nodes.set(path, value);
        true
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(path, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (TreePath, &T)> {
        self.nodes.sorted().into_iter()
    }
}

/// The nodes below one path of a [`TreeFragment`], addressed relative to
/// it (see [`TreeFragment::subtree`]).
pub struct Subtree<'a, T> {
    nodes: &'a Nodes<T>,
    root: TreePath,
    /// The slots and values of the block claiming `root` (empty if none).
    slots: &'a [u32],
    values: &'a [T],
    /// How many levels from `root` down that block claims (0 if none).
    reach: u8,
    /// Where `root` sits below that block's root: levels and steps.
    down: u8,
    base: u64,
}

impl<'a, T> Subtree<'a, T> {
    /// The node `levels` below the view's root along `steps` — the node
    /// [`TreePath::descend`]`(levels, steps)` names — if present. Inside the
    /// claim of the root's block this is one index; below it, the
    /// fragment's own lookup.
    #[inline]
    pub fn get(&self, levels: u8, steps: u64) -> Option<&'a T> {
        if levels >= self.reach {
            return self.get_below(levels, steps);
        }
        let steps = steps & ((1 << levels) - 1);
        let slot = slot_at(self.down + levels, self.base | steps << self.down);
        let at = self.slots[slot].checked_sub(1)?;
        Some(&self.values[at as usize])
    }

    #[inline(never)]
    fn get_below(&self, levels: u8, steps: u64) -> Option<&'a T> {
        self.nodes.get(&self.root.descend(levels, steps))
    }
}

impl<T, R> Fragment for TreeFragment<T, R>
where
    T: Clone + Wire + 'static,
    R: PathRegion,
{
    type Region = R;

    fn empty() -> Self {
        TreeFragment::new(R::empty())
    }

    fn alloc(region: &R) -> Self {
        TreeFragment::new(region.clone())
    }

    fn region(&self) -> &R {
        &self.region
    }

    fn extract(&self, region: &R) -> Self {
        let mut out = TreeFragment::new(self.region.intersect(region));
        for (path, value) in self.nodes.entries() {
            if out.region.contains_path(&path) {
                out.nodes.set(path, value.clone());
            }
        }
        out
    }

    fn insert(&mut self, other: &Self) {
        self.region = self.region.union(&other.region);
        for (path, value) in other.nodes.entries() {
            self.nodes.set(path, value.clone());
        }
    }

    fn remove(&mut self, region: &R) {
        self.region = self.region.difference(region);
        let keep = &self.region;
        self.nodes.retain(|path| keep.contains_path(path));
    }
}

impl<T, R: PathRegion> fmt::Debug for TreeFragment<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TreeFragment(region={:?}, nodes={})",
            self.region,
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(steps: &[bool]) -> TreePath {
        TreePath::from_steps(steps)
    }

    fn sample_flexible() -> TreeFragment<u32, TreeRegion> {
        let mut f = TreeFragment::new(TreeRegion::subtree(TreePath::ROOT));
        for idx in 0..15u64 {
            f.set(TreePath::from_bfs_index(idx), idx as u32 * 10);
        }
        f
    }

    #[test]
    fn set_outside_region_rejected() {
        let mut f: TreeFragment<u32, TreeRegion> =
            TreeFragment::new(TreeRegion::subtree(p(&[false])));
        assert!(f.set(p(&[false, true]), 1));
        assert!(!f.set(p(&[true]), 2));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn extract_clips_nodes_and_region() {
        let f = sample_flexible();
        let sub = f.extract(&TreeRegion::subtree(p(&[false])));
        assert_eq!(*sub.region(), TreeRegion::subtree(p(&[false])));
        // Left subtree of a 15-node tree holds 7 nodes.
        assert_eq!(sub.len(), 7);
        assert!(sub.get(&p(&[false])).is_some());
        assert!(sub.get(&p(&[true])).is_none());
        assert!(sub.get(&TreePath::ROOT).is_none());
    }

    #[test]
    fn insert_merges_and_overwrites() {
        let mut f = sample_flexible();
        let mut g: TreeFragment<u32, TreeRegion> =
            TreeFragment::new(TreeRegion::single(TreePath::ROOT));
        g.set(TreePath::ROOT, 999);
        f.insert(&g);
        assert_eq!(f.get(&TreePath::ROOT), Some(&999));
        assert_eq!(f.len(), 15);
    }

    #[test]
    fn remove_shrinks() {
        let mut f = sample_flexible();
        f.remove(&TreeRegion::subtree(p(&[true])));
        assert_eq!(f.len(), 8);
        assert!(f.get(&p(&[true])).is_none());
        assert!(f.get(&p(&[false])).is_some());
        assert!(!f.region().contains(&p(&[true, false])));
    }

    #[test]
    fn blocked_scheme_fragment() {
        // Split depth 2: root block + 4 subtrees, as in Fig 4c.
        let region = BitmaskTreeRegion::of_subtree(2, 3); // subtree at RR
        let mut f: TreeFragment<u32, BitmaskTreeRegion> = TreeFragment::new(region);
        let rr = p(&[true, true]);
        assert!(f.set(rr, 7));
        assert!(f.set(rr.left(), 8));
        assert!(!f.set(TreePath::ROOT, 9)); // root block not covered
        assert_eq!(f.len(), 2);

        let sub = f.extract(&BitmaskTreeRegion::of_subtree(2, 3));
        assert_eq!(sub.len(), 2);
        let none = f.extract(&BitmaskTreeRegion::of_subtree(2, 0));
        assert!(none.is_empty());
    }

    #[test]
    fn blocked_migration_round_trip() {
        // Move a subtree block from one fragment to another.
        let mut src: TreeFragment<u32, BitmaskTreeRegion> =
            TreeFragment::new(BitmaskTreeRegion::full(2));
        for idx in 0..31u64 {
            src.set(TreePath::from_bfs_index(idx), idx as u32);
        }
        let block = BitmaskTreeRegion::of_subtree(2, 1);
        let moved = src.extract(&block);
        src.remove(&block);

        let mut dst: TreeFragment<u32, BitmaskTreeRegion> =
            TreeFragment::new(BitmaskTreeRegion::new(2));
        dst.insert(&moved);

        // Subtree 1 roots at path LR; in a 5-level tree it has 7 nodes.
        assert_eq!(moved.len(), 7);
        assert_eq!(dst.len(), 7);
        assert_eq!(src.len(), 31 - 7);
        let lr = p(&[false, true]);
        assert!(dst.get(&lr).is_some());
        assert!(src.get(&lr).is_none());
    }

    fn whole() -> TreeFragment<u32, TreeRegion> {
        TreeFragment::new(TreeRegion::subtree(TreePath::ROOT))
    }

    #[test]
    fn a_subtree_filled_from_its_root_is_one_block() {
        let mut f = whole();
        let base = p(&[true, false, true]);
        let mut stack = vec![base];
        while let Some(path) = stack.pop() {
            f.set(path, path.depth() as u32);
            if path.depth() < base.depth() + 9 {
                stack.push(path.left());
                stack.push(path.right());
            }
        }
        assert_eq!(f.len(), 1023);
        assert_eq!(f.nodes.blocks.len(), 1);
        assert_eq!(f.nodes.blocks[0].slots.len(), 1023);
        // A block above it stops growing where this one's root lies.
        f.set(TreePath::ROOT, 0);
        f.set(p(&[true]), 1);
        f.set(p(&[true, false]), 2);
        f.set(p(&[false, false, false]), 3);
        assert_eq!(f.nodes.blocks.len(), 3);
        assert_eq!(f.get(&base), Some(&3));
        assert_eq!(f.get(&p(&[false, false, false])), Some(&3));
        assert_eq!(f.get(&p(&[false, false, true])), None);
        assert_eq!(f.len(), 1027);
    }

    #[test]
    fn a_chain_opens_a_block_every_span_levels() {
        let mut f = whole();
        let mut path = TreePath::ROOT;
        for depth in 0..30u32 {
            f.set(path, depth);
            path = path.right();
        }
        assert_eq!(f.nodes.blocks.len(), 3);
        let order: Vec<u32> = f.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn finger_survives_edits_as_a_hint() {
        let mut f = sample_flexible();
        let deep = p(&[false; 20]);
        f.set(deep, 7);
        assert_eq!(f.get(&deep), Some(&7)); // finger on the second block
        let g = f.clone();
        f.remove(&TreeRegion::subtree(p(&[false])));
        assert_eq!(f.nodes.blocks.len(), 1);
        assert_eq!(f.get(&deep), None);
        assert_eq!(f.get(&p(&[true])), Some(&20));
        assert_eq!(g.get(&deep), Some(&7));
    }

    /// The paths of the `levels`-level subtree under `base`, depth first
    /// from its root.
    fn top_down(base: TreePath, levels: u8) -> Vec<TreePath> {
        let mut out = Vec::new();
        let mut stack = vec![base];
        while let Some(path) = stack.pop() {
            out.push(path);
            if path.depth() + 1 < base.depth() + levels {
                stack.push(path.right());
                stack.push(path.left());
            }
        }
        out
    }

    fn probes_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = PROBES.with(Cell::get);
        let out = f();
        (PROBES.with(Cell::get) - before, out)
    }

    /// Store `value` at `path`, returning the index probes of the lookup
    /// that misses and of the growth that follows it.
    fn set_counting(
        f: &mut TreeFragment<u32, TreeRegion>,
        path: TreePath,
        value: u32,
    ) -> (u64, u64) {
        f.nodes.finger.set(usize::MAX);
        let (located, home) = probes_of(|| f.nodes.locate(&path));
        let grown = match home {
            Some(_) => 0,
            None => probes_of(|| f.nodes.grow_to(&path)).0,
        };
        f.set(path, value);
        (located, grown)
    }

    #[test]
    fn lookups_and_growth_probe_at_most_span_ancestors() {
        // TPC's deepest rung: a 14-level subtree below depth 7, filled from
        // its root down, is one 12-level block over 4 096 two-level ones;
        // then the 7 levels above it arrive, then a few chains below it.
        let mut f = whole();
        let base = TreePath::from_bfs_index(200);
        assert_eq!(base.depth(), 7);
        let mut paths = top_down(base, 14);
        let leaves: Vec<TreePath> = paths.iter().copied().filter(|p| p.depth() == 20).collect();
        paths.extend(top_down(TreePath::ROOT, 7));
        for (n, leaf) in [leaves[0], leaves[1], leaves[4_000], leaves[8_191]]
            .into_iter()
            .enumerate()
        {
            // Bottom-up and top-down chains, 30 levels long.
            let mut chain: Vec<TreePath> = (0..30)
                .scan(leaf, |p, _| {
                    *p = p.left();
                    Some(*p)
                })
                .collect();
            if n % 2 == 0 {
                chain.reverse();
            }
            paths.extend(chain);
        }
        let (mut most_located, mut most_grown) = (0, 0);
        for (i, path) in paths.iter().enumerate() {
            let (located, grown) = set_counting(&mut f, *path, i as u32);
            most_located = most_located.max(located);
            most_grown = most_grown.max(grown);
        }
        assert!(
            f.nodes.blocks.len() > 4_096,
            "{} blocks",
            f.nodes.blocks.len()
        );
        assert!(
            most_located <= SPAN as u64,
            "{most_located} probes for a lookup"
        );
        assert!(
            most_grown <= SPAN as u64,
            "{most_grown} probes for a growth"
        );
        for (i, path) in paths.iter().enumerate() {
            f.nodes.finger.set(usize::MAX);
            let (n, got) = probes_of(|| f.get(path));
            assert_eq!(got, Some(&(i as u32)), "{path:?}");
            assert!(n <= SPAN as u64, "{n} probes for {path:?}");
            // Present or not, two levels down.
            let (n, _) = probes_of(|| f.get(&path.right().right()));
            assert!(n <= SPAN as u64, "{n} probes below {path:?}");
        }
    }

    #[test]
    fn a_view_reads_what_get_reads() {
        let mut f = whole();
        let base = p(&[true, false, true]);
        // The root block first: it grows over `base`'s top levels, and the
        // rest of `base`'s subtree opens blocks below its claim.
        let below = top_down(base, 14);
        let paths = top_down(TreePath::ROOT, 3).into_iter().chain(below.clone());
        for (i, path) in paths.enumerate() {
            f.set(path, i as u32);
        }
        assert_eq!(f.nodes.blocks.len(), 1 + 512);
        for root in [TreePath::ROOT, base, base.left(), below[20], below[16_382]] {
            let view = f.subtree(root);
            for levels in 0..16u8 {
                for steps in [0, 1, 0x2a5, u64::MAX >> 1] {
                    let path = root.descend(levels, steps);
                    assert_eq!(view.get(levels, steps), f.get(&path), "{path:?}");
                }
            }
        }
    }

    #[test]
    fn empty_fragment() {
        let f: TreeFragment<u32, TreeRegion> = TreeFragment::empty();
        assert!(f.is_empty());
        assert!(f.region().is_empty());
    }
}
