//! The hierarchical, distributed data storage index
//! (paper Fig. 5 and Algorithm 1).
//!
//! All runtime processes form an implicit binary hierarchy: the level-`l`
//! node (level 1 = leaves) exists at every process `i` with
//! `i ≡ 0 (mod 2^(l-1))` and covers the process block `[i, i + 2^(l-1))`;
//! inner-node roles are played by the left child, and the parent of the
//! level-`l` node at `i` is the level-`l+1` node at `2^l · ⌊i/2^l⌋` —
//! matching the paper's Fig. 5 exactly (`process0: r07 = r03 ∪ r47`, …).
//! Each process therefore stores O(log₂ P) regions per data item.
//!
//! Those subtree regions are built on demand. A leaf write clears the
//! O(log P) cached totals on its path to the root and builds nothing; a
//! lookup asks "does `r` meet this side?" of a built total, else of the
//! side's built descendants or leaves, and builds a side only to cut `r`
//! with it. A built side is the union of its children in the same order
//! the eager rebuild used, so it is a pure function of the current leaves
//! and every resolution is box for box what eager propagation gave.
//!
//! [`DistIndex::resolve`] implements Algorithm 1 (region location
//! resolution): a depth-first traversal starting at the requesting leaf,
//! escalating to the parent only for the still-unresolved remainder. One
//! clarification relative to the paper's listing: the descent into a child
//! passes `r ∩ r_child` rather than `r`, which prevents the child's own
//! escalation clause from bouncing the remainder back and forth (the
//! obvious intent of the greedy heuristic).
//!
//! The traversal is executed synchronously over the (simulation-global)
//! index state, but every inter-process edge it crosses is reported as a
//! *hop* so the caller can bill the corresponding control messages on the
//! simulated network — lookup latency is part of measured behaviour.
//!
//! A [`CentralIndex`] (single directory at process 0) is provided as an
//! ablation baseline (DESIGN.md, experiment A1).

use std::cell::OnceCell;

use crate::dynamic::DynRegion;
use crate::task::{ItemId, ItemTable};

/// A `(from, to)` control-message edge crossed during an index operation.
pub type Hop = (usize, usize);

/// One piece of a resolved region and the process hosting it.
pub type Piece = (Box<dyn DynRegion>, usize);

/// Pieces of a resolved region: which process hosts which part.
pub type Resolution = Vec<Piece>;

struct ItemIndex {
    /// Per process: the region covered by its locally present fragments.
    leaf: Vec<Box<dyn DynRegion>>,
    /// `totals[l-2][host >> (l-1)]`: the region covered by the subtree of
    /// the level-`l` node at `host`, for `2 ≤ l < root_level` — the left or
    /// right side of its parent. Built on demand and cleared on the path
    /// of every leaf write, so each is a pure function of the leaves; a
    /// level-1 side is the leaf itself.
    totals: Vec<Vec<OnceCell<Box<dyn DynRegion>>>>,
    /// The item's empty region: the side of a right child that does not
    /// exist (`host + 2^(l-2) ≥ procs`).
    empty: Box<dyn DynRegion>,
}

impl ItemIndex {
    /// Whether `r` meets the subtree of the level-`l` node at `host`.
    /// Asks the built total, else the children; builds nothing.
    fn meets(&self, r: &dyn DynRegion, l: u32, host: usize) -> bool {
        if l == 1 {
            return !r.is_disjoint_dyn(self.leaf[host].as_ref());
        }
        if let Some(total) = self.totals[l as usize - 2][host >> (l - 1)].get() {
            return !r.is_disjoint_dyn(total.as_ref());
        }
        let right = host + (1 << (l - 2));
        self.meets(r, l - 1, host) || (right < self.leaf.len() && self.meets(r, l - 1, right))
    }

    /// Region covered by the subtree of the level-`l` node at `host`,
    /// built (with every total below it) if it is not yet.
    fn total(&self, l: u32, host: usize) -> &dyn DynRegion {
        if l == 1 {
            return self.leaf[host].as_ref();
        }
        self.totals[l as usize - 2][host >> (l - 1)]
            .get_or_init(|| {
                let right = host + (1 << (l - 2));
                let right = if right < self.leaf.len() {
                    self.total(l - 1, right)
                } else {
                    self.empty.as_ref()
                };
                self.total(l - 1, host).union_dyn(right)
            })
            .as_ref()
    }
}

/// The distributed hierarchical index.
pub struct DistIndex {
    procs: usize,
    root_level: u32,
    items: ItemTable<ItemIndex>,
}

/// `2^l · ⌊i / 2^l⌋` — the host of the level-`l+1` ancestor node.
fn parent_host(i: usize, child_level: u32) -> usize {
    let l = child_level; // parent is at level l+1, hosted at 2^l·⌊i/2^l⌋
    (i >> l) << l
}

impl DistIndex {
    /// An index over `procs` processes.
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0);
        DistIndex {
            procs,
            // The smallest L with 2^(L-1) >= procs.
            root_level: procs.next_power_of_two().trailing_zeros() + 1,
            items: ItemTable::default(),
        }
    }

    /// The root level of the hierarchy (1 for a single process).
    pub fn root_level(&self) -> u32 {
        self.root_level
    }

    /// Register a data item with its region scheme's empty region.
    pub fn register_item(&mut self, item: ItemId, empty: &dyn DynRegion) {
        let leaf = (0..self.procs).map(|_| empty.clone_box()).collect();
        let totals = (2..self.root_level)
            .map(|l| {
                let nodes = self.procs.div_ceil(1 << (l - 1));
                (0..nodes).map(|_| OnceCell::new()).collect()
            })
            .collect();
        let empty = empty.clone_box();
        self.items.insert(
            item,
            ItemIndex {
                leaf,
                totals,
                empty,
            },
        );
    }

    /// Remove a data item from the index.
    pub fn remove_item(&mut self, item: ItemId) {
        self.items.remove(item);
    }

    /// The region process `p` currently advertises for `item`.
    pub fn leaf_region(&self, item: ItemId, p: usize) -> &dyn DynRegion {
        self.items.get(item).expect("unregistered item").leaf[p].as_ref()
    }

    /// Update process `p`'s advertised region and propagate along the path
    /// to the root: every subtree total on it is cleared, to be rebuilt by
    /// the first lookup that needs it. Returns the inter-process hops used
    /// (for billing).
    pub fn update_leaf(
        &mut self,
        item: ItemId,
        p: usize,
        region: Box<dyn DynRegion>,
    ) -> Vec<Hop> {
        let idx = self.items.get_mut(item).expect("unregistered item");
        idx.leaf[p] = region;
        for (k, level) in idx.totals.iter_mut().enumerate() {
            level[p >> (k + 1)].take();
        }
        let mut hops = Vec::new();
        let mut child_host = p;
        for l in 2..=self.root_level {
            let host = parent_host(p, l - 1);
            if child_host != host {
                hops.push((child_host, host));
            }
            child_host = host;
        }
        hops
    }

    /// Algorithm 1: locate the pieces of `region` of `item`, starting from
    /// process `start`. Returns the resolution (sub-region → host pairs)
    /// and the inter-process hops crossed, in traversal order.
    ///
    /// Unresolved remainders (data that exists nowhere) are simply not in
    /// the output — `⋃ m ⊆ r`, as the paper specifies. By the same
    /// semantics, an *unregistered* item (never created, or already
    /// destroyed) resolves to the empty resolution: nothing of it exists
    /// anywhere, and no traversal (hence no hops) is needed to know that,
    /// since item registration is replicated on every process.
    pub fn resolve(
        &self,
        item: ItemId,
        start: usize,
        region: &dyn DynRegion,
    ) -> (Resolution, Vec<Hop>) {
        let Some(idx) = self.items.get(item) else {
            return (Vec::new(), Vec::new());
        };
        let mut m: Resolution = Vec::new();
        let mut hops: Vec<Hop> = Vec::new();
        let mut r = self.descend(idx, start, 1, region.clone_box(), None, &mut m, &mut hops);
        // Escalate the remainder to the parent until it is resolved or the
        // root has answered.
        let (mut i, mut l) = (start, 1);
        while !r.is_empty_dyn() && l < self.root_level {
            let host = parent_host(i, l);
            if host != i {
                hops.push((i, host));
            }
            r = self.descend(idx, host, l + 1, r, Some(i), &mut m, &mut hops);
            (i, l) = (host, l + 1);
        }
        (m, hops)
    }

    /// Recursive RESOLVE below the level-`l` node at `i`: the leaf's share,
    /// or the share of each child subtree `r` meets. `from` is the child an
    /// escalating remainder came up from; everything it holds was already
    /// cut from `r`, so it is not asked again. Returns the still-unresolved
    /// remainder of `r`.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        idx: &ItemIndex,
        i: usize,
        l: u32,
        mut r: Box<dyn DynRegion>,
        from: Option<usize>,
        m: &mut Resolution,
        hops: &mut Vec<Hop>,
    ) -> Box<dyn DynRegion> {
        // Each share is built only where `r` reaches into the subtree;
        // everywhere else the overlap test is the whole visit, and a side
        // is built only to be cut from `r`.
        if l == 1 {
            // Leaf level: contribute the local share.
            let ri = idx.leaf[i].as_ref();
            if !r.is_disjoint_dyn(ri) {
                m.push((r.intersect_dyn(ri), i));
                r = r.difference_dyn(ri);
            }
            return r;
        }
        // Left subtree (hosted here: no hop).
        if from != Some(i) && idx.meets(r.as_ref(), l - 1, i) {
            let rl = idx.total(l - 1, i);
            let left_part = r.intersect_dyn(rl);
            self.descend(idx, i, l - 1, left_part, None, m, hops);
            r = r.difference_dyn(rl);
        }
        // Right subtree (hosted at i + 2^(l-2): one hop out, and the reply
        // path is billed by the caller symmetric to request).
        let right_host = i + (1 << (l - 2));
        if right_host < self.procs
            && from != Some(right_host)
            && idx.meets(r.as_ref(), l - 1, right_host)
        {
            let rr = idx.total(l - 1, right_host);
            let right_part = r.intersect_dyn(rr);
            hops.push((i, right_host));
            self.descend(idx, right_host, l - 1, right_part, None, m, hops);
            r = r.difference_dyn(rr);
        }
        r
    }
}

/// The single process hosting every piece of a resolution that also fully
/// covers `region`, if any — the coverage test of scheduler Algorithm 2
/// lines 4/7.
pub(crate) fn sole_owner_from(region: &dyn DynRegion, pieces: &[Piece]) -> Option<usize> {
    let (_, owner) = pieces.first()?;
    if pieces.iter().any(|(_, host)| host != owner) {
        return None;
    }
    covered_by(region, pieces).then_some(*owner)
}

/// Whether the pieces of a resolution cover all of `region`. One piece —
/// what a task-sized region resolves to — is asked directly; the union is
/// built only for several.
pub(crate) fn covered_by(region: &dyn DynRegion, pieces: &[Piece]) -> bool {
    match pieces {
        [(piece, _)] => region.is_subset_dyn(piece.as_ref()),
        _ => union_of(pieces).is_some_and(|all| region.is_subset_dyn(all.as_ref())),
    }
}

/// The union of a resolution's pieces, folded in piece order; `None` for
/// no pieces.
pub(crate) fn union_of(pieces: &[Piece]) -> Option<Box<dyn DynRegion>> {
    let ((first, _), rest) = pieces.split_first()?;
    Some(rest.iter().fold(first.clone_box(), |all, (piece, _)| {
        all.union_dyn(piece.as_ref())
    }))
}

/// Ablation baseline: a central directory at process 0. Every lookup and
/// every update is a round-trip to process 0.
pub struct CentralIndex {
    procs: usize,
    items: ItemTable<Vec<Box<dyn DynRegion>>>,
}

impl CentralIndex {
    /// A central directory over `procs` processes.
    pub fn new(procs: usize) -> Self {
        CentralIndex {
            procs,
            items: ItemTable::default(),
        }
    }

    /// Register a data item.
    pub fn register_item(&mut self, item: ItemId, empty: &dyn DynRegion) {
        self.items
            .insert(item, (0..self.procs).map(|_| empty.clone_box()).collect());
    }

    /// Remove a data item from the directory.
    pub fn remove_item(&mut self, item: ItemId) {
        self.items.remove(item);
    }

    /// Update process `p`'s region; one message to the directory.
    pub fn update_leaf(
        &mut self,
        item: ItemId,
        p: usize,
        region: Box<dyn DynRegion>,
    ) -> Vec<Hop> {
        self.items.get_mut(item).expect("unregistered")[p] = region;
        if p != 0 {
            vec![(p, 0)]
        } else {
            Vec::new()
        }
    }

    /// Resolve by scanning the directory; one round-trip to process 0.
    ///
    /// Unregistered items resolve to the empty resolution (the directory
    /// knows nothing of them), though the round-trip asking it is still
    /// billed — the central directory is the only place that can answer.
    pub fn resolve(
        &self,
        item: ItemId,
        start: usize,
        region: &dyn DynRegion,
    ) -> (Resolution, Vec<Hop>) {
        let hops = if start != 0 {
            vec![(start, 0), (0, start)]
        } else {
            Vec::new()
        };
        let Some(dir) = self.items.get(item) else {
            return (Vec::new(), hops);
        };
        let mut m = Vec::new();
        let mut r = region.clone_box();
        for (p, owned) in dir.iter().enumerate() {
            if !r.is_disjoint_dyn(owned.as_ref()) {
                let share = r.intersect_dyn(owned.as_ref());
                r = r.difference_dyn(share.as_ref());
                m.push((share, p));
                if r.is_empty_dyn() {
                    break;
                }
            }
        }
        (m, hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_region::{BoxRegion, Region};
    use std::collections::BTreeMap;

    fn r1(lo: i64, hi: i64) -> BoxRegion<1> {
        BoxRegion::cuboid([lo], [hi])
    }

    /// Distribute [0, 8·k) row-blocks over 8 processes.
    fn populated(procs: usize, k: i64) -> (DistIndex, ItemId) {
        let item = ItemId(0);
        let mut idx = DistIndex::new(procs);
        idx.register_item(item, &BoxRegion::<1>::empty());
        for p in 0..procs {
            let lo = p as i64 * k;
            idx.update_leaf(item, p, Box::new(r1(lo, lo + k)));
        }
        (idx, item)
    }

    /// The coverage test as the scheduler runs it: resolve, then ask.
    fn sole_owner(
        idx: &DistIndex,
        item: ItemId,
        start: usize,
        region: &BoxRegion<1>,
    ) -> Option<usize> {
        let (pieces, _) = idx.resolve(item, start, region);
        sole_owner_from(region, &pieces)
    }

    /// The index as it was before subtree totals were built on demand:
    /// every leaf write rebuilds `left ∪ right` at every level up to the
    /// root. The oracle of `lazy_totals_resolve_box_for_box_like_eager`.
    struct EagerIndex {
        procs: usize,
        root_level: u32,
        leaf: Vec<Box<dyn DynRegion>>,
        /// Per (level ≥ 2, host): the left and right subtree regions.
        nodes: BTreeMap<(u32, usize), Sides>,
    }

    type Sides = (Box<dyn DynRegion>, Box<dyn DynRegion>);

    impl EagerIndex {
        fn new(procs: usize, empty: &dyn DynRegion) -> Self {
            let root_level = DistIndex::new(procs).root_level();
            let mut nodes = BTreeMap::new();
            for l in 2..=root_level {
                for host in (0..procs).step_by(1 << (l - 1)) {
                    nodes.insert((l, host), (empty.clone_box(), empty.clone_box()));
                }
            }
            let leaf = (0..procs).map(|_| empty.clone_box()).collect();
            EagerIndex {
                procs,
                root_level,
                leaf,
                nodes,
            }
        }

        fn update_leaf(&mut self, p: usize, region: Box<dyn DynRegion>) -> Vec<Hop> {
            self.leaf[p] = region;
            let mut hops = Vec::new();
            let mut child_host = p;
            for l in 2..=self.root_level {
                let host = parent_host(p, l - 1);
                let subtree_total = self.subtree_total(l - 1, child_host);
                let node = self.nodes.get_mut(&(l, host)).expect("node exists");
                if child_host == host {
                    node.0 = subtree_total;
                } else {
                    node.1 = subtree_total;
                }
                if child_host != host {
                    hops.push((child_host, host));
                }
                child_host = host;
            }
            hops
        }

        fn subtree_total(&self, l: u32, host: usize) -> Box<dyn DynRegion> {
            if l == 1 {
                self.leaf[host].clone_box()
            } else {
                let (left, right) = &self.nodes[&(l, host)];
                left.union_dyn(right.as_ref())
            }
        }

        fn resolve(&self, start: usize, region: &dyn DynRegion) -> (Resolution, Vec<Hop>) {
            let (mut m, mut hops) = (Vec::new(), Vec::new());
            self.resolve_rec(start, 1, region.clone_box(), true, &mut m, &mut hops);
            (m, hops)
        }

        fn resolve_rec(
            &self,
            i: usize,
            l: u32,
            mut r: Box<dyn DynRegion>,
            may_escalate: bool,
            m: &mut Resolution,
            hops: &mut Vec<Hop>,
        ) -> Box<dyn DynRegion> {
            if l == 1 {
                let ri = self.leaf[i].as_ref();
                if !r.is_disjoint_dyn(ri) {
                    m.push((r.intersect_dyn(ri), i));
                    r = r.difference_dyn(ri);
                }
            } else {
                let half = 1usize << (l - 2);
                let (rl, rr) = &self.nodes[&(l, i)];
                if !r.is_disjoint_dyn(rl.as_ref()) {
                    let left_part = r.intersect_dyn(rl.as_ref());
                    self.resolve_rec(i, l - 1, left_part, false, m, hops);
                    r = r.difference_dyn(rl.as_ref());
                }
                if !r.is_disjoint_dyn(rr.as_ref()) {
                    let right_host = i + half;
                    if right_host < self.procs {
                        let right_part = r.intersect_dyn(rr.as_ref());
                        hops.push((i, right_host));
                        self.resolve_rec(right_host, l - 1, right_part, false, m, hops);
                    }
                    r = r.difference_dyn(rr.as_ref());
                }
            }
            if r.is_empty_dyn() || !may_escalate {
                return r;
            }
            if l < self.root_level {
                let host = parent_host(i, l);
                if host != i {
                    hops.push((i, host));
                }
                return self.resolve_rec(host, l + 1, r, true, m, hops);
            }
            r
        }
    }

    /// The on-demand index beside its eager oracle, fed the same writes.
    struct Both {
        lazy: DistIndex,
        eager: EagerIndex,
        leaf: Vec<BoxRegion<2>>,
    }

    impl Both {
        fn write(&mut self, p: usize, r: BoxRegion<2>) {
            let hops = self.lazy.update_leaf(ItemId(0), p, Box::new(r.clone()));
            assert_eq!(hops, self.eager.update_leaf(p, Box::new(r.clone())));
            self.leaf[p] = r;
        }
    }

    /// Seeded interleavings of leaf writes and lookups on 2-D tiles
    /// scattered round-robin: the on-demand index gives the eager one's
    /// pieces — the same boxes, owners and order — and the same hops.
    /// Set equality would not do: a piece becomes a `Move` region whose
    /// chunk cuts are billed. Some writes advertise a tile at both ends
    /// of a move (an inbound fence), so leaves overlap; the process
    /// counts cover missing right children (3, 6) and a deep tree (64).
    #[test]
    fn lazy_totals_resolve_box_for_box_like_eager() {
        use allscale_des::rng::XorShift64;
        const SIDE: i64 = 12; // tiles per grid side
        const TILE: i64 = 4;
        let tile = |t: i64| {
            let (x, y) = (t % SIDE * TILE, t / SIDE * TILE);
            BoxRegion::<2>::cuboid([x, y], [x + TILE, y + TILE])
        };
        let show = |m: &Resolution| -> Vec<String> {
            m.iter().map(|(r, p)| format!("{r:?}@{p}")).collect()
        };
        for procs in [1usize, 3, 6, 8, 64] {
            for seed in 1..=4u64 {
                let mut rng = XorShift64::new(seed * 1_000 + procs as u64);
                let empty = BoxRegion::<2>::empty();
                let mut both = Both {
                    lazy: DistIndex::new(procs),
                    eager: EagerIndex::new(procs, &empty),
                    leaf: vec![empty.clone(); procs],
                };
                both.lazy.register_item(ItemId(0), &empty);
                // Tiles not yet touched, in the order first touch meets them.
                let mut untouched: Vec<i64> = (0..SIDE * SIDE).rev().collect();
                for step in 0..400 {
                    let pick = rng.below(10);
                    if pick < 4 && !untouched.is_empty() {
                        // First touch, scattered round-robin.
                        let t = untouched.pop().unwrap();
                        let p = t as usize % procs;
                        both.write(p, both.leaf[p].union(&tile(t)));
                    } else if pick < 6 {
                        // A move of one tile: the destination advertises
                        // it; half the time the source drops it at once,
                        // otherwise both ends advertise it (a fence).
                        let t = rng.below((SIDE * SIDE) as u64) as i64;
                        let Some(src) = (0..procs).find(|&p| !both.leaf[p].is_disjoint(&tile(t)))
                        else {
                            continue;
                        };
                        let dst = rng.below(procs as u64) as usize;
                        both.write(dst, both.leaf[dst].union(&tile(t)));
                        if dst != src && rng.below(2) == 0 {
                            both.write(src, both.leaf[src].difference(&tile(t)));
                        }
                    } else {
                        let (x, y) = (rng.below(40) as i64, rng.below(40) as i64);
                        let (w, h) = (1 + rng.below(20) as i64, 1 + rng.below(20) as i64);
                        let query = BoxRegion::<2>::cuboid([x, y], [x + w, y + h]);
                        let start = rng.below(procs as u64) as usize;
                        let (got, got_hops) = both.lazy.resolve(ItemId(0), start, &query);
                        let (want, want_hops) = both.eager.resolve(start, &query);
                        let at = format!("P={procs} seed={seed} step={step} from {start}");
                        assert_eq!(show(&got), show(&want), "{at}: pieces of {query:?}");
                        assert_eq!(got_hops, want_hops, "{at}: hops");
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchy_shape_matches_fig5() {
        let idx = DistIndex::new(8);
        assert_eq!(idx.root_level(), 4);
        // Parent of leaf p3 is the level-2 node at p2, etc.
        assert_eq!(parent_host(3, 1), 2);
        assert_eq!(parent_host(2, 2), 0);
        assert_eq!(parent_host(6, 2), 4);
        assert_eq!(parent_host(4, 3), 0);
    }

    #[test]
    fn local_lookup_needs_no_hops() {
        let (idx, item) = populated(8, 10);
        let (m, hops) = idx.resolve(item, 3, &r1(30, 40));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 3);
        assert!(hops.is_empty(), "local data must resolve locally: {hops:?}");
    }

    #[test]
    fn sibling_lookup_escalates_once() {
        let (idx, item) = populated(8, 10);
        // p2 looks for p3's block: escalate to level-2 node at p2 (self),
        // then descend right to p3.
        let (m, hops) = idx.resolve(item, 2, &r1(30, 40));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 3);
        assert_eq!(hops, vec![(2, 3)]);
    }

    #[test]
    fn cross_tree_lookup_goes_over_the_root() {
        let (idx, item) = populated(8, 10);
        // p7 looks for p0's block: up to p6 (l2), p4 (l3), p0 (root), then
        // down the left subtree which is hosted at p0 directly.
        let (m, hops) = idx.resolve(item, 7, &r1(0, 10));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 0);
        assert_eq!(hops, vec![(7, 6), (6, 4), (4, 0)]);
    }

    #[test]
    fn scattered_region_resolves_to_all_owners() {
        let (idx, item) = populated(8, 10);
        let query = r1(5, 75); // spans all 8 blocks partially
        let (m, _) = idx.resolve(item, 0, &query);
        let mut owners: Vec<usize> = m.iter().map(|(_, p)| *p).collect();
        owners.sort_unstable();
        assert_eq!(owners, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Pieces must tile the query exactly.
        let mut total = BoxRegion::<1>::empty();
        for (piece, _) in &m {
            let piece = piece
                .as_any()
                .downcast_ref::<BoxRegion<1>>()
                .unwrap()
                .clone();
            assert!(total.is_disjoint(&piece));
            total = total.union(&piece);
        }
        assert_eq!(total, query);
    }

    #[test]
    fn unknown_data_resolves_to_nothing() {
        let (idx, item) = populated(4, 10);
        let (m, _) = idx.resolve(item, 1, &r1(100, 120));
        assert!(m.is_empty());
    }

    #[test]
    fn unregistered_item_resolves_to_nothing() {
        // Regression: resolving an item that was never registered (or was
        // destroyed) must return the empty resolution (⋃ m ⊆ r), not panic.
        let (mut idx, item) = populated(4, 10);
        let ghost = ItemId(99);
        let (m, hops) = idx.resolve(ghost, 1, &r1(0, 10));
        assert!(m.is_empty());
        assert!(hops.is_empty());
        assert_eq!(sole_owner(&idx, ghost, 1, &r1(0, 10)), None);
        // The destroy path goes through the same code.
        idx.remove_item(item);
        let (m, _) = idx.resolve(item, 0, &r1(0, 10));
        assert!(m.is_empty());
    }

    #[test]
    fn central_unregistered_item_resolves_to_nothing() {
        let idx = CentralIndex::new(4);
        let (m, hops) = idx.resolve(ItemId(7), 3, &r1(0, 10));
        assert!(m.is_empty());
        // The directory round-trip is still billed: only process 0 can say
        // the item is unknown.
        assert_eq!(hops, vec![(3, 0), (0, 3)]);
    }

    #[test]
    fn update_propagates_to_root() {
        let item = ItemId(0);
        let mut idx = DistIndex::new(8);
        idx.register_item(item, &BoxRegion::<1>::empty());
        let hops = idx.update_leaf(item, 5, Box::new(r1(0, 10)));
        // Path: p5 → l2@p4 → l3@p4 → root@p0; inter-process hops are
        // 5→4 and 4→0 (the l2→l3 step stays on p4).
        assert_eq!(hops, vec![(5, 4), (4, 0)]);
        // Lookup from p0 now finds it.
        let (m, _) = idx.resolve(item, 0, &r1(3, 7));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 5);
    }

    #[test]
    fn sole_owner_detection() {
        let (idx, item) = populated(8, 10);
        assert_eq!(sole_owner(&idx, item, 2, &r1(30, 40)), Some(3));
        assert_eq!(sole_owner(&idx, item, 2, &r1(30, 45)), None); // spans 2
        assert_eq!(sole_owner(&idx, item, 2, &r1(100, 110)), None); // nowhere
        assert_eq!(sole_owner(&idx, item, 2, &BoxRegion::<1>::empty()), None);
    }

    #[test]
    fn migration_updates_are_visible() {
        let (mut idx, item) = populated(4, 10);
        // Move p3's block to p0.
        idx.update_leaf(item, 3, Box::new(BoxRegion::<1>::empty()));
        idx.update_leaf(item, 0, Box::new(r1(0, 10).union(&r1(30, 40))));
        assert_eq!(sole_owner(&idx, item, 1, &r1(30, 40)), Some(0));
    }

    #[test]
    fn non_power_of_two_process_counts() {
        let (idx, item) = populated(6, 10);
        for p in 0..6 {
            let lo = p as i64 * 10;
            assert_eq!(
                sole_owner(&idx, item, (p + 1) % 6, &r1(lo, lo + 10)),
                Some(p),
                "process {p}"
            );
        }
    }

    #[test]
    fn single_process_index() {
        let (idx, item) = populated(1, 10);
        let (m, hops) = idx.resolve(item, 0, &r1(0, 10));
        assert_eq!(m.len(), 1);
        assert!(hops.is_empty());
    }

    #[test]
    fn central_index_round_trips() {
        let item = ItemId(0);
        let mut idx = CentralIndex::new(4);
        idx.register_item(item, &BoxRegion::<1>::empty());
        assert_eq!(idx.update_leaf(item, 2, Box::new(r1(0, 10))), vec![(2, 0)]);
        let (m, hops) = idx.resolve(item, 3, &r1(2, 8));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 2);
        assert_eq!(hops, vec![(3, 0), (0, 3)]);
        idx.remove_item(item);
        assert!(idx.resolve(item, 3, &r1(2, 8)).0.is_empty());
    }

    #[test]
    fn hop_counts_stay_logarithmic() {
        // Worst-case lookup in a 64-process index crosses O(log P) edges.
        let (idx, item) = populated(64, 10);
        let (_, hops) = idx.resolve(item, 63, &r1(0, 10));
        assert!(
            hops.len() <= 2 * 6,
            "expected O(log 64) hops, got {}",
            hops.len()
        );
    }
}
