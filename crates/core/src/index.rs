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

use std::collections::BTreeMap;

use crate::dynamic::DynRegion;
use crate::task::ItemId;

/// A `(from, to)` control-message edge crossed during an index operation.
pub type Hop = (usize, usize);

/// One piece of a resolved region and the process hosting it.
pub type Piece = (Box<dyn DynRegion>, usize);

/// Pieces of a resolved region: which process hosts which part.
pub type Resolution = Vec<Piece>;

/// Left/right subtree regions of one inner node.
type NodeEntry = (Box<dyn DynRegion>, Box<dyn DynRegion>);

struct ItemIndex {
    /// Per process: the region covered by its locally present fragments.
    leaf: Vec<Box<dyn DynRegion>>,
    /// Per (level ≥ 2, host): regions covered by the left and right
    /// subtrees of that node.
    nodes: BTreeMap<(u32, usize), NodeEntry>,
}

/// The distributed hierarchical index.
pub struct DistIndex {
    procs: usize,
    root_level: u32,
    items: BTreeMap<ItemId, ItemIndex>,
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
        // Smallest L with 2^(L-1) >= procs.
        let mut root_level = 1;
        while (1usize << (root_level - 1)) < procs {
            root_level += 1;
        }
        DistIndex {
            procs,
            root_level: root_level as u32,
            items: BTreeMap::new(),
        }
    }

    /// The root level of the hierarchy (1 for a single process).
    pub fn root_level(&self) -> u32 {
        self.root_level
    }

    /// Register a data item with its region scheme's empty region.
    pub fn register_item(&mut self, item: ItemId, empty: &dyn DynRegion) {
        let leaf = (0..self.procs).map(|_| empty.clone_box()).collect();
        let mut nodes = BTreeMap::new();
        for l in 2..=self.root_level {
            let block = 1usize << (l - 1);
            let mut host = 0;
            while host < self.procs {
                nodes.insert((l, host), (empty.clone_box(), empty.clone_box()));
                host += block;
            }
        }
        self.items.insert(item, ItemIndex { leaf, nodes });
    }

    /// Remove a data item from the index.
    pub fn remove_item(&mut self, item: ItemId) {
        self.items.remove(&item);
    }

    /// The region process `p` currently advertises for `item`.
    pub fn leaf_region(&self, item: ItemId, p: usize) -> &dyn DynRegion {
        self.items[&item].leaf[p].as_ref()
    }

    /// Update process `p`'s advertised region and propagate along the path
    /// to the root. Returns the inter-process hops used (for billing).
    pub fn update_leaf(
        &mut self,
        item: ItemId,
        p: usize,
        region: Box<dyn DynRegion>,
    ) -> Vec<Hop> {
        let idx = self.items.get_mut(&item).expect("unregistered item");
        idx.leaf[p] = region;
        let mut hops = Vec::new();
        let mut child_host = p;
        for l in 2..=self.root_level {
            let host = parent_host(p, l - 1);
            // Recompute the affected side of the parent from the child's
            // subtree total.
            let half = 1usize << (l - 2);
            let child_is_left = child_host == host;
            let subtree_total = Self::subtree_total(idx, l - 1, child_host);
            let node = idx.nodes.get_mut(&(l, host)).expect("node exists");
            if child_is_left {
                node.0 = subtree_total;
            } else {
                debug_assert_eq!(child_host, host + half);
                node.1 = subtree_total;
            }
            if child_host != host {
                hops.push((child_host, host));
            }
            child_host = host;
        }
        hops
    }

    /// Region covered by the subtree rooted at the level-`l` node at `host`.
    fn subtree_total(idx: &ItemIndex, l: u32, host: usize) -> Box<dyn DynRegion> {
        if l == 1 {
            idx.leaf[host].clone_box()
        } else {
            let (left, right) = &idx.nodes[&(l, host)];
            left.union_dyn(right.as_ref())
        }
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
        let Some(idx) = self.items.get(&item) else {
            return (Vec::new(), Vec::new());
        };
        let mut m: Resolution = Vec::new();
        let mut hops: Vec<Hop> = Vec::new();
        let remainder = self.resolve_rec(
            idx,
            start,
            1,
            region.clone_box(),
            true,
            &mut m,
            &mut hops,
        );
        let _ = remainder;
        (m, hops)
    }

    /// Recursive RESOLVE. Returns the still-unresolved remainder of `r`.
    /// `may_escalate` is false when the call came *down* from a parent
    /// (escalation is the caller's job then).
    #[allow(clippy::too_many_arguments)]
    fn resolve_rec(
        &self,
        idx: &ItemIndex,
        i: usize,
        l: u32,
        mut r: Box<dyn DynRegion>,
        may_escalate: bool,
        m: &mut Resolution,
        hops: &mut Vec<Hop>,
    ) -> Box<dyn DynRegion> {
        // Each share is built only where `r` reaches into the subtree;
        // everywhere else the overlap test is the whole visit.
        if l == 1 {
            // Leaf level: contribute the local share.
            let ri = idx.leaf[i].as_ref();
            if !r.is_disjoint_dyn(ri) {
                m.push((r.intersect_dyn(ri), i));
                r = r.difference_dyn(ri);
            }
        } else {
            let half = 1usize << (l - 2);
            let (rl, rr) = &idx.nodes[&(l, i)];
            // Left subtree (hosted here: no hop).
            if !r.is_disjoint_dyn(rl.as_ref()) {
                let left_part = r.intersect_dyn(rl.as_ref());
                self.resolve_rec(idx, i, l - 1, left_part, false, m, hops);
                r = r.difference_dyn(rl.as_ref());
            }
            // Right subtree (hosted at i + 2^(l-2): one hop out, and the
            // reply path is billed by the caller symmetric to request).
            if !r.is_disjoint_dyn(rr.as_ref()) {
                let right_host = i + half;
                if right_host < self.procs {
                    let right_part = r.intersect_dyn(rr.as_ref());
                    hops.push((i, right_host));
                    self.resolve_rec(idx, right_host, l - 1, right_part, false, m, hops);
                }
                r = r.difference_dyn(rr.as_ref());
            }
        }
        // Fully resolved → done.
        if r.is_empty_dyn() || !may_escalate {
            return r;
        }
        // Escalate the remainder to the parent.
        if l < self.root_level {
            let host = parent_host(i, l);
            if host != i {
                hops.push((i, host));
            }
            return self.resolve_rec(idx, host, l + 1, r, true, m, hops);
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
    items: BTreeMap<ItemId, Vec<Box<dyn DynRegion>>>,
}

impl CentralIndex {
    /// A central directory over `procs` processes.
    pub fn new(procs: usize) -> Self {
        CentralIndex {
            procs,
            items: BTreeMap::new(),
        }
    }

    /// Register a data item.
    pub fn register_item(&mut self, item: ItemId, empty: &dyn DynRegion) {
        self.items
            .insert(item, (0..self.procs).map(|_| empty.clone_box()).collect());
    }

    /// Remove a data item from the directory.
    pub fn remove_item(&mut self, item: ItemId) {
        self.items.remove(&item);
    }

    /// Update process `p`'s region; one message to the directory.
    pub fn update_leaf(
        &mut self,
        item: ItemId,
        p: usize,
        region: Box<dyn DynRegion>,
    ) -> Vec<Hop> {
        self.items.get_mut(&item).expect("unregistered")[p] = region;
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
        let Some(dir) = self.items.get(&item) else {
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
