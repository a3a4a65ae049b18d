//! Model-based test of `TreeFragment`'s block storage: random edit programs
//! run against the pre-change `BTreeMap` fragment, and after every step the
//! two must agree on every lookup, on `len`, on `iter()` order and — since
//! serialized fragment bytes are billed on the virtual clock — on
//! `wire::encode` byte for byte.

use proptest::prelude::*;

use allscale_des::rng::splitmix64;
use allscale_net::wire;
use allscale_region::{
    BitmaskTreeRegion, Fragment, PathRegion, TreeFragment, TreePath, TreeRegion,
};

/// `TreeFragment` as it was before the block storage. Kept verbatim as the
/// oracle (only the line that gives it its wire form was ported with the
/// codec); do not "tidy" it.
mod pre_change {
    use std::collections::BTreeMap;

    use allscale_net::wire::{wire_struct, Wire};
    use allscale_region::{Fragment, PathRegion, TreePath};

    #[derive(Clone)]
    pub struct TreeFragment<T, R: PathRegion> {
        region: R,
        nodes: BTreeMap<TreePath, T>,
    }
    wire_struct!(TreeFragment<T, R: PathRegion> { region, nodes });

    impl<T, R> TreeFragment<T, R>
    where
        T: Clone + Wire + 'static,
        R: PathRegion,
    {
        pub fn new(region: R) -> Self {
            TreeFragment {
                region,
                nodes: BTreeMap::new(),
            }
        }

        pub fn get(&self, path: &TreePath) -> Option<&T> {
            self.nodes.get(path)
        }

        pub fn set(&mut self, path: TreePath, value: T) -> bool {
            if !self.region.contains_path(&path) {
                return false;
            }
            self.nodes.insert(path, value);
            true
        }

        pub fn len(&self) -> usize {
            self.nodes.len()
        }

        pub fn is_empty(&self) -> bool {
            self.nodes.is_empty()
        }

        pub fn iter(&self) -> impl Iterator<Item = (&TreePath, &T)> {
            self.nodes.iter()
        }
    }

    impl<T, R> Fragment for TreeFragment<T, R>
    where
        T: Clone + Wire + 'static,
        R: PathRegion,
    {
        type Region = R;

        fn empty() -> Self {
            TreeFragment {
                region: R::empty(),
                nodes: BTreeMap::new(),
            }
        }

        fn alloc(region: &R) -> Self {
            TreeFragment::new(region.clone())
        }

        fn region(&self) -> &R {
            &self.region
        }

        fn extract(&self, region: &R) -> Self {
            let r = self.region.intersect(region);
            let nodes = self
                .nodes
                .iter()
                .filter(|(p, _)| r.contains_path(p))
                .map(|(p, v)| (*p, v.clone()))
                .collect();
            TreeFragment { region: r, nodes }
        }

        fn insert(&mut self, other: &Self) {
            self.region = self.region.union(&other.region);
            for (p, v) in &other.nodes {
                self.nodes.insert(*p, v.clone());
            }
        }

        fn remove(&mut self, region: &R) {
            self.region = self.region.difference(region);
            let keep = &self.region;
            self.nodes.retain(|p, _| keep.contains_path(p));
        }
    }
}

/// What the programs need of a region scheme beyond `PathRegion`.
trait Scheme: PathRegion + PartialEq + std::fmt::Debug {
    /// The whole tree.
    fn whole() -> Self;
    /// Some part of the tree, chosen by `sel`.
    fn part(sel: u64) -> Self;
}

impl Scheme for TreeRegion {
    fn whole() -> Self {
        TreeRegion::subtree(TreePath::ROOT)
    }
    fn part(sel: u64) -> Self {
        let at = path_from(sel % 4, sel >> 8);
        match sel % 3 {
            0 => TreeRegion::subtree(at),
            1 => TreeRegion::single(at),
            _ => TreeRegion::from_include_exclude(&[at], &[at.left().right()]),
        }
    }
}

/// Split depth of the blocked scheme under test: a root block of three
/// levels over eight subtrees.
const SPLIT: u8 = 3;

impl Scheme for BitmaskTreeRegion {
    fn whole() -> Self {
        BitmaskTreeRegion::full(SPLIT)
    }
    fn part(sel: u64) -> Self {
        let mut r = BitmaskTreeRegion::new(SPLIT);
        r.set_root_block(sel & 1 == 1);
        for i in 0..r.subtree_count() {
            r.set_subtree(i, (sel >> (i + 1)) & 1 == 1);
        }
        r
    }
}

fn path_from(depth: u64, steps: u64) -> TreePath {
    let steps: Vec<bool> = (0..depth).map(|i| (steps >> i) & 1 == 1).collect();
    TreePath::from_steps(&steps)
}

#[derive(Debug, Clone, Copy)]
enum Order {
    TopDown,
    BottomUp,
    /// Every `stride`-th node of the top-down order, wrapping: an order
    /// that is neither.
    Strided(usize),
}

#[derive(Debug, Clone)]
enum Op {
    /// Store the complete subtree of `levels` levels under `base`.
    Fill {
        base: TreePath,
        levels: u8,
        order: Order,
    },
    /// Store the `len` nodes of the all-`step` path under `base` — deeper
    /// than one block spans.
    Chain {
        base: TreePath,
        len: u8,
        step: bool,
        order: Order,
    },
    /// Store again at a path touched before.
    Reset {
        pick: usize,
    },
    /// Keep only the extracted part, or only check it.
    Extract {
        sel: u64,
        keep: bool,
    },
    /// Insert a fragment over `part(sel)` filled like `Fill`.
    Insert {
        sel: u64,
        base: TreePath,
        levels: u8,
    },
    Remove {
        sel: u64,
    },
    /// Continue on a clone (its finger is only a hint).
    Clone,
    /// Continue on what a transfer would deliver.
    Roundtrip,
}

fn arb_path() -> impl Strategy<Value = TreePath> {
    (0u64..18, any::<u64>()).prop_map(|(depth, steps)| path_from(depth, steps))
}

fn arb_order() -> impl Strategy<Value = Order> {
    prop_oneof![
        Just(Order::TopDown),
        Just(Order::BottomUp),
        (2usize..7).prop_map(Order::Strided),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Twice: fills are what builds blocks for the other arms to edit.
        (arb_path(), 1u8..6, arb_order()).prop_map(|(base, levels, order)| Op::Fill {
            base,
            levels,
            order
        }),
        (arb_path(), 1u8..6, arb_order()).prop_map(|(base, levels, order)| Op::Fill {
            base,
            levels,
            order
        }),
        (arb_path(), 1u8..30, any::<bool>(), arb_order()).prop_map(|(base, len, step, order)| {
            Op::Chain {
                base,
                len,
                step,
                order,
            }
        }),
        (0usize..1000).prop_map(|pick| Op::Reset { pick }),
        (any::<u64>(), any::<bool>()).prop_map(|(sel, keep)| Op::Extract { sel, keep }),
        (any::<u64>(), arb_path(), 1u8..5).prop_map(|(sel, base, levels)| Op::Insert {
            sel,
            base,
            levels
        }),
        any::<u64>().prop_map(|sel| Op::Remove { sel }),
        Just(Op::Clone),
        Just(Op::Roundtrip),
    ]
}

fn subtree_paths(base: TreePath, levels: u8) -> Vec<TreePath> {
    let mut out = vec![];
    let mut stack = vec![base];
    while let Some(p) = stack.pop() {
        out.push(p);
        if p.depth() + 1 < base.depth() + levels {
            stack.push(p.right());
            stack.push(p.left());
        }
    }
    out
}

fn ordered(mut top_down: Vec<TreePath>, order: Order) -> Vec<TreePath> {
    match order {
        Order::TopDown => top_down,
        Order::BottomUp => {
            top_down.reverse();
            top_down
        }
        Order::Strided(stride) => {
            let n = top_down.len();
            let mut out = Vec::with_capacity(n);
            for start in 0..stride {
                out.extend(top_down.iter().skip(start).step_by(stride));
            }
            assert_eq!(out.len(), n);
            out
        }
    }
}

/// The new fragment and the reference, edited in lockstep.
struct Pair<R: Scheme> {
    new: TreeFragment<u32, R>,
    old: pre_change::TreeFragment<u32, R>,
    touched: Vec<TreePath>,
    stamp: u32,
    /// Picks the ancestors `check` reads each touched path below.
    seed: u64,
}

impl<R: Scheme> Pair<R> {
    fn over(region: R) -> Self {
        Pair {
            new: TreeFragment::new(region.clone()),
            old: pre_change::TreeFragment::new(region),
            touched: Vec::new(),
            stamp: 0,
            seed: 0,
        }
    }

    fn set_all(&mut self, paths: Vec<TreePath>) {
        for p in paths {
            self.stamp += 1;
            assert_eq!(
                self.new.set(p, self.stamp),
                self.old.set(p, self.stamp),
                "set {p:?}"
            );
            self.touched.push(p);
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Fill {
                base,
                levels,
                order,
            } => self.set_all(ordered(subtree_paths(base, levels), order)),
            Op::Chain {
                base,
                len,
                step,
                order,
            } => {
                let mut chain = vec![base];
                for _ in 1..len {
                    chain.push(chain.last().unwrap().child(step));
                }
                self.set_all(ordered(chain, order))
            }
            Op::Reset { pick } => {
                if !self.touched.is_empty() {
                    let p = self.touched[pick % self.touched.len()];
                    self.set_all(vec![p]);
                }
            }
            Op::Extract { sel, keep } => {
                let part = R::part(sel);
                let mut cut = Pair {
                    new: self.new.extract(&part),
                    old: self.old.extract(&part),
                    touched: self.touched.clone(),
                    stamp: self.stamp,
                    seed: self.seed,
                };
                cut.check();
                if keep {
                    std::mem::swap(self, &mut cut);
                }
            }
            Op::Insert { sel, base, levels } => {
                let mut other = Pair::over(R::part(sel));
                other.stamp = self.stamp;
                other.seed = self.seed;
                other.set_all(subtree_paths(base, levels));
                other.check();
                self.new.insert(&other.new);
                self.old.insert(&other.old);
                self.touched.extend(other.touched);
                self.stamp = other.stamp;
            }
            Op::Remove { sel } => {
                let part = R::part(sel);
                self.new.remove(&part);
                self.old.remove(&part);
            }
            Op::Clone => self.new = self.new.clone(),
            Op::Roundtrip => {
                let bytes = wire::encode(&self.new);
                self.new = wire::decode(&bytes).unwrap();
                // The reference decodes the new fragment's bytes as well.
                self.old = wire::decode(&bytes).unwrap();
            }
        }
    }

    fn check(&self) {
        assert_eq!(self.new.region(), self.old.region());
        assert_eq!(self.new.len(), self.old.len());
        assert_eq!(self.new.is_empty(), self.old.is_empty());
        for (i, p) in self.touched.iter().enumerate() {
            let want = self.old.get(p);
            assert_eq!(self.new.get(p), want, "get {p:?}");
            // Again through the view rooted at some ancestor.
            let pick = splitmix64(self.seed ^ (self.stamp as u64) << 32 ^ i as u64);
            let up = pick % (p.depth() as u64 + 1);
            let mut root = *p;
            for _ in 0..up {
                root = root.parent().unwrap();
            }
            let steps = (0..up as u8).fold(0, |s, i| s | (p.step(root.depth() + i) as u64) << i);
            assert_eq!(root.descend(up as u8, steps), *p);
            assert_eq!(
                self.new.subtree(root).get(up as u8, steps),
                want,
                "{p:?} below {root:?}"
            );
        }
        let new: Vec<(TreePath, u32)> = self.new.iter().map(|(p, v)| (p, *v)).collect();
        let old: Vec<(TreePath, u32)> = self.old.iter().map(|(p, v)| (*p, *v)).collect();
        assert_eq!(new, old, "iter() order");
        assert_eq!(
            wire::encode(&self.new),
            wire::encode(&self.old),
            "wire bytes"
        );
    }
}

fn run_program<R: Scheme>(ops: &[Op], seed: u64) {
    let mut pair = Pair::<R>::over(R::whole());
    pair.seed = seed;
    for op in ops {
        pair.apply(op);
        pair.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn flexible_scheme_matches_the_map(
        ops in prop::collection::vec(arb_op(), 1..12),
        seed in any::<u64>(),
    ) {
        run_program::<TreeRegion>(&ops, seed);
    }

    #[test]
    fn blocked_scheme_matches_the_map(
        ops in prop::collection::vec(arb_op(), 1..12),
        seed in any::<u64>(),
    ) {
        run_program::<BitmaskTreeRegion>(&ops, seed);
    }
}

// ------------------------------------------------- the orders that bite
//
// TPC's shape: a root block of `H` levels, subtrees of ten levels below
// it. A block may grow towards a path only while its claim stays clear of
// every other block's root; both programs below end with two blocks
// claiming one path — and a lookup answering "no node" from the wrong one —
// on a build whose `Nodes::grow_to` skips that test.

const H: u8 = 7;
const LEVELS: u8 = 17;

fn tpc_region() -> BitmaskTreeRegion {
    BitmaskTreeRegion::full(H)
}

fn root_block() -> Vec<TreePath> {
    subtree_paths(TreePath::ROOT, H)
}

fn subtree_block(i: usize) -> Vec<TreePath> {
    subtree_paths(tpc_region().subtree_root(i), LEVELS - H)
}

/// Every stored node reads back, then takes a new value, then reads back.
fn get_and_reset_everything(pair: &mut Pair<BitmaskTreeRegion>) {
    pair.check();
    let mut stored = pair.touched.clone();
    stored.sort_unstable();
    stored.dedup();
    assert_eq!(stored.len(), pair.new.len());
    pair.set_all(stored);
    pair.check();
}

#[test]
fn subtree_block_first_then_root_block() {
    // A locality first-touches subtree 5, then the replicated root block
    // arrives as a transfer.
    let mut pair = Pair::over(tpc_region());
    pair.set_all(subtree_block(5));
    let mut replica = Pair::over(BitmaskTreeRegion::of_root_block(H));
    replica.set_all(root_block());
    pair.new
        .insert(&wire::decode(&wire::encode(&replica.new)).unwrap());
    pair.old.insert(&replica.old);
    pair.touched.extend(replica.touched);
    get_and_reset_everything(&mut pair);
    // The root block now sits above subtree 5's block; a sibling subtree
    // migrating in must not make it grow over that block's root.
    pair.set_all(subtree_block(4));
    get_and_reset_everything(&mut pair);
}

#[test]
fn root_block_first_then_subtree_block() {
    let mut pair = Pair::over(tpc_region());
    pair.set_all(root_block());
    // One leaf of subtree 5 ahead of the rest, as a bottom-up arrival
    // leaves it: a block of its own, deeper than the root block can reach.
    let leaf = *subtree_block(5).last().unwrap();
    assert_eq!(leaf.depth(), LEVELS - 1);
    pair.set_all(vec![leaf]);
    pair.set_all(subtree_block(5));
    get_and_reset_everything(&mut pair);
    pair.set_all(ordered(subtree_block(6), Order::BottomUp));
    get_and_reset_everything(&mut pair);
}

/// TPC's deepest rung (`levels: 21`): subtrees of 14 levels, deeper than a
/// block spans, so a subtree filled from its root down is one block over
/// thousands, and a root block that arrives first grows over the top of
/// each subtree. `check` reads every node through views rooted above,
/// inside and below those blocks.
#[test]
fn deepest_tpc_rung_in_both_orders() {
    let deep_subtree = |i| subtree_paths(tpc_region().subtree_root(i), 21 - H);
    for root_block_first in [false, true] {
        let mut pair = Pair::over(tpc_region());
        pair.seed = 21;
        if root_block_first {
            pair.set_all(root_block());
        }
        pair.set_all(deep_subtree(9));
        if !root_block_first {
            pair.set_all(root_block());
        }
        get_and_reset_everything(&mut pair);
        pair.set_all(deep_subtree(10));
        get_and_reset_everything(&mut pair);
    }
}
