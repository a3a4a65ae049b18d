//! Allocation budgets of the data planes, as counts: grid region algebra
//! between a fragmented region and a box that touches none of it allocates
//! the result and nothing per box pair; a tree fragment allocates per level
//! of a block, never per node or per lookup; bucket algebra with the
//! canonical empty region allocates its result. A timing would say the same
//! things with noise; `malloc` calls repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use allscale_region::{
    BoxRegion, BucketRegion, Fragment, GridBox, GridFragment, Point, Region, TreeFragment,
    TreePath, TreeRegion,
};

thread_local! {
    /// Allocations made by this thread (the test harness runs tests on
    /// threads of their own, and its main thread allocates meanwhile).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local without a destructor, so touching it
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// 64 tiles of 24×16 with gaps between them, so none coalesce.
fn spaced_tiles() -> Vec<GridBox<2>> {
    (0..64)
        .map(|i| {
            let (r, c) = (i / 16 * 48, i % 16 * 32);
            GridBox::new(Point([r, c]), Point([r + 24, c + 16])).expect("non-empty")
        })
        .collect()
}

#[test]
fn disjoint_region_algebra_allocates_only_its_result() {
    let region = BoxRegion::from_boxes(spaced_tiles());
    assert_eq!(region.boxes().len(), 64);
    let apart = BoxRegion::cuboid([1000, 0], [1024, 16]);

    let (n, u) = allocations_of(|| region.union(&apart));
    assert_eq!(u.boxes().len(), 65);
    assert_eq!(n, 1, "union with a disjoint box: the result vector");

    let (n, d) = allocations_of(|| region.difference(&apart));
    assert_eq!(d.boxes(), region.boxes());
    assert_eq!(n, 1, "difference with a disjoint box: the result vector");

    let (n, d) = allocations_of(|| apart.difference(&region));
    assert_eq!(d.boxes(), apart.boxes());
    assert_eq!(n, 1, "one box minus 64 disjoint ones: the result vector");
}

#[test]
fn removing_a_region_that_misses_every_chunk_allocates_only_the_chunk_list() {
    let mut frag = GridFragment::<f64, 2>::empty();
    for tile in spaced_tiles() {
        frag.insert(&GridFragment::new(&BoxRegion::from_box(tile)));
    }
    let before = format!("{frag:?}");
    let apart = BoxRegion::cuboid([1000, 0], [1024, 16]);
    let (n, ()) = allocations_of(|| frag.remove(&apart));
    assert_eq!(n, 1, "remove: the new chunk list, nothing per chunk");
    assert_eq!(format!("{frag:?}"), before);
}

/// The ten-level subtree under `base`, depth first from its root.
fn subtree_top_down(base: TreePath) -> Vec<TreePath> {
    let mut out = Vec::with_capacity(1023);
    let mut stack = vec![base];
    while let Some(path) = stack.pop() {
        out.push(path);
        if path.depth() < base.depth() + 9 {
            stack.push(path.left());
            stack.push(path.right());
        }
    }
    out
}

#[test]
fn tree_fragment_allocates_per_level_and_never_on_lookup() {
    let paths = subtree_top_down(TreePath::from_steps(&[true; 7]));
    assert_eq!(paths.len(), 1023);
    let mut frag = TreeFragment::<u64, TreeRegion>::new(TreeRegion::subtree(TreePath::ROOT));
    let (n, ()) = allocations_of(|| {
        for (i, path) in paths.iter().enumerate() {
            frag.set(*path, i as u64);
        }
    });
    assert_eq!(frag.len(), 1023);
    // The block, its slot table once per level, its values by doubling.
    assert!(n <= 3 * 10, "{n} allocations for 1 023 nodes on 10 levels");

    let (n, sum) = allocations_of(|| paths.iter().map(|p| frag.get(p).unwrap()).sum::<u64>());
    assert_eq!(sum, 1022 * 1023 / 2);
    assert_eq!(n, 0, "get allocates nothing");
}

#[test]
fn bucket_algebra_with_the_canonical_empty_allocates_only_its_result() {
    let owned = BucketRegion::of_range(512, 64, 128);
    let nothing = BucketRegion::empty();
    let (n, u) = allocations_of(|| owned.union(&nothing));
    assert_eq!(u, owned);
    assert_eq!(n, 1, "union with the 1-bucket empty region: the result's words");
    let (n, d) = allocations_of(|| owned.difference(&nothing));
    assert_eq!(d, owned);
    assert_eq!(n, 1, "difference: the result's words");
    let (n, i) = allocations_of(|| nothing.intersect(&owned));
    assert!(i.is_empty() && i.buckets() == 512);
    assert_eq!(n, 1, "intersection: the result's words");
}
