//! Allocation budgets of the data planes, as counts: a one-box grid region
//! owns no heap block; grid region algebra between a fragmented region and
//! a box that touches none of it allocates the result and nothing per box
//! pair; a grid fragment's edits allocate
//! only for what they change; a tree fragment allocates per level
//! of a block, never per node, per lookup or per subtree view; bucket
//! algebra with the
//! canonical empty region allocates its result. A timing would say the same
//! things with noise; `malloc` calls repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use allscale_net::wire;
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
    assert_eq!(n, 0, "one box minus 64 disjoint ones: one box, held inline");
}

#[test]
fn a_one_box_region_allocates_nothing() {
    assert!(std::mem::size_of::<BoxRegion<2>>() <= 40, "one box inline");
    let tile = GridBox::new(Point([0, 0]), Point([8, 8])).expect("non-empty");
    let (n, a) = allocations_of(|| BoxRegion::from_box(tile));
    assert_eq!(n, 0, "from_box");
    let (n, b) = allocations_of(|| BoxRegion::cuboid([8, 0], [16, 8]));
    assert_eq!(n, 0, "cuboid");
    let (n, c) = allocations_of(|| a.clone());
    assert_eq!((n, c.boxes()), (0, a.boxes()), "clone");

    let halo = BoxRegion::cuboid([7, 0], [9, 8]);
    let (n, i) = allocations_of(|| a.intersect(&halo));
    assert_eq!(i, BoxRegion::cuboid([7, 0], [8, 8]));
    assert_eq!(n, 0, "intersection of two boxes");
    let (n, d) = allocations_of(|| a.difference(&halo));
    assert_eq!(d, BoxRegion::cuboid([0, 0], [7, 8]));
    assert_eq!(n, 0, "difference that leaves one box");
    let (n, u) = allocations_of(|| a.union(&b));
    assert_eq!(u.boxes(), BoxRegion::cuboid([0, 0], [16, 8]).boxes());
    assert_eq!(n, 0, "union of two face-adjacent boxes, which merge");

    let bytes = wire::encode(&a);
    let (n, back) = allocations_of(|| wire::decode::<BoxRegion<2>>(&bytes));
    assert_eq!(back.expect("decodes").boxes(), a.boxes());
    assert_eq!(n, 0, "decode of one box");
}

/// A fragment holding one chunk per tile of [`spaced_tiles`], inserted one
/// by one.
fn tiled_fragment() -> GridFragment<f64, 2> {
    let mut frag = GridFragment::empty();
    for tile in spaced_tiles() {
        frag.insert(&GridFragment::new(&BoxRegion::from_box(tile)));
    }
    frag
}

#[test]
fn removing_a_region_that_misses_every_chunk_allocates_nothing() {
    let mut frag = tiled_fragment();
    let before = format!("{frag:?}");
    let apart = BoxRegion::cuboid([1000, 0], [1024, 16]);
    let (n, ()) = allocations_of(|| frag.remove(&apart));
    assert_eq!(
        n, 0,
        "remove of nothing held: the fragment is left as it is"
    );
    assert_eq!(format!("{frag:?}"), before);
}

#[test]
fn removing_whole_chunks_allocates_nothing() {
    let mut frag = tiled_fragment();
    // The first row of 16 tiles and the gaps between them.
    let first_row = BoxRegion::cuboid([0, 0], [24, 512]);
    let (n, ()) = allocations_of(|| frag.remove(&first_row));
    assert_eq!(n, 0, "remove of whole chunks: the rest stay in place");
    assert_eq!(frag.region().boxes(), &spaced_tiles()[16..]);
}

#[test]
fn a_disjoint_insert_extends_a_warm_coverage_instead_of_refolding_it() {
    let mut frag = tiled_fragment();
    assert_eq!(frag.region().boxes().len(), 64, "warm");
    let tile = GridBox::new(Point([1000, 0]), Point([1024, 16])).expect("non-empty");
    let piece = GridFragment::new(&BoxRegion::from_box(tile));
    let (n, boxes) = allocations_of(|| {
        frag.insert_owned(piece);
        frag.region().boxes().len()
    });
    assert_eq!(boxes, 65);
    // Folding the 65 chunk boxes afresh grows its output by doubling.
    assert!(
        n <= 3,
        "{n} allocations: the new box, and a full chunk list or coverage growing"
    );
    let all = spaced_tiles().into_iter().chain([tile]);
    assert_eq!(frag.region().boxes(), BoxRegion::from_boxes(all).boxes());
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
fn a_subtree_view_allocates_nothing_even_past_its_block() {
    // A root block filled first grows over the top five levels of the
    // ten-level subtree below depth 7; the subtree's last five levels are
    // blocks of their own, which the view reaches through its fallback.
    let base = TreePath::from_steps(&[true; 7]);
    let mut frag = TreeFragment::<u64, TreeRegion>::new(TreeRegion::subtree(TreePath::ROOT));
    let mut stack = vec![TreePath::ROOT];
    while let Some(path) = stack.pop() {
        frag.set(path, 0);
        if path.depth() < 6 {
            stack.push(path.left());
            stack.push(path.right());
        }
    }
    for (i, path) in subtree_top_down(base).iter().enumerate() {
        frag.set(*path, i as u64);
    }
    let mut stack: Vec<(u8, u64)> = Vec::with_capacity(20);
    let (n, (sum, visits)) = allocations_of(|| {
        let view = frag.subtree(base);
        let (mut sum, mut visits) = (0, 0);
        stack.push((0, 0));
        while let Some((levels, steps)) = stack.pop() {
            sum += view.get(levels, steps).unwrap();
            visits += 1;
            if levels < 9 {
                stack.push((levels + 1, steps));
                stack.push((levels + 1, steps | 1 << levels));
            }
        }
        (sum, visits)
    });
    assert_eq!((sum, visits), (1022 * 1023 / 2, 1023));
    assert_eq!(n, 0, "the view and its walk allocate nothing");
}

#[test]
fn bucket_algebra_with_the_canonical_empty_allocates_only_its_result() {
    let owned = BucketRegion::of_range(512, 64, 128);
    let nothing = BucketRegion::empty();
    let (n, u) = allocations_of(|| owned.union(&nothing));
    assert_eq!(u, owned);
    assert_eq!(
        n, 1,
        "union with the 1-bucket empty region: the result's words"
    );
    let (n, d) = allocations_of(|| owned.difference(&nothing));
    assert_eq!(d, owned);
    assert_eq!(n, 1, "difference: the result's words");
    let (n, i) = allocations_of(|| nothing.intersect(&owned));
    assert!(i.is_empty() && i.buckets() == 512);
    assert_eq!(n, 1, "intersection: the result's words");
}
