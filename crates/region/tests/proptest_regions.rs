//! Property-based tests: every region scheme's algebra is checked against
//! a brute-force element-set oracle on randomized inputs, and the
//! fragment laws are checked against randomized edit scripts.

use proptest::prelude::*;
use std::collections::BTreeSet;

use allscale_net::wire;
use allscale_region::{
    check_laws, fnv1a_64, BitmaskTreeRegion, BoxRegion, BucketRegion, Fragment, GridBox,
    GridFragment, Point, Region, TreePath, TreeRegion,
};

// ------------------------------------------------------------- box regions

fn arb_box2() -> impl Strategy<Value = GridBox<2>> {
    (0i64..12, 0i64..12, 1i64..6, 1i64..6).prop_map(|(x, y, w, h)| {
        GridBox::new(Point([x, y]), Point([x + w, y + h])).expect("non-empty")
    })
}

fn arb_box_region() -> impl Strategy<Value = BoxRegion<2>> {
    prop::collection::vec(arb_box2(), 0..5).prop_map(BoxRegion::from_boxes)
}

fn box_oracle(r: &BoxRegion<2>) -> BTreeSet<[i64; 2]> {
    r.points().map(|p| p.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn box_region_laws(a in arb_box_region(), b in arb_box_region()) {
        check_laws(&a, &b, box_oracle);
    }

    #[test]
    fn box_region_boxes_stay_disjoint(a in arb_box_region(), b in arb_box_region()) {
        for r in [a.union(&b), a.intersect(&b), a.difference(&b)] {
            let boxes = r.boxes();
            for i in 0..boxes.len() {
                for j in i + 1..boxes.len() {
                    prop_assert!(boxes[i].intersect(&boxes[j]).is_none());
                }
            }
        }
    }

    #[test]
    fn box_region_cardinality_is_inclusion_exclusion(
        a in arb_box_region(),
        b in arb_box_region()
    ) {
        let u = a.union(&b).cardinality();
        let i = a.intersect(&b).cardinality();
        prop_assert_eq!(u + i, a.cardinality() + b.cardinality());
    }

    #[test]
    fn box_region_dilate_contains_original(a in arb_box_region()) {
        let universe = GridBox::<2>::from_shape([64, 64]).unwrap();
        let clipped = a.intersect(&BoxRegion::from_box(universe));
        let d = clipped.dilate_within(1, &universe);
        prop_assert!(clipped.is_subset_of(&d));
    }
}

// ------------------------------------ box regions: representation is pinned

/// The box algebra as it was before the disjoint fast paths, on plain box
/// lists. Serialized fragment and region bytes are billed on the virtual
/// clock, so the optimised code must return the *same boxes in the same
/// order*, not merely the same point set. Kept verbatim as the oracle; do
/// not "tidy" it.
mod pre_change {
    use allscale_region::GridBox;

    pub fn subtract<const D: usize>(a: &GridBox<D>, other: &GridBox<D>) -> Vec<GridBox<D>> {
        let Some(overlap) = a.intersect(other) else {
            return vec![*a];
        };
        if overlap == *a {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut lo = a.lo();
        let mut hi = a.hi();
        for d in 0..D {
            if lo[d] < overlap.lo()[d] {
                let mut slab_hi = hi;
                slab_hi[d] = overlap.lo()[d];
                out.push(GridBox::new(lo, slab_hi).unwrap());
                lo[d] = overlap.lo()[d];
            }
            if overlap.hi()[d] < hi[d] {
                let mut slab_lo = lo;
                slab_lo[d] = overlap.hi()[d];
                out.push(GridBox::new(slab_lo, hi).unwrap());
                hi[d] = overlap.hi()[d];
            }
        }
        out
    }

    fn try_merge<const D: usize>(a: &GridBox<D>, b: &GridBox<D>) -> Option<GridBox<D>> {
        let mut diff_axis = None;
        for d in 0..D {
            if a.lo()[d] == b.lo()[d] && a.hi()[d] == b.hi()[d] {
                continue;
            }
            if diff_axis.is_some() {
                return None;
            }
            diff_axis = Some(d);
        }
        let d = diff_axis?;
        if a.hi()[d] == b.lo()[d] {
            GridBox::new(a.lo(), {
                let mut h = a.hi();
                h[d] = b.hi()[d];
                h
            })
        } else if b.hi()[d] == a.lo()[d] {
            GridBox::new(b.lo(), {
                let mut h = b.hi();
                h[d] = a.hi()[d];
                h
            })
        } else {
            None
        }
    }

    pub fn coalesce<const D: usize>(mut boxes: Vec<GridBox<D>>) -> Vec<GridBox<D>> {
        loop {
            let mut merged_any = false;
            'outer: for i in 0..boxes.len() {
                for j in i + 1..boxes.len() {
                    if let Some(m) = try_merge(&boxes[i], &boxes[j]) {
                        boxes[i] = m;
                        boxes.swap_remove(j);
                        merged_any = true;
                        break 'outer;
                    }
                }
            }
            if !merged_any {
                return boxes;
            }
        }
    }

    pub fn union<const D: usize>(this: &[GridBox<D>], other: &[GridBox<D>]) -> Vec<GridBox<D>> {
        let mut out = this.to_vec();
        for b in other {
            let mut parts = vec![*b];
            for a in this {
                let mut next = Vec::with_capacity(parts.len());
                for p in parts {
                    next.extend(subtract(&p, a));
                }
                parts = next;
                if parts.is_empty() {
                    break;
                }
            }
            out.extend(parts);
        }
        coalesce(out)
    }

    pub fn difference<const D: usize>(
        this: &[GridBox<D>],
        other: &[GridBox<D>],
    ) -> Vec<GridBox<D>> {
        let mut out = Vec::new();
        for a in this {
            let mut parts = vec![*a];
            for b in other {
                let mut next = Vec::with_capacity(parts.len());
                for p in parts {
                    next.extend(subtract(&p, b));
                }
                parts = next;
                if parts.is_empty() {
                    break;
                }
            }
            out.extend(parts);
        }
        coalesce(out)
    }

    pub fn from_boxes<const D: usize>(boxes: &[GridBox<D>]) -> Vec<GridBox<D>> {
        let mut r = Vec::new();
        for b in boxes {
            r = union(&r, &[*b]);
        }
        r
    }

    /// Chunk boxes of a `GridFragment` after `remove(region)`.
    pub fn remove<const D: usize>(chunks: &[GridBox<D>], region: &[GridBox<D>]) -> Vec<GridBox<D>> {
        let mut new_chunks = Vec::new();
        for c in chunks {
            let keep = difference(&[*c], region);
            if keep.len() == 1 && keep[0] == *c {
                new_chunks.push(*c);
                continue;
            }
            new_chunks.extend(keep);
        }
        new_chunks
    }
}

/// Boxes on a coarse lattice, so that exact adjacency (coalescing) and
/// exact disjointness (the fast paths) both come up often.
fn arb_lattice_box() -> impl Strategy<Value = GridBox<2>> {
    (0i64..6, 0i64..6, 1i64..3, 1i64..3).prop_map(|(x, y, w, h)| {
        GridBox::new(Point([3 * x, 3 * y]), Point([3 * (x + w), 3 * (y + h)])).expect("non-empty")
    })
}

fn arb_box_list() -> impl Strategy<Value = Vec<GridBox<2>>> {
    prop_oneof![
        prop::collection::vec(arb_box2(), 0..7),
        prop::collection::vec(arb_lattice_box(), 0..16),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn box_algebra_keeps_the_pre_change_representation(
        xs in arb_box_list(),
        ys in arb_box_list()
    ) {
        let a = BoxRegion::from_boxes(xs.iter().copied());
        let b = BoxRegion::from_boxes(ys.iter().copied());
        prop_assert_eq!(a.boxes().to_vec(), pre_change::from_boxes(&xs));
        prop_assert_eq!(b.boxes().to_vec(), pre_change::from_boxes(&ys));
        prop_assert_eq!(
            a.union(&b).boxes().to_vec(),
            pre_change::union(a.boxes(), b.boxes())
        );
        prop_assert_eq!(
            a.difference(&b).boxes().to_vec(),
            pre_change::difference(a.boxes(), b.boxes())
        );
        let universe = GridBox::<2>::from_shape([20, 20]).unwrap();
        let dilated: Vec<_> = a
            .boxes()
            .iter()
            .filter_map(|bx| bx.dilate(1).intersect(&universe))
            .collect();
        prop_assert_eq!(
            a.dilate_within(1, &universe).boxes().to_vec(),
            pre_change::from_boxes(&dilated)
        );
    }

    #[test]
    fn fold_boxes_continues_from_boxes(xs in arb_box_list(), ys in arb_box_list()) {
        let folded = BoxRegion::from_boxes(xs.iter().copied()).fold_boxes(ys.iter().copied());
        let whole = BoxRegion::from_boxes(xs.iter().chain(&ys).copied());
        prop_assert_eq!(folded.boxes(), whole.boxes());
    }

    #[test]
    fn box_subtract_keeps_the_pre_change_pieces(a in arb_box2(), b in arb_box2()) {
        prop_assert_eq!(a.subtract(&b), pre_change::subtract(&a, &b));
    }
}

// ------------------------------------------------------------ tree regions

fn arb_path(max_depth: u8) -> impl Strategy<Value = TreePath> {
    prop::collection::vec(any::<bool>(), 0..=max_depth as usize)
        .prop_map(|steps| TreePath::from_steps(&steps))
}

fn arb_tree_region() -> impl Strategy<Value = TreeRegion> {
    (
        prop::collection::vec(arb_path(3), 0..3),
        prop::collection::vec(arb_path(4), 0..3),
    )
        .prop_map(|(inc, exc)| TreeRegion::from_include_exclude(&inc, &exc))
}

const ORACLE_HEIGHT: u8 = 5;

fn tree_oracle(r: &TreeRegion) -> BTreeSet<TreePath> {
    r.paths(ORACLE_HEIGHT).into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_region_laws(a in arb_tree_region(), b in arb_tree_region()) {
        check_laws(&a, &b, tree_oracle);
    }

    #[test]
    fn tree_region_cardinality_matches_enumeration(a in arb_tree_region()) {
        prop_assert_eq!(a.cardinality(ORACLE_HEIGHT) as usize, tree_oracle(&a).len());
    }
}

// --------------------------------------------------------- bitmask regions

fn arb_bitmask(h: u8) -> impl Strategy<Value = BitmaskTreeRegion> {
    let bits = (1usize << h) + 1;
    prop::collection::vec(any::<bool>(), bits).prop_map(move |bs| {
        let mut r = BitmaskTreeRegion::new(h);
        r.set_root_block(bs[0]);
        for (i, &b) in bs[1..].iter().enumerate() {
            r.set_subtree(i, b);
        }
        r
    })
}

fn bitmask_oracle(r: &BitmaskTreeRegion) -> BTreeSet<TreePath> {
    let mut out = BTreeSet::new();
    let mut stack = vec![TreePath::ROOT];
    while let Some(p) = stack.pop() {
        if r.contains(&p) {
            out.insert(p);
        }
        if p.depth() + 1 < ORACLE_HEIGHT {
            stack.push(p.left());
            stack.push(p.right());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitmask_region_laws(a in arb_bitmask(3), b in arb_bitmask(3)) {
        check_laws(&a, &b, bitmask_oracle);
    }

    #[test]
    fn bitmask_agrees_with_tree_region(a in arb_bitmask(2)) {
        let t = a.to_tree_region();
        let mut stack = vec![TreePath::ROOT];
        while let Some(p) = stack.pop() {
            prop_assert_eq!(a.contains(&p), t.contains(&p), "path {:?}", p);
            if p.depth() + 1 < ORACLE_HEIGHT {
                stack.push(p.left());
                stack.push(p.right());
            }
        }
    }
}

// ---------------------------------------------------------- bucket regions

/// 130 buckets: three words, the last one partial.
const BUCKETS: u32 = 130;

fn arb_bucket_region() -> impl Strategy<Value = BucketRegion> {
    prop_oneof![
        // Sparse (task-sized), dense, and the canonical 1-bucket empty
        // region a manager's replica coverage starts out as.
        prop::collection::vec(0..BUCKETS, 0..4),
        prop::collection::vec(0..BUCKETS, 40..120),
    ]
    .prop_map(|bs| {
        if bs.is_empty() {
            return BucketRegion::empty();
        }
        let mut r = BucketRegion::new(BUCKETS);
        for b in bs {
            r.set(b, true);
        }
        r
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucket_region_laws(a in arb_bucket_region(), b in arb_bucket_region()) {
        check_laws(&a, &b, |r| r.iter().collect::<BTreeSet<u32>>());
    }
}

// ---------------------------------------- fingerprints: every region scheme

/// The streamed fingerprint (the location-cache key) is the FNV-1a of the
/// wire encoding, byte for byte: a key that moved would turn hits into
/// misses, and misses are billed.
fn fingerprint_matches_encoding<R: Region>(r: &R) {
    let bytes = wire::encode(r);
    assert_eq!(wire::fingerprint(r), fnv1a_64(&bytes), "{r:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fingerprints_hash_the_encoding(
        boxes in arb_box_region(),
        tree in arb_tree_region(),
        bitmask in arb_bitmask(7),
        buckets in arb_bucket_region()
    ) {
        fingerprint_matches_encoding(&boxes);
        fingerprint_matches_encoding(&tree);
        fingerprint_matches_encoding(&bitmask);
        fingerprint_matches_encoding(&buckets);
        fingerprint_matches_encoding(&BoxRegion::<2>::empty());
        fingerprint_matches_encoding(&BitmaskTreeRegion::empty());
    }
}

// ---------------------------------------------------------- fragment laws

#[derive(Debug, Clone)]
enum Edit {
    /// Insert a piece covering these boxes, every element set to the value.
    Insert(Vec<GridBox<2>>, i64),
    Remove(Vec<GridBox<2>>),
    Extract(GridBox<2>),
    Get(Point<2>),
    Set(Point<2>, i64),
    /// Read the run starting here, then overwrite it with these values.
    Row(Point<2>, Vec<i64>),
}

fn arb_box3() -> impl Strategy<Value = GridBox<3>> {
    (0i64..5, 0i64..5, 0i64..8, 1i64..4, 1i64..4, 1i64..6).prop_map(|(x, y, z, w, h, d)| {
        GridBox::new(Point([x, y, z]), Point([x + w, y + h, z + d])).expect("non-empty")
    })
}

fn arb_point2() -> impl Strategy<Value = Point<2>> {
    (0i64..18, 0i64..18).prop_map(|(x, y)| Point([x, y]))
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let boxes = || {
        prop_oneof![
            prop::collection::vec(arb_box2(), 1..3),
            prop::collection::vec(arb_lattice_box(), 1..4),
        ]
    };
    prop_oneof![
        (boxes(), -100i64..100).prop_map(|(b, v)| Edit::Insert(b, v)),
        boxes().prop_map(Edit::Remove),
        arb_box2().prop_map(Edit::Extract),
        arb_point2().prop_map(Edit::Get),
        arb_point2().prop_map(Edit::Get),
        (arb_point2(), -100i64..100).prop_map(|(p, v)| Edit::Set(p, v)),
        (arb_point2(), arb_row()).prop_map(|(p, vals)| Edit::Row(p, vals)),
    ]
}

/// Long enough to cross two or three of the 1-to-5-wide chunks.
fn arb_row() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-100i64..100, 1..12)
}

/// `read_row` against element-wise `get` and `write_row` against
/// element-wise `set` (each on its own clone) over the run of `vals.len()`
/// elements from `start`: the same values, `false` iff some element is
/// uncovered, uncovered slots left alone, and the same chunks afterwards.
fn rows_match_elements<const D: usize>(
    frag: &GridFragment<i64, D>,
    start: Point<D>,
    vals: &[i64],
) -> Result<(), TestCaseError> {
    const UNTOUCHED: i64 = i64::MIN;
    let run: Vec<Point<D>> = (0..vals.len() as i64)
        .map(|k| {
            let mut p = start;
            p[D - 1] += k;
            p
        })
        .collect();
    let mut read = vec![UNTOUCHED; vals.len()];
    let all_read = frag.read_row(&start, &mut read);
    let expect: Vec<Option<i64>> = run.iter().map(|p| frag.get(p).copied()).collect();
    prop_assert_eq!(all_read, expect.iter().all(Option::is_some));
    let expect: Vec<i64> = expect.iter().map(|v| v.unwrap_or(UNTOUCHED)).collect();
    prop_assert_eq!(read, expect);

    let (mut by_row, mut by_cell) = (frag.clone(), frag.clone());
    let all_written = by_row.write_row(&start, vals);
    let mut all_set = true;
    for (p, v) in run.iter().zip(vals) {
        all_set &= by_cell.set(p, *v);
    }
    prop_assert_eq!(all_written, all_set);
    prop_assert_eq!(wire::encode(&by_row), wire::encode(&by_cell));
    Ok(())
}

/// The extract view serializes to the bytes of the copy `extract` builds:
/// the same chunks in the same order, the same boxes, the same elements.
fn view_matches_extract<const D: usize>(
    frag: &GridFragment<i64, D>,
    region: &BoxRegion<D>,
) -> Result<(), TestCaseError> {
    let copy = wire::encode(&frag.extract(region));
    prop_assert_eq!(wire::encode(&frag.extract_view(region)), copy);
    Ok(())
}

type CellMap = std::collections::BTreeMap<[i64; 2], i64>;

/// What a front-to-back scan of the chunks finds at `p`.
fn scan(frag: &GridFragment<i64, 2>, p: &Point<2>) -> Option<i64> {
    let mut found = None;
    frag.for_each(|q, v| {
        if q == *p && found.is_none() {
            found = Some(*v);
        }
    });
    found
}

fn chunk_list(chunks: &[GridBox<2>]) -> String {
    let items: Vec<String> = chunks.iter().map(|c| format!("{c:?}")).collect();
    format!("GridFragment({})", items.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Apply a random script of edits and element accesses to a fragment, a
    /// plain map of its cells and a list of its chunk boxes maintained with
    /// the pre-change algebra. Lookups (which go through the finger, kept
    /// warm across edits that reorder, split and drop chunks) must agree
    /// with the map and with a plain scan, row access with element access;
    /// the chunk list and `region()` — memoized between edits, so asked for
    /// after each one — must keep the pre-change structure.
    #[test]
    fn fragment_tracks_map_oracle(edits in prop::collection::vec(arb_edit(), 1..24)) {
        let mut frag = GridFragment::<i64, 2>::empty();
        let mut oracle = CellMap::new();
        let mut chunks: Vec<GridBox<2>> = Vec::new();
        for e in &edits {
            match e {
                Edit::Insert(boxes, v) => {
                    let region = pre_change::from_boxes(boxes);
                    let mut piece = GridFragment::new(&BoxRegion::from_boxes(boxes.iter().copied()));
                    piece.for_each_mut(|_, slot| *slot = *v);
                    // By value and by reference are one operation; the
                    // by-value one runs on the fragment whose `region()`
                    // memo the previous edit left warm.
                    let mut by_ref = frag.clone();
                    by_ref.insert(&piece);
                    frag.insert_owned(piece);
                    prop_assert_eq!(frag.region(), by_ref.region());
                    prop_assert_eq!(wire::encode(&frag), wire::encode(&by_ref));
                    chunks = pre_change::remove(&chunks, &region);
                    chunks.extend(&region);
                    for p in region.iter().flat_map(|b| b.points()) {
                        oracle.insert(p.0, *v);
                    }
                }
                Edit::Remove(boxes) => {
                    let region = pre_change::from_boxes(boxes);
                    frag.remove(&BoxRegion::from_boxes(boxes.iter().copied()));
                    chunks = pre_change::remove(&chunks, &region);
                    for p in region.iter().flat_map(|b| b.points()) {
                        oracle.remove(&p.0);
                    }
                }
                Edit::Extract(bx) => {
                    let piece = frag.extract(&BoxRegion::from_box(*bx));
                    view_matches_extract(&frag, &BoxRegion::from_box(*bx))?;
                    let expect: CellMap = oracle
                        .iter()
                        .filter(|(p, _)| bx.contains(&Point(**p)))
                        .map(|(p, v)| (*p, *v))
                        .collect();
                    prop_assert_eq!(piece.len(), expect.len());
                    for (p, v) in &expect {
                        prop_assert_eq!(piece.get(&Point(*p)), Some(v));
                    }
                    let held = pre_change::from_boxes(&chunks);
                    let covered: Vec<_> = held.iter().filter_map(|c| c.intersect(bx)).collect();
                    prop_assert_eq!(format!("{piece:?}"), chunk_list(&pre_change::coalesce(covered)));
                }
                Edit::Get(p) => {
                    prop_assert_eq!(frag.get(p), oracle.get(&p.0));
                    prop_assert_eq!(frag.get(p).copied(), scan(&frag, p));
                }
                Edit::Set(p, v) => {
                    let covered = oracle.contains_key(&p.0);
                    prop_assert_eq!(frag.set(p, *v), covered);
                    if covered {
                        oracle.insert(p.0, *v);
                    }
                    prop_assert_eq!(frag.get(p), oracle.get(&p.0));
                }
                Edit::Row(start, vals) => {
                    rows_match_elements(&frag, *start, vals)?;
                    frag.write_row(start, vals);
                    for (y, v) in (start[1]..).zip(vals) {
                        oracle.entry([start[0], y]).and_modify(|slot| *slot = *v);
                    }
                }
            }
            prop_assert_eq!(format!("{frag:?}"), chunk_list(&chunks));
            prop_assert_eq!(frag.region().boxes().to_vec(), pre_change::from_boxes(&chunks));
        }
        // Exports of the final, many-chunk fragment: nothing, everything,
        // a box wholly outside coverage, and every multi-box region the
        // script used (partly outside, across chunks).
        view_matches_extract(&frag, &BoxRegion::empty())?;
        view_matches_extract(&frag, frag.region())?;
        view_matches_extract(&frag, &BoxRegion::cuboid([40, 40], [45, 45]))?;
        for e in &edits {
            if let Edit::Insert(boxes, _) | Edit::Remove(boxes) = e {
                view_matches_extract(&frag, &BoxRegion::from_boxes(boxes.iter().copied()))?;
            }
        }
        // Same coverage and values.
        prop_assert_eq!(frag.len(), oracle.len());
        frag.for_each(|p, v| {
            assert_eq!(oracle.get(&p.0), Some(v), "at {p:?}");
        });
        for x in 0..18 {
            for y in 0..18 {
                prop_assert_eq!(frag.get(&Point([x, y])), oracle.get(&[x, y]));
            }
        }
    }

    /// Row access on a 3-D fragment grown and cut by random inserts and
    /// removes: runs lie along the last axis and cross chunks split along
    /// any of the three.
    #[test]
    fn rows_match_elements_in_three_dimensions(
        edits in prop::collection::vec((any::<bool>(), arb_box3()), 1..8),
        rows in prop::collection::vec(((0i64..6, 0i64..6, 0i64..10), arb_row()), 1..6),
        cuts in prop::collection::vec(prop::collection::vec(arb_box3(), 1..3), 1..4),
    ) {
        let mut frag = GridFragment::<i64, 3>::empty();
        for (insert, bx) in &edits {
            let region = BoxRegion::from_box(*bx);
            if *insert {
                let mut piece = GridFragment::new(&region);
                piece.for_each_mut(|p, slot| *slot = p[0] * 100 + p[1] * 10 + p[2]);
                frag.insert(&piece);
            } else {
                frag.remove(&region);
            }
        }
        for ((x, y, z), vals) in &rows {
            rows_match_elements(&frag, Point([*x, *y, *z]), vals)?;
        }
        // Exports gather each row of an output box from the chunks it
        // crosses, whichever axis those were split along.
        for cut in &cuts {
            view_matches_extract(&frag, &BoxRegion::from_boxes(cut.iter().copied()))?;
        }
        view_matches_extract(&frag, &BoxRegion::empty())?;
        view_matches_extract(&frag, frag.region())?;
    }

    /// `extract` then `insert` into an empty fragment reproduces exactly
    /// the intersected data.
    #[test]
    fn fragment_extract_insert_round_trip(b1 in arb_box2(), b2 in arb_box2()) {
        let mut src = GridFragment::<i64, 2>::new(&BoxRegion::from_box(b1));
        src.for_each_mut(|p, v| *v = p[0] * 1000 + p[1]);
        let piece = src.extract(&BoxRegion::from_box(b2));
        prop_assert_eq!(*piece.region(), BoxRegion::from_box(b1).intersect(&BoxRegion::from_box(b2)));
        let mut dst = GridFragment::<i64, 2>::empty();
        dst.insert(&piece);
        dst.for_each(|p, v| assert_eq!(*v, p[0] * 1000 + p[1]));
    }
}
