//! Box-set regions for N-dimensional grids (paper Fig. 4a).
//!
//! A single axis-aligned bounding box is *not* closed under union or
//! difference, but a **set** of pairwise-disjoint boxes is — this is the
//! region scheme the AllScale prototype ships for its `Grid` data item and
//! the one used by the stencil and iPiC3D evaluation codes.

use allscale_des::wire::{Reader, Sink, Wire, WireError};

use crate::point::{GridBox, Point};
use crate::region::Region;

/// A region of an N-dimensional grid: a set of pairwise-disjoint boxes.
///
/// The representation is normalized on construction: boxes never overlap,
/// and a greedy merge pass fuses face-adjacent boxes to curb fragmentation
/// (important for long-running simulations that repeatedly migrate halos).
/// Semantic equality is still *set* equality, implemented by mutual
/// inclusion, so structurally different decompositions compare equal.
#[derive(Clone)]
pub struct BoxRegion<const D: usize> {
    boxes: Vec<GridBox<D>>,
}

impl<const D: usize> Wire for BoxRegion<D> {
    fn put(&self, out: &mut impl Sink) {
        self.boxes.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BoxRegion { boxes: Wire::get(r)? })
    }
}

impl<const D: usize> BoxRegion<D> {
    /// The region of a single box.
    pub fn from_box(b: GridBox<D>) -> Self {
        BoxRegion { boxes: vec![b] }
    }

    /// The region `[lo, hi)`; empty if the box is degenerate.
    pub fn cuboid(lo: impl Into<Point<D>>, hi: impl Into<Point<D>>) -> Self {
        match GridBox::new(lo.into(), hi.into()) {
            Some(b) => Self::from_box(b),
            None => Self::empty(),
        }
    }

    /// Build from arbitrary (possibly overlapping) boxes.
    pub fn from_boxes<I: IntoIterator<Item = GridBox<D>>>(boxes: I) -> Self {
        Self::empty().fold_boxes(boxes)
    }

    /// Continue [`BoxRegion::from_boxes`]' fold over `boxes`, starting from
    /// `self`. The fold's only state is its output, so
    /// `from_boxes(a.chain(b))` and `from_boxes(a).fold_boxes(b)` are the
    /// same boxes in the same order — what lets a region built from a list
    /// follow that list's appends without refolding it. `self` must be a
    /// region this module built (no two of its boxes merge).
    pub fn fold_boxes<I: IntoIterator<Item = GridBox<D>>>(self, boxes: I) -> Self {
        // A fold of single-box unions, run in place: `out` takes the part
        // of each box it does not hold yet, then re-coalesces.
        let mut out = self.boxes;
        let mut fresh = Vec::new();
        let mut scratch = Scratch::default();
        for b in boxes {
            scratch.subtract_all(b, &out, &mut fresh);
            let settled = out.len();
            out.append(&mut fresh);
            out = scratch.coalesce(out, settled);
        }
        BoxRegion { boxes: out }
    }

    /// Whether the region contains every point of `b`, without building
    /// anything.
    pub fn contains_box(&self, b: GridBox<D>) -> bool {
        covered(b, &self.boxes)
    }

    /// The disjoint boxes making up this region.
    pub fn boxes(&self) -> &[GridBox<D>] {
        &self.boxes
    }

    /// Total number of lattice points covered.
    pub fn cardinality(&self) -> u64 {
        self.boxes.iter().map(|b| b.cardinality()).sum()
    }

    /// Whether the region contains the point `p`.
    pub fn contains(&self, p: &Point<D>) -> bool {
        self.boxes.iter().any(|b| b.contains(p))
    }

    /// Iterate over every point of the region.
    pub fn points(&self) -> impl Iterator<Item = Point<D>> + '_ {
        self.boxes.iter().flat_map(|b| b.points())
    }

    /// Grow the region by `r` in every direction, clamped to `universe` —
    /// the neighbourhood operator used for stencil read requirements.
    pub fn dilate_within(&self, r: i64, universe: &GridBox<D>) -> Self {
        Self::from_boxes(
            self.boxes
                .iter()
                .filter_map(|b| b.dilate(r).intersect(universe)),
        )
    }
}

/// One step of [`Scratch::coalesce`]: `merged` replaces box `i`, the last
/// box moves into slot `j`, and `dirty` (ascending indices) follows suit.
fn merge_pair<const D: usize>(
    boxes: &mut Vec<GridBox<D>>,
    dirty: &mut Vec<usize>,
    i: usize,
    j: usize,
    merged: GridBox<D>,
) {
    let last = boxes.len() - 1;
    let last_was_dirty = dirty.last() == Some(&last);
    let mut mark = |k: usize, on: bool| match (dirty.binary_search(&k), on) {
        (Err(at), true) => dirty.insert(at, k),
        (Ok(at), false) => drop(dirty.remove(at)),
        _ => {}
    };
    boxes[i] = merged;
    boxes.swap_remove(j);
    mark(last, false);
    if j != last {
        mark(j, last_was_dirty);
    }
    mark(i, true);
}

/// Working buffers of one region operation, so that only growth allocates:
/// the two a chain of box subtractions alternates between, and the indices
/// (ascending) of the boxes [`Scratch::coalesce`] still has to test.
#[derive(Default)]
struct Scratch<const D: usize> {
    parts: Vec<GridBox<D>>,
    next: Vec<GridBox<D>>,
    dirty: Vec<usize>,
}

impl<const D: usize> Scratch<D> {
    /// Append `b \ ⋃cut` to `out`: the pieces that subtracting the boxes of
    /// `cut` one after another leaves of `b`, in slab-decomposition order.
    /// A `b` that no box of `cut` touches — the common case between tiles —
    /// costs one overlap test per box and touches no buffer.
    fn subtract_all(&mut self, b: GridBox<D>, cut: &[GridBox<D>], out: &mut Vec<GridBox<D>>) {
        let Some(first) = cut.iter().position(|a| a.overlaps(&b)) else {
            out.push(b);
            return;
        };
        self.parts.clear();
        b.subtract_into(&cut[first], &mut self.parts);
        for a in &cut[first + 1..] {
            if self.parts.is_empty() {
                break;
            }
            self.next.clear();
            for p in &self.parts {
                p.subtract_into(a, &mut self.next);
            }
            std::mem::swap(&mut self.parts, &mut self.next);
        }
        out.extend_from_slice(&self.parts);
    }

    /// Greedy merge of face-adjacent boxes (equal extent on all axes but
    /// one, and touching on that one). Keeps representations compact.
    ///
    /// The result is the one this loop produces: merge the first pair
    /// `(i, j)`, `i < j` in lexicographic order, that tiles a box (into slot
    /// `i`, the last box moving into slot `j`), and start over until no pair
    /// merges. Which pairs merge, and in which order, decides the boxes a
    /// region ends up with, and those are billed bytes. Two things make that
    /// loop cheap without changing its outcome:
    ///
    /// - `boxes[..settled]` is a list this function returned earlier, so no
    ///   two of its boxes merge; only pairs involving a later box or a merge
    ///   product (`dirty`) are tested. A region gaining one disjoint box
    ///   costs one test per box it holds, not one per pair.
    /// - After merging at `(i, j)` every pair before `(i, j)` is still known
    ///   not to merge except `(a, i)` for `a < i`, so the search resumes
    ///   there instead of at `(0, 1)`.
    fn coalesce(&mut self, mut boxes: Vec<GridBox<D>>, settled: usize) -> Vec<GridBox<D>> {
        debug_assert!(
            (0..settled).all(|i| (i..settled).all(|j| try_merge(&boxes[i], &boxes[j]).is_none())),
            "settled prefix is not coalesced"
        );
        // Until the first merge the dirty boxes are `settled..` and
        // `self.dirty` is not touched.
        let dirty = &mut self.dirty;
        let mut tracking = false;
        let mut i = 0;
        while i < boxes.len() {
            let probe = |j: usize| Some((j, try_merge(&boxes[i], &boxes[j])?));
            let hit = if !tracking && i < settled {
                (settled..boxes.len()).find_map(probe)
            } else if tracking && dirty.binary_search(&i).is_err() {
                let later = dirty.partition_point(|&k| k <= i);
                dirty[later..].iter().copied().find_map(probe)
            } else {
                (i + 1..boxes.len()).find_map(probe)
            };
            let Some((j, merged)) = hit else {
                i += 1;
                continue;
            };
            if !tracking {
                dirty.clear();
                dirty.extend(settled..boxes.len());
                tracking = true;
            }
            merge_pair(&mut boxes, dirty, i, j, merged);
            // The new box may merge with an earlier one, and that product
            // with a yet earlier one.
            while let Some((a, merged)) =
                (0..i).find_map(|a| Some((a, try_merge(&boxes[a], &boxes[i])?)))
            {
                merge_pair(&mut boxes, dirty, a, i, merged);
                i = a;
            }
        }
        boxes
    }
}

/// Merge two boxes into one if they tile a box exactly.
fn try_merge<const D: usize>(a: &GridBox<D>, b: &GridBox<D>) -> Option<GridBox<D>> {
    // They must agree on all axes except one, where they are adjacent.
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

impl<const D: usize> PartialEq for BoxRegion<D> {
    fn eq(&self, other: &Self) -> bool {
        // Semantic set equality via mutual inclusion. Fast path: identical
        // normalized representations.
        if self.boxes == other.boxes {
            return true;
        }
        if self.cardinality() != other.cardinality() {
            return false;
        }
        self.is_subset_of(other) && other.is_subset_of(self)
    }
}

impl<const D: usize> Eq for BoxRegion<D> {}

impl<const D: usize> std::fmt::Debug for BoxRegion<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoxRegion{:?}", self.boxes)
    }
}

impl<const D: usize> Region for BoxRegion<D> {
    fn empty() -> Self {
        BoxRegion { boxes: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    fn union(&self, other: &Self) -> Self {
        // A ∪ B = A ⊎ (B \ A): keep A's boxes, add the parts of B's boxes
        // that survive subtracting every box of A.
        let mut out = Vec::with_capacity(self.boxes.len() + other.boxes.len());
        out.extend_from_slice(&self.boxes);
        let mut scratch = Scratch::default();
        for b in &other.boxes {
            scratch.subtract_all(*b, &self.boxes, &mut out);
        }
        BoxRegion {
            boxes: scratch.coalesce(out, self.boxes.len()),
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        for a in &self.boxes {
            for b in &other.boxes {
                if let Some(i) = a.intersect(b) {
                    out.push(i);
                }
            }
        }
        // Disjointness of inputs makes outputs disjoint automatically.
        BoxRegion {
            boxes: Scratch::default().coalesce(out, 0),
        }
    }

    fn difference(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.boxes.len());
        let mut scratch = Scratch::default();
        for a in &self.boxes {
            scratch.subtract_all(*a, &other.boxes, &mut out);
        }
        BoxRegion {
            boxes: scratch.coalesce(out, 0),
        }
    }

    fn is_disjoint(&self, other: &Self) -> bool {
        self.boxes
            .iter()
            .all(|a| other.boxes.iter().all(|b| !a.overlaps(b)))
    }

    fn is_subset_of(&self, other: &Self) -> bool {
        self.boxes.iter().all(|a| other.contains_box(*a))
    }
}

/// Whether `a ⊆ ⋃cover`, without building `a \ ⋃cover`: what the first
/// overlapping box leaves of `a` must be covered by the boxes after it
/// (those before it touch no part of `a`). A tile inside one box of its
/// owner's region — the scheduler's question — costs one overlap test per
/// box up to that one.
fn covered<const D: usize>(a: GridBox<D>, cover: &[GridBox<D>]) -> bool {
    let Some(first) = cover.iter().position(|b| b.overlaps(&a)) else {
        return false;
    };
    a.all_outside(&cover[first], |piece| covered(piece, &cover[first + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    fn r2(lo: [i64; 2], hi: [i64; 2]) -> BoxRegion<2> {
        BoxRegion::cuboid(lo, hi)
    }

    fn oracle(r: &BoxRegion<2>) -> BTreeSet<[i64; 2]> {
        r.points().map(|p| p.0).collect()
    }

    #[test]
    fn basic_construction() {
        let r = r2([0, 0], [3, 3]);
        assert_eq!(r.cardinality(), 9);
        assert!(!r.is_empty());
        assert!(r2([2, 2], [2, 5]).is_empty()); // degenerate
    }

    #[test]
    fn union_of_overlapping_boxes() {
        let a = r2([0, 0], [4, 4]);
        let b = r2([2, 2], [6, 6]);
        let u = a.union(&b);
        assert_eq!(u.cardinality(), 16 + 16 - 4);
        assert!(u.contains(&Point([5, 5])));
        assert!(u.contains(&Point([0, 0])));
        assert!(!u.contains(&Point([5, 0])));
    }

    #[test]
    fn union_disjointness_invariant() {
        let a = r2([0, 0], [4, 4]);
        let b = r2([2, 2], [6, 6]);
        let u = a.union(&b);
        for (i, x) in u.boxes().iter().enumerate() {
            for y in u.boxes().iter().skip(i + 1) {
                assert!(x.intersect(y).is_none(), "boxes overlap: {x:?} {y:?}");
            }
        }
    }

    #[test]
    fn difference_carves_hole() {
        let a = r2([0, 0], [5, 5]);
        let hole = r2([1, 1], [4, 4]);
        let d = a.difference(&hole);
        assert_eq!(d.cardinality(), 25 - 9);
        assert!(!d.contains(&Point([2, 2])));
        assert!(d.contains(&Point([0, 4])));
    }

    #[test]
    fn semantic_equality_across_decompositions() {
        // Same L-shape assembled two different ways.
        let a = r2([0, 0], [2, 4]).union(&r2([2, 0], [4, 2]));
        let b = r2([0, 0], [4, 2]).union(&r2([0, 2], [2, 4]));
        assert_eq!(a, b);
        assert_ne!(a, r2([0, 0], [4, 4]));
    }

    #[test]
    fn coalescing_keeps_representation_small() {
        // A 1x8 strip assembled from 8 unit boxes should merge down.
        let mut r = BoxRegion::<2>::empty();
        for i in 0..8 {
            r = r.union(&r2([i, 0], [i + 1, 1]));
        }
        assert_eq!(r.boxes().len(), 1);
        assert_eq!(r, r2([0, 8], [8, 9]).difference(&r2([0, 8], [8, 9])).union(&r2([0, 0], [8, 1])));
    }

    #[test]
    fn dilate_within_universe() {
        let u = GridBox::<2>::from_shape([10, 10]).unwrap();
        let r = r2([0, 0], [2, 2]);
        let g = r.dilate_within(1, &u);
        // Clamped at the low corner, grown at the high corner.
        assert_eq!(g, r2([0, 0], [3, 3]));
    }

    #[test]
    fn laws_on_fixed_cases() {
        let cases = [
            BoxRegion::<2>::empty(),
            r2([0, 0], [3, 3]),
            r2([1, 1], [4, 4]),
            r2([0, 0], [1, 5]),
            r2([0, 0], [2, 2]).union(&r2([3, 3], [5, 5])),
            r2([2, 0], [3, 5]).union(&r2([0, 2], [5, 3])), // plus shape
        ];
        for a in &cases {
            for b in &cases {
                check_laws(a, b, oracle);
            }
        }
    }

    #[test]
    fn from_boxes_tolerates_overlap() {
        let r = BoxRegion::from_boxes([
            GridBox::new(Point([0, 0]), Point([3, 3])).unwrap(),
            GridBox::new(Point([1, 1]), Point([4, 4])).unwrap(),
            GridBox::new(Point([0, 0]), Point([2, 2])).unwrap(),
        ]);
        assert_eq!(r.cardinality(), 14);
    }

    #[test]
    fn three_dimensional_regions() {
        let a = BoxRegion::<3>::cuboid([0, 0, 0], [4, 4, 4]);
        let b = BoxRegion::<3>::cuboid([2, 2, 2], [6, 6, 6]);
        assert_eq!(a.intersect(&b).cardinality(), 8);
        assert_eq!(a.union(&b).cardinality(), 64 + 64 - 8);
        assert_eq!(a.difference(&b).cardinality(), 64 - 8);
    }

    #[test]
    fn seven_dimensional_regions_compile_and_work() {
        // TPC operates in 7-D space.
        let a = BoxRegion::<7>::cuboid([0; 7], [2; 7]);
        let b = BoxRegion::<7>::cuboid([1; 7], [3; 7]);
        assert_eq!(a.intersect(&b).cardinality(), 1);
        assert_eq!(a.union(&b).cardinality(), 128 + 128 - 1);
    }
}
