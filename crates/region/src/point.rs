//! Integer points and axis-aligned boxes in `D` dimensions — the element
//! addresses of grid data items (paper Example 2.2).

use allscale_des::wire::{Reader, Sink, Wire, WireError};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Sub};

/// A point in the `D`-dimensional integer lattice.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point<const D: usize>(pub [i64; D]);

impl<const D: usize> Wire for Point<D> {
    fn put(&self, out: &mut impl Sink) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Wire::get(r).map(Point)
    }
}

impl<const D: usize> Point<D> {
    /// The origin.
    pub const fn zero() -> Self {
        Point([0; D])
    }

    /// A point with all coordinates equal to `v`.
    pub const fn splat(v: i64) -> Self {
        Point([v; D])
    }

    /// Componentwise minimum.
    pub fn cmin(&self, other: &Self) -> Self {
        let mut out = [0; D];
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.0[d].min(other.0[d]);
        }
        Point(out)
    }

    /// Componentwise maximum.
    pub fn cmax(&self, other: &Self) -> Self {
        let mut out = [0; D];
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.0[d].max(other.0[d]);
        }
        Point(out)
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = i64;
    #[inline]
    fn index(&self, i: usize) -> &i64 {
        &self.0[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        &mut self.0[i]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Point<D>;
    fn add(self, rhs: Point<D>) -> Point<D> {
        let mut out = [0; D];
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.0[d] + rhs.0[d];
        }
        Point(out)
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Point<D>;
    fn sub(self, rhs: Point<D>) -> Point<D> {
        let mut out = [0; D];
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.0[d] - rhs.0[d];
        }
        Point(out)
    }
}

impl<const D: usize> From<[i64; D]> for Point<D> {
    fn from(a: [i64; D]) -> Self {
        Point(a)
    }
}

fn fmt_point<const D: usize>(p: &Point<D>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, c) in p.0.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_point(self, f)
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_point(self, f)
    }
}

/// A non-empty axis-aligned box `[lo, hi)` (inclusive low, exclusive high).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridBox<const D: usize> {
    lo: Point<D>,
    hi: Point<D>,
}

impl<const D: usize> Wire for GridBox<D> {
    fn put(&self, out: &mut impl Sink) {
        self.lo.put(out);
        self.hi.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GridBox {
            lo: Wire::get(r)?,
            hi: Wire::get(r)?,
        })
    }
}

impl<const D: usize> GridBox<D> {
    /// Construct the box `[lo, hi)`. Returns `None` when empty on any axis.
    pub fn new(lo: Point<D>, hi: Point<D>) -> Option<Self> {
        for d in 0..D {
            if lo[d] >= hi[d] {
                return None;
            }
        }
        Some(GridBox { lo, hi })
    }

    /// The box `[0, shape)` — a whole grid of the given shape.
    pub fn from_shape(shape: [i64; D]) -> Option<Self> {
        Self::new(Point::zero(), Point(shape))
    }

    /// Inclusive lower corner.
    #[inline]
    pub fn lo(&self) -> Point<D> {
        self.lo
    }

    /// Exclusive upper corner.
    #[inline]
    pub fn hi(&self) -> Point<D> {
        self.hi
    }

    /// Number of lattice points inside.
    pub fn cardinality(&self) -> u64 {
        let mut n: u64 = 1;
        for d in 0..D {
            n = n.saturating_mul((self.hi[d] - self.lo[d]) as u64);
        }
        n
    }

    /// Whether `p` lies inside the box.
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= p[d] && p[d] < self.hi[d])
    }

    /// The overlap of two boxes, if non-empty.
    pub fn intersect(&self, other: &GridBox<D>) -> Option<GridBox<D>> {
        GridBox::new(self.lo.cmax(&other.lo), self.hi.cmin(&other.hi))
    }

    /// Whether the two boxes share at least one lattice point — the test
    /// [`GridBox::intersect`] makes, without building the overlap.
    #[inline]
    pub(crate) fn overlaps(&self, other: &GridBox<D>) -> bool {
        (0..D).all(|d| self.lo[d] < other.hi[d] && other.lo[d] < self.hi[d])
    }

    /// `self \ other` as a set of disjoint boxes (at most `2·D`).
    ///
    /// Classic slab decomposition: for each axis in turn, peel off the parts
    /// of `self` lying outside `other`'s extent on that axis, then shrink to
    /// the overlap and continue with the next axis.
    pub fn subtract(&self, other: &GridBox<D>) -> Vec<GridBox<D>> {
        let mut out = Vec::new();
        self.all_outside(other, |piece| {
            out.push(piece);
            true
        });
        out
    }

    /// Whether every box of the slab decomposition of `self \ other`
    /// satisfies `keep`, asked in decomposition order and stopping at the
    /// first that does not. Nothing is stored, so a caller that only needs
    /// a verdict on the pieces allocates nothing.
    pub(crate) fn all_outside(
        &self,
        other: &GridBox<D>,
        mut keep: impl FnMut(GridBox<D>) -> bool,
    ) -> bool {
        let Some(overlap) = self.intersect(other) else {
            return keep(*self);
        };
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..D {
            if lo[d] < overlap.lo[d] {
                let mut slab_hi = hi;
                slab_hi[d] = overlap.lo[d];
                if !keep(GridBox { lo, hi: slab_hi }) {
                    return false;
                }
                lo[d] = overlap.lo[d];
            }
            if overlap.hi[d] < hi[d] {
                let mut slab_lo = lo;
                slab_lo[d] = overlap.hi[d];
                if !keep(GridBox { lo: slab_lo, hi }) {
                    return false;
                }
                hi[d] = overlap.hi[d];
            }
        }
        true
    }

    /// Iterate all lattice points of the box in lexicographic order.
    pub fn points(&self) -> BoxPoints<D> {
        BoxPoints {
            bx: *self,
            next: Some(self.lo),
        }
    }

    /// Grow the box by `r` in every direction (Minkowski sum with the
    /// `[-r, r]^D` cube); used for stencil neighbourhood requirements.
    pub fn dilate(&self, r: i64) -> GridBox<D> {
        debug_assert!(r >= 0);
        GridBox {
            lo: self.lo - Point::splat(r),
            hi: self.hi + Point::splat(r),
        }
    }
}

impl<const D: usize> fmt::Debug for GridBox<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}..{:?})", self.lo, self.hi)
    }
}

/// Iterator over the lattice points of a box.
pub struct BoxPoints<const D: usize> {
    bx: GridBox<D>,
    next: Option<Point<D>>,
}

impl<const D: usize> Iterator for BoxPoints<D> {
    type Item = Point<D>;
    fn next(&mut self) -> Option<Point<D>> {
        let cur = self.next?;
        // Advance odometer-style from the last axis.
        let mut nxt = cur;
        let mut d = D;
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            nxt[d] += 1;
            if nxt[d] < self.bx.hi[d] {
                self.next = Some(nxt);
                break;
            }
            nxt[d] = self.bx.lo[d];
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(lo: [i64; 2], hi: [i64; 2]) -> GridBox<2> {
        GridBox::new(Point(lo), Point(hi)).unwrap()
    }

    #[test]
    fn empty_boxes_rejected() {
        assert!(GridBox::<2>::new(Point([0, 0]), Point([0, 5])).is_none());
        assert!(GridBox::<2>::new(Point([3, 0]), Point([2, 5])).is_none());
        assert!(GridBox::<1>::new(Point([1]), Point([2])).is_some());
    }

    #[test]
    fn cardinality_and_contains() {
        let b = bx([1, 2], [4, 6]);
        assert_eq!(b.cardinality(), 12);
        assert!(b.contains(&Point([1, 2])));
        assert!(b.contains(&Point([3, 5])));
        assert!(!b.contains(&Point([4, 5]))); // hi is exclusive
        assert!(!b.contains(&Point([0, 3])));
    }

    #[test]
    fn intersect_boxes() {
        let a = bx([0, 0], [4, 4]);
        let b = bx([2, 2], [6, 6]);
        assert_eq!(a.intersect(&b), Some(bx([2, 2], [4, 4])));
        let c = bx([4, 0], [5, 4]);
        assert_eq!(a.intersect(&c), None); // adjacency is not overlap
    }

    #[test]
    fn overlaps_agrees_with_intersect() {
        let a = bx([0, 0], [4, 4]);
        for b in [
            bx([2, 2], [6, 6]),
            bx([4, 0], [5, 4]),
            bx([0, 4], [4, 9]),
            bx([1, 1], [2, 2]),
        ] {
            assert_eq!(a.overlaps(&b), a.intersect(&b).is_some(), "{b:?}");
            assert_eq!(b.overlaps(&a), a.overlaps(&b));
        }
    }

    #[test]
    fn subtract_no_overlap_returns_self() {
        let a = bx([0, 0], [2, 2]);
        let b = bx([5, 5], [6, 6]);
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_full_cover_returns_empty() {
        let a = bx([1, 1], [3, 3]);
        let b = bx([0, 0], [5, 5]);
        assert!(a.subtract(&b).is_empty());
    }

    #[test]
    fn subtract_center_hole() {
        let a = bx([0, 0], [3, 3]);
        let hole = bx([1, 1], [2, 2]);
        let parts = a.subtract(&hole);
        // Pieces are disjoint, don't touch the hole, and cover a \ hole.
        let total: u64 = parts.iter().map(|p| p.cardinality()).sum();
        assert_eq!(total, 9 - 1);
        for (i, p) in parts.iter().enumerate() {
            assert!(p.intersect(&hole).is_none());
            for q in parts.iter().skip(i + 1) {
                assert!(p.intersect(q).is_none());
            }
        }
    }

    #[test]
    fn subtract_exhaustive_small_boxes() {
        // All pairs of boxes within a 4x4 universe: verify by enumeration.
        let mut boxes = Vec::new();
        for x0 in 0..4 {
            for x1 in x0 + 1..=4 {
                for y0 in 0..4 {
                    for y1 in y0 + 1..=4 {
                        boxes.push(bx([x0, y0], [x1, y1]));
                    }
                }
            }
        }
        for a in &boxes {
            for b in &boxes {
                let parts = a.subtract(b);
                let mut covered = std::collections::BTreeSet::new();
                for p in &parts {
                    for pt in p.points() {
                        assert!(covered.insert(pt.0), "overlapping parts");
                    }
                }
                let expect: std::collections::BTreeSet<_> =
                    a.points().filter(|p| !b.contains(p)).map(|p| p.0).collect();
                assert_eq!(covered, expect, "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn point_iteration_order() {
        let b = bx([0, 0], [2, 2]);
        let pts: Vec<_> = b.points().map(|p| p.0).collect();
        assert_eq!(pts, vec![[0, 0], [0, 1], [1, 0], [1, 1]]);
    }

    #[test]
    fn point_iteration_3d_count() {
        let b = GridBox::<3>::from_shape([2, 3, 4]).unwrap();
        assert_eq!(b.points().count(), 24);
    }

    #[test]
    fn dilate_grows_symmetrically() {
        let b = bx([2, 2], [4, 4]);
        let g = b.dilate(1);
        assert_eq!(g, bx([1, 1], [5, 5]));
    }

    #[test]
    fn point_arithmetic() {
        let a = Point([1, 2]);
        let b = Point([10, 20]);
        assert_eq!(a + b, Point([11, 22]));
        assert_eq!(b - a, Point([9, 18]));
        assert_eq!(a.cmin(&b), a);
        assert_eq!(a.cmax(&b), b);
    }
}
