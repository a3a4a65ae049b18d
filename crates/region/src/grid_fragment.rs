//! Fragments of N-dimensional grid data items (paper Fig. 4a).
//!
//! A [`GridFragment`] stores one dense, row-major chunk per disjoint box of
//! its region. Copies between fragments move whole innermost-axis rows at a
//! time, so halo exchange and redistribution are memcpy-bound rather than
//! per-element.
//!
//! How many chunks a fragment holds depends on its history (one per
//! first-touch tile, plus halo rows), and the chunk layout is observable:
//! serialized fragment bytes are billed on the virtual clock. Element access
//! therefore never reorganizes chunks; it remembers where it last hit, and
//! row access cuts its run at chunk edges instead of merging the chunks.
//! An export serializes a sub-region straight from the chunks that hold it
//! ([`Fragment::extract_view`]) and so has to lay the bytes out exactly as
//! [`Fragment::extract`]'s copy would: one chunk per box of `covered ∩
//! region`, in that intersection's box order, each in row-major order.

use std::cell::{Cell, OnceCell};
use std::fmt;

use allscale_des::wire::{Reader, Sink, Wire, WireError};

use crate::boxes::BoxRegion;
use crate::fragment::Fragment;
use crate::point::{GridBox, Point};
use crate::region::Region;

/// Chunks the lookup finger remembers. A five-point stencil sweeping one
/// tile alternates between the tile's chunk and those of its left, right and
/// upper-or-lower neighbours.
const FINGERS: usize = 4;

/// A dense row-major block of grid elements covering one box.
#[derive(Clone)]
struct Chunk<T, const D: usize> {
    bx: GridBox<D>,
    data: Vec<T>,
}

impl<T: Wire, const D: usize> Wire for Chunk<T, D> {
    fn put(&self, out: &mut impl Sink) {
        self.bx.put(out);
        self.data.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Chunk {
            bx: Wire::get(r)?,
            data: Wire::get(r)?,
        })
    }
}

impl<T, const D: usize> Chunk<T, D> {
    /// Row-major position of `p` in `data`, or `None` when the chunk does
    /// not cover `p`. One unsigned comparison per axis decides both.
    #[inline]
    fn offset_of(&self, p: &Point<D>) -> Option<usize> {
        let lo = self.bx.lo();
        let hi = self.bx.hi();
        let mut off = 0usize;
        for d in 0..D {
            let extent = (hi[d] - lo[d]) as usize;
            // Below `lo` wraps to a huge value, so fails the same test.
            let rel = p[d].wrapping_sub(lo[d]) as usize;
            if rel >= extent {
                return None;
            }
            off = off * extent + rel;
        }
        Some(off)
    }

    fn offset(&self, p: &Point<D>) -> usize {
        self.offset_of(p).expect("point inside the chunk's box")
    }
}

/// The elements of one region of an N-dimensional grid, held in a single
/// address space.
#[derive(Clone)]
pub struct GridFragment<T, const D: usize> {
    chunks: Vec<Chunk<T, D>>,
    /// Indices of the chunks that served the latest element lookups, most
    /// recent first: hints that [`GridFragment::locate`] validates before
    /// use, so edits to `chunks` need not maintain them. Chunks are disjoint,
    /// hence whichever chunk contains a point is the one a scan would find.
    /// Not part of the wire form.
    finger: [Cell<usize>; FINGERS],
    /// The covered region, folded from the chunk boxes when first asked for.
    /// Always [`BoxRegion::from_boxes`] of the current list, box for box:
    /// that fold is order-dependent and the boxes it yields are billed bytes.
    /// An edit that only appends chunks continues the fold over them
    /// ([`BoxRegion::fold_boxes`]), which is the same thing; an edit that
    /// drops or splits a chunk drops the memo. Not part of the wire form.
    region: OnceCell<BoxRegion<D>>,
}

/// The wire form is the chunk list; finger and region start afresh.
impl<T: Wire, const D: usize> Wire for GridFragment<T, D> {
    fn put(&self, out: &mut impl Sink) {
        self.chunks.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Wire::get(r).map(GridFragment::from_chunks)
    }
}

impl<T, const D: usize> GridFragment<T, D> {
    fn from_chunks(chunks: Vec<Chunk<T, D>>) -> Self {
        GridFragment {
            chunks,
            finger: Default::default(),
            region: OnceCell::new(),
        }
    }

    /// The covered region, borrowed (see the `region` field).
    fn covered(&self) -> &BoxRegion<D> {
        self.region
            .get_or_init(|| BoxRegion::from_boxes(self.chunks.iter().map(|c| c.bx)))
    }

    /// Where `p` lives, as (chunk index, offset in the chunk's data): in one
    /// of the finger's chunks if any covers it, else in the first hit of a
    /// scan. Either way that chunk ends up at the finger's front.
    #[inline]
    fn locate(&self, p: &Point<D>) -> Option<(usize, usize)> {
        let front = self.finger[0].get();
        match self.chunks.get(front).and_then(|c| c.offset_of(p)) {
            Some(off) => Some((front, off)),
            None => self.locate_behind_front(p),
        }
    }

    #[inline(never)]
    fn locate_behind_front(&self, p: &Point<D>) -> Option<(usize, usize)> {
        let try_chunk = |i: usize| Some((i, self.chunks.get(i)?.offset_of(p)?));
        let hinted = (1..FINGERS).find_map(|at| Some((at, try_chunk(self.finger[at].get())?)));
        let (at, hit) = match hinted {
            Some(found) => found,
            None => (FINGERS - 1, (0..self.chunks.len()).find_map(try_chunk)?),
        };
        // Move to front: slots before `at` shift back by one, dropping the
        // least recent hint when the hit came from the scan.
        for slot in (1..=at).rev() {
            self.finger[slot].set(self.finger[slot - 1].get());
        }
        self.finger[0].set(hit.0);
        Some(hit)
    }

    /// Where the innermost-axis run starting at `p` lives, as (chunk index,
    /// offset in the chunk's data, length): cut at the chunk's edge and at
    /// `max` elements. Runs never reach across chunks, whose layout stays
    /// what the fragment's history made it.
    #[inline]
    fn locate_run(&self, p: &Point<D>, max: usize) -> Option<(usize, usize, usize)> {
        let (i, off) = self.locate(p)?;
        let to_edge = (self.chunks[i].bx.hi()[D - 1] - p[D - 1]) as usize;
        Some((i, off, to_edge.min(max)))
    }
}

impl<T, const D: usize> GridFragment<T, D>
where
    T: Clone + Default + Wire + 'static,
{
    /// Allocate a fragment covering `region`, elements default-initialized.
    pub fn new(region: &BoxRegion<D>) -> Self {
        let chunks = region
            .boxes()
            .iter()
            .map(|&bx| Chunk {
                data: vec![T::default(); bx.cardinality() as usize],
                bx,
            })
            .collect();
        GridFragment::from_chunks(chunks)
    }

    /// Read the element at `p`, if covered.
    pub fn get(&self, p: &Point<D>) -> Option<&T> {
        let (i, off) = self.locate(p)?;
        Some(&self.chunks[i].data[off])
    }

    /// Mutable access to the element at `p`, if covered.
    pub fn get_mut(&mut self, p: &Point<D>) -> Option<&mut T> {
        let (i, off) = self.locate(p)?;
        Some(&mut self.chunks[i].data[off])
    }

    /// Write the element at `p`. Returns `false` when `p` is not covered.
    pub fn set(&mut self, p: &Point<D>, v: T) -> bool {
        match self.get_mut(p) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// Copy the innermost-axis run of `out.len()` elements starting at
    /// `start` into `out`, chunk by chunk: one lookup per chunk the run
    /// crosses, each element's coverage decided as [`GridFragment::get`]
    /// would. Returns `false` when some element is not covered; its slot in
    /// `out` is left alone.
    pub fn read_row(&self, start: &Point<D>, out: &mut [T]) -> bool {
        let (mut p, mut done, mut all) = (*start, 0, true);
        while done < out.len() {
            let run = match self.locate_run(&p, out.len() - done) {
                Some((i, off, run)) => {
                    out[done..done + run].clone_from_slice(&self.chunks[i].data[off..off + run]);
                    run
                }
                None => {
                    all = false;
                    1
                }
            };
            done += run;
            p[D - 1] += run as i64;
        }
        all
    }

    /// Overwrite the innermost-axis run of `src.len()` elements starting at
    /// `start` with `src`, as [`GridFragment::set`] would element by element.
    /// Returns `false` when some element is not covered; the covered ones
    /// are written all the same.
    pub fn write_row(&mut self, start: &Point<D>, src: &[T]) -> bool {
        let (mut p, mut done, mut all) = (*start, 0, true);
        while done < src.len() {
            let run = match self.locate_run(&p, src.len() - done) {
                Some((i, off, run)) => {
                    self.chunks[i].data[off..off + run].clone_from_slice(&src[done..done + run]);
                    run
                }
                None => {
                    all = false;
                    1
                }
            };
            done += run;
            p[D - 1] += run as i64;
        }
        all
    }

    /// Number of elements held.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.data.len()).sum()
    }

    /// Whether the fragment holds no elements.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Visit `(point, &value)` for every held element.
    pub fn for_each(&self, mut f: impl FnMut(Point<D>, &T)) {
        for c in &self.chunks {
            for (i, p) in c.bx.points().enumerate() {
                f(p, &c.data[i]);
            }
        }
    }

    /// Visit `(point, &mut value)` for every held element.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Point<D>, &mut T)) {
        for c in &mut self.chunks {
            for (i, p) in c.bx.points().enumerate() {
                f(p, &mut c.data[i]);
            }
        }
    }

    /// Copy every element of `src` covered by both fragments into `self`,
    /// row-by-row (innermost axis runs are contiguous in both layouts).
    fn copy_covered_from(&mut self, src: &GridFragment<T, D>) {
        for dst in &mut self.chunks {
            for sc in &src.chunks {
                let Some(overlap) = dst.bx.intersect(&sc.bx) else {
                    continue;
                };
                copy_box(sc, dst, &overlap);
            }
        }
    }
}

/// The first point of every innermost-axis row of `bx`, in row-major
/// order.
fn row_starts<const D: usize>(bx: GridBox<D>) -> impl Iterator<Item = Point<D>> {
    let (lo, hi) = (bx.lo(), bx.hi());
    std::iter::successors(Some(lo), move |&row| {
        // Odometer over axes 0..D-1.
        let mut next = row;
        for d in (0..D - 1).rev() {
            next[d] += 1;
            if next[d] < hi[d] {
                return Some(next);
            }
            next[d] = lo[d];
        }
        None
    })
}

/// Copy the elements of `overlap` from chunk `src` to chunk `dst` using
/// contiguous innermost-axis row slices.
fn copy_box<T: Clone, const D: usize>(
    src: &Chunk<T, D>,
    dst: &mut Chunk<T, D>,
    overlap: &GridBox<D>,
) {
    let run = (overlap.hi()[D - 1] - overlap.lo()[D - 1]) as usize;
    for row_lo in row_starts(*overlap) {
        let s_off = src.offset(&row_lo);
        let d_off = dst.offset(&row_lo);
        dst.data[d_off..d_off + run].clone_from_slice(&src.data[s_off..s_off + run]);
    }
}

/// The elements of `bx` (inside `src`'s box), row-major, copied row by row
/// into a vector of exactly their number.
fn copy_rows<T: Clone, const D: usize>(src: &Chunk<T, D>, bx: GridBox<D>) -> Vec<T> {
    let run = (bx.hi()[D - 1] - bx.lo()[D - 1]) as usize;
    let mut data = Vec::with_capacity(bx.cardinality() as usize);
    for row_lo in row_starts(bx) {
        let off = src.offset(&row_lo);
        data.extend_from_slice(&src.data[off..off + run]);
    }
    data
}

/// The sub-fragment [`Fragment::extract`] would build for `covered` (a
/// subset of `frag`'s coverage), written from `frag`'s own chunks: one
/// chunk per box of `covered`, each in row-major order, its rows gathered
/// run by run from the source chunks they cross.
struct Export<'a, T, const D: usize> {
    frag: &'a GridFragment<T, D>,
    covered: BoxRegion<D>,
}

impl<T: Wire, const D: usize> Wire for Export<'_, T, D> {
    fn put(&self, out: &mut impl Sink) {
        out.put_len(self.covered.boxes().len());
        for &bx in self.covered.boxes() {
            bx.put(out);
            out.put_len(bx.cardinality() as usize);
            let width = (bx.hi()[D - 1] - bx.lo()[D - 1]) as usize;
            for mut p in row_starts(bx) {
                let mut left = width;
                while left > 0 {
                    let (i, off, run) = self
                        .frag
                        .locate_run(&p, left)
                        .expect("an extract view stays inside the fragment's coverage");
                    T::put_all(&self.frag.chunks[i].data[off..off + run], out);
                    left -= run;
                    p[D - 1] += run as i64;
                }
            }
        }
    }
    fn get(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Err(WireError::InvalidData(
            "a view is written, never read".into(),
        ))
    }
}

impl<T, const D: usize> Fragment for GridFragment<T, D>
where
    T: Clone + Default + Wire + 'static,
{
    type Region = BoxRegion<D>;

    fn empty() -> Self {
        GridFragment::from_chunks(Vec::new())
    }

    fn alloc(region: &BoxRegion<D>) -> Self {
        GridFragment::new(region)
    }

    fn region(&self) -> &BoxRegion<D> {
        self.covered()
    }

    fn extract(&self, region: &BoxRegion<D>) -> Self {
        let covered = self.covered().intersect(region);
        let mut out = GridFragment::new(&covered);
        out.copy_covered_from(self);
        out
    }

    fn extract_view(&self, region: &BoxRegion<D>) -> impl Wire {
        Export {
            frag: self,
            covered: self.covered().intersect(region),
        }
    }

    fn insert(&mut self, other: &Self) {
        self.insert_owned(other.clone());
    }

    fn insert_owned(&mut self, mut other: Self) {
        // Last-writer-wins on overlap: clear the overlap, then adopt
        // other's chunks wholesale (they are disjoint among themselves).
        // Chunks disjoint from ours are an append, which the memo follows.
        let held = &self.chunks;
        let clash = |o: &Chunk<T, D>| held.iter().any(|c| c.bx.overlaps(&o.bx));
        if other.chunks.iter().any(clash) {
            self.remove(other.covered());
        }
        if let Some(covered) = self.region.take() {
            let grown = covered.fold_boxes(other.chunks.iter().map(|c| c.bx));
            self.region = OnceCell::from(grown);
        }
        self.chunks.append(&mut other.chunks);
    }

    fn remove(&mut self, region: &BoxRegion<D>) {
        let hit = |c: &Chunk<T, D>| region.boxes().iter().any(|b| b.overlaps(&c.bx));
        let Some(first) = self.chunks.iter().position(hit) else {
            return; // untouched, memo included
        };
        self.region.take();
        if self.chunks[first..]
            .iter()
            .all(|c| !hit(c) || region.contains_box(c.bx))
        {
            // Only whole chunks go (a dropped replica): keep the rest in place.
            self.chunks.retain(|c| !hit(c));
            return;
        }
        // A cut chunk's pieces take its place in the list, in their order.
        let mut at = first;
        while at < self.chunks.len() {
            let c = &self.chunks[at];
            if !hit(c) {
                at += 1;
                continue;
            }
            let keep = BoxRegion::from_box(c.bx).difference(region);
            let pieces: Vec<_> = keep
                .boxes()
                .iter()
                .map(|&bx| Chunk {
                    data: copy_rows(c, bx),
                    bx,
                })
                .collect();
            let next = at + pieces.len();
            self.chunks.splice(at..=at, pieces);
            at = next;
        }
    }
}

impl<T, const D: usize> fmt::Debug for GridFragment<T, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GridFragment(")?;
        for (i, c) in self.chunks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?}", c.bx)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lo: [i64; 2], hi: [i64; 2]) -> BoxRegion<2> {
        BoxRegion::cuboid(lo, hi)
    }

    fn filled(region: &BoxRegion<2>) -> GridFragment<i64, 2> {
        let mut f = GridFragment::new(region);
        f.for_each_mut(|p, v| *v = p[0] * 100 + p[1]);
        f
    }

    #[test]
    fn new_covers_region_with_defaults() {
        let f = GridFragment::<f64, 2>::new(&r2([0, 0], [3, 3]));
        assert_eq!(f.len(), 9);
        assert_eq!(f.get(&Point([1, 1])), Some(&0.0));
        assert_eq!(f.get(&Point([3, 3])), None);
        assert_eq!(*f.region(), r2([0, 0], [3, 3]));
    }

    #[test]
    fn get_set_round_trip() {
        let mut f = GridFragment::<i64, 2>::new(&r2([5, 5], [8, 8]));
        assert!(f.set(&Point([6, 7]), 42));
        assert_eq!(f.get(&Point([6, 7])), Some(&42));
        assert!(!f.set(&Point([0, 0]), 1)); // outside coverage
    }

    #[test]
    fn extract_copies_values() {
        let f = filled(&r2([0, 0], [4, 4]));
        let sub = f.extract(&r2([1, 1], [3, 3]));
        assert_eq!(*sub.region(), r2([1, 1], [3, 3]));
        assert_eq!(sub.get(&Point([2, 1])), Some(&201));
        assert_eq!(sub.get(&Point([0, 0])), None);
    }

    #[test]
    fn extract_clips_to_coverage() {
        let f = filled(&r2([0, 0], [2, 2]));
        let sub = f.extract(&r2([1, 1], [5, 5]));
        assert_eq!(*sub.region(), r2([1, 1], [2, 2]));
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.get(&Point([1, 1])), Some(&101));
    }

    #[test]
    fn insert_last_writer_wins() {
        let mut f = filled(&r2([0, 0], [3, 3]));
        let mut g = GridFragment::<i64, 2>::new(&r2([2, 0], [5, 3]));
        g.for_each_mut(|_, v| *v = -7);
        f.insert(&g);
        assert_eq!(*f.region(), r2([0, 0], [5, 3]));
        assert_eq!(f.get(&Point([1, 1])), Some(&101)); // original
        assert_eq!(f.get(&Point([2, 1])), Some(&-7)); // overwritten
        assert_eq!(f.get(&Point([4, 2])), Some(&-7)); // extended
    }

    #[test]
    fn remove_preserves_survivors() {
        let mut f = filled(&r2([0, 0], [4, 4]));
        f.remove(&r2([1, 1], [3, 3]));
        assert_eq!(
            *f.region(),
            r2([0, 0], [4, 4]).difference(&r2([1, 1], [3, 3]))
        );
        assert_eq!(f.len(), 12);
        assert_eq!(f.get(&Point([2, 2])), None);
        assert_eq!(f.get(&Point([0, 3])), Some(&3));
        assert_eq!(f.get(&Point([3, 0])), Some(&300));
    }

    #[test]
    fn halo_exchange_pattern() {
        // Two neighbouring fragments exchange one-cell halos — the core
        // motion of the stencil benchmark.
        let left = filled(&r2([0, 0], [4, 8]));
        let mut right = GridFragment::<i64, 2>::new(&r2([4, 0], [8, 8]));
        right.for_each_mut(|p, v| *v = -(p[0] * 100 + p[1]));

        // Right needs left's boundary column x=3.
        let halo = left.extract(&r2([3, 0], [4, 8]));
        let mut right_view = right.clone();
        right_view.insert(&halo);
        assert_eq!(right_view.get(&Point([3, 5])), Some(&305));
        assert_eq!(right_view.get(&Point([4, 5])), Some(&-405));
        // The original right fragment is untouched.
        assert_eq!(right.get(&Point([3, 5])), None);
    }

    #[test]
    fn multi_chunk_fragment_access() {
        let region = r2([0, 0], [2, 2]).union(&r2([10, 10], [12, 12]));
        let mut f = GridFragment::<i64, 2>::new(&region);
        assert!(f.set(&Point([11, 11]), 5));
        assert!(f.set(&Point([1, 0]), 6));
        assert!(!f.set(&Point([5, 5]), 7));
        assert_eq!(f.len(), 8);
    }

    #[test]
    fn three_d_extract_insert() {
        let mut f = GridFragment::<f32, 3>::new(&BoxRegion::cuboid([0; 3], [4; 3]));
        f.for_each_mut(|p, v| *v = (p[0] * 16 + p[1] * 4 + p[2]) as f32);
        let sub = f.extract(&BoxRegion::cuboid([1, 1, 1], [3, 3, 3]));
        assert_eq!(sub.len(), 8);
        assert_eq!(sub.get(&Point([2, 1, 2])), Some(&38.0));
    }

    #[test]
    fn empty_fragment_behaviour() {
        let f = GridFragment::<i64, 2>::empty();
        assert!(f.is_empty());
        assert!(f.region().is_empty());
        assert!(f.extract(&r2([0, 0], [5, 5])).is_empty());
    }
}
