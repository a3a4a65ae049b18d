//! Façade types and the `pfor` parallel loop — the user-facing API layer
//! (paper Sections 3.1 and 3.4).
//!
//! "The façade type defines the logical view on the data structure to the
//! end user." [`Grid`] is the N-dimensional grid data item the paper's
//! Fig. 6b uses (`Grid<double,2> A({N,N}); pfor({0,0},{N,N},…)`); the
//! corresponding fragment/region types come from `allscale-region`.
//! [`pfor`] builds a `prec` work item that recursively bisects an index
//! box until the policy stops splitting, with data requirements derived
//! from the sub-box by a user closure — the artifact the AllScale
//! compiler generates from a parallel loop.

use std::sync::Arc;

use allscale_des::SimDuration;
use allscale_net::wire::Wire;
use allscale_region::{
    BoxRegion, BucketRegion, GridBox, GridFragment, ItemType, KeyedFragment, PathRegion, Point,
    TreeFragment,
};

use crate::cost::CostModel;
use crate::runtime::RtCtx;
use crate::task::{AccessMode, ItemId, Prec, PrecOps, Requirement, TaskCtx, WorkItem};

/// Marker type describing an N-dimensional grid data item holding `T`.
pub struct GridItem<T, const D: usize>(std::marker::PhantomData<T>);

impl<T, const D: usize> ItemType for GridItem<T, D>
where
    T: Clone + Default + Wire + 'static,
{
    type Region = BoxRegion<D>;
    type Fragment = GridFragment<T, D>;
}

/// A typed handle on a grid data item (the façade). Cheap to copy; the
/// actual storage lives distributed in the localities' data item managers.
pub struct Grid<T, const D: usize> {
    /// The underlying data item id.
    pub id: ItemId,
    /// The logical extent `[0, shape)`.
    pub shape: [i64; D],
    _marker: std::marker::PhantomData<T>,
}

impl<T, const D: usize> Clone for Grid<T, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, const D: usize> Copy for Grid<T, D> {}

impl<T, const D: usize> Grid<T, D>
where
    T: Clone + Default + Wire + 'static,
{
    /// Create a grid data item of the given shape (paper Fig. 6b, lines
    /// 1-2). Registers the item on every locality; storage appears on
    /// first touch.
    pub fn create(ctx: &mut RtCtx<'_>, name: &'static str, shape: [i64; D]) -> Self {
        let id = ctx.create_item::<GridItem<T, D>>(name);
        Grid {
            id,
            shape,
            _marker: std::marker::PhantomData,
        }
    }

    /// The whole-grid box `[0, shape)`.
    pub fn full_box(&self) -> GridBox<D> {
        GridBox::from_shape(self.shape).expect("grid shapes are non-empty")
    }

    /// The whole-grid region.
    pub fn full_region(&self) -> BoxRegion<D> {
        BoxRegion::from_box(self.full_box())
    }

    /// Read an element from the executing task's local fragment.
    ///
    /// # Panics
    /// Panics when the task declared no read of `p` (in debug builds:
    /// [`TaskCtx`]'s access rule) or `p` is not held locally (in any build).
    pub fn get(&self, ctx: &TaskCtx<'_>, p: [i64; D]) -> T {
        let what = format_args!("element {p:?}");
        ctx.check_access(self.id, AccessMode::Read, what, |r: &BoxRegion<D>| {
            r.contains(&Point(p))
        });
        let frag = ctx.fragment::<GridFragment<T, D>>(self.id);
        held(frag.get(&Point(p)), AccessMode::Read, what).clone()
    }

    /// Write an element in the executing task's local fragment.
    ///
    /// # Panics
    /// As [`Grid::get`], for a write.
    pub fn set(&self, ctx: &mut TaskCtx<'_>, p: [i64; D], v: T) {
        let what = format_args!("element {p:?}");
        ctx.check_access(self.id, AccessMode::Write, what, |r: &BoxRegion<D>| {
            r.contains(&Point(p))
        });
        let ok = ctx
            .fragment_mut::<GridFragment<T, D>>(self.id)
            .set(&Point(p), v);
        held(ok.then_some(()), AccessMode::Write, what);
    }

    /// Read the `out.len()` elements of the innermost-axis run starting at
    /// `start` from the executing task's local fragment, which is resolved
    /// once for the whole run.
    ///
    /// # Panics
    /// As [`Grid::get`], for the run as one box.
    pub fn read_row(&self, ctx: &TaskCtx<'_>, start: [i64; D], out: &mut [T]) {
        self.check_run(ctx, AccessMode::Read, start, out.len());
        let ok = ctx
            .fragment::<GridFragment<T, D>>(self.id)
            .read_row(&Point(start), out);
        held(
            ok.then_some(()),
            AccessMode::Read,
            format_args!("{} element(s) from {start:?}", out.len()),
        );
    }

    /// Write `src` over the innermost-axis run starting at `start` in the
    /// executing task's local fragment, which is resolved once for the whole
    /// run.
    ///
    /// # Panics
    /// As [`Grid::set`], for the run as one box.
    pub fn write_row(&self, ctx: &mut TaskCtx<'_>, start: [i64; D], src: &[T]) {
        self.check_run(ctx, AccessMode::Write, start, src.len());
        let ok = ctx
            .fragment_mut::<GridFragment<T, D>>(self.id)
            .write_row(&Point(start), src);
        held(
            ok.then_some(()),
            AccessMode::Write,
            format_args!("{} element(s) from {start:?}", src.len()),
        );
    }

    /// The access rule for the innermost-axis run of `n` from `start`, as one box.
    fn check_run(&self, ctx: &TaskCtx<'_>, mode: AccessMode, start: [i64; D], n: usize) {
        let mut end = start.map(|x| x + 1);
        end[D - 1] += n as i64 - 1;
        if let Some(run) = GridBox::new(Point(start), Point(end)) {
            let what = format_args!("{n} element(s) from {start:?}");
            ctx.check_access(self.id, mode, what, |r: &BoxRegion<D>| r.contains_box(run));
        }
    }
}

/// What every build checks of a façade access: the locality holds it.
fn held<X>(v: Option<X>, mode: AccessMode, what: std::fmt::Arguments<'_>) -> X {
    v.unwrap_or_else(|| panic!("{mode:?} of {what}, not held here — missing requirement?"))
}

/// Marker type describing a binary-tree data item holding `T` with region
/// scheme `R` (flexible [`allscale_region::TreeRegion`] or blocked
/// [`allscale_region::BitmaskTreeRegion`]).
pub struct TreeItem<T, R>(std::marker::PhantomData<(T, R)>);

impl<T, R> ItemType for TreeItem<T, R>
where
    T: Clone + Wire + 'static,
    R: PathRegion,
{
    type Region = R;
    type Fragment = TreeFragment<T, R>;
}

/// Marker type describing a keyed map data item (`K → V`, hash-bucketed).
pub struct MapItem<K, V>(std::marker::PhantomData<(K, V)>);

impl<K, V> ItemType for MapItem<K, V>
where
    K: Ord + Clone + Wire + 'static,
    V: Clone + Wire + 'static,
{
    type Region = BucketRegion;
    type Fragment = KeyedFragment<K, V>;
}

/// A typed handle on a distributed map data item: key-value pairs
/// partitioned into hash buckets that the runtime places, migrates, and
/// replicates like any other region (the paper's "sets, maps" claim).
pub struct DistMap<K, V> {
    /// The underlying data item id.
    pub id: ItemId,
    /// Number of hash buckets.
    pub buckets: u32,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K, V> Clone for DistMap<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for DistMap<K, V> {}

impl<K, V> DistMap<K, V>
where
    K: Ord + Clone + std::fmt::Debug + Wire + 'static,
    V: Clone + Wire + 'static,
{
    /// Create a distributed map with `buckets` hash buckets.
    pub fn create(ctx: &mut RtCtx<'_>, name: &'static str, buckets: u32) -> Self {
        let id = ctx.create_item::<MapItem<K, V>>(name);
        DistMap {
            id,
            buckets,
            _marker: std::marker::PhantomData,
        }
    }

    /// The region of a contiguous bucket range `[lo, hi)`.
    pub fn range_region(&self, lo: u32, hi: u32) -> BucketRegion {
        BucketRegion::of_range(self.buckets, lo, hi)
    }

    /// The full region.
    pub fn full_region(&self) -> BucketRegion {
        BucketRegion::full(self.buckets)
    }

    /// Insert into the local fragment: the task must declare a write of
    /// the key's bucket (checked in debug builds), which must be held here.
    pub fn insert(&self, ctx: &mut TaskCtx<'_>, key: K, value: V) {
        let bucket = |c: &TaskCtx<'_>| c.fragment::<KeyedFragment<K, V>>(self.id).bucket_of(&key);
        let covers = |r: &BucketRegion| r.contains(bucket(ctx));
        ctx.check_access(
            self.id,
            AccessMode::Write,
            format_args!("key {key:?}"),
            covers,
        );
        let ok = ctx
            .fragment_mut::<KeyedFragment<K, V>>(self.id)
            .insert(key, value);
        held(
            ok.then_some(()),
            AccessMode::Write,
            format_args!("a key's bucket"),
        );
    }

    /// Look up in the local fragment; the task must declare a read of the key's bucket.
    pub fn get(&self, ctx: &TaskCtx<'_>, key: &K) -> Option<V> {
        let frag = ctx.fragment::<KeyedFragment<K, V>>(self.id);
        let covers = |r: &BucketRegion| r.contains(frag.bucket_of(key));
        ctx.check_access(
            self.id,
            AccessMode::Read,
            format_args!("key {key:?}"),
            covers,
        );
        frag.get(key).cloned()
    }
}

/// Configuration of a [`pfor`] loop.
pub struct PforSpec<const D: usize> {
    /// Loop name (monitoring).
    pub name: &'static str,
    /// The iteration space.
    pub range: GridBox<D>,
    /// Stop splitting below this many points per tile.
    pub grain: u64,
    /// Virtual cost per point (ns). Typically from [`CostModel`] fields.
    pub ns_per_point: f64,
    /// Split axis 0 with priority until the range is cut into at least
    /// this many axis-0 bands (0 = plain longest-axis bisection). Needed
    /// when another axis is longer but data distribution happens along
    /// axis 0 (the placement hint's axis): without it, first-touch would
    /// place all data on the few distinct axis-0 bands.
    pub axis0_pieces: u64,
}

/// Build a `pfor` work item: a recursive bisection of `range` whose leaf
/// tiles run `body(point)` with requirements `reqs(tile)`.
///
/// - `reqs` maps a tile to the data requirements of processing it (e.g.
///   "read the tile dilated by 1 in grid A, write the tile in grid B") —
///   the requirement function the AllScale compiler derives per variant;
/// - `body` is executed for every point of a leaf tile, with a [`TaskCtx`]
///   giving façade access.
pub fn pfor<const D: usize>(
    spec: PforSpec<D>,
    reqs: impl Fn(&GridBox<D>) -> Vec<Requirement> + 'static,
    body: impl Fn(&mut TaskCtx<'_>, Point<D>) + 'static,
) -> Box<dyn WorkItem> {
    pfor_tiles(spec, reqs, move |ctx, tile| {
        for p in tile.points() {
            body(ctx, p);
        }
    })
}

/// [`pfor`] with the leaf body handed its whole tile instead of one point at
/// a time, so that it can move innermost-axis runs through the façade
/// ([`Grid::read_row`], [`Grid::write_row`]) rather than single elements.
/// The virtual cost is unchanged: `ns_per_point` per point of the tile.
#[allow(clippy::arc_with_non_send_sync)] // the simulation is single-threaded by design
pub fn pfor_tiles<const D: usize>(
    spec: PforSpec<D>,
    reqs: impl Fn(&GridBox<D>) -> Vec<Requirement> + 'static,
    body: impl Fn(&mut TaskCtx<'_>, &GridBox<D>) + 'static,
) -> Box<dyn WorkItem> {
    let full = spec.range;
    let grain = spec.grain.max(1);
    let ns_per_point = spec.ns_per_point;
    let axis0_pieces = spec.axis0_pieces;
    let full_extent0 = (full.hi()[0] - full.lo()[0]).max(1) as u64;
    let ops: Arc<PrecOps<GridBox<D>>> = Arc::new(PrecOps {
        name: spec.name,
        can_split: Box::new(move |b, _| b.cardinality() > grain),
        split: Box::new(move |b| {
            let extent0 = (b.hi()[0] - b.lo()[0]) as u64;
            if axis0_pieces > 0 && extent0 > 1 && full_extent0 / extent0 < axis0_pieces {
                bisect_axis(b, 0)
            } else {
                bisect(b)
            }
        }),
        combine: Box::new(|_| None),
        process: Box::new(move |ctx, b| {
            body(ctx, b);
            None
        }),
        hint: Box::new(move |b| Some(position_hint(&full, b))),
        requirements: Box::new(move |b| reqs(b)),
        cost: Box::new(move |b, c: &CostModel, loc| {
            SimDuration::from_nanos_f64(b.cardinality() as f64 * ns_per_point / c.speed(loc))
        }),
        descriptor_bytes: 192,
        result_bytes: 8,
    });
    Prec::root(full, ops)
}

/// Split a box in half along its longest axis.
pub fn bisect<const D: usize>(b: &GridBox<D>) -> Vec<GridBox<D>> {
    let (lo, hi) = (b.lo(), b.hi());
    let mut axis = 0;
    let mut best = 0;
    for d in 0..D {
        let extent = hi[d] - lo[d];
        if extent > best {
            best = extent;
            axis = d;
        }
    }
    bisect_axis(b, axis)
}

/// Split a box in half along a given axis (identity if the axis has
/// extent 1).
pub fn bisect_axis<const D: usize>(b: &GridBox<D>, axis: usize) -> Vec<GridBox<D>> {
    let (lo, hi) = (b.lo(), b.hi());
    let extent = hi[axis] - lo[axis];
    if extent <= 1 {
        return vec![*b];
    }
    let mid = lo[axis] + extent / 2;
    let mut hi_left = hi;
    hi_left[axis] = mid;
    let mut lo_right = lo;
    lo_right[axis] = mid;
    vec![
        GridBox::new(lo, hi_left).expect("left half non-empty"),
        GridBox::new(lo_right, hi).expect("right half non-empty"),
    ]
}

/// Placement hint: the fractional position of `tile`'s center along the
/// *first* axis of the full range — giving contiguous row-block placement,
/// the distribution the paper's evaluation codes use.
pub fn position_hint<const D: usize>(full: &GridBox<D>, tile: &GridBox<D>) -> f64 {
    let lo = full.lo()[0] as f64;
    let hi = full.hi()[0] as f64;
    if hi <= lo {
        return 0.0;
    }
    let center = (tile.lo()[0] + tile.hi()[0]) as f64 / 2.0;
    ((center - lo) / (hi - lo)).clamp(0.0, 0.999_999)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_splits_longest_axis() {
        let b = GridBox::<2>::new(Point([0, 0]), Point([8, 4])).unwrap();
        let parts = bisect(&b);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].hi().0, [4, 4]);
        assert_eq!(parts[1].lo().0, [4, 0]);
        // Halves tile the original exactly.
        assert_eq!(
            parts[0].cardinality() + parts[1].cardinality(),
            b.cardinality()
        );
    }

    #[test]
    fn bisect_of_unit_box_is_identity() {
        let b = GridBox::<1>::new(Point([3]), Point([4])).unwrap();
        assert_eq!(bisect(&b), vec![b]);
    }

    #[test]
    fn position_hints_are_monotone_along_axis0() {
        let full = GridBox::<2>::from_shape([100, 100]).unwrap();
        let t1 = GridBox::new(Point([0, 0]), Point([10, 100])).unwrap();
        let t2 = GridBox::new(Point([50, 0]), Point([60, 100])).unwrap();
        let t3 = GridBox::new(Point([90, 0]), Point([100, 100])).unwrap();
        let (h1, h2, h3) = (
            position_hint(&full, &t1),
            position_hint(&full, &t2),
            position_hint(&full, &t3),
        );
        assert!(h1 < h2 && h2 < h3);
        assert!((0.0..1.0).contains(&h1) && h3 < 1.0);
    }

    #[test]
    fn pfor_work_item_shape() {
        let spec = PforSpec {
            name: "test",
            range: GridBox::<2>::from_shape([16, 16]).unwrap(),
            grain: 16,
            ns_per_point: 2.0,
            axis0_pieces: 0,
        };
        let wi = pfor(spec, |_| Vec::new(), |_, _| {});
        assert!(wi.can_split());
        assert_eq!(wi.name(), "test");
        let cost = wi.cost(&CostModel::default(), 0);
        assert_eq!(cost.as_nanos(), 512); // 256 points × 2 ns
        let out = wi.split();
        assert_eq!(out.children.len(), 2);
        // Split until grain: a 16-point tile must not split further.
        let mut leaf = out.children.into_iter().next().unwrap();
        while leaf.can_split() {
            leaf = leaf.split().children.into_iter().next().unwrap();
        }
        assert!(leaf.cost(&CostModel::default(), 0).as_nanos() <= 32);
    }
}
