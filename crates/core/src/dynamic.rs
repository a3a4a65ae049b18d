//! Type erasure for user-defined data items.
//!
//! The paper's central claim is that the runtime can manage *user-defined*
//! data structures generically. The statically typed side of that bargain
//! lives in `allscale-region` ([`Region`], [`Fragment`], [`ItemType`]);
//! this module provides the dynamically typed counterpart the runtime's
//! data item manager, index, and scheduler operate on: [`DynRegion`] and
//! [`DynFragment`] trait objects plus a per-item [`ItemDescriptor`] vtable
//! for decoding serialized fragments arriving from other localities.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use allscale_net::frame::Payload;
use allscale_net::wire;
use allscale_region::{Fragment, ItemType, Region};

/// A type-erased region: the Boolean algebra of [`Region`] behind a trait
/// object. Binary operations panic when the two operands have different
/// concrete types — mixing regions of different data items is a runtime
/// bug, not a recoverable condition.
pub trait DynRegion: fmt::Debug {
    /// Clone into a new box.
    fn clone_box(&self) -> Box<dyn DynRegion>;
    /// Set union with a region of the same concrete type.
    fn union_dyn(&self, other: &dyn DynRegion) -> Box<dyn DynRegion>;
    /// Set intersection with a region of the same concrete type.
    fn intersect_dyn(&self, other: &dyn DynRegion) -> Box<dyn DynRegion>;
    /// Set difference with a region of the same concrete type.
    fn difference_dyn(&self, other: &dyn DynRegion) -> Box<dyn DynRegion>;
    /// Whether the region is empty.
    fn is_empty_dyn(&self) -> bool;
    /// Whether `self ⊆ other` (same concrete type). Like
    /// [`is_disjoint_dyn`](DynRegion::is_disjoint_dyn) this is the question
    /// to ask when only the verdict matters: the schemes the runtime ships
    /// answer it without building `self ∖ other`.
    fn is_subset_dyn(&self, other: &dyn DynRegion) -> bool;
    /// Whether `self ∩ other = ∅` (same concrete type).
    fn is_disjoint_dyn(&self, other: &dyn DynRegion) -> bool;
    /// Semantic equality with a region of the same concrete type.
    fn eq_dyn(&self, other: &dyn DynRegion) -> bool;
    /// Serialize for transmission (control-plane sizing is billed off the
    /// encoded length).
    fn encode(&self) -> Vec<u8>;
    /// A cheap, stable 64-bit fingerprint of the region value, used as the
    /// location-cache key. Computed over the canonical wire encoding (`put`
    /// feeds the hash; no bytes are stored), so equal
    /// *representations* always agree; semantically equal regions with
    /// different internal structure may fingerprint differently, and
    /// distinct regions may collide — consumers needing exactness (the
    /// cache does) must confirm with [`DynRegion::eq_dyn`]. Either way the
    /// cost is a cache miss, never a wrong answer.
    fn fingerprint_dyn(&self) -> u64;
    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;
}

impl<R: Region> DynRegion for R {
    fn clone_box(&self) -> Box<dyn DynRegion> {
        Box::new(self.clone())
    }
    fn union_dyn(&self, other: &dyn DynRegion) -> Box<dyn DynRegion> {
        Box::new(self.union(downcast::<R>(other)))
    }
    fn intersect_dyn(&self, other: &dyn DynRegion) -> Box<dyn DynRegion> {
        Box::new(self.intersect(downcast::<R>(other)))
    }
    fn difference_dyn(&self, other: &dyn DynRegion) -> Box<dyn DynRegion> {
        Box::new(self.difference(downcast::<R>(other)))
    }
    fn is_empty_dyn(&self) -> bool {
        self.is_empty()
    }
    fn is_subset_dyn(&self, other: &dyn DynRegion) -> bool {
        self.is_subset_of(downcast::<R>(other))
    }
    fn is_disjoint_dyn(&self, other: &dyn DynRegion) -> bool {
        self.is_disjoint(downcast::<R>(other))
    }
    fn eq_dyn(&self, other: &dyn DynRegion) -> bool {
        self == downcast::<R>(other)
    }
    fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }
    fn fingerprint_dyn(&self) -> u64 {
        wire::fingerprint(self)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Clone for Box<dyn DynRegion> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Downcast a dyn region to its concrete type.
///
/// # Panics
/// Panics when the concrete types differ — regions of different item types
/// must never be combined.
pub fn downcast<R: Region>(r: &dyn DynRegion) -> &R {
    r.as_any()
        .downcast_ref::<R>()
        .expect("mixed region types in a single data item operation")
}

/// A type-erased fragment held by a locality's data item manager.
pub trait DynFragment {
    /// The region currently covered.
    fn region_dyn(&self) -> Box<dyn DynRegion>;
    /// Serialize the sub-fragment covering `region` for transmission
    /// between address spaces: the bytes of [`Fragment::extract`]'s copy,
    /// written from this fragment's own storage
    /// ([`Fragment::extract_view`]) behind room for the frame header.
    fn export(&self, region: &dyn DynRegion) -> Payload;
    /// The bytes of [`DynFragment::export`], bare — a checkpoint shard.
    fn encode_part(&self, region: &dyn DynRegion) -> Vec<u8>;
    /// Merge another fragment of the same concrete type, taking over its
    /// storage ([`Fragment::insert_owned`]).
    fn insert_dyn(&mut self, other: Box<dyn DynFragment>);
    /// Drop coverage of a region.
    fn remove_dyn(&mut self, region: &dyn DynRegion);
    /// Downcasting support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Owning downcasting support.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<F: Fragment> DynFragment for F {
    fn region_dyn(&self) -> Box<dyn DynRegion> {
        Box::new(self.region())
    }
    fn export(&self, region: &dyn DynRegion) -> Payload {
        Payload::encode(&self.extract_view(downcast::<F::Region>(region)))
    }
    fn encode_part(&self, region: &dyn DynRegion) -> Vec<u8> {
        wire::encode(&self.extract_view(downcast::<F::Region>(region)))
    }
    fn insert_dyn(&mut self, other: Box<dyn DynFragment>) {
        let other = other
            .into_any()
            .downcast::<F>()
            .expect("mixed fragment types in a single data item operation");
        self.insert_owned(*other);
    }
    fn remove_dyn(&mut self, region: &dyn DynRegion) {
        self.remove(downcast::<F::Region>(region));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The per-item vtable: everything the runtime needs to handle a data item
/// whose concrete types it does not know.
#[derive(Clone)]
#[allow(clippy::type_complexity)] // the vtable IS the type; aliases would obscure it
pub struct ItemDescriptor {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Construct an empty fragment.
    pub empty_fragment: Arc<dyn Fn() -> Box<dyn DynFragment>>,
    /// Allocate a default-initialized fragment over a region (first-touch
    /// allocation, the paper's (init) rule).
    pub alloc_fragment: Arc<dyn Fn(&dyn DynRegion) -> Box<dyn DynFragment>>,
    /// The empty region of this item's region scheme.
    pub empty_region: Arc<dyn Fn() -> Box<dyn DynRegion>>,
    /// Decode a fragment received from another locality.
    pub decode_fragment: Arc<dyn Fn(&[u8]) -> Box<dyn DynFragment>>,
}

impl ItemDescriptor {
    /// Build the descriptor for a statically known [`ItemType`].
    pub fn of<I: ItemType>(name: &'static str) -> Self {
        ItemDescriptor {
            name,
            empty_fragment: Arc::new(|| Box::new(I::Fragment::empty())),
            alloc_fragment: Arc::new(|region| {
                Box::new(I::Fragment::alloc(downcast::<I::Region>(region)))
            }),
            empty_region: Arc::new(|| Box::new(I::Region::empty())),
            decode_fragment: Arc::new(|bytes| {
                Box::new(
                    wire::decode::<I::Fragment>(bytes)
                        .expect("fragment decode failed: corrupted transfer"),
                )
            }),
        }
    }
}

impl fmt::Debug for ItemDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ItemDescriptor({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_region::{BoxRegion, GridFragment};

    struct Grid2;
    impl ItemType for Grid2 {
        type Region = BoxRegion<2>;
        type Fragment = GridFragment<f64, 2>;
    }

    fn r2(lo: [i64; 2], hi: [i64; 2]) -> BoxRegion<2> {
        BoxRegion::cuboid(lo, hi)
    }

    #[test]
    fn dyn_region_algebra_matches_static() {
        let a: Box<dyn DynRegion> = Box::new(r2([0, 0], [4, 4]));
        let b: Box<dyn DynRegion> = Box::new(r2([2, 2], [6, 6]));
        let u = a.union_dyn(b.as_ref());
        let i = a.intersect_dyn(b.as_ref());
        let d = a.difference_dyn(b.as_ref());
        assert!(u.eq_dyn(&r2([0, 0], [4, 4]).union(&r2([2, 2], [6, 6]))));
        assert!(i.eq_dyn(&r2([2, 2], [4, 4])));
        assert!(d.eq_dyn(&r2([0, 0], [4, 4]).difference(&r2([2, 2], [4, 4]))));
        assert!(!u.is_empty_dyn());
        assert!(i.is_subset_dyn(a.as_ref()) && !a.is_subset_dyn(b.as_ref()));
        assert!(d.is_disjoint_dyn(b.as_ref()) && !a.is_disjoint_dyn(b.as_ref()));
    }

    #[test]
    fn descriptor_round_trips_fragments() {
        let desc = ItemDescriptor::of::<Grid2>("grid");
        let mut f = GridFragment::<f64, 2>::new(&r2([0, 0], [3, 3]));
        f.set(&allscale_region::Point([1, 2]), 7.5);
        let bytes = f.export(&r2([0, 0], [3, 3]));
        assert_eq!(&*bytes, &wire::encode(&f)[..]);
        let back = (desc.decode_fragment)(&bytes);
        let typed = back.as_any().downcast_ref::<GridFragment<f64, 2>>().unwrap();
        assert_eq!(typed.get(&allscale_region::Point([1, 2])), Some(&7.5));
    }

    #[test]
    fn dyn_fragment_extract_insert() {
        let mut f: Box<dyn DynFragment> = Box::new(GridFragment::<f64, 2>::new(&r2([0, 0], [4, 4])));
        {
            let typed = f
                .as_any_mut()
                .downcast_mut::<GridFragment<f64, 2>>()
                .unwrap();
            typed.set(&allscale_region::Point([3, 3]), 9.0);
        }
        let desc = ItemDescriptor::of::<Grid2>("grid");
        let sub = (desc.decode_fragment)(&f.export(&r2([3, 3], [4, 4])));
        assert_eq!(
            &*f.export(&r2([3, 3], [4, 4])),
            &f.encode_part(&r2([3, 3], [4, 4]))[..]
        );
        let mut g: Box<dyn DynFragment> = (desc.empty_fragment)();
        g.insert_dyn(sub);
        let typed = g.as_any().downcast_ref::<GridFragment<f64, 2>>().unwrap();
        assert_eq!(typed.get(&allscale_region::Point([3, 3])), Some(&9.0));
        assert!(g.region_dyn().eq_dyn(&r2([3, 3], [4, 4])));
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let a: Box<dyn DynRegion> = Box::new(r2([0, 0], [4, 4]));
        let b: Box<dyn DynRegion> = Box::new(r2([0, 0], [4, 5]));
        // Equal values fingerprint identically, across clones.
        assert_eq!(a.fingerprint_dyn(), a.clone_box().fingerprint_dyn());
        // Different values (almost surely) fingerprint differently.
        assert_ne!(a.fingerprint_dyn(), b.fingerprint_dyn());
        // The streamed hash is the hash of the encoding.
        assert_eq!(
            a.fingerprint_dyn(),
            allscale_region::fnv1a_64(&DynRegion::encode(a.as_ref()))
        );
    }

    #[test]
    #[should_panic(expected = "mixed region types")]
    fn mixing_region_types_panics() {
        let a: Box<dyn DynRegion> = Box::new(r2([0, 0], [1, 1]));
        let b: Box<dyn DynRegion> = Box::new(allscale_region::BucketRegion::new(8));
        let _ = a.union_dyn(b.as_ref());
    }
}
