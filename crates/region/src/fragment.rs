//! The data item type trio (paper Section 3.1, Fig. 4).
//!
//! A data item implementation provides three cooperating types:
//!
//! - a **façade** — the application developer's logical view (provided by
//!   the runtime crate, e.g. `allscale_core::Grid`);
//! - a **fragment** — "the runtime's view on the data structure …
//!   capable of maintaining subsets of elements of a data structure within
//!   some address space";
//! - a **region** — the addressing scheme for those subsets
//!   ([`crate::Region`]).
//!
//! This module defines the fragment contract. Fragments are plain values:
//! extracting a region yields a *new fragment* holding copies of the
//! covered elements, and fragments are serializable, so the runtime can
//! ship them between simulated address spaces as bytes.

use allscale_des::wire::Wire;

use crate::region::Region;

/// A container holding the elements of one region of a data item within a
/// single address space.
///
/// Laws (checked by the implementations' tests):
/// - `Self::empty().region()` is the empty region;
/// - `f.extract(r).region() == f.region() ∩ r`;
/// - after `f.insert(&g)`, `f.region() == old ∪ g.region()`, and elements
///   covered by `g` take `g`'s values (last writer wins);
/// - after `f.remove(&r)`, `f.region() == old \ r`, all surviving elements
///   unchanged.
pub trait Fragment: Wire + Clone + 'static {
    /// The region scheme addressing this fragment's elements.
    type Region: Region;

    /// A fragment covering nothing.
    fn empty() -> Self;

    /// Allocate a fragment covering `region` with default-initialized
    /// elements (used by the runtime for first-touch allocation — the
    /// paper's (init) rule).
    fn alloc(region: &Self::Region) -> Self;

    /// The region this fragment currently covers.
    fn region(&self) -> Self::Region;

    /// Copy out the sub-fragment covering `region ∩ self.region()`.
    fn extract(&self, region: &Self::Region) -> Self;

    /// What [`Fragment::extract`] would copy out, as a value that
    /// encodes to the same bytes as that copy — what an export puts on
    /// the wire. A fragment that can write the sub-region from its own
    /// storage overrides this with a borrowed view and skips the copy.
    fn extract_view(&self, region: &Self::Region) -> impl Wire {
        self.extract(region)
    }

    /// Merge `other` into `self`; on overlap, `other`'s values win.
    fn insert(&mut self, other: &Self);

    /// [`Fragment::insert`] of a fragment the caller is done with — what an
    /// import does with the one it decoded. A fragment that can adopt
    /// `other`'s storage overrides this and skips copying it.
    fn insert_owned(&mut self, other: Self) {
        self.insert(&other);
    }

    /// Drop coverage of `region` (and the elements within).
    fn remove(&mut self, region: &Self::Region);
}

/// Compile-time description of a data item implementation: its region
/// scheme and fragment type. The runtime's data item manager is
/// instantiated per `ItemType`.
pub trait ItemType: 'static {
    /// Region scheme used to address element subsets.
    type Region: Region;
    /// Fragment container for element storage.
    type Fragment: Fragment<Region = Self::Region>;
}
