//! The region abstraction (paper Definition 2.2 and Section 3.1).
//!
//! A region describes an addressable subset of a data item's elements. The
//! runtime decomposes, locates, transfers, and locks data exclusively in
//! terms of regions, so region types must form a proper set algebra:
//! Section 3.1 requires closure under **union, intersection, and
//! set-difference** (which is why a single bounding box is *not* a valid
//! region type, but a *set* of boxes is).
//!
//! Every implementation in this crate is property-tested against a
//! brute-force element-set oracle; see [`check_laws`].

use allscale_des::wire::{self, Wire};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// An addressable subset of a data item's elements, closed under the
/// Boolean set operations.
///
/// Implementations must satisfy, for all regions `a`, `b`:
///
/// - `a ∪ a = a`, `a ∩ a = a` (idempotence)
/// - `a ∪ b = b ∪ a`, `a ∩ b = b ∩ a` (commutativity)
/// - `a \ b` disjoint from `b`, and `(a \ b) ∪ (a ∩ b) = a`
/// - `a ∪ ∅ = a`, `a ∩ ∅ = ∅`, `a \ ∅ = a`, `∅ \ a = ∅`
///
/// Equality must be *semantic*: two differently-structured representations
/// of the same element set compare equal.
pub trait Region: Clone + PartialEq + Debug + Wire + 'static {
    /// The empty region.
    fn empty() -> Self;

    /// Whether this region contains no elements.
    fn is_empty(&self) -> bool;

    /// Set union.
    fn union(&self, other: &Self) -> Self;

    /// Set intersection.
    fn intersect(&self, other: &Self) -> Self;

    /// Set difference (`self \ other`).
    fn difference(&self, other: &Self) -> Self;

    /// Whether the two regions share no elements.
    ///
    /// The default computes the intersection; implementations may override
    /// with something cheaper.
    fn is_disjoint(&self, other: &Self) -> bool {
        self.intersect(other).is_empty()
    }

    /// Whether `self` is a subset of `other`.
    fn is_subset_of(&self, other: &Self) -> bool {
        self.difference(other).is_empty()
    }
}

/// Checks a [`Region`] implementation against a brute-force element-set
/// oracle and the algebraic laws above. Panics (with context) on the first
/// violated law. Intended for use from unit and property tests of each
/// region scheme.
///
/// `elems` must map a region to the exact element set it denotes, within a
/// finite universe chosen by the caller.
pub fn check_laws<R, E, F>(a: &R, b: &R, elems: F)
where
    R: Region,
    E: Ord + Clone + Debug,
    F: Fn(&R) -> BTreeSet<E>,
{
    let ea = elems(a);
    let eb = elems(b);

    // The three operations agree with the oracle.
    let union = a.union(b);
    assert_eq!(
        elems(&union),
        ea.union(&eb).cloned().collect::<BTreeSet<_>>(),
        "union disagrees with oracle for {a:?} ∪ {b:?}"
    );
    let inter = a.intersect(b);
    assert_eq!(
        elems(&inter),
        ea.intersection(&eb).cloned().collect::<BTreeSet<_>>(),
        "intersection disagrees with oracle for {a:?} ∩ {b:?}"
    );
    let diff = a.difference(b);
    assert_eq!(
        elems(&diff),
        ea.difference(&eb).cloned().collect::<BTreeSet<_>>(),
        "difference disagrees with oracle for {a:?} \\ {b:?}"
    );

    // Emptiness is consistent with the oracle.
    assert_eq!(a.is_empty(), ea.is_empty(), "is_empty inconsistent: {a:?}");

    // Derived predicates.
    assert_eq!(
        a.is_disjoint(b),
        ea.is_disjoint(&eb),
        "is_disjoint inconsistent for {a:?}, {b:?}"
    );
    assert_eq!(
        a.is_subset_of(b),
        ea.is_subset(&eb),
        "is_subset_of inconsistent for {a:?}, {b:?}"
    );

    // The predicates may be overridden with something that builds no
    // region; they must still be the algebra's verdicts — also against the
    // canonical empty region, whose size need not be the operands'.
    let empty = R::empty();
    for (x, y) in [(a, b), (b, a), (a, &empty), (&empty, a), (&empty, &empty)] {
        assert_eq!(
            x.is_subset_of(y),
            x.difference(y).is_empty(),
            "is_subset_of is not `difference(..).is_empty()` for {x:?}, {y:?}"
        );
        assert_eq!(
            x.is_disjoint(y),
            x.intersect(y).is_empty(),
            "is_disjoint is not `intersect(..).is_empty()` for {x:?}, {y:?}"
        );
    }

    // Algebraic laws via semantic equality.
    assert_eq!(a.union(a), *a, "union not idempotent for {a:?}");
    assert_eq!(a.intersect(a), *a, "intersection not idempotent for {a:?}");
    assert_eq!(a.union(b), b.union(a), "union not commutative");
    assert_eq!(
        a.intersect(b),
        b.intersect(a),
        "intersection not commutative"
    );
    assert!(empty.is_empty(), "R::empty() must be empty");
    assert_eq!(a.union(&empty), *a, "a ∪ ∅ ≠ a for {a:?}");
    assert_eq!(a.intersect(&empty), empty, "a ∩ ∅ ≠ ∅ for {a:?}");
    assert_eq!(a.difference(&empty), *a, "a \\ ∅ ≠ a for {a:?}");
    assert_eq!(empty.difference(a), empty, "∅ \\ a ≠ ∅ for {a:?}");
    assert!(
        diff.is_disjoint(b),
        "a \\ b not disjoint from b: {a:?}, {b:?}"
    );
    assert_eq!(
        diff.union(&inter),
        *a,
        "(a \\ b) ∪ (a ∩ b) ≠ a for {a:?}, {b:?}"
    );
    assert_eq!(a.difference(b).intersect(b), R::empty());

    let back: R = wire::decode(&wire::encode(a)).expect("a region's encoding decodes");
    assert_eq!(back, *a, "the wire form does not round-trip for {a:?}");
}
