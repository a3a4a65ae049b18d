//! Scalar data items — the degenerate but useful end of the data-item
//! spectrum (paper Section 3.1: "a large variety of data structures,
//! ranging from simple scalars, ordinary arrays, …").
//!
//! A scalar has exactly one element; its region algebra is the two-element
//! Boolean algebra {∅, {•}}, and its fragment holds at most one value.

use allscale_des::wire::{wire_struct, Wire};

use crate::fragment::Fragment;
use crate::region::Region;

/// The region scheme of a single-element data item: either empty or the
/// whole element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitRegion {
    present: bool,
}
wire_struct!(UnitRegion { present });

impl UnitRegion {
    /// The region containing the scalar.
    pub const FULL: UnitRegion = UnitRegion { present: true };

    /// Whether the single element is in the region.
    pub fn contains_element(&self) -> bool {
        self.present
    }
}

impl Region for UnitRegion {
    fn empty() -> Self {
        UnitRegion { present: false }
    }
    fn is_empty(&self) -> bool {
        !self.present
    }
    fn union(&self, other: &Self) -> Self {
        UnitRegion {
            present: self.present || other.present,
        }
    }
    fn intersect(&self, other: &Self) -> Self {
        UnitRegion {
            present: self.present && other.present,
        }
    }
    fn difference(&self, other: &Self) -> Self {
        UnitRegion {
            present: self.present && !other.present,
        }
    }
}

/// Fragment of a scalar data item: at most one value.
#[derive(Debug, Clone)]
pub struct ScalarFragment<T> {
    value: Option<T>,
}
wire_struct!(ScalarFragment<T> { value });

impl<T> ScalarFragment<T>
where
    T: Clone + Default + Wire + 'static,
{
    /// Read the value, if held locally.
    pub fn get(&self) -> Option<&T> {
        self.value.as_ref()
    }

    /// Write the value. Returns `false` when the fragment covers nothing.
    pub fn set(&mut self, v: T) -> bool {
        if self.value.is_some() {
            self.value = Some(v);
            true
        } else {
            false
        }
    }
}

impl<T> Fragment for ScalarFragment<T>
where
    T: Clone + Default + Wire + 'static,
{
    type Region = UnitRegion;

    fn empty() -> Self {
        ScalarFragment { value: None }
    }

    fn alloc(region: &UnitRegion) -> Self {
        ScalarFragment {
            value: region.contains_element().then(T::default),
        }
    }

    fn region(&self) -> UnitRegion {
        if self.value.is_some() {
            UnitRegion::FULL
        } else {
            UnitRegion::empty()
        }
    }

    fn extract(&self, region: &UnitRegion) -> Self {
        ScalarFragment {
            value: if region.contains_element() {
                self.value.clone()
            } else {
                None
            },
        }
    }

    fn insert(&mut self, other: &Self) {
        if other.value.is_some() {
            self.value = other.value.clone();
        }
    }

    fn remove(&mut self, region: &UnitRegion) {
        if region.contains_element() {
            self.value = None;
        }
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<T>() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    fn oracle(r: &UnitRegion) -> BTreeSet<()> {
        if r.contains_element() {
            [()].into_iter().collect()
        } else {
            BTreeSet::new()
        }
    }

    #[test]
    fn unit_region_laws() {
        let cases = [UnitRegion::empty(), UnitRegion::FULL];
        for a in &cases {
            for b in &cases {
                check_laws(a, b, oracle);
            }
        }
    }

    #[test]
    fn scalar_fragment_round_trip() {
        let mut f = ScalarFragment::<f64>::alloc(&UnitRegion::FULL);
        assert_eq!(f.get(), Some(&0.0));
        assert!(f.set(42.0));
        let piece = f.extract(&UnitRegion::FULL);
        let mut g = ScalarFragment::<f64>::empty();
        assert!(!g.set(1.0), "uncovered fragment rejects writes");
        g.insert(&piece);
        assert_eq!(g.get(), Some(&42.0));
        g.remove(&UnitRegion::FULL);
        assert!(g.get().is_none());
        assert!(g.region().is_empty());
    }

    #[test]
    fn empty_extract_carries_nothing() {
        let mut f = ScalarFragment::<u32>::alloc(&UnitRegion::FULL);
        f.set(7);
        let none = f.extract(&UnitRegion::empty());
        assert!(none.get().is_none());
    }
}
