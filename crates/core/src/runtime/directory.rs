//! The directory: which data items exist and who advertises what part
//! of each — the index (hierarchical, or the central ablation) behind
//! the location cache.

use std::collections::{BTreeMap, BTreeSet};

use allscale_des::SimTime;
use allscale_trace::EventKind;

use super::{trace_instant, RtWorld};
use crate::dynamic::{DynRegion, ItemDescriptor};
use crate::index::{CentralIndex, DistIndex, Hop};
use crate::loc_cache::{CacheStats, LocationCache, SharedResolution};
use crate::task::ItemId;

/// Either index implementation (experiment A1 toggles them).
enum IndexImpl {
    Dist(DistIndex),
    Central(CentralIndex),
}

impl IndexImpl {
    fn register_item(&mut self, item: ItemId, empty: &dyn DynRegion) {
        match self {
            IndexImpl::Dist(i) => i.register_item(item, empty),
            IndexImpl::Central(i) => i.register_item(item, empty),
        }
    }
    fn remove_item(&mut self, item: ItemId) {
        match self {
            IndexImpl::Dist(i) => i.remove_item(item),
            IndexImpl::Central(i) => i.remove_item(item),
        }
    }
    fn update_leaf(&mut self, item: ItemId, p: usize, region: Box<dyn DynRegion>) -> Vec<Hop> {
        match self {
            IndexImpl::Dist(i) => i.update_leaf(item, p, region),
            IndexImpl::Central(i) => i.update_leaf(item, p, region),
        }
    }
}

pub(super) struct Directory {
    index: IndexImpl,
    /// Location cache in front of the hierarchical index (keyed by start
    /// locality, so it behaves as one private cache per locality). Unused
    /// when the central-directory ablation is active.
    loc_cache: LocationCache,
    /// The items created and not yet destroyed.
    live: BTreeSet<ItemId>,
    /// The types of the destroyed items: a recovery to a checkpoint taken
    /// before the destruction brings them back ([`Directory::revive`]).
    graves: BTreeMap<ItemId, ItemDescriptor>,
    next_item: u32,
}

impl Directory {
    pub(super) fn new(central: bool, nodes: usize) -> Self {
        Directory {
            index: if central {
                IndexImpl::Central(CentralIndex::new(nodes))
            } else {
                IndexImpl::Dist(DistIndex::new(nodes))
            },
            loc_cache: LocationCache::new(),
            live: BTreeSet::new(),
            graves: BTreeMap::new(),
            next_item: 0,
        }
    }

    /// Allocate the next item id and register an item of `desc`'s type
    /// under it.
    pub(super) fn create(&mut self, desc: &ItemDescriptor) -> ItemId {
        let id = ItemId(self.next_item);
        self.next_item += 1;
        self.index.register_item(id, (desc.empty_region)().as_ref());
        self.live.insert(id);
        id
    }

    pub(super) fn destroy(&mut self, item: ItemId) {
        self.index.remove_item(item);
        self.loc_cache.forget(item);
        self.live.remove(&item);
    }

    /// [`Directory::destroy`], keeping the item's type for a revival.
    pub(super) fn bury(&mut self, item: ItemId, desc: Option<ItemDescriptor>) {
        self.destroy(item);
        if let Some(desc) = desc {
            self.graves.insert(item, desc);
        }
    }

    /// Register the destroyed `item` again under its id and return its
    /// type; `None` when it was not destroyed.
    pub(super) fn revive(&mut self, item: ItemId) -> Option<ItemDescriptor> {
        let desc = self.graves.remove(&item)?;
        self.index.register_item(item, (desc.empty_region)().as_ref());
        self.live.insert(item);
        Some(desc)
    }

    pub(super) fn items(&self) -> Vec<ItemId> {
        self.live.iter().copied().collect()
    }

    /// The region locality `p` advertises for `item` in the hierarchical
    /// index (`None` under the central ablation, which keeps no leaves).
    pub(super) fn advertised_leaf(&self, item: ItemId, p: usize) -> Option<&dyn DynRegion> {
        match &self.index {
            IndexImpl::Dist(idx) => Some(idx.leaf_region(item, p)),
            IndexImpl::Central(_) => None,
        }
    }

    pub(super) fn cache_stats(&self) -> CacheStats {
        self.loc_cache.stats()
    }
}

/// Resolve `region` of `item` from locality `at`, going through the
/// location cache when the hierarchical index is active: hits cost no
/// control messages, misses pay Algorithm 1's traversal hops. The lookup
/// (and its hops) is counted in the monitor either way; billing the hops
/// on the network stays with the caller.
pub(super) fn index_resolve(
    w: &mut RtWorld,
    now: SimTime,
    item: ItemId,
    at: usize,
    region: &dyn DynRegion,
) -> (SharedResolution, Vec<Hop>) {
    let d = &mut w.directory;
    let (pieces, hops) = match &d.index {
        IndexImpl::Dist(idx) => d.loc_cache.resolve(idx, item, at, region),
        IndexImpl::Central(idx) => {
            let (pieces, hops) = idx.resolve(item, at, region);
            (pieces.into(), hops)
        }
    };
    w.monitor.index_lookups += 1;
    w.monitor.index_lookup_hops += hops.len() as u64;
    trace_instant(
        w,
        now,
        at,
        EventKind::IndexLookup {
            item: item.0,
            hops: hops.len() as u32,
            cache_hit: hops.is_empty(),
        },
    );
    (pieces, hops)
}

/// Write locality `p`'s leaf of `item` in the index from what its data
/// item manager advertises — the one writer of leaves — invalidating the
/// item's cached resolutions (epoch bump) *before* the update becomes
/// visible: the cache must never serve a pre-update owner.
fn write_leaf(w: &mut RtWorld, item: ItemId, p: usize) -> Vec<Hop> {
    w.directory.loc_cache.bump(item);
    let leaf = w.localities[p].dim.advertised_region(item);
    w.directory.index.update_leaf(item, p, leaf)
}

/// Re-advertise locality `p`'s region of `item` in the index after its
/// data item manager changed it. Counts the propagation hops in the
/// monitor; billing stays with the caller.
pub(super) fn index_update(w: &mut RtWorld, now: SimTime, item: ItemId, p: usize) -> Vec<Hop> {
    let hops = write_leaf(w, item, p);
    w.monitor.index_update_hops += hops.len() as u64;
    trace_instant(
        w,
        now,
        p,
        EventKind::IndexUpdate {
            item: item.0,
            hops: hops.len() as u32,
        },
    );
    hops
}

/// Re-advertise every locality's region of every item after the data
/// plane was rewritten out of band (a restore). Not billed, counted or
/// traced.
pub(super) fn readvertise(w: &mut RtWorld) {
    for item in w.directory.items() {
        for p in 0..w.localities.len() {
            write_leaf(w, item, p);
        }
    }
}

/// After a recovery: point the index at the restored data, or — on a
/// full restart, when nothing was restored — forget every item so the
/// replayed driver creates them afresh from id 0.
pub(super) fn reset_for_recovery(w: &mut RtWorld, restored: bool) {
    if restored {
        return readvertise(w);
    }
    for item in w.directory.items() {
        w.directory.destroy(item);
    }
    w.directory.graves.clear();
    w.directory.next_item = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_region::{BoxRegion, Region};

    /// `destroy` must remove the item from whichever index is active: a
    /// central directory that kept the entry would go on resolving a
    /// destroyed item to owners that hold nothing.
    #[test]
    fn destroyed_item_no_longer_resolves_under_either_index() {
        for central in [false, true] {
            let mut d = Directory::new(central, 2);
            let item = d.create(&ItemDescriptor::of::<crate::facade::GridItem<f64, 1>>("g"));
            let all = BoxRegion::<1>::cuboid([0], [8]);
            d.index.update_leaf(item, 1, Box::new(all.clone()));
            let resolve = |d: &Directory| match &d.index {
                IndexImpl::Dist(idx) => idx.resolve(item, 0, &all).0,
                IndexImpl::Central(idx) => idx.resolve(item, 0, &all).0,
            };
            assert_eq!(
                resolve(&d).len(),
                1,
                "central={central}: owner 1 advertised"
            );
            d.destroy(item);
            assert!(
                resolve(&d).is_empty(),
                "central={central}: a destroyed item still resolves"
            );
        }
    }

    /// Check 2 of `verify_consistency`, wording included: one index leaf
    /// advertises what its locality's data item manager does not own.
    #[test]
    fn desynchronised_index_leaf_is_reported_on_one_line() {
        use crate::runtime::{RtConfig, RtCtx, Runtime};
        let mut rt = Runtime::new(RtConfig::test(2, 1));
        let mut ctx = RtCtx {
            world: &mut rt.sim.world,
            now: SimTime::ZERO,
        };
        let item = ctx.create_item::<crate::facade::GridItem<f64, 1>>("g");
        assert!(ctx.verify_consistency().is_empty());
        let stray = BoxRegion::<1>::cuboid([0], [8]);
        let index = &mut ctx.world.directory.index;
        index.update_leaf(item, 1, Box::new(stray.clone()));
        let owned = BoxRegion::<1>::empty();
        assert_eq!(
            ctx.verify_consistency(),
            [format!(
                "item {item:?}: index leaf of locality 1 disagrees with DIM \
                 (index {stray:?} vs owned {owned:?})"
            )]
        );
    }
}
