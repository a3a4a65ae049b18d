//! The directory: which data items exist and who advertises what part
//! of each — the index (hierarchical, or the central ablation) behind
//! the location cache. Creating, destroying and reviving an item happen
//! here and only here, in the directory, the index and every locality's
//! data item manager at once.

use allscale_des::SimTime;
use allscale_trace::EventKind;

use super::{trace_instant, Locality, RtWorld};
use crate::dynamic::{DynRegion, ItemDescriptor};
use crate::index::{CentralIndex, DistIndex, Hop};
use crate::loc_cache::{CacheStats, LocationCache, SharedResolution};
use crate::task::{ItemId, ItemTable};

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
    /// Every item ever created (since the last full restart), by id: its
    /// type, and whether it is live. A destroyed item keeps its type: a
    /// recovery to a checkpoint taken before the destruction brings it
    /// back ([`Directory::revive`]).
    items: ItemTable<(ItemDescriptor, bool)>,
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
            items: ItemTable::default(),
        }
    }

    /// Register an item of `desc`'s type under `item` here, in the index
    /// and at every locality: a creation, or a revival.
    fn register(&mut self, localities: &mut [Locality], item: ItemId, desc: ItemDescriptor) {
        self.index
            .register_item(item, (desc.empty_region)().as_ref());
        for loc in localities {
            loc.dim.register(item, desc.clone());
        }
        self.items.insert(item, (desc, true));
    }

    /// Destroy `item` at every locality, in the index and in the location
    /// cache, keeping its type for a revival.
    fn destroy(&mut self, localities: &mut [Locality], item: ItemId) {
        for loc in localities {
            loc.dim.destroy(item);
        }
        self.index.remove_item(item);
        self.loc_cache.forget(item);
        if let Some((_, live)) = self.items.get_mut(item) {
            *live = false;
        }
    }

    /// Register the destroyed `item` again under its id, everywhere. A
    /// live item is left alone.
    pub(super) fn revive(&mut self, localities: &mut [Locality], item: ItemId) {
        if let Some((desc, false)) = self.items.get(item) {
            let desc = desc.clone();
            self.register(localities, item, desc);
        }
    }

    /// The live items, ascending.
    pub(super) fn items(&self) -> Vec<ItemId> {
        let live = self.items.iter().filter(|(_, (_, live))| *live);
        live.map(|(item, _)| item).collect()
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

/// Create an item of `desc`'s type under the next id (paper action
/// `create`): in the directory, the index and every locality's data item
/// manager. No data is allocated — allocation happens on first touch.
pub(super) fn create_item(w: &mut RtWorld, now: SimTime, desc: ItemDescriptor) -> ItemId {
    let d = &mut w.directory;
    let item = d.items.next_id();
    d.register(&mut w.localities, item, desc);
    // Items are created (and destroyed) by the phase driver, which runs
    // on the detector host — not on a locality that may be dead.
    let host = w.recovery.detector_host();
    trace_instant(w, now, host, EventKind::ItemCreate { item: item.0 });
    item
}

/// Destroy `item` everywhere (paper action `destroy`).
pub(super) fn destroy_item(w: &mut RtWorld, now: SimTime, item: ItemId) {
    w.directory.destroy(&mut w.localities, item);
    let host = w.recovery.detector_host();
    trace_instant(w, now, host, EventKind::ItemDestroy { item: item.0 });
}

/// After a recovery: point the index at the restored data, or — on a
/// full restart, when nothing was restored — forget every item
/// everywhere so the replayed driver creates them afresh from id 0.
pub(super) fn reset_for_recovery(w: &mut RtWorld, restored: bool) {
    if restored {
        return readvertise(w);
    }
    for item in w.directory.items() {
        w.directory.destroy(&mut w.localities, item);
    }
    w.directory.items = ItemTable::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_region::{BoxRegion, Region};

    use crate::facade::GridItem;
    use crate::runtime::{RtConfig, RtCtx, Runtime};

    /// `destroy` must remove the item from whichever index is active: a
    /// central directory that kept the entry would go on resolving a
    /// destroyed item to owners that hold nothing. A revived item takes
    /// its id back, ascending in `items()`, at every locality; a full
    /// restart forgets every item, so ids start over at 0.
    #[test]
    fn destroyed_item_no_longer_resolves_under_either_index() {
        for central in [false, true] {
            let mut rt = Runtime::new(RtConfig {
                central_index: central,
                ..RtConfig::test(2, 1)
            });
            let w = &mut rt.sim.world;
            let create = |w: &mut RtWorld| {
                create_item(
                    w,
                    SimTime::ZERO,
                    ItemDescriptor::of::<GridItem<f64, 1>>("g"),
                )
            };
            let ids: Vec<ItemId> = (0..3).map(|_| create(w)).collect();
            let item = ids[1];
            let all = BoxRegion::<1>::cuboid([0], [8]);
            w.directory
                .index
                .update_leaf(item, 1, Box::new(all.clone()));
            let resolve = |d: &Directory| match &d.index {
                IndexImpl::Dist(idx) => idx.resolve(item, 0, &all).0,
                IndexImpl::Central(idx) => idx.resolve(item, 0, &all).0,
            };
            assert_eq!(
                resolve(&w.directory).len(),
                1,
                "central={central}: owner 1 advertised"
            );
            destroy_item(w, SimTime::ZERO, item);
            assert!(
                resolve(&w.directory).is_empty(),
                "central={central}: a destroyed item still resolves"
            );
            assert_eq!(w.directory.items(), [ids[0], ids[2]]);
            w.directory.revive(&mut w.localities, item);
            w.directory.revive(&mut w.localities, ids[2]); // live: left alone
            assert_eq!(w.directory.items(), ids);
            assert!(w.localities[0].dim.owned_region(item).is_empty_dyn());
            reset_for_recovery(w, false);
            assert!(w.directory.items().is_empty());
            assert_eq!(create(w), ItemId(0));
        }
    }

    /// Check 2 of `verify_consistency`, wording included: one index leaf
    /// advertises what its locality's data item manager does not own.
    #[test]
    fn desynchronised_index_leaf_is_reported_on_one_line() {
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
