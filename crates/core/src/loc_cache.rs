//! A per-locality location cache in front of the hierarchical data index.
//!
//! Region location resolution ([`DistIndex::resolve`], paper Algorithm 1)
//! is the hot path of data-aware scheduling: the scheduler consults it for
//! every requirement of every task it places (Algorithm 2 lines 4/7) and
//! the transfer planner consults it again for every migration and
//! replication it stages. Each consultation is a full tree traversal with
//! region-algebra allocations plus O(log P) billed control messages.
//! HPX-family runtimes keep exactly this lookup off the critical path with
//! locality caches in their AGAS / data-item-manager layers; this module
//! is that cache for our runtime.
//!
//! ## Design
//!
//! The cache memoizes full resolutions keyed by `(item, start locality,
//! region fingerprint)`. Keying by the *start* locality makes one shared
//! instance behave exactly like one private cache per locality (entries
//! never leak between starting points, matching what a real distributed
//! deployment could maintain locally), while keeping the simulation state
//! in one place. Candidate hits are confirmed with a real region equality
//! check, so fingerprint collisions degrade to misses rather than wrong
//! answers.
//!
//! ## Epoch invalidation
//!
//! Every mutation of an item's distribution — first-touch allocation,
//! migration, checkpoint restore: anything that calls
//! `DistIndex::update_leaf` — must bump the item's *epoch* via
//! [`LocationCache::bump`]. Entries record the epoch they were filled
//! under and are dropped lazily when looked up under a newer epoch. This
//! preserves the paper's *satisfied requirements* and *exclusive writes*
//! properties: a cached resolution can never report a pre-migration owner,
//! because the migration bumped the epoch before any subsequent lookup.
//!
//! Hits are free of control messages (the whole point); misses fall
//! through to the index and pay the traversal's hops. Hit/miss/
//! invalidation counts and the hops saved by hits are tallied in
//! [`CacheStats`] and surfaced through the runtime [`Monitor`].
//!
//! [`DistIndex::resolve`]: crate::index::DistIndex::resolve
//! [`Monitor`]: crate::monitor::Monitor

use std::collections::HashMap;
use std::rc::Rc;

use crate::dynamic::DynRegion;
use crate::index::{DistIndex, Hop, Piece};
use crate::task::ItemId;

/// A memoized resolution, shared between the cache and everyone it was
/// handed to: a hit clones the handle, never the pieces.
pub type SharedResolution = Rc<[Piece]>;

allscale_des::stat_struct! {
    /// Counters describing the cache's effectiveness over a run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Lookups answered from the cache (no index traversal, no hops).
        pub hits: u64,
        /// Lookups that fell through to the index.
        pub misses: u64,
        /// Entries dropped because their item's epoch had moved on.
        pub invalidations: u64,
        /// Control-message hops avoided by hits (each hit saves the hop count
        /// the original miss paid).
        pub saved_hops: u64,
    }
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    /// The item epoch this resolution was computed under.
    epoch: u64,
    /// The exact region that was resolved (collision guard).
    region: Box<dyn DynRegion>,
    /// The memoized resolution.
    pieces: SharedResolution,
    /// Hops the uncached resolution cost (saved-hop accounting).
    hops: usize,
}

/// Memoizes [`DistIndex`] resolutions with epoch-based invalidation. See
/// the module docs for the protocol.
pub struct LocationCache {
    /// Per-item generation counter, indexed by item id (ids are dense);
    /// bumped on every distribution change, 0 where never bumped.
    epochs: Vec<u64>,
    entries: HashMap<(ItemId, usize, u64), Entry>,
    capacity: usize,
    stats: CacheStats,
}

impl LocationCache {
    /// Default entry capacity — plenty for the per-phase working sets the
    /// scheduler produces, small enough to be irrelevant in memory terms.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A cache bounded to `capacity` entries. When an insert would exceed
    /// the bound, stale-epoch entries are purged first; if that does not
    /// make room the cache is cleared wholesale — it is a performance
    /// device, never a correctness dependency.
    pub fn with_capacity(capacity: usize) -> Self {
        LocationCache {
            epochs: Vec::new(),
            entries: HashMap::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// The current epoch of `item` (0 until first bumped).
    pub fn epoch(&self, item: ItemId) -> u64 {
        self.epochs.get(item.0 as usize).copied().unwrap_or(0)
    }

    /// Record a distribution change of `item`: all cached resolutions of
    /// it become stale and will be dropped lazily on their next lookup.
    /// Must be called alongside every `DistIndex::update_leaf`.
    pub fn bump(&mut self, item: ItemId) {
        let i = item.0 as usize;
        if self.epochs.len() <= i {
            self.epochs.resize(i + 1, 0);
        }
        self.epochs[i] += 1;
    }

    /// Forget everything about `item` (its epoch and all entries) — the
    /// `destroy` path. A later item with a recycled id starts fresh.
    pub fn forget(&mut self, item: ItemId) {
        if let Some(epoch) = self.epochs.get_mut(item.0 as usize) {
            *epoch = 0;
        }
        self.entries.retain(|&(it, _, _), _| it != item);
    }

    /// Number of live entries (stale ones included until evicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all entries (epochs and stats survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Resolve `region` of `item` from locality `start` through the cache:
    /// a hit returns the memoized resolution with **no hops** (no control
    /// messages are needed); a miss runs [`DistIndex::resolve`], memoizes
    /// the answer, and returns its hops for billing.
    ///
    /// A hit is the fingerprint, one probe of the entry map, the equality
    /// check and a reference-count increment; it allocates nothing.
    pub fn resolve(
        &mut self,
        index: &DistIndex,
        item: ItemId,
        start: usize,
        region: &dyn DynRegion,
    ) -> (SharedResolution, Vec<Hop>) {
        let key = (item, start, region.fingerprint_dyn());
        let epoch = self.epoch(item);
        match self.entries.get(&key) {
            Some(e) if e.epoch != epoch => {
                self.entries.remove(&key);
                self.stats.invalidations += 1;
            }
            Some(e) if e.region.eq_dyn(region) => {
                self.stats.hits += 1;
                self.stats.saved_hops += e.hops as u64;
                return (Rc::clone(&e.pieces), Vec::new());
            }
            // Absent, or a fingerprint collision with a different region:
            // a miss; the fresh entry below overwrites a colliding one.
            _ => {}
        }
        self.stats.misses += 1;
        let (pieces, hops) = index.resolve(item, start, region);
        let pieces: SharedResolution = pieces.into();
        self.make_room();
        self.entries.insert(
            key,
            Entry {
                epoch,
                region: region.clone_box(),
                pieces: Rc::clone(&pieces),
                hops: hops.len(),
            },
        );
        (pieces, hops)
    }

    /// Ensure one more entry fits: purge stale-epoch entries first, then
    /// fall back to clearing everything.
    fn make_room(&mut self) {
        if self.entries.len() < self.capacity {
            return;
        }
        let epochs = &self.epochs;
        self.entries
            .retain(|&(it, _, _), e| e.epoch == epochs.get(it.0 as usize).copied().unwrap_or(0));
        if self.entries.len() >= self.capacity {
            self.entries.clear();
        }
    }
}

impl Default for LocationCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::sole_owner_from;
    use allscale_region::{BoxRegion, Region};

    fn r1(lo: i64, hi: i64) -> BoxRegion<1> {
        BoxRegion::cuboid([lo], [hi])
    }

    /// [0, 8·k) row-blocks over `procs` processes, one block each.
    fn populated(procs: usize, k: i64) -> (DistIndex, ItemId) {
        let item = ItemId(0);
        let mut idx = DistIndex::new(procs);
        idx.register_item(item, &BoxRegion::<1>::empty());
        for p in 0..procs {
            let lo = p as i64 * k;
            idx.update_leaf(item, p, Box::new(r1(lo, lo + k)));
        }
        (idx, item)
    }

    #[test]
    fn repeat_resolution_hits_and_saves_hops() {
        let (idx, item) = populated(8, 10);
        let mut cache = LocationCache::new();
        let q = r1(0, 10);
        // p7 asks for p0's block: the miss pays the escalation hops …
        let (m1, h1) = cache.resolve(&idx, item, 7, &q);
        assert_eq!(m1.len(), 1);
        assert_eq!(m1[0].1, 0);
        assert_eq!(h1.len(), 3);
        // … the hit pays none and returns the identical pieces.
        let (m2, h2) = cache.resolve(&idx, item, 7, &q);
        assert!(h2.is_empty());
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0].1, 0);
        assert!(m2[0].0.eq_dyn(m1[0].0.as_ref()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.saved_hops), (1, 1, 3));
    }

    #[test]
    fn entries_are_per_start_locality() {
        let (idx, item) = populated(8, 10);
        let mut cache = LocationCache::new();
        let q = r1(30, 40);
        cache.resolve(&idx, item, 2, &q);
        // Same query from another locality is a distinct entry (its hop
        // path differs), so this is a miss, not a cross-locality hit.
        cache.resolve(&idx, item, 7, &q);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bump_invalidates_lazily() {
        let (mut idx, item) = populated(4, 10);
        let mut cache = LocationCache::new();
        let q = r1(30, 40);
        let (m, _) = cache.resolve(&idx, item, 1, &q);
        assert_eq!(m[0].1, 3);
        // Migrate p3's block to p0; epoch bump makes the entry stale.
        idx.update_leaf(item, 3, Box::new(BoxRegion::<1>::empty()));
        cache.bump(item);
        idx.update_leaf(item, 0, Box::new(r1(0, 10).union(&r1(30, 40))));
        cache.bump(item);
        let (m2, _) = cache.resolve(&idx, item, 1, &q);
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0].1, 0, "stale owner must not be served");
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn sole_owner_through_cache_matches_index() {
        let (idx, item) = populated(8, 10);
        let mut cache = LocationCache::new();
        let mut sole_owner = |region: &BoxRegion<1>| {
            let (pieces, hops) = cache.resolve(&idx, item, 2, region);
            (sole_owner_from(region, &pieces), hops)
        };
        let (o1, h1) = sole_owner(&r1(30, 40));
        assert_eq!(o1, Some(3));
        assert!(!h1.is_empty());
        let (o2, h2) = sole_owner(&r1(30, 40));
        assert_eq!(o2, Some(3));
        assert!(h2.is_empty(), "second answer comes from the cache");
        assert_eq!(sole_owner(&r1(30, 45)).0, None);
        assert_eq!(sole_owner(&BoxRegion::<1>::empty()).0, None);
    }

    #[test]
    fn forget_drops_epoch_and_entries() {
        let (idx, item) = populated(4, 10);
        let mut cache = LocationCache::new();
        cache.resolve(&idx, item, 0, &r1(0, 10));
        cache.bump(item);
        assert_eq!(cache.epoch(item), 1);
        cache.forget(item);
        assert_eq!(cache.epoch(item), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let (idx, item) = populated(4, 10);
        let mut cache = LocationCache::with_capacity(8);
        for i in 0..50 {
            cache.resolve(&idx, item, (i % 4) as usize, &r1(i, i + 1));
        }
        assert!(cache.len() <= 8, "capacity exceeded: {}", cache.len());
    }

    #[test]
    fn unregistered_item_resolves_to_nothing_through_cache() {
        let idx = DistIndex::new(4);
        let mut cache = LocationCache::new();
        let (m, hops) = cache.resolve(&idx, ItemId(42), 1, &r1(0, 10));
        assert!(m.is_empty());
        assert!(hops.is_empty());
    }
}
