//! Conformance of the cached resolution path to the uncached index and to
//! the formal model's ground truth.
//!
//! The location cache sits in front of `DistIndex::resolve` on the hot
//! path of data-aware scheduling. Correctness demands (paper Section 2.5,
//! *satisfied requirements* / *exclusive writes*) that a cached answer is
//! indistinguishable from a fresh traversal: this suite drives randomized
//! create/migrate/resolve/destroy interleavings and asserts, on every
//! single resolution, that
//!
//! - the cached `DistIndex` resolution equals the `CentralIndex`
//!   resolution and an explicit per-process owner-table oracle (zero
//!   divergence);
//! - no resolution ever reports a pre-migration owner (no stale reads);
//! - the hops a cached resolution bills never exceed the uncached
//!   traversal's hops (hits are free, misses pay exactly the traversal).
//!
//! A directed end-to-end test additionally checks that a real `Runtime`
//! run populates the cache counters in the `RunReport`, and a lenient
//! timing smoke test guards the cache's reason to exist (the criterion
//! bench `index_resolution` carries the real numbers).
//!
//! Its `World` is the one index-level model, kept beside the program
//! family of `tests/common/family.rs` on purpose: it drives the index,
//! the location cache and the central directory directly, below the
//! runtime, a level no compiled program reaches (DESIGN.md §7).

use std::collections::BTreeMap;

use allscale_core::{CentralIndex, DistIndex, DynRegion, ItemId, LocationCache};
use allscale_region::{BoxRegion, Region};

// ---------------------------------------------------------------- utilities

/// Deterministic xorshift64 PRNG — the shared kernel, stream-compatible
/// with the copy this harness historically inlined (seeds recorded in
/// assertions keep reproducing).
use allscale_des::rng::XorShift64 as XorShift;

fn r1(lo: i64, hi: i64) -> BoxRegion<1> {
    BoxRegion::cuboid([lo], [hi])
}

/// Region equality robust to internal box decomposition.
fn same_region(a: &BoxRegion<1>, b: &BoxRegion<1>) -> bool {
    a.difference(b).is_empty() && b.difference(a).is_empty()
}

/// Collapse a resolution's pieces into a per-host coverage map.
fn coverage(pieces: &[(Box<dyn DynRegion>, usize)]) -> BTreeMap<usize, BoxRegion<1>> {
    let mut cov: BTreeMap<usize, BoxRegion<1>> = BTreeMap::new();
    for (piece, host) in pieces {
        let b = piece
            .as_any()
            .downcast_ref::<BoxRegion<1>>()
            .expect("1-D box region")
            .clone();
        let entry = cov.entry(*host).or_insert_with(BoxRegion::empty);
        *entry = entry.union(&b);
    }
    cov.retain(|_, r| !r.is_empty());
    cov
}

fn assert_same_coverage(
    got: &BTreeMap<usize, BoxRegion<1>>,
    want: &BTreeMap<usize, BoxRegion<1>>,
    what: &str,
    ctx: &str,
) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{what}: owner sets diverge ({ctx})"
    );
    for (host, w) in want {
        assert!(
            same_region(&got[host], w),
            "{what}: host {host} coverage diverges ({ctx}): got {:?}, want {w:?}",
            got[host]
        );
    }
}

// ------------------------------------------- the cache as it was: an oracle

/// `LocationCache` as it was before hits became one probe handing out a
/// shared resolution (three map lookups, a deep clone per hit). Hits and
/// misses are billed hops and epoch invalidations are reported, so the
/// rewritten cache must take the same branch on every single call. Kept
/// verbatim as the oracle; do not "tidy" it.
mod pre_change {
    use std::collections::HashMap;

    use allscale_core::index::{Hop, Resolution};
    use allscale_core::{CacheStats, DistIndex, DynRegion, ItemId};

    struct Entry {
        epoch: u64,
        region: Box<dyn DynRegion>,
        pieces: Resolution,
        hops: usize,
    }

    pub struct LocationCache {
        epochs: HashMap<ItemId, u64>,
        entries: HashMap<(ItemId, usize, u64), Entry>,
        capacity: usize,
        stats: CacheStats,
    }

    impl LocationCache {
        pub fn with_capacity(capacity: usize) -> Self {
            LocationCache {
                epochs: HashMap::new(),
                entries: HashMap::new(),
                capacity: capacity.max(1),
                stats: CacheStats::default(),
            }
        }

        pub fn epoch(&self, item: ItemId) -> u64 {
            self.epochs.get(&item).copied().unwrap_or(0)
        }

        pub fn bump(&mut self, item: ItemId) {
            *self.epochs.entry(item).or_insert(0) += 1;
        }

        pub fn forget(&mut self, item: ItemId) {
            self.epochs.remove(&item);
            self.entries.retain(|&(it, _, _), _| it != item);
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn resolve(
            &mut self,
            index: &DistIndex,
            item: ItemId,
            start: usize,
            region: &dyn DynRegion,
        ) -> (Resolution, Vec<Hop>) {
            let key = (item, start, region.fingerprint_dyn());
            let epoch = self.epoch(item);
            let stale = matches!(self.entries.get(&key), Some(e) if e.epoch != epoch);
            if stale {
                self.entries.remove(&key);
                self.stats.invalidations += 1;
            }
            if let Some(e) = self.entries.get(&key) {
                if e.region.eq_dyn(region) {
                    let pieces = e.pieces.clone();
                    let saved = e.hops as u64;
                    self.stats.hits += 1;
                    self.stats.saved_hops += saved;
                    return (pieces, Vec::new());
                }
                // Fingerprint collision with a different region: treat as a
                // miss; the fresh entry below overwrites the colliding one.
            }
            self.stats.misses += 1;
            let (pieces, hops) = index.resolve(item, start, region);
            self.make_room();
            self.entries.insert(
                key,
                Entry {
                    epoch,
                    region: region.clone_box(),
                    pieces: pieces.clone(),
                    hops: hops.len(),
                },
            );
            (pieces, hops)
        }

        fn make_room(&mut self) {
            if self.entries.len() < self.capacity {
                return;
            }
            let epochs = &self.epochs;
            self.entries
                .retain(|&(it, _, _), e| e.epoch == epochs.get(&it).copied().unwrap_or(0));
            if self.entries.len() >= self.capacity {
                self.entries.clear();
            }
        }
    }
}

/// Small enough that the random programs fill it: purges and wholesale
/// clears are part of what must not move.
const CACHE_CAPACITY: usize = 48;

// ------------------------------------------------------- the random driver

const DOMAIN_BLOCKS: i64 = 16;
const BLOCK: i64 = 40;
const DOMAIN: i64 = DOMAIN_BLOCKS * BLOCK;

/// The system under test (cached `DistIndex`), the ablation baseline
/// (`CentralIndex`), and an explicit owner-table oracle, kept in lockstep
/// under the same mutation protocol the runtime uses (`bump` before leaf
/// updates, `forget` on destroy).
struct World {
    procs: usize,
    dist: DistIndex,
    central: CentralIndex,
    cache: LocationCache,
    /// The pre-change cache, driven in lockstep with `cache`.
    old_cache: pre_change::LocationCache,
    /// Ground truth: per live item, the region each process owns.
    owned: BTreeMap<ItemId, Vec<BoxRegion<1>>>,
    next_item: u32,
    resolutions: u64,
}

impl World {
    fn new(procs: usize) -> Self {
        World {
            procs,
            dist: DistIndex::new(procs),
            central: CentralIndex::new(procs),
            cache: LocationCache::with_capacity(CACHE_CAPACITY),
            old_cache: pre_change::LocationCache::with_capacity(CACHE_CAPACITY),
            owned: BTreeMap::new(),
            next_item: 0,
            resolutions: 0,
        }
    }

    /// Mirror one leaf update into both indices, bumping the epoch first —
    /// the same order `runtime::index_update` uses.
    fn update_leaf(&mut self, item: ItemId, p: usize, region: &BoxRegion<1>) {
        self.cache.bump(item);
        self.old_cache.bump(item);
        self.dist.update_leaf(item, p, Box::new(region.clone()));
        self.central.update_leaf(item, p, Box::new(region.clone()));
    }

    /// Create an item with a random block distribution over `[0, DOMAIN)`.
    fn create(&mut self, rng: &mut XorShift) {
        let item = ItemId(self.next_item);
        self.next_item += 1;
        self.dist.register_item(item, &BoxRegion::<1>::empty());
        self.central.register_item(item, &BoxRegion::<1>::empty());
        let mut owned = vec![BoxRegion::<1>::empty(); self.procs];
        for blk in 0..DOMAIN_BLOCKS {
            let p = rng.below(self.procs as u64) as usize;
            owned[p] = owned[p].union(&r1(blk * BLOCK, (blk + 1) * BLOCK));
        }
        for (p, region) in owned.iter().enumerate() {
            if !region.is_empty() {
                let region = region.clone();
                self.update_leaf(item, p, &region);
            }
        }
        self.owned.insert(item, owned);
    }

    /// Migrate a random sub-region of a random process's holdings of a
    /// random live item to another process.
    fn migrate(&mut self, rng: &mut XorShift) {
        let Some(item) = self.pick_item(rng) else { return };
        let src = rng.below(self.procs as u64) as usize;
        let dst = rng.below(self.procs as u64) as usize;
        let q = random_interval(rng);
        let moved = self.owned[&item][src].intersect(&q);
        if src == dst || moved.is_empty() {
            return;
        }
        let table = self.owned.get_mut(&item).expect("live item");
        table[src] = table[src].difference(&moved);
        table[dst] = table[dst].union(&moved);
        let (new_src, new_dst) = (table[src].clone(), table[dst].clone());
        self.update_leaf(item, src, &new_src);
        self.update_leaf(item, dst, &new_dst);
    }

    /// Destroy a random live item. `CentralIndex` has no removal (the
    /// directory keeps a registered slot), so its leaves are emptied to
    /// express the same fact; the oracle and `DistIndex` drop the item.
    fn destroy(&mut self, rng: &mut XorShift) {
        let Some(item) = self.pick_item(rng) else { return };
        for p in 0..self.procs {
            self.central
                .update_leaf(item, p, Box::new(BoxRegion::<1>::empty()));
        }
        self.dist.remove_item(item);
        self.cache.forget(item);
        self.old_cache.forget(item);
        self.owned.remove(&item);
    }

    /// Resolve a random region of a random (sometimes dead) item from a
    /// random start locality, through the cache — and assert it against
    /// the uncached index, the central directory, and the oracle.
    fn resolve_and_check(&mut self, rng: &mut XorShift, ctx: &str) {
        // 1 in 8 lookups targets an unregistered/destroyed item.
        let item = if rng.below(8) == 0 || self.owned.is_empty() {
            ItemId(self.next_item + 1 + rng.below(4) as u32)
        } else {
            self.pick_item(rng).expect("non-empty")
        };
        let start = rng.below(self.procs as u64) as usize;
        let q = random_interval(rng);

        let (cached, cached_hops) = self.cache.resolve(&self.dist, item, start, &q);
        self.check_against_pre_change(item, start, &q, &cached, &cached_hops, ctx);
        let (uncached, uncached_hops) = self.dist.resolve(item, start, &q);
        let (central, _) = self.central.resolve(item, start, &q);
        self.resolutions += 1;

        let mut want: BTreeMap<usize, BoxRegion<1>> = BTreeMap::new();
        if let Some(table) = self.owned.get(&item) {
            for (p, region) in table.iter().enumerate() {
                let c = q.intersect(region);
                if !c.is_empty() {
                    want.insert(p, c);
                }
            }
        }
        let ctx = format!("{ctx}, item {item:?}, start {start}, q {q:?}");
        assert_same_coverage(&coverage(&cached), &want, "cached vs oracle", &ctx);
        assert_same_coverage(&coverage(&uncached), &want, "uncached vs oracle", &ctx);
        assert_same_coverage(&coverage(&central), &want, "central vs oracle", &ctx);
        assert!(
            cached_hops.len() <= uncached_hops.len(),
            "cached resolution must never cost more hops ({ctx}): \
             {} cached vs {} uncached",
            cached_hops.len(),
            uncached_hops.len()
        );

        // Asked again, the (never empty) query gets the same answer; the
        // pre-change cache is asked too, so the counters stay comparable.
        let (again, _) = self.cache.resolve(&self.dist, item, start, &q);
        self.old_cache.resolve(&self.dist, item, start, &q);
        assert_eq!(self.cache.stats(), self.old_cache.stats(), "stats moved ({ctx})");
        assert_same_coverage(&coverage(&again), &want, "repeated vs oracle", &ctx);
    }

    /// Repeat on the pre-change cache the `resolve` that just returned
    /// `(pieces, hops)` and require the same answer in the same
    /// representation, the same hops, counters, epoch and occupancy.
    fn check_against_pre_change(
        &mut self,
        item: ItemId,
        start: usize,
        q: &BoxRegion<1>,
        pieces: &[(Box<dyn DynRegion>, usize)],
        hops: &[(usize, usize)],
        ctx: &str,
    ) {
        let (old_pieces, old_hops) = self.old_cache.resolve(&self.dist, item, start, q);
        let wire = |ps: &[(Box<dyn DynRegion>, usize)]| -> Vec<(Vec<u8>, usize)> {
            ps.iter().map(|(r, host)| (r.encode(), *host)).collect()
        };
        assert_eq!(wire(pieces), wire(&old_pieces), "pieces moved ({ctx})");
        assert_eq!(hops, old_hops, "hops moved ({ctx})");
        assert_eq!(self.cache.stats(), self.old_cache.stats(), "stats moved ({ctx})");
        assert_eq!(self.cache.epoch(item), self.old_cache.epoch(item), "epoch ({ctx})");
        assert_eq!(self.cache.len(), self.old_cache.len(), "occupancy moved ({ctx})");
    }

    fn pick_item(&self, rng: &mut XorShift) -> Option<ItemId> {
        if self.owned.is_empty() {
            return None;
        }
        let keys: Vec<ItemId> = self.owned.keys().copied().collect();
        Some(keys[rng.below(keys.len() as u64) as usize])
    }
}

/// Block-quantized intervals (so queries repeat and the cache actually
/// hits), with an occasional fully random or out-of-domain one.
fn random_interval(rng: &mut XorShift) -> BoxRegion<1> {
    match rng.below(8) {
        0 => {
            let lo = rng.below((DOMAIN + 40) as u64) as i64 - 20;
            let len = 1 + rng.below(120) as i64;
            r1(lo, lo + len)
        }
        _ => {
            let blk = rng.below(DOMAIN_BLOCKS as u64) as i64;
            let len_blocks = 1 << rng.below(3); // 1, 2, or 4 blocks
            r1(blk * BLOCK, (blk + len_blocks).min(DOMAIN_BLOCKS) * BLOCK)
        }
    }
}

// ------------------------------------------------------------------- tests

/// The acceptance test: ≥ 1000 randomized interleavings with zero
/// divergence between the cached path, the uncached index, the central
/// directory, and the owner-table oracle.
#[test]
fn randomized_interleavings_never_diverge() {
    let mut total_resolutions = 0u64;
    let mut total_hits = 0u64;
    let mut total_invalidations = 0u64;
    let mut evictions = false;
    for seed in 0..6u64 {
        for &procs in &[5usize, 8, 16] {
            let mut rng = XorShift::new(seed * 1000 + procs as u64);
            let mut w = World::new(procs);
            w.create(&mut rng);
            for step in 0..400 {
                let ctx = format!("seed {seed}, procs {procs}, step {step}");
                match rng.below(10) {
                    0 => w.create(&mut rng),
                    1 | 2 => w.migrate(&mut rng),
                    3 if w.owned.len() > 1 => w.destroy(&mut rng),
                    _ => w.resolve_and_check(&mut rng, &ctx),
                }
            }
            total_resolutions += w.resolutions;
            total_hits += w.cache.stats().hits;
            total_invalidations += w.cache.stats().invalidations;
            evictions |= w.cache.stats().misses > CACHE_CAPACITY as u64;
        }
    }
    assert!(
        total_resolutions >= 1000,
        "acceptance demands ≥ 1000 checked resolutions, ran {total_resolutions}"
    );
    assert!(
        total_hits > 0,
        "the schedule must actually exercise the hit path"
    );
    assert!(
        total_invalidations > 0 && evictions,
        "the schedule must exercise stale entries and a full cache"
    );
}

/// Directed stale-read regression: the exact runtime migration sequence —
/// epoch bump, then leaf updates — must make a previously cached owner
/// unobservable.
#[test]
fn migration_invalidates_cached_owner() {
    let procs = 8;
    let item = ItemId(0);
    let mut dist = DistIndex::new(procs);
    dist.register_item(item, &BoxRegion::<1>::empty());
    for p in 0..procs {
        dist.update_leaf(item, p, Box::new(r1(p as i64 * 10, p as i64 * 10 + 10)));
    }
    let mut cache = LocationCache::new();
    let q = r1(30, 40);
    // Warm the cache from every locality.
    for start in 0..procs {
        let (m, _) = cache.resolve(&dist, item, start, &q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 3);
    }
    // Migrate p3's block to p5, bumping before the updates (the protocol).
    cache.bump(item);
    dist.update_leaf(item, 3, Box::new(BoxRegion::<1>::empty()));
    cache.bump(item);
    dist.update_leaf(item, 5, Box::new(r1(30, 40).union(&r1(50, 60))));
    // No locality may see the stale owner.
    for start in 0..procs {
        let (m, _) = cache.resolve(&dist, item, start, &q);
        assert_eq!(m.len(), 1, "start {start}");
        assert_eq!(m[0].1, 5, "start {start}: stale owner served");
        assert!(q.is_subset_dyn(m[0].0.as_ref()), "start {start}: p5 owns all of it");
    }
    assert!(cache.stats().invalidations >= procs as u64);
}

/// End-to-end: a real multi-phase runtime run on the hierarchical index
/// populates the cache counters in the report (and the distributed state
/// still satisfies the model invariants: the runtime checks them at every
/// boundary).
#[test]
fn runtime_run_reports_cache_effectiveness() {
    use allscale_core::{
        pfor, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue, WorkItem,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = grid.clone();
    let runtime = Runtime::new(RtConfig::test(4, 2));
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase >= 4 {
                return None;
            }
            if phase == 0 {
                *gc.borrow_mut() = Some(Grid::<f64, 1>::create(ctx, "v", [256]));
            }
            let g = gc.borrow().unwrap();
            Some(pfor(
                PforSpec {
                    name: "sweep",
                    range: g.full_box(),
                    grain: 32,
                    ns_per_point: 2.0,
                    axis0_pieces: 8,
                },
                move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                move |tctx, p| g.set(tctx, p.0, p[0] as f64),
            ))
        },
    );
    let c = &report.monitor.cache;
    assert!(
        c.hits + c.misses > 0,
        "the scheduler must consult the cache: {c:?}"
    );
    assert!(
        c.hits > 0,
        "repeated identical pfor phases must produce cache hits: {c:?}"
    );
    // The summary renders the cache line.
    let line = format!("\nmonitor.cache: hits={} misses={}", c.hits, c.misses);
    assert!(report.summary().contains(&line));
}

/// The central-directory ablation bypasses the cache entirely: its runs
/// must report all-zero cache counters.
#[test]
fn central_index_runs_bypass_the_cache() {
    use allscale_core::{
        pfor, CacheStats, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue,
        WorkItem,
    };

    let mut config = RtConfig::test(4, 2);
    config.central_index = true;
    let runtime = Runtime::new(config);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase > 0 {
                return None;
            }
            let g = Grid::<f64, 1>::create(ctx, "v", [128]);
            Some(pfor(
                PforSpec {
                    name: "fill",
                    range: g.full_box(),
                    grain: 16,
                    ns_per_point: 2.0,
                    axis0_pieces: 8,
                },
                move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                move |tctx, p| g.set(tctx, p.0, 1.0),
            ))
        },
    );
    assert_eq!(report.monitor.cache, CacheStats::default());
}

/// Lenient timing smoke test: warm repeat-resolutions through the cache
/// must be at least 2× faster than uncached traversals on a 64-process
/// index (the criterion bench asserts nothing but measures the real
/// margin, which should be far larger).
#[test]
fn warm_hits_beat_uncached_traversals() {
    use std::time::Instant;

    let procs = 64;
    let item = ItemId(0);
    let mut dist = DistIndex::new(procs);
    dist.register_item(item, &BoxRegion::<1>::empty());
    for p in 0..procs {
        dist.update_leaf(item, p, Box::new(r1(p as i64 * 100, p as i64 * 100 + 100)));
    }
    let far = r1((procs as i64 - 1) * 100, procs as i64 * 100);
    let mut cache = LocationCache::new();
    cache.resolve(&dist, item, 0, &far); // warm

    const REPS: usize = 20_000;
    let t0 = Instant::now();
    let mut pieces = 0usize;
    for _ in 0..REPS {
        pieces += dist.resolve(item, 0, &far).0.len();
    }
    let uncached = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..REPS {
        pieces += cache.resolve(&dist, item, 0, &far).0.len();
    }
    let cached = t1.elapsed();
    assert_eq!(pieces, 2 * REPS);
    assert_eq!(cache.stats().hits as usize, REPS);
    assert!(
        cached < uncached / 2,
        "warm cache ({cached:?}) should be ≥ 2× faster than traversal ({uncached:?})"
    );
}
