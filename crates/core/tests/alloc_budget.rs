//! Allocation budgets of the per-task control path, as counts: asking
//! whether regions overlap or cover one another allocates nothing, a
//! location-cache hit allocates nothing, locking allocates the granted
//! locks and a refusal the one overlap it reports — and a served request
//! costs a bounded number of allocations end to end. The byte path has
//! budgets too: a halo row crossing the wire and a checkpoint round trip
//! allocate what they keep, not a chain of intermediate copies. A timing
//! would say the same things with noise; `malloc` calls repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use allscale_apps::serve::{self, ServeAppConfig};
use allscale_core::{
    DataItemManager, DistIndex, GridItem, ItemDescriptor, ItemId, LocationCache, LockConflict,
    MapItem, Requirement, RtConfig, TaskId,
};
use allscale_net::frame;
use allscale_region::{BoxRegion, BucketRegion, Region};

thread_local! {
    /// Allocations made by this thread (the test harness runs tests on
    /// threads of their own, and its main thread allocates meanwhile).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local without a destructor, so touching it
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const ITEM: ItemId = ItemId(0);
/// The serving store's shape: 8 shards of 64 buckets.
const BUCKETS: u32 = 512;

/// What one `BucketRegion` costs to build or clone: the box and its words.
const PER_REGION: u64 = 2;

fn bucket(b: u32) -> BucketRegion {
    BucketRegion::of_bucket(BUCKETS, b)
}

/// A manager owning the whole store.
fn store_dim() -> DataItemManager {
    let mut dim = DataItemManager::new(0);
    dim.register(ITEM, ItemDescriptor::of::<MapItem<u64, u64>>("serve-kv"));
    dim.init_owned(ITEM, &BucketRegion::full(BUCKETS));
    dim
}

#[test]
fn a_warm_location_cache_hit_allocates_nothing() {
    let mut idx = DistIndex::new(4);
    idx.register_item(ITEM, &BucketRegion::empty());
    for p in 0..4u32 {
        let owned = BucketRegion::of_range(BUCKETS, p * 128, (p + 1) * 128);
        idx.update_leaf(ITEM, p as usize, Box::new(owned));
    }
    let mut cache = LocationCache::new();
    let key = bucket(300);
    let (_, hops) = cache.resolve(&idx, ITEM, 0, &key);
    assert!(!hops.is_empty(), "the miss pays the traversal");

    let (n, (pieces, hops)) = allocations_of(|| cache.resolve(&idx, ITEM, 0, &key));
    assert_eq!((pieces.len(), pieces[0].1, hops.len()), (1, 2, 0));
    assert_eq!(n, 0, "hit: fingerprint, one probe, a shared handle");
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn coverage_of_owned_data_allocates_nothing() {
    let dim = store_dim();
    let (mine, theirs) = (bucket(7), bucket(300));
    let (n, covered) = allocations_of(|| dim.covers_stable(ITEM, &mine));
    assert!(covered);
    assert_eq!(n, 0, "region ⊆ owned is answered in place");

    // Nor does the answer "no" when no replica can help: the persistent
    // coverage is still the canonical 1-bucket empty region.
    let mut partial = DataItemManager::new(1);
    partial.register(ITEM, ItemDescriptor::of::<MapItem<u64, u64>>("serve-kv"));
    partial.init_owned(ITEM, &BucketRegion::of_range(BUCKETS, 0, 64));
    let (n, covered) = allocations_of(|| partial.covers_stable(ITEM, &theirs));
    assert!(!covered);
    assert_eq!(n, 0, "region misses owned and replicas: nothing to build");
}

#[test]
fn an_uncontended_lock_allocates_only_what_it_grants() {
    let mut dim = store_dim();
    let reqs = [
        Requirement::read(ITEM, bucket(3)),
        Requirement::write(ITEM, bucket(200)),
    ];
    // Once before, so the lock lists have their capacity.
    dim.try_lock(TaskId(0), &reqs).expect("free buckets");
    assert!(dim.unlock_all(TaskId(0)).is_empty());

    let (n, woken) = allocations_of(|| {
        dim.try_lock(TaskId(1), &reqs).expect("free buckets");
        dim.unlock_all(TaskId(1))
    });
    assert!(woken.is_empty());
    assert_eq!(
        n,
        reqs.len() as u64 * PER_REGION,
        "one region clone per granted lock"
    );
}

#[test]
fn a_refusal_allocates_only_the_overlap_it_reports() {
    let mut dim = store_dim();
    // 64 holders the request is disjoint from, then the one it clashes
    // with: the validation pass walks all of them.
    for b in 0..65u32 {
        let held = [Requirement::write(ITEM, bucket(b))];
        dim.try_lock(TaskId(1_000 + u64::from(b)), &held)
            .expect("free bucket");
    }
    let wanted = [Requirement::write(
        ITEM,
        BucketRegion::of_range(BUCKETS, 64, 128),
    )];
    let (n, refusal) = allocations_of(|| dim.try_lock(TaskId(1), &wanted));
    let Err(LockConflict::WriteLocked(blocker)) = refusal else {
        panic!("bucket 64 is write-held");
    };
    assert!(blocker.region.eq_dyn(&bucket(64)));
    assert_eq!(
        n, PER_REGION,
        "64 disjoint holders cost nothing, the 65th its overlap"
    );
}

/// Allocations of one whole serving run (set-up, preload and verification
/// included) of `requests` requests.
fn serving_run(requests: u64) -> u64 {
    let cfg = ServeAppConfig {
        rate_rps: 200_000.0,
        requests,
        ..ServeAppConfig::default()
    };
    let (n, out) = allocations_of(|| serve::run_with(&cfg, RtConfig::test(4, 2)));
    assert_eq!(
        out.report.monitor.serve.completed, requests,
        "below the knee nothing is shed"
    );
    n
}

#[test]
fn a_served_request_stays_within_its_allocation_budget() {
    // The difference of two runs cancels everything that is paid once.
    let (short, long) = (1_000, 3_000);
    let marginal = (serving_run(long) - serving_run(short)) as f64 / (long - short) as f64;
    // 43 before predicates replaced built regions; the rest is the task
    // itself (work item, requirement, granted lock) and its DES events.
    assert!(
        marginal <= 20.0,
        "{marginal:.1} allocations per additional request (budget: 20)"
    );
}

// ----------------------------------------------------------- the byte path

/// Rows of a node's stencil block, and of each first-touch tile in it.
const BLOCK_ROWS: i64 = 512;
const TILE_ROWS: i64 = 8;
const COLS: i64 = 256;

/// A manager holding the block of rows `[first, first + 512)` the way first
/// touch leaves it: 64 tiles of 8 rows, one chunk each.
fn block_dim(locality: usize, first: i64) -> DataItemManager {
    let mut dim = DataItemManager::new(locality);
    dim.register(ITEM, ItemDescriptor::of::<GridItem<f64, 2>>("A"));
    for tile in (first..first + BLOCK_ROWS).step_by(TILE_ROWS as usize) {
        dim.init_owned(ITEM, &BoxRegion::cuboid([tile, 0], [tile + TILE_ROWS, COLS]));
    }
    dim
}

#[test]
fn a_halo_row_crosses_the_wire_within_its_allocation_budget() {
    let mut owner = block_dim(0, 0);
    let mut reader = block_dim(1, BLOCK_ROWS);
    let halo = BoxRegion::cuboid([BLOCK_ROWS - 1, 0], [BLOCK_ROWS, COLS]);
    // Export, seal, open and import under the integrity service, then the
    // release; the second trip runs with every list at its capacity.
    let mut trip = |task: TaskId| {
        let n = allocations_of(|| {
            let framed = owner.export_replica(ITEM, &halo, 1, task).seal();
            let data = frame::open(&framed).expect("intact frame");
            reader.import_replica(ITEM, data, task);
        });
        reader.drop_replica_holds(ITEM, task);
        owner.release_exports_of(ITEM, task);
        n.0
    };
    trip(TaskId(1));
    let n = trip(TaskId(2));
    // 28 before the export wrote its frame in place and the import adopted
    // what it decoded: a zeroed extract, an encoding grown by doubling, a
    // sealed copy, an opened copy, and the decoded chunk cloned into the
    // slot.
    assert!(n <= 13, "{n} allocations for one halo row (budget: 13)");
}

#[test]
fn a_checkpoint_round_trip_stays_within_its_allocation_budget() {
    let mut dim = block_dim(0, 0);
    let n = allocations_of(|| {
        let snapshot = dim.checkpoint();
        dim.restore(&snapshot);
    });
    // 40 before: the block copied into a zeroed extract, then encoded into
    // a buffer grown by doubling.
    assert!(n.0 <= 14, "{} allocations for checkpoint + restore (budget: 14)", n.0);
}
