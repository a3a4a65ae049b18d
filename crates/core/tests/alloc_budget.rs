//! Allocation budgets of the per-task control path, as counts: asking
//! whether regions overlap or cover one another allocates nothing, a
//! location-cache hit allocates nothing, locking allocates the granted
//! locks and a refusal the one overlap it reports — and a served request
//! costs a bounded number of allocations end to end, a `pfor` split its
//! children and nothing else. The byte path has budgets too: a halo row
//! crossing the wire and a checkpoint round trip allocate what they
//! keep, not a chain of intermediate copies. And a
//! serving run holds the same bytes at its peak however many requests it
//! serves, and a task in flight holds its record, its work item and its
//! queued event, little else. A timing would say the same things with
//! noise; `malloc` calls and the bytes they hand out repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use allscale_apps::serve::{self, ServeAppConfig};
use allscale_apps::tpc::{KdNode, DIMS};
use allscale_core::{
    pfor, CostModel, DataItemManager, DistIndex, Done, GridItem, ItemDescriptor, ItemId,
    LocationCache, LockConflict, MapItem, PforSpec, Requirement, ResilienceConfig, RtConfig,
    Runtime, TaskCtx, TaskId, WorkItem,
};
use allscale_des::SimDuration;
use allscale_net::frame;
use allscale_region::{
    BoxRegion, BucketRegion, GridBox, Region, TreeFragment, TreePath, TreeRegion,
};

thread_local! {
    /// Allocations made by this thread (the test harness runs tests on
    /// threads of their own, and its main thread allocates meanwhile).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (negative when it
    /// frees what another thread allocated), and their high-water mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `grown` more live bytes (`grown` < 0 for a
/// shrinking `realloc`).
fn note(count: u64, grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + count));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialized thread-locals without a destructor, so touching
// them neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
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

/// The most bytes `f` held live at once, over what was live before it.
fn peak_bytes_of<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
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
    assert_eq!(n, 0, "a granted lock shares its requirement's region");
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

/// Allocations and peak live bytes of one whole serving run (set-up,
/// preload and verification included) of `requests` requests.
fn serving_run(requests: u64) -> (u64, i64) {
    let cfg = ServeAppConfig {
        rate_rps: 200_000.0,
        requests,
        ..ServeAppConfig::default()
    };
    let (n, (peak, out)) =
        allocations_of(|| peak_bytes_of(|| serve::run_with(&cfg, RtConfig::test(4, 2))));
    assert_eq!(
        out.report.monitor.serve.completed, requests,
        "below the knee nothing is shed"
    );
    (n, peak)
}

#[test]
fn a_served_request_stays_within_its_allocation_budget() {
    // The difference of two runs cancels everything that is paid once.
    let (short, long) = (1_000, 3_000);
    let marginal = (serving_run(long).0 - serving_run(short).0) as f64 / (long - short) as f64;
    // 11.4 today; 12.4 while a read's keys were cloned out of a
    // precomputed plan, 43 before predicates replaced built regions, 19.9
    // while every DES event was a boxed closure and every granted lock
    // cloned its region. The rest is the task itself (work item,
    // requirement) and the application's bookkeeping.
    assert!(
        marginal <= 12.0,
        "{marginal:.1} allocations per additional request (budget: 12)"
    );
}

#[test]
fn a_serving_run_holds_nothing_per_request() {
    // Long enough that both runs are past their warm-up, in which the
    // runtime's tables grow to their working size (a 1 000-request run
    // peaks 280 kB below a 16 000-request one): past it, what a run holds
    // at its peak is its state — the store, those tables, the requests
    // in flight — whatever its length.
    let (short, long) = (16_000, 32_000);
    let marginal = (serving_run(long).1 - serving_run(short).1) as f64 / (long - short) as f64;
    // 0.3 today; 43.7 while the whole request stream was precomputed
    // before the run (an entry and a read's key list per request).
    assert!(
        marginal <= 4.0,
        "{marginal:.1} bytes held per additional request (budget: 4)"
    );
}

#[test]
fn a_pfor_split_allocates_only_its_children() {
    let spec = PforSpec {
        name: "tiles",
        range: GridBox::from_shape([64, 64]).unwrap(),
        grain: 16,
        ns_per_point: 1.0,
        axis0_pieces: 0,
    };
    let root = pfor(spec, |_| Vec::new(), |_, _| {});
    let (n, children) = allocations_of(|| root.split());
    assert_eq!(children.len(), 2);
    // The halves' vector, reused in place as the child vector, and one
    // box per child: the tiles share the loop, and the runtime sums the
    // children's values. 4 while the combiner was a boxed closure holding
    // an `Arc`.
    assert_eq!(n, 3, "allocations of one split");
}

/// A process task with no data that runs for `ms` of virtual time.
struct Sleep(u64);

impl WorkItem for Sleep {
    fn can_split(&self) -> bool {
        false
    }
    fn requirements(&self) -> Vec<Requirement> {
        Vec::new()
    }
    fn cost(&self, _: &CostModel, _: usize) -> SimDuration {
        SimDuration::from_millis(self.0)
    }
    fn process(self: Box<Self>, _: &mut TaskCtx<'_>) -> Done {
        Done::Value(None)
    }
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>> {
        unreachable!("a sleep does not split")
    }
}

/// Allocations and heartbeats of a run of one 10 ms task under a failure
/// detector probing every `period_us`.
fn heartbeat_run(period_us: u64) -> (u64, u64) {
    let mut cfg = RtConfig::test(4, 1);
    cfg.resilience = Some(ResilienceConfig {
        heartbeat_period: SimDuration::from_micros(period_us),
        ..ResilienceConfig::default()
    });
    let (n, report) = allocations_of(|| {
        Runtime::new(cfg).run(|phase, _, _| (phase == 0).then(|| Box::new(Sleep(10)) as _))
    });
    (n, report.monitor.resilience.heartbeats)
}

#[test]
fn a_runtime_event_allocates_nothing_once_the_queue_is_warm() {
    // The same run with twice the heartbeat ticks: each tick is scheduled
    // into the queue and fired from it, and the queue never holds more than
    // a few events, so past the first ticks it is warm.
    let (sparse, beats) = heartbeat_run(20);
    let (dense, more_beats) = heartbeat_run(10);
    assert!(
        more_beats >= beats + 1_000,
        "{beats} → {more_beats} heartbeats"
    );
    assert_eq!(dense, sparse, "allocations with twice the ticks");
}

/// A process task that forks `0` sleeping children at once.
struct Fan(usize);

impl WorkItem for Fan {
    fn can_split(&self) -> bool {
        false
    }
    fn requirements(&self) -> Vec<Requirement> {
        Vec::new()
    }
    fn cost(&self, _: &CostModel, _: usize) -> SimDuration {
        SimDuration::ZERO
    }
    fn process(self: Box<Self>, _: &mut TaskCtx<'_>) -> Done {
        let children = (0..self.0).map(|_| Box::new(Sleep(1)) as _).collect();
        Done::Children(None, children)
    }
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>> {
        unreachable!("a fan does not split")
    }
}

/// Peak live bytes of a run on one core that holds `tasks` sleeping
/// tasks in flight at once.
fn fan_run(tasks: usize) -> i64 {
    let (peak, report) = peak_bytes_of(|| {
        Runtime::new(RtConfig::test(1, 1))
            .run(move |phase, _, _| (phase == 0).then(|| Box::new(Fan(tasks)) as _))
    });
    assert_eq!(
        report.monitor.per_locality[0].tasks_executed,
        tasks as u64 + 1
    );
    peak
}

#[test]
fn a_task_in_flight_holds_its_record_and_little_else() {
    // Powers of two, so every table the tasks fill doubles exactly and the
    // difference is the cost of one task times the extra tasks: its
    // record, its work item, its queued event and its slots in the
    // tables' windows.
    let (few, many) = (4_096, 8_192);
    let marginal = (fan_run(many) - fan_run(few)) as f64 / (many - few) as f64;
    // 180 today; 204 while each child held a slot in its parent's result
    // list; 228 while a queued event took a 72-byte slot and a
    // 24-byte key (56 and 16 now), and 324 while each record (176 bytes
    // with its id, 80 now) held its body's outcome, its replica list and
    // its wake-up ticket inline and kept its locality, parent index and
    // transfer count in words.
    assert!(
        marginal <= 240.0,
        "{marginal:.1} bytes held per additional task in flight (budget: 240)"
    );
}

/// Peak live bytes of a fragment holding the complete subtree of
/// `levels` levels below the root, filled from the root down.
fn kd_tree_peak(levels: u32) -> i64 {
    let node = KdNode {
        point: [0.5; DIMS],
        dim: 0,
    };
    let (peak, _) = peak_bytes_of(|| {
        let mut f = TreeFragment::new(TreeRegion::subtree(TreePath::ROOT));
        for idx in 0..(1u64 << levels) - 1 {
            assert!(f.set(TreePath::from_bfs_index(idx), node.clone()));
        }
        f
    });
    peak
}

#[test]
fn a_stored_tree_node_costs_its_value() {
    // Eleven and ten levels, both inside one block: the slot map and the
    // value list double exactly, so the difference is the cost of one
    // stored node times the extra nodes.
    assert_eq!(std::mem::size_of::<KdNode>(), 64);
    let (k, extra) = (10, 1 << 10);
    let marginal = (kd_tree_peak(k + 1) - kd_tree_peak(k)) as f64 / extra as f64;
    // 76 while each value sat beside a copy of its slot.
    assert!(
        marginal <= 68.0,
        "{marginal:.1} bytes per stored 64-byte node (budget: the value and its 4-byte slot)"
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
        dim.init_owned(
            ITEM,
            &BoxRegion::cuboid([tile, 0], [tile + TILE_ROWS, COLS]),
        );
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
    assert!(
        n.0 <= 14,
        "{} allocations for checkpoint + restore (budget: 14)",
        n.0
    );
}
