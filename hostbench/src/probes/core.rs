//! Probes of the runtime's own layers: index and location cache, data
//! item manager, scheduler, and the `Grid` façade.

use std::hint::black_box;
use std::time::Instant;

use allscale_core::dynamic::ItemDescriptor;
use allscale_core::{
    pfor, DataAwarePolicy, DataAwareScheduler, DataItemManager, DistIndex, Grid, GridItem, ItemId,
    LocationCache, MapItem, PforSpec, PolicyEnv, Requirement, RtConfig, RtCtx, Runtime, Scheduler,
    StealConfig, TaskId, TaskValue, WorkItem, WorkStealingScheduler,
};
use allscale_region::{BoxRegion, BucketRegion, Region};

use super::{per_op, rng};

const ITEM: ItemId = ItemId(0);
const PROCS: usize = 64;

fn r1(lo: i64, hi: i64) -> BoxRegion<1> {
    BoxRegion::cuboid([lo], [hi])
}

/// A 64-process index over one item, 100 elements per process.
fn populated_index() -> DistIndex {
    let mut idx = DistIndex::new(PROCS);
    idx.register_item(ITEM, &BoxRegion::<1>::empty());
    for p in 0..PROCS {
        idx.update_leaf(ITEM, p, Box::new(r1(p as i64 * 100, p as i64 * 100 + 100)));
    }
    idx
}

/// Seeded lookups: a third local, a third on a far process, a third
/// spread over several owners — each from a seeded start process.
fn lookups(seed: u64) -> Vec<(usize, BoxRegion<1>)> {
    let mut r = rng(seed);
    (0..1_024)
        .map(|i| {
            let start = (r.next() % PROCS as u64) as usize;
            let far = (r.next() % PROCS as u64) as i64;
            let region = match i % 3 {
                0 => r1(start as i64 * 100, start as i64 * 100 + 100),
                1 => r1(far * 100, far * 100 + 100),
                _ => r1(far * 100 + 50, (far * 100 + 450).min(PROCS as i64 * 100)),
            };
            (start, region)
        })
        .collect()
}

/// `DistIndex::resolve` (home: `tpc_64`).
pub fn index_resolve(seed: u64, seconds: f64) -> f64 {
    let idx = populated_index();
    let lookups = lookups(seed);
    per_op(seconds, lookups.len() as u64, || {
        for (start, region) in &lookups {
            black_box(idx.resolve(ITEM, *start, region));
        }
    })
}

/// `DistIndex::update_leaf` (home: `tpc_64`).
pub fn index_update(_seed: u64, seconds: f64) -> f64 {
    let mut idx = populated_index();
    per_op(seconds, PROCS as u64, || {
        for p in 0..PROCS {
            black_box(idx.update_leaf(ITEM, p, Box::new(r1(p as i64 * 100, p as i64 * 100 + 100))));
        }
    })
}

/// A warm `LocationCache::resolve` (home: `serve_steady`).
pub fn loc_cache_hit(seed: u64, seconds: f64) -> f64 {
    let idx = populated_index();
    let lookups = lookups(seed);
    let mut cache = LocationCache::new();
    per_op(seconds, lookups.len() as u64, || {
        for (start, region) in &lookups {
            black_box(cache.resolve(&idx, ITEM, *start, region));
        }
    })
}

/// A `LocationCache::resolve` that finds its entry stale: every batch
/// starts with the epoch bump a distribution change causes.
pub fn loc_cache_miss(seed: u64, seconds: f64) -> f64 {
    let idx = populated_index();
    // Distinct keys only, so each entry is looked up once per epoch.
    let mut lookups = lookups(seed);
    lookups.sort_by_key(|(start, region)| (*start, format!("{region:?}")));
    lookups.dedup_by_key(|(start, region)| (*start, format!("{region:?}")));
    let mut cache = LocationCache::new();
    per_op(seconds, lookups.len() as u64, || {
        cache.bump(ITEM);
        for (start, region) in &lookups {
            black_box(cache.resolve(&idx, ITEM, *start, region));
        }
    })
}

/// A manager holding the serving store's 512-bucket map.
fn store_dim() -> DataItemManager {
    let mut dim = DataItemManager::new(0);
    dim.register(ITEM, ItemDescriptor::of::<MapItem<u64, u64>>("serve-kv"));
    dim.init_owned(ITEM, &BucketRegion::full(512));
    dim
}

/// Uncontended `try_lock` + `unlock_all` (home: `serve_steady`).
pub fn dim_try_lock(seed: u64, seconds: f64) -> f64 {
    let mut dim = store_dim();
    let mut r = rng(seed);
    let reqs: Vec<[Requirement; 1]> = (0..1_024)
        .map(|_| {
            [Requirement::read(
                ITEM,
                BucketRegion::of_bucket(512, (r.next() % 512) as u32),
            )]
        })
        .collect();
    per_op(seconds, reqs.len() as u64, || {
        for (i, req) in reqs.iter().enumerate() {
            let task = TaskId(i as u64);
            black_box(dim.try_lock(task, req).is_ok());
            dim.unlock_all(task);
        }
    })
}

/// `try_lock` refused because another task write-holds the bucket, with
/// the hot shard's 64 buckets all held (home: `serve_overload`, where
/// forty such refusals happen per admitted task). The refusal walks the
/// held locks, so its cost grows with their number.
pub fn dim_try_lock_conflict(seed: u64, seconds: f64) -> f64 {
    let mut dim = store_dim();
    for b in 0..64u32 {
        let held = [Requirement::write(ITEM, BucketRegion::of_bucket(512, b))];
        dim.try_lock(TaskId(1_000_000 + u64::from(b)), &held)
            .expect("free bucket");
    }
    let mut r = rng(seed);
    let reqs: Vec<[Requirement; 1]> = (0..1_024)
        .map(|_| {
            [Requirement::write(
                ITEM,
                BucketRegion::of_bucket(512, (r.next() % 64) as u32),
            )]
        })
        .collect();
    per_op(seconds, reqs.len() as u64, || {
        for (i, req) in reqs.iter().enumerate() {
            black_box(dim.try_lock(TaskId(i as u64), req).is_err());
        }
    })
}

const ROWS: i64 = 512;
const COLS: i64 = 256;

/// A manager owning one node's 512×256 stencil block.
fn grid_dim(locality: usize) -> DataItemManager {
    let mut dim = DataItemManager::new(locality);
    dim.register(ITEM, ItemDescriptor::of::<GridItem<f64, 2>>("A"));
    dim
}

/// `export_replica` at the owner + `import_replica` at the reader of a
/// halo row, and their release, per KiB moved (home: `stencil_64`).
pub fn dim_export_import(_seed: u64, seconds: f64) -> f64 {
    let mut owner = grid_dim(0);
    owner.init_owned(ITEM, &BoxRegion::cuboid([0, 0], [ROWS, COLS]));
    let mut reader = grid_dim(1);
    let halos: Vec<BoxRegion<2>> = (0..64)
        .map(|x| BoxRegion::cuboid([x * 8, 0], [x * 8 + 1, COLS]))
        .collect();
    let kib = (halos.len() as i64 * COLS * 8 / 1024) as u64;
    per_op(seconds, kib, || {
        for (i, halo) in halos.iter().enumerate() {
            let task = TaskId(i as u64);
            let bytes = owner.export_replica(ITEM, halo, 1, task);
            reader.import_replica(ITEM, &bytes, task);
            reader.drop_replica_holds(ITEM, task);
            owner.release_exports_of(ITEM, task);
        }
    })
}

/// `checkpoint` + `restore` of one node's block, per KiB serialized
/// (home: `stencil_ft`).
pub fn dim_checkpoint(_seed: u64, seconds: f64) -> f64 {
    let mut dim = grid_dim(0);
    dim.init_owned(ITEM, &BoxRegion::cuboid([0, 0], [ROWS, COLS]));
    let kib = dim
        .checkpoint()
        .iter()
        .map(|(_, b)| b.len() as u64)
        .sum::<u64>()
        / 1024;
    per_op(seconds, kib, || {
        let snapshot = dim.checkpoint();
        dim.restore(&snapshot);
    })
}

/// `pick_variant` + `pick_target` of the data-aware scheduler on 64
/// localities (home: `tpc_64`).
pub fn scheduler_decide(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let load: Vec<usize> = (0..PROCS).map(|_| (r.next() % 40) as usize).collect();
    let tasks: Vec<(u32, f64, usize)> = (0..1_024)
        .map(|_| {
            (
                (r.next() % 12) as u32,
                r.next_f64(),
                (r.next() % PROCS as u64) as usize,
            )
        })
        .collect();
    let mut sched = DataAwareScheduler::new(Box::new(DataAwarePolicy::default()));
    per_op(seconds, tasks.len() as u64, || {
        let env = PolicyEnv {
            nodes: PROCS,
            cores_per_node: 20,
            load: &load,
        };
        for &(depth, hint, origin) in &tasks {
            black_box(sched.pick_variant(depth, true, Some(hint), &env));
            black_box(sched.pick_target(Some(hint), origin, &env));
        }
    })
}

/// The work-stealing queues: `enqueue`, `next_runnable`, `release_slot`
/// and a thief's `steal_victim` + `steal_task` (home: `stencil_ft`).
pub fn scheduler_ws_queue(seed: u64, seconds: f64) -> f64 {
    const LOCS: usize = 16;
    let mut r = rng(seed);
    let targets: Vec<usize> = (0..1_024)
        .map(|_| (r.next() % (LOCS as u64 / 2)) as usize)
        .collect();
    let dead = [false; LOCS];
    per_op(seconds, targets.len() as u64, || {
        let mut sched = WorkStealingScheduler::new(
            Box::new(DataAwarePolicy::default()),
            StealConfig::default(),
            LOCS,
            20,
        );
        for (i, &loc) in targets.iter().enumerate() {
            sched.enqueue(loc, TaskId(i as u64));
        }
        // The loaded half drains its own queues; the idle half steals a
        // task whenever its own queue is dry, and runs it at once.
        let mut done = 0;
        while done < targets.len() {
            for loc in 0..LOCS {
                if sched.queue_len(loc) == 0 {
                    if let Some(task) = sched
                        .steal_victim(loc, &dead)
                        .and_then(|v| sched.steal_task(v))
                    {
                        sched.enqueue(loc, task);
                    }
                }
                if sched.next_runnable(loc).is_some() {
                    sched.release_slot(loc);
                    done += 1;
                }
            }
        }
        black_box(done);
    })
}

/// A one-locality `Runtime::run` of a `pfor` doing `Grid::get` + `set`
/// over 512×512 cells: host time per access through the façade, task
/// machinery included (home: `stencil_64`).
pub fn facade_grid(_seed: u64, seconds: f64) -> f64 {
    const SIDE: i64 = 512;
    let mut spent = 0.0;
    let mut accesses = 0u64;
    while accesses == 0 || spent < seconds {
        let started = Instant::now();
        let report = Runtime::new(RtConfig::test(1, 2)).run(
            move |phase: usize,
                  ctx: &mut RtCtx<'_>,
                  _prev: TaskValue|
                  -> Option<Box<dyn WorkItem>> {
                if phase > 0 {
                    return None;
                }
                let g = Grid::<f64, 2>::create(ctx, "g", [SIDE, SIDE]);
                Some(pfor(
                    PforSpec {
                        name: "touch",
                        range: g.full_box(),
                        grain: 4_096,
                        ns_per_point: 1.0,
                        axis0_pieces: 4,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        let v = g.get(tctx, p.0);
                        g.set(tctx, p.0, v + 1.0);
                    },
                ))
            },
        );
        black_box(report.events);
        spent += started.elapsed().as_secs_f64();
        accesses += 2 * (SIDE * SIDE) as u64;
    }
    spent * 1e9 / accesses as f64
}
