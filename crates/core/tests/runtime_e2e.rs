//! End-to-end tests of the runtime: full applications (phases of pfor task
//! trees) running over the simulated cluster, with results verified
//! against sequential oracles.

use allscale_core::{
    pfor, pfor_tiles, DistMap, FaultPlan, Grid, IntegrityConfig, ItemId, PforSpec, Requirement,
    ResilienceConfig, RtConfig, RtCtx, Runtime, TaskCtx, TaskValue, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_region::{BoxRegion, BucketRegion, GridBox, GridFragment, Point, Region};
use common::{family, Scenario};

#[path = "../../../tests/common/mod.rs"]
mod common;

fn config(nodes: usize, cores: usize) -> RtConfig {
    RtConfig::test(nodes, cores)
}

/// First touch lays the fill out in blocks: at the boundary after it
/// every locality owns a non-empty part and the parts cover the item
/// with no replica (the read-back checks the values).
#[test]
fn first_touch_initialization_distributes_data() {
    bumps(0).run_hooked(config(4, 2), |phase, ctx, items| {
        if let (1, [item]) = (phase, items) {
            let held: Vec<usize> = (0..ctx.nodes())
                .map(|l| ctx.fragment_at::<GridFragment<u64, 1>>(l, *item).len())
                .collect();
            assert_eq!(held.iter().sum::<usize>(), 96, "covered once: {held:?}");
            assert!(
                held.iter().all(|&n| n > 0),
                "spread over all 4 nodes: {held:?}"
            );
        }
    });
}

/// The contended member's halo reads cross node boundaries: they
/// replicate (and `Scenario::run` checks every value read back).
#[test]
fn halo_reads_replicate_and_release() {
    let (_, report) = Scenario {
        program: family::contended(0),
        ..Scenario::new(0)
    }
    .run();
    let replicas: u64 = report
        .monitor
        .per_locality
        .iter()
        .map(|l| l.replicas_in)
        .sum();
    assert!(replicas > 0, "expected cross-node halo replication");
    assert!(report.remote_msgs > 0);
}

/// Tasks whose write requirements are owned by one node must be scheduled
/// there (Algorithm 2 line 7-9): the bump waves after the fill migrate
/// nothing.
#[test]
fn tasks_follow_their_data() {
    let report = bump_roundtrip(config(4, 2), 3);
    let migrations: u64 = report
        .monitor
        .per_locality
        .iter()
        .map(|l| l.migrations_in)
        .sum();
    assert_eq!(migrations, 0, "steady-state phases must not migrate data");
}

/// Single-node runs work and use no network.
#[test]
fn single_node_runs_entirely_local() {
    let (_, report) = Scenario::new(0).run_on(config(1, 4));
    assert_eq!(report.remote_msgs, 0);
    assert!(report.monitor.total_tasks() >= 4);
}

/// Cost-model speed factors slow down the affected locality's work.
#[test]
fn speed_factors_shift_completion_time() {
    let run = |speed_factors: Vec<f64>| {
        let mut cfg = config(2, 2);
        cfg.cost.speed_factors = speed_factors;
        bump_roundtrip(cfg, 2).finish_time.as_nanos()
    };
    let fast = run(Vec::new());
    let slow = run(vec![1.0, 0.25]);
    assert!(
        slow > fast + fast / 2,
        "slow node must delay completion: fast={fast} slow={slow}"
    );
}

/// Destroying an item removes it everywhere; a new item can reuse storage.
#[test]
fn destroy_item_clears_all_localities() {
    let rt = Runtime::new(config(3, 2));
    rt.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "temp", [96]);
                    Some(pfor(
                        PforSpec {
                            name: "touch",
                            range: g.full_box(),
                            grain: 8,
                            ns_per_point: 2.0,
                            axis0_pieces: 12,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, 1.0),
                    ))
                }
                1 => {
                    // The paper's destroy action: all placements and locks
                    // of the item are deleted.
                    ctx.destroy_item(allscale_core::ItemId(0));
                    let violations = ctx.verify_consistency();
                    assert!(violations.is_empty(), "{violations:?}");
                    // A fresh item starts clean.
                    let g2 = Grid::<f64, 1>::create(ctx, "fresh", [32]);
                    Some(pfor(
                        PforSpec {
                            name: "touch2",
                            range: g2.full_box(),
                            grain: 8,
                            ns_per_point: 2.0,
                            axis0_pieces: 4,
                        },
                        move |tile| vec![Requirement::write(g2.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g2.set(tctx, p.0, 2.0),
                    ))
                }
                _ => None,
            }
        },
    );
}

/// Regression: a kill during the read-back of a member that destroyed an
/// item at the read-back boundary recovers to the checkpoint taken just
/// before the destruction. The restore must bring the item back under
/// its id (the replayed boundary destroys it again) instead of panicking
/// on a data item manager slot that is gone.
#[test]
fn recovery_revives_an_item_destroyed_since_its_checkpoint() {
    let scenario = Scenario {
        program: family::destroying(2),
        ..Scenario::new(2)
    };
    scenario.run_killed(1, 95, FaultPlan::new(2));
}

/// Persistent replicas (broadcast) serve reads everywhere without new
/// transfers: a read-only phase after the broadcast moves no more data.
#[test]
fn broadcast_replicas_serve_reads_without_traffic() {
    let mut grid = None;
    let report = Runtime::new(config(4, 2)).run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "shared", [64]);
                    grid = Some(g);
                    // Keep the data on one node (no axis-0 spreading).
                    Some(pfor(
                        PforSpec {
                            name: "init",
                            range: g.full_box(),
                            grain: 64,
                            ns_per_point: 2.0,
                            axis0_pieces: 0,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                    ))
                }
                1 => {
                    let g = grid.unwrap();
                    let owner = (0..ctx.nodes())
                        .find(|&l| !ctx.owned_region_at(l, g.id).is_empty_dyn())
                        .unwrap();
                    ctx.broadcast_replicate(g.id, owner, &g.full_region());
                    // Read-only phase: every node sums the whole grid.
                    Some(pfor(
                        PforSpec {
                            name: "read-everywhere",
                            range: g.full_box(),
                            grain: 4,
                            ns_per_point: 2.0,
                            axis0_pieces: 16,
                        },
                        move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| {
                            let v = g.get(tctx, p.0);
                            assert_eq!(v, p[0] as f64);
                        },
                    ))
                }
                _ => None,
            }
        },
    );
    // Replica imports: exactly the broadcast's nodes-1 (no per-task
    // re-replication of persistently replicated data).
    let replicas: u64 = report
        .monitor
        .per_locality
        .iter()
        .map(|l| l.replicas_in)
        .sum();
    assert_eq!(replicas, 3, "only the broadcast itself replicates");
}

/// Tree data items through the facade's `TreeItem`: distribute blocks by
/// first touch, then run read tasks pinned to the block owners.
#[test]
fn tree_facade_distributes_and_reads() {
    use allscale_core::{bisect, Prec, PrecOps, TreeItem};
    use allscale_region::{BitmaskTreeRegion, TreeFragment, TreePath};

    const H: u8 = 2; // 4 subtree blocks
    const LEVELS: u8 = 5;
    type Frag = TreeFragment<u64, BitmaskTreeRegion>;
    let mut tree_item = None;
    let mut total = 0;
    Runtime::new(config(4, 2)).run(
        |phase: usize, ctx: &mut RtCtx<'_>, prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let tree = ctx.create_item::<TreeItem<u64, BitmaskTreeRegion>>("tree");
                    tree_item = Some(tree);
                    // Distribute: one pfor index per block (0 = root
                    // block, 1..=4 subtrees), writing node values = their
                    // BFS index.
                    Some(pfor(
                        PforSpec {
                            name: "tree-dist",
                            range: allscale_region::GridBox::<1>::from_shape([5]).unwrap(),
                            grain: 1,
                            ns_per_point: 100.0,
                            axis0_pieces: 4,
                        },
                        move |tile| {
                            let mut region = BitmaskTreeRegion::new(H);
                            for idx in tile.points() {
                                if idx[0] == 0 {
                                    region.set_root_block(true);
                                } else {
                                    region.set_subtree(idx[0] as usize - 1, true);
                                }
                            }
                            vec![Requirement::write(tree, region)]
                        },
                        move |tctx, p| {
                            let write_all =
                                |tctx: &mut allscale_core::TaskCtx<'_>,
                                 root: TreePath,
                                 max_depth: u8| {
                                    let mut stack = vec![root];
                                    while let Some(path) = stack.pop() {
                                        let frag = tctx.fragment_mut::<Frag>(tree);
                                        assert!(frag.set(path, path.bfs_index()));
                                        if path.depth() + 1 < max_depth {
                                            stack.push(path.left());
                                            stack.push(path.right());
                                        }
                                    }
                                };
                            if p[0] == 0 {
                                // Root block: depths 0..H.
                                let mut stack = vec![TreePath::ROOT];
                                while let Some(path) = stack.pop() {
                                    let frag = tctx.fragment_mut::<Frag>(tree);
                                    assert!(frag.set(path, path.bfs_index()));
                                    if path.depth() + 1 < H {
                                        stack.push(path.left());
                                        stack.push(path.right());
                                    }
                                }
                            } else {
                                let region = BitmaskTreeRegion::new(H);
                                write_all(tctx, region.subtree_root(p[0] as usize - 1), LEVELS);
                            }
                        },
                    ))
                }
                1 => {
                    // Sum every node via read tasks per block (forwarded to
                    // the block owners by the scheduler); the sums come
                    // back as the phase value.
                    let tree = tree_item.unwrap();
                    let blocks = move |b: &GridBox<1>| {
                        let mut region = BitmaskTreeRegion::new(H);
                        for idx in b.points() {
                            if idx[0] == 0 {
                                region.set_root_block(true);
                            } else {
                                region.set_subtree(idx[0] as usize - 1, true);
                            }
                        }
                        region
                    };
                    let sum = |v: Vec<TaskValue>| -> TaskValue {
                        let sums = v.into_iter().flatten();
                        Some(Box::new(
                            sums.map(|s| *s.downcast::<u64>().unwrap()).sum::<u64>(),
                        ))
                    };
                    let ops = PrecOps {
                        name: "tree-sum",
                        can_split: Box::new(|b: &GridBox<1>, _| b.cardinality() > 1),
                        split: Box::new(bisect),
                        combine: Box::new(sum),
                        process: Box::new(move |tctx, b| {
                            // Sum whatever this task's blocks hold.
                            let frag = tctx.fragment::<Frag>(tree);
                            let mine = |(path, v): (TreePath, &u64)| {
                                let block =
                                    BitmaskTreeRegion::block_of(H, &path).map_or(0, |b| b + 1);
                                b.contains(&Point([block as i64])).then_some(*v)
                            };
                            Some(Box::new(frag.iter().filter_map(mine).sum::<u64>()))
                        }),
                        hint: Box::new(|b| Some(b.lo()[0] as f64 / 5.0)),
                        requirements: Box::new(move |b| vec![Requirement::read(tree, blocks(b))]),
                        cost: Box::new(|b, _, _| SimDuration::from_nanos(100 * b.cardinality())),
                        descriptor_bytes: 192,
                        result_bytes: 8,
                    };
                    let full = GridBox::<1>::from_shape([5]).unwrap();
                    #[allow(clippy::arc_with_non_send_sync)] // single-threaded sim
                    let ops = std::sync::Arc::new(ops);
                    Some(Prec::root(full, ops))
                }
                _ => {
                    // Driver-side: total of all node values equals the sum
                    // of BFS indices 0..2^LEVELS-1, and so does the phase's.
                    let tree = tree_item.unwrap();
                    let mut sum = 0u64;
                    let mut count = 0u64;
                    for loc in 0..ctx.nodes() {
                        let frag = ctx.fragment_at::<Frag>(loc, tree);
                        for (_, v) in frag.iter() {
                            sum += v;
                            count += 1;
                        }
                    }
                    let n = (1u64 << LEVELS) - 1;
                    assert_eq!(count, n, "complete tree stored");
                    assert_eq!(sum, n * (n - 1) / 2, "sum of BFS indices");
                    let summed = prev.expect("tree-sum returns its sum");
                    assert_eq!(*summed.downcast::<u64>().unwrap(), sum, "tasks' block sums");
                    total = sum;
                    None
                }
            }
        },
    );
    assert!(total > 0);
}

/// The run report's summary renders and contains the headline counters.
#[test]
fn run_report_summary_renders() {
    let rt = Runtime::new(config(2, 2));
    let report = rt.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase > 0 {
                return None;
            }
            let g = Grid::<f64, 1>::create(ctx, "v", [32]);
            Some(pfor(
                PforSpec {
                    name: "t",
                    range: g.full_box(),
                    grain: 8,
                    ns_per_point: 2.0,
                    axis0_pieces: 4,
                },
                move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                move |ctx2, p| g.set(ctx2, p.0, 0.0),
            ))
        },
    );
    let s = report.summary();
    let finish = report.finish_time.as_nanos();
    assert!(
        s.starts_with(&format!("finish_time={finish} phases=")),
        "{s}"
    );
    assert!(
        s.contains("\nmonitor.per_locality[0]: tasks_executed="),
        "{s}"
    );
    assert!(s.contains(" first_touch="), "{s}");
}

/// One task whose only requirement is a write of its 8 × 4 tile moves a row
/// of five elements: the fifth was never required, let alone allocated.
fn row_overrunning_its_requirement(write: bool) {
    let rt = Runtime::new(config(2, 2));
    rt.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase > 0 {
                return None;
            }
            let g = Grid::<f64, 2>::create(ctx, "A", [8, 8]);
            Some(pfor_tiles(
                PforSpec {
                    name: "overrun",
                    range: GridBox::new(Point([0, 0]), Point([8, 4])).unwrap(),
                    grain: 64,
                    ns_per_point: 1.0,
                    axis0_pieces: 0,
                },
                move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                move |tctx, tile| {
                    let mut row = [0.0; 5];
                    if write {
                        g.write_row(tctx, tile.lo().0, &row);
                    } else {
                        g.read_row(tctx, tile.lo().0, &mut row);
                    }
                },
            ))
        },
    );
}

/// A run reaching past what the task declared is a requirement violation,
/// exactly as a single uncovered element is.
#[test]
#[should_panic(expected = "missing requirement")]
fn read_row_past_the_requirement_panics() {
    row_overrunning_its_requirement(false);
}

#[test]
#[should_panic(expected = "missing requirement")]
fn write_row_past_the_requirement_panics() {
    row_overrunning_its_requirement(true);
}

/// Two phases on `nodes` nodes over the items `create` makes: phase `k`
/// tiles `tiles * 8` indices, and each tile declares `reqs[k]` and runs
/// `bodies[k]` (phase 0 fills, phase 1 probes).
#[cfg(debug_assertions)]
fn fill_then_probe<I: Copy + 'static>(
    nodes: usize,
    create: fn(&mut RtCtx<'_>) -> I,
    tiles: i64,
    reqs: [fn(I, &GridBox<1>) -> Requirement; 2],
    bodies: [fn(I, &mut TaskCtx<'_>, &GridBox<1>); 2],
) {
    let mut items = None;
    Runtime::new(config(nodes, 2)).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            let i = *items.get_or_insert_with(|| create(ctx));
            let (req, body) = (*reqs.get(phase)?, bodies[phase]);
            Some(pfor_tiles(
                PforSpec {
                    name: "probe",
                    range: GridBox::<1>::from_shape([tiles * 8]).unwrap(),
                    grain: 8,
                    ns_per_point: 1.0,
                    axis0_pieces: tiles as u64,
                },
                move |tile| vec![req(i, tile)],
                move |tctx, tile| body(i, tctx, tile),
            ))
        },
    );
}

/// Tiles of a 64-element grid, filled in phase 0, each declare a write of
/// their own tile in phase 1 and touch the first element past it,
/// which lies in the next tile's write requirement (§2.5's exclusive
/// writes). On one node that element is always held locally, on four
/// mostly: only the access rule refuses it, naming the task, the element
/// and the declared region.
#[cfg(debug_assertions)]
fn tile_touching_past_its_requirement(nodes: usize, write: bool) {
    let own =
        |g: Grid<f64, 1>, tile: &GridBox<1>| Requirement::write(g.id, BoxRegion::from_box(*tile));
    let fill: fn(Grid<f64, 1>, &mut TaskCtx<'_>, &GridBox<1>) = |g, tctx, tile| {
        tile.points().for_each(|p| g.set(tctx, p.0, 1.0));
    };
    let past: fn(Grid<f64, 1>, &mut TaskCtx<'_>, &GridBox<1>) = match write {
        true => |g, tctx, tile| g.set(tctx, [tile.hi()[0] % 64], 2.0),
        false => |g, tctx, tile| assert_eq!(g.get(tctx, [tile.hi()[0] % 64]), 1.0),
    };
    let create = |ctx: &mut RtCtx<'_>| Grid::<f64, 1>::create(ctx, "A", [64]);
    fill_then_probe(nodes, create, 8, [own, own], [fill, past]);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(
    expected = "Read of element [16] of ItemId(0) outside its declared [Write BoxRegion[[(0)..(16))] of ItemId(0)]"
)]
fn a_tile_reading_past_its_requirement_on_one_node_panics() {
    tile_touching_past_its_requirement(1, false);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(
    expected = "Write of element [16] of ItemId(0) outside its declared [Write BoxRegion[[(0)..(16))] of ItemId(0)]"
)]
fn a_tile_writing_past_its_requirement_on_one_node_panics() {
    tile_touching_past_its_requirement(1, true);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "outside its declared [Write BoxRegion[[")]
fn a_tile_writing_past_its_requirement_on_four_nodes_panics() {
    tile_touching_past_its_requirement(4, true);
}

/// A task declaring a read of one bucket of a map, all of whose buckets
/// are held on its one node, reads a key of another bucket.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "Read of key 1 of ItemId(0) outside its declared [Read")]
fn a_map_read_outside_the_declared_bucket_panics() {
    let create = |ctx: &mut RtCtx<'_>| DistMap::<u64, u64>::create(ctx, "M", 16);
    let all = |m: DistMap<u64, u64>, _: &GridBox<1>| Requirement::write(m.id, m.full_region());
    let fill: fn(DistMap<u64, u64>, &mut TaskCtx<'_>, &GridBox<1>) = |m, tctx, _| {
        (0..64).for_each(|k| m.insert(tctx, k, k));
    };
    let one = |m: DistMap<u64, u64>, _: &GridBox<1>| {
        let key0 = BucketRegion::bucket_of_bytes(16, &0u64.to_le_bytes());
        Requirement::read(m.id, m.range_region(key0, key0 + 1))
    };
    let read: fn(DistMap<u64, u64>, &mut TaskCtx<'_>, &GridBox<1>) = |m, tctx, _| {
        assert_eq!(m.get(tctx, &0), Some(0));
        m.get(tctx, &1);
    };
    fill_then_probe(1, create, 1, [all, one], [fill, read]);
}

/// The raw accessor checks the item and the mode: a task that declared a
/// read of a grid asks for its fragment mutably.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "Write of fragment of ItemId(0) outside its declared [Read")]
fn a_mutable_fragment_of_a_read_requirement_panics() {
    let create = |ctx: &mut RtCtx<'_>| Grid::<f64, 1>::create(ctx, "A", [8]);
    let whole = |g: Grid<f64, 1>, _: &GridBox<1>| Requirement::write(g.id, g.full_region());
    let read = |g: Grid<f64, 1>, _: &GridBox<1>| Requirement::read(g.id, g.full_region());
    let fill: fn(Grid<f64, 1>, &mut TaskCtx<'_>, &GridBox<1>) = |g, tctx, _| g.set(tctx, [0], 1.0);
    let raw: fn(Grid<f64, 1>, &mut TaskCtx<'_>, &GridBox<1>) = |g, tctx, _| {
        tctx.fragment_mut::<GridFragment<f64, 1>>(g.id)
            .set(&Point([0]), 2.0);
    };
    fill_then_probe(1, create, 1, [whole, read], [fill, raw]);
}

/// Broadcast a single-owner grid, then migrate part of the fenced region
/// away from its recorder without dropping the broadcast: the fence no
/// longer lies in the recorder's owned region — exactly the corruption
/// consistency check 4 (fenced writes) exists to catch. With `by_hand`
/// the driver asserts `verify_consistency` around the migration and
/// stops; without, it says nothing and asks for one more phase.
fn migrate_a_fenced_region(by_hand: bool) {
    let mut grid: Option<Grid<f64, 1>> = None;
    Runtime::new(config(3, 2)).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "shared", [64]);
                    grid = Some(g);
                    // Keep all data on one owner (no axis-0 spreading).
                    Some(pfor(
                        PforSpec {
                            name: "init",
                            range: g.full_box(),
                            grain: 64,
                            ns_per_point: 2.0,
                            axis0_pieces: 0,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |ctx2, p| g.set(ctx2, p.0, p[0] as f64),
                    ))
                }
                1 => {
                    let g = grid.unwrap();
                    let owner = (0..ctx.nodes())
                        .find(|&l| !ctx.owned_region_at(l, g.id).is_empty_dyn())
                        .expect("grid owned somewhere");
                    ctx.broadcast_replicate(g.id, owner, &g.full_region());
                    if by_hand {
                        // A clean broadcast satisfies all four checks.
                        let violations = ctx.verify_consistency();
                        assert!(violations.is_empty(), "after broadcast: {violations:?}");
                    }
                    let dst = (owner + 1) % ctx.nodes();
                    let slice = BoxRegion::<1>::cuboid([0], [16]);
                    ctx.migrate_region(g.id, &slice, owner, dst);
                    if by_hand {
                        let violations = ctx.verify_consistency();
                        assert!(
                            violations.iter().any(|v| v.contains("no longer owns")),
                            "check 4 must flag the migrated fence, got: {violations:?}"
                        );
                        return None;
                    }
                    Some(pfor(
                        PforSpec {
                            name: "read",
                            range: g.full_box(),
                            grain: 16,
                            ns_per_point: 2.0,
                            axis0_pieces: 4,
                        },
                        move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                        move |ctx2, p| assert_eq!(g.get(ctx2, p.0), p[0] as f64),
                    ))
                }
                _ => unreachable!("no boundary is passed on a broken invariant"),
            }
        },
    );
}

#[test]
fn verify_consistency_flags_migrated_fenced_region() {
    migrate_a_fenced_region(true);
}

/// The oracle bites on its own: the driver never calls
/// `verify_consistency`, and a debug-profile runtime stops the run at the
/// first boundary after the bad migration (`advance_phase`). Release
/// builds compile the check out, so the test exists only where it is on.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "no longer owns")]
fn boundary_oracle_stops_a_run_that_broke_an_invariant() {
    migrate_a_fenced_region(false);
}

/// A broadcast replicates and fences only what its `owner` owns: with the
/// grid first-touched across two localities and the *whole* item named,
/// locality 0's export fence must stop at its own half (fenced-writes
/// check 4 — the fence used to cover the caller's region), and readers
/// of the other half are still served by its owner.
#[test]
fn broadcast_of_a_split_grid_fences_only_the_owners_half() {
    let mut grid: Option<Grid<f64, 1>> = None;
    let report = Runtime::new(config(2, 2)).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "split", [64]);
                    grid = Some(g);
                    Some(pfor(
                        PforSpec {
                            name: "init",
                            range: g.full_box(),
                            grain: 32,
                            ns_per_point: 2.0,
                            axis0_pieces: 2,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                    ))
                }
                1 => {
                    let g = grid.unwrap();
                    let half = BoxRegion::<1>::cuboid([0], [32]);
                    assert!(
                        ctx.owned_region_at(0, g.id).eq_dyn(&half),
                        "first touch splits the grid between the two localities"
                    );
                    ctx.broadcast_replicate(g.id, 0, &g.full_region());
                    let violations = ctx.verify_consistency();
                    assert!(violations.is_empty(), "after broadcast: {violations:?}");
                    // Every tile reads the whole grid: [0,32) from the
                    // broadcast replica (or its owner), [32,64) from
                    // locality 1, which the broadcast never touched.
                    Some(pfor(
                        PforSpec {
                            name: "read-everywhere",
                            range: g.full_box(),
                            grain: 8,
                            ns_per_point: 2.0,
                            axis0_pieces: 8,
                        },
                        move |_tile| vec![Requirement::read(g.id, g.full_region())],
                        move |tctx, p| {
                            assert_eq!(g.get(tctx, [63 - p[0]]), (63 - p[0]) as f64);
                        },
                    ))
                }
                _ => None,
            }
        },
    );
    let broadcast_in = report.monitor.per_locality[1].replicas_in;
    assert!(broadcast_in >= 1, "locality 1 received the owner's half");
}

/// The phased program of the fault/integrity tests — fill `g[i] = i`,
/// `steps` add phases, exact read-back — on the caller's configuration.
/// `Scenario::run_on` checks every cell against the sequential oracle
/// (data preservation + single execution), so returning at all means the
/// grid was fully covered with exact values after whatever faults struck.
fn bump_roundtrip(cfg: RtConfig, steps: usize) -> allscale_core::RunReport {
    bumps(steps).run_on(cfg).1
}

fn bumps(steps: usize) -> Scenario {
    Scenario {
        program: family::bumps(steps),
        ..Scenario::new(0)
    }
}

/// The driver contract, stated with a borrowed local: the driver is
/// asked for phase 0, 1, … in order, and after a fail-stop kill it is
/// asked again from the boundary the recovery restored. It runs between
/// events, so the `Vec` it writes is the caller's own.
#[test]
fn the_driver_is_asked_every_phase_and_again_from_the_restored_boundary() {
    const STEPS: usize = 6;
    fn run(cfg: RtConfig, asked: &mut Vec<usize>) -> allscale_core::RunReport {
        let mut grid = None;
        Runtime::new(cfg).run(|phase, ctx, _| {
            asked.push(phase);
            if phase == 0 {
                grid = Some(Grid::<f64, 1>::create(ctx, "v", [256]));
            }
            let g = grid.expect("created in phase 0");
            (phase <= STEPS).then(|| {
                pfor(
                    PforSpec {
                        name: "bump",
                        range: g.full_box(),
                        grain: 16,
                        ns_per_point: 40.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                )
            })
        })
    }
    let mut asked = Vec::new();
    let clean = run(config(4, 2), &mut asked);
    assert_eq!(asked, (0..=STEPS + 1).collect::<Vec<_>>());

    let (faults, resilience) = common::kill_plan(
        &clean,
        2,
        50,
        FaultPlan::new(1),
        ResilienceConfig::default(),
    );
    let mut cfg = config(4, 2);
    cfg.faults = Some(faults);
    cfg.resilience = Some(resilience);
    cfg.trace = Some(allscale_core::TraceConfig::default());
    asked.clear();
    let report = run(cfg, &mut asked);
    let restored: Vec<u32> = (report.trace.expect("traced").events.iter())
        .filter_map(|e| match e.kind {
            allscale_core::EventKind::Recovery { phase, .. } => Some(phase),
            _ => None,
        })
        .collect();
    // Killed while phase 3 runs: the recovery restores the checkpoint of
    // the boundary before it, and the driver is asked for phase 3 again.
    assert_eq!(
        restored,
        [3],
        "one recovery, to the boundary before phase 3"
    );
    assert_eq!(asked, [0, 1, 2, 3, 3, 4, 5, 6, 7]);
}

/// Regression for the detector single point of failure: killing locality
/// 0 — the failure-detector host — must fail the detection duty over to
/// the next live locality instead of silencing it. The death is still
/// detected, recovery still runs, and the application completes with
/// exact results.
#[test]
fn detector_host_death_fails_over_and_recovers() {
    // Size the kill against a clean run of the same program.
    let clean = bump_roundtrip(config(4, 2), 2);
    let total = clean.finish_time.as_nanos();

    let mut plan = FaultPlan::new(0xdead0);
    plan.kill_at(0, SimTime::from_nanos(total * 6 / 10));
    let mut cfg = config(4, 2);
    cfg.faults = Some(plan);
    cfg.resilience = Some(ResilienceConfig {
        checkpoint_every: 1,
        heartbeat_period: SimDuration::from_nanos((total / 50).max(500)),
        ..ResilienceConfig::default()
    });
    let report = bump_roundtrip(cfg, 2);
    let r = &report.monitor.resilience;
    assert!(
        r.detections >= 1 && r.recoveries >= 1,
        "locality 0's death must be detected by the backup probe ({r:?})"
    );
    assert!(
        r.detection_latency_ns > 0,
        "detection after the death, driven by heartbeats ({r:?})"
    );
}

/// The phase driver runs on the detector host, so what it does — item
/// creation here, replayed from scratch after locality 0 died before the
/// first checkpoint — is traced there, not on the dead locality's track.
#[test]
fn driver_events_after_host_death_land_on_the_new_host() {
    let clean = bump_roundtrip(config(4, 2), 2);
    let total = clean.finish_time.as_nanos();
    let mut plan = FaultPlan::new(0xdead0);
    plan.kill_at(0, SimTime::from_nanos(total / 4));
    let mut cfg = config(4, 2);
    cfg.faults = Some(plan);
    cfg.resilience = Some(ResilienceConfig {
        checkpoint_every: 100,
        heartbeat_period: SimDuration::from_nanos((total / 50).max(500)),
        ..ResilienceConfig::default()
    });
    cfg.trace = Some(allscale_core::TraceConfig::default());
    let report = bump_roundtrip(cfg, 2);
    let trace = report.trace.expect("tracing was enabled");
    let replayed: Vec<u32> = trace
        .events
        .iter()
        .filter(|e| e.epoch >= 1 && matches!(e.kind, allscale_core::EventKind::ItemCreate { .. }))
        .map(|e| e.loc)
        .collect();
    assert!(!replayed.is_empty(), "the restart must re-create the grid");
    assert!(
        replayed.iter().all(|&loc| loc == 1),
        "item creation after locality 0's death is traced on the new host ({replayed:?})"
    );
}

/// Regression for a post-recovery livelock: a driver-initiated
/// `migrate_region` whose destination the detector has declared dead
/// must be remapped to a live locality (the `live_target` rule task
/// placement already follows). Without the remap the dead locality is
/// re-advertised as the region's owner, every later task's transfer
/// request to it is lost, and the phase stalls forever — with no
/// further death for the detector to recover from.
#[test]
fn driver_migration_to_dead_locality_is_remapped() {
    const STEPS: usize = 3;
    const VICTIM: usize = 1;

    fn run(cfg: RtConfig, victim_dies: bool) -> allscale_core::RunReport {
        let stubborn = move |phase: usize, ctx: &mut RtCtx<'_>, items: &[ItemId]| {
            let grid = items[0];
            if phase > STEPS {
                // The detector knows the victim is dead: no post-recovery
                // migration may have handed it ownership back. (In the
                // clean sizing run the victim is a legitimate target.)
                if victim_dies {
                    assert!(
                        ctx.owned_region_at(VICTIM, grid).is_empty_dyn(),
                        "dead locality must not own data after recovery"
                    );
                }
                return;
            }
            // Stubbornly migrate a slice into the victim at every
            // boundary — exactly what a dead-host-oblivious balancing
            // policy does. Post-recovery boundaries must be remapped off
            // the corpse.
            let slice = BoxRegion::<1>::cuboid([0], [24]);
            for src in (0..ctx.nodes()).filter(|&src| src != VICTIM) {
                let owned = ctx.owned_region_at(src, grid);
                let owned = owned
                    .as_any()
                    .downcast_ref::<BoxRegion<1>>()
                    .expect("1-D grid region");
                let moved = owned.intersect(&slice);
                if !moved.is_empty() {
                    ctx.migrate_region(grid, &moved, src, VICTIM);
                    break;
                }
            }
        };
        bumps(STEPS).run_hooked(cfg, stubborn).1
    }

    // Size the kill early against a clean run: the death lands before
    // most migration boundaries, so several of them target the corpse.
    let clean = run(config(4, 2), false);
    let total = clean.finish_time.as_nanos();

    let mut plan = FaultPlan::new(0xdead2);
    plan.kill_at(VICTIM, SimTime::from_nanos(total * 3 / 10));
    let mut cfg = config(4, 2);
    cfg.faults = Some(plan);
    cfg.resilience = Some(ResilienceConfig {
        checkpoint_every: 1,
        heartbeat_period: SimDuration::from_nanos((total / 50).max(500)),
        ..ResilienceConfig::default()
    });
    // Completing at all is the assertion — a stalled phase here is the
    // livelock.
    let report = run(cfg, true);
    let r = &report.monitor.resilience;
    assert!(
        r.detections >= 1 && r.recoveries >= 1,
        "the victim's death must have been detected ({r:?})"
    );
}

/// Checksummed transfers under silent wire corruption: with the
/// integrity service on, every corrupt delivery is detected and
/// re-requested, and the final data is bit-identical to a fault-free
/// run — zero undetected corruptions reach application state.
#[test]
fn checksummed_transfers_mask_wire_corruption() {
    let mut cfg = config(4, 2);
    cfg.faults = Some(FaultPlan::new(0xc0ffee).with_corruption(0.1));
    cfg = cfg.with_integrity(IntegrityConfig {
        scrub_period: None, // isolate the wire-verification path
    });
    // bump_roundtrip asserts exact values, so completing at all proves
    // the corrupted run computed the same data as a fault-free one.
    let report = bump_roundtrip(cfg, 2);
    let t = &report.traffic;
    assert!(
        t.corrupted > 0 && t.corrupt_detected > 0,
        "the 2% corruption arm must have struck and been caught ({t:?})"
    );
    assert_eq!(
        t.corrupt_undetected, 0,
        "verification must catch every hit ({t:?})"
    );
    assert!(
        t.re_requests > 0,
        "detected corruptions are re-requested, not consumed ({t:?})"
    );
}

/// The ablation baseline of the test above, on a program whose tasks read
/// their neighbours' cells through replicas: with the integrity service
/// off, a payload the wire flagged corrupt is imported as it arrived, and
/// the result is poisoned.
#[test]
#[should_panic(expected = "result differs from the oracle")]
fn unverified_transfers_consume_wire_corruption() {
    Scenario {
        program: family::contended(7),
        faults: Some(FaultPlan::new(0xc0ffee).with_corruption(0.1)),
        ..Scenario::new(7)
    }
    .run();
}

/// Replica rot, scrubbed: broadcast replicas rot at rest (rot arm at
/// 100%), the background scrubber detects the divergence against the
/// owner, repairs it, and — when the holder's storage keeps striking —
/// quarantines the replica after three divergences. The
/// owner's authoritative copy stays pristine throughout.
#[test]
fn scrubber_repairs_and_quarantines_rotting_replicas() {
    const N: i64 = 64;
    let mut grids = None;

    let mut cfg = config(2, 2);
    cfg.faults = Some(FaultPlan::new(7).with_rot(1.0));
    cfg = cfg.with_integrity(IntegrityConfig {
        scrub_period: Some(SimDuration::from_micros(3)),
    });
    let report = Runtime::new(cfg).run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    // The broadcast item, kept whole on one owner, and a
                    // separate work grid to keep virtual time advancing
                    // while the scrubber runs.
                    let g = Grid::<f64, 1>::create(ctx, "shared", [N]);
                    let w = Grid::<f64, 1>::create(ctx, "work", [256]);
                    grids = Some((g, w));
                    Some(pfor(
                        PforSpec {
                            name: "init",
                            range: g.full_box(),
                            grain: 64,
                            ns_per_point: 4.0,
                            axis0_pieces: 0,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                    ))
                }
                1 => {
                    let (g, w) = grids.unwrap();
                    let owner = (0..ctx.nodes())
                        .find(|&l| !ctx.owned_region_at(l, g.id).is_empty_dyn())
                        .expect("grid owned somewhere");
                    // The import rots on arrival (rot arm at 100%), so the
                    // replica diverges from the owner immediately.
                    ctx.broadcast_replicate(g.id, owner, &g.full_region());
                    Some(work_phase(w))
                }
                2..=6 => Some(work_phase(grids.unwrap().1)),
                _ => {
                    // The owner's copy must be pristine: rot strikes
                    // replicas at rest, never the authoritative data.
                    let (g, _) = grids.unwrap();
                    let owner = (0..ctx.nodes())
                        .find(|&l| !ctx.owned_region_at(l, g.id).is_empty_dyn())
                        .unwrap();
                    let frag = ctx.fragment_at::<GridFragment<f64, 1>>(owner, g.id);
                    let mut seen = 0;
                    frag.for_each(|p, v| {
                        assert_eq!(*v, p[0] as f64, "owner copy at {p:?}");
                        seen += 1;
                    });
                    assert_eq!(seen, N);
                    None
                }
            }
        },
    );
    fn work_phase(w: Grid<f64, 1>) -> Box<dyn WorkItem> {
        pfor(
            PforSpec {
                name: "work",
                range: w.full_box(),
                grain: 32,
                ns_per_point: 60.0,
                axis0_pieces: 4,
            },
            move |tile| vec![Requirement::write(w.id, BoxRegion::from_box(*tile))],
            move |tctx, p| w.set(tctx, p.0, 1.0),
        )
    }
    let g = &report.monitor.integrity;
    assert!(g.rot_injected >= 1, "the rot arm must have struck ({g:?})");
    assert!(
        g.scrub_passes >= 3 && g.replicas_scrubbed >= 1,
        "the scrubber must have audited the replica ({g:?})"
    );
    assert!(
        g.scrub_divergent >= 1 && g.scrub_repairs >= 1,
        "divergence detected and repaired ({g:?})"
    );
    assert!(
        g.quarantines >= 1,
        "a holder that keeps rotting is quarantined ({g:?})"
    );
}

/// Checkpoint verification: with the rot arm striking every stored
/// shard, recovery must reject the corrupt checkpoints and fall back to
/// a full restart rather than restore rotted state — and the restarted
/// run still produces exact results.
#[test]
fn recovery_rejects_rotted_checkpoints_and_restarts() {
    let clean = bump_roundtrip(config(4, 2), 2);
    let total = clean.finish_time.as_nanos();

    let mut plan = FaultPlan::new(0xbad_cafe).with_rot(1.0);
    plan.kill_at(2, SimTime::from_nanos(total * 7 / 10));
    let mut cfg = config(4, 2);
    cfg.faults = Some(plan);
    cfg.resilience = Some(ResilienceConfig {
        checkpoint_every: 1,
        heartbeat_period: SimDuration::from_nanos((total / 50).max(500)),
        ..ResilienceConfig::default()
    });
    cfg = cfg.with_integrity(IntegrityConfig { scrub_period: None });
    let report = bump_roundtrip(cfg, 2);
    let g = &report.monitor.integrity;
    assert!(
        g.checkpoint_shards_rejected > 0 && g.checkpoint_fallbacks >= 1,
        "rotted checkpoints must be refused at restore ({g:?})"
    );
    assert!(g.rot_injected >= 1, "{g:?}");
    assert!(report.monitor.resilience.recoveries >= 1);
}

/// Retention-depth regression (`CheckpointConfig::keep`): with the two
/// newest retained checkpoints corrupted at rest, recovery must fall
/// back past both rejected links. A depth of 4 lands on the
/// third-newest checkpoint; the old fixed depth of 2 has nothing left
/// and restarts from scratch. Both runs still produce exact results.
#[test]
fn recovery_falls_back_the_configured_retention_depth() {
    use allscale_core::{CheckpointConfig, CkptMode};
    const STEPS: usize = 4;

    // `bump_roundtrip`, but the two checkpoints committed after the
    // driver's call two boundaries before the last bump are stored with a
    // byte flipped — targeted at-rest corruption via the test hook, no
    // random rot arm — so the two newest at the last bump boundary are
    // corrupt. Returns how many checkpoints were retained at that
    // boundary, and the report.
    fn run(cfg: RtConfig, corrupt: bool) -> (usize, allscale_core::RunReport) {
        let mut retained = 0;
        let (_, report) = bumps(STEPS).run_hooked(cfg, |phase, ctx, _| {
            if corrupt && phase == STEPS - 2 {
                ctx.corrupt_next_checkpoints(2);
            }
            if corrupt && phase == STEPS {
                retained = ctx.retained_checkpoints();
            }
        });
        (retained, report)
    }

    // Blocking full snapshots keep the commit/corruption ordering at the
    // boundary trivial; cadence 1 fills the retention window quickly.
    let res = |keep: usize, heartbeat: SimDuration| ResilienceConfig {
        checkpoint_every: 1,
        ckpt: CheckpointConfig {
            mode: CkptMode::Sync,
            incremental: false,
            keep,
            ..CheckpointConfig::default()
        },
        heartbeat_period: heartbeat,
    };
    // Size the kill against the identically billed clean run: right
    // after the last bump boundary's corruption, early enough that
    // detection and recovery land before the read-back boundary commits
    // a fresh checkpoint (any kill in 68–82 % of the run does).
    let mut cfg = config(4, 2);
    cfg.resilience = Some(res(4, SimDuration::from_micros(50)));
    cfg = cfg.with_integrity(IntegrityConfig { scrub_period: None });
    let (_, clean) = run(cfg, false);
    let total = clean.finish_time.as_nanos();
    let hb = SimDuration::from_nanos((total / 200).max(100));

    // Depth 4: fall back across the two rejected checkpoints onto the
    // third-newest and restore from it.
    let mut plan = FaultPlan::new(0x4ee9);
    plan.kill_at(2, SimTime::from_nanos(total * 75 / 100));
    let mut cfg4 = config(4, 2);
    cfg4.faults = Some(plan.clone());
    cfg4.resilience = Some(res(4, hb));
    cfg4 = cfg4.with_integrity(IntegrityConfig { scrub_period: None });
    let (retained, report) = run(cfg4, true);
    assert_eq!(retained, 4, "keep=4 retains four checkpoints");
    let g = &report.monitor.integrity;
    assert!(
        g.checkpoint_fallbacks >= 2 && g.checkpoint_shards_rejected >= 2,
        "both corrupted checkpoints must be rejected ({g:?})"
    );
    let r = &report.monitor.resilience;
    assert!(r.recoveries >= 1, "{r:?}");
    assert!(
        r.restored_bytes > 0,
        "depth 4 restores a surviving checkpoint instead of restarting ({r:?})"
    );

    // Depth 2 (the old fixed limit): every retained checkpoint is
    // corrupt, so the same fault forces a full restart.
    let mut cfg2 = config(4, 2);
    cfg2.faults = Some(plan);
    cfg2.resilience = Some(res(2, hb));
    cfg2 = cfg2.with_integrity(IntegrityConfig { scrub_period: None });
    let (retained, report) = run(cfg2, true);
    assert_eq!(retained, 2, "keep=2 retains two checkpoints");
    let r = &report.monitor.resilience;
    assert_eq!(
        r.restored_bytes, 0,
        "with the whole window rejected, recovery restarts from scratch ({r:?})"
    );
    assert!(report.monitor.integrity.checkpoint_fallbacks >= 2);
}

/// A failure that strikes while an asynchronous drain is still in
/// flight must tear the pending capture (never restore a partially
/// drained snapshot) and recover from the last *committed* checkpoint —
/// and the replay still produces exact results.
#[test]
fn mid_drain_kill_recovers_from_last_committed_checkpoint() {
    use allscale_core::{CheckpointConfig, StorageParams};

    // Slow the remote tier far below the phase rate so a drain is in
    // flight essentially all the time (every boundary write-fences).
    let res = |heartbeat: SimDuration| {
        let ck = CheckpointConfig {
            storage: StorageParams {
                remote_write_bps: 10e6,
                ..StorageParams::default()
            },
            ..CheckpointConfig::default()
        };
        ResilienceConfig {
            checkpoint_every: 1,
            ckpt: ck,
            heartbeat_period: heartbeat,
        }
    };
    let mut cfg = config(4, 2);
    cfg.resilience = Some(res(SimDuration::from_micros(50)));
    let clean = bump_roundtrip(cfg, 2);
    let total = clean.finish_time.as_nanos();

    let mut plan = FaultPlan::new(0x70c4);
    plan.kill_at(2, SimTime::from_nanos(total / 2));
    let mut cfg = config(4, 2);
    cfg.faults = Some(plan);
    cfg.resilience = Some(res(SimDuration::from_nanos((total / 100).max(100))));
    let report = bump_roundtrip(cfg, 2);
    let r = &report.monitor.resilience;
    assert!(
        r.ckpt_torn >= 1,
        "the kill must land mid-drain and tear the capture ({r:?})"
    );
    assert!(r.recoveries >= 1, "{r:?}");
    assert!(
        r.ckpt_fence_ns > 0,
        "boundaries must have write-fenced on the slow drains ({r:?})"
    );
}
