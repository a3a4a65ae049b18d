//! Conformance of the runtime implementation to the formal application
//! model (paper Section 2):
//!
//! - the runtime's distributed state is checked against the model's
//!   invariants at every phase boundary of real application runs — by
//!   the runtime itself in this (debug) profile (`advance_phase` calls
//!   `RtCtx::verify_consistency`: exclusive ownership, index/DIM
//!   agreement, quiescent locks, fenced writes); the tests here assert
//!   it only *between* boundaries, right after a driver-side migration;
//! - the executable model itself (`allscale-model`) is exercised on
//!   randomized programs and schedules, asserting the five properties of
//!   Section 2.5 — including programs shaped like the applications
//!   (fork-join phases over partitioned items).

use std::cell::RefCell;
use std::rc::Rc;

type GridPair = Rc<RefCell<Option<(Grid<f64, 2>, Grid<f64, 2>)>>>;

mod common;

use allscale_core::{
    pfor, FaultPlan, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue, WorkItem,
};
use allscale_model as model;
use allscale_region::{BoxRegion, GridBox, GridFragment, Point};
use common::{migrate_random_slice, Program, ProgramSpec, Scenario, FAMILY};
use proptest::prelude::*;

/// Deterministic xorshift64 PRNG for the randomized programs below —
/// the shared kernel, stream-compatible with the copy this harness
/// historically inlined.
use allscale_des::rng::XorShift64 as XorShift;

// ------------------------------------------------- runtime-side conformance

/// Run a multi-phase double-buffered computation; the runtime verifies
/// the model invariants before every one of its `STEPS + 2` boundaries.
#[test]
fn runtime_state_satisfies_model_invariants_every_phase() {
    const N: i64 = 32;
    const STEPS: usize = 4;
    let grids: GridPair = Rc::new(RefCell::new(None));
    let gc = grids.clone();
    let checked = Rc::new(RefCell::new(0usize));
    let ck = checked.clone();

    let runtime = Runtime::new(RtConfig::test(4, 2));
    runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            *ck.borrow_mut() += 1;

            if phase == 0 {
                let a = Grid::<f64, 2>::create(ctx, "A", [N, N]);
                let b = Grid::<f64, 2>::create(ctx, "B", [N, N]);
                *gc.borrow_mut() = Some((a, b));
                return Some(pfor(
                    PforSpec {
                        name: "init",
                        range: a.full_box(),
                        grain: 32,
                        ns_per_point: 2.0,
                        axis0_pieces: 8,
                    },
                    move |tile| {
                        vec![
                            Requirement::write(a.id, BoxRegion::from_box(*tile)),
                            Requirement::write(b.id, BoxRegion::from_box(*tile)),
                        ]
                    },
                    move |tctx, p| {
                        a.set(tctx, p.0, p[0] as f64);
                        b.set(tctx, p.0, 0.0);
                    },
                ));
            }
            if phase <= STEPS {
                let (a, b) = gc.borrow().unwrap();
                let (src, dst) = if phase % 2 == 1 { (a, b) } else { (b, a) };
                let universe = GridBox::from_shape([N, N]).unwrap();
                return Some(pfor(
                    PforSpec {
                        name: "step",
                        range: GridBox::new(Point([1, 1]), Point([N - 1, N - 1])).unwrap(),
                        grain: 32,
                        ns_per_point: 3.0,
                        axis0_pieces: 8,
                    },
                    move |tile| {
                        let read = BoxRegion::from_box(*tile).dilate_within(1, &universe);
                        vec![
                            Requirement::read(src.id, read),
                            Requirement::write(dst.id, BoxRegion::from_box(*tile)),
                        ]
                    },
                    move |tctx, p| {
                        let v = src.get(tctx, [p[0] - 1, p[1]]) + src.get(tctx, [p[0] + 1, p[1]]);
                        dst.set(tctx, p.0, v);
                    },
                ));
            }
            None
        },
    );
    assert_eq!(*checked.borrow(), STEPS + 2, "passed every boundary");
}

/// Ownership migration (load balancing) preserves the invariants too.
#[test]
fn migration_preserves_model_invariants() {
    let grid_cell: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = grid_cell.clone();
    let runtime = Runtime::new(RtConfig::test(4, 2));
    runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "v", [256]);
                    *gc.borrow_mut() = Some(g);
                    Some(pfor(
                        PforSpec {
                            name: "touch",
                            range: g.full_box(),
                            grain: 16,
                            ns_per_point: 2.0,
                            axis0_pieces: 16,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, 1.0),
                    ))
                }
                1 => {
                    let g = gc.borrow().unwrap();
                    // Move whatever locality 0 owns to locality 3.
                    let owned = ctx.owned_region_at(0, g.id);
                    if !owned.is_empty_dyn() {
                        ctx.migrate_region(g.id, owned.as_ref(), 0, 3);
                    }
                    let violations = ctx.verify_consistency();
                    assert!(violations.is_empty(), "after migration: {violations:?}");
                    // One more compute phase over the migrated layout.
                    Some(pfor(
                        PforSpec {
                            name: "update",
                            range: g.full_box(),
                            grain: 16,
                            ns_per_point: 2.0,
                            axis0_pieces: 16,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| {
                            let v = g.get(tctx, p.0);
                            g.set(tctx, p.0, v + 1.0);
                        },
                    ))
                }
                _ => {
                    // Locality 0 must own nothing after donating its block
                    // (tasks followed the data instead of pulling it back).
                    let g = gc.borrow().unwrap();
                    assert!(ctx.owned_region_at(0, g.id).is_empty_dyn());
                    None
                }
            }
        },
    );
}

/// The conformance matrix: every scheduler × batching × integrity ×
/// driver-side migrations × {clean, lossy fabric, lossy fabric + a
/// fail-stop kill with checkpointed recovery}, on a few randomized
/// programs. The runtime checks the Section 2.5 invariants itself at
/// every boundary of every one of these runs and `Scenario::run` checks
/// each result against the sequential oracle, so all that is left to
/// assert here is that the whole family agrees bit for bit.
#[test]
fn conformance_matrix() {
    for seed in 0..3u64 {
        let mut reference: Option<Vec<u64>> = None;
        let mut point = seed;
        for sched in FAMILY {
            for (batching, integrity, migrations) in
                (0..8).map(|m| (m & 1 != 0, m & 2 != 0, m & 4 != 0))
            {
                let scenario = Scenario {
                    sched,
                    batching,
                    integrity,
                    migrations,
                    ..Scenario::new(seed)
                };
                // Corruption is survivable only with the integrity
                // service on; without it the fabric just drops.
                let lossy = || {
                    let plan = FaultPlan::new(seed ^ 0x1055_7ab1e).with_drop_rate(0.005);
                    if integrity {
                        plan.with_corruption(0.01)
                    } else {
                        plan
                    }
                };
                let on_lossy_fabric = Scenario {
                    faults: Some(lossy()),
                    ..scenario.clone()
                };
                // Victim and kill instant walk with the matrix point.
                // `run_killed` runs the clean arm and asserts the
                // recovered result equals it.
                point += 1;
                let (victim, percent) = ((point % 4) as usize, 25 + (point % 6) * 11);
                for bits in [
                    on_lossy_fabric.run().0,
                    scenario.run_killed(victim, percent, lossy()).0,
                ] {
                    let want = reference.get_or_insert_with(|| bits.clone());
                    assert_eq!(*want, bits, "{scenario:?} left the family");
                }
            }
        }
    }
}

// --------------------------------------------------- model-side conformance

/// Build a model program shaped like one pfor phase: an entry task
/// creating an item, spawning `k` writer tasks over disjoint partitions,
/// syncing on all of them.
fn pfor_like_program(k: u32, elems_per_task: u32) -> model::Program {
    use model::{Action, ItemId, ProgramBuilder, TaskId, VariantSpec};
    let mut b = ProgramBuilder::new();
    let item = ItemId(0);
    b.item(item, k * elems_per_task);
    for t in 0..k {
        let elems: Vec<u32> = (t * elems_per_task..(t + 1) * elems_per_task).collect();
        b.variant(
            TaskId(t + 1),
            VariantSpec {
                writes: model::program::req(&[(item, &elems)]),
                ..Default::default()
            },
        );
    }
    let mut actions = vec![Action::Create(item)];
    for t in 0..k {
        actions.push(Action::Spawn(TaskId(t + 1)));
    }
    for t in 0..k {
        actions.push(Action::Sync(TaskId(t + 1)));
    }
    b.variant(
        TaskId(0),
        VariantSpec {
            actions,
            ..Default::default()
        },
    );
    b.build(TaskId(0))
}

#[test]
fn pfor_shaped_model_programs_satisfy_all_properties() {
    for (seed, nodes, cores) in [(1u64, 2u32, 2u32), (2, 4, 2), (3, 8, 1), (4, 3, 3)] {
        let program = pfor_like_program(6, 4);
        let arch = model::Architecture::cluster(nodes, cores);
        let mut driver = model::Driver::new(seed);
        let (trace, outcome) = driver.run(&program, arch);
        assert_eq!(
            outcome,
            model::Outcome::Terminated,
            "seed {seed} on {nodes}x{cores}"
        );
        model::properties::check_all(&program, &trace)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn deep_task_trees_satisfy_all_properties() {
    use model::{Action, ProgramBuilder, TaskId, VariantSpec};
    // A binary spawn tree of depth 3 (like a prec split tree).
    let mut b = ProgramBuilder::new();
    let mut next_task = 1u32;
    // Build bottom-up: leaves first.
    fn subtree(
        b: &mut ProgramBuilder,
        next: &mut u32,
        depth: u32,
    ) -> TaskId {
        let me = TaskId(*next);
        *next += 1;
        if depth == 0 {
            b.variant(me, VariantSpec::default());
            return me;
        }
        let l = subtree(b, next, depth - 1);
        let r = subtree(b, next, depth - 1);
        b.variant(
            me,
            VariantSpec {
                actions: vec![
                    Action::Spawn(l),
                    Action::Spawn(r),
                    Action::Sync(l),
                    Action::Sync(r),
                ],
                ..Default::default()
            },
        );
        me
    }
    let l = subtree(&mut b, &mut next_task, 3);
    let r = subtree(&mut b, &mut next_task, 3);
    b.variant(
        TaskId(0),
        VariantSpec {
            actions: vec![
                Action::Spawn(l),
                Action::Spawn(r),
                Action::Sync(l),
                Action::Sync(r),
            ],
            ..Default::default()
        },
    );
    let program = b.build(TaskId(0));
    for seed in 0..10 {
        let mut driver = model::Driver::new(seed);
        let (trace, outcome) = driver.run(&program, model::Architecture::cluster(4, 2));
        assert_eq!(outcome, model::Outcome::Terminated, "seed {seed}");
        model::properties::check_all(&program, &trace)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

/// Generate a random multi-phase program shaped like the applications:
/// the entry task creates one or two items, then per phase spawns writers
/// over a random disjoint partition of one item, syncs them, spawns
/// readers over random element subsets, syncs those — and sometimes
/// destroys an item at the end. Fork-join structure guarantees
/// termination; partitions make writes conflict-free by construction, so
/// every Section 2.5 property must hold on every schedule.
fn random_phased_program(rng: &mut XorShift) -> model::Program {
    use model::{Action, ItemId, ProgramBuilder, TaskId, VariantSpec};
    let mut b = ProgramBuilder::new();
    let n_items = 1 + rng.below(2) as u32;
    let elems = 8 + 4 * rng.below(3) as u32; // 8, 12, or 16 elements
    for d in 0..n_items {
        b.item(ItemId(d), elems);
    }
    let mut next_task = 1u32;
    let mut actions: Vec<Action> = (0..n_items).map(|d| Action::Create(ItemId(d))).collect();
    for _phase in 0..1 + rng.below(3) {
        let item = ItemId(rng.below(n_items as u64) as u32);
        // Writers over a random disjoint partition of the item.
        let k = 2 + rng.below(4); // 2..=5 writers
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        for e in 0..elems {
            parts[rng.below(k) as usize].push(e);
        }
        let mut wave = Vec::new();
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            let t = TaskId(next_task);
            next_task += 1;
            b.variant(
                t,
                VariantSpec {
                    writes: model::program::req(&[(item, &part)]),
                    ..Default::default()
                },
            );
            wave.push(t);
        }
        actions.extend(wave.iter().map(|&t| Action::Spawn(t)));
        actions.extend(wave.iter().map(|&t| Action::Sync(t)));
        // Readers over random, freely overlapping subsets.
        let mut wave = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut subset: Vec<u32> = (0..elems).filter(|_| rng.below(2) == 0).collect();
            if subset.is_empty() {
                subset.push(rng.below(elems as u64) as u32);
            }
            let t = TaskId(next_task);
            next_task += 1;
            b.variant(
                t,
                VariantSpec {
                    reads: model::program::req(&[(item, &subset)]),
                    ..Default::default()
                },
            );
            wave.push(t);
        }
        actions.extend(wave.iter().map(|&t| Action::Spawn(t)));
        actions.extend(wave.iter().map(|&t| Action::Sync(t)));
    }
    if rng.below(2) == 0 {
        actions.push(Action::Destroy(ItemId(0)));
    }
    b.variant(
        TaskId(0),
        VariantSpec {
            actions,
            ..Default::default()
        },
    );
    b.build(TaskId(0))
}

/// Randomized multi-phase programs under randomized schedules — including
/// schedules with elevated chaos (spontaneous migrations/replications) —
/// satisfy all five model properties of Section 2.5.
#[test]
fn randomized_phased_programs_satisfy_all_properties() {
    let archs = [
        model::Architecture::cluster(2, 2),
        model::Architecture::cluster(4, 2),
        model::Architecture::cluster(3, 1),
        model::Architecture::shared(4),
    ];
    for seed in 0..12u64 {
        let mut rng = XorShift::new(seed);
        let program = random_phased_program(&mut rng);
        let arch = archs[(seed % archs.len() as u64) as usize].clone();
        let mut driver = model::Driver::new(seed ^ 0xdead_beef);
        // Elevated chaos: more spontaneous data movement, stressing
        // exclusive writes and data preservation under migration.
        driver.chaos_percent = 60;
        let (trace, outcome) = driver.run(&program, arch);
        assert_eq!(outcome, model::Outcome::Terminated, "seed {seed}");
        model::properties::check_all(&program, &trace)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        assert!(trace.terminated(), "seed {seed}");
    }
}

// ------------------------------------------- randomized runtime migrations

/// Randomized multi-phase runtime runs with random region migrations
/// between phases: the model invariants hold at every boundary, the data
/// is preserved exactly (total element count and every value), and a final
/// read-back phase observes the values written before the migrations.
#[test]
fn randomized_migrations_preserve_data_and_invariants() {
    const N: i64 = 128;
    const MIGRATION_PHASES: usize = 3;
    for seed in 0..4u64 {
        let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
        let gc = grid.clone();
        let nodes = 4usize;
        let runtime = Runtime::new(RtConfig::test(nodes, 2));
        runtime.run(
            move |phase: usize,
                  ctx: &mut RtCtx<'_>,
                  _prev: TaskValue|
                  -> Option<Box<dyn WorkItem>> {
                if phase == 0 {
                    let g = Grid::<f64, 1>::create(ctx, "v", [N]);
                    *gc.borrow_mut() = Some(g);
                    return Some(pfor(
                        PforSpec {
                            name: "fill",
                            range: g.full_box(),
                            grain: 16,
                            ns_per_point: 2.0,
                            axis0_pieces: 8,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                    ));
                }
                let g = gc.borrow().unwrap();
                // Data preservation: fragments always tile the grid exactly.
                let total: usize = (0..ctx.nodes())
                    .map(|l| ctx.fragment_at::<GridFragment<f64, 1>>(l, g.id).len())
                    .sum();
                assert_eq!(total, N as usize, "seed {seed}, phase {phase}");
                if phase <= MIGRATION_PHASES {
                    // Random migration of a random slice of a random donor
                    // (asserts the invariants right after the move).
                    migrate_random_slice(ctx, g.id, N, seed, phase);
                    // A no-write phase keeps virtual time moving between
                    // migrations without touching the values.
                    return Some(pfor(
                        PforSpec {
                            name: "observe",
                            range: g.full_box(),
                            grain: 32,
                            ns_per_point: 1.0,
                            axis0_pieces: 4,
                        },
                        move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| {
                            let _ = g.get(tctx, p.0);
                        },
                    ));
                }
                if phase == MIGRATION_PHASES + 1 {
                    // Every value written before the migrations survived them.
                    return Some(pfor(
                        PforSpec {
                            name: "verify",
                            range: g.full_box(),
                            grain: 16,
                            ns_per_point: 1.0,
                            axis0_pieces: 8,
                        },
                        move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| {
                            assert_eq!(g.get(tctx, p.0), p[0] as f64, "value lost at {p:?}");
                        },
                    ));
                }
                None
            },
        );
    }
}

// -------------------------------- checkpoint → chaos → kill → recover roundtrip

/// Full roundtrip for one seed: the resilience workload — fill, four add
/// phases with a random region migration before each, exact read-back —
/// run clean, then rerun on a lossy fabric with one locality
/// fail-stopping mid-run. The recovered run must read back the same data
/// (`run_killed` asserts it, and that the death was detected and
/// recovered); the runtime checks the invariants at every boundary,
/// including those reached while a locality is dead but not yet detected
/// and those replayed after the recovery.
fn chaos_roundtrip(seed: u64) {
    // Kill a random victim at 25%–80% of the failure-free duration —
    // anywhere from "before the first checkpoint" (full-restart path) to
    // "deep into the run".
    let victim = (seed % 4) as usize;
    let percent = 25 + (seed % 6) * 11;
    let lossy = FaultPlan::new(seed ^ 0x5eed_fa57).with_drop_rate(0.005);
    let scenario = Scenario {
        program: Program::Grid(ProgramSpec::bumps(4)),
        migrations: true,
        ..Scenario::new(seed)
    };
    let (_, report) = scenario.run_killed(victim, percent, lossy);
    let r = &report.monitor.resilience;
    assert!(
        r.heartbeats > 0 && r.detection_latency_ns > 0,
        "seed {seed}: detection must be driven by heartbeats ({r:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Checkpoint → random migrations → fail-stop kill → recover, on
    /// randomized seeds: the recovered run reads back exact data.
    #[test]
    fn checkpointed_runs_survive_fail_stop_faults(seed in 0u64..(1 << 32)) {
        chaos_roundtrip(seed);
    }
}

/// The detector's host dies while three rounds' acks are in flight (a
/// heartbeat period shorter than the probe round trip): the acks it can no
/// longer receive are no evidence against its peers, so the host is the
/// only locality convicted.
#[test]
fn a_dying_prober_convicts_nobody_but_itself() {
    let lossy = FaultPlan::new(1 ^ 0x5eed_fa57).with_drop_rate(0.005);
    let (_, report) = Scenario::new(1).run_killed(0, 36, lossy);
    assert_eq!(report.monitor.resilience.detections, 1);
}

/// Seeded fault-injection soak: many deterministic seeds sweeping victim,
/// kill time, and chaos layout. Finishes in well under a second, so it
/// runs with the suite.
#[test]
fn fault_injection_soak() {
    for seed in 0..24u64 {
        chaos_roundtrip(seed);
    }
}
