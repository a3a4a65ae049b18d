//! Scheduler-family conformance: the pluggable schedulers are pure
//! *performance* policies, never *semantics* policies.
//!
//! A randomized family of multi-phase grid programs is run under every
//! scheduler — the direct data-aware default and the work-stealing
//! family with each victim policy — crossed with the chaos dimensions
//! the runtime supports (transfer batching, random region migrations,
//! fail-stop faults with checkpoint/recovery). For every combination:
//!
//! - the application result must be **bit-identical** across all four
//!   schedulers (same seed ⇒ same final grid, compared as raw `f64`
//!   bits);
//! - the five Section 2.5 model invariants must hold at **every phase
//!   boundary** (`RtCtx::verify_consistency`);
//! - the steal-protocol accounting must tie out on fault-free runs
//!   (every request answered exactly once), and the direct scheduler
//!   must never touch a queue.

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor, BatchParams, FaultPlan, Grid, PforSpec, Requirement, ResilienceConfig, RtConfig, RtCtx,
    RunReport, Runtime, StealConfig, TaskValue, VictimPolicy, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_region::{BoxRegion, Region};
use proptest::prelude::*;

/// Deterministic xorshift64 PRNG — the shared kernel, stream-compatible
/// with the copy this harness historically inlined.
use allscale_des::rng::XorShift64 as XorShift;

// ------------------------------------------------------- scheduler family

/// The full scheduler family under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sched {
    DataAware,
    Stealing(VictimPolicy),
}

const FAMILY: [Sched; 4] = [
    Sched::DataAware,
    Sched::Stealing(VictimPolicy::RoundRobin),
    Sched::Stealing(VictimPolicy::LeastLoaded),
    Sched::Stealing(VictimPolicy::Random),
];

impl Sched {
    fn apply(self, cfg: RtConfig) -> RtConfig {
        match self {
            Sched::DataAware => cfg,
            Sched::Stealing(victim) => cfg.with_work_stealing(StealConfig {
                victim,
                ..StealConfig::default()
            }),
        }
    }
}

// ------------------------------------------------- randomized program family

/// Parameters of one randomized multi-phase grid program, drawn
/// deterministically from a seed. Every phase applies an element-wise,
/// order-independent update (exact in f64), so the final grid is a pure
/// function of the program — any divergence across schedulers is a
/// scheduling bug, not numerical noise.
#[derive(Clone, Debug)]
struct ProgramSpec {
    n: i64,
    grain: u64,
    pieces: u64,
    /// Per-phase op code: 0 = add a phase constant, 1 = double,
    /// 2 = add an index-keyed term.
    ops: Vec<u8>,
}

impl ProgramSpec {
    fn draw(seed: u64) -> Self {
        let mut rng = XorShift::new(seed ^ 0x5ced_u64);
        ProgramSpec {
            n: 48 + 16 * rng.below(4) as i64,
            grain: 8 + 4 * rng.below(3),
            pieces: 4 + rng.below(5),
            ops: (0..2 + rng.below(3)).map(|_| rng.below(3) as u8).collect(),
        }
    }

    /// The value cell `i` must hold after all phases — the oracle.
    fn expected(&self, i: i64) -> f64 {
        let mut v = i as f64;
        for (phase, &op) in self.ops.iter().enumerate() {
            v = apply_op(op, phase, i, v);
        }
        v
    }
}

fn apply_op(op: u8, phase: usize, i: i64, v: f64) -> f64 {
    match op {
        0 => v + (3 * phase + 1) as f64,
        1 => v * 2.0,
        _ => v + (i % 7) as f64,
    }
}

/// Chaos dimensions crossed with the scheduler family.
#[derive(Clone, Copy, Debug, Default)]
struct Chaos {
    batching: bool,
    migrations: bool,
}

/// Run one randomized program under one scheduler, checking the model
/// invariants at every phase boundary, and return the final grid as raw
/// bits plus the run report.
fn run_program(
    seed: u64,
    sched: Sched,
    chaos: Chaos,
    faults: Option<FaultPlan>,
    resilience: Option<ResilienceConfig>,
) -> (Vec<u64>, RunReport) {
    let spec = ProgramSpec::draw(seed);
    let n = spec.n;
    let phases = spec.ops.len();
    let nodes = 4usize;

    let mut cfg = sched.apply(RtConfig::test(nodes, 2));
    if chaos.batching {
        cfg = cfg.with_batching(BatchParams::default());
    }
    cfg.faults = faults;
    cfg.resilience = resilience;

    let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = grid.clone();
    let digest: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; n as usize]));
    let dc = digest.clone();
    let spec_in = spec.clone();

    let runtime = Runtime::new(cfg);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            let violations = ctx.verify_consistency();
            assert!(
                violations.is_empty(),
                "seed {seed}, {sched:?}, phase {phase}: {violations:?}"
            );
            if phase == 0 {
                let g = Grid::<f64, 1>::create(ctx, "conf", [n]);
                *gc.borrow_mut() = Some(g);
                return Some(pfor(
                    PforSpec {
                        name: "fill",
                        range: g.full_box(),
                        grain: spec_in.grain,
                        ns_per_point: 2.0,
                        axis0_pieces: spec_in.pieces,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                ));
            }
            let g = gc.borrow().unwrap();
            if phase <= phases {
                if chaos.migrations {
                    // Deterministic in (seed, phase) so a boundary
                    // replayed after recovery redoes the same movement.
                    let mut rng = XorShift::new(seed.wrapping_mul(0x9e3779b9) ^ phase as u64);
                    let src = rng.below(nodes as u64) as usize;
                    let dst = rng.below(nodes as u64) as usize;
                    if src != dst {
                        let lo = rng.below(n as u64) as i64;
                        let len = 1 + rng.below(32) as i64;
                        let slice = BoxRegion::<1>::cuboid([lo], [(lo + len).min(n)]);
                        let owned = ctx.owned_region_at(src, g.id);
                        let owned = owned
                            .as_any()
                            .downcast_ref::<BoxRegion<1>>()
                            .expect("1-D grid region")
                            .clone();
                        let moved = owned.intersect(&slice);
                        if !moved.is_empty() {
                            ctx.migrate_region(g.id, &moved, src, dst);
                            let violations = ctx.verify_consistency();
                            assert!(
                                violations.is_empty(),
                                "seed {seed}, {sched:?}, phase {phase}, post-migration: \
                                 {violations:?}"
                            );
                        }
                    }
                }
                let op = spec_in.ops[phase - 1];
                return Some(pfor(
                    PforSpec {
                        name: "op",
                        range: g.full_box(),
                        grain: spec_in.grain,
                        ns_per_point: 3.0,
                        axis0_pieces: spec_in.pieces,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        let v = g.get(tctx, p.0);
                        g.set(tctx, p.0, apply_op(op, phase - 1, p[0], v));
                    },
                ));
            }
            if phase == phases + 1 {
                let dc = dc.clone();
                return Some(pfor(
                    PforSpec {
                        name: "readback",
                        range: g.full_box(),
                        grain: spec_in.grain,
                        ns_per_point: 1.0,
                        axis0_pieces: spec_in.pieces,
                    },
                    move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        dc.borrow_mut()[p[0] as usize] = g.get(tctx, p.0).to_bits();
                    },
                ));
            }
            None
        },
    );

    // The digest must match the arithmetic oracle bit for bit.
    let bits = digest.borrow().clone();
    for (i, &b) in bits.iter().enumerate() {
        assert_eq!(
            f64::from_bits(b),
            spec.expected(i as i64),
            "seed {seed}, {sched:?}: wrong value at {i}"
        );
    }
    (bits, report)
}

/// Fault-free accounting checks for one run of the family.
fn check_accounting(sched: Sched, report: &RunReport, seed: u64) {
    let s = &report.monitor.scheduler;
    match sched {
        Sched::DataAware => {
            assert_eq!(
                (s.tasks_queued, s.steal_requests, s.steal_grants, s.steal_denies, s.handoffs),
                (0, 0, 0, 0, 0),
                "seed {seed}: the direct scheduler must never touch queues"
            );
        }
        Sched::Stealing(_) => {
            assert!(s.tasks_queued > 0, "seed {seed}: queued admissions expected");
            // Handoffs are grants that never had a request leg, so on a
            // fault-free run: requests = requested grants + denies.
            assert!(
                s.handoffs <= s.steal_grants,
                "seed {seed}, {sched:?}: handoffs are a subset of grants ({s:?})"
            );
            assert_eq!(
                s.steal_requests,
                (s.steal_grants - s.handoffs) + s.steal_denies,
                "seed {seed}, {sched:?}: every fault-free steal request is \
                 answered exactly once ({s:?})"
            );
        }
    }
}

/// Run one seed across the whole family under the given chaos, assert
/// bit-identical results, and return the per-scheduler reports.
fn family_agrees(seed: u64, chaos: Chaos) -> Vec<RunReport> {
    let mut reference: Option<Vec<u64>> = None;
    let mut reports = Vec::new();
    for sched in FAMILY {
        let (bits, report) = run_program(seed, sched, chaos, None, None);
        check_accounting(sched, &report, seed);
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(
                want, &bits,
                "seed {seed}, {chaos:?}: {sched:?} diverged from DataAware"
            ),
        }
        reports.push(report);
    }
    reports
}

// ----------------------------------------------------------------- tests

#[test]
fn policies_agree_on_randomized_programs() {
    for seed in 0..5u64 {
        family_agrees(seed, Chaos::default());
    }
}

#[test]
fn policies_agree_under_batching() {
    for seed in 5..9u64 {
        family_agrees(
            seed,
            Chaos {
                batching: true,
                migrations: false,
            },
        );
    }
}

#[test]
fn policies_agree_under_migration_chaos() {
    for seed in 9..13u64 {
        family_agrees(
            seed,
            Chaos {
                batching: false,
                migrations: true,
            },
        );
    }
}

// ------------------------------------------------ imbalanced workload

/// An imbalanced fixture: node 1 runs at quarter speed, so its queue
/// backs up while the fast nodes drain — the canonical work-stealing
/// scenario. Returns the final grid bits and the report.
fn run_imbalanced(sched: Sched) -> (Vec<u64>, RunReport) {
    const N: i64 = 256;
    const STEPS: usize = 3;
    let nodes = 4usize;
    let mut cfg = sched.apply(RtConfig::test(nodes, 2));
    cfg.cost.speed_factors = vec![1.0, 0.25, 1.0, 1.0];

    let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = grid.clone();
    let digest: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; N as usize]));
    let dc = digest.clone();

    let runtime = Runtime::new(cfg);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            let violations = ctx.verify_consistency();
            assert!(violations.is_empty(), "{sched:?}, phase {phase}: {violations:?}");
            if phase == 0 {
                let g = Grid::<f64, 1>::create(ctx, "imb", [N]);
                *gc.borrow_mut() = Some(g);
                return Some(pfor(
                    PforSpec {
                        name: "fill",
                        range: g.full_box(),
                        grain: 8,
                        ns_per_point: 40.0,
                        axis0_pieces: 32,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                ));
            }
            let g = gc.borrow().unwrap();
            if phase <= STEPS {
                return Some(pfor(
                    PforSpec {
                        name: "bump",
                        range: g.full_box(),
                        grain: 8,
                        ns_per_point: 40.0,
                        axis0_pieces: 32,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        let v = g.get(tctx, p.0);
                        g.set(tctx, p.0, v + 1.0);
                    },
                ));
            }
            if phase == STEPS + 1 {
                let dc = dc.clone();
                return Some(pfor(
                    PforSpec {
                        name: "readback",
                        range: g.full_box(),
                        grain: 8,
                        ns_per_point: 1.0,
                        axis0_pieces: 32,
                    },
                    move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        dc.borrow_mut()[p[0] as usize] = g.get(tctx, p.0).to_bits();
                    },
                ));
            }
            None
        },
    );
    let bits = digest.borrow().clone();
    for (i, &b) in bits.iter().enumerate() {
        assert_eq!(
            f64::from_bits(b),
            i as f64 + STEPS as f64,
            "{sched:?}: wrong value at {i}"
        );
    }
    (bits, report)
}

/// On the imbalanced fixture the stealing family must actually *steal*
/// (requests sent, grants received) — otherwise the conformance above
/// would be vacuous — and the whole family must still agree bit for bit.
#[test]
fn stealing_family_actually_steals_and_still_agrees() {
    let (reference, da_report) = run_imbalanced(Sched::DataAware);
    check_accounting(Sched::DataAware, &da_report, 0);
    for victim in [
        VictimPolicy::RoundRobin,
        VictimPolicy::LeastLoaded,
        VictimPolicy::Random,
    ] {
        let sched = Sched::Stealing(victim);
        let (bits, report) = run_imbalanced(sched);
        assert_eq!(reference, bits, "{sched:?} diverged on the imbalanced fixture");
        check_accounting(sched, &report, 0);
        let s = &report.monitor.scheduler;
        assert!(
            s.steal_requests > 0,
            "{sched:?}: no steal request on a 4x-imbalanced cluster ({s:?})"
        );
        assert!(
            s.steal_grants > 0,
            "{sched:?}: victims never handed over work ({s:?})"
        );
    }
}

/// Fail-stop chaos: kill a locality mid-run under every scheduler and
/// assert the recovered result is still bit-identical to the fault-free
/// one. This is the steal-protocol analogue of the PR 5 `live_target`
/// regression: dead localities must drop out of victim selection and
/// spill targets, not corrupt the run.
fn killed_run_agrees(seed: u64, sched: Sched) {
    let chaos = Chaos {
        batching: false,
        migrations: true,
    };
    let (clean_bits, clean) = run_program(seed, sched, chaos, None, None);
    let total_ns = clean.finish_time.as_nanos();
    assert!(total_ns > 0);

    // Never locality 0 (it hosts the detector).
    let victim = 1 + (seed % 3) as usize;
    let frac = 30 + (seed % 5) * 12;
    let mut plan = FaultPlan::new(seed ^ 0x5eed_fa57).with_drop_rate(0.004);
    plan.kill_at(victim, SimTime::from_nanos(total_ns * frac / 100));
    let resil = ResilienceConfig {
        checkpoint_every: 1,
        heartbeat_period: SimDuration::from_nanos((total_ns / 100).max(500)),
        ..ResilienceConfig::default()
    };

    let (bits, report) = run_program(seed, sched, chaos, Some(plan), Some(resil));
    assert_eq!(
        clean_bits, bits,
        "seed {seed}, {sched:?}: kill+recover changed the application result"
    );
    let r = &report.monitor.resilience;
    assert!(
        r.detections >= 1 && r.recoveries >= 1,
        "seed {seed}, {sched:?}: the death must be detected and recovered ({r:?})"
    );
}

#[test]
fn policies_agree_under_fail_stop_faults() {
    for (i, sched) in FAMILY.into_iter().enumerate() {
        killed_run_agrees(13 + i as u64, sched);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Randomized seeds × randomized chaos: the whole family agrees bit
    /// for bit and keeps the invariants at every boundary.
    #[test]
    fn randomized_chaos_keeps_the_family_in_agreement(seed in 0u64..(1 << 32)) {
        let chaos = Chaos {
            batching: seed & 1 == 1,
            migrations: seed & 2 == 2,
        };
        family_agrees(seed, chaos);
    }
}

/// Seeded conformance soak: wide seed sweep with full chaos plus a kill
/// under every scheduler. Finishes in well under a second, so it runs
/// with the suite.
#[test]
fn scheduler_conformance_soak() {
    for seed in 0..12u64 {
        family_agrees(
            seed,
            Chaos {
                batching: seed % 2 == 0,
                migrations: true,
            },
        );
    }
    for seed in 0..8u64 {
        killed_run_agrees(seed, FAMILY[(seed % 4) as usize]);
    }
}
