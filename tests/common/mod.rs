//! The one conformance scenario (DESIGN.md §7).
//!
//! Every runtime-level suite runs the same thing: a small phased program
//! whose result is a pure function of its spec, on a 4×2 test cluster,
//! under some combination of scheduler, batching, integrity, driver-side
//! migrations, fault plan, checkpointing and tracing. [`Scenario`] is that
//! combination; [`Scenario::run`] checks the result bit for bit against
//! the sequential oracle and [`Scenario::run_killed`] adds the one kill
//! plan ([`kill_plan`]). The §2.5 invariants are *not* asserted here: a
//! debug-profile `Runtime::run` checks them itself at every phase
//! boundary (`runtime/phases.rs::advance_phase`), so a suite only asserts
//! what it is about.

// Each test binary uses a subset.
#![allow(dead_code)]

pub mod report_json;

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor, BatchParams, FaultPlan, Grid, IntegrityConfig, ItemId, PforSpec, Requirement,
    ResilienceConfig, RtConfig, RtCtx, RunReport, Runtime, StealConfig, TaskValue, TraceConfig,
    VictimPolicy, WorkItem,
};
use allscale_des::rng::XorShift64;
use allscale_des::{SimDuration, SimTime};
use allscale_region::{BoxRegion, GridBox, Region};

/// Localities of the scenario cluster (two cores each).
pub const NODES: usize = 4;

// ------------------------------------------------------- scheduler family

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    DataAware,
    Stealing(VictimPolicy),
}

/// Work stealing under the default victim policy.
pub const STEALING: Sched = Sched::Stealing(VictimPolicy::RoundRobin);

/// The full scheduler family: the paper's direct placement and work
/// stealing under each victim policy.
pub const FAMILY: [Sched; 4] = [
    Sched::DataAware,
    STEALING,
    Sched::Stealing(VictimPolicy::LeastLoaded),
    Sched::Stealing(VictimPolicy::Random),
];

// --------------------------------------------------------------- programs

/// A multi-phase 1-D grid program: fill `g[i] = i`, one element-wise,
/// order-independent update per entry of `ops` (exact in `f64`), then a
/// read-back phase. The final grid is a pure function of the spec — any
/// divergence is a runtime bug, not numerical noise.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    pub n: i64,
    pub grain: u64,
    pub pieces: u64,
    /// Virtual cost per point of the fill and update phases.
    pub ns_per_point: f64,
    /// Per-phase op code: 0 = add a phase constant, 1 = double,
    /// 2 = add an index-keyed term.
    pub ops: Vec<u8>,
}

impl ProgramSpec {
    /// A randomized member of the family.
    pub fn draw(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x5ced_u64);
        ProgramSpec {
            n: 48 + 16 * rng.below(4) as i64,
            grain: 8 + 4 * rng.below(3),
            pieces: 4 + rng.below(5),
            ns_per_point: 3.0,
            ops: (0..2 + rng.below(3)).map(|_| rng.below(3) as u8).collect(),
        }
    }

    /// The fixed shape of the fault and integrity suites: 96 cells in 8
    /// tiles, `steps` add phases.
    pub fn bumps(steps: usize) -> Self {
        ProgramSpec {
            n: 96,
            grain: 12,
            pieces: 8,
            ns_per_point: 3.0,
            ops: vec![0; steps],
        }
    }

    fn apply(op: u8, phase: usize, i: i64, v: f64) -> f64 {
        match op {
            0 => v + (3 * phase + 1) as f64,
            1 => v * 2.0,
            _ => v + (i % 7) as f64,
        }
    }

    /// The value every cell must hold after all phases — the oracle.
    pub fn expected(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let ops = self.ops.iter().enumerate();
                ops.fold(i as f64, |v, (phase, &op)| Self::apply(op, phase, i, v))
            })
            .collect()
    }
}

/// A randomized, *contended* multi-phase program. Two grids ping-pong a
/// 3-point sum (each tile reads its neighbours' cells — replicas, so the
/// next phase's writers wait behind export fences), and every point also
/// increments one of a handful of shared counter cells (tiles on
/// different localities write the same cell — the cell's ownership
/// migrates from task to task and everybody else waits behind the
/// holder's lock or the inbound-migration fence). All values are small
/// integers, exact in `f64`, and increments commute, so the result is a
/// pure function of the spec whatever order tasks are woken in.
#[derive(Clone, Debug)]
pub struct Contended {
    pub n: i64,
    pub grain: u64,
    pub pieces: u64,
    pub counters: i64,
    pub stride: i64,
    pub phases: usize,
}

impl Contended {
    pub fn draw(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xa11_5ca1e);
        Contended {
            n: 48 + 16 * rng.below(3) as i64,
            grain: 6 + 2 * rng.below(3),
            pieces: 4 + rng.below(5),
            counters: 1 + rng.below(3) as i64,
            stride: 5 + rng.below(7) as i64,
            phases: 2 + rng.below(3) as usize,
        }
    }

    fn counter_of(&self, i: i64) -> i64 {
        (i / self.stride) % self.counters
    }

    /// The counter cells the points of `tile` increment.
    fn counter_region(&self, tile: &GridBox<1>) -> BoxRegion<1> {
        (tile.lo()[0]..tile.hi()[0])
            .map(|i| self.counter_of(i))
            .fold(BoxRegion::empty(), |acc, k| {
                acc.union(&BoxRegion::cuboid([k], [k + 1]))
            })
    }

    /// Final field followed by the counters, computed sequentially.
    pub fn expected(&self) -> Vec<f64> {
        let n = self.n as usize;
        let mut cur: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for _ in 0..self.phases {
            cur = (0..n)
                .map(|i| {
                    let left = if i > 0 { cur[i - 1] } else { 0.0 };
                    let right = if i + 1 < n { cur[i + 1] } else { 0.0 };
                    left + cur[i] + right
                })
                .collect();
        }
        let mut counts = vec![0.0; self.counters as usize];
        for i in 0..self.n {
            counts[self.counter_of(i) as usize] += self.phases as f64;
        }
        cur.extend(counts);
        cur
    }
}

#[derive(Clone, Debug)]
pub enum Program {
    Grid(ProgramSpec),
    Contended(Contended),
}

impl Program {
    fn expected(&self) -> Vec<f64> {
        match self {
            Program::Grid(spec) => spec.expected(),
            Program::Contended(spec) => spec.expected(),
        }
    }
}

// --------------------------------------------------------------- scenario

/// One point of the conformance matrix. Public fields, struct-update
/// syntax over [`Scenario::new`]: a suite names only the dimensions it
/// is about.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Keys the migration chaos; by convention also what `program` was
    /// drawn from.
    pub seed: u64,
    pub program: Program,
    pub sched: Sched,
    pub batching: bool,
    pub integrity: bool,
    /// A random region migration before every update phase, keyed by
    /// `(seed, phase)` so a boundary replayed after a recovery redoes the
    /// same movement over whatever layout recovery left behind.
    pub migrations: bool,
    pub faults: Option<FaultPlan>,
    pub ckpt: Option<ResilienceConfig>,
    pub traced: bool,
}

impl Scenario {
    /// The randomized grid program of `seed`, every service off.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            program: Program::Grid(ProgramSpec::draw(seed)),
            sched: Sched::DataAware,
            batching: false,
            integrity: false,
            migrations: false,
            faults: None,
            ckpt: None,
            traced: false,
        }
    }

    /// The scenario's services switched on over `rt` — for suites that
    /// run an application on a machine of their own.
    pub fn configure(&self, mut rt: RtConfig) -> RtConfig {
        if let Sched::Stealing(victim) = self.sched {
            rt = rt.with_work_stealing(StealConfig {
                victim,
                ..StealConfig::default()
            });
        }
        if self.batching {
            rt = rt.with_batching(BatchParams::default());
        }
        if self.integrity {
            rt = rt.with_integrity(IntegrityConfig::default());
        }
        rt.faults = self.faults.clone();
        rt.resilience = self.ckpt;
        rt.trace = self.traced.then(TraceConfig::default);
        rt
    }

    pub fn rt(&self) -> RtConfig {
        self.configure(RtConfig::test(NODES, 2))
    }

    /// Run the program and return what the read-back phase saw, as raw
    /// `f64` bits, checked against the sequential oracle.
    pub fn run(&self) -> (Vec<u64>, RunReport) {
        self.run_on(self.rt())
    }

    /// [`Scenario::run`] on a configuration the caller adjusted (cost
    /// model, machine) after [`Scenario::rt`].
    pub fn run_on(&self, rt: RtConfig) -> (Vec<u64>, RunReport) {
        self.run_hooked(rt, |_, _, _| {})
    }

    /// [`Scenario::run_on`] with the caller's own driver-side action:
    /// `at_boundary(phase, ctx, item)` is called at every boundary after
    /// phase 0 (replayed ones included), after the migration chaos and
    /// before the phase's work item is built; `item` is the grid the
    /// phase is about to read.
    pub fn run_hooked(
        &self,
        rt: RtConfig,
        at_boundary: impl FnMut(usize, &mut RtCtx<'_>, ItemId) + 'static,
    ) -> (Vec<u64>, RunReport) {
        let want = self.program.expected();
        let bits = Rc::new(RefCell::new(vec![f64::NAN.to_bits(); want.len()]));
        let report = match &self.program {
            Program::Grid(spec) => {
                Runtime::new(rt).run(self.grid_driver(spec, bits.clone(), at_boundary))
            }
            Program::Contended(spec) => {
                Runtime::new(rt).run(self.contended_driver(spec, bits.clone(), at_boundary))
            }
        };
        let bits = bits.take();
        let got: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(got, want, "{self:?}: result differs from the oracle");
        (bits, report)
    }

    /// A clean run, then the same scenario again under [`kill_plan`]:
    /// `victim` fail-stops at `percent` % of the clean makespan on top of
    /// the `lossy` fabric. The recovered result must equal the clean one
    /// (and the oracle), and the death must be detected and recovered.
    /// Returns the faulty run.
    pub fn run_killed(
        &self,
        victim: usize,
        percent: u64,
        lossy: FaultPlan,
    ) -> (Vec<u64>, RunReport) {
        let (clean_bits, clean) = self.run();
        let (faults, ckpt) = kill_plan(
            &clean,
            victim,
            percent,
            lossy,
            self.ckpt.unwrap_or_default(),
        );
        let faulty = Scenario {
            faults: Some(faults),
            ckpt: Some(ckpt),
            ..self.clone()
        };
        let (bits, report) = faulty.run();
        assert_eq!(
            clean_bits, bits,
            "{self:?}: kill + recover changed the result"
        );
        let r = &report.monitor.resilience;
        assert!(
            r.detections >= 1 && r.recoveries >= 1,
            "{self:?}: the death must be detected and recovered ({r:?})"
        );
        (bits, report)
    }

    fn grid_driver(
        &self,
        spec: &ProgramSpec,
        bits: Rc<RefCell<Vec<u64>>>,
        mut at_boundary: impl FnMut(usize, &mut RtCtx<'_>, ItemId) + 'static,
    ) -> impl FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>> + 'static {
        let (spec, seed, migrations) = (spec.clone(), self.seed, self.migrations);
        let mut grid: Option<Grid<f64, 1>> = None;
        move |phase, ctx, _prev| {
            // Phase 0 is replayed from scratch when a locality dies before
            // the first checkpoint, so it creates the item every time.
            if phase == 0 {
                grid = Some(Grid::<f64, 1>::create(ctx, "grid", [spec.n]));
            }
            let g = grid.expect("created in phase 0");
            let tile_writes =
                move |tile: &GridBox<1>| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))];
            let fill = PforSpec {
                name: "fill",
                range: g.full_box(),
                grain: spec.grain,
                ns_per_point: spec.ns_per_point,
                axis0_pieces: spec.pieces,
            };
            if phase == 0 {
                return Some(pfor(fill, tile_writes, move |t, p| {
                    g.set(t, p.0, p[0] as f64)
                }));
            }
            let op = spec.ops.get(phase - 1);
            if migrations && op.is_some() {
                migrate_random_slice(ctx, g.id, spec.n, seed, phase);
            }
            at_boundary(phase, ctx, g.id);
            if let Some(&op) = op {
                return Some(pfor(
                    PforSpec { name: "op", ..fill },
                    tile_writes,
                    move |t, p| {
                        let v = g.get(t, p.0);
                        g.set(t, p.0, ProgramSpec::apply(op, phase - 1, p[0], v));
                    },
                ));
            }
            if phase == spec.ops.len() + 1 {
                // Exact read-back: data preservation plus single execution
                // (a task replayed twice would have applied its op twice).
                let bits = bits.clone();
                return Some(pfor(
                    PforSpec {
                        name: "readback",
                        ns_per_point: 1.0,
                        ..fill
                    },
                    move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                    move |t, p| bits.borrow_mut()[p[0] as usize] = g.get(t, p.0).to_bits(),
                ));
            }
            None
        }
    }

    fn contended_driver(
        &self,
        spec: &Contended,
        bits: Rc<RefCell<Vec<u64>>>,
        mut at_boundary: impl FnMut(usize, &mut RtCtx<'_>, ItemId) + 'static,
    ) -> impl FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>> + 'static {
        let (sp, seed, migrations) = (spec.clone(), self.seed, self.migrations);
        let (n, phases) = (sp.n, sp.phases);
        let mut grids: Option<[Grid<f64, 1>; 3]> = None;
        move |phase, ctx, _prev| {
            let universe = GridBox::from_shape([n]).expect("non-empty grid");
            let tiles = |name, ns_per_point| PforSpec {
                name,
                range: universe,
                grain: sp.grain,
                ns_per_point,
                axis0_pieces: sp.pieces,
            };
            if phase == 0 {
                grids = Some([
                    Grid::<f64, 1>::create(ctx, "a", [n]),
                    Grid::<f64, 1>::create(ctx, "b", [n]),
                    Grid::<f64, 1>::create(ctx, "counters", [sp.counters]),
                ]);
            }
            let [a, b, c] = grids.expect("created in phase 0");
            if phase == 0 {
                return Some(pfor(
                    tiles("fill", 2.0),
                    move |tile| vec![Requirement::write(a.id, BoxRegion::from_box(*tile))],
                    move |t, p| a.set(t, p.0, p[0] as f64),
                ));
            }
            // Phase k reads the grid phase k-1 wrote.
            let (src, dst) = if phase % 2 == 1 { (a, b) } else { (b, a) };
            if migrations && phase <= phases {
                migrate_random_slice(ctx, src.id, n, seed, phase);
            }
            at_boundary(phase, ctx, src.id);
            if phase <= phases {
                let (s1, s2) = (sp.clone(), sp.clone());
                return Some(pfor(
                    tiles("sum3", 3.0),
                    move |tile| {
                        let own = BoxRegion::from_box(*tile);
                        vec![
                            Requirement::read(src.id, own.dilate_within(1, &universe)),
                            Requirement::write(dst.id, own),
                            Requirement::write(c.id, s1.counter_region(tile)),
                        ]
                    },
                    move |t, p| {
                        let i = p[0];
                        let at = |j: i64| {
                            if (0..n).contains(&j) {
                                src.get(t, [j])
                            } else {
                                0.0
                            }
                        };
                        let v = at(i - 1) + at(i) + at(i + 1);
                        dst.set(t, [i], v);
                        let k = s2.counter_of(i);
                        let seen = c.get(t, [k]);
                        c.set(t, [k], seen + 1.0);
                    },
                ));
            }
            if phase == phases + 1 {
                let (bits, counters) = (bits.clone(), sp.counters);
                return Some(pfor(
                    tiles("collect", 1.0),
                    move |tile| {
                        vec![
                            Requirement::read(src.id, BoxRegion::from_box(*tile)),
                            Requirement::read(c.id, BoxRegion::cuboid([0], [counters])),
                        ]
                    },
                    move |t, p| {
                        let mut bits = bits.borrow_mut();
                        bits[p[0] as usize] = src.get(t, p.0).to_bits();
                        for k in 0..counters {
                            bits[(n + k) as usize] = c.get(t, [k]).to_bits();
                        }
                    },
                ));
            }
            None
        }
    }
}

/// Migrate a random slice of what a random donor owns of 1-D grid `item`
/// to a random receiver — deterministic in `(seed, phase)`. This is one
/// of the places a test calls `verify_consistency` by hand: the runtime's
/// own check runs *before* the driver, so the state right after a
/// driver-side migration is seen by nobody else until the next boundary.
pub fn migrate_random_slice(ctx: &mut RtCtx<'_>, item: ItemId, n: i64, seed: u64, phase: usize) {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9e3779b9) ^ phase as u64);
    let src = rng.below(NODES as u64) as usize;
    let dst = rng.below(NODES as u64) as usize;
    if src == dst {
        return;
    }
    let lo = rng.below(n as u64) as i64;
    let len = 1 + rng.below(n as u64 / 2) as i64;
    let slice = BoxRegion::<1>::cuboid([lo], [(lo + len).min(n)]);
    let owned = ctx.owned_region_at(src, item);
    let owned = owned
        .as_any()
        .downcast_ref::<BoxRegion<1>>()
        .expect("1-D grid region");
    let moved = owned.intersect(&slice);
    if moved.is_empty() {
        return;
    }
    ctx.migrate_region(item, &moved, src, dst);
    let violations = ctx.verify_consistency();
    assert!(
        violations.is_empty(),
        "seed {seed}, phase {phase}, after migrating {moved:?} from {src} to {dst}: {violations:?}"
    );
}

/// The one kill plan: `victim` fail-stops at `percent` % of the clean
/// run's makespan on top of the `lossy` plan (drop, corruption and rot
/// rates are the caller's), with a checkpoint at every boundary and a
/// heartbeat of a hundredth of the clean makespan so detection latency
/// scales with the run. `base` carries whatever else the caller
/// configured (checkpoint pipeline, retry policy).
pub fn kill_plan(
    clean: &RunReport,
    victim: usize,
    percent: u64,
    mut lossy: FaultPlan,
    base: ResilienceConfig,
) -> (FaultPlan, ResilienceConfig) {
    let total_ns = clean.finish_time.as_nanos();
    assert!(total_ns > 0, "the clean run must take virtual time");
    lossy.kill_at(victim, SimTime::from_nanos(total_ns * percent / 100));
    let resilience = ResilienceConfig {
        checkpoint_every: 1,
        heartbeat_period: SimDuration::from_nanos((total_ns / 100).max(500)),
        ..base
    };
    (lossy, resilience)
}
