//! The one conformance scenario (DESIGN.md §7).
//!
//! Every runtime-level suite runs the same thing: a member of the one
//! program family ([`family`]) — a model program, compiled for the
//! runtime — on a 4×2 test cluster, under some combination of scheduler,
//! batching, integrity, driver-side migrations, fault plan, checkpointing
//! and tracing. [`Scenario`] is that combination; [`Scenario::run`] checks
//! the result bit for bit against the program's sequential interpreter
//! (and the model against the same program) and
//! [`Scenario::run_killed`] adds the one kill
//! plan ([`kill_plan`]). Neither the §2.5 invariants nor the report's
//! accounting identities are asserted here: a debug-profile
//! `Runtime::run` checks the first at every phase boundary
//! (`runtime/phases.rs::advance_phase`) and the second once at the end
//! (`broken_identities` in `runtime/mod.rs`), and `report_golden` is the
//! one home of determinism and record-only tracing, so a suite only
//! asserts what it is about.

// Each test binary uses a subset.
#![allow(dead_code)]

pub mod family;
pub mod report_json;

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    BatchParams, FaultPlan, IntegrityConfig, ItemId, ResilienceConfig, RtConfig, RtCtx, RunReport,
    Runtime, StealConfig, TraceConfig, VictimPolicy,
};
use allscale_des::rng::XorShift64;
use allscale_des::{SimDuration, SimTime};
use allscale_model as model;
use allscale_region::{BoxRegion, Region};

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

// --------------------------------------------------------------- scenario

/// One point of the conformance matrix. Public fields, struct-update
/// syntax over [`Scenario::new`]: a suite names only the dimensions it
/// is about.
#[derive(Clone)]
pub struct Scenario {
    /// Keys the migration chaos; by convention also what `program` was
    /// drawn from.
    pub seed: u64,
    /// A member of the one program family ([`family`]).
    pub program: Rc<model::Program>,
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
    /// The randomized member of `seed`, every service off.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            program: family::draw(seed),
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

    /// Run the program and return what its read-back wave saw, checked
    /// against the sequential interpreter; the model ran the same program
    /// when the family made it.
    pub fn run(&self) -> (Vec<u64>, RunReport) {
        self.run_on(self.rt())
    }

    /// [`Scenario::run`] on a configuration the caller adjusted (cost
    /// model, machine) after [`Scenario::rt`].
    pub fn run_on(&self, rt: RtConfig) -> (Vec<u64>, RunReport) {
        self.run_hooked(rt, |_, _, _| {})
    }

    /// [`Scenario::run_on`] with the caller's own driver-side action:
    /// `at_boundary(phase, ctx, items)` is called at every boundary after
    /// phase 0 (replayed ones included), after the migration chaos and
    /// before the phase's work item is built; `items` are the live items
    /// in the order the program created them.
    pub fn run_hooked(
        &self,
        rt: RtConfig,
        at_boundary: impl FnMut(usize, &mut RtCtx<'_>, &[ItemId]),
    ) -> (Vec<u64>, RunReport) {
        let compiled = family::compile(&self.program);
        let want = family::interpret(&self.program);
        let seen = Rc::new(RefCell::new(family::Readback::new()));
        let driver = compiled.driver(&rt, self.seed, self.migrations, seen.clone(), at_boundary);
        let report = Runtime::new(rt).run(driver);
        let got = seen.take();
        assert!(got == want, "{self:?}: result differs from the oracle");
        (got.into_values().collect(), report)
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
}

impl std::fmt::Debug for Scenario {
    /// Everything but the program, which [`Scenario::seed`] names.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("seed", &self.seed)
            .field("sched", &self.sched)
            .field("batching", &self.batching)
            .field("integrity", &self.integrity)
            .field("migrations", &self.migrations)
            .field("faults", &self.faults.is_some())
            .field("ckpt", &self.ckpt.is_some())
            .finish_non_exhaustive()
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
