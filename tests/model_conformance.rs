//! Conformance of the runtime implementation to the formal application
//! model (paper Section 2):
//!
//! - the runtime's distributed state is checked against the model's
//!   invariants at every phase boundary of real application runs — by
//!   the runtime itself in this (debug) profile (`advance_phase` calls
//!   `RtCtx::verify_consistency`: exclusive ownership, index/DIM
//!   agreement, quiescent locks, fenced writes); the tests here assert
//!   it only *between* boundaries, right after a driver-side migration;
//! - the executable model itself (`allscale-model`) is exercised on the
//!   members of the one program family (`common::family`) — the programs
//!   every runtime suite compiles and runs — under randomized schedules,
//!   asserting the five properties of Section 2.5;
//! - the family's compiler refuses, by name, every shape the runtime
//!   cannot run.

use std::rc::Rc;

mod common;

use allscale_core::{ConfigError, FaultPlan};
use allscale_des::SimTime;
use allscale_model as model;
use allscale_region::GridFragment;
use common::{family, Scenario, FAMILY};
use proptest::prelude::*;

// ------------------------------------------------- runtime-side conformance

/// A double-buffered halo computation (the contended member): the
/// runtime verifies the model invariants before every boundary, and the
/// driver is asked at every one of them.
#[test]
fn runtime_state_satisfies_model_invariants_every_phase() {
    let scenario = Scenario {
        program: family::contended(3),
        ..Scenario::new(3)
    };
    let mut boundaries = 0;
    let (_, report) = scenario.run_hooked(scenario.rt(), |_, _, _| boundaries += 1);
    assert_eq!(boundaries, report.phases, "passed every boundary");
}

/// Ownership migration (load balancing) preserves the invariants, and
/// the next wave's tasks follow the data instead of pulling it back.
#[test]
fn migration_preserves_model_invariants() {
    let scenario = Scenario {
        program: family::bumps(1),
        ..Scenario::new(0)
    };
    scenario.run_hooked(scenario.rt(), |phase, ctx, items| match (phase, items[0]) {
        (1, item) => {
            // Move whatever locality 0 owns to locality 3.
            let owned = ctx.owned_region_at(0, item);
            ctx.migrate_region(item, owned.as_ref(), 0, 3);
            let violations = ctx.verify_consistency();
            assert!(violations.is_empty(), "after migration: {violations:?}");
        }
        (_, item) => assert!(ctx.owned_region_at(0, item).is_empty_dyn()),
    });
}

/// The conformance matrix: every scheduler × batching × integrity ×
/// driver-side migrations × {lossy fabric, lossy fabric + a fail-stop
/// kill with checkpointed recovery, a kill without resilience}, on a
/// random member. The runtime checks the Section 2.5 invariants itself at
/// every boundary of every one of these runs and its report identities at
/// the end, and `Scenario::run` checks each result against the sequential
/// interpreter, so all that is left to assert here is that the whole
/// family agrees bit for bit and that the unrecoverable cell is refused.
#[test]
fn conformance_matrix() {
    matrix(0, family::draw(0));
}

/// [`conformance_matrix`] on the contended member.
#[test]
fn conformance_matrix_on_the_contended_member() {
    matrix(1, family::contended(1));
}

/// [`conformance_matrix`] on a member that destroys an item before its
/// read-back: destroy followed by recovery, under every service.
#[test]
fn conformance_matrix_on_the_destroying_member() {
    matrix(2, family::destroying(2));
}

fn matrix(seed: u64, program: Rc<model::Program>) {
    let mut reference: Option<Vec<u64>> = None;
    let mut point = seed;
    for sched in FAMILY {
        for services in 0..8 {
            let scenario = Scenario {
                program: program.clone(),
                sched,
                ..with_services(Scenario::new(seed), services)
            };
            let plan = lossy(&scenario);
            // Victim and kill instant walk with the matrix point.
            point += 1;
            let (victim, percent) = ((point % 4) as usize, 25 + (point % 6) * 11);
            let on_lossy_fabric = Scenario {
                faults: Some(plan.clone()),
                ..scenario.clone()
            };
            agree(&mut reference, &scenario, on_lossy_fabric.run().0);
            agree(
                &mut reference,
                &scenario,
                scenario.run_killed(victim, percent, plan.clone()).0,
            );
            // What a configuration cannot finish is refused before it starts.
            let mut unrecoverable = plan;
            unrecoverable.kill_at(victim, SimTime::from_nanos(1));
            let refused = Scenario {
                faults: Some(unrecoverable),
                ..scenario
            };
            assert_eq!(
                refused.rt().validate(),
                Err(ConfigError::KillWithoutResilience(victim))
            );
        }
    }
}

/// `scenario` with the services of the low three bits of `services`:
/// batching, integrity, driver-side migrations.
fn with_services(scenario: Scenario, services: u64) -> Scenario {
    Scenario {
        batching: services & 1 != 0,
        integrity: services & 2 != 0,
        migrations: services & 4 != 0,
        ..scenario
    }
}

/// The lossy fabric of `scenario`: it drops, and it corrupts as well when
/// the integrity service is on (without it corruption is not survivable).
fn lossy(scenario: &Scenario) -> FaultPlan {
    let plan = FaultPlan::new(scenario.seed ^ 0x1055_7ab1e).with_drop_rate(0.005);
    if scenario.integrity {
        plan.with_corruption(0.01)
    } else {
        plan
    }
}

/// `bits` must equal the first result the family produced.
fn agree(reference: &mut Option<Vec<u64>>, scenario: &Scenario, bits: Vec<u64>) {
    let want = reference.get_or_insert_with(|| bits.clone());
    assert_eq!(*want, bits, "{scenario:?} left the family");
}

/// The program family at its stated scale: 1 000 `family::draw` seeds ×
/// the four schedulers × {clean, lossy, lossy + kill}, 12 000 runs (the
/// clean one is `run_killed`'s own arm), the seed's bits choosing the
/// services. Every run is checked like the matrix's: ≈ 6 s of tier-1's
/// test time on 2 cores.
#[test]
fn family_soak() {
    for seed in 0..1_000u64 {
        let mut reference = None;
        for sched in FAMILY {
            let scenario = Scenario {
                sched,
                ..with_services(Scenario::new(seed), seed)
            };
            let on_lossy_fabric = Scenario {
                faults: Some(lossy(&scenario)),
                ..scenario.clone()
            };
            let (victim, percent) = ((seed % 4) as usize, 25 + (seed % 6) * 11);
            agree(&mut reference, &scenario, on_lossy_fabric.run().0);
            agree(
                &mut reference,
                &scenario,
                scenario.run_killed(victim, percent, lossy(&scenario)).0,
            );
        }
    }
}

/// The compiler refuses every shape the runtime cannot run, naming it.
#[test]
fn the_compiler_refuses_what_the_runtime_cannot_run() {
    use model::{Action::*, ItemId, TaskId as T};
    let d = ItemId(0);
    let leaf = |reads: &[u32], writes: &[u32]| model::VariantSpec {
        reads: model::program::req(&[(d, reads)]),
        writes: model::program::req(&[(d, writes)]),
        ..Default::default()
    };
    let split = |actions: Vec<model::Action>| model::VariantSpec {
        actions,
        ..Default::default()
    };
    let cases = [
        (
            "a spawn after a sync in one non-entry script",
            vec![
                split(vec![Spawn(T(2)), Sync(T(2)), Spawn(T(3)), Sync(T(3))]),
                leaf(&[], &[0]),
                leaf(&[], &[1]),
            ],
        ),
        (
            "a Create inside a non-entry task",
            vec![
                split(vec![Create(d), Spawn(T(2)), Sync(T(2))]),
                leaf(&[], &[0]),
            ],
        ),
        (
            "a wave where one leaf reads an element that another leaf of the same wave writes",
            vec![
                split(vec![Spawn(T(2)), Spawn(T(3)), Sync(T(2)), Sync(T(3))]),
                leaf(&[1], &[0]),
                leaf(&[], &[1]),
            ],
        ),
        (
            "a split task with data requirements",
            vec![
                model::VariantSpec {
                    writes: model::program::req(&[(d, &[0])]),
                    ..split(vec![Spawn(T(2)), Sync(T(2))])
                },
                leaf(&[], &[1]),
            ],
        ),
    ];
    for (shape, tasks) in cases {
        // Task 0 creates the item and runs task 1 as its one wave.
        let mut b = model::ProgramBuilder::new();
        b.item(d, 4);
        b.variant(T(0), split(vec![Create(d), Spawn(T(1)), Sync(T(1))]));
        for (t, spec) in (1..).zip(tasks) {
            b.variant(T(t), spec);
        }
        let program = b.build(T(0));
        let refused = std::panic::catch_unwind(|| {
            family::compile(&program);
        })
        .expect_err(shape);
        let message = refused.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.ends_with(shape), "{shape}: {message}");
    }
}

// --------------------------------------------------- model-side conformance

/// The model runs `program` under `driver` on `arch`: it terminates and
/// every Section 2.5 property holds on its trace.
fn model_accepts(program: &model::Program, mut driver: model::Driver, arch: model::Architecture) {
    driver.max_steps = 100_000;
    let (trace, outcome) = driver.run(program, arch);
    assert_eq!(outcome, model::Outcome::Terminated);
    model::properties::check_all(program, &trace).unwrap_or_else(|v| panic!("{v}"));
}

/// The fault suites' member — pfor-shaped waves over one item — on
/// clusters of other shapes than the scenario's.
#[test]
fn pfor_shaped_model_programs_satisfy_all_properties() {
    for (seed, nodes, cores) in [(1u64, 2u32, 2u32), (2, 4, 2), (3, 8, 1), (4, 3, 3)] {
        let arch = model::Architecture::cluster(nodes, cores);
        model_accepts(&family::bumps(2), model::Driver::new(seed), arch);
    }
}

/// Spawn trees four levels deep (16 leaves a wave, the deepest the
/// scenario cluster splits), on shared memory and on a cluster, under ten
/// schedules each.
#[test]
fn deep_task_trees_satisfy_all_properties() {
    for seed in 0..10 {
        for arch in [
            model::Architecture::shared(4),
            model::Architecture::cluster(4, 2),
        ] {
            model_accepts(&family::imbalanced(), model::Driver::new(seed), arch);
        }
    }
}

/// Randomized members of every shape under randomized schedules with
/// elevated chaos (spontaneous migrations and replications, stressing
/// exclusive writes and data preservation) satisfy all five properties.
#[test]
fn randomized_phased_programs_satisfy_all_properties() {
    let archs = [
        model::Architecture::cluster(2, 2),
        model::Architecture::cluster(4, 2),
        model::Architecture::cluster(3, 1),
        model::Architecture::shared(4),
    ];
    for seed in 0..12u64 {
        let program = match seed % 3 {
            0 => family::draw(seed),
            1 => family::destroying(seed),
            _ => family::contended(seed),
        };
        let mut driver = model::Driver::new(seed ^ 0xdead_beef);
        driver.chaos_percent = 60;
        model_accepts(&program, driver, archs[(seed % 4) as usize].clone());
    }
}

// ------------------------------------------- randomized runtime migrations

/// Randomized members with three update waves, a random region
/// migration before each: the runtime checks the invariants at every
/// boundary, `migrate_random_slice` right after each move, the read-back
/// equals the interpreter's, and at every boundary every live item's
/// fragments tile it exactly.
#[test]
fn randomized_migrations_preserve_data_and_invariants() {
    // Draws of one item (4, 5) and of two (3, 17).
    for seed in [3, 4, 5, 17] {
        let scenario = Scenario {
            migrations: true,
            ..Scenario::new(seed)
        };
        let p = &scenario.program;
        let entry = p.variant(p.variants_of(p.entry())[0]);
        let waves = entry
            .actions
            .iter()
            .filter(|a| matches!(a, model::Action::Spawn(_)));
        assert_eq!(
            waves.count(),
            5,
            "seed {seed}: fill, three update waves, read-back"
        );
        // A draw's items have one size.
        let n = scenario.program.elems(model::ItemId(0)).len();
        scenario.run_hooked(scenario.rt(), move |phase, ctx, items| {
            for &item in items {
                let total: usize = (0..ctx.nodes())
                    .map(|l| ctx.fragment_at::<GridFragment<u64, 1>>(l, item).len())
                    .sum();
                assert_eq!(total, n, "seed {seed}, phase {phase}, {item:?}");
            }
        });
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
        program: family::bumps(4),
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
    let scenario = Scenario {
        program: family::bumps(2),
        ..Scenario::new(1)
    };
    let (_, report) = scenario.run_killed(0, 36, lossy);
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
