//! Scheduler-family conformance: the pluggable schedulers are pure
//! *performance* policies, never *semantics* policies.
//!
//! The randomized members of the program family are run under every
//! scheduler — the direct data-aware default and the work-stealing
//! family with each victim policy — crossed with the chaos dimensions
//! the runtime supports (transfer batching, random region migrations,
//! fail-stop faults with checkpoint/recovery). For every combination:
//!
//! - the application result must be **bit-identical** across all four
//!   schedulers (same seed ⇒ same final grid, compared as raw `f64`
//!   bits);
//! - the Section 2.5 model invariants must hold at **every phase
//!   boundary** — checked by the runtime itself in this (debug) profile,
//!   see `runtime/phases.rs::advance_phase`;
//! - the steal-protocol accounting must tie out on fault-free runs
//!   (every request answered exactly once), and the direct scheduler
//!   must never touch a queue.

mod common;

use allscale_core::{FaultPlan, RunReport, VictimPolicy};
use common::{family, Scenario, Sched, FAMILY};
use proptest::prelude::*;

/// Chaos dimensions crossed with the scheduler family.
#[derive(Clone, Copy, Debug, Default)]
struct Chaos {
    batching: bool,
    migrations: bool,
}

fn scenario(seed: u64, sched: Sched, chaos: Chaos) -> Scenario {
    Scenario {
        sched,
        batching: chaos.batching,
        migrations: chaos.migrations,
        ..Scenario::new(seed)
    }
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
        let (bits, report) = scenario(seed, sched, chaos).run();
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
    let sc = Scenario {
        sched,
        program: family::imbalanced(),
        ..Scenario::new(0)
    };
    let mut rt = sc.rt();
    rt.cost.speed_factors = vec![1.0, 0.25, 1.0, 1.0];
    sc.run_on(rt)
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
    // Never locality 0 (it hosts the detector).
    let victim = 1 + (seed % 3) as usize;
    let percent = 30 + (seed % 5) * 12;
    let lossy = FaultPlan::new(seed ^ 0x5eed_fa57).with_drop_rate(0.004);
    scenario(seed, sched, chaos).run_killed(victim, percent, lossy);
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
    /// for bit.
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
