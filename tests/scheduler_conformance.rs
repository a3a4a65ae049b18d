//! Scheduler-family conformance: the pluggable schedulers are pure
//! *performance* policies, never *semantics* policies.
//!
//! Agreement across the family lives in the one oracle: `Scenario::run`
//! checks every run against the sequential interpreter, and
//! `model_conformance`'s matrix (and its `family_soak`) run every
//! scheduler × batching × integrity × migrations × {lossy, lossy + kill}.
//! The steal-protocol accounting (the direct family never touches a
//! queue; every fault-free steal request is answered exactly once; a
//! handoff is a grant) is checked by `Runtime::run` at the end of every
//! run. What is left here is that the stealing family genuinely steals
//! on a workload built for it, and the S1 sentence EXPERIMENTS.md states.

mod common;

use allscale_core::{RunReport, VictimPolicy};
use common::{family, Scenario, Sched};

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
/// (requests sent, grants received) — otherwise the family's agreement
/// would be vacuous — and the whole family must still agree bit for bit.
#[test]
fn stealing_family_actually_steals_and_still_agrees() {
    let (reference, _) = run_imbalanced(Sched::DataAware);
    for victim in [
        VictimPolicy::RoundRobin,
        VictimPolicy::LeastLoaded,
        VictimPolicy::Random,
    ] {
        let sched = Sched::Stealing(victim);
        let (bits, report) = run_imbalanced(sched);
        assert_eq!(
            reference, bits,
            "{sched:?} diverged on the imbalanced fixture"
        );
        let s = &report.monitor.scheduler;
        assert!(
            s.tasks_queued > 0,
            "{sched:?}: queued admissions expected ({s:?})"
        );
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

/// S1 as recorded in `BENCH_s1.json`: on the stencil with node 3 at
/// quarter speed, the best stealing victim policy beats the direct
/// scheduler's makespan.
#[test]
fn recorded_s1_work_stealing_beats_the_direct_scheduler_on_a_degraded_node() {
    let rows = common::recorded::rows(include_str!("../BENCH_s1.json"));
    let stencil = rows.iter().filter(|r| r.label("app") == "stencil");
    let (direct, stealing): (Vec<_>, Vec<_>) =
        stencil.partition(|r| r.label("scheduler") == "data-aware");
    let direct = direct[0].num("compute_ns");
    let best = stealing
        .iter()
        .map(|r| r.num("compute_ns"))
        .fold(f64::MAX, f64::min);
    assert_eq!(stealing.len(), 3);
    assert!(
        best < direct,
        "work stealing must beat the direct scheduler on a degraded node \
         (best {best} ns vs {direct} ns)"
    );
}
