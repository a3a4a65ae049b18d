//! Conformance suite of the asynchronous, incremental, tiered
//! checkpoint pipeline, run end-to-end through the stencil benchmark:
//!
//! 1. **Delta soundness** — across a randomized sweep of anchor
//!    cadences, retention depths and checkpoint cadences, every
//!    committed anchor+delta chain reconstructs the full boundary
//!    snapshot bit-for-bit (`validate_reconstruction` asserts it inside
//!    every commit).
//! 2. **Frontier shape** — the async+incremental pipeline's makespan
//!    overhead is at most a third of the billed synchronous-full
//!    baseline at the same cadence (EXPERIMENTS.md C1).
//! 3. **Bit-identical recovery** — a fail-stop kill mid-run recovers to
//!    the exact clean-run checksum, and two identical faulted runs
//!    serialize to identical reports.
//! 4. **Torn-drain soak** (`--ignored`) — kills swept across the whole
//!    run, including mid-drain, always recover from the last *committed*
//!    checkpoint with exact results.

use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{
    CheckpointConfig, CkptMode, FaultPlan, ResilienceConfig, RtConfig, StorageParams,
};
use allscale_des::{SimDuration, SimTime};

/// A stencil sized so one time step outlasts a full remote-tier drain
/// (the regime where an asynchronous drain can hide completely).
fn stencil(steps: usize) -> StencilConfig {
    StencilConfig {
        steps,
        work_scale: 150.0,
        ..StencilConfig::small(4)
    }
}

fn resilience(ckpt: CheckpointConfig, every: usize) -> ResilienceConfig {
    ResilienceConfig {
        checkpoint_every: every,
        ckpt,
        ..ResilienceConfig::default()
    }
}

#[test]
fn delta_chains_reconstruct_full_snapshots_bit_for_bit() {
    // `validate_reconstruction` makes every commit reassemble the
    // anchor+delta chain and assert it equals the full boundary
    // snapshot; the sweep varies the chain shapes it must survive.
    let mut deltas = 0;
    for (anchor_every, keep, every) in [
        (1, 1, 1),
        (2, 2, 1),
        (3, 2, 2),
        (4, 3, 1),
        (5, 4, 1),
        (4, 1, 3),
    ] {
        let ckpt = CheckpointConfig {
            anchor_every,
            keep,
            validate_reconstruction: true,
            ..CheckpointConfig::default()
        };
        let mut rt = RtConfig::test(4, 2);
        rt.resilience = Some(resilience(ckpt, every));
        let (res, report) = allscale_version::run_with_report(&stencil(6), rt);
        assert!(res.validated, "stencil result must stay exact");
        let r = &report.monitor.resilience;
        assert!(r.checkpoints > 0);
        deltas += r.ckpt_deltas;
        if anchor_every > 1 && r.checkpoints > 1 {
            assert!(
                r.ckpt_deltas > 0,
                "anchor_every {anchor_every} must produce deltas ({r:?})"
            );
        }
    }
    assert!(deltas > 0, "the sweep must exercise delta reconstruction");
}

#[test]
fn async_incremental_overhead_is_a_third_of_sync_full_at_most() {
    let cfg = stencil(6);
    let base = allscale_version::run_with_report(&cfg, RtConfig::test(4, 2))
        .1
        .finish_time
        .as_nanos();

    let run = |mode: CkptMode, incremental: bool| {
        let ckpt = CheckpointConfig {
            mode,
            incremental,
            ..CheckpointConfig::default()
        };
        let mut rt = RtConfig::test(4, 2);
        rt.resilience = Some(resilience(ckpt, 1));
        let (res, report) = allscale_version::run_with_report(&cfg, rt);
        assert!(res.validated, "checkpointing must not perturb results");
        report.finish_time.as_nanos().saturating_sub(base)
    };

    let sync_full = run(CkptMode::Sync, false);
    let async_inc = run(CkptMode::Async, true);
    assert!(
        sync_full > 0,
        "billed blocking checkpoints must cost makespan"
    );
    assert!(
        async_inc * 3 <= sync_full,
        "async+incremental overhead ({async_inc} ns) must be at most a \
         third of the sync-full baseline ({sync_full} ns)"
    );
}

#[test]
fn kill_mid_run_recovery_is_bit_identical() {
    let cfg = stencil(6);
    let mut rt = RtConfig::test(4, 2);
    rt.resilience = Some(resilience(CheckpointConfig::default(), 1));
    let (clean, clean_report) = allscale_version::run_with_report(&cfg, rt);
    let total = clean_report.finish_time.as_nanos();

    let faulted = || {
        let mut plan = FaultPlan::new(0xc4a7);
        plan.kill_at(2, SimTime::from_nanos(total * 55 / 100));
        let mut rt = RtConfig::test(4, 2);
        rt.faults = Some(plan);
        rt.resilience = Some(ResilienceConfig {
            heartbeat_period: SimDuration::from_nanos((total / 100).max(1_000)),
            ..resilience(CheckpointConfig::default(), 1)
        });
        allscale_version::run_with_report(&cfg, rt)
    };
    let (a, ra) = faulted();
    let (b, rb) = faulted();
    assert!(ra.monitor.resilience.recoveries >= 1, "the kill must land");
    assert_eq!(
        a.checksum, clean.checksum,
        "recovery must replay onto the exact clean trajectory"
    );
    assert!(a.validated, "and the oracle agrees");
    assert_eq!(
        ra.to_json(),
        rb.to_json(),
        "identical faulted runs must serialize identically"
    );
    assert_eq!(a.checksum, b.checksum);
}

/// Soak: sweep the kill across the whole run — boundaries, mid-phase,
/// mid-drain — with a slow remote tier keeping drains in flight most of
/// the time. Every point must recover to the exact result, and the
/// sweep as a whole must hit at least one torn drain. Finishes in under
/// two seconds, so it runs with the suite.
#[test]
fn mid_drain_kill_sweep_never_restores_torn_state() {
    let cfg = stencil(6);
    let slow = CheckpointConfig {
        storage: StorageParams {
            remote_write_bps: 20e6,
            ..StorageParams::default()
        },
        ..CheckpointConfig::default()
    };
    let mut rt = RtConfig::test(4, 2);
    rt.resilience = Some(resilience(slow, 1));
    let (clean, clean_report) = allscale_version::run_with_report(&cfg, rt);
    let total = clean_report.finish_time.as_nanos();

    let mut torn = 0u64;
    for i in 1..20 {
        let mut plan = FaultPlan::new(0x50a0 + i);
        plan.kill_at(2, SimTime::from_nanos(total * i / 20));
        let mut rt = RtConfig::test(4, 2);
        rt.faults = Some(plan);
        rt.resilience = Some(ResilienceConfig {
            heartbeat_period: SimDuration::from_nanos((total / 200).max(1_000)),
            ..resilience(slow, 1)
        });
        let (res, report) = allscale_version::run_with_report(&cfg, rt);
        assert_eq!(
            res.checksum, clean.checksum,
            "kill at {i}/20 of the run must recover exactly"
        );
        assert!(res.validated);
        torn += report.monitor.resilience.ckpt_torn;
    }
    assert!(
        torn >= 1,
        "a 19-point sweep over drain-dominated phases must tear at least one drain"
    );
}
