//! Conformance suite of the asynchronous, incremental, tiered
//! checkpoint pipeline, run end-to-end through the stencil benchmark:
//!
//! 1. **Delta soundness** — across a randomized sweep of anchor
//!    cadences, retention depths and checkpoint cadences, every
//!    committed anchor+delta chain reconstructs the full boundary
//!    snapshot bit-for-bit (debug builds assert it inside every commit
//!    of every rot-free run; nothing switches that on or off).
//! 2. **Frontier shape** — the async+incremental pipeline's makespan
//!    overhead is at most a third of the billed synchronous-full
//!    baseline at the same cadence (EXPERIMENTS.md C1).
//! 3. **Bit-identical recovery** — a fail-stop kill mid-run recovers to
//!    the exact clean-run checksum, and two identical faulted runs
//!    serialize to identical reports.
//! 4. **Torn-drain soak** — kills swept across the whole run, including
//!    mid-drain, always recover from the last *committed* checkpoint with
//!    exact results.
//! 5. **One hash per byte** — a commit's checksums are its boundary
//!    fingerprints and a recovery's change-detection reference is what
//!    `reconstruct` verified; debug assertions at both sites compare them
//!    with a fresh hash of the bytes, on all four pipelines (the sweep of
//!    1.) and across rotted chains with checkpoint verification on and off.

mod common;

use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{
    CheckpointConfig, CkptMode, FaultPlan, IntegrityConfig, ResilienceConfig, RtConfig, RunReport,
    StorageParams,
};
use common::kill_plan;

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

/// The test cluster with locality 2 fail-stopping at `percent` % of the
/// `clean` run (the one kill plan) on top of `lossy`, checkpointing
/// through `ckpt` at every boundary.
fn killed(clean: &RunReport, percent: u64, lossy: FaultPlan, ckpt: CheckpointConfig) -> RtConfig {
    let (faults, resilience) = kill_plan(clean, 2, percent, lossy, resilience(ckpt, 1));
    let mut rt = RtConfig::test(4, 2);
    rt.faults = Some(faults);
    rt.resilience = Some(resilience);
    rt
}

#[test]
fn delta_chains_reconstruct_full_snapshots_bit_for_bit() {
    // In debug builds every commit reassembles the anchor+delta chain
    // and asserts it equals the full boundary snapshot; the sweep varies
    // the chain shapes it must survive, and its last three rows the
    // pipeline (all four are covered). Every commit also asserts that
    // each shard it stores hashes to the boundary fingerprint that became
    // its checksum.
    use CkptMode::{Async, Sync};
    let mut deltas = 0;
    for (mode, incremental, anchor_every, keep, every) in [
        (Async, true, 1, 1, 1),
        (Async, true, 2, 2, 1),
        (Async, true, 3, 2, 2),
        (Async, true, 4, 3, 1),
        (Async, true, 5, 4, 1),
        (Async, true, 4, 1, 3),
        (Sync, true, 3, 2, 1),
        (Sync, false, 3, 2, 1),
        (Async, false, 3, 2, 1),
    ] {
        let ckpt = CheckpointConfig {
            mode,
            incremental,
            anchor_every,
            keep,
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
            assert_eq!(
                r.ckpt_deltas > 0,
                incremental,
                "{mode:?}, incremental {incremental}, anchor_every {anchor_every}: {r:?}"
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

    let faulted = || {
        let rt = killed(
            &clean_report,
            55,
            FaultPlan::new(0xc4a7),
            CheckpointConfig::default(),
        );
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

    let mut torn = 0u64;
    for i in 1..20 {
        let rt = killed(&clean_report, 5 * i, FaultPlan::new(0x50a0 + i), slow);
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

/// After a recovery, incremental change detection restarts from the hash of
/// the bytes that were restored (a debug assertion inside the recovery
/// compares the two). With verification on that hash is the checksum
/// `reconstruct` just verified, and the recovery falls back past a rotted
/// link onto one that still verifies; with verification off a rotted shard
/// is restored as it is, and its stored checksum no longer describes it.
#[test]
fn change_detection_restarts_from_what_a_rotted_chain_restored() {
    let cfg = stencil(6);
    let ckpt = CheckpointConfig {
        anchor_every: 2,
        keep: 4,
        ..CheckpointConfig::default()
    };
    let mut rt = RtConfig::test(4, 2);
    rt.resilience = Some(resilience(ckpt, 1));
    let (clean, clean_report) = allscale_version::run_with_report(&cfg, rt);

    let faulted = |seed: u64, rot: f64, verify_checkpoints: bool| {
        let rt = killed(&clean_report, 70, FaultPlan::new(seed).with_rot(rot), ckpt);
        let rt = rt.with_integrity(IntegrityConfig {
            verify_checkpoints,
            scrub_period: None,
        });
        allscale_version::run_with_report(&cfg, rt)
    };

    // Verification off, every stored shard rotted: the newest chain is
    // restored, poison and all.
    let (_, report) = faulted(1, 1.0, false);
    let (r, i) = (&report.monitor.resilience, &report.monitor.integrity);
    assert!(r.recoveries >= 1 && r.restored_bytes > 0, "{r:?}");
    assert!(i.rot_injected > 0 && i.checkpoint_fallbacks == 0, "{i:?}");

    // Verification on, some shards rotted: exact results throughout, and
    // at least one seed restores an older link behind a rejected one.
    let mut fell_back_onto_a_checkpoint = 0;
    for seed in 0..9 {
        let (res, report) = faulted(seed, 0.04, true);
        let (r, i) = (&report.monitor.resilience, &report.monitor.integrity);
        assert!(r.recoveries >= 1, "seed {seed}: the kill must land");
        assert_eq!(res.checksum, clean.checksum, "seed {seed}");
        if i.checkpoint_fallbacks > 0 && r.restored_bytes > 0 {
            fell_back_onto_a_checkpoint += 1;
        }
    }
    assert!(fell_back_onto_a_checkpoint > 0, "no seed fell back onto a verified link");
}
