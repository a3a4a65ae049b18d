//! The checkpoint pipeline: arm a copy-on-write capture at a phase
//! boundary, drain it to the two storage tiers in the background, commit
//! it — and, for a recovery, tear what is in flight and reconstruct the
//! newest checkpoint that still verifies.

use allscale_des::{SimDuration, SimTime};
use allscale_net::frame;
use allscale_trace::EventKind;

use crate::resilience::{Capture, CkptMode};
use crate::runtime::events::{schedule, RtEvent};
use crate::runtime::{trace_instant, trace_span, RtSim, RtWorld};
use crate::task::ItemId;

/// An asynchronous checkpoint in flight: the copy-on-write capture was
/// armed at a phase boundary, the storage drain is running in the
/// background, and a scheduled event commits the checkpoint when the
/// slower tier finishes. Discarded as *torn* if a recovery strikes
/// first — a partially drained checkpoint is never restored from.
pub(super) struct PendingCkpt {
    /// Phase counter at the arming boundary.
    phase: usize,
    /// What the resilience manager planned to store, and its cost.
    capture: Capture,
    /// When the capture was armed.
    started: SimTime,
    /// When the slower storage tier finishes draining.
    completes_at: SimTime,
}

/// Drive the checkpoint pipeline at a phase boundary. Returns `Some(t)`
/// when the boundary must stall until `t` (a synchronous drain, the
/// incremental change-detection scan, or a write-fence on a still-
/// running previous drain) — the caller reschedules itself and re-enters.
/// Returns `None` when the phase may proceed immediately.
///
/// Boundaries whose phase value is `Some` never checkpoint: the value is
/// not stored in the checkpoint, and a replay from it hands the driver
/// `None`, so it would not be faithful. Drivers that thread values
/// between phases simply get coarser checkpoints.
pub(in crate::runtime) fn maybe_checkpoint(sim: &mut RtSim, prev_is_none: bool) -> Option<SimTime> {
    let now = sim.now();
    let phase = sim.world.phases.phase();
    if let Some(p) = &sim.world.recovery.pending_ckpt {
        if p.phase == phase {
            // Re-entry into the boundary that armed this capture (stall
            // resume, or a same-instant scheduling race with the commit
            // event): commit if the drain is done, else let the phase
            // run alongside its own background drain.
            if p.completes_at <= now {
                commit_pending_ckpt(sim);
            }
            return None;
        }
        if p.completes_at > now {
            // The previous drain has not landed by this boundary:
            // write-fence. The boundary stalls until the commit, which
            // also keeps captures strictly one-at-a-time.
            let wait = p.completes_at - now;
            let (pphase, until) = (p.phase, p.completes_at);
            let w = &mut sim.world;
            w.monitor.resilience.ckpt_fence_ns += wait.as_nanos();
            let host = w.recovery.detector_host();
            let fence = EventKind::CheckpointFence {
                phase: pphase as u32,
            };
            trace_span(w, now, wait, host, fence);
            return Some(until);
        }
        // Drain finished but its commit event has not fired yet at this
        // exact instant: commit inline (the scheduled event no-ops).
        commit_pending_ckpt(sim);
    }
    let w = &mut sim.world;
    let mgr = w.recovery.manager.as_mut()?;
    if !(prev_is_none && mgr.due(phase)) {
        return None;
    }
    // Arm the snapshots, which serializes the boundary once; the manager
    // fingerprints those bytes and plans the drain.
    let armed: Vec<&[(ItemId, Vec<u8>)]> = w
        .localities
        .iter_mut()
        .map(|l| l.dim.arm_snapshot())
        .collect();
    let capture = mgr.capture(&armed, &mut w.monitor);
    let (fp_ns, drain_ns, logical_bytes) = (capture.fp_ns, capture.drain_ns, capture.logical_bytes);
    let mode = mgr.mode();
    let completes_at = now + SimDuration::from_nanos(fp_ns + drain_ns);
    w.recovery.pending_ckpt = Some(PendingCkpt {
        phase,
        capture,
        started: now,
        completes_at,
    });
    let host = w.recovery.detector_host();
    trace_instant(
        w,
        now,
        host,
        EventKind::Checkpoint {
            phase: phase as u32,
            bytes: logical_bytes,
        },
    );
    schedule(sim, completes_at, RtEvent::CheckpointCommit);
    match mode {
        CkptMode::Sync => {
            // The classic blocking checkpoint: the boundary stalls for
            // the scan plus the full drain.
            sim.world.monitor.resilience.ckpt_stall_ns += fp_ns + drain_ns;
            Some(completes_at)
        }
        // Only the change-detection scan happens at the boundary; the
        // drain overlaps the next phase's compute.
        CkptMode::Async => (fp_ns > 0).then(|| now + SimDuration::from_nanos(fp_ns)),
    }
}

/// Commit the in-flight checkpoint: take the boundary state back from
/// the armed snapshots and hand it to the resilience manager as the
/// chain's newest link. Scheduled at the drain's completion time;
/// idempotent (the boundary may have committed inline already) and
/// epoch-guarded (a recovery tears the drain instead).
pub(in crate::runtime) fn commit_pending_ckpt(sim: &mut RtSim) {
    let now = sim.now();
    let w = &mut sim.world;
    let (Some(p), Some(mgr)) = (w.recovery.pending_ckpt.take(), &mut w.recovery.manager) else {
        return;
    };
    debug_assert!(
        p.completes_at <= now,
        "commit fired before the drain finished"
    );
    let ended = w.localities.iter_mut().map(|l| l.dim.end_snapshot());
    let (full, cow): (Vec<_>, Vec<u64>) = ended.unzip();
    w.monitor.resilience.cow_captures += cow.iter().sum::<u64>();
    let (shards, bytes) = (p.capture.stored_shards as u32, p.capture.stored_bytes);
    // Debug builds check every commit whose chain verifies: the
    // anchor+delta chain must reconstruct the boundary state bit for bit.
    let (comms, monitor) = (&mut w.comms, &mut w.monitor);
    let rot = |bytes: &mut [u8]| {
        let salt = comms.rot_strike(&mut monitor.integrity);
        salt.map(|salt| frame::corrupt_in_place(bytes, salt))
            .is_some()
    };
    mgr.commit(
        p.phase,
        p.capture,
        full,
        &mut monitor.resilience,
        cfg!(debug_assertions),
        rot,
    );
    let host = w.recovery.detector_host();
    trace_span(
        w,
        p.started,
        now - p.started,
        host,
        EventKind::CheckpointDrain {
            phase: p.phase as u32,
            shards,
            bytes,
        },
    );
}

/// A drain still in flight when a recovery strikes is torn: its capture
/// is abandoned on every locality and recovery proceeds from the last
/// *committed* checkpoint — a partially drained snapshot is never
/// restored from.
pub(super) fn tear_pending(w: &mut RtWorld, now: SimTime) {
    let Some(p) = w.recovery.pending_ckpt.take() else {
        return;
    };
    w.monitor.resilience.ckpt_torn += 1;
    let cow: u64 = w
        .localities
        .iter_mut()
        .map(|l| l.dim.end_snapshot().1)
        .sum();
    w.monitor.resilience.cow_captures += cow;
    let host = w.recovery.detector_host();
    trace_instant(
        w,
        now,
        host,
        EventKind::CheckpointTorn {
            phase: p.phase as u32,
        },
    );
}

/// Fall back to the newest retained checkpoint that still verifies
/// ([`ResilienceManager::fall_back`](crate::resilience::ResilienceManager::fall_back)):
/// its phase and the ns its reads take, `None` to restart from scratch.
/// Also resets the detector's suspicion counters.
pub(super) fn restore_point(w: &mut RtWorld) -> Option<(usize, u64)> {
    w.recovery.misses.fill(0);
    let mgr = w.recovery.manager.as_mut()?;
    mgr.fall_back(&w.recovery.dead, &mut w.monitor)
}
