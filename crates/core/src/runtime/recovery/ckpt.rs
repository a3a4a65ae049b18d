//! The checkpoint pipeline: arm a copy-on-write capture at a phase
//! boundary, drain it to the two storage tiers in the background, commit
//! it — and, for a recovery, tear what is in flight and reconstruct the
//! newest checkpoint that still verifies.

use std::collections::BTreeMap;

use allscale_des::fnv::{fnv1a_64, fnv1a_64_batch};
use allscale_des::{SimDuration, SimTime};
use allscale_net::{frame, StorageTier};
use allscale_trace::EventKind;

use super::Recovery;
use crate::resilience::{reconstruct, CkptKind, CkptMode, LentSnapshot, SavedCkpt};
use crate::runtime::{schedule_task_event, trace_instant, trace_span, RtSim, RtWorld};
use crate::task::ItemId;

/// An asynchronous checkpoint in flight: the copy-on-write capture was
/// armed at a phase boundary, the storage drain is running in the
/// background, and a scheduled event commits the checkpoint when the
/// slower tier finishes. Discarded as *torn* if a recovery strikes
/// first — a partially drained checkpoint is never restored from.
pub(super) struct PendingCkpt {
    /// Phase counter at the arming boundary.
    phase: usize,
    /// Full anchor or delta against the previous checkpoint.
    kind: CkptKind,
    /// Items each locality will store (changed shards only, for a
    /// delta), ascending.
    plan: Vec<Vec<ItemId>>,
    /// Boundary fingerprints per locality: `item -> (fp, len)` — becomes
    /// the manager's change-detection reference at commit.
    fps: Vec<BTreeMap<ItemId, (u64, u64)>>,
    /// When the capture was armed.
    started: SimTime,
    /// When the slower storage tier finishes draining.
    completes_at: SimTime,
    /// `Monitor::total_tasks()` at the boundary.
    tasks_done: u64,
    /// Full boundary-state bytes the checkpoint represents.
    logical_bytes: u64,
    /// Bytes actually written to each tier (delta shards only).
    stored_bytes: u64,
    /// Shards actually written (sum over localities).
    stored_shards: u64,
}

/// Drive the checkpoint pipeline at a phase boundary. Returns `Some(t)`
/// when the boundary must stall until `t` (a synchronous drain, the
/// incremental change-detection scan, or a write-fence on a still-
/// running previous drain) — the caller reschedules itself and re-enters.
/// Returns `None` when the phase may proceed immediately.
///
/// Boundaries whose phase value is `Some` never checkpoint: `TaskValue`
/// is an opaque `Box<dyn Any>` that cannot be serialized into the
/// checkpoint, so the replay (which feeds `None`) would not be faithful.
/// Drivers that thread values between phases simply get coarser
/// checkpoints.
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
    // ---- capture: arm the snapshots, which serializes the boundary once,
    // and fingerprint those bytes — every locality's shards in one batch,
    // hashed abreast.
    let armed: Vec<&[(ItemId, Vec<u8>)]> = w
        .localities
        .iter_mut()
        .map(|l| l.dim.arm_snapshot())
        .collect();
    let shards: Vec<&[u8]> = armed
        .iter()
        .flat_map(|row| row.iter().map(|(_, bytes)| bytes.as_slice()))
        .collect();
    let mut hashed = fnv1a_64_batch(&shards).into_iter();
    let fps: Vec<BTreeMap<ItemId, (u64, u64)>> = armed
        .iter()
        .map(|row| {
            let signed = row.iter().zip(hashed.by_ref());
            signed.map(|((id, bytes), fp)| (*id, (fp, bytes.len() as u64))).collect()
        })
        .collect();
    let logical_bytes: u64 = fps
        .iter()
        .flat_map(|m| m.values().map(|&(_, len)| len))
        .sum();
    let kind = mgr.next_kind();
    let mode = mgr.cfg.ckpt.mode;
    // The change-detection scan is billed (at memory-bandwidth rate)
    // only when incremental checkpointing actually consumes it.
    let fp_ns = if mgr.cfg.ckpt.incremental {
        mgr.storage.fingerprint_ns(logical_bytes)
    } else {
        0
    };
    let plan: Vec<Vec<ItemId>> = match kind {
        CkptKind::Anchor => fps.iter().map(|m| m.keys().copied().collect()).collect(),
        CkptKind::Delta => fps
            .iter()
            .zip(&mgr.last_fps)
            .map(|(cur, last)| {
                cur.iter()
                    .filter(|(id, sig)| last.get(id) != Some(sig))
                    .map(|(id, _)| *id)
                    .collect()
            })
            .collect(),
    };
    // Both tiers are written (fast local restore + death-surviving
    // remote replica); one locality's shards drain sequentially through
    // each tier channel, distinct localities drain in parallel — the
    // drain completes when the slowest locality's slower tier does.
    let mut drain_ns = 0u64;
    let mut stored_bytes = 0u64;
    let mut stored_shards = 0u64;
    for (loc, ids) in plan.iter().enumerate() {
        let bytes: u64 = ids.iter().map(|id| fps[loc][id].1).sum();
        let shards = ids.len() as u64;
        stored_bytes += bytes;
        stored_shards += shards;
        let local = mgr.storage.write_ns(StorageTier::Local, shards, bytes);
        let remote = mgr.storage.write_ns(StorageTier::Remote, shards, bytes);
        drain_ns = drain_ns.max(local.max(remote));
    }
    w.monitor.resilience.ckpt_fp_ns += fp_ns;
    w.monitor.resilience.ckpt_drain_ns += drain_ns;
    let completes_at = now + SimDuration::from_nanos(fp_ns + drain_ns);
    w.recovery.pending_ckpt = Some(PendingCkpt {
        phase,
        kind,
        plan,
        fps,
        started: now,
        completes_at,
        tasks_done: w.monitor.total_tasks(),
        logical_bytes,
        stored_bytes,
        stored_shards,
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
    schedule_task_event(sim, completes_at, commit_pending_ckpt);
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
/// the armed snapshots, keep only the planned shards — moved, not copied,
/// and checksummed by their boundary fingerprints, which hashed these very
/// bytes — and hand the link to the resilience manager. Scheduled at the
/// drain's completion time; idempotent (the boundary may have committed
/// inline already) and epoch-guarded (a recovery tears the drain instead).
fn commit_pending_ckpt(sim: &mut RtSim) {
    let now = sim.now();
    let w = &mut sim.world;
    let (Some(p), Some(mgr)) = (w.recovery.pending_ckpt.take(), &mut w.recovery.manager) else {
        return;
    };
    debug_assert!(
        p.completes_at <= now,
        "commit fired before the drain finished"
    );
    let full: Vec<Vec<(ItemId, Vec<u8>)>> = w
        .localities
        .iter_mut()
        .map(|l| l.dim.finish_snapshot())
        .collect();
    let cow: u64 = w
        .localities
        .iter_mut()
        .map(|l| l.dim.take_cow_captures())
        .sum();
    let stats = &mut w.monitor.resilience;
    stats.cow_captures += cow;
    // Roster, stored shards and checksums all come from the *boundary*
    // state, before the stored copy is exposed to at-rest rot, so a rotted
    // shard fails verification at reconstruction time.
    let roster: Vec<Vec<ItemId>> = full
        .iter()
        .map(|shards| shards.iter().map(|(id, _)| *id).collect())
        .collect();
    // Debug builds check every commit: the anchor+delta chain must
    // reconstruct the boundary state bit for bit. Skipped when the fault
    // plan rots stored shards — a rotted older link legitimately breaks it.
    let boundary = (cfg!(debug_assertions) && !w.comms.rot_configured()).then(|| full.clone());
    let planned = |(row, plan): (Vec<(ItemId, Vec<u8>)>, &Vec<ItemId>)| {
        let kept = row.into_iter().filter(|(id, _)| plan.binary_search(id).is_ok());
        kept.collect::<Vec<_>>()
    };
    let shards: Vec<Vec<(ItemId, Vec<u8>)>> =
        full.into_iter().zip(&p.plan).map(planned).collect();
    let sums: Vec<Vec<u64>> = shards
        .iter()
        .zip(&p.fps)
        .map(|(row, fps)| {
            let sum = |(id, bytes): &(ItemId, Vec<u8>)| {
                let fp = fps[id].0;
                debug_assert_eq!(fp, fnv1a_64(bytes), "{id:?} changed since the boundary");
                fp
            };
            row.iter().map(sum).collect()
        })
        .collect();
    stats.checkpoints += 1;
    stats.checkpoint_bytes += p.stored_bytes;
    stats.ckpt_logical_bytes += p.logical_bytes;
    match p.kind {
        CkptKind::Anchor => stats.ckpt_anchors += 1,
        CkptKind::Delta => stats.ckpt_deltas += 1,
    }
    let entry = SavedCkpt {
        phase: p.phase,
        kind: p.kind,
        shards,
        sums,
        roster,
    };
    mgr.save(entry, p.tasks_done);
    mgr.last_fps = p.fps;
    if let Some(boundary) = boundary {
        let upto = mgr.saved.len() - 1;
        let (snap, _) =
            reconstruct(&mgr.saved, upto, false).expect("committed chain must reconstruct");
        let lent = snap.iter().map(|row| row.iter().copied());
        fn lend(shard: &(ItemId, Vec<u8>)) -> (ItemId, &[u8]) {
            (shard.0, &shard.1)
        }
        let full = boundary.iter().map(|row| row.iter().map(lend));
        assert!(
            lent.len() == full.len() && lent.zip(full).all(|(lent, full)| lent.eq(full)),
            "delta reconstruction diverged from the full boundary snapshot"
        );
    }
    // At-rest rot strikes the *stored* copy only, after checksums.
    let stored = mgr.saved.last_mut().expect("entry just saved");
    for (_, bytes) in stored.shards.iter_mut().flatten() {
        if let Some(salt) = w.comms.rot_strike(&mut w.monitor.integrity) {
            frame::corrupt_in_place(bytes, salt);
        }
    }
    let host = w.recovery.detector_host();
    trace_span(
        w,
        p.started,
        now - p.started,
        host,
        EventKind::CheckpointDrain {
            phase: p.phase as u32,
            shards: p.stored_shards as u32,
            bytes: p.stored_bytes,
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
    let mut cow = 0u64;
    for l in w.localities.iter_mut() {
        l.dim.abort_snapshot();
        cow += l.dim.take_cow_captures();
    }
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

/// Where a recovery resumes from.
pub(super) struct RestorePoint {
    /// Whether a retained checkpoint verified — [`newest_snapshot`] lends
    /// its boundary state; `false` = restart from scratch.
    pub restored: bool,
    /// The phase to request from the driver again.
    pub phase: usize,
    /// Simulated ns the restore spends reading the storage tiers.
    pub read_ns: u64,
}

/// Pick the newest retained checkpoint that still verifies, falling back
/// newest-first across the retained points: each candidate is the full
/// reconstruction of its anchor+delta chain, and with checkpoint
/// verification on every link is checksum-verified — a delta is only as
/// good as the links under it. Rejected points stay dropped so a later
/// recovery does not re-try them (which leaves the chosen one the newest
/// retained). Also resets the detector's suspicion counters, re-points
/// incremental change detection at what is about to be restored, and
/// counts the tasks the rewind discards.
pub(super) fn restore_point(w: &mut RtWorld) -> RestorePoint {
    let mut point = RestorePoint {
        restored: false,
        phase: 0,
        read_ns: 0,
    };
    let Some(mgr) = &mut w.recovery.manager else {
        return point;
    };
    mgr.misses.fill(0);
    mgr.last_fps = vec![BTreeMap::new(); w.localities.len()];
    let verify = w
        .integrity
        .as_ref()
        .is_some_and(|m| m.cfg.verify_checkpoints);
    while let Some(upto) = mgr.saved.len().checked_sub(1) {
        match reconstruct(&mgr.saved, upto, verify) {
            Ok((snap, cost)) => {
                if verify {
                    w.monitor.integrity.ckpt_links_verified += cost.links;
                }
                // Bill the restore reads: survivors pull their shards
                // from the fast local tier, a dead locality's shards
                // only survive on the remote tier. Localities read in
                // parallel; the restore completes at the slowest.
                for (loc, &is_dead) in w.recovery.dead.iter().enumerate() {
                    let tier = if is_dead {
                        StorageTier::Remote
                    } else {
                        StorageTier::Local
                    };
                    let ns = mgr.storage.read_ns(tier, cost.shards[loc], cost.bytes[loc]);
                    point.read_ns = point.read_ns.max(ns);
                }
                w.monitor.resilience.recovery_read_ns += point.read_ns;
                point.phase = mgr.saved[upto].phase;
                point.restored = true;
                // A shard `reconstruct` verified hashes to its stored
                // checksum; unverified bytes may have rotted since that
                // was taken, so they are hashed as restored — abreast.
                let hashed: Vec<u64> = if verify {
                    cost.sums.into_iter().flatten().collect()
                } else {
                    let shards: Vec<&[u8]> = snap.iter().flatten().map(|(_, b)| *b).collect();
                    fnv1a_64_batch(&shards)
                };
                let mut hashed = hashed.into_iter();
                for (fps, row) in mgr.last_fps.iter_mut().zip(&snap) {
                    let sig = |(&(id, b), fp): (&(ItemId, &[u8]), u64)| (id, (fp, b.len() as u64));
                    *fps = row.iter().zip(hashed.by_ref()).map(sig).collect();
                }
                debug_assert!(
                    snap.iter()
                        .zip(&mgr.last_fps)
                        .all(|(row, fps)| row.iter().all(|(id, b)| fps[id].0 == fnv1a_64(b))),
                    "change detection must restart from the hash of what was restored"
                );
                break;
            }
            Err(bad) => {
                w.monitor.integrity.checkpoint_shards_rejected += bad;
                w.monitor.integrity.checkpoint_fallbacks += 1;
                mgr.saved.pop();
            }
        }
    }
    mgr.since_anchor = mgr
        .saved
        .iter()
        .rev()
        .take_while(|s| s.kind == CkptKind::Delta)
        .count();
    let reexecuted = w
        .monitor
        .total_tasks()
        .saturating_sub(mgr.tasks_at_checkpoint);
    w.monitor.resilience.tasks_reexecuted += reexecuted;
    point
}

/// The boundary state of the newest retained checkpoint — the one
/// [`restore_point`] settled on — lent from the stored shards.
pub(super) fn newest_snapshot(recovery: &Recovery) -> LentSnapshot<'_> {
    let mgr = recovery.manager.as_ref().expect("a checkpoint was restored");
    let newest = mgr.saved.len() - 1;
    let (snap, _) = reconstruct(&mgr.saved, newest, false).expect("verified a moment ago");
    snap
}
