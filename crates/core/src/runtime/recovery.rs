//! Resilience: who is alive, the heartbeat failure detector, and the
//! recovery that rewinds the world to the newest verifiable checkpoint.
//! The checkpoint pipeline itself — the other half of this tenant's
//! state — is the `ckpt` submodule.

mod ckpt;

use allscale_des::{SimDuration, SimTime};
use allscale_net::StorageStats;
use allscale_trace::EventKind;

use super::events::{schedule, RtEvent};
use super::{directory, tasks, trace_instant, RtSim, RtWorld};
use crate::resilience::{ResilienceConfig, ResilienceManager, SUSPICION_THRESHOLD};

pub(super) use ckpt::{commit_pending_ckpt, maybe_checkpoint};

pub(super) struct Recovery {
    /// Resilience-manager state (`None` when the service is disabled).
    manager: Option<ResilienceManager>,
    /// A checkpoint drain still in flight: armed at a boundary, committed
    /// by a scheduled event when the slower storage tier finishes. At
    /// most one per world — the next checkpointing boundary write-fences
    /// on it instead of arming a second capture.
    pending_ckpt: Option<ckpt::PendingCkpt>,
    /// Localities declared dead by the failure detector.
    dead: Vec<bool>,
    /// Consecutive heartbeats each locality missed.
    misses: Vec<u32>,
    /// Bumped on every recovery; events scheduled in an older epoch become
    /// no-ops when they fire (`events::Scheduled`), which is how the
    /// in-flight phase's stale work is discarded wholesale.
    run_epoch: u32,
}

impl Recovery {
    /// With `verify` (the integrity service is on), recovery restores
    /// only from a checkpoint chain that verifies.
    pub(super) fn new(cfg: Option<ResilienceConfig>, nodes: usize, verify: bool) -> Self {
        Recovery {
            manager: cfg.map(|cfg| ResilienceManager::new(cfg, nodes, verify)),
            pending_ckpt: None,
            dead: vec![false; nodes],
            misses: vec![0; nodes],
            run_epoch: 0,
        }
    }

    #[inline]
    pub(super) fn epoch(&self) -> u32 {
        self.run_epoch
    }

    #[inline]
    pub(super) fn dead(&self) -> &[bool] {
        &self.dead
    }

    /// Remap a scheduling target away from localities known to be dead.
    /// The detector's knowledge only — an undetected death is *not*
    /// remapped (the runtime cannot know), so tasks sent there are lost
    /// and stall the phase until the heartbeat detector catches up.
    #[inline]
    pub(super) fn live_target(&self, target: usize) -> usize {
        if self.dead[target] {
            self.live_successor(target)
        } else {
            target
        }
    }

    /// The next live locality after `p` on the ring (successor heir rule).
    /// At least one live locality must remain — the runtime does not model
    /// whole-cluster loss.
    fn live_successor(&self, p: usize) -> usize {
        let nodes = self.dead.len();
        (1..nodes)
            .map(|d| (p + d) % nodes)
            .find(|&q| !self.dead[q])
            .expect("at least one live locality")
    }

    /// The locality hosting the cluster-global duties (failure detection,
    /// phase driving): the lowest-indexed locality not declared dead.
    /// Identical to locality 0 until 0 itself is declared dead — the duties
    /// then fail over to the next survivor instead of dying with their host
    /// (the detector is no longer a single point of failure).
    pub(super) fn detector_host(&self) -> usize {
        self.dead.iter().position(|d| !d).unwrap_or(0)
    }

    pub(super) fn heartbeat_period(&self) -> Option<SimDuration> {
        self.manager.as_ref().map(|m| m.heartbeat_period())
    }

    pub(super) fn storage_stats(&self) -> StorageStats {
        self.manager
            .as_ref()
            .map(|m| m.storage_stats())
            .unwrap_or_default()
    }

    /// See [`RtCtx::corrupt_next_checkpoints`](super::RtCtx::corrupt_next_checkpoints).
    pub(super) fn corrupt_next_checkpoints(&mut self, n: usize) {
        if let Some(mgr) = &mut self.manager {
            mgr.corrupt_commits(n);
        }
    }

    /// See [`RtCtx::retained_checkpoints`](super::RtCtx::retained_checkpoints).
    pub(super) fn retained_checkpoints(&self) -> usize {
        self.manager.as_ref().map_or(0, |m| m.retained())
    }
}

/// One round of the failure detector: the host locality (the lowest
/// survivor, locality 0 until it dies) pings every live peer, the next
/// live locality pings the host in turn — so a dead host is itself
/// detected instead of silencing the detector — and localities silent
/// for [`SUSPICION_THRESHOLD`] consecutive rounds are declared dead. Then
/// the tick rearms itself.
pub(super) fn heartbeat_tick(sim: &mut RtSim) {
    if sim.world.phases.done() {
        return; // stop rearming: lets the event queue drain
    }
    let now = sim.now();
    let w = &mut sim.world;
    let Some(period) = w.recovery.heartbeat_period() else {
        return;
    };
    let nodes = w.localities.len();
    let host = w.recovery.detector_host();
    let mut detected: Vec<usize> = Vec::new();
    // Fail-stop ground truth: a crashed process executes nothing, so an
    // (undetectedly) dead host runs no probe round of its own. The
    // backup probe below is what eventually notices the host.
    if !w.comms.is_down(host, now) {
        for p in 0..nodes {
            if p != host && !w.recovery.dead[p] && probe_finds_dead(w, now, host, p) {
                detected.push(p);
            }
        }
    }
    // Backup probe of the host by its lowest live peer: the detection
    // duty must not die with its host (the old single point of failure —
    // a dead locality 0 silenced detection entirely).
    let backup = (host + 1..nodes).find(|&p| !w.recovery.dead[p]);
    if let Some(backup) = backup {
        if !w.comms.is_down(backup, now) && probe_finds_dead(w, now, backup, host) {
            detected.push(host);
        }
    }
    for p in detected {
        detect_and_recover(sim, p);
    }
    schedule(sim, now + period, RtEvent::HeartbeatTick);
}

/// `from` pings `to` (ping + ack, no retries; the suspicion counter *is*
/// the retry). A silent round is a miss, traced at the prober; a round
/// whose ack found the prober dead counts neither way. Returns whether
/// `to` has now been silent for [`SUSPICION_THRESHOLD`] rounds in a row.
fn probe_finds_dead(w: &mut RtWorld, now: SimTime, from: usize, to: usize) -> bool {
    if w.recovery.manager.is_none() {
        return false;
    }
    w.monitor.resilience.heartbeats += 1;
    let misses = &mut w.recovery.misses[to];
    match w.comms.ping(now, from, to) {
        None => return false,
        Some(true) => {
            *misses = 0;
            return false;
        }
        Some(false) => *misses += 1,
    }
    let misses = *misses;
    trace_instant(
        w,
        now,
        from,
        EventKind::Suspicion {
            suspect: to as u32,
            misses,
        },
    );
    misses >= SUSPICION_THRESHOLD
}

/// Declare `dead` failed and orchestrate recovery: discard the in-flight
/// phase (epoch bump makes its pending events no-ops), rewind every
/// locality to the newest *verifiable* checkpoint, graft the dead
/// locality's shards onto its live ring successor, re-advertise all
/// ownership in the index with a location-cache epoch bump, and replay
/// from the checkpointed phase boundary. Safe by the model's Section 2.5
/// properties: checkpointed data is preserved, and a task either
/// completed before the checkpoint (its effects are in the snapshot) or
/// re-runs from it — never both.
///
/// With checkpoint verification on, every shard's stored checksum is
/// re-checked first: a checkpoint with any corrupt shard is abandoned
/// for good and recovery falls back to the previous retained checkpoint,
/// or to a full restart when none survives — restoring rotted state
/// would violate data preservation far more subtly than restarting.
fn detect_and_recover(sim: &mut RtSim, dead: usize) {
    if sim.world.recovery.dead[dead] {
        return;
    }
    let now = sim.now();
    let w = &mut sim.world;
    w.recovery.dead[dead] = true;
    w.recovery.run_epoch += 1;
    w.monitor.resilience.detections += 1;
    w.monitor.resilience.recoveries += 1;
    if let Some(t0) = w.comms.death_time(dead) {
        if now >= t0 {
            w.monitor.resilience.detection_latency_ns += (now - t0).as_nanos();
        }
    }
    ckpt::tear_pending(w, now);
    let point = ckpt::restore_point(w);
    // Everything the abandoned phase left in the other tenants; their
    // scheduled events are disarmed by the epoch bump above.
    tasks::reset_for_recovery(w);
    w.comms.reset_for_recovery();
    w.scheduler.reset_for_recovery();
    w.serving.reset_for_recovery(&mut w.monitor.serve);
    let restored = point.is_some();
    let mut grafted = 0u64;
    if restored {
        let snap = w.recovery.manager.as_ref().expect("restored").newest();
        // An item destroyed since the checkpoint comes back with it (the
        // replayed driver destroys it again).
        for (item, _) in &snap[0] {
            w.directory.revive(&mut w.localities, *item);
        }
        // Pass 1: rewind every survivor, wipe every dead locality
        // (fail-stop: a crashed process loses its volatile data).
        for (p, shards) in snap.iter().enumerate() {
            if w.recovery.dead[p] {
                w.localities[p].dim.wipe_all();
            } else {
                w.localities[p].dim.restore(shards);
            }
        }
        // Pass 2: graft each dead locality's checkpointed shards onto its
        // live ring successor — after the survivors' own restore, so the
        // graft is not clobbered.
        for p in (0..snap.len()).filter(|&p| w.recovery.dead[p]) {
            let heir = w.recovery.live_successor(p);
            for (item, bytes) in &snap[p] {
                w.localities[heir].dim.import_owned(*item, bytes);
                grafted += bytes.len() as u64;
            }
        }
        w.monitor.resilience.restored_bytes += grafted;
    }
    // Without a checkpoint the application restarts from scratch.
    directory::reset_for_recovery(w, restored);
    let (phase, read_ns) = point.unwrap_or((0, 0));
    w.phases.reset_for_recovery(phase);
    let host = w.recovery.detector_host();
    trace_instant(
        w,
        now,
        host,
        EventKind::Recovery {
            dead: dead as u32,
            phase: phase as u32,
            restored_bytes: grafted,
        },
    );
    // Replay from the restored boundary once the tier reads land
    // (guarded: a second recovery before this fires would supersede it).
    let resume = now + SimDuration::from_nanos(read_ns);
    schedule(sim, resume, RtEvent::PhaseResume(None));
}
