//! The resilience manager (paper Section 3.2).
//!
//! "The *resilience manager* is a service enabled by the application
//! model": the data-preservation and single-execution properties of the
//! formal model (Section 2.5) guarantee that a phase either completed
//! before a checkpoint or can be re-run from it without double-applying
//! effects. The service has four parts:
//!
//! - a **checkpoint cadence** — every `checkpoint_every` phase
//!   boundaries, the runtime snapshots the owned data of every item on
//!   every locality (only at boundaries whose phase value is `None`: task
//!   values are not serializable; DESIGN.md §5.5b);
//! - a **checkpoint chain** ([`CheckpointConfig`]) — billed on the
//!   simulated clock against the two-tier store of
//!   [`allscale_net::StorageModel`] (a fast node-local tier lost with the
//!   locality, a slower remote tier that survives deaths); in
//!   [`CkptMode::Async`] the capture is copy-on-write at the boundary and
//!   the drain overlaps the next phase's compute, and with `incremental`
//!   only shards whose fingerprint changed are written (deltas), with
//!   periodic full *anchors* bounding the reconstruction chain. With the
//!   integrity service on, recovery verifies every link's checksums and
//!   falls back past a rejected point (retention depth
//!   [`CheckpointConfig::keep`]);
//! - a **heartbeat failure detector** — the lowest live locality pings
//!   every other live one each `heartbeat_period`, the next live locality
//!   pings it in turn, and a locality missing `SUSPICION_THRESHOLD`
//!   consecutive heartbeats is declared dead (fail-stop);
//! - a more persistent **retry policy** for the runtime's own messages
//!   ([`allscale_net::RetryPolicy`]), chosen by the runtime's comms layer
//!   whenever the manager is on.
//!
//! The chain keeps its own books here (`ResilienceManager`): the
//! shards' format, retention, the anchor-or-delta choice, the change-
//! detection reference and the fallback. The runtime's recovery module
//! drives it — arming captures, scheduling drains and heartbeats on the
//! DES clock, and restoring what the chain lends back.

use std::collections::BTreeMap;

use allscale_des::fnv::{fnv1a_64, fnv1a_64_batch};
use allscale_des::SimDuration;
use allscale_net::{StorageModel, StorageParams, StorageStats, StorageTier};

use crate::monitor::Monitor;
use crate::task::ItemId;

/// When checkpoint serialization and storage writes are billed relative
/// to the phase that triggered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// The boundary stalls until the snapshot is fully persisted to both
    /// storage tiers (classic blocking checkpoint — the baseline arm of
    /// the recovery-time/overhead frontier).
    Sync,
    /// The boundary arms a copy-on-write capture and resumes compute
    /// immediately; the drain completes in the background, and the *next*
    /// checkpointing boundary write-fences only if the drain is still in
    /// flight.
    Async,
}

/// Configuration of the checkpoint pipeline.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig {
    /// Blocking or copy-on-write background drains.
    pub mode: CkptMode,
    /// Write delta checkpoints (only shards whose region fingerprint
    /// changed since the last checkpoint) between full anchors.
    pub incremental: bool,
    /// With `incremental`, force a full anchor snapshot after this many
    /// consecutive deltas (bounds the reconstruction chain; ≥ 1).
    pub anchor_every: usize,
    /// Retention depth: recovery can fall back across this many retained
    /// checkpoints when newer ones are corrupt (≥ 1; deltas additionally
    /// retain their supporting anchor chain).
    pub keep: usize,
    /// Cost envelope of the two-tier checkpoint store.
    pub storage: StorageParams,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            mode: CkptMode::Async,
            incremental: true,
            anchor_every: 4,
            keep: 2,
            storage: StorageParams::default(),
        }
    }
}

/// Consecutive missed heartbeats before a locality is declared dead.
pub(crate) const SUSPICION_THRESHOLD: u32 = 3;

/// Configuration of the resilience manager.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Take a checkpoint every this many phase boundaries (≥ 1).
    pub checkpoint_every: usize,
    /// The checkpoint pipeline (mode, incrementality, retention, storage
    /// cost envelope).
    pub ckpt: CheckpointConfig,
    /// Period of the failure detector's heartbeat round.
    pub heartbeat_period: SimDuration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_every: 2,
            ckpt: CheckpointConfig::default(),
            heartbeat_period: SimDuration::from_micros(50),
        }
    }
}

allscale_des::stat_struct! {
    /// Recovery metrics, aggregated into [`crate::Monitor`].
    #[derive(Debug, Clone, Default)]
    pub struct ResilienceStats {
        /// Checkpoints committed.
        pub checkpoints: u64,
        /// Serialized bytes actually written per checkpoint (delta shards
        /// only, for incremental checkpoints), summed across all commits.
        pub checkpoint_bytes: u64,
        /// Full boundary-state bytes each checkpoint represents (what a
        /// non-incremental checkpoint would have written), summed.
        pub ckpt_logical_bytes: u64,
        /// Committed full anchor snapshots.
        pub ckpt_anchors: u64,
        /// Committed delta checkpoints.
        pub ckpt_deltas: u64,
        /// Simulated ns the application stalled inside `Sync` checkpoints.
        pub ckpt_stall_ns: u64,
        /// Simulated ns boundaries stalled on a write-fence because the
        /// previous asynchronous drain had not finished.
        pub ckpt_fence_ns: u64,
        /// Simulated ns of background drain time (capture to commit), summed
        /// over checkpoints — overlapped with compute in `Async` mode.
        pub ckpt_drain_ns: u64,
        /// Simulated ns spent fingerprinting boundary state for incremental
        /// change detection.
        pub ckpt_fp_ns: u64,
        /// In-flight drains discarded because a failure struck before commit
        /// (recovery never restores from a torn checkpoint).
        pub ckpt_torn: u64,
        /// Pre-image clones the modelled runtime takes: first writes to an
        /// item under an armed copy-on-write capture (counted, not re-enacted —
        /// DESIGN.md §5.5b).
        pub cow_captures: u64,
        /// Simulated ns recoveries spent reading checkpoint data back from
        /// the storage tiers.
        pub recovery_read_ns: u64,
        /// Heartbeat probes sent by the failure detector.
        pub heartbeats: u64,
        /// Localities declared dead by the detector.
        pub detections: u64,
        /// Simulated nanoseconds between each death and its detection.
        pub detection_latency_ns: u64,
        /// Recovery orchestrations performed.
        pub recoveries: u64,
        /// Bytes of dead localities' shards restored onto survivors.
        pub restored_bytes: u64,
        /// Process-task executions discarded and re-run due to recoveries.
        pub tasks_reexecuted: u64,
        /// Runtime messages lost even after retrying (dead endpoint or
        /// exhausted attempts); each strands work until recovery reaps it.
        pub failed_transfers: u64,
    }
}

/// Whether a retained checkpoint is a full snapshot or a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CkptKind {
    /// Full snapshot of every item — self-contained.
    Anchor,
    /// Only the shards whose fingerprint changed since the previous
    /// retained checkpoint; reconstruction replays the chain from the
    /// nearest anchor.
    Delta,
}

/// A retained checkpoint: one link of the anchor+delta chain.
///
/// `phase` is the value of the runtime's phase counter at the boundary:
/// recovery rewinds the counter to it and re-requests that phase's root
/// work item from the driver.
#[derive(Clone)]
struct SavedCkpt {
    /// Phase counter value at the boundary (the phase about to start).
    phase: usize,
    /// Anchor (full) or delta (changed shards only).
    kind: CkptKind,
    /// Stored shards per locality, ascending `ItemId`. An anchor holds
    /// every item; a delta only the changed ones.
    shards: Vec<Vec<(ItemId, Vec<u8>)>>,
    /// FNV-1a checksum of each stored shard, aligned with
    /// `shards[loc][k]`. Computed over the in-memory bytes at save time,
    /// *before* any at-rest rot is injected into the stored copy — so a
    /// rotted shard fails verification at reconstruction.
    sums: Vec<Vec<u64>>,
    /// Every item alive at the boundary, per locality (ascending) — lets
    /// reconstruction drop items that a delta does not mention because
    /// they were destroyed, not because they were unchanged.
    roster: Vec<Vec<ItemId>>,
}

/// The boundary state a chain reconstructs to — per locality, ascending
/// `ItemId` — lent from the chain's stored shards: a restore decodes each
/// shard from where it is stored.
pub(crate) type LentSnapshot<'a> = Vec<Vec<(ItemId, &'a [u8])>>;

/// Byte/shard accounting of one chain reconstruction, per locality —
/// the recovery restore path bills these against the storage tiers.
struct ReconstructCost {
    /// The stored checksum of each reconstructed shard, aligned with
    /// `LentSnapshot[loc][k]`. A reconstruction that verified has just
    /// shown each to be the hash of its shard's bytes.
    sums: Vec<Vec<u64>>,
    /// Chain links (anchor + deltas) read and applied.
    links: u64,
    /// Stored bytes read per locality across all links used.
    bytes: Vec<u64>,
    /// Stored shards read per locality across all links used.
    shards: Vec<u64>,
}

/// Replay the anchor+delta chain `chain[..=upto]` into the full
/// boundary state of `chain[upto]`.
///
/// Scans back from `upto` to the nearest anchor, then applies each
/// link's shards forward (newer shards overwrite older ones) and prunes
/// the result to `chain[upto]`'s roster. With `verify`, every link's
/// shards are checksummed first — all of them in one batch, hashed
/// abreast — and the reconstruction fails with the number of rejected
/// shards if any link is corrupt: a delta chain is only as trustworthy as
/// its weakest link. Fails with 0 rejected shards if no anchor supports
/// `upto` (evicted or never taken).
fn reconstruct(
    chain: &[SavedCkpt],
    upto: usize,
    verify: bool,
) -> Result<(LentSnapshot<'_>, ReconstructCost), u64> {
    let Some(base) = chain[..=upto]
        .iter()
        .rposition(|s| s.kind == CkptKind::Anchor)
    else {
        return Err(0);
    };
    let links = &chain[base..=upto];
    if verify {
        let stored = links.iter().flat_map(|link| link.shards.iter().flatten());
        let stored: Vec<&[u8]> = stored.map(|(_, bytes)| bytes.as_slice()).collect();
        let sums = links.iter().flat_map(|link| link.sums.iter().flatten());
        let hashed = fnv1a_64_batch(&stored);
        let bad = hashed.iter().zip(sums).filter(|(h, sum)| h != sum).count() as u64;
        if bad > 0 {
            return Err(bad);
        }
    }
    let nloc = links[0].shards.len();
    let mut cost = ReconstructCost {
        sums: Vec::with_capacity(nloc),
        links: links.len() as u64,
        bytes: vec![0; nloc],
        shards: vec![0; nloc],
    };
    let mut acc: Vec<BTreeMap<ItemId, (&[u8], u64)>> = vec![BTreeMap::new(); nloc];
    for link in links {
        for (loc, (shards, sums)) in link.shards.iter().zip(&link.sums).enumerate() {
            for ((id, bytes), &sum) in shards.iter().zip(sums) {
                cost.bytes[loc] += bytes.len() as u64;
                cost.shards[loc] += 1;
                acc[loc].insert(*id, (bytes.as_slice(), sum));
            }
        }
    }
    let top = &chain[upto];
    let mut per_locality = Vec::with_capacity(nloc);
    for (loc, mut items) in acc.into_iter().enumerate() {
        items.retain(|id, _| top.roster[loc].binary_search(id).is_ok());
        cost.sums.push(items.values().map(|&(_, sum)| sum).collect());
        let lent = items.into_iter().map(|(id, (bytes, _))| (id, bytes));
        per_locality.push(lent.collect());
    }
    Ok((per_locality, cost))
}

/// A shard's signature: the fingerprint and the length of its bytes.
type Sig = (u64, u64);

/// A checkpoint the manager planned at a boundary: what its drain
/// stores, and what that costs on the simulated clock.
pub(crate) struct Capture {
    /// Full anchor or delta against the newest committed checkpoint.
    kind: CkptKind,
    /// Per locality, aligned with the armed snapshot (ascending
    /// `ItemId`): each shard's item, signature, and whether the drain
    /// stores it — every one for an anchor, the changed ones for a delta.
    shards: Vec<Vec<(ItemId, Sig, bool)>>,
    /// `Monitor::total_tasks()` at the boundary.
    tasks_done: u64,
    /// Full boundary-state bytes the checkpoint represents.
    pub logical_bytes: u64,
    /// Bytes written to each tier (stored shards only).
    pub stored_bytes: u64,
    /// Shards written, summed over localities.
    pub stored_shards: u64,
    /// Simulated ns of the change-detection scan (0 unless incremental).
    pub fp_ns: u64,
    /// Simulated ns until the slowest locality's slower tier has drained.
    pub drain_ns: u64,
}

/// Live state of the resilience manager, owned by the runtime world: the
/// policy, the checkpoint chain, and the store the chain is billed
/// against.
pub(crate) struct ResilienceManager {
    cfg: ResilienceConfig,
    /// Retained checkpoints, oldest first: the newest
    /// [`CheckpointConfig::keep`] points plus whatever older links their
    /// reconstruction chains need back to an anchor.
    saved: Vec<SavedCkpt>,
    /// `Monitor::total_tasks()` at the instant of the last checkpoint —
    /// the baseline for counting re-executed tasks after a recovery.
    tasks_at_checkpoint: u64,
    /// Per locality, the signature of each shard of the newest committed
    /// checkpoint, or of what a recovery restored — the reference
    /// incremental change detection diffs boundary state against.
    last_fps: Vec<BTreeMap<ItemId, Sig>>,
    /// The two-tier checkpoint store (cost math + traffic stats).
    storage: StorageModel,
}

impl ResilienceManager {
    /// A manager over `nodes` localities.
    pub fn new(cfg: ResilienceConfig, nodes: usize) -> Self {
        ResilienceManager {
            cfg,
            saved: Vec::new(),
            tasks_at_checkpoint: 0,
            last_fps: vec![BTreeMap::new(); nodes],
            storage: StorageModel::new(cfg.ckpt.storage),
        }
    }

    /// Period of the failure detector's heartbeat round.
    pub fn heartbeat_period(&self) -> SimDuration {
        self.cfg.heartbeat_period
    }

    /// Blocking or copy-on-write drains.
    pub fn mode(&self) -> CkptMode {
        self.cfg.ckpt.mode
    }

    /// The checkpoint store's traffic so far.
    pub fn storage_stats(&self) -> StorageStats {
        self.storage.stats.clone()
    }

    /// How many checkpoints (anchors and deltas) are retained.
    pub fn retained(&self) -> usize {
        self.saved.len()
    }

    /// Whether a checkpoint is due at the boundary entering `phase`.
    ///
    /// Phase 0 is skipped (nothing to save: recovery before the first
    /// checkpoint restarts the application from scratch), as is a
    /// boundary already checkpointed — replay re-enters the boundary it
    /// was restored to, which must not re-snapshot.
    pub fn due(&self, phase: usize) -> bool {
        phase > 0
            && phase.is_multiple_of(self.cfg.checkpoint_every.max(1))
            && !matches!(self.saved.last(), Some(s) if s.phase == phase)
    }

    /// Whether the next checkpoint must be a full anchor: the first one
    /// ever, non-incremental configs, or an expired delta budget — the
    /// deltas retained since the newest anchor.
    fn next_kind(&self) -> CkptKind {
        let since_anchor = self.saved.iter().rev();
        let since_anchor = since_anchor.take_while(|s| s.kind == CkptKind::Delta).count();
        if !self.cfg.ckpt.incremental
            || self.saved.is_empty()
            || since_anchor + 1 >= self.cfg.ckpt.anchor_every.max(1)
        {
            CkptKind::Anchor
        } else {
            CkptKind::Delta
        }
    }

    /// Plan the checkpoint of the boundary state `armed` (per locality,
    /// ascending `ItemId`): fingerprint every shard in one batch, choose
    /// anchor or delta, store for a delta only the shards whose signature
    /// changed, and bill the scan and the drain to `monitor`. Both tiers
    /// are written; a locality's shards drain one after another through
    /// each tier, localities in parallel — the drain ends with the
    /// slowest locality's slower tier.
    pub fn capture(&mut self, armed: &[&[(ItemId, Vec<u8>)]], monitor: &mut Monitor) -> Capture {
        let shards = armed.iter().flat_map(|row| row.iter());
        let shards: Vec<&[u8]> = shards.map(|(_, bytes)| bytes.as_slice()).collect();
        let mut hashed = fnv1a_64_batch(&shards).into_iter();
        let kind = self.next_kind();
        let shards: Vec<Vec<(ItemId, Sig, bool)>> = armed
            .iter()
            .zip(&self.last_fps)
            .map(|(row, last)| {
                let signed = row.iter().zip(hashed.by_ref());
                let signed = signed.map(|((id, bytes), fp)| (*id, (fp, bytes.len() as u64)));
                let stored = |(id, sig): (ItemId, Sig)| {
                    (id, sig, kind == CkptKind::Anchor || last.get(&id) != Some(&sig))
                };
                signed.map(stored).collect()
            })
            .collect();
        let logical_bytes = shards.iter().flatten().map(|(_, (_, len), _)| len).sum();
        // The change-detection scan is billed (at memory-bandwidth rate)
        // only when incremental checkpointing actually consumes it.
        let fp_ns = if self.cfg.ckpt.incremental {
            self.storage.fingerprint_ns(logical_bytes)
        } else {
            0
        };
        let (mut drain_ns, mut stored_bytes, mut stored_shards) = (0, 0, 0);
        for row in &shards {
            let stored = row.iter().filter(|(_, _, stored)| *stored);
            let (shards, bytes) = stored.fold((0, 0), |(n, b), (_, (_, len), _)| (n + 1, b + len));
            stored_bytes += bytes;
            stored_shards += shards;
            let local = self.storage.write_ns(StorageTier::Local, shards, bytes);
            let remote = self.storage.write_ns(StorageTier::Remote, shards, bytes);
            drain_ns = drain_ns.max(local.max(remote));
        }
        monitor.resilience.ckpt_fp_ns += fp_ns;
        monitor.resilience.ckpt_drain_ns += drain_ns;
        Capture {
            kind,
            shards,
            tasks_done: monitor.total_tasks(),
            logical_bytes,
            stored_bytes,
            stored_shards,
            fp_ns,
            drain_ns,
        }
    }

    /// Commit `capture`, taken at the boundary entering `phase`, as the
    /// chain's newest link: of `full`, the boundary state aligned with the
    /// capture, the stored shards are moved in, checksummed by their
    /// boundary fingerprints. With `check`, the chain must reconstruct
    /// `full` bit for bit. Then `rot` may strike each stored shard — the
    /// stored copy only, after its checksum was taken.
    pub fn commit(
        &mut self,
        phase: usize,
        capture: Capture,
        full: Vec<Vec<(ItemId, Vec<u8>)>>,
        stats: &mut ResilienceStats,
        check: bool,
        mut rot: impl FnMut(&mut [u8]),
    ) {
        stats.checkpoints += 1;
        stats.checkpoint_bytes += capture.stored_bytes;
        stats.ckpt_logical_bytes += capture.logical_bytes;
        match capture.kind {
            CkptKind::Anchor => stats.ckpt_anchors += 1,
            CkptKind::Delta => stats.ckpt_deltas += 1,
        }
        let boundary = check.then(|| full.clone());
        let (mut shards, mut sums, mut roster) = (Vec::new(), Vec::new(), Vec::new());
        for (row, sigs) in full.into_iter().zip(&capture.shards) {
            roster.push(sigs.iter().map(|&(id, _, _)| id).collect());
            let (mut kept, mut fps) = (Vec::new(), Vec::new());
            for (shard, &(id, (fp, _), stored)) in row.into_iter().zip(sigs) {
                if stored {
                    debug_assert_eq!(fp, fnv1a_64(&shard.1), "{id:?} changed since the boundary");
                    kept.push(shard);
                    fps.push(fp);
                }
            }
            shards.push(kept);
            sums.push(fps);
        }
        let entry = SavedCkpt {
            phase,
            kind: capture.kind,
            shards,
            sums,
            roster,
        };
        self.save(entry, capture.tasks_done);
        let signed = |row: &Vec<_>| row.iter().map(|&(id, sig, _)| (id, sig)).collect();
        self.last_fps = capture.shards.iter().map(signed).collect();
        if let Some(boundary) = boundary {
            let lend = boundary.iter().map(|row| row.iter().map(|(id, b)| (*id, &b[..])).collect());
            let boundary: LentSnapshot<'_> = lend.collect();
            let diverged = "delta reconstruction diverged from the full boundary snapshot";
            assert!(self.newest() == boundary, "{diverged}");
        }
        let stored = self.saved.last_mut().expect("entry just saved");
        for (_, bytes) in stored.shards.iter_mut().flatten() {
            rot(bytes);
        }
    }

    /// Record a committed checkpoint, evicting retained points beyond
    /// the configured depth — but never a link a kept point's
    /// reconstruction chain still needs (the prefix back to the newest
    /// anchor at or before the eviction cut survives).
    fn save(&mut self, entry: SavedCkpt, tasks_done: u64) {
        self.saved.push(entry);
        let keep = self.cfg.ckpt.keep.max(1);
        if self.saved.len() > keep {
            let cut = self.saved.len() - keep;
            if let Some(a) = self.saved[..=cut]
                .iter()
                .rposition(|s| s.kind == CkptKind::Anchor)
            {
                self.saved.drain(0..a);
            }
        }
        self.tasks_at_checkpoint = tasks_done;
    }

    /// Fall back newest-first to the newest retained point whose chain
    /// reconstructs, every link checksum-verified when `verify`; return
    /// its phase and the ns its restore reads take (`None`: restart from
    /// scratch). A rejected point is dropped for good, leaving the chosen
    /// one the newest. Survivors read the local tier, a `dead` locality's
    /// shards only the remote one. Change detection restarts from what is
    /// restored; `monitor` counts rejections, reads and discarded tasks.
    pub fn fall_back(
        &mut self,
        verify: bool,
        dead: &[bool],
        monitor: &mut Monitor,
    ) -> Option<(usize, u64)> {
        let reexecuted = monitor.total_tasks().saturating_sub(self.tasks_at_checkpoint);
        monitor.resilience.tasks_reexecuted += reexecuted;
        self.last_fps = vec![BTreeMap::new(); dead.len()];
        while let Some(upto) = self.saved.len().checked_sub(1) {
            let (snap, cost) = match reconstruct(&self.saved, upto, verify) {
                Ok(found) => found,
                Err(bad) => {
                    monitor.integrity.checkpoint_shards_rejected += bad;
                    monitor.integrity.checkpoint_fallbacks += 1;
                    self.saved.pop();
                    continue;
                }
            };
            if verify {
                monitor.integrity.ckpt_links_verified += cost.links;
            }
            let mut read_ns = 0;
            for (loc, &is_dead) in dead.iter().enumerate() {
                let tier = if is_dead {
                    StorageTier::Remote
                } else {
                    StorageTier::Local
                };
                let ns = self.storage.read_ns(tier, cost.shards[loc], cost.bytes[loc]);
                read_ns = read_ns.max(ns);
            }
            monitor.resilience.recovery_read_ns += read_ns;
            // A shard `reconstruct` verified hashes to its stored
            // checksum; unverified bytes may have rotted since that was
            // taken, so they are hashed as restored — abreast.
            let hashed: Vec<u64> = if verify {
                cost.sums.into_iter().flatten().collect()
            } else {
                let shards: Vec<&[u8]> = snap.iter().flatten().map(|(_, b)| *b).collect();
                fnv1a_64_batch(&shards)
            };
            let mut hashed = hashed.into_iter();
            for (fps, row) in self.last_fps.iter_mut().zip(&snap) {
                let sig = |(&(id, b), fp): (&(ItemId, &[u8]), u64)| (id, (fp, b.len() as u64));
                *fps = row.iter().zip(hashed.by_ref()).map(sig).collect();
            }
            debug_assert!(
                snap.iter()
                    .zip(&self.last_fps)
                    .all(|(row, fps)| row.iter().all(|(id, b)| fps[id].0 == fnv1a_64(b))),
                "change detection must restart from the hash of what was restored"
            );
            return Some((self.saved[upto].phase, read_ns));
        }
        None
    }

    /// The boundary state of the newest retained checkpoint — the one
    /// [`ResilienceManager::fall_back`] settled on — lent from the stored
    /// shards.
    pub fn newest(&self) -> LentSnapshot<'_> {
        let newest = self.saved.len() - 1;
        let (snap, _) = reconstruct(&self.saved, newest, false).expect("the chain reconstructs");
        snap
    }

    /// Flip a byte in the first non-empty stored shard of each of the
    /// newest `n` retained checkpoints (simulated at-rest corruption).
    pub fn corrupt_newest(&mut self, n: usize) {
        for entry in self.saved.iter_mut().rev().take(n) {
            let mut shards = entry.shards.iter_mut().flatten();
            if let Some((_, bytes)) = shards.find(|(_, bytes)| !bytes.is_empty()) {
                bytes[0] ^= 0xff;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ResilienceConfig::default();
        assert!(cfg.checkpoint_every >= 1);
        assert!(cfg.heartbeat_period > SimDuration::ZERO);
        assert_eq!(cfg.ckpt.mode, CkptMode::Async);
        assert!(cfg.ckpt.incremental);
        assert!(cfg.ckpt.anchor_every >= 1);
        assert!(cfg.ckpt.keep >= 1);
    }

    #[test]
    fn cadence_skips_phase_zero_and_off_beats() {
        let mgr = ResilienceManager::new(
            ResilienceConfig {
                checkpoint_every: 2,
                ..ResilienceConfig::default()
            },
            4,
        );
        assert!(!mgr.due(0));
        assert!(!mgr.due(1));
        assert!(mgr.due(2));
        assert!(!mgr.due(3));
        assert!(mgr.due(4));
    }

    fn entry(phase: usize, kind: CkptKind, shards: Vec<Vec<(ItemId, Vec<u8>)>>) -> SavedCkpt {
        let sums = shards
            .iter()
            .map(|loc| loc.iter().map(|(_, b)| fnv1a_64(b)).collect())
            .collect();
        let roster = shards
            .iter()
            .map(|loc| loc.iter().map(|(id, _)| *id).collect())
            .collect();
        SavedCkpt {
            phase,
            kind,
            shards,
            sums,
            roster,
        }
    }

    fn empty(phase: usize, kind: CkptKind) -> SavedCkpt {
        entry(phase, kind, vec![Vec::new(), Vec::new()])
    }

    #[test]
    fn replayed_boundary_is_not_recheckpointed() {
        let mut mgr = ResilienceManager::new(ResilienceConfig::default(), 2);
        assert!(mgr.due(2));
        mgr.save(empty(2, CkptKind::Anchor), 7);
        assert!(!mgr.due(2), "restored boundary must not re-snapshot");
        assert!(mgr.due(4), "later boundaries still checkpoint");
        assert_eq!(mgr.tasks_at_checkpoint, 7);
    }

    #[test]
    fn retention_depth_is_configurable() {
        for keep in [1usize, 2, 4] {
            let mut mgr = ResilienceManager::new(
                ResilienceConfig {
                    ckpt: CheckpointConfig {
                        incremental: false,
                        keep,
                        ..CheckpointConfig::default()
                    },
                    ..ResilienceConfig::default()
                },
                2,
            );
            for phase in [2, 4, 6, 8, 10, 12] {
                mgr.save(empty(phase, CkptKind::Anchor), 0);
            }
            assert_eq!(mgr.saved.len(), keep, "keep={keep}");
            let newest: Vec<usize> = mgr.saved.iter().map(|s| s.phase).collect();
            let expect: Vec<usize> = [2usize, 4, 6, 8, 10, 12][6 - keep..].to_vec();
            assert_eq!(newest, expect, "oldest evicted, newest last");
        }
    }

    #[test]
    fn eviction_preserves_the_supporting_anchor_chain() {
        let mut mgr = ResilienceManager::new(
            ResilienceConfig {
                checkpoint_every: 1,
                ckpt: CheckpointConfig {
                    anchor_every: 4,
                    keep: 2,
                    ..CheckpointConfig::default()
                },
                ..ResilienceConfig::default()
            },
            2,
        );
        // Anchor, then deltas: the kept tail always reconstructs.
        for phase in 1..=6 {
            let kind = mgr.next_kind();
            mgr.save(empty(phase, kind), 0);
        }
        assert!(mgr.saved.len() >= 2, "at least `keep` points retained");
        assert_eq!(
            mgr.saved[0].kind,
            CkptKind::Anchor,
            "retained chain starts at an anchor"
        );
        for upto in 0..mgr.saved.len() {
            assert!(
                reconstruct(&mgr.saved, upto, true).is_ok(),
                "every retained point reconstructs"
            );
        }
    }

    #[test]
    fn anchor_cadence_bounds_delta_runs() {
        let mut mgr = ResilienceManager::new(
            ResilienceConfig {
                checkpoint_every: 1,
                ckpt: CheckpointConfig {
                    anchor_every: 3,
                    keep: 8,
                    ..CheckpointConfig::default()
                },
                ..ResilienceConfig::default()
            },
            2,
        );
        let mut kinds = Vec::new();
        for phase in 1..=7 {
            let kind = mgr.next_kind();
            kinds.push(kind);
            mgr.save(empty(phase, kind), 0);
        }
        use CkptKind::{Anchor, Delta};
        assert_eq!(
            kinds,
            vec![Anchor, Delta, Delta, Anchor, Delta, Delta, Anchor],
            "a full anchor every anchor_every checkpoints"
        );
    }

    #[test]
    fn cadence_of_one_checkpoints_every_boundary() {
        let mgr = ResilienceManager::new(
            ResilienceConfig {
                checkpoint_every: 1,
                ..ResilienceConfig::default()
            },
            2,
        );
        assert!(!mgr.due(0));
        assert!(mgr.due(1));
        assert!(mgr.due(2));
        assert!(mgr.due(3));
    }

    fn sh(pairs: &[(u32, &[u8])]) -> Vec<(ItemId, Vec<u8>)> {
        pairs.iter().map(|&(id, b)| (ItemId(id), b.to_vec())).collect()
    }

    /// What a reconstruction lends when it amounts to `pairs`.
    fn lent<'a>(pairs: &[(u32, &'a [u8])]) -> Vec<(ItemId, &'a [u8])> {
        pairs.iter().map(|&(id, b)| (ItemId(id), b)).collect()
    }

    #[test]
    fn reconstruction_replays_anchor_plus_deltas() {
        // Both items stay live across the chain, so every link's roster
        // lists both even when the delta only carries one shard.
        let mut d2 = entry(2, CkptKind::Delta, vec![sh(&[(1, b"B2")])]);
        d2.roster = vec![vec![ItemId(0), ItemId(1)]];
        let mut d3 = entry(3, CkptKind::Delta, vec![sh(&[(0, b"A3")])]);
        d3.roster = vec![vec![ItemId(0), ItemId(1)]];
        let chain = vec![
            entry(1, CkptKind::Anchor, vec![sh(&[(0, b"aa"), (1, b"bb")])]),
            d2,
            d3,
        ];
        let (snap, cost) = reconstruct(&chain, 2, true).unwrap();
        assert_eq!(snap[0], lent(&[(0, b"A3"), (1, b"B2")]));
        assert_eq!(cost.links, 3);
        assert_eq!(cost.shards[0], 4);
        // Stopping earlier in the chain replays less.
        let (snap1, _) = reconstruct(&chain, 1, true).unwrap();
        assert_eq!(snap1[0], lent(&[(0, b"aa"), (1, b"B2")]));
    }

    #[test]
    fn reconstruction_roster_drops_destroyed_items() {
        let mut delta = entry(2, CkptKind::Delta, vec![sh(&[(0, b"A2")])]);
        // Item 1 was destroyed between the anchor and the delta: the delta
        // does not mention it AND its roster omits it.
        delta.roster = vec![vec![ItemId(0)]];
        let chain = vec![
            entry(1, CkptKind::Anchor, vec![sh(&[(0, b"aa"), (1, b"bb")])]),
            delta,
        ];
        let (snap, _) = reconstruct(&chain, 1, true).unwrap();
        assert_eq!(snap[0], lent(&[(0, b"A2")]));
    }

    #[test]
    fn reconstruction_rejects_any_corrupt_link() {
        let mut chain = vec![
            entry(1, CkptKind::Anchor, vec![sh(&[(0, b"aa")])]),
            entry(2, CkptKind::Delta, vec![sh(&[(0, b"A2")])]),
        ];
        // Rot the *anchor* shard: the newest delta is intact, but the
        // chain under it is not.
        chain[0].shards[0][0].1[0] ^= 0xff;
        assert_eq!(reconstruct(&chain, 1, true).map(|_| ()).unwrap_err(), 1);
        // Without verification the corruption sails through.
        assert!(reconstruct(&chain, 1, false).is_ok());
    }

    #[test]
    fn reconstruction_without_anchor_fails_closed() {
        let chain = vec![entry(2, CkptKind::Delta, vec![sh(&[(0, b"A2")])])];
        assert!(reconstruct(&chain, 0, true).is_err());
    }
}
