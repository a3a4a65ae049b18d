//! The resilience manager (paper Section 3.2).
//!
//! "The *resilience manager* is a service enabled by the application
//! model": the data-preservation and single-execution properties of the
//! formal model (Section 2.5) guarantee that a phase either completed
//! before a checkpoint or can be re-run from it without double-applying
//! effects. This module holds the *policy* state of that service:
//!
//! - a **checkpoint cadence** — every `checkpoint_every` phase
//!   boundaries, the runtime snapshots the owned data of every item on
//!   every locality;
//! - a **checkpoint pipeline** ([`CheckpointConfig`]) — checkpoints are
//!   billed on the simulated clock against the two-tier store of
//!   [`allscale_net::StorageModel`] (a fast node-local tier lost with
//!   the locality, a slower off-ring remote tier that survives deaths);
//!   in [`CkptMode::Async`] the capture is copy-on-write at the
//!   boundary and the drain overlaps the next phase's compute, and with
//!   `incremental` only shards whose region fingerprint changed since
//!   the last checkpoint are written (deltas), with periodic full
//!   *anchor* snapshots bounding the reconstruction chain;
//! - a **heartbeat failure detector** — the host locality pings every
//!   other live locality each `heartbeat_period` on the simulated clock;
//!   a locality missing three consecutive heartbeats
//!   (`SUSPICION_THRESHOLD`) is declared dead (fail-stop);
//! - a more persistent **retry policy** for the runtime's own messages
//!   on a faulty fabric (bounded attempts, exponential backoff — see
//!   [`allscale_net::RetryPolicy`]), chosen by the runtime's comms layer
//!   whenever the manager is on.
//!
//! The *mechanism* — arming the copy-on-write capture, scheduling the
//! drain-completion events, driving the heartbeats off the DES clock,
//! and the `recover(dead)` orchestration that restores shards onto
//! survivors, re-advertises ownership in the index, bumps
//! location-cache epochs, and replays the in-flight phase — lives in
//! [`crate::runtime`], which owns the world the manager acts on.
//!
//! The detector is hosted by the lowest-indexed locality not yet
//! declared dead; the next live locality probes the host itself, so a
//! host death fails the detection duty over instead of silencing it.
//! One remaining simplification (documented in DESIGN.md §5.5b): a
//! checkpoint is only taken at boundaries whose phase value is `None`
//! (task values are not serializable, so a phase fed by a previous
//! phase's value cannot be replayed faithfully).
//!
//! When the integrity service is on ([`crate::IntegrityConfig`]), each
//! checkpoint shard is saved together with its FNV-1a checksum; recovery
//! verifies every link of the anchor+delta chain before restoring and
//! falls back to the previous restorable checkpoint (the retention
//! depth is [`CheckpointConfig::keep`]) when one fails.

use std::collections::BTreeMap;

use allscale_des::fnv::fnv1a_64_batch;
use allscale_des::SimDuration;
use allscale_net::{StorageModel, StorageParams};

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
pub(crate) struct SavedCkpt {
    /// Phase counter value at the boundary (the phase about to start).
    pub phase: usize,
    /// Anchor (full) or delta (changed shards only).
    pub kind: CkptKind,
    /// Stored shards per locality, ascending `ItemId`. An anchor holds
    /// every item; a delta only the changed ones.
    pub shards: Vec<Vec<(ItemId, Vec<u8>)>>,
    /// FNV-1a checksum of each stored shard, aligned with
    /// `shards[loc][k]`. Computed over the in-memory bytes at save time,
    /// *before* any at-rest rot is injected into the stored copy — so a
    /// rotted shard fails verification at reconstruction.
    pub sums: Vec<Vec<u64>>,
    /// Every item alive at the boundary, per locality (ascending) — lets
    /// reconstruction drop items that a delta does not mention because
    /// they were destroyed, not because they were unchanged.
    pub roster: Vec<Vec<ItemId>>,
}

/// The boundary state a chain reconstructs to — per locality, ascending
/// `ItemId` — lent from the chain's stored shards: a restore decodes each
/// shard from where it is stored.
pub(crate) type LentSnapshot<'a> = Vec<Vec<(ItemId, &'a [u8])>>;

/// Byte/shard accounting of one chain reconstruction, per locality —
/// the recovery restore path bills these against the storage tiers.
pub(crate) struct ReconstructCost {
    /// The stored checksum of each reconstructed shard, aligned with
    /// `LentSnapshot[loc][k]`. A reconstruction that verified has just
    /// shown each to be the hash of its shard's bytes.
    pub sums: Vec<Vec<u64>>,
    /// Chain links (anchor + deltas) read and applied.
    pub links: u64,
    /// Stored bytes read per locality across all links used.
    pub bytes: Vec<u64>,
    /// Stored shards read per locality across all links used.
    pub shards: Vec<u64>,
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
pub(crate) fn reconstruct(
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

/// Live state of the resilience manager, owned by the runtime world.
pub(crate) struct ResilienceManager {
    /// The configured policy.
    pub cfg: ResilienceConfig,
    /// Retained checkpoints, oldest first: the newest
    /// [`CheckpointConfig::keep`] points plus whatever older links their
    /// reconstruction chains need back to an anchor.
    pub saved: Vec<SavedCkpt>,
    /// Consecutive missed heartbeats per locality.
    pub misses: Vec<u32>,
    /// `Monitor::total_tasks()` at the instant of the last checkpoint —
    /// the baseline for counting re-executed tasks after a recovery.
    pub tasks_at_checkpoint: u64,
    /// Per-locality `item -> (fingerprint, len)` of the newest committed
    /// checkpoint — the reference incremental change detection diffs
    /// boundary state against.
    pub last_fps: Vec<BTreeMap<ItemId, (u64, u64)>>,
    /// Deltas committed since the last anchor (drives
    /// [`CheckpointConfig::anchor_every`]).
    pub since_anchor: usize,
    /// The two-tier checkpoint store (cost math + traffic stats).
    pub storage: StorageModel,
}

impl ResilienceManager {
    /// A manager over `nodes` localities.
    pub fn new(cfg: ResilienceConfig, nodes: usize) -> Self {
        ResilienceManager {
            cfg,
            saved: Vec::new(),
            misses: vec![0; nodes],
            tasks_at_checkpoint: 0,
            last_fps: vec![BTreeMap::new(); nodes],
            since_anchor: 0,
            storage: StorageModel::new(cfg.ckpt.storage),
        }
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
    /// ever, non-incremental configs, or an expired delta budget.
    pub fn next_kind(&self) -> CkptKind {
        if !self.cfg.ckpt.incremental
            || self.saved.is_empty()
            || self.since_anchor + 1 >= self.cfg.ckpt.anchor_every.max(1)
        {
            CkptKind::Anchor
        } else {
            CkptKind::Delta
        }
    }

    /// Record a committed checkpoint, evicting retained points beyond
    /// the configured depth — but never a link a kept point's
    /// reconstruction chain still needs (the prefix back to the newest
    /// anchor at or before the eviction cut survives).
    pub fn save(&mut self, entry: SavedCkpt, tasks_done: u64) {
        match entry.kind {
            CkptKind::Anchor => self.since_anchor = 0,
            CkptKind::Delta => self.since_anchor += 1,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_des::fnv::fnv1a_64;

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
