//! The data-integrity service: end-to-end checksums and replica scrubbing.
//!
//! The formal model's data-preservation property (paper Section 2.5)
//! assumes that bytes, once transferred or checkpointed, stay what they
//! were. Real fabrics and real storage break that assumption rarely but
//! not never — and a runtime that owns *all* data movement (Section 3.2)
//! is exactly the layer that can close the gap without touching user
//! code. This module holds the policy side of that service:
//!
//! - **verified transfers** — every runtime payload is framed with an
//!   FNV-1a checksum ([`allscale_net::frame`]); a receiver that detects a
//!   mismatch discards the bytes and re-requests the transfer under the
//!   resilience retry policy instead of consuming poison;
//! - **verified checkpoints** — each checkpoint shard stores its
//!   checksum; `restore` refuses a corrupt shard and falls back to an
//!   older checkpoint (or a full restart) rather than resurrecting bad
//!   state;
//! - **background scrubbing** — a periodic pass on the simulated clock
//!   walks persistent replicas, compares their fingerprints against the
//!   owner's primary copy, repairs divergent replicas with a fresh billed
//!   transfer, and quarantines replicas that keep diverging.
//!
//! The mechanism — frame sealing/opening at the transfer sites, shard
//! verification during recovery, and the scrub tick — lives in
//! [`crate::runtime`]; the [`DataItemManager`](crate::DataItemManager)
//! contributes the `peek_bytes`/`drop_persistent` audit primitives.
//!
//! Like batching, tracing, and resilience, the whole service is
//! **off by default** (`RtConfig::integrity = None`): a disabled run is
//! byte-identical to one built before the service existed.

use std::collections::BTreeMap;

use allscale_des::SimDuration;

use crate::task::ItemId;

/// Configuration of the data-integrity service. With the service on,
/// every runtime payload is framed with a checksum and verified on
/// receipt: a detected corruption is re-requested under the retry policy
/// instead of delivered. The ablation baseline — poisoned bytes consumed
/// silently under a corrupting fault plan — is the service off
/// (`RtConfig::integrity = None`).
#[derive(Debug, Clone, Copy)]
pub struct IntegrityConfig {
    /// Store per-shard checksums with every checkpoint and verify them
    /// during recovery, falling back to an older checkpoint (or a full
    /// restart) when a shard fails its check.
    pub verify_checkpoints: bool,
    /// Period of the background replica scrubber (`None` disables it).
    pub scrub_period: Option<SimDuration>,
}

/// Strikes (divergences found by the scrubber) after which a replica is
/// quarantined out of the replica set instead of repaired again — like
/// the failure detector's `SUSPICION_THRESHOLD`, a constant.
pub(crate) const QUARANTINE_AFTER: u32 = 3;

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            verify_checkpoints: true,
            scrub_period: Some(SimDuration::from_micros(100)),
        }
    }
}

allscale_des::stat_struct! {
    /// Integrity metrics, aggregated into [`crate::Monitor`].
    #[derive(Debug, Clone, Default)]
    pub struct IntegrityStats {
        /// Wire corruptions caught by checksum verification: a copy of
        /// `TrafficStats::corrupt_detected`, kept only because `hostbench/`
        /// reads it here (its frozen surface); goes when that may change.
        pub wire_detected: u64,
        /// At-rest corruption events injected by the fault plan's rot arm
        /// (persistent replicas and checkpoint shards).
        pub rot_injected: u64,
        /// Checkpoint shards refused during recovery because their stored
        /// checksum no longer matched.
        pub checkpoint_shards_rejected: u64,
        /// Recoveries that had to fall back past a corrupt checkpoint to an
        /// older one (or to a full restart).
        pub checkpoint_fallbacks: u64,
        /// Anchor/delta chain links checksum-verified during recovery
        /// reconstructions (each link's shards are verified before the delta
        /// is applied).
        pub ckpt_links_verified: u64,
        /// Completed scrubber passes over the cluster.
        pub scrub_passes: u64,
        /// Replica audits performed (one per replica region per pass).
        pub replicas_scrubbed: u64,
        /// Audits that found the replica diverging from its owner.
        pub scrub_divergent: u64,
        /// Divergent replicas repaired with a fresh transfer from the owner.
        pub scrub_repairs: u64,
        /// Replicas quarantined out of the replica set after repeated
        /// divergence.
        pub quarantines: u64,
    }
}

/// Live state of the integrity service, owned by the runtime world.
pub(crate) struct IntegrityManager {
    /// The configured policy.
    pub cfg: IntegrityConfig,
    /// Divergence strikes per (holder locality, item), accumulated by the
    /// scrubber and consulted for quarantine decisions.
    strikes: BTreeMap<(usize, ItemId), u32>,
}

impl IntegrityManager {
    /// A manager with the given policy.
    pub fn new(cfg: IntegrityConfig) -> Self {
        IntegrityManager {
            cfg,
            strikes: BTreeMap::new(),
        }
    }

    /// Record one divergence of `item`'s replica at `holder`; returns the
    /// accumulated strike count.
    pub fn strike(&mut self, holder: usize, item: ItemId) -> u32 {
        let n = self.strikes.entry((holder, item)).or_insert(0);
        *n += 1;
        *n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = IntegrityConfig::default();
        assert!(cfg.verify_checkpoints);
        assert!(cfg.scrub_period.unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn strikes_accumulate_per_holder_and_item() {
        let mut mgr = IntegrityManager::new(IntegrityConfig::default());
        assert_eq!(mgr.strike(1, ItemId(0)), 1);
        assert_eq!(mgr.strike(1, ItemId(0)), 2);
        // Distinct holder or item: independent counters.
        assert_eq!(mgr.strike(2, ItemId(0)), 1);
        assert_eq!(mgr.strike(1, ItemId(1)), 1);
        assert_eq!(mgr.strike(1, ItemId(0)), 3);
    }
}
