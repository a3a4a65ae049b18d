//! The two-tier checkpoint storage cost model.
//!
//! Checkpoint shards are persisted to two tiers with very different
//! envelopes, mirroring the Strata training-runtime design (SNIPPETS.md:
//! ~500 MB/s to node-local storage, ~200 MB/s to a remote object store):
//!
//! - the **local tier** is fast but shares the locality's fate — a
//!   fail-stop death takes its shards with it;
//! - the **remote tier** is slower but placed off-ring: it survives any
//!   locality death, so a dead locality's shards are always recoverable
//!   from it.
//!
//! Every checkpoint writes each shard to *both* tiers (the local copy
//! makes survivor recovery fast, the remote replica makes recovery
//! possible at all), so a drain completes when the slower tier finishes.
//! Recovery reads survivors' shards from their local tier and the dead
//! locality's shards from the remote tier — the asymmetry that puts
//! storage speed on the recovery-time axis of the frontier.
//!
//! [`StorageModel`] is pure cost accounting on the simulated clock, like
//! [`crate::Network`] for the wire: callers compute durations here and
//! schedule their own completion events. Incremental checkpointing also
//! bills its change-detection scan ([`StorageModel::fingerprint_ns`]) at
//! a memory-bandwidth-class rate — cheap, but not free.

/// Nanoseconds to move `bytes` at `bps` (round-to-nearest, like the
/// network's bandwidth term).
fn ns_of(bytes: u64, bps: f64) -> u64 {
    (bytes as f64 / bps * 1e9).round() as u64
}

/// Which checkpoint storage tier an access goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTier {
    /// Node-local storage: fast, lost with the locality.
    Local,
    /// Off-ring remote store: slower, survives locality deaths.
    Remote,
}

/// Cost knobs of the two-tier checkpoint store.
#[derive(Debug, Clone, Copy)]
pub struct StorageParams {
    /// Local-tier write bandwidth, bytes per second (~500 MB/s).
    pub local_write_bps: f64,
    /// Remote-tier write bandwidth, bytes per second (~200 MB/s).
    pub remote_write_bps: f64,
    /// Local-tier read bandwidth, bytes per second.
    pub local_read_bps: f64,
    /// Remote-tier read bandwidth, bytes per second.
    pub remote_read_bps: f64,
    /// Fixed per-shard overhead per access, ns (metadata, request setup).
    pub shard_overhead_ns: u64,
    /// In-memory scan rate for incremental change detection, bytes per
    /// second (memory-bandwidth class — the "cheap fingerprint").
    pub fingerprint_bps: f64,
}

impl Default for StorageParams {
    fn default() -> Self {
        StorageParams {
            local_write_bps: 500e6,
            remote_write_bps: 200e6,
            local_read_bps: 500e6,
            remote_read_bps: 200e6,
            shard_overhead_ns: 2_000,
            fingerprint_bps: 20e9,
        }
    }
}

allscale_des::stat_struct! {
    /// Accumulated storage-tier traffic of a run. All zeros when the run
    /// never checkpointed.
    #[derive(Debug, Clone, Default)]
    pub struct StorageStats {
        /// Bytes written to the local tier.
        pub local_bytes_written: u64,
        /// Bytes written to the remote tier.
        pub remote_bytes_written: u64,
        /// Simulated ns spent writing to the local tier (sum over localities).
        pub local_write_ns: u64,
        /// Simulated ns spent writing to the remote tier (sum over localities).
        pub remote_write_ns: u64,
        /// Bytes read back from the local tier (survivor restores).
        pub local_bytes_read: u64,
        /// Bytes read back from the remote tier (dead localities' shards).
        pub remote_bytes_read: u64,
        /// Simulated ns spent reading checkpoints back during recoveries.
        pub read_ns: u64,
        /// Bytes scanned by incremental change detection.
        pub fingerprint_bytes: u64,
        /// Simulated ns spent scanning for changed shards.
        pub fingerprint_ns: u64,
    }
}

/// The two-tier checkpoint store: cost math plus traffic accounting.
#[derive(Debug, Clone)]
pub struct StorageModel {
    params: StorageParams,
    /// Accumulated traffic (reported in the run report).
    pub stats: StorageStats,
}

impl StorageModel {
    /// A store with the given cost knobs.
    pub fn new(params: StorageParams) -> Self {
        StorageModel {
            params,
            stats: StorageStats::default(),
        }
    }

    /// The configured cost knobs.
    pub fn params(&self) -> &StorageParams {
        &self.params
    }

    /// Bill writing `bytes` across `shards` shards to `tier`; returns the
    /// duration in ns. One locality's shards drain sequentially through
    /// its tier channel; distinct localities drain in parallel (the
    /// caller takes the max).
    pub fn write_ns(&mut self, tier: StorageTier, shards: u64, bytes: u64) -> u64 {
        let (bps, ob, ons) = match tier {
            StorageTier::Local => (
                self.params.local_write_bps,
                &mut self.stats.local_bytes_written,
                &mut self.stats.local_write_ns,
            ),
            StorageTier::Remote => (
                self.params.remote_write_bps,
                &mut self.stats.remote_bytes_written,
                &mut self.stats.remote_write_ns,
            ),
        };
        let ns = shards * self.params.shard_overhead_ns + ns_of(bytes, bps);
        *ob += bytes;
        *ons += ns;
        ns
    }

    /// Bill reading `bytes` across `shards` shards back from `tier`
    /// (recovery restore path); returns the duration in ns.
    pub fn read_ns(&mut self, tier: StorageTier, shards: u64, bytes: u64) -> u64 {
        let (bps, ob) = match tier {
            StorageTier::Local => (self.params.local_read_bps, &mut self.stats.local_bytes_read),
            StorageTier::Remote => (
                self.params.remote_read_bps,
                &mut self.stats.remote_bytes_read,
            ),
        };
        let ns = shards * self.params.shard_overhead_ns + ns_of(bytes, bps);
        *ob += bytes;
        self.stats.read_ns += ns;
        ns
    }

    /// Bill an incremental change-detection scan over `bytes`; returns
    /// the duration in ns.
    pub fn fingerprint_ns(&mut self, bytes: u64) -> u64 {
        let ns = ns_of(bytes, self.params.fingerprint_bps);
        self.stats.fingerprint_bytes += bytes;
        self.stats.fingerprint_ns += ns;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_envelope_matches_strata() {
        let p = StorageParams::default();
        assert_eq!(p.local_write_bps, 500e6);
        assert_eq!(p.remote_write_bps, 200e6);
        assert!(p.fingerprint_bps > p.local_write_bps, "scan must be cheap");
    }

    #[test]
    fn remote_writes_are_slower_than_local() {
        let mut m = StorageModel::new(StorageParams::default());
        let local = m.write_ns(StorageTier::Local, 4, 1_000_000);
        let remote = m.write_ns(StorageTier::Remote, 4, 1_000_000);
        assert!(remote > local, "200 MB/s must bill more than 500 MB/s");
        assert_eq!(m.stats.local_bytes_written, 1_000_000);
        assert_eq!(m.stats.remote_bytes_written, 1_000_000);
        assert_eq!(m.stats.local_write_ns, local);
        assert_eq!(m.stats.remote_write_ns, remote);
    }

    #[test]
    fn per_shard_overhead_is_charged() {
        let mut m = StorageModel::new(StorageParams {
            shard_overhead_ns: 1_000,
            ..StorageParams::default()
        });
        let one = m.write_ns(StorageTier::Local, 1, 0);
        let many = m.write_ns(StorageTier::Local, 7, 0);
        assert_eq!(one, 1_000);
        assert_eq!(many, 7_000);
    }

    #[test]
    fn fingerprint_scan_is_cheaper_than_any_write() {
        let mut m = StorageModel::new(StorageParams::default());
        let scan = m.fingerprint_ns(1_000_000);
        let write = m.write_ns(StorageTier::Local, 0, 1_000_000);
        assert!(scan < write, "change detection must undercut serialization");
        assert_eq!(m.stats.fingerprint_bytes, 1_000_000);
        assert_eq!(m.stats.fingerprint_ns, scan);
    }

    #[test]
    fn reads_accumulate_by_tier() {
        let mut m = StorageModel::new(StorageParams::default());
        let l = m.read_ns(StorageTier::Local, 2, 500_000);
        let r = m.read_ns(StorageTier::Remote, 2, 500_000);
        assert!(r > l);
        assert_eq!(m.stats.local_bytes_read, 500_000);
        assert_eq!(m.stats.remote_bytes_read, 500_000);
        assert_eq!(m.stats.read_ns, l + r);
    }
}
