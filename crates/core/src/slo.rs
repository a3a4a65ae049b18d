//! The request-serving subsystem: open-loop workloads, per-shard
//! latency SLOs and the placement controller that enforces them.
//!
//! The paper's runtime targets batch-parallel phases, but its machinery
//! — distributed data items, replicate/broadcast transfers, the cost
//! model, monitoring — is exactly what an online request-serving tier
//! needs. This module adds the missing piece: an application registers a
//! [`ServeSpec`] (an arrival process plus a factory turning request
//! numbers into small task trees over a sharded data item), and the
//! runtime drives an *open-loop* serving phase on the virtual clock.
//! Requests arrive whether or not earlier ones finished, which is what
//! makes saturation observable: once offered load exceeds capacity,
//! queues grow and tail latency diverges instead of the arrival rate
//! politely slowing down.
//!
//! A periodic controller watches per-shard latency histograms. When a
//! shard's p99 over the last control period exceeds the SLO it
//! replicates the shard to every locality (reads then run node-locally
//! at whichever frontend admitted them), and optionally sheds read load
//! at admission while the shard remains hot. Replicas that stay cold
//! for several consecutive periods are retired. Writes are never shed;
//! a write to a replicated shard first invalidates the written region
//! everywhere so the single-writer discipline of the data-item manager
//! is preserved.

use allscale_des::{ArrivalGen, ArrivalProcess, LogHistogram, SimDuration, SimTime};

use crate::dynamic::DynRegion;
use crate::task::{ItemId, WorkItem};
use crate::task_map::TaskMap;

/// Minimum completed requests in a shard's window before its p99 is
/// trusted; smaller windows are too noisy to act on (a single straggler
/// would trigger a broadcast).
pub(crate) const MIN_WINDOW: u64 = 16;

/// The service-level objective and controller policy of a serving phase.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// The latency objective: per-shard p99 over a control period must
    /// stay at or below this many nanoseconds.
    pub p99_slo_ns: u64,
    /// How often the controller wakes up to examine shard histograms.
    pub control_period: SimDuration,
    /// Replicate shards whose p99 violates the SLO to all localities.
    pub replicate_hot: bool,
    /// Retire replica sets of shards that stayed cold for
    /// [`SloConfig::cold_periods`] consecutive periods.
    pub retire_cold: bool,
    /// Shed read requests to shards that are currently violating the
    /// SLO (writes are never shed).
    pub shed_overload: bool,
    /// A replicated shard with at most this many completions in a
    /// period counts as cold.
    pub cold_window: u64,
    /// Consecutive cold periods before a replica set is retired.
    pub cold_periods: u32,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            p99_slo_ns: 200_000,
            control_period: SimDuration::from_millis(2),
            replicate_hot: true,
            retire_cold: true,
            shed_overload: false,
            cold_window: 2,
            cold_periods: 4,
        }
    }
}

impl SloConfig {
    /// A static-placement baseline: the controller observes (histograms
    /// and violation counters still fill in) but never acts.
    pub fn observe_only(mut self) -> Self {
        self.replicate_hot = false;
        self.retire_cold = false;
        self.shed_overload = false;
        self
    }
}

/// One request produced by a [`ServeSpec::factory`]: which shard it
/// targets, whether it writes, and the root work item of its task tree.
pub struct Request {
    /// Index into [`ServeSpec::shard_regions`] of the shard this
    /// request primarily touches (the controller's accounting key).
    pub shard: usize,
    /// Whether the request updates the data item. Writes are never shed
    /// and invalidate replicated regions at admission.
    pub write: bool,
    /// The root work item; its task tree carries the actual data
    /// requirements.
    pub work: Box<dyn WorkItem>,
}

/// A serving phase, registered by the application driver via
/// `RtCtx::serve`. The runtime runs it as the next phase: open-loop
/// arrivals on the virtual clock, request task trees through the normal
/// scheduler, and the SLO controller on its control period.
pub struct ServeSpec {
    /// The sharded data item requests operate on.
    pub item: ItemId,
    /// The region of each shard, indexed by shard id. Used by the
    /// controller to replicate, invalidate and retire whole shards.
    pub shard_regions: Vec<Box<dyn DynRegion>>,
    /// The open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Total requests to inject before the phase winds down.
    pub max_requests: u64,
    /// SLO and controller policy.
    pub slo: SloConfig,
    /// Builds request number `req` (0-based, dense). It must be a
    /// deterministic function of `req` and its own seeded state, so a
    /// replayed serving phase regenerates the identical request stream.
    pub factory: Box<dyn FnMut(u64) -> Request>,
}

/// A request admitted but not yet completed (its root task is in
/// flight).
pub(crate) struct PendingReq {
    /// Request sequence number.
    pub req: u64,
    /// Target shard.
    pub shard: usize,
    /// Write request?
    pub write: bool,
    /// Virtual arrival time (latency is measured from here).
    pub arrival: SimTime,
    /// The locality that admitted it (span attribution).
    pub frontend: usize,
}

/// Live state of the serving phase inside the runtime world.
pub(crate) struct ServeSession {
    /// The serving phase the driver registered.
    pub spec: ServeSpec,
    /// Arrival-gap generator of `spec.arrivals`.
    pub gen: ArrivalGen,
    /// Next request sequence number.
    pub next_req: u64,
    /// Virtual time the phase started.
    pub started: SimTime,
    /// In-flight request roots, keyed by root task id.
    pub roots: TaskMap<PendingReq>,
    /// Whether all arrivals have been injected.
    pub arrivals_done: bool,
    /// Per-shard latency window of the current control period.
    pub window: Vec<LogHistogram>,
    /// Which shards are currently replicated everywhere.
    pub replicated: Vec<bool>,
    /// Replicated shards whose replicas were partially invalidated by a
    /// write since the last broadcast (re-replicated if still hot).
    pub eroded: Vec<bool>,
    /// Which shards currently shed read load at admission.
    pub shedding: Vec<bool>,
    /// Consecutive cold periods per replicated shard.
    pub cold_streak: Vec<u32>,
}

impl ServeSession {
    /// Build the session for `spec`, starting at virtual time `now`.
    pub(crate) fn new(spec: ServeSpec, now: SimTime) -> Self {
        let shards = spec.shard_regions.len();
        assert!(shards > 0, "a serving phase needs at least one shard");
        assert!(spec.max_requests > 0, "a serving phase needs requests");
        ServeSession {
            gen: ArrivalGen::new(spec.arrivals.clone()),
            spec,
            next_req: 0,
            started: now,
            roots: TaskMap::default(),
            arrivals_done: false,
            window: vec![LogHistogram::new(); shards],
            replicated: vec![false; shards],
            eroded: vec![false; shards],
            shedding: vec![false; shards],
            cold_streak: vec![0; shards],
        }
    }

    /// All arrivals injected and all admitted trees completed?
    pub(crate) fn finished(&self) -> bool {
        self.arrivals_done && self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_only_disables_all_actions() {
        let s = SloConfig::default().observe_only();
        assert!(!s.replicate_hot && !s.retire_cold && !s.shed_overload);
    }
}
