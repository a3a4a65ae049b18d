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
//! politely slowing down. A periodic controller replicates shards whose
//! p99 violates the objective, optionally sheds their reads, and retires
//! replica sets that stay cold ([`SloConfig`]).

use allscale_des::{ArrivalProcess, SimDuration};

use crate::dynamic::DynRegion;
use crate::task::{ItemId, WorkItem};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_only_disables_all_actions() {
        let s = SloConfig::default().observe_only();
        assert!(!s.replicate_hot && !s.retire_cold && !s.shed_overload);
    }
}
