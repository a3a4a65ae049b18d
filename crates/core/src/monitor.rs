//! Runtime monitoring (paper Section 3.2's "extended monitoring
//! infrastructure", scoped to what the experiments need): per-locality
//! execution counters and cluster-wide aggregates, reported at the end of
//! every run.

use allscale_des::{stats, LogHistogram, SimTime};
use allscale_net::{StorageStats, TrafficStats};
use allscale_trace::{critical_path, CriticalPathReport, Trace};

use crate::integrity::IntegrityStats;
use crate::loc_cache::CacheStats;
use crate::resilience::ResilienceStats;

allscale_des::stat_struct! {
    /// Counters of one locality.
    #[derive(Debug, Clone, Default)]
    pub struct LocalityStats {
        /// Process-variant executions.
        pub tasks_executed: u64,
        /// Split-variant executions.
        pub tasks_split: u64,
        /// Virtual core-nanoseconds of task compute (incl. overhead).
        pub busy_ns: u64,
        /// Messages sent from this locality.
        pub msgs_sent: u64,
        /// Payload bytes sent from this locality.
        pub bytes_sent: u64,
        /// Read replicas imported.
        pub replicas_in: u64,
        /// Region migrations received (ownership transfers in).
        pub migrations_in: u64,
        /// First-touch allocations performed.
        pub first_touch: u64,
        /// Refused prepares of tasks resident here: a task's first park on a
        /// lock, export or fence, plus each re-park after a wake-up that found
        /// it still blocked. (Before wake-on-release wait lists this was bumped
        /// for every parked task after every completion anywhere — it measured
        /// poll rounds, not contention.)
        pub lock_conflicts: u64,
    }

    /// Counters of the scheduler subsystem. All zeros under the direct
    /// data-aware family; the work-stealing family counts queue and
    /// steal-protocol activity here (recorded unconditionally, so traced
    /// and untraced runs agree).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SchedulerStats {
        /// Enqueue operations into per-locality task queues (admissions
        /// plus stolen-task arrivals).
        pub tasks_queued: u64,
        /// Steal requests sent by idle localities.
        pub steal_requests: u64,
        /// Requests answered with a task (plus direct waiter handoffs).
        pub steal_grants: u64,
        /// Requests answered empty-handed.
        pub steal_denies: u64,
        /// Direct surplus handoffs to parked waiters (subset of grants).
        pub handoffs: u64,
    }

    /// Counters of the request-serving subsystem (open-loop load generator,
    /// sharded request execution, SLO controller). All zeros when the run
    /// served no requests. Recorded unconditionally, so traced and untraced
    /// runs agree.
    #[derive(Debug, Clone, Default)]
    pub struct ServeStats {
        /// Requests injected by the open-loop arrival process.
        pub offered: u64,
        /// Requests admitted (a root task was spawned).
        pub admitted: u64,
        /// Requests whose root task tree completed.
        pub completed: u64,
        /// Requests shed at admission by the overload controller.
        pub shed: u64,
        /// Read requests offered.
        pub reads: u64,
        /// Write requests offered.
        pub writes: u64,
        /// Shard-periods in which the controller observed p99 above the SLO.
        pub slo_violations: u64,
        /// Hot shards replicated to all localities by the controller.
        pub replications: u64,
        /// Cold shard replica sets retired by the controller.
        pub retirements: u64,
        /// Writes that invalidated replicated regions before executing.
        pub invalidations: u64,
        /// Virtual nanoseconds the serving phase lasted (arrival of the
        /// first request to completion of the last).
        pub serve_ns: u64,
        /// End-to-end request latency (arrival to tree completion, ns).
        pub latency: LogHistogram,
        /// Per-shard end-to-end request latency (ns).
        pub per_shard: Vec<LogHistogram>,
    }

    /// Cluster-wide monitoring state.
    #[derive(Debug, Clone, Default)]
    pub struct Monitor {
        /// Per-locality counters.
        pub per_locality: Vec<LocalityStats>,
        /// Scheduler-subsystem counters (queueing and work stealing).
        pub scheduler: SchedulerStats,
        /// Hops crossed by index lookups (Algorithm 1 traffic).
        pub index_lookup_hops: u64,
        /// Hops crossed by index updates.
        pub index_update_hops: u64,
        /// Index lookups performed.
        pub index_lookups: u64,
        /// Location-cache effectiveness (hits/misses/invalidations and the
        /// control-message hops the hits avoided). All zeros when the run used
        /// the central-directory index, which bypasses the cache.
        pub cache: CacheStats,
        /// Resilience-manager counters (checkpoints, heartbeats, detections,
        /// recoveries, re-executed tasks, lost transfers). All zeros when the
        /// run had no fault injection and no resilience manager.
        pub resilience: ResilienceStats,
        /// Data-integrity counters (at-rest rot, checkpoint shard
        /// verification, replica scrubbing). All zeros when the run injected
        /// no corruption and had no integrity service.
        pub integrity: IntegrityStats,
        /// Distribution of task compute durations (ns), log2-bucketed for
        /// p50/p90/p99 summaries.
        pub task_durations: LogHistogram,
        /// Distribution of remote transfer latencies (ns), send to arrival,
        /// including retry backoff. Recorded whether or not tracing is on —
        /// a traced and an untraced run report identical monitors.
        pub transfer_latency: LogHistogram,
        /// Request-serving counters and latency distributions. All zeros
        /// when the application never entered a serving phase.
        pub serve: ServeStats,
    }

    /// Summary of one runtime run, produced by `Runtime::run`.
    #[derive(Debug, Clone, Default)]
    pub struct RunReport {
        /// Virtual time at which the last task completed.
        pub finish_time: SimTime,
        /// Number of application phases executed.
        pub phases: usize,
        /// The monitor with all counters.
        pub monitor: Monitor,
        /// Remote message count on the network: a copy of
        /// `traffic.remote.count`, kept only because `hostbench/` reads it
        /// here (its frozen surface); goes when that may change.
        pub remote_msgs: u64,
        /// Remote bytes moved on the network: a copy of
        /// `traffic.remote.sum`, kept for the same reason.
        pub remote_bytes: u64,
        /// Full network-layer statistics: message tallies, drops, retries and
        /// wire corruptions, and the message-batching counters (`batches`,
        /// `batched_msgs`, `batched_bytes`, `flushes_by_cause`) when transfer
        /// coalescing is enabled.
        pub traffic: TrafficStats,
        /// Checkpoint storage-tier traffic (local + remote writes, recovery
        /// reads, fingerprint scans). All zeros when the run never
        /// checkpointed.
        pub storage: StorageStats,
        /// Simulation events executed (diagnostics).
        pub events: u64,
        /// The recorded trace, when `RtConfig::trace` enabled the sink
        /// (`None` on untraced runs). Export with
        /// [`Trace::to_chrome_json`], analyze with [`Self::critical_path`].
        pub trace: Option<Trace>,
    }
}

impl ServeStats {
    /// Achieved goodput in completed requests per virtual second.
    pub fn completed_rps(&self) -> f64 {
        if self.serve_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.serve_ns as f64 * 1e-9)
    }
}

impl Monitor {
    /// A monitor for `nodes` localities.
    pub fn new(nodes: usize) -> Self {
        Monitor {
            per_locality: vec![LocalityStats::default(); nodes],
            ..Default::default()
        }
    }

    /// Total process-variant executions.
    pub fn total_tasks(&self) -> u64 {
        self.per_locality.iter().map(|l| l.tasks_executed).sum()
    }

    /// Total messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.per_locality.iter().map(|l| l.msgs_sent).sum()
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.per_locality.iter().map(|l| l.bytes_sent).sum()
    }
}

impl RunReport {
    /// Wall-clock-equivalent seconds of the simulated execution.
    pub fn seconds(&self) -> f64 {
        self.finish_time.as_secs_f64()
    }

    /// Critical-path analysis of the recorded trace (`None` when the run
    /// was untraced).
    pub fn critical_path(&self) -> Option<CriticalPathReport> {
        self.trace.as_ref().map(critical_path)
    }

    /// Render a human-readable summary (examples, debugging): one line per
    /// group of counters that is not all zero, under its [`Self::to_json`]
    /// path.
    pub fn summary(&self) -> String {
        stats::summary(self)
    }

    /// Serialize the report as deterministic JSON (machine consumers:
    /// benchmark emitters, conformance fingerprints). Keys are the Rust
    /// field names and objects nest as the structs do, so the path of a
    /// number is the expression that reads it
    /// (`monitor.per_locality[3].lock_conflicts`). Every statistic is in
    /// it except the trace, so a traced and an untraced run of the same
    /// seed serialize identically; export traces separately via
    /// [`Trace::to_chrome_json`]. Integer-only, fixed key order: two
    /// reports agree on every counter, and on each histogram's count, sum,
    /// extremes and p50/p90/p99, iff their JSON strings are equal.
    pub fn to_json(&self) -> String {
        stats::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counter_reaches_both_renderings() {
        let idle = RunReport {
            monitor: Monitor::new(2),
            ..RunReport::default()
        };
        let mut detected = idle.clone();
        detected.monitor.resilience.detection_latency_ns = 673;
        assert_ne!(idle.to_json(), detected.to_json());
        assert!(detected
            .to_json()
            .contains(",\"detection_latency_ns\":673,"));
        assert_eq!(idle.summary(), "", "an all-zero group prints no line");
        let line = detected.summary();
        assert!(
            line.starts_with("monitor.resilience: checkpoints=0 "),
            "{line}"
        );
        assert!(line.ends_with(" detection_latency_ns=673 recoveries=0 restored_bytes=0 tasks_reexecuted=0 failed_transfers=0\n"), "{line}");
    }

    #[test]
    fn totals_aggregate() {
        let mut m = Monitor::new(3);
        for (i, l) in m.per_locality.iter_mut().enumerate() {
            l.tasks_executed = i as u64;
            l.msgs_sent = 10;
            l.bytes_sent = 100;
        }
        assert_eq!(m.total_tasks(), 3);
        assert_eq!(m.total_msgs(), 30);
        assert_eq!(m.total_bytes(), 300);
    }
}
