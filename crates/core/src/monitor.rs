//! Runtime monitoring (paper Section 3.2's "extended monitoring
//! infrastructure", scoped to what the experiments need): per-locality
//! execution counters and cluster-wide aggregates, reported at the end of
//! every run.

use allscale_des::{LogHistogram, SimTime};
use allscale_net::{StorageStats, TrafficStats};
use allscale_trace::{critical_path, CriticalPathReport, Trace};

use crate::integrity::IntegrityStats;
use crate::loc_cache::CacheStats;
use crate::resilience::ResilienceStats;

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

impl ServeStats {
    /// Offered load in requests per virtual second (0 when nothing ran).
    pub fn offered_rps(&self) -> f64 {
        if self.serve_ns == 0 {
            return 0.0;
        }
        self.offered as f64 / (self.serve_ns as f64 * 1e-9)
    }

    /// Achieved goodput in completed requests per virtual second.
    pub fn completed_rps(&self) -> f64 {
        if self.serve_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.serve_ns as f64 * 1e-9)
    }
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
    /// Resilience-manager counters (checkpoints, detections, recoveries,
    /// re-executed tasks, network retries). All zeros when the run had no
    /// fault injection and no resilience manager.
    pub resilience: ResilienceStats,
    /// Data-integrity counters (wire corruptions and their detection,
    /// checkpoint shard verification, replica scrubbing). All zeros when
    /// the run injected no corruption and had no integrity service.
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

    /// Coefficient of variation of per-locality busy time — the load
    /// imbalance metric used by the load-balancing example.
    pub fn busy_imbalance(&self) -> f64 {
        let n = self.per_locality.len();
        if n < 2 {
            return 0.0;
        }
        let mean =
            self.per_locality.iter().map(|l| l.busy_ns as f64).sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .per_locality
            .iter()
            .map(|l| (l.busy_ns as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

/// Summary of one runtime run, produced by `Runtime::run`.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time at which the last task completed.
    pub finish_time: SimTime,
    /// Number of application phases executed.
    pub phases: usize,
    /// The monitor with all counters.
    pub monitor: Monitor,
    /// Remote message count on the network.
    pub remote_msgs: u64,
    /// Remote bytes moved on the network.
    pub remote_bytes: u64,
    /// Full network-layer statistics, including the message-batching
    /// counters (`batches`, `batched_msgs`, `batched_bytes`,
    /// `flushes_by_cause`) when transfer coalescing is enabled.
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

    /// Render a human-readable multi-line summary (examples, debugging).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "virtual time {:.3} ms | {} phases | {} tasks ({} splits) | {} remote msgs, {} bytes | {} events",
            self.finish_time.as_secs_f64() * 1e3,
            self.phases,
            self.monitor.total_tasks(),
            self.monitor
                .per_locality
                .iter()
                .map(|l| l.tasks_split)
                .sum::<u64>(),
            self.remote_msgs,
            self.remote_bytes,
            self.events,
        );
        let _ = writeln!(
            out,
            "index: {} lookups ({} hops), {} update hops | busy imbalance {:.2}",
            self.monitor.index_lookups,
            self.monitor.index_lookup_hops,
            self.monitor.index_update_hops,
            self.monitor.busy_imbalance(),
        );
        if self.monitor.task_durations.tally().count() > 0 {
            let _ = writeln!(out, "task durations (ns): {}", self.monitor.task_durations);
        }
        if self.monitor.transfer_latency.tally().count() > 0 {
            let _ = writeln!(out, "transfer latency (ns): {}", self.monitor.transfer_latency);
        }
        let c = &self.monitor.cache;
        let _ = writeln!(
            out,
            "location cache: {} hits / {} misses ({:.0}% hit rate), {} invalidations, {} hops saved",
            c.hits,
            c.misses,
            c.hit_rate() * 100.0,
            c.invalidations,
            c.saved_hops,
        );
        let s = &self.monitor.scheduler;
        if s.tasks_queued > 0 || s.steal_requests > 0 {
            let _ = writeln!(
                out,
                "scheduler: {} tasks queued | steals: {} requests, {} grants, {} denies, {} waiter handoffs",
                s.tasks_queued,
                s.steal_requests,
                s.steal_grants,
                s.steal_denies,
                s.handoffs,
            );
        }
        let t = &self.traffic;
        if t.batches > 0 {
            let _ = writeln!(
                out,
                "batching: {} flushes ({} msgs, {} bytes) | causes: {} window, {} bytes-cap, {} msgs-cap",
                t.batches,
                t.batched_msgs,
                t.batched_bytes,
                t.flushes_by_cause[0],
                t.flushes_by_cause[1],
                t.flushes_by_cause[2],
            );
        }
        let r = &self.monitor.resilience;
        if r.checkpoints > 0 || r.detections > 0 || r.net_dropped > 0 || r.failed_transfers > 0 {
            let _ = writeln!(
                out,
                "resilience: {} checkpoints ({} bytes), {} recoveries ({} restored bytes), {} tasks re-executed, detection latency {} ns, {} heartbeats | net: {} dropped, {} retries, {} failed transfers",
                r.checkpoints,
                r.checkpoint_bytes,
                r.recoveries,
                r.restored_bytes,
                r.tasks_reexecuted,
                r.detection_latency_ns,
                r.heartbeats,
                r.net_dropped,
                r.net_retries,
                r.failed_transfers,
            );
        }
        if r.checkpoints > 0 || r.ckpt_torn > 0 {
            let _ = writeln!(
                out,
                "checkpointing: {} anchors + {} deltas ({} stored / {} logical bytes), {} torn | stall {} ns, fence {} ns, drain {} ns, scan {} ns | {} cow clones, recovery reads {} ns",
                r.ckpt_anchors,
                r.ckpt_deltas,
                r.checkpoint_bytes,
                r.ckpt_logical_bytes,
                r.ckpt_torn,
                r.ckpt_stall_ns,
                r.ckpt_fence_ns,
                r.ckpt_drain_ns,
                r.ckpt_fp_ns,
                r.cow_captures,
                r.recovery_read_ns,
            );
            let st = &self.storage;
            let _ = writeln!(
                out,
                "  storage: local {} B written / {} B read, remote {} B written / {} B read, {} B fingerprinted",
                st.local_bytes_written,
                st.local_bytes_read,
                st.remote_bytes_written,
                st.remote_bytes_read,
                st.fingerprint_bytes,
            );
        }
        if t.undeliverable > 0 {
            let _ = writeln!(
                out,
                "undeliverable: {} messages addressed to (or sent by) dead localities",
                t.undeliverable,
            );
        }
        let g = &self.monitor.integrity;
        if g.wire_corruptions > 0 || g.rot_injected > 0 || g.scrub_passes > 0 {
            let _ = writeln!(
                out,
                "integrity: {} wire corruptions ({} detected, {} undetected, {} re-requests), {} rot events | checkpoints: {} shards rejected, {} fallbacks, {} links verified | scrub: {} passes, {} audits, {} divergent, {} repairs, {} quarantines",
                g.wire_corruptions,
                g.wire_detected,
                g.wire_undetected,
                g.re_requests,
                g.rot_injected,
                g.checkpoint_shards_rejected,
                g.checkpoint_fallbacks,
                g.ckpt_links_verified,
                g.scrub_passes,
                g.replicas_scrubbed,
                g.scrub_divergent,
                g.scrub_repairs,
                g.quarantines,
            );
        }
        let v = &self.monitor.serve;
        if v.offered > 0 {
            let _ = writeln!(
                out,
                "serving: {} offered ({:.0} rps) | {} admitted, {} shed | {} completed ({:.0} rps) | {} reads, {} writes",
                v.offered,
                v.offered_rps(),
                v.admitted,
                v.shed,
                v.completed,
                v.completed_rps(),
                v.reads,
                v.writes,
            );
            let _ = writeln!(
                out,
                "  slo: {} violating shard-periods | {} replications, {} retirements, {} write invalidations",
                v.slo_violations,
                v.replications,
                v.retirements,
                v.invalidations,
            );
            if v.latency.tally().count() > 0 {
                let _ = writeln!(out, "  request latency (ns): {}", v.latency);
            }
            for (s, h) in v.per_shard.iter().enumerate() {
                if h.tally().count() > 0 {
                    let _ = writeln!(out, "    shard {s}: {h}");
                }
            }
        }
        for (i, l) in self.monitor.per_locality.iter().enumerate() {
            let _ = writeln!(
                out,
                "  loc {i:3}: {:6} tasks, {:10} busy ns, {:5} replicas in, {:4} migrations in, {:4} first-touch, {:4} conflicts",
                l.tasks_executed,
                l.busy_ns,
                l.replicas_in,
                l.migrations_in,
                l.first_touch,
                l.lock_conflicts,
            );
        }
        out
    }

    /// Serialize the report as deterministic JSON (machine consumers:
    /// benchmark emitters, conformance fingerprints). The trace is
    /// deliberately excluded so a traced and an untraced run of the same
    /// seed serialize identically; export traces separately via
    /// [`Trace::to_chrome_json`]. Integer-only, fixed key order — two
    /// reports are bit-identical iff their JSON strings are equal.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        fn hist(h: &LogHistogram) -> String {
            let t = h.tally();
            format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                t.count(),
                t.sum(),
                t.min().unwrap_or(0),
                t.max().unwrap_or(0),
                h.p50(),
                h.p90(),
                h.p99(),
            )
        }
        let m = &self.monitor;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"finish_ns\":{},\"phases\":{},\"events\":{},\"remote_msgs\":{},\"remote_bytes\":{}",
            self.finish_time.as_nanos(),
            self.phases,
            self.events,
            self.remote_msgs,
            self.remote_bytes,
        );
        let _ = write!(
            out,
            ",\"tasks\":{},\"splits\":{},\"msgs\":{},\"bytes\":{}",
            m.total_tasks(),
            m.per_locality.iter().map(|l| l.tasks_split).sum::<u64>(),
            m.total_msgs(),
            m.total_bytes(),
        );
        let _ = write!(
            out,
            ",\"index\":{{\"lookups\":{},\"lookup_hops\":{},\"update_hops\":{}}}",
            m.index_lookups, m.index_lookup_hops, m.index_update_hops,
        );
        let _ = write!(out, ",\"localities\":[");
        for (i, l) in m.per_locality.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tasks\":{},\"splits\":{},\"busy_ns\":{},\"msgs\":{},\"bytes\":{},\"replicas_in\":{},\"migrations_in\":{},\"first_touch\":{},\"lock_conflicts\":{}}}",
                l.tasks_executed,
                l.tasks_split,
                l.busy_ns,
                l.msgs_sent,
                l.bytes_sent,
                l.replicas_in,
                l.migrations_in,
                l.first_touch,
                l.lock_conflicts,
            );
        }
        out.push(']');
        let s = &m.scheduler;
        let _ = write!(
            out,
            ",\"scheduler\":{{\"queued\":{},\"steal_requests\":{},\"steal_grants\":{},\"steal_denies\":{},\"handoffs\":{}}}",
            s.tasks_queued, s.steal_requests, s.steal_grants, s.steal_denies, s.handoffs,
        );
        let c = &m.cache;
        let _ = write!(
            out,
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{},\"saved_hops\":{}}}",
            c.hits, c.misses, c.invalidations, c.saved_hops,
        );
        let r = &m.resilience;
        let _ = write!(
            out,
            ",\"resilience\":{{\"checkpoints\":{},\"checkpoint_bytes\":{},\"recoveries\":{},\"restored_bytes\":{},\"tasks_reexecuted\":{},\"net_dropped\":{},\"net_retries\":{},\"failed_transfers\":{}}}",
            r.checkpoints,
            r.checkpoint_bytes,
            r.recoveries,
            r.restored_bytes,
            r.tasks_reexecuted,
            r.net_dropped,
            r.net_retries,
            r.failed_transfers,
        );
        let _ = write!(
            out,
            ",\"checkpointing\":{{\"anchors\":{},\"deltas\":{},\"logical_bytes\":{},\"stall_ns\":{},\"fence_ns\":{},\"drain_ns\":{},\"fp_ns\":{},\"torn\":{},\"cow_captures\":{},\"recovery_read_ns\":{}}}",
            r.ckpt_anchors,
            r.ckpt_deltas,
            r.ckpt_logical_bytes,
            r.ckpt_stall_ns,
            r.ckpt_fence_ns,
            r.ckpt_drain_ns,
            r.ckpt_fp_ns,
            r.ckpt_torn,
            r.cow_captures,
            r.recovery_read_ns,
        );
        let st = &self.storage;
        let _ = write!(
            out,
            ",\"storage\":{{\"local_bytes_written\":{},\"remote_bytes_written\":{},\"local_write_ns\":{},\"remote_write_ns\":{},\"local_bytes_read\":{},\"remote_bytes_read\":{},\"read_ns\":{},\"fingerprint_bytes\":{},\"fingerprint_ns\":{}}}",
            st.local_bytes_written,
            st.remote_bytes_written,
            st.local_write_ns,
            st.remote_write_ns,
            st.local_bytes_read,
            st.remote_bytes_read,
            st.read_ns,
            st.fingerprint_bytes,
            st.fingerprint_ns,
        );
        let g = &m.integrity;
        let _ = write!(
            out,
            ",\"integrity\":{{\"wire_corruptions\":{},\"wire_detected\":{},\"wire_undetected\":{},\"re_requests\":{},\"rot_injected\":{},\"ckpt_shards_rejected\":{},\"ckpt_fallbacks\":{},\"ckpt_links_verified\":{},\"scrub_passes\":{},\"scrub_repairs\":{},\"quarantines\":{}}}",
            g.wire_corruptions,
            g.wire_detected,
            g.wire_undetected,
            g.re_requests,
            g.rot_injected,
            g.checkpoint_shards_rejected,
            g.checkpoint_fallbacks,
            g.ckpt_links_verified,
            g.scrub_passes,
            g.scrub_repairs,
            g.quarantines,
        );
        let t = &self.traffic;
        let _ = write!(
            out,
            ",\"traffic\":{{\"dropped\":{},\"delayed\":{},\"retries\":{},\"undeliverable\":{},\"batches\":{},\"batched_msgs\":{},\"batched_bytes\":{}}}",
            t.dropped, t.delayed, t.retries, t.undeliverable, t.batches, t.batched_msgs, t.batched_bytes,
        );
        let _ = write!(
            out,
            ",\"task_durations\":{},\"transfer_latency\":{}",
            hist(&m.task_durations),
            hist(&m.transfer_latency),
        );
        let v = &m.serve;
        let _ = write!(
            out,
            ",\"serve\":{{\"offered\":{},\"admitted\":{},\"completed\":{},\"shed\":{},\"reads\":{},\"writes\":{},\"slo_violations\":{},\"replications\":{},\"retirements\":{},\"invalidations\":{},\"serve_ns\":{},\"latency\":{},\"per_shard\":[",
            v.offered,
            v.admitted,
            v.completed,
            v.shed,
            v.reads,
            v.writes,
            v.slo_violations,
            v.replications,
            v.retirements,
            v.invalidations,
            v.serve_ns,
            hist(&v.latency),
        );
        for (i, h) in v.per_shard.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&hist(h));
        }
        out.push_str("]}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_uniform_load_is_zero() {
        let mut m = Monitor::new(4);
        for l in &mut m.per_locality {
            l.busy_ns = 1000;
        }
        assert!(m.busy_imbalance() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut m = Monitor::new(2);
        m.per_locality[0].busy_ns = 1000;
        m.per_locality[1].busy_ns = 3000;
        assert!(m.busy_imbalance() > 0.4);
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
