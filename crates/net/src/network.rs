//! The message-cost engine: a LogGP-flavoured model of an OmniPath-class
//! interconnect with per-NIC occupancy.
//!
//! For a message of `s` bytes sent from `src` at time `t`:
//!
//! 1. the sender's NIC serializes it: departure begins at
//!    `max(t, tx_busy[src])` and occupies the TX side for `s / bandwidth`;
//! 2. the wire adds `base_latency + hops * per_hop_latency`;
//! 3. the receiver's NIC is occupied for `s / bandwidth` starting at wire
//!    arrival (or when it frees up) — hot receivers therefore queue, which
//!    is precisely the effect that throttles the paper's TPC benchmark at
//!    scale (Section 4.2: "high inter-node communication overhead for
//!    transferring tasks diminishes overall performance").
//!
//! Intra-node "messages" (src == dst) bypass the NIC and cost a memcpy at
//! memory bandwidth — the simulated analogue of HPX's local delivery.
//!
//! The engine is purely an accounting component: callers ask *when would
//! this message arrive* and schedule their own delivery events, so both the
//! AllScale runtime and the MPI baseline price traffic identically.

use allscale_des::{SimDuration, SimTime, Tally};
use allscale_trace::{EventKind, TraceEvent, TraceSink};

use crate::coalesce::BatchParams;
use crate::fault::{FaultPlan, RetryPolicy, TransferFault, Verdict};
use crate::topology::{NodeId, Topology};
use allscale_trace::FlushCause;

/// Tunable cost parameters. Defaults approximate Intel OmniPath
/// (100 Gbit/s, ~1 µs end-to-end MPI latency) on dual-socket Xeon nodes.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Fixed wire/protocol latency per message, ns.
    pub base_latency_ns: u64,
    /// Additional latency per switch hop, ns.
    pub per_hop_latency_ns: u64,
    /// NIC bandwidth, bytes per second.
    pub bandwidth_bps: f64,
    /// Intra-node memory bandwidth, bytes per second (local delivery).
    pub mem_bandwidth_bps: f64,
    /// Fixed software overhead charged per message on each side, ns
    /// (marshalling, matching). Exposed for callers to charge to CPU time.
    pub sw_overhead_ns: u64,
    /// Message-aggregation knobs; `None` disables batching (the ablation
    /// baseline — every message is priced individually, as before).
    pub batching: Option<BatchParams>,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            base_latency_ns: 900,
            per_hop_latency_ns: 100,
            bandwidth_bps: 12.5e9, // 100 Gbit/s
            mem_bandwidth_bps: 60e9,
            sw_overhead_ns: 250,
            batching: None,
        }
    }
}

impl NetParams {
    /// Time for `bytes` to cross one NIC.
    #[inline]
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos_f64(bytes as f64 / self.bandwidth_bps * 1e9)
    }

    /// Wire latency between endpoints `hops` apart.
    #[inline]
    pub fn latency(&self, hops: u32) -> SimDuration {
        SimDuration::from_nanos(self.base_latency_ns + self.per_hop_latency_ns * hops as u64)
    }

    /// Cost of a local (same address space) copy of `bytes`.
    #[inline]
    pub fn local_copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos_f64(bytes as f64 / self.mem_bandwidth_bps * 1e9)
    }

    /// Per-message software overhead as a duration.
    #[inline]
    pub fn sw_overhead(&self) -> SimDuration {
        SimDuration::from_nanos(self.sw_overhead_ns)
    }
}

allscale_des::stat_struct! {
    /// Per-run traffic statistics.
    #[derive(Debug, Clone, Default)]
    pub struct TrafficStats {
        /// Count and size distribution of inter-node messages.
        pub remote: Tally,
        /// Count and size distribution of intra-node messages.
        pub local: Tally,
        /// Messages lost to transient faults (each retry attempt counts).
        pub dropped: u64,
        /// Retry attempts made by [`Network::transfer_with_retry_frame`].
        pub retries: u64,
        /// Simulated nanoseconds spent in ack timeouts and backoff.
        pub backoff_ns: u64,
        /// Messages refused because an endpoint was dead.
        pub undeliverable: u64,
        /// Coalesced batches flushed onto the wire (each is one remote message).
        pub batches: u64,
        /// Logical messages that rode inside those batches.
        pub batched_msgs: u64,
        /// Payload bytes that rode inside those batches.
        pub batched_bytes: u64,
        /// Flush counts by cause, indexed by `FlushCause as usize`
        /// (window, bytes, msgs).
        pub flushes_by_cause: [u64; 3],
        /// Messages whose payload was silently mangled in transit (each
        /// attempt counts, whether or not anyone noticed).
        pub corrupted: u64,
        /// Corrupted arrivals caught by checksum verification (integrity on).
        pub corrupt_detected: u64,
        /// Corrupted arrivals consumed unnoticed (integrity off — the
        /// silent-corruption baseline the integrity layer exists to kill).
        pub corrupt_undetected: u64,
        /// Re-requests issued after a detected corruption (the integrity
        /// analogue of [`TrafficStats::retries`]).
        pub re_requests: u64,
    }
}

impl TrafficStats {
    /// Total bytes that crossed the network (remote messages only).
    pub fn remote_bytes(&self) -> u64 {
        self.remote.sum()
    }
    /// Total number of remote messages.
    pub fn remote_msgs(&self) -> u64 {
        self.remote.count()
    }
}

/// The arrival of one fallible transfer that was not refused outright.
///
/// `intact == false` means the payload was silently mangled in transit
/// and nobody checked — possible only while checksum verification is off
/// ([`Network::set_integrity`]); with integrity on, corrupt arrivals
/// surface as [`TransferFault::Corrupted`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// When the message is fully available at the destination.
    pub at: SimTime,
    /// Whether the payload arrived bit-exact.
    pub intact: bool,
}

/// The network accounting engine over a chosen topology.
pub struct Network<T: Topology> {
    params: NetParams,
    topology: T,
    tx_busy: Vec<SimTime>,
    rx_busy: Vec<SimTime>,
    stats: TrafficStats,
    faults: Option<FaultPlan>,
    integrity: bool,
    trace: TraceSink,
}

impl<T: Topology> Network<T> {
    /// Build a network over `topology` with the given parameters.
    pub fn new(topology: T, params: NetParams) -> Self {
        let n = topology.nodes();
        Network {
            params,
            topology,
            tx_busy: vec![SimTime::ZERO; n],
            rx_busy: vec![SimTime::ZERO; n],
            stats: TrafficStats::default(),
            faults: None,
            integrity: false,
            trace: TraceSink::disabled(),
        }
    }

    /// Enable (or disable) end-to-end checksum verification. With
    /// integrity on, every corrupt arrival is caught at the receiver and
    /// surfaces as [`TransferFault::Corrupted`] (retryable); with it off,
    /// corrupt payloads are delivered as if nothing happened and only the
    /// [`Delivered::intact`] flag of the `_frame` APIs betrays them.
    pub fn set_integrity(&mut self, on: bool) {
        self.integrity = on;
    }

    /// Whether checksum verification is enabled.
    pub fn integrity(&self) -> bool {
        self.integrity
    }

    /// Install a fault-injection plan; consulted by the fallible transfer
    /// APIs only ([`Network::transfer`] stays a reliable fabric).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Install a tracing sink; the network then records fault-layer
    /// instants (drops, corruptions, retries) as they happen. Transfer
    /// spans themselves are recorded by the caller, which knows *why* each
    /// message was sent.
    pub fn install_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable access to the installed fault plan (e.g. to schedule an
    /// additional death mid-run).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// Cost parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The time at which `src`'s transmit NIC frees up (now or earlier
    /// means idle). The coalescer's eager-flush policy keys off this: a
    /// batch is held only while the NIC is busy anyway, so batching under
    /// backpressure costs no latency, and a lone message on an idle NIC
    /// departs immediately.
    pub fn tx_free_at(&self, src: NodeId) -> SimTime {
        self.tx_busy[src]
    }

    /// Account a `bytes`-sized message from `src` to `dst` submitted at
    /// `now`; returns the time at which it is fully available at `dst`.
    pub fn transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: usize) -> SimTime {
        if src == dst {
            self.stats.local.record(bytes as u64);
            return now + self.params.local_copy(bytes);
        }
        self.stats.remote.record(bytes as u64);
        let ser = self.params.serialization(bytes);
        let depart_start = self.tx_busy[src].max(now);
        let depart_end = depart_start + ser;
        self.tx_busy[src] = depart_end;
        let wire_arrival = depart_end + self.params.latency(self.topology.hops(src, dst));
        let recv_start = self.rx_busy[dst].max(wire_arrival);
        let recv_end = recv_start + ser;
        self.rx_busy[dst] = recv_end;
        recv_end
    }

    /// Fallible variant of [`Network::transfer`]: consults the installed
    /// [`FaultPlan`] before committing resources.
    ///
    /// - A dead endpoint refuses the message outright (no resources are
    ///   consumed; a dead sender cannot even serialize).
    /// - A transient drop still occupies the sender's NIC — the bytes
    ///   left, they just never arrived — and is reported as
    ///   [`TransferFault::Dropped`].
    /// - A corruption is made visible: the returned [`Delivered`] carries
    ///   an `intact` flag, and with integrity enabled a corrupt arrival is
    ///   refused as [`TransferFault::Corrupted`] after billing the full
    ///   transfer (the bytes did cross the wire — the receiver just
    ///   refuses to consume them once the checksum fails).
    ///
    /// Without a fault plan this is exactly [`Network::transfer`].
    pub fn try_transfer_frame(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    ) -> Result<Delivered, TransferFault> {
        let verdict = match &mut self.faults {
            None => Verdict::Deliver,
            Some(plan) => plan.judge(now, src, dst),
        };
        match verdict {
            Verdict::Deliver => {
                let at = self.transfer(now, src, dst, bytes);
                Ok(Delivered { at, intact: true })
            }
            Verdict::Corrupt => {
                // The mangled bytes still cross the wire at full price;
                // detection (or the lack of it) happens at the receiver.
                let at = self.transfer(now, src, dst, bytes);
                self.stats.corrupted += 1;
                let detected = self.integrity;
                self.trace.record(|| {
                    TraceEvent::instant(
                        at.as_nanos(),
                        dst as u32,
                        EventKind::NetCorrupt {
                            src: src as u32,
                            dst: dst as u32,
                            bytes: bytes as u64,
                            detected,
                        },
                    )
                });
                if self.integrity {
                    self.stats.corrupt_detected += 1;
                    Err(TransferFault::Corrupted)
                } else {
                    self.stats.corrupt_undetected += 1;
                    Ok(Delivered { at, intact: false })
                }
            }
            Verdict::Fault(TransferFault::Dropped) => {
                // The sender serialized the message before it was lost.
                let ser = self.params.serialization(bytes);
                let depart_start = self.tx_busy[src].max(now);
                self.tx_busy[src] = depart_start + ser;
                self.stats.dropped += 1;
                self.trace.record(|| {
                    TraceEvent::instant(
                        now.as_nanos(),
                        src as u32,
                        EventKind::NetDrop {
                            src: src as u32,
                            dst: dst as u32,
                            bytes: bytes as u64,
                        },
                    )
                });
                Err(TransferFault::Dropped)
            }
            Verdict::Fault(fault) => {
                self.stats.undeliverable += 1;
                Err(fault)
            }
        }
    }

    /// Judge and price one failure-detector probe from `src` to `dst`: a
    /// tiny priority datagram that bypasses both NIC queues — it never
    /// waits behind bulk data and occupies no serialization resources —
    /// paying wire latency only. The fault plan applies exactly as for
    /// [`Network::try_transfer_frame`] (dead endpoints refuse it, drops lose
    /// it, and the generator draws advance identically), so probes and data
    /// see the same fault schedule.
    ///
    /// Keeping probes out of the bandwidth queues keeps the failure
    /// detector *causal*: a probe submitted at `now` is judged against
    /// deaths at `now`, never at a congestion-deferred future arrival —
    /// a backlogged link must not let the detector convict a peer of a
    /// death that has not happened yet (nor suspect a live peer merely
    /// because bulk transfers are queuing in front of its ack).
    pub fn probe(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
    ) -> Result<SimTime, TransferFault> {
        let verdict = match &mut self.faults {
            None => Verdict::Deliver,
            Some(plan) => plan.judge(now, src, dst),
        };
        let lat = self.params.latency(self.topology.hops(src, dst));
        match verdict {
            Verdict::Deliver => Ok(now + lat),
            // A mangled probe still proves its sender alive: liveness is
            // carried by arrival, not by payload integrity.
            Verdict::Corrupt => {
                self.stats.corrupted += 1;
                if self.integrity {
                    self.stats.corrupt_detected += 1;
                } else {
                    self.stats.corrupt_undetected += 1;
                }
                Ok(now + lat)
            }
            Verdict::Fault(TransferFault::Dropped) => {
                self.stats.dropped += 1;
                self.trace.record(|| {
                    TraceEvent::instant(
                        now.as_nanos(),
                        src as u32,
                        EventKind::NetDrop {
                            src: src as u32,
                            dst: dst as u32,
                            bytes: 0,
                        },
                    )
                });
                Err(TransferFault::Dropped)
            }
            Verdict::Fault(fault) => {
                self.stats.undeliverable += 1;
                Err(fault)
            }
        }
    }

    /// [`Network::try_transfer_frame`] wrapped in bounded retry with
    /// exponential backoff: every failed attempt is noticed after the
    /// policy's ack timeout, the sender backs off, and the retry is billed
    /// at the later simulated time. Transient drops are masked up to
    /// `policy.max_attempts`; dead endpoints fail immediately — telling a
    /// crashed peer from a lossy link is the failure detector's job, not
    /// the transport's. Detected corruptions
    /// ([`TransferFault::Corrupted`], integrity on)
    /// are re-requested under the same bounded backoff as drops — the
    /// receiver noticed the bad checksum after the full transfer, so the
    /// re-request is billed from the (later) failed arrival, counted
    /// under [`TrafficStats::re_requests`] rather than `retries`.
    pub fn transfer_with_retry_frame(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        policy: &RetryPolicy,
    ) -> Result<Delivered, TransferFault> {
        let mut t = now;
        let mut attempt = 1u32;
        loop {
            match self.try_transfer_frame(t, src, dst, bytes) {
                Ok(delivered) => return Ok(delivered),
                Err(fault @ (TransferFault::Dropped | TransferFault::Corrupted)) => {
                    if attempt >= policy.max_attempts.max(1) {
                        return Err(fault);
                    }
                    let wait = policy.backoff(attempt);
                    if fault == TransferFault::Dropped {
                        self.stats.retries += 1;
                    } else {
                        self.stats.re_requests += 1;
                    }
                    self.stats.backoff_ns += wait.as_nanos();
                    t += wait;
                    self.trace.record(|| {
                        TraceEvent::instant(
                            t.as_nanos(),
                            src as u32,
                            EventKind::NetRetry {
                                src: src as u32,
                                dst: dst as u32,
                                attempt,
                                backoff_ns: wait.as_nanos(),
                            },
                        )
                    });
                    attempt += 1;
                }
                Err(fault) => return Err(fault),
            }
        }
    }

    /// Price a coalesced batch of `msgs` logical messages totalling
    /// `total_bytes` as **one** wire message with retry: latency and
    /// software overhead are paid once for the whole batch, NIC occupancy
    /// covers every byte, and the fault plan's verdict applies to the
    /// batch as a unit (a retry re-bills the entire flush; a definitive
    /// loss fails every member). Accounted under the batch counters in
    /// [`TrafficStats`] on top of the ordinary remote tally. A corruption
    /// verdict applies to the whole flush too: a detected corrupt batch is
    /// re-requested as a unit, and an undetected one poisons every member.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_batch_frame(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        total_bytes: usize,
        msgs: u64,
        cause: FlushCause,
        policy: &RetryPolicy,
    ) -> Result<Delivered, TransferFault> {
        self.stats.batches += 1;
        self.stats.batched_msgs += msgs;
        self.stats.batched_bytes += total_bytes as u64;
        self.stats.flushes_by_cause[cause as usize] += 1;
        self.transfer_with_retry_frame(now, src, dst, total_bytes, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTree;

    fn net(nodes: usize) -> Network<FatTree> {
        Network::new(FatTree::new(nodes, 16), NetParams::default())
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn local_transfer_is_memcpy() {
        let mut n = net(4);
        let arrival = n.transfer(t(0), 2, 2, 60_000_000); // 60 MB
                                                          // 60e6 / 60e9 B/s = 1 ms
        assert_eq!(arrival.as_nanos(), 1_000_000);
        assert_eq!(n.stats().remote_msgs(), 0);
        assert_eq!(n.stats().local.count(), 1);
    }

    #[test]
    fn remote_latency_floor() {
        let mut n = net(64);
        // Zero-byte message across the spine: pure latency.
        let arrival = n.transfer(t(0), 0, 63, 0);
        assert_eq!(arrival.as_nanos(), 900 + 4 * 100);
        // Same leaf: two hops.
        let arrival = n.transfer(t(0), 0, 1, 0);
        assert_eq!(arrival.as_nanos(), 900 + 2 * 100);
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let small = net(2).transfer(t(0), 0, 1, 1_000);
        let large = net(2).transfer(t(0), 0, 1, 1_000_000);
        // 1 MB at 12.5 GB/s = 80 µs per NIC crossing (×2 for tx+rx).
        let delta = large.as_nanos() - small.as_nanos();
        assert!((delta as i64 - 2 * 79_920).abs() < 200, "delta={delta}");
    }

    #[test]
    fn sender_nic_serializes_back_to_back_sends() {
        let mut n = net(4);
        let a1 = n.transfer(t(0), 0, 1, 125_000); // 10 µs serialization
        let a2 = n.transfer(t(0), 0, 2, 125_000);
        // Second message departs only after the first clears the TX NIC.
        assert!(a2 > a1);
        assert_eq!(a2.as_nanos() - a1.as_nanos(), 10_000);
    }

    #[test]
    fn receiver_nic_congests_hot_receivers() {
        let mut n = net(8);
        // Four senders target node 0 simultaneously.
        let arrivals: Vec<_> = (1..5).map(|s| n.transfer(t(0), s, 0, 125_000)).collect();
        // Arrivals are serialized by the receive NIC: 10µs apart.
        for w in arrivals.windows(2) {
            assert_eq!(w[1].as_nanos() - w[0].as_nanos(), 10_000);
        }
    }

    #[test]
    fn try_transfer_without_plan_matches_transfer() {
        let mut a = net(2);
        let mut b = net(2);
        let r1 = a.try_transfer_frame(t(0), 0, 1, 4096).unwrap().at;
        let r2 = b.transfer(t(0), 0, 1, 4096);
        assert_eq!(r1, r2);
    }

    #[test]
    fn dead_endpoints_refuse_messages() {
        use crate::fault::{FaultPlan, TransferFault};
        let mut n = net(4);
        let mut plan = FaultPlan::new(1);
        plan.kill_at(3, t(100));
        n.install_faults(plan);
        assert!(n.try_transfer_frame(t(0), 0, 3, 64).is_ok());
        assert_eq!(
            n.try_transfer_frame(t(100), 0, 3, 64),
            Err(TransferFault::ReceiverDead)
        );
        assert_eq!(
            n.try_transfer_frame(t(100), 3, 0, 64),
            Err(TransferFault::SenderDead)
        );
        assert_eq!(n.stats().undeliverable, 2);
    }

    #[test]
    fn retry_masks_transient_drops_and_bills_backoff() {
        use crate::fault::{FaultPlan, RetryPolicy};
        // Heavy loss: retries are certain to happen over enough messages.
        let mut n = net(2);
        n.install_faults(FaultPlan::new(9).with_drop_rate(0.5));
        let policy = RetryPolicy {
            max_attempts: 16,
            ack_timeout: SimDuration::from_nanos(500),
            base_backoff: SimDuration::from_nanos(100),
        };
        let mut delivered = 0;
        for i in 0..50 {
            if n.transfer_with_retry_frame(t(i * 10_000), 0, 1, 256, &policy)
                .is_ok()
            {
                delivered += 1;
            }
        }
        assert_eq!(
            delivered, 50,
            "16 attempts at 50% loss practically always deliver"
        );
        let s = n.stats();
        assert!(s.retries > 0, "some messages needed retries");
        assert_eq!(s.dropped, s.retries, "every drop was retried");
        assert!(s.backoff_ns >= s.retries * 600, "backoff billed per retry");
    }

    #[test]
    fn retry_is_bounded() {
        use crate::fault::{FaultPlan, RetryPolicy, TransferFault};
        let mut n = net(2);
        n.install_faults(FaultPlan::new(4).with_drop_rate(1.0));
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert_eq!(
            n.transfer_with_retry_frame(t(0), 0, 1, 256, &policy),
            Err(TransferFault::Dropped)
        );
        assert_eq!(n.stats().dropped, 3);
        assert_eq!(
            n.stats().retries,
            2,
            "attempts - 1 retries before giving up"
        );
    }

    #[test]
    fn fault_instants_reach_an_installed_trace() {
        use crate::fault::{FaultPlan, RetryPolicy};
        use allscale_trace::{TraceConfig, TraceSink};
        let mut n = net(2);
        n.install_faults(FaultPlan::new(11).with_drop_rate(1.0));
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        n.install_trace(sink.clone());
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let _ = n.transfer_with_retry_frame(t(0), 0, 1, 256, &policy);
        let trace = sink.take().unwrap();
        let drops = trace
            .events
            .iter()
            .filter(|e| e.kind.name() == "drop")
            .count();
        let retries = trace
            .events
            .iter()
            .filter(|e| e.kind.name() == "retry")
            .count();
        assert_eq!(drops, 3, "every dropped attempt is recorded");
        assert_eq!(retries, 2, "every re-send is recorded");
        // Retry instants carry the simulated backoff, so they sit strictly
        // after the drop they mask.
        assert!(trace.events.iter().all(|e| e.loc == 0));
    }

    #[test]
    fn batch_amortizes_latency_and_counts_stats() {
        let policy = RetryPolicy::default();
        let (n_msgs, b) = (8usize, 4_096usize);
        // Sum of isolated per-message prices: each pays 2·ser(b) + latency.
        let mut isolated_sum = 0u64;
        for _ in 0..n_msgs {
            isolated_sum += net(2).transfer(t(0), 0, 1, b).as_nanos();
        }
        // Batched: one latency over the summed payload.
        let mut batched = net(2);
        let one = batched
            .transfer_batch_frame(
                t(0),
                0,
                1,
                n_msgs * b,
                n_msgs as u64,
                FlushCause::Window,
                &policy,
            )
            .unwrap()
            .at
            .as_nanos();
        // (n-1) wire latencies are saved; NIC occupancy still covers every
        // byte (serialization of n·b differs from n·ser(b) only by ns-level
        // rounding).
        let lat = batched.params().latency(2).as_nanos();
        let saved = isolated_sum - one;
        let expect = (n_msgs as u64 - 1) * lat;
        assert!(
            saved.abs_diff(expect) <= n_msgs as u64,
            "saved {saved} vs expected {expect}"
        );
        let s = batched.stats();
        assert_eq!(s.remote.count(), 1, "a batch is one wire message");
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_msgs, n_msgs as u64);
        assert_eq!(s.batched_bytes, (n_msgs * b) as u64);
        assert_eq!(s.flushes_by_cause, [1, 0, 0]);
    }

    #[test]
    fn batch_of_one_prices_like_a_single_send() {
        let policy = RetryPolicy::default();
        let mut a = net(2);
        let mut b = net(2);
        let single = a
            .transfer_with_retry_frame(t(0), 0, 1, 4_096, &policy)
            .unwrap();
        let batch = b
            .transfer_batch_frame(t(0), 0, 1, 4_096, 1, FlushCause::Msgs, &policy)
            .unwrap();
        assert_eq!(single, batch);
        assert_eq!(b.stats().flushes_by_cause, [0, 0, 1]);
    }

    #[test]
    fn batch_fault_verdict_applies_to_the_whole_flush() {
        use crate::fault::{FaultPlan, RetryPolicy, TransferFault};
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut n = net(2);
        n.install_faults(FaultPlan::new(4).with_drop_rate(1.0));
        assert_eq!(
            n.transfer_batch_frame(t(0), 0, 1, 8_192, 4, FlushCause::Bytes, &policy),
            Err(TransferFault::Dropped)
        );
        let s = n.stats();
        // One flush was attempted; every retry re-billed the whole batch.
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_msgs, 4);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn undetected_corruption_delivers_tainted_bytes_on_time() {
        use crate::fault::FaultPlan;
        let clean = net(2).transfer(t(0), 0, 1, 1_000);
        let mut n = net(2);
        n.install_faults(FaultPlan::new(6).with_corruption(1.0));
        // Integrity off: the mangled message arrives like any other, at
        // the clean price, flagged only via `intact`.
        let d = n.try_transfer_frame(t(0), 0, 1, 1_000).unwrap();
        assert_eq!(d.at, clean);
        assert!(!d.intact);
        let s = n.stats();
        assert_eq!(
            (s.corrupted, s.corrupt_undetected, s.corrupt_detected),
            (1, 1, 0)
        );
        // The legacy API consumes it silently — the pre-integrity world.
        assert!(n.try_transfer_frame(t(0), 0, 1, 1_000).is_ok());
        assert_eq!(n.stats().corrupt_undetected, 2);
    }

    #[test]
    fn detected_corruption_is_re_requested_with_backoff() {
        use crate::fault::{FaultPlan, RetryPolicy, TransferFault};
        let mut n = net(2);
        n.install_faults(FaultPlan::new(6).with_corruption(1.0));
        n.set_integrity(true);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert_eq!(
            n.transfer_with_retry_frame(t(0), 0, 1, 1_000, &policy),
            Err(TransferFault::Corrupted)
        );
        let s = n.stats();
        assert_eq!(s.corrupted, 3, "every attempt crossed the wire corrupt");
        assert_eq!(s.corrupt_detected, 3, "every arrival failed verification");
        assert_eq!(
            s.re_requests, 2,
            "attempts - 1 re-requests before giving up"
        );
        assert_eq!(s.retries, 0, "re-requests are not drop retries");
        assert!(s.backoff_ns > 0, "re-request backoff is billed");
        assert_eq!(
            s.remote.count(),
            3,
            "corrupt transfers are billed in full — the bytes did move"
        );
    }

    #[test]
    fn corrupt_batch_verdict_applies_to_the_whole_flush() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let mut n = net(2);
        n.install_faults(FaultPlan::new(8).with_corruption(1.0));
        n.set_integrity(true);
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        assert!(n
            .transfer_batch_frame(t(0), 0, 1, 8_192, 4, FlushCause::Bytes, &policy)
            .is_err());
        let s = n.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_msgs, 4);
        assert_eq!(s.corrupt_detected, 4);
        assert_eq!(s.re_requests, 3);
    }

    #[test]
    fn corruption_instants_reach_an_installed_trace() {
        use crate::fault::FaultPlan;
        use allscale_trace::{TraceConfig, TraceSink};
        let mut n = net(2);
        n.install_faults(FaultPlan::new(13).with_corruption(1.0));
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        n.install_trace(sink.clone());
        let _ = n.try_transfer_frame(t(0), 0, 1, 256);
        n.set_integrity(true);
        let _ = n.try_transfer_frame(t(0), 0, 1, 256);
        let trace = sink.take().unwrap();
        let corrupts: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::NetCorrupt { detected, .. } => Some(detected),
                _ => None,
            })
            .collect();
        assert_eq!(corrupts, vec![false, true]);
        // Corruption is noticed (or not) at the receiver.
        assert!(trace.events.iter().all(|e| e.loc == 1));
    }
}
