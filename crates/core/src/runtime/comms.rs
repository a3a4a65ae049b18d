//! Comms: every byte the runtime puts on the simulated wire.
//!
//! Owns the network cost engine, the retry policy and the batching
//! layer. Everything else in the runtime sends through [`send_msg`]
//! (billed now), [`send_deferred`] (through the coalescer, continuation
//! on delivery) or [`deliver`] (local-or-remote), and wraps data
//! payloads with [`seal_payload`] / [`open_payload`].

use std::borrow::Cow;

use allscale_des::fnv::fnv1a_64_batch;
use allscale_des::SimTime;
use allscale_net::coalesce::Entry;
use allscale_net::{
    frame, AnyTopology, Batch, BatchParams, ClusterSpec, Coalescer, Delivered, Enqueue, FaultPlan,
    Network, RetryPolicy, TrafficStats, TransferFault,
};
use allscale_trace::{EventKind, TraceSink, TransferPurpose};

use super::events::{schedule, RtEvent};
use super::tasks::packed;
use super::{trace_instant, trace_span, RtSim, RtWorld};
use crate::index::Hop;
use crate::integrity::IntegrityStats;
use crate::task::{ItemId, TaskId};

pub(super) struct Comms {
    /// The interconnect cost engine.
    net: Network<AnyTopology>,
    /// Retry policy for runtime messages.
    retry_policy: RetryPolicy,
    /// Batching knobs (`None` = every runtime message is sent
    /// individually, the ablation baseline).
    batching: Option<BatchParams>,
    /// Outgoing-message coalescer: per-(src, dst) buffers of runtime
    /// messages awaiting a batch flush. Permanently empty when batching
    /// is off.
    coalescer: Coalescer<PendingMsg>,
    /// Monotonic id stamped on each batch flush (trace correlation).
    next_batch: u64,
}

impl Comms {
    /// The fabric of `spec` with `faults` installed; `verify` makes the
    /// network re-request corrupt deliveries instead of handing them up.
    /// A `resilient` runtime retries a little longer than the network
    /// default: a lost runtime message strands a task until recovery.
    pub(super) fn new(
        spec: &ClusterSpec,
        faults: Option<FaultPlan>,
        verify: bool,
        resilient: bool,
        trace: TraceSink,
    ) -> Self {
        let mut retry_policy = RetryPolicy::default();
        if resilient {
            retry_policy.max_attempts = 6;
        }
        let mut net = Network::new(spec.build_topology(), spec.net.clone());
        if let Some(plan) = faults {
            net.install_faults(plan);
        }
        if verify {
            net.set_integrity(true);
        }
        net.install_trace(trace);
        let batching = spec.net.batching;
        Comms {
            net,
            retry_policy,
            batching,
            coalescer: Coalescer::new(batching.unwrap_or_default()),
            next_batch: 0,
        }
    }

    pub(super) fn stats(&self) -> &TrafficStats {
        self.net.stats()
    }

    /// Whether staging plans should merge adjacent transfers.
    #[inline]
    pub(super) fn batching_on(&self) -> bool {
        self.batching.is_some()
    }

    /// Whether a fault plan is installed.
    pub(super) fn faulty(&self) -> bool {
        self.net.faults().is_some()
    }

    /// Fail-stop ground truth: whether the fault plan has killed `p` by
    /// `now` (the detector may not know yet).
    pub(super) fn is_down(&self, p: usize, now: SimTime) -> bool {
        self.net.faults().is_some_and(|f| f.is_dead(p, now))
    }

    pub(super) fn death_time(&self, p: usize) -> Option<SimTime> {
        self.net.faults().and_then(|f| f.death_time(p))
    }

    /// A ping from `from` to `to` and its ack, as priority probes on the
    /// faulty network with no retries: `Some(true)` when both legs got
    /// through, `Some(false)` when either was lost or `to` refused it, and
    /// `None` when the ack was refused because `from` itself had died by
    /// the time it landed — the prober's own death says nothing about `to`.
    pub(super) fn ping(&mut self, now: SimTime, from: usize, to: usize) -> Option<bool> {
        match self.net.probe(now, from, to) {
            Ok(arr) => match self.net.probe(arr, to, from) {
                Err(TransferFault::ReceiverDead) => None,
                ack => Some(ack.is_ok()),
            },
            Err(_) => Some(false),
        }
    }

    /// Draw from the fault plan's at-rest rot arm for a buffer entering
    /// long-lived storage (a persistent replica or a checkpoint shard); a
    /// strike hands back the salt [`frame::corrupt_in_place`] flips one of
    /// the buffer's bits with. `None` (and no generator advance) unless the
    /// fault plan configures rot.
    pub(super) fn rot_strike(&mut self, stats: &mut IntegrityStats) -> Option<u64> {
        let f = self.net.faults_mut()?;
        f.rot_strikes().then(|| {
            stats.rot_injected += 1;
            f.corruption_salt()
        })
    }

    /// Buffered-but-unflushed messages belong to the abandoned run; their
    /// flush timers are already disarmed by the epoch bump.
    pub(super) fn reset_for_recovery(&mut self) {
        self.coalescer.clear();
    }
}

/// Semantic tag carried by every message: why the message crosses the
/// wire and which task/item it feeds. Recorded on transfer trace events
/// and used by the critical-path analyzer to attribute chain time.
#[derive(Clone, Copy)]
pub(super) struct Payload {
    purpose: TransferPurpose,
    task: Option<TaskId>,
    item: Option<ItemId>,
}

impl Payload {
    /// A control message feeding no task or item in particular.
    pub(super) const CONTROL: Payload = Payload {
        purpose: TransferPurpose::Control,
        task: None,
        item: None,
    };

    /// A message feeding `task` (forward, result, release).
    pub(super) fn task(purpose: TransferPurpose, task: TaskId) -> Self {
        Payload {
            purpose,
            task: Some(task),
            item: None,
        }
    }

    /// A data movement of `item`, optionally feeding `task`.
    pub(super) fn data(purpose: TransferPurpose, task: Option<TaskId>, item: ItemId) -> Self {
        Payload {
            purpose,
            task,
            item: Some(item),
        }
    }
}

/// Record the transfer span of a delivered message on `dst`'s track.
fn trace_transfer(
    w: &RtWorld,
    start: SimTime,
    end: SimTime,
    (src, dst): (usize, usize),
    bytes: usize,
    tag: Payload,
    batch: Option<u64>,
) {
    trace_span(
        w,
        start,
        end - start,
        dst,
        EventKind::Transfer {
            purpose: tag.purpose,
            src: src as u32,
            dst: dst as u32,
            bytes: bytes as u64,
            task: tag.task.map(|t| t.0),
            item: tag.item.map(|i| i.0),
            batch,
        },
    );
}

/// Count a definitive loss and record it at the sender.
fn lost(w: &mut RtWorld, now: SimTime, src: usize, dst: usize, bytes: usize, tag: Payload) {
    w.monitor.resilience.failed_transfers += 1;
    trace_instant(
        w,
        now,
        src,
        EventKind::TransferLost {
            purpose: tag.purpose,
            src: src as u32,
            dst: dst as u32,
            bytes: bytes as u64,
            task: tag.task.map(|t| t.0),
        },
    );
}

/// Bill a message on the network and in the monitor; returns the
/// delivery, or `None` when the message was lost for good — the
/// destination (or source) is dead, or every retry attempt was dropped.
/// Attempts and backoff latency are billed on the simulated clock by the
/// network's retry wrapper; a definitive loss is counted in the
/// resilience stats and leaves the work it carried stranded until
/// recovery reaps it.
///
/// Remote deliveries land in the monitor's transfer-latency histogram
/// (tracing on or off) and, when the sink is enabled, as a transfer span
/// attributed to the destination locality; definitive losses become
/// `TransferLost` instants at the sender.
///
/// With `gate` set, a remote delivery additionally serializes through
/// the destination's communication thread (the LogP `o` term — see
/// [`handle_msg`]) and the returned time is handling-complete rather
/// than wire arrival. The deferred-send path gates in both batched and
/// unbatched modes, so the two stay comparable; synchronous callers do
/// not gate.
///
/// The returned [`Delivered`] carries the wire's integrity verdict:
/// `intact` is `false` only when a corrupting fault plan runs with
/// checksum verification off — verification on turns a corrupt delivery
/// into a re-request inside the retry loop, so a verified delivery is
/// always intact.
pub(super) fn send_msg(
    w: &mut RtWorld,
    now: SimTime,
    from: usize,
    to: usize,
    bytes: usize,
    tag: Payload,
    gate: bool,
) -> Option<Delivered> {
    w.monitor.per_locality[from].msgs_sent += 1;
    w.monitor.per_locality[from].bytes_sent += bytes as u64;
    let c = &mut w.comms;
    match c
        .net
        .transfer_with_retry_frame(now, from, to, bytes, &c.retry_policy)
    {
        Ok(delivered) if from == to => Some(delivered),
        Ok(delivered) => {
            let end = if gate {
                handle_msg(w, to, delivered.at)
            } else {
                delivered.at
            };
            w.monitor.transfer_latency.record((end - now).as_nanos());
            trace_transfer(w, now, end, (from, to), bytes, tag, None);
            Some(Delivered {
                at: end,
                intact: delivered.intact,
            })
        }
        Err(_) => {
            lost(w, now, from, to, bytes, tag);
            None
        }
    }
}

/// Serialize one incoming runtime message through `to`'s communication
/// thread: handling starts once the message has arrived *and* the thread
/// is free, and occupies it for the per-message CPU overhead. Returns
/// the handling-complete time. This per-message serial cost is what a
/// batch amortizes — a flush of `n` messages pays it once.
#[inline]
fn handle_msg(w: &mut RtWorld, to: usize, arrival: SimTime) -> SimTime {
    let start = w.localities[to].comm_busy.max(arrival);
    let end = start + w.cost.msg_cpu();
    w.localities[to].comm_busy = end;
    end
}

// ---------------------------------------------------------------- integrity

/// A data payload as it crosses the wire: sealed under its checksum when
/// the integrity service is on, bare otherwise. Either way the payload
/// bytes stay where the export wrote them.
pub(super) enum Wire {
    /// A checksummed frame ([`frame::Payload::seal`]).
    Sealed(Vec<u8>),
    /// The payload alone; its reserved header stays home.
    Bare(frame::Payload),
}

impl Wire {
    /// The bytes billed for this transfer.
    pub(super) fn len(&self) -> usize {
        match self {
            Wire::Sealed(framed) => framed.len(),
            Wire::Bare(payload) => payload.len(),
        }
    }
}

/// Wrap a data payload for the wire. With the integrity service on, the
/// payload is sealed under its FNV-1a checksum (the framed length —
/// payload plus [`frame::FRAME_OVERHEAD`] — is what gets billed);
/// otherwise the bytes travel bare. Control messages are not sealed
/// individually: their fixed `control_msg_bytes` size already stands for
/// a fully framed wire message.
pub(super) fn seal_payload(w: &RtWorld, payload: frame::Payload) -> Wire {
    if w.integrity.is_some() {
        Wire::Sealed(payload.seal())
    } else {
        Wire::Bare(payload)
    }
}

/// [`seal_payload`] for the payloads one event puts on the wire together
/// (a staging plan's fetches): their checksums are computed abreast.
pub(super) fn seal_payloads(w: &RtWorld, payloads: Vec<frame::Payload>) -> Vec<Wire> {
    if w.integrity.is_none() {
        return payloads.into_iter().map(Wire::Bare).collect();
    }
    let bytes: Vec<&[u8]> = payloads.iter().map(|p| &**p).collect();
    let checksums = fnv1a_64_batch(&bytes);
    let seal = |(p, sum): (frame::Payload, u64)| Wire::Sealed(p.seal_with(sum));
    payloads.into_iter().zip(checksums).map(seal).collect()
}

/// Recover the payload of an arrived data transfer, lent out of the buffer
/// it travelled in. With the integrity service on, the frame is opened and
/// checked — the network never delivers a corrupt message in that mode (it
/// re-requests instead), so a mismatch here would be an *undetected*
/// corruption and the check is the zero-undetected oracle. With the
/// service off, a delivery flagged non-intact is copied and has the wire's
/// bit flip applied: the receiver consumes poison without noticing (the
/// ablation baseline).
pub(super) fn open_payload<'a>(w: &mut RtWorld, wire: &'a Wire, intact: bool) -> Cow<'a, [u8]> {
    match wire {
        Wire::Sealed(framed) => Cow::Borrowed(
            frame::open(framed)
                .expect("verified transfer delivered a corrupt frame (undetected corruption)"),
        ),
        Wire::Bare(payload) if intact => Cow::Borrowed(payload),
        Wire::Bare(payload) => {
            let mut poisoned = payload.to_vec();
            let faults = w.comms.net.faults_mut();
            let salt = faults.map(|f| f.corruption_salt()).unwrap_or(1);
            frame::corrupt_in_place(&mut poisoned, salt);
            Cow::Owned(poisoned)
        }
    }
}

// ----------------------------------------------------------------- batching

/// A runtime message parked in the coalescer: its semantic tag plus the
/// continuation to run once the batch carrying it is delivered or
/// definitively lost.
pub(super) struct PendingMsg {
    tag: Payload,
    then: RtEvent,
}

/// Send a runtime message through the batching layer. With batching off
/// it is billed immediately ([`send_msg`] gated on the destination's
/// comm thread) and `then` is scheduled for the handling-complete time;
/// with batching on it is enqueued in the per-(src, dst) coalescer and
/// `then` fires when the batch flushes — at the flush-window deadline, or
/// immediately when a byte or message cap closes the batch. When the
/// message (or the whole batch carrying it) is definitively lost, `then`
/// runs at once, told so.
pub(super) fn send_deferred(
    sim: &mut RtSim,
    from: usize,
    to: usize,
    bytes: usize,
    tag: Payload,
    then: RtEvent,
) {
    debug_assert_ne!(from, to, "deferred sends are remote-only");
    let now = sim.now();
    if sim.world.comms.batching.is_none() {
        match send_msg(&mut sim.world, now, from, to, bytes, tag, true) {
            Some(handled) => schedule(sim, handled.at, then.landed(handled.intact)),
            None => then.run(sim, false),
        }
        return;
    }
    // Sender-side accounting happens at enqueue time; the wire is billed
    // once per flush.
    sim.world.monitor.per_locality[from].msgs_sent += 1;
    sim.world.monitor.per_locality[from].bytes_sent += bytes as u64;
    let msg = PendingMsg { tag, then };
    match sim.world.comms.coalescer.enqueue(now, from, to, bytes, msg) {
        Enqueue::Joined => {}
        Enqueue::Opened { deadline, gen } => {
            // Eager-flush policy: hold the batch only while the sender's
            // NIC is busy anyway. A lone message on an idle NIC departs
            // at `now` — but the flush event is *scheduled*, so every
            // same-destination send of the current event cascade (all at
            // the same virtual instant, FIFO before the flush fires)
            // still joins the batch. Under backpressure the batch rides
            // until the NIC frees, capped by the flush window, so
            // batching never adds more delay than the window and adds
            // none at all when the wire is idle.
            let eager = sim.world.comms.net.tx_free_at(from).max(now);
            let fire = eager.min(deadline);
            let (from, to) = (packed(from), packed(to));
            schedule(sim, fire, RtEvent::BatchFlush { from, to, gen });
        }
        Enqueue::Full => {
            let batch = sim
                .world
                .comms
                .coalescer
                .take(from, to)
                .expect("cap-flushed batch present");
            flush_batch(sim, batch);
        }
    }
}

/// The flush timer of batch `gen` from `from` to `to`: flush it, unless a
/// cap flushed it first.
pub(super) fn flush_timer(sim: &mut RtSim, from: usize, to: usize, gen: u64) {
    if let Some(batch) = sim.world.comms.coalescer.take_if_gen(from, to, gen) {
        flush_batch(sim, batch);
    }
}

/// Put a closed batch on the wire as one priced message and fire every
/// member's continuation at the batch's handling-complete time. A fault
/// verdict applies to the whole flush: on a definitive loss, every
/// member's continuation fires with `None`.
fn flush_batch(sim: &mut RtSim, batch: Batch<PendingMsg>) {
    let now = sim.now();
    let (src, dst) = (batch.src, batch.dst);
    let msgs = batch.entries.len() as u64;
    let w = &mut sim.world;
    let id = w.comms.next_batch;
    w.comms.next_batch += 1;
    let c = &mut w.comms;
    let outcome = c.net.transfer_batch_frame(
        now,
        src,
        dst,
        batch.bytes,
        msgs,
        batch.cause,
        &c.retry_policy,
    );
    match outcome {
        Ok(delivered) => {
            let handled = handle_msg(w, dst, delivered.at);
            trace_span(
                w,
                now,
                handled - now,
                dst,
                EventKind::BatchFlush {
                    src: src as u32,
                    dst: dst as u32,
                    msgs: msgs as u32,
                    bytes: batch.bytes as u64,
                    cause: batch.cause,
                    batch: id,
                },
            );
            for e in &batch.entries {
                // Per-member latency runs from its enqueue to the flush's
                // handling-complete time: the batching wait is transfer
                // time, and the critical path attributes it as such.
                let at = e.at.min(handled);
                w.monitor.transfer_latency.record((handled - at).as_nanos());
                trace_transfer(w, at, handled, (src, dst), e.bytes, e.payload.tag, Some(id));
            }
            // The wire verdict applies to the whole flush: one frame
            // carried every member.
            let (members, intact) = (batch.entries, delivered.intact);
            schedule(sim, handled, RtEvent::BatchDelivery { members, intact });
        }
        Err(_) => {
            for e in batch.entries {
                lost(&mut sim.world, now, src, dst, e.bytes, e.payload.tag);
                e.payload.then.run(sim, false);
            }
        }
    }
}

/// Run the continuation of every member of a batch its destination has
/// handled, in enqueue order.
pub(super) fn deliver_batch(sim: &mut RtSim, members: Vec<Entry<PendingMsg>>, intact: bool) {
    for e in members {
        e.payload.then.landed(intact).run(sim, true);
    }
}

/// Run `then` at locality `to` on behalf of `from`: after a billed
/// message through the batching layer when the two differ (`then` is
/// told if the message was lost for good), without one otherwise — as an
/// event of its own at the current instant when `own_event` is set, else
/// inline.
pub(super) fn deliver(
    sim: &mut RtSim,
    from: usize,
    to: usize,
    bytes: usize,
    tag: Payload,
    own_event: bool,
    then: RtEvent,
) {
    if from != to {
        send_deferred(sim, from, to, bytes, tag, then);
    } else if own_event {
        let now = sim.now();
        schedule(sim, now, then);
    } else {
        then.run(sim, true);
    }
}

/// Bill a chain of control-message hops; returns completion time.
///
/// Besides wire time, each hop occupies a core at the *receiving* process
/// for the per-message CPU overhead (the LogP `o` term): this is what
/// makes a centralized directory congest under load while the
/// hierarchical index spreads handling over the tree.
///
/// Index operations apply their logical state change before billing, so a
/// hop lost to fault injection truncates the remaining billing chain but
/// never the index mutation itself.
pub(super) fn bill_hops(
    w: &mut RtWorld,
    mut now: SimTime,
    hops: &[Hop],
    item: Option<ItemId>,
) -> SimTime {
    let bytes = w.cost.control_msg_bytes;
    let tag = Payload {
        item,
        ..Payload::CONTROL
    };
    for &(a, b) in hops {
        match send_msg(w, now, a, b, bytes, tag, false) {
            Some(d) => now = handle_msg(w, b, d.at),
            None => return now,
        }
    }
    now
}
