//! Everything the runtime schedules, as data.
//!
//! Each continuation the runtime puts on the event queue — a tick, a phase
//! re-entry, the arrival of one kind of message — is one variant of
//! [`RtEvent`], carrying what the continuation needs: the work item, value
//! or fetch payload it hands on, or the ids under which the rest waits in
//! the task table. [`RtEvent::run`] is the one dispatch from a variant to
//! the tenant function that handles it. A message continuation travels as
//! the same value: `comms::send_deferred` and `comms::deliver` take one and
//! run it when the message arrives — or at once, told that it was lost.
//!
//! A queued event is a [`Scheduled`]: the event plus the recovery epoch it
//! was scheduled in, checked in one place when it fires.
//!
//! When `tpc_64`'s queue is deepest, 31 497 events wait: 18 842
//! [`RtEvent::ResultArrival`]s and 12 586 [`RtEvent::ProcessForward`]s,
//! with payloads of 24 and 16 bytes, against 62
//! [`RtEvent::FinishExecution`]s and 7 [`RtEvent::SplitForward`]s. Every
//! one takes a slot the size of the largest variant, so the rare ones hold
//! their payload in 40 bytes — localities and the epoch in 32 bits, a
//! task's place in the tree in 16, a body's children boxed — and a
//! [`Scheduled`] fits in 56.

use allscale_des::{Event, SimTime};
use allscale_net::coalesce::Entry;

use super::comms::{self, PendingMsg};
use super::exec::{self, FetchLeg};
use super::tasks::{self, Place};
use super::{phases, recovery, replicas, sched, serving, RtSim, RtWorld};
use crate::task::{Done, ItemId, TaskId, TaskValue, WorkItem};

/// Everything the runtime schedules.
pub(super) enum RtEvent {
    /// Enter a phase boundary with the previous phase's value: the first
    /// phase, a boundary a checkpoint stalled, the replay after a recovery.
    PhaseResume(TaskValue),
    /// The in-flight checkpoint's drain finished.
    CheckpointCommit,
    /// Retry the preparation of the tasks releases woke since the tick was
    /// armed.
    WakeupTick,
    /// The next open-loop request arrives.
    ServeArrival,
    /// One round of the SLO controller.
    SloTick,
    /// One round of the failure detector.
    HeartbeatTick,
    /// One pass of the replica scrubber.
    ScrubTick,
    /// A split task's descriptor reached `target`.
    SplitForward {
        target: u32,
        tid: TaskId,
        wi: Box<dyn WorkItem>,
        place: Place,
    },
    /// A process task's descriptor reached `target` (its work item waits
    /// in the task table); `queued` when the stealing family admitted it.
    ProcessForward {
        target: u32,
        tid: TaskId,
        queued: bool,
    },
    /// A split variant's overhead elapsed on its core.
    SplitEnd {
        loc: u32,
        tid: TaskId,
        wi: Box<dyn WorkItem>,
        place: Place,
    },
    /// A process task's core time elapsed; its body's outcome travels
    /// here, not in its record (`result_bytes`: the size of its result).
    FinishExecution {
        tid: TaskId,
        done: Outcome,
        result_bytes: usize,
    },
    /// A child of `parent` reported `value`.
    ResultArrival { parent: TaskId, value: TaskValue },
    /// A fetch's request reached its source. The leg is boxed (one box
    /// for both legs of a fetch) to keep every queued event small.
    FetchRequest(Box<FetchLeg>),
    /// A fetch's payload reached its task; `intact` is the wire's verdict.
    FetchData { leg: Box<FetchLeg>, intact: bool },
    /// Task `tid`'s release of its replica of `item` reached `owner`.
    ReplicaRelease {
        owner: u32,
        item: ItemId,
        tid: TaskId,
    },
    /// A steal request of `thief` reached `victim` (`attempt` victims were
    /// tried before it).
    StealRequest {
        thief: u32,
        victim: u32,
        attempt: usize,
    },
    /// A victim's deny reached `thief`.
    StealDeny { thief: u32, attempt: usize },
    /// The descriptor of the stolen task `tid` reached `thief`.
    StealGrant { thief: u32, tid: TaskId },
    /// The flush timer of batch `gen` from `from` to `to`.
    BatchFlush { from: u32, to: u32, gen: u64 },
    /// A flushed batch was handled at its destination; `intact` is the
    /// wire's verdict on the one frame that carried every member.
    BatchDelivery {
        members: Vec<Entry<PendingMsg>>,
        intact: bool,
    },
}

/// A finished body's [`Done`] as it waits in the queue: a value with
/// children, rare and 40 bytes, is boxed, so a value keeps the event small.
pub(super) enum Outcome {
    Value(TaskValue),
    Children(Box<(TaskValue, Vec<Box<dyn WorkItem>>)>),
}

impl From<Done> for Outcome {
    fn from(done: Done) -> Self {
        match done {
            Done::Value(v) => Outcome::Value(v),
            Done::Children(v, children) => Outcome::Children(Box::new((v, children))),
        }
    }
}

impl RtEvent {
    /// The continuation of a message that landed with the wire's integrity
    /// verdict `intact`; only a fetch's payload reads it.
    pub(super) fn landed(self, intact: bool) -> Self {
        match self {
            RtEvent::FetchData { leg, .. } => RtEvent::FetchData { leg, intact },
            other => other,
        }
    }

    /// Run the event. A message continuation learns whether its message
    /// `arrived`: it runs at once with `false` when the message was lost
    /// for good. Everything else runs with `true`.
    pub(super) fn run(self, sim: &mut RtSim, arrived: bool) {
        use RtEvent::*;
        match self {
            PhaseResume(prev) => phases::advance_phase(sim, prev),
            CheckpointCommit => recovery::commit_pending_ckpt(sim),
            WakeupTick => tasks::wakeup_tick(sim),
            ServeArrival => serving::serve_arrival(sim),
            SloTick => serving::slo_tick(sim),
            HeartbeatTick => recovery::heartbeat_tick(sim),
            ScrubTick => replicas::scrub_tick(sim),
            SplitForward {
                target,
                tid,
                wi,
                place,
            } => sched::split_arrived(sim, target as usize, tid, wi, place, arrived),
            ProcessForward {
                target,
                tid,
                queued,
            } => sched::process_arrived(sim, target as usize, tid, queued, arrived),
            SplitEnd {
                loc,
                tid,
                wi,
                place,
            } => sched::split_end(sim, loc as usize, tid, wi, place),
            FinishExecution {
                tid,
                done,
                result_bytes,
            } => exec::finish_execution(sim, tid, done, result_bytes),
            // A lost result orphans the parent; the phase stalls until the
            // failure detector triggers recovery.
            ResultArrival { parent, value } if arrived => tasks::child_done(sim, parent, value),
            FetchRequest(leg) if arrived => exec::fetch_requested(sim, leg),
            FetchData { leg, intact } if arrived => exec::fetch_landed(sim, *leg, intact),
            ReplicaRelease { owner, item, tid } if arrived => {
                exec::replica_released(sim, owner as usize, item, tid)
            }
            // A lost request is a deny to the thief, and so is a lost deny.
            StealRequest {
                thief,
                victim,
                attempt,
            } if arrived => sched::steal_requested(sim, thief as usize, victim as usize, attempt),
            StealRequest { thief, attempt, .. } | StealDeny { thief, attempt } => {
                sched::steal_denied(sim, thief as usize, attempt)
            }
            StealGrant { thief, tid } => sched::steal_granted(sim, thief as usize, tid, arrived),
            BatchFlush { from, to, gen } => {
                comms::flush_timer(sim, from as usize, to as usize, gen)
            }
            BatchDelivery { members, intact } => comms::deliver_batch(sim, members, intact),
            // A lost fetch leg strands its task until recovery reaps it; a
            // lost release leaves its export fences standing until then.
            ResultArrival { .. } | FetchRequest(_) | FetchData { .. } | ReplicaRelease { .. } => {}
        }
    }

    /// Whether the event still fires after a recovery since it was
    /// scheduled: only the two ticks whose duty is orthogonal to which
    /// phase is executing.
    fn survives_recovery(&self) -> bool {
        matches!(self, RtEvent::HeartbeatTick | RtEvent::ScrubTick)
    }
}

/// A queued [`RtEvent`] and the recovery epoch it was scheduled in.
pub(super) struct Scheduled {
    epoch: u32,
    event: RtEvent,
}

impl Event<RtWorld> for Scheduled {
    /// The epoch guard: a recovery bumps the epoch, and every event the
    /// abandoned phase left queued — completions, arrivals, retries, its
    /// ticks — becomes a no-op.
    fn fire(self, sim: &mut RtSim) {
        if self.epoch == sim.world.recovery.epoch() || self.event.survives_recovery() {
            self.event.run(sim, true);
        }
    }
}

/// Schedule `event` at `at` in the current recovery epoch.
pub(super) fn schedule(sim: &mut RtSim, at: SimTime, event: RtEvent) {
    let epoch = sim.world.recovery.epoch();
    sim.schedule_event_at(at, Scheduled { epoch, event });
}
