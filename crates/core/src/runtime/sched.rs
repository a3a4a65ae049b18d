//! Scheduling effects: Algorithm 2's task assignment, the split variant,
//! and the queue/steal protocol of the work-stealing family. The
//! scheduler family in `RtWorld` only decides; this module executes its
//! decisions and bills their traffic.

use allscale_des::SimTime;
use allscale_trace::{EventKind, SpawnVariant, TransferPurpose};

use super::comms::{bill_hops, deliver, send_deferred, Payload};
use super::directory::index_resolve;
use super::events::{schedule, RtEvent};
use super::tasks::{self, packed, Place};
use super::{exec, trace_core_span, trace_instant, RtSim, RtWorld};
use crate::index::sole_owner_from;
use crate::policy::{PolicyEnv, Variant};
use crate::scheduler::{DataAwareScheduler, Scheduler, WorkStealingScheduler, STEAL_ATTEMPTS};
use crate::task::{AccessMode, Requirement, TaskId, WorkItem};

/// The scheduler family of a run: the paper's direct placement, or
/// per-locality queues with work stealing. Both make Algorithm 2's two
/// decisions; only the stealing family has queues.
pub(super) enum Family {
    Direct(DataAwareScheduler),
    Stealing(WorkStealingScheduler),
}

impl Family {
    /// Algorithm 2's two decisions, through the trait both families
    /// implement.
    fn decide(&mut self) -> &mut dyn Scheduler {
        match self {
            Family::Direct(s) => s,
            Family::Stealing(s) => s,
        }
    }

    /// The stealing family's queues. Only a task the stealing family
    /// admitted enters the queue protocol below.
    fn queues(&mut self) -> &mut WorkStealingScheduler {
        match self {
            Family::Stealing(s) => s,
            Family::Direct(_) => unreachable!("the direct family queues nothing"),
        }
    }

    /// Recovery rewinds the phase: the queued tasks, their slots and
    /// every steal and wait state go.
    pub(super) fn reset_for_recovery(&mut self) {
        if let Family::Stealing(s) = self {
            s.clear();
        }
    }
}

// -------------------------------------------------------------- Algorithm 2

/// What the scheduling policy may consult, borrowed from the fields of the
/// world `$w` (a macro, not a function: the scheduler next to them is
/// borrowed mutably for the same call).
macro_rules! policy_env {
    ($w:expr) => {
        PolicyEnv {
            nodes: $w.localities.len(),
            cores_per_node: $w.spec.cores_per_node,
            load: &$w.load,
        }
    };
}

/// Assign a task at `place` in the tree to a node (paper Algorithm 2;
/// the variant policy reads the place's depth); returns the new task's
/// id (the serving subsystem keys in-flight requests by it).
pub(super) fn assign_task(
    sim: &mut RtSim,
    at: usize,
    wi: Box<dyn WorkItem>,
    place: Place,
) -> TaskId {
    let now = sim.now();
    let w = &mut sim.world;
    let tid = w.tasks.next_id();

    // Line 3: pick the variant.
    let hint = wi.placement_hint();
    let variant =
        w.scheduler
            .decide()
            .pick_variant(place.depth, wi.can_split(), hint, &policy_env!(w));
    let spawn = |variant, target: usize| EventKind::TaskSpawn {
        task: tid.0,
        parent: place.parent().map(|p| p.0),
        variant,
        target: target as u32,
    };
    let tag = Payload::task(TransferPurpose::TaskForward, tid);
    let bytes = wi.descriptor_bytes();

    match variant {
        Variant::Split => {
            // Pure decomposition: the policy chooses where it runs
            // (remapped off localities known dead).
            let target = w.scheduler.decide().pick_target(hint, at, &policy_env!(w));
            let target = w.recovery.live_target(target);
            trace_instant(w, now, at, spawn(SpawnVariant::Split, target));
            w.load[target] += 1;
            let then = RtEvent::SplitForward {
                target: packed(target),
                tid,
                wi,
                place,
            };
            deliver(sim, at, target, bytes, tag, true, then);
        }
        Variant::Process => {
            let reqs = wi.requirements();
            let preferred = pick_process_target(w, now, at, hint, &reqs);
            let preferred = w.recovery.live_target(preferred);
            // The scheduler routes the admitted task: directly to its
            // data-aware locality, or into a (possibly spilled) queue.
            let (target, queued) = match &mut w.scheduler {
                Family::Direct(_) => (preferred, false),
                Family::Stealing(s) => (s.admit(preferred, w.recovery.dead()), true),
            };
            trace_instant(w, now, at, spawn(SpawnVariant::Process, target));
            w.load[target] += 1;
            w.tasks.admit(tid, target, wi, place, reqs);
            let then = RtEvent::ProcessForward {
                target: packed(target),
                tid,
                queued,
            };
            deliver(sim, at, target, bytes, tag, true, then);
        }
    }
    tid
}

/// A split task's descriptor reached `target`, or was lost (undetected
/// dead target or exhausted retries): the phase then stalls until the
/// failure detector triggers recovery.
pub(super) fn split_arrived(
    sim: &mut RtSim,
    target: usize,
    tid: TaskId,
    wi: Box<dyn WorkItem>,
    place: Place,
    arrived: bool,
) {
    if !arrived {
        sim.world.load[target] -= 1;
        return;
    }
    do_split(sim, target, tid, wi, place);
}

/// A process task's descriptor reached `target`: queue or prepare it. A
/// lost descriptor drops the assignment and stalls until recovery.
pub(super) fn process_arrived(
    sim: &mut RtSim,
    target: usize,
    tid: TaskId,
    queued: bool,
    arrived: bool,
) {
    if !arrived {
        sim.world.tasks.remove(tid);
        sim.world.load[target] -= 1;
        return;
    }
    if queued {
        enqueue_task(sim, target, tid);
    } else {
        exec::prepare_task(sim, tid);
    }
}

/// Algorithm 2 lines 4-13: find the execution locality for a process task.
fn pick_process_target(
    w: &mut RtWorld,
    now: SimTime,
    at: usize,
    hint: Option<f64>,
    reqs: &[Requirement],
) -> usize {
    if reqs.is_empty() {
        return w.scheduler.decide().pick_target(hint, at, &policy_env!(w));
    }
    // Fast path: everything already available right here (covers
    // persistent replicas, e.g. the broadcast tree top).
    let dim = &w.localities[at].dim;
    let local_ok = reqs.iter().all(|r| match r.mode {
        AccessMode::Read => dim.covers_stable(r.item, r.region.as_ref()),
        AccessMode::Write => r.region.is_subset_dyn(dim.owned_region(r.item)),
    });
    if local_ok {
        return at;
    }
    // Line 4: a process covering ALL requirements.
    if let Some(p) = common_owner(w, now, at, reqs.iter()) {
        return p;
    }
    // Line 7: a process covering all WRITE requirements.
    let writes = reqs.iter().filter(|r| r.mode == AccessMode::Write);
    if let Some(p) = common_owner(w, now, at, writes) {
        return p;
    }
    // Line 12: the policy decides.
    w.scheduler.decide().pick_target(hint, at, &policy_env!(w))
}

/// The single process owning every requirement in `iter`, if one exists.
/// Bills the index lookups used to find out.
fn common_owner<'r>(
    w: &mut RtWorld,
    now: SimTime,
    at: usize,
    iter: impl Iterator<Item = &'r Requirement>,
) -> Option<usize> {
    let mut owner: Option<usize> = None;
    for req in iter {
        let (pieces, hops) = index_resolve(w, now, req.item, at, req.region.as_ref());
        bill_hops(w, now, &hops, Some(req.item));
        let sole = sole_owner_from(req.region.as_ref(), &pieces)?;
        if owner.is_some_and(|o| o != sole) {
            return None;
        }
        owner = Some(sole);
    }
    owner
}

// ------------------------------------------------------------ work stealing
//
// The queue-family driver. A process task admitted as `Enqueue` lands in
// its locality's bounded queue; the pump activates queued tasks while
// execution slots (one per core) are free. A locality whose queue runs
// dry starts a *steal round*: a billed control request to a victim
// (chosen by the scheduler's victim policy), answered either by a grant
// — the task descriptor travels back as a billed `TaskForward`, and the
// thief re-resolves the task's data requirements locally through the
// normal staging path (location cache included) — or by a billed deny.
// After `STEAL_ATTEMPTS` denies the thief parks as a *waiter*; a later
// surplus enqueue anywhere hands it work directly. Every leg is a
// normal runtime message: batching coalesces it, fault injection can
// drop it (a lost request or deny counts as a deny; a lost handoff
// strands the task until recovery, exactly like a lost forward), and
// the trace records `StealRequest`/`StealGrant`/`StealDeny` instants.
//
// Liveness without timers: the protocol advances only on message
// continuations and enqueue/finish events, so a run with no faults
// cannot livelock (each round either moves a task or parks the thief),
// and the event queue still drains when the application completes.

/// Enqueue an admitted (or stolen) task at `loc`, activate what fits,
/// and hand surplus queued work to any parked waiter.
fn enqueue_task(sim: &mut RtSim, loc: usize, tid: TaskId) {
    sim.world.scheduler.queues().enqueue(loc, tid);
    sim.world.monitor.scheduler.tasks_queued += 1;
    pump_queue(sim, loc);
    // Surplus push: a queue still backed up after pumping feeds parked
    // waiters directly — no request leg, just the handoff.
    while let Some((waiter, task)) = sim
        .world
        .scheduler
        .queues()
        .take_handoff(loc, sim.world.recovery.dead())
    {
        sim.world.monitor.scheduler.handoffs += 1;
        grant_steal(sim, loc, waiter, task);
    }
}

/// A slot at `loc` freed (queue family only): activate the next queued
/// task there, and steal if the queue is dry.
#[inline]
pub(super) fn slot_freed(sim: &mut RtSim, loc: usize) {
    if let Family::Stealing(s) = &mut sim.world.scheduler {
        s.release_slot(loc);
        pump_queue(sim, loc);
    }
}

/// Activate queued tasks at `loc` while slots are free; steal when dry.
fn pump_queue(sim: &mut RtSim, loc: usize) {
    while let Some(tid) = sim.world.scheduler.queues().next_runnable(loc) {
        exec::prepare_task(sim, tid);
    }
    maybe_steal(sim, loc);
}

/// Start a steal round from `thief` if it is idle with a dry queue.
fn maybe_steal(sim: &mut RtSim, thief: usize) {
    let queues = sim.world.scheduler.queues();
    if !queues.should_steal(thief) {
        return;
    }
    queues.begin_steal(thief);
    steal_attempt(sim, thief, 0);
}

/// One victim attempt of a steal round (`attempt` victims already tried).
fn steal_attempt(sim: &mut RtSim, thief: usize, attempt: usize) {
    let queues = sim.world.scheduler.queues();
    let Some(victim) = queues.steal_victim(thief, sim.world.recovery.dead()) else {
        // Nothing to steal anywhere: park as a waiter until surplus
        // work shows up.
        queues.enlist_waiter(thief);
        return;
    };
    let now = sim.now();
    sim.world.monitor.scheduler.steal_requests += 1;
    trace_instant(
        &sim.world,
        now,
        thief,
        EventKind::StealRequest {
            thief: thief as u32,
            victim: victim as u32,
        },
    );
    let ctrl = sim.world.cost.control_msg_bytes;
    let then = RtEvent::StealRequest {
        thief: packed(thief),
        victim: packed(victim),
        attempt,
    };
    send_deferred(sim, thief, victim, ctrl, Payload::CONTROL, then);
}

/// A steal request of `thief` reached `victim`: grant a queued task, or
/// deny. (A lost request — undetected-dead victim, exhausted retries — is
/// indistinguishable from a deny to the thief, and so is a lost deny.)
pub(super) fn steal_requested(sim: &mut RtSim, thief: usize, victim: usize, attempt: usize) {
    match sim.world.scheduler.queues().steal_task(victim) {
        Some(tid) => grant_steal(sim, victim, thief, tid),
        None => {
            let t = sim.now();
            sim.world.monitor.scheduler.steal_denies += 1;
            trace_instant(
                &sim.world,
                t,
                victim,
                EventKind::StealDeny {
                    victim: victim as u32,
                    thief: thief as u32,
                },
            );
            let ctrl = sim.world.cost.control_msg_bytes;
            let then = RtEvent::StealDeny {
                thief: packed(thief),
                attempt,
            };
            send_deferred(sim, victim, thief, ctrl, Payload::CONTROL, then);
        }
    }
}

/// The thief's attempt came back empty: try the next victim, or park.
pub(super) fn steal_denied(sim: &mut RtSim, thief: usize, attempt: usize) {
    let queues = sim.world.scheduler.queues();
    queues.end_steal(thief);
    if !queues.should_steal(thief) {
        // Work arrived (or a slot filled) while the request was in
        // flight; the enqueue's pump already took over.
        return;
    }
    let next = attempt + 1;
    if next >= STEAL_ATTEMPTS {
        queues.enlist_waiter(thief);
        return;
    }
    queues.begin_steal(thief);
    steal_attempt(sim, thief, next);
}

/// Hand the queued task `tid` from `victim` to `thief`: re-home its
/// inflight record and ship the descriptor as a billed `TaskForward`.
/// On arrival the thief enqueues it and its staging re-resolves the
/// task's data requirements from the thief's side (through the location
/// cache), migrating or replicating whatever the new home is missing.
fn grant_steal(sim: &mut RtSim, victim: usize, thief: usize, tid: TaskId) {
    let now = sim.now();
    sim.world.monitor.scheduler.steal_grants += 1;
    trace_instant(
        &sim.world,
        now,
        victim,
        EventKind::StealGrant {
            victim: victim as u32,
            thief: thief as u32,
            task: tid.0,
        },
    );
    let inf = sim.world.tasks.get_mut(tid);
    inf.set_loc(thief);
    let bytes = inf
        .wi
        .as_ref()
        .expect("queued task holds its descriptor")
        .descriptor_bytes();
    sim.world.load[victim] -= 1;
    sim.world.load[thief] += 1;
    let tag = Payload::task(TransferPurpose::TaskForward, tid);
    let then = RtEvent::StealGrant {
        thief: packed(thief),
        tid,
    };
    send_deferred(sim, victim, thief, bytes, tag, then);
}

/// The descriptor of the stolen task `tid` reached `thief`, which queues
/// it — or was lost, with the same fate as a lost forward: the task
/// strands until recovery reaps it, and the thief goes back to stealing
/// (finitely: every loss removes a task from the run).
pub(super) fn steal_granted(sim: &mut RtSim, thief: usize, tid: TaskId, arrived: bool) {
    sim.world.scheduler.queues().end_steal(thief);
    if !arrived {
        sim.world.tasks.remove(tid);
        sim.world.load[thief] -= 1;
        maybe_steal(sim, thief);
        return;
    }
    enqueue_task(sim, thief, tid);
}

// -------------------------------------------------------------------- split

fn do_split(sim: &mut RtSim, loc: usize, tid: TaskId, wi: Box<dyn WorkItem>, place: Place) {
    let overhead = sim.world.cost.task_overhead(loc);
    let now = sim.now();
    let (core, start, end) = sim.world.localities[loc]
        .cores
        .acquire_indexed(now, overhead);
    sim.world.monitor.per_locality[loc].busy_ns += overhead.as_nanos();
    sim.world.monitor.per_locality[loc].tasks_split += 1;
    trace_core_span(
        &sim.world,
        start,
        end - start,
        loc,
        core,
        EventKind::TaskSplit { task: tid.0 },
    );
    let then = RtEvent::SplitEnd {
        loc: packed(loc),
        tid,
        wi,
        place,
    };
    schedule(sim, end, then);
}

/// The split variant's overhead elapsed: decompose, and assign the
/// children from here.
pub(super) fn split_end(
    sim: &mut RtSim,
    loc: usize,
    tid: TaskId,
    wi: Box<dyn WorkItem>,
    place: Place,
) {
    let result_bytes = wi.result_bytes();
    let children = wi.split();
    sim.world.load[loc] -= 1;
    tasks::spawn_children(sim, loc, tid, place, None, children, result_bytes);
}
