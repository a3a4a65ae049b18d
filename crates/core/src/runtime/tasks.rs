//! The task table: tasks in flight, the tree of parents awaiting their
//! children, and the wake-up bookkeeping of tasks the (start) rule
//! refused — plus the completion path that walks results up the tree.

use allscale_des::SimDuration;
use allscale_trace::{EventKind, TransferPurpose};

use super::comms::{deliver, Payload};
use super::{exec, phases, sched, schedule_task_event, serving, trace_instant, RtSim, RtWorld};
use crate::dim::Blocker;
use crate::task::{Done, ItemId, Requirement, SplitOutcome, TaskId, TaskValue, WorkItem};
use crate::task_map::TaskMap;

/// A process task between admission and completion.
pub(super) struct Inflight {
    pub(super) loc: usize,
    pub(super) wi: Option<Box<dyn WorkItem>>,
    pub(super) parent: Option<(TaskId, usize)>,
    pub(super) reqs: Vec<Requirement>,
    /// Read replicas imported for this task: (item, owner).
    pub(super) replicas: Vec<(ItemId, usize)>,
    pub(super) pending_transfers: usize,
    pub(super) pending_done: Option<(Done, usize)>,
    /// Drawn from [`Wakeups::next_ticket`] the first time the task is
    /// refused and kept across later refusals: woken tasks retry in
    /// ticket order.
    ticket: Option<u64>,
}

/// Bookkeeping for tasks the (start) rule refused. The tasks themselves
/// sit on the wait list of the [`DataItemManager`](crate::DataItemManager)
/// holding what blocks them; a release there hands them back and they
/// collect in `woken` until the retry tick (see [`schedule_wakeups`]).
#[derive(Default)]
struct Wakeups {
    next_ticket: u64,
    /// Tasks currently on some locality's wait list.
    waiting: usize,
    /// Tasks a release handed back, not yet retried.
    woken: Vec<TaskId>,
    /// Whether the retry tick is scheduled.
    tick_armed: bool,
}

struct ParentRecord {
    loc: usize,
    pending: usize,
    results: Vec<Option<TaskValue>>,
    combine: Box<dyn FnOnce(Vec<TaskValue>) -> TaskValue>,
    parent: Option<(TaskId, usize)>,
    result_bytes: usize,
}

#[derive(Default)]
pub(super) struct TaskTable {
    inflight: TaskMap<Inflight>,
    parents: TaskMap<ParentRecord>,
    wakeups: Wakeups,
    next_task: u64,
}

impl TaskTable {
    pub(super) fn next_id(&mut self) -> TaskId {
        let tid = TaskId(self.next_task);
        self.next_task += 1;
        tid
    }

    pub(super) fn admit(
        &mut self,
        tid: TaskId,
        loc: usize,
        wi: Box<dyn WorkItem>,
        parent: Option<(TaskId, usize)>,
        reqs: Vec<Requirement>,
    ) {
        self.inflight.insert(
            tid,
            Inflight {
                loc,
                wi: Some(wi),
                parent,
                reqs,
                replicas: Vec::new(),
                pending_transfers: 0,
                pending_done: None,
                ticket: None,
            },
        );
    }

    #[inline]
    pub(super) fn get_mut(&mut self, tid: TaskId) -> &mut Inflight {
        self.inflight.get_mut(tid).expect("task in flight")
    }

    pub(super) fn remove(&mut self, tid: TaskId) {
        self.inflight.remove(tid);
    }

    /// Nothing in flight and no parent waiting: the run is complete.
    pub(super) fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.parents.is_empty()
    }
}

/// Discard the in-flight phase's bookkeeping — tasks, parents, wake-ups,
/// the DIM wait lists they sat on and the per-locality load counts; the
/// events that would have advanced them are disarmed by the epoch bump.
pub(super) fn reset_for_recovery(w: &mut RtWorld) {
    w.tasks.inflight.clear();
    w.tasks.parents.clear();
    w.tasks.wakeups = Wakeups::default();
    for l in w.localities.iter_mut() {
        l.dim.forget_waiters();
    }
    w.load.fill(0);
}

/// The panic message of a run whose event queue drained with work left:
/// the three counts, then up to 8 parked tasks with what each waits on
/// and who currently holds it, so a missed wake-up (a waiter whose
/// holders list is empty) is diagnosable from the message alone.
pub(super) fn deadlock_report(w: &RtWorld) -> String {
    use std::fmt::Write;
    const SHOWN: usize = 8;
    let t = &w.tasks;
    let mut out = format!(
        "runtime deadlock: {} tasks in flight, {} parents pending, {} parked ({} woken but never retried)",
        t.inflight.len(),
        t.parents.len(),
        t.wakeups.waiting,
        t.wakeups.woken.len()
    );
    let waiters = w
        .localities
        .iter()
        .flat_map(|l| l.dim.waiters().map(|(i, t, r)| (&l.dim, i, t, r)));
    for (dim, item, task, region) in waiters.take(SHOWN) {
        let (at, holders) = (dim.locality(), dim.holders(item, region));
        let _ = write!(
            out,
            "\n  {task:?} -> (locality {at}, {item:?}, {region:?}) held by {holders:?}"
        );
    }
    if t.wakeups.waiting > SHOWN {
        let _ = write!(out, "\n  ... and {} more", t.wakeups.waiting - SHOWN);
    }
    out
}

// ----------------------------------------------------------------- wake-ups

/// Park `tid` (resident at `loc`) on the wait list of what refused it.
/// Counted once per refusal: the first park plus each re-park after a
/// wake-up that found the task still (or newly) blocked.
pub(super) fn park(sim: &mut RtSim, tid: TaskId, loc: usize, on: Blocker) {
    let now = sim.now();
    let w = &mut sim.world;
    w.monitor.per_locality[loc].lock_conflicts += 1;
    let t = &mut w.tasks;
    let inf = t.inflight.get_mut(tid).expect("task in flight");
    if inf.ticket.is_none() {
        inf.ticket = Some(t.wakeups.next_ticket);
        t.wakeups.next_ticket += 1;
    }
    t.wakeups.waiting += 1;
    w.localities[on.locality]
        .dim
        .enqueue_waiter(on.item, tid, on.region);
    trace_instant(w, now, loc, EventKind::TaskParked { task: tid.0 });
}

/// Collect tasks a DIM release handed back; they retry at the next tick.
#[inline]
pub(super) fn wake(w: &mut RtWorld, woken: Vec<TaskId>) {
    w.tasks.wakeups.waiting -= woken.len();
    w.tasks.wakeups.woken.extend(woken);
}

/// Arm the retry tick: 1 ns after a completion (or an export release
/// reaching its owner), every task woken by then retries its preparation
/// in ticket order, unbilled. The tick is armed whenever any task is
/// waiting, woken or not, so the event sequence does not depend on who
/// happens to be woken.
pub(super) fn schedule_wakeups(sim: &mut RtSim) {
    let q = &mut sim.world.tasks.wakeups;
    if q.tick_armed || (q.waiting == 0 && q.woken.is_empty()) {
        return;
    }
    q.tick_armed = true;
    let at = sim.now() + SimDuration::from_nanos(1);
    schedule_task_event(sim, at, |sim| {
        let t = &mut sim.world.tasks;
        t.wakeups.tick_armed = false;
        let mut woken = std::mem::take(&mut t.wakeups.woken);
        woken.sort_by_cached_key(|&tid| t.inflight.get(tid).expect("task in flight").ticket);
        for tid in woken {
            exec::prepare_task(sim, tid);
        }
    });
}

// --------------------------------------------------------------- completion

/// Task `tid` at `loc` decomposed: record it as a parent and assign its
/// children from here. Returns `false` when there were none — the task
/// then completes on the spot with its combiner's value of nothing.
pub(super) fn spawn_children(
    sim: &mut RtSim,
    loc: usize,
    tid: TaskId,
    parent: Option<(TaskId, usize)>,
    SplitOutcome { children, combine }: SplitOutcome,
    result_bytes: usize,
) -> bool {
    if children.is_empty() {
        finish_task(sim, loc, tid, parent, combine(Vec::new()));
        return false;
    }
    sim.world.tasks.parents.insert(
        tid,
        ParentRecord {
            loc,
            pending: children.len(),
            results: children.iter().map(|_| None).collect(),
            combine,
            parent,
            result_bytes,
        },
    );
    for (i, child) in children.into_iter().enumerate() {
        sched::assign_task(sim, loc, child, Some((tid, i)));
    }
    true
}

/// Task `tid` produced `value` at `loc`: hand it to the parent (a billed
/// result message when the parent lives elsewhere), or — for a root —
/// close the serving request or the phase it was the root of.
pub(super) fn finish_task(
    sim: &mut RtSim,
    loc: usize,
    tid: TaskId,
    parent: Option<(TaskId, usize)>,
    value: TaskValue,
) {
    trace_instant(
        &sim.world,
        sim.now(),
        loc,
        EventKind::TaskEnd {
            task: tid.0,
            parent: parent.map(|(p, _)| p.0),
        },
    );
    let Some((ptid, idx)) = parent else {
        if !serving::root_done(sim, tid) {
            phases::advance_phase(sim, value);
        }
        return;
    };
    let p = sim.world.tasks.parents.get(ptid).expect("parent record");
    let (p_loc, bytes) = (p.loc, p.result_bytes);
    // A lost result message orphans the parent; the phase stalls until
    // the failure detector triggers recovery.
    let tag = Payload::task(TransferPurpose::Result, tid);
    deliver(sim, loc, p_loc, bytes, tag, false, move |sim, arrived| {
        if arrived {
            child_done(sim, ptid, idx, value);
        }
    });
}

/// Child `idx` of `ptid` reported `value`; the last one to report fires
/// the combiner and finishes the parent in turn.
fn child_done(sim: &mut RtSim, ptid: TaskId, idx: usize, value: TaskValue) {
    let parents = &mut sim.world.tasks.parents;
    let p = parents.get_mut(ptid).expect("parent record");
    p.results[idx] = Some(value);
    p.pending -= 1;
    if p.pending > 0 {
        return;
    }
    let p = parents.remove(ptid).expect("parent record");
    let values: Vec<TaskValue> = p
        .results
        .into_iter()
        .map(|r| r.expect("all children reported"))
        .collect();
    let combined = (p.combine)(values);
    finish_task(sim, p.loc, ptid, p.parent, combined);
}
