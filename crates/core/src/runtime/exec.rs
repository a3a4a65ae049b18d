//! The life of a process task at its execution locality: take its locks,
//! plan and stage the data it is missing, run its body, release.

use allscale_des::{SimDuration, SimTime};
use allscale_trace::{EventKind, TransferPurpose};

use super::comms::{bill_hops, open_payload, seal_payloads, send_deferred, Payload, Wire};
use super::directory::{index_resolve, index_update};
use super::tasks::{park, schedule_wakeups, wake};
use super::{sched, schedule_task_event, serving, tasks, trace_core_span, trace_instant};
use super::{RtSim, RtWorld};
use crate::dim::{Blocker, DataItemManager, LockConflict};
use crate::dynamic::DynRegion;
use crate::index::{covered_by, union_of};
use crate::task::{AccessMode, Done, ItemId, Requirement, TaskCtx, TaskId};

// ------------------------------------------------------------- preparation

/// How a missing region reaches the task: ownership moves (writes) or a
/// read replica is imported.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fetch {
    Migrate,
    Replicate,
}

/// One step of a staging plan: bring `region` of `item` in from `src`,
/// or — `fetch: None` — first-touch it into existence right here.
struct Move {
    fetch: Option<Fetch>,
    item: ItemId,
    region: Box<dyn DynRegion>,
    src: usize,
}

/// Acquire locks and stage data for a process task; parks on conflict.
pub(super) fn prepare_task(sim: &mut RtSim, tid: TaskId) {
    let now = sim.now();
    // The requirements leave the inflight record for the duration of
    // the two borrowing steps, so neither clones a region.
    let inf = sim.world.tasks.get_mut(tid);
    let (loc, reqs) = (inf.loc, std::mem::take(&mut inf.reqs));
    let staged = lock_and_plan(&mut sim.world, now, tid, loc, &reqs);
    sim.world.tasks.get_mut(tid).reqs = reqs;
    let plan = match staged {
        Ok(plan) => plan,
        Err(on) => {
            if serving::unfence_writes(&mut sim.world, now, tid) {
                return prepare_task(sim, tid);
            }
            return park(sim, tid, loc, on);
        }
    };

    // 3. Apply the plan. `pending_transfers` is committed before any
    // send: a transfer that is lost must strand the task (never let it
    // run without its data), so the phase stalls until recovery reaps it.
    let pending = plan.iter().filter(|mv| mv.fetch.is_some()).count();
    sim.world.tasks.get_mut(tid).pending_transfers = pending;
    // Most tasks find their data where they were sent and fetch nothing.
    let mut wires = match pending {
        0 => Vec::new(),
        _ => export_fetches(&mut sim.world, tid, loc, &plan),
    }
    .into_iter();
    for mv in plan {
        match mv.fetch {
            Some(kind) => {
                let wire = wires.next().expect("one payload per fetch");
                fetch(sim, tid, loc, kind, mv, wire)
            }
            None => first_touch(&mut sim.world, now, tid, loc, mv.item, mv.region.as_ref()),
        }
    }
    if pending == 0 {
        start_execution(sim, tid);
    }
}

/// Export what `plan` fetches, in plan order, and seal it for the wire.
/// Export (and fence) happens at plan time, before any request goes out:
/// a source must be fenced before any other plan can run during a batching
/// window, or two tasks could stage overlapping migrations of the same
/// region. Exporting the whole plan first also puts its payloads side by
/// side, so their checksums are computed abreast.
fn export_fetches(w: &mut RtWorld, tid: TaskId, loc: usize, plan: &[Move]) -> Vec<Wire> {
    let exported = plan.iter().filter_map(|mv| {
        let sdim = &mut w.localities[mv.src].dim;
        Some(match mv.fetch? {
            Fetch::Migrate => sdim.export_migration(mv.item, mv.region.as_ref()),
            Fetch::Replicate => sdim.export_replica(mv.item, mv.region.as_ref(), loc, tid),
        })
    });
    let exported = exported.collect();
    seal_payloads(w, exported)
}

/// Allocate `region` of `item`, which exists nowhere yet, at `loc` and
/// advertise it.
fn first_touch(
    w: &mut RtWorld,
    now: SimTime,
    tid: TaskId,
    loc: usize,
    item: ItemId,
    region: &dyn DynRegion,
) {
    w.localities[loc].dim.init_owned(item, region);
    let owned = w.localities[loc].dim.advertised_region(item);
    let hops = index_update(w, now, item, loc, owned);
    bill_hops(w, now, &hops, Some(item));
    w.monitor.per_locality[loc].first_touch += 1;
    let kind = EventKind::FirstTouch {
        item: item.0,
        task: tid.0,
    };
    trace_instant(w, now, loc, kind);
}

/// Stage the fetch `mv` for `tid` at `loc`: `bytes` is what the source
/// just exported; a control request goes there and the payload comes
/// back, each a runtime message; the landing imports the data and counts
/// the transfer done. A lost leg strands the task (and what was exported
/// for it) until recovery.
fn fetch(sim: &mut RtSim, tid: TaskId, loc: usize, kind: Fetch, mv: Move, bytes: Wire) {
    let Move {
        item, region, src, ..
    } = mv;
    let now = sim.now();
    let w = &mut sim.world;
    let purpose = match kind {
        Fetch::Migrate => {
            let src_owned = w.localities[src].dim.advertised_region(item);
            let hops = index_update(w, now, item, src, src_owned);
            bill_hops(w, now, &hops, Some(item));
            // Advertise the destination in the index immediately and
            // fence the region as in-flight. Between the source giving
            // the region up and the transfer landing, the region must
            // still resolve to *someone* — a planner finding no owner
            // would first-touch a second primary into existence (and a
            // later migration would serve its default-initialized copy,
            // silently dropping every write committed to the real one).
            // The fence makes the advertised owner refuse to serve the
            // region until the data actually arrives.
            w.localities[loc]
                .dim
                .fence_inbound(item, tid, region.as_ref());
            let dst_adv = w.localities[loc].dim.advertised_region(item);
            let hops = index_update(w, now, item, loc, dst_adv);
            bill_hops(w, now, &hops, Some(item));
            TransferPurpose::Migrate
        }
        Fetch::Replicate => TransferPurpose::Replicate,
    };
    let ctrl = w.cost.control_msg_bytes;
    let req_tag = Payload::data(TransferPurpose::Control, Some(tid), item);
    send_deferred(sim, loc, src, ctrl, req_tag, move |sim, arr| {
        if arr.is_none() {
            return;
        }
        let tag = Payload::data(purpose, Some(tid), item);
        send_deferred(sim, src, loc, bytes.len(), tag, move |sim, arr| {
            let Some(d) = arr else {
                return;
            };
            let t = sim.now();
            let w = &mut sim.world;
            let data = open_payload(w, &bytes, d.intact);
            // The task may have been stolen since it planned.
            let home = w.tasks.get_mut(tid).loc;
            match kind {
                Fetch::Migrate => {
                    w.localities[home].dim.import_owned(item, &data);
                    let woken = w.localities[loc]
                        .dim
                        .release_inbound(item, tid, region.as_ref());
                    wake(w, woken);
                    let owned = w.localities[home].dim.advertised_region(item);
                    let hops = index_update(w, t, item, home, owned);
                    bill_hops(w, t, &hops, Some(item));
                    w.monitor.per_locality[home].migrations_in += 1;
                }
                Fetch::Replicate => {
                    w.localities[home].dim.import_replica(item, &data, tid);
                    w.monitor.per_locality[home].replicas_in += 1;
                    w.tasks.get_mut(tid).replicas.push((item, src));
                }
            }
            let inf = w.tasks.get_mut(tid);
            inf.pending_transfers -= 1;
            if inf.pending_transfers == 0 {
                start_execution(sim, tid);
            }
        });
    });
}

/// Steps 1–2 of preparation: take `reqs`' locks at `loc` (atomically),
/// then plan the transfers. A plan that finds a source fenced backs the
/// locks out again; either refusal names what the task has to wait for.
fn lock_and_plan(
    w: &mut RtWorld,
    now: SimTime,
    tid: TaskId,
    loc: usize,
    reqs: &[Requirement],
) -> Result<Vec<Move>, Blocker> {
    w.localities[loc]
        .dim
        .try_lock(tid, reqs)
        .map_err(LockConflict::into_blocker)?;
    let plan = plan_transfers(w, now, loc, reqs);
    if plan.is_err() {
        w.localities[loc].dim.abort_locks(tid);
    }
    plan
}

/// Whether `src` must refuse to give `piece` of `item` up right now.
/// Migration requires an unfenced source, replication a write-unlocked
/// one; either way the source must actually hold the data (not still be
/// awaiting an inbound migration of it).
fn source_fenced(src: &DataItemManager, kind: Fetch, item: ItemId, piece: &dyn DynRegion) -> bool {
    let busy = match kind {
        Fetch::Migrate => src.locked_any(item, piece) || src.exported(item, piece),
        Fetch::Replicate => src.write_locked(item, piece),
    };
    busy || src.inbound_fenced(item, piece)
}

/// Compute the data movements needed to satisfy `reqs` at `loc`. Errors
/// with the fenced source when one is behind locks, exports or an
/// inbound-migration fence.
fn plan_transfers(
    w: &mut RtWorld,
    now: SimTime,
    loc: usize,
    reqs: &[Requirement],
) -> Result<Vec<Move>, Blocker> {
    let mut plan = Vec::new();
    for req in reqs {
        let (item, region) = (req.item, req.region.as_ref());
        let blocked_at = |locality: usize, region: Box<dyn DynRegion>| Blocker {
            locality,
            item,
            region,
        };
        // A write needs the region owned here, a read needs it readable
        // here (owned or replicated). Nearly every requirement is met
        // where its task was sent, so that is asked first and the missing
        // part is built only when there is one.
        let dim = &w.localities[loc].dim;
        let (kind, missing) = match req.mode {
            AccessMode::Write if region.is_subset_dyn(dim.owned_region(item)) => continue,
            AccessMode::Read if dim.covers_stable(item, region) => continue,
            AccessMode::Write => (
                Fetch::Migrate,
                region.difference_dyn(dim.owned_region(item)),
            ),
            AccessMode::Read => (
                Fetch::Replicate,
                region.difference_dyn(dim.read_base(item).as_ref()),
            ),
        };
        // Another task's migration is already landing this data here:
        // park until the fence lifts, never plan against (first-touch
        // over, or replicate a stale copy of) data still on the wire.
        if dim.inbound_fenced(item, missing.as_ref()) {
            return Err(blocked_at(loc, missing));
        }
        let (pieces, _hops) = index_resolve(w, now, item, loc, missing.as_ref());
        for (piece, src) in pieces.iter() {
            // `src == loc`: the index says we own it; treat as present.
            if *src == loc {
                continue;
            }
            if source_fenced(&w.localities[*src].dim, kind, item, piece.as_ref()) {
                return Err(blocked_at(*src, piece.clone_box()));
            }
            plan.push(Move {
                fetch: Some(kind),
                item,
                region: piece.clone_box(),
                src: *src,
            });
        }
        if !covered_by(missing.as_ref(), &pieces) {
            // Data that exists nowhere: first-touch it (default values
            // for a read, mirroring lazy initialization).
            let nowhere = match union_of(&pieces) {
                Some(found) => missing.difference_dyn(found.as_ref()),
                None => missing,
            };
            plan.push(Move {
                fetch: None,
                item,
                region: nowhere,
                src: loc,
            });
        }
    }
    if w.comms.batching_on() {
        coalesce_moves(&mut plan);
    }
    Ok(plan)
}

/// Region-level coalescing: merge transfers of the same kind and item
/// from the same source into one move carrying the union region, so a
/// staging plan puts one large transfer on the wire instead of many
/// cell-sized ones. First-occurrence order is preserved; first-touch
/// allocations are local and pass through untouched.
fn coalesce_moves(plan: &mut Vec<Move>) {
    let mut merged: Vec<Move> = Vec::with_capacity(plan.len());
    for mv in plan.drain(..) {
        let key = (mv.fetch, mv.item, mv.src);
        let same = |m: &&mut Move| mv.fetch.is_some() && (m.fetch, m.item, m.src) == key;
        match merged.iter_mut().find(same) {
            Some(m) => m.region = m.region.union_dyn(mv.region.as_ref()),
            None => merged.push(mv),
        }
    }
    *plan = merged;
}

// ---------------------------------------------------------------- execution

fn start_execution(sim: &mut RtSim, tid: TaskId) {
    let w = &mut sim.world;
    // Run the real task body now (its effects are fenced by the held
    // locks), then occupy a core for its declared + charged duration; the
    // completion — lock release, replica drop, result propagation — fires
    // when the core time elapses.
    let inf = w.tasks.get_mut(tid);
    let loc = inf.loc;
    let wi = inf.wi.take().expect("work item present");
    let declared = wi.cost(&w.cost, loc);
    let result_bytes = wi.result_bytes();
    let mut ctx = TaskCtx {
        locality: loc,
        dim: &mut w.localities[loc].dim,
        charged: SimDuration::ZERO,
    };
    let done = wi.process(&mut ctx);
    let charged = ctx.charged;
    w.tasks.get_mut(tid).pending_done = Some((done, result_bytes));
    let speed = w.cost.speed(loc);
    let charged = SimDuration::from_nanos_f64(charged.as_nanos() as f64 / speed);
    let dur = declared + charged + w.cost.task_overhead(loc);
    let now = sim.now();
    let w = &mut sim.world;
    let (core, start, end) = w.localities[loc].cores.acquire_indexed(now, dur);
    w.monitor.per_locality[loc].busy_ns += dur.as_nanos();
    w.monitor.task_durations.record(dur.as_nanos());
    trace_core_span(
        w,
        start,
        end - start,
        loc,
        core,
        EventKind::TaskExec { task: tid.0 },
    );
    schedule_task_event(sim, end, move |sim| finish_execution(sim, tid));
}

fn finish_execution(sim: &mut RtSim, tid: TaskId) {
    let inf = sim.world.tasks.get_mut(tid);
    let loc = inf.loc;
    let (done, result_bytes) = inf.pending_done.take().expect("process ran");
    let parent = inf.parent;
    let replicas = std::mem::take(&mut inf.replicas);
    sim.world.monitor.per_locality[loc].tasks_executed += 1;

    // Release locks (model rule (end)) and drop imported replicas
    // (runtime replica removal), notifying owners so write fences lift.
    let woken = sim.world.localities[loc].dim.unlock_all(tid);
    wake(&mut sim.world, woken);
    let mut dropped_items: Vec<ItemId> = Vec::new();
    for (item, owner) in replicas {
        if !dropped_items.contains(&item) {
            sim.world.localities[loc].dim.drop_replica_holds(item, tid);
            dropped_items.push(item);
        }
        let bytes = sim.world.cost.control_msg_bytes;
        let tag = Payload::data(TransferPurpose::Control, Some(tid), item);
        send_deferred(sim, loc, owner, bytes, tag, move |sim, arr| {
            if arr.is_none() {
                // A lost release leaves the owner's export fence
                // standing; any writer it blocks stays parked until
                // recovery clears the slate.
                return;
            }
            let woken = sim.world.localities[owner]
                .dim
                .release_exports_of(item, tid);
            wake(&mut sim.world, woken);
            schedule_wakeups(sim);
        });
    }
    sim.world.tasks.remove(tid);
    sim.world.load[loc] -= 1;
    sched::slot_freed(sim, loc);

    match done {
        Done::Value(v) => tasks::finish_task(sim, loc, tid, parent, v),
        Done::Children(outcome) => {
            if !tasks::spawn_children(sim, loc, tid, parent, outcome, result_bytes) {
                return;
            }
        }
    }
    schedule_wakeups(sim);
}
