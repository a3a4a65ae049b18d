//! Request serving: the open-loop arrival stream of a serving phase, the
//! write invalidation that keeps replicated shards coherent, and the SLO
//! controller that replicates hot shards, sheds reads and retires cold
//! replica sets.

use allscale_des::{LogHistogram, SimTime};
use allscale_trace::{EventKind, TransferPurpose};

use super::comms::{send_msg, Payload};
use super::tasks::wake;
use super::{ctx, phases, sched, schedule_task_event, trace_instant, trace_span};
use super::{RtSim, RtWorld};
use crate::dynamic::DynRegion;
use crate::slo::{PendingReq, ServeSession, ServeSpec, MIN_WINDOW};
use crate::task::{AccessMode, ItemId, TaskId};

#[derive(Default)]
pub(super) struct Serving {
    /// A serving phase registered by the driver via
    /// [`RtCtx::serve`](super::RtCtx::serve), consumed at the next phase
    /// boundary.
    pending: Option<ServeSpec>,
    /// The live serving phase, if one is running.
    session: Option<ServeSession>,
}

impl Serving {
    pub(super) fn register(&mut self, spec: ServeSpec) {
        assert!(
            self.pending.is_none(),
            "one serving phase may be registered per boundary"
        );
        self.pending = Some(spec);
    }

    pub(super) fn take_registered(&mut self) -> Option<ServeSpec> {
        self.pending.take()
    }

    /// An in-flight serving phase is abandoned wholesale (its arrivals,
    /// completions and controller ticks are epoch-disarmed). The replayed
    /// driver re-registers the spec with the same seeds, so the identical
    /// request stream replays from the restored boundary — acknowledged
    /// writes are re-applied, none are lost.
    pub(super) fn reset_for_recovery(&mut self) {
        *self = Serving::default();
    }
}

/// Begin the serving phase registered by the driver: install the session
/// and schedule the first open-loop arrival and the first controller
/// tick. Both chains are epoch-guarded, so a recovery mid-phase disarms
/// them wholesale and the replayed driver restarts the stream.
pub(super) fn start(sim: &mut RtSim, spec: ServeSpec) {
    let now = sim.now();
    let shards = spec.shard_regions.len();
    let mut session = ServeSession::new(spec, now);
    // Replays accumulate into the same per-shard histograms (like
    // `tasks_reexecuted`); only (re)size them on shard-count change.
    if sim.world.monitor.serve.per_shard.len() != shards {
        sim.world.monitor.serve.per_shard = vec![LogHistogram::new(); shards];
    }
    let first = session.gen.next_gap();
    let period = session.spec.slo.control_period;
    sim.world.serving.session = Some(session);
    schedule_task_event(sim, now + first, serve_arrival);
    schedule_task_event(sim, now + period, slo_tick);
}

/// One open-loop arrival: build the request, admit or shed it, and
/// schedule the next arrival — on the virtual clock, independent of any
/// completion. This independence is what makes saturation observable:
/// past the capacity knee, in-flight requests pile up and tail latency
/// diverges instead of the arrival rate slowing down.
fn serve_arrival(sim: &mut RtSim) {
    let now = sim.now();
    let Some(mut session) = sim.world.serving.session.take() else {
        return;
    };
    let req = session.next_req;
    session.next_req += 1;
    let request = (session.spec.factory)(req);
    let shard = request.shard;
    assert!(
        shard < session.spec.shard_regions.len(),
        "request factory produced shard {shard} of {}",
        session.spec.shard_regions.len()
    );
    let nodes = sim.world.localities.len();
    // Frontends take turns admitting requests (a round-robin load
    // balancer in front of the cluster), skipping dead localities.
    let frontend = sim
        .world
        .recovery
        .live_target((req % nodes as u64) as usize);
    {
        let m = &mut sim.world.monitor.serve;
        m.offered += 1;
        if request.write {
            m.writes += 1;
        } else {
            m.reads += 1;
        }
    }
    trace_instant(
        &sim.world,
        now,
        frontend,
        EventKind::RequestArrival {
            req,
            shard: shard as u32,
            write: request.write,
        },
    );
    if !request.write && session.spec.slo.shed_overload && session.shedding[shard] {
        // Load shedding applies to reads only — a shed write would be a
        // lost acknowledged update.
        sim.world.monitor.serve.shed += 1;
        trace_instant(
            &sim.world,
            now,
            frontend,
            EventKind::RequestShed {
                req,
                shard: shard as u32,
            },
        );
    } else {
        if request.write && session.replicated[shard] {
            // A write to a replicated shard first invalidates the
            // written region everywhere, lifting the broadcast's write
            // fences region-precisely; untouched replicas keep serving
            // reads.
            let mut any = false;
            for r in request.work.requirements() {
                if r.mode == AccessMode::Write {
                    any |= invalidate_persistent(&mut sim.world, now, r.item, r.region.as_ref());
                }
            }
            if any {
                sim.world.monitor.serve.invalidations += 1;
                session.eroded[shard] = true;
            }
        }
        sim.world.monitor.serve.admitted += 1;
        let tid = sched::assign_task(sim, frontend, request.work, None);
        trace_instant(
            &sim.world,
            now,
            frontend,
            EventKind::RequestAdmit { req, task: tid.0 },
        );
        session.roots.insert(
            tid,
            PendingReq {
                req,
                shard,
                write: request.write,
                arrival: now,
                frontend,
            },
        );
    }
    if session.next_req < session.spec.max_requests {
        let gap = session.gen.next_gap();
        sim.world.serving.session = Some(session);
        schedule_task_event(sim, now + gap, serve_arrival);
    } else {
        session.arrivals_done = true;
        sim.world.serving.session = Some(session);
        maybe_finish(sim);
    }
}

/// Release the persistent export fences overlapping `region` of `item`
/// at every live exporter and drop the matching persistent replicas at
/// every live holder, each notified by a billed control message (the
/// invalidation fan-out). Returns whether any replica state was touched.
/// Like driver-initiated migration, the bookkeeping is synchronous and
/// the messages only bill the traffic.
fn invalidate_persistent(
    w: &mut RtWorld,
    now: SimTime,
    item: ItemId,
    region: &dyn DynRegion,
) -> bool {
    let nodes = w.localities.len();
    let mut any = false;
    for p in 0..nodes {
        if w.recovery.dead()[p] {
            continue;
        }
        let fenced = w.localities[p].dim.persistent_export_region(item);
        if fenced.is_disjoint_dyn(region) {
            continue;
        }
        let overlap = fenced.intersect_dyn(region);
        any = true;
        let woken = w.localities[p]
            .dim
            .release_persistent_exports(item, overlap.as_ref());
        wake(w, woken);
        for q in 0..nodes {
            if q == p || w.recovery.dead()[q] {
                continue;
            }
            w.localities[q]
                .dim
                .drop_persistent_region(item, overlap.as_ref());
            let bytes = w.cost.control_msg_bytes;
            let tag = Payload::data(TransferPurpose::Control, None, item);
            let _ = send_msg(w, now, p, q, bytes, tag, false);
        }
    }
    any
}

/// Lock-time write invalidation: a task writing the served item that
/// finds part of its region behind a broadcast write fence invalidates
/// the fenced part everywhere instead of parking forever. The fence may
/// postdate the request's admission — the SLO controller broadcasts a
/// hot shard while earlier writes are still queued, and admission-time
/// invalidation only lifts fences that already exist. Returns whether
/// any fence was lifted (the caller then retries lock acquisition).
pub(super) fn unfence_writes(w: &mut RtWorld, now: SimTime, tid: TaskId) -> bool {
    let Some(item) = w.serving.session.as_ref().map(|s| s.spec.item) else {
        return false;
    };
    let reqs = &w.tasks.get_mut(tid).reqs;
    let writes: Vec<Box<dyn DynRegion>> = reqs
        .iter()
        .filter(|r| r.item == item && r.mode == AccessMode::Write)
        .map(|r| r.region.clone_box())
        .collect();
    let mut any = false;
    for region in &writes {
        any |= invalidate_persistent(w, now, item, region.as_ref());
    }
    if let (true, Some(session)) = (any, w.serving.session.as_mut()) {
        w.monitor.serve.invalidations += 1;
        for s in 0..session.spec.shard_regions.len() {
            let shard = session.spec.shard_regions[s].as_ref();
            let hit = |r: &dyn DynRegion| !shard.is_disjoint_dyn(r);
            if session.replicated[s] && writes.iter().any(|r| hit(r.as_ref())) {
                session.eroded[s] = true;
            }
        }
    }
    any
}

/// Account a completed request root: record its end-to-end latency,
/// emit the request span, and wind the phase down once the stream is
/// drained. Returns false when `tid` is not a serving request (the
/// caller then treats it as a phase root).
pub(super) fn root_done(sim: &mut RtSim, tid: TaskId) -> bool {
    let now = sim.now();
    let Some(session) = sim.world.serving.session.as_mut() else {
        return false;
    };
    let Some(p) = session.roots.remove(tid) else {
        return false;
    };
    let lat = now - p.arrival;
    session.window[p.shard].record(lat.as_nanos());
    let m = &mut sim.world.monitor.serve;
    m.completed += 1;
    m.latency.record(lat.as_nanos());
    m.per_shard[p.shard].record(lat.as_nanos());
    trace_span(
        &sim.world,
        p.arrival,
        lat,
        p.frontend,
        EventKind::Request {
            req: p.req,
            shard: p.shard as u32,
            write: p.write,
        },
    );
    maybe_finish(sim);
    true
}

/// End the serving phase once all arrivals are injected and all admitted
/// trees completed, then hand control back to the phase driver.
fn maybe_finish(sim: &mut RtSim) {
    let Some(session) = sim.world.serving.session.take_if(|s| s.finished()) else {
        return;
    };
    let now = sim.now();
    // Accumulates across a mid-phase recovery's replay, like the other
    // re-execution counters — deterministic either way.
    sim.world.monitor.serve.serve_ns += (now - session.started).as_nanos();
    phases::advance_phase(sim, None);
}

/// One SLO controller round: every live locality reports its shard
/// latency windows to the controller host (billed control messages), and
/// the controller acts on each shard — replicating hot ones, arming read
/// shedding, retiring replica sets that stayed cold — then rearms.
fn slo_tick(sim: &mut RtSim) {
    let Some(mut session) = sim.world.serving.session.take() else {
        return; // phase over: stop rearming, let the queue drain
    };
    let now = sim.now();
    let w = &mut sim.world;
    let host = w.recovery.detector_host();
    for p in 0..w.localities.len() {
        if p != host && !w.recovery.dead()[p] {
            let bytes = w.cost.control_msg_bytes;
            let _ = send_msg(w, now, p, host, bytes, Payload::CONTROL, false);
        }
    }
    let (spec, slo) = (&session.spec, &session.spec.slo);
    for s in 0..spec.shard_regions.len() {
        let count = session.window[s].tally().count();
        let p99 = session.window[s].p99();
        let hot = count >= MIN_WINDOW && p99 > slo.p99_slo_ns;
        if hot {
            w.monitor.serve.slo_violations += 1;
        }
        session.shedding[s] = hot && slo.shed_overload;
        if hot && slo.replicate_hot && (!session.replicated[s] || session.eroded[s]) {
            replicate_shard(w, now, spec, s, p99);
            session.replicated[s] = true;
            session.eroded[s] = false;
            session.cold_streak[s] = 0;
        } else if session.replicated[s] {
            if count <= slo.cold_window {
                session.cold_streak[s] += 1;
            } else {
                session.cold_streak[s] = 0;
            }
            if slo.retire_cold && session.cold_streak[s] >= slo.cold_periods {
                retire_shard(w, now, spec, s);
                session.replicated[s] = false;
                session.eroded[s] = false;
                session.cold_streak[s] = 0;
            }
        }
        session.window[s] = LogHistogram::new();
    }
    let period = slo.control_period;
    w.serving.session = Some(session);
    schedule_task_event(sim, now + period, slo_tick);
}

/// Broadcast-replicate a hot shard from its owner to every live
/// locality: reads then run node-locally at whichever frontend admitted
/// them, which is what relieves the owner past the saturation knee.
fn replicate_shard(w: &mut RtWorld, now: SimTime, spec: &ServeSpec, s: usize, p99: u64) {
    let item = spec.item;
    let region = spec.shard_regions[s].as_ref();
    // The broadcast exports from the shard's single owner; under the
    // ring-successor graft ownership stays whole, but a shard somehow
    // fragmented across owners is simply skipped this round.
    let owner = (0..w.localities.len()).find(|&p| {
        !w.recovery.dead()[p] && region.is_subset_dyn(w.localities[p].dim.owned_region(item))
    });
    let Some(owner) = owner else {
        return;
    };
    ctx::broadcast_replicate(w, now, item, owner, region);
    w.monitor.serve.replications += 1;
    trace_instant(
        w,
        now,
        owner,
        EventKind::SloReplicate {
            shard: s as u32,
            p99_ns: p99,
        },
    );
}

/// Retire a cold shard's replica set: the broadcast's write fences lift
/// and every holder drops its replica, freeing writers and memory.
fn retire_shard(w: &mut RtWorld, now: SimTime, spec: &ServeSpec, s: usize) {
    invalidate_persistent(w, now, spec.item, spec.shard_regions[s].as_ref());
    w.monitor.serve.retirements += 1;
    let host = w.recovery.detector_host();
    trace_instant(w, now, host, EventKind::SloRetire { shard: s as u32 });
}
