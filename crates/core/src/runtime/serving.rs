//! Request serving behind [`crate::slo`]'s API: the open-loop arrival
//! stream of a serving phase, write invalidation, and the SLO controller.
//!
//! A periodic controller watches per-shard latency histograms. When a
//! shard's p99 over the last control period exceeds the SLO it
//! replicates the shard to every locality (reads then run node-locally
//! at whichever frontend admitted them), and optionally sheds read load
//! at admission while the shard remains hot. Replicas that stay cold
//! for several consecutive periods are retired. Writes are never shed;
//! a write to a replicated shard first invalidates the written region
//! everywhere so the single-writer discipline of the data-item manager
//! is preserved.

use allscale_des::{ArrivalGen, LogHistogram, SimTime};
use allscale_trace::EventKind;

use super::comms::{send_msg, Payload};
use super::events::{schedule, RtEvent};
use super::tasks::Place;
use super::{phases, replicas, sched, trace_instant, trace_span};
use super::{RtSim, RtWorld};
use crate::monitor::ServeStats;
use crate::slo::{ServeSpec, SloConfig};
use crate::task::{AccessMode, Requirement, TaskId};
use crate::task_map::TaskMap;

/// Minimum completed requests in a shard's window before its p99 is
/// trusted; smaller windows are too noisy to act on (a single straggler
/// would trigger a broadcast).
const MIN_WINDOW: u64 = 16;

#[derive(Default)]
pub(super) struct Serving {
    /// A serving phase registered by the driver via
    /// [`RtCtx::serve`](super::RtCtx::serve), consumed at the next phase
    /// boundary.
    pending: Option<ServeSpec>,
    /// The live serving phase, if one is running.
    session: Option<ServeSession>,
    /// The report's serving counters when the live session started.
    tallies: ServeStats,
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
    /// completions and controller ticks are epoch-disarmed) and its
    /// request tallies in `m` go back to the session's start. The replayed
    /// driver re-registers the spec with the same seeds, so the identical
    /// request stream replays from the restored boundary — acknowledged
    /// writes are re-applied, none are lost, and each request is counted
    /// once. Controller actions stay counted per attempt.
    pub(super) fn reset_for_recovery(&mut self, m: &mut ServeStats) {
        let Serving {
            session,
            tallies: t,
            ..
        } = std::mem::take(self);
        if session.is_some() {
            (m.offered, m.admitted, m.completed, m.shed) =
                (t.offered, t.admitted, t.completed, t.shed);
            (m.reads, m.writes, m.latency, m.per_shard) =
                (t.reads, t.writes, t.latency, t.per_shard);
        }
    }
}

/// Live state of the serving phase.
struct ServeSession {
    /// The serving phase the driver registered.
    spec: ServeSpec,
    /// Arrival-gap generator of `spec.arrivals`.
    gen: ArrivalGen,
    /// Next request sequence number.
    next_req: u64,
    /// Virtual time the phase started.
    started: SimTime,
    /// In-flight request roots, keyed by root task id.
    roots: TaskMap<PendingReq>,
    /// Whether all arrivals have been injected.
    arrivals_done: bool,
    /// The controller's books, indexed like `spec.shard_regions`.
    shards: Vec<Shard>,
}

/// A request admitted but not yet completed (its root task is in
/// flight).
struct PendingReq {
    /// Request sequence number.
    req: u64,
    /// Target shard.
    shard: usize,
    /// Write request?
    write: bool,
    /// Virtual arrival time (latency is measured from here).
    arrival: SimTime,
    /// The locality that admitted it (span attribution).
    frontend: usize,
}

/// The controller's books on one shard.
#[derive(Clone, Default)]
struct Shard {
    /// Latency window of the current control period.
    window: LogHistogram,
    /// What the controller decided at its last tick.
    state: ShardState,
}

/// The controller state of one shard between ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ShardState {
    /// Replicated everywhere.
    replicated: bool,
    /// Replicated, but a write invalidated part of the replicas since the
    /// last broadcast (re-replicated if still hot).
    eroded: bool,
    /// Read load is shed at admission.
    shedding: bool,
    /// Consecutive cold periods while replicated.
    cold_streak: u32,
}

/// What the controller does to a shard at a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    /// Nothing beyond the state change.
    Keep,
    /// Broadcast the shard: hot and not (or no longer fully) replicated.
    Replicate,
    /// Retire the shard's replica set: cold for `cold_periods` periods.
    Retire,
}

/// The controller's verdict on a shard at a tick: whether it ran hot, what
/// to do to it, and its state after.
type Verdict = (bool, Act, ShardState);

/// The controller rule for one shard at a tick, from the period's window
/// (`count` completions, their `p99`), the shard's state and the policy.
fn decide(count: u64, p99: u64, mut s: ShardState, slo: &SloConfig) -> Verdict {
    let hot = count >= MIN_WINDOW && p99 > slo.p99_slo_ns;
    s.shedding = hot && slo.shed_overload;
    if hot && slo.replicate_hot && (!s.replicated || s.eroded) {
        (s.replicated, s.eroded, s.cold_streak) = (true, false, 0);
        return (hot, Act::Replicate, s);
    }
    if s.replicated {
        let cold = count <= slo.cold_window;
        s.cold_streak = if cold { s.cold_streak + 1 } else { 0 };
        if slo.retire_cold && s.cold_streak >= slo.cold_periods {
            (s.replicated, s.eroded, s.cold_streak) = (false, false, 0);
            return (hot, Act::Retire, s);
        }
    }
    (hot, Act::Keep, s)
}

/// Begin the serving phase registered by the driver: install the session
/// and schedule the first open-loop arrival and the first controller
/// tick. Both chains are epoch-guarded, so a recovery mid-phase disarms
/// them wholesale and the replayed driver restarts the stream.
pub(super) fn start(sim: &mut RtSim, spec: ServeSpec) {
    let now = sim.now();
    let shards = spec.shard_regions.len();
    assert!(shards > 0, "a serving phase needs at least one shard");
    assert!(spec.max_requests > 0, "a serving phase needs requests");
    let mut session = ServeSession {
        gen: ArrivalGen::new(spec.arrivals.clone()),
        spec,
        next_req: 0,
        started: now,
        roots: TaskMap::default(),
        arrivals_done: false,
        shards: vec![Shard::default(); shards],
    };
    // Sessions accumulate into the same per-shard histograms; only
    // (re)size them on shard-count change.
    if sim.world.monitor.serve.per_shard.len() != shards {
        sim.world.monitor.serve.per_shard = vec![LogHistogram::new(); shards];
    }
    let first = session.gen.next_gap();
    let period = session.spec.slo.control_period;
    sim.world.serving.tallies = sim.world.monitor.serve.clone();
    sim.world.serving.session = Some(session);
    schedule(sim, now + first, RtEvent::ServeArrival);
    schedule(sim, now + period, RtEvent::SloTick);
}

/// One open-loop arrival: build the request, admit or shed it, and
/// schedule the next arrival — on the virtual clock, independent of any
/// completion. This independence is what makes saturation observable:
/// past the capacity knee, in-flight requests pile up and tail latency
/// diverges instead of the arrival rate slowing down.
pub(super) fn serve_arrival(sim: &mut RtSim) {
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
    let state = session.shards[shard].state;
    if !request.write && state.shedding {
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
        if request.write && state.replicated {
            // A write to a replicated shard first invalidates the
            // written region everywhere, lifting the broadcast's write
            // fences region-precisely; untouched replicas keep serving
            // reads.
            let reqs = request.work.requirements();
            invalidate_writes(&mut sim.world, now, &mut session, &reqs);
        }
        sim.world.monitor.serve.admitted += 1;
        let tid = sched::assign_task(sim, frontend, request.work, Place::ROOT);
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
        schedule(sim, now + gap, RtEvent::ServeArrival);
    } else {
        session.arrivals_done = true;
        sim.world.serving.session = Some(session);
        maybe_finish(sim);
    }
}

/// Invalidate the replicas under the served item's write requirements
/// among `reqs`, and mark every replicated shard they touch eroded — the
/// one place a shard erodes. Returns whether any replica was touched.
fn invalidate_writes(
    w: &mut RtWorld,
    now: SimTime,
    session: &mut ServeSession,
    reqs: &[Requirement],
) -> bool {
    let item = session.spec.item;
    let writes = || {
        reqs.iter()
            .filter(move |r| r.item == item && r.mode == AccessMode::Write)
    };
    let mut any = false;
    for r in writes() {
        any |= replicas::invalidate(w, now, item, r.region.as_ref());
    }
    if any {
        w.monitor.serve.invalidations += 1;
        for (shard, region) in session.shards.iter_mut().zip(&session.spec.shard_regions) {
            let hit = writes().any(|r| !region.is_disjoint_dyn(r.region.as_ref()));
            if shard.state.replicated && hit {
                shard.state.eroded = true;
            }
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
    let Some(mut session) = w.serving.session.take() else {
        return false;
    };
    // The requirements leave the inflight record while the invalidation
    // borrows the world, as in `exec::prepare_task`.
    let reqs = std::mem::take(&mut w.tasks.get_mut(tid).reqs);
    let any = invalidate_writes(w, now, &mut session, &reqs);
    w.tasks.get_mut(tid).reqs = reqs;
    w.serving.session = Some(session);
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
    session.shards[p.shard].window.record(lat.as_nanos());
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
    let finished = |s: &mut ServeSession| s.arrivals_done && s.roots.is_empty();
    let Some(session) = sim.world.serving.session.take_if(finished) else {
        return;
    };
    let now = sim.now();
    // Only a finished attempt adds its duration.
    sim.world.monitor.serve.serve_ns += (now - session.started).as_nanos();
    phases::advance_phase(sim, None);
}

/// One SLO controller round: every live locality reports its shard
/// latency windows to the controller host (billed control messages), and
/// the controller acts on each shard — replicating hot ones, arming read
/// shedding, retiring replica sets that stayed cold — then rearms.
pub(super) fn slo_tick(sim: &mut RtSim) {
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
    for (s, shard) in session.shards.iter_mut().enumerate() {
        let p99 = shard.window.p99();
        let (hot, act, state) = decide(shard.window.tally().count(), p99, shard.state, slo);
        if hot {
            w.monitor.serve.slo_violations += 1;
        }
        match act {
            Act::Keep => {}
            Act::Replicate => replicate_shard(w, now, spec, s, p99),
            Act::Retire => retire_shard(w, now, spec, s),
        }
        *shard = Shard {
            window: LogHistogram::new(),
            state,
        };
    }
    let period = slo.control_period;
    w.serving.session = Some(session);
    schedule(sim, now + period, RtEvent::SloTick);
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
    replicas::broadcast(w, now, item, owner, region);
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
    replicas::invalidate(w, now, spec.item, spec.shard_regions[s].as_ref());
    w.monitor.serve.retirements += 1;
    let host = w.recovery.detector_host();
    trace_instant(w, now, host, EventKind::SloRetire { shard: s as u32 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_rule_table() {
        let slo = SloConfig::default();
        let shed = SloConfig {
            shed_overload: true,
            ..SloConfig::default()
        };
        let keep_cold = SloConfig {
            retire_cold: false,
            ..SloConfig::default()
        };
        let observe = SloConfig::default().observe_only();
        let over = slo.p99_slo_ns + 1;
        let st = |replicated, eroded, shedding, cold_streak| ShardState {
            replicated,
            eroded,
            shedding,
            cold_streak,
        };
        let idle = ShardState::default();
        let replicated = st(true, false, false, 0);
        let cold = slo.cold_window;
        let last = slo.cold_periods - 1;
        use Act::{Keep, Replicate, Retire};
        #[rustfmt::skip]
        let rows: [(&str, u64, u64, ShardState, &SloConfig, Verdict); 14] = [
            ("below MIN_WINDOW is never hot", MIN_WINDOW - 1, u64::MAX, idle, &shed, (false, Keep, idle)),
            ("a p99 at the objective is not hot", MIN_WINDOW, slo.p99_slo_ns, idle, &slo, (false, Keep, idle)),
            ("hot, shedding off", MIN_WINDOW, over, idle, &slo, (true, Replicate, replicated)),
            ("hot, shedding on", MIN_WINDOW, over, idle, &shed, (true, Replicate, st(true, false, true, 0))),
            ("shedding stops once cool", MIN_WINDOW, 0, st(false, false, true, 0), &shed, (false, Keep, idle)),
            ("hot and replicated: nothing to do", MIN_WINDOW, over, st(true, false, false, 2), &slo, (true, Keep, replicated)),
            ("hot and eroded: re-replicate", MIN_WINDOW, over, st(true, true, false, 0), &slo, (true, Replicate, replicated)),
            ("eroded but cool: kept eroded", cold + 1, 0, st(true, true, false, 0), &slo, (false, Keep, st(true, true, false, 0))),
            ("a cold period grows the streak", cold, 0, st(true, false, false, 1), &slo, (false, Keep, st(true, false, false, 2))),
            ("a warm period resets it", cold + 1, 0, st(true, false, false, 3), &slo, (false, Keep, replicated)),
            ("cold_periods cold periods retire", 0, 0, st(true, true, false, last), &slo, (false, Retire, idle)),
            ("no retiring with retire_cold off", 0, 0, st(true, false, false, last), &keep_cold, (false, Keep, st(true, false, false, last + 1))),
            ("observe_only: hot is counted, not acted on", MIN_WINDOW, over, idle, &observe, (true, Keep, idle)),
            ("observe_only: a cold streak retires nothing", 0, 0, st(true, false, false, last), &observe, (false, Keep, st(true, false, false, last + 1))),
        ];
        for (name, count, p99, state, slo, want) in rows {
            assert_eq!(decide(count, p99, state, slo), want, "{name}");
        }
    }
}
