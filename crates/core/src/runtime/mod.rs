//! The AllScale runtime: localities, the scheduler (paper Algorithm 2),
//! and the full task/data lifecycle over the simulated cluster.
//!
//! Execution is event-driven on [`allscale_des::Sim`]. The world holds one
//! [`Locality`] per simulated cluster node (core pool + data item manager)
//! plus the distributed index and the global task tables. The life of a
//! task:
//!
//! 1. **assign** (Algorithm 2): the policy picks the variant; split tasks
//!    are forwarded to their placement-hint locality and decomposed there,
//!    process tasks are forwarded to a locality covering their data
//!    requirements — all requirements if possible, else all write
//!    requirements, else wherever the policy says. Index lookups
//!    (Algorithm 1) and task forwards are billed on the network.
//! 2. **prepare**: locks are acquired in the local data item manager
//!    (parking the task on conflict); missing write regions are migrated
//!    in (or first-touch allocated), missing read regions are replicated
//!    in; each transfer is billed at real serialized size.
//! 3. **execute**: the process body runs as real Rust code against the
//!    local fragments; its virtual duration occupies a core.
//! 4. **complete**: locks release, replicas drop (with release messages to
//!    their owners), the result travels to the parent, and combiners fire
//!    when all children are done.
//!
//! Applications are sequences of *phases* (the driver closure of
//! [`Runtime::run`]): the root work item of phase *k+1* is requested once
//! phase *k*'s task tree has fully completed — the `sync` points of the
//! application's main function.
//!
//! One module per tenant of [`RtWorld`]: each owns a state struct whose
//! fields are private to it, so a sibling reaches another tenant's state
//! only through that tenant's functions, and each says in its own
//! `reset_for_recovery` what a recovery discards. DESIGN.md ("Runtime
//! module map") lists who owns what.

mod comms;
mod ctx;
mod directory;
mod exec;
mod phases;
mod recovery;
mod sched;
mod scrub;
mod serving;
mod tasks;

use allscale_des::{CorePool, Sim, SimDuration, SimTime};
use allscale_net::{BatchParams, ClusterSpec, FaultPlan};
use allscale_trace::{EventKind, TraceConfig, TraceEvent, TraceSink};

use crate::cost::CostModel;
use crate::dim::DataItemManager;
use crate::integrity::{IntegrityConfig, IntegrityManager};
use crate::monitor::{Monitor, RunReport};
use crate::policy::{DataAwarePolicy, SchedulingPolicy};
use crate::resilience::ResilienceConfig;
use crate::scheduler::{DataAwareScheduler, StealConfig, WorkStealingScheduler};
use crate::task::{TaskValue, WorkItem};

pub use ctx::RtCtx;

/// A simulated cluster node: cores plus its data item manager.
pub struct Locality {
    /// The node's core pool.
    pub cores: CorePool,
    /// The node's data item manager.
    pub dim: DataItemManager,
    /// Busy-until time of the node's communication thread (HPX dedicates
    /// a network thread; control messages are handled there rather than
    /// queueing behind long compute tasks on the core pool).
    pub comm_busy: SimTime,
}

/// Runtime configuration.
pub struct RtConfig {
    /// The simulated machine.
    pub spec: ClusterSpec,
    /// Virtual-time cost constants.
    pub cost: CostModel,
    /// Scheduling policy (Algorithm 2's pluggable part). With
    /// `stealing` unset this drives the default [`DataAwareScheduler`];
    /// with it set, the policy still makes the variant and
    /// fallback-target decisions inside the [`WorkStealingScheduler`].
    pub policy: Box<dyn SchedulingPolicy>,
    /// Switch the scheduler family to per-locality bounded task queues
    /// with work stealing (see [`StealConfig`] for the knobs: queue
    /// threshold, victim policy, seed). `None` (the default)
    /// keeps the paper's direct data-aware placement.
    pub stealing: Option<StealConfig>,
    /// Use the central-directory index instead of the hierarchical one
    /// (ablation A1).
    pub central_index: bool,
    /// Fault plan installed into the network (`None` = reliable fabric).
    pub faults: Option<FaultPlan>,
    /// Enable the resilience manager: periodic checkpoints, the heartbeat
    /// failure detector, and automatic recovery. `None` (the default)
    /// keeps the runtime fault-oblivious; combined with an injected
    /// locality death, such a run deadlocks — enable this whenever the
    /// fault plan kills nodes.
    pub resilience: Option<ResilienceConfig>,
    /// Enable the data-integrity service: checksum framing of every
    /// runtime payload with verify-on-receive and bounded re-requests,
    /// checksummed checkpoint shards, and the background replica
    /// scrubber. `None` (the default) leaves the runtime
    /// integrity-oblivious — combined with a corrupting fault plan, such
    /// a run silently consumes poisoned bytes (the ablation baseline).
    pub integrity: Option<IntegrityConfig>,
    /// Structured tracing: `Some` records task, data, index, network and
    /// resilience events into bounded per-locality rings (consumed from
    /// [`RunReport::trace`](crate::monitor::RunReport)). `None` (the
    /// default) leaves the sink disabled — each instrumentation site then
    /// costs a single branch on the simulated hot path.
    pub trace: Option<TraceConfig>,
}

impl RtConfig {
    /// Default configuration on a Meggie-like cluster of `nodes` nodes.
    pub fn meggie(nodes: usize) -> Self {
        Self::on(ClusterSpec::meggie(nodes))
    }

    /// Small test configuration.
    pub fn test(nodes: usize, cores: usize) -> Self {
        Self::on(ClusterSpec::test(nodes, cores))
    }

    /// Every service off, the paper's scheduler, on the machine `spec`.
    fn on(spec: ClusterSpec) -> Self {
        RtConfig {
            spec,
            cost: CostModel::default(),
            policy: Box::new(DataAwarePolicy),
            stealing: None,
            central_index: false,
            faults: None,
            resilience: None,
            integrity: None,
            trace: None,
        }
    }

    /// Enable the data-integrity service with the given policy. See
    /// [`IntegrityConfig`] for the knobs; [`IntegrityConfig::default`]
    /// turns on transfer and checkpoint verification plus the scrubber.
    pub fn with_integrity(mut self, cfg: IntegrityConfig) -> Self {
        self.integrity = Some(cfg);
        self
    }

    /// Enable transfer batching with the given coalescer knobs: runtime
    /// messages to the same destination are buffered up to the flush
    /// window and priced as one wire message, and adjacent data transfers
    /// in one staging plan are merged region-wise. The default (`None` in
    /// [`allscale_net::NetParams::batching`]) sends every message
    /// individually — the ablation baseline.
    pub fn with_batching(mut self, params: BatchParams) -> Self {
        self.spec.net.batching = Some(params);
        self
    }

    /// Switch to the work-stealing scheduler family: admitted process
    /// tasks land in per-locality bounded queues (spilling past a full
    /// one), and a locality that runs dry steals from a victim chosen
    /// by `cfg.victim`. Steal requests, grants/denies and stolen-task
    /// handoffs are billed control traffic on the simulated network, so
    /// batching, faults and tracing all apply to them.
    pub fn with_work_stealing(mut self, cfg: StealConfig) -> Self {
        self.stealing = Some(cfg);
        self
    }
}

/// The simulated world of a runtime execution: the machine, the shared
/// data plane (`localities`), the monitor and trace sink every module
/// writes to, and one state struct per tenant.
pub struct RtWorld {
    /// Machine description.
    pub spec: ClusterSpec,
    /// Cost constants.
    pub cost: CostModel,
    /// One entry per cluster node.
    pub localities: Vec<Locality>,
    /// Tasks currently assigned to each node (queued, preparing, or
    /// running), kept as the slice the scheduling policy reads.
    pub load: Vec<usize>,
    /// Monitoring counters.
    pub monitor: Monitor,
    /// Trace recording handle; a disabled sink unless `RtConfig::trace`
    /// was set. The network layer holds a clone for fault-event recording.
    trace: TraceSink,
    comms: comms::Comms,
    directory: directory::Directory,
    tasks: tasks::TaskTable,
    /// The scheduler family (decision-only; `sched` executes its
    /// decisions and bills their traffic).
    scheduler: sched::Family,
    phases: phases::Phases,
    recovery: recovery::Recovery,
    /// Integrity-service state (`None` when the service is disabled).
    integrity: Option<IntegrityManager>,
    serving: serving::Serving,
}

type RtSim = Sim<RtWorld>;

/// The runtime entry point.
pub struct Runtime {
    sim: RtSim,
}

impl Runtime {
    /// Build a runtime over the given configuration.
    pub fn new(config: RtConfig) -> Self {
        let nodes = config.spec.nodes;
        let trace = match &config.trace {
            Some(cfg) => TraceSink::enabled(nodes, cfg),
            None => TraceSink::disabled(),
        };
        let comms = comms::Comms::new(
            &config.spec,
            config.faults,
            config.integrity.is_some(),
            config.resilience.is_some(),
            trace.clone(),
        );
        let localities = (0..nodes)
            .map(|i| Locality {
                cores: CorePool::new(config.spec.cores_per_node),
                dim: DataItemManager::new(i),
                comm_busy: SimTime::ZERO,
            })
            .collect();
        let scheduler = match config.stealing {
            Some(cfg) => sched::Family::Stealing(WorkStealingScheduler::new(
                config.policy,
                cfg,
                nodes,
                config.spec.cores_per_node,
            )),
            None => sched::Family::Direct(DataAwareScheduler::new(config.policy)),
        };
        let world = RtWorld {
            spec: config.spec,
            cost: config.cost,
            localities,
            load: vec![0; nodes],
            monitor: Monitor::new(nodes),
            trace,
            comms,
            directory: directory::Directory::new(config.central_index, nodes),
            tasks: tasks::TaskTable::default(),
            scheduler,
            phases: phases::Phases::default(),
            recovery: recovery::Recovery::new(config.resilience, nodes),
            integrity: config.integrity.map(IntegrityManager::new),
            serving: serving::Serving::default(),
        };
        Runtime {
            sim: Sim::new(world),
        }
    }

    /// Run an application to completion; returns the run report.
    ///
    /// The application is a sequence of phases: `driver(phase, ctx,
    /// prev)` returns the root work item of `phase` (0-based), or `None`
    /// when the application is finished; `prev` is the value of the
    /// previous phase's root task (`None` for phase 0). Phase *k+1*
    /// begins only after phase *k*'s entire task tree has completed (the
    /// application's `sync`).
    ///
    /// # Panics
    /// Panics if the application deadlocks (tasks parked forever).
    pub fn run(
        mut self,
        driver: impl FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>> + 'static,
    ) -> RunReport {
        self.sim.world.phases.install(Box::new(driver));
        let sim = &mut self.sim;
        sim.schedule(SimDuration::ZERO, |sim| phases::advance_phase(sim, None));
        if let Some(period) = sim.world.recovery.heartbeat_period() {
            sim.schedule(period, recovery::heartbeat_tick);
        }
        let integrity = sim.world.integrity.as_ref();
        if let Some(period) = integrity.and_then(|m| m.cfg.scrub_period) {
            sim.schedule(period, scrub::scrub_tick);
        }
        self.sim.run();
        let events = self.sim.events_run();
        let w = &mut self.sim.world;
        let traffic = w.comms.stats().clone();
        w.monitor.cache = w.directory.cache_stats();
        // Frozen duplicates of `traffic` counters: `hostbench/` reads them
        // where they are, and nothing else does.
        w.monitor.integrity.wire_detected = traffic.corrupt_detected;
        assert!(w.tasks.is_idle(), "{}", tasks::deadlock_report(w));
        RunReport {
            finish_time: w.phases.finish_time(),
            phases: w.phases.phase(),
            monitor: w.monitor.clone(),
            remote_msgs: traffic.remote_msgs(),
            remote_bytes: traffic.remote_bytes(),
            traffic,
            storage: w.recovery.storage_stats(),
            events,
            trace: w.trace.take(),
        }
    }
}

// ------------------------------------------------------------------ tracing

/// Record an epoch-stamped instant on `loc`'s runtime track. `kind` is a
/// small `Copy` value, so building it costs a few register moves even
/// when the sink is disabled; the sink itself adds one branch.
#[inline]
fn trace_instant(w: &RtWorld, now: SimTime, loc: usize, kind: EventKind) {
    let epoch = w.recovery.epoch();
    w.trace
        .record(|| TraceEvent::instant(now.as_nanos(), loc as u32, kind).in_epoch(epoch));
}

/// Record an epoch-stamped span on `loc`'s runtime track.
#[inline]
fn trace_span(w: &RtWorld, start: SimTime, dur: SimDuration, loc: usize, kind: EventKind) {
    let epoch = w.recovery.epoch();
    w.trace.record(|| {
        TraceEvent::span(start.as_nanos(), dur.as_nanos(), loc as u32, kind).in_epoch(epoch)
    });
}

/// Record an epoch-stamped span occupying `core` of `loc`.
#[inline]
fn trace_core_span(
    w: &RtWorld,
    start: SimTime,
    dur: SimDuration,
    loc: usize,
    core: usize,
    kind: EventKind,
) {
    let epoch = w.recovery.epoch();
    w.trace.record(|| {
        TraceEvent::span(start.as_nanos(), dur.as_nanos(), loc as u32, kind)
            .on_core(core)
            .in_epoch(epoch)
    });
}

/// Schedule a task-lifecycle event guarded by the current recovery epoch:
/// if a recovery happens before the event fires, it becomes a no-op. This
/// is how an entire in-flight phase is discarded — its completions,
/// transfer arrivals, and retries are all stale after the world is
/// rewound to the checkpoint.
fn schedule_task_event(sim: &mut RtSim, at: SimTime, f: impl FnOnce(&mut RtSim) + 'static) {
    let epoch = sim.world.recovery.epoch();
    sim.schedule_at(at, move |sim| {
        if sim.world.recovery.epoch() == epoch {
            f(sim);
        }
    });
}
