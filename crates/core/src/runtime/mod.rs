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
//! application's main function. The event loop stops at each such
//! boundary and calls the driver from `run`'s own frame.
//!
//! One module per tenant of [`RtWorld`]: each owns a state struct whose
//! fields are private to it, so a sibling reaches another tenant's state
//! only through that tenant's functions, and each says in its own
//! `reset_for_recovery` what a recovery discards. DESIGN.md ("Runtime
//! module map") lists who owns what.

mod comms;
mod ctx;
mod directory;
mod events;
mod exec;
mod phases;
mod recovery;
mod replicas;
mod sched;
mod serving;
mod tasks;

use std::fmt;

use allscale_des::{CorePool, Sim, SimDuration, SimTime};
use allscale_net::{BatchParams, ClusterSpec, FaultPlan};
use allscale_trace::{EventKind, TraceConfig, TraceEvent, TraceSink};

use crate::cost::CostModel;
use crate::dim::DataItemManager;
use crate::integrity::{IntegrityConfig, Strikes};
use crate::monitor::{Monitor, RunReport};
use crate::policy::{DataAwarePolicy, SchedulingPolicy};
use crate::resilience::ResilienceConfig;
use crate::scheduler::{DataAwareScheduler, StealConfig, WorkStealingScheduler};
use crate::task::{TaskValue, WorkItem};

use events::RtEvent;

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
    /// keeps the runtime fault-oblivious; a fault plan that kills a node
    /// needs it, and [`RtConfig::validate`] refuses one without it.
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

/// Why [`RtConfig::validate`] refuses a configuration: an outcome it
/// would cause is refused up front rather than met as a hang mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The fault plan kills this locality but resilience is off: no
    /// detector notices the death, no recovery replaces it, the run hangs.
    KillWithoutResilience(usize),
    /// The fault plan kills this locality, which the cluster does not have.
    NoSuchVictim(usize),
    /// The cluster has no nodes.
    NoNodes,
    /// The cluster's nodes have no cores: no task can ever run.
    NoCores,
    /// `ResilienceConfig::heartbeat_period` is 0: each heartbeat round
    /// re-arms itself at the same instant and virtual time stops.
    ZeroHeartbeatPeriod,
    /// `IntegrityConfig::scrub_period` is `Some(0)`: each scrub pass
    /// re-arms itself at the same instant and virtual time stops.
    ZeroScrubPeriod,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::KillWithoutResilience(victim) => write!(
                f,
                "the fault plan kills locality {victim} but resilience is off, \
                 so the run would deadlock"
            ),
            ConfigError::NoSuchVictim(victim) => write!(
                f,
                "the fault plan kills locality {victim}, which does not exist"
            ),
            ConfigError::NoNodes => write!(f, "the cluster has no nodes, so nothing can run"),
            ConfigError::NoCores => write!(f, "no node has a core, so the run would deadlock"),
            ConfigError::ZeroHeartbeatPeriod => write!(f, "a heartbeat period of 0 stops time"),
            ConfigError::ZeroScrubPeriod => write!(f, "a scrub period of 0 stops time"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl RtConfig {
    /// Refuse a configuration whose run could only end in a hang: an
    /// empty machine, a period of 0, a node death the runtime cannot
    /// recover from, or one of a node that does not exist.
    /// [`Runtime::new`] panics with the error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let zero = Some(SimDuration::ZERO);
        let empty = [
            (self.spec.nodes == 0, ConfigError::NoNodes),
            (self.spec.cores_per_node == 0, ConfigError::NoCores),
            (
                self.resilience.map(|r| r.heartbeat_period) == zero,
                ConfigError::ZeroHeartbeatPeriod,
            ),
            (
                self.integrity.and_then(|i| i.scrub_period) == zero,
                ConfigError::ZeroScrubPeriod,
            ),
        ];
        if let Some((_, refused)) = empty.into_iter().find(|(refused, _)| *refused) {
            return Err(refused);
        }
        for (victim, _) in self.faults.iter().flat_map(FaultPlan::deaths) {
            if victim >= self.spec.nodes {
                return Err(ConfigError::NoSuchVictim(victim));
            }
            if self.resilience.is_none() {
                return Err(ConfigError::KillWithoutResilience(victim));
            }
        }
        Ok(())
    }

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

    /// Enable the data-integrity service: transfer and checkpoint
    /// verification, plus the scrubber at [`IntegrityConfig::scrub_period`]
    /// ([`IntegrityConfig::default`] runs it every 100 µs).
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
    /// The integrity service's policy (`None` when it is disabled).
    integrity: Option<IntegrityConfig>,
    /// The replica scrubber's strikes (it survives a recovery).
    strikes: Strikes,
    serving: serving::Serving,
}

type RtSim = Sim<RtWorld, events::Scheduled>;

/// The runtime entry point.
pub struct Runtime {
    sim: RtSim,
}

impl Runtime {
    /// Build a runtime over the given configuration.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] when [`RtConfig::validate`]
    /// refuses `config`.
    pub fn new(config: RtConfig) -> Self {
        if let Err(refused) = config.validate() {
            panic!("{refused}");
        }
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
            recovery: recovery::Recovery::new(config.resilience, nodes, config.integrity.is_some()),
            integrity: config.integrity,
            strikes: Strikes::default(),
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
    /// The driver is called from this function's own frame, between
    /// events, at the virtual instant of the boundary, so it may borrow
    /// the caller's state: its grids, clocks and results can be plain
    /// locals. (A work item's closures still outlive the call, so what
    /// a task body shares with the caller goes in an `Rc`.)
    ///
    /// # Panics
    /// Panics if the application deadlocks (tasks parked forever).
    pub fn run(
        mut self,
        mut driver: impl FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>>,
    ) -> RunReport {
        let sim = &mut self.sim;
        let start = SimTime::ZERO;
        events::schedule(sim, start, RtEvent::PhaseResume(None));
        if let Some(period) = sim.world.recovery.heartbeat_period() {
            events::schedule(sim, start + period, RtEvent::HeartbeatTick);
        }
        if let Some(period) = sim.world.integrity.and_then(|c| c.scrub_period) {
            events::schedule(sim, start + period, RtEvent::ScrubTick);
        }
        while sim.run_until(|w| w.phases.at_boundary()) {
            phases::cross_boundary(sim, &mut driver);
        }
        let events = self.sim.events_run();
        let w = &mut self.sim.world;
        let traffic = w.comms.stats().clone();
        w.monitor.cache = w.directory.cache_stats();
        // Frozen duplicates of `traffic` counters: `hostbench/` reads them
        // where they are, and nothing else does.
        w.monitor.integrity.wire_detected = traffic.corrupt_detected;
        assert!(w.tasks.is_idle(), "{}", tasks::deadlock_report(w));
        let report = RunReport {
            finish_time: w.phases.finish_time(),
            phases: w.phases.phase(),
            monitor: w.monitor.clone(),
            remote_msgs: traffic.remote_msgs(),
            remote_bytes: traffic.remote_bytes(),
            traffic,
            storage: w.recovery.storage_stats(),
            events,
            trace: w.trace.take(),
        };
        // The report's own oracle, like §2.5's at every boundary: every
        // debug-profile run is checked once here, release builds never.
        if cfg!(debug_assertions) {
            let shape = RunShape {
                faulty: w.comms.faulty(),
                direct: matches!(w.scheduler, sched::Family::Direct(_)),
                integrity: w.integrity.is_some(),
            };
            let broken = broken_identities(&report, shape);
            assert!(
                broken.is_empty(),
                "run report identities broken: {broken:#?}"
            );
        }
        report
    }
}

/// What [`broken_identities`] needs to know of a run's configuration: a
/// fault plan was installed, the direct family ran, integrity was on.
struct RunShape {
    faulty: bool,
    direct: bool,
    integrity: bool,
}

/// The accounting identities of a finished run's report; returns each
/// one that applies and fails, with its numbers. Always: flush causes sum
/// to `batches`; `batches ≤ batched_msgs`; `batched_bytes ≤ Σ bytes_sent`;
/// `handoffs ≤ steal_grants`; the frozen duplicates equal their `traffic`
/// twins; `completed + shed == offered` (a recovery puts the serving
/// tallies back to the abandoned session's start). Under the direct
/// family every scheduler counter is 0; with integrity on,
/// `corrupt_undetected` is 0. Without a fault plan (a lost
/// or re-sent message is billed where it was sent, a lost steal leg is
/// never answered): `Σ msgs_sent + batches == local + remote +
/// batched_msgs` and `steal_requests + handoffs == steal_grants +
/// steal_denies`. Without a recovery (a rewound phase re-executes tasks
/// its first attempt counted): `Σ tasks_executed` equals the
/// `task_durations` count.
fn broken_identities(r: &RunReport, shape: RunShape) -> Vec<String> {
    let (m, t, s, v) = (
        &r.monitor,
        &r.traffic,
        &r.monitor.scheduler,
        &r.monitor.serve,
    );
    let (clean, whole) = (!shape.faulty, m.resilience.recoveries == 0);
    let steals = s.tasks_queued + s.steal_requests + s.steal_grants + s.steal_denies + s.handoffs;
    let wire = t.local.count() + t.remote_msgs() + t.batched_msgs;
    #[rustfmt::skip]
    let table = [
        ("flush causes sum to batches", true, t.flushes_by_cause.iter().sum(), '=', t.batches),
        ("a batch holds a message", true, t.batches, '≤', t.batched_msgs),
        ("batched bytes were sent", true, t.batched_bytes, '≤', m.total_bytes()),
        ("handoffs are grants", true, s.handoffs, '≤', s.steal_grants),
        ("remote_msgs copies traffic", true, r.remote_msgs, '=', t.remote_msgs()),
        ("remote_bytes copies traffic", true, r.remote_bytes, '=', t.remote_bytes()),
        ("wire_detected copies traffic", true, m.integrity.wire_detected, '=', t.corrupt_detected),
        ("the direct family queues nothing", shape.direct, steals, '=', 0),
        ("integrity consumes no poison", shape.integrity, t.corrupt_undetected, '=', 0),
        ("logical sends", clean, m.total_msgs() + t.batches, '=', wire),
        ("every steal request is answered once", clean, s.steal_requests + s.handoffs, '=', s.steal_grants + s.steal_denies),
        ("one duration per execution", whole, m.total_tasks(), '=', m.task_durations.tally().count()),
        ("every request completes or is shed", true, v.completed + v.shed, '=', v.offered),
    ];
    let holds = |lhs: u64, rel: char, rhs: u64| if rel == '≤' { lhs <= rhs } else { lhs == rhs };
    table
        .into_iter()
        .filter(|&(_, applies, lhs, rel, rhs)| applies && !holds(lhs, rel, rhs))
        .map(|(name, _, lhs, rel, rhs)| format!("{name}: expected {lhs} {rel} {rhs}"))
        .collect()
}

// ------------------------------------------------------------------ tracing

/// Record an epoch-stamped instant on `loc`'s runtime track. `kind` is a
/// small `Copy` value, so building it costs a few register moves even
/// when the sink is disabled; the sink itself adds one branch.
#[inline]
fn trace_instant(w: &RtWorld, now: SimTime, loc: usize, kind: EventKind) {
    let epoch = w.recovery.epoch();
    w.trace
        .record(|| TraceEvent::instant(now.as_nanos(), loc as u32, kind).in_epoch(epoch.into()));
}

/// Record an epoch-stamped span on `loc`'s runtime track.
#[inline]
fn trace_span(w: &RtWorld, start: SimTime, dur: SimDuration, loc: usize, kind: EventKind) {
    let epoch = w.recovery.epoch();
    w.trace.record(|| {
        TraceEvent::span(start.as_nanos(), dur.as_nanos(), loc as u32, kind).in_epoch(epoch.into())
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
            .in_epoch(epoch.into())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn killing(victim: usize, resilient: bool) -> RtConfig {
        let mut plan = FaultPlan::new(1);
        plan.kill_at(victim, SimTime::from_nanos(1_000));
        let mut cfg = RtConfig::test(4, 1);
        cfg.faults = Some(plan);
        cfg.resilience = resilient.then(ResilienceConfig::default);
        cfg
    }

    #[test]
    fn validate_accepts_a_resilient_kill() {
        assert_eq!(killing(3, true).validate(), Ok(()));
        assert_eq!(RtConfig::test(4, 1).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "the fault plan kills locality 2 but resilience is off")]
    fn a_kill_without_resilience_is_refused() {
        Runtime::new(killing(2, false));
    }

    #[test]
    #[should_panic(expected = "the fault plan kills locality 4, which does not exist")]
    fn a_kill_of_a_node_that_does_not_exist_is_refused() {
        Runtime::new(killing(4, true));
    }

    #[test]
    #[should_panic(expected = "the cluster has no nodes, so nothing can run")]
    fn an_empty_cluster_is_refused() {
        Runtime::new(RtConfig::test(0, 1));
    }

    #[test]
    #[should_panic(expected = "no node has a core, so the run would deadlock")]
    fn nodes_without_cores_are_refused() {
        Runtime::new(RtConfig::test(4, 0));
    }

    #[test]
    #[should_panic(expected = "a heartbeat period of 0 stops time")]
    fn a_zero_heartbeat_period_is_refused() {
        let mut cfg = RtConfig::test(4, 1);
        cfg.resilience = Some(ResilienceConfig {
            heartbeat_period: SimDuration::ZERO,
            ..ResilienceConfig::default()
        });
        Runtime::new(cfg);
    }

    #[test]
    #[should_panic(expected = "a scrub period of 0 stops time")]
    fn a_zero_scrub_period_is_refused() {
        Runtime::new(RtConfig::test(4, 1).with_integrity(IntegrityConfig {
            scrub_period: Some(SimDuration::ZERO),
        }));
    }

    /// A report that keeps every identity: 2 of 3 logical sends left the
    /// node, alone or in the one batch, and the 3 executions recorded 3
    /// durations.
    fn consistent() -> RunReport {
        let mut r = RunReport {
            monitor: Monitor::new(2),
            ..RunReport::default()
        };
        r.monitor.per_locality[0].msgs_sent = 3;
        r.monitor.per_locality[0].bytes_sent = 300;
        r.monitor.per_locality[1].tasks_executed = 3;
        for ns in [10, 20, 30] {
            r.monitor.task_durations.record(ns);
        }
        r.traffic.local.record(0);
        r.traffic.remote.record(100);
        r.traffic.batches = 1;
        r.traffic.batched_msgs = 2;
        r.traffic.batched_bytes = 200;
        r.traffic.flushes_by_cause[0] = 1;
        r.remote_msgs = 1;
        r.remote_bytes = 100;
        r
    }

    const CLEAN: RunShape = RunShape {
        faulty: false,
        direct: false,
        integrity: false,
    };

    #[test]
    fn each_broken_identity_names_itself() {
        assert_eq!(
            broken_identities(&consistent(), CLEAN),
            Vec::<String>::new()
        );
        let direct = RunShape {
            direct: true,
            ..CLEAN
        };
        let verified = RunShape {
            integrity: true,
            ..CLEAN
        };
        type Doctor = fn(&mut RunReport);
        #[rustfmt::skip]
        let rows: [(&str, RunShape, Doctor); 13] = [
            ("flush causes sum to batches", CLEAN, |r| r.traffic.flushes_by_cause[2] = 1),
            ("a batch holds a message", CLEAN, |r| { r.traffic.batched_msgs = 0; r.monitor.per_locality[0].msgs_sent = 1 }),
            ("batched bytes were sent", CLEAN, |r| r.traffic.batched_bytes = 301),
            ("handoffs are grants", CLEAN, |r| { r.monitor.scheduler.handoffs = 1; r.monitor.scheduler.steal_denies = 1 }),
            ("wire_detected copies traffic", CLEAN, |r| r.monitor.integrity.wire_detected = 1),
            ("remote_msgs copies traffic", CLEAN, |r| r.remote_msgs = 2),
            ("remote_bytes copies traffic", CLEAN, |r| r.remote_bytes = 99),
            ("the direct family queues nothing", direct, |r| r.monitor.scheduler.tasks_queued = 1),
            ("integrity consumes no poison", verified, |r| r.traffic.corrupt_undetected = 1),
            ("logical sends", CLEAN, |r| r.monitor.per_locality[1].msgs_sent = 1),
            ("every steal request is answered once", CLEAN, |r| r.monitor.scheduler.steal_requests = 1),
            ("one duration per execution", CLEAN, |r| r.monitor.per_locality[0].tasks_executed = 1),
            ("every request completes or is shed", CLEAN, |r| r.monitor.serve.offered = 1),
        ];
        for (name, shape, doctor) in rows {
            let mut r = consistent();
            doctor(&mut r);
            let broken = broken_identities(&r, shape);
            assert!(
                broken.len() == 1 && broken[0].starts_with(&format!("{name}: ")),
                "{name}: {broken:?}"
            );
        }
        // The conditions: a fault plan lifts the two send identities, a
        // recovery the duration count.
        let mut r = consistent();
        r.monitor.per_locality[1].msgs_sent = 1;
        r.monitor.scheduler.steal_requests = 1;
        assert!(broken_identities(
            &r,
            RunShape {
                faulty: true,
                ..CLEAN
            }
        )
        .is_empty());
        let mut r = consistent();
        r.monitor.per_locality[0].tasks_executed = 1;
        r.monitor.resilience.recoveries = 1;
        assert!(broken_identities(&r, CLEAN).is_empty());
    }
}
