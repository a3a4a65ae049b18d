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
//! Applications are sequences of *phases* (an [`AppDriver`]): the root
//! work item of phase *k+1* is requested once phase *k*'s task tree has
//! fully completed — the `sync` points of the application's main function.

use std::collections::BTreeMap;

use allscale_des::{CorePool, LogHistogram, Sim, SimDuration, SimTime};
use allscale_net::{
    frame, AnyTopology, Batch, BatchParams, ClusterSpec, Coalescer, Delivered, Enqueue, FaultPlan,
    Network, RetryPolicy, StorageTier,
};
use allscale_region::{fnv1a_64, ItemType};
use allscale_trace::{
    EventKind, SpawnVariant, TraceConfig, TraceEvent, TraceSink, TransferPurpose,
};

use crate::cost::CostModel;
use crate::dim::{Blocker, DataItemManager, LockConflict};
use crate::dynamic::{DynRegion, ItemDescriptor};
use crate::index::{CentralIndex, DistIndex, Hop, Resolution};
use crate::integrity::{IntegrityConfig, IntegrityManager};
use crate::loc_cache::LocationCache;
use crate::monitor::{Monitor, RunReport};
use crate::policy::{DataAwarePolicy, PolicyEnv, SchedulingPolicy, Variant};
use crate::resilience::{
    reconstruct, CkptKind, CkptMode, ResilienceConfig, ResilienceManager, SavedCkpt,
};
use crate::scheduler::{
    DataAwareScheduler, Placement, Scheduler, StealConfig, WorkStealingScheduler,
};
use crate::slo::{PendingReq, ServeSession, ServeSpec};
use crate::task::{
    AccessMode, Done, ItemId, Requirement, SplitOutcome, TaskCtx, TaskId, TaskValue, WorkItem,
};

/// A simulated cluster node: cores plus its data item manager.
pub struct Locality {
    /// The node's core pool.
    pub cores: CorePool,
    /// The node's data item manager.
    pub dim: DataItemManager,
    /// Tasks currently assigned here (queued, preparing, or running).
    pub load: usize,
    /// Busy-until time of the node's communication thread (HPX dedicates
    /// a network thread; control messages are handled there rather than
    /// queueing behind long compute tasks on the core pool).
    pub comm_busy: SimTime,
}

/// Either index implementation (experiment A1 toggles them).
enum IndexImpl {
    Dist(DistIndex),
    Central(CentralIndex),
}

impl IndexImpl {
    fn register_item(&mut self, item: ItemId, empty: &dyn DynRegion) {
        match self {
            IndexImpl::Dist(i) => i.register_item(item, empty),
            IndexImpl::Central(i) => i.register_item(item, empty),
        }
    }
    fn remove_item(&mut self, item: ItemId) {
        if let IndexImpl::Dist(i) = self {
            i.remove_item(item)
        }
    }
    fn update_leaf(&mut self, item: ItemId, p: usize, region: Box<dyn DynRegion>) -> Vec<Hop> {
        match self {
            IndexImpl::Dist(i) => i.update_leaf(item, p, region),
            IndexImpl::Central(i) => i.update_leaf(item, p, region),
        }
    }
}

struct Inflight {
    loc: usize,
    wi: Option<Box<dyn WorkItem>>,
    parent: Option<(TaskId, usize)>,
    reqs: Vec<Requirement>,
    /// Read replicas imported for this task: (item, owner, region).
    replicas: Vec<(ItemId, usize, Box<dyn DynRegion>)>,
    pending_transfers: usize,
    pending_done: Option<(Done, usize)>,
    /// Drawn from [`Wakeups::next_ticket`] the first time the task is
    /// refused and kept across later refusals: woken tasks retry in
    /// ticket order.
    ticket: Option<u64>,
}

/// Bookkeeping for tasks the (start) rule refused. The tasks themselves
/// sit on the wait list of the [`DataItemManager`] holding what blocks
/// them; a release there hands them back and they collect in `woken`
/// until the retry tick (see [`schedule_wakeups`]).
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
    combine: Option<Box<dyn FnOnce(Vec<TaskValue>) -> TaskValue>>,
    parent: Option<(TaskId, usize)>,
    result_bytes: usize,
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
    /// threshold, victim policy, attempts, seed). `None` (the default)
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
        RtConfig {
            spec: ClusterSpec::meggie(nodes),
            cost: CostModel::default(),
            policy: Box::new(DataAwarePolicy::default()),
            stealing: None,
            central_index: false,
            faults: None,
            resilience: None,
            integrity: None,
            trace: None,
        }
    }

    /// Small test configuration.
    pub fn test(nodes: usize, cores: usize) -> Self {
        RtConfig {
            spec: ClusterSpec::test(nodes, cores),
            cost: CostModel::default(),
            policy: Box::new(DataAwarePolicy::default()),
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

/// The simulated world of a runtime execution.
pub struct RtWorld {
    /// Machine description.
    pub spec: ClusterSpec,
    /// The interconnect cost engine.
    pub net: Network<AnyTopology>,
    /// Cost constants.
    pub cost: CostModel,
    /// One entry per cluster node.
    pub localities: Vec<Locality>,
    /// Monitoring counters.
    pub monitor: Monitor,
    index: IndexImpl,
    /// Location cache in front of the hierarchical index (keyed by start
    /// locality, so it behaves as one private cache per locality). Unused
    /// when the central-directory ablation is active.
    loc_cache: LocationCache,
    item_descs: BTreeMap<ItemId, ItemDescriptor>,
    inflight: BTreeMap<TaskId, Inflight>,
    parents: BTreeMap<TaskId, ParentRecord>,
    wakeups: Wakeups,
    next_task: u64,
    next_item: u32,
    /// The pluggable scheduler subsystem (decision-only; this module
    /// executes its decisions and bills their traffic).
    scheduler: Box<dyn Scheduler>,
    driver: Option<Box<dyn AppDriver>>,
    phase: usize,
    finish_time: SimTime,
    done: bool,
    /// Resilience-manager state (`None` when the service is disabled).
    resilience: Option<ResilienceManager>,
    /// A checkpoint drain still in flight: armed at a boundary, committed
    /// by a scheduled event when the slower storage tier finishes. At
    /// most one per world — the next checkpointing boundary write-fences
    /// on it instead of arming a second capture.
    pending_ckpt: Option<PendingCkpt>,
    /// Integrity-service state (`None` when the service is disabled).
    integrity: Option<IntegrityManager>,
    /// Localities declared dead by the failure detector.
    dead: Vec<bool>,
    /// Bumped on every recovery; events scheduled through
    /// [`schedule_task_event`] in an older epoch become no-ops, which is
    /// how the in-flight phase's stale work is discarded wholesale.
    run_epoch: u64,
    /// Retry policy for runtime messages (default when no resilience).
    retry_policy: RetryPolicy,
    /// Trace recording handle; a disabled sink unless `RtConfig::trace`
    /// was set. The network layer holds a clone for fault-event recording.
    trace: TraceSink,
    /// Batching knobs (`None` = every runtime message is sent
    /// individually, the ablation baseline).
    batching: Option<BatchParams>,
    /// Outgoing-message coalescer: per-(src, dst) buffers of runtime
    /// messages awaiting a batch flush. Permanently empty when batching
    /// is off.
    coalescer: Coalescer<PendingMsg>,
    /// Monotonic id stamped on each batch flush (trace correlation).
    next_batch: u64,
    /// A serving phase registered by the driver via [`RtCtx::serve`],
    /// consumed at the next phase boundary.
    pending_serve: Option<ServeSpec>,
    /// The live serving phase, if one is running.
    serving: Option<ServeSession>,
}

type RtSim = Sim<RtWorld>;

/// An application as a sequence of phases. Phase *k+1* begins only after
/// phase *k*'s entire task tree has completed (the application's `sync`).
pub trait AppDriver: 'static {
    /// Produce the root work item of `phase` (0-based), or `None` when the
    /// application is finished. `prev` is the value of the previous
    /// phase's root task (`None` for phase 0).
    fn next_phase(
        &mut self,
        phase: usize,
        ctx: &mut RtCtx<'_>,
        prev: TaskValue,
    ) -> Option<Box<dyn WorkItem>>;
}

impl<F> AppDriver for F
where
    F: FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>> + 'static,
{
    fn next_phase(
        &mut self,
        phase: usize,
        ctx: &mut RtCtx<'_>,
        prev: TaskValue,
    ) -> Option<Box<dyn WorkItem>> {
        self(phase, ctx, prev)
    }
}

/// Driver-facing handle on the runtime between phases.
pub struct RtCtx<'a> {
    world: &'a mut RtWorld,
    now: SimTime,
}

impl RtCtx<'_> {
    /// Number of localities.
    pub fn nodes(&self) -> usize {
        self.world.localities.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Create a data item of type `I` (paper action `create`): registers
    /// the descriptor on every locality and in the index. No data is
    /// allocated — allocation happens on first touch.
    pub fn create_item<I: ItemType>(&mut self, name: &'static str) -> ItemId {
        let id = ItemId(self.world.next_item);
        self.world.next_item += 1;
        let desc = ItemDescriptor::of::<I>(name);
        for loc in &mut self.world.localities {
            loc.dim.register(id, desc.clone());
        }
        self.world
            .index
            .register_item(id, (desc.empty_region)().as_ref());
        self.world.item_descs.insert(id, desc);
        trace_instant(self.world, self.now, 0, EventKind::ItemCreate { item: id.0 });
        id
    }

    /// Destroy a data item everywhere (paper action `destroy`).
    pub fn destroy_item(&mut self, item: ItemId) {
        for loc in &mut self.world.localities {
            loc.dim.destroy(item);
        }
        self.world.index.remove_item(item);
        self.world.loc_cache.forget(item);
        self.world.item_descs.remove(&item);
        trace_instant(self.world, self.now, 0, EventKind::ItemDestroy { item: item.0 });
    }

    /// Read access to the fragment of `item` at `loc` — out-of-band
    /// access for result verification and oracles (not billed).
    pub fn fragment_at<F: 'static>(&self, loc: usize, item: ItemId) -> &F {
        self.world.localities[loc]
            .dim
            .fragment_any(item)
            .downcast_ref::<F>()
            .expect("wrong fragment type")
    }

    /// The region `loc` currently owns of `item`.
    pub fn owned_region_at(&self, loc: usize, item: ItemId) -> Box<dyn DynRegion> {
        self.world.localities[loc].dim.owned_region(item)
    }

    /// Replicate `region` of `item` (owned by `owner`) to every other
    /// locality as a *persistent* replica — the runtime-initiated
    /// (replicate) rule, used for read-mostly data such as the top of the
    /// TPC kd-tree. Writers to the region will be fenced permanently, so
    /// only use this for data that is read-only from here on.
    ///
    /// Billed as a binomial broadcast on the simulated network.
    pub fn broadcast_replicate(&mut self, item: ItemId, owner: usize, region: &dyn DynRegion) {
        let nodes = self.world.localities.len();
        let bytes = {
            let dim = &mut self.world.localities[owner].dim;
            // Sentinel task id marks the export as persistent.
            dim.export_replica(item, region, usize::MAX, TaskId(u64::MAX))
        };
        let wire = seal_payload(self.world, bytes);
        let mut t = self.now;
        for dst in 0..nodes {
            if dst == owner {
                continue;
            }
            // A locality the broadcast cannot reach simply misses out on
            // the replica (it re-fetches on demand if it ever revives —
            // under fail-stop it never does).
            let tag = Payload::data(TransferPurpose::Broadcast, None, item);
            let Some(arrival) = send_msg(self.world, t, owner, dst, wire.len(), tag, false) else {
                continue;
            };
            t = arrival.at;
            let mut data = open_payload(self.world, &wire, arrival.intact);
            // Persistent replicas live until the end of the run — long
            // enough for at-rest rot to matter.
            rot_payload(self.world, &mut data);
            self.world.localities[dst].dim.import_persistent(item, &data);
            self.world.monitor.per_locality[dst].replicas_in += 1;
        }
        // An item-wide event for anyone waiting on `item`: a reader
        // waiting at a remote source may now be covered by its *own*
        // locality's new replica, and a serving writer waiting behind
        // anything must meet the new export fence at its next retry so it
        // invalidates it (`unfence_serving_writes`). Wake them all.
        for p in 0..nodes {
            let woken = self.world.localities[p].dim.wake_item(item);
            wake(self.world, woken);
        }
    }

    /// Register a request-serving phase: the runtime runs it *as* the
    /// next phase. Call from a driver phase that returns `None`; instead
    /// of finishing the application, the runtime injects `spec`'s
    /// open-loop arrival stream on the virtual clock, runs each admitted
    /// request's task tree through the normal scheduler, drives the SLO
    /// controller on its control period, and only then asks the driver
    /// for the phase after.
    ///
    /// Deterministic replay after a recovery relies on the driver
    /// re-registering an identical spec when re-asked for the same
    /// phase: the arrival process and the factory are reseeded, so the
    /// restored boundary replays the exact request stream.
    ///
    /// # Panics
    /// Panics if a serving phase is already registered.
    pub fn serve(&mut self, spec: ServeSpec) {
        assert!(
            self.world.pending_serve.is_none(),
            "one serving phase may be registered per boundary"
        );
        self.world.pending_serve = Some(spec);
    }

    /// Migrate ownership of `region` of `item` from `from` to `to`
    /// (runtime-initiated (migrate) rule) — the load-balancing primitive:
    /// "the scheduling policy may decide to migrate data between nodes,
    /// which will implicitly lead to the redirection of future tasks to
    /// the newly designated localities".
    pub fn migrate_region(&mut self, item: ItemId, region: &dyn DynRegion, from: usize, to: usize) {
        let w = &mut self.world;
        let now = self.now;
        // Remap endpoints off localities the detector has declared dead —
        // the same rule task placement applies (`live_target`). Without
        // it, a policy handing data to a crashed locality would re-own
        // the region to a node that can never serve it: every later
        // reader's request to it is lost, the phase stalls, and no
        // further death exists for the detector to recover from.
        let from = live_target(w, from);
        let to = live_target(w, to);
        if from == to {
            return;
        }
        let bytes = w.localities[from].dim.export_migration(item, region);
        let new_src_owned = w.localities[from].dim.owned_region(item);
        let hops1 = index_update(w, now, item, from, new_src_owned);
        w.localities[to].dim.import_owned(item, &bytes);
        let new_dst_owned = w.localities[to].dim.owned_region(item);
        let hops2 = index_update(w, now, item, to, new_dst_owned);
        // Driver-initiated migration is synchronous bookkeeping; a lost
        // transfer only truncates the billing (recovery restores any
        // halfway state from the checkpoint).
        let wire = seal_payload(w, bytes);
        let tag = Payload::data(TransferPurpose::Migrate, None, item);
        let sent = send_msg(w, now, from, to, wire.len(), tag, false);
        if let Some(d) = sent {
            if !d.intact {
                // Silent-corruption baseline: what actually arrived
                // replaces the optimistically imported copy.
                let data = open_payload(w, &wire, false);
                w.localities[to].dim.import_owned(item, &data);
            }
        }
        let t = sent.map(|d| d.at).unwrap_or(now);
        bill_hops(w, t, &hops1, Some(item));
        bill_hops(w, t, &hops2, Some(item));
        w.monitor.per_locality[to].migrations_in += 1;
    }

    /// Snapshot the owned data of every item on every locality — the
    /// resilience manager's checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            per_locality: self
                .world
                .localities
                .iter()
                .map(|l| l.dim.checkpoint())
                .collect(),
        }
    }

    /// Restore a checkpoint taken earlier in this run.
    ///
    /// # Panics
    /// Panics if the snapshot's locality count differs from the runtime's
    /// — restoring such a snapshot would silently drop (or skip) shards.
    pub fn restore(&mut self, snap: &Checkpoint) {
        assert_eq!(
            snap.per_locality.len(),
            self.world.localities.len(),
            "checkpoint shape mismatch: snapshot has {} locality shards, runtime has {} localities",
            snap.per_locality.len(),
            self.world.localities.len(),
        );
        for (loc, data) in self.world.localities.iter_mut().zip(&snap.per_locality) {
            loc.dim.restore(data);
        }
        // Re-advertise ownership in the index. Restore is out-of-band
        // (not billed), but cached resolutions still become stale.
        let items: Vec<ItemId> = self.world.item_descs.keys().copied().collect();
        for item in items {
            self.world.loc_cache.bump(item);
            for p in 0..self.world.localities.len() {
                let owned = self.world.localities[p].dim.owned_region(item);
                self.world.index.update_leaf(item, p, owned);
            }
        }
    }

    /// Test hook: flip a byte in the first non-empty stored shard of each
    /// of the newest `n` retained checkpoints — simulated targeted
    /// at-rest corruption, for exercising the recovery fallback chain
    /// without a fault plan's random rot arm. No-op when resilience is
    /// off or fewer checkpoints are retained.
    #[doc(hidden)]
    pub fn corrupt_newest_checkpoints(&mut self, n: usize) {
        let Some(mgr) = &mut self.world.resilience else {
            return;
        };
        for entry in mgr.saved.iter_mut().rev().take(n) {
            'entry: for row in entry.shards.iter_mut() {
                for (_, bytes) in row.iter_mut() {
                    if !bytes.is_empty() {
                        bytes[0] ^= 0xff;
                        break 'entry;
                    }
                }
            }
        }
    }

    /// Test hook: how many checkpoints (anchor + delta links) the
    /// resilience manager currently retains.
    #[doc(hidden)]
    pub fn retained_checkpoints(&self) -> usize {
        self.world
            .resilience
            .as_ref()
            .map(|m| m.saved.len())
            .unwrap_or(0)
    }

    /// Verify the runtime's distributed state against the formal model's
    /// invariants (paper Section 2.5) at a phase boundary:
    ///
    /// 1. **exclusive ownership** — the owned (primary) regions of every
    ///    item are pairwise disjoint across localities (the distributed
    ///    counterpart of *exclusive writes*: a writable copy exists in at
    ///    most one address space);
    /// 2. **index consistency** — each locality's advertised index leaf
    ///    region equals its data item manager's owned region;
    /// 3. **quiescent locks** — no `Lr`/`Lw` entries survive a phase
    ///    boundary (every (start) was matched by an (end));
    /// 4. **fenced writes** — persistent replicas stay backed: every
    ///    persistent export record still lies inside its recorder's owned
    ///    region (the broadcast source was not migrated or written away),
    ///    and every persistent replica is covered by the union of such
    ///    fences. A recovery that restores data without resetting replica
    ///    bookkeeping — or a driver migrating a broadcast region — trips
    ///    this check.
    ///
    /// Returns a list of violations (empty = consistent). Used by the
    /// cross-crate model-conformance tests.
    pub fn verify_consistency(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let items: Vec<ItemId> = self.world.item_descs.keys().copied().collect();
        let nodes = self.world.localities.len();
        for item in items {
            // 1. Pairwise disjoint ownership.
            for a in 0..nodes {
                let ra = self.world.localities[a].dim.owned_region(item);
                for b in a + 1..nodes {
                    let rb = self.world.localities[b].dim.owned_region(item);
                    let overlap = ra.intersect_dyn(rb.as_ref());
                    if !overlap.is_empty_dyn() {
                        violations.push(format!(
                            "item {item:?}: localities {a} and {b} both own {overlap:?}"
                        ));
                    }
                }
            }
            // 2. Index leaves match DIM ownership.
            if let IndexImpl::Dist(idx) = &self.world.index {
                for p in 0..nodes {
                    let advertised = idx.leaf_region(item, p);
                    let owned = self.world.localities[p].dim.owned_region(item);
                    if !advertised.eq_dyn(owned.as_ref()) {
                        violations.push(format!(
                            "item {item:?}: index leaf of locality {p} disagrees with DIM                              (index {advertised:?} vs owned {owned:?})"
                        ));
                    }
                }
            }
            // 3. No locks held between phases.
            for (p, loc) in self.world.localities.iter().enumerate() {
                if loc.dim.has_locks(item) {
                    violations.push(format!(
                        "item {item:?}: locality {p} still holds locks at a phase boundary"
                    ));
                }
            }
            // 4. Fenced writes: persistent replicas stay backed by their
            //    exporter's owned data.
            let mut fences: Option<Box<dyn DynRegion>> = None;
            for (p, loc) in self.world.localities.iter().enumerate() {
                let fence = loc.dim.persistent_export_region(item);
                let stray = fence.difference_dyn(loc.dim.owned_region(item).as_ref());
                if !stray.is_empty_dyn() {
                    violations.push(format!(
                        "item {item:?}: locality {p} exported {stray:?} as a persistent replica but no longer owns it (fenced region migrated or written away)"
                    ));
                }
                fences = Some(match fences {
                    None => fence,
                    Some(f) => f.union_dyn(fence.as_ref()),
                });
            }
            if let Some(fences) = fences {
                for (p, loc) in self.world.localities.iter().enumerate() {
                    let orphan = loc
                        .dim
                        .persistent_region(item)
                        .difference_dyn(fences.as_ref());
                    if !orphan.is_empty_dyn() {
                        violations.push(format!(
                            "item {item:?}: locality {p} holds persistent replica {orphan:?} with no backing export fence"
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Plan and apply an automatic rebalancing of a grid item distributed
    /// in axis-0 bands (see [`crate::rebalance`]): observed busy times
    /// since the start of the run drive a migration plan equalizing
    /// predicted time. Returns the number of migrations performed.
    pub fn auto_rebalance<const D: usize>(&mut self, item: ItemId, trigger: f64) -> usize {
        let busy = self.busy_ns();
        let owned: Vec<allscale_region::BoxRegion<D>> = (0..self.world.localities.len())
            .map(|l| {
                self.world.localities[l]
                    .dim
                    .owned_region(item)
                    .as_any()
                    .downcast_ref::<allscale_region::BoxRegion<D>>()
                    .expect("auto_rebalance requires a grid item")
                    .clone()
            })
            .collect();
        let plan = crate::rebalance::plan_rebalance(&busy, &owned, trigger);
        let n = plan.len();
        for m in plan {
            self.migrate_region(item, &m.region, m.from, m.to);
        }
        n
    }

    /// Per-locality busy nanoseconds so far (load-balancing input).
    pub fn busy_ns(&self) -> Vec<u64> {
        self.world
            .monitor
            .per_locality
            .iter()
            .map(|l| l.busy_ns)
            .collect()
    }
}

/// A full-application data snapshot (resilience manager payload).
#[derive(Clone)]
pub struct Checkpoint {
    pub(crate) per_locality: Vec<Vec<(ItemId, Vec<u8>)>>,
}

impl Checkpoint {
    /// Total serialized size of the snapshot.
    pub fn bytes(&self) -> usize {
        self.per_locality
            .iter()
            .flat_map(|l| l.iter().map(|(_, b)| b.len()))
            .sum()
    }
}

/// An asynchronous checkpoint in flight: the copy-on-write capture was
/// armed at a phase boundary, the storage drain is running in the
/// background, and a scheduled event commits the checkpoint when the
/// slower tier finishes. Discarded as *torn* if a recovery strikes
/// first — a partially drained checkpoint is never restored from.
struct PendingCkpt {
    /// Phase counter at the arming boundary.
    phase: usize,
    /// Full anchor or delta against the previous checkpoint.
    kind: CkptKind,
    /// Items each locality will store (changed shards only, for a
    /// delta), ascending.
    plan: Vec<Vec<ItemId>>,
    /// Boundary fingerprints per locality: `item -> (fp, len)` — becomes
    /// the manager's change-detection reference at commit.
    fps: Vec<BTreeMap<ItemId, (u64, u64)>>,
    /// When the capture was armed.
    started: SimTime,
    /// When the slower storage tier finishes draining.
    completes_at: SimTime,
    /// `Monitor::total_tasks()` at the boundary.
    tasks_done: u64,
    /// Full boundary-state bytes the checkpoint represents.
    logical_bytes: u64,
    /// Bytes actually written to each tier (delta shards only).
    stored_bytes: u64,
    /// Shards actually written (sum over localities).
    stored_shards: u64,
}

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
        let mut net = Network::new(config.spec.build_topology(), config.spec.net.clone());
        if let Some(plan) = config.faults {
            net.install_faults(plan);
        }
        if config.integrity.is_some_and(|i| i.verify_transfers) {
            net.set_integrity(true);
        }
        net.install_trace(trace.clone());
        let localities = (0..nodes)
            .map(|i| Locality {
                cores: CorePool::new(config.spec.cores_per_node),
                dim: DataItemManager::new(i),
                load: 0,
                comm_busy: SimTime::ZERO,
            })
            .collect();
        let index = if config.central_index {
            IndexImpl::Central(CentralIndex::new(nodes))
        } else {
            IndexImpl::Dist(DistIndex::new(nodes))
        };
        let batching = config.spec.net.batching;
        let scheduler: Box<dyn Scheduler> = match config.stealing {
            Some(cfg) => Box::new(WorkStealingScheduler::new(
                config.policy,
                cfg,
                nodes,
                config.spec.cores_per_node,
            )),
            None => Box::new(DataAwareScheduler::new(config.policy)),
        };
        let world = RtWorld {
            spec: config.spec,
            net,
            cost: config.cost,
            localities,
            monitor: Monitor::new(nodes),
            index,
            loc_cache: LocationCache::new(),
            item_descs: BTreeMap::new(),
            inflight: BTreeMap::new(),
            parents: BTreeMap::new(),
            wakeups: Wakeups::default(),
            next_task: 0,
            next_item: 0,
            scheduler,
            driver: None,
            phase: 0,
            finish_time: SimTime::ZERO,
            done: false,
            resilience: config
                .resilience
                .map(|cfg| ResilienceManager::new(cfg, nodes)),
            pending_ckpt: None,
            integrity: config.integrity.map(IntegrityManager::new),
            dead: vec![false; nodes],
            run_epoch: 0,
            retry_policy: config
                .resilience
                .map(|cfg| cfg.retry)
                .unwrap_or_default(),
            trace,
            batching,
            coalescer: Coalescer::new(batching.unwrap_or_default()),
            next_batch: 0,
            pending_serve: None,
            serving: None,
        };
        let sim = Sim::new(world);
        Runtime { sim }
    }

    /// Run an application to completion; returns the run report.
    ///
    /// # Panics
    /// Panics if the application deadlocks (tasks parked forever).
    pub fn run(mut self, driver: impl AppDriver) -> RunReport {
        self.sim.world.driver = Some(Box::new(driver));
        self.sim.schedule(SimDuration::ZERO, |sim| {
            advance_phase(sim, None);
        });
        if let Some(mgr) = &self.sim.world.resilience {
            let period = mgr.cfg.heartbeat_period;
            self.sim.schedule(period, heartbeat_tick);
        }
        if let Some(period) = self.sim.world.integrity.as_ref().and_then(|m| m.cfg.scrub_period) {
            self.sim.schedule(period, scrub_tick);
        }
        self.sim.run();
        self.sim.world.monitor.cache = self.sim.world.loc_cache.stats();
        self.sim.world.monitor.resilience.net_retries = self.sim.world.net.stats().retries;
        self.sim.world.monitor.resilience.net_dropped = self.sim.world.net.stats().dropped;
        {
            let wire = self.sim.world.net.stats().clone();
            let g = &mut self.sim.world.monitor.integrity;
            g.wire_corruptions = wire.corrupted;
            g.wire_detected = wire.corrupt_detected;
            g.wire_undetected = wire.corrupt_undetected;
            g.re_requests = wire.re_requests;
        }
        let w = &self.sim.world;
        assert!(
            w.inflight.is_empty() && w.parents.is_empty(),
            "{}",
            deadlock_report(w)
        );
        RunReport {
            finish_time: w.finish_time,
            phases: w.phase,
            monitor: w.monitor.clone(),
            remote_msgs: w.net.stats().remote_msgs(),
            remote_bytes: w.net.stats().remote_bytes(),
            traffic: w.net.stats().clone(),
            storage: w
                .resilience
                .as_ref()
                .map(|m| m.storage.stats.clone())
                .unwrap_or_default(),
            events: self.sim.events_run(),
            trace: w.trace.take(),
        }
    }
}

/// The panic message of a run whose event queue drained with work left:
/// the three counts, then up to 8 parked tasks with what each waits on
/// and who currently holds it, so a missed wake-up (a waiter whose
/// holders list is empty) is diagnosable from the message alone.
fn deadlock_report(w: &RtWorld) -> String {
    use std::fmt::Write;
    const SHOWN: usize = 8;
    let mut out = format!(
        "runtime deadlock: {} tasks in flight, {} parents pending, {} parked ({} woken but never retried)",
        w.inflight.len(),
        w.parents.len(),
        w.wakeups.waiting,
        w.wakeups.woken.len()
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
    if w.wakeups.waiting > SHOWN {
        let _ = write!(out, "\n  ... and {} more", w.wakeups.waiting - SHOWN);
    }
    out
}

// ------------------------------------------------------------------ billing

/// Semantic tag carried by every [`send`]: why the message crosses the
/// wire and which task/item it feeds. Recorded on transfer trace events
/// and used by the critical-path analyzer to attribute chain time.
#[derive(Clone, Copy)]
struct Payload {
    purpose: TransferPurpose,
    task: Option<TaskId>,
    item: Option<ItemId>,
}

impl Payload {
    /// A message feeding `task` (forward, result, release).
    fn task(purpose: TransferPurpose, task: TaskId) -> Self {
        Payload {
            purpose,
            task: Some(task),
            item: None,
        }
    }

    /// A data movement of `item`, optionally feeding `task`.
    fn data(purpose: TransferPurpose, task: Option<TaskId>, item: ItemId) -> Self {
        Payload {
            purpose,
            task,
            item: Some(item),
        }
    }
}

/// Record an epoch-stamped instant on `loc`'s runtime track. `kind` is a
/// small `Copy` value, so building it costs a few register moves even
/// when the sink is disabled; the sink itself adds one branch.
fn trace_instant(w: &RtWorld, now: SimTime, loc: usize, kind: EventKind) {
    let epoch = w.run_epoch;
    w.trace
        .record(|| TraceEvent::instant(now.as_nanos(), loc as u32, kind).in_epoch(epoch));
}

/// Record an epoch-stamped span occupying `core` of `loc`.
fn trace_core_span(
    w: &RtWorld,
    start: SimTime,
    dur: SimDuration,
    loc: usize,
    core: usize,
    kind: EventKind,
) {
    let epoch = w.run_epoch;
    w.trace.record(|| {
        TraceEvent::span(start.as_nanos(), dur.as_nanos(), loc as u32, kind)
            .on_core(core)
            .in_epoch(epoch)
    });
}

/// Bill a message on the network and in the monitor; returns the arrival
/// time, or `None` when the message was lost for good — the destination
/// (or source) is dead, or every retry attempt was dropped. Attempts and
/// backoff latency are billed on the simulated clock by the network's
/// retry wrapper; a definitive loss is counted in the resilience stats
/// and leaves the work it carried stranded until recovery reaps it.
///
/// Remote deliveries land in the monitor's transfer-latency histogram
/// (tracing on or off) and, when the sink is enabled, as a transfer span
/// attributed to the destination locality; definitive losses become
/// `TransferLost` instants at the sender.
fn send(
    w: &mut RtWorld,
    now: SimTime,
    from: usize,
    to: usize,
    bytes: usize,
    tag: Payload,
) -> Option<SimTime> {
    send_msg(w, now, from, to, bytes, tag, false).map(|d| d.at)
}

/// [`send`] with an explicit `gate` switch: when set, a remote delivery
/// additionally serializes through the destination's communication
/// thread (the LogP `o` term — see [`handle_msg`]) and the returned time
/// is handling-complete rather than wire arrival. The deferred-send path
/// gates in both batched and unbatched modes, so the two stay comparable;
/// synchronous callers ([`send`]) do not gate.
///
/// The returned [`Delivered`] carries the wire's integrity verdict:
/// `intact` is `false` only when a corrupting fault plan runs with
/// checksum verification off — verification on turns a corrupt delivery
/// into a re-request inside the retry loop, so a verified delivery is
/// always intact.
fn send_msg(
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
    match w
        .net
        .transfer_with_retry_frame(now, from, to, bytes, &w.retry_policy)
    {
        Ok(delivered) => {
            let arrival = delivered.at;
            if from != to {
                let end = if gate { handle_msg(w, to, arrival) } else { arrival };
                w.monitor.transfer_latency.record((end - now).as_nanos());
                let epoch = w.run_epoch;
                w.trace.record(|| {
                    TraceEvent::span(
                        now.as_nanos(),
                        (end - now).as_nanos(),
                        to as u32,
                        EventKind::Transfer {
                            purpose: tag.purpose,
                            src: from as u32,
                            dst: to as u32,
                            bytes: bytes as u64,
                            task: tag.task.map(|t| t.0),
                            item: tag.item.map(|i| i.0),
                            batch: None,
                        },
                    )
                    .in_epoch(epoch)
                });
                Some(Delivered {
                    at: end,
                    intact: delivered.intact,
                })
            } else {
                Some(delivered)
            }
        }
        Err(_) => {
            w.monitor.resilience.failed_transfers += 1;
            let epoch = w.run_epoch;
            w.trace.record(|| {
                TraceEvent::instant(
                    now.as_nanos(),
                    from as u32,
                    EventKind::TransferLost {
                        purpose: tag.purpose,
                        src: from as u32,
                        dst: to as u32,
                        bytes: bytes as u64,
                        task: tag.task.map(|t| t.0),
                    },
                )
                .in_epoch(epoch)
            });
            None
        }
    }
}

/// Serialize one incoming runtime message through `to`'s communication
/// thread: handling starts once the message has arrived *and* the thread
/// is free, and occupies it for the per-message CPU overhead. Returns
/// the handling-complete time. This per-message serial cost is what a
/// batch amortizes — a flush of `n` messages pays it once.
fn handle_msg(w: &mut RtWorld, to: usize, arrival: SimTime) -> SimTime {
    let start = w.localities[to].comm_busy.max(arrival);
    let end = start + w.cost.msg_cpu();
    w.localities[to].comm_busy = end;
    end
}

// ---------------------------------------------------------------- integrity

/// Whether transfer verification is on: data payloads are framed with a
/// checksum and opened at the receiver.
fn verify_on(w: &RtWorld) -> bool {
    w.integrity.as_ref().is_some_and(|m| m.cfg.verify_transfers)
}

/// Wrap a data payload for the wire. With transfer verification on, the
/// payload is sealed under its FNV-1a checksum (the framed length —
/// payload plus [`frame::FRAME_OVERHEAD`] — is what gets billed);
/// otherwise the bytes travel bare. Control messages are not sealed
/// individually: their fixed `control_msg_bytes` size already stands for
/// a fully framed wire message.
fn seal_payload(w: &RtWorld, payload: Vec<u8>) -> Vec<u8> {
    if verify_on(w) {
        frame::seal(&payload)
    } else {
        payload
    }
}

/// Recover the payload of an arrived data transfer. With verification
/// on, the frame is opened and checked — the network never delivers a
/// corrupt message in that mode (it re-requests instead), so a mismatch
/// here would be an *undetected* corruption and the check is the
/// zero-undetected oracle. With verification off, a delivery flagged
/// non-intact has the wire's bit flip applied to the raw bytes: the
/// receiver consumes poison without noticing (the ablation baseline).
fn open_payload(w: &mut RtWorld, wire: &[u8], intact: bool) -> Vec<u8> {
    if verify_on(w) {
        return frame::open(wire)
            .expect("verified transfer delivered a corrupt frame (undetected corruption)")
            .to_vec();
    }
    let mut payload = wire.to_vec();
    if !intact {
        let salt = w.net.faults_mut().map(|f| f.corruption_salt()).unwrap_or(1);
        frame::corrupt_in_place(&mut payload, salt);
    }
    payload
}

/// Draw from the fault plan's at-rest rot arm for a buffer entering
/// long-lived storage (a persistent replica or a checkpoint shard); a
/// strike flips one bit. No-op (and no generator advance) unless the
/// fault plan configures rot.
fn rot_payload(w: &mut RtWorld, bytes: &mut [u8]) {
    let Some(f) = w.net.faults_mut() else { return };
    if f.rot_strikes() {
        let salt = f.corruption_salt();
        frame::corrupt_in_place(bytes, salt);
        w.monitor.integrity.rot_injected += 1;
    }
}

/// A runtime message parked in the coalescer: its semantic tag plus the
/// continuation to run once the batch carrying it is delivered (`Some`
/// handling-complete time) or definitively lost (`None`).
struct PendingMsg {
    tag: Payload,
    deliver: DeliverFn,
}

/// Continuation run when a batched message is delivered or lost.
type DeliverFn = Box<dyn FnOnce(&mut RtSim, Option<Delivered>)>;

/// Send a runtime message through the batching layer. With batching off
/// it is billed immediately ([`send_msg`] gated on the destination's
/// comm thread) and `deliver` is scheduled for the handling-complete
/// time; with batching on it is enqueued in the per-(src, dst) coalescer
/// and `deliver` fires when the batch flushes — at the flush-window
/// deadline, or immediately when a byte or message cap closes the batch.
/// `deliver` receives `None` when the message (or the whole batch
/// carrying it) is definitively lost; loss continuations run
/// synchronously.
fn send_deferred(
    sim: &mut RtSim,
    from: usize,
    to: usize,
    bytes: usize,
    tag: Payload,
    deliver: impl FnOnce(&mut RtSim, Option<Delivered>) + 'static,
) {
    debug_assert_ne!(from, to, "deferred sends are remote-only");
    let now = sim.now();
    if sim.world.batching.is_none() {
        match send_msg(&mut sim.world, now, from, to, bytes, tag, true) {
            Some(handled) => {
                schedule_task_event(sim, handled.at, move |sim| deliver(sim, Some(handled)))
            }
            None => deliver(sim, None),
        }
        return;
    }
    // Sender-side accounting happens at enqueue time; the wire is billed
    // once per flush.
    sim.world.monitor.per_locality[from].msgs_sent += 1;
    sim.world.monitor.per_locality[from].bytes_sent += bytes as u64;
    let msg = PendingMsg {
        tag,
        deliver: Box::new(deliver),
    };
    match sim.world.coalescer.enqueue(now, from, to, bytes, msg) {
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
            let eager = sim.world.net.tx_free_at(from).max(now);
            let fire = eager.min(deadline);
            schedule_task_event(sim, fire, move |sim| {
                if let Some(batch) = sim.world.coalescer.take_if_gen(from, to, gen) {
                    flush_batch(sim, batch);
                }
            });
        }
        Enqueue::Full => {
            let batch = sim
                .world
                .coalescer
                .take(from, to)
                .expect("cap-flushed batch present");
            flush_batch(sim, batch);
        }
    }
}

/// Put a closed batch on the wire as one priced message and fire every
/// member's continuation at the batch's handling-complete time. A fault
/// verdict applies to the whole flush: on a definitive loss, every
/// member's continuation fires with `None`.
fn flush_batch(sim: &mut RtSim, batch: Batch<PendingMsg>) {
    let now = sim.now();
    let src = batch.src;
    let dst = batch.dst;
    let msgs = batch.entries.len() as u64;
    let id = sim.world.next_batch;
    sim.world.next_batch += 1;
    let outcome = {
        let w = &mut sim.world;
        w.net
            .transfer_batch_frame(now, src, dst, batch.bytes, msgs, batch.cause, &w.retry_policy)
    };
    match outcome {
        Ok(delivered) => {
            let w = &mut sim.world;
            let handled = handle_msg(w, dst, delivered.at);
            let intact = delivered.intact;
            let epoch = w.run_epoch;
            w.trace.record(|| {
                TraceEvent::span(
                    now.as_nanos(),
                    (handled - now).as_nanos(),
                    dst as u32,
                    EventKind::BatchFlush {
                        src: src as u32,
                        dst: dst as u32,
                        msgs: msgs as u32,
                        bytes: batch.bytes as u64,
                        cause: batch.cause,
                        batch: id,
                    },
                )
                .in_epoch(epoch)
            });
            for e in &batch.entries {
                // Per-member latency runs from its enqueue to the flush's
                // handling-complete time: the batching wait is transfer
                // time, and the critical path attributes it as such.
                let at = e.at.min(handled);
                w.monitor.transfer_latency.record((handled - at).as_nanos());
                let tag = e.payload.tag;
                let bytes = e.bytes;
                w.trace.record(|| {
                    TraceEvent::span(
                        at.as_nanos(),
                        (handled - at).as_nanos(),
                        dst as u32,
                        EventKind::Transfer {
                            purpose: tag.purpose,
                            src: src as u32,
                            dst: dst as u32,
                            bytes: bytes as u64,
                            task: tag.task.map(|t| t.0),
                            item: tag.item.map(|i| i.0),
                            batch: Some(id),
                        },
                    )
                    .in_epoch(epoch)
                });
            }
            let entries = batch.entries;
            schedule_task_event(sim, handled, move |sim| {
                // The wire verdict applies to the whole flush: one frame
                // carried every member.
                let arrival = Delivered {
                    at: handled,
                    intact,
                };
                for e in entries {
                    (e.payload.deliver)(sim, Some(arrival));
                }
            });
        }
        Err(_) => {
            for e in batch.entries {
                let PendingMsg { tag, deliver } = e.payload;
                let w = &mut sim.world;
                w.monitor.resilience.failed_transfers += 1;
                let epoch = w.run_epoch;
                w.trace.record(|| {
                    TraceEvent::instant(
                        now.as_nanos(),
                        src as u32,
                        EventKind::TransferLost {
                            purpose: tag.purpose,
                            src: src as u32,
                            dst: dst as u32,
                            bytes: e.bytes as u64,
                            task: tag.task.map(|t| t.0),
                        },
                    )
                    .in_epoch(epoch)
                });
                deliver(sim, None);
            }
        }
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
fn bill_hops(w: &mut RtWorld, mut now: SimTime, hops: &[Hop], item: Option<ItemId>) -> SimTime {
    let bytes = w.cost.control_msg_bytes;
    let cpu = w.cost.msg_cpu();
    for &(a, b) in hops {
        let tag = Payload {
            purpose: TransferPurpose::Control,
            task: None,
            item,
        };
        match send(w, now, a, b, bytes, tag) {
            Some(arrival) => now = arrival,
            None => return now,
        }
        let start = w.localities[b].comm_busy.max(now);
        let end = start + cpu;
        w.localities[b].comm_busy = end;
        now = end;
    }
    now
}

/// Schedule a task-lifecycle event guarded by the current recovery epoch:
/// if a recovery happens before the event fires, it becomes a no-op. This
/// is how an entire in-flight phase is discarded — its completions,
/// transfer arrivals, and retries are all stale after the world is
/// rewound to the checkpoint.
fn schedule_task_event(
    sim: &mut RtSim,
    at: SimTime,
    f: impl FnOnce(&mut RtSim) + 'static,
) {
    let epoch = sim.world.run_epoch;
    sim.schedule_at(at, move |sim| {
        if sim.world.run_epoch == epoch {
            f(sim);
        }
    });
}

/// Remap a scheduling target away from localities known to be dead. The
/// detector's knowledge only — an undetected death is *not* remapped (the
/// runtime cannot know), so tasks sent there are lost and stall the phase
/// until the heartbeat detector catches up.
fn live_target(w: &RtWorld, target: usize) -> usize {
    if w.dead[target] {
        live_successor(w, target)
    } else {
        target
    }
}

/// The next live locality after `p` on the ring (successor heir rule).
/// At least one live locality must remain — the runtime does not model
/// whole-cluster loss.
fn live_successor(w: &RtWorld, p: usize) -> usize {
    let nodes = w.localities.len();
    (1..nodes)
        .map(|d| (p + d) % nodes)
        .find(|&q| !w.dead[q])
        .expect("at least one live locality")
}

/// The locality hosting the cluster-global duties (failure detection,
/// phase driving): the lowest-indexed locality not declared dead.
/// Identical to locality 0 until 0 itself is declared dead — the duties
/// then fail over to the next survivor instead of dying with their host
/// (the detector is no longer a single point of failure).
fn detector_host(w: &RtWorld) -> usize {
    w.dead.iter().position(|d| !d).unwrap_or(0)
}

/// Resolve `region` of `item` from locality `at`, going through the
/// location cache when the hierarchical index is active: hits cost no
/// control messages, misses pay Algorithm 1's traversal hops. The lookup
/// (and its hops) is counted in the monitor either way; billing the hops
/// on the network stays with the caller.
fn index_resolve(
    w: &mut RtWorld,
    now: SimTime,
    item: ItemId,
    at: usize,
    region: &dyn DynRegion,
) -> (Resolution, Vec<Hop>) {
    let (pieces, hops) = match &w.index {
        IndexImpl::Dist(idx) => w.loc_cache.resolve(idx, item, at, region),
        IndexImpl::Central(idx) => idx.resolve(item, at, region),
    };
    w.monitor.index_lookups += 1;
    w.monitor.index_lookup_hops += hops.len() as u64;
    trace_instant(
        w,
        now,
        at,
        EventKind::IndexLookup {
            item: item.0,
            hops: hops.len() as u32,
            cache_hit: hops.is_empty(),
        },
    );
    (pieces, hops)
}

/// Update locality `p`'s advertised region of `item` in the index,
/// invalidating the item's cached resolutions (epoch bump) *before* the
/// update becomes visible — the cache must never serve a pre-update owner.
/// Counts the propagation hops in the monitor; billing stays with the
/// caller.
fn index_update(
    w: &mut RtWorld,
    now: SimTime,
    item: ItemId,
    p: usize,
    region: Box<dyn DynRegion>,
) -> Vec<Hop> {
    w.loc_cache.bump(item);
    let hops = w.index.update_leaf(item, p, region);
    w.monitor.index_update_hops += hops.len() as u64;
    trace_instant(
        w,
        now,
        p,
        EventKind::IndexUpdate {
            item: item.0,
            hops: hops.len() as u32,
        },
    );
    hops
}

fn policy_env(w: &RtWorld) -> (usize, usize, Vec<usize>) {
    (
        w.localities.len(),
        w.spec.cores_per_node,
        w.localities.iter().map(|l| l.load).collect(),
    )
}

// ------------------------------------------------------------- phase driver

fn advance_phase(sim: &mut RtSim, prev: TaskValue) {
    if let Some(resume) = maybe_checkpoint(sim, prev.is_none()) {
        // The boundary stalls — a synchronous drain, an incremental
        // change-detection scan, or a write-fence on the previous drain
        // — and re-enters itself once the stall lifts.
        schedule_task_event(sim, resume, move |sim| advance_phase(sim, prev));
        return;
    }
    let phase = sim.world.phase;
    let now = sim.now();
    // Phase orchestration is hosted by the detector locality: the lowest-
    // indexed live one (locality 0 until a recovery declares it dead).
    let home = detector_host(&sim.world);
    if phase > 0 {
        trace_instant(
            &sim.world,
            now,
            home,
            EventKind::PhaseEnd {
                phase: phase as u32 - 1,
            },
        );
    }
    let mut driver = sim.world.driver.take().expect("driver present");
    let next = {
        let mut ctx = RtCtx {
            world: &mut sim.world,
            now,
        };
        driver.next_phase(phase, &mut ctx, prev)
    };
    sim.world.driver = Some(driver);
    match next {
        Some(root) => {
            trace_instant(
                &sim.world,
                now,
                home,
                EventKind::PhaseBegin {
                    phase: phase as u32,
                },
            );
            sim.world.phase += 1;
            assign_task(sim, home, root, None);
        }
        None => {
            if let Some(spec) = sim.world.pending_serve.take() {
                // The driver registered a serving phase instead of a
                // root work item: run it as this phase.
                trace_instant(
                    &sim.world,
                    now,
                    home,
                    EventKind::PhaseBegin {
                        phase: phase as u32,
                    },
                );
                sim.world.phase += 1;
                start_serving(sim, spec);
            } else {
                sim.world.done = true;
                sim.world.finish_time = sim.now();
            }
        }
    }
}

// --------------------------------------------------------------- resilience

/// Drive the checkpoint pipeline at a phase boundary. Returns `Some(t)`
/// when the boundary must stall until `t` (a synchronous drain, the
/// incremental change-detection scan, or a write-fence on a still-
/// running previous drain) — the caller reschedules itself and re-enters.
/// Returns `None` when the phase may proceed immediately.
///
/// Boundaries whose phase value is `Some` never checkpoint: `TaskValue`
/// is an opaque `Box<dyn Any>` that cannot be serialized into the
/// checkpoint, so the replay (which feeds `None`) would not be faithful.
/// Drivers that thread values between phases simply get coarser
/// checkpoints.
fn maybe_checkpoint(sim: &mut RtSim, prev_is_none: bool) -> Option<SimTime> {
    sim.world.resilience.as_ref()?;
    let now = sim.now();
    let phase = sim.world.phase;
    if let Some(p) = &sim.world.pending_ckpt {
        if p.phase == phase {
            // Re-entry into the boundary that armed this capture (stall
            // resume, or a same-instant scheduling race with the commit
            // event): commit if the drain is done, else let the phase
            // run alongside its own background drain.
            if p.completes_at <= now {
                commit_pending_ckpt(sim);
            }
            return None;
        }
        if p.completes_at > now {
            // The previous drain has not landed by this boundary:
            // write-fence. The boundary stalls until the commit, which
            // also keeps captures strictly one-at-a-time.
            let wait = p.completes_at - now;
            let (pphase, until) = (p.phase, p.completes_at);
            let w = &mut sim.world;
            w.monitor.resilience.ckpt_fence_ns += wait.as_nanos();
            let host = detector_host(w);
            let epoch = w.run_epoch;
            w.trace.record(|| {
                TraceEvent::span(
                    now.as_nanos(),
                    wait.as_nanos(),
                    host as u32,
                    EventKind::CheckpointFence {
                        phase: pphase as u32,
                    },
                )
                .in_epoch(epoch)
            });
            return Some(until);
        }
        // Drain finished but its commit event has not fired yet at this
        // exact instant: commit inline (the scheduled event no-ops).
        commit_pending_ckpt(sim);
    }
    let due = {
        let mgr = sim.world.resilience.as_ref().expect("resilience enabled");
        prev_is_none && mgr.due(phase)
    };
    if !due {
        return None;
    }
    // ---- capture: fingerprint the boundary and arm the COW snapshot.
    let fps: Vec<BTreeMap<ItemId, (u64, u64)>> = sim
        .world
        .localities
        .iter()
        .map(|l| {
            l.dim
                .owned_fingerprints()
                .into_iter()
                .map(|(id, fp, len)| (id, (fp, len)))
                .collect()
        })
        .collect();
    let logical_bytes: u64 = fps
        .iter()
        .flat_map(|m| m.values().map(|&(_, len)| len))
        .sum();
    let tasks_done = sim.world.monitor.total_tasks();
    let w = &mut sim.world;
    let mgr = w.resilience.as_mut().expect("resilience enabled");
    let kind = mgr.next_kind();
    let mode = mgr.cfg.ckpt.mode;
    // The change-detection scan is billed (at memory-bandwidth rate)
    // only when incremental checkpointing actually consumes it.
    let fp_ns = if mgr.cfg.ckpt.incremental {
        mgr.storage.fingerprint_ns(logical_bytes)
    } else {
        0
    };
    let plan: Vec<Vec<ItemId>> = match kind {
        CkptKind::Anchor => fps.iter().map(|m| m.keys().copied().collect()).collect(),
        CkptKind::Delta => fps
            .iter()
            .zip(&mgr.last_fps)
            .map(|(cur, last)| {
                cur.iter()
                    .filter(|(id, sig)| last.get(id) != Some(sig))
                    .map(|(id, _)| *id)
                    .collect()
            })
            .collect(),
    };
    // Both tiers are written (fast local restore + death-surviving
    // remote replica); one locality's shards drain sequentially through
    // each tier channel, distinct localities drain in parallel — the
    // drain completes when the slowest locality's slower tier does.
    let mut drain_ns = 0u64;
    let mut stored_bytes = 0u64;
    let mut stored_shards = 0u64;
    for (loc, ids) in plan.iter().enumerate() {
        let bytes: u64 = ids.iter().map(|id| fps[loc][id].1).sum();
        let shards = ids.len() as u64;
        stored_bytes += bytes;
        stored_shards += shards;
        let local = mgr.storage.write_ns(StorageTier::Local, shards, bytes);
        let remote = mgr.storage.write_ns(StorageTier::Remote, shards, bytes);
        drain_ns = drain_ns.max(local.max(remote));
    }
    w.monitor.resilience.ckpt_fp_ns += fp_ns;
    w.monitor.resilience.ckpt_drain_ns += drain_ns;
    let completes_at = now + SimDuration::from_nanos(fp_ns + drain_ns);
    for l in w.localities.iter_mut() {
        l.dim.arm_snapshot();
    }
    w.pending_ckpt = Some(PendingCkpt {
        phase,
        kind,
        plan,
        fps,
        started: now,
        completes_at,
        tasks_done,
        logical_bytes,
        stored_bytes,
        stored_shards,
    });
    let host = detector_host(w);
    trace_instant(
        w,
        now,
        host,
        EventKind::Checkpoint {
            phase: phase as u32,
            bytes: logical_bytes,
        },
    );
    schedule_task_event(sim, completes_at, commit_pending_ckpt);
    match mode {
        CkptMode::Sync => {
            // The classic blocking checkpoint: the boundary stalls for
            // the scan plus the full drain.
            sim.world.monitor.resilience.ckpt_stall_ns += fp_ns + drain_ns;
            Some(completes_at)
        }
        CkptMode::Async => {
            // Only the change-detection scan happens at the boundary;
            // the drain overlaps the next phase's compute.
            if fp_ns > 0 {
                Some(now + SimDuration::from_nanos(fp_ns))
            } else {
                None
            }
        }
    }
}

/// Commit the in-flight checkpoint: finish the copy-on-write capture
/// (lazily serializing everything the phase never touched), keep only
/// the planned shards, checksum them pre-rot, and hand the link to the
/// resilience manager. Scheduled at the drain's completion time;
/// idempotent (the boundary may have committed inline already) and
/// epoch-guarded (a recovery tears the drain instead).
fn commit_pending_ckpt(sim: &mut RtSim) {
    let Some(p) = sim.world.pending_ckpt.take() else {
        return;
    };
    let now = sim.now();
    debug_assert!(p.completes_at <= now, "commit fired before the drain finished");
    let w = &mut sim.world;
    let full: Vec<Vec<(ItemId, Vec<u8>)>> = w
        .localities
        .iter_mut()
        .map(|l| l.dim.finish_snapshot())
        .collect();
    let cow: u64 = w
        .localities
        .iter_mut()
        .map(|l| l.dim.take_cow_captures())
        .sum();
    w.monitor.resilience.cow_captures += cow;
    // Roster and stored shards come from the *boundary* state; checksums
    // are computed over the in-memory bytes before the stored copy is
    // exposed to at-rest rot, so a rotted shard fails verification at
    // reconstruction time.
    let roster: Vec<Vec<ItemId>> = full
        .iter()
        .map(|shards| shards.iter().map(|(id, _)| *id).collect())
        .collect();
    let mut shards: Vec<Vec<(ItemId, Vec<u8>)>> = Vec::with_capacity(full.len());
    let mut sums: Vec<Vec<u64>> = Vec::with_capacity(full.len());
    for (loc, row) in full.iter().enumerate() {
        let mut kept = Vec::with_capacity(p.plan[loc].len());
        let mut row_sums = Vec::with_capacity(p.plan[loc].len());
        for (id, bytes) in row {
            if p.plan[loc].binary_search(id).is_ok() {
                row_sums.push(fnv1a_64(bytes));
                kept.push((*id, bytes.clone()));
            }
        }
        shards.push(kept);
        sums.push(row_sums);
    }
    let entry = SavedCkpt {
        phase: p.phase,
        kind: p.kind,
        shards,
        sums,
        roster,
    };
    let validate = {
        let mgr = w.resilience.as_ref().expect("resilience enabled");
        mgr.cfg.ckpt.validate_reconstruction
    };
    w.monitor.resilience.checkpoints += 1;
    w.monitor.resilience.checkpoint_bytes += p.stored_bytes;
    w.monitor.resilience.ckpt_logical_bytes += p.logical_bytes;
    match p.kind {
        CkptKind::Anchor => w.monitor.resilience.ckpt_anchors += 1,
        CkptKind::Delta => w.monitor.resilience.ckpt_deltas += 1,
    }
    let mut rows = {
        let mgr = w.resilience.as_mut().expect("resilience enabled");
        mgr.save(entry, p.tasks_done);
        mgr.last_fps = p.fps;
        if validate {
            // Test/debug aid (meaningful without rot injection): the
            // anchor+delta chain must reconstruct the boundary state
            // bit-for-bit.
            let upto = mgr.saved.len() - 1;
            let (snap, _) = reconstruct(&mgr.saved, upto, false)
                .expect("committed chain must reconstruct");
            assert_eq!(
                snap.per_locality, full,
                "delta reconstruction diverged from the full boundary snapshot"
            );
        }
        std::mem::take(&mut mgr.saved.last_mut().expect("entry just saved").shards)
    };
    // At-rest rot strikes the *stored* copy only, after checksums and
    // validation (rot_payload borrows the whole world, so the rows take
    // a round trip out of the manager).
    for row in rows.iter_mut() {
        for (_, bytes) in row.iter_mut() {
            rot_payload(w, bytes);
        }
    }
    w.resilience
        .as_mut()
        .expect("resilience enabled")
        .saved
        .last_mut()
        .expect("entry just saved")
        .shards = rows;
    let host = detector_host(w);
    let epoch = w.run_epoch;
    let dur = now - p.started;
    w.trace.record(|| {
        TraceEvent::span(
            p.started.as_nanos(),
            dur.as_nanos(),
            host as u32,
            EventKind::CheckpointDrain {
                phase: p.phase as u32,
                shards: p.stored_shards as u32,
                bytes: p.stored_bytes,
            },
        )
        .in_epoch(epoch)
    });
}

// ------------------------------------------------------------------ serving

/// Begin the serving phase registered by the driver: install the session
/// and schedule the first open-loop arrival and the first controller
/// tick. Both chains are epoch-guarded, so a recovery mid-phase disarms
/// them wholesale and the replayed driver restarts the stream.
fn start_serving(sim: &mut RtSim, spec: ServeSpec) {
    let now = sim.now();
    let shards = spec.shard_regions.len();
    let mut session = ServeSession::new(spec, now);
    // Replays accumulate into the same per-shard histograms (like
    // `tasks_reexecuted`); only (re)size them on shard-count change.
    if sim.world.monitor.serve.per_shard.len() != shards {
        sim.world.monitor.serve.per_shard = vec![LogHistogram::new(); shards];
    }
    let first = session.gen.next_gap();
    let period = session.slo.control_period;
    sim.world.serving = Some(session);
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
    let Some(mut session) = sim.world.serving.take() else {
        return;
    };
    let req = session.next_req;
    session.next_req += 1;
    let request = session.factory.make(req);
    let shard = request.shard;
    assert!(
        shard < session.shard_regions.len(),
        "request factory produced shard {shard} of {}",
        session.shard_regions.len()
    );
    let nodes = sim.world.localities.len();
    // Frontends take turns admitting requests (a round-robin load
    // balancer in front of the cluster), skipping dead localities.
    let frontend = live_target(&sim.world, (req % nodes as u64) as usize);
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
    if !request.write && session.slo.shed_overload && session.shedding[shard] {
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
                    any |= invalidate_persistent(sim, r.item, r.region.as_ref());
                }
            }
            if any {
                sim.world.monitor.serve.invalidations += 1;
                session.eroded[shard] = true;
            }
        }
        sim.world.monitor.serve.admitted += 1;
        let tid = assign_task(sim, frontend, request.work, None);
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
    if session.next_req < session.max_requests {
        let gap = session.gen.next_gap();
        sim.world.serving = Some(session);
        schedule_task_event(sim, now + gap, serve_arrival);
    } else {
        session.arrivals_done = true;
        sim.world.serving = Some(session);
        maybe_finish_serving(sim);
    }
}

/// Release the persistent export fences overlapping `region` of `item`
/// at every live exporter and drop the matching persistent replicas at
/// every live holder, each notified by a billed control message (the
/// invalidation fan-out). Returns whether any replica state was touched.
/// Like driver-initiated migration, the bookkeeping is synchronous and
/// the messages only bill the traffic.
fn invalidate_persistent(sim: &mut RtSim, item: ItemId, region: &dyn DynRegion) -> bool {
    let now = sim.now();
    let nodes = sim.world.localities.len();
    let mut any = false;
    for p in 0..nodes {
        if sim.world.dead[p] {
            continue;
        }
        let overlap = {
            let dim = &sim.world.localities[p].dim;
            dim.persistent_export_region(item).intersect_dyn(region)
        };
        if overlap.is_empty_dyn() {
            continue;
        }
        any = true;
        let woken = sim.world.localities[p]
            .dim
            .release_persistent_exports(item, overlap.as_ref());
        wake(&mut sim.world, woken);
        for q in 0..nodes {
            if q == p || sim.world.dead[q] {
                continue;
            }
            sim.world.localities[q]
                .dim
                .drop_persistent_region(item, overlap.as_ref());
            let bytes = sim.world.cost.control_msg_bytes;
            let tag = Payload::data(TransferPurpose::Control, None, item);
            let _ = send_msg(&mut sim.world, now, p, q, bytes, tag, false);
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
fn unfence_serving_writes(sim: &mut RtSim, tid: TaskId) -> bool {
    let Some(item) = sim.world.serving.as_ref().map(|s| s.item) else {
        return false;
    };
    let writes: Vec<Box<dyn DynRegion>> = sim.world.inflight[&tid]
        .reqs
        .iter()
        .filter(|r| r.item == item && r.mode == AccessMode::Write)
        .map(|r| r.region.clone_box())
        .collect();
    let mut any = false;
    for region in &writes {
        any |= invalidate_persistent(sim, item, region.as_ref());
    }
    if any {
        sim.world.monitor.serve.invalidations += 1;
        if let Some(session) = sim.world.serving.as_mut() {
            for s in 0..session.shard_regions.len() {
                if session.replicated[s]
                    && writes.iter().any(|w| {
                        !session.shard_regions[s]
                            .intersect_dyn(w.as_ref())
                            .is_empty_dyn()
                    })
                {
                    session.eroded[s] = true;
                }
            }
        }
    }
    any
}

/// Account a completed request root: record its end-to-end latency,
/// emit the request span, and wind the phase down once the stream is
/// drained. Returns false when `tid` is not a serving request (the
/// caller then treats it as a phase root).
fn serve_root_done(sim: &mut RtSim, tid: TaskId) -> bool {
    let now = sim.now();
    let pending = match sim.world.serving.as_mut() {
        Some(s) => s.roots.remove(&tid),
        None => return false,
    };
    let Some(p) = pending else {
        return false;
    };
    let lat = (now - p.arrival).as_nanos();
    if let Some(s) = sim.world.serving.as_mut() {
        s.window[p.shard].record(lat);
    }
    let m = &mut sim.world.monitor.serve;
    m.completed += 1;
    m.latency.record(lat);
    m.per_shard[p.shard].record(lat);
    let epoch = sim.world.run_epoch;
    sim.world.trace.record(|| {
        TraceEvent::span(
            p.arrival.as_nanos(),
            lat,
            p.frontend as u32,
            EventKind::Request {
                req: p.req,
                shard: p.shard as u32,
                write: p.write,
            },
        )
        .in_epoch(epoch)
    });
    maybe_finish_serving(sim);
    true
}

/// End the serving phase once all arrivals are injected and all admitted
/// trees completed, then hand control back to the phase driver.
fn maybe_finish_serving(sim: &mut RtSim) {
    if !sim.world.serving.as_ref().is_some_and(|s| s.finished()) {
        return;
    }
    let session = sim.world.serving.take().expect("serving session");
    let now = sim.now();
    // Accumulates across a mid-phase recovery's replay, like the other
    // re-execution counters — deterministic either way.
    sim.world.monitor.serve.serve_ns += (now - session.started).as_nanos();
    advance_phase(sim, None);
}

/// One SLO controller round: every live locality reports its shard
/// latency windows to the controller host (billed control messages), and
/// the controller acts on each shard — replicating hot ones, arming read
/// shedding, retiring replica sets that stayed cold — then rearms.
fn slo_tick(sim: &mut RtSim) {
    if sim.world.serving.is_none() {
        return; // phase over: stop rearming, let the queue drain
    }
    let now = sim.now();
    let host = detector_host(&sim.world);
    let nodes = sim.world.localities.len();
    for p in 0..nodes {
        if p == host || sim.world.dead[p] {
            continue;
        }
        let bytes = sim.world.cost.control_msg_bytes;
        let tag = Payload {
            purpose: TransferPurpose::Control,
            task: None,
            item: None,
        };
        let _ = send_msg(&mut sim.world, now, p, host, bytes, tag, false);
    }
    let mut session = sim.world.serving.take().expect("serving session");
    let shards = session.shard_regions.len();
    for s in 0..shards {
        let count = session.window[s].tally().count();
        let p99 = session.window[s].p99();
        // Small windows are too noisy to act on (a single straggler
        // would trigger a broadcast).
        let hot = count >= session.slo.min_window && p99 > session.slo.p99_slo_ns;
        if hot {
            sim.world.monitor.serve.slo_violations += 1;
        }
        session.shedding[s] = hot && session.slo.shed_overload;
        if hot
            && session.slo.replicate_hot
            && (!session.replicated[s] || session.eroded[s])
        {
            replicate_shard(sim, &session, s, p99);
            session.replicated[s] = true;
            session.eroded[s] = false;
            session.cold_streak[s] = 0;
        } else if session.replicated[s] {
            if count <= session.slo.cold_window {
                session.cold_streak[s] += 1;
            } else {
                session.cold_streak[s] = 0;
            }
            if session.slo.retire_cold && session.cold_streak[s] >= session.slo.cold_periods {
                retire_shard(sim, &session, s);
                session.replicated[s] = false;
                session.eroded[s] = false;
                session.cold_streak[s] = 0;
            }
        }
        session.window[s] = LogHistogram::new();
    }
    let period = session.slo.control_period;
    sim.world.serving = Some(session);
    schedule_task_event(sim, now + period, slo_tick);
}

/// Broadcast-replicate a hot shard from its owner to every live
/// locality: reads then run node-locally at whichever frontend admitted
/// them, which is what relieves the owner past the saturation knee.
fn replicate_shard(sim: &mut RtSim, session: &ServeSession, s: usize, p99: u64) {
    let now = sim.now();
    let item = session.item;
    let region = session.shard_regions[s].as_ref();
    let nodes = sim.world.localities.len();
    // The broadcast exports from the shard's single owner; under the
    // ring-successor graft ownership stays whole, but a shard somehow
    // fragmented across owners is simply skipped this round.
    let owner = (0..nodes).find(|&p| {
        !sim.world.dead[p]
            && region
                .difference_dyn(sim.world.localities[p].dim.owned_region(item).as_ref())
                .is_empty_dyn()
    });
    let Some(owner) = owner else {
        return;
    };
    let mut ctx = RtCtx {
        world: &mut sim.world,
        now,
    };
    ctx.broadcast_replicate(item, owner, region);
    sim.world.monitor.serve.replications += 1;
    trace_instant(
        &sim.world,
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
fn retire_shard(sim: &mut RtSim, session: &ServeSession, s: usize) {
    let now = sim.now();
    invalidate_persistent(sim, session.item, session.shard_regions[s].as_ref());
    sim.world.monitor.serve.retirements += 1;
    let host = detector_host(&sim.world);
    trace_instant(&sim.world, now, host, EventKind::SloRetire { shard: s as u32 });
}

/// One round of the failure detector: the host locality (the lowest
/// survivor, locality 0 until it dies) pings every live peer (ping + ack
/// as priority probes on the faulty network — [`Network::probe`] — with
/// no retries; the suspicion counter *is* the retry), declares
/// localities dead after `suspicion_threshold` consecutive silent
/// rounds, and rearms itself. The next live locality probes the host in
/// turn, so a dead host is itself detected instead of silencing the
/// detector.
fn heartbeat_tick(sim: &mut RtSim) {
    if sim.world.done {
        return; // stop rearming: lets the event queue drain
    }
    let now = sim.now();
    let nodes = sim.world.localities.len();
    let threshold = match &sim.world.resilience {
        Some(mgr) => mgr.cfg.suspicion_threshold,
        None => return,
    };
    let host = detector_host(&sim.world);
    // Fail-stop ground truth: a crashed process executes nothing, so an
    // (undetectedly) dead host runs no probe round of its own. The
    // backup probe below is what eventually notices the host.
    let host_up = !sim
        .world
        .net
        .faults()
        .is_some_and(|f| f.is_dead(host, now));
    let mut detected: Vec<usize> = Vec::new();
    if host_up {
        for p in 0..nodes {
            if p == host || sim.world.dead[p] {
                continue;
            }
            sim.world.monitor.resilience.heartbeats += 1;
            let alive = match sim.world.net.probe(now, host, p) {
                Ok(arr) => sim.world.net.probe(arr, p, host).is_ok(),
                Err(_) => false,
            };
            let mgr = sim.world.resilience.as_mut().expect("resilience enabled");
            if alive {
                mgr.misses[p] = 0;
            } else {
                mgr.misses[p] += 1;
                let misses = mgr.misses[p];
                if misses >= threshold {
                    detected.push(p);
                }
                trace_instant(
                    &sim.world,
                    now,
                    host,
                    EventKind::Suspicion {
                        suspect: p as u32,
                        misses,
                    },
                );
            }
        }
    }
    // Backup probe of the host by its lowest live peer: the detection
    // duty must not die with its host (the old single point of failure —
    // a dead locality 0 silenced detection entirely).
    let backup = (host + 1..nodes).find(|&p| !sim.world.dead[p]);
    if let Some(backup) = backup {
        let backup_up = !sim
            .world
            .net
            .faults()
            .is_some_and(|f| f.is_dead(backup, now));
        if backup_up {
            sim.world.monitor.resilience.heartbeats += 1;
            let alive = match sim.world.net.probe(now, backup, host) {
                Ok(arr) => sim.world.net.probe(arr, host, backup).is_ok(),
                Err(_) => false,
            };
            let mgr = sim.world.resilience.as_mut().expect("resilience enabled");
            if alive {
                mgr.misses[host] = 0;
            } else {
                mgr.misses[host] += 1;
                let misses = mgr.misses[host];
                if misses >= threshold {
                    detected.push(host);
                }
                trace_instant(
                    &sim.world,
                    now,
                    backup,
                    EventKind::Suspicion {
                        suspect: host as u32,
                        misses,
                    },
                );
            }
        }
    }
    for p in detected {
        detect_and_recover(sim, p);
    }
    let period = sim
        .world
        .resilience
        .as_ref()
        .expect("resilience enabled")
        .cfg
        .heartbeat_period;
    sim.schedule(period, heartbeat_tick);
}

/// One pass of the background replica scrubber: every live locality
/// holding persistent replicas fingerprints them against the owning
/// locality's authoritative copy (FNV-1a over the serialized overlap,
/// exchanged as a billed control round-trip). A divergent replica is
/// repaired with a fresh, billed copy from the owner; a replica that
/// diverges [`IntegrityConfig::quarantine_after`] times is evicted
/// instead — a holder that keeps rotting the same item is not worth
/// re-shipping to, and readers fall back to on-demand replication.
///
/// The scrubber runs on the simulated clock independently of phase
/// boundaries, so long phases still get audited; like the heartbeat it
/// survives recoveries (it is not epoch-guarded) because replica
/// hygiene is orthogonal to which phase is executing.
fn scrub_tick(sim: &mut RtSim) {
    if sim.world.done {
        return; // stop rearming: lets the event queue drain
    }
    let Some(period) = sim
        .world
        .integrity
        .as_ref()
        .and_then(|m| m.cfg.scrub_period)
    else {
        return;
    };
    let quarantine_after = sim
        .world
        .integrity
        .as_ref()
        .expect("integrity enabled")
        .cfg
        .quarantine_after;
    let now = sim.now();
    let nodes = sim.world.localities.len();
    let ctrl = sim.world.cost.control_msg_bytes;
    let items: Vec<ItemId> = sim.world.item_descs.keys().copied().collect();
    for holder in 0..nodes {
        if sim.world.dead[holder] {
            continue;
        }
        let mut audited = 0u32;
        let mut divergent = 0u32;
        for &item in &items {
            let held = sim.world.localities[holder].dim.persistent_region(item);
            if held.is_empty_dyn() {
                continue;
            }
            for owner in 0..nodes {
                if owner == holder || sim.world.dead[owner] {
                    continue;
                }
                let overlap = sim.world.localities[owner]
                    .dim
                    .persistent_export_region(item)
                    .intersect_dyn(held.as_ref());
                if overlap.is_empty_dyn() {
                    continue;
                }
                audited += 1;
                sim.world.monitor.integrity.replicas_scrubbed += 1;
                // Fingerprint exchange: request + digest reply, both
                // billed control messages. A lost leg skips this audit —
                // the next pass retries.
                let tag = Payload::data(TransferPurpose::Control, None, item);
                let Some(t) = send(&mut sim.world, now, holder, owner, ctrl, tag) else {
                    continue;
                };
                let tag = Payload::data(TransferPurpose::Control, None, item);
                let Some(t) = send(&mut sim.world, t, owner, holder, ctrl, tag) else {
                    continue;
                };
                let mine = frame::fnv1a64(
                    &sim.world.localities[holder].dim.peek_bytes(item, overlap.as_ref()),
                );
                let theirs = frame::fnv1a64(
                    &sim.world.localities[owner].dim.peek_bytes(item, overlap.as_ref()),
                );
                if mine == theirs {
                    continue;
                }
                divergent += 1;
                sim.world.monitor.integrity.scrub_divergent += 1;
                let strikes = sim
                    .world
                    .integrity
                    .as_mut()
                    .expect("integrity enabled")
                    .strike(holder, item);
                if strikes >= quarantine_after {
                    sim.world.localities[holder].dim.drop_persistent(item);
                    sim.world.monitor.integrity.quarantines += 1;
                    trace_instant(
                        &sim.world,
                        t,
                        holder,
                        EventKind::Quarantine {
                            item: item.0,
                            strikes,
                        },
                    );
                    break; // replica evicted: nothing left to audit
                }
                // Repair: a fresh billed copy from the owner, sealed and
                // verified like any other data transfer.
                let bytes = sim.world.localities[owner].dim.peek_bytes(item, overlap.as_ref());
                let wire = seal_payload(&sim.world, bytes);
                let tag = Payload::data(TransferPurpose::Scrub, None, item);
                let Some(d) = send_msg(&mut sim.world, t, owner, holder, wire.len(), tag, false)
                else {
                    continue;
                };
                let mut data = open_payload(&mut sim.world, &wire, d.intact);
                // The repair lands on the same storage that rotted the
                // replica: a holder whose medium keeps striking will
                // re-diverge and eventually hit the quarantine threshold.
                rot_payload(&mut sim.world, &mut data);
                sim.world.localities[holder].dim.import_persistent(item, &data);
                sim.world.monitor.integrity.scrub_repairs += 1;
                trace_instant(
                    &sim.world,
                    d.at,
                    holder,
                    EventKind::ScrubRepair {
                        item: item.0,
                        owner: owner as u32,
                        bytes: data.len() as u64,
                    },
                );
            }
        }
        if audited > 0 {
            trace_instant(
                &sim.world,
                now,
                holder,
                EventKind::ScrubPass {
                    replicas: audited,
                    divergent,
                },
            );
        }
    }
    sim.world.monitor.integrity.scrub_passes += 1;
    sim.schedule(period, scrub_tick);
}

/// Declare `dead` failed and orchestrate recovery: discard the in-flight
/// phase (epoch bump makes its pending events no-ops), rewind every
/// locality to the newest *verifiable* checkpoint, graft the dead
/// locality's shards onto its live ring successor, re-advertise all
/// ownership in the index with a location-cache epoch bump, and replay
/// from the checkpointed phase boundary. Safe by the model's Section 2.5
/// properties: checkpointed data is preserved, and a task either
/// completed before the checkpoint (its effects are in the snapshot) or
/// re-runs from it — never both.
///
/// With checkpoint verification on, every shard's stored checksum is
/// re-checked first: a checkpoint with any corrupt shard is abandoned
/// for good and recovery falls back to the previous retained checkpoint,
/// or to a full restart when none survives — restoring rotted state
/// would violate data preservation far more subtly than restarting.
fn detect_and_recover(sim: &mut RtSim, dead: usize) {
    if sim.world.dead[dead] {
        return;
    }
    let now = sim.now();
    let w = &mut sim.world;
    w.dead[dead] = true;
    w.run_epoch += 1;
    w.monitor.resilience.detections += 1;
    w.monitor.resilience.recoveries += 1;
    if let Some(t0) = w.net.faults().and_then(|f| f.death_time(dead)) {
        if now >= t0 {
            w.monitor.resilience.detection_latency_ns += (now - t0).as_nanos();
        }
    }
    // A drain still in flight is torn: its capture is abandoned on every
    // locality and recovery proceeds from the last *committed*
    // checkpoint — a partially drained snapshot is never restored from.
    if let Some(p) = w.pending_ckpt.take() {
        w.monitor.resilience.ckpt_torn += 1;
        let mut cow = 0u64;
        for l in w.localities.iter_mut() {
            l.dim.abort_snapshot();
            cow += l.dim.take_cow_captures();
        }
        w.monitor.resilience.cow_captures += cow;
        let host = detector_host(w);
        trace_instant(
            w,
            now,
            host,
            EventKind::CheckpointTorn {
                phase: p.phase as u32,
            },
        );
    }
    let (tasks_at_checkpoint, mut chain) = {
        let mgr = w.resilience.as_mut().expect("resilience enabled");
        mgr.misses.fill(0);
        (mgr.tasks_at_checkpoint, std::mem::take(&mut mgr.saved))
    };
    let verify = w
        .integrity
        .as_ref()
        .is_some_and(|m| m.cfg.verify_checkpoints);
    // Fall back newest-first across the retained points: each candidate
    // is the full reconstruction of its anchor+delta chain, and every
    // link is checksum-verified — a delta is only as good as the links
    // under it. Rejected points stay dropped so a later recovery does
    // not re-try them.
    let mut saved: Option<(usize, Checkpoint)> = None;
    let mut restore_delay_ns = 0u64;
    let mut upto = chain.len();
    while upto > 0 {
        upto -= 1;
        match reconstruct(&chain, upto, verify) {
            Ok((snap, cost)) => {
                if verify {
                    w.monitor.integrity.ckpt_links_verified += cost.links;
                }
                // Bill the restore reads: survivors pull their shards
                // from the fast local tier, a dead locality's shards
                // only survive on the remote tier. Localities read in
                // parallel; the restore completes at the slowest.
                let mut read_ns = 0u64;
                {
                    let dead = w.dead.clone();
                    let mgr = w.resilience.as_mut().expect("resilience enabled");
                    for (loc, &is_dead) in dead.iter().enumerate() {
                        let tier = if is_dead {
                            StorageTier::Remote
                        } else {
                            StorageTier::Local
                        };
                        let ns = mgr.storage.read_ns(tier, cost.shards[loc], cost.bytes[loc]);
                        read_ns = read_ns.max(ns);
                    }
                }
                w.monitor.resilience.recovery_read_ns += read_ns;
                restore_delay_ns = read_ns;
                saved = Some((chain[upto].phase, snap));
                break;
            }
            Err(bad) => {
                w.monitor.integrity.checkpoint_shards_rejected += bad;
                w.monitor.integrity.checkpoint_fallbacks += 1;
            }
        }
    }
    // Reinstate the surviving history and re-point incremental change
    // detection at what was actually restored.
    {
        chain.truncate(if saved.is_some() { upto + 1 } else { 0 });
        let mgr = w.resilience.as_mut().expect("resilience enabled");
        mgr.saved = chain;
        mgr.since_anchor = mgr
            .saved
            .iter()
            .rev()
            .take_while(|s| s.kind == CkptKind::Delta)
            .count();
        mgr.last_fps = match &saved {
            Some((_, snap)) => snap
                .per_locality
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|(id, b)| (*id, (fnv1a_64(b), b.len() as u64)))
                        .collect()
                })
                .collect(),
            None => vec![BTreeMap::new(); w.localities.len()],
        };
    }
    let reexecuted = w.monitor.total_tasks().saturating_sub(tasks_at_checkpoint);
    w.monitor.resilience.tasks_reexecuted += reexecuted;
    // Discard the in-flight phase's bookkeeping; its scheduled events are
    // disarmed by the epoch bump above.
    w.inflight.clear();
    w.parents.clear();
    w.wakeups = Wakeups::default();
    for l in w.localities.iter_mut() {
        l.dim.forget_waiters();
    }
    // Buffered-but-unflushed messages belong to the abandoned run; their
    // flush timers are already disarmed by the epoch bump.
    w.coalescer.clear();
    // Queued tasks and steal/wait state belong to the abandoned phase
    // too — stale grants and denies are disarmed by the epoch bump.
    w.scheduler.clear();
    // An in-flight serving phase is abandoned wholesale (its arrivals,
    // completions and controller ticks are epoch-disarmed). The replayed
    // driver re-registers the spec with the same seeds, so the identical
    // request stream replays from the restored boundary — acknowledged
    // writes are re-applied, none are lost.
    w.serving = None;
    w.pending_serve = None;
    for l in w.localities.iter_mut() {
        l.load = 0;
    }
    let nodes = w.localities.len();
    let grafted: u64 = match saved {
        Some((phase, snap)) => {
            // Pass 1: rewind every survivor, wipe every dead locality
            // (fail-stop: a crashed process loses its volatile data).
            for p in 0..nodes {
                if w.dead[p] {
                    w.localities[p].dim.wipe_all();
                } else {
                    w.localities[p].dim.restore(&snap.per_locality[p]);
                }
            }
            // Pass 2: graft each dead locality's checkpointed shards onto
            // its live ring successor — after the survivors' own restore,
            // so the graft is not clobbered.
            let mut restored = 0u64;
            for p in 0..nodes {
                if !w.dead[p] {
                    continue;
                }
                let heir = live_successor(w, p);
                for (item, bytes) in &snap.per_locality[p] {
                    w.localities[heir].dim.import_owned(*item, bytes);
                    restored += bytes.len() as u64;
                }
            }
            w.monitor.resilience.restored_bytes += restored;
            // Re-advertise all ownership; bump the cache epochs first so
            // no pre-recovery resolution survives.
            let items: Vec<ItemId> = w.item_descs.keys().copied().collect();
            for item in items {
                w.loc_cache.bump(item);
                for p in 0..nodes {
                    let owned = w.localities[p].dim.owned_region(item);
                    w.index.update_leaf(item, p, owned);
                }
            }
            w.phase = phase;
            restored
        }
        None => {
            // No checkpoint yet: restart the application from scratch.
            let items: Vec<ItemId> = w.item_descs.keys().copied().collect();
            for item in items {
                w.index.remove_item(item);
                w.loc_cache.forget(item);
            }
            w.item_descs.clear();
            for p in 0..nodes {
                w.localities[p].dim = DataItemManager::new(p);
            }
            w.next_item = 0;
            w.phase = 0;
            0
        }
    };
    let host = detector_host(w);
    trace_instant(
        w,
        now,
        host,
        EventKind::Recovery {
            dead: dead as u32,
            phase: w.phase as u32,
            restored_bytes: grafted,
        },
    );
    // Replay from the restored boundary once the tier reads land
    // (guarded: a second recovery before this fires would supersede it).
    let resume = now + SimDuration::from_nanos(restore_delay_ns);
    schedule_task_event(sim, resume, |sim| advance_phase(sim, None));
}

// -------------------------------------------------------------- Algorithm 2

/// Assign a task to a node (paper Algorithm 2); returns the new task's
/// id (the serving subsystem keys in-flight requests by it).
fn assign_task(
    sim: &mut RtSim,
    at: usize,
    wi: Box<dyn WorkItem>,
    parent: Option<(TaskId, usize)>,
) -> TaskId {
    let tid = TaskId(sim.world.next_task);
    sim.world.next_task += 1;

    // Line 3: pick the variant.
    let (nodes, cores, load) = policy_env(&sim.world);
    let env = PolicyEnv {
        nodes,
        cores_per_node: cores,
        load: &load,
    };
    let variant =
        sim.world
            .scheduler
            .pick_variant(wi.depth(), wi.can_split(), wi.placement_hint(), &env);

    match variant {
        Variant::Split => {
            // Pure decomposition: the policy chooses where it runs
            // (remapped off localities known dead).
            let target = sim
                .world
                .scheduler
                .pick_target(wi.placement_hint(), at, &env);
            let target = live_target(&sim.world, target);
            let now = sim.now();
            trace_instant(
                &sim.world,
                now,
                at,
                EventKind::TaskSpawn {
                    task: tid.0,
                    parent: parent.map(|(p, _)| p.0),
                    variant: SpawnVariant::Split,
                    target: target as u32,
                },
            );
            sim.world.localities[target].load += 1;
            if target != at {
                let bytes = wi.descriptor_bytes();
                let tag = Payload::task(TransferPurpose::TaskForward, tid);
                send_deferred(sim, at, target, bytes, tag, move |sim, arrival| {
                    if arrival.is_none() {
                        // The task descriptor is lost (undetected dead
                        // target or exhausted retries): the phase stalls
                        // until the failure detector triggers recovery.
                        sim.world.localities[target].load -= 1;
                        return;
                    }
                    do_split(sim, target, tid, wi, parent);
                });
            } else {
                schedule_task_event(sim, now, move |sim| {
                    do_split(sim, target, tid, wi, parent)
                });
            }
        }
        Variant::Process => {
            let reqs = wi.requirements();
            let preferred = pick_process_target(sim, at, wi.as_ref(), &reqs, &env);
            let preferred = live_target(&sim.world, preferred);
            // The scheduler routes the admitted task: directly to its
            // data-aware locality, or into a (possibly spilled) queue.
            let placement = sim.world.scheduler.admit(preferred, &sim.world.dead);
            let target = placement.loc();
            let queued = matches!(placement, Placement::Enqueue(_));
            let now = sim.now();
            trace_instant(
                &sim.world,
                now,
                at,
                EventKind::TaskSpawn {
                    task: tid.0,
                    parent: parent.map(|(p, _)| p.0),
                    variant: SpawnVariant::Process,
                    target: target as u32,
                },
            );
            let bytes = wi.descriptor_bytes();
            sim.world.localities[target].load += 1;
            sim.world.inflight.insert(
                tid,
                Inflight {
                    loc: target,
                    wi: Some(wi),
                    parent,
                    reqs,
                    replicas: Vec::new(),
                    pending_transfers: 0,
                    pending_done: None,
                    ticket: None,
                },
            );
            if target != at {
                let tag = Payload::task(TransferPurpose::TaskForward, tid);
                send_deferred(sim, at, target, bytes, tag, move |sim, arrival| {
                    if arrival.is_none() {
                        // Lost task descriptor: drop the assignment and
                        // stall until recovery.
                        sim.world.inflight.remove(&tid);
                        sim.world.localities[target].load -= 1;
                        return;
                    }
                    if queued {
                        enqueue_task(sim, target, tid);
                    } else {
                        prepare_task(sim, tid);
                    }
                });
            } else {
                schedule_task_event(sim, now, move |sim| {
                    if queued {
                        enqueue_task(sim, target, tid);
                    } else {
                        prepare_task(sim, tid);
                    }
                });
            }
        }
    }
    tid
}

/// Algorithm 2 lines 4-13: find the execution locality for a process task.
fn pick_process_target(
    sim: &mut RtSim,
    at: usize,
    wi: &dyn WorkItem,
    reqs: &[Requirement],
    env: &PolicyEnv<'_>,
) -> usize {
    if reqs.is_empty() {
        return sim.world.scheduler.pick_target(wi.placement_hint(), at, env);
    }
    // Fast path: everything already available right here (covers
    // persistent replicas, e.g. the broadcast tree top).
    let local_ok = reqs.iter().all(|r| {
        let dim = &sim.world.localities[at].dim;
        match r.mode {
            AccessMode::Read => dim.covers_stable(r.item, r.region.as_ref()),
            AccessMode::Write => r
                .region
                .difference_dyn(dim.owned_region(r.item).as_ref())
                .is_empty_dyn(),
        }
    });
    if local_ok {
        return at;
    }
    // Line 4: a process covering ALL requirements.
    let all_owner = common_owner(sim, at, reqs.iter());
    if let Some(p) = all_owner {
        return p;
    }
    // Line 7: a process covering all WRITE requirements.
    let w_owner = common_owner(
        sim,
        at,
        reqs.iter().filter(|r| r.mode == AccessMode::Write),
    );
    if let Some(p) = w_owner {
        return p;
    }
    // Line 12: the policy decides.
    sim.world.scheduler.pick_target(wi.placement_hint(), at, env)
}

/// The single process owning every requirement in `iter`, if one exists.
/// Bills the index lookups used to find out.
fn common_owner<'r>(
    sim: &mut RtSim,
    at: usize,
    iter: impl Iterator<Item = &'r Requirement>,
) -> Option<usize> {
    let mut owner: Option<usize> = None;
    let mut any = false;
    let now = sim.now();
    for req in iter {
        any = true;
        let (pieces, hops) = index_resolve(&mut sim.world, now, req.item, at, req.region.as_ref());
        bill_hops(&mut sim.world, now, &hops, Some(req.item));
        // Coverage check: pieces must tile the region with one owner.
        let mut covered: Option<Box<dyn DynRegion>> = None;
        for (piece, host) in &pieces {
            match owner {
                None => owner = Some(*host),
                Some(o) if o != *host => return None,
                _ => {}
            }
            covered = Some(match covered {
                None => piece.clone_box(),
                Some(c) => c.union_dyn(piece.as_ref()),
            });
        }
        let fully = match covered {
            None => false,
            Some(c) => req.region.difference_dyn(c.as_ref()).is_empty_dyn(),
        };
        if !fully {
            return None;
        }
    }
    if any {
        owner
    } else {
        None
    }
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
// After `max_attempts` denies the thief parks as a *waiter*; a later
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
    sim.world.scheduler.enqueue(loc, tid);
    sim.world.monitor.scheduler.tasks_queued += 1;
    pump_queue(sim, loc);
    // Surplus push: a queue still backed up after pumping feeds parked
    // waiters directly — no request leg, just the handoff.
    while let Some((waiter, task)) = sim.world.scheduler.take_handoff(loc, &sim.world.dead) {
        sim.world.monitor.scheduler.handoffs += 1;
        grant_steal(sim, loc, waiter, task);
    }
}

/// Activate queued tasks at `loc` while slots are free; steal when dry.
fn pump_queue(sim: &mut RtSim, loc: usize) {
    while let Some(tid) = sim.world.scheduler.next_runnable(loc) {
        prepare_task(sim, tid);
    }
    maybe_steal(sim, loc);
}

/// Start a steal round from `thief` if it is idle with a dry queue.
fn maybe_steal(sim: &mut RtSim, thief: usize) {
    if !sim.world.scheduler.should_steal(thief) {
        return;
    }
    sim.world.scheduler.begin_steal(thief);
    steal_attempt(sim, thief, 0);
}

/// One victim attempt of a steal round (`attempt` victims already tried).
fn steal_attempt(sim: &mut RtSim, thief: usize, attempt: usize) {
    let victim = sim.world.scheduler.steal_victim(thief, &sim.world.dead);
    let Some(victim) = victim else {
        // Nothing to steal anywhere: park as a waiter until surplus
        // work shows up.
        sim.world.scheduler.enlist_waiter(thief);
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
    let tag = Payload {
        purpose: TransferPurpose::Control,
        task: None,
        item: None,
    };
    send_deferred(sim, thief, victim, ctrl, tag, move |sim, arr| {
        if arr.is_none() {
            // A lost request (undetected-dead victim, exhausted
            // retries) is indistinguishable from a deny to the thief.
            steal_denied(sim, thief, attempt);
            return;
        }
        match sim.world.scheduler.steal_task(victim) {
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
                send_deferred(sim, victim, thief, ctrl, tag, move |sim, _arr| {
                    // A lost deny reply times out into the same path.
                    steal_denied(sim, thief, attempt);
                });
            }
        }
    });
}

/// The thief's attempt came back empty: try the next victim, or park.
fn steal_denied(sim: &mut RtSim, thief: usize, attempt: usize) {
    sim.world.scheduler.end_steal(thief);
    if !sim.world.scheduler.should_steal(thief) {
        // Work arrived (or a slot filled) while the request was in
        // flight; the enqueue's pump already took over.
        return;
    }
    let next = attempt + 1;
    if next >= sim.world.scheduler.max_attempts() {
        sim.world.scheduler.enlist_waiter(thief);
        return;
    }
    sim.world.scheduler.begin_steal(thief);
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
    let bytes = {
        let inf = sim.world.inflight.get_mut(&tid).expect("stolen task in flight");
        inf.loc = thief;
        inf.wi.as_ref().expect("queued task holds its descriptor").descriptor_bytes()
    };
    sim.world.localities[victim].load -= 1;
    sim.world.localities[thief].load += 1;
    let tag = Payload::task(TransferPurpose::TaskForward, tid);
    send_deferred(sim, victim, thief, bytes, tag, move |sim, arr| {
        if arr.is_none() {
            // The stolen descriptor is lost — same fate as a lost
            // forward: the task strands until recovery reaps it, and
            // the thief goes back to stealing (finitely: every loss
            // removes a task from the run).
            sim.world.inflight.remove(&tid);
            sim.world.localities[thief].load -= 1;
            sim.world.scheduler.end_steal(thief);
            maybe_steal(sim, thief);
            return;
        }
        sim.world.scheduler.end_steal(thief);
        enqueue_task(sim, thief, tid);
    });
}

// -------------------------------------------------------------------- split

fn do_split(
    sim: &mut RtSim,
    loc: usize,
    tid: TaskId,
    wi: Box<dyn WorkItem>,
    parent: Option<(TaskId, usize)>,
) {
    let overhead = sim.world.cost.task_overhead(loc);
    let now = sim.now();
    let (core, start, end) = sim.world.localities[loc].cores.acquire_indexed(now, overhead);
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
    schedule_task_event(sim, end, move |sim| {
        let result_bytes = wi.result_bytes();
        let SplitOutcome { children, combine } = wi.split();
        sim.world.localities[loc].load -= 1;
        if children.is_empty() {
            let value = combine(Vec::new());
            finish_task(sim, loc, tid, parent, value);
            return;
        }
        sim.world.parents.insert(
            tid,
            ParentRecord {
                loc,
                pending: children.len(),
                results: children.iter().map(|_| None).collect(),
                combine: Some(combine),
                parent,
                result_bytes,
            },
        );
        for (i, child) in children.into_iter().enumerate() {
            assign_task(sim, loc, child, Some((tid, i)));
        }
    });
}

// ------------------------------------------------------------- preparation

/// Acquire locks and stage data for a process task; parks on conflict.
fn prepare_task(sim: &mut RtSim, tid: TaskId) {
    let now = sim.now();
    // The requirements leave the inflight record for the duration of
    // the two borrowing steps, so neither clones a region.
    let (loc, reqs) = {
        let inf = sim.world.inflight.get_mut(&tid).unwrap();
        (inf.loc, std::mem::take(&mut inf.reqs))
    };
    let staged = lock_and_plan(&mut sim.world, now, tid, loc, &reqs);
    sim.world.inflight.get_mut(&tid).unwrap().reqs = reqs;
    let plan = match staged {
        Ok(plan) => plan,
        Err(on) => {
            if unfence_serving_writes(sim, tid) {
                return prepare_task(sim, tid);
            }
            return park(sim, tid, loc, on);
        }
    };

    // 3. Apply the plan.
    let mut pending = 0usize;
    for mv in plan {
        match mv {
            Move::FirstTouch { item, region } => {
                sim.world.localities[loc].dim.init_owned(item, region.as_ref());
                let owned = sim.world.localities[loc].dim.advertised_region(item);
                let hops = index_update(&mut sim.world, now, item, loc, owned);
                bill_hops(&mut sim.world, now, &hops, Some(item));
                sim.world.monitor.per_locality[loc].first_touch += 1;
                trace_instant(
                    &sim.world,
                    now,
                    loc,
                    EventKind::FirstTouch {
                        item: item.0,
                        task: tid.0,
                    },
                );
            }
            Move::Migrate { item, region, src } => {
                // `pending` is committed before any send: a transfer that
                // is lost must strand the task (never let it run without
                // its data), so the phase stalls until recovery reaps it.
                pending += 1;
                // Export (and fence) at plan time, before the request
                // goes out: the source must be fenced before any other
                // plan can run during a batching window, or two tasks
                // could stage overlapping migrations of the same region.
                // A lost request then strands the exported data until
                // recovery — same fate as the task it was feeding.
                let bytes = sim.world.localities[src]
                    .dim
                    .export_migration(item, region.as_ref());
                let bytes = seal_payload(&sim.world, bytes);
                let src_owned = sim.world.localities[src].dim.advertised_region(item);
                let hops = index_update(&mut sim.world, now, item, src, src_owned);
                bill_hops(&mut sim.world, now, &hops, Some(item));
                // Advertise the destination in the index immediately and
                // fence the region as in-flight. Between the source
                // giving the region up and the transfer landing, the
                // region must still resolve to *someone* — a planner
                // finding no owner would first-touch a second primary
                // into existence (and a later migration would serve its
                // default-initialized copy, silently dropping every
                // write committed to the real one). The fence makes the
                // advertised owner refuse to serve the region until the
                // data actually arrives.
                let fence_region = region.clone_box();
                sim.world.localities[loc]
                    .dim
                    .fence_inbound(item, tid, region.as_ref());
                let dst_adv = sim.world.localities[loc].dim.advertised_region(item);
                let hops = index_update(&mut sim.world, now, item, loc, dst_adv);
                bill_hops(&mut sim.world, now, &hops, Some(item));
                let ctrl = sim.world.cost.control_msg_bytes;
                let req_tag = Payload::data(TransferPurpose::Control, Some(tid), item);
                send_deferred(sim, loc, src, ctrl, req_tag, move |sim, arr| {
                    if arr.is_none() {
                        return;
                    }
                    let len = bytes.len();
                    let tag = Payload::data(TransferPurpose::Migrate, Some(tid), item);
                    send_deferred(sim, src, loc, len, tag, move |sim, arr| {
                        let Some(d) = arr else {
                            return;
                        };
                        let data = open_payload(&mut sim.world, &bytes, d.intact);
                        let loc2 = sim.world.inflight[&tid].loc;
                        sim.world.localities[loc2].dim.import_owned(item, &data);
                        let woken = sim.world.localities[loc]
                            .dim
                            .release_inbound(item, tid, fence_region.as_ref());
                        wake(&mut sim.world, woken);
                        let owned = sim.world.localities[loc2].dim.advertised_region(item);
                        let t = sim.now();
                        let hops = index_update(&mut sim.world, t, item, loc2, owned);
                        bill_hops(&mut sim.world, t, &hops, Some(item));
                        sim.world.monitor.per_locality[loc2].migrations_in += 1;
                        transfer_done(sim, tid);
                    });
                });
            }
            Move::Replicate { item, region, src } => {
                pending += 1;
                let bytes = sim.world.localities[src].dim.export_replica(
                    item,
                    region.as_ref(),
                    loc,
                    tid,
                );
                let bytes = seal_payload(&sim.world, bytes);
                let region2 = region.clone_box();
                let ctrl = sim.world.cost.control_msg_bytes;
                let req_tag = Payload::data(TransferPurpose::Control, Some(tid), item);
                send_deferred(sim, loc, src, ctrl, req_tag, move |sim, arr| {
                    if arr.is_none() {
                        return;
                    }
                    let len = bytes.len();
                    let tag = Payload::data(TransferPurpose::Replicate, Some(tid), item);
                    send_deferred(sim, src, loc, len, tag, move |sim, arr| {
                        let Some(d) = arr else {
                            return;
                        };
                        let data = open_payload(&mut sim.world, &bytes, d.intact);
                        let loc2 = sim.world.inflight[&tid].loc;
                        sim.world.localities[loc2].dim.import_replica(item, &data, tid);
                        sim.world.monitor.per_locality[loc2].replicas_in += 1;
                        sim.world
                            .inflight
                            .get_mut(&tid)
                            .unwrap()
                            .replicas
                            .push((item, src, region2));
                        transfer_done(sim, tid);
                    });
                });
            }
        }
    }
    sim.world.inflight.get_mut(&tid).unwrap().pending_transfers = pending;
    if pending == 0 {
        start_execution(sim, tid);
    }
}

enum Move {
    FirstTouch {
        item: ItemId,
        region: Box<dyn DynRegion>,
    },
    Migrate {
        item: ItemId,
        region: Box<dyn DynRegion>,
        src: usize,
    },
    Replicate {
        item: ItemId,
        region: Box<dyn DynRegion>,
        src: usize,
    },
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

/// Park `tid` (resident at `loc`) on the wait list of what refused it.
/// Counted once per refusal: the first park plus each re-park after a
/// wake-up that found the task still (or newly) blocked.
fn park(sim: &mut RtSim, tid: TaskId, loc: usize, on: Blocker) {
    let now = sim.now();
    let w = &mut sim.world;
    w.monitor.per_locality[loc].lock_conflicts += 1;
    let inf = w.inflight.get_mut(&tid).unwrap();
    if inf.ticket.is_none() {
        inf.ticket = Some(w.wakeups.next_ticket);
        w.wakeups.next_ticket += 1;
    }
    w.wakeups.waiting += 1;
    w.localities[on.locality]
        .dim
        .enqueue_waiter(on.item, tid, on.region);
    trace_instant(w, now, loc, EventKind::TaskParked { task: tid.0 });
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
        match req.mode {
            AccessMode::Write => {
                let owned = w.localities[loc].dim.owned_region(item);
                let missing = region.difference_dyn(owned.as_ref());
                if missing.is_empty_dyn() {
                    continue;
                }
                // Another task's migration is already landing this data
                // here: park until the fence lifts, never plan against
                // (or first-touch over) data still on the wire.
                if w.localities[loc].dim.inbound_fenced(item, missing.as_ref()) {
                    return Err(blocked_at(loc, missing));
                }
                let (pieces, _hops) = index_resolve(w, now, item, loc, missing.as_ref());
                let mut found: Option<Box<dyn DynRegion>> = None;
                for (piece, src) in pieces {
                    if src == loc {
                        // Index says we own it; treat as present.
                        found = Some(match found {
                            None => piece,
                            Some(f) => f.union_dyn(piece.as_ref()),
                        });
                        continue;
                    }
                    // Migration requires an unfenced source that actually
                    // holds the data (not one still awaiting it).
                    let sdim = &w.localities[src].dim;
                    if sdim.locked_any(item, piece.as_ref())
                        || sdim.exported(item, piece.as_ref())
                        || sdim.inbound_fenced(item, piece.as_ref())
                    {
                        return Err(blocked_at(src, piece));
                    }
                    found = Some(match found {
                        None => piece.clone_box(),
                        Some(f) => f.union_dyn(piece.as_ref()),
                    });
                    plan.push(Move::Migrate {
                        item,
                        region: piece,
                        src,
                    });
                }
                let nowhere = match found {
                    None => missing,
                    Some(f) => missing.difference_dyn(f.as_ref()),
                };
                if !nowhere.is_empty_dyn() {
                    plan.push(Move::FirstTouch {
                        item,
                        region: nowhere,
                    });
                }
            }
            AccessMode::Read => {
                let base = w.localities[loc].dim.read_base(item);
                let missing = region.difference_dyn(base.as_ref());
                if missing.is_empty_dyn() {
                    continue;
                }
                // Data migrating here is still on the wire: park until
                // it lands rather than replicate a stale copy.
                if w.localities[loc].dim.inbound_fenced(item, missing.as_ref()) {
                    return Err(blocked_at(loc, missing));
                }
                let (pieces, _hops) = index_resolve(w, now, item, loc, missing.as_ref());
                let mut found: Option<Box<dyn DynRegion>> = None;
                for (piece, src) in pieces {
                    if src == loc {
                        found = Some(match found {
                            None => piece,
                            Some(f) => f.union_dyn(piece.as_ref()),
                        });
                        continue;
                    }
                    // Replication requires a write-unlocked source that
                    // actually holds the data (not one still awaiting an
                    // inbound migration).
                    if w.localities[src].dim.write_locked(item, piece.as_ref())
                        || w.localities[src].dim.inbound_fenced(item, piece.as_ref())
                    {
                        return Err(blocked_at(src, piece));
                    }
                    found = Some(match found {
                        None => piece.clone_box(),
                        Some(f) => f.union_dyn(piece.as_ref()),
                    });
                    plan.push(Move::Replicate {
                        item,
                        region: piece,
                        src,
                    });
                }
                let nowhere = match found {
                    None => missing,
                    Some(f) => missing.difference_dyn(f.as_ref()),
                };
                if !nowhere.is_empty_dyn() {
                    // Reading data that exists nowhere: first-touch it
                    // (default values), mirroring lazy initialization.
                    plan.push(Move::FirstTouch {
                        item,
                        region: nowhere,
                    });
                }
            }
        }
    }
    if w.batching.is_some() {
        coalesce_moves(&mut plan);
    }
    Ok(plan)
}

/// Region-level coalescing: merge transfers of the same item from the
/// same source into one move carrying the union region, so a staging
/// plan puts one large transfer on the wire instead of many cell-sized
/// ones. First-occurrence order is preserved; first-touch allocations
/// are local and pass through untouched.
fn coalesce_moves(plan: &mut Vec<Move>) {
    let mut merged: Vec<Move> = Vec::with_capacity(plan.len());
    for mv in plan.drain(..) {
        match mv {
            Move::Migrate { item, region, src } => {
                if let Some(Move::Migrate { region: r, .. }) = merged.iter_mut().find(|m| {
                    matches!(m, Move::Migrate { item: i, src: s, .. } if *i == item && *s == src)
                }) {
                    *r = r.union_dyn(region.as_ref());
                } else {
                    merged.push(Move::Migrate { item, region, src });
                }
            }
            Move::Replicate { item, region, src } => {
                if let Some(Move::Replicate { region: r, .. }) = merged.iter_mut().find(|m| {
                    matches!(m, Move::Replicate { item: i, src: s, .. } if *i == item && *s == src)
                }) {
                    *r = r.union_dyn(region.as_ref());
                } else {
                    merged.push(Move::Replicate { item, region, src });
                }
            }
            first_touch => merged.push(first_touch),
        }
    }
    *plan = merged;
}

fn transfer_done(sim: &mut RtSim, tid: TaskId) {
    let inf = sim.world.inflight.get_mut(&tid).unwrap();
    inf.pending_transfers -= 1;
    if inf.pending_transfers == 0 {
        start_execution(sim, tid);
    }
}

// ---------------------------------------------------------------- execution

fn start_execution(sim: &mut RtSim, tid: TaskId) {
    let loc = sim.world.inflight[&tid].loc;
    // Run the real task body now (its effects are fenced by the held
    // locks), then occupy a core for its declared + charged duration; the
    // completion — lock release, replica drop, result propagation — fires
    // when the core time elapses.
    let (wi, declared) = {
        let inf = sim.world.inflight.get_mut(&tid).unwrap();
        let wi = inf.wi.take().expect("work item present");
        let declared = wi.cost(&sim.world.cost, loc);
        (wi, declared)
    };
    let result_bytes = wi.result_bytes();
    let done = {
        let mut ctx = TaskCtx {
            locality: loc,
            dim: &mut sim.world.localities[loc].dim,
            charged: SimDuration::ZERO,
        };
        let done = wi.process(&mut ctx);
        let charged = ctx.charged;
        sim.world.inflight.get_mut(&tid).unwrap().pending_done = Some((done, result_bytes));
        charged
    };
    let speed = sim.world.cost.speed(loc);
    let charged = SimDuration::from_nanos_f64(done.as_nanos() as f64 / speed);
    let dur = declared + charged + sim.world.cost.task_overhead(loc);
    let now = sim.now();
    let (core, start, end) = sim.world.localities[loc].cores.acquire_indexed(now, dur);
    sim.world.monitor.per_locality[loc].busy_ns += dur.as_nanos();
    sim.world.monitor.task_durations.record(dur.as_nanos());
    trace_core_span(
        &sim.world,
        start,
        end - start,
        loc,
        core,
        EventKind::TaskExec { task: tid.0 },
    );
    schedule_task_event(sim, end, move |sim| finish_execution(sim, tid));
}

fn finish_execution(sim: &mut RtSim, tid: TaskId) {
    let loc = sim.world.inflight[&tid].loc;
    let (done_pack, parent, replicas) = {
        let inf = sim.world.inflight.get_mut(&tid).unwrap();
        (
            inf.pending_done.take().expect("process ran"),
            inf.parent,
            std::mem::take(&mut inf.replicas),
        )
    };
    let (done, result_bytes) = done_pack;
    sim.world.monitor.per_locality[loc].tasks_executed += 1;

    // Release locks (model rule (end)) and drop imported replicas
    // (runtime replica removal), notifying owners so write fences lift.
    let woken = sim.world.localities[loc].dim.unlock_all(tid);
    wake(&mut sim.world, woken);
    let mut dropped_items: Vec<ItemId> = Vec::new();
    for (item, owner, region) in replicas {
        if !dropped_items.contains(&item) {
            sim.world.localities[loc].dim.drop_replica_holds(item, tid);
            dropped_items.push(item);
        }
        let _ = region;
        let bytes = sim.world.cost.control_msg_bytes;
        let tag = Payload::data(TransferPurpose::Control, Some(tid), item);
        send_deferred(sim, loc, owner, bytes, tag, move |sim, arr| {
            if arr.is_none() {
                // A lost release leaves the owner's export fence
                // standing; any writer it blocks stays parked until
                // recovery clears the slate.
                return;
            }
            let woken = sim.world.localities[owner].dim.release_exports_of(item, tid);
            wake(&mut sim.world, woken);
            schedule_wakeups(sim);
        });
    }
    sim.world.inflight.remove(&tid);
    sim.world.localities[loc].load -= 1;

    // Queue family: the finished task's slot frees — activate the next
    // queued task, and steal if the queue is dry.
    if sim.world.scheduler.uses_queues() {
        sim.world.scheduler.release_slot(loc);
        pump_queue(sim, loc);
    }

    match done {
        Done::Value(v) => finish_task(sim, loc, tid, parent, v),
        Done::Children(SplitOutcome { children, combine }) => {
            if children.is_empty() {
                let v = combine(Vec::new());
                finish_task(sim, loc, tid, parent, v);
                return;
            }
            sim.world.parents.insert(
                tid,
                ParentRecord {
                    loc,
                    pending: children.len(),
                    results: children.iter().map(|_| None).collect(),
                    combine: Some(combine),
                    parent,
                    result_bytes,
                },
            );
            for (i, child) in children.into_iter().enumerate() {
                assign_task(sim, loc, child, Some((tid, i)));
            }
        }
    }
    schedule_wakeups(sim);
}

// --------------------------------------------------------------- completion

fn finish_task(
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
    match parent {
        Some((ptid, idx)) => {
            let p_loc = sim.world.parents[&ptid].loc;
            let bytes = sim.world.parents[&ptid].result_bytes;
            if p_loc != loc {
                // A lost result message orphans the parent; the phase
                // stalls until the failure detector triggers recovery.
                let tag = Payload::task(TransferPurpose::Result, tid);
                send_deferred(sim, loc, p_loc, bytes, tag, move |sim, arr| {
                    if arr.is_some() {
                        child_done(sim, ptid, idx, value);
                    }
                });
            } else {
                child_done(sim, ptid, idx, value);
            }
        }
        None => {
            // Root of a serving request, or root of a phase.
            if serve_root_done(sim, tid) {
                return;
            }
            advance_phase(sim, value);
        }
    }
}

fn child_done(sim: &mut RtSim, ptid: TaskId, idx: usize, value: TaskValue) {
    let (ready, loc) = {
        let p = sim.world.parents.get_mut(&ptid).expect("parent record");
        p.results[idx] = Some(value);
        p.pending -= 1;
        (p.pending == 0, p.loc)
    };
    if !ready {
        return;
    }
    let (results, combine, parent) = {
        let mut p = sim.world.parents.remove(&ptid).unwrap();
        (
            std::mem::take(&mut p.results),
            p.combine.take().unwrap(),
            p.parent,
        )
    };
    let values: Vec<TaskValue> = results
        .into_iter()
        .map(|r| r.expect("all children reported"))
        .collect();
    let combined = combine(values);
    trace_instant(
        &sim.world,
        sim.now(),
        loc,
        EventKind::TaskEnd {
            task: ptid.0,
            parent: parent.map(|(p, _)| p.0),
        },
    );
    // Reinstate parent slot for finish_task's lookup.
    match parent {
        Some((gp, gidx)) => {
            // Deliver to grandparent.
            let p_loc = sim.world.parents[&gp].loc;
            let bytes = sim.world.parents[&gp].result_bytes;
            if p_loc != loc {
                let tag = Payload::task(TransferPurpose::Result, ptid);
                send_deferred(sim, loc, p_loc, bytes, tag, move |sim, arr| {
                    // A lost combined result stalls until recovery.
                    if arr.is_some() {
                        child_done(sim, gp, gidx, combined);
                    }
                });
            } else {
                child_done(sim, gp, gidx, combined);
            }
        }
        None => {
            if serve_root_done(sim, ptid) {
                return;
            }
            advance_phase(sim, combined);
        }
    }
}

// ----------------------------------------------------------------- wake-ups

/// Collect tasks a DIM release handed back; they retry at the next tick.
fn wake(w: &mut RtWorld, woken: Vec<TaskId>) {
    w.wakeups.waiting -= woken.len();
    w.wakeups.woken.extend(woken);
}

/// Arm the retry tick: 1 ns after a completion (or an export release
/// reaching its owner), every task woken by then retries its preparation
/// in ticket order, unbilled. The tick is armed whenever any task is
/// waiting, woken or not, so the event sequence does not depend on who
/// happens to be woken.
fn schedule_wakeups(sim: &mut RtSim) {
    let q = &mut sim.world.wakeups;
    if q.tick_armed || (q.waiting == 0 && q.woken.is_empty()) {
        return;
    }
    q.tick_armed = true;
    let at = sim.now() + SimDuration::from_nanos(1);
    schedule_task_event(sim, at, |sim| {
        let w = &mut sim.world;
        w.wakeups.tick_armed = false;
        let mut woken = std::mem::take(&mut w.wakeups.woken);
        woken.sort_by_cached_key(|tid| w.inflight[tid].ticket);
        for tid in woken {
            prepare_task(sim, tid);
        }
    });
}
