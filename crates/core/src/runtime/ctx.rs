//! [`RtCtx`]: what an application driver may do to the runtime between
//! phases — create and destroy items, broadcast, migrate, inspect.

use allscale_des::{SimDuration, SimTime};
use allscale_region::ItemType;
use allscale_trace::TransferPurpose;

use super::comms::{bill_hops, open_payload, seal_payload, send_msg, Payload};
use super::directory::{create_item, destroy_item, index_update};
use super::{replicas, RtWorld};
use crate::dynamic::{DynRegion, ItemDescriptor};
use crate::slo::ServeSpec;
use crate::task::ItemId;

/// Driver-facing handle on the runtime between phases.
pub struct RtCtx<'a> {
    pub(super) world: &'a mut RtWorld,
    pub(super) now: SimTime,
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
        create_item(self.world, self.now, ItemDescriptor::of::<I>(name))
    }

    /// Destroy a data item everywhere (paper action `destroy`).
    pub fn destroy_item(&mut self, item: ItemId) {
        destroy_item(self.world, self.now, item);
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
        self.world.localities[loc]
            .dim
            .owned_region(item)
            .clone_box()
    }

    /// Replicate `region` of `item` (owned by `owner`) to every other
    /// locality as a *persistent* replica — the runtime-initiated
    /// (replicate) rule, used for read-mostly data such as the top of the
    /// TPC kd-tree. Writers to the region will be fenced permanently, so
    /// only use this for data that is read-only from here on.
    ///
    /// Only the part of `region` that `owner` *owns* is replicated and
    /// fenced: a caller may pass the whole item while `owner` holds half
    /// of it, and the other half keeps being served (and written) by its
    /// own owner. A fence over data the recorder never held would break
    /// the fenced-writes invariant ([`Self::verify_consistency`], check 4).
    ///
    /// Billed as a binomial broadcast on the simulated network.
    pub fn broadcast_replicate(&mut self, item: ItemId, owner: usize, region: &dyn DynRegion) {
        replicas::broadcast(self.world, self.now, item, owner, region);
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
    /// Panics if a serving phase is already registered, or if the SLO
    /// control period is 0 (each tick would re-arm at the same instant).
    pub fn serve(&mut self, spec: ServeSpec) {
        let period = spec.slo.control_period;
        assert!(
            period > SimDuration::ZERO,
            "an SLO control period of 0 stops time"
        );
        self.world.serving.register(spec);
    }

    /// Migrate ownership of `region` of `item` from `from` to `to`
    /// (runtime-initiated (migrate) rule) — the load-balancing primitive:
    /// "the scheduling policy may decide to migrate data between nodes,
    /// which will implicitly lead to the redirection of future tasks to
    /// the newly designated localities".
    pub fn migrate_region(&mut self, item: ItemId, region: &dyn DynRegion, from: usize, to: usize) {
        let w = &mut *self.world;
        let now = self.now;
        // Remap endpoints off localities the detector has declared dead —
        // the same rule task placement applies (`live_target`). Without
        // it, a policy handing data to a crashed locality would re-own
        // the region to a node that can never serve it: every later
        // reader's request to it is lost, the phase stalls, and no
        // further death exists for the detector to recover from.
        let from = w.recovery.live_target(from);
        let to = w.recovery.live_target(to);
        if from == to {
            return;
        }
        let bytes = w.localities[from].dim.export_migration(item, region);
        let hops1 = index_update(w, now, item, from);
        w.localities[to].dim.import_owned(item, &bytes);
        let hops2 = index_update(w, now, item, to);
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

    /// Test hook: flip a byte in the first non-empty stored shard of each
    /// of the newest `n` retained checkpoints — simulated targeted
    /// at-rest corruption, for exercising the recovery fallback chain
    /// without a fault plan's random rot arm. No-op when resilience is
    /// off or fewer checkpoints are retained.
    #[doc(hidden)]
    pub fn corrupt_newest_checkpoints(&mut self, n: usize) {
        self.world.recovery.corrupt_newest_checkpoints(n);
    }

    /// Test hook: how many checkpoints (anchor + delta links) the
    /// resilience manager currently retains.
    #[doc(hidden)]
    pub fn retained_checkpoints(&self) -> usize {
        self.world.recovery.retained_checkpoints()
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
    /// Returns a list of violations (empty = consistent). The runtime calls
    /// this itself: in a debug-profile build `cross_boundary` checks every
    /// phase boundary of every run — first, replayed after a recovery,
    /// after a serving phase, final — and panics on a violation; release
    /// builds carry no call. It stays public for tests that are *about*
    /// the check: asserting it mid-boundary (right after a driver-side
    /// migration) or asserting that a deliberate corruption is flagged.
    pub fn verify_consistency(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let localities = &self.world.localities;
        for item in self.world.directory.items() {
            // 1. Pairwise disjoint ownership.
            for (a, la) in localities.iter().enumerate() {
                let ra = la.dim.owned_region(item);
                for (b, lb) in localities.iter().enumerate().skip(a + 1) {
                    let rb = lb.dim.owned_region(item);
                    if !ra.is_disjoint_dyn(rb) {
                        let overlap = ra.intersect_dyn(rb);
                        violations.push(format!(
                            "item {item:?}: localities {a} and {b} both own {overlap:?}"
                        ));
                    }
                }
            }
            for (p, loc) in localities.iter().enumerate() {
                // 2. Index leaves match DIM ownership.
                if let Some(advertised) = self.world.directory.advertised_leaf(item, p) {
                    let owned = loc.dim.owned_region(item);
                    if !advertised.eq_dyn(owned) {
                        violations.push(format!(
                            "item {item:?}: index leaf of locality {p} disagrees with DIM \
                             (index {advertised:?} vs owned {owned:?})"
                        ));
                    }
                }
            }
            // 3. No locks held between phases.
            for (p, loc) in localities.iter().enumerate() {
                if loc.dim.has_locks(item) {
                    violations.push(format!(
                        "item {item:?}: locality {p} still holds locks at a phase boundary"
                    ));
                }
            }
            // 4. Fenced writes: persistent replicas stay backed by their
            //    exporter's owned data.
            replicas::fenced_writes(localities, item, &mut violations);
        }
        violations
    }

    /// Plan and apply an automatic rebalancing of a grid item distributed
    /// in axis-0 bands (see [`crate::rebalance`]): observed busy times
    /// since the start of the run drive a migration plan equalizing
    /// predicted time. Returns the number of migrations performed.
    pub fn auto_rebalance<const D: usize>(&mut self, item: ItemId, trigger: f64) -> usize {
        let busy = self.busy_ns();
        let localities = self.world.localities.iter();
        let owned: Vec<allscale_region::BoxRegion<D>> = localities
            .map(|l| {
                l.dim
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
