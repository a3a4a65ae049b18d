//! The per-locality data item manager (paper Section 3.2).
//!
//! "A data item manager instance in each AllScale process maintains
//! fragments of data items and actively manages contained data by
//! performing resizing, import, and export operations. Furthermore, the
//! data item manager keeps track of the lock states Lr and Lw of locally
//! maintained data item regions."
//!
//! Each locality owns one [`DataItemManager`]. It distinguishes:
//!
//! - the **owned** region of each item — the primary copy, registered in
//!   the distributed index;
//! - **replica** coverage — read-only copies imported for the duration of
//!   a task (released at task end, per the model's lock discipline);
//! - **exports** — records of *our* owned data currently replicated at
//!   other localities ([`Export`]); a write lock cannot be granted while
//!   an export of the region is outstanding (the model's exclusive-writes
//!   property).
//!
//! ## Wait lists
//!
//! A task the (start) rule refuses suspends *on the object it waits for*:
//! the refusal names a [`Blocker`] — a region of an item at one locality —
//! and the runtime enqueues the task, FIFO, on that locality's manager
//! ([`DataItemManager::enqueue_waiter`]). Every mutation that can turn a
//! refusal into a grant — [`unlock_all`](DataItemManager::unlock_all),
//! [`release_exports_of`](DataItemManager::release_exports_of),
//! [`release_persistent_exports`](DataItemManager::release_persistent_exports),
//! [`release_inbound`](DataItemManager::release_inbound) — hands back the
//! waiters whose region overlaps what it released, in enqueue order, and
//! drops them from the list. Refusing is side-effect free; with no waiter
//! registered the release paths do exactly the work they did before wait
//! lists existed.
//!
//! ## Lock lists
//!
//! The granted locks of one mode on one item are a `LockList`: grant
//! order for the scans that ask whether anything clashes (the first clash
//! names the [`Blocker`]), and an index by holder for the release, which
//! unlinks the finishing task's locks and tests only those against the
//! wait list — however many other tasks hold locks there.

#[cfg(test)]
use std::cell::Cell;
use std::rc::Rc;

use allscale_des::hash::MulXorMap;
use allscale_net::frame::Payload;

use crate::dynamic::{DynFragment, DynRegion, ItemDescriptor};
use crate::task::{AccessMode, ItemId, ItemTable, Requirement, TaskId};

/// Who an export record keeps a replica of our owned data for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Export {
    /// A transient replica at locality `holder`, read by `task`: released
    /// when the task ends ([`DataItemManager::release_exports_of`]).
    Replica {
        /// The locality holding the replica.
        holder: usize,
        /// The task reading it.
        task: TaskId,
    },
    /// A broadcast replica at every other locality, held by no task: it
    /// fences writers until it is invalidated
    /// ([`DataItemManager::release_persistent_exports`]).
    Persistent,
}

/// A claim on part of an item at one data item manager — what a parked
/// task may be waiting for (deadlock diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holder {
    /// A write lock of the task.
    WriteLock(TaskId),
    /// A read lock of the task.
    ReadLock(TaskId),
    /// An outstanding export of our owned data.
    Export(Export),
    /// A migration to the task, still on the wire.
    Inbound(TaskId),
}

/// What a refused task is blocked on: `region` of `item` at `locality`'s
/// data item manager — the key of the wait list it is enqueued on.
#[derive(Debug, Clone)]
pub struct Blocker {
    /// The locality whose manager holds the blocking lock, export or fence.
    pub locality: usize,
    /// The contended data item.
    pub item: ItemId,
    /// The contended part of the item.
    pub region: Box<dyn DynRegion>,
}

/// Why a lock could not be granted; each variant carries the overlap of
/// the request with the lock or export that refused it.
#[derive(Debug, Clone)]
pub enum LockConflict {
    /// The region overlaps a write lock held by another task.
    WriteLocked(Blocker),
    /// A write was requested on a region overlapping a read lock.
    ReadLocked(Blocker),
    /// A write was requested while replicas of the region are outstanding
    /// at other localities.
    Exported(Blocker),
}

impl LockConflict {
    /// What the refused task has to wait for.
    pub fn into_blocker(self) -> Blocker {
        match self {
            LockConflict::WriteLocked(b)
            | LockConflict::ReadLocked(b)
            | LockConflict::Exported(b) => b,
        }
    }
}

/// A task suspended until something overlapping `region` is released.
struct Waiter {
    task: TaskId,
    region: Box<dyn DynRegion>,
}

#[cfg(test)]
thread_local! {
    /// Lock entries and waiters visited and overlap tests made by this
    /// thread, for the release path's complexity guard.
    static VISITS: Cell<u64> = const { Cell::new(0) };
}

/// Count one visit towards [`VISITS`] (nothing outside tests).
#[inline]
fn visit() {
    #[cfg(test)]
    VISITS.with(|n| n.set(n.get() + 1));
}

fn overlaps(a: &dyn DynRegion, b: &dyn DynRegion) -> bool {
    visit();
    !a.is_disjoint_dyn(b)
}

/// Move the waiters overlapping any of the `released` regions from
/// `waiters` to `woken`, preserving enqueue order on both sides. With no
/// waiter registered — the uncontended path — it returns at once:
/// `released` is never walked, no region is intersected and nothing is
/// allocated. The work itself is kept out of line so that path stays the
/// loop it was (measured: +0.8 ns on a 37.6 ns uncontended
/// `try_lock` + `unlock_all`, against +2.7 ns inlined).
#[inline]
fn wake_overlapping<'a>(
    waiters: &mut Vec<Waiter>,
    woken: &mut Vec<TaskId>,
    released: impl Iterator<Item = &'a dyn DynRegion>,
) {
    if !waiters.is_empty() {
        wake_overlapping_slow(waiters, woken, released);
    }
}

#[cold]
#[inline(never)]
fn wake_overlapping_slow<'a>(
    waiters: &mut Vec<Waiter>,
    woken: &mut Vec<TaskId>,
    released: impl Iterator<Item = &'a dyn DynRegion>,
) {
    // Collected once: the export list this is filtered out of can be
    // long, the result is a handful. Releasing nothing wakes nobody, and
    // the wait list is not walked to find that out.
    let released: Vec<&dyn DynRegion> = released.collect();
    if released.is_empty() {
        return;
    }
    waiters.retain(|w| {
        visit();
        let hit = released.iter().any(|r| overlaps(*r, w.region.as_ref()));
        if hit {
            woken.push(w.task);
        }
        !hit
    });
}

/// Marks the end of a [`LockList`] chain.
const NIL: u32 = u32::MAX;

/// A granted lock of a [`LockList`], or a free node.
struct LockNode {
    task: TaskId,
    /// The requirement's region; `None` on a free node.
    region: Option<Rc<dyn DynRegion>>,
    /// The previous lock in grant order.
    prev: u32,
    /// The next lock in grant order; on a free node, the next free node.
    next: u32,
    /// The holder's next lock in this list.
    next_of_task: u32,
}

/// The granted locks of one mode on one item (see the module docs): a
/// doubly linked list in grant order over a slab whose freed nodes the
/// next grants reuse, plus each holder's first node. Granting and
/// releasing allocate nothing once the slab and the index have grown to
/// the number of locks held at once. The index hashes rather than being
/// a `TaskMap`: one locality's holders are spread over the whole range of
/// live ids, which a window would span.
struct LockList {
    nodes: Vec<LockNode>,
    head: u32,
    tail: u32,
    free: u32,
    /// Each holder's first lock; the rest follow `next_of_task`.
    first_of: MulXorMap<TaskId, u32>,
}

impl Default for LockList {
    fn default() -> Self {
        LockList {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            first_of: MulXorMap::default(),
        }
    }
}

impl LockList {
    fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Grant `task` a lock on `region`, last in grant order.
    fn push(&mut self, task: TaskId, region: Rc<dyn DynRegion>) {
        let node = LockNode {
            task,
            region: Some(region),
            prev: self.tail,
            next: NIL,
            next_of_task: NIL,
        };
        let at = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 locks")
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        };
        match self.tail {
            NIL => self.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        self.tail = at;
        if let Some(next) = self.first_of.insert(task, at) {
            self.nodes[at as usize].next_of_task = next;
        }
    }

    /// Every lock with its holder, in grant order.
    fn iter(&self) -> impl Iterator<Item = (TaskId, &dyn DynRegion)> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some((node.task, node.region.as_deref()?))
        })
    }

    /// The locks `task` holds, without visiting anyone else's. Looked up
    /// at the first `next`, so that an iterator nobody walks costs nothing.
    fn held_by(&self, task: TaskId) -> impl Iterator<Item = &dyn DynRegion> {
        let mut at = None;
        std::iter::from_fn(move || {
            let at = at.get_or_insert_with(|| self.first_of.get(&task).copied().unwrap_or(NIL));
            let node = self.nodes.get(*at as usize)?;
            visit();
            *at = node.next_of_task;
            node.region.as_deref()
        })
    }

    /// Drop every lock of `task`; the others keep their grant order.
    fn release(&mut self, task: TaskId) {
        if self.is_empty() {
            return;
        }
        let mut at = self.first_of.remove(&task).unwrap_or(NIL);
        while at != NIL {
            visit();
            let node = &mut self.nodes[at as usize];
            let (prev, next) = (node.prev, node.next);
            let after = std::mem::replace(&mut node.next_of_task, NIL);
            node.region = None;
            node.next = self.free;
            self.free = at;
            match prev {
                NIL => self.head = next,
                prev => self.nodes[prev as usize].next = next,
            }
            match next {
                NIL => self.tail = prev,
                next => self.nodes[next as usize].prev = prev,
            }
            at = after;
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.first_of.clear();
        (self.head, self.tail, self.free) = (NIL, NIL, NIL);
    }
}

struct ItemSlot {
    desc: ItemDescriptor,
    frag: Box<dyn DynFragment>,
    /// Primary-ownership region (what the index advertises for us).
    owned: Box<dyn DynRegion>,
    /// Granted read locks, each sharing its requirement's region.
    rlocks: LockList,
    /// Granted write locks, each sharing its requirement's region.
    wlocks: LockList,
    /// Replicas of our owned data held elsewhere, in export order.
    exports: Vec<(Export, Box<dyn DynRegion>)>,
    /// The union of the persistent records of `exports`, folded in export
    /// order: extended when one is added, refolded when one shrinks.
    persistent_fence: Box<dyn DynRegion>,
    /// Transient replica coverage imported here, per holding task.
    holds: Vec<(TaskId, Box<dyn DynRegion>)>,
    /// Persistent replica coverage (broadcast read-mostly data).
    persistent: Box<dyn DynRegion>,
    /// Regions whose ownership migration *to* this locality is still in
    /// flight, per receiving task. The index already advertises us as
    /// the owner (so concurrent planners cannot first-touch a second
    /// primary into existence), but the data has not landed: any task
    /// needing the region must park until the arrival lifts the fence.
    inbound: Vec<(TaskId, Box<dyn DynRegion>)>,
    /// Tasks refused because of a lock, export or inbound fence held
    /// *here*, in enqueue order (see the module docs).
    waiters: Vec<Waiter>,
    /// Not written since the snapshot was armed (see `slot_written`): an
    /// armed item without the flag at the end was captured.
    unwritten: bool,
}

impl ItemSlot {
    /// A registered item holding nothing.
    fn new(desc: ItemDescriptor) -> Self {
        ItemSlot {
            frag: (desc.empty_fragment)(),
            owned: (desc.empty_region)(),
            persistent: (desc.empty_region)(),
            persistent_fence: (desc.empty_region)(),
            desc,
            rlocks: LockList::default(),
            wlocks: LockList::default(),
            exports: Vec::new(),
            holds: Vec::new(),
            inbound: Vec::new(),
            waiters: Vec::new(),
            unwritten: false,
        }
    }

    fn drop_locks_of(&mut self, task: TaskId) {
        self.rlocks.release(task);
        self.wlocks.release(task);
    }

    /// Fold the persistent export records into `persistent_fence` afresh.
    fn refold_persistent_fence(&mut self) {
        let records = self
            .exports
            .iter()
            .filter(|(to, _)| *to == Export::Persistent);
        self.persistent_fence = records.fold((self.desc.empty_region)(), |acc, (_, r)| {
            acc.union_dyn(r.as_ref())
        });
    }

    /// Remove `drop` from the fragment where nothing else here still
    /// covers it: not the owned region, not the persistent-replica
    /// coverage, not any task's transient hold.
    fn evict(&mut self, mut drop: Box<dyn DynRegion>) {
        drop = drop.difference_dyn(self.owned.as_ref());
        drop = drop.difference_dyn(self.persistent.as_ref());
        for (_, r) in &self.holds {
            if drop.is_empty_dyn() {
                return;
            }
            drop = drop.difference_dyn(r.as_ref());
        }
        if !drop.is_empty_dyn() {
            self.frag.remove_dyn(drop.as_ref());
        }
    }
}

/// The data item manager of one locality.
pub struct DataItemManager {
    locality: usize,
    items: ItemTable<ItemSlot>,
    /// The boundary state an armed snapshot holds until it ends: every
    /// item's owned data as serialized at arming, ascending. Copy-on-write
    /// is a property of the *modelled* runtime, which would clone an item
    /// at its first write after the boundary; the simulator already
    /// serialized everything to fingerprint the boundary, keeps those
    /// bytes, and only counts the first writes.
    snap: Option<Vec<(ItemId, Vec<u8>)>>,
}

impl DataItemManager {
    /// The manager for `locality`.
    pub fn new(locality: usize) -> Self {
        DataItemManager {
            locality,
            items: ItemTable::default(),
            snap: None,
        }
    }

    /// The locality this manager belongs to.
    pub fn locality(&self) -> usize {
        self.locality
    }

    /// Register a data item (the paper's `create` action, executed on every
    /// locality — creation allocates nothing).
    pub fn register(&mut self, item: ItemId, desc: ItemDescriptor) {
        self.items.insert(item, ItemSlot::new(desc));
    }

    /// Remove a data item entirely (the paper's `destroy` action); an
    /// unknown item is left alone.
    pub fn destroy(&mut self, item: ItemId) {
        self.items.remove(item);
    }

    // ---- boundary snapshots ---------------------------------------------

    /// Arm a snapshot of the current boundary state: every item's owned
    /// data is serialized once and the bytes are kept for
    /// [`DataItemManager::end_snapshot`]. They are also lent to the
    /// caller, in ascending [`ItemId`] order, to be fingerprinted — the
    /// change-detection input of incremental checkpointing — together with
    /// every other locality's in one batch.
    pub fn arm_snapshot(&mut self) -> &[(ItemId, Vec<u8>)] {
        let snap = self.checkpoint();
        for slot in self.items.values_mut() {
            slot.unwritten = true;
        }
        self.snap.insert(snap)
    }

    /// End the armed snapshot. Hands back the boundary state — equal to
    /// what [`DataItemManager::checkpoint`] returned at arm time: items
    /// created after arming are excluded, items destroyed after arming
    /// appear with their pre-destruction data — and the count of its
    /// items first written (or destroyed, or wiped) under it, where the
    /// modelled runtime cloned a pre-image. A drain torn by a failure
    /// keeps only the count.
    pub fn end_snapshot(&mut self) -> (Vec<(ItemId, Vec<u8>)>, u64) {
        let snap = self.snap.take().unwrap_or_default();
        let mut unwritten = 0;
        for slot in self.items.values_mut() {
            unwritten += u64::from(std::mem::take(&mut slot.unwritten));
        }
        let captures = snap.len() as u64 - unwritten;
        (snap, captures)
    }

    /// The region this locality owns (primary copies).
    pub fn owned_region(&self, item: ItemId) -> &dyn DynRegion {
        self.slot(item).owned.as_ref()
    }

    /// The region a *new* task may rely on for reads without fetching:
    /// owned data plus persistent replicas. Transient replicas held by
    /// other tasks are excluded — they may be dropped at any completion.
    pub fn read_base(&self, item: ItemId) -> Box<dyn DynRegion> {
        let slot = self.slot(item);
        slot.owned.union_dyn(slot.persistent.as_ref())
    }

    /// Whether `region` is covered by the stable read base. Asked once per
    /// read requirement of every task, so it never builds the base, and a
    /// region that is all owned or touches no replica — every task's, bar
    /// the few straddling a broadcast — builds nothing at all:
    /// `region ⊆ owned ∪ persistent` ⇔ `(region ∖ owned) ⊆ persistent`,
    /// which fails outright when `region ⊄ owned` misses `persistent`.
    pub fn covers_stable(&self, item: ItemId, region: &dyn DynRegion) -> bool {
        let slot = self.slot(item);
        let (owned, persistent) = (slot.owned.as_ref(), slot.persistent.as_ref());
        region.is_subset_dyn(owned)
            || (!region.is_disjoint_dyn(persistent)
                && region.difference_dyn(owned).is_subset_dyn(persistent))
    }

    /// First-touch allocation (the model's (init) rule): extend ownership
    /// and allocate default-initialized storage for `region`.
    pub fn init_owned(&mut self, item: ItemId, region: &dyn DynRegion) {
        let slot = self.slot_written(item);
        // Do not clobber data we already hold: only allocate the truly new
        // part, then union ownership. The fragment's layout is billed
        // bytes, so the new part keeps the box structure it has always
        // had — that of `region` cut down to it.
        let missing = region.difference_dyn(slot.frag.region_dyn());
        if !missing.is_empty_dyn() {
            let fresh = (slot.desc.alloc_fragment)(region.intersect_dyn(missing.as_ref()).as_ref());
            slot.frag.insert_dyn(fresh);
        }
        slot.owned = slot.owned.union_dyn(region);
    }

    /// Export (copy out) `region` of our data as serialized bytes for a
    /// transfer; the export is recorded against `task` at `holder` when the
    /// transfer is a replica (read), so writes can be fenced.
    pub fn export_replica(
        &mut self,
        item: ItemId,
        region: &dyn DynRegion,
        holder: usize,
        task: TaskId,
    ) -> Payload {
        self.export(item, region, Export::Replica { holder, task })
    }

    fn export(&mut self, item: ItemId, region: &dyn DynRegion, to: Export) -> Payload {
        let slot = self.slot_mut(item);
        let bytes = slot.frag.export(region);
        slot.exports.push((to, region.clone_box()));
        if to == Export::Persistent {
            // The fold with one more record at its end.
            slot.persistent_fence = slot.persistent_fence.union_dyn(region);
        }
        bytes
    }

    /// Export `region` of our data as a *persistent* replica (a broadcast
    /// to every other locality): the export fences writers until
    /// [`DataItemManager::release_persistent_exports`] lifts it.
    pub fn export_persistent(&mut self, item: ItemId, region: &dyn DynRegion) -> Payload {
        self.export(item, region, Export::Persistent)
    }

    /// Extract `region` for a migration: data and ownership leave this
    /// locality.
    pub fn export_migration(&mut self, item: ItemId, region: &dyn DynRegion) -> Payload {
        let slot = self.slot_written(item);
        let bytes = slot.frag.export(region);
        slot.frag.remove_dyn(region);
        slot.owned = slot.owned.difference_dyn(region);
        bytes
    }

    /// Import serialized fragment data as a read replica held by `task`
    /// for the duration of its execution.
    pub fn import_replica(&mut self, item: ItemId, bytes: &[u8], task: TaskId) {
        let slot = self.slot_written(item);
        let frag = (slot.desc.decode_fragment)(bytes);
        let region = frag.region_dyn().clone_box();
        slot.frag.insert_dyn(frag);
        slot.holds.push((task, region));
    }

    /// Import serialized fragment data as a persistent replica (broadcast
    /// read-mostly data, e.g. the top levels of a static tree).
    pub fn import_persistent(&mut self, item: ItemId, bytes: &[u8]) {
        let slot = self.slot_written(item);
        let frag = (slot.desc.decode_fragment)(bytes);
        slot.persistent = slot.persistent.union_dyn(frag.region_dyn());
        slot.frag.insert_dyn(frag);
    }

    /// Fence `region` as an in-flight inbound migration for `task`: the
    /// index already names this locality as the region's owner, but the
    /// data is still on the wire. Planners must treat the region as
    /// unavailable until [`DataItemManager::release_inbound`] lifts the
    /// fence at arrival.
    pub fn fence_inbound(&mut self, item: ItemId, task: TaskId, region: &dyn DynRegion) {
        self.slot_mut(item).inbound.push((task, region.clone_box()));
    }

    /// Lift one inbound-migration fence of `task` matching `region`
    /// exactly (its transfer arrived). Other in-flight pieces of the
    /// same task stay fenced. Returns the waiters overlapping the lifted
    /// fence.
    pub fn release_inbound(
        &mut self,
        item: ItemId,
        task: TaskId,
        region: &dyn DynRegion,
    ) -> Vec<TaskId> {
        let slot = self.slot_mut(item);
        let mut woken = Vec::new();
        if let Some(i) = slot.inbound.iter().position(|(t, r)| {
            *t == task && r.is_subset_dyn(region) && region.is_subset_dyn(r.as_ref())
        }) {
            slot.inbound.remove(i);
            wake_overlapping(&mut slot.waiters, &mut woken, std::iter::once(region));
        }
        woken
    }

    /// What the index must advertise for this locality: the owned region
    /// plus every region still behind an inbound-migration fence. Each
    /// index update replaces the locality's whole leaf, so advertising
    /// `owned` alone while a migration is on the wire would un-publish
    /// its destination — and the next planner would first-touch a second
    /// primary into existence.
    pub fn advertised_region(&self, item: ItemId) -> Box<dyn DynRegion> {
        let slot = self.slot(item);
        slot.inbound
            .iter()
            .fold(slot.owned.clone_box(), |acc, (_, r)| {
                acc.union_dyn(r.as_ref())
            })
    }

    /// Whether any part of `region` is behind an inbound-migration fence.
    pub fn inbound_fenced(&self, item: ItemId, region: &dyn DynRegion) -> bool {
        self.slot(item)
            .inbound
            .iter()
            .any(|(_, r)| overlaps(r.as_ref(), region))
    }

    /// Import serialized fragment data as owned (migration arrival).
    pub fn import_owned(&mut self, item: ItemId, bytes: &[u8]) {
        let slot = self.slot_written(item);
        let frag = (slot.desc.decode_fragment)(bytes);
        slot.owned = slot.owned.union_dyn(frag.region_dyn());
        slot.frag.insert_dyn(frag);
    }

    /// Release the export records of `task` (its replicas elsewhere were
    /// dropped). Returns the waiters overlapping a released export.
    pub fn release_exports_of(&mut self, item: ItemId, task: TaskId) -> Vec<TaskId> {
        let slot = self.slot_mut(item);
        let mut woken = Vec::new();
        let of_task = |e: &Export| matches!(e, Export::Replica { task: t, .. } if *t == task);
        let released = slot.exports.iter().filter(|(e, _)| of_task(e));
        wake_overlapping(
            &mut slot.waiters,
            &mut woken,
            released.map(|(_, r)| r.as_ref()),
        );
        slot.exports.retain(|(e, _)| !of_task(e));
        woken
    }

    /// Release `task`'s transient replica holds of `item`; physical data is
    /// dropped only where no other task (and no persistent replica or
    /// owned region) still covers it — the model's "runtime can remove
    /// replicated data" with reference counting.
    pub fn drop_replica_holds(&mut self, item: ItemId, task: TaskId) {
        let slot = self.slot_written(item);
        let mut released: Option<Box<dyn DynRegion>> = None;
        slot.holds.retain(|(t, r)| {
            if *t == task {
                released = Some(match released.take() {
                    None => r.clone_box(),
                    Some(acc) => acc.union_dyn(r.as_ref()),
                });
                false
            } else {
                true
            }
        });
        if let Some(drop) = released {
            slot.evict(drop);
        }
    }

    /// Try to acquire the locks for all `reqs` on behalf of `task`
    /// (atomically: either all granted or none).
    pub fn try_lock(&mut self, task: TaskId, reqs: &[Requirement]) -> Result<(), LockConflict> {
        // Validation pass. Held locks are only asked whether they overlap;
        // the one that does has the overlap built for the refusal, and
        // nothing else happens: the caller decides whether the task waits.
        let locality = self.locality;
        for req in reqs {
            let slot = self.slot(req.item);
            let region = req.region.as_ref();
            let clash = |held: &dyn DynRegion| {
                overlaps(held, region).then(|| Blocker {
                    locality,
                    item: req.item,
                    region: held.intersect_dyn(region),
                })
            };
            for (t, w) in slot.wlocks.iter() {
                if t != task {
                    if let Some(b) = clash(w) {
                        return Err(LockConflict::WriteLocked(b));
                    }
                }
            }
            if req.mode == AccessMode::Write {
                for (t, r) in slot.rlocks.iter() {
                    if t != task {
                        if let Some(b) = clash(r) {
                            return Err(LockConflict::ReadLocked(b));
                        }
                    }
                }
                for (_, e) in &slot.exports {
                    if let Some(b) = clash(e.as_ref()) {
                        return Err(LockConflict::Exported(b));
                    }
                }
            }
        }
        // Grant pass: a lock shares its requirement's region.
        for req in reqs {
            let slot = self.slot_mut(req.item);
            let held = Rc::clone(&req.region);
            match req.mode {
                AccessMode::Read => slot.rlocks.push(task, held),
                AccessMode::Write => slot.wlocks.push(task, held),
            }
        }
        Ok(())
    }

    /// Whether any lock at all is currently held on `item`.
    pub fn has_locks(&self, item: ItemId) -> bool {
        let slot = self.slot(item);
        !slot.rlocks.is_empty() || !slot.wlocks.is_empty()
    }

    /// Whether this manager, as the source of a fetch, must refuse to give
    /// `region` of `item` up to a task needing it in `mode`. A write takes
    /// ownership away, which any lock or export of the region refuses; a
    /// read takes a replica, which only a write lock refuses. Either way a
    /// region still behind an inbound-migration fence is not here to give.
    pub fn refuses(&self, item: ItemId, region: &dyn DynRegion, mode: AccessMode) -> bool {
        let slot = self.slot(item);
        let hit = |r: &dyn DynRegion| overlaps(r, region);
        slot.wlocks.iter().any(|(_, r)| hit(r))
            || (mode == AccessMode::Write
                && (slot.rlocks.iter().any(|(_, r)| hit(r))
                    || slot.exports.iter().any(|(_, r)| hit(r.as_ref()))))
            || slot.inbound.iter().any(|(_, r)| hit(r.as_ref()))
    }

    /// The persistent-replica coverage of `item` held here (broadcast
    /// read-mostly data imported via [`DataItemManager::import_persistent`]).
    pub fn persistent_region(&self, item: ItemId) -> &dyn DynRegion {
        self.slot(item).persistent.as_ref()
    }

    /// The union of *persistent* export records of `item` — regions of our
    /// owned data replicated elsewhere for the rest of the run
    /// ([`DataItemManager::export_persistent`]), which must stay
    /// write-fenced and owned here as long as those replicas exist. Input
    /// to the fenced-writes consistency check. Kept up to date by the
    /// functions that change a persistent record, so asking builds nothing.
    pub fn persistent_export_region(&self, item: ItemId) -> &dyn DynRegion {
        self.slot(item).persistent_fence.as_ref()
    }

    /// Serialize `region` of the local fragment without recording an
    /// export or touching any bookkeeping — the read-only audit primitive
    /// of the integrity scrubber (fingerprint comparison and repair
    /// payloads).
    pub fn peek_bytes(&self, item: ItemId, region: &dyn DynRegion) -> Payload {
        self.slot(item).frag.export(region)
    }

    /// Shrink the persistent-replica coverage of `item` by `region`, or
    /// evict all of it when `region` is `None`: the holder's side of a
    /// write invalidation or a replica retirement, and the integrity
    /// scrubber's quarantine of a repeatedly divergent replica. Physical
    /// data is dropped only where nothing else — owned region or a
    /// transient hold — still covers it; no export fence is touched.
    pub fn drop_persistent(&mut self, item: ItemId, region: Option<&dyn DynRegion>) {
        let slot = self.slot_written(item);
        let drop = match region {
            None => std::mem::replace(&mut slot.persistent, (slot.desc.empty_region)()),
            Some(region) => {
                let drop = slot.persistent.intersect_dyn(region);
                slot.persistent = slot.persistent.difference_dyn(region);
                drop
            }
        };
        slot.evict(drop);
    }

    /// Shrink the *persistent* export records of `item` by
    /// `region` at the owner — lifts the broadcast write fence for exactly
    /// the invalidated part, leaving other persistent fences and all
    /// transient (per-task) exports intact. The counterpart of
    /// [`DataItemManager::drop_persistent`] on the owner side; the
    /// two must be applied together or the fenced-writes invariant breaks.
    ///
    /// Returns the waiters overlapping `region`.
    pub fn release_persistent_exports(
        &mut self,
        item: ItemId,
        region: &dyn DynRegion,
    ) -> Vec<TaskId> {
        let slot = self.slot_mut(item);
        let mut woken = Vec::new();
        wake_overlapping(&mut slot.waiters, &mut woken, std::iter::once(region));
        let mut kept = Vec::with_capacity(slot.exports.len());
        for (to, r) in slot.exports.drain(..) {
            if to == Export::Persistent {
                let rest = r.difference_dyn(region);
                if !rest.is_empty_dyn() {
                    kept.push((to, rest));
                }
            } else {
                kept.push((to, r));
            }
        }
        slot.exports = kept;
        slot.refold_persistent_fence();
        woken
    }

    /// Release every lock held by `task` (the model's (end) rule). Returns
    /// the waiters overlapping a released lock, item by item in enqueue
    /// order. Only the task's own locks are visited, and only they are
    /// tested against a wait list.
    pub fn unlock_all(&mut self, task: TaskId) -> Vec<TaskId> {
        let mut woken = Vec::new();
        for slot in self.items.values_mut() {
            let released = slot.rlocks.held_by(task).chain(slot.wlocks.held_by(task));
            wake_overlapping(&mut slot.waiters, &mut woken, released);
            slot.drop_locks_of(task);
        }
        woken
    }

    /// Back out of the locks a [`try_lock`](DataItemManager::try_lock) of
    /// the *current* event granted `task` (its transfer plan proved
    /// infeasible). No other task can have been refused because of them,
    /// so nobody is woken.
    pub fn abort_locks(&mut self, task: TaskId) {
        for slot in self.items.values_mut() {
            slot.drop_locks_of(task);
        }
    }

    // ---- wait lists ----------------------------------------------------

    /// Suspend `task` until something overlapping `region` of `item` is
    /// released here (FIFO behind earlier waiters of the item).
    pub fn enqueue_waiter(&mut self, item: ItemId, task: TaskId, region: Box<dyn DynRegion>) {
        self.slot_mut(item).waiters.push(Waiter { task, region });
    }

    /// Wake every waiter of `item` regardless of region — for the rare
    /// item-wide events (a persistent broadcast changes what every
    /// locality can read locally *and* raises a new write fence) where
    /// computing the exact set is not worth it.
    pub fn wake_item(&mut self, item: ItemId) -> Vec<TaskId> {
        let waiters = std::mem::take(&mut self.slot_mut(item).waiters);
        waiters.into_iter().map(|w| w.task).collect()
    }

    /// Drop every wait list (the waiting tasks were discarded by a
    /// recovery).
    pub fn forget_waiters(&mut self) {
        for slot in self.items.values_mut() {
            slot.waiters.clear();
        }
    }

    /// Every waiter enqueued here, per item in enqueue order (deadlock
    /// diagnostics).
    pub fn waiters(&self) -> impl Iterator<Item = (ItemId, TaskId, &dyn DynRegion)> {
        self.items.iter().flat_map(|(item, slot)| {
            slot.waiters
                .iter()
                .map(move |w| (item, w.task, w.region.as_ref()))
        })
    }

    /// The locks, exports and inbound fences overlapping `region` of
    /// `item` (deadlock diagnostics).
    pub fn holders(&self, item: ItemId, region: &dyn DynRegion) -> Vec<Holder> {
        let slot = self.slot(item);
        let wlocks = slot.wlocks.iter().map(|(t, r)| (Holder::WriteLock(t), r));
        let rlocks = slot.rlocks.iter().map(|(t, r)| (Holder::ReadLock(t), r));
        let exports = slot.exports.iter().map(|(e, r)| (Holder::Export(*e), r.as_ref()));
        let inbound = slot.inbound.iter().map(|(t, r)| (Holder::Inbound(*t), r.as_ref()));
        wlocks
            .chain(rlocks)
            .chain(exports)
            .chain(inbound)
            .filter(|&(_, r)| overlaps(r, region))
            .map(|(holder, _)| holder)
            .collect()
    }

    /// Type-erased fragment access for [`crate::task::TaskCtx`].
    pub(crate) fn fragment_any(&self, item: ItemId) -> &dyn std::any::Any {
        self.slot(item).frag.as_any()
    }

    /// Type-erased mutable fragment access.
    pub(crate) fn fragment_any_mut(&mut self, item: ItemId) -> &mut dyn std::any::Any {
        self.slot_written(item).frag.as_any_mut()
    }

    /// Serialize the *owned* portion of every item — the checkpointing
    /// payload of the resilience manager.
    pub fn checkpoint(&self) -> Vec<(ItemId, Vec<u8>)> {
        self.items
            .iter()
            .map(|(id, slot)| (id, slot.frag.encode_part(slot.owned.as_ref())))
            .collect()
    }

    /// Restore owned data from a checkpoint produced by
    /// [`DataItemManager::checkpoint`]. Items must be registered already.
    ///
    /// The fragment is replaced wholesale by the snapshot's owned data, so
    /// every piece of transient state layered on top — locks, exports,
    /// replica holds, persistent-replica coverage, wait lists — is reset:
    /// the bytes backing those claims are gone.
    pub fn restore<B: AsRef<[u8]>>(&mut self, snapshot: &[(ItemId, B)]) {
        for (id, bytes) in snapshot {
            let slot = self.slot_written(*id);
            let frag = (slot.desc.decode_fragment)(bytes.as_ref());
            slot.owned = frag.region_dyn().clone_box();
            slot.frag = frag;
            slot.rlocks.clear();
            slot.wlocks.clear();
            slot.exports.clear();
            slot.persistent_fence = (slot.desc.empty_region)();
            slot.holds.clear();
            slot.persistent = (slot.desc.empty_region)();
            slot.inbound.clear();
            slot.waiters.clear();
        }
    }

    /// Drop all data and transient state of every item, keeping the
    /// registrations — the state of a replacement process joining after a
    /// fail-stop crash: it knows the item types, but holds nothing.
    pub fn wipe_all(&mut self) {
        for slot in self.items.values_mut() {
            *slot = ItemSlot::new(slot.desc.clone());
        }
    }

    fn slot(&self, item: ItemId) -> &ItemSlot {
        self.items
            .get(item)
            .unwrap_or_else(|| panic!("unknown data item {item:?}"))
    }

    fn slot_mut(&mut self, item: ItemId) -> &mut ItemSlot {
        self.items
            .get_mut(item)
            .unwrap_or_else(|| panic!("unknown data item {item:?}"))
    }

    /// The slot of `item` for a change to its fragment, owned region or
    /// persistent coverage: the one way such a change reaches a slot, so
    /// that it counts as the item's first write under an armed snapshot —
    /// where the modelled runtime clones the boundary-time pre-image.
    /// `destroy` and `wipe_all` replace the slot itself, flag and all.
    fn slot_written(&mut self, item: ItemId) -> &mut ItemSlot {
        let slot = self.slot_mut(item);
        slot.unwritten = false;
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::ItemDescriptor;
    use allscale_region::{BoxRegion, GridFragment, ItemType, Point};

    struct G2;
    impl ItemType for G2 {
        type Region = BoxRegion<2>;
        type Fragment = GridFragment<f64, 2>;
    }

    /// Probes of the tests below; the runtime asks `covers_stable`.
    impl DataItemManager {
        fn knows(&self, item: ItemId) -> bool {
            self.items.get(item).is_some()
        }

        /// Whether `region` is fully covered by local data.
        fn covers(&self, item: ItemId, region: &dyn DynRegion) -> bool {
            region.is_subset_dyn(self.slot(item).frag.region_dyn())
        }
    }

    fn mk() -> DataItemManager {
        let mut dim = DataItemManager::new(0);
        dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
        dim
    }

    fn r2(lo: [i64; 2], hi: [i64; 2]) -> BoxRegion<2> {
        BoxRegion::cuboid(lo, hi)
    }

    #[test]
    fn init_allocates_defaults() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        assert!(dim.covers(ItemId(0), &r2([1, 1], [3, 3])));
        assert!(!dim.covers(ItemId(0), &r2([0, 0], [5, 5])));
        let frag = dim
            .fragment_any(ItemId(0))
            .downcast_ref::<GridFragment<f64, 2>>()
            .unwrap();
        assert_eq!(frag.get(&Point([2, 2])), Some(&0.0));
    }

    #[test]
    fn init_does_not_clobber_existing_values() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([1, 1]), 5.0);
        // Re-init an overlapping region: existing value must survive.
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        let frag = dim
            .fragment_any(ItemId(0))
            .downcast_ref::<GridFragment<f64, 2>>()
            .unwrap();
        assert_eq!(frag.get(&Point([1, 1])), Some(&5.0));
        assert_eq!(frag.get(&Point([3, 3])), Some(&0.0));
    }

    #[test]
    fn migration_moves_ownership_and_data() {
        let mut a = mk();
        let mut b = {
            let mut dim = DataItemManager::new(1);
            dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
            dim
        };
        a.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        a.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([3, 0]), 7.0);
        let moved = a.export_migration(ItemId(0), &r2([2, 0], [4, 4]));
        b.import_owned(ItemId(0), &moved);
        assert!(a.owned_region(ItemId(0)).eq_dyn(&r2([0, 0], [2, 4])));
        assert!(b.owned_region(ItemId(0)).eq_dyn(&r2([2, 0], [4, 4])));
        let frag = b
            .fragment_any(ItemId(0))
            .downcast_ref::<GridFragment<f64, 2>>()
            .unwrap();
        assert_eq!(frag.get(&Point([3, 0])), Some(&7.0));
    }

    #[test]
    fn read_locks_share_write_locks_exclude() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [8, 8]));
        let t1 = TaskId(1);
        let t2 = TaskId(2);
        // Two overlapping readers: fine.
        dim.try_lock(t1, &[Requirement::read(ItemId(0), r2([0, 0], [4, 4]))])
            .unwrap();
        dim.try_lock(t2, &[Requirement::read(ItemId(0), r2([2, 2], [6, 6]))])
            .unwrap();
        // Writer overlapping a read lock: rejected.
        let w = dim.try_lock(TaskId(3), &[Requirement::write(ItemId(0), r2([3, 3], [5, 5]))]);
        assert!(matches!(w, Err(LockConflict::ReadLocked(b)) if b.item == ItemId(0)));
        // Disjoint writer: granted.
        dim.try_lock(TaskId(3), &[Requirement::write(ItemId(0), r2([6, 6], [8, 8]))])
            .unwrap();
        // Reader overlapping the write: rejected.
        let r = dim.try_lock(TaskId(4), &[Requirement::read(ItemId(0), r2([7, 7], [8, 8]))]);
        assert!(matches!(r, Err(LockConflict::WriteLocked(b)) if b.item == ItemId(0)));
        // Unlock the readers; now the writer over their region succeeds.
        dim.unlock_all(t1);
        dim.unlock_all(t2);
        dim.try_lock(TaskId(5), &[Requirement::write(ItemId(0), r2([3, 3], [5, 5]))])
            .unwrap();
    }

    #[test]
    fn lock_acquisition_is_atomic() {
        let mut dim = mk();
        dim.register(ItemId(1), ItemDescriptor::of::<G2>("grid2"));
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        dim.init_owned(ItemId(1), &r2([0, 0], [4, 4]));
        dim.try_lock(TaskId(1), &[Requirement::write(ItemId(1), r2([0, 0], [4, 4]))])
            .unwrap();
        // Request locks on item0 (free) and item1 (conflicting): must fail
        // without granting the item0 lock.
        let res = dim.try_lock(
            TaskId(2),
            &[
                Requirement::write(ItemId(0), r2([0, 0], [2, 2])),
                Requirement::write(ItemId(1), r2([0, 0], [1, 1])),
            ],
        );
        assert!(res.is_err());
        // Item0 must still be lockable by someone else in full.
        dim.try_lock(TaskId(3), &[Requirement::write(ItemId(0), r2([0, 0], [4, 4]))])
            .unwrap();
    }

    #[test]
    fn exports_fence_writers() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        let bytes = dim.export_replica(ItemId(0), &r2([0, 0], [2, 2]), 1, TaskId(9));
        assert!(!bytes.is_empty());
        // Writing the exported region is fenced.
        let res = dim.try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([1, 1], [3, 3]))]);
        assert!(matches!(res, Err(LockConflict::Exported(b)) if b.item == ItemId(0)));
        // Reads are fine.
        dim.try_lock(TaskId(2), &[Requirement::read(ItemId(0), r2([1, 1], [3, 3]))])
            .unwrap();
        // After release (and the reader finishing), the writer proceeds.
        assert!(dim.release_exports_of(ItemId(0), TaskId(9)).is_empty(), "nobody waits");
        dim.unlock_all(TaskId(2));
        dim.try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([1, 1], [3, 3]))])
            .unwrap();
    }

    #[test]
    fn replica_import_and_drop() {
        let mut owner = mk();
        let mut reader = {
            let mut dim = DataItemManager::new(1);
            dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
            dim
        };
        owner.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        owner
            .fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([1, 1]), 3.5);
        reader.init_owned(ItemId(0), &r2([4, 0], [8, 4]));
        let bytes = owner.export_replica(ItemId(0), &r2([0, 0], [2, 4]), 1, TaskId(1));
        reader.import_replica(ItemId(0), &bytes, TaskId(1));
        assert!(reader.covers(ItemId(0), &r2([1, 1], [2, 2])));
        // Replica values visible.
        let frag = reader
            .fragment_any(ItemId(0))
            .downcast_ref::<GridFragment<f64, 2>>()
            .unwrap();
        assert_eq!(frag.get(&Point([1, 1])), Some(&3.5));
        // Dropping the replica must not touch owned data.
        reader.drop_replica_holds(ItemId(0), TaskId(1));
        assert!(!reader.covers(ItemId(0), &r2([1, 1], [2, 2])));
        assert!(reader.covers(ItemId(0), &r2([4, 0], [8, 4])));

        // Refcounting: overlapping holds of two tasks survive one drop.
        let bytes2 = owner.export_replica(ItemId(0), &r2([0, 0], [2, 4]), 1, TaskId(2));
        reader.import_replica(ItemId(0), &bytes2, TaskId(2));
        let bytes3 = owner.export_replica(ItemId(0), &r2([0, 0], [1, 4]), 1, TaskId(3));
        reader.import_replica(ItemId(0), &bytes3, TaskId(3));
        reader.drop_replica_holds(ItemId(0), TaskId(2));
        assert!(reader.covers(ItemId(0), &r2([0, 0], [1, 4])), "task 3 hold survives");
        assert!(!reader.covers(ItemId(0), &r2([1, 0], [2, 4])), "task 2 part dropped");
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [3, 3]));
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([2, 2]), 11.0);
        let snap = dim.checkpoint();

        // Corrupt the state, then restore.
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([2, 2]), -1.0);
        dim.restore(&snap);
        let frag = dim
            .fragment_any(ItemId(0))
            .downcast_ref::<GridFragment<f64, 2>>()
            .unwrap();
        assert_eq!(frag.get(&Point([2, 2])), Some(&11.0));
        assert!(dim.owned_region(ItemId(0)).eq_dyn(&r2([0, 0], [3, 3])));
    }

    #[test]
    fn restore_resets_replica_and_persistent_state() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        let snap = dim.checkpoint();
        // Layer transient state on top: a persistent import and an export.
        let bytes = dim.export_persistent(ItemId(0), &r2([0, 0], [1, 1]));
        dim.import_persistent(ItemId(0), &bytes);
        assert!(!dim.persistent_region(ItemId(0)).is_empty_dyn());
        assert!(!dim.persistent_export_region(ItemId(0)).is_empty_dyn());
        dim.restore(&snap);
        assert!(dim.persistent_region(ItemId(0)).is_empty_dyn());
        assert!(dim.persistent_export_region(ItemId(0)).is_empty_dyn());
        assert!(dim.owned_region(ItemId(0)).eq_dyn(&r2([0, 0], [2, 2])));
    }

    #[test]
    fn wipe_all_keeps_registrations_drops_data() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        dim.try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([0, 0], [2, 2]))])
            .unwrap();
        dim.wipe_all();
        assert!(dim.knows(ItemId(0)));
        assert!(dim.owned_region(ItemId(0)).is_empty_dyn());
        assert!(!dim.has_locks(ItemId(0)));
        // The wiped item is still usable.
        dim.init_owned(ItemId(0), &r2([1, 1], [3, 3]));
        assert!(dim.covers(ItemId(0), &r2([1, 1], [3, 3])));
    }

    fn dim_at(locality: usize) -> DataItemManager {
        let mut dim = DataItemManager::new(locality);
        dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
        dim
    }

    /// Refuse `task`'s `req` and enqueue it on what refused it, as the
    /// runtime does.
    fn refuse_and_wait(dim: &mut DataItemManager, task: TaskId, req: Requirement) {
        let on = dim.try_lock(task, &[req]).unwrap_err().into_blocker();
        assert_eq!(on.locality, dim.locality());
        dim.enqueue_waiter(on.item, task, on.region);
    }

    #[test]
    fn refusal_reports_the_overlap_and_registers_nothing() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [8, 8]));
        dim.try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([0, 0], [4, 4]))])
            .unwrap();
        let on = dim
            .try_lock(TaskId(2), &[Requirement::read(ItemId(0), r2([2, 2], [6, 6]))])
            .unwrap_err()
            .into_blocker();
        assert_eq!((on.locality, on.item), (0, ItemId(0)));
        assert!(on.region.eq_dyn(&r2([2, 2], [4, 4])));
        // Refusing is side-effect free: nobody is handed back on release.
        assert_eq!(dim.waiters().count(), 0);
        assert!(dim.unlock_all(TaskId(1)).is_empty());
    }

    #[test]
    fn release_wakes_only_overlapping_waiters_in_fifo_order() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [8, 8]));
        let left = r2([0, 0], [4, 8]);
        let right = r2([4, 0], [8, 8]);
        dim.try_lock(TaskId(1), &[Requirement::write(ItemId(0), left)]).unwrap();
        dim.try_lock(TaskId(2), &[Requirement::write(ItemId(0), right)]).unwrap();
        // Enqueue order 12, 10, 11; 10 waits on the right half only.
        refuse_and_wait(&mut dim, TaskId(12), Requirement::read(ItemId(0), r2([1, 1], [2, 2])));
        refuse_and_wait(&mut dim, TaskId(10), Requirement::read(ItemId(0), r2([5, 5], [6, 6])));
        refuse_and_wait(&mut dim, TaskId(11), Requirement::write(ItemId(0), r2([3, 3], [4, 4])));
        assert_eq!(dim.unlock_all(TaskId(1)), vec![TaskId(12), TaskId(11)]);
        assert_eq!(dim.waiters().map(|(_, t, _)| t).collect::<Vec<_>>(), vec![TaskId(10)]);
        // A woken waiter is off the list: releasing again returns nothing new.
        assert!(dim.unlock_all(TaskId(1)).is_empty());
        assert_eq!(dim.unlock_all(TaskId(2)), vec![TaskId(10)]);
        assert_eq!(dim.waiters().count(), 0);
    }

    #[test]
    fn backing_out_of_locks_wakes_nobody() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        dim.try_lock(TaskId(1), &[Requirement::read(ItemId(0), r2([0, 0], [4, 4]))])
            .unwrap();
        refuse_and_wait(&mut dim, TaskId(9), Requirement::write(ItemId(0), r2([0, 0], [2, 2])));
        // A second reader locks and backs out within one event.
        dim.try_lock(TaskId(2), &[Requirement::read(ItemId(0), r2([0, 0], [4, 4]))])
            .unwrap();
        dim.abort_locks(TaskId(2));
        assert_eq!(dim.waiters().count(), 1);
        assert_eq!(dim.unlock_all(TaskId(1)), vec![TaskId(9)]);
    }

    fn visits_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = VISITS.with(Cell::get);
        let out = f();
        (VISITS.with(Cell::get) - before, out)
    }

    #[test]
    fn a_release_visits_only_the_finishing_tasks_locks() {
        let mut dim = mk();
        let cell = |i: i64| r2([i / 64, i % 64], [i / 64 + 1, i % 64 + 1]);
        let read = |i: i64| [Requirement::read(ItemId(0), cell(i))];
        for i in 0..2_048 {
            dim.try_lock(TaskId(100 + i as u64), &read(i)).unwrap();
        }
        // In the middle of the same list as the others'.
        let mine = [Requirement::read(ItemId(0), r2([64, 0], [65, 1]))];
        dim.try_lock(TaskId(1), &mine).unwrap();
        for i in 2_048..4_096 {
            dim.try_lock(TaskId(100 + i as u64), &read(i)).unwrap();
        }
        let (visits, woken) = visits_of(|| dim.unlock_all(TaskId(1)));
        assert!(woken.is_empty());
        assert_eq!(
            visits, 1,
            "one lock released, none of the 4 096 others visited"
        );
        assert!(!dim.refuses(ItemId(0), &r2([64, 0], [65, 1]), AccessMode::Write));

        // A slot where the task holds nothing does not walk its wait list.
        dim.register(ItemId(1), ItemDescriptor::of::<G2>("other"));
        for t in 0..64 {
            refuse_and_wait(
                &mut dim,
                TaskId(10_000 + t),
                Requirement::write(ItemId(0), cell(0)),
            );
        }
        dim.try_lock(TaskId(2), &[Requirement::read(ItemId(1), cell(0))])
            .unwrap();
        let (visits, woken) = visits_of(|| dim.unlock_all(TaskId(2)));
        assert!(woken.is_empty());
        assert_eq!(visits, 1, "no overlap test against item 0's 64 waiters");
        assert_eq!(dim.waiters().count(), 64);
    }

    #[test]
    fn a_release_keeps_the_others_grant_order() {
        let mut dim = mk();
        let (a, b, c) = (r2([0, 0], [4, 4]), r2([2, 2], [6, 6]), r2([0, 0], [8, 8]));
        for (t, r) in [(1, &a), (2, &b), (3, &c)] {
            dim.try_lock(TaskId(t), &[Requirement::read(ItemId(0), r.clone())])
                .unwrap();
        }
        // The first clash in grant order names the blocker.
        let blocker = |dim: &mut DataItemManager| {
            let all = [Requirement::write(ItemId(0), r2([0, 0], [8, 8]))];
            dim.try_lock(TaskId(9), &all)
                .unwrap_err()
                .into_blocker()
                .region
        };
        assert!(blocker(&mut dim).eq_dyn(&a));
        dim.unlock_all(TaskId(1));
        assert!(blocker(&mut dim).eq_dyn(&b));
        // A later grant reuses the freed entry but queues behind 2 and 3.
        dim.try_lock(TaskId(4), &[Requirement::read(ItemId(0), a.clone())])
            .unwrap();
        dim.unlock_all(TaskId(2));
        assert!(blocker(&mut dim).eq_dyn(&c));
        dim.unlock_all(TaskId(3));
        assert!(blocker(&mut dim).eq_dyn(&a));
        dim.unlock_all(TaskId(4));
        assert!(!dim.has_locks(ItemId(0)));
    }

    #[test]
    fn export_and_fence_releases_wake_their_waiters() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [8, 8]));
        let _ = dim.export_replica(ItemId(0), &r2([0, 0], [2, 8]), 1, TaskId(7));
        let _ = dim.export_persistent(ItemId(0), &r2([2, 0], [4, 8]));
        refuse_and_wait(&mut dim, TaskId(20), Requirement::write(ItemId(0), r2([0, 0], [1, 1])));
        refuse_and_wait(&mut dim, TaskId(21), Requirement::write(ItemId(0), r2([2, 0], [3, 1])));
        refuse_and_wait(&mut dim, TaskId(22), Requirement::write(ItemId(0), r2([3, 0], [4, 1])));
        // A transient release spares the waiters behind the broadcast fence.
        assert_eq!(dim.release_exports_of(ItemId(0), TaskId(7)), vec![TaskId(20)]);
        // A region-precise invalidation wakes exactly the overlapped one.
        assert_eq!(
            dim.release_persistent_exports(ItemId(0), &r2([3, 0], [4, 8])),
            vec![TaskId(22)]
        );
        // An inbound fence wakes its waiters when (and only when) it lifts.
        dim.fence_inbound(ItemId(0), TaskId(30), &r2([8, 0], [9, 8]));
        dim.enqueue_waiter(ItemId(0), TaskId(23), Box::new(r2([8, 0], [9, 1])));
        assert!(dim.release_inbound(ItemId(0), TaskId(31), &r2([8, 0], [9, 8])).is_empty());
        assert_eq!(
            dim.release_inbound(ItemId(0), TaskId(30), &r2([8, 0], [9, 8])),
            vec![TaskId(23)]
        );
        // The item-wide wake takes whoever is left.
        assert_eq!(dim.wake_item(ItemId(0)), vec![TaskId(21)]);
        assert_eq!(dim.waiters().count(), 0);
    }

    #[test]
    fn waiter_blocked_at_a_remote_source_is_woken_by_that_sources_release() {
        // Task 5 lives at locality 1 and needs data locality 0 owns; a
        // writer holds it there. The wait list is the *source's*.
        let mut src = dim_at(0);
        let home = dim_at(1);
        src.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        src.try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([0, 0], [4, 4]))])
            .unwrap();
        let piece = r2([1, 1], [2, 2]);
        assert!(src.refuses(ItemId(0), &piece, AccessMode::Read));
        src.enqueue_waiter(ItemId(0), TaskId(5), Box::new(piece.clone()));
        assert_eq!(home.waiters().count(), 0);
        assert_eq!(src.holders(ItemId(0), &piece), vec![Holder::WriteLock(TaskId(1))]);
        assert_eq!(src.unlock_all(TaskId(1)), vec![TaskId(5)]);
        assert!(src.holders(ItemId(0), &piece).is_empty());
    }

    #[test]
    fn recovery_paths_leave_no_waiter_behind() {
        let held = Requirement::write(ItemId(0), r2([0, 0], [2, 2]));
        let park_one = |dim: &mut DataItemManager| {
            dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
            dim.try_lock(TaskId(1), std::slice::from_ref(&held)).unwrap();
            refuse_and_wait(dim, TaskId(2), Requirement::read(ItemId(0), r2([0, 0], [1, 1])));
            assert_eq!(dim.waiters().count(), 1);
        };
        let mut dim = mk();
        let snap = dim.checkpoint();
        park_one(&mut dim);
        dim.restore(&snap);
        assert_eq!(dim.waiters().count(), 0, "restore");
        park_one(&mut dim);
        dim.wipe_all();
        assert_eq!(dim.waiters().count(), 0, "wipe_all");
        park_one(&mut dim);
        dim.forget_waiters();
        assert_eq!(dim.waiters().count(), 0, "forget_waiters");
        // The lock itself survives forget_waiters; releasing it wakes nobody.
        assert!(dim.unlock_all(TaskId(1)).is_empty());
    }

    #[test]
    fn holders_say_what_they_are() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [8, 8]));
        let _ = dim.export_replica(ItemId(0), &r2([0, 0], [2, 8]), 3, TaskId(7));
        let _ = dim.export_persistent(ItemId(0), &r2([2, 0], [4, 8]));
        dim.try_lock(TaskId(9), &[Requirement::write(ItemId(0), r2([4, 0], [6, 8]))])
            .unwrap();
        let replica = Holder::Export(Export::Replica {
            holder: 3,
            task: TaskId(7),
        });
        let at = |lo: i64, hi: i64| dim.holders(ItemId(0), &r2([lo, 0], [hi, 1]));
        assert_eq!(at(1, 2), [replica]);
        assert_eq!(at(3, 4), [Holder::Export(Export::Persistent)]);
        assert_eq!(at(5, 6), [Holder::WriteLock(TaskId(9))]);
        assert_eq!(
            at(0, 8),
            [Holder::WriteLock(TaskId(9)), replica, Holder::Export(Export::Persistent)]
        );
        assert!(at(6, 8).is_empty());
    }

    #[test]
    fn peek_bytes_is_side_effect_free() {
        let mut owner = mk();
        owner.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        owner
            .fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([1, 1]), 9.0);
        let peeked = owner.peek_bytes(ItemId(0), &r2([0, 0], [2, 2]));
        // Same bytes an export would produce, but no fence recorded.
        assert!(!peeked.is_empty());
        assert!(!owner.refuses(ItemId(0), &r2([0, 0], [2, 2]), AccessMode::Write));
        let exported = owner.export_replica(ItemId(0), &r2([0, 0], [2, 2]), 1, TaskId(1));
        assert_eq!(peeked, exported);
    }

    #[test]
    fn drop_persistent_evicts_replica_but_not_owned_data() {
        let mut owner = mk();
        let mut holder = {
            let mut dim = DataItemManager::new(1);
            dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
            dim
        };
        owner.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        holder.init_owned(ItemId(0), &r2([4, 0], [6, 2]));
        let bytes = owner.export_persistent(ItemId(0), &r2([0, 0], [2, 2]));
        holder.import_persistent(ItemId(0), &bytes);
        assert!(holder.covers_stable(ItemId(0), &r2([0, 0], [2, 2])));
        holder.drop_persistent(ItemId(0), None);
        assert!(holder.persistent_region(ItemId(0)).is_empty_dyn());
        assert!(!holder.covers(ItemId(0), &r2([0, 0], [2, 2])));
        assert!(holder.covers(ItemId(0), &r2([4, 0], [6, 2])), "owned data survives");
    }

    #[test]
    fn covers_stable_needs_owned_and_replica_together() {
        let mut owner = mk();
        let mut holder = {
            let mut dim = DataItemManager::new(1);
            dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
            dim
        };
        owner.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        holder.init_owned(ItemId(0), &r2([2, 0], [4, 2]));
        let both = r2([0, 0], [4, 2]);
        assert!(!holder.covers_stable(ItemId(0), &both), "owned half only");
        let bytes = owner.export_persistent(ItemId(0), &r2([0, 0], [2, 2]));
        holder.import_persistent(ItemId(0), &bytes);
        assert!(holder.covers_stable(ItemId(0), &both), "owned ∪ replica");
        assert!(holder.covers_stable(ItemId(0), &r2([1, 0], [3, 2])));
        assert!(!holder.covers_stable(ItemId(0), &r2([0, 0], [5, 2])), "neither");
        assert!(both.eq_dyn(holder.read_base(ItemId(0)).as_ref()));
        holder.drop_persistent(ItemId(0), None);
        assert!(!holder.covers_stable(ItemId(0), &both), "replica half gone");
    }

    #[test]
    fn region_precise_invalidation_lifts_fence_and_keeps_rest() {
        let mut owner = mk();
        let mut holder = {
            let mut dim = DataItemManager::new(1);
            dim.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
            dim
        };
        owner.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        let bytes = owner.export_persistent(ItemId(0), &r2([0, 0], [4, 4]));
        holder.import_persistent(ItemId(0), &bytes);
        // A writer to any part is fenced while the broadcast stands.
        let res = owner.try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([0, 0], [2, 4]))]);
        assert!(matches!(res, Err(LockConflict::Exported(b)) if b.item == ItemId(0)));
        // Invalidate just the written half, on both sides.
        owner.release_persistent_exports(ItemId(0), &r2([0, 0], [2, 4]));
        holder.drop_persistent(ItemId(0), Some(&r2([0, 0], [2, 4])));
        // The writer now proceeds; the untouched half stays fenced and
        // stays readable locally at the holder.
        owner
            .try_lock(TaskId(1), &[Requirement::write(ItemId(0), r2([0, 0], [2, 4]))])
            .unwrap();
        let res = owner.try_lock(TaskId(2), &[Requirement::write(ItemId(0), r2([2, 0], [4, 4]))]);
        assert!(matches!(res, Err(LockConflict::Exported(b)) if b.item == ItemId(0)));
        assert!(holder.covers_stable(ItemId(0), &r2([2, 0], [4, 4])));
        assert!(!holder.covers(ItemId(0), &r2([0, 0], [2, 4])));
        // Fenced-writes invariant shape: holder persistent == owner fences.
        assert!(holder
            .persistent_region(ItemId(0))
            .eq_dyn(owner.persistent_export_region(ItemId(0))));
    }

    #[test]
    fn release_persistent_exports_spares_transient_exports() {
        let mut owner = mk();
        owner.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        let _ = owner.export_replica(ItemId(0), &r2([0, 0], [2, 2]), 1, TaskId(7));
        let _ = owner.export_persistent(ItemId(0), &r2([0, 0], [4, 4]));
        owner.release_persistent_exports(ItemId(0), &r2([0, 0], [4, 4]));
        assert!(owner.persistent_export_region(ItemId(0)).is_empty_dyn());
        // Task 7's transient export still fences its region.
        assert!(owner.refuses(ItemId(0), &r2([1, 1], [2, 2]), AccessMode::Write));
        assert!(!owner.refuses(ItemId(0), &r2([2, 2], [4, 4]), AccessMode::Write));
    }

    #[test]
    fn destroy_removes_item() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        assert!(dim.knows(ItemId(0)));
        dim.destroy(ItemId(0));
        assert!(!dim.knows(ItemId(0)));
    }

    #[test]
    #[should_panic(expected = "unknown data item ItemId(0)")]
    fn destroyed_item_cannot_be_queried() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        dim.destroy(ItemId(0));
        dim.owned_region(ItemId(0));
    }

    #[test]
    fn armed_snapshot_equals_eager_checkpoint_despite_mutations() {
        let mut dim = mk();
        dim.register(ItemId(1), ItemDescriptor::of::<G2>("grid2"));
        dim.init_owned(ItemId(0), &r2([0, 0], [4, 4]));
        dim.init_owned(ItemId(1), &r2([0, 0], [2, 2]));
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([1, 1]), 4.0);
        let eager = dim.checkpoint();
        dim.arm_snapshot();
        // Mutate item 0 after arming; item 1 stays untouched.
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([1, 1]), -9.0);
        dim.init_owned(ItemId(0), &r2([0, 0], [6, 6]));
        let (lazy, cow_captures) = dim.end_snapshot();
        assert_eq!(lazy, eager, "COW snapshot must be bit-identical to arm-time state");
        assert_eq!(cow_captures, 1, "one first-write clone for item 0");
    }

    #[test]
    fn abort_snapshot_clears_capture_state() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        dim.arm_snapshot();
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([0, 0]), 1.0);
        let _torn = dim.end_snapshot();
        // A later end returns the post-mutation state (nothing armed,
        // nothing pre-captured carried over).
        dim.arm_snapshot();
        let (snap, _) = dim.end_snapshot();
        assert_eq!(snap, dim.checkpoint());
    }

    #[test]
    fn snapshot_excludes_items_created_after_arming() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [2, 2]));
        dim.arm_snapshot();
        dim.register(ItemId(7), ItemDescriptor::of::<G2>("late"));
        dim.init_owned(ItemId(7), &r2([0, 0], [1, 1]));
        let (snap, _) = dim.end_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, ItemId(0));
    }

    #[test]
    fn snapshot_keeps_items_destroyed_after_arming() {
        let mut dim = mk();
        dim.init_owned(ItemId(0), &r2([0, 0], [3, 3]));
        let eager = dim.checkpoint();
        dim.arm_snapshot();
        dim.destroy(ItemId(0));
        let (snap, _) = dim.end_snapshot();
        assert_eq!(snap, eager, "pre-destruction data belongs to the boundary");
    }

    #[test]
    fn arm_snapshot_fingerprints_hash_the_owned_bytes() {
        let mut dim = mk();
        dim.register(ItemId(1), ItemDescriptor::of::<G2>("grid2"));
        dim.init_owned(ItemId(0), &r2([0, 0], [3, 3]));
        let hash = |(id, b): &(ItemId, Vec<u8>)| (*id, allscale_region::fnv1a_64(b), b.len() as u64);
        let hashed = |dim: &DataItemManager| -> Vec<(ItemId, u64, u64)> {
            dim.checkpoint().iter().map(hash).collect()
        };
        let armed = |dim: &mut DataItemManager| -> Vec<(ItemId, u64, u64)> {
            dim.arm_snapshot().iter().map(hash).collect()
        };
        let before = armed(&mut dim);
        assert_eq!(before, hashed(&dim), "one entry per item, empty ones included");
        // A replica import of remote data leaves the owned bytes alone.
        let mut owner = DataItemManager::new(1);
        owner.register(ItemId(0), ItemDescriptor::of::<G2>("grid"));
        owner.init_owned(ItemId(0), &r2([4, 0], [6, 2]));
        let bytes = owner.export_replica(ItemId(0), &r2([4, 0], [6, 2]), 0, TaskId(1));
        dim.import_replica(ItemId(0), &bytes, TaskId(1));
        assert_eq!(armed(&mut dim), before);
        // An owned-data write changes the fingerprint but not the length.
        dim.fragment_any_mut(ItemId(0))
            .downcast_mut::<GridFragment<f64, 2>>()
            .unwrap()
            .set(&Point([2, 2]), 13.0);
        let after = armed(&mut dim);
        assert_eq!(after, hashed(&dim));
        assert_ne!(after[0].1, before[0].1);
        assert_eq!(after[0].2, before[0].2);
        assert_eq!(after[1], before[1]);
    }
}
