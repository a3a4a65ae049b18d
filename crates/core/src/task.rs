//! The task model: work items with process/split variants and data
//! requirements.
//!
//! The paper's compiler (Section 3.3) lowers each task of the input program
//! into "a serial and parallel implementation variant … \[and\] a function
//! computing requirements with each code variant". In this reproduction the
//! same artifact is expressed directly, and [`WorkItem`] is the one way to
//! write a task: a *process* variant (`process` + `requirements` + `cost`)
//! and, when `can_split`, a *split* variant producing child work items —
//! the variant structure of the `prec` operator the AllScale API builds on
//! (Def 2.3). [`pfor`](crate::pfor) is one implementation of it; TPC,
//! serving and every test task implement it directly.
//!
//! The spawn/sync tree is the runtime's (Fig. 2's `spawn`, `sync` and
//! `end` rules): it counts each task's depth (0 for a root, one more than
//! its parent's for a child) and makes a parent's value the sum of its own
//! and its children's ([`TaskValue`]). A work item states only what the
//! runtime reads from it.

use std::fmt;
use std::rc::Rc;

use allscale_des::SimDuration;
use allscale_region::Fragment;

use crate::cost::CostModel;
use crate::dim::DataItemManager;
use crate::dynamic::DynRegion;

/// Identifies a data item across the whole runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

/// Per-item state indexed by [`ItemId`]: ids are a dense counter, so an
/// item's entry is a slot of a `Vec` (`None` for an id not, or no longer,
/// held), and iteration is in ascending id order.
pub(crate) struct ItemTable<T>(Vec<Option<T>>);

impl<T> Default for ItemTable<T> {
    fn default() -> Self {
        ItemTable(Vec::new())
    }
}

impl<T> ItemTable<T> {
    pub(crate) fn get(&self, item: ItemId) -> Option<&T> {
        self.0.get(item.0 as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, item: ItemId) -> Option<&mut T> {
        self.0.get_mut(item.0 as usize)?.as_mut()
    }

    pub(crate) fn insert(&mut self, item: ItemId, value: T) {
        let i = item.0 as usize;
        self.0.resize_with(self.0.len().max(i + 1), || None);
        self.0[i] = Some(value);
    }

    pub(crate) fn remove(&mut self, item: ItemId) -> Option<T> {
        self.0.get_mut(item.0 as usize)?.take()
    }

    /// The id after every one ever held: the next of a counter that
    /// allocates ids only here.
    pub(crate) fn next_id(&self) -> ItemId {
        ItemId(self.0.len() as u32)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (ItemId, &T)> {
        let held = self.0.iter().enumerate();
        held.filter_map(|(i, v)| Some((ItemId(i as u32), v.as_ref()?)))
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.0.iter_mut().flatten()
    }
}

/// Identifies a task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Read or read/write access (paper Definition 2.7); a write grants a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessMode {
    /// The task only reads the region; replicas are permissible.
    Read,
    /// The task updates the region; exclusive ownership required.
    Write,
}

/// One data requirement of a task variant: which region of which item, and
/// with which access mode.
pub struct Requirement {
    /// The accessed data item.
    pub item: ItemId,
    /// The accessed region (type-erased), shared with the lock a data item
    /// manager grants for it.
    pub region: Rc<dyn DynRegion>,
    /// Access mode.
    pub mode: AccessMode,
}

impl Requirement {
    /// A read requirement.
    pub fn read(item: ItemId, region: impl DynRegion + 'static) -> Self {
        Requirement {
            item,
            region: Rc::new(region),
            mode: AccessMode::Read,
        }
    }

    /// A write requirement.
    pub fn write(item: ItemId, region: impl DynRegion + 'static) -> Self {
        Requirement {
            item,
            region: Rc::new(region),
            mode: AccessMode::Write,
        }
    }
}

impl fmt::Debug for Requirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} {:?} of {:?}", self.mode, self.region, self.item)
    }
}

/// The value a task produces (added into its parent's, or handed to the
/// phase driver by a phase's root): a count such as TPC's query matches,
/// or `None` for effect-only tasks such as `pfor` tiles. A parent's value
/// is its own plus its children's, where `None` adds nothing.
pub type TaskValue = Option<u64>;

/// Execution context handed to a task's process variant: typed access to
/// the fragments held by the executing locality.
pub struct TaskCtx<'a> {
    /// The locality (cluster node) the task runs on.
    pub locality: usize,
    pub(crate) dim: &'a mut DataItemManager,
    pub(crate) charged: SimDuration,
    pub(crate) task: TaskId,
    pub(crate) reqs: &'a [Requirement],
}

impl TaskCtx<'_> {
    /// Charge additional virtual compute time to this task — for work
    /// whose extent is data-dependent and only known while executing
    /// (e.g. the number of kd-tree nodes a pruned traversal visits).
    pub fn charge(&mut self, dur: SimDuration) {
        self.charged += dur;
    }

    /// The access rule (§2.5 over Def 2.7): in debug builds, panic unless a
    /// requirement of this task on `item` declares `mode` (a write declares
    /// a read too) over a region `covers` accepts; `what` names the access.
    pub(crate) fn check_access<R: 'static>(
        &self,
        item: ItemId,
        mode: AccessMode,
        what: fmt::Arguments<'_>,
        covers: impl Fn(&R) -> bool,
    ) {
        let fits = |q: &Requirement| {
            q.item == item
                && q.mode >= mode
                && q.region.as_any().downcast_ref().is_some_and(&covers)
        };
        if cfg!(debug_assertions) && !self.reqs.iter().any(fits) {
            let declared: Vec<_> = self.reqs.iter().filter(|q| q.item == item).collect();
            panic!("{:?} {mode:?} of {what} of {item:?} outside its declared {declared:?} — missing requirement", self.task);
        }
    }

    /// Immutable access to the local fragment of `item`, declared for reading
    /// (checked in debug builds); what the caller reads in it is its own affair.
    ///
    /// # Panics
    /// Panics if the item is unknown or `F` is not its fragment type.
    pub fn fragment<F: Fragment>(&self, item: ItemId) -> &F {
        self.check_access(
            item,
            AccessMode::Read,
            format_args!("fragment"),
            |_: &F::Region| true,
        );
        self.dim
            .fragment_any(item)
            .downcast_ref::<F>()
            .expect("wrong fragment type for item")
    }

    /// Mutable access to the local fragment of `item`, declared for writing
    /// (checked in debug builds); what the caller writes in it is its own affair.
    ///
    /// # Panics
    /// Panics if the item is unknown or `F` is not its fragment type.
    pub fn fragment_mut<F: Fragment>(&mut self, item: ItemId) -> &mut F {
        self.check_access(
            item,
            AccessMode::Write,
            format_args!("fragment"),
            |_: &F::Region| true,
        );
        self.dim
            .fragment_any_mut(item)
            .downcast_mut::<F>()
            .expect("wrong fragment type for item")
    }
}

/// What a finished process variant yields.
pub enum Done {
    /// The task is complete with this value.
    Value(TaskValue),
    /// The task continues as a set of child tasks (the model's `spawn` +
    /// `sync` from within a running task, e.g. TPC forwarding traversal
    /// tasks to the localities owning remote subtrees), its value so far
    /// first: the task completes with it plus its children's values. The
    /// task's locks are released before the children are scheduled.
    Children(TaskValue, Vec<Box<dyn WorkItem>>),
}

/// A schedulable unit of work with up to two variants (paper Def. 2.3,
/// Section 3.3): a *process* variant executing the work directly, and —
/// when [`WorkItem::can_split`] — a *split* variant decomposing it.
pub trait WorkItem: 'static {
    /// Whether a split variant exists.
    fn can_split(&self) -> bool;

    /// Data requirements of the *process* variant (paper Definition 2.7).
    /// Split variants require no data: decomposition is pure.
    fn requirements(&self) -> Vec<Requirement>;

    /// Virtual compute cost of the process variant on `locality`.
    fn cost(&self, cost: &CostModel, locality: usize) -> SimDuration;

    /// Execute the process variant.
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done;

    /// Where in `[0, 1)` this task's work sits within the overall problem
    /// domain, if meaningful. The scheduling policy uses hints to spread
    /// unpinned tasks block-wise (which makes first-touch initialization
    /// produce block data distributions).
    fn placement_hint(&self) -> Option<f64> {
        None
    }

    /// Execute the split variant: the children, scheduled independently.
    /// The task's value is the sum of theirs.
    ///
    /// # Panics
    /// May panic when `can_split()` is false; the scheduler never calls it
    /// in that case.
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>>;

    /// Serialized size of the task descriptor when forwarded to another
    /// locality (bills the network).
    fn descriptor_bytes(&self) -> usize {
        192
    }

    /// Serialized size of the produced value when returned cross-locality.
    fn result_bytes(&self) -> usize {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_region::BoxRegion;

    #[test]
    fn requirement_constructors() {
        let r = Requirement::read(ItemId(1), BoxRegion::<2>::cuboid([0, 0], [2, 2]));
        assert_eq!(r.mode, AccessMode::Read);
        assert_eq!(r.item, ItemId(1));
        assert!(!r.region.is_empty_dyn());
        let w = Requirement::write(ItemId(2), BoxRegion::<2>::cuboid([0, 0], [1, 1]));
        assert_eq!(w.mode, AccessMode::Write);
    }
}
