//! The task model: work items with process/split variants, data
//! requirements, and the `prec` recursive-parallelism operator.
//!
//! The paper's compiler (Section 3.3) lowers each task of the input program
//! into "a serial and parallel implementation variant … \[and\] a function
//! computing requirements with each code variant". In this reproduction the
//! same artifact is expressed directly: a [`WorkItem`] exposes a *process*
//! variant (`process` + `requirements` + `cost`) and, when `can_split`, a
//! *split* variant producing child work items and a combiner — exactly the
//! variant structure of the `prec` operator the AllScale API builds on.

use std::any::Any;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

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

/// The value a task produces (consumed by its parent's combiner). `None`
/// for effect-only tasks such as `pfor` bodies.
pub type TaskValue = Option<Box<dyn Any>>;

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
    /// tasks to the localities owning remote subtrees). The task's locks
    /// are released before the children are scheduled.
    Children(SplitOutcome),
}

/// Result of running a task's split variant.
#[allow(clippy::type_complexity)]
pub struct SplitOutcome {
    /// Child work items, scheduled independently.
    pub children: Vec<Box<dyn WorkItem>>,
    /// Combiner running (at the parent's locality) once all children have
    /// completed, receiving their values in order.
    pub combine: Box<dyn FnOnce(Vec<TaskValue>) -> TaskValue>,
}

/// A schedulable unit of work with up to two variants (paper Def. 2.3,
/// Section 3.3): a *process* variant executing the work directly, and —
/// when [`WorkItem::can_split`] — a *split* variant decomposing it.
pub trait WorkItem: 'static {
    /// Short name for monitoring and traces.
    fn name(&self) -> &'static str;

    /// Recursion depth (the scheduler's variant policy splits shallow tasks
    /// and processes deep ones).
    fn depth(&self) -> u32;

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

    /// Execute the split variant.
    ///
    /// # Panics
    /// May panic when `can_split()` is false; the scheduler never calls it
    /// in that case.
    fn split(self: Box<Self>) -> SplitOutcome;

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

/// The operation table of a `prec` (recursive-parallel) computation over a
/// parameter type `P` — the paper's context-aware primitive for nested
/// recursive parallelism underlying the AllScale API.
#[allow(clippy::type_complexity)] // the operation table IS the type
pub struct PrecOps<P> {
    /// Task family name.
    pub name: &'static str,
    /// Whether a parameter can still be decomposed.
    pub can_split: Box<dyn Fn(&P, u32) -> bool>,
    /// Decompose a parameter into sub-parameters.
    pub split: Box<dyn Fn(&P) -> Vec<P>>,
    /// Combine child values into this task's value.
    pub combine: Box<dyn Fn(Vec<TaskValue>) -> TaskValue>,
    /// The base-case body.
    pub process: Box<dyn Fn(&mut TaskCtx<'_>, &P) -> TaskValue>,
    /// Placement hint for a parameter (fraction of the problem domain).
    pub hint: Box<dyn Fn(&P) -> Option<f64>>,
    /// Data requirements of the base case for a parameter.
    pub requirements: Box<dyn Fn(&P) -> Vec<Requirement>>,
    /// Virtual compute cost of the base case.
    pub cost: Box<dyn Fn(&P, &CostModel, usize) -> SimDuration>,
    /// Forwarded descriptor size in bytes.
    pub descriptor_bytes: usize,
    /// Result size in bytes.
    pub result_bytes: usize,
}

/// A `prec` task instance: a parameter plus the shared operation table.
pub struct Prec<P: 'static> {
    /// This task's parameter (e.g. an index range).
    pub param: P,
    /// Recursion depth below the root call.
    pub depth: u32,
    /// Shared operations.
    pub ops: Arc<PrecOps<P>>,
}

impl<P: 'static> Prec<P> {
    /// The root task of a `prec` computation.
    pub fn root(param: P, ops: Arc<PrecOps<P>>) -> Box<dyn WorkItem> {
        Box::new(Prec {
            param,
            depth: 0,
            ops,
        })
    }
}

impl<P: 'static> WorkItem for Prec<P> {
    fn name(&self) -> &'static str {
        self.ops.name
    }
    fn depth(&self) -> u32 {
        self.depth
    }
    fn can_split(&self) -> bool {
        (self.ops.can_split)(&self.param, self.depth)
    }
    fn requirements(&self) -> Vec<Requirement> {
        (self.ops.requirements)(&self.param)
    }
    fn cost(&self, cost: &CostModel, locality: usize) -> SimDuration {
        (self.ops.cost)(&self.param, cost, locality)
    }
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done {
        Done::Value((self.ops.process)(ctx, &self.param))
    }
    fn placement_hint(&self) -> Option<f64> {
        (self.ops.hint)(&self.param)
    }
    fn split(self: Box<Self>) -> SplitOutcome {
        let parts = (self.ops.split)(&self.param);
        let depth = self.depth + 1;
        let ops = self.ops.clone();
        let children: Vec<Box<dyn WorkItem>> = parts
            .into_iter()
            .map(|param| {
                Box::new(Prec {
                    param,
                    depth,
                    ops: ops.clone(),
                }) as Box<dyn WorkItem>
            })
            .collect();
        let combine_ops = self.ops.clone();
        SplitOutcome {
            children,
            combine: Box::new(move |vals| (combine_ops.combine)(vals)),
        }
    }
    fn descriptor_bytes(&self) -> usize {
        self.ops.descriptor_bytes
    }
    fn result_bytes(&self) -> usize {
        self.ops.result_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allscale_region::BoxRegion;

    #[allow(clippy::arc_with_non_send_sync)] // single-threaded simulation
    fn sum_ops() -> Arc<PrecOps<(u64, u64)>> {
        // Recursive range sum: split ranges longer than 4.
        Arc::new(PrecOps {
            name: "sum",
            can_split: Box::new(|(lo, hi), _| hi - lo > 4),
            split: Box::new(|&(lo, hi)| {
                let mid = (lo + hi) / 2;
                vec![(lo, mid), (mid, hi)]
            }),
            combine: Box::new(|vals| {
                let total: u64 = vals
                    .into_iter()
                    .map(|v| *v.unwrap().downcast::<u64>().unwrap())
                    .sum();
                Some(Box::new(total))
            }),
            process: Box::new(|_ctx, &(lo, hi)| Some(Box::new((lo..hi).sum::<u64>()))),
            hint: Box::new(|&(lo, _)| Some(lo as f64 / 16.0)),
            requirements: Box::new(|_| Vec::new()),
            cost: Box::new(|&(lo, hi), c, l| c.flops(l, hi - lo)),
            descriptor_bytes: 64,
            result_bytes: 8,
        })
    }

    #[test]
    fn prec_splits_until_grain() {
        let root = Prec::root((0u64, 16u64), sum_ops());
        assert!(root.can_split());
        assert_eq!(root.depth(), 0);
        let out = root.split();
        assert_eq!(out.children.len(), 2);
        assert_eq!(out.children[0].depth(), 1);
        let out = crate::task::SplitOutcome {
            children: out.children,
            combine: out.combine,
        };
        // Depth-2 children of range 4 stop splitting.
        let leaf = out
            .children
            .into_iter()
            .next()
            .unwrap()
            .split()
            .children
            .into_iter()
            .next()
            .unwrap();
        assert!(!leaf.can_split());
    }

    #[test]
    fn prec_combiner_reduces_child_values() {
        let root = Prec::root((0u64, 8u64), sum_ops());
        let out = root.split();
        let vals: Vec<TaskValue> = vec![
            Some(Box::new(6u64)),  // 0+1+2+3
            Some(Box::new(22u64)), // 4+5+6+7
        ];
        let total = (out.combine)(vals).unwrap();
        assert_eq!(*total.downcast::<u64>().unwrap(), 28);
    }

    #[test]
    fn requirement_constructors() {
        let r = Requirement::read(ItemId(1), BoxRegion::<2>::cuboid([0, 0], [2, 2]));
        assert_eq!(r.mode, AccessMode::Read);
        assert_eq!(r.item, ItemId(1));
        assert!(!r.region.is_empty_dyn());
        let w = Requirement::write(ItemId(2), BoxRegion::<2>::cuboid([0, 0], [1, 1]));
        assert_eq!(w.mode, AccessMode::Write);
    }

    #[test]
    fn prec_cost_delegates() {
        let root = Prec::root((0u64, 100u64), sum_ops());
        let c = CostModel::default();
        assert_eq!(root.cost(&c, 0), c.flops(0, 100));
    }
}
