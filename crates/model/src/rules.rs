//! The state transition relation `→` (paper Definition 2.10, Figs. 2-3).
//!
//! Each rule's premises are checked literally; a transition whose premises
//! fail is rejected with a [`Violation`] naming the broken premise. Two
//! clarifications relative to the paper's figures are adopted from its
//! Appendix A (both are needed for the *data preservation* proof sketch to
//! go through):
//!
//! - `migrate` additionally requires the moved elements to be present at
//!   the source address space ("(migrate) transitions move **existing**
//!   data");
//! - `replicate` additionally requires the copied elements to be present
//!   at the source address space.
//!
//! The executable model also tracks item liveness (created and not yet
//! destroyed) so that data-management rules cannot operate on items the
//! application never created — see `SystemState::live_items`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ids::{CoreId, Elem, ItemId, MemId, TaskId, VariantId};
use crate::program::{Action, Program};
use crate::state::SystemState;

/// One instance of a transition rule with all its choice parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition {
    /// (start): take task `task` from Q, pick `variant`, run on `core`,
    /// with requirement items mapped to memories by `mem_assign`.
    Start {
        /// The task taken from `Q`.
        task: TaskId,
        /// The chosen variant `v ∈ var(t)`.
        variant: VariantId,
        /// The compute unit `c`.
        core: CoreId,
        /// The mapping `m : D → M` restricted to required items.
        mem_assign: BTreeMap<ItemId, MemId>,
    },
    /// (spawn)/(sync)/(end)/(create)/(destroy): advance the running variant
    /// `(core, variant, pc)` by executing its next scripted action.
    Step {
        /// The compute unit the variant runs on.
        core: CoreId,
        /// The running variant.
        variant: VariantId,
        /// Its current program counter (task-local state `s`).
        pc: usize,
    },
    /// (continue): resume the blocked entry `(core, variant, pc, waited)`.
    Continue {
        /// The compute unit of the blocked variant.
        core: CoreId,
        /// The blocked variant.
        variant: VariantId,
        /// Its program counter at suspension.
        pc: usize,
        /// The task it waited on.
        waited: TaskId,
    },
    /// (init): allocate `elems` of `item` in `mem` (nowhere else present).
    Init {
        /// Target address space.
        mem: MemId,
        /// The data item.
        item: ItemId,
        /// The elements to allocate (must be non-empty).
        elems: BTreeSet<Elem>,
    },
    /// (migrate): move `elems` of `item` from `src` to `dst`.
    Migrate {
        /// Source address space.
        src: MemId,
        /// Destination address space.
        dst: MemId,
        /// The data item.
        item: ItemId,
        /// The elements to move (must be non-empty).
        elems: BTreeSet<Elem>,
    },
    /// (replicate): copy `elems` of `item` from `src` to `dst`.
    Replicate {
        /// Source address space.
        src: MemId,
        /// Destination address space.
        dst: MemId,
        /// The data item.
        item: ItemId,
        /// The elements to copy (must be non-empty).
        elems: BTreeSet<Elem>,
    },
}

/// A rejected transition: which premise failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The referenced task is not in `Q`.
    TaskNotEnqueued(TaskId),
    /// The chosen variant does not belong to the task.
    VariantNotOfTask(VariantId, TaskId),
    /// `(c, m(d))` is not a link of the architecture.
    CoreCannotReach(CoreId, MemId),
    /// A required element is not present in the assigned memory.
    RequirementUnsatisfied(ItemId, Elem, MemId),
    /// A write-required element has a copy outside the assigned memory
    /// (the `D ∩ Dw = ∅` premise of (start)).
    ForeignWriteCopy(ItemId, Elem, MemId),
    /// The requirement mapping misses an item the variant accesses.
    MissingAssignment(ItemId),
    /// No such running variant entry exists in `R`.
    NotRunning(CoreId, VariantId, usize),
    /// No such blocked entry exists in `B`.
    NotBlocked(CoreId, VariantId, usize, TaskId),
    /// (continue) requires the awaited task to be finished; it is not.
    AwaitedTaskNotFinished(TaskId),
    /// Element sets of data rules must be non-empty (`E ≠ ∅`).
    EmptyElementSet,
    /// An element in the set lies outside `elems(d)`.
    ElementOutsideItem(ItemId, Elem),
    /// (init) requires the elements to be absent everywhere.
    AlreadyPresent(ItemId, Elem, MemId),
    /// (migrate)/(replicate) source does not hold the elements.
    SourceMissing(ItemId, Elem, MemId),
    /// A lock forbids the data movement.
    LockHeld(MemId, ItemId, Elem),
    /// The item was never created or already destroyed.
    ItemNotLive(ItemId),
    /// (create) of an item that is already live.
    ItemAlreadyLive(ItemId),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for Violation {}

/// Apply `transition` to `state` under `program`, returning the successor
/// state or the violated premise. This is the relation `→` of
/// Definition 2.10 as a checked function.
pub fn apply(
    program: &Program,
    state: &SystemState,
    transition: &Transition,
) -> Result<SystemState, Violation> {
    match transition {
        Transition::Start {
            task,
            variant,
            core,
            mem_assign,
        } => apply_start(program, state, *task, *variant, *core, mem_assign),
        Transition::Step { core, variant, pc } => apply_step(program, state, *core, *variant, *pc),
        Transition::Continue {
            core,
            variant,
            pc,
            waited,
        } => apply_continue(program, state, *core, *variant, *pc, *waited),
        Transition::Init { mem, item, elems } => apply_init(program, state, *mem, *item, elems),
        Transition::Migrate {
            src,
            dst,
            item,
            elems,
        } => apply_move(program, state, *src, *dst, *item, elems, true),
        Transition::Replicate {
            src,
            dst,
            item,
            elems,
        } => apply_move(program, state, *src, *dst, *item, elems, false),
    }
}

fn apply_start(
    program: &Program,
    state: &SystemState,
    task: TaskId,
    variant: VariantId,
    core: CoreId,
    mem_assign: &BTreeMap<ItemId, MemId>,
) -> Result<SystemState, Violation> {
    // t ∈ Q
    if !state.q.contains(&task) {
        return Err(Violation::TaskNotEnqueued(task));
    }
    // v ∈ var(t)
    if !program.variants_of(task).contains(&variant) {
        return Err(Violation::VariantNotOfTask(variant, task));
    }
    let spec = program.variant(variant);
    // ∀d: (c, m(d)) ∈ L ∧ ∀e ∈ read ∪ write: (m(d), d, e) ∈ D
    for d in spec.required_items() {
        let Some(&m) = mem_assign.get(&d) else {
            return Err(Violation::MissingAssignment(d));
        };
        if !state.arch.linked(core, m) {
            return Err(Violation::CoreCannotReach(core, m));
        }
        for e in spec.required_elems(d) {
            if !state.present(m, d, e) {
                return Err(Violation::RequirementUnsatisfied(d, e, m));
            }
        }
    }
    // D ∩ Dw = ∅: no copy of a write element outside its assigned memory.
    for d in spec.required_items() {
        let m = mem_assign[&d];
        for e in spec.write_elems(d) {
            for other in state.placements(d, e) {
                if other != m {
                    return Err(Violation::ForeignWriteCopy(d, e, other));
                }
            }
        }
    }
    // Effect: move task out of Q, start variant at init state, take locks.
    let mut next = state.clone();
    next.q.remove(&task);
    next.r.insert((core, variant, 0));
    for d in spec.required_items() {
        let m = mem_assign[&d];
        for e in spec.read_elems(d) {
            next.lr.insert((variant, m, d, e));
        }
        for e in spec.write_elems(d) {
            next.lw.insert((variant, m, d, e));
        }
    }
    Ok(next)
}

fn apply_step(
    program: &Program,
    state: &SystemState,
    core: CoreId,
    variant: VariantId,
    pc: usize,
) -> Result<SystemState, Violation> {
    if !state.r.contains(&(core, variant, pc)) {
        return Err(Violation::NotRunning(core, variant, pc));
    }
    let mut next = state.clone();
    next.r.remove(&(core, variant, pc));
    match program.step(variant, pc) {
        // (spawn): enqueue the child, advance.
        Some(Action::Spawn(t)) => {
            next.q.insert(t);
            next.r.insert((core, variant, pc + 1));
        }
        // (sync): move to B, remembering the awaited task.
        Some(Action::Sync(t)) => {
            next.b.insert((core, variant, pc + 1, t));
        }
        // (create): item becomes live; no allocation, no locks.
        Some(Action::Create(d)) => {
            if state.live_items.contains(&d) {
                return Err(Violation::ItemAlreadyLive(d));
            }
            next.live_items.insert(d);
            next.r.insert((core, variant, pc + 1));
        }
        // (destroy): drop all placements and locks of the item.
        Some(Action::Destroy(d)) => {
            if !state.live_items.contains(&d) {
                return Err(Violation::ItemNotLive(d));
            }
            next.live_items.remove(&d);
            next.d.retain(|&(_, di, _)| di != d);
            next.lr.retain(|&(_, _, di, _)| di != d);
            next.lw.retain(|&(_, _, di, _)| di != d);
            next.r.insert((core, variant, pc + 1));
        }
        // (end): discard state, release all locks held by the variant.
        None => {
            next.lr.retain(|&(v, _, _, _)| v != variant);
            next.lw.retain(|&(v, _, _, _)| v != variant);
        }
    }
    Ok(next)
}

fn apply_continue(
    program: &Program,
    state: &SystemState,
    core: CoreId,
    variant: VariantId,
    pc: usize,
    waited: TaskId,
) -> Result<SystemState, Violation> {
    if !state.b.contains(&(core, variant, pc, waited)) {
        return Err(Violation::NotBlocked(core, variant, pc, waited));
    }
    // t ∉ Q and no variant of t running or blocked.
    if state.q.contains(&waited) || state.task_active(program.variants_of(waited)) {
        return Err(Violation::AwaitedTaskNotFinished(waited));
    }
    let mut next = state.clone();
    next.b.remove(&(core, variant, pc, waited));
    next.r.insert((core, variant, pc));
    Ok(next)
}

fn apply_init(
    program: &Program,
    state: &SystemState,
    mem: MemId,
    item: ItemId,
    elems: &BTreeSet<Elem>,
) -> Result<SystemState, Violation> {
    if elems.is_empty() {
        return Err(Violation::EmptyElementSet);
    }
    if !state.live_items.contains(&item) {
        return Err(Violation::ItemNotLive(item));
    }
    let universe = program.elems(item);
    for &e in elems {
        if !universe.contains(&e) {
            return Err(Violation::ElementOutsideItem(item, e));
        }
        // D ∩ (M × {d} × E) = ∅: absent everywhere.
        if let Some(&m) = state.placements(item, e).first() {
            return Err(Violation::AlreadyPresent(item, e, m));
        }
    }
    let mut next = state.clone();
    for &e in elems {
        next.d.insert((mem, item, e));
    }
    Ok(next)
}

fn apply_move(
    program: &Program,
    state: &SystemState,
    src: MemId,
    dst: MemId,
    item: ItemId,
    elems: &BTreeSet<Elem>,
    is_migrate: bool,
) -> Result<SystemState, Violation> {
    if elems.is_empty() {
        return Err(Violation::EmptyElementSet);
    }
    if !state.live_items.contains(&item) {
        return Err(Violation::ItemNotLive(item));
    }
    let universe = program.elems(item);
    for &e in elems {
        if !universe.contains(&e) {
            return Err(Violation::ElementOutsideItem(item, e));
        }
        // Appendix-A clarification: sources must hold the data.
        if !state.present(src, item, e) {
            return Err(Violation::SourceMissing(item, e, src));
        }
        if is_migrate {
            // (Lr ∪ Lw) ∩ (V × {ms, md} × {d} × E) = ∅.
            if state.any_lock(src, item, e) {
                return Err(Violation::LockHeld(src, item, e));
            }
            if state.any_lock(dst, item, e) {
                return Err(Violation::LockHeld(dst, item, e));
            }
        } else {
            // Lw ∩ (V × {ms} × {d} × E) = ∅ (reads at the source are fine)
            if state.any_write_lock(src, item, e) {
                return Err(Violation::LockHeld(src, item, e));
            }
            // (Lr ∪ Lw) ∩ (V × {md} × {d} × E) = ∅.
            if state.any_lock(dst, item, e) {
                return Err(Violation::LockHeld(dst, item, e));
            }
        }
    }
    let mut next = state.clone();
    for &e in elems {
        if is_migrate {
            next.d.remove(&(src, item, e));
        }
        next.d.insert((dst, item, e));
    }
    Ok(next)
}

/// Enumerate all `Step` and `Continue` transitions enabled in `state`
/// (the application-progress moves). `Start` and the data-management moves
/// have large parameter spaces and are enumerated by the driver instead.
pub fn enabled_progress(program: &Program, state: &SystemState) -> Vec<Transition> {
    let mut out = Vec::new();
    for &(core, variant, pc) in &state.r {
        out.push(Transition::Step { core, variant, pc });
    }
    for &(core, variant, pc, waited) in &state.b {
        if !state.q.contains(&waited) && !state.task_active(program.variants_of(waited)) {
            out.push(Transition::Continue {
                core,
                variant,
                pc,
                waited,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::program::{req, ProgramBuilder, VariantSpec};

    /// Entry task writes elems {0,1} of item 0, reads {2}.
    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.item(ItemId(0), 4);
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![Action::Create(ItemId(0))],
                reads: req(&[(ItemId(0), &[2])]),
                writes: req(&[(ItemId(0), &[0, 1])]),
            },
        );
        b.build(TaskId(0))
    }

    fn two_node_arch() -> Architecture {
        Architecture::cluster(2, 1)
    }

    #[test]
    fn start_requires_data_present() {
        let p = tiny_program();
        let s = SystemState::initial(TaskId(0), two_node_arch());
        let t = Transition::Start {
            task: TaskId(0),
            variant: VariantId(0),
            core: CoreId(0),
            mem_assign: [(ItemId(0), MemId(0))].into_iter().collect(),
        };
        assert_eq!(
            apply(&p, &s, &t),
            Err(Violation::RequirementUnsatisfied(
                ItemId(0),
                Elem(0),
                MemId(0)
            ))
        );
    }

    /// Drive the tiny program to a startable state by hand.
    fn prepared_state(_p: &Program) -> SystemState {
        let mut s = SystemState::initial(TaskId(0), two_node_arch());
        s.live_items.insert(ItemId(0));
        for e in [0, 1, 2] {
            s.d.insert((MemId(0), ItemId(0), Elem(e)));
        }
        s
    }

    #[test]
    fn start_takes_locks_and_dequeues() {
        let p = tiny_program();
        let s = prepared_state(&p);
        let t = Transition::Start {
            task: TaskId(0),
            variant: VariantId(0),
            core: CoreId(0),
            mem_assign: [(ItemId(0), MemId(0))].into_iter().collect(),
        };
        let s2 = apply(&p, &s, &t).unwrap();
        assert!(s2.q.is_empty());
        assert!(s2.r.contains(&(CoreId(0), VariantId(0), 0)));
        assert_eq!(s2.lr.len(), 1);
        assert_eq!(s2.lw.len(), 2);
    }

    #[test]
    fn start_rejects_core_without_link() {
        let p = tiny_program();
        let s = prepared_state(&p);
        let t = Transition::Start {
            task: TaskId(0),
            variant: VariantId(0),
            core: CoreId(1), // node B's core cannot reach m0
            mem_assign: [(ItemId(0), MemId(0))].into_iter().collect(),
        };
        assert_eq!(
            apply(&p, &s, &t),
            Err(Violation::CoreCannotReach(CoreId(1), MemId(0)))
        );
    }

    #[test]
    fn start_rejects_foreign_write_copies() {
        let p = tiny_program();
        let mut s = prepared_state(&p);
        // Element 0 (write-required) also replicated on m1.
        s.d.insert((MemId(1), ItemId(0), Elem(0)));
        let t = Transition::Start {
            task: TaskId(0),
            variant: VariantId(0),
            core: CoreId(0),
            mem_assign: [(ItemId(0), MemId(0))].into_iter().collect(),
        };
        assert_eq!(
            apply(&p, &s, &t),
            Err(Violation::ForeignWriteCopy(ItemId(0), Elem(0), MemId(1)))
        );
    }

    #[test]
    fn end_releases_locks() {
        let p = tiny_program();
        let s0 = prepared_state(&p);
        let start = Transition::Start {
            task: TaskId(0),
            variant: VariantId(0),
            core: CoreId(0),
            mem_assign: [(ItemId(0), MemId(0))].into_iter().collect(),
        };
        let s1 = apply(&p, &s0, &start).unwrap();
        // pc 0: create — but item already live here, so build a fresh state
        // where the item is created by the task itself instead.
        let mut s1b = s1.clone();
        s1b.live_items.clear();
        let s2 = apply(
            &p,
            &s1b,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(0),
                pc: 0,
            },
        )
        .unwrap();
        assert!(s2.live_items.contains(&ItemId(0)));
        // pc 1: end.
        let s3 = apply(
            &p,
            &s2,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(0),
                pc: 1,
            },
        )
        .unwrap();
        assert!(s3.is_terminal());
        assert!(s3.lr.is_empty() && s3.lw.is_empty());
        // Data survives termination (Dt).
        assert_eq!(s3.d.len(), 3);
    }

    #[test]
    fn init_rejects_duplicates_and_foreign_elements() {
        let p = tiny_program();
        let mut s = SystemState::initial(TaskId(0), two_node_arch());
        s.live_items.insert(ItemId(0));
        let init = Transition::Init {
            mem: MemId(0),
            item: ItemId(0),
            elems: [Elem(0)].into_iter().collect(),
        };
        let s1 = apply(&p, &s, &init).unwrap();
        assert!(s1.present(MemId(0), ItemId(0), Elem(0)));
        // Re-init anywhere is rejected: element already present.
        let init2 = Transition::Init {
            mem: MemId(1),
            item: ItemId(0),
            elems: [Elem(0)].into_iter().collect(),
        };
        assert_eq!(
            apply(&p, &s1, &init2),
            Err(Violation::AlreadyPresent(ItemId(0), Elem(0), MemId(0)))
        );
        // Elements outside elems(d) are rejected.
        let bad = Transition::Init {
            mem: MemId(0),
            item: ItemId(0),
            elems: [Elem(99)].into_iter().collect(),
        };
        assert_eq!(
            apply(&p, &s1, &bad),
            Err(Violation::ElementOutsideItem(ItemId(0), Elem(99)))
        );
    }

    #[test]
    fn migrate_moves_and_respects_locks() {
        let p = tiny_program();
        let mut s = SystemState::initial(TaskId(0), two_node_arch());
        s.live_items.insert(ItemId(0));
        s.d.insert((MemId(0), ItemId(0), Elem(0)));
        let mig = Transition::Migrate {
            src: MemId(0),
            dst: MemId(1),
            item: ItemId(0),
            elems: [Elem(0)].into_iter().collect(),
        };
        let s1 = apply(&p, &s, &mig).unwrap();
        assert!(!s1.present(MemId(0), ItemId(0), Elem(0)));
        assert!(s1.present(MemId(1), ItemId(0), Elem(0)));

        // With a read lock at the source, migration is forbidden.
        let mut locked = s.clone();
        locked
            .lr
            .insert((VariantId(0), MemId(0), ItemId(0), Elem(0)));
        assert_eq!(
            apply(&p, &locked, &mig),
            Err(Violation::LockHeld(MemId(0), ItemId(0), Elem(0)))
        );
    }

    #[test]
    fn replicate_copies_and_respects_write_locks() {
        let p = tiny_program();
        let mut s = SystemState::initial(TaskId(0), two_node_arch());
        s.live_items.insert(ItemId(0));
        s.d.insert((MemId(0), ItemId(0), Elem(0)));
        let rep = Transition::Replicate {
            src: MemId(0),
            dst: MemId(1),
            item: ItemId(0),
            elems: [Elem(0)].into_iter().collect(),
        };
        let s1 = apply(&p, &s, &rep).unwrap();
        assert!(s1.present(MemId(0), ItemId(0), Elem(0)));
        assert!(s1.present(MemId(1), ItemId(0), Elem(0)));

        // A read lock at the source does NOT forbid replication…
        let mut read_locked = s.clone();
        read_locked
            .lr
            .insert((VariantId(0), MemId(0), ItemId(0), Elem(0)));
        assert!(apply(&p, &read_locked, &rep).is_ok());

        // …but a write lock does.
        let mut write_locked = s.clone();
        write_locked
            .lw
            .insert((VariantId(0), MemId(0), ItemId(0), Elem(0)));
        assert_eq!(
            apply(&p, &write_locked, &rep),
            Err(Violation::LockHeld(MemId(0), ItemId(0), Elem(0)))
        );
    }

    #[test]
    fn migrate_of_absent_data_rejected() {
        let p = tiny_program();
        let mut s = SystemState::initial(TaskId(0), two_node_arch());
        s.live_items.insert(ItemId(0));
        let mig = Transition::Migrate {
            src: MemId(0),
            dst: MemId(1),
            item: ItemId(0),
            elems: [Elem(0)].into_iter().collect(),
        };
        assert_eq!(
            apply(&p, &s, &mig),
            Err(Violation::SourceMissing(ItemId(0), Elem(0), MemId(0)))
        );
    }

    #[test]
    fn empty_element_sets_rejected() {
        let p = tiny_program();
        let mut s = SystemState::initial(TaskId(0), two_node_arch());
        s.live_items.insert(ItemId(0));
        let init = Transition::Init {
            mem: MemId(0),
            item: ItemId(0),
            elems: BTreeSet::new(),
        };
        assert_eq!(apply(&p, &s, &init), Err(Violation::EmptyElementSet));
    }

    #[test]
    fn destroy_erases_data_and_locks() {
        let mut b = ProgramBuilder::new();
        b.item(ItemId(0), 2);
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![Action::Create(ItemId(0)), Action::Destroy(ItemId(0))],
                ..Default::default()
            },
        );
        let p = b.build(TaskId(0));
        let s0 = SystemState::initial(TaskId(0), two_node_arch());
        let start = Transition::Start {
            task: TaskId(0),
            variant: VariantId(0),
            core: CoreId(0),
            mem_assign: BTreeMap::new(),
        };
        let s1 = apply(&p, &s0, &start).unwrap();
        let s2 = apply(
            &p,
            &s1,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(0),
                pc: 0,
            },
        )
        .unwrap();
        // Allocate some data, then destroy.
        let s3 = apply(
            &p,
            &s2,
            &Transition::Init {
                mem: MemId(1),
                item: ItemId(0),
                elems: [Elem(0), Elem(1)].into_iter().collect(),
            },
        )
        .unwrap();
        let s4 = apply(
            &p,
            &s3,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(0),
                pc: 1,
            },
        )
        .unwrap();
        assert!(s4.d.is_empty());
        assert!(!s4.live_items.contains(&ItemId(0)));
    }

    #[test]
    fn spawn_sync_continue_round_trip() {
        let mut b = ProgramBuilder::new();
        b.variant(TaskId(1), VariantSpec::default());
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![Action::Spawn(TaskId(1)), Action::Sync(TaskId(1))],
                ..Default::default()
            },
        );
        let p = b.build(TaskId(0));
        let s0 = SystemState::initial(TaskId(0), two_node_arch());
        let s1 = apply(
            &p,
            &s0,
            &Transition::Start {
                task: TaskId(0),
                variant: VariantId(1),
                core: CoreId(0),
                mem_assign: BTreeMap::new(),
            },
        )
        .unwrap();
        // spawn
        let s2 = apply(
            &p,
            &s1,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(1),
                pc: 0,
            },
        )
        .unwrap();
        assert!(s2.q.contains(&TaskId(1)));
        // sync — blocks the parent.
        let s3 = apply(
            &p,
            &s2,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(1),
                pc: 1,
            },
        )
        .unwrap();
        assert_eq!(s3.b.len(), 1);
        // continue is NOT enabled: child still in Q.
        let cont = Transition::Continue {
            core: CoreId(0),
            variant: VariantId(1),
            pc: 2,
            waited: TaskId(1),
        };
        assert_eq!(
            apply(&p, &s3, &cont),
            Err(Violation::AwaitedTaskNotFinished(TaskId(1)))
        );
        // Run the child on node B.
        let s4 = apply(
            &p,
            &s3,
            &Transition::Start {
                task: TaskId(1),
                variant: VariantId(0),
                core: CoreId(1),
                mem_assign: BTreeMap::new(),
            },
        )
        .unwrap();
        let s5 = apply(
            &p,
            &s4,
            &Transition::Step {
                core: CoreId(1),
                variant: VariantId(0),
                pc: 0,
            },
        )
        .unwrap();
        // Now the parent may continue and finish.
        let s6 = apply(&p, &s5, &cont).unwrap();
        let s7 = apply(
            &p,
            &s6,
            &Transition::Step {
                core: CoreId(0),
                variant: VariantId(1),
                pc: 2,
            },
        )
        .unwrap();
        assert!(s7.is_terminal());
    }

    #[test]
    fn enabled_progress_enumerates_runnable_moves() {
        let mut b = ProgramBuilder::new();
        b.variant(TaskId(1), VariantSpec::default());
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![Action::Spawn(TaskId(1)), Action::Sync(TaskId(1))],
                ..Default::default()
            },
        );
        let p = b.build(TaskId(0));
        let s0 = SystemState::initial(TaskId(0), two_node_arch());
        assert!(enabled_progress(&p, &s0).is_empty()); // nothing running yet
    }
}
