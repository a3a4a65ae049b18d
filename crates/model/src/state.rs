//! The system state of the execution model (paper Definition 2.9):
//! the tuple `(Q, R, B, D, Lr, Lw, (C ⊎ M, L))`.

use std::collections::BTreeSet;

use crate::arch::Architecture;
use crate::ids::{CoreId, Elem, ItemId, MemId, TaskId, VariantId};

/// A running variant: `(c, v, s) ∈ R` with the task-local state `s`
/// represented by a script program counter.
pub type Running = (CoreId, VariantId, usize);

/// A suspended variant: `(c, v, s, t) ∈ B` waiting for task `t`.
pub type Blocked = (CoreId, VariantId, usize, TaskId);

/// A data placement fact: `(m, d, e) ∈ D`.
pub type Placed = (MemId, ItemId, Elem);

/// A lock fact: `(v, m, d, e) ∈ Lr` or `Lw`.
pub type Lock = (VariantId, MemId, ItemId, Elem);

/// One snapshot of the runtime's management information
/// (paper Definition 2.9). All components are ordered sets, so states are
/// canonical and comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemState {
    /// Enqueued, not yet started tasks (`Q`).
    pub q: BTreeSet<TaskId>,
    /// Running variant executions (`R`).
    pub r: BTreeSet<Running>,
    /// Suspended variants waiting on tasks (`B`).
    pub b: BTreeSet<Blocked>,
    /// Data distribution (`D`): element `e` of item `d` present in `m`.
    pub d: BTreeSet<Placed>,
    /// Read locks (`Lr`).
    pub lr: BTreeSet<Lock>,
    /// Write locks (`Lw`).
    pub lw: BTreeSet<Lock>,
    /// The architecture `(C ⊎ M, L)` — static for a given trace.
    pub arch: Architecture,
    /// Items created and not yet destroyed. An explicit bookkeeping
    /// extension of the paper's model: the formal rules quantify over the
    /// ambient universe `D`, while the executable model tracks liveness so
    /// that `init`/`migrate`/`replicate` cannot resurrect destroyed items.
    pub live_items: BTreeSet<ItemId>,
}

impl SystemState {
    /// The initial state of Definition 2.11:
    /// `({t0}, ∅, ∅, ∅, ∅, ∅, (C ⊎ M, L))`.
    pub fn initial(entry: TaskId, arch: Architecture) -> Self {
        SystemState {
            q: [entry].into_iter().collect(),
            r: BTreeSet::new(),
            b: BTreeSet::new(),
            d: BTreeSet::new(),
            lr: BTreeSet::new(),
            lw: BTreeSet::new(),
            arch,
            live_items: BTreeSet::new(),
        }
    }

    /// A trace terminates in a state `(∅, ∅, ∅, Dt, ∅, ∅, …)`
    /// (Definition 2.11).
    pub fn is_terminal(&self) -> bool {
        self.q.is_empty()
            && self.r.is_empty()
            && self.b.is_empty()
            && self.lr.is_empty()
            && self.lw.is_empty()
    }

    /// Whether any variant of `t` is currently running or blocked —
    /// the negated side-condition of the (continue) rule.
    pub fn task_active(&self, variants: &[VariantId]) -> bool {
        self.r.iter().any(|(_, v, _)| variants.contains(v))
            || self.b.iter().any(|(_, v, _, _)| variants.contains(v))
    }

    /// Memories where element `(d, e)` is present.
    pub fn placements(&self, d: ItemId, e: Elem) -> Vec<MemId> {
        // `D` is ordered by memory first: probe each memory in it once.
        let mut out = Vec::new();
        let mut next = self.d.first().map(|&(m, _, _)| m);
        while let Some(m) = next {
            if self.present(m, d, e) {
                out.push(m);
            }
            let above = m.0.checked_add(1).map(|n| (MemId(n), ItemId(0), Elem(0)));
            next = above.and_then(|k| self.d.range(k..).next()).map(|&(m, _, _)| m);
        }
        out
    }

    /// Whether `(m, d, e) ∈ D`.
    pub fn present(&self, m: MemId, d: ItemId, e: Elem) -> bool {
        self.d.contains(&(m, d, e))
    }

    /// Whether any lock (read or write) covers `(m, d, e)`.
    pub fn any_lock(&self, m: MemId, d: ItemId, e: Elem) -> bool {
        locked(&self.lr, m, d, e) || self.any_write_lock(m, d, e)
    }

    /// Whether a write lock covers `(m, d, e)`.
    pub fn any_write_lock(&self, m: MemId, d: ItemId, e: Elem) -> bool {
        locked(&self.lw, m, d, e)
    }
}

/// Whether some variant holds `(m, d, e)` in `locks`, which are ordered by
/// variant first: probe each holder once.
fn locked(locks: &BTreeSet<Lock>, m: MemId, d: ItemId, e: Elem) -> bool {
    let mut next = locks.first().map(|&(v, ..)| v);
    while let Some(v) = next {
        if locks.contains(&(v, m, d, e)) {
            return true;
        }
        let above = v.0.checked_add(1).map(|n| (VariantId(n), MemId(0), ItemId(0), Elem(0)));
        next = above.and_then(|k| locks.range(k..).next()).map(|&(v, ..)| v);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_shape() {
        let s = SystemState::initial(TaskId(0), Architecture::cluster(2, 2));
        assert_eq!(s.q.len(), 1);
        assert!(s.r.is_empty() && s.b.is_empty() && s.d.is_empty());
        assert!(!s.is_terminal()); // entry still enqueued
    }

    #[test]
    fn terminal_allows_residual_data() {
        let mut s = SystemState::initial(TaskId(0), Architecture::shared(1));
        s.q.clear();
        s.d.insert((MemId(0), ItemId(0), Elem(3)));
        assert!(s.is_terminal(), "Dt may be non-empty at termination");
    }

    #[test]
    fn placement_queries() {
        let mut s = SystemState::initial(TaskId(0), Architecture::cluster(2, 1));
        s.d.insert((MemId(0), ItemId(1), Elem(5)));
        s.d.insert((MemId(1), ItemId(1), Elem(5)));
        s.d.insert((MemId(0), ItemId(1), Elem(6)));
        assert_eq!(s.placements(ItemId(1), Elem(5)), vec![MemId(0), MemId(1)]);
        assert!(s.present(MemId(0), ItemId(1), Elem(6)));
        assert!(!s.present(MemId(1), ItemId(1), Elem(6)));
    }

    #[test]
    fn lock_queries() {
        let mut s = SystemState::initial(TaskId(0), Architecture::shared(1));
        s.lr.insert((VariantId(0), MemId(0), ItemId(0), Elem(1)));
        s.lw.insert((VariantId(1), MemId(0), ItemId(0), Elem(2)));
        assert!(s.any_lock(MemId(0), ItemId(0), Elem(1)));
        assert!(!s.any_write_lock(MemId(0), ItemId(0), Elem(1)));
        assert!(s.any_write_lock(MemId(0), ItemId(0), Elem(2)));
        assert!(!s.any_lock(MemId(0), ItemId(0), Elem(3)));
    }
}
