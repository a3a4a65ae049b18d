//! Scripted programs: the task model of paper Section 2.2 made concrete.
//!
//! A *variant* is modelled as a straight-line script of [`Action`]s (its
//! `step` function is "emit the action at the program counter") together
//! with its read/write data requirements (Definition 2.7). A *task* owns
//! one or more variants (Definition 2.3); a *program* is an entry task
//! (Definition 2.4). The restriction that every non-entry task has a unique
//! spawn point (end of Section 2.2) is enforced by the builder.

use std::collections::{BTreeMap, BTreeSet};

use crate::ids::{Elem, ItemId, TaskId, VariantId};

/// A runtime service request (paper Definition 2.5). The terminating `End`
/// action is implicit: every script ends with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Request scheduling of a new task.
    Spawn(TaskId),
    /// Suspend until the given task completes.
    Sync(TaskId),
    /// Introduce a new data item.
    Create(ItemId),
    /// Destroy a data item.
    Destroy(ItemId),
}

/// One implementation alternative of a task (Definition 2.3) with its
/// script and data requirements.
#[derive(Debug, Clone, Default)]
pub struct VariantSpec {
    /// Script of actions; execution ends with an implicit `end` after the
    /// last entry (Definition 2.6: `a_n = end`).
    pub actions: Vec<Action>,
    /// `read(v, d)` per accessed item (Definition 2.7).
    pub reads: BTreeMap<ItemId, BTreeSet<Elem>>,
    /// `write(v, d)` per accessed item (Definition 2.7).
    pub writes: BTreeMap<ItemId, BTreeSet<Elem>>,
}

impl VariantSpec {
    /// Items with at least one required element.
    pub fn required_items(&self) -> BTreeSet<ItemId> {
        self.reads.keys().chain(self.writes.keys()).copied().collect()
    }

    /// `read(v, d) ∪ write(v, d)`.
    pub fn required_elems(&self, d: ItemId) -> BTreeSet<Elem> {
        let mut s = self.reads.get(&d).cloned().unwrap_or_default();
        if let Some(w) = self.writes.get(&d) {
            s.extend(w.iter().copied());
        }
        s
    }

    /// `write(v, d)`.
    pub fn write_elems(&self, d: ItemId) -> BTreeSet<Elem> {
        self.writes.get(&d).cloned().unwrap_or_default()
    }

    /// `read(v, d)`.
    pub fn read_elems(&self, d: ItemId) -> BTreeSet<Elem> {
        self.reads.get(&d).cloned().unwrap_or_default()
    }

    /// Number of script steps including the terminating `end`.
    pub fn steps(&self) -> usize {
        self.actions.len() + 1
    }
}

/// A complete scripted program: tasks, their variants, and the data items
/// the scripts reference (with their element universes, Definition 2.1).
#[derive(Debug, Clone)]
pub struct Program {
    entry: TaskId,
    tasks: BTreeMap<TaskId, Vec<VariantId>>,
    variants: BTreeMap<VariantId, VariantSpec>,
    items: BTreeMap<ItemId, BTreeSet<Elem>>,
}

impl Program {
    /// The entry-point task `t0 ∈ P` (Definition 2.4).
    pub fn entry(&self) -> TaskId {
        self.entry
    }

    /// `var(t)` — the variants of a task (Definition 2.3).
    pub fn variants_of(&self, t: TaskId) -> &[VariantId] {
        self.tasks.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The script and requirements of a variant.
    pub fn variant(&self, v: VariantId) -> &VariantSpec {
        &self.variants[&v]
    }

    /// `step(v, s)`: the action issued by variant `v` at program counter
    /// `pc`, or `None` for the terminating `end`.
    pub fn step(&self, v: VariantId, pc: usize) -> Option<Action> {
        self.variants[&v].actions.get(pc).copied()
    }

    /// `elems(d)` — the element universe of a data item (Definition 2.1).
    pub fn elems(&self, d: ItemId) -> &BTreeSet<Elem> {
        &self.items[&d]
    }

    /// All data items the program references.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items.keys().copied()
    }

    /// All tasks.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.keys().copied()
    }
}

/// Builder enforcing the model's well-formedness restrictions.
pub struct ProgramBuilder {
    tasks: BTreeMap<TaskId, Vec<VariantId>>,
    variants: BTreeMap<VariantId, VariantSpec>,
    items: BTreeMap<ItemId, BTreeSet<Elem>>,
    next_variant: u32,
    spawned: BTreeSet<TaskId>,
}

impl ProgramBuilder {
    /// Start building a program.
    pub fn new() -> Self {
        ProgramBuilder {
            tasks: BTreeMap::new(),
            variants: BTreeMap::new(),
            items: BTreeMap::new(),
            next_variant: 0,
            spawned: BTreeSet::new(),
        }
    }

    /// Declare a data item with elements `0..n_elems`.
    pub fn item(&mut self, d: ItemId, n_elems: u32) -> &mut Self {
        self.items
            .insert(d, (0..n_elems).map(Elem).collect());
        self
    }

    /// Add a variant to task `t`; returns the fresh variant id.
    ///
    /// # Panics
    /// Panics if a `Spawn` target already has a spawn point elsewhere
    /// (violating the unique-spawn-point restriction).
    pub fn variant(&mut self, t: TaskId, spec: VariantSpec) -> VariantId {
        for a in &spec.actions {
            if let Action::Spawn(child) = a {
                assert!(
                    self.spawned.insert(*child),
                    "task {child:?} would have two spawn points"
                );
            }
        }
        let v = VariantId(self.next_variant);
        self.next_variant += 1;
        self.tasks.entry(t).or_default().push(v);
        self.variants.insert(v, spec);
        v
    }

    /// Finish, declaring `entry` as the program's entry point.
    ///
    /// # Panics
    /// Panics if the entry task is itself spawned, a task has no variants,
    /// or a referenced task/item is undeclared.
    pub fn build(self, entry: TaskId) -> Program {
        assert!(
            !self.spawned.contains(&entry),
            "entry task must not be spawned (P ∩ spawned = ∅)"
        );
        assert!(
            self.tasks.contains_key(&entry),
            "entry task has no variants"
        );
        for (t, vs) in &self.tasks {
            assert!(!vs.is_empty(), "task {t:?} has no variants");
            if *t != entry {
                assert!(
                    self.spawned.contains(t),
                    "non-entry task {t:?} is never spawned"
                );
            }
        }
        for spec in self.variants.values() {
            for a in &spec.actions {
                match a {
                    Action::Spawn(t) | Action::Sync(t) => {
                        assert!(self.tasks.contains_key(t), "undeclared task {t:?}")
                    }
                    Action::Create(d) | Action::Destroy(d) => {
                        assert!(self.items.contains_key(d), "undeclared item {d:?}")
                    }
                }
            }
            for d in spec.required_items() {
                assert!(self.items.contains_key(&d), "undeclared item {d:?}");
                let universe = &self.items[&d];
                for e in spec.required_elems(d) {
                    assert!(
                        universe.contains(&e),
                        "element {e:?} outside elems({d:?})"
                    );
                }
            }
        }
        Program {
            entry,
            tasks: self.tasks,
            variants: self.variants,
            items: self.items,
        }
    }
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience constructor for requirement maps.
pub fn req(pairs: &[(ItemId, &[u32])]) -> BTreeMap<ItemId, BTreeSet<Elem>> {
    pairs
        .iter()
        .map(|(d, es)| (*d, es.iter().map(|&e| Elem(e)).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 2.3: a sum task with a sequential variant and a
    /// parallel variant spawning two sub-tasks.
    fn example_2_3() -> Program {
        let mut b = ProgramBuilder::new();
        b.item(ItemId(0), 20);
        // Sub-tasks with single sequential variants.
        b.variant(
            TaskId(1),
            VariantSpec {
                actions: vec![],
                reads: req(&[(ItemId(0), &[0, 1, 2, 3, 4])]),
                writes: BTreeMap::new(),
            },
        );
        b.variant(
            TaskId(2),
            VariantSpec {
                actions: vec![],
                reads: req(&[(ItemId(0), &[5, 6, 7, 8, 9])]),
                writes: BTreeMap::new(),
            },
        );
        // Entry task: sequential variant vs parallel variant.
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![],
                reads: req(&[(ItemId(0), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])]),
                writes: BTreeMap::new(),
            },
        );
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![
                    Action::Spawn(TaskId(1)),
                    Action::Spawn(TaskId(2)),
                    Action::Sync(TaskId(1)),
                    Action::Sync(TaskId(2)),
                ],
                reads: BTreeMap::new(),
                writes: BTreeMap::new(),
            },
        );
        b.build(TaskId(0))
    }

    #[test]
    fn variants_are_disjoint_across_tasks() {
        let p = example_2_3();
        let mut seen = BTreeSet::new();
        for t in p.tasks() {
            for v in p.variants_of(t) {
                assert!(seen.insert(*v), "variant {v:?} shared between tasks");
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn step_function_emits_script_then_end() {
        let p = example_2_3();
        let par = p.variants_of(TaskId(0))[1];
        assert_eq!(p.step(par, 0), Some(Action::Spawn(TaskId(1))));
        assert_eq!(p.step(par, 3), Some(Action::Sync(TaskId(2))));
        assert_eq!(p.step(par, 4), None); // end
    }

    #[test]
    fn requirements_accessors() {
        let p = example_2_3();
        let seq = p.variants_of(TaskId(1))[0];
        let spec = p.variant(seq);
        assert_eq!(spec.required_items().len(), 1);
        assert_eq!(spec.required_elems(ItemId(0)).len(), 5);
        assert!(spec.write_elems(ItemId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "two spawn points")]
    fn duplicate_spawn_points_rejected() {
        let mut b = ProgramBuilder::new();
        b.variant(
            TaskId(1),
            VariantSpec::default(),
        );
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![Action::Spawn(TaskId(1)), Action::Spawn(TaskId(1))],
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "never spawned")]
    fn orphan_tasks_rejected() {
        let mut b = ProgramBuilder::new();
        b.variant(TaskId(0), VariantSpec::default());
        b.variant(TaskId(7), VariantSpec::default());
        let _ = b.build(TaskId(0));
    }

    #[test]
    #[should_panic(expected = "outside elems")]
    fn requirements_must_lie_in_universe() {
        let mut b = ProgramBuilder::new();
        b.item(ItemId(0), 3);
        b.variant(
            TaskId(0),
            VariantSpec {
                reads: req(&[(ItemId(0), &[5])]),
                ..Default::default()
            },
        );
        let _ = b.build(TaskId(0));
    }
}
