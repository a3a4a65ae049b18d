//! A reference "runtime" for the formal model: drives a program from its
//! initial state to termination by choosing transitions, mixing mandatory
//! progress moves with random (but rule-respecting) data-management moves.
//!
//! This is the component that turns the model into a *testable* artifact:
//! random schedules over random programs produce traces on which the five
//! properties of paper Section 2.5 are asserted (see
//! [`crate::properties`]).

use allscale_des::rng::XorShift64;
use std::collections::{BTreeMap, BTreeSet};

use crate::ids::{CoreId, Elem, ItemId, MemId, TaskId, VariantId};
use crate::program::Program;
use crate::rules::{apply, enabled_progress, Transition};
use crate::state::SystemState;

/// A recorded trace: the visited states and the transition taken between
/// each consecutive pair (`trace.states.len() == trace.steps.len() + 1`).
#[derive(Debug, Clone)]
pub struct Trace {
    /// `s_0, s_1, …` (Definition 2.11).
    pub states: Vec<SystemState>,
    /// The rule instance connecting `states[i]` to `states[i + 1]`.
    pub steps: Vec<Transition>,
}

/// Frees the states here, in the crate the dev profile optimizes: a trace
/// holds one full state per step, and the drop glue an unoptimized caller
/// would instantiate costs more than the run that made the trace.
impl Drop for Trace {
    fn drop(&mut self) {
        drop(std::mem::take(&mut self.states));
    }
}

impl Trace {
    /// Whether the trace reached a terminal state.
    pub fn terminated(&self) -> bool {
        self.states
            .last()
            .map(SystemState::is_terminal)
            .unwrap_or(false)
    }
}

/// Outcome of a driver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The program ran to a terminal state.
    Terminated,
    /// The step budget was exhausted first.
    BudgetExhausted,
    /// No transition could make progress (deadlock or unsatisfiable
    /// requirements).
    Stuck,
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut XorShift64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Drives programs to completion with a seeded RNG.
pub struct Driver {
    rng: XorShift64,
    /// Probability (percent) of injecting a gratuitous migrate/replicate
    /// between progress steps — chaos for the property tests.
    pub chaos_percent: u32,
    /// Upper bound on transitions per run.
    pub max_steps: usize,
}

impl Driver {
    /// A driver with the given seed and default chaos (20%).
    pub fn new(seed: u64) -> Self {
        Driver {
            rng: XorShift64::new(seed),
            chaos_percent: 20,
            max_steps: 10_000,
        }
    }

    /// Run `program` on `arch`, returning the trace and its outcome.
    pub fn run(&mut self, program: &Program, arch: crate::arch::Architecture) -> (Trace, Outcome) {
        let mut trace = Trace {
            states: vec![SystemState::initial(program.entry(), arch)],
            steps: Vec::new(),
        };
        for _ in 0..self.max_steps {
            let state = trace.states.last().expect("the initial state");
            if state.is_terminal() {
                return (trace, Outcome::Terminated);
            }
            let Some(t) = self.choose(program, state) else {
                return (trace, Outcome::Stuck);
            };
            let next = apply(program, state, &t).unwrap_or_else(|v| {
                panic!("driver chose an invalid transition {t:?}: {v}")
            });
            trace.steps.push(t);
            trace.states.push(next);
        }
        if trace.terminated() {
            (trace, Outcome::Terminated)
        } else {
            (trace, Outcome::BudgetExhausted)
        }
    }

    /// Pick the next transition: chaos moves sometimes, otherwise progress
    /// (step/continue), otherwise starting a queued task (staging data as
    /// needed), otherwise a staging move toward a future start.
    fn choose(&mut self, program: &Program, state: &SystemState) -> Option<Transition> {
        if self.rng.below(100) < self.chaos_percent as u64 {
            if let Some(t) = self.random_data_move(program, state) {
                return Some(t);
            }
        }
        let mut progress = enabled_progress(program, state);
        if !progress.is_empty() {
            shuffle(&mut self.rng, &mut progress);
            return progress.pop();
        }
        // Try to start a queued task (with data staging).
        let mut queued: Vec<TaskId> = state.q.iter().copied().collect();
        shuffle(&mut self.rng, &mut queued);
        for t in queued {
            if let Some(tr) = self.try_start(program, state, t) {
                return Some(tr);
            }
        }
        None
    }

    /// Attempt to construct a `Start` for `task`; if data is missing or
    /// misplaced, return the data-management move that gets it closer.
    fn try_start(
        &mut self,
        program: &Program,
        state: &SystemState,
        task: TaskId,
    ) -> Option<Transition> {
        let mut variants: Vec<VariantId> = program.variants_of(task).to_vec();
        shuffle(&mut self.rng, &mut variants);
        // Stable per-task core preference: staging must aim at a fixed
        // target across retries, or data ping-pongs between memories and
        // the run never converges.
        let mut cores: Vec<CoreId> = state.arch.cores().collect();
        let rot = (task.0 as usize * 7 + 3) % cores.len().max(1);
        cores.rotate_left(rot);
        for v in variants {
            let spec = program.variant(v);
            for &core in &cores {
                let mems: Vec<MemId> = state.arch.mems_of(core).collect();
                if mems.is_empty() {
                    continue;
                }
                let target = mems[0];
                let mut assign: BTreeMap<ItemId, MemId> = BTreeMap::new();
                let mut staging: Option<Transition> = None;
                'items: for d in spec.required_items() {
                    // Prefer a reachable memory that already has everything.
                    for &m in &mems {
                        let all_there = spec
                            .required_elems(d)
                            .iter()
                            .all(|&e| state.present(m, d, e));
                        let writes_exclusive = spec.write_elems(d).iter().all(|&e| {
                            state.placements(d, e).iter().all(|&pm| pm == m)
                        });
                        if all_there && writes_exclusive {
                            assign.insert(d, m);
                            continue 'items;
                        }
                    }
                    // Otherwise produce one staging move toward `target`.
                    staging = self.stage_toward(program, state, d, &spec.required_elems(d), &spec.write_elems(d), target);
                    break;
                }
                if let Some(mv) = staging {
                    return Some(mv);
                }
                if assign.len() == spec.required_items().len() {
                    return Some(Transition::Start {
                        task,
                        variant: v,
                        core,
                        mem_assign: assign,
                    });
                }
            }
        }
        None
    }

    /// One data-management move bringing the elements of `d` toward `m`:
    /// init absent elements, migrate misplaced writes, replicate reads.
    fn stage_toward(
        &mut self,
        _program: &Program,
        state: &SystemState,
        d: ItemId,
        required: &BTreeSet<Elem>,
        writes: &BTreeSet<Elem>,
        m: MemId,
    ) -> Option<Transition> {
        if !state.live_items.contains(&d) {
            return None; // cannot stage before the program creates the item
        }
        // Absent anywhere → init at m.
        let absent: BTreeSet<Elem> = required
            .iter()
            .copied()
            .filter(|&e| state.placements(d, e).is_empty())
            .collect();
        if !absent.is_empty() {
            return Some(Transition::Init {
                mem: m,
                item: d,
                elems: absent,
            });
        }
        // Present elsewhere → move/copy one source group at a time.
        for &e in required {
            if state.present(m, d, e) && (!writes.contains(&e) || state.placements(d, e).len() == 1)
            {
                continue;
            }
            let srcs = state.placements(d, e);
            let &src = srcs.iter().find(|&&s| s != m).or(srcs.first())?;
            let elems: BTreeSet<Elem> = [e].into_iter().collect();
            if writes.contains(&e) {
                // Writes need exclusivity: migrate (removes the source copy).
                if state.any_lock(src, d, e) || state.any_lock(m, d, e) {
                    return None;
                }
                if state.present(m, d, e) {
                    // A replica already at m; remove the foreign one by
                    // migrating it onto m (coalesce).
                    return Some(Transition::Migrate {
                        src,
                        dst: m,
                        item: d,
                        elems,
                    });
                }
                return Some(Transition::Migrate {
                    src,
                    dst: m,
                    item: d,
                    elems,
                });
            }
            if state.any_write_lock(src, d, e) || state.any_lock(m, d, e) {
                return None;
            }
            return Some(Transition::Replicate {
                src,
                dst: m,
                item: d,
                elems,
            });
        }
        None
    }

    /// A gratuitous but legal migrate/replicate of some unlocked element.
    fn random_data_move(&mut self, program: &Program, state: &SystemState) -> Option<Transition> {
        if state.d.is_empty() {
            return None;
        }
        let placed: Vec<_> = state.d.iter().copied().collect();
        let &(src, item, e) = placed.get(self.rng.below(placed.len() as u64) as usize)?;
        if !state.live_items.contains(&item) {
            return None;
        }
        let mems: Vec<MemId> = state.arch.mems().collect();
        let dst = mems[self.rng.below(mems.len() as u64) as usize];
        if dst == src {
            return None;
        }
        let elems: BTreeSet<Elem> = [e].into_iter().collect();
        let _ = program;
        if self.rng.below(2) == 0 {
            if state.any_lock(src, item, e) || state.any_lock(dst, item, e) {
                return None;
            }
            Some(Transition::Migrate {
                src,
                dst,
                item,
                elems,
            })
        } else {
            if state.any_write_lock(src, item, e) || state.any_lock(dst, item, e) {
                return None;
            }
            Some(Transition::Replicate {
                src,
                dst,
                item,
                elems,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::program::{req, Action, ProgramBuilder, VariantSpec};

    /// Fork-join over an item: entry creates the item, spawns two writers
    /// on disjoint halves, syncs, reads everything.
    pub(crate) fn fork_join_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.item(ItemId(0), 8);
        b.variant(
            TaskId(1),
            VariantSpec {
                writes: req(&[(ItemId(0), &[0, 1, 2, 3])]),
                ..Default::default()
            },
        );
        b.variant(
            TaskId(2),
            VariantSpec {
                writes: req(&[(ItemId(0), &[4, 5, 6, 7])]),
                ..Default::default()
            },
        );
        b.variant(
            TaskId(3),
            VariantSpec {
                reads: req(&[(ItemId(0), &[0, 1, 2, 3, 4, 5, 6, 7])]),
                ..Default::default()
            },
        );
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![
                    Action::Create(ItemId(0)),
                    Action::Spawn(TaskId(1)),
                    Action::Spawn(TaskId(2)),
                    Action::Sync(TaskId(1)),
                    Action::Sync(TaskId(2)),
                    Action::Spawn(TaskId(3)),
                    Action::Sync(TaskId(3)),
                ],
                ..Default::default()
            },
        );
        b.build(TaskId(0))
    }

    #[test]
    fn fork_join_terminates() {
        for seed in 0..20 {
            let mut d = Driver::new(seed);
            let (trace, outcome) = d.run(&fork_join_program(), Architecture::cluster(2, 2));
            assert_eq!(outcome, Outcome::Terminated, "seed {seed}");
            assert!(trace.terminated());
            assert!(trace.states.len() > 5);
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let run = |seed| {
            let mut d = Driver::new(seed);
            let (trace, _) = d.run(&fork_join_program(), Architecture::cluster(2, 2));
            trace.steps.clone()
        };
        assert_eq!(run(7), run(7));
        // Different seeds typically differ (sanity that chaos is live).
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn single_task_no_data_terminates_quickly() {
        let mut b = ProgramBuilder::new();
        b.variant(TaskId(0), VariantSpec::default());
        let p = b.build(TaskId(0));
        let mut d = Driver::new(0);
        let (trace, outcome) = d.run(&p, Architecture::shared(1));
        assert_eq!(outcome, Outcome::Terminated);
        // start + end.
        assert_eq!(trace.steps.len(), 2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = XorShift64::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "moved something");
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
