//! The five model properties of paper Section 2.5, as checkable predicates
//! over traces (their proof sketches are in the paper's Appendix A; here
//! they are *asserted* on concrete traces).

use std::collections::BTreeSet;

use crate::ids::{ItemId, TaskId, VariantId};
use crate::program::{Action, Program};
use crate::rules::Transition;
use crate::Trace;

/// A property violation with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyViolation {
    /// Which property failed.
    pub property: &'static str,
    /// Trace index of the offending state or step.
    pub at_step: usize,
    /// Explanation.
    pub detail: String,
}

impl std::fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (property, step, detail) = (self.property, self.at_step, &self.detail);
        write!(f, "{property} violated at step {step}: {detail}")
    }
}

type Check = Result<(), PropertyViolation>;

fn fail(property: &'static str, at_step: usize, detail: String) -> Check {
    Err(PropertyViolation {
        property,
        at_step,
        detail,
    })
}

/// **Single-execution** (Theorems A.1/A.2): no task is started twice and no
/// variant is processed twice in a terminating trace.
pub fn check_single_execution(trace: &Trace) -> Check {
    let mut started_tasks: BTreeSet<TaskId> = BTreeSet::new();
    let mut started_variants: BTreeSet<VariantId> = BTreeSet::new();
    for (i, step) in trace.steps.iter().enumerate() {
        if let Transition::Start { task, variant, .. } = step {
            if !started_tasks.insert(*task) {
                return fail(
                    "single-execution",
                    i,
                    format!("task {task:?} started twice"),
                );
            }
            if !started_variants.insert(*variant) {
                return fail(
                    "single-execution",
                    i,
                    format!("variant {variant:?} started twice"),
                );
            }
        }
    }
    Ok(())
}

/// **Satisfied requirements**: whenever a variant is running or blocked,
/// every element it reads or writes is present in a memory reachable from
/// its compute unit and covered by the matching lock.
pub fn check_satisfied_requirements(program: &Program, trace: &Trace) -> Check {
    for (i, s) in trace.states.iter().enumerate() {
        let occupied: Vec<(crate::ids::CoreId, VariantId)> = s
            .r
            .iter()
            .map(|&(c, v, _)| (c, v))
            .chain(s.b.iter().map(|&(c, v, _, _)| (c, v)))
            .collect();
        for (core, v) in occupied {
            let spec = program.variant(v);
            for d in spec.required_items() {
                for e in spec.read_elems(d) {
                    let ok = s.lr.iter().any(|&(lv, m, ld, le)| {
                        lv == v
                            && ld == d
                            && le == e
                            && s.arch.linked(core, m)
                            && s.present(m, d, e)
                    });
                    if !ok {
                        return fail(
                            "satisfied-requirements",
                            i,
                            format!("read {d:?}/{e:?} of {v:?} on {core:?} unsatisfied"),
                        );
                    }
                }
                for e in spec.write_elems(d) {
                    let ok = s.lw.iter().any(|&(lv, m, ld, le)| {
                        lv == v
                            && ld == d
                            && le == e
                            && s.arch.linked(core, m)
                            && s.present(m, d, e)
                    });
                    if !ok {
                        return fail(
                            "satisfied-requirements",
                            i,
                            format!("write {d:?}/{e:?} of {v:?} on {core:?} unsatisfied"),
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// **Exclusive writes**: a write-locked element exists in exactly one
/// address space — no replicas elsewhere.
pub fn check_exclusive_writes(trace: &Trace) -> Check {
    for (i, s) in trace.states.iter().enumerate() {
        for &(v, m, d, e) in &s.lw {
            let placements = s.placements(d, e);
            if placements.iter().any(|&pm| pm != m) {
                return fail(
                    "exclusive-writes",
                    i,
                    format!(
                        "element {d:?}/{e:?} write-locked by {v:?} at {m:?} \
                         but present at {placements:?}"
                    ),
                );
            }
        }
    }
    Ok(())
}

/// **Data preservation**: the set of items' elements present *somewhere*
/// never shrinks except through an application-issued `destroy` (the
/// runtime may only drop replicas).
pub fn check_data_preservation(program: &Program, trace: &Trace) -> Check {
    for (i, w) in trace.states.windows(2).enumerate() {
        // Every loss must be covered by a destroy executed at this step.
        let destroyed: Option<ItemId> = match &trace.steps[i] {
            Transition::Step { variant, pc, .. } => match program.step(*variant, *pc) {
                Some(Action::Destroy(d)) => Some(d),
                _ => None,
            },
            _ => None,
        };
        // A dropped placement is a loss when no other copy remains.
        for &(_, d, e) in w[0].d.difference(&w[1].d) {
            if Some(d) != destroyed && w[1].placements(d, e).is_empty() {
                return fail(
                    "data-preservation",
                    i,
                    format!("element {d:?}/{e:?} vanished without destroy"),
                );
            }
        }
    }
    Ok(())
}

/// **Termination** (Theorem A.3, in its checkable form): the trace reached
/// a terminal state within its budget — used with drivers whose schedules
/// avoid infinite init/migrate/replicate sequences.
pub fn check_termination(trace: &Trace) -> Check {
    if trace.terminated() {
        Ok(())
    } else {
        fail(
            "termination",
            trace.states.len().saturating_sub(1),
            "trace did not reach a terminal state".into(),
        )
    }
}

/// Run all five property checks on a trace.
pub fn check_all(program: &Program, trace: &Trace) -> Check {
    check_single_execution(trace)?;
    check_satisfied_requirements(program, trace)?;
    check_exclusive_writes(trace)?;
    check_data_preservation(program, trace)?;
    check_termination(trace)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::driver::{Driver, Outcome};
    use crate::ids::MemId;
    use crate::program::{req, ProgramBuilder, VariantSpec};

    fn fork_join() -> Program {
        // Mirror of the driver test program.
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
    fn all_properties_hold_on_random_traces() {
        let p = fork_join();
        for seed in 0..50 {
            let mut d = Driver::new(seed);
            let (trace, outcome) = d.run(&p, Architecture::cluster(4, 2));
            assert_eq!(outcome, Outcome::Terminated, "seed {seed}");
            check_all(&p, &trace).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        }
    }

    #[test]
    fn exclusive_writes_detects_forged_replica() {
        let p = fork_join();
        let mut d = Driver::new(3);
        let (mut trace, _) = d.run(&p, Architecture::cluster(2, 2));
        // Forge a replica of a write-locked element in some mid state.
        let idx = trace
            .states
            .iter()
            .position(|s| !s.lw.is_empty())
            .expect("some state holds a write lock");
        let &(_, m, di, e) = trace.states[idx].lw.iter().next().unwrap();
        let other = MemId(if m == MemId(0) { 1 } else { 0 });
        trace.states[idx].d.insert((other, di, e));
        let err = check_exclusive_writes(&trace).unwrap_err();
        assert_eq!(err.property, "exclusive-writes");
    }

    #[test]
    fn single_execution_detects_duplicate_start() {
        let p = fork_join();
        let mut d = Driver::new(3);
        let (mut trace, _) = d.run(&p, Architecture::cluster(2, 2));
        // Duplicate the first Start step.
        let start = trace
            .steps
            .iter()
            .find(|t| matches!(t, Transition::Start { .. }))
            .unwrap()
            .clone();
        trace.steps.push(start);
        let err = check_single_execution(&trace).unwrap_err();
        assert_eq!(err.property, "single-execution");
    }

    #[test]
    fn data_preservation_detects_silent_loss() {
        let p = fork_join();
        let mut d = Driver::new(9);
        let (mut trace, _) = d.run(&p, Architecture::cluster(2, 2));
        // Silently drop an element (all of its replicas) from the final
        // state — a loss no destroy explains.
        let idx = trace.states.len() - 1;
        let &(_, di, e) = trace.states[idx]
            .d
            .iter()
            .next()
            .expect("final state holds data");
        trace.states[idx]
            .d
            .retain(|&(_, d2, e2)| (d2, e2) != (di, e));
        let err = check_data_preservation(&p, &trace).unwrap_err();
        assert_eq!(err.property, "data-preservation");
    }

    #[test]
    fn satisfied_requirements_detects_missing_lock() {
        let p = fork_join();
        let mut d = Driver::new(5);
        let (mut trace, _) = d.run(&p, Architecture::cluster(2, 2));
        // Strip a write lock from a state where task 1 or 2 runs.
        let idx = trace
            .states
            .iter()
            .position(|s| !s.lw.is_empty())
            .expect("writer runs at some point");
        let fact = *trace.states[idx].lw.iter().next().unwrap();
        trace.states[idx].lw.remove(&fact);
        let err = check_satisfied_requirements(&p, &trace).unwrap_err();
        assert_eq!(err.property, "satisfied-requirements");
    }

    #[test]
    fn termination_check_rejects_unfinished_trace() {
        let p = fork_join();
        let mut d = Driver::new(1);
        let (mut trace, _) = d.run(&p, Architecture::cluster(2, 2));
        trace.states.last_mut().unwrap().q.insert(TaskId(9));
        let err = check_termination(&trace).unwrap_err();
        assert_eq!(err.property, "termination");
    }

    #[test]
    fn requirements_hold_even_while_blocked() {
        // A parent that holds requirements across a sync must keep its data
        // pinned while blocked (B entries are checked too).
        let mut b = ProgramBuilder::new();
        b.item(ItemId(0), 2);
        b.variant(TaskId(1), VariantSpec::default());
        b.variant(
            TaskId(0),
            VariantSpec {
                actions: vec![
                    Action::Create(ItemId(0)),
                    Action::Spawn(TaskId(1)),
                    Action::Sync(TaskId(1)),
                ],
                writes: req(&[(ItemId(0), &[0])]),
                ..Default::default()
            },
        );
        let p = b.build(TaskId(0));
        // The entry's write requirement must be satisfiable *before* start,
        // so pre-stage via a driver (which inits before starting).
        // NOTE: requirement elements must exist before (start); the driver
        // stages them, but the item must be live first. Since only the task
        // itself creates the item, the driver cannot start it — expect a
        // stuck run, demonstrating why real programs initialize data from
        // ancestor tasks.
        let mut d = Driver::new(0);
        let (_, outcome) = d.run(&p, Architecture::cluster(2, 1));
        assert_eq!(outcome, Outcome::Stuck);
    }
}
