//! Property-based testing of the formal model: randomly generated
//! well-formed programs, architectures, and driver schedules must satisfy
//! all five properties of paper Section 2.5 on every produced trace.

use proptest::prelude::*;
use std::collections::BTreeMap;

use allscale_model::{
    program::req, properties, Action, Architecture, Driver, ItemId, Outcome, Program,
    ProgramBuilder, TaskId, VariantSpec,
};

/// A generated leaf-task description: which elements it reads and writes
/// of the single shared item.
#[derive(Debug, Clone)]
struct LeafSpec {
    reads: Vec<u32>,
    writes: Vec<u32>,
}

const UNIVERSE: u32 = 16;

fn arb_leaf() -> impl Strategy<Value = LeafSpec> {
    (
        prop::collection::vec(0..UNIVERSE, 0..4),
        prop::collection::vec(0..UNIVERSE, 0..4),
    )
        .prop_map(|(reads, writes)| LeafSpec { reads, writes })
}

/// A random fork-join program: the entry creates the item, spawns all
/// leaves, syncs on all of them. Leaves may have overlapping requirements
/// (forcing the driver to serialize via data placement).
fn build_program(leaves: &[LeafSpec]) -> Program {
    let mut b = ProgramBuilder::new();
    let item = ItemId(0);
    b.item(item, UNIVERSE);
    for (i, leaf) in leaves.iter().enumerate() {
        let mut spec = VariantSpec {
            reads: req(&[(item, &leaf.reads)]),
            writes: req(&[(item, &leaf.writes)]),
            ..Default::default()
        };
        if leaf.reads.is_empty() {
            spec.reads = BTreeMap::new();
        }
        if leaf.writes.is_empty() {
            spec.writes = BTreeMap::new();
        }
        b.variant(TaskId(i as u32 + 1), spec);
    }
    let mut actions = vec![Action::Create(ItemId(0))];
    for i in 0..leaves.len() {
        actions.push(Action::Spawn(TaskId(i as u32 + 1)));
    }
    for i in 0..leaves.len() {
        actions.push(Action::Sync(TaskId(i as u32 + 1)));
    }
    b.variant(
        TaskId(0),
        VariantSpec {
            actions,
            ..Default::default()
        },
    );
    b.build(TaskId(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs × random schedules × random architectures: every
    /// terminated trace satisfies all five model properties.
    #[test]
    fn random_programs_satisfy_all_properties(
        leaves in prop::collection::vec(arb_leaf(), 1..6),
        seed in 0u64..1_000,
        nodes in 1u32..5,
        cores in 1u32..3,
    ) {
        let program = build_program(&leaves);
        let arch = Architecture::cluster(nodes, cores);
        let mut driver = Driver::new(seed);
        driver.max_steps = 50_000;
        let (trace, outcome) = driver.run(&program, arch);
        // With overlapping write sets the greedy driver may legitimately
        // need many staging steps, but it must not *violate* anything.
        if outcome == Outcome::Terminated {
            properties::check_all(&program, &trace)
                .map_err(|v| TestCaseError::fail(format!("{v}")))?;
        } else {
            // Even unfinished traces must satisfy the safety properties
            // (termination is the only liveness property).
            properties::check_single_execution(&trace)
                .map_err(|v| TestCaseError::fail(format!("{v}")))?;
            properties::check_satisfied_requirements(&program, &trace)
                .map_err(|v| TestCaseError::fail(format!("{v}")))?;
            properties::check_exclusive_writes(&trace)
                .map_err(|v| TestCaseError::fail(format!("{v}")))?;
            properties::check_data_preservation(&program, &trace)
                .map_err(|v| TestCaseError::fail(format!("{v}")))?;
        }
    }

    /// Disjoint-write programs (the pfor shape) always terminate.
    #[test]
    fn disjoint_write_programs_terminate(
        k in 1u32..6,
        seed in 0u64..500,
        nodes in 1u32..5,
    ) {
        let elems = UNIVERSE / 6; // per-task partition, k*elems <= UNIVERSE
        let leaves: Vec<LeafSpec> = (0..k)
            .map(|t| LeafSpec {
                reads: vec![],
                writes: (t * elems..(t + 1) * elems).collect(),
            })
            .collect();
        let program = build_program(&leaves);
        let mut driver = Driver::new(seed);
        driver.max_steps = 50_000;
        let (trace, outcome) = driver.run(&program, Architecture::cluster(nodes, 2));
        prop_assert_eq!(outcome, Outcome::Terminated);
        properties::check_all(&program, &trace)
            .map_err(|v| TestCaseError::fail(format!("{v}")))?;
    }

    /// The rule checker rejects any attempt to start a task twice.
    #[test]
    fn double_start_always_rejected(seed in 0u64..200) {
        use allscale_model::{apply, Transition, SystemState};
        let program = build_program(&[LeafSpec { reads: vec![], writes: vec![] }]);
        let arch = Architecture::cluster(2, 1);
        let mut driver = Driver::new(seed);
        let (trace, outcome) = driver.run(&program, arch);
        prop_assume!(outcome == Outcome::Terminated);
        // Find the Start of task 1 and the state right after it.
        let pos = trace
            .steps
            .iter()
            .position(|t| matches!(t, Transition::Start { task: TaskId(1), .. }));
        prop_assume!(pos.is_some());
        let pos = pos.unwrap();
        let start = trace.steps[pos].clone();
        let after: &SystemState = &trace.states[pos + 1];
        prop_assert!(apply(&program, after, &start).is_err());
    }
}

/// NUMA-like architectures (one compute unit linked to several address
/// spaces) are handled by the driver and satisfy the properties.
#[test]
fn numa_architectures_satisfy_properties() {
    use allscale_model::{Architecture, CoreId, MemId};
    // 2 cores, each seeing a private and a shared address space.
    let mut arch = Architecture::new();
    arch.add_link(CoreId(0), MemId(0));
    arch.add_link(CoreId(0), MemId(2));
    arch.add_link(CoreId(1), MemId(1));
    arch.add_link(CoreId(1), MemId(2));

    let leaves: Vec<LeafSpec> = (0..3)
        .map(|t| LeafSpec {
            reads: vec![t],
            writes: vec![t + 4],
        })
        .collect();
    let program = build_program(&leaves);
    for seed in 0..20 {
        let mut driver = Driver::new(seed);
        driver.max_steps = 50_000;
        let (trace, outcome) = driver.run(&program, arch.clone());
        assert_eq!(outcome, Outcome::Terminated, "seed {seed}");
        properties::check_all(&program, &trace).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}
