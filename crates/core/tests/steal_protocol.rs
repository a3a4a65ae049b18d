//! Steal-protocol safety, property-tested directly against the
//! [`WorkStealingScheduler`] decision layer:
//!
//! 1. **Exactly-once** — across random interleavings of admissions,
//!    activations, steal rounds, handoffs, and fail-stop kills (which
//!    rewind the queues, like recovery does), every task the scheduler
//!    hands out is handed out exactly once, and a full drain executes
//!    everything still outstanding.
//! 2. **Liveness discipline** — steals and spills never target dead
//!    localities (the queue-family analogue of the PR 5 `live_target`
//!    remap regression), never the thief itself, and never an empty
//!    queue; handoffs never wake a dead waiter.
//! 3. **Determinism** — victim selection is a pure function of the
//!    config seed and the call history: the same seed replays the same
//!    victims, for all three victim policies.
//!
//! The runtime-level variants of these properties (billed messages,
//! lost grants, checkpoint/recovery) live in `tests/scheduler_conformance.rs`;
//! here the protocol state machine itself is cornered.

use std::collections::HashSet;

use allscale_core::{DataAwarePolicy, StealConfig, TaskId, VictimPolicy, WorkStealingScheduler};
use proptest::prelude::*;

/// Deterministic xorshift64 driving the op sequence (so a failure
/// replays from the proptest seed alone) — the shared kernel,
/// stream-compatible with the copy this harness historically inlined.
use allscale_des::rng::XorShift64 as XorShift;

fn victim_policy(code: u64) -> VictimPolicy {
    match code % 3 {
        0 => VictimPolicy::RoundRobin,
        1 => VictimPolicy::LeastLoaded,
        _ => VictimPolicy::Random,
    }
}

/// Mirror of the driver-visible protocol state.
struct Harness {
    sched: WorkStealingScheduler,
    nodes: usize,
    dead: Vec<bool>,
    /// Tasks admitted and not yet popped (or reaped by a kill-rewind).
    outstanding: HashSet<TaskId>,
    /// Every task ever popped for execution; ids are never reused, so a
    /// second insert is a double execution.
    executed: HashSet<TaskId>,
    /// Slot mirror, to drive release_slot sensibly.
    active: Vec<usize>,
    next_id: u64,
    /// (thief, victim) log, for the determinism property.
    victims: Vec<(usize, usize)>,
}

impl Harness {
    fn new(seed: u64, nodes: usize, cores: usize, victim: VictimPolicy) -> Self {
        let cfg = StealConfig {
            victim,
            seed,
            ..StealConfig::default()
        };
        Harness {
            sched: WorkStealingScheduler::new(
                Box::new(DataAwarePolicy),
                cfg,
                nodes,
                cores,
            ),
            nodes,
            dead: vec![false; nodes],
            outstanding: HashSet::new(),
            executed: HashSet::new(),
            active: vec![0; nodes],
            next_id: 0,
            victims: Vec::new(),
        }
    }

    fn live(&self) -> Vec<usize> {
        (0..self.nodes).filter(|&n| !self.dead[n]).collect()
    }

    fn random_live(&self, rng: &mut XorShift) -> usize {
        let live = self.live();
        live[rng.below(live.len() as u64) as usize]
    }

    /// Record a pop: the task must be outstanding and never seen before.
    fn popped(&mut self, tid: TaskId, how: &str) {
        assert!(
            self.outstanding.remove(&tid),
            "{how} handed out {tid:?}, which was not outstanding"
        );
        assert!(
            self.executed.insert(tid),
            "{how} handed out {tid:?} a second time"
        );
    }

    fn admit(&mut self, rng: &mut XorShift) {
        let preferred = self.random_live(rng);
        let loc = self.sched.admit(preferred, &self.dead);
        assert!(!self.dead[loc], "admission spilled to dead locality {loc}");
        let tid = TaskId(self.next_id);
        self.next_id += 1;
        self.sched.enqueue(loc, tid);
        self.outstanding.insert(tid);
    }

    fn activate(&mut self, rng: &mut XorShift) {
        let loc = self.random_live(rng);
        if let Some(tid) = self.sched.next_runnable(loc) {
            self.popped(tid, "next_runnable");
            self.active[loc] += 1;
        }
    }

    fn release(&mut self, rng: &mut XorShift) {
        let loc = self.random_live(rng);
        if self.active[loc] > 0 {
            self.sched.release_slot(loc);
            self.active[loc] -= 1;
        }
    }

    /// One full steal round from a random thief, with the liveness
    /// assertions of property 2 at every decision.
    fn steal_round(&mut self, rng: &mut XorShift) {
        let thief = self.random_live(rng);
        if !self.sched.should_steal(thief) {
            return;
        }
        self.sched.begin_steal(thief);
        match self.sched.steal_victim(thief, &self.dead) {
            None => self.sched.enlist_waiter(thief),
            Some(victim) => {
                assert_ne!(victim, thief, "thief chosen as its own victim");
                assert!(!self.dead[victim], "steal targeted dead locality {victim}");
                assert!(
                    self.sched.queue_len(victim) > 0,
                    "steal targeted empty queue at {victim}"
                );
                self.victims.push((thief, victim));
                let tid = self
                    .sched
                    .steal_task(victim)
                    .expect("non-empty victim queue must yield a task");
                // The descriptor travels to the thief and is re-enqueued
                // there; it is *not* an execution yet.
                assert!(
                    self.outstanding.contains(&tid),
                    "stole {tid:?}, which was not outstanding"
                );
                self.sched.end_steal(thief);
                self.sched.enqueue(thief, tid);
            }
        }
    }

    fn handoff(&mut self, rng: &mut XorShift) {
        let loc = self.random_live(rng);
        if let Some((waiter, tid)) = self.sched.take_handoff(loc, &self.dead) {
            assert_ne!(waiter, loc, "handoff to the surplus locality itself");
            assert!(!self.dead[waiter], "handoff woke dead waiter {waiter}");
            assert!(
                self.outstanding.contains(&tid),
                "handoff moved {tid:?}, which was not outstanding"
            );
            self.sched.enqueue(waiter, tid);
        }
    }

    /// Fail-stop a locality. Recovery rewinds the phase and rebuilds the
    /// queues, which the scheduler models as `clear()` — every task not
    /// yet executed is reaped (it will be re-admitted under a *new* id
    /// by the replay, so the executed-once ledger stays valid).
    fn kill(&mut self, rng: &mut XorShift) {
        let live = self.live();
        if live.len() <= 2 {
            return; // keep stealing meaningful
        }
        let victim = live[1 + rng.below(live.len() as u64 - 1) as usize];
        self.dead[victim] = true;
        self.sched.clear();
        self.outstanding.clear();
        self.active = vec![0; self.nodes];
    }

    /// Drain every live queue to execution and assert nothing is left.
    fn drain(&mut self) {
        // Tasks activated during the op phase finish now, freeing their
        // slots for the backlog.
        for loc in 0..self.nodes {
            while self.active[loc] > 0 {
                self.sched.release_slot(loc);
                self.active[loc] -= 1;
            }
        }
        loop {
            let mut progressed = false;
            for loc in self.live() {
                while let Some(tid) = self.sched.next_runnable(loc) {
                    self.popped(tid, "drain");
                    self.sched.release_slot(loc);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(
            self.outstanding.is_empty(),
            "drain left tasks stranded: {:?} (queues: {:?})",
            self.outstanding,
            (0..self.nodes).map(|n| self.sched.queue_len(n)).collect::<Vec<_>>()
        );
    }
}

/// Drive one randomized interleaving; returns the victim log.
fn drive(seed: u64, with_kills: bool) -> Vec<(usize, usize)> {
    let mut rng = XorShift::new(seed);
    let nodes = 2 + rng.below(6) as usize; // 2..=7
    let cores = 1 + rng.below(3) as usize; // 1..=3
    let policy = victim_policy(rng.next());
    let mut h = Harness::new(seed ^ 0xabcd_ef01, nodes, cores, policy);
    let steps = 200 + rng.below(200);
    for _ in 0..steps {
        match rng.below(if with_kills { 12 } else { 11 }) {
            0..=3 => h.admit(&mut rng),
            4..=6 => h.activate(&mut rng),
            7..=8 => h.release(&mut rng),
            9 => h.steal_round(&mut rng),
            10 => h.handoff(&mut rng),
            _ => h.kill(&mut rng),
        }
    }
    h.drain();
    h.victims
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Property 1: exactly-once, under random interleavings without
    /// failures — and the drain leaves nothing behind.
    #[test]
    fn every_task_is_executed_exactly_once(seed in proptest::prelude::any::<u64>()) {
        drive(seed, false);
    }

    /// Properties 1+2 under fail-stop kills: the rewind keeps the
    /// executed-once ledger intact and no decision ever touches a dead
    /// locality.
    #[test]
    fn kills_never_break_exactly_once_or_target_the_dead(seed in proptest::prelude::any::<u64>()) {
        drive(seed, true);
    }

    /// Property 3: the victim sequence is a pure function of the seed
    /// and the op history — an identical replay picks identical victims.
    #[test]
    fn victim_selection_is_deterministic_per_seed(seed in proptest::prelude::any::<u64>()) {
        let a = drive(seed, true);
        let b = drive(seed, true);
        prop_assert_eq!(a, b, "same seed, same ops, different victims");
    }
}

/// The three victim policies are genuinely different selectors: on a
/// fixture with two backed-up queues they disagree somewhere (pinning
/// that the knob is not cosmetic).
#[test]
fn victim_policies_are_distinguishable() {
    let mut logs: Vec<Vec<usize>> = Vec::new();
    for policy in [
        VictimPolicy::RoundRobin,
        VictimPolicy::LeastLoaded,
        VictimPolicy::Random,
    ] {
        let mut h = Harness::new(7, 4, 1, policy);
        // Back up queues 1 (deep) and 2 (shallow); locality 0 starves.
        for i in 0..6 {
            h.sched.enqueue(1, TaskId(1000 + i));
            h.outstanding.insert(TaskId(1000 + i));
        }
        for i in 0..2 {
            h.sched.enqueue(2, TaskId(2000 + i));
            h.outstanding.insert(TaskId(2000 + i));
        }
        let mut log = Vec::new();
        for _ in 0..4 {
            if let Some(v) = h.sched.steal_victim(0, &[false; 4]) {
                log.push(v);
                // Take a task so LeastLoaded sees evolving lengths.
                let tid = h.sched.steal_task(v).unwrap();
                h.sched.enqueue(0, tid);
            }
        }
        logs.push(log);
    }
    assert!(
        logs[0] != logs[1] || logs[1] != logs[2],
        "all victim policies picked identical sequences: {logs:?}"
    );
}
