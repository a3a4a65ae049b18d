//! The scheduler subsystem: a swappable layer between Algorithm 2's
//! variant/target decisions and the task lifecycle in [`crate::runtime`].
//!
//! Two families implement the [`Scheduler`] trait, which holds just those
//! two decisions:
//!
//! - [`DataAwareScheduler`] — the paper's behavior: every process task
//!   executes directly at the locality its data requirements (or the
//!   [`SchedulingPolicy`]) picked. This is the default.
//! - [`WorkStealingScheduler`] — per-locality bounded task queues with a
//!   local-queue-threshold trigger and work stealing (the HPX-style
//!   decentralized alternative). Admission still honors the data-aware
//!   preferred target (so first-touch layout is preserved), but a task
//!   whose preferred queue is at [`StealConfig::queue_threshold`] spills
//!   to the shortest live queue, and a locality that runs dry *steals*:
//!   it picks a victim via the pluggable [`VictimPolicy`], sends a
//!   billed steal request, and the victim hands over the back of its
//!   queue. Stolen tasks re-resolve their data requirements at the thief
//!   through the normal staging machinery (location cache included).
//!
//! Both families only *decide*; all effects — billing steal messages,
//! moving descriptors, tracing — stay in the runtime, which drives the
//! stealing family's queues through its `enqueue`/`next_runnable`/`steal_*`
//! methods. The direct family has no queues, so it has none of them.
//!
//! Everything here is deterministic: queues are `VecDeque`s, victim
//! cursors are per-thief counters, and the `Random` victim policy draws
//! from a seeded xorshift — two runs of the same configuration make
//! identical decisions, which the conformance suite relies on.

use std::collections::VecDeque;

use allscale_des::rng::XorShift64;

use crate::policy::{self, PolicyEnv, SchedulingPolicy, Variant};
use crate::task::TaskId;

/// Algorithm 2's two decisions, made by either scheduler family.
/// Decision-only: the runtime owns all effects.
pub trait Scheduler: 'static {
    /// Choose the variant for a task (Algorithm 2 line 3). No family
    /// reads the placement `hint`.
    fn pick_variant(
        &mut self,
        depth: u32,
        can_split: bool,
        hint: Option<f64>,
        env: &PolicyEnv<'_>,
    ) -> Variant;

    /// Choose a target locality for a task pinned nowhere (Algorithm 2
    /// line 12).
    fn pick_target(&mut self, hint: Option<f64>, origin: usize, env: &PolicyEnv<'_>) -> usize;
}

// --------------------------------------------------------------- data-aware

/// The direct family: every admitted task executes at its preferred
/// locality immediately — the paper's Algorithm 2, with the
/// fallback-target decision delegated to the wrapped [`SchedulingPolicy`].
pub struct DataAwareScheduler {
    policy: Box<dyn SchedulingPolicy>,
}

impl DataAwareScheduler {
    /// Wrap a policy (usually [`crate::policy::DataAwarePolicy`]).
    pub fn new(policy: Box<dyn SchedulingPolicy>) -> Self {
        DataAwareScheduler { policy }
    }
}

impl Scheduler for DataAwareScheduler {
    fn pick_variant(
        &mut self,
        depth: u32,
        can_split: bool,
        _hint: Option<f64>,
        env: &PolicyEnv<'_>,
    ) -> Variant {
        policy::pick_variant(depth, can_split, env)
    }

    fn pick_target(&mut self, hint: Option<f64>, origin: usize, env: &PolicyEnv<'_>) -> usize {
        self.policy.pick_target(hint, origin, env)
    }
}

// ------------------------------------------------------------ work stealing

/// How a thief picks its victim among localities with queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Ring scan from a per-thief cursor: fair, stateful, no load info.
    RoundRobin,
    /// The longest queue (most backed-up locality); ties break toward
    /// the lowest index. "LeastLoaded" names the *thief-relative* view:
    /// stealing from the fullest queue leaves the least-loaded cluster.
    LeastLoaded,
    /// Uniformly random among candidates, from a seeded xorshift — the
    /// classic randomized work stealing, deterministic per seed.
    Random,
}

/// Victims a thief of the stealing family tries per steal round before
/// it parks as a waiter.
pub(crate) const STEAL_ATTEMPTS: usize = 3;

/// Knobs of the work-stealing scheduler family.
#[derive(Debug, Clone, Copy)]
pub struct StealConfig {
    /// Queue length at which admission spills past the preferred
    /// locality to the shortest live queue.
    pub queue_threshold: usize,
    /// Victim selection strategy.
    pub victim: VictimPolicy,
    /// Seed of the [`VictimPolicy::Random`] draw stream.
    pub seed: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            queue_threshold: 4,
            victim: VictimPolicy::RoundRobin,
            seed: 0x5eed_0bad_cafe,
        }
    }
}

/// What an idle locality of the stealing family is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing special; a dry pump may start a steal round.
    Idle,
    /// A steal request (or stolen-task handoff) is in flight.
    Stealing,
    /// Steal round exhausted; parked in the waiter list.
    Waiting,
}

struct LocState {
    queue: VecDeque<TaskId>,
    /// Activated (slot-holding) tasks; capped at `slots`.
    active: usize,
    mode: Mode,
}

impl LocState {
    fn new() -> Self {
        LocState {
            queue: VecDeque::new(),
            active: 0,
            mode: Mode::Idle,
        }
    }
}

/// The queue family: per-locality bounded task queues, threshold spill
/// at admission, and work stealing with pluggable victim selection. See
/// the module docs for the protocol; the runtime drives it.
pub struct WorkStealingScheduler {
    policy: Box<dyn SchedulingPolicy>,
    cfg: StealConfig,
    /// Execution slots per locality (= cores: one activated task per
    /// core keeps queued tasks stealable instead of buried in a core
    /// pool's backlog).
    slots: usize,
    locs: Vec<LocState>,
    /// Idle localities whose steal rounds came up dry, oldest first.
    waiters: VecDeque<usize>,
    /// Per-thief ring cursor of the round-robin victim scan.
    cursors: Vec<usize>,
    /// Seeded generator of the random victim draw.
    rng: XorShift64,
}

impl WorkStealingScheduler {
    /// A work-stealing scheduler over `nodes` localities with `cores`
    /// execution slots each, wrapping `policy` for the Algorithm-2
    /// variant/fallback decisions.
    pub fn new(
        policy: Box<dyn SchedulingPolicy>,
        cfg: StealConfig,
        nodes: usize,
        cores: usize,
    ) -> Self {
        WorkStealingScheduler {
            policy,
            cfg,
            slots: cores.max(1),
            locs: (0..nodes).map(|_| LocState::new()).collect(),
            waiters: VecDeque::new(),
            cursors: vec![0; nodes],
            rng: XorShift64::new(cfg.seed),
        }
    }

    fn drop_waiter(&mut self, loc: usize) {
        self.waiters.retain(|&w| w != loc);
    }

    /// The queue a process task goes to, given its data-aware
    /// `preferred` locality (already decided, and live): that locality's,
    /// or past a full one the shortest queue of a locality not flagged
    /// in `dead`.
    pub fn admit(&mut self, preferred: usize, dead: &[bool]) -> usize {
        if self.locs[preferred].queue.len() < self.cfg.queue_threshold {
            return preferred;
        }
        // Threshold spill: the shortest live queue (ties toward the
        // lowest index), which is usually an idle locality — the
        // admission-side half of load balancing, complementing steals.
        let mut best = preferred;
        let mut best_len = self.locs[preferred].queue.len();
        for (n, l) in self.locs.iter().enumerate() {
            if dead[n] {
                continue;
            }
            if l.queue.len() < best_len {
                best = n;
                best_len = l.queue.len();
            }
        }
        best
    }

    /// Append a task to `loc`'s queue.
    pub fn enqueue(&mut self, loc: usize, task: TaskId) {
        self.locs[loc].queue.push_back(task);
        // Local work ends a wait: the pump activates it right after.
        if self.locs[loc].mode == Mode::Waiting {
            self.locs[loc].mode = Mode::Idle;
            self.drop_waiter(loc);
        }
    }

    /// Pop the next task to activate at `loc`, if a slot is free — the
    /// scheduler takes the slot. `None` when the queue is empty or every
    /// slot is taken.
    pub fn next_runnable(&mut self, loc: usize) -> Option<TaskId> {
        let l = &mut self.locs[loc];
        if l.active >= self.slots {
            return None;
        }
        let task = l.queue.pop_front()?;
        l.active += 1;
        Some(task)
    }

    /// Return the slot an activated task held (called at completion).
    pub fn release_slot(&mut self, loc: usize) {
        self.locs[loc].active = self.locs[loc].active.saturating_sub(1);
    }

    /// Tasks queued (not yet activated) at `loc`.
    pub fn queue_len(&self, loc: usize) -> usize {
        self.locs[loc].queue.len()
    }

    /// Whether `loc` should start a steal round: it has a free slot, an
    /// empty queue, and no steal already in flight.
    pub fn should_steal(&self, loc: usize) -> bool {
        self.locs.len() > 1
            && self.locs[loc].mode == Mode::Idle
            && self.locs[loc].queue.is_empty()
            && self.locs[loc].active < self.slots
    }

    /// Mark a steal round in flight from `loc`.
    pub fn begin_steal(&mut self, loc: usize) {
        self.locs[loc].mode = Mode::Stealing;
    }

    /// Clear `loc`'s steal/wait state (round over, grant arrived, or
    /// handoff lost).
    pub fn end_steal(&mut self, loc: usize) {
        self.locs[loc].mode = Mode::Idle;
        self.drop_waiter(loc);
    }

    /// Pick a steal victim for `thief`: a live locality (never one
    /// flagged in `dead`, never the thief) with a non-empty queue.
    pub fn steal_victim(&mut self, thief: usize, dead: &[bool]) -> Option<usize> {
        let nodes = self.locs.len();
        let eligible = |n: usize| n != thief && !dead[n] && !self.locs[n].queue.is_empty();
        match self.cfg.victim {
            VictimPolicy::RoundRobin => {
                let start = self.cursors[thief];
                let victim = (0..nodes).map(|d| (start + d) % nodes).find(|&n| eligible(n))?;
                self.cursors[thief] = (victim + 1) % nodes;
                Some(victim)
            }
            VictimPolicy::LeastLoaded => (0..nodes)
                .filter(|&n| eligible(n))
                .max_by_key(|&n| (self.locs[n].queue.len(), std::cmp::Reverse(n))),
            VictimPolicy::Random => {
                let candidates: Vec<usize> = (0..nodes).filter(|&n| eligible(n)).collect();
                if candidates.is_empty() {
                    return None;
                }
                let i = self.rng.below(candidates.len() as u64) as usize;
                Some(candidates[i])
            }
        }
    }

    /// Give up the back of `victim`'s queue (the coldest task — its
    /// data was staged least recently, so it is the cheapest to move).
    pub fn steal_task(&mut self, victim: usize) -> Option<TaskId> {
        self.locs[victim].queue.pop_back()
    }

    /// Register `loc` as an idle waiter after an exhausted steal round;
    /// a later surplus enqueue hands it work via
    /// [`WorkStealingScheduler::take_handoff`].
    pub fn enlist_waiter(&mut self, loc: usize) {
        self.locs[loc].mode = Mode::Waiting;
        if !self.waiters.contains(&loc) {
            self.waiters.push_back(loc);
        }
    }

    /// After `loc` gained surplus queued work: pop the oldest live
    /// waiter (never `loc` itself, never a locality flagged in `dead`)
    /// and the back of `loc`'s queue for a direct handoff.
    pub fn take_handoff(&mut self, loc: usize, dead: &[bool]) -> Option<(usize, TaskId)> {
        if self.locs[loc].queue.is_empty() {
            return None;
        }
        let pos = self
            .waiters
            .iter()
            .position(|&w| w != loc && !dead[w])?;
        let waiter = self.waiters.remove(pos).expect("waiter at found position");
        let task = self.locs[loc].queue.pop_back().expect("queue checked non-empty");
        Some((waiter, task))
    }

    /// Drop all queued tasks, slots, and steal/wait state (recovery
    /// rewinds the phase; the queues' tasks no longer exist).
    pub fn clear(&mut self) {
        for l in &mut self.locs {
            l.queue.clear();
            l.active = 0;
            l.mode = Mode::Idle;
        }
        self.waiters.clear();
    }
}

impl Scheduler for WorkStealingScheduler {
    fn pick_variant(
        &mut self,
        depth: u32,
        can_split: bool,
        _hint: Option<f64>,
        env: &PolicyEnv<'_>,
    ) -> Variant {
        policy::pick_variant(depth, can_split, env)
    }

    fn pick_target(&mut self, hint: Option<f64>, origin: usize, env: &PolicyEnv<'_>) -> usize {
        self.policy.pick_target(hint, origin, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DataAwarePolicy;

    fn ws(nodes: usize, cores: usize, victim: VictimPolicy, seed: u64) -> WorkStealingScheduler {
        WorkStealingScheduler::new(
            Box::new(DataAwarePolicy),
            StealConfig {
                victim,
                seed,
                ..StealConfig::default()
            },
            nodes,
            cores,
        )
    }

    fn fill(s: &mut WorkStealingScheduler, loc: usize, n: usize) {
        for i in 0..n {
            s.enqueue(loc, TaskId((loc * 1000 + i) as u64));
        }
    }

    #[test]
    fn slots_cap_activation() {
        let mut s = ws(2, 2, VictimPolicy::RoundRobin, 1);
        fill(&mut s, 0, 3);
        assert!(s.next_runnable(0).is_some());
        assert!(s.next_runnable(0).is_some());
        assert!(s.next_runnable(0).is_none(), "both slots taken");
        assert_eq!(s.queue_len(0), 1);
        s.release_slot(0);
        assert!(s.next_runnable(0).is_some());
    }

    #[test]
    fn admission_spills_past_full_queue_to_shortest_live() {
        let mut s = ws(3, 1, VictimPolicy::RoundRobin, 1);
        let dead = vec![false, false, false];
        fill(&mut s, 0, 4); // at the default threshold
        fill(&mut s, 1, 1);
        assert_eq!(s.admit(0, &dead), 2, "spill to the empty queue");
        assert_eq!(s.admit(1, &dead), 1, "below threshold stays");
        let dead2 = vec![false, true, true];
        assert_eq!(
            s.admit(0, &dead2),
            0,
            "no live spill target: stay at the preferred locality"
        );
    }

    #[test]
    fn round_robin_victims_cycle_fairly() {
        let mut s = ws(4, 1, VictimPolicy::RoundRobin, 1);
        let dead = vec![false; 4];
        fill(&mut s, 1, 3);
        fill(&mut s, 2, 3);
        fill(&mut s, 3, 3);
        let picks: Vec<usize> = (0..3).map(|_| s.steal_victim(0, &dead).unwrap()).collect();
        assert_eq!(picks, vec![1, 2, 3], "ring order from the cursor");
    }

    #[test]
    fn least_loaded_steals_from_longest_queue() {
        let mut s = ws(4, 1, VictimPolicy::LeastLoaded, 1);
        let dead = vec![false; 4];
        fill(&mut s, 1, 2);
        fill(&mut s, 2, 5);
        fill(&mut s, 3, 5);
        assert_eq!(s.steal_victim(0, &dead), Some(2), "longest queue, lowest index on tie");
    }

    #[test]
    fn victims_exclude_dead_self_and_empty() {
        for victim in [VictimPolicy::RoundRobin, VictimPolicy::LeastLoaded, VictimPolicy::Random] {
            let mut s = ws(4, 1, victim, 7);
            let dead = vec![false, true, false, false];
            fill(&mut s, 0, 5); // the thief: never its own victim
            fill(&mut s, 1, 5); // dead: never a victim
            fill(&mut s, 2, 5);
            fill(&mut s, 3, 5);
            for _ in 0..16 {
                let v = s.steal_victim(0, &dead).expect("an eligible victim exists");
                assert_ne!(v, 1, "{victim:?} picked a dead victim");
                assert_ne!(v, 0, "{victim:?} picked the thief itself");
                assert!(!s.locs[v].queue.is_empty(), "{victim:?} picked an empty queue");
            }
            assert_eq!(s.steal_victim(0, &[true; 4]), None, "all dead: no victim");
        }
    }

    #[test]
    fn random_victims_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut s = ws(8, 1, VictimPolicy::Random, seed);
            let dead = vec![false; 8];
            for n in 1..8 {
                fill(&mut s, n, 2);
            }
            (0..12)
                .map(|_| s.steal_victim(0, &dead).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn handoff_skips_dead_and_self_waiters() {
        let mut s = ws(4, 1, VictimPolicy::RoundRobin, 1);
        s.enlist_waiter(1);
        s.enlist_waiter(2);
        fill(&mut s, 0, 2);
        let dead = vec![false, true, false, false];
        let (w, _t) = s.take_handoff(0, &dead).unwrap();
        assert_eq!(w, 2, "dead waiter 1 skipped");
        assert!(s.take_handoff(0, &dead).is_none(), "no live waiter left");
    }

    #[test]
    fn clear_resets_queues_slots_and_waiters() {
        let mut s = ws(2, 1, VictimPolicy::RoundRobin, 1);
        fill(&mut s, 0, 3);
        let _ = s.next_runnable(0);
        s.enlist_waiter(1);
        s.clear();
        assert_eq!(s.queue_len(0), 0);
        assert!(s.next_runnable(0).is_none());
        assert!(s.take_handoff(0, &[false, false]).is_none());
        assert!(s.should_steal(0), "cleared state is idle with free slots");
    }
}
