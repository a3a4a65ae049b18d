//! Scheduling policies (paper Algorithm 2, lines 3 and 12).
//!
//! "Whenever a task is scheduled, in a first step a customizable scheduling
//! policy is consulted to select the variant to be executed. … If neither
//! \[a process covering all requirements nor one covering all write
//! requirements\] is available, the scheduling policy will be once more
//! consulted to select a desirable locality."
//!
//! The default [`DataAwarePolicy`] splits tasks until the cluster is
//! saturated and spreads placement-hinted tasks proportionally over the
//! localities — which is what makes first-touch initialization lay data
//! out in blocks ("during the initialization phase of applications, it is
//! responsible for spreading out tasks such that data items get evenly
//! distributed throughout the system"). [`RoundRobinPolicy`] is the
//! ablation baseline (DESIGN.md, A2).

/// Which variant of a task to run (paper Def. 2.3 / Section 3.3: each task
/// has a serial *process* variant and, where possible, a parallel *split*
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Execute the task body directly.
    Process,
    /// Decompose into child tasks.
    Split,
}

/// Snapshot of runtime information a policy may consult.
pub struct PolicyEnv<'a> {
    /// Number of localities.
    pub nodes: usize,
    /// Cores per locality.
    pub cores_per_node: usize,
    /// Tasks currently queued or running per locality.
    pub load: &'a [usize],
}

/// A task-scheduling policy: the one decision of Algorithm 2 its
/// implementations make differently (ablation A2).
pub trait SchedulingPolicy: 'static {
    /// Choose a target locality for a task whose requirements pin it
    /// nowhere (Algorithm 2 line 12).
    fn pick_target(&mut self, hint: Option<f64>, origin: usize, env: &PolicyEnv<'_>) -> usize;
}

/// Target number of leaf tasks per core: a task tree is split until the
/// cluster holds this many leaves per core.
const OVERSUBSCRIPTION: usize = 2;

/// Choose the variant for a task at recursion `depth` with the given
/// split capability (Algorithm 2 line 3): split until the (complete,
/// binary) task tree has `OVERSUBSCRIPTION` leaves per core.
pub(crate) fn pick_variant(depth: u32, can_split: bool, env: &PolicyEnv<'_>) -> Variant {
    let target_leaves = (env.nodes * env.cores_per_node * OVERSUBSCRIPTION).max(1) as u64;
    // A complete binary split tree has 2^depth tasks at this depth.
    if can_split && (1u64 << depth.min(62)) < target_leaves {
        Variant::Split
    } else {
        Variant::Process
    }
}

/// Map a placement hint in `[0, 1]` to a locality; a hint of exactly 1
/// lands on the last one.
fn hint_to_node(hint: f64, nodes: usize) -> usize {
    ((hint.clamp(0.0, 1.0) * nodes as f64) as usize).min(nodes.saturating_sub(1))
}

/// The default policy: split until the cluster is saturated, place hinted
/// tasks by hint, unhinted ones on the least-loaded locality.
#[derive(Default)]
pub struct DataAwarePolicy;

impl SchedulingPolicy for DataAwarePolicy {
    fn pick_target(&mut self, hint: Option<f64>, origin: usize, env: &PolicyEnv<'_>) -> usize {
        match hint {
            Some(h) => hint_to_node(h, env.nodes),
            None => {
                // Least-loaded locality; ties break toward the origin to
                // preserve locality.
                let mut best = origin;
                let mut best_load = env.load.get(origin).copied().unwrap_or(0);
                for (n, &l) in env.load.iter().enumerate() {
                    if l < best_load {
                        best = n;
                        best_load = l;
                    }
                }
                best
            }
        }
    }
}

/// Ablation: ignore hints, place tasks round-robin.
#[derive(Default)]
pub struct RoundRobinPolicy {
    next: usize,
}

impl SchedulingPolicy for RoundRobinPolicy {
    fn pick_target(&mut self, _hint: Option<f64>, _origin: usize, env: &PolicyEnv<'_>) -> usize {
        let t = self.next % env.nodes;
        self.next = self.next.wrapping_add(1);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'a>(nodes: usize, cores: usize, load: &'a [usize]) -> PolicyEnv<'a> {
        PolicyEnv {
            nodes,
            cores_per_node: cores,
            load,
        }
    }

    #[test]
    fn data_aware_splits_until_saturation() {
        let load = vec![0; 4];
        let e = env(4, 2, &load); // target 16 leaves
        assert_eq!(pick_variant(0, true, &e), Variant::Split);
        assert_eq!(pick_variant(3, true, &e), Variant::Split);
        assert_eq!(pick_variant(4, true, &e), Variant::Process);
        assert_eq!(pick_variant(0, false, &e), Variant::Process);
    }

    #[test]
    fn hints_spread_blockwise() {
        let mut p = DataAwarePolicy;
        let load = vec![0; 8];
        let e = env(8, 1, &load);
        assert_eq!(p.pick_target(Some(0.0), 0, &e), 0);
        assert_eq!(p.pick_target(Some(0.49), 0, &e), 3);
        assert_eq!(p.pick_target(Some(0.99), 0, &e), 7);
        // Hint 1.0 clamps into the last node.
        assert_eq!(p.pick_target(Some(1.0), 0, &e), 7);
    }

    #[test]
    fn unhinted_tasks_go_to_least_loaded() {
        let mut p = DataAwarePolicy;
        let load = vec![5, 2, 9, 2];
        let e = env(4, 1, &load);
        assert_eq!(p.pick_target(None, 0, &e), 1); // first least-loaded
        let load2 = vec![0, 0, 0, 0];
        let e2 = env(4, 1, &load2);
        assert_eq!(p.pick_target(None, 2, &e2), 2); // tie → origin
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobinPolicy::default();
        let load = vec![0; 3];
        let e = env(3, 1, &load);
        let ts: Vec<usize> = (0..6).map(|_| p.pick_target(Some(0.9), 0, &e)).collect();
        assert_eq!(ts, vec![0, 1, 2, 0, 1, 2]);
    }
}
