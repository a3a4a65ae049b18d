//! Per-node compute-core accounting.
//!
//! Each simulated cluster node owns a [`CorePool`] modelling its `k` CPU
//! cores as a first-come-first-served `k`-server queue: a task asking for
//! `d` nanoseconds of core time starts on the earliest-free core (or
//! immediately, if one is idle) and occupies it for `d`. This reproduces
//! intra-node saturation — once more than `k` tasks are in flight, extra
//! parallelism only queues — which is what makes weak-scaling curves bend
//! realistically without simulating instruction streams.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A FCFS pool of `k` identical cores.
#[derive(Debug, Clone)]
pub struct CorePool {
    /// Min-heap of `(free_at, core_index)`: when each core becomes free.
    /// The index is the tie-breaker (lowest-numbered idle core wins), which
    /// keeps core assignment deterministic for trace attribution.
    busy_until: BinaryHeap<Reverse<(SimTime, usize)>>,
}

impl CorePool {
    /// Create a pool of `cores` idle cores. `cores` must be nonzero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a node needs at least one core");
        let mut busy_until = BinaryHeap::with_capacity(cores);
        for i in 0..cores {
            busy_until.push(Reverse((SimTime::ZERO, i)));
        }
        CorePool { busy_until }
    }

    /// Reserve `work` of core time starting no earlier than `now`.
    ///
    /// Returns `(start, end)`: the interval during which the work occupies
    /// a core. `start >= now`, `end = start + work`.
    pub fn acquire(&mut self, now: SimTime, work: SimDuration) -> (SimTime, SimTime) {
        let (_, start, end) = self.acquire_indexed(now, work);
        (start, end)
    }

    /// Like [`CorePool::acquire`], but also reports *which* core the work
    /// landed on — used by the tracing subsystem to draw one timeline track
    /// per core. Scheduling behavior is identical to `acquire`.
    pub fn acquire_indexed(
        &mut self,
        now: SimTime,
        work: SimDuration,
    ) -> (usize, SimTime, SimTime) {
        let Reverse((free_at, core)) = self.busy_until.pop().expect("pool is never empty");
        let start = free_at.max(now);
        let end = start + work;
        self.busy_until.push(Reverse((end, core)));
        (core, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: u64) -> SimDuration {
        SimDuration::from_nanos(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_nanos(x)
    }

    #[test]
    fn single_core_serializes() {
        let mut p = CorePool::new(1);
        assert_eq!(p.acquire(at(0), ns(10)), (at(0), at(10)));
        assert_eq!(p.acquire(at(0), ns(10)), (at(10), at(20)));
        assert_eq!(p.acquire(at(5), ns(10)), (at(20), at(30)));
    }

    #[test]
    fn multiple_cores_run_in_parallel() {
        let mut p = CorePool::new(4);
        for _ in 0..4 {
            assert_eq!(p.acquire(at(0), ns(100)), (at(0), at(100)));
        }
        // Fifth task queues behind the earliest-finishing core.
        assert_eq!(p.acquire(at(0), ns(100)), (at(100), at(200)));
    }

    #[test]
    fn idle_cores_start_immediately_later() {
        let mut p = CorePool::new(2);
        p.acquire(at(0), ns(1000));
        // At t=500 the second core is still idle.
        assert_eq!(p.acquire(at(500), ns(10)), (at(500), at(510)));
        // At t=505 both are busy: the next piece queues behind the short one.
        assert_eq!(p.acquire(at(505), ns(10)), (at(510), at(520)));
    }

    #[test]
    fn earliest_free_tracks_min() {
        // A zero-length piece starts when the earliest core frees up.
        let mut p = CorePool::new(2);
        assert_eq!(p.acquire(at(0), ns(0)).0, at(0));
        p.acquire(at(0), ns(50));
        assert_eq!(p.acquire(at(0), ns(0)).0, at(0));
        p.acquire(at(0), ns(80));
        assert_eq!(p.acquire(at(0), ns(0)).0, at(50));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CorePool::new(0);
    }

    #[test]
    fn indexed_acquire_picks_lowest_idle_core_and_matches_acquire() {
        let mut p = CorePool::new(3);
        // All idle: cores hand out in index order.
        assert_eq!(p.acquire_indexed(at(0), ns(100)), (0, at(0), at(100)));
        assert_eq!(p.acquire_indexed(at(0), ns(50)), (1, at(0), at(50)));
        assert_eq!(p.acquire_indexed(at(0), ns(80)), (2, at(0), at(80)));
        // Next work goes to the earliest-free core (core 1 at t=50).
        assert_eq!(p.acquire_indexed(at(0), ns(10)), (1, at(50), at(60)));
        // A plain acquire sees the same (start, end) schedule.
        let mut q = CorePool::new(3);
        for (now, work) in [(0, 100), (0, 50), (0, 80), (0, 10)] {
            q.acquire(at(now), ns(work));
        }
        let (_, start, end) = p.acquire_indexed(at(0), ns(5));
        assert_eq!(q.acquire(at(0), ns(5)), (start, end));
    }

    #[test]
    fn makespan_matches_k_server_bound() {
        // 10 unit jobs on 3 cores => makespan ceil(10/3)*unit = 4 units.
        let mut p = CorePool::new(3);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let (_, end) = p.acquire(SimTime::ZERO, ns(7));
            last = last.max(end);
        }
        assert_eq!(last, at(28));
    }
}
