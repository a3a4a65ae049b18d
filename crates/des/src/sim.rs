//! The discrete-event simulation core.
//!
//! [`Sim`] owns a user-provided *world* (the entire simulated cluster state)
//! and a time-ordered event queue. Events are boxed closures receiving
//! `&mut Sim<W>`, so a handler can freely inspect and mutate the world and
//! schedule follow-up events. Ties in firing time are broken by a
//! monotonically increasing sequence number, which makes every run fully
//! deterministic — a property the test suite and the experiment harness
//! rely on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An event handler. It runs exactly once, at its scheduled virtual time.
pub type Event<W> = Box<dyn FnOnce(&mut Sim<W>)>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    event: Event<W>,
}

// Ordering is on (time, sequence) only; the closure itself is opaque.
impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event simulator over a world of type `W`.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    events_run: u64,
    queue: BinaryHeap<Reverse<Scheduled<W>>>,
    /// The simulated world. Public so event handlers can reach into it
    /// without accessor boilerplate; the simulator itself never touches it.
    pub world: W,
}

impl<W> Sim<W> {
    /// Create a simulator at virtual time zero around the given world.
    pub fn new(world: W) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            events_run: 0,
            queue: BinaryHeap::new(),
            world,
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    #[inline]
    pub fn events_run(&self) -> u64 {
        self.events_run
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` to fire at the absolute virtual time `at`.
    ///
    /// `at` must not lie in the past; scheduling at the current instant is
    /// allowed and fires after all previously scheduled events for that
    /// instant (FIFO among ties).
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            event: Box::new(event),
        }));
    }

    /// Execute the single next event, advancing virtual time to it.
    ///
    /// Returns `false` if the queue was empty.
    fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(s)) => {
                debug_assert!(s.at >= self.now);
                self.now = s.at;
                self.events_run += 1;
                (s.event)(self);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for &(t, label) in &[(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = log.clone();
            sim.schedule(SimDuration::from_nanos(t), move |_| {
                log.borrow_mut().push(label)
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_fire_fifo() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for label in ['x', 'y', 'z'] {
            let log = log.clone();
            sim.schedule(SimDuration::from_nanos(5), move |_| {
                log.borrow_mut().push(label)
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['x', 'y', 'z']);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Sim::new(0u64);
        sim.schedule(SimDuration::from_nanos(1), |sim| {
            sim.world += 1;
            sim.schedule(SimDuration::from_nanos(1), |sim| {
                sim.world += 10;
            });
        });
        let end = sim.run();
        assert_eq!(sim.world, 11);
        assert_eq!(end, SimTime::from_nanos(2));
    }

    #[test]
    fn time_advances_to_event_times() {
        let mut sim = Sim::new(Vec::<SimTime>::new());
        sim.schedule(SimDuration::from_millis(3), |sim| {
            let t = sim.now();
            sim.world.push(t);
        });
        sim.run();
        assert_eq!(sim.world, vec![SimTime::from_nanos(3_000_000)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule(SimDuration::from_nanos(10), |sim| {
            sim.schedule_at(SimTime::from_nanos(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn determinism_across_runs() {
        fn trace() -> Vec<(u64, u32)> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new(());
            // A diamond of events with equal times exercises tie-breaking.
            for i in 0..16u32 {
                let log = log.clone();
                sim.schedule(SimDuration::from_nanos((i % 4) as u64), move |sim| {
                    let now = sim.now().as_nanos();
                    log.borrow_mut().push((now, i));
                    if i < 4 {
                        let log2 = log.clone();
                        sim.schedule(SimDuration::from_nanos(2), move |sim| {
                            let now = sim.now().as_nanos();
                            log2.borrow_mut().push((now, 100 + i));
                        });
                    }
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(trace(), trace());
    }
}
