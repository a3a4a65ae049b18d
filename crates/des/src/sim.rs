//! The discrete-event simulation core.
//!
//! [`Sim`] owns a user-provided *world* (the entire simulated cluster state)
//! and a time-ordered event queue. An event is a value of any type
//! implementing [`Event`]: firing consumes it and hands it `&mut Sim`, so a
//! handler can freely inspect and mutate the world and schedule follow-up
//! events. The default event type, [`Closure`], is a boxed closure — one
//! allocation per event; a caller with a fixed set of continuations
//! schedules an enum of them instead and allocates nothing per event.
//!
//! A 4-ary heap orders 16-byte keys, the firing time and one word holding
//! the sequence number above the slab slot; the events wait in a slab
//! whose freed slots are reused, so once the queue has been as deep as it
//! gets, scheduling allocates nothing. Ties in firing time are broken by
//! the monotonically increasing sequence number, which makes every run
//! fully deterministic — a property the test suite and the experiment
//! harness rely on.

use crate::time::{SimDuration, SimTime};

/// Something that happens at a scheduled virtual time: it runs exactly
/// once, consuming itself, and may schedule follow-ups of its own type.
pub trait Event<W>: Sized {
    /// Run the event; `sim.now()` is its scheduled time.
    fn fire(self, sim: &mut Sim<W, Self>);
}

/// The body of a [`Closure`].
type Handler<W> = dyn FnOnce(&mut Sim<W>);

/// The default event: a boxed closure over the simulator.
pub struct Closure<W>(Box<Handler<W>>);

impl<W> Event<W> for Closure<W> {
    #[inline]
    fn fire(self, sim: &mut Sim<W>) {
        (self.0)(sim)
    }
}

/// A queue entry: when, in which order among ties, and where the event
/// waits. `order` holds the sequence number in its high [`SEQ_BITS`] and
/// the slab slot in its low [`SLOT_BITS`]; the sequence number is unique,
/// so ordering on `(at, order)` is ordering on `(at, seq)` and the slot
/// never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    order: u64,
}

/// Bits of a key's slab slot: at most 2^24 (16.7 M) events pending at once.
const SLOT_BITS: u32 = 24;
/// Bits of a key's sequence number: 2^40 (10^12) events scheduled per run.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

impl Key {
    fn new(at: SimTime, seq: u64, slot: usize) -> Key {
        assert!(
            seq < 1 << SEQ_BITS,
            "more than 2^{SEQ_BITS} events scheduled"
        );
        assert!(
            slot < 1 << SLOT_BITS,
            "more than 2^{SLOT_BITS} events pending"
        );
        Key {
            at,
            order: seq << SLOT_BITS | slot as u64,
        }
    }

    #[inline]
    fn slot(self) -> usize {
        (self.order & ((1 << SLOT_BITS) - 1)) as usize
    }
}

/// Children per node of the queue's heap: half as deep as a binary heap,
/// with a node's children side by side (measured: 5 % less CPU on
/// `tpc_64`, 1.4 % on `serve_steady`, than `std`'s binary heap).
const ARITY: usize = 4;

/// A deterministic discrete-event simulator over a world of type `W`,
/// running events of type `E`.
pub struct Sim<W, E = Closure<W>> {
    now: SimTime,
    seq: u64,
    events_run: u64,
    /// A min-heap of keys, [`ARITY`] children per node.
    queue: Vec<Key>,
    /// Scheduled events by slot; `None` where the slot is free.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, reused last-freed first.
    free: Vec<u32>,
    /// The simulated world. Public so event handlers can reach into it
    /// without accessor boilerplate; the simulator itself never touches it.
    pub world: W,
}

impl<W, E: Event<W>> Sim<W, E> {
    /// Create a simulator at virtual time zero around the given world.
    pub fn new(world: W) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            events_run: 0,
            queue: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
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

    /// Schedule `event` to fire at the absolute virtual time `at`.
    ///
    /// `at` must not lie in the past; scheduling at the current instant is
    /// allowed and fires after all previously scheduled events for that
    /// instant (FIFO among ties).
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.push(Key::new(at, seq, slot));
    }

    /// Sift `key` up from a new leaf.
    fn push(&mut self, key: Key) {
        let mut i = self.queue.len();
        self.queue.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.queue[parent] <= key {
                break;
            }
            self.queue[i] = self.queue[parent];
            i = parent;
        }
        self.queue[i] = key;
    }

    /// Take the least key; the last leaf sifts down from the root.
    fn pop(&mut self) -> Option<Key> {
        let last = self.queue.pop()?;
        let Some(&top) = self.queue.first() else {
            return Some(last);
        };
        let n = self.queue.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + ARITY).min(n) {
                if self.queue[c] < self.queue[min] {
                    min = c;
                }
            }
            if self.queue[min] >= last {
                break;
            }
            self.queue[i] = self.queue[min];
            i = min;
        }
        self.queue[i] = last;
        Some(top)
    }

    /// Execute the single next event, advancing virtual time to it.
    ///
    /// Returns `false` if the queue was empty.
    fn step(&mut self) -> bool {
        let Some(key) = self.pop() else {
            return false;
        };
        debug_assert!(key.at >= self.now);
        let event = self.slab[key.slot()]
            .take()
            .expect("a queued key names an occupied slot");
        self.free.push(key.slot() as u32);
        self.now = key.at;
        self.events_run += 1;
        event.fire(self);
        true
    }

    /// Run until the event queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(|_| false);
        self.now
    }

    /// Run until `stop` holds of the world after an event (returns
    /// `true`; later events stay queued and [`Sim::now`] is that event's
    /// time) or the queue drains (returns `false`). Between two calls the
    /// caller may mutate the world and schedule: a resumed run fires what
    /// it scheduled in the same time/FIFO order as events scheduled by
    /// that event itself.
    pub fn run_until(&mut self, stop: impl Fn(&W) -> bool) -> bool {
        while self.step() {
            if stop(&self.world) {
                return true;
            }
        }
        false
    }
}

impl<W> Sim<W> {
    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` to fire at the absolute virtual time `at` (see
    /// [`Sim::schedule_event_at`]).
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        self.schedule_event_at(at, Closure(Box::new(event)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What the scenarios below record: (virtual time, label) per firing.
    type Log = Vec<(u64, u32)>;

    /// The test-only event enum: record a label, or record one and
    /// schedule a follow-up `after` ns later.
    enum Note {
        Record(u32),
        Spawn { label: u32, after: u64, then: u32 },
    }

    impl Event<Log> for Note {
        fn fire(self, sim: &mut Sim<Log, Note>) {
            let now = sim.now().as_nanos();
            match self {
                Note::Record(label) => sim.world.push((now, label)),
                Note::Spawn { label, after, then } => {
                    sim.world.push((now, label));
                    let at = sim.now() + SimDuration::from_nanos(after);
                    sim.schedule_event_at(at, Note::Record(then));
                }
            }
        }
    }

    /// A script line: delay, label, optional (follow-up delay, label).
    type Line = (u64, u32, Option<(u64, u32)>);

    /// Run `script` once with closures and once with [`Note`]s; both logs
    /// must agree.
    fn run_both(script: &[Line]) -> Log {
        let log = Rc::new(RefCell::new(Log::new()));
        let mut sim = Sim::new(());
        for &(delay, label, then) in script {
            let log = log.clone();
            sim.schedule(SimDuration::from_nanos(delay), move |sim| {
                log.borrow_mut().push((sim.now().as_nanos(), label));
                if let Some((after, next)) = then {
                    sim.schedule(SimDuration::from_nanos(after), move |sim| {
                        log.borrow_mut().push((sim.now().as_nanos(), next));
                    });
                }
            });
        }
        sim.run();
        let closures = log.borrow().clone();

        let mut sim: Sim<Log, Note> = Sim::new(Log::new());
        for &(delay, label, then) in script {
            let note = match then {
                None => Note::Record(label),
                Some((after, then)) => Note::Spawn { label, after, then },
            };
            sim.schedule_event_at(SimTime::from_nanos(delay), note);
        }
        sim.run();
        assert_eq!(sim.world, closures, "closure and enum events disagree");
        closures
    }

    #[test]
    fn events_fire_in_time_order() {
        let log = run_both(&[(30, 3, None), (10, 1, None), (20, 2, None)]);
        assert_eq!(log, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_fire_fifo() {
        let log = run_both(&[(5, 24, None), (5, 25, None), (5, 26, None)]);
        assert_eq!(log, vec![(5, 24), (5, 25), (5, 26)]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let log = run_both(&[(1, 1, Some((1, 10)))]);
        assert_eq!(log, vec![(1, 1), (2, 10)]);

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
    fn run_until_stops_after_the_event_that_makes_stop_true() {
        let mut sim: Sim<Log, Note> = Sim::new(Log::new());
        for (at, label) in [(10, 1), (20, 2), (20, 3), (30, 4)] {
            sim.schedule_event_at(SimTime::from_nanos(at), Note::Record(label));
        }
        let second = |log: &Log| log.len() == 2;
        assert!(sim.run_until(second));
        assert_eq!(sim.world, vec![(10, 1), (20, 2)]);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        // Scheduled between runs at the stopping instant: it fires after
        // the tie already queued there, and before anything later.
        sim.schedule_event_at(sim.now(), Note::Record(5));
        sim.schedule_event_at(SimTime::from_nanos(25), Note::Record(6));
        assert!(!sim.run_until(|log| log.len() == 100));
        assert_eq!(
            sim.world,
            vec![(10, 1), (20, 2), (20, 3), (20, 5), (25, 6), (30, 4)]
        );
        assert_eq!(sim.events_run(), 6);
        // A drained queue stops at once.
        assert!(!sim.run_until(|_| true));
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
        // A diamond of events with equal times exercises tie-breaking, and
        // the follow-ups land among them and reuse freed slots.
        let script: Vec<_> = (0..16u32)
            .map(|i| (u64::from(i % 4), i, (i < 4).then_some((2, 100 + i))))
            .collect();
        let first = run_both(&script);
        assert_eq!(first.len(), 20);
        assert_eq!(first, run_both(&script));
    }

    #[test]
    fn a_deep_queue_pops_in_time_then_schedule_order() {
        // Deep enough for four heap levels, with many ties; labels count up
        // in schedule order, so the log must come out sorted.
        let mut x = 0x9e37_79b9_u64;
        let script: Vec<Line> = (0..2_000u32)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 58, i, None)
            })
            .collect();
        let log = run_both(&script);
        let mut sorted = log.clone();
        sorted.sort_unstable();
        assert_eq!(log, sorted);
    }

    #[test]
    fn a_queue_entry_fits_in_32_bytes() {
        assert!(std::mem::size_of::<Key>() <= 32);
        // The closure event is a fat pointer, and its slab slot needs no
        // tag beyond the pointer's niche.
        assert_eq!(std::mem::size_of::<Option<Closure<()>>>(), 16);
    }

    #[test]
    fn a_queue_entry_fits_in_16_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 16);
        // An event of six words without a niche takes one more word for
        // its slot's tag: the runtime's 48-byte event waits in 56 bytes.
        assert_eq!(std::mem::size_of::<Option<[u64; 6]>>(), 56);
    }

    #[test]
    fn a_key_packs_its_sequence_above_its_slot() {
        let (seq, slot) = ((1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        let last = Key::new(SimTime::from_nanos(7), seq, slot);
        assert_eq!((last.order >> SLOT_BITS, last.slot()), (seq, slot));
        // The sequence number decides ties whatever the slots.
        let first = Key::new(SimTime::from_nanos(7), 0, slot);
        let next = Key::new(SimTime::from_nanos(7), 1, 0);
        assert!(first < next && next < last);
        assert_eq!(next.slot(), 0);
        assert!(Key::new(SimTime::from_nanos(6), seq, slot) < first);
    }

    #[test]
    #[should_panic(expected = "events pending")]
    fn a_slot_past_24_bits_panics() {
        Key::new(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }

    #[test]
    #[should_panic(expected = "events scheduled")]
    fn a_sequence_number_past_40_bits_panics() {
        Key::new(SimTime::ZERO, 1 << SEQ_BITS, 0);
    }
}
