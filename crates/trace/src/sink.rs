//! The recording side: bounded per-locality ring buffers behind a
//! cloneable handle that costs one branch when tracing is disabled.
//!
//! The runtime, the network layer and the data-item manager all hold
//! clones of one [`TraceSink`]. A disabled sink is a `None` — recording
//! through it is a single well-predicted branch and the event-constructing
//! closure is never evaluated, which is what makes tracing free to leave
//! compiled in. An enabled sink shares one [`TraceBuffer`] through an
//! `Rc<RefCell<_>>`: everything that records runs on the one thread of
//! the simulation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use allscale_des::{Stat, Visit};

use crate::event::TraceEvent;

/// Tracing configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Capacity of each per-locality ring buffer, in events. When a ring
    /// is full the oldest event is dropped (and counted): a bounded trace
    /// of the *end* of a run beats an unbounded allocation.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 18, // 256 Ki events/locality ≈ 14 MiB/node
        }
    }
}

/// One locality's bounded event ring.
#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// The shared recording state of an enabled sink.
#[derive(Debug)]
pub struct TraceBuffer {
    rings: Vec<Ring>,
    next_id: u64,
}

impl TraceBuffer {
    fn new(nodes: usize, cfg: &TraceConfig) -> Self {
        TraceBuffer {
            rings: (0..nodes.max(1)).map(|_| Ring::new(cfg.ring_capacity)).collect(),
            next_id: 0,
        }
    }

    fn push(&mut self, mut ev: TraceEvent) {
        ev.id = self.next_id;
        self.next_id += 1;
        let ring = (ev.loc as usize).min(self.rings.len() - 1);
        self.rings[ring].push(ev);
    }
}

/// A cloneable recording handle; disabled by default.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Rc<RefCell<TraceBuffer>>>,
}

impl TraceSink {
    /// A disabled sink: recording through it is a single branch.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// An enabled sink with one ring buffer per locality.
    pub fn enabled(nodes: usize, cfg: &TraceConfig) -> Self {
        TraceSink {
            inner: Some(Rc::new(RefCell::new(TraceBuffer::new(nodes, cfg)))),
        }
    }

    /// Record one event. The closure building the event runs only when the
    /// sink is enabled — the disabled path is the branch on the `Option`
    /// and nothing else.
    #[inline]
    pub fn record(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.inner {
            let event = build();
            buf.borrow_mut().push(event);
        }
    }

    /// Drain all recorded events into a finished [`Trace`], leaving the
    /// sink empty (but still enabled). Returns `None` on a disabled sink.
    pub fn take(&self) -> Option<Trace> {
        let buf = self.inner.as_ref()?;
        let mut b = buf.borrow_mut();
        let nodes = b.rings.len();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut dropped = Vec::with_capacity(nodes);
        for ring in &mut b.rings {
            events.extend(ring.events.drain(..));
            dropped.push(ring.dropped);
            ring.dropped = 0;
        }
        events.sort_by_key(|e| (e.ts_ns, e.id));
        Some(Trace {
            nodes,
            events,
            dropped,
        })
    }
}

/// A finished, time-sorted event stream of one run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Number of localities the trace was recorded over.
    pub nodes: usize,
    /// All events, sorted by `(ts_ns, id)`.
    pub events: Vec<TraceEvent>,
    /// Per-locality count of events lost to ring overflow.
    pub dropped: Vec<u64>,
}

impl Trace {
    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events lost to ring overflow across all localities.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }
}

/// A trace is not a statistic: it is exported on its own
/// ([`Trace::to_chrome_json`]) and walks as nothing, so a traced and an
/// untraced run render the same report.
impl Stat for Trace {
    fn walk(&self, _: &str, _: &mut dyn Visit) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64, loc: u32) -> TraceEvent {
        TraceEvent::instant(ts, loc, EventKind::PhaseBegin { phase: 0 })
    }

    #[test]
    fn disabled_sink_records_nothing_and_never_builds() {
        let sink = TraceSink::disabled();
        let mut built = false;
        sink.record(|| {
            built = true;
            ev(1, 0)
        });
        assert!(!built, "closure must not run on the disabled path");
        assert!(sink.take().is_none());
    }

    #[test]
    fn events_are_sorted_and_ids_monotonic() {
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        sink.record(|| ev(30, 1));
        sink.record(|| ev(10, 0));
        sink.record(|| ev(20, 1));
        let trace = sink.take().unwrap();
        let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(trace.events[0].id, 1, "ids assigned in record order");
        assert_eq!(trace.total_dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let cfg = TraceConfig { ring_capacity: 4 };
        let sink = TraceSink::enabled(1, &cfg);
        for t in 0..10 {
            sink.record(|| ev(t, 0));
        }
        let trace = sink.take().unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.total_dropped(), 6);
        // The survivors are the newest events.
        assert_eq!(trace.events.first().unwrap().ts_ns, 6);
    }

    #[test]
    fn take_drains_but_keeps_recording() {
        let sink = TraceSink::enabled(1, &TraceConfig::default());
        sink.record(|| ev(1, 0));
        assert_eq!(sink.take().unwrap().len(), 1);
        sink.record(|| ev(2, 0));
        let again = sink.take().unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.events[0].ts_ns, 2);
    }

    #[test]
    fn out_of_range_locality_is_clamped() {
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        sink.record(|| ev(5, 7));
        assert_eq!(sink.take().unwrap().len(), 1);
    }
}
