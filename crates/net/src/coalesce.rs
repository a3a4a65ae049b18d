//! Message coalescing: per-(src, dst) aggregation of small transfers.
//!
//! The paper blames TPC's poor scaling on "high inter-node communication
//! overhead for transferring tasks" (Section 4.2) — every control message,
//! halo fragment and index update pays `base_latency + sw_overhead`
//! individually. HPX answers this with its parcel-coalescing plugin; this
//! module is the simulated analogue. A [`Coalescer`] buffers outgoing
//! messages per destination pair and releases them as one *batch* when
//!
//! - the **flush window** expires (`max_delay_ns` after the batch opened),
//! - the buffered **bytes** reach `max_bytes`, or
//! - the buffered **message count** reaches `max_msgs`,
//!
//! whichever happens first ([`FlushCause`] names the winner). The whole
//! batch is then priced as a *single* wire message over the summed payload:
//! latency and software overhead are paid once, while NIC occupancy still
//! covers every byte — exactly the trade a real coalescing layer makes.
//!
//! The coalescer is a passive buffer: it never touches the clock. The
//! caller owns event scheduling — on [`Enqueue::Opened`] it arms a timer
//! for the returned deadline, on [`Enqueue::Full`] it flushes immediately,
//! and a fired timer uses [`Coalescer::take_if_gen`] so a batch that
//! already cap-flushed (and whose slot was reused) is not flushed twice.

use std::collections::BTreeMap;

use allscale_des::SimTime;
pub use allscale_trace::FlushCause;

/// Knobs for the message-aggregation layer. `None` in
/// [`NetParams::batching`](crate::NetParams::batching) disables batching
/// entirely (the ablation baseline); these values tune it when on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchParams {
    /// Flush window: a batch is held at most this long after it opens, ns.
    pub max_delay_ns: u64,
    /// Byte cap: a batch flushes as soon as it holds this many bytes.
    pub max_bytes: usize,
    /// Count cap: a batch flushes as soon as it holds this many messages.
    pub max_msgs: usize,
}

impl Default for BatchParams {
    fn default() -> Self {
        // A 2 µs window is ~2× the wire latency: long enough to catch an
        // event cascade's worth of same-destination sends, short enough to
        // stay invisible next to a leaf task's compute time.
        BatchParams {
            max_delay_ns: 2_000,
            max_bytes: 64 * 1024,
            max_msgs: 64,
        }
    }
}

/// One buffered message: when it was enqueued, its size, and the caller's
/// payload (typically a delivery continuation).
pub struct Entry<P> {
    /// Simulated time the message entered the coalescer.
    pub at: SimTime,
    /// Message size in bytes.
    pub bytes: usize,
    /// Caller data riding with the message.
    pub payload: P,
}

/// A flushed batch, ready to be priced as one wire message.
pub struct Batch<P> {
    /// Sending locality.
    pub src: usize,
    /// Receiving locality.
    pub dst: usize,
    /// When the first member was enqueued.
    pub opened_at: SimTime,
    /// Total payload bytes across all members.
    pub bytes: usize,
    /// Why the batch flushed.
    pub cause: FlushCause,
    /// The buffered messages, in enqueue order.
    pub entries: Vec<Entry<P>>,
}

/// Outcome of [`Coalescer::enqueue`], telling the caller what to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// A new batch opened: arm a flush timer for `deadline` and remember
    /// `gen` to pass to [`Coalescer::take_if_gen`] when it fires.
    Opened {
        /// When the flush window expires.
        deadline: SimTime,
        /// Generation token identifying this batch instance.
        gen: u64,
    },
    /// The message joined an already-open batch; its timer is armed.
    Joined,
    /// A cap was hit: the caller must [`Coalescer::take`] and flush now.
    Full,
}

struct Open<P> {
    opened_at: SimTime,
    gen: u64,
    bytes: usize,
    entries: Vec<Entry<P>>,
}

/// Per-(src, dst) buffers of outgoing messages awaiting a flush.
///
/// Deterministic by construction: slots live in a `BTreeMap`, entries keep
/// enqueue order, and generation tokens are handed out from a counter.
pub struct Coalescer<P> {
    params: BatchParams,
    open: BTreeMap<(usize, usize), Open<P>>,
    next_gen: u64,
}

impl<P> Coalescer<P> {
    /// A coalescer with the given knobs and no open batches.
    pub fn new(params: BatchParams) -> Self {
        Coalescer {
            params,
            open: BTreeMap::new(),
            next_gen: 0,
        }
    }

    /// The knobs in force.
    pub fn params(&self) -> &BatchParams {
        &self.params
    }

    /// Buffer a `bytes`-sized message from `src` to `dst` at `now`.
    ///
    /// Returns [`Enqueue::Full`] when the message filled the batch to a
    /// cap — including the degenerate case where a single message meets a
    /// cap on its own (the caller flushes immediately; no timer exists).
    pub fn enqueue(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: usize,
        payload: P,
    ) -> Enqueue {
        let slot = self.open.entry((src, dst));
        let entry = Entry {
            at: now,
            bytes,
            payload,
        };
        match slot {
            std::collections::btree_map::Entry::Vacant(v) => {
                let gen = self.next_gen;
                self.next_gen += 1;
                v.insert(Open {
                    opened_at: now,
                    gen,
                    bytes,
                    entries: vec![entry],
                });
                if bytes >= self.params.max_bytes || self.params.max_msgs <= 1 {
                    Enqueue::Full
                } else {
                    Enqueue::Opened {
                        deadline: now
                            + allscale_des::SimDuration::from_nanos(self.params.max_delay_ns),
                        gen,
                    }
                }
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let open = o.get_mut();
                open.bytes += bytes;
                open.entries.push(entry);
                if open.bytes >= self.params.max_bytes || open.entries.len() >= self.params.max_msgs
                {
                    Enqueue::Full
                } else {
                    Enqueue::Joined
                }
            }
        }
    }

    /// Remove and return the open batch for `(src, dst)`, attributing the
    /// flush to whichever cap it hit (bytes wins ties). Used after
    /// [`Enqueue::Full`].
    pub fn take(&mut self, src: usize, dst: usize) -> Option<Batch<P>> {
        let open = self.open.remove(&(src, dst))?;
        let cause = if open.bytes >= self.params.max_bytes {
            FlushCause::Bytes
        } else {
            FlushCause::Msgs
        };
        Some(self.finish(src, dst, open, cause))
    }

    /// Remove and return the batch for `(src, dst)` only if its generation
    /// token still matches — the window-timer path. A stale token means
    /// the batch already cap-flushed (and the slot may hold a younger
    /// batch), so the fired timer is a no-op.
    pub fn take_if_gen(&mut self, src: usize, dst: usize, gen: u64) -> Option<Batch<P>> {
        match self.open.get(&(src, dst)) {
            Some(open) if open.gen == gen => {}
            _ => return None,
        }
        let open = self.open.remove(&(src, dst)).unwrap();
        Some(self.finish(src, dst, open, FlushCause::Window))
    }

    fn finish(&self, src: usize, dst: usize, open: Open<P>, cause: FlushCause) -> Batch<P> {
        Batch {
            src,
            dst,
            opened_at: open.opened_at,
            bytes: open.bytes,
            cause,
            entries: open.entries,
        }
    }

    /// Number of messages currently buffered toward `(src, dst)`.
    pub fn pending(&self, src: usize, dst: usize) -> usize {
        self.open.get(&(src, dst)).map_or(0, |o| o.entries.len())
    }

    /// True when no batch is open anywhere.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Drop every open batch (payloads and all). Recovery calls this: the
    /// epoch bump already disarmed the flush timers, and the buffered
    /// messages belong to the abandoned run.
    pub fn clear(&mut self) {
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn c(params: BatchParams) -> Coalescer<&'static str> {
        Coalescer::new(params)
    }

    #[test]
    fn open_join_then_window_flush() {
        let mut co = c(BatchParams::default());
        let gen = match co.enqueue(t(100), 0, 1, 10, "a") {
            Enqueue::Opened { deadline, gen } => {
                assert_eq!(deadline, t(2_100));
                gen
            }
            other => panic!("expected Opened, got {other:?}"),
        };
        assert_eq!(co.enqueue(t(200), 0, 1, 20, "b"), Enqueue::Joined);
        assert_eq!(co.pending(0, 1), 2);
        let batch = co.take_if_gen(0, 1, gen).expect("gen still live");
        assert_eq!(batch.cause, FlushCause::Window);
        assert_eq!(batch.bytes, 30);
        assert_eq!(batch.opened_at, t(100));
        let payloads: Vec<_> = batch.entries.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, ["a", "b"], "enqueue order preserved");
        assert!(co.is_empty());
    }

    #[test]
    fn msg_cap_flushes_full() {
        let mut co = c(BatchParams {
            max_msgs: 3,
            ..BatchParams::default()
        });
        assert!(matches!(
            co.enqueue(t(0), 0, 1, 1, "a"),
            Enqueue::Opened { .. }
        ));
        assert_eq!(co.enqueue(t(1), 0, 1, 1, "b"), Enqueue::Joined);
        assert_eq!(co.enqueue(t(2), 0, 1, 1, "c"), Enqueue::Full);
        let batch = co.take(0, 1).unwrap();
        assert_eq!(batch.cause, FlushCause::Msgs);
        assert_eq!(batch.entries.len(), 3);
    }

    #[test]
    fn byte_cap_flushes_full_and_wins_ties() {
        let mut co = c(BatchParams {
            max_bytes: 100,
            max_msgs: 2,
            ..BatchParams::default()
        });
        assert!(matches!(
            co.enqueue(t(0), 0, 1, 40, "a"),
            Enqueue::Opened { .. }
        ));
        // Second message hits BOTH caps; bytes is reported.
        assert_eq!(co.enqueue(t(1), 0, 1, 60, "b"), Enqueue::Full);
        assert_eq!(co.take(0, 1).unwrap().cause, FlushCause::Bytes);
    }

    #[test]
    fn single_oversized_message_is_full_at_once() {
        let mut co = c(BatchParams {
            max_bytes: 100,
            ..BatchParams::default()
        });
        assert_eq!(co.enqueue(t(0), 2, 3, 1_000, "big"), Enqueue::Full);
        let batch = co.take(2, 3).unwrap();
        assert_eq!(batch.entries.len(), 1);
        assert_eq!(batch.cause, FlushCause::Bytes);
    }

    #[test]
    fn stale_generation_timer_is_a_no_op() {
        let mut co = c(BatchParams {
            max_msgs: 2,
            ..BatchParams::default()
        });
        let gen = match co.enqueue(t(0), 0, 1, 1, "a") {
            Enqueue::Opened { gen, .. } => gen,
            other => panic!("{other:?}"),
        };
        assert_eq!(co.enqueue(t(1), 0, 1, 1, "b"), Enqueue::Full);
        co.take(0, 1).unwrap();
        // A younger batch reuses the slot before the old timer fires.
        let gen2 = match co.enqueue(t(5), 0, 1, 1, "c") {
            Enqueue::Opened { gen, .. } => gen,
            other => panic!("{other:?}"),
        };
        assert_ne!(gen, gen2);
        assert!(
            co.take_if_gen(0, 1, gen).is_none(),
            "stale timer must not steal the young batch"
        );
        assert_eq!(co.pending(0, 1), 1);
        assert_eq!(co.take_if_gen(0, 1, gen2).unwrap().entries.len(), 1);
    }

    #[test]
    fn pairs_are_independent() {
        let mut co = c(BatchParams::default());
        co.enqueue(t(0), 0, 1, 10, "x");
        co.enqueue(t(0), 0, 2, 10, "y");
        co.enqueue(t(0), 1, 0, 10, "z");
        assert_eq!(co.pending(0, 1), 1);
        assert_eq!(co.pending(0, 2), 1);
        assert_eq!(co.pending(1, 0), 1);
        assert_eq!(co.pending(2, 0), 0);
    }

    #[test]
    fn clear_drops_everything() {
        let mut co = c(BatchParams::default());
        let gen = match co.enqueue(t(0), 0, 1, 10, "x") {
            Enqueue::Opened { gen, .. } => gen,
            other => panic!("{other:?}"),
        };
        co.clear();
        assert!(co.is_empty());
        assert!(co.take_if_gen(0, 1, gen).is_none());
    }
}
