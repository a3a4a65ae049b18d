//! The rank-side API of the MPI-flavoured baseline.
//!
//! A rank body is an `async` block written in blocking style; every call
//! posts one [`MpiCall`] into the rank's [`Slot`] and suspends until the
//! coordinator, which accounts virtual time on the shared network model,
//! has put its answer there and polls the rank again.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::Poll;

use allscale_des::SimDuration;
use allscale_net::wire::{self, Wire};

/// Requests a rank can issue to the coordinator.
#[derive(Debug)]
pub(crate) enum MpiCall {
    /// Buffered send: returns once the message is handed to the NIC.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Serialized payload.
        bytes: Vec<u8>,
    },
    /// Blocking receive of a matching message.
    Recv {
        /// Source rank (matching is per (source, tag), FIFO).
        from: usize,
        /// Message tag.
        tag: u32,
    },
    /// Advance this rank's clock by a compute duration.
    Compute(SimDuration),
    /// Block until all ranks reach the barrier.
    Barrier,
    /// Read this rank's virtual clock.
    Now,
    /// All-reduce a vector of f64 (element-wise).
    AllReduce {
        /// Local contribution.
        vals: Vec<f64>,
        /// Reduction operator.
        op: ReduceOp,
    },
}

/// Reduction operators for [`RankCtx::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Replies from the coordinator.
pub(crate) enum MpiReply {
    /// Acknowledge a send/compute/barrier.
    Ok,
    /// The rank's current virtual time.
    Time(allscale_des::SimTime),
    /// A received message's payload.
    Msg(Vec<u8>),
    /// The reduced vector.
    Reduced(Vec<f64>),
}

/// The hand-off between one rank and the coordinator: the call the rank is
/// suspended in, and the coordinator's answer to it.
#[derive(Default)]
pub(crate) struct Slot {
    pub(crate) call: RefCell<Option<MpiCall>>,
    pub(crate) reply: RefCell<Option<MpiReply>>,
}

/// The per-rank context handed to SPMD application code.
pub struct RankCtx {
    pub(crate) slot: Rc<Slot>,
    pub(crate) rank: usize,
    pub(crate) size: usize,
}

impl RankCtx {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Post `call` and suspend until the coordinator has answered it.
    async fn call(&self, call: MpiCall) -> MpiReply {
        let outstanding = self.slot.call.replace(Some(call));
        assert!(
            outstanding.is_none(),
            "a rank has one call in flight at a time"
        );
        poll_fn(|_| match self.slot.reply.take() {
            Some(reply) => Poll::Ready(reply),
            None => Poll::Pending,
        })
        .await
    }

    /// Send a serializable value to `to` with `tag`.
    pub async fn send<V: Wire>(&self, to: usize, tag: u32, value: &V) {
        let bytes = wire::encode(value);
        match self.call(MpiCall::Send { to, tag, bytes }).await {
            MpiReply::Ok => {}
            _ => unreachable!("protocol violation: send reply"),
        }
    }

    /// Receive a value from `from` with `tag` (blocking, FIFO per channel).
    pub async fn recv<V: Wire>(&self, from: usize, tag: u32) -> V {
        match self.call(MpiCall::Recv { from, tag }).await {
            MpiReply::Msg(bytes) => wire::decode(&bytes).expect("mpi payload deserialization"),
            _ => unreachable!("protocol violation: recv reply"),
        }
    }

    /// Charge `dur` of local computation to this rank's clock.
    pub async fn compute(&self, dur: SimDuration) {
        match self.call(MpiCall::Compute(dur)).await {
            MpiReply::Ok => {}
            _ => unreachable!("protocol violation: compute reply"),
        }
    }

    /// This rank's current virtual time (e.g. to exclude setup phases
    /// from measured windows).
    pub async fn now(&self) -> allscale_des::SimTime {
        match self.call(MpiCall::Now).await {
            MpiReply::Time(t) => t,
            _ => unreachable!("protocol violation: now reply"),
        }
    }

    /// Synchronize all ranks.
    pub async fn barrier(&self) {
        match self.call(MpiCall::Barrier).await {
            MpiReply::Ok => {}
            _ => unreachable!("protocol violation: barrier reply"),
        }
    }

    /// Element-wise all-reduce over all ranks.
    pub async fn allreduce(&self, vals: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        match self.call(MpiCall::AllReduce { vals, op }).await {
            MpiReply::Reduced(v) => v,
            _ => unreachable!("protocol violation: allreduce reply"),
        }
    }

    /// Scalar sum all-reduce.
    pub async fn allreduce_sum(&self, v: f64) -> f64 {
        self.allreduce(vec![v], ReduceOp::Sum).await[0]
    }

    /// Personalized all-to-all: element `i` of `outbox` goes to rank `i`;
    /// returns the inbox indexed by source rank. Built from point-to-point
    /// messages (ring schedule), like a small MPI_Alltoallv.
    pub async fn alltoall<V: Wire>(&self, tag: u32, outbox: Vec<V>) -> Vec<V> {
        assert_eq!(outbox.len(), self.size, "one outbox entry per rank");
        let me = self.rank;
        let n = self.size;
        let mut inbox: Vec<Option<V>> = (0..n).map(|_| None).collect();
        let mut mine = None;
        for (dst, v) in outbox.into_iter().enumerate() {
            if dst == me {
                mine = Some(v);
            } else {
                self.send(dst, tag, &v).await;
            }
        }
        inbox[me] = mine;
        #[allow(clippy::needless_range_loop)] // rank order is the protocol
        for src in 0..n {
            if src != me {
                inbox[src] = Some(self.recv(src, tag).await);
            }
        }
        inbox
            .into_iter()
            .map(|v| v.expect("all received"))
            .collect()
    }
}
