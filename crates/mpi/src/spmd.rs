//! The SPMD coordinator: polls one rank coroutine per simulated node on the
//! caller's thread and advances virtual time conservatively.
//!
//! A rank runs until it suspends in its next call; the coordinator answers
//! one call per rank per round, ranks in index order, collectives at the
//! rendezvous. That order is part of the contract, not an implementation
//! detail: [`Network::transfer`] books link occupancy in the order it is
//! called, so it fixes every arrival time. Each rank carries its own
//! virtual clock; sends are buffered-eager (they complete locally after the
//! NIC hand-off), receives block until a matching message's arrival time,
//! and collectives synchronize all clocks plus a log-tree cost.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use allscale_des::{SimDuration, SimTime};
use allscale_net::{ClusterSpec, Network, TrafficStats};

use crate::ctx::{MpiCall, MpiReply, RankCtx, ReduceOp, Slot};

/// Summary of an SPMD run.
pub struct MpiReport<T> {
    /// Virtual completion time (max over ranks).
    pub finish_time: SimTime,
    /// Each rank's return value.
    pub results: Vec<T>,
    /// Network traffic stats.
    pub traffic: TrafficStats,
}

/// A message in the destination's mailbox, queued in send order.
struct Pending {
    from: usize,
    tag: u32,
    arrival: SimTime,
    bytes: Vec<u8>,
}

enum RankState<T> {
    /// Suspended in a call not yet satisfiable / not yet handled.
    Waiting(MpiCall),
    /// Finished with its result.
    Done(T),
}

/// One rank's coroutine and the slot it talks to the coordinator through.
struct Rank<'a, T> {
    body: Pin<Box<dyn Future<Output = T> + 'a>>,
    slot: Rc<Slot>,
}

impl<T> Rank<'_, T> {
    /// Run the rank until it suspends in its next call or returns.
    fn poll(&mut self) -> RankState<T> {
        match self
            .body
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()))
        {
            Poll::Ready(result) => RankState::Done(result),
            Poll::Pending => RankState::Waiting(self.slot.call.take().expect(
                "a rank body awaited a future that is not one of its RankCtx calls; \
                 nothing would ever wake it",
            )),
        }
    }

    /// Answer the call the rank is suspended in and run it on.
    fn resume(&mut self, reply: MpiReply) -> RankState<T> {
        self.slot.reply.replace(Some(reply));
        self.poll()
    }
}

/// Run `body` as an SPMD program over the cluster; one rank per node.
///
/// `body` is called once per rank and may borrow read-only inputs; ranks
/// communicate only through the [`RankCtx`] API and suspend only in its
/// calls. A panic in a rank body unwinds through here as itself.
pub fn run_spmd<T, F>(spec: &ClusterSpec, body: F) -> MpiReport<T>
where
    F: AsyncFn(RankCtx) -> T,
{
    let n = spec.nodes;
    let mut net = Network::new(spec.build_topology(), spec.net.clone());
    let overhead = spec.net.sw_overhead();

    let mut ranks: Vec<Rank<'_, T>> = (0..n)
        .map(|rank| {
            let slot = Rc::new(Slot::default());
            let ctx = RankCtx {
                slot: slot.clone(),
                rank,
                size: n,
            };
            Rank {
                body: Box::pin(body(ctx)),
                slot,
            }
        })
        .collect();

    let mut clock = vec![SimTime::ZERO; n];
    let mut mailbox: Vec<VecDeque<Pending>> = (0..n).map(|_| VecDeque::new()).collect();

    // Run every rank to its first call.
    let mut states: Vec<RankState<T>> = ranks.iter_mut().map(Rank::poll).collect();

    // Conservative round-robin scheduling until all ranks finish.
    loop {
        let live: Vec<usize> = (0..n)
            .filter(|&r| matches!(states[r], RankState::Waiting(_)))
            .collect();
        if live.is_empty() {
            break;
        }

        // Collective rendezvous: once every live rank waits in a barrier,
        // or every live rank in an all-reduce, execute it.
        let all_barrier = live
            .iter()
            .all(|&r| matches!(states[r], RankState::Waiting(MpiCall::Barrier)));
        let all_reduce = live
            .iter()
            .all(|&r| matches!(states[r], RankState::Waiting(MpiCall::AllReduce { .. })));
        if all_barrier || all_reduce {
            // Cost: a reduce+broadcast tree of small messages.
            let depth = (n.max(2) as f64).log2().ceil() as u64;
            let hop =
                SimDuration::from_nanos(spec.net.base_latency_ns + 2 * spec.net.per_hop_latency_ns);
            let t_sync = live
                .iter()
                .map(|&r| clock[r])
                .max()
                .unwrap_or(SimTime::ZERO)
                + hop.saturating_mul(2 * depth);
            // Gather the operation.
            let mut reduced: Option<(Vec<f64>, ReduceOp)> = None;
            for &r in &live {
                if let RankState::Waiting(MpiCall::AllReduce { vals, op }) = &mut states[r] {
                    match &mut reduced {
                        None => reduced = Some((std::mem::take(vals), *op)),
                        Some((acc, op0)) => {
                            assert_eq!(op0, op, "mismatched allreduce ops");
                            assert_eq!(acc.len(), vals.len(), "mismatched lengths");
                            for (a, v) in acc.iter_mut().zip(vals.iter()) {
                                *a = match op {
                                    ReduceOp::Sum => *a + *v,
                                    ReduceOp::Max => a.max(*v),
                                    ReduceOp::Min => a.min(*v),
                                };
                            }
                        }
                    }
                }
            }
            for &r in &live {
                clock[r] = t_sync;
                let reply = match &reduced {
                    None => MpiReply::Ok,
                    Some((acc, _)) => MpiReply::Reduced(acc.clone()),
                };
                states[r] = ranks[r].resume(reply);
            }
            continue;
        }

        let mut progressed = false;
        for r in 0..n {
            let RankState::Waiting(call) = &mut states[r] else {
                continue;
            };
            let reply = match call {
                MpiCall::Compute(d) => {
                    clock[r] += *d;
                    MpiReply::Ok
                }
                MpiCall::Now => MpiReply::Time(clock[r]),
                MpiCall::Send { to, tag, bytes } => {
                    clock[r] += overhead;
                    let arrival = net.transfer(clock[r], r, *to, bytes.len());
                    mailbox[*to].push_back(Pending {
                        from: r,
                        tag: *tag,
                        arrival,
                        bytes: std::mem::take(bytes),
                    });
                    MpiReply::Ok
                }
                MpiCall::Recv { from, tag } => {
                    // FIFO per (source, tag) channel: the mailbox is in
                    // send order, so the first match is the oldest.
                    let oldest = mailbox[r]
                        .iter()
                        .position(|m| m.from == *from && m.tag == *tag);
                    let Some(msg) = oldest.and_then(|i| mailbox[r].remove(i)) else {
                        continue;
                    };
                    clock[r] = clock[r].max(msg.arrival) + overhead;
                    MpiReply::Msg(msg.bytes)
                }
                // Answered at the rendezvous above.
                MpiCall::Barrier | MpiCall::AllReduce { .. } => continue,
            };
            progressed = true;
            states[r] = ranks[r].resume(reply);
        }

        if !progressed {
            // Every live rank waits in a receive nobody will match or in a
            // collective the others never reach (or reach as another kind).
            let stuck: Vec<String> = (states.iter().enumerate())
                .filter_map(|(r, state)| match state {
                    RankState::Waiting(call) => Some(format!("rank {r} in {call:?}")),
                    RankState::Done(_) => None,
                })
                .collect();
            panic!("SPMD deadlock: no rank can proceed: {}", stuck.join(", "));
        }
    }

    let finish_time = clock.iter().copied().max().unwrap_or(SimTime::ZERO);
    let results = states
        .into_iter()
        .map(|s| match s {
            RankState::Done(t) => t,
            RankState::Waiting(_) => unreachable!("all ranks finished"),
        })
        .collect();
    MpiReport {
        finish_time,
        results,
        traffic: net.stats().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize) -> ClusterSpec {
        ClusterSpec::test(n, 4)
    }

    #[test]
    fn ring_pass_around() {
        let report = run_spmd(&spec(4), async |ctx| {
            let me = ctx.rank();
            let n = ctx.size();
            if me == 0 {
                ctx.send(1, 0, &1u64).await;
                ctx.recv::<u64>(n - 1, 0).await
            } else {
                let v: u64 = ctx.recv(me - 1, 0).await;
                ctx.send((me + 1) % n, 0, &(v + 1)).await;
                v
            }
        });
        // Rank 0 receives the token after it passed all ranks.
        assert_eq!(report.results[0], 4);
        assert_eq!(report.traffic.remote_msgs(), 4);
        assert!(report.finish_time.as_nanos() > 4 * 900);
    }

    #[test]
    fn compute_advances_clocks() {
        let report = run_spmd(&spec(2), async |ctx| {
            ctx.compute(SimDuration::from_micros(ctx.rank() as u64 * 100 + 10))
                .await;
            ctx.barrier().await;
        });
        // Finish dominated by the slower rank + barrier cost.
        assert!(report.finish_time.as_nanos() >= 110_000);
    }

    #[test]
    fn allreduce_sums() {
        let report = run_spmd(&spec(8), async |ctx| {
            ctx.allreduce_sum((ctx.rank() + 1) as f64).await
        });
        for r in report.results {
            assert_eq!(r, 36.0);
        }
    }

    #[test]
    fn allreduce_max_and_vectors() {
        let report = run_spmd(&spec(4), async |ctx| {
            ctx.allreduce(vec![ctx.rank() as f64, -(ctx.rank() as f64)], ReduceOp::Max)
                .await
        });
        for r in report.results {
            assert_eq!(r, vec![3.0, 0.0]);
        }
    }

    #[test]
    fn sendrecv_halo_idiom() {
        let report = run_spmd(&spec(4), async |ctx| {
            let me = ctx.rank();
            let n = ctx.size();
            let left = (me + n - 1) % n;
            let right = (me + 1) % n;
            ctx.send(left, 1, &(me as f64)).await;
            ctx.send(right, 2, &(me as f64)).await;
            let from_right: f64 = ctx.recv(right, 1).await;
            let from_left: f64 = ctx.recv(left, 2).await;
            (from_left, from_right)
        });
        for (me, &(l, r)) in report.results.iter().enumerate() {
            let n = 4;
            assert_eq!(l as usize, (me + n - 1) % n);
            assert_eq!(r as usize, (me + 1) % n);
        }
    }

    #[test]
    fn alltoall_exchanges_everything() {
        let report = run_spmd(&spec(3), async |ctx| {
            let me = ctx.rank() as u64;
            let out: Vec<u64> = (0..3).map(|dst| me * 10 + dst).collect();
            ctx.alltoall(7, out).await
        });
        for (me, inbox) in report.results.iter().enumerate() {
            for (src, &v) in inbox.iter().enumerate() {
                assert_eq!(v, src as u64 * 10 + me as u64);
            }
        }
    }

    /// The baseline's virtual clock, pinned across commits: every literal
    /// was captured on the thread-per-rank implementation.
    #[test]
    fn determinism() {
        let report = run_spmd(&spec(6), async |ctx| {
            let (me, n) = (ctx.rank(), ctx.size());
            let x = ctx.allreduce_sum(1.0).await;
            ctx.compute(SimDuration::from_micros(5 + me as u64)).await;
            let partner = n - 1 - me;
            ctx.send(partner, 3, &vec![me as f64; 100 * (me + 1)]).await;
            let y: Vec<f64> = ctx.recv(partner, 3).await;
            let outbox = (0..n).map(|dst| (me * n + dst) as u64).collect();
            let inbox = ctx.alltoall(4, outbox).await;
            x + y[0] + inbox.iter().sum::<u64>() as f64
        });
        assert_eq!(report.results, [101.0, 106.0, 111.0, 116.0, 121.0, 126.0]);
        assert_eq!(
            (
                report.finish_time.as_nanos(),
                report.traffic.remote_msgs(),
                report.traffic.remote_bytes(),
            ),
            (22_572, 36, 17_088)
        );
    }

    #[test]
    fn fifo_per_channel_ordering() {
        let report = run_spmd(&spec(2), async |ctx| {
            let mut got = Vec::new();
            if ctx.rank() == 0 {
                for i in 0..5u64 {
                    ctx.send(1, 0, &i).await;
                }
            } else {
                for _ in 0..5 {
                    got.push(ctx.recv::<u64>(0, 0).await);
                }
            }
            got
        });
        assert_eq!(report.results[1], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "rank 0 in Barrier, rank 1 in AllReduce")]
    fn mismatched_collectives_panic_instead_of_spinning() {
        run_spmd(&spec(2), async |ctx| {
            if ctx.rank() == 0 {
                ctx.barrier().await;
            } else {
                ctx.allreduce_sum(1.0).await;
            }
        });
    }

    #[test]
    #[should_panic(
        expected = "rank 0 in Recv { from: 1, tag: 7 }, rank 1 in Recv { from: 0, tag: 8 }"
    )]
    fn unmatched_receives_panic_with_what_each_rank_waits_for() {
        run_spmd(&spec(2), async |ctx| {
            let other = 1 - ctx.rank();
            ctx.recv::<u64>(other, 7 + ctx.rank() as u32).await
        });
    }

    #[test]
    #[should_panic(expected = "migrant 7 landed outside its neighbour block")]
    fn a_rank_panic_keeps_its_message() {
        run_spmd(&spec(2), async |ctx| {
            ctx.barrier().await;
            assert!(
                ctx.rank() == 0,
                "migrant 7 landed outside its neighbour block"
            );
        });
    }

    #[test]
    #[should_panic(expected = "not one of its RankCtx calls")]
    fn awaiting_a_foreign_future_is_reported_as_such() {
        run_spmd(&spec(1), async |_ctx| std::future::pending::<()>().await);
    }
}
