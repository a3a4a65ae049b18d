//! The SPMD coordinator: runs one blocking rank thread per simulated node
//! and advances virtual time conservatively.
//!
//! Exactly one thread (coordinator or a single rank) runs at any instant,
//! so executions are deterministic. Each rank carries its own virtual
//! clock; sends are buffered-eager (they complete locally after the NIC
//! hand-off), receives block until a matching message's arrival time, and
//! collectives synchronize all clocks plus a log-tree cost.

use std::collections::VecDeque;

use allscale_des::{SimDuration, SimTime, Suspended, ThreadActor};
use allscale_net::{ClusterSpec, Network, TrafficStats};

use crate::ctx::{MpiCall, MpiReply, RankCtx, ReduceOp};

/// Summary of an SPMD run.
pub struct MpiReport<T> {
    /// Virtual completion time (max over ranks).
    pub finish_time: SimTime,
    /// Each rank's return value.
    pub results: Vec<T>,
    /// Network traffic stats.
    pub traffic: TrafficStats,
    /// Total point-to-point messages.
    pub p2p_msgs: u64,
    /// Total collective operations.
    pub collectives: u64,
}

struct Pending {
    from: usize,
    tag: u32,
    arrival: SimTime,
    seq: u64,
    bytes: Vec<u8>,
}

enum RankState<T> {
    /// Suspended on a request not yet satisfiable / not yet handled.
    Waiting(MpiCall),
    /// Finished with its result.
    Done(T),
}

/// Run `body` as an SPMD program over the cluster; one rank per node.
///
/// `body` is cloned per rank; ranks communicate only through the
/// [`RankCtx`] API, never through shared memory — the closure must not
/// capture shared mutable state (enforced by `Send + Sync`).
pub fn run_spmd<T, F>(spec: &ClusterSpec, body: F) -> MpiReport<T>
where
    T: Send + 'static,
    F: Fn(&mut RankCtx<'_, T>) -> T + Clone + Send + 'static,
{
    let n = spec.nodes;
    let mut net = Network::new(spec.build_topology(), spec.net.clone());
    let overhead = SimDuration::from_nanos(spec.net.sw_overhead_ns);

    // Spawn rank threads (they idle until first resume).
    let mut actors: Vec<ThreadActor<MpiCall, MpiReply, T>> = (0..n)
        .map(|rank| {
            let body = body.clone();
            ThreadActor::spawn(format!("rank{rank}"), move |tc| {
                let mut ctx = RankCtx {
                    inner: tc,
                    rank,
                    size: n,
                };
                body(&mut ctx)
            })
        })
        .collect();

    let mut clock = vec![SimTime::ZERO; n];
    let mut mailbox: Vec<VecDeque<Pending>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut states: Vec<Option<RankState<T>>> = Vec::with_capacity(n);
    let mut seq = 0u64;
    let mut p2p_msgs = 0u64;
    let mut collectives = 0u64;

    // Kick off all ranks with the start token.
    for actor in &mut actors {
        match actor.resume(MpiReply::Ok) {
            Suspended::Request(q) => states.push(Some(RankState::Waiting(q))),
            Suspended::Finished(t) => states.push(Some(RankState::Done(t))),
        }
    }

    // Conservative round-robin scheduling until all ranks finish.
    loop {
        let mut progressed = false;
        let mut all_done = true;

        // Collective rendezvous: if every live rank waits on Barrier or
        // AllReduce (mixing kinds is a program error), execute it.
        let live: Vec<usize> = (0..n)
            .filter(|&r| matches!(states[r], Some(RankState::Waiting(_))))
            .collect();
        let all_barrier = !live.is_empty()
            && live.len()
                == (0..n)
                    .filter(|&r| !matches!(states[r], Some(RankState::Done(_))))
                    .count()
            && live
                .iter()
                .all(|&r| matches!(states[r], Some(RankState::Waiting(MpiCall::Barrier))));
        let all_reduce = !live.is_empty()
            && live.len()
                == (0..n)
                    .filter(|&r| !matches!(states[r], Some(RankState::Done(_))))
                    .count()
            && live.iter().all(|&r| {
                matches!(states[r], Some(RankState::Waiting(MpiCall::AllReduce { .. })))
            });

        if all_barrier || all_reduce {
            collectives += 1;
            // Cost: a reduce+broadcast tree of small messages.
            let depth = (n.max(2) as f64).log2().ceil() as u64;
            let hop = SimDuration::from_nanos(
                spec.net.base_latency_ns + 2 * spec.net.per_hop_latency_ns,
            );
            let t_sync = live
                .iter()
                .map(|&r| clock[r])
                .max()
                .unwrap_or(SimTime::ZERO)
                + hop.saturating_mul(2 * depth);
            // Gather the operation.
            let mut reduced: Option<(Vec<f64>, ReduceOp)> = None;
            for &r in &live {
                let st = states[r].take().unwrap();
                if let RankState::Waiting(MpiCall::AllReduce { vals, op }) = st {
                    reduced = Some(match reduced.take() {
                        None => (vals, op),
                        Some((mut acc, op0)) => {
                            assert_eq!(op0, op, "mismatched allreduce ops");
                            assert_eq!(acc.len(), vals.len(), "mismatched lengths");
                            for (a, v) in acc.iter_mut().zip(&vals) {
                                *a = match op {
                                    ReduceOp::Sum => *a + *v,
                                    ReduceOp::Max => a.max(*v),
                                    ReduceOp::Min => a.min(*v),
                                };
                            }
                            (acc, op0)
                        }
                    });
                } else {
                    states[r] = Some(st);
                }
            }
            for &r in &live {
                clock[r] = t_sync;
                let reply = if all_barrier {
                    MpiReply::Ok
                } else {
                    MpiReply::Reduced(reduced.as_ref().unwrap().0.clone())
                };
                match actors[r].resume(reply) {
                    Suspended::Request(q) => states[r] = Some(RankState::Waiting(q)),
                    Suspended::Finished(t) => states[r] = Some(RankState::Done(t)),
                }
            }
            continue;
        }

        for r in 0..n {
            let st = states[r].take().expect("state present");
            match st {
                RankState::Done(t) => {
                    states[r] = Some(RankState::Done(t));
                }
                RankState::Waiting(call) => {
                    all_done = false;
                    let reply = match call {
                        MpiCall::Compute(d) => {
                            clock[r] += d;
                            Some(MpiReply::Ok)
                        }
                        MpiCall::Now => Some(MpiReply::Time(clock[r])),
                        MpiCall::Send { to, tag, bytes } => {
                            clock[r] += overhead;
                            let arrival = net.transfer(clock[r], r, to, bytes.len());
                            seq += 1;
                            p2p_msgs += 1;
                            mailbox[to].push_back(Pending {
                                from: r,
                                tag,
                                arrival,
                                seq,
                                bytes,
                            });
                            Some(MpiReply::Ok)
                        }
                        MpiCall::Recv { from, tag } => {
                            // FIFO per (source, tag) channel.
                            let pos = mailbox[r]
                                .iter()
                                .enumerate()
                                .filter(|(_, m)| m.from == from && m.tag == tag)
                                .min_by_key(|(_, m)| m.seq)
                                .map(|(i, _)| i);
                            match pos {
                                Some(i) => {
                                    let msg = mailbox[r].remove(i).unwrap();
                                    clock[r] = clock[r].max(msg.arrival) + overhead;
                                    Some(MpiReply::Msg(msg.bytes))
                                }
                                None => {
                                    states[r] =
                                        Some(RankState::Waiting(MpiCall::Recv { from, tag }));
                                    None
                                }
                            }
                        }
                        other @ (MpiCall::Barrier | MpiCall::AllReduce { .. }) => {
                            // Handled at the rendezvous above.
                            states[r] = Some(RankState::Waiting(other));
                            None
                        }
                    };
                    if let Some(reply) = reply {
                        progressed = true;
                        match actors[r].resume(reply) {
                            Suspended::Request(q) => states[r] = Some(RankState::Waiting(q)),
                            Suspended::Finished(t) => states[r] = Some(RankState::Done(t)),
                        }
                    }
                }
            }
        }

        if all_done {
            break;
        }
        if !progressed {
            // Either everyone is at a collective (handled above next
            // iteration) or the program deadlocked.
            let anyone_collective = (0..n).any(|r| {
                matches!(
                    states[r],
                    Some(RankState::Waiting(MpiCall::Barrier))
                        | Some(RankState::Waiting(MpiCall::AllReduce { .. }))
                )
            });
            let all_waiting_collective = (0..n).all(|r| {
                matches!(
                    states[r],
                    Some(RankState::Waiting(MpiCall::Barrier))
                        | Some(RankState::Waiting(MpiCall::AllReduce { .. }))
                        | Some(RankState::Done(_))
                )
            });
            if anyone_collective && all_waiting_collective {
                continue;
            }
            panic!("SPMD deadlock: all ranks blocked on unmatched receives");
        }
    }

    let finish_time = clock.iter().copied().max().unwrap_or(SimTime::ZERO);
    let results = states
        .into_iter()
        .map(|s| match s {
            Some(RankState::Done(t)) => t,
            _ => unreachable!("all ranks finished"),
        })
        .collect();
    MpiReport {
        finish_time,
        results,
        traffic: net.stats().clone(),
        p2p_msgs,
        collectives,
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
        let report = run_spmd(&spec(4), |ctx: &mut RankCtx<'_, u64>| {
            let me = ctx.rank();
            let n = ctx.size();
            if me == 0 {
                ctx.send(1, 0, &1u64);
                ctx.recv::<u64>(n - 1, 0)
            } else {
                let v: u64 = ctx.recv(me - 1, 0);
                ctx.send((me + 1) % n, 0, &(v + 1));
                v
            }
        });
        // Rank 0 receives the token after it passed all ranks.
        assert_eq!(report.results[0], 4);
        assert_eq!(report.p2p_msgs, 4);
        assert!(report.finish_time.as_nanos() > 4 * 900);
    }

    #[test]
    fn compute_advances_clocks() {
        let report = run_spmd(&spec(2), |ctx: &mut RankCtx<'_, ()>| {
            ctx.compute(SimDuration::from_micros(ctx.rank() as u64 * 100 + 10));
            ctx.barrier();
        });
        // Finish dominated by the slower rank + barrier cost.
        assert!(report.finish_time.as_nanos() >= 110_000);
        assert_eq!(report.collectives, 1);
    }

    #[test]
    fn allreduce_sums() {
        let report = run_spmd(&spec(8), |ctx: &mut RankCtx<'_, f64>| {
            ctx.allreduce_sum((ctx.rank() + 1) as f64)
        });
        for r in report.results {
            assert_eq!(r, 36.0);
        }
    }

    #[test]
    fn allreduce_max_and_vectors() {
        let report = run_spmd(&spec(4), |ctx: &mut RankCtx<'_, Vec<f64>>| {
            ctx.allreduce(vec![ctx.rank() as f64, -(ctx.rank() as f64)], ReduceOp::Max)
        });
        for r in report.results {
            assert_eq!(r, vec![3.0, 0.0]);
        }
    }

    #[test]
    fn sendrecv_halo_idiom() {
        let report = run_spmd(&spec(4), |ctx: &mut RankCtx<'_, (f64, f64)>| {
            let me = ctx.rank();
            let n = ctx.size();
            let left = (me + n - 1) % n;
            let right = (me + 1) % n;
            ctx.send(left, 1, &(me as f64));
            ctx.send(right, 2, &(me as f64));
            let from_right: f64 = ctx.recv(right, 1);
            let from_left: f64 = ctx.recv(left, 2);
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
        let report = run_spmd(&spec(3), |ctx: &mut RankCtx<'_, Vec<u64>>| {
            let me = ctx.rank() as u64;
            let out: Vec<u64> = (0..3).map(|dst| me * 10 + dst).collect();
            ctx.alltoall(7, out)
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
        let report = run_spmd(&spec(6), |ctx: &mut RankCtx<'_, f64>| {
            let (me, n) = (ctx.rank(), ctx.size());
            let x = ctx.allreduce_sum(1.0);
            ctx.compute(SimDuration::from_micros(5 + me as u64));
            let partner = n - 1 - me;
            ctx.send(partner, 3, &vec![me as f64; 100 * (me + 1)]);
            let y: Vec<f64> = ctx.recv(partner, 3);
            let inbox = ctx.alltoall(4, (0..n).map(|dst| (me * n + dst) as u64).collect());
            x + y[0] + inbox.iter().sum::<u64>() as f64
        });
        assert_eq!(report.results, [101.0, 106.0, 111.0, 116.0, 121.0, 126.0]);
        assert_eq!(
            (
                report.finish_time.as_nanos(),
                report.p2p_msgs,
                report.collectives,
                report.traffic.remote_msgs(),
                report.traffic.remote_bytes(),
            ),
            (22_572, 36, 1, 36, 17_088)
        );
    }

    #[test]
    fn fifo_per_channel_ordering() {
        let report = run_spmd(&spec(2), |ctx: &mut RankCtx<'_, Vec<u64>>| {
            if ctx.rank() == 0 {
                for i in 0..5u64 {
                    ctx.send(1, 0, &i);
                }
                Vec::new()
            } else {
                (0..5).map(|_| ctx.recv::<u64>(0, 0)).collect()
            }
        });
        assert_eq!(report.results[1], vec![0, 1, 2, 3, 4]);
    }
}
