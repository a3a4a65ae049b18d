//! Property-based tests of the network cost model: arrival times must be
//! monotone in message size, NICs must behave as FIFO resources, and a
//! coalesced batch must never cost more than the messages it replaces —
//! with exact equality at batch size 1 (batching a single message is a
//! no-op in the price model).

use proptest::prelude::*;

use allscale_des::SimTime;
use allscale_net::{FatTree, FlushCause, NetParams, Network, RetryPolicy};

fn net(nodes: usize) -> Network<FatTree> {
    Network::new(FatTree::new(nodes, 16), NetParams::default())
}

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// Elapsed nanoseconds of a single transfer on an otherwise idle network.
fn solo_price(src: usize, dst: usize, bytes: usize) -> u64 {
    let mut n = net(64);
    (n.transfer(t(0), src, dst, bytes) - t(0)).as_nanos()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// More bytes never arrive earlier: arrival time is monotone in
    /// message size for any endpoint pair.
    #[test]
    fn arrival_monotone_in_size(
        src in 0usize..64,
        dst in 0usize..64,
        small in 0usize..1_000_000,
        extra in 0usize..1_000_000,
    ) {
        let a = solo_price(src, dst, small);
        let b = solo_price(src, dst, small + extra);
        prop_assert!(
            a <= b,
            "{} bytes priced {a} ns but {} bytes priced {b} ns",
            small,
            small + extra
        );
    }

    /// NICs are FIFO resources: messages submitted one after another into
    /// the same destination complete in submission order, regardless of
    /// which sources they come from (receive-side occupancy is shared).
    #[test]
    fn nic_occupancy_is_fifo(
        dst in 0usize..8,
        msgs in prop::collection::vec((0usize..8, 0usize..500_000, 0u64..5_000), 1..24),
    ) {
        let mut n = net(8);
        let mut now = t(0);
        let mut last_arrival = t(0);
        for (src, bytes, gap) in msgs {
            if src == dst {
                continue;
            }
            now += allscale_des::SimDuration::from_nanos(gap);
            let arrival = n.transfer(now, src, dst, bytes);
            prop_assert!(
                arrival >= last_arrival,
                "message submitted at {now:?} overtook an earlier one \
                 ({arrival:?} < {last_arrival:?})"
            );
            last_arrival = arrival;
        }
    }

    /// Sender-side FIFO: a second message from the same source departs
    /// after the first finished serializing, so its arrival can never
    /// precede what the first message alone would achieve.
    #[test]
    fn tx_occupancy_serializes_senders(
        src in 0usize..8,
        dst in 0usize..8,
        first in 1usize..1_000_000,
        second in 0usize..1_000_000,
    ) {
        if src == dst {
            return Ok(());
        }
        let mut shared = net(8);
        let solo_first = shared.transfer(t(0), src, dst, first);
        let queued_second = shared.transfer(t(0), src, dst, second);
        prop_assert!(queued_second >= solo_first);
        prop_assert!(queued_second.as_nanos() >= solo_price(src, dst, second));
    }

    /// A batch flush is never more expensive than sending its members
    /// individually on idle hardware: latency and software overhead are
    /// paid once instead of once per message.
    #[test]
    fn batch_price_at_most_sum_of_parts(
        src in 0usize..64,
        dst in 0usize..64,
        sizes in prop::collection::vec(1usize..200_000, 1..32),
    ) {
        if src == dst {
            return Ok(());
        }
        let total: usize = sizes.iter().sum();
        let mut nb = net(64);
        let batch_end = nb
            .transfer_batch_frame(
                t(0),
                src,
                dst,
                total,
                sizes.len() as u64,
                FlushCause::Window,
                &RetryPolicy::default(),
            )
            .expect("no faults installed")
            .at;
        let batch_price = (batch_end - t(0)).as_nanos();
        let sum_of_parts: u64 = sizes.iter().map(|&b| solo_price(src, dst, b)).sum();
        prop_assert!(
            batch_price <= sum_of_parts,
            "batch of {} msgs ({total} bytes) priced {batch_price} ns, \
             parts sum to {sum_of_parts} ns",
            sizes.len()
        );
        // The batch counters bill exactly this flush.
        prop_assert_eq!(nb.stats().batches, 1);
        prop_assert_eq!(nb.stats().batched_msgs, sizes.len() as u64);
        prop_assert_eq!(nb.stats().batched_bytes, total as u64);
        prop_assert_eq!(nb.stats().flushes_by_cause, [1, 0, 0]);
    }

    /// Degenerate batch: flushing a single message prices exactly like
    /// sending it unbatched — batching is free at size 1.
    #[test]
    fn batch_of_one_prices_like_a_plain_transfer(
        src in 0usize..64,
        dst in 0usize..64,
        bytes in 0usize..2_000_000,
    ) {
        if src == dst {
            return Ok(());
        }
        let mut nb = net(64);
        let batch_end = nb
            .transfer_batch_frame(
                t(0),
                src,
                dst,
                bytes,
                1,
                FlushCause::Msgs,
                &RetryPolicy::default(),
            )
            .expect("no faults installed")
            .at;
        prop_assert_eq!((batch_end - t(0)).as_nanos(), solo_price(src, dst, bytes));
    }
}
