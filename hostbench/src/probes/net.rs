//! Network-model probes (homes: `tpc_64` for plain pricing, `stencil_ft`
//! for the retrying, framed, coalesced paths).

use std::hint::black_box;

use allscale_des::SimTime;
use allscale_net::{frame, BatchParams, ClusterSpec, Coalescer, FaultPlan, Network, RetryPolicy};

use super::{per_op, rng};

const N: u64 = 50_000;

/// Seeded (src, dst) pairs on the 64-node fat tree, never src == dst.
fn pairs(seed: u64) -> Vec<(usize, usize)> {
    let mut r = rng(seed);
    (0..N)
        .map(|_| {
            let src = (r.next() % 64) as usize;
            let dst = (src + 1 + (r.next() % 63) as usize) % 64;
            (src, dst)
        })
        .collect()
}

fn meggie_network() -> Network<allscale_net::AnyTopology> {
    let spec = ClusterSpec::meggie(64);
    Network::new(spec.build_topology(), spec.net.clone())
}

/// `Network::transfer` of 256-byte control messages.
pub fn transfer(seed: u64, seconds: f64) -> f64 {
    let pairs = pairs(seed);
    per_op(seconds, N, || {
        let mut net = meggie_network();
        let mut last = SimTime::ZERO;
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            last = last.max(net.transfer(SimTime::from_nanos(i as u64 * 100), src, dst, 256));
        }
        black_box(last);
    })
}

/// `transfer_with_retry_frame` of 16 KiB payloads over a fabric that
/// drops and corrupts one message in a thousand, integrity on.
pub fn transfer_frame(seed: u64, seconds: f64) -> f64 {
    let pairs = pairs(seed);
    let policy = RetryPolicy::default();
    per_op(seconds, N, || {
        let mut net = meggie_network();
        net.set_integrity(true);
        net.install_faults(
            FaultPlan::new(seed)
                .with_drop_rate(0.001)
                .with_corruption(0.001),
        );
        let mut delivered = 0u64;
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let at = SimTime::from_nanos(i as u64 * 2_000);
            delivered += u64::from(
                net.transfer_with_retry_frame(at, src, dst, 16 << 10, &policy)
                    .is_ok(),
            );
        }
        black_box(delivered);
    })
}

/// `Coalescer::enqueue` until the batch is full, then `take`.
pub fn coalesce(seed: u64, seconds: f64) -> f64 {
    let pairs = pairs(seed);
    let params = BatchParams::default();
    per_op(seconds, N, || {
        let mut co: Coalescer<u64> = Coalescer::new(params);
        let mut flushed = 0usize;
        for (i, &(src, _)) in pairs.iter().enumerate() {
            // Few destinations per source, as in a halo exchange, so
            // batches actually fill.
            let dst = (src + 1 + i % 2) % 64;
            let now = SimTime::from_nanos(i as u64 * 10);
            if co.enqueue(now, src, dst, 512, i as u64) == allscale_net::Enqueue::Full {
                flushed += co.take(src, dst).map_or(0, |b| b.entries.len());
            }
        }
        black_box(flushed);
    })
}

/// `frame::seal` + `frame::open` of a 16 KiB payload, per KiB.
pub fn frame_seal_open(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let payload: Vec<u8> = (0..16 << 10).map(|_| r.next() as u8).collect();
    const ROUNDS: u64 = 200;
    per_op(seconds, ROUNDS * 16, || {
        for _ in 0..ROUNDS {
            let framed = frame::seal(black_box(&payload));
            black_box(frame::open(&framed).expect("intact frame").len());
        }
    })
}
