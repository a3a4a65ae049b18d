//! Microbenchmarks of the discrete-event simulation kernel: event
//! scheduling/dispatch throughput, core-pool accounting and the workspace's
//! one hash — the substrate everything else's wall-clock cost rests on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use allscale_des::fnv::fnv1a_64_batch;
use allscale_des::{CorePool, Sim, SimDuration, SimTime};

fn bench_event_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    for &n in &[1_000usize, 100_000] {
        g.bench_with_input(BenchmarkId::new("schedule_run", n), &n, |b, &n| {
            b.iter(|| {
                let mut sim = Sim::new(0u64);
                for i in 0..n {
                    sim.schedule(SimDuration::from_nanos((i % 97) as u64), |sim| {
                        sim.world += 1;
                    });
                }
                sim.run();
                black_box(sim.world)
            })
        });
    }
    // Self-rescheduling chain: the pattern of message hand-offs.
    g.bench_function("event_chain_10k", |b| {
        fn hop(sim: &mut Sim<u64>) {
            if sim.world < 10_000 {
                sim.world += 1;
                sim.schedule(SimDuration::from_nanos(3), hop);
            }
        }
        b.iter(|| {
            let mut sim = Sim::new(0u64);
            sim.schedule(SimDuration::ZERO, hop);
            sim.run();
            black_box(sim.world)
        })
    });
    g.finish();
}

fn bench_core_pool(c: &mut Criterion) {
    c.bench_function("core_pool/acquire_20cores", |b| {
        b.iter(|| {
            let mut pool = CorePool::new(20);
            let mut last = SimTime::ZERO;
            for i in 0..1000u64 {
                let (_, end) = pool.acquire(SimTime::from_nanos(i), SimDuration::from_nanos(50));
                last = last.max(end);
            }
            black_box(last)
        })
    });
}

/// `fnv1a_64_batch` over 1, 2, 4 and 32 shard-sized buffers: one buffer is
/// the serial function (one multiply latency per byte), four fill the
/// lanes, 32 is a checkpoint's worth with lane refills. `hostbench`'s
/// `region.fingerprint` and `net.frame` probes time one-buffer calls, so
/// this group is the only direct measurement of the batch kernel.
fn bench_fnv_batch(c: &mut Criterion) {
    const SHARD: usize = 64 * 1024;
    let shards: Vec<Vec<u8>> = (0..32u32)
        .map(|s| {
            (0..SHARD as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 7).wrapping_add(s) as u8)
                .collect()
        })
        .collect();
    let shards: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
    let mut g = c.benchmark_group("fnv");
    for n in [1usize, 2, 4, 32] {
        g.throughput(Throughput::Bytes((n * SHARD) as u64));
        g.bench_function(format!("batch/{n}x64KiB"), |b| {
            b.iter(|| fnv1a_64_batch(black_box(&shards[..n])))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_dispatch,
    bench_core_pool,
    bench_fnv_batch
);
criterion_main!(benches);
