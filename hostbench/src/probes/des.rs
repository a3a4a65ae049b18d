//! DES kernel probes (home workload: `serve_steady`, whose 1.4 M events
//! cost about a microsecond each).

use std::hint::black_box;

use allscale_des::{ArrivalGen, ArrivalProcess, CorePool, LogHistogram, Sim, SimDuration, SimTime};

use super::{per_op, rng};

const N: u64 = 100_000;

/// `Sim::schedule` + `run` of closures with seeded delays.
pub fn sim_schedule_run(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let delays: Vec<u64> = (0..N).map(|_| r.next() % 10_000).collect();
    per_op(seconds, N, || {
        let mut sim = Sim::new(0u64);
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), |sim| sim.world += 1);
        }
        sim.run();
        black_box(sim.world);
    })
}

/// A self-rescheduling hop: the pattern of message hand-offs.
pub fn sim_chain(_seed: u64, seconds: f64) -> f64 {
    fn hop(sim: &mut Sim<u64>) {
        if sim.world < N {
            sim.world += 1;
            sim.schedule(SimDuration::from_nanos(3), hop);
        }
    }
    per_op(seconds, N, || {
        let mut sim = Sim::new(0u64);
        sim.schedule(SimDuration::ZERO, hop);
        sim.run();
        black_box(sim.world);
    })
}

/// `CorePool::acquire` on a two-core locality (the serving cluster's).
pub fn core_pool_acquire(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let work: Vec<u64> = (0..N).map(|_| 1_000 + r.next() % 9_000).collect();
    per_op(seconds, N, || {
        let mut pool = CorePool::new(2);
        let mut last = SimTime::ZERO;
        for (i, &w) in work.iter().enumerate() {
            let (_, end) = pool.acquire(
                SimTime::from_nanos(i as u64 * 5_000),
                SimDuration::from_nanos(w),
            );
            last = last.max(end);
        }
        black_box(last);
    })
}

/// `LogHistogram::record` of latencies spread over four decades.
pub fn histogram_record(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let values: Vec<u64> = (0..N).map(|_| 1_000 + r.next() % 10_000_000).collect();
    per_op(seconds, N, || {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        black_box(h.p99());
    })
}

/// `ArrivalGen::next_gap` of the Poisson process at the steady rate.
pub fn arrival_gap(seed: u64, seconds: f64) -> f64 {
    per_op(seconds, N, || {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson {
            rate_rps: 200_000.0,
            seed,
        });
        let mut total = SimDuration::ZERO;
        for _ in 0..N {
            total += gen.next_gap();
        }
        black_box(total);
    })
}
