//! Open-loop arrival processes for request-serving simulations.
//!
//! A closed-loop workload (the batch apps) only issues new work when old
//! work completes, so queues can never grow without bound. Serving real
//! traffic is *open loop*: clients fire requests on their own clock,
//! oblivious to whether the cluster keeps up — which is exactly what
//! makes saturation knees and tail-latency blowups observable. An
//! [`ArrivalGen`] produces the deterministic sequence of inter-arrival
//! gaps that the runtime turns into injection events on the simulated
//! clock, independent of completions.

use crate::rng::XorShift64Star;
use crate::time::SimDuration;

/// The statistical shape of an arrival stream.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals at `rate_rps` requests per (simulated)
    /// second: inter-arrival gaps are exponential with mean `1/rate_rps`,
    /// drawn from a seeded generator — the same seed replays the same
    /// stream to the nanosecond.
    Poisson {
        /// Offered load in requests per simulated second (must be > 0).
        rate_rps: f64,
        /// Seed of the gap stream.
        seed: u64,
    },
}

/// Iterator state of one arrival stream.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    /// Offered load, requests per simulated second.
    rate_rps: f64,
    rng: XorShift64Star,
}

impl ArrivalGen {
    /// Instantiate a generator for `process`.
    ///
    /// # Panics
    /// Panics on a non-positive Poisson rate.
    pub fn new(process: ArrivalProcess) -> Self {
        let ArrivalProcess::Poisson { rate_rps, seed } = process;
        assert!(rate_rps > 0.0, "Poisson rate must be positive");
        ArrivalGen {
            rate_rps,
            rng: XorShift64Star::new(seed),
        }
    }

    /// The gap between the previous arrival (or the stream start) and the
    /// next one. Gaps are at least 1 ns so distinct requests occupy
    /// distinct simulated instants (FIFO tie-breaking stays trivial).
    pub fn next_gap(&mut self) -> SimDuration {
        // Inverse-CDF exponential; 1-u keeps ln's argument in (0, 1] so
        // the draw is always finite.
        let u = self.rng.next_f64();
        let gap = SimDuration::from_nanos_f64(-(1.0 - u).ln() / self.rate_rps * 1e9);
        gap.max(SimDuration::from_nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let run = |seed| {
            let mut g = ArrivalGen::new(ArrivalProcess::Poisson {
                rate_rps: 100_000.0,
                seed,
            });
            (0..256).map(|_| g.next_gap().as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let rate = 1_000_000.0; // 1M rps => mean gap 1000 ns
        let mut g = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: rate, seed: 3 });
        let n = 20_000;
        let total: u64 = (0..n).map(|_| g.next_gap().as_nanos()).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (900.0..1100.0).contains(&mean),
            "mean inter-arrival {mean} ns, expected ~1000"
        );
    }

    #[test]
    fn gaps_are_never_zero() {
        let mut p = ArrivalGen::new(ArrivalProcess::Poisson {
            rate_rps: 1e12, // absurd rate: raw draws round to 0 ns often
            seed: 1,
        });
        assert!((0..1000).all(|_| p.next_gap().as_nanos() >= 1));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 0.0, seed: 1 });
    }
}
