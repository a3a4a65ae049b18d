//! Deterministic fault injection for the simulated interconnect.
//!
//! The paper reserves a *resilience manager* (Section 3.2) among the
//! runtime services enabled by the application model; exercising it
//! requires a cluster that can actually fail. A [`FaultPlan`] makes the
//! simulated network misbehave in a fully reproducible way:
//!
//! - **transient message faults** — individual transfers are dropped
//!   with a configurable probability, drawn from a seeded xorshift
//!   generator so every run with the same seed observes the identical
//!   fault sequence;
//! - **fail-stop node deaths** — a locality can be marked *dead* from a
//!   chosen simulated time onward; after that instant it neither sends
//!   nor receives (its volatile data is considered lost — wiping it is
//!   the runtime's job, the network only refuses delivery);
//! - **silent corruption** — a delivered message arrives with a bit
//!   flipped ([`Verdict::Corrupt`]), and a replica sitting on disk can
//!   *rot* between writes ([`FaultPlan::rot_strikes`]). Both draw from
//!   generators seeded independently of the drop stream, so enabling
//!   corruption never perturbs the drop sequence of an otherwise
//!   identical run, and the three arms are statistically independent.
//!
//! The plan is consulted by [`Network::try_transfer_frame`] and the
//! retry wrapper [`Network::transfer_with_retry_frame`]; the plain infallible
//! [`Network::transfer`] ignores it, so baselines that model a reliable
//! fabric (e.g. the MPI port) are unaffected.
//!
//! [`Network::transfer`]: crate::Network::transfer
//! [`Network::try_transfer_frame`]: crate::Network::try_transfer_frame
//! [`Network::transfer_with_retry_frame`]: crate::Network::transfer_with_retry_frame

use std::collections::BTreeMap;

use allscale_des::rng::{XorShift64Star, MIX_CORRUPT, MIX_GOLDEN, MIX_ROT};
use allscale_des::{SimDuration, SimTime};

/// Why a fallible transfer did not deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// The sending locality is dead at submission time.
    SenderDead,
    /// The receiving locality is dead when the message would arrive.
    ReceiverDead,
    /// The message was lost in transit (transient fault).
    Dropped,
    /// The message arrived, but its payload was silently mangled and the
    /// receiver's checksum verification caught it. Retryable, like
    /// [`TransferFault::Dropped`] — the sender still holds the original.
    Corrupted,
}

/// The verdict of [`FaultPlan::judge`] for one message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Deliver on time, but with the payload silently mangled in transit.
    /// Whether anyone *notices* is the integrity layer's business.
    Corrupt,
    /// Do not deliver.
    Fault(TransferFault),
}

/// A deterministic, seedable schedule of network faults.
///
/// Probabilities are stored in parts-per-million and drawn from the
/// shared [`XorShift64Star`] generators (one per arm), so the fault
/// sequence depends only on the seed and the (deterministic) order of
/// transfer attempts.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: XorShift64Star,
    corrupt_rng: XorShift64Star,
    rot_rng: XorShift64Star,
    drop_ppm: u32,
    corrupt_ppm: u32,
    rot_ppm: u32,
    deaths: BTreeMap<usize, SimTime>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: XorShift64Star::with_mix(seed, MIX_GOLDEN),
            // Corruption and rot get their own generators, seeded with
            // different odd mixing constants: turning either arm on must
            // not advance (and thereby reshuffle) the drop stream.
            corrupt_rng: XorShift64Star::with_mix(seed, MIX_CORRUPT),
            rot_rng: XorShift64Star::with_mix(seed, MIX_ROT),
            drop_ppm: 0,
            corrupt_ppm: 0,
            rot_ppm: 0,
            deaths: BTreeMap::new(),
        }
    }

    /// Drop each message attempt with probability `p` (clamped to `[0, 1]`).
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_ppm = (p.clamp(0.0, 1.0) * 1e6) as u32;
        self
    }

    /// Silently corrupt each delivered message's payload with
    /// probability `p` (clamped to `[0, 1]`). Drawn from a generator
    /// independent of the drop stream.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_ppm = (p.clamp(0.0, 1.0) * 1e6) as u32;
        self
    }

    /// Let each replica/checkpoint shard *rot at rest* with probability
    /// `p` (clamped to `[0, 1]`) per [`FaultPlan::rot_strikes`] draw.
    /// Consulted by storage-side callers (the runtime's replica imports
    /// and checkpoint writer), never by the wire path.
    pub fn with_rot(mut self, p: f64) -> Self {
        self.rot_ppm = (p.clamp(0.0, 1.0) * 1e6) as u32;
        self
    }

    /// The configured wire-corruption probability in parts per million.
    pub fn corrupt_ppm(&self) -> u32 {
        self.corrupt_ppm
    }

    /// Draw once from the at-rest rot arm: `true` means the buffer the
    /// caller just stored decays and should be bit-flipped. Advances the
    /// rot generator only when rot is configured, so plans without rot
    /// stay byte-identical.
    pub fn rot_strikes(&mut self) -> bool {
        self.rot_ppm > 0 && self.rot_rng.next_ppm() < self.rot_ppm
    }

    /// A deterministic salt for choosing *which* bit a corruption flips,
    /// drawn from the corruption generator's stream position.
    pub fn corruption_salt(&mut self) -> u64 {
        self.corrupt_rng.next()
    }

    /// Mark `node` dead (fail-stop) from simulated time `at` onward.
    pub fn kill_at(&mut self, node: usize, at: SimTime) {
        self.deaths.insert(node, at);
    }

    /// The configured death time of `node`, if any.
    pub fn death_time(&self, node: usize) -> Option<SimTime> {
        self.deaths.get(&node).copied()
    }

    /// Every configured death as `(node, time)`, ascending by node.
    pub fn deaths(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.deaths.iter().map(|(&node, &at)| (node, at))
    }

    /// Whether `node` is dead at simulated time `now`.
    pub fn is_dead(&self, node: usize, now: SimTime) -> bool {
        matches!(self.deaths.get(&node), Some(&t) if now >= t)
    }

    /// Judge one message attempt from `src` to `dst` submitted at `now`.
    ///
    /// Death checks come first (they are schedule-independent). The
    /// drop draw advances the main generator exactly as it did before
    /// corruption existed — once per remote judgement when a drop rate is
    /// configured — so the drop stream of a seed is invariant under the
    /// corruption knob. The corruption draw comes from its own generator,
    /// advanced once per remote judgement whenever corruption is
    /// configured (even for messages that end up dropped), which keeps
    /// the arms independent. Precedence: a dropped message cannot also
    /// arrive corrupt.
    pub fn judge(&mut self, now: SimTime, src: usize, dst: usize) -> Verdict {
        if self.is_dead(src, now) {
            return Verdict::Fault(TransferFault::SenderDead);
        }
        if self.is_dead(dst, now) {
            return Verdict::Fault(TransferFault::ReceiverDead);
        }
        if src == dst {
            // Local copies never traverse the faulty fabric.
            return Verdict::Deliver;
        }
        let dropped = self.drop_ppm > 0 && self.rng.next_ppm() < self.drop_ppm;
        let corrupt = self.corrupt_ppm > 0 && self.corrupt_rng.next_ppm() < self.corrupt_ppm;
        if dropped {
            Verdict::Fault(TransferFault::Dropped)
        } else if corrupt {
            Verdict::Corrupt
        } else {
            Verdict::Deliver
        }
    }
}

/// Bounded retry with exponential backoff for fallible transfers.
///
/// A failed attempt is detected after `ack_timeout` (the sender waited
/// for an acknowledgement that never came), then the sender backs off
/// `base_backoff · 2^(attempt-1)` before retrying — all billed on the
/// simulated clock by [`Network::transfer_with_retry_frame`].
///
/// [`Network::transfer_with_retry_frame`]: crate::Network::transfer_with_retry_frame
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum number of attempts (including the first). At least 1.
    pub max_attempts: u32,
    /// Time until a lost message is noticed (no acknowledgement).
    pub ack_timeout: SimDuration,
    /// First backoff step; doubles on every further attempt.
    pub base_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            ack_timeout: SimDuration::from_nanos(2_000),
            base_backoff: SimDuration::from_nanos(1_000),
        }
    }
}

impl RetryPolicy {
    /// The wait between a failed `attempt` (1-based) and its retry.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        self.ack_timeout
            + self
                .base_backoff
                .saturating_mul(1u64 << attempt.min(20).saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn no_faults_by_default() {
        let mut plan = FaultPlan::new(7);
        for i in 0..1000 {
            assert_eq!(plan.judge(t(i), 0, 1), Verdict::Deliver);
        }
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with_drop_rate(0.3);
            (0..64)
                .map(|i| plan.judge(t(i), 0, 1) == Verdict::Deliver)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let delivered = run(1).iter().filter(|&&d| d).count();
        assert!(
            delivered > 20 && delivered < 60,
            "rate wildly off: {delivered}/64"
        );
    }

    #[test]
    fn death_is_a_point_of_no_return() {
        let mut plan = FaultPlan::new(1);
        plan.kill_at(2, t(500));
        assert!(!plan.is_dead(2, t(499)));
        assert!(plan.is_dead(2, t(500)));
        assert_eq!(plan.judge(t(499), 2, 0), Verdict::Deliver);
        assert_eq!(
            plan.judge(t(600), 2, 0),
            Verdict::Fault(TransferFault::SenderDead)
        );
        assert_eq!(
            plan.judge(t(600), 0, 2),
            Verdict::Fault(TransferFault::ReceiverDead)
        );
        assert_eq!(plan.death_time(2), Some(t(500)));
        assert_eq!(plan.death_time(0), None);
        assert_eq!(plan.deaths().collect::<Vec<_>>(), [(2, t(500))]);
    }

    #[test]
    fn corruption_draws_are_deterministic_and_independent_of_drop_stream() {
        // Same seed, corruption on/off: the drop outcomes must coincide
        // attempt for attempt (corruption only upgrades non-faulted
        // verdicts, never changes which attempts drop).
        let drops = |corrupt: bool| {
            let mut plan = FaultPlan::new(77).with_drop_rate(0.3);
            if corrupt {
                plan = plan.with_corruption(0.5);
            }
            (0..256)
                .map(|i| plan.judge(t(i), 0, 1) == Verdict::Fault(TransferFault::Dropped))
                .collect::<Vec<_>>()
        };
        assert_eq!(drops(false), drops(true));

        let verdicts = |seed| {
            let mut plan = FaultPlan::new(seed).with_corruption(0.4);
            (0..256).map(|i| plan.judge(t(i), 0, 1)).collect::<Vec<_>>()
        };
        assert_eq!(verdicts(5), verdicts(5), "seeded stream is reproducible");
        let corrupted = verdicts(5)
            .iter()
            .filter(|v| **v == Verdict::Corrupt)
            .count();
        assert!(
            (50..160).contains(&corrupted),
            "rate wildly off: {corrupted}/256"
        );
    }

    #[test]
    fn corruption_preempts_delay_but_not_drops_or_deaths() {
        let mut plan = FaultPlan::new(2).with_corruption(1.0);
        assert_eq!(plan.judge(t(0), 0, 1), Verdict::Corrupt);
        let mut plan = FaultPlan::new(2).with_drop_rate(1.0).with_corruption(1.0);
        assert_eq!(
            plan.judge(t(0), 0, 1),
            Verdict::Fault(TransferFault::Dropped)
        );
        let mut plan = FaultPlan::new(2).with_corruption(1.0);
        plan.kill_at(1, t(0));
        assert_eq!(
            plan.judge(t(0), 0, 1),
            Verdict::Fault(TransferFault::ReceiverDead)
        );
        // Local copies bypass the fabric and cannot corrupt in transit.
        assert_eq!(plan.judge(t(0), 0, 0), Verdict::Deliver);
    }

    #[test]
    fn rot_is_deterministic_and_off_by_default() {
        let mut plan = FaultPlan::new(9);
        assert!((0..100).all(|_| !plan.rot_strikes()));
        let strikes = |seed| {
            let mut plan = FaultPlan::new(seed).with_rot(0.3);
            (0..100).map(|_| plan.rot_strikes()).collect::<Vec<_>>()
        };
        assert_eq!(strikes(4), strikes(4));
        let hits = strikes(4).iter().filter(|&&s| s).count();
        assert!((10..60).contains(&hits), "rate wildly off: {hits}/100");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_attempts: 5,
            ack_timeout: SimDuration::from_nanos(100),
            base_backoff: SimDuration::from_nanos(10),
        };
        assert_eq!(p.backoff(1).as_nanos(), 110);
        assert_eq!(p.backoff(2).as_nanos(), 120);
        assert_eq!(p.backoff(3).as_nanos(), 140);
        assert_eq!(p.backoff(4).as_nanos(), 180);
    }
}
