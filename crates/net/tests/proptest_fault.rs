//! Property-based tests of the deterministic fault plan: a seed's
//! verdict stream is exactly reproducible (including the corruption
//! draws), and the drop, corruption and rot arms draw from
//! independent generators — turning one arm on or off never reshuffles
//! the others. These are the invariants the integrity layer's
//! "disabled runs are byte-identical" guarantee rests on.

use proptest::prelude::*;

use allscale_des::SimTime;
use allscale_net::{FaultPlan, TransferFault, Verdict};

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// Build a plan from ppm-valued knobs (the strategy space) and collect
/// its verdicts for `n` back-to-back remote attempts.
fn verdicts(seed: u64, drop_ppm: u32, corrupt_ppm: u32, n: usize) -> Vec<Verdict> {
    let mut plan = FaultPlan::new(seed)
        .with_drop_rate(drop_ppm as f64 / 1e6)
        .with_corruption(corrupt_ppm as f64 / 1e6);
    (0..n).map(|i| plan.judge(t(i as u64), 0, 1)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replaying a seed replays the exact verdict stream — drops and
    /// corruptions strike the same attempts in the same order.
    #[test]
    fn verdict_stream_is_a_pure_function_of_the_seed(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
        corrupt_ppm in 0u32..400_000,
    ) {
        let a = verdicts(seed, drop_ppm, corrupt_ppm, 256);
        let b = verdicts(seed, drop_ppm, corrupt_ppm, 256);
        prop_assert_eq!(a, b);
    }

    /// Enabling the corruption arm never changes *which* attempts drop:
    /// the non-corrupt projection of the stream is invariant, corruption
    /// only upgrades would-be deliveries.
    #[test]
    fn corruption_knob_does_not_perturb_drop_stream(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
        corrupt_ppm in 1u32..1_000_000,
    ) {
        let off = verdicts(seed, drop_ppm, 0, 256);
        let on = verdicts(seed, drop_ppm, corrupt_ppm, 256);
        for (i, (v_off, v_on)) in off.iter().zip(&on).enumerate() {
            match v_on {
                // A corrupt verdict replaces a delivery, never a drop (a
                // lost message has no payload to mangle).
                Verdict::Corrupt => prop_assert!(
                    !matches!(v_off, Verdict::Fault(_)),
                    "attempt {i}: corruption overwrote fault {v_off:?}"
                ),
                other => prop_assert_eq!(
                    other, v_off,
                    "attempt {i} changed without a corruption strike"
                ),
            }
        }
    }

    /// The reverse direction: drop settings never move the corruption
    /// strikes. An attempt that corrupts under one drop rate corrupts (or
    /// is masked by a drop) under any other.
    #[test]
    fn drop_knob_does_not_perturb_corruption_stream(
        seed in 0u64..1_000_000,
        drop_ppm in 1u32..500_000,
        corrupt_ppm in 1u32..1_000_000,
    ) {
        let clean = verdicts(seed, 0, corrupt_ppm, 256);
        let lossy = verdicts(seed, drop_ppm, corrupt_ppm, 256);
        for (i, (c, l)) in clean.iter().zip(&lossy).enumerate() {
            if *c == Verdict::Corrupt {
                prop_assert!(
                    matches!(
                        l,
                        Verdict::Corrupt | Verdict::Fault(TransferFault::Dropped)
                    ),
                    "attempt {i}: corruption strike moved ({l:?})"
                );
            } else {
                prop_assert_ne!(
                    l, &Verdict::Corrupt,
                    "attempt {i}: drop knob conjured a corruption"
                );
            }
        }
    }

    /// Local judgements (src == dst) and death verdicts short-circuit
    /// before any draw, so interleaving them anywhere in the schedule
    /// leaves the remote fault stream untouched.
    #[test]
    fn local_and_dead_judgements_do_not_advance_generators(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
        corrupt_ppm in 0u32..400_000,
        locals in prop::collection::vec(0usize..8, 0..64),
    ) {
        let plain = verdicts(seed, drop_ppm, corrupt_ppm, 64);
        let mut plan = FaultPlan::new(seed)
            .with_drop_rate(drop_ppm as f64 / 1e6)
            .with_corruption(corrupt_ppm as f64 / 1e6);
        plan.kill_at(9, t(0));
        let mut interleaved = Vec::new();
        for i in 0..64u64 {
            // Noise that must not consume randomness: local copies and
            // messages involving the dead locality 9.
            for &l in &locals {
                prop_assert_eq!(plan.judge(t(i), l, l), Verdict::Deliver);
            }
            prop_assert_eq!(
                plan.judge(t(i), 0, 9),
                Verdict::Fault(TransferFault::ReceiverDead)
            );
            prop_assert_eq!(
                plan.judge(t(i), 9, 0),
                Verdict::Fault(TransferFault::SenderDead)
            );
            interleaved.push(plan.judge(t(i), 0, 1));
        }
        prop_assert_eq!(plain, interleaved);
    }

    /// The rot arm is independent too: drawing `rot_strikes` between
    /// judgements never changes the wire verdicts, a plan without rot
    /// never strikes, and the rot stream itself is seed-reproducible.
    #[test]
    fn rot_draws_are_reproducible_and_do_not_touch_the_wire_stream(
        seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
        corrupt_ppm in 0u32..400_000,
        rot_ppm in 1u32..1_000_000,
    ) {
        let plain = verdicts(seed, drop_ppm, corrupt_ppm, 128);
        let mut plan = FaultPlan::new(seed)
            .with_drop_rate(drop_ppm as f64 / 1e6)
            .with_corruption(corrupt_ppm as f64 / 1e6)
            .with_rot(rot_ppm as f64 / 1e6);
        let mut wire = Vec::new();
        let mut rot_a = Vec::new();
        for i in 0..128u64 {
            rot_a.push(plan.rot_strikes());
            wire.push(plan.judge(t(i), 0, 1));
        }
        prop_assert_eq!(plain, wire, "rot draws leaked into the wire stream");

        // Same seed, rot drawn alone: identical strike sequence.
        let mut solo = FaultPlan::new(seed).with_rot(rot_ppm as f64 / 1e6);
        let rot_b: Vec<bool> = (0..128).map(|_| solo.rot_strikes()).collect();
        prop_assert_eq!(rot_a, rot_b);

        // rot_ppm == 0 never strikes and never advances: a later
        // with_rot plan sees the untouched stream head.
        let mut off = FaultPlan::new(seed);
        prop_assert!((0..128).all(|_| !off.rot_strikes()));
    }

    /// Corruption salts (which bit a strike flips) are seed-deterministic
    /// as well — two runs of a seed mangle payloads identically.
    #[test]
    fn corruption_salts_are_reproducible(seed in 0u64..1_000_000) {
        let salts = |s| {
            let mut p = FaultPlan::new(s).with_corruption(0.5);
            (0..64).map(|_| p.corruption_salt()).collect::<Vec<u64>>()
        };
        prop_assert_eq!(salts(seed), salts(seed));
        prop_assert_ne!(salts(seed), salts(seed.wrapping_add(1)));
    }
}
