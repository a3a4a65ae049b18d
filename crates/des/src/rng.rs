//! Shared seeded pseudo-random generators.
//!
//! Several subsystems need small, dependency-free, *deterministic*
//! randomness: the network fault arms, the work-stealing victim draw,
//! the serving workload's key sampler, and the randomized conformance
//! harnesses. Historically each site carried its own copy of the same
//! xorshift64 kernel (and the apps their own splitmix64 key hash); this
//! module is the single home for all of them.
//!
//! Stream compatibility is a hard contract: every constructor and step
//! function here reproduces, bit for bit, the sequences the inlined
//! copies produced, so existing seeds (in tests, experiment configs and
//! recorded baselines) keep reproducing identical runs. The pinning
//! tests at the bottom freeze the exact draw sequences.

/// The golden-ratio mixing constant used to spread small seeds over the
/// state space (Weyl/Fibonacci hashing constant).
pub const MIX_GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Mixing constant of the wire-corruption fault arm (splitmix64's first
/// round constant) — distinct from [`MIX_GOLDEN`] so enabling the arm
/// never reshuffles the drop stream.
pub const MIX_CORRUPT: u64 = 0xbf58_476d_1ce4_e5b9;
/// Mixing constant of the at-rest rot fault arm.
pub const MIX_ROT: u64 = 0x94d0_49bb_1331_11eb;
/// The xorshift64\* output multiplier (Vigna's `M32` constant).
pub const STAR_MUL: u64 = 0x2545_f491_4f6c_dd1d;

/// splitmix64 of `x`: a stateless, full-avalanche hash of a key, for
/// inputs that must be a function of *which* value is drawn rather than
/// of generator state (the iPiC3D particles, the TPC point cloud), so
/// every version of an application draws the same values in any order.
/// Over `k · MIX_GOLDEN` (wrapping) for `k = 0, 1, …` it is Vigna's
/// SplitMix64 stream seeded with 0; its other two constants are the ones
/// [`MIX_CORRUPT`] and [`MIX_ROT`] borrow.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(MIX_GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(MIX_CORRUPT);
    x = (x ^ (x >> 27)).wrapping_mul(MIX_ROT);
    x ^ (x >> 31)
}

/// A uniform `f64` in `[0, 1)` keyed by `key`: [`u01`] of [`splitmix64`].
#[inline]
pub fn unit(key: u64) -> f64 {
    u01(splitmix64(key))
}

/// Plain xorshift64: the raw 13/7/17 shift kernel with a golden-mixed,
/// never-zero seed. This is the generator of the work-stealing `Random`
/// victim policy and of the randomized conformance harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator; the state is `seed * MIX_GOLDEN | 1` (never
    /// zero, which would be a fixed point of the kernel).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed.wrapping_mul(MIX_GOLDEN) | 1,
        }
    }

    /// Seeded with a caller-chosen mixing constant (`seed * mix | 1`) —
    /// how the fault plan keeps its three arms statistically independent
    /// at the same user seed.
    pub fn with_mix(seed: u64, mix: u64) -> Self {
        XorShift64 {
            state: seed.wrapping_mul(mix) | 1,
        }
    }

    /// One raw kernel step: `x ^= x<<13; x ^= x>>7; x ^= x<<17`.
    ///
    /// Named `next` on purpose — the universal name of a PRNG step,
    /// kept from the inlined copies this module replaced — and the
    /// generator is deliberately not an `Iterator` (it never ends and
    /// `Option<u64>` at every draw would be noise).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A draw in `[0, n)` (`n` clamped up to 1) — the conformance
    /// harnesses' `below`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// The current state (diagnostics, stream-pinning tests).
    pub fn state(&self) -> u64 {
        self.state
    }
}

/// xorshift64\*: the raw kernel followed by a multiply by [`STAR_MUL`],
/// which decorrelates the low bits. This is the generator family of the
/// network fault arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64Star {
    inner: XorShift64,
}

impl XorShift64Star {
    /// Golden-mixed seeded generator.
    pub fn new(seed: u64) -> Self {
        XorShift64Star {
            inner: XorShift64::new(seed),
        }
    }

    /// Seeded with a caller-chosen mixing constant (`seed * mix | 1`).
    pub fn with_mix(seed: u64, mix: u64) -> Self {
        XorShift64Star {
            inner: XorShift64::with_mix(seed, mix),
        }
    }

    /// One xorshift64\* output.
    ///
    /// Named `next` on purpose, like [`XorShift64::next`].
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.inner.next().wrapping_mul(STAR_MUL)
    }

    /// One output reduced to parts-per-million, `[0, 1e6)` — the fault
    /// arms' probability draw.
    #[inline]
    pub fn next_ppm(&mut self) -> u32 {
        (self.next() % 1_000_000) as u32
    }

    /// One output mapped to a uniform `f64` in `[0, 1)` using the top 53
    /// bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        u01(self.next())
    }

    /// The current raw state (diagnostics, stream-pinning tests).
    pub fn state(&self) -> u64 {
        self.inner.state()
    }
}

/// Map a full-entropy `u64` to a uniform `f64` in `[0, 1)` (top 53 bits).
#[inline]
pub fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A Zipf(s) sampler over ranks `0..n`: rank `k` has probability
/// proportional to `1 / (k+1)^s`. Built once (O(n) table), sampled by
/// binary search over the cumulative distribution — deterministic given
/// the caller's uniform draws. The serving workload's skewed key
/// popularity (`s ≈ 1` models the classic hot-shard regime).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0` (`s = 0` is
    /// uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// The rank of a uniform draw `u ∈ [0, 1)`.
    pub fn rank_of(&self, u: f64) -> usize {
        // First index whose cdf strictly exceeds u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Draw one rank using `rng`.
    pub fn sample(&self, rng: &mut XorShift64Star) -> usize {
        self.rank_of(rng.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact kernel every pre-consolidation call site inlined.
    fn legacy_step(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn pin_xorshift64_stream_to_legacy_harness_kernel() {
        // tests/*.rs harness shape: state = seed * GOLDEN | 1, raw steps.
        for seed in [0u64, 1, 2, 7, 42, 0x5eed_0bad_cafe, u64::MAX] {
            let mut legacy = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = XorShift64::new(seed);
            for _ in 0..64 {
                assert_eq!(rng.next(), legacy_step(&mut legacy), "seed {seed}");
            }
        }
    }

    #[test]
    fn pin_fault_arm_draw_streams() {
        // FaultPlan's historical arms: three mixes, output multiplied by
        // STAR_MUL, probability draws reduced mod 1e6.
        for (mix, name) in [
            (MIX_GOLDEN, "drop"),
            (MIX_CORRUPT, "corrupt"),
            (MIX_ROT, "rot"),
        ] {
            let seed = 77u64;
            let mut legacy = seed.wrapping_mul(mix) | 1;
            let mut rng = XorShift64Star::with_mix(seed, mix);
            let mut ppm_rng = XorShift64Star::with_mix(seed, mix);
            for _ in 0..64 {
                let want = legacy_step(&mut legacy).wrapping_mul(0x2545_f491_4f6c_dd1d);
                assert_eq!(rng.next(), want, "{name} arm diverged");
                assert_eq!(ppm_rng.next_ppm(), (want % 1_000_000) as u32, "{name} ppm");
            }
        }
    }

    #[test]
    fn pin_first_draws_of_known_seeds() {
        // Absolute values, frozen: a refactor that changes any constant
        // or the step order fails here even if it stays self-consistent.
        let mut a = XorShift64::new(1);
        assert_eq!(a.next(), 0xdc1b_77ae_0bf3_4dad);
        let mut b = XorShift64Star::new(0x5eed_0bad_cafe);
        let first = b.next();
        let mut legacy = 0x5eed_0bad_cafeu64.wrapping_mul(MIX_GOLDEN) | 1;
        assert_eq!(first, legacy_step(&mut legacy).wrapping_mul(STAR_MUL));
    }

    #[test]
    fn pin_splitmix64_to_the_reference_stream() {
        // SplitMix64 seeded with 0: the published first outputs.
        let first: Vec<u64> = (0..3u64)
            .map(|k| splitmix64(k.wrapping_mul(MIX_GOLDEN)))
            .collect();
        assert_eq!(
            first,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        // `unit` is the top 53 bits of the hash, exactly.
        assert_eq!(
            unit(1),
            (0x910a_2dec_8902_5cc1u64 >> 11) as f64 / (1u64 << 53) as f64
        );
    }

    #[test]
    fn below_matches_modulo_reduction() {
        let mut a = XorShift64::new(9);
        let mut b = XorShift64::new(9);
        for n in [1u64, 2, 3, 10, 1000] {
            assert_eq!(a.below(n), b.next() % n);
        }
        // n = 0 is clamped to 1, not a division by zero.
        assert_eq!(XorShift64::new(3).below(0), 0);
    }

    #[test]
    fn u01_is_in_unit_interval() {
        let mut rng = XorShift64Star::new(5);
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(u01(0), 0.0);
        assert!(u01(u64::MAX) < 1.0);
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = ZipfSampler::new(8, 1.2);
        let draw = |seed| {
            let mut rng = XorShift64Star::new(seed);
            (0..4096).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        let counts = draw(11).iter().fold(vec![0usize; 8], |mut c, &r| {
            c[r] += 1;
            c
        });
        // Rank 0 dominates and the tail is monotone-ish.
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
        assert!(counts[0] > 4096 / 4, "rank 0 should carry >25%: {counts:?}");
        // Uniform exponent flattens it.
        let u = ZipfSampler::new(8, 0.0);
        let mut rng = XorShift64Star::new(11);
        let counts = (0..4096).fold(vec![0usize; 8], |mut c, _| {
            c[u.sample(&mut rng)] += 1;
            c
        });
        assert!(counts.iter().all(|&c| c > 4096 / 16));
    }

    #[test]
    fn zipf_rank_of_edges() {
        let z = ZipfSampler::new(4, 1.0);
        assert_eq!(z.rank_of(0.0), 0);
        assert_eq!(z.rank_of(0.999_999_999), 3);
    }
}
