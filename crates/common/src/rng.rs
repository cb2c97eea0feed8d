//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (DASH's probabilistic
//! scheduling, synthetic CPU traffic, workload jitter) draws from an
//! explicitly-seeded [`Xorshift64`] so that runs are bit-reproducible.

/// An `xorshift64*` PRNG — tiny, fast, and good enough for scheduling noise.
///
/// # Examples
///
/// ```
/// use emerald_common::rng::Xorshift64;
///
/// let mut a = Xorshift64::new(42);
/// let mut b = Xorshift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift; bias is negligible for simulator purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`; NaN never
    /// hits): `next_f64() < p`, decided in integers by [`Xorshift64::trial`].
    pub fn chance(&mut self, p: f64) -> bool {
        self.trial(Self::threshold(p))
    }

    /// The integer form of probability `p` for [`Xorshift64::trial`]:
    /// `⌈clamp(p)·2^53⌉`. For an integer `k < 2^53`, `k / 2^53 < p` holds
    /// exactly when `k < ⌈p·2^53⌉`, and scaling by a power of two is exact,
    /// so a trial draws what `next_f64() < p` would. NaN maps to 0.
    pub fn threshold(p: f64) -> u64 {
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// Bernoulli trial against a precomputed [`Xorshift64::threshold`]:
    /// the top 53 bits of one raw draw, compared as an integer.
    pub fn trial(&mut self, threshold: u64) -> bool {
        self.next_u64() >> 11 < threshold
    }

    /// The raw internal state: the stream position a checkpoint carries
    /// ([`Xorshift64::walk`]).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Walks the generator's state for a snapshot; a reader refuses the
    /// zero state, which no generator reaches.
    pub fn walk(&mut self, w: &mut impl crate::snap::Walk) -> Result<(), crate::snap::SnapError> {
        w.u64(&mut self.state)?;
        w.check(self.state != 0, "zero xorshift state")
    }

    /// Advances the generator by `n` draws without using the outputs.
    ///
    /// `discard(n)` leaves the generator in exactly the state `n` calls to
    /// [`Xorshift64::next_u64`] would — every derived draw (`below`,
    /// `chance`, ...) consumes one raw output, so batch replay code can
    /// skip a known number of draws and stay on the reference stream.
    pub fn discard(&mut self, n: u64) {
        // The xorshift step is the state transition; the multiply only
        // shapes the output, so discarding needs just the shifts.
        let mut x = self.state;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.state = x;
    }
}

impl Default for Xorshift64 {
    fn default() -> Self {
        Self::new(0xE43A_1D0C)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Xorshift64::new(7);
        let mut b = Xorshift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Xorshift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = Xorshift64::new(3);
        for _ in 0..1000 {
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
            let d = r.next_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Xorshift64::new(5);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Xorshift64::new(11);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xorshift64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    /// `chance` is the float comparison it replaced, `next_f64() < p`, for
    /// every p: random ones, the ends, subnormals, the neighbours of 1 and
    /// of the dyadic points the threshold rounds at, out-of-range values
    /// and NaN — over random states, and at the draws that sit exactly on
    /// a threshold.
    #[test]
    fn integer_trials_match_the_float_comparison() {
        let float = |r: &mut Xorshift64, p: f64| r.next_f64() < p.clamp(0.0, 1.0);
        let mut gen = Xorshift64::new(0xC4A7);
        let mut ps = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            0.3,
            0.5,
        ];
        for _ in 0..2000 {
            let k = gen.next_u64() >> 11;
            let p = k as f64 / (1u64 << 53) as f64;
            ps.extend([p, p.next_up(), p.next_down(), gen.next_f64()]);
        }
        for p in ps {
            let t = Xorshift64::threshold(p);
            assert!(t <= 1 << 53, "threshold {t} for {p}");
            for _ in 0..8 {
                let seed = gen.next_u64();
                let (mut a, mut b) = (Xorshift64::new(seed), Xorshift64::new(seed));
                assert_eq!(a.chance(p), float(&mut b, p), "p = {p:e}, seed {seed:#x}");
                assert_eq!(a, b, "one raw draw each");
            }
            // The draws on either side of the threshold decide it.
            for k in [t.saturating_sub(1), t, t + 1] {
                let k = k.min((1 << 53) - 1);
                assert_eq!(
                    k < t,
                    (k as f64 / (1u64 << 53) as f64) < p.clamp(0.0, 1.0),
                    "k = {k}, p = {p:e}"
                );
            }
        }
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut r = Xorshift64::new(0xFEED);
        for _ in 0..17 {
            r.next_u64();
        }
        use crate::snap::{encode, SnapReader, Walk};
        let bytes = encode(|w| r.walk(w));
        let mut resumed = Xorshift64::new(1);
        resumed.walk(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(r.next_u64(), resumed.next_u64());
        }
        // Zero is no generator's state: no walk may restore it.
        let zero = encode(|w| w.u64(&mut 0));
        assert!(resumed.walk(&mut SnapReader::new(&zero)).is_err());
    }

    #[test]
    fn discard_equals_n_draws() {
        for seed in [1u64, 7, 0xDEAD_BEEF, u64::MAX] {
            for n in [0u64, 1, 2, 13, 100, 1000] {
                let mut drawn = Xorshift64::new(seed);
                for _ in 0..n {
                    drawn.next_u64();
                }
                let mut skipped = Xorshift64::new(seed);
                skipped.discard(n);
                assert_eq!(
                    drawn, skipped,
                    "discard({n}) state mismatch for seed {seed:#x}"
                );
                assert_eq!(drawn.next_u64(), skipped.next_u64());
            }
        }
    }

    #[test]
    fn discard_locked_vectors() {
        // Locked outputs: the draw immediately after discard(n) from fixed
        // seeds. Any change to the state-transition function breaks these.
        let cases: [(u64, u64, u64); 4] = [
            (42, 1, 0x95BC_77BF_EE2D_32A3),
            (42, 10, 0x9610_69F7_1A48_3203),
            (0xC0DE, 100, 0xD91D_A0CB_8E2E_FD52),
            (1, 1000, 0xBE83_F3FE_620A_4D49),
        ];
        for (seed, n, expect) in cases {
            let mut r = Xorshift64::new(seed);
            r.discard(n);
            assert_eq!(
                r.next_u64(),
                expect,
                "locked vector for seed {seed}, discard({n})"
            );
        }
    }
}
