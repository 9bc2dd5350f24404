//! A small, fast, fully deterministic PRNG (xoshiro256**) used everywhere a
//! simulation needs randomness.
//!
//! The simulator must be bit-for-bit reproducible from a seed so that every
//! figure regenerates identically; `Prng` avoids depending on external crate
//! version churn for that guarantee. Seeding uses SplitMix64 as recommended
//! by the xoshiro authors.

/// Deterministic xoshiro256** generator.
///
/// ```
/// use zerodev_common::Prng;
/// let mut a = Prng::seeded(42);
/// let mut b = Prng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.below(10);
/// assert!(x < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free approximation is fine for
        // simulation purposes (bias < 2^-32 for bounds below 2^32).
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Forks an independent child generator; the child's stream is decorrelated
    /// from the parent's continuation.
    pub fn fork(&mut self) -> Prng {
        Prng::seeded(self.next_u64() ^ 0xa076_1d64_78bd_642f)
    }
}

/// A discrete Zipf-like sampler over `0..n` with exponent `theta`, using the
/// standard inverse-CDF power approximation (as used by YCSB). Captures the
/// skewed block popularity of real workloads at negligible cost.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`: the second rank's share of the first, drawn against on
    /// every sample.
    half_pow_theta: f64,
}

impl Zipf {
    /// Creates a sampler over `0..n` with skew `theta` in `[0, 1)`;
    /// `theta = 0` degenerates to uniform.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be positive");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5_f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, integral approximation for large n.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Draws one sample in `0..n` (0 is the most popular item).
    pub fn sample(&self, rng: &mut Prng) -> u64 {
        if self.theta == 0.0 {
            return rng.below(self.n);
        }
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta && self.n >= 2 {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Prng::seeded(7);
        let mut b = Prng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seeded(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Prng::seeded(1);
        for bound in [1u64, 2, 7, 1000, 1 << 40] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_panics() {
        Prng::seeded(0).below(0);
    }

    #[test]
    fn unit_in_range() {
        let mut r = Prng::seeded(3);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Prng::seeded(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn fork_decorrelates() {
        let mut a = Prng::seeded(9);
        let mut child = a.fork();
        // The child stream differs from the parent continuation.
        assert_ne!(child.next_u64(), a.clone().next_u64());
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Prng::seeded(11);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn zipf_skews_toward_zero() {
        let z = Zipf::new(1000, 0.9);
        let mut r = Prng::seeded(13);
        let mut zero_hits = 0;
        let mut top_decile = 0;
        for _ in 0..10_000 {
            let s = z.sample(&mut r);
            assert!(s < 1000);
            if s == 0 {
                zero_hits += 1;
            }
            if s < 100 {
                top_decile += 1;
            }
        }
        assert!(zero_hits > 500, "item 0 should be hot: {zero_hits}");
        assert!(top_decile > 6000, "head should dominate: {top_decile}");
    }

    #[test]
    fn zipf_zero_theta_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut r = Prng::seeded(17);
        let mut lo = 0;
        for _ in 0..10_000 {
            if z.sample(&mut r) < 50 {
                lo += 1;
            }
        }
        assert!((4500..5500).contains(&lo));
    }

    #[test]
    fn zipf_large_population() {
        let z = Zipf::new(1 << 24, 0.8);
        let mut r = Prng::seeded(19);
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < (1 << 24));
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 0.5);
    }
}
