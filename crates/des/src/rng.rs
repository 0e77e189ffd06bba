//! Deterministic randomness with per-component substreams.
//!
//! A simulation run is seeded once; every component (node A's MHP, node
//! B's EGP, the heralding station, each fiber...) derives its own
//! independent stream from the master seed and a stable label. Adding or
//! reordering components therefore never perturbs the random draws of
//! existing components — a property the regression tests rely on.
//!
//! The generator is xoshiro256** (Blackman and Vigna), seeded from a
//! `u64` by splitmix64: state word `i` is
//! `splitmix64(seed + i·0x9E3779B97F4A7C15)`.

/// splitmix64's increment, the golden ratio in 64 bits.
const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// A deterministic random source for one simulation run.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    s: [u64; 4],
}

impl DetRng {
    /// Creates the master stream from a run seed.
    pub fn new(seed: u64) -> Self {
        let s =
            std::array::from_fn(|i| splitmix64(seed.wrapping_add((i as u64).wrapping_mul(GOLDEN))));
        // xoshiro must not start from the all-zero state, and cannot:
        // splitmix64 is a bijection, so the four words hash four distinct
        // inputs and at most one of them is 0.
        debug_assert_ne!(s, [0; 4]);
        DetRng { seed, s }
    }

    /// The run seed this stream (family) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream for a named component.
    ///
    /// The derivation depends only on `(seed, label)` — not on how many
    /// draws the parent has made — so substreams are stable across code
    /// changes elsewhere.
    pub fn substream(&self, label: &str) -> DetRng {
        DetRng::new(splitmix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// The next 64 random bits: one xoshiro256** step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Samples `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "bernoulli p = {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Uniform `f64` in `[0, 1)`: 53 uniform mantissa bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws `N` uniforms in `[0, 1)` in one call — the exact stream
    /// `N` successive [`DetRng::uniform`] calls would produce (index 0
    /// first), so hot paths can hoist their randomness out of inner
    /// loops without perturbing reproducibility.
    pub fn uniform_batch<const N: usize>(&mut self) -> [f64; N] {
        std::array::from_fn(|_| self.uniform())
    }

    /// Uniform integer in `[0, n)`, unbiased: a word in the top
    /// `u64::MAX % n` values is rejected and redrawn.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Samples an index according to a discrete distribution given by
    /// non-negative weights (need not be normalised).
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "bad weights");
        let mut draw = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn raw(&mut self) -> &mut DetRng { self } // benchmark-compat: ROADMAP item 1 deletes this
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The splitmix64 finaliser: a bijective, well-mixed hash of `x`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent_of_parent_draws() {
        let parent1 = DetRng::new(99);
        let mut parent2 = DetRng::new(99);
        // Drain some draws from parent2 before forking.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut s1 = parent1.substream("nodeA/mhp");
        let mut s2 = parent2.substream("nodeA/mhp");
        for _ in 0..50 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn distinct_labels_distinct_streams() {
        let root = DetRng::new(7);
        let mut a = root.substream("nodeA");
        let mut b = root.substream("nodeB");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_batch_matches_sequential_draws() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let batch: [f64; 4] = a.uniform_batch();
        for u in batch {
            assert_eq!(u.to_bits(), b.uniform().to_bits());
        }
        // The streams stay aligned afterwards too.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut r = DetRng::new(3);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = DetRng::new(5);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((2_800..=3_200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = DetRng::new(11);
        let mut counts = [0usize; 3];
        for _ in 0..9_000 {
            counts[r.weighted_index(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!((800..=1_200).contains(&counts[0]), "{counts:?}");
        assert!((1_700..=2_300).contains(&counts[1]), "{counts:?}");
        assert!((5_500..=6_500).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn below_bounds() {
        let mut r = DetRng::new(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert_eq!(seen, [true; 7], "below(7) hits every residue");
    }

    #[test]
    #[should_panic(expected = "bernoulli p")]
    fn bernoulli_rejects_bad_p() {
        DetRng::new(0).bernoulli(1.5);
    }
    /// The stream every seeded digest in the workspace rests on, word for
    /// word: a change to the generator, its seeding, the substream
    /// derivation, `uniform` or `below` shows here first.
    #[test]
    fn the_stream_is_pinned() {
        let mut r = DetRng::new(7);
        let words: [u64; 8] = std::array::from_fn(|_| r.next_u64());
        assert_eq!(
            words,
            [
                0xb358faf74ef9765a,
                0x475c3d964f482cd2,
                0xd6f1d349952c7996,
                0xfb2938731e807240,
                0xfda904ec7e540318,
                0xdf6e1ce3b6218c49,
                0x0f8d72c295ec5854,
                0x1abc4dcb546f61dc,
            ]
        );
        let mut physics = DetRng::new(7).substream("physics");
        let words: [u64; 8] = std::array::from_fn(|_| physics.next_u64());
        assert_eq!(
            words,
            [
                0x6cda94f4e81f57a0,
                0xf07779feb42c86ee,
                0xaa69fc2e7b567dfc,
                0x6bb4f5fe7fd06a49,
                0xa1be9a5802e84a99,
                0xb39da3445a624dc8,
                0x7717f8fa926d43fc,
                0x53b4f66b1b093ce8,
            ]
        );
        assert_eq!(r.uniform().to_bits(), 0x3fd9d653e5b2b220);
        assert_eq!(r.below(7), 5);
        // A bound of 2⁶³ + 1 rejects every word above it, and the next
        // word is one: the rejection loop runs.
        assert!(r.clone().next_u64() > 1 << 63);
        assert_eq!(r.below((1 << 63) + 1), 8327222803780191930);
        assert_eq!(r.next_u64(), 0x8f95c6110184b24b);
    }

    #[test]
    fn uniform_stays_in_the_unit_interval_and_is_balanced() {
        let mut r = DetRng::new(3);
        let mut below_half = 0u32;
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
            below_half += (x < 0.5) as u32;
        }
        assert!((4_700..=5_300).contains(&below_half), "{below_half}");
    }
}
