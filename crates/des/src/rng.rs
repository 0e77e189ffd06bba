//! Deterministic randomness with per-component substreams.
//!
//! A simulation run is seeded once; every component (node A's MHP, node
//! B's EGP, the heralding station, each fiber...) derives its own
//! independent stream from the master seed and a stable label. Adding or
//! reordering components therefore never perturbs the random draws of
//! existing components — a property the regression tests rely on.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random source for one simulation run.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Creates the master stream from a run seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
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
        let derived = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        DetRng {
            seed: derived,
            inner: StdRng::seed_from_u64(derived),
        }
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
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Draws `N` uniforms in `[0, 1)` in one call — the exact stream
    /// `N` successive [`DetRng::uniform`] calls would produce (index 0
    /// first), so hot paths can hoist their randomness out of inner
    /// loops without perturbing reproducibility.
    pub fn uniform_batch<const N: usize>(&mut self) -> [f64; N] {
        std::array::from_fn(|_| self.inner.gen::<f64>())
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Samples an index according to a discrete distribution given by
    /// non-negative weights (need not be normalised).
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "bad weights");
        let mut draw = self.inner.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// Access the underlying `rand` RNG (for APIs that take `impl Rng`).
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
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
    x = x.wrapping_add(0x9E3779B97F4A7C15);
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
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bernoulli p")]
    fn bernoulli_rejects_bad_p() {
        DetRng::new(0).bernoulli(1.5);
    }
}
