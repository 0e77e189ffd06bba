//! A fixed-seed hasher for the simulator's integer-keyed tables.
//!
//! The per-attempt tables of a link — in-flight attempts, open
//! detection windows, the pair ledger — are keyed by MHP cycle numbers
//! the simulation itself counts. `std`'s default SipHash with a
//! per-process random key buys such tables nothing (no key comes from
//! outside the program, so there is no collision attack to resist) and
//! costs more than the rest of the lookup. [`IntMap`] swaps in one
//! widening multiply.
//!
//! The seed is fixed, so an [`IntMap`]'s iteration order is a pure
//! function of its insertion history — but it is still *not* key
//! order: code that emits events while iterating must sort, or use a
//! `BTreeMap`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers the simulation generates itself,
/// hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Folded-multiply hashing of integer keys: the 128-bit product of the
/// key and an odd constant, high half xored into the low half, so low
/// key bits (consecutive cycle numbers) and high key bits
/// (`f64::to_bits` of nearby α) both reach the bucket-index bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

/// 2⁶⁴ / φ, odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// The one key width in use (cycle numbers, α bit patterns); any
    /// other key type still hashes, through [`Hasher::write`].
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(n: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(n)
    }

    #[test]
    fn same_key_same_hash_across_maps() {
        assert_eq!(hash(42), hash(42));
        let mut a: IntMap<u64, u8> = IntMap::default();
        let mut b: IntMap<u64, u8> = IntMap::default();
        for k in [9, 3, 7, 1 << 40, u64::MAX] {
            a.insert(k, 0);
            b.insert(k, 0);
        }
        let order = |m: &IntMap<u64, u8>| m.keys().copied().collect::<Vec<_>>();
        assert_eq!(
            order(&a),
            order(&b),
            "fixed seed: equal histories iterate equally"
        );
    }

    /// Consecutive cycle numbers and keys that differ only in high
    /// bits (`f64::to_bits` of nearby α) must both spread over the low
    /// bits a table indexes by.
    #[test]
    fn sequential_and_high_bit_keys_spread_over_buckets() {
        for keys in [
            (0..256u64).collect::<Vec<_>>(),
            (0..256u64)
                .map(|i| (0.05 + i as f64 * 1e-3).to_bits())
                .collect(),
            (0..256u64).map(|i| i << 48).collect(),
        ] {
            let mut buckets = [0u32; 64];
            for k in keys {
                buckets[(hash(k) & 63) as usize] += 1;
            }
            let worst = buckets.iter().max().unwrap();
            assert!(*worst <= 16, "256 keys over 64 buckets, fullest {worst}");
        }
    }

    #[test]
    fn behaves_as_a_map() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for c in 0..10_000u64 {
            m.insert(c, c * 2);
            if c >= 16 {
                assert_eq!(m.remove(&(c - 16)), Some((c - 16) * 2));
            }
        }
        assert_eq!(m.len(), 16);
        assert_eq!(m.get(&9_999), Some(&19_998));
        assert_eq!(m.get(&1), None);
    }
}
