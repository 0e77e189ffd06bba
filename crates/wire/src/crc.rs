//! CRC-32 (IEEE 802.3 polynomial) for frame integrity.
//!
//! The paper's link model (Appendix D.6.2) assumes classical frames are
//! CRC-protected and shows the probability of an *undetected* error is
//! negligible (~1.4e-23 at the worst studied SNR), so corrupted frames
//! are simply dropped. We attach a CRC-32 trailer to every control
//! frame; the channel corruption model flips bits and the decoder
//! rejects the frame — the same end-to-end behaviour.

const POLY: u32 = 0xEDB8_8320; // reflected IEEE 802.3 polynomial

/// Slicing-by-8 tables. `TABLES[0][b]` is one byte's worth of the
/// shift/xor loop; `TABLES[k][b]` is the same byte followed by `k` zero
/// bytes, so eight input bytes fold into the register with eight
/// independent lookups instead of eight dependent ones. 8 KiB, built at
/// compile time: every frame is checksummed twice (encode and decode)
/// on every MHP attempt.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC-32 (IEEE) of `data`, eight bytes a step and the
/// tail one byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = data.chunks_exact(8);
    for s in &mut steps {
        // Byte loads, not two 32-bit ones: `Frame::encode` checksums
        // bytes its writer stored a field at a time an instant ago, and
        // a load that straddles those stores waits for them to retire
        // (`frame_encode_gen` 30 ns against 12 ns).
        let c = crc.to_le_bytes();
        crc = TABLES[7][(s[0] ^ c[0]) as usize]
            ^ TABLES[6][(s[1] ^ c[1]) as usize]
            ^ TABLES[5][(s[2] ^ c[2]) as usize]
            ^ TABLES[4][(s[3] ^ c[3]) as usize]
            ^ TABLES[3][s[4] as usize]
            ^ TABLES[2][s[5] as usize]
            ^ TABLES[1][s[6] as usize]
            ^ TABLES[0][s[7] as usize];
    }
    for &byte in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// splitmix64: a self-contained seeded byte source (this crate has
    /// no dependencies).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length 0..=64 at eight start offsets: each tail length
    /// 0..=7 after zero to eight full steps, both MHP payload sizes (12
    /// and 19 bytes), at every alignment of the first step.
    #[test]
    fn table_matches_the_bitwise_definition() {
        for v in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(crc32(v), crc32_bitwise(v));
        }
        let mut state = 0x5eed_c4c3_u64;
        for len in 0..=64usize {
            for offset in 0..8usize {
                for _ in 0..8 {
                    let buf: Vec<u8> = (0..offset + len).map(|_| next(&mut state) as u8).collect();
                    let data = &buf[offset..];
                    assert_eq!(
                        crc32(data),
                        crc32_bitwise(data),
                        "offset {offset}, buffer {data:02x?}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"quantum link layer".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), good, "undetected flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_swaps() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
