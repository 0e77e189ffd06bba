//! Lossy, delaying classical channels.
//!
//! A channel is a pure decision function: [`ChannelModel::fate`] takes a
//! frame's *length* and a random stream and says whether the frame is
//! lost, arrives intact, or arrives with one named bit flipped, and
//! after what delay. It never sees the frame — so a sender may ask for
//! the fate before any bytes exist, and carry a frame that arrives
//! intact as the value it already holds. [`ChannelModel::transmit`] is
//! `fate` applied to a buffer: it flips the named bit there, and the CRC
//! at the receiver turns that corruption into loss, as in real Ethernet.
//! Both make the same draws in the same order; there is one draw
//! sequence. The DES schedules the delivery event; the channel holds no
//! queue or buffer of its own.

use qlink_des::{DetRng, SimDuration};

/// Speed of light in telecom fiber used throughout the paper (§A.4):
/// 206,753 km/s. The QL2020 delays quoted in §4.4 follow from it
/// (10 km → 48.4 µs, 15 km → 72.6 µs).
pub const SPEED_OF_LIGHT_FIBER_KM_PER_S: f64 = 206_753.0;

/// What a channel does to one frame, decided from its length alone
/// ([`ChannelModel::fate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The frame is lost in transit.
    Lost,
    /// The frame arrives after `delay`, every bit as sent.
    Intact {
        /// Propagation (plus fixed processing) delay.
        delay: SimDuration,
    },
    /// The frame arrives after `delay` with bit `bit` flipped (bit
    /// `b % 8` of byte `b / 8`). A single flipped bit always fails the
    /// CRC-32, so the receiver drops it (see
    /// [`ChannelModel::corrupt_probability`]).
    Damaged {
        /// Propagation (plus fixed processing) delay.
        delay: SimDuration,
        /// Index of the flipped bit, below eight times the frame length.
        bit: u64,
    },
}

/// The fate of one frame handed to [`ChannelModel::transmit`] as bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transmission {
    /// The frame was lost in transit.
    Lost,
    /// The frame arrives after `delay`, carrying the bytes now in the
    /// buffer handed to [`ChannelModel::transmit`] — a corrupted frame
    /// has one bit flipped there and will fail CRC validation at the
    /// receiver (see [`ChannelModel::corrupt_probability`]).
    Delivered {
        /// Propagation (plus fixed processing) delay.
        delay: SimDuration,
    },
}

/// Counters describing a channel's history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames submitted for transmission.
    pub sent: u64,
    /// Frames dropped by the loss process.
    pub lost: u64,
    /// Frames delivered with injected corruption.
    pub corrupted: u64,
}

/// A point-to-point classical channel model.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Probability that a frame is silently lost.
    pub loss_probability: f64,
    /// Probability that a delivered frame has one bit flipped. The
    /// receiver's CRC check rejects such frames, so corruption behaves
    /// like loss but exercises the parse path (Appendix D.6.2 shows
    /// undetected CRC errors are negligible at ~1.4e-23).
    pub corrupt_probability: f64,
    stats: ChannelStats,
}

impl ChannelModel {
    /// A perfect channel with the given fixed delay.
    pub fn perfect(delay: SimDuration) -> Self {
        ChannelModel {
            delay,
            loss_probability: 0.0,
            corrupt_probability: 0.0,
            stats: ChannelStats::default(),
        }
    }

    /// A channel over `length_km` of fiber at the paper's speed of
    /// light, with the given frame-loss probability.
    ///
    /// # Panics
    /// Panics on negative length or a probability outside `[0, 1]`.
    pub fn fiber(length_km: f64, loss_probability: f64) -> Self {
        assert!(length_km >= 0.0, "negative fiber length");
        assert!(
            (0.0..=1.0).contains(&loss_probability),
            "loss probability {loss_probability}"
        );
        ChannelModel {
            delay: propagation_delay(length_km),
            loss_probability,
            corrupt_probability: 0.0,
            stats: ChannelStats::default(),
        }
    }

    /// Sets the corruption-injection probability (builder style).
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt probability {p}");
        self.corrupt_probability = p;
        self
    }

    /// Channel history counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Decides what happens to a frame of `len` bytes: the loss draw,
    /// then the corruption draw, then — for a corrupted, non-empty
    /// frame — which bit. The only function of the channel that draws
    /// or counts.
    pub fn fate(&mut self, rng: &mut DetRng, len: usize) -> Fate {
        self.stats.sent += 1;
        if rng.bernoulli(self.loss_probability) {
            self.stats.lost += 1;
            return Fate::Lost;
        }
        let delay = self.delay;
        if rng.bernoulli(self.corrupt_probability) && len > 0 {
            self.stats.corrupted += 1;
            let bit = rng.below(8 * len as u64);
            return Fate::Damaged { delay, bit };
        }
        Fate::Intact { delay }
    }

    /// Submits a frame as bytes; returns its fate. Corruption is
    /// injected in place, so `bytes` holds the frame as received.
    pub fn transmit(&mut self, bytes: &mut [u8], rng: &mut DetRng) -> Transmission {
        match self.fate(rng, bytes.len()) {
            Fate::Lost => Transmission::Lost,
            Fate::Intact { delay } => Transmission::Delivered { delay },
            Fate::Damaged { delay, bit } => {
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                Transmission::Delivered { delay }
            }
        }
    }
}

/// One-way propagation delay over `length_km` of fiber.
pub fn propagation_delay(length_km: f64) -> SimDuration {
    SimDuration::from_secs_f64(length_km / SPEED_OF_LIGHT_FIBER_KM_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_delays_reproduced() {
        // §4.4: ≈10 km from A to H → 48.4 µs; ≈15 km from B to H → 72.6 µs.
        let a = propagation_delay(10.0).as_micros_f64();
        let b = propagation_delay(15.0).as_micros_f64();
        assert!((a - 48.4).abs() < 0.1, "10 km delay = {a} µs");
        assert!((b - 72.6).abs() < 0.1, "15 km delay = {b} µs");
        // Lab: metres of fiber → ~ns scale (paper: 9.7 ns).
        let lab = propagation_delay(0.002).as_secs_f64() * 1e9;
        assert!(lab < 15.0, "Lab delay = {lab} ns");
    }

    #[test]
    fn perfect_channel_always_delivers_unchanged() {
        let mut ch = ChannelModel::perfect(SimDuration::from_micros(5));
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            let mut bytes = [1, 2, 3];
            assert_eq!(
                ch.transmit(&mut bytes, &mut rng),
                Transmission::Delivered {
                    delay: SimDuration::from_micros(5)
                }
            );
            assert_eq!(bytes, [1, 2, 3]);
        }
        assert_eq!(ch.stats().sent, 100);
        assert_eq!(ch.stats().lost, 0);
    }

    #[test]
    fn loss_frequency_matches_probability() {
        let mut ch = ChannelModel::fiber(25.0, 0.3);
        let mut rng = DetRng::new(7);
        let mut lost = 0;
        for _ in 0..10_000 {
            if ch.transmit(&mut [0], &mut rng) == Transmission::Lost {
                lost += 1;
            }
        }
        assert!((2_800..=3_200).contains(&lost), "lost {lost}/10000");
        assert_eq!(ch.stats().lost, lost);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut ch = ChannelModel::perfect(SimDuration::ZERO).with_corruption(1.0);
        let mut rng = DetRng::new(3);
        let mut bytes = [0u8; 16];
        assert_ne!(ch.transmit(&mut bytes, &mut rng), Transmission::Lost);
        let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1);
        assert_eq!(ch.stats().corrupted, 1);
    }

    #[test]
    fn corrupted_frames_fail_crc() {
        use qlink_wire::egp::ExpireAckMsg;
        use qlink_wire::fields::AbsQueueId;
        use qlink_wire::Frame;
        let frame = Frame::ExpireAck(ExpireAckMsg {
            queue_id: AbsQueueId::new(0, 1),
            seq_expected: 5,
        });
        let mut ch = ChannelModel::perfect(SimDuration::ZERO).with_corruption(1.0);
        let mut rng = DetRng::new(9);
        let mut bytes = frame.encode();
        assert_ne!(ch.transmit(&mut bytes, &mut rng), Transmission::Lost);
        assert_ne!(bytes, frame.encode(), "corruption lands in the buffer");
        assert!(Frame::decode(&bytes).is_err(), "corrupt frame parsed");
    }

    /// `transmit` is `fate` plus the flip: over one stream the two name
    /// the same fates, and the bit `fate` names is the bit `transmit`
    /// flips.
    #[test]
    fn transmit_flips_the_bit_fate_names() {
        let mut by_len = ChannelModel::fiber(25.0, 0.05).with_corruption(0.3);
        let mut by_bytes = by_len.clone();
        let (mut rng_len, mut rng_bytes) = (DetRng::new(21), DetRng::new(21));
        for _ in 0..2_000 {
            let mut bytes = [0u8; 16];
            let got = by_bytes.transmit(&mut bytes, &mut rng_bytes);
            let flipped: Vec<u64> = (0..128)
                .filter(|b| bytes[b / 8] >> (b % 8) & 1 == 1)
                .map(|b| b as u64)
                .collect();
            match by_len.fate(&mut rng_len, bytes.len()) {
                Fate::Lost => assert_eq!(got, Transmission::Lost),
                Fate::Intact { delay } => {
                    assert_eq!(got, Transmission::Delivered { delay });
                    assert!(flipped.is_empty());
                }
                Fate::Damaged { delay, bit } => {
                    assert_eq!(got, Transmission::Delivered { delay });
                    assert_eq!(flipped, [bit]);
                }
            }
        }
        assert_eq!(by_len.stats(), by_bytes.stats());
        assert!(by_len.stats().corrupted > 400 && by_len.stats().lost > 50);
    }

    /// The in-place `transmit` draws exactly what the by-value one it
    /// replaced drew, in the same order: loss, then corruption, then
    /// the bit. The expected values were recorded on that
    /// implementation over this stream; the digest folds every frame's
    /// fate (lost / clean / which bit flipped), and the trailing draw
    /// shows the generator ends in the same state.
    #[test]
    fn draw_sequence_matches_the_by_value_implementation() {
        use qlink_wire::fields::AbsQueueId;
        use qlink_wire::mhp::GenMsg;
        use qlink_wire::Frame;
        let mut ch = ChannelModel::fiber(25.0, 0.05).with_corruption(0.1);
        let mut rng = DetRng::new(0xC4A7);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..10_000u64 {
            let sent = Frame::Gen(GenMsg {
                queue_id: AbsQueueId::new((i % 16) as u8, i as u16),
                timestamp_cycle: i * 977,
            })
            .encode();
            let mut bytes = sent;
            let fate = match ch.transmit(&mut bytes, &mut rng) {
                Transmission::Lost => u64::MAX,
                Transmission::Delivered { .. } => {
                    let flipped: Vec<usize> = (0..8 * sent.len())
                        .filter(|b| (sent[b / 8] ^ bytes[b / 8]) >> (b % 8) & 1 == 1)
                        .collect();
                    assert!(flipped.len() <= 1);
                    flipped.first().map_or(u64::MAX - 1, |&b| b as u64)
                }
            };
            digest = (digest ^ fate).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(
            ch.stats(),
            ChannelStats {
                sent: 10_000,
                lost: 470,
                corrupted: 946
            }
        );
        assert_eq!(digest, 0x6486_67b9_f95b_161f);
        assert_eq!(rng.below(1 << 32), 0x1404_cec2);
    }

    #[test]
    fn zero_length_fiber_has_zero_delay() {
        let ch = ChannelModel::fiber(0.0, 0.0);
        assert_eq!(ch.delay, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_probability_rejected() {
        ChannelModel::fiber(1.0, 1.5);
    }
}
