//! Lossy, delaying classical channels.
//!
//! A channel is a pure decision function: given a frame and a random
//! stream, it reports whether the frame arrives and after what delay,
//! and leaves in the caller's buffer the bytes as received (possibly
//! corrupted — the CRC at the receiver turns corruption into loss, as
//! in real Ethernet). The DES schedules the delivery event; the
//! channel holds no queue or buffer of its own.

use qlink_des::{DetRng, SimDuration};

/// Speed of light in telecom fiber used throughout the paper (§A.4):
/// 206,753 km/s. The QL2020 delays quoted in §4.4 follow from it
/// (10 km → 48.4 µs, 15 km → 72.6 µs).
pub const SPEED_OF_LIGHT_FIBER_KM_PER_S: f64 = 206_753.0;

/// The fate of one transmitted frame.
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

    /// Submits a frame; returns its fate. Corruption is injected in
    /// place, so `bytes` holds the frame as received.
    pub fn transmit(&mut self, bytes: &mut [u8], rng: &mut DetRng) -> Transmission {
        self.stats.sent += 1;
        if rng.bernoulli(self.loss_probability) {
            self.stats.lost += 1;
            return Transmission::Lost;
        }
        if rng.bernoulli(self.corrupt_probability) && !bytes.is_empty() {
            self.stats.corrupted += 1;
            let bit = rng.below(8 * bytes.len() as u64);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        Transmission::Delivered { delay: self.delay }
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
