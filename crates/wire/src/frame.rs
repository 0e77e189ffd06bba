//! Top-level framing: discriminator byte + message body + CRC-32 trailer.
//!
//! This is the unit the classical channel models carry, drop, and
//! corrupt. A frame that fails its CRC or fails to parse is discarded by
//! the receiver, exactly as an Ethernet NIC discards a bad 802.3 frame —
//! which is the error model of Appendix D.6.
//!
//! A frame is what a node or the midpoint station transmits; the
//! node-local CREATE, OK and ERR are values, never frames. Inside the
//! link simulation the node-to-node frames (DQP, EXPIRE, EXPIRE-ACK and
//! RETRACT) cross their channels as these bytes. The MHP's frames do
//! not: a channel decides a GEN's or a REPLY's fate from
//! [`GEN_FRAME_LEN`](crate::mhp::GEN_FRAME_LEN) or
//! [`REPLY_FRAME_LEN`](crate::mhp::REPLY_FRAME_LEN) alone, and an intact
//! one reaches the station or the node as the [`GenMsg`] or [`ReplyMsg`]
//! it is. That rests on two facts this module's tests hold for every
//! variant: `decode(encode(f))` is `f`, and `encode(f)` with any one bit
//! flipped decodes to an error.

use crate::codec::{FrameBytes, Reader, Writer};
use crate::crc::crc32;
use crate::dqp::DqpMessage;
use crate::egp::{ExpireAckMsg, ExpireMsg, RetractMsg};
use crate::mhp::{GenMsg, ReplyMsg};

pub use crate::codec::WireError;

/// A control message one node transmits over a classical channel.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// DQP ADD / ACK / REJ (node ↔ node).
    Dqp(DqpMessage),
    /// MHP GEN (node → midpoint).
    Gen(GenMsg),
    /// MHP REPLY / ERR (midpoint → node).
    Reply(ReplyMsg),
    /// EGP EXPIRE (node ↔ node).
    Expire(ExpireMsg),
    /// EGP EXPIRE acknowledgement (node ↔ node).
    ExpireAck(ExpireAckMsg),
    /// EGP full-request retraction (node ↔ node).
    Retract(RetractMsg),
}

impl Frame {
    fn discriminator(&self) -> u8 {
        match self {
            Frame::Dqp(_) => 0x01,
            Frame::Gen(_) => 0x02,
            Frame::Reply(_) => 0x03,
            Frame::Expire(_) => 0x04,
            Frame::ExpireAck(_) => 0x05,
            Frame::Retract(_) => 0x0B,
        }
    }

    /// Short protocol name for tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Dqp(_) => "DQP",
            Frame::Gen(_) => "GEN",
            Frame::Reply(_) => "REPLY",
            Frame::Expire(_) => "EXPIRE",
            Frame::ExpireAck(_) => "EXPIRE-ACK",
            Frame::Retract(_) => "RETRACT",
        }
    }

    /// Serialises the frame: `[discriminator][body][crc32]`.
    pub fn encode(&self) -> FrameBytes {
        let mut w = Writer::new();
        w.put_u8(self.discriminator());
        match self {
            Frame::Dqp(m) => m.encode(&mut w),
            Frame::Gen(m) => m.encode(&mut w),
            Frame::Reply(m) => m.encode(&mut w),
            Frame::Expire(m) => m.encode(&mut w),
            Frame::ExpireAck(m) => m.encode(&mut w),
            Frame::Retract(m) => m.encode(&mut w),
        }
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        w.into_bytes()
    }

    /// Parses and validates a frame, verifying the CRC trailer and that
    /// the body is exactly consumed.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        if bytes.len() < 5 {
            return Err(WireError::Truncated {
                needed: 5,
                got: bytes.len(),
            });
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(WireError::BadCrc { computed, stored });
        }
        let mut r = Reader::new(payload);
        let disc = r.get_u8()?;
        let frame = match disc {
            0x01 => Frame::Dqp(DqpMessage::decode(&mut r)?),
            0x02 => Frame::Gen(GenMsg::decode(&mut r)?),
            0x03 => Frame::Reply(ReplyMsg::decode(&mut r)?),
            0x04 => Frame::Expire(ExpireMsg::decode(&mut r)?),
            0x05 => Frame::ExpireAck(ExpireAckMsg::decode(&mut r)?),
            0x0B => Frame::Retract(RetractMsg::decode(&mut r)?),
            _ => return Err(WireError::BadValue("frame discriminator")),
        };
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FRAME_MAX;
    use crate::fields::{AbsQueueId, Fidelity16, MidpointOutcome, ReplyOutcome, RequestFlags};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Gen(GenMsg {
                queue_id: AbsQueueId::new(1, 2),
                timestamp_cycle: 3,
            }),
            Frame::Reply(ReplyMsg {
                outcome: ReplyOutcome::Attempt(MidpointOutcome::PsiPlus),
                mhp_seq: 4,
                receiver_qid: AbsQueueId::new(1, 2),
                peer_qid: Some(AbsQueueId::new(1, 2)),
                timestamp_cycle: 3,
            }),
            Frame::Expire(ExpireMsg {
                queue_id: AbsQueueId::new(0, 0),
                origin_id: 1,
                create_id: 0,
                seq_low: 1,
                seq_high: 2,
            }),
            Frame::ExpireAck(ExpireAckMsg {
                queue_id: AbsQueueId::new(0, 0),
                seq_expected: 2,
            }),
            Frame::Retract(RetractMsg {
                queue_id: AbsQueueId::new(0, 5),
                origin_id: 1,
                create_id: 7,
            }),
        ]
    }

    /// Every variant, every field at its largest encodable value.
    fn max_field_frames() -> Vec<Frame> {
        use crate::dqp::{DqpFrameType, QueueItem};
        let aid = AbsQueueId::new(AbsQueueId::MAX_QUEUES - 1, u16::MAX);
        let flags = RequestFlags {
            store: false,
            atomic: true,
            measure_directly: true,
            master_request: true,
            consecutive: true,
        };
        vec![
            Frame::Dqp(DqpMessage {
                frame_type: DqpFrameType::Rej,
                cseq: u8::MAX,
                item: QueueItem {
                    queue_id: aid,
                    schedule_cycle: u64::MAX,
                    timeout_cycle: u64::MAX,
                    min_fidelity: Fidelity16::from_f64(1.0),
                    purpose_id: u16::MAX,
                    create_id: u16::MAX,
                    num_pairs: u16::MAX,
                    priority: 15,
                    initial_virtual_finish: f64::MAX,
                    est_cycles_per_pair: u32::MAX,
                    flags,
                },
            }),
            Frame::Gen(GenMsg {
                queue_id: aid,
                timestamp_cycle: u64::MAX,
            }),
            Frame::Reply(ReplyMsg {
                outcome: ReplyOutcome::Error(crate::fields::MhpError::NoMessageOther),
                mhp_seq: u16::MAX,
                receiver_qid: aid,
                peer_qid: Some(aid),
                timestamp_cycle: u64::MAX,
            }),
            Frame::Expire(ExpireMsg {
                queue_id: aid,
                origin_id: u32::MAX,
                create_id: u16::MAX,
                seq_low: u16::MAX,
                seq_high: u16::MAX,
            }),
            Frame::ExpireAck(ExpireAckMsg {
                queue_id: aid,
                seq_expected: u16::MAX,
            }),
            Frame::Retract(RetractMsg {
                queue_id: aid,
                origin_id: u32::MAX,
                create_id: u16::MAX,
            }),
        ]
    }

    #[test]
    fn every_variant_at_field_maxima_fits_the_inline_buffer() {
        let frames = max_field_frames();
        // One of each: a new variant must be added to the list above.
        let mut discriminators: Vec<u8> = frames.iter().map(Frame::discriminator).collect();
        discriminators.dedup();
        assert_eq!(discriminators, [0x01, 0x02, 0x03, 0x04, 0x05, 0x0B]);
        let mut longest = 0;
        for f in frames {
            // `encode` would have panicked past FRAME_MAX.
            let bytes = f.encode();
            longest = longest.max(bytes.len());
            assert_eq!(Frame::decode(&bytes).unwrap(), f, "{}", f.kind());
        }
        assert_eq!(longest, FRAME_MAX, "FRAME_MAX is the longest frame");
    }

    /// The two facts a frame carried by value rests on (the simulator hands
    /// an intact GEN or REPLY over without serialising it): a frame no
    /// channel touched decodes to the value that was encoded, and a frame
    /// with any one bit flipped decodes to nothing. Exhaustive over both
    /// frame lists, ≈ 15 k flips.
    #[test]
    fn single_flipped_bit_in_the_inline_buffer_fails_decode() {
        for f in max_field_frames().into_iter().chain(sample_frames()) {
            let bytes = f.encode();
            assert_eq!(Frame::decode(&bytes).as_ref(), Ok(&f), "{}", f.kind());
            for bit in 0..8 * bytes.len() {
                let mut bad = bytes;
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    Frame::decode(&bad).is_err(),
                    "{}: flipped bit {bit} went undetected",
                    f.kind()
                );
            }
        }
    }

    #[test]
    fn a_gen_frame_is_gen_frame_len_bytes() {
        use crate::mhp::GEN_FRAME_LEN;
        for f in max_field_frames().into_iter().chain(sample_frames()) {
            if matches!(f, Frame::Gen(_)) {
                assert_eq!(f.encode().len(), GEN_FRAME_LEN);
            }
        }
    }

    /// Every REPLY the station can send — peer present or not, each
    /// outcome it puts on the wire — is one length, the one a channel is
    /// asked to decide a REPLY's fate from.
    #[test]
    fn a_reply_frame_is_reply_frame_len_bytes() {
        use crate::fields::MhpError;
        use crate::mhp::REPLY_FRAME_LEN;
        let outcomes = [
            ReplyOutcome::Attempt(MidpointOutcome::Fail),
            ReplyOutcome::Attempt(MidpointOutcome::PsiPlus),
            ReplyOutcome::Attempt(MidpointOutcome::PsiMinus),
            ReplyOutcome::Error(MhpError::QueueMismatch),
            ReplyOutcome::Error(MhpError::TimeMismatch),
            ReplyOutcome::Error(MhpError::NoMessageOther),
        ];
        let mut replies = 0;
        for f in max_field_frames().into_iter().chain(sample_frames()) {
            let Frame::Reply(reply) = f else { continue };
            for outcome in outcomes {
                for peer_qid in [None, Some(reply.receiver_qid)] {
                    let f = Frame::Reply(ReplyMsg {
                        outcome,
                        peer_qid,
                        ..reply
                    });
                    assert_eq!(f.encode().len(), REPLY_FRAME_LEN, "{f:?}");
                    replies += 1;
                }
            }
        }
        assert_eq!(replies, 2 * 2 * outcomes.len());
    }

    #[test]
    fn round_trip_every_frame_kind() {
        for f in sample_frames() {
            let bytes = f.encode();
            let back = Frame::decode(&bytes).unwrap();
            assert_eq!(back, f, "round trip failed for {}", f.kind());
        }
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        for f in sample_frames() {
            let bytes = f.encode();
            for i in 0..bytes.len() {
                let mut bad = bytes;
                bad[i] ^= 0x40;
                assert!(
                    Frame::decode(&bad).is_err(),
                    "{}: flip at byte {i} went undetected",
                    f.kind()
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_frames()[0].encode();
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_discriminator_rejected() {
        let mut w = Writer::new();
        w.put_u8(0x7F);
        w.put_u32(crc32(&[0x7F]));
        let bytes = w.into_bytes();
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::BadValue("frame discriminator"))
        );
    }

    #[test]
    fn kind_strings() {
        assert_eq!(sample_frames()[0].kind(), "GEN");
        assert_eq!(sample_frames()[1].kind(), "REPLY");
    }
}
