//! Physical-layer MHP messages (paper Figs. 27 and 28).
//!
//! `GEN` travels from a node to the heralding station alongside the
//! photon; `REPLY` returns the heralding signal (or a control error) to
//! both nodes. The midpoint matches the two `GEN`s by their timestamp
//! (detection window) and verifies the absolute queue IDs agree
//! (Protocol 1, step 2).

use crate::codec::{Reader, WireError, Writer};
use crate::fields::{AbsQueueId, ReplyOutcome};

/// The length of a GEN frame (1 discriminator + 11 body + 4 CRC
/// bytes): what a channel needs to know of a GEN to decide its fate.
pub const GEN_FRAME_LEN: usize = 16;

/// The length of a REPLY frame (1 discriminator + 18 body + 4 CRC
/// bytes): what a channel needs to know of a REPLY to decide its fate.
pub const REPLY_FRAME_LEN: usize = 23;

/// The `GEN` frame a node sends to the midpoint (Fig. 27), augmented —
/// per §5.1.1 — with the timestamp that links it to a detection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenMsg {
    /// Absolute queue ID of the request this attempt serves. The
    /// midpoint checks both nodes sent the same ID.
    pub queue_id: AbsQueueId,
    /// The MHP cycle number stamping the detection window this photon
    /// belongs to (§5.1.1: "a GEN message … which includes a timestamp").
    pub timestamp_cycle: u64,
}

impl GenMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        self.queue_id.encode(w);
        w.put_u64(self.timestamp_cycle);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GenMsg {
            queue_id: AbsQueueId::decode(r)?,
            timestamp_cycle: r.get_u64()?,
        })
    }
}

/// The `REPLY`/`ERR` frame from the midpoint (Fig. 28).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMsg {
    /// Outcome (`OT`): heralding result or control error.
    pub outcome: ReplyOutcome,
    /// Midpoint sequence number (`SEQ`) uniquely numbering successful
    /// pairs; lets the EGP detect missed OKs (Protocol 2, step 3).
    pub mhp_seq: u16,
    /// Absolute queue ID the *receiving* node submitted (`QID`/`QSEQ`).
    pub receiver_qid: AbsQueueId,
    /// Absolute queue ID the *peer* node submitted (`QIDP`/`QSEQP`);
    /// `None` encodes the zero string of Protocol 1 step 2(a)(iii)
    /// (peer message never arrived).
    pub peer_qid: Option<AbsQueueId>,
    /// The MHP cycle (detection window) this reply answers.
    pub timestamp_cycle: u64,
}

impl ReplyMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.outcome.to_wire());
        w.put_u16(self.mhp_seq);
        self.receiver_qid.encode(w);
        match self.peer_qid {
            Some(id) => {
                w.put_u8(1);
                id.encode(w);
            }
            None => {
                w.put_u8(0);
                AbsQueueId::new(0, 0).encode(w);
            }
        }
        w.put_u64(self.timestamp_cycle);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let outcome = ReplyOutcome::from_wire(r.get_u8()?)?;
        let mhp_seq = r.get_u16()?;
        let receiver_qid = AbsQueueId::decode(r)?;
        let has_peer = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::BadValue("peer-present flag")),
        };
        let raw_peer = AbsQueueId::decode(r)?;
        let peer_qid = has_peer.then_some(raw_peer);
        let timestamp_cycle = r.get_u64()?;
        Ok(ReplyMsg {
            outcome,
            mhp_seq,
            receiver_qid,
            peer_qid,
            timestamp_cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{MhpError, MidpointOutcome};

    #[test]
    fn gen_round_trip() {
        let msg = GenMsg {
            queue_id: AbsQueueId::new(1, 77),
            timestamp_cycle: 123_456_789_012,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(GenMsg::decode(&mut r).unwrap(), msg);
        r.finish().unwrap();
    }

    #[test]
    fn reply_round_trip_success() {
        let msg = ReplyMsg {
            outcome: ReplyOutcome::Attempt(MidpointOutcome::PsiMinus),
            mhp_seq: 42,
            receiver_qid: AbsQueueId::new(0, 5),
            peer_qid: Some(AbsQueueId::new(0, 5)),
            timestamp_cycle: 999,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ReplyMsg::decode(&mut r).unwrap(), msg);
    }

    #[test]
    fn reply_round_trip_no_peer() {
        let msg = ReplyMsg {
            outcome: ReplyOutcome::Error(MhpError::NoMessageOther),
            mhp_seq: 0,
            receiver_qid: AbsQueueId::new(2, 9),
            peer_qid: None,
            timestamp_cycle: 3,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = ReplyMsg::decode(&mut r).unwrap();
        assert_eq!(back, msg);
        assert!(back.peer_qid.is_none());
    }

    #[test]
    fn reply_rejects_bad_flag() {
        let msg = ReplyMsg {
            outcome: ReplyOutcome::Attempt(MidpointOutcome::Fail),
            mhp_seq: 1,
            receiver_qid: AbsQueueId::new(0, 0),
            peer_qid: None,
            timestamp_cycle: 0,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[6] = 2; // peer-present flag offset: 1 (OT) + 2 (SEQ) + 3 (aID)
        let mut r = Reader::new(&bytes);
        assert!(ReplyMsg::decode(&mut r).is_err());
    }

    #[test]
    fn gen_truncation() {
        let msg = GenMsg {
            queue_id: AbsQueueId::new(0, 0),
            timestamp_cycle: 7,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(GenMsg::decode(&mut r).is_err());
    }
}
