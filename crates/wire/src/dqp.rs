//! Distributed Queue Protocol messages (paper Fig. 24).
//!
//! One packet format serves ADD, ACK and REJ, distinguished by the
//! frame-type field, exactly as in the paper ("Packet format for ADD,
//! ACK, and REJ"). An ADD carries the full request metadata; ACK/REJ
//! echo it so either side can reconstruct state after losses.

use crate::codec::{Reader, WireError, Writer};
use crate::fields::{AbsQueueId, Fidelity16, RequestFlags};

/// The `FT` field of Fig. 24: 00 ADD, 01 ACK, 10 REJ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DqpFrameType {
    /// Request to append an item to the distributed queue.
    Add,
    /// Master/slave acknowledgement — the item is in the queue.
    Ack,
    /// Rejection — queue full, rule violation, or bad purpose ID.
    Rej,
}

impl DqpFrameType {
    fn to_wire(self) -> u8 {
        match self {
            DqpFrameType::Add => 0,
            DqpFrameType::Ack => 1,
            DqpFrameType::Rej => 2,
        }
    }

    fn from_wire(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => DqpFrameType::Add,
            1 => DqpFrameType::Ack,
            2 => DqpFrameType::Rej,
            _ => return Err(WireError::BadValue("FT")),
        })
    }
}

/// One distributed-queue item: the fields of Fig. 24 both nodes hold
/// identically for a request. Declared once and embedded whole in the
/// DQP frame, the pending ADD and the committed queue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueItem {
    /// Absolute queue ID `(QID, QSEQ)` being assigned/confirmed (zero
    /// in a slave's ADD: the master has yet to assign it).
    pub queue_id: AbsQueueId,
    /// First MHP cycle at which the request may be served
    /// (`Schedule Cycle`, the paper's `min_time`).
    pub schedule_cycle: u64,
    /// MHP cycle at which the request times out (`Timeout`).
    pub timeout_cycle: u64,
    /// Requested minimum fidelity.
    pub min_fidelity: Fidelity16,
    /// Purpose ID tagging the application / NL path (§4.1.1 item 7).
    pub purpose_id: u16,
    /// Originator-local create ID.
    pub create_id: u16,
    /// Number of pairs requested.
    pub num_pairs: u16,
    /// Priority (4 bits used — one of the 16 local queues).
    pub priority: u8,
    /// Weighted-fair-queueing virtual finish time
    /// (`Initial Virtual Finish`), stamped by the master at commit.
    pub initial_virtual_finish: f64,
    /// Expected MHP cycles needed per pair (`Estimated Cycles/Pair`),
    /// used for WFQ weighting.
    pub est_cycles_per_pair: u32,
    /// STR / ATM / MD / MR / consecutive flags.
    pub flags: RequestFlags,
}

impl QueueItem {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        self.queue_id.encode(w);
        w.put_u64(self.schedule_cycle);
        w.put_u64(self.timeout_cycle);
        self.min_fidelity.encode(w);
        w.put_u16(self.purpose_id);
        w.put_u16(self.create_id);
        w.put_u16(self.num_pairs);
        w.put_u8(self.priority);
        w.put_f64(self.initial_virtual_finish);
        w.put_u32(self.est_cycles_per_pair);
        self.flags.encode(w);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let queue_id = AbsQueueId::decode(r)?;
        let schedule_cycle = r.get_u64()?;
        let timeout_cycle = r.get_u64()?;
        let min_fidelity = Fidelity16::decode(r)?;
        let purpose_id = r.get_u16()?;
        let create_id = r.get_u16()?;
        let num_pairs = r.get_u16()?;
        let priority = r.get_u8()?;
        if priority >= 16 {
            return Err(WireError::BadValue("priority"));
        }
        let initial_virtual_finish = r.get_f64()?;
        if !initial_virtual_finish.is_finite() || initial_virtual_finish < 0.0 {
            return Err(WireError::BadValue("initial_virtual_finish"));
        }
        let est_cycles_per_pair = r.get_u32()?;
        let flags = RequestFlags::decode(r)?;
        Ok(QueueItem {
            queue_id,
            schedule_cycle,
            timeout_cycle,
            min_fidelity,
            purpose_id,
            create_id,
            num_pairs,
            priority,
            initial_virtual_finish,
            est_cycles_per_pair,
            flags,
        })
    }
}

/// A DQP message (Fig. 24): one queue item and what is being said
/// about it.
#[derive(Debug, Clone, PartialEq)]
pub struct DqpMessage {
    /// ADD / ACK / REJ discriminator.
    pub frame_type: DqpFrameType,
    /// Communication sequence number of this DQP exchange (`CSEQ`),
    /// used to pair ACK/REJ with the ADD they answer.
    pub cseq: u8,
    /// The item being added, confirmed or refused.
    pub item: QueueItem,
}

impl DqpMessage {
    /// Serialises the message body (without frame discriminator / CRC).
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.frame_type.to_wire());
        w.put_u8(self.cseq);
        self.item.encode(w);
    }

    /// Parses a message body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let frame_type = DqpFrameType::from_wire(r.get_u8()?)?;
        let cseq = r.get_u8()?;
        let item = QueueItem::decode(r)?;
        Ok(DqpMessage {
            frame_type,
            cseq,
            item,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DqpMessage {
        DqpMessage {
            frame_type: DqpFrameType::Add,
            cseq: 7,
            item: QueueItem {
                queue_id: AbsQueueId::new(2, 513),
                schedule_cycle: 1_000_000,
                timeout_cycle: 2_000_000,
                min_fidelity: Fidelity16::from_f64(0.64),
                purpose_id: 42,
                create_id: 9,
                num_pairs: 3,
                priority: 2,
                initial_virtual_finish: 123.5,
                est_cycles_per_pair: 2700,
                flags: RequestFlags {
                    store: true,
                    atomic: false,
                    measure_directly: false,
                    master_request: true,
                    consecutive: true,
                },
            },
        }
    }

    #[test]
    fn round_trip_all_frame_types() {
        for ft in [DqpFrameType::Add, DqpFrameType::Ack, DqpFrameType::Rej] {
            let mut msg = sample();
            msg.frame_type = ft;
            let mut w = Writer::new();
            msg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = DqpMessage::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn rejects_bad_frame_type() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] = 3;
        let mut r = Reader::new(&bytes);
        assert_eq!(DqpMessage::decode(&mut r), Err(WireError::BadValue("FT")));
    }

    #[test]
    fn rejects_bad_priority() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let mut bytes = w.into_bytes();
        // priority byte offset: 1 (FT) + 1 (CSEQ) + 3 (aID) + 8 + 8 + 2 + 2 + 2 + 2 = 29.
        bytes[29] = 16;
        let mut r = Reader::new(&bytes);
        assert_eq!(
            DqpMessage::decode(&mut r),
            Err(WireError::BadValue("priority"))
        );
    }

    #[test]
    fn rejects_nan_virtual_finish() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let mut bytes = w.into_bytes();
        for b in &mut bytes[30..38] {
            *b = 0xFF; // an NaN bit pattern
        }
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            DqpMessage::decode(&mut r),
            Err(WireError::BadValue(_))
        ));
    }

    #[test]
    fn truncated_body_detected() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 5, 20, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(DqpMessage::decode(&mut r).is_err(), "cut at {cut} parsed");
        }
    }
}
