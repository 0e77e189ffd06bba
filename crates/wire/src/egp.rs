//! Link-layer EGP messages (paper Figs. 31–33, plus RETRACT).
//!
//! `EXPIRE`, its acknowledgment and `RETRACT` travel between the two
//! nodes' EGPs, so they have byte codecs and cross the lossy classical
//! channel as frames. `CREATE` travels from the higher layer to the EGP
//! on one node and is never serialised. The EGP's answers, `OK` and
//! `ERR` (Figs. 37–39), are values of its own crate (`qlink_egp::egp`).
//! Fig. 34's memory advertisement `REQ(E)`/`ACK(E)` is not modelled,
//! since no node sends it (DESIGN.md, §4.5 flow control).

use crate::codec::{Reader, WireError, Writer};
use crate::fields::{AbsQueueId, Fidelity16, RequestFlags};

/// A `CREATE` request from the higher layer (Fig. 31, §4.1.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateMsg {
    /// Which neighbour to entangle with (nodes may have several links).
    pub remote_node_id: u32,
    /// Desired minimum fidelity `Fmin`.
    pub min_fidelity: Fidelity16,
    /// Maximum wait `tmax` in microseconds (0 = no deadline).
    ///
    /// The figure's 16-bit field is widened to 64 bits here so the
    /// paper's seconds-scale timeouts are representable at the
    /// simulator's precision.
    pub max_time_us: u64,
    /// Application tag (§4.1.1 item 7) — analogous to a port number.
    pub purpose_id: u16,
    /// Number of pairs to produce.
    pub number: u16,
    /// Scheduling priority (paper uses 1 = NL, 2 = CK, 3 = MD).
    pub priority: u8,
    /// Type (K/M), atomic, consecutive flags.
    pub flags: RequestFlags,
}

/// An `EXPIRE` notification (Fig. 32): previously issued OKs covering a
/// sequence-number range must be revoked (§E.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpireMsg {
    /// Absolute queue ID of the affected request.
    pub queue_id: AbsQueueId,
    /// Node where the request originated (`Origin ID`).
    pub origin_id: u32,
    /// The originator's create ID.
    pub create_id: u16,
    /// First MHP sequence number being expired (the stale
    /// `seq_expected` that disagreed with the midpoint).
    pub seq_low: u16,
    /// The sender's new, up-to-date expected sequence number; sequence
    /// numbers in `[seq_low, seq_high)` are revoked.
    pub seq_high: u16,
}

impl ExpireMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        self.queue_id.encode(w);
        w.put_u32(self.origin_id);
        w.put_u16(self.create_id);
        w.put_u16(self.seq_low);
        w.put_u16(self.seq_high);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ExpireMsg {
            queue_id: AbsQueueId::decode(r)?,
            origin_id: r.get_u32()?,
            create_id: r.get_u16()?,
            seq_low: r.get_u16()?,
            seq_high: r.get_u16()?,
        })
    }
}

/// Acknowledgement of an `EXPIRE` (Fig. 33).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpireAckMsg {
    /// Queue ID being acknowledged.
    pub queue_id: AbsQueueId,
    /// The acknowledger's own up-to-date expected MHP sequence number.
    pub seq_expected: u16,
}

impl ExpireAckMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        self.queue_id.encode(w);
        w.put_u16(self.seq_expected);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ExpireAckMsg {
            queue_id: AbsQueueId::decode(r)?,
            seq_expected: r.get_u16()?,
        })
    }
}

/// Full-request retraction: the originator's higher layer abandoned
/// the CREATE (a network-layer attempt failed or was cancelled), so
/// both nodes drop the queued request entirely and stop spending
/// attempt cycles on it. Acknowledged with an `EXPIRE-ACK` for the
/// same queue ID; retransmitted until acknowledged, like `EXPIRE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetractMsg {
    /// Absolute queue ID of the retracted request.
    pub queue_id: AbsQueueId,
    /// Node where the request originated (`Origin ID`).
    pub origin_id: u32,
    /// The originator's create ID.
    pub create_id: u16,
}

impl RetractMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        self.queue_id.encode(w);
        w.put_u32(self.origin_id);
        w.put_u16(self.create_id);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RetractMsg {
            queue_id: AbsQueueId::decode(r)?,
            origin_id: r.get_u32()?,
            create_id: r.get_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expire_round_trip() {
        let msg = ExpireMsg {
            queue_id: AbsQueueId::new(1, 9),
            origin_id: 1,
            create_id: 4,
            seq_low: 10,
            seq_high: 12,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ExpireMsg::decode(&mut r).unwrap(), msg);
    }

    #[test]
    fn expire_ack_round_trip() {
        let msg = ExpireAckMsg {
            queue_id: AbsQueueId::new(0, 1),
            seq_expected: 12,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ExpireAckMsg::decode(&mut r).unwrap(), msg);
    }
}
