//! Link-layer EGP messages (paper Figs. 31–34 and 37–39).
//!
//! `CREATE`, `OK` and `ERR` travel between the higher layer and the EGP
//! on a node; `EXPIRE`, its acknowledgment, and the memory
//! advertisement `REQ(E)`/`ACK(E)` travel between the two nodes' EGPs.
//! All are given byte codecs so the inter-node ones can ride the lossy
//! classical channel, and the node-local ones can be logged/replayed.

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

impl CreateMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.remote_node_id);
        self.min_fidelity.encode(w);
        w.put_u64(self.max_time_us);
        w.put_u16(self.purpose_id);
        w.put_u16(self.number);
        w.put_u8(self.priority);
        self.flags.encode(w);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let remote_node_id = r.get_u32()?;
        let min_fidelity = Fidelity16::decode(r)?;
        let max_time_us = r.get_u64()?;
        let purpose_id = r.get_u16()?;
        let number = r.get_u16()?;
        if number == 0 {
            return Err(WireError::BadValue("number of pairs = 0"));
        }
        let priority = r.get_u8()?;
        if priority >= 16 {
            return Err(WireError::BadValue("priority"));
        }
        let flags = RequestFlags::decode(r)?;
        Ok(CreateMsg {
            remote_node_id,
            min_fidelity,
            max_time_us,
            purpose_id,
            number,
            priority,
            flags,
        })
    }
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

/// Memory advertisement `REQ(E)` / `ACK(E)` (Fig. 34): each EGP tells
/// its peer how many communication and storage qubits are free, used
/// for flow control (§4.5 "Scheduling and flow control").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAdvertMsg {
    /// `false` = REQ(E) (solicits a reply), `true` = ACK(E).
    pub is_ack: bool,
    /// Free communication qubits (`CMS`).
    pub comm_qubits: u8,
    /// Free storage qubits (`STRG`).
    pub storage_qubits: u8,
}

impl MemoryAdvertMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.is_ack as u8);
        w.put_u8(self.comm_qubits);
        w.put_u8(self.storage_qubits);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let is_ack = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::BadValue("REQ(E) type")),
        };
        Ok(MemoryAdvertMsg {
            is_ack,
            comm_qubits: r.get_u8()?,
            storage_qubits: r.get_u8()?,
        })
    }
}

/// Measurement basis carried in an M-type OK (Fig. 38 `Basis`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireBasis {
    /// Pauli-X basis.
    X,
    /// Pauli-Y basis.
    Y,
    /// Pauli-Z (standard) basis.
    Z,
}

impl WireBasis {
    fn to_wire(self) -> u8 {
        match self {
            WireBasis::X => 0,
            WireBasis::Y => 1,
            WireBasis::Z => 2,
        }
    }

    fn from_wire(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => WireBasis::X,
            1 => WireBasis::Y,
            2 => WireBasis::Z,
            _ => return Err(WireError::BadValue("basis")),
        })
    }
}

/// The `OK` for a create-and-keep request (Fig. 37, §4.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct OkKeepMsg {
    /// Echo of the request's create ID.
    pub create_id: u16,
    /// Logical qubit ID where the local half of the pair is stored.
    pub logical_qubit_id: u8,
    /// Directionality flag `D`: `true` when this node originated the
    /// request.
    pub origin_is_local: bool,
    /// Midpoint sequence number — with the two node IDs this forms the
    /// network-unique entanglement identifier (§4.1.2 item 1).
    pub sequence_number: u16,
    /// Purpose ID echo.
    pub purpose_id: u16,
    /// The peer node ID.
    pub remote_node_id: u32,
    /// Goodness: fidelity estimate from the FEU (§4.1.2 item 3).
    pub goodness: Fidelity16,
    /// When the goodness estimate was made, in simulated picoseconds
    /// (Fig. 37's `Goodness Time`, widened for simulator precision).
    pub goodness_time_ps: u64,
    /// When the pair was created, in simulated picoseconds.
    pub create_time_ps: u64,
}

impl OkKeepMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u16(self.create_id);
        w.put_u8(self.logical_qubit_id);
        w.put_u8(self.origin_is_local as u8);
        w.put_u16(self.sequence_number);
        w.put_u16(self.purpose_id);
        w.put_u32(self.remote_node_id);
        self.goodness.encode(w);
        w.put_u64(self.goodness_time_ps);
        w.put_u64(self.create_time_ps);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OkKeepMsg {
            create_id: r.get_u16()?,
            logical_qubit_id: r.get_u8()?,
            origin_is_local: match r.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::BadValue("D flag")),
            },
            sequence_number: r.get_u16()?,
            purpose_id: r.get_u16()?,
            remote_node_id: r.get_u32()?,
            goodness: Fidelity16::decode(r)?,
            goodness_time_ps: r.get_u64()?,
            create_time_ps: r.get_u64()?,
        })
    }
}

/// The `OK` for a measure-directly request (Fig. 38).
#[derive(Debug, Clone, PartialEq)]
pub struct OkMeasureMsg {
    /// Echo of the request's create ID.
    pub create_id: u16,
    /// Measurement outcome `M` (0/1).
    pub outcome: u8,
    /// The basis measured in.
    pub basis: WireBasis,
    /// Directionality flag `D`.
    pub origin_is_local: bool,
    /// Midpoint sequence number (entanglement identifier part).
    pub sequence_number: u16,
    /// Purpose ID echo.
    pub purpose_id: u16,
    /// The peer node ID.
    pub remote_node_id: u32,
    /// Goodness: QBER estimate for M-type requests (§4.1.2 item 3),
    /// encoded like a fidelity.
    pub goodness: Fidelity16,
    /// When the pair was created, in simulated picoseconds.
    pub create_time_ps: u64,
}

impl OkMeasureMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u16(self.create_id);
        w.put_u8(self.outcome);
        w.put_u8(self.basis.to_wire());
        w.put_u8(self.origin_is_local as u8);
        w.put_u16(self.sequence_number);
        w.put_u16(self.purpose_id);
        w.put_u32(self.remote_node_id);
        self.goodness.encode(w);
        w.put_u64(self.create_time_ps);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let create_id = r.get_u16()?;
        let outcome = r.get_u8()?;
        if outcome > 1 {
            return Err(WireError::BadValue("measurement outcome"));
        }
        let basis = WireBasis::from_wire(r.get_u8()?)?;
        let origin_is_local = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::BadValue("D flag")),
        };
        Ok(OkMeasureMsg {
            create_id,
            outcome,
            basis,
            origin_is_local,
            sequence_number: r.get_u16()?,
            purpose_id: r.get_u16()?,
            remote_node_id: r.get_u32()?,
            goodness: Fidelity16::decode(r)?,
            create_time_ps: r.get_u64()?,
        })
    }
}

/// Error codes carried by `ERR` messages (Fig. 39, §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EgpErrorCode {
    /// The request could not be completed within its time frame.
    Timeout,
    /// The requested fidelity is unachievable within `tmax` — rejected
    /// immediately.
    Unsupported,
    /// Quantum storage permanently too small for an atomic request.
    MemExceeded,
    /// Quantum storage temporarily exhausted.
    OutOfMem,
    /// The remote node refused to participate.
    Denied,
    /// Previously issued OK(s) are revoked (inconsistency recovery).
    Expire,
    /// The distributed queue add timed out (Protocol 2 `ERR_NOTIME`).
    NoTime,
    /// The distributed queue add was rejected (`ERR_REJECTED`).
    Rejected,
}

impl EgpErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            EgpErrorCode::Timeout => 0,
            EgpErrorCode::Unsupported => 1,
            EgpErrorCode::MemExceeded => 2,
            EgpErrorCode::OutOfMem => 3,
            EgpErrorCode::Denied => 4,
            EgpErrorCode::Expire => 5,
            EgpErrorCode::NoTime => 6,
            EgpErrorCode::Rejected => 7,
        }
    }

    fn from_wire(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => EgpErrorCode::Timeout,
            1 => EgpErrorCode::Unsupported,
            2 => EgpErrorCode::MemExceeded,
            3 => EgpErrorCode::OutOfMem,
            4 => EgpErrorCode::Denied,
            5 => EgpErrorCode::Expire,
            6 => EgpErrorCode::NoTime,
            7 => EgpErrorCode::Rejected,
            _ => return Err(WireError::BadValue("EGP error code")),
        })
    }
}

/// An `ERR` message from the EGP to the higher layer (Fig. 39).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrMsg {
    /// What went wrong.
    pub code: EgpErrorCode,
    /// Create ID of the affected request.
    pub create_id: u16,
    /// Origin node of the affected request.
    pub origin_node_id: u32,
    /// `S` flag: when `true`, only sequence numbers in
    /// `[seq_low, seq_high)` are affected; when `false`, the whole
    /// request is.
    pub range_only: bool,
    /// Start of the affected sequence range (valid when `range_only`).
    pub seq_low: u16,
    /// End (exclusive) of the affected sequence range.
    pub seq_high: u16,
}

impl ErrMsg {
    /// Serialises the body.
    #[inline]
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.code.to_wire());
        w.put_u16(self.create_id);
        w.put_u32(self.origin_node_id);
        w.put_u8(self.range_only as u8);
        w.put_u16(self.seq_low);
        w.put_u16(self.seq_high);
    }

    /// Parses the body.
    #[inline]
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ErrMsg {
            code: EgpErrorCode::from_wire(r.get_u8()?)?,
            create_id: r.get_u16()?,
            origin_node_id: r.get_u32()?,
            range_only: match r.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::BadValue("S flag")),
            },
            seq_low: r.get_u16()?,
            seq_high: r.get_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_round_trip() {
        let msg = CreateMsg {
            remote_node_id: 2,
            min_fidelity: Fidelity16::from_f64(0.64),
            max_time_us: 5_000_000,
            purpose_id: 17,
            number: 3,
            priority: 1,
            flags: RequestFlags {
                store: true,
                consecutive: true,
                ..Default::default()
            },
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(CreateMsg::decode(&mut r).unwrap(), msg);
        r.finish().unwrap();
    }

    #[test]
    fn create_rejects_zero_pairs() {
        let msg = CreateMsg {
            remote_node_id: 0,
            min_fidelity: Fidelity16::from_f64(0.5),
            max_time_us: 0,
            purpose_id: 0,
            number: 1,
            priority: 0,
            flags: RequestFlags::default(),
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let mut bytes = w.into_bytes();
        // `number` field offset: 4 + 2 + 8 + 2 = 16.
        bytes[16] = 0;
        bytes[17] = 0;
        let mut r = Reader::new(&bytes);
        assert!(CreateMsg::decode(&mut r).is_err());
    }

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

    #[test]
    fn memory_advert_round_trip() {
        for is_ack in [false, true] {
            let msg = MemoryAdvertMsg {
                is_ack,
                comm_qubits: 1,
                storage_qubits: 1,
            };
            let mut w = Writer::new();
            msg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(MemoryAdvertMsg::decode(&mut r).unwrap(), msg);
        }
    }

    #[test]
    fn ok_keep_round_trip() {
        let msg = OkKeepMsg {
            create_id: 3,
            logical_qubit_id: 1,
            origin_is_local: true,
            sequence_number: 88,
            purpose_id: 5,
            remote_node_id: 2,
            goodness: Fidelity16::from_f64(0.71),
            goodness_time_ps: 123_456,
            create_time_ps: 123_000,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(OkKeepMsg::decode(&mut r).unwrap(), msg);
    }

    #[test]
    fn ok_measure_round_trip() {
        for basis in [WireBasis::X, WireBasis::Y, WireBasis::Z] {
            let msg = OkMeasureMsg {
                create_id: 3,
                outcome: 1,
                basis,
                origin_is_local: false,
                sequence_number: 7,
                purpose_id: 0,
                remote_node_id: 1,
                goodness: Fidelity16::from_f64(0.03),
                create_time_ps: 55,
            };
            let mut w = Writer::new();
            msg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(OkMeasureMsg::decode(&mut r).unwrap(), msg);
        }
    }

    #[test]
    fn ok_measure_rejects_bad_outcome() {
        let msg = OkMeasureMsg {
            create_id: 0,
            outcome: 0,
            basis: WireBasis::Z,
            origin_is_local: false,
            sequence_number: 0,
            purpose_id: 0,
            remote_node_id: 0,
            goodness: Fidelity16::from_f64(0.0),
            create_time_ps: 0,
        };
        let mut w = Writer::new();
        msg.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[2] = 2; // outcome field
        let mut r = Reader::new(&bytes);
        assert!(OkMeasureMsg::decode(&mut r).is_err());
    }

    #[test]
    fn err_round_trip_all_codes() {
        for code in [
            EgpErrorCode::Timeout,
            EgpErrorCode::Unsupported,
            EgpErrorCode::MemExceeded,
            EgpErrorCode::OutOfMem,
            EgpErrorCode::Denied,
            EgpErrorCode::Expire,
            EgpErrorCode::NoTime,
            EgpErrorCode::Rejected,
        ] {
            let msg = ErrMsg {
                code,
                create_id: 2,
                origin_node_id: 1,
                range_only: true,
                seq_low: 5,
                seq_high: 9,
            };
            let mut w = Writer::new();
            msg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(ErrMsg::decode(&mut r).unwrap(), msg);
        }
    }

    #[test]
    fn err_rejects_bad_code() {
        let bytes = [99u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut r = Reader::new(&bytes);
        assert!(ErrMsg::decode(&mut r).is_err());
    }
}
