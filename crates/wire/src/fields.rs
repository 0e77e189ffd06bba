//! Field types shared by several message formats.

use crate::codec::{Reader, WireError, Writer};

/// An absolute queue ID `(QID, QSEQ)` — the pair the paper calls `aID`
/// (§E.1.1): which priority queue, and the unique sequence number within
/// that queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbsQueueId {
    /// Priority-queue index (4 bits used; the paper provisions 16 local
    /// queues).
    pub qid: u8,
    /// Sequence number within the queue, assigned in arrival order.
    pub qseq: u16,
}

impl AbsQueueId {
    /// Number of priority queues representable (4-bit QID).
    pub const MAX_QUEUES: u8 = 16;

    /// Creates an absolute queue ID.
    ///
    /// # Panics
    /// Panics if `qid ≥ 16`.
    pub fn new(qid: u8, qseq: u16) -> Self {
        assert!(qid < Self::MAX_QUEUES, "qid {qid} out of range");
        AbsQueueId { qid, qseq }
    }

    #[inline]
    pub(crate) fn encode(self, w: &mut Writer) {
        w.put_u8(self.qid);
        w.put_u16(self.qseq);
    }

    #[inline]
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let qid = r.get_u8()?;
        if qid >= Self::MAX_QUEUES {
            return Err(WireError::BadValue("qid"));
        }
        let qseq = r.get_u16()?;
        Ok(AbsQueueId { qid, qseq })
    }
}

/// A fidelity in `[0, 1]` as 16-bit fixed point (`F · 65535`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fidelity16(u16);

impl Fidelity16 {
    /// Quantizes a floating-point fidelity.
    ///
    /// # Panics
    /// Panics unless `0 ≤ f ≤ 1`.
    pub fn from_f64(f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fidelity {f} out of range");
        Fidelity16((f * 65535.0).round() as u16)
    }

    /// The fidelity as `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 65535.0
    }

    /// Raw fixed-point value.
    pub fn raw(self) -> u16 {
        self.0
    }

    #[inline]
    pub(crate) fn encode(self, w: &mut Writer) {
        w.put_u16(self.0);
    }

    #[inline]
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Fidelity16(r.get_u16()?))
    }
}

/// Type of a CREATE request (paper §4.1.1 item 2): create-and-keep (K)
/// stores the pair; create-and-measure (M) measures it immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestType {
    /// Create and keep — entanglement is stored (CK / NL / SQ use cases).
    Keep,
    /// Create and measure — measured on emission (MD use case).
    Measure,
}

impl RequestType {
    /// `true` for K-type (create-and-keep) requests.
    pub fn is_keep(self) -> bool {
        matches!(self, RequestType::Keep)
    }
}

/// The request flag set carried in DQP and CREATE messages
/// (Fig. 24: STR / ATM / MD / MR, Fig. 31: T / A / C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestFlags {
    /// Store the pair (K-type) rather than measure directly.
    pub store: bool,
    /// Atomic: all pairs of the request must be in memory simultaneously
    /// (§4.1.1 item 4).
    pub atomic: bool,
    /// Measure directly (M-type).
    pub measure_directly: bool,
    /// Master request: the request originated at the distributed-queue
    /// master node (Fig. 24 "MR").
    pub master_request: bool,
    /// Consecutive: an OK is returned per pair rather than per request
    /// (§4.1.1 item 5).
    pub consecutive: bool,
}

impl RequestFlags {
    /// The request type implied by the flags.
    ///
    /// `store` and `measure_directly` are mutually exclusive on the
    /// wire; `store` wins if both are set (decoder rejects that case).
    pub fn request_type(self) -> RequestType {
        if self.measure_directly {
            RequestType::Measure
        } else {
            RequestType::Keep
        }
    }

    #[inline]
    pub(crate) fn encode(self, w: &mut Writer) {
        let mut b = 0u8;
        if self.store {
            b |= 1 << 0;
        }
        if self.atomic {
            b |= 1 << 1;
        }
        if self.measure_directly {
            b |= 1 << 2;
        }
        if self.master_request {
            b |= 1 << 3;
        }
        if self.consecutive {
            b |= 1 << 4;
        }
        w.put_u8(b);
    }

    #[inline]
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let b = r.get_u8()?;
        if b & !0b1_1111 != 0 {
            return Err(WireError::BadValue("flags"));
        }
        let flags = RequestFlags {
            store: b & 1 != 0,
            atomic: b & 2 != 0,
            measure_directly: b & 4 != 0,
            master_request: b & 8 != 0,
            consecutive: b & 16 != 0,
        };
        if flags.store && flags.measure_directly {
            return Err(WireError::BadValue("flags: STR and MD both set"));
        }
        Ok(flags)
    }
}

/// Successful midpoint outcomes (the heralding signal of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MidpointOutcome {
    /// No entanglement this attempt (none or both detectors clicked).
    Fail,
    /// Left detector clicked: state `|Ψ+⟩` heralded.
    PsiPlus,
    /// Right detector clicked: state `|Ψ−⟩` heralded.
    PsiMinus,
}

impl MidpointOutcome {
    /// `true` for either heralded-success outcome.
    pub fn is_success(self) -> bool {
        !matches!(self, MidpointOutcome::Fail)
    }
}

/// MHP protocol errors reported by the midpoint or locally
/// (Protocol 1's `mhperr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MhpError {
    /// The two nodes' GEN messages carried different absolute queue IDs.
    QueueMismatch,
    /// GEN messages did not arrive within the same detection interval.
    TimeMismatch,
    /// Only one node's GEN message arrived.
    NoMessageOther,
    /// Local hardware failure at the node (never sent over the wire).
    GenFail,
}

/// The outcome field (`OT`) of a midpoint REPLY: success, failure, or a
/// protocol error (Fig. 28).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// A (possibly failed) physical attempt was evaluated.
    Attempt(MidpointOutcome),
    /// A control-plane error; no attempt outcome exists.
    Error(MhpError),
}

impl ReplyOutcome {
    /// Wire encoding of the OT field: 0 fail, 1 `Ψ+`, 2 `Ψ−`,
    /// 5 QUEUE_MISMATCH, 6 TIME_MISMATCH, 7 NO_MESSAGE_OTHER.
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            ReplyOutcome::Attempt(MidpointOutcome::Fail) => 0,
            ReplyOutcome::Attempt(MidpointOutcome::PsiPlus) => 1,
            ReplyOutcome::Attempt(MidpointOutcome::PsiMinus) => 2,
            ReplyOutcome::Error(MhpError::QueueMismatch) => 5,
            ReplyOutcome::Error(MhpError::TimeMismatch) => 6,
            ReplyOutcome::Error(MhpError::NoMessageOther) => 7,
            ReplyOutcome::Error(MhpError::GenFail) => {
                unreachable!("GEN_FAIL is local-only and never serialized")
            }
        }
    }

    pub(crate) fn from_wire(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => ReplyOutcome::Attempt(MidpointOutcome::Fail),
            1 => ReplyOutcome::Attempt(MidpointOutcome::PsiPlus),
            2 => ReplyOutcome::Attempt(MidpointOutcome::PsiMinus),
            5 => ReplyOutcome::Error(MhpError::QueueMismatch),
            6 => ReplyOutcome::Error(MhpError::TimeMismatch),
            7 => ReplyOutcome::Error(MhpError::NoMessageOther),
            _ => return Err(WireError::BadValue("OT")),
        })
    }
}

/// `true` if MHP sequence number `a` is strictly after `b` in modulo-2¹⁶
/// arithmetic (RFC 1982-style serial comparison; Protocol 2 updates
/// `seq_expected` "modulo 2^16").
pub fn seq_after(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Reader, Writer};

    #[test]
    fn abs_queue_id_round_trip() {
        let id = AbsQueueId::new(3, 0xBEEF);
        let mut w = Writer::new();
        id.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(AbsQueueId::decode(&mut r).unwrap(), id);
    }

    #[test]
    fn abs_queue_id_rejects_bad_qid() {
        let bytes = [0x10, 0, 0];
        let mut r = Reader::new(&bytes);
        assert_eq!(AbsQueueId::decode(&mut r), Err(WireError::BadValue("qid")));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn abs_queue_id_ctor_checks() {
        AbsQueueId::new(16, 0);
    }

    #[test]
    fn fidelity_quantization() {
        for f in [0.0, 0.25, 0.5, 0.64, 0.9999, 1.0] {
            let q = Fidelity16::from_f64(f);
            assert!((q.to_f64() - f).abs() < 1.0 / 65535.0);
        }
        assert_eq!(Fidelity16::from_f64(1.0).raw(), 65535);
    }

    #[test]
    fn flags_round_trip() {
        let f = RequestFlags {
            store: true,
            atomic: true,
            measure_directly: false,
            master_request: true,
            consecutive: true,
        };
        let mut w = Writer::new();
        f.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(RequestFlags::decode(&mut r).unwrap(), f);
        assert_eq!(f.request_type(), RequestType::Keep);
    }

    #[test]
    fn flags_reject_str_and_md() {
        let bytes = [0b101u8];
        let mut r = Reader::new(&bytes);
        assert!(RequestFlags::decode(&mut r).is_err());
    }

    #[test]
    fn flags_reject_undefined_bits() {
        let bytes = [0b0010_0000u8];
        let mut r = Reader::new(&bytes);
        assert!(RequestFlags::decode(&mut r).is_err());
    }

    #[test]
    fn reply_outcome_round_trip() {
        for o in [
            ReplyOutcome::Attempt(MidpointOutcome::Fail),
            ReplyOutcome::Attempt(MidpointOutcome::PsiPlus),
            ReplyOutcome::Attempt(MidpointOutcome::PsiMinus),
            ReplyOutcome::Error(MhpError::QueueMismatch),
            ReplyOutcome::Error(MhpError::TimeMismatch),
            ReplyOutcome::Error(MhpError::NoMessageOther),
        ] {
            assert_eq!(ReplyOutcome::from_wire(o.to_wire()).unwrap(), o);
        }
        assert!(ReplyOutcome::from_wire(3).is_err());
        assert!(ReplyOutcome::from_wire(255).is_err());
    }

    #[test]
    fn request_type_predicates() {
        assert!(RequestType::Keep.is_keep());
        assert!(!RequestType::Measure.is_keep());
        let md = RequestFlags {
            measure_directly: true,
            ..Default::default()
        };
        assert_eq!(md.request_type(), RequestType::Measure);
    }

    #[test]
    fn serial_sequence_comparison() {
        assert!(seq_after(1, 0));
        assert!(!seq_after(0, 1));
        assert!(!seq_after(5, 5));
        // Wraparound: 2 is after 0xFFFE.
        assert!(seq_after(2, 0xFFFE));
        assert!(!seq_after(0xFFFE, 2));
    }

    #[test]
    fn outcome_success_flag() {
        assert!(!MidpointOutcome::Fail.is_success());
        assert!(MidpointOutcome::PsiPlus.is_success());
        assert!(MidpointOutcome::PsiMinus.is_success());
    }
}
