//! Classical control-message formats for the MHP / EGP / DQP protocols.
//!
//! The paper's Appendix E specifies packet diagrams for every control
//! message in the stack (Figures 24, 27, 28, 31–39). This crate encodes
//! and decodes the ones a node or the midpoint transmits — DQP, GEN,
//! REPLY, EXPIRE, EXPIRE-ACK and RETRACT — to real byte strings, so the
//! channel models can drop and corrupt *actual frames* and the protocol
//! recovery paths (EXPIRE, retransmission) are exercised against genuine
//! parse failures, in the style of a production TCP/IP stack. The
//! node-local CREATE is a plain value (see [`egp`]), and the EGP's OK
//! and ERR are values of the `qlink_egp` crate, beside the protocol.
//!
//! # Layout conventions
//!
//! The paper's diagrams fix the *field inventory* and semantics but are
//! not bit-consistent between the figures and the accompanying text
//! (e.g. "Schedule Cycle … of 64 bits" beside a 32-bit diagram row).
//! This implementation therefore uses a byte-aligned adaptation with
//! documented widths:
//!
//! * multi-byte integers are big-endian (network order);
//! * queue IDs are 4 bits used of a byte (16 priority queues, matching
//!   the 4-bit Priority field of Fig. 24), queue sequence numbers are
//!   16 bits;
//! * MHP sequence numbers are 16 bits and compared modulo 2¹⁶
//!   (Protocol 2, step 3(c)(iii)(C));
//! * fidelities are 16-bit fixed point (`F·65535`);
//! * MHP cycle numbers (schedule / timeout) are 64 bits, following the
//!   text of §E.1.4;
//! * every frame carries a CRC-32 trailer; the corruption model flips
//!   bits and the decoder rejects the frame, matching the FER-based
//!   error model of Appendix D.6 (undetected-CRC-error probability is
//!   ~1.4e-23 there and is ignored, as in the paper);
//! * every layout is fixed-length and at most [`FRAME_MAX`] = 48 bytes
//!   (a DQP frame), so [`Frame::encode`] returns an inline
//!   [`FrameBytes`] and a node-to-node frame never touches the heap;
//! * the per-attempt GEN and REPLY are never serialised in the link
//!   simulation: a channel decides their fate from their length
//!   ([`mhp::GEN_FRAME_LEN`], [`mhp::REPLY_FRAME_LEN`]) and an intact
//!   one crosses as the value it is (see [`frame`]).

pub mod codec;
pub mod crc;
pub mod dqp;
pub mod egp;
pub mod fields;
pub mod frame;
pub mod mhp;

pub use codec::{FrameBytes, FRAME_MAX};
pub use fields::{AbsQueueId, Fidelity16, MhpError, MidpointOutcome, RequestFlags, RequestType};
pub use frame::{Frame, WireError};
