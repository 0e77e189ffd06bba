//! The link-layer Entanglement Generation Protocol (Protocol 2).
//!
//! This crate is the paper's headline contribution: the protocol that
//! turns physical-layer entanglement *attempts* (the MHP) into a robust
//! entanglement generation *service* with CREATE/OK semantics,
//! priorities, fidelity targets and failure recovery.
//!
//! Components, mirroring §5.2:
//!
//! * [`dqueue`] — the Distributed Queue Protocol (§5.2.1, Appendix
//!   E.1): master/slave synchronized priority queues with windowed
//!   fairness, `min_time` start barriers and ADD/ACK/REJ handshakes
//!   over a lossy channel.
//! * [`qmm`] — the Quantum Memory Manager (§5.2.2): ownership of the
//!   node's communication and storage qubits.
//! * [`feu`] — the Fidelity Estimation Unit (§5.2.3): translates a
//!   requested `Fmin` into a bright-state population α (inverting the
//!   attempt model) and minimum completion times.
//! * [`scheduler`] — §5.2.4: deterministic schedulers (FCFS and
//!   strict-priority + weighted-fair-queueing as evaluated in §6.3).
//! * [`shared_random`] — the pre-shared randomness both nodes use to
//!   agree on M-type measurement bases without communication (the
//!   string `r` of Appendix B).
//! * [`request`] — the one record of a committed request: the
//!   synchronised queue item plus this node's progress on it, held in
//!   the distributed queue's table and nowhere else.
//! * [`egp`] — the EGP state machine itself (Protocol 2), written
//!   sans-IO: one input at a time in through [`Egp::step`] (a CREATE,
//!   a peer frame, a RESULT, a tick), frames/OKs/errors/hardware
//!   directives out, and [`Egp::next_tick`] for when a tick can next act.

pub mod dqueue;
pub mod egp;
pub mod feu;
pub mod qmm;
pub mod request;
pub mod scheduler;
pub mod shared_random;

pub use egp::{Egp, EgpConfig, EgpEvent, HwDirective, Input, Step};
pub use feu::{FidelityEstimator, QberEstimator};
pub use qmm::QuantumMemoryManager;
pub use request::{Request, RequestState, Service};
