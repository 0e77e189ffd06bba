//! Scenario assembly, workload generation and metrics.
//!
//! This crate wires the full stack — EGP, MHP, heralding station,
//! classical channels, quantum pair states — onto the deterministic
//! event queue, and provides the workload and measurement machinery of
//! the paper's evaluation (§6):
//!
//! * [`config`] — link configuration: the Lab/QL2020 scenarios,
//!   scheduler choices (FCFS / LowerWFQ / HigherWFQ), classical-loss
//!   injection, and the usage patterns of Table 2;
//! * [`workload`] — random CREATE arrivals with probability
//!   `f·psucc/(E·k)` per MHP cycle (§6), kinds NL/CK/MD, origins
//!   A/B/random;
//! * [`link`] — the event-driven simulation of one link, with a
//!   steppable embedding API (`advance_to` / `take_outputs`) so a
//!   network layer can interleave many links on one shared clock;
//! * [`metrics`] — throughput, request/pair/scaled latency, fidelity,
//!   QBER, queue lengths, error counts, fairness splits and the time
//!   series of the appendix figures.

pub mod config;
pub mod link;
pub mod metrics;
pub mod workload;

pub use config::{LinkConfig, RequestKind, SchedulerChoice, UsagePattern};
pub use link::{Delivery, LinkOutput, LinkSimulation};
pub use metrics::LinkMetrics;
pub use workload::WorkloadSpec;
