//! # qlink — a link layer protocol for quantum networks
//!
//! A complete, from-scratch Rust reproduction of *"A Link Layer
//! Protocol for Quantum Networks"* (Dahlberg, Skrzypczyk, et al.,
//! SIGCOMM 2019): the EGP link-layer protocol and MHP physical-layer
//! protocol, together with every substrate they need — a deterministic
//! discrete-event simulator, a density-matrix quantum substrate, the
//! NV-centre hardware model, the heralding-station optics of the
//! paper's Appendix D.5, byte-exact control-message formats, and lossy
//! classical channel models.
//!
//! ## Quick start
//!
//! ```
//! use qlink::prelude::*;
//!
//! // A Lab-scenario link (2 m, as realized in hardware), no workload.
//! let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 42));
//!
//! // Ask the link layer for two measure-directly pairs at Fmin = 0.6.
//! sim.submit(0, GeneratedRequest {
//!     kind: RequestKind::Md,
//!     pairs: 2,
//!     origin: 0,
//!     fmin: 0.6,
//!     tmax_us: 0,
//! });
//!
//! // Run four simulated seconds and inspect the outcome.
//! sim.run_for(SimDuration::from_secs(4));
//! let md = sim.metrics.kind_total(RequestKind::Md);
//! assert_eq!(md.pairs_delivered, 2);
//! assert!(md.fidelity.mean() > 0.6);
//! ```
//!
//! One layer up, the network layer drives every link of a topology on
//! a single shared event queue and swaps NL pairs into end-to-end
//! entanglement:
//!
//! ```
//! use qlink::prelude::*;
//!
//! // A 3-node repeater chain (two Lab links, SWAP-ASAP at node 1).
//! let topo = Topology::chain(3, |i| LinkConfig::lab(WorkloadSpec::none(), 100 + i as u64));
//! let mut net = Network::new(topo, 42);
//! net.request_entanglement(0, 2, 0.6);
//! let out = net
//!     .run_until_outcome(SimDuration::from_secs(30))
//!     .expect("swap-asap delivers");
//! assert_eq!(out.swaps, 1);
//! assert!(out.end_to_end_fidelity > 0.25);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`math`] | complex matrices, Bessel ratios, statistics |
//! | [`quantum`] | density matrices, gates, channels, Bell pairs |
//! | [`des`] | event queue, simulated time, deterministic RNG |
//! | [`wire`] | Appendix E packet formats with CRC framing |
//! | [`classical`] | fiber delay/loss models, 1000BASE-ZX link budget |
//! | [`phys`] | NV hardware, heralding station, attempt model, MHP |
//! | [`egp`] | the link layer: distributed queue, QMM, FEU, schedulers |
//! | [`sim`] | single-link scenario assembly, workloads, metrics |
//! | [`net`] | the network layer: topologies, one shared event queue over all links, SWAP-ASAP repeater control, parallel scenario sweeps |

pub use qlink_classical as classical;
pub use qlink_des as des;
pub use qlink_egp as egp;
pub use qlink_math as math;
pub use qlink_net as net;
pub use qlink_phys as phys;
pub use qlink_quantum as quantum;
pub use qlink_sim as sim;
pub use qlink_wire as wire;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::des::{DetRng, SimDuration, SimTime};
    pub use crate::net::fault::{
        FaultKind, FaultPlan, FaultSpec, Flapping, PenaltyBox, PenaltyConfig,
    };
    pub use crate::net::load::{
        AdmissionControl, ArrivalProcess, ClassLoadStats, LoadStats, SloTarget, TraceArrival,
        UserClass, Workload,
    };
    #[doc(hidden)]
    pub use crate::net::network::ExecMode; // benchmark-compat: ROADMAP item 1 deletes this
    pub use crate::net::network::{EndToEndOutcome, Network};
    pub use crate::net::route::{
        EdgeProfile, FidelityProduct, HopCount, Latency, LoadScaledLatency, PlanContext, Route,
        RouteMetric, RoutePlanner,
    };
    pub use crate::net::ruleset::Policy;
    #[doc(hidden)]
    pub use crate::net::sweep::ExecChoice; // benchmark-compat: ROADMAP item 1 deletes this
    pub use crate::net::sweep::{
        sweep, FaultChoice, MetricChoice, ScenarioSpec, SweepReport, TopologyChoice,
    };
    pub use crate::net::topology::Topology;
    pub use crate::phys::params::{Scenario, ScenarioParams};
    pub use crate::quantum::bell::{bell_fidelity, BellState, Qber};
    pub use crate::quantum::purify::{distill_werner, DistillOutcome};
    pub use crate::quantum::{Basis, QuantumState};
    pub use crate::sim::config::{LinkConfig, RequestKind, SchedulerChoice, UsagePattern};
    pub use crate::sim::link::{Delivery, LinkSimulation};
    pub use crate::sim::metrics::LinkMetrics;
    pub use crate::sim::workload::{GeneratedRequest, KindLoad, OriginPolicy, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compile_and_link() {
        let scenario = ScenarioParams::lab();
        assert_eq!(scenario.scenario, Scenario::Lab);
        let pair = BellState::PhiPlus.state();
        assert!(bell_fidelity(&pair, (0, 1), BellState::PhiPlus) > 0.999);
        let _ = WorkloadSpec::none();
        // Network layer reachable through the facade.
        let topo = Topology::chain(2, |_| LinkConfig::lab(WorkloadSpec::none(), 1));
        assert_eq!(topo.edge_count(), 1);
        let _ = ScenarioSpec::lab_chain("smoke", 2);
    }
}
