//! The network layer: shared-clock multi-link simulation with
//! SWAP-ASAP repeater control.
//!
//! The paper's conclusion names this rung of the stack — "a robust
//! network layer control protocol" consuming link-layer NL pairs
//! (§3.3, §3.4, Figure 1b). This crate provides it, in the shape later
//! network-stack work settled on (per-node protocol machines above
//! independent link-layer instances, coordinating over classical
//! channels — cf. arXiv:2111.11332, arXiv:1904.08605):
//!
//! * [`topology`] — node–edge graphs (chains, stars, arbitrary) where
//!   every edge carries a full [`qlink_sim::config::LinkConfig`] and a
//!   delaying classical control channel;
//! * [`network`] — all links of a topology embedded in **one** global
//!   discrete-event queue: a single `SimTime` stream orders every MHP
//!   cycle of every link against every control message, and runs stay
//!   bit-reproducible per seed;
//! * [`route`] — the route-metric engine: per-edge cost profiles
//!   (expected NL latency, attempt success probability, memory-decay-
//!   adjusted fidelity) derived from each edge's link configuration,
//!   deterministic Dijkstra and Yen K-shortest-paths search, and one
//!   price per edge, [`RouteMetric::cost`] of its fidelity, latency and
//!   live reservation count after the distillation rounds the
//!   request's [`Policy`] installs on it, steering
//!   [`Network::request_entanglement`] and the multi-path splitter
//!   [`Network::request_entanglement_multipath`]; failed attempts
//!   (per-request timeout, terminal link rejection) re-plan against
//!   current load and re-issue under a per-request retry budget
//!   ([`Network::set_retry_budget`],
//!   [`Network::set_request_timeout`]);
//! * [`node`] — per-node SWAP-ASAP protocol state: repeaters swap the
//!   moment pairs exist on both their path edges, ends collect
//!   Bell-outcome frames; composition applies the exact simulated
//!   memory decay via [`qlink_quantum::ops::entanglement_swap`];
//! * [`obs`](mod@obs) — the deterministic telemetry layer:
//!   request-lifecycle spans (chrome-trace / JSONL exportable),
//!   fixed-bucket histogram metrics with percentile readout, and
//!   wall-clock engine profiling — all off by default, all passive
//!   (recording draws nothing from any RNG and schedules no events,
//!   so results are bit-identical with telemetry on or off); enable
//!   per network via [`Network::set_telemetry`] or
//!   process-wide via the `QLINK_TRACE` environment variable;
//! * [`load`](mod@load) — the open-loop workload engine: deterministic
//!   Poisson or trace-driven arrival streams over per-application user
//!   classes (CK/MD kind, priority, fmin, latency/fidelity SLO
//!   targets), admission control (reject or queue beyond an in-flight
//!   bound) with exact offered/admitted/dropped/completed/abandoned
//!   accounting — arrivals are first-class shared-queue events
//!   ([`Network::set_workload`]);
//! * [`ruleset`](mod@ruleset) — the RuleSet control plane: per-node
//!   protocol logic as data — an ordered `condition → action` table
//!   compiled from a [`Policy`] at plan time, installed on every path
//!   node, and interpreted deterministically on each observation.
//!   SWAP-ASAP, 2→1 DEJMPS distillation ([`qlink_quantum::purify`])
//!   per link or end-to-end with the parity bits crossing the real
//!   classical control channels, threshold-gated purification and
//!   k-round entanglement pumping are all tables of the one
//!   interpreter ([`Network::set_policy`]);
//! * [`sweep`](mod@sweep) — the parallel scenario-sweep driver: a scenario × seed
//!   matrix fanned across OS threads with deterministic merged
//!   aggregates;
//! * [`fault`](mod@fault) — deterministic fault injection: a
//!   [`FaultPlan`] of scheduled and seeded-stochastic link
//!   fail/repair and node-churn events riding the shared queue,
//!   heterogeneous repair profiles (a degraded edge can come back
//!   worse than it left), and the network-wide **penalty box** — an
//!   exponentially time-decaying per-edge surcharge bumped on every
//!   failure and UNSUPP and priced into all planning through
//!   [`PlanContext::penalties`] ([`Network::set_fault_plan`]).

mod engine;
pub mod fault;
mod ledger;
pub mod load;
pub mod network;
pub mod node;
pub mod obs;
mod planner;
pub mod route;
pub mod ruleset;
pub mod sweep;
pub mod topology;

pub use fault::{FaultKind, FaultPlan, FaultSpec, Flapping, PenaltyBox, PenaltyConfig};
pub use load::{
    AdmissionControl, ArrivalProcess, ClassLoadStats, LoadStats, SloTarget, TraceArrival,
    UserClass, Workload,
};
pub use network::{EndToEndOutcome, Network};
pub use node::{NodeAction, PathRole, SwapAsapNode};
pub use obs::{
    chrome_trace_json, spans_jsonl, EngineProfile, Metrics, SpanEvent, SpanStage, Telemetry,
    TelemetryConfig,
};
pub use route::{EdgeProfile, PlanContext, Route, RouteMetric, RoutePlanner};
pub use ruleset::{
    Action, ArmProgram, Condition, FiredRule, Obs, Policy, Rule, RuleSet, RuleState, Trigger,
};
pub use sweep::{
    run_one, sweep, FaultChoice, LinkScenario, RunRecord, ScenarioSpec, SweepReport, TopologyChoice,
};
pub use topology::{Edge, Node, Topology};
