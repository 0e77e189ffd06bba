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
//!   bit-reproducible per seed. A network is described once, by a
//!   [`NetConfig`] fixed before it runs;
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
//!   ([`NetConfig::retries`], [`NetConfig::request_timeout`]);
//! * [`obs`](mod@obs) — the deterministic telemetry layer:
//!   request-lifecycle spans (chrome-trace / JSONL exportable),
//!   fixed-bucket histogram metrics with percentile readout, and
//!   wall-clock engine profiling — all off by default, all passive
//!   (recording draws nothing from any RNG and schedules no events,
//!   so results are bit-identical with telemetry on or off); enable
//!   per network via [`NetConfig::telemetry`] or
//!   process-wide via the `QLINK_TRACE` environment variable;
//! * [`load`](mod@load) — the open-loop workload engine: deterministic
//!   Poisson or trace-driven arrival streams over per-application user
//!   classes (CK/MD kind, priority, fmin, latency/fidelity SLO
//!   targets), admission control (reject or queue beyond an in-flight
//!   bound) with exact offered/admitted/dropped/completed/abandoned
//!   accounting — arrivals are first-class shared-queue events
//!   ([`NetConfig::workload`]);
//! * [`ruleset`](mod@ruleset) — the RuleSet control plane: per-node
//!   protocol logic as data — an ordered `condition → action` table
//!   compiled from a [`Policy`] at plan time, installed on every path
//!   node as its reservation (a [`RuleState`] in the request's ledger
//!   record, one [`PathRole`] each: repeaters swap the moment pairs
//!   exist on both their path edges, ends collect Bell-outcome frames),
//!   and interpreted deterministically on each observation; swaps
//!   compose the exact simulated memory decay via
//!   [`qlink_quantum::ops::entanglement_swap`].
//!   SWAP-ASAP, 2→1 DEJMPS distillation ([`qlink_quantum::purify`])
//!   per link or end-to-end with the parity bits crossing the real
//!   classical control channels, threshold-gated purification and
//!   k-round entanglement pumping are all tables of the one
//!   interpreter ([`NetConfig::policy`]);
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
//!   [`PlanContext::penalties`] ([`NetConfig::faults`]).

mod engine;
pub mod fault;
mod ledger;
pub mod load;
pub mod network;
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
pub use network::{EndToEndOutcome, NetConfig, Network};
pub use obs::{
    chrome_trace_json, spans_jsonl, EngineProfile, Metrics, SpanEvent, SpanStage, Telemetry,
    TelemetryConfig,
};
pub use route::{EdgeProfile, PlanContext, Route, RouteMetric, RoutePlanner};
pub use ruleset::{
    Action, ArmProgram, Condition, FiredRule, NodeAction, Obs, PathRole, Policy, Rule, RuleSet,
    RuleState, Trigger,
};
pub use sweep::{run_one, sweep, RunRecord, ScenarioSpec, SweepReport, TopologyChoice};
pub use topology::{Edge, Node, Topology};

/// One path node's part in a request, driven the way the network
/// drives it: each observation reaches the request's rule table at
/// that node through the ledger record the table lives in.
#[cfg(test)]
mod node {
    mod tests {
        use crate::ledger::{AttemptSeed, Ledger, Owner};
        use crate::ruleset::{NodeAction, Obs, Policy};
        use qlink_des::SimTime;
        use std::sync::Arc;

        /// Issues `request` under `policy` on `path` over `edges`,
        /// every edge estimated at fidelity 0.9.
        fn issue(
            ledger: &mut Ledger,
            request: u64,
            path: &[usize],
            edges: &[usize],
            policy: Policy,
        ) {
            let seed = AttemptSeed {
                src: path[0],
                dst: path[path.len() - 1],
                fmin: 0.6,
                retries_left: 1,
                excluded: Vec::new(),
                requested_at: SimTime::ZERO,
                owner: Owner::Caller,
                attempt: 0,
            };
            let rules = Arc::new(policy.ruleset());
            ledger.issue(request, path.to_vec(), edges, &rules, |_| 0.9, seed);
        }

        /// `obs` shown to `request`'s table at `node`.
        fn see(ledger: &mut Ledger, request: u64, node: usize, obs: Obs) -> Option<NodeAction> {
            ledger.observe(request, node, obs, SimTime::ZERO, None)
        }

        fn pair(edge: usize) -> Obs {
            Obs::PairArrived { edge }
        }

        fn result(z: u8, x: u8) -> Obs {
            Obs::SwapResult { z, x }
        }

        fn parity(edge: usize, accepted: bool) -> Obs {
            Obs::Parity { edge, accepted }
        }

        #[test]
        fn repeater_swaps_exactly_when_both_sides_arrive() {
            let mut ledger = Ledger::new(1, 2);
            issue(&mut ledger, 1, &[0, 1, 2], &[0, 1], Policy::SwapAsap);
            assert_eq!(see(&mut ledger, 1, 1, pair(0)), None);
            assert_eq!(
                see(&mut ledger, 1, 1, pair(1)),
                Some(NodeAction::Swap {
                    request: 1,
                    left: 0,
                    right: 1
                })
            );
            // Duplicate observations never re-swap.
            assert_eq!(see(&mut ledger, 1, 1, pair(0)), None);
            assert_eq!(see(&mut ledger, 1, 1, pair(1)), None);
        }

        #[test]
        fn end_waits_for_pair_and_all_results() {
            // Two repeaters; node 0 is the end on edge 2.
            let mut ledger = Ledger::new(1, 3);
            issue(&mut ledger, 7, &[0, 1, 2, 3], &[2, 0, 1], Policy::SwapAsap);
            assert_eq!(see(&mut ledger, 7, 0, result(1, 0)), None);
            assert_eq!(see(&mut ledger, 7, 0, pair(2)), None);
            assert_eq!(
                see(&mut ledger, 7, 0, result(1, 1)),
                Some(NodeAction::EndReady {
                    request: 7,
                    frame_z: 0,
                    frame_x: 1
                })
            );
            // Fires once.
            assert_eq!(see(&mut ledger, 7, 0, result(0, 0)), None);
        }

        #[test]
        fn single_hop_end_is_ready_on_delivery() {
            let mut ledger = Ledger::new(1, 1);
            issue(&mut ledger, 3, &[0, 1], &[0], Policy::SwapAsap);
            assert_eq!(
                see(&mut ledger, 3, 1, pair(0)),
                Some(NodeAction::EndReady {
                    request: 3,
                    frame_z: 0,
                    frame_x: 0
                })
            );
        }

        #[test]
        fn frame_accumulates_by_xor() {
            // Three repeaters; node 4 is the end on edge 3.
            let mut ledger = Ledger::new(1, 4);
            issue(
                &mut ledger,
                9,
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 3],
                Policy::SwapAsap,
            );
            assert_eq!(see(&mut ledger, 9, 4, pair(3)), None);
            assert_eq!(see(&mut ledger, 9, 4, result(1, 1)), None);
            assert_eq!(see(&mut ledger, 9, 4, result(1, 0)), None);
            assert_eq!(
                see(&mut ledger, 9, 4, result(1, 1)),
                Some(NodeAction::EndReady {
                    request: 9,
                    frame_z: 1,
                    frame_x: 0
                })
            );
        }

        #[test]
        fn purify_reject_restarts_the_edge_count() {
            let mut ledger = Ledger::new(1, 4);
            issue(&mut ledger, 6, &[0, 1], &[3], Policy::LinkPurify);
            let purify = Some(NodeAction::Purify {
                request: 6,
                edge: 3,
            });
            assert_eq!(see(&mut ledger, 6, 0, pair(3)), None);
            assert_eq!(see(&mut ledger, 6, 0, pair(3)), purify);
            // While the parity bit is in flight, further deliveries are
            // not counted toward the *next* round.
            assert_eq!(see(&mut ledger, 6, 0, pair(3)), None);
            // Reject: both pairs lost, count restarts — and node 0, the
            // edge's submitting end, owes a fresh batch of two, once.
            assert_eq!(see(&mut ledger, 6, 0, parity(3, false)), None);
            assert_eq!(ledger.take_create_demand(6, 0, 3), Some((0, 2)));
            assert_eq!(ledger.take_create_demand(6, 0, 3), None);
            assert_eq!(see(&mut ledger, 6, 0, pair(3)), None);
            assert_eq!(see(&mut ledger, 6, 0, pair(3)), purify);
            // Accept: the end (no repeaters) is immediately ready.
            assert_eq!(
                see(&mut ledger, 6, 0, parity(3, true)),
                Some(NodeAction::EndReady {
                    request: 6,
                    frame_z: 0,
                    frame_x: 0
                })
            );
        }
    }
}
