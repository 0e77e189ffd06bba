//! The shared-clock multi-link network simulation.
//!
//! A [`Network`] is three owned units and the dispatch between them:
//!
//! * the **engine** (`engine.rs`) — what moves the clock: every link of
//!   the [`Topology`], each a full [`LinkSimulation`], on **one** global
//!   discrete-event queue with every control message, timer, fault and
//!   workload arrival;
//! * the **request ledger** (`ledger.rs`) — who owns a request's
//!   resources: its terms, its attempt's path and per-hop state, the
//!   entangled segments swaps merge, its node reservations
//!   ([`crate::node`]) and the CREATEs it has queued inside links.
//!   However an attempt ends — delivery, failure,
//!   [`Network::cancel_request`] — one teardown releases all of it;
//! * the **planner** (`planner.rs`) — which path to take
//!   ([`crate::route`] over live per-edge loads and the penalty box),
//!   and the terms (policy, timeout, retry budget, backoff) requests
//!   are issued under.
//!
//! On top sits SWAP-ASAP repeater control: NL CREATEs are issued along
//! the reserved path, intermediate nodes swap as soon as both adjacent
//! pairs exist, and the composed end-to-end state — decayed in memory
//! for exactly the simulated storage times — is delivered with its true
//! simulated latency. An attempt fails when a link terminally rejects
//! one of its CREATEs (UNSUPP), a fault downs an edge it rides, or it
//! outlives its per-request timeout; with retry budget left it is
//! re-planned against *current* load around the edges that failed it,
//! otherwise abandoned ([`Network::timeouts`]).

use crate::engine::{embed, ControlMsg, Engine, NetEvent};
use crate::fault::{FaultKind, FaultPlan};
use crate::ledger::{AttemptSeed, Completion, Ended, GroupVerdict, Ledger};
use crate::load::{Admission, LoadEngine, LoadStats, Workload};
use crate::node::{NodeAction, SwapAsapNode};
use crate::obs::{SpanStage, Telemetry, TelemetryConfig};
use crate::planner::{PlanAsk, Planner};
use crate::route::{Route, RouteMetric};
use crate::ruleset::Policy;
use crate::topology::Topology;
use qlink_des::{DetRng, SimDuration, SimTime};
use qlink_egp::feu::FidelityEstimator;
use qlink_phys::attempt::ModelCache;
use qlink_sim::config::{LinkConfig, RequestKind};
use qlink_sim::link::{Delivery, LinkSimulation, Rejection};
use std::time::Instant;

pub use crate::ledger::EndToEndOutcome;

/// The reserved span id fault spans are emitted under: fault events
/// belong to the network, not to any request, and request ids count
/// up from zero, so the maximum id is free to serve as the "network"
/// track in chrome-trace exports.
const FAULT_TRACK: u64 = u64::MAX;

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
pub enum ExecMode { Sequential, Sharded(usize) } // benchmark-compat: ROADMAP item 1 deletes this

/// A multi-node quantum network on one shared event queue.
pub struct Network {
    topo: Topology,
    engine: Engine,
    ledger: Ledger,
    planner: Planner,
    /// Workload arrival randomness (gaps, class picks, pair picks) —
    /// its own substream, drawn only while a workload is armed, so
    /// closed-loop runs never touch it.
    load_rng: DetRng,
    /// The armed open-loop workload engine (see [`crate::load`]),
    /// `None` unless [`Network::set_workload`] armed one.
    workload: Option<Box<LoadEngine>>,
    /// Fault-injection randomness (flapping dwell draws) — its own
    /// substream, drawn from only when a fault plan arms.
    fault_rng: DetRng,
    /// Times each edge has been repaired — salts the rebuilt link's
    /// fresh deterministic seed so successive incarnations never
    /// replay each other's randomness.
    repair_count: Vec<u64>,
    /// Edge failures injected so far (node churn counts per edge).
    fault_count: u64,
    /// Edge repairs applied so far.
    repair_total: u64,
    outcomes: Vec<EndToEndOutcome>,
    /// The telemetry layer (see [`crate::obs`]); `None` (the default)
    /// records nothing. Recording is passive — no RNG draw, no event —
    /// so results are bit-identical with it on or off.
    telemetry: Option<Box<Telemetry>>,
}

impl Network {
    /// Builds the network: one full link-layer simulation per edge
    /// (seeded from its own `LinkConfig`), one SWAP-ASAP node machine
    /// per topology node. `seed` drives network-layer randomness (the
    /// Bell-measurement outcomes of the swaps).
    ///
    /// The physics the links and the route planner derive (attempt
    /// models, `Fmin → α` inversions) is kept in one table per hardware
    /// profile, owned by this network and empty until something asks.
    ///
    /// # Panics
    /// Panics on a topology with no edges.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self::with_models(topo, seed, ModelCache::new())
    }

    /// [`Network::new`] over a table of attempt models the caller
    /// shares — with its other networks on the same hardware, one after
    /// another, as [`crate::sweep::sweep`]'s workers do. What a model
    /// holds is a pure function of `(params, α)`, so sharing changes no
    /// result.
    ///
    /// # Panics
    /// Panics on a topology with no edges.
    pub fn with_models(topo: Topology, seed: u64, models: ModelCache) -> Self {
        assert!(topo.edge_count() > 0, "a network needs at least one link");
        let mut planner = Planner::new(seed, models);
        let links: Vec<LinkSimulation> = topo
            .edges()
            .iter()
            .map(|e| {
                let feu = planner.estimator_for(&e.link.scenario);
                embed(LinkSimulation::with_estimator(e.link.clone(), feu))
            })
            .collect();
        let mut net = Network {
            repair_count: vec![0; links.len()],
            engine: Engine::new(links, topo.min_control_delay()),
            ledger: Ledger::new(seed, topo.node_count(), topo.edge_count()),
            planner,
            // Substream derivation is pure in (seed, label): creating
            // these here perturbs nothing, and no draw ever leaves one
            // unless a workload (a fault plan) arms.
            load_rng: DetRng::new(seed).substream("net/load"),
            fault_rng: DetRng::new(seed).substream("net/fault"),
            fault_count: 0,
            repair_total: 0,
            workload: None,
            outcomes: Vec::new(),
            telemetry: None,
            topo,
        };
        net.set_telemetry(TelemetryConfig::from_env());
        net
    }

    /// Switches the telemetry layer (see [`crate::obs`]) on or off,
    /// discarding anything recorded so far. [`TelemetryConfig::OFF`]
    /// (the construction default, unless the `QLINK_TRACE` environment
    /// variable opted in — [`TelemetryConfig::from_env`]) records
    /// nothing. Recording is passive: whatever the config, the run's
    /// outcomes, RNG draws, and event stream are unchanged.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        let edges = self.topo.edge_count();
        self.telemetry = (!config.is_off()).then(|| Box::new(Telemetry::new(edges)));
    }

    /// The telemetry recorded so far (`None` when the layer is off).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Current global simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Total simulated time this network has been run for.
    pub fn elapsed(&self) -> SimDuration {
        self.engine.elapsed
    }

    /// The topology this network runs.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Borrow the link simulation on edge `edge` (metrics inspection).
    pub fn link(&self, edge: usize) -> &LinkSimulation {
        &self.engine.links[edge]
    }

    /// The FEU handles this network has made, one per distinct
    /// [`ScenarioParams`](qlink_phys::params::ScenarioParams) among its
    /// links (a homogeneous topology has one), in first-use order. Each
    /// link holds a clone of the one for its hardware, and all of them
    /// derive from one table of attempt models
    /// ([`FidelityEstimator::models`]).
    pub fn estimators(&self) -> &[FidelityEstimator] {
        self.planner.estimators()
    }

    /// Borrow a node's protocol state machine.
    pub fn node(&self, node: usize) -> &SwapAsapNode {
        self.ledger.node(node)
    }

    /// Total events fired: shared-queue events plus every link's
    /// internal events. The MHP cycles idle links skipped
    /// ([`Network::cycles_elided`]), and the wakes that would have
    /// observed them, are not events and are not counted.
    pub fn events_fired(&self) -> u64 {
        self.engine.events_fired()
    }

    /// MHP cycles the links skipped while parked idle, summed over the
    /// current link incarnations
    /// ([`LinkSimulation::cycles_elided`]) — where the events of a
    /// mostly idle network went.
    pub fn cycles_elided(&self) -> u64 {
        self.engine.cycles_elided()
    }

    /// Restarts the event-count statistics ([`Network::events_fired`],
    /// [`Network::cycles_elided`], the profiler's queue-depth
    /// high-water gauge) across the shared queue and every link,
    /// without touching any simulation state —
    /// see [`qlink_des::EventQueue::reset_stats`]. The sweep driver
    /// calls this at the run boundary so a run's recorded event count
    /// never includes another phase's.
    pub fn reset_event_stats(&mut self) {
        self.engine.reset_event_stats();
    }

    /// Selects the [`RouteMetric`] used by subsequent
    /// [`Network::request_entanglement`] calls. The default is
    /// [`HopCount`](crate::route::HopCount); [`crate::route::Latency`]
    /// and [`crate::route::FidelityProduct`] weigh edges by the
    /// profiles the route planner derives from each link's
    /// configuration.
    pub fn set_route_metric(&mut self, metric: impl RouteMetric + Send + 'static) {
        self.planner.metric = Box::new(metric);
    }

    /// Selects the [`Policy`] subsequent requests run under: at issue
    /// time it is compiled to a [`crate::ruleset::RuleSet`] table,
    /// installed on every path node, and interpreted on each
    /// observation; it also prices edges in planning
    /// ([`PlanContext::policy`](crate::route::PlanContext::policy)).
    /// [`Policy::LinkPurify`] makes every path edge distill two
    /// delivered pairs into one before it may be swapped;
    /// [`Policy::EndToEndPurify`] makes
    /// [`Network::request_entanglement`] run two concurrent streams
    /// and distill their delivered end-to-end pairs into one. The
    /// default is [`Policy::SwapAsap`].
    ///
    /// In-flight requests keep the policy they were issued under.
    pub fn set_policy(&mut self, policy: Policy) {
        self.planner.policy = policy;
    }

    /// Sets the per-request timeout: an attempt that has not
    /// delivered within this much simulated time of its issue fails —
    /// it releases every reservation it holds and, with retry budget
    /// left, re-plans against current load (excluding the failed
    /// path's edges) and re-issues; otherwise the request is
    /// abandoned and counted in [`Network::timeouts`].
    ///
    /// `None` (the default) schedules no timeout events: an attempt
    /// then fails only on a terminal link rejection or a fault on its
    /// path. Applies to requests issued after the call.
    pub fn set_request_timeout(&mut self, timeout: Option<SimDuration>) {
        self.planner.request_timeout = timeout;
    }

    /// Sets how many times a failed attempt (timeout, terminal link
    /// rejection — UNSUPP included — or a fault on its path) may be
    /// re-planned and re-issued before its request is abandoned. The
    /// budget is per request, pinned at issue time; the default is 0
    /// (the first failure abandons).
    pub fn set_retry_budget(&mut self, retries: u32) {
        self.planner.retry_budget = retries;
    }

    #[doc(hidden)]
    pub fn set_exec(&mut self, _: ExecMode) {} // benchmark-compat: ROADMAP item 1 deletes this

    /// Arms an open-loop workload (see [`crate::load`]): arrivals are
    /// scheduled as first-class events on the shared queue, one
    /// ahead, each resolving its user class and `(src, dst)` pair,
    /// running admission control, and issuing an entanglement request
    /// under the network's current routing / policy / retry
    /// knobs. Every workload draw comes from the dedicated `net/load`
    /// substream, and runs that never arm a workload draw nothing from
    /// it at all. Arming again replaces the stream: the arrival the
    /// previous one still has on the queue is ignored when it fires.
    ///
    /// Workload-tracked completions are folded straight into
    /// [`Network::workload_stats`] and **not** pushed onto the
    /// [`Network::take_outcomes`] buffer — a sustained run offers
    /// millions of arrivals, and per-outcome records would grow
    /// without bound. Drive workload runs with [`Network::run_for`]
    /// and read the accounting afterwards.
    ///
    /// # Panics
    /// Panics on an empty class list, a non-positive Poisson rate or
    /// class weight, an unsorted trace, an out-of-range class or node
    /// index, a `src == dst` pair, a disconnected pair, or a Poisson
    /// class with an empty pair pool.
    pub fn set_workload(&mut self, workload: Workload) {
        workload.validate(&self.topo);
        let stream = self.workload.as_ref().map_or(0, |wl| wl.stream() + 1);
        let engine = Box::new(LoadEngine::new(workload, stream));
        if let Some(delay) = engine.first_arrival_delay(&mut self.load_rng) {
            let first = NetEvent::Arrival { index: 0, stream };
            self.engine.schedule_in(delay, first);
        }
        self.workload = Some(engine);
    }

    /// The armed workload's accounting so far (`None` unless
    /// [`Network::set_workload`] armed one). Counters and histograms
    /// are live: reading mid-run sees the state as of the last handled
    /// event.
    pub fn workload_stats(&self) -> Option<&LoadStats> {
        self.workload.as_deref().map(LoadEngine::stats)
    }

    /// Attempts re-planned and re-issued after a failure, in total.
    pub fn reroutes(&self) -> u64 {
        self.ledger.counters().reroutes
    }

    /// Requests abandoned after exhausting their retry budget.
    pub fn timeouts(&self) -> u64 {
        self.ledger.counters().abandoned
    }

    // ---- fault injection (see crate::fault) --------------------------

    /// Arms a fault plan (see [`crate::fault`]): scheduled events
    /// land on the shared queue at their offsets from *now*, flapping
    /// processes are realized into concrete fail/repair events from
    /// the dedicated `net/fault` substream, and the penalty box
    /// starts pricing planning.
    ///
    /// Faults hit the *quantum* links only: classical control
    /// channels stay up. A plan that
    /// disconnects a pair a request is later issued for makes that
    /// issue panic ("no path"), exactly like a statically
    /// disconnected pair — run fault plans on topologies that stay
    /// connected (a grid survives any single edge).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.planner
            .arm_penalty_box(self.topo.edge_count(), plan.penalty);
        for (delay, kind) in plan.expand(&mut self.fault_rng) {
            self.engine.schedule_in(delay, NetEvent::Fault { kind });
        }
    }

    /// Edge failures injected so far (node churn counts one per
    /// incident edge actually taken down).
    pub fn faults(&self) -> u64 {
        self.fault_count
    }

    /// Edge repairs applied so far.
    pub fn repairs(&self) -> u64 {
        self.repair_total
    }

    /// The edge's current (decayed) penalty-box surcharge: 0 when no
    /// fault plan is armed, the box is disabled, or the penalty has
    /// decayed away.
    pub fn penalty(&self, edge: usize) -> f64 {
        self.planner.penalty(edge, self.engine.now())
    }

    fn on_fault(&mut self, kind: FaultKind, t: SimTime) {
        match kind {
            FaultKind::Fail { edge } => self.fail_edge(edge, t),
            FaultKind::Repair { edge, profile } => self.repair_edge(edge, profile.map(|p| *p), t),
            FaultKind::NodeDown { node } => {
                for edge in self.topo.edges_at(node) {
                    self.fail_edge(edge, t);
                }
            }
            FaultKind::NodeUp { node } => {
                for edge in self.topo.edges_at(node) {
                    self.repair_edge(edge, None, t);
                }
            }
        }
    }

    /// Takes an edge's quantum link down: marks it down (planning
    /// treats it as absent), bumps its penalty, and fails every
    /// in-flight request riding it, in id order, through the ordinary
    /// rejection path — release, retract, then backoff and re-plan or
    /// abandon ([`Network::fail_attempt`]). No-op if the edge is
    /// already down.
    fn fail_edge(&mut self, edge: usize, t: SimTime) {
        if !self.topo.edge_up(edge) {
            return;
        }
        self.topo.set_edge_up(edge, false);
        self.fault_count += 1;
        self.planner.penalize(edge, t);
        self.emit(t, FAULT_TRACK, 0, SpanStage::EdgeFail { edge });
        for id in self.ledger.riders(edge) {
            self.fail_attempt(id, Some(edge), t);
        }
    }

    /// Brings an edge's quantum link back up, optionally under a
    /// replacement (typically degraded) profile. The underlying link
    /// simulation is rebuilt from scratch: repaired hardware does not
    /// resume the randomness of its previous life, so the new
    /// incarnation runs under a fresh deterministic seed (salted by
    /// the per-edge repair count) with its first MHP cycle aligned to
    /// the boundary at or after `t` — no history replay, O(1)
    /// whatever the downtime. The penalty box is *not* cleared: the
    /// edge re-enters planning at its decayed price. No-op if the
    /// edge is already up.
    fn repair_edge(&mut self, edge: usize, profile: Option<LinkConfig>, t: SimTime) {
        if self.topo.edge_up(edge) {
            return;
        }
        self.topo.set_edge_up(edge, true);
        self.repair_total += 1;
        if let Some(profile) = profile {
            // A new profile changes the edge's FEU-derived planning
            // profile.
            self.topo.set_link_config(edge, profile);
            self.planner.forget_profiles();
        }
        self.repair_count[edge] += 1;
        let mut cfg = self.topo.edge(edge).link.clone();
        cfg.seed = DetRng::new(cfg.seed)
            .substream(&format!("repair/{}", self.repair_count[edge]))
            .seed();
        let feu = self.planner.estimator_for(&cfg.scenario);
        let link = embed(LinkSimulation::new_starting_at(cfg, feu, t));
        self.engine.replace_link(edge, link);
        // A still-pending Expire for a CREATE of the old incarnation
        // fires into the new link as a no-op (unknown create id).
        self.ledger.forget_creates_on(edge);
        self.emit(t, FAULT_TRACK, 0, SpanStage::EdgeRepair { edge });
    }

    /// Total NL pairs the link layer has delivered on edge `edge` for
    /// network requests (the raw pair cost purification spends).
    pub fn pairs_delivered(&self, edge: usize) -> u64 {
        self.ledger.counters().pairs_delivered[edge]
    }

    /// Link-level 2→1 distillations attempted on edge `edge`.
    pub fn purify_attempts(&self, edge: usize) -> u64 {
        self.ledger.counters().purify_attempts[edge]
    }

    /// Link-level distillations on edge `edge` whose parity check
    /// agreed (the pair survived, boosted).
    pub fn purify_successes(&self, edge: usize) -> u64 {
        self.ledger.counters().purify_successes[edge]
    }

    /// Number of in-flight path reservations crossing edge `edge` —
    /// the contention the EGP's distributed queue is arbitrating there
    /// (it serves multiple outstanding CREATEs in queue order).
    pub fn edge_load(&self, edge: usize) -> u32 {
        self.ledger.edge_load(edge)
    }

    /// Plans up to `k` loopless routes from `src` to `dst` under the
    /// current metric, cheapest first; edges whose achievable K-type
    /// fidelity ceiling is below `fmin` are excluded — for *every*
    /// metric, hop count included, because a link whose FEU cannot
    /// reach `fmin` would reject the CREATE as UNSUPP and the request
    /// would hang on a dead route. Planning always sees the *live*
    /// per-edge reservation counts ([`Network::edge_load`]) through
    /// [`RouteMetric::load_cost`]; the static metrics ignore them by
    /// default, [`crate::route::LoadScaledLatency`] prices them in.
    /// Planning is pure — nothing is reserved. (The planner's edge
    /// profiles are built lazily on the first call and reused for the
    /// life of the network.)
    ///
    /// # Panics
    /// Panics on out-of-range nodes, `src == dst`, or `k == 0`.
    pub fn plan_routes(&mut self, src: usize, dst: usize, fmin: f64, k: usize) -> Vec<Route> {
        self.plan_routes_avoiding(src, dst, fmin, k, &[])
    }

    /// [`Network::plan_routes`] with an additional set of barred
    /// edges — what a re-route uses to steer around the path that
    /// just failed.
    ///
    /// # Panics
    /// Panics on out-of-range nodes, `src == dst`, or `k == 0`.
    pub fn plan_routes_avoiding(
        &mut self,
        src: usize,
        dst: usize,
        fmin: f64,
        k: usize,
        exclude: &[usize],
    ) -> Vec<Route> {
        let route = PlanAsk::route(src, dst, fmin, self.planner.policy);
        let ask = PlanAsk {
            k,
            exclude,
            ..route
        };
        self.planner
            .plan(&self.topo, &self.ledger, self.engine.now(), ask)
    }

    /// The single best route under the current metric, or `None` if no
    /// path can serve `fmin`.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst`.
    pub fn plan_route(&mut self, src: usize, dst: usize, fmin: f64) -> Option<Route> {
        self.plan_routes(src, dst, fmin, 1).into_iter().next()
    }

    /// The best route to issue (or re-issue) a request under `seed` on,
    /// [`Planner::plan_for_issue`]'s fallback ladder included.
    fn route_for_issue(&mut self, seed: &AttemptSeed) -> Option<Route> {
        let exclude = &seed.excluded;
        let route = PlanAsk::route(seed.src, seed.dst, seed.fmin, seed.policy);
        let ask = PlanAsk { exclude, ..route };
        let routes = self
            .planner
            .plan_for_issue(&self.topo, &self.ledger, self.engine.now(), ask);
        routes.into_iter().next()
    }

    /// Requests end-to-end entanglement between `src` and `dst` at
    /// minimum link fidelity `fmin`; returns the request id. The path
    /// is chosen by the current [`RouteMetric`] (default:
    /// [`HopCount`](crate::route::HopCount)) and reserved immediately;
    /// NL CREATEs are issued hop-by-hop as the reservation message
    /// propagates over the classical control channels.
    ///
    /// If paths exist but none can serve `fmin` (every candidate
    /// contains an edge whose FEU ceiling is below it), the best
    /// route *ignoring* feasibility is reserved instead: the links
    /// reject their CREATEs as UNSUPP, the attempt fails, and — once
    /// its retry budget is spent on equally infeasible re-plans — the
    /// request is abandoned and counted in [`Network::timeouts`]. No
    /// outcome is ever produced, which is what
    /// [`Network::run_until_outcome`]'s `None` and the sweep driver's
    /// zero-success records rely on.
    ///
    /// # Panics
    /// Panics if no path connects the nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use qlink_des::SimDuration;
    /// use qlink_net::network::Network;
    /// use qlink_net::topology::Topology;
    /// use qlink_sim::config::LinkConfig;
    /// use qlink_sim::workload::WorkloadSpec;
    ///
    /// // A 3-node repeater chain; node 1 swaps under SWAP-ASAP.
    /// let topo = Topology::chain(3, |i| LinkConfig::lab(WorkloadSpec::none(), 100 + i as u64));
    /// let mut net = Network::new(topo, 42);
    /// net.request_entanglement(0, 2, 0.6);
    /// let out = net
    ///     .run_until_outcome(SimDuration::from_secs(30))
    ///     .expect("SWAP-ASAP delivers");
    /// assert_eq!(out.path, vec![0, 1, 2]);
    /// assert_eq!(out.swaps, 1);
    /// assert!(out.end_to_end_fidelity > 0.25);
    /// ```
    pub fn request_entanglement(&mut self, src: usize, dst: usize, fmin: f64) -> u64 {
        if self.planner.policy == Policy::EndToEndPurify {
            return self.request_entanglement_distilled(src, dst, fmin);
        }
        let seed = self.planner.seed(src, dst, fmin, self.engine.now());
        let route = self
            .route_for_issue(&seed)
            .unwrap_or_else(|| panic!("no path from {src} to {dst}"));
        self.issue_fresh(&route.nodes, seed)
    }

    /// Requests one end-to-end pair produced by 2→1 distillation of
    /// two concurrent streams (what [`Network::request_entanglement`]
    /// issues under [`Policy::EndToEndPurify`]): the streams split
    /// over edge-disjoint routes where the topology has them, and when
    /// both deliver, the path ends measure, exchange the parity bit
    /// across the whole path's control channels, and either emit one
    /// boosted pair or discard both and regenerate. The returned id
    /// names the *group*; its [`EndToEndOutcome`] has
    /// [`EndToEndOutcome::distilled`] set.
    ///
    /// # Panics
    /// Panics if no path connects the nodes.
    pub fn request_entanglement_distilled(&mut self, src: usize, dst: usize, fmin: f64) -> u64 {
        let group = self.ledger.new_id();
        let now = self.engine.now();
        // The group id gets its own issue span: its Deliver (and thus
        // the chrome-trace span close) is reported under the group id,
        // while the member streams trace under their own ids.
        self.emit(now, group, 0, SpanStage::Issue { src, dst, fmin });
        let members = self.request_entanglement_multipath(src, dst, fmin, 2);
        let template = AttemptSeed {
            group: Some(group),
            ..self.planner.seed(src, dst, fmin, now)
        };
        self.ledger
            .open_group(group, [members[0], members[1]], template);
        group
    }

    /// Requests entanglement between the ends of an explicit node
    /// path, bypassing route selection. Useful for experiments that
    /// pin paths, and the primitive
    /// [`Network::request_entanglement_multipath`] builds on.
    ///
    /// # Panics
    /// Panics if the path has fewer than two nodes or consecutive
    /// nodes are not connected.
    pub fn request_on_path(&mut self, path: &[usize], fmin: f64) -> u64 {
        assert!(path.len() >= 2, "a path needs two ends");
        let (src, dst) = (path[0], path[path.len() - 1]);
        let seed = self.planner.seed(src, dst, fmin, self.engine.now());
        self.issue_fresh(path, seed)
    }

    /// Allocates a new request id and issues its first attempt.
    fn issue_fresh(&mut self, path: &[usize], seed: AttemptSeed) -> u64 {
        let id = self.ledger.new_id();
        self.issue_attempt(id, path, seed);
        id
    }

    /// Reserves `path` and issues its CREATEs for an existing request
    /// id, under the given retry/identity state — both the first
    /// attempt of a fresh request and every re-routed attempt land
    /// here.
    fn issue_attempt(&mut self, id: u64, path: &[usize], seed: AttemptSeed) {
        let edges = self.topo.path_edges(path);
        let attempt = seed.attempt;
        if let Some(tl) = self.telemetry.as_deref_mut() {
            let now = self.engine.now();
            if attempt == 0 {
                let (src, dst, fmin) = (seed.src, seed.dst, seed.fmin);
                tl.emit(now, id, 0, SpanStage::Issue { src, dst, fmin });
            }
            let path = path.to_vec();
            tl.emit(now, id, attempt, SpanStage::Plan { path });
        }
        // Arm this attempt's failure detection (no event at all when
        // the request was issued without a timeout).
        if let Some(timeout) = seed.timeout {
            let request = id;
            let timer = NetEvent::RequestTimeout { request, attempt };
            self.engine.schedule_in(timeout, timer);
        }
        let est_fidelity = |e| self.planner.edge_fidelity(&self.topo, e);
        self.ledger
            .issue(id, path.to_vec(), &edges, est_fidelity, seed);
        // The source issues its CREATE(s) now; downstream nodes issue
        // theirs when the reservation reaches them.
        self.reserve_at(id, 0);
    }

    /// Requests `streams` concurrent end-to-end entanglements between
    /// the same pair, split across the K best routes under the current
    /// metric. Routes are taken edge-disjoint greedily (cheapest
    /// first), widening the Yen candidate pool until `streams`
    /// disjoint routes are found, the graph runs out of simple paths,
    /// or the pool hits a sanity cap; when fewer disjoint routes exist
    /// than `streams`, the remaining streams round-robin onto the
    /// selected routes and shared edges arbitrate through the EGP's
    /// distributed queue, which already serves multiple outstanding
    /// CREATEs in queue order. Returns one request id per stream, in
    /// issue order. As with [`Network::request_entanglement`], an
    /// `fmin` no path can serve falls back to best-effort routes that
    /// the links will UNSUPP (the streams are then abandoned).
    ///
    /// # Panics
    /// Panics if `streams == 0` or no path connects the nodes.
    pub fn request_entanglement_multipath(
        &mut self,
        src: usize,
        dst: usize,
        fmin: f64,
        streams: usize,
    ) -> Vec<u64> {
        assert!(streams >= 1, "no streams requested");
        let route = PlanAsk::route(src, dst, fmin, self.planner.policy);
        let ask = PlanAsk {
            k: streams,
            ..route
        };
        let now = self.engine.now();
        let selected = self
            .planner
            .disjoint_routes(&self.topo, &self.ledger, now, ask);
        assert!(!selected.is_empty(), "no path from {src} to {dst}");
        (0..streams)
            .map(|i| self.request_on_path(&selected[i % selected.len()].nodes, fmin))
            .collect()
    }

    /// Runs the network for `duration` of global simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let prof = self.telemetry.is_some().then(Instant::now);
        let horizon = self.engine.now() + duration;
        while let Some((t, ev)) = self.engine.queue.pop_until(horizon) {
            self.handle(t, ev);
        }
        self.engine.account_elapsed(duration, horizon);
        self.finish_profile(prof);
    }

    /// Runs until the next end-to-end outcome, or until `max_time` of
    /// additional simulated time passes. On timeout the request keeps
    /// running (cancel with [`Network::cancel_request`] if desired).
    pub fn run_until_outcome(&mut self, max_time: SimDuration) -> Option<EndToEndOutcome> {
        let prof = self.telemetry.is_some().then(Instant::now);
        let start = self.engine.now();
        let deadline = start + max_time;
        while self.outcomes.is_empty() {
            match self.engine.queue.pop_until(deadline) {
                Some((t, ev)) => self.handle(t, ev),
                None => break,
            }
        }
        let end = self.engine.now();
        self.engine.account_elapsed(end.since(start), end);
        self.finish_profile(prof);
        if self.outcomes.is_empty() {
            None
        } else {
            Some(self.outcomes.remove(0))
        }
    }

    /// Closes out one run loop's profiling stopwatch and refreshes the
    /// queue gauges (pure observation: nothing here feeds back into
    /// the simulation).
    fn finish_profile(&mut self, started: Option<Instant>) {
        let Some(started) = started else { return };
        let p = self
            .telemetry
            .as_deref_mut()
            .expect("only telemetry starts the stopwatch")
            .profile_mut();
        p.wall_nanos += started.elapsed().as_nanos() as u64;
        p.events_handled = self.engine.queue.events_fired();
        p.queue_depth_high_water = self.engine.queue.depth_high_water();
        p.cycles_elided = self.engine.cycles_elided();
    }

    /// Takes every completed outcome accumulated so far.
    pub fn take_outcomes(&mut self) -> Vec<EndToEndOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Abandons an in-flight request — a failed attempt's teardown
    /// minus the re-plan: the path reservation is released and every
    /// CREATE still queued inside a link is retracted, so the links
    /// stop spending attempt cycles on pairs nobody will consume. No
    /// terminal span is recorded: the caller, not the network, ended
    /// the request. A stream parked between failure and re-issue is
    /// dropped, making its pending re-issue a no-op. A group id from
    /// [`Network::request_entanglement_distilled`] cancels both of the
    /// group's streams and drops any parked pair.
    pub fn cancel_request(&mut self, request: u64) {
        self.workload_abandon(request);
        if let Some(members) = self.ledger.close_group(request) {
            for member in members {
                self.cancel_request(member);
            }
            return;
        }
        self.teardown(request);
    }

    // ---- internals ---------------------------------------------------

    /// Takes `request` off the books ([`Ledger::teardown`]) and sends
    /// what that owes: a retraction notice per CREATE still queued
    /// inside a link, down the edge's classical control channel (a
    /// [`NetEvent::Expire`] one control delay out); on arrival the
    /// link-layer EXPIRE hook removes the request at both EGPs.
    fn teardown(&mut self, request: u64) -> Option<Ended> {
        let ended = self.ledger.teardown(request)?;
        let now = self.engine.now();
        for &key in &ended.retract {
            let edge = key.0;
            if let Some(tl) = self.telemetry.as_deref_mut() {
                tl.on_retract(edge);
                let attempt = ended.seed.attempt;
                tl.emit(now, request, attempt, SpanStage::Retract { edge });
            }
            let delay = self.topo.edge(edge).control_delay;
            self.engine.schedule_in(delay, NetEvent::Expire(key));
        }
        Some(ended)
    }

    /// Records a span if telemetry is on (passive either way).
    fn emit(&mut self, t: SimTime, request: u64, attempt: u64, stage: SpanStage) {
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.emit(t, request, attempt, stage);
        }
    }

    /// [`Network::emit`] under the attempt `request` is currently on
    /// (looked up only when telemetry is on).
    fn span(&mut self, t: SimTime, request: u64, stage: SpanStage) {
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.emit(t, request, self.ledger.attempt_of(request), stage);
        }
    }

    /// Sends `msg` to node `at` over a control channel `delay` long.
    fn send(&mut self, delay: SimDuration, at: usize, msg: ControlMsg) {
        self.engine
            .schedule_in(delay, NetEvent::Control { at, msg });
    }

    fn handle(&mut self, t: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::LinkWake { link, gen } => {
                if !self.engine.wake(link, gen, t) {
                    return;
                }
                for d in self.engine.links[link].drain_deliveries() {
                    self.on_delivery(link, d, t);
                }
                for r in self.engine.links[link].drain_rejections() {
                    self.on_rejection(link, r, t);
                }
                self.engine.schedule_wake(link);
            }
            NetEvent::Control { at, msg } => match msg {
                ControlMsg::Reserve { request } => self.on_reserve(request, at),
                ControlMsg::SwapResult {
                    request,
                    target,
                    z,
                    x,
                } => self.on_swap_result(request, at, target, z, x, t),
                ControlMsg::PurifyResult {
                    request,
                    edge,
                    accepted,
                } => self.on_purify_result(request, at, edge, accepted, t),
                ControlMsg::GroupResult { group, accepted } => {
                    self.on_group_result(group, accepted, t)
                }
            },
            NetEvent::RequestTimeout { request, attempt } => {
                // Stale timers (the attempt completed or was already
                // re-issued) carry an older attempt number.
                let current = self.ledger.in_flight(request).map(|(seed, _)| seed.attempt);
                if current == Some(attempt) {
                    self.fail_attempt(request, None, t);
                }
            }
            NetEvent::Reissue { request } => {
                // `None`: cancelled while parked.
                if let Some(seed) = self.ledger.unpark(request) {
                    self.on_reissue(request, seed, t);
                }
            }
            NetEvent::Expire(key) => {
                self.engine.expire(key, t);
                if let Some(tl) = self.telemetry.as_deref_mut() {
                    tl.on_expire(key.0);
                }
            }
            NetEvent::Arrival { index, stream } => self.on_arrival(index, stream, t),
            NetEvent::AdmitQueued => self.on_admit_queued(t),
            NetEvent::Fault { kind } => self.on_fault(kind, t),
        }
    }

    // ---- open-loop workload glue (see crate::load) -------------------

    /// Handles arrival `index` of workload stream `stream` at its
    /// firing instant: resolve class and pair (counting it offered),
    /// schedule the next arrival one gap ahead, and run admission
    /// control. An arrival of a stream since replaced (or cleared) is
    /// ignored.
    fn on_arrival(&mut self, index: u64, stream: u64, t: SimTime) {
        let Some(mut wl) = self.workload.take_if(|wl| wl.stream() == stream) else {
            return;
        };
        let (class, pair) = wl.resolve_arrival(index, &mut self.load_rng);
        if let Some(gap) = wl.gap_after(index, &mut self.load_rng) {
            let index = index + 1;
            self.engine
                .schedule_in(gap, NetEvent::Arrival { index, stream });
        }
        match wl.admit_decision(class) {
            Admission::Admit => {
                let fmin = wl.class(class).fmin;
                let id = self.request_entanglement(pair.0, pair.1, fmin);
                wl.register(id, class, t, t);
            }
            Admission::Queue => wl.enqueue(class, t, pair),
            Admission::Drop => wl.drop_arrival(class),
        }
        self.workload = Some(wl);
    }

    /// Drains the workload's waiting queues: admit arrivals —
    /// highest-priority class first, FIFO within a class — until no
    /// waiting arrival has a free slot.
    fn on_admit_queued(&mut self, t: SimTime) {
        let Some(mut wl) = self.workload.take() else {
            return;
        };
        while let Some(q) = wl.pop_admittable() {
            let fmin = wl.class(q.class).fmin;
            let id = self.request_entanglement(q.pair.0, q.pair.1, fmin);
            wl.register(id, q.class, q.arrived_at, t);
        }
        self.workload = Some(wl);
    }

    /// A workload-tracked request was abandoned (retry budget
    /// exhausted, no route left, or cancelled): count it and free its
    /// slot. No-op for untracked requests.
    fn workload_abandon(&mut self, request: u64) {
        let tracked = self
            .workload
            .as_deref_mut()
            .is_some_and(|wl| wl.abandon(request));
        if tracked {
            self.schedule_admit_drain();
        }
    }

    /// A tracked request freed its slot: if arrivals are waiting,
    /// schedule a queue drain one control delay out (the slot-freed
    /// notice has to reach the admission plane).
    fn schedule_admit_drain(&mut self) {
        if self.workload.as_deref().is_some_and(LoadEngine::has_queued) {
            let delay = self.engine.min_control_delay;
            self.engine.schedule_in(delay, NetEvent::AdmitQueued);
        }
    }

    // ---- the life of an attempt --------------------------------------

    /// The reservation of `request` is at path position `pos`: that
    /// node issues every NL CREATE its edge starts with, and forwards
    /// the reservation to the next node that must issue one.
    fn reserve_at(&mut self, request: u64, pos: usize) {
        let Some((_, att)) = self.ledger.in_flight(request) else {
            return;
        };
        let (edge, need) = att.create_site(pos);
        // The node at position `len - 2` submits the last edge; the
        // reservation needs to travel no further.
        let next = (pos + 2 < att.path().len()).then(|| att.path()[pos + 1]);
        for _ in 0..need {
            self.submit_nl(request, pos);
        }
        if let Some(next) = next {
            let delay = self.topo.edge(edge).control_delay;
            self.send(delay, next, ControlMsg::Reserve { request });
        }
    }

    /// Issues one NL CREATE for path edge position `pos` of `request`.
    fn submit_nl(&mut self, request: u64, pos: usize) {
        let Some((seed, att)) = self.ledger.in_flight(request) else {
            return;
        };
        let (fmin, attempt) = (seed.fmin, seed.attempt);
        let (edge, _) = att.create_site(pos);
        let side = self.topo.edge(edge).side_of(att.path()[pos]);
        let now = self.engine.now();
        let create_id = self.engine.submit_nl(edge, side, fmin);
        self.ledger
            .record_create((edge, side, create_id), request, now);
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.on_create(edge);
            let stage = SpanStage::Create {
                edge,
                side,
                create_id,
            };
            tl.emit(now, request, attempt, stage);
        }
    }

    fn on_reserve(&mut self, request: u64, at: usize) {
        let in_flight = self.ledger.in_flight(request);
        if let Some(pos) = in_flight.and_then(|(_, att)| att.position(at)) {
            self.reserve_at(request, pos);
        }
    }

    /// A link terminally rejected one of this network's CREATEs
    /// (UNSUPP and friends): the attempt fails *now* — releasing its
    /// reservations and either trying another path or, with no retry
    /// budget left, abandoning the request — instead of idling until
    /// some timeout notices.
    fn on_rejection(&mut self, edge: usize, r: Rejection, t: SimTime) {
        let key = (edge, r.origin, r.create_id);
        let Some((request, _)) = self.ledger.claim_create(key) else {
            return;
        };
        if r.is_unsupported() {
            if let Some(tl) = self.telemetry.as_deref_mut() {
                tl.on_unsupp(edge);
            }
            // A terminal "this link cannot serve that" also feeds the
            // penalty box: the edge is priced up for *everyone*, so
            // later plans steer other requests around it too.
            self.planner.penalize(edge, t);
        }
        self.fail_attempt(request, Some(edge), t);
    }

    /// Fails the current attempt of `request`: tears it down (so
    /// [`Network::edge_load`] stays an exact congestion signal through
    /// timeout storms) and either parks it for re-issue around the
    /// edges the failure implicates (budget left) or abandons it.
    fn fail_attempt(&mut self, request: u64, failed_edge: Option<usize>, t: SimTime) {
        let Some(ended) = self.teardown(request) else {
            return;
        };
        if ended.seed.retries_left == 0 {
            self.abandon(request, &ended.seed, failed_edge, t);
            return;
        }
        // Park and re-issue after a jittered backoff: the release has
        // to propagate along the old path's control channels before its
        // capacity is really free, and the jitter desynchronises the
        // retry storm of streams that timed out at the same instant.
        let attempt = ended.seed.attempt;
        self.emit(t, request, attempt, SpanStage::Reroute { failed_edge });
        let base = self.topo.path_control_delay(ended.attempt.path());
        let backoff = self
            .planner
            .backoff_delay(base)
            // At least one control delay must pass before the
            // released capacity is real.
            .max(self.engine.min_control_delay);
        self.ledger.park(request, ended, failed_edge);
        self.engine
            .schedule_in(backoff, NetEvent::Reissue { request });
    }

    /// The one abandon tail: `request` will never deliver — its retry
    /// budget is exhausted, or no route is left to re-issue it on.
    /// Counts it, closes its span, and tells whoever tracks it: the
    /// workload, or its distillation group, which is then dropped whole
    /// (partner stream cancelled, any parked pair discarded).
    fn abandon(
        &mut self,
        request: u64,
        seed: &AttemptSeed,
        failed_edge: Option<usize>,
        t: SimTime,
    ) {
        self.ledger.count_abandoned();
        self.emit(t, request, seed.attempt, SpanStage::Abandon { failed_edge });
        let Some(group) = seed.group else {
            return self.workload_abandon(request);
        };
        let Some(members) = self.ledger.close_group(group) else {
            return;
        };
        // The group id is the public handle a workload tracks; member
        // streams were never registered, so their cancels below are
        // workload no-ops.
        self.workload_abandon(group);
        for member in members {
            if member != request {
                self.cancel_request(member);
            }
        }
    }

    /// A failed stream's backoff elapsed: re-plan against the
    /// *current* loads and profiles, around every excluded edge where
    /// possible, and re-issue under the original id, fmin, and policy.
    fn on_reissue(&mut self, request: u64, seed: AttemptSeed, t: SimTime) {
        let Some(route) = self.route_for_issue(&seed) else {
            // Faults have cut every path between the pair.
            self.abandon(request, &seed, None, t);
            return;
        };
        self.issue_attempt(request, &route.nodes, seed);
    }

    fn on_delivery(&mut self, edge_idx: usize, d: Delivery, t: SimTime) {
        if d.kind != RequestKind::Nl {
            return;
        }
        let key = (edge_idx, d.origin, d.create_id);
        let Some((request, submitted)) = self.ledger.claim_create(key) else {
            return;
        };
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.on_add(t.since(submitted));
        }
        let (edge, fidelity) = (edge_idx, d.fidelity);
        self.span(t, request, SpanStage::Add { edge, fidelity });
        let edge = self.topo.edge(edge_idx);
        let ends = [edge.a, edge.b];
        if !self.ledger.add_pair(request, edge_idx, edge, fidelity, t) {
            return;
        }
        for node in ends {
            self.observe(node, t, |n| n.on_pair(request, edge_idx));
        }
    }

    /// Feeds node `node` one observation and executes the action its
    /// rule table answers with, if any.
    fn observe(
        &mut self,
        node: usize,
        t: SimTime,
        obs: impl FnOnce(&mut SwapAsapNode) -> Option<NodeAction>,
    ) {
        let telemetry = self.telemetry.as_deref_mut();
        match self.ledger.observe(node, t, telemetry, obs) {
            None => {}
            Some(NodeAction::Purify { request, edge }) => self.do_purify(request, edge, t),
            Some(NodeAction::Swap { request, .. }) => self.do_swap(node, request, t),
            Some(NodeAction::EndReady {
                request,
                frame_z,
                frame_x,
            }) => {
                let complete = self.ledger.end_ready(request, node, (frame_z, frame_x));
                if complete {
                    self.finalize(request, t);
                }
            }
        }
    }

    /// Runs a link-level 2→1 distillation ([`Ledger::purify`]) and
    /// sends each endpoint its partner's parity bit over the edge's
    /// classical control channel: each learns the verdict when that
    /// bit arrives.
    fn do_purify(&mut self, request: u64, edge_idx: usize, t: SimTime) {
        let edge = self.topo.edge(edge_idx);
        let (ends, delay) = ((edge.a, edge.b), edge.control_delay);
        let Some(accepted) = self.ledger.purify(request, edge_idx, ends, t) else {
            return;
        };
        let edge = edge_idx;
        self.span(t, request, SpanStage::Purify { edge });
        let verdict = ControlMsg::PurifyResult {
            request,
            edge,
            accepted,
        };
        for node in [ends.0, ends.1] {
            self.send(delay, node, verdict);
        }
    }

    /// Delivers a link-level purification verdict to `at`: the node's
    /// table advances (possibly unlocking a swap or completion), and
    /// the edge's CREATE-issuing endpoint generates whatever fresh
    /// pairs the table now demands.
    fn on_purify_result(
        &mut self,
        request: u64,
        at: usize,
        edge: usize,
        accepted: bool,
        t: SimTime,
    ) {
        self.span(t, request, SpanStage::PurifyParity { edge, accepted });
        self.observe(at, t, |n| n.on_purify_result(request, edge, accepted));
        if let Some((pos, demand)) = self.ledger.take_create_demand(request, at, edge) {
            for _ in 0..demand {
                self.submit_nl(request, pos);
            }
        }
    }

    /// Runs a repeater's entanglement swap ([`Ledger::swap`]) and
    /// broadcasts the Bell-measurement outcome to both ends.
    fn do_swap(&mut self, node: usize, request: u64, t: SimTime) {
        self.span(t, request, SpanStage::Swap { node });
        let Some((z, x)) = self.ledger.swap(request, node, t) else {
            return;
        };
        let (seed, _) = self.ledger.in_flight(request).expect("swapped above");
        for target in [seed.src, seed.dst] {
            self.forward_swap_result(request, node, target, z, x);
        }
    }

    /// Sends a swap result one hop from `from` toward `target` over
    /// the classical control channel of the connecting path edge.
    fn forward_swap_result(&mut self, request: u64, from: usize, target: usize, z: u8, x: u8) {
        let Some((_, att)) = self.ledger.in_flight(request) else {
            return;
        };
        let (next, via) = att.step_toward(from, target);
        let delay = self.topo.edge(via).control_delay;
        let result = ControlMsg::SwapResult {
            request,
            target,
            z,
            x,
        };
        self.send(delay, next, result);
    }

    fn on_swap_result(&mut self, request: u64, at: usize, target: usize, z: u8, x: u8, t: SimTime) {
        if at != target {
            self.forward_swap_result(request, at, target, z, x);
            return;
        }
        self.span(t, request, SpanStage::SwapResult { node: at });
        self.observe(at, t, |n| n.on_swap_result(request, z, x));
    }

    /// Both ends of `request` hold a usable pair: the attempt leaves
    /// the books through the one exit, complete ([`Ledger::complete`]).
    fn finalize(&mut self, request: u64, t: SimTime) {
        let Some(ended) = self.teardown(request) else {
            return;
        };
        debug_assert!(
            ended.retract.is_empty(),
            "request {request} completed with CREATEs still queued"
        );
        match self.ledger.complete(request, ended, t, &self.topo) {
            Completion::Deliver { outcome, attempt } => self.deliver(outcome, attempt),
            Completion::Waiting => {}
            Completion::Verdict {
                group,
                accepted,
                at,
                delay,
            } => self.send(delay, at, ControlMsg::GroupResult { group, accepted }),
        }
    }

    /// The one delivery tail: records the completion (metrics, the
    /// closing span — stamped `attempt`) and hands the outcome to
    /// whoever waits for it. Workload completions feed the class
    /// accounting directly: buffering an outcome per delivery would
    /// grow without bound over a million-arrival run.
    fn deliver(&mut self, outcome: EndToEndOutcome, attempt: u64) {
        let (id, t) = (outcome.request, outcome.delivered_at);
        let (fidelity, latency) = (outcome.end_to_end_fidelity, outcome.latency);
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.on_complete(t, fidelity, latency);
        }
        self.emit(t, id, attempt, SpanStage::Deliver { fidelity, latency });
        let workload = self.workload.as_deref_mut();
        if workload.is_some_and(|wl| wl.complete(id, fidelity, t)) {
            self.schedule_admit_drain();
        } else {
            self.outcomes.push(outcome);
        }
    }

    /// The verdict of an end-to-end distillation reached the ends: an
    /// agreeing parity delivers the surviving boosted pair; a
    /// disagreement discards both streams' pairs and regenerates both
    /// streams on their routes, under the group's pinned terms.
    fn on_group_result(&mut self, group: u64, accepted: bool, t: SimTime) {
        self.emit(t, group, 0, SpanStage::GroupParity { group, accepted });
        match self.ledger.group_verdict(group, accepted, t) {
            None => {}
            Some(GroupVerdict::Deliver(outcome)) => self.deliver(outcome, 0),
            Some(GroupVerdict::Regenerate { routes, template }) => {
                let members = routes.map(|route| self.issue_fresh(&route, template.clone()));
                self.ledger.set_group_members(group, members);
            }
        }
    }
}
