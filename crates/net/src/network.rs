//! The shared-clock multi-link network simulation.
//!
//! A [`Network`] is three owned units and the dispatch between them:
//!
//! * the **engine** (`engine.rs`) — what moves the clock: every link of
//!   the [`Topology`], each a full [`LinkSimulation`], on **one** global
//!   discrete-event queue with every control message, timer, fault and
//!   workload arrival;
//! * the **request ledger** (`ledger.rs`) — who owns a request's
//!   resources: its terms and owner, its attempt's path and per-hop state, the
//!   entangled segments swaps merge, its rule table at every path node
//!   ([`RuleState`](crate::ruleset::RuleState)) and the CREATEs it has
//!   queued inside links.
//!   However an attempt ends — delivery, failure,
//!   [`Network::cancel_request`] — one teardown releases all of it;
//! * the **planner** (`planner.rs`) — which path to take
//!   ([`crate::route`] over live per-edge loads and the penalty box),
//!   and how long a failed attempt backs off.
//!
//! A network is described once, by a [`NetConfig`]: the metric,
//! policy, retry budget and timeout requests are issued under, the
//! fault plan and workload it is subjected to, and telemetry — all
//! fixed before it runs.
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
use crate::ledger::{AttemptSeed, Completion, Ended, GroupVerdict, Ledger, Owner};
use crate::load::{LoadEngine, LoadStats, Workload};
use crate::obs::{SpanStage, Telemetry, TelemetryConfig};
use crate::planner::{Planner, Terms};
use crate::route::{PlanContext, Route, RouteMetric};
use crate::ruleset::{NodeAction, Obs, PathRole, Policy, RuleSet};
use crate::topology::Topology;
use qlink_des::{DetRng, SimDuration, SimTime};
use qlink_egp::feu::FidelityEstimator;
use qlink_phys::attempt::ModelCache;
use qlink_sim::config::{LinkConfig, RequestKind};
use qlink_sim::link::{Delivery, LinkOutput, LinkSimulation, Rejection};
use std::sync::Arc;
use std::time::Instant;

pub use crate::ledger::EndToEndOutcome;

/// The reserved span id fault and expire spans are emitted under: they
/// belong to the network, not to any request still on the books, and
/// request ids count up from zero, so the maximum id is free to serve
/// as the "network" track in chrome-trace exports.
const NET_TRACK: u64 = u64::MAX;

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
pub enum ExecMode { Sequential, Sharded(usize) } // benchmark-compat: ROADMAP item 1 deletes this

/// Everything a [`Network`] runs under besides its topology and seed,
/// fixed before it runs. [`NetConfig::default`] is what
/// [`Network::new`] runs under.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How plans price edges ([`RouteMetric::Hops`] by default; the
    /// others weigh edges by the profiles the route planner derives
    /// from each link's configuration).
    pub metric: RouteMetric,
    /// The [`Policy`] requests run under ([`Policy::SwapAsap`] by
    /// default): it is compiled once, when the network is built, to a
    /// [`crate::ruleset::RuleSet`] table that every attempt installs on
    /// its path nodes and interprets on each observation; it also
    /// prices edges in planning ([`PlanContext::policy`]). [`Policy::LinkPurify`]
    /// makes every path edge distill two delivered pairs into one
    /// before it may be swapped; [`Policy::EndToEndPurify`] makes
    /// [`Network::request_entanglement`] run two concurrent streams
    /// and distill their end-to-end pairs into one.
    pub policy: Policy,
    /// How many times a failed attempt (timeout, terminal link
    /// rejection — UNSUPP included — or a fault on its path) is
    /// re-planned and re-issued before its request is abandoned; 0 (the
    /// default) abandons on the first failure.
    pub retries: u32,
    /// An attempt that has not delivered within this much simulated
    /// time of its issue fails: it releases every reservation it holds
    /// and, with retry budget left, re-plans against current load
    /// (excluding the failed path's edges) and re-issues; otherwise
    /// the request is abandoned and counted in [`Network::timeouts`].
    /// `None` (the default) schedules no timeout events: an attempt
    /// then fails only on a terminal link rejection or a fault.
    pub request_timeout: Option<SimDuration>,
    /// The adversity the run is subjected to (see [`crate::fault`]):
    /// scheduled events land on the shared queue at their offsets from
    /// time zero, flapping processes are realized from the dedicated
    /// `net/fault` substream, and the penalty box prices planning.
    /// Faults hit the *quantum* links only: classical control channels
    /// stay up. `None` (the default) schedules no fault event, arms no
    /// penalty box and draws nothing from `net/fault`.
    pub faults: Option<FaultPlan>,
    /// An open-loop workload (see [`crate::load`]): arrivals are
    /// first-class events on the shared queue, scheduled one ahead,
    /// each resolving its user class and `(src, dst)` pair, running
    /// admission control, and issuing a request under these terms.
    /// Every workload draw comes from the dedicated `net/load`
    /// substream; `None` (the default) draws nothing from it.
    ///
    /// The workload's completions are folded straight into
    /// [`Network::workload_stats`] and **not** pushed onto the
    /// [`Network::take_outcomes`] buffer — a sustained run offers
    /// millions of arrivals, and per-outcome records would grow
    /// without bound. Drive workload runs with [`Network::run_for`].
    pub workload: Option<Workload>,
    /// The telemetry layer (see [`crate::obs`]):
    /// [`TelemetryConfig::from_env`] by default, which records nothing
    /// unless `QLINK_TRACE` opts in. Recording is passive: whatever the
    /// config, the run's outcomes, RNG draws, and event stream are
    /// unchanged.
    pub telemetry: TelemetryConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            metric: RouteMetric::Hops,
            policy: Policy::SwapAsap,
            retries: 0,
            request_timeout: None,
            faults: None,
            workload: None,
            telemetry: TelemetryConfig::from_env(),
        }
    }
}

/// A multi-node quantum network on one shared event queue.
pub struct Network {
    topo: Topology,
    engine: Engine,
    ledger: Ledger,
    planner: Planner,
    /// The terms requests are issued under.
    terms: Terms,
    /// The policy's rule table, compiled once: every attempt installs
    /// it on its path nodes.
    rules: Arc<RuleSet>,
    /// Workload arrival randomness (gaps, class picks, pair picks) —
    /// its own substream, drawn only while a workload is armed, so
    /// closed-loop runs never touch it.
    load_rng: DetRng,
    /// The open-loop workload engine (see [`crate::load`]), `None`
    /// unless the config armed one.
    workload: Option<Box<LoadEngine>>,
    /// Times each edge has been repaired — salts the rebuilt link's
    /// fresh deterministic seed so successive incarnations never
    /// replay each other's randomness.
    repair_count: Vec<u64>,
    /// Edge failures injected so far (node churn counts per edge).
    fault_count: u64,
    outcomes: Vec<EndToEndOutcome>,
    /// The telemetry layer (see [`crate::obs`]); `None` (the default)
    /// records nothing. Recording is passive — no RNG draw, no event —
    /// so results are bit-identical with it on or off.
    telemetry: Option<Box<Telemetry>>,
}

impl Network {
    /// Builds the network under [`NetConfig::default`]: one full
    /// link-layer simulation per edge (seeded from its own
    /// `LinkConfig`). `seed` drives network-layer randomness (the
    /// Bell-measurement outcomes of the swaps).
    ///
    /// # Panics
    /// Panics on a topology with no edges.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self::with_config(topo, seed, NetConfig::default(), ModelCache::new())
    }

    /// Builds the network under `config`. It arms, in order, the
    /// telemetry, the terms requests are issued under, the fault plan
    /// and the workload.
    ///
    /// The physics the links and the route planner derive (attempt
    /// models, `Fmin → α` inversions) lands in `models`, one table per
    /// hardware profile. A caller may share it with its other networks
    /// on the same hardware, one after another, as
    /// [`crate::sweep::sweep`]'s workers do: what a model holds is a
    /// pure function of `(params, α)`, so sharing changes no result.
    ///
    /// # Panics
    /// Panics on a topology with no edges, or on a workload with an
    /// empty class list, a non-positive Poisson rate or class weight,
    /// an unsorted trace, an out-of-range class or node index, a
    /// `src == dst` pair, a disconnected pair, or a Poisson class with
    /// an empty pair pool.
    pub fn with_config(topo: Topology, seed: u64, config: NetConfig, models: ModelCache) -> Self {
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
            ledger: Ledger::new(seed, topo.edge_count()),
            planner,
            terms: Terms {
                metric: config.metric,
                policy: config.policy,
                retries: config.retries,
                request_timeout: config.request_timeout,
            },
            rules: Arc::new(config.policy.ruleset()),
            // Substream derivation is pure in (seed, label): creating
            // this here perturbs nothing, and no draw ever leaves it
            // unless a workload arms.
            load_rng: DetRng::new(seed).substream("net/load"),
            fault_count: 0,
            workload: None,
            outcomes: Vec::new(),
            telemetry: None,
            topo,
        };
        net.arm_telemetry(config.telemetry);
        if let Some(plan) = &config.faults {
            let edges = net.topo.edge_count();
            net.planner.arm_penalty_box(edges, plan.penalty);
            let mut fault_rng = DetRng::new(seed).substream("net/fault");
            for (delay, kind) in plan.expand(&mut fault_rng) {
                net.engine.schedule_in(delay, NetEvent::Fault { kind });
            }
        }
        if let Some(workload) = config.workload {
            net.arm_workload(workload);
        }
        net
    }

    fn arm_telemetry(&mut self, config: TelemetryConfig) {
        let edges = self.topo.edge_count();
        self.telemetry = (!config.is_off()).then(|| Box::new(Telemetry::new(edges)));
    }

    fn arm_workload(&mut self, workload: Workload) {
        workload.validate(&self.topo);
        let engine = Box::new(LoadEngine::new(workload));
        if let Some(delay) = engine.first_arrival_delay(&mut self.load_rng) {
            self.engine
                .schedule_in(delay, NetEvent::Arrival { index: 0 });
        }
        self.workload = Some(engine);
    }

    /// Whether the clock has not moved yet: what the compat setters
    /// below may still configure.
    fn unrun(&self) -> bool {
        self.engine.now() == SimTime::ZERO
    }

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn set_route_metric(&mut self, metric: RouteMetric) { debug_assert!(self.unrun()); self.terms.metric = metric } // benchmark-compat: ROADMAP item 1 deletes this

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn set_retry_budget(&mut self, retries: u32) { debug_assert!(self.unrun()); self.terms.retries = retries } // benchmark-compat: ROADMAP item 1 deletes this

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn set_request_timeout(&mut self, timeout: Option<SimDuration>) { debug_assert!(self.unrun()); self.terms.request_timeout = timeout } // benchmark-compat: ROADMAP item 1 deletes this

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn set_workload(&mut self, workload: Workload) { debug_assert!(self.unrun() && self.workload.is_none()); self.arm_workload(workload) } // benchmark-compat: ROADMAP item 1 deletes this

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn set_telemetry(&mut self, config: TelemetryConfig) { debug_assert!(self.unrun()); self.arm_telemetry(config) } // benchmark-compat: ROADMAP item 1 deletes this

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

    /// The path reservations `node` holds, as `(request, role)` in
    /// ascending request id: one per in-flight attempt whose path
    /// visits it, whatever the request's pair — one node serves any
    /// number of concurrent paths.
    pub fn reservations_at(&self, node: usize) -> Vec<(u64, PathRole)> {
        self.ledger.reservations_at(node)
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

    #[doc(hidden)]
    pub fn set_exec(&mut self, _: ExecMode) {} // benchmark-compat: ROADMAP item 1 deletes this

    /// The workload's accounting so far (`None` unless the config
    /// armed one). Counters and histograms are live: reading mid-run
    /// sees the state as of the last handled event.
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

    /// Edge failures injected so far (node churn counts one per
    /// incident edge actually taken down).
    pub fn faults(&self) -> u64 {
        self.fault_count
    }

    /// Edge repairs applied so far.
    pub fn repairs(&self) -> u64 {
        self.repair_count.iter().sum()
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
                for edge in self.topo.edges_at(node).to_vec() {
                    self.fail_edge(edge, t);
                }
            }
            FaultKind::NodeUp { node } => {
                for edge in self.topo.edges_at(node).to_vec() {
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
        self.emit(t, NET_TRACK, 0, SpanStage::EdgeFail { edge });
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
        self.emit(t, NET_TRACK, 0, SpanStage::EdgeRepair { edge });
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

    /// The single best route `src → dst` under the network's metric
    /// and policy, or `None` if no path can serve `fmin`. Edges whose
    /// achievable K-type fidelity ceiling is below `fmin` are excluded
    /// — for *every* metric, hop count included, because a link whose
    /// FEU cannot reach `fmin` would reject the CREATE as UNSUPP. The
    /// plan sees the *live* per-edge reservation counts
    /// ([`Network::edge_load`]) and the penalty box. Planning is pure —
    /// nothing is reserved. (The planner's edge profiles are built
    /// lazily on the first call and reused for the life of the
    /// network.)
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst`.
    pub fn plan_route(&mut self, src: usize, dst: usize, fmin: f64) -> Option<Route> {
        let ask = PlanContext {
            fmin,
            metric: self.terms.metric,
            policy: self.terms.policy,
            ..PlanContext::new(src, dst)
        };
        let now = self.engine.now();
        let routes = self.planner.plan(&self.topo, &self.ledger, now, ask);
        routes.into_iter().next()
    }

    /// The best route to issue (or re-issue) a request under `seed` on,
    /// [`Planner::plan_for_issue`]'s fallback ladder included.
    fn route_for_issue(&mut self, seed: &AttemptSeed) -> Option<Route> {
        let ask = PlanContext {
            fmin: seed.fmin,
            metric: self.terms.metric,
            policy: self.terms.policy,
            exclude: &seed.excluded,
            ..PlanContext::new(seed.src, seed.dst)
        };
        let routes = self
            .planner
            .plan_for_issue(&self.topo, &self.ledger, self.engine.now(), ask);
        routes.into_iter().next()
    }

    /// Requests end-to-end entanglement between `src` and `dst` at
    /// minimum link fidelity `fmin`; returns the request id. The path
    /// is chosen by the network's [`RouteMetric`] ([`NetConfig::metric`])
    /// and reserved immediately;
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
    /// zero-success records rely on. If faults have cut every path,
    /// the request waits one control delay for a re-plan, and is
    /// abandoned if none is left then.
    ///
    /// Under [`Policy::EndToEndPurify`] the returned id names a
    /// distillation *group* of two concurrent streams, whose one
    /// [`EndToEndOutcome`] has [`EndToEndOutcome::distilled`] set.
    ///
    /// # Panics
    /// Panics if no path connects the nodes even with every edge up.
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
        self.issue_request(src, dst, fmin, Owner::Caller)
    }

    /// [`Network::request_entanglement`] for `owner`. Under
    /// [`Policy::EndToEndPurify`] the request is a distillation group
    /// answering to `owner`: two concurrent streams, owned by the
    /// group, split over edge-disjoint routes where the topology has
    /// them; when both deliver, the path ends measure, exchange the
    /// parity bit across the whole path's control channels, and either
    /// emit one boosted pair or discard both and regenerate.
    fn issue_request(&mut self, src: usize, dst: usize, fmin: f64, owner: Owner) -> u64 {
        if self.terms.policy != Policy::EndToEndPurify {
            let seed = self.seed(src, dst, fmin, owner);
            let route = self.route_for_issue(&seed);
            let id = self.ledger.new_id();
            self.issue_fresh(id, route.as_ref().map(|r| &r.nodes[..]), seed);
            return id;
        }
        let group = self.ledger.new_id();
        // The group id gets its own issue span: its Deliver (and thus
        // the chrome-trace span close) is reported under the group id,
        // while the member streams trace under their own ids.
        let now = self.engine.now();
        self.emit(now, group, 0, SpanStage::Issue { src, dst, fmin });
        let template = self.seed(src, dst, fmin, Owner::Group(group));
        // The group opens first: a stream refused on the spot sinks it.
        let members = [self.ledger.new_id(), self.ledger.new_id()];
        self.ledger
            .open_group(group, members, template.clone(), owner);
        self.issue_streams(&members, &template);
        group
    }

    /// What a request `src → dst` for `owner`, issued now under the
    /// network's terms, starts from.
    fn seed(&self, src: usize, dst: usize, fmin: f64, owner: Owner) -> AttemptSeed {
        AttemptSeed {
            src,
            dst,
            fmin,
            retries_left: self.terms.retries,
            excluded: Vec::new(),
            requested_at: self.engine.now(),
            owner,
            attempt: 0,
        }
    }

    /// Requests entanglement between the ends of an explicit node
    /// path, bypassing route selection. Useful for experiments that
    /// pin paths. A path that crosses a downed edge is not reserved:
    /// the request waits one control delay for a re-plan, as when
    /// faults cut every route ([`Network::request_entanglement`]).
    ///
    /// # Panics
    /// Panics if the path has fewer than two nodes, visits a node
    /// twice (before any id is taken), or consecutive nodes are not
    /// connected.
    pub fn request_on_path(&mut self, path: &[usize], fmin: f64) -> u64 {
        assert!(path.len() >= 2, "a path needs two ends");
        for (i, n) in path.iter().enumerate() {
            assert!(
                !path[..i].contains(n),
                "path {path:?} visits node {n} twice"
            );
        }
        let (src, dst) = (path[0], path[path.len() - 1]);
        let seed = self.seed(src, dst, fmin, Owner::Caller);
        let id = self.ledger.new_id();
        self.issue_fresh(id, Some(path), seed);
        id
    }

    /// Opens the span of the new request `id` and issues its first
    /// attempt on `path`. With no path, or one crossing a downed edge
    /// (faults have cut it), the request is parked instead: its
    /// re-issue one control delay later re-plans or abandons it
    /// ([`Network::on_reissue`]). A stream of a group that a refused
    /// partner has already sunk is not issued at all.
    ///
    /// # Panics
    /// Panics if no path connects the pair even with every edge up, or
    /// consecutive nodes of `path` are not connected.
    fn issue_fresh(&mut self, id: u64, path: Option<&[usize]>, seed: AttemptSeed) {
        if matches!(seed.owner, Owner::Group(group) if self.ledger.owner(group).is_none()) {
            return;
        }
        let (now, src, dst, fmin) = (self.engine.now(), seed.src, seed.dst, seed.fmin);
        self.emit(now, id, 0, SpanStage::Issue { src, dst, fmin });
        let topo = &self.topo;
        let path = path.filter(|p| topo.path_edges(p).into_iter().all(|e| topo.edge_up(e)));
        let Some(path) = path else {
            let connected = self.topo.shortest_path(src, dst).is_some();
            assert!(connected, "no path from {src} to {dst}");
            self.ledger.park_fresh(id, seed);
            let delay = self.engine.min_control_delay;
            self.engine
                .schedule_in(delay, NetEvent::Reissue { request: id });
            return;
        };
        self.issue_attempt(id, path, seed);
    }

    /// Reserves `path` and issues its CREATEs for an existing request
    /// id, under the given retry/identity state — both the first
    /// attempt of a fresh request and every re-routed attempt land
    /// here.
    fn issue_attempt(&mut self, id: u64, path: &[usize], seed: AttemptSeed) {
        let edges = self.topo.path_edges(path);
        let attempt = seed.attempt;
        if let Some(tl) = self.telemetry.as_deref_mut() {
            let path = path.to_vec();
            tl.emit(self.engine.now(), id, attempt, SpanStage::Plan { path });
        }
        // Arm this attempt's failure detection (no event at all when
        // the network has no timeout).
        if let Some(timeout) = self.terms.request_timeout {
            let request = id;
            let timer = NetEvent::RequestTimeout { request, attempt };
            self.engine.schedule_in(timeout, timer);
        }
        let est_fidelity = |e| self.planner.edge_fidelity(&self.topo, e);
        self.ledger
            .issue(id, path.to_vec(), &edges, &self.rules, est_fidelity, seed);
        // The source issues its CREATE(s) now; downstream nodes issue
        // theirs when the reservation reaches them.
        self.reserve_at(id, 0);
    }

    /// Requests `streams` concurrent end-to-end entanglements between
    /// the same pair, split across the K best routes under the network's
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
    /// the links will UNSUPP (the streams are then abandoned), and
    /// streams faults have cut off wait for a re-plan.
    ///
    /// # Panics
    /// Panics if `streams == 0` or no path connects the nodes even with
    /// every edge up.
    pub fn request_entanglement_multipath(
        &mut self,
        src: usize,
        dst: usize,
        fmin: f64,
        streams: usize,
    ) -> Vec<u64> {
        let seed = self.seed(src, dst, fmin, Owner::Caller);
        let ids: Vec<u64> = (0..streams).map(|_| self.ledger.new_id()).collect();
        self.issue_streams(&ids, &seed);
        ids
    }

    /// [`Network::request_entanglement_multipath`]: the requests `ids`,
    /// each issued under `seed`.
    fn issue_streams(&mut self, ids: &[u64], seed: &AttemptSeed) {
        assert!(!ids.is_empty(), "no streams requested");
        let ask = PlanContext {
            fmin: seed.fmin,
            k: ids.len(),
            metric: self.terms.metric,
            policy: self.terms.policy,
            ..PlanContext::new(seed.src, seed.dst)
        };
        let now = self.engine.now();
        let selected = self
            .planner
            .disjoint_routes(&self.topo, &self.ledger, now, ask);
        let mut paths = selected.iter().map(|r| &r.nodes[..]).cycle();
        for &id in ids {
            self.issue_fresh(id, paths.next(), seed.clone());
        }
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
    /// dropped, making its pending re-issue a no-op. A group id (what
    /// [`Network::request_entanglement`] returns under
    /// [`Policy::EndToEndPurify`]) cancels both of the group's streams
    /// and drops any parked pair. A workload's request is counted
    /// abandoned and frees its admission slot.
    pub fn cancel_request(&mut self, request: u64) {
        // The owner hears first: its admission drain is scheduled
        // before the teardown schedules any retraction.
        if let Some(Owner::Workload { class, .. }) = self.ledger.owner(request) {
            self.free_slot(|wl| wl.abandon(class));
        }
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
            let attempt = ended.seed.attempt;
            self.emit(now, request, attempt, SpanStage::Retract { edge });
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
                if self.engine.wake(link, gen, t) {
                    self.on_link_outputs(link, t);
                    self.engine.schedule_wake(link);
                }
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
                self.emit(t, NET_TRACK, 0, SpanStage::Expire { edge: key.0 });
                self.on_link_outputs(key.0, t);
            }
            NetEvent::Arrival { index } => self.on_arrival(index, t),
            NetEvent::AdmitQueued => self.on_admit_queued(t),
            NetEvent::Fault { kind } => self.on_fault(kind, t),
        }
    }

    // ---- open-loop workload glue (see crate::load) -------------------

    /// Handles workload arrival `index` at its firing instant: resolve
    /// class and pair (counting it offered), schedule the next arrival
    /// one gap ahead, and run admission control.
    fn on_arrival(&mut self, index: u64, t: SimTime) {
        // Left in place: a request refused on the spot settles its slot.
        let Some(wl) = self.workload.as_deref_mut() else {
            return;
        };
        let (class, pair) = wl.resolve_arrival(index, &mut self.load_rng);
        if let Some(gap) = wl.gap_after(index, &mut self.load_rng) {
            let index = index + 1;
            self.engine.schedule_in(gap, NetEvent::Arrival { index });
        }
        if wl.admit(class, pair, t) {
            let arrived_at = t;
            let owner = Owner::Workload { class, arrived_at };
            let fmin = wl.class(class).fmin;
            self.issue_request(pair.0, pair.1, fmin, owner);
        }
    }

    /// Drains the workload's waiting queues: admit arrivals —
    /// highest-priority class first, FIFO within a class — until no
    /// waiting arrival has a free slot.
    fn on_admit_queued(&mut self, t: SimTime) {
        while let Some(wl) = self.workload.as_deref_mut() {
            let Some(q) = wl.pop_admittable(t) else {
                return;
            };
            let (class, arrived_at, fmin) = (q.class, q.arrived_at, wl.class(q.class).fmin);
            let owner = Owner::Workload { class, arrived_at };
            self.issue_request(q.pair.0, q.pair.1, fmin, owner);
        }
    }

    /// An [`Owner::Workload`] request settled — `settle` counts it
    /// completed or abandoned — and freed its slot: if arrivals are
    /// waiting, schedule a queue drain one control delay out (the
    /// slot-freed notice has to reach the admission plane).
    fn free_slot(&mut self, settle: impl FnOnce(&mut LoadEngine)) {
        let wl = self.workload.as_deref_mut();
        let wl = wl.expect("a workload request outlives no workload");
        settle(wl);
        if wl.has_queued() {
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
        let stage = SpanStage::Create {
            edge,
            side,
            create_id,
        };
        self.emit(now, request, attempt, stage);
        self.on_link_outputs(edge, now);
    }

    fn on_reserve(&mut self, request: u64, at: usize) {
        let in_flight = self.ledger.in_flight(request);
        if let Some(pos) = in_flight.and_then(|(_, att)| att.position(at)) {
            self.reserve_at(request, pos);
        }
    }

    /// Hands on what `link` reported since the last call into it. It
    /// runs after every one, so each report is handled at `t`, its
    /// instant: a refused CREATE's attempt fails before the caller that
    /// submitted it goes on (which then finds the request off the books).
    fn on_link_outputs(&mut self, link: usize, t: SimTime) {
        for output in self.engine.links[link].take_outputs() {
            match output {
                LinkOutput::Delivery(d) => self.on_delivery(link, d, t),
                LinkOutput::Rejection(r) => self.on_rejection(link, r, t),
            }
        }
    }

    /// A link terminally rejected one of this network's CREATEs
    /// (UNSUPP and friends): the attempt fails *now* — releasing its
    /// reservations and either trying another path or, with no retry
    /// budget left, abandoning the request — instead of idling until
    /// some timeout notices.
    fn on_rejection(&mut self, edge: usize, r: Rejection, t: SimTime) {
        debug_assert_eq!(r.at, t, "a rejection seen late");
        let key = (edge, r.origin, r.create_id);
        let Some((request, _)) = self.ledger.claim_create(key) else {
            return;
        };
        if r.is_unsupported() {
            self.span(t, request, SpanStage::Unsupp { edge });
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
    /// Counts it, closes its span, and tells its owner: the workload,
    /// or its distillation group, which is then dropped whole (its span
    /// closed, its own owner told, partner stream cancelled, any parked
    /// pair discarded). The caller has taken `request` off the books.
    fn abandon(
        &mut self,
        request: u64,
        seed: &AttemptSeed,
        failed_edge: Option<usize>,
        t: SimTime,
    ) {
        self.ledger.count_abandoned();
        self.emit(t, request, seed.attempt, SpanStage::Abandon { failed_edge });
        match seed.owner {
            Owner::Caller => {}
            Owner::Workload { class, .. } => self.free_slot(|wl| wl.abandon(class)),
            // A lost stream sinks its group, cancelled whole for the
            // group's own owner (`request` is off the books already).
            // The group id opened its own span: close it too.
            Owner::Group(group) => {
                if self.ledger.owner(group).is_some() {
                    self.emit(t, group, 0, SpanStage::Abandon { failed_edge });
                    self.cancel_request(group);
                }
            }
        }
    }

    /// A failed stream's backoff elapsed: re-plan against the
    /// *current* loads and profiles, around every excluded edge where
    /// possible, and re-issue under the original id, fmin, and owner.
    fn on_reissue(&mut self, request: u64, seed: AttemptSeed, t: SimTime) {
        let Some(route) = self.route_for_issue(&seed) else {
            // Faults have cut every path between the pair.
            self.abandon(request, &seed, None, t);
            return;
        };
        self.issue_attempt(request, &route.nodes, seed);
    }

    fn on_delivery(&mut self, edge_idx: usize, d: Delivery, t: SimTime) {
        debug_assert_eq!(d.at, t, "a delivery seen late");
        if d.kind != RequestKind::Nl {
            return;
        }
        let key = (edge_idx, d.origin, d.create_id);
        let Some((request, submitted)) = self.ledger.claim_create(key) else {
            return;
        };
        let add = SpanStage::Add {
            edge: edge_idx,
            fidelity: d.fidelity,
            wait: t.since(submitted),
        };
        self.span(t, request, add);
        let edge = self.topo.edge(edge_idx);
        let ends = [edge.a, edge.b];
        if !self.ledger.add_pair(request, edge_idx, edge, d.fidelity, t) {
            return;
        }
        for node in ends {
            self.observe(request, node, Obs::PairArrived { edge: edge_idx }, t);
        }
    }

    /// Feeds `request`'s rule table at `node` one observation and
    /// executes the action it answers with, if any.
    fn observe(&mut self, request: u64, node: usize, obs: Obs, t: SimTime) {
        let telemetry = self.telemetry.as_deref_mut();
        match self.ledger.observe(request, node, obs, t, telemetry) {
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
        self.observe(request, at, Obs::Parity { edge, accepted }, t);
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
        self.observe(request, at, Obs::SwapResult { z, x }, t);
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
            Completion::Deliver {
                outcome,
                attempt,
                owner,
            } => self.deliver(outcome, attempt, owner),
            Completion::Waiting => {}
            Completion::Verdict {
                group,
                accepted,
                at,
                delay,
            } => self.send(delay, at, ControlMsg::GroupResult { group, accepted }),
        }
    }

    /// The one delivery tail: records the closing span (stamped
    /// `attempt`) and hands the outcome to its `owner`. Workload
    /// completions feed the class accounting directly: buffering an
    /// outcome per delivery would grow without bound over a
    /// million-arrival run.
    fn deliver(&mut self, outcome: EndToEndOutcome, attempt: u64, owner: Owner) {
        let (id, t) = (outcome.request, outcome.delivered_at);
        let (fidelity, latency) = (outcome.end_to_end_fidelity, outcome.latency);
        self.emit(t, id, attempt, SpanStage::Deliver { fidelity, latency });
        match owner {
            Owner::Caller => self.outcomes.push(outcome),
            Owner::Workload { class, arrived_at } => {
                self.free_slot(|wl| wl.complete(class, arrived_at, &outcome));
            }
            Owner::Group(_) => unreachable!("a member stream's pair goes to its group"),
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
            Some(GroupVerdict::Deliver(outcome, owner)) => self.deliver(outcome, 0, owner),
            Some(GroupVerdict::Regenerate { routes, template }) => {
                let members = [self.ledger.new_id(), self.ledger.new_id()];
                self.ledger.set_group_members(group, members);
                for (id, route) in members.into_iter().zip(routes) {
                    self.issue_fresh(id, Some(&route), template.clone());
                }
            }
        }
    }
}
