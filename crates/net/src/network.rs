//! The shared-clock multi-link network simulation.
//!
//! Every quantum link of a [`Topology`] — each a full
//! [`LinkSimulation`] with the complete EGP/MHP/physics stack — is
//! embedded into **one** global discrete-event queue. The network
//! layer schedules a wake event at each link's next internal firing
//! time; when the global clock reaches it, the link is advanced to
//! exactly that instant and its deliveries are observed. Classical
//! control messages (path reservation, swap results) travel the same
//! queue with per-edge propagation delays. The result is a single
//! total order over every event of every link and every control
//! message — one `SimTime` stream — and, because ties break by
//! insertion order and all randomness is seeded, bit-reproducible
//! multi-node runs.
//!
//! On top sits SWAP-ASAP repeater control (see [`crate::node`]): NL
//! CREATEs are issued along the reserved path, intermediate nodes swap
//! as soon as both adjacent pairs exist, and the composed end-to-end
//! state — decayed in memory for exactly the simulated storage times —
//! is delivered with its true simulated latency.
//!
//! Paths come from the route-metric engine (see [`crate::route`]):
//! [`Network::request_entanglement`] routes under a pluggable
//! [`RouteMetric`] (hop count by default; latency- and
//! fidelity-product-aware alternatives via
//! [`Network::set_route_metric`]), and
//! [`Network::request_entanglement_multipath`] splits concurrent
//! same-pair requests across the K best routes — edge-disjoint where
//! the topology allows, otherwise sharing edges under the EGP
//! distributed queue's multiple-outstanding-CREATE arbitration
//! (tracked per edge by [`Network::edge_load`]).
//!
//! Routing also closes the loop on live congestion: planning always
//! sees the current per-edge reservation counts (metrics opt in via
//! [`RouteMetric::load_cost`] — see
//! [`LoadScaledLatency`](crate::route::LoadScaledLatency)), and
//! failed attempts feed back as re-plans. An attempt fails when a link
//! terminally rejects one of its CREATEs (UNSUPP), a fault downs an
//! edge it rides, or it outlives its per-request timeout
//! ([`Network::set_request_timeout`]; off by default, and then no
//! timeout events exist). However an attempt ends — delivery, failure,
//! [`Network::cancel_request`] — one teardown releases every
//! reservation it holds and retracts its queued CREATEs. A failed
//! request with retry budget left ([`Network::set_retry_budget`],
//! default 0) is re-planned against *current* load — excluding the
//! edges that failed it — under its original id, `fmin`, and
//! [`Policy`]; otherwise it is abandoned ([`Network::timeouts`]).

use crate::fault::{FaultKind, FaultPlan, PenaltyBox};
use crate::load::{Admission, ArrivalProcess, LoadEngine, LoadStats, Workload};
use crate::node::{NodeAction, PathRole, SwapAsapNode};
use crate::obs::{SpanStage, Telemetry, TelemetryConfig};
use crate::route::{HopCount, PlanContext, Route, RouteMetric, RoutePlanner};
use crate::ruleset::{ArmProgram, Policy};
use crate::topology::Topology;
use qlink_des::{DetRng, EventQueue, IntMap, SimDuration, SimTime};
use qlink_egp::feu::FidelityEstimator;
use qlink_phys::attempt::ModelCache;
use qlink_phys::params::ScenarioParams;
use qlink_quantum::bell::{bell_fidelity, werner_from_fidelity, BellState};
use qlink_quantum::ops::entanglement_swap;
use qlink_quantum::purify::distill_werner;
use qlink_quantum::{channels, gates, QuantumState};
use qlink_sim::config::{LinkConfig, RequestKind};
use qlink_sim::link::{Delivery, LinkSimulation, Rejection};
use qlink_sim::workload::GeneratedRequest;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The reserved span id fault spans are emitted under: fault events
/// belong to the network, not to any request, and request ids count
/// up from zero, so the maximum id is free to serve as the "network"
/// track in chrome-trace exports.
const FAULT_TRACK: u64 = u64::MAX;

/// A network-layer classical control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlMsg {
    /// Path reservation traveling from source toward destination; each
    /// node it reaches issues the NL CREATE on its downstream edge.
    Reserve { request: u64 },
    /// A repeater's Bell-measurement outcome, forwarded hop-by-hop to
    /// `target` (one of the path's ends).
    SwapResult {
        request: u64,
        target: usize,
        z: u8,
        x: u8,
    },
    /// The partner's parity bit of a link-level 2→1 distillation on
    /// `edge`: `accepted` when the two measured bits agreed.
    PurifyResult {
        request: u64,
        edge: usize,
        accepted: bool,
    },
    /// The far end's parity bit of an end-to-end distillation between
    /// the two streams of `group` (travels the whole path's control
    /// channels; scheduled with the summed path delay).
    GroupResult { group: u64, accepted: bool },
}

/// An event on the shared network queue.
#[derive(Debug)]
enum NetEvent {
    /// Advance link `link` to the current global time.
    LinkWake { link: usize, gen: u64 },
    /// Deliver a control message at node `at`.
    Control { at: usize, msg: ControlMsg },
    /// The per-request timeout of `request`'s attempt number `attempt`
    /// expired (stale if the request completed or was already
    /// re-issued as a later attempt).
    RequestTimeout { request: u64, attempt: u64 },
    /// A failed stream's backoff elapsed: re-plan against current
    /// load and re-issue it under its original id.
    Reissue { request: u64 },
    /// A failed attempt's retraction notice reached the endpoint that
    /// submitted CREATE `create_id` on `edge`: tell the link layer to
    /// drop it ([`qlink_sim::link::LinkSimulation::expire_request`]).
    Expire {
        edge: usize,
        side: usize,
        create_id: u16,
    },
    /// Open-loop workload arrival number `index` (see [`crate::load`]):
    /// resolve its class and pair, run admission control, and schedule
    /// the next arrival. Scheduled one-ahead.
    Arrival { index: u64 },
    /// A freed admission slot's control-plane notice: drain the
    /// workload's waiting queues, admitting as many arrivals as
    /// capacity allows at this instant. Scheduled one classical
    /// control delay after the completion / abandon that freed the
    /// slot: the admission plane has to learn the slot freed.
    AdmitQueued,
    /// A fault-plan event fired (see [`crate::fault`]): take an
    /// edge's quantum link down, bring one back (possibly under a
    /// degraded profile), or churn a node. Scheduled at arm time.
    Fault { kind: FaultKind },
}

/// One delivered end-to-end entanglement.
#[derive(Debug, Clone)]
pub struct EndToEndOutcome {
    /// The request this outcome serves.
    pub request: u64,
    /// Node path, source first.
    pub path: Vec<usize>,
    /// Delivered link fidelity per path edge, in path order.
    pub link_fidelities: Vec<f64>,
    /// Fidelity of the end-to-end pair after all swaps and the full
    /// simulated memory decay.
    pub end_to_end_fidelity: f64,
    /// True simulated latency: CREATE submission to the instant both
    /// ends hold a usable pair (last swap result received).
    pub latency: SimDuration,
    /// Global time of completion.
    pub delivered_at: SimTime,
    /// Number of entanglement swaps performed.
    pub swaps: u32,
    /// Accumulated Pauli-Z parity of the swaps' Bell-measurement
    /// outcomes. **Already applied**: the correction is folded into
    /// the delivered state (and thus `end_to_end_fidelity`) at swap
    /// time; these bits record the classical information that had to
    /// reach the ends, they are *not* a pending correction to apply.
    pub frame_z: u8,
    /// Accumulated Pauli-X parity; already applied, see
    /// [`EndToEndOutcome::frame_z`].
    pub frame_x: u8,
    /// `true` when this pair is the survivor of a 2→1 distillation
    /// (link-level purification boosts the figures in
    /// [`EndToEndOutcome::link_fidelities`] instead and leaves this
    /// `false`; end-to-end purification merges two whole streams and
    /// sets it).
    pub distilled: bool,
    /// Link pairs the link layers delivered to produce this outcome —
    /// 1 per edge without purification, 2 per distillation attempt
    /// (rejected parities included) with it. The pair cost of the
    /// delivered fidelity.
    pub pairs_consumed: u32,
    /// Raw delivered fidelity of every link pair per path edge, in
    /// delivery order — under link-level purification these are the
    /// *inputs* to the per-edge distillations whose outputs appear in
    /// [`EndToEndOutcome::link_fidelities`]. Without purification each
    /// edge has exactly one entry, equal to its `link_fidelities`
    /// figure.
    pub pair_fidelities: Vec<Vec<f64>>,
}

/// One contiguous entangled segment of a path (initially one link
/// pair; swaps merge adjacent segments until one spans the path).
/// Qubit 0 of `state` lives at node `a`, qubit 1 at node `b`; both
/// halves sit in carbon memories and decay with the `(T1, T2)` of
/// their node's hardware.
#[derive(Debug, Clone)]
struct Segment {
    a: usize,
    b: usize,
    state: QuantumState,
    decay_a: (f64, f64),
    decay_b: (f64, f64),
    updated: SimTime,
}

impl Segment {
    /// Reverses the segment's orientation (qubit order and metadata).
    fn flip(&mut self) {
        self.state.apply_unitary(&gates::swap(), &[0, 1]);
        std::mem::swap(&mut self.a, &mut self.b);
        std::mem::swap(&mut self.decay_a, &mut self.decay_b);
    }

    /// Applies carbon-memory decoherence from `updated` to `t`.
    fn decay_to(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.updated).as_secs_f64();
        if dt > 0.0 {
            let (t1a, t2a) = self.decay_a;
            let (t1b, t2b) = self.decay_b;
            self.state
                .apply_kraus(&channels::t1t2_decay(dt, t1a, t2a), &[0]);
            self.state
                .apply_kraus(&channels::t1t2_decay(dt, t1b, t2b), &[1]);
        }
        self.updated = t;
    }
}

#[derive(Debug)]
struct PathRequest {
    path: Vec<usize>,
    edges: Vec<usize>,
    fmin: f64,
    segments: Vec<Segment>,
    link_fidelities: Vec<Option<f64>>,
    ends_ready: [Option<SimTime>; 2],
    frame: (u8, u8),
    swaps: u32,
    /// Per path-edge position: a distillation has consumed this edge's
    /// pairs and its parity exchange is in flight (or succeeded —
    /// cleared only by a reject, which regenerates).
    purify_pending: Vec<bool>,
    /// Raw delivered fidelities per path-edge position.
    pair_fidelities: Vec<Vec<f64>>,
    /// Link pairs delivered for this request so far.
    pairs_consumed: u32,
    /// The compiled per-edge initial pair needs, in path-edge order
    /// (regeneration after that is demand-driven —
    /// [`SwapAsapNode::take_create_demand`]).
    edge_needs: Vec<u8>,
    /// Retry/identity state the attempt was issued under.
    seed: AttemptSeed,
}

/// A failed stream waiting out its re-route backoff: the seed to
/// re-issue it under the same public id, plus what re-planning needs.
#[derive(Debug)]
struct ParkedReroute {
    src: usize,
    dst: usize,
    fmin: f64,
    seed: AttemptSeed,
}

/// The retry/identity state an attempt is issued under — carried
/// forward (with `attempt` bumped and the failed edges excluded) each
/// time the re-route machinery re-issues the request.
#[derive(Debug)]
struct AttemptSeed {
    /// The per-attempt timeout the request was issued under — pinned
    /// for the request's whole life, so every re-issued attempt
    /// re-arms the same deadline whatever the network's knob says by
    /// then.
    timeout: Option<SimDuration>,
    /// Re-issues left before a failed attempt abandons the request.
    retries_left: u32,
    /// Edges barred from future re-plans (every failed attempt adds
    /// the edges it implicates).
    excluded: Vec<usize>,
    /// Issue time of the *first* attempt (latency is measured from
    /// here across every re-route).
    requested_at: SimTime,
    /// End-to-end distillation group this stream belongs to.
    group: Option<u64>,
    /// Attempt number, starting at 0; a [`NetEvent::RequestTimeout`]
    /// carrying an older number is stale and ignored.
    attempt: u64,
    /// The policy the request was issued under — pinned like
    /// `timeout`, so re-routed attempts recompile the same tables (and price
    /// their re-plans the same way) whatever [`Network::set_policy`]
    /// says by then.
    policy: Policy,
}

/// One completed stream of an end-to-end distillation group, parked
/// (still decaying) until its partner completes.
#[derive(Debug)]
struct GroupMember {
    segment: Segment,
    path: Vec<usize>,
    link_fidelities: Vec<f64>,
    pair_fidelities: Vec<Vec<f64>>,
    swaps: u32,
    frame: (u8, u8),
}

/// An end-to-end 2→1 distillation in progress: two concurrent streams
/// whose delivered pairs the path ends merge into one.
#[derive(Debug)]
struct PairGroup {
    /// Current live (or just-completed) member request ids.
    members: [u64; 2],
    /// The node paths the two streams run on (kept for regeneration
    /// after a rejected parity).
    routes: [Vec<usize>; 2],
    fmin: f64,
    requested_at: SimTime,
    done: Vec<GroupMember>,
    /// Swaps and pairs across every attempt, rejected ones included.
    swaps: u32,
    pairs_consumed: u32,
    /// The policy member streams run under — pinned at group creation
    /// so regeneration ignores later policy changes.
    policy: Policy,
    /// Failure-detection state pinned at group creation
    /// (timeout / retry budget): regenerated member streams
    /// are issued under it, not under whatever the network's knobs
    /// say by then — the same pin-at-issue contract single streams
    /// keep via their [`AttemptSeed`].
    timeout: Option<SimDuration>,
    retries: u32,
}

/// How a failed attempt's re-issue delay grows with its retry count
/// (see [`Network::set_backoff_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackoffPolicy {
    /// One jittered path control delay per re-issue, whatever the
    /// attempt number — PR 4's behaviour and the default (runs that
    /// never change the policy reproduce earlier PRs bit-for-bit).
    #[default]
    Jittered,
    /// Exponential backoff: the jittered control delay doubles with
    /// every failed attempt (`base × 2^attempt × (1 + u)`), clamped to
    /// `cap`. Under sustained overload this spreads a retry storm out
    /// instead of hammering the network at a fixed cadence.
    Exponential {
        /// Upper bound on any single re-issue delay.
        cap: SimDuration,
    },
}

impl BackoffPolicy {
    /// The re-issue delay for a failure of attempt number `attempt`,
    /// given the failed path's one-way control delay `base` (seconds)
    /// and the jitter draw `u ∈ [0, 1)`.
    pub fn delay(self, base: f64, attempt: u64, u: f64) -> SimDuration {
        let jittered = base * (1.0 + u);
        match self {
            BackoffPolicy::Jittered => SimDuration::from_secs_f64(jittered),
            BackoffPolicy::Exponential { cap } => {
                // 2^attempt saturates far below f64 overflow; 10⁹ s of
                // backoff is already "never" on simulation scales.
                let factor = 2f64.powi(attempt.min(63) as i32);
                SimDuration::from_secs_f64(jittered * factor).min(cap)
            }
        }
    }
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
pub enum ExecMode { Sequential, Sharded(usize) } // benchmark-compat: ROADMAP item 1 deletes this

/// A multi-node quantum network on one shared event queue.
pub struct Network {
    topo: Topology,
    links: Vec<LinkSimulation>,
    nodes: Vec<SwapAsapNode>,
    queue: EventQueue<NetEvent>,
    wake_gen: Vec<u64>,
    rng: DetRng,
    purify_rng: DetRng,
    reroute_rng: DetRng,
    /// Workload arrival randomness (gaps, class picks, pair picks) —
    /// its own substream, drawn only while a workload is armed, so
    /// closed-loop runs never touch it and reproduce earlier PRs
    /// bit-for-bit.
    load_rng: DetRng,
    /// The armed open-loop workload engine (see [`crate::load`]),
    /// `None` unless [`Network::set_workload`] armed one.
    workload: Option<Box<LoadEngine>>,
    /// In-flight attempts by request id. Ordered: a fault fails the
    /// requests riding an edge in iteration order.
    requests: BTreeMap<u64, PathRequest>,
    groups: IntMap<u64, PairGroup>,
    parked: IntMap<u64, ParkedReroute>,
    /// CREATEs queued inside links: `(edge, side, create_id)` → the
    /// owning request and the submission instant. Ordered: retraction
    /// notices are scheduled in iteration order.
    pending_creates: BTreeMap<(usize, usize, u16), (u64, SimTime)>,
    next_request: u64,
    retry_budget: u32,
    request_timeout: Option<SimDuration>,
    backoff: BackoffPolicy,
    reroutes: u64,
    timed_out: u64,
    outcomes: Vec<EndToEndOutcome>,
    /// The telemetry layer (see [`crate::obs`]): request-lifecycle
    /// spans, histogram metrics, engine profiling. `None` (the
    /// default) records nothing; recording is passive either way —
    /// it draws nothing from any RNG and schedules no events, so a
    /// telemetry-on run's *results* are bit-identical to the same
    /// run with it off.
    telemetry: Option<Box<Telemetry>>,
    metric: Box<dyn RouteMetric + Send>,
    /// The [`Policy`] new requests are issued under — see
    /// [`Network::set_policy`].
    policy: Policy,
    planner: Option<RoutePlanner>,
    /// The table every attempt model this network derives lands in.
    models: ModelCache,
    /// One FEU handle per distinct [`ScenarioParams`] among the links
    /// built so far, all over `models`: every link on the same hardware
    /// holds a clone of the same one.
    estimators: Vec<FidelityEstimator>,
    edge_load: Vec<u32>,
    edge_pairs_delivered: Vec<u64>,
    edge_purify_attempts: Vec<u64>,
    edge_purify_successes: Vec<u64>,
    /// Fault-injection randomness (flapping dwell draws) — its own
    /// substream, drawn from only when a fault plan arms, so
    /// fault-free runs reproduce earlier PRs bit-for-bit.
    fault_rng: DetRng,
    /// The penalty box (see [`crate::fault`]), armed together with a
    /// fault plan by [`Network::set_fault_plan`].
    penalty_box: Option<PenaltyBox>,
    /// Planning-time scratch: per-edge penalties handed to
    /// [`PlanContext::penalties`] — `f64::INFINITY` for downed edges,
    /// the decayed surcharge otherwise. Stays empty (and planning
    /// bit-identical to earlier PRs) until a fault plan arms.
    penalty_snapshot: Vec<f64>,
    /// Times each edge has been repaired — salts the rebuilt link's
    /// fresh deterministic seed so successive incarnations never
    /// replay each other's randomness.
    repair_count: Vec<u64>,
    /// Edge failures injected so far (node churn counts per edge).
    fault_count: u64,
    /// Edge repairs applied so far.
    repair_total: u64,
    /// Cached [`Topology::min_control_delay`].
    min_control_delay: SimDuration,
    /// Total simulated time this network has been run for.
    pub elapsed: SimDuration,
}

/// Configures a freshly built link for life inside a [`Network`]: the
/// network layer drains deliveries (and terminal CREATE rejections, for
/// re-routing) at every wake, and — since [`Network::schedule_wake`]
/// schedules nothing for a link with no next event — lets an idle link
/// park its cycle clock until the next CREATE.
fn embed(mut link: LinkSimulation) -> LinkSimulation {
    link.capture_deliveries();
    link.capture_rejections();
    link.park_when_idle();
    link
}

/// The FEU handle for `params`: the one already made for that hardware,
/// or a new one over `models`. Creating one derives nothing.
fn estimator_for(
    estimators: &mut Vec<FidelityEstimator>,
    models: &ModelCache,
    params: &ScenarioParams,
) -> FidelityEstimator {
    if let Some(feu) = estimators.iter().find(|feu| feu.params() == params) {
        return feu.clone();
    }
    estimators.push(FidelityEstimator::with_models(
        params.clone(),
        models.clone(),
    ));
    estimators.last().expect("pushed above").clone()
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
        let mut estimators = Vec::new();
        let links: Vec<LinkSimulation> = topo
            .edges()
            .iter()
            .map(|e| {
                let feu = estimator_for(&mut estimators, &models, &e.link.scenario);
                embed(LinkSimulation::with_estimator(e.link.clone(), feu))
            })
            .collect();
        let nodes = (0..topo.node_count())
            .map(|_| SwapAsapNode::new())
            .collect();
        let trace_cfg = TelemetryConfig::from_env();
        let telemetry =
            (!trace_cfg.is_off()).then(|| Box::new(Telemetry::new(trace_cfg, links.len())));
        let mut net = Network {
            wake_gen: vec![0; links.len()],
            edge_load: vec![0; links.len()],
            edge_pairs_delivered: vec![0; links.len()],
            edge_purify_attempts: vec![0; links.len()],
            edge_purify_successes: vec![0; links.len()],
            repair_count: vec![0; links.len()],
            links,
            nodes,
            queue: EventQueue::new(),
            rng: DetRng::new(seed).substream("net/swap"),
            purify_rng: DetRng::new(seed).substream("net/purify"),
            // Re-route decisions draw from their own substream so
            // runs without retries reproduce earlier PRs bit-for-bit.
            reroute_rng: DetRng::new(seed).substream("net/reroute"),
            // Substream derivation is pure in (seed, label): creating
            // it here perturbs nothing, and no draw ever leaves it
            // unless a workload arms.
            load_rng: DetRng::new(seed).substream("net/load"),
            // Same contract: untouched unless a fault plan arms.
            fault_rng: DetRng::new(seed).substream("net/fault"),
            penalty_box: None,
            penalty_snapshot: Vec::new(),
            fault_count: 0,
            repair_total: 0,
            workload: None,
            requests: BTreeMap::new(),
            groups: IntMap::default(),
            parked: IntMap::default(),
            pending_creates: BTreeMap::new(),
            next_request: 0,
            retry_budget: 0,
            request_timeout: None,
            backoff: BackoffPolicy::default(),
            reroutes: 0,
            timed_out: 0,
            outcomes: Vec::new(),
            telemetry,
            metric: Box::new(HopCount),
            policy: Policy::default(),
            planner: None,
            models,
            estimators,
            min_control_delay: topo.min_control_delay(),
            elapsed: SimDuration::ZERO,
            topo,
        };
        for link in 0..net.links.len() {
            net.schedule_wake(link);
        }
        net
    }

    /// Switches the telemetry layer (see [`crate::obs`]) on or off,
    /// discarding anything recorded so far. [`TelemetryConfig::OFF`]
    /// (the construction default, unless the `QLINK_TRACE` environment
    /// variable opted in — [`TelemetryConfig::from_env`]) records
    /// nothing. Recording is passive: whatever the config, the run's
    /// outcomes, RNG draws, and event stream are unchanged.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry =
            (!config.is_off()).then(|| Box::new(Telemetry::new(config, self.links.len())));
    }

    /// The telemetry recorded so far (`None` when the layer is off).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Current global simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The topology this network runs.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Borrow the link simulation on edge `edge` (metrics inspection).
    pub fn link(&self, edge: usize) -> &LinkSimulation {
        &self.links[edge]
    }

    /// The FEU handles this network has made, one per distinct
    /// [`ScenarioParams`] among its links (a homogeneous topology has
    /// one), in first-use order. Each link holds a clone of the one for
    /// its hardware, and all of them derive from one table of attempt
    /// models ([`FidelityEstimator::models`]).
    pub fn estimators(&self) -> &[FidelityEstimator] {
        &self.estimators
    }

    /// Borrow a node's protocol state machine.
    pub fn node(&self, node: usize) -> &SwapAsapNode {
        &self.nodes[node]
    }

    /// Total events fired: shared-queue events plus every link's
    /// internal events. The MHP cycles idle links skipped
    /// ([`Network::cycles_elided`]), and the wakes that would have
    /// observed them, are not events and are not counted.
    pub fn events_fired(&self) -> u64 {
        self.queue.events_fired() + self.links.iter().map(|l| l.events_fired()).sum::<u64>()
    }

    /// MHP cycles the links skipped while parked idle, summed over the
    /// current link incarnations
    /// ([`LinkSimulation::cycles_elided`]) — where the events of a
    /// mostly idle network went.
    pub fn cycles_elided(&self) -> u64 {
        self.links.iter().map(|l| l.cycles_elided()).sum()
    }

    /// Restarts the event-count statistics ([`Network::events_fired`],
    /// [`Network::cycles_elided`], the profiler's queue-depth
    /// high-water gauge) across the shared queue and every link,
    /// without touching any simulation state —
    /// see [`qlink_des::EventQueue::reset_stats`]. The sweep driver
    /// calls this at the run boundary so a run's recorded event count
    /// never includes another phase's.
    pub fn reset_event_stats(&mut self) {
        self.queue.reset_stats();
        for link in &mut self.links {
            link.reset_event_stats();
        }
    }

    /// Selects the [`RouteMetric`] used by subsequent
    /// [`Network::request_entanglement`] calls. The default is
    /// [`HopCount`]; [`crate::route::Latency`] and
    /// [`crate::route::FidelityProduct`] weigh edges by the profiles
    /// the route planner derives from each link's configuration.
    pub fn set_route_metric(&mut self, metric: impl RouteMetric + Send + 'static) {
        self.metric = Box::new(metric);
    }

    /// The metric currently steering route selection.
    pub fn route_metric(&self) -> &dyn RouteMetric {
        self.metric.as_ref()
    }

    /// Selects the [`Policy`] subsequent requests run under: at issue
    /// time it is compiled to a [`crate::ruleset::RuleSet`] table,
    /// installed on every path node, and interpreted on each
    /// observation; it also prices edges in planning
    /// ([`PlanContext::policy`]). [`Policy::LinkPurify`] makes every
    /// path edge distill two delivered pairs into one before it may
    /// be swapped; [`Policy::EndToEndPurify`] makes
    /// [`Network::request_entanglement`] run two concurrent streams
    /// and distill their delivered end-to-end pairs into one. The
    /// default is [`Policy::SwapAsap`].
    ///
    /// In-flight requests keep the policy they were issued under.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// The policy applied to new requests.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The policy individual member streams are issued under:
    /// end-to-end distillation is group-level machinery (the member
    /// streams themselves run plain SWAP-ASAP).
    fn member_policy(&self) -> Policy {
        match self.policy {
            Policy::EndToEndPurify => Policy::SwapAsap,
            other => other,
        }
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
        self.request_timeout = timeout;
    }

    /// The per-request timeout applied to new requests.
    pub fn request_timeout(&self) -> Option<SimDuration> {
        self.request_timeout
    }

    /// Sets how many times a failed attempt (timeout, terminal link
    /// rejection — UNSUPP included — or a fault on its path) may be
    /// re-planned and re-issued before its request is abandoned. The
    /// budget is per request, pinned at issue time; the default is 0
    /// (the first failure abandons).
    pub fn set_retry_budget(&mut self, retries: u32) {
        self.retry_budget = retries;
    }

    /// The retry budget granted to new requests.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Selects how a failed attempt's re-issue delay grows with its
    /// retry count. The default, [`BackoffPolicy::Jittered`], is PR
    /// 4's single jittered control delay — runs that keep it (and its
    /// single `net/reroute` jitter draw per failure) reproduce earlier
    /// PRs bit-for-bit. [`BackoffPolicy::Exponential`] doubles the
    /// delay per attempt up to a cap, desynchronising sustained retry
    /// storms. Applies to failures detected after the call.
    pub fn set_backoff_policy(&mut self, policy: BackoffPolicy) {
        self.backoff = policy;
    }

    /// The re-route backoff policy in force.
    pub fn backoff_policy(&self) -> BackoffPolicy {
        self.backoff
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
    /// it at all.
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
        assert!(
            !workload.classes.is_empty(),
            "a workload needs at least one user class"
        );
        let nodes = self.topo.node_count();
        let check_pair = |(src, dst): (usize, usize)| {
            assert!(
                src < nodes && dst < nodes,
                "pair ({src}, {dst}) off-topology"
            );
            assert!(src != dst, "pair ({src}, {dst}) needs two distinct ends");
            assert!(
                self.topo.shortest_path(src, dst).is_some(),
                "no path from {src} to {dst}"
            );
        };
        for class in &workload.classes {
            assert!(
                class.weight > 0.0 && class.weight.is_finite(),
                "class {:?} needs a positive weight",
                class.name
            );
            for &pair in &class.pairs {
                check_pair(pair);
            }
        }
        match &workload.arrivals {
            ArrivalProcess::Poisson { rate_hz } => {
                assert!(
                    *rate_hz > 0.0 && rate_hz.is_finite(),
                    "Poisson arrivals need a positive rate"
                );
                for class in &workload.classes {
                    assert!(
                        !class.pairs.is_empty(),
                        "Poisson class {:?} needs a pair pool",
                        class.name
                    );
                }
            }
            ArrivalProcess::Trace { arrivals } => {
                for pair in arrivals.windows(2) {
                    assert!(
                        pair[0].after <= pair[1].after,
                        "trace arrivals must be sorted by time"
                    );
                }
                for a in arrivals.iter() {
                    assert!(
                        a.class < workload.classes.len(),
                        "trace arrival names class {} of {}",
                        a.class,
                        workload.classes.len()
                    );
                    check_pair(a.pair);
                }
            }
        }
        let engine = Box::new(LoadEngine::new(workload));
        if let Some(delay) = engine.first_arrival_delay(&mut self.load_rng) {
            self.queue
                .schedule_in(delay, NetEvent::Arrival { index: 0 });
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
        self.reroutes
    }

    /// Requests abandoned after exhausting their retry budget.
    pub fn timeouts(&self) -> u64 {
        self.timed_out
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
        self.penalty_box = Some(PenaltyBox::new(self.topo.edge_count(), plan.penalty));
        for (delay, kind) in plan.expand(&mut self.fault_rng) {
            self.queue.schedule_in(delay, NetEvent::Fault { kind });
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
        self.penalty_box
            .as_ref()
            .map_or(0.0, |pb| pb.penalty(edge, self.queue.now()))
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
    /// in-flight request riding it through the ordinary rejection
    /// path — release, retract, then backoff and re-plan or abandon
    /// ([`Network::fail_attempt`]). No-op if the edge is already down.
    fn fail_edge(&mut self, edge: usize, t: SimTime) {
        if !self.topo.edge_up(edge) {
            return;
        }
        self.topo.set_edge_up(edge, false);
        self.fault_count += 1;
        if let Some(pb) = &mut self.penalty_box {
            pb.bump(edge, t);
        }
        self.emit(t, FAULT_TRACK, 0, SpanStage::EdgeFail { edge });
        // Fail the in-flight streams riding the edge, in id order.
        let victims: Vec<u64> = self
            .requests
            .iter()
            .filter(|(_, req)| req.edges.contains(&edge))
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
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
            // profile; drop the cached planner so the next plan
            // re-profiles every edge against the current configs.
            self.topo.set_link_config(edge, profile);
            self.planner = None;
        }
        self.repair_count[edge] += 1;
        let mut cfg = self.topo.edge(edge).link.clone();
        cfg.seed = DetRng::new(cfg.seed)
            .substream(&format!("repair/{}", self.repair_count[edge]))
            .seed();
        let feu = estimator_for(&mut self.estimators, &self.models, &cfg.scenario);
        self.links[edge] = embed(LinkSimulation::new_starting_at(cfg, feu, t));
        // Bookkeeping into the old incarnation dies with it: queued
        // CREATEs can never be served, and dropping their keys here
        // keeps them from colliding with the rebuilt link's fresh
        // create ids. A still-pending Expire for one of them fires
        // into the new link as a no-op (unknown create id).
        self.pending_creates.retain(|k, _| k.0 != edge);
        self.emit(t, FAULT_TRACK, 0, SpanStage::EdgeRepair { edge });
        // Any wake scheduled for the old incarnation is superseded by
        // the generation bump.
        self.schedule_wake(edge);
    }

    /// Total NL pairs the link layer has delivered on edge `edge` for
    /// network requests (the raw pair cost purification spends).
    pub fn pairs_delivered(&self, edge: usize) -> u64 {
        self.edge_pairs_delivered[edge]
    }

    /// Link-level 2→1 distillations attempted on edge `edge`.
    pub fn purify_attempts(&self, edge: usize) -> u64 {
        self.edge_purify_attempts[edge]
    }

    /// Link-level distillations on edge `edge` whose parity check
    /// agreed (the pair survived, boosted).
    pub fn purify_successes(&self, edge: usize) -> u64 {
        self.edge_purify_successes[edge]
    }

    /// Number of in-flight path reservations crossing edge `edge` —
    /// the contention the EGP's distributed queue is arbitrating there
    /// (it serves multiple outstanding CREATEs in queue order).
    pub fn edge_load(&self, edge: usize) -> u32 {
        self.edge_load[edge]
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
        self.plan_with_policy(src, dst, fmin, k, exclude, self.policy)
    }

    /// The planning primitive: current metric + live loads, explicit
    /// exclusions, and an explicit policy (re-routes price under the
    /// policy their request was *issued* with, not the network's
    /// current one).
    fn plan_with_policy(
        &mut self,
        src: usize,
        dst: usize,
        fmin: f64,
        k: usize,
        exclude: &[usize],
        policy: Policy,
    ) -> Vec<Route> {
        if self.planner.is_none() {
            self.planner = Some(RoutePlanner::with_models(&self.topo, &self.models));
        }
        // Refresh the planning-time penalty snapshot: downed edges
        // are infinitely penalized (treated as absent — how the fault
        // layer keeps planning off dead links), every other edge
        // carries its decayed penalty-box surcharge. The snapshot
        // stays empty — and planning bit-identical to earlier PRs —
        // until a fault plan arms.
        if let Some(pb) = &self.penalty_box {
            let now = self.queue.now();
            let topo = &self.topo;
            let snap = &mut self.penalty_snapshot;
            snap.clear();
            snap.extend((0..topo.edge_count()).map(|e| {
                if topo.edge_up(e) {
                    pb.penalty(e, now)
                } else {
                    f64::INFINITY
                }
            }));
        }
        let planner = self.planner.as_ref().expect("planner just built");
        planner.k_shortest_paths_in(
            &self.topo,
            src,
            dst,
            k,
            self.metric.as_ref(),
            fmin,
            &PlanContext {
                policy,
                loads: &self.edge_load,
                exclude,
                penalties: &self.penalty_snapshot,
            },
        )
    }

    /// Plans the routes a request is *issued* on, down one fallback
    /// ladder: at `fmin` around `exclude`; else with the exclusions
    /// lifted; else best-effort ignoring `fmin` — the links then
    /// reject the CREATEs as UNSUPP and the attempt fails gracefully,
    /// the same degradation the link layer gives an unachievable
    /// `Fmin`. Empty only when no path connects the pair at all.
    fn plan_for_issue(
        &mut self,
        src: usize,
        dst: usize,
        fmin: f64,
        k: usize,
        exclude: &[usize],
        policy: Policy,
    ) -> Vec<Route> {
        let mut routes = self.plan_with_policy(src, dst, fmin, k, exclude, policy);
        if routes.is_empty() && !exclude.is_empty() {
            routes = self.plan_with_policy(src, dst, fmin, k, &[], policy);
        }
        if routes.is_empty() {
            routes = self.plan_with_policy(src, dst, 0.0, k, &[], policy);
        }
        routes
    }

    /// The single best route under the current metric, or `None` if no
    /// path can serve `fmin`.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst`.
    pub fn plan_route(&mut self, src: usize, dst: usize, fmin: f64) -> Option<Route> {
        self.plan_routes(src, dst, fmin, 1).into_iter().next()
    }

    /// Requests end-to-end entanglement between `src` and `dst` at
    /// minimum link fidelity `fmin`; returns the request id. The path
    /// is chosen by the current [`RouteMetric`] (default:
    /// [`HopCount`]) and reserved immediately; NL CREATEs are issued
    /// hop-by-hop as the reservation message propagates over the
    /// classical control channels.
    ///
    /// If paths exist but none can serve `fmin` (every candidate
    /// contains an edge whose FEU ceiling is below it), the best
    /// route *ignoring* feasibility is reserved instead: the links
    /// reject their CREATEs as UNSUPP, the attempt fails, and — once
    /// its retry budget is spent on equally infeasible re-plans — the
    /// request is abandoned and counted in [`Network::timeouts`]. No
    /// outcome is ever produced, which is what
    /// [`RepeaterChain::generate_end_to_end`]'s `None` and the sweep
    /// driver's zero-success records rely on.
    ///
    /// [`RepeaterChain::generate_end_to_end`]:
    ///     crate::chain::RepeaterChain::generate_end_to_end
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
        if self.policy == Policy::EndToEndPurify {
            return self.request_entanglement_distilled(src, dst, fmin);
        }
        let route = self
            .plan_for_issue(src, dst, fmin, 1, &[], self.policy)
            .into_iter()
            .next()
            .unwrap_or_else(|| panic!("no path from {src} to {dst}"));
        self.request_on_path(&route.nodes, fmin)
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
        let group = self.next_request;
        self.next_request += 1;
        // The group id gets its own issue span: its Deliver (and thus
        // the chrome-trace span close) is reported under the group id,
        // while the member streams trace under their own ids.
        self.emit(
            self.queue.now(),
            group,
            0,
            SpanStage::Issue { src, dst, fmin },
        );
        let members = self.request_entanglement_multipath(src, dst, fmin, 2);
        let members: [u64; 2] = [members[0], members[1]];
        let mut routes: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (i, m) in members.iter().enumerate() {
            let req = self.requests.get_mut(m).expect("member just issued");
            req.seed.group = Some(group);
            routes[i] = req.path.clone();
        }
        self.groups.insert(
            group,
            PairGroup {
                members,
                routes,
                fmin,
                requested_at: self.queue.now(),
                done: Vec::new(),
                swaps: 0,
                pairs_consumed: 0,
                policy: self.member_policy(),
                timeout: self.request_timeout,
                retries: self.retry_budget,
            },
        );
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
        let seed = AttemptSeed {
            timeout: self.request_timeout,
            retries_left: self.retry_budget,
            excluded: Vec::new(),
            requested_at: self.queue.now(),
            group: None,
            attempt: 0,
            policy: self.member_policy(),
        };
        self.issue_fresh(path, fmin, seed)
    }

    /// Allocates a new request id and issues its first attempt under
    /// an explicit seed — group regeneration builds the seed from the
    /// state its group was *created* with, whatever the network's
    /// knobs say by then.
    fn issue_fresh(&mut self, path: &[usize], fmin: f64, seed: AttemptSeed) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        self.issue_attempt(id, path, fmin, seed);
        id
    }

    /// Reserves `path` and issues its CREATEs for an existing request
    /// id, under the given retry/identity state — both the first
    /// attempt of a fresh request and every re-routed attempt land
    /// here.
    fn issue_attempt(&mut self, id: u64, path: &[usize], fmin: f64, seed: AttemptSeed) {
        assert!(path.len() >= 2, "a path needs two ends");
        let path = path.to_vec();
        let edges = self.topo.path_edges(&path);
        if let Some(tl) = self.telemetry.as_deref_mut() {
            let now = self.queue.now();
            if seed.attempt == 0 {
                tl.emit(
                    now,
                    id,
                    0,
                    SpanStage::Issue {
                        src: path[0],
                        dst: *path.last().expect("a path has two ends"),
                        fmin,
                    },
                );
            }
            tl.emit(
                now,
                id,
                seed.attempt,
                SpanStage::Plan { path: path.clone() },
            );
        }
        for &e in &edges {
            self.edge_load[e] += 1;
        }

        // The attempt compiles its policy to a rule table once and
        // installs per-edge programs (purification rounds, chosen
        // against the planner's FEU fidelity estimate) on every path
        // node. Building the planner is deterministic and draws no
        // RNG, so doing it lazily here cannot move a bit.
        let planner = self
            .planner
            .get_or_insert_with(|| RoutePlanner::with_models(&self.topo, &self.models));
        let rules = Arc::new(seed.policy.ruleset());
        let programs: Vec<ArmProgram> = edges
            .iter()
            .map(|&e| rules.edge_program(planner.profile(e).fidelity))
            .collect();
        let repeaters = (path.len() - 2) as u32;
        for (i, &n) in path.iter().enumerate() {
            let (role, left, right) = if i == 0 || i == path.len() - 1 {
                // An end's single edge: the path's first, or its last.
                let pos = i.saturating_sub(1);
                let role = PathRole::End {
                    edge: edges[pos],
                    expected_swaps: repeaters,
                };
                (role, programs[pos], ArmProgram::default())
            } else {
                let role = PathRole::Repeater {
                    left: edges[i - 1],
                    right: edges[i],
                };
                (role, programs[i - 1], programs[i])
            };
            self.nodes[n].reserve(id, role, rules.clone(), left, right);
        }
        // Arm this attempt's failure detection (no event at all when
        // the request was issued without a timeout — earlier PRs'
        // event streams must reproduce exactly).
        if let Some(timeout) = seed.timeout {
            self.queue.schedule_in(
                timeout,
                NetEvent::RequestTimeout {
                    request: id,
                    attempt: seed.attempt,
                },
            );
        }
        self.requests.insert(
            id,
            PathRequest {
                fmin,
                segments: Vec::new(),
                link_fidelities: vec![None; edges.len()],
                ends_ready: [None, None],
                frame: (0, 0),
                swaps: 0,
                purify_pending: vec![false; edges.len()],
                pair_fidelities: vec![Vec::new(); edges.len()],
                pairs_consumed: 0,
                edge_needs: programs.iter().map(ArmProgram::need).collect(),
                path,
                edges,
                seed,
            },
        );

        // The source issues its CREATE(s) now; downstream nodes issue
        // theirs when the reservation reaches them.
        self.submit_edge_creates(id, 0, fmin);
        self.forward_reserve(id, 0);
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
        // A disjoint route ranked below non-disjoint ones can sit
        // beyond the first `streams` candidates, so grow the pool
        // until greedy selection is satisfied or the graph (or the
        // cap — Yen's cost grows with k) is exhausted.
        let cap = streams.max(32);
        let mut k = streams;
        let mut selected: Vec<Route> = Vec::new();
        loop {
            let routes = self.plan_for_issue(src, dst, fmin, k, &[], self.policy);
            assert!(!routes.is_empty(), "no path from {src} to {dst}");
            let exhausted = routes.len() < k;
            selected.clear();
            for r in routes {
                if selected.iter().all(|s| s.edge_disjoint(&r)) {
                    selected.push(r);
                }
                if selected.len() == streams {
                    break;
                }
            }
            if selected.len() == streams || exhausted || k >= cap {
                break;
            }
            k = (k * 2).min(cap);
        }
        (0..streams)
            .map(|i| {
                let nodes = selected[i % selected.len()].nodes.clone();
                self.request_on_path(&nodes, fmin)
            })
            .collect()
    }

    /// Runs the network for `duration` of global simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let prof = self.profiling().then(Instant::now);
        let horizon = self.queue.now() + duration;
        while let Some((t, ev)) = self.queue.pop_until(horizon) {
            self.handle(t, ev);
        }
        self.account_elapsed(duration, horizon);
        self.finish_profile(prof);
    }

    /// Runs until the next end-to-end outcome, or until `max_time` of
    /// additional simulated time passes. On timeout the request keeps
    /// running (cancel with [`Network::cancel_request`] if desired).
    pub fn run_until_outcome(&mut self, max_time: SimDuration) -> Option<EndToEndOutcome> {
        let prof = self.profiling().then(Instant::now);
        let start = self.queue.now();
        let deadline = start + max_time;
        while self.outcomes.is_empty() {
            match self.queue.pop_until(deadline) {
                Some((t, ev)) => self.handle(t, ev),
                None => break,
            }
        }
        let end = self.queue.now();
        self.account_elapsed(end.since(start), end);
        self.finish_profile(prof);
        if self.outcomes.is_empty() {
            None
        } else {
            Some(self.outcomes.remove(0))
        }
    }

    /// `true` when the telemetry layer's profiling facet is on — the
    /// only condition under which the run loops touch `Instant` at
    /// all.
    fn profiling(&self) -> bool {
        self.telemetry.as_deref().is_some_and(Telemetry::profiling)
    }

    /// Closes out one run loop's profiling stopwatch and refreshes the
    /// queue gauges (pure observation: nothing here feeds back into
    /// the simulation).
    fn finish_profile(&mut self, started: Option<Instant>) {
        let Some(started) = started else { return };
        let events = self.queue.events_fired();
        let high_water = self.queue.depth_high_water();
        let cycles_elided = self.cycles_elided();
        let p = self
            .telemetry
            .as_deref_mut()
            .expect("profiling implies telemetry")
            .profile_mut();
        p.wall_nanos += started.elapsed().as_nanos() as u64;
        p.events_handled = events;
        p.queue_depth_high_water = high_water;
        p.cycles_elided = cycles_elided;
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
    /// the request. A group id from
    /// [`Network::request_entanglement_distilled`] cancels both of the
    /// group's streams and drops any parked pair.
    pub fn cancel_request(&mut self, request: u64) {
        self.workload_abandon(request);
        if let Some(group) = self.groups.remove(&request) {
            for member in group.members {
                self.cancel_request(member);
            }
            return;
        }
        self.teardown(request);
        // A stream parked between failure and re-issue holds no
        // reservations (its failing attempt released them). Dropping
        // the parked state makes the pending Reissue a no-op.
        self.parked.remove(&request);
    }

    // ---- internals ---------------------------------------------------

    /// The one exit — the only place a [`PathRequest`] leaves the
    /// table: releases its node reservations and edge loads and
    /// retracts whatever CREATEs it still has queued inside links
    /// (none, for a delivered request). Delivery, failure, and
    /// cancellation all end here, so `edge_load` tracks the links' true
    /// backlog whatever ended the attempt. `None` when the request has
    /// no attempt in flight.
    fn teardown(&mut self, request: u64) -> Option<PathRequest> {
        let req = self.requests.remove(&request)?;
        for &n in &req.path {
            self.nodes[n].release(request);
        }
        for &e in &req.edges {
            // Checked: a double release must flag loudly in debug
            // builds (naming the edge and the request) and saturate at
            // zero, never wrap, in release builds.
            match self.edge_load[e].checked_sub(1) {
                Some(next) => self.edge_load[e] = next,
                None => debug_assert!(
                    false,
                    "edge_load underflow: double release of edge {e} by request {request}"
                ),
            }
        }
        self.retract_pending_creates(request, req.seed.attempt);
        Some(req)
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
            tl.emit(t, request, attempt_of(&self.requests, request), stage);
        }
    }

    fn account_elapsed(&mut self, duration: SimDuration, horizon: SimTime) {
        self.elapsed += duration;
        for link in &mut self.links {
            // Pure clock parking: every link event at or before the
            // horizon was already processed through its wake.
            link.advance_to(horizon);
            link.metrics.elapsed += duration;
        }
    }

    /// (Re)schedules the wake for a link's next internal event. Any
    /// previously scheduled wake becomes stale via the generation
    /// counter. A parked link has no next event and gets no wake: the
    /// submit that resumes it reschedules one.
    fn schedule_wake(&mut self, link: usize) {
        if let Some(t) = self.links[link].next_event_time() {
            self.wake_gen[link] += 1;
            let gen = self.wake_gen[link];
            self.queue
                .schedule_at(t.max(self.queue.now()), NetEvent::LinkWake { link, gen });
        }
    }

    fn handle(&mut self, t: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::LinkWake { link, gen } => {
                if gen != self.wake_gen[link] {
                    return; // superseded by a later-scheduled, earlier wake
                }
                self.links[link].advance_to(t);
                let deliveries = self.links[link].drain_deliveries();
                for d in deliveries {
                    self.on_delivery(link, d, t);
                }
                let rejections = self.links[link].drain_rejections();
                for r in rejections {
                    self.on_rejection(link, r, t);
                }
                self.schedule_wake(link);
            }
            NetEvent::Control { at, msg } => match msg {
                ControlMsg::Reserve { request } => self.on_reserve(request, at),
                ControlMsg::SwapResult {
                    request,
                    target,
                    z,
                    x,
                } => {
                    self.on_swap_result(request, at, target, z, x, t);
                }
                ControlMsg::PurifyResult {
                    request,
                    edge,
                    accepted,
                } => {
                    self.on_purify_result(request, at, edge, accepted, t);
                }
                ControlMsg::GroupResult { group, accepted } => {
                    self.on_group_result(group, accepted, t);
                }
            },
            NetEvent::RequestTimeout { request, attempt } => {
                self.on_request_timeout(request, attempt, t);
            }
            NetEvent::Reissue { request } => {
                // `None`: cancelled while parked.
                if let Some(parked) = self.parked.remove(&request) {
                    self.on_reissue(request, parked, t);
                }
            }
            NetEvent::Expire {
                edge,
                side,
                create_id,
            } => {
                self.links[edge].advance_to(t);
                self.links[edge].expire_request(side, create_id);
                if let Some(tl) = self.telemetry.as_deref_mut() {
                    tl.on_expire(edge);
                }
                self.schedule_wake(edge);
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
        let Some(mut wl) = self.workload.take() else {
            return; // workload cleared with an arrival in flight
        };
        let (class, pair) = wl.resolve_arrival(index, &mut self.load_rng);
        if let Some(gap) = wl.gap_after(index, &mut self.load_rng) {
            self.queue
                .schedule_in(gap, NetEvent::Arrival { index: index + 1 });
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

    /// A workload-tracked request delivered: fold it into the class
    /// accounting and, if arrivals are waiting, schedule a queue
    /// drain one control delay out (the slot-freed notice has to
    /// reach the admission plane).
    /// Returns `false`, touching nothing, for untracked (closed-loop)
    /// requests.
    fn workload_complete(&mut self, request: u64, fidelity: f64, t: SimTime) -> bool {
        let tracked = self
            .workload
            .as_deref_mut()
            .is_some_and(|wl| wl.complete(request, fidelity, t));
        if tracked {
            self.schedule_admit_drain();
        }
        tracked
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

    fn schedule_admit_drain(&mut self) {
        if self.workload.as_deref().is_some_and(LoadEngine::has_queued) {
            self.queue
                .schedule_in(self.min_control_delay, NetEvent::AdmitQueued);
        }
    }

    /// Issues every NL CREATE path edge position `pos` of `request`
    /// starts with: the compiled program's pair need for the edge (one
    /// pair normally, two when it distills).
    fn submit_edge_creates(&mut self, request: u64, pos: usize, fmin: f64) {
        let Some(req) = self.requests.get(&request) else {
            return;
        };
        for _ in 0..req.edge_needs[pos] {
            self.submit_nl(request, pos, fmin);
        }
    }

    /// Issues one NL CREATE for path edge position `pos` of `request`.
    fn submit_nl(&mut self, request: u64, pos: usize, fmin: f64) {
        let Some(req) = self.requests.get(&request) else {
            return;
        };
        let edge_idx = req.edges[pos];
        let submitting_node = req.path[pos];
        let side = self.topo.edge(edge_idx).side_of(submitting_node);
        let now = self.queue.now();
        // Align the link's clock with the global instant of submission.
        self.links[edge_idx].advance_to(now);
        let create_id = self.links[edge_idx].submit(
            side,
            GeneratedRequest {
                kind: RequestKind::Nl,
                pairs: 1,
                origin: side,
                fmin,
                tmax_us: 0,
            },
        );
        self.pending_creates
            .insert((edge_idx, side, create_id), (request, now));
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.on_create(edge_idx);
        }
        self.span(
            now,
            request,
            SpanStage::Create {
                edge: edge_idx,
                side,
                create_id,
            },
        );
        self.schedule_wake(edge_idx);
    }

    /// Forwards the reservation from path position `pos` to the next
    /// node that must issue a CREATE.
    fn forward_reserve(&mut self, request: u64, pos: usize) {
        let Some(req) = self.requests.get(&request) else {
            return;
        };
        // The node at position `len - 2` submits the last edge; the
        // reservation needs to travel no further.
        if pos + 1 >= req.path.len() - 1 {
            return;
        }
        let next = req.path[pos + 1];
        let delay = self.topo.edge(req.edges[pos]).control_delay;
        self.queue.schedule_in(
            delay,
            NetEvent::Control {
                at: next,
                msg: ControlMsg::Reserve { request },
            },
        );
    }

    fn on_reserve(&mut self, request: u64, at: usize) {
        let Some(req) = self.requests.get(&request) else {
            return;
        };
        let Some(pos) = req.path.iter().position(|&n| n == at) else {
            return;
        };
        let fmin = req.fmin;
        self.submit_edge_creates(request, pos, fmin);
        self.forward_reserve(request, pos);
    }

    /// Retracts every CREATE of `request` still queued inside a link
    /// (`attempt` stamps the spans: the attempt that owned them, whose
    /// state the caller has already removed). The retraction notice
    /// travels the edge's classical control channel (a
    /// [`NetEvent::Expire`] one control delay out); on
    /// arrival the link-layer EXPIRE hook removes the request at both
    /// EGPs, so the links stop spending attempt cycles on pairs nobody
    /// will use. Notices are scheduled in key order.
    fn retract_pending_creates(&mut self, request: u64, attempt: u64) {
        let keys: Vec<(usize, usize, u16)> = self
            .pending_creates
            .iter()
            .filter_map(|(k, &(r, _))| (r == request).then_some(*k))
            .collect();
        let now = self.queue.now();
        for key in keys {
            self.pending_creates.remove(&key);
            let (edge, side, create_id) = key;
            if let Some(tl) = self.telemetry.as_deref_mut() {
                tl.on_retract(edge);
                tl.emit(now, request, attempt, SpanStage::Retract { edge });
            }
            let delay = self.topo.edge(edge).control_delay;
            self.queue.schedule_in(
                delay,
                NetEvent::Expire {
                    edge,
                    side,
                    create_id,
                },
            );
        }
    }

    /// A link terminally rejected one of this network's CREATEs
    /// (UNSUPP and friends): the attempt fails *now* — releasing its
    /// reservations and either trying another path or, with no retry
    /// budget left, abandoning the request — instead of idling until
    /// some timeout notices.
    fn on_rejection(&mut self, edge_idx: usize, r: Rejection, t: SimTime) {
        let key = (edge_idx, r.origin, r.create_id);
        let Some((request, _)) = self.pending_creates.remove(&key) else {
            return; // link-local traffic, or a CREATE already retracted
        };
        if r.is_unsupported() {
            if let Some(tl) = self.telemetry.as_deref_mut() {
                tl.on_unsupp(edge_idx);
            }
            // A terminal "this link cannot serve that" also feeds the
            // penalty box: the edge is priced up for *everyone*, so
            // later plans steer other requests around it too.
            if let Some(pb) = &mut self.penalty_box {
                pb.bump(edge_idx, t);
            }
        }
        self.fail_attempt(request, Some(edge_idx), t);
    }

    /// A request's per-attempt timeout fired. Stale timers (the
    /// attempt completed or was already re-issued) carry an older
    /// attempt number and are ignored.
    fn on_request_timeout(&mut self, request: u64, attempt: u64, t: SimTime) {
        let current = self.requests.get(&request).map(|req| req.seed.attempt);
        if current != Some(attempt) {
            return;
        }
        self.fail_attempt(request, None, t);
    }

    /// Fails the current attempt of `request`: tears it down
    /// ([`Network::teardown`] — reservations released, queued CREATEs
    /// retracted via [`LinkSimulation::expire_request`], so
    /// `edge_load` stays an exact congestion signal through timeout
    /// storms), extends its excluded-edge set — the specific failing
    /// edge when known, the whole failed path on a timeout — and
    /// either parks it for re-issue (budget left) or abandons it.
    ///
    /// [`LinkSimulation::expire_request`]:
    ///     qlink_sim::link::LinkSimulation::expire_request
    fn fail_attempt(&mut self, request: u64, failed_edge: Option<usize>, t: SimTime) {
        let Some(mut req) = self.teardown(request) else {
            return;
        };
        if req.seed.retries_left == 0 {
            self.abandon(request, &req.seed, failed_edge, t);
            return;
        }
        let implicated: &[usize] = match failed_edge {
            Some(ref e) => std::slice::from_ref(e),
            None => &req.edges,
        };
        for &e in implicated {
            if !req.seed.excluded.contains(&e) {
                req.seed.excluded.push(e);
            }
        }

        // Park and re-issue after a jittered backoff: the release has
        // to propagate along the old path's control channels before
        // its capacity is really free, and the jitter (drawn from the
        // dedicated `net/reroute` substream — runs without re-routes
        // never touch it) desynchronises the retry storm of streams
        // that all timed out at the same instant.
        self.reroutes += 1;
        let attempt = req.seed.attempt;
        self.emit(t, request, attempt, SpanStage::Reroute { failed_edge });
        let base = self.topo.path_control_delay(&req.path).as_secs_f64();
        // One jitter draw per failure whatever the policy, so changing
        // the policy never shifts the `net/reroute` substream.
        let jitter = self.reroute_rng.uniform();
        let backoff = self
            .backoff
            .delay(base, attempt, jitter)
            // At least one control delay must pass before the
            // released capacity is real.
            .max(self.min_control_delay);
        self.parked.insert(
            request,
            ParkedReroute {
                src: req.path[0],
                dst: *req.path.last().expect("a path has two ends"),
                fmin: req.fmin,
                seed: AttemptSeed {
                    retries_left: req.seed.retries_left - 1,
                    attempt: attempt + 1,
                    ..req.seed
                },
            },
        );
        self.queue
            .schedule_in(backoff, NetEvent::Reissue { request });
    }

    /// The one abandon tail: `request` will never deliver — its retry
    /// budget is exhausted, or no route is left to re-issue it on.
    /// Counts it, closes its span, and tells whoever tracks it (its
    /// distillation group, else the workload). `seed` is the state of
    /// the attempt that could not go on.
    fn abandon(
        &mut self,
        request: u64,
        seed: &AttemptSeed,
        failed_edge: Option<usize>,
        t: SimTime,
    ) {
        self.timed_out += 1;
        self.emit(t, request, seed.attempt, SpanStage::Abandon { failed_edge });
        if let Some(group) = seed.group {
            self.abandon_group(group, request);
        } else {
            self.workload_abandon(request);
        }
    }

    /// A failed stream's backoff elapsed: re-plan against the
    /// *current* loads and profiles, around every excluded edge where
    /// possible ([`Network::plan_for_issue`]), and re-issue under the
    /// original id, fmin, and policy.
    fn on_reissue(&mut self, request: u64, p: ParkedReroute, t: SimTime) {
        let route = self
            .plan_for_issue(p.src, p.dst, p.fmin, 1, &p.seed.excluded, p.seed.policy)
            .into_iter()
            .next();
        let Some(route) = route else {
            // Faults have cut every path between the pair.
            self.abandon(request, &p.seed, None, t);
            return;
        };
        // A re-routed group member retargets its group's route record
        // so a later parity-reject regenerates on the *new* path.
        if let Some(group) = p.seed.group {
            if let Some(g) = self.groups.get_mut(&group) {
                if let Some(i) = g.members.iter().position(|&m| m == request) {
                    g.routes[i] = route.nodes.clone();
                }
            }
        }
        self.issue_attempt(request, &route.nodes, p.fmin, p.seed);
    }

    /// A member stream of an end-to-end distillation group was
    /// abandoned: the group can never deliver, so drop it whole —
    /// cancel the partner stream (releasing its reservations) and
    /// discard any parked pair.
    fn abandon_group(&mut self, group: u64, failed_member: u64) {
        let Some(g) = self.groups.remove(&group) else {
            return;
        };
        // The group id is the public handle a workload tracks; member
        // streams were never registered, so their cancels below are
        // workload no-ops.
        self.workload_abandon(group);
        for member in g.members {
            if member != failed_member {
                self.cancel_request(member);
            }
        }
    }

    fn on_delivery(&mut self, edge_idx: usize, d: Delivery, t: SimTime) {
        if d.kind != RequestKind::Nl {
            return;
        }
        let Some((request, submitted)) =
            self.pending_creates
                .remove(&(edge_idx, d.origin, d.create_id))
        else {
            return;
        };
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.on_add(t.since(submitted));
        }
        self.span(
            t,
            request,
            SpanStage::Add {
                edge: edge_idx,
                fidelity: d.fidelity,
            },
        );

        let edge = self.topo.edge(edge_idx);
        let (a, b) = (edge.a, edge.b);
        let nv = &edge.link.scenario.nv;
        let decay = (nv.carbon_t1, nv.carbon_t2);
        // The delivered fidelity summarises the pair as a Werner state
        // — the one-parameter model a network layer tracks per link.
        let state = werner_from_fidelity(BellState::PhiPlus, d.fidelity);

        {
            let Some(req) = self.requests.get_mut(&request) else {
                return;
            };
            req.pairs_consumed += 1;
            self.edge_pairs_delivered[edge_idx] += 1;
            if let Some(pos) = req.edges.iter().position(|&e| e == edge_idx) {
                req.pair_fidelities[pos].push(d.fidelity);
                // Under link-level purification this is provisional:
                // the distillation overwrites it with its output.
                req.link_fidelities[pos] = Some(d.fidelity);
            }
            req.segments.push(Segment {
                a,
                b,
                state,
                decay_a: decay,
                decay_b: decay,
                updated: t,
            });
        }

        for node in [a, b] {
            let action = self.nodes[node].on_pair(request, edge_idx);
            self.drain_rule_fires(node, t);
            if let Some(action) = action {
                self.apply_action(node, action, t);
            }
        }
    }

    /// Surfaces the rule-firing log a node accumulated during its last
    /// observation as [`SpanStage::RuleFired`] spans. The log is
    /// always drained (the node buffers unconditionally so its
    /// decision path is identical either way), but spans are only
    /// emitted when telemetry is on — recording stays passive and
    /// on/off never moves a bit.
    fn drain_rule_fires(&mut self, node: usize, t: SimTime) {
        let fired = self.nodes[node].drain_fired();
        let Some(tl) = self.telemetry.as_deref_mut() else {
            return; // dropping the drain empties the log
        };
        for f in fired {
            tl.emit(
                t,
                f.request,
                attempt_of(&self.requests, f.request),
                SpanStage::RuleFired {
                    rule: f.rule,
                    action: f.action,
                },
            );
        }
    }

    fn apply_action(&mut self, node: usize, action: NodeAction, t: SimTime) {
        match action {
            NodeAction::Purify { request, edge } => self.do_purify(request, edge, t),
            NodeAction::Swap { request, .. } => self.do_swap(node, request, t),
            NodeAction::EndReady {
                request,
                frame_z,
                frame_x,
            } => self.on_end_ready(node, request, frame_z, frame_x, t),
        }
    }

    /// Executes a link-level 2→1 distillation on the quantum ledger:
    /// consumes the edge's two pairs, draws the parity check from the
    /// closed-form success probability of their Werner fidelities, and
    /// sends each endpoint its partner's parity bit over the edge's
    /// classical control channel. Both endpoints arm the rule in the
    /// same delivery instant; the first arrival does the work and the
    /// `purify_pending` latch absorbs the second.
    fn do_purify(&mut self, request: u64, edge_idx: usize, t: SimTime) {
        let (ea, eb) = {
            let e = self.topo.edge(edge_idx);
            (e.a, e.b)
        };
        // Phase 1: claim the rule and pull the edge's two pairs off
        // the ledger.
        let (pos, mut s1, mut s2) = {
            let Some(req) = self.requests.get_mut(&request) else {
                return;
            };
            let pos = req
                .edges
                .iter()
                .position(|&e| e == edge_idx)
                .expect("purify on an off-path edge");
            if req.purify_pending[pos] {
                return; // the other endpoint already ran it
            }
            req.purify_pending[pos] = true;
            let on_edge = |s: &Segment| (s.a == ea && s.b == eb) || (s.a == eb && s.b == ea);
            let i2 = req
                .segments
                .iter()
                .rposition(on_edge)
                .expect("purify without a second pair");
            let s2 = req.segments.remove(i2);
            let i1 = req
                .segments
                .iter()
                .position(on_edge)
                .expect("purify without a first pair");
            debug_assert!(i1 < i2, "distinct pairs");
            (pos, req.segments.remove(i1), s2)
        };
        // Phase 2: catch both memories up and distill in closed form —
        // the network layer tracks pairs as Werner states, so each
        // pair's current fidelity is read off the ledger (memory decay
        // included) and fed to the DEJMPS formulas.
        s1.decay_to(t);
        s2.decay_to(t);
        let f1 = bell_fidelity(&s1.state, (0, 1), BellState::PhiPlus).clamp(0.25, 1.0);
        let f2 = bell_fidelity(&s2.state, (0, 1), BellState::PhiPlus).clamp(0.25, 1.0);
        let out = distill_werner(f1, f2);
        let accepted = self.purify_rng.bernoulli(out.success_probability);
        self.edge_purify_attempts[edge_idx] += 1;
        self.span(t, request, SpanStage::Purify { edge: edge_idx });
        // Phase 3: on an agreeing parity the boosted pair replaces the
        // two inputs; on a reject both are lost.
        if accepted {
            self.edge_purify_successes[edge_idx] += 1;
            if let Some(req) = self.requests.get_mut(&request) {
                req.link_fidelities[pos] = Some(out.output_fidelity);
                req.segments.push(Segment {
                    a: s1.a,
                    b: s1.b,
                    state: werner_from_fidelity(BellState::PhiPlus, out.output_fidelity),
                    decay_a: s1.decay_a,
                    decay_b: s1.decay_b,
                    updated: t,
                });
            }
        }
        // Each endpoint learns the verdict when the partner's parity
        // bit crosses the edge's control channel.
        let edge = self.topo.edge(edge_idx);
        let delay = edge.control_delay;
        for node in [edge.a, edge.b] {
            self.queue.schedule_in(
                delay,
                NetEvent::Control {
                    at: node,
                    msg: ControlMsg::PurifyResult {
                        request,
                        edge: edge_idx,
                        accepted,
                    },
                },
            );
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
        let action = self.nodes[at].on_purify_result(request, edge, accepted);
        self.drain_rule_fires(at, t);
        if let Some(action) = action {
            self.apply_action(at, action, t);
        }
        // Regeneration is demand-driven — the rule table decided how
        // many fresh pairs this edge needs (one to pump an accepted
        // round, the program's full need after a reject, zero when the
        // program completed).
        let demand = self.nodes[at].take_create_demand(request, edge);
        let Some(req) = self.requests.get_mut(&request) else {
            return;
        };
        let Some(pos) = req.edges.iter().position(|&e| e == edge) else {
            return;
        };
        // Only the endpoint that submits this edge's CREATEs restarts
        // generation (its partner drained an identical demand above
        // and drops it here).
        if req.path[pos] != at || demand == 0 {
            return;
        }
        req.purify_pending[pos] = false;
        let fmin = req.fmin;
        for _ in 0..demand {
            self.submit_nl(request, pos, fmin);
        }
    }

    /// Executes a repeater's entanglement swap on the quantum ledger
    /// and broadcasts the Bell-measurement outcome to both ends.
    fn do_swap(&mut self, node: usize, request: u64, t: SimTime) {
        self.span(t, request, SpanStage::Swap { node });
        let (src, dst, outcome) = {
            let Some(req) = self.requests.get_mut(&request) else {
                return;
            };
            let i1 = req
                .segments
                .iter()
                .position(|s| s.a == node || s.b == node)
                .expect("swap without a left segment");
            let mut s1 = req.segments.swap_remove(i1);
            let i2 = req
                .segments
                .iter()
                .position(|s| s.a == node || s.b == node)
                .expect("swap without a right segment");
            let mut s2 = req.segments.swap_remove(i2);
            // Orient [far1 .. node][node .. far2].
            if s1.a == node {
                s1.flip();
            }
            if s2.b == node {
                s2.flip();
            }
            // Catch both halves' memories up to the swap instant.
            s1.decay_to(t);
            s2.decay_to(t);
            // Register [far1, node, node, far2]: BSM on the middle
            // two, Pauli correction folded onto far2.
            let mut joint = s1.state.tensor(&s2.state);
            let outcome = entanglement_swap(&mut joint, 1, 2, 3, self.rng.raw());
            let state = joint.partial_trace(&[0, 3]);
            req.segments.push(Segment {
                a: s1.a,
                b: s2.b,
                state,
                decay_a: s1.decay_a,
                decay_b: s2.decay_b,
                updated: t,
            });
            req.swaps += 1;
            (req.path[0], *req.path.last().unwrap(), outcome)
        };
        for target in [src, dst] {
            self.forward_swap_result(request, node, target, outcome.z_bit, outcome.x_bit);
        }
    }

    /// Sends a swap result one hop from `from` toward `target` over
    /// the classical control channel of the connecting path edge.
    fn forward_swap_result(&mut self, request: u64, from: usize, target: usize, z: u8, x: u8) {
        let Some(req) = self.requests.get(&request) else {
            return;
        };
        let pos = req
            .path
            .iter()
            .position(|&n| n == from)
            .expect("off-path sender");
        let tpos = req
            .path
            .iter()
            .position(|&n| n == target)
            .expect("off-path target");
        debug_assert_ne!(pos, tpos);
        let (next, via) = if tpos > pos {
            (req.path[pos + 1], req.edges[pos])
        } else {
            (req.path[pos - 1], req.edges[pos - 1])
        };
        let delay = self.topo.edge(via).control_delay;
        self.queue.schedule_in(
            delay,
            NetEvent::Control {
                at: next,
                msg: ControlMsg::SwapResult {
                    request,
                    target,
                    z,
                    x,
                },
            },
        );
    }

    fn on_swap_result(&mut self, request: u64, at: usize, target: usize, z: u8, x: u8, t: SimTime) {
        if at != target {
            self.forward_swap_result(request, at, target, z, x);
            return;
        }
        self.span(t, request, SpanStage::SwapResult { node: at });
        let action = self.nodes[at].on_swap_result(request, z, x);
        self.drain_rule_fires(at, t);
        if let Some(action) = action {
            self.apply_action(at, action, t);
        }
    }

    fn on_end_ready(&mut self, node: usize, request: u64, frame_z: u8, frame_x: u8, t: SimTime) {
        let complete = {
            let Some(req) = self.requests.get_mut(&request) else {
                return;
            };
            let side = if node == req.path[0] { 0 } else { 1 };
            req.ends_ready[side] = Some(t);
            req.frame = (frame_z, frame_x);
            req.ends_ready.iter().all(|r| r.is_some())
        };
        if complete {
            self.finalize(request, t);
        }
    }

    fn finalize(&mut self, request: u64, t: SimTime) {
        debug_assert!(
            !self.pending_creates.values().any(|&(r, _)| r == request),
            "request {request} completed with CREATEs still queued"
        );
        let Some(req) = self.teardown(request) else {
            return;
        };
        debug_assert_eq!(req.segments.len(), 1, "completion with fragmented path");
        let mut seg = req.segments.into_iter().next().expect("spanning segment");
        // The pair keeps decaying until the later end learned its
        // Pauli frame — only then is the entanglement usable.
        seg.decay_to(t);
        let link_fidelities: Vec<f64> = req
            .link_fidelities
            .iter()
            .map(|f| f.expect("complete path with missing link fidelity"))
            .collect();
        if let Some(group) = req.seed.group {
            self.on_member_complete(
                group,
                GroupMember {
                    segment: seg,
                    path: req.path,
                    link_fidelities,
                    pair_fidelities: req.pair_fidelities,
                    swaps: req.swaps,
                    frame: req.frame,
                },
                req.pairs_consumed,
                t,
            );
            return;
        }
        let outcome = EndToEndOutcome {
            request,
            link_fidelities,
            end_to_end_fidelity: bell_fidelity(&seg.state, (0, 1), BellState::PhiPlus),
            latency: t.since(req.seed.requested_at),
            delivered_at: t,
            swaps: req.swaps,
            frame_z: req.frame.0,
            frame_x: req.frame.1,
            distilled: false,
            pairs_consumed: req.pairs_consumed,
            pair_fidelities: req.pair_fidelities,
            path: req.path,
        };
        self.deliver(outcome, req.seed.attempt);
    }

    /// The one delivery tail: records the completion (metrics, the
    /// closing span — stamped `attempt`) and hands the outcome to
    /// whoever waits for it. Workload completions feed the class
    /// accounting directly; buffering an outcome per delivery would
    /// grow without bound over a million-arrival run.
    fn deliver(&mut self, outcome: EndToEndOutcome, attempt: u64) {
        let (id, t) = (outcome.request, outcome.delivered_at);
        let (fidelity, latency) = (outcome.end_to_end_fidelity, outcome.latency);
        if let Some(tl) = self.telemetry.as_deref_mut() {
            tl.on_complete(t, fidelity, latency);
        }
        self.emit(t, id, attempt, SpanStage::Deliver { fidelity, latency });
        if !self.workload_complete(id, fidelity, t) {
            self.outcomes.push(outcome);
        }
    }

    /// One stream of an end-to-end distillation group completed: park
    /// it (the pair keeps decaying in memory); when its partner is
    /// also in, the path ends measure both pairs, and the parity bits
    /// cross the full classical path before the verdict lands.
    fn on_member_complete(
        &mut self,
        group: u64,
        member: GroupMember,
        pairs_consumed: u32,
        t: SimTime,
    ) {
        let ready = {
            let Some(g) = self.groups.get_mut(&group) else {
                return; // group cancelled; the stream's pair is dropped
            };
            g.swaps += member.swaps;
            g.pairs_consumed += pairs_consumed;
            g.done.push(member);
            g.done.len() == 2
        };
        if !ready {
            return;
        }
        let (accepted, delay) = {
            let g = self.groups.get_mut(&group).expect("group just updated");
            let mut fids = [0.0; 2];
            for (i, m) in g.done.iter_mut().enumerate() {
                m.segment.decay_to(t);
                fids[i] =
                    bell_fidelity(&m.segment.state, (0, 1), BellState::PhiPlus).clamp(0.25, 1.0);
            }
            let out = distill_werner(fids[0], fids[1]);
            let accepted = self.purify_rng.bernoulli(out.success_probability);
            if accepted {
                // The kept stream's pair becomes the distilled output.
                let kept = &mut g.done[0];
                kept.segment.state = werner_from_fidelity(BellState::PhiPlus, out.output_fidelity);
                kept.segment.updated = t;
            }
            // The parity bit crosses every control channel of the
            // (slower) path before the ends know the verdict.
            let delay = g
                .done
                .iter()
                .map(|m| self.topo.path_control_delay(&m.path))
                .max()
                .expect("two members");
            (accepted, delay)
        };
        let at = self.groups[&group].done[0].path[0];
        self.queue.schedule_in(
            delay,
            NetEvent::Control {
                at,
                msg: ControlMsg::GroupResult { group, accepted },
            },
        );
    }

    /// The verdict of an end-to-end distillation reached the ends: an
    /// agreeing parity delivers the surviving boosted pair; a
    /// disagreement discards both streams' pairs and regenerates both
    /// streams on their routes.
    fn on_group_result(&mut self, group: u64, accepted: bool, t: SimTime) {
        self.emit(t, group, 0, SpanStage::GroupParity { group, accepted });
        if !accepted {
            let Some(g) = self.groups.get_mut(&group) else {
                return;
            };
            g.done.clear();
            let routes = g.routes.clone();
            let fmin = g.fmin;
            let (timeout, retries) = (g.timeout, g.retries);
            let policy = g.policy;
            let mut members = [0u64; 2];
            for (i, route) in routes.iter().enumerate() {
                // Regenerated members run under the group's pinned
                // failure-detection state, with a fresh retry budget
                // (like the original members) and the group id set
                // from birth.
                let seed = AttemptSeed {
                    timeout,
                    retries_left: retries,
                    excluded: Vec::new(),
                    requested_at: self.queue.now(),
                    group: Some(group),
                    attempt: 0,
                    policy,
                };
                members[i] = self.issue_fresh(route, fmin, seed);
            }
            self.groups.get_mut(&group).expect("group survives").members = members;
            return;
        }
        let Some(g) = self.groups.remove(&group) else {
            return;
        };
        let mut kept = g.done.into_iter().next().expect("resolved group");
        // The surviving pair decayed while the parity bits travelled.
        kept.segment.decay_to(t);
        let outcome = EndToEndOutcome {
            request: group,
            link_fidelities: kept.link_fidelities,
            end_to_end_fidelity: bell_fidelity(&kept.segment.state, (0, 1), BellState::PhiPlus),
            latency: t.since(g.requested_at),
            delivered_at: t,
            swaps: g.swaps,
            frame_z: kept.frame.0,
            frame_x: kept.frame.1,
            distilled: true,
            pairs_consumed: g.pairs_consumed,
            pair_fidelities: kept.pair_fidelities,
            path: kept.path,
        };
        self.deliver(outcome, 0);
    }
}

/// The attempt number `request` is on, as spans are stamped — 0 once
/// its in-flight state is gone.
fn attempt_of(requests: &BTreeMap<u64, PathRequest>, request: u64) -> u64 {
    requests.get(&request).map_or(0, |r| r.seed.attempt)
}
