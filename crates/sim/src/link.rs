//! The event-driven simulation of one quantum link.
//!
//! Wires two EGP+MHP nodes, the heralding station, classical channels
//! (with loss/corruption injection) and the quantum pair ledger onto
//! the deterministic event queue. This is the Rust analogue of the
//! paper's NetSquid setup of Appendix D.1.
//!
//! Every control frame crosses a lossy, corrupting channel. The
//! node-to-node frames cross as CRC-protected bytes inside an event. The
//! MHP's GEN and REPLY cross as values: each one's channel decides its
//! fate from the frame's length, a GEN that arrives intact lands in its
//! detection window, and a REPLY arrives at its own instant as the value
//! the station built, or as nothing when its channel damaged it
//! (ARCHITECTURE.md, "Link layer: one attempt").

use crate::config::{LinkConfig, RequestKind};
use crate::metrics::LinkMetrics;
use crate::workload::{GeneratedRequest, WorkloadGenerator};
use qlink_classical::channel::{ChannelModel, Fate, Transmission};
use qlink_des::{DetRng, EventQueue, IntMap, SimDuration, SimTime};
use qlink_egp::dqueue::Role;
use qlink_egp::egp::{Egp, EgpConfig, EgpErrorCode, EgpEvent, HwDirective, Input, Step};
use qlink_egp::feu::FidelityEstimator;
use qlink_egp::shared_random::SharedRandomness;
use qlink_phys::attempt::{AttemptModel, AttemptOutcome};
use qlink_phys::mhp::{AttemptKind, MhpResult, Midpoint, NodeMhp};
use qlink_phys::pair::{PairState, Side};
use qlink_quantum::bell::BellState;
use qlink_quantum::Basis;
use qlink_wire::egp::CreateMsg;
use qlink_wire::fields::{AbsQueueId, Fidelity16, RequestFlags, RequestType};
use qlink_wire::fields::{MhpError, ReplyOutcome};
use qlink_wire::mhp::{ReplyMsg, GEN_FRAME_LEN, REPLY_FRAME_LEN};
use qlink_wire::{Frame, FrameBytes};
use std::sync::Arc;

/// Node IDs on the wire (A is the distributed-queue master).
pub const NODE_A: u32 = 1;
/// Node B's wire ID.
pub const NODE_B: u32 = 2;

/// The per-attempt events are flat values — a REPLY travels as the
/// message it is and nodes are named by their one-byte index (0 = A,
/// 1 = B) — so scheduling one never allocates. They are also *small*, at
/// most 32 bytes: every schedule and every pop moves an event, and an
/// event scheduled inside the link's queue shifts the ones beside it. So
/// the node-to-node frames — up to 48 bytes, sent only on the CREATE and
/// recovery paths — are boxed.
/// A photon or GEN reaching the station is no event (`on_cycle` fills
/// its detection-window slot at emission), nor is a reply deadline (the
/// `Cycle` it falls on gives up on the MHPs' oldest in-flight attempts).
#[derive(Debug)]
enum Event {
    /// Start of MHP cycle `c` at both nodes.
    Cycle(u64),
    /// The station closes detection window `c`.
    WindowClose(u64),
    /// A node-to-node classical frame arrives.
    PeerFrame { to: u8, bytes: Box<FrameBytes> },
    /// A station REPLY arrives at a node: `None` when its channel damaged
    /// it, which the node's CRC check drops.
    ReplyArrive { to: u8, reply: Option<ReplyMsg> },
}

const _: () = assert!(std::mem::size_of::<Event>() <= 32);

#[derive(Debug)]
struct LedgerEntry {
    pair: Option<PairState>,
    outcome: AttemptOutcome,
    bits: Option<(u8, u8)>,
    heralded_fidelity: f64,
    released: [bool; 2],
}

#[derive(Debug, Clone, Copy)]
struct RequestTracking {
    kind: RequestKind,
    submitted: SimTime,
    pairs: u16,
    pairs_seen: u16,
}

/// One pair delivered by the link layer: the OK an embedding (network)
/// layer reads from the link's outbox ([`LinkSimulation::take_outputs`]).
///
/// The link records the same information into its own
/// [`LinkMetrics`]; this record exists so a higher layer driving many
/// links on a shared clock can react to individual deliveries at the
/// simulated instant they happen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Request kind the pair was produced for.
    pub kind: RequestKind,
    /// Originating node (0 = A, 1 = B).
    pub origin: usize,
    /// The CREATE id returned by [`LinkSimulation::submit`].
    pub create_id: u16,
    /// Delivered fidelity (K-type: storage-decayed; M-type: heralded).
    pub fidelity: f64,
    /// Simulated delivery instant.
    pub at: SimTime,
    /// `true` when this pair completed its request.
    pub request_complete: bool,
}

/// One CREATE the link layer terminally rejected (UNSUPP, deadline
/// too tight, queue denial, memory exhaustion…): no pair will ever be
/// delivered for it: the ERR an embedding (network) layer reads from
/// the link's outbox ([`LinkSimulation::take_outputs`]) — the
/// observation a re-routing network layer needs to try another path
/// instead of waiting out a timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Node whose EGP rejected the CREATE (0 = A, 1 = B) — the same
    /// side the CREATE was submitted on.
    pub origin: usize,
    /// The CREATE id returned by [`LinkSimulation::submit`].
    pub create_id: u16,
    /// The protocol error that killed the request.
    pub code: EgpErrorCode,
    /// Simulated rejection instant.
    pub at: SimTime,
}

/// What a link reports to the layer above, in event order: the OKs and
/// terminal ERRs of the CREATEs submitted to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkOutput {
    /// A pair was delivered.
    Delivery(Delivery),
    /// A CREATE was terminally rejected.
    Rejection(Rejection),
}

impl Rejection {
    /// `true` when the link refused the request as unserveable
    /// (UNSUPP: the FEU cannot reach the requested fidelity at all) —
    /// the class the telemetry layer counts per edge, as opposed to
    /// transient queue/deadline denials.
    pub fn is_unsupported(&self) -> bool {
        self.code == EgpErrorCode::Unsupported
    }
}

/// A fully wired two-node link simulation.
///
/// The link stores no config struct: its hardware profile lives behind
/// the FEU handle ([`FidelityEstimator::params`]), read there on the
/// cold paths, and the one figure the per-event paths need, the MHP
/// cycle, is cached as a scalar.
pub struct LinkSimulation {
    queue: EventQueue<Event>,
    /// The MHP cycle in picoseconds.
    mhp_cycle_ps: u64,
    egps: [Egp; 2],
    mhps: [NodeMhp; 2],
    midpoint: Midpoint,
    /// The handle both EGPs hold too; the station reads its models.
    feu: FidelityEstimator,
    /// The model the last detection window closed under, by α bits:
    /// consecutive windows almost always serve one request at one α,
    /// so they skip the cache lookup and its `Arc` clone.
    model: Option<(u64, Arc<AttemptModel>)>,
    ledger: IntMap<u64, LedgerEntry>,
    chan_ab: [ChannelModel; 2],
    chan_gen: [ChannelModel; 2],
    chan_reply: [ChannelModel; 2],
    rng_phys: DetRng,
    rng_chan: DetRng,
    /// `None` for [`WorkloadSpec::none`]: a link driven only by
    /// [`LinkSimulation::submit`] keeps no generator.
    ///
    /// [`WorkloadSpec::none`]: crate::workload::WorkloadSpec::none
    workload: Option<Box<WorkloadGenerator>>,
    /// Open CREATEs by origin node, then create ID.
    tracking: [IntMap<u16, RequestTracking>; 2],
    /// An attempt's reply deadline is the start of cycle `attempt +
    /// reply_deadline_cycles`: the reply round trip in whole MHP cycles,
    /// plus twelve of slack.
    reply_deadline_cycles: u64,
    /// From the start of an attempt's cycle to the close of its detection
    /// window: emission preparation, the longer arm's flight, 100 ns.
    window_close_after: SimDuration,
    /// What the link reported since the last
    /// [`LinkSimulation::take_outputs`], in event order.
    outputs: Vec<LinkOutput>,
    /// Metrics collected so far.
    pub metrics: LinkMetrics,
    /// Opt-in ([`LinkSimulation::park_when_idle`]): stop the MHP cycle
    /// clock while the link is idle.
    park_when_idle: bool,
    /// `Some(c)` while the cycle clock is parked: no `Cycle` event
    /// pends, and `c` is the first cycle that has neither fired nor
    /// been elided.
    parked: Option<u64>,
    cycles_elided: u64,
}

/// MHP cycles between two `queue_length` samples, the one upkeep a
/// parked link back-fills for the cycles it skipped.
const QUEUE_SAMPLE_STRIDE: u64 = 256;

impl LinkSimulation {
    /// Builds the link from a configuration, over an FEU of its own.
    pub fn new(cfg: LinkConfig) -> Self {
        let feu = FidelityEstimator::new(cfg.scenario.clone());
        Self::with_estimator(cfg, feu)
    }

    /// Builds the link over a shared FEU handle: both EGPs, the
    /// station's model lookup and the workload scaling read (and fill)
    /// the one table behind it, so a link on hardware another link has
    /// already characterised derives nothing again. Sharing changes no
    /// value — the table holds pure functions of `(params, α)` and
    /// `(params, Fmin, type)`.
    ///
    /// # Panics
    /// Panics if `feu` models other hardware than `cfg.scenario`.
    pub fn with_estimator(cfg: LinkConfig, mut feu: FidelityEstimator) -> Self {
        let root = DetRng::new(cfg.seed);
        let scenario = &cfg.scenario;

        let shared = SharedRandomness::new(cfg.seed ^ 0x7e57_0000);
        let mk_egp = |node, peer, role| {
            let mut e =
                EgpConfig::for_scenario(node, peer, role, scenario.clone(), cfg.scheduler.policy());
            e.shared_random = shared;
            Egp::with_estimator(e, feu.clone())
        };
        let egp_a = mk_egp(NODE_A, NODE_B, Role::Master);
        let egp_b = mk_egp(NODE_B, NODE_A, Role::Slave);

        // Workload arrival scaling: psucc/E at the FEU's α per kind.
        let mut scale = [0.0f64; 3];
        for (i, kind) in RequestKind::ALL.iter().enumerate() {
            let load = cfg.workload.kind_load(*kind);
            if load.fraction <= 0.0 {
                continue;
            }
            let rtype = if kind.is_keep() {
                RequestType::Keep
            } else {
                RequestType::Measure
            };
            if let Some(choice) = feu.choose_alpha(load.fmin, rtype) {
                let e = match rtype {
                    RequestType::Keep => scenario.expected_cycles_per_attempt_keep(),
                    RequestType::Measure => scenario.expected_cycles_per_attempt_measure(),
                };
                scale[i] = feu.success_probability(choice.alpha) / e;
            }
        }
        // A link driven only by `submit` keeps no generator; building one
        // to ask drew nothing, and substream derivation is pure.
        let workload = WorkloadGenerator::new(cfg.workload, scale, root.substream("workload"));
        let workload = (!workload.is_none()).then(|| Box::new(workload));

        let node_to_node_km = scenario.arm_a_km + scenario.arm_b_km;
        let mk_chan = |km: f64| {
            ChannelModel::fiber(km, cfg.classical_loss).with_corruption(cfg.classical_corruption)
        };
        let round_trip = scenario
            .reply_latency()
            .as_ps()
            .div_ceil(scenario.mhp_cycle.as_ps());
        let longer_arm = scenario.arm_a_delay().max(scenario.arm_b_delay());
        let mut sim = LinkSimulation {
            queue: EventQueue::new(),
            mhp_cycle_ps: scenario.mhp_cycle.as_ps(),
            egps: [egp_a, egp_b],
            mhps: [NodeMhp::new(NODE_A), NodeMhp::new(NODE_B)],
            midpoint: Midpoint::new(NODE_A, NODE_B),
            feu,
            model: None,
            ledger: IntMap::default(),
            chan_ab: [mk_chan(node_to_node_km), mk_chan(node_to_node_km)],
            chan_gen: [mk_chan(scenario.arm_a_km), mk_chan(scenario.arm_b_km)],
            chan_reply: [mk_chan(scenario.arm_a_km), mk_chan(scenario.arm_b_km)],
            rng_phys: root.substream("physics"),
            rng_chan: root.substream("channels"),
            workload,
            tracking: Default::default(),
            reply_deadline_cycles: round_trip + 12,
            window_close_after: scenario.emission_prep + longer_arm + SimDuration::from_nanos(100),
            outputs: Vec::new(),
            metrics: LinkMetrics::new(),
            park_when_idle: false,
            parked: None,
            cycles_elided: 0,
        };
        // `on_cycle` hands photons and GENs to the station at emission: both
        // leave after `emission_prep` and must arrive before their window closes.
        assert!(
            sim.chan_gen
                .iter()
                .all(|gen| scenario.emission_prep + gen.delay < sim.window_close_after),
            "a GEN would reach the station after its detection window closed"
        );
        sim.queue.schedule_at(SimTime::ZERO, Event::Cycle(0));
        sim
    }

    /// Builds the link as [`LinkSimulation::new`] but with its first
    /// MHP cycle aligned to the first cycle boundary at or after
    /// `at` — how an embedding layer brings a repaired link into
    /// service mid-run. The link's internal clock still starts at
    /// zero (the simulation never computes anything before `at`; the
    /// embedder's next `advance_to` parks it at the shared time), no
    /// history is replayed, and no random draw happens for the
    /// skipped cycles, so the rebuild costs O(1) regardless of when
    /// the repair lands — and, over the FEU handle the previous
    /// incarnation's network still holds, derives nothing again.
    pub fn new_starting_at(cfg: LinkConfig, feu: FidelityEstimator, at: SimTime) -> Self {
        let mut sim = Self::with_estimator(cfg, feu);
        let c0 = at.as_ps().div_ceil(sim.mhp_cycle_ps);
        sim.queue.clear();
        sim.queue.schedule_at(sim.cycle_start(c0), Event::Cycle(c0));
        sim
    }

    /// The simulation's current time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed (run statistics). MHP cycles a parked
    /// link skipped ([`LinkSimulation::cycles_elided`]) are not events
    /// and are not counted.
    pub fn events_fired(&self) -> u64 {
        self.queue.events_fired()
    }

    /// MHP cycles skipped while parked
    /// ([`LinkSimulation::park_when_idle`]), up to
    /// [`LinkSimulation::now`]: exactly the `Cycle` events a
    /// never-parking link would have fired on top of
    /// [`LinkSimulation::events_fired`]. Always 0 for a link that was
    /// not opted in.
    pub fn cycles_elided(&self) -> u64 {
        self.cycles_elided
    }

    /// Restarts the event-count statistics (see
    /// [`EventQueue::reset_stats`]) and the elided-cycle count; the
    /// simulation state and clock are untouched.
    pub fn reset_event_stats(&mut self) {
        self.queue.reset_stats();
        self.cycles_elided = 0;
    }

    /// Borrow a node's EGP (0 = A, 1 = B) for inspection.
    pub fn egp(&self, node: usize) -> &Egp {
        &self.egps[node]
    }

    /// Submits a CREATE directly (besides the random workload); returns
    /// the create ID.
    pub fn submit(&mut self, origin: usize, req: GeneratedRequest) -> u16 {
        self.resume();
        let now = self.queue.now();
        let cycle = self.current_cycle();
        let msg = Self::create_msg(&req, if origin == 0 { NODE_B } else { NODE_A });
        // Not `step_egp`: an immediate ERR must find the CREATE tracked.
        let mut out = Vec::new();
        let step = self.egps[origin].step(Input::Create(msg), cycle, &mut out);
        let create_id = step.create_id.expect("a CREATE is assigned a create ID");
        self.tracking[origin].insert(
            create_id,
            RequestTracking {
                kind: req.kind,
                submitted: now,
                pairs: req.pairs,
                pairs_seen: 0,
            },
        );
        self.route(origin, &mut out);
        create_id
    }

    /// Retracts a CREATE previously submitted on `origin` whose pairs
    /// the higher layer no longer wants: the EGP abandons the queued
    /// request locally, tells its peer to do the same (a RETRACT frame
    /// over the node-to-node channel, retransmitted until
    /// acknowledged), and stops spending attempt cycles on it. The
    /// observation a re-routing network layer needs so a failed
    /// attempt's backlog really leaves the link — without this, the
    /// orphaned CREATE keeps consuming cycles until it is served (and
    /// its pairs discarded on delivery).
    ///
    /// No-op for a CREATE already completed, rejected, or unknown.
    /// As for an embedding layer's [`LinkSimulation::submit`], the
    /// caller must have advanced the link to the retraction instant
    /// first.
    pub fn expire_request(&mut self, origin: usize, create_id: u16) {
        self.resume();
        let cycle = self.current_cycle();
        self.tracking[origin].remove(&create_id);
        self.step_egp(origin, Input::Expire(create_id), cycle);
    }

    /// Runs the simulation for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let horizon = self.queue.now() + duration;
        self.advance_to(horizon);
        self.metrics.elapsed += duration;
    }

    // ---- steppable embedding API ------------------------------------
    //
    // A network layer driving N links on one shared clock needs finer
    // control than `run_for`: it must know when each link's next event
    // fires, advance a link exactly to a global instant, and read what
    // the link reported along the way. These three methods are that
    // contract; `run_for` is a thin wrapper over `advance_to`.

    /// Firing time of this link's next pending event. `None` means
    /// the link is parked ([`LinkSimulation::park_when_idle`]): nothing
    /// will happen inside it until the next
    /// [`LinkSimulation::submit`] / [`LinkSimulation::expire_request`].
    /// A link that was not opted in never returns `None` — its MHP
    /// cycle clock keeps self-scheduling.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Processes every pending event up to and including `t` and
    /// parks the link's clock at `t`.
    ///
    /// Does *not* advance [`LinkMetrics::elapsed`] — an embedding layer
    /// accounts elapsed time once, globally.
    ///
    /// # Panics
    /// Panics if `t` precedes [`LinkSimulation::now`] (the DES never
    /// rewinds).
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.queue.now(), "advance_to into the past");
        while let Some((et, ev)) = self.queue.pop_until(t) {
            self.handle(et, ev);
        }
        // A parked link fires nothing: account for the cycles a ticking
        // one would have fired by `t`.
        if self.parked.is_some() {
            self.elide_cycles_before(self.cycle_of(t) + 1);
        }
    }

    /// Lets the MHP cycle clock stop while the link is idle. At a cycle
    /// where nothing pends in the link's own event queue, no attempt awaits
    /// its reply, the workload generator is [`WorkloadSpec::none`] and
    /// neither EGP has a next tick ([`Egp::next_tick`] is `None`), the link
    /// schedules no further `Cycle`: [`LinkSimulation::next_event_time`]
    /// returns `None` until the next [`LinkSimulation::submit`] /
    /// [`LinkSimulation::expire_request`] restarts the clock at the first
    /// cycle boundary after it — the cycle a ticking link would fire next.
    /// Every skipped cycle is one whose EGP ticks are no-ops, and its
    /// housekeeping (the `queue_length` sample) is back-filled, so
    /// deliveries, rejections and [`LinkMetrics`] are bit-identical to a
    /// never-parking run; only [`LinkSimulation::events_fired`] drops, by
    /// [`LinkSimulation::cycles_elided`].
    ///
    /// Off by default: a standalone stepper may rely on the cycle clock
    /// never stopping.
    /// An embedding layer that already handles a `None`
    /// `next_event_time` switches it on.
    ///
    /// [`WorkloadSpec::none`]: crate::workload::WorkloadSpec::none
    pub fn park_when_idle(&mut self) {
        self.park_when_idle = true;
    }

    /// Takes everything the link reported since the last call — every
    /// [`Delivery`] and [`Rejection`] — in event order. The outbox is
    /// always on: a caller that reads it after each call into the link
    /// (`submit`, `expire_request`, `advance_to`) sees each report at
    /// the simulated instant it was made. A link nobody reads keeps one
    /// record per delivered pair, as [`LinkMetrics::ok_series`] does.
    pub fn take_outputs(&mut self) -> Vec<LinkOutput> {
        std::mem::take(&mut self.outputs)
    }

    #[doc(hidden)] #[rustfmt::skip]
    pub fn capture_deliveries(&mut self) {} // benchmark-compat: ROADMAP item 1 deletes this
    #[doc(hidden)] #[rustfmt::skip]
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> { self.take_outputs().into_iter().filter_map(|o| match o { LinkOutput::Delivery(d) => Some(d), LinkOutput::Rejection(_) => None }).collect() } // benchmark-compat: ROADMAP item 1 deletes this

    fn current_cycle(&self) -> u64 {
        self.cycle_of(self.queue.now())
    }

    /// The MHP cycle whose slot contains `t`.
    fn cycle_of(&self, t: SimTime) -> u64 {
        t.as_ps() / self.mhp_cycle_ps
    }

    fn cycle_start(&self, c: u64) -> SimTime {
        SimTime::from_ps(c * self.mhp_cycle_ps)
    }

    fn side_of(node: usize) -> Side {
        if node == 0 {
            Side::A
        } else {
            Side::B
        }
    }

    fn create_msg(req: &GeneratedRequest, remote: u32) -> CreateMsg {
        CreateMsg {
            remote_node_id: remote,
            min_fidelity: Fidelity16::from_f64(req.fmin),
            max_time_us: req.tmax_us,
            purpose_id: 10 + req.kind.priority() as u16,
            number: req.pairs,
            priority: req.kind.priority(),
            flags: RequestFlags {
                store: req.kind.is_keep(),
                measure_directly: !req.kind.is_keep(),
                consecutive: true,
                atomic: false,
                master_request: false,
            },
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Cycle(c) => self.on_cycle(now, c),
            Event::WindowClose(c) => self.on_window_close(now, c),
            Event::PeerFrame { to, bytes } => {
                if let Ok(frame) = Frame::decode(&bytes) {
                    let to = usize::from(to);
                    let cycle = self.current_cycle();
                    self.step_egp(to, Input::PeerFrame(frame), cycle);
                }
            }
            Event::ReplyArrive { to, reply } => {
                let Some(msg) = reply else { return };
                // The one value check encoding made: GEN_FAIL is local-only.
                debug_assert_ne!(msg.outcome, ReplyOutcome::Error(MhpError::GenFail));
                let to = usize::from(to);
                if let Some(result) = self.mhps[to].on_reply(msg) {
                    self.process_result(to, result);
                }
            }
        }
    }

    /// `true` at a cycle whose EGP ticks cannot do anything, and after
    /// which nothing can until the next external input: no internal
    /// event pends (so no frame or reply is in flight and no detection
    /// window is open), no node still waits out a reply deadline, no
    /// workload will arrive, and neither EGP has a next tick — which a
    /// queued request always has, so its length settles a busy link.
    fn is_idle(&self) -> bool {
        let quiet = |egp: &Egp| egp.queue_len() == 0 && egp.next_tick().is_none();
        self.queue.is_empty()
            && self.mhps.iter().all(|mhp| mhp.in_flight() == 0)
            && self.workload.is_none()
            && self.egps.iter().all(quiet)
    }

    /// At the start of cycle `c`, gives up on the attempts whose reply
    /// deadline it is — oldest first, node A before node B — and releases
    /// each one's half of its herald, if the window heralded a pair.
    fn fire_reply_deadlines(&mut self, c: u64) {
        while let Some((attempt, node)) = (0..2)
            .filter_map(|node| Some((self.mhps[node].oldest_pending()?, node)))
            .min()
            .filter(|&(attempt, _)| attempt + self.reply_deadline_cycles <= c)
        {
            let result = self.mhps[node].on_reply_timeout(attempt);
            self.process_result(node, result.expect("the oldest attempt is in flight"));
            self.release_ledger(attempt, node);
        }
    }

    /// Restarts a parked cycle clock at the first cycle boundary after
    /// the current instant — every cycle at or before it a ticking link
    /// has already fired. Called before an external input touches the
    /// EGPs, so the `Cycle` keeps its place ahead of whatever the input
    /// schedules, as in a ticking run.
    fn resume(&mut self) {
        if self.parked.is_none() {
            return;
        }
        let next = self.current_cycle() + 1;
        self.elide_cycles_before(next);
        debug_assert_eq!(self.parked, Some(next), "park cursor ahead of the clock");
        self.parked = None;
        self.queue
            .schedule_at(self.cycle_start(next), Event::Cycle(next));
    }

    /// While parked, skips every cycle before `end`: counts it elided
    /// and back-fills its housekeeping, in cycle order.
    fn elide_cycles_before(&mut self, end: u64) {
        let Some(from) = self.parked.filter(|&from| from < end) else {
            return; // ticking, or already past `end`
        };
        let mut c = from.next_multiple_of(QUEUE_SAMPLE_STRIDE);
        while c < end {
            self.housekeeping(c);
            c += QUEUE_SAMPLE_STRIDE;
        }
        self.cycles_elided += end - from;
        self.parked = Some(end);
    }

    /// The periodic upkeep due at cycle `c`, whether it fired or was
    /// elided: every [`QUEUE_SAMPLE_STRIDE`]th cycle samples the queue.
    fn housekeeping(&mut self, c: u64) {
        if c.is_multiple_of(QUEUE_SAMPLE_STRIDE) {
            self.metrics
                .queue_length
                .push(self.egps[0].queue_len() as f64);
        }
    }

    fn on_cycle(&mut self, now: SimTime, c: u64) {
        self.fire_reply_deadlines(c);
        if self.park_when_idle && self.is_idle() {
            // This cycle's ticks are no-ops and so is every later
            // one's until the next CREATE: stop the clock here. Every
            // attempt has been answered or given up on, so every pair
            // heralded has been released by both nodes.
            debug_assert!(self.ledger.is_empty(), "a parked link holds a pair");
            debug_assert!(self.tracking.iter().all(IntMap::is_empty));
            debug_assert!(self.mhps.iter().all(|mhp| mhp.in_flight() == 0));
            self.housekeeping(c);
            self.parked = Some(c + 1);
            return;
        }
        // Keep the clock ticking.
        self.queue
            .schedule_at(self.cycle_start(c + 1), Event::Cycle(c + 1));

        // Workload arrivals.
        if let Some(workload) = &mut self.workload {
            for req in workload.sample_cycle() {
                self.submit(req.origin, req);
            }
        }

        // Tick both EGPs; trigger attempts.
        let mut window_open = false;
        for i in 0..2 {
            let step = self.step_egp(i, Input::Tick, c);
            let Some(spec) = step.attempt else { continue };
            let actions = self.mhps[i].trigger(c, spec);
            window_open = true;

            // Both land in window `c` before it closes (see `with_estimator`):
            // the station takes them now. The GEN's channel decides its fate
            // from its length; a GEN that arrives intact is handed over as the
            // value it is, and a damaged one is what the station's CRC check
            // would have dropped.
            self.midpoint.on_photon(actions.photon);
            if let Fate::Intact { .. } = self.chan_gen[i].fate(&mut self.rng_chan, GEN_FRAME_LEN) {
                debug_assert!(actions.gen.queue_id.qid < AbsQueueId::MAX_QUEUES);
                self.midpoint.on_gen(self.mhps[i].node_id(), actions.gen);
            }
        }

        if window_open {
            self.queue
                .schedule_at(now + self.window_close_after, Event::WindowClose(c));
        }

        self.housekeeping(c);
    }

    fn on_window_close(&mut self, now: SimTime, c: u64) {
        let alpha = self.midpoint.window_alpha(c).expect(
            "on_cycle hands the station a window's photon before it schedules its WindowClose",
        );
        let bits = alpha.to_bits();
        if self.model.as_ref().is_none_or(|(last, _)| *last != bits) {
            self.model = Some((bits, self.feu.model(alpha)));
        }
        let model = &*self.model.as_ref().expect("set above").1;
        let eval = self.midpoint.evaluate_window(c, model, &mut self.rng_phys);

        if let Some(h) = &eval.herald {
            let emission = self.cycle_start(c) + self.feu.params().emission_prep;
            let entry = LedgerEntry {
                pair: h
                    .measured_bits
                    .is_none()
                    .then(|| PairState::new(h.state.clone(), emission)),
                outcome: h.outcome,
                bits: h.measured_bits,
                heralded_fidelity: model.heralded_fidelity(h.outcome),
                released: [false, false],
            };
            self.ledger.insert(c, entry);
        }
        // Each arm's channel decides its REPLY's fate from the length; a
        // damaged REPLY still arrives at its instant.
        for (node, reply) in eval.replies.into_iter().flatten() {
            let to = u8::from(node != NODE_A);
            let (delay, reply) =
                match self.chan_reply[usize::from(to)].fate(&mut self.rng_chan, REPLY_FRAME_LEN) {
                    Fate::Lost => continue,
                    Fate::Intact { delay } => (delay, Some(reply)),
                    Fate::Damaged { delay, .. } => (delay, None),
                };
            self.queue
                .schedule_at(now + delay, Event::ReplyArrive { to, reply });
        }
    }

    fn process_result(&mut self, node: usize, result: MhpResult) {
        let cycle = self.current_cycle();
        // Bits for M-type attempts live in the ledger.
        let local_bit = match (&result.spec.kind, result.outcome()) {
            (AttemptKind::Measure { .. }, outcome) if outcome_is_success(outcome) => self
                .ledger
                .get(&result.cycle)
                .and_then(|e| e.bits)
                .map(|(a, b)| if node == 0 { a } else { b }),
            _ => None,
        };
        self.step_egp(node, Input::MhpResult { result, local_bit }, cycle);
    }

    /// Steps node `node`'s EGP with `input` and routes what it emits.
    fn step_egp(&mut self, node: usize, input: Input, cycle: u64) -> Step {
        let mut out = Vec::new();
        let step = self.egps[node].step(input, cycle, &mut out);
        self.route(node, &mut out);
        step
    }

    /// Drains EGP outputs: frames into channels, OKs/errors into
    /// metrics, hardware directives into the pair ledger.
    fn route(&mut self, from: usize, events: &mut Vec<EgpEvent>) {
        for ev in events.drain(..) {
            match ev {
                EgpEvent::SendPeer(frame) => {
                    let now = self.queue.now();
                    let mut bytes = frame.encode();
                    if let Transmission::Delivered { delay } =
                        self.chan_ab[from].transmit(&mut bytes, &mut self.rng_chan)
                    {
                        let (to, bytes) = (1 - from as u8, Box::new(bytes));
                        self.queue
                            .schedule_at(now + delay, Event::PeerFrame { to, bytes });
                    }
                }
                EgpEvent::OkKeep(ok) => {
                    if ok.origin_is_local {
                        let fidelity = self.keep_pair_fidelity(ok.herald_cycle);
                        self.record_ok(from, ok.create_id, fidelity);
                    }
                    self.release_ledger(ok.herald_cycle, from);
                }
                EgpEvent::OkMeasure(ok) => {
                    if ok.origin_is_local {
                        let fidelity = self
                            .ledger
                            .get(&ok.herald_cycle)
                            .expect("an OK finds its herald")
                            .heralded_fidelity;
                        self.tally_qber(ok.herald_cycle, ok.basis);
                        self.record_ok(from, ok.create_id, fidelity);
                    }
                    self.release_ledger(ok.herald_cycle, from);
                }
                EgpEvent::Error(err) => {
                    self.metrics.record_error(error_label(err.code));
                    // Both nodes number their CREATEs from 0: an ERR about
                    // the peer's CREATE names none of this node's.
                    if err.origin_node_id != [NODE_A, NODE_B][from] {
                        continue;
                    }
                    if err.code == EgpErrorCode::Expire && err.range_only {
                        // Partial expiry: the affected pairs no
                        // longer count as delivered.
                        let span = err.seq_high.wrapping_sub(err.seq_low).min(16);
                        if let Some(t) = self.tracking[from].get_mut(&err.create_id) {
                            t.pairs_seen = t.pairs_seen.saturating_sub(span);
                        }
                    } else if matches!(
                        err.code,
                        EgpErrorCode::Timeout
                            | EgpErrorCode::Unsupported
                            | EgpErrorCode::Denied
                            | EgpErrorCode::NoTime
                            | EgpErrorCode::MemExceeded
                            | EgpErrorCode::OutOfMem
                            // Not a range: the EGP abandoned the CREATE
                            // once its resyncs ran out.
                            | EgpErrorCode::Expire
                    ) {
                        self.tracking[from].remove(&err.create_id);
                        self.outputs.push(LinkOutput::Rejection(Rejection {
                            origin: from,
                            create_id: err.create_id,
                            code: err.code,
                            at: self.queue.now(),
                        }));
                    }
                }
                EgpEvent::Hw(directive) => self.apply_hw(from, directive),
            }
        }
    }

    fn apply_hw(&mut self, node: usize, directive: HwDirective) {
        let now = self.queue.now();
        let nv = &self.feu.params().nv;
        match directive {
            HwDirective::CorrectPsiMinus { cycle } => {
                if let Some(pair) = self.ledger.get_mut(&cycle).and_then(|e| e.pair.as_mut()) {
                    pair.apply_psi_minus_correction(Self::side_of(node));
                }
            }
            HwDirective::MoveToMemory { cycle, .. } => {
                let move_d = SimDuration::from_secs_f64(nv.move_duration_s);
                if let Some(pair) = self.ledger.get_mut(&cycle).and_then(|e| e.pair.as_mut()) {
                    // Catch up electron decoherence (the wait for the
                    // midpoint reply), then apply the move.
                    if now > pair.last_update() {
                        pair.advance_to(now, nv);
                    }
                    pair.move_to_carbon(Self::side_of(node), nv);
                    pair.skip_decoupled(now + move_d);
                }
            }
            HwDirective::Discard { cycle } => {
                self.release_ledger(cycle, node);
            }
        }
    }

    fn keep_pair_fidelity(&mut self, herald_cycle: u64) -> f64 {
        let now = self.queue.now();
        let nv = &self.feu.params().nv;
        let pair = self
            .ledger
            .get_mut(&herald_cycle)
            .and_then(|e| e.pair.as_mut())
            .expect("a K-type OK finds its herald's pair");
        if now > pair.last_update() {
            pair.advance_to(now, nv);
        }
        pair.fidelity(BellState::PsiPlus)
    }

    fn tally_qber(&mut self, herald_cycle: u64, basis: Basis) {
        let Some(entry) = self.ledger.get(&herald_cycle) else {
            return;
        };
        let Some((a, b)) = entry.bits else { return };
        let bell = entry.outcome.bell_state();
        self.metrics.qber.record(bell, basis, a, b);
    }

    fn record_ok(&mut self, origin: usize, create_id: u16, fidelity: f64) {
        let now = self.queue.now();
        let Some(t) = self.tracking[origin].get_mut(&create_id) else {
            return;
        };
        t.pairs_seen += 1;
        let kind = t.kind;
        let latency = now.saturating_since(t.submitted);
        let complete = t.pairs_seen >= t.pairs;
        let pairs = t.pairs;
        self.metrics
            .record_pair(kind, origin, fidelity, latency, now);
        self.outputs.push(LinkOutput::Delivery(Delivery {
            kind,
            origin,
            create_id,
            fidelity,
            at: now,
            request_complete: complete,
        }));
        if complete {
            self.metrics
                .record_request_complete(kind, origin, pairs, latency, now);
            self.tracking[origin].remove(&create_id);
        }
    }

    fn release_ledger(&mut self, cycle: u64, node: usize) {
        if let Some(entry) = self.ledger.get_mut(&cycle) {
            entry.released[node] = true;
            if entry.released[0] && entry.released[1] {
                self.ledger.remove(&cycle);
            }
        }
    }
}

fn outcome_is_success(outcome: qlink_wire::fields::ReplyOutcome) -> bool {
    matches!(
        outcome,
        qlink_wire::fields::ReplyOutcome::Attempt(o) if o.is_success()
    )
}

fn error_label(code: EgpErrorCode) -> &'static str {
    match code {
        EgpErrorCode::Timeout => "TIMEOUT",
        EgpErrorCode::Unsupported => "UNSUPP",
        EgpErrorCode::MemExceeded => "MEMEXCEEDED",
        EgpErrorCode::OutOfMem => "OUTOFMEM",
        EgpErrorCode::Denied => "DENIED",
        EgpErrorCode::Expire => "EXPIRE",
        EgpErrorCode::NoTime => "NOTIME",
        EgpErrorCode::Rejected => "REJECTED",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, SchedulerChoice};
    use crate::workload::{GeneratedRequest, OriginPolicy, WorkloadSpec};
    use qlink_egp::egp::ErrMsg;

    fn manual_lab(seed: u64) -> LinkSimulation {
        LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), seed))
    }

    fn md_request(pairs: u16) -> GeneratedRequest {
        GeneratedRequest {
            kind: RequestKind::Md,
            pairs,
            origin: 0,
            fmin: 0.6,
            tmax_us: 0,
        }
    }

    fn nl_request(pairs: u16) -> GeneratedRequest {
        GeneratedRequest {
            kind: RequestKind::Nl,
            pairs,
            origin: 0,
            fmin: 0.6,
            tmax_us: 0,
        }
    }

    #[test]
    fn md_request_completes_with_plausible_fidelity() {
        let mut sim = manual_lab(42);
        sim.submit(0, md_request(2));
        // psucc ≈ 1.2e-4 per cycle at α≈0.2 → 2 pairs well within ~4 s.
        sim.run_for(SimDuration::from_secs(4));
        let m = sim.metrics.kind_total(RequestKind::Md);
        assert_eq!(m.pairs_delivered, 2, "MD request must complete");
        assert_eq!(m.requests_completed, 1);
        let f = m.fidelity.mean();
        assert!((0.6..0.95).contains(&f), "fidelity {f}");
    }

    #[test]
    fn nl_request_completes_with_storage_decay() {
        let mut sim = manual_lab(7);
        sim.submit(0, nl_request(1));
        sim.run_for(SimDuration::from_secs(6));
        let m = sim.metrics.kind_total(RequestKind::Nl);
        assert_eq!(m.pairs_delivered, 1, "NL request must complete");
        let f = m.fidelity.mean();
        // K-type delivered fidelity: heralded minus wait+move noise,
        // but at least the requested 0.6 on average.
        assert!((0.55..0.9).contains(&f), "fidelity {f}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = manual_lab(seed);
            sim.submit(0, md_request(3));
            sim.run_for(SimDuration::from_secs(3));
            (
                sim.metrics.total_pairs(),
                sim.events_fired(),
                sim.metrics.kind_total(RequestKind::Md).fidelity.mean(),
            )
        };
        assert_eq!(run(5), run(5), "same seed, same run");
        assert_ne!(run(5).1, run(6).1, "different seeds diverge");
    }

    #[test]
    fn workload_generates_and_completes_requests() {
        let spec = WorkloadSpec::single(RequestKind::Md, 0.7, 1).with_origin(OriginPolicy::Random);
        let mut sim = LinkSimulation::new(LinkConfig::lab(spec, 11));
        sim.run_for(SimDuration::from_secs(6));
        let m = sim.metrics.kind_total(RequestKind::Md);
        assert!(m.pairs_delivered >= 2, "delivered {}", m.pairs_delivered);
        assert!(sim.metrics.throughput(RequestKind::Md) > 0.0);
    }

    #[test]
    fn qber_accumulates_for_md() {
        let mut sim = manual_lab(13);
        sim.submit(0, md_request(5));
        sim.run_for(SimDuration::from_secs(8));
        let total = sim.metrics.qber.x.1 + sim.metrics.qber.y.1 + sim.metrics.qber.z.1;
        assert!(total >= 4, "QBER samples {total}");
    }

    #[test]
    fn classical_loss_does_not_wedge_the_link() {
        // §6.1: inflated loss, service still completes.
        let mut sim = LinkSimulation::new(
            LinkConfig::lab(WorkloadSpec::none(), 17).with_classical_loss(1e-3),
        );
        sim.submit(0, md_request(3));
        sim.run_for(SimDuration::from_secs(8));
        let m = sim.metrics.kind_total(RequestKind::Md);
        assert_eq!(m.pairs_delivered, 3, "completes despite loss");
    }

    /// A REPLY crosses its arm as a value, and its channel decides its
    /// fate: a lost REPLY never arrives, and a damaged one still arrives
    /// at its instant, as nothing — what the node's CRC check would have
    /// made of its bytes. Each arm answers to its own channel alone; the
    /// QL2020 link's arms differ in length.
    #[test]
    fn a_damaged_reply_arrives_as_nothing_on_its_own_arm() {
        let horizon = SimTime::ZERO + SimDuration::from_secs(120);
        for cfg in [LinkConfig::lab, LinkConfig::ql2020] {
            let cfg = cfg(WorkloadSpec::none(), 29)
                .with_classical_loss(0.05)
                .with_classical_corruption(0.25);
            let mut sim = LinkSimulation::new(cfg);
            sim.park_when_idle();
            sim.submit(0, md_request(3));

            let (mut arrived, mut damaged) = ([0u64; 2], [0u64; 2]);
            while let Some((at, ev)) = sim.queue.pop_until(horizon) {
                if let Event::ReplyArrive { to, reply } = &ev {
                    arrived[usize::from(*to)] += 1;
                    damaged[usize::from(*to)] += u64::from(reply.is_none());
                }
                sim.handle(at, ev);
            }
            assert!(
                sim.queue.is_empty(),
                "the link never parked: a REPLY may be in flight"
            );
            for arm in 0..2 {
                let stats = sim.chan_reply[arm].stats();
                assert!(
                    stats.corrupted > 100 && stats.sent > 2 * stats.corrupted,
                    "arm {arm}: {stats:?}"
                );
                assert!(stats.lost > 0, "arm {arm}: {stats:?}");
                assert_eq!(damaged[arm], stats.corrupted, "arm {arm}");
                assert_eq!(arrived[arm], stats.sent - stats.lost, "arm {arm}");
            }
        }
    }

    /// A GEN its channel loses or damages never reaches the station, and
    /// the station answers an arm — sends it one REPLY — exactly when it
    /// took that arm's GEN. The digest was recorded on the implementation
    /// that serialised every GEN, flipped the bit in the bytes and let the
    /// station's CRC check reject it.
    #[test]
    fn lossy_corrupting_gen_arms_account_for_every_frame() {
        let cfg = LinkConfig::lab(WorkloadSpec::none(), 31)
            .with_classical_loss(0.05)
            .with_classical_corruption(0.25);
        let mut sim = LinkSimulation::new(cfg);
        sim.submit(0, md_request(3));
        // Stop just short of a cycle boundary, every detection window closed.
        let horizon = sim.cycle_start(sim.cycle_of(SimTime::from_ps(50_000_000_000)));
        sim.advance_to(horizon - SimDuration::from_ps(1));

        for arm in 0..2 {
            let gen = sim.chan_gen[arm].stats();
            let taken = sim.chan_reply[arm].stats().sent;
            assert_eq!(gen.sent, gen.lost + gen.corrupted + taken, "arm {arm}");
            assert!(gen.corrupted > 500, "arm {arm}: {gen:?}");
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        fold(sim.events_fired());
        for chan in sim
            .chan_gen
            .iter()
            .chain(&sim.chan_reply)
            .chain(&sim.chan_ab)
        {
            let stats = chan.stats();
            [stats.sent, stats.lost, stats.corrupted]
                .into_iter()
                .for_each(&mut fold);
        }
        fold(sim.metrics.total_pairs());
        sim.metrics.errors.values().for_each(|&n| fold(n));
        assert_eq!(digest, 0x9a71_4371_fb7a_d934);
    }

    /// An ERR names a CREATE by its origin and create ID, and both nodes
    /// count create IDs from 0: only an ERR about a CREATE this node
    /// originated touches this node's record of its CREATE of that ID.
    /// A ranged EXPIRE un-counts revoked pairs; a non-ranged one — the
    /// EGP abandoning the CREATE after its resyncs ran out — ends it
    /// like any other terminal ERR.
    #[test]
    fn an_err_touches_only_the_create_of_its_origin() {
        let mut sim = manual_lab(3);
        let create_id = sim.submit(0, md_request(3));
        sim.tracking[0].get_mut(&create_id).unwrap().pairs_seen = 2;
        let expire = |origin_node_id, range_only| {
            EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::Expire,
                create_id,
                origin_node_id,
                range_only,
                seq_low: 0,
                seq_high: 1,
            })
        };
        let seen = |sim: &LinkSimulation| sim.tracking[0].get(&create_id).map(|t| t.pairs_seen);

        sim.route(0, &mut vec![expire(NODE_B, true), expire(NODE_B, false)]);
        assert_eq!(seen(&sim), Some(2), "B's CREATE {create_id} is not A's");
        assert!(sim.take_outputs().is_empty());

        sim.route(0, &mut vec![expire(NODE_A, true)]);
        assert_eq!(seen(&sim), Some(1), "A's own revoked pair");

        sim.route(0, &mut vec![expire(NODE_A, false)]);
        assert_eq!(seen(&sim), None, "abandoned by its EGP");
        let [LinkOutput::Rejection(r)] = sim.take_outputs()[..] else {
            panic!("one rejection expected");
        };
        assert_eq!(
            (r.origin, r.create_id, r.code),
            (0, create_id, EgpErrorCode::Expire)
        );
    }

    /// Whatever loss does to a CREATE from either origin — served,
    /// timed out, refused, or abandoned by its EGP once NO_MESSAGE_OTHER
    /// resyncs ran out — the link forgets it when its EGP does: once
    /// both EGPs are quiescent, no CREATE is left in `tracking` (an entry
    /// there would never see an OK or an ERR again, and an embedding
    /// network would never hear of its end).
    #[test]
    fn no_create_stays_tracked_once_its_egp_dropped_it() {
        const KINDS: [RequestKind; 3] = [RequestKind::Md, RequestKind::Nl, RequestKind::Ck];
        for seed in 1..=3 {
            let cfg = LinkConfig::lab(WorkloadSpec::none(), seed)
                .with_classical_loss(0.1)
                .with_classical_corruption(0.05);
            let mut sim = LinkSimulation::new(cfg);
            let mut submitted = 0;
            for round in 0..6 {
                for (i, &kind) in KINDS.iter().enumerate() {
                    let origin = (round + i) % 2;
                    sim.submit(
                        origin,
                        GeneratedRequest {
                            kind,
                            pairs: 1 + ((round + 2 * i) % 3) as u16,
                            origin,
                            fmin: 0.6,
                            tmax_us: 2_000_000,
                        },
                    );
                    submitted += 1;
                }
                sim.run_for(SimDuration::from_millis(500));
            }
            let mut waited = 0;
            while sim.egps.iter().any(|egp| egp.next_tick().is_some()) {
                assert!(waited < 200, "seed {seed}: the EGPs never went quiet");
                sim.run_for(SimDuration::from_millis(100));
                waited += 1;
            }
            let tracked: Vec<_> = sim.tracking.iter().map(|t| t.len()).collect();
            assert_eq!(tracked, [0, 0], "seed {seed}: of {submitted} CREATEs");
        }
    }

    /// A node whose REPLY is lost gives up on its attempt at the reply
    /// deadline, and that releases its half of the pair the window
    /// heralded, as an OK or a Discard would: once both lossy links are
    /// parked, no pair is left in the ledger and no attempt in flight.
    #[test]
    fn lossy_links_free_every_pair_they_herald() {
        let horizon = SimTime::ZERO + SimDuration::from_secs(120);
        for cfg in [LinkConfig::lab, LinkConfig::ql2020] {
            let cfg = cfg(WorkloadSpec::none(), 41)
                .with_classical_loss(0.10)
                .with_classical_corruption(0.05);
            let mut sim = LinkSimulation::new(cfg);
            sim.park_when_idle();
            for _ in 0..4 {
                sim.submit(0, md_request(5));
                sim.submit(
                    1,
                    GeneratedRequest {
                        kind: RequestKind::Ck,
                        pairs: 2,
                        origin: 1,
                        fmin: 0.6,
                        tmax_us: 0,
                    },
                );
                while let Some(t) = sim.next_event_time() {
                    assert!(t <= horizon, "the link never parked");
                    sim.advance_to(t);
                }
            }
            let outputs = sim.take_outputs();
            assert!(outputs.iter().any(|o| matches!(o, LinkOutput::Delivery(_))));
            assert_eq!(sim.ledger.len(), 0, "pairs left in the ledger");
            assert_eq!(sim.mhps.each_ref().map(NodeMhp::in_flight), [0, 0]);
        }
    }

    #[test]
    fn ql2020_keep_slower_than_md() {
        let mut sim = LinkSimulation::new(LinkConfig::ql2020(WorkloadSpec::none(), 19));
        sim.submit(0, md_request(2));
        sim.submit(0, nl_request(1));
        sim.run_for(SimDuration::from_secs(12));
        let md = sim.metrics.kind_total(RequestKind::Md);
        let nl = sim.metrics.kind_total(RequestKind::Nl);
        assert!(md.pairs_delivered >= 1, "MD made progress");
        // NL needs ~16× more cycles per attempt on QL2020; with FCFS it
        // still gets served.
        assert!(nl.pairs_delivered <= md.pairs_delivered + 1);
    }

    #[test]
    fn scheduler_choice_changes_behaviour() {
        let spec = WorkloadSpec::from_pattern(&crate::config::UsagePattern::uniform(), 0.6);
        let run = |sched| {
            let mut sim = LinkSimulation::new(LinkConfig::lab(spec, 23).with_scheduler(sched));
            sim.run_for(SimDuration::from_secs(4));
            sim.metrics.total_pairs()
        };
        // Both run; totals need not match exactly but both make progress.
        assert!(run(SchedulerChoice::Fcfs) > 0);
        assert!(run(SchedulerChoice::HigherWfq) > 0);
    }
}
