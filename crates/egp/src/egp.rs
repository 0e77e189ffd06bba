//! The Entanglement Generation Protocol state machine (Protocol 2).
//!
//! One [`Egp`] instance runs at each controllable node. It is written
//! sans-IO and, like Protocols 1 and 2, by what arrives: [`Egp::step`]
//! takes one [`Input`] — a CREATE, its retraction, a peer frame, an MHP
//! RESULT or the per-cycle tick — and appends what it emits to the
//! caller's buffer: frames, OK/ERR messages, and hardware directives
//! (move-to-memory, discard) for the shared pair states.
//! [`Egp::next_tick`] is the earliest cycle a tick can act at.
//!
//! Responsibilities, following §5.2.5:
//!
//! * validate CREATEs against the FEU (UNSUPP) and memory (MEMEXCEEDED);
//! * place requests in the distributed queue with a `min_time` barrier;
//! * answer the MHP's per-cycle poll using the deterministic scheduler
//!   (identical decisions at both nodes);
//! * process midpoint results: sequence tracking modulo 2¹⁶, OK
//!   delivery, `|Ψ−⟩→|Ψ+⟩` correction, move-to-memory timing, carbon
//!   re-initialization blackouts;
//! * recover from lost control messages via EXPIRE (§E.3.2) and
//!   queue-mismatch reconciliation.

use crate::dqueue::{DistributedQueue, DqpEvent, RejectReason, Role};
use crate::feu::FidelityEstimator;
use crate::qmm::{QuantumMemoryManager, QubitId};
use crate::request::{Request, RequestState, Service};
use crate::scheduler::SchedulerPolicy;
use crate::shared_random::SharedRandomness;
use qlink_phys::mhp::{AttemptKind, AttemptSpec, MhpResult};
use qlink_phys::params::ScenarioParams;
use qlink_quantum::Basis;
use qlink_wire::dqp::QueueItem;
use qlink_wire::egp::{CreateMsg, ExpireAckMsg, ExpireMsg, RetractMsg};
use qlink_wire::fields::{
    seq_after, AbsQueueId, MhpError, MidpointOutcome, ReplyOutcome, RequestType,
};
use qlink_wire::Frame;
use std::collections::BTreeMap;

/// Hardware directives the EGP issues to the node's quantum device —
/// the "pulse sequences" of §5.1, abstracted.
#[derive(Debug, Clone, PartialEq)]
pub enum HwDirective {
    /// Apply the `|Ψ−⟩ → |Ψ+⟩` Z correction to the local half of the
    /// pair heralded in `cycle`.
    CorrectPsiMinus {
        /// Detection window of the pair.
        cycle: u64,
    },
    /// Begin moving the local half of the pair heralded in `cycle`
    /// into the carbon memory (completes after the move duration).
    MoveToMemory {
        /// Detection window of the pair.
        cycle: u64,
        /// Storage qubit allocated for it.
        qubit: QubitId,
    },
    /// Discard the local half of the pair heralded in `cycle`
    /// (sequence-check failure or expiry).
    Discard {
        /// Detection window of the pair.
        cycle: u64,
    },
}

/// Everything the EGP can emit in response to an input.
#[derive(Debug, Clone, PartialEq)]
pub enum EgpEvent {
    /// Transmit a frame to the peer node.
    SendPeer(Frame),
    /// OK for a create-and-keep pair (§4.1.2).
    OkKeep(OkKeepMsg),
    /// OK for a measure-directly pair.
    OkMeasure(OkMeasureMsg),
    /// An error for the higher layer.
    Error(ErrMsg),
    /// A quantum-hardware directive.
    Hw(HwDirective),
}

/// The `OK` for a create-and-keep pair (Fig. 37, §4.1.2). The paper's
/// OK also names the logical qubit, the midpoint sequence number, the
/// purpose ID and the peer; neither OK carries them, since `sim::link`
/// and `net`, the layers above the EGP, read none of them.
#[derive(Debug, Clone, PartialEq)]
pub struct OkKeepMsg {
    /// Echo of the request's create ID.
    pub create_id: u16,
    /// Directionality flag `D`: `true` when this node originated the
    /// request.
    pub origin_is_local: bool,
    /// The MHP cycle whose detection window heralded the pair: its
    /// creation time (§4.1.2 item 5).
    pub herald_cycle: u64,
}

/// The `OK` for a measure-directly pair (Fig. 38).
#[derive(Debug, Clone, PartialEq)]
pub struct OkMeasureMsg {
    /// Echo of the request's create ID.
    pub create_id: u16,
    /// Measurement outcome `M` (0/1).
    pub outcome: u8,
    /// The basis measured in.
    pub basis: Basis,
    /// Directionality flag `D`.
    pub origin_is_local: bool,
    /// The MHP cycle whose detection window heralded the pair.
    pub herald_cycle: u64,
}

/// Error codes carried by `ERR` messages (Fig. 39, §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EgpErrorCode {
    /// The request could not be completed within its time frame.
    Timeout,
    /// The requested fidelity is unachievable within `tmax` — rejected
    /// immediately.
    Unsupported,
    /// Quantum storage permanently too small for an atomic request.
    MemExceeded,
    /// Quantum storage temporarily exhausted.
    OutOfMem,
    /// The remote node refused to participate.
    Denied,
    /// Previously issued OK(s) are revoked (inconsistency recovery).
    Expire,
    /// The distributed queue add timed out (Protocol 2 `ERR_NOTIME`).
    NoTime,
    /// The distributed queue add was rejected (`ERR_REJECTED`).
    Rejected,
}

/// An `ERR` message from the EGP to the higher layer (Fig. 39).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrMsg {
    /// What went wrong.
    pub code: EgpErrorCode,
    /// Create ID of the affected request.
    pub create_id: u16,
    /// Origin node of the affected request.
    pub origin_node_id: u32,
    /// `S` flag: when `true`, only sequence numbers in
    /// `[seq_low, seq_high)` are affected; when `false`, the whole
    /// request is.
    pub range_only: bool,
    /// Start of the affected sequence range (valid when `range_only`).
    pub seq_low: u16,
    /// End (exclusive) of the affected sequence range.
    pub seq_high: u16,
}

/// One input to [`Egp::step`].
#[derive(Debug, Clone)]
pub enum Input {
    /// A CREATE from the higher layer (Protocol 2 step 1), given an ID.
    Create(CreateMsg),
    /// The higher layer no longer wants its CREATE with this ID: the
    /// request leaves both queues (a RETRACT, retransmitted until
    /// acknowledged), echoed by no OK or ERR. Unknown IDs are ignored.
    Expire(u16),
    /// A frame from the peer node.
    PeerFrame(Frame),
    /// A RESULT from the MHP (Protocol 2 step 3).
    MhpResult {
        /// What the MHP reports of one attempt.
        result: MhpResult,
        /// For an M-type attempt, this node's measurement outcome
        /// (from the physical ledger).
        local_bit: Option<u8>,
    },
    /// The MHP's per-cycle poll (Protocol 1 step 1(a) / Protocol 2
    /// step 2): timers fire, then the scheduler may pick an attempt.
    Tick,
}

/// What [`Egp::step`] returns besides the events it appends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Step {
    /// The attempt an [`Input::Tick`] fires this cycle.
    pub attempt: Option<AttemptSpec>,
    /// The create ID an [`Input::Create`] is assigned.
    pub create_id: Option<u16>,
}

/// What varies between EGP instances. Everything else is fixed by the
/// protocol (private constants) or derived from the hardware
/// (`min_time` and the reply timeout, in [`Egp::with_estimator`]).
#[derive(Debug, Clone)]
pub struct EgpConfig {
    /// This node's ID.
    pub node_id: u32,
    /// The peer's ID.
    pub peer_id: u32,
    /// Distributed-queue role (exactly one node is master).
    pub role: Role,
    /// Physical scenario (timings, NV parameters).
    pub scenario: ScenarioParams,
    /// Scheduling policy, WFQ weights included (must match the peer's).
    pub scheduler: SchedulerPolicy,
    /// Pre-shared randomness for the M-type attempts' bases.
    pub shared_random: SharedRandomness,
}

impl EgpConfig {
    /// A node of a link on `scenario`.
    pub fn for_scenario(
        node_id: u32,
        peer_id: u32,
        role: Role,
        scenario: ScenarioParams,
        scheduler: SchedulerPolicy,
    ) -> Self {
        EgpConfig {
            node_id,
            peer_id,
            role,
            scenario,
            scheduler,
            shared_random: SharedRandomness::new(0x51_1b_2a_7e),
        }
    }
}

/// Carbon storage qubits per node: a K-type pair moves to one and is
/// consumed on delivery (§6's workloads).
const STORAGE_QUBITS: usize = 1;
/// Consecutive NO_MESSAGE_OTHER results on one request before
/// concluding the peer has diverged and sending a resync EXPIRE
/// (§E.3.2's "inconsistency detected later" case) — at least; see
/// `Egp::effective_nmo_threshold`.
const NMO_RESYNC_THRESHOLD: u32 = 5;
/// Resync attempts before abandoning the request entirely.
const RESYNC_GIVE_UP: u32 = 3;
/// Cycles a completed request lingers (still reopenable by a resync
/// EXPIRE) before being forgotten.
const COMPLETED_LINGER_CYCLES: u64 = 5_000;

/// A completed move awaiting its OK at `ready_cycle`.
#[derive(Debug, Clone)]
struct PendingMove {
    aid: AbsQueueId,
    seq: u16,
    qubit: QubitId,
    herald_cycle: u64,
    ready_cycle: u64,
}

/// An EXPIRE or RETRACT we sent and must retransmit until its
/// EXPIRE-ACK arrives.
#[derive(Debug, Clone)]
struct PendingExpire {
    frame: Frame,
    queue_id: AbsQueueId,
    next_retransmit: u64,
    retries_left: u8,
}

/// The part of an [`EgpConfig`] an [`Egp`] reads after construction,
/// and the timers derived from it. The hardware profile itself lives
/// behind the FEU handle ([`FidelityEstimator::params`]); both node IDs
/// and the WFQ weights are also handed to the [`DistributedQueue`], the
/// one keeper of the peer's ID.
#[derive(Debug)]
struct Settings {
    node_id: u32,
    /// `min_time` offset: cycles between queue-add and earliest service.
    /// It must exceed the ADD/ACK round trip (§E.1.2): the node-to-node
    /// round trip in whole cycles, plus three.
    min_time_cycles: u64,
    /// Cycles to wait for an EXPIRE-ACK before retransmitting: the
    /// midpoint reply latency in whole cycles, plus ten.
    reply_timeout_cycles: u64,
    scheduler: SchedulerPolicy,
    shared_random: SharedRandomness,
    /// [`ScenarioParams::measure_multiplexing`], read on every tick.
    measure_multiplexing: bool,
    /// Carbon re-init blackout bookkeeping (cycles, derived from NV).
    reinit_period_cycles: u64,
    reinit_duration_cycles: u64,
}

impl Settings {
    /// `true` inside a carbon re-initialization blackout.
    fn in_blackout(&self, cycle: u64) -> bool {
        self.reinit_period_cycles > 0
            && cycle % self.reinit_period_cycles < self.reinit_duration_cycles
    }

    /// The first cycle from `cycle` on outside a blackout.
    fn after_blackout(&self, cycle: u64) -> u64 {
        match self.in_blackout(cycle) {
            true => cycle + self.reinit_duration_cycles - cycle % self.reinit_period_cycles,
            false => cycle,
        }
    }
}

/// The per-node link-layer protocol instance.
#[derive(Debug)]
pub struct Egp {
    cfg: Settings,
    dq: DistributedQueue,
    qmm: QuantumMemoryManager,
    feu: FidelityEstimator,
    next_create_id: u16,
    seq_expected: u16,
    /// Move awaiting completion; the hardware is busy until it is done.
    pending_move: Option<PendingMove>,
    /// EXPIREs and RETRACTs awaiting acknowledgment.
    pending_expires: Vec<PendingExpire>,
    /// Consecutive QUEUE_MISMATCH counts per (our aid, peer aid) pair.
    /// Mismatches for a couple of windows are normal when the two
    /// nodes' replies arrive staggered (unequal arms) around a request
    /// boundary; only persistent mismatch triggers reconciliation.
    qm_counts: BTreeMap<(AbsQueueId, AbsQueueId), u32>,
    move_cycles: u64,
    /// Deterministic K-attempt cadence: both nodes compute the next
    /// permissible K trigger cycle from the *attempt window*, never
    /// from local reply arrival times (which differ when the two arms
    /// to the station are unequal — QL2020 is 10 km vs 15 km).
    keep_cadence_cycles: u64,
    next_keep_cycle: u64,
    /// NMO threshold adjusted for this scenario: a single lost frame
    /// legitimately silences the peer for one reply-timeout window, so
    /// divergence must persist *longer* than that before a resync.
    effective_nmo_threshold: u32,
    /// EXPIREs sent, for robustness reporting.
    expires_sent: u64,
}

impl Egp {
    /// Builds an EGP instance with an FEU of its own.
    pub fn new(cfg: EgpConfig) -> Self {
        let feu = FidelityEstimator::new(cfg.scenario.clone());
        Self::with_estimator(cfg, feu)
    }

    /// Builds an EGP instance over a shared FEU handle — its peer's,
    /// or that of every link on the same hardware — so what one of them
    /// has derived none of them derives again.
    ///
    /// # Panics
    /// Panics if `feu` models other hardware than `cfg.scenario`.
    pub fn with_estimator(cfg: EgpConfig, feu: FidelityEstimator) -> Self {
        assert!(
            *feu.params() == cfg.scenario,
            "the FEU models other hardware than this EGP runs on"
        );
        let scenario = &cfg.scenario;
        let cycle_ps = scenario.mhp_cycle.as_ps();
        let reply_cycles = scenario.reply_latency().as_ps().div_ceil(cycle_ps);
        let rtt_ab = (scenario.arm_a_delay() + scenario.arm_b_delay()).as_ps() * 2;
        let reply_timeout_cycles = reply_cycles + 10;
        let cycle_s = scenario.mhp_cycle.as_secs_f64();
        let reinit_period_cycles = (scenario.nv.carbon_reinit_period_s / cycle_s).round() as u64;
        let reinit_duration_cycles = (scenario.nv.carbon_reinit_duration_s / cycle_s).ceil() as u64;
        let move_cycles = (scenario.nv.move_duration_s / cycle_s).ceil() as u64;
        let keep_cadence_cycles = if scenario.keep_waits_for_reply {
            reply_cycles + 1
        } else {
            1
        };
        let dq = DistributedQueue::new(cfg.role, cfg.node_id, cfg.peer_id, &cfg.scheduler);
        Egp {
            cfg: Settings {
                node_id: cfg.node_id,
                min_time_cycles: rtt_ab.div_ceil(cycle_ps) + 3,
                reply_timeout_cycles,
                measure_multiplexing: scenario.measure_multiplexing,
                shared_random: cfg.shared_random,
                scheduler: cfg.scheduler,
                reinit_period_cycles,
                reinit_duration_cycles,
            },
            dq,
            qmm: QuantumMemoryManager::new(STORAGE_QUBITS),
            feu,
            next_create_id: 0,
            seq_expected: 0,
            pending_move: None,
            pending_expires: Vec::new(),
            qm_counts: BTreeMap::new(),
            move_cycles,
            keep_cadence_cycles,
            next_keep_cycle: 0,
            effective_nmo_threshold: NMO_RESYNC_THRESHOLD
                .max((reply_timeout_cycles / keep_cadence_cycles + 4) as u32),
            expires_sent: 0,
        }
    }

    /// The expected next midpoint sequence number.
    pub fn seq_expected(&self) -> u16 {
        self.seq_expected
    }

    /// Current committed queue length (both kinds of origin): every
    /// request this EGP tracks, lingering completed ones included.
    pub fn queue_len(&self) -> usize {
        self.dq.len()
    }

    /// EXPIREs sent so far (robustness metric of §6.1).
    pub fn expires_sent(&self) -> u64 {
        self.expires_sent
    }

    /// Takes one input at `cycle` and appends what it emits to `out`,
    /// in the order the events must be handled.
    pub fn step(&mut self, input: Input, cycle: u64, out: &mut Vec<EgpEvent>) -> Step {
        // What `next_tick` promises, checked where a simulator relies on
        // it: `cycle < next_tick()`, asked without walking every deadline.
        let idle = cfg!(debug_assertions)
            && matches!(input, Input::Tick)
            && self.all_deadlines(|t| cycle < t);
        let emitted = out.len();
        let mut step = Step::default();
        // Each handler stays out of line: inlined, the cold ones made every tick pay their frame.
        match input {
            Input::Create(msg) => step.create_id = Some(self.on_create(msg, cycle, out)),
            Input::Expire(create_id) => self.on_retract(create_id, cycle, out),
            Input::PeerFrame(frame) => self.on_frame(frame, cycle, out),
            Input::MhpResult { result, local_bit } => {
                self.on_result(&result, local_bit, cycle, out)
            }
            Input::Tick => step.attempt = self.on_tick(cycle, out),
        }
        debug_assert!(
            !idle || (step.attempt.is_none() && out.len() == emitted),
            "a tick at cycle {cycle}, before next_tick, acted"
        );
        step
    }

    #[doc(hidden)] #[rustfmt::skip]
    pub fn create(&mut self, msg: CreateMsg, cycle: u64) -> (u16, Vec<EgpEvent>) { let mut out = Vec::new(); (self.step(Input::Create(msg), cycle, &mut out).create_id.expect("a CREATE is assigned an ID"), out) } // benchmark-compat: ROADMAP item 1 deletes this
    #[doc(hidden)] #[rustfmt::skip]
    pub fn poll(&mut self, cycle: u64) -> (Option<AttemptSpec>, Vec<EgpEvent>) { let mut out = Vec::new(); (self.step(Input::Tick, cycle, &mut out).attempt, out) } // benchmark-compat: ROADMAP item 1 deletes this
    #[doc(hidden)] #[rustfmt::skip]
    pub fn on_peer_frame(&mut self, frame: Frame, cycle: u64) -> Vec<EgpEvent> { let mut out = Vec::new(); self.step(Input::PeerFrame(frame), cycle, &mut out); out } // benchmark-compat: ROADMAP item 1 deletes this

    /// The earliest cycle at which an [`Input::Tick`] can emit, fire an
    /// attempt or change any state: the minimum of the ADD and EXPIRE/RETRACT
    /// retransmit cycles, the move's completion, and per request its linger
    /// end once completed, else its deadline and the first cycle `min_time`,
    /// the K cadence and the carbon blackout let it fire. Every tick before
    /// it is a no-op. `None` when no EXPIRE, RETRACT, move, request or ADD is pending.
    pub fn next_tick(&self) -> Option<u64> {
        let mut next = None;
        self.all_deadlines(|t| {
            next = Some(next.map_or(t, |n: u64| n.min(t)));
            true
        });
        next
    }

    /// `true` if `f` holds for every deadline — one cycle per request and per
    /// timer at which a tick can act on it — asked in turn until one fails.
    fn all_deadlines(&self, mut f: impl FnMut(u64) -> bool) -> bool {
        // An EGP holding nothing, the common case, is settled without a walk.
        if self.dq.is_empty() && self.pending_expires.is_empty() && self.pending_move.is_none() {
            return self.dq.next_tick().is_none_or(f);
        }
        let mut slot = None;
        let mut deadline = |r: &Request| match r.service.completed_cycle {
            Some(c) => c.saturating_add(COMPLETED_LINGER_CYCLES),
            None => u64::min(r.item.timeout_cycle, self.first_fire_cycle(r, &mut slot)),
        };
        let expires = self.pending_expires.iter().map(|p| p.next_retransmit);
        let moved = self.pending_move.iter().map(|m| m.ready_cycle);
        self.dq.iter().all(|r| f(deadline(r)))
            && expires.chain(moved).chain(self.dq.next_tick()).all(f)
    }

    /// Protocol 2 step 1: validates and queues the CREATE; its create ID.
    #[inline(never)]
    fn on_create(&mut self, msg: CreateMsg, cycle: u64, out: &mut Vec<EgpEvent>) -> u16 {
        let create_id = self.next_create_id;
        self.next_create_id = self.next_create_id.wrapping_add(1);
        match self.admit(&msg, create_id, cycle) {
            Ok((item, service)) => {
                let dq_events = self.dq.add(item, service, cycle);
                self.process_dq_events(dq_events, cycle, out);
            }
            Err(code) => out.push(self.err(create_id, code)),
        }
        create_id
    }

    /// The queue item and service state of a CREATE, or why it is refused.
    fn admit(
        &mut self,
        msg: &CreateMsg,
        create_id: u16,
        cycle: u64,
    ) -> Result<(QueueItem, Service), EgpErrorCode> {
        let rtype = msg.flags.request_type();
        // Atomic requests must fit the device (§4.1.2 MEMEXCEEDED).
        if rtype == RequestType::Keep && msg.flags.atomic && !self.qmm.can_ever_store(msg.number) {
            return Err(EgpErrorCode::MemExceeded);
        }
        // FEU: α and feasibility (UNSUPP).
        let fmin = msg.min_fidelity.to_f64();
        let choice = self
            .feu
            .choose_alpha(fmin, rtype)
            .ok_or(EgpErrorCode::Unsupported)?;
        let cycle_us = self.feu.params().mhp_cycle.as_micros_f64();
        let tmax_cycles = if msg.max_time_us == 0 {
            u64::MAX
        } else {
            (msg.max_time_us as f64 / cycle_us).floor() as u64
        };
        if self.feu.estimate_completion_cycles(&choice, msg.number) > tmax_cycles {
            return Err(EgpErrorCode::Unsupported);
        }
        // The master assigns the queue ID and the virtual finish.
        let item = QueueItem {
            queue_id: AbsQueueId::new(0, 0),
            schedule_cycle: cycle + self.cfg.min_time_cycles,
            timeout_cycle: cycle.saturating_add(tmax_cycles),
            min_fidelity: msg.min_fidelity,
            purpose_id: msg.purpose_id,
            create_id,
            num_pairs: msg.number,
            priority: msg.priority,
            initial_virtual_finish: 0.0,
            est_cycles_per_pair: choice.est_cycles_per_pair.min(u32::MAX as u64) as u32,
            flags: msg.flags,
        };
        Ok((item, Service::new(choice.alpha)))
    }

    /// [`Input::Expire`]: neither node spends further attempt cycles on
    /// the request.
    #[inline(never)]
    fn on_retract(&mut self, create_id: u16, cycle: u64, out: &mut Vec<EgpEvent>) {
        // ADD still in flight: if the master commits the item anyway,
        // it is retracted when the ACK arrives (`DqpEvent::Retracted`).
        if self.dq.retract_pending(create_id) {
            return;
        }
        let ours = self.dq.iter().find(|r| {
            r.origin == self.cfg.node_id
                && r.item.create_id == create_id
                && r.service.completed_cycle.is_none()
        });
        let Some(aid) = ours.map(|r| r.item.queue_id) else {
            return;
        };
        // In-flight MHP results for it resolve through the
        // unknown-request path, which frees hardware and resyncs
        // sequence numbers.
        self.dq.remove(aid);
        out.push(self.send_retract(aid, create_id, cycle));
    }

    /// Builds, registers for retransmission, and returns the RETRACT
    /// for `aid`.
    fn send_retract(&mut self, aid: AbsQueueId, create_id: u16, cycle: u64) -> EgpEvent {
        let msg = RetractMsg {
            queue_id: aid,
            origin_id: self.cfg.node_id,
            create_id,
        };
        self.await_expire_ack(Frame::Retract(msg), aid, 10, cycle)
    }

    /// Registers an EXPIRE or RETRACT about `queue_id` for
    /// retransmission until acknowledged, and returns its first send.
    fn await_expire_ack(
        &mut self,
        frame: Frame,
        queue_id: AbsQueueId,
        retries_left: u8,
        cycle: u64,
    ) -> EgpEvent {
        // EXPIREs ahead of RETRACTs, each kind in the order sent: what
        // falls due in one cycle reaches the channel RNG in this order.
        let is_retract = |f: &Frame| matches!(f, Frame::Retract(_));
        let at = if is_retract(&frame) {
            self.pending_expires.len()
        } else {
            self.pending_expires
                .partition_point(|p| !is_retract(&p.frame))
        };
        let pending = PendingExpire {
            frame: frame.clone(),
            queue_id,
            next_retransmit: cycle + self.cfg.reply_timeout_cycles,
            retries_left,
        };
        self.pending_expires.insert(at, pending);
        EgpEvent::SendPeer(frame)
    }

    /// Handles a frame arriving from the peer node.
    #[inline(never)]
    fn on_frame(&mut self, frame: Frame, cycle: u64, out: &mut Vec<EgpEvent>) {
        match frame {
            Frame::Dqp(msg) => {
                let (feu, item) = (&mut self.feu, msg.item);
                let service = || peer_service(feu, &item);
                let dq_events = self.dq.on_frame(msg, service, cycle);
                self.process_dq_events(dq_events, cycle, out);
            }
            Frame::Expire(msg) => self.on_expire(msg, out),
            Frame::Retract(msg) => {
                // The originator abandoned the request: forget it and
                // acknowledge (the ack doubles as a sequence resync,
                // like an EXPIRE ack).
                self.dq.remove(msg.queue_id);
                out.push(self.expire_ack(msg.queue_id));
            }
            Frame::ExpireAck(msg) => {
                self.pending_expires.retain(|p| p.queue_id != msg.queue_id);
                // The acknowledger reports its up-to-date expectation;
                // adopt it if ahead (stops stale-sequence discards).
                if seq_after(msg.seq_expected, self.seq_expected) {
                    self.seq_expected = msg.seq_expected;
                }
            }
            other => debug_assert!(false, "unexpected peer frame {}", other.kind()),
        }
    }

    /// The MHP's per-cycle poll (Protocol 1 step 1(a) / Protocol 2 step 2):
    /// retransmissions, timeouts, move completion, then maybe an attempt.
    #[inline(never)]
    fn on_tick(&mut self, cycle: u64, out: &mut Vec<EgpEvent>) -> Option<AttemptSpec> {
        let dq_events = self.dq.tick(cycle);
        self.process_dq_events(dq_events, cycle, out);
        self.retransmit_expires(cycle, out);
        self.purge_timed_out(cycle, out);
        self.finish_move_if_ready(cycle, out);

        // Hardware availability: a move in progress blocks the device.
        if self.pending_move.is_some() {
            return None;
        }

        // Scheduler: pick among ready requests (identical at both nodes:
        // all inputs are synchronized queue fields), streamed straight
        // into the policy — every cycle, so nothing is allocated.
        let ready = self.dq.iter().filter(|r| r.is_ready(cycle));
        let aid = self.cfg.scheduler.select(ready.map(|r| &r.item))?;
        let req = self.dq.get_mut(aid).expect("selected from ready set");
        let rtype = req.request_type();
        let paced = rtype == RequestType::Keep || !self.cfg.measure_multiplexing;

        // Deterministic K-attempt cadence: both nodes may only fire the
        // next K attempt at the agreed cycle (§4.4's "expected cycles per
        // attempt" E, and §5.2.4's determinism demand). Without emission
        // multiplexing (ablation, §5.2/[98]), M-type attempts pace alike.
        if paced && cycle < self.next_keep_cycle {
            return None;
        }
        // K service pauses in the carbon re-init blackout (§4.4: 330 µs
        // every 3500 µs) and needs the communication qubit plus storage
        // here; no node advertises its memory, so the peer's storage is
        // not checked (§4.5 flow control, DESIGN.md). A busy qubit at
        // cadence time means a lost/late reply: skip the slot (the peer
        // sees NO_MESSAGE_OTHER).
        if rtype == RequestType::Keep
            && (self.cfg.in_blackout(cycle)
                || !self.qmm.comm_free()
                || self.qmm.free_storage() == 0)
        {
            return None;
        }

        // The basis string is indexed by the shared cycle number so
        // both nodes agree without communication.
        let kind = match rtype {
            RequestType::Keep => AttemptKind::Keep,
            RequestType::Measure => AttemptKind::Measure {
                basis: self.cfg.shared_random.basis(aid, cycle),
            },
        };
        req.service.state = RequestState::InService;
        let spec = AttemptSpec {
            queue_id: aid,
            alpha: req.service.alpha,
            kind,
            test_round: false,
        };
        if paced {
            // The attempt occupies the slot for one cadence period. The
            // next slot is aligned to a global grid (multiples of the
            // cadence) so that after any local hiccup — a reply timeout,
            // a lost frame — both nodes re-lock onto it.
            self.next_keep_cycle = self.grid_align(cycle + 1);
        }
        if matches!(kind, AttemptKind::Keep) {
            self.qmm.reserve_comm();
        }
        Some(spec)
    }

    /// Processes a RESULT from the MHP (Protocol 2 step 3).
    #[inline(never)]
    fn on_result(
        &mut self,
        result: &MhpResult,
        local_bit: Option<u8>,
        cycle: u64,
        out: &mut Vec<EgpEvent>,
    ) {
        match result.outcome() {
            ReplyOutcome::Attempt(success) if success.is_success() => {
                self.both_attempted(result.spec.queue_id);
                self.handle_success(success, result, local_bit, cycle, out);
            }
            outcome => {
                // No pair: a K attempt's communication qubit frees.
                if matches!(result.spec.kind, AttemptKind::Keep) {
                    self.qmm.release_comm();
                }
                match outcome {
                    ReplyOutcome::Error(err) => self.handle_mhp_error(err, result, cycle, out),
                    // Step 3(c)(ii): failed attempt, nothing more to do.
                    ReplyOutcome::Attempt(_) => self.both_attempted(result.spec.queue_id),
                }
            }
        }
    }

    // ----- internals ---------------------------------------------------

    /// The first cycle the gates of a tick that depend on the cycle alone —
    /// `min_time`, the K cadence, the carbon blackout — let `r` fire. K
    /// requests past `min_time` share one cadence slot; `slot` keeps it.
    fn first_fire_cycle(&self, r: &Request, slot: &mut Option<u64>) -> u64 {
        let (at, cadence) = (r.item.schedule_cycle, self.next_keep_cycle);
        match r.request_type() {
            RequestType::Keep if at <= cadence => {
                *slot.get_or_insert_with(|| self.cfg.after_blackout(cadence))
            }
            RequestType::Keep => self.cfg.after_blackout(at),
            RequestType::Measure if self.cfg.measure_multiplexing => at,
            RequestType::Measure => at.max(cadence),
        }
    }

    /// Both sides attempted `aid`: clear the divergence counters.
    fn both_attempted(&mut self, aid: AbsQueueId) {
        if let Some(req) = self.dq.get_mut(aid) {
            (req.service.nmo_count, req.service.resyncs) = (0, 0);
        }
        self.qm_counts.clear();
    }

    /// Frees a K attempt's communication qubit; discards `result`'s pair.
    fn drop_pair(&mut self, result: &MhpResult, events: &mut Vec<EgpEvent>) {
        if matches!(result.spec.kind, AttemptKind::Keep) {
            self.qmm.release_comm();
        }
        events.push(EgpEvent::Hw(HwDirective::Discard {
            cycle: result.cycle,
        }));
    }

    fn handle_mhp_error(
        &mut self,
        err: MhpError,
        result: &MhpResult,
        cycle: u64,
        events: &mut Vec<EgpEvent>,
    ) {
        let Some(reply) = &result.reply else {
            return; // local GEN_FAIL: nothing else to do
        };
        // Step 3(c)(i): resynchronise the expected sequence number.
        if seq_after(reply.mhp_seq, self.seq_expected) {
            self.seq_expected = reply.mhp_seq;
        }
        match err {
            MhpError::QueueMismatch => {
                if let Some(peer_aid) = reply.peer_qid {
                    self.reconcile_queue_mismatch(result.spec.queue_id, peer_aid, events);
                }
            }
            MhpError::NoMessageOther => {
                // The peer did not attempt this window. Occasional
                // losses cause this too, so only persistent repetition
                // counts as divergence (§E.3.2: "inconsistency detected
                // later, e.g. when the remote node never received an OK
                // for this pair").
                let aid = result.spec.queue_id;
                let Some(req) = self.dq.get_mut(aid) else {
                    return;
                };
                req.service.nmo_count += 1;
                if req.service.nmo_count >= self.effective_nmo_threshold {
                    req.service.nmo_count = 0;
                    req.service.resyncs += 1;
                    if req.service.resyncs > RESYNC_GIVE_UP {
                        // The peer has forgotten the request entirely;
                        // abandon it and tell the higher layer.
                        events.push(request_err(req, EgpErrorCode::Expire, None));
                        self.dq.remove(aid);
                        return;
                    }
                    // Resync EXPIRE: an empty sequence range carries our
                    // pairs-done count in `seq_low`; the peer rolls its
                    // progress back to the minimum of the two.
                    let expire = ExpireMsg {
                        queue_id: aid,
                        origin_id: req.origin,
                        create_id: req.item.create_id,
                        seq_low: req.service.pairs_done,
                        seq_high: req.service.pairs_done,
                    };
                    self.expires_sent += 1;
                    events.push(self.await_expire_ack(Frame::Expire(expire), aid, 3, cycle));
                }
            }
            MhpError::TimeMismatch | MhpError::GenFail => {}
        }
    }

    /// Queue-mismatch reconciliation: if the peer is serving an
    /// *earlier* item that we consider further along (we issued OKs the
    /// peer never saw the replies for), revoke our most recent OK for
    /// it and step back — convergence within a bounded number of
    /// mismatched windows (§E.3.2's "EXPIRE for an OK already issued").
    fn reconcile_queue_mismatch(
        &mut self,
        ours: AbsQueueId,
        theirs: AbsQueueId,
        events: &mut Vec<EgpEvent>,
    ) {
        if theirs == ours {
            return;
        }
        // Transient mismatches around request boundaries are expected
        // when the two arms have different reply latencies; only a
        // *persistent* mismatch is a real divergence.
        let count = self.qm_counts.entry((ours, theirs)).or_insert(0);
        *count += 1;
        if *count < 6 {
            return;
        }
        *count = 0;
        let peer_is_earlier = (theirs.qid, theirs.qseq) < (ours.qid, ours.qseq);
        if !peer_is_earlier {
            return; // we are behind; the peer will reconcile
        }
        let Some(req) = self.dq.get_mut(theirs) else {
            return;
        };
        if req.service.pairs_done == 0 {
            return;
        }
        req.reopen(req.service.pairs_done - 1);
        let last_seq = req.service.issued_seqs.pop_back().unwrap_or(0);
        let revoked = (last_seq, last_seq.wrapping_add(1));
        events.push(request_err(req, EgpErrorCode::Expire, Some(revoked)));
    }

    fn handle_success(
        &mut self,
        success: MidpointOutcome,
        result: &MhpResult,
        local_bit: Option<u8>,
        cycle: u64,
        events: &mut Vec<EgpEvent>,
    ) {
        let reply = result.reply.as_ref().expect("success implies a reply");
        let seq = reply.mhp_seq;
        let aid = result.spec.queue_id;

        // Step 3(b): unknown request (timed out / completed): free
        // resources, resync, discard the pair.
        let Some(req) = self.dq.get_mut(aid) else {
            self.seq_expected = seq.wrapping_add(1);
            self.drop_pair(result, events);
            return;
        };

        // Step 3(c)(iii): sequence processing.
        if seq == self.seq_expected {
            self.seq_expected = self.seq_expected.wrapping_add(1);
        } else if seq_after(seq, self.seq_expected) {
            // Missed successes: issue EXPIRE, discard this pair too.
            let missed = (self.seq_expected, seq.wrapping_add(1));
            let expire = ExpireMsg {
                queue_id: aid,
                origin_id: req.origin,
                create_id: req.item.create_id,
                seq_low: missed.0,
                seq_high: missed.1,
            };
            let err = request_err(req, EgpErrorCode::Expire, Some(missed));
            self.expires_sent += 1;
            events.push(self.await_expire_ack(Frame::Expire(expire), aid, 10, cycle));
            events.push(err);
            self.drop_pair(result, events);
            self.seq_expected = seq.wrapping_add(1);
            return;
        } else {
            // Stale (already expired) — ignore.
            self.drop_pair(result, events);
            return;
        }

        // A completed (lingering) request can still receive heralds
        // from attempts that were in flight when it finished (emission
        // multiplexing); they are surplus — discard the pairs.
        if req.is_complete() {
            self.drop_pair(result, events);
            return;
        }

        match result.spec.kind {
            AttemptKind::Measure { basis } => {
                let ok = OkMeasureMsg {
                    create_id: req.item.create_id,
                    outcome: local_bit.unwrap_or(0),
                    basis,
                    origin_is_local: req.origin == self.cfg.node_id,
                    // The pair was created in the attempt's detection
                    // window, not when the reply was processed (§4.1.2
                    // item 5).
                    herald_cycle: result.cycle,
                };
                req.deliver(seq, EgpEvent::OkMeasure(ok), cycle, events);
            }
            AttemptKind::Keep => {
                // Step 3(c)(iv): correction to |Ψ+⟩ by the originator.
                if success == MidpointOutcome::PsiMinus && req.origin == self.cfg.node_id {
                    events.push(EgpEvent::Hw(HwDirective::CorrectPsiMinus {
                        cycle: result.cycle,
                    }));
                }
                let qubit = self
                    .qmm
                    .alloc_storage()
                    .expect("the tick checked storage before the attempt");
                // The next K attempt may start once *both* nodes have
                // finished their moves; anchor the cadence to the
                // attempt window (shared) rather than to this node's
                // reply-processing time (which differs on unequal
                // arms), and grid-align so the nodes re-lock.
                self.next_keep_cycle = self.next_keep_cycle.max(
                    self.grid_align(result.cycle + self.keep_cadence_cycles + self.move_cycles),
                );
                self.pending_move = Some(PendingMove {
                    aid,
                    seq,
                    qubit,
                    herald_cycle: result.cycle,
                    ready_cycle: cycle + self.move_cycles,
                });
                events.push(EgpEvent::Hw(HwDirective::MoveToMemory {
                    cycle: result.cycle,
                    qubit,
                }));
                // The communication qubit frees once the state moved.
                self.qmm.release_comm();
            }
        }
    }

    fn finish_move_if_ready(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        let Some(pm) = self.pending_move.take_if(|pm| cycle >= pm.ready_cycle) else {
            return;
        };
        let Some(req) = self.dq.get_mut(pm.aid) else {
            // Request vanished (timed out) while the move ran.
            self.qmm.release_storage(pm.qubit);
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: pm.herald_cycle,
            }));
            return;
        };
        let ok = OkKeepMsg {
            create_id: req.item.create_id,
            origin_is_local: req.origin == self.cfg.node_id,
            herald_cycle: pm.herald_cycle,
        };
        req.deliver(pm.seq, EgpEvent::OkKeep(ok), cycle, events);
        // The workloads of §6 consume pairs on delivery; the storage
        // qubit frees for the next pair (a CK application holding pairs
        // would instead release through the QMM explicitly).
        self.qmm.release_storage(pm.qubit);
    }

    fn purge_timed_out(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        let linger = COMPLETED_LINGER_CYCLES;
        // Completed requests are forgotten once their linger period
        // passed; incomplete ones time out at their deadline.
        let lingered = |r: &Request| {
            r.service
                .completed_cycle
                .is_some_and(|c| cycle >= c.saturating_add(linger))
        };
        let timed_out = |r: &Request| cycle >= r.item.timeout_cycle && !r.is_complete();
        let due = |r: &Request| lingered(r) || timed_out(r);
        // Runs every MHP cycle, and on almost every one nothing is due:
        // one read-only scan settles that without allocating.
        if !self.dq.iter().any(due) {
            return;
        }
        // In queue order (the ERRs below reach the channel RNG and the
        // network layer's re-route order).
        let due: Vec<AbsQueueId> = self
            .dq
            .iter()
            .filter(|r| due(r))
            .map(|r| r.item.queue_id)
            .collect();
        for aid in due {
            let req = self.dq.remove(aid).expect("collected");
            if timed_out(&req) && req.origin == self.cfg.node_id {
                events.push(request_err(&req, EgpErrorCode::Timeout, None));
            }
        }
    }

    fn retransmit_expires(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        for p in &mut self.pending_expires {
            if p.next_retransmit <= cycle && p.retries_left > 0 {
                p.retries_left -= 1;
                p.next_retransmit = cycle + self.cfg.reply_timeout_cycles;
                events.push(EgpEvent::SendPeer(p.frame.clone()));
            }
        }
        self.pending_expires.retain(|p| p.retries_left > 0);
    }

    fn on_expire(&mut self, msg: ExpireMsg, events: &mut Vec<EgpEvent>) {
        if msg.seq_low == msg.seq_high {
            // Resync form (empty range): the peer's `seq_low` carries its
            // pairs-done count; roll our progress back to match so both
            // sides regenerate the pairs the peer never confirmed.
            if let Some(req) = self.dq.get_mut(msg.queue_id) {
                let target = msg.seq_low;
                if req.service.pairs_done > target {
                    let revoked = req.service.pairs_done - target;
                    req.reopen(target);
                    events.push(request_err(req, EgpErrorCode::Expire, Some((0, revoked))));
                    req.service.issued_seqs.clear();
                }
            }
        } else {
            // Fast-forward our own expectation if the peer is ahead.
            if seq_after(msg.seq_high, self.seq_expected) {
                self.seq_expected = msg.seq_high;
            }
            // Revoke any OKs we issued in [seq_low, seq_high).
            if let Some(req) = self.dq.get_mut(msg.queue_id) {
                let issued = &mut req.service.issued_seqs;
                let in_range = |s: u16| seq_in_range(s, msg.seq_low, msg.seq_high);
                let revoked = issued.iter().filter(|s| in_range(**s)).count() as u16;
                issued.retain(|s| !in_range(*s));
                if revoked > 0 {
                    req.reopen(req.service.pairs_done.saturating_sub(revoked));
                    let range = Some((msg.seq_low, msg.seq_high));
                    events.push(request_err(req, EgpErrorCode::Expire, range));
                }
            }
        }
        events.push(self.expire_ack(msg.queue_id));
    }

    /// The EXPIRE-ACK for `queue_id`, carrying our sequence expectation.
    fn expire_ack(&self, queue_id: AbsQueueId) -> EgpEvent {
        EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
            queue_id,
            seq_expected: self.seq_expected,
        }))
    }

    /// Rounds a cycle up to the next multiple of the K cadence — the
    /// shared trigger grid both nodes pace K attempts on.
    fn grid_align(&self, cycle: u64) -> u64 {
        cycle.div_ceil(self.keep_cadence_cycles) * self.keep_cadence_cycles
    }

    fn process_dq_events(&mut self, dq_events: Vec<DqpEvent>, cycle: u64, out: &mut Vec<EgpEvent>) {
        for ev in dq_events {
            match ev {
                DqpEvent::Send(msg) => out.push(EgpEvent::SendPeer(Frame::Dqp(msg))),
                // The queue's table is the request table: a completed
                // add leaves nothing to mirror.
                DqpEvent::AddSucceeded { .. } => {}
                DqpEvent::Retracted { create_id, aid } => {
                    out.push(self.send_retract(aid, create_id, cycle))
                }
                DqpEvent::AddRejected { create_id, reason } => {
                    let code = match reason {
                        RejectReason::QueueFull => EgpErrorCode::OutOfMem,
                        RejectReason::Denied => EgpErrorCode::Denied,
                    };
                    out.push(self.err(create_id, code));
                }
                DqpEvent::AddTimedOut { create_id } => {
                    out.push(self.err(create_id, EgpErrorCode::NoTime))
                }
            }
        }
    }

    /// An ERR ending this node's CREATE `create_id`.
    fn err(&self, create_id: u16, code: EgpErrorCode) -> EgpEvent {
        EgpEvent::Error(ErrMsg {
            code,
            create_id,
            origin_node_id: self.cfg.node_id,
            range_only: false,
            seq_low: 0,
            seq_high: 0,
        })
    }
}

/// An ERR about `req` for its origin's higher layer: with a range
/// `[seq_low, seq_high)` it revokes the OKs of those pairs, without one
/// it ends the request.
fn request_err(req: &Request, code: EgpErrorCode, range: Option<(u16, u16)>) -> EgpEvent {
    let (seq_low, seq_high) = range.unwrap_or_default();
    EgpEvent::Error(ErrMsg {
        code,
        create_id: req.item.create_id,
        origin_node_id: req.origin,
        range_only: range.is_some(),
        seq_low,
        seq_high,
    })
}

/// The service state `item`, arriving in the peer's ADD, is committed
/// with: α must match the peer's choice — both FEUs run the same
/// deterministic inversion on the same Fmin, so they agree.
fn peer_service(feu: &mut FidelityEstimator, item: &QueueItem) -> Service {
    let fmin = item.min_fidelity.to_f64();
    let alpha = match feu.choose_alpha(fmin, item.flags.request_type()) {
        Some(c) => c.alpha,
        None => feu.alpha_min(),
    };
    Service::new(alpha)
}

/// Wrap-aware membership test for half-open `[lo, hi)` over `u16`.
fn seq_in_range(s: u16, lo: u16, hi: u16) -> bool {
    s.wrapping_sub(lo) < hi.wrapping_sub(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_des::DetRng;
    use qlink_phys::attempt::AttemptModel;
    use qlink_phys::mhp::{Midpoint, NodeMhp};
    use qlink_phys::params::ScenarioParams;
    use qlink_quantum::bell::BellState;
    use qlink_wire::fields::{Fidelity16, RequestFlags};

    const A: u32 = 1;
    const B: u32 = 2;

    fn lab_pair(scheduler: SchedulerPolicy) -> (Egp, Egp) {
        let scenario = ScenarioParams::lab();
        let a = Egp::new(EgpConfig::for_scenario(
            A,
            B,
            Role::Master,
            scenario.clone(),
            scheduler.clone(),
        ));
        let b = Egp::new(EgpConfig::for_scenario(
            B,
            A,
            Role::Slave,
            scenario,
            scheduler,
        ));
        (a, b)
    }

    fn create_msg(n: u16, keep: bool, priority: u8) -> CreateMsg {
        CreateMsg {
            remote_node_id: B,
            min_fidelity: Fidelity16::from_f64(0.6),
            max_time_us: 0,
            purpose_id: 7,
            number: n,
            priority,
            flags: RequestFlags {
                store: keep,
                measure_directly: !keep,
                consecutive: true,
                ..Default::default()
            },
        }
    }

    /// Steps `egp` with a CREATE: its create ID and what it emitted.
    fn submit(egp: &mut Egp, msg: CreateMsg, cycle: u64) -> (u16, Vec<EgpEvent>) {
        let mut out = Vec::new();
        let step = egp.step(Input::Create(msg), cycle, &mut out);
        (step.create_id.expect("a CREATE is assigned an ID"), out)
    }

    /// Ticks `egp`: the attempt it fires and what it emitted.
    fn tick(egp: &mut Egp, cycle: u64) -> (Option<AttemptSpec>, Vec<EgpEvent>) {
        let mut out = Vec::new();
        (egp.step(Input::Tick, cycle, &mut out).attempt, out)
    }

    /// Steps `egp` with `input`: what it emitted.
    fn input(egp: &mut Egp, input: Input, cycle: u64) -> Vec<EgpEvent> {
        let mut out = Vec::new();
        egp.step(input, cycle, &mut out);
        out
    }

    /// Ticks `egp`, holding `next_tick` to its word: it is `None` exactly
    /// when nothing is pending — no EXPIRE or RETRACT, no move, no request
    /// and no ADD — and a tick before it changes no state and emits
    /// nothing.
    fn checked_tick(egp: &mut Egp, cycle: u64) -> (Option<AttemptSpec>, Vec<EgpEvent>) {
        let next = egp.next_tick();
        let nothing_pending = egp.pending_expires.is_empty()
            && egp.pending_move.is_none()
            && egp.dq.is_empty()
            && egp.dq.next_tick().is_none();
        assert_eq!(next.is_none(), nothing_pending, "cycle {cycle}");
        if next.is_some_and(|t| cycle >= t) {
            return tick(egp, cycle);
        }
        let before = format!("{egp:?}");
        let (attempt, events) = tick(egp, cycle);
        assert!(
            attempt.is_none() && events.is_empty(),
            "cycle {cycle}, next tick {next:?}: fired {attempt:?}, emitted {events:?}"
        );
        assert_eq!(
            before,
            format!("{egp:?}"),
            "cycle {cycle}, next tick {next:?}"
        );
        (attempt, events)
    }

    /// An attempt model that never heralds.
    fn dead_model() -> AttemptModel {
        AttemptModel::synthetic(
            0.0,
            0.0,
            BellState::PsiPlus.state(),
            BellState::PsiMinus.state(),
            0.2,
        )
    }

    /// Minimal in-test harness: perfect channels, zero latency, a hot
    /// synthetic attempt model. Drives both EGPs + MHPs + midpoint one
    /// cycle at a time.
    struct Harness {
        egp_a: Egp,
        egp_b: Egp,
        mhp_a: NodeMhp,
        mhp_b: NodeMhp,
        midpoint: Midpoint,
        model: AttemptModel,
        rng: DetRng,
        oks_a: Vec<EgpEvent>,
        oks_b: Vec<EgpEvent>,
        errors_a: Vec<ErrMsg>,
        /// Drop REPLY frames heading to A for these cycles (loss test).
        drop_reply_a_cycles: Vec<u64>,
        /// Hand A its REPLY for these cycles after B's (A on the longer
        /// arm), so A's reaction to it finds B already done with its own.
        late_reply_a_cycles: Vec<u64>,
        errors_b: Vec<ErrMsg>,
        /// Each frame between the EGPs is lost with this probability.
        frame_loss: f64,
        loss_rng: DetRng,
        /// Tick through [`checked_tick`].
        check_ticks: bool,
    }

    impl Harness {
        fn new(scheduler: SchedulerPolicy) -> Self {
            let (egp_a, egp_b) = lab_pair(scheduler);
            Harness {
                egp_a,
                egp_b,
                mhp_a: NodeMhp::new(A),
                mhp_b: NodeMhp::new(B),
                midpoint: Midpoint::new(A, B),
                model: AttemptModel::synthetic(
                    0.3,
                    0.3,
                    BellState::PsiPlus.state(),
                    BellState::PsiMinus.state(),
                    0.2,
                ),
                rng: DetRng::new(99),
                oks_a: Vec::new(),
                oks_b: Vec::new(),
                errors_a: Vec::new(),
                drop_reply_a_cycles: Vec::new(),
                late_reply_a_cycles: Vec::new(),
                errors_b: Vec::new(),
                frame_loss: 0.0,
                loss_rng: DetRng::new(7),
                check_ticks: false,
            }
        }

        fn dispatch(&mut self, from_a: Vec<EgpEvent>, from_b: Vec<EgpEvent>, cycle: u64) {
            let mut queue_a = from_a;
            let mut queue_b = from_b;
            // Settle classical exchanges instantly (Lab latency ≪ cycle).
            while !queue_a.is_empty() || !queue_b.is_empty() {
                let mut next_a = Vec::new();
                let mut next_b = Vec::new();
                let (loss, rng) = (self.frame_loss, &mut self.loss_rng);
                let mut lost = || loss > 0.0 && rng.bernoulli(loss);
                for ev in queue_a.drain(..) {
                    match ev {
                        EgpEvent::SendPeer(_) if lost() => {}
                        EgpEvent::SendPeer(f) => {
                            next_b.extend(input(&mut self.egp_b, Input::PeerFrame(f), cycle))
                        }
                        EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_) => self.oks_a.push(ev),
                        EgpEvent::Error(e) => self.errors_a.push(e),
                        EgpEvent::Hw(_) => {}
                    }
                }
                for ev in queue_b.drain(..) {
                    match ev {
                        EgpEvent::SendPeer(_) if lost() => {}
                        EgpEvent::SendPeer(f) => {
                            next_a.extend(input(&mut self.egp_a, Input::PeerFrame(f), cycle))
                        }
                        EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_) => self.oks_b.push(ev),
                        EgpEvent::Error(e) => self.errors_b.push(e),
                        EgpEvent::Hw(_) => {}
                    }
                }
                queue_a = next_a;
                queue_b = next_b;
            }
        }

        fn step(&mut self, cycle: u64) {
            let tick = if self.check_ticks { checked_tick } else { tick };
            let (spec_a, evs_a) = tick(&mut self.egp_a, cycle);
            let (spec_b, evs_b) = tick(&mut self.egp_b, cycle);
            self.dispatch(evs_a, evs_b, cycle);
            if let Some(spec) = spec_a {
                let act = self.mhp_a.trigger(cycle, spec);
                self.midpoint.on_photon(act.photon);
                self.midpoint.on_gen(A, act.gen);
            }
            if let Some(spec) = spec_b {
                let act = self.mhp_b.trigger(cycle, spec);
                self.midpoint.on_photon(act.photon);
                self.midpoint.on_gen(B, act.gen);
            }
            let eval = self
                .midpoint
                .evaluate_window(cycle, &self.model, &mut self.rng);
            let bits = eval.herald.as_ref().and_then(|h| h.measured_bits);
            let mut replies = eval.replies;
            if self.late_reply_a_cycles.contains(&cycle) {
                replies.reverse();
            }
            for (node, reply) in replies.into_iter().flatten() {
                if node == A && self.drop_reply_a_cycles.contains(&reply.timestamp_cycle) {
                    // Reply lost; node-side timeout cleans up later.
                    if let Some(res) = self.mhp_a.on_reply_timeout(reply.timestamp_cycle) {
                        let result = Input::MhpResult {
                            result: res,
                            local_bit: None,
                        };
                        let evs = input(&mut self.egp_a, result, cycle);
                        self.dispatch(evs, vec![], cycle);
                    }
                    continue;
                }
                let (mhp, egp, bit, is_a) = if node == A {
                    (&mut self.mhp_a, &mut self.egp_a, bits.map(|b| b.0), true)
                } else {
                    (&mut self.mhp_b, &mut self.egp_b, bits.map(|b| b.1), false)
                };
                if let Some(res) = mhp.on_reply(reply) {
                    let result = Input::MhpResult {
                        result: res,
                        local_bit: bit,
                    };
                    let evs = input(egp, result, cycle);
                    if is_a {
                        self.dispatch(evs, vec![], cycle);
                    } else {
                        self.dispatch(vec![], evs, cycle);
                    }
                }
            }
        }

        fn run(&mut self, cycles: u64) {
            for c in 0..cycles {
                self.step(c);
            }
        }

        fn count_oks(&self, at_a: bool) -> usize {
            let v = if at_a { &self.oks_a } else { &self.oks_b };
            v.iter()
                .filter(|e| matches!(e, EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_)))
                .count()
        }
    }

    #[test]
    fn measure_request_end_to_end() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = submit(&mut h.egp_a, create_msg(3, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        h.run(400);
        assert_eq!(h.count_oks(true), 3, "A should deliver 3 OKs");
        assert_eq!(h.count_oks(false), 3, "B should deliver 3 OKs too");
    }

    #[test]
    fn keep_request_end_to_end() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = submit(&mut h.egp_a, create_msg(2, true, 1), 0);
        h.dispatch(evs, vec![], 0);
        h.run(1500);
        let keeps_a = h
            .oks_a
            .iter()
            .filter(|e| matches!(e, EgpEvent::OkKeep(_)))
            .count();
        assert_eq!(keeps_a, 2, "A should deliver 2 K-type OKs");
        assert_eq!(h.count_oks(false), 2);
    }

    #[test]
    fn slave_originated_request_works() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = submit(&mut h.egp_b, create_msg(2, false, 2), 0);
        h.dispatch(vec![], evs, 0);
        h.run(300);
        assert_eq!(h.count_oks(false), 2);
        assert_eq!(h.count_oks(true), 2);
    }

    #[test]
    fn unsupported_fidelity_rejected_immediately() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(1, true, 1);
        msg.min_fidelity = Fidelity16::from_f64(0.99);
        let (_, evs) = submit(&mut h.egp_a, msg, 0);
        let errs: Vec<&EgpEvent> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    EgpEvent::Error(ErrMsg {
                        code: EgpErrorCode::Unsupported,
                        ..
                    })
                )
            })
            .collect();
        assert_eq!(errs.len(), 1, "0.99 must be UNSUPP: {evs:?}");
    }

    #[test]
    fn too_short_deadline_is_unsupported() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(10, false, 2);
        msg.max_time_us = 100; // 10 pairs in 100 µs is impossible
        let (_, evs) = submit(&mut h.egp_a, msg, 0);
        assert!(evs.iter().any(|e| matches!(
            e,
            EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::Unsupported,
                ..
            })
        )));
    }

    #[test]
    fn atomic_beyond_memory_is_memexceeded() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(3, true, 1);
        msg.flags.atomic = true;
        let (_, evs) = submit(&mut h.egp_a, msg, 0);
        assert!(evs.iter().any(|e| matches!(
            e,
            EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::MemExceeded,
                ..
            })
        )));
    }

    #[test]
    fn request_timeout_reports_err() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let mut msg = create_msg(1, false, 2);
        // Feasible per-FEU estimate but we kill the model's success.
        h.model = dead_model();
        msg.max_time_us = 2_000_000; // 2 s — generous but finite
        let (_, evs) = submit(&mut h.egp_a, msg, 0);
        h.dispatch(evs, vec![], 0);
        // Run past the timeout: 2 s / 10.12 µs ≈ 197_628 cycles. Run a
        // bit beyond.
        h.run(198_500);
        assert!(
            h.errors_a.iter().any(|e| e.code == EgpErrorCode::Timeout),
            "expected TIMEOUT, got {:?}",
            h.errors_a
        );
        assert_eq!(h.count_oks(true), 0);
    }

    /// Deadlines that fall due on the same cycle raise their TIMEOUTs
    /// in `(QID, QSEQ)` order whatever the process: the ERRs steer the
    /// link's rejection records and the network layer's re-route
    /// order, so a hash-order walk here made runs differ from process
    /// to process.
    #[test]
    fn timeouts_due_together_are_reported_in_queue_order() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        h.model = dead_model();
        // Equal deadlines, alternating queues: create order is not
        // queue order.
        for i in 0..8 {
            let mut msg = create_msg(1, false, if i % 2 == 0 { 2 } else { 1 });
            msg.max_time_us = 2_000_000; // ≈ 197 628 cycles, as above
            let (create_id, evs) = submit(&mut h.egp_a, msg, 0);
            assert_eq!(create_id, i);
            h.dispatch(evs, vec![], 0);
        }
        h.run(198_500);
        let timed_out: Vec<u16> = h
            .errors_a
            .iter()
            .filter(|e| e.code == EgpErrorCode::Timeout)
            .map(|e| e.create_id)
            .collect();
        // Queue 1 (odd create IDs) before queue 2, QSEQ order within.
        assert_eq!(timed_out, vec![1, 3, 5, 7, 0, 2, 4, 6]);
    }

    /// EXPIREs and RETRACTs that fall due in one cycle go out EXPIREs
    /// first, each kind in the order first sent: the frames reach the
    /// channel RNG in emission order.
    #[test]
    fn expires_due_together_are_retransmitted_ahead_of_retracts() {
        let (mut a, _) = lab_pair(SchedulerPolicy::fcfs());
        let aid = |qseq| AbsQueueId::new(0, qseq);
        let expire = |qseq| {
            Frame::Expire(ExpireMsg {
                queue_id: aid(qseq),
                origin_id: A,
                create_id: qseq,
                seq_low: 0,
                seq_high: 0,
            })
        };
        a.send_retract(aid(1), 1, 0);
        a.await_expire_ack(expire(2), aid(2), 3, 0);
        a.send_retract(aid(3), 3, 0);
        a.await_expire_ack(expire(4), aid(4), 3, 0);
        let due = a.cfg.reply_timeout_cycles;
        let (_, evs) = tick(&mut a, due);
        let sent: Vec<(&str, u16)> = evs
            .iter()
            .map(|e| match e {
                EgpEvent::SendPeer(Frame::Expire(m)) => ("EXPIRE", m.queue_id.qseq),
                EgpEvent::SendPeer(Frame::Retract(m)) => ("RETRACT", m.queue_id.qseq),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let want = [("EXPIRE", 2), ("EXPIRE", 4), ("RETRACT", 1), ("RETRACT", 3)];
        assert_eq!(sent, want);
    }

    #[test]
    fn lost_reply_triggers_expire_recovery() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = submit(&mut h.egp_a, create_msg(3, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        // Find the first successful cycle by running a probe harness
        // with the same seed: instead, simply drop A's replies for a
        // swath of early cycles, guaranteeing at least one success
        // reply is lost.
        h.drop_reply_a_cycles = (0..40).collect();
        h.run(600);
        // B (who saw the successes) eventually revokes or A expires;
        // the link must still complete all 3 pairs for both sides.
        assert_eq!(h.count_oks(true), 3, "A completes despite losses");
        assert!(
            h.egp_a.expires_sent() > 0 || h.count_oks(false) >= 3,
            "recovery path exercised"
        );
        // Sequence expectations realign.
        assert_eq!(h.egp_a.seq_expected(), h.egp_b.seq_expected());
    }

    /// The detection windows of the M-type pairs A is handed, in order,
    /// when nothing is lost: a fresh harness is deterministic, so a
    /// second one heralds in the same windows until a test interferes.
    fn herald_cycles(start: impl Fn(&mut Harness)) -> Vec<u64> {
        let mut probe = Harness::new(SchedulerPolicy::fcfs());
        start(&mut probe);
        probe.run(400);
        probe
            .oks_a
            .iter()
            .filter_map(|e| match e {
                EgpEvent::OkMeasure(m) => Some(m.herald_cycle),
                _ => None,
            })
            .collect()
    }

    fn oks_for(oks: &[EgpEvent], create_id: u16) -> usize {
        oks.iter()
            .filter(|e| matches!(e, EgpEvent::OkMeasure(m) if m.create_id == create_id))
            .count()
    }

    /// A ranged EXPIRE can reach a request its receiver has already
    /// completed: A loses the REPLY of pair 1, sees pair 2's on the
    /// longer arm after B finished the request with it, and revokes
    /// both. B must regenerate them, complete a second time — once —
    /// and keep the request through the linger of its *first*
    /// completion. Before `Request::reopen`, B's copy kept its
    /// `completed_cycle`: `complete_if_done` never completed it again,
    /// and `purge_timed_out` forgot it mid-service with no ERR.
    #[test]
    fn ranged_expire_reopens_a_completed_request() {
        let start = |h: &mut Harness| {
            let (_, evs) = submit(&mut h.egp_a, create_msg(3, false, 2), 0);
            h.dispatch(evs, vec![], 0);
        };
        let heralds = herald_cycles(start);
        assert_eq!(heralds.len(), 3);

        let mut h = Harness::new(SchedulerPolicy::fcfs());
        start(&mut h);
        h.drop_reply_a_cycles = vec![heralds[1]];
        h.late_reply_a_cycles = vec![heralds[2]];
        let reopened_at = heralds[2];
        for c in 0..=reopened_at {
            h.step(c);
        }
        let aid = h.egp_b.dq.iter().next().expect("lingering").item.queue_id;
        assert_eq!(h.count_oks(false), 3, "B completed before A's EXPIRE");
        assert_eq!(h.egp_a.expires_sent(), 1);
        assert_eq!(h.errors_b.len(), 1, "B revoked: {:?}", h.errors_b);
        assert_eq!((h.errors_b[0].seq_low, h.errors_b[0].seq_high), (1, 3));
        for egp in [&h.egp_a, &h.egp_b] {
            assert_eq!(egp.dq.get(aid).unwrap().service.pairs_done, 1);
        }

        // No herald until the first completion's linger has run out:
        // the reopened request must outlive it.
        let hot = std::mem::replace(&mut h.model, dead_model());
        let lingered = reopened_at + COMPLETED_LINGER_CYCLES + 10;
        for c in reopened_at + 1..lingered {
            h.step(c);
        }
        assert_eq!(
            h.egp_b.dq.get(aid).map(|r| r.service.state),
            Some(RequestState::InService),
            "purged mid-service"
        );

        h.model = hot;
        let mut cycle = lingered;
        while h
            .egp_a
            .dq
            .get(aid)
            .unwrap()
            .service
            .completed_cycle
            .is_none()
        {
            assert!(cycle < lingered + 400, "revoked pairs never regenerated");
            h.step(cycle);
            cycle += 1;
        }
        // Both sides complete on the same herald, once, and stop.
        assert_eq!(
            h.egp_b.dq.get(aid).unwrap().service.completed_cycle,
            Some(cycle - 1)
        );
        assert_eq!(h.count_oks(true), 3);
        assert_eq!(h.count_oks(false), 5, "three, two revoked, two regenerated");
        let (attempt_a, _) = tick(&mut h.egp_a, cycle);
        let (attempt_b, _) = tick(&mut h.egp_b, cycle);
        assert_eq!((attempt_a, attempt_b), (None, None));
        assert_eq!(h.egp_b.expires_sent(), 0, "no NO_MESSAGE_OTHER resync");
        assert_eq!(h.egp_a.seq_expected(), h.egp_b.seq_expected());
    }

    /// Queue-mismatch reconciliation reopens a completed request too: A
    /// loses the REPLY of request 0's last pair, so B finishes it and
    /// moves on to request 1 while A still serves request 0. B steps
    /// back; the pair is regenerated and each request completes once.
    /// Before `Request::reopen`, B's request 0 never re-completed and
    /// stayed schedulable, the nodes kept mismatching, A stepped back in
    /// turn and handed its higher layer a fourth pair of three.
    #[test]
    fn queue_mismatch_reopens_a_completed_request() {
        let start = |h: &mut Harness| {
            for pairs in [3, 1] {
                let (_, evs) = submit(&mut h.egp_a, create_msg(pairs, false, 2), 0);
                h.dispatch(evs, vec![], 0);
            }
        };
        let heralds = herald_cycles(start);
        assert_eq!(heralds.len(), 4);

        let mut h = Harness::new(SchedulerPolicy::fcfs());
        start(&mut h);
        h.drop_reply_a_cycles = vec![heralds[2]];
        h.run(400);
        assert_eq!(h.errors_b.len(), 1, "B revoked: {:?}", h.errors_b);
        assert!(h.errors_b[0].range_only && h.errors_b[0].create_id == 0);
        assert_eq!(oks_for(&h.oks_a, 0), 3);
        assert_eq!(
            oks_for(&h.oks_b, 0),
            4,
            "three, one revoked, one regenerated"
        );
        assert_eq!((oks_for(&h.oks_a, 1), oks_for(&h.oks_b, 1)), (1, 1));
        for egp in [&h.egp_a, &h.egp_b] {
            assert_eq!(egp.queue_len(), 2, "both linger");
            for req in egp.dq.iter() {
                assert_eq!(req.service.state, RequestState::Completed);
            }
        }
        assert_eq!(h.egp_a.seq_expected(), h.egp_b.seq_expected());
    }

    #[test]
    fn priorities_respected_by_wfq() {
        let mut h = Harness::new(SchedulerPolicy::nl_strict_wfq());
        // Queue an MD request first, then an NL one; NL must finish
        // first under strict priority despite arriving later.
        let (_, evs) = submit(&mut h.egp_a, create_msg(2, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        let mut nl = create_msg(2, true, 0);
        nl.flags.consecutive = true;
        let (_, evs) = submit(&mut h.egp_a, nl, 0);
        h.dispatch(evs, vec![], 0);
        h.run(2500);
        let order: Vec<&str> = h
            .oks_a
            .iter()
            .map(|e| match e {
                EgpEvent::OkKeep(_) => "K",
                EgpEvent::OkMeasure(_) => "M",
                _ => "?",
            })
            .collect();
        assert_eq!(h.count_oks(true), 4, "all four pairs: {order:?}");
        let first_k = order.iter().position(|s| *s == "K").unwrap();
        let first_m = order.iter().position(|s| *s == "M").unwrap();
        assert!(
            first_k < first_m,
            "NL (K, strict priority) must complete first: {order:?}"
        );
    }

    #[test]
    fn seq_in_range_wraps() {
        assert!(seq_in_range(5, 3, 8));
        assert!(!seq_in_range(8, 3, 8));
        assert!(!seq_in_range(2, 3, 8));
        // Wrapped range [0xFFFE, 2): contains 0xFFFE, 0xFFFF, 0, 1.
        assert!(seq_in_range(0xFFFE, 0xFFFE, 2));
        assert!(seq_in_range(0, 0xFFFE, 2));
        assert!(seq_in_range(1, 0xFFFE, 2));
        assert!(!seq_in_range(2, 0xFFFE, 2));
        assert!(!seq_in_range(100, 0xFFFE, 2));
        // Empty range.
        assert!(!seq_in_range(0, 5, 5));
    }

    /// `min_time`, the EXPIRE retransmission timeout and the
    /// NO_MESSAGE_OTHER threshold are derived from the hardware, not
    /// set. On the two evaluation profiles they equal what `EgpConfig`
    /// carried when they were settings: Lab 4, 11 and 15 cycles; QL2020
    /// 27, 25 and 5 (there the constant floor of 5 wins).
    #[test]
    fn timers_derive_from_the_hardware() {
        for (scenario, want) in [
            (ScenarioParams::lab(), (4, 11, 15)),
            (ScenarioParams::ql2020(), (27, 25, 5)),
        ] {
            for role in [Role::Master, Role::Slave] {
                let cfg =
                    EgpConfig::for_scenario(A, B, role, scenario.clone(), SchedulerPolicy::fcfs());
                let egp = Egp::new(cfg);
                let got = (
                    egp.cfg.min_time_cycles,
                    egp.cfg.reply_timeout_cycles,
                    egp.effective_nmo_threshold,
                );
                assert_eq!(got, want, "{:?} {role:?}", scenario.scenario);
            }
        }
    }

    /// The property idle-link parking rests on, in every state a link
    /// passes through: `next_tick` is `None` exactly when nothing is
    /// pending, and a tick before it changes no state and emits nothing
    /// (`checked_tick`), whatever the cycle. A seeded run of K, then K and
    /// M CREATEs from both origins under 5 % frame loss is checked at every
    /// tick until both EGPs are quiescent again; then the quiescent pair
    /// and a fresh instance are ticked at cycles in the past, the present,
    /// the far future and at the numeric extremes.
    #[test]
    fn a_tick_before_next_tick_is_a_no_op() {
        const TRAFFIC: u64 = 5_000;
        let mut h = Harness::new(SchedulerPolicy::nl_strict_wfq());
        (h.frame_loss, h.check_ticks) = (0.05, true);
        let mut rng = DetRng::new(0x9a4c);
        let mut cycle = 0;
        while cycle < TRAFFIC || h.egp_a.next_tick().or(h.egp_b.next_tick()).is_some() {
            assert!(cycle < TRAFFIC + 200_000, "never returned to quiescence");
            if cycle < TRAFFIC && rng.bernoulli(0.003) {
                // K only at first: then nothing ready ever masks the K gates.
                let keep = rng.bernoulli(0.5) || cycle < TRAFFIC / 2;
                let priority = if keep { rng.below(2) as u8 } else { 2 };
                let mut msg = create_msg(1 + rng.below(3) as u16, keep, priority);
                msg.max_time_us = 200_000 * u64::from(msg.number);
                let at_a = rng.bernoulli(0.5);
                let (_, evs) = submit(if at_a { &mut h.egp_a } else { &mut h.egp_b }, msg, cycle);
                let (from_a, from_b) = if at_a { (evs, vec![]) } else { (vec![], evs) };
                h.dispatch(from_a, from_b, cycle);
            }
            h.step(cycle);
            cycle += 1;
        }
        assert!(
            h.count_oks(true) > 0 && h.count_oks(false) > 0,
            "nothing served"
        );

        let (mut fresh, _) = lab_pair(SchedulerPolicy::fcfs());
        for egp in [&mut h.egp_a, &mut h.egp_b, &mut fresh] {
            for case in 0..200u64 {
                let c = match case {
                    0 => 0,
                    1 => u64::MAX,
                    2 => cycle,
                    _ => rng.below(1 << 40) >> rng.below(40),
                };
                checked_tick(egp, c);
            }
        }
    }

    /// `next_tick` is a lower bound, but a tight one where the gates are
    /// functions of the cycle alone: a K request waits out `min_time`, the
    /// K cadence and the carbon blackout, and the tick at `next_tick` fires.
    #[test]
    fn next_tick_waits_out_the_cadence_and_the_blackout() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = submit(&mut h.egp_a, create_msg(1, true, 1), 0);
        h.dispatch(evs, vec![], 0);
        let egp = &mut h.egp_a;
        let (period, blackout) = (egp.cfg.reinit_period_cycles, egp.cfg.reinit_duration_cycles);
        assert!(
            egp.cfg.min_time_cycles < blackout,
            "min_time ends in the first blackout"
        );
        let cases = [
            (0, blackout),
            (period / 2, period / 2),
            (period + 1, period + blackout),
        ];
        for (cadence, want) in cases {
            egp.next_keep_cycle = cadence;
            assert_eq!(egp.next_tick(), Some(want), "cadence at {cadence}");
        }
        let at = period + blackout;
        assert_eq!(tick(egp, at - 1), (None, vec![]));
        assert!(tick(egp, at).0.is_some(), "no attempt at next_tick");
    }

    /// Seeded property: CREATEs from both origins (K and M), retractions,
    /// random frame loss, blackouts long enough for an ADD to give up and
    /// roll back, stretches without a herald long enough for deadlines to
    /// pass, and one slave CREATE the master refuses because its queue
    /// filled while the ADD was in flight, in any interleaving. Once
    /// traffic stops and frames get through again, both EGPs return to
    /// quiescence — with one table of requests, that is every kind of
    /// per-request state gone with its request — and no CREATE went
    /// unanswered: each was served in full, ended in an ERR, or was
    /// retracted by its own higher layer. Without loss each got exactly
    /// one of the three, and the refused one a DENIED. (With loss a
    /// second answer is possible: a master whose ACKs are all lost
    /// serves the request, then reports NOTIME when its ADD gives up.)
    ///
    /// Every CREATE here has a deadline. Without one the link can wedge
    /// under loss: a master that abandons a request (NO_MESSAGE_OTHER
    /// give-up) while its ADD is still being retransmitted leaves the
    /// slave an item the master no longer has, which the slave serves
    /// first and the master cannot step back to — only the item's
    /// timeout ends the queue mismatch.
    #[test]
    fn every_create_is_answered_and_no_request_state_outlives_its_request() {
        const SEGMENT: u64 = 2_500; // > (MAX_RETRIES + 1) × RETRANSMIT_CYCLES
        const OVERFILL_AT: u64 = SEGMENT + SEGMENT / 2;
        struct Created {
            at_a: bool,
            create_id: u16,
            pairs: u16,
            retracted: bool,
        }
        let root = DetRng::new(0x0c4e_a7e5);
        for case in 0..16 {
            let mut rng = root.substream(&format!("case/{case}"));
            let lossless = case % 4 == 0;
            let policy = if rng.bernoulli(0.5) {
                SchedulerPolicy::fcfs()
            } else {
                SchedulerPolicy::nl_strict_wfq()
            };
            let mut h = Harness::new(policy);
            let hot = h.model.clone();
            let mut created: Vec<Created> = Vec::new();
            let traffic_until = 4 * SEGMENT;
            let mut cycle = 0;
            while cycle < traffic_until || h.egp_a.next_tick().or(h.egp_b.next_tick()).is_some() {
                assert!(
                    cycle < traffic_until + 400_000,
                    "case {case}: never quiescent"
                );
                if cycle == traffic_until {
                    (h.frame_loss, h.model) = (0.0, hot.clone());
                } else if cycle < traffic_until && cycle % SEGMENT == 0 {
                    h.frame_loss = match rng.below(4) {
                        _ if lossless => 0.0,
                        0 => 0.0,
                        1 => 0.05,
                        2 => 0.3,
                        _ => 1.0,
                    };
                    h.model = if rng.bernoulli(0.3) {
                        dead_model()
                    } else {
                        hot.clone()
                    };
                }
                if cycle == OVERFILL_AT {
                    // B's ADD is in flight while A fills the MD queue:
                    // A refuses it, then retracts what it filled with.
                    let mut msg = create_msg(1, false, 2);
                    msg.max_time_us = 120_000;
                    let (refused, held) = submit(&mut h.egp_b, msg.clone(), cycle);
                    let mut filled = Vec::new();
                    for _ in 0..crate::dqueue::MAX_ITEMS_PER_QUEUE {
                        let (create_id, evs) = submit(&mut h.egp_a, msg.clone(), cycle);
                        h.dispatch(evs, vec![], cycle);
                        filled.push(create_id);
                    }
                    h.dispatch(vec![], held, cycle);
                    for &create_id in &filled {
                        let evs = input(&mut h.egp_a, Input::Expire(create_id), cycle);
                        h.dispatch(evs, vec![], cycle);
                    }
                    if lossless {
                        let denied = h
                            .errors_b
                            .iter()
                            .filter(|e| (e.create_id, e.code) == (refused, EgpErrorCode::Denied));
                        assert_eq!(denied.count(), 1, "case {case}: B's ADD was not refused");
                    }
                    created.push(Created {
                        at_a: false,
                        create_id: refused,
                        pairs: 1,
                        retracted: false,
                    });
                    created.extend(filled.into_iter().map(|create_id| Created {
                        at_a: true,
                        create_id,
                        pairs: 1,
                        retracted: true,
                    }));
                }
                if cycle < traffic_until && rng.bernoulli(0.004) {
                    let at_a = rng.bernoulli(0.5);
                    let mut msg = create_msg(1 + rng.below(3) as u16, rng.bernoulli(0.3), 0);
                    msg.priority = if msg.flags.store {
                        rng.below(2) as u8
                    } else {
                        2
                    };
                    msg.flags.consecutive = rng.bernoulli(0.7);
                    // ≈ 12 000 or 20 000 cycles a pair; the FEU wants 8 300
                    // for M and 10 800 for K.
                    msg.max_time_us = (120_000 + 80_000 * rng.below(2)) * u64::from(msg.number);
                    let pairs = msg.number;
                    let egp = if at_a { &mut h.egp_a } else { &mut h.egp_b };
                    let (create_id, evs) = submit(egp, msg, cycle);
                    let (from_a, from_b) = if at_a { (evs, vec![]) } else { (vec![], evs) };
                    h.dispatch(from_a, from_b, cycle);
                    created.push(Created {
                        at_a,
                        create_id,
                        pairs,
                        retracted: false,
                    });
                }
                if cycle < traffic_until && !created.is_empty() && rng.bernoulli(0.001) {
                    let pick = rng.below(created.len() as u64) as usize;
                    let c = &mut created[pick];
                    c.retracted = true;
                    let egp = if c.at_a { &mut h.egp_a } else { &mut h.egp_b };
                    let evs = input(egp, Input::Expire(c.create_id), cycle);
                    let (from_a, from_b) = if c.at_a { (evs, vec![]) } else { (vec![], evs) };
                    h.dispatch(from_a, from_b, cycle);
                }
                h.step(cycle);
                cycle += 1;
            }
            assert_eq!(h.egp_a.queue_len(), h.egp_b.queue_len());
            for c in &created {
                let (oks, errors, node) = if c.at_a {
                    (&h.oks_a, &h.errors_a, A)
                } else {
                    (&h.oks_b, &h.errors_b, B)
                };
                let delivered = oks
                    .iter()
                    .filter(|ok| match ok {
                        EgpEvent::OkKeep(m) => m.origin_is_local && m.create_id == c.create_id,
                        EgpEvent::OkMeasure(m) => m.origin_is_local && m.create_id == c.create_id,
                        _ => false,
                    })
                    .count();
                let served = delivered >= usize::from(c.pairs);
                let failed = errors
                    .iter()
                    .filter(|e| {
                        e.create_id == c.create_id && e.origin_node_id == node && !e.range_only
                    })
                    .count();
                let id = c.create_id;
                assert!(
                    served || failed > 0 || c.retracted,
                    "case {case}: CREATE {id} of node {node} went unanswered"
                );
                if lossless && !c.retracted {
                    assert!(
                        (served, failed) == (true, 0) || (served, failed) == (false, 1),
                        "case {case}: CREATE {id} of node {node}: {delivered} OKs, {failed} ERRs"
                    );
                }
            }
        }
    }
}
