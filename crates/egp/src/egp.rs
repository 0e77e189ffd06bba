//! The Entanglement Generation Protocol state machine (Protocol 2).
//!
//! One [`Egp`] instance runs at each controllable node. It is written
//! sans-IO: the harness feeds it CREATE requests, peer frames, MHP
//! results and poll ticks; it emits frames to send, OK/ERR messages
//! for the higher layer, and hardware directives (move-to-memory,
//! discard) that the simulation applies to the shared pair states.
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
//!   queue-mismatch reconciliation;
//! * intersperse test rounds (Appendix B) and feed the QBER estimator.

use crate::dqueue::{DistributedQueue, DqpEvent, DqueueConfig, RejectReason, Role};
use crate::feu::{FidelityEstimator, QberEstimator};
use crate::qmm::{QuantumMemoryManager, QubitId};
use crate::request::{Request, RequestState, Service};
use crate::scheduler::SchedulerPolicy;
use crate::shared_random::SharedRandomness;
use qlink_phys::mhp::{AttemptKind, AttemptSpec, MhpResult};
use qlink_phys::params::ScenarioParams;
use qlink_quantum::bell::BellState;
use qlink_quantum::Basis;
use qlink_wire::dqp::QueueItem;
use qlink_wire::egp::{
    CreateMsg, EgpErrorCode, ErrMsg, ExpireAckMsg, ExpireMsg, MemoryAdvertMsg, OkKeepMsg,
    OkMeasureMsg, RetractMsg, WireBasis,
};
use qlink_wire::fields::{
    seq_after, AbsQueueId, Fidelity16, MhpError, MidpointOutcome, ReplyOutcome, RequestType,
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
    /// (sequence-check failure, expiry, or a consumed test round).
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

/// Static configuration of one EGP instance.
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
    /// Distributed-queue parameters (must match the peer's).
    pub dq: DqueueConfig,
    /// Scheduling policy (must match the peer's).
    pub scheduler: SchedulerPolicy,
    /// Number of carbon storage qubits.
    pub storage_qubits: usize,
    /// Pre-shared randomness for test rounds and bases.
    pub shared_random: SharedRandomness,
    /// Cycles to wait for a midpoint reply before declaring GEN_FAIL.
    pub reply_timeout_cycles: u64,
    /// `min_time` offset: cycles between queue-add and earliest service
    /// (must exceed the ADD/ACK round trip; §E.1.2).
    pub min_time_cycles: u64,
    /// Window size of the QBER estimator (Appendix B's `N`).
    pub qber_window: usize,
    /// Consecutive NO_MESSAGE_OTHER results on one request before
    /// concluding the peer has diverged and sending a resync EXPIRE
    /// (§E.3.2's "inconsistency detected later" case).
    pub nmo_resync_threshold: u32,
    /// Resync attempts before abandoning the request entirely.
    pub resync_give_up: u32,
    /// Cycles a completed request lingers (still reopenable by a
    /// resync EXPIRE) before being forgotten.
    pub completed_linger_cycles: u64,
}

impl EgpConfig {
    /// Sensible defaults for a scenario: reply timeout covers the
    /// midpoint round trip with margin, `min_time` covers the DQP
    /// handshake.
    pub fn for_scenario(
        node_id: u32,
        peer_id: u32,
        role: Role,
        scenario: ScenarioParams,
        scheduler: SchedulerPolicy,
    ) -> Self {
        let cycle = scenario.mhp_cycle;
        let reply_cycles = scenario.reply_latency().as_ps().div_ceil(cycle.as_ps());
        let rtt_ab = (scenario.arm_a_delay() + scenario.arm_b_delay()).as_ps() * 2;
        let min_time = rtt_ab.div_ceil(cycle.as_ps()) + 3;
        EgpConfig {
            node_id,
            peer_id,
            role,
            scenario,
            dq: DqueueConfig {
                master_node: if role == Role::Master {
                    node_id
                } else {
                    peer_id
                },
                slave_node: if role == Role::Master {
                    peer_id
                } else {
                    node_id
                },
                ..DqueueConfig::default()
            },
            scheduler,
            storage_qubits: 1,
            shared_random: SharedRandomness::new(0x51_1b_2a_7e, 0.0),
            reply_timeout_cycles: reply_cycles + 10,
            min_time_cycles: min_time,
            qber_window: 1000,
            nmo_resync_threshold: 5,
            resync_give_up: 3,
            completed_linger_cycles: 5_000,
        }
    }
}

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

/// The part of an [`EgpConfig`] an [`Egp`] reads after construction.
/// The hardware profile itself lives behind the FEU handle
/// ([`FidelityEstimator::params`]); the distributed-queue parameters
/// move into the [`DistributedQueue`].
#[derive(Debug)]
struct Settings {
    node_id: u32,
    peer_id: u32,
    min_time_cycles: u64,
    reply_timeout_cycles: u64,
    completed_linger_cycles: u64,
    resync_give_up: u32,
    scheduler: SchedulerPolicy,
    shared_random: SharedRandomness,
    /// [`ScenarioParams::measure_multiplexing`], read on every poll.
    measure_multiplexing: bool,
    /// The MHP cycle in picoseconds, for the OKs' timestamps.
    mhp_cycle_ps: u64,
}

/// The per-node link-layer protocol instance.
#[derive(Debug)]
pub struct Egp {
    cfg: Settings,
    dq: DistributedQueue,
    qmm: QuantumMemoryManager,
    feu: FidelityEstimator,
    qber: QberEstimator,
    next_create_id: u16,
    seq_expected: u16,
    /// K-attempt in flight: the cycle it was fired in.
    inflight_keep: Option<u64>,
    /// Hardware blocked until this cycle (move in progress).
    busy_until: u64,
    /// Move awaiting completion.
    pending_move: Option<PendingMove>,
    /// EXPIREs and RETRACTs awaiting acknowledgment.
    pending_expires: Vec<PendingExpire>,
    /// Peer's last advertised free storage (None = unknown).
    peer_free_storage: Option<u8>,
    /// Consecutive QUEUE_MISMATCH counts per (our aid, peer aid) pair.
    /// Mismatches for a couple of windows are normal when the two
    /// nodes' replies arrive staggered (unequal arms) around a request
    /// boundary; only persistent mismatch triggers reconciliation.
    qm_counts: BTreeMap<(AbsQueueId, AbsQueueId), u32>,
    /// Carbon re-init blackout bookkeeping (cycles, derived from NV).
    reinit_period_cycles: u64,
    reinit_duration_cycles: u64,
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
    /// Counters for robustness reporting.
    expires_sent: u64,
    expires_received: u64,
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
        let cycle_s = scenario.mhp_cycle.as_secs_f64();
        let reinit_period_cycles = (scenario.nv.carbon_reinit_period_s / cycle_s).round() as u64;
        let reinit_duration_cycles = (scenario.nv.carbon_reinit_duration_s / cycle_s).ceil() as u64;
        let move_cycles = (scenario.nv.move_duration_s / cycle_s).ceil() as u64;
        let keep_cadence_cycles = if scenario.keep_waits_for_reply {
            scenario
                .reply_latency()
                .as_ps()
                .div_ceil(scenario.mhp_cycle.as_ps())
                + 1
        } else {
            1
        };
        Egp {
            cfg: Settings {
                node_id: cfg.node_id,
                peer_id: cfg.peer_id,
                min_time_cycles: cfg.min_time_cycles,
                reply_timeout_cycles: cfg.reply_timeout_cycles,
                completed_linger_cycles: cfg.completed_linger_cycles,
                resync_give_up: cfg.resync_give_up,
                scheduler: cfg.scheduler,
                shared_random: cfg.shared_random,
                measure_multiplexing: scenario.measure_multiplexing,
                mhp_cycle_ps: scenario.mhp_cycle.as_ps(),
            },
            dq: DistributedQueue::new(cfg.role, cfg.dq),
            qmm: QuantumMemoryManager::new(cfg.storage_qubits),
            feu,
            qber: QberEstimator::new(cfg.qber_window),
            next_create_id: 0,
            seq_expected: 0,
            inflight_keep: None,
            busy_until: 0,
            pending_move: None,
            pending_expires: Vec::new(),
            peer_free_storage: None,
            qm_counts: BTreeMap::new(),
            reinit_period_cycles,
            reinit_duration_cycles,
            move_cycles,
            keep_cadence_cycles,
            next_keep_cycle: 0,
            effective_nmo_threshold: cfg
                .nmo_resync_threshold
                .max((cfg.reply_timeout_cycles / keep_cadence_cycles + 4) as u32),
            expires_sent: 0,
            expires_received: 0,
        }
    }

    /// This node's ID.
    pub fn node_id(&self) -> u32 {
        self.cfg.node_id
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

    /// `true` when this EGP has nothing to do and nothing to wait for:
    /// no EXPIRE or RETRACT awaiting the peer, no move in progress,
    /// and an idle distributed queue — no request (lingering completed
    /// ones included) and no CREATE awaiting its ACK. [`Egp::poll`] then
    /// returns `(None, [])` and changes no state whatever the cycle —
    /// every timer it consults hangs off one of those collections — so
    /// a simulator may skip the polls of a quiescent EGP outright.
    pub fn is_quiescent(&self) -> bool {
        self.pending_expires.is_empty() && self.pending_move.is_none() && self.dq.is_idle()
    }

    /// EXPIREs sent so far (robustness metric of §6.1).
    pub fn expires_sent(&self) -> u64 {
        self.expires_sent
    }

    /// EXPIREs received so far.
    pub fn expires_received(&self) -> u64 {
        self.expires_received
    }

    /// The runtime QBER estimator (fed by test rounds).
    pub fn qber_estimator(&self) -> &QberEstimator {
        &self.qber
    }

    /// Records a test-round outcome into the FEU's estimator (the
    /// harness routes the midpoint's bits here).
    pub fn record_test_round(&mut self, heralded: BellState, basis: Basis, bit_a: u8, bit_b: u8) {
        self.qber.record(heralded, basis, bit_a, bit_b);
    }

    /// Submits a CREATE from the higher layer (Protocol 2 step 1).
    /// Returns the assigned create ID and any immediate events.
    pub fn create(&mut self, msg: CreateMsg, cycle: u64) -> (u16, Vec<EgpEvent>) {
        let create_id = self.next_create_id;
        self.next_create_id = self.next_create_id.wrapping_add(1);
        let mut events = Vec::new();

        let rtype = msg.flags.request_type();
        // Atomic requests must fit the device (§4.1.2 MEMEXCEEDED).
        if rtype == RequestType::Keep && msg.flags.atomic && !self.qmm.can_ever_store(msg.number) {
            events.push(EgpEvent::Error(
                self.err(create_id, EgpErrorCode::MemExceeded),
            ));
            return (create_id, events);
        }
        // FEU: α and feasibility (UNSUPP).
        let fmin = msg.min_fidelity.to_f64();
        let Some(choice) = self.feu.choose_alpha(fmin, rtype) else {
            events.push(EgpEvent::Error(
                self.err(create_id, EgpErrorCode::Unsupported),
            ));
            return (create_id, events);
        };
        let cycle_us = self.feu.params().mhp_cycle.as_micros_f64();
        let tmax_cycles = if msg.max_time_us == 0 {
            u64::MAX
        } else {
            (msg.max_time_us as f64 / cycle_us).floor() as u64
        };
        let est = self.feu.estimate_completion_cycles(&choice, msg.number);
        if est > tmax_cycles {
            events.push(EgpEvent::Error(
                self.err(create_id, EgpErrorCode::Unsupported),
            ));
            return (create_id, events);
        }
        let min_cycle = cycle + self.cfg.min_time_cycles;
        let timeout_cycle = if tmax_cycles == u64::MAX {
            u64::MAX
        } else {
            cycle.saturating_add(tmax_cycles)
        };
        // The master assigns the queue ID and the virtual finish.
        let item = QueueItem {
            queue_id: AbsQueueId::new(0, 0),
            schedule_cycle: min_cycle,
            timeout_cycle,
            min_fidelity: msg.min_fidelity,
            purpose_id: msg.purpose_id,
            create_id,
            num_pairs: msg.number,
            priority: msg.priority,
            initial_virtual_finish: 0.0,
            est_cycles_per_pair: choice.est_cycles_per_pair.min(u32::MAX as u64) as u32,
            flags: msg.flags,
        };
        let service = Service::new(choice.alpha, choice.goodness, cycle);
        let dq_events = self.dq.add(item, service, cycle);
        events.extend(self.process_dq_events(dq_events, cycle));
        (create_id, events)
    }

    /// Retracts a CREATE this node originated: the request is dropped
    /// from the local queue immediately and the peer is told to do the
    /// same (RETRACT frame, retransmitted until acknowledged), so
    /// neither node spends further attempt cycles on it. The
    /// abandonment signal a higher layer sends when it no longer wants
    /// the pairs — a network-layer attempt failed or was cancelled.
    ///
    /// No-op for an unknown, already completed, or already rejected
    /// create ID. No OK/ERR is emitted: the higher layer asked for the
    /// removal and needs no echo.
    pub fn expire_request(&mut self, create_id: u16, cycle: u64) -> Vec<EgpEvent> {
        // ADD still in flight: if the master commits the item anyway,
        // it is retracted when the ACK arrives (`DqpEvent::Retracted`).
        if self.dq.retract_pending(create_id) {
            return Vec::new();
        }
        let ours = self.dq.iter().find(|r| {
            r.origin == self.cfg.node_id
                && r.item.create_id == create_id
                && r.service.completed_cycle.is_none()
        });
        let Some(aid) = ours.map(|r| r.item.queue_id) else {
            return Vec::new();
        };
        // In-flight MHP results for it resolve through the
        // unknown-request path, which frees hardware and resyncs
        // sequence numbers.
        self.dq.remove(aid);
        vec![self.send_retract(aid, create_id, cycle)]
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
    pub fn on_peer_frame(&mut self, frame: Frame, cycle: u64) -> Vec<EgpEvent> {
        match frame {
            Frame::Dqp(msg) => {
                let (feu, min_time, item) = (&mut self.feu, self.cfg.min_time_cycles, msg.item);
                let service = || peer_service(feu, min_time, &item);
                let evs = self.dq.on_frame(msg, service, cycle);
                self.process_dq_events(evs, cycle)
            }
            Frame::Expire(msg) => self.on_expire(msg, cycle),
            Frame::Retract(msg) => {
                // The originator abandoned the request: forget it and
                // acknowledge (the ack doubles as a sequence resync,
                // like an EXPIRE ack).
                self.dq.remove(msg.queue_id);
                vec![EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
                    queue_id: msg.queue_id,
                    seq_expected: self.seq_expected,
                }))]
            }
            Frame::ExpireAck(msg) => {
                self.pending_expires.retain(|p| p.queue_id != msg.queue_id);
                // The acknowledger reports its up-to-date expectation;
                // adopt it if ahead (stops stale-sequence discards).
                if seq_after(msg.seq_expected, self.seq_expected) {
                    self.seq_expected = msg.seq_expected;
                }
                Vec::new()
            }
            Frame::MemoryAdvert(msg) => {
                self.peer_free_storage = Some(msg.storage_qubits);
                if msg.is_ack {
                    Vec::new()
                } else {
                    vec![EgpEvent::SendPeer(Frame::MemoryAdvert(MemoryAdvertMsg {
                        is_ack: true,
                        comm_qubits: self.qmm.free_comm(),
                        storage_qubits: self.qmm.free_storage() as u8,
                    }))]
                }
            }
            other => {
                debug_assert!(false, "unexpected peer frame {}", other.kind());
                Vec::new()
            }
        }
    }

    /// The MHP's per-cycle poll (Protocol 1 step 1(a) / Protocol 2
    /// step 2). Returns the attempt spec (if any) plus housekeeping
    /// events (timeouts, retransmissions, deferred OKs).
    pub fn poll(&mut self, cycle: u64) -> (Option<AttemptSpec>, Vec<EgpEvent>) {
        let mut events = Vec::new();

        // Housekeeping: DQP retransmissions, EXPIRE retransmissions,
        // request timeouts, move completion.
        let dq_events = self.dq.tick(cycle);
        events.extend(self.process_dq_events(dq_events, cycle));
        self.retransmit_expires(cycle, &mut events);
        self.purge_timed_out(cycle, &mut events);
        self.finish_move_if_ready(cycle, &mut events);

        // Hardware availability.
        if cycle < self.busy_until || self.pending_move.is_some() {
            return (None, events);
        }

        // Scheduler: pick among ready requests (identical at both
        // nodes: all inputs are synchronized queue fields). The ready
        // set streams straight into the policy — this runs every MHP
        // cycle, so it must not allocate, and `select` keeps no buffer.
        let ready = self.dq.iter().filter(|r| r.is_ready(cycle));
        let Some(aid) = self.cfg.scheduler.select(ready.map(|r| &r.item)) else {
            return (None, events);
        };
        let req = self.dq.get_mut(aid).expect("selected from ready set");
        req.service.state = RequestState::InService;
        let rtype = req.request_type();

        // Without emission multiplexing (ablation, §5.2/[98]), M-type
        // attempts pace like K-type: one per reply round trip.
        if rtype == RequestType::Measure
            && !self.cfg.measure_multiplexing
            && cycle < self.next_keep_cycle
        {
            return (None, events);
        }
        if rtype == RequestType::Keep {
            // Deterministic K-attempt cadence: both nodes may only fire
            // the next K attempt at the agreed cycle (§4.4's "expected
            // cycles per attempt" E, and §5.2.4's determinism demand).
            if cycle < self.next_keep_cycle {
                return (None, events);
            }
            // Carbon re-initialization blackout for K service (§4.4:
            // 330 µs every 3500 µs; deterministic in the cycle number).
            if self.reinit_period_cycles > 0
                && cycle % self.reinit_period_cycles < self.reinit_duration_cycles
            {
                return (None, events);
            }
            // K-type needs the communication qubit plus storage here
            // and at the peer (flow control, §4.5). A busy qubit at
            // cadence time means a lost/late reply: skip this slot (the
            // peer sees NO_MESSAGE_OTHER and recovery converges).
            if !self.qmm.comm_free() || self.qmm.free_storage() == 0 {
                return (None, events);
            }
            if self.peer_free_storage == Some(0) {
                return (None, events);
            }
        }

        // Test-round / basis strings are indexed by the shared cycle
        // number so both nodes agree without communication.
        let is_test =
            rtype == RequestType::Keep && self.cfg.shared_random.is_test_round(aid, cycle);
        let kind = if rtype == RequestType::Measure || is_test {
            AttemptKind::Measure {
                basis: self.cfg.shared_random.basis(aid, cycle),
            }
        } else {
            AttemptKind::Keep
        };
        let spec = AttemptSpec {
            queue_id: aid,
            alpha: req.service.alpha,
            kind,
            test_round: is_test,
        };
        if rtype == RequestType::Keep
            || (rtype == RequestType::Measure && !self.cfg.measure_multiplexing)
        {
            // Any attempt for a K request (including a test round)
            // occupies the slot for one cadence period; unmultiplexed M
            // attempts pace the same way. The next slot is aligned to a
            // global grid (multiples of the cadence) so that after any
            // local hiccup — a reply timeout, a lost frame — both nodes
            // re-lock onto the same trigger cycles automatically.
            self.next_keep_cycle = self.grid_align(cycle + 1);
        }
        if matches!(kind, AttemptKind::Keep) {
            self.qmm.reserve_comm();
            self.inflight_keep = Some(cycle);
        }
        (Some(spec), events)
    }

    /// Processes a RESULT from the MHP (Protocol 2 step 3). For M-type
    /// attempts `local_bit` carries this node's measurement outcome
    /// (from the physical ledger).
    pub fn on_mhp_result(
        &mut self,
        result: &MhpResult,
        local_bit: Option<u8>,
        cycle: u64,
    ) -> Vec<EgpEvent> {
        let mut events = Vec::new();
        // Clear the K in-flight marker for this window.
        let was_keep = matches!(result.spec.kind, AttemptKind::Keep);
        if was_keep && self.inflight_keep == Some(result.cycle) {
            self.inflight_keep = None;
        }

        let outcome = result.outcome();
        match outcome {
            ReplyOutcome::Error(err) => {
                if was_keep {
                    self.qmm.release_comm();
                }
                self.handle_mhp_error(err, result, cycle, &mut events);
            }
            ReplyOutcome::Attempt(MidpointOutcome::Fail) => {
                // Step 3(c)(ii): failed attempt, nothing more to do.
                if was_keep {
                    self.qmm.release_comm();
                }
                self.both_attempted(result.spec.queue_id);
            }
            ReplyOutcome::Attempt(success) => {
                self.both_attempted(result.spec.queue_id);
                self.handle_success(success, result, local_bit, cycle, &mut events);
            }
        }
        events
    }

    // ----- internals ---------------------------------------------------

    /// Both sides attempted `aid`: clear the divergence counters.
    fn both_attempted(&mut self, aid: AbsQueueId) {
        if let Some(req) = self.dq.get_mut(aid) {
            (req.service.nmo_count, req.service.resyncs) = (0, 0);
        }
        self.qm_counts.clear();
    }

    fn handle_mhp_error(
        &mut self,
        err: MhpError,
        result: &MhpResult,
        cycle: u64,
        events: &mut Vec<EgpEvent>,
    ) {
        let reply = match &result.reply {
            Some(r) => r,
            None => return, // local GEN_FAIL: nothing else to do
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
                    if req.service.resyncs > self.cfg.resync_give_up {
                        // The peer has forgotten the request entirely;
                        // abandon it and tell the higher layer.
                        events.push(EgpEvent::Error(ErrMsg {
                            code: EgpErrorCode::Expire,
                            create_id: req.item.create_id,
                            origin_node_id: req.origin,
                            range_only: false,
                            seq_low: 0,
                            seq_high: 0,
                        }));
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
        events.push(EgpEvent::Error(ErrMsg {
            code: EgpErrorCode::Expire,
            create_id: req.item.create_id,
            origin_node_id: req.origin,
            range_only: true,
            seq_low: last_seq,
            seq_high: last_seq.wrapping_add(1),
        }));
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
        let was_keep = matches!(result.spec.kind, AttemptKind::Keep);

        // Step 3(b): unknown request (timed out / completed): free
        // resources, resync, discard the pair.
        let Some(req) = self.dq.get_mut(aid) else {
            if was_keep {
                self.qmm.release_comm();
            }
            self.seq_expected = seq.wrapping_add(1);
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        };

        // Step 3(c)(iii): sequence processing.
        if seq == self.seq_expected {
            self.seq_expected = self.seq_expected.wrapping_add(1);
        } else if seq_after(seq, self.seq_expected) {
            // Missed successes: issue EXPIRE, discard this pair too.
            let expire = ExpireMsg {
                queue_id: aid,
                origin_id: req.origin,
                create_id: req.item.create_id,
                seq_low: self.seq_expected,
                seq_high: seq.wrapping_add(1),
            };
            self.expires_sent += 1;
            events.push(self.await_expire_ack(Frame::Expire(expire), aid, 10, cycle));
            events.push(EgpEvent::Error(ErrMsg {
                code: EgpErrorCode::Expire,
                create_id: expire.create_id,
                origin_node_id: expire.origin_id,
                range_only: true,
                seq_low: self.seq_expected,
                seq_high: seq.wrapping_add(1),
            }));
            if was_keep {
                self.qmm.release_comm();
            }
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            self.seq_expected = seq.wrapping_add(1);
            return;
        } else {
            // Stale (already expired) — ignore.
            if was_keep {
                self.qmm.release_comm();
            }
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        // Test round (Appendix B): consumed for estimation, not counted.
        if result.spec.test_round {
            req.service.round += 1;
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        // A completed (lingering) request can still receive heralds
        // from attempts that were in flight when it finished (emission
        // multiplexing); they are surplus — discard the pairs.
        if req.is_complete() {
            if was_keep {
                self.qmm.release_comm();
            }
            events.push(EgpEvent::Hw(HwDirective::Discard {
                cycle: result.cycle,
            }));
            return;
        }

        match result.spec.kind {
            AttemptKind::Measure { basis } => {
                let ok = OkMeasureMsg {
                    create_id: req.item.create_id,
                    outcome: local_bit.unwrap_or(0),
                    basis: to_wire_basis(basis),
                    origin_is_local: req.origin == self.cfg.node_id,
                    sequence_number: seq,
                    purpose_id: req.item.purpose_id,
                    remote_node_id: self.cfg.peer_id,
                    goodness: Fidelity16::from_f64(req.service.goodness),
                    // The pair was created in the attempt's detection
                    // window, not when the reply was processed (§4.1.2
                    // item 5).
                    create_time_ps: result.cycle.saturating_mul(self.cfg.mhp_cycle_ps),
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
                    .expect("poll checked storage before the attempt");
                self.busy_until = cycle + self.move_cycles;
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
        let Some(pm) = &self.pending_move else {
            return;
        };
        if cycle < pm.ready_cycle {
            return;
        }
        let pm = self.pending_move.take().expect("checked");
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
            logical_qubit_id: pm.qubit,
            origin_is_local: req.origin == self.cfg.node_id,
            sequence_number: pm.seq,
            purpose_id: req.item.purpose_id,
            remote_node_id: self.cfg.peer_id,
            goodness: Fidelity16::from_f64(req.service.goodness),
            goodness_time_ps: req
                .service
                .accepted_cycle
                .saturating_mul(self.cfg.mhp_cycle_ps),
            create_time_ps: pm.herald_cycle.saturating_mul(self.cfg.mhp_cycle_ps),
        };
        req.deliver(pm.seq, EgpEvent::OkKeep(ok), cycle, events);
        // The workloads of §6 consume pairs on delivery; the storage
        // qubit frees for the next pair (a CK application holding pairs
        // would instead release through the QMM explicitly).
        self.qmm.release_storage(pm.qubit);
    }

    fn purge_timed_out(&mut self, cycle: u64, events: &mut Vec<EgpEvent>) {
        let linger = self.cfg.completed_linger_cycles;
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
                events.push(EgpEvent::Error(ErrMsg {
                    code: EgpErrorCode::Timeout,
                    create_id: req.item.create_id,
                    origin_node_id: req.origin,
                    range_only: false,
                    seq_low: 0,
                    seq_high: 0,
                }));
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

    fn on_expire(&mut self, msg: ExpireMsg, _cycle: u64) -> Vec<EgpEvent> {
        self.expires_received += 1;
        let mut events = Vec::new();
        // Resync form (empty range): the peer's `seq_low` carries its
        // pairs-done count; roll our progress back to match so both
        // sides regenerate the pairs the peer never confirmed.
        if msg.seq_low == msg.seq_high {
            if let Some(req) = self.dq.get_mut(msg.queue_id) {
                let target = msg.seq_low;
                if req.service.pairs_done > target {
                    let revoked = req.service.pairs_done - target;
                    req.reopen(target);
                    events.push(EgpEvent::Error(ErrMsg {
                        code: EgpErrorCode::Expire,
                        create_id: req.item.create_id,
                        origin_node_id: req.origin,
                        range_only: true,
                        seq_low: 0,
                        seq_high: revoked,
                    }));
                    req.service.issued_seqs.clear();
                }
            }
            events.push(EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
                queue_id: msg.queue_id,
                seq_expected: self.seq_expected,
            })));
            return events;
        }
        // Fast-forward our own expectation if the peer is ahead.
        if seq_after(msg.seq_high, self.seq_expected) {
            self.seq_expected = msg.seq_high;
        }
        // Revoke any OKs we issued in [seq_low, seq_high).
        if let Some(req) = self.dq.get_mut(msg.queue_id) {
            let issued = &mut req.service.issued_seqs;
            let in_range = |s: u16| {
                // Half-open wrap-aware range membership.
                seq_in_range(s, msg.seq_low, msg.seq_high)
            };
            let revoked = issued.iter().filter(|s| in_range(**s)).count() as u16;
            issued.retain(|s| !in_range(*s));
            if revoked > 0 {
                req.reopen(req.service.pairs_done.saturating_sub(revoked));
                events.push(EgpEvent::Error(ErrMsg {
                    code: EgpErrorCode::Expire,
                    create_id: req.item.create_id,
                    origin_node_id: req.origin,
                    range_only: true,
                    seq_low: msg.seq_low,
                    seq_high: msg.seq_high,
                }));
            }
        }
        events.push(EgpEvent::SendPeer(Frame::ExpireAck(ExpireAckMsg {
            queue_id: msg.queue_id,
            seq_expected: self.seq_expected,
        })));
        events
    }

    /// Rounds a cycle up to the next multiple of the K cadence — the
    /// shared trigger grid both nodes pace K attempts on.
    fn grid_align(&self, cycle: u64) -> u64 {
        cycle.div_ceil(self.keep_cadence_cycles) * self.keep_cadence_cycles
    }

    fn process_dq_events(&mut self, dq_events: Vec<DqpEvent>, cycle: u64) -> Vec<EgpEvent> {
        // Per-cycle call, almost always with nothing to process.
        if dq_events.is_empty() {
            return Vec::new();
        }
        let mut events = Vec::new();
        for ev in dq_events {
            match ev {
                DqpEvent::Send(msg) => events.push(EgpEvent::SendPeer(Frame::Dqp(msg))),
                // The queue's table is the request table: a completed
                // add leaves nothing to mirror.
                DqpEvent::AddSucceeded { .. } => {}
                DqpEvent::Retracted { create_id, aid } => {
                    events.push(self.send_retract(aid, create_id, cycle));
                }
                DqpEvent::AddRejected { create_id, reason } => {
                    let code = match reason {
                        RejectReason::QueueFull => EgpErrorCode::OutOfMem,
                        RejectReason::PurposeDenied => EgpErrorCode::Denied,
                    };
                    events.push(EgpEvent::Error(self.err(create_id, code)));
                }
                DqpEvent::AddTimedOut { create_id } => {
                    events.push(EgpEvent::Error(self.err(create_id, EgpErrorCode::NoTime)));
                }
            }
        }
        events
    }

    fn err(&self, create_id: u16, code: EgpErrorCode) -> ErrMsg {
        ErrMsg {
            code,
            create_id,
            origin_node_id: self.cfg.node_id,
            range_only: false,
            seq_low: 0,
            seq_high: 0,
        }
    }
}

/// The service state `item`, arriving in the peer's ADD, is committed
/// with: α must match the peer's choice — both FEUs run the same
/// deterministic inversion on the same Fmin, so they agree.
fn peer_service(feu: &mut FidelityEstimator, min_time_cycles: u64, item: &QueueItem) -> Service {
    let fmin = item.min_fidelity.to_f64();
    let (alpha, goodness) = match feu.choose_alpha(fmin, item.flags.request_type()) {
        Some(c) => (c.alpha, c.goodness),
        None => (feu.alpha_min(), fmin),
    };
    let accepted_cycle = item.schedule_cycle.saturating_sub(min_time_cycles);
    Service::new(alpha, goodness, accepted_cycle)
}

fn to_wire_basis(b: Basis) -> WireBasis {
    match b {
        Basis::X => WireBasis::X,
        Basis::Y => WireBasis::Y,
        Basis::Z => WireBasis::Z,
    }
}

/// Wrap-aware membership test for half-open `[lo, hi)` over `u16`.
fn seq_in_range(s: u16, lo: u16, hi: u16) -> bool {
    if lo == hi {
        return false;
    }
    if lo < hi {
        (lo..hi).contains(&s)
    } else {
        s >= lo || s < hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_des::DetRng;
    use qlink_phys::attempt::AttemptModel;
    use qlink_phys::mhp::{Midpoint, NodeMhp};
    use qlink_phys::params::ScenarioParams;
    use qlink_wire::fields::RequestFlags;
    use std::collections::BTreeSet;

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
                        EgpEvent::SendPeer(f) => next_b.extend(self.egp_b.on_peer_frame(f, cycle)),
                        EgpEvent::OkKeep(_) | EgpEvent::OkMeasure(_) => self.oks_a.push(ev),
                        EgpEvent::Error(e) => self.errors_a.push(e),
                        EgpEvent::Hw(_) => {}
                    }
                }
                for ev in queue_b.drain(..) {
                    match ev {
                        EgpEvent::SendPeer(_) if lost() => {}
                        EgpEvent::SendPeer(f) => next_a.extend(self.egp_a.on_peer_frame(f, cycle)),
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
            let (spec_a, evs_a) = self.egp_a.poll(cycle);
            let (spec_b, evs_b) = self.egp_b.poll(cycle);
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
                        let evs = self.egp_a.on_mhp_result(&res, None, cycle);
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
                    let evs = egp.on_mhp_result(&res, bit, cycle);
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
        let (_, evs) = h.egp_a.create(create_msg(3, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        h.run(400);
        assert_eq!(h.count_oks(true), 3, "A should deliver 3 OKs");
        assert_eq!(h.count_oks(false), 3, "B should deliver 3 OKs too");
        // OKs carry midpoint sequence numbers 0,1,2.
        let seqs: Vec<u16> = h
            .oks_a
            .iter()
            .filter_map(|e| match e {
                EgpEvent::OkMeasure(m) => Some(m.sequence_number),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn keep_request_end_to_end() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        let (_, evs) = h.egp_a.create(create_msg(2, true, 1), 0);
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
        let (_, evs) = h.egp_b.create(create_msg(2, false, 2), 0);
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
        let (_, evs) = h.egp_a.create(msg, 0);
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
        let (_, evs) = h.egp_a.create(msg, 0);
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
        let (_, evs) = h.egp_a.create(msg, 0);
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
        let (_, evs) = h.egp_a.create(msg, 0);
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
            let (create_id, evs) = h.egp_a.create(msg, 0);
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
        let (_, evs) = a.poll(a.cfg.reply_timeout_cycles);
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
        let (_, evs) = h.egp_a.create(create_msg(3, false, 2), 0);
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
            h.egp_a.expires_sent() + h.egp_b.expires_received() > 0 || h.count_oks(false) >= 3,
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
        let cycle_ps = ScenarioParams::lab().mhp_cycle.as_ps();
        probe
            .oks_a
            .iter()
            .filter_map(|e| match e {
                EgpEvent::OkMeasure(m) => Some(m.create_time_ps / cycle_ps),
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
            let (_, evs) = h.egp_a.create(create_msg(3, false, 2), 0);
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
        let lingered = reopened_at + h.egp_b.cfg.completed_linger_cycles + 10;
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
        let (attempt_a, _) = h.egp_a.poll(cycle);
        let (attempt_b, _) = h.egp_b.poll(cycle);
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
                let (_, evs) = h.egp_a.create(create_msg(pairs, false, 2), 0);
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
        let (_, evs) = h.egp_a.create(create_msg(2, false, 2), 0);
        h.dispatch(evs, vec![], 0);
        let mut nl = create_msg(2, true, 0);
        nl.flags.consecutive = true;
        let (_, evs) = h.egp_a.create(nl, 0);
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
    fn test_rounds_feed_qber_estimator() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        // Rebuild A and B with test rounds enabled.
        let scenario = ScenarioParams::lab();
        let mut cfg_a = EgpConfig::for_scenario(
            A,
            B,
            Role::Master,
            scenario.clone(),
            SchedulerPolicy::fcfs(),
        );
        cfg_a.shared_random = SharedRandomness::new(5, 0.3);
        let mut cfg_b =
            EgpConfig::for_scenario(B, A, Role::Slave, scenario, SchedulerPolicy::fcfs());
        cfg_b.shared_random = SharedRandomness::new(5, 0.3);
        h.egp_a = Egp::new(cfg_a);
        h.egp_b = Egp::new(cfg_b);
        let (_, evs) = h.egp_a.create(create_msg(5, true, 1), 0);
        h.dispatch(evs, vec![], 0);
        h.run(4000);
        assert_eq!(h.count_oks(true), 5, "request completes around test rounds");
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

    #[test]
    fn memory_advert_flow() {
        let (mut a, mut b) = lab_pair(SchedulerPolicy::fcfs());
        let req = Frame::MemoryAdvert(MemoryAdvertMsg {
            is_ack: false,
            comm_qubits: 1,
            storage_qubits: 0, // peer has no room
        });
        let evs = b.on_peer_frame(req, 0);
        // B answers with its own counts.
        assert!(matches!(
            evs[0],
            EgpEvent::SendPeer(Frame::MemoryAdvert(MemoryAdvertMsg { is_ack: true, .. }))
        ));
        // B now refuses to schedule K work (peer storage = 0).
        let (_, evs2) = b.create(create_msg(1, true, 1), 0);
        let mut all = evs2;
        for ev in all.drain(..) {
            if let EgpEvent::SendPeer(f) = ev {
                let back = a.on_peer_frame(f, 0);
                for bev in back {
                    if let EgpEvent::SendPeer(f) = bev {
                        b.on_peer_frame(f, 0);
                    }
                }
            }
        }
        // Give the queue time; B's poll must yield no attempt.
        let (spec, _) = b.poll(b.cfg.min_time_cycles + 1);
        assert!(spec.is_none(), "flow control must block K attempts");
    }

    /// The property idle-link parking rests on: polling a quiescent
    /// EGP does nothing, whatever the cycle — so a simulator may skip
    /// any number of those polls. Checked on fresh instances and on a
    /// pair that served a K request (move, OKs, completed-request
    /// linger) back to quiescence, against cycles in the past, the
    /// present, the far future and at the numeric extremes.
    #[test]
    fn poll_on_a_quiescent_egp_is_a_no_op_at_any_cycle() {
        let mut h = Harness::new(SchedulerPolicy::fcfs());
        assert!(h.egp_a.is_quiescent() && h.egp_b.is_quiescent());
        let (_, evs) = h.egp_a.create(create_msg(2, true, 1), 0);
        h.dispatch(evs, vec![], 0);
        assert!(!h.egp_a.is_quiescent() && !h.egp_b.is_quiescent());

        let linger = h.egp_a.cfg.completed_linger_cycles;
        let mut cycle = 0;
        while !(h.egp_a.is_quiescent() && h.egp_b.is_quiescent()) {
            assert!(cycle < 2_000 + linger, "never returned to quiescence");
            h.step(cycle);
            if h.count_oks(true) == 2 && cycle < linger {
                // Served, but the completed request still lingers.
                assert!(!h.egp_a.is_quiescent());
            }
            cycle += 1;
        }
        assert_eq!(h.count_oks(true), 2);
        assert!(cycle >= linger, "quiescent before the linger ran out");

        let (mut fresh, _) = lab_pair(SchedulerPolicy::nl_strict_wfq());
        let mut rng = DetRng::new(0x9a4c);
        for egp in [&mut h.egp_a, &mut h.egp_b, &mut fresh] {
            let before = format!("{egp:?}");
            for case in 0..200u64 {
                let c = match case {
                    0 => 0,
                    1 => u64::MAX,
                    2 => cycle,
                    _ => rng.below(1 << 40) >> rng.below(40),
                };
                let (spec, events) = egp.poll(c);
                assert!(spec.is_none(), "cycle {c}: quiescent poll fired {spec:?}");
                assert!(
                    events.is_empty(),
                    "cycle {c}: quiescent poll emitted {events:?}"
                );
                assert!(egp.is_quiescent());
            }
            assert_eq!(before, format!("{egp:?}"), "quiescent polls changed state");
        }
    }

    /// Seeded property: CREATEs from both origins (K and M, some for a
    /// purpose the peer refuses), retractions, random frame loss,
    /// blackouts long enough for an ADD to give up and roll back, and
    /// stretches without a herald long enough for deadlines to pass,
    /// in any interleaving. Once traffic stops and frames get through
    /// again, both EGPs return to quiescence — with one table of
    /// requests, that is every kind of per-request state gone with its
    /// request — and no CREATE went unanswered: each was served in
    /// full, ended in an ERR, or was retracted by its own higher layer.
    /// Without loss each got exactly one of the three. (With loss a
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
        const SEGMENT: u64 = 2_500; // > max_retries × retransmit_cycles
        const DENIED_PURPOSE: u16 = 9;
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
            let mut h = Harness::new(policy.clone());
            let allowed: BTreeSet<u16> = [7].into_iter().collect();
            for (egp, node, peer, role) in [
                (&mut h.egp_a, A, B, Role::Master),
                (&mut h.egp_b, B, A, Role::Slave),
            ] {
                let mut cfg = EgpConfig::for_scenario(
                    node,
                    peer,
                    role,
                    ScenarioParams::lab(),
                    policy.clone(),
                );
                cfg.dq.allowed_purposes = Some(allowed.clone());
                *egp = Egp::new(cfg);
            }
            let hot = h.model.clone();
            let mut created: Vec<Created> = Vec::new();
            let traffic_until = 4 * SEGMENT;
            let mut cycle = 0;
            while cycle < traffic_until || !(h.egp_a.is_quiescent() && h.egp_b.is_quiescent()) {
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
                if cycle < traffic_until && rng.bernoulli(0.004) {
                    let at_a = rng.bernoulli(0.5);
                    let mut msg = create_msg(1 + rng.below(3) as u16, rng.bernoulli(0.3), 0);
                    msg.priority = if msg.flags.store {
                        rng.below(2) as u8
                    } else {
                        2
                    };
                    msg.flags.consecutive = rng.bernoulli(0.7);
                    if rng.bernoulli(0.1) {
                        msg.purpose_id = DENIED_PURPOSE;
                    }
                    // ≈ 12 000 or 20 000 cycles a pair; the FEU wants 8 300
                    // for M and 10 800 for K.
                    msg.max_time_us = (120_000 + 80_000 * rng.below(2)) * u64::from(msg.number);
                    let pairs = msg.number;
                    let egp = if at_a { &mut h.egp_a } else { &mut h.egp_b };
                    let (create_id, evs) = egp.create(msg, cycle);
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
                    let evs = egp.expire_request(c.create_id, cycle);
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
