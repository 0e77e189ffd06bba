//! Protocol 1: the Midpoint Heralding Protocol.
//!
//! Two state machines, written sans-IO (inputs in, outputs out, no
//! clocks or sockets inside — the simulation harness owns both):
//!
//! * [`NodeMhp`] — the node side. Polled every MHP cycle, it asks the
//!   EGP whether to attempt entanglement ("trigger?"), fires the
//!   hardware, sends `GEN` to the station, and matches returning
//!   `REPLY` frames to in-flight attempts (several may be outstanding —
//!   emission multiplexing, §5.2).
//! * [`Midpoint`] — station H. Collects photons and `GEN` frames per
//!   detection window, verifies the two nodes' queue IDs match,
//!   samples the physical outcome from the [`crate::attempt::AttemptModel`],
//!   numbers successes with an increasing sequence number, and answers
//!   both nodes.

use crate::attempt::{AttemptModel, AttemptOutcome};
use qlink_des::{DetRng, IntMap};
use qlink_quantum::{Basis, QuantumState};
use qlink_wire::fields::{AbsQueueId, MhpError, MidpointOutcome, ReplyOutcome};
use qlink_wire::mhp::{GenMsg, ReplyMsg};
use std::collections::VecDeque;

/// Node identifier (the paper's two controllable nodes are A and B).
pub type NodeId = u32;

/// What kind of attempt the EGP requested for this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptKind {
    /// K-type: keep the entangled electron (possibly move to memory).
    Keep,
    /// M-type: measure the electron immediately in `basis`, before the
    /// reply arrives (§5.1.2).
    Measure {
        /// Measurement basis for this attempt (the pre-shared basis
        /// string `r` of Appendix B).
        basis: Basis,
    },
}

/// The EGP's "yes" answer to the MHP's trigger poll (Fig. 35 content).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptSpec {
    /// Absolute queue ID of the request being served; forwarded to H
    /// and checked against the peer's (§5.1.1: "protect against errors
    /// in the classical control").
    pub queue_id: AbsQueueId,
    /// Bright-state population α from the FEU.
    pub alpha: f64,
    /// K or M handling.
    pub kind: AttemptKind,
    /// Always `false`: no run takes an Appendix B test round, and
    /// nothing reads the flag.
    pub test_round: bool, // benchmark-compat: ROADMAP item 1 deletes this
}

/// Everything one cycle of a triggering node produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleActions {
    /// The photon now in flight to the station (physical layer).
    pub photon: PhotonSubmission,
    /// The `GEN` control frame for the station (classical layer — may
    /// be lost independently of the photon).
    pub gen: GenMsg,
}

/// The physical half of an attempt as it reaches the station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotonSubmission {
    /// Which node emitted it.
    pub node: NodeId,
    /// Detection window (MHP cycle) it belongs to.
    pub cycle: u64,
    /// Bright-state population used.
    pub alpha: f64,
    /// The node's measurement basis when this is an M-type attempt.
    pub measure_basis: Option<Basis>,
}

/// The `RESULT` the node MHP passes up to its EGP (Fig. 36 content).
#[derive(Debug, Clone, PartialEq)]
pub struct MhpResult {
    /// Cycle (detection window) of the attempt.
    pub cycle: u64,
    /// What the node attempted.
    pub spec: AttemptSpec,
    /// The midpoint's reply, or `None` for a local failure
    /// (`GEN_FAIL` — e.g. the reply never came back).
    pub reply: Option<ReplyMsg>,
}

impl MhpResult {
    /// The effective outcome for EGP processing.
    pub fn outcome(&self) -> ReplyOutcome {
        match &self.reply {
            Some(r) => r.outcome,
            None => ReplyOutcome::Error(MhpError::GenFail),
        }
    }
}

/// Node-side MHP (Protocol 1 steps 1 and 3).
#[derive(Debug)]
pub struct NodeMhp {
    node_id: NodeId,
    /// In-flight attempts, oldest cycle first: the one record of an
    /// attempt until its REPLY arrives or its reply deadline passes.
    /// Replies come back nearly in order, so an attempt leaves from at
    /// or near the front, and the deque reaches its working size once
    /// and then never allocates.
    pending: VecDeque<(u64, AttemptSpec)>,
}

impl NodeMhp {
    /// Creates the MHP for a node.
    pub fn new(node_id: NodeId) -> Self {
        NodeMhp {
            node_id,
            pending: VecDeque::new(),
        }
    }

    /// This node's ID.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Number of attempts with no reply yet (the emission-multiplexing
    /// depth).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The cycle of the oldest attempt with no reply yet: the first to
    /// reach its reply deadline.
    pub fn oldest_pending(&self) -> Option<u64> {
        self.pending.front().map(|&(cycle, _)| cycle)
    }

    /// One timestep (Protocol 1 step 1): the EGP answered the poll with
    /// `spec`; fire the attempt.
    ///
    /// # Panics
    /// Panics unless `cycle` is later than every attempt in flight.
    pub fn trigger(&mut self, cycle: u64, spec: AttemptSpec) -> CycleActions {
        assert!(
            self.pending.back().is_none_or(|&(last, _)| last < cycle),
            "attempt in cycle {cycle} is not after every one in flight"
        );
        self.pending.push_back((cycle, spec));
        CycleActions {
            photon: PhotonSubmission {
                node: self.node_id,
                cycle,
                alpha: spec.alpha,
                measure_basis: match spec.kind {
                    AttemptKind::Measure { basis } => Some(basis),
                    AttemptKind::Keep => None,
                },
            },
            gen: GenMsg {
                queue_id: spec.queue_id,
                timestamp_cycle: cycle,
            },
        }
    }

    /// Takes the in-flight attempt of `cycle` out of the table.
    fn take(&mut self, cycle: u64) -> Option<AttemptSpec> {
        let i = self
            .pending
            .binary_search_by_key(&cycle, |&(c, _)| c)
            .ok()?;
        self.pending.remove(i).map(|(_, spec)| spec)
    }

    /// A `REPLY` frame arrived from the station (Protocol 1 step 3).
    /// Returns the `RESULT` for the EGP, or `None` if the reply matches
    /// no in-flight attempt (stale duplicate — dropped).
    pub fn on_reply(&mut self, reply: ReplyMsg) -> Option<MhpResult> {
        let spec = self.take(reply.timestamp_cycle)?;
        Some(MhpResult {
            cycle: reply.timestamp_cycle,
            spec,
            reply: Some(reply),
        })
    }

    /// The reply deadline for `cycle` passed with no word from the
    /// station (lost GEN or lost REPLY). Produces a local `GEN_FAIL`
    /// result if the attempt is still pending.
    pub fn on_reply_timeout(&mut self, cycle: u64) -> Option<MhpResult> {
        let spec = self.take(cycle)?;
        Some(MhpResult {
            cycle,
            spec,
            reply: None,
        })
    }
}

/// A heralded success as recorded by the station, for delivery into the
/// simulation's shared pair ledger.
#[derive(Debug, Clone)]
pub struct Herald {
    /// Midpoint sequence number of this pair.
    pub seq: u16,
    /// Which Bell state was heralded.
    pub outcome: AttemptOutcome,
    /// Conditional two-electron state `[e_A, e_B]` at emission time.
    pub state: QuantumState,
    /// For M-type attempts: the two nodes' (noisy) measurement bits
    /// `(bit_A, bit_B)`, physically determined at node measurement time
    /// but sampled here where the joint distribution lives.
    pub measured_bits: Option<(u8, u8)>,
    /// The queue ID both nodes submitted.
    pub queue_id: AbsQueueId,
    /// Detection window of the attempt.
    pub cycle: u64,
    /// α used for the attempt (needed for eq. (25) dephasing of
    /// *other* stored pairs).
    pub alpha: f64,
}

/// Output of evaluating one detection window at the station.
#[derive(Debug, Clone, Default)]
pub struct WindowEvaluation {
    /// Replies to transmit, addressed by node: slot 0 is the reply for
    /// the station's first node, slot 1 for its second; `None` where
    /// that node gets no answer.
    pub replies: [Option<(NodeId, ReplyMsg)>; 2],
    /// The heralded pair, if the attempt succeeded.
    pub herald: Option<Herald>,
}

/// Station H (Protocol 1 step 2).
#[derive(Debug)]
pub struct Midpoint {
    node_a: NodeId,
    node_b: NodeId,
    next_seq: u16,
    windows: IntMap<u64, Window>,
}

/// What reached the station for one detection window: at most one
/// photon and one `GEN` per node (slot 0: `node_a`, slot 1: `node_b`).
#[derive(Debug, Default)]
struct Window {
    photons: [Option<PhotonSubmission>; 2],
    gens: [Option<GenMsg>; 2],
}

impl Midpoint {
    /// Creates the station between two nodes.
    pub fn new(node_a: NodeId, node_b: NodeId) -> Self {
        assert_ne!(node_a, node_b, "distinct nodes required");
        Midpoint {
            node_a,
            node_b,
            next_seq: 0,
            windows: IntMap::default(),
        }
    }

    /// The next sequence number the station will assign.
    pub fn next_seq(&self) -> u16 {
        self.next_seq
    }

    /// The window slot of `node`; `None` for a node this station does
    /// not serve.
    fn slot(&self, node: NodeId) -> Option<usize> {
        if node == self.node_a {
            Some(0)
        } else if node == self.node_b {
            Some(1)
        } else {
            None
        }
    }

    /// A photon arrived for its detection window. The first photon per
    /// node and window counts; anything else is ignored.
    pub fn on_photon(&mut self, photon: PhotonSubmission) {
        if let Some(slot) = self.slot(photon.node) {
            let window = self.windows.entry(photon.cycle).or_default();
            window.photons[slot].get_or_insert(photon);
        }
    }

    /// The bright-state population the open detection window `cycle`
    /// is evaluated under: that of the first node's photon, else the
    /// second's. `None` once the window is closed, or if no photon
    /// reached it.
    pub fn window_alpha(&self, cycle: u64) -> Option<f64> {
        let [a, b] = self.windows.get(&cycle)?.photons;
        a.or(b).map(|photon| photon.alpha)
    }

    /// A `GEN` control frame arrived. The first `GEN` per node and
    /// window counts; anything else is ignored.
    pub fn on_gen(&mut self, from: NodeId, msg: GenMsg) {
        if let Some(slot) = self.slot(from) {
            let window = self.windows.entry(msg.timestamp_cycle).or_default();
            window.gens[slot].get_or_insert(msg);
        }
    }

    /// Closes and evaluates the detection window for `cycle`
    /// (Protocol 1 step 2), sampling physics from `model`.
    pub fn evaluate_window(
        &mut self,
        cycle: u64,
        model: &AttemptModel,
        rng: &mut DetRng,
    ) -> WindowEvaluation {
        let window = self.windows.remove(&cycle).unwrap_or_default();
        let mut eval = WindowEvaluation::default();
        let [gen_a, gen_b] = window.gens;
        let [photon_a, photon_b] = window.photons;

        match (gen_a, gen_b) {
            (None, None) => eval, // nothing to answer (step 2 has no case for this)
            (Some(ga), None) => {
                // Step 2(a)(iii): GEN only from A.
                eval.replies[0] = Some((
                    self.node_a,
                    ReplyMsg {
                        outcome: ReplyOutcome::Error(MhpError::NoMessageOther),
                        mhp_seq: self.next_seq,
                        receiver_qid: ga.queue_id,
                        peer_qid: None,
                        timestamp_cycle: cycle,
                    },
                ));
                eval
            }
            (None, Some(gb)) => {
                eval.replies[1] = Some((
                    self.node_b,
                    ReplyMsg {
                        outcome: ReplyOutcome::Error(MhpError::NoMessageOther),
                        mhp_seq: self.next_seq,
                        receiver_qid: gb.queue_id,
                        peer_qid: None,
                        timestamp_cycle: cycle,
                    },
                ));
                eval
            }
            (Some(ga), Some(gb)) => {
                if ga.queue_id != gb.queue_id {
                    // Step 2(a)(ii): queue mismatch.
                    eval.replies = [
                        (self.node_a, ga.queue_id, gb.queue_id),
                        (self.node_b, gb.queue_id, ga.queue_id),
                    ]
                    .map(|(node, own, other)| {
                        Some((
                            node,
                            ReplyMsg {
                                outcome: ReplyOutcome::Error(MhpError::QueueMismatch),
                                mhp_seq: self.next_seq,
                                receiver_qid: own,
                                peer_qid: Some(other),
                                timestamp_cycle: cycle,
                            },
                        ))
                    });
                    return eval;
                }
                // Step 2(a)(iv): both photons must be in the window for
                // a physical evaluation; a missing photon (hardware
                // failure upstream) behaves as an attempt failure.
                let outcome = match (photon_a, photon_b) {
                    (Some(_), Some(_)) => model.sample(rng),
                    _ => AttemptOutcome::Fail,
                };
                let (wire_outcome, seq) = match outcome {
                    AttemptOutcome::Fail => {
                        (ReplyOutcome::Attempt(MidpointOutcome::Fail), self.next_seq)
                    }
                    AttemptOutcome::PsiPlus | AttemptOutcome::PsiMinus => {
                        let seq = self.next_seq;
                        self.next_seq = self.next_seq.wrapping_add(1);
                        let mo = if outcome == AttemptOutcome::PsiPlus {
                            MidpointOutcome::PsiPlus
                        } else {
                            MidpointOutcome::PsiMinus
                        };
                        (ReplyOutcome::Attempt(mo), seq)
                    }
                };
                if outcome.is_success() {
                    let state = model
                        .conditional_state(outcome)
                        .expect("successful outcome has a state")
                        .clone();
                    // M-type: both nodes measured their electrons
                    // locally; the bits' joint distribution lives here.
                    let measured_bits = match (
                        photon_a.and_then(|p| p.measure_basis),
                        photon_b.and_then(|p| p.measure_basis),
                    ) {
                        (Some(ba), Some(bb)) => {
                            Some(model.sample_measurement_bits(outcome, ba, bb, rng))
                        }
                        _ => None,
                    };
                    eval.herald = Some(Herald {
                        seq,
                        outcome,
                        state,
                        measured_bits,
                        queue_id: ga.queue_id,
                        cycle,
                        alpha: model.alpha(),
                    });
                }
                eval.replies = [
                    (self.node_a, ga.queue_id, gb.queue_id),
                    (self.node_b, gb.queue_id, ga.queue_id),
                ]
                .map(|(node, own, other)| {
                    Some((
                        node,
                        ReplyMsg {
                            outcome: wire_outcome,
                            mhp_seq: seq,
                            receiver_qid: own,
                            peer_qid: Some(other),
                            timestamp_cycle: cycle,
                        },
                    ))
                });
                eval
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScenarioParams;
    use qlink_quantum::bell::BellState;

    const A: NodeId = 1;
    const B: NodeId = 2;

    fn spec(qseq: u16) -> AttemptSpec {
        AttemptSpec {
            queue_id: AbsQueueId::new(0, qseq),
            alpha: 0.3,
            kind: AttemptKind::Keep,
            test_round: false,
        }
    }

    /// A model with an artificially high success probability so
    /// protocol tests don't need thousands of cycles.
    fn hot_model() -> AttemptModel {
        AttemptModel::synthetic(
            0.25,
            0.25,
            BellState::PsiPlus.state(),
            BellState::PsiMinus.state(),
            0.3,
        )
    }

    fn run_window(
        mid: &mut Midpoint,
        mhp_a: &mut NodeMhp,
        mhp_b: &mut NodeMhp,
        cycle: u64,
        model: &AttemptModel,
        rng: &mut DetRng,
    ) -> WindowEvaluation {
        let act_a = mhp_a.trigger(cycle, spec(5));
        let act_b = mhp_b.trigger(cycle, spec(5));
        mid.on_photon(act_a.photon);
        mid.on_photon(act_b.photon);
        mid.on_gen(A, act_a.gen);
        mid.on_gen(B, act_b.gen);
        mid.evaluate_window(cycle, model, rng)
    }

    #[test]
    fn successful_window_heralds_and_numbers_pairs() {
        let mut mid = Midpoint::new(A, B);
        let mut mhp_a = NodeMhp::new(A);
        let mut mhp_b = NodeMhp::new(B);
        let model = hot_model();
        let mut rng = DetRng::new(1);

        let mut heralds = 0u32;
        let mut last_seq = None;
        for cycle in 0..100 {
            let eval = run_window(&mut mid, &mut mhp_a, &mut mhp_b, cycle, &model, &mut rng);
            assert!(eval.replies.iter().all(Option::is_some));
            if let Some(h) = &eval.herald {
                heralds += 1;
                if let Some(prev) = last_seq {
                    assert_eq!(h.seq, prev + 1, "sequence numbers must increase by 1");
                }
                last_seq = Some(h.seq);
            }
            // Deliver replies and check RESULTs match.
            for (node, reply) in eval.replies.into_iter().flatten() {
                let res = if node == A {
                    mhp_a.on_reply(reply)
                } else {
                    mhp_b.on_reply(reply)
                }
                .expect("reply matches a pending attempt");
                assert_eq!(res.cycle, cycle);
            }
        }
        assert!(heralds > 20, "hot model should herald often: {heralds}");
        assert_eq!(mhp_a.in_flight(), 0);
        assert_eq!(mhp_b.in_flight(), 0);
    }

    #[test]
    fn queue_mismatch_detected() {
        let mut mid = Midpoint::new(A, B);
        let mut mhp_a = NodeMhp::new(A);
        let mut mhp_b = NodeMhp::new(B);
        let model = hot_model();
        let mut rng = DetRng::new(2);

        let act_a = mhp_a.trigger(0, spec(5));
        let mut s2 = spec(6); // different qseq
        s2.alpha = 0.3;
        let act_b = mhp_b.trigger(0, s2);
        mid.on_photon(act_a.photon);
        mid.on_photon(act_b.photon);
        mid.on_gen(A, act_a.gen);
        mid.on_gen(B, act_b.gen);
        let eval = mid.evaluate_window(0, &model, &mut rng);
        assert!(eval.herald.is_none());
        assert!(eval.replies.iter().all(Option::is_some));
        for (_, reply) in eval.replies.iter().flatten() {
            assert_eq!(reply.outcome, ReplyOutcome::Error(MhpError::QueueMismatch));
            assert!(reply.peer_qid.is_some());
        }
    }

    #[test]
    fn single_gen_gets_no_message_other() {
        let mut mid = Midpoint::new(A, B);
        let mut mhp_a = NodeMhp::new(A);
        let model = hot_model();
        let mut rng = DetRng::new(3);

        let act_a = mhp_a.trigger(7, spec(1));
        mid.on_photon(act_a.photon);
        mid.on_gen(A, act_a.gen);
        // B's GEN was lost in the classical channel.
        let eval = mid.evaluate_window(7, &model, &mut rng);
        assert!(eval.herald.is_none());
        assert!(eval.replies[1].is_none());
        let (node, reply) = eval.replies[0].as_ref().expect("A is answered");
        assert_eq!(*node, A);
        assert_eq!(reply.outcome, ReplyOutcome::Error(MhpError::NoMessageOther));
        assert!(reply.peer_qid.is_none());
    }

    #[test]
    fn empty_window_produces_nothing() {
        let mut mid = Midpoint::new(A, B);
        let model = hot_model();
        let mut rng = DetRng::new(4);
        let eval = mid.evaluate_window(99, &model, &mut rng);
        assert_eq!(eval.replies, [None, None]);
        assert!(eval.herald.is_none());
    }

    #[test]
    fn reply_timeout_yields_gen_fail() {
        let mut mhp_a = NodeMhp::new(A);
        mhp_a.trigger(3, spec(0));
        let res = mhp_a.on_reply_timeout(3).unwrap();
        assert_eq!(res.outcome(), ReplyOutcome::Error(MhpError::GenFail));
        assert!(mhp_a.on_reply_timeout(3).is_none(), "only once");
    }

    #[test]
    fn oldest_pending_is_the_first_deadline_due() {
        let mut mhp_a = NodeMhp::new(A);
        for cycle in [3, 5, 8] {
            mhp_a.trigger(cycle, spec(0));
        }
        assert_eq!(mhp_a.oldest_pending(), Some(3));
        // An attempt answered out of order leaves the rest in order.
        assert!(mhp_a.on_reply_timeout(5).is_some());
        assert_eq!(mhp_a.oldest_pending(), Some(3));
        assert!(mhp_a.on_reply_timeout(3).is_some());
        assert_eq!(mhp_a.oldest_pending(), Some(8));
        assert!(mhp_a.on_reply_timeout(4).is_none());
        assert!(mhp_a.on_reply_timeout(8).is_some());
        assert_eq!(mhp_a.oldest_pending(), None);
    }

    #[test]
    #[should_panic(expected = "not after every one in flight")]
    fn a_second_attempt_in_one_cycle_is_refused() {
        let mut mhp_a = NodeMhp::new(A);
        mhp_a.trigger(4, spec(0));
        mhp_a.trigger(4, spec(1));
    }

    #[test]
    fn stale_reply_is_dropped() {
        let mut mhp_a = NodeMhp::new(A);
        let reply = ReplyMsg {
            outcome: ReplyOutcome::Attempt(MidpointOutcome::Fail),
            mhp_seq: 0,
            receiver_qid: AbsQueueId::new(0, 0),
            peer_qid: None,
            timestamp_cycle: 42,
        };
        assert!(mhp_a.on_reply(reply).is_none());
    }

    #[test]
    fn multiplexed_attempts_tracked_independently() {
        // QL2020 M-type: several attempts in flight before any reply.
        let mut mhp_a = NodeMhp::new(A);
        for cycle in 0..14 {
            let s = AttemptSpec {
                queue_id: AbsQueueId::new(2, 9),
                alpha: 0.1,
                kind: AttemptKind::Measure { basis: Basis::Z },
                test_round: false,
            };
            mhp_a.trigger(cycle, s);
        }
        assert_eq!(mhp_a.in_flight(), 14);
        // Replies arrive in order; each matches its window.
        for cycle in 0..14 {
            let reply = ReplyMsg {
                outcome: ReplyOutcome::Attempt(MidpointOutcome::Fail),
                mhp_seq: 0,
                receiver_qid: AbsQueueId::new(2, 9),
                peer_qid: Some(AbsQueueId::new(2, 9)),
                timestamp_cycle: cycle,
            };
            let res = mhp_a.on_reply(reply).unwrap();
            assert_eq!(res.cycle, cycle);
        }
        assert_eq!(mhp_a.in_flight(), 0);
    }

    #[test]
    fn m_type_attempts_sample_bits() {
        let mut mid = Midpoint::new(A, B);
        let mut mhp_a = NodeMhp::new(A);
        let mut mhp_b = NodeMhp::new(B);
        let model = hot_model();
        let mut rng = DetRng::new(5);

        let mspec = AttemptSpec {
            queue_id: AbsQueueId::new(2, 1),
            alpha: 0.3,
            kind: AttemptKind::Measure { basis: Basis::Z },
            test_round: false,
        };
        let mut saw_bits = false;
        for cycle in 0..50 {
            let act_a = mhp_a.trigger(cycle, mspec);
            let act_b = mhp_b.trigger(cycle, mspec);
            assert_eq!(act_a.photon.measure_basis, Some(Basis::Z));
            mid.on_photon(act_a.photon);
            mid.on_photon(act_b.photon);
            mid.on_gen(A, act_a.gen);
            mid.on_gen(B, act_b.gen);
            let eval = mid.evaluate_window(cycle, &model, &mut rng);
            if let Some(h) = eval.herald {
                let (a, b) = h.measured_bits.expect("M attempts carry bits");
                // |Ψ±⟩ are Z-anticorrelated (up to readout noise).
                if a != b {
                    saw_bits = true;
                }
            }
            mhp_a.on_reply_timeout(cycle);
            mhp_b.on_reply_timeout(cycle);
        }
        assert!(saw_bits, "expected at least one herald with bits");
    }

    #[test]
    fn keep_attempts_have_no_bits() {
        let mut mid = Midpoint::new(A, B);
        let mut mhp_a = NodeMhp::new(A);
        let mut mhp_b = NodeMhp::new(B);
        let model = hot_model();
        let mut rng = DetRng::new(6);
        for cycle in 0..50 {
            let eval = run_window(&mut mid, &mut mhp_a, &mut mhp_b, cycle, &model, &mut rng);
            if let Some(h) = eval.herald {
                assert!(h.measured_bits.is_none());
                return;
            }
            // Clean up pending attempts for the next iteration.
            mhp_a.on_reply_timeout(cycle);
            mhp_b.on_reply_timeout(cycle);
        }
        panic!("no herald in 50 hot-model windows");
    }

    #[test]
    fn full_attempt_model_integrates() {
        // End-to-end with the real Lab model: run enough windows that a
        // success is overwhelmingly likely (psucc ≈ 1.8e-4 at α=0.3).
        let params = ScenarioParams::lab();
        let model = AttemptModel::build(&params, 0.3);
        let mut mid = Midpoint::new(A, B);
        let mut mhp_a = NodeMhp::new(A);
        let mut mhp_b = NodeMhp::new(B);
        let mut rng = DetRng::new(7);
        let mut heralds = 0;
        let windows = 60_000u64;
        for cycle in 0..windows {
            let eval = run_window(&mut mid, &mut mhp_a, &mut mhp_b, cycle, &model, &mut rng);
            if eval.herald.is_some() {
                heralds += 1;
            }
            for (node, reply) in eval.replies.into_iter().flatten() {
                if node == A {
                    mhp_a.on_reply(reply);
                } else {
                    mhp_b.on_reply(reply);
                }
            }
        }
        let expected = model.success_probability() * windows as f64;
        assert!(
            heralds > 0 && (heralds as f64) < expected * 3.0 + 10.0,
            "heralds = {heralds}, expected ≈ {expected:.1}"
        );
    }
}
