//! The Distributed Queue Protocol (§5.2.1, Appendix E.1).
//!
//! Both nodes hold local priority queues that the DQP keeps
//! synchronized: one node is the **master** (it owns queue-sequence
//! assignment), the other the **slave**. Adds use a two-way handshake
//! (ADD → ACK/REJ) with retransmission on loss; a windowing mechanism
//! bounds how many consecutive same-origin items can commit while the
//! other origin has items waiting (the fairness property of §E.1.2).
//!
//! Ordering consistency: the master's commit order defines the queue
//! order. Queue *keys* `(QID, QSEQ)` are assigned by the master and
//! carried in ADD/ACK frames, so both sides converge on identical
//! content even under loss and retransmission; schedulers order by
//! fields carried in the frames (never by local arrival time), keeping
//! the two nodes' decisions deterministic and identical.
//!
//! The queue's table is the link layer's only table of requests. The
//! DQP moves one [`QueueItem`] through it — frame, pending ADD, entry —
//! without re-listing its fields, and carries the [`Service`] state the
//! EGP attaches to each item without ever reading it: every decision
//! here depends on synchronised fields alone.

use crate::request::{Request, Service};
use qlink_wire::dqp::{DqpFrameType, DqpMessage, QueueItem};
use qlink_wire::fields::AbsQueueId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Which side of the distributed queue this node is (§E.1.2: two nodes
/// only, one master marshals access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Owns queue-sequence assignment.
    Master,
    /// Requests sequence numbers from the master.
    Slave,
}

/// Why an ADD was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The target queue is at capacity.
    QueueFull,
    /// The purpose ID violates the local queue rules (§4.1.1 item 7).
    PurposeDenied,
}

/// Events the DQP reports to the EGP.
#[derive(Debug, Clone, PartialEq)]
pub enum DqpEvent {
    /// Send this frame to the peer.
    Send(DqpMessage),
    /// A local `add` completed; the item is committed here under `aid`.
    AddSucceeded {
        /// The create ID whose add completed.
        create_id: u16,
        /// The assigned absolute queue ID.
        aid: AbsQueueId,
    },
    /// A local `add` was refused by the peer (or local rules).
    AddRejected {
        /// The create ID whose add failed.
        create_id: u16,
        /// Why.
        reason: RejectReason,
    },
    /// A local `add` gave up after exhausting retransmissions
    /// (the ERR_NOTIME path of Protocol 2).
    AddTimedOut {
        /// The create ID whose add failed.
        create_id: u16,
    },
    /// A local `add` retracted while in flight was acknowledged after
    /// all: nothing was committed here, but the peer holds the item
    /// under `aid` and must be told to drop it.
    Retracted {
        /// The retracted create ID.
        create_id: u16,
        /// The queue ID the master had assigned it.
        aid: AbsQueueId,
    },
}

/// One local CREATE awaiting its ACK/REJ.
#[derive(Debug, Clone)]
struct PendingAdd {
    /// The item as the next (re)transmitted ADD carries it. A master
    /// has committed it already, so it has its queue ID.
    item: QueueItem,
    /// Slave: the service state the item is committed with once the
    /// ACK brings its queue ID. A master's moved into the queue when
    /// the add was made.
    service: Option<Service>,
    /// The EGP no longer wants the item (see
    /// [`DistributedQueue::retract_pending`]).
    retracted: bool,
    retries_left: u8,
    next_retransmit_cycle: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Ours,
    Theirs,
}

/// Configuration for the distributed queue.
#[derive(Debug, Clone)]
pub struct DqueueConfig {
    /// Node ID of the master side.
    pub master_node: u32,
    /// Node ID of the slave side.
    pub slave_node: u32,
    /// Number of priority queues (`L`; the paper provisions 16).
    pub num_queues: u8,
    /// Capacity per queue (`x`; 256 in the evaluation's Ultra runs).
    pub max_items_per_queue: usize,
    /// Fairness window `W` (max consecutive same-origin commits while
    /// the other origin waits).
    pub fairness_window: u8,
    /// WFQ weight per queue index (used to compute virtual finish
    /// times at the master). Missing entries default to 1.0.
    pub wfq_weights: BTreeMap<u8, f64>,
    /// Purpose IDs accepted from the peer (`None` = accept all).
    pub allowed_purposes: Option<BTreeSet<u16>>,
    /// Retransmission interval in MHP cycles.
    pub retransmit_cycles: u64,
    /// Retransmissions before giving up.
    pub max_retries: u8,
}

impl Default for DqueueConfig {
    fn default() -> Self {
        DqueueConfig {
            master_node: 1,
            slave_node: 2,
            num_queues: 3,
            max_items_per_queue: 256,
            fairness_window: 4,
            wfq_weights: BTreeMap::new(),
            allowed_purposes: None,
            retransmit_cycles: 200,
            max_retries: 10,
        }
    }
}

/// One node's half of the distributed queue.
#[derive(Debug)]
pub struct DistributedQueue {
    role: Role,
    config: DqueueConfig,
    /// Every committed request, in queue order `(QID, QSEQ)`.
    table: BTreeMap<AbsQueueId, Request>,
    next_qseq: Vec<u16>,
    next_cseq: u8,
    /// ADDs awaiting their ACK/REJ, by `CSEQ`. Ordered, so the
    /// retransmissions and give-ups [`DistributedQueue::tick`] emits
    /// come out in `CSEQ` order, not hash order.
    pending: BTreeMap<u8, PendingAdd>,
    /// Master: dedup of slave cseq → assigned aid (to re-ACK retransmits).
    slave_cseq_seen: BTreeMap<u8, AbsQueueId>,
    /// Master-side staging for the fairness window.
    staging: VecDeque<(Origin, u8, QueueItem, Service)>,
    run_origin: Option<Origin>,
    run_len: u8,
    /// Master-side WFQ virtual-finish bookkeeping.
    last_virtual_finish: Vec<f64>,
}

impl DistributedQueue {
    /// Creates one side of the queue.
    pub fn new(role: Role, config: DqueueConfig) -> Self {
        let n = config.num_queues as usize;
        DistributedQueue {
            role,
            table: BTreeMap::new(),
            next_qseq: vec![0; n],
            next_cseq: 0,
            pending: BTreeMap::new(),
            slave_cseq_seen: BTreeMap::new(),
            staging: VecDeque::new(),
            run_origin: None,
            run_len: 0,
            last_virtual_finish: vec![0.0; n],
            config,
        }
    }

    /// This node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Items currently committed locally, across all queues.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no items are committed.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// `true` when this half holds no work at all: nothing committed,
    /// nothing staged for the fairness window, and no ADD awaiting its
    /// ACK. [`DistributedQueue::tick`] is then a no-op at any cycle.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.staging.is_empty() && self.is_empty()
    }

    /// Looks up a committed request.
    pub fn get(&self, aid: AbsQueueId) -> Option<&Request> {
        self.table.get(&aid)
    }

    /// Looks up a committed request to record progress on it.
    pub fn get_mut(&mut self, aid: AbsQueueId) -> Option<&mut Request> {
        self.table.get_mut(&aid)
    }

    /// Forgets a committed request, service state and all. The one way
    /// a request leaves the link layer, whatever the reason: completed
    /// and lingered, timed out, retracted, abandoned or rolled back.
    pub fn remove(&mut self, aid: AbsQueueId) -> Option<Request> {
        self.table.remove(&aid)
    }

    /// Iterates all committed requests in `(QID, QSEQ)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.table.values()
    }

    /// Starts a local add (Protocol 2 step 1) of `item`, to be
    /// committed with `service`. Emits frames and, eventually,
    /// `AddSucceeded`/`AddRejected`/`AddTimedOut`.
    pub fn add(&mut self, mut item: QueueItem, service: Service, cycle: u64) -> Vec<DqpEvent> {
        // The MR flag records which node originated the request; it is
        // part of the synchronized item, so set it at the source.
        item.flags.master_request = self.role == Role::Master;
        let create_id = item.create_id;
        if item.priority >= self.config.num_queues {
            return vec![DqpEvent::AddRejected {
                create_id,
                reason: RejectReason::PurposeDenied,
            }];
        }
        if self.queue_full(item.priority) {
            return vec![DqpEvent::AddRejected {
                create_id,
                reason: RejectReason::QueueFull,
            }];
        }
        let cseq = self.next_cseq;
        self.next_cseq = self.next_cseq.wrapping_add(1);
        match self.role {
            Role::Master => {
                // Stage (fairness), commit, then announce to the slave.
                self.staging.push_back((Origin::Ours, cseq, item, service));
                let mut events = self.flush_staging(cycle);
                // flush_staging registered the pending add; send its ADD.
                events.push(DqpEvent::Send(self.add_frame(cseq)));
                events
            }
            Role::Slave => {
                self.await_ack(cseq, item, Some(service), cycle);
                vec![DqpEvent::Send(self.add_frame(cseq))]
            }
        }
    }

    /// Marks the in-flight, not yet committed add of `create_id` as no
    /// longer wanted: it will report neither success nor failure, and
    /// if the master commits it anyway the ACK yields
    /// [`DqpEvent::Retracted`] instead of an entry. `false` when no
    /// such add is in flight.
    pub fn retract_pending(&mut self, create_id: u16) -> bool {
        // What a master still awaits the ACK of is committed already.
        if self.role == Role::Master {
            return false;
        }
        let mut in_flight = self.pending.values_mut();
        match in_flight.find(|p| p.item.create_id == create_id) {
            Some(p) => {
                p.retracted = true;
                true
            }
            None => false,
        }
    }

    /// Processes a DQP frame from the peer. `peer_service` makes the
    /// service state an item the peer is adding is committed with; it
    /// is called for an ADD that commits, and for no other frame.
    pub fn on_frame(
        &mut self,
        msg: DqpMessage,
        peer_service: impl FnOnce() -> Service,
        cycle: u64,
    ) -> Vec<DqpEvent> {
        match (self.role, msg.frame_type) {
            (Role::Master, DqpFrameType::Add) => self.master_on_slave_add(msg, peer_service, cycle),
            (Role::Slave, DqpFrameType::Add) => self.slave_on_master_add(msg, peer_service),
            (_, DqpFrameType::Ack) => self.on_ack(msg),
            (_, DqpFrameType::Rej) => self.on_rej(msg),
        }
    }

    /// Drives retransmission timers; call once per MHP cycle (or less
    /// often — timing uses the supplied cycle).
    pub fn tick(&mut self, cycle: u64) -> Vec<DqpEvent> {
        // Called every MHP cycle; with nothing awaiting an ACK there is
        // nothing to retransmit or time out.
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut events = Vec::new();
        // In CSEQ order: the frames below draw from the channel RNG in
        // the order they are emitted.
        let due: Vec<u8> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_retransmit_cycle <= cycle)
            .map(|(c, _)| *c)
            .collect();
        for cseq in due {
            let p = self.pending.get_mut(&cseq).expect("collected above");
            if p.retries_left == 0 {
                if let Some(create_id) = self.abandon_pending(cseq) {
                    events.push(DqpEvent::AddTimedOut { create_id });
                }
            } else {
                p.retries_left -= 1;
                p.next_retransmit_cycle = cycle + self.config.retransmit_cycles;
                events.push(DqpEvent::Send(self.add_frame(cseq)));
            }
        }
        events
    }

    fn queue_full(&self, qid: u8) -> bool {
        let queue = AbsQueueId { qid, qseq: 0 }..=AbsQueueId {
            qid,
            qseq: u16::MAX,
        };
        self.table.range(queue).count() >= self.config.max_items_per_queue
    }

    fn purpose_allowed(&self, purpose: u16) -> bool {
        match &self.config.allowed_purposes {
            Some(set) => set.contains(&purpose),
            None => true,
        }
    }

    fn weight(&self, qid: u8) -> f64 {
        *self.config.wfq_weights.get(&qid).unwrap_or(&1.0)
    }

    /// Enters `item` in the local queue under the ID it carries.
    fn commit(&mut self, item: QueueItem, service: Service) {
        let origin = if item.flags.master_request {
            self.config.master_node
        } else {
            self.config.slave_node
        };
        let request = Request {
            item,
            origin,
            service,
        };
        self.table.insert(item.queue_id, request);
    }

    /// Registers an ADD for (re)transmission until the peer answers.
    fn await_ack(&mut self, cseq: u8, item: QueueItem, service: Option<Service>, cycle: u64) {
        let pending = PendingAdd {
            item,
            service,
            retracted: false,
            retries_left: self.config.max_retries,
            next_retransmit_cycle: cycle + self.config.retransmit_cycles,
        };
        self.pending.insert(cseq, pending);
    }

    /// The ADD frame of the pending add `cseq`.
    fn add_frame(&self, cseq: u8) -> DqpMessage {
        DqpMessage {
            frame_type: DqpFrameType::Add,
            cseq,
            item: self.pending[&cseq].item,
        }
    }

    /// Master: assign the next `(QID, QSEQ)` and WFQ virtual finish,
    /// then commit locally.
    fn master_commit(&mut self, mut item: QueueItem, service: Service) -> QueueItem {
        let qid = item.priority;
        let qseq = self.next_qseq[qid as usize];
        self.next_qseq[qid as usize] = qseq.wrapping_add(1);
        let cost = item.est_cycles_per_pair as f64 * item.num_pairs as f64;
        let start = self.last_virtual_finish[qid as usize].max(item.schedule_cycle as f64);
        let vf = start + cost / self.weight(qid);
        self.last_virtual_finish[qid as usize] = vf;
        item.queue_id = AbsQueueId::new(qid, qseq);
        item.initial_virtual_finish = vf;
        self.commit(item, service);
        item
    }

    /// Master: drain staging, honouring the fairness window.
    fn flush_staging(&mut self, cycle: u64) -> Vec<DqpEvent> {
        let mut events = Vec::new();
        while !self.staging.is_empty() {
            // Window exhausted for the current run origin and an item
            // from the other origin is waiting? Serve the other first.
            let pick_idx = match self.run_origin {
                Some(run) if self.run_len >= self.config.fairness_window => self
                    .staging
                    .iter()
                    .position(|(o, ..)| *o != run)
                    .unwrap_or(0),
                _ => 0,
            };
            let (origin, cseq, item, service) = self.staging.remove(pick_idx).expect("non-empty");
            match self.run_origin {
                // Saturating: past the window the exact length of a
                // run no longer matters, and one origin alone may add
                // any number of items in a row.
                Some(run) if run == origin => self.run_len = self.run_len.saturating_add(1),
                _ => {
                    self.run_origin = Some(origin);
                    self.run_len = 1;
                }
            }
            let item = self.master_commit(item, service);
            match origin {
                Origin::Ours => {
                    // Track for retransmission until the slave ACKs.
                    self.await_ack(cseq, item, None, cycle);
                    events.push(DqpEvent::AddSucceeded {
                        create_id: item.create_id,
                        aid: item.queue_id,
                    });
                }
                Origin::Theirs => {
                    self.slave_cseq_seen.insert(cseq, item.queue_id);
                    events.push(DqpEvent::Send(DqpMessage {
                        frame_type: DqpFrameType::Ack,
                        cseq,
                        item,
                    }));
                }
            }
        }
        events
    }

    fn master_on_slave_add(
        &mut self,
        msg: DqpMessage,
        service: impl FnOnce() -> Service,
        cycle: u64,
    ) -> Vec<DqpEvent> {
        // Retransmitted ADD we already committed? Re-ACK idempotently.
        // A retransmission repeats the create ID; an ADD whose 8-bit
        // CSEQ merely wrapped onto an item still queued does not.
        let seen = self.slave_cseq_seen.get(&msg.cseq);
        if let Some(request) = seen.and_then(|&aid| self.get(aid)) {
            if request.item.create_id == msg.item.create_id {
                return vec![DqpEvent::Send(DqpMessage {
                    frame_type: DqpFrameType::Ack,
                    cseq: msg.cseq,
                    item: request.item,
                })];
            }
        }
        let item = msg.item;
        if !self.purpose_allowed(item.purpose_id)
            || item.priority >= self.config.num_queues
            || self.queue_full(item.priority)
        {
            return vec![DqpEvent::Send(rej_frame(msg))];
        }
        self.staging
            .push_back((Origin::Theirs, msg.cseq, item, service()));
        self.flush_staging(cycle)
    }

    fn slave_on_master_add(
        &mut self,
        msg: DqpMessage,
        service: impl FnOnce() -> Service,
    ) -> Vec<DqpEvent> {
        let item = msg.item;
        if !self.purpose_allowed(item.purpose_id) || item.queue_id.qid >= self.config.num_queues {
            return vec![DqpEvent::Send(rej_frame(msg))];
        }
        // Idempotent commit (retransmissions re-deliver).
        if self.get(item.queue_id).is_none() {
            self.commit(item, service());
        }
        vec![DqpEvent::Send(DqpMessage {
            frame_type: DqpFrameType::Ack,
            ..msg
        })]
    }

    fn on_ack(&mut self, msg: DqpMessage) -> Vec<DqpEvent> {
        let Some(p) = self.pending.remove(&msg.cseq) else {
            return Vec::new(); // duplicate ACK
        };
        // A master committed and reported when it made the add.
        let Some(service) = p.service else {
            return Vec::new();
        };
        // Commit with the master-assigned queue ID and VF.
        let item = msg.item;
        let (create_id, aid) = (p.item.create_id, item.queue_id);
        if aid.qid >= self.config.num_queues {
            return Vec::new();
        }
        if p.retracted {
            return vec![DqpEvent::Retracted { create_id, aid }];
        }
        if self.get(aid).is_none() {
            self.commit(item, service);
        }
        vec![DqpEvent::AddSucceeded { create_id, aid }]
    }

    fn on_rej(&mut self, msg: DqpMessage) -> Vec<DqpEvent> {
        match self.abandon_pending(msg.cseq) {
            Some(create_id) => vec![DqpEvent::AddRejected {
                create_id,
                reason: RejectReason::PurposeDenied,
            }],
            None => Vec::new(),
        }
    }

    /// Ends the pending add `cseq`, refused or never answered, rolling
    /// back what a master had committed. Returns the create ID to
    /// report the failure for, unless the EGP has stopped waiting for
    /// an answer.
    fn abandon_pending(&mut self, cseq: u8) -> Option<u16> {
        let p = self.pending.remove(&cseq)?;
        if self.role == Role::Master {
            self.remove(p.item.queue_id);
        }
        (!p.retracted).then_some(p.item.create_id)
    }
}

fn rej_frame(msg: DqpMessage) -> DqpMessage {
    DqpMessage {
        frame_type: DqpFrameType::Rej,
        ..msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_wire::fields::{Fidelity16, RequestFlags};

    /// An item as the EGP hands it to `add`: no queue ID or virtual
    /// finish yet, and the MR flag left for `add` to set.
    fn payload(create_id: u16, priority: u8) -> QueueItem {
        QueueItem {
            queue_id: AbsQueueId::new(0, 0),
            schedule_cycle: 100,
            timeout_cycle: u64::MAX,
            min_fidelity: Fidelity16::from_f64(0.64),
            purpose_id: 7,
            create_id,
            num_pairs: 2,
            priority,
            initial_virtual_finish: 0.0,
            est_cycles_per_pair: 5_000,
            flags: RequestFlags {
                store: true,
                consecutive: true,
                ..Default::default()
            },
        }
    }

    fn service() -> Service {
        Service::new(0.1, 0.7, 0)
    }

    /// Delivers every `Send` event to the other side, collecting
    /// non-Send events per side. Loops until quiescent.
    fn settle(
        master: &mut DistributedQueue,
        slave: &mut DistributedQueue,
        mut from_master: Vec<DqpEvent>,
        mut from_slave: Vec<DqpEvent>,
        cycle: u64,
    ) -> (Vec<DqpEvent>, Vec<DqpEvent>) {
        let mut master_events = Vec::new();
        let mut slave_events = Vec::new();
        while !from_master.is_empty() || !from_slave.is_empty() {
            let mut next_from_master = Vec::new();
            let mut next_from_slave = Vec::new();
            for ev in from_master.drain(..) {
                match ev {
                    DqpEvent::Send(msg) => {
                        next_from_slave.extend(slave.on_frame(msg, service, cycle))
                    }
                    other => master_events.push(other),
                }
            }
            for ev in from_slave.drain(..) {
                match ev {
                    DqpEvent::Send(msg) => {
                        next_from_master.extend(master.on_frame(msg, service, cycle))
                    }
                    other => slave_events.push(other),
                }
            }
            from_master = next_from_master;
            from_slave = next_from_slave;
        }
        (master_events, slave_events)
    }

    fn pair() -> (DistributedQueue, DistributedQueue) {
        (
            DistributedQueue::new(Role::Master, DqueueConfig::default()),
            DistributedQueue::new(Role::Slave, DqueueConfig::default()),
        )
    }

    #[test]
    fn master_add_commits_both_sides() {
        let (mut m, mut s) = pair();
        let evs = m.add(payload(1, 0), service(), 0);
        let (mev, sev) = settle(&mut m, &mut s, evs, vec![], 0);
        assert!(mev
            .iter()
            .any(|e| matches!(e, DqpEvent::AddSucceeded { create_id: 1, .. })));
        assert!(sev.is_empty(), "the peer's commit needs no report");
        assert_eq!(m.len(), 1);
        assert_eq!(s.len(), 1);
        let aid = AbsQueueId::new(0, 0);
        assert_eq!(m.get(aid).unwrap(), s.get(aid).unwrap());
    }

    #[test]
    fn slave_add_gets_master_assigned_id() {
        let (mut m, mut s) = pair();
        let evs = s.add(payload(9, 1), service(), 0);
        let (_, sev) = settle(&mut m, &mut s, vec![], evs, 0);
        let aid = sev
            .iter()
            .find_map(|e| match e {
                DqpEvent::AddSucceeded { aid, .. } => Some(*aid),
                _ => None,
            })
            .expect("slave add succeeded");
        assert_eq!(aid.qid, 1);
        assert_eq!(m.get(aid).unwrap(), s.get(aid).unwrap());
    }

    #[test]
    fn queue_ids_are_unique_and_ordered() {
        let (mut m, mut s) = pair();
        let mut aids = Vec::new();
        for i in 0..10u16 {
            let evs = m.add(payload(i, 0), service(), 0);
            let (mev, _) = settle(&mut m, &mut s, evs, vec![], 0);
            for e in mev {
                if let DqpEvent::AddSucceeded { aid, .. } = e {
                    aids.push(aid);
                }
            }
        }
        for w in aids.windows(2) {
            assert!(w[0].qseq < w[1].qseq, "qseq must increase in arrival order");
        }
        let unique: BTreeSet<_> = aids.iter().collect();
        assert_eq!(unique.len(), aids.len());
    }

    #[test]
    fn full_queue_rejected_locally() {
        let cfg = DqueueConfig {
            max_items_per_queue: 2,
            ..DqueueConfig::default()
        };
        let mut m = DistributedQueue::new(Role::Master, cfg.clone());
        let mut s = DistributedQueue::new(Role::Slave, cfg);
        for i in 0..2u16 {
            let evs = m.add(payload(i, 0), service(), 0);
            settle(&mut m, &mut s, evs, vec![], 0);
        }
        let evs = m.add(payload(99, 0), service(), 0);
        assert!(matches!(
            evs[0],
            DqpEvent::AddRejected {
                reason: RejectReason::QueueFull,
                ..
            }
        ));
    }

    #[test]
    fn purpose_policy_rejects_peer_add() {
        let cfg = DqueueConfig {
            allowed_purposes: Some([1u16].into_iter().collect()),
            ..DqueueConfig::default()
        };
        let mut m = DistributedQueue::new(Role::Master, cfg);
        let mut s = DistributedQueue::new(Role::Slave, DqueueConfig::default());
        // Slave asks for purpose 7, master only allows 1 → DENIED.
        let evs = s.add(payload(4, 0), service(), 0);
        let (_, sev) = settle(&mut m, &mut s, vec![], evs, 0);
        assert!(sev.iter().any(|e| matches!(
            e,
            DqpEvent::AddRejected {
                reason: RejectReason::PurposeDenied,
                ..
            }
        )));
        assert_eq!(m.len(), 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn slave_rejection_rolls_back_master() {
        let cfg = DqueueConfig {
            allowed_purposes: Some([1u16].into_iter().collect()),
            ..DqueueConfig::default()
        };
        let mut m = DistributedQueue::new(Role::Master, DqueueConfig::default());
        let mut s = DistributedQueue::new(Role::Slave, cfg);
        let evs = m.add(payload(5, 0), service(), 0);
        let (mev, _) = settle(&mut m, &mut s, evs, vec![], 0);
        assert!(mev
            .iter()
            .any(|e| matches!(e, DqpEvent::AddRejected { .. })));
        assert_eq!(m.len(), 0, "master must roll back the commit");
    }

    #[test]
    fn lost_add_retransmits_and_converges() {
        let (mut m, mut s) = pair();
        // Drop the first ADD frame on the floor.
        let evs = m.add(payload(1, 0), service(), 0);
        let send_count = evs
            .iter()
            .filter(|e| matches!(e, DqpEvent::Send(_)))
            .count();
        assert_eq!(send_count, 1);
        assert_eq!(m.len(), 1, "master committed optimistically");
        assert_eq!(s.len(), 0, "slave never saw it");

        // Time passes; retransmission fires.
        let evs = m.tick(250);
        settle(&mut m, &mut s, evs, vec![], 250);
        assert_eq!(s.len(), 1);
        // No further retransmissions pending.
        assert!(m.tick(10_000).is_empty());
    }

    /// ADDs that fall due on the same cycle are retransmitted in CSEQ
    /// order whatever the process: the frames reach the channel RNG in
    /// emission order, so a hash-order walk here made lossy runs
    /// differ from process to process.
    #[test]
    fn adds_due_together_retransmit_in_cseq_order() {
        let mut s = DistributedQueue::new(Role::Slave, DqueueConfig::default());
        for create_id in 0..8 {
            drop(s.add(payload(create_id, 0), service(), 0)); // every ADD lost
        }
        let retransmitted: Vec<u8> = s
            .tick(250)
            .into_iter()
            .map(|e| match e {
                DqpEvent::Send(f) if f.frame_type == DqpFrameType::Add => f.cseq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(retransmitted, (0..8).collect::<Vec<u8>>());
    }

    #[test]
    fn duplicate_slave_add_reacked_idempotently() {
        let (mut m, mut s) = pair();
        let evs = s.add(payload(3, 0), service(), 0);
        let add_frame = evs
            .iter()
            .find_map(|e| match e {
                DqpEvent::Send(f) => Some(f.clone()),
                _ => None,
            })
            .unwrap();
        // Deliver the ADD twice (retransmission after lost ACK).
        let first = m.on_frame(add_frame.clone(), service, 0);
        let second = m.on_frame(add_frame, || panic!("nothing to commit"), 1);
        assert_eq!(m.len(), 1, "no duplicate commit");
        let acks = |evs: &[DqpEvent]| {
            evs.iter()
                .filter(|e| matches!(e, DqpEvent::Send(f) if f.frame_type == DqpFrameType::Ack))
                .count()
        };
        assert_eq!(acks(&first), 1);
        assert_eq!(acks(&second), 1, "retransmitted ADD must be re-ACKed");
        // Both ACKs carry the same aid.
        let aid_of = |evs: &[DqpEvent]| {
            evs.iter()
                .find_map(|e| match e {
                    DqpEvent::Send(f) if f.frame_type == DqpFrameType::Ack => Some(f.item.queue_id),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(aid_of(&first), aid_of(&second));
        // Slave processes one ACK (and would ignore a duplicate).
        settle(&mut m, &mut s, first, vec![], 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn retracted_add_is_not_committed_and_reports_only_its_queue_id() {
        let (mut m, mut s) = pair();
        let evs = s.add(payload(3, 0), service(), 0);
        assert!(!s.retract_pending(4), "no such add");
        assert!(s.retract_pending(3));
        let (_, sev) = settle(&mut m, &mut s, vec![], evs, 0);
        // The master committed it; the slave did not, and knows under
        // which queue ID to retract it there.
        let aid = AbsQueueId::new(0, 0);
        assert_eq!(sev, vec![DqpEvent::Retracted { create_id: 3, aid }]);
        assert_eq!((m.len(), s.len()), (1, 0));
        assert!(s.is_idle());
        assert!(!m.retract_pending(3), "committed, not in flight");
    }

    #[test]
    fn add_gives_up_after_max_retries() {
        let cfg = DqueueConfig {
            max_retries: 2,
            retransmit_cycles: 10,
            ..DqueueConfig::default()
        };
        let mut m = DistributedQueue::new(Role::Master, cfg);
        let evs = m.add(payload(8, 0), service(), 0);
        drop(evs); // ADD lost
        let mut timed_out = false;
        let mut cycle = 0;
        for _ in 0..5 {
            cycle += 10;
            for e in m.tick(cycle) {
                match e {
                    DqpEvent::AddTimedOut { create_id } => {
                        assert_eq!(create_id, 8);
                        timed_out = true;
                    }
                    DqpEvent::Send(_) => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(timed_out);
        assert_eq!(m.len(), 0, "rolled back after giving up");
    }

    #[test]
    fn fairness_window_interleaves_contending_origins() {
        // Master floods its own items while slave ADDs are staged; the
        // window (4) must bound consecutive master commits.
        let cfg = DqueueConfig {
            fairness_window: 4,
            ..DqueueConfig::default()
        };
        let mut m = DistributedQueue::new(Role::Master, cfg);
        // Stage a burst: 10 master + 3 slave items arriving interleaved
        // in one flush window. Build the staging directly through the
        // public API: master adds flush immediately, so emulate
        // contention by submitting slave ADD frames between them.
        let mut slave_cseq = 100u8;
        for i in 0..12u16 {
            drop(m.add(payload(i, 0), service(), 0));
            if i % 4 == 3 {
                // A slave ADD arrives.
                let frame = DqpMessage {
                    frame_type: DqpFrameType::Add,
                    cseq: slave_cseq,
                    item: QueueItem {
                        queue_id: AbsQueueId::new(0, 0),
                        schedule_cycle: 100,
                        timeout_cycle: u64::MAX,
                        min_fidelity: Fidelity16::from_f64(0.6),
                        purpose_id: 7,
                        create_id: 50 + i,
                        num_pairs: 1,
                        priority: 0,
                        initial_virtual_finish: 0.0,
                        est_cycles_per_pair: 1000,
                        flags: RequestFlags {
                            store: true,
                            ..Default::default()
                        },
                    },
                };
                slave_cseq += 1;
                drop(m.on_frame(frame, service, 0));
            }
        }
        // No run of same-origin commits longer than... the window can
        // only be enforced against *waiting* items; verify both origins
        // committed and total counts match.
        let ours = m.iter().filter(|r| r.item.flags.master_request).count();
        let theirs = m.len() - ours;
        assert_eq!(ours, 12);
        assert_eq!(theirs, 3);
    }

    #[test]
    fn wfq_virtual_finish_monotone_per_queue() {
        let (mut m, mut s) = pair();
        let mut vfs = Vec::new();
        for i in 0..5u16 {
            let evs = m.add(payload(i, 2), service(), 0);
            let (mev, _) = settle(&mut m, &mut s, evs, vec![], 0);
            for e in mev {
                if let DqpEvent::AddSucceeded { aid, .. } = e {
                    vfs.push(m.get(aid).unwrap().item.initial_virtual_finish);
                }
            }
        }
        for w in vfs.windows(2) {
            assert!(w[0] < w[1], "virtual finish must increase: {vfs:?}");
        }
    }

    #[test]
    fn wfq_weights_scale_finish_times() {
        let mut cfg = DqueueConfig::default();
        cfg.wfq_weights.insert(1, 10.0);
        cfg.wfq_weights.insert(2, 1.0);
        let mut m = DistributedQueue::new(Role::Master, cfg);
        let heavy = {
            let evs = m.add(payload(0, 1), service(), 0);
            evs.iter()
                .find_map(|e| match e {
                    DqpEvent::AddSucceeded { aid, .. } => Some(*aid),
                    _ => None,
                })
                .unwrap()
        };
        let light = {
            let evs = m.add(payload(1, 2), service(), 0);
            evs.iter()
                .find_map(|e| match e {
                    DqpEvent::AddSucceeded { aid, .. } => Some(*aid),
                    _ => None,
                })
                .unwrap()
        };
        let vf_heavy = m.get(heavy).unwrap().item.initial_virtual_finish - 100.0;
        let vf_light = m.get(light).unwrap().item.initial_virtual_finish - 100.0;
        assert!(
            (vf_light / vf_heavy - 10.0).abs() < 1e-9,
            "weight-10 queue finishes 10× sooner: {vf_heavy} vs {vf_light}"
        );
    }

    #[test]
    fn min_time_carried_to_both_sides() {
        let (mut m, mut s) = pair();
        let mut p = payload(1, 0);
        p.schedule_cycle = 4242;
        let evs = m.add(p, service(), 0);
        settle(&mut m, &mut s, evs, vec![], 0);
        let aid = AbsQueueId::new(0, 0);
        assert_eq!(m.get(aid).unwrap().item.schedule_cycle, 4242);
        assert_eq!(s.get(aid).unwrap().item.schedule_cycle, 4242);
    }
}
