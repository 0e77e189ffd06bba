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
use crate::scheduler::SchedulerPolicy;
use qlink_wire::dqp::{DqpFrameType, DqpMessage, QueueItem};
use qlink_wire::fields::AbsQueueId;
use std::collections::{BTreeMap, VecDeque};

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
    /// The priority names no queue, or the peer refused the ADD.
    Denied,
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

/// Number of priority queues (`L`): one per request kind of §6 — NL,
/// CK and MD, highest priority first. An add for a priority outside
/// them is refused as DENIED.
pub const NUM_QUEUES: u8 = 3;
/// Capacity per queue (`x`; 256 in the evaluation's Ultra runs). An add
/// to a full queue is refused (OUTOFMEM at the origin, a REJ from the
/// master).
pub const MAX_ITEMS_PER_QUEUE: usize = 256;
/// Fairness window `W` (§E.1.2): consecutive same-origin commits the
/// master makes while an item of the other origin waits.
const FAIRNESS_WINDOW: u8 = 4;
/// MHP cycles between retransmissions of an unanswered ADD.
const RETRANSMIT_CYCLES: u64 = 200;
/// Retransmissions before an add gives up (the ERR_NOTIME path).
const MAX_RETRIES: u8 = 10;

/// One node's half of the distributed queue.
#[derive(Debug)]
pub struct DistributedQueue {
    role: Role,
    /// The node IDs a committed item's MR flag names as its origin.
    master_node: u32,
    slave_node: u32,
    /// Master: the WFQ weight of each queue, from the scheduling
    /// policy (see [`SchedulerPolicy::weight`]).
    weights: [u32; NUM_QUEUES as usize],
    /// Every committed request, a `Vec` kept sorted by `(QID, QSEQ)`:
    /// queue order is slice order, and an ID is found by binary search.
    table: Vec<Request>,
    next_qseq: [u16; NUM_QUEUES as usize],
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
    last_virtual_finish: [f64; NUM_QUEUES as usize],
}

impl DistributedQueue {
    /// Creates node `node_id`'s side of its queue with `peer_id`; both
    /// sides must schedule by the same `scheduler`, whose WFQ weights
    /// the master stamps into every item's virtual finish.
    pub fn new(role: Role, node_id: u32, peer_id: u32, scheduler: &SchedulerPolicy) -> Self {
        let (master_node, slave_node) = match role {
            Role::Master => (node_id, peer_id),
            Role::Slave => (peer_id, node_id),
        };
        DistributedQueue {
            role,
            master_node,
            slave_node,
            weights: std::array::from_fn(|q| scheduler.weight(q as u8)),
            table: Vec::new(),
            next_qseq: [0; NUM_QUEUES as usize],
            next_cseq: 0,
            pending: BTreeMap::new(),
            slave_cseq_seen: BTreeMap::new(),
            staging: VecDeque::new(),
            run_origin: None,
            run_len: 0,
            last_virtual_finish: [0.0; NUM_QUEUES as usize],
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

    /// The earliest cycle [`DistributedQueue::tick`] can act at, an ADD's
    /// next retransmission or give-up; `None` with no ADD in flight.
    pub fn next_tick(&self) -> Option<u64> {
        self.pending.values().map(|p| p.next_retransmit_cycle).min()
    }

    /// Looks up a committed request.
    pub fn get(&self, aid: AbsQueueId) -> Option<&Request> {
        self.slot(aid).ok().map(|i| &self.table[i])
    }

    /// Looks up a committed request to record progress on it.
    pub fn get_mut(&mut self, aid: AbsQueueId) -> Option<&mut Request> {
        self.slot(aid).ok().map(|i| &mut self.table[i])
    }

    /// Forgets a committed request, service state and all. The one way
    /// a request leaves the link layer, whatever the reason: completed
    /// and lingered, timed out, retracted, abandoned or rolled back.
    pub fn remove(&mut self, aid: AbsQueueId) -> Option<Request> {
        self.slot(aid).ok().map(|i| self.table.remove(i))
    }

    /// Iterates all committed requests in `(QID, QSEQ)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.table.iter()
    }

    /// Starts a local add (Protocol 2 step 1) of `item`, to be
    /// committed with `service`. Emits frames and, eventually,
    /// `AddSucceeded`/`AddRejected`/`AddTimedOut`.
    pub fn add(&mut self, mut item: QueueItem, service: Service, cycle: u64) -> Vec<DqpEvent> {
        // The MR flag records which node originated the request; it is
        // part of the synchronized item, so set it at the source.
        item.flags.master_request = self.role == Role::Master;
        let create_id = item.create_id;
        if item.priority >= NUM_QUEUES {
            return vec![DqpEvent::AddRejected {
                create_id,
                reason: RejectReason::Denied,
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
                p.next_retransmit_cycle = cycle + RETRANSMIT_CYCLES;
                events.push(DqpEvent::Send(self.add_frame(cseq)));
            }
        }
        events
    }

    /// Where `aid` sits in the table: `Ok` if committed, else `Err` at
    /// the index that keeps the table sorted.
    fn slot(&self, aid: AbsQueueId) -> Result<usize, usize> {
        self.table.binary_search_by_key(&aid, |r| r.item.queue_id)
    }

    fn queue_full(&self, qid: u8) -> bool {
        let start = self.table.partition_point(|r| r.item.queue_id.qid < qid);
        let end = self.table.partition_point(|r| r.item.queue_id.qid <= qid);
        end - start >= MAX_ITEMS_PER_QUEUE
    }

    /// Enters `item` in the local queue under the ID it carries.
    fn commit(&mut self, item: QueueItem, service: Service) {
        let origin = if item.flags.master_request {
            self.master_node
        } else {
            self.slave_node
        };
        let request = Request {
            item,
            origin,
            service,
        };
        match self.slot(item.queue_id) {
            Ok(i) => self.table[i] = request,
            Err(i) => self.table.insert(i, request),
        }
    }

    /// Registers an ADD for (re)transmission until the peer answers.
    fn await_ack(&mut self, cseq: u8, item: QueueItem, service: Option<Service>, cycle: u64) {
        let pending = PendingAdd {
            item,
            service,
            retracted: false,
            retries_left: MAX_RETRIES,
            next_retransmit_cycle: cycle + RETRANSMIT_CYCLES,
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
        let vf = start + cost / f64::from(self.weights[qid as usize]);
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
                Some(run) if self.run_len >= FAIRNESS_WINDOW => self
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
        if item.priority >= NUM_QUEUES || self.queue_full(item.priority) {
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
        if item.queue_id.qid >= NUM_QUEUES {
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
        if aid.qid >= NUM_QUEUES {
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
                reason: RejectReason::Denied,
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
    use std::collections::BTreeSet;

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
        Service::new(0.1)
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

    fn master() -> DistributedQueue {
        DistributedQueue::new(Role::Master, 1, 2, &SchedulerPolicy::fcfs())
    }

    fn slave() -> DistributedQueue {
        DistributedQueue::new(Role::Slave, 2, 1, &SchedulerPolicy::fcfs())
    }

    fn pair() -> (DistributedQueue, DistributedQueue) {
        (master(), slave())
    }

    /// The one frame among `events`.
    fn frame(events: Vec<DqpEvent>) -> DqpMessage {
        match &events[..] {
            [DqpEvent::Send(f)] => f.clone(),
            other => panic!("expected one frame, got {other:?}"),
        }
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
        let (mut m, mut s) = pair();
        for i in 0..MAX_ITEMS_PER_QUEUE as u16 {
            let evs = m.add(payload(i, 0), service(), 0);
            settle(&mut m, &mut s, evs, vec![], 0);
        }
        assert_eq!(
            (m.len(), s.len()),
            (MAX_ITEMS_PER_QUEUE, MAX_ITEMS_PER_QUEUE)
        );
        for q in [&mut m, &mut s] {
            let evs = q.add(payload(999, 0), service(), 0);
            assert!(matches!(
                evs[..],
                [DqpEvent::AddRejected {
                    create_id: 999,
                    reason: RejectReason::QueueFull,
                }]
            ));
        }
        // The other queues still take items.
        let evs = s.add(payload(1000, 1), service(), 0);
        assert!(matches!(evs[..], [DqpEvent::Send(_)]));
    }

    /// The master refuses a slave ADD for a queue that filled while the
    /// ADD was in flight, or for a priority that names no queue; the
    /// slave reports either as DENIED. An add for no queue never leaves
    /// its own node.
    #[test]
    fn master_rejects_peer_adds_it_cannot_queue() {
        let (mut m, mut s) = pair();
        let add = frame(s.add(payload(4, 0), service(), 0));
        for i in 0..MAX_ITEMS_PER_QUEUE as u16 {
            drop(m.add(payload(i, 0), service(), 0)); // not delivered
        }
        let mut no_queue = add.clone();
        no_queue.cseq += 1;
        no_queue.item.priority = NUM_QUEUES;
        for msg in [add.clone(), no_queue] {
            let cseq = msg.cseq;
            let rej = frame(m.on_frame(msg, || panic!("nothing to commit"), 0));
            assert_eq!((rej.frame_type, rej.cseq), (DqpFrameType::Rej, cseq));
        }
        let denied = s.on_frame(rej_frame(add), service, 0);
        let reason = RejectReason::Denied;
        assert_eq!(
            denied,
            vec![DqpEvent::AddRejected {
                create_id: 4,
                reason
            }]
        );
        assert_eq!((m.len(), s.len()), (MAX_ITEMS_PER_QUEUE, 0));
        assert!(s.is_empty() && s.next_tick().is_none());
        let evs = s.add(payload(5, NUM_QUEUES), service(), 0);
        assert_eq!(
            evs,
            vec![DqpEvent::AddRejected {
                create_id: 5,
                reason
            }]
        );
    }

    /// The slave refuses a master ADD for a queue it does not have: the
    /// master rolls back what it had committed and reports the add
    /// refused.
    #[test]
    fn slave_rejection_rolls_back_master() {
        let (mut m, mut s) = pair();
        let evs = m.add(payload(5, 0), service(), 0);
        let mut add = evs
            .iter()
            .find_map(|e| match e {
                DqpEvent::Send(f) => Some(f.clone()),
                _ => None,
            })
            .expect("the ADD");
        assert_eq!(m.len(), 1, "the master commits at once");
        add.item.queue_id.qid = NUM_QUEUES;
        let rej = s.on_frame(add, || panic!("nothing to commit"), 0);
        let (mev, _) = settle(&mut m, &mut s, vec![], rej, 0);
        assert!(mev
            .iter()
            .any(|e| matches!(e, DqpEvent::AddRejected { create_id: 5, .. })));
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
        let mut s = slave();
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
        assert!(s.is_empty() && s.next_tick().is_none());
        assert!(!m.retract_pending(3), "committed, not in flight");
    }

    #[test]
    fn add_gives_up_after_max_retries() {
        let mut m = master();
        let evs = m.add(payload(8, 0), service(), 0);
        drop(evs); // ADD lost, and every retransmission too
        let mut retransmissions = 0;
        let mut timed_out_at = None;
        let mut cycle = 0;
        while timed_out_at.is_none() {
            assert!(cycle < 100 * RETRANSMIT_CYCLES, "never gave up");
            cycle += 1;
            for e in m.tick(cycle) {
                match e {
                    DqpEvent::AddTimedOut { create_id: 8 } => timed_out_at = Some(cycle),
                    DqpEvent::Send(_) => retransmissions += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(retransmissions, MAX_RETRIES);
        let first_due = u64::from(MAX_RETRIES) + 1;
        assert_eq!(timed_out_at, Some(first_due * RETRANSMIT_CYCLES));
        assert_eq!(m.len(), 0, "rolled back after giving up");
        assert!(m.is_empty() && m.next_tick().is_none());
    }

    #[test]
    fn fairness_window_interleaves_contending_origins() {
        // Master floods its own items while slave ADDs are staged; the
        // window (4) must bound consecutive master commits.
        let mut m = master();
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
        let policy = SchedulerPolicy::StrictThenWfq {
            strict: vec![0],
            weights: vec![(1, 10), (2, 1)],
        };
        let mut m = DistributedQueue::new(Role::Master, 1, 2, &policy);
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

    /// An item committed under `aid` as `create_id`.
    fn entry(aid: AbsQueueId, create_id: u16) -> QueueItem {
        QueueItem {
            queue_id: aid,
            ..payload(create_id, aid.qid)
        }
    }

    /// The table answers as a map keyed by queue ID does: it iterates in
    /// `(QID, QSEQ)` order whatever the commit order, QSEQs near
    /// `u16::MAX` and wrapped to 0 included; a second commit of an ID
    /// replaces the first; and `get`, `get_mut` and `remove` find what
    /// the map finds, before and after removals from the middle.
    #[test]
    fn table_orders_and_finds_as_a_map_keyed_by_queue_id() {
        let aid = |(qid, qseq): (u8, u16)| AbsQueueId::new(qid, qseq);
        let top = u16::MAX;
        let commits = [
            (1, 7),
            (0, top),
            (2, 0),
            (0, 0),
            (1, top - 1),
            (2, top),
            (0, 3),
            (1, 0),
            (1, top),
            (0, top - 1),
            (2, 5),
            (1, 7), // again: replaces the first
        ];
        let removals = [(1, top - 1), (0, 3), (2, 9), (1, 7), (0, 0)];
        let probes: Vec<AbsQueueId> = (0..NUM_QUEUES)
            .flat_map(|qid| [0, 1, 3, 5, 7, 9, top - 1, top].map(|qseq| aid((qid, qseq))))
            .collect();
        let mut q = master();
        let mut oracle = BTreeMap::new();
        let agree = |q: &mut DistributedQueue, oracle: &BTreeMap<_, u16>| {
            let got: Vec<_> = q
                .iter()
                .map(|r| (r.item.queue_id, r.item.create_id))
                .collect();
            let want: Vec<_> = oracle.iter().map(|(&a, &c)| (a, c)).collect();
            assert_eq!(got, want, "iteration order");
            assert_eq!(q.len(), oracle.len());
            for &a in &probes {
                let want = oracle.get(&a).copied();
                assert_eq!(q.get(a).map(|r| r.item.create_id), want, "get {a:?}");
                assert_eq!(
                    q.get_mut(a).map(|r| r.item.create_id),
                    want,
                    "get_mut {a:?}"
                );
            }
        };
        for (create_id, &id) in (100..).zip(&commits) {
            q.commit(entry(aid(id), create_id), service());
            oracle.insert(aid(id), create_id);
            agree(&mut q, &oracle);
        }
        assert_eq!(q.len(), commits.len() - 1, "one ID was committed twice");
        for &id in &removals {
            let removed = q.remove(aid(id)).map(|r| r.item.create_id);
            assert_eq!(removed, oracle.remove(&aid(id)), "remove {id:?}");
            agree(&mut q, &oracle);
        }
    }

    /// A queue is full at exactly `MAX_ITEMS_PER_QUEUE` items of its own
    /// QID, whatever the other queues hold, its QSEQs wrapped or not.
    #[test]
    fn queue_full_counts_its_own_queue_only() {
        let mut q = master();
        let max = MAX_ITEMS_PER_QUEUE as u16;
        // Queue 0 full and queue 2 one short, committed interleaved.
        for i in 0..max {
            q.commit(entry(AbsQueueId::new(0, i), i), service());
            if i + 1 < max {
                q.commit(entry(AbsQueueId::new(2, 3 * i), i), service());
            }
        }
        // Queue 1's QSEQs run past u16::MAX and wrap to 0.
        let wrapped = |i: u16| AbsQueueId::new(1, (u16::MAX - max / 2).wrapping_add(i));
        for i in 0..max {
            assert!(!q.queue_full(1), "{i} items of queue 1");
            assert!(q.queue_full(0) && !q.queue_full(2));
            q.commit(entry(wrapped(i), i), service());
        }
        assert!(q.queue_full(1));
        assert!(q.remove(wrapped(max / 2)).is_some());
        assert!(!q.queue_full(1), "one taken from the middle");
        q.commit(entry(AbsQueueId::new(2, u16::MAX), 0), service());
        assert!(q.queue_full(2));
        assert_eq!(q.len(), 3 * MAX_ITEMS_PER_QUEUE - 1);
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
