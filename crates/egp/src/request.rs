//! The one record of a committed request: the synchronised queue item
//! plus this node's progress on it.
//!
//! A CREATE is a [`QueueItem`] from the moment [`crate::egp::Egp`]
//! accepts it. While its ADD awaits the ACK the item sits in the
//! distributed queue's pending-add record beside a fresh [`Service`];
//! at commit the two become a [`Request`] in the queue's table, and
//! everything the link layer later learns about the request — pairs
//! delivered, OKs issued or held back, divergence counters — is written
//! there and nowhere else. Removing the entry forgets the request.

use crate::egp::EgpEvent;
use qlink_wire::dqp::QueueItem;
use qlink_wire::fields::RequestType;
use std::collections::VecDeque;

/// Lifecycle of a committed request as seen by one EGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// In the distributed queue; not yet picked by the scheduler.
    Queued,
    /// Being served by the scheduler.
    InService,
    /// All pairs delivered.
    Completed,
}

/// OK sequence numbers remembered per request for EXPIRE to revoke.
const ISSUED_SEQS_KEPT: usize = 64;

/// What one node knows about a request beyond the synchronised item.
/// The DQP carries it from the ADD to the queue entry and never reads
/// it; only the EGP does.
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    /// Bright-state population α chosen by the FEU.
    pub alpha: f64,
    /// FEU's fidelity estimate (the OK's Goodness).
    pub goodness: f64,
    /// MHP cycle at which the CREATE was accepted (for latency metrics).
    pub accepted_cycle: u64,
    /// Pairs already delivered (OKs issued locally).
    pub pairs_done: u16,
    /// Current lifecycle state.
    pub state: RequestState,
    /// Cycle at which the request completed (kept for a linger period
    /// so EXPIRE-based resynchronisation can still reopen it).
    pub completed_cycle: Option<u64>,
    /// Recently issued OK sequence numbers (for EXPIRE).
    pub issued_seqs: VecDeque<u16>,
    /// OKs held back until completion (non-consecutive requests).
    pub buffered_oks: Vec<EgpEvent>,
    /// Consecutive NO_MESSAGE_OTHER results (divergence detection).
    pub nmo_count: u32,
    /// Resync EXPIREs already sent for that divergence.
    pub resyncs: u32,
}

impl Service {
    /// The state of a request nothing has been done for yet.
    pub fn new(alpha: f64, goodness: f64, accepted_cycle: u64) -> Self {
        Service {
            alpha,
            goodness,
            accepted_cycle,
            pairs_done: 0,
            state: RequestState::Queued,
            completed_cycle: None,
            issued_seqs: VecDeque::new(),
            buffered_oks: Vec::new(),
            nmo_count: 0,
            resyncs: 0,
        }
    }
}

/// One committed entanglement request — the queue item of §E.1 plus
/// progress tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The synchronised fields, identical at both nodes.
    pub item: QueueItem,
    /// Node where the CREATE was submitted (what the item's MR flag
    /// names on this link).
    pub origin: u32,
    /// This node's progress on the request.
    pub service: Service,
}

impl Request {
    /// Remaining pairs to produce.
    pub fn pairs_remaining(&self) -> u16 {
        self.item.num_pairs.saturating_sub(self.service.pairs_done)
    }

    /// K or M?
    pub fn request_type(&self) -> RequestType {
        self.item.flags.request_type()
    }

    /// `true` once every pair has been delivered.
    pub fn is_complete(&self) -> bool {
        self.service.pairs_done >= self.item.num_pairs
    }

    /// Rolls progress back to `pairs_done` pairs (a peer revoked the
    /// rest) and puts the request back in service. A completed request
    /// still lingering is no longer complete: it must complete again,
    /// and linger from then.
    pub fn reopen(&mut self, pairs_done: u16) {
        self.service.pairs_done = pairs_done;
        self.service.state = RequestState::InService;
        self.service.completed_cycle = None;
    }

    /// `true` if the request can be scheduled at `cycle`.
    pub fn is_ready(&self, cycle: u64) -> bool {
        self.service.state != RequestState::Completed
            && cycle >= self.item.schedule_cycle
            && cycle < self.item.timeout_cycle
    }

    /// Counts the pair delivered at `cycle` and hands its OK to the
    /// higher layer: now (consecutive) or once the request completes
    /// (§4.1.1 item 5), which the last pair makes it do.
    pub fn deliver(&mut self, seq: u16, ok: EgpEvent, cycle: u64, events: &mut Vec<EgpEvent>) {
        self.service.pairs_done += 1;
        self.service.issued_seqs.push_back(seq);
        if self.service.issued_seqs.len() > ISSUED_SEQS_KEPT {
            self.service.issued_seqs.pop_front();
        }
        if self.item.flags.consecutive {
            events.push(ok);
        } else {
            self.service.buffered_oks.push(ok);
        }
        if self.is_complete() && self.service.completed_cycle.is_none() {
            events.append(&mut self.service.buffered_oks);
            // Completed requests linger (the scheduler skips them) so
            // a resync EXPIRE from a diverged peer can still reopen
            // them; the EGP forgets them after the linger period.
            self.service.state = RequestState::Completed;
            self.service.completed_cycle = Some(cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_wire::fields::{AbsQueueId, Fidelity16, RequestFlags};

    fn make(number: u16) -> Request {
        Request {
            item: QueueItem {
                queue_id: AbsQueueId::new(1, 0),
                schedule_cycle: 10,
                timeout_cycle: 100,
                min_fidelity: Fidelity16::from_f64(0.64),
                purpose_id: 0,
                create_id: 0,
                num_pairs: number,
                priority: 1,
                initial_virtual_finish: 0.0,
                est_cycles_per_pair: 5_000,
                flags: RequestFlags {
                    store: true,
                    consecutive: true,
                    ..Default::default()
                },
            },
            origin: 1,
            service: Service::new(0.1, 0.65, 0),
        }
    }

    #[test]
    fn progress_tracking() {
        let mut r = make(3);
        assert_eq!(r.pairs_remaining(), 3);
        assert!(!r.is_complete());
        r.service.pairs_done = 3;
        assert!(r.is_complete());
        assert_eq!(r.pairs_remaining(), 0);
    }

    #[test]
    fn readiness_window() {
        let r = make(1);
        assert!(!r.is_ready(5), "before min_time");
        assert!(r.is_ready(10));
        assert!(r.is_ready(99));
        assert!(!r.is_ready(100), "at timeout");
    }

    #[test]
    fn state_gates_readiness() {
        let mut r = make(1);
        r.service.state = RequestState::Completed;
        assert!(!r.is_ready(50));
        r.service.state = RequestState::InService;
        assert!(r.is_ready(50));
    }

    #[test]
    fn request_type_from_flags() {
        let r = make(1);
        assert_eq!(r.request_type(), RequestType::Keep);
    }
}
