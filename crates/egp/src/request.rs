//! Request bookkeeping shared across the EGP components.

use qlink_wire::egp::CreateMsg;
use qlink_wire::fields::{AbsQueueId, RequestType};

/// Identifies a request uniquely on this link: the originating node
/// and its locally assigned create ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// Node where the CREATE was submitted.
    pub origin: u32,
    /// The originator's create ID.
    pub create_id: u16,
}

/// Lifecycle of a request as seen by one EGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Submitted to the distributed queue; awaiting ACK.
    Enqueueing,
    /// In the distributed queue; not yet schedulable (`min_time`).
    Queued,
    /// Being served by the scheduler.
    InService,
    /// All pairs delivered.
    Completed,
    /// Failed (timeout / rejection / expiry of the whole request).
    Failed,
}

/// One entanglement request with its link-local metadata — the queue
/// item of §E.1 plus progress tracking.
#[derive(Debug, Clone)]
pub struct Request {
    /// Origin + create ID.
    pub id: RequestId,
    /// The CREATE parameters as submitted.
    pub create: CreateMsg,
    /// Absolute queue ID once enqueued.
    pub queue_id: Option<AbsQueueId>,
    /// Bright-state population α chosen by the FEU.
    pub alpha: f64,
    /// FEU's fidelity estimate (the OK's Goodness).
    pub goodness: f64,
    /// First MHP cycle the request may be served (`min_time`).
    pub min_cycle: u64,
    /// MHP cycle at which the request times out (`u64::MAX` = none).
    pub timeout_cycle: u64,
    /// Estimated MHP cycles to produce one pair (for WFQ weighting).
    pub est_cycles_per_pair: u32,
    /// Pairs already delivered (OKs issued locally).
    pub pairs_done: u16,
    /// Round counter: total attempts-with-identity made, used to index
    /// the pre-shared test/basis strings. Incremented per *herald*,
    /// not per attempt, so it stays small and synchronized.
    pub round: u32,
    /// Current lifecycle state.
    pub state: RequestState,
    /// MHP cycle at which the CREATE was accepted (for latency metrics).
    pub accepted_cycle: u64,
    /// Cycle at which the request completed (kept for a linger period
    /// so EXPIRE-based resynchronisation can still reopen it).
    pub completed_cycle: Option<u64>,
}

impl Request {
    /// Remaining pairs to produce.
    pub fn pairs_remaining(&self) -> u16 {
        self.create.number.saturating_sub(self.pairs_done)
    }

    /// K or M?
    pub fn request_type(&self) -> RequestType {
        self.create.flags.request_type()
    }

    /// `true` once every pair has been delivered.
    pub fn is_complete(&self) -> bool {
        self.pairs_done >= self.create.number
    }

    /// Rolls progress back to `pairs_done` pairs (a peer revoked the
    /// rest) and puts the request back in service. A completed request
    /// still lingering is no longer complete: it must complete again,
    /// and linger from then.
    pub fn reopen(&mut self, pairs_done: u16) {
        self.pairs_done = pairs_done;
        self.state = RequestState::InService;
        self.completed_cycle = None;
    }

    /// `true` if the request can be scheduled at `cycle`.
    pub fn is_ready(&self, cycle: u64) -> bool {
        matches!(self.state, RequestState::Queued | RequestState::InService)
            && cycle >= self.min_cycle
            && cycle < self.timeout_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_wire::fields::{Fidelity16, RequestFlags};

    fn make(number: u16) -> Request {
        Request {
            id: RequestId {
                origin: 1,
                create_id: 0,
            },
            create: CreateMsg {
                remote_node_id: 2,
                min_fidelity: Fidelity16::from_f64(0.64),
                max_time_us: 0,
                purpose_id: 0,
                number,
                priority: 1,
                flags: RequestFlags {
                    store: true,
                    consecutive: true,
                    ..Default::default()
                },
            },
            queue_id: Some(AbsQueueId::new(1, 0)),
            alpha: 0.1,
            goodness: 0.65,
            min_cycle: 10,
            timeout_cycle: 100,
            est_cycles_per_pair: 5_000,
            pairs_done: 0,
            round: 0,
            state: RequestState::Queued,
            accepted_cycle: 0,
            completed_cycle: None,
        }
    }

    #[test]
    fn progress_tracking() {
        let mut r = make(3);
        assert_eq!(r.pairs_remaining(), 3);
        assert!(!r.is_complete());
        r.pairs_done = 3;
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
        r.state = RequestState::Completed;
        assert!(!r.is_ready(50));
        r.state = RequestState::Enqueueing;
        assert!(!r.is_ready(50));
        r.state = RequestState::InService;
        assert!(r.is_ready(50));
    }

    #[test]
    fn request_type_from_flags() {
        let r = make(1);
        assert_eq!(r.request_type(), RequestType::Keep);
    }
}
