//! The engine: what moves the clock.
//!
//! Every quantum link of a topology — each a full [`LinkSimulation`]
//! with the complete EGP/MHP/physics stack — is embedded into **one**
//! global discrete-event queue. The engine schedules a wake event at
//! each link's next internal firing time; when the global clock
//! reaches it, the link is advanced to exactly that instant. After
//! every call into a link — a wake, a CREATE, a retraction — the
//! network reads the link's outbox, so it sees each delivery and
//! rejection at its instant. Control messages, timers, faults and
//! workload arrivals travel the same queue: a single total order over
//! every event — one `SimTime` stream — and, because ties break by
//! insertion order and all randomness is seeded, bit-reproducible runs.
//! The engine knows nothing of requests or routes; the network's
//! dispatch gives each [`NetEvent`] its meaning.

use crate::fault::FaultKind;
use qlink_des::{EventQueue, SimDuration, SimTime};
use qlink_sim::config::RequestKind;
use qlink_sim::link::LinkSimulation;
use qlink_sim::workload::GeneratedRequest;

/// A CREATE queued inside a link: `(edge, side, create_id)`.
pub(crate) type CreateKey = (usize, usize, u16);

/// A network-layer classical control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlMsg {
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
pub(crate) enum NetEvent {
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
    /// submitted the CREATE: tell the link layer to drop it
    /// ([`LinkSimulation::expire_request`]).
    Expire(CreateKey),
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

/// Configures a freshly built link for life on the shared queue: since
/// [`Engine::schedule_wake`] schedules nothing for a link with no next
/// event, an idle link may park its cycle clock until the next CREATE.
pub(crate) fn embed(mut link: LinkSimulation) -> LinkSimulation {
    link.park_when_idle();
    link
}

/// The shared queue, the links on it, and the run's event statistics.
pub(crate) struct Engine {
    pub(crate) queue: EventQueue<NetEvent>,
    pub(crate) links: Vec<LinkSimulation>,
    wake_gen: Vec<u64>,
    /// Cached [`crate::topology::Topology::min_control_delay`].
    pub(crate) min_control_delay: SimDuration,
    /// Total simulated time the network has been run for.
    pub(crate) elapsed: SimDuration,
}

impl Engine {
    /// One queue over `links` (already [`embed`]ded), each with its
    /// first wake scheduled.
    pub(crate) fn new(links: Vec<LinkSimulation>, min_control_delay: SimDuration) -> Self {
        let mut engine = Engine {
            queue: EventQueue::new(),
            wake_gen: vec![0; links.len()],
            links,
            min_control_delay,
            elapsed: SimDuration::ZERO,
        };
        for link in 0..engine.links.len() {
            engine.schedule_wake(link);
        }
        engine
    }

    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    pub(crate) fn schedule_in(&mut self, delay: SimDuration, ev: NetEvent) {
        self.queue.schedule_in(delay, ev);
    }

    /// Total events fired: shared-queue events plus every link's
    /// internal events.
    pub(crate) fn events_fired(&self) -> u64 {
        self.queue.events_fired() + self.links.iter().map(|l| l.events_fired()).sum::<u64>()
    }

    /// MHP cycles the current link incarnations skipped while parked.
    pub(crate) fn cycles_elided(&self) -> u64 {
        self.links.iter().map(|l| l.cycles_elided()).sum()
    }

    /// Restarts the event-count statistics across the shared queue and
    /// every link, without touching any simulation state.
    pub(crate) fn reset_event_stats(&mut self) {
        self.queue.reset_stats();
        for link in &mut self.links {
            link.reset_event_stats();
        }
    }

    pub(crate) fn account_elapsed(&mut self, duration: SimDuration, horizon: SimTime) {
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
    pub(crate) fn schedule_wake(&mut self, link: usize) {
        if let Some(t) = self.links[link].next_event_time() {
            self.wake_gen[link] += 1;
            let gen = self.wake_gen[link];
            self.queue
                .schedule_at(t.max(self.queue.now()), NetEvent::LinkWake { link, gen });
        }
    }

    /// Advances `link` to the instant `t` of its wake number `gen`;
    /// `false` for a wake superseded by a later-scheduled, earlier one.
    pub(crate) fn wake(&mut self, link: usize, gen: u64, t: SimTime) -> bool {
        if gen != self.wake_gen[link] {
            return false;
        }
        self.links[link].advance_to(t);
        true
    }

    /// Submits one NL CREATE at `fmin` on `side` of `edge`, at the
    /// global instant; returns the link's create id.
    pub(crate) fn submit_nl(&mut self, edge: usize, side: usize, fmin: f64) -> u16 {
        // Align the link's clock with the global instant of submission.
        self.links[edge].advance_to(self.queue.now());
        let create_id = self.links[edge].submit(
            side,
            GeneratedRequest {
                kind: RequestKind::Nl,
                pairs: 1,
                origin: side,
                fmin,
                tmax_us: 0,
            },
        );
        self.schedule_wake(edge);
        create_id
    }

    /// A retraction notice arrived at `t`: the link drops the CREATE.
    pub(crate) fn expire(&mut self, (edge, side, create_id): CreateKey, t: SimTime) {
        self.links[edge].advance_to(t);
        self.links[edge].expire_request(side, create_id);
        self.schedule_wake(edge);
    }

    /// Replaces `edge`'s link by a new incarnation. Any wake scheduled
    /// for the old one is superseded by the generation bump.
    pub(crate) fn replace_link(&mut self, edge: usize, link: LinkSimulation) {
        self.links[edge] = link;
        self.schedule_wake(edge);
    }
}
