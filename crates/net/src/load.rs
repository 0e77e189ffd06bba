//! The open-loop workload engine: sustained arrival processes, user
//! classes, admission control, and SLO accounting on top of
//! [`Network`](crate::network::Network).
//!
//! The paper frames the link layer as a *service* for applications —
//! Create-and-Keep versus Measure-Directly requests, priority classes,
//! QKD versus blind-compute traffic (§2, §5) — but a closed loop of
//! back-to-back rounds never measures a service: capacity planning
//! needs an **open loop**, where requests arrive on their own clock
//! whatever the network's backlog, and the observable is how offered
//! load diverges from carried load past the knee. This module supplies
//! that loop:
//!
//! * [`ArrivalProcess`] — a deterministic Poisson process (exponential
//!   gaps drawn from the dedicated `net/load` RNG substream, so runs
//!   without a workload never touch it) or a recorded
//!   `(time, class, pair)` trace replayed verbatim;
//! * [`UserClass`] — the paper's traffic classes: request kind (CK /
//!   MD), priority, minimum fidelity, source–destination pair pool,
//!   and per-class latency / fidelity SLO targets;
//! * [`AdmissionControl`] — what happens when a class's in-flight
//!   bound is hit: reject (counted per class) or queue up to a cap,
//!   with queued arrivals admitted oldest-first by class priority as
//!   slots free;
//! * [`LoadStats`] / [`ClassLoadStats`] — exact per-class accounting
//!   (`offered = admitted + dropped + queued` and
//!   `admitted = completed + abandoned + in_flight` hold at every
//!   instant) plus always-on latency, queue-wait, and fidelity
//!   histograms in the standard [`crate::obs`] layouts, so per-run
//!   stats merge exactly across a sweep.
//!
//! **Determinism.** Arrivals are first-class events on the network's
//! shared queue, scheduled one-ahead. Every draw — gap, class, pair —
//! comes from the dedicated `net/load` substream while the network
//! handles the arrival event, so the arrival stream is a function of
//! the seed alone.
//!
//! The engine itself is pure bookkeeping: [`Network`] owns one
//! (armed from [`NetConfig::workload`]), calls into it at arrival /
//! completion / abandon instants, and issues the actual
//! entanglement requests. Nothing here schedules events or draws
//! randomness on its own.
//!
//! [`Network`]: crate::network::Network
//! [`NetConfig::workload`]: crate::network::NetConfig::workload

use crate::ledger::EndToEndOutcome;
use crate::obs::{fidelity_histogram, latency_histogram};
use crate::topology::Topology;
use qlink_des::{DetRng, Histogram, SimDuration, SimTime};
pub use qlink_sim::config::RequestKind;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-class service-level objective targets. `None` targets are
/// trivially met: every completion counts toward attainment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloTarget {
    /// Arrival-to-completion latency bound (queue wait included).
    pub latency: Option<SimDuration>,
    /// Minimum delivered end-to-end fidelity.
    pub min_fidelity: Option<f64>,
}

/// What a class does with an arrival that finds its in-flight bound
/// already full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionControl {
    /// Admit everything (the open-loop purist's choice; in-flight
    /// state then grows with the backlog, so prefer a bound for
    /// overload studies).
    #[default]
    Open,
    /// Reject the arrival outright once `max_in_flight` requests of
    /// this class are in flight; rejections are counted per class in
    /// [`ClassLoadStats::dropped`].
    RejectBeyond {
        /// In-flight bound of the class.
        max_in_flight: u32,
    },
    /// Queue the arrival (FIFO per class) once `max_in_flight` is
    /// reached; arrivals beyond `queue_cap` waiting are dropped.
    /// Queued arrivals are admitted as slots free, highest-priority
    /// class first, and their [`ClassLoadStats::queue_wait`] is the
    /// arrival-to-admission delay.
    QueueBeyond {
        /// In-flight bound of the class.
        max_in_flight: u32,
        /// Waiting-room bound of the class.
        queue_cap: usize,
    },
}

/// One traffic class of an open-loop workload — the paper's user-level
/// request types (CK / MD) with the service knobs a capacity planner
/// sweeps.
#[derive(Debug, Clone)]
pub struct UserClass {
    /// Display name (report rows key on it).
    pub name: String,
    /// The paper's request kind this class models:
    /// [`RequestKind::Ck`] (create-and-keep, e.g. blind compute) or
    /// [`RequestKind::Md`] (measure-directly, e.g. QKD). Accounting
    /// metadata — the network layer serves every class through the
    /// same NL pipeline.
    pub kind: RequestKind,
    /// Admission priority: queued arrivals of a *lower* value are
    /// admitted first when slots free (ties drain in class order).
    pub priority: u8,
    /// Relative arrival weight under [`ArrivalProcess::Poisson`]
    /// (each arrival picks its class with probability proportional to
    /// weight). Ignored for trace-driven workloads.
    pub weight: f64,
    /// Minimum link fidelity requested for this class's entanglement.
    pub fmin: f64,
    /// Source–destination pool; each Poisson arrival of the class
    /// draws one pair uniformly. Trace-driven arrivals carry their
    /// own pair and ignore the pool.
    pub pairs: Vec<(usize, usize)>,
    /// What to do with arrivals beyond the class's in-flight bound.
    pub admission: AdmissionControl,
    /// The class's SLO targets.
    pub slo: SloTarget,
}

impl UserClass {
    /// A class with neutral defaults: weight 1, priority 0, `fmin`
    /// 0.6, open admission, no SLO targets.
    pub fn new(name: impl Into<String>, kind: RequestKind, pairs: Vec<(usize, usize)>) -> Self {
        UserClass {
            name: name.into(),
            kind,
            priority: 0,
            weight: 1.0,
            fmin: 0.6,
            pairs,
            admission: AdmissionControl::Open,
            slo: SloTarget::default(),
        }
    }

    /// Builder: relative Poisson arrival weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Builder: admission priority (lower drains first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Builder: requested minimum link fidelity.
    pub fn with_fmin(mut self, fmin: f64) -> Self {
        self.fmin = fmin;
        self
    }

    /// Builder: admission control policy.
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Builder: arrival-to-completion latency SLO target.
    pub fn with_latency_slo(mut self, latency: SimDuration) -> Self {
        self.slo.latency = Some(latency);
        self
    }

    /// Builder: delivered-fidelity SLO target.
    pub fn with_fidelity_slo(mut self, min_fidelity: f64) -> Self {
        self.slo.min_fidelity = Some(min_fidelity);
        self
    }
}

/// One recorded arrival of a trace-driven workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceArrival {
    /// Arrival instant, relative to the start of the run.
    /// Entries must be sorted (non-decreasing).
    pub after: SimDuration,
    /// Index into the workload's class list.
    pub class: usize,
    /// The arrival's `(src, dst)` pair.
    pub pair: (usize, usize),
}

/// How arrivals are generated.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Deterministic Poisson: exponential inter-arrival gaps at
    /// `rate_hz` arrivals per simulated second, drawn from the
    /// network's dedicated `net/load` substream; each arrival then
    /// draws its class (weighted) and pair (uniform in the class
    /// pool).
    Poisson {
        /// Mean arrival rate, in arrivals per simulated second.
        rate_hz: f64,
    },
    /// Replay a recorded `(time, class, pair)` list verbatim — no
    /// randomness at all. Shared by `Arc` so cloning a spec across
    /// sweep threads never copies the trace.
    Trace {
        /// The sorted arrival records.
        arrivals: Arc<Vec<TraceArrival>>,
    },
}

/// A complete open-loop workload description: the arrival process,
/// the traffic classes it feeds, and the arrival cap. Data-only
/// (`Clone + Send`), so sweep specs carry it across threads.
#[derive(Debug, Clone)]
pub struct Workload {
    /// How arrivals are generated.
    pub arrivals: ArrivalProcess,
    /// The traffic classes (trace arrivals index into this list).
    pub classes: Vec<UserClass>,
    /// Stop generating after this many arrivals (`None` = run until
    /// the driver's time budget; traces stop at their end regardless).
    pub max_arrivals: Option<u64>,
}

impl Workload {
    /// A Poisson workload at `rate_hz` arrivals per simulated second.
    pub fn poisson(rate_hz: f64, classes: Vec<UserClass>) -> Self {
        Workload {
            arrivals: ArrivalProcess::Poisson { rate_hz },
            classes,
            max_arrivals: None,
        }
    }

    /// A trace-driven workload replaying `arrivals` (must be sorted
    /// by [`TraceArrival::after`]).
    pub fn trace(arrivals: Vec<TraceArrival>, classes: Vec<UserClass>) -> Self {
        Workload {
            arrivals: ArrivalProcess::Trace {
                arrivals: Arc::new(arrivals),
            },
            classes,
            max_arrivals: None,
        }
    }

    /// Builder: stop generating after `n` arrivals.
    pub fn with_max_arrivals(mut self, n: u64) -> Self {
        self.max_arrivals = Some(n);
        self
    }

    /// Checks the spec against the topology it is armed on.
    ///
    /// # Panics
    /// Panics on an empty class list, a non-positive Poisson rate or
    /// class weight, an unsorted trace, an out-of-range class or node
    /// index, a `src == dst` pair, a disconnected pair, or a Poisson
    /// class with an empty pair pool.
    pub(crate) fn validate(&self, topo: &Topology) {
        assert!(
            !self.classes.is_empty(),
            "a workload needs at least one user class"
        );
        let nodes = topo.node_count();
        let check_pair = |(src, dst): (usize, usize)| {
            assert!(
                src < nodes && dst < nodes,
                "pair ({src}, {dst}) off-topology"
            );
            assert!(src != dst, "pair ({src}, {dst}) needs two distinct ends");
            assert!(
                topo.shortest_path(src, dst).is_some(),
                "no path from {src} to {dst}"
            );
        };
        for class in &self.classes {
            assert!(
                class.weight > 0.0 && class.weight.is_finite(),
                "class {:?} needs a positive weight",
                class.name
            );
            for &pair in &class.pairs {
                check_pair(pair);
            }
        }
        match &self.arrivals {
            ArrivalProcess::Poisson { rate_hz } => {
                assert!(
                    *rate_hz > 0.0 && rate_hz.is_finite(),
                    "Poisson arrivals need a positive rate"
                );
                for class in &self.classes {
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
                        a.class < self.classes.len(),
                        "trace arrival names class {} of {}",
                        a.class,
                        self.classes.len()
                    );
                    check_pair(a.pair);
                }
            }
        }
    }
}

/// Exact per-class accounting of one open-loop run. Every counter is
/// an integer and every distribution a fixed-bucket [`Histogram`], so
/// two runs compare bit-for-bit with `==` — the determinism tests'
/// whole interface.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLoadStats {
    /// Class display name.
    pub name: String,
    /// Arrivals generated for this class.
    pub offered: u64,
    /// Arrivals issued into the network (immediately or from the
    /// waiting queue).
    pub admitted: u64,
    /// Arrivals rejected by admission control (bound hit, queue full).
    pub dropped: u64,
    /// Admitted requests that delivered end-to-end entanglement.
    pub completed: u64,
    /// Admitted requests the network abandoned (retry budget
    /// exhausted, no route, or cancelled).
    pub abandoned: u64,
    /// Arrivals still waiting in the admission queue right now (at
    /// end of run: arrivals that never got a slot).
    pub queued: u64,
    /// Admitted requests still in flight right now.
    pub in_flight: u64,
    /// Completions that met the class latency SLO (every completion
    /// when no target is set).
    pub slo_latency_met: u64,
    /// Completions that met the class fidelity SLO (every completion
    /// when no target is set).
    pub slo_fidelity_met: u64,
    /// Arrival-to-completion latency in seconds (queue wait included;
    /// the standard [`latency_histogram`] layout).
    pub latency: Histogram,
    /// Arrival-to-admission wait in seconds (0 for immediate
    /// admissions; the standard [`latency_histogram`] layout).
    pub queue_wait: Histogram,
    /// Delivered end-to-end fidelity (the standard
    /// [`fidelity_histogram`] layout).
    pub fidelity: Histogram,
}

impl ClassLoadStats {
    fn new(name: String) -> Self {
        ClassLoadStats {
            name,
            offered: 0,
            admitted: 0,
            dropped: 0,
            completed: 0,
            abandoned: 0,
            queued: 0,
            in_flight: 0,
            slo_latency_met: 0,
            slo_fidelity_met: 0,
            latency: latency_histogram(),
            queue_wait: latency_histogram(),
            fidelity: fidelity_histogram(),
        }
    }

    /// Fraction of completions that met the latency SLO.
    ///
    /// A class that completed nothing reports **0.0** — never the
    /// NaN of a bare `0/0` — so report consumers (CSV emitters,
    /// comparisons, sort keys) need no special case; pinned by
    /// `zero_completion_class_reports_zero_attainment_not_nan` in
    /// `tests/net_faults.rs`.
    pub fn slo_latency_attainment(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_latency_met as f64 / self.completed as f64
        }
    }

    /// Fraction of completions that met the fidelity SLO (0.0 — not
    /// NaN — when nothing completed, as
    /// [`ClassLoadStats::slo_latency_attainment`]).
    pub fn slo_fidelity_attainment(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_fidelity_met as f64 / self.completed as f64
        }
    }

    /// Exact merge of another run's stats for the same class (sweep
    /// aggregation across seeds).
    pub fn merge(&mut self, other: &ClassLoadStats) {
        debug_assert_eq!(self.name, other.name, "merging different classes");
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.dropped += other.dropped;
        self.completed += other.completed;
        self.abandoned += other.abandoned;
        self.queued += other.queued;
        self.in_flight += other.in_flight;
        self.slo_latency_met += other.slo_latency_met;
        self.slo_fidelity_met += other.slo_fidelity_met;
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.fidelity.merge(&other.fidelity);
    }
}

/// The full accounting of one open-loop run, one entry per class (in
/// workload class order).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Per-class accounting, in workload class order.
    pub classes: Vec<ClassLoadStats>,
}

impl LoadStats {
    /// Arrivals generated, across classes.
    pub fn total_offered(&self) -> u64 {
        self.classes.iter().map(|c| c.offered).sum()
    }

    /// Arrivals admitted into the network, across classes.
    pub fn total_admitted(&self) -> u64 {
        self.classes.iter().map(|c| c.admitted).sum()
    }

    /// Requests that delivered (the carried load), across classes.
    pub fn total_completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Arrivals rejected by admission control, across classes.
    pub fn total_dropped(&self) -> u64 {
        self.classes.iter().map(|c| c.dropped).sum()
    }
}

/// An arrival waiting for an admission slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedArrival {
    pub(crate) class: usize,
    pub(crate) arrived_at: SimTime,
    pub(crate) pair: (usize, usize),
}

/// The workload engine state a [`Network`](crate::network::Network)
/// owns while a workload is armed — the spec, the live admission state
/// machine, and the accounting. Pure bookkeeping — every method is
/// called by the network at event-handling instants, and the only
/// randomness it ever touches is the `net/load` substream the network
/// passes in. It keeps no table of requests: each admitted request's
/// ledger record names its class and arrival instant, and the network
/// hands both back when the request completes or is abandoned.
#[derive(Debug)]
pub(crate) struct LoadEngine {
    spec: Workload,
    /// Cached per-class Poisson weights (spec order).
    weights: Vec<f64>,
    /// Class indices in admission-drain order: priority ascending,
    /// then class order.
    drain_order: Vec<usize>,
    stats: LoadStats,
    /// FIFO waiting room per class.
    queues: Vec<VecDeque<QueuedArrival>>,
}

impl LoadEngine {
    pub(crate) fn new(spec: Workload) -> LoadEngine {
        let weights: Vec<f64> = spec.classes.iter().map(|c| c.weight).collect();
        let mut drain_order: Vec<usize> = (0..spec.classes.len()).collect();
        drain_order.sort_by_key(|&i| (spec.classes[i].priority, i));
        let stats = LoadStats {
            classes: spec
                .classes
                .iter()
                .map(|c| ClassLoadStats::new(c.name.clone()))
                .collect(),
        };
        let queues = vec![VecDeque::new(); spec.classes.len()];
        LoadEngine {
            weights,
            drain_order,
            stats,
            queues,
            spec,
        }
    }

    pub(crate) fn class(&self, class: usize) -> &UserClass {
        &self.spec.classes[class]
    }

    pub(crate) fn stats(&self) -> &LoadStats {
        &self.stats
    }

    /// The number of arrivals this workload can ever generate
    /// (`u64::MAX` standing in for unbounded).
    fn arrival_cap(&self) -> u64 {
        let cap = self.spec.max_arrivals.unwrap_or(u64::MAX);
        match &self.spec.arrivals {
            ArrivalProcess::Poisson { .. } => cap,
            ArrivalProcess::Trace { arrivals } => cap.min(arrivals.len() as u64),
        }
    }

    /// Delay from arming to the first arrival (`None`: the workload
    /// generates nothing).
    pub(crate) fn first_arrival_delay(&self, rng: &mut DetRng) -> Option<SimDuration> {
        if self.arrival_cap() == 0 {
            return None;
        }
        match &self.spec.arrivals {
            ArrivalProcess::Poisson { rate_hz } => Some(exp_gap(*rate_hz, rng)),
            ArrivalProcess::Trace { arrivals } => Some(arrivals[0].after),
        }
    }

    /// Delay from arrival `index` to arrival `index + 1` (`None`: the
    /// stream is exhausted). Exactly one [`DetRng`] draw per Poisson
    /// gap.
    pub(crate) fn gap_after(&self, index: u64, rng: &mut DetRng) -> Option<SimDuration> {
        if index + 1 >= self.arrival_cap() {
            return None;
        }
        match &self.spec.arrivals {
            ArrivalProcess::Poisson { rate_hz } => Some(exp_gap(*rate_hz, rng)),
            ArrivalProcess::Trace { arrivals } => {
                let here = arrivals[index as usize].after;
                let next = arrivals[index as usize + 1].after;
                // Monotonicity is validated when the workload arms.
                Some(next - here)
            }
        }
    }

    /// Resolves arrival `index` to its `(class, pair)` — drawing both
    /// for Poisson, reading the trace record otherwise — and counts it
    /// offered.
    pub(crate) fn resolve_arrival(
        &mut self,
        index: u64,
        rng: &mut DetRng,
    ) -> (usize, (usize, usize)) {
        let (class, pair) = match &self.spec.arrivals {
            ArrivalProcess::Poisson { .. } => {
                let class = rng.weighted_index(&self.weights);
                let pool = &self.spec.classes[class].pairs;
                let pair = pool[rng.below(pool.len() as u64) as usize];
                (class, pair)
            }
            ArrivalProcess::Trace { arrivals } => {
                let a = arrivals[index as usize];
                (a.class, a.pair)
            }
        };
        self.stats.classes[class].offered += 1;
        (class, pair)
    }

    fn class_cap_free(&self, class: usize) -> bool {
        match self.spec.classes[class].admission {
            AdmissionControl::Open => true,
            AdmissionControl::RejectBeyond { max_in_flight }
            | AdmissionControl::QueueBeyond { max_in_flight, .. } => {
                self.stats.classes[class].in_flight < u64::from(max_in_flight)
            }
        }
    }

    /// Runs the admission state machine on a fresh arrival of `class`
    /// for `pair` at `now`, counting its disposition: `true` when it is
    /// admitted, for the caller to issue; otherwise it waits in its
    /// class's queue, or is dropped.
    pub(crate) fn admit(&mut self, class: usize, pair: (usize, usize), now: SimTime) -> bool {
        if self.class_cap_free(class) {
            self.register(class, now, now);
            return true;
        }
        match self.spec.classes[class].admission {
            AdmissionControl::QueueBeyond { queue_cap, .. }
                if self.queues[class].len() < queue_cap =>
            {
                self.stats.classes[class].queued += 1;
                let arrived_at = now;
                self.queues[class].push_back(QueuedArrival {
                    class,
                    arrived_at,
                    pair,
                });
            }
            _ => self.stats.classes[class].dropped += 1,
        }
        false
    }

    /// Counts an admission at `now` of an arrival of `class` that
    /// landed at `arrived_at`.
    fn register(&mut self, class: usize, arrived_at: SimTime, now: SimTime) {
        let c = &mut self.stats.classes[class];
        c.admitted += 1;
        c.in_flight += 1;
        c.queue_wait.record(now.since(arrived_at).as_secs_f64());
    }

    /// `true` while any class has arrivals waiting for a slot.
    pub(crate) fn has_queued(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Admits the next queued arrival with a free slot at `now` —
    /// highest-priority class first, FIFO within a class — for the
    /// caller to issue; `None` when no waiting arrival has a slot.
    pub(crate) fn pop_admittable(&mut self, now: SimTime) -> Option<QueuedArrival> {
        for &class in &self.drain_order {
            if self.queues[class].is_empty() || !self.class_cap_free(class) {
                continue;
            }
            let q = self.queues[class].pop_front().expect("non-empty queue");
            self.stats.classes[class].queued -= 1;
            self.register(class, q.arrived_at, now);
            return Some(q);
        }
        None
    }

    /// An admitted request of `class`, arrived at `arrived_at`,
    /// delivered `out`: update the class accounting and SLO
    /// attainment.
    pub(crate) fn complete(&mut self, class: usize, arrived_at: SimTime, out: &EndToEndOutcome) {
        let fidelity = out.end_to_end_fidelity;
        let latency = out.delivered_at.since(arrived_at);
        let cls = &self.spec.classes[class];
        let c = &mut self.stats.classes[class];
        c.in_flight -= 1;
        c.completed += 1;
        c.latency.record(latency.as_secs_f64());
        c.fidelity.record(fidelity);
        if cls.slo.latency.is_none_or(|bound| latency <= bound) {
            c.slo_latency_met += 1;
        }
        if cls.slo.min_fidelity.is_none_or(|bound| fidelity >= bound) {
            c.slo_fidelity_met += 1;
        }
    }

    /// An admitted request of `class` was abandoned (retry budget
    /// exhausted, no route, or cancelled).
    pub(crate) fn abandon(&mut self, class: usize) {
        let c = &mut self.stats.classes[class];
        c.in_flight -= 1;
        c.abandoned += 1;
    }
}

/// One exponential inter-arrival gap at `rate_hz`: `u ∈ [0, 1)` maps
/// through `−ln(1 − u) / λ`, so the gap is finite and non-negative.
fn exp_gap(rate_hz: f64, rng: &mut DetRng) -> SimDuration {
    let u = rng.uniform();
    SimDuration::from_secs_f64(-(1.0 - u).ln() / rate_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome of `fidelity` delivered at time zero.
    fn delivered(fidelity: f64) -> EndToEndOutcome {
        EndToEndOutcome {
            request: 0,
            path: vec![0, 1],
            link_fidelities: vec![fidelity],
            end_to_end_fidelity: fidelity,
            latency: SimDuration::ZERO,
            delivered_at: SimTime::ZERO,
            swaps: 0,
            frame_z: 0,
            frame_x: 0,
            distilled: false,
            pairs_consumed: 1,
            pair_fidelities: vec![vec![fidelity]],
        }
    }

    fn two_class_spec() -> Workload {
        Workload::poisson(
            1000.0,
            vec![
                UserClass::new("ck", RequestKind::Ck, vec![(0, 1)])
                    .with_priority(1)
                    .with_admission(AdmissionControl::QueueBeyond {
                        max_in_flight: 1,
                        queue_cap: 2,
                    }),
                UserClass::new("md", RequestKind::Md, vec![(1, 0)])
                    .with_priority(0)
                    .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 1 }),
            ],
        )
    }

    #[test]
    fn admission_state_machine_accounts_exactly() {
        let mut eng = LoadEngine::new(two_class_spec());
        let t = SimTime::ZERO;
        let mut rng = DetRng::new(7);
        // Class 0 admits once, queues twice, drops the fourth.
        for _ in 0..4 {
            eng.stats.classes[0].offered += 1;
            eng.admit(0, (0, 1), t);
        }
        let c = &eng.stats().classes[0];
        assert_eq!(
            (c.offered, c.admitted, c.queued, c.dropped),
            (4, 1, 2, 1),
            "offered splits into admitted + queued + dropped"
        );
        // Completion frees the slot; the oldest queued arrival drains.
        eng.complete(0, t, &delivered(0.9));
        let q = eng.pop_admittable(t).expect("a queued arrival drains");
        assert_eq!(q.class, 0);
        assert!(eng.pop_admittable(t).is_none(), "slot is full again");
        let c = &eng.stats().classes[0];
        assert_eq!(
            (c.admitted, c.completed, c.in_flight, c.queued),
            (2, 1, 1, 1)
        );
        // An abandon frees the slot the same way.
        eng.abandon(0);
        let c = &eng.stats().classes[0];
        assert_eq!((c.abandoned, c.in_flight), (1, 0));
        assert!(
            eng.pop_admittable(t).is_some(),
            "the last queued arrival drains"
        );
        let _ = eng.first_arrival_delay(&mut rng);
    }

    #[test]
    fn queued_arrivals_drain_by_priority() {
        let mut eng = LoadEngine::new(two_class_spec());
        let t = SimTime::ZERO;
        // Fill both classes' slots, then queue one class-0 arrival.
        assert!(eng.admit(0, (0, 1), t));
        assert!(eng.admit(1, (1, 0), t));
        assert!(!eng.admit(0, (0, 1), t), "class 0 queues");
        // Class 1 (priority 0) has nothing queued, so class 0 drains
        // despite its lower priority — but only once its own slot
        // frees: class 1's completion alone unblocks nothing.
        eng.complete(1, t, &delivered(0.9));
        assert!(eng.pop_admittable(t).is_none(), "class-0 slot still full");
        eng.complete(0, t, &delivered(0.9));
        let q = eng.pop_admittable(t).expect("class-0 arrival drains");
        assert_eq!(q.class, 0);
    }

    #[test]
    fn trace_workloads_replay_verbatim() {
        let trace = vec![
            TraceArrival {
                after: SimDuration::from_micros(5),
                class: 1,
                pair: (1, 0),
            },
            TraceArrival {
                after: SimDuration::from_micros(5),
                class: 0,
                pair: (0, 1),
            },
            TraceArrival {
                after: SimDuration::from_micros(9),
                class: 0,
                pair: (0, 1),
            },
        ];
        let mut eng = LoadEngine::new(Workload::trace(trace, two_class_spec().classes));
        let mut rng = DetRng::new(1);
        assert_eq!(
            eng.first_arrival_delay(&mut rng),
            Some(SimDuration::from_micros(5))
        );
        assert_eq!(eng.gap_after(0, &mut rng), Some(SimDuration::ZERO));
        assert_eq!(
            eng.gap_after(1, &mut rng),
            Some(SimDuration::from_micros(4))
        );
        assert_eq!(eng.gap_after(2, &mut rng), None, "trace exhausted");
        assert_eq!(eng.resolve_arrival(0, &mut rng), (1, (1, 0)));
        assert_eq!(eng.resolve_arrival(1, &mut rng), (0, (0, 1)));
        assert_eq!(eng.stats().classes[0].offered, 1);
        assert_eq!(eng.stats().classes[1].offered, 1);
    }

    #[test]
    fn max_arrivals_caps_the_stream() {
        let spec = two_class_spec().with_max_arrivals(2);
        let eng = LoadEngine::new(spec);
        let mut rng = DetRng::new(3);
        assert!(eng.first_arrival_delay(&mut rng).is_some());
        assert!(eng.gap_after(0, &mut rng).is_some());
        assert!(eng.gap_after(1, &mut rng).is_none(), "cap reached");
        let none = LoadEngine::new(two_class_spec().with_max_arrivals(0));
        assert!(none.first_arrival_delay(&mut rng).is_none());
    }
}
