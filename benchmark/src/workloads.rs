//! The four workloads, each a list of steady-state *phases*.
//!
//! A phase builds one simulator from the run seed and advances it in
//! equal slices of simulated time through the user-facing run call
//! (`LinkSimulation::run_for`, `Network::run_for`). The issue's own
//! loads (Poisson CREATEs at f = 0.99, one corner-to-corner round)
//! make host time a random variable of the seed, so every phase is a
//! closed loop whose client counts, kind mix and idle share are read
//! off those loads (README, "Where the numbers come from"):
//!
//! * link phases keep a fixed population of clients, each asking for
//!   one kind; a completed request is replaced at a slice boundary,
//!   at once or after a rest proportional to how long it took;
//! * `grid16_sparse` keeps a fixed set of end-to-end requests in
//!   flight, re-issuing each as it completes;
//! * `service_knee` is the issue's open-loop cell unchanged.
//!
//! Simulated drops, rejections and timeouts are model outputs, never
//! failures; a rep fails only on a panic, a failed output check, or a
//! `model.*` fingerprint that differs from rep 1.

use crate::spans::Recorder;
use qlink::des::Histogram;
use qlink::net::obs::{latency_histogram, TelemetryConfig};
use qlink::prelude::*;
use std::time::Instant;

/// Simulated statistics of one rep — exact by seed. A change that only
/// speeds the simulator up must leave every field bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Model {
    /// Events fired (links' internal events plus shared-queue events).
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_elapsed_s: f64,
    /// Pairs (link workloads) or end-to-end requests (network
    /// workloads) delivered.
    pub delivered: u64,
    /// Mean delivered fidelity.
    pub fidelity_mean: f64,
    /// Median request latency, simulated seconds.
    pub latency_p50_s: f64,
    /// 90th-percentile request latency, simulated seconds.
    pub latency_p90_s: f64,
}

impl Model {
    /// Deliveries per simulated second.
    pub fn throughput_per_sim_s(&self) -> f64 {
        self.delivered as f64 / self.sim_elapsed_s
    }

    /// The bit pattern compared across reps.
    pub fn fingerprint(&self) -> [u64; 6] {
        [
            self.events,
            self.sim_elapsed_s.to_bits(),
            self.delivered,
            self.fidelity_mean.to_bits(),
            self.latency_p50_s.to_bits(),
            self.latency_p90_s.to_bits(),
        ]
    }
}

/// Work counts of one phase, the multipliers of the per-layer probes
/// in `trace.unattributed_frac` and the `net.*` count metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// MHP cycles simulated across all links (each polls both EGPs).
    pub link_cycles: f64,
    /// Mean distributed-queue length (`LinkMetrics::queue_length`,
    /// sampled every 256 cycles); 0 for networks, whose links keep
    /// their own.
    pub queue_depth: f64,
    /// Shared-queue events (0 for a lone link).
    pub shared_events: u64,
    /// Shared-queue depth high water (traced rep only, else 0).
    pub queue_depth_hw: u64,
    /// Open-loop arrivals offered.
    pub offered: u64,
    /// Requests that planned a route: arrivals admitted, or closed-loop
    /// requests issued.
    pub admitted: u64,
    /// Nodes of the topology the routes were planned on (0: no network).
    pub nodes: usize,
    /// Attempts re-planned after a failure.
    pub reroutes: u64,
    /// Requests abandoned after exhausting their retries.
    pub timeouts: u64,
}

/// What a phase reports when its run ends.
#[derive(Debug, Clone)]
pub struct PhaseEnd {
    pub model: Model,
    pub counts: Counts,
    /// Human-readable output-check failures (empty: the phase passed).
    pub failures: Vec<String>,
    /// Fidelity sum behind `model.fidelity_mean`, for merging phases.
    fidelity_sum: f64,
    /// Request latencies behind the percentiles, in the library's
    /// standard layout (100 ms buckets) so phases merge exactly.
    latency: Histogram,
}

impl Default for PhaseEnd {
    fn default() -> Self {
        PhaseEnd {
            model: Model::default(),
            counts: Counts::default(),
            failures: Vec::new(),
            fidelity_sum: 0.0,
            latency: latency_histogram(),
        }
    }
}

/// One running phase.
pub trait Sim {
    /// Advances one slice through the user-facing run call.
    fn run_slice(&mut self);
    /// Advances one slice with every public call wrapped in a span.
    fn run_slice_traced(&mut self, rec: &mut Recorder);
    /// Events fired since the run began (exact by seed): what the
    /// harness weighs each slice by.
    fn events(&self) -> u64;
    /// Closes the run: simulated statistics, counts and output checks.
    fn finish(&mut self) -> PhaseEnd;
}

/// One steady-state phase of a workload.
pub struct Phase {
    pub name: &'static str,
    /// Slices per rep.
    pub slices: usize,
    /// Leading slices the harness prices one by one rather than at the
    /// phase's floor (cold caches, queues and caps filling).
    pub warm: usize,
    /// Simulated seconds per slice.
    pub slice_s: f64,
    shape: Shape,
}

impl Phase {
    /// Spec to ready-to-run simulator: configuration, construction,
    /// setters and the initial load. This is the region `setup_s`
    /// times; with a live recorder every step is a span.
    pub fn build(&self, seed: u64, rec: &mut Recorder) -> Box<dyn Sim> {
        match self.shape {
            Shape::Link(shape) => build_link(self, shape, seed, rec),
            Shape::Net(shape) => build_net(self, shape, seed, rec),
            #[cfg(test)]
            Shape::Panics => panic!("kaput"),
        }
    }
}

/// One workload: a name, why it exists, and its phases.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub phases: Vec<Phase>,
}

/// The benchmark's workloads, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "link_lab",
            why: "one Lab link, NL, CK and MD together under HigherWfq at the paper load's queue depth and idle share: sim, egp, phys and wire do all the work, net none",
            phases: vec![
                link_phase("load", LinkScenario::Lab, 0.64, &LAB_LOAD, true, 18.0),
                link_phase("idle", LinkScenario::Lab, 0.64, &[], false, 2.0),
            ],
        },
        Workload {
            name: "link_ql2020",
            why: "the same stack on 25 km fibre at the paper load's time split: stop-and-wait NL/CK, then pipelined MD attempts, over a 10-CREATE backlog, then idle",
            phases: vec![
                link_phase("keep", LinkScenario::Ql2020, 0.60, &QL2020_KEEP, false, 21.5),
                link_phase("measure", LinkScenario::Ql2020, 0.60, &QL2020_MEASURE, true, 5.9),
                link_phase("idle", LinkScenario::Ql2020, 0.60, &[], false, 5.6),
            ],
        },
        Workload {
            name: "grid16_sparse",
            why: "12 two-hop requests always in flight on a 16x16 grid, ~460 of 480 links idle: LinkWake dispatch, the shared queue at depth 480 and idle advance_to do the work",
            // 0.25 sim-ms is ~2.5 ms of host time, like the link slices.
            phases: vec![Phase {
                name: "run",
                slices: 1400,
                warm: 40,
                slice_s: 0.00025,
                shape: Shape::Net(NetShape::Grid16Sparse),
            }],
        },
        Workload {
            name: "service_knee",
            why: "the examples/service.rs past-knee cell, 2 kHz open loop: arrival, admission, plan_route, CREATE, delivery and accounting on busy links",
            phases: vec![Phase {
                name: "run",
                slices: 1600,
                warm: 80,
                slice_s: 0.0025,
                shape: Shape::Net(NetShape::ServiceKnee),
            }],
        },
    ]
}

/// A workload of `(slices, warm)` phases that panic when built, for
/// the harness's own tests.
#[cfg(test)]
pub fn unbuildable(phases: &[(usize, usize)]) -> Workload {
    Workload {
        name: "unbuildable",
        why: "test only",
        phases: phases
            .iter()
            .map(|&(slices, warm)| Phase {
                name: "boom",
                slices,
                warm,
                slice_s: 1.0,
                shape: Shape::Panics,
            })
            .collect(),
    }
}

/// Seeds every simulator of a run from `--seed` and a label, so
/// phases draw from unrelated streams and the same seed always gives
/// the same inputs.
fn derive_seed(seed: u64, label: &str) -> u64 {
    DetRng::new(seed).substream(label).seed()
}

// ---- link phases -----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkScenario {
    Lab,
    Ql2020,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Link(LinkShape),
    Net(NetShape),
    /// Panics while building, for the harness's own tests.
    #[cfg(test)]
    Panics,
}

/// Clients of one kind in a link phase's closed loop.
#[derive(Debug, Clone, Copy)]
struct Clients {
    kind: RequestKind,
    count: usize,
    /// Pairs per request: uniform in `1..=kmax`.
    kmax: u16,
    /// After a request that took `t` from CREATE to completion the
    /// client rests `rest × t` before its next one (0: never rests).
    /// NL has strict priority, so an NL client that never rested would
    /// starve the rest; resting twice its response time holds the link
    /// a third of the time, the share the uniform pattern offers it.
    rest: f64,
}

const fn clients(kind: RequestKind, count: usize, kmax: u16, rest: f64) -> Clients {
    Clients {
        kind,
        count,
        kmax,
        rest,
    }
}

// Populations read off the issue's load — `UsagePattern::uniform()`
// with MD kmax 10 at f = 0.99 under `HigherWfq`, ten seeds, 20 and
// 25 sim-s (README, "Where the numbers come from"):
//
// * Lab: mean queue length 7.2, pairs delivered NL : CK : MD =
//   56 : 57 : 53, 9 % of cycles idle. One CK pair is served per MD
//   request under WFQ, so four CK clients keep up with four MD ones
//   and MD requests of one or two pairs deliver as many pairs as CK
//   does (41 : 44 : 54 on seed 1; 43 : 22 : 77 with one to ten).
// * QL2020: mean queue length 10.2; 65 % of the run in stop-and-wait
//   K-type service (1.6 events per cycle), 18 % in pipelined M-type
//   service (10 events per cycle), 17 % idle. A mixed phase splits its
//   time between the two by the seed (11.9–16.4 M events over ten
//   seeds), so each gets a phase of its measured length.
const LAB_LOAD: [Clients; 3] = [
    clients(RequestKind::Nl, 1, 1, 2.0),
    clients(RequestKind::Ck, 4, 1, 0.0),
    clients(RequestKind::Md, 4, 2, 0.0),
];
const QL2020_KEEP: [Clients; 2] = [
    clients(RequestKind::Nl, 1, 1, 2.0),
    clients(RequestKind::Ck, 11, 1, 0.0),
];
const QL2020_MEASURE: [Clients; 1] = [clients(RequestKind::Md, 12, 10, 0.0)];

/// One link under a closed loop of CREATE clients (none: an idle link).
#[derive(Debug, Clone, Copy)]
struct LinkShape {
    scenario: LinkScenario,
    fmin: f64,
    population: &'static [Clients],
    /// Whether every kind asked for must deliver. Not on QL2020's
    /// K-type phase: a pair takes ~2.5 sim-s there, and one seed in
    /// twenty delivers no CK pair in 19.5 sim-s.
    must_deliver: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum NetShape {
    Grid16Sparse,
    ServiceKnee,
}

/// Simulated seconds per link slice: ~2 ms of host time on a loaded
/// Lab link, a thousand MHP cycles. Short on purpose: the floor needs
/// slices that fit inside the gaps the host's neighbours leave
/// (README, "Why the floor").
const LINK_SLICE_S: f64 = 0.01;

fn link_phase(
    name: &'static str,
    scenario: LinkScenario,
    fmin: f64,
    population: &'static [Clients],
    must_deliver: bool,
    sim_s: f64,
) -> Phase {
    Phase {
        name,
        slices: (sim_s / LINK_SLICE_S).round() as usize,
        warm: 5,
        slice_s: LINK_SLICE_S,
        shape: Shape::Link(LinkShape {
            scenario,
            fmin,
            population,
            must_deliver,
        }),
    }
}

/// What one client is doing.
#[derive(Debug, Clone, Copy)]
enum ClientState {
    /// Waiting for `(origin, create_id)`, submitted at `since`.
    Waiting {
        origin: usize,
        create_id: u16,
        since: SimTime,
    },
    /// Resting; submits at the first slice boundary at or after `until`.
    Resting { until: SimTime },
}

struct LinkSim {
    sim: LinkSimulation,
    /// One entry per client: what it asks for and what it is doing.
    clients: Vec<(Clients, ClientState)>,
    /// Draws the size and origin of every request.
    draw: DetRng,
    shape: LinkShape,
    slice: SimDuration,
    mhp_cycle_s: f64,
}

fn build_link(phase: &Phase, shape: LinkShape, seed: u64, rec: &mut Recorder) -> Box<dyn Sim> {
    let scenario = shape.scenario;
    let label = format!("benchmark/link/{scenario:?}/{}", phase.name);
    let cfg = rec.span("LinkConfig::build", |_| {
        let link_seed = derive_seed(seed, &label);
        match scenario {
            LinkScenario::Lab => LinkConfig::lab(WorkloadSpec::none(), link_seed),
            LinkScenario::Ql2020 => LinkConfig::ql2020(WorkloadSpec::none(), link_seed),
        }
        .with_scheduler(SchedulerChoice::HigherWfq)
    });
    let mhp_cycle_s = cfg.scenario.mhp_cycle.as_secs_f64();
    let sim = rec.span("LinkSimulation::new", |_| {
        let mut sim = LinkSimulation::new(cfg);
        sim.capture_deliveries();
        sim.reset_event_stats();
        sim
    });
    let resting = ClientState::Resting {
        until: SimTime::ZERO,
    };
    let mut link = LinkSim {
        clients: shape
            .population
            .iter()
            .flat_map(|c| std::iter::repeat_n((*c, resting), c.count))
            .collect(),
        draw: DetRng::new(seed).substream(&format!("{label}/clients")),
        shape,
        slice: SimDuration::from_secs_f64(phase.slice_s),
        mhp_cycle_s,
        sim,
    };
    // Every client's first CREATE is part of set-up: that is where
    // both EGPs pay their cold Fmin → α inversions.
    rec.span("LinkSimulation::submit", |_| link.submit_due());
    Box::new(link)
}

impl LinkSim {
    /// The clients' side of the closed loop, at a slice boundary:
    /// every client whose rest is over submits a fresh seed-drawn
    /// request.
    fn submit_due(&mut self) {
        let now = self.sim.now();
        for i in 0..self.clients.len() {
            let (c, state) = self.clients[i];
            if !matches!(state, ClientState::Resting { until } if until <= now) {
                continue;
            }
            let origin = self.draw.below(2) as usize;
            let pairs = 1 + self.draw.below(u64::from(c.kmax)) as u16;
            let create_id = self.sim.submit(
                origin,
                GeneratedRequest {
                    kind: c.kind,
                    pairs,
                    origin,
                    fmin: self.shape.fmin,
                    tmax_us: 0,
                },
            );
            self.clients[i].1 = ClientState::Waiting {
                origin,
                create_id,
                since: now,
            };
        }
    }

    /// Sends the client of every request completed during the slice to
    /// rest, then lets those whose rest is already over submit.
    fn turn_around(&mut self, delivered: &[Delivery]) {
        let now = self.sim.now();
        for d in delivered.iter().filter(|d| d.request_complete) {
            for (c, state) in &mut self.clients {
                if let ClientState::Waiting {
                    origin,
                    create_id,
                    since,
                } = *state
                {
                    if (origin, create_id) == (d.origin, d.create_id) {
                        let took = now.saturating_since(since);
                        *state = ClientState::Resting {
                            until: now + SimDuration::from_secs_f64(took.as_secs_f64() * c.rest),
                        };
                    }
                }
            }
        }
        self.submit_due();
    }

    fn kinds(&self) -> impl Iterator<Item = RequestKind> + '_ {
        self.shape.population.iter().map(|c| c.kind)
    }
}

impl Sim for LinkSim {
    fn run_slice(&mut self) {
        self.sim.run_for(self.slice);
        let delivered = self.sim.drain_deliveries();
        self.turn_around(&delivered);
    }

    fn run_slice_traced(&mut self, rec: &mut Recorder) {
        // The steppable embedding API, call by call — what `run_for`
        // does internally and what a network layer does per wake.
        // A slice is a thousand calls of each kind or more; they fold
        // into one span per kind.
        rec.span("LinkSimulation slice (stepped)", |rec| {
            let end = self.sim.now() + self.slice;
            let start_ns = rec.now_ns();
            // (busy ns, calls) for next_event_time, advance_to, drain.
            let mut fold = [(0u64, 0u64); 3];
            let mut delivered = Vec::new();
            loop {
                let t0 = Instant::now();
                let next = self.sim.next_event_time();
                let t1 = Instant::now();
                fold[0].0 += (t1 - t0).as_nanos() as u64;
                fold[0].1 += 1;
                let Some(t) = next.filter(|&t| t <= end) else {
                    break;
                };
                self.sim.advance_to(t);
                let t2 = Instant::now();
                delivered.extend(self.sim.drain_deliveries());
                let t3 = Instant::now();
                fold[1].0 += (t2 - t1).as_nanos() as u64;
                fold[1].1 += 1;
                fold[2].0 += (t3 - t2).as_nanos() as u64;
                fold[2].1 += 1;
            }
            self.sim.advance_to(end);
            let names = [
                "LinkSimulation::next_event_time",
                "LinkSimulation::advance_to",
                "LinkSimulation::drain_deliveries",
            ];
            let mut at = start_ns;
            for (name, (busy, calls)) in names.into_iter().zip(fold) {
                rec.folded(name, at, busy, calls);
                at += busy;
            }
            // `run_for` accounts elapsed time; an embedding does it
            // itself, once.
            self.sim.metrics.elapsed += self.slice;
            rec.span("LinkSimulation::submit", |_| self.turn_around(&delivered));
        });
    }

    fn events(&self) -> u64 {
        self.sim.events_fired()
    }

    fn finish(&mut self) -> PhaseEnd {
        let m = &self.sim.metrics;
        let sim_elapsed_s = m.elapsed.as_secs_f64();
        let mut failures = Vec::new();
        let mut latency = latency_histogram();
        let (mut delivered, mut fidelity_sum) = (0u64, 0.0);
        for kind in RequestKind::ALL {
            let total = m.kind_total(kind);
            let asked = self.kinds().any(|k| k == kind);
            if asked && self.shape.must_deliver && total.pairs_delivered == 0 {
                failures.push(format!("{} throughput is 0 on a loaded link", kind.label()));
            }
            if !asked && total.pairs_delivered > 0 {
                failures.push(format!(
                    "{} {} pairs delivered that nobody requested",
                    total.pairs_delivered,
                    kind.label()
                ));
            }
            delivered += total.pairs_delivered;
            fidelity_sum += total.fidelity.mean() * total.pairs_delivered as f64;
            for &(_, secs) in m.latency_series.get(&kind).map_or(&[][..], |s| s.samples()) {
                latency.record(secs);
            }
        }
        PhaseEnd {
            model: Model {
                events: self.sim.events_fired(),
                sim_elapsed_s,
                delivered,
                ..Model::default()
            },
            counts: Counts {
                link_cycles: sim_elapsed_s / self.mhp_cycle_s,
                queue_depth: m.queue_length.mean(),
                ..Counts::default()
            },
            failures,
            fidelity_sum,
            latency,
        }
    }
}

// ---- network phases --------------------------------------------------

/// Per-edge link seeds, as `ScenarioSpec` derives them.
pub fn lab_grid(rows: usize, cols: usize, seed: u64) -> Topology {
    let root = DetRng::new(seed);
    Topology::grid(rows, cols, |i| {
        LinkConfig::lab(
            WorkloadSpec::none(),
            root.substream(&format!("edge/{i}")).seed(),
        )
    })
}

/// `grid16_sparse`: the `(src, dst)` of its twelve clients, two hops
/// apart along a row, spread four rows and five columns apart.
///
/// The issue's round — three corner-to-corner requests on this grid —
/// fires 2.33 events per link-cycle (ten seeds, 2.24–2.44) against
/// 2.00 on an idle grid, then ends; its host time follows the round's
/// length (0.38–0.83 sim-s). Twelve two-hop requests re-issued as they
/// complete hold the same 2.3–2.4 events per link-cycle for as long as
/// the phase runs.
fn grid16_pairs() -> Vec<(usize, usize)> {
    let n = 16;
    [1, 5, 9, 13]
        .into_iter()
        .flat_map(|r| {
            [1, 6, 11]
                .into_iter()
                .map(move |c| (r * n + c, r * n + c + 2))
        })
        .collect()
}

/// Requested end-to-end fidelity of `grid16_sparse`, the sweep default.
const GRID16_FMIN: f64 = 0.6;

/// `service_knee`: the two classes of `examples/service.rs`.
fn service_classes() -> Vec<UserClass> {
    vec![
        UserClass::new("qkd", RequestKind::Md, vec![(0, 1), (1, 2), (4, 5)])
            .with_weight(3.0)
            .with_priority(1)
            .with_admission(AdmissionControl::QueueBeyond {
                max_in_flight: 2,
                queue_cap: 16,
            })
            .with_latency_slo(SimDuration::from_millis(400))
            .with_fidelity_slo(0.4),
        UserClass::new("compute", RequestKind::Ck, vec![(8, 9), (12, 13)])
            .with_priority(0)
            .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 })
            .with_latency_slo(SimDuration::from_millis(300)),
    ]
}

/// The closed loop of `grid16_sparse`: one request in flight per pair.
struct ClosedLoop {
    pairs: Vec<(usize, usize)>,
    /// The request in flight for each pair.
    in_flight: Vec<u64>,
    issued: u64,
    completed: u64,
    fidelity_sum: f64,
    latency: Histogram,
}

struct NetSim {
    net: Network,
    slice: SimDuration,
    /// `grid16_sparse` only.
    closed: Option<ClosedLoop>,
}

/// Spec to ready-to-run network for a network shape — the calls
/// `sweep::run_one` makes, in its order — each a span under a live
/// recorder.
fn build_net(phase: &Phase, shape: NetShape, seed: u64, rec: &mut Recorder) -> Box<dyn Sim> {
    let n = match shape {
        NetShape::Grid16Sparse => 16,
        NetShape::ServiceKnee => 4,
    };
    let net_seed = derive_seed(seed, &format!("benchmark/net/{n}x{n}"));
    let topo = rec.span("Topology::grid", |_| lab_grid(n, n, net_seed));
    let mut net = rec.span("Network::new", |_| Network::new(topo, net_seed));
    let telemetry = if rec.is_on() {
        TelemetryConfig::all()
    } else {
        TelemetryConfig::OFF
    };
    rec.span("Network setters", |_| {
        // Sequential, whatever QLINK_EXEC says; the engine comparison
        // is the `net.par.*` probe (README, "Sizing findings").
        net.set_exec(ExecMode::Sequential);
        net.set_route_metric(LoadScaledLatency);
        if shape == NetShape::ServiceKnee {
            net.set_retry_budget(1);
            net.set_request_timeout(Some(SimDuration::from_millis(250)));
        }
        net.set_telemetry(telemetry);
        net.reset_event_stats();
    });
    let closed = match shape {
        NetShape::ServiceKnee => {
            rec.span("Network::set_workload", |_| {
                net.set_workload(qlink::net::load::Workload::poisson(
                    2_000.0,
                    service_classes(),
                ));
            });
            None
        }
        NetShape::Grid16Sparse => {
            let pairs = grid16_pairs();
            let in_flight = rec.span("Network::request_entanglement", |_| {
                pairs
                    .iter()
                    .map(|&(src, dst)| net.request_entanglement(src, dst, GRID16_FMIN))
                    .collect::<Vec<u64>>()
            });
            Some(ClosedLoop {
                issued: in_flight.len() as u64,
                pairs,
                in_flight,
                completed: 0,
                fidelity_sum: 0.0,
                latency: latency_histogram(),
            })
        }
    };
    Box::new(NetSim {
        net,
        slice: SimDuration::from_secs_f64(phase.slice_s),
        closed,
    })
}

impl NetSim {
    /// The clients' side of the closed loop, at a slice boundary: every
    /// request delivered during the slice is issued again.
    fn turn_around(&mut self) {
        let Some(closed) = &mut self.closed else {
            return;
        };
        for out in self.net.take_outcomes() {
            let Some(i) = closed.in_flight.iter().position(|&r| r == out.request) else {
                continue;
            };
            closed.completed += 1;
            closed.fidelity_sum += out.end_to_end_fidelity;
            closed.latency.record(out.latency.as_secs_f64());
            let (src, dst) = closed.pairs[i];
            closed.in_flight[i] = self.net.request_entanglement(src, dst, GRID16_FMIN);
            closed.issued += 1;
        }
    }
}

impl Sim for NetSim {
    fn run_slice(&mut self) {
        self.net.run_for(self.slice);
        self.turn_around();
    }

    fn run_slice_traced(&mut self, rec: &mut Recorder) {
        rec.span("Network::run_for", |_| self.net.run_for(self.slice));
        if self.closed.is_some() {
            rec.span("Network::request_entanglement", |_| self.turn_around());
        }
    }

    fn events(&self) -> u64 {
        self.net.events_fired()
    }

    fn finish(&mut self) -> PhaseEnd {
        let mut failures = Vec::new();
        let mut latency = latency_histogram();
        let (mut fidelity_sum, mut completed) = (0.0, 0u64);
        let (offered, admitted);
        if let Some(closed) = &self.closed {
            // Every request issued is delivered or still in flight,
            // and the loop turns at least once.
            if closed.issued != closed.completed + closed.pairs.len() as u64 {
                failures.push(format!(
                    "issued {} != completed {} + in flight {}",
                    closed.issued,
                    closed.completed,
                    closed.pairs.len()
                ));
            }
            if closed.completed == 0 {
                failures.push("no request was delivered end to end".into());
            }
            latency.merge(&closed.latency);
            fidelity_sum = closed.fidelity_sum;
            completed = closed.completed;
            (offered, admitted) = (0, closed.issued);
        } else {
            let stats = self
                .net
                .workload_stats()
                .expect("service_knee arms a workload");
            for c in &stats.classes {
                // Both `net::load` conservation identities, per class.
                if c.offered != c.admitted + c.dropped + c.queued {
                    failures.push(format!(
                        "class {}: offered {} != admitted {} + dropped {} + queued {}",
                        c.name, c.offered, c.admitted, c.dropped, c.queued
                    ));
                }
                if c.admitted != c.completed + c.abandoned + c.in_flight {
                    failures.push(format!(
                        "class {}: admitted {} != completed {} + abandoned {} + in_flight {}",
                        c.name, c.admitted, c.completed, c.abandoned, c.in_flight
                    ));
                }
                latency.merge(&c.latency);
                fidelity_sum += c.fidelity.mean() * c.fidelity.count() as f64;
                completed += c.completed;
            }
            (offered, admitted) = (stats.total_offered(), stats.total_admitted());
            if (completed as f64) < 0.8 * admitted as f64 {
                failures.push(format!(
                    "completed {completed} < 0.8 x admitted {admitted} past the knee"
                ));
            }
        }
        let sim_elapsed_s = self.net.now().as_secs_f64();
        let profile = self.net.telemetry().map(|t| t.profile().clone());
        PhaseEnd {
            model: Model {
                events: self.net.events_fired(),
                sim_elapsed_s,
                delivered: completed,
                ..Model::default()
            },
            counts: Counts {
                link_cycles: self.net.topology().edge_count() as f64 * sim_elapsed_s
                    / ScenarioParams::lab().mhp_cycle.as_secs_f64(),
                queue_depth: 0.0,
                shared_events: profile.as_ref().map_or(0, |p| p.events_handled),
                queue_depth_hw: profile.map_or(0, |p| p.queue_depth_high_water as u64),
                offered,
                admitted,
                nodes: self.net.topology().node_count(),
                reroutes: self.net.reroutes(),
                timeouts: self.net.timeouts(),
            },
            failures,
            fidelity_sum,
            latency,
        }
    }
}

// ---- merging phases into one rep -------------------------------------

/// Folds the phases of one rep into one [`Model`] plus summed counts
/// and concatenated failures (each prefixed with its phase name).
pub fn merge(phases: &[(&'static str, PhaseEnd)]) -> (Model, Counts, Vec<String>) {
    let mut model = Model::default();
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    let mut fidelity_sum = 0.0;
    let mut latency = latency_histogram();
    for (name, end) in phases {
        model.events += end.model.events;
        model.sim_elapsed_s += end.model.sim_elapsed_s;
        model.delivered += end.model.delivered;
        fidelity_sum += end.fidelity_sum;
        latency.merge(&end.latency);
        let c = &end.counts;
        counts.link_cycles += c.link_cycles;
        // Mean queue length of the rep: cycle-weighted over phases.
        counts.queue_depth += c.queue_depth * c.link_cycles;
        counts.shared_events += c.shared_events;
        counts.queue_depth_hw = counts.queue_depth_hw.max(c.queue_depth_hw);
        counts.offered += c.offered;
        counts.admitted += c.admitted;
        counts.nodes = counts.nodes.max(c.nodes);
        counts.reroutes += c.reroutes;
        counts.timeouts += c.timeouts;
        failures.extend(end.failures.iter().map(|f| format!("{name}: {f}")));
    }
    if counts.link_cycles > 0.0 {
        counts.queue_depth /= counts.link_cycles;
    }
    if model.delivered > 0 {
        model.fidelity_mean = fidelity_sum / model.delivered as f64;
    }
    model.latency_p50_s = latency.quantile(0.5);
    model.latency_p90_s = latency.quantile(0.9);
    (model, counts, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
    }

    fn run_phase(phase: &Phase, seed: u64, traced: bool) -> (PhaseEnd, usize) {
        let mut rec = if traced {
            Recorder::new(1)
        } else {
            Recorder::off()
        };
        let mut sim = phase.build(seed, &mut rec);
        for _ in 0..phase.slices {
            if traced {
                sim.run_slice_traced(&mut rec);
            } else {
                sim.run_slice();
            }
        }
        (sim.finish(), rec.spans().len())
    }

    #[test]
    fn a_link_phase_is_deterministic_and_serves_every_kind() {
        let phase = link_phase("load", LinkScenario::Lab, 0.64, &LAB_LOAD, true, 3.0);
        let (a, _) = run_phase(&phase, 5, false);
        let (b, _) = run_phase(&phase, 5, false);
        let (stepped, spans) = run_phase(&phase, 5, true);
        assert_eq!(a.model.fingerprint(), b.model.fingerprint());
        // Stepping event by event is the same simulation as run_for.
        assert_eq!(a.model.fingerprint(), stepped.model.fingerprint());
        assert!(spans > phase.slices, "stepping records folded spans");
        assert_eq!(a.failures, Vec::<String>::new());
        // Nine clients, one of them resting two thirds of the time.
        assert!(
            (6.0..=9.0).contains(&a.counts.queue_depth),
            "{:?}",
            a.counts
        );
        assert!(a.model.events > 500_000);
    }

    #[test]
    fn an_idle_phase_fires_one_event_per_cycle_and_delivers_nothing() {
        let phase = link_phase("idle", LinkScenario::Lab, 0.64, &[], false, 0.1);
        let (end, _) = run_phase(&phase, 5, false);
        assert_eq!(end.failures, Vec::<String>::new());
        assert_eq!(end.model.delivered, 0);
        let per_cycle = end.model.events as f64 / end.counts.link_cycles;
        assert!((0.99..=1.01).contains(&per_cycle), "{per_cycle}");
    }

    #[test]
    fn a_resting_client_waits_its_share_out() {
        // One NL client alone: busy a third of the time, so its queue
        // is empty two samples in three.
        const LONE: [Clients; 1] = [clients(RequestKind::Nl, 1, 1, 2.0)];
        let phase = link_phase("load", LinkScenario::Lab, 0.64, &LONE, true, 4.0);
        let (end, _) = run_phase(&phase, 3, false);
        assert_eq!(end.failures, Vec::<String>::new());
        assert!(
            (0.2..=0.5).contains(&end.counts.queue_depth),
            "{:?}",
            end.counts
        );
    }

    /// The benchmark builds `service_knee` with the calls
    /// `sweep::run_one` makes; slicing `run_for` changes nothing.
    #[test]
    fn service_knee_is_the_sweep_drivers_simulation() {
        let phase = Phase {
            name: "run",
            slices: 10,
            warm: 0,
            slice_s: 0.01,
            shape: Shape::Net(NetShape::ServiceKnee),
        };
        let (end, _) = run_phase(&phase, 7, false);
        let spec = ScenarioSpec::lab_grid("service_knee", 4, 4)
            .with_metric(MetricChoice::LoadLatency)
            .with_retries(1)
            .with_request_timeout(SimDuration::from_millis(250))
            .with_max_time(SimDuration::from_millis(100))
            .with_exec(ExecChoice::Sequential)
            .with_workload(qlink::net::load::Workload::poisson(
                2_000.0,
                service_classes(),
            ));
        let record = qlink::net::sweep::run_one(&spec, derive_seed(7, "benchmark/net/4x4"));
        assert_eq!(end.model.events, record.events);
        assert_eq!(end.model.delivered, u64::from(record.successes));
        assert_eq!(end.counts.admitted, u64::from(record.rounds));
    }

    #[test]
    fn grid16_pairs_are_twelve_disjoint_two_hop_rows() {
        let pairs = grid16_pairs();
        assert_eq!(pairs.len(), 12);
        let mut nodes: Vec<usize> = pairs.iter().flat_map(|&(s, d)| [s, s + 1, d]).collect();
        assert!(pairs.iter().all(|&(s, d)| d == s + 2 && s / 16 == d / 16));
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 36, "paths share no node");
    }

    #[test]
    fn merge_weights_fidelity_by_deliveries() {
        let end = |delivered: u64, fid: f64, lat: &[f64]| {
            let mut end = PhaseEnd {
                model: Model {
                    events: 10,
                    sim_elapsed_s: 1.0,
                    delivered,
                    ..Model::default()
                },
                fidelity_sum: fid * delivered as f64,
                failures: vec!["boom".into()],
                ..PhaseEnd::default()
            };
            lat.iter().for_each(|&secs| end.latency.record(secs));
            end
        };
        let (model, _, failures) = merge(&[
            ("a", end(1, 0.9, &[3.0])),
            ("b", end(3, 0.5, &[1.0, 2.0, 4.0])),
        ]);
        assert_eq!(model.events, 20);
        assert_eq!(model.delivered, 4);
        assert!((model.fidelity_mean - 0.6).abs() < 1e-12);
        // Percentiles read to the histogram's 100 ms bucket edge; the
        // top rank is the exact maximum.
        assert!((2.0..=2.1).contains(&model.latency_p50_s));
        assert_eq!(model.latency_p90_s, 4.0);
        assert_eq!(model.throughput_per_sim_s(), 2.0);
        assert_eq!(failures, vec!["a: boom", "b: boom"]);
    }
}
