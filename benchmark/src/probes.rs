//! The per-layer probe ledger: one public call (or a handful) per
//! layer a request crosses, timed from outside. Each probe names the
//! end-to-end metric it should move in `ledger.rs`; none is gated.
//!
//! Probes are fixed work, independent of the workload and — except for
//! the counts of the open-loop and engine probes — of the seed. Every
//! figure is the fastest of several batches ([`ns_per_op`]). A full
//! run takes the ledger once and hands it to its traced cells; a cell
//! called on its own takes it itself, because it must report every
//! per-layer metric as measured.

use crate::json::Json;
use crate::ledger::PER_LAYER;
use crate::measure::{cpu_seconds, ns_per_op};
use crate::workloads;
use qlink::des::EventQueue;
use qlink::egp::dqueue::Role;
use qlink::egp::egp::{Egp, EgpConfig, EgpEvent};
use qlink::egp::feu::FidelityEstimator;
use qlink::egp::scheduler::SchedulerPolicy;
use qlink::net::obs::TelemetryConfig;
use qlink::phys::attempt::{AttemptModel, ModelCache};
use qlink::phys::mhp::{AttemptKind, AttemptSpec, NodeMhp};
use qlink::phys::pair::{PairState, Side};
use qlink::prelude::*;
use qlink::quantum::ops::entanglement_swap;
use qlink::wire::egp::CreateMsg;
use qlink::wire::fields::{AbsQueueId, Fidelity16, RequestFlags, RequestType};
use qlink::wire::mhp::GenMsg;
use qlink::wire::Frame;
use std::hint::black_box;
use std::time::Instant;

/// Every probe reading, by metric name, in ledger order.
pub struct Probes {
    pub readings: Vec<(&'static str, f64)>,
    /// Check failures found while probing (engine equivalence,
    /// conservation identities).
    pub failures: Vec<String>,
}

impl Probes {
    /// The reading named `name`.
    ///
    /// # Panics
    /// Panics on a name no probe reports.
    pub fn get(&self, name: &str) -> f64 {
        self.readings
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no probe named {name}"))
            .1
    }

    /// Readings and check failures, for a full run to hand to its
    /// traced cells.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "readings",
                Json::obj(self.readings.iter().map(|&(n, v)| (n, Json::num(v)))),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// What [`Probes::to_json`] wrote. Every reading must be a number
    /// under the name of a per-layer metric of the ledger.
    pub fn from_json(doc: &Json) -> Result<Probes, String> {
        let (Some(Json::Obj(readings)), Some(Json::Arr(failures))) =
            (doc.get("readings"), doc.get("failures"))
        else {
            return Err("expected {\"readings\": {..}, \"failures\": [..]}".into());
        };
        let readings = readings
            .iter()
            .map(|(name, value)| {
                let metric = PER_LAYER.iter().find(|m| m.name == name);
                metric
                    .map(|m| m.name)
                    .zip(value.as_f64())
                    .ok_or_else(|| format!("{name}: {value:?} is not a reading of the ledger"))
            })
            .collect::<Result<_, _>>()?;
        let failures = failures
            .iter()
            .map(|f| {
                f.as_str()
                    .map(String::from)
                    .ok_or("a failure is not a string")
            })
            .collect::<Result<_, _>>()?;
        Ok(Probes { readings, failures })
    }
}

/// Runs the whole ledger (about four seconds).
pub fn run(seed: u64) -> Probes {
    let mut p = Probes {
        readings: Vec::new(),
        failures: Vec::new(),
    };
    des(&mut p);
    phys(&mut p);
    quantum(&mut p);
    wire(&mut p);
    egp(&mut p);
    sim(&mut p);
    net(&mut p, seed);
    p
}

// ---- des ---------------------------------------------------------------

/// Schedule + pop on a queue held at `depth` pending events spaced
/// `gap` apart (the classic hold model).
fn queue_hold_ns(depth: u64, gap: SimDuration) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        q.schedule_in(gap * (i + 1), i);
    }
    let span = gap * depth;
    ns_per_op(7, 200_000, || {
        let (_, e) = q.pop().expect("hold model never drains");
        q.schedule_in(span, black_box(e));
    })
}

fn des(p: &mut Probes) {
    // 32 pending: the small-mode sorted vector every link queue lives in.
    p.readings.push((
        "des.queue.op_ns_shallow",
        queue_hold_ns(32, SimDuration::from_micros(3)),
    ));
    // 1024 pending, µs-spaced: the timing wheel a shared network queue
    // graduates to.
    p.readings.push((
        "des.queue.op_ns_deep",
        queue_hold_ns(1024, SimDuration::from_micros(1)),
    ));
    let mut rng = DetRng::new(1);
    p.readings.push((
        "des.rng.uniform_ns",
        ns_per_op(7, 1_000_000, || {
            black_box(rng.uniform());
        }),
    ));
}

// ---- phys --------------------------------------------------------------

fn phys(p: &mut Probes) {
    let lab = ScenarioParams::lab();
    let model = AttemptModel::build(&lab, 0.2);
    let mut rng = DetRng::new(2);
    p.readings.push((
        "phys.attempt.sample_ns",
        ns_per_op(7, 1_000_000, || {
            black_box(model.sample(&mut rng));
        }),
    ));
    // A ModelCache miss: what a link's first attempt at a new α costs.
    p.readings.push((
        "phys.attempt.build_us",
        ns_per_op(5, 20, || {
            black_box(ModelCache::new().get(&lab, black_box(0.2)));
        }) / 1e3,
    ));
    let mut mhp = NodeMhp::new(1);
    let spec = AttemptSpec {
        queue_id: AbsQueueId::new(2, 7),
        alpha: 0.2,
        kind: AttemptKind::Measure { basis: Basis::Z },
        test_round: false,
    };
    let mut cycle = 0u64;
    // Trigger plus the matching reply-timeout, so the in-flight table
    // stays one deep.
    p.readings.push((
        "phys.mhp.trigger_ns",
        ns_per_op(7, 500_000, || {
            cycle += 1;
            black_box(mhp.trigger(cycle, spec));
            black_box(mhp.on_reply_timeout(cycle));
        }),
    ));
}

// ---- quantum -----------------------------------------------------------

fn quantum(p: &mut Probes) {
    let nv = ScenarioParams::lab().nv;
    let t0 = SimTime::ZERO;
    let mut pair = PairState::new(BellState::PsiPlus.state(), t0);
    pair.move_to_carbon(Side::A, &nv);
    let mut t = t0;
    // One lazy T1/T2 catch-up of a stored pair (both halves).
    p.readings.push((
        "quantum.decay_ns",
        ns_per_op(7, 20_000, || {
            t += SimDuration::from_micros(100);
            pair.advance_to(t, &nv);
        }),
    ));
    let two_pairs = BellState::PhiPlus
        .state()
        .tensor(&BellState::PhiPlus.state());
    let mut rng = DetRng::new(3);
    p.readings.push((
        "quantum.swap_us",
        ns_per_op(5, 200, || {
            let mut s = two_pairs.clone();
            black_box(entanglement_swap(&mut s, 1, 2, 3, rng.raw()));
            black_box(s);
        }) / 1e3,
    ));
}

// ---- wire --------------------------------------------------------------

fn wire(p: &mut Probes) {
    let frame = Frame::Gen(GenMsg {
        queue_id: AbsQueueId::new(2, 1234),
        timestamp_cycle: 987_654_321,
    });
    // Encode + decode: every control message pays both.
    p.readings.push((
        "wire.frame.codec_ns",
        ns_per_op(7, 500_000, || {
            let bytes = black_box(&frame).encode();
            black_box(Frame::decode(&bytes).expect("own encoding decodes"));
        }),
    ));
}

// ---- egp ---------------------------------------------------------------

const NODE_A: u32 = 1;
const NODE_B: u32 = 2;

fn egp_pair(scenario: ScenarioParams) -> (Egp, Egp) {
    let mk = |node, peer, role| {
        Egp::new(EgpConfig::for_scenario(
            node,
            peer,
            role,
            scenario.clone(),
            SchedulerPolicy::nl_strict_wfq(),
        ))
    };
    (
        mk(NODE_A, NODE_B, Role::Master),
        mk(NODE_B, NODE_A, Role::Slave),
    )
}

fn md_create(pairs: u16) -> CreateMsg {
    let kind = RequestKind::Md;
    CreateMsg {
        remote_node_id: NODE_B,
        min_fidelity: Fidelity16::from_f64(0.6),
        max_time_us: 0,
        purpose_id: 10 + u16::from(kind.priority()),
        number: pairs,
        priority: kind.priority(),
        flags: RequestFlags {
            store: false,
            measure_directly: true,
            consecutive: true,
            atomic: false,
            master_request: false,
        },
    }
}

fn frames(events: Vec<EgpEvent>) -> Vec<Frame> {
    events
        .into_iter()
        .filter_map(|e| match e {
            EgpEvent::SendPeer(f) => Some(f),
            _ => None,
        })
        .collect()
}

/// Delivers `a`'s frames to `b` and the answers back until both sides
/// fall silent (a zero-delay, lossless control channel).
fn converse(a: &mut Egp, b: &mut Egp, from_a: Vec<EgpEvent>, cycle: u64) {
    let mut to_b = frames(from_a);
    while !to_b.is_empty() {
        let mut to_a = Vec::new();
        for f in to_b.drain(..) {
            to_a.extend(frames(b.on_peer_frame(f, cycle)));
        }
        for f in to_a {
            to_b.extend(frames(a.on_peer_frame(f, cycle)));
        }
    }
}

fn egp(p: &mut Probes) {
    let ql = ScenarioParams::ql2020();

    let (mut idle, _) = egp_pair(ql.clone());
    let mut cycle = 0u64;
    p.readings.push((
        "egp.poll.idle_ns",
        ns_per_op(7, 500_000, || {
            cycle += 1;
            black_box(idle.poll(cycle));
        }),
    ));

    // 256 committed MD CREATEs: every poll filters the whole queue.
    let (mut a, mut b) = egp_pair(ql.clone());
    for _ in 0..256 {
        let (_, events) = a.create(md_create(5), 0);
        converse(&mut a, &mut b, events, 0);
    }
    assert_eq!(
        a.queue_len(),
        256,
        "backlog probe failed to queue its CREATEs"
    );
    let mut cycle = 10_000u64;
    p.readings.push((
        "egp.poll.backlog_ns",
        ns_per_op(7, 5_000, || {
            cycle += 1;
            black_box(a.poll(cycle));
        }),
    ));

    // CREATE on the master with a warm FEU: α lookup, queue add, ADD
    // frame. 128 per fresh EGP keeps the queue below its cap.
    let mut create_ns = f64::INFINITY;
    for _ in 0..5 {
        let (mut a, _) = egp_pair(ql.clone());
        black_box(a.create(md_create(1), 0));
        let t0 = Instant::now();
        for _ in 0..128 {
            black_box(a.create(md_create(1), 0));
        }
        create_ns = create_ns.min(t0.elapsed().as_nanos() as f64 / 128.0);
    }
    p.readings.push(("egp.create_ns", create_ns));

    // A cold Fmin → α inversion: bisection over freshly built models.
    p.readings.push((
        "egp.feu.estimate_us",
        ns_per_op(15, 2, || {
            let mut feu = FidelityEstimator::new(ql.clone());
            black_box(feu.choose_alpha(black_box(0.6), RequestType::Measure));
        }) / 1e3,
    ));
}

// ---- sim ---------------------------------------------------------------

fn idle_link(seed: u64) -> LinkSimulation {
    LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), seed))
}

/// Wall nanoseconds an idle Lab link takes to run `sim` of simulated
/// time, and the events it fires.
fn idle_link_run(sim: SimDuration) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..5 {
        let mut link = idle_link(9);
        let t0 = Instant::now();
        link.run_for(sim);
        best = best.min(t0.elapsed().as_nanos() as f64);
        events = link.events_fired();
    }
    (best, events)
}

fn sim(p: &mut Probes) {
    let mut seed = 0u64;
    p.readings.push((
        "sim.link.new_us",
        ns_per_op(15, 100, || {
            seed += 1;
            black_box(idle_link(seed));
        }) / 1e3,
    ));
    let (ns, events) = idle_link_run(SimDuration::from_millis(500));
    p.readings
        .push(("sim.link.idle_event_ns", ns / events as f64));
    // One wake as a network layer performs it.
    let mut link = idle_link(9);
    link.capture_deliveries();
    p.readings.push((
        "sim.link.step_ns",
        ns_per_op(7, 50_000, || {
            let t = link.next_event_time().expect("the cycle clock never stops");
            link.advance_to(t);
            black_box(link.drain_deliveries());
        }),
    ));
}

// ---- net ---------------------------------------------------------------

fn net(p: &mut Probes, seed: u64) {
    p.readings.push((
        "net.new_ms",
        ns_per_op(3, 3, || {
            black_box(Network::new(workloads::lab_grid(16, 16, 5), 5));
        }) / 1e6,
    ));
    for (name, n) in [
        ("net.plan_route_us.4x4", 4),
        ("net.plan_route_us.16x16", 16),
    ] {
        let mut net = Network::new(workloads::lab_grid(n, n, 5), 5);
        net.set_route_metric(LoadScaledLatency);
        let last = n * n - 1;
        p.readings.push((
            name,
            ns_per_op(5, if n == 4 { 2_000 } else { 50 }, || {
                black_box(net.plan_route(0, last, 0.6));
            }) / 1e3,
        ));
    }

    // An idle 16×16: nothing but link wakes through the shared queue.
    let horizon = SimDuration::from_millis(10);
    let (mut idle_ns, mut events, mut shared) = (f64::INFINITY, 0, 0);
    for _ in 0..3 {
        let mut net = Network::new(workloads::lab_grid(16, 16, 5), 5);
        net.set_exec(ExecMode::Sequential);
        net.reset_event_stats();
        let t0 = Instant::now();
        net.run_for(horizon);
        idle_ns = idle_ns.min(t0.elapsed().as_nanos() as f64);
        events = net.events_fired();
        let inside: u64 = (0..net.topology().edge_count())
            .map(|e| net.link(e).events_fired())
            .sum();
        shared = events - inside;
    }
    p.readings
        .push(("net.idle_event_ns", idle_ns / events as f64));
    // What the shared queue and wake dispatch add per shared event,
    // over 480 links idling on their own for the same horizon.
    let (alone_ns, _) = idle_link_run(horizon);
    p.readings.push((
        "net.dispatch_overhead_ns",
        (idle_ns - 480.0 * alone_ns) / shared as f64,
    ));

    // Engine comparison on the issue's own grid round — three
    // corner-to-corner requests on the 16×16 grid, closed loop — through
    // the user-facing sweep driver, cut off at 25 sim-ms. With two
    // threads and one job, `ExecChoice::Auto` resolves to `Sharded(2)`.
    let (n, horizon) = (16usize, SimDuration::from_millis(25));
    let last = n * n - 1;
    let pairs = vec![(0, last), (n - 1, last + 1 - n), (n / 2, last - n / 2)];
    let spec = ScenarioSpec::lab_grid("grid16", n, n)
        .with_metric(MetricChoice::LoadLatency)
        .with_pairs(pairs.clone())
        .with_max_time(horizon);
    // The faster of two runs per engine: one stall in a single shot
    // would read as an engine difference.
    let swept = |spec: ScenarioSpec| {
        let run = || {
            let (t0, cpu0) = (Instant::now(), cpu_seconds());
            let report = sweep(std::slice::from_ref(&spec), &[seed], 2);
            let secs = t0.elapsed().as_secs_f64();
            let cpu = cpu0.zip(cpu_seconds()).map_or(f64::NAN, |(a, b)| b - a);
            (secs, cpu, report.scenarios[0].events)
        };
        let (a, b) = (run(), run());
        if a.0 <= b.0 {
            a
        } else {
            b
        }
    };
    let (seq_s, _, seq_events) = swept(spec.clone().with_exec(ExecChoice::Sequential));
    let (sh_s, sh_cpu_s, sh_events) = swept(spec);
    if seq_events != sh_events {
        p.failures.push(format!(
            "model.events differs between engines: Sequential {seq_events}, Sharded(2) {sh_events}"
        ));
    }
    p.readings.push(("net.par.seq_run_s", seq_s));
    p.readings.push(("net.par.sharded2_run_s", sh_s));
    p.readings.push(("net.par.sharded2_cpu_s", sh_cpu_s));
    // The sweep driver keeps its networks to itself; the same round on
    // a network of our own gives the sharded engine's profile.
    let mut net = Network::new(workloads::lab_grid(n, n, seed), seed);
    net.set_exec(ExecMode::Sharded(2));
    net.set_route_metric(LoadScaledLatency);
    net.set_telemetry(TelemetryConfig::all());
    for (src, dst) in pairs {
        net.request_entanglement(src, dst, 0.6);
    }
    net.run_for(horizon);
    let profile = net
        .telemetry()
        .expect("telemetry was switched on")
        .profile();
    p.readings.push(("net.par.windows", profile.windows as f64));
    p.readings.push((
        "net.par.coord_idle_frac",
        profile.coord_idle_nanos as f64 / profile.wall_nanos.max(1) as f64,
    ));

    // The reject path: a 2×2 grid offered 5 MHz against an in-flight
    // cap of one, less the same grid at 50 Hz (same traffic carried,
    // almost nothing rejected).
    let offered_load = |rate_hz: f64| {
        let mut net = Network::new(workloads::lab_grid(2, 2, seed), seed);
        net.set_exec(ExecMode::Sequential);
        net.set_workload(qlink::net::load::Workload::poisson(
            rate_hz,
            vec![UserClass::new("flood", RequestKind::Nl, vec![(0, 3)])
                .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 1 })],
        ));
        let t0 = Instant::now();
        net.run_for(SimDuration::from_millis(200));
        let ns = t0.elapsed().as_nanos() as f64;
        let stats = net.workload_stats().expect("workload armed above").classes[0].clone();
        (ns, stats)
    };
    // Fastest of three: the counts repeat exactly, only the clock moves.
    let offered_load = |rate_hz: f64| {
        let runs = [
            offered_load(rate_hz),
            offered_load(rate_hz),
            offered_load(rate_hz),
        ];
        let fastest = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        let [(_, stats), ..] = runs;
        (fastest, stats)
    };
    let (calm_ns, calm) = offered_load(50.0);
    let (flood_ns, c) = offered_load(5e6);
    p.readings.push((
        "net.load.drop_ns",
        (flood_ns - calm_ns) / (c.offered - calm.offered) as f64,
    ));
    if c.offered != c.admitted + c.dropped + c.queued {
        p.failures.push(format!(
            "flood: offered != admitted + dropped + queued ({c:?})"
        ));
    }
    if c.admitted != c.completed + c.abandoned + c.in_flight {
        p.failures.push(format!(
            "flood: admitted != completed + abandoned + in_flight ({c:?})"
        ));
    }
    for (name, v) in [
        ("net.load.offered", c.offered),
        ("net.load.admitted", c.admitted),
        ("net.load.dropped", c.dropped),
        ("net.load.completed", c.completed),
        ("net.load.abandoned", c.abandoned),
        ("net.load.in_flight", c.in_flight),
    ] {
        p.readings.push((name, v as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_and_failures_survive_the_hand_over() {
        let taken = Probes {
            readings: vec![("des.rng.uniform_ns", 2.25), ("net.par.windows", 77.0)],
            failures: vec!["flood: \"quoted\"".into()],
        };
        let handed =
            Probes::from_json(&Json::parse(&taken.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(handed.readings, taken.readings);
        assert_eq!(handed.failures, taken.failures);
        assert_eq!(handed.get("net.par.windows"), 77.0);
    }

    #[test]
    fn a_hand_over_outside_the_ledger_is_refused() {
        for bad in [
            r#"{"readings": {"no.such.metric": 1}, "failures": []}"#,
            r#"{"readings": {"des.rng.uniform_ns": null}, "failures": []}"#,
            r#"{"readings": {}, "failures": [3]}"#,
            r#"{"readings": {}}"#,
            "[]",
        ] {
            assert!(
                Probes::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
