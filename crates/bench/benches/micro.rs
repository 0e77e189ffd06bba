//! Criterion micro-benchmarks for the core data structures: the event
//! queue (in the three traffic shapes the workloads put on it, and the
//! random-time shape none does), dense complex matrices, the attempt
//! model (build and sample), wire codecs, the classical channel, and
//! quantum channels.
//! These guard the performance assumptions DESIGN.md relies on (O(1)
//! sampled attempts; cheap, allocation-free frame codecs and channel
//! decisions on every control message), and the derived-physics cells
//! price what a network pays before it runs: its topology, the
//! planner's edge profiles, a corner-to-corner search, the first
//! requests' `Fmin → α` inversions, and a CREATE the FEU has answered
//! before. The EGP's per-cycle tick is priced at four queue depths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qlink::classical::{ChannelModel, Fate};
use qlink::des::SimTime;
use qlink::des::{DetRng, EventQueue, SimDuration};
use qlink::egp::dqueue::Role;
use qlink::egp::egp::{Egp, EgpConfig, Input};
use qlink::egp::feu::FidelityEstimator;
use qlink::egp::scheduler::SchedulerPolicy;
use qlink::math::CMatrix;
use qlink::phys::attempt::AttemptModel;
use qlink::phys::attempt::{arm_state, AttemptOutcome};
use qlink::phys::pair::{PairState, Side};
use qlink::phys::params::ScenarioParams;
use qlink::phys::station::{herald_distribution, BeamSplitter, DetectorModel};
use qlink::prelude::{
    LinkConfig, ModelCache, NetConfig, Network, PlanContext, RequestKind, RouteMetric,
    RoutePlanner, Topology, WorkloadSpec,
};
use qlink::quantum::bell::BellState;
use qlink::quantum::{channels, gates, QuantumState};
use qlink::wire::crc::crc32;
use qlink::wire::egp::CreateMsg;
use qlink::wire::fields::{
    AbsQueueId, Fidelity16, MidpointOutcome, ReplyOutcome, RequestFlags, RequestType,
};
use qlink::wire::mhp::{GenMsg, ReplyMsg, GEN_FRAME_LEN, REPLY_FRAME_LEN};
use qlink::wire::Frame;

/// One pop and one re-schedule, which keeps the queue's depth: the
/// steady state of a queue whose events each schedule their successor.
/// The `k`-th re-schedule lands `offset(k)` past the clock.
fn queue_hold(q: &mut EventQueue<u64>, k: &mut u64, offset: impl Fn(u64) -> SimDuration) -> u64 {
    let (_, e) = q.pop().expect("a hold pattern never drains");
    *k += 1;
    q.schedule_in(offset(*k), e);
    e
}

fn bench_event_queue(c: &mut Criterion) {
    // A link's queue: its next cycle, its window close and a reply, each
    // re-scheduled one cycle on — always behind everything pending.
    let cycle = SimDuration::from_nanos(10_120);
    let mut link = EventQueue::new();
    for i in 0..3u64 {
        link.schedule_in(SimDuration::from_nanos(1_000 * (i + 1)), i);
    }
    let mut k = 0;
    c.bench_function("event_queue_hold_depth3", |b| {
        b.iter(|| black_box(queue_hold(&mut link, &mut k, |_| cycle)))
    });
    // `Engine::new`: one wake per link of a 16×16 grid at t = 0, then
    // the drain that fires them.
    c.bench_function("event_queue_burst_480", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..480u64 {
                q.schedule_in(SimDuration::ZERO, i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // `grid16_sparse`'s shared queue: ≈ 20 wakes of links whose cycles
    // are out of phase, each re-scheduled within the next 10.12 µs.
    let mut shared = EventQueue::new();
    for i in 0..20u64 {
        shared.schedule_in(SimDuration::from_ps(i * 506_000), i);
    }
    let mut k = 0;
    let spread = |k: u64| SimDuration::from_ps((k * 7_919_000) % 10_120_000);
    c.bench_function("event_queue_hold_depth20_spread", |b| {
        b.iter(|| black_box(queue_hold(&mut shared, &mut k, spread)))
    });
    // 1 000 schedules at random times into one queue, then the drain:
    // the shape a sorted list serves worst.
    c.bench_function("event_queue_schedule_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule_in(SimDuration::from_ps((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn bench_matrices(c: &mut Criterion) {
    let a = CMatrix::identity(16);
    let bmat = gates::cnot().kron(&gates::cnot());
    c.bench_function("cmatrix_mul_16x16", |b| {
        b.iter(|| black_box(&a) * black_box(&bmat))
    });
    c.bench_function("cmatrix_kron_4x4", |b| {
        b.iter(|| black_box(&gates::cnot()).kron(black_box(&gates::swap())))
    });
}

fn bench_attempt_model(c: &mut Criterion) {
    let params = ScenarioParams::lab();
    c.bench_function("attempt_model_build", |b| {
        b.iter(|| AttemptModel::build(black_box(&params), black_box(0.2)))
    });
    let model = AttemptModel::build(&params, 0.2);
    let mut rng = DetRng::new(1);
    c.bench_function("attempt_model_sample", |b| {
        b.iter(|| black_box(model.sample(&mut rng)))
    });
}

fn bench_wire(c: &mut Criterion) {
    let gen = GenMsg {
        queue_id: AbsQueueId::new(2, 1234),
        timestamp_cycle: 987_654_321,
    };
    let frame = Frame::Gen(gen);
    c.bench_function("frame_encode_gen", |b| {
        b.iter(|| black_box(&frame).encode())
    });
    let bytes = frame.encode();
    c.bench_function("frame_decode_gen", |b| {
        b.iter(|| Frame::decode(black_box(&bytes)).unwrap())
    });
    let reply = ReplyMsg {
        outcome: ReplyOutcome::Attempt(MidpointOutcome::Fail),
        mhp_seq: 77,
        receiver_qid: AbsQueueId::new(2, 1234),
        peer_qid: Some(AbsQueueId::new(2, 1234)),
        timestamp_cycle: 987_654_321,
    };
    let frame = Frame::Reply(reply);
    c.bench_function("frame_encode_reply", |b| {
        b.iter(|| black_box(&frame).encode())
    });
    let bytes = frame.encode();
    c.bench_function("frame_decode_reply", |b| {
        b.iter(|| Frame::decode(black_box(&bytes)).unwrap())
    });
    // The checksum alone, at a GEN payload's length, a REPLY payload's
    // and a longer run: one eight-byte step plus four tail bytes, two
    // plus three, five plus two.
    let payload = [0xA5u8; 42];
    for len in [12, 19, 42] {
        c.bench_function(&format!("crc32/{len}B"), |b| {
            b.iter(|| crc32(black_box(&payload[..len])))
        });
    }
    // One frame over a lossy, corrupting channel, as the link carries it.
    // A GEN or a REPLY crosses as a value: the channel decides from the
    // length, and one that arrives intact is the message its sender built.
    let mut channel = ChannelModel::fiber(25.0, 1e-3).with_corruption(1e-3);
    let mut rng = DetRng::new(3);
    c.bench_function("frame_gen_over_channel", |b| {
        b.iter(|| match channel.fate(&mut rng, GEN_FRAME_LEN) {
            Fate::Intact { .. } => Some(black_box(gen)),
            _ => None,
        })
    });
    // A REPLY that arrives damaged arrives as nothing.
    c.bench_function("frame_reply_over_channel", |b| {
        b.iter(|| match channel.fate(&mut rng, REPLY_FRAME_LEN) {
            Fate::Lost => None,
            Fate::Intact { .. } => Some(Some(black_box(reply))),
            Fate::Damaged { .. } => Some(None),
        })
    });
}

fn bench_channels(c: &mut Criterion) {
    c.bench_function("t1t2_decay_on_pair", |b| {
        b.iter(|| {
            let mut s = BellState::PsiPlus.state();
            channels::apply_to(&mut s, &channels::t1t2_decay(1e-4, 2.86e-3, 1e-3), 0);
            black_box(s)
        })
    });
    c.bench_function("two_qubit_measurement", |b| {
        let mut rng = DetRng::new(2);
        b.iter(|| {
            let mut s = BellState::PhiPlus.state();
            let m0 = s.measure_qubit(0, qlink::quantum::Basis::Z, &mut rng);
            let m1 = s.measure_qubit(1, qlink::quantum::Basis::Z, &mut rng);
            black_box((m0, m1))
        })
    });
    c.bench_function("quantum_state_4q_unitary", |b| {
        b.iter(|| {
            let mut s = QuantumState::ground(4);
            s.apply_unitary(&gates::h(), &[0]);
            s.apply_unitary(&gates::cnot(), &[0, 2]);
            black_box(s)
        })
    });
}

/// The 16×16 Lab grid of the repo benchmark's `grid16_sparse`: 480
/// links on equal hardware, each with a seed of its own.
fn lab_grid_16() -> Topology {
    let root = DetRng::new(5);
    Topology::grid(16, 16, |i| {
        LinkConfig::lab(
            WorkloadSpec::none(),
            root.substream(&format!("edge/{i}")).seed(),
        )
    })
}

fn bench_derived_physics(c: &mut Criterion) {
    c.bench_function("topology_grid/16x16", |b| b.iter(lab_grid_16));
    let topo = lab_grid_16();
    c.bench_function("route_planner_new/16x16", |b| {
        b.iter(|| RoutePlanner::new(black_box(&topo)))
    });
    // Corner to corner on a built planner: the search behind
    // `Network::plan_route` at its longest on this grid.
    let planner = RoutePlanner::new(&topo);
    let corners = PlanContext {
        metric: RouteMetric::LoadLatency,
        fmin: 0.6,
        ..PlanContext::new(0, topo.node_count() - 1)
    };
    c.bench_function("route/latency_dijkstra_16x16", |b| {
        b.iter(|| black_box(planner.routes(&topo, black_box(&corners))))
    });
    // The 480 links alone, built and dropped: what a link costs to set
    // up before it fires an attempt (the topology clone is in the loop).
    c.bench_function("network_new/lab_16x16", |b| {
        b.iter(|| Network::new(black_box(topo.clone()), 5))
    });
    // What `grid16_sparse` times as `setup_s`: the topology, the
    // network, and its twelve two-hop requests (the first of which
    // builds the planner) — all from a cold table.
    c.bench_function("network_first_requests/16x16", |b| {
        b.iter(|| {
            let config = NetConfig {
                metric: RouteMetric::LoadLatency,
                ..NetConfig::default()
            };
            let mut net = Network::with_config(lab_grid_16(), 5, config, ModelCache::new());
            for row in [1, 5, 9, 13] {
                for col in [1, 6, 11] {
                    net.request_entanglement(row * 16 + col, row * 16 + col + 2, 0.6);
                }
            }
            black_box(net)
        })
    });
    // 64 MD CREATEs on a new EGP whose FEU has answered that
    // `(Fmin, type)` before (through another handle, as a network's
    // links do for each other).
    let kind = RequestKind::Md;
    let md = CreateMsg {
        remote_node_id: 2,
        min_fidelity: Fidelity16::from_f64(0.6),
        max_time_us: 0,
        purpose_id: 10 + u16::from(kind.priority()),
        number: 1,
        priority: kind.priority(),
        flags: RequestFlags {
            store: false,
            measure_directly: true,
            consecutive: true,
            atomic: false,
            master_request: false,
        },
    };
    let scenario = ScenarioParams::lab();
    let cfg = EgpConfig::for_scenario(
        1,
        2,
        Role::Master,
        scenario.clone(),
        SchedulerPolicy::nl_strict_wfq(),
    );
    let mut feu = FidelityEstimator::new(scenario);
    feu.choose_alpha(md.min_fidelity.to_f64(), RequestType::Measure);
    c.bench_function("egp_create_warm/x64", |b| {
        b.iter(|| {
            let mut egp = Egp::with_estimator(cfg.clone(), feu.clone());
            for _ in 0..64 {
                let mut out = Vec::new();
                black_box(egp.step(Input::Create(black_box(md.clone())), 0, &mut out));
                black_box(out);
            }
            egp
        })
    });
    // One MHP cycle's poll over `depth` committed, ready MD requests:
    // the queue scan and scheduler pick every tick makes (a
    // `link_ql2020` phase queues 12 requests, `link_lab` 9).
    for depth in [8, 11, 12, 64] {
        let mut egp = Egp::with_estimator(cfg.clone(), feu.clone());
        let mut out = Vec::new();
        for _ in 0..depth {
            egp.step(Input::Create(md.clone()), 0, &mut out);
        }
        // Past `min_time`, before the first ADD retransmission is due.
        let cycle = 100;
        assert!(egp.step(Input::Tick, cycle, &mut out).attempt.is_some());
        c.bench_function(&format!("egp_tick/depth{depth}"), |b| {
            b.iter(|| {
                out.clear();
                black_box(egp.step(Input::Tick, black_box(cycle), &mut out))
            })
        });
    }
}

/// What one derivation from a hardware profile costs, cold: the
/// station's analysis of one attempt's joint state, one arm's noisy
/// spin-photon state, one forward estimate of each request type over a
/// model already built, a `Fmin → α` inversion over a table of its
/// own, and the K delivery path of a heralded pair (storage decay
/// while the reply travels, then the move to carbon at both nodes).
fn bench_derivation(c: &mut Criterion) {
    let lab = ScenarioParams::lab();
    let joint = arm_state(&lab, 0.2, lab.arm_a_km).tensor(&arm_state(&lab, 0.2, lab.arm_b_km));
    let bs = BeamSplitter::new(lab.optics.visibility);
    let det = DetectorModel {
        efficiency: lab.optics.detector_efficiency,
        dark_prob: lab.optics.dark_count_prob(),
    };
    c.bench_function("herald_distribution/lab", |b| {
        b.iter(|| herald_distribution(black_box(&joint), &bs, &det))
    });
    let ql2020 = ScenarioParams::ql2020();
    c.bench_function("arm_state/ql2020", |b| {
        b.iter(|| arm_state(black_box(&ql2020), black_box(0.2), ql2020.arm_b_km))
    });
    for (name, rtype) in [
        ("keep", RequestType::Keep),
        ("measure", RequestType::Measure),
    ] {
        let mut feu = FidelityEstimator::new(lab.clone());
        feu.delivered_fidelity(0.2, rtype);
        c.bench_function(&format!("feu_delivered_fidelity_warm/{name}"), |b| {
            b.iter(|| feu.delivered_fidelity(black_box(0.2), rtype))
        });
    }
    for (name, params, fmin, rtype) in [
        (
            "lab_keep_064",
            ScenarioParams::lab(),
            0.64,
            RequestType::Keep,
        ),
        (
            "lab_measure_064",
            ScenarioParams::lab(),
            0.64,
            RequestType::Measure,
        ),
        (
            "ql2020_measure_060",
            ScenarioParams::ql2020(),
            0.60,
            RequestType::Measure,
        ),
    ] {
        c.bench_function(&format!("feu_choose_alpha_cold/{name}"), |b| {
            b.iter(|| FidelityEstimator::new(params.clone()).choose_alpha(black_box(fmin), rtype))
        });
    }
    let heralded = AttemptModel::build(&lab, 0.2)
        .conditional_state(AttemptOutcome::PsiPlus)
        .expect("a Lab attempt at α = 0.2 heralds")
        .clone();
    let reply_at = SimTime::ZERO + lab.reply_latency();
    c.bench_function("pair_decay_and_move", |b| {
        b.iter(|| {
            let mut pair = PairState::new(black_box(&heralded).clone(), SimTime::ZERO);
            pair.advance_to(reply_at, &lab.nv);
            pair.move_to_carbon(Side::A, &lab.nv);
            pair.move_to_carbon(Side::B, &lab.nv);
            pair
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_event_queue, bench_matrices, bench_attempt_model, bench_wire, bench_channels, bench_derived_physics, bench_derivation
}
criterion_main!(benches);
