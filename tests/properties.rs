//! Property-based tests on core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of
//! `proptest` these use a small hand-rolled harness: each property is
//! checked against a fixed number of cases drawn from a seeded
//! [`DetRng`], which keeps runs deterministic and failures trivially
//! reproducible (the failing case index is part of the panic message).

use qlink::des::{DetRng, EventQueue, SimDuration};
use qlink::math::stats::{relative_difference, RunningStats};
use qlink::math::CMatrix;
use qlink::quantum::bell::{bell_fidelity, werner_state, BellState, Qber};
use qlink::quantum::{channels, gates, Basis, QuantumState};
use qlink::wire::dqp::{DqpFrameType, DqpMessage, QueueItem};
use qlink::wire::egp::ExpireMsg;
use qlink::wire::fields::{AbsQueueId, Fidelity16, RequestFlags};
use qlink::wire::mhp::GenMsg;
use qlink::wire::Frame;

const CASES: u64 = 128;

/// Runs `body` for `CASES` deterministic cases, each with its own RNG
/// substream; panics carry the failing case index.
fn check(name: &str, mut body: impl FnMut(&mut DetRng)) {
    let root = DetRng::new(0x9f0b_5eed);
    for case in 0..CASES {
        let mut rng = root.substream(&format!("{name}/{case}"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            panic!("property {name} failed at case {case}: {e:?}");
        }
    }
}

fn u16_any(rng: &mut DetRng) -> u16 {
    rng.below(1 << 16) as u16
}

fn u64_any(rng: &mut DetRng) -> u64 {
    // Two 32-bit halves: DetRng::below can't span the full u64 range.
    (rng.below(1 << 32) << 32) | rng.below(1 << 32)
}

// ---- wire formats --------------------------------------------------

#[test]
fn frame_round_trip_gen() {
    check("gen", |rng| {
        let frame = Frame::Gen(GenMsg {
            queue_id: AbsQueueId::new(rng.below(16) as u8, u16_any(rng)),
            timestamp_cycle: u64_any(rng),
        });
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    });
}

#[test]
fn frame_round_trip_dqp() {
    check("dqp", |rng| {
        let frame = Frame::Dqp(DqpMessage {
            frame_type: match rng.below(3) {
                0 => DqpFrameType::Add,
                1 => DqpFrameType::Ack,
                _ => DqpFrameType::Rej,
            },
            cseq: rng.below(256) as u8,
            item: QueueItem {
                queue_id: AbsQueueId::new(rng.below(16) as u8, u16_any(rng)),
                schedule_cycle: u64_any(rng),
                timeout_cycle: u64_any(rng),
                min_fidelity: Fidelity16::from_f64(rng.uniform()),
                purpose_id: u16_any(rng),
                create_id: u16_any(rng),
                num_pairs: 1 + rng.below(511) as u16,
                priority: rng.below(16) as u8,
                initial_virtual_finish: rng.uniform() * 1e12,
                est_cycles_per_pair: rng.below(1 << 32) as u32,
                flags: {
                    let store = rng.bernoulli(0.5);
                    RequestFlags {
                        store,
                        atomic: rng.bernoulli(0.5),
                        measure_directly: !store,
                        master_request: false,
                        consecutive: rng.bernoulli(0.5),
                    }
                },
            },
        });
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    });
}

#[test]
fn corrupted_frames_never_parse_as_different_valid_frame() {
    check("corrupt", |rng| {
        let cycle = u64_any(rng);
        let frame = Frame::Expire(ExpireMsg {
            queue_id: AbsQueueId::new(rng.below(16) as u8, u16_any(rng)),
            origin_id: 1,
            create_id: 9,
            seq_low: (cycle % 65_536) as u16,
            seq_high: (cycle % 65_521) as u16,
        });
        let mut bytes = frame.encode();
        let idx = rng.below(bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << rng.below(8);
        // CRC-32 catches every single-bit flip.
        assert!(Frame::decode(&bytes).is_err());
    });
}

// ---- quantum substrate ---------------------------------------------

#[test]
fn channels_preserve_physicality() {
    check("physicality", |rng| {
        let p = rng.uniform();
        let theta = rng.uniform() * 6.25;
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::ry(theta), &[0]);
        channels::apply_to(&mut s, &channels::dephasing(p), 0);
        channels::apply_to(&mut s, &channels::depolarizing(p), 0);
        channels::apply_to(&mut s, &channels::amplitude_damping(p), 0);
        assert!(s.is_physical(1e-9));
    });
}

#[test]
fn t1t2_decay_is_physical_and_monotone() {
    check("t1t2", |rng| {
        let t = rng.uniform() * 0.01;
        let mut s = BellState::PsiPlus.state();
        channels::apply_to(&mut s, &channels::t1t2_decay(t, 2.86e-3, 1.0e-3), 0);
        assert!(s.is_physical(1e-9));
        let f = bell_fidelity(&s, (0, 1), BellState::PsiPlus);
        assert!(f <= 1.0 + 1e-12);
        // More time → no better fidelity.
        let mut s2 = BellState::PsiPlus.state();
        channels::apply_to(&mut s2, &channels::t1t2_decay(t + 1e-4, 2.86e-3, 1.0e-3), 0);
        let f2 = bell_fidelity(&s2, (0, 1), BellState::PsiPlus);
        assert!(f2 <= f + 1e-9);
    });
}

#[test]
fn eq16_fidelity_qber_consistency() {
    check("eq16", |rng| {
        // For any Werner state, eq. (16) holds exactly.
        let s = werner_state(BellState::PsiMinus, rng.uniform());
        let direct = bell_fidelity(&s, (0, 1), BellState::PsiMinus);
        let via_qber = Qber::of_state(&s, (0, 1), BellState::PsiMinus).fidelity();
        assert!((direct - via_qber).abs() < 1e-9);
    });
}

#[test]
fn partial_trace_preserves_trace() {
    check("ptrace", |rng| {
        let theta = rng.uniform() * 6.25;
        let phi = rng.uniform() * 6.25;
        let mut s = QuantumState::ground(3);
        s.apply_unitary(&gates::ry(theta), &[0]);
        s.apply_unitary(&gates::cnot(), &[0, 1]);
        s.apply_unitary(&gates::rz(phi), &[1]);
        s.apply_unitary(&gates::cnot(), &[1, 2]);
        for keep in [
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
        ] {
            let r = s.partial_trace(&keep);
            assert!((r.trace() - 1.0).abs() < 1e-9);
            assert!(r.is_physical(1e-9));
        }
    });
}

#[test]
fn unitaries_preserve_fidelity_sum() {
    check("fidsum", |rng| {
        // Rotating one half of a Bell pair moves fidelity between the
        // four Bell states but their sum stays 1.
        let mut s = BellState::PhiPlus.state();
        s.apply_unitary(&gates::rz(rng.uniform() * 6.25), &[0]);
        let total: f64 = BellState::ALL
            .iter()
            .map(|b| bell_fidelity(&s, (0, 1), *b))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    });
}

// ---- event queue ----------------------------------------------------

#[test]
fn event_queue_pops_sorted() {
    check("sorted", |rng| {
        let n = 1 + rng.below(99) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_in(SimDuration::from_ps(rng.below(1_000_000)), i);
        }
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
        }
    });
}

#[test]
fn event_queue_fifo_within_timestamp() {
    check("fifo", |rng| {
        let n = 1 + rng.below(49) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_in(SimDuration::from_ps(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<usize> = (0..n).collect();
        assert_eq!(order, expected);
    });
}

// ---- math -----------------------------------------------------------

#[test]
fn running_stats_match_naive() {
    check("stats", |rng| {
        let n = 2 + rng.below(198) as usize;
        let data: Vec<f64> = (0..n).map(|_| (rng.uniform() - 0.5) * 2e6).collect();
        let mut s = RunningStats::new();
        for &x in &data {
            s.push(x);
        }
        let nf = data.len() as f64;
        let mean = data.iter().sum::<f64>() / nf;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nf - 1.0);
        assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        assert!((s.variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    });
}

#[test]
fn relative_difference_bounds() {
    check("reldiff", |rng| {
        let a = (rng.uniform() - 0.5) * 2e9;
        let b = (rng.uniform() - 0.5) * 2e9;
        let r = relative_difference(a, b);
        assert!(r >= 0.0);
        assert!(r <= 2.0 + 1e-12);
        assert!((relative_difference(a, b) - relative_difference(b, a)).abs() < 1e-12);
    });
}

#[test]
fn kron_dimensions_multiply() {
    check("kron", |rng| {
        let n = 1 + rng.below(3) as usize;
        let m = 1 + rng.below(3) as usize;
        let a = CMatrix::identity(n);
        let b = CMatrix::identity(m);
        let k = a.kron(&b);
        assert_eq!(k.rows(), n * m);
        assert!(k.approx_eq(&CMatrix::identity(n * m), 1e-12));
    });
}

#[test]
fn bessel_ratio_bounded() {
    check("bessel", |rng| {
        let x = rng.uniform() * 500.0;
        let r = qlink::math::bessel::i1_over_i0(x);
        assert!((0.0..1.0).contains(&r) || x == 0.0);
    });
}

// Non-random invariants that complement the above.

#[test]
fn measurement_outcomes_unbiased_on_bell_pairs() {
    let mut rng = DetRng::new(1);
    let mut ones = 0;
    let n = 2000;
    for _ in 0..n {
        let mut s = BellState::PhiPlus.state();
        ones += s.measure_qubit(0, Basis::Z, &mut rng) as u32;
    }
    // Fair coin: the per-mille rate should sit near 500.
    assert!((400..600).contains(&(ones * 1000 / n)), "bias: {ones}/{n}");
}

// ---- idle-link parking ------------------------------------------------

use qlink::des::SimTime;
use qlink::sim::link::{LinkOutput, LinkSimulation, Rejection};
use qlink::sim::workload::{GeneratedRequest, WorkloadSpec};
use qlink::sim::{LinkConfig, LinkMetrics, RequestKind};

/// One output a link surfaced, a delivery's fidelity by bit pattern.
#[derive(Debug, PartialEq)]
enum Surfaced {
    Delivery(RequestKind, usize, u16, u64, SimTime, bool),
    Rejection(Rejection),
}

impl Surfaced {
    fn is_delivery(&self) -> bool {
        matches!(self, Surfaced::Delivery(..))
    }
}

/// Steps a link to `t` the way an embedding layer does — wake by wake
/// through `next_event_time` / `advance_to`, reading the outbox at
/// each — and returns what it surfaced on the way, in event order.
fn step_to(link: &mut LinkSimulation, t: SimTime) -> Vec<Surfaced> {
    let mut surfaced = Vec::new();
    loop {
        let wake = link.next_event_time().filter(|&w| w <= t);
        link.advance_to(wake.unwrap_or(t));
        surfaced.extend(link.take_outputs().into_iter().map(|o| match o {
            LinkOutput::Delivery(d) => Surfaced::Delivery(
                d.kind,
                d.origin,
                d.create_id,
                d.fidelity.to_bits(),
                d.at,
                d.request_complete,
            ),
            LinkOutput::Rejection(r) => Surfaced::Rejection(r),
        }));
        if wake.is_none() {
            return surfaced;
        }
    }
}

/// Every field of a [`LinkMetrics`]; `{:?}` of an f64 round-trips,
/// so equal strings mean equal bits.
fn metrics_fingerprint(m: &LinkMetrics) -> String {
    let mut out = format!("{:?} {:?} {:?}", m.qber, m.queue_length, m.elapsed);
    out += &format!(" {:?}", m.errors);
    for kind in RequestKind::ALL {
        for origin in 0..2 {
            out += &format!(" {:?}", m.kind_at_origin(kind, origin));
        }
        out += &format!(
            " {:?} {:?}",
            m.ok_series.get(&kind),
            m.latency_series.get(&kind)
        );
    }
    out
}

/// Answered attempts do not hold up parking: their reply deadlines are
/// dropped at the next cycle rather than waited out (13 cycles on Lab).
/// A retraction shows it — it leaves both EGPs quiescent as soon as the
/// RETRACT is acknowledged, with the attempt of that cycle still in
/// flight, whereas a served request lingers 5 000 cycles, long past
/// every deadline.
#[test]
fn retracted_link_parks_the_cycle_after_its_last_reply() {
    let cfg = LinkConfig::lab(WorkloadSpec::none(), 4);
    let cycle_start = |c: u64| SimTime::ZERO + cfg.scenario.mhp_cycle * c;
    let retracted = |park: bool| {
        let mut link = LinkSimulation::new(cfg.clone());
        if park {
            link.park_when_idle();
        }
        let req = GeneratedRequest {
            kind: RequestKind::Md,
            pairs: 1,
            origin: 0,
            fmin: 0.6,
            tmax_us: 0,
        };
        let id = link.submit(0, req);
        // Well into the attempt phase: one attempt per cycle.
        link.advance_to(cycle_start(2_000));
        assert_eq!(link.metrics.total_pairs(), 0, "still attempting");
        assert!(link.events_fired() > 4 * 1_000, "attempts are running");
        link.expire_request(0, id);
        link
    };
    let (mut ticking, mut parking) = (retracted(false), retracted(true));
    // Cycle 2001 finds attempt 2000 answered at both nodes and parks.
    parking.advance_to(cycle_start(2_001));
    assert_eq!(parking.next_event_time(), None, "parked at cycle 2001");

    ticking.advance_to(cycle_start(2_100));
    parking.advance_to(cycle_start(2_100));
    assert_eq!(parking.cycles_elided(), 99, "cycles 2002 to 2100");
    assert_eq!(
        parking.events_fired() + parking.cycles_elided(),
        ticking.events_fired()
    );
}

/// Idle-link parking is invisible except in the event count: a link
/// that parks and one that never parks, driven through the same seeded
/// random schedule of submits, retractions and idle gaps, surface
/// bit-equal deliveries and rejections at every step and end with
/// bit-equal metrics — and the cycles the parked link elided are
/// exactly the events it did not fire.
#[test]
fn parked_link_is_indistinguishable_from_a_ticking_one() {
    let root = DetRng::new(0x1d1e_11f4);
    for case in 0..4u64 {
        let mut rng = root.substream(&format!("parking/{case}"));
        let cfg = LinkConfig::lab(WorkloadSpec::none(), 900 + case);
        let cycle = cfg.scenario.mhp_cycle;
        let embedded = |park: bool| {
            let mut link = LinkSimulation::new(cfg.clone());
            if park {
                link.park_when_idle();
            }
            link
        };
        let (mut ticking, mut parked) = (embedded(false), embedded(true));

        let mut t = SimTime::ZERO;
        let mut submitted: Vec<(usize, u16)> = Vec::new();
        let (mut delivered, mut resumes) = (0, 0);
        for step in 0..40 {
            // Where the next input lands: just ahead, exactly on an MHP
            // cycle boundary, or past a long idle stretch (longer than
            // the 5 000-cycle completed-request linger, so the link
            // really goes quiescent and parks).
            t = match rng.below(4) {
                0 => t + SimDuration::from_ps(1 + rng.below(3 * cycle.as_ps())),
                1 => SimTime::from_ps(
                    (t.as_ps() / cycle.as_ps() + 1 + rng.below(50)) * cycle.as_ps(),
                ),
                2 => t + SimDuration::from_millis(1 + rng.below(40)),
                _ => t + SimDuration::from_millis(60 + rng.below(500)),
            };
            let want = step_to(&mut ticking, t);
            assert_eq!(step_to(&mut parked, t), want, "case {case} step {step}");
            assert_eq!(
                parked.events_fired() + parked.cycles_elided(),
                ticking.events_fired(),
                "case {case} step {step}: event ledger"
            );
            delivered += want.iter().filter(|o| o.is_delivery()).count();

            let was_parked = parked.next_event_time().is_none();
            let links = [&mut ticking, &mut parked];
            match rng.below(8) {
                0 if !submitted.is_empty() => {
                    // Retract something submitted earlier — perhaps
                    // long served, perhaps still queued.
                    let (origin, id) = submitted[rng.below(submitted.len() as u64) as usize];
                    for link in links {
                        link.expire_request(origin, id);
                    }
                }
                1 => {} // an observation with no input
                roll => {
                    let kind =
                        [RequestKind::Md, RequestKind::Nl, RequestKind::Ck][rng.below(3) as usize];
                    let origin = rng.below(2) as usize;
                    let req = GeneratedRequest {
                        kind,
                        pairs: 1 + rng.below(2) as u16,
                        origin,
                        // Now and then a floor the FEU cannot reach
                        // (UNSUPP on the spot) or a deadline (TIMEOUT).
                        fmin: if roll == 2 { 0.99 } else { 0.6 },
                        tmax_us: if roll == 3 { 200_000 } else { 0 },
                    };
                    let ids = links.map(|l| l.submit(origin, req));
                    assert!(ids[0] == ids[1], "create ids diverged");
                    submitted.push((origin, ids[0]));
                    resumes += was_parked as usize;
                }
            }
        }
        // Drain: serve what is queued, then sit idle.
        t += SimDuration::from_secs(3);
        let want = step_to(&mut ticking, t);
        assert_eq!(step_to(&mut parked, t), want, "case {case}: drain");
        delivered += want.iter().filter(|o| o.is_delivery()).count();

        let fp = metrics_fingerprint(&ticking.metrics);
        assert_eq!(
            metrics_fingerprint(&parked.metrics),
            fp,
            "case {case}: metrics"
        );
        assert_eq!(
            ticking.cycles_elided(),
            0,
            "a link nobody opted in never parks"
        );
        assert_eq!(ticking.next_event_time().map(|w| w > t), Some(true));
        assert_eq!(
            parked.next_event_time(),
            None,
            "case {case}: idle at the end, so parked"
        );
        assert_eq!(
            parked.events_fired() + parked.cycles_elided(),
            ticking.events_fired()
        );
        // The schedule must actually exercise the mechanism.
        assert!(delivered > 0, "case {case}: nothing was delivered");
        assert!(
            resumes > 1,
            "case {case}: {resumes} submits found the link parked"
        );
    }
}

// ---- shared physics ---------------------------------------------------

use qlink::egp::feu::FidelityEstimator;
use qlink::phys::params::ScenarioParams;

/// Sharing derived physics changes no value: a link on an FEU handle
/// another link (other seed, same hardware) has already warmed
/// surfaces bit-equal deliveries and rejections, ends with bit-equal
/// metrics and fires the same events as the same seed on a handle of
/// its own — and, the table being warm, builds no model itself.
#[test]
fn link_on_a_warmed_estimator_is_indistinguishable_from_a_cold_one() {
    for (case, scenario) in [ScenarioParams::lab(), ScenarioParams::ql2020()]
        .into_iter()
        .enumerate()
    {
        // Random MD load (so the workload scaling reads the FEU too)
        // plus an UNSUPP CREATE, a K-type one and a retraction by hand.
        let cfg = |seed| {
            let spec = WorkloadSpec::single(RequestKind::Md, 0.7, 1);
            let mut cfg = LinkConfig::lab(spec, seed);
            cfg.scenario = scenario.clone();
            cfg
        };
        let drive = |link: &mut LinkSimulation| {
            let ck = |fmin| GeneratedRequest {
                kind: RequestKind::Ck,
                pairs: 1,
                origin: 1,
                fmin,
                tmax_us: 0,
            };
            link.submit(1, ck(0.99));
            let mut surfaced = step_to(link, SimTime::ZERO + SimDuration::from_millis(1_000));
            link.submit(1, ck(0.5));
            let id = link.submit(1, ck(0.5));
            link.expire_request(1, id);
            let more = step_to(link, SimTime::ZERO + SimDuration::from_millis(2_000));
            surfaced.extend(more);
            (
                surfaced,
                metrics_fingerprint(&link.metrics),
                link.events_fired(),
            )
        };

        let cold = drive(&mut LinkSimulation::new(cfg(31)));

        let feu = FidelityEstimator::new(scenario.clone());
        drive(&mut LinkSimulation::with_estimator(cfg(77), feu.clone()));
        let models = feu.models().len();
        assert!(models > 0, "case {case}: the first link filled the table");
        let warm = drive(&mut LinkSimulation::with_estimator(cfg(31), feu.clone()));

        assert!(
            cold.0.iter().any(Surfaced::is_delivery) && !cold.0.iter().all(Surfaced::is_delivery),
            "case {case}: the schedule must deliver and reject something"
        );
        assert_eq!(warm, cold, "case {case}");
        assert_eq!(
            feu.models().len(),
            models,
            "case {case}: the second link built no model"
        );
    }
}
