//! Acceptance suite for the open-loop workload engine
//! (`qlink::net::load`, the PR 7 tentpole).
//!
//! The contracts under test:
//!
//! * **Determinism** — the Poisson arrival stream, and every
//!   per-class count and histogram derived from it, is a pure function
//!   of the run seed;
//! * **Rate fidelity** — the empirical arrival rate over 10⁵ arrivals
//!   is within 5% of the configured λ;
//! * **Legacy isolation** — closed-loop `ScenarioSpec`s (no workload
//!   set) reproduce the pre-workload `RunRecord`s bit for bit: the
//!   `net/load` substream is never touched when no workload is armed;
//! * **Accounting exactness** — `offered = admitted + dropped +
//!   queued` and `admitted = completed + abandoned + in_flight`, per
//!   class, through a timeout storm on the contended 4×4 grid;
//! * **Trace replay** — a recorded `(time, class, pair)` trace drives
//!   the run verbatim, and re-arming replaces the arrival stream;
//! * **Sweep integration** — `ScenarioSpec::with_workload` carries
//!   per-class stats through the sweep merge and the service CSV.

use qlink::des::Histogram;
use qlink::net::run_one;
use qlink::net::sweep::run_one as sweep_run_one;
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// A network over `topo` driven by `workload`, otherwise at defaults.
fn loaded(topo: Topology, seed: u64, workload: Workload) -> Network {
    let workload = Some(workload);
    let config = NetConfig {
        workload,
        ..NetConfig::default()
    };
    Network::with_config(topo, seed, config, ModelCache::new())
}

/// The two paper-style traffic classes used throughout: a
/// measure-directly QKD class (three single-hop pairs, queued
/// admission) and a create-and-keep compute class (two pairs, hard
/// rejection past its in-flight bound). Single-hop pairs so a 250 ms
/// timeout sits just above the lab link's typical NL latency: first
/// attempts usually land, some need the one retry, some exhaust it —
/// mixing completions, abandons, and admission drops in one storm.
fn grid_classes() -> Vec<UserClass> {
    vec![
        UserClass::new("qkd", RequestKind::Md, vec![(0, 1), (1, 2), (4, 5)])
            .with_weight(3.0)
            .with_priority(1)
            .with_admission(AdmissionControl::QueueBeyond {
                max_in_flight: 2,
                queue_cap: 16,
            })
            .with_latency_slo(SimDuration::from_millis(200))
            .with_fidelity_slo(0.4),
        UserClass::new("compute", RequestKind::Ck, vec![(8, 9), (12, 13)])
            .with_priority(0)
            .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 })
            .with_latency_slo(SimDuration::from_millis(150)),
    ]
}

/// A contended 4×4 grid under sustained Poisson overload (λ = 2000/s
/// against a carried capacity of tens per second) with armed timeouts
/// and a retry budget — the timeout-storm scenario class the PR 4/5
/// suites pin, now driven open-loop.
fn run_grid(seed: u64, horizon: SimDuration) -> (LoadStats, u64) {
    let root = DetRng::new(seed);
    let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
    let config = NetConfig {
        metric: RouteMetric::LoadLatency,
        request_timeout: Some(SimDuration::from_millis(250)),
        retries: 1,
        workload: Some(Workload::poisson(2_000.0, grid_classes())),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, seed, config, ModelCache::new());
    net.run_for(horizon);
    let stats = net.workload_stats().expect("workload armed").clone();
    (stats, net.events_fired())
}

// ---- determinism ----------------------------------------------------

/// Same seed, same workload → same stats, twice over (the arrival
/// substream is a pure function of the run seed).
#[test]
fn poisson_stream_is_reproducible_per_seed() {
    let horizon = SimDuration::from_secs_f64(0.3);
    let (a, ea) = run_grid(23, horizon);
    let (b, eb) = run_grid(23, horizon);
    assert_eq!(a, b);
    assert_eq!(ea, eb);
}

// ---- rate fidelity --------------------------------------------------

/// λ = 2 × 10⁶/s over 50 simulated milliseconds ≈ 10⁵ arrivals; the
/// empirical mean rate must land within 5% (the Poisson standard
/// deviation is ~√10⁵ ≈ 316, fifteen times tighter).
#[test]
fn poisson_empirical_rate_within_five_percent_of_lambda() {
    let topo = Topology::chain(2, |i| lab(60 + i as u64));
    // A tight in-flight bound keeps the link idle-cheap: almost every
    // arrival is dropped on the spot, and the test measures the
    // arrival process itself, not the network's service rate.
    let classes = vec![UserClass::new("meter", RequestKind::Md, vec![(0, 1)])
        .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 1 })];
    let mut net = loaded(topo, 7, Workload::poisson(2_000_000.0, classes));
    let horizon = SimDuration::from_millis(50);
    net.run_for(horizon);
    let offered = net.workload_stats().expect("armed").total_offered();
    let expected = 2_000_000.0 * horizon.as_secs_f64();
    let deviation = (offered as f64 - expected).abs() / expected;
    assert!(
        offered >= 95_000,
        "need ~10⁵ arrivals for the property, got {offered}"
    );
    assert!(
        deviation < 0.05,
        "empirical rate off by {:.2}% (offered {offered}, expected {expected})",
        deviation * 100.0
    );
}

// ---- legacy isolation (regression pin) ------------------------------

/// Golden `RunRecord` fingerprints of three closed-loop scenario
/// classes (plain chain, contended grid with re-routes, link-level
/// purification), captured on the pre-workload revision. A spec with
/// no workload must reproduce them bit for bit — proof the arrival
/// machinery draws nothing and schedules nothing when off. (`events`
/// alone was re-recorded twice: when idle links began parking — the
/// cycles an idle link skips, and the wakes that observed them, are
/// not events — and when a link attempt went from ten events to four:
/// photons and GENs reach the station at emission and reply deadlines
/// wait in a per-link FIFO, so neither is an event or a wake any more.
/// Every other field is the original capture.)
#[test]
fn closed_loop_specs_reproduce_pre_workload_records_bit_for_bit() {
    struct Pin {
        spec: ScenarioSpec,
        seed: u64,
        successes: u32,
        rounds: u32,
        events: u64,
        fidelity_mean_bits: u64,
        latency_mean_bits: u64,
        pairs_consumed: u64,
        timeouts: u32,
        reroutes: u64,
        hist_counts: (u64, u64),
        deliveries: usize,
    }
    let pins = [
        Pin {
            spec: ScenarioSpec::lab_chain("pin-chain", 4)
                .with_rounds(3)
                .with_streams(2)
                .with_metric(RouteMetric::Fidelity),
            seed: 5,
            successes: 6,
            rounds: 6,
            events: 1_587_998,
            fidelity_mean_bits: 0x3fd2e7e346e5b7ca,
            latency_mean_bits: 0x3fd52732f48dff8f,
            pairs_consumed: 18,
            timeouts: 0,
            reroutes: 0,
            hist_counts: (6, 6),
            deliveries: 6,
        },
        Pin {
            spec: ScenarioSpec::lab_grid("pin-grid", 4, 4)
                .with_pairs(vec![(0, 15), (3, 12), (5, 10)])
                .with_metric(RouteMetric::LoadLatency)
                .with_retries(2)
                .with_request_timeout(SimDuration::from_secs_f64(0.080))
                .with_rounds(2)
                .with_max_time(SimDuration::from_secs(2)),
            seed: 1,
            successes: 2,
            rounds: 6,
            events: 2_850_483,
            fidelity_mean_bits: 0x3fd52195d5080a63,
            latency_mean_bits: 0x3fb1e90cc7ff8760,
            pairs_consumed: 4,
            timeouts: 4,
            reroutes: 8,
            hist_counts: (2, 2),
            deliveries: 2,
        },
        Pin {
            spec: ScenarioSpec::lab_chain("pin-purify", 3)
                .with_policy(Policy::LinkPurify)
                .with_carbon_t2(10.0)
                .with_rounds(2),
            seed: 2,
            successes: 2,
            rounds: 2,
            events: 351_934,
            fidelity_mean_bits: 0x3fe0ce908b54b808,
            latency_mean_bits: 0x3fc3f8cbedf7a9b1,
            pairs_consumed: 8,
            timeouts: 0,
            reroutes: 0,
            hist_counts: (2, 2),
            deliveries: 2,
        },
    ];
    for pin in &pins {
        let record = run_one(&pin.spec, pin.seed);
        let name = &pin.spec.name;
        assert_eq!(record.successes, pin.successes, "{name}: successes");
        assert_eq!(record.rounds, pin.rounds, "{name}: rounds");
        assert_eq!(record.events, pin.events, "{name}: event count");
        assert_eq!(
            record.fidelity.mean().to_bits(),
            pin.fidelity_mean_bits,
            "{name}: fidelity mean"
        );
        assert_eq!(
            record.latency_s.mean().to_bits(),
            pin.latency_mean_bits,
            "{name}: latency mean"
        );
        assert_eq!(record.pairs_consumed, pin.pairs_consumed, "{name}: pairs");
        assert_eq!(record.timeouts, pin.timeouts, "{name}: timeouts");
        assert_eq!(record.reroutes, pin.reroutes, "{name}: reroutes");
        assert_eq!(
            (record.latency_hist.count(), record.fidelity_hist.count()),
            pin.hist_counts,
            "{name}: histogram counts"
        );
        assert_eq!(
            record.deliveries.len(),
            pin.deliveries,
            "{name}: deliveries"
        );
        assert!(record.classes.is_empty(), "{name}: no per-class stats");
        assert_eq!(record.open_loop_secs, 0.0, "{name}: closed-loop marker");
    }
}

// ---- accounting exactness -------------------------------------------

/// Through a timeout storm on the contended grid, the two conservation
/// identities hold per class, the histogram sample counts reconcile
/// with the scalar counts, and the storm actually exercised every
/// disposition (drops, abandons, completions).
#[test]
fn accounting_identities_hold_per_class_through_a_timeout_storm() {
    let (stats, _) = run_grid(31, SimDuration::from_secs_f64(1.5));
    for c in &stats.classes {
        assert_eq!(
            c.offered,
            c.admitted + c.dropped + c.queued,
            "{}: offered split",
            c.name
        );
        assert_eq!(
            c.admitted,
            c.completed + c.abandoned + c.in_flight,
            "{}: admitted split",
            c.name
        );
        assert_eq!(
            c.latency.count(),
            c.completed,
            "{}: one latency sample per completion",
            c.name
        );
        assert_eq!(
            c.fidelity.count(),
            c.completed,
            "{}: one fidelity sample per completion",
            c.name
        );
        assert_eq!(
            c.queue_wait.count(),
            c.admitted,
            "{}: one queue-wait sample per admission",
            c.name
        );
        assert!(c.slo_latency_met <= c.completed, "{}: SLO bound", c.name);
        assert!(c.slo_fidelity_met <= c.completed, "{}: SLO bound", c.name);
    }
    // The scenario is sized so every disposition fires: sustained
    // overload → drops at both admission policies, abandons from the
    // 10 ms timeout × 1-retry budget, and some completions anyway.
    assert!(stats.total_dropped() > 0, "overload must drop");
    assert!(stats.total_completed() > 0, "the grid must carry something");
    assert!(
        stats.classes.iter().map(|c| c.abandoned).sum::<u64>() > 0,
        "the timeout storm must abandon"
    );
}

// ---- trace replay ---------------------------------------------------

/// A recorded trace drives arrivals verbatim: exact per-class offered
/// counts, exact arrival times (visible through zero queue waits and
/// the deterministic completion latencies), and bit-identical stats
/// across repeated runs.
#[test]
fn trace_workloads_replay_verbatim_through_the_network() {
    let ms = SimDuration::from_millis;
    let trace = vec![
        TraceArrival {
            after: ms(0),
            class: 0,
            pair: (0, 2),
        },
        TraceArrival {
            after: ms(40),
            class: 1,
            pair: (2, 0),
        },
        TraceArrival {
            after: ms(40),
            class: 0,
            pair: (0, 2),
        },
        TraceArrival {
            after: ms(900),
            class: 0,
            pair: (0, 2),
        },
    ];
    let classes = vec![
        UserClass::new("ck", RequestKind::Ck, vec![(0, 2)]),
        UserClass::new("md", RequestKind::Md, vec![(0, 2)]),
    ];
    let run = || {
        let topo = Topology::chain(3, |i| lab(80 + i as u64));
        let workload = Workload::trace(trace.clone(), classes.clone());
        let mut net = loaded(topo, 13, workload);
        net.run_for(SimDuration::from_secs(5));
        net.workload_stats().expect("armed").clone()
    };
    let stats = run();
    assert_eq!(stats.total_offered(), 4, "every trace arrival offered");
    assert_eq!(stats.classes[0].offered, 3);
    assert_eq!(stats.classes[1].offered, 1);
    // Open admission + a generous horizon: everything admitted on the
    // spot and eventually delivered.
    assert_eq!(stats.total_admitted(), 4);
    assert_eq!(stats.total_completed(), 4);
    assert_eq!(stats, run(), "trace replay is deterministic");
}

/// A link refuses a CREATE the moment it reaches it, so an arrival at
/// an fmin no link can serve, with no retry budget, is abandoned while
/// its admission is still being handled: the slot it took is settled
/// on the spot, for a plain request and for a distillation group alike.
#[test]
fn an_arrival_refused_on_the_spot_settles_its_slot() {
    let trace: Vec<_> = (0..3)
        .map(|i| TraceArrival {
            after: SimDuration::from_micros(20 * i),
            class: 0,
            pair: (0, 2),
        })
        .collect();
    let admission = AdmissionControl::QueueBeyond {
        max_in_flight: 1,
        queue_cap: 4,
    };
    let class = UserClass::new("unservable", RequestKind::Ck, vec![(0, 2)])
        .with_fmin(0.99)
        .with_admission(admission);
    for policy in [Policy::SwapAsap, Policy::EndToEndPurify] {
        let config = NetConfig {
            policy,
            workload: Some(Workload::trace(trace.clone(), vec![class.clone()])),
            ..NetConfig::default()
        };
        let topo = Topology::chain(3, |i| lab(80 + i as u64));
        let mut net = Network::with_config(topo, 13, config, ModelCache::new());
        net.run_for(SimDuration::from_millis(1));
        let c = &net.workload_stats().expect("armed").classes[0];
        let counts = [c.offered, c.admitted, c.queued, c.abandoned, c.in_flight];
        assert_eq!(counts, [3, 3, 0, 3, 0], "{policy:?}");
        assert_eq!(net.timeouts(), 3, "{policy:?}");
    }
}

// ---- sweep integration ----------------------------------------------

/// `ScenarioSpec::with_workload` drives the run open-loop through the
/// sweep layer: the record projects the per-class accounting onto the
/// legacy scalars, the per-seed class stats merge exactly, and the
/// service CSV reports one row per (scenario, class).
#[test]
fn sweep_carries_per_class_stats_and_service_csv() {
    let spec = ScenarioSpec::lab_grid("svc", 4, 4)
        .with_metric(RouteMetric::LoadLatency)
        .with_retries(1)
        .with_request_timeout(SimDuration::from_millis(250))
        .with_max_time(SimDuration::from_secs_f64(0.4))
        .with_workload(Workload::poisson(2_000.0, grid_classes()));
    let record = sweep_run_one(&spec, 3);
    assert_eq!(record.classes.len(), 2);
    let admitted: u64 = record.classes.iter().map(|c| c.admitted).sum();
    let completed: u64 = record.classes.iter().map(|c| c.completed).sum();
    let abandoned: u64 = record.classes.iter().map(|c| c.abandoned).sum();
    assert_eq!(u64::from(record.rounds), admitted, "rounds ≙ admitted");
    assert_eq!(
        u64::from(record.successes),
        completed,
        "successes ≙ completed"
    );
    assert_eq!(
        u64::from(record.timeouts),
        abandoned,
        "timeouts ≙ abandoned"
    );
    assert_eq!(record.open_loop_secs, 0.4);

    let report = sweep(&[spec], &[3, 4], 2);
    let s = &report.scenarios[0];
    assert_eq!(s.classes.len(), 2);
    assert_eq!(s.open_loop_secs, 0.8, "two runs × 0.4 s each");
    let merged_offered: u64 = s.classes.iter().map(|c| c.offered).sum();
    let per_run_offered: u64 = report
        .runs
        .iter()
        .flat_map(|r| r.classes.iter().map(|c| c.offered))
        .sum();
    assert_eq!(merged_offered, per_run_offered, "exact class merge");

    let csv = report.service_csv();
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("scenario,class,offered,admitted,dropped"));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 2, "one row per class");
    assert!(rows[0].starts_with("svc,qkd,"));
    assert!(rows[1].starts_with("svc,compute,"));
}

/// Open-loop records carry no per-delivery series, so the throughput
/// CSV has no rows for them — the mirror of the service CSV having
/// none for closed-loop scenarios — rather than one row claiming zero
/// deliveries for a run that delivered.
#[test]
fn throughput_csv_has_no_rows_for_open_loop_scenarios() {
    let class = UserClass::new("ck", RequestKind::Ck, vec![(0, 1)]);
    let open = ScenarioSpec::lab_chain("open", 2)
        .with_max_time(SimDuration::from_secs(1))
        .with_workload(Workload::poisson(20.0, vec![class]));
    let closed = ScenarioSpec::lab_chain("closed", 2).with_rounds(2);
    let report = sweep(&[open, closed], &[5], 1);
    assert!(report.scenarios[0].successes > 0, "the open loop delivers");
    assert!(
        report.scenarios[1].successes > 0,
        "the closed loop delivers"
    );
    let csv = report.throughput_csv(SimDuration::from_secs(1));
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert!(!rows.is_empty(), "the closed loop has rows:\n{csv}");
    assert!(
        rows.iter().all(|r| r.starts_with("closed,")),
        "only the closed loop has rows:\n{csv}"
    );
}

// ---- owners of a request (regression pin) ----------------------------

/// One class's accounting: its nine counters (offered, admitted,
/// dropped, completed, abandoned, queued, in flight, latency SLO met,
/// fidelity SLO met), then its latency, queue-wait and fidelity
/// histograms as `(sample count, bits of the mean)`.
type ClassPin = ([u64; 9], [(u64, u64); 3]);

/// Every class's [`ClassPin`], then the network's `timeouts`,
/// `reroutes`, `events_fired` and the number of outcomes its callers
/// receive.
fn accounting(net: &mut Network) -> (Vec<ClassPin>, [u64; 4]) {
    let stats = net.workload_stats().expect("workload armed");
    let hist = |h: &Histogram| (h.count(), h.mean().to_bits());
    let classes = stats
        .classes
        .iter()
        .map(|c| {
            let counters = [
                c.offered,
                c.admitted,
                c.dropped,
                c.completed,
                c.abandoned,
                c.queued,
                c.in_flight,
                c.slo_latency_met,
                c.slo_fidelity_met,
            ];
            (counters, [&c.latency, &c.queue_wait, &c.fidelity].map(hist))
        })
        .collect();
    let outcomes = net.take_outcomes().len() as u64;
    let run = [net.timeouts(), net.reroutes(), net.events_fired(), outcomes];
    (classes, run)
}

/// The workload accounting of two runs that exercise every owner a
/// request can have, pinned bit for bit: (a) the contended grid's
/// timeout storm at 2 kHz, with one closed-loop request issued beside
/// the workload's, whose outcome reaches the caller; every request
/// holding a reservation after 1 s is then cancelled and the run goes
/// on for 250 ms; (b) a 3-node long-memory chain under end-to-end
/// purification, whose workload requests are distillation groups that
/// both complete and abandon.
#[test]
fn workload_accounting_of_every_owner_is_pinned() {
    let root = DetRng::new(31);
    let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
    let config = NetConfig {
        metric: RouteMetric::LoadLatency,
        request_timeout: Some(SimDuration::from_millis(250)),
        retries: 1,
        workload: Some(Workload::poisson(2_000.0, grid_classes())),
        ..NetConfig::default()
    };
    let mut grid = Network::with_config(topo, 31, config, ModelCache::new());
    grid.request_entanglement(3, 7, 0.6);
    grid.run_for(SimDuration::from_secs(1));
    let mut riding: Vec<u64> = (0..16)
        .flat_map(|node| grid.reservations_at(node))
        .map(|(request, _)| request)
        .collect();
    riding.sort_unstable();
    riding.dedup();
    assert!(riding.len() >= 2, "requests in flight to cancel");
    for request in riding {
        grid.cancel_request(request);
    }
    grid.run_for(SimDuration::from_millis(250));
    let qkd = &grid.workload_stats().expect("armed").classes[0];
    assert!(qkd.queue_wait.mean() > 0.0, "queued arrivals drained");
    assert!(grid.timeouts() > 0, "the storm abandons requests");
    let qkd: ClassPin = (
        [1859, 28, 1815, 24, 2, 16, 2, 7, 23],
        [
            (24, 0x3fe12c6d10ea29f6),
            (28, 0x3fe027461d683923),
            (24, 0x3fe515e45c563645),
        ],
    );
    let compute: ClassPin = (
        [615, 14, 601, 8, 4, 0, 2, 6, 8],
        [(8, 0x3fbe9b82f6daf8af), (14, 0), (8, 0x3fe28e8312c09d0c)],
    );
    let run = [2, 7, 3_374_278, 1];
    assert_eq!(accounting(&mut grid), (vec![qkd, compute], run), "grid");

    let topo = Topology::chain(3, |i| {
        let mut cfg = lab(80 + i as u64);
        cfg.scenario.nv.carbon_t2 = 10.0;
        cfg
    });
    let admission = AdmissionControl::QueueBeyond {
        max_in_flight: 2,
        queue_cap: 4,
    };
    let class =
        UserClass::new("e2e", RequestKind::Ck, vec![(0, 2), (2, 0)]).with_admission(admission);
    let config = NetConfig {
        policy: Policy::EndToEndPurify,
        request_timeout: Some(SimDuration::from_millis(400)),
        workload: Some(Workload::poisson(20.0, vec![class])),
        ..NetConfig::default()
    };
    let mut chain = Network::with_config(topo, 9, config, ModelCache::new());
    chain.run_for(SimDuration::from_secs(3));
    let e2e = &chain.workload_stats().expect("armed").classes[0];
    assert!(e2e.completed > 0, "distilled groups complete");
    assert!(e2e.abandoned > 0, "distillation groups abandon");
    let e2e: ClassPin = (
        [63, 16, 44, 6, 8, 3, 2, 6, 6],
        [
            (6, 0x3fe96d51e31e44e3),
            (16, 0x3fe1c9fbabdbea5b),
            (6, 0x3fdecca905cc9e49),
        ],
    );
    let run = [8, 0, 3_662_172, 0];
    assert_eq!(accounting(&mut chain), (vec![e2e], run), "chain");
}
