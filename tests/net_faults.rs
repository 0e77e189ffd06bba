//! Acceptance suite for deterministic fault injection
//! (`qlink::net::fault`, the PR 9 tentpole).
//!
//! The contracts under test:
//!
//! * **Determinism under adversity** — a flapping 4×4 grid
//!   (scheduled faults + seeded-stochastic flapping, armed timeouts,
//!   retries) is a pure function of `(seed, plan)`;
//! * **The penalty box re-routes the network** — on a grid whose
//!   preferred corridor flaps on a fixed schedule, pricing recent
//!   failures into planning makes later requests detour around the
//!   flappy edge from the start: strictly fewer timeouts than the
//!   same schedule with the box disabled, per seed;
//! * **Degraded repair profiles steer planning** — an edge repaired
//!   under a profile whose fidelity ceiling sits below Fmin is
//!   avoided by the planner even though it is up;
//! * **Retry-budget exhaustion under flapping** (satellite) — a
//!   stream whose only edge flaps faster than it can deliver lands in
//!   exactly one of completed/abandoned, with every reservation
//!   released;
//! * **Zero-completion SLO accounting** (satellite) — a workload
//!   class that completes nothing reports 0.0 attainment (not NaN)
//!   and a NaN-free service CSV;
//! * **A pair cut at issue** — a request issued while faults cut
//!   every path between its pair is abandoned one control delay later
//!   (a timeout, with its spans), never panicked on.

use qlink::net::sweep::{run_one, RunRecord};
use qlink::net::{chrome_trace_json, SpanEvent, TelemetryConfig};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// A Lab link degraded far below spec (borrowed from
/// `net_routing.rs`): its FEU ceiling sits below Fmin 0.6.
fn noisy_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.optics.visibility = 0.4;
    cfg.scenario.optics.two_photon_prob = 0.2;
    cfg.scenario.optics.phase_sigma_rad *= 3.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 0.9;
    cfg
}

// ---- determinism under adversity ------------------------------------

/// Every trajectory-determined field of a [`RunRecord`], f64s by bit
/// pattern.
fn fingerprint(r: &RunRecord) -> (u32, u32, u32, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.successes,
        r.rounds,
        r.timeouts,
        r.reroutes,
        r.events,
        r.faults,
        r.repairs,
        r.pairs_consumed,
        r.fidelity.mean().to_bits(),
        r.latency_s.mean().to_bits(),
        r.latency_s.variance().to_bits(),
    )
}

/// The acceptance scenario: the PR 4 contended 4×4 grid with armed
/// timeouts and retries, every edge flapping on seeded-stochastic
/// dwells realized from the run seed's `net/fault` substream.
fn flapping_grid_spec() -> ScenarioSpec {
    let ms = SimDuration::from_millis;
    let spec = ScenarioSpec::lab_grid("flapping-grid", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)])
        .with_metric(RouteMetric::LoadLatency)
        .with_request_timeout(ms(300))
        .with_retries(2)
        .with_max_time(ms(700));
    let plan = FaultPlan::flapping_everywhere(spec.topology.edge_count(), ms(250), ms(60), 2);
    spec.with_faults(plan)
}

/// The realized fault schedule is a pure function of `(seed, plan)`:
/// same seed twice → identical records; a different seed realizes a
/// different flapping schedule.
#[test]
fn fault_schedules_are_reproducible_per_seed() {
    let spec = flapping_grid_spec();
    let a = run_one(&spec, 9);
    let b = run_one(&spec, 9);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let c = run_one(&spec, 10);
    assert_ne!(
        (a.faults, a.events),
        (c.faults, c.events),
        "different seeds should realize different schedules"
    );
}

/// Legacy isolation: `faults: None` (the default) arms no plan and
/// draws nothing from the `net/fault` substream, so a spec with and
/// without the explicit spelling are bit-identical.
#[test]
fn unarmed_specs_reproduce_without_fault_plumbing() {
    let base = ScenarioSpec::lab_grid("no-faults", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12)])
        .with_metric(RouteMetric::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(1)
        .with_max_time(SimDuration::from_millis(600));
    let implicit = run_one(&base, 4);
    let mut unarmed = base.clone();
    unarmed.net.faults = None;
    let explicit = run_one(&unarmed, 4);
    assert_eq!(fingerprint(&implicit), fingerprint(&explicit));
    assert_eq!(implicit.faults, 0);
    assert_eq!(implicit.repairs, 0);
}

// ---- the penalty box ------------------------------------------------

/// One deterministic penalty-box A/B cell: a 4×4 grid where the
/// unique 3-hop corridor 0-1-2-3 flaps on a fixed 20 ms-down schedule
/// while three requests for (0, 3) are issued between the flaps, with
/// retry budget 0 (a fault on the path abandons the stream). Returns
/// `(timeouts, faults, repairs)`.
fn corridor_flap_run(seed: u64, penalty_box: bool) -> (u64, u64, u64) {
    let root = DetRng::new(seed);
    let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
    let flappy = topo.edge_between(1, 2).expect("grid edge 1-2");
    let mut plan = FaultPlan::new().with_penalty(if penalty_box {
        PenaltyConfig::default()
    } else {
        PenaltyConfig::off()
    });
    for (fail_ms, repair_ms) in [(20, 40), (80, 100), (140, 160)] {
        plan = plan
            .with_event(
                SimDuration::from_millis(fail_ms),
                FaultKind::Fail { edge: flappy },
            )
            .with_event(
                SimDuration::from_millis(repair_ms),
                FaultKind::Repair {
                    edge: flappy,
                    profile: None,
                },
            );
    }
    let config = NetConfig {
        // A timeout far above every delivery time: with budget 0 a
        // fault on the path is the only way a stream can be abandoned.
        request_timeout: Some(SimDuration::from_secs(20)),
        faults: Some(plan),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, seed, config, ModelCache::new());
    // Three requests for the corridor pair, issued while the edge is
    // up: at 0 ms, 60 ms, and 120 ms — each 20 ms before the next
    // fail, far below any delivery latency.
    let mut requests = vec![net.request_entanglement(0, 3, 0.6)];
    net.run_for(SimDuration::from_millis(60));
    requests.push(net.request_entanglement(0, 3, 0.6));
    net.run_for(SimDuration::from_millis(60));
    requests.push(net.request_entanglement(0, 3, 0.6));
    net.run_for(SimDuration::from_secs(25));
    for r in requests {
        net.cancel_request(r);
    }
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "edge {e}: load released");
    }
    (net.timeouts(), net.faults(), net.repairs())
}

/// The acceptance criterion: pricing recent failures into planning
/// yields strictly fewer timeouts than the same fault schedule with
/// the box disabled, per seed. Without the box, every request plans
/// the unique 3-hop corridor and the next flap kills it; with it, the
/// first casualty's penalty makes requests issued after a flap pay
/// the detour up front and complete.
#[test]
fn penalty_box_times_out_strictly_less_per_seed() {
    for seed in [1, 2, 3] {
        let (with_box, faults_on, repairs_on) = corridor_flap_run(seed, true);
        let (without, faults_off, repairs_off) = corridor_flap_run(seed, false);
        assert_eq!(
            (faults_on, repairs_on),
            (3, 3),
            "seed {seed}: the scheduled flaps must all fire"
        );
        assert_eq!((faults_off, repairs_off), (3, 3));
        assert_eq!(
            with_box, 1,
            "seed {seed}: only the first request (issued before any \
             penalty exists) may be lost with the box on"
        );
        assert_eq!(
            without, 3,
            "seed {seed}: every corridor request is lost with the box off"
        );
        assert!(
            with_box < without,
            "seed {seed}: the penalty box must strictly reduce timeouts \
             ({with_box} vs {without})"
        );
    }
}

/// The surcharge decays: immediately after a failure the edge is
/// priced up, and a few half-lives later the penalty has decayed to a
/// fraction of the surcharge (the edge is re-admitted gradually, not
/// by a cliff).
#[test]
fn penalties_decay_between_observations() {
    let topo = Topology::grid(3, 3, |i| lab(50 + i as u64));
    let edge = topo.edge_between(0, 1).expect("grid edge 0-1");
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::Fail { edge })
        .with_event(
            SimDuration::from_millis(2),
            FaultKind::Repair {
                edge,
                profile: None,
            },
        );
    let mut net = with_faults(topo, 5, plan);
    assert_eq!(net.penalty(edge), 0.0, "no penalty before the failure");
    net.run_for(SimDuration::from_millis(5));
    let fresh = net.penalty(edge);
    let surcharge = PenaltyConfig::default().surcharge;
    assert!(
        fresh > 0.9 * surcharge && fresh <= surcharge,
        "one bump, barely decayed: {fresh}"
    );
    // Four half-lives later the price has decayed ~16×.
    net.run_for(PenaltyConfig::default().half_life * 4);
    let later = net.penalty(edge);
    assert!(
        later < fresh / 8.0 && later > 0.0,
        "the surcharge must decay exponentially ({fresh} -> {later})"
    );
}

// ---- heterogeneous repair profiles ----------------------------------

/// Diamond with a short arm (0-1-4) and a long arm (0-2-3-4), all
/// clean: hop-count planning prefers the short arm.
fn clean_diamond() -> Topology {
    let mut t = Topology::new();
    for _ in 0..5 {
        t.add_node();
    }
    t.connect(0, 1, lab(10));
    t.connect(1, 4, lab(11));
    t.connect(0, 2, lab(12));
    t.connect(2, 3, lab(13));
    t.connect(3, 4, lab(14));
    t
}

/// A network over `topo` subjected to `plan`, otherwise at defaults.
fn with_faults(topo: Topology, seed: u64, plan: FaultPlan) -> Network {
    let faults = Some(plan);
    let config = NetConfig {
        faults,
        ..NetConfig::default()
    };
    Network::with_config(topo, seed, config, ModelCache::new())
}

/// The clean diamond with a 30 s timeout and retry budget 2, whose
/// short arm's edge 0 fails at 2 ms and is repaired at 4 ms, and whose
/// long arm's edge 2 fails for good at 10 ms; no penalty box.
fn fail_repair_fail(seed: u64) -> Network {
    let at = SimDuration::from_millis;
    let plan = FaultPlan::new()
        .with_penalty(PenaltyConfig::off())
        .with_event(at(2), FaultKind::Fail { edge: 0 })
        .with_event(
            at(4),
            FaultKind::Repair {
                edge: 0,
                profile: None,
            },
        )
        .with_event(at(10), FaultKind::Fail { edge: 2 });
    let config = NetConfig {
        request_timeout: Some(SimDuration::from_secs(30)),
        retries: 2,
        faults: Some(plan),
        ..NetConfig::default()
    };
    Network::with_config(clean_diamond(), seed, config, ModelCache::new())
}

/// An edge repaired under a degraded profile comes back *worse than
/// it left*: its new FEU ceiling sits below Fmin 0.6, so the planner
/// routes around an edge that is nominally up — and the edge still
/// carries its decayed penalty price.
#[test]
fn degraded_repair_profile_steers_planning_away() {
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::Fail { edge: 0 })
        .with_event(
            SimDuration::from_millis(2),
            FaultKind::Repair {
                edge: 0,
                profile: Some(Box::new(noisy_lab(99))),
            },
        );
    let mut net = with_faults(clean_diamond(), 7, plan);
    assert_eq!(
        net.plan_route(0, 4, 0.6)
            .expect("clean diamond serves")
            .nodes,
        vec![0, 1, 4],
        "hop count prefers the short arm before any fault"
    );
    net.run_for(SimDuration::from_millis(5));
    assert_eq!(net.faults(), 1);
    assert_eq!(net.repairs(), 1);
    assert!(net.topology().edge_up(0), "the edge is up again");
    assert_eq!(
        net.estimators().len(),
        2,
        "new hardware on the repaired edge gets an FEU of its own"
    );
    assert!(
        net.penalty(0) > 0.0,
        "repair must not clear the penalty box"
    );
    assert_eq!(
        net.plan_route(0, 4, 0.6)
            .expect("the long arm serves")
            .nodes,
        vec![0, 2, 3, 4],
        "the degraded ceiling bars the repaired edge at Fmin 0.6"
    );
    // A request at Fmin 0.6 delivers over the long arm.
    net.request_entanglement(0, 4, 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(60))
        .expect("the long arm must deliver");
    assert_eq!(out.path, vec![0, 2, 3, 4]);
}

/// A repaired link comes back idle, so it parks at its first MHP cycle
/// like any other idle link — and a CREATE re-routed onto it restarts
/// its clock. The short arm's edge 0 fails under the request (re-route
/// onto the long arm) and is repaired; the long arm's edge 2 then
/// fails for good, so the second re-route can only ride the rebuilt,
/// parked edge 0.
#[test]
fn repaired_link_parks_until_a_rerouted_create_resumes_it() {
    let mut net = fail_repair_fail(11);
    let at = SimDuration::from_millis;
    net.request_entanglement(0, 4, 0.6);
    net.run_for(at(8));
    assert_eq!((net.faults(), net.repairs(), net.reroutes()), (1, 1, 1));
    let rebuilt = net.link(0);
    assert_eq!(rebuilt.next_event_time(), None, "the repaired link parked");
    assert_eq!(rebuilt.events_fired(), 1, "after its one aligned cycle");
    assert!(rebuilt.cycles_elided() > 0, "and has been idle since");

    let out = net
        .run_until_outcome(SimDuration::from_secs(20))
        .expect("the short arm delivers once it is the only route");
    assert_eq!(net.reroutes(), 2);
    assert_eq!(out.path, vec![0, 1, 4], "re-routed over the repaired edge");
    assert!(
        net.link(0).events_fired() > 1,
        "the re-routed CREATE resumed the parked link"
    );
}

/// A link rebuilt after a repair is handed the FEU handle its
/// predecessor held, so it — and the re-route the failure caused, and
/// the CREATE it finally serves — adds no model to the network's table.
#[test]
fn rebuilt_link_derives_nothing_again() {
    let mut net = fail_repair_fail(11);
    let at = SimDuration::from_millis;
    net.request_entanglement(0, 4, 0.6);
    net.run_for(at(1));
    let table = net.estimators()[0].models().clone();
    let models = table.len();
    assert!(models > 0, "the planner and the first CREATE derived");

    net.run_for(at(7));
    assert_eq!((net.faults(), net.repairs(), net.reroutes()), (1, 1, 1));
    assert_eq!(net.estimators().len(), 1, "same hardware, same FEU");
    assert_eq!(table.len(), models, "the rebuild built no model");

    let out = net
        .run_until_outcome(SimDuration::from_secs(20))
        .expect("the short arm delivers once it is the only route");
    assert_eq!(out.path, vec![0, 1, 4], "served by the rebuilt link");
    assert_eq!(table.len(), models, "nor did serving on it");
}

/// Node churn: `NodeDown` fails every incident edge, `NodeUp` repairs
/// them; a request issued while the hub of a diamond is down routes
/// around it.
#[test]
fn node_churn_fails_and_repairs_incident_edges() {
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::NodeDown { node: 1 })
        .with_event(SimDuration::from_secs(2), FaultKind::NodeUp { node: 1 });
    let mut net = with_faults(clean_diamond(), 3, plan);
    net.run_for(SimDuration::from_millis(10));
    assert_eq!(net.faults(), 2, "both edges at node 1 fail");
    assert!(!net.topology().edge_up(0) && !net.topology().edge_up(1));
    assert_eq!(
        net.plan_route(0, 4, 0.6).expect("long arm").nodes,
        vec![0, 2, 3, 4],
        "planning routes around the downed node"
    );
    net.run_for(SimDuration::from_secs(3));
    assert_eq!(net.repairs(), 2, "NodeUp repairs both edges");
    assert!(net.topology().edge_up(0) && net.topology().edge_up(1));
}

/// Node churn naming a node the topology does not have is a no-op:
/// the run goes on past it, faulting and repairing nothing.
#[test]
fn node_churn_on_an_unknown_node_is_a_no_op() {
    let plan = FaultPlan::new()
        .with_event(SimDuration::from_millis(1), FaultKind::NodeDown { node: 5 })
        .with_event(SimDuration::from_millis(2), FaultKind::NodeUp { node: 5 })
        .with_event(
            SimDuration::from_millis(3),
            FaultKind::NodeDown { node: usize::MAX },
        );
    let mut net = with_faults(clean_diamond(), 3, plan);
    net.run_for(SimDuration::from_millis(10));
    assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(10));
    assert_eq!((net.faults(), net.repairs()), (0, 0));
    assert!((0..5).all(|e| net.topology().edge_up(e)));
    assert_eq!(
        net.plan_route(0, 4, 0.6).expect("short arm").nodes,
        vec![0, 1, 4]
    );
}

// ---- retry-budget exhaustion under flapping (satellite) -------------

/// A single-edge stream whose link flaps faster than it can deliver:
/// whatever the interleaving of fails, repairs, reissues, and backoff,
/// the stream lands in **exactly one** of completed/abandoned, and
/// every reservation is released — across seeds and retry budgets.
/// Either ending is on the record: every counted abandon — the
/// no-route-at-reissue ones included — has its `abandon` span, so the
/// chrome trace closes the request's `B` with exactly one `E`.
#[test]
fn flapping_stream_completes_or_abandons_exactly_once() {
    for seed in 0..6u64 {
        for retries in [0u32, 2, 5] {
            let topo = Topology::chain(2, |_| lab(30 + seed));
            // Up-dwells well below the one-hop delivery latency
            // (~100 ms): most attempts are cut down mid-flight, and a
            // reissue that lands while the edge is down finds no
            // route at all.
            let plan = FaultPlan::new().with_flapping(Flapping {
                edge: 0,
                mean_up: SimDuration::from_millis(40),
                mean_down: SimDuration::from_millis(10),
                cycles: 12,
                degrade: None,
            });
            let config = NetConfig {
                telemetry: TelemetryConfig::all(),
                retries,
                request_timeout: Some(SimDuration::from_millis(400)),
                faults: Some(plan),
                ..NetConfig::default()
            };
            let mut net = Network::with_config(topo, seed, config, ModelCache::new());
            let request = net.request_entanglement(0, 1, 0.6);
            let mut delivered = 0u64;
            let deadline = net.now() + SimDuration::from_secs(3);
            loop {
                let left = deadline.saturating_since(net.now());
                if left == SimDuration::ZERO {
                    break;
                }
                match net.run_until_outcome(left) {
                    Some(out) => {
                        assert_eq!(out.request, request);
                        delivered += 1;
                    }
                    None => break,
                }
            }
            assert_eq!(
                delivered + net.timeouts(),
                1,
                "seed {seed} retries {retries}: the stream must land in \
                 exactly one of completed/abandoned \
                 ({delivered} delivered, {} abandoned)",
                net.timeouts()
            );
            assert!(
                net.reroutes() <= u64::from(retries),
                "seed {seed}: reroutes within budget"
            );
            let spans = net.telemetry().expect("telemetry on").spans();
            let abandons = spans.iter().filter(|s| s.stage.name() == "abandon");
            assert_eq!(
                abandons.count() as u64,
                net.timeouts(),
                "seed {seed} retries {retries}: every abandon is on the record"
            );
            let json = chrome_trace_json(spans);
            assert_eq!(
                (
                    json.matches("\"ph\":\"B\"").count(),
                    json.matches("\"ph\":\"E\"").count()
                ),
                (1, 1),
                "seed {seed} retries {retries}: the request's span must close"
            );
            net.cancel_request(request);
            assert_eq!(net.edge_load(0), 0, "seed {seed}: load released");
            for n in 0..2 {
                let reserved = net.reservations_at(n).iter().any(|r| r.0 == request);
                assert!(!reserved, "seed {seed}: node {n} still reserved");
            }
        }
    }
}

// ---- zero-completion SLO accounting (satellite) ---------------------

/// A class that completes nothing — its Fmin sits above the link's
/// ceiling, so every admitted request UNSUPPs and abandons — reports
/// 0.0 SLO attainment, not NaN, and the sweep's service CSV carries
/// no NaN anywhere.
#[test]
fn zero_completion_class_reports_zero_attainment_not_nan() {
    let classes = vec![UserClass::new("doomed", RequestKind::Md, vec![(0, 1)])
        .with_fmin(0.95)
        .with_latency_slo(SimDuration::from_millis(100))
        .with_fidelity_slo(0.9)];
    let spec = ScenarioSpec::lab_chain("zero-completions", 2)
        .with_max_time(SimDuration::from_millis(400))
        .with_request_timeout(SimDuration::from_millis(80))
        .with_workload(Workload::poisson(200.0, classes));
    let record = run_one(&spec, 13);
    let doomed = &record.classes[0];
    assert!(doomed.offered > 0, "the stream must actually offer load");
    assert_eq!(doomed.completed, 0, "nothing can complete at Fmin 0.95");
    assert!(doomed.abandoned > 0, "the timeout must abandon requests");
    assert_eq!(doomed.slo_latency_attainment(), 0.0);
    assert_eq!(doomed.slo_fidelity_attainment(), 0.0);
    assert!(
        doomed.slo_latency_attainment().is_finite(),
        "attainment must never be NaN"
    );
    let report = sweep(std::slice::from_ref(&spec), &[13, 14], 2);
    let csv = report.service_csv();
    assert!(csv.contains("doomed"), "the class must appear in the CSV");
    assert!(!csv.contains("NaN"), "service CSV must be NaN-free:\n{csv}");
}

// ---- requests issued across a cut -----------------------------------

/// A 3-node Lab chain whose two edges flap (30 ms mean up and down), one
/// retry, a 30 ms timeout: many of its rounds are issued while a fault
/// has cut the only path.
fn flapping_chain_spec() -> ScenarioSpec {
    let ms = SimDuration::from_millis;
    let spec = ScenarioSpec::lab_chain("c", 3)
        .with_rounds(20)
        .with_max_time(ms(40))
        .with_retries(1)
        .with_request_timeout(ms(30));
    let plan = FaultPlan::flapping_everywhere(spec.topology.edge_count(), ms(30), ms(30), 4);
    spec.with_faults(plan)
}

/// A round issued while faults cut its pair waits one control delay
/// for a re-plan and is abandoned there if the cut holds — it does not
/// panic — so every round still ends as a success or a timeout, and the
/// run stays a pure function of its seed.
#[test]
fn a_round_issued_across_a_cut_ends_as_a_timeout() {
    for seed in 1..=3 {
        let r = run_one(&flapping_chain_spec(), seed);
        assert_eq!(r.rounds, 20, "seed {seed}");
        assert_eq!(r.rounds, r.successes + r.timeouts, "seed {seed}");
        assert!(r.timeouts > 0 && r.faults > 0, "seed {seed}: the cut bites");
        let again = run_one(&flapping_chain_spec(), seed);
        assert_eq!(fingerprint(&r), fingerprint(&again), "seed {seed}");
    }
}

/// Poisson arrivals for `0 → 2` on a 3-node chain whose edge 1 is down
/// from 5 ms to 50 ms, no retries: arrivals in that window find no
/// route. Each is admitted, opens its span, and is abandoned one
/// control delay later — a timeout, not a re-route, since no attempt
/// ran — while the workload's two conservation identities hold.
#[test]
fn an_arrival_across_a_cut_is_abandoned_with_its_spans() {
    let run = |seed: u64| {
        let topo = Topology::chain(3, |i| lab(40 + i as u64));
        let plan = FaultPlan::new()
            .with_event(SimDuration::from_millis(5), FaultKind::Fail { edge: 1 })
            .with_event(
                SimDuration::from_millis(50),
                FaultKind::Repair {
                    edge: 1,
                    profile: None,
                },
            );
        let class = UserClass::new("nl", RequestKind::Nl, vec![(0, 2)])
            .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 4 });
        let config = NetConfig {
            telemetry: TelemetryConfig::all(),
            faults: Some(plan),
            workload: Some(Workload::poisson(200.0, vec![class])),
            ..NetConfig::default()
        };
        let mut net = Network::with_config(topo, seed, config, ModelCache::new());
        net.run_for(SimDuration::from_secs(1));
        net
    };
    let net = run(3);
    let stats = net.workload_stats().expect("armed");
    let c = &stats.classes[0];
    assert_eq!(c.offered, c.admitted + c.dropped + c.queued);
    assert_eq!(c.admitted, c.completed + c.abandoned + c.in_flight);
    assert_eq!(net.timeouts(), c.abandoned);
    assert_eq!(net.reroutes(), 0, "no attempt was re-planned");

    let spans = net.telemetry().expect("telemetry on").spans();
    let count = |request: u64, stage: &str| {
        let of = |s: &&SpanEvent| s.request == request && s.stage.name() == stage;
        spans.iter().filter(of).count()
    };
    let ids: Vec<u64> = (0..c.admitted).collect();
    assert!(ids.iter().all(|&id| count(id, "issue") == 1));
    let abandons: usize = ids.iter().map(|&id| count(id, "abandon")).sum();
    assert_eq!(abandons as u64, c.abandoned);
    let cut_off = ids
        .iter()
        .filter(|&&id| count(id, "abandon") == 1 && count(id, "plan") == 0)
        .count();
    assert!(cut_off > 0, "some arrival found the pair cut");
    assert!(c.completed > 0, "arrivals after the repair deliver");

    let again = run(3);
    let tally = |net: &Network| {
        let c = &net.workload_stats().expect("armed").classes[0];
        let counts = (c.offered, c.admitted, c.completed, c.abandoned, c.in_flight);
        (counts, net.events_fired(), net.timeouts())
    };
    assert_eq!(tally(&net), tally(&again));
}

/// A request pinned to a path across a downed edge gets no service
/// from the downed link: like a request issued across a cut, it parks
/// for one control delay, finds no route at its re-plan, and is
/// abandoned (a timeout) without a pair crossing the edge.
#[test]
fn a_pinned_path_across_a_downed_edge_never_delivers() {
    let topo = Topology::chain(3, |i| lab(70 + i as u64));
    let plan =
        FaultPlan::new().with_event(SimDuration::from_millis(1), FaultKind::Fail { edge: 0 });
    let mut net = with_faults(topo, 5, plan);
    net.run_for(SimDuration::from_millis(2));
    assert!(!net.topology().edge_up(0));
    net.request_on_path(&[0, 1, 2], 0.6);
    let outcome = net.run_until_outcome(SimDuration::from_secs(30));
    assert!(outcome.is_none(), "a pair crossed a downed link");
    assert_eq!(net.pairs_delivered(0), 0);
    assert_eq!(net.timeouts(), 1);
}
