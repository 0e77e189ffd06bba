//! Integration tests for the route-metric engine and concurrent
//! multi-path requests: metric-dependent path choice on a diamond,
//! edge-disjoint splitting of same-pair requests, deterministic
//! contention when concurrent requests share an edge, and a bit-for-bit
//! digest of every route and edge price on a mixed-hardware grid.

use qlink::net::sweep::run_one;
use qlink::net::{PathRole, SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// A Lab link degraded far below spec: poor photon
/// indistinguishability, frequent double emissions, triple the phase
/// noise, and a lossy electron–carbon gate. Its FEU keep-fidelity
/// profile (~0.46) sits below the *product* of two clean Lab links
/// (~0.72² ≈ 0.52), which is exactly the regime where fidelity-aware
/// routing must prefer more, cleaner hops.
fn noisy_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.optics.visibility = 0.4;
    cfg.scenario.optics.two_photon_prob = 0.2;
    cfg.scenario.optics.phase_sigma_rad *= 3.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 0.9;
    cfg
}

/// Diamond with a short noisy arm and a long clean arm:
///
/// ```text
///     1            short arm 0-1-4: two noisy hops
///    / \
///   0   4
///    \ /
///     2---3        long arm 0-2-3-4: three clean hops
/// ```
fn short_noisy_long_clean_diamond() -> Topology {
    let mut t = Topology::new();
    for _ in 0..5 {
        t.add_node();
    }
    t.connect(0, 1, noisy_lab(10));
    t.connect(1, 4, noisy_lab(11));
    t.connect(0, 2, lab(12));
    t.connect(2, 3, lab(13));
    t.connect(3, 4, lab(14));
    t
}

/// The best route 0 → 4 under `metric` at `fmin`, if any serves.
fn best(planner: &RoutePlanner, topo: &Topology, metric: RouteMetric, fmin: f64) -> Option<Route> {
    let ctx = PlanContext {
        metric,
        fmin,
        ..PlanContext::new(0, 4)
    };
    planner.routes(topo, &ctx).into_iter().next()
}

#[test]
fn fidelity_product_prefers_the_long_clean_arm() {
    let topo = short_noisy_long_clean_diamond();

    // The planner's per-edge profiles are where the decision comes
    // from: the degraded links must profile well below the clean ones.
    let planner = RoutePlanner::new(&topo);
    let noisy_f = planner.profile(0).fidelity;
    let clean_f = planner.profile(2).fidelity;
    assert!(
        noisy_f < clean_f * clean_f,
        "noisy {noisy_f} must be below clean² {}",
        clean_f * clean_f
    );

    // Hop count routes through the short noisy arm...
    let hops = best(&planner, &topo, RouteMetric::Hops, 0.4).expect("connected");
    assert_eq!(hops.nodes, vec![0, 1, 4]);

    // ...while the fidelity product pays the extra hop for the clean
    // links: 0.72³ ≈ 0.37 beats 0.46² ≈ 0.21.
    let fid = best(&planner, &topo, RouteMetric::Fidelity, 0.4).expect("connected");
    assert_eq!(fid.nodes, vec![0, 2, 3, 4]);
    assert!(fid.cost > 0.0);

    // The same choice drives Network::request_entanglement.
    let config = NetConfig {
        metric: RouteMetric::Fidelity,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, 9, config, ModelCache::new());
    let route = net.plan_route(0, 4, 0.4).expect("route exists");
    assert_eq!(route.nodes, vec![0, 2, 3, 4]);
}

#[test]
fn fmin_filter_drops_edges_that_would_unsupp() {
    let topo = short_noisy_long_clean_diamond();
    let planner = RoutePlanner::new(&topo);
    let noisy_ceiling = planner.profile(0).fidelity_ceiling;
    let clean_ceiling = planner.profile(2).fidelity_ceiling;
    assert!(noisy_ceiling < 0.5 && clean_ceiling > 0.6);

    // At Fmin 0.6 the noisy arm cannot serve at all: the planner's
    // feasibility filter removes its edges for *every* metric, so even
    // hop-count routing falls through to the clean arm.
    for metric in [RouteMetric::Hops, RouteMetric::Latency] {
        let route = best(&planner, &topo, metric, 0.6).expect("clean arm serves 0.6");
        assert_eq!(route.nodes, vec![0, 2, 3, 4], "{}", metric.name());
    }

    // Above every ceiling there is no route under a profile metric.
    assert!(best(&planner, &topo, RouteMetric::Fidelity, 0.95).is_none());

    // The Network's default hop-count routing honours the same filter:
    // a CREATE the noisy arm would UNSUPP must never be routed there.
    let mut net = Network::new(topo, 1);
    let route = net.plan_route(0, 4, 0.6).expect("the clean arm serves");
    assert_eq!(route.nodes, vec![0, 2, 3, 4]);
}

#[test]
fn concurrent_same_pair_requests_split_over_disjoint_paths() {
    // Symmetric diamond: two clean 2-hop arms between 0 and 3.
    let mut topo = Topology::new();
    for _ in 0..4 {
        topo.add_node();
    }
    topo.connect(0, 1, lab(21));
    topo.connect(1, 3, lab(22));
    topo.connect(0, 2, lab(23));
    topo.connect(2, 3, lab(24));

    let mut net = Network::new(topo, 5);
    let requests = net.request_entanglement_multipath(0, 3, 0.6, 2);
    assert_eq!(requests.len(), 2);

    // Both arms reserved, no edge shared: every edge carries exactly
    // one request, and the shared ends carry both.
    for edge in 0..4 {
        assert_eq!(net.edge_load(edge), 1, "edge {edge}");
    }
    let ids = |node| -> Vec<u64> { net.reservations_at(node).iter().map(|r| r.0).collect() };
    assert_eq!(ids(0), requests);
    assert_eq!(net.reservations_at(1).len(), 1);
    assert_eq!(net.reservations_at(2).len(), 1);

    let first = net
        .run_until_outcome(SimDuration::from_secs(60))
        .expect("first stream delivers");
    let second = net
        .run_until_outcome(SimDuration::from_secs(60))
        .expect("second stream delivers");

    let mut paths = [first.path.clone(), second.path.clone()];
    paths.sort();
    assert_eq!(paths[0], vec![0, 1, 3]);
    assert_eq!(paths[1], vec![0, 2, 3]);
    for out in [&first, &second] {
        assert_eq!(out.swaps, 1);
        assert!(out.end_to_end_fidelity > 0.25);
        assert!(out.latency > SimDuration::ZERO);
    }
    for edge in 0..4 {
        assert_eq!(net.edge_load(edge), 0, "load released on completion");
    }
}

#[test]
fn multipath_widens_past_equal_length_sharing_routes() {
    // Three simple paths 0 -> 5, by cost: A = 0-1-2-5 (3 hops),
    // B = 0-1-3-5 (3 hops, shares edge 0-1 with A), C = 0-4-6-7-5
    // (4 hops, disjoint from A). The first two candidates are A and B,
    // so a planner that only looks at `streams` candidates would pile
    // both streams onto A; the widening search must find {A, C}.
    let mut t = Topology::new();
    for _ in 0..8 {
        t.add_node();
    }
    t.connect(0, 1, lab(40)); // e0, shared by A and B
    t.connect(1, 2, lab(41)); // e1, A
    t.connect(2, 5, lab(42)); // e2, A
    t.connect(1, 3, lab(43)); // e3, B only
    t.connect(3, 5, lab(44)); // e4, B only
    t.connect(0, 4, lab(45)); // e5, C
    t.connect(4, 6, lab(46)); // e6, C
    t.connect(6, 7, lab(47)); // e7, C
    t.connect(7, 5, lab(48)); // e8, C

    let mut net = Network::new(t, 3);
    let requests = net.request_entanglement_multipath(0, 5, 0.6, 2);
    assert_eq!(requests.len(), 2);
    // A and C are reserved once each; B's exclusive edges stay idle.
    for e in [0, 1, 2, 5, 6, 7, 8] {
        assert_eq!(net.edge_load(e), 1, "edge {e} carries one stream");
    }
    for e in [3, 4] {
        assert_eq!(net.edge_load(e), 0, "B's edge {e} must stay unused");
    }
    for r in requests {
        net.cancel_request(r);
    }
    assert!((0..9).all(|e| net.edge_load(e) == 0));
}

#[test]
fn shared_edge_contention_completes_deterministically() {
    // Two concurrent requests between the same ends of a 3-node chain:
    // every edge is shared, so each link's EGP serves two outstanding
    // CREATEs and the SWAP-ASAP repeater interleaves two reservations.
    let run = || {
        let topo = Topology::chain(3, |i| lab(31 + i as u64));
        let mut net = Network::new(topo, 77);
        let requests = net.request_entanglement_multipath(0, 2, 0.6, 2);
        assert_eq!(requests.len(), 2);
        assert_eq!(net.edge_load(0), 2, "both requests share edge 0");
        assert_eq!(net.edge_load(1), 2);
        let on_edge_0 = |&(_, role): &(u64, PathRole)| match role {
            PathRole::End { edge, .. } => edge == 0,
            PathRole::Repeater { left, right } => left == 0 || right == 0,
        };
        let roles = net.reservations_at(1);
        assert_eq!(roles.iter().filter(|r| on_edge_0(r)).count(), 2);

        let mut outs = Vec::new();
        for _ in 0..2 {
            outs.push(
                net.run_until_outcome(SimDuration::from_secs(120))
                    .expect("contended request still completes"),
            );
        }
        assert_eq!(net.edge_load(0), 0);
        assert_eq!(net.edge_load(1), 0);
        outs
    };

    let a = run();
    let b = run();
    assert_eq!(a.len(), 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.request, y.request);
        assert_eq!(x.path, vec![0, 1, 2]);
        assert_eq!(
            x.end_to_end_fidelity.to_bits(),
            y.end_to_end_fidelity.to_bits(),
            "same seed, same fidelity, bit for bit"
        );
        assert_eq!(x.latency, y.latency);
        assert!(x.end_to_end_fidelity > 0.25);
    }
    // The two deliveries are distinct events at distinct times.
    assert_ne!(a[0].delivered_at, a[1].delivered_at);
}

/// An explicit path that revisits a node is refused up front: a
/// request reserves each path node once.
#[test]
#[should_panic(expected = "path [0, 1, 2, 1] visits node 1 twice")]
fn request_on_path_rejects_a_path_that_visits_a_node_twice() {
    let mut net = Network::new(Topology::chain(3, |i| lab(60 + i as u64)), 5);
    net.request_on_path(&[0, 1, 2, 1], 0.6);
}

#[test]
fn infeasible_fmin_times_out_instead_of_panicking() {
    // An Fmin above every FEU ceiling must degrade exactly like the
    // link layer's own UNSUPP path: best-effort route reserved, no
    // delivery, graceful timeout — never a panic (a sweep worker
    // panicking would abort the whole matrix).
    let mut net = Network::new(Topology::chain(2, |_| lab(61)), 61);
    let request = net.request_entanglement(0, 1, 0.95);
    let out = net.run_until_outcome(SimDuration::from_millis(10));
    assert!(out.is_none(), "unachievable Fmin must yield None");
    net.cancel_request(request);
    assert_eq!(net.edge_load(0), 0);

    let mut spec = ScenarioSpec::lab_chain("unsupp", 3).with_max_time(SimDuration::from_millis(10));
    spec.fmin = 0.95;
    let record = run_one(&spec, 1);
    assert_eq!(record.successes, 0);
    assert_eq!(record.rounds, 1);
}

#[test]
fn sweep_streams_and_metric_are_deterministic() {
    // The sweep driver carries metric + streams through run_one; a
    // 2-stream round on a chain shares every edge and still merges
    // deterministically.
    let spec = ScenarioSpec::lab_chain("contended", 3)
        .with_max_time(SimDuration::from_secs(120))
        .with_metric(RouteMetric::Fidelity)
        .with_streams(2);
    let a = run_one(&spec, 3);
    let b = run_one(&spec, 3);
    assert_eq!(a.rounds, 2, "one round x two streams");
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.events, b.events);
    assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
    assert!(a.successes >= 1, "at least one stream completes");
}

// ---- derived physics: one table per network ---------------------------

use qlink::egp::feu::FidelityEstimator;
use qlink::wire::fields::RequestType;

fn nl_create(fmin: f64) -> GeneratedRequest {
    GeneratedRequest {
        kind: RequestKind::Nl,
        pairs: 1,
        origin: 0,
        fmin,
        tmax_us: 0,
    }
}

/// The set-up the `grid16_sparse` benchmark workload times: 480 Lab
/// links on equal hardware, twelve two-hop requests, the planner built
/// on the first of them. The network derives each `(params, α)` model
/// once between all of them — as many as one standalone link and a
/// one-edge planner need for the same `(Fmin, type)`, not that many
/// per link and per edge.
#[test]
fn a_homogeneous_grid_builds_each_model_once() {
    let config = NetConfig {
        metric: RouteMetric::LoadLatency,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(
        Topology::grid(16, 16, |i| lab(i as u64)),
        5,
        config,
        ModelCache::new(),
    );
    assert!(
        net.estimators()[0].models().is_empty(),
        "construction derives nothing"
    );
    for row in [1, 5, 9, 13] {
        for col in [1, 6, 11] {
            net.request_entanglement(row * 16 + col, row * 16 + col + 2, 0.6);
        }
    }
    // Long enough for every second-hop CREATE and every peer's ADD.
    net.run_for(SimDuration::from_millis(5));
    assert_eq!(net.estimators().len(), 1, "one hardware profile, one FEU");

    let cfg = lab(1);
    let feu = FidelityEstimator::new(cfg.scenario.clone());
    let mut link = LinkSimulation::with_estimator(cfg.clone(), feu.clone());
    link.submit(0, nl_create(0.6));
    link.run_for(SimDuration::from_millis(5));
    let _planner = RoutePlanner::with_models(&Topology::chain(2, |_| cfg.clone()), feu.models());

    let table = net.estimators()[0].models();
    assert_eq!(table.len(), feu.models().len());
}

/// One QL2020 edge among Lab edges: the network keeps the two hardware
/// profiles apart (two FEUs over its one table of models, which is
/// keyed by the parameters as well as α), so what it derives for the
/// QL2020 edge — asked *after* Lab at the very same α values — is what
/// a standalone QL2020 link and planner derive.
#[test]
fn a_mixed_grid_keeps_its_hardware_profiles_apart() {
    let ql = LinkConfig::ql2020(WorkloadSpec::none(), 9);
    let topo = Topology::grid(2, 2, |i| if i == 3 { ql.clone() } else { lab(i as u64) });
    let mut net = Network::new(topo.clone(), 3);
    // 0 → 3 must cross the QL2020 edge (1-3) or a Lab one (2-3); ask
    // for both corners so both kinds of link see a CREATE.
    net.request_entanglement(0, 3, 0.5);
    net.request_entanglement(1, 3, 0.5);
    net.run_for(SimDuration::from_millis(5));
    assert_eq!(net.estimators().len(), 2);
    assert_eq!(*net.estimators()[1].params(), ql.scenario);

    let mut on_net = net.estimators()[1].clone();
    let mut alone = FidelityEstimator::new(ql.scenario.clone());
    let choice = alone.choose_alpha(0.5, RequestType::Keep);
    assert!(choice.is_some());
    assert_eq!(on_net.choose_alpha(0.5, RequestType::Keep), choice);
    assert_ne!(
        net.estimators()[0]
            .clone()
            .choose_alpha(0.5, RequestType::Keep),
        choice,
        "Lab answers differently"
    );

    let shared = RoutePlanner::with_models(&topo, on_net.models());
    let own = RoutePlanner::new(&Topology::chain(2, |_| ql.clone()));
    let (got, want) = (shared.profile(3), own.profile(0));
    assert_eq!(got.success_probability, want.success_probability);
    assert_eq!(got.fidelity_ceiling, want.fidelity_ceiling);
    assert_eq!(got.fidelity, want.fidelity);
    assert_eq!(got.expected_latency, want.expected_latency);
    assert_ne!(
        got.success_probability,
        shared.profile(0).success_probability
    );
}

/// The handles are `Arc<Mutex<_>>`s, so passing physics around costs
/// the simulators no auto trait: a network (or a link) still moves to
/// a worker thread whole.
#[test]
fn shared_physics_keeps_the_simulators_send() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<Network>();
    send::<LinkSimulation>();
    sync::<LinkSimulation>();
    send::<FidelityEstimator>();
    sync::<FidelityEstimator>();
}

/// FNV-1a over the little-endian bytes of `word`.
fn mix(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Routing, bit for bit: on a 4×4 grid of alternating Lab and QL2020
/// edges (two Lab edges with a 10 s carbon T2), every route of every
/// (metric, policy, loads, exclusions, penalties, fmin, k, pair) cell —
/// its nodes, edges and cost bits — and every edge's price per
/// (metric, policy, load). Threshold purification sits at the median
/// edge fidelity, so it distills about half the edges.
#[test]
fn routing_is_pinned_bit_for_bit() {
    const DIGEST: u64 = 0x78d4_fda2_1062_b3ca;
    let topo = Topology::grid(4, 4, |e| {
        let mut cfg = if e % 2 == 0 {
            lab(e as u64)
        } else {
            LinkConfig::ql2020(WorkloadSpec::none(), e as u64)
        };
        match e {
            5 => cfg.scenario.nv.carbon_t2 = 10.0,
            18 => cfg.scenario.nv.carbon_t2 = 1e-4,
            _ => {}
        }
        cfg
    });
    let planner = RoutePlanner::new(&topo);
    let edges = topo.edge_count();
    let mut fidelities: Vec<f64> = planner.profiles().iter().map(|p| p.fidelity).collect();
    fidelities.sort_by(f64::total_cmp);
    let theta = fidelities[edges / 2];
    let metrics = [
        RouteMetric::Hops,
        RouteMetric::Latency,
        RouteMetric::Fidelity,
        RouteMetric::LoadLatency,
    ];
    let policies = [
        Policy::SwapAsap,
        Policy::LinkPurify,
        Policy::EndToEndPurify,
        Policy::ThresholdPurify { theta },
        Policy::PumpRounds { rounds: 0 },
        Policy::PumpRounds { rounds: 1 },
        Policy::PumpRounds { rounds: 2 },
        Policy::PumpRounds { rounds: 3 },
    ];
    let loads: Vec<u32> = (0..edges as u32).map(|e| e % 4).collect();
    let penalties: Vec<f64> = (0..edges)
        .map(|e| match e {
            9 => f64::INFINITY,
            _ if e % 5 == 0 => 0.25 * (1 + e / 5) as f64,
            _ => 0.0,
        })
        .collect();
    let pairs = [
        (0, 15),
        (15, 0),
        (3, 12),
        (12, 3),
        (0, 5),
        (1, 14),
        (2, 8),
        (4, 7),
        (5, 10),
        (6, 9),
        (11, 13),
        (0, 3),
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for metric in metrics {
        for policy in policies {
            let rules = policy.ruleset();
            for load in 0..3 {
                for p in planner.profiles() {
                    let rounds = rules.edge_program(p.fidelity).rounds;
                    let (fidelity, latency) = p.purified_after(rounds);
                    mix(&mut digest, metric.cost(fidelity, latency, load).to_bits());
                }
            }
            for loads in [&[][..], &loads] {
                for exclude in [&[][..], &[3, 12]] {
                    for penalties in [&[][..], &penalties] {
                        for fmin in [0.0, 0.6] {
                            for k in [1, 4] {
                                for (src, dst) in pairs {
                                    let ctx = PlanContext {
                                        src,
                                        dst,
                                        fmin,
                                        k,
                                        metric,
                                        policy,
                                        loads,
                                        exclude,
                                        penalties,
                                    };
                                    let routes = planner.routes(&topo, &ctx);
                                    mix(&mut digest, routes.len() as u64);
                                    for r in routes {
                                        mix(&mut digest, r.nodes.len() as u64);
                                        r.nodes.iter().for_each(|&v| mix(&mut digest, v as u64));
                                        r.edges.iter().for_each(|&e| mix(&mut digest, e as u64));
                                        mix(&mut digest, r.cost.to_bits());
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(digest, DIGEST, "got {digest:#018x}");
}

/// A link that rejects a CREATE as unsupported does so at the instant
/// the CREATE reaches it, and the network sees the UNSUPP — penalises
/// the edge and fails the attempt, re-routing or abandoning it — at
/// that instant too, not at the link's next wake.
#[test]
fn an_unsupported_create_is_seen_at_its_instant() {
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(
        Topology::chain(2, |_| lab(61)),
        61,
        config,
        ModelCache::new(),
    );
    net.request_entanglement(0, 1, 0.95);
    net.run_for(SimDuration::from_millis(1));
    let spans = net.telemetry().expect("telemetry on").spans();
    let mut unsupported = 0;
    for unsupp in spans {
        let SpanStage::Unsupp { edge } = unsupp.stage else {
            continue;
        };
        let create = spans
            .iter()
            .rfind(|s| {
                s.at <= unsupp.at
                    && s.request == unsupp.request
                    && matches!(s.stage, SpanStage::Create { edge: e, .. } if e == edge)
            })
            .expect("an UNSUPP follows its CREATE");
        assert_eq!(unsupp.at, create.at, "edge {edge}: UNSUPP seen late");
        let failed = spans
            .iter()
            .find(|s| {
                s.request == unsupp.request
                    && s.attempt == unsupp.attempt
                    && matches!(
                        s.stage,
                        SpanStage::Reroute { .. } | SpanStage::Abandon { .. }
                    )
            })
            .expect("an UNSUPP fails its attempt");
        assert_eq!(failed.at, create.at, "edge {edge}: attempt failed late");
        unsupported += 1;
    }
    assert!(unsupported > 0, "the link never refused the CREATE");
}

/// An edge that distills needs two CREATEs, issued back to back. When
/// the link refuses the first, the attempt fails at once: the second is
/// never submitted, the reservation forwarded down the path finds the
/// request gone and submits nothing, and no edge carries a reservation
/// afterwards.
#[test]
fn a_refused_first_create_stops_its_edge_demand() {
    let config = NetConfig {
        policy: Policy::LinkPurify,
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(
        Topology::chain(3, |_| lab(62)),
        62,
        config,
        ModelCache::new(),
    );
    let request = net.request_on_path(&[0, 1, 2], 0.99);
    assert_eq!(net.edge_load(0), 0, "the refusal released the edge");
    net.run_for(SimDuration::from_millis(1));
    let spans = net.telemetry().expect("telemetry on").spans();
    let stages = |pick: fn(&SpanStage) -> bool| {
        spans
            .iter()
            .filter(|s| s.request == request && pick(&s.stage))
            .count()
    };
    assert_eq!(stages(|s| matches!(s, SpanStage::Create { .. })), 1);
    assert_eq!(stages(|s| matches!(s, SpanStage::Unsupp { .. })), 1);
    assert_eq!(stages(|s| matches!(s, SpanStage::Abandon { .. })), 1);
    assert_eq!([net.edge_load(0), net.edge_load(1)], [0, 0]);
}
