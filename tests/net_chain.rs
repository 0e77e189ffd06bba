//! Integration tests for the `qlink-net` network layer: SWAP-ASAP
//! chains on one shared event queue, determinism, and the parallel
//! scenario-sweep driver.

use qlink::net::sweep::run_one;
use qlink::net::{SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn lab_chain(nodes: usize, base_seed: u64) -> Topology {
    Topology::chain(nodes, |i| {
        LinkConfig::lab(WorkloadSpec::none(), base_seed + 1000 * i as u64)
    })
}

#[test]
fn three_node_chain_delivers_end_to_end_on_shared_clock() {
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(lab_chain(3, 71), 7, config, ModelCache::new());
    net.request_entanglement(0, 2, 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("3-node SWAP-ASAP chain delivers within 30 simulated seconds");

    // One repeater → exactly one swap, full path reported.
    assert_eq!(out.path, vec![0, 1, 2]);
    assert_eq!(out.swaps, 1);
    assert_eq!(out.link_fidelities.len(), 2);

    // Swapping and memory decay can only cost fidelity: the composed
    // pair sits at or below the weakest link.
    let min_link = out
        .link_fidelities
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(min_link > 0.5, "links deliver useful pairs: {min_link}");
    assert!(
        out.end_to_end_fidelity <= min_link,
        "end-to-end {} must not exceed min link {min_link}",
        out.end_to_end_fidelity
    );
    assert!(
        out.end_to_end_fidelity > 0.25,
        "{}",
        out.end_to_end_fidelity
    );

    // True simulated latency: positive, and consistent with the clock.
    assert!(out.latency > SimDuration::ZERO);
    assert_eq!(out.delivered_at, SimTime::ZERO + out.latency);

    // The spans are one monotone SimTime stream that interleaves both
    // links' deliveries with control messages — a single shared clock.
    let spans = net.telemetry().expect("telemetry on").spans();
    assert!(!spans.is_empty());
    for w in spans.windows(2) {
        assert!(w[0].at <= w[1].at, "span time went backwards");
    }
    for link in 0..2 {
        assert!(
            net.link(link).events_fired() > 0,
            "link {link} never woke on the shared queue"
        );
    }
    let saw = |stage: SpanStage| spans.iter().any(|s| s.stage == stage);
    assert!(saw(SpanStage::Swap { node: 1 }));
    // The swap's Bell outcome arrived over the control channel.
    assert!(saw(SpanStage::SwapResult { node: 0 }));
}

#[test]
fn identical_seeds_give_bit_identical_outcomes() {
    let run = |()| {
        let mut net = Network::new(lab_chain(3, 71), 7);
        net.request_entanglement(0, 2, 0.6);
        let out = net
            .run_until_outcome(SimDuration::from_secs(30))
            .expect("delivers");
        (
            out.end_to_end_fidelity.to_bits(),
            out.latency,
            out.link_fidelities
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            net.events_fired(),
            (out.frame_z, out.frame_x),
        )
    };
    assert_eq!(
        run(()),
        run(()),
        "same seeds must reproduce bit-identically"
    );

    // And different link seeds diverge.
    let mut other = Network::new(lab_chain(3, 72), 9);
    other.request_entanglement(0, 2, 0.6);
    let out = other
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("delivers");
    assert_ne!(out.end_to_end_fidelity.to_bits(), run(()).0);

    // The scenarios no golden pins, each run twice on one seed.
    for scenario in [
        random_graphs,
        cancel_while_parked,
        sparse_grid,
        timeouts_outlive_their_requests,
    ] {
        assert_eq!(scenario(), scenario(), "same seeds, different run");
    }
}

/// Outcomes in delivery order (f64 by bit pattern), then counters.
type Rows = Vec<(u64, u64, u64, u64)>;

fn outcome_row(o: &EndToEndOutcome) -> (u64, u64, u64, u64) {
    (
        o.request,
        o.end_to_end_fidelity.to_bits(),
        o.latency.as_ps(),
        o.delivered_at.as_ps(),
    )
}

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// Six seeded random connected graphs (a random spanning tree plus a
/// few chords), two cross-traffic requests each, timeouts and one
/// retry armed.
fn random_graphs() -> Rows {
    let mut rng = DetRng::new(0x9a75eed);
    let mut out = Vec::new();
    for case in 0..6u64 {
        let nodes = 5 + rng.below(5) as usize;
        let mut topo = Topology::new();
        for _ in 0..nodes {
            topo.add_node();
        }
        let mut edge_seed = 1000;
        for n in 1..nodes {
            edge_seed += 1;
            topo.connect(rng.below(n as u64) as usize, n, lab(edge_seed));
        }
        for _ in 0..3 {
            let a = rng.below(nodes as u64) as usize;
            let b = rng.below(nodes as u64) as usize;
            if a != b && topo.edge_between(a, b).is_none() {
                edge_seed += 1;
                topo.connect(a, b, lab(edge_seed));
            }
        }
        let config = NetConfig {
            request_timeout: Some(SimDuration::from_secs(2)),
            retries: 1,
            ..NetConfig::default()
        };
        let mut net = Network::with_config(topo, 100 + case, config, ModelCache::new());
        net.request_entanglement(0, nodes - 1, 0.55);
        net.request_entanglement(1, nodes - 1, 0.55);
        for _ in 0..2 {
            if let Some(o) = net.run_until_outcome(SimDuration::from_secs(8)) {
                out.push(outcome_row(&o));
            }
        }
        net.run_for(SimDuration::from_millis(100));
        out.push((net.reroutes(), net.timeouts(), net.events_fired(), case));
    }
    out
}

/// Cancels every request while a failed attempt sits between failure
/// and re-issue: the hollow `Reissue` and the stale timeouts still
/// fire.
fn cancel_while_parked() -> Rows {
    // Control delays stretched to 2 ms, so the re-issue backoff (at
    // least the failed path's one-way control delay, ≥ 3 hops × 2 ms)
    // dwarfs the 1 ms probe step below, and a 25 ms timeout fails
    // corner-to-corner attempts under contention.
    let mut topo = Topology::grid(4, 4, |i| lab(4000 + i as u64));
    for e in 0..topo.edge_count() {
        topo.set_control_delay(e, SimDuration::from_millis(2));
    }
    let config = NetConfig {
        request_timeout: Some(SimDuration::from_millis(25)),
        retries: 3,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, 5, config, ModelCache::new());
    let reqs: Vec<u64> = [(0, 15), (3, 12), (5, 10), (6, 9)]
        .iter()
        .map(|&(a, b)| net.request_entanglement(a, b, 0.45))
        .collect();
    // `reroutes` ticks exactly when a failed attempt parks.
    let mut steps = 0u64;
    while net.reroutes() == 0 {
        assert!(steps < 200, "scenario never parked a failed stream");
        net.run_for(SimDuration::from_millis(1));
        steps += 1;
    }
    for &r in &reqs {
        net.cancel_request(r);
    }
    net.run_for(SimDuration::from_millis(60));
    let delivered = net.take_outcomes().len() as u64;
    vec![(
        net.reroutes(),
        net.timeouts(),
        net.events_fired(),
        steps << 32 | delivered,
    )]
}

/// Three two-hop clients on a 112-link 8×8 grid: most links park at
/// their first cycle and never wake. Each client's second request
/// follows 60 ms after the first round — past the 5 000-cycle
/// (50.6 ms) completed-request linger — so the links it rides have
/// parked in between and are resumed by its CREATEs.
fn sparse_grid() -> Rows {
    let topo = Topology::grid(8, 8, |i| lab(8000 + i as u64));
    let edges = topo.edge_count();
    let mut net = Network::new(topo, 3);
    let pairs = [(0, 2), (27, 43), (63, 47)];
    let mut out = Vec::new();
    for round in 0..2 {
        for (src, dst) in pairs {
            net.request_entanglement(src, dst, 0.6);
        }
        for _ in pairs {
            let o = net
                .run_until_outcome(SimDuration::from_secs(5))
                .expect("a two-hop Lab request delivers within 5 s");
            out.push(outcome_row(&o));
        }
        net.run_for(SimDuration::from_millis(60));
        let parked = (0..edges)
            .filter(|&e| net.link(e).next_event_time().is_none())
            .count();
        assert_eq!(parked, edges, "round {round}: idle past the linger");
    }
    let never_woken = (0..edges)
        .filter(|&e| net.link(e).events_fired() == 1)
        .count();
    assert!(
        never_woken >= edges - 2 * pairs.len(),
        "only the requests' own links ever leave their first park ({never_woken}/{edges})"
    );
    let (events, elided) = (net.events_fired(), net.cycles_elided());
    assert!(elided > events, "elided {elided} cycles, fired {events}");
    out.push((events, elided, never_woken as u64, 0));
    out
}

/// Request timeouts armed 150 s out (at 0 and 5 ms) wait on the shared
/// queue behind every link event of the run and must still fire — as
/// no-ops: both requests complete tens of seconds in. Links polled at 10 ms
/// instead of 10.12 µs (same physics per attempt) make the 160
/// simulated seconds affordable.
fn timeouts_outlive_their_requests() -> Rows {
    let topo = Topology::chain(3, |i| {
        let mut cfg = lab(7000 + i as u64);
        cfg.scenario.mhp_cycle = SimDuration::from_millis(10);
        cfg
    });
    let config = NetConfig {
        request_timeout: Some(SimDuration::from_secs(150)),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, 4, config, ModelCache::new());
    net.request_entanglement(0, 2, 0.5);
    net.run_for(SimDuration::from_millis(5));
    net.request_entanglement(0, 2, 0.5);
    net.run_for(SimDuration::from_secs(160));
    let mut out: Rows = net.take_outcomes().iter().map(outcome_row).collect();
    assert_eq!(out.len(), 2, "both requests must complete");
    out.push((net.timeouts(), net.reroutes(), net.events_fired(), 0));
    out
}

#[test]
fn five_node_chain_swaps_asap_on_one_queue() {
    // Acceptance: a 5-node (4-hop) SWAP-ASAP run on a single shared
    // event queue, one SimTime stream verifiable from the spans.
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(lab_chain(5, 201), 11, config, ModelCache::new());
    net.request_entanglement(0, 4, 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(120))
        .expect("4-hop chain delivers within 120 simulated seconds");

    assert_eq!(out.path, vec![0, 1, 2, 3, 4]);
    assert_eq!(out.swaps, 3, "three repeaters, three swaps");
    assert_eq!(out.link_fidelities.len(), 4);
    let min_link = out
        .link_fidelities
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(out.end_to_end_fidelity <= min_link);

    // Single SimTime stream: monotone spans covering all four links.
    let spans = net.telemetry().expect("telemetry on").spans();
    for w in spans.windows(2) {
        assert!(w[0].at <= w[1].at, "span time went backwards");
    }
    for link in 0..4 {
        assert!(net.link(link).events_fired() > 0, "link {link} never woke");
    }
    // All three repeaters swapped, and completion was recorded.
    for node in 1..4 {
        assert!(spans.iter().any(|s| s.stage == SpanStage::Swap { node }));
    }
    assert!(spans
        .iter()
        .any(|s| matches!(s.stage, SpanStage::Deliver { .. })));

    // The links generate concurrently (shared clock, not sequential
    // per-link execution): every hop's CREATE is in before the first
    // pair of any hop lands.
    let last_create = spans
        .iter()
        .rposition(|s| matches!(s.stage, SpanStage::Create { .. }))
        .expect("creates recorded");
    let first_add = spans
        .iter()
        .position(|s| matches!(s.stage, SpanStage::Add { .. }))
        .expect("deliveries recorded");
    assert!(
        last_create < first_add,
        "links never interleaved on the shared queue"
    );
}

#[test]
fn sweep_8_seeds_2_scenarios_across_threads() {
    // Acceptance: an 8-seed × 2-scenario matrix across ≥ 2 worker
    // threads with merged aggregate statistics.
    let specs = vec![
        ScenarioSpec::lab_chain("lab-1hop", 2),
        ScenarioSpec::lab_chain("lab-2hop", 3).with_max_time(SimDuration::from_secs(30)),
    ];
    let seeds: Vec<u64> = (1..=8).collect();
    let report = sweep(&specs, &seeds, 4);

    assert!(
        report.threads_used >= 2,
        "ran on {} threads",
        report.threads_used
    );
    assert_eq!(report.runs.len(), 16);
    assert_eq!(report.scenarios.len(), 2);
    for s in &report.scenarios {
        assert_eq!(s.runs, 8, "{}: all seeds merged", s.name);
        assert!(s.successes > 0, "{}: at least one success", s.name);
        assert_eq!(s.fidelity.count(), s.successes as u64);
        assert!(
            s.fidelity.mean() > 0.25,
            "{}: {}",
            s.name,
            s.fidelity.mean()
        );
        assert!(s.latency_s.mean() > 0.0);
        assert!(s.events > 0);
    }

    // The merge is deterministic: a serial sweep produces the same
    // aggregates bit-for-bit.
    let serial = sweep(&specs, &seeds, 1);
    assert_eq!(serial.threads_used, 1);
    for (a, b) in serial.scenarios.iter().zip(&report.scenarios) {
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
        assert_eq!(a.latency_s.mean().to_bits(), b.latency_s.mean().to_bits());
    }
}

#[test]
fn sweep_runs_match_standalone_runs() {
    let spec = ScenarioSpec::lab_chain("lab-1hop", 2);
    let report = sweep(std::slice::from_ref(&spec), &[5, 6], 2);
    for record in &report.runs {
        let lone = run_one(&spec, record.seed);
        assert_eq!(lone.events, record.events);
        assert_eq!(lone.successes, record.successes);
        assert_eq!(
            lone.fidelity.mean().to_bits(),
            record.fidelity.mean().to_bits()
        );
    }
}

#[test]
fn star_topology_routes_through_the_hub() {
    // Entanglement between two leaves of a star must route leaf → hub
    // → leaf and swap once at the hub.
    let topo = Topology::star(3, |i| LinkConfig::lab(WorkloadSpec::none(), 300 + i as u64));
    let mut net = Network::new(topo, 13);
    net.request_entanglement(1, 2, 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("star leaves share entanglement via the hub");
    assert_eq!(out.path, vec![1, 0, 2]);
    assert_eq!(out.swaps, 1);
    assert!(out.end_to_end_fidelity > 0.25);
}

/// A chain with one Lab hop per seed, as a client that wants one
/// end-to-end pair at a time sets it up.
fn chain_of(seeds: &[u64]) -> Network {
    let topo = Topology::chain(seeds.len() + 1, |i| {
        LinkConfig::lab(WorkloadSpec::none(), seeds[i])
    });
    Network::new(topo, seeds[0] ^ 0xc4a1)
}

/// One end-to-end pair between the chain's ends: request, run until the
/// outcome or `max_time` of simulated time, cancel on timeout.
fn generate_end_to_end(net: &mut Network, max_time: SimDuration) -> Option<EndToEndOutcome> {
    let dst = net.topology().node_count() - 1;
    let request = net.request_entanglement(0, dst, 0.6);
    let out = net.run_until_outcome(max_time);
    if out.is_none() {
        net.cancel_request(request);
    }
    out
}

#[test]
fn prelude_repeater_chain_runs_on_the_shared_clock() {
    let mut net = chain_of(&[31, 32]);
    let out = generate_end_to_end(&mut net, SimDuration::from_secs(30))
        .expect("shared-clock chain delivers");
    assert_eq!(out.path, vec![0, 1, 2]);
    assert!(out.end_to_end_fidelity > 0.25);
}

#[test]
fn two_hop_chain_delivers_on_shared_clock() {
    let mut net = chain_of(&[31, 32]);
    let out = generate_end_to_end(&mut net, SimDuration::from_secs(30))
        .expect("both hops deliver in 30 s");
    assert_eq!(out.link_fidelities.len(), 2);
    for f in &out.link_fidelities {
        assert!(*f > 0.5, "link fidelity {f}");
    }
    let min_link = out
        .link_fidelities
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        out.end_to_end_fidelity < min_link,
        "swap must cost fidelity: {} vs min link {min_link}",
        out.end_to_end_fidelity
    );
    assert!(
        out.end_to_end_fidelity > 0.25,
        "{}",
        out.end_to_end_fidelity
    );
    assert!(out.latency > SimDuration::ZERO);
}

#[test]
fn chain_times_out_when_a_hop_cannot_deliver() {
    let mut net = chain_of(&[41]);
    // 1 ms is ~98 MHP cycles: no NL delivery is possible.
    let out = generate_end_to_end(&mut net, SimDuration::from_millis(1));
    assert!(out.is_none());
    // The timed-out request was cancelled: nothing stays reserved.
    assert_eq!(net.edge_load(0), 0);
    assert!(net.reservations_at(0).is_empty());
}

#[test]
fn sequential_rounds_reuse_the_network() {
    let mut net = chain_of(&[51]);
    let first = generate_end_to_end(&mut net, SimDuration::from_secs(20));
    let second = generate_end_to_end(&mut net, SimDuration::from_secs(20));
    let (first, second) = (first.expect("round 1"), second.expect("round 2"));
    assert!(first.end_to_end_fidelity > 0.5);
    assert!(second.end_to_end_fidelity > 0.5);
}
