//! Integration tests for the `qlink-net` network layer: SWAP-ASAP
//! chains on one shared event queue, determinism, and the parallel
//! scenario-sweep driver.

use qlink::net::sweep::run_one;
use qlink::net::{SpanStage, TelemetryConfig};
use qlink::prelude::*;

/// Span recording only: the request-lifecycle record of the shared
/// clock.
const SPANS: TelemetryConfig = TelemetryConfig {
    spans: true,
    ..TelemetryConfig::OFF
};

fn lab_chain(nodes: usize, base_seed: u64) -> Topology {
    Topology::chain(nodes, |i| {
        LinkConfig::lab(WorkloadSpec::none(), base_seed + 1000 * i as u64)
    })
}

#[test]
fn three_node_chain_delivers_end_to_end_on_shared_clock() {
    let mut net = Network::new(lab_chain(3, 71), 7);
    net.set_telemetry(SPANS);
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
}

#[test]
fn five_node_chain_swaps_asap_on_one_queue() {
    // Acceptance: a 5-node (4-hop) SWAP-ASAP run on a single shared
    // event queue, one SimTime stream verifiable from the spans.
    let mut net = Network::new(lab_chain(5, 201), 11);
    net.set_telemetry(SPANS);
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

#[test]
fn prelude_repeater_chain_runs_on_the_shared_clock() {
    let mk = |seed| LinkConfig::lab(WorkloadSpec::none(), seed);
    let mut chain = RepeaterChain::new(vec![mk(31), mk(32)]);
    assert_eq!(chain.hops(), 2);
    let out = chain
        .generate_end_to_end(0.6, SimDuration::from_secs(30))
        .expect("shared-clock chain delivers");
    assert!(out.end_to_end_fidelity > 0.25);
}
