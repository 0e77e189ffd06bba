//! Contention test suite for congestion-aware routing and timeout
//! re-routing (the PR 4 tentpole), pinned deterministically per seed:
//!
//! * on a contended 4×4 grid, `LoadScaledLatency` times out strictly
//!   fewer requests than static `Latency` at equal seeds;
//! * a retry budget > 0 completes requests that time out at budget 0;
//! * a stream whose links UNSUPP re-routes onto a serving path
//!   instead of idling to its timeout;
//! * `edge_load` balances to zero through every request lifecycle
//!   (completion, timeout, rejection, re-route, cancellation);
//! * PR 3's scenario stats reproduce bit-identically under the new
//!   plumbing (re-route draws live on their own `net/reroute`
//!   substream and no timeout events exist unless armed).
//!
//! Two more families: the re-route backoff (one jittered control delay,
//! pinned against `Reroute` span times) and CREATE retraction (a timeout
//! storm leaves both EGP queues empty, so `edge_load` matches the links'
//! true backlog).

use qlink::net::sweep::{run_one, RunRecord};
use qlink::net::{MetricChoice, SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// Six concurrent cross-traffic pairs on the 4×4 grid (nodes
/// row-major): two corner-to-corner diagonals plus four cross-mesh
/// pairs. Under a static metric their deterministically tie-broken
/// shortest paths pile onto the low-index row/column edges.
fn contended_pairs() -> Vec<(usize, usize)> {
    vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)]
}

fn grid_spec(metric: MetricChoice, budget: SimDuration) -> ScenarioSpec {
    ScenarioSpec::lab_grid("contended-grid", 4, 4)
        .with_pairs(contended_pairs())
        .with_max_time(budget)
        .with_metric(metric)
}

/// The acceptance criterion's first half: at equal seeds, pricing the
/// live `edge_load` into the route metric strictly reduces timeouts
/// on the contended mesh — pinned per seed, with the exact counts.
#[test]
fn load_scaled_metric_times_out_strictly_less_on_contended_grid() {
    let budget = SimDuration::from_millis(500);
    // (seed, timeouts under static Latency, under LoadScaledLatency).
    for (seed, static_to, load_to) in [(1, 2, 0), (4, 1, 0), (6, 2, 0)] {
        let plain = run_one(&grid_spec(MetricChoice::Latency, budget), seed);
        let load = run_one(&grid_spec(MetricChoice::LoadLatency, budget), seed);
        assert_eq!(plain.rounds, 6, "six concurrent requests per round");
        assert_eq!(load.rounds, 6);
        assert_eq!(
            plain.timeouts, static_to,
            "seed {seed}: static Latency timeout count moved"
        );
        assert_eq!(
            load.timeouts, load_to,
            "seed {seed}: LoadScaledLatency timeout count moved"
        );
        assert!(
            load.timeouts < plain.timeouts,
            "seed {seed}: load-aware routing must time out strictly less \
             ({} vs {})",
            load.timeouts,
            plain.timeouts
        );
        // No re-routing was enabled: the gain is purely from planning.
        assert_eq!(plain.reroutes, 0);
        assert_eq!(load.reroutes, 0);
        assert_eq!(plain.successes + plain.timeouts, plain.rounds);
        assert_eq!(load.successes + load.timeouts, load.rounds);
    }
}

/// The acceptance criterion's second half: with a per-request timeout
/// armed, retry budget 0 abandons requests at their deadline, while
/// budget 2 re-plans them against current load (excluding the failed
/// path's edges) and completes requests that timed out at budget 0 —
/// exact per-seed counts pinned.
#[test]
fn retry_budget_completes_requests_that_time_out_at_budget_zero() {
    let run = |seed: u64, retries: u32| -> RunRecord {
        let spec = grid_spec(MetricChoice::Latency, SimDuration::from_millis(900))
            .with_request_timeout(SimDuration::from_millis(350))
            .with_retries(retries);
        run_one(&spec, seed)
    };
    // (seed, budget-0 (ok, to), budget-2 (ok, to, reroutes)).
    for (seed, zero, two) in [(1, (4, 2), (6, 0, 2)), (4, (3, 3), (6, 0, 3))] {
        let r0 = run(seed, 0);
        let r2 = run(seed, 2);
        assert_eq!((r0.successes, r0.timeouts), zero, "seed {seed} budget 0");
        assert_eq!(
            (r2.successes, r2.timeouts, r2.reroutes),
            two,
            "seed {seed} budget 2"
        );
        assert_eq!(r0.reroutes, 0, "budget 0 must never re-route");
        assert!(
            r2.successes > r0.successes,
            "seed {seed}: the retry budget must complete at least one \
             request that timed out at budget 0"
        );
        assert!(r2.timeouts < r0.timeouts);
        assert!(r2.reroutes > 0);
    }
}

/// Re-routed runs stay bit-reproducible: the jittered backoff draws
/// from the seeded `net/reroute` substream, so the whole record —
/// including which requests re-routed and what they delivered —
/// reproduces exactly.
#[test]
fn rerouted_runs_reproduce_bit_identically() {
    let spec = grid_spec(MetricChoice::LoadLatency, SimDuration::from_millis(700))
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2);
    let a = run_one(&spec, 5);
    let b = run_one(&spec, 5);
    assert!(a.reroutes > 0, "the seed must actually exercise re-routing");
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.timeouts, b.timeouts);
    assert_eq!(a.reroutes, b.reroutes);
    assert_eq!(a.events, b.events);
    assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
    assert_eq!(a.latency_s.mean().to_bits(), b.latency_s.mean().to_bits());
}

/// A Lab link degraded far below spec (borrowed from
/// `net_routing.rs`): its FEU ceiling sits below Fmin 0.6, so CREATEs
/// at that floor are rejected UNSUPP.
fn noisy_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.optics.visibility = 0.4;
    cfg.scenario.optics.two_photon_prob = 0.2;
    cfg.scenario.optics.phase_sigma_rad *= 3.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 0.9;
    cfg
}

/// Diamond with a short noisy arm (0-1-4) and a long clean arm
/// (0-2-3-4); only the clean arm can serve Fmin 0.6.
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

/// A stream pinned onto a path whose links UNSUPP re-routes onto the
/// serving arm as soon as the rejection is observed — ROADMAP's "a
/// stream whose links UNSUPP simply times out" gap, closed.
#[test]
fn unsupp_stream_reroutes_onto_the_serving_arm() {
    let mut net = Network::new(short_noisy_long_clean_diamond(), 7);
    net.set_retry_budget(1);
    // Pin the request onto the noisy arm, bypassing the planner's
    // feasibility filter: both links reject the CREATEs as UNSUPP.
    let request = net.request_on_path(&[0, 1, 4], 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(60))
        .expect("the re-routed stream must deliver");
    assert_eq!(out.request, request, "same id across the re-route");
    assert_eq!(out.path, vec![0, 2, 3, 4], "re-planned onto the clean arm");
    assert_eq!(net.reroutes(), 1);
    assert_eq!(net.timeouts(), 0);
    assert!(out.end_to_end_fidelity > 0.25);
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "edge {e}: load released");
    }

    // Without a retry budget the same pinned stream delivers nothing:
    // the first rejection abandons it.
    let mut inert = Network::new(short_noisy_long_clean_diamond(), 7);
    inert.request_on_path(&[0, 1, 4], 0.6);
    assert!(inert
        .run_until_outcome(SimDuration::from_millis(50))
        .is_none());
    assert_eq!((inert.reroutes(), inert.timeouts()), (0, 1));
}

/// With the budget exhausted, an UNSUPP'd stream is abandoned and
/// counted, and its reservations are fully released.
#[test]
fn exhausted_budget_abandons_and_releases() {
    let mut net = Network::new(short_noisy_long_clean_diamond(), 3);
    net.set_request_timeout(Some(SimDuration::from_millis(80)));
    // Fmin above every arm's ceiling: each re-plan lands on another
    // UNSUPP'ing path until the budget runs out.
    let request = net.request_entanglement(0, 4, 0.95);
    net.run_for(SimDuration::from_secs(2));
    assert_eq!(net.timeouts(), 1, "the stream must be abandoned");
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "edge {e}: load released on abandon");
    }
    for n in 0..net.topology().node_count() {
        assert!(!net.node(n).is_reserved(request), "node {n} still reserved");
    }
    // Cancelling an abandoned request is a harmless no-op.
    net.cancel_request(request);
    assert!((0..net.topology().edge_count()).all(|e| net.edge_load(e) == 0));
}

/// `edge_load` must agree with both endpoint nodes' reservation counts.
fn assert_load_matches_reservations(net: &Network, what: &str) {
    for e in 0..net.topology().edge_count() {
        let edge = net.topology().edge(e);
        for node in [edge.a, edge.b] {
            assert_eq!(
                net.edge_load(e) as usize,
                net.node(node).reserved_on_edge(e),
                "{what}: edge {e} vs node {node}"
            );
        }
    }
}

/// What every ending must leave behind once its expire notices have
/// landed (`settle` covers the slowest control delay): no edge load,
/// no node reservation, every retraction received by its link, and no
/// request id with more than one terminal span.
fn assert_ledgers_clean(net: &mut Network, settle: SimDuration, what: &str) {
    net.run_for(settle);
    for e in 0..net.topology().edge_count() {
        assert_eq!(net.edge_load(e), 0, "{what}: edge {e} leaked load");
    }
    for n in 0..net.topology().node_count() {
        let left = net.node(n).active_requests();
        assert!(left.is_empty(), "{what}: node {n} still holds {left:?}");
    }
    let tl = net.telemetry().expect("telemetry on");
    let m = tl.metrics();
    assert_eq!(m.retracts, m.expires, "{what}: a retraction never landed");
    let ended = tl.spans().iter().filter(|s| s.stage.is_terminal());
    let mut ended: Vec<u64> = ended.map(|s| s.request).collect();
    ended.sort_unstable();
    let twice = ended.windows(2).any(|w| w[0] == w[1]);
    assert!(!twice, "{what}: a request ended twice ({ended:?})");
}

/// Runs `requests` for `budget` — the load ledger checked after issue,
/// at every outcome, and after cancelling whatever is left — then
/// checks the ledgers clean.
fn run_then_cancel(net: &mut Network, requests: &[u64], budget: SimDuration, what: &str) {
    assert_load_matches_reservations(net, &format!("{what} after issue"));
    let deadline = net.now() + budget;
    loop {
        let left = deadline.saturating_since(net.now());
        if left == SimDuration::ZERO {
            break;
        }
        let outcome = net.run_until_outcome(left);
        assert_load_matches_reservations(net, &format!("{what} mid-run"));
        if outcome.is_none() {
            break;
        }
    }
    for &r in requests {
        net.cancel_request(r);
    }
    assert_load_matches_reservations(net, &format!("{what} after cancel"));
    assert_ledgers_clean(net, SimDuration::from_millis(1), what);
}

/// One request, driven to each ending that leaves through the shared
/// teardown. Each row: the ending, the one terminal span the run must
/// record (`None`: a cancel records none), and the finished network.
fn endings() -> Vec<(&'static str, Option<&'static str>, Network)> {
    let ms = SimDuration::from_millis;
    let traced = |topo: Topology, seed: u64| {
        let mut net = Network::new(topo, seed);
        net.set_telemetry(TelemetryConfig::all());
        net
    };
    let chain3 = || Topology::chain(3, |i| lab(40 + i as u64));
    let mut rows = Vec::new();

    let mut net = traced(chain3(), 7);
    net.request_entanglement(0, 2, 0.5);
    assert!(net.run_until_outcome(SimDuration::from_secs(30)).is_some());
    rows.push(("deliver", Some("deliver"), net));

    // Pinned onto the noisy arm with no budget: the first UNSUPP ends it.
    let mut net = traced(short_noisy_long_clean_diamond(), 7);
    net.request_on_path(&[0, 1, 4], 0.6);
    net.run_for(ms(50));
    assert_eq!((net.reroutes(), net.timeouts()), (0, 1));
    rows.push(("abandon on exhausted budget", Some("abandon"), net));

    // The pair's only edge fails for good under the first attempt: the
    // re-issue finds no route.
    let mut net = traced(Topology::chain(2, |_| lab(30)), 1);
    net.set_retry_budget(2);
    net.set_fault_plan(&FaultPlan::new().with_event(ms(20), FaultKind::Fail { edge: 0 }));
    net.request_entanglement(0, 1, 0.6);
    net.run_for(ms(50));
    assert_eq!((net.reroutes(), net.timeouts()), (1, 1));
    rows.push(("abandon on no route", Some("abandon"), net));

    // 50 µs in: both CREATEs submitted, far too early for a pair.
    let mut net = traced(chain3(), 7);
    let request = net.request_entanglement(0, 2, 0.5);
    net.run_for(SimDuration::from_micros(50));
    net.cancel_request(request);
    let retracts = &net.telemetry().expect("telemetry on").metrics().retracts;
    assert!(retracts.iter().sum::<u64>() > 0, "CREATEs were queued");
    rows.push(("cancel with CREATEs queued", None, net));

    // Control delays stretched to 2 ms: the UNSUPP'd attempt parks for
    // a ≥ 4 ms backoff, and the cancel lands inside it. (A re-issue
    // slipping through would hold load on the clean arm.)
    let mut topo = short_noisy_long_clean_diamond();
    for e in 0..topo.edge_count() {
        topo.set_control_delay(e, ms(2));
    }
    let mut net = traced(topo, 7);
    net.set_retry_budget(1);
    let request = net.request_on_path(&[0, 1, 4], 0.6);
    net.run_for(ms(1));
    assert_eq!(net.reroutes(), 1, "the failed attempt is parked");
    net.cancel_request(request);
    rows.push(("cancel while parked for re-issue", None, net));

    // At this seed the group's first parity check rejects: both member
    // streams are discarded and regenerated before the pair delivers.
    let mut net = traced(Topology::chain(2, |_| lab(70)), 4);
    net.set_policy(Policy::EndToEndPurify);
    let group = net.request_entanglement(0, 1, 0.6);
    assert!(net.run_until_outcome(SimDuration::from_secs(60)).is_some());
    let accepted = false;
    let rejected = SpanStage::GroupParity { group, accepted };
    let spans = net.telemetry().expect("telemetry on").spans();
    assert!(
        spans.iter().any(|s| s.stage == rejected),
        "a parity rejects"
    );
    rows.push(("group reject, regenerate, deliver", Some("deliver"), net));

    // No arm serves Fmin 0.95: one member's UNSUPP abandons it, which
    // drops the group and cancels its partner.
    let mut net = traced(short_noisy_long_clean_diamond(), 3);
    net.set_policy(Policy::EndToEndPurify);
    net.request_entanglement(0, 4, 0.95);
    net.run_for(ms(50));
    assert_eq!(net.timeouts(), 1);
    rows.push(("group abandon", Some("abandon"), net));

    rows
}

/// Seeded property test for the load ledger: at every observation
/// point `edge_load` agrees with both endpoint nodes' reservation
/// counts, and after every lifecycle — completion, timeout,
/// rejection, re-route, cancellation — the ledgers are clean
/// ([`assert_ledgers_clean`]). Trials mix purification policies, retry
/// budgets, timeouts, and an unachievable-fmin request (a
/// rejection/re-route/abandon exerciser); the [`endings`] table then
/// drives one request to each ending in isolation and pins the single
/// terminal span it records.
#[test]
fn edge_load_balances_through_every_lifecycle() {
    for (ending, terminal, mut net) in endings() {
        assert_ledgers_clean(&mut net, SimDuration::from_millis(10), ending);
        let spans = net.telemetry().expect("telemetry on").spans().iter();
        let recorded: Vec<&str> = spans
            .filter(|s| s.stage.is_terminal())
            .map(|s| s.stage.name())
            .collect();
        let expected: Vec<&str> = terminal.into_iter().collect();
        assert_eq!(recorded, expected, "{ending}: terminal spans");
    }

    let mut rng = DetRng::new(0xC0FFEE).substream("net-congestion/load");
    let policies = [
        Policy::SwapAsap,
        Policy::LinkPurify,
        Policy::EndToEndPurify,
        Policy::SwapAsap,
        Policy::SwapAsap,
    ];
    for (trial, &policy) in policies.iter().enumerate() {
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let retries = rng.below(3) as u32;
        let timeout_ms = 60 + rng.below(240);
        let mut topo = Topology::grid(3, 3, |i| {
            let mut cfg = lab(link_seed + i as u64);
            // Long memory so the purifying trials can progress.
            cfg.scenario.nv.carbon_t2 = 10.0;
            cfg
        });
        // A noisy shortcut across one corner: a candidate edge whose
        // UNSUPP rejections the re-route machinery must clean up.
        topo.connect(0, 4, noisy_lab(link_seed + 100));
        let noisy_edge = topo.edge_count() - 1;
        let mut net = Network::new(topo, net_seed);
        net.set_telemetry(TelemetryConfig::all());
        net.set_route_metric(LoadScaledLatency);
        net.set_policy(policy);
        net.set_retry_budget(retries);
        net.set_request_timeout(Some(SimDuration::from_millis(timeout_ms)));

        let mut requests = vec![
            net.request_entanglement(0, 8, 0.6),
            net.request_entanglement(2, 6, 0.6),
            net.request_entanglement(3, 5, 0.6),
        ];
        // Unachievable floor: rejected wherever it lands, re-routed
        // while budget lasts, then abandoned.
        requests.push(net.request_entanglement(0, 8, 0.95));
        // Forced onto the noisy shortcut: UNSUPP at a feasible floor.
        requests.push(net.request_on_path(&[0, 4, 5, 8], 0.6));

        let what = format!("trial {trial} (noisy edge is {noisy_edge})");
        run_then_cancel(&mut net, &requests, SimDuration::from_millis(600), &what);
    }
}

/// The fault-injection extension of the ledger property (PR 9
/// satellite): with edges flapping underneath live traffic, every
/// fail-triggered teardown, repair-time CREATE drop, re-route, and
/// cancellation still leaves `edge_load` in agreement with both
/// endpoint nodes' reservation counts — and the ledgers clean once
/// every request is resolved. The release uses checked subtraction
/// (`Network::teardown`), so a double release would fail a debug
/// assertion here rather than silently corrupt (or, in debug builds,
/// panic-underflow) the ledger.
#[test]
fn edge_load_balances_through_fault_interleavings() {
    let mut rng = DetRng::new(0xFA17).substream("net-congestion/faults");
    for trial in 0..4 {
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let retries = rng.below(3) as u32;
        let timeout_ms = 80 + rng.below(200);
        let mut topo = Topology::grid(3, 3, |i| lab(link_seed + i as u64));
        topo.connect(0, 4, noisy_lab(link_seed + 100));
        let mut net = Network::new(topo, net_seed);
        net.set_telemetry(TelemetryConfig::all());
        net.set_route_metric(LoadScaledLatency);
        net.set_retry_budget(retries);
        net.set_request_timeout(Some(SimDuration::from_millis(timeout_ms)));
        // Three central edges flap fast underneath the traffic; the
        // noisy shortcut adds UNSUPP rejections to the interleaving.
        let mut plan = FaultPlan::new();
        for edge in [1, 4, 7] {
            plan = plan.with_flapping(Flapping {
                edge,
                mean_up: SimDuration::from_millis(60),
                mean_down: SimDuration::from_millis(20),
                cycles: 4,
                degrade: None,
            });
        }
        net.set_fault_plan(&plan);

        let mut requests = vec![
            net.request_entanglement(0, 8, 0.6),
            net.request_entanglement(2, 6, 0.6),
            net.request_entanglement(3, 5, 0.6),
            net.request_entanglement(0, 8, 0.95),
        ];
        requests.push(net.request_on_path(&[0, 4, 5, 8], 0.6));

        let what = format!("trial {trial}");
        run_then_cancel(&mut net, &requests, SimDuration::from_millis(800), &what);
        assert!(net.faults() > 0, "{what}: the flapping plan must fire");
    }
}

/// The policy extension of the ledger property (PR 10 satellite):
/// under every `Policy`, the interpreter's purify claims (`RuleState`
/// latches), pump-round regenerations, releases during pending
/// parities, and fault-triggered teardowns must all keep `edge_load`
/// in agreement with both endpoint nodes' reservation counts. Trials
/// mix every policy with flapping faults, seeded retries/timeouts, an
/// unachievable-fmin rejection exerciser, and a pinned noisy path;
/// after cancel-all every edge is back at exactly zero and no node
/// still holds a reservation.
#[test]
fn edge_load_balances_under_interpreted_rulesets() {
    let mut rng = DetRng::new(0x5E7).substream("net-congestion/ruleset");
    let policies = [
        Policy::SwapAsap,
        Policy::LinkPurify,
        Policy::ThresholdPurify { theta: 0.85 },
        Policy::PumpRounds { rounds: 2 },
        Policy::EndToEndPurify,
    ];
    for (trial, &policy) in policies.iter().enumerate() {
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let retries = rng.below(3) as u32;
        let timeout_ms = 80 + rng.below(200);
        let with_faults = trial % 2 == 0;
        let mut topo = Topology::grid(3, 3, |i| {
            let mut cfg = lab(link_seed + i as u64);
            // Long memory so purifying policies can progress.
            cfg.scenario.nv.carbon_t2 = 10.0;
            cfg
        });
        topo.connect(0, 4, noisy_lab(link_seed + 100));
        let mut net = Network::new(topo, net_seed);
        net.set_telemetry(TelemetryConfig::all());
        net.set_route_metric(LoadScaledLatency);
        net.set_policy(policy);
        net.set_retry_budget(retries);
        net.set_request_timeout(Some(SimDuration::from_millis(timeout_ms)));
        if with_faults {
            // Two central edges flap underneath the traffic: releases must land mid-parity and mid-pump.
            let mut plan = FaultPlan::new();
            for edge in [1, 7] {
                plan = plan.with_flapping(Flapping {
                    edge,
                    mean_up: SimDuration::from_millis(60),
                    mean_down: SimDuration::from_millis(20),
                    cycles: 4,
                    degrade: None,
                });
            }
            net.set_fault_plan(&plan);
        }

        let mut requests = vec![
            net.request_entanglement(0, 8, 0.6),
            net.request_entanglement(2, 6, 0.6),
            net.request_entanglement(3, 5, 0.6),
            // Unachievable floor: rejected, re-routed, abandoned.
            net.request_entanglement(0, 8, 0.95),
        ];
        requests.push(net.request_on_path(&[0, 4, 5, 8], 0.6));

        let what = format!("trial {trial} ({})", policy.name());
        run_then_cancel(&mut net, &requests, SimDuration::from_millis(800), &what);
        assert_eq!(with_faults, net.faults() > 0, "{what}: the flapping plan");
    }
}

/// The request ledger's closing property, over 16 seeded compositions
/// of topology (chain, grid) × policy × timeout × retry budget, with a
/// flapping fault plan, an open-loop workload and a mid-run
/// `cancel_request` mixed in: once every request has delivered, been
/// abandoned or been cancelled and the run has drained, nothing is left
/// on the books — no edge carries load, no node holds a reservation,
/// and both EGPs of every link are quiescent (every retracted CREATE
/// really left the link).
#[test]
fn ledger_is_empty_once_every_request_has_ended() {
    let mut rng = DetRng::new(0x1ED6E2).substream("net-congestion/ledger");
    let policies = [Policy::SwapAsap, Policy::LinkPurify, Policy::EndToEndPurify];
    let ms = SimDuration::from_millis;
    let (mut delivered, mut abandoned, mut rerouted, mut faults) = (0, 0, 0, 0);
    for case in 0..16 {
        let policy = policies[case % 3];
        let grid = case % 2 == 0;
        let link_seed = rng.below(1 << 20);
        let link = |i: usize| {
            let mut cfg = lab(link_seed + i as u64);
            // Long memory so the purifying cases can progress.
            cfg.scenario.nv.carbon_t2 = 10.0;
            cfg
        };
        // Pairs any two of the flapping grid edges leave connected.
        let (topo, pairs) = if grid {
            (Topology::grid(3, 3, link), vec![(0, 8), (2, 6), (3, 4)])
        } else {
            (Topology::chain(4, link), vec![(0, 3), (1, 2), (0, 1)])
        };
        let mut net = Network::new(topo, rng.below(1 << 20));
        net.set_route_metric(LoadScaledLatency);
        net.set_policy(policy);
        net.set_retry_budget(rng.below(3) as u32);
        // Workload requests have no handle to cancel: they end by
        // delivering or by timing out, so those cases arm a timeout.
        let open_loop = case % 4 < 2;
        if open_loop || rng.below(2) == 0 {
            net.set_request_timeout(Some(ms(80 + rng.below(150))));
        }
        if grid && case % 8 < 4 {
            let mut plan = FaultPlan::new();
            for edge in [1, 4, 7] {
                plan = plan.with_flapping(Flapping {
                    edge,
                    mean_up: ms(50),
                    mean_down: ms(15),
                    cycles: 3,
                    degrade: None,
                });
            }
            net.set_fault_plan(&plan);
        }
        if open_loop {
            let class = UserClass::new("ck", RequestKind::Ck, pairs.clone()).with_admission(
                AdmissionControl::QueueBeyond {
                    max_in_flight: 2,
                    queue_cap: 2,
                },
            );
            net.set_workload(Workload::poisson(60.0, vec![class]).with_max_arrivals(8));
        }
        let mut requests: Vec<u64> = pairs
            .iter()
            .map(|&(src, dst)| net.request_entanglement(src, dst, 0.6))
            .collect();
        // Unachievable floor: rejected, re-routed while budget lasts,
        // abandoned.
        requests.push(net.request_entanglement(pairs[0].0, pairs[0].1, 0.95));

        let what = format!("case {case} ({}, grid: {grid})", policy.name());
        net.run_for(ms(40 + rng.below(80)));
        net.cancel_request(requests[case % requests.len()]);
        net.run_for(ms(200));
        for request in requests {
            net.cancel_request(request);
        }
        // The workload's own requests deliver or time out.
        for _ in 0..40 {
            let busy = |c: &ClassLoadStats| c.in_flight + c.queued > 0;
            if !net
                .workload_stats()
                .is_some_and(|s| s.classes.iter().any(busy))
            {
                break;
            }
            net.run_for(ms(50));
        }
        if let Some(stats) = net.workload_stats() {
            let c = &stats.classes[0];
            assert_eq!(c.in_flight + c.queued, 0, "{what}: workload never drained");
            assert_eq!(c.offered, 8, "{what}: the whole stream arrived");
        }
        // Retraction notices land, and delivered requests stop lingering.
        net.run_for(ms(50));

        for e in 0..net.topology().edge_count() {
            assert_eq!(net.edge_load(e), 0, "{what}: edge {e} leaked load");
            let quiet = (0..2).all(|side| net.link(e).egp(side).next_tick().is_none());
            assert!(quiet, "{what}: an EGP of edge {e} still holds a request");
        }
        for n in 0..net.topology().node_count() {
            let left = net.node(n).active_paths();
            assert_eq!(left, 0, "{what}: node {n} still holds {left} reservations");
        }
        let completed = net.workload_stats().map_or(0, |s| s.total_completed());
        delivered += net.take_outcomes().len() as u64 + completed;
        abandoned += net.timeouts();
        rerouted += net.reroutes();
        faults += net.faults();
    }
    // Between them the cases took every way out.
    let endings = [delivered, abandoned, rerouted, faults];
    assert!(endings.iter().all(|&n| n > 0), "{endings:?}");
}

/// PR 3 regression anchors, captured before this PR's plumbing
/// landed: with retries = 0 and no request timeout (the defaults) the
/// new machinery schedules no events and draws no randomness, so
/// these scenario stats must reproduce **bit-identically** — the
/// contended multi-stream chain of `net_routing.rs` and the
/// purification sweep cells of `net_purify.rs`. (`events` alone was
/// re-recorded twice: when idle links began parking — the cycles an
/// idle link skips, and the wakes that observed them, are not events —
/// and when a link attempt went from ten events to four: photons and
/// GENs reach the station at emission and reply deadlines wait in a
/// per-link FIFO, so neither is an event or a wake any more. Every
/// other field is the PR 3 capture.)
#[test]
fn pr3_scenario_stats_reproduce_bit_identically() {
    struct Pin {
        successes: u32,
        rounds: u32,
        events: u64,
        fid_bits: u64,
        lat_bits: u64,
        pairs: u64,
    }
    let check = |r: &RunRecord, pin: &Pin, what: &str| {
        assert_eq!(r.successes, pin.successes, "{what}: successes");
        assert_eq!(r.rounds, pin.rounds, "{what}: rounds");
        assert_eq!(r.events, pin.events, "{what}: event count");
        assert_eq!(
            r.fidelity.mean().to_bits(),
            pin.fid_bits,
            "{what}: fidelity"
        );
        assert_eq!(
            r.latency_s.mean().to_bits(),
            pin.lat_bits,
            "{what}: latency"
        );
        assert_eq!(r.pairs_consumed, pin.pairs, "{what}: pairs");
        assert_eq!(r.timeouts, 0, "{what}: timeouts");
        assert_eq!(r.reroutes, 0, "{what}: reroutes");
    };

    // net_routing.rs: contended 3-node chain, Fidelity metric, two
    // streams, seed 3. `with_retries(0)` is the explicit spelling of
    // the default and must change nothing.
    let spec = ScenarioSpec::lab_chain("contended", 3)
        .with_max_time(SimDuration::from_secs(120))
        .with_metric(MetricChoice::Fidelity)
        .with_streams(2)
        .with_retries(0);
    check(
        &run_one(&spec, 3),
        &Pin {
            successes: 2,
            rounds: 2,
            events: 201039,
            fid_bits: 0x3fd52195dac57856,
            lat_bits: 0x3fc1f54e350f4050,
            pairs: 4,
        },
        "routing/contended",
    );

    // net_purify.rs: the SwapAsap vs LinkPurify sweep cells, seeds 1 and 2.
    let pins = [
        (
            Policy::SwapAsap,
            1,
            539498,
            0x3fd4c4c25b62f322,
            0x3fd0c1bc3219e844,
            8,
        ),
        (
            Policy::SwapAsap,
            2,
            540196,
            0x3fd4dd4546f6ff70,
            0x3fc55650e3bc46e4,
            8,
        ),
        (
            Policy::LinkPurify,
            1,
            1045306,
            0x3fd61d31f71fd713,
            0x3fda87559e900d6a,
            20,
        ),
        (
            Policy::LinkPurify,
            2,
            1280711,
            0x3fd5de38a4298a86,
            0x3fe0bc58ab38ddcd,
            18,
        ),
    ];
    for (policy, seed, events, fid_bits, lat_bits, pairs) in pins {
        let spec = ScenarioSpec::lab_chain(policy.name(), 5)
            .with_rounds(2)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
            .with_policy(policy);
        check(
            &run_one(&spec, seed),
            &Pin {
                successes: 2,
                rounds: 2,
                events,
                fid_bits,
                lat_bits,
                pairs,
            },
            &format!("purify/{} seed {seed}", policy.name()),
        );
    }
}

/// The sweep driver carries the congestion knobs and surfaces the new
/// counters deterministically through the merged report.
#[test]
fn sweep_merges_timeout_and_reroute_counters() {
    let specs = vec![
        grid_spec(MetricChoice::Latency, SimDuration::from_millis(500)),
        grid_spec(MetricChoice::LoadLatency, SimDuration::from_millis(500)),
    ];
    let seeds = [1, 4];
    let report = sweep(&specs, &seeds, 2);
    let plain = &report.scenarios[0];
    let load = &report.scenarios[1];
    assert_eq!(plain.rounds, 12, "2 seeds x 6 pairs");
    assert_eq!(plain.timeouts, 3, "seeds 1+4 under static Latency");
    assert_eq!(load.timeouts, 0, "load-aware spreads all requests");
    assert_eq!(plain.successes + plain.timeouts, plain.rounds);
    // Thread count never changes the merged numbers.
    let again = sweep(&specs, &seeds, 1);
    for (a, b) in report.runs.iter().zip(&again.runs) {
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.reroutes, b.reroutes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
    }
}

// ---- re-route backoff ----------------------------------------------

/// The failure times of every re-route of a 1-edge stream whose link
/// UNSUPPs Fmin 0.6 forever, and the run's event count: each attempt is
/// rejected almost instantly, so consecutive `Reroute` span times are
/// dominated by the backoff delays between them. The edge's control
/// delay is overridden to 120 µs (metropolitan scale) so the backoff
/// dwarfs the MHP-cycle-scale rejection-detection jitter.
fn reroute_times(retries: u32) -> (Vec<u64>, u64) {
    let mut topo = Topology::chain(2, |_| noisy_lab(21));
    topo.set_control_delay(0, SimDuration::from_micros(120));
    let mut net = Network::new(topo, 21);
    net.set_retry_budget(retries);
    net.set_telemetry(TelemetryConfig::all());
    net.request_on_path(&[0, 1], 0.6);
    net.run_for(SimDuration::from_millis(100));
    let times = net
        .telemetry()
        .expect("telemetry on")
        .spans()
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::Reroute { .. }))
        .map(|s| s.at.as_ps())
        .collect();
    (times, net.events_fired())
}

/// The backoff is one jittered path control delay, `base × (1 + u)`
/// for one `net/reroute` draw `u ∈ [0, 1)`, whatever the attempt
/// number: every gap between failures is one backoff plus the next
/// rejection's detection (a few MHP cycles). The failure instants and
/// the event count are pinned as recorded when the backoff was still a
/// selectable policy and this was its default.
#[test]
fn default_backoff_is_pinned_to_jittered() {
    let (times, events) = reroute_times(3);
    assert_eq!(times, [10_120_000, 192_280_000, 414_920_000]);
    assert_eq!(events, 13);
    let base = SimDuration::from_micros(120).as_ps();
    let detection = SimDuration::from_micros(35).as_ps();
    for w in times.windows(2) {
        let gap = w[1] - w[0];
        assert!((base..2 * base + detection).contains(&gap), "gap {gap} ps");
    }
}

// ---- CREATE retraction through timeout storms (PR 5 satellite) ------

/// ROADMAP's CREATE-retraction gap, closed: when a timeout storm
/// fails six concurrent streams on one edge, the link-layer EXPIRE
/// hook (`LinkSimulation::expire_request`) retracts their queued
/// CREATEs at *both* EGPs — the link stops spending attempt cycles on
/// orphaned requests, so `edge_load`'s zero matches the link's true
/// backlog instead of under-counting it. Before the hook, the six
/// CREATEs stayed committed until served (seconds later), their pairs
/// silently discarded on delivery.
#[test]
fn timeout_storm_retracts_queued_creates_from_links() {
    let topo = Topology::chain(2, |_| lab(77));
    let mut net = Network::new(topo, 77);
    net.set_request_timeout(Some(SimDuration::from_millis(20)));
    for _ in 0..6 {
        net.request_on_path(&[0, 1], 0.6);
    }
    assert!(net.link(0).egp(0).queue_len() > 0, "storm must queue up");
    // 20 ms timeouts + retraction notices crossing the control channel.
    net.run_for(SimDuration::from_millis(40));
    assert_eq!(net.timeouts(), 6, "every stream fails inside the storm");
    assert_eq!(net.edge_load(0), 0, "network-level load released");
    for side in 0..2 {
        assert_eq!(
            net.link(0).egp(side).queue_len(),
            0,
            "side {side}: orphaned CREATEs must leave the EGP queue, and the queue is all the request state there is"
        );
    }
    // The link is not wedged: a fresh (unarmed) request completes.
    net.set_request_timeout(None);
    net.request_on_path(&[0, 1], 0.6);
    assert!(
        net.run_until_outcome(SimDuration::from_secs(20)).is_some(),
        "post-storm request must still deliver"
    );
}
