//! Acceptance suite for the deterministic telemetry layer
//! (`qlink::net::obs`, the PR 6 tentpole) and the CREATE retraction
//! a cancel performs.
//!
//! The contracts under test:
//!
//! * **Passivity** — telemetry on vs. off never moves a single bit of
//!   the simulation results (recording draws nothing from any RNG and
//!   schedules no events);
//! * **Fidelity of the record** — a golden snapshot of the 3-node
//!   chain's stage sequence, structural chrome-trace invariants
//!   (B/E balance, monotone timestamps), and metric counters that
//!   reconcile exactly with the network's own counters;
//! * **Histogram percentiles** — within one bucket width of the exact
//!   order statistic, property-tested against sorted samples;
//! * **Cancel retracts** — a cancel expires the request's queued
//!   CREATEs through the links.

use qlink::des::Histogram;
use qlink::net::{chrome_trace_json, spans_jsonl, SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

fn chain(nodes: usize) -> Topology {
    Topology::chain(nodes, |i| lab(40 + i as u64))
}

/// The PR 4 contended grid as an explicit network: armed timeouts,
/// retries, load-aware routing — failures, retractions, and re-issues
/// all on the record. Link seeds and `fmin` mirror the sweep driver's
/// construction.
fn contended_grid(seed: u64, config: TelemetryConfig) -> Network {
    let mut net = contended_grid_issued(seed, config);
    net.run_for(SimDuration::from_millis(700));
    net
}

/// [`contended_grid`]'s network with its six requests issued, before
/// the clock moves.
fn contended_grid_issued(seed: u64, config: TelemetryConfig) -> Network {
    let root = DetRng::new(seed);
    let topo = Topology::grid(4, 4, |i| lab(root.substream(&format!("edge/{i}")).seed()));
    let config = NetConfig {
        telemetry: config,
        metric: RouteMetric::LoadLatency,
        request_timeout: Some(SimDuration::from_millis(300)),
        retries: 2,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, seed, config, ModelCache::new());
    for (src, dst) in [(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)] {
        net.request_entanglement(src, dst, 0.6);
    }
    net
}

/// Everything a run determines, f64s compared by bit pattern.
fn results_fingerprint(net: &mut Network) -> Vec<(u64, u64, u64, u64)> {
    let mut out: Vec<_> = net
        .take_outcomes()
        .iter()
        .map(|o| {
            (
                o.request,
                o.end_to_end_fidelity.to_bits(),
                o.latency.as_ps(),
                o.delivered_at.as_ps(),
            )
        })
        .collect();
    out.push((net.reroutes(), net.timeouts(), net.events_fired(), 0));
    out
}

// ---- passivity ------------------------------------------------------

/// Telemetry off vs. every facet on: bit-identical results. This is
/// the guarantee that lets a CI leg rerun the whole suite under
/// `QLINK_TRACE=1` and expect zero drift.
#[test]
fn telemetry_is_passive_bit_identical_results() {
    let mut off = contended_grid(5, TelemetryConfig::OFF);
    let mut on = contended_grid(5, TelemetryConfig::all());
    assert!(off.telemetry().is_none(), "OFF config stores no telemetry");
    assert!(on.telemetry().is_some());
    assert_eq!(
        results_fingerprint(&mut off),
        results_fingerprint(&mut on),
        "recording must never perturb the run"
    );
}

// ---- golden snapshot ------------------------------------------------

/// Golden snapshot: the complete stage sequence of one request on the
/// 3-node lab chain, seed 7. A SWAP-ASAP story in 10 stages: plan onto
/// 0-1-2, CREATE on both edges, both pairs arrive, the repeater swaps
/// the instant the second pair lands, the Bell frame crosses to the
/// far end, deliver — with the rules each node's table fired logged
/// in between (mark-ready per arm, swap, end-ready). Any change to
/// emission order, hook placement, or the simulation itself shows up
/// here.
#[test]
fn three_node_chain_matches_golden_stage_sequence() {
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(chain(3), 7, config, ModelCache::new());
    net.request_entanglement(0, 2, 0.5);
    let outcome = net
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("lab chain delivers");
    let tl = net.telemetry().expect("telemetry on");
    let stages: Vec<&str> = tl.spans().iter().map(|s| s.stage.name()).collect();
    assert_eq!(
        stages,
        [
            "issue",
            "plan",
            "create",
            "create",
            "add",
            "rule_fired",
            "rule_fired",
            "add",
            "rule_fired",
            "rule_fired",
            "rule_fired",
            "swap",
            "swap_result",
            "rule_fired",
            "swap_result",
            "rule_fired",
            "deliver",
        ],
        "golden stage sequence moved"
    );
    // The `rule_fired` entries are purely additive: without them this
    // is, verbatim, the sequence recorded before every request ran an
    // installed rule table.
    let lifecycle: Vec<&str> = stages
        .iter()
        .copied()
        .filter(|&s| s != "rule_fired")
        .collect();
    assert_eq!(
        lifecycle,
        [
            "issue",
            "plan",
            "create",
            "create",
            "add",
            "add",
            "swap",
            "swap_result",
            "swap_result",
            "deliver",
        ],
        "the request-lifecycle stages moved"
    );
    // The deliver span carries the outcome's exact numbers.
    let SpanStage::Deliver { fidelity, latency } = tl.spans().last().expect("non-empty").stage
    else {
        panic!("last span must be the delivery");
    };
    assert_eq!(fidelity.to_bits(), outcome.end_to_end_fidelity.to_bits());
    assert_eq!(latency, outcome.latency);
}

/// Structural invariants of the chrome-trace export on a run with
/// failure arcs: every `B` has exactly one `E`, timestamps never run
/// backwards, and the JSON is well-formed enough to count braces.
#[test]
fn chrome_trace_is_balanced_and_monotone() {
    let net = contended_grid(5, TelemetryConfig::all());
    let tl = net.telemetry().expect("telemetry on");
    let json = chrome_trace_json(tl.spans());
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    let terminals = tl.spans().iter().filter(|s| s.stage.is_terminal()).count();
    assert!(begins > 0);
    assert_eq!(ends, terminals, "one E per deliver/abandon");
    assert!(
        ends <= begins,
        "a request may outlive the run, but never ends twice"
    );
    let mut last = None;
    for s in tl.spans() {
        assert!(last.is_none_or(|t| t <= s.at), "span timestamps regressed");
        last = Some(s.at);
    }
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "brace-balanced JSON"
    );
}

/// An end-to-end distillation group whose member stream is abandoned
/// closes its own span too: the group id opened with an `issue`, so it
/// ends in exactly one terminal span, and its chrome-trace `B` gets
/// its `E`. (Lab links cannot serve fmin 0.999, so a member UNSUPPs
/// out of its retry budget.)
#[test]
fn an_abandoned_distillation_group_closes_its_span() {
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        policy: Policy::EndToEndPurify,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(chain(3), 7, config, ModelCache::new());
    let group = net.request_entanglement(0, 2, 0.999);
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.timeouts(), 1, "one member ran out of retries");
    let tl = net.telemetry().expect("telemetry on");
    let spans: Vec<_> = tl.spans().iter().filter(|s| s.request == group).collect();
    let terminals = spans.iter().filter(|s| s.stage.is_terminal()).count();
    assert_eq!(terminals, 1, "the group ends exactly once");
    assert!(spans.last().expect("issued").stage.is_terminal());
    let json = chrome_trace_json(tl.spans());
    let close = "\"ph\":\"E\",\"ts\"";
    let group_closes = json
        .lines()
        .filter(|l| l.contains(close) && l.contains(&format!("\"tid\":{group}}}")))
        .count();
    assert_eq!(group_closes, 1, "the group's B has its E");
}

// ---- metrics --------------------------------------------------------

/// Metric counters reconcile exactly with the network's own public
/// counters and with each other.
#[test]
fn metrics_reconcile_with_network_counters() {
    let mut net = contended_grid(5, TelemetryConfig::all());
    let outcomes = net.take_outcomes().len() as u64;
    let m = net.telemetry().expect("telemetry on").metrics();
    assert_eq!(m.completions, outcomes);
    assert_eq!(m.latency.count(), outcomes);
    assert_eq!(m.fidelity.count(), outcomes);
    assert_eq!(m.deliveries.len() as u64, outcomes);
    assert!(m.creates.iter().sum::<u64>() > 0, "CREATEs were counted");
    assert!(m.queue_wait.count() > 0, "queue waits were paired");
    assert!(
        m.queue_wait.count() <= m.creates.iter().sum::<u64>(),
        "at most one wait sample per CREATE"
    );
}

/// Every [`Metrics`](qlink::net::Metrics) figure of one seeded run
/// in which each counter moves somewhere: [`contended_grid`] plus one
/// request at an fmin no Lab link can serve (UNSUPPs, then abandoned)
/// and one request cancelled while its CREATEs are queued (RETRACTs,
/// then EXPIREs). Counters exactly, histograms by count and the bits
/// of their mean, the deliveries series by length and last instant.
#[test]
fn metrics_of_a_seeded_run_are_pinned() {
    let mut net = contended_grid_issued(5, TelemetryConfig::all());
    net.request_entanglement(5, 10, 0.99);
    let cancelled = net.request_entanglement(12, 3, 0.6);
    net.run_for(SimDuration::from_micros(50));
    net.cancel_request(cancelled);
    net.run_for(SimDuration::from_millis(700));
    let m = net.telemetry().expect("telemetry on").metrics();
    let hist = |h: &Histogram| (h.count(), h.mean().to_bits());
    let last = m.deliveries.samples().last().map(|s| s.0.as_ps());
    assert_eq!(
        m.creates,
        [2, 2, 2, 1, 3, 2, 3, 3, 2, 5, 2, 2, 4, 3, 1, 2, 3, 2, 2, 3, 2, 2, 4, 2]
    );
    let retracts = [
        1, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 1, 2, 1, 1,
    ];
    assert_eq!(m.retracts, retracts);
    assert_eq!(m.expires, retracts, "every retraction reached its link");
    let mut unsupp = [0; 24];
    unsupp[9] = 3;
    assert_eq!(m.unsupp, unsupp);
    assert_eq!(m.completions, 5);
    assert_eq!(hist(&m.latency), (5, 4599604577596653333));
    assert_eq!(hist(&m.fidelity), (5, 4598575477975178277));
    assert_eq!(hist(&m.queue_wait), (38, 4592554394037267779));
    assert_eq!((m.deliveries.len(), last), (5, Some(537_311_309_019)));
}

// ---- histogram percentiles ------------------------------------------

/// Property: for seeded random samples, `Histogram::quantile` is
/// within one bucket width of the exact nearest-rank order statistic,
/// for every tested q.
#[test]
fn histogram_quantiles_match_exact_order_statistics() {
    let mut rng = DetRng::new(0x0b5e_0b5e);
    for case in 0..20 {
        let n = 10 + rng.below(400) as usize;
        let mut h = Histogram::new(0.0, 10.0, 64);
        let mut exact = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.uniform() * 10.0;
            h.record(v);
            exact.push(v);
        }
        exact.sort_by(f64::total_cmp);
        let width = h.bucket_width();
        for q in [0.01, 0.25, 0.50, 0.90, 0.99] {
            let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
            let err = (h.quantile(q) - exact[rank]).abs();
            assert!(
                err <= width + 1e-12,
                "case {case}: q={q} off by {err:.4} (> bucket width {width:.4}, n={n})"
            );
        }
    }
}

// ---- cancel retracts ------------------------------------------------

/// Cancelling a request while its CREATEs are still queued inside the
/// links expires them through the links' classical retraction path —
/// visible as RETRACT then EXPIRE counters and `retract` spans.
#[test]
fn cancel_with_retraction_expires_queued_creates() {
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut net = Network::with_config(chain(3), 7, config, ModelCache::new());
    let req = net.request_entanglement(0, 2, 0.5);
    // Long enough for the reservation to land and the CREATEs to be
    // submitted, far too short for a lab link to deliver a pair.
    net.run_for(SimDuration::from_micros(50));
    net.cancel_request(req);
    net.run_for(SimDuration::from_secs(5));
    let m = net.telemetry().expect("telemetry on").metrics();
    let retracts = m.retracts.iter().sum::<u64>();
    let expires = m.expires.iter().sum::<u64>();
    assert!(retracts > 0, "queued CREATEs were retracted");
    assert_eq!(expires, retracts, "every retraction reached its link");
    let spans = spans_jsonl(net.telemetry().expect("telemetry on").spans());
    assert!(spans.contains("\"stage\":\"retract\""));
    assert!(net.take_outcomes().is_empty());
}

// ---- profiling ------------------------------------------------------

/// The profile facet fills in engine numbers without touching the
/// simulation.
#[test]
fn profile_reports_engine_numbers() {
    let net = contended_grid(1, TelemetryConfig::all());
    let p = net.telemetry().expect("telemetry on").profile();
    assert!(p.wall_nanos > 0);
    // `events_handled` counts shared-queue events; the network's
    // public counter adds every link's internal events on top.
    assert!(p.events_handled > 0);
    assert!(p.events_handled <= net.events_fired());
    assert!(p.queue_depth_high_water > 0);
    assert!(p.to_json().contains("\"queue_depth_high_water\""));
}
