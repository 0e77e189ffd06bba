//! Golden suite for the RuleSet control plane (`qlink::net::ruleset`),
//! the only per-node engine.
//!
//! The contract under test: the interpreted tables reproduce, bit for
//! bit, the trajectories of the hand-written SWAP-ASAP state
//! machine they replaced — same outcomes, same RNG draws, same event
//! counts — across chains, the contended 4×4 grid, both purification
//! policies and single-edge paths. The hard-coded machine's verdicts
//! were frozen as the `fingerprint` literals below at commit
//! `ab9c824`, the last one that
//! carried both engines (where the interpreter equalled every literal
//! too). Their `events` element (index 4) alone was re-recorded when a
//! link attempt went from ten events to four — photons and GENs reach
//! the station at emission, reply deadlines wait in a per-link FIFO —
//! which fires fewer events for the same trajectory; the other eight
//! elements are the `ab9c824` capture. The data-only policies
//! — threshold-gated purification and k-round entanglement pumping —
//! are pinned behaviourally: a gated-out threshold is
//! indistinguishable from plain SWAP-ASAP, one pump round is
//! indistinguishable from link-purify, and more rounds consume more
//! pairs for more fidelity.

use qlink::net::sweep::{run_one, RunRecord};
use qlink::net::TelemetryConfig;
use qlink::prelude::*;

/// Every field of a [`RunRecord`] that a simulation trajectory
/// determines, f64 compared by bit pattern.
type Fingerprint = [u64; 9];

fn fingerprint(r: &RunRecord) -> Fingerprint {
    [
        r.successes.into(),
        r.rounds.into(),
        r.timeouts.into(),
        r.reroutes,
        r.events,
        r.pairs_consumed,
        r.fidelity.mean().to_bits(),
        r.latency_s.mean().to_bits(),
        r.latency_s.variance().to_bits(),
    ]
}

/// Asserts that `spec` reproduces, per seed, the record the
/// hard-coded machine produced for it at `ab9c824`.
fn assert_matches_hardcoded(spec: &ScenarioSpec, golden: &[(u64, Fingerprint)]) {
    for &(seed, hard) in golden {
        assert_eq!(
            fingerprint(&run_one(spec, seed)),
            hard,
            "{}: interpreted {} diverged from the frozen hard-coded record at seed {seed}",
            spec.name,
            spec.net.policy.name()
        );
    }
}

#[test]
fn interpreted_swap_asap_matches_hardcoded_on_chains() {
    let spec = ScenarioSpec::lab_chain("chain-3", 3)
        .with_rounds(2)
        .with_max_time(SimDuration::from_secs(25));
    #[rustfmt::skip]
    let hard = [
        (1, [2, 2, 0, 0, 404846, 4, 4599619521836574833, 4598388233409594216, 4569866618796350589]),
        (7, [2, 2, 0, 0, 141187, 4, 4599786584738351710, 4589311758245325074, 4530160925900384171]),
    ];
    assert_matches_hardcoded(&spec, &hard);
}

#[test]
fn interpreted_swap_asap_matches_hardcoded_on_one_hop() {
    // Single-edge paths: the only case where an end's table completes
    // without swap results.
    let spec = ScenarioSpec::lab_chain("one-hop", 2)
        .with_rounds(3)
        .with_max_time(SimDuration::from_secs(10));
    #[rustfmt::skip]
    let hard = [
        (2, [3, 3, 0, 0, 185989, 3, 4604252624975988762, 4591650132507820539, 4566427212165199399]),
        (9, [3, 3, 0, 0, 266163, 3, 4604252624975988762, 4594154810761638530, 4579193067056446059]),
    ];
    assert_matches_hardcoded(&spec, &hard);
}

#[test]
fn interpreted_swap_asap_matches_hardcoded_on_contended_grid() {
    // The PR 4 contention scenario: armed timeouts, retries, re-routes
    // — attempts must release, park, re-plan (pricing through
    // Policy::price), and re-install tables identically.
    let spec = ScenarioSpec::lab_grid("contended-grid", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)])
        .with_metric(RouteMetric::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2)
        .with_max_time(SimDuration::from_millis(700));
    let probe = run_one(&spec, 5);
    assert!(probe.reroutes > 0, "seed must actually exercise re-routing");
    #[rustfmt::skip]
    let hard = [
        (1, [5, 6, 1, 5, 3529652, 22, 4598575477975178277, 4599514445687038339, 4584897020997715398]),
        (5, [5, 6, 1, 4, 3954542, 22, 4598575477975178277, 4599305596262321818, 4584134522147635500]),
    ];
    assert_matches_hardcoded(&spec, &hard);
}

#[test]
fn interpreted_link_purify_matches_hardcoded_link_level() {
    // The table alone recreates the hard-coded link-level machine
    // (double CREATEs, distill, regenerate on reject) and
    // Policy::price its purified route pricing.
    let spec = ScenarioSpec::lab_chain("link-purify", 4)
        .with_carbon_t2(10.0)
        .with_max_time(SimDuration::from_secs(40))
        .with_policy(Policy::LinkPurify);
    #[rustfmt::skip]
    let hard = [
        (3, [1, 1, 0, 0, 389340, 6, 4601081113931079488, 4598685209851567502, 0]),
    ];
    assert_matches_hardcoded(&spec, &hard);
}

#[test]
fn interpreted_end_to_end_matches_hardcoded_end_to_end() {
    let spec = ScenarioSpec::lab_chain("e2e-purify", 4)
        .with_carbon_t2(10.0)
        .with_max_time(SimDuration::from_secs(40))
        .with_policy(Policy::EndToEndPurify);
    #[rustfmt::skip]
    let hard = [
        (3, [1, 1, 0, 0, 389343, 6, 4600262216086889870, 4598685210200074056, 0]),
    ];
    assert_matches_hardcoded(&spec, &hard);
}

// ---- passivity ------------------------------------------------------

fn chain(n: usize) -> Topology {
    Topology::chain(n, |i| LinkConfig::lab(WorkloadSpec::none(), 100 + i as u64))
}

/// `SpanStage::RuleFired` is observation, not behaviour: a run
/// produces bit-identical results with telemetry on or off.
#[test]
fn rule_fired_telemetry_never_moves_a_bit() {
    let run = |telemetry: bool| {
        let config = NetConfig {
            policy: Policy::LinkPurify,
            telemetry: if telemetry {
                TelemetryConfig::all()
            } else {
                TelemetryConfig::OFF
            },
            ..NetConfig::default()
        };
        let mut net = Network::with_config(chain(4), 11, config, ModelCache::new());
        net.request_entanglement(0, 3, 0.5);
        let out = net
            .run_until_outcome(SimDuration::from_secs(40))
            .expect("delivers");
        (
            out.end_to_end_fidelity.to_bits(),
            out.latency.as_ps(),
            net.events_fired(),
        )
    };
    assert_eq!(run(false), run(true), "telemetry moved the run");
}

// ---- the data-only policies -----------------------------------------

/// A threshold no edge is below compiles every edge to a zero-round
/// program: the run is bit-identical to plain SWAP-ASAP.
/// A threshold every edge is below is bit-identical to link-purify.
#[test]
fn threshold_purify_degenerates_to_its_neighbours() {
    let base = ScenarioSpec::lab_chain("threshold", 4)
        .with_carbon_t2(10.0)
        .with_max_time(SimDuration::from_secs(40));
    let run =
        |policy: Policy, seed: u64| fingerprint(&run_one(&base.clone().with_policy(policy), seed));
    let seed = 3;
    assert_eq!(
        run(Policy::ThresholdPurify { theta: 0.0 }, seed),
        run(Policy::SwapAsap, seed),
        "theta below every edge must behave as SWAP-ASAP"
    );
    assert_eq!(
        run(Policy::ThresholdPurify { theta: 1.0 }, seed),
        run(Policy::LinkPurify, seed),
        "theta above every edge must behave as link-purify"
    );
}

/// Pumping degenerates correctly at its edges (0 rounds = SWAP-ASAP,
/// 1 round = link-purify) and a second round spends more link pairs
/// on the delivered outcome.
#[test]
fn pump_rounds_scale_pair_cost() {
    let base = ScenarioSpec::lab_chain("pump", 4)
        .with_carbon_t2(10.0)
        .with_max_time(SimDuration::from_secs(40));
    let run = |policy: Policy, seed: u64| run_one(&base.clone().with_policy(policy), seed);
    let seed = 3;
    let asap = run(Policy::SwapAsap, seed);
    let one = run(Policy::LinkPurify, seed);
    assert_eq!(
        fingerprint(&run(Policy::PumpRounds { rounds: 0 }, seed)),
        fingerprint(&asap),
        "0 rounds must behave as SWAP-ASAP"
    );
    assert_eq!(
        fingerprint(&run(Policy::PumpRounds { rounds: 1 }, seed)),
        fingerprint(&one),
        "1 round must behave as link-purify"
    );
    let two = run(Policy::PumpRounds { rounds: 2 }, seed);
    assert!(
        two.successes == 0 || asap.successes == 0 || two.pairs_consumed > asap.pairs_consumed,
        "a delivered two-round outcome must consume more pairs than SWAP-ASAP \
         (pump {} vs asap {})",
        two.pairs_consumed,
        asap.pairs_consumed
    );
}

/// The sweep matrix carries the [`Policy`] end to end: a two-cell
/// sweep mixing the default and an explicitly chosen policy merges
/// deterministically and names the policies.
#[test]
fn sweep_matrix_carries_policy_choice() {
    let specs = vec![
        ScenarioSpec::lab_chain("default", 3).with_max_time(SimDuration::from_secs(25)),
        ScenarioSpec::lab_chain("gated-out", 3)
            .with_max_time(SimDuration::from_secs(25))
            .with_policy(Policy::ThresholdPurify { theta: 0.0 }),
    ];
    assert_eq!(specs[0].net.policy.name(), "rs-swap-asap");
    assert_eq!(specs[1].net.policy.name(), "rs-threshold");
    let report = sweep(&specs, &[1], 2);
    assert_eq!(report.runs.len(), 2);
    // Same physics, same seed, same decisions: the gated-out
    // threshold cell reproduces the SWAP-ASAP record bit for bit
    // inside the sweep.
    assert_eq!(fingerprint(&report.runs[0]), fingerprint(&report.runs[1]));
}
