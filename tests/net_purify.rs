//! End-to-end tests for network-layer 2→1 entanglement purification:
//! the link-level rule inside the SWAP-ASAP machines, end-to-end
//! distillation of concurrent streams, the fidelity-vs-throughput
//! tradeoff in the sweep driver, seeded property-style bounds, and the
//! `RunRecord` attempt-accounting regression.

use qlink::net::sweep::{run_one, RunRecord};
use qlink::prelude::*;

/// A Lab link whose carbon memory is dynamically decoupled (long
/// `T2*`): purification needs the first pair to survive while its
/// partner is generated, which Table 6's bare 3.5 ms cannot.
fn long_memory_lab(seed: u64) -> LinkConfig {
    let mut cfg = LinkConfig::lab(WorkloadSpec::none(), seed);
    cfg.scenario.nv.carbon_t2 = 10.0;
    cfg
}

/// A purification-grade link: a 100 s carbon `T2*`, ideal optics (unit
/// visibility, no two-photon emission, no phase noise) and a noiseless
/// EC-√X gate and carbon initialisation, pushing the FEU ceiling high
/// enough that a 3-hop chain composes above the F > 1/2 distillation
/// threshold — the regime where *end-to-end* purification can pay off.
fn clean_lab(seed: u64) -> LinkConfig {
    let mut cfg = LinkConfig::lab(WorkloadSpec::none(), seed);
    cfg.scenario.nv.carbon_t2 = 100.0;
    cfg.scenario.optics.visibility = 1.0;
    cfg.scenario.optics.two_photon_prob = 0.0;
    cfg.scenario.optics.phase_sigma_rad = 0.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 1.0;
    cfg.scenario.nv.carbon_init.fidelity = 1.0;
    cfg
}

/// Werner-parameter composition of link fidelities: the no-decay swap
/// product an end-to-end pair cannot beat without purification.
fn swap_product(links: &[f64]) -> f64 {
    let w: f64 = links.iter().map(|&f| (4.0 * f - 1.0) / 3.0).product();
    (1.0 + 3.0 * w) / 4.0
}

#[test]
fn link_level_purification_boosts_a_single_hop() {
    let run = |policy: Policy| {
        let topo = Topology::chain(2, |i| long_memory_lab(50 + i as u64));
        let config = NetConfig {
            policy,
            ..NetConfig::default()
        };
        let mut net = Network::with_config(topo, 9, config, ModelCache::new());
        net.request_entanglement(0, 1, 0.6);
        let out = net
            .run_until_outcome(SimDuration::from_secs(120))
            .expect("single hop delivers");
        (out, net.purify_attempts(0), net.pairs_delivered(0))
    };

    let (off, off_attempts, off_pairs) = run(Policy::SwapAsap);
    assert_eq!(off.pairs_consumed, 1);
    assert_eq!(off_attempts, 0);
    assert_eq!(off_pairs, 1);
    assert!(!off.distilled);
    assert_eq!(off.pair_fidelities, vec![vec![off.link_fidelities[0]]]);

    let (pur, pur_attempts, pur_pairs) = run(Policy::LinkPurify);
    // Two raw pairs in, one boosted pair out: the recorded link
    // fidelity is the distillation output of the recorded inputs.
    assert_eq!(pur_pairs, 2 * pur_attempts);
    assert_eq!(u64::from(pur.pairs_consumed), pur_pairs);
    assert_eq!(pur.pair_fidelities[0].len() as u64, pur_pairs);
    assert!(
        pur.link_fidelities[0] > off.link_fidelities[0],
        "distilled link fidelity {} must beat raw {}",
        pur.link_fidelities[0],
        off.link_fidelities[0]
    );
    assert!(pur.end_to_end_fidelity > off.end_to_end_fidelity);
    // The parity-bit exchange costs real simulated time.
    assert!(pur.latency > off.latency);
}

#[test]
fn end_to_end_distillation_beats_off_on_a_4_node_chain() {
    let run = |policy: Policy| {
        let topo = Topology::chain(4, |i| clean_lab(70 + i as u64));
        let config = NetConfig {
            policy,
            ..NetConfig::default()
        };
        let mut net = Network::with_config(topo, 11, config, ModelCache::new());
        net.request_entanglement(0, 3, 0.8);
        net.run_until_outcome(SimDuration::from_secs(600))
            .expect("the 4-node chain delivers")
    };

    let off = run(Policy::SwapAsap);
    let e2e = run(Policy::EndToEndPurify);

    // SWAP-ASAP composes three swapped links; its fidelity must sit above
    // the distillation threshold for end-to-end purification to gain.
    assert!(!off.distilled);
    assert_eq!(off.swaps, 2);
    assert_eq!(off.pairs_consumed, 3);
    assert!(off.end_to_end_fidelity > 0.5);

    // End-to-end distillation merges two whole streams into one boosted pair…
    assert!(e2e.distilled);
    assert!(
        e2e.end_to_end_fidelity > off.end_to_end_fidelity,
        "distilled e2e fidelity {} must beat SWAP-ASAP {}",
        e2e.end_to_end_fidelity,
        off.end_to_end_fidelity
    );
    // …at strictly lower pair throughput: at least double the link
    // pairs and the extra classical parity round trip.
    assert!(e2e.pairs_consumed >= 2 * off.pairs_consumed);
    assert!(e2e.swaps >= 2 * off.swaps);
    assert!(e2e.latency > off.latency);

    // Bit-identical across reruns of the same seed.
    let again = run(Policy::EndToEndPurify);
    assert_eq!(
        e2e.end_to_end_fidelity.to_bits(),
        again.end_to_end_fidelity.to_bits()
    );
    assert_eq!(e2e.latency, again.latency);
    assert_eq!(e2e.pairs_consumed, again.pairs_consumed);

    // This seed's group rejects its first parity check and
    // regenerates (visible as more than the minimal 2 × 3 pairs): its
    // member streams are re-issued under the group's SWAP-ASAP terms.
    assert!(e2e.pairs_consumed > 6, "seed must exercise regeneration");
}

/// The acceptance sweep: over a 5-node chain, `LinkPurify` delivers
/// strictly higher mean end-to-end fidelity than `SwapAsap` — and pays for
/// it with more link pairs per delivered pair and higher latency —
/// deterministically per seed.
#[test]
fn sweep_link_level_beats_off_on_fidelity_at_lower_throughput() {
    let specs = vec![
        ScenarioSpec::lab_chain("off", 5)
            .with_rounds(2)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
            .with_policy(Policy::SwapAsap),
        ScenarioSpec::lab_chain("link-level", 5)
            .with_rounds(2)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
            .with_policy(Policy::LinkPurify),
    ];
    let seeds = [1, 2];
    let report = sweep(&specs, &seeds, 2);
    let off = &report.scenarios[0];
    let pur = &report.scenarios[1];

    // Both policies deliver every round within budget.
    assert_eq!(off.successes, off.rounds);
    assert_eq!(pur.successes, pur.rounds);

    // Strictly higher mean fidelity…
    assert!(
        pur.fidelity.mean() > off.fidelity.mean(),
        "link-level mean {} must beat off mean {}",
        pur.fidelity.mean(),
        off.fidelity.mean()
    );
    // …at lower pair throughput: more link pairs spent per delivered
    // end-to-end pair, and more simulated time per delivery.
    let off_cost = off.pairs_consumed as f64 / off.successes as f64;
    let pur_cost = pur.pairs_consumed as f64 / pur.successes as f64;
    assert!(
        pur_cost >= 2.0 * off_cost,
        "purified pair cost {pur_cost} must at least double {off_cost}"
    );
    assert!(pur.latency_s.mean() > off.latency_s.mean());

    // Deterministic per seed: the whole report reproduces bit for bit.
    let again = sweep(&specs, &seeds, 1);
    for (a, b) in report.runs.iter().zip(&again.runs) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.pairs_consumed, b.pairs_consumed);
        assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
        assert_eq!(a.latency_s.mean().to_bits(), b.latency_s.mean().to_bits());
        assert_eq!(a.events, b.events);
    }
}

/// Property-style seeded sweep over random chain lengths and link
/// configurations: delivered fidelity stays physical, never falls
/// below the no-purification swap product of the raw pairs actually
/// distilled (all above the F > 1/2 threshold here), and the pair
/// accounting matches the per-edge ledgers.
#[test]
fn seeded_purification_properties_hold_over_random_chains() {
    let mut rng = DetRng::new(0xBEEF).substream("net-purify/property");
    for trial in 0..6 {
        let nodes = 2 + rng.below(3) as usize; // 2..=4 nodes
        let link_seed = rng.below(1 << 20);
        let net_seed = rng.below(1 << 20);
        let t2 = 5.0 + rng.uniform() * 45.0;
        let topo = Topology::chain(nodes, |i| {
            let mut cfg = LinkConfig::lab(WorkloadSpec::none(), link_seed + i as u64);
            cfg.scenario.nv.carbon_t2 = t2;
            cfg
        });
        let edge_count = topo.edge_count();
        let config = NetConfig {
            policy: Policy::LinkPurify,
            ..NetConfig::default()
        };
        let mut net = Network::with_config(topo, net_seed, config, ModelCache::new());
        net.request_entanglement(0, nodes - 1, 0.6);
        let out = net
            .run_until_outcome(SimDuration::from_secs(600))
            .unwrap_or_else(|| panic!("trial {trial}: no delivery"));

        // Physical fidelity.
        assert!(
            out.end_to_end_fidelity > 0.25 && out.end_to_end_fidelity <= 1.0,
            "trial {trial}: unphysical fidelity {}",
            out.end_to_end_fidelity
        );

        // Every raw input sat above the distillation threshold, so the
        // delivered fidelity must not fall below the plain swap
        // product of the *worst* raw pairs (decay across the parity
        // exchanges is the only slack; the tolerance covers it).
        let worst_raw: Vec<f64> = out
            .pair_fidelities
            .iter()
            .map(|pairs| pairs.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        assert!(
            worst_raw.iter().all(|&f| f > 0.5),
            "trial {trial}: raw pair below threshold: {worst_raw:?}"
        );
        let floor = swap_product(&worst_raw) - 0.03;
        assert!(
            out.end_to_end_fidelity >= floor,
            "trial {trial}: fidelity {} below no-purification floor {floor}",
            out.end_to_end_fidelity
        );
        // The recorded per-edge fidelities are the distillation
        // outputs: each must beat the worst raw input of its edge.
        for (pos, (&used, &raw)) in out.link_fidelities.iter().zip(&worst_raw).enumerate() {
            assert!(
                used > raw,
                "trial {trial} edge {pos}: distilled {used} ≤ raw {raw}"
            );
        }

        // Pair accounting matches the per-edge ledgers: two delivered
        // pairs per attempt, exactly one accepted attempt per edge,
        // and the outcome's total equals the ledger total.
        let mut total = 0;
        for e in 0..edge_count {
            assert_eq!(
                net.pairs_delivered(e),
                2 * net.purify_attempts(e),
                "trial {trial} edge {e}: pairs vs attempts"
            );
            assert_eq!(
                net.purify_successes(e),
                1,
                "trial {trial} edge {e}: one accepted distillation"
            );
            assert!(net.purify_attempts(e) >= 1);
            total += net.pairs_delivered(e);
            assert_eq!(net.edge_load(e), 0, "trial {trial}: load released");
        }
        assert_eq!(u64::from(out.pairs_consumed), total);
        assert_eq!(
            out.pair_fidelities.iter().map(Vec::len).sum::<usize>() as u64,
            total
        );
    }
}

/// Regression for the `RunRecord` attempt accounting: `rounds` counts
/// logical requests as issued — multipath streams that abort on
/// UNSUPP still count exactly once each, end-to-end rounds count once
/// (not once per internal stream), and `successes` can never exceed
/// `rounds`.
#[test]
fn run_record_attempt_accounting_is_exact() {
    let check = |r: &RunRecord| {
        assert!(
            r.successes <= r.rounds,
            "successes {} exceed attempts {}",
            r.successes,
            r.rounds
        );
    };

    // Every multipath stream aborts on UNSUPP: 2 rounds × 2 streams =
    // 4 attempts, 0 successes — no double count from the fallback
    // best-effort routes.
    let mut spec = ScenarioSpec::lab_chain("unsupp", 3)
        .with_rounds(2)
        .with_streams(2)
        .with_max_time(SimDuration::from_millis(10));
    spec.fmin = 0.95;
    let record = run_one(&spec, 1);
    assert_eq!(record.rounds, 4);
    assert_eq!(record.successes, 0);
    assert_eq!(record.pairs_consumed, 0);
    check(&record);

    // Feasible multipath: all four attempts deliver.
    let spec = ScenarioSpec::lab_chain("feasible", 2)
        .with_rounds(2)
        .with_streams(2)
        .with_max_time(SimDuration::from_secs(30));
    let record = run_one(&spec, 1);
    assert_eq!(record.rounds, 4);
    assert_eq!(record.successes, 4);
    assert_eq!(record.pairs_consumed, 4);
    check(&record);

    // End-to-end rounds are one logical attempt each, although two
    // internal streams (and at least two link pairs) feed every one.
    let spec = ScenarioSpec::lab_chain("e2e", 2)
        .with_rounds(2)
        .with_streams(2) // ignored under EndToEndPurify
        .with_max_time(SimDuration::from_secs(60))
        .with_carbon_t2(10.0)
        .with_policy(Policy::EndToEndPurify)
        .with_metric(RouteMetric::Fidelity);
    let record = run_one(&spec, 1);
    assert_eq!(record.rounds, 2);
    assert_eq!(record.successes, 2);
    assert!(record.pairs_consumed >= 4);
    check(&record);
}
