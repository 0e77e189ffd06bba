//! The RuleSet control plane: protocol logic as data.
//!
//! Per-node behaviour is data — a [`Policy`] compiles into an ordered
//! table of condition→action rules installed on every path node, and
//! a tiny interpreter replays them per event. This example runs
//! **threshold purification** (distill only the edges whose estimated
//! fidelity sits below θ) side by side with **always purify**
//! ([`Policy::LinkPurify`]) and **never purify**
//! ([`Policy::SwapAsap`]) on the same seeds.
//!
//! Run with:
//! ```sh
//! cargo run --release --example ruleset
//! ```

use qlink::prelude::*;

fn mixed_chain() -> Topology {
    Topology::chain(5, |i| {
        let mut cfg = LinkConfig::lab(WorkloadSpec::none(), 50 + i as u64);
        cfg.scenario.nv.carbon_t2 = 10.0;
        if i == 1 {
            // One visibly degraded link in an otherwise clean chain.
            cfg.scenario.optics.visibility *= 0.93;
        }
        cfg
    })
}

fn main() {
    // A policy is data: print the table ThresholdPurify compiles to.
    let theta = 0.715;
    let policy = Policy::ThresholdPurify { theta };
    let rules = policy.ruleset();
    println!("{} compiles to {} rules:", policy.name(), rules.rules.len());
    for (i, rule) in rules.rules.iter().enumerate() {
        println!(
            "  [{i}] on {:?} when {:?} then {:?}",
            rule.on, rule.when, rule.then
        );
    }

    // What the install rule decides per edge: a mixed-quality chain
    // where only the degraded middle edge falls below θ.
    let topo = mixed_chain();
    let planner = RoutePlanner::new(&topo);
    println!();
    println!("edge programs at theta = {theta}:");
    for e in 0..topo.edge_count() {
        let f = planner.profile(e).fidelity;
        let program = rules.edge_program(f);
        println!(
            "  edge {e}: F_est = {f:.4} -> {}",
            if program.rounds > 0 {
                "purify (below theta)"
            } else {
                "pass through"
            }
        );
    }

    // Side by side on the same mixed chain at equal seeds: never /
    // threshold / always purify. The threshold cell pays the
    // double-pair price only on the degraded edge.
    let cells: [(&str, Policy); 3] = [
        ("never (swap-asap)", Policy::SwapAsap),
        ("threshold 0.715", policy),
        ("always (purify)", Policy::LinkPurify),
    ];
    println!();
    println!("same chain, 3 deliveries each:");
    println!("  policy            delivered   mean F   pairs/delivery");
    for (name, pol) in cells {
        let config = NetConfig {
            policy: pol,
            ..NetConfig::default()
        };
        let mut net = Network::with_config(mixed_chain(), 9, config, ModelCache::new());
        let (mut delivered, mut pairs, mut fid) = (0u32, 0u32, 0.0f64);
        for _ in 0..3 {
            net.request_entanglement(0, 4, 0.6);
            if let Some(out) = net.run_until_outcome(SimDuration::from_secs(30)) {
                delivered += 1;
                pairs += out.pairs_consumed;
                fid += out.end_to_end_fidelity;
            }
        }
        println!(
            "  {:<18} {:>3}/3   {:>8.4} {:>11.1}",
            name,
            delivered,
            fid / delivered.max(1) as f64,
            pairs as f64 / delivered.max(1) as f64,
        );
    }

    println!();
    println!("threshold purification pays the double-pair price only on the");
    println!("edges that need it — the rule table, not the engine, decides.");
}
