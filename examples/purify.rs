//! Network-layer entanglement purification: the fidelity-vs-throughput
//! tradeoff of 2→1 DEJMPS distillation.
//!
//! Sweeps a 5-node repeater chain (dynamically decoupled carbon
//! memories) under the three purification policies and prints the
//! tradeoff the route-pricing layer reasons about: link-level
//! distillation buys end-to-end fidelity with double the link pairs
//! per delivery and longer rounds.
//!
//! Run with:
//! ```sh
//! cargo run --release --example purify
//! ```

use qlink::prelude::*;

fn main() {
    // The closed-form primitive the whole layer is built on.
    println!("2->1 DEJMPS distillation of two equal Werner pairs:");
    for f in [0.55, 0.65, 0.75, 0.85, 0.95] {
        let out = distill_werner(f, f);
        println!(
            "  F = {f:.2}: p_succ = {:.3}, F' = {:.4} ({}{:.4})",
            out.success_probability,
            out.output_fidelity,
            if out.output_fidelity >= f { "+" } else { "-" },
            (out.output_fidelity - f).abs()
        );
    }

    // How the planner prices a purifying route.
    let topo = Topology::chain(5, |i| {
        let mut cfg = LinkConfig::lab(WorkloadSpec::none(), 50 + i as u64);
        cfg.scenario.nv.carbon_t2 = 10.0;
        cfg
    });
    let planner = RoutePlanner::new(&topo);
    let p = planner.profile(0);
    let (distilled_f, distilled_latency) = p.purified_after(1);
    println!();
    println!(
        "edge profile: F = {:.3} raw vs {:.3} purified, E[latency] = {:.0} ms raw vs {:.0} ms purified",
        p.fidelity,
        distilled_f,
        p.expected_latency.as_secs_f64() * 1e3,
        distilled_latency.as_secs_f64() * 1e3,
    );

    // The sweep: same chain, same seeds, three policies.
    let base = || {
        ScenarioSpec::lab_chain("", 5)
            .with_rounds(2)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
    };
    let mut off = base().with_policy(Policy::SwapAsap);
    off.name = "off".into();
    let mut link = base().with_policy(Policy::LinkPurify);
    link.name = "link-level".into();
    let mut e2e = base().with_policy(Policy::EndToEndPurify);
    e2e.name = "end-to-end".into();

    let report = sweep(&[off, link, e2e], &[1, 2, 3], 3);
    println!();
    println!("5-node chain, 2 rounds x 3 seeds, per policy:");
    println!("  policy       delivered  mean F   pairs/delivery  mean latency");
    for s in &report.scenarios {
        println!(
            "  {:<12} {:>3}/{:<5} {:>8.4} {:>11.1} {:>13.3} s",
            s.name,
            s.successes,
            s.rounds,
            s.fidelity.mean(),
            s.pairs_consumed as f64 / s.successes.max(1) as f64,
            s.latency_s.mean(),
        );
    }
    println!();
    println!("link-level purification buys its fidelity with twice the link");
    println!("pairs per delivery plus a parity round trip per edge; end-to-end");
    println!("distillation needs the composed fidelity above 1/2 to gain.");
}
