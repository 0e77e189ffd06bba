//! The NL use case carried to its purpose: a repeater chain on one
//! shared clock.
//!
//! The network layer builds long-distance entanglement by requesting
//! NL-type pairs on adjacent links and fusing them with entanglement
//! swapping (paper Figure 1b and §3.3 "Network Layer use case"). Here
//! a 3-node chain runs both Lab-class hops — each the full EGP/MHP
//! stack — on a **single shared event queue**: the middle node swaps
//! the instant both its pairs exist (SWAP-ASAP), the Bell-measurement
//! outcome travels classical control channels to the ends, and the
//! reported latency is the true simulated time until both ends hold a
//! usable pair. A small parallel sweep then fans scenarios × seeds
//! across OS threads.
//!
//! Run with:
//! ```sh
//! cargo run --release --example repeater
//! ```

use qlink::net::sweep::run_one;
use qlink::net::{SpanStage, TelemetryConfig};
use qlink::prelude::*;

fn main() {
    // --- one end-to-end generation, traced -------------------------
    let topo = Topology::chain(3, |i| {
        LinkConfig::lab(WorkloadSpec::none(), 11 + 11 * i as u64)
    });
    let mut net = Network::new(topo, 7);
    net.set_telemetry(TelemetryConfig::all());

    println!("3-node chain, both hops on one shared event queue...");
    net.request_entanglement(0, 2, 0.6);
    let out = net
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("hops should deliver within 30 simulated seconds");

    for (i, f) in out.link_fidelities.iter().enumerate() {
        println!("  hop {} link fidelity : {f:.4}", i + 1);
    }
    println!(
        "  swaps performed      : {} (BSM parity Z={} X={}, folded in at swap time)",
        out.swaps, out.frame_z, out.frame_x
    );
    println!(
        "  end-to-end latency   : {:.3} s (CREATE → both ends frame-fixed)",
        out.latency.as_secs_f64()
    );
    println!(
        "  end-to-end fidelity  : {:.4} after swap + memory decay",
        out.end_to_end_fidelity
    );
    println!("  usable (F > 1/2)     : {}", out.end_to_end_fidelity > 0.5);

    // The spans are one monotone SimTime stream interleaving every
    // link's deliveries with the control plane.
    let spans = net.telemetry().expect("telemetry on").spans();
    let adds = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::Add { .. }))
        .count();
    let ctrl = spans
        .iter()
        .filter(|s| matches!(s.stage, SpanStage::SwapResult { .. }))
        .count();
    println!(
        "  shared-clock spans   : {} entries ({adds} link deliveries, {ctrl} swap results)",
        spans.len()
    );

    // --- scenario sweep across OS threads ---------------------------
    // At least two workers so the fan-out is exercised even on a
    // single-core box (OS threads, not cores, bound the matrix).
    let threads = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(2, 8);
    println!();
    println!("sweeping 2 scenarios x 4 seeds across {threads} threads...");
    let specs = vec![
        ScenarioSpec::lab_chain("lab-2hop", 3),
        ScenarioSpec::lab_chain("lab-3hop", 4).with_max_time(SimDuration::from_secs(30)),
    ];
    let report = sweep(&specs, &[1, 2, 3, 4], threads);
    for s in &report.scenarios {
        println!(
            "  {:<9} {}/{} rounds ok, mean F = {:.4}, mean latency = {:.3} s, {} events",
            s.name,
            s.successes,
            s.rounds,
            s.fidelity.mean(),
            s.latency_s.mean(),
            s.events,
        );
    }
    // Single runs are reproducible regardless of the sweep threading.
    let lone = run_one(&specs[0], 1);
    assert_eq!(
        lone.events, report.runs[0].events,
        "determinism across drivers"
    );

    println!();
    println!("swapping multiplies link infidelities — this is why the paper gives");
    println!("NL requests strict priority: the network layer wants fresh,");
    println!("simultaneous link pairs before memories decay.");
}
