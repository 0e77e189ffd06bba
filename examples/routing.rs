//! Fidelity-aware routing and concurrent multi-path requests.
//!
//! Builds a diamond network with a short noisy arm and a long clean
//! arm, shows how the route choice flips between hop-count and
//! fidelity-product metrics, then splits two concurrent same-pair
//! requests across edge-disjoint arms of a symmetric diamond and runs
//! them to completion on the shared clock.
//!
//! Run with:
//! ```sh
//! cargo run --release --example routing
//! ```

use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// A Lab link with badly degraded optics and a lossy memory gate.
fn noisy_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.optics.visibility = 0.4;
    cfg.scenario.optics.two_photon_prob = 0.2;
    cfg.scenario.optics.phase_sigma_rad *= 3.0;
    cfg.scenario.nv.ec_sqrt_x.fidelity = 0.9;
    cfg
}

fn main() {
    // --- metric comparison on a short-noisy vs long-clean diamond ---
    //     1            short arm 0-1-4: two noisy hops
    //    / \
    //   0   4
    //    \ /
    //     2---3        long arm 0-2-3-4: three clean hops
    let mut topo = Topology::new();
    for _ in 0..5 {
        topo.add_node();
    }
    topo.connect(0, 1, noisy_lab(10));
    topo.connect(1, 4, noisy_lab(11));
    topo.connect(0, 2, lab(12));
    topo.connect(2, 3, lab(13));
    topo.connect(3, 4, lab(14));

    let planner = RoutePlanner::new(&topo);
    println!("edge profiles (FEU at the reference alpha):");
    for p in planner.profiles() {
        let e = topo.edge(p.edge);
        println!(
            "  edge {} ({}-{}): F = {:.3}, ceiling = {:.3}, psucc = {:.2e}, E[latency] = {:.0} ms",
            p.edge,
            e.a,
            e.b,
            p.fidelity,
            p.fidelity_ceiling,
            p.success_probability,
            p.expected_latency.as_secs_f64() * 1e3,
        );
    }

    println!();
    for metric in [
        RouteMetric::Hops,
        RouteMetric::Latency,
        RouteMetric::Fidelity,
    ] {
        let ctx = PlanContext {
            metric,
            fmin: 0.4,
            ..PlanContext::new(0, 4)
        };
        let routes = planner.routes(&topo, &ctx);
        let route = routes.first().expect("diamond is connected");
        println!(
            "  {:<9} routes 0 -> 4 via {:?} (cost {:.3})",
            metric.name(),
            route.nodes,
            route.cost
        );
    }
    println!("  the fidelity product pays an extra hop for clean links:");
    println!("  0.72^3 = 0.37 end-to-end beats 0.46^2 = 0.21.");

    // --- concurrent multi-path requests on a symmetric diamond ------
    let mut sym = Topology::new();
    for _ in 0..4 {
        sym.add_node();
    }
    sym.connect(0, 1, lab(21));
    sym.connect(1, 3, lab(22));
    sym.connect(0, 2, lab(23));
    sym.connect(2, 3, lab(24));

    let mut net = Network::new(sym, 5);
    let requests = net.request_entanglement_multipath(0, 3, 0.6, 2);
    println!();
    println!(
        "issued {} concurrent requests 0 -> 3; per-edge load: {:?}",
        requests.len(),
        (0..4).map(|e| net.edge_load(e)).collect::<Vec<_>>()
    );
    for _ in 0..requests.len() {
        let out = net
            .run_until_outcome(SimDuration::from_secs(60))
            .expect("both streams deliver");
        println!(
            "  request {} via {:?}: F = {:.4}, latency = {:.3} s, {} swap(s)",
            out.request,
            out.path,
            out.end_to_end_fidelity,
            out.latency.as_secs_f64(),
            out.swaps
        );
    }
    println!("edge-disjoint arms generate in parallel on one shared clock;");
    println!("shared edges would arbitrate via the EGP distributed queue.");
}
