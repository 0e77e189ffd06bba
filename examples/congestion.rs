//! Congestion-aware routing and timeout re-routing on a contended
//! mesh.
//!
//! Puts six concurrent source/destination pairs on a 4×4 grid — a
//! workload class the repo could not express before `Topology::grid`
//! and `ScenarioSpec::with_pairs` — and compares, at equal seeds:
//!
//! * static `RouteMetric::Latency` routing, whose deterministically
//!   tie-broken shortest paths pile the requests onto the same
//!   low-index edges;
//! * `RouteMetric::LoadLatency`, which prices each edge's live reservation
//!   count (`Network::edge_load`) into the metric so the requests
//!   spread at plan time;
//! * each of the above with a per-request timeout and a retry budget,
//!   so attempts that still stall release their reservations,
//!   re-plan against *current* load excluding the failed path, and
//!   re-issue.
//!
//! Run with:
//! ```sh
//! cargo run --release --example congestion
//! ```

use qlink::net::sweep::run_one;
use qlink::prelude::*;

/// Six cross-mesh pairs whose static shortest paths collide.
fn contended_pairs() -> Vec<(usize, usize)> {
    vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)]
}

fn main() {
    let seeds: Vec<u64> = (1..=6).collect();
    let budget = SimDuration::from_millis(700);
    let timeout = SimDuration::from_millis(300);

    // --- where the static paths actually go -------------------------
    let topo = Topology::grid(4, 4, |i| LinkConfig::lab(WorkloadSpec::none(), i as u64));
    let config = NetConfig {
        metric: RouteMetric::Latency,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, 1, config, ModelCache::new());
    println!("static latency routes (note the shared low-index edges):");
    for (s, d) in contended_pairs() {
        let route = net.plan_route(s, d, 0.6).expect("grid is connected");
        println!("  {s:>2} -> {d:<2}: {:?}", route.nodes);
    }
    let topo = Topology::grid(4, 4, |i| LinkConfig::lab(WorkloadSpec::none(), i as u64));
    let config = NetConfig {
        metric: RouteMetric::LoadLatency,
        ..NetConfig::default()
    };
    let mut net = Network::with_config(topo, 1, config, ModelCache::new());
    println!("load-scaled routes, each request seeing its predecessors' load:");
    for (s, d) in contended_pairs() {
        let route = net.plan_route(s, d, 0.6).expect("grid is connected");
        println!("  {s:>2} -> {d:<2}: {:?}", route.nodes);
        net.request_on_path(&route.nodes, 0.6);
    }

    // --- the metric × retry-budget comparison ------------------------
    //
    // Two experiments at equal seeds. First, pure planning: a tight
    // round budget and no timeout machinery at all — the load-scaled
    // metric alone cuts timeouts. Second, recovery: a per-request
    // timeout is armed in *both* cells, so budget 0 abandons every
    // stalled attempt at its deadline while budget 2 re-plans it
    // against live load and usually still delivers within the round.
    let run_cells = |label: &str, specs: &[(String, ScenarioSpec)]| {
        println!("\n{label}");
        println!(
            "{:<26} {:>9} {:>9} {:>9} {:>12}",
            "scenario", "delivered", "timeouts", "reroutes", "mean lat (s)"
        );
        for (name, spec) in specs {
            let mut delivered = 0;
            let mut timeouts = 0;
            let mut reroutes = 0;
            let mut latency = 0.0;
            let mut latency_n = 0u32;
            for &seed in &seeds {
                let r = run_one(spec, seed);
                delivered += r.successes;
                timeouts += r.timeouts;
                reroutes += r.reroutes;
                if r.successes > 0 {
                    latency += r.latency_s.mean() * f64::from(r.successes);
                    latency_n += r.successes;
                }
            }
            println!(
                "{name:<26} {delivered:>9} {timeouts:>9} {reroutes:>9} {:>12.3}",
                latency / f64::from(latency_n.max(1)),
            );
        }
    };

    let tight = SimDuration::from_millis(500);
    run_cells(
        &format!(
            "planning only ({} ms budget, no timeouts armed), seeds {seeds:?}:",
            tight.as_secs_f64() * 1e3
        ),
        &[
            (
                "Latency".into(),
                ScenarioSpec::lab_grid("grid", 4, 4)
                    .with_pairs(contended_pairs())
                    .with_max_time(tight)
                    .with_metric(RouteMetric::Latency),
            ),
            (
                "LoadLatency".into(),
                ScenarioSpec::lab_grid("grid", 4, 4)
                    .with_pairs(contended_pairs())
                    .with_max_time(tight)
                    .with_metric(RouteMetric::LoadLatency),
            ),
        ],
    );

    let recovery: Vec<(String, ScenarioSpec)> = [0u32, 1, 2]
        .into_iter()
        .map(|retries| {
            (
                format!("Latency + timeout, retry={retries}"),
                ScenarioSpec::lab_grid("grid", 4, 4)
                    .with_pairs(contended_pairs())
                    .with_max_time(budget)
                    .with_request_timeout(timeout)
                    .with_retries(retries)
                    .with_metric(RouteMetric::Latency),
            )
        })
        .collect();
    run_cells(
        &format!(
            "timeout re-routing ({} ms budget, {} ms request timeout), seeds {seeds:?}:",
            budget.as_secs_f64() * 1e3,
            timeout.as_secs_f64() * 1e3
        ),
        &recovery,
    );

    println!(
        "\nload pricing spreads the mesh at plan time; the retry budget\n\
         recovers attempts the timeout would otherwise abandon. Both are\n\
         exact per seed: rerun and the tables reproduce bit-for-bit."
    );
}
