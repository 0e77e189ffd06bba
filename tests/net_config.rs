//! A network is described once, by a `NetConfig`. The setters a built
//! network still has are pre-run compatibility shims for the frozen
//! `benchmark/` package, which configures its networks through them;
//! this is the one place outside it that calls them, to hold them
//! equal to the config they stand in for.

use qlink::net::TelemetryConfig;
use qlink::prelude::*;

/// The benchmark's open-loop 4×4 grid: two classes over disjoint pairs,
/// one rejecting and one queueing beyond its in-flight bound.
fn grid_and_workload(seed: u64) -> (Topology, Workload) {
    let root = DetRng::new(seed);
    let topo = Topology::grid(4, 4, |i| {
        LinkConfig::lab(
            WorkloadSpec::none(),
            root.substream(&format!("edge/{i}")).seed(),
        )
    });
    let classes = vec![
        UserClass::new("qkd", RequestKind::Md, vec![(0, 5), (10, 15)]).with_admission(
            AdmissionControl::QueueBeyond {
                max_in_flight: 2,
                queue_cap: 16,
            },
        ),
        UserClass::new("compute", RequestKind::Ck, vec![(3, 6), (9, 12)])
            .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 }),
    ];
    (topo, Workload::poisson(2_000.0, classes))
}

/// The shims, in the order the benchmark calls them, build the network
/// the config does: same events, same workload accounting, same
/// re-routes and abandons.
#[test]
fn the_benchmark_setters_build_what_the_config_builds() {
    let seed = 11;
    // Past the 250 ms timeout, so the retry budget and the timeout
    // both shape the run.
    let horizon = SimDuration::from_millis(600);
    let timeout = Some(SimDuration::from_millis(250));

    let (topo, workload) = grid_and_workload(seed);
    let mut shimmed = Network::new(topo, seed);
    shimmed.set_route_metric(RouteMetric::LoadLatency);
    shimmed.set_retry_budget(1);
    shimmed.set_request_timeout(timeout);
    shimmed.set_telemetry(TelemetryConfig::all());
    shimmed.reset_event_stats();
    shimmed.set_workload(workload);
    shimmed.run_for(horizon);

    let (topo, workload) = grid_and_workload(seed);
    let config = NetConfig {
        metric: RouteMetric::LoadLatency,
        retries: 1,
        request_timeout: timeout,
        workload: Some(workload),
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    let mut configured = Network::with_config(topo, seed, config, ModelCache::new());
    configured.reset_event_stats();
    configured.run_for(horizon);

    let stats = shimmed.workload_stats().expect("armed");
    assert_eq!(Some(stats), configured.workload_stats());
    assert_eq!(shimmed.events_fired(), configured.events_fired());
    assert_eq!(shimmed.reroutes(), configured.reroutes());
    assert_eq!(shimmed.timeouts(), configured.timeouts());
    let spans = |net: &Network| net.telemetry().expect("telemetry on").spans().len();
    assert_eq!(spans(&shimmed), spans(&configured));
    assert!(configured.reroutes() > 0, "attempts time out and re-route");
}
