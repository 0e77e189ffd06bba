//! The deterministic telemetry layer (`qlink::net::obs`): lifecycle
//! spans, histogram metrics, and engine profiling on a repeater chain.
//!
//! Runs a 3-node SWAP-ASAP chain with every telemetry facet on, writes
//! the request-lifecycle trace as Chrome trace-event JSON (load it in
//! a Chromium `about://tracing` or Perfetto UI), and prints the
//! aggregate metrics, the wall-clock engine profile, and a sweep's
//! percentile / throughput-vs-time CSVs.
//!
//! ```sh
//! QLINK_TRACE=1 cargo run --release --example trace
//! ```
//!
//! (The example also enables telemetry programmatically via
//! [`Network::set_telemetry`], so it traces even without the
//! environment variable; setting `QLINK_TRACE=1` is how you switch it
//! on for binaries that never mention telemetry.)
//!
//! The trace JSON lands in `trace.json` (override with
//! `QLINK_TRACE_OUT=/path/to.json`).

use qlink::net::{chrome_trace_json, spans_jsonl, TelemetryConfig};
use qlink::prelude::*;

fn chain_network(seed: u64) -> Network {
    let topo = Topology::chain(3, |i| LinkConfig::lab(WorkloadSpec::none(), 40 + i as u64));
    let config = NetConfig {
        telemetry: TelemetryConfig::all(),
        ..NetConfig::default()
    };
    Network::with_config(topo, seed, config, ModelCache::new())
}

fn main() {
    // 1. One end-to-end request on a 3-node chain, every facet on.
    let mut net = chain_network(7);
    net.request_entanglement(0, 2, 0.5);
    let outcome = net
        .run_until_outcome(SimDuration::from_secs(30))
        .expect("lab chain delivers well within 30 s");
    println!(
        "delivered F={:.4} after {:.3} ms ({} events)",
        outcome.end_to_end_fidelity,
        outcome.latency.as_secs_f64() * 1e3,
        net.events_fired(),
    );

    let tl = net.telemetry().expect("telemetry was enabled");

    // 2. The request's life as spans, exported both ways.
    let path = std::env::var("QLINK_TRACE_OUT").unwrap_or_else(|_| "trace.json".into());
    std::fs::write(&path, chrome_trace_json(tl.spans())).expect("write trace file");
    println!(
        "\n{} spans -> {path} (chrome://tracing / Perfetto)",
        tl.spans().len()
    );
    println!("first spans as JSONL:");
    for line in spans_jsonl(tl.spans()).lines().take(6) {
        println!("  {line}");
    }

    // 3. Aggregate metrics: exact counters plus histogram percentiles.
    let m = tl.metrics();
    println!(
        "\nmetrics: creates/edge {:?}, completions {}, queue-wait p50 {:.3} ms",
        m.creates,
        m.completions,
        m.queue_wait.quantile(0.50) * 1e3,
    );

    // 4. The engine profile — the one facet that measures the host
    //    rather than the simulation.
    println!("engine profile:\n{}", tl.profile().to_json());

    // 5. Sweep-level observability: latency/fidelity percentiles and
    //    the throughput-vs-time CSV from the merged report.
    let spec = ScenarioSpec::lab_chain("chain-3", 3)
        .with_rounds(4)
        .with_max_time(SimDuration::from_secs(30));
    let report = sweep(&[spec], &[1, 2, 3], 3);
    println!("\n{}", report.percentile_csv().trim_end());
    println!(
        "\n{}",
        report.throughput_csv(SimDuration::from_secs(2)).trim_end()
    );
}
