//! The simulator as a capacity planner: a 16-node grid under
//! sustained open-loop load at three offered rates, straddling the
//! capacity knee.
//!
//! Two paper-style traffic classes arrive on their own Poisson clock —
//! a measure-directly QKD class (queued admission, priority 1) and a
//! create-and-keep blind-compute class (hard rejection past its
//! in-flight bound, priority 0) — whatever the network's backlog.
//! Closed-loop rounds can never show the knee: they only issue the
//! next request when the last one finished, so offered always equals
//! carried. Open-loop, the two curves separate:
//!
//! * **under the knee** — almost everything offered is admitted and
//!   delivered; SLO attainment is whatever the physics allows;
//! * **around the knee** — the admission queues fill, queue waits blow
//!   up the latency SLO, drops begin;
//! * **far past the knee** — carried load saturates flat at the
//!   network's service capacity while offered load grows unbounded;
//!   the drop counters absorb the difference (10⁶ arrivals in the top
//!   scenario alone — the accounting is exact at any scale).
//!
//! Run with:
//! ```sh
//! cargo run --release --example service
//! ```

use qlink::prelude::*;

/// The two traffic classes. Single-hop pairs keep per-request service
/// times near the lab link's NL latency, so the 250 ms timeout is
/// tight but survivable.
fn classes() -> Vec<UserClass> {
    vec![
        UserClass::new("qkd", RequestKind::Md, vec![(0, 1), (1, 2), (4, 5)])
            .with_weight(3.0)
            .with_priority(1)
            .with_admission(AdmissionControl::QueueBeyond {
                max_in_flight: 2,
                queue_cap: 16,
            })
            .with_latency_slo(SimDuration::from_millis(400))
            .with_fidelity_slo(0.4),
        UserClass::new("compute", RequestKind::Ck, vec![(8, 9), (12, 13)])
            .with_priority(0)
            .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 })
            .with_latency_slo(SimDuration::from_millis(300)),
    ]
}

fn spec(name: &str, rate_hz: f64) -> ScenarioSpec {
    ScenarioSpec::lab_grid(name, 4, 4)
        .with_metric(RouteMetric::LoadLatency)
        .with_retries(1)
        .with_request_timeout(SimDuration::from_millis(250))
        .with_max_time(SimDuration::from_secs(2))
        .with_workload(Workload::poisson(rate_hz, classes()))
}

fn main() {
    // Three offered loads around the grid's service capacity (a few
    // tens of requests per second under these admission caps): one
    // comfortably under the knee, one past it, one far past it — the
    // last offering half a million arrivals per simulated second.
    let specs = vec![
        spec("under-knee", 20.0),
        spec("past-knee", 2_000.0),
        spec("far-past-knee", 500_000.0),
    ];
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let report = sweep(&specs, &[7], threads);

    let total_offered: u64 = report
        .scenarios
        .iter()
        .flat_map(|s| s.classes.iter().map(|c| c.offered))
        .sum();
    assert!(
        total_offered >= 1_000_000,
        "the sweep must sustain a million arrivals (got {total_offered})"
    );

    println!("per-class service report (2 simulated seconds per scenario):");
    println!();
    print!("{}", report.service_csv());
    println!();

    println!("the capacity knee (offered vs carried, requests per simulated second):");
    for s in &report.scenarios {
        let offered: u64 = s.classes.iter().map(|c| c.offered).sum();
        let carried: u64 = s.classes.iter().map(|c| c.completed).sum();
        let dropped: u64 = s.classes.iter().map(|c| c.dropped).sum();
        let per_s = 1.0 / s.open_loop_secs;
        println!(
            "  {:<14} offered {:>9.1}/s  carried {:>5.1}/s  dropped {:>9.1}/s",
            s.name,
            offered as f64 * per_s,
            carried as f64 * per_s,
            dropped as f64 * per_s,
        );
    }
    println!();
    println!("total arrivals across the sweep: {total_offered}");

    // Under the knee the carried fraction is high; far past it the
    // carried *rate* barely moves while offered grows 250× — that flat
    // line is the network's capacity.
    let carried: Vec<f64> = report
        .scenarios
        .iter()
        .map(|s| s.classes.iter().map(|c| c.completed).sum::<u64>() as f64 / s.open_loop_secs)
        .collect();
    assert!(
        carried[2] < carried[1] * 3.0,
        "carried load must saturate past the knee ({carried:?})"
    );
}
