//! Network-layer scaling benches.
//!
//! Six families; `cargo bench --bench net_scaling -- <family>/` runs one,
//! and a cell's name as the filter (`-- route/hopcount_dijkstra_6x6`) runs
//! that cell alone:
//!
//! * `chain/*` — end-to-end generation over growing SWAP-ASAP chains:
//!   how simulated hops scale the *wall-clock* cost of one delivered
//!   pair (the simulation-throughput figure the sweep driver cares
//!   about), with the delivered latency/fidelity printed once for
//!   orientation.
//! * `route/*` — routing overhead on a grid: requests/second of pure
//!   path computation for unit-cost Dijkstra (PR 1's BFS
//!   equivalent), profile-aware Dijkstra, and Yen K-shortest-paths.
//! * `purify/*` — simulation cost of the purification policies: one
//!   delivered end-to-end pair on a 3-node long-memory chain under
//!   SwapAsap vs LinkPurify (double pairs + parity exchanges per edge).
//! * `congestion/*` — the contended-mesh workload: six concurrent
//!   cross-traffic pairs on a 4×4 grid under static vs load-scaled
//!   latency routing (with and without timeout re-routing).
//! * `sweep/*` — sweep-driver throughput (ROADMAP item): runs/second
//!   of a fixed scenario × seed matrix vs worker-thread count.
//! * `load/*` — the open-loop workload engine (`qlink::net::load`):
//!   wall-clock of one sustained-arrival grid run at a moderate rate
//!   (the full admit → serve → account path dominates) and at 100×
//!   that rate (admission drops dominate — the per-arrival overhead
//!   figure that bounds how far past the knee a capacity sweep can
//!   push).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qlink::net::sweep::{run_one, sweep};
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// An n × n Lab-link grid (row-major, per-edge seeds).
fn grid(n: usize) -> Topology {
    Topology::grid(n, n, |i| lab(1 + i as u64))
}

fn bench_chain_scaling(c: &mut Criterion) {
    if !c.matches_family("chain/") {
        return;
    }
    // Print the hops → latency/fidelity curve once so the bench log
    // doubles as the scaling table.
    for nodes in [2, 3, 4] {
        let spec = ScenarioSpec::lab_chain(format!("{}hop", nodes - 1), nodes)
            .with_max_time(SimDuration::from_secs(60));
        let r = run_one(&spec, 1);
        println!(
            "chain {} hop(s): {}/{} delivered, mean F = {:.4}, mean latency = {:.3} s",
            nodes - 1,
            r.successes,
            r.rounds,
            r.fidelity.mean(),
            r.latency_s.mean(),
        );
    }
    for nodes in [2, 3, 4] {
        let spec = ScenarioSpec::lab_chain(format!("{}hop", nodes - 1), nodes)
            .with_max_time(SimDuration::from_secs(60));
        c.bench_function(&format!("chain/end_to_end_{}hop", nodes - 1), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

fn bench_purify_policies(c: &mut Criterion) {
    if !c.matches_family("purify/") {
        return;
    }
    for policy in [Policy::SwapAsap, Policy::LinkPurify] {
        let spec = ScenarioSpec::lab_chain(policy.name(), 3)
            .with_max_time(SimDuration::from_secs(60))
            .with_carbon_t2(10.0)
            .with_policy(policy);
        // Orientation line: the fidelity-vs-pair-cost tradeoff of the
        // exact scenario the bench below measures.
        let r = run_one(&spec, 1);
        println!(
            "purify {:<11}: {}/{} delivered, mean F = {:.4}, pairs/delivery = {:.1}",
            policy.name(),
            r.successes,
            r.rounds,
            r.fidelity.mean(),
            r.pairs_consumed as f64 / r.successes.max(1) as f64,
        );
        c.bench_function(&format!("purify/end_to_end_2hop_{}", policy.name()), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

fn bench_congested_mesh(c: &mut Criterion) {
    if !c.matches_family("congestion/") {
        return;
    }
    let pairs = vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)];
    let cells = [
        ("latency", RouteMetric::Latency, 0u32),
        ("load_latency", RouteMetric::LoadLatency, 0),
        ("latency_retry2", RouteMetric::Latency, 2),
    ];
    for (name, metric, retries) in cells {
        let mut spec = ScenarioSpec::lab_grid("grid", 4, 4)
            .with_pairs(pairs.clone())
            .with_max_time(SimDuration::from_millis(500))
            .with_metric(metric)
            .with_retries(retries);
        if retries > 0 {
            spec = spec.with_request_timeout(SimDuration::from_millis(250));
        }
        // Orientation line: what the contended cell actually delivers.
        let r = run_one(&spec, 1);
        println!(
            "congestion {name:<14}: {}/{} delivered, {} timeouts, {} reroutes",
            r.successes, r.rounds, r.timeouts, r.reroutes,
        );
        c.bench_function(&format!("congestion/grid4x4_6pairs_{name}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

fn bench_sweep_throughput(c: &mut Criterion) {
    if !c.matches_family("sweep/") {
        return;
    }
    // A fixed 2-scenario × 4-seed matrix of short chain runs; the
    // bench sweeps the worker-thread count (ROADMAP: runs/second vs
    // threads). Results are identical whatever the count — only the
    // wall clock moves.
    let specs = vec![
        ScenarioSpec::lab_chain("1-hop", 2).with_max_time(SimDuration::from_secs(5)),
        ScenarioSpec::lab_chain("2-hop", 3).with_max_time(SimDuration::from_secs(5)),
    ];
    let seeds: Vec<u64> = (1..=4).collect();
    let runs = (specs.len() * seeds.len()) as f64;
    for threads in [1usize, 2, 4] {
        // Orientation line: the runs/second figure the ROADMAP asks
        // for, measured over one warm sweep.
        let start = std::time::Instant::now();
        let report = sweep(&specs, &seeds, threads);
        let secs = start.elapsed().as_secs_f64();
        println!(
            "sweep {threads} thread(s): {:.1} runs/s ({} workers used)",
            runs / secs,
            report.threads_used,
        );
        c.bench_function(&format!("sweep/throughput_{threads}threads"), |b| {
            b.iter(|| black_box(sweep(black_box(&specs), black_box(&seeds), threads)))
        });
    }
}

fn bench_routing_overhead(c: &mut Criterion) {
    if !c.matches_family("route/") {
        return;
    }
    let topo = grid(6);
    let (src, dst) = (0, topo.node_count() - 1);

    // Unit-cost Dijkstra — the hop-count routing every request pays.
    c.bench_function("route/hopcount_dijkstra_6x6", |b| {
        b.iter(|| black_box(topo.shortest_path(black_box(src), black_box(dst))))
    });

    // Profile construction is the one-off cost of metric routing.
    c.bench_function("route/profile_build_6x6", |b| {
        b.iter(|| black_box(RoutePlanner::new(black_box(&topo))))
    });

    // Metric-aware searches on a prebuilt planner.
    let planner = RoutePlanner::new(&topo);
    let ask = |metric, fmin, k| PlanContext {
        metric,
        fmin,
        k,
        ..PlanContext::new(src, dst)
    };
    let cells = [
        (
            "route/latency_dijkstra_6x6",
            ask(RouteMetric::Latency, 0.6, 1),
        ),
        (
            "route/fidelity_dijkstra_6x6",
            ask(RouteMetric::Fidelity, 0.6, 1),
        ),
        ("route/yen_k4_hopcount_6x6", ask(RouteMetric::Hops, 0.0, 4)),
        (
            "route/yen_k4_fidelity_6x6",
            ask(RouteMetric::Fidelity, 0.6, 4),
        ),
    ];
    for (name, ctx) in cells {
        c.bench_function(name, |b| b.iter(|| black_box(planner.routes(&topo, &ctx))));
    }
}

fn bench_open_loop_load(c: &mut Criterion) {
    if !c.matches_family("load/") {
        return;
    }
    let classes = || {
        vec![
            UserClass::new("qkd", RequestKind::Md, vec![(0, 1), (1, 2), (4, 5)])
                .with_weight(3.0)
                .with_priority(1)
                .with_admission(AdmissionControl::QueueBeyond {
                    max_in_flight: 2,
                    queue_cap: 16,
                }),
            UserClass::new("compute", RequestKind::Ck, vec![(8, 9), (12, 13)])
                .with_admission(AdmissionControl::RejectBeyond { max_in_flight: 2 }),
        ]
    };
    for (name, rate_hz) in [("rate2k", 2_000.0), ("rate200k", 200_000.0)] {
        let spec = ScenarioSpec::lab_grid("load", 4, 4)
            .with_metric(RouteMetric::LoadLatency)
            .with_retries(1)
            .with_request_timeout(SimDuration::from_millis(250))
            .with_max_time(SimDuration::from_secs_f64(0.2))
            .with_workload(Workload::poisson(rate_hz, classes()));
        c.bench_function(&format!("load/grid4x4_{name}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(run_one(black_box(&spec), seed))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_chain_scaling, bench_routing_overhead, bench_purify_policies, bench_congested_mesh, bench_sweep_throughput, bench_open_loop_load
}
criterion_main!(benches);
