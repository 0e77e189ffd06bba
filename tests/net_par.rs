//! Engine-equivalence suite for the conservative-lookahead parallel
//! executor (`qlink::net::par`, the PR 5 tentpole).
//!
//! The contract under test: `ExecMode::Sharded(n)` is **bit-identical**
//! to `ExecMode::Sequential` — same outcomes, same RNG draws, same
//! event counts — on every scenario class the repo knows:
//!
//! * the PR 1 repeater chain;
//! * the PR 4 contended 4×4 grid (armed timeouts, retries, re-routes —
//!   which also drives the new CREATE-retraction machinery through
//!   both engines);
//! * the PR 3 purification policies (link-level and end-to-end);
//! * a property test over seeded random connected graphs for
//!   n ∈ {2, 4} shards;
//! * single-edge requests (the lookahead-collapse path: completions
//!   at link deliveries must never find other links run ahead).

use qlink::net::par::ExecMode;
use qlink::net::sweep::{run_one, ExecChoice, RunRecord};
use qlink::net::MetricChoice;
use qlink::prelude::*;

fn lab(seed: u64) -> LinkConfig {
    LinkConfig::lab(WorkloadSpec::none(), seed)
}

/// Every field of a [`RunRecord`] that a simulation trajectory
/// determines, f64 means compared by bit pattern.
fn fingerprint(r: &RunRecord) -> (u32, u32, u32, u64, u64, u64, u64, u64, u64) {
    (
        r.successes,
        r.rounds,
        r.timeouts,
        r.reroutes,
        r.events,
        r.pairs_consumed,
        r.fidelity.mean().to_bits(),
        r.latency_s.mean().to_bits(),
        r.latency_s.variance().to_bits(),
    )
}

/// Runs `spec` under Sequential and under `Sharded(n)` for the given
/// shard counts, asserting bit-identical records per seed.
fn assert_engine_equivalence(spec: &ScenarioSpec, seeds: &[u64], shards: &[usize]) {
    for &seed in seeds {
        let seq = run_one(&spec.clone().with_exec(ExecChoice::Sequential), seed);
        for &n in shards {
            let sh = run_one(&spec.clone().with_exec(ExecChoice::Sharded(n)), seed);
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&sh),
                "{}: Sharded({n}) diverged from Sequential at seed {seed}",
                spec.name
            );
        }
    }
}

#[test]
fn chain_scenarios_are_engine_equivalent() {
    let spec = ScenarioSpec::lab_chain("chain-3", 3)
        .with_rounds(2)
        .with_max_time(SimDuration::from_secs(25));
    assert_engine_equivalence(&spec, &[1, 7], &[2, 4]);
}

#[test]
fn contended_grid_with_reroutes_is_engine_equivalent() {
    // The PR 4 contention scenario: armed timeouts, retry budget,
    // load-aware metric — failures, CREATE retractions, and re-issues
    // all flow through both engines.
    let spec = ScenarioSpec::lab_grid("contended-grid", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)])
        .with_metric(MetricChoice::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2)
        .with_max_time(SimDuration::from_millis(700));
    let probe = run_one(&spec.clone().with_exec(ExecChoice::Sequential), 5);
    assert!(probe.reroutes > 0, "seed must actually exercise re-routing");
    assert_engine_equivalence(&spec, &[1, 5], &[2, 4]);
}

#[test]
fn purify_policies_are_engine_equivalent() {
    for policy in [Policy::LinkPurify, Policy::EndToEndPurify] {
        let spec = ScenarioSpec::lab_chain(policy.name(), 4)
            .with_carbon_t2(10.0)
            .with_policy(policy)
            .with_max_time(SimDuration::from_secs(40));
        assert_engine_equivalence(&spec, &[3], &[2, 4]);
    }
}

/// Single-edge paths complete at a link *delivery* rather than at a
/// control message, which collapses the window lookahead to the next
/// event (see `Network::safe_horizon`): the caller may submit again at
/// the completion instant, so no link may have run past it. A 2-node
/// "chain" runs this path for every round.
#[test]
fn single_edge_requests_are_engine_equivalent() {
    let spec = ScenarioSpec::lab_chain("one-hop", 2)
        .with_rounds(3)
        .with_max_time(SimDuration::from_secs(10));
    assert_engine_equivalence(&spec, &[2, 9], &[2, 4]);
}

/// A seeded random connected graph: a random spanning tree plus a few
/// extra edges, lab-grade links with per-edge seeds.
fn random_topology(rng: &mut DetRng) -> Topology {
    let nodes = 5 + rng.below(5) as usize; // 5..=9
    let mut topo = Topology::new();
    for _ in 0..nodes {
        topo.add_node();
    }
    let mut edge_seed = 0u64;
    // Spanning tree: every node links to a random earlier node.
    for n in 1..nodes {
        let parent = rng.below(n as u64) as usize;
        edge_seed += 1;
        topo.connect(parent, n, lab(1000 + edge_seed));
    }
    // Extra chords for alternative routes (skip already-connected
    // pairs).
    for _ in 0..3 {
        let a = rng.below(nodes as u64) as usize;
        let b = rng.below(nodes as u64) as usize;
        if a != b && topo.edge_between(a, b).is_none() {
            edge_seed += 1;
            topo.connect(a, b, lab(1000 + edge_seed));
        }
    }
    topo
}

/// One delivered outcome, f64 by bit pattern.
fn outcome_row(o: &EndToEndOutcome) -> (u64, u64, u64, u64) {
    (
        o.request,
        o.end_to_end_fidelity.to_bits(),
        o.latency.as_ps(),
        o.delivered_at.as_ps(),
    )
}

/// Fingerprint of a full multi-request run on an explicit network —
/// outcomes in delivery order, plus every counter the engines could
/// skew.
fn run_network(topo: &Topology, seed: u64, exec: ExecMode) -> Vec<(u64, u64, u64, u64)> {
    let mut net = Network::new(topo.clone(), seed);
    net.set_exec(exec);
    net.set_request_timeout(Some(SimDuration::from_secs(2)));
    net.set_retry_budget(1);
    let nodes = topo.node_count();
    // A couple of cross-traffic pairs, deterministically derived.
    net.request_entanglement(0, nodes - 1, 0.55);
    net.request_entanglement(1, nodes - 1, 0.55);
    let mut out = Vec::new();
    for _ in 0..2 {
        if let Some(o) = net.run_until_outcome(SimDuration::from_secs(8)) {
            out.push(outcome_row(&o));
        }
    }
    net.run_for(SimDuration::from_millis(100));
    out.push((net.reroutes(), net.timeouts(), net.events_fired(), 0));
    out
}

/// The property test of the acceptance criteria: over seeded random
/// graph topologies, `Sharded(n)` reproduces `Sequential` runs
/// bit-for-bit for n ∈ {2, 4}.
#[test]
fn random_graphs_property_sharded_reproduces_sequential() {
    let mut rng = DetRng::new(0x9a75eed);
    for case in 0..6u64 {
        let topo = random_topology(&mut rng);
        let seed = 100 + case;
        let seq = run_network(&topo, seed, ExecMode::Sequential);
        for n in [2, 4] {
            let sh = run_network(&topo, seed, ExecMode::Sharded(n));
            assert_eq!(
                seq,
                sh,
                "random graph case {case} ({} nodes): Sharded({n}) diverged",
                topo.node_count()
            );
        }
    }
}

/// Fingerprint of a run that cancels requests mid-flight, after the
/// first failed attempt has parked for re-issue: the cancel tombstones
/// the parked stream's lookahead-bound entry (see `net::bound`), and
/// the hollow `Reissue` event still fires through both engines.
fn run_cancel_network(seed: u64, exec: ExecMode) -> Vec<(u64, u64, u64, u64)> {
    // A 4×4 lab grid with every control delay stretched to 2 ms, so a
    // failed attempt's re-issue backoff (floored at the failed path's
    // one-way control delay, ≥ 3 hops × 2 ms) dwarfs the 1 ms probe
    // step below.
    let mut topo = Topology::grid(4, 4, |i| lab(4000 + i as u64));
    for e in 0..topo.edge_count() {
        topo.set_control_delay(e, SimDuration::from_millis(2));
    }
    let mut net = Network::new(topo, seed);
    net.set_exec(exec);
    // With ≥ 12 ms of round-trip control latency on corner paths, a
    // 25 ms timeout guarantees failed attempts under contention.
    net.set_request_timeout(Some(SimDuration::from_millis(25)));
    net.set_retry_budget(3);
    let reqs: Vec<u64> = [(0, 15), (3, 12), (5, 10), (6, 9)]
        .iter()
        .map(|&(a, b)| net.request_entanglement(a, b, 0.45))
        .collect();
    // Probe forward in 1 ms steps until a failed attempt parks
    // (`reroutes` ticks exactly at park time). Its Reissue then sits a
    // full backoff (≥ 6 ms) past the park instant, i.e. strictly
    // beyond this probe step's boundary — so the cancel below is
    // guaranteed to catch a *parked* stream, exercising the
    // tombstone path rather than plain cancellation.
    let mut steps = 0u64;
    let parked = loop {
        if steps == 200 {
            break false;
        }
        net.run_for(SimDuration::from_millis(1));
        steps += 1;
        if net.reroutes() > 0 {
            break true;
        }
    };
    assert!(parked, "scenario never parked a failed stream");
    for &r in &reqs {
        net.cancel_request(r);
    }
    // The tombstoned Reissue events fire hollow; the cancelled
    // requests' stale timeouts fire too. Everything must reconcile
    // identically in both engines.
    net.run_for(SimDuration::from_millis(60));
    vec![(
        net.reroutes(),
        net.timeouts(),
        net.events_fired(),
        (steps << 32) | net.take_outcomes().len() as u64,
    )]
}

/// The lookahead-bound bookkeeping regression test: cancelling a
/// request *while it is parked between failure and re-issue* must
/// leave `Sharded(n)` bit-identical to `Sequential`. (Before the
/// tombstone fix the cancelled entry either pinned the horizon forever
/// or desynchronised the blind pops — both diverge here.)
#[test]
fn cancel_while_parked_is_engine_equivalent() {
    for seed in [1, 5] {
        let seq = run_cancel_network(seed, ExecMode::Sequential);
        for n in [2, 4] {
            let sh = run_cancel_network(seed, ExecMode::Sharded(n));
            assert_eq!(
                seq, sh,
                "cancel-while-parked: Sharded({n}) diverged at seed {seed}"
            );
        }
    }
}

/// A sparse 8×8 grid: three two-hop clients on a 112-link topology,
/// so most links park idle at their first cycle and never wake. Each
/// client's second request follows 60 ms after the first round — past
/// the 5 000-cycle (50.6 ms) completed-request linger — so the links
/// it rides have parked in between and are resumed by its CREATEs.
/// Returns the outcomes plus every counter parking moves.
fn run_sparse_grid(seed: u64, exec: ExecMode) -> Vec<(u64, u64, u64, u64)> {
    let topo = Topology::grid(8, 8, |i| lab(8000 + i as u64));
    let edges = topo.edge_count();
    let mut net = Network::new(topo, seed);
    net.set_exec(exec);
    let pairs = [(0, 2), (27, 43), (63, 47)];
    let mut out = Vec::new();
    for round in 0..2 {
        for (src, dst) in pairs {
            net.request_entanglement(src, dst, 0.6);
        }
        for _ in pairs {
            let o = net
                .run_until_outcome(SimDuration::from_secs(5))
                .expect("a two-hop Lab request delivers within 5 s");
            out.push(outcome_row(&o));
        }
        net.run_for(SimDuration::from_millis(60));
        let parked = (0..edges)
            .filter(|&e| net.link(e).next_event_time().is_none())
            .count();
        assert_eq!(
            parked, edges,
            "round {round}: every link is idle past the linger, so every link is parked"
        );
    }
    let never_woken = (0..edges)
        .filter(|&e| net.link(e).events_fired() == 1)
        .count();
    assert!(
        never_woken >= edges - 2 * pairs.len(),
        "only the requests' own links ever leave their first park ({never_woken}/{edges})"
    );
    out.push((
        net.events_fired(),
        net.cycles_elided(),
        never_woken as u64,
        0,
    ));
    out
}

/// Idle-link parking under both engines: a link decides to park inside
/// its own `Cycle` handler — at compute time, whether a worker thread
/// ran it ahead or the coordinator stepped it — so `Sharded(n)` parks
/// and resumes every link at the same cycle as `Sequential`, down to
/// the event and elided-cycle counts.
#[test]
fn sparse_grid_parks_and_resumes_identically_under_both_engines() {
    for seed in [3, 8] {
        let seq = run_sparse_grid(seed, ExecMode::Sequential);
        let (events, elided, ..) = *seq.last().expect("counters row");
        assert!(
            elided > events,
            "a sparse grid elides more cycles than it fires events ({elided} vs {events})"
        );
        for n in [2, 4] {
            let sh = run_sparse_grid(seed, ExecMode::Sharded(n));
            assert_eq!(seq, sh, "sparse grid: Sharded({n}) diverged at seed {seed}");
        }
    }
}

/// A lab-grade link polled at 10 ms instead of 10.12 µs: same physics
/// per attempt, ~1000× fewer idle MHP poll events — what makes a
/// 160-second simulated span affordable in a test.
fn slow_lab(seed: u64) -> LinkConfig {
    let mut cfg = lab(seed);
    cfg.scenario.mhp_cycle = SimDuration::from_millis(10);
    cfg
}

/// Far-future events — request timeouts armed beyond the timing
/// wheel's ~140 s span (2^47 ps) — land in the wheel's overflow level
/// and must cascade back in and fire across the sharded engine's
/// window boundaries exactly as they do sequentially.
fn run_overflow_network(seed: u64, exec: ExecMode) -> Vec<(u64, u64, u64, u64)> {
    let topo = Topology::chain(3, |i| slow_lab(7000 + i as u64));
    let mut net = Network::new(topo, seed);
    net.set_exec(exec);
    net.set_retry_budget(0);
    // Two requests whose timeouts sit ~2.5 simulated minutes out: both
    // `RequestTimeout` events go straight to the overflow level. The
    // requests complete tens of seconds in (the stale timeouts then
    // fire as no-ops), so the overflow cells stay pending across the
    // thousands of windows the links' polling turns underneath, and
    // each finally surfaces from overflow mid-window at 145 s / 150 s.
    net.set_request_timeout(Some(SimDuration::from_secs(150)));
    net.request_entanglement(0, 2, 0.5);
    net.run_for(SimDuration::from_millis(5));
    net.set_request_timeout(Some(SimDuration::from_secs(145)));
    net.request_entanglement(0, 2, 0.5);
    net.run_for(SimDuration::from_secs(160));
    let mut out: Vec<(u64, u64, u64, u64)> = net.take_outcomes().iter().map(outcome_row).collect();
    out.push((net.timeouts(), net.reroutes(), net.events_fired(), 0));
    out
}

#[test]
fn wheel_overflow_straddles_window_boundaries() {
    let seed = 4;
    let seq = run_overflow_network(seed, ExecMode::Sequential);
    // Both requests complete (before their timeouts — the stale
    // `RequestTimeout` events then fire out of overflow as no-ops; the
    // 160 s drain horizon guarantees both fired).
    assert_eq!(seq.len(), 3, "both requests must complete");
    for n in [2, 4] {
        let sh = run_overflow_network(seed, ExecMode::Sharded(n));
        assert_eq!(
            seq, sh,
            "overflow straddle: Sharded({n}) diverged at seed {seed}"
        );
    }
}

/// The sweep driver's hybrid scheduler never changes results: a grid
/// sweep with more threads than jobs (spare threads sharding within
/// runs) merges to the same report as the all-sequential layout.
#[test]
fn hybrid_sweep_matches_sequential_sweep() {
    let specs = vec![ScenarioSpec::lab_grid("grid-hybrid", 4, 4)
        .with_pairs(vec![(0, 15), (3, 12)])
        .with_max_time(SimDuration::from_millis(400))];
    let seeds = [1, 2];
    let plain: Vec<_> = {
        let specs: Vec<_> = specs
            .iter()
            .cloned()
            .map(|s| s.with_exec(ExecChoice::Sequential))
            .collect();
        sweep(&specs, &seeds, 2)
            .runs
            .iter()
            .map(fingerprint)
            .collect()
    };
    // 8 threads over 2 jobs: 4 spare threads per run → Auto shards
    // each 16-node grid run on 4 threads.
    let hybrid: Vec<_> = sweep(&specs, &seeds, 8)
        .runs
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(plain, hybrid, "hybrid thread split changed sweep results");
}
