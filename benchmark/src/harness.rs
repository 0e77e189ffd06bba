//! Reps, the floor estimator, and the two passes of a workload.
//!
//! One *rep* builds every phase of a workload from scratch (users pay
//! construction and lazy caches on every run) and advances it slice by
//! slice, timing each slice and counting the events it fires. Every
//! rep of a run is the same simulation — same seed, same inputs — so
//! slice `i` of a phase fires the same events in every rep. The run
//! region is priced at
//!
//! ```text
//! run_s = Σ_phases ( Σ_warm-up slices i  min over reps of slice i
//!                  + Σ_strata  events × min over reps and the stratum's slices of ns per event )
//! ```
//!
//! i.e. the wall seconds the run takes on an undisturbed host. A
//! phase's steady slices are cut into [`STRATA`] strata of like work —
//! sorted by the events they fire — and each stratum counts by its
//! events at the lowest cost per event any of its slices reached in
//! any rep; each warm-up slice (cold caches, queues filling) counts at
//! its own fastest repeat. On the shared 2-core hosts this runs on,
//! identical slices vary by 30–50 % with the neighbours' cache traffic
//! and the *median* of a 28 s run drifts by as much between runs,
//! while the floor repeats within a few percent (README, "Why the
//! floor").
//!
//! The floor is blind to cost that some slice of every stratum
//! escapes. `engine.run_s_indexed` — every slice at its own fastest
//! repeat, Σ_i min over reps — has no blind spot but needs some forty
//! reps to shed the host's noise where a run holds four or five
//! (eight same-seed runs: 3.5–5.0 s against the floor's 3.3–3.6 s), so
//! it is reported ungated; so is the plain median rep wall,
//! `engine.rep_wall_s`.

use crate::ledger::PER_LAYER;
use crate::measure::{cpu_seconds, fastest, median, peak_rss_mb};
use crate::probes::Probes;
use crate::spans::Recorder;
use crate::workloads::{merge, Counts, Model, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Constructions timed for `setup_s` ahead of every timed rep. Spread
/// over the run like the slices are, because back-to-back they would
/// all fall into one phase of the neighbours' activity: runs of 31
/// back-to-back constructions read 2.2 ms or 4.3 ms, each run tight
/// around its own figure.
pub const SETUP_SAMPLES_PER_REP: usize = 8;

/// One rep's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    pub model: Model,
    pub counts: Counts,
    /// Output-check failures (empty: the rep passed).
    pub failures: Vec<String>,
    /// Wall nanoseconds of every slice, per phase.
    pub slice_ns: Vec<Vec<u64>>,
    /// Events fired in every slice, per phase (exact by seed).
    pub slice_events: Vec<Vec<u64>>,
    /// Wall seconds of the run region as it happened: Σ slices.
    pub run_wall_s: f64,
}

/// Runs one rep. With a live recorder, setup steps and every slice
/// are spans and links are stepped call by call.
pub fn run_rep(workload: &Workload, seed: u64, rec: &mut Recorder) -> Rep {
    let mut ends = Vec::with_capacity(workload.phases.len());
    let mut slice_ns = Vec::with_capacity(workload.phases.len());
    let mut slice_events = Vec::with_capacity(workload.phases.len());
    for phase in &workload.phases {
        let mut sim = rec.span("setup", |rec| phase.build(seed, rec));
        let mut ns = Vec::with_capacity(phase.slices);
        let mut events = Vec::with_capacity(phase.slices);
        let mut fired = sim.events();
        for _ in 0..phase.slices {
            let t0 = Instant::now();
            if rec.is_on() {
                sim.run_slice_traced(rec);
            } else {
                sim.run_slice();
            }
            ns.push(t0.elapsed().as_nanos() as u64);
            events.push(sim.events() - fired);
            fired = sim.events();
        }
        ends.push((phase.name, sim.finish()));
        slice_ns.push(ns);
        slice_events.push(events);
    }
    let (model, counts, failures) = merge(&ends);
    let run_wall_s = slice_ns.iter().flatten().sum::<u64>() as f64 / 1e9;
    Rep {
        model,
        counts,
        failures,
        slice_ns,
        slice_events,
        run_wall_s,
    }
}

/// [`run_rep`] with a panic turned into a failed rep.
pub fn run_rep_caught(workload: &Workload, seed: u64, rec: &mut Recorder) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| run_rep(workload, seed, rec))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("rep panicked: {msg}")
    })
}

/// Strata a phase's steady slices are cut into. One stratum is the
/// cheapest-slice floor, which prices a whole phase at its lightest
/// event mix and reads 5–23 % under the per-slice floor of some forty
/// pooled same-seed reps; one stratum per slice is that per-slice
/// floor, which needs those forty reps. Sixteen read 2–4 % under the
/// pooled figure on all four workloads, and each still holds a few
/// hundred timings per run to find a quiet one among (README, "Why
/// the floor").
const STRATA: usize = 16;

/// Cuts a phase's steady slices into strata of like work: sorted by
/// the events they fire, `len / STRATA` or more to a stratum, slices
/// that fire equally many events never apart (an idle phase, whose
/// slices all fire the same events, is one stratum).
fn strata(events: &[u64]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| events[i]);
    let size = events.len().div_ceil(STRATA);
    let mut strata: Vec<Vec<usize>> = Vec::new();
    for i in order {
        match strata.last_mut() {
            Some(s) if s.len() < size || events[s[s.len() - 1]] == events[i] => s.push(i),
            _ => strata.push(vec![i]),
        }
    }
    strata
}

/// The run region's floor in seconds (module docs): warm-up slices
/// each at their fastest repeat, steady slices by their events at
/// their stratum's lowest cost per event.
pub fn floor_run_s(workload: &Workload, reps: &[Rep]) -> f64 {
    let mut ns = 0.0;
    for (p, phase) in workload.phases.iter().enumerate() {
        let fastest_repeat = |i: usize| reps.iter().map(|r| r.slice_ns[p][i]).min();
        ns += (0..phase.warm).filter_map(fastest_repeat).sum::<u64>() as f64;
        // Exact by seed: rep 1's counts are every rep's.
        let events = &reps[0].slice_events[p][phase.warm..];
        for stratum in strata(events) {
            let per_event: Vec<f64> = reps
                .iter()
                .flat_map(|r| {
                    let ns = &r.slice_ns[p][phase.warm..];
                    stratum.iter().map(|&i| ns[i] as f64 / events[i] as f64)
                })
                .collect();
            let fired: u64 = stratum.iter().map(|&i| events[i]).sum();
            ns += fired as f64 * fastest(&per_event);
        }
    }
    ns / 1e9
}

/// Every slice at its own fastest repeat, summed, in seconds: no blind
/// spot, but only as quiet as the quietest of a handful of reps.
pub fn indexed_run_s(reps: &[Rep]) -> f64 {
    let first = &reps[0].slice_ns;
    let ns: u64 = (0..first.len())
        .flat_map(|p| (0..first[p].len()).map(move |i| (p, i)))
        .filter_map(|(p, i)| reps.iter().map(|r| r.slice_ns[p][i]).min())
        .sum();
    ns as f64 / 1e9
}

/// Seconds one construction takes, spec to ready-to-run simulator,
/// all phases.
fn setup_sample(workload: &Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    for phase in &workload.phases {
        std::hint::black_box(phase.build(seed, &mut Recorder::off()));
    }
    t0.elapsed().as_secs_f64()
}

/// One short untimed rep: first-touch costs of the process itself
/// (page faults, allocator growth, lazy statics) land here.
pub fn warm_up(workload: &Workload, seed: u64) {
    for phase in &workload.phases {
        let mut sim = phase.build(seed, &mut Recorder::off());
        for _ in 0..=phase.warm {
            sim.run_slice();
        }
        std::hint::black_box(sim.finish());
    }
}

/// The end-to-end reading of one workload (`--trace 0`).
#[derive(Debug, Clone)]
pub struct Timed {
    pub setup_s: f64,
    pub run_s: f64,
    /// `None` off Linux.
    pub peak_rss_mb: Option<f64>,
    /// Reps attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every failure message, prefixed with its rep number.
    pub failures: Vec<String>,
    /// Rep 1's simulated statistics.
    pub model: Option<Model>,
    /// [`indexed_run_s`] over the timed reps, for the printed summary.
    pub run_s_indexed: f64,
    /// Median of the reps' run-region wall seconds, as they happened.
    pub rep_wall_s: f64,
}

/// Measures a workload for about `seconds` seconds with tracing off:
/// one warm-up rep, then timed reps — each preceded by a few timed
/// constructions for `setup_s` — until the next would overrun the
/// budget (never fewer than two: rep 2 is what the determinism check
/// compares against rep 1).
pub fn timed_pass(workload: &Workload, seed: u64, seconds: f64) -> Timed {
    warm_up(workload, seed);

    let t0 = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut last_rep_s = 0.0;
    while attempted < 2 || t0.elapsed().as_secs_f64() + last_rep_s <= seconds {
        let rep_t0 = Instant::now();
        attempted += 1;
        setups.extend((0..SETUP_SAMPLES_PER_REP).map(|_| setup_sample(workload, seed)));
        match run_rep_caught(workload, seed, &mut Recorder::off()) {
            Ok(rep) => {
                let mut bad = rep.failures.clone();
                if let Some(first) = reps.first() {
                    if first.model.fingerprint() != rep.model.fingerprint() {
                        bad.push(format!(
                            "model.* differs from rep 1: {:?} vs {:?}",
                            rep.model, first.model
                        ));
                    }
                }
                if !bad.is_empty() {
                    failed += 1;
                    failures.extend(bad.into_iter().map(|f| format!("rep {attempted}: {f}")));
                }
                reps.push(rep);
            }
            Err(panic) => {
                failed += 1;
                failures.push(format!("rep {attempted}: {panic}"));
            }
        }
        last_rep_s = rep_t0.elapsed().as_secs_f64();
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.run_wall_s).collect();
    let or_nan = |f: &dyn Fn() -> f64| if reps.is_empty() { f64::NAN } else { f() };
    Timed {
        setup_s: fastest(&setups),
        run_s: or_nan(&|| floor_run_s(workload, &reps)),
        peak_rss_mb: peak_rss_mb(),
        attempted,
        failed,
        failures,
        model: reps.first().map(|r| r.model),
        run_s_indexed: or_nan(&|| indexed_run_s(&reps)),
        rep_wall_s: or_nan(&|| median(&walls)),
    }
}

/// The per-layer reading of one workload (`--trace 1`).
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric, in ledger order.
    pub readings: Vec<(&'static str, f64)>,
    /// Operations attempted / failed: the probe ledger's own checks
    /// count as one, each untraced and each traced rep as one.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Link-internal events per attempt in which both nodes fire: two
/// photons, two GENs, the window close, two replies and two reply
/// timeouts. No public counter gives attempts, so the attribution
/// divides by this; single-sided and K-type attempts fire fewer, which
/// over-attributes (README, "Attribution").
const EVENTS_PER_ATTEMPT: f64 = 9.0;

/// Span names that are the run region (as opposed to set-up).
const RUN_SPANS: [&str; 5] = [
    "Network::run_for",
    "Network::request_entanglement",
    "LinkSimulation::next_event_time",
    "LinkSimulation::advance_to",
    "LinkSimulation::drain_deliveries",
];

/// Runs two untraced and two traced reps, writes the first traced
/// rep's spans to `trace_path`, and derives the per-layer metrics from
/// them and the probe ledger's readings. Tracing overhead is the
/// traced reps' floor over the untraced reps'.
pub fn traced_pass(
    workload: &Workload,
    seed: u64,
    probes: &Probes,
    trace_path: &std::path::Path,
) -> Traced {
    let mut failures = probes.failures.clone();
    let mut failed = u64::from(!failures.is_empty());
    warm_up(workload, seed);

    // Untraced and traced reps alternate, twice, so both floors see
    // the same stretches of host weather.
    let (t0, cpu0) = (Instant::now(), cpu_seconds());
    let mut recs = [Recorder::new(1), Recorder::new(2)];
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut reference: Option<Model> = None;
    for rec in &mut recs {
        for (label, rec) in [("untraced rep", &mut Recorder::off()), ("traced rep", rec)] {
            let mut bad = Vec::new();
            match run_rep_caught(workload, seed, rec) {
                Ok(rep) => {
                    bad.extend(rep.failures.iter().cloned());
                    let first = *reference.get_or_insert(rep.model);
                    if rep.model.fingerprint() != first.fingerprint() {
                        bad.push(format!(
                            "model.* differs from the first untraced rep: {:?} vs {first:?}",
                            rep.model
                        ));
                    }
                    if rec.is_on() { &mut traced } else { &mut plain }.push(rep);
                }
                Err(panic) => bad.push(panic),
            }
            if !bad.is_empty() {
                failed += 1;
                failures.extend(bad.into_iter().map(|f| format!("{label}: {f}")));
            }
        }
    }
    // CPU seconds per wall second over the four reps: ≈ 1 while every
    // engine in use runs on one thread.
    let cpu_per_wall = cpu0
        .zip(cpu_seconds())
        .map_or(f64::NAN, |(a, b)| (b - a) / t0.elapsed().as_secs_f64());
    let rec = &recs[0];
    let mut readings = probes.readings.clone();
    if let (Some(first), Some(first_traced)) = (plain.first(), traced.first()) {
        if let Err(e) = std::fs::write(trace_path, rec.chrome_trace(workload.name).to_pretty()) {
            failed += 1;
            failures.push(format!("could not write {}: {e}", trace_path.display()));
        }
        let run_s = floor_run_s(workload, &plain);
        let traced_s = floor_run_s(workload, &traced);
        let (m, c) = (first.model, first_traced.counts);

        // Σ count × probe, in nanoseconds (README, "Attribution").
        let g = |name: &str| probes.get(name);
        let depth = c.queue_depth.min(256.0) / 256.0;
        let poll_ns = g("egp.poll.idle_ns") * (1.0 - depth) + g("egp.poll.backlog_ns") * depth;
        let inside = m.events.saturating_sub(c.shared_events) as f64;
        let attempt_events = (inside - c.link_cycles).max(0.0);
        // A link's own cycle (queue op, two polls) is inside
        // `sim.link.step_ns` when a network wakes it, and counted
        // separately when the link runs alone.
        let cycles_ns = if c.shared_events > 0 {
            c.shared_events as f64 * (g("des.queue.op_ns_deep") + g("sim.link.step_ns"))
        } else {
            c.link_cycles * (g("des.queue.op_ns_shallow") + 2.0 * poll_ns)
        };
        let plan_ns = 1e3
            * match c.nodes {
                0 => 0.0,
                1..=16 => g("net.plan_route_us.4x4"),
                _ => g("net.plan_route_us.16x16"),
            };
        let attributed_ns = cycles_ns
            + attempt_events * g("des.queue.op_ns_shallow")
            + attempt_events / EVENTS_PER_ATTEMPT
                * (2.0 * g("phys.mhp.trigger_ns")
                    + g("phys.attempt.sample_ns")
                    + 4.0 * g("wire.frame.codec_ns"))
            + c.offered as f64 * g("net.load.drop_ns")
            + c.admitted as f64 * plan_ns;

        let totals = rec.totals();
        let roots_ns: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let run_self_ns: u64 = totals
            .iter()
            .filter(|t| RUN_SPANS.contains(&t.name))
            .map(|t| t.self_ns)
            .sum();

        readings.extend([
            ("net.shared_events", c.shared_events as f64),
            ("net.queue_depth_hw", c.queue_depth_hw as f64),
            ("net.reroutes", c.reroutes as f64),
            ("net.timeouts", c.timeouts as f64),
            ("net.obs.trace_overhead_frac", traced_s / run_s - 1.0),
            ("load.queue_depth", c.queue_depth),
            (
                "load.events_per_link_cycle",
                m.events as f64 / c.link_cycles,
            ),
            ("model.events", m.events as f64),
            ("model.sim_elapsed_s", m.sim_elapsed_s),
            ("model.delivered", m.delivered as f64),
            ("model.throughput_per_sim_s", m.throughput_per_sim_s()),
            ("model.fidelity_mean", m.fidelity_mean),
            ("model.latency_p50_s", m.latency_p50_s),
            ("model.latency_p90_s", m.latency_p90_s),
            ("engine.ns_per_event", run_s * 1e9 / m.events as f64),
            ("engine.sim_s_per_host_s", m.sim_elapsed_s / run_s),
            ("engine.run_s_indexed", indexed_run_s(&plain)),
            ("engine.rep_wall_s", first.run_wall_s),
            ("engine.cpu_per_wall", cpu_per_wall),
            ("trace.spans", rec.spans().len() as f64),
            (
                "trace.self_frac.run",
                run_self_ns as f64 / roots_ns.max(1) as f64,
            ),
            (
                "trace.unattributed_frac",
                1.0 - attributed_ns / (run_s * 1e9),
            ),
        ]);
    }
    // Ledger order, whatever order the sections above ran in.
    let order = |name: &str| PER_LAYER.iter().position(|m| m.name == name);
    readings.sort_by_key(|(name, _)| order(name));
    Traced {
        readings,
        attempted: 5,
        failed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn rep(slice_ns: Vec<Vec<u64>>, slice_events: Vec<Vec<u64>>) -> Rep {
        Rep {
            model: Model::default(),
            counts: Counts::default(),
            failures: Vec::new(),
            run_wall_s: 0.0,
            slice_ns,
            slice_events,
        }
    }

    #[test]
    fn strata_hold_like_work_and_never_split_equal_counts() {
        // An idle phase: every slice fires the same events.
        assert_eq!(strata(&[9; 100]), vec![(0..100).collect::<Vec<_>>()]);
        // Distinct counts: equal strata, lightest first.
        let distinct: Vec<u64> = (0..2 * STRATA as u64).rev().collect();
        let cut = strata(&distinct);
        assert_eq!(cut.len(), STRATA);
        assert_eq!(cut[0], [2 * STRATA - 1, 2 * STRATA - 2]);
        assert_eq!(cut[STRATA - 1], [1, 0]);
        // Forty equal counts stay together however small a stratum is.
        let mut mixed = vec![7u64; 40];
        mixed.extend(100..100 + STRATA as u64);
        let cut = strata(&mixed);
        assert_eq!(cut[0], (0..40).collect::<Vec<_>>());
        let size = mixed.len().div_ceil(STRATA);
        assert!(cut[1..cut.len() - 1].iter().all(|s| s.len() == size));
    }

    #[test]
    fn the_floor_prices_each_stratum_at_its_cheapest_and_warm_up_slices_each() {
        // One phase: 2 warm-up slices, then 34 light slices (10 events)
        // and 34 heavy ones (20 events) that cost twice as much per
        // event. Rep b is slower but for one light and one heavy slice.
        let shape = workloads::unbuildable(&[(70, 2)]);
        let mut events = vec![10u64; 70];
        events[36..].fill(20);
        let mut a = vec![1_000u64; 70];
        a[..2].fill(9_000);
        a[36..].fill(4_000);
        let mut b = vec![1_500u64; 70];
        b[..2].fill(8_000);
        b[36..].fill(5_000);
        (b[5], b[40]) = (900, 3_000);
        let reps = [
            rep(vec![a], vec![events.clone()]),
            rep(vec![b], vec![events]),
        ];
        // Warm-up slices at their fastest repeat; light events at 90 ns,
        // heavy ones at 150 ns — not all 1 020 events at 90.
        let want = 2.0 * 8_000.0 + 340.0 * 90.0 + 680.0 * 150.0;
        assert!((floor_run_s(&shape, &reps) * 1e9 - want).abs() < 1e-3);
        // Indexed: every slice at the faster of its two repeats.
        let indexed = 2 * 8_000 + 33 * 1_000 + 900 + 33 * 4_000 + 3_000;
        assert!((indexed_run_s(&reps) * 1e9 - indexed as f64).abs() < 1e-3);
    }

    #[test]
    fn a_panicking_rep_is_a_failed_rep_not_a_crash() {
        let boom = workloads::unbuildable(&[(1, 0)]);
        let err = run_rep_caught(&boom, 1, &mut Recorder::off()).unwrap_err();
        assert_eq!(err, "rep panicked: kaput");
    }
}
