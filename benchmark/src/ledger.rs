//! The metric ledger: every name the benchmark prints, with its unit,
//! direction, regression bound (end-to-end only) and — for per-layer
//! metrics — the `e2e@workload` it is expected to move. A unit test
//! holds `BENCHMARK.json` to these tables, so the two never drift.

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload. A bound is three
/// times the widest ten-seed spread seen while the benchmark was
/// built, rounded up and capped at the 25 % the acceptance contract
/// allows (README, "Bounds").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

/// One per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this should move, or why it
    /// is recorded when the prediction is that it moves nothing.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer ledger, in reporting order. Recorded in the
/// `--trace 1` pass, never gated.
pub const PER_LAYER: [PerLayer; 55] = [
    // des
    layer(
        "des.queue.op_ns_shallow",
        "ns",
        "lower",
        "run_s@link_lab, run_s@link_ql2020",
    ),
    layer("des.queue.op_ns_deep", "ns", "lower", "run_s@grid16_sparse"),
    layer("des.rng.uniform_ns", "ns", "lower", "run_s@link_lab"),
    // phys
    layer("phys.attempt.sample_ns", "ns", "lower", "run_s@link_lab"),
    layer(
        "phys.attempt.build_us",
        "us",
        "lower",
        "setup_s@link_lab, setup_s@link_ql2020",
    ),
    layer("phys.mhp.trigger_ns", "ns", "lower", "run_s@link_lab"),
    // quantum
    layer(
        "quantum.decay_ns",
        "ns",
        "lower",
        "run_s@link_lab, run_s@link_ql2020 (stored NL and CK pairs)",
    ),
    layer(
        "quantum.swap_us",
        "us",
        "lower",
        "nothing measurable; recorded to show that",
    ),
    // wire
    layer("wire.frame.codec_ns", "ns", "lower", "run_s@link_ql2020"),
    // egp
    layer("egp.poll.idle_ns", "ns", "lower", "run_s@grid16_sparse"),
    layer(
        "egp.poll.backlog_ns",
        "ns",
        "lower",
        "run_s@link_ql2020 (predicted to dominate)",
    ),
    layer("egp.create_ns", "ns", "lower", "run_s@service_knee"),
    layer(
        "egp.feu.estimate_us",
        "us",
        "lower",
        "setup_s@link_lab, setup_s@link_ql2020",
    ),
    // sim
    layer(
        "sim.link.new_us",
        "us",
        "lower",
        "setup_s@grid16_sparse, setup_s@service_knee",
    ),
    layer(
        "sim.link.idle_event_ns",
        "ns",
        "lower",
        "run_s@grid16_sparse",
    ),
    layer("sim.link.step_ns", "ns", "lower", "run_s@grid16_sparse"),
    // net
    layer("net.new_ms", "ms", "lower", "setup_s@grid16_sparse"),
    layer("net.plan_route_us.4x4", "us", "lower", "run_s@service_knee"),
    layer(
        "net.plan_route_us.16x16",
        "us",
        "lower",
        "feeds the parked route-cache decision",
    ),
    layer("net.idle_event_ns", "ns", "lower", "run_s@grid16_sparse"),
    layer(
        "net.dispatch_overhead_ns",
        "ns",
        "lower",
        "run_s@grid16_sparse",
    ),
    layer(
        "net.shared_events",
        "count",
        "lower",
        "run_s@grid16_sparse, run_s@service_knee",
    ),
    layer(
        "net.queue_depth_hw",
        "count",
        "lower",
        "run_s@grid16_sparse",
    ),
    layer("net.reroutes", "count", "lower", "run_s@service_knee"),
    layer("net.timeouts", "count", "lower", "run_s@service_knee"),
    layer("net.par.seq_run_s", "s", "lower", "run_s@grid16_sparse"),
    layer(
        "net.par.sharded2_run_s",
        "s",
        "lower",
        "the Sharded(n) keep-or-delete decision; unresolved, too noisy to gate",
    ),
    layer(
        "net.par.sharded2_cpu_s",
        "s",
        "lower",
        "core-seconds of net.par.sharded2_run_s: above it once the second thread works",
    ),
    layer(
        "net.par.windows",
        "count",
        "lower",
        "net.par.sharded2_run_s",
    ),
    layer(
        "net.par.coord_idle_frac",
        "ratio",
        "lower",
        "net.par.sharded2_run_s",
    ),
    layer(
        "net.load.drop_ns",
        "ns",
        "lower",
        "nothing on service_knee at 2 kHz",
    ),
    layer(
        "net.load.offered",
        "count",
        "higher",
        "model count of the drop probe",
    ),
    layer(
        "net.load.admitted",
        "count",
        "higher",
        "model count of the drop probe",
    ),
    layer(
        "net.load.dropped",
        "count",
        "lower",
        "model count of the drop probe",
    ),
    layer(
        "net.load.completed",
        "count",
        "higher",
        "model count of the drop probe",
    ),
    layer(
        "net.load.abandoned",
        "count",
        "lower",
        "model count of the drop probe",
    ),
    layer(
        "net.load.in_flight",
        "count",
        "lower",
        "model count of the drop probe",
    ),
    layer(
        "net.obs.trace_overhead_frac",
        "ratio",
        "lower",
        "run_s@* with telemetry on",
    ),
    // load: what the closed loops hold, next to the paper loads' readings
    layer(
        "load.queue_depth",
        "count",
        "lower",
        "run_s@link_lab, run_s@link_ql2020 through egp.poll.backlog_ns",
    ),
    layer(
        "load.events_per_link_cycle",
        "ratio",
        "lower",
        "run_s@*: 1 on an idle link, 2 on an idle grid link, ~10 while attempting",
    ),
    // model: simulated statistics, exact by seed
    layer(
        "model.events",
        "count",
        "lower",
        "must not move under a simulator-only change",
    ),
    layer(
        "model.sim_elapsed_s",
        "s",
        "higher",
        "must not move under a simulator-only change",
    ),
    layer(
        "model.delivered",
        "count",
        "higher",
        "must not move under a simulator-only change",
    ),
    layer(
        "model.throughput_per_sim_s",
        "1/s",
        "higher",
        "must not move under a simulator-only change",
    ),
    layer(
        "model.fidelity_mean",
        "ratio",
        "higher",
        "must not move under a simulator-only change",
    ),
    layer(
        "model.latency_p50_s",
        "s",
        "lower",
        "must not move under a simulator-only change",
    ),
    layer(
        "model.latency_p90_s",
        "s",
        "lower",
        "must not move under a simulator-only change",
    ),
    // derived
    layer(
        "engine.ns_per_event",
        "ns",
        "lower",
        "run_s@* over model.events",
    ),
    layer(
        "engine.sim_s_per_host_s",
        "ratio",
        "higher",
        "model.sim_elapsed_s over run_s@*",
    ),
    layer(
        "engine.run_s_indexed",
        "s",
        "lower",
        "run_s@* without the floor's blind spot, neighbours included",
    ),
    layer(
        "engine.rep_wall_s",
        "s",
        "lower",
        "run_s@* as it happened, neighbours included",
    ),
    layer(
        "engine.cpu_per_wall",
        "ratio",
        "lower",
        "core-seconds per run_s@*: 1 until an engine in use goes threaded",
    ),
    layer("trace.spans", "count", "lower", "size of the chrome trace"),
    layer(
        "trace.self_frac.run",
        "ratio",
        "higher",
        "share of the traced rep inside run calls",
    ),
    layer(
        "trace.unattributed_frac",
        "ratio",
        "lower",
        "run_s@* minus sum of count x probe",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;
    use std::collections::HashSet;

    /// `true` when `name` fits the benchmark contract: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// `true` when `unit` fits the contract: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn names_units_and_limits_fit_the_contract() {
        let workloads = workloads::all();
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for name in workloads
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for w in &workloads {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER
            .iter()
            .all(|m| matches!(m.better, "lower" | "higher") && !m.moves.is_empty()));
    }

    #[test]
    fn the_charset_rejects_what_the_contract_rejects() {
        for good in [
            "run_s",
            "net.plan_route_us.4x4",
            "4x4",
            "a-b",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    /// `BENCHMARK.json` is hand-written to the contract; this keeps it
    /// equal to the tables above, key for key.
    #[test]
    fn benchmark_json_matches_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                assert_eq!(w.members().len(), 2);
                (field(w, "name"), field(w, "why"))
            })
            .collect();
        let ours: Vec<(String, String)> = workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.members().len(), 4);
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.members().len(), 3);
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
        }

        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command = doc.get("command").unwrap().items();
        assert!(command.len() <= 32);
        assert!(command
            .iter()
            .any(|c| c.as_str() == Some("benchmark/Cargo.toml")));
    }
}
