//! The repo benchmark: four workloads, three end-to-end metrics and a
//! per-layer probe ledger over the `qlink` facade's public API.
//!
//! ```sh
//! # everything: both passes of all four workloads, results file
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- [--seed N] [--seconds S]
//! # one cell, as the acceptance driver calls it (last line: one JSON object)
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload link_lab --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Every (workload, pass) cell runs in a child process — this binary
//! re-executed with `--child` — so `peak_rss_mb` belongs to that
//! workload alone. A failed output check makes the exit code
//! non-zero. See `README.md` for the metric glossary.

mod harness;
mod json;
mod ledger;
mod measure;
mod probes;
mod spans;
mod workloads;

use json::Json;
use ledger::{END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
    child: bool,
    /// Probe readings a full run took once for its traced cells.
    probes: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: qlink-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] | --compare A/results.json B/results.json";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        child: false,
        probes: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--child" => o.child = true,
            "--probes" => o.probes = Some(PathBuf::from(value()?)),
            "--compare" => o.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &o.workload {
        if !workloads::all().iter().any(|w| w.name == name) {
            let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &opts.compare {
        compare(a, b)
    } else if opts.child {
        child(&opts)
    } else {
        parent(&opts)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---- child: one workload, one pass -------------------------------------

fn metric(value: impl Into<Option<f64>>, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

/// Runs one (workload, pass) cell in this process, prints every metric
/// by name with its unit, and ends with the one-line JSON result.
fn child(opts: &Opts) -> Result<bool, String> {
    let name = opts.workload.as_deref().ok_or("--child needs --workload")?;
    let all = workloads::all();
    let workload = all.iter().find(|w| w.name == name).expect("validated");
    let traced = opts.trace.ok_or("--child needs --trace")?;

    let (metrics, attempted, failed, failures) = if traced {
        std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        let path = opts.out.join(format!("trace-{name}.json"));
        let probes = match &opts.probes {
            Some(file) => probes::Probes::from_json(&read_json(file)?)
                .map_err(|e| format!("{}: {e}", file.display()))?,
            None => probes::run(opts.seed),
        };
        let t = harness::traced_pass(workload, opts.seed, &probes, &path);
        println!("spans written to {}", path.display());
        let metrics: Vec<(String, Json)> = t
            .readings
            .iter()
            .map(|(n, v)| {
                let unit = PER_LAYER
                    .iter()
                    .find(|m| m.name == *n)
                    .expect("in ledger")
                    .unit;
                (n.to_string(), metric(*v, unit))
            })
            .collect();
        (metrics, t.attempted, t.failed, t.failures)
    } else {
        let t = harness::timed_pass(workload, opts.seed, opts.seconds);
        let values = [Some(t.setup_s), Some(t.run_s), t.peak_rss_mb];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
            .collect();
        if let Some(m) = t.model {
            println!(
                "model: {} events over {} sim-s, {} delivered",
                m.events, m.sim_elapsed_s, m.delivered
            );
            println!(
                "ungated: every slice at its fastest repeat {:.3} s, median rep as it happened {:.3} s",
                t.run_s_indexed, t.rep_wall_s
            );
        }
        (metrics, t.attempted, t.failed, t.failures)
    };

    for (n, m) in &metrics {
        let value = m.get("value").map_or("null".into(), Json::to_line);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
        // What the ledger says of it: an end-to-end metric's bound, or
        // the end-to-end metric a per-layer one should move.
        let note = match (
            END_TO_END.iter().find(|e| e.name == n),
            PER_LAYER.iter().find(|l| l.name == n),
        ) {
            (Some(e), _) => format!("{} is better, bound {:.0} %", e.better, e.bound * 100.0),
            (_, Some(l)) => format!("{} is better; moves {}", l.better, l.moves),
            _ => String::new(),
        };
        println!("{name:<14} {n:<30} {value:>22} {unit:<6} {note}");
    }
    for f in &failures {
        println!("FAILED {name}: {f}");
    }
    // A reading the host cannot give (off Linux) is null, which the
    // result line's consumer treats as missing — never a guess.
    let complete = metrics
        .iter()
        .all(|(_, m)| m.get("value") != Some(&Json::Null));
    let expected = if traced {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let correct = failed == 0 && complete && metrics.len() == expected;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(attempted as f64)),
            ("failed", Json::num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    );
    Ok(correct)
}

// ---- parent: spawn a child per cell ------------------------------------

/// Re-executes this binary for one cell, echoing its output; returns
/// its final line parsed as the JSON result.
fn run_cell(
    opts: &Opts,
    workload: &str,
    traced: bool,
    probes: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--child")
        .args(probes.iter().flat_map(|file| [Path::new("--probes"), file]))
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        last = line.map_err(|e| format!("read child: {e}"))?;
        println!("{last}");
    }
    // Always reap the child, whatever it printed.
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let result = Json::parse(&last)
        .map_err(|e| format!("{workload}: no result line ({e}); child exited with {status}"))?;
    Ok(result)
}

fn parent(opts: &Opts) -> Result<bool, String> {
    let names: Vec<&str> = match &opts.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::all().iter().map(|w| w.name).collect(),
    };
    let passes: Vec<bool> = match opts.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    // One cell: the acceptance driver's call. The child's result line
    // is the last thing on stdout; add nothing after it.
    if let ([name], [traced]) = (names.as_slice(), passes.as_slice()) {
        let result = run_cell(opts, name, *traced, None)?;
        return Ok(result.get("correct") == Some(&Json::Bool(true)));
    }

    // The probe ledger is the same work whatever the workload: a full
    // run takes it once, hands it to every traced cell and records it
    // once.
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let probes_path = opts.out.join("probes.json");
    let probes = passes.contains(&true).then(|| probes::run(opts.seed));
    if let Some(probes) = &probes {
        std::fs::write(&probes_path, probes.to_json().to_pretty())
            .map_err(|e| format!("{}: {e}", probes_path.display()))?;
    }
    let is_probe = |name: &str| {
        let readings = probes.iter().flat_map(|p| &p.readings);
        readings.into_iter().any(|(n, _)| *n == name)
    };

    let mut all_correct = true;
    let mut cells = Vec::new();
    for name in &names {
        let mut passes_out = Vec::new();
        for &traced in &passes {
            let why = workloads::all()
                .iter()
                .find(|w| w.name == *name)
                .map_or("", |w| w.why);
            println!("== {name} ({why})");
            println!(
                "== {name}, {} ==",
                if traced {
                    "per-layer pass (--trace 1)"
                } else {
                    "end-to-end pass (--trace 0)"
                }
            );
            let mut result = run_cell(opts, name, traced, traced.then_some(&probes_path))?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            if let Json::Obj(members) = &mut result {
                if let Some((_, Json::Obj(metrics))) =
                    members.iter_mut().find(|(k, _)| k == "metrics")
                {
                    metrics.retain(|(name, _)| !is_probe(name));
                }
            }
            passes_out.push((if traced { "per_layer" } else { "end_to_end" }, result));
        }
        cells.push((name.to_string(), Json::obj(passes_out)));
    }
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let results = Json::obj([
        ("seed", Json::num(opts.seed as f64)),
        ("seconds", Json::num(opts.seconds)),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::num(
                        std::thread::available_parallelism()
                            .ok()
                            .map(|n| n.get() as f64),
                    ),
                ),
                ("rustc", rustc.map_or(Json::Null, Json::Str)),
            ]),
        ),
        ("claim", Json::Null),
        (
            "probes",
            probes.as_ref().map_or(Json::Null, |p| p.to_json()),
        ),
        ("workloads", Json::Obj(cells)),
    ]);
    let path = opts.out.join("results.json");
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    println!(
        "{}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

// ---- compare: two results files ----------------------------------------

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value_of(results: &Json, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints every end-to-end metric × workload of two runs side by side
/// with its bound; `false` when a pair differs by more than its bound
/// or any `model.*` value differs at all.
fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let mut agree = true;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in workloads::all() {
        for m in &END_TO_END {
            let pair = value_of(&a, w.name, "end_to_end", m.name).zip(value_of(
                &b,
                w.name,
                "end_to_end",
                m.name,
            ));
            let Some((x, y)) = pair else {
                println!("{:<14} {:<12} missing from one of the runs", w.name, m.name);
                agree = false;
                continue;
            };
            let diff = (x - y).abs() / x.min(y);
            let verdict = if diff > m.bound { "OUTSIDE" } else { "" };
            agree &= diff <= m.bound;
            println!(
                "{:<14} {:<12} {x:>14.6} {y:>14.6} {:>7.1}% {:>5.0}% {verdict}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with("model.")) {
            let (x, y) = (
                value_of(&a, w.name, "per_layer", m.name),
                value_of(&b, w.name, "per_layer", m.name),
            );
            if x.is_none() || x != y {
                println!("{:<14} {} differs: {x:?} vs {y:?}", w.name, m.name);
                agree = false;
            }
        }
    }
    println!(
        "{}",
        if agree {
            "the two runs agree"
        } else {
            "THE TWO RUNS DISAGREE"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_call_parses() {
        let o = parse_args(&args("--workload link_lab --seed 7 --seconds 28 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("link_lab"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 28.0, Some(true)));
        assert!(!o.child && o.compare.is_none());
    }

    #[test]
    fn bad_calls_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::num(3.0)),
            ("failed", Json::num(0.0)),
            ("metrics", Json::obj([("run_s", metric(1.25, "s"))])),
        ])
        .to_line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 1.25, "unit": "s"}}}"#
        );
        let back = Json::parse(&line).unwrap();
        let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn compare_reads_values_by_path() {
        let doc = Json::parse(
            r#"{"workloads": {"link_lab": {"end_to_end": {"metrics": {"run_s": {"value": 2.5, "unit": "s"}}}}}}"#,
        )
        .unwrap();
        assert_eq!(value_of(&doc, "link_lab", "end_to_end", "run_s"), Some(2.5));
        assert_eq!(value_of(&doc, "link_lab", "end_to_end", "setup_s"), None);
        assert_eq!(value_of(&doc, "nope", "end_to_end", "run_s"), None);
    }
}
