//! Shared support for the benchmark harness.
//!
//! Each bench target (one per table/figure of the paper, see
//! `DESIGN.md`) uses these helpers to run scaled-down versions of the
//! paper's scenarios and print rows in the same shape the paper
//! reports. Scale the simulated duration with the environment variable
//! `QLINK_BENCH_SCALE` (default 1.0, at least 0.05; e.g.
//! `QLINK_BENCH_SCALE=5` for longer, lower-variance runs). A value that
//! is not a number stops the bench.

use qlink::prelude::*;

/// Simulated seconds for a nominal run, honouring `QLINK_BENCH_SCALE`.
pub fn scaled_secs(nominal: f64) -> SimDuration {
    let scale = bench_scale(std::env::var("QLINK_BENCH_SCALE").ok().as_deref());
    SimDuration::from_secs_f64(nominal * scale)
}

/// The scale a `QLINK_BENCH_SCALE` value asks for: 1.0 when it is unset,
/// never below 0.05.
///
/// # Panics
///
/// If the value is not a number (`0,25`), rather than run at 1.0.
fn bench_scale(value: Option<&str>) -> f64 {
    let scale = value.map_or(1.0, |s| {
        s.parse::<f64>()
            .unwrap_or_else(|_| panic!("QLINK_BENCH_SCALE={s:?} is not a number"))
    });
    scale.max(0.05)
}

/// Runs a link for `secs` simulated seconds and returns it.
pub fn run_link(cfg: LinkConfig, secs: SimDuration) -> LinkSimulation {
    let mut sim = LinkSimulation::new(cfg);
    sim.run_for(secs);
    sim
}

/// Prints a standard bench header.
pub fn header(id: &str, what: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("reproduces: {paper_ref}");
    println!("================================================================");
}

/// Formats a mean with its standard error the way the paper's tables
/// do: `1.234 (0.056)`.
pub fn mean_se(stats: &qlink::math::stats::RunningStats) -> String {
    if stats.count() == 0 {
        "-".to_string()
    } else {
        format!("{:.3} ({:.3})", stats.mean(), stats.stderr())
    }
}

/// Wall-clock timer for run banners.
pub struct Stopwatch(std::time::Instant);

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// Starts timing.
    pub fn new() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::bench_scale;

    #[test]
    fn bench_scale_reads_a_number() {
        assert_eq!(bench_scale(None), 1.0);
        assert_eq!(bench_scale(Some("0.25")), 0.25);
        assert_eq!(bench_scale(Some("5")), 5.0);
        assert_eq!(bench_scale(Some("0.001")), 0.05, "clamped");
    }

    #[test]
    #[should_panic(expected = "QLINK_BENCH_SCALE=\"0,25\" is not a number")]
    fn bench_scale_refuses_a_value_that_is_not_a_number() {
        bench_scale(Some("0,25"));
    }
}
