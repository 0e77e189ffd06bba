//! Estimators and host readings: order statistics, the `/proc`
//! parsers behind the CPU readings and `peak_rss_mb`, and the batch
//! timer the per-layer probes share.
//!
//! Everything is `std` only — no `libc` crate resolves offline — so
//! host readings come from `/proc/self/{stat,status}` text and are
//! `None` anywhere those files are missing (never a guess).

use std::time::Instant;

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(Q1, median, Q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spreads
/// this package prints are the ones the acceptance driver computes.
/// A single value is its own three quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    // statistics.quantiles, method "exclusive": cut i of 4 sits at
    // i·(n+1)/4 on a 1-based axis; the bracketing index is clamped to
    // the data and the weight is not, so short samples extrapolate
    // exactly as Python does.
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The smallest of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per call of `op`: the fastest of `batches` batches of
/// `iters` back-to-back calls. The fastest batch is the estimate of
/// the cost on an undisturbed core — on a shared host a median moves
/// with the neighbours' cache traffic, the floor does not (README,
/// "Why the floor").
pub fn ns_per_op(batches: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// `VmHWM` (peak resident set) in kiB from `/proc/self/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` in clock ticks from `/proc/self/stat` text. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the *last* `)`: state is field 3, `utime` 14,
/// `stime` 15.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` times in `USER_HZ` ticks, 100 per second on
/// every architecture this simulator builds for (`sysconf` would need
/// `libc`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used, or
/// `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 0.5, 2.0]), 0.5);
    }

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5124 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5124));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 2 0 1 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn host_readings_exist_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }

    #[test]
    fn ns_per_op_scales_with_the_work() {
        let mut acc = 0u64;
        let mut spin = |n: u64| {
            for i in 0..n {
                acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
            }
        };
        let small = ns_per_op(5, 200, || spin(100));
        let large = ns_per_op(5, 200, || spin(1000));
        assert!(large > small * 3.0, "{small} vs {large}");
    }
}
