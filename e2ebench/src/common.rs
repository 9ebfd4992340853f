//! Result reporting, statistics and the timing scaffolding every
//! workload shares.

use std::time::{Duration, Instant};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// One run's result: operation counts, correctness, and named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed correctness checks (empty = correct).
    pub violations: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a correctness check; a failing one makes the run
    /// incorrect and is printed with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.violations.push(msg);
        }
    }

    /// Merges another path's traced result into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.metrics.extend(other.metrics);
    }

    /// Prints a readable summary to stderr and the result object as the
    /// last line of stdout.
    pub fn print(mut self) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.violations.push(format!("metric {name} is not finite"));
            }
        }
        if self.attempted == 0 {
            self.violations.push("no operation was attempted".into());
        }
        let correct = self.violations.is_empty();
        eprintln!(
            "correct={correct} attempted={} failed={} checks_failed={}",
            self.attempted,
            self.failed,
            self.violations.len()
        );
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
            let v = if value.is_finite() { *value } else { 0.0 };
            metrics.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it (exact order
/// statistic, no interpolation and no bucketing).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The process's peak resident set so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Empties the process-global memo stores (simulation reports and
/// structural profiles), so the next pass starts cold.
pub fn clear_global_caches() {
    misam_oracle::global().clear();
    misam_oracle::profiles::global().clear();
}

/// Times one set-up from emptied global caches.
fn timed_setup<T>(build: impl FnOnce() -> T) -> (f64, T) {
    clear_global_caches();
    let t = Instant::now();
    let built = build();
    (secs(t), built)
}

/// Builds a system, warms it up (untimed) and runs whole rounds on it
/// until they have taken `window` (at least one round). The system is
/// rebuilt [`SETUP_REPS`] − 1 more times at even steps of that round
/// time, the last at its end; each rebuild first drops the old system
/// (outside the timing), so one system is resident at a time. Host
/// speed drifts on a scale of seconds, so set-ups spread across the run
/// sample the same host as the rounds do. Set-up is deterministic, so
/// every rebuild is the same system. Returns the number of rounds, the
/// median set-up seconds and the system.
pub fn rounds_with_setups<T>(
    window: Duration,
    mut build: impl FnMut() -> T,
    warm_up: impl FnOnce(&mut T),
    mut round: impl FnMut(&mut T),
) -> (usize, f64, T) {
    let (first, mut sys) = timed_setup(&mut build);
    warm_up(&mut sys);
    let mut times = vec![first];
    let mut busy = Duration::ZERO;
    let mut n = 0;
    loop {
        while times.len() < SETUP_REPS
            && busy >= window.mul_f64(times.len() as f64 / (SETUP_REPS - 1) as f64)
        {
            drop(sys);
            let (t, next) = timed_setup(&mut build);
            sys = next;
            times.push(t);
        }
        if busy >= window {
            eprintln!("setup: {times:.3?} s");
            return (n, median(&times), sys);
        }
        let t = Instant::now();
        round(&mut sys);
        busy += t.elapsed();
        n += 1;
    }
}

/// Runs whole rounds until `window` has elapsed (at least one round),
/// returning how many ran.
pub fn rounds_for(window: Duration, mut round: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        round();
        n += 1;
        if start.elapsed() >= window {
            return n;
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Bit-level equality of two reports, through their `Debug` forms
/// (shortest round-trip float printing distinguishes every value).
pub fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Threads for the parallel phases: every core the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
