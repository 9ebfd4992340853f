//! The repository benchmark: the decision, labeling and serving paths of
//! Misam, driven only through the crates' public functions and timed
//! from outside.
//!
//! ```text
//! e2ebench --workload <suite-stream|label-corpus> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one workload untraced and reports its end-to-end
//! metrics. `--trace 1` runs the traced replica of every path, the
//! serving path included (each call into a layer's public functions
//! wrapped in a timer), and reports the per-layer metrics plus each
//! path's tracing overhead. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! progress and a readable summary go to standard error.

mod common;
mod label;
mod serve;
mod suite;

use common::Outcome;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: e2ebench --workload <suite-stream|label-corpus> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !["suite-stream", "label-corpus"].contains(&args.workload.as_str()) {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    // Every implicit fan-out (corpus generation inside set-up, forest
    // fits) runs on one thread so set-up time does not depend on what
    // else the host is doing; the timed phases pass explicit thread
    // counts. Set before any thread exists.
    std::env::set_var("MISAM_THREADS", "1");

    let window = Duration::from_secs_f64(args.seconds);
    let outcome = if args.trace {
        trace_census(args.seed, window)
    } else {
        match args.workload.as_str() {
            "suite-stream" => suite::run(args.seed, window),
            _ => label::run(args.seed, window),
        }
    };
    outcome.print();
    ExitCode::SUCCESS
}

/// The traced run: every path's traced replica, whatever the workload,
/// so each per-layer metric is measured in every traced run. The window
/// is split evenly between the three paths.
fn trace_census(seed: u64, window: Duration) -> Outcome {
    let slice = window / 3;
    let mut out = suite::trace(seed, slice);
    out.absorb(label::trace(seed, slice));
    out.absorb(serve::trace(seed, slice));
    out
}
