//! The Red-QAOA repository benchmark.
//!
//! ```text
//! perfbench --workload <session|corpus|noisy|cone> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: one client in one process sends its next
//! request when the previous one returns. Inputs are generated from
//! `--seed`; the program under test only ever sees the generated inputs,
//! through its public APIs (`Engine::run` / `run_batch`, `reduction`,
//! `qaoa::evaluator`, `qaoa::optimize`, `qaoa::depth`, `datasets`).
//!
//! * `--trace 0` measures for `--seconds` and reports the end-to-end
//!   metrics. No spans are recorded.
//! * `--trace 1` runs a fixed list of requests untraced, then replays each
//!   one through the public layer calls behind it with a span around every
//!   call, checks that the replay reproduces the untraced output bit for
//!   bit, and reports the per-layer metrics.
//!
//! Both modes check every output; a failed request or check counts in
//! `failed`. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the environment stamp, the quality figures and the raw layer times.
//! Each run also writes its stamp, result and (traced) spans to
//! `.bench_out/` under the current directory.

mod checks;
mod cone;
mod corpus;
mod noisy;
mod report;
mod session;
mod trace;

use report::{Layers, Report, Samples};
use std::time::Instant;
use trace::{median, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Seed of every warm-up input. Warm-ups do the same work for every
/// workload seed, so only input generation makes set-up time seed-dependent.
pub const WARM_SEED: u64 = 0x5EED_3A7E;

/// A benchmark workload: its inputs, its timed loop and its traced replay.
pub trait Workload {
    type State;

    /// Generates the inputs for `seed`, builds the engine or evaluators and
    /// warms up. Runs [`SETUP_REPEATS`] times per timed run.
    fn setup(seed: u64, threads: usize, seconds: f64) -> Self::State;

    /// Sends requests for at least `seconds`, checking each output.
    fn measure(state: &mut Self::State, seconds: f64, report: &mut Report) -> Samples;

    /// Runs the traced request list untraced, then replays it under
    /// `tracer`, filling the layer metrics. Returns the untraced wall
    /// seconds of the requests the replay repeated, for the tracing
    /// overhead.
    fn trace(
        state: &mut Self::State,
        tracer: &Tracer,
        report: &mut Report,
        layers: &mut Layers,
    ) -> f64;
}

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
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // `perfbench record-cone-golden <first seed> <last seed>` prints the
    // recorded energies `cone_golden.txt` holds.
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some("record-cone-golden") {
        let seed = |i: usize| raw.get(i).and_then(|s| s.parse::<u64>().ok());
        let (Some(first), Some(last)) = (seed(2), seed(3)) else {
            eprintln!("usage: perfbench record-cone-golden <first seed> <last seed>");
            std::process::exit(2);
        };
        cone::record(first..=last);
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <session|corpus|noisy|cone> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let stamp = report::Stamp::capture();
    println!("# env {}", stamp.to_json());
    let result = match args.workload.as_str() {
        "session" => run::<session::Session>(&args, &stamp),
        "corpus" => run::<corpus::Corpus>(&args, &stamp),
        "noisy" => run::<noisy::Noisy>(&args, &stamp),
        "cone" => run::<cone::Cone>(&args, &stamp),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{result}");
}

fn run<W: Workload>(args: &Args, stamp: &report::Stamp) -> String {
    // A traced run reports no set-up time, so it sets up once.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        // Drop the previous state first so its memory is not counted twice.
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(args.seed, stamp.threads, args.seconds));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let mut report = Report::default();
    let detail;
    if args.trace {
        let tracer = Tracer::new();
        let mut layers = Layers::default();
        let untraced = W::trace(&mut state, &tracer, &mut report, &mut layers);
        layers.set("trace.uncovered_frac", tracer.uncovered_frac());
        layers.set(
            "trace.overhead_frac",
            tracer.request_secs() / untraced - 1.0,
        );
        report.note(format!(
            "trace: {} spans over {} requests; untraced {:.4} s, traced {:.4} s",
            tracer.spans().len(),
            tracer.count("request"),
            untraced,
            tracer.request_secs()
        ));
        report.metrics = layers.into_metrics();
        // Every count but the two-thread race count repeats exactly per seed.
        let counts: Vec<(String, f64)> = report
            .metrics
            .iter()
            .filter(|(name, _, unit)| *unit == "count" && *name != "cache.duplicate_misses")
            .map(|(name, value, _)| (name.to_string(), *value))
            .collect();
        report.repeatable.extend(counts);
        detail = format!("\"spans\": {}", tracer.to_json());
    } else {
        let samples = W::measure(&mut state, args.seconds, &mut report);
        let metrics = samples.end_to_end(median(&setups), report::peak_rss_mb(), &mut report);
        report.metrics = metrics;
        let latencies: Vec<String> = samples.latencies_ms.iter().map(f64::to_string).collect();
        detail = format!("\"latencies_ms\": [{}]", latencies.join(", "));
        report.note(format!(
            "setups (s): {}",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    report::check_repeat(&args.workload, args.seed, args.trace, stamp, &mut report);
    let result = report.result_json();
    for line in report.notes.iter().chain(&report.summary()) {
        println!("# {line}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    report::write_out(
        &args.workload,
        args.seed,
        args.trace,
        stamp,
        &report,
        &result,
        &detail,
    );
    result
}
