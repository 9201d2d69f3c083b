//! Result assembly: failure accounting, the end-to-end and per-layer metric
//! sets, the environment stamp, and the output file.

use crate::trace::{mean, median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named quality figure of one output.
pub type Figure<T> = (&'static str, fn(&T) -> f64);

/// Failure accounting, metrics and human-readable notes of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    /// Counts and quality figures that must repeat exactly between runs of
    /// the same seed.
    pub repeatable: Vec<(String, f64)>,
}

impl Report {
    /// Counts one request; `Err` (a failed call or a failed output check)
    /// counts it as failed.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem);
            }
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn repeatable(&mut self, name: impl Into<String>, value: f64) {
        self.repeatable.push((name.into(), value));
    }

    /// Notes the mean of each figure over `outputs` and records it as a
    /// value that must repeat exactly per seed.
    pub fn quality<T>(&mut self, over: &str, outputs: &[T], figures: &[Figure<T>]) {
        let mut parts = Vec::new();
        for &(name, figure) in figures {
            let value = mean(&outputs.iter().map(figure).collect::<Vec<_>>());
            self.repeatable(name, value);
            parts.push(format!("{name} {value:.6}"));
        }
        self.note(format!("quality over {over}: {}", parts.join(", ")));
    }

    /// One line per metric with its unit and which way is better, and the
    /// failure share.
    pub fn summary(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let better = END_TO_END
                    .iter()
                    .chain(LAYER_METRICS)
                    .find(|m| m.0 == name)
                    .map_or("?", |m| m.2);
                format!("{name} = {value} {unit} ({better} is better)")
            })
            .collect();
        lines.push(format!(
            "failed_frac = {} ({} of {} requests and checks failed)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        lines
    }

    /// The last line of standard output.
    pub fn result_json(&mut self) -> String {
        let mut metrics = String::new();
        let mut bad = Vec::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                bad.push(*name);
                0.0
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for name in bad {
            self.failed += 1;
            self.problems.push(format!("metric {name} is not finite"));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Request latencies of one timed loop.
///
/// Workloads that cycle through request classes of different cost (graph
/// sizes, regular and thinned graphs) are measured per cycle: a plain median
/// of a two-class mixture falls between the classes and jumps from run to
/// run, while the mean latency of one request of each class does not.
pub struct Samples {
    pub latencies_ms: Vec<f64>,
    /// Work per request (sessions, graphs, pipelines or points).
    items_per_request: f64,
    items_unit: &'static str,
    /// Requests per cycle of request classes.
    cycle: usize,
    /// Cycles per throughput window.
    window: usize,
}

impl Samples {
    pub fn new(
        items_per_request: f64,
        items_unit: &'static str,
        cycle: usize,
        window: usize,
    ) -> Self {
        Self {
            latencies_ms: Vec::new(),
            items_per_request,
            items_unit,
            cycle,
            window,
        }
    }

    pub fn push(&mut self, latency: std::time::Duration) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// The end-to-end metrics: `item_p50_ms` is the median over cycles of
    /// the cycle's mean request latency, and `items_per_s` the median over
    /// windows of the window's work per second of request time (the
    /// client's output checks between requests do not count). Medians keep
    /// a stall on the shared machine from moving either.
    pub fn end_to_end(
        &self,
        setup_s: f64,
        peak_rss_mb: f64,
        report: &mut Report,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let cycles: Vec<f64> = self
            .latencies_ms
            .chunks_exact(self.cycle)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let rates: Vec<f64> = cycles
            .chunks_exact(self.window)
            .map(|w| 1e3 * self.items_per_request / (w.iter().sum::<f64>() / w.len() as f64))
            .collect();
        let busy_s = self.latencies_ms.iter().sum::<f64>() * 1e-3;
        let n = self.latencies_ms.len();
        let p50 = if cycles.is_empty() {
            0.0
        } else {
            median(&cycles)
        };
        let mut latency = format!(
            "{n} requests ({} {} in {busy_s:.3} s of request time): p50 {p50:.3} ms over {} cycles of {}, items_per_s over {} windows of {} cycles",
            n as f64 * self.items_per_request,
            self.items_unit,
            cycles.len(),
            self.cycle,
            rates.len(),
            self.window,
        );
        if n >= 100 {
            let _ = write!(
                latency,
                "; request p90 {:.3} ms",
                quantile(&self.latencies_ms, 0.9)
            );
        }
        report.note(latency);
        let items_per_s = if rates.is_empty() {
            0.0
        } else {
            median(&rates)
        };
        let values = [items_per_s, p50, setup_s, peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| (name, value, unit))
            .collect()
    }
}

/// The end-to-end metrics: name, unit and which way is better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The per-layer metrics, each with its unit and which way is better. Every workload reports every
/// one; a layer the workload does not call reads 0. Layer times are given as
/// shares of traced request time and as rates, so a layer that is absent
/// from a workload reads 0 rather than a time of 0; the raw times are
/// printed beside the result.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("energy.calls", "count", "lower"),
    ("energy.busy_share", "frac", "lower"),
    ("energy.calls_per_s.q12", "1/s", "higher"),
    ("energy.calls_per_s.q14", "1/s", "higher"),
    ("energy.calls_per_s.q16", "1/s", "higher"),
    ("energy.gbytes_per_s", "GB/s", "higher"),
    ("optimize.self_share", "frac", "lower"),
    ("rescore.share", "frac", "lower"),
    ("brute_force.share", "frac", "lower"),
    ("reduce.misses", "count", "lower"),
    ("reduce.busy_share", "frac", "lower"),
    ("reduce.misses_per_s", "1/s", "higher"),
    ("cache.hit_ratio", "frac", "higher"),
    ("cache.hits_per_s", "1/s", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.duplicate_misses", "count", "lower"),
    ("parallel.efficiency", "frac", "higher"),
    ("trajectory.energy_calls", "count", "lower"),
    ("trajectory.count", "count", "lower"),
    ("trajectory.busy_share", "frac", "lower"),
    ("trajectory.per_s", "1/s", "higher"),
    ("depth.compiles_per_s", "1/s", "higher"),
    ("depth.rounds", "count", "lower"),
    ("depth.naive_depth", "count", "lower"),
    ("cone.builds_per_s", "1/s", "higher"),
    ("cone.sims_per_point", "count", "lower"),
    ("cone.sims_per_s", "1/s", "higher"),
    ("trace.uncovered_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
];

/// Values of [`LAYER_METRICS`] set by a traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _, _)| *n == name),
            "{name} is not a layer metric"
        );
        self.values.insert(name, value);
    }

    /// `1 / seconds`, or 0 when nothing was timed.
    pub fn rate(seconds: f64) -> f64 {
        if seconds > 0.0 {
            1.0 / seconds
        } else {
            0.0
        }
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// What a result was measured on. Results whose stamps differ are not
/// comparable.
pub struct Stamp {
    pub nproc: usize,
    pub threads: usize,
    kernel_env: Option<String>,
    threads_env: Option<String>,
    commit: String,
    /// FNV-1a hash of the benchmark executable, which tells builds apart in a
    /// checkout without `.git`.
    build: String,
    rustc: &'static str,
}

impl Stamp {
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads_env = std::env::var(mathkit::parallel::THREADS_ENV).ok();
        // The engine runs at most one thread per core present.
        let threads = threads_env
            .as_deref()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .unwrap_or(nproc)
            .clamp(1, nproc);
        Self {
            nproc,
            threads,
            kernel_env: std::env::var(qsim::statevector::KERNEL_ENV).ok(),
            threads_env,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            build: build_hash().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        let quote = |v: &Option<String>| {
            v.as_ref().map_or("null".to_string(), |s| {
                format!("\"{}\"", s.escape_default())
            })
        };
        format!(
            "{{\"nproc\": {}, \"threads\": {}, \"RED_QAOA_KERNEL\": {}, \"RED_QAOA_THREADS\": {}, \"commit\": \"{}\", \"build\": \"{}\", \"rustc\": \"{}\"}}",
            self.nproc,
            self.threads,
            quote(&self.kernel_env),
            quote(&self.threads_env),
            self.commit,
            self.build,
            self.rustc.escape_default()
        )
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (a benchmark checkout may have no `.git` at all).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

fn build_hash() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Some(format!("{hash:016x}"))
}

/// Peak resident set size of this process in MB: `VmHWM` from
/// `/proc/self/status`. (The `getrusage` high-water mark would not do: it
/// carries over the memory of a parent that execs the benchmark, such as
/// `cargo run`.) NaN where the file is missing, which fails the run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib = line.split_whitespace().nth(1)?.parse::<f64>().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Writes the stamp, notes and result of a run, and `detail` (a JSON member:
/// the spans of a traced run, the latencies of a timed one), to
/// `.bench_out/<workload>-seed<seed>-<timed|traced>.json`.
pub fn write_out(
    workload: &str,
    seed: u64,
    traced: bool,
    stamp: &Stamp,
    report: &Report,
    result: &str,
    detail: &str,
) {
    let mode = if traced { "traced" } else { "timed" };
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.escape_default()))
        .collect();
    let body = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"mode\": \"{mode}\", \"stamp\": {}, \"result\": {result}, \"notes\": [{}], {detail}}}\n",
        stamp.to_json(),
        notes.join(", "),
    );
    let path = format!(".bench_out/{workload}-seed{seed}-{mode}.json");
    if let Err(e) = std::fs::create_dir_all(".bench_out").and_then(|_| std::fs::write(&path, body))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

/// Compares the run's repeatable values with those the last run of the same
/// workload, seed and mode recorded under the same stamp, failing the run on
/// any difference, then records them in
/// `.bench_out/<workload>-seed<seed>-<timed|traced>-repeat.txt`.
pub fn check_repeat(workload: &str, seed: u64, traced: bool, stamp: &Stamp, report: &mut Report) {
    let mode = if traced { "traced" } else { "timed" };
    let path = format!(".bench_out/{workload}-seed{seed}-{mode}-repeat.txt");
    let stamp = stamp.to_json();
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let mut lines = previous.lines();
        if lines.next() == Some(stamp.as_str()) {
            let recorded: BTreeMap<&str, &str> =
                lines.filter_map(|line| line.split_once(' ')).collect();
            let mut compared = 0;
            let mut problems = Vec::new();
            for (name, value) in &report.repeatable {
                if let Some(&before) = recorded.get(name.as_str()) {
                    compared += 1;
                    if before != format!("{value:?}") {
                        problems.push(format!(
                            "{name} is {value:?}, but {before} in the last run of this seed"
                        ));
                    }
                }
            }
            report.note(format!(
                "{compared} counts and quality figures compared with the last run of seed {seed}"
            ));
            for problem in problems {
                report.outcome(Err(problem));
            }
        }
    }
    let mut body = stamp;
    for (name, value) in &report.repeatable {
        let _ = write!(body, "\n{name} {value:?}");
    }
    body.push('\n');
    if let Err(e) = std::fs::create_dir_all(".bench_out").and_then(|_| std::fs::write(&path, body))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}
