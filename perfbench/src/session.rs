//! `session`: the paper's loop as a user runs it.
//!
//! Sequential `Engine::run(OptimizeJob)` at `p = 1` with Nelder–Mead,
//! 3 restarts × 80 iterations. Every request is a fresh connected
//! `G(n, 0.4)` with `n` cycling through 12, 14 and 16, so every reduction
//! misses the cache. Full-graph statevector energy calls dominate; the SA
//! reduction and the cache take under 1%.

use crate::checks::{check_reduction, check_value, same_bits};
use crate::report::{Layers, Report, Samples};
use crate::trace::{Timed, Tracer};
use crate::{Workload, WARM_SEED};
use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qaoa::evaluator::StatevectorEvaluator;
use qaoa::maxcut::brute_force_maxcut;
use qaoa::optimize::{OptimizeDriver, OptimizerConfig};
use red_qaoa::engine::{Engine, Job, OptimizeJob, OptimizeReport, ReduceJob};
use red_qaoa::transfer::OptimizedTransfer;
use std::time::Instant;

const SIZES: [usize; 3] = [12, 14, 16];
const RESTARTS: usize = 3;
const MAX_ITERS: usize = 80;

pub struct Session;

pub struct State {
    seed: u64,
    threads: usize,
    engine: Engine,
    graphs: Vec<Graph>,
}

fn request_graph(seed: u64, i: usize) -> Graph {
    let mut rng = seeded(derive_seed(seed, i as u64));
    connected_gnp(SIZES[i % SIZES.len()], 0.4, &mut rng).expect("valid G(n, p) parameters")
}

/// The seed `Engine::run` receives for request `i`.
fn job_seed(seed: u64, i: usize) -> u64 {
    derive_seed(!seed, i as u64)
}

fn optimize_job(graph: Graph) -> Job {
    Job::Optimize(
        OptimizeJob::new(graph)
            .with_restarts(RESTARTS)
            .with_max_iters(MAX_ITERS),
    )
}

fn engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .build()
        .expect("default engine options are valid")
}

fn check(graph: &Graph, report: &OptimizeReport, threshold: f64) -> Result<(), String> {
    check_reduction(graph, &report.reduction, threshold)?;
    let cut = report
        .ground_truth
        .ok_or("no ground truth for a 16-node graph")? as f64;
    check_value("transferred value", report.transfer.transferred_value, cut)?;
    check_value("baseline best", report.transfer.native.best_value, cut)?;
    if report.transfer.surrogate.restart_values.len() != RESTARTS
        || report.transfer.native.restart_values.len() != RESTARTS
    {
        return Err("a session ran the wrong number of restarts".to_string());
    }
    if report.reduced_evaluations == 0 || report.baseline_evaluations == 0 {
        return Err("a session made no energy calls".to_string());
    }
    if !(report.cost_ratio.is_finite() && report.cost_ratio > 0.0) {
        return Err(format!("cost ratio {} is not positive", report.cost_ratio));
    }
    Ok(())
}

fn run_request(state: &State, i: usize) -> Result<OptimizeReport, String> {
    let job = optimize_job(state.graphs[i].clone());
    let output = state
        .engine
        .run(&job, job_seed(state.seed, i))
        .map_err(|e| format!("request {i}: {e}"))?;
    output
        .as_optimize()
        .cloned()
        .ok_or_else(|| format!("request {i}: not an optimize report"))
}

impl Workload for Session {
    type State = State;

    fn setup(seed: u64, threads: usize, seconds: f64) -> State {
        // Each cycle of three sessions takes well over a second.
        let requests = SIZES.len() * (8 + seconds as usize);
        let graphs = (0..requests).map(|i| request_graph(seed, i)).collect();
        // Warm up with one session of the smallest size on an engine of its
        // own, so the measured engine's cache starts empty.
        let warm = engine(threads);
        let mut rng = seeded(WARM_SEED);
        let small = connected_gnp(SIZES[0], 0.4, &mut rng).expect("valid G(n, p) parameters");
        warm.run(&optimize_job(small), WARM_SEED)
            .expect("warm-up session runs");
        State {
            seed,
            threads,
            engine: engine(threads),
            graphs,
        }
    }

    fn measure(state: &mut State, seconds: f64, report: &mut Report) -> Samples {
        let threshold = state.engine.reduction_options().and_ratio_threshold;
        let mut samples = Samples::new(1.0, "sessions", SIZES.len(), 1);
        let mut first_cycle = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        // Whole cycles only, so every run has the same mix of sizes.
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            for _ in 0..SIZES.len() {
                if i == state.graphs.len() {
                    state.graphs.push(request_graph(state.seed, i));
                }
                let job = optimize_job(state.graphs[i].clone());
                let t = Instant::now();
                let output = state.engine.run(&job, job_seed(state.seed, i));
                samples.push(t.elapsed());
                let result = match output.as_ref().map(|o| o.as_optimize()) {
                    Ok(Some(r)) => check(&state.graphs[i], r, threshold).map(|_| r.clone()),
                    Ok(None) => Err("not an optimize report".to_string()),
                    Err(e) => Err(e.to_string()),
                };
                match result {
                    Ok(r) => {
                        if i < SIZES.len() {
                            first_cycle.push(r);
                        }
                        report.outcome(Ok(()));
                    }
                    Err(e) => report.outcome(Err(format!("request {i}: {e}"))),
                }
                i += 1;
            }
        }
        report.quality(
            "the first sessions (n = 12, 14, 16)",
            &first_cycle,
            &[
                ("node_reduction", |r| r.reduction.node_reduction),
                ("edge_reduction", |r| r.reduction.edge_reduction),
                ("relative_best", |r| r.relative_best()),
                ("cost_ratio", |r| r.cost_ratio),
                ("approx_ratio", |r| r.approximation_ratio().unwrap_or(0.0)),
            ],
        );
        samples
    }

    fn trace(state: &mut State, tracer: &Tracer, report: &mut Report, layers: &mut Layers) -> f64 {
        let requests = SIZES.len();
        let mut untraced = Vec::new();
        let mut untraced_s = 0.0;
        for i in 0..requests {
            let t = Instant::now();
            untraced.push(run_request(state, i));
            untraced_s += t.elapsed().as_secs_f64();
        }
        let replay_engine = engine(state.threads);
        let mut evaluations = 0;
        for (i, untraced) in untraced.iter().enumerate() {
            let graph = &state.graphs[i];
            let seed = job_seed(state.seed, i);
            let replayed =
                tracer.request(i, |root| replay(&replay_engine, graph, seed, tracer, root));
            let result = untraced.clone().and_then(|u| {
                let r = replayed?;
                evaluations += u.reduced_evaluations + u.baseline_evaluations;
                same_bits("OptimizeReport", &u, &r)
            });
            report.outcome(result.map_err(|e| format!("request {i}: {e}")));
        }
        let calls = tracer.count(ENERGY);
        if calls != evaluations {
            report.outcome(Err(format!(
                "{calls} traced energy calls, but the reports count {evaluations}"
            )));
        }
        let total = tracer.request_secs();
        let energy_s = tracer.busy(ENERGY);
        layers.set("energy.calls", calls as f64);
        layers.set("energy.busy_share", energy_s / total);
        let mut bytes = 0.0;
        for span in tracer.named(ENERGY) {
            bytes += 16.0 * (span.arg as f64).exp2();
        }
        layers.set("energy.gbytes_per_s", bytes / energy_s * 1e-9);
        let mut per_call = Vec::new();
        for (q, name) in [
            (12, "energy.calls_per_s.q12"),
            (14, "energy.calls_per_s.q14"),
            (16, "energy.calls_per_s.q16"),
        ] {
            let spans: Vec<_> = tracer
                .named(ENERGY)
                .into_iter()
                .filter(|s| s.arg == q)
                .collect();
            let busy: f64 = spans.iter().map(|s| s.secs()).sum();
            layers.set(name, spans.len() as f64 * Layers::rate(busy));
            per_call.push(format!(
                "q{q} {:.2} us",
                busy / spans.len().max(1) as f64 * 1e6
            ));
        }
        let optimize_self = tracer.self_secs("qaoa.optimize");
        let rescore = tracer.busy("qaoa.expectation.rescore");
        let brute = tracer.busy("qaoa.maxcut.brute_force");
        let reduce = tracer.busy("core.reduction");
        layers.set("optimize.self_share", optimize_self / total);
        layers.set("rescore.share", rescore / total);
        layers.set("brute_force.share", brute / total);
        layers.set("reduce.misses", tracer.count("core.reduction") as f64);
        layers.set("reduce.busy_share", reduce / total);
        layers.set(
            "reduce.misses_per_s",
            Layers::rate(tracer.p50("core.reduction")),
        );
        let stats = replay_engine.cache_stats();
        layers.set(
            "cache.hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        );
        report.note(format!(
            "layer times over {requests} sessions: energy.busy_s {energy_s:.4}, energy.us_per_call {}, computed bytes 16*2^n per call; optimize.self_s {optimize_self:.4}, rescore.ms {:.3}, brute_force.ms {:.3}, reduce.miss_ms p50 {:.3}, reduce.busy_s {reduce:.4}",
            per_call.join(", "),
            rescore * 1e3,
            brute * 1e3,
            tracer.p50("core.reduction") * 1e3,
        ));
        untraced_s
    }
}

const ENERGY: &str = "qaoa.evaluator.energy";

/// Replays one `OptimizeJob` through the layer calls `Engine::run` makes:
/// the cached reduction, both evaluators, both optimizer sessions on the
/// job's RNG substream, the full-graph re-score and the brute-force cut.
fn replay(
    engine: &Engine,
    graph: &Graph,
    seed: u64,
    tracer: &Tracer,
    root: usize,
) -> Result<OptimizeReport, String> {
    let n = graph.node_count() as u64;
    let job = Job::Reduce(ReduceJob::new(graph.clone()));
    let reduction = tracer
        .span("core.reduction", Some(root), n, |_| engine.run(&job, seed))
        .map_err(|e| e.to_string())?
        .as_reduced()
        .cloned()
        .ok_or("not a reduction")?;
    let k = reduction.graph().node_count() as u64;
    let (surrogate_eval, original_eval) =
        tracer.span("qaoa.evaluator.build", Some(root), n, |_| {
            (
                StatevectorEvaluator::new(reduction.graph(), 1),
                StatevectorEvaluator::new(graph, 1),
            )
        });
    let surrogate_eval = surrogate_eval.map_err(|e| e.to_string())?;
    let original_eval = original_eval.map_err(|e| e.to_string())?;
    let driver = OptimizeDriver::new(OptimizerConfig::default(), RESTARTS, MAX_ITERS);
    let mut rng = seeded(derive_seed(seed, 0));
    let mut session = |evaluator: &StatevectorEvaluator, qubits: u64| {
        tracer.span("qaoa.optimize", Some(root), qubits, |id| {
            let timed = Timed {
                inner: evaluator,
                tracer,
                name: ENERGY,
                parent: id,
                arg: qubits,
            };
            driver.maximize(&timed, &mut rng)
        })
    };
    let surrogate = session(&surrogate_eval, k).map_err(|e| e.to_string())?;
    let native = session(&original_eval, n).map_err(|e| e.to_string())?;
    let transfer = tracer.span("qaoa.expectation.rescore", Some(root), n, |_| {
        let instance = original_eval.instance();
        let transferred_value = instance.expectation(&surrogate.best_params);
        let transferred_average = surrogate
            .restart_params
            .iter()
            .map(|p| instance.expectation(p))
            .sum::<f64>()
            / surrogate.restart_params.len() as f64;
        let transfer_error = if native.best_value.abs() < f64::EPSILON {
            0.0
        } else {
            ((native.best_value - transferred_value) / native.best_value).max(0.0)
        };
        OptimizedTransfer {
            transferred_value,
            transferred_average,
            native_average: native.average_restart_value(),
            transfer_error,
            parameter_distance: surrogate.best_params.periodic_distance(&native.best_params),
            surrogate,
            native,
        }
    });
    let cut = tracer
        .span("qaoa.maxcut.brute_force", Some(root), n, |_| {
            brute_force_maxcut(graph)
        })
        .map_err(|e| e.to_string())?
        .best_cut;
    let reduced_evaluations = transfer.surrogate.evaluations;
    let baseline_evaluations = transfer.native.evaluations;
    let rescore_evaluations = 1 + transfer.surrogate.restart_params.len();
    let scale = (k as f64 - n as f64).exp2();
    let cost_ratio = (reduced_evaluations as f64 * scale + rescore_evaluations as f64)
        / baseline_evaluations as f64;
    Ok(OptimizeReport {
        reduction,
        transfer,
        ground_truth: Some(cut),
        reduced_evaluations,
        baseline_evaluations,
        cost_ratio,
        depth: None,
    })
}
