//! `noisy`: the reason the paper exists.
//!
//! Sequential `Engine::run(PipelineJob::noisy(16))` on an engine with the
//! ibmq_kolkata noise model and `CircuitReduction::NodeAndDepth`, on fresh
//! connected `G(n, 0.4)` with `n` alternating between 8 and 9. The only
//! workload that runs trajectory simulation, noise channels and
//! depth-scheduled emission.
//!
//! A trajectory costs about one gate per edge, so the graphs are drawn from
//! `G(n, 0.4)` conditioned on its mean edge count — `G(n, m)` with
//! `m = round(0.4 n(n-1)/2)` — and redrawn until connected. A run then
//! measures the same circuit size whatever the seed.

use crate::checks::{check_reduction, check_value, same_bits};
use crate::report::{Layers, Report, Samples};
use crate::trace::{Timed, Tracer};
use crate::{Workload, WARM_SEED};
use graphlib::generators::{connected_gnp, erdos_renyi_gnm};
use graphlib::traversal::is_connected;
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use qaoa::depth::compile_maxcut;
use qaoa::evaluator::{SequentialNoisyEvaluator, StatevectorEvaluator};
use qaoa::maxcut::brute_force_maxcut;
use qaoa::optimize::{maximize_with_restarts, OptimizeOptions};
use qsim::devices::kolkata;
use qsim::trajectory::TrajectoryOptions;
use rand::Rng;
use red_qaoa::engine::{Engine, Job, PipelineJob, ReduceJob};
use red_qaoa::pipeline::{CircuitReduction, NoisyPipelineOutcome, PipelineOptions};
use std::time::Instant;

const SIZES: [usize; 2] = [8, 9];
const TRAJECTORIES: usize = 16;
/// One optimizer restart per arm (the engine default is 3), so a run holds
/// enough pipelines for its figures to be steady.
const RESTARTS: usize = 1;

pub struct Noisy;

pub struct State {
    seed: u64,
    threads: usize,
    engine: Engine,
    graphs: Vec<Graph>,
}

fn request_graph(seed: u64, i: usize) -> Graph {
    let n = SIZES[i % SIZES.len()];
    let m = (0.4 * (n * (n - 1) / 2) as f64).round() as usize;
    let mut rng = seeded(derive_seed(seed, i as u64));
    loop {
        let graph = erdos_renyi_gnm(n, m, &mut rng).expect("valid G(n, m) parameters");
        if is_connected(&graph) {
            return graph;
        }
    }
}

fn job_seed(seed: u64, i: usize) -> u64 {
    derive_seed(!seed, i as u64)
}

fn engine(threads: usize) -> Engine {
    let pipeline = PipelineOptions {
        optimize: OptimizeOptions {
            restarts: RESTARTS,
            ..PipelineOptions::default().optimize
        },
        ..PipelineOptions::default()
    };
    Engine::builder()
        .threads(threads)
        .pipeline(pipeline)
        .noise(kolkata().noise)
        .circuit_reduction(CircuitReduction::NodeAndDepth)
        .build()
        .expect("noisy engine options are valid")
}

fn pipeline_job(graph: Graph) -> Job {
    Job::Pipeline(PipelineJob::new(graph).noisy(TRAJECTORIES))
}

fn run_request(state: &State, i: usize) -> Result<NoisyPipelineOutcome, String> {
    let job = pipeline_job(state.graphs[i].clone());
    let output = state
        .engine
        .run(&job, job_seed(state.seed, i))
        .map_err(|e| e.to_string())?;
    output
        .as_noisy_pipeline()
        .cloned()
        .ok_or_else(|| "not a noisy pipeline outcome".to_string())
}

fn check(graph: &Graph, outcome: &NoisyPipelineOutcome, threshold: f64) -> Result<(), String> {
    check_reduction(graph, &outcome.reduction, threshold)?;
    let depth = outcome
        .depth
        .ok_or("no depth metrics in NodeAndDepth mode")?;
    if depth.scheduled_terms != outcome.reduction.graph().edge_count()
        || !depth.meets_vizing_bound()
    {
        return Err(format!(
            "depth schedule {depth:?} does not fit the reduced graph"
        ));
    }
    let cut = outcome
        .ground_truth
        .ok_or("no ground truth for a 9-node graph")? as f64;
    check_value("Red-QAOA ideal value", outcome.red_qaoa_ideal_value, cut)?;
    check_value("baseline ideal value", outcome.baseline_ideal_value, cut)
}

impl Workload for Noisy {
    type State = State;

    fn setup(seed: u64, threads: usize, seconds: f64) -> State {
        // Each pair of pipelines takes about a second.
        let requests = SIZES.len() * (4 + seconds as usize);
        let graphs = (0..requests).map(|i| request_graph(seed, i)).collect();
        let warm = engine(threads);
        let small =
            connected_gnp(6, 0.5, &mut seeded(WARM_SEED)).expect("valid G(n, p) parameters");
        warm.run(&Job::Pipeline(PipelineJob::new(small).noisy(2)), WARM_SEED)
            .expect("warm-up pipeline runs");
        State {
            seed,
            threads,
            engine: engine(threads),
            graphs,
        }
    }

    fn measure(state: &mut State, seconds: f64, report: &mut Report) -> Samples {
        let threshold = state.engine.reduction_options().and_ratio_threshold;
        let mut samples = Samples::new(1.0, "pipelines", SIZES.len(), 1);
        let mut first_cycle = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            for _ in 0..SIZES.len() {
                if i == state.graphs.len() {
                    state.graphs.push(request_graph(state.seed, i));
                }
                let job = pipeline_job(state.graphs[i].clone());
                let t = Instant::now();
                let output = state.engine.run(&job, job_seed(state.seed, i));
                samples.push(t.elapsed());
                let result = match output.as_ref().map(|o| o.as_noisy_pipeline()) {
                    Ok(Some(o)) => check(&state.graphs[i], o, threshold).map(|_| o.clone()),
                    Ok(None) => Err("not a noisy pipeline outcome".to_string()),
                    Err(e) => Err(e.to_string()),
                };
                match result {
                    Ok(o) => {
                        if i < SIZES.len() {
                            first_cycle.push(o);
                        }
                        report.outcome(Ok(()));
                    }
                    Err(e) => report.outcome(Err(format!("request {i}: {e}"))),
                }
                i += 1;
            }
        }
        fn cut(o: &NoisyPipelineOutcome) -> f64 {
            o.ground_truth.unwrap_or(1) as f64
        }
        report.quality(
            "the first pipelines (n = 8, 9)",
            &first_cycle,
            &[
                ("node_reduction", |o| o.reduction.node_reduction),
                ("edge_reduction", |o| o.reduction.edge_reduction),
                ("approx_ratio", |o| o.red_qaoa_ideal_value / cut(o)),
                ("baseline_approx_ratio", |o| o.baseline_ideal_value / cut(o)),
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
        let (mut rounds, mut naive_depth) = (0, 0);
        for (i, untraced) in untraced.iter().enumerate() {
            let graph = &state.graphs[i];
            let seed = job_seed(state.seed, i);
            let replayed =
                tracer.request(i, |root| replay(&replay_engine, graph, seed, tracer, root));
            let result = untraced.clone().and_then(|u| {
                let r = replayed?;
                let depth = r.depth.ok_or("no depth metrics")?;
                rounds += depth.rounds;
                naive_depth += depth.naive_depth;
                same_bits("NoisyPipelineOutcome", &u, &r)
            });
            report.outcome(result.map_err(|e| format!("request {i}: {e}")));
        }
        let total = tracer.request_secs();
        let trajectory_s = tracer.busy(TRAJECTORY);
        let trajectories = tracer.arg_sum(TRAJECTORY) as f64;
        layers.set("trajectory.energy_calls", tracer.count(TRAJECTORY) as f64);
        layers.set("trajectory.count", trajectories);
        layers.set("trajectory.busy_share", trajectory_s / total);
        layers.set(
            "trajectory.per_s",
            trajectories * Layers::rate(trajectory_s),
        );
        layers.set("depth.compiles_per_s", Layers::rate(tracer.p50(DEPTH)));
        layers.set("depth.rounds", rounds as f64);
        layers.set("depth.naive_depth", naive_depth as f64);
        layers.set(
            "optimize.self_share",
            tracer.self_secs("qaoa.optimize") / total,
        );
        layers.set(
            "rescore.share",
            tracer.busy("qaoa.expectation.rescore") / total,
        );
        layers.set(
            "brute_force.share",
            tracer.busy("qaoa.maxcut.brute_force") / total,
        );
        layers.set("reduce.misses", tracer.count("core.reduction") as f64);
        layers.set("reduce.busy_share", tracer.busy("core.reduction") / total);
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
            "layer times over {requests} pipelines: trajectory.busy_s {trajectory_s:.4}, trajectory.us_each {:.2}, depth.compile_ms p50 {:.4}, optimize.self_s {:.4}, reduce.miss_ms p50 {:.3}",
            trajectory_s / trajectories.max(1.0) * 1e6,
            tracer.p50(DEPTH) * 1e3,
            tracer.self_secs("qaoa.optimize"),
            tracer.p50("core.reduction") * 1e3,
        ));
        untraced_s
    }
}

const TRAJECTORY: &str = "qsim.trajectory.energy";
const DEPTH: &str = "qaoa.depth.compile";

/// Replays one noisy `PipelineJob` through the layer calls `Engine::run`
/// makes: the cached reduction, the depth compile, both evaluators, both
/// noisy optimizer sessions on the job's RNG substream, the ideal re-score
/// and the brute-force cut.
fn replay(
    engine: &Engine,
    graph: &Graph,
    seed: u64,
    tracer: &Tracer,
    root: usize,
) -> Result<NoisyPipelineOutcome, String> {
    let options = engine.pipeline_options().clone();
    let noise = kolkata().noise;
    let n = graph.node_count() as u64;
    let job = Job::Reduce(ReduceJob::new(graph.clone()).with_options(options.reduction));
    let reduction = tracer
        .span("core.reduction", Some(root), n, |_| engine.run(&job, seed))
        .map_err(|e| e.to_string())?
        .as_reduced()
        .cloned()
        .ok_or("not a reduction")?;
    let k = reduction.graph().node_count() as u64;
    let depth = *tracer
        .span(DEPTH, Some(root), k, |_| compile_maxcut(reduction.graph()))
        .map_err(|e| e.to_string())?
        .metrics();
    let (reduced_eval, original_eval) = tracer.span("qaoa.evaluator.build", Some(root), n, |_| {
        (
            StatevectorEvaluator::new(reduction.graph(), options.layers),
            StatevectorEvaluator::new(graph, options.layers),
        )
    });
    let reduced_eval = reduced_eval.map_err(|e| e.to_string())?;
    let original_eval = original_eval.map_err(|e| e.to_string())?;
    let traj = TrajectoryOptions {
        trajectories: TRAJECTORIES,
    };
    let mut rng = seeded(derive_seed(seed, 0));
    let red_seed: u64 = rng.gen();
    let baseline_seed: u64 = rng.gen();
    let (red_noisy, baseline_noisy) = tracer.span("qaoa.evaluator.build", Some(root), k, |_| {
        let red_instance = reduced_eval.instance().clone().with_depth_schedule();
        (
            SequentialNoisyEvaluator::new(red_instance, noise, traj, red_seed),
            SequentialNoisyEvaluator::new(
                original_eval.instance().clone(),
                noise,
                traj,
                baseline_seed,
            ),
        )
    });
    let mut session = |evaluator: &SequentialNoisyEvaluator| {
        tracer.span("qaoa.optimize", Some(root), 0, |id| {
            let timed = Timed {
                inner: evaluator,
                tracer,
                name: TRAJECTORY,
                parent: id,
                arg: TRAJECTORIES as u64,
            };
            maximize_with_restarts(&timed, &options.optimize, &mut rng)
        })
    };
    let red = session(&red_noisy).map_err(|e| e.to_string())?;
    let baseline = session(&baseline_noisy).map_err(|e| e.to_string())?;
    let (red_qaoa_ideal_value, baseline_ideal_value) =
        tracer.span("qaoa.expectation.rescore", Some(root), n, |_| {
            let instance = original_eval.instance();
            (
                instance.expectation(&red.best_params),
                instance.expectation(&baseline.best_params),
            )
        });
    let cut = tracer
        .span("qaoa.maxcut.brute_force", Some(root), n, |_| {
            brute_force_maxcut(graph)
        })
        .map_err(|e| e.to_string())?
        .best_cut;
    Ok(NoisyPipelineOutcome {
        reduction,
        red_qaoa_ideal_value,
        baseline_ideal_value,
        ground_truth: Some(cut),
        depth: Some(depth),
    })
}
