//! `cone`: graphs too large for a statevector.
//!
//! Each request builds `EdgeLocalEvaluator::new(g, 2)` on a fresh 100-node
//! graph and evaluates 16 random `p = 2` points with
//! `evaluate_parameter_set`. Requests alternate between a random 3-regular
//! graph, where most light cones are isomorphic, and the same graph with 25%
//! of its edges deleted, where few cones repeat. Evaluator construction is
//! part of the request, so work moved into construction shows in latency.
//!
//! Every energy must lie in `[0, |E|]`; energies of the first requests of
//! each seed must match `cone_golden.txt`; and one point of every request
//! must match `edge_local_expectation`, which rebuilds each light cone
//! instead of using the evaluator's.

use crate::report::{Layers, Report, Samples};
use crate::trace::Tracer;
use crate::{Workload, WARM_SEED};
use graphlib::generators::random_regular;
use graphlib::Graph;
use mathkit::parallel::with_threads;
use mathkit::rng::{choose_indices, derive_seed, seeded};
use qaoa::evaluator::{EdgeLocalEvaluator, EnergyEvaluator};
use qaoa::expectation::edge_local_expectation;
use qaoa::landscape::evaluate_parameter_set;
use qaoa::params::QaoaParams;
use std::collections::HashMap;
use std::time::Instant;

const NODES: usize = 100;
const DEGREE: usize = 3;
const LAYERS: usize = 2;
const POINTS: usize = 16;
/// Requests per cycle: a regular graph, then its thinned copy.
const CYCLE: usize = 2;
/// Requests replayed by a traced run: one cycle.
const TRACE_REQUESTS: usize = CYCLE;
/// Requests per seed whose energies `cone_golden.txt` records.
pub const GOLDEN_REQUESTS: usize = 4;
/// Relative tolerance of the recorded-energy and reference checks.
const GOLDEN_TOLERANCE: f64 = 1e-9;

/// Energies recorded when the benchmark was defined, one line per point:
/// `seed request point energy`.
const GOLDEN: &str = include_str!("../cone_golden.txt");

pub struct Cone;

pub struct Request {
    graph: Graph,
    points: Vec<QaoaParams>,
}

pub struct State {
    seed: u64,
    threads: usize,
    requests: Vec<Request>,
    golden: HashMap<(usize, usize), f64>,
}

/// Request `i`: pair `i / 2` shares one random 3-regular graph; odd requests
/// delete a quarter of its edges.
fn request(seed: u64, i: usize) -> Request {
    let mut rng = seeded(derive_seed(seed, (i / CYCLE) as u64));
    let mut graph =
        random_regular(NODES, DEGREE, &mut rng).expect("a 3-regular 100-node graph exists");
    if i % 2 == 1 {
        let edges = graph.edges();
        for e in choose_indices(&mut rng, edges.len(), edges.len() / 4) {
            graph
                .remove_edge(edges[e].0, edges[e].1)
                .expect("the edge is in the graph");
        }
    }
    let mut rng = seeded(derive_seed(!seed, i as u64));
    let points = (0..POINTS)
        .map(|_| QaoaParams::random(LAYERS, &mut rng))
        .collect();
    Request { graph, points }
}

fn evaluate(request: &Request) -> Result<Vec<f64>, String> {
    let evaluator = EdgeLocalEvaluator::new(&request.graph, LAYERS).map_err(|e| e.to_string())?;
    Ok(evaluate_parameter_set(&request.points, &evaluator))
}

/// Parses the recorded energies of `seed`, keyed by `(request, point)`.
fn golden(seed: u64) -> HashMap<(usize, usize), f64> {
    let mut table = HashMap::new();
    for line in GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = (|| {
            Some((
                fields.first()?.parse::<u64>().ok()?,
                fields.get(1)?.parse::<usize>().ok()?,
                fields.get(2)?.parse::<usize>().ok()?,
                fields.get(3)?.parse::<f64>().ok()?,
            ))
        })();
        let (s, request, point, energy) =
            parsed.expect("cone_golden.txt lines are `seed request point energy`");
        if s == seed {
            table.insert((request, point), energy);
        }
    }
    table
}

fn check(state: &State, i: usize, energies: &[f64]) -> Result<(), String> {
    let edges = state.requests[i].graph.edge_count() as f64;
    for (p, &energy) in energies.iter().enumerate() {
        if !(energy.is_finite() && (0.0..=edges).contains(&energy)) {
            return Err(format!(
                "point {p}: energy {energy} is outside [0, {edges}]"
            ));
        }
        if let Some(&expected) = state.golden.get(&(i, p)) {
            if (energy - expected).abs() > GOLDEN_TOLERANCE * expected.abs() {
                return Err(format!(
                    "point {p}: energy {energy:?}, recorded {expected:?}"
                ));
            }
        }
    }
    if energies.len() != POINTS {
        return Err(format!("{} energies for {POINTS} points", energies.len()));
    }
    // One point per request, a different one each request, against the
    // evaluator-free path that rebuilds every light cone.
    let p = i % POINTS;
    let request = &state.requests[i];
    let reference = edge_local_expectation(&request.graph, &request.points[p])
        .map_err(|e| format!("point {p}: reference: {e}"))?;
    if (energies[p] - reference).abs() > GOLDEN_TOLERANCE * reference.abs() {
        return Err(format!(
            "point {p}: energy {:?}, edge_local_expectation {reference:?}",
            energies[p]
        ));
    }
    Ok(())
}

/// Prints the energies of the first [`GOLDEN_REQUESTS`] requests of each
/// seed in `seeds`, in the format of `cone_golden.txt`.
pub fn record(seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        for i in 0..GOLDEN_REQUESTS {
            let energies = evaluate(&request(seed, i)).expect("cone requests evaluate");
            for (p, energy) in energies.iter().enumerate() {
                println!("{seed} {i} {p} {energy:?}");
            }
        }
    }
}

impl Workload for Cone {
    type State = State;

    fn setup(seed: u64, threads: usize, seconds: f64) -> State {
        // Each pair of requests takes over a second.
        let count = TRACE_REQUESTS * (4 + seconds as usize);
        let requests = (0..count).map(|i| request(seed, i)).collect();
        let warm = Request {
            graph: random_regular(24, DEGREE, &mut seeded(WARM_SEED))
                .expect("a 3-regular 24-node graph exists"),
            points: request(WARM_SEED, 0).points[..2].to_vec(),
        };
        with_threads(threads, || evaluate(&warm)).expect("warm-up evaluates");
        State {
            seed,
            threads,
            requests,
            golden: golden(seed),
        }
    }

    fn measure(state: &mut State, seconds: f64, report: &mut Report) -> Samples {
        let mut samples = Samples::new(POINTS as f64, "points", CYCLE, 1);
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            for _ in 0..CYCLE {
                if i == state.requests.len() {
                    state.requests.push(request(state.seed, i));
                }
                let t = Instant::now();
                let energies = with_threads(state.threads, || evaluate(&state.requests[i]));
                samples.push(t.elapsed());
                let result = energies.and_then(|e| check(state, i, &e));
                report.outcome(result.map_err(|e| format!("request {i}: {e}")));
                i += 1;
            }
        }
        let checked = state.golden.keys().filter(|(r, _)| *r < i).count();
        report.note(format!(
            "{checked} energies checked against cone_golden.txt and {i} against edge_local_expectation, to {GOLDEN_TOLERANCE:e} relative"
        ));
        samples
    }

    fn trace(state: &mut State, tracer: &Tracer, report: &mut Report, layers: &mut Layers) -> f64 {
        // Untraced at the engine's thread count, untraced at one thread (the
        // overhead baseline), then the traced one-thread replay, one span
        // per point.
        let mut parallel_s = 0.0;
        let mut serial_s = 0.0;
        for i in 0..TRACE_REQUESTS {
            let request = &state.requests[i];
            let t = Instant::now();
            let parallel = with_threads(state.threads, || evaluate(request));
            parallel_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let serial = with_threads(1, || evaluate(request));
            serial_s += t.elapsed().as_secs_f64();
            let sims = request.graph.edge_count() as u64;
            let replayed = tracer.request(i, |root| {
                let evaluator = tracer
                    .span(BUILD, Some(root), sims, |_| {
                        EdgeLocalEvaluator::new(&request.graph, LAYERS)
                    })
                    .map_err(|e| e.to_string())?;
                let mut scratch = evaluator.scratch();
                let energies: Vec<f64> = request
                    .points
                    .iter()
                    .enumerate()
                    .map(|(p, point)| {
                        tracer.span(POINT, Some(root), sims, |_| {
                            evaluator.energy(&mut scratch, p as u64, point)
                        })
                    })
                    .collect();
                Ok::<_, String>(energies)
            });
            let result = (|| {
                let (parallel, serial, replayed) = (parallel?, serial?, replayed?);
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                if bits(&parallel) != bits(&replayed) || bits(&serial) != bits(&replayed) {
                    return Err("traced replay differs from the untraced energies".to_string());
                }
                check(state, i, &replayed)
            })();
            report.outcome(result.map_err(|e| format!("request {i}: {e}")));
        }
        let point_s = tracer.busy(POINT);
        let sims = tracer.arg_sum(POINT) as f64;
        layers.set("cone.builds_per_s", Layers::rate(tracer.p50(BUILD)));
        layers.set("cone.sims_per_point", sims / tracer.count(POINT) as f64);
        layers.set("cone.sims_per_s", sims * Layers::rate(point_s));
        layers.set(
            "parallel.efficiency",
            tracer.request_secs() / (state.threads as f64 * parallel_s),
        );
        report.note(format!(
            "layer times over {TRACE_REQUESTS} requests: cone.build_ms p50 {:.3}, cone.us_per_sim {:.3}; {parallel_s:.4} s at {} threads, {serial_s:.4} s at 1",
            tracer.p50(BUILD) * 1e3,
            point_s / sims * 1e6,
            state.threads,
        ));
        serial_s
    }
}

const BUILD: &str = "qaoa.evaluator.cone_build";
const POINT: &str = "qaoa.evaluator.cone_point";
