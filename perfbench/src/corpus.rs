//! `corpus`: the paper's 3,200-problem study as service traffic.
//!
//! `Engine::run_batch` of 64 `ReduceJob`s at a time, walking the synthetic
//! AIDS, LINUX, IMDb and Random twins (graphs with at least 4 nodes and one
//! edge) in an order drawn from the workload seed, cycled for the length of
//! the run, through one long-lived engine with the default 1,024-entry
//! cache. Many tiny anneals and no statevector. Repeated complete IMDb graphs
//! make many requests content hits, and more distinct keys than slots keep
//! inserts and evictions running beside the hits. The random order makes
//! every batch a mix of the four datasets, so a run's cost does not depend on
//! where its window ends.
//!
//! The corpus itself is fixed, built at [`DATASET_SEED`], as the paper's
//! datasets are: the twins' graph sizes change with their seed, and with
//! them the cost of a walk, by more than a run's own noise.

use crate::checks::{check_reduction, same_bits};
use crate::report::{Layers, Report, Samples};
use crate::trace::{mean, Tracer};
use crate::{Workload, WARM_SEED};
use datasets::DatasetName;
use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::{choose_indices, derive_seed, seeded};
use qaoa::params::QaoaParams;
use red_qaoa::engine::{Engine, Job, JobOutput, ReduceJob};
use red_qaoa::mse::ideal_mse_on_set;
use red_qaoa::reduction::ReducedGraph;
use red_qaoa::RedQaoaError;
use std::time::Instant;

/// Seed of the synthetic dataset twins: the paper corpus.
const DATASET_SEED: u64 = 1;
const BATCH: usize = 64;
/// Batches per throughput window: 1,024 graphs, the cache's capacity.
const WINDOW: usize = 16;
/// Walks of the corpus replayed by a traced run: the first fills the cache,
/// later ones evict.
const TRACE_WALKS: usize = 3;
/// Every `MSE_STRIDE`-th corpus graph enters the landscape-MSE subsample.
const MSE_STRIDE: usize = 32;
/// Random `p = 1` points of the landscape-MSE parameter set.
const MSE_POINTS: usize = 64;

pub struct Corpus;

pub struct State {
    engine: Engine,
    threads: usize,
    /// Corpus size.
    len: usize,
    /// `jobs[p]` reduces the graph at walk position `p`; the walk is
    /// followed by its first `BATCH` positions again so that any batch is
    /// one contiguous slice.
    jobs: Vec<Job>,
    /// Corpus index of each walk position.
    order: Vec<usize>,
}

fn engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .build()
        .expect("default engine options are valid")
}

fn graph_of(job: &Job) -> &Graph {
    match job {
        Job::Reduce(job) => &job.graph,
        _ => unreachable!("the corpus only holds reduce jobs"),
    }
}

fn reduced(result: &Result<JobOutput, RedQaoaError>) -> Result<&ReducedGraph, String> {
    match result {
        Ok(output) => output
            .as_reduced()
            .ok_or_else(|| "not a reduction".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

impl State {
    fn batch(&self, b: usize) -> &[Job] {
        let start = (b * BATCH) % self.len;
        &self.jobs[start..start + BATCH]
    }
}

impl Workload for Corpus {
    type State = State;

    fn setup(seed: u64, threads: usize, _seconds: f64) -> State {
        let corpus: Vec<Graph> = [
            DatasetName::Aids,
            DatasetName::Linux,
            DatasetName::Imdb,
            DatasetName::Random,
        ]
        .into_iter()
        .flat_map(|name| name.build(DATASET_SEED).graphs)
        .filter(|g| g.node_count() >= 4 && g.edge_count() >= 1)
        .collect();
        let len = corpus.len();
        let order = choose_indices(&mut seeded(derive_seed(seed, 0xC0)), len, len);
        let jobs = order
            .iter()
            .chain(&order[..BATCH])
            .map(|&c| Job::Reduce(ReduceJob::new(corpus[c].clone())))
            .collect();
        let warm = engine(threads);
        let warm_jobs: Vec<Job> = (0..BATCH as u64)
            .map(|i| {
                let g = connected_gnp(8, 0.4, &mut seeded(derive_seed(WARM_SEED, i)))
                    .expect("valid G(n, p) parameters");
                Job::Reduce(ReduceJob::new(g))
            })
            .collect();
        for result in warm.run_batch(&warm_jobs, WARM_SEED) {
            result.expect("warm-up reductions run");
        }
        State {
            engine: engine(threads),
            threads,
            len,
            jobs,
            order,
        }
    }

    fn measure(state: &mut State, seconds: f64, report: &mut Report) -> Samples {
        let threshold = state.engine.reduction_options().and_ratio_threshold;
        let cycle = state.len.div_ceil(BATCH);
        let mut samples = Samples::new(BATCH as f64, "graphs", 1, WINDOW);
        let mut node_reduction = Vec::with_capacity(state.len);
        let mut edge_reduction = Vec::with_capacity(state.len);
        let mut mse_sample = Vec::new();
        let start = Instant::now();
        let mut b = 0;
        // At least one whole walk, so the quality figures cover the corpus.
        while b < cycle || start.elapsed().as_secs_f64() < seconds {
            let jobs = state.batch(b);
            let t = Instant::now();
            let results = state.engine.run_batch(jobs, b as u64);
            samples.push(t.elapsed());
            for (j, (job, result)) in jobs.iter().zip(&results).enumerate() {
                let graph = graph_of(job);
                let checked =
                    reduced(result).and_then(|r| check_reduction(graph, r, threshold).map(|_| r));
                let position = b * BATCH + j;
                if let (Ok(r), true) = (&checked, position < state.len) {
                    node_reduction.push(r.node_reduction);
                    edge_reduction.push(r.edge_reduction);
                    if state.order[position].is_multiple_of(MSE_STRIDE) {
                        mse_sample.push((graph.clone(), r.graph().clone()));
                    }
                }
                report.outcome(
                    checked
                        .map(|_| ())
                        .map_err(|e| format!("batch {b} job {j}: {e}")),
                );
            }
            b += 1;
        }
        let stats = state.engine.cache_stats();
        report.note(format!(
            "cache over {b} batches: {} hits, {} misses, hit ratio {:.4}, {} of {} entries",
            stats.hits,
            stats.misses,
            stats.hit_rate(),
            stats.entries,
            stats.capacity
        ));
        let mut rng = seeded(derive_seed(DATASET_SEED, 0x4D5E));
        let set: Vec<QaoaParams> = (0..MSE_POINTS)
            .map(|_| QaoaParams::random(1, &mut rng))
            .collect();
        let mut mse = Vec::with_capacity(mse_sample.len());
        for (original, reduced) in &mse_sample {
            match ideal_mse_on_set(original, reduced, &set) {
                Ok(value) => mse.push(value),
                Err(e) => report.outcome(Err(format!("landscape MSE: {e}"))),
            }
        }
        let (node_reduction, edge_reduction, mse_mean) =
            (mean(&node_reduction), mean(&edge_reduction), mean(&mse));
        report.repeatable("node_reduction", node_reduction);
        report.repeatable("edge_reduction", edge_reduction);
        report.repeatable("landscape_mse", mse_mean);
        report.note(format!(
            "quality over the {} corpus graphs at dataset seed {DATASET_SEED}: node_reduction {:.2}% (paper 28%), edge_reduction {:.2}% (paper 37%), landscape_mse {:.2}% over {} graphs x {MSE_POINTS} p=1 points (paper 2%)",
            state.len,
            100.0 * node_reduction,
            100.0 * edge_reduction,
            100.0 * mse_mean,
            mse.len(),
        ));
        samples
    }

    fn trace(state: &mut State, tracer: &Tracer, report: &mut Report, layers: &mut Layers) -> f64 {
        // Untraced at the engine's thread count, untraced at one thread (the
        // overhead baseline), then the traced one-thread replay. The two
        // one-thread engines see the jobs in the same order, so their cache
        // counters must agree exactly.
        let serial_untraced = engine(1);
        let serial_traced = engine(1);
        let batches = TRACE_WALKS * state.len.div_ceil(BATCH);
        let mut parallel_s = 0.0;
        let mut serial_s = 0.0;
        for b in 0..batches {
            let jobs = state.batch(b);
            let t = Instant::now();
            let parallel = state.engine.run_batch(jobs, b as u64);
            parallel_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let serial = serial_untraced.run_batch(jobs, b as u64);
            serial_s += t.elapsed().as_secs_f64();
            let replayed: Vec<_> = tracer.request(b, |root| {
                jobs.iter()
                    .map(|job| replay(&serial_traced, job, tracer, root))
                    .collect()
            });
            for (j, ((p, s), r)) in parallel.iter().zip(&serial).zip(&replayed).enumerate() {
                let result = (|| {
                    let r = reduced(r)?;
                    same_bits("ReducedGraph", reduced(p)?, r)?;
                    same_bits("ReducedGraph", reduced(s)?, r)
                })();
                report.outcome(result.map_err(|e| format!("batch {b} job {j}: {e}")));
            }
        }
        let parallel = state.engine.cache_stats();
        let untraced = serial_untraced.cache_stats();
        let traced = serial_traced.cache_stats();
        let misses = tracer.count(MISS) as u64;
        if (untraced.hits, untraced.misses) != (traced.hits, traced.misses)
            || misses != traced.misses
        {
            report.outcome(Err(format!(
                "one-thread cache counters differ: untraced {untraced:?}, traced {traced:?}, {misses} miss spans"
            )));
        }
        let total = tracer.request_secs();
        layers.set("reduce.misses", misses as f64);
        layers.set("reduce.busy_share", tracer.busy(MISS) / total);
        layers.set("reduce.misses_per_s", Layers::rate(tracer.p50(MISS)));
        layers.set("cache.hit_ratio", traced.hit_rate());
        layers.set("cache.hits_per_s", Layers::rate(tracer.p50(HIT)));
        layers.set(
            "cache.evictions",
            (traced.misses - traced.entries as u64) as f64,
        );
        layers.set(
            "cache.duplicate_misses",
            parallel.misses as f64 - traced.misses as f64,
        );
        layers.set(
            "parallel.efficiency",
            total / (state.threads as f64 * parallel_s),
        );
        report.note(format!(
            "layer times over {batches} batches: reduce.miss_ms p50 {:.4}, reduce.busy_s {:.4}, cache.hit_us p50 {:.2}; one-thread misses {}, hits {}; {}-thread misses {}; run_batch {parallel_s:.4} s at {} threads, {serial_s:.4} s at 1",
            tracer.p50(MISS) * 1e3,
            tracer.busy(MISS),
            tracer.p50(HIT) * 1e6,
            traced.misses,
            traced.hits,
            state.threads,
            parallel.misses,
            state.threads,
        ));
        serial_s
    }
}

const MISS: &str = "core.reduction";
const HIT: &str = "core.engine.cache_hit";

/// Replays one job of a batch as `Engine::run`, naming its span after what
/// the cache did: a miss anneals (`core.reduction`), a hit does not.
fn replay(
    engine: &Engine,
    job: &Job,
    tracer: &Tracer,
    root: usize,
) -> Result<JobOutput, RedQaoaError> {
    let misses = engine.cache_stats().misses;
    let mut id = 0;
    let n = graph_of(job).node_count() as u64;
    let output = tracer.span(MISS, Some(root), n, |span| {
        id = span;
        engine.run(job, 0)
    });
    if engine.cache_stats().misses == misses {
        tracer.rename(id, HIT);
    }
    output
}
