//! Quickstart: reduce a graph with Red-QAOA, optimize on the reduced graph,
//! transfer the parameters back, and compare against plain QAOA.
//!
//! Run with: `cargo run --release --example quickstart`

use graphlib::generators::connected_gnp;
use mathkit::rng::seeded;
use qaoa::expectation::QaoaInstance;
use qaoa::maxcut::brute_force_maxcut;
use red_qaoa::pipeline::{run_ideal, PipelineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a MaxCut instance: a random 12-node graph.
    let mut rng = seeded(42);
    let graph = connected_gnp(12, 0.4, &mut rng)?;
    println!("original graph : {graph}");
    println!("exact MaxCut   : {}", brute_force_maxcut(&graph)?.best_cut);

    // 2. Run the full Red-QAOA pipeline (reduce -> optimize on G' -> transfer
    //    -> refine on G) and the plain-QAOA baseline with the same budget.
    let outcome = run_ideal(&graph, None, &PipelineOptions::default(), &mut rng)?;
    let reduced = outcome.reduction.graph();
    println!(
        "reduced graph  : {} ({}% fewer nodes, {}% fewer edges, AND ratio {:.2})",
        reduced,
        (outcome.reduction.node_reduction * 100.0).round(),
        (outcome.reduction.edge_reduction * 100.0).round(),
        outcome.reduction.and_ratio
    );

    // 3. Compare the outcomes.
    println!(
        "Red-QAOA expectation : {:.3} (approximation ratio {:.3})",
        outcome.final_value,
        outcome.approximation_ratio().unwrap_or(0.0)
    );
    println!(
        "baseline expectation : {:.3} (approximation ratio {:.3})",
        outcome.baseline_value,
        outcome.baseline_approximation_ratio().unwrap_or(0.0)
    );
    println!("Red-QAOA / baseline  : {:.3}", outcome.relative_best());

    // 4. The transferred parameters are already good on the original graph
    //    before refinement — that is the core claim of the paper.
    let instance = QaoaInstance::new(&graph, 1)?;
    let transferred = instance.expectation(&outcome.transferred_params);
    println!("value at transferred parameters (no refinement): {transferred:.3}");
    Ok(())
}
