//! Cross-crate integration tests: dataset generation → graph reduction →
//! QAOA evaluation → pipeline outcomes.

use datasets::{aids, linux};
use graphlib::generators::connected_gnp;
use graphlib::traversal::is_connected;
use mathkit::rng::seeded;
use qaoa::expectation::QaoaInstance;
use qaoa::optimize::OptimizeOptions;
use qsim::devices::fake_toronto;
use red_qaoa::mse::ideal_sample_mse;
use red_qaoa::pipeline::{run_ideal, run_noisy, CircuitReduction, PipelineOptions};
use red_qaoa::reduction::{reduce, ReductionOptions};

fn quick_pipeline() -> PipelineOptions {
    PipelineOptions {
        layers: 1,
        reduction: ReductionOptions::default(),
        optimize: OptimizeOptions {
            restarts: 2,
            max_iters: 40,
        },
        refine_iters: 20,
        circuit: CircuitReduction::None,
    }
}

#[test]
fn dataset_graphs_reduce_and_preserve_landscapes() {
    let mut rng = seeded(1);
    let corpus = aids(9).filter_by_nodes(6, 10).take(5);
    assert!(!corpus.is_empty());
    for graph in &corpus.graphs {
        let reduced = reduce(graph, &ReductionOptions::default(), &mut rng).unwrap();
        // The reduced graph is a connected induced subgraph of the original.
        assert!(is_connected(reduced.graph()));
        assert!(reduced.graph().node_count() <= graph.node_count());
        for (i, &orig) in reduced.subgraph.nodes.iter().enumerate() {
            assert!(orig < graph.node_count());
            for (j, &other) in reduced.subgraph.nodes.iter().enumerate() {
                if reduced.graph().has_edge(i, j) {
                    assert!(graph.has_edge(orig, other));
                }
            }
        }
        // Landscape fidelity stays within the paper's few-percent regime.
        let mse = ideal_sample_mse(graph, reduced.graph(), 1, 48, &mut rng).unwrap();
        assert!(mse < 0.12, "mse {mse} too large for {graph}");
    }
}

#[test]
fn ideal_pipeline_outperforms_random_parameters() {
    let mut rng = seeded(2);
    let graph = connected_gnp(10, 0.4, &mut rng).unwrap();
    let outcome = run_ideal(&graph, None, &quick_pipeline(), &mut rng).unwrap();
    let instance = QaoaInstance::new(&graph, 1).unwrap();
    // Random parameters give |E|/2 in expectation.
    let random_baseline = graph.edge_count() as f64 / 2.0;
    assert!(outcome.final_value > random_baseline);
    assert!(outcome.relative_best() > 0.85);
    // The transferred parameters alone (before refinement) are already above
    // the random baseline — the transferability claim.
    assert!(instance.expectation(&outcome.transferred_params) > random_baseline);
}

#[test]
fn noisy_pipeline_runs_on_kernel_callgraph_corpus() {
    let mut rng = seeded(3);
    let corpus = linux(5).filter_by_nodes(7, 9).take(2);
    let noise = fake_toronto().noise;
    for graph in &corpus.graphs {
        let outcome = run_noisy(graph, None, &quick_pipeline(), &noise, 8, &mut rng).unwrap();
        assert!(outcome.red_qaoa_ideal_value > 0.0);
        assert!(outcome.baseline_ideal_value > 0.0);
        // Both approaches must stay within the physically possible range.
        assert!(outcome.red_qaoa_ideal_value <= graph.edge_count() as f64);
        assert!(outcome.baseline_ideal_value <= graph.edge_count() as f64);
    }
}

#[test]
fn reduction_is_deterministic_for_a_fixed_seed() {
    let graph = connected_gnp(12, 0.4, &mut seeded(7)).unwrap();
    let a = reduce(&graph, &ReductionOptions::default(), &mut seeded(99)).unwrap();
    let b = reduce(&graph, &ReductionOptions::default(), &mut seeded(99)).unwrap();
    assert_eq!(a.subgraph.nodes, b.subgraph.nodes);
    assert_eq!(a.graph(), b.graph());
}
