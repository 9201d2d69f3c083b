//! Output checks shared by the workloads that reduce graphs.

use graphlib::Graph;
use red_qaoa::reduction::ReducedGraph;

/// Checks a reduction against the graph it came from: the reduced graph is
/// the subgraph induced by its node mapping, it meets the AND-ratio
/// threshold, and the reported reduction fractions match its size.
pub fn check_reduction(
    original: &Graph,
    reduced: &ReducedGraph,
    threshold: f64,
) -> Result<(), String> {
    let n = original.node_count();
    let sub = reduced.graph();
    let k = sub.node_count();
    let nodes = &reduced.subgraph.nodes;
    if k < 2 || k > n || nodes.len() != k || sub.edge_count() == 0 {
        return Err(format!("reduction to {k} of {n} nodes is malformed"));
    }
    if nodes.iter().any(|&v| v >= n) || nodes.windows(2).any(|w| w[0] >= w[1]) {
        return Err("reduction node mapping is not an increasing list of nodes".to_string());
    }
    for i in 0..k {
        for j in (i + 1)..k {
            if sub.has_edge(i, j) != original.has_edge(nodes[i], nodes[j]) {
                return Err(format!(
                    "reduced edge ({i}, {j}) does not match the original"
                ));
            }
        }
    }
    if reduced.and_ratio.is_nan() || reduced.and_ratio < threshold - 1e-9 {
        return Err(format!(
            "AND ratio {} is below {threshold}",
            reduced.and_ratio
        ));
    }
    let node_reduction = 1.0 - k as f64 / n as f64;
    let edge_reduction = 1.0 - sub.edge_count() as f64 / original.edge_count() as f64;
    if reduced.node_reduction != node_reduction || reduced.edge_reduction != edge_reduction {
        return Err("reported reduction fractions do not match the reduced graph".to_string());
    }
    Ok(())
}

/// Checks an expectation value against `(0, max]`.
pub fn check_value(what: &str, value: f64, max: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 && value <= max + 1e-9 {
        Ok(())
    } else {
        Err(format!("{what} {value} is outside (0, {max}]"))
    }
}

/// Compares two outputs bit for bit through their `Debug` form, which
/// prints every float in its shortest exact round-trip representation.
pub fn same_bits<T: std::fmt::Debug>(what: &str, untraced: &T, replayed: &T) -> Result<(), String> {
    if format!("{untraced:?}") == format!("{replayed:?}") {
        Ok(())
    } else {
        Err(format!(
            "{what}: traced replay differs from the untraced output"
        ))
    }
}
