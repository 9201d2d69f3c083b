//! Property-based tests of the cross-crate invariants the paper relies on.

use graphlib::generators::{connected_gnp, cycle, erdos_renyi_gnp};
use graphlib::metrics::average_node_degree;
use graphlib::subgraph::random_connected_subgraph;
use graphlib::traversal::is_connected;
use graphlib::Graph;
use mathkit::rng::seeded;
use proptest::prelude::*;
use qaoa::analytic::analytic_expectation_p1;
use qaoa::expectation::QaoaInstance;
use qaoa::maxcut::{brute_force_maxcut, cut_levels, cut_value, cut_values};
use qaoa::params::{QaoaParams, BETA_MAX, GAMMA_MAX};
use rand::Rng;
use red_qaoa::annealing::{anneal_subgraph, SaOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The analytic p = 1 formula agrees with the statevector simulator on
    /// arbitrary connected random graphs and parameters.
    #[test]
    fn analytic_p1_matches_statevector(
        seed in 0u64..1000,
        nodes in 4usize..9,
        gamma in 0.0f64..GAMMA_MAX,
        beta in 0.0f64..BETA_MAX,
    ) {
        let mut rng = seeded(seed);
        let graph = connected_gnp(nodes, 0.5, &mut rng).unwrap();
        prop_assume!(graph.edge_count() > 0);
        let params = QaoaParams::new(vec![gamma], vec![beta]).unwrap();
        let exact = QaoaInstance::new(&graph, 1).unwrap().expectation(&params);
        let analytic = analytic_expectation_p1(&graph, &params).unwrap();
        prop_assert!((exact - analytic).abs() < 1e-7, "exact {exact} vs analytic {analytic}");
    }

    /// The QAOA expectation never exceeds the brute-force MaxCut optimum and
    /// never drops below zero.
    #[test]
    fn qaoa_expectation_is_bounded_by_ground_truth(
        seed in 0u64..1000,
        nodes in 4usize..8,
        gamma in 0.0f64..GAMMA_MAX,
        beta in 0.0f64..BETA_MAX,
    ) {
        let mut rng = seeded(seed);
        let graph = connected_gnp(nodes, 0.5, &mut rng).unwrap();
        prop_assume!(graph.edge_count() > 0);
        let params = QaoaParams::new(vec![gamma], vec![beta]).unwrap();
        let value = QaoaInstance::new(&graph, 1).unwrap().expectation(&params);
        let best = brute_force_maxcut(&graph).unwrap().best_cut as f64;
        prop_assert!(value >= -1e-9);
        prop_assert!(value <= best + 1e-9, "expectation {value} above optimum {best}");
    }

    /// The cut-value table is consistent with complement symmetry: flipping
    /// every bit of an assignment leaves the cut unchanged.
    #[test]
    fn cut_values_are_complement_symmetric(seed in 0u64..1000, nodes in 2usize..10) {
        let mut rng = seeded(seed);
        let graph = connected_gnp(nodes, 0.4, &mut rng).unwrap();
        let table = cut_values(&graph).unwrap();
        let mask = (1usize << nodes) - 1;
        for (z, &value) in table.iter().enumerate() {
            prop_assert_eq!(value, table[z ^ mask]);
        }
    }

    /// Simulated annealing always returns a connected induced subgraph of the
    /// requested size whose AND never exceeds the original's by more than the
    /// structural maximum.
    #[test]
    fn sa_returns_connected_subgraph_of_requested_size(
        seed in 0u64..1000,
        nodes in 6usize..12,
    ) {
        let mut rng = seeded(seed);
        let graph = connected_gnp(nodes, 0.4, &mut rng).unwrap();
        let k = nodes - 2;
        let outcome = anneal_subgraph(&graph, k, &SaOptions::default(), &mut rng).unwrap();
        prop_assert_eq!(outcome.subgraph.graph.node_count(), k);
        prop_assert!(is_connected(&outcome.subgraph.graph));
        // An induced subgraph can never have more edges than the original.
        prop_assert!(outcome.subgraph.graph.edge_count() <= graph.edge_count());
    }

    /// SA's AND match is at least as good as a random connected subgraph of
    /// the same size drawn with the same seed family.
    #[test]
    fn sa_matches_and_at_least_as_well_as_random(seed in 0u64..200) {
        let mut rng = seeded(seed);
        let graph = connected_gnp(12, 0.4, &mut rng).unwrap();
        let target = average_node_degree(&graph);
        let k = 8;
        // The production protocol (ReductionOptions::sa_runs = 2): the
        // adaptive schedule deliberately terminates stagnating runs early
        // since the plateau-stagnation fix, and the reduction layer hedges
        // that with independent restarts. A single truncated run can lose to
        // a lucky random draw; the best of two must not.
        let sa_gap = (0..2u64)
            .map(|run| {
                let mut sa_rng = seeded(mathkit::rng::derive_seed(seed + 1, run));
                let sa = anneal_subgraph(&graph, k, &SaOptions::default(), &mut sa_rng).unwrap();
                (average_node_degree(&sa.subgraph.graph) - target).abs()
            })
            .fold(f64::INFINITY, f64::min);
        let random = random_connected_subgraph(&graph, k, &mut seeded(seed + 2)).unwrap();
        let random_gap = (average_node_degree(&random.graph) - target).abs();
        prop_assert!(sa_gap <= random_gap + 1e-9, "sa {sa_gap} vs random {random_gap}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The `O(2^n)` cut tables (`cut_values`, `cut_levels`) hold exactly the
    /// per-edge count `cut_value` of every basis state, on random graphs of
    /// up to 16 nodes that include isolated nodes (`isolated` extra nodes
    /// with no edges, placed among the others by a rotation of the labels).
    #[test]
    fn cut_tables_match_the_per_edge_count(
        seed in 0u64..1000,
        nodes in 1usize..=13,
        isolated in 0usize..=3,
        density in 0.0f64..1.0,
    ) {
        let mut rng = seeded(seed);
        let core = erdos_renyi_gnp(nodes, density, &mut rng).unwrap();
        let total = nodes + isolated;
        let offset = rng.gen_range(0..total);
        let mut graph = Graph::new(total);
        for (u, v) in core.edges() {
            graph.add_edge((u + offset) % total, (v + offset) % total).unwrap();
        }
        let values = cut_values(&graph).unwrap();
        let levels = cut_levels(&graph).unwrap();
        prop_assert_eq!(values.len(), 1usize << total);
        prop_assert_eq!(levels.len(), 1usize << total);
        for z in 0..values.len() {
            let count = cut_value(&graph, z as u64);
            prop_assert_eq!(values[z], count as f64);
            prop_assert_eq!(usize::from(levels[z]), count);
        }
    }

    /// A cut value does not change when every bit is flipped:
    /// `cut_levels(g)[z] == cut_levels(g)[z ^ (2^n − 1)]`, on random graphs
    /// of up to 16 nodes that include isolated nodes. The half-state QAOA
    /// evolution rests on this.
    #[test]
    fn cut_levels_are_unchanged_by_flipping_every_bit(
        seed in 0u64..1000,
        nodes in 1usize..=13,
        isolated in 0usize..=3,
        density in 0.0f64..1.0,
    ) {
        let mut rng = seeded(seed);
        let core = erdos_renyi_gnp(nodes, density, &mut rng).unwrap();
        let total = nodes + isolated;
        let offset = rng.gen_range(0..total);
        let mut graph = Graph::new(total);
        for (u, v) in core.edges() {
            graph.add_edge((u + offset) % total, (v + offset) % total).unwrap();
        }
        let levels = cut_levels(&graph).unwrap();
        let all_bits = (1usize << total) - 1;
        for z in 0..levels.len() {
            prop_assert!(levels[z] == levels[z ^ all_bits], "state {}", z);
        }
    }
}

#[test]
fn cycle_family_landscapes_are_interchangeable() {
    // Deterministic version of the Figure 3 observation, across several sizes.
    let reference = QaoaInstance::new(&cycle(8).unwrap(), 1).unwrap();
    let params = QaoaParams::new(vec![1.1], vec![0.6]).unwrap();
    let reference_value = reference.expectation(&params) / 8.0;
    for n in [5usize, 6, 9, 11] {
        let instance = QaoaInstance::new(&cycle(n).unwrap(), 1).unwrap();
        let normalized = instance.expectation(&params) / n as f64;
        // Odd and even cycles differ only through parity effects that vanish
        // in the per-edge expectation for p = 1.
        assert!(
            (normalized - reference_value).abs() < 0.02,
            "cycle {n}: {normalized} vs {reference_value}"
        );
    }
}
