//! Golden-value regression tests for the statevector kernels.
//!
//! The differential suite (`tests/qsim_kernel_equivalence.rs`) proves the
//! scalar and vectorized kernels agree with *each other*; these tests pin
//! both to recorded constants so a future change that shifts either kernel
//! by a single ULP — a reassociated reduction, an FMA contraction, a
//! reordered butterfly — fails loudly instead of silently moving every
//! energy in the repo. The constants are `f64::to_bits` values recorded
//! from the PR that introduced the kernel split (same pattern as
//! `tests/warm_start_regression.rs`).
//!
//! Every expectation is asserted under **both** `KernelMode`s: the pinned
//! bits are the contract, kernel choice is an implementation detail.

use graphlib::generators::{connected_gnp, cycle, random_regular};
use mathkit::rng::choose_indices;
use mathkit::rng::seeded;
use qaoa::expectation::QaoaInstance;
use qaoa::params::QaoaParams;
use qsim::circuit::{Circuit, Gate};
use qsim::statevector::{with_kernel, KernelMode, StateVector, StatevectorWorkspace};

/// A fixed 5-qubit circuit mixing every gate family the kernels implement.
fn pinned_circuit() -> Circuit {
    let mut c = Circuit::new(5);
    c.extend([
        Gate::H(0),
        Gate::Ry(1, 0.8),
        Gate::Cnot(0, 2),
        Gate::Rzz(1, 3, 0.9),
        Gate::Rx(4, -1.3),
        Gate::Cz(2, 4),
        Gate::T(3),
        Gate::Swap(0, 4),
        Gate::Rz(2, 2.2),
        Gate::H(3),
    ])
    .unwrap();
    c
}

fn for_both_kernels(check: impl Fn()) {
    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
        with_kernel(mode, &check);
    }
}

#[test]
fn expectation_zz_bits_are_pinned() {
    // ((a, b), recorded bits of expectation_zz(a, b)).
    let expected: [((usize, usize), u64); 4] = [
        ((0, 1), 0x3fc7daea0385bd10),
        ((1, 3), 0x0000000000000000),
        ((2, 4), 0x3ff0000000000002),
        ((0, 4), 0x3c90000000000000),
    ];
    for_both_kernels(|| {
        let sv = StateVector::from_circuit(&pinned_circuit());
        for ((a, b), bits) in expected {
            assert_eq!(
                sv.expectation_zz(a, b).to_bits(),
                bits,
                "expectation_zz({a}, {b}) drifted"
            );
        }
    });
}

#[test]
fn expectation_diagonal_and_norm_bits_are_pinned() {
    for_both_kernels(|| {
        let sv = StateVector::from_circuit(&pinned_circuit());
        let values: Vec<f64> = (0..32).map(|i| (i as f64) * 0.25 - 3.5).collect();
        assert_eq!(
            sv.expectation_diagonal(&values).to_bits(),
            0x3fc56ce74783d488,
            "expectation_diagonal drifted"
        );
        assert_eq!(
            sv.norm_sqr().to_bits(),
            0x3ff0000000000002,
            "norm_sqr drifted"
        );
    });
}

#[test]
fn scheduled_circuit_expectation_bits_are_pinned() {
    // Depth-scheduled cost layers (PR 10): the `ScheduledCircuitEvaluator`
    // simulates the explicit round-major `RZZ` gate sequence the greedy
    // interaction scheduler emits, not the phase-table shortcut. The gate
    // *order* is part of the floating-point result, so these pins lock the
    // scheduler's round assignment (lowest-index tie-breaks) as well as the
    // kernels: a future change to either moves these bits.
    use qaoa::evaluator::{EnergyEvaluator, ScheduledCircuitEvaluator};
    let params = QaoaParams::new(vec![0.7], vec![0.4]).unwrap();
    let graphs = [
        ("cycle8", cycle(8).unwrap(), 0x4017e1572a7fa90eu64),
        (
            "gnp9",
            connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
            0x4022f538eb314ce2,
        ),
        (
            "gnp10",
            connected_gnp(10, 0.3, &mut seeded(78)).unwrap(),
            0x4021344352dcebab,
        ),
    ];
    for_both_kernels(|| {
        for (name, graph, bits) in &graphs {
            let evaluator = ScheduledCircuitEvaluator::new(graph, 1).unwrap();
            let value = evaluator.energy(&mut evaluator.scratch(), 0, &params);
            assert_eq!(
                value.to_bits(),
                *bits,
                "scheduled p=1 expectation on {name} drifted"
            );
        }
    });
}

#[test]
fn scheduled_three_layer_expectation_bits_are_pinned() {
    // Same contract at p = 3: every layer re-emits the scheduled rounds, so
    // these pins cover the round-major emission repeated across layers.
    use qaoa::evaluator::{EnergyEvaluator, ScheduledCircuitEvaluator};
    let params = QaoaParams::new(vec![0.7, 0.35, 0.21], vec![0.4, 0.55, 0.13]).unwrap();
    let graphs = [
        ("cycle8", cycle(8).unwrap(), 0x400b4ae7159c05e1u64),
        (
            "gnp9",
            connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
            0x401cc9c3e16caa02,
        ),
    ];
    for_both_kernels(|| {
        for (name, graph, bits) in &graphs {
            let evaluator = ScheduledCircuitEvaluator::new(graph, 3).unwrap();
            let value = evaluator.energy(&mut evaluator.scratch(), 0, &params);
            assert_eq!(
                value.to_bits(),
                *bits,
                "scheduled p=3 expectation on {name} drifted"
            );
        }
    });
}

#[test]
fn three_layer_qaoa_expectation_bits_are_pinned() {
    // Recorded `expectation_with` bits for a 3-layer ansatz on three fixed
    // graphs, all evaluated through one reused workspace (so this also pins
    // the evolve → phase-diagonal → expectation pipeline end to end).
    let params = QaoaParams::new(vec![0.7, 0.35, 0.21], vec![0.4, 0.55, 0.13]).unwrap();
    let graphs = [
        ("cycle8", cycle(8).unwrap(), 0x400b4ae7159c05e8u64),
        (
            "gnp9",
            connected_gnp(9, 0.4, &mut seeded(77)).unwrap(),
            0x401cc9c3e16caa13,
        ),
        (
            "gnp10",
            connected_gnp(10, 0.3, &mut seeded(78)).unwrap(),
            0x401a626396a20c92,
        ),
    ];
    for_both_kernels(|| {
        let mut workspace = StatevectorWorkspace::new();
        for (name, graph, bits) in &graphs {
            let instance = QaoaInstance::new(graph, 3).unwrap();
            assert_eq!(
                instance.expectation_with(&mut workspace, &params).to_bits(),
                *bits,
                "3-layer expectation on {name} drifted"
            );
        }
    });
}

/// Fixed-seed connected `G(n, 0.4)` graphs for the statevector pins.
fn gnp_pin_graphs() -> [(&'static str, graphlib::Graph); 2] {
    [
        ("gnp12", connected_gnp(12, 0.4, &mut seeded(1201)).unwrap()),
        ("gnp16", connected_gnp(16, 0.4, &mut seeded(1601)).unwrap()),
    ]
}

/// A fixed-seed 40-node 3-regular graph and the copy with a quarter of its
/// edges deleted (the two graph shapes of the light-cone benchmark).
fn cone_pin_graphs() -> [(&'static str, graphlib::Graph); 2] {
    let mut rng = seeded(4003);
    let regular = random_regular(40, 3, &mut rng).unwrap();
    let mut thinned = regular.clone();
    let edges = thinned.edges();
    for e in choose_indices(&mut rng, edges.len(), edges.len() / 4) {
        thinned.remove_edge(edges[e].0, edges[e].1).unwrap();
    }
    [("regular40", regular), ("thinned40", thinned)]
}

#[test]
fn statevector_evaluator_bits_are_pinned() {
    // Recorded `StatevectorEvaluator` energies at p = 1 and p = 3 on 12- and
    // 16-node graphs, before the cost layer moved to per-level phases and
    // the mixer to its own RX kernel. Those kernels must keep every bit.
    use qaoa::evaluator::{EnergyEvaluator, StatevectorEvaluator};
    let p1 = QaoaParams::new(vec![0.7], vec![0.4]).unwrap();
    let p3 = QaoaParams::new(vec![0.7, 0.35, 0.21], vec![0.4, 0.55, 0.13]).unwrap();
    let expected: [[u64; 2]; 2] = [
        [0x402f745aa5a0ff40, 0x402c34c5c28a81e2],
        [0x403af653099f6448, 0x40390f5955deaad5],
    ];
    let graphs = gnp_pin_graphs();
    for_both_kernels(|| {
        for ((name, graph), bits) in graphs.iter().zip(expected) {
            for (params, bits) in [&p1, &p3].into_iter().zip(bits) {
                let evaluator = StatevectorEvaluator::new(graph, params.layers()).unwrap();
                let value = evaluator.energy(&mut evaluator.scratch(), 0, params);
                assert_eq!(
                    value.to_bits(),
                    bits,
                    "statevector p={} expectation on {name} drifted",
                    params.layers()
                );
            }
        }
    });
}

/// The p = 2 points of `edge_local_evaluator_bits_are_pinned`: one fixed
/// point and seven drawn from a fixed seed.
fn cone_pin_points() -> Vec<QaoaParams> {
    let mut rng = seeded(2024);
    std::iter::once(QaoaParams::new(vec![0.7, 0.35], vec![0.4, 0.55]).unwrap())
        .chain((0..7).map(|_| QaoaParams::random(2, &mut rng)))
        .collect()
}

#[test]
fn edge_local_evaluator_bits_are_pinned() {
    // Recorded `EdgeLocalEvaluator` energies at p = 2, before the cost layer
    // moved to per-level phases and the mixer to its own RX kernel. These
    // pin the light-cone kernel path on their own: the
    // `edge_local_expectation` oracle evolves its cones through the same
    // layer code, so it cannot catch a kernel change that moves both. A
    // sum over 45-60 cones can absorb a one-ULP change in one cone, so each
    // graph pins eight points.
    use qaoa::evaluator::{EdgeLocalEvaluator, EnergyEvaluator};
    let expected: [[u64; 8]; 2] = [
        [
            0x403e7d5478d06346,
            0x403d97ab355c09b2,
            0x4035635351b94552,
            0x403615c3b95b3f36,
            0x403f86b8ba6c3183,
            0x403af4a1bc555430,
            0x4042edd1a697d96a,
            0x403dfbabc2e9268a,
        ],
        [
            0x403649f62628120c,
            0x403ab0433ac6a6f7,
            0x403524445f469615,
            0x40380d35af790f65,
            0x403490a3e81f7633,
            0x40369c61b0489d7e,
            0x4038567fb7e37d45,
            0x40362cbc5ba2b1e1,
        ],
    ];
    let graphs = cone_pin_graphs();
    let points = cone_pin_points();
    for_both_kernels(|| {
        for ((name, graph), bits) in graphs.iter().zip(expected) {
            let evaluator = EdgeLocalEvaluator::new(graph, 2).unwrap();
            let mut scratch = evaluator.scratch();
            for (i, (params, bits)) in points.iter().zip(bits).enumerate() {
                let value = evaluator.energy(&mut scratch, 0, params);
                assert_eq!(
                    value.to_bits(),
                    bits,
                    "edge-local p=2 expectation at point {i} on {name} drifted"
                );
            }
        }
    });
}
