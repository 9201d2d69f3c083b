//! Differential kernel-oracle suite: the vectorized statevector kernels
//! must be **bitwise-identical** to the scalar reference kernels on random
//! circuits — same amplitude bits after every gate, same probability bits,
//! same reduction bits (`prob_one`, `norm_sqr`, `expectation_*`).
//!
//! Two layers of checking:
//!
//! * The module-level tests call `qsim::statevector::reference` and
//!   `qsim::statevector::vectorized` free functions directly on cloned
//!   amplitude buffers — no global state involved, so this is the airtight
//!   proof of equivalence even when other tests in this binary toggle the
//!   process-wide kernel override concurrently.
//! * The API-level test drives two `StateVector`s through
//!   `with_kernel(Scalar, …)` / `with_kernel(Vectorized, …)` to confirm the
//!   dispatch layer routes to the right kernels end-to-end.
//!
//! Why bitwise and not tolerance-based: the determinism contract
//! (`docs/determinism.md`) pins every result to exact bits across thread
//! counts, and `RED_QAOA_KERNEL` must be an operational knob that can never
//! change a result. A single ULP of drift here would silently invalidate
//! every golden value downstream.

use graphlib::Graph;
use mathkit::rng::seeded;
use mathkit::Complex64;
use proptest::prelude::*;
use qaoa::maxcut::cut_levels;
use qsim::circuit::Gate;
use qsim::statevector::{
    reference, vectorized, with_kernel, KernelMode, StateVector, StatevectorWorkspace,
};
use rand::Rng;

/// Samples one random gate over `n` qubits (single-qubit only when `n == 1`).
fn random_gate<R: Rng>(n: usize, rng: &mut R) -> Gate {
    let q = rng.gen_range(0..n);
    let angle = rng.gen_range(-3.5f64..6.5);
    let kinds = if n > 1 { 14 } else { 10 };
    match rng.gen_range(0..kinds) {
        0 => Gate::H(q),
        1 => Gate::X(q),
        2 => Gate::Y(q),
        3 => Gate::Z(q),
        4 => Gate::S(q),
        5 => Gate::Sdg(q),
        6 => Gate::T(q),
        7 => Gate::Rx(q, angle),
        8 => Gate::Ry(q, angle),
        9 => Gate::Rz(q, angle),
        two_qubit => {
            let mut r = rng.gen_range(0..n - 1);
            if r >= q {
                r += 1;
            }
            match two_qubit {
                10 => Gate::Cnot(q, r),
                11 => Gate::Cz(q, r),
                12 => Gate::Swap(q, r),
                _ => Gate::Rzz(q, r, angle),
            }
        }
    }
}

/// A random non-trivial starting state (random circuit from `|0…0⟩`), so the
/// kernels are exercised on dense complex amplitudes rather than the sparse
/// initial basis state.
fn random_state<R: Rng>(n: usize, gates: usize, rng: &mut R) -> StateVector {
    let mut sv = StateVector::uniform_superposition(n);
    for _ in 0..gates {
        sv.apply_gate(random_gate(n, rng));
    }
    sv
}

fn amplitude_bits(amplitudes: &[Complex64]) -> Vec<(u64, u64)> {
    amplitudes
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Direct module differential: every gate kernel produces identical
    /// amplitude bits to its scalar oracle, checked after **every** gate of
    /// a random circuit, and every reduction produces identical result bits
    /// on the evolving state.
    #[test]
    fn vectorized_gates_match_scalar_oracle_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        gate_count in 5usize..40,
    ) {
        let mut rng = seeded(seed);
        let mut scalar: Vec<Complex64> =
            random_state(qubits, 6, &mut rng).amplitudes().to_vec();
        let mut fast = scalar.clone();
        for step in 0..gate_count {
            let gate = random_gate(qubits, &mut rng);
            match gate {
                Gate::Cnot(c, t) => {
                    reference::apply_cnot(&mut scalar, c, t);
                    vectorized::apply_cnot(&mut fast, c, t);
                }
                Gate::Cz(a, b) => {
                    reference::apply_cz(&mut scalar, a, b);
                    vectorized::apply_cz(&mut fast, a, b);
                }
                Gate::Swap(a, b) => {
                    reference::apply_swap(&mut scalar, a, b);
                    vectorized::apply_swap(&mut fast, a, b);
                }
                Gate::Rzz(a, b, theta) => {
                    reference::apply_rzz(&mut scalar, a, b, theta);
                    vectorized::apply_rzz(&mut fast, a, b, theta);
                }
                single => {
                    let target = single.qubits()[0];
                    let u = single_qubit_matrix(single);
                    reference::apply_single(&mut scalar, target, u);
                    vectorized::apply_single(&mut fast, target, u);
                }
            }
            prop_assert!(
                amplitude_bits(&scalar) == amplitude_bits(&fast),
                "amplitudes diverged after gate {step} ({gate:?})"
            );
            prop_assert_eq!(
                reference::norm_sqr(&scalar).to_bits(),
                vectorized::norm_sqr(&fast).to_bits()
            );
            for q in 0..qubits {
                prop_assert_eq!(
                    reference::prob_one(&scalar, q).to_bits(),
                    vectorized::prob_one(&fast, q).to_bits()
                );
                prop_assert_eq!(
                    reference::expectation_z(&scalar, q).to_bits(),
                    vectorized::expectation_z(&fast, q).to_bits()
                );
            }
        }
    }

    /// Pairwise reductions and diagonals: `expectation_zz` over every qubit
    /// pair, `expectation_diagonal` and `apply_diagonal` over a random
    /// diagonal, bitwise-equal between the two modules.
    #[test]
    fn vectorized_reductions_match_scalar_oracle_bitwise(
        seed in 0u64..100_000,
        qubits in 2usize..=10,
    ) {
        let mut rng = seeded(seed);
        let scalar: Vec<Complex64> =
            random_state(qubits, 25, &mut rng).amplitudes().to_vec();
        let fast = scalar.clone();
        for a in 0..qubits {
            for b in 0..qubits {
                if a == b {
                    continue;
                }
                prop_assert!(
                    reference::expectation_zz(&scalar, a, b).to_bits()
                        == vectorized::expectation_zz(&fast, a, b).to_bits(),
                    "expectation_zz({a}, {b}) diverged"
                );
            }
        }
        let values: Vec<f64> = (0..scalar.len())
            .map(|_| rng.gen_range(-4.0f64..4.0))
            .collect();
        prop_assert_eq!(
            reference::expectation_diagonal(&scalar, &values).to_bits(),
            vectorized::expectation_diagonal(&fast, &values).to_bits()
        );
        let phases: Vec<Complex64> = values.iter().map(|&v| Complex64::cis(v)).collect();
        let mut scalar_d = scalar.clone();
        let mut fast_d = fast.clone();
        reference::apply_diagonal(&mut scalar_d, &phases);
        vectorized::apply_diagonal(&mut fast_d, &phases);
        prop_assert_eq!(amplitude_bits(&scalar_d), amplitude_bits(&fast_d));
    }

    /// API-level differential: the same random circuit executed through
    /// `with_kernel(Scalar)` and `with_kernel(Vectorized)` yields identical
    /// amplitude, probability, and expectation bits (this exercises the
    /// `StateVector` dispatch layer and the `probabilities` path on top of
    /// the raw kernels).
    #[test]
    fn kernel_modes_agree_through_the_statevector_api(
        seed in 0u64..100_000,
        qubits in 1usize..=8,
        gate_count in 5usize..30,
    ) {
        let run = |mode: KernelMode| {
            with_kernel(mode, || {
                let mut rng = seeded(seed);
                let sv = random_state(qubits, gate_count, &mut rng);
                let probs: Vec<u64> =
                    sv.probabilities().iter().map(|p| p.to_bits()).collect();
                let expectations: Vec<u64> = (0..qubits)
                    .map(|q| sv.expectation_z(q).to_bits())
                    .chain(std::iter::once(sv.norm_sqr().to_bits()))
                    .collect();
                (amplitude_bits(sv.amplitudes()), probs, expectations)
            })
        };
        prop_assert_eq!(run(KernelMode::Scalar), run(KernelMode::Vectorized));
    }
}

/// A starting state for the QAOA-layer kernels: `|0…0⟩` (mostly exact
/// zeros, where the RX-only mixer may flip a zero's sign), the uniform
/// superposition the QAOA evolution starts from, or a dense random state.
fn layer_start_state<R: Rng>(kind: usize, n: usize, rng: &mut R) -> StateVector {
    match kind {
        0 => StateVector::new(n),
        1 => StateVector::uniform_superposition(n),
        _ => random_state(n, 20, rng),
    }
}

/// Random `u8` levels in `0..=max_level` for a `2^n`-state diagonal.
fn random_levels<R: Rng>(len: usize, max_level: u8, rng: &mut R) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=max_level)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The QAOA-layer kernels (`apply_phase_levels`, `apply_rx_mixer`) give the
    /// same amplitude bits in both modules, through alternating cost and
    /// mixer layers.
    #[test]
    fn qaoa_layer_kernels_match_scalar_oracle_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..3,
        max_level in 0u8..=40,
        layers in 1usize..4,
    ) {
        let mut rng = seeded(seed);
        let mut scalar = layer_start_state(kind, qubits, &mut rng).amplitudes().to_vec();
        let mut fast = scalar.clone();
        let levels = random_levels(scalar.len(), max_level, &mut rng);
        for layer in 0..layers {
            let gamma = rng.gen_range(-3.5f64..6.5);
            let beta = rng.gen_range(-3.5f64..6.5);
            reference::apply_phase_levels(&mut scalar, &levels, max_level, -gamma);
            vectorized::apply_phase_levels(&mut fast, &levels, max_level, -gamma);
            prop_assert!(
                amplitude_bits(&scalar) == amplitude_bits(&fast),
                "phase levels diverged in layer {layer}"
            );
            reference::apply_rx_mixer(&mut scalar, 2.0 * beta);
            vectorized::apply_rx_mixer(&mut fast, 2.0 * beta);
            prop_assert!(
                amplitude_bits(&scalar) == amplitude_bits(&fast),
                "rx mixer diverged in layer {layer}"
            );
        }
    }

    /// The phase-level kernel gives the bits of `apply_diagonal` over the
    /// explicit per-state table `cis(scale · level)`, in both modules.
    #[test]
    fn phase_levels_match_an_explicit_cis_table_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..3,
        max_level in 0u8..=231,
        scale in -6.5f64..6.5,
    ) {
        let mut rng = seeded(seed);
        let start = layer_start_state(kind, qubits, &mut rng).amplitudes().to_vec();
        let levels = random_levels(start.len(), max_level, &mut rng);
        let table: Vec<Complex64> = levels
            .iter()
            .map(|&level| Complex64::cis(scale * f64::from(level)))
            .collect();
        let mut expected = start.clone();
        reference::apply_diagonal(&mut expected, &table);
        let mut scalar = start.clone();
        reference::apply_phase_levels(&mut scalar, &levels, max_level, scale);
        let mut fast = start;
        vectorized::apply_phase_levels(&mut fast, &levels, max_level, scale);
        prop_assert_eq!(amplitude_bits(&scalar), amplitude_bits(&expected));
        prop_assert_eq!(amplitude_bits(&fast), amplitude_bits(&expected));
    }

    /// The RX-only mixer against `apply_gate(Gate::Rx)` on every qubit, under
    /// both kernels: every nonzero component has the same bits, zeros
    /// compare equal as `f64` (only their sign may differ), and `norm_sqr`,
    /// `expectation_zz` and `expectation_diagonal` have the same bits.
    #[test]
    fn rx_mixer_matches_per_qubit_rx_gates(
        seed in 0u64..100_000,
        qubits in 2usize..=10,
        kind in 0usize..3,
        layers in 1usize..4,
    ) {
        let mut rng = seeded(seed);
        let start = layer_start_state(kind, qubits, &mut rng);
        let thetas: Vec<f64> = (0..layers).map(|_| rng.gen_range(-7.0f64..13.0)).collect();
        let values: Vec<f64> = (0..start.amplitudes().len())
            .map(|_| rng.gen_range(-4.0f64..4.0))
            .collect();
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let (mixer, gates) = with_kernel(mode, || {
                let mut mixer = start.clone();
                let mut gates = start.clone();
                for &theta in &thetas {
                    mixer.apply_rx_mixer(theta);
                    for q in 0..qubits {
                        gates.apply_gate(Gate::Rx(q, theta));
                    }
                }
                (mixer, gates)
            });
            for (z, (m, g)) in mixer.amplitudes().iter().zip(gates.amplitudes()).enumerate() {
                for (part, x, y) in [("re", m.re, g.re), ("im", m.im, g.im)] {
                    prop_assert!(x == y, "{mode:?}: amplitude {z}.{part} {x} vs {y}");
                    if x != 0.0 {
                        prop_assert!(
                            x.to_bits() == y.to_bits(),
                            "{mode:?}: amplitude {z}.{part} bits differ"
                        );
                    }
                }
            }
            with_kernel(mode, || {
                prop_assert_eq!(mixer.norm_sqr().to_bits(), gates.norm_sqr().to_bits());
                for a in 0..qubits {
                    for b in 0..qubits {
                        if a != b {
                            prop_assert_eq!(
                                mixer.expectation_zz(a, b).to_bits(),
                                gates.expectation_zz(a, b).to_bits()
                            );
                        }
                    }
                }
                prop_assert_eq!(
                    mixer.expectation_diagonal(&values).to_bits(),
                    gates.expectation_diagonal(&values).to_bits()
                );
                Ok(())
            })?;
        }
    }
}

/// Levels for a `2^n`-state diagonal that are unchanged by flipping every
/// bit, as MaxCut cut values are: either random levels in `0..=40` on the
/// lower half, mirrored, or the cut levels of a random graph with isolated
/// nodes. Returns the levels and their maximum bound.
fn symmetric_levels<R: Rng>(kind: usize, n: usize, rng: &mut R) -> (Vec<u8>, u8) {
    if kind == 0 {
        let max_level = rng.gen_range(0u8..=40);
        let half = random_levels(1 << (n - 1), max_level, rng);
        let levels = half.iter().chain(half.iter().rev()).copied().collect();
        return (levels, max_level);
    }
    let mut graph = Graph::new(n);
    let density = rng.gen_range(0.0f64..1.0);
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(density) {
                graph.add_edge(u, v).unwrap();
            }
        }
    }
    let max_level = u8::try_from(graph.edge_count()).unwrap();
    (cut_levels(&graph).unwrap(), max_level)
}

/// An angle that is sometimes exactly zero, so that exact-zero amplitude
/// components (whose sign the RX-only butterfly may choose) reach the
/// comparison.
fn layer_angle<R: Rng>(rng: &mut R) -> f64 {
    if rng.gen_range(0..4) == 0 {
        0.0
    } else {
        rng.gen_range(-3.5f64..6.5)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The half-state QAOA evolution (`StatevectorWorkspace::evolve_qaoa`:
    /// lower half, reflected top-qubit pass, mirror) against the full-state
    /// `apply_phase_levels` + `apply_rx_mixer` loop of the scalar oracle,
    /// every amplitude compared by `to_bits` (zero signs included), under
    /// both kernels and in one reused workspace.
    #[test]
    fn half_state_evolution_matches_the_full_state_loop_bitwise(
        seed in 0u64..100_000,
        qubits in 2usize..=12,
        kind in 0usize..2,
        layers in 1usize..=3,
    ) {
        let mut rng = seeded(seed);
        let (levels, max_level) = symmetric_levels(kind, qubits, &mut rng);
        let angles: Vec<(f64, f64)> = (0..layers)
            .map(|_| (layer_angle(&mut rng), layer_angle(&mut rng)))
            .collect();
        let mut oracle = StateVector::uniform_superposition(qubits).amplitudes().to_vec();
        for &(gamma, beta) in &angles {
            reference::apply_phase_levels(&mut oracle, &levels, max_level, -gamma);
            reference::apply_rx_mixer(&mut oracle, 2.0 * beta);
        }
        let layer_args = || angles.iter().map(|&(gamma, beta)| (-gamma, 2.0 * beta));
        // A workspace that last held a larger, unrelated state: the half-state
        // start must not read any of it.
        let mut workspace = StatevectorWorkspace::with_qubits(qubits + 1);
        workspace.begin_zero(qubits + 1);
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let state = with_kernel(mode, || {
                workspace
                    .evolve_qaoa(qubits, &levels, max_level, layer_args())
                    .clone()
            });
            prop_assert_eq!(state.qubit_count(), qubits);
            prop_assert!(
                amplitude_bits(state.amplitudes()) == amplitude_bits(&oracle),
                "{:?}: half-state evolution diverged from the full-state loop",
                mode
            );
        }
    }

    /// `expectation_levels` gives the bits of `expectation_diagonal` over the
    /// explicit `f64` table `f64::from(level)`, in both modules (tails of
    /// states under 3 qubits included).
    #[test]
    fn expectation_levels_match_the_f64_table_bitwise(
        seed in 0u64..100_000,
        qubits in 1usize..=10,
        kind in 0usize..3,
        max_level in 0u8..=255,
    ) {
        let mut rng = seeded(seed);
        let state = layer_start_state(kind, qubits, &mut rng).amplitudes().to_vec();
        let levels = random_levels(state.len(), max_level, &mut rng);
        let values: Vec<f64> = levels.iter().map(|&level| f64::from(level)).collect();
        let expected = reference::expectation_diagonal(&state, &values).to_bits();
        prop_assert_eq!(reference::expectation_levels(&state, &levels).to_bits(), expected);
        prop_assert_eq!(vectorized::expectation_levels(&state, &levels).to_bits(), expected);
    }
}

/// The single-qubit unitary matrix of a gate (panics on two-qubit gates).
/// Mirrors the matrix table in `StateVector::apply_gate` so the module-level
/// differential can exercise `apply_single` with every gate's actual matrix.
fn single_qubit_matrix(gate: Gate) -> [[Complex64; 2]; 2] {
    use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4};
    let zero = Complex64::zero;
    let one = Complex64::one;
    match gate {
        Gate::H(_) => [
            [
                Complex64::new(FRAC_1_SQRT_2, 0.0),
                Complex64::new(FRAC_1_SQRT_2, 0.0),
            ],
            [
                Complex64::new(FRAC_1_SQRT_2, 0.0),
                Complex64::new(-FRAC_1_SQRT_2, 0.0),
            ],
        ],
        Gate::X(_) => [[zero(), one()], [one(), zero()]],
        Gate::Y(_) => [
            [zero(), Complex64::new(0.0, -1.0)],
            [Complex64::new(0.0, 1.0), zero()],
        ],
        Gate::Z(_) => [[one(), zero()], [zero(), Complex64::new(-1.0, 0.0)]],
        Gate::S(_) => [[one(), zero()], [zero(), Complex64::i()]],
        Gate::Sdg(_) => [[one(), zero()], [zero(), Complex64::new(0.0, -1.0)]],
        Gate::T(_) => [[one(), zero()], [zero(), Complex64::cis(FRAC_PI_4)]],
        Gate::Rx(_, theta) => {
            let c = Complex64::new((theta / 2.0).cos(), 0.0);
            let s = Complex64::new(0.0, -(theta / 2.0).sin());
            [[c, s], [s, c]]
        }
        Gate::Ry(_, theta) => {
            let c = Complex64::new((theta / 2.0).cos(), 0.0);
            let s = Complex64::new((theta / 2.0).sin(), 0.0);
            [[c, -s], [s, c]]
        }
        Gate::Rz(_, theta) => [
            [Complex64::cis(-theta / 2.0), zero()],
            [zero(), Complex64::cis(theta / 2.0)],
        ],
        other => panic!("not a single-qubit gate: {other:?}"),
    }
}
