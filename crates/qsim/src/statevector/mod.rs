//! Ideal statevector simulator.
//!
//! The state of `n` qubits is a vector of `2^n` complex amplitudes. Qubit 0
//! is the least-significant bit of the basis-state index (Qiskit's
//! convention), so `|q_{n-1} … q_1 q_0⟩` maps to index
//! `q_0 + 2 q_1 + … + 2^{n-1} q_{n-1}`.
//!
//! # Kernel backends
//!
//! Every hot loop exists twice, with identical results bit for bit:
//!
//! * [`vectorized`] (the default) — explicitly chunked, branch-free loops
//!   shaped for LLVM's autovectorizer: gates walk only the contiguous runs
//!   they change, butterflies are slice zips with the index math hoisted
//!   out, reductions keep one accumulator per lane.
//! * [`mod@reference`] — the plain scalar loops, kept as the differential-test
//!   oracle (`tests/qsim_kernel_equivalence.rs`) and as the benchmark
//!   baseline.
//!
//! Two kernels exist only for the exact QAOA evolution
//! (`qaoa::expectation::evolve_qaoa_layers`), in both backends:
//!
//! * `apply_phase_levels` — the cost layer from `u8` cut levels: one
//!   `Complex64::cis` per level instead of one per basis state
//!   ([`StateVector::apply_phase_levels`]); same bits as
//!   [`StateVector::apply_diagonal`] over the per-state `cis` table.
//! * `apply_rx_mixer` — `RX(θ)` on every qubit with only the rotation's
//!   real and imaginary entries ([`StateVector::apply_rx_mixer`]); same bits as
//!   `Gate::Rx` through [`StateVector::apply_single`] except the sign of an
//!   exact zero, which no probability or expectation can see.
//!
//! Gate circuits, `Gate::Rx` included, always run the general kernels.
//!
//! The backend is selected per process with the [`KERNEL_ENV`]
//! (`RED_QAOA_KERNEL=scalar|vectorized`) environment variable, mirroring
//! `RED_QAOA_THREADS`, or scoped in code with [`with_kernel`]. Because the
//! two backends are bitwise-identical, the choice can never change any
//! result — only how fast it is computed.
//!
//! # Fixed reduction order
//!
//! All reductions (`expectation_*`, [`StateVector::prob_one`],
//! [`StateVector::norm_sqr`]) sum in one fixed order, independent of kernel
//! backend and thread count: [`REDUCTION_LANES`]` = L` interleaved partial
//! sums, where lane `j` accumulates elements `j, j + L, j + 2L, …` over the
//! largest prefix that is a multiple of `L`; the lanes then combine
//! pairwise (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`) and any tail elements
//! (only states with fewer than 3 qubits have one) are added sequentially.
//! This order is part of the determinism contract — see
//! `docs/determinism.md`.

pub mod reference;
pub mod vectorized;

use crate::circuit::{Circuit, Gate};
use mathkit::Complex64;
use rand::Rng;
use std::f64::consts::FRAC_1_SQRT_2;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Practical qubit limit for the statevector backend (64 Mi amplitudes).
pub const MAX_STATEVECTOR_QUBITS: usize = 26;

/// Number of interleaved partial sums in the fixed reduction order shared
/// by both kernel backends (see the [module docs](self)).
pub const REDUCTION_LANES: usize = 8;

/// Environment variable selecting the kernel backend
/// (`scalar` or `vectorized`; unset or unrecognized means vectorized).
///
/// Mirrors `RED_QAOA_THREADS`: an operational knob that can never change a
/// result, because the two backends are bitwise-identical.
pub const KERNEL_ENV: &str = "RED_QAOA_KERNEL";

/// Which statevector kernel implementation executes gates and reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Plain scalar loops ([`mod@reference`]) — the oracle and baseline.
    Scalar,
    /// Chunked autovectorization-friendly loops ([`vectorized`]) — default.
    Vectorized,
}

const KERNEL_NONE: u8 = 0;
const KERNEL_SCALAR: u8 = 1;
const KERNEL_VECTORIZED: u8 = 2;

/// Process-wide override installed by [`with_kernel`]. Unlike the
/// thread-local `RED_QAOA_THREADS` override, this is deliberately global:
/// gates execute inside `mathkit::parallel` worker threads, and a scoped
/// kernel choice must reach them.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(KERNEL_NONE);
static KERNEL_FROM_ENV: OnceLock<KernelMode> = OnceLock::new();

/// The kernel backend a statevector operation started *now* would use:
/// the innermost [`with_kernel`] override if one is active, else
/// [`KERNEL_ENV`], else [`KernelMode::Vectorized`].
pub fn current_kernel() -> KernelMode {
    match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        KERNEL_SCALAR => KernelMode::Scalar,
        KERNEL_VECTORIZED => KernelMode::Vectorized,
        _ => *KERNEL_FROM_ENV.get_or_init(|| match std::env::var(KERNEL_ENV) {
            Ok(raw) if raw.trim().eq_ignore_ascii_case("scalar") => KernelMode::Scalar,
            _ => KernelMode::Vectorized,
        }),
    }
}

/// Runs `f` with the kernel backend fixed to `mode`, restoring the previous
/// selection on exit (including panics).
///
/// The override is **process-global** (see `KERNEL_OVERRIDE`'s rationale),
/// so overlapping overrides from concurrent threads resolve
/// last-writer-wins. That can change which backend a concurrent operation
/// runs on, but never any result: the backends are bitwise-identical, which
/// is exactly what the differential suite proves.
pub fn with_kernel<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            KERNEL_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let code = match mode {
        KernelMode::Scalar => KERNEL_SCALAR,
        KernelMode::Vectorized => KERNEL_VECTORIZED,
    };
    let previous = KERNEL_OVERRIDE.swap(code, Ordering::Relaxed);
    let _restore = Restore(previous);
    f()
}

/// A pure quantum state over `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    qubit_count: usize,
    amplitudes: Vec<Complex64>,
}

impl StateVector {
    /// Creates the all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn new(qubit_count: usize) -> Self {
        assert!(
            qubit_count <= MAX_STATEVECTOR_QUBITS,
            "statevector limited to {MAX_STATEVECTOR_QUBITS} qubits"
        );
        let mut amplitudes = vec![Complex64::zero(); 1 << qubit_count];
        amplitudes[0] = Complex64::one();
        Self {
            qubit_count,
            amplitudes,
        }
    }

    /// Creates the uniform superposition `|s⟩ = 2^{-n/2} Σ_z |z⟩`
    /// (the QAOA initial state, Equation 4 of the paper).
    pub fn uniform_superposition(qubit_count: usize) -> Self {
        let mut sv = Self::new(qubit_count);
        let amp = Complex64::new(1.0 / ((1usize << qubit_count) as f64).sqrt(), 0.0);
        sv.amplitudes.fill(amp);
        sv
    }

    /// Runs a circuit from `|0…0⟩` and returns the final state.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut sv = Self::new(circuit.qubit_count());
        sv.apply_circuit(circuit);
        sv
    }

    /// Re-initializes this state to `|0…0⟩` over `qubit_count` qubits,
    /// reusing the existing amplitude allocation (it only grows, never
    /// reallocates once large enough). This is the zero-allocation entry
    /// point used by [`StatevectorWorkspace`] in grid scans. When the
    /// buffer already has the right length the reset is a plain `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn reinitialize_zero(&mut self, qubit_count: usize) {
        self.reinitialize_with(qubit_count, Complex64::zero());
        self.amplitudes[0] = Complex64::one();
    }

    /// Re-initializes this state to the uniform superposition `|s⟩` over
    /// `qubit_count` qubits, reusing the existing amplitude allocation.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn reinitialize_uniform(&mut self, qubit_count: usize) {
        let amp = Complex64::new(1.0 / ((1usize << qubit_count) as f64).sqrt(), 0.0);
        self.reinitialize_with(qubit_count, amp);
    }

    /// Resizes to `2^qubit_count` amplitudes all equal to `value`, without
    /// reallocating when the buffer is already large enough.
    fn reinitialize_with(&mut self, qubit_count: usize, value: Complex64) {
        assert!(
            qubit_count <= MAX_STATEVECTOR_QUBITS,
            "statevector limited to {MAX_STATEVECTOR_QUBITS} qubits"
        );
        self.qubit_count = qubit_count;
        let dim = 1usize << qubit_count;
        if self.amplitudes.len() == dim {
            self.amplitudes.fill(value);
        } else {
            self.amplitudes.clear();
            self.amplitudes.resize(dim, value);
        }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// Borrow of the raw amplitudes (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amplitudes
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.qubit_count() <= self.qubit_count,
            "circuit does not fit in the state"
        );
        for gate in circuit.gates() {
            self.apply_gate(*gate);
        }
    }

    /// Applies a single gate.
    ///
    /// # Panics
    ///
    /// Panics if a gate operand is out of range.
    pub fn apply_gate(&mut self, gate: Gate) {
        match gate {
            Gate::H(q) => self.apply_single(
                q,
                [
                    [
                        Complex64::new(FRAC_1_SQRT_2, 0.0),
                        Complex64::new(FRAC_1_SQRT_2, 0.0),
                    ],
                    [
                        Complex64::new(FRAC_1_SQRT_2, 0.0),
                        Complex64::new(-FRAC_1_SQRT_2, 0.0),
                    ],
                ],
            ),
            Gate::X(q) => self.apply_single(
                q,
                [
                    [Complex64::zero(), Complex64::one()],
                    [Complex64::one(), Complex64::zero()],
                ],
            ),
            Gate::Y(q) => self.apply_single(
                q,
                [
                    [Complex64::zero(), Complex64::new(0.0, -1.0)],
                    [Complex64::new(0.0, 1.0), Complex64::zero()],
                ],
            ),
            Gate::Z(q) => self.apply_single(
                q,
                [
                    [Complex64::one(), Complex64::zero()],
                    [Complex64::zero(), Complex64::new(-1.0, 0.0)],
                ],
            ),
            Gate::S(q) => self.apply_single(
                q,
                [
                    [Complex64::one(), Complex64::zero()],
                    [Complex64::zero(), Complex64::i()],
                ],
            ),
            Gate::Sdg(q) => self.apply_single(
                q,
                [
                    [Complex64::one(), Complex64::zero()],
                    [Complex64::zero(), Complex64::new(0.0, -1.0)],
                ],
            ),
            Gate::T(q) => self.apply_single(
                q,
                [
                    [Complex64::one(), Complex64::zero()],
                    [
                        Complex64::zero(),
                        Complex64::cis(std::f64::consts::FRAC_PI_4),
                    ],
                ],
            ),
            Gate::Rx(q, theta) => {
                let c = Complex64::new((theta / 2.0).cos(), 0.0);
                let s = Complex64::new(0.0, -(theta / 2.0).sin());
                self.apply_single(q, [[c, s], [s, c]]);
            }
            Gate::Ry(q, theta) => {
                let c = Complex64::new((theta / 2.0).cos(), 0.0);
                let s = Complex64::new((theta / 2.0).sin(), 0.0);
                self.apply_single(q, [[c, -s], [s, c]]);
            }
            Gate::Rz(q, theta) => {
                let e_neg = Complex64::cis(-theta / 2.0);
                let e_pos = Complex64::cis(theta / 2.0);
                self.apply_single(q, [[e_neg, Complex64::zero()], [Complex64::zero(), e_pos]]);
            }
            Gate::Cnot(control, target) => self.apply_cnot(control, target),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Rzz(a, b, theta) => self.apply_rzz(a, b, theta),
        }
    }

    /// Applies an arbitrary single-qubit unitary `[[u00, u01], [u10, u11]]`
    /// to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn apply_single(&mut self, target: usize, u: [[Complex64; 2]; 2]) {
        assert!(target < self.qubit_count, "qubit {target} out of range");
        match current_kernel() {
            KernelMode::Scalar => reference::apply_single(&mut self.amplitudes, target, u),
            KernelMode::Vectorized => vectorized::apply_single(&mut self.amplitudes, target, u),
        }
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.qubit_count && target < self.qubit_count);
        assert_ne!(control, target, "control and target must differ");
        match current_kernel() {
            KernelMode::Scalar => reference::apply_cnot(&mut self.amplitudes, control, target),
            KernelMode::Vectorized => vectorized::apply_cnot(&mut self.amplitudes, control, target),
        }
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.qubit_count && b < self.qubit_count);
        assert_ne!(a, b);
        match current_kernel() {
            KernelMode::Scalar => reference::apply_cz(&mut self.amplitudes, a, b),
            KernelMode::Vectorized => vectorized::apply_cz(&mut self.amplitudes, a, b),
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.qubit_count && b < self.qubit_count);
        assert_ne!(a, b);
        match current_kernel() {
            KernelMode::Scalar => reference::apply_swap(&mut self.amplitudes, a, b),
            KernelMode::Vectorized => vectorized::apply_swap(&mut self.amplitudes, a, b),
        }
    }

    fn apply_rzz(&mut self, a: usize, b: usize, theta: f64) {
        assert!(a < self.qubit_count && b < self.qubit_count);
        assert_ne!(a, b);
        match current_kernel() {
            KernelMode::Scalar => reference::apply_rzz(&mut self.amplitudes, a, b, theta),
            KernelMode::Vectorized => vectorized::apply_rzz(&mut self.amplitudes, a, b, theta),
        }
    }

    /// Multiplies every amplitude of basis state `z` by `phases[z]`.
    ///
    /// This lets callers implement diagonal unitaries (such as the QAOA cost
    /// layer) in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `phases.len()` does not equal `2^n`.
    pub fn apply_diagonal(&mut self, phases: &[Complex64]) {
        assert_eq!(
            phases.len(),
            self.amplitudes.len(),
            "diagonal length must equal the state dimension"
        );
        match current_kernel() {
            KernelMode::Scalar => reference::apply_diagonal(&mut self.amplitudes, phases),
            KernelMode::Vectorized => vectorized::apply_diagonal(&mut self.amplitudes, phases),
        }
    }

    /// Applies `|z⟩ ↦ e^{i·scale·levels[z]} |z⟩` for integer levels
    /// `0..=max_level`, computing one `Complex64::cis(scale · k)` per level
    /// `k` instead of one per basis state.
    ///
    /// This is the QAOA cost layer: with `scale = -γ` and `levels` the cut
    /// value of each basis state it applies `e^{-iγ H_C}`. The result has
    /// the same bits as [`StateVector::apply_diagonal`] with the table
    /// `cis(scale · levels[z])`.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` does not equal `2^n`, or (scalar kernel) if a
    /// level exceeds `max_level`.
    pub fn apply_phase_levels(&mut self, levels: &[u8], max_level: u8, scale: f64) {
        assert_eq!(
            levels.len(),
            self.amplitudes.len(),
            "level table length must equal the state dimension"
        );
        debug_assert!(levels.iter().all(|&l| l <= max_level));
        match current_kernel() {
            KernelMode::Scalar => {
                reference::apply_phase_levels(&mut self.amplitudes, levels, max_level, scale)
            }
            KernelMode::Vectorized => {
                vectorized::apply_phase_levels(&mut self.amplitudes, levels, max_level, scale)
            }
        }
    }

    /// Applies `RX(θ)` to every qubit: the QAOA mixer layer `e^{-iβ B}` with
    /// `θ = 2β`.
    ///
    /// Runs the RX-only kernel, which skips the products by zero that the
    /// general [`StateVector::apply_single`] butterfly computes. Every
    /// nonzero amplitude component has the same bits as applying
    /// `Gate::Rx(q, θ)` qubit by qubit; only the sign of an exact zero can
    /// differ, so every probability, norm and expectation is bit-identical.
    pub fn apply_rx_mixer(&mut self, theta: f64) {
        match current_kernel() {
            KernelMode::Scalar => reference::apply_rx_mixer(&mut self.amplitudes, theta),
            KernelMode::Vectorized => vectorized::apply_rx_mixer(&mut self.amplitudes, theta),
        }
    }

    /// Probability that measuring `qubit` yields `1`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.qubit_count);
        match current_kernel() {
            KernelMode::Scalar => reference::prob_one(&self.amplitudes, qubit),
            KernelMode::Vectorized => vectorized::prob_one(&self.amplitudes, qubit),
        }
    }

    /// Rescales the state to unit norm. Used by the quantum-jump (trajectory)
    /// noise simulation after applying non-unitary Kraus operators. A state
    /// with (numerically) zero norm is reset to `|0…0⟩`.
    pub fn renormalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        if norm < 1e-300 {
            self.amplitudes.fill(Complex64::zero());
            self.amplitudes[0] = Complex64::one();
            return;
        }
        for a in self.amplitudes.iter_mut() {
            *a = *a / norm;
        }
    }

    /// Probability of measuring each basis state.
    ///
    /// Allocates the result vector; hot loops should reuse a buffer through
    /// [`StateVector::probabilities_into`] (or a
    /// [`StatevectorWorkspace`], whose
    /// [`state_probabilities`](StatevectorWorkspace::state_probabilities)
    /// owns one).
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Computes the measurement distribution into `out`, reusing its
    /// allocation (after the first call of a given size, no allocation
    /// happens).
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.amplitudes.iter().map(|a| a.norm_sqr()));
    }

    /// Sum of `|amplitude|^2` (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        match current_kernel() {
            KernelMode::Scalar => reference::norm_sqr(&self.amplitudes),
            KernelMode::Vectorized => vectorized::norm_sqr(&self.amplitudes),
        }
    }

    /// Expectation value of the Pauli-Z operator on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn expectation_z(&self, qubit: usize) -> f64 {
        assert!(qubit < self.qubit_count);
        match current_kernel() {
            KernelMode::Scalar => reference::expectation_z(&self.amplitudes, qubit),
            KernelMode::Vectorized => vectorized::expectation_z(&self.amplitudes, qubit),
        }
    }

    /// Expectation value of `Z_a Z_b`.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    pub fn expectation_zz(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.qubit_count && b < self.qubit_count);
        match current_kernel() {
            KernelMode::Scalar => reference::expectation_zz(&self.amplitudes, a, b),
            KernelMode::Vectorized => vectorized::expectation_zz(&self.amplitudes, a, b),
        }
    }

    /// Expectation value of an arbitrary diagonal observable given its value
    /// on every basis state.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not equal `2^n`.
    pub fn expectation_diagonal(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.amplitudes.len());
        match current_kernel() {
            KernelMode::Scalar => reference::expectation_diagonal(&self.amplitudes, values),
            KernelMode::Vectorized => vectorized::expectation_diagonal(&self.amplitudes, values),
        }
    }

    /// Samples `shots` measurement outcomes in the computational basis and
    /// returns per-basis-state counts.
    ///
    /// Builds fresh buffers per call; repeated sampling should reuse a
    /// [`SampleScratch`] through [`StateVector::sample_counts_with`].
    pub fn sample_counts<R: Rng>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        let mut scratch = SampleScratch::default();
        self.sample_counts_with(shots, rng, &mut scratch);
        scratch.counts
    }

    /// Samples `shots` measurement outcomes into the reused buffers of
    /// `scratch` and returns the per-basis-state counts. After the first
    /// call of a given size no allocation happens.
    pub fn sample_counts_with<'s, R: Rng>(
        &self,
        shots: usize,
        rng: &mut R,
        scratch: &'s mut SampleScratch,
    ) -> &'s [usize] {
        self.probabilities_into(&mut scratch.probabilities);
        sample_counts_from_probabilities_into(
            &scratch.probabilities,
            shots,
            rng,
            &mut scratch.cdf,
            &mut scratch.counts,
        );
        &scratch.counts
    }
}

/// Reusable buffers (probabilities, CDF, counts) for repeated measurement
/// sampling — see [`StateVector::sample_counts_with`].
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    probabilities: Vec<f64>,
    cdf: Vec<f64>,
    counts: Vec<usize>,
}

/// Draws `shots` inverse-transform samples from a probability vector and
/// returns per-outcome counts.
///
/// The prefix-sum CDF is built once and each shot is placed with a binary
/// search (`O(shots · log dim)` instead of the linear scan's
/// `O(shots · dim)`), which matters for the `2^n`-entry distributions the
/// simulators produce. Shared by [`StateVector::sample_counts`] and the
/// noisy trajectory sampler. Allocates the CDF and count buffers; repeated
/// sampling should reuse them through
/// [`sample_counts_from_probabilities_into`].
///
/// # Panics
///
/// Panics if `probabilities` is empty.
pub fn sample_counts_from_probabilities<R: Rng>(
    probabilities: &[f64],
    shots: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut cdf = Vec::new();
    let mut counts = Vec::new();
    sample_counts_from_probabilities_into(probabilities, shots, rng, &mut cdf, &mut counts);
    counts
}

/// Buffer-reusing core of [`sample_counts_from_probabilities`]: builds the
/// CDF in `cdf` and the per-outcome counts in `counts`, reusing both
/// allocations across calls.
///
/// # Panics
///
/// Panics if `probabilities` is empty.
pub fn sample_counts_from_probabilities_into<R: Rng>(
    probabilities: &[f64],
    shots: usize,
    rng: &mut R,
    cdf: &mut Vec<f64>,
    counts: &mut Vec<usize>,
) {
    assert!(!probabilities.is_empty(), "empty distribution");
    counts.clear();
    counts.resize(probabilities.len(), 0);
    // Cumulative distribution for inverse-transform sampling.
    cdf.clear();
    let mut acc = 0.0;
    cdf.extend(probabilities.iter().map(|p| {
        acc += p;
        acc
    }));
    let total = acc.max(f64::MIN_POSITIVE);
    for _ in 0..shots {
        let r: f64 = rng.gen::<f64>() * total;
        let idx = match cdf.binary_search_by(|x| x.partial_cmp(&r).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(probabilities.len() - 1),
        };
        counts[idx] += 1;
    }
}

/// Reusable scratch buffers for repeated statevector evaluations.
///
/// Landscape scans evaluate the same circuit family thousands of times; a
/// fresh `2^n` amplitude vector per evaluation is pure allocator traffic. A
/// workspace owns the amplitudes (plus a probability buffer for
/// distribution readouts) and recycles them: after the first evaluation of
/// a given size no further allocation happens. It owns no phase table: the
/// cost layer ([`StateVector::apply_phase_levels`]) keeps its per-level
/// phases on the stack. Buffers only grow, so one workspace can serve subgraphs of
/// mixed sizes (the edge-local light-cone evaluator does this).
///
/// A workspace is intentionally `!Sync`-by-use: each worker thread of a
/// parallel scan creates its own (see `mathkit::parallel`).
#[derive(Debug, Clone)]
pub struct StatevectorWorkspace {
    state: StateVector,
    probabilities: Vec<f64>,
}

impl StatevectorWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            state: StateVector::new(0),
            probabilities: Vec::new(),
        }
    }

    /// Creates a workspace with buffers pre-sized for `qubit_count` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `qubit_count` exceeds [`MAX_STATEVECTOR_QUBITS`].
    pub fn with_qubits(qubit_count: usize) -> Self {
        let mut ws = Self::new();
        ws.begin_zero(qubit_count);
        ws
    }

    /// Resets the working state to `|0…0⟩` over `qubit_count` qubits without
    /// allocating (once the buffers have grown to this size).
    pub fn begin_zero(&mut self, qubit_count: usize) -> &mut StateVector {
        self.state.reinitialize_zero(qubit_count);
        &mut self.state
    }

    /// Resets the working state to the uniform superposition over
    /// `qubit_count` qubits without allocating.
    pub fn begin_uniform(&mut self, qubit_count: usize) -> &mut StateVector {
        self.state.reinitialize_uniform(qubit_count);
        &mut self.state
    }

    /// Computes the working state's measurement distribution into the
    /// workspace's reused probability buffer and returns it (no allocation
    /// after the first call of a given size).
    pub fn state_probabilities(&mut self) -> &[f64] {
        self.state.probabilities_into(&mut self.probabilities);
        &self.probabilities
    }

    /// Borrow of the working state.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// Mutable borrow of the working state (for applying gates).
    pub fn state_mut(&mut self) -> &mut StateVector {
        &mut self.state
    }
}

impl Default for StatevectorWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::rng::seeded;

    const EPS: f64 = 1e-10;

    #[test]
    fn initial_state_is_zero_ket() {
        let sv = StateVector::new(3);
        let probs = sv.probabilities();
        assert!((probs[0] - 1.0).abs() < EPS);
        assert!(probs[1..].iter().all(|&p| p < EPS));
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::H(q)).unwrap();
        }
        let sv = StateVector::from_circuit(&c);
        for p in sv.probabilities() {
            assert!((p - 0.125).abs() < EPS);
        }
        let direct = StateVector::uniform_superposition(3);
        for (a, b) in sv.amplitudes().iter().zip(direct.amplitudes()) {
            assert!((*a - *b).norm() < EPS);
        }
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::Cnot(0, 1)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        assert!((probs[0] - 0.5).abs() < EPS);
        assert!((probs[3] - 0.5).abs() < EPS);
        assert!(probs[1].abs() < EPS && probs[2].abs() < EPS);
        // Z0 Z1 expectation on a Bell state is +1.
        assert!((sv.expectation_zz(0, 1) - 1.0).abs() < EPS);
        assert!(sv.expectation_z(0).abs() < EPS);
    }

    #[test]
    fn x_gate_flips_qubit() {
        let mut c = Circuit::new(2);
        c.push(Gate::X(1)).unwrap();
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probabilities()[2] - 1.0).abs() < EPS);
        assert!((sv.expectation_z(1) + 1.0).abs() < EPS);
        assert!((sv.expectation_z(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn rotations_preserve_norm() {
        let mut sv = StateVector::uniform_superposition(4);
        for (i, gate) in [
            Gate::Rx(0, 0.7),
            Gate::Ry(1, -1.3),
            Gate::Rz(2, 2.1),
            Gate::Rzz(0, 3, 0.9),
            Gate::T(1),
            Gate::S(2),
            Gate::Sdg(3),
            Gate::Y(0),
        ]
        .into_iter()
        .enumerate()
        {
            sv.apply_gate(gate);
            assert!(
                (sv.norm_sqr() - 1.0).abs() < EPS,
                "norm broken after gate {i}"
            );
        }
    }

    #[test]
    fn rx_pi_equals_x_up_to_phase() {
        let mut a = StateVector::new(1);
        a.apply_gate(Gate::Rx(0, std::f64::consts::PI));
        let mut b = StateVector::new(1);
        b.apply_gate(Gate::X(0));
        // Probabilities (phase-insensitive) must match.
        for (pa, pb) in a.probabilities().iter().zip(b.probabilities()) {
            assert!((pa - pb).abs() < EPS);
        }
    }

    #[test]
    fn cz_and_rzz_are_diagonal() {
        let mut sv = StateVector::uniform_superposition(2);
        let before = sv.probabilities();
        sv.apply_gate(Gate::Cz(0, 1));
        sv.apply_gate(Gate::Rzz(0, 1, 0.37));
        assert_eq!(sv.probabilities().len(), before.len());
        for (p, q) in sv.probabilities().iter().zip(before) {
            assert!((p - q).abs() < EPS);
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.extend([Gate::X(0), Gate::Swap(0, 1)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probabilities()[2] - 1.0).abs() < EPS);
    }

    #[test]
    fn rzz_phase_convention() {
        // On |00>, RZZ applies e^{-i theta/2}; probabilities unchanged, and
        // expectation_zz stays +1.
        let mut sv = StateVector::new(2);
        sv.apply_gate(Gate::Rzz(0, 1, 1.234));
        assert!((sv.expectation_zz(0, 1) - 1.0).abs() < EPS);
        let amp = sv.amplitudes()[0];
        assert!((amp.arg() + 1.234 / 2.0).abs() < EPS);
    }

    #[test]
    fn diagonal_application_matches_expectation() {
        let mut sv = StateVector::uniform_superposition(2);
        let values = [0.0, 1.0, 1.0, 2.0];
        assert!((sv.expectation_diagonal(&values) - 1.0).abs() < EPS);
        let phases: Vec<Complex64> = values.iter().map(|&v| Complex64::cis(-0.3 * v)).collect();
        sv.apply_diagonal(&phases);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(1);
        c.push(Gate::H(0)).unwrap();
        let sv = StateVector::from_circuit(&c);
        let mut rng = seeded(17);
        let counts = sv.sample_counts(20_000, &mut rng);
        let frac = counts[0] as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "statevector limited")]
    fn too_many_qubits_panics() {
        let _ = StateVector::new(MAX_STATEVECTOR_QUBITS + 1);
    }

    #[test]
    fn prob_one_matches_expectation_z() {
        let mut sv = StateVector::uniform_superposition(3);
        sv.apply_gate(Gate::Rx(1, 0.9));
        for q in 0..3 {
            let p1 = sv.prob_one(q);
            let z = sv.expectation_z(q);
            assert!((p1 - (1.0 - z) / 2.0).abs() < EPS);
        }
    }

    #[test]
    fn binary_search_sampling_matches_linear_scan_reference() {
        // Regression guard for the CDF binary search: for identical RNG
        // draws it must pick exactly the same outcome as the straightforward
        // linear scan it replaced.
        let mut c = Circuit::new(3);
        c.extend([Gate::H(0), Gate::Ry(1, 0.8), Gate::Cnot(0, 2)])
            .unwrap();
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for p in &probs {
            acc += p;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut linear_counts = vec![0usize; probs.len()];
        let mut rng = seeded(99);
        for _ in 0..4096 {
            let r: f64 = rng.gen::<f64>() * total;
            let idx = cdf
                .iter()
                .position(|&x| x >= r)
                .unwrap_or(probs.len() - 1)
                .min(probs.len() - 1);
            linear_counts[idx] += 1;
        }
        let fast_counts = sv.sample_counts(4096, &mut seeded(99));
        assert_eq!(fast_counts, linear_counts);
    }

    #[test]
    fn fixed_seed_shot_histogram_is_stable() {
        // Snapshot regression: refactors of the sampler must not change the
        // histogram produced by a fixed seed.
        let mut c = Circuit::new(2);
        c.extend([Gate::H(0), Gate::Ry(1, 1.1)]).unwrap();
        let sv = StateVector::from_circuit(&c);
        let counts = sv.sample_counts(1000, &mut seeded(2024));
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert_eq!(counts, SNAPSHOT_COUNTS);
    }

    /// Fixed-seed histogram for `fixed_seed_shot_histogram_is_stable`.
    const SNAPSHOT_COUNTS: [usize; 4] = [364, 352, 127, 157];

    #[test]
    fn scratch_sampling_matches_allocating_sampling() {
        let mut c = Circuit::new(3);
        c.extend([Gate::H(0), Gate::Ry(1, 0.8), Gate::Cnot(0, 2)])
            .unwrap();
        let sv = StateVector::from_circuit(&c);
        let fresh = sv.sample_counts(2048, &mut seeded(7));
        let mut scratch = SampleScratch::default();
        // Two rounds through the same scratch: identical draws, identical
        // counts, no residue from the first round.
        for _ in 0..2 {
            let counts = sv.sample_counts_with(2048, &mut seeded(7), &mut scratch);
            assert_eq!(counts, &fresh[..]);
        }
        // probabilities_into reuses `out` and matches probabilities().
        let mut out = Vec::new();
        sv.probabilities_into(&mut out);
        assert_eq!(out, sv.probabilities());
        sv.probabilities_into(&mut out);
        assert_eq!(out, sv.probabilities());
    }

    #[test]
    fn workspace_reuse_matches_fresh_statevectors() {
        let mut ws = StatevectorWorkspace::new();
        for &n in &[3usize, 2, 4, 3] {
            ws.begin_uniform(n);
            let fresh = StateVector::uniform_superposition(n);
            assert_eq!(ws.state().qubit_count(), n);
            for (a, b) in ws.state().amplitudes().iter().zip(fresh.amplitudes()) {
                assert!((*a - *b).norm() < EPS);
            }
            ws.state_mut().apply_gate(Gate::Rx(0, 0.4));
            let mut fresh = fresh;
            fresh.apply_gate(Gate::Rx(0, 0.4));
            assert_eq!(ws.state().amplitudes(), fresh.amplitudes());
            // The reused probability buffer matches a fresh readout.
            assert_eq!(ws.state_probabilities(), &fresh.probabilities()[..]);
        }
        // begin_zero resets any residue from the previous evaluation.
        ws.begin_zero(2);
        assert!((ws.state().probabilities()[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn workspace_phase_diagonal_matches_explicit_table() {
        let levels = [0u8, 1, 2, 1];
        let mut ws = StatevectorWorkspace::with_qubits(2);
        ws.begin_uniform(2);
        ws.state_mut().apply_phase_levels(&levels, 2, -0.7);
        let mut reference = StateVector::uniform_superposition(2);
        let phases: Vec<Complex64> = levels
            .iter()
            .map(|&l| Complex64::cis(-0.7 * f64::from(l)))
            .collect();
        reference.apply_diagonal(&phases);
        let bits = |sv: &StateVector| -> Vec<(u64, u64)> {
            sv.amplitudes()
                .iter()
                .map(|a| (a.re.to_bits(), a.im.to_bits()))
                .collect()
        };
        assert_eq!(bits(ws.state()), bits(&reference));
        // A second application in the reused workspace gives the same bits.
        ws.begin_uniform(2);
        ws.state_mut().apply_phase_levels(&levels, 2, -0.7);
        assert_eq!(bits(ws.state()), bits(&reference));
    }

    #[test]
    fn reinitialize_reuses_capacity_and_resets_contents() {
        let mut sv = StateVector::uniform_superposition(4);
        sv.apply_gate(Gate::Rx(2, 1.0));
        let capacity_before = sv.amplitudes.capacity();
        sv.reinitialize_zero(4);
        assert_eq!(sv.amplitudes.capacity(), capacity_before);
        assert!((sv.probabilities()[0] - 1.0).abs() < EPS);
        sv.reinitialize_uniform(3);
        assert_eq!(sv.qubit_count(), 3);
        assert_eq!(sv.amplitudes.capacity(), capacity_before);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn renormalize_restores_unit_norm() {
        let mut sv = StateVector::uniform_superposition(2);
        // Apply a non-unitary damping operator K0 = diag(1, sqrt(1-γ)).
        let k0 = [
            [Complex64::one(), Complex64::zero()],
            [Complex64::zero(), Complex64::new(0.6_f64.sqrt(), 0.0)],
        ];
        sv.apply_single(0, k0);
        assert!(sv.norm_sqr() < 1.0);
        sv.renormalize();
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
        // Degenerate zero state resets to |0...0>.
        let mut zero = StateVector::new(2);
        zero.apply_single(
            0,
            [
                [Complex64::zero(), Complex64::zero()],
                [Complex64::zero(), Complex64::zero()],
            ],
        );
        zero.renormalize();
        assert!((zero.probabilities()[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn kernel_override_is_scoped_and_selects_the_backend() {
        // The override nests and restores, and gates really do run on the
        // selected backend (identical bits either way — that is the whole
        // contract, proven at scale by tests/qsim_kernel_equivalence.rs).
        let run = || {
            let mut sv = StateVector::uniform_superposition(4);
            sv.apply_gate(Gate::Ry(1, 0.8));
            sv.apply_gate(Gate::Rzz(0, 3, 0.9));
            sv.apply_gate(Gate::Cnot(2, 0));
            (
                sv.amplitudes().to_vec(),
                sv.expectation_zz(0, 3).to_bits(),
                sv.norm_sqr().to_bits(),
            )
        };
        let scalar = with_kernel(KernelMode::Scalar, || {
            assert_eq!(current_kernel(), KernelMode::Scalar);
            let inner = with_kernel(KernelMode::Vectorized, current_kernel);
            assert_eq!(inner, KernelMode::Vectorized);
            assert_eq!(current_kernel(), KernelMode::Scalar);
            run()
        });
        let vectorized = with_kernel(KernelMode::Vectorized, run);
        assert_eq!(scalar, vectorized);
    }
}
