//! Scalar reference kernels — the statevector test oracle.
//!
//! Every kernel in this module is the plain per-index scalar loop the
//! simulator shipped with before the chunked
//! [`vectorized`](super::vectorized) module existed. They survive for two
//! reasons:
//!
//! 1. **Oracle** — the differential suite in
//!    `tests/qsim_kernel_equivalence.rs` drives random circuits through both
//!    modules and asserts bitwise-equal amplitudes and reductions after
//!    every gate. A vectorized kernel is only correct if it reproduces this
//!    module exactly.
//! 2. **Baseline** — the `qsim_smoke` benchmark measures the vectorized
//!    speedup against these loops.
//!
//! Selected at runtime with `RED_QAOA_KERNEL=scalar` or scoped via
//! [`with_kernel`](super::with_kernel).
//!
//! # Reduction order
//!
//! The reductions (`expectation_*`, `prob_one`, `norm_sqr`) do **not** sum
//! linearly: they follow the fixed interleaved
//! [`REDUCTION_LANES`]-lane order specified in the
//! [`super`] module docs, which the vectorized module reproduces chunk by
//! chunk. Summation order is part of each kernel's contract — see
//! `docs/determinism.md`.

use super::REDUCTION_LANES;
use mathkit::Complex64;

/// Sums `term(i)` over `0..len` in the fixed lane order shared with the
/// vectorized kernels: lane `j` accumulates indices `j, j + L, j + 2L, …`
/// over the largest prefix that is a multiple of `L = REDUCTION_LANES`,
/// lanes combine pairwise, and tail elements are added sequentially last.
fn lane_sum(len: usize, mut term: impl FnMut(usize) -> f64) -> f64 {
    let main = len - len % REDUCTION_LANES;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let mut base = 0usize;
    while base < main {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += term(base + j);
        }
        base += REDUCTION_LANES;
    }
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in main..len {
        total += term(i);
    }
    total
}

/// Applies a single-qubit unitary `[[u00, u01], [u10, u11]]` to `target` by
/// the textbook strided butterfly with per-index bounds-checked loads.
pub fn apply_single(amplitudes: &mut [Complex64], target: usize, u: [[Complex64; 2]; 2]) {
    let stride = 1usize << target;
    let dim = amplitudes.len();
    let mut base = 0usize;
    while base < dim {
        for offset in base..base + stride {
            let i0 = offset;
            let i1 = offset + stride;
            let a0 = amplitudes[i0];
            let a1 = amplitudes[i1];
            amplitudes[i0] = u[0][0] * a0 + u[0][1] * a1;
            amplitudes[i1] = u[1][0] * a0 + u[1][1] * a1;
        }
        base += stride * 2;
    }
}

/// Applies CNOT by scanning every basis index and testing both bits.
pub fn apply_cnot(amplitudes: &mut [Complex64], control: usize, target: usize) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    for i in 0..amplitudes.len() {
        if i & cbit != 0 && i & tbit == 0 {
            let j = i | tbit;
            amplitudes.swap(i, j);
        }
    }
}

/// Applies CZ by scanning every basis index and testing both bits.
pub fn apply_cz(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    for (i, amp) in amplitudes.iter_mut().enumerate() {
        if i & abit != 0 && i & bbit != 0 {
            *amp = -*amp;
        }
    }
}

/// Applies SWAP by scanning every basis index and testing both bits.
pub fn apply_swap(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    for i in 0..amplitudes.len() {
        if i & abit != 0 && i & bbit == 0 {
            let j = (i & !abit) | bbit;
            amplitudes.swap(i, j);
        }
    }
}

/// Applies `RZZ(θ)` by computing each index's bit parity and multiplying by
/// `e^{∓iθ/2}`.
pub fn apply_rzz(amplitudes: &mut [Complex64], a: usize, b: usize, theta: f64) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let phase_same = Complex64::cis(-theta / 2.0);
    let phase_diff = Complex64::cis(theta / 2.0);
    for (i, amp) in amplitudes.iter_mut().enumerate() {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        *amp *= if parity == 0 { phase_same } else { phase_diff };
    }
}

/// Multiplies amplitude `z` by `phases[z]` (an arbitrary diagonal unitary).
pub fn apply_diagonal(amplitudes: &mut [Complex64], phases: &[Complex64]) {
    for (amp, phase) in amplitudes.iter_mut().zip(phases) {
        *amp *= *phase;
    }
}

/// Applies `RX(θ)` to every qubit in turn (the QAOA mixer layer) by the
/// strided butterfly with only the rotation's real entry `c = cos(θ/2)` and
/// imaginary entry `-i·s`, `s = sin(θ/2)`:
/// `a0' = (c·a0.re + s·a1.im) + i(c·a0.im − s·a1.re)` and the same form for
/// `a1`.
///
/// Drops the products by the matrix's zero parts that [`apply_single`]
/// computes, so every nonzero component has the same bits as
/// `apply_single` with the `Gate::Rx` matrix; only the sign of an exact
/// zero can differ.
pub fn apply_rx_mixer(amplitudes: &mut [Complex64], theta: f64) {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    let dim = amplitudes.len();
    for target in 0..dim.trailing_zeros() {
        let stride = 1usize << target;
        let mut base = 0usize;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                let i1 = offset + stride;
                let a0 = amplitudes[i0];
                let a1 = amplitudes[i1];
                amplitudes[i0] = Complex64::new(c * a0.re + s * a1.im, c * a0.im - s * a1.re);
                amplitudes[i1] = Complex64::new(c * a1.re + s * a0.im, c * a1.im - s * a0.re);
            }
            base += stride * 2;
        }
    }
}

/// Applies the diagonal unitary `|z⟩ ↦ e^{i·scale·levels[z]} |z⟩` for
/// integer levels `0..=max_level`: computes `Complex64::cis(scale · k)` once
/// per level `k`, then multiplies amplitude `z` by the phase of its level.
///
/// # Panics
///
/// Panics if a level exceeds `max_level`.
pub fn apply_phase_levels(amplitudes: &mut [Complex64], levels: &[u8], max_level: u8, scale: f64) {
    let mut phases = [Complex64::zero(); 256];
    for (k, phase) in phases[..=max_level as usize].iter_mut().enumerate() {
        *phase = Complex64::cis(scale * k as f64);
    }
    let phases = &phases[..=max_level as usize];
    for z in 0..amplitudes.len() {
        amplitudes[z] *= phases[levels[z] as usize];
    }
}

/// Probability that measuring `qubit` yields `1` (masked lane-order sum).
pub fn prob_one(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    lane_sum(amplitudes.len(), |i| {
        if i & bit != 0 {
            amplitudes[i].norm_sqr()
        } else {
            0.0
        }
    })
}

/// Sum of `|amplitude|²` in the fixed lane order.
pub fn norm_sqr(amplitudes: &[Complex64]) -> f64 {
    lane_sum(amplitudes.len(), |i| amplitudes[i].norm_sqr())
}

/// Expectation of Pauli-Z on `qubit` (signed lane-order sum).
pub fn expectation_z(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    lane_sum(amplitudes.len(), |i| {
        let sign = if i & bit == 0 { 1.0 } else { -1.0 };
        sign * amplitudes[i].norm_sqr()
    })
}

/// Expectation of `Z_a Z_b` (parity-signed lane-order sum).
pub fn expectation_zz(amplitudes: &[Complex64], a: usize, b: usize) -> f64 {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    lane_sum(amplitudes.len(), |i| {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        let sign = if parity == 0 { 1.0 } else { -1.0 };
        sign * amplitudes[i].norm_sqr()
    })
}

/// Expectation of a diagonal observable given its per-basis-state values
/// (lane-order sum of `|amplitude|² · value`).
pub fn expectation_diagonal(amplitudes: &[Complex64], values: &[f64]) -> f64 {
    lane_sum(amplitudes.len(), |i| amplitudes[i].norm_sqr() * values[i])
}
