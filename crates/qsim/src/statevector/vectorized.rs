//! Chunked, autovectorization-friendly statevector kernels.
//!
//! These kernels compute **bit-for-bit** the same results as the scalar
//! loops in [`reference`](super::reference) — the differential suite in
//! `tests/qsim_kernel_equivalence.rs` proves it on random circuits — while
//! restructuring the work so LLVM's autovectorizer gets contiguous,
//! branch-free inner loops:
//!
//! * **Gates touch only the indices they change.** The scalar CNOT/CZ/SWAP/
//!   RZZ loops scan all `2^n` indices and branch on bit tests per index; the
//!   kernels here decompose the index space into the quadrants selected by
//!   the two operand bits (blocks of `2·max_bit`, sub-runs of the low bit)
//!   and walk each affected run contiguously — a quarter of the memory
//!   traffic and no data-dependent branches.
//! * **Butterflies are slice zips.** `apply_single` splits each `2·stride`
//!   block once (`split_at_mut`) and zips the halves, hoisting all index
//!   math and bounds checks out of the inner loop. The `stride == 1` case
//!   walks adjacent pairs directly.
//! * **Reductions keep the fixed lane order.** Sums run over
//!   `chunks_exact(REDUCTION_LANES)` with one accumulator per lane —
//!   exactly the interleaved order the reference module defines — so the
//!   faster reduction produces the *same bits*, not just the same value
//!   up to rounding.
//!
//! Per-element arithmetic uses the same expression trees as the reference
//! kernels (`u00·a0 + u01·a1`, `re·re + im·im`, …). Rust never contracts
//! `a*b + c` into a fused-multiply-add on its own, so matching the
//! expression shape is sufficient for bitwise identity; see
//! `docs/determinism.md`.

use super::REDUCTION_LANES;
use mathkit::Complex64;

/// Combines the lane accumulators in the fixed pairwise order.
#[inline]
fn combine(l: [f64; REDUCTION_LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `u00·a0 + u01·a1` with the exact expression tree of
/// `Complex64::mul` + `Complex64::add` (no FMA contraction).
#[inline]
fn butterfly_row(u0: Complex64, a0: Complex64, u1: Complex64, a1: Complex64) -> Complex64 {
    Complex64::new(
        (u0.re * a0.re - u0.im * a0.im) + (u1.re * a1.re - u1.im * a1.im),
        (u0.re * a0.im + u0.im * a0.re) + (u1.re * a1.im + u1.im * a1.re),
    )
}

/// Applies a single-qubit unitary `[[u00, u01], [u10, u11]]` to `target`:
/// each `2·stride` block is split once, then the halves are walked with all
/// matrix entries hoisted into locals, so the inner loop is two contiguous
/// streams with no per-iteration index arithmetic. The `stride == 1` case
/// walks adjacent pairs directly — the layout where chunking pays most.
pub fn apply_single(amplitudes: &mut [Complex64], target: usize, u: [[Complex64; 2]; 2]) {
    let stride = 1usize << target;
    let (u00, u01, u10, u11) = (u[0][0], u[0][1], u[1][0], u[1][1]);
    if stride == 1 {
        for pair in amplitudes.chunks_exact_mut(2) {
            let a0 = pair[0];
            let a1 = pair[1];
            pair[0] = butterfly_row(u00, a0, u01, a1);
            pair[1] = butterfly_row(u10, a0, u11, a1);
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for i in 0..stride {
            let a0 = lo[i];
            let a1 = hi[i];
            lo[i] = butterfly_row(u00, a0, u01, a1);
            hi[i] = butterfly_row(u10, a0, u11, a1);
        }
    }
}

/// The `RX` butterfly on one amplitude pair, with `c = cos(θ/2)` and
/// `s = sin(θ/2)`. Each component is one product pair and one add: the
/// rounding steps of [`butterfly_row`] with the `RX` matrix, minus its
/// products by zero.
#[inline]
fn rx_pair(c: f64, s: f64, a0: Complex64, a1: Complex64) -> (Complex64, Complex64) {
    (
        Complex64::new(c * a0.re + s * a1.im, c * a0.im - s * a1.re),
        Complex64::new(c * a1.re + s * a0.im, c * a1.im - s * a0.re),
    )
}

/// `RX` on qubits `q` and `q + 1` of one amplitude quadruple
/// `[x0, x1, x2, x3]` (index bits `q+1, q` = `00, 01, 10, 11`): first
/// qubit `q`, then qubit `q + 1` — the per-element order of two
/// single-qubit passes.
#[inline]
fn rx_quad(c: f64, s: f64, x: [Complex64; 4]) -> [Complex64; 4] {
    let (y0, y1) = rx_pair(c, s, x[0], x[1]);
    let (y2, y3) = rx_pair(c, s, x[2], x[3]);
    let (z0, z2) = rx_pair(c, s, y0, y2);
    let (z1, z3) = rx_pair(c, s, y1, y3);
    [z0, z1, z2, z3]
}

/// Applies `RX(θ)` to every qubit: the QAOA mixer layer. Only the
/// rotation's real entry `c` and imaginary entry `-i·s` enter the
/// butterfly, half the multiplies of [`apply_single`]. Qubits go two per
/// pass (`q`, `q + 1` on each amplitude quadruple), which halves the passes
/// over the state without changing any element's sequence of operations;
/// an odd last qubit gets a pass of its own.
///
/// Every nonzero component has the bits of `apply_single` with the
/// `Gate::Rx` matrix, qubit by qubit; only the sign of an exact zero can
/// differ.
pub fn apply_rx_mixer(amplitudes: &mut [Complex64], theta: f64) {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    let qubits = amplitudes.len().trailing_zeros() as usize;
    let mut q = 0;
    while q + 1 < qubits {
        let stride = 1usize << q;
        if stride == 1 {
            for quad in amplitudes.chunks_exact_mut(4) {
                let out = rx_quad(c, s, [quad[0], quad[1], quad[2], quad[3]]);
                quad.copy_from_slice(&out);
            }
        } else {
            for block in amplitudes.chunks_exact_mut(4 * stride) {
                let (low, high) = block.split_at_mut(2 * stride);
                let (r0, r1) = low.split_at_mut(stride);
                let (r2, r3) = high.split_at_mut(stride);
                for (((x0, x1), x2), x3) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
                    [*x0, *x1, *x2, *x3] = rx_quad(c, s, [*x0, *x1, *x2, *x3]);
                }
            }
        }
        q += 2;
    }
    if q < qubits {
        let stride = 1usize << q;
        for block in amplitudes.chunks_exact_mut(2 * stride) {
            let (lo, hi) = block.split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi) {
                (*a0, *a1) = rx_pair(c, s, *a0, *a1);
            }
        }
    }
}

/// Applies `RX(θ)` to the top qubit of a state with `amp[!z] == amp[z]`
/// (every bit flipped), given as its lower half `amplitudes`: the first
/// half of the slice zipped with the second half walked backwards, so `k`
/// meets `len − 1 − k`, the amplitude its top-qubit partner `k + len`
/// shares. Same pairs and operand order as the scalar kernel.
pub fn apply_rx_reflected(amplitudes: &mut [Complex64], theta: f64) {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    let (lo, hi) = amplitudes.split_at_mut(amplitudes.len() / 2);
    for (a0, a1) in lo.iter_mut().zip(hi.iter_mut().rev()) {
        (*a0, *a1) = rx_pair(c, s, *a0, *a1);
    }
}

/// Applies CNOT by swapping the two `control = 1` quadrants run by run
/// (touching `2^{n-2}` index pairs, with no per-index bit tests).
pub fn apply_cnot(amplitudes: &mut [Complex64], control: usize, target: usize) {
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    if target < control {
        // Within each upper (control = 1) half, swap the target sub-halves.
        // When the target is bit 0 the sub-halves are adjacent elements, so
        // swap them as pairs instead of degenerate one-element runs.
        if tbit == 1 {
            for block in amplitudes.chunks_exact_mut(2 * cbit) {
                let (_, upper) = block.split_at_mut(cbit);
                for pair in upper.chunks_exact_mut(2) {
                    pair.swap(0, 1);
                }
            }
            return;
        }
        for block in amplitudes.chunks_exact_mut(2 * cbit) {
            let (_, upper) = block.split_at_mut(cbit);
            for sub in upper.chunks_exact_mut(2 * tbit) {
                let (t0, t1) = sub.split_at_mut(tbit);
                t0.swap_with_slice(t1);
            }
        }
    } else {
        // Swap the control = 1 runs of the target = 0 half with the
        // corresponding runs of the target = 1 half.
        for block in amplitudes.chunks_exact_mut(2 * tbit) {
            let (lo, hi) = block.split_at_mut(tbit);
            for (lsub, hsub) in lo
                .chunks_exact_mut(2 * cbit)
                .zip(hi.chunks_exact_mut(2 * cbit))
            {
                let (_, l1) = lsub.split_at_mut(cbit);
                let (_, h1) = hsub.split_at_mut(cbit);
                l1.swap_with_slice(h1);
            }
        }
    }
}

/// Applies CZ by negating the `a = b = 1` quadrant as contiguous runs.
pub fn apply_cz(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    if small == 1 {
        // Low bit is bit 0: negate the odd elements of each upper half.
        for block in amplitudes.chunks_exact_mut(2 * big) {
            let (_, upper) = block.split_at_mut(big);
            for pair in upper.chunks_exact_mut(2) {
                pair[1] = -pair[1];
            }
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * big) {
        let (_, upper) = block.split_at_mut(big);
        for sub in upper.chunks_exact_mut(2 * small) {
            for amp in &mut sub[small..] {
                *amp = -*amp;
            }
        }
    }
}

/// Applies SWAP by exchanging the `(1, 0)` and `(0, 1)` quadrants run by
/// run. The pairing is symmetric in the operands, so `a`/`b` order is
/// irrelevant.
pub fn apply_swap(amplitudes: &mut [Complex64], a: usize, b: usize) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    if small == 1 {
        // Low bit is bit 0: odd elements of the `big = 0` half exchange with
        // even elements of the `big = 1` half, pair by adjacent pair.
        for block in amplitudes.chunks_exact_mut(2 * big) {
            let (lo, hi) = block.split_at_mut(big);
            for (lpair, hpair) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
                std::mem::swap(&mut lpair[1], &mut hpair[0]);
            }
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * big) {
        let (lo, hi) = block.split_at_mut(big);
        for (lsub, hsub) in lo
            .chunks_exact_mut(2 * small)
            .zip(hi.chunks_exact_mut(2 * small))
        {
            // `small = 1` runs of the `big = 0` half ↔ `small = 0` runs of
            // the `big = 1` half.
            let (_, l1) = lsub.split_at_mut(small);
            let (h0, _) = hsub.split_at_mut(small);
            l1.swap_with_slice(h0);
        }
    }
}

/// Multiplies a contiguous run by one fixed phase.
#[inline]
fn scale_run(run: &mut [Complex64], phase: Complex64) {
    for amp in run {
        *amp *= phase;
    }
}

/// Applies `RZZ(θ)`: each bit-pair quadrant is a set of contiguous runs
/// multiplied by one precomputed phase (`e^{-iθ/2}` for equal bits,
/// `e^{+iθ/2}` for unequal), with the parity branch hoisted out of the
/// amplitude loop entirely.
pub fn apply_rzz(amplitudes: &mut [Complex64], a: usize, b: usize, theta: f64) {
    let big = 1usize << a.max(b);
    let small = 1usize << a.min(b);
    let phase_same = Complex64::cis(-theta / 2.0);
    let phase_diff = Complex64::cis(theta / 2.0);
    if small == 1 {
        // Low bit is bit 0: phases alternate element-by-element, so walk
        // adjacent pairs with both phases hoisted instead of degenerate
        // one-element runs.
        for block in amplitudes.chunks_exact_mut(2 * big) {
            let (lo, hi) = block.split_at_mut(big);
            for pair in lo.chunks_exact_mut(2) {
                pair[0] *= phase_same;
                pair[1] *= phase_diff;
            }
            for pair in hi.chunks_exact_mut(2) {
                pair[0] *= phase_diff;
                pair[1] *= phase_same;
            }
        }
        return;
    }
    for block in amplitudes.chunks_exact_mut(2 * big) {
        let (lo, hi) = block.split_at_mut(big);
        for sub in lo.chunks_exact_mut(2 * small) {
            let (s0, s1) = sub.split_at_mut(small);
            scale_run(s0, phase_same); // big = 0, small = 0 → parity 0
            scale_run(s1, phase_diff); // big = 0, small = 1 → parity 1
        }
        for sub in hi.chunks_exact_mut(2 * small) {
            let (s0, s1) = sub.split_at_mut(small);
            scale_run(s0, phase_diff); // big = 1, small = 0 → parity 1
            scale_run(s1, phase_same); // big = 1, small = 1 → parity 0
        }
    }
}

/// Multiplies amplitude `z` by `phases[z]` — a single contiguous zip.
pub fn apply_diagonal(amplitudes: &mut [Complex64], phases: &[Complex64]) {
    for (amp, phase) in amplitudes.iter_mut().zip(phases) {
        *amp *= *phase;
    }
}

/// Applies `|z⟩ ↦ e^{i·scale·levels[z]} |z⟩` for integer levels
/// `0..=max_level`: one `Complex64::cis(scale · k)` per level `k` into a
/// 256-entry table (a `u8` level indexes it without a bounds check), then
/// one contiguous zip of amplitudes and levels. The phases and the multiply
/// are those of [`apply_diagonal`] over the per-state `cis` table, so the
/// bits are the same.
///
/// Levels above `max_level` read an unset (zero) phase; callers keep every
/// level within `max_level`.
pub fn apply_phase_levels(amplitudes: &mut [Complex64], levels: &[u8], max_level: u8, scale: f64) {
    let mut phases = [Complex64::zero(); 256];
    for (k, phase) in phases[..=max_level as usize].iter_mut().enumerate() {
        *phase = Complex64::cis(scale * k as f64);
    }
    for (amp, &level) in amplitudes.iter_mut().zip(levels) {
        *amp *= phases[level as usize];
    }
}

/// Probability that measuring `qubit` yields `1` — masked chunked sum in
/// the fixed lane order.
pub fn prob_one(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    let main = amplitudes.len() - tail.len();
    for (c, chunk) in chunks.enumerate() {
        let base = c * REDUCTION_LANES;
        for (j, (lane, a)) in lanes.iter_mut().zip(chunk).enumerate() {
            *lane += if (base + j) & bit != 0 {
                a.norm_sqr()
            } else {
                0.0
            };
        }
    }
    let mut total = combine(lanes);
    for (j, a) in tail.iter().enumerate() {
        total += if (main + j) & bit != 0 {
            a.norm_sqr()
        } else {
            0.0
        };
    }
    total
}

/// Sum of `|amplitude|²` — chunked sum in the fixed lane order.
pub fn norm_sqr(amplitudes: &[Complex64]) -> f64 {
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, a) in lanes.iter_mut().zip(chunk) {
            *lane += a.norm_sqr();
        }
    }
    let mut total = combine(lanes);
    for a in tail {
        total += a.norm_sqr();
    }
    total
}

/// Expectation of Pauli-Z on `qubit` — signed chunked sum in the fixed lane
/// order.
pub fn expectation_z(amplitudes: &[Complex64], qubit: usize) -> f64 {
    let bit = 1usize << qubit;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    let main = amplitudes.len() - tail.len();
    for (c, chunk) in chunks.enumerate() {
        let base = c * REDUCTION_LANES;
        for (j, (lane, a)) in lanes.iter_mut().zip(chunk).enumerate() {
            let sign = if (base + j) & bit == 0 { 1.0 } else { -1.0 };
            *lane += sign * a.norm_sqr();
        }
    }
    let mut total = combine(lanes);
    for (j, a) in tail.iter().enumerate() {
        let sign = if (main + j) & bit == 0 { 1.0 } else { -1.0 };
        total += sign * a.norm_sqr();
    }
    total
}

/// Expectation of `Z_a Z_b` — parity-signed chunked sum in the fixed lane
/// order.
pub fn expectation_zz(amplitudes: &[Complex64], a: usize, b: usize) -> f64 {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let chunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let tail = chunks.remainder();
    let main = amplitudes.len() - tail.len();
    let sign_of = |i: usize, amp: &Complex64| {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        let sign = if parity == 0 { 1.0 } else { -1.0 };
        sign * amp.norm_sqr()
    };
    for (c, chunk) in chunks.enumerate() {
        let base = c * REDUCTION_LANES;
        for (j, (lane, amp)) in lanes.iter_mut().zip(chunk).enumerate() {
            *lane += sign_of(base + j, amp);
        }
    }
    let mut total = combine(lanes);
    for (j, amp) in tail.iter().enumerate() {
        total += sign_of(main + j, amp);
    }
    total
}

/// Expectation of a diagonal observable — chunked zip sum in the fixed lane
/// order.
pub fn expectation_diagonal(amplitudes: &[Complex64], values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let achunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let vchunks = values.chunks_exact(REDUCTION_LANES);
    let atail = achunks.remainder();
    let vtail = vchunks.remainder();
    for (ac, vc) in achunks.zip(vchunks) {
        for ((lane, a), v) in lanes.iter_mut().zip(ac).zip(vc) {
            *lane += a.norm_sqr() * v;
        }
    }
    let mut total = combine(lanes);
    for (a, v) in atail.iter().zip(vtail) {
        total += a.norm_sqr() * v;
    }
    total
}

/// Expectation of a diagonal observable given as `u8` levels — the chunked
/// sum of [`expectation_diagonal`] with `f64::from(level)` as each value
/// (exact for every `u8`, so the bits are those of the `f64` table).
pub fn expectation_levels(amplitudes: &[Complex64], levels: &[u8]) -> f64 {
    let mut lanes = [0.0f64; REDUCTION_LANES];
    let achunks = amplitudes.chunks_exact(REDUCTION_LANES);
    let lchunks = levels.chunks_exact(REDUCTION_LANES);
    let atail = achunks.remainder();
    let ltail = lchunks.remainder();
    for (ac, lc) in achunks.zip(lchunks) {
        for ((lane, a), &level) in lanes.iter_mut().zip(ac).zip(lc) {
            *lane += a.norm_sqr() * f64::from(level);
        }
    }
    let mut total = combine(lanes);
    for (a, &level) in atail.iter().zip(ltail) {
        total += a.norm_sqr() * f64::from(level);
    }
    total
}
