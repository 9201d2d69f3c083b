#!/usr/bin/env bash
# Local CI for the Red-QAOA reproduction workspace.
#
# Gates, in order:
#   1. cargo fmt --check      — formatting (rustfmt.toml pins the style)
#   2. cargo clippy -D warnings — lints; the only allowed-by-policy lint is
#      clippy::needless_range_loop, granted workspace-wide in Cargo.toml
#      ([workspace.lints.clippy]) because index loops are the clearest form
#      for the dense-matrix and qubit kernels.
#   2b. cargo doc (warnings denied) — every crate carries
#      #![deny(missing_docs)], so missing rustdoc already fails the build;
#      this gate additionally fails on rustdoc-only rot (broken intra-doc
#      links, malformed doc fragments) that rustc cannot see.
#   3. tier-1 verify          — cargo build --release && cargo test -q,
#      run twice: once with RED_QAOA_THREADS=1 (forced-serial paths) and
#      once with the variable unset (parallel paths, default thread count).
#      The determinism contract says both must pass with identical
#      semantics; the property tests in tests/parallel_determinism.rs
#      additionally check bitwise equality across thread counts.
#   3b. workspace tests       — cargo test --workspace -q in the same two
#      thread modes. Tier-1's root `cargo test -q` runs only the umbrella
#      package's integration tests; this runs every crate's unit tests and
#      doctests too.
#   3c. benchmark checks      — each perfbench workload (session, corpus,
#      noisy, cone) runs once traced (--seconds 1 --trace 1, seed 1) and
#      must report `correct: true` with `failed: 0`. This runs the
#      benchmark's output checks: the cone_golden.txt energies, the
#      cross-check against edge_local_expectation, and the bitwise replay
#      of every traced request.
#   4. perf smoke             — the bench/ landscape smoke emits
#      BENCH_landscape.json (points/sec for a 32×32 grid on a 16-node
#      graph, 4-thread speedup gated at >= 2x when cores > 1), the
#      reduction smoke emits BENCH_reduction.json (SA moves/sec,
#      incremental-vs-rebuild move evaluation, reduce_pool graphs/sec),
#      the engine smoke emits BENCH_engine.json (batch jobs/sec cold vs
#      warm reduction cache), the optimize smoke emits BENCH_optimize.json
#      (end-to-end session latency, reduced-vs-baseline ratio gated at
#      >= 0.95, full-graph-equivalent cost ratio, evaluations-to-target),
#      the qsim smoke emits BENCH_qsim.json (gate-ops/sec scalar vs
#      vectorized kernels for 8-20 qubits, bitwise cross-checked, 16-qubit
#      speedup gated at >= 1.5x, per-core landscape scaling gated at >= 2x
#      when cores > 1), and the depth smoke emits BENCH_depth.json
#      (interaction-scheduler rounds gated at <= d+1 for d-regular graphs,
#      two-qubit depth reduction vs naive emission gated at >= 2x, and the
#      compound node+depth noisy MSE gated at <= the node-only MSE) so the
#      perf trajectory is recorded run-over-run.
#   5. bench targets resolve  — cargo bench --no-run
#   6. figure binaries        — every fig*/table* binary answers --help,
#      and a fast subset's --json output must parse as JSON (jq)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --quiet --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1 (serial: RED_QAOA_THREADS=1): cargo build --release && cargo test -q"
cargo build --release
RED_QAOA_THREADS=1 cargo test -q

echo "==> tier-1 (parallel: RED_QAOA_THREADS unset): cargo test -q"
env -u RED_QAOA_THREADS cargo test -q

echo "==> workspace tests (serial: RED_QAOA_THREADS=1): cargo test --workspace -q"
RED_QAOA_THREADS=1 cargo test --workspace -q

echo "==> workspace tests (parallel: RED_QAOA_THREADS unset): cargo test --workspace -q"
env -u RED_QAOA_THREADS cargo test --workspace -q

echo "==> benchmark checks: one traced perfbench run per workload"
for workload in session corpus noisy cone; do
    result=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    echo "$result" | jq -e '.correct == true and .failed == 0' >/dev/null \
        || { echo "FAIL: perfbench $workload: $result"; exit 1; }
done

echo "==> perf smoke: landscape grid points/sec -> BENCH_landscape.json"
cargo run --quiet --release -p bench --bin landscape_smoke BENCH_landscape.json

echo "==> perf smoke: reduction moves/sec + graphs/sec -> BENCH_reduction.json"
cargo run --quiet --release -p bench --bin reduction_smoke BENCH_reduction.json

echo "==> perf smoke: engine batch cold vs warm cache -> BENCH_engine.json"
cargo run --quiet --release -p bench --bin engine_smoke BENCH_engine.json

echo "==> perf smoke: end-to-end optimization sessions -> BENCH_optimize.json"
cargo run --quiet --release -p bench --bin optimize_smoke BENCH_optimize.json

echo "==> perf smoke: statevector kernels scalar vs vectorized -> BENCH_qsim.json"
cargo run --quiet --release -p bench --bin qsim_smoke BENCH_qsim.json

echo "==> perf smoke: depth scheduling rounds + compound MSE -> BENCH_depth.json"
cargo run --quiet --release -p bench --bin depth_smoke BENCH_depth.json

echo "==> benches compile: cargo bench --no-run"
cargo bench --no-run --quiet

echo "==> figure binaries answer --help"
cargo build --release -p experiments --bins --quiet
for bin in target/release/fig* target/release/table1_datasets; do
    [ -x "$bin" ] || continue
    "$bin" --help >/dev/null
done

echo "==> --json output parses (fast subset)"
for bin in fig03_cycle_landscapes fig06_mse_threshold table1_datasets; do
    "target/release/$bin" --json | jq -es 'length > 0' >/dev/null \
        || { echo "FAIL: $bin --json is not parseable JSON"; exit 1; }
done

echo "CI OK"
