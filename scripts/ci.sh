#!/usr/bin/env bash
# Full CI gate: lint, format, tests, and a quick audited figure pass.
#
#   scripts/ci.sh
#
# The audit smoke runs every figure harness in quick mode with the
# coherence-invariant oracle enabled (ZERODEV_AUDIT=1, see DESIGN.md
# §6.1): any protocol invariant violation aborts the run, and the printed
# tables must equal crates/bench/tests/all_figures_quick.stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== build + tests =="
cargo build --release
cargo test -q --release --workspace

echo "== benchmark package tests (goldens, fingerprints, compare) =="
# simbench is a package of its own (BENCHMARK.json), so the workspace test
# run above does not reach its golden and fingerprint checks.
cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "== zerodev-lint (determinism / snapshot / message-class graph) =="
# Workspace static analysis (DESIGN.md §12): denies ambient nondeterminism
# in the deterministic crates, checks snapshot field coverage, and verifies
# the MsgClass consumes->emits graph is deadlock-free modulo the audited
# DenfNack retry edge. Fails on any un-waived finding, and when the graph
# differs from the committed crates/lint/tests/msg_classes.dot. Skip with
# ZERODEV_NO_LINT=1 (e.g. when bisecting an unrelated regression).
if [[ "${ZERODEV_NO_LINT:-0}" == "1" ]]; then
    echo "zerodev-lint: skipped (ZERODEV_NO_LINT=1)"
else
    cargo run --release -q -p zerodev-lint -- \
        --root . --json target/lint_report.json --dot target/msg_classes.dot
    diff -u crates/lint/tests/msg_classes.dot target/msg_classes.dot
fi

echo "== audited figure smoke (quick profile, oracle on) =="
# The figure tables on stdout must equal the committed golden byte for
# byte; the oracle and the sweep thread count leave stdout unchanged.
ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    cargo run --release -p zerodev-bench --bin all_figures >target/all_figures_quick.stdout ||
    { cat target/all_figures_quick.stdout; exit 1; }
diff -u crates/bench/tests/all_figures_quick.stdout target/all_figures_quick.stdout

echo "== fault campaign smoke (quick matrix) =="
ZERODEV_QUICK=1 \
    cargo run --release -p zerodev-bench --bin fault_campaign >/dev/null

echo "== checkpoint kill/resume parity (DESIGN.md §9) =="
# A checkpointed-and-resumed run must be byte-identical to an
# uninterrupted one across the directory/torture/fault/socket matrix.
cargo test -q --release -p zerodev-bench --test checkpoint_parity

echo "== torture soak smoke (audited, NACK storms armed) =="
# The bounded campaign: every torture workload x config point must
# complete under the oracle with NACK storms within the retry budget.
soak_dir=$(mktemp -d)
ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    ZERODEV_FAULTS=nack=20000 \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null

echo "== soak quarantine check (injected livelock must be caught) =="
# A NACK storm past the retry budget is a livelock by construction; the
# soak driver must quarantine it (nonzero exit), name the point in the
# report, and leave a checkpoint artifact for post-mortem replay.
if ZERODEV_QUICK=1 \
    ZERODEV_FAULTS=nack=1000000,nack_len=64,retries=8 \
    ZERODEV_SOAK_ONLY='torture.ping_pong@baseline' \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null; then
    echo "soak quarantine check FAILED: injected stall was not quarantined" >&2
    exit 1
fi
grep -q '"outcome": "stalled"' "$soak_dir/soak_report.json"
grep -q 'torture.ping_pong@baseline' "$soak_dir/soak_report.json"
ls "$soak_dir"/torture_ping_pong_baseline_*.ckpt >/dev/null
ls "$soak_dir"/torture_ping_pong_baseline_*.trace >/dev/null
rm -rf "$soak_dir"
echo "soak quarantine check passed"

echo "== model checker (full matrix, exhaustive) =="
# Every machine of the matrix in crates/model/src/main.rs explored to
# exhaustion and clean, and every seeded mutation caught (about 8 s). The
# output must equal the committed golden byte for byte: every machine's
# (states, transitions) and the three printed counterexamples.
cargo run --release -q -p zerodev_model >target/zerodev_model.stdout ||
    { cat target/zerodev_model.stdout; exit 1; }
diff -u crates/model/tests/zerodev_model.stdout target/zerodev_model.stdout

echo "== perf regression gate (simbench vs newest committed BENCH) =="
# Runs the benchmark (BENCHMARK.json, simbench/README.md) at its defaults
# and compares it against the newest committed BENCH_<pr>.json record:
# fails when any point fails its golden checks or any workload's median
# is worse than the record by more than the metric's bound in
# BENCHMARK.json. Skip with ZERODEV_NO_PERF_GATE=1 (e.g. on loaded or
# throttled machines).
if [[ "${ZERODEV_NO_PERF_GATE:-0}" == "1" ]]; then
    echo "perf gate: skipped (ZERODEV_NO_PERF_GATE=1)"
else
    bench_prev=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
    if [[ -z "$bench_prev" ]]; then
        echo "perf gate: no committed BENCH_*.json found; skipping"
    else
        cargo run --release --offline --quiet --manifest-path simbench/Cargo.toml -- \
            --json target/simbench_ci.json
        cargo run --release --offline --quiet --manifest-path simbench/Cargo.toml -- \
            --compare "$bench_prev" target/simbench_ci.json
    fi
fi

echo "CI green."
