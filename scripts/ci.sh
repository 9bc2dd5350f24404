#!/usr/bin/env bash
# Full CI gate: lint, format, tests, a quick audited figure pass and the
# full-length figure reproduction.
#
#   scripts/ci.sh
#
# The audit smoke runs every figure harness in quick mode with the
# coherence-invariant oracle enabled (ZERODEV_AUDIT=1, see DESIGN.md
# §6.1): any protocol invariant violation aborts the run, and the printed
# tables must equal crates/bench/tests/all_figures_quick.stdout. The
# full-length run's tables must equal
# crates/bench/tests/all_figures_full.stdout.
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
# the MsgClass consumes->emits graph is deadlock-free (vnet-monotone, with
# no audited descent). Fails on any un-waived finding, and when the graph
# differs from the committed crates/lint/tests/msg_classes.dot. Skip with
# ZERODEV_NO_LINT=1 (e.g. when bisecting an unrelated regression).
if [[ "${ZERODEV_NO_LINT:-0}" == "1" ]]; then
    echo "zerodev-lint: skipped (ZERODEV_NO_LINT=1)"
else
    cargo run --release -q -p zerodev-lint -- \
        --root . --json target/lint_report.json --dot target/msg_classes.dot
    diff -u crates/lint/tests/msg_classes.dot target/msg_classes.dot
fi

# figures_golden NAME GOLDEN RUNS HITS [env args...]: runs all_figures
# under `env [env args...]`, requires its stdout (the figure tables) to
# equal GOLDEN byte for byte, and checks the work behind those tables:
# simulations executed and baseline-cache hits in the run's stderr
# summary. A harness that ran extra or different simulations could still
# print the same tables; these counts catch it. They are the same at every
# ZERODEV_THREADS, audited or not, because each memo key has one cache
# entry and the first worker to claim it runs it. A change that adds,
# drops or reshapes a sweep updates them here.
figures_golden() {
    local name=$1 golden=$2 runs=$3 hits=$4
    shift 4
    env "$@" cargo run --release -p zerodev-bench --bin all_figures \
        >"target/$name.stdout" 2>"target/$name.stderr" ||
        { cat "target/$name.stdout" "target/$name.stderr"; exit 1; }
    diff -u "$golden" "target/$name.stdout"
    local summary
    summary=$(grep '^sweep engine:' "target/$name.stderr" || true)
    if [[ $summary != *"; $runs simulations executed, $hits baseline-cache hits" ]]; then
        echo "sweep-count check FAILED ($name): expected $runs simulations executed" \
            "and $hits baseline-cache hits; got: $summary" >&2
        exit 1
    fi
    echo "sweep counts ($name): $runs simulations executed, $hits baseline-cache hits"
}

echo "== audited figure smoke (quick profile, oracle on) =="
# The oracle and the sweep thread count leave stdout unchanged.
figures_golden all_figures_quick crates/bench/tests/all_figures_quick.stdout 2313 1157 \
    ZERODEV_QUICK=1 ZERODEV_AUDIT=1

echo "== full-length figure reproduction (unaudited, about 11 min on 2 CPUs) =="
# The run length the paper's numbers come from (100k refs/core). The quick
# golden alone misses moves the short runs do not show: most of its cells
# read exactly 1.000.
figures_golden all_figures_full crates/bench/tests/all_figures_full.stdout 2313 1157 \
    -u ZERODEV_QUICK -u ZERODEV_AUDIT

echo "== fault campaign smoke (quick matrix) =="
ZERODEV_QUICK=1 \
    cargo run --release -p zerodev-bench --bin fault_campaign >/dev/null

echo "== torture soak smoke (audited) =="
# The bounded campaign: every torture workload x config point must
# complete under the oracle.
soak_dir=$(mktemp -d)
ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null

echo "== soak quarantine check (an injected protocol bug must be caught) =="
# A corrupted LLC-resident entry under the oracle is the path a real
# protocol bug takes: the point panics, and the soak driver must
# quarantine it (nonzero exit), name it in the report, bisect the
# smallest failing run length and leave a replayable trace.
if ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    ZERODEV_FAULTS=corrupt=llc@1000 \
    ZERODEV_SOAK_ONLY='torture.reader_swarm@zerodev_nodir' \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null; then
    echo "soak quarantine check FAILED: injected corruption was not quarantined" >&2
    exit 1
fi
grep -q '"outcome": "panicked"' "$soak_dir/soak_report.json"
grep -q 'torture.reader_swarm@zerodev_nodir' "$soak_dir/soak_report.json"
grep -qE '"minimized_refs_per_core": [0-9]+' "$soak_dir/soak_report.json"
ls "$soak_dir"/torture_reader_swarm_zerodev_nodir_*.trace >/dev/null
echo "soak quarantine check passed"

echo "== soak home-corruption check (a housed entry's segment flip must be caught) =="
# The 1 MB-LLC ZeroDEV point is the one soak machine that houses directory
# entries at home (WB_DE), so a home-segment flip finds a victim there and
# the oracle must catch it: the point is quarantined (nonzero exit).
if ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    ZERODEV_FAULTS=corrupt=home@1000 \
    ZERODEV_SOAK_ONLY='torture.entry_thrash@zerodev_1mb_nodir' \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null; then
    echo "soak home-corruption check FAILED: the flipped home segment was not quarantined" >&2
    exit 1
fi
grep -q '"outcome": "panicked"' "$soak_dir/soak_report.json"
grep -q 'torture.entry_thrash@zerodev_1mb_nodir' "$soak_dir/soak_report.json"
echo "soak home-corruption check passed"

echo "== soak not-injected check (an armed corruption must land) =="
# corrupt=home@1000 finds no victim on the baseline reader_swarm point: no
# entry is ever housed at home there. The point then checks nothing it was
# armed to check, so the soak must fail it (nonzero exit) and report it.
if ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    ZERODEV_FAULTS=corrupt=home@1000 \
    ZERODEV_SOAK_ONLY='torture.reader_swarm@baseline' \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null; then
    echo "soak not-injected check FAILED: a corruption that never landed passed" >&2
    exit 1
fi
grep -q '"outcome": "not_injected"' "$soak_dir/soak_report.json"
grep -q '"corruptions": 0' "$soak_dir/soak_report.json"
rm -rf "$soak_dir"
echo "soak not-injected check passed"

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
