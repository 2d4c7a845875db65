#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Everything runs --offline:
# the workspace has no external dependencies and must stay buildable
# without a network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
# Beyond the default lint set, a low-noise pedantic subset the codebase
# commits to keeping clean.
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -W clippy::semicolon_if_nothing_returned \
    -W clippy::redundant_closure_for_method_calls \
    -W clippy::explicit_iter_loop \
    -W clippy::uninlined_format_args

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline -q --workspace

echo "==> perf benchmark tests (perfbench/ is a package of its own, outside"
echo "    the workspace; its smoke test checks on all five workloads that two"
echo "    workers and tracing reproduce the reference reports)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> rack smoke (2-chip cluster serves a short stream; every request"
echo "    completes and the latency histogram is non-empty)"
cargo run --offline --release -p smarco-bench --bin rack -- --smoke

# The sweeps below write to temp files, never over the committed BENCH
# files, and must reproduce those files' simulated fields: only host
# timings (`wall_seconds`) and the host CPU count may differ. A change that
# moves a simulated number regenerates the committed file on purpose.
ci_tmp="$(mktemp -d)"
trap 'rm -rf "$ci_tmp"' EXIT
sim_fields() {
    sed -E 's/"(wall_seconds|cpus)":[0-9.]+//g' "$1"
}
check_bench() {
    if ! diff <(sim_fields "$1") <(sim_fields "$ci_tmp/$1") >&2; then
        echo "ci: $1 no longer matches the sweep's simulated fields" >&2
        exit 1
    fi
}

echo "==> noc_sweep smoke (backends x benchmarks matrix; exits non-zero"
echo "    if any backend fails to drain a benchmark)"
cargo run --offline --release -p smarco-bench --bin noc_sweep -- --json "$ci_tmp/BENCH_noc.json"
check_bench BENCH_noc.json

echo "==> chaos smoke (seeded fault run; exits non-zero on zero retries)"
cargo run --offline --release -p smarco-bench --bin scale -- --faults 42

echo "==> scale bench (PDES speedup sweep + cycle-skip study; asserts"
echo "    bit-identical reports and a non-zero skip ratio on TeraSort)"
cargo run --offline --release -p smarco-bench --bin scale -- --json "$ci_tmp/BENCH_cycle_skip.json"
check_bench BENCH_cycle_skip.json

echo "==> rack sweep (balancing policies x offered load on a 4-chip rack)"
cargo run --offline --release -p smarco-bench --bin rack -- --json "$ci_tmp/BENCH_rack.json"
check_bench BENCH_rack.json

echo "==> perf-regression gate (sequential engine vs committed baseline;"
echo "    plus a 4-worker leg on hosts with >=4 CPUs when the baseline"
echo "    has one; SMARCO_PERF_GATE=skip bypasses on noisy hosts)"
cargo run --offline --release -p smarco-bench --bin profile -- --gate scripts/perf_baseline.json

echo "==> smarco-lint (static verifier, warnings are errors; sweep covers"
echo "    every config and benchmark under healthy and chaos fault plans)"
cargo run --offline --release -p smarco-bench --bin lint -- --deny-warnings

echo "==> negative-config corpus (each seeded bad config must reproduce its"
echo "    codes; exit 1 = diagnostics present as expected, 2 = regression)"
corpus_json="$ci_tmp/corpus.json"
set +e
cargo run --offline --release -p smarco-bench --bin lint -- --corpus --json "$corpus_json"
corpus_status=$?
set -e
if [ "$corpus_status" -ne 1 ]; then
    echo "ci: corpus gate failed (exit $corpus_status, expected 1)" >&2
    exit 1
fi
for code in SL0420 SL0421 SL0422 SL0423 SL0430 SL0431 SL0450 SL0460 SL0461; do
    if ! grep -q "\"code\":\"$code\"" "$corpus_json"; then
        echo "ci: corpus no longer produces $code" >&2
        exit 1
    fi
done

echo "ci: all gates passed"
