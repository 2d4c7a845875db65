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

echo "==> cargo doc (rustdoc warnings are errors, so a deleted item cannot"
echo "    leave a dangling intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline -q --workspace

echo "==> paper-scale blocks (Figs. 22, 23 and 26 at paper scale: their"
echo "    claims keep their recorded status and EXPERIMENTS.md quotes them)"
cargo test --release --offline --test paper_shapes -- --ignored

echo "==> perf benchmark tests (perfbench/ is a package of its own, outside"
echo "    the workspace; its smoke test checks on all five workloads that two"
echo "    workers and tracing reproduce the reference reports)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> rack smoke (2-chip cluster serves a short stream; every request"
echo "    completes and the latency histogram is non-empty)"
cargo run --offline --release -p smarco-bench --bin rack -- --smoke

# The sweeps below write to temp files, never over the committed BENCH
# files, and must reproduce those files byte for byte: every field they
# write is simulated. A change that moves a simulated number regenerates
# the committed file on purpose.
ci_tmp="$(mktemp -d)"
trap 'rm -rf "$ci_tmp"' EXIT
check_bench() {
    if ! diff "$1" "$ci_tmp/$1" >&2; then
        echo "ci: $1 no longer matches its sweep" >&2
        exit 1
    fi
}

echo "==> noc_sweep smoke (backends x benchmarks matrix; exits non-zero"
echo "    if any backend fails to drain a benchmark)"
cargo run --offline --release -p smarco-bench --bin noc_sweep -- --json "$ci_tmp/BENCH_noc.json"
check_bench BENCH_noc.json

echo "==> chaos smoke (seeded fault run; exits non-zero on zero retries)"
cargo run --offline --release -p smarco-bench --bin scale -- --faults 42

echo "==> scale bench (PDES worker sweep + cycle-skip study; asserts"
echo "    bit-identical reports and shard-cycles, and a non-zero skip ratio"
echo "    on TeraSort)"
cargo run --offline --release -p smarco-bench --bin scale -- --json "$ci_tmp/BENCH_cycle_skip.json"
check_bench BENCH_cycle_skip.json

echo "==> rack sweep (balancing policies x offered load on a 4-chip rack)"
cargo run --offline --release -p smarco-bench --bin rack -- --json "$ci_tmp/BENCH_rack.json"
check_bench BENCH_rack.json

echo "==> perf gate (the command BENCH_perf.json was recorded with, run"
echo "    through BENCHMARK.json's command: fails on a failed check, an"
echo "    unreadable number, another host CPU count, or sim_mips below"
echo "    (1 - bound) x the baseline, with BENCHMARK.json's sim_mips bound)"
rerecord="bash scripts/record_perf_baseline.sh"
num='^[0-9]+([.][0-9]+)?$'
read -r -a perf_cmd <<< "$(sed -n 's/^ *"command": \[\(.*\)\],$/\1/p' BENCHMARK.json | tr -d '",')"
read -r -a perf_args <<< "$(sed -n 's/^ *"command": "perf \(.*\)",$/\1/p' BENCH_perf.json)"
bound="$(sed -n 's/.*"name": "sim_mips".*"bound": \([0-9.]*\).*/\1/p' BENCHMARK.json)"
baseline="$(sed -n 's/^ *"sim_mips": \([0-9.]*\)$/\1/p' BENCH_perf.json)"
baseline_cpus="$(sed -n 's/^ *"cpus": \([0-9]*\),$/\1/p' BENCH_perf.json)"
if [[ ${#perf_args[@]} -eq 0 ]]; then
    echo "ci: perf gate: BENCH_perf.json names no perf command; re-record it with: $rerecord" >&2
    exit 1
fi
perf_out="$("${perf_cmd[@]}" "${perf_args[@]}")"
perf_json="$(tail -n 1 <<< "$perf_out")"
measured="$(sed -n 's/.*"sim_mips": {"value": \([0-9.]*\),.*/\1/p' <<< "$perf_json")"
cpus="$(sed -n 's/.* on \([0-9]*\) host CPU(s)$/\1/p' <<< "$perf_out")"
echo "perf gate: perf ${perf_args[*]}: sim_mips $measured Minstr/s on $cpus host CPU(s);"
echo "    baseline $baseline Minstr/s on $baseline_cpus host CPU(s); bound $bound"
# Succeeds when sim_mips $1 and baseline $2 are numbers and $1 is at
# least (1 - bound) x $2.
perf_holds() {
    [[ $1 =~ $num && $2 =~ $num && $bound =~ $num ]] &&
        awk -v m="$1" -v b="$2" -v k="$bound" 'BEGIN { exit !(m + 0 >= (1 - k) * b) }'
}
if [[ $perf_json != '{"correct": true, '*'"failed": 0, '* ]]; then
    echo "ci: perf gate: perf's checks failed: $perf_json" >&2
    exit 1
fi
if [[ -z $cpus || $cpus != "$baseline_cpus" ]]; then
    echo "ci: perf gate: BENCH_perf.json was recorded on $baseline_cpus host CPU(s)," >&2
    echo "    this host has ${cpus:-?}; re-record it here with: $rerecord" >&2
    exit 1
fi
if ! perf_holds "$measured" "$baseline"; then
    echo "ci: perf gate: sim_mips '$measured' is below (1 - $bound) x '$baseline'," >&2
    echo "    or one of them cannot be read (an intended slowdown: $rerecord)" >&2
    exit 1
fi
inflated="$(awk -v m="$measured" 'BEGIN { printf "%.6f", 1.5 * m }')"
if perf_holds "$measured" "$inflated"; then
    echo "ci: perf gate self-check: sim_mips $measured passed against a baseline" >&2
    echo "    of $inflated (1.5x), so the comparison cannot fail" >&2
    exit 1
fi
echo "perf gate: passed; self-check failed the 1.5x baseline $inflated as it must"

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
