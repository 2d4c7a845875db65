#!/usr/bin/env bash
# Re-records BENCH_perf.json, the baseline of the perf gate in
# scripts/ci.sh: the median htc_mapreduce sim_mips of five runs of `perf`
# through BENCHMARK.json's command, with this host's CPU count and the
# perf arguments, which the gate reruns. Record on the host that runs the
# gate, with nothing else running; the gate fails on another CPU count.
set -euo pipefail
cd "$(dirname "$0")/.."

args="--workload htc_mapreduce --seed 1 --seconds 10"
read -r -a perf_cmd <<< "$(sed -n 's/^ *"command": \[\(.*\)\],$/\1/p' BENCHMARK.json | tr -d '",')"
runs=()
for run in 1 2 3 4 5; do
    # shellcheck disable=SC2086 # the arguments are split on purpose
    out="$("${perf_cmd[@]}" $args)"
    json="$(tail -n 1 <<< "$out")"
    mips="$(sed -n 's/.*"sim_mips": {"value": \([0-9.]*\),.*/\1/p' <<< "$json")"
    if [[ $json != '{"correct": true, '*'"failed": 0, '* || -z $mips ]]; then
        echo "record_perf_baseline: run $run failed its checks or has no sim_mips: $json" >&2
        exit 1
    fi
    echo "run $run: sim_mips $mips Minstr/s"
    runs+=("$mips")
done
cpus="$(sed -n 's/.* on \([0-9]*\) host CPU(s)$/\1/p' <<< "$out")"
median="$(printf '%s\n' "${runs[@]}" | sort -g | sed -n 3p)"
cat > BENCH_perf.json <<JSON
{
  "command": "perf $args",
  "cpus": $cpus,
  "runs": [$(printf '%s, ' "${runs[@]}" | sed 's/, $//')],
  "sim_mips": $median
}
JSON
echo "wrote BENCH_perf.json: median sim_mips $median Minstr/s on $cpus host CPU(s)"
