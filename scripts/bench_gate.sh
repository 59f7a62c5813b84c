#!/usr/bin/env bash
# Bench regression gate: regenerate the BENCH_* reports and compare
# every p95 metric against the committed baselines in results/baselines/
# (one-sided; tolerance SLAMSHARE_BENCH_TOL percent, default 15, plus a
# 0.25 ms absolute slack for microsecond-scale stages). Exit 1 on any
# regression or on a metric missing from the fresh report.
#
# Usage:
#   scripts/bench_gate.sh                gate fresh results vs baselines
#   scripts/bench_gate.sh --no-bench     gate existing results/ as-is
#   scripts/bench_gate.sh --rebaseline   refresh results/baselines/ from a
#                                        fresh run (commit the result)
#   scripts/bench_gate.sh --selftest     prove the gate trips on a
#                                        synthetically inflated metric
#
# SLAMSHARE_BENCH_EFFORT (smoke|quick|full, default quick) sizes the
# bench workloads; baselines and gated runs should use the same effort.
set -euo pipefail
cd "$(dirname "$0")/.."

REBASELINE=0
RUN_BENCHES=1
SELFTEST=0
for arg in "$@"; do
    case "$arg" in
        --rebaseline) REBASELINE=1 ;;
        --no-bench)   RUN_BENCHES=0 ;;
        --selftest)   SELFTEST=1; RUN_BENCHES=0 ;;
        *) echo "usage: $0 [--rebaseline] [--no-bench] [--selftest]" >&2; exit 2 ;;
    esac
done

if [[ "$SELFTEST" == 1 ]]; then
    exec cargo run -q --release -p bench --bin bench_gate -- --selftest
fi

# The benches whose JSON reports carry the gated p95 metrics.
GATED_BENCHES=(tracking_throughput mapping_throughput obs_overhead frame_micro load federation lifecycle)
if [[ "$RUN_BENCHES" == 1 ]]; then
    for b in "${GATED_BENCHES[@]}"; do
        echo "== cargo bench --bench $b =="
        cargo bench -p bench --bench "$b"
    done
fi

if [[ "$REBASELINE" == 1 ]]; then
    mkdir -p results/baselines
    cp results/BENCH_*.json results/baselines/
    echo "baselines refreshed from results/BENCH_*.json — review and commit results/baselines/"
    exit 0
fi

cargo run -q --release -p bench --bin bench_gate
