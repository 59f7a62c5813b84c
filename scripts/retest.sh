#!/usr/bin/env bash
# Flaky-test detector: run the tier-1 integration suites N times, each
# under a distinct SLAMSHARE_TEST_SEED, and report every test whose
# outcome differs between runs. Exits non-zero when a test flapped — or
# when any run failed outright.
#
# Usage:
#   scripts/retest.sh [N] [suite...]
#
# N defaults to 3. Suites default to every integration suite under
# tests/. CI runs the concurrency-sensitive trio:
#   scripts/retest.sh 3 determinism map_sharding fault_injection
#
# SLAMSHARE_TEST_SEED is the repo's reserved knob for seeding
# randomized/property tests; suites that ignore it still get rerun-based
# flake detection (scheduling and lock-ordering races reshuffle run to
# run on their own).
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-3}"
if ! [[ "$N" =~ ^[0-9]+$ ]] || [[ "$N" -lt 2 ]]; then
    echo "usage: $0 [N>=2] [suite...]" >&2
    exit 2
fi
shift || true
SUITES=("$@")
if [[ ${#SUITES[@]} -eq 0 ]]; then
    SUITES=(determinism map_sharding fault_injection
            end_to_end_single_user end_to_end_multi_user experiments_smoke
            load_harness federation lifecycle observability)
fi

ARGS=()
for s in "${SUITES[@]}"; do
    ARGS+=(--test "$s")
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Build once so the timed runs only run tests.
cargo test -q "${ARGS[@]}" --no-run

hard_fail=0
for run in $(seq 1 "$N"); do
    seed=$((41 + run))
    echo "== retest run $run/$N (SLAMSHARE_TEST_SEED=$seed) =="
    raw="$TMP/raw$run.txt"
    if ! SLAMSHARE_TEST_SEED="$seed" cargo test "${ARGS[@]}" >"$raw" 2>&1; then
        hard_fail=1
        echo "   run $run FAILED (recorded)"
    fi
    # libtest outcome lines: "test <name> ... ok|FAILED|ignored".
    grep -E '^test [^ ]+ \.\.\. ' "$raw" \
        | awk '{print $2, $4}' | sort >"$TMP/run$run.txt" || true
done

# A test name appearing with more than one distinct outcome is flaky.
sort -u "$TMP"/run*.txt | awk '{print $1}' | uniq -d >"$TMP/flaky.txt"

if [[ -s "$TMP/flaky.txt" ]]; then
    echo "FLAKY tests (outcome differs across $N seeded runs):"
    while read -r name; do
        echo "  $name:"
        grep -H " $name " /dev/null "$TMP"/raw*.txt 2>/dev/null | sed 's/^/    /' || true
        for run in $(seq 1 "$N"); do
            status="$(awk -v n="$name" '$1 == n {print $2}' "$TMP/run$run.txt")"
            echo "    run $run: ${status:-missing}"
        done
    done <"$TMP/flaky.txt"
    exit 1
fi

if [[ "$hard_fail" == 1 ]]; then
    echo "No flapping, but at least one run failed consistently:"
    grep -hE '^test [^ ]+ \.\.\. FAILED' "$TMP"/raw*.txt | sort -u | sed 's/^/  /'
    exit 1
fi

echo "No flaky tests across $N runs of: ${SUITES[*]}"
