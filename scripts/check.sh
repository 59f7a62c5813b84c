#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from anywhere; operates on the
# repo root. Fails fast on the first broken stage.
#
# Usage:
#   scripts/check.sh              run every stage in order
#   scripts/check.sh <stage>...   run only the named stage(s)
#
# Stages (in order): build test bench-norun clippy nopanic cost-model fmt
#                    benchmark load-smoke fed-smoke session-repeat
#                    virtual-gate soak loc
# Optional stage:    bench-gate   (also appended to the default run when
#                                  SLAMSHARE_BENCH_GATE=1 — it runs the
#                                  benchmarks, which takes a while)
#
# `loc` only reports (non-test lines and panic sites per crate, config-field
# counts and `EdgeServer`'s `pub fn` count vs HEAD~1, via scripts/loc.sh)
# and never fails;
# CI's shallow checkout has no HEAD~1, so it is not a CI step.
#
# `soak` also runs as its own parallel CI job (it is the longest smoke),
# so a slow soak never serializes behind the build/test/lint job.
#
# .github/workflows/ci.yml calls these same stages one per step, so CI
# and the local gate cannot drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() {
    echo "== cargo build --release =="
    cargo build --release
}

stage_test() {
    echo "== cargo test -q =="
    cargo test -q --workspace
}

stage_bench_norun() {
    echo "== cargo bench --no-run =="
    cargo bench --workspace --no-run
}

stage_clippy() {
    echo "== cargo clippy (deny warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_nopanic() {
    echo "== no-panic gate (slamshare-net, slamshare-gpu, slamshare-features, slamshare-core, slam map/merge/recognition/tracking, bench session) =="
    # Shared-state paths deny unwrap/expect/panic via in-source
    # #![cfg_attr(not(test), deny(...))] attributes (crate-wide in
    # slamshare-net; in slamshare-gpu — the executor and slice scheduler
    # sit under every client's tracking submissions; in
    # slamshare-features — the one extraction pipeline those submissions
    # run, its kernels, and the Hamming and window-search kernels tracking
    # runs on its output; slamshare-features also forbids unsafe code; and
    # in slamshare-core — the server, whose client mutexes and region locks
    # a panic would poison for every client, and whose merge thread it
    # would silently end);
    # module-level on slamshare-slam::{map,merge,recognition,tracking} and
    # on the bench harness's session driver, which must drop a client it
    # cannot serve rather than abort the run). A plain clippy pass compiles
    # those lints as hard errors; CLI -D flags must NOT be used here — they
    # leak into the vendored workspace path deps.
    cargo clippy -q -p slamshare-net -p slamshare-core -p slamshare-slam -p slamshare-gpu -p slamshare-features -p bench
}

stage_cost_model() {
    echo "== cost model stays out of the server (slamshare-slam, slamshare-core) =="
    # Modeled GPU time is made in one place, slamshare_gpu::model::charge,
    # and only by callers that report it (the bench harness's experiments
    # and session driver). The tracker and the whole server crate handle
    # wall time and kernel stats only.
    if grep -rnE 'modeled_|model::charge|launch_ms' \
        crates/slamshare-slam/src crates/slamshare-core/src; then
        echo "cost-model: the lines above bring modeled time into the server" >&2
        return 1
    fi
}

stage_fmt() {
    echo "== cargo fmt --check =="
    cargo fmt --check
}

stage_benchmark() {
    echo "== benchmark/ (its own package, outside the workspace): build, fmt, clippy =="
    # The stages above never compile benchmark/, so an API deletion that
    # breaks it would pass them. Read-only: nothing under benchmark/ that
    # git tracks is written.
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cargo fmt --check --manifest-path benchmark/Cargo.toml
    cargo clippy --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings
}

stage_load_smoke() {
    echo "== load-harness smoke (64 virtual clients, churn + admission bound) =="
    cargo run -q --release -p bench --bin load_smoke
}

stage_fed_smoke() {
    echo "== federation smoke (3-server harness with handoffs + n=1 bit-identity) =="
    cargo run -q --release -p bench --bin fed_smoke
}

stage_session_repeat() {
    echo "== session repeatability (fig10 KITTI + EuRoC smoke sessions, twice each, bit-identical) =="
    cargo run -q --release -p bench --bin session_repeat
}

stage_virtual_gate() {
    echo "== virtual-time gate (load + federation harness p99s vs results/baselines) =="
    # The harness's latencies are virtual and machine-independent, so
    # they are gated on every push; the wall-clock benches stay behind
    # the optional bench-gate stage.
    cargo bench -p bench --bench load --bench federation
    scripts/bench_gate.sh --no-bench
}

stage_soak() {
    echo "== lifecycle soak (compressed virtual day: bounded map bytes + reload bit-identity) =="
    cargo run -q --release -p bench --bin soak_smoke
}

stage_loc() {
    echo "== non-test lines and panic sites per crate, config-field counts vs HEAD~1 (report only) =="
    scripts/loc.sh HEAD~1 || echo "loc: no HEAD~1 to compare against (shallow checkout?)"
}

stage_bench_gate() {
    echo "== bench regression gate (p95 vs results/baselines, SLAMSHARE_BENCH_TOL=${SLAMSHARE_BENCH_TOL:-15} %) =="
    scripts/bench_gate.sh
}

run_stage() {
    case "$1" in
        build)       stage_build ;;
        test)        stage_test ;;
        bench-norun) stage_bench_norun ;;
        clippy)      stage_clippy ;;
        nopanic)     stage_nopanic ;;
        cost-model)  stage_cost_model ;;
        fmt)         stage_fmt ;;
        benchmark)   stage_benchmark ;;
        load-smoke)  stage_load_smoke ;;
        fed-smoke)   stage_fed_smoke ;;
        session-repeat) stage_session_repeat ;;
        virtual-gate) stage_virtual_gate ;;
        soak)        stage_soak ;;
        loc)         stage_loc ;;
        bench-gate)  stage_bench_gate ;;
        *) echo "unknown stage: $1 (build test bench-norun clippy nopanic cost-model fmt benchmark load-smoke fed-smoke session-repeat virtual-gate soak loc bench-gate)" >&2
           exit 2 ;;
    esac
}

if [[ $# -gt 0 ]]; then
    for stage in "$@"; do
        run_stage "$stage"
    done
else
    for stage in build test bench-norun clippy nopanic cost-model fmt benchmark load-smoke fed-smoke session-repeat virtual-gate soak loc; do
        run_stage "$stage"
    done
    if [[ "${SLAMSHARE_BENCH_GATE:-0}" == 1 ]]; then
        run_stage bench-gate
    fi
fi

echo "All checks passed."
