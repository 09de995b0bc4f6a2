#!/usr/bin/env bash
#
# Full correctness gate. For each requested preset (default: all
# four from CMakePresets.json) this configures, builds with
# warnings-as-errors, and runs the tier-1 suite — which includes the
# schedtask_lint tree scan. Then two cross-preset checks:
#
#   * tsan: the SweepRunner stress suite at --jobs 8, so TSan
#     certifies the thread pool, the logQuiet flag, and the per-run
#     trace-file writes as race-free.
#   * checked vs default: a fig07 --fast run under both builds with
#     tracing on; report and every trace file must be bitwise
#     identical, proving the invariant checker is pure observation.
#
# Host-cost measurement lives in perfbench/ (see perfbench/README.md).
#
# Usage: tools/check.sh [preset...]

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

JOBS="${JOBS:-$(nproc)}"
PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
    PRESETS=(default asan-ubsan tsan checked)
fi

has_preset() {
    local p
    for p in "${PRESETS[@]}"; do
        [ "$p" = "$1" ] && return 0
    done
    return 1
}

step() { printf '\n==== %s ====\n' "$*"; }

for preset in "${PRESETS[@]}"; do
    step "preset '$preset': configure + build"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$JOBS"

    step "preset '$preset': tier-1 tests"
    # Death tests re-exec the binary instead of forking mid-run; the
    # sanitizer runtimes are unreliable across a bare fork.
    GTEST_DEATH_TEST_STYLE=threadsafe \
        ctest --preset "$preset" -j "$JOBS"
done

if has_preset tsan; then
    step "tsan: SweepRunner stress at 8 jobs"
    GTEST_DEATH_TEST_STYLE=threadsafe \
        ./build-tsan/tests/test_sweep_stress
fi

if has_preset default && has_preset checked; then
    step "checked vs default: fig07 --fast bitwise identity"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    SCHEDTASK_TRACE_DIR="$tmp/default" \
        ./build-default/bench/fig07_app_performance --fast \
        >"$tmp/default.out"
    SCHEDTASK_TRACE_DIR="$tmp/checked" \
        ./build-checked/bench/fig07_app_performance --fast \
        >"$tmp/checked.out"
    diff -u "$tmp/default.out" "$tmp/checked.out"
    diff -r "$tmp/default" "$tmp/checked"
    echo "report and traces bitwise identical"
fi

step "all checks passed"
