#!/usr/bin/env bash
#
# Full correctness gate. For each requested preset (default: all
# five from CMakePresets.json) this configures, builds with
# warnings-as-errors, and runs the tier-1 suite — which includes the
# schedtask_lint tree scan. Then two cross-preset checks:
#
#   * tsan: the SweepRunner stress suite at --jobs 8, so TSan
#     certifies the thread pool, the logQuiet flag, and the per-run
#     trace-file writes as race-free.
#   * default, checked and portable (any two or more of them):
#     SCHEDTASK_FAST=1 schedtask-figures fig07_fast
#     sec44_epoch_similarity fig11_heatmap_size app_fig2_prefetcher
#     app_fig3_trace_cache under each build, in one --trace-dir call;
#     the reports and every trace file (the fig07_fast cross, the
#     10-epoch sec44 Linux cells, the Fig. 11 cells incl. the
#     fixed-size traced tau cells) must be bitwise identical, proving
#     the invariant checker is pure observation and the simulated
#     results do not depend on the target ISA (-march=x86-64-v3
#     vectorizes the cache set kernels, the portable build does not).
#     The two appendix figures drive the fetch path with the CGP
#     prefetcher (fetchAux, installInstLine) and the trace caches.
#
# Host-cost measurement lives in perfbench/ (see perfbench/README.md).
#
# Usage: tools/check.sh [preset...]

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

JOBS="${JOBS:-$(nproc)}"
PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
    PRESETS=(default asan-ubsan tsan checked portable)
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

IDENTITY=()
for preset in default checked portable; do
    has_preset "$preset" && IDENTITY+=("$preset")
done
if [ ${#IDENTITY[@]} -ge 2 ]; then
    step "${IDENTITY[*]}: fig07_fast + sec44 + fig11 + app figs 2-3 bitwise identity"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    for preset in "${IDENTITY[@]}"; do
        SCHEDTASK_FAST=1 ./build-$preset/bench/schedtask-figures \
            --trace-dir "$tmp/$preset" fig07_fast sec44_epoch_similarity \
            fig11_heatmap_size app_fig2_prefetcher app_fig3_trace_cache \
            >"$tmp/$preset.out"
    done
    ref="${IDENTITY[0]}"
    for preset in "${IDENTITY[@]:1}"; do
        diff -u "$tmp/$ref.out" "$tmp/$preset.out"
        diff -r "$tmp/$ref" "$tmp/$preset"
    done
    echo "report and traces bitwise identical"
fi

step "all checks passed"
