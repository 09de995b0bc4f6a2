#!/usr/bin/env bash
# Build the simulator and regenerate every paper figure/table with
# one schedtask-figures run, recording its time to paper.
#
# Usage:
#   tools/run_figures.sh [output-dir [schedtask-figures args...]]
#
# Extra arguments go to schedtask-figures: figure names to render a
# subset, `--trace-dir DIR` to also write one epoch-trace pair per
# simulation, `--fast` to shrink the measurement windows for a quick
# smoke pass. SCHEDTASK_JOBS sets the worker threads (results are
# bitwise identical for any value).
#
# Output: one <figure>.txt per figure in the output dir (default
# build/figures), plus timings.txt with the time-to-paper line.

set -euo pipefail

cd "$(dirname "$0")/.."
outdir="${1:-build/figures}"

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target schedtask-figures >/dev/null
mkdir -p "$outdir"
./build/bench/schedtask-figures --out "$outdir" "${@:2}" 2>&1 \
    | tee "$outdir/progress.log"
tail -n 1 "$outdir/progress.log" > "$outdir/timings.txt"
echo "figures written to $outdir/"
