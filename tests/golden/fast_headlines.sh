#!/usr/bin/env bash
# Golden headline tables: `schedtask-sim --fast` (seed 1, 32 cores,
# scale 2) for the 8 paper benchmarks under all six registered
# techniques, plus the MPW-A bag under Linux and SchedTask, compared
# byte for byte with tests/golden/fast_headlines.txt.
#
#   tests/golden/fast_headlines.sh build/tools/schedtask-sim           # check
#   tests/golden/fast_headlines.sh build/tools/schedtask-sim --update  # rewrite
#
# Any change to simulated behaviour moves this file. A commit that
# rewrites it must say in CHANGES.md why the numbers moved; a pure
# speed-up or refactor must leave it untouched. If any run fails, the
# script exits non-zero before it compares or writes anything.
set -euo pipefail

sim=$1
mode=${2:-check}
here=$(cd "$(dirname "$0")" && pwd)
golden=$here/fast_headlines.txt
benchmarks="Find Iscp Oscp Apache DSS FileSrv MailSrvIO OLTP"
techniques="Linux SchedTask SelectiveOffload FlexSC DisAggregateOS SLICC"
bag=MPW-A
bag_techniques="Linux SchedTask"

case $mode in
    check|--update) ;;
    *) echo "usage: $0 SCHEDTASK_SIM [--update]" >&2; exit 2 ;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# One process per workload (one run per technique), joined in a fixed
# order. Each job is waited on by PID: a bare `wait` returns 0 even
# when a job failed, which would let --update write a truncated file.
runs() { # OUT TECHNIQUES WORKLOAD-ARGS...
    local out=$1 techs=$2 t
    shift 2
    for t in $techs; do
        "$sim" "$@" --technique "$t" --fast --jobs 1
    done > "$out"
}
pids=()
for b in $benchmarks; do
    runs "$work/$b.txt" "$techniques" --benchmark "$b" &
    pids+=($!)
done
runs "$work/$bag.txt" "$bag_techniques" --bag "$bag" &
pids+=($!)
failed=0
for pid in "${pids[@]}"; do
    wait "$pid" || failed=1
done
if [ "$failed" -ne 0 ]; then
    echo "$0: a schedtask-sim run failed; nothing compared or written" >&2
    exit 1
fi

{
    echo "# schedtask-sim --fast --benchmark B --technique T, seed 1,"
    echo "# then --bag $bag under $bag_techniques."
    echo "# Regenerate: tests/golden/fast_headlines.sh <schedtask-sim> --update"
    echo "# and say in CHANGES.md why the numbers moved."
    for b in $benchmarks $bag; do
        cat "$work/$b.txt"
    done
} > "$work/all.txt"

if [ "$mode" = "--update" ]; then
    cp "$work/all.txt" "$golden"
    echo "rewrote $golden"
else
    diff -u "$golden" "$work/all.txt"
fi
