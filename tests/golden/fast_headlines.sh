#!/usr/bin/env bash
# Golden headline tables: `schedtask-sim --fast` for the 8 paper
# benchmarks under Linux and SchedTask (seed 1, 32 cores, scale 2),
# compared byte for byte with tests/golden/fast_headlines.txt.
#
#   tests/golden/fast_headlines.sh build/tools/schedtask-sim           # check
#   tests/golden/fast_headlines.sh build/tools/schedtask-sim --update  # rewrite
#
# Any change to simulated behaviour moves this file. A commit that
# rewrites it must say in CHANGES.md why the numbers moved; a pure
# speed-up or refactor must leave it untouched.
set -euo pipefail

sim=$1
mode=${2:-check}
here=$(cd "$(dirname "$0")" && pwd)
golden=$here/fast_headlines.txt
benchmarks="Find Iscp Oscp Apache DSS FileSrv MailSrvIO OLTP"
techniques="Linux SchedTask"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# One process per benchmark (two runs each), joined in a fixed order.
for b in $benchmarks; do
    (
        for t in $techniques; do
            "$sim" --benchmark "$b" --technique "$t" --fast --jobs 1
        done > "$work/$b.txt"
    ) &
done
wait

{
    echo "# schedtask-sim --fast --benchmark B --technique T, seed 1."
    echo "# Regenerate: tests/golden/fast_headlines.sh <schedtask-sim> --update"
    echo "# and say in CHANGES.md why the numbers moved."
    for b in $benchmarks; do
        cat "$work/$b.txt"
    done
} > "$work/all.txt"

if [ "$mode" = "--update" ]; then
    cp "$work/all.txt" "$golden"
    echo "rewrote $golden"
elif [ "$mode" = "check" ]; then
    diff -u "$golden" "$work/all.txt"
else
    echo "usage: $0 SCHEDTASK_SIM [--update]" >&2
    exit 2
fi
