#!/usr/bin/env bash
# Every example refuses a bad argument before any simulation starts:
# it exits 2, writes nothing to stdout and prints one line on stderr.
#
#   cd build/examples && ../../examples/reject_bad_input.sh \
#       ./quickstart ./server_consolidation ./custom_scheduler \
#       ./fileserver_tuning ./heatmap_playground ./trace_inspection
set -u

quickstart=$1
consolidation=$2
custom=$3
tuning=$4
heatmap=$5
inspection=$6

err_file=$(mktemp)
trap 'rm -f "$err_file"' EXIT
failed=0

# expect MESSAGE COMMAND...: COMMAND is refused with MESSAGE.
expect() {
    local message=$1 out err status
    shift
    out=$("$@" 2>"$err_file")
    status=$?
    err=$(<"$err_file")
    if [[ $status -ne 2 ]]; then
        echo "FAIL: $*: exit status $status, expected 2"
    elif [[ -n $out ]]; then
        echo "FAIL: $*: wrote to stdout: $out"
    elif [[ $err == *$'\n'* || $err != *"$message"* ]]; then
        echo "FAIL: $*: stderr '$err', expected one line with '$message'"
    else
        echo "ok: $*: $err"
        return
    fi
    failed=1
}

expect "invalid value 'x' for scale" "$quickstart" Apache x
expect "unknown benchmark 'nosuch'" "$quickstart" nosuch
expect "unknown bag 'nosuch'" "$consolidation" nosuch
expect "unknown benchmark 'nosuch'" "$custom" nosuch
expect "unknown benchmark 'nosuch'" "$tuning" nosuch
expect "invalid width '63'" "$heatmap" 63
expect "invalid width 'x'" "$heatmap" x
expect "invalid width '131072'" "$heatmap" 131072
expect "invalid thread id 'x'" "$inspection" Find x
exit $failed
