#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cross_2x --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the schedtask library
plus the perfbench binary) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls rebuild incrementally. The binary's stdout
is passed through; its last line is the result JSON.

--update-digests rewrites perfbench/digests/<workload>.tsv (seed 1, one
worker thread) instead of measuring.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cross_2x", "filesrv_scale", "cgp_2x")
RUN_TIMEOUT_S = 175


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    p = Parser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-digests", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        raise UsageError("--seed must be >= 0 and --seconds >= 1")
    return args


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def run(cmd, **kwargs):
    """Run to completion with stdout sent to stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kwargs)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("the simulator sources (CMakeLists.txt, src/) "
                           "are not next to perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise RuntimeError(tool + " not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", jobs])
    return os.path.join(build_dir, "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        log("usage error:", e)
        return 2
    if os.environ.get("SCHEDTASK_FAST", "") != "":
        log("SCHEDTASK_FAST is set; unset it, the benchmark measures "
            "the paper-shape runs")
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1

    digests = os.path.join(HERE, "digests", args.workload + ".tsv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", digests, "--commit", git_commit()]
    if args.update_digests:
        cmd.append("--update-digests")
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench exceeded", RUN_TIMEOUT_S, "s; killed")
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
