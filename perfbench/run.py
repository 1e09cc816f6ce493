#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload replay-stream --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The first run configures and builds
perfbench/ (which builds the library from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse the build.  Each run first
runs the statistics self-test, then the benchmark program, whose last line of output is
the result JSON.  Exits 0 when every output check passed, 1 when one failed,
and 2, printing no result, when the build, the self-test or the set-up fails.
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("replay-stream", "mc-contended", "tird-mix")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 2
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode != 0:
        return 2

    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work", work,
               "--spans", os.path.join(build_dir, "spans")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log(f"perfbench: timed out after {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if proc.returncode not in (0, 1) or not valid:
        # No trustworthy result: show the output, but never as a last-line result.
        log(proc.stdout)
        log(f"perfbench: benchmark exited {proc.returncode} without a result")
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
