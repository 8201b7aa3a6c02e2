#!/usr/bin/env python3
# Copyright 2026 The updb Authors.
"""Builds the benchmark program from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mixed_openloop --seed 1 \
        --seconds 20 --trace 0

The benchmark binary is built (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; after every build the
program's self-tests run once. The workload's parameters come from
perfbench/workloads.json ("common" merged with the workload's own entry).
The last line of standard output is the run's JSON result. Exit codes: the
program's own (0 ok, 1 a correctness check failed), 2 bad arguments, 3 build
failed, 4 self-tests failed, 5 the run timed out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Keys of workloads.json that describe a workload rather than parameterise it.
DESCRIPTIVE = {"why", "measured_repeat_share", "measured_cache_hit_share"}
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "updb_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "updb_perfbench")


def file_digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        log("unknown workload %r; known: %s"
            % (args.workload, ", ".join(sorted(spec["workloads"]))))
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    if binary is None or not os.path.exists(binary):
        log("perfbench: build failed")
        return 3
    build_id = file_digest(binary)
    stamp = os.path.join(build_dir, "selftest.ok")
    if not (os.path.exists(stamp) and open(stamp).read() == build_id):
        if subprocess.run([binary, "--selftest"], stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            log("perfbench: self-tests failed")
            return 4
        with open(stamp, "w") as f:
            f.write(build_id)

    params = dict(spec["common"])
    params.update(spec["workloads"][args.workload])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state_dir=" + os.path.join(build_dir, "state"),
           "--build_id=" + build_id]
    for key, value in sorted(params.items()):
        if key not in DESCRIPTIVE:
            cmd.append("--%s=%s" % (key, value))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run timed out")
        return 5


if __name__ == "__main__":
    sys.exit(main())
