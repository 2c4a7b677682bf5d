#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the library it
links, from the checkout's own sources) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the binary and turns its
PERFBENCH_RESULT line into the result BENCHMARK.json describes: with
--trace 0 every end_to_end metric, with --trace 1 every per_layer metric
(a layer the workload does not run reports 0). The binary's own report
(stage table, fingerprint, check failures) is printed above that last
line. The traced run also writes Chrome trace-event JSON next to the build.

Exits 1 when an output check fails (the result still printed, with
"correct": false), and exits 1 printing no result when the build fails
or the binary fails or times out.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the binary is built from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                     text=True, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if out.returncode != 0:
                sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
        else:
            print(line)
    if result is None or out.returncode not in (0, 1) or \
            (out.returncode == 1) == result["correct"]:
        fail("%s failed (exit %d)" % (args.workload, out.returncode))

    measured = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("%s did not measure %s" % (args.workload, m["name"]))
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail("%s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    info = dict(result["info"])
    if absent:
        info["layers not run (reported as 0)"] = " ".join(absent)
    print("fingerprint " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    # A failed output check fails the run, with its result still printed.
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
