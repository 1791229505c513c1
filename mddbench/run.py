#!/usr/bin/env python3
"""Builds openmdd and the mddbench program, then runs one workload.

    python3 mddbench/run.py --workload cold_g1k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, next to the cached inputs. The
last line of standard output is the result object; see mddbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_g1k", "volume_g1k", "served_g200")
RUN_LIMIT_S = 170  # generation plus measurement must end within 180 s


def log(*parts):
    print("mddbench:", *parts, file=sys.stderr, flush=True)


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "mddbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "--target", "mddbench",
                    "openmdd_serve", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=850)


def complete_metrics(root, workload, trace, metrics):
    """Checks the printed metrics against BENCHMARK.json. A traced run
    reports 0 for each layer the workload's path never enters. A workload
    that BENCHMARK.json does not list (served_g200, see README.md) prints
    its own metric set unchecked."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if workload not in {w["name"] for w in bench["workloads"]}:
        return True
    spec = bench["per_layer" if trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in spec}
    missing = [m for m in spec if m["name"] not in metrics]
    if unknown or (missing and not trace):
        log("metrics differ from BENCHMARK.json:",
            sorted(unknown | {m["name"] for m in missing}))
        return False
    for m in missing:
        metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    base = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    build_dir = os.path.join(base, "mddbench-build")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        log("build failed:", err)
        return 2
    started = time.monotonic()  # the first run's build has its own limit
    binary = os.path.join(build_dir, "mddbench")
    serve = os.path.join(build_dir, "openmdd", "tools", "openmdd_serve")

    data = os.path.join(base, "mddbench-data",
                        f"{args.workload}-s{args.seed}-n{args.seconds}")
    if not os.path.exists(os.path.join(data, "cases.json")):
        gen = subprocess.run(
            [binary, "gen", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--circuits",
             os.path.join(base, "mddbench-data", "circuits"), "--data", data],
            stdout=sys.stderr, timeout=300)
        if gen.returncode != 0:
            log("input generation failed")
            return 2

    work = os.path.join(base, "mddbench-runs",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        run = subprocess.run(
            [binary, "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--data", data, "--work", work, "--serve",
             serve, "--source-id", source_id(root)],
            stdout=subprocess.PIPE, text=True, timeout=max(remaining, 30))
    except subprocess.TimeoutExpired:
        log("run exceeded its time limit")
        return 3
    lines = run.stdout.strip().splitlines()
    if not lines:
        log("no result")
        return 3
    result = json.loads(lines[-1])
    if not complete_metrics(root, args.workload, args.trace,
                            result["metrics"]):
        return 3
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
