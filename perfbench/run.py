#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload compile_suite|dse_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The scheduler libraries and the
benchmark program cs_perfbench are built from source into
.bench_build/ (Release), then cs_perfbench runs the workload. The last
line of standard output is the JSON result; the line before it stamps
the result with the core count, build type, compiler and source
revision. The metric set is
checked against BENCHMARK.json: a missing, unknown or (end-to-end)
zero metric fails the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("compile_suite", "dse_sweep")


def die(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def source_revision(root):
    """Git revision when available, else a hash of the source tree."""
    try:
        if not os.path.exists(os.path.join(root, ".git")):
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src:" + digest.hexdigest()[:16]


def build(root):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cs_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (see %s)" % log_path)
    return os.path.join(BUILD_DIR, "cs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = "."
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        die("no scheduler sources under ./src: run from a checkout root", 2)
    if not os.path.exists(spec_path):
        die("no BENCHMARK.json in the current directory", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    if not 1 <= args.seconds <= 60:
        die("--seconds must be between 1 and 60", 2)

    binary = build(root)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", root, "--scratch", SCRATCH_DIR],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("cs_perfbench did not finish within 170 s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        die("cs_perfbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("cs_perfbench printed no result")

    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    unknown = sorted(set(metrics) - set(expected))
    if missing or unknown:
        die("metric set differs from BENCHMARK.json: missing %s, unknown %s"
            % (missing, unknown))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            die("metric %s has unit %s, BENCHMARK.json says %s"
                % (name, metrics[name]["unit"], unit))
        if not args.trace and not metrics[name]["value"] > 0:
            die("end-to-end metric %s is %r" % (name, metrics[name]["value"]))

    print(json.dumps({"stamp": {"revision": source_revision(root),
                                "nproc": os.cpu_count()}}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
