#!/usr/bin/env python3
"""Builds and runs the benchmark of record.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The engine and the benchmark are built from
source (Release) into $CARGO_TARGET_DIR (default .bench_build) under the
checkout, and the benchmark's scratch files (span dumps, a copy of every
run's report) go there too. The last line of stdout is the JSON result; its
metric names are checked against BENCHMARK.json.

    python3 perfbench/run.py --test     builds and runs the benchmark's own tests
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/; nothing to build")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j", "3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if argv == ["--test"]:
        out = build("perfbench_test")
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode
    try:
        out = build("perfbench")
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"build failed: {e}")
        return 2
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    workdir = os.path.join(os.path.dirname(out), "perfbench-run")
    proc = subprocess.run(
        [os.path.join(out, "perfbench"), *argv, "--workdir", workdir],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)
    tag = "-".join(a.lstrip("-") for a in argv)
    with open(os.path.join(workdir, "results", tag + ".txt"), "w") as f:
        f.write(proc.stdout)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    result = json.loads(lines[-1])
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        log(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
