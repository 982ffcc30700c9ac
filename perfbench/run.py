#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload (README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (the library from src/ plus the benchmark binary) in
.bench_build/; later calls only rebuild what changed. The binary's
standard output is passed through; its last line is the result object,
which is checked here against the metric lists in BENCHMARK.json. Exits
non-zero, without a result line, when the build, the run or that check
fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dosn_perfbench")


def run_timeout_s(seconds):
    """The binary's time limit: its rounds measure for `seconds`, and its
    set-up, traced pass and one-thread reruns take a fixed time besides
    (about 70 s at most on a 4-core box). 175 s at --seconds 10."""
    return 145 + 3 * seconds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool rebuild what changed."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch files here
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def source_id():
    """The commit when this is a git checkout, plus a digest of the
    library and benchmark sources (a checkout without git has only that)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return f"commit:{commit} sources:{digest.hexdigest()[:16]}"


def check_result(line, trace):
    """The result line carries exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        differ = sorted(set(got.items()) ^ set(expected.items()))
        fail(f"metrics differ from BENCHMARK.json: {differ}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source_id()]
    # The library reads DOSN_* knobs (threads, steal grain, obs) from the
    # environment; none may leak into a run. The binary passes thread
    # counts explicitly and every other knob keeps its default.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOSN_")}
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:g} s")  # run() killed and reaped it
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark binary exited with code {run.returncode}")
    check_result(lines[-1], args.trace)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
