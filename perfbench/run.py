#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <serve_warm|campaign_cold|fault_drill>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench` (release) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one measured window,
and prints, as the last line of standard output, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The line before it is a
stamp of the machine and build the numbers came from. With `--trace 0`
the metrics are the end-to-end ones; `setup_s` is the median over
SETUP_SAMPLES set-ups, each in a fresh process so that no cache is warm.
With `--trace 1` they are the per-layer ones, and a Chrome trace is
written to perfbench/out/<workload>.trace.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve_warm", "campaign_cold", "fault_drill")
SETUP_SAMPLES = 7
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# What the built program is made from: a checkout is not always a git
# repository, so the stamp carries a digest of these as well.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if os.path.isfile(name) and not os.path.islink(name):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output(["rustc", "-V"]),
        "profile": "release",
        "commit": (output(["git", "rev-parse", "HEAD"])
                   if os.path.isdir(os.path.join(ROOT, ".git")) else "") or "none",
        "source_digest": source_digest(),
    }


def run(cmd, deadline):
    """Runs a child to completion (killing it at the deadline) and returns
    the JSON object on the last line of its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"exit {done.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        fail("--seconds must be 1..60 and --seed non-negative")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "perfbench")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    result = run([binary, "run", *common, "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--out-dir", os.path.join(BENCH_DIR, "out")], deadline)
    if args.trace == 0:
        # campaign_cold reports peak RSS after its cold warm-up campaign
        # (see `reported_rss` in src/main.rs), which every set-up repeats.
        medians = ["setup_s", "peak_rss_mb"] if args.workload == "campaign_cold" else ["setup_s"]
        samples = {name: [result["metrics"][name]["value"]] for name in medians}
        for _ in range(SETUP_SAMPLES - 1):
            setup = run([binary, "setup", *common], deadline)
            for name in medians:
                samples[name].append(setup[name])
        for name, values in samples.items():
            result["metrics"][name]["value"] = statistics.median(values)
            print(f"{name} samples: {', '.join(f'{v:.4f}' for v in values)}", file=sys.stderr)

    print(json.dumps({"stamp": stamp(args)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
