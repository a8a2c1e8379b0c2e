#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own, against the crates in
`crates/`) in release mode, runs one workload with one worker thread per
core, checks the result against `BENCHMARK.json` and prints it. The last
line of standard output is the result object; the line before it carries
the run's metadata (nproc, threads, rustc, git SHA, source digest, seed,
run length, tail percentile) and the workload's own named metrics.
Exits non-zero, without a result, when the benchmark cannot be built or
its output does not match `BENCHMARK.json`; exits non-zero after printing
the result when an output failed its correctness check.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
WORKLOADS = ("home-days", "fleetd-resident", "adversary")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((HERE / "layers.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(layers["per_layer"]) != sorted(names):
        fail("perfbench/layers.json and BENCHMARK.json list different per-layer metrics")
    return spec


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += [
            p
            for p in (ROOT / top).rglob("*")
            if p.is_file() and "target" not in p.relative_to(ROOT).parts
        ]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    if not (ROOT / "crates").is_dir():
        fail("no crates/ next to perfbench/: run from a full checkout")
    cmd = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if rc != 0:
        fail("build failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has value {v!r}")
    return result


def main():
    args = parse_args()
    spec = load_spec()
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str((ROOT / env["CARGO_TARGET_DIR"]).resolve())
    binary = build(env)

    env["RAYON_NUM_THREADS"] = str(cores)
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    sha = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none"
    env["PERFBENCH_GIT_SHA"] = sha
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with {run.returncode}")
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = check_result(lines[-1], expected)
    print("\n".join(lines), flush=True)
    if run.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
