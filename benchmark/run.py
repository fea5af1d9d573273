#!/usr/bin/env python3
"""Builds and runs the webcc benchmark.

One workload per invocation, in its own process:

    python3 benchmark/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
benchmark/ (which compiles ../src) in Release mode under .bench_build/
(or $CARGO_TARGET_DIR when set); later calls rebuild incrementally. The
last line of stdout is the result JSON, holding exactly the metrics
BENCHMARK.json lists for the mode; the exit code is nonzero when the build
fails or any correctness gate fails.

    --all   every workload at the default seed, untraced then traced, each
            in its own process, then a summary of every end-to-end metric
            by name and unit
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
# The seed for everyday runs, and the held-out seed on which a claimed gain
# must also hold; use the latter for nothing else.
DEFAULT_SEED = 1
HELD_OUT_SEED = 977


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_root() / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "webcc_benchmark",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"error: benchmark build failed: {' '.join(step)}\n")
            return None
    return out / "webcc_benchmark"


def source_key():
    """Hash of every source the inputs can depend on: a stored input digest
    is only compared against runs of the same generator code."""
    sha = hashlib.sha256()
    for tree in (ROOT / "src", PACKAGE / "src"):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_digest(workload, seed, size, digest):
    """The inputs of one seed must be identical from process to process.
    Stores the first digest seen for this workload, size, seed and source
    tree; returns a gate failure or None."""
    folder = build_root() / "out" / "digests"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-{size}-seed{seed}-{source_key()}.txt"
    if path.exists():
        stored = path.read_text().strip()
        if stored != digest:
            return (f"input digest {digest} differs from {stored}, stored by "
                    f"an earlier run of the same seed and sources")
        return None
    path.write_text(digest + "\n")
    return None


def run_workload(binary, workload, seed, seconds, trace, size):
    """Runs one workload in its own process and checks its result line
    against BENCHMARK.json. Returns (exit code, report text ending in the
    result JSON); the text has no result when the driver printed none."""
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size,
            "--out-dir", str(build_root() / "out")]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        return (done.returncode or 1), done.stdout

    defs = manifest()["per_layer" if trace else "end_to_end"]
    measured = raw["metrics"]
    failures = []
    for d in defs:
        metric = measured.get(d["name"])
        if metric is None:
            failures.append(f"metric {d['name']} was not measured")
        elif metric["unit"] != d["unit"]:
            failures.append(f"metric {d['name']} is in {metric['unit']}, "
                            f"BENCHMARK.json says {d['unit']}")
    listed = {d["name"] for d in defs}
    failures += [f"metric {name} is not in BENCHMARK.json"
                 for name in measured if name not in listed]
    digest_failure = check_digest(workload, seed, size, raw["input_digest"])
    if digest_failure:
        failures.append(digest_failure)

    result = {
        "correct": raw["correct"] and not failures,
        "attempted": raw["attempted"],
        "failed": raw["failed"] + len(failures),
        "metrics": {d["name"]: measured[d["name"]] for d in defs
                    if d["name"] in measured},
    }
    report = lines[:-1] + [f"# GATE FAILED: {f}" for f in failures]
    report.append(json.dumps(result))
    code = done.returncode or (1 if failures else 0)
    return code, "\n".join(report) + "\n"


def run_all(binary, seconds, size):
    failed = False
    summary = []
    for workload in [w["name"] for w in manifest()["workloads"]]:
        for trace in (0, 1):
            code, text = run_workload(binary, workload, DEFAULT_SEED, seconds,
                                      trace, size)
            sys.stdout.write(text)
            failed |= code != 0
            if trace == 0 and code == 0:
                summary.append((workload,
                                json.loads(text.strip().splitlines()[-1])))
    print("\n# end-to-end summary (seed %d)" % DEFAULT_SEED)
    for workload, result in summary:
        for name, metric in result["metrics"].items():
            print(f"{workload:14s} {name:16s} {metric['value']:14.6g} "
                  f"{metric['unit']}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()

    seconds = args.seconds or manifest()["run_seconds"]
    binary = build()
    if binary is None:
        return 2
    if args.all:
        return run_all(binary, seconds, args.size)
    if not args.workload:
        parser.error("--workload is required (or --all)")
    code, text = run_workload(binary, args.workload, args.seed, seconds,
                              args.trace, args.size)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
