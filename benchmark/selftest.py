#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Runs every workload end to end on tiny inputs, untraced twice (the second
run checks the stored input digest) and traced once, and checks each
result line against BENCHMARK.json: every gate passed, nothing failed, the
metric names and units are exactly the listed ones, and end-to-end values
are nonzero. It also checks that a stored input digest that differs fails
the run, and that the benchmark fails cleanly, printing no result, in a
directory holding only BENCHMARK.json and benchmark/.

    python3 benchmark/selftest.py      # from the repository root; ~20 s
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Every workload exercises every layer in its traced run (each drives the
# live stack too and runs both input generators), so each per-layer time is
# a measured, nonzero value. These counts must be
# nonzero as well.
TIME_UNITS = {"s", "us", "ns"}
NONZERO_COUNTS = ["synth.records", "sim.events", "http.cache_lookups",
                  "core.invalidations_generated", "core.sitelist_entries",
                  "net.messages_per_request", "obs.events_per_request"]


def check(condition, what):
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result(text, defs, trace, label):
    lines = text.strip().splitlines()
    check(lines, f"{label}: no output")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: a correctness gate failed")
    check(result["failed"] == 0, f"{label}: {result['failed']} failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    check(list(metrics) == [d["name"] for d in defs],
          f"{label}: metric names differ from BENCHMARK.json")
    for d in defs:
        metric = metrics[d["name"]]
        check(set(metric) == {"value", "unit"} and metric["unit"] == d["unit"],
              f"{label}: {d['name']} is {metric}")
        if not trace:
            check(metric["value"] > 0, f"{label}: {d['name']} is not positive")
    return metrics


def check_bare_checkout():
    """Without ../src the build must fail: nonzero exit, no result line."""
    bare = run.build_root() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.PACKAGE, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        ["python3", "benchmark/run.py", "--workload", "paper-tables", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"},
        timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "bare checkout: exit code 0")
    check('"correct"' not in done.stdout, "bare checkout: printed a result")


def check_digest_gate(binary, workload):
    """A stored digest that differs from this run's inputs fails the run."""
    stored = list((run.build_root() / "out" / "digests").glob(
        f"{workload}-tiny-seed{run.DEFAULT_SEED}-{run.source_key()}.txt"))
    check(len(stored) == 1, f"{workload}: no stored digest")
    good = stored[0].read_text()
    stored[0].write_text("0\n")
    try:
        code, text = run.run_workload(binary, workload, run.DEFAULT_SEED, 1, 0,
                                      "tiny")
    finally:
        stored[0].write_text(good)
    result = json.loads(text.strip().splitlines()[-1])
    check(code != 0 and result["correct"] is False and result["failed"] >= 1,
          f"{workload}: a differing stored digest did not fail the run")


def main():
    binary = run.build()
    check(binary is not None, "build failed")
    manifest = run.manifest()

    for workload in [w["name"] for w in manifest["workloads"]]:
        for trace, repeats in ((0, 2), (1, 1)):
            defs = manifest["per_layer" if trace else "end_to_end"]
            for _ in range(repeats):
                label = f"{workload} trace={trace}"
                code, text = run.run_workload(binary, workload,
                                              run.DEFAULT_SEED, 2, trace,
                                              "tiny")
                check(code == 0, f"{label}: exit {code}\n{text[-3000:]}")
                metrics = check_result(text, defs, trace, label)
            if trace:
                for d in defs:
                    if d["unit"] in TIME_UNITS or d["name"] in NONZERO_COUNTS:
                        check(metrics[d["name"]]["value"] > 0,
                              f"{label}: {d['name']} is zero")
            print(f"ok  {label}")

    check_digest_gate(binary, "write-storm")
    print("ok  a differing stored input digest fails the run")
    check_bare_checkout()
    print("ok  bare checkout fails without printing a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
