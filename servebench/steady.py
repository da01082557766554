"""Steadiness of the benchmark: repeat runs and report each metric's spread.

Usage, from the root of the repository::

    python3 servebench/steady.py --runs 10 --workloads thread,process

Runs ``run.py`` once per seed (``--first-seed`` upwards) and workload,
one run at a time, and prints per end-to-end metric its median, first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median``, and the bound ``BENCHMARK.json`` gives it.  A
spread at or above a third of the bound is marked ``WIDE``; ``setup_s``
has no spread bound, so it is never marked.  ``--json FILE`` also writes
every run's result line.  Exits 1 if a run fails, answers wrongly or
reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """One benchmark run in a subprocess; returns its result line."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            "run {} seed {} exited {}:\n{}".format(
                workload, seed, done.returncode, done.stderr[-8000:]
            )
        )
    return json.loads(lines[-1])


def spread(values):
    """Median, quartiles and ``(q3 - q1) / median`` of *values*."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    ok = True
    for workload in workloads:
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            result = run_once(workload, seed, seconds)
            results[workload].append(result)
            print("{} seed {}: {:.0f} s wall, attempted {}, failed {}, "
                  "correct {}".format(workload, seed,
                                      time.perf_counter() - start,
                                      result["attempted"], result["failed"],
                                      result["correct"]), flush=True)
            ok &= result["correct"] and result["failed"] == 0
    for workload, runs in results.items():
        if len(runs) < 2:
            continue
        print("\n{} ({} runs)".format(workload, len(runs)))
        print("{:<26} {:>11} {:>11} {:>11} {:>8} {:>6}".format(
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, width = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and width >= bound / 3:
                flag = " WIDE"
            print("{:<26} {:>11.4f} {:>11.4f} {:>11.4f} {:>7.1%} {:>6}{}".format(
                name, median, q1, q3, width,
                "" if bound is None else bound, flag))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
