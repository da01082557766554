"""Self-check of the serving benchmark on tiny inputs.

Runs ``run.py --tiny`` in a subprocess (the traced run patches classes
of ``repro`` and must not do so inside the test process) and checks the
result line against ``BENCHMARK.json``: every metric named there is
printed with its unit, every answer matched the oracle and no operation
failed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    # Both gated workloads untraced; the ungated process transport traced,
    # which also covers the wrappers its shard processes install.
    [("thread", 0), ("thread-small", 0), ("process", 1)],
)
def test_tiny_run_prints_every_metric(workload, trace):
    bench = _bench()
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails and
    prints no result."""
    bench_dir = tmp_path / "servebench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src:
                (bench_dir / name).write_text(src.read())
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "thread",
         "--seed", "1", "--seconds", "1"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
