"""E17: shard-warm async serving vs per-call solves; transport races.

The serving scenario of the PR 3 subsystem: a resident fleet of
databases behind the :class:`~repro.serving.server.AsyncCertaintyServer`,
receiving a mixed FO / NL-complete / PTIME-complete request stream that
keeps re-asking the same ``(instance, query)`` pairs.  The baseline
answers every request with a per-call solve through a warm plan cache
(PR 1's ``solve_batch``); the serving path answers from each shard's
maintained fixpoint state after one cold solve per distinct pair, and
coalesces identical concurrent requests inside micro-batches.  The
headline assertion pins the serving throughput at >= 2x the per-call
baseline (measured two to three orders of magnitude higher); answers are
verified equal along the stream.

PR 5 adds the **transport race**: the identical CPU-bound
forced-fixpoint stream through thread-per-shard (GIL-serialized) and
process-per-shard (parallel) transports, with the process path pinned at
>= 1.5x on multi-core machines (the gate self-skips on a single core,
where no parallelism dividend exists and only IPC overhead would be
measured).  The per-request round-trip cost of both transports is
recorded via pytest-benchmark, so ``BENCH_serving.json`` carries the
serving trajectory for ``tools/bench_report.py``.

``REPRO_BENCH_QUICK=1`` shrinks the fleet and the stream for the CI
smoke job; the >= 2x / >= 1.5x floors are the acceptance bounds either
way.
"""

import asyncio
import os

import pytest

from repro.serving import AsyncCertaintyServer
from repro.serving.bench import run_serving_benchmark, run_transport_benchmark
from repro.workloads.generators import chain_instance

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    CPUS = os.cpu_count() or 1

SPEEDUP_FLOOR = 2.0
NUM_INSTANCES = 3 if QUICK else 6
REPETITIONS = 12 if QUICK else 40
N_REQUESTS = 90 if QUICK else 240

TRANSPORT_FLOOR = 1.5
CPU_REPETITIONS = 1200 if QUICK else 3000
CPU_REQUESTS = 24 if QUICK else 48


def test_bench_serving_throughput_floor():
    """Shard-warm serving is >= 2x per-call solve_batch (the E17 claim)."""
    # Serving wall time is tiny (tens of microseconds per request), so a
    # scheduler hiccup inside the measured window could sink the ratio;
    # take the best of three passes.  Noise in the (much slower) naive
    # loop only overstates the baseline, which cannot fake a pass.
    best = None
    for _pass in range(3):
        report = run_serving_benchmark(
            num_shards=4,
            num_instances=NUM_INSTANCES,
            repetitions=REPETITIONS,
            n_requests=N_REQUESTS,
        )
        assert report["agrees"], "serving answers diverged from per-call"
        if best is None or report["speedup"] > best["speedup"]:
            best = report
        if best["speedup"] >= 10 * SPEEDUP_FLOOR:
            break
    assert best["speedup"] >= SPEEDUP_FLOOR, (
        "expected >= {}x shard-warm serving speedup, measured {:.1f}x "
        "(per-call {:.4f}s vs serving {:.4f}s over {} requests)".format(
            SPEEDUP_FLOOR,
            best["speedup"],
            best["naive_seconds"],
            best["serving_seconds"],
            best["requests"],
        )
    )


def test_bench_serving_stays_warm():
    """After the warm pass, no shard performs another cold solve."""
    report = run_serving_benchmark(
        num_shards=4,
        num_instances=NUM_INSTANCES,
        repetitions=REPETITIONS,
        n_requests=N_REQUESTS,
    )
    shards = report["server_stats"]["shards"]
    distinct_pairs = NUM_INSTANCES * 3  # every (instance, query) combination
    cold = sum(s["cold_solves"] for s in shards)
    assert cold == distinct_pairs, (
        "expected exactly one cold solve per distinct pair, got {} "
        "(distinct pairs: {})".format(cold, distinct_pairs)
    )
    # Every measured request was served warm -- from the maintained state
    # directly, or by fan-out from a coalesced companion's result.
    warm = sum(s["warm_hits"] for s in shards)
    coalesced = sum(s["coalesced"] for s in shards)
    assert warm + coalesced >= report["requests"]


@pytest.mark.skipif(
    CPUS < 2,
    reason="the process-parallelism gate needs >= 2 CPU cores; on one "
    "core both transports serialize and only IPC overhead is measured",
)
def test_bench_transport_process_parallelism_floor():
    """Process-per-shard >= 1.5x thread-per-shard on a CPU-bound stream.

    Every request forces a full Figure 5 kernel run (~8 ms at the
    default size), one large resident pinned per shard.  Threads share
    the GIL, so the stream serializes; processes divide it across
    cores.  Best of three passes, like the warm-serving gate: the
    process path's timed window is sensitive to scheduler noise.
    """
    num_shards = min(4, CPUS)
    best = None
    for _pass in range(3):
        report = run_transport_benchmark(
            num_shards=num_shards,
            repetitions=CPU_REPETITIONS,
            n_requests=CPU_REQUESTS,
        )
        assert report["agrees"], "transport answers diverged"
        if best is None or report["speedup"] > best["speedup"]:
            best = report
        if best["speedup"] >= 2 * TRANSPORT_FLOOR:
            break
    per = best["transports"]
    assert best["speedup"] >= TRANSPORT_FLOOR, (
        "expected >= {}x process-over-thread speedup on {} shards/"
        "{} cores, measured {:.2f}x (thread {:.4f}s vs process {:.4f}s "
        "over {} CPU-bound requests)".format(
            TRANSPORT_FLOOR,
            num_shards,
            CPUS,
            best["speedup"],
            per["thread"]["seconds"],
            per["process"]["seconds"],
            best["requests"],
        )
    )


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_bench_serving_roundtrip_recorded(benchmark, transport):
    """Record the warm per-request round trip of each transport.

    Not a gate -- a trajectory row: pytest-benchmark captures the cost
    of a 16-request warm burst through each transport (thread: queue
    hop; process: queue hop + one pipe message pair), and the CI
    ``bench-smoke`` job folds it into ``BENCH_serving.json`` /
    ``BENCH_report.md``.
    """
    server = AsyncCertaintyServer(
        num_shards=1, transport=transport, max_batch=32
    )
    server.start()

    async def warm():
        await server.register(
            "toy", chain_instance("RRX", repetitions=6, conflict_every=3)
        )
        return (await server.solve("toy", "RRX")).answer

    expected = asyncio.run(warm())

    def burst():
        async def go():
            results = await server.solve_many([("toy", "RRX")] * 16)
            assert all(r.answer is expected for r in results)

        asyncio.run(go())

    try:
        benchmark.pedantic(burst, rounds=10, iterations=1, warmup_rounds=1)
    finally:
        server.close()
