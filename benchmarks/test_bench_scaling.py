"""Scaling gates: a cold ``auto`` solve grows with the data as the paper says.

For one canonical query per class -- RXRX (FO), RRX (NL-complete),
RXRYRY (PTIME-complete) and ARRX (coNP-complete) -- a cold ``auto``
solve of ``chain_instance(q, ..., conflict_every=7)`` is timed at about
n, 4n and 16n facts.  Each size takes the best of three solves, each on
a freshly built instance, so the compact view and the kernel plans are
built inside the timing, as for an ad-hoc request.  The least-squares slope of
log(seconds) over log(facts) is gated at ``SLOPE_GATE``: a linear route
reads about 1.

``method="nl"`` on RRX runs the Claim 5 program itself, at small sizes
only.  Its binary ``cyclepath`` closure derives O(n²) tuples on these
chains, so its row is gated at ``NL_SLOPE_GATE`` -- quadratic plus a
margin for timing noise -- which catches an evaluator that grows worse
than its stated complexity.  ARRX runs the Figure 5 fixpoint prefilter,
then the falsifying-repair encoding and the CDCL solver on these certain
chains, which need no search decisions; its row is gated at
``SLOPE_GATE`` too, so encoding or unit propagation that grows worse
than linearly fails it.

Each test is one pytest-benchmark row (the cold solve at the largest
size) whose ``extra_info`` carries the slope, the gate and the per-size
timings; run with ``--benchmark-json BENCH_scaling.json`` to record them,
and ``tools/bench_report.py`` prints the slope column.
"""

import math
import os
import time

import pytest

from repro.engine import CertaintyEngine
from repro.workloads.generators import chain_instance

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Largest log-log slope a linear-time route may show.
SLOPE_GATE = 1.5

#: Largest log-log slope the quadratic Claim 5 route may show.
NL_SLOPE_GATE = 2.2

#: Facts in the smallest instance of a sweep (the others are 4x, 16x).
BASE_FACTS = 400 if QUICK else 1400

#: The Claim 5 program is quadratic on chains: keep its sweep small.
NL_BASE_FACTS = 40 if QUICK else 90

CONFLICT_EVERY = 7

ROWS = [
    # (query, method, base facts, slope gate)
    ("RXRX", "auto", BASE_FACTS, SLOPE_GATE),
    ("RRX", "auto", BASE_FACTS, SLOPE_GATE),
    ("RXRYRY", "auto", BASE_FACTS, SLOPE_GATE),
    # SAT dominates this row; half the sizes keep the sweep affordable.
    ("ARRX", "auto", BASE_FACTS // 2, SLOPE_GATE),
    ("RRX", "nl", NL_BASE_FACTS, NL_SLOPE_GATE),
]


def loglog_slope(xs, ys):
    """Least-squares slope of ``log(ys)`` over ``log(xs)``."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    covariance = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    return covariance / sum((a - mean_x) ** 2 for a in lx)


def chain_of(query, facts):
    """The ``conflict_every=7`` chain of *query* with about *facts* facts."""
    per_repetition = len(query) * (1 + 1 / CONFLICT_EVERY)
    repetitions = max(1, round(facts / per_repetition))
    return chain_instance(
        query, repetitions=repetitions, conflict_every=CONFLICT_EVERY
    )


def best_cold_seconds(engine, query, method, facts, rounds=3):
    """Best of *rounds* cold solves, each on a fresh instance."""
    best = float("inf")
    for _ in range(rounds):
        db = chain_of(query, facts)
        start = time.perf_counter()
        result = engine.solve(db, query, method=method)
        best = min(best, time.perf_counter() - start)
    return len(db), best, result


@pytest.mark.parametrize(
    "query,method,base,gate",
    ROWS,
    ids=["{}-{}".format(q, m) for q, m, _, _ in ROWS],
)
def test_bench_cold_scaling(benchmark, query, method, base, gate):
    engine = CertaintyEngine()
    # Compile the plan outside the timing: the sweep measures data cost.
    engine.solve(chain_of(query, 20), query, method=method)
    sizes, seconds = [], []
    for facts in (base, 4 * base, 16 * base):
        n_facts, best, result = best_cold_seconds(
            engine, query, method, facts
        )
        assert result.answer, (query, n_facts)
        sizes.append(n_facts)
        seconds.append(best)
    slope = loglog_slope(sizes, seconds)
    benchmark.extra_info.update(
        {
            "slope": round(slope, 3),
            "gate": gate,
            "route": result.method,
            "facts": sizes,
            "best_ms": [round(s * 1e3, 3) for s in seconds],
            "notes": "{} route, {}-{} facts".format(
                result.method, sizes[0], sizes[-1]
            ),
        }
    )
    benchmark.pedantic(
        engine.solve,
        setup=lambda: ((chain_of(query, 16 * base), query, method), {}),
        rounds=3,
    )
    assert slope <= gate, (
        "cold {} solve of {} grows with slope {:.2f} > {} "
        "(facts {}, best ms {})".format(
            method, query, slope, gate, sizes,
            [round(s * 1e3, 2) for s in seconds],
        )
    )
