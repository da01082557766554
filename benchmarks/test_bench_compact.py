"""E17: the compact integer data plane vs the object-level kernels.

Pins the compact-plane claim: on the existing NL / PTIME chain
workloads, the array-backed Figure 5 kernel
(:func:`repro.solvers.fixpoint.fixpoint_bits`) is >= 3x faster than the
object-level reference :func:`fixpoint_relation`.  Every timed
computation is asserted equal to its reference, so the speedup never
comes at the price of a diverging answer.

Timing protocol: best-of-N per kernel on warm state (instances resident,
compact views and kernel plans built) -- the serving scenario the
kernel was built for.  Scheduler noise only ever adds seconds, so the
minimum is a robust per-kernel estimate and the ratio of aggregate
minima a robust speedup floor.
"""

import os
import time

import pytest

from repro.solvers.fixpoint import (
    FixpointTables,
    fixpoint_bits,
    fixpoint_relation,
)
from repro.workloads.generators import chain_instance

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: The headline gate: compact kernel vs the object-level reference.
COMPACT_SPEEDUP_FLOOR = 3.0

REPETITIONS = 60 if QUICK else 150
PASSES = 5

#: The existing incremental-layer chain workloads, one per C3 class the
#: compact fixpoint kernel serves.
FIXPOINT_WORKLOADS = [("RRX", "NL-complete"), ("RXRYRY", "PTIME-complete")]


def _best(callable_):
    best = float("inf")
    result = None
    for _ in range(PASSES):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_e17_compact_fixpoint_speedup():
    """fixpoint_bits >= 3x fixpoint_relation on the NL/PTIME chains."""
    object_seconds = 0.0
    compact_seconds = 0.0
    for query, _complexity in FIXPOINT_WORKLOADS:
        db = chain_instance(
            query, repetitions=REPETITIONS, conflict_every=4
        )
        tables = FixpointTables.build(query)
        fixpoint_bits(db, query, tables=tables)  # warm view + kernel plan
        best_object, n_object = _best(
            lambda: fixpoint_relation(db, query, tables=tables)
        )
        best_compact, n_compact = _best(
            lambda: fixpoint_bits(db, query, tables=tables)
        )
        assert n_compact.to_set() == n_object, (
            "compact kernel diverged on {}".format(query)
        )
        object_seconds += best_object
        compact_seconds += best_compact
    speedup = object_seconds / compact_seconds
    assert speedup >= COMPACT_SPEEDUP_FLOOR, (
        "expected >= {}x compact-fixpoint speedup, measured {:.1f}x "
        "(object {:.4f}s vs compact {:.4f}s)".format(
            COMPACT_SPEEDUP_FLOOR, speedup, object_seconds, compact_seconds
        )
    )


@pytest.mark.parametrize("query,_complexity", FIXPOINT_WORKLOADS)
def test_bench_e17_compact_fixpoint_per_solve(benchmark, query, _complexity):
    """Per-solve cost of the compact kernel on a warm instance."""
    db = chain_instance(query, repetitions=REPETITIONS, conflict_every=4)
    tables = FixpointTables.build(query)
    fixpoint_bits(db, query, tables=tables)
    n = benchmark(fixpoint_bits, db, query, tables)
    assert len(n) > 0
    assert n.to_set() == fixpoint_relation(db, query, tables=tables)


def test_bench_e17_compact_view_patch(benchmark):
    """O(delta) compact-view patching along a commit (vs full rebuild)."""
    from repro.db.delta import DeltaInstance
    from repro.db.facts import Fact

    db = chain_instance("RRX", repetitions=REPETITIONS, conflict_every=4)
    db.compact()
    fact = Fact("R", 3, 10 ** 6)

    def patch_once():
        overlay = DeltaInstance(db)
        overlay.insert_fact(fact)
        return overlay.commit().compact()

    view = benchmark(patch_once)
    assert view.local_of[10 ** 6] is not None
