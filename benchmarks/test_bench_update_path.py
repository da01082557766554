"""The update path end-to-end: three legs, three pinned speedups.

One benchmark per leg of the fast update path, each differential (the
fast leg must produce the same answers as its baseline) and each gated:

* **incremental SAT** -- assumption-keyed clause-group reuse
  (:class:`IncrementalSatContext.apply_delta` + ``solve``) >= 2x
  rebuilding the context from scratch on every step;
* **generalized maintenance** -- ``solve_delta`` on a Section 8
  constant-carrying query through the maintained
  :class:`~repro.solvers.generalized_solver.GeneralizedState` >= 5x a
  warm full re-solve per update;
* **shm snapshots** -- registering a large resident on a
  :class:`ProcessTransport` via shared-memory segments >= 1.5x the
  pickled-frame path.

``REPRO_BENCH_QUICK=1`` shrinks streams and relaxes floors for the CI
smoke job (small samples on shared runners are noisy; the full
benchmark asserts the real bounds).  CI records the timings as
``BENCH_update_path.json``; ``tools/bench_report.py`` folds them into
``BENCH_report.md``.
"""

import os
import random
import time

import pytest

from repro.db.delta import Delta, DeltaInstance
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.queries.generalized import GeneralizedPathQuery
from repro.serving import ShardRequest
from repro.serving.transport import ProcessTransport
from repro.solvers.sat_encoding import IncrementalSatContext
from repro.workloads.generators import (
    chain_instance,
    hardness_gadget_instance,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Full-mode floors are the PR's acceptance gates; quick mode relaxes
#: them for noisy shared runners, as the other benchmark suites do.
SAT_FLOOR = 1.5 if QUICK else 2.0
GENERALIZED_FLOOR = 2.0 if QUICK else 5.0
SHM_FLOOR = 1.2 if QUICK else 1.5

SAT_BRANCHES = 8 if QUICK else 16
SAT_UPDATES = 12 if QUICK else 30
GEN_REPETITIONS = 30 if QUICK else 60
GEN_UPDATES = 16 if QUICK else 40
SHM_FACTS = 15_000 if QUICK else 60_000
SHM_CONSTANTS = 800 if QUICK else 2_000
SHM_REGISTRATIONS = 2 if QUICK else 3

#: Timing-noise discipline shared with ``test_bench_incremental``: the
#: fast leg is the minimum over this many identical passes (noise only
#: adds seconds); the slow baseline is timed once (noise there only
#: overstates it, which cannot produce a false failure).
PASSES = 3


# ----------------------------------------------------------------------
# Leg 1: incremental SAT under assumptions vs rebuild-from-scratch
# ----------------------------------------------------------------------


def _sat_stream(rng, db, n_updates):
    """Single-fact inserts riding on a coNP hardness gadget."""
    steps = []
    current = db
    for i in range(n_updates):
        overlay = DeltaInstance(current)
        overlay.insert_fact(
            Fact(rng.choice("ARX"), "n{}".format(i), "m{}".format(i))
        )
        new_db = overlay.commit()
        steps.append(
            (new_db, list(overlay.added_facts), list(overlay.removed_facts))
        )
        current = new_db
    return steps


def test_bench_incremental_sat_speedup():
    """Assumption reuse >= 2x re-encoding the CNF on every delta."""
    rng = random.Random(0xBE7)
    db = hardness_gadget_instance(rng, SAT_BRANCHES, 0, query="ARRX")
    steps = _sat_stream(rng, db, SAT_UPDATES)

    incremental_seconds = float("inf")
    for _pass in range(PASSES):
        ctx = IncrementalSatContext(db, "ARRX")
        ctx.solve()  # load the base encoding outside the timed window
        answers_incremental = []
        start = time.perf_counter()
        for new_db, added, removed in steps:
            ctx.apply_delta(new_db, added, removed)
            answers_incremental.append(ctx.solve().answer)
        incremental_seconds = min(
            incremental_seconds, time.perf_counter() - start
        )
    assert ctx.last_reused > 0  # the chain genuinely reused groups

    start = time.perf_counter()
    answers_rebuild = [
        IncrementalSatContext(new_db, "ARRX").solve().answer
        for new_db, _added, _removed in steps
    ]
    rebuild_seconds = time.perf_counter() - start

    assert answers_incremental == answers_rebuild

    speedup = rebuild_seconds / incremental_seconds
    assert speedup >= SAT_FLOOR, (
        "expected >= {}x incremental-SAT speedup, measured {:.1f}x "
        "(rebuild {:.4f}s vs incremental {:.4f}s over {} deltas)".format(
            SAT_FLOOR,
            speedup,
            rebuild_seconds,
            incremental_seconds,
            len(steps),
        )
    )


# ----------------------------------------------------------------------
# Leg 2: generalized-query maintenance vs warm full re-solve
# ----------------------------------------------------------------------


def _generalized_stream(query, repetitions, n_updates):
    """Alternating insert/remove single-fact updates on a chain."""
    db = chain_instance(query, repetitions=repetitions, conflict_every=4)
    n_nodes = repetitions * len(query)
    steps = []
    current = db
    for i in range(n_updates):
        position = (7 * i) % (n_nodes - 1)
        branch = Fact(
            query[position % len(query)], position, n_nodes + 100 + i
        )
        delta = (
            Delta.inserting(branch)
            if i % 2 == 0
            else Delta.removing(steps[-1][1].inserts[0])
        )
        updated = delta.apply_to(current).commit()
        steps.append((current, delta, updated))
        current = updated
    return db, steps


def test_bench_generalized_delta_speedup():
    """Generalized solve_delta >= 5x a warm full re-solve per update."""
    query = "RXRYRY"
    db, steps = _generalized_stream(query, GEN_REPETITIONS, GEN_UPDATES)
    # Terminal constant pins char(q) = the whole word: the decision
    # rides the maintained ext(q) fixpoint, the Lemma 29 route.
    gq = GeneralizedPathQuery(
        query, {len(query): GEN_REPETITIONS * len(query) // 2}
    )

    incremental_seconds = float("inf")
    for _pass in range(PASSES):
        incremental = CertaintyEngine()
        incremental.solve_delta(steps[0][0], Delta(), gq)  # warm state
        start = time.perf_counter()
        results_incremental = [
            incremental.solve_delta(base, delta, gq)
            for base, delta, _updated in steps
        ]
        incremental_seconds = min(
            incremental_seconds, time.perf_counter() - start
        )
    assert incremental.stats.incremental_hits >= len(steps)

    full = CertaintyEngine()
    full.solve(steps[0][0], gq)  # warm the compiled plan
    start = time.perf_counter()
    results_full = [
        full.solve(updated, gq) for _base, _delta, updated in steps
    ]
    full_seconds = time.perf_counter() - start

    assert [r.answer for r in results_incremental] == [
        r.answer for r in results_full
    ]

    speedup = full_seconds / incremental_seconds
    assert speedup >= GENERALIZED_FLOOR, (
        "expected >= {}x generalized delta speedup, measured {:.1f}x "
        "(full {:.4f}s vs incremental {:.4f}s over {} updates)".format(
            GENERALIZED_FLOOR,
            speedup,
            full_seconds,
            incremental_seconds,
            len(steps),
        )
    )


# ----------------------------------------------------------------------
# Leg 3: shared-memory snapshot shipping vs pickled frames
# ----------------------------------------------------------------------


def _large_resident():
    """A dense random graph over *string* constants.

    Shm shipping pays off where the pickled frame is fat: repeated
    symbolic constants, many facts per block.  The flat-int stream
    ships each string once in the symbol tables and pure ints after
    (~3x smaller frames than pickle on this shape).
    """
    rng = random.Random(3)
    constants = ["n{:05d}".format(i) for i in range(SHM_CONSTANTS)]
    triples = set()
    while len(triples) < SHM_FACTS:
        triples.add(
            ("RX"[rng.random() < 0.5], rng.choice(constants),
             rng.choice(constants))
        )
    return DatabaseInstance.from_triples(sorted(triples))


def test_bench_shm_snapshot_speedup():
    """shm registration >= 1.5x the pickled-frame path, same answers."""
    db = _large_resident()

    def measure(shm_threshold):
        transport = ProcessTransport(0, shm_threshold=shm_threshold)
        transport.start()
        try:
            # Warm the child (interpreter import + first-batch costs).
            warm = ShardRequest(
                "register",
                name="warm",
                db=chain_instance("RRX", repetitions=2),
            )
            transport.execute([warm])
            assert warm.error is None
            best = float("inf")
            for _pass in range(PASSES):
                start = time.perf_counter()
                for i in range(SHM_REGISTRATIONS):
                    request = ShardRequest(
                        "register", name="big{}".format(i), db=db
                    )
                    transport.execute([request])
                    assert request.error is None
                best = min(best, time.perf_counter() - start)
            solve = ShardRequest("solve", name="big0", query="RX")
            transport.execute([solve])
            health = transport.health()
            return best, solve.result.answer, health
        finally:
            transport.stop()

    shm_seconds, shm_answer, shm_health = measure(0)
    pickle_seconds, pickle_answer, pickle_health = measure(None)

    assert shm_answer == pickle_answer
    assert shm_health["snapshot_shm"] > 0
    assert pickle_health["snapshot_shm"] == 0

    speedup = pickle_seconds / shm_seconds
    assert speedup >= SHM_FLOOR, (
        "expected >= {}x shm registration speedup, measured {:.1f}x "
        "(pickle {:.4f}s vs shm {:.4f}s for {} registrations of {} "
        "facts)".format(
            SHM_FLOOR,
            speedup,
            pickle_seconds,
            shm_seconds,
            SHM_REGISTRATIONS,
            len(db.facts),
        )
    )


# ----------------------------------------------------------------------
# Recorded per-operation timings (pytest-benchmark, BENCH_update_path)
# ----------------------------------------------------------------------


def test_bench_incremental_sat_per_delta(benchmark):
    rng = random.Random(0xBE7)
    db = hardness_gadget_instance(rng, SAT_BRANCHES, 0, query="ARRX")
    steps = _sat_stream(rng, db, SAT_UPDATES)
    ctx = IncrementalSatContext(db, "ARRX")
    ctx.solve()
    cursor = {"i": 0}

    def delta_solve_once():
        new_db, added, removed = steps[cursor["i"] % len(steps)]
        cursor["i"] += 1
        if cursor["i"] <= len(steps):
            ctx.apply_delta(new_db, added, removed)
        return ctx.solve()

    result = benchmark(delta_solve_once)
    assert result.answer is not None


def test_bench_generalized_delta_per_update(benchmark):
    query = "RXRYRY"
    _db, steps = _generalized_stream(query, GEN_REPETITIONS, GEN_UPDATES)
    gq = GeneralizedPathQuery(
        query, {len(query): GEN_REPETITIONS * len(query) // 2}
    )
    engine = CertaintyEngine()
    engine.solve_delta(steps[0][0], Delta(), gq)
    cursor = {"i": 0}

    def update_once():
        base, delta, _updated = steps[cursor["i"] % len(steps)]
        cursor["i"] += 1
        return engine.solve_delta(base, delta, gq)

    result = benchmark(update_once)
    assert result.method == "generalized"
