"""Lone-read latency: what the serving path adds to a warm engine call.

A lone warm read through :class:`~repro.serving.AsyncCertaintyServer`
on the thread transport -- admission, the shard queue, batch assembly,
the :class:`~repro.serving.shard.ShardCore` op and the reply hop back
onto the event loop -- is timed against the bare engine call the shard
makes for it, ``engine.solve_delta(db, EMPTY_DELTA, q)``.  The two arms
alternate call by call on one warm ``chain_instance("RRX",
repetitions=300, conflict_every=7)`` resident, so drift on the machine
hits both alike.  The gate is absolute: the p50 of the server arm may
exceed the p50 of the engine arm by at most ``GATE_MS``.  An idle shard
dispatches at once, so the difference is the queue and loop hops, well
under a tenth of a millisecond; a batcher that waited for companions
would add its whole window to every lone read.

The row's ``extra_info`` carries both p50s, their difference and the
gate; run with ``--benchmark-json BENCH_latency.json`` to record them.

``test_bench_unchanged_read`` gates the engine call itself.  A read of
an unchanged resident returns the answer stored on its maintained
state, so on the coNP route -- Figure 3 gadgets of about 500, 2,000 and
8,000 facts, whose "no" comes from SAT, and a certain ARRX chain, whose
"yes" does too -- warm reads make no ``IncrementalSatContext.solve``
and no ``FixpointState.compute`` call, and their p50 does not grow with
the resident: the log-log slope over the gadget sizes (the fit of
``test_bench_scaling.py``) is at most ``UNCHANGED_SLOPE_GATE``.  A
re-solve per read grows about linearly.
"""

import asyncio
import random
import statistics
import time

from test_bench_scaling import loglog_slope

from repro.engine import CertaintyEngine
from repro.serving import AsyncCertaintyServer
from repro.serving.shard import EMPTY_DELTA
from repro.solvers.fixpoint import FixpointState
from repro.solvers.sat_encoding import IncrementalSatContext
from repro.workloads.generators import chain_instance, hardness_gadget_instance

QUERY = "RRX"

#: Alternating (engine, server) pairs timed.
READS = 400

#: Largest p50 latency, in ms, the serving path may add to the engine.
GATE_MS = 0.5

#: Gadget branches per resident: about 500, 2,000 and 8,000 facts.
GADGET_BRANCHES = (62, 250, 1000)

#: Timed reads per resident once it is warm.
UNCHANGED_READS = 200

#: Largest log-log slope of the warm-read p50 over the resident size.
UNCHANGED_SLOPE_GATE = 0.2


def test_bench_lone_read_latency(benchmark):
    db = chain_instance(QUERY, repetitions=300, conflict_every=7)
    engine = CertaintyEngine()
    expected = engine.solve_delta(db, EMPTY_DELTA, QUERY).answer

    async def alternate():
        engine_s, server_s = [], []
        async with AsyncCertaintyServer(num_shards=1) as server:
            await server.register("chain", db)
            await server.solve("chain", QUERY)  # install the warm state
            for _ in range(READS):
                start = time.perf_counter()
                engine.solve_delta(db, EMPTY_DELTA, QUERY)
                mid = time.perf_counter()
                result = await server.solve("chain", QUERY)
                server_s.append(time.perf_counter() - mid)
                engine_s.append(mid - start)
                assert result.answer is expected
        return engine_s, server_s

    engine_s, server_s = benchmark.pedantic(
        lambda: asyncio.run(alternate()), rounds=1, iterations=1
    )
    engine_ms = statistics.median(engine_s) * 1e3
    server_ms = statistics.median(server_s) * 1e3
    added_ms = server_ms - engine_ms
    benchmark.extra_info.update(
        {
            "facts": len(db),
            "reads": READS,
            "engine_p50_ms": round(engine_ms, 4),
            "server_p50_ms": round(server_ms, 4),
            "added_p50_ms": round(added_ms, 4),
            "gate": GATE_MS,
            "notes": "lone read p50 {:.3f} ms vs engine {:.3f} ms "
            "(added {:.3f} <= {} ms)".format(
                server_ms, engine_ms, added_ms, GATE_MS
            ),
        }
    )
    assert added_ms <= GATE_MS, (
        "a lone warm read took {:.3f} ms at p50 against {:.3f} ms for the "
        "bare engine call: the serving path added {:.3f} ms > {} ms".format(
            server_ms, engine_ms, added_ms, GATE_MS
        )
    )


def test_bench_unchanged_read(benchmark, monkeypatch):
    rng = random.Random(26)
    residents = [
        ("gadget", hardness_gadget_instance(rng, branches, 0), False)
        for branches in GADGET_BRANCHES
    ]
    residents.append(("chain", chain_instance("ARRX", repetitions=500), True))
    engine = CertaintyEngine()
    for _kind, db, expected in residents:
        # The first read decides (fixpoint prefilter, then SAT) and
        # stores the answer on the state; the second is already warm.
        for _ in range(2):
            result = engine.solve_delta(db, EMPTY_DELTA, "ARRX")
            assert result.answer is expected

    calls = {"sat": 0, "compute": 0}
    solve = IncrementalSatContext.solve
    compute = FixpointState.__dict__["compute"].__func__

    def counted_solve(ctx):
        calls["sat"] += 1
        return solve(ctx)

    def counted_compute(cls, *args, **kwargs):
        calls["compute"] += 1
        return compute(cls, *args, **kwargs)

    monkeypatch.setattr(IncrementalSatContext, "solve", counted_solve)
    monkeypatch.setattr(FixpointState, "compute", classmethod(counted_compute))

    rows = []
    for kind, db, expected in residents:
        samples = []
        for _ in range(UNCHANGED_READS):
            start = time.perf_counter()
            result = engine.solve_delta(db, EMPTY_DELTA, "ARRX")
            samples.append(time.perf_counter() - start)
            assert result.answer is expected
        rows.append((kind, len(db), statistics.median(samples)))
    gadgets = [(facts, p50) for kind, facts, p50 in rows if kind == "gadget"]
    slope = loglog_slope([f for f, _ in gadgets], [p for _, p in gadgets])
    largest = residents[len(GADGET_BRANCHES) - 1][1]
    benchmark.pedantic(
        engine.solve_delta,
        args=(largest, EMPTY_DELTA, "ARRX"),
        rounds=UNCHANGED_READS,
    )
    facts = [n for _kind, n, _p50 in rows]
    p50_ms = [round(p50 * 1e3, 4) for _kind, _n, p50 in rows]
    benchmark.extra_info.update(
        {
            "facts": facts,
            "p50_ms": p50_ms,
            "reads": UNCHANGED_READS,
            "sat_solves": calls["sat"],
            "fixpoint_computes": calls["compute"],
            "slope": round(slope, 3),
            "gate": UNCHANGED_SLOPE_GATE,
            "notes": "warm coNP read p50 {} ms at {} facts (gadgets, then "
            "a certain chain); slope {:.3f} <= {}".format(
                p50_ms, facts, slope, UNCHANGED_SLOPE_GATE
            ),
        }
    )
    assert calls == {"sat": 0, "compute": 0}, calls
    assert slope <= UNCHANGED_SLOPE_GATE, (
        "warm reads of unchanged residents grow with slope {:.2f} > {} "
        "(facts {}, p50 ms {})".format(
            slope, UNCHANGED_SLOPE_GATE, facts, p50_ms
        )
    )
