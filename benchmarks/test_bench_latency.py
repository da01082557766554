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
"""

import asyncio
import statistics
import time

from repro.engine import CertaintyEngine
from repro.serving import AsyncCertaintyServer
from repro.serving.shard import EMPTY_DELTA
from repro.workloads.generators import chain_instance

QUERY = "RRX"

#: Alternating (engine, server) pairs timed.
READS = 400

#: Largest p50 latency, in ms, the serving path may add to the engine.
GATE_MS = 0.5


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
