"""Liveness: every request the serving layer admits ends.

Two bounded checks on the thread transport, where a request was once
seen to stay unanswered with every shard thread idle:

* a mixed stream on a two-shard server -- ad-hoc solves on freshly
  relabeled instances, resident reads and deltas, up to 64 in flight --
  in which every request must resolve within ``TIMEOUT_S``; a request
  that does not fails the test with every thread's stack;
* a race between four threads submitting to one
  :class:`~repro.serving.ShardWorker` and its ``stop()``: every request
  must end with a result or with :class:`~repro.serving.ServerClosed`.

Every answer of the stream is also checked: relabeling constants and
adding a fact whose value has no out-edge leave CERTAINTY of these
queries (all of length >= 2) unchanged, so each request must return the
answer of the instance it was derived from.
"""

import asyncio
import random
import sys
import threading
import traceback

import pytest

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.serving import (
    AsyncCertaintyServer,
    ServerClosed,
    ShardRequest,
    ShardWorker,
)
from repro.workloads.generators import chain_instance

QUERIES = ["RXRX", "RRX", "RXRYRY", "ARRX"]  # FO, NL, PTIME, coNP
REQUESTS = 2000
IN_FLIGHT = 64
TIMEOUT_S = 30.0


def _thread_stacks() -> str:
    names = {thread.ident: thread.name for thread in threading.enumerate()}
    return "\n".join(
        "--- {} ---\n{}".format(
            names.get(ident, ident), "".join(traceback.format_stack(frame))
        )
        for ident, frame in sys._current_frames().items()
    )


def _relabeled(db: DatabaseInstance, copy: int) -> DatabaseInstance:
    return DatabaseInstance.from_triples(
        (fact.relation, (copy, fact.key), (copy, fact.value)) for fact in db
    )


def test_mixed_stream_every_request_resolves():
    shapes = {
        "{}-{}".format(query, every): chain_instance(
            query, repetitions=4, conflict_every=every
        )
        for query in QUERIES
        for every in (1, 3)
    }
    engine = CertaintyEngine()
    expected = {
        (name, query): engine.solve(db, query).answer
        for name, db in shapes.items()
        for query in QUERIES
    }
    rng = random.Random(23)
    names = sorted(shapes)

    async def scenario():
        gate = asyncio.Semaphore(IN_FLIGHT)
        async with AsyncCertaintyServer(num_shards=2) as server:
            for i, name in enumerate(names):
                await server.register(name, shapes[name], shard=i % 2)

            async def one(i):
                name = rng.choice(names)
                query = rng.choice(QUERIES)
                roll = rng.random()
                if roll < 0.4:
                    call = server.solve(_relabeled(shapes[name], i), query)
                elif roll < 0.8:
                    call = server.solve(name, query)
                else:
                    # Replace the previous dangling fact with a new one.
                    call = server.solve_delta(
                        name,
                        Delta.removing(("R", ("d", i - 1), ("d", i)))
                        .then_inserting(("R", ("d", i), ("d", i + 1))),
                        query,
                    )
                async with gate:
                    try:
                        result = await asyncio.wait_for(call, TIMEOUT_S)
                    except asyncio.TimeoutError:
                        pytest.fail(
                            "request {} ({:.2f}) unresolved after {}s; "
                            "threads:\n{}".format(
                                i, roll, TIMEOUT_S, _thread_stacks()
                            )
                        )
                assert result.answer is expected[name, query], (i, roll)

            await asyncio.gather(*(one(i) for i in range(REQUESTS)))
            return server.stats()["admission"]

    admission = asyncio.run(scenario())
    assert admission["completed"] == REQUESTS + len(shapes)
    assert admission["failed"] == 0
    assert admission["in_flight"] == 0


def test_submit_racing_stop_ends_every_request():
    submitters = 4
    per_thread = 50
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: widen the race
    try:
        for _ in range(20):
            _race_one_stop(submitters, per_thread)
    finally:
        sys.setswitchinterval(interval)


def _race_one_stop(submitters, per_thread):
    worker = ShardWorker(0, max_batch=8)
    worker.execute(
        [ShardRequest("register", name="toy", db=chain_instance("RRX", 2))]
    )
    worker.start()
    start = threading.Barrier(submitters + 1)
    requests = [
        [ShardRequest("solve", name="toy", query="RRX")
         for _ in range(per_thread)]
        for _ in range(submitters)
    ]

    def submit_all(batch):
        start.wait()
        for request in batch:
            worker.submit(request)

    threads = [
        threading.Thread(target=submit_all, args=(batch,))
        for batch in requests
    ]
    for thread in threads:
        thread.start()
    start.wait()
    worker.stop()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    for request in (r for batch in requests for r in batch):
        assert (
            request.result is not None and request.error is None
        ) or isinstance(request.error, ServerClosed), request.error
