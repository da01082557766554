"""The serving benchmark: shard-warm async throughput vs per-call solves.

Shared by ``python -m repro bench-serve`` and
``benchmarks/test_bench_serving.py`` so the CLI demo and the pinned
assertion measure the same workload the same way.

The workload is the serving scenario the subsystem exists for: a fixed
fleet of resident databases, a mixed FO / NL-complete / PTIME-complete
query set, and a request stream that keeps re-asking those pairs (as
traffic from many clients does).  The **naive** baseline answers each
request with a per-call solve through a warm *plan* cache -- PR 1's
``solve_batch``, re-running the per-instance solver every time.  The
**serving** path routes the same stream through the
:class:`~repro.serving.server.AsyncCertaintyServer`: after one cold solve
per distinct ``(instance, query)`` pair, every request is answered from
the shard's maintained fixpoint state.

A second benchmark, :func:`run_transport_benchmark`, races the shard
transports against each other on a **CPU-bound** stream (every request a
forced full fixpoint run): thread-per-shard serializes on the GIL,
process-per-shard runs the shards in parallel.

Two resilience benchmarks back ``benchmarks/test_bench_resilience.py``:
:func:`run_fault_overhead_benchmark` measures what an *armed but silent*
:class:`~repro.serving.faults.FaultPlan` costs on the shard-warm stream
(the hook must be ~free when no fault fires), and
:func:`run_recovery_benchmark` measures time-to-first-answer after an
injected shard crash (supervised restart + journal replay + retry).

Two replication benchmarks back ``benchmarks/test_bench_replication.py``:
:func:`run_replication_overhead_benchmark` prices the replicated journal
tier against the bare PR 6 sqlite journal on an identical write stream
(armed but silent -- the ``<= 5%`` acceptance gate), and
:func:`run_failover_benchmark` measures time-to-first-answer across a
mid-traffic primary failover (injected journal ``write_error``,
most-caught-up follower promoted, the interrupted write retried).
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from typing import Dict, List, Tuple

from repro.db.delta import Delta
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.serving.faults import FaultPlan, FaultRule, make_fault_plan
from repro.serving.server import AsyncCertaintyServer
from repro.serving.shard import (
    DeadlineExceeded,
    ServerOverloaded,
    ShardRequest,
    ShardUnavailable,
    ShardWorker,
)
from repro.serving.supervision import RestartPolicy
from repro.workloads.generators import chain_instance

#: One query per polynomial-time route of the tetrachotomy (all C3, so
#: the maintained state answers them exactly).
MIXED_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("RXRX", "FO"),
    ("RRX", "NL-complete"),
    ("RXRYRY", "PTIME-complete"),
)


def mixed_workload(
    num_instances: int = 6,
    repetitions: int = 40,
    n_requests: int = 240,
) -> Tuple[Dict[str, DatabaseInstance], List[Tuple[str, str]]]:
    """Named chain instances plus a round-robin request stream.

    Chains are built per query family (so every query has instances it
    can traverse) with a conflicting dead-end branch every few nodes;
    sizes stagger with the index so shards hold unequal residents.
    """
    instances: Dict[str, DatabaseInstance] = {}
    for i in range(num_instances):
        query = MIXED_QUERIES[i % len(MIXED_QUERIES)][0]
        instances["db{}".format(i)] = chain_instance(
            query,
            repetitions=repetitions + 3 * i,
            conflict_every=4,
        )
    names = sorted(instances)
    # Walk every (instance, query) combination so each shard maintains
    # several states per resident, not one hot pair.
    requests = [
        (
            names[i % len(names)],
            MIXED_QUERIES[(i // len(names)) % len(MIXED_QUERIES)][0],
        )
        for i in range(n_requests)
    ]
    return instances, requests


def _classify_outcome(result) -> str:
    """Bucket a gathered serving result for the chaos report."""
    if isinstance(result, DeadlineExceeded):
        return "deadline_exceeded"
    if isinstance(result, ServerOverloaded):
        return "overloaded"
    if isinstance(result, ShardUnavailable):
        return "unavailable"
    if isinstance(result, BaseException):
        return "other_error"
    return "answered"


async def _solve_stream(server: AsyncCertaintyServer, pairs):
    """Gather ``solve`` over *pairs*, keeping per-request exceptions in
    place (chaos runs must report outcomes, not abort on the first)."""
    return await asyncio.gather(
        *(server.solve(name, query) for name, query in pairs),
        return_exceptions=True,
    )


def run_serving_benchmark(
    num_shards: int = 4,
    num_instances: int = 6,
    repetitions: int = 40,
    n_requests: int = 240,
    max_batch: int = 32,
    transport: str = "thread",
    chaos=None,
) -> Dict[str, object]:
    """Measure the request stream both ways; returns the comparison.

    The returned dict carries ``naive_seconds`` / ``serving_seconds``
    (measured over the same *n_requests* stream, shard states warm),
    ``speedup``, both throughputs in requests/second, ``agrees`` (every
    answered request matches the naive stream -- with no chaos that
    means *all* of them), per-request ``outcomes`` buckets, and the
    server's final ``stats()``.  *chaos* arms a
    :class:`~repro.serving.faults.FaultPlan` (or ``--chaos`` spec
    string) on the serving side only; faulted requests resolve to
    ``DeadlineExceeded`` / ``ShardUnavailable`` / ``ServerOverloaded``
    buckets instead of aborting the run.
    """
    instances, requests = mixed_workload(
        num_instances=num_instances,
        repetitions=repetitions,
        n_requests=n_requests,
    )
    plan = make_fault_plan(chaos)

    # -- Naive per-call baseline: warm plans, cold per-instance solves.
    naive_engine = CertaintyEngine()
    for _, query in MIXED_QUERIES:
        naive_engine.compile(query)
    pairs = [(instances[name], query) for name, query in requests]
    start = time.perf_counter()
    naive_results = naive_engine.solve_batch(pairs)
    naive_seconds = time.perf_counter() - start

    # -- Sharded serving: register, warm each distinct pair once, then
    #    time the identical stream end-to-end through the async API.
    async def _serve():
        async with AsyncCertaintyServer(
            num_shards=num_shards,
            max_batch=max_batch,
            transport=transport,
            faults=plan,
        ) as server:
            for name, db in sorted(instances.items()):
                if plan is None:
                    await server.register(name, db)
                else:
                    try:
                        await server.register(name, db)
                    except Exception:
                        # Chaos hit the registration batch; the solves
                        # on this name will surface it per request.
                        pass
            distinct = sorted(set(requests))
            await _solve_stream(server, distinct)  # one cold solve per pair
            start = time.perf_counter()
            results = await _solve_stream(server, requests)
            seconds = time.perf_counter() - start
            return results, seconds, server.stats()

    serving_results, serving_seconds, server_stats = asyncio.run(_serve())

    outcomes = {
        "answered": 0,
        "deadline_exceeded": 0,
        "overloaded": 0,
        "unavailable": 0,
        "other_error": 0,
    }
    agrees = True
    for naive_result, serving_result in zip(naive_results, serving_results):
        bucket = _classify_outcome(serving_result)
        outcomes[bucket] += 1
        if bucket == "answered":
            if serving_result.answer != naive_result.answer:
                agrees = False
        elif plan is None:
            # Without chaos every request must be answered.
            agrees = False
    warm_hits = sum(s["warm_hits"] for s in server_stats["shards"])
    return {
        "requests": len(requests),
        "num_shards": num_shards,
        "transport": transport,
        "naive_seconds": naive_seconds,
        "serving_seconds": serving_seconds,
        "speedup": naive_seconds / serving_seconds,
        "naive_rps": len(requests) / naive_seconds,
        "serving_rps": len(requests) / serving_seconds,
        "agrees": agrees,
        "outcomes": outcomes,
        "warm_hits": warm_hits,
        "server_stats": server_stats,
    }


#: The PTIME-complete route: forced ``method="fixpoint"`` runs the full
#: Figure 5 kernel per request -- no warm shortcut, pure CPU.
CPU_BOUND_QUERY = "RXRYRY"


def cpu_bound_workload(
    num_shards: int = 4,
    repetitions: int = 3000,
    n_requests: int = 64,
):
    """One large resident pinned per shard, plus a round-robin stream.

    Every request forces ``method="fixpoint"`` on its shard's resident,
    so each one re-runs the polynomial-time kernel on ~``6*repetitions``
    facts (about 8 ms at the default size): the workload is CPU-bound by
    construction, which is exactly where a thread-per-shard layout
    serializes on the GIL and a process-per-shard layout does not.
    """
    instances = {
        "cpu{}".format(shard): chain_instance(
            CPU_BOUND_QUERY, repetitions=repetitions, conflict_every=4
        )
        for shard in range(num_shards)
    }
    names = sorted(instances)
    requests = [
        (names[i % len(names)], CPU_BOUND_QUERY) for i in range(n_requests)
    ]
    return instances, requests


def run_transport_benchmark(
    num_shards: int = 4,
    repetitions: int = 3000,
    n_requests: int = 64,
    transports=("thread", "process"),
) -> Dict[str, object]:
    """Race the shard transports on the CPU-bound forced-fixpoint stream.

    The identical request stream runs once per transport through an
    :class:`AsyncCertaintyServer` (registration and a one-per-shard
    warm-up solve happen before the timed window, so process start-up
    and plan compilation are excluded).  Returns per-transport seconds
    and requests/second, ``speedup`` (thread seconds / process seconds
    when both ran), and ``agrees`` (identical answer streams).  On a
    single-core machine the speedup degrades to IPC overhead -- the
    pinned ``>= 1.5x`` gate in ``benchmarks/test_bench_serving.py``
    skips there.
    """
    instances, requests = cpu_bound_workload(
        num_shards=num_shards,
        repetitions=repetitions,
        n_requests=n_requests,
    )

    async def _stream(transport: str):
        # max_batch=1: identical reads coalesce within a micro-batch,
        # which would collapse the forced stream to one kernel run per
        # shard -- here every request must pay its own kernel, because
        # per-request CPU is precisely what the transports race on.
        async with AsyncCertaintyServer(
            num_shards=num_shards, max_batch=1, transport=transport,
        ) as server:
            for shard, name in enumerate(sorted(instances)):
                await server.register(name, instances[name], shard=shard)
            # Warm-up: ship snapshots, compile plans, fault in the
            # compact views -- everything but the per-request kernel.
            await server.solve_many(
                [(name, CPU_BOUND_QUERY) for name in sorted(instances)],
                method="fixpoint",
            )
            start = time.perf_counter()
            results = await server.solve_many(requests, method="fixpoint")
            seconds = time.perf_counter() - start
            return [r.answer for r in results], seconds

    report: Dict[str, object] = {
        "requests": len(requests),
        "num_shards": num_shards,
        "repetitions": repetitions,
        "transports": {},
    }
    answer_streams = []
    for transport in transports:
        answers, seconds = asyncio.run(_stream(transport))
        answer_streams.append(answers)
        report["transports"][transport] = {
            "seconds": seconds,
            "rps": len(requests) / seconds,
        }
    report["agrees"] = all(
        stream == answer_streams[0] for stream in answer_streams
    )
    per = report["transports"]
    if "thread" in per and "process" in per:
        report["speedup"] = per["thread"]["seconds"] / per["process"]["seconds"]
    return report


def run_fault_overhead_benchmark(
    num_shards: int = 2,
    num_instances: int = 4,
    repetitions: int = 20,
    n_requests: int = 160,
    passes: int = 3,
) -> Dict[str, object]:
    """Price the fault hook when it is armed but silent.

    Two identical thread-transport servers serve the shard-warm mixed
    stream: one with ``faults=None`` (the hook compiles to a constant
    ``0, False``), one with an **armed, empty** :class:`FaultPlan` (the
    per-batch draw runs, matches nothing).  Timed passes alternate
    between the arms so drift on a noisy box hits both equally; the
    per-arm minimum is the comparison.  ``overhead`` is
    ``armed_best / clean_best - 1`` -- the quantity the ``<= 5%`` gate
    in ``benchmarks/test_bench_resilience.py`` pins.
    """
    instances, requests = mixed_workload(
        num_instances=num_instances,
        repetitions=repetitions,
        n_requests=n_requests,
    )

    async def _measure():
        servers = {
            "clean": AsyncCertaintyServer(
                num_shards=num_shards, transport="thread"
            ).start(),
            "armed": AsyncCertaintyServer(
                num_shards=num_shards, transport="thread", faults=FaultPlan()
            ).start(),
        }
        times: Dict[str, List[float]] = {"clean": [], "armed": []}
        answers: Dict[str, List[bool]] = {}
        try:
            distinct = sorted(set(requests))
            for server in servers.values():
                for name, db in sorted(instances.items()):
                    await server.register(name, db)
                await server.solve_many(distinct)  # warm every pair
            for _ in range(passes):
                for arm, server in servers.items():
                    start = time.perf_counter()
                    results = await server.solve_many(requests)
                    times[arm].append(time.perf_counter() - start)
                    answers[arm] = [r.answer for r in results]
        finally:
            for server in servers.values():
                server.close()
        return times, answers

    times, answers = asyncio.run(_measure())
    clean_best = min(times["clean"])
    armed_best = min(times["armed"])
    return {
        "requests": len(requests),
        "passes": passes,
        "clean_seconds": clean_best,
        "armed_seconds": armed_best,
        "overhead": armed_best / clean_best - 1.0,
        "agrees": answers["clean"] == answers["armed"],
    }


def run_recovery_benchmark(
    repetitions: int = 200,
    transport: str = "process",
) -> Dict[str, object]:
    """Time-to-first-answer after a shard dies mid-service.

    One worker, ``max_batch=1``: register a chain resident, serve one
    warm solve, then kill the shard -- ``process.kill()`` on the real
    subprocess, a seeded one-shot crash fault on the thread emulation --
    and time the next solve end to end.  That window covers failure
    detection, the supervised restart, journal replay of the resident,
    and the re-served request.  ``warm_after_seconds`` times one more
    solve on the recovered shard (the restored state is warm again);
    ``answers_agree`` checks all three answers match.
    """
    query = "RXRX"
    db = chain_instance(query, repetitions=repetitions, conflict_every=4)
    faults = None
    if transport == "thread":
        # Batches 0 (register) and 1 (warm solve) pass; the timed solve
        # is batch 2 and dies exactly once.
        faults = FaultPlan([FaultRule("crash", batch=2, times=1)])
    worker = ShardWorker(
        0,
        transport=transport,
        max_batch=1,
        faults=faults,
        restart_policy=RestartPolicy(backoff_base=0.0),
    )
    try:
        worker.execute([ShardRequest("register", name="db", db=db)])
        warm = ShardRequest("solve", name="db", query=query)
        worker.execute([warm])
        if transport == "process":
            worker.transport.process.kill()
            worker.transport.process.join()
        start = time.perf_counter()
        recovered = ShardRequest("solve", name="db", query=query)
        worker.execute([recovered])
        recovery_seconds = time.perf_counter() - start
        start = time.perf_counter()
        after = ShardRequest("solve", name="db", query=query)
        worker.execute([after])
        warm_after_seconds = time.perf_counter() - start
        stats = worker.stats()
        return {
            "transport": transport,
            "repetitions": repetitions,
            "recovery_seconds": recovery_seconds,
            "warm_after_seconds": warm_after_seconds,
            "answers_agree": (
                recovered.error is None
                and after.error is None
                and warm.result.answer
                == recovered.result.answer
                == after.result.answer
            ),
            "restarts": stats["transport"]["restarts"],
        }
    finally:
        worker.stop()


def run_replication_overhead_benchmark(
    num_residents: int = 8,
    n_ops: int = 400,
    passes: int = 3,
) -> Dict[str, object]:
    """Price the replicated journal tier when armed but silent.

    Two journal stores absorb the identical write stream -- stamped
    registrations then round-robin stamped deltas: a **bare**
    :class:`~repro.serving.journal.SqliteJournalStore` (the PR 6
    journaling path) and a
    :class:`~repro.serving.replication.ReplicatedJournalStore` over an
    identical sqlite primary plus one memory follower, armed with an
    empty journal :class:`FaultPlan` (the per-write draw runs, matches
    nothing).  The replicated arm therefore pays the fault draw, the
    in-RAM op log append, and the ``ship_every`` shipping cadence on
    top of every sqlite write.  Per-op sqlite commits are noisy, so
    the estimator compares *adjacent* timings: after one untimed
    warm-up pass per arm, each pass times the bare arm then the
    replicated arm back to back -- correlated disk conditions cancel
    in the per-pass ratio -- and ``overhead`` is the best pairwise
    ratio minus one (sustained noise can only push it *up*).  That is
    the quantity the ``<= 5%`` acceptance gate in
    ``benchmarks/test_bench_replication.py`` pins.
    """
    from repro.serving.journal import SqliteJournalStore
    from repro.serving.replication import ReplicatedJournalStore

    db = chain_instance("RXRX", repetitions=4, conflict_every=4)
    names = ["res-{}".format(i) for i in range(num_residents)]
    delta = Delta(inserts=(Fact("Z", "a", "b"),))

    with tempfile.TemporaryDirectory(prefix="repro-bench-repl-") as tmp:
        bare = SqliteJournalStore("{}/bare.db".format(tmp))
        replicated = ReplicatedJournalStore(
            SqliteJournalStore("{}/primary.db".format(tmp)),
            ("memory",),
        )
        replicated.arm(FaultPlan())
        stores: Dict[str, object] = {"bare": bare, "replicated": replicated}
        seqs = {"bare": 0, "replicated": 0}
        times: Dict[str, List[float]] = {"bare": [], "replicated": []}
        try:
            for arm, store in stores.items():
                for name in names:
                    seqs[arm] += 1
                    store.register(0, name, db, seq=seqs[arm])
            # One untimed warm-up pass plus `passes` timed passes; the
            # warm-up absorbs first-touch page allocation on both logs.
            for timed_pass in range(passes + 1):
                for arm, store in stores.items():
                    start = time.perf_counter()
                    for op in range(n_ops):
                        seqs[arm] += 1
                        store.delta(0, names[op % len(names)], delta,
                                    seq=seqs[arm])
                    if timed_pass:
                        times[arm].append(time.perf_counter() - start)
            replicated.flush()
            health = replicated.health()
            replication = health["replication"]
            agrees = (
                bare.last_seq(0) == replicated.last_seq(0)
                and sorted(bare.residents(0))
                == sorted(replicated.residents(0))
                and all(r["lag"] == 0 for r in replication["replicas"])
            )
            failovers = replication["failovers"]
        finally:
            for store in stores.values():
                store.close()

    ratios = [r / b for b, r in zip(times["bare"], times["replicated"])]
    best = min(range(passes), key=lambda i: ratios[i])
    return {
        "ops": n_ops,
        "residents": num_residents,
        "passes": passes,
        "bare_seconds": times["bare"][best],
        "replicated_seconds": times["replicated"][best],
        "overhead": ratios[best] - 1.0,
        "agrees": agrees,
        "failovers": failovers,
    }


def run_failover_benchmark(
    repetitions: int = 200,
    transport: str = "thread",
) -> Dict[str, object]:
    """Time-to-first-answer across a mid-traffic primary failover.

    One server on a ``replicated:`` journal (sqlite primary, sqlite
    follower) with a one-shot ``write_error`` journal fault armed on
    the second journal write: register a chain resident (write 0),
    serve one warm solve, then commit a delta -- the journal write
    fails, the follower is promoted, and the write retries on the new
    primary, all inside the awaited ``solve_delta``.  The timed window
    runs from issuing that doomed write to the first answered read
    after it: fault, ship-out, promotion, retried write, re-served
    request.  ``warm_after_seconds`` times one more solve on the
    settled server; ``answers_agree`` checks the pre- and post-failover
    answers match (the delta is empty, so the certain answer must not
    move).  The promotion is asserted via the replication counters, so
    the row cannot silently measure a primary that never died.
    """
    query = "RXRX"
    db = chain_instance(query, repetitions=repetitions, conflict_every=4)

    async def _scenario(tmp: str):
        async with AsyncCertaintyServer(
            num_shards=1,
            transport=transport,
            journal_store="replicated:sqlite:{0}/primary.db"
                          ";sqlite:{0}/follower.db".format(tmp),
            journal_faults="write_error:batch=1,times=1",
        ) as server:
            await server.register("db", db)
            warm = await server.solve("db", query)
            start = time.perf_counter()
            await server.solve_delta("db", Delta(), query)
            first = await server.solve("db", query)
            ttfa = time.perf_counter() - start
            start = time.perf_counter()
            after = await server.solve("db", query)
            warm_after = time.perf_counter() - start
            stats = server.stats()
            return warm, first, after, ttfa, warm_after, stats

    with tempfile.TemporaryDirectory(prefix="repro-bench-failover-") as tmp:
        warm, first, after, ttfa, warm_after, stats = asyncio.run(
            _scenario(tmp)
        )
    replication = stats["journal"]["replication"]
    return {
        "transport": transport,
        "repetitions": repetitions,
        "ttfa_seconds": ttfa,
        "warm_after_seconds": warm_after,
        "answers_agree": warm.answer == first.answer == after.answer,
        "failovers": replication["failovers"],
        "promoted": replication["primary"],
        "injected": dict(stats["journal_faults"]["injected"] or {}),
    }
