"""The matrix's execution-mode axis: one workload, four serving paths.

A **mode** executes a :class:`~repro.scenarios.families.Workload` and
returns a :class:`ModeOutcome`: every answered request paired with the
client-side committed instance it must be verified against, typed-error
buckets, wall time, and the path's own counters.  The modes are the
system's real entry points:

* ``batch`` -- direct :meth:`CertaintyEngine.solve_batch` over the base
  instances (the PR 1 library path);
* ``stream`` -- :meth:`CertaintyEngine.solve_delta` chains: each delta
  is folded into the maintained state, then every query is re-read on
  the committed instance (the PR 2 incremental path);
* ``serve-thread`` / ``serve-process`` -- multi-tenant mixed traffic
  through :class:`~repro.serving.server.AsyncCertaintyServer` on the
  respective shard transport: concurrent registration, interleaved
  write waves, then a duplicated read burst (coalescing) and a final
  ``get_instance`` cross-check against the client-side replay.  Both
  accept an optional armed
  :class:`~repro.serving.faults.FaultPlan` (``--chaos``);
* ``serve-replicated`` -- the same traffic on the thread transport,
  journaled through a
  :class:`~repro.serving.replication.ReplicatedJournalStore` (one
  primary, two followers).  Under chaos it additionally arms a
  deterministic *journal* fault plan (``write_error`` + ``stall``), so
  the cell's answers are oracle-verified straight through mid-traffic
  primary failovers.

Answers are *recorded*, never judged here -- the differential verdict
belongs to :mod:`repro.scenarios.oracle`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.scenarios.families import Workload
from repro.scenarios.oracle import AnsweredRequest

#: Shard count for the serving modes (two shards exercise routing
#: without swamping quick cells in process start-up).
SERVE_SHARDS = 2

_EMPTY_DELTA = Delta()


@dataclass
class ModeOutcome:
    """What one mode did with one workload."""

    mode: str
    answered: List[AnsweredRequest]
    errors: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    counters: Dict[str, object] = field(default_factory=dict)
    #: Serving modes: did every shard's final instance equal the
    #: client-side replay?  ``None`` for the engine-direct modes.
    final_ok: Optional[bool] = None

    @property
    def route_mix(self) -> Dict[str, int]:
        mix: Dict[str, int] = {}
        for request in self.answered:
            mix[request.method] = mix.get(request.method, 0) + 1
        return dict(sorted(mix.items()))


@dataclass(frozen=True)
class ModeSpec:
    """A registered mode: name, blurb, runner, and chaos support."""

    name: str
    description: str
    run: Callable[..., ModeOutcome]
    supports_chaos: bool = False


def run_batch(workload: Workload, chaos=None) -> ModeOutcome:
    """Static solves over the base instances via ``solve_batch``."""
    engine = CertaintyEngine()
    labels: List[Tuple[str, str, DatabaseInstance]] = []
    for name in workload.names:
        db = workload.instances[name]
        for query in workload.queries[name]:
            labels.append((name, query, db))
    start = time.perf_counter()
    results = engine.solve_batch(
        [(db, query) for _, query, db in labels], strip_certificates=True
    )
    wall = time.perf_counter() - start
    answered = [
        AnsweredRequest(name, query, result.answer, result.method, db)
        for (name, query, db), result in zip(labels, results)
    ]
    return ModeOutcome(
        "batch",
        answered,
        wall_seconds=wall,
        counters={"solves": engine.stats.solves},
    )


def run_stream(workload: Workload, chaos=None) -> ModeOutcome:
    """``solve_delta`` chains: fold each delta, re-read every query.

    After each committed delta the *other* queries are re-read through
    an empty delta, so the engine maintains one
    :class:`~repro.solvers.fixpoint.FixpointState` per query along the
    chain and the next step's fold is a genuine incremental hit.
    """
    engine = CertaintyEngine()
    answered: List[AnsweredRequest] = []
    start = time.perf_counter()
    for name in workload.names:
        db = workload.instances[name]
        queries = workload.queries[name]
        for query in queries:
            result = engine.solve(db, query)
            answered.append(
                AnsweredRequest(name, query, result.answer, result.method, db)
            )
        for index, delta in enumerate(workload.deltas.get(name, ())):
            primary = queries[index % len(queries)]
            result = engine.solve_delta(db, delta, primary)
            db = delta.apply_to(db).commit()
            answered.append(
                AnsweredRequest(name, primary, result.answer, result.method, db)
            )
            for query in queries:
                if query == primary:
                    continue
                result = engine.solve_delta(db, _EMPTY_DELTA, query)
                answered.append(
                    AnsweredRequest(
                        name, query, result.answer, result.method, db
                    )
                )
    wall = time.perf_counter() - start
    return ModeOutcome(
        "stream",
        answered,
        wall_seconds=wall,
        counters={
            "delta_solves": engine.stats.delta_solves,
            "incremental_hits": engine.stats.incremental_hits,
            "full_resolves": engine.stats.full_resolves,
        },
    )


def _classify_error(error: BaseException) -> str:
    from repro.serving.shard import (
        DeadlineExceeded,
        ServerOverloaded,
        ShardUnavailable,
    )

    if isinstance(error, DeadlineExceeded):
        return "deadline_exceeded"
    if isinstance(error, ServerOverloaded):
        return "overloaded"
    if isinstance(error, ShardUnavailable):
        return "unavailable"
    return "other_error"


#: The journal fault schedule the chaos-armed ``serve-replicated`` cell
#: runs: two primary write failures (each forcing a follower promotion)
#: plus two sub-millisecond stalls, seeded so every run injects the
#: same schedule.  A *separate* plan from the transport ``--chaos``
#: spec, so transport draws never consume journal budgets.
REPLICATED_JOURNAL_CHAOS = (
    "write_error:every=5,times=2;"
    "stall:seconds=0.001,every=9,times=2;seed=0"
)


def _run_serve(
    workload: Workload, transport: str, chaos=None, replicated: bool = False
) -> ModeOutcome:
    """Multi-tenant traffic through the async server on *transport*.

    The schedule mixes tenants the way real traffic does: a read of
    every ``(resident, query)`` pair on the base state, write **waves**
    (wave *i* carries every resident's *i*-th delta, concurrently --
    different shards proceed in parallel, per-resident order is
    preserved), then a duplicated concurrent read burst against the
    final state (identical reads coalesce inside micro-batches) and a
    ``get_instance`` replay cross-check.  Writes are awaited without
    deadlines, so under chaos the crash-retry path must land each one
    exactly once -- any divergence surfaces as a replay mismatch.
    """
    from repro.serving.server import AsyncCertaintyServer
    from repro.serving.supervision import RestartPolicy

    names = workload.names
    replay: Dict[str, DatabaseInstance] = dict(workload.instances)
    answered: List[AnsweredRequest] = []
    errors: Dict[str, int] = {}

    def record_reads(pairs, results, snapshot):
        for (name, query), result in zip(pairs, results):
            if isinstance(result, BaseException):
                bucket = _classify_error(result)
                errors[bucket] = errors.get(bucket, 0) + 1
            else:
                answered.append(
                    AnsweredRequest(
                        name, query, result.answer, result.method,
                        snapshot[name],
                    )
                )

    async def scenario():
        options: Dict[str, object] = {}
        if replicated:
            options["journal_store"] = "replicated:memory;memory,memory"
            if chaos is not None:
                options["journal_faults"] = REPLICATED_JOURNAL_CHAOS
        if chaos is not None:
            options.setdefault("journal_store", "memory")
            options.update(
                faults=chaos,
                restart_policy=RestartPolicy(
                    max_restarts=64, backoff_base=0.0
                ),
            )
        async with AsyncCertaintyServer(
            num_shards=SERVE_SHARDS,
            transport=transport,
            max_batch=8,
            **options,
        ) as server:
            for name in names:
                await server.register(name, workload.instances[name])
            base_pairs = [
                (name, query)
                for name in names
                for query in workload.queries[name]
            ]
            base_results = await asyncio.gather(
                *(server.solve(n, q) for n, q in base_pairs),
                return_exceptions=True,
            )
            record_reads(base_pairs, base_results, dict(replay))
            waves = max(
                (len(workload.deltas.get(name, ())) for name in names),
                default=0,
            )
            for wave in range(waves):
                writers = [
                    (name, workload.deltas[name][wave])
                    for name in names
                    if wave < len(workload.deltas.get(name, ()))
                ]
                results = await asyncio.gather(
                    *(
                        server.solve_delta(
                            name, delta, workload.queries[name][0]
                        )
                        for name, delta in writers
                    )
                )
                for (name, delta), result in zip(writers, results):
                    replay[name] = delta.apply_to(replay[name]).commit()
                    answered.append(
                        AnsweredRequest(
                            name,
                            workload.queries[name][0],
                            result.answer,
                            result.method,
                            replay[name],
                        )
                    )
            burst = [
                (name, query)
                for name in names
                for query in workload.queries[name]
            ] * 2
            burst_results = await asyncio.gather(
                *(server.solve(n, q) for n, q in burst),
                return_exceptions=True,
            )
            record_reads(burst, burst_results, replay)
            finals = {}
            for name in names:
                finals[name] = await server.get_instance(name)
            return finals, server.stats()

    start = time.perf_counter()
    finals, stats = asyncio.run(scenario())
    wall = time.perf_counter() - start

    final_ok = all(finals[name] == replay[name] for name in names)
    shards = stats["shards"]
    counters = {
        "warm_hits": sum(s["warm_hits"] for s in shards),
        "cold_solves": sum(s["cold_solves"] for s in shards),
        "coalesced": sum(s["coalesced"] for s in shards),
        "restarts": sum(s["transport"]["restarts"] for s in shards),
        "deadline_shed": stats["admission"].get("deadline_shed", 0),
        "overload_shed": stats["admission"].get("overload_shed", 0),
        "faults_injected": dict(stats["faults"].get("injected") or {}),
    }
    if replicated:
        replication = stats["journal"]["replication"]
        counters["failovers"] = replication["failovers"]
        counters["journal_faults_injected"] = dict(
            stats["journal_faults"].get("injected") or {}
        )
    return ModeOutcome(
        "serve-replicated" if replicated else "serve-" + transport,
        answered,
        errors=errors,
        wall_seconds=wall,
        counters=counters,
        final_ok=final_ok,
    )


def run_serve_thread(workload: Workload, chaos=None) -> ModeOutcome:
    return _run_serve(workload, "thread", chaos=chaos)


def run_serve_process(workload: Workload, chaos=None) -> ModeOutcome:
    return _run_serve(workload, "process", chaos=chaos)


def run_serve_replicated(workload: Workload, chaos=None) -> ModeOutcome:
    return _run_serve(workload, "thread", chaos=chaos, replicated=True)


#: The mode axis, in display order.
MODES: Dict[str, ModeSpec] = {
    spec.name: spec
    for spec in (
        ModeSpec(
            "batch",
            "direct CertaintyEngine.solve_batch over the base instances",
            run_batch,
        ),
        ModeSpec(
            "stream",
            "solve_delta chains through the maintained fixpoint states",
            run_stream,
        ),
        ModeSpec(
            "serve-thread",
            "multi-tenant traffic through AsyncCertaintyServer (threads)",
            run_serve_thread,
            supports_chaos=True,
        ),
        ModeSpec(
            "serve-process",
            "multi-tenant traffic through AsyncCertaintyServer (processes)",
            run_serve_process,
            supports_chaos=True,
        ),
        ModeSpec(
            "serve-replicated",
            "serve-thread journaled through a replicated store; chaos "
            "arms journal faults (mid-traffic primary failover)",
            run_serve_replicated,
            supports_chaos=True,
        ),
    )
}
