"""The asyncio front door: admission, routing, and batched dispatch.

:class:`AsyncCertaintyServer` is the serving subsystem's public surface.
Client coroutines ``await`` CERTAINTY decisions; the server routes each
request to the shard owning its instance (via the
:class:`~repro.serving.shard.ShardRouter`), where a persistent
:class:`~repro.serving.shard.ShardWorker` drains requests in
micro-batches through its warm engine.  Because everything stays in one
process, plans and maintained fixpoint states are *shared by reference*
between requests -- the cross-process plan-sharing problem of
spawn-start multiprocessing pools does not exist here.

>>> import asyncio
>>> from repro.db.instance import DatabaseInstance
>>> async def demo():
...     async with AsyncCertaintyServer(num_shards=2) as server:
...         db = DatabaseInstance.from_triples(
...             [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)])
...         await server.register("toy", db)
...         first = await server.solve("toy", "RRX")
...         again = await server.solve("toy", "RRX")   # served shard-warm
...         return first.answer, again.answer
>>> asyncio.run(demo())
(True, True)
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.engine.engine import CertaintyEngine, EngineQuery
from repro.serving.shard import (
    ServerClosed,
    ServerOverloaded,
    ShardRequest,
    ShardRouter,
    ShardWorker,
)
from repro.solvers.result import CertaintyResult

Target = Union[str, DatabaseInstance]


class AsyncCertaintyServer:
    """Async serving layer over sharded certainty engines.

    *num_shards* workers are spawned on :meth:`start` (or on entering the
    ``async with`` block); each owns a private engine built by
    *engine_factory*.  An idle shard dispatches a request at once; the
    requests that arrive while a batch is in service are served as the
    next batch, up to *max_batch* (identical concurrent reads coalesce
    into a single engine call).

    *transport* picks where each shard's engine lives (see
    :mod:`repro.serving.transport`): ``"thread"`` (default) keeps every
    shard in this process, ``"process"`` gives each shard a persistent
    subprocess so CPU-bound shards run in parallel.  The client API is
    identical either way.

    *journal_store* makes residents durable (see
    :mod:`repro.serving.journal`): ``None`` (default) gives each
    transport a private in-memory journal, ``"memory"`` shares one
    RAM-only :class:`~repro.serving.journal.JournalStore` across shards,
    and ``"sqlite:PATH"`` (or a
    :class:`~repro.serving.journal.SqliteJournalStore` instance) logs
    every registration and delta to disk.  ``"kv:..."`` journals to a
    :class:`~repro.serving.journal.KVBackend` and
    ``"replicated:PRIMARY;FOLLOWER,..."`` adds read replicas tailing
    the primary's op log with promotion on primary failure (see
    :mod:`repro.serving.replication`).  A server opened on a non-empty
    store **cold-starts** from it: the durable residents are re-pinned
    to their recorded shards before serving and replayed into each
    shard on first use -- no client re-registration.  A store the
    server built from a string spec is closed by :meth:`close`
    (a replicated store closes its own string-built sub-stores the same
    way); caller-supplied instances stay open.

    Resilience (all optional; see :mod:`repro.serving.supervision` and
    :mod:`repro.serving.faults`):

    * ``max_in_flight`` caps admitted-but-unresolved requests
      server-wide; ``queue_limit`` bounds each shard's queue.  Either
      limit sheds with :class:`~repro.serving.shard.ServerOverloaded`
      -- fail-fast, counted in ``stats()["admission"]``.
    * ``timeout=`` on the read coroutines sets a deadline that rides
      the request onto the wire; expired requests are shed with
      :class:`~repro.serving.shard.DeadlineExceeded` at batch assembly
      (or mid-batch), before engine work is spent.
    * ``restart_policy`` supervises shard restarts (budget + backoff);
      a shard over budget is *down* -- its breaker opens, requests fail
      fast with :class:`~repro.serving.shard.ShardUnavailable`, and
      reads of journaled residents are served degraded (disable with
      ``degraded_reads=False``).
    * ``faults`` arms a deterministic
      :class:`~repro.serving.faults.FaultPlan` (or a ``--chaos`` spec
      string) that the transports consult once per batch.
    * ``journal_faults`` arms a *separate* plan of journal-fault rules
      (``write_error`` / ``torn_write`` / ``stall``; CLI
      ``--journal-chaos``) against the replicated journal's primary
      writes -- the chaos harness for failover.  Requires a journal
      store with an ``arm`` method, i.e. ``replicated:...``.

    The server must be used from a running event loop; all public
    coroutines are safe to call concurrently.  Operations on the *same*
    instance are totally ordered by its shard's queue, so a ``solve``
    awaited after a ``solve_delta`` on the same name observes the update.
    """

    def __init__(
        self,
        num_shards: int = 4,
        router: Optional[ShardRouter] = None,
        max_batch: int = 32,
        engine_factory=CertaintyEngine,
        transport="thread",
        transport_options: Optional[dict] = None,
        journal_store: Union[None, str, "JournalStore"] = None,
        max_in_flight: Optional[int] = None,
        queue_limit: Optional[int] = None,
        faults=None,
        journal_faults=None,
        restart_policy=None,
        degraded_reads: Optional[bool] = None,
    ) -> None:
        from repro.serving.faults import make_fault_plan
        from repro.serving.journal import JournalStore, make_journal_store

        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

        self.router = router or ShardRouter(num_shards)
        if router is not None:
            num_shards = router.num_shards
        #: Stores resolved from a string spec are owned (and closed) by
        #: the server; injected instances belong to the caller.
        self._owns_journal = not isinstance(journal_store, JournalStore)
        self.journal_store = make_journal_store(journal_store)
        if self.journal_store is not None:
            # Cold start: pin every durable resident back onto its
            # recorded shard before any request is admitted.
            for name, shard in sorted(self.journal_store.placements().items()):
                if not 0 <= shard < num_shards:
                    raise ValueError(
                        "journal places {!r} on shard {} but the server "
                        "has {} shards; reopen with at least {} shards".format(
                            name, shard, num_shards, shard + 1
                        )
                    )
                self.router.register(name, shard=shard)
        #: One shared plan across shards: per-shard batch counters live
        #: inside the plan, keyed by shard id.
        self.faults = make_fault_plan(faults)
        #: A separate plan for the journal tier, so transport draws
        #: never consume journal rule budgets (and vice versa).
        self.journal_faults = make_fault_plan(journal_faults)
        if self.journal_faults is not None:
            if not hasattr(self.journal_store, "arm"):
                raise ValueError(
                    "journal_faults requires a replicated journal store "
                    "(journal_store='replicated:PRIMARY;FOLLOWER,...'); "
                    "got {}".format(
                        self.journal_store.kind
                        if self.journal_store is not None
                        else None
                    )
                )
            self.journal_store.arm(self.journal_faults)
        self.max_in_flight = max_in_flight
        self.workers: List[ShardWorker] = [
            ShardWorker(
                shard,
                engine_factory=engine_factory,
                max_batch=max_batch,
                transport=transport,
                transport_options=transport_options,
                journal_store=self.journal_store,
                queue_limit=queue_limit,
                faults=self.faults,
                restart_policy=restart_policy,
                degraded=degraded_reads,
            )
            for shard in range(num_shards)
        ]
        self._started = False
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._overload_shed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "AsyncCertaintyServer":
        """Spawn the shard workers (idempotent until :meth:`close`)."""
        if self._closed:
            raise ServerClosed("server is closed")
        if not self._started:
            for worker in self.workers:
                worker.start()
            self._started = True
        return self

    def close(self) -> None:
        """Graceful shutdown (idempotent).

        Each shard finishes the micro-batch it is currently executing,
        then every still-queued request -- and every request admitted
        afterwards -- fails with :class:`ServerClosed` instead of
        leaving its future pending.  Process transports terminate their
        shard subprocesses.  A closed server cannot be restarted.
        """
        if self._started:
            for worker in self.workers:
                worker.stop()
        self._started = False
        if not self._closed and self._owns_journal and self.journal_store:
            self.journal_store.close()
        self._closed = True

    async def __aenter__(self) -> "AsyncCertaintyServer":
        return self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    async def _dispatch(self, shard: int, request: ShardRequest):
        if self._closed:
            raise ServerClosed("server is closed")
        if not self._started:
            raise RuntimeError(
                "server not running (use 'async with' or call start())"
            )
        if self.max_in_flight is not None:
            in_flight = self._submitted - self._completed - self._failed
            if in_flight >= self.max_in_flight:
                self._overload_shed += 1
                raise ServerOverloaded(
                    "server at max_in_flight={} ({} requests unresolved);"
                    " retry later".format(self.max_in_flight, in_flight)
                )
        loop = asyncio.get_running_loop()
        request.loop = loop
        request.future = loop.create_future()
        request.future.add_done_callback(self._account)
        self._submitted += 1
        self.workers[shard].submit(request)
        return await request.future

    def _account(self, future: "asyncio.Future") -> None:
        if future.cancelled() or future.exception() is not None:
            self._failed += 1
        else:
            self._completed += 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def register(
        self,
        name: str,
        db: DatabaseInstance,
        shard: Optional[int] = None,
    ) -> int:
        """Make *db* resident under *name*; returns its shard.

        Placement is sticky (see :meth:`ShardRouter.register`);
        re-registering a name on its own shard replaces the instance.
        """
        placed = self.router.register(name, shard=shard)
        await self._dispatch(placed, ShardRequest("register", name=name, db=db))
        return placed

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        """An absolute monotonic deadline, riding the request onto the
        wire (``timeout=0`` is a valid "already expired" probe)."""
        if timeout is None:
            return None
        return time.monotonic() + timeout

    async def solve(
        self,
        target: Target,
        query: EngineQuery,
        method: str = "auto",
        timeout: Optional[float] = None,
    ) -> CertaintyResult:
        """Decide CERTAINTY(query) for *target*.

        A string *target* names a resident instance -- served from the
        shard's warm state (``method="auto"``) or through a forced
        solver.  A raw :class:`DatabaseInstance` rides through its
        content-hash shard with a warm plan cache but no resident state.
        With *timeout* (seconds), the request carries a deadline: once
        it passes, the request is shed with
        :class:`~repro.serving.shard.DeadlineExceeded` instead of
        executed.
        """
        shard = self.router.shard_of(target)
        deadline = self._deadline(timeout)
        if isinstance(target, str):
            request = ShardRequest(
                "solve", name=target, query=query, method=method,
                deadline=deadline,
            )
        else:
            request = ShardRequest(
                "solve", db=target, query=query, method=method,
                deadline=deadline,
            )
        return await self._dispatch(shard, request)

    async def solve_delta(
        self,
        name: str,
        delta: Delta,
        query: EngineQuery,
        method: str = "auto",
        timeout: Optional[float] = None,
    ) -> CertaintyResult:
        """Apply *delta* to the resident instance *name* and decide
        CERTAINTY(query) on the result.

        The shard folds the delta into its maintained state (O(delta)
        solver work on the C3 routes) and advances the registry, so
        subsequent reads observe -- and stay warm on -- the updated
        instance.  A *timeout* deadline is honoured conservatively for
        writes: expiry before the batch is assembled sheds the whole
        request, but once the write half has committed only the read
        half is shed -- a :class:`DeadlineExceeded` from a delta means
        "the answer is late", never "the write was rolled back".
        """
        shard = self.router.shard_of(name)
        request = ShardRequest(
            "delta", name=name, delta=delta, query=query, method=method,
            deadline=self._deadline(timeout),
        )
        return await self._dispatch(shard, request)

    async def solve_many(
        self,
        requests: Iterable[Tuple[Target, EngineQuery]],
        method: str = "auto",
        timeout: Optional[float] = None,
    ) -> List[CertaintyResult]:
        """Gather ``solve`` over *requests*, preserving order.

        Concurrent admission is the point: requests hitting the same
        shard coalesce into micro-batches, different shards proceed
        independently.  *timeout* applies per request, measured from
        admission of the gather.
        """
        return list(
            await asyncio.gather(
                *(
                    self.solve(target, query, method=method, timeout=timeout)
                    for target, query in requests
                )
            )
        )

    async def get_instance(
        self, name: str, timeout: Optional[float] = None
    ) -> DatabaseInstance:
        """The current resident instance for *name* (shard-ordered read)."""
        shard = self.router.shard_of(name)
        return await self._dispatch(
            shard,
            ShardRequest("get", name=name, deadline=self._deadline(timeout)),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Admission counters plus per-shard worker/engine statistics.

        Each shard entry carries a ``"transport"`` sub-dict with the
        transport's health: kind, liveness, ``restarts``,
        ``snapshot_bytes`` shipped, ``deltas_forwarded``, and the
        current ``queue_depth``.
        """
        completed = self._completed
        failed = self._failed
        shard_stats = [worker.stats() for worker in self.workers]
        return {
            "admission": {
                "submitted": self._submitted,
                "completed": completed,
                "failed": failed,
                "in_flight": self._submitted - completed - failed,
                # Server-cap rejections plus per-shard bounded-queue
                # rejections; deadline sheds aggregate across shards.
                "overload_shed": self._overload_shed
                + sum(s.get("overload_shed", 0) for s in shard_stats),
                "deadline_shed": sum(
                    s.get("deadline_shed", 0) for s in shard_stats
                ),
            },
            "placement": self.router.assignments(),
            "journal": (
                self.journal_store.health()
                if self.journal_store is not None
                else {"store": "none"}
            ),
            "faults": (
                self.faults.describe()
                if self.faults is not None
                else {"armed": False}
            ),
            "journal_faults": (
                self.journal_faults.describe()
                if self.journal_faults is not None
                else {"armed": False}
            ),
            "shards": shard_stats,
        }
