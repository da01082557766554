"""Shards: locality-aware placement of instances and persistent workers.

A flat multiprocessing fan-out (the engine's ``workers=N`` pools) ships
every instance to whichever process is free, so nothing stays warm: on
spawn-start platforms each call re-pickles the database and the worker
recompiles plans it has seen before.  The serving layer instead treats
registered :class:`~repro.db.instance.DatabaseInstance`\\ s as residents
of **shards**.  A :class:`ShardRouter` assigns every instance name to a
shard -- by stable hash, or by explicit placement for operators who know
their hot keys -- and every request for that instance is routed to the
same shard forever.

Each shard is served by one :class:`ShardWorker` -- the micro-batch
assembly loop -- driving a :class:`ShardCore` -- the transport-agnostic
execution logic -- through a pluggable
:class:`~repro.serving.transport.ShardTransport`:

* the worker owns the request queue and the drain loop (an idle shard
  dispatches a request at once; requests that arrive while a batch is
  in service form the next batch, up to *max_batch*) plus graceful
  shutdown;
* the core owns the shard's resident instances and a private
  :class:`~repro.engine.CertaintyEngine` (its plan LRU and its
  :class:`~repro.solvers.state_cache.StateCache` of maintained
  :class:`~repro.solvers.fixpoint.FixpointState`\\ s), and executes one
  batch at a time: duplicate reads coalesced, writes advancing the
  registry, warm reads answered from maintained incremental state;
* the transport decides *where* the core lives -- in the worker's own
  thread (:class:`~repro.serving.transport.ThreadTransport`, shared
  memory, GIL-bound) or in a dedicated subprocess
  (:class:`~repro.serving.transport.ProcessTransport`, true CPU
  parallelism across shards).

>>> router = ShardRouter(num_shards=4)
>>> router.register("orders")  in range(4)      # stable hash placement
True
>>> router.register("users", shard=2)           # explicit placement
2
>>> router.shard_of("users")
2
>>> router.shard_of("orders") == router.shard_of("orders")
True
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.engine.engine import CertaintyEngine, EngineQuery

#: The empty update batch: routes a plain read through ``solve_delta`` so
#: it is served from (and installs) the maintained fixpoint state.
EMPTY_DELTA = Delta()

_STOP = object()

#: The wire shape of one shard operation: ``(op, name, db, delta, query,
#: method, seq, deadline)``.  Everything in it is picklable (instances
#: ship facts-only, see
#: :meth:`repro.db.instance.DatabaseInstance.__reduce__`), so the same
#: tuple drives an in-thread core and a subprocess core.  *seq* is the
#: transport's per-shard monotonic sequence number for write ops (``0``
#: on reads and unstamped writes): it makes redelivery after a
#: crash-retry detectable (see :meth:`ShardCore.run_batch`).  *deadline*
#: is an absolute :func:`time.monotonic` instant (or ``None``): past it
#: the op is shed with :class:`DeadlineExceeded` instead of executed --
#: ``CLOCK_MONOTONIC`` is system-wide on Linux, so the instant compares
#: meaningfully inside a shard subprocess too.
ShardOp = Tuple[
    str,
    Optional[str],
    Optional[DatabaseInstance],
    Optional[Delta],
    Optional[EngineQuery],
    str,
    int,
    Optional[float],
]


class ServerClosed(RuntimeError):
    """The serving layer is shutting down; the request was not served."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before it could be (fully) served.

    Raised at batch-assembly time (the request never reached the
    engine) or at execution time inside the core.  Committed writes are
    never rolled back: a ``delta`` whose deadline expires after its
    write half applied keeps the write and sheds only the read half.
    """


class ServerOverloaded(RuntimeError):
    """Admission control shed the request: a bounded shard queue was
    full, or the server-wide in-flight cap was reached.  Fail-fast by
    design -- retry with backoff or widen the limits."""


class ShardUnavailable(RuntimeError):
    """The shard is down: its circuit breaker is open (restart budget
    exhausted, see :mod:`repro.serving.supervision`) and the request
    could not be served degraded from the journal."""


def stable_shard(name: str, num_shards: int) -> int:
    """Deterministic shard of *name* (crc32, stable across processes)."""
    return zlib.crc32(name.encode("utf-8")) % num_shards


class ShardRouter:
    """Partitions instance names over ``num_shards`` shards.

    Placement is sticky: a name registered once keeps its shard for the
    router's lifetime (explicit placement wins over the hash).  Routing
    unregistered names is allowed -- they fall back to the stable hash --
    so the router never blocks admission; the worker decides whether the
    name actually resolves to a resident instance.
    """

    def __init__(
        self,
        num_shards: int = 4,
        placement: Optional[Dict[str, int]] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._placement: Dict[str, int] = {}
        for name, shard in (placement or {}).items():
            self.register(name, shard=shard)

    def register(self, name: str, shard: Optional[int] = None) -> int:
        """Pin *name* to a shard (explicit, or the stable hash) and return it."""
        if shard is None:
            shard = self._placement.get(name, stable_shard(name, self.num_shards))
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                "shard {} out of range [0, {})".format(shard, self.num_shards)
            )
        current = self._placement.get(name)
        if current is not None and current != shard:
            raise ValueError(
                "{!r} is already placed on shard {}".format(name, current)
            )
        self._placement[name] = shard
        return shard

    def shard_of(self, target: Union[str, DatabaseInstance]) -> int:
        """The shard serving *target* (a registered/ad-hoc name, or a raw
        instance routed by its content hash)."""
        if isinstance(target, str):
            placed = self._placement.get(target)
            if placed is not None:
                return placed
            return stable_shard(target, self.num_shards)
        return hash(target) % self.num_shards

    def assignments(self) -> Dict[str, int]:
        """Registered name -> shard (a copy)."""
        return dict(self._placement)


class ShardRequest:
    """One operation bound for a shard worker.

    *op* is ``"solve"``, ``"delta"``, ``"register"`` or ``"get"``.  The
    worker fulfils the request by calling :meth:`resolve` or :meth:`fail`;
    with an asyncio *loop* and *future* attached the completion is posted
    thread-safely onto the loop, otherwise it is stored on the request
    (the synchronous path used by direct ``execute()`` calls and tests).
    """

    __slots__ = (
        "op",
        "name",
        "db",
        "delta",
        "query",
        "method",
        "seq",
        "deadline",
        "loop",
        "future",
        "result",
        "error",
    )

    def __init__(
        self,
        op: str,
        name: Optional[str] = None,
        db: Optional[DatabaseInstance] = None,
        delta: Optional[Delta] = None,
        query: Optional[EngineQuery] = None,
        method: str = "auto",
        deadline: Optional[float] = None,
        loop=None,
        future=None,
    ) -> None:
        self.op = op
        self.name = name
        self.db = db
        self.delta = delta
        self.query = query
        self.method = method
        #: Per-shard write sequence number, stamped by the transport at
        #: execute time (0 = unstamped; reads are never stamped).
        self.seq = 0
        #: Absolute ``time.monotonic()`` deadline (None = no deadline).
        self.deadline = deadline
        self.loop = loop
        self.future = future
        self.result = None
        self.error: Optional[BaseException] = None

    def as_op(self) -> ShardOp:
        """The picklable wire form of this request (no loop, no future)."""
        return (
            self.op,
            self.name,
            self.db,
            self.delta,
            self.query,
            self.method,
            self.seq,
            self.deadline,
        )

    def resolve(self, result) -> None:
        self.result = result
        if self.future is not None:
            self.loop.call_soon_threadsafe(self._set_result, result)

    def fail(self, error: BaseException) -> None:
        self.error = error
        if self.future is not None:
            self.loop.call_soon_threadsafe(self._set_error, error)

    def _set_result(self, result) -> None:
        if not self.future.done():
            self.future.set_result(result)

    def _set_error(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)


class ShardCore:
    """The transport-agnostic execution logic of one shard.

    Owns the shard's resident instances (``name -> DatabaseInstance``,
    advanced in place by delta ops) and a private engine whose plan cache
    and state cache stay warm across batches.  The core runs wherever its
    transport puts it -- inside the worker's thread
    (:class:`~repro.serving.transport.ThreadTransport`) or inside a
    dedicated shard subprocess
    (:class:`~repro.serving.transport.ProcessTransport`) -- and is driven
    one batch at a time, so it needs no locking of its own: whoever calls
    :meth:`run_batch` is the sole mutator of the registry and the engine
    state, and per-shard operations are totally ordered (a solve after a
    delta observes the updated instance -- read-your-writes per shard).
    """

    def __init__(
        self,
        shard_id: int,
        engine_factory: Callable[[], CertaintyEngine] = CertaintyEngine,
    ) -> None:
        self.shard_id = shard_id
        self.engine = engine_factory()
        self.instances: Dict[str, DatabaseInstance] = {}
        self.requests = 0
        self.coalesced = 0
        self.errors = 0
        #: Ops shed inside the core because their deadline had already
        #: passed when their turn in the batch came.
        self.deadline_shed = 0
        #: High-water mark of applied write sequence numbers.  Writes are
        #: delivered in sequence order, so a stamped write at or below
        #: this mark is a redelivery (the transport retried a batch whose
        #: first attempt was applied before the child died) and must not
        #: be applied again -- at-least-once delivery, exactly-once
        #: effect.
        self.applied_seq = 0

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run_batch(self, ops: List[ShardOp]) -> List[Tuple[bool, object]]:
        """Execute *ops* in arrival order, coalescing duplicate reads.

        Returns one ``(ok, payload)`` row per op, aligned by index:
        ``(True, result)`` for served ops, ``(False, exception)`` for
        failed ones -- a failing op never aborts its batch companions.
        Identical concurrent reads of the same resident inside one batch
        run the engine once; the *same* result object is returned for
        every coalesced row (transports fan it out to all futures).
        """
        memo: Dict[Hashable, object] = {}
        rows: List[Tuple[bool, object]] = []
        for op, name, db, delta, query, method, seq, deadline in ops:
            self.requests += 1
            try:
                rows.append(
                    (
                        True,
                        self._run_op(
                            op, name, db, delta, query, method, seq,
                            deadline, memo,
                        ),
                    )
                )
            except BaseException as error:  # noqa: BLE001 - forwarded
                self.errors += 1
                rows.append((False, error))
        return rows

    def _check_deadline(self, op: str, deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            self.deadline_shed += 1
            raise DeadlineExceeded(
                "shard {} shed {} op: deadline passed before it ran".format(
                    self.shard_id, op
                )
            )

    def _run_op(self, op, name, db, delta, query, method, seq, deadline,
                memo):
        if op == "solve":
            self._check_deadline(op, deadline)
            return self._solve(name, db, query, method, memo)
        if op in ("delta", "register") and seq and seq <= self.applied_seq:
            # Redelivered write (a transport retry after journal replay
            # already restored the post-write state): skip the write,
            # serve only its read half.
            self._forget(memo, name)
            if op == "register":
                return name
            self._check_deadline(op, deadline)
            return self._solve(name, None, query, method, memo)
        if op == "delta":
            # Writes invalidate coalesced reads of the same name.
            self._forget(memo, name)
            return self._delta(name, delta, query, method, seq, deadline)
        if op == "register":
            self._forget(memo, name)
            self.instances[name] = db
            if seq:
                self.applied_seq = seq
            return name
        if op == "get":
            self._check_deadline(op, deadline)
            return self._resident(name)
        if op == "seal":
            # Journal replay epilogue: the replayed snapshots already
            # contain every write up to *seq*, so acknowledge them all.
            self.applied_seq = max(self.applied_seq, seq)
            return self.applied_seq
        raise ValueError("unknown op {!r}".format(op))

    def _resident(self, name: str) -> DatabaseInstance:
        db = self.instances.get(name)
        if db is None:
            raise KeyError(
                "shard {} has no instance named {!r}".format(
                    self.shard_id, name
                )
            )
        return db

    @staticmethod
    def _forget(memo: Dict[Hashable, object], name: Optional[str]) -> None:
        for key in [k for k in memo if k[0] == name]:
            del memo[key]

    def _solve(self, name, db, query, method, memo):
        if db is not None:
            # Ad-hoc instance riding through the shard: plan cache warm,
            # no resident state to serve from.
            return self.engine.solve(db, query, method)
        resident = self._resident(name)
        memo_key = (name, CertaintyEngine._cache_key(query), method)
        cached = memo.get(memo_key)
        if cached is not None:
            self.coalesced += 1
            return cached
        if method == "auto":
            # The empty delta reads the answer off the maintained state
            # (installing it on first sight) -- the shard-warm hot path.
            result = self.engine.solve_delta(resident, EMPTY_DELTA, query)
        else:
            result = self.engine.solve(resident, query, method)
        memo[memo_key] = result
        return result

    def _delta(self, name, delta, query, method, seq=0, deadline=None):
        db = self._resident(name)
        overlay = delta.apply_to(db)
        # The write half commits before (and regardless of) the read
        # half: once the name resolves, the delta is applied even if the
        # solve raises -- the registry must agree with the transport's
        # write-ahead journal, which recorded the delta before dispatch.
        # commit() is memoized, so this is the instance the engine keys
        # the maintained state under -- future reads hit it directly.
        self.instances[name] = overlay.commit()
        if seq:
            self.applied_seq = seq
        # Deadlines never roll back a committed write: only the read
        # half is shed once the registry (and journal) hold the delta.
        self._check_deadline("delta", deadline)
        return self.engine.solve_delta(db, overlay, query, method=method)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Execution counters plus the owned engine's cache/stat infos.

        The snapshot is plain picklable data: process transports ship it
        back with every batch reply so the router side always holds the
        latest child-side counters (and can merge them across restarts).
        """
        engine_stats = self.engine.stats
        return {
            "residents": sorted(self.instances),
            "applied_seq": self.applied_seq,
            "requests": self.requests,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "deadline_shed": self.deadline_shed,
            "warm_hits": engine_stats.incremental_hits,
            "cold_solves": engine_stats.full_resolves,
            "engine": engine_stats.as_dict(),
            "plan_cache": self.engine.cache_info(),
            "state_cache": self.engine.state_cache.info(),
        }

    @staticmethod
    def empty_snapshot() -> dict:
        """The zero-counter snapshot of a core that served nothing yet."""
        from repro.engine.engine import EngineStats

        return {
            "residents": [],
            "applied_seq": 0,
            "requests": 0,
            "coalesced": 0,
            "errors": 0,
            "deadline_shed": 0,
            "warm_hits": 0,
            "cold_solves": 0,
            "engine": EngineStats().as_dict(),
            "plan_cache": {},
            "state_cache": {},
        }


class ShardWorker:
    """A persistent worker serving one shard through a transport.

    The worker owns the shard's request queue and the **micro-batch
    assembly loop**: an idle worker dispatches the first request at
    once, together with whatever is already queued behind it (up to
    *max_batch*), so a batch is exactly what arrived while the previous
    one was in service.  The assembled batch is handed to the shard's
    :class:`~repro.serving.transport.ShardTransport` for execution.  The
    transport decides where the shard's :class:`ShardCore` (residents +
    engine) lives:

    * ``transport="thread"`` -- the core runs in this worker's thread
      (shared memory; the PR 3 behavior);
    * ``transport="process"`` -- the core runs in a dedicated subprocess
      with a persistent engine; batches cross a pipe, residents ship
      once as facts-only snapshots, and a crashed child is restarted
      from the router-side journal.

    *transport* may also be a callable ``(shard_id, engine_factory,
    **options) -> ShardTransport`` for custom transports.

    With a *journal_store* (see :mod:`repro.serving.journal`) the worker
    hands the transport a :class:`~repro.serving.journal.ShardJournal`
    view bound to this shard: every registration and forwarded delta is
    recorded there, and a transport that starts against a non-empty
    journal replays its residents before serving -- with a durable store
    (``SqliteJournalStore``) that is how a reopened server restores its
    shards with zero client re-registration.

    Shutdown is graceful: :meth:`stop` lets the batch currently being
    executed finish, then fails every still-queued request with
    :class:`ServerClosed` instead of leaving its future pending, and
    rejects later submissions the same way.
    """

    def __init__(
        self,
        shard_id: int,
        engine_factory: Callable[[], CertaintyEngine] = CertaintyEngine,
        max_batch: int = 32,
        transport: Union[str, Callable] = "thread",
        transport_options: Optional[dict] = None,
        journal_store=None,
        queue_limit: Optional[int] = None,
        faults=None,
        restart_policy=None,
        degraded: Optional[bool] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        from repro.serving.transport import make_transport

        self.shard_id = shard_id
        self.max_batch = max_batch
        #: Bounded-queue admission: submissions beyond this many queued
        #: requests fail fast with :class:`ServerOverloaded` (None =
        #: unbounded, the pre-resilience behavior).
        self.queue_limit = queue_limit
        options = dict(transport_options or {})
        if journal_store is not None:
            options.setdefault("journal", journal_store.shard(shard_id))
        # Resilience knobs ride into the transport the same way the
        # journal does; None means "don't mention it", so custom
        # transport callables with narrower signatures keep working.
        if faults is not None:
            options.setdefault("faults", faults)
        if restart_policy is not None:
            options.setdefault("restart_policy", restart_policy)
        if degraded is not None:
            options.setdefault("degraded", degraded)
        self.transport = make_transport(
            transport, shard_id, engine_factory, **options
        )
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_observed = 0
        #: Requests rejected by the bounded queue.
        self.overload_shed = 0
        #: Requests shed at batch-assembly time (deadline already past
        #: before the transport was consulted).
        self.deadline_shed = 0
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    # ------------------------------------------------------------------
    # Thread-transport conveniences (tests, synchronous embedders)
    # ------------------------------------------------------------------

    @property
    def engine(self) -> CertaintyEngine:
        """The shard's engine (thread transport only -- the core is local)."""
        return self.transport.core.engine

    @property
    def instances(self) -> Dict[str, DatabaseInstance]:
        """The resident registry (thread transport only)."""
        return self.transport.core.instances

    @property
    def coalesced(self) -> int:
        return self.transport.snapshot()["coalesced"]

    @property
    def errors(self) -> int:
        return self.transport.snapshot()["errors"]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self.transport.start()
        self._thread = threading.Thread(
            target=self._run,
            name="repro-shard-{}".format(self.shard_id),
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Graceful shutdown: finish the in-flight batch, fail the rest.

        Idempotent.  The batch currently being executed (if any) runs to
        completion and resolves its futures; every request still queued
        -- and every request submitted afterwards -- fails with
        :class:`ServerClosed`.  Finally the transport is stopped (a
        process transport terminates its child here).
        """
        self._closing = True
        if self._thread is not None:
            self._queue.put(_STOP)
            self._thread.join()
            self._thread = None
        self._fail_queued()
        self.transport.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def submit(self, request: ShardRequest) -> None:
        if self._closing:
            request.fail(self._closed_error())
            return
        if (
            self.queue_limit is not None
            and self.queue_depth() >= self.queue_limit
        ):
            self.overload_shed += 1
            request.fail(
                ServerOverloaded(
                    "shard {} queue is full ({} queued >= limit {})".format(
                        self.shard_id, self.queue_depth(), self.queue_limit
                    )
                )
            )
            return
        self._queue.put(request)
        # A stop() racing between the check and the put has already
        # drained the queue; fail anything it missed rather than strand
        # a future forever.  Preserve the _STOP sentinel: the worker
        # thread may still be waiting for it.
        if self._closing:
            self._fail_queued(preserve_stop=True)

    def queue_depth(self) -> int:
        """Requests admitted but not yet drained into a batch."""
        try:
            return self._queue.qsize()
        except NotImplementedError:  # pragma: no cover - macOS SimpleQueue
            return -1

    def _closed_error(self) -> ServerClosed:
        return ServerClosed(
            "shard {} is shut down; the request was not served".format(
                self.shard_id
            )
        )

    def _fail_queued(self, preserve_stop: bool = False) -> None:
        saw_stop = False
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                saw_stop = True
                continue
            item.fail(self._closed_error())
        if saw_stop and preserve_stop:
            self._queue.put(_STOP)

    # ------------------------------------------------------------------
    # The micro-batching loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch, stopped = self._drain()
            if batch:
                if self._closing:
                    # Still-queued at close time: fail, do not execute.
                    for request in batch:
                        request.fail(self._closed_error())
                else:
                    try:
                        self.execute(batch)
                    except BaseException as error:  # noqa: BLE001
                        # A transport-level failure (e.g. an unpicklable
                        # constant aborting the pipe send) must fail the
                        # batch, not kill the drain thread and strand
                        # every future behind it.  Requests the
                        # transport already resolved ignore the fail().
                        for request in batch:
                            request.fail(error)
            if stopped:
                self._fail_queued()
                return

    def _drain(self):
        """Block for one request, then take what is already queued behind
        it, up to *max_batch* -- no timed wait: an idle shard dispatches
        at once, and a busy one batches what arrived meanwhile."""
        first = self._queue.get()
        if first is _STOP:
            return [], True
        batch: List[ShardRequest] = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return batch, True
            batch.append(item)
        return batch, False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, batch: List[ShardRequest]) -> None:
        """Serve *batch* through the transport, resolving every request.

        Requests whose deadline already passed are shed here, at batch
        assembly -- before any engine (or wire) work is spent on them.
        Public so tests (and synchronous embedders) can drive a worker
        without its thread; the threaded loop calls it too.
        """
        batch = self._shed_expired(batch)
        if not batch:
            return
        self.batches += 1
        self.batched_requests += len(batch)
        self.max_batch_observed = max(self.max_batch_observed, len(batch))
        self.transport.execute(batch)

    def _shed_expired(
        self, batch: List[ShardRequest]
    ) -> List[ShardRequest]:
        now = time.monotonic()
        live: List[ShardRequest] = []
        for request in batch:
            if request.deadline is not None and now >= request.deadline:
                self.deadline_shed += 1
                request.fail(
                    DeadlineExceeded(
                        "deadline passed {:.4f}s before shard {} assembled"
                        " its batch".format(
                            now - request.deadline, self.shard_id
                        )
                    )
                )
            else:
                live.append(request)
        return live

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Assembly counters, core execution counters, transport health."""
        snapshot = self.transport.snapshot()
        health = self.transport.health()
        health["queue_depth"] = self.queue_depth()
        return {
            "shard": self.shard_id,
            "residents": snapshot["residents"],
            "requests": snapshot["requests"],
            "batches": self.batches,
            "mean_batch_size": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            "max_batch_size": self.max_batch_observed,
            "coalesced": snapshot["coalesced"],
            "errors": snapshot["errors"],
            # Core-side sheds (mid-batch) plus assembly-time sheds.
            "deadline_shed": snapshot.get("deadline_shed", 0)
            + self.deadline_shed,
            "overload_shed": self.overload_shed,
            "warm_hits": snapshot["warm_hits"],
            "cold_solves": snapshot["cold_solves"],
            "engine": snapshot["engine"],
            "plan_cache": snapshot["plan_cache"],
            "state_cache": snapshot["state_cache"],
            "transport": health,
        }
