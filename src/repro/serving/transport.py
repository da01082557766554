"""Pluggable shard transports: where a shard's core actually runs.

The :class:`~repro.serving.shard.ShardWorker` assembles micro-batches;
a **transport** executes them against the shard's
:class:`~repro.serving.shard.ShardCore` (residents + engine).  Two
implementations share the seam:

* :class:`ThreadTransport` -- the core lives in the worker's own thread.
  Zero serialization, results shared by reference, but every shard
  competes for the one GIL: CPU-bound routes (coNP SAT re-solves, cold
  PTIME fixpoints) serialize across shards.
* :class:`ProcessTransport` -- the core lives in a dedicated subprocess
  with a persistent engine, one per shard, so shards burn CPU in
  parallel.  The wire protocol is deliberately thin:

  - **residents ship once** as facts-only snapshots (the
    :meth:`~repro.db.instance.DatabaseInstance.__reduce__` contract:
    no compact views cross the pipe -- the child rebuilds its own view
    on first use); snapshots whose estimated payload clears the
    transport's ``shm_threshold`` ship through a
    ``multiprocessing.shared_memory`` segment as flat snapshot-local
    int arrays instead of a pickled frame (same facts-only contract;
    the decoder checks every count and id and rejects a malformed
    segment outright), with the segment unlinked by the parent once the
    batch -- including any crash retry -- resolves;
  - **writes forward only the** :class:`~repro.db.delta.Delta`, and are
    **journaled ahead of dispatch**: registrations and deltas are
    recorded in the shard's journal (a
    :class:`~repro.serving.journal.ShardJournal` view -- in-memory by
    default, sqlite-durable when the server is opened with one) before
    the batch crosses the pipe, so parent-side journal and child
    registry stay fact-identical even across a child crash;
  - **writes are stamped** with a per-shard monotonic sequence number;
    the child acks the highest applied sequence in its snapshot and
    skips redelivered writes, so the crash-retry path is at-least-once
    delivery with exactly-once effect;
  - **results return stripped**: the child drops lazy falsifying-repair
    certificates before pickling (an unread certificate is O(db) on the
    wire) and the router side re-attaches a
    :class:`~repro.solvers.result.LazyMinimalRepair` against its journal
    copy -- the certificate is rebuilt on first access, exactly as the
    in-process lazy path would have;
  - **crashes are survivable**: a dead child is detected on the next
    batch, restarted, and its residents replayed from the journal (the
    folded log of everything shipped), after which the batch is retried
    once.  Counters stay monotone across restarts -- the dead
    generation's last snapshot is merged into a carried base (see
    :meth:`repro.engine.engine.EngineStats.merge`), and only after the
    replacement child is known good.

Restarts are **supervised** (see :mod:`repro.serving.supervision`): a
:class:`~repro.serving.supervision.RestartPolicy` budgets restarts per
rolling window, and each transport carries a per-shard
:class:`~repro.serving.supervision.CircuitBreaker`.  A crash the policy
refuses to restart trips the breaker: the shard is *down*, and until
the backoff cooldown admits a half-open probe, requests fail fast with
:class:`~repro.serving.shard.ShardUnavailable` -- except reads of
durable residents, which (by default) are served **degraded** from a
transport-side fallback engine over the journal's folded snapshots:
the journal *is* the committed state, so a degraded answer is stale
only with respect to writes that were never acknowledged.

Both transports also consult an optional
:class:`~repro.serving.faults.FaultPlan` once per fresh batch -- the
deterministic chaos surface (crash/drop/delay/dup) that generalizes the
old ``fail_replies`` hook, identical across transports: ``crash`` dies
after the commit point, ``drop`` before it, ``delay`` stalls dispatch,
``dup`` delivers the batch twice (sequence stamps shield the writes).
The thread transport *emulates* a crash by discarding its core and
rebuilding it from the journal -- the same recovery contract the
process transport exercises for real.

Transport health (``restarts``, ``breaker``, ``consecutive_failures``,
``snapshot_bytes``, ``snapshot_shm``, ``deltas_forwarded``,
``journal``, ``alive``) is reported per shard via
``ShardWorker.stats()["transport"]`` and surfaces in ``python -m repro
serve --stats``.

The default process start method is ``spawn``: children begin from a
fresh interpreter, which keeps the facts-only wire contract honest (a
forked child would inherit the parent's cached views and plans) and
avoids forking a multi-threaded server.  For ``spawn``, *engine_factory* must
be picklable -- the :class:`~repro.engine.CertaintyEngine` class itself,
or a ``functools.partial`` over it.

>>> make_transport("thread", 0).kind
'thread'
>>> make_transport("process", 0).kind      # not started until first use
'process'
>>> make_transport("telepathy", 0)
Traceback (most recent call last):
    ...
ValueError: unknown transport 'telepathy' (choose from process, thread)
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import zlib
from array import array
from typing import Callable, List, Optional, Tuple, Union

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no shm backend
    _shared_memory = None

from repro.db.facts import Fact
from repro.db.instance import Block, DatabaseInstance
from repro.engine.engine import CertaintyEngine, EngineStats
from repro.serving.faults import make_fault_plan
from repro.serving.journal import JournalStore, ShardJournal
from repro.serving.shard import (
    EMPTY_DELTA,
    ShardCore,
    ShardOp,
    ShardRequest,
    ShardUnavailable,
)
from repro.serving.supervision import CircuitBreaker, RestartPolicy
from repro.solvers.result import CertaintyResult


class ShardTransportError(ShardUnavailable):
    """The shard's transport failed and could not recover.

    A subclass of :class:`~repro.serving.shard.ShardUnavailable`: a
    batch lost to an unrecoverable transport failure and a batch shed by
    an open breaker are the same event to the caller -- the shard is
    down right now; retry later or accept a degraded read.
    """


class ShardTransport:
    """The seam between micro-batch assembly and execution.

    A transport owns one shard's :class:`ShardCore` -- directly
    (:class:`ThreadTransport`) or by proxy (:class:`ProcessTransport`) --
    and executes assembled batches against it.  ``execute`` must resolve
    or fail *every* request in the batch before returning; ``snapshot``
    returns the core's execution counters (see
    :meth:`ShardCore.snapshot`), ``health`` the transport's own vitals.
    A future network front end is one more implementation of this class.
    """

    #: Short name surfaced in stats (``"thread"``, ``"process"``).
    kind = "abstract"

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def execute(self, requests: List[ShardRequest]) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        raise NotImplementedError

    def health(self) -> dict:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared resilience machinery (both built-in transports)
    # ------------------------------------------------------------------

    def _init_resilience(
        self,
        shard_id: int,
        engine_factory,
        faults,
        restart_policy: Optional[RestartPolicy],
        degraded: bool,
    ) -> None:
        self.faults = make_fault_plan(faults)
        self.breaker = CircuitBreaker(
            restart_policy or RestartPolicy(), shard_id
        )
        #: Serve reads of journaled residents from a fallback engine
        #: while the breaker is open (instead of failing them fast).
        self.degraded = degraded
        self.degraded_served = 0
        self.unavailable_shed = 0
        self._fallback_engine: Optional[CertaintyEngine] = None
        self._engine_factory = engine_factory

    def _draw_faults(
        self, requests: List[ShardRequest]
    ) -> Tuple[int, bool]:
        """Consult the fault plan once for this fresh batch.

        Applies ``delay`` actions inline (stalling dispatch) and returns
        ``(crash_mode, dup)``: crash_mode 0 = none, 1 = die after the
        commit point, 2 = die before it; *dup* delivers the batch twice.
        """
        if self.faults is None:
            return 0, False
        crash_mode, dup = 0, False
        actions = self.faults.draw(
            self.shard_id, [request.op for request in requests]
        )
        for action in actions:
            if action.kind == "delay":
                if action.seconds > 0:
                    time.sleep(action.seconds)
            elif action.kind == "dup":
                dup = True
            elif action.kind == "crash":
                crash_mode = 1
            elif action.kind == "drop":
                crash_mode = 2
        return crash_mode, dup

    def _shed_unavailable(self, requests: List[ShardRequest]) -> None:
        """The shard is down: serve journal-backed reads degraded (when
        enabled), fail everything else fast with ShardUnavailable."""
        for request in requests:
            try:
                served = self._try_degraded(request)
            except BaseException as error:  # noqa: BLE001 - forwarded
                request.fail(error)
                continue
            if served is not None:
                self.degraded_served += 1
                request.resolve(served[0])
                continue
            self.unavailable_shed += 1
            request.fail(
                ShardUnavailable(
                    "shard {} is down (breaker {}, {} consecutive"
                    " failures)".format(
                        self.shard_id,
                        self.breaker.state,
                        self.breaker.consecutive_failures,
                    )
                )
            )

    def _try_degraded(self, request: ShardRequest):
        """Serve a read from the journal's committed state.

        Returns a 1-tuple holding the payload (so a legitimate ``None``
        payload is distinguishable), or ``None`` when the request cannot
        be served degraded (writes, unknown names, degraded disabled).
        The journal holds the *committed* folded snapshot of every
        durable resident, so the answer is exact up to unacknowledged
        writes -- not a stale cache.
        """
        if not self.degraded:
            return None
        if request.op == "solve" and request.db is not None:
            # Ad-hoc read: carries its own instance, needs no shard
            # state at all -- always servable from the fallback engine.
            return (
                self._fallback().solve(
                    request.db, request.query, request.method
                ),
            )
        journal = getattr(self, "journal", None)
        if journal is None or request.name is None:
            return None
        if request.op not in ("solve", "get"):
            return None
        # read() (not get()) is the degraded path: a replicated store
        # answers from the freshest caught-up replica when the primary
        # itself cannot serve the snapshot.
        db = journal.read(request.name)
        if db is None:
            return None
        if request.op == "get":
            return (db,)
        engine = self._fallback()
        if request.method == "auto":
            # Same warm path the core uses: the fallback engine keeps
            # maintained state across degraded reads of the same name.
            return (engine.solve_delta(db, EMPTY_DELTA, request.query),)
        return (engine.solve(db, request.query, request.method),)

    def _fallback(self) -> CertaintyEngine:
        if self._fallback_engine is None:
            self._fallback_engine = self._engine_factory()
        return self._fallback_engine

    def _resilience_health(self) -> dict:
        return {
            "breaker": self.breaker.state,
            "consecutive_failures": self.breaker.consecutive_failures,
            "breaker_trips": self.breaker.trips,
            "degraded_served": self.degraded_served,
            "unavailable_shed": self.unavailable_shed,
            "faults": "armed" if self.faults is not None else "none",
        }


class ThreadTransport(ShardTransport):
    """The PR 3 behavior, refactored onto the seam: the core is local.

    Results are handed to futures by reference (no serialization, lazy
    certificates stay lazy in the shared heap); all shards share the
    interpreter, so throughput is bounded by the GIL -- the right choice
    when requests are served warm (microseconds each) and the wrong one
    when every request burns CPU.
    """

    kind = "thread"

    def __init__(
        self,
        shard_id: int,
        engine_factory: Callable[[], CertaintyEngine] = CertaintyEngine,
        journal: Optional[ShardJournal] = None,
        faults=None,
        restart_policy: Optional[RestartPolicy] = None,
        degraded: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.engine_factory = engine_factory
        self._init_resilience(
            shard_id, engine_factory, faults, restart_policy, degraded
        )
        if self.faults is not None and journal is None:
            # Chaos needs a replay source: an emulated crash discards
            # the core and rebuilds it from the journal, exactly as the
            # process transport restores a dead child.
            journal = JournalStore().shard(shard_id)
        self.journal = journal
        self.core = ShardCore(shard_id, engine_factory=engine_factory)
        self.restarts = 0
        self._seq = 0
        self._carry: Optional[dict] = None
        if journal is not None:
            # Cold start from a warm journal: adopt its residents and
            # its sequence high-water before serving anything.
            self.core.instances.update(journal.residents())
            self.core.applied_seq = journal.last_seq()
            self._seq = journal.last_seq()

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def execute(self, requests: List[ShardRequest]) -> None:
        state = self.breaker.state
        if state == "open":
            self._shed_unavailable(requests)
            return
        probe = state == "half_open"
        if self.core is None:
            # The emulated shard died when the breaker tripped; the
            # probe (or a re-closed breaker) resurrects it from the
            # journal -- a supervised restart, charged to the window.
            self._restart_core()
        crash_mode, dup = self._draw_faults(requests)
        if crash_mode == 2:
            # Drop: the batch dies before the core applies anything.
            self._recover(requests, probe)
            return
        rows = self._run(requests, dup=dup)
        if crash_mode == 1:
            # Crash after commit: the writes above are applied and
            # journaled, but the replies are lost with the core.
            self._recover(requests, probe)
            return
        self._resolve(requests, rows)
        if self.breaker.consecutive_failures or probe:
            self.breaker.record_success()

    def _run(self, requests: List[ShardRequest], dup: bool = False):
        if self.journal is not None:
            for request in requests:
                if request.op in ("register", "delta") and request.seq == 0:
                    self._seq += 1
                    request.seq = self._seq
        ops = [request.as_op() for request in requests]
        rows = self.core.run_batch(ops)
        self._journal_applied(requests)
        if dup:
            # Duplicated delivery: the same ops run again; sequence
            # stamps shield the writes and the duplicate rows are
            # discarded -- at-least-once delivery, exactly-once effect.
            self.core.run_batch(ops)
        return rows

    @staticmethod
    def _resolve(requests: List[ShardRequest], rows) -> None:
        for request, (ok, payload) in zip(requests, rows):
            if ok:
                request.resolve(payload)
            else:
                request.fail(payload)

    def _recover(self, requests: List[ShardRequest], probe: bool) -> None:
        """The emulated child died.  Supervise a restart (same contract
        as the process transport: rebuild the core from the journal,
        retry the batch once) or trip the breaker and shed."""
        self.breaker.record_failure()
        if not (probe or self.breaker.allow_restart()):
            self.breaker.trip()
            # The shard is down for real: fold the dead core's counters
            # away so the half-open probe must restart from the journal
            # (mirroring the process transport, whose child is a corpse
            # until the probe respawns it).
            if self.core is not None:
                self._carry = merge_snapshots(self._carry, self.core.snapshot())
                self.core = None
            self._shed_unavailable(requests)
            return
        self._restart_core()
        # No redraw, no duplication: a retry is a plain delivery.
        # Already-journaled writes carry their stamp and are skipped.
        rows = self._run(requests)
        self._resolve(requests, rows)
        self.breaker.record_success()

    def _restart_core(self) -> None:
        self.breaker.record_restart()
        if self.core is not None:
            self._carry = merge_snapshots(self._carry, self.core.snapshot())
        self.core = ShardCore(
            self.shard_id, engine_factory=self.engine_factory
        )
        if self.journal is not None:
            self.core.instances.update(self.journal.residents())
            self.core.applied_seq = self.journal.last_seq()
        self.restarts += 1

    def _journal_applied(self, requests: List[ShardRequest]) -> None:
        """Mirror every write the core applied into the journal.

        The core is local, so there is no crash window to journal ahead
        of: recording after the batch sees exactly the applied writes
        (``seq <= applied_seq`` -- a delta whose read half failed still
        counts: the core commits the write regardless).
        """
        if self.journal is None:
            return
        for request in requests:
            if request.seq == 0 or request.seq > self.core.applied_seq:
                continue
            if request.op == "register":
                self.journal.register(request.name, request.db, request.seq)
            elif (
                request.op == "delta"
                and self.journal.get(request.name) is not None
            ):
                # An unknown-name delta fails without applying; its seq
                # can still sit below the batch's final high-water, so
                # the resident check (not the seq) excludes it here.
                self.journal.delta(request.name, request.delta, request.seq)

    def snapshot(self) -> dict:
        live = self.core.snapshot() if self.core is not None else None
        if self._carry is None and live is not None:
            return live
        return merge_snapshots(self._carry, live)

    def health(self) -> dict:
        health = {
            "transport": self.kind,
            "alive": self.core is not None,
            "restarts": self.restarts,
            "snapshot_bytes": 0,
            "snapshot_shm": 0,
            "deltas_forwarded": 0,
            "journal": self.journal.kind if self.journal else "none",
        }
        health.update(self._resilience_health())
        return health


#: Estimated shm payload bytes above which a register op's snapshot ships
#: through a shared-memory segment instead of its pickled frame slice.
SHM_SNAPSHOT_THRESHOLD = 256 * 1024


def _estimate_snapshot_bytes(db: DatabaseInstance) -> int:
    """Cheap upper-bound estimate of a snapshot's shm payload size.

    The flat stream costs 8 bytes per fact plus 24 per block plus the
    pickled symbol tables; ``16 * facts`` over-counts the stream enough
    to stand in for the tables without touching them.
    """
    return 16 * len(db.facts)


def _encode_snapshot(db: DatabaseInstance) -> bytes:
    """Flatten *db* into the facts-only shm wire format.

    Layout: two 8-byte little-endian counts (the pickled tables' length
    and the stream's id count), the pickled symbol tables ``(relations,
    consts)``, a flat ``array('q')`` stream of block records ``rel_id,
    key_id, n_values, value_id...``, then the little-endian crc32 of
    everything before it (4 bytes), as journal records carry one, so
    damage in transit is caught before anything is unpickled.  Every id
    is a
    **snapshot-local** dense index into the shipped tables, handed out
    in order of first use (the same facts-only contract as
    :meth:`DatabaseInstance.__reduce__`).  Block records emit values in
    the parent's sorted block order, so the receiver can assemble
    presorted blocks without re-sorting.
    """
    local: dict = {}
    consts: list = []
    rel_ids: dict = {}
    rels: list = []
    stream = array("q")
    append = stream.append
    lookup = local.get
    for (key, rel), facts in db._out_index.items():
        rel_id = rel_ids.get(rel)
        if rel_id is None:
            rel_id = rel_ids[rel] = len(rels)
            rels.append(rel)
        key_id = lookup(key)
        if key_id is None:
            key_id = local[key] = len(consts)
            consts.append(key)
        append(rel_id)
        append(key_id)
        append(len(facts))
        for fact in facts:
            value_id = lookup(fact.value)
            if value_id is None:
                value_id = local[fact.value] = len(consts)
                consts.append(fact.value)
            append(value_id)
    tables = pickle.dumps((rels, consts), protocol=pickle.HIGHEST_PROTOCOL)
    body = (
        len(tables).to_bytes(8, "little")
        + len(stream).to_bytes(8, "little")
        + tables
        + stream.tobytes()
    )
    return body + zlib.crc32(body).to_bytes(4, "little")


def _decode_snapshot(payload: bytes) -> DatabaseInstance:
    """Rebuild a :class:`DatabaseInstance` from the shm wire format.

    The decoder trusts nothing in the payload: the frame's checksum must
    match before the body is read at all, the header's counts must
    account for every byte, every block record must fit in the stream,
    every id must be a snapshot-local index handed out in first-use
    order (so each table entry is used, and nothing else), and blocks
    must be nonempty, distinct and sorted.  Any violation -- and any
    failure to unpickle or unpack the tables -- raises
    :class:`ShardTransportError`; a snapshot is never half-decoded.
    """
    try:
        return _decode_snapshot_checked(payload)
    except Exception as exc:
        raise ShardTransportError(
            "malformed shm snapshot: {!r}".format(exc)
        ) from exc


def _decode_snapshot_checked(framed: bytes) -> DatabaseInstance:
    payload = framed[:-4]
    if len(framed) < 4 or zlib.crc32(payload) != int.from_bytes(
        framed[-4:], "little"
    ):
        raise ValueError("checksum mismatch")
    tables_len = int.from_bytes(payload[:8], "little")
    end = int.from_bytes(payload[8:16], "little")
    if len(payload) != 16 + tables_len + 8 * end:
        raise ValueError("length does not match the header")
    rels, consts = pickle.loads(payload[16 : 16 + tables_len])
    if type(rels) is not list or type(consts) is not list:
        raise ValueError("symbol tables are not lists")
    if not all(type(rel) is str and rel for rel in rels):
        raise ValueError("relation names must be nonempty strings")
    stream = array("q")
    stream.frombytes(payload[16 + tables_len :])
    ids = stream.tolist()
    blocks: dict = {}
    out_index: dict = {}
    all_facts: list = []
    index = 0
    # The next fresh relation / constant id: an id is either one seen
    # before or exactly this one, which keeps every id in range.
    next_rel = 0
    next_const = 0
    presorted = Block.presorted
    extend = all_facts.extend
    new_fact = Fact.__new__
    while index < end:
        if index + 3 > end:
            raise ValueError("block header runs past the stream")
        rel_id = ids[index]
        key_id = ids[index + 1]
        count = ids[index + 2]
        index += 3
        if count < 1 or index + count > end:
            raise ValueError("block size out of range")
        if not 0 <= rel_id <= next_rel or not 0 <= key_id <= next_const:
            raise ValueError("id outside the shipped tables")
        if rel_id == next_rel:
            next_rel += 1
        if key_id == next_const:
            next_const += 1
        rel = rels[rel_id]
        key = consts[key_id]
        block_id = (rel, key)
        if block_id in blocks:
            raise ValueError("duplicate block")
        values = ids[index : index + count]
        index += count
        block_facts = []
        for value_id in values:
            if not 0 <= value_id <= next_const:
                raise ValueError("id outside the shipped tables")
            if value_id == next_const:
                next_const += 1
            fact = new_fact(Fact)
            state = fact.__dict__
            state["relation"] = rel
            state["key"] = key
            state["value"] = consts[value_id]
            block_facts.append(fact)
        if count > 1:
            order = [repr(consts[value_id]) for value_id in values]
            if any(a >= b for a, b in zip(order, order[1:])):
                raise ValueError("block values not sorted and distinct")
        facts = tuple(block_facts)
        blocks[block_id] = presorted(block_id, facts)
        out_index[(key, rel)] = facts
        extend(facts)
    if next_rel != len(rels) or next_const != len(consts):
        raise ValueError("unused symbol-table entries")
    fact_set = frozenset(all_facts)
    if len(fact_set) != len(all_facts):
        raise ValueError("duplicate facts")
    return DatabaseInstance._from_parts(
        fact_set, blocks, frozenset(consts), out_index
    )


class _ShmSnapshot:
    """Wire marker standing in for a register op's snapshot payload.

    The parent replaces the op's :class:`DatabaseInstance` with this
    marker before pickling the frame; the child resolves it by attaching
    the named segment, decoding the facts-only payload, and detaching.
    The parent owns the segment's lifetime (unlinked once the batch --
    including any crash retry, which re-reads it -- has fully resolved).
    """

    def __init__(self, name: str, nbytes: int) -> None:
        self.name = name
        self.nbytes = nbytes

    def load(self) -> DatabaseInstance:
        if _shared_memory is None:  # pragma: no cover - guarded by sender
            raise ShardTransportError("shared memory is unavailable")
        segment = _shared_memory.SharedMemory(name=self.name)
        try:
            payload = bytes(segment.buf[: self.nbytes])
        finally:
            # Close the mapping only -- the parent owns the segment and
            # unlinks it once the batch resolves.  The attach's resource
            # -tracker registration is shared with (and deduplicated
            # against) the parent's, so the parent's unlink retires it.
            segment.close()
        return _decode_snapshot(payload)

    def __repr__(self) -> str:
        return "_ShmSnapshot({!r}, {} bytes)".format(self.name, self.nbytes)


def _resolve_shm_op(op: ShardOp) -> ShardOp:
    """Child-side: swap a register op's shm marker for the decoded db."""
    if op[0] == "register" and isinstance(op[2], _ShmSnapshot):
        return (op[0], op[1], op[2].load()) + tuple(op[3:])
    return op


class ProcessTransport(ShardTransport):
    """One persistent subprocess per shard, behind the same seam.

    The child runs :func:`_shard_process_main`: a loop holding the
    shard's :class:`ShardCore` (engine, plan/state caches, residents)
    for the process lifetime, executing one pickled batch per message.
    The router side writes every registration and forwarded delta to the
    shard's **journal** (a :class:`~repro.serving.journal.ShardJournal`
    view) *before* dispatching the batch; the journal's folded snapshots
    are both the replay source after a crash (or a server restart, with
    a durable store) and the rehydration source for stripped lazy
    certificates.  Write ops are stamped with a per-shard monotonic
    sequence number so a retried batch never applies a write twice (the
    child skips sequences at or below its applied high-water).
    """

    kind = "process"

    def __init__(
        self,
        shard_id: int,
        engine_factory: Callable[[], CertaintyEngine] = CertaintyEngine,
        mp_context: str = "spawn",
        journal: Optional[ShardJournal] = None,
        faults=None,
        restart_policy: Optional[RestartPolicy] = None,
        degraded: bool = True,
        stop_timeout: float = 5.0,
        shm_threshold: Optional[int] = SHM_SNAPSHOT_THRESHOLD,
    ) -> None:
        self.shard_id = shard_id
        self.engine_factory = engine_factory
        self._init_resilience(
            shard_id, engine_factory, faults, restart_policy, degraded
        )
        #: Estimated payload bytes above which register snapshots ship
        #: via shared memory; ``None`` (or a missing shm backend) keeps
        #: every snapshot on the pickled-frame path.
        self.shm_threshold = (
            shm_threshold if _shared_memory is not None else None
        )
        #: Seconds to wait at each escalation step of :meth:`stop`
        #: (protocol stop -> terminate -> kill).
        self.stop_timeout = stop_timeout
        self._context = multiprocessing.get_context(mp_context)
        #: The shard's journal view: name -> current folded instance
        #: (the registered snapshot with every forwarded delta folded
        #: in).  Replay = re-register these snapshots.  Without an
        #: injected journal the transport keeps a private in-memory one
        #: -- the PR 5 behavior.
        self.journal = (
            journal
            if journal is not None
            else JournalStore().shard(shard_id)
        )
        #: Per-shard write sequence counter; resumes from the journal's
        #: high-water so fresh writes on a reopened log are never
        #: mistaken for redeliveries.
        self._seq = self.journal.last_seq()
        #: A non-empty journal at construction means a cold start (e.g.
        #: a reopened server): the first batch replays it into the fresh
        #: child before serving.
        self._needs_replay = self._seq > 0 or bool(self.journal.residents())
        self.restarts = 0
        self.snapshot_bytes = 0
        self.snapshot_shm = 0
        self.deltas_forwarded = 0
        #: Live shared-memory segments for the batch in flight; released
        #: (closed + unlinked) once the batch fully resolves -- retries
        #: against a restarted child re-read the same segments.
        self._segments: List = []
        #: Fault-injection hook (tests only): the child executes the
        #: next N batches normally -- commits and all -- but exits
        #: before replying, simulating a crash between commit and ack.
        self.fail_replies = 0
        self.process = None
        self._conn = None
        #: Latest child-side core snapshot (piggybacked on every reply).
        self._last: Optional[dict] = None
        #: Accumulated counters of dead child generations.
        self._carry: Optional[dict] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.process is not None:
            return
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_process_main,
            args=(child_conn, self.shard_id, self.engine_factory),
            name="repro-shard-proc-{}".format(self.shard_id),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            # Leave the transport cleanly stopped: a failed start must
            # not strand a half-initialized process/pipe pair.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        self.process = process
        self._conn = parent_conn

    def stop(self) -> None:
        """Stop the child, escalating until it is actually gone.

        Protocol stop first (graceful: the child drains and exits),
        then ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL, which
        not even a stopped or wedged child can ignore), each step
        bounded by :attr:`stop_timeout` -- ``stop()`` can never hang on
        or leak a stuck child.  Requests still queued at the *worker*
        are failed with ``ServerClosed`` by ``ShardWorker.stop()``
        before it calls this.
        """
        if self.process is None:
            return
        try:
            self._conn.send_bytes(pickle.dumps(("stop",)))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=self.stop_timeout)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.terminate()
            self.process.join(timeout=self.stop_timeout)
        if self.process.is_alive():  # pragma: no cover - wedged child
            self.process.kill()
            self.process.join(timeout=self.stop_timeout)
        self._conn.close()
        self.process = None
        self._conn = None
        self._release_segments()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, requests: List[ShardRequest]) -> None:
        state = self.breaker.state
        if state == "open":
            self._shed_unavailable(requests)
            return
        try:
            self._execute(requests, probe=state == "half_open")
        finally:
            # The batch is fully resolved (or failed for good): every
            # shm segment it shipped has been consumed and can go.  A
            # batch abandoned mid-crash still releases here -- segments
            # never outlive their batch.
            self._release_segments()

    def _execute(self, requests: List[ShardRequest], probe: bool) -> None:
        crash_mode, dup = self._draw_faults(requests)
        for request in requests:
            if request.op in ("register", "delta") and request.seq == 0:
                self._seq += 1
                request.seq = self._seq
        ops = [request.as_op() for request in requests]
        # Serialize each op to its own frame slice *before* journaling:
        # an unpicklable payload must fail the batch without leaving a
        # journal entry behind (it could never be replayed anyway).
        blobs = self._serialize(ops)
        self._account_wire(ops, blobs)
        # Write-ahead journaling: the journal records the write before
        # the child sees it, so a child that commits and dies before
        # acking is replayed to the exact committed state -- and the
        # retry's stamped ops are then skipped child-side.
        self._journal_ahead(requests)
        try:
            rows = self._round_trip(blobs, crash_mode)
            if dup:
                # Duplicated delivery: ship the same frames again; the
                # child skips the stamped writes and the second reply's
                # rows are discarded (its snapshot still refreshes the
                # counters) -- exactly-once effect under redelivery.
                self._round_trip(blobs)
        except (EOFError, OSError) as first_error:
            # The child died (or the pipe broke) mid-conversation.
            # Supervision decides what happens next: restart + replay +
            # one retry if the policy grants it (a half-open probe
            # always may), otherwise trip the breaker and shed.
            self.breaker.record_failure()
            if not (probe or self.breaker.allow_restart()):
                self.breaker.trip()
                self._shed_unavailable(requests)
                return
            try:
                self._restart_and_replay()
                rows = self._round_trip(blobs)
            except (EOFError, OSError) as second_error:
                self.breaker.record_failure()
                self.breaker.trip()
                failure = ShardTransportError(
                    "shard {} subprocess failed twice ({!r} then {!r}); "
                    "giving up on this batch".format(
                        self.shard_id, first_error, second_error
                    )
                )
                for request in requests:
                    request.fail(failure)
                return
        if self.breaker.consecutive_failures or probe:
            self.breaker.record_success()
        self._finish(requests, rows)

    def _serialize(self, ops: List[ShardOp]) -> List[bytes]:
        """One pickled frame slice per op (a single pickling pass: the
        slices are sent as-is, and sizing register slices separately is
        what keeps ``snapshot_bytes`` honest about mixed batches).
        Register snapshots whose estimated payload clears
        :attr:`shm_threshold` are diverted to a shared-memory segment:
        the frame then carries only a tiny :class:`_ShmSnapshot` marker
        and the segment (billed to ``snapshot_shm``) carries the flat
        facts-only arrays."""
        return [
            pickle.dumps(
                self._maybe_shm(op), protocol=pickle.HIGHEST_PROTOCOL
            )
            for op in ops
        ]

    def _maybe_shm(self, op: ShardOp) -> ShardOp:
        if (
            self.shm_threshold is None
            or op[0] != "register"
            or not isinstance(op[2], DatabaseInstance)
            or _estimate_snapshot_bytes(op[2]) < self.shm_threshold
        ):
            return op
        payload = _encode_snapshot(op[2])
        segment = _shared_memory.SharedMemory(
            create=True, size=max(1, len(payload))
        )
        segment.buf[: len(payload)] = payload
        self._segments.append(segment)
        self.snapshot_shm += len(payload)
        marker = _ShmSnapshot(segment.name, len(payload))
        return (op[0], op[1], marker) + tuple(op[3:])

    def _release_segments(self) -> None:
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - already gone
                pass
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def _round_trip(self, blobs: List[bytes], crash_mode: int = 0):
        if self._needs_replay:
            # Cold start against a warm (durable) journal: restore the
            # residents before the first real batch.
            self._needs_replay = False
            self.start()
            self._replay()
        self.start()
        if self.fail_replies > 0:
            # The legacy hook is now a shorthand for crash mode 1
            # (commit, then die before acking).
            self.fail_replies -= 1
            crash_mode = 1
        self._conn.send_bytes(
            pickle.dumps(
                ("batch", blobs, crash_mode),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        kind, rows, snapshot = self._conn.recv()
        assert kind == "results", kind
        self._last = snapshot
        return rows

    def _account_wire(self, ops: List[ShardOp], blobs: List[bytes]) -> None:
        """Health counters, billed once per batch (retries reuse the
        same frames): forwarded deltas by count, resident snapshots by
        their own wire size -- solve/delta companions in a mixed batch
        never inflate ``snapshot_bytes``."""
        for op, blob in zip(ops, blobs):
            if op[0] == "delta":
                self.deltas_forwarded += 1
            elif op[0] == "register":
                self.snapshot_bytes += len(blob)

    def _journal_ahead(self, requests: List[ShardRequest]) -> None:
        for request in requests:
            if request.op == "register":
                self.journal.register(request.name, request.db, request.seq)
            elif (
                request.op == "delta"
                and self.journal.get(request.name) is not None
            ):
                # Unknown names are not journaled: the child will fail
                # the op without applying it.
                self.journal.delta(request.name, request.delta, request.seq)

    def _restart_and_replay(self) -> None:
        # The attempt is charged against the rolling window whether or
        # not the replay below succeeds -- a shard that keeps dying
        # during recovery burns budget just like one dying in service.
        self.breaker.record_restart()
        dead = self._last
        self.stop()
        self.start()
        self._replay()
        # Only a fully successful restart+replay moves the recovery
        # counters: on failure everything above raised, the dead
        # generation's snapshot is still in ``_last``, and the *next*
        # recovery merges it exactly once -- stats stay monotone and
        # never double-count.
        self.restarts += 1
        self._carry = merge_snapshots(self._carry, dead)
        if self._last is dead:
            # Empty journal: no replay round trip refreshed ``_last``.
            self._last = None

    def _replay(self) -> None:
        """Re-register the journal's folded residents into a fresh child.

        The replay batch ends with a ``seal`` op carrying the journal's
        sequence high-water: the snapshots already contain every write
        up to it, so the child acks them all and a subsequent retry of
        an already-journaled write is skipped instead of applied twice.
        """
        self._needs_replay = False
        residents = self.journal.residents()
        if not residents:
            return
        replay: List[ShardOp] = [
            ("register", name, db, None, None, "auto", 0, None)
            for name, db in sorted(residents.items())
        ]
        replay.append(
            (
                "seal",
                None,
                None,
                None,
                None,
                "auto",
                self.journal.last_seq(),
                None,
            )
        )
        blobs = self._serialize(replay)
        self._account_wire(replay, blobs)
        rows = self._round_trip(blobs)
        for ok, payload in ((row[0], row[1]) for row in rows):
            if not ok:  # pragma: no cover - register cannot fail
                raise ShardTransportError(
                    "shard {} journal replay failed: {!r}".format(
                        self.shard_id, payload
                    )
                )

    def _finish(self, requests: List[ShardRequest], rows) -> None:
        for request, (ok, payload, was_lazy) in zip(requests, rows):
            if not ok:
                request.fail(payload)
                continue
            if was_lazy and isinstance(payload, CertaintyResult):
                # The journal was written ahead of dispatch, so for a
                # delta it already holds the updated instance the
                # certificate refers to.
                payload.rehydrate(self._rehydration_db(request), request.query)
            request.resolve(payload)

    def _rehydration_db(
        self, request: ShardRequest
    ) -> Optional[DatabaseInstance]:
        if request.db is not None:
            return request.db
        if request.name is not None:
            return self.journal.read(request.name)
        return None  # pragma: no cover - solve always has a db or a name

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        live = self._last if self._last is not None else ShardCore.empty_snapshot()
        return merge_snapshots(self._carry, live)

    def health(self) -> dict:
        health = {
            "transport": self.kind,
            "alive": self.process is not None and self.process.is_alive(),
            "restarts": self.restarts,
            #: Wire bytes of every register op shipped to the child
            #: (client registrations and journal replay) -- measured per
            #: op, so mixed-batch solve/delta traffic is not billed.
            #: Snapshots diverted to shared memory bill their segment
            #: bytes to ``snapshot_shm`` instead (their frame slice --
            #: just the marker -- still counts as wire bytes).
            "snapshot_bytes": self.snapshot_bytes,
            "snapshot_shm": self.snapshot_shm,
            "deltas_forwarded": self.deltas_forwarded,
            "journal": self.journal.kind,
        }
        health.update(self._resilience_health())
        return health


#: Built-in transports selectable by name (CLI ``--transport``).
TRANSPORTS = {
    "thread": ThreadTransport,
    "process": ProcessTransport,
}


def make_transport(
    spec: Union[str, Callable, ShardTransport],
    shard_id: int,
    engine_factory: Callable[[], CertaintyEngine] = CertaintyEngine,
    **options,
) -> ShardTransport:
    """Resolve *spec* -- a name, a factory, or an instance -- to a transport."""
    if isinstance(spec, ShardTransport):
        return spec
    if isinstance(spec, str):
        try:
            factory = TRANSPORTS[spec]
        except KeyError:
            raise ValueError(
                "unknown transport {!r} (choose from {})".format(
                    spec, ", ".join(sorted(TRANSPORTS))
                )
            )
        return factory(shard_id, engine_factory=engine_factory, **options)
    return spec(shard_id, engine_factory=engine_factory, **options)


def merge_snapshots(base: Optional[dict], snapshot: Optional[dict]) -> dict:
    """Fold two core snapshots: counters add, latest structure wins.

    Used to keep per-shard statistics monotone across child restarts:
    *base* accumulates dead generations, *snapshot* is the live child's
    cumulative view.  Engine counters merge through
    :meth:`~repro.engine.engine.EngineStats.merge`.
    """
    if snapshot is None:
        snapshot = ShardCore.empty_snapshot()
    if base is None:
        return dict(snapshot)
    merged = dict(snapshot)
    for key in (
        "requests",
        "coalesced",
        "errors",
        "deadline_shed",
        "warm_hits",
        "cold_solves",
    ):
        merged[key] = base.get(key, 0) + snapshot.get(key, 0)
    merged["engine"] = (
        EngineStats.from_dict(base.get("engine", {}))
        .merge(snapshot.get("engine", {}))
        .as_dict()
    )
    return merged


def _shard_process_main(conn, shard_id: int, engine_factory) -> None:
    """The shard subprocess: one persistent core, one batch per message.

    Protocol (parent->child messages arrive as explicitly pickled byte
    frames; each op inside a batch is its own pickled slice -- the
    parent serializes once per op and bills register slices as
    ``snapshot_bytes``; replies go back as plain ``conn.send`` objects):

    * ``("batch", blobs, crash_mode)`` -> ``("results", rows, snapshot)``
      where *blobs* are the pickled :data:`~repro.serving.shard.ShardOp`
      tuples, each row is ``(ok, payload, was_lazy)`` aligned with them,
      and *snapshot* is the core's cumulative counters (including its
      ``applied_seq`` write high-water);
    * ``("stop",)`` or EOF -> the process exits.

    *crash_mode* is the fault-injection hook (see
    :mod:`repro.serving.faults`): ``1`` runs the batch to completion --
    writes commit -- then exits without replying (the commit-to-ack
    window, where the retry path must not double-apply); ``2`` exits on
    receipt, before the core sees the batch (a dropped delivery, where
    the retry path *must* apply).

    Lazy falsifying-repair certificates are stripped before the reply is
    pickled (``was_lazy`` tells the router side to rehydrate against its
    journal); materialized certificates (e.g. SAT counterexamples) ship
    as-is.
    """
    core = ShardCore(shard_id, engine_factory=engine_factory)
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            conn.close()
            return
        _, blobs, crash_mode = message
        if crash_mode == 2:
            # Drop injection: the delivery vanishes before the core
            # sees it -- die without applying (or acking) anything.
            conn.close()
            os._exit(1)
        ops = [_resolve_shm_op(pickle.loads(blob)) for blob in blobs]
        rows = []
        for ok, payload in core.run_batch(ops):
            was_lazy = (
                ok
                and isinstance(payload, CertaintyResult)
                and payload.has_lazy_repair
            )
            if was_lazy:
                payload.strip()
            rows.append((ok, payload, was_lazy))
        if crash_mode:
            # Crash injection (mode 1): the writes above are committed;
            # die in the commit-to-ack window without a reply.
            conn.close()
            os._exit(1)
        reply = ("results", rows, core.snapshot())
        try:
            conn.send(reply)
        except Exception:  # pragma: no cover - unpicklable payload
            # Keep the protocol alive, and keep batch-companion
            # isolation: only the rows that actually cannot cross the
            # pipe are replaced with a stringified error.
            fallback = []
            for ok, payload, was_lazy in rows:
                try:
                    pickle.dumps(payload)
                except Exception:
                    ok, was_lazy = False, False
                    payload = ShardTransportError(
                        "unpicklable shard result: {!r}".format(payload)
                    )
                fallback.append((ok, payload, was_lazy))
            conn.send(("results", fallback, core.snapshot()))
