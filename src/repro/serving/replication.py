"""The replicated journal tier: log shipping and failover.

A single journal store is a single point of failure: one corrupt sqlite
file or one dead primary and every durable resident is gone.
:class:`ReplicatedJournalStore` survives the store.  It composes one
**primary** plus N **followers**, each any
:class:`~repro.serving.journal.JournalStore` (memory, sqlite, kv,
mixed).  Every committed primary write is recorded in an in-RAM op log
and **shipped** to the followers in batches of *ship_every* ops; a
follower therefore warms by tailing the primary's op log, and
``health()`` reports each replica's **lag** (committed seqs it has not
yet applied).  Shipping reuses the stores' own idempotent-append
contract: a redelivered op is dropped by the follower's sequence guard,
so tailing is safe under at-least-once delivery.

**Failover.**  When a primary write raises -- a real fault, or one
injected through the journal-fault kinds of
:mod:`repro.serving.faults` (``write_error`` / ``torn_write`` /
``stall``, armed via :meth:`ReplicatedJournalStore.arm`) -- the store
ships the committed op log to the survivors, asks its
:class:`~repro.serving.supervision.FailoverGuard` for promotion budget,
promotes the **most-caught-up** follower (highest summed ``last_seq``,
ties to the lowest index), and retries the failed write on the new
primary.  The caller never sees the fault and no committed write is
lost: an op enters the op log only after the primary applied it, and
the op log is shipped before promotion.  When no follower is left (or
the guard refuses), writes raise :class:`JournalUnavailable`.  Degraded
reads (:meth:`~repro.serving.journal.JournalStore.read_snapshot`) never
promote: they fall back to the freshest caught-up replica that can
answer.

>>> from repro.db.instance import DatabaseInstance
>>> db = DatabaseInstance.from_triples([("R", 0, 1)])
>>> store = ReplicatedJournalStore("memory", ("memory", "memory"))
>>> store.register(0, "toy", db, seq=1)
>>> store.flush()                              # ship the op log
>>> store.health()["replication"]["replicas"]
[{'kind': 'memory', 'lag': 0}, {'kind': 'memory', 'lag': 0}]
>>> store.arm("write_error:times=1")           # next primary write fails
>>> store.register(0, "toy2", db, seq=2)       # -> failover, then retry
>>> h = store.health()["replication"]
>>> h["failovers"], h["primary"], len(h["replicas"])
(1, 'memory', 1)
>>> store.get(0, "toy2") is not None
True
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.serving.faults import FaultPlan, make_fault_plan
from repro.serving.journal import JournalStore, make_journal_store
from repro.serving.supervision import FailoverGuard, RestartPolicy


class JournalFault(RuntimeError):
    """An injected journal fault (see ``JOURNAL_FAULT_KINDS``)."""


class JournalUnavailable(RuntimeError):
    """The primary failed and no follower could be promoted."""


def _apply_op(store: JournalStore, shard_id: int, op: tuple) -> None:
    """Apply one op-log entry ``(seq, name, kind, obj)`` to *store*."""
    seq, name, kind, obj = op
    if kind == "register":
        store.register(shard_id, name, obj, seq)
    elif kind == "delta":
        store.delta(shard_id, name, obj, seq)
    else:  # "seal"
        store.seal(shard_id, seq)


class ReplicatedJournalStore(JournalStore):
    """One primary plus N follower journal stores, with failover.

    Sub-stores are given as spec strings (resolved through
    :func:`~repro.serving.journal.make_journal_store` and **owned** --
    closed by :meth:`close` and on promotion of a replacement) or as
    ready store instances (not owned).  Every committed primary write is
    recorded in an in-RAM per-shard op log; followers tail it in
    shipments of *ship_every* ops (:meth:`flush` ships immediately).
    The op log is trimmed at the slowest follower's cursor, so its
    length is bounded by the worst replica lag.

    Writes retry through failover (see the module docstring); reads
    (:meth:`get` / :meth:`residents` / :meth:`last_seq` /
    :meth:`placements`) do the same, so a dead primary is transparent
    to the serving layer while any follower survives.
    :meth:`read_snapshot` -- the degraded-read path -- instead
    falls back to the **freshest caught-up replica** without promoting.

    A :class:`~repro.serving.supervision.FailoverGuard` budgets
    promotions per rolling window, so a flapping primary cannot burn
    the whole replica set in seconds.
    """

    kind = "replicated"

    def __init__(
        self,
        primary: Union[str, JournalStore],
        followers: Tuple[Union[str, JournalStore], ...] = (),
        ship_every: int = 8,
        guard: Optional[FailoverGuard] = None,
    ) -> None:
        if ship_every < 1:
            raise ValueError("ship_every must be >= 1")
        self._owned_ids: set = set()
        self.primary = self._resolve(primary)
        self.followers = [self._resolve(f) for f in followers]
        if not self.followers:
            raise ValueError(
                "replicated journal store needs at least one follower"
            )
        self.ship_every = ship_every
        self.guard = guard or FailoverGuard(
            RestartPolicy(max_restarts=8, window=30.0)
        )
        self._lock = threading.RLock()
        #: Per-shard op log of committed primary writes:
        #: ``(seq, name, kind, obj)`` in apply order.
        self._oplog: Dict[int, List[tuple]] = {}
        #: Absolute index of ``_oplog[shard][0]`` (the log is trimmed).
        self._bases: Dict[int, int] = {}
        #: Per follower: shard -> absolute index consumed.
        self._cursors: List[Dict[int, int]] = [{} for _ in self.followers]
        self._shards = set(self.primary.placements().values())
        self._unshipped = 0
        self._failovers = 0
        self._followers_lost = 0
        self._faults: Optional[FaultPlan] = None
        for follower in self.followers:
            self._sync_follower(follower)

    def _resolve(self, spec) -> JournalStore:
        store = make_journal_store(spec)
        if store is None:
            raise ValueError("replicated journal sub-spec must not be None")
        if isinstance(spec, str):
            self._owned_ids.add(id(store))
        return store

    def _sync_follower(self, follower: JournalStore) -> None:
        """Snapshot-ship the primary's current state to a follower.

        A shard the follower already holds -- the primary's high-water
        and the same residents with equal facts -- is skipped, so
        reopening an in-sync store writes nothing.  Otherwise
        registrations go **unstamped** (stamping several with the same
        seq would trip the follower's redelivery guard after the first)
        and one :meth:`~repro.serving.journal.JournalStore.seal` jumps
        the follower's high-water to the primary's, the point its
        snapshots are consistent with.
        """
        for shard_id in sorted(self._shards):
            residents = self.primary.residents(shard_id)
            seq = self.primary.last_seq(shard_id)
            if (
                follower.last_seq(shard_id) == seq
                and follower.residents(shard_id) == residents
            ):
                continue
            for name, db in residents.items():
                follower.register(shard_id, name, db, seq=0)
            follower.seal(shard_id, seq)

    # -- fault injection ----------------------------------------------

    def arm(self, faults) -> None:
        """Arm (or disarm with ``None``) a journal-fault plan; primary
        writes consult it once each (see :mod:`repro.serving.faults`)."""
        with self._lock:
            self._faults = make_fault_plan(faults)

    def _inject(self, actions, shard_id: int) -> None:
        for action in actions:
            if action.kind == "stall":
                time.sleep(action.seconds)
            elif action.kind == "torn_write":
                try:
                    self.primary.tear(shard_id)
                except Exception:
                    pass
                raise JournalFault("injected torn_write on primary journal")
            elif action.kind == "write_error":
                raise JournalFault("injected write_error on primary journal")
            # Transport kinds in a journal plan are ignored.

    # -- log shipping --------------------------------------------------

    def _ship_follower(self, index: int) -> None:
        follower = self.followers[index]
        cursor = self._cursors[index]
        for shard_id, ops in self._oplog.items():
            base = self._bases.get(shard_id, 0)
            start = max(cursor.get(shard_id, 0) - base, 0)
            for op in ops[start:]:
                _apply_op(follower, shard_id, op)
            cursor[shard_id] = base + len(ops)

    def _ship(self) -> None:
        """Apply every unshipped op to every follower; drop (and close,
        when owned) a follower whose own store raises; trim the log."""
        dead = []
        for index in range(len(self.followers)):
            try:
                self._ship_follower(index)
            except Exception:
                dead.append(index)
        for index in reversed(dead):
            follower = self.followers.pop(index)
            self._cursors.pop(index)
            self._followers_lost += 1
            self._close_store(follower)
        self._trim()
        self._unshipped = 0

    def _trim(self) -> None:
        for shard_id, ops in self._oplog.items():
            base = self._bases.get(shard_id, 0)
            end = base + len(ops)
            if self.followers:
                low = min(
                    cursor.get(shard_id, 0) for cursor in self._cursors
                )
            else:
                low = end
            if low > base:
                del ops[: low - base]
                self._bases[shard_id] = low

    def flush(self) -> None:
        """Ship the op log to every follower now (lag drops to 0)."""
        with self._lock:
            self._ship()

    # -- failover ------------------------------------------------------

    def _failover(self, cause: BaseException) -> None:
        """Ship, then promote the most-caught-up follower to primary.

        Raises :class:`JournalUnavailable` when no follower is left or
        the guard refuses the promotion budget.
        """
        self._ship()
        if not self.followers:
            raise JournalUnavailable(
                "primary journal failed and no follower is available: "
                "{!r}".format(cause)
            )
        if not self.guard.allow():
            raise JournalUnavailable(
                "primary journal failed and the failover guard refused "
                "promotion (budget exhausted): {!r}".format(cause)
            )
        scores = []
        for follower in self.followers:
            try:
                scores.append(
                    sum(
                        follower.last_seq(shard_id)
                        for shard_id in self._shards
                    )
                )
            except Exception:
                scores.append(-1)
        index = max(range(len(scores)), key=lambda i: (scores[i], -i))
        old = self.primary
        self.primary = self.followers.pop(index)
        self._cursors.pop(index)
        self.guard.record()
        self._failovers += 1
        self._close_store(old)

    def _close_store(self, store: JournalStore) -> None:
        if id(store) in self._owned_ids:
            try:
                store.close()
            except Exception:
                pass

    # -- writes --------------------------------------------------------

    def _apply(self, kind, shard_id, name, obj, seq) -> None:
        with self._lock:
            self._shards.add(shard_id)
            op = (seq, name, kind, obj)
            pending = (
                self._faults.draw(shard_id, [kind]) if self._faults else []
            )
            while True:
                try:
                    if pending:
                        actions, pending = pending, []
                        self._inject(actions, shard_id)
                    _apply_op(self.primary, shard_id, op)
                except KeyError:
                    # Unknown resident is the caller's bug, not a store
                    # failure -- surfacing it must not burn a replica.
                    raise
                except Exception as exc:
                    self._failover(exc)
                    continue
                break
            self._oplog.setdefault(shard_id, []).append(op)
            self._unshipped += 1
            if self._unshipped >= self.ship_every:
                self._ship()

    def register(self, shard_id, name, db, seq=0):
        self._apply("register", shard_id, name, db, seq)

    def delta(self, shard_id, name, delta, seq=0):
        self._apply("delta", shard_id, name, delta, seq)

    def seal(self, shard_id, seq):
        self._apply("seal", shard_id, "", None, seq)

    # -- reads ---------------------------------------------------------

    def _read(self, fn):
        with self._lock:
            while True:
                try:
                    return fn(self.primary)
                except KeyError:
                    raise
                except Exception as exc:
                    self._failover(exc)

    def get(self, shard_id, name):
        return self._read(lambda store: store.get(shard_id, name))

    def residents(self, shard_id):
        return self._read(lambda store: store.residents(shard_id))

    def last_seq(self, shard_id):
        return self._read(lambda store: store.last_seq(shard_id))

    def placements(self):
        return self._read(lambda store: store.placements())

    def read_snapshot(self, shard_id, name):
        """Degraded read: the primary if it answers, else the freshest
        caught-up replica that does.  Never promotes."""
        with self._lock:
            try:
                db = self.primary.get(shard_id, name)
                if db is not None:
                    return db
            except Exception:
                pass
            try:
                self._ship()
            except Exception:
                pass
            best, best_seq = None, -1
            for follower in self.followers:
                try:
                    db = follower.get(shard_id, name)
                    seq = follower.last_seq(shard_id)
                except Exception:
                    continue
                if db is not None and seq > best_seq:
                    best, best_seq = db, seq
            return best

    # -- maintenance ---------------------------------------------------

    def compact(self, shard_id=None):
        return self._read(lambda store: store.compact(shard_id))

    def tear(self, shard_id=0):
        with self._lock:
            self.primary.tear(shard_id)

    def close(self):
        with self._lock:
            try:
                self._ship()
            except Exception:
                pass
            self._close_store(self.primary)
            for follower in self.followers:
                self._close_store(follower)

    def health(self):
        with self._lock:
            try:
                merged = dict(self.primary.health())
            except Exception:
                merged = {}
            merged["store"] = self.kind
            replicas = []
            for follower in self.followers:
                try:
                    lag = sum(
                        max(
                            0,
                            self.primary.last_seq(shard_id)
                            - follower.last_seq(shard_id),
                        )
                        for shard_id in self._shards
                    )
                except Exception:
                    lag = -1
                replicas.append({"kind": follower.kind, "lag": lag})
            merged["replication"] = {
                "primary": self.primary.kind,
                "failovers": self._failovers,
                "followers_lost": self._followers_lost,
                "ship_every": self.ship_every,
                "promotions_in_window": self.guard.snapshot()[
                    "promotions_in_window"
                ],
                "replicas": replicas,
            }
            return merged
