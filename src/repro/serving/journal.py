"""The durable journal tier: resident state that outlives the server.

Every transport journals the residents of its shard: the current
facts-only snapshot of each resident, advanced by every forwarded delta.
The journal is what a crashed shard replays, what rehydrates stripped
lazy certificates, and -- when it is durable -- what a reopened server
cold-starts from with zero client re-registration.

* :class:`JournalStore` -- the one store.  Per shard it records
  registrations (facts-only snapshots) and forwarded
  :class:`~repro.db.delta.Delta`\\ s, each stamped with the transport's
  per-shard monotonic **sequence number**, folds them into a RAM view,
  and answers the questions the serving layer asks: the current folded
  snapshot of a resident (:meth:`~JournalStore.get`), everything a fresh
  child must replay (:meth:`~JournalStore.residents`), the shard's
  high-water sequence (:meth:`~JournalStore.last_seq`), and where every
  durable resident lives (:meth:`~JournalStore.placements` -- the
  server's cold-start routing table).
* Its **log backend**, a :class:`KVBackend`.  Without one the store is
  RAM only: no durability, and no serialization or disk in the write
  path, which keeps the default transports as cheap as a plain dict.
  With one, every write is also appended to the shard's log as a framed
  record.  Three backends ship, none adding a dependency:
  :class:`MemoryKV` (a dict of byte strings), :class:`FileKV` (a
  directory of per-key files) and :class:`SqliteKV` (one sqlite file,
  one row per append).  :class:`SqliteJournalStore` is the store bound
  to a :class:`SqliteKV`.

Appends are **idempotent**: a write whose sequence number is at or below
the shard's high-water mark is a redelivery (the transport retried a
batch whose first attempt already reached the journal) and is dropped.
Together with the child-side skip in
:meth:`repro.serving.shard.ShardCore.run_batch` this gives the serving
layer at-least-once delivery with exactly-once effect.

Log records are **checksummed and length-prefixed** (:func:`pack_record`
/ :func:`unpack_record`): every payload carries a little-endian
``(length, crc32)`` header, so a torn write -- a crash mid-append, a
truncated file, a flipped byte -- is *detected* on reopen instead of
replayed as garbage.  Recovery truncates the log at the first corrupt or
incomplete record, re-derives ``last_seq`` from the intact prefix, and
counts the dropped tail as ``truncated_ops`` in
:meth:`~JournalStore.health`.

The ``replicated:`` store -- one primary plus follower stores that tail
its op log, with promotion on primary failure -- lives in
:mod:`repro.serving.replication`.

>>> blob = pack_record(b"payload")
>>> unpack_record(blob)
(b'payload', 15)
>>> try:
...     unpack_record(blob[:-2])
... except CorruptRecord as torn:
...     print(torn)
record payload truncated (5 of 7 bytes)

>>> from repro.db.instance import DatabaseInstance
>>> db = DatabaseInstance.from_triples([("R", 0, 1)])
>>> journal = JournalStore().shard(0)
>>> journal.register("toy", db, seq=1)
>>> sorted(journal.residents()), journal.last_seq()
(['toy'], 1)

>>> kv = JournalStore(MemoryKV())
>>> kv.register(0, "toy", db, seq=1)
>>> reopened = JournalStore(kv.backend)        # replay from the same log
>>> sorted(reopened.residents(0)), reopened.last_seq(0)
(['toy'], 1)
>>> kv.tear(0)                                 # crash mid-append
>>> torn = JournalStore(kv.backend)
>>> torn.health()["truncated_ops"], torn.last_seq(0)
(1, 1)
"""

from __future__ import annotations

import os
import pickle
import re
import sqlite3
import struct
import threading
import zlib
from typing import Dict, List, Optional, Tuple, Union

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance

#: Record header: little-endian payload length + crc32 of the payload.
_FRAME = struct.Struct("<II")


class CorruptRecord(ValueError):
    """A log record failed its length or checksum check (torn tail)."""


def pack_record(data: bytes) -> bytes:
    """Frame *data* with the length + crc32 header for durable logs."""
    return _FRAME.pack(len(data), zlib.crc32(data)) + data


def unpack_record(buffer: bytes, offset: int = 0) -> Tuple[bytes, int]:
    """Read the framed record at *offset*; returns ``(data, end)``.

    *end* is the offset one past the record, so concatenated frames (a
    shard's log) iterate by feeding it back in.  Raises
    :class:`CorruptRecord` when the header or payload is incomplete or
    the checksum does not match -- the torn-tail signal.
    """
    header_end = offset + _FRAME.size
    if len(buffer) < header_end:
        raise CorruptRecord(
            "record header truncated ({} of {} bytes)".format(
                len(buffer) - offset, _FRAME.size
            )
        )
    length, crc = _FRAME.unpack_from(buffer, offset)
    end = header_end + length
    if len(buffer) < end:
        raise CorruptRecord(
            "record payload truncated ({} of {} bytes)".format(
                len(buffer) - header_end, length
            )
        )
    data = bytes(buffer[header_end:end])
    if zlib.crc32(data) != crc:
        raise CorruptRecord("record checksum mismatch")
    return data, end


# ---------------------------------------------------------------------------
# Log backends: the minimal key-value interface and its implementations.
# ---------------------------------------------------------------------------


class KVBackend:
    """The key-value contract a :class:`JournalStore` logs to.

    Values are byte strings; keys are short names (``shard-0.log``).
    ``get`` returns ``None`` for a missing key; ``append`` creates the
    key when absent; ``set`` replaces a value atomically.
    Implementations must be safe to call from concurrent shard-worker
    threads.  Remote stores -- redis, s3, a network block device -- slot
    in by implementing the same methods.
    """

    #: Short name surfaced in ``health()["backend"]``.
    kind = "abstract"
    #: Where the data lives on disk (``None`` when it does not).
    path: Optional[str] = None

    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def set(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def append(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def load(self) -> Tuple[Dict[str, List[bytes]], int]:
        """Every value, for replay: ``({key: chunks}, lost)``.

        The chunks of a key concatenate to its value.  A backend that
        stores appends as separate units (:class:`SqliteKV`) returns one
        chunk per unit, so replay can count the units a torn tail
        destroyed; a byte stream returns one chunk.  *lost* counts units
        the storage itself could not read back (the backend has already
        repaired itself around them).
        """
        return {key: [self.get(key) or b""] for key in self.keys()}, 0

    def check_open(self) -> None:
        """Raise when :meth:`close` has released the storage."""

    def close(self) -> None:
        pass


class MemoryKV(KVBackend):
    """The kv contract over a dict of bytearrays (no durability)."""

    kind = "memory"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: Dict[str, bytearray] = {}

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            return bytes(value) if value is not None else None

    def set(self, key, data):
        with self._lock:
            self._data[key] = bytearray(data)

    def append(self, key, data):
        with self._lock:
            self._data.setdefault(key, bytearray()).extend(data)

    def keys(self):
        with self._lock:
            return sorted(self._data)

    def delete(self, key):
        with self._lock:
            self._data.pop(key, None)


class FileKV(KVBackend):
    """The kv contract over a directory of per-key files.

    ``set`` is atomic (write to a temp file, then :func:`os.replace`),
    so a crash mid-``set`` leaves the old value intact; ``append`` is a
    plain ``"ab"`` write, so a crash mid-``append`` leaves a torn tail
    -- exactly the failure :func:`unpack_record` detects on replay.
    """

    kind = "file"

    def __init__(self, root) -> None:
        self.path = str(root)
        os.makedirs(self.path, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        return os.path.join(self.path, key)

    def get(self, key):
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def set(self, key, data):
        with self._lock:
            tmp = self._path(key) + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self._path(key))

    def append(self, key, data):
        with self._lock:
            with open(self._path(key), "ab") as handle:
                handle.write(data)

    def keys(self):
        return sorted(
            name
            for name in os.listdir(self.path)
            if not name.endswith(".tmp")
        )

    def delete(self, key):
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            pass


class SqliteKV(KVBackend):
    """The kv contract over one sqlite file (stdlib :mod:`sqlite3`).

    Table ``journal`` holds one row ``(id, key, payload)`` per
    ``append``, in append order (``id`` is the rowid): an append is one
    ``INSERT`` plus a commit, whatever the size of the log.  ``set``
    replaces a key's rows with one row in a single transaction.  The
    value of a key is its rows' payloads concatenated.

    :meth:`load` reads the file once, in ``id`` order.  When sqlite
    cannot read a row back (a truncated file loses whole pages) or the
    file is not a sqlite database of this layout at all, the rows read
    so far are kept, the file is replaced by one holding just them, and
    the rows lost are counted -- exactly when sqlite still knows the row
    count, a floor of 1 when it does not.  A file in the earlier layout
    of this journal, one row ``(id, shard, seq, name, kind, payload)``
    per op with *payload* a framed pickle of the op's object, is read as
    the :class:`JournalStore` records it stands for and rewritten in
    this layout.  All methods serialize on one lock around one
    connection (``check_same_thread=False``), which is plenty for
    per-shard append traffic.
    """

    kind = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS journal (
            id INTEGER PRIMARY KEY,
            key TEXT NOT NULL,
            payload BLOB NOT NULL
        );
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._closed = False
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            self._conn.executescript(self._SCHEMA)
            columns = self._conn.execute("PRAGMA table_info(journal)")
            self._legacy = "shard" in {column[1] for column in columns}
        except sqlite3.DatabaseError:
            self._legacy = False  # Unreadable: load() counts and rebuilds.

    def get(self, key):
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM journal WHERE key = ? ORDER BY id",
                (key,),
            ).fetchall()
        return b"".join(payload for (payload,) in rows) if rows else None

    def set(self, key, data):
        with self._lock:
            self._conn.execute("DELETE FROM journal WHERE key = ?", (key,))
            self._conn.execute(
                "INSERT INTO journal (key, payload) VALUES (?, ?)",
                (key, data),
            )
            self._conn.commit()

    def append(self, key, data):
        with self._lock:
            self._conn.execute(
                "INSERT INTO journal (key, payload) VALUES (?, ?)",
                (key, data),
            )
            self._conn.commit()

    def keys(self):
        with self._lock:
            return [
                key
                for (key,) in self._conn.execute(
                    "SELECT DISTINCT key FROM journal ORDER BY key"
                )
            ]

    def delete(self, key):
        with self._lock:
            self._conn.execute("DELETE FROM journal WHERE key = ?", (key,))
            self._conn.commit()

    def _rows(self):
        """``(key, payload)`` per row in ``id`` order, in this layout
        whatever the layout of the file."""
        if not self._legacy:
            yield from self._conn.execute(
                "SELECT key, payload FROM journal ORDER BY id"
            )
            return
        for shard_id, seq, name, kind, payload in self._conn.execute(
            "SELECT shard, seq, name, kind, payload FROM journal ORDER BY id"
        ):
            data, end = unpack_record(payload)
            if end != len(payload):
                raise CorruptRecord("trailing bytes after record")
            obj = pickle.loads(data) if kind != "seal" else None
            yield "shard-{}.log".format(shard_id), pack_record(
                _dumps((seq, name, kind, obj))
            )

    def load(self):
        with self._lock:
            logs: Dict[str, List[bytes]] = {}
            read, damaged = 0, False
            try:
                for key, payload in self._rows():
                    # A damaged page can decode as a row of garbage.
                    if not isinstance(key, str) or not isinstance(
                        payload, bytes
                    ):
                        raise sqlite3.DatabaseError("malformed journal row")
                    logs.setdefault(key, []).append(payload)
                    read += 1
            except Exception:  # Unreadable pages or an undecodable row.
                damaged = True
            if not damaged and not self._legacy:
                return logs, 0
            lost = 0
            if damaged:
                try:
                    (count,) = self._conn.execute(
                        "SELECT COUNT(*) FROM journal"
                    ).fetchone()
                except sqlite3.DatabaseError:
                    count = 0
                lost = max(1, count - read)
            self._rebuild(logs)
            return logs, lost

    def _rebuild(self, logs: Dict[str, List[bytes]]) -> None:
        """Replace the file, in one rename, by one holding the rows of
        *logs* (append order kept per key)."""
        fresh = self.path + ".rebuild"
        try:
            os.remove(fresh)  # Left by a crash mid-rebuild.
        except OSError:
            pass
        conn = sqlite3.connect(fresh)
        conn.executescript(self._SCHEMA)
        conn.executemany(
            "INSERT INTO journal (key, payload) VALUES (?, ?)",
            [(key, chunk) for key, chunks in logs.items() for chunk in chunks],
        )
        conn.commit()
        conn.close()
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - best effort
            pass
        for suffix in ("-journal", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except OSError:
                pass
        os.replace(fresh, self.path)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._legacy = False

    def check_open(self):
        if self._closed:
            raise sqlite3.ProgrammingError(
                "journal {} is closed".format(self.path)
            )

    def close(self):
        with self._lock:
            self._closed = True
            self._conn.close()


# ---------------------------------------------------------------------------
# The journal store.
# ---------------------------------------------------------------------------


def _dumps(record: tuple) -> bytes:
    return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)


#: The key of shard *N*'s log is ``shard-N.log``.
_LOG_KEY = re.compile(r"shard-(\d+)\.log")

#: Superseded bytes below which a log is not rewritten: compacting a
#: small log saves little disk or replay time.
_GARBAGE_FLOOR = 1 << 16


class JournalStore:
    """The journal of every shard of a server, over an optional log.

    One store serves every shard; all methods take the shard id
    explicitly and are safe to call from concurrent shard-worker
    threads.  Transports hold a :class:`ShardJournal` view bound to
    their shard (see :meth:`shard`).

    Write methods take the op's per-shard sequence number (``seq=0``
    means unstamped: always applied, never replay-protected).  A stamped
    write with ``seq <= last_seq(shard)`` is a redelivery and is ignored.

    Reads never touch the log: a RAM view holds every resident's folded
    snapshot.  With a *backend*, key ``shard-N.log`` holds shard *N*'s
    op log: framed records (:func:`pack_record`), each a pickled
    ``(seq, name, kind, obj)`` tuple of one of three kinds --
    ``snapshot`` (a facts-only
    :class:`~repro.db.instance.DatabaseInstance`: a registration, or
    the folded result of compaction), ``delta`` (a forwarded
    :class:`~repro.db.delta.Delta`) or ``seal`` (a high-water advance,
    see :meth:`seal`).  The facts-only
    :meth:`~repro.db.instance.DatabaseInstance.__reduce__` contract keeps
    the records process-portable.

    Opening a store on a backend replays every shard log front to back
    into the RAM view.  The first record that fails its frame or
    checksum truncates its log there: the intact prefix is written back
    with ``set``, ``last_seq`` is re-derived from it, and the dropped
    records are counted as ``truncated_ops`` (exactly on a backend that
    keeps appends apart, a floor of 1 on a byte stream, which cannot
    enumerate what the torn tail destroyed).

    A shard's log is **compacted** when one of its residents has had
    *compact_every* records logged beyond its first (deltas and
    re-registrations), or when the records that re-registrations
    superseded weigh as much as the live ones (and at least
    ``_GARBAGE_FLOOR`` bytes).  Compaction rewrites the log as the
    residents' live records, copied as logged (the store keeps them in
    RAM), except that the resident whose write triggered it is folded
    into one snapshot stamped with the shard's high-water sequence
    (unless that write is a registration already stamped with it): at
    most one snapshot is serialized, whatever the resident count.
    Replay therefore folds at most *compact_every* records per resident,
    and a log stays within about twice its live bytes.
    """

    def __init__(
        self, backend: Optional[KVBackend] = None, compact_every: int = 64
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.backend = backend
        self.compact_every = compact_every
        self._lock = threading.RLock()
        self._snapshots: Dict[int, Dict[str, DatabaseInstance]] = {}
        self._seqs: Dict[int, int] = {}
        #: Records in each shard's log.
        self._rows: Dict[int, int] = {}
        #: Per shard, name -> the resident's records since its latest
        #: snapshot record, as logged: what a compaction copies.
        self._live: Dict[int, Dict[str, List[bytes]]] = {}
        #: Records of each (shard, name) in the log beyond its first --
        #: the per-resident trigger.
        self._pending: Dict[Tuple[int, str], int] = {}
        #: Per shard, bytes of superseded records and of seals.
        self._garbage: Dict[int, int] = {}
        self._ops = 0
        self._compactions = 0
        #: Records dropped by torn-tail recovery on this open.
        self._truncated_ops = 0
        if backend is not None:
            self._replay()

    @property
    def kind(self) -> str:
        """Short name surfaced in stats: ``"memory"`` without a backend,
        else ``"kv"`` (:class:`SqliteJournalStore` says ``"sqlite"``)."""
        return "memory" if self.backend is None else "kv"

    def shard(self, shard_id: int) -> "ShardJournal":
        """A view of this store bound to one shard."""
        return ShardJournal(self, shard_id)

    # -- replay --------------------------------------------------------

    def _replay(self) -> None:
        """Fold every shard log into the RAM view, truncating each at
        its first bad record."""
        logs, self._truncated_ops = self.backend.load()
        for key, chunks in logs.items():
            match = _LOG_KEY.fullmatch(key)
            if match is None:
                continue
            shard_id = int(match.group(1))
            for index, chunk in enumerate(chunks):
                intact = self._fold_chunk(shard_id, chunk)
                if intact < len(chunk):
                    self.backend.set(
                        key, b"".join(chunks[:index]) + chunk[:intact]
                    )
                    self._truncated_ops += len(chunks) - index
                    break

    def _fold_chunk(self, shard_id: int, chunk: bytes) -> int:
        """Fold the records of *chunk* up to its first bad one; returns
        the length of the intact prefix."""
        offset = 0
        while offset < len(chunk):
            try:
                data, end = unpack_record(chunk, offset)
                record = pickle.loads(data)
                self._fold(shard_id, *record)
            except Exception:
                return offset
            self._account(shard_id, record[1], record[2], chunk[offset:end])
            offset = end
        return offset

    def _fold(self, shard_id, seq, name, kind, obj) -> None:
        """Apply one record to the RAM view."""
        shard = self._snapshots.setdefault(shard_id, {})
        if kind == "snapshot":
            shard[name] = obj
        elif kind == "delta":
            shard[name] = obj.apply_to(shard[name]).commit()
        # kind == "seal": only the seq bump below.
        if seq > self._seqs.get(shard_id, 0):
            self._seqs[shard_id] = seq

    def _account(self, shard_id, name, kind, record: bytes) -> bool:
        """Count one logged *record*; returns whether the shard's log is
        due for compaction."""
        self._rows[shard_id] = self._rows.get(shard_id, 0) + 1
        garbage = self._garbage.get(shard_id, 0)
        if kind == "seal":
            self._garbage[shard_id] = garbage + len(record)
            return False
        live = self._live.setdefault(shard_id, {})
        key = (shard_id, name)
        self._pending[key] = self._pending.get(key, -1) + 1
        if kind == "delta":
            live[name].append(record)
            return self._pending[key] >= self.compact_every
        superseded = live.pop(name, [])
        live[name] = [record]
        self._garbage[shard_id] = garbage = garbage + sum(map(len, superseded))
        return self._pending[key] >= self.compact_every or (
            superseded != []
            and garbage >= max(
                _GARBAGE_FLOOR,
                sum(len(r) for records in live.values() for r in records),
            )
        )

    # -- writes --------------------------------------------------------

    def _write(self, shard_id, seq, name, kind, obj) -> None:
        """Log one record, fold it into the RAM view, compact when due.

        The record reaches the log before the RAM view changes, so a
        write that raises leaves the store as it was.
        """
        with self._lock:
            if seq and seq <= self._seqs.get(shard_id, 0):
                return
            if kind == "delta" and name not in self._snapshots.get(
                shard_id, {}
            ):
                raise KeyError(
                    "shard {} journal has no resident {!r}".format(
                        shard_id, name
                    )
                )
            due = False
            if self.backend is not None:
                record = pack_record(_dumps((seq, name, kind, obj)))
                self.backend.append("shard-{}.log".format(shard_id), record)
                due = self._account(shard_id, name, kind, record)
            self._fold(shard_id, seq, name, kind, obj)
            self._ops += 1
            if due:
                # A registration's own record carries the high-water
                # when stamped with it; anything else is folded.
                high = self._seqs.get(shard_id, 0)
                stamped = kind == "snapshot" and seq == high
                self._compact_shard(shard_id, [] if stamped else [name])

    def register(
        self,
        shard_id: int,
        name: str,
        db: DatabaseInstance,
        seq: int = 0,
    ) -> None:
        """Record a registration: *db* becomes *name*'s snapshot,
        superseding any earlier ops for the name."""
        self._write(shard_id, seq, name, "snapshot", db)

    def delta(
        self, shard_id: int, name: str, delta: Delta, seq: int = 0
    ) -> None:
        """Append a forwarded delta against *name*'s current snapshot.

        Raises :class:`KeyError` if the name was never registered on the
        shard -- callers guard with :meth:`get`.
        """
        self._write(shard_id, seq, name, "delta", delta)

    def seal(self, shard_id: int, seq: int) -> None:
        """Advance the shard's high-water mark to *seq* without an op.

        The replication tier uses this after snapshot-shipping a
        follower: the shipped snapshots already contain every write up
        to the primary's high-water, so the follower's ``last_seq`` must
        jump there in one step (stamping each snapshot would trip the
        redelivery guard after the first).  A seal at or below the
        current high-water is a no-op.
        """
        if seq > 0:  # _write drops it when at or below the high-water.
            self._write(shard_id, seq, "", "seal", None)

    # -- reads ---------------------------------------------------------

    def get(self, shard_id: int, name: str) -> Optional[DatabaseInstance]:
        """The current folded snapshot of *name*, or ``None``."""
        with self._lock:
            return self._snapshots.get(shard_id, {}).get(name)

    def residents(self, shard_id: int) -> Dict[str, DatabaseInstance]:
        """Every resident of the shard with its folded snapshot (a copy)."""
        with self._lock:
            return dict(self._snapshots.get(shard_id, {}))

    def last_seq(self, shard_id: int) -> int:
        """The shard's high-water sequence number (0 when empty)."""
        with self._lock:
            return self._seqs.get(shard_id, 0)

    def placements(self) -> Dict[str, int]:
        """name -> shard for every durable resident: the cold-start
        routing table a reopened server pins before serving."""
        with self._lock:
            return {
                name: shard_id
                for shard_id, shard in sorted(self._snapshots.items())
                for name in shard
            }

    def read_snapshot(
        self, shard_id: int, name: str
    ) -> Optional[DatabaseInstance]:
        """The freshest *available* snapshot of *name* -- the degraded-read
        path.  Here that is :meth:`get`; the replicated store falls back
        to the freshest caught-up replica when the primary cannot
        answer."""
        return self.get(shard_id, name)

    # -- maintenance ---------------------------------------------------

    def _compact_shard(
        self, shard_id: int, fold: Optional[List[str]] = None
    ) -> None:
        """Rewrite the shard's log: each resident named in *fold* (all
        when ``None``) as one snapshot stamped with the high-water, the
        others as their logged live records (a seal when there are no
        residents, so the high-water survives)."""
        seq = self._seqs.get(shard_id, 0)
        live = self._live.setdefault(shard_id, {})
        for name in live if fold is None else fold:
            db = self._snapshots[shard_id][name]
            live[name] = [pack_record(_dumps((seq, name, "snapshot", db)))]
        records = [record for logged in live.values() for record in logged]
        if not records:
            records = [pack_record(_dumps((seq, "", "seal", None)))]
        self.backend.set("shard-{}.log".format(shard_id), b"".join(records))
        self._rows[shard_id] = len(records)
        self._garbage[shard_id] = 0
        for name, logged in live.items():
            self._pending[(shard_id, name)] = len(logged) - 1
        self._compactions += 1

    def compact(self, shard_id: Optional[int] = None) -> int:
        """Compact every shard log (or just *shard_id*'s) that holds a
        superseded record; returns the number of logs rewritten."""
        with self._lock:
            targets = [
                sid
                for sid, rows in sorted(self._rows.items())
                if (shard_id is None or sid == shard_id)
                and rows > max(1, len(self._snapshots.get(sid, {})))
            ]
            for sid in targets:
                self._compact_shard(sid)
            return len(targets)

    def close(self) -> None:
        """Release the backend; further writes may fail."""
        if self.backend is not None:
            self.backend.close()

    def tear(self, shard_id: int = 0) -> None:
        """Chaos hook: corrupt the tail of the shard's log, as a crash
        mid-append would, by appending a record that fails its checksum;
        the next reopen exercises torn-tail recovery for real.  Without a
        backend there is no torn-tail surface and this is a no-op.  Used
        by the ``torn_write`` journal fault (see
        :mod:`repro.serving.faults`)."""
        with self._lock:
            if self.backend is not None:
                self.backend.append(
                    "shard-{}.log".format(shard_id),
                    _FRAME.pack(2 ** 20, 0) + b"torn",
                )

    def health(self) -> dict:
        """Plain-data vitals for ``stats()`` / ``serve --stats``; the
        same keys for every store."""
        with self._lock:
            backend = self.backend
            if backend is not None:
                backend.check_open()
            return {
                "store": self.kind,
                "backend": backend.kind if backend is not None else None,
                "path": backend.path if backend is not None else None,
                "residents": sum(
                    len(shard) for shard in self._snapshots.values()
                ),
                "shards": len(self._snapshots),
                "ops": self._ops,
                "log_rows": sum(self._rows.values()),
                "compactions": self._compactions,
                "truncated_ops": self._truncated_ops,
            }


class SqliteJournalStore(JournalStore):
    """The journal over one sqlite file: ``JournalStore(SqliteKV(path))``."""

    kind = "sqlite"

    def __init__(self, path, compact_every: int = 64) -> None:
        super().__init__(SqliteKV(path), compact_every)


class ShardJournal:
    """A :class:`JournalStore` view bound to one shard.

    This is what a transport holds: the same store API minus the shard
    id, so transport code reads like a per-shard dict of residents.
    """

    __slots__ = ("store", "shard_id")

    def __init__(self, store: JournalStore, shard_id: int) -> None:
        self.store = store
        self.shard_id = shard_id

    @property
    def kind(self) -> str:
        return self.store.kind

    def register(self, name: str, db: DatabaseInstance, seq: int = 0) -> None:
        self.store.register(self.shard_id, name, db, seq)

    def delta(self, name: str, delta: Delta, seq: int = 0) -> None:
        self.store.delta(self.shard_id, name, delta, seq)

    def seal(self, seq: int) -> None:
        self.store.seal(self.shard_id, seq)

    def get(self, name: str) -> Optional[DatabaseInstance]:
        return self.store.get(self.shard_id, name)

    def read(self, name: str) -> Optional[DatabaseInstance]:
        """The freshest available snapshot (degraded reads); see
        :meth:`JournalStore.read_snapshot`."""
        return self.store.read_snapshot(self.shard_id, name)

    def residents(self) -> Dict[str, DatabaseInstance]:
        return self.store.residents(self.shard_id)

    def last_seq(self) -> int:
        return self.store.last_seq(self.shard_id)


#: The full ``--journal`` spec grammar, quoted by rejection errors.
SPEC_GRAMMAR = (
    "memory | sqlite:PATH | kv:memory | kv:DIR | "
    "replicated:PRIMARY;FOLLOWER[,FOLLOWER...]"
)


def make_journal_store(
    spec: Union[None, str, JournalStore],
) -> Optional[JournalStore]:
    """Resolve *spec* to a store: ``None``, a store instance, or a spec
    string from the grammar ``memory | sqlite:PATH | kv:memory | kv:DIR
    | replicated:PRIMARY;FOLLOWER[,FOLLOWER...]`` (the ``replicated:``
    sub-specs recurse through this same grammar).

    >>> make_journal_store(None) is None
    True
    >>> make_journal_store("memory").kind
    'memory'
    >>> make_journal_store("kv:memory").backend.kind
    'memory'
    >>> store = make_journal_store("replicated:memory;memory")
    >>> store.kind, store.primary.kind, len(store.followers)
    ('replicated', 'memory', 1)
    >>> make_journal_store("parchment")
    Traceback (most recent call last):
        ...
    ValueError: unknown journal store spec 'parchment' (grammar: memory | \
sqlite:PATH | kv:memory | kv:DIR | replicated:PRIMARY;FOLLOWER[,FOLLOWER...])
    """
    if spec is None or isinstance(spec, JournalStore):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            "journal store spec must be None, a spec string, or a "
            "JournalStore; got {!r}".format(spec)
        )
    kind, _, rest = spec.partition(":")
    if spec == "memory":
        return JournalStore()
    if kind == "sqlite":
        if not rest:
            raise ValueError("sqlite journal spec needs a path: sqlite:PATH")
        return SqliteJournalStore(rest)
    if kind == "kv":
        if not rest:
            raise ValueError(
                "kv journal spec needs a backend: kv:memory | kv:DIR"
            )
        return JournalStore(MemoryKV() if rest == "memory" else FileKV(rest))
    if kind == "replicated":
        # Imported here: the replication module builds on this one.
        from repro.serving.replication import ReplicatedJournalStore

        primary, sep, tail = rest.partition(";")
        followers = [part.strip() for part in tail.split(",") if part.strip()]
        if not primary.strip() or not sep or not followers:
            raise ValueError(
                "replicated journal spec needs a primary and at least one "
                "follower: replicated:PRIMARY;FOLLOWER[,FOLLOWER...]"
            )
        return ReplicatedJournalStore(primary.strip(), tuple(followers))
    raise ValueError(
        "unknown journal store spec {!r} (grammar: {})".format(
            spec, SPEC_GRAMMAR
        )
    )
