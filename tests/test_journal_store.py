"""Contract suite for the durable journal tier.

Every :class:`~repro.serving.journal.JournalStore` backend must agree on
the seam's semantics -- append, fold, replay ordering, idempotent
redelivery, concurrent shard writers -- so the suite is parametrized
over the memory, sqlite, kv (both backends), and replicated stores.
Sqlite-only tests cover what makes that backend the durable one:
reopening a path restores the state, compaction bounds the log without
changing it, and torn-tail recovery truncates a damaged log at the
first bad record while counting the loss.
"""

import os
import pickle
import sqlite3
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db.delta import Delta
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.serving.journal import (
    SPEC_GRAMMAR,
    FileKV,
    JournalStore,
    MemoryKV,
    SqliteJournalStore,
    SqliteKV,
    make_journal_store,
    pack_record,
)
from repro.serving.replication import ReplicatedJournalStore


#: The one ``health()`` schema every store reports.
HEALTH_KEYS = {
    "store", "backend", "path", "residents", "shards", "ops",
    "log_rows", "compactions", "truncated_ops",
}


def _db(*triples):
    return DatabaseInstance.from_triples(list(triples))


def _delta(inserts=(), removes=()):
    return Delta(
        removes=tuple(Fact(*t) for t in removes),
        inserts=tuple(Fact(*t) for t in inserts),
    )


@pytest.fixture(
    params=["memory", "sqlite", "kv-memory", "kv-file", "replicated"]
)
def store(request, tmp_path):
    if request.param == "memory":
        yield JournalStore()
    elif request.param == "sqlite":
        s = SqliteJournalStore(tmp_path / "journal.db")
        yield s
        s.close()
    elif request.param == "kv-memory":
        yield JournalStore(MemoryKV())
    elif request.param == "kv-file":
        s = JournalStore(FileKV(tmp_path / "kv"))
        yield s
        s.close()
    else:
        # Mixed topology: durable primary, two in-memory read replicas.
        s = ReplicatedJournalStore(
            "sqlite:{}".format(tmp_path / "primary.db"),
            ("memory", "memory"),
        )
        yield s
        s.close()


class TestJournalContract:
    def test_register_then_get(self, store):
        db = _db(("R", 0, 1))
        store.register(0, "toy", db, seq=1)
        assert store.get(0, "toy") == db
        assert store.get(0, "missing") is None
        assert store.get(1, "toy") is None  # shards are disjoint

    def test_residents_returns_folded_copies(self, store):
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.register(0, "b", _db(("S", 0, 1)), seq=2)
        residents = store.residents(0)
        assert sorted(residents) == ["a", "b"]
        residents["c"] = None  # a copy: mutating it must not leak back
        assert sorted(store.residents(0)) == ["a", "b"]

    def test_delta_folds_against_current_snapshot(self, store):
        store.register(0, "toy", _db(("R", 0, 1), ("R", 1, 2)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 2, 3)]), seq=2)
        store.delta(0, "toy", _delta(removes=[("R", 1, 2)]), seq=3)
        expected = _db(("R", 0, 1), ("X", 2, 3))
        assert store.get(0, "toy") == expected

    def test_replay_ordering_interleaved_names(self, store):
        # Ops against different names interleave in one shard log; each
        # name folds its own subsequence, in order.
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.register(0, "b", _db(("S", 0, 1)), seq=2)
        store.delta(0, "a", _delta(inserts=[("R", 1, 2)]), seq=3)
        store.delta(0, "b", _delta(removes=[("S", 0, 1)]), seq=4)
        store.delta(0, "a", _delta(removes=[("R", 0, 1)]), seq=5)
        assert store.get(0, "a") == _db(("R", 1, 2))
        assert store.get(0, "b") == _db()

    def test_delta_on_unknown_name_raises(self, store):
        with pytest.raises(KeyError):
            store.delta(0, "ghost", _delta(inserts=[("R", 0, 1)]), seq=1)

    def test_last_seq_high_water(self, store):
        assert store.last_seq(0) == 0
        store.register(0, "toy", _db(("R", 0, 1)), seq=5)
        assert store.last_seq(0) == 5
        assert store.last_seq(1) == 0  # per shard

    def test_redelivered_seq_is_ignored(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        before = store.get(0, "toy")
        # A transport retry redelivers already-journaled writes.
        store.register(0, "toy", _db(("R", 9, 9)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        assert store.get(0, "toy") == before
        assert store.last_seq(0) == 2

    def test_unstamped_writes_always_apply(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=3)
        store.register(0, "toy", _db(("R", 9, 9)))  # seq=0: not protected
        assert store.get(0, "toy") == _db(("R", 9, 9))
        assert store.last_seq(0) == 3

    def test_reregistration_supersedes_history(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        store.register(0, "toy", _db(("S", 0, 1)), seq=3)
        assert store.get(0, "toy") == _db(("S", 0, 1))

    def test_placements_span_shards(self, store):
        store.register(2, "orders", _db(("R", 0, 1)), seq=1)
        store.register(0, "users", _db(("S", 0, 1)), seq=1)
        assert store.placements() == {"orders": 2, "users": 0}

    def test_shard_view_binds_the_shard(self, store):
        journal = store.shard(3)
        assert journal.kind == store.kind
        journal.register("toy", _db(("R", 0, 1)), seq=1)
        journal.delta("toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        assert journal.get("toy") == _db(("R", 0, 1), ("X", 1, 2))
        assert journal.last_seq() == 2
        assert sorted(journal.residents()) == ["toy"]
        assert store.get(3, "toy") == journal.get("toy")
        assert store.last_seq(0) == 0

    def test_concurrent_shard_writers(self, store):
        # One writer thread per shard, each appending its own op stream
        # -- the real concurrency shape: ShardWorker threads share the
        # store but never share a shard.
        shards, writes = 4, 25
        errors = []

        def writer(shard_id):
            try:
                journal = store.shard(shard_id)
                journal.register(
                    "res-{}".format(shard_id), _db(("R", 0, 1)), seq=1
                )
                for i in range(writes):
                    journal.delta(
                        "res-{}".format(shard_id),
                        _delta(inserts=[("X", i, i + 1)]),
                        seq=2 + i,
                    )
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in range(shards)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for shard_id in range(shards):
            db = store.get(shard_id, "res-{}".format(shard_id))
            assert len(db.facts) == 1 + writes
            assert store.last_seq(shard_id) == 1 + writes

    def test_health_is_plain_data(self, store):
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        health = store.health()
        assert health["store"] == store.kind
        assert health["residents"] == 1
        assert health["ops"] >= 1
        # One schema for every store; the replicated one adds a section.
        assert set(health) - {"replication"} == HEALTH_KEYS


class TestSqliteDurability:
    def test_reopen_restores_everything(self, tmp_path):
        path = tmp_path / "journal.db"
        store = SqliteJournalStore(path)
        store.register(0, "a", _db(("R", 0, 1), ("R", 1, 2)), seq=1)
        store.delta(0, "a", _delta(inserts=[("X", 2, 3)]), seq=2)
        store.register(1, "b", _db(("S", 0, 1)), seq=1)
        expected_a = store.get(0, "a")
        store.close()

        reopened = SqliteJournalStore(path)
        try:
            assert reopened.get(0, "a") == expected_a
            assert reopened.get(1, "b") == _db(("S", 0, 1))
            assert reopened.last_seq(0) == 2
            assert reopened.last_seq(1) == 1
            assert reopened.placements() == {"a": 0, "b": 1}
            # Redelivery protection survives the reopen too.
            reopened.delta(0, "a", _delta(removes=[("X", 2, 3)]), seq=2)
            assert reopened.get(0, "a") == expected_a
        finally:
            reopened.close()

    def test_compaction_bounds_the_log(self, tmp_path):
        store = SqliteJournalStore(tmp_path / "journal.db", compact_every=4)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        for i in range(10):
            store.delta(0, "toy", _delta(inserts=[("X", i, i + 1)]), seq=2 + i)
        health = store.health()
        assert health["compactions"] == 2  # after deltas 4 and 8
        # 10 deltas, but the log holds one snapshot + the post-compaction
        # tail -- never compact_every rows or more for one resident.
        assert health["log_rows"] < 4 + 1
        expected = store.get(0, "toy")
        assert len(expected.facts) == 11
        store.close()
        reopened = SqliteJournalStore(tmp_path / "journal.db")
        try:
            assert reopened.get(0, "toy") == expected
            assert reopened.last_seq(0) == 11
        finally:
            reopened.close()

    def test_manual_compact(self, tmp_path):
        store = SqliteJournalStore(tmp_path / "journal.db", compact_every=100)
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.delta(0, "a", _delta(inserts=[("X", 1, 2)]), seq=2)
        store.register(1, "b", _db(("S", 0, 1)), seq=1)
        assert store.compact() == 1  # only "a" has pending delta rows
        assert store.compact() == 0  # idempotent
        assert store.health()["log_rows"] == 2  # one snapshot row each
        assert store.get(0, "a") == _db(("R", 0, 1), ("X", 1, 2))
        store.close()

    def test_compact_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SqliteJournalStore(tmp_path / "journal.db", compact_every=0)


class TestTornTailRecovery:
    """Damaged sqlite logs fold their intact prefix and count the loss."""

    def _seed(self, path, residents=5):
        store = SqliteJournalStore(path)
        originals = {}
        for i in range(residents):
            name = "res-{}".format(i)
            db = _db(("R", i, i + 1), ("S", i, i + 2))
            store.register(0, name, db, seq=i + 1)
            originals[name] = db
        store.close()
        return originals

    def test_corrupt_record_drops_exact_tail(self, tmp_path):
        path = tmp_path / "journal.db"
        originals = self._seed(path, residents=5)
        conn = sqlite3.connect(str(path))
        # Smash the 3rd record's payload: frame intact, crc mismatched.
        conn.execute(
            "UPDATE journal SET payload = X'00000000DEADBEEF' WHERE id ="
            " (SELECT id FROM journal ORDER BY id LIMIT 1 OFFSET 2)"
        )
        conn.commit()
        conn.close()
        reopened = SqliteJournalStore(path)
        try:
            # Records 3, 4, 5 are gone -- the count is exact.
            assert reopened.health()["truncated_ops"] == 3
            assert sorted(reopened.residents(0)) == ["res-0", "res-1"]
            for name in ("res-0", "res-1"):
                assert reopened.get(0, name) == originals[name]
            assert reopened.last_seq(0) == 2
        finally:
            reopened.close()

    def test_single_bit_flip_detected(self, tmp_path):
        path = tmp_path / "journal.db"
        originals = self._seed(path, residents=4)
        conn = sqlite3.connect(str(path))
        (row_id, payload) = conn.execute(
            "SELECT id, payload FROM journal ORDER BY id LIMIT 1 OFFSET 1"
        ).fetchone()
        flipped = bytearray(payload)
        flipped[-1] ^= 0x01
        conn.execute(
            "UPDATE journal SET payload = ? WHERE id = ?",
            (bytes(flipped), row_id),
        )
        conn.commit()
        conn.close()
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.health()["truncated_ops"] == 3
            assert sorted(reopened.residents(0)) == ["res-0"]
            assert reopened.get(0, "res-0") == originals["res-0"]
            assert reopened.last_seq(0) == 1
        finally:
            reopened.close()

    @pytest.mark.parametrize("fraction", [2, 3, 4])
    def test_truncated_file_recovers_intact_prefix(self, tmp_path, fraction):
        # A crash mid-append can cut the file at any byte.  Sqlite loses
        # whole pages, so the recoverable prefix may be empty -- the
        # contract is that reopen *survives*, keeps only intact
        # records, counts at least the floor of the loss, and takes
        # appends cleanly afterwards.
        path = tmp_path / "journal.db"
        originals = self._seed(path, residents=6)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) * (fraction - 1) // fraction])
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.health()["truncated_ops"] >= 1
            for name, db in reopened.residents(0).items():
                assert db == originals[name]
            assert reopened.last_seq(0) <= 6
            # The rebuilt log must take appends cleanly afterwards.
            seq = reopened.last_seq(0) + 1
            reopened.register(0, "after", _db(("T", 0, 1)), seq=seq)
            assert reopened.get(0, "after") == _db(("T", 0, 1))
            assert reopened.last_seq(0) == seq
        finally:
            reopened.close()

    def test_tear_hook_then_reopen(self, tmp_path):
        path = tmp_path / "journal.db"
        store = SqliteJournalStore(path)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.tear(0)
        store.close()
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.health()["truncated_ops"] == 1
            assert reopened.get(0, "toy") == _db(("R", 0, 1))
            assert reopened.last_seq(0) == 1
        finally:
            reopened.close()

    def test_unreadable_file_recovers_empty_but_usable(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = SqliteJournalStore(path)
        try:
            assert store.health()["truncated_ops"] >= 1
            assert store.residents(0) == {}
            store.register(0, "toy", _db(("R", 0, 1)), seq=1)
            assert store.get(0, "toy") == _db(("R", 0, 1))
        finally:
            store.close()


class TestDurableBackends:
    """The one store over each durable log backend."""

    @pytest.fixture(params=["memory", "file", "sqlite"])
    def reopen(self, request, tmp_path):
        """Open a store on one log; every call reopens the same log."""
        shared = MemoryKV()
        backends = {
            "memory": lambda: shared,
            "file": lambda: FileKV(tmp_path / "kv"),
            "sqlite": lambda: SqliteKV(tmp_path / "journal.db"),
        }
        opened = []

        def open_store(compact_every=64):
            store = JournalStore(backends[request.param](), compact_every)
            opened.append(store)
            return store

        yield open_store
        for store in opened:
            store.close()

    def test_reregistration_compacts(self, reopen):
        # A registration supersedes the name's earlier record, so it
        # counts toward compaction like a delta does.
        store = reopen(compact_every=4)
        for i in range(100):
            store.register(0, "toy", _db(("R", i, i + 1)), seq=i + 1)
            assert store.health()["log_rows"] <= 4
        assert store.health()["compactions"] > 0
        store.close()
        reopened = reopen()
        assert reopened.get(0, "toy") == _db(("R", 99, 100))
        assert reopened.last_seq(0) == 100
        assert reopened.health()["truncated_ops"] == 0

    def test_reregistration_keeps_log_bytes_bounded(self, reopen):
        # Re-registering big snapshots compacts on their bytes long
        # before the default compact_every re-registrations pile up.
        big = _db(*[("R", i, i + 1) for i in range(3000)])
        store = reopen()
        for seq, name in enumerate(("a", "b"), start=1):
            store.register(0, name, big, seq=seq)
        one_each = len(store.backend.get("shard-0.log"))
        for _ in range(20):
            for name in ("a", "b"):
                store.register(0, name, big)  # unstamped, as a resync
                assert len(store.backend.get("shard-0.log")) <= 3 * one_each
        assert store.health()["compactions"] > 0
        store.close()
        reopened = reopen()
        assert reopened.residents(0) == {"a": big, "b": big}
        assert reopened.last_seq(0) == 2

    def test_follower_resync_keeps_log_bytes_bounded(self, tmp_path):
        # Each open of a replicated store re-registers every resident on
        # its followers: a sqlite follower's log must not grow per open.
        spec = "replicated:sqlite:{};sqlite:{}".format(
            tmp_path / "p.db", tmp_path / "f.db"
        )
        big = _db(*[("R", i, i + 1) for i in range(3000)])
        store = make_journal_store(spec)
        store.register(0, "a", big, seq=1)
        store.register(0, "b", big, seq=2)
        one_each = len(store.primary.backend.get("shard-0.log"))
        store.close()
        for _ in range(12):
            store = make_journal_store(spec)
            follower = store.followers[0]
            assert len(follower.backend.get("shard-0.log")) <= 3 * one_each
            assert follower.residents(0) == {"a": big, "b": big}
            assert follower.last_seq(0) == 2
            store.close()

    def test_seal_only_shard_survives_compaction(self, reopen):
        store = reopen(compact_every=2)
        for seq in (3, 5, 9):
            store.seal(1, seq)
        store.compact()
        store.close()
        assert reopen().last_seq(1) == 9


class TestSqliteKV:
    def test_kv_contract(self, tmp_path):
        kv = SqliteKV(tmp_path / "kv.db")
        try:
            assert kv.get("a") is None
            kv.set("a", b"one")
            kv.append("a", b"+two")  # one more row, read back in order
            kv.append("b", b"fresh")  # append creates
            assert kv.get("a") == b"one+two"
            assert kv.keys() == ["a", "b"]
            assert kv.load() == ({"a": [b"one", b"+two"], "b": [b"fresh"]}, 0)
            kv.set("a", b"replaced")  # set overwrites, not appends
            kv.delete("b")
            kv.delete("b")  # idempotent
            assert kv.get("a") == b"replaced"
            assert kv.keys() == ["a"]
        finally:
            kv.close()


def _legacy_file(path, rows):
    """A sqlite journal in the earlier layout: one row per op, *payload*
    the framed pickle of the op's object (of ``b""`` for a seal)."""
    conn = sqlite3.connect(str(path))
    conn.executescript(
        "CREATE TABLE journal (id INTEGER PRIMARY KEY AUTOINCREMENT,"
        " shard INTEGER NOT NULL, seq INTEGER NOT NULL, name TEXT NOT NULL,"
        " kind TEXT NOT NULL, payload BLOB NOT NULL);"
        "CREATE INDEX journal_shard_name ON journal (shard, name);"
    )
    for shard, seq, name, kind, obj in rows:
        if not isinstance(obj, bytes):  # Raw bytes stand for damage.
            obj = pack_record(b"" if obj is None else pickle.dumps(obj))
        conn.execute(
            "INSERT INTO journal (shard, seq, name, kind, payload)"
            " VALUES (?, ?, ?, ?, ?)",
            (shard, seq, name, kind, obj),
        )
    conn.commit()
    conn.close()


class TestSqliteForeignFile:
    def test_earlier_layout_is_upgraded(self, tmp_path):
        path = tmp_path / "journal.db"
        _legacy_file(path, [
            (0, 1, "a", "snapshot", _db(("R", 0, 1))),
            (0, 2, "a", "delta", _delta(inserts=[("X", 1, 2)])),
            (1, 1, "b", "snapshot", _db(("S", 0, 1))),
            (1, 7, "", "seal", None),
        ])
        for _ in range(2):  # The upgrade, then a plain reopen.
            store = SqliteJournalStore(path)
            try:
                assert store.health()["truncated_ops"] == 0
                assert store.get(0, "a") == _db(("R", 0, 1), ("X", 1, 2))
                assert store.get(1, "b") == _db(("S", 0, 1))
                assert (store.last_seq(0), store.last_seq(1)) == (2, 7)
            finally:
                store.close()
        conn = sqlite3.connect(str(path))
        assert conn.execute("SELECT COUNT(*) FROM journal").fetchone() == (4,)
        conn.close()

    def test_earlier_layout_keeps_its_intact_prefix(self, tmp_path):
        path = tmp_path / "journal.db"
        _legacy_file(path, [
            (0, 1, "a", "snapshot", _db(("R", 0, 1))),
            (0, 2, "a", "delta", b"\x00"),  # torn: the rest is lost
            (0, 3, "a", "delta", _delta(inserts=[("X", 1, 2)])),
        ])
        store = SqliteJournalStore(path)
        try:
            assert store.health()["truncated_ops"] == 2
            assert store.get(0, "a") == _db(("R", 0, 1))
            assert store.last_seq(0) == 1
        finally:
            store.close()

    def test_foreign_layout_recovers_empty_but_usable(self, tmp_path):
        # A sqlite file with another layout of table ``journal`` cannot
        # be read as this log: its rows are counted as lost and the file
        # is rebuilt.
        path = tmp_path / "journal.db"
        conn = sqlite3.connect(str(path))
        conn.execute(
            "CREATE TABLE journal (id INTEGER PRIMARY KEY, blob BLOB)"
        )
        conn.executemany(
            "INSERT INTO journal (blob) VALUES (?)", [(b"x",), (b"y",)]
        )
        conn.commit()
        conn.close()
        store = SqliteJournalStore(path)
        try:
            assert store.health()["truncated_ops"] == 2
            assert store.residents(0) == {}
            store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        finally:
            store.close()
        reopened = SqliteJournalStore(path)
        try:
            assert reopened.get(0, "toy") == _db(("R", 0, 1))
            assert reopened.health()["truncated_ops"] == 0
        finally:
            reopened.close()


#: Op streams for the replay fuzz: (name, kind, payload) per op.
fuzz_ops = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["register", "delta"]),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=8,
)


class _Log:
    """Shard 0's log on one backend, read and damaged from outside the
    store: the bytes of the ``MemoryKV`` value, of the ``FileKV`` file,
    or of the ``SqliteKV`` row payloads in ``id`` order."""

    def __init__(self, kind, root):
        self.kind = kind
        self.root = root
        self.memory = MemoryKV()

    def backend(self):
        if self.kind == "memory":
            return self.memory
        if self.kind == "file":
            return FileKV(os.path.join(self.root, "kv"))
        return SqliteKV(os.path.join(self.root, "journal.db"))

    def _rows(self):
        conn = sqlite3.connect(os.path.join(self.root, "journal.db"))
        rows = conn.execute(
            "SELECT id, payload FROM journal WHERE key = 'shard-0.log'"
            " ORDER BY id"
        ).fetchall()
        conn.close()
        return rows

    def size(self):
        if self.kind == "memory":
            return len(self.memory.get("shard-0.log"))
        if self.kind == "file":
            return os.path.getsize(
                os.path.join(self.root, "kv", "shard-0.log")
            )
        return sum(len(payload) for _, payload in self._rows())

    def damage(self, how, at, bit):
        """Truncate the log at byte *at*, or flip *bit* of that byte."""
        if self.kind == "memory":
            self.memory.set(
                "shard-0.log", _damaged(self.memory.get("shard-0.log"),
                                        how, at, bit)
            )
            return
        if self.kind == "file":
            path = os.path.join(self.root, "kv", "shard-0.log")
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(_damaged(blob, how, at, bit))
            return
        conn = sqlite3.connect(os.path.join(self.root, "journal.db"))
        start = 0
        for row_id, payload in self._rows():
            end = start + len(payload)
            if start >= at and how == "truncate":
                conn.execute("DELETE FROM journal WHERE id = ?", (row_id,))
            elif start <= at < end:
                conn.execute(
                    "UPDATE journal SET payload = ? WHERE id = ?",
                    (_damaged(payload, how, at - start, bit), row_id),
                )
            start = end
        conn.commit()
        conn.close()


def _damaged(blob, how, at, bit):
    if how == "truncate":
        return blob[:at]
    flipped = bytearray(blob)
    flipped[at] ^= 1 << bit
    return bytes(flipped)


class TestReplayFuzz:
    """Random damage to a real log: a reopen keeps exactly the state of
    the longest intact record prefix and takes appends afterwards."""

    @pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=fuzz_ops,
        how=st.sampled_from(["truncate", "flip"]),
        where=st.floats(min_value=0, max_value=1, exclude_max=True),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_damaged_log_replays_its_intact_prefix(
        self, kind, ops, how, where, bit
    ):
        with tempfile.TemporaryDirectory() as root:
            log = _Log(kind, root)
            store = JournalStore(log.backend(), compact_every=1000)
            # The expected state after each prefix of the op stream, and
            # where each op's record ends in the log.
            model, states, ends = {}, [{}], []
            for seq, (name, op, payload) in enumerate(ops, start=1):
                if op == "register" or name not in model:
                    facts = {("R", payload, payload + 1)}
                    store.register(0, name, _db(*facts), seq=seq)
                else:
                    facts = (model[name] - {("R", payload, payload + 1)}) | {
                        ("X", payload, seq)
                    }
                    store.delta(
                        0,
                        name,
                        _delta(
                            inserts=[("X", payload, seq)],
                            removes=[("R", payload, payload + 1)],
                        ),
                        seq=seq,
                    )
                model = dict(model, **{name: frozenset(facts)})
                states.append(model)
                ends.append(log.size())
            store.close()

            at = int(where * ends[-1])
            log.damage(how, at, bit)
            intact = sum(1 for end in ends if end <= at)
            # A cut on a record boundary leaves a shorter log that is
            # itself valid: nothing detectably lost.
            torn = how == "flip" or at not in [0] + ends

            reopened = JournalStore(log.backend())
            try:
                got = {
                    name: db.facts
                    for name, db in reopened.residents(0).items()
                }
                want = {
                    name: _db(*facts).facts
                    for name, facts in states[intact].items()
                }
                assert got == want
                assert reopened.last_seq(0) == intact
                truncated = reopened.health()["truncated_ops"]
                assert truncated >= 1 if torn else truncated == 0
                reopened.register(0, "after", _db(("T", 0, 1)), seq=intact + 1)
            finally:
                reopened.close()

            again = JournalStore(log.backend())
            try:
                assert again.health()["truncated_ops"] == 0
                assert again.last_seq(0) == intact + 1
                assert again.get(0, "after") == _db(("T", 0, 1))
                assert len(again.residents(0)) == len(states[intact]) + 1
            finally:
                again.close()


class TestMakeJournalStore:
    def test_none_passthrough(self):
        assert make_journal_store(None) is None

    def test_instance_passthrough(self):
        store = JournalStore()
        assert make_journal_store(store) is store

    def test_memory_by_name(self):
        store = make_journal_store("memory")
        assert isinstance(store, JournalStore)

    def test_sqlite_by_spec(self, tmp_path):
        store = make_journal_store("sqlite:{}".format(tmp_path / "j.db"))
        assert isinstance(store, SqliteJournalStore)
        assert isinstance(store, JournalStore)
        store.close()

    def test_kv_by_spec(self, tmp_path):
        memory = make_journal_store("kv:memory")
        assert isinstance(memory, JournalStore)
        assert memory.backend.kind == "memory"
        filed = make_journal_store("kv:{}".format(tmp_path / "kvdir"))
        assert filed.backend.kind == "file"
        filed.close()

    def test_replicated_by_spec(self, tmp_path):
        store = make_journal_store(
            "replicated:sqlite:{};memory,memory".format(tmp_path / "p.db")
        )
        assert isinstance(store, ReplicatedJournalStore)
        assert store.primary.kind == "sqlite"
        assert [f.kind for f in store.followers] == ["memory", "memory"]
        store.close()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            make_journal_store("parchment")
        # The rejection names the full supported grammar.
        assert SPEC_GRAMMAR in str(excinfo.value)
        with pytest.raises(ValueError):
            make_journal_store("sqlite:")
        with pytest.raises(ValueError):
            make_journal_store("kv:")
        with pytest.raises(ValueError):
            make_journal_store("replicated:memory")  # no follower
        with pytest.raises(ValueError):
            make_journal_store("replicated:;memory")  # no primary
        with pytest.raises(TypeError):
            make_journal_store(42)
