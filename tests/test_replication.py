"""The replicated journal tier, unit to end-to-end.

Covers the kv backends and the kv journal store, the replication
semantics of :class:`~repro.serving.replication.ReplicatedJournalStore`
(lag, shipping, most-caught-up promotion, guard refusal, degraded
reads), the hypothesis properties the ISSUE pins (replica tailing is
idempotent under redelivered ops; a tailed replica's replay is
byte-identical to the primary's), and the acceptance run: kill the
primary store mid-traffic with injected journal faults on both
transports -- a replica is promoted, every durable resident answers
correctly against the independent oracle, zero committed writes are
lost, and a server restarted on the promoted store restores placements.
"""

import asyncio
import pickle
import sqlite3
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db.delta import Delta
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.scenarios.oracle import check_read_outcomes
from repro.serving import (
    AsyncCertaintyServer,
    DeadlineExceeded,
    FailoverGuard,
    FileKV,
    JournalStore,
    JournalUnavailable,
    MemoryKV,
    ReplicatedJournalStore,
    RestartPolicy,
    ServerOverloaded,
    ShardUnavailable,
    SqliteJournalStore,
    make_journal_store,
)
from repro.workloads.generators import chain_instance

TRANSPORTS = ["thread", "process"]


def _db(*triples):
    return DatabaseInstance.from_triples(list(triples))


def _delta(inserts=(), removes=()):
    return Delta(
        removes=tuple(Fact(*t) for t in removes),
        inserts=tuple(Fact(*t) for t in inserts),
    )


# ---------------------------------------------------------------------------
# Instrumented follower stores for white-box replication tests.
# ---------------------------------------------------------------------------


class _LossyFollower(JournalStore):
    """Silently drops stamped ops above a ceiling -- a replica that
    stopped applying mid-stream (shipping still advances its cursor)."""

    def __init__(self, ceiling):
        super().__init__()
        self.ceiling = ceiling

    def register(self, shard_id, name, db, seq=0):
        if seq and seq > self.ceiling:
            return
        super().register(shard_id, name, db, seq)

    def delta(self, shard_id, name, delta, seq=0):
        if seq and seq > self.ceiling:
            return
        super().delta(shard_id, name, delta, seq)

    def seal(self, shard_id, seq):
        if seq > self.ceiling:
            return
        super().seal(shard_id, seq)


class _ExplodingFollower(JournalStore):
    """Raises on every write once ``broken`` is set -- a dead replica."""

    def __init__(self):
        super().__init__()
        self.broken = False

    def register(self, *args, **kwargs):
        if self.broken:
            raise RuntimeError("replica down")
        super().register(*args, **kwargs)

    def delta(self, *args, **kwargs):
        if self.broken:
            raise RuntimeError("replica down")
        super().delta(*args, **kwargs)


class _FlakyReadPrimary(JournalStore):
    """Raises on reads once ``read_broken`` is set; writes still work."""

    def __init__(self):
        super().__init__()
        self.read_broken = False

    def get(self, shard_id, name):
        if self.read_broken:
            raise RuntimeError("primary read path down")
        return super().get(shard_id, name)


# ---------------------------------------------------------------------------
# KV backends and the kv journal store.
# ---------------------------------------------------------------------------


class TestKVBackends:
    @pytest.fixture(params=["memory", "file"])
    def kv(self, request, tmp_path):
        if request.param == "memory":
            return MemoryKV()
        return FileKV(tmp_path / "kv")

    def test_get_set_append_keys_delete(self, kv):
        assert kv.get("a") is None
        kv.set("a", b"one")
        assert kv.get("a") == b"one"
        kv.append("a", b"+two")
        assert kv.get("a") == b"one+two"
        kv.append("b", b"fresh")  # append creates
        assert kv.get("b") == b"fresh"
        assert kv.keys() == ["a", "b"]
        kv.set("a", b"replaced")  # set overwrites, not appends
        assert kv.get("a") == b"replaced"
        kv.delete("a")
        kv.delete("a")  # idempotent
        assert kv.get("a") is None
        assert kv.keys() == ["b"]

    def test_file_kv_persists_across_instances(self, tmp_path):
        first = FileKV(tmp_path / "kv")
        first.set("shard-0.log", b"payload")
        second = FileKV(tmp_path / "kv")
        assert second.get("shard-0.log") == b"payload"
        assert second.keys() == ["shard-0.log"]


class TestKVJournalStoreDurability:
    def test_shared_backend_replays(self):
        kv = MemoryKV()
        store = JournalStore(kv)
        store.register(0, "a", _db(("R", 0, 1)), seq=1)
        store.delta(0, "a", _delta(inserts=[("X", 1, 2)]), seq=2)
        store.register(1, "b", _db(("S", 0, 1)), seq=1)
        expected = store.get(0, "a")
        reopened = JournalStore(kv)
        assert reopened.get(0, "a") == expected
        assert reopened.get(1, "b") == _db(("S", 0, 1))
        assert reopened.last_seq(0) == 2
        assert reopened.placements() == {"a": 0, "b": 1}
        # Redelivery protection survives the replay too.
        reopened.delta(0, "a", _delta(removes=[("X", 1, 2)]), seq=2)
        assert reopened.get(0, "a") == expected

    def test_file_backed_reopen(self, tmp_path):
        store = JournalStore(FileKV(tmp_path / "kv"))
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        store.close()
        reopened = JournalStore(FileKV(tmp_path / "kv"))
        assert reopened.get(0, "toy") == _db(("R", 0, 1), ("X", 1, 2))
        assert reopened.last_seq(0) == 2

    def test_compaction_bounds_the_log(self, tmp_path):
        store = JournalStore(FileKV(tmp_path / "kv"), compact_every=4)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        for i in range(10):
            store.delta(
                0, "toy", _delta(inserts=[("X", i, i + 1)]), seq=2 + i
            )
        health = store.health()
        assert health["compactions"] == 2  # after deltas 4 and 8
        assert health["log_rows"] < 4 + 1
        expected = store.get(0, "toy")
        reopened = JournalStore(FileKV(tmp_path / "kv"))
        assert reopened.get(0, "toy") == expected
        assert reopened.last_seq(0) == 11

    def test_torn_tail_truncated_on_replay(self):
        kv = MemoryKV()
        store = JournalStore(kv)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.tear(0)  # crash mid-append: checksum-failing tail record
        reopened = JournalStore(kv)
        assert reopened.health()["truncated_ops"] == 1
        assert reopened.get(0, "toy") == _db(("R", 0, 1))
        assert reopened.last_seq(0) == 1
        # The truncated log was rewritten: a second replay is clean.
        third = JournalStore(kv)
        assert third.health()["truncated_ops"] == 0
        assert third.last_seq(0) == 1

    def test_byte_level_truncation(self, tmp_path):
        kv = FileKV(tmp_path / "kv")
        store = JournalStore(kv)
        for i in range(4):
            store.register(
                0, "res-{}".format(i), _db(("R", i, i + 1)), seq=i + 1
            )
        store.close()
        log = (tmp_path / "kv" / "shard-0.log").read_bytes()
        (tmp_path / "kv" / "shard-0.log").write_bytes(log[:-3])
        reopened = JournalStore(FileKV(tmp_path / "kv"))
        assert reopened.health()["truncated_ops"] == 1
        assert sorted(reopened.residents(0)) == ["res-0", "res-1", "res-2"]
        assert reopened.last_seq(0) == 3

    def test_compact_every_validated(self):
        with pytest.raises(ValueError):
            JournalStore(MemoryKV(), compact_every=0)


# ---------------------------------------------------------------------------
# Replication semantics.
# ---------------------------------------------------------------------------


class TestReplicationSemantics:
    def test_lag_and_flush(self):
        store = ReplicatedJournalStore(
            JournalStore(),
            (JournalStore(), JournalStore()),
            ship_every=100,  # nothing ships on its own
        )
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        lags = [r["lag"] for r in store.health()["replication"]["replicas"]]
        assert lags == [2, 2]
        store.flush()
        lags = [r["lag"] for r in store.health()["replication"]["replicas"]]
        assert lags == [0, 0]
        for follower in store.followers:
            assert follower.get(0, "toy") == store.get(0, "toy")
            assert follower.last_seq(0) == 2

    def test_ship_every_ships_automatically(self):
        store = ReplicatedJournalStore(
            JournalStore(), (JournalStore(),), ship_every=3
        )
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        assert store.followers[0].last_seq(0) == 0  # 2 ops: not yet
        store.delta(0, "toy", _delta(inserts=[("X", 2, 3)]), seq=3)
        assert store.followers[0].last_seq(0) == 3  # 3rd op shipped

    def test_bootstrap_syncs_a_lagging_follower(self, tmp_path):
        # The primary has history before the replica set is formed: the
        # bootstrap snapshot-ships it and seals to the high-water.
        primary = SqliteJournalStore(tmp_path / "p.db")
        primary.register(0, "a", _db(("R", 0, 1)), seq=1)
        primary.delta(0, "a", _delta(inserts=[("X", 1, 2)]), seq=2)
        primary.register(1, "b", _db(("S", 0, 1)), seq=1)
        follower = JournalStore()
        store = ReplicatedJournalStore(primary, (follower,))
        assert follower.get(0, "a") == primary.get(0, "a")
        assert follower.get(1, "b") == primary.get(1, "b")
        assert follower.last_seq(0) == 2  # sealed, not replayed op by op
        assert follower.last_seq(1) == 1
        lags = [r["lag"] for r in store.health()["replication"]["replicas"]]
        assert lags == [0]
        store.close()
        primary.close()

    def test_reopening_an_in_sync_store_ships_nothing(self, tmp_path):
        # Two residents large enough that re-registering them supersedes
        # enough bytes to trigger a follower log compaction.
        spec = "replicated:sqlite:{0}/p.db;sqlite:{0}/f.db".format(tmp_path)
        a = chain_instance("RRX", repetitions=900, conflict_every=7)
        b = chain_instance("RXRX", repetitions=700, conflict_every=7)
        store = make_journal_store(spec)
        store.register(0, "a", a, seq=1)
        store.register(1, "b", b, seq=1)
        store.flush()
        store.close()
        for _ in range(3):
            store = make_journal_store(spec)
            follower = store.followers[0]
            assert follower.health()["compactions"] == 0
            assert follower.get(0, "a") == a and follower.get(1, "b") == b
            assert [follower.last_seq(0), follower.last_seq(1)] == [1, 1]
            store.close()

    @pytest.mark.parametrize("damage", ["missing", "different"])
    def test_out_of_sync_follower_is_resynced(self, tmp_path, damage):
        primary = SqliteJournalStore(tmp_path / "p.db")
        primary.register(0, "a", _db(("R", 0, 1)), seq=1)
        primary.register(0, "b", _db(("S", 0, 1)), seq=2)
        follower = SqliteJournalStore(tmp_path / "f.db")
        # At the primary's high-water, but without "b" or with a stale "b".
        follower.register(0, "a", _db(("R", 0, 1)))
        if damage == "different":
            follower.register(0, "b", _db(("S", 0, 2)))
        follower.seal(0, 2)
        store = ReplicatedJournalStore(primary, (follower,))
        assert follower.residents(0) == primary.residents(0)
        assert follower.last_seq(0) == 2
        store.close()
        follower.close()
        primary.close()

    def test_failover_retries_the_failed_write(self):
        store = ReplicatedJournalStore(
            JournalStore(), (JournalStore(),)
        )
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.arm("write_error:times=1")
        # The caller never sees the injected failure.
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        rep = store.health()["replication"]
        assert rep["failovers"] == 1
        assert rep["replicas"] == []  # the only follower was promoted
        assert store.get(0, "toy") == _db(("R", 0, 1), ("X", 1, 2))
        assert store.last_seq(0) == 2  # zero committed writes lost

    def test_promotes_the_most_caught_up_follower(self):
        lossy = _LossyFollower(ceiling=2)
        fresh = JournalStore()
        store = ReplicatedJournalStore(
            JournalStore(), (lossy, fresh), ship_every=1
        )
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        for i in range(3):
            store.delta(
                0, "toy", _delta(inserts=[("X", i, i + 1)]), seq=2 + i
            )
        lags = [r["lag"] for r in store.health()["replication"]["replicas"]]
        assert lags == [2, 0]  # lossy stopped applying at seq 2
        store.arm("write_error:times=1")
        store.delta(0, "toy", _delta(inserts=[("Y", 0, 1)]), seq=5)
        assert store.primary is fresh  # not the lossy one
        assert store.last_seq(0) == 5
        assert len(store.get(0, "toy").facts) == 5

    def test_dead_follower_is_dropped_not_fatal(self):
        bad = _ExplodingFollower()
        good = JournalStore()
        store = ReplicatedJournalStore(
            JournalStore(), (bad, good), ship_every=1
        )
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        bad.broken = True
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        rep = store.health()["replication"]
        assert rep["followers_lost"] == 1
        assert len(rep["replicas"]) == 1
        assert good.last_seq(0) == 2

    def test_guard_refusal_surfaces_unavailable(self):
        store = ReplicatedJournalStore(
            JournalStore(),
            (JournalStore(),),
            guard=FailoverGuard(RestartPolicy(max_restarts=0)),
        )
        store.arm("write_error:times=1")
        with pytest.raises(JournalUnavailable):
            store.register(0, "toy", _db(("R", 0, 1)), seq=1)

    def test_exhausted_replica_set_surfaces_unavailable(self):
        store = ReplicatedJournalStore(
            JournalStore(), (JournalStore(),)
        )
        store.arm("write_error:times=2")
        store.register(0, "a", _db(("R", 0, 1)), seq=1)  # promotes the one
        with pytest.raises(JournalUnavailable):
            store.register(0, "b", _db(("S", 0, 1)), seq=2)

    def test_torn_write_tears_the_primary_log_for_real(self, tmp_path):
        path = tmp_path / "primary.db"
        store = ReplicatedJournalStore("sqlite:{}".format(path), ("memory",))
        db = _db(("R", 0, 1))
        store.register(0, "toy", db, seq=1)
        store.arm("torn_write:times=1")
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        assert store.health()["replication"]["failovers"] == 1
        assert store.get(0, "toy") == _db(("R", 0, 1), ("X", 1, 2))
        store.close()
        # Reopening the torn primary exercises torn-tail recovery.
        reopened = SqliteJournalStore(path)
        assert reopened.health()["truncated_ops"] == 1
        assert reopened.get(0, "toy") == db
        reopened.close()

    def test_stall_delays_without_promoting(self):
        store = ReplicatedJournalStore(
            JournalStore(), (JournalStore(),)
        )
        store.arm("stall:seconds=0.05,times=1")
        start = time.monotonic()
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        assert time.monotonic() - start >= 0.04
        assert store.health()["replication"]["failovers"] == 0

    def test_unknown_resident_delta_does_not_burn_a_replica(self):
        store = ReplicatedJournalStore(
            JournalStore(), (JournalStore(),)
        )
        with pytest.raises(KeyError):
            store.delta(0, "ghost", _delta(inserts=[("R", 0, 1)]), seq=1)
        assert store.health()["replication"]["failovers"] == 0
        assert len(store.followers) == 1

    def test_degraded_read_falls_back_to_freshest_replica(self):
        primary = _FlakyReadPrimary()
        lossy = _LossyFollower(ceiling=1)
        fresh = JournalStore()
        store = ReplicatedJournalStore(primary, (lossy, fresh), ship_every=1)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.delta(0, "toy", _delta(inserts=[("X", 1, 2)]), seq=2)
        primary.read_broken = True
        # read_snapshot answers from the freshest caught-up replica
        # (fresh, at seq 2 -- not lossy, stuck at seq 1) and never
        # promotes.
        assert store.read_snapshot(0, "toy") == _db(("R", 0, 1), ("X", 1, 2))
        assert store.health()["replication"]["failovers"] == 0
        assert store.primary is primary

    def test_plain_read_on_dead_primary_fails_over(self):
        primary = _FlakyReadPrimary()
        fresh = JournalStore()
        store = ReplicatedJournalStore(primary, (fresh,), ship_every=1)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        primary.read_broken = True
        assert store.get(0, "toy") == _db(("R", 0, 1))
        assert store.primary is fresh
        assert store.health()["replication"]["failovers"] == 1

    def test_close_closes_string_built_substores(self, tmp_path):
        store = make_journal_store(
            "replicated:sqlite:{};sqlite:{}".format(
                tmp_path / "p.db", tmp_path / "f.db"
            )
        )
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        follower = store.followers[0]
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            store.primary.health()
        with pytest.raises(sqlite3.ProgrammingError):
            follower.health()

    def test_injected_instances_stay_open(self):
        primary = JournalStore()
        follower = JournalStore()
        store = ReplicatedJournalStore(primary, (follower,), ship_every=100)
        store.register(0, "toy", _db(("R", 0, 1)), seq=1)
        store.close()  # flushes the op log, closes nothing it doesn't own
        assert follower.get(0, "toy") == _db(("R", 0, 1))
        primary.register(0, "more", _db(("S", 0, 1)), seq=2)  # still usable

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicatedJournalStore(JournalStore(), ())
        with pytest.raises(ValueError):
            ReplicatedJournalStore(
                JournalStore(), (JournalStore(),), ship_every=0
            )

    def test_server_rejects_journal_faults_without_replication(self):
        with pytest.raises(ValueError):
            AsyncCertaintyServer(
                journal_store="memory", journal_faults="write_error:times=1"
            )
        with pytest.raises(ValueError):
            AsyncCertaintyServer(journal_faults="write_error:times=1")


# ---------------------------------------------------------------------------
# Hypothesis properties: idempotent tailing, byte-identical replay.
# ---------------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),       # resident name
        st.sampled_from(["register", "delta"]),  # op kind
        st.integers(min_value=0, max_value=9),   # fact payload
        st.booleans(),                           # redeliver this op?
    ),
    min_size=1,
    max_size=30,
)


def _state_bytes(store, shards=(0,)):
    """A canonical byte serialization of a store's folded state."""
    return pickle.dumps(
        [
            (
                shard_id,
                sorted(
                    (name, sorted(db.facts))
                    for name, db in store.residents(shard_id).items()
                ),
                store.last_seq(shard_id),
            )
            for shard_id in shards
        ],
        protocol=pickle.HIGHEST_PROTOCOL,
    )


class TestReplicationProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops_strategy, st.integers(min_value=1, max_value=5))
    def test_tailing_is_idempotent_and_byte_identical(self, ops, ship_every):
        store = ReplicatedJournalStore(
            JournalStore(),
            (JournalStore(), JournalStore()),
            ship_every=ship_every,
        )
        seq = 0
        registered = set()
        for name, kind, payload, redeliver in ops:
            seq += 1
            if kind == "register" or name not in registered:
                store.register(
                    0, name, _db(("R", payload, payload + 1)), seq=seq
                )
                registered.add(name)
                if redeliver:  # an at-least-once transport retries
                    store.register(
                        0, name, _db(("R", 99, 99)), seq=seq
                    )
            else:
                delta = _delta(inserts=[("X", payload, seq)])
                store.delta(0, name, delta, seq=seq)
                if redeliver:
                    store.delta(0, name, delta, seq=seq)
        store.flush()
        primary_state = _state_bytes(store.primary)
        for follower in store.followers:
            # The tailed replica's replay is byte-identical to the
            # primary's, redeliveries and all.
            assert _state_bytes(follower) == primary_state
        assert store.last_seq(0) == seq

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops_strategy)
    def test_kv_replay_matches_live_state(self, ops):
        kv = MemoryKV()
        store = JournalStore(kv, compact_every=5)
        seq = 0
        registered = set()
        for name, kind, payload, _redeliver in ops:
            seq += 1
            if kind == "register" or name not in registered:
                store.register(
                    0, name, _db(("R", payload, payload + 1)), seq=seq
                )
                registered.add(name)
            else:
                store.delta(
                    0, name, _delta(inserts=[("X", payload, seq)]), seq=seq
                )
        replayed = JournalStore(kv)
        assert _state_bytes(replayed) == _state_bytes(store)


# ---------------------------------------------------------------------------
# End to end: mid-traffic primary failover on both transports.
# ---------------------------------------------------------------------------


class TestEndToEndFailover:
    """The acceptance run: injected journal faults kill the primary
    store mid-traffic; a replica is promoted, every durable resident
    still answers correctly (oracle cross-check), zero committed writes
    are lost, and a server restarted on the promoted store restores the
    placements."""

    DELTAS = [
        Delta.removing(("X", 2, 3)),
        Delta.inserting(("X", 3, 4)),
        Delta.inserting(("R", 2, 3)),
        Delta.removing(("R", 0, 1)),
        Delta.inserting(("X", 2, 3)),
    ]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_mid_traffic_failover(self, transport, tmp_path):
        primary_path = tmp_path / "primary.db"
        follower_path = tmp_path / "follower.db"
        journal_spec = "replicated:sqlite:{};sqlite:{},memory".format(
            primary_path, follower_path
        )
        base = _db(("R", 0, 1), ("R", 1, 2), ("X", 2, 3))

        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=2,
                transport=transport,
                journal_store=journal_spec,
                journal_faults="write_error:every=4,times=1;seed=3",
                restart_policy=RestartPolicy(backoff_base=0.0),
            ) as server:
                await server.register("toy", base)
                await server.register("aux", _db(("S", 0, 1)))
                # Writes, in order: every one must commit exactly once
                # through the injected primary failure.
                for delta in self.DELTAS:
                    result = await server.solve_delta("toy", delta, "RRX")
                    assert result is not None
                reads = await asyncio.gather(
                    *(server.solve("toy", "RRX") for _ in range(8)),
                    return_exceptions=True,
                )
                final = await server.get_instance("toy")
                aux = await server.get_instance("aux")
                return reads, final, aux, server.stats()

        reads, final, aux, stats = asyncio.run(scenario())

        expected = base
        for delta in self.DELTAS:
            expected = delta.apply_to(expected).commit()
        assert final == expected  # zero lost, zero double-applied
        assert aux == _db(("S", 0, 1))

        # Oracle cross-check: every read matches the independent
        # reference answer on the committed instance, or is typed shed.
        check_read_outcomes(
            reads,
            expected,
            "RRX",
            allowed=(DeadlineExceeded, ServerOverloaded, ShardUnavailable),
        )

        # The failover actually happened, and it was the sqlite
        # follower (most caught-up, ties to lowest index) that was
        # promoted.
        replication = stats["journal"]["replication"]
        assert replication["failovers"] >= 1
        assert replication["primary"] == "sqlite"
        assert stats["journal_faults"]["armed"] is True
        assert stats["journal_faults"]["injected"].get("write_error", 0) >= 1

        # Restart on the promoted store: a fresh server opened on the
        # follower's path alone restores every placement and instance.
        async def reopen():
            async with AsyncCertaintyServer(
                num_shards=2,
                transport=transport,
                journal_store="sqlite:{}".format(follower_path),
            ) as server:
                return (
                    await server.get_instance("toy"),
                    await server.get_instance("aux"),
                    server.stats()["placement"],
                )

        toy_after, aux_after, placements = asyncio.run(reopen())
        assert toy_after == expected
        assert aux_after == _db(("S", 0, 1))
        assert sorted(placements) == ["aux", "toy"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_armed_but_silent_plan_changes_nothing(self, transport):
        # A journal plan whose rules never fire must not perturb
        # results -- the overhead gate's correctness twin.
        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=1,
                transport=transport,
                journal_store="replicated:memory;memory",
                journal_faults="write_error:batch=10000,times=1",
            ) as server:
                await server.register("toy", _db(("R", 0, 1), ("X", 1, 2)))
                result = await server.solve("toy", "RX")
                final = await server.get_instance("toy")
                return result.answer, final, server.stats()

        answer, final, stats = asyncio.run(scenario())
        assert answer is True
        assert final == _db(("R", 0, 1), ("X", 1, 2))
        assert stats["journal"]["replication"]["failovers"] == 0
        assert stats["journal_faults"]["injected"] == {}
