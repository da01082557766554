"""The cross-process wire contract behind the serving transports.

The :class:`~repro.serving.transport.ProcessTransport` (and the engine's
worker pools) depend on two pickling contracts:

* :meth:`repro.db.instance.DatabaseInstance.__reduce__` ships **facts
  only** -- no compact views or cached kernel plans cross the wire; the
  receiver rebuilds indexes and compiles its *own* compact view and
  reaches identical answers;
* :class:`repro.solvers.result.LazyMinimalRepair` survives the hop
  **unresolved** -- the O(db) Lemma 9 construction is not forced at
  pickle time, and resolving it on the receiving side yields the same
  repair the sender would have built.

These tests round-trip real payloads through a fresh interpreter (a
``subprocess``, not a fork -- a forked child would inherit the parent's
cached views and prove nothing).

The shm snapshot codec is also fuzzed: every malformed stream must be
rejected with :class:`~repro.serving.transport.ShardTransportError`,
never hang, crash otherwise or decode half an instance.
"""

import glob
import os
import pickle
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.serving import ShardRequest
from repro.serving.transport import (
    ProcessTransport,
    ShardTransportError,
    _decode_snapshot,
    _encode_snapshot,
)
from repro.solvers.fixpoint import certain_answer_fixpoint
from repro.solvers.result import LazyMinimalRepair
from repro.workloads.generators import chain_instance

SRC = str(Path(__file__).resolve().parent.parent / "src")

QUERIES = ["RXRX", "RRX", "RXRYRY"]

#: Runs in a fresh interpreter: verify the received payload, answer the
#: queries, rebuild the compact view, resolve the lazy certificate, and
#: report everything back as plain data for the parent to compare.
CHILD_SCRIPT = """
import pickle, sys

with open(sys.argv[1], "rb") as handle:
    payload = pickle.load(handle)
db, queries, result = payload["db"], payload["queries"], payload["result"]

report = {}
# The cached compact view must NOT have crossed the wire.
report["compact_cache_empty"] = db._compact is None
# The lazy certificate must arrive unresolved.
report["lazy_on_arrival"] = result.has_lazy_repair

from repro.engine import CertaintyEngine

engine = CertaintyEngine()
report["answers"] = [engine.solve(db, q).answer for q in queries]
report["facts"] = sorted(
    (f.relation, f.key, f.value) for f in db.facts
)
view = db.compact()
report["compact_n"] = view.n
report["compact_relations"] = view.relations
# Resolving here runs the Lemma 9 construction against the *child's*
# own compact view.
repair = result.falsifying_repair
report["repair_facts"] = sorted(
    (f.relation, f.key, f.value) for f in repair.facts
)
report["repair_is_repair"] = repair.is_repair_of(db)

with open(sys.argv[2], "wb") as handle:
    pickle.dump(report, handle)
"""


def _roundtrip_through_fresh_interpreter(tmp_path, payload):
    payload_path = tmp_path / "payload.pkl"
    report_path = tmp_path / "report.pkl"
    with open(payload_path, "wb") as handle:
        pickle.dump(payload, handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(payload_path), str(report_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    with open(report_path, "rb") as handle:
        return pickle.load(handle)


def test_child_rebuilds_identical_view_and_answers(tmp_path):
    db = chain_instance("RRX", repetitions=4, conflict_every=3)
    # Force the parent-side caches the wire must NOT carry: the compact
    # view (local ids, kernel plans) and the engine's per-instance state.
    parent_view = db.compact()
    engine = CertaintyEngine()
    parent_answers = [engine.solve(db, q).answer for q in QUERIES]

    # A genuine lazy "no" certificate, unresolved on the parent side.
    no_instance = DatabaseInstance.from_triples(
        [("R", 0, 1), ("R", 1, 2), ("R", 1, 9)]
    )
    result = certain_answer_fixpoint(no_instance, "RRX")
    assert result.answer is False
    assert result.has_lazy_repair

    payload = {"db": db, "queries": QUERIES, "result": result}
    wire = pickle.dumps(payload)
    # Facts-only on the wire: the compact module is not referenced by
    # the pickle stream.
    assert b"compact" not in wire
    # ... and pickling did not force the certificate.
    assert result.has_lazy_repair

    report = _roundtrip_through_fresh_interpreter(tmp_path, payload)
    assert report["compact_cache_empty"] is True
    assert report["lazy_on_arrival"] is True
    assert report["answers"] == parent_answers
    assert report["facts"] == sorted(
        (f.relation, f.key, f.value) for f in db.facts
    )
    # Same shape of the rebuilt view: same domain size, same relations
    # (the ids inside are process-local and deliberately incomparable).
    assert report["compact_n"] == parent_view.n
    assert report["compact_relations"] == parent_view.relations


def test_lazy_repair_resolves_identically_across_the_hop(tmp_path):
    chain = chain_instance("RXRYRY", repetitions=3, conflict_every=2)
    # Drop every Y fact: no complete q-path survives, so CERTAINTY is a
    # "no" and the fixpoint route attaches a LazyMinimalRepair (the only
    # certificate kind whose laziness is *data*, hence wire-safe).
    db = DatabaseInstance([f for f in chain.facts if f.relation != "Y"])
    result = certain_answer_fixpoint(db, "RXRYRY")
    assert result.answer is False
    assert result.has_lazy_repair

    payload = {"db": db, "queries": ["RXRYRY"], "result": result}
    report = _roundtrip_through_fresh_interpreter(tmp_path, payload)
    assert report["lazy_on_arrival"] is True
    assert report["repair_is_repair"] is True
    # The Lemma 9 construction is deterministic in the facts: resolving
    # in the child equals resolving in the parent.
    parent_repair = result.falsifying_repair
    assert report["repair_facts"] == sorted(
        (f.relation, f.key, f.value) for f in parent_repair.facts
    )


def test_snapshot_bytes_reflects_snapshot_traffic_only():
    """``snapshot_bytes`` bills register ops by their own wire size.

    A mixed batch -- one small registration riding with a solve that
    carries a large ad-hoc instance -- must bill only the register op:
    each op is pickled to its own frame slice, so solve/delta companions
    never inflate the snapshot counter.
    """
    from repro.serving import ShardRequest, ShardWorker

    small = DatabaseInstance.from_triples([("R", 0, 1), ("X", 1, 2)])
    big = chain_instance("RXRYRY", repetitions=60, conflict_every=2)
    big_wire = len(pickle.dumps(big, protocol=pickle.HIGHEST_PROTOCOL))

    worker = ShardWorker(0, transport="process")
    try:
        worker.execute([ShardRequest("register", name="small", db=small)])
        baseline = worker.stats()["transport"]["snapshot_bytes"]
        assert baseline > 0
        register = ShardRequest("register", name="small2", db=small)
        solve = ShardRequest("solve", db=big, query="RXRX")
        worker.execute([register, solve])
        assert solve.result.answer is not None
        billed = worker.stats()["transport"]["snapshot_bytes"] - baseline
        # The registered instance is tiny; the ad-hoc solve payload is
        # not.  Billing the whole batch would cost >= big_wire.
        assert 0 < billed < big_wire
        # And a pure-read batch bills nothing at all.
        read = ShardRequest("solve", name="small", query="RXRX")
        worker.execute([read])
        assert (
            worker.stats()["transport"]["snapshot_bytes"] - baseline == billed
        )
    finally:
        worker.stop()


def test_lazy_minimal_repair_reduce_is_data_only():
    db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)])
    lazy = LazyMinimalRepair(db, "R")
    rebuilt = pickle.loads(pickle.dumps(lazy))
    assert isinstance(rebuilt, LazyMinimalRepair)
    assert rebuilt.db == db
    assert rebuilt() == lazy()


# ----------------------------------------------------------------------
# Shared-memory snapshots: the shm flavor of the same hygiene contract
# ----------------------------------------------------------------------


def _snapshot_stream(framed):
    """Split an encoded snapshot into its symbol tables and id stream."""
    payload = framed[:-4]
    tables_len = int.from_bytes(payload[:8], "little")
    n_ids = int.from_bytes(payload[8:16], "little")
    rels, consts = pickle.loads(payload[16 : 16 + tables_len])
    stream = array("q")
    stream.frombytes(payload[16 + tables_len :])
    assert len(stream) == n_ids
    return rels, consts, stream.tolist()


def test_shm_snapshot_ids_are_snapshot_local():
    """Every id in the shm stream indexes the shipped tables, and the
    view's local ids of the encoded instance play no part in it."""
    db = chain_instance("RRX", repetitions=40, conflict_every=3)
    db.compact()
    payload = _encode_snapshot(db)
    rels, consts, ids = _snapshot_stream(payload)
    index = 0
    while index < len(ids):
        rel_id, key_id, count = ids[index], ids[index + 1], ids[index + 2]
        assert 0 <= rel_id < len(rels)
        assert 0 <= key_id < len(consts)
        for value_id in ids[index + 3 : index + 3 + count]:
            assert 0 <= value_id < len(consts)
        index += 3 + count
    assert index == len(ids)
    decoded = _decode_snapshot(payload)
    assert decoded.facts == db.facts
    assert decoded.adom() == db.adom()
    assert decoded._out_index == db._out_index


#: Blocks R(0,*) = {1, 2} and X(1,*) = {3}, and their shm stream as
#: the encoder writes it when R's block comes first.
_SMALL = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2), ("X", 1, 3)])
_SMALL_TABLES = (["R", "X"], [0, 1, 2, 3])
_SMALL_IDS = [0, 0, 2, 1, 2, 1, 1, 1, 3]


def _with_crc(body):
    return body + zlib.crc32(body).to_bytes(4, "little")


def _payload(ids=_SMALL_IDS, tables=_SMALL_TABLES):
    """An shm payload with the given id stream, the header and the
    checksum kept honest."""
    pickled = pickle.dumps(tables)
    return _with_crc(
        len(pickled).to_bytes(8, "little")
        + len(ids).to_bytes(8, "little")
        + pickled
        + array("q", ids).tobytes()
    )


def _set_id(slot, value):
    def mutate(payload):
        ids = list(_SMALL_IDS)
        ids[slot] = value
        return _payload(ids)

    return mutate


def _stream_prefix(n_ids):
    return lambda payload: _payload(_SMALL_IDS[:n_ids])


@pytest.mark.parametrize(
    "mutate",
    [
        # Foreign ids where a snapshot-local key / value id belongs.
        pytest.param(_set_id(1, 987_654), id="1"),
        pytest.param(_set_id(3, 987_654), id="3"),
        pytest.param(_set_id(3, -1), id="negative-value"),
        # The count slot: negative, past the end, empty, and swallowing
        # the next block's header.
        pytest.param(_set_id(2, -1), id="count-negative"),
        pytest.param(_set_id(2, 1 << 40), id="count-overrun"),
        pytest.param(_set_id(2, 0), id="count-zero"),
        pytest.param(_set_id(2, 6), id="count-swallows-block"),
        # A repeated value id, and a block repeated under the same key.
        pytest.param(_set_id(4, 1), id="duplicate-value"),
        pytest.param(_set_id(5, 0), id="duplicate-block"),
        # Streams cut at a block boundary and inside a header, with the
        # header's id count rewritten to match the cut.
        pytest.param(_stream_prefix(5), id="cut-at-block"),
        pytest.param(_stream_prefix(7), id="cut-in-header"),
        # Raw truncations and an unaligned stream.
        pytest.param(lambda p: p[:-8], id="truncated-stream"),
        pytest.param(lambda p: p[:12], id="truncated-header"),
        pytest.param(lambda p: p[:-3], id="unaligned"),
        pytest.param(lambda p: p + b"\0", id="trailing-byte"),
        # Tables that do not unpickle, or unpack to the wrong shape.
        pytest.param(
            lambda p: _with_crc(p[:16] + b"\xff" * (len(p) - 20)),
            id="bad-tables",
        ),
        pytest.param(
            lambda p: _payload(tables=["R", "X"]), id="tables-not-a-pair"
        ),
        pytest.param(
            lambda p: _payload(tables=(["R", "X"], [0, 1, 2, 3, 4])),
            id="unused-constant",
        ),
    ],
)
def test_shm_decode_rejects_foreign_ids(mutate):
    """A stream that is not exactly what the encoder writes is rejected
    outright -- never looped on, half decoded or resolved anyway."""
    payload = _payload()
    assert _decode_snapshot(payload)._out_index == _SMALL._out_index
    with pytest.raises(ShardTransportError):
        _decode_snapshot(mutate(payload))


@pytest.mark.parametrize("payload", [_payload(), _encode_snapshot(_SMALL)])
def test_shm_decode_rejects_every_strict_prefix(payload):
    assert _decode_snapshot(payload).facts == _SMALL.facts
    for end in range(len(payload)):
        with pytest.raises(ShardTransportError):
            _decode_snapshot(payload[:end])


_FUZZ_INSTANCES = [
    _SMALL,
    DatabaseInstance.from_triples(
        [("R", "a", 1), ("R", "a", (1,)), ("R", "a", "1"), ("X", 1, "a")]
    ),
    chain_instance("RXRX", repetitions=2, conflict_every=1),
]


def _assert_rejected_or_consistent(payload):
    try:
        decoded = _decode_snapshot(payload)
    except ShardTransportError:
        return
    assert decoded._out_index == DatabaseInstance(decoded.facts)._out_index


@settings(max_examples=300, deadline=1000)
@given(
    st.sampled_from(_FUZZ_INSTANCES),
    st.data(),
)
def test_shm_decode_fuzz(db, data):
    """Truncations, bit flips and random bytes: each decodes to a
    self-consistent instance or raises ShardTransportError."""
    payload = _encode_snapshot(db)
    kind = data.draw(st.sampled_from(["truncate", "flip", "random"]))
    if kind == "truncate":
        end = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(ShardTransportError):
            _decode_snapshot(payload[:end])
        return
    if kind == "flip":
        mutated = bytearray(payload)
        for bit in data.draw(
            st.lists(st.integers(0, 8 * len(payload) - 1), min_size=1,
                     max_size=4)
        ):
            mutated[bit // 8] ^= 1 << (bit % 8)
        payload = bytes(mutated)
    else:
        payload = data.draw(st.binary(max_size=256))
    _assert_rejected_or_consistent(payload)


@pytest.mark.parametrize("db", _FUZZ_INSTANCES, ids=["small", "mixed", "chain"])
def test_shm_decode_rejects_every_single_bit_flip(db):
    """The crc32 trailer catches every single-bit flip: none decodes,
    silently or otherwise, to an instance."""
    payload = _encode_snapshot(db)
    assert _decode_snapshot(payload).facts == db.facts
    silent = 0
    for bit in range(8 * len(payload)):
        mutated = bytearray(payload)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            _decode_snapshot(bytes(mutated))
        except ShardTransportError:
            continue
        silent += 1
    assert silent == 0


def test_shm_decode_checks_the_checksum_before_unpickling(monkeypatch):
    payload = bytearray(_encode_snapshot(_SMALL))
    payload[-1] ^= 1
    calls = []
    monkeypatch.setattr(
        pickle, "loads", lambda *args: calls.append(args) or None
    )
    with pytest.raises(ShardTransportError):
        _decode_snapshot(bytes(payload))
    assert calls == []


def test_shm_register_round_trip_and_segment_cleanup():
    """Registration above the threshold ships via shm, answers match the
    in-process engine, and no segment outlives its batch."""
    before = set(glob.glob("/dev/shm/psm_*"))
    db = chain_instance("RXRYRY", repetitions=30, conflict_every=2)
    transport = ProcessTransport(0, shm_threshold=0)
    transport.start()
    try:
        register = ShardRequest("register", name="resident", db=db)
        transport.execute([register])
        assert register.error is None
        assert transport.health()["snapshot_shm"] > 0
        # Segments are released with their batch, not held until stop.
        assert transport._segments == []
        if os.path.isdir("/dev/shm"):
            assert set(glob.glob("/dev/shm/psm_*")) <= before
        solve = ShardRequest("solve", name="resident", query="RXRYRY")
        transport.execute([solve])
        assert (
            solve.result.answer
            == CertaintyEngine().solve(db, "RXRYRY").answer
        )
    finally:
        transport.stop()
    if os.path.isdir("/dev/shm"):
        assert set(glob.glob("/dev/shm/psm_*")) <= before


def test_shm_disabled_below_threshold():
    """Small snapshots stay on the pickled-frame path untouched."""
    db = DatabaseInstance.from_triples([("R", 0, 1), ("X", 1, 2)])
    transport = ProcessTransport(0)  # default 256 KiB threshold
    transport.start()
    try:
        register = ShardRequest("register", name="tiny", db=db)
        transport.execute([register])
        assert register.error is None
        health = transport.health()
        assert health["snapshot_shm"] == 0
        assert health["snapshot_bytes"] > 0
    finally:
        transport.stop()
