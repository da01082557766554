"""Engine stats accounting under streaming batches and delta streams.

The satellite claim: the delta counters (``delta_solves`` =
``incremental_hits`` + ``full_resolves``) and the batch counters stay
consistent when multiprocess ``solve_batch_iter`` runs interleave with
``solve_delta`` streams on the same engine -- pool workers must not
corrupt (or double-count into) the parent's counters.
"""

import pytest

from repro.db.delta import Delta
from repro.db.facts import Fact
from repro.engine import CertaintyEngine
from repro.solvers.sat_encoding import IncrementalSatContext
from repro.workloads.generators import chain_instance

MIXED = ["RXRX", "RRX", "RXRYRY", "ARRX"]


def _pairs():
    return [
        (chain_instance(query, repetitions=r, conflict_every=3), query)
        for query in MIXED
        for r in (2, 3)
    ]


def _assert_delta_invariant(engine):
    stats = engine.stats
    assert stats.delta_solves == stats.incremental_hits + stats.full_resolves


class TestBatchIterAccounting:
    def test_parallel_batch_counters(self):
        engine = CertaintyEngine()
        pairs = _pairs()
        results = sorted(engine.solve_batch_iter(pairs, workers=2))
        assert [i for i, _r in results] == list(range(len(pairs)))
        assert engine.stats.solves == len(pairs)
        assert engine.stats.batches == 1
        assert engine.stats.parallel_batches == 1
        assert sum(engine.stats.method_counts.values()) == len(pairs)
        # A pure batch performs no delta work at all.
        assert engine.stats.delta_solves == 0
        assert engine.stats.incremental_hits == 0
        assert engine.stats.full_resolves == 0

    def test_sequential_iter_matches_parallel_counts(self):
        pairs = _pairs()
        sequential = CertaintyEngine()
        parallel = CertaintyEngine()
        seq_results = sorted(sequential.solve_batch_iter(pairs))
        par_results = sorted(parallel.solve_batch_iter(pairs, workers=2))
        assert [r.answer for _i, r in seq_results] == [
            r.answer for _i, r in par_results
        ]
        assert sequential.stats.solves == parallel.stats.solves
        assert sequential.stats.parallel_batches == 0
        assert parallel.stats.parallel_batches == 1


class TestDeltaAccountingUnderBatches:
    def test_delta_counters_survive_interleaved_parallel_batches(self):
        engine = CertaintyEngine()
        db = chain_instance("RRX", repetitions=4, conflict_every=3)

        # Cold sight: one full resolve.
        engine.solve_delta(db, Delta(), "RRX")
        assert engine.stats.full_resolves == 1
        _assert_delta_invariant(engine)

        # A workers=2 batch in between must leave delta counters alone.
        list(engine.solve_batch_iter(_pairs(), workers=2))
        assert engine.stats.delta_solves == 1
        assert engine.stats.incremental_hits == 0
        _assert_delta_invariant(engine)

        # Warm stream: every step an incremental hit, invariant holds.
        n_nodes = 4 * 3
        for step in range(4):
            branch = Fact("R", step, n_nodes + 50 + step)
            engine.solve_delta(db, Delta.inserting(branch), "RRX")
            db = Delta.inserting(branch).apply_to(db).commit()
            _assert_delta_invariant(engine)
        assert engine.stats.delta_solves == 5
        assert engine.stats.incremental_hits == 4
        assert engine.stats.full_resolves == 1

    def test_conp_fallback_counts_as_full_resolve(self, monkeypatch):
        engine = CertaintyEngine()
        # A consistent ARRX chain: certainty holds, so the incremental
        # pre-filter cannot dismiss it and every effective delta
        # re-solves via SAT.  First sight builds the CNF context (a full
        # resolve); an effective delta re-solves through the cached
        # assumption-keyed context and counts as a SAT-incremental hit,
        # keeping the invariant intact.
        db = chain_instance("ARRX", repetitions=2)
        cold = engine.solve_delta(db, Delta(), "ARRX")
        assert cold.answer is True
        assert cold.method == "sat-incremental"
        assert cold.details["incremental"] is False
        assert engine.stats.full_resolves == 1
        edit = Delta.inserting(("X", 900, 901))
        result = engine.solve_delta(db, edit, "ARRX")
        assert result.answer is True
        assert result.method == "sat-incremental"
        assert result.details["incremental"] is True
        assert engine.stats.delta_solves == 2
        assert engine.stats.full_resolves == 1
        assert engine.stats.sat_incremental_hits == 1
        _assert_delta_invariant(engine)

        # Reads with no effective edit return the stored answer: no SAT.
        db = edit.apply_to(db).commit()
        solves = []
        original = IncrementalSatContext.solve
        monkeypatch.setattr(
            IncrementalSatContext,
            "solve",
            lambda ctx: solves.append(ctx) or original(ctx),
        )
        for _ in range(3):
            read = engine.solve_delta(db, Delta(), "ARRX")
            assert read.answer is True
            assert read.method == "sat-incremental"
            assert read.details["incremental"] is True
        assert solves == []
        assert engine.stats.delta_solves == 5
        assert engine.stats.incremental_hits == 4
        assert engine.stats.sat_incremental_hits == 1
        _assert_delta_invariant(engine)

    def test_forced_method_delta_counts_as_full_resolve(self):
        engine = CertaintyEngine()
        db = chain_instance("RRX", repetitions=3)
        result = engine.solve_delta(db, Delta(), "RRX", method="fixpoint")
        assert result.details["incremental"] is False
        assert engine.stats.full_resolves == 1
        _assert_delta_invariant(engine)
