"""Differential tests: the engine against every applicable solver.

Over randomized instances from :mod:`repro.workloads.generators` and
queries spanning all four Theorem 2 complexity classes, the engine's
``auto`` answer must agree with

* brute-force repair enumeration (ground truth, always applicable);
* the SAT baseline (always applicable);
* the FO rewriting solver (C1 queries);
* the linear-Datalog NL solver (queries with a verified decomposition;
  for NL-complete queries, which ``auto`` decides with the Figure 5
  fixpoint, also on Figure 2 and on chains);
* the Figure 5 fixpoint algorithm (C3 queries; for non-C3 queries its
  "no" answers must still imply the engine's "no" -- Lemma 10 soundness);

and ``solve_batch`` (sequential and ``workers=2``) must agree with
``solve``.
"""

import random

import pytest

from repro.classification.conditions import satisfies_c1, satisfies_c3
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.db.repairs import count_repairs
from repro.engine import CertaintyEngine
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.fixpoint import certain_answer_fixpoint
from repro.solvers.fo_solver import certain_answer_fo
from repro.solvers.nl_solver import certain_answer_nl, nl_supported
from repro.solvers.sat_encoding import certain_answer_sat
from repro.workloads.generators import (
    chain_instance,
    planted_instance,
    random_instance,
)
from repro.workloads.paper_instances import figure2_instance

from tests.conftest import PAPER_TABLE

#: Two queries per Theorem 2 complexity class.
CLASS_QUERIES = [
    ("RR", "FO"),
    ("RXRX", "FO"),
    ("RRX", "NL-complete"),
    ("RXRY", "NL-complete"),
    ("RXRYRY", "PTIME-complete"),
    ("RXRRR", "PTIME-complete"),
    ("ARRX", "coNP-complete"),
    ("RXRXRYRY", "coNP-complete"),
]

#: Keep brute force affordable in the fast lane.
REPAIR_LIMIT = 3000


def _workload(query, seed, trials):
    """Random plus planted instances, small enough for brute force."""
    rng = random.Random(seed)
    alphabet = sorted(set(query))
    instances = []
    for _ in range(trials):
        instances.append(
            random_instance(rng, 4, rng.randint(2, 10), alphabet, 0.5)
        )
        instances.append(
            planted_instance(
                rng,
                query,
                rng.randint(2, 5),
                n_paths=1,
                n_noise_facts=rng.randint(0, 6),
                conflict_rate=0.5,
            )
        )
    return [db for db in instances if count_repairs(db) <= REPAIR_LIMIT]


class TestEngineAgainstSolvers:
    @pytest.mark.parametrize("query,expected_class", CLASS_QUERIES)
    def test_engine_matches_applicable_methods(self, query, expected_class):
        engine = CertaintyEngine()
        plan = engine.compile(query)
        assert str(plan.complexity) == expected_class
        c1 = satisfies_c1(query)
        c3 = satisfies_c3(query)
        nl_ok = nl_supported(query)
        for db in _workload(query, seed=0xD1FF + sum(map(ord, query)), trials=8):
            result = engine.solve(db, query)
            truth = certain_answer_brute_force(db, query).answer
            assert result.answer == truth, (query, db)
            assert certain_answer_sat(db, query).answer == truth
            if c1:
                assert certain_answer_fo(db, query).answer == truth
            if nl_ok:
                assert certain_answer_nl(db, query).answer == truth
            fixpoint = certain_answer_fixpoint(db, query, require_c3=False)
            if c3:
                assert fixpoint.answer == truth
            elif not fixpoint.answer:
                # Lemma 10: the fixpoint "no" is sound for every query.
                assert not truth

    @pytest.mark.parametrize("query,_cls", CLASS_QUERIES)
    def test_forced_methods_agree(self, query, _cls):
        engine = CertaintyEngine()
        methods = ["sat", "brute_force", "fixpoint" if satisfies_c3(query) else "sat"]
        if satisfies_c1(query):
            methods.append("fo")
        if nl_supported(query):
            methods.append("nl")
        for db in _workload(query, seed=0xF0, trials=3):
            answers = {m: engine.solve(db, query, method=m).answer for m in methods}
            assert len(set(answers.values())) == 1, (query, answers)


class TestBatchEqualsSequential:
    def _pairs(self):
        pairs = []
        for query, _ in CLASS_QUERIES:
            for db in _workload(query, seed=0xBA7C4, trials=2)[:3]:
                pairs.append((db, query))
        return pairs

    def test_solve_batch_matches_solve(self):
        pairs = self._pairs()
        engine = CertaintyEngine()
        sequential = [engine.solve(db, q) for db, q in pairs]
        batched = engine.solve_batch(pairs)
        assert [r.answer for r in batched] == [r.answer for r in sequential]
        assert [r.method for r in batched] == [r.method for r in sequential]

    def test_parallel_batch_matches_sequential(self):
        pairs = self._pairs()
        engine = CertaintyEngine()
        sequential = engine.solve_batch(pairs)
        parallel = engine.solve_batch(pairs, workers=2)
        assert [r.answer for r in parallel] == [r.answer for r in sequential]
        assert [r.method for r in parallel] == [r.method for r in sequential]
        assert engine.stats.parallel_batches == 1

    def test_batch_handles_mixed_query_objects(self):
        from repro.queries.generalized import GeneralizedPathQuery
        from repro.queries.path_query import PathQuery
        from repro.words.word import Word

        rng = random.Random(5)
        db = planted_instance(rng, "RRX", 4, n_paths=1, n_noise_facts=4)
        gq = GeneralizedPathQuery("RR", {1: 0})
        pairs = [
            (db, "RRX"),
            (db, Word("RRX")),
            (db, PathQuery("RRX")),
            (db, gq),
        ]
        engine = CertaintyEngine()
        results = engine.solve_batch(pairs)
        assert results[0].answer == results[1].answer == results[2].answer
        assert results[3].method == "generalized"
        # The three spellings of RRX share one compiled plan.
        assert engine.cache_info()["compiles"] <= 3


NL_QUERIES = [q for q, cls in PAPER_TABLE if cls == "NL-complete"]


def _nl_inputs(query):
    """Figure 2, planted and chain inputs, certain and non-certain."""
    rng = random.Random(0x4E4C + sum(map(ord, query)))
    instances = [figure2_instance()]
    for _ in range(6):
        instances.append(
            planted_instance(
                rng,
                query,
                rng.randint(2, 5),
                n_paths=rng.randint(1, 2),
                n_noise_facts=rng.randint(0, 6),
                conflict_rate=0.6,
            )
        )
    for repetitions in (1, 2, 3):
        instances.append(chain_instance(query, repetitions=repetitions))
    for repetitions in (1, 2):
        instances.append(
            chain_instance(query, repetitions=repetitions, conflict_every=1)
        )
    return [db for db in instances if count_repairs(db) <= REPAIR_LIMIT]


def _relabeled(db):
    """*db* with every constant ``c`` renamed to ``(c, "t")``, or to
    ``(c,)`` when ``c`` is odd: an injective renaming onto tuple
    constants of two shapes."""
    def rename(c):
        return (c,) if isinstance(c, int) and c % 2 else (c, "t")

    return DatabaseInstance(
        Fact(f.relation, rename(f.key), rename(f.value)) for f in db.facts
    )


class TestNlAutoRoute:
    """``auto`` decides NL-complete queries with the Figure 5 fixpoint.

    C2 ⊆ C3 (Proposition 1) and ``N`` is exact under C3 (Lemma 7), so the
    fixpoint must agree with the Claim 5 program (``method="nl"``) and
    with brute force on every input.
    """

    @pytest.mark.parametrize("query", NL_QUERIES)
    def test_auto_equals_nl_and_brute_force(self, query):
        engine = CertaintyEngine()
        inputs = _nl_inputs(query)
        answers = set()
        for db in inputs:
            auto = engine.solve(db, query)
            assert auto.method == "fixpoint"
            truth = certain_answer_brute_force(db, query).answer
            assert auto.answer == truth, (query, db)
            assert engine.solve(db, query, method="nl").answer == truth
            # Renamed constants (ints and tuples mixed) change no answer.
            relabeled = _relabeled(db)
            assert (
                engine.solve(relabeled, query, method="nl").answer
                == engine.solve(relabeled, query).answer
                == truth
            )
            if not auto.answer:
                assert auto.falsifying_repair.is_repair_of(db)
            answers.add(truth)
        # Both outcomes occur, so neither branch is vacuous.
        assert answers == {True, False}


@pytest.mark.slow
class TestEngineDifferentialSweep:
    """Larger randomized sweep, excluded from the CI fast lane."""

    @pytest.mark.parametrize("query,_cls", CLASS_QUERIES)
    def test_wide_sweep(self, query, _cls):
        engine = CertaintyEngine()
        for db in _workload(query, seed=0x51EE9, trials=25):
            truth = certain_answer_brute_force(db, query).answer
            assert engine.solve(db, query).answer == truth
