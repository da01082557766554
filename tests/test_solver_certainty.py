"""Tests for the classification-driven front end and cross-solver agreement."""

import pytest

from repro.db.instance import DatabaseInstance
from repro.db.repairs import count_repairs
from repro.queries.generalized import GeneralizedPathQuery
from repro.queries.path_query import PathQuery
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.certainty import certain_answer
from repro.workloads.generators import planted_instance, random_instance
from repro.workloads.paper_instances import figure2_instance, figure3_instance

from tests.conftest import PAPER_TABLE


class TestDispatch:
    def test_method_names(self):
        db = figure2_instance()
        for method, expected_tag in [
            ("fixpoint", "fixpoint"),
            ("nl", "nl"),
            ("sat", "sat"),
            ("brute_force", "brute_force"),
        ]:
            result = certain_answer(db, "RRX", method=method)
            assert result.method == expected_tag
            assert result.answer

    def test_auto_uses_matching_method(self):
        db = figure2_instance()
        assert certain_answer(db, "RRX").method == "fixpoint"
        assert certain_answer(db, "RXRX").method == "fo"
        assert certain_answer(db, "RXRYRY").method == "fixpoint"
        conp = certain_answer(figure3_instance(), "ARRX")
        assert conp.method in ("sat", "fixpoint-prefilter")

    def test_conp_prefilter_short_circuits_no(self):
        result = certain_answer(figure3_instance(), "ARRX")
        assert not result.answer
        # The fixpoint prefilter cannot answer "no" here (it says yes
        # unsoundly), so the SAT solver must have run.
        assert result.method == "sat"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            certain_answer(figure2_instance(), "RRX", method="quantum")

    def test_fo_method_requires_c1(self):
        with pytest.raises(ValueError):
            certain_answer(figure2_instance(), "RRX", method="fo")

    def test_accepts_path_query_and_word(self):
        db = figure2_instance()
        assert certain_answer(db, PathQuery("RRX")).answer
        assert certain_answer(db, "RRX").answer

    def test_generalized_routes(self):
        q = GeneralizedPathQuery("RR", {2: 3})
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 3)])
        result = certain_answer(db, q)
        assert result.method == "generalized"
        assert result.answer

    def test_complexity_recorded(self):
        result = certain_answer(figure2_instance(), "RRX")
        assert result.details["complexity"] == "NL-complete"


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("query,_cls", PAPER_TABLE)
    def test_paper_queries_random_instances(self, query, _cls, rng):
        """The dispatched solver always matches brute force."""
        alphabet = sorted(set(query))
        for _ in range(25):
            db = random_instance(rng, 4, rng.randint(2, 10), alphabet, 0.5)
            if count_repairs(db) > 3000:
                continue
            expected = certain_answer_brute_force(db, query).answer
            assert certain_answer(db, query).answer == expected

    @pytest.mark.parametrize("query,_cls", PAPER_TABLE)
    def test_paper_queries_planted_instances(self, query, _cls, rng):
        for _ in range(15):
            db = planted_instance(
                rng, query, rng.randint(2, 6),
                n_paths=1, n_noise_facts=rng.randint(0, 8), conflict_rate=0.5,
            )
            if count_repairs(db) > 3000:
                continue
            expected = certain_answer_brute_force(db, query).answer
            assert certain_answer(db, query).answer == expected

    def test_consistent_instance_equals_satisfaction(self, rng):
        """On consistent instances, certainty = plain satisfaction."""
        from repro.db.evaluation import path_query_satisfied

        for _ in range(25):
            db = random_instance(rng, 4, rng.randint(2, 10), ("R", "X"), 0.0)
            assert db.is_consistent()
            for q in ("RRX", "RXRX"):
                assert certain_answer(db, q).answer == path_query_satisfied(q, db)

    def test_empty_instance_is_no(self):
        assert not certain_answer(DatabaseInstance.empty(), "R").answer
