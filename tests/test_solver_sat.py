"""Tests for the SAT solvers and the CAvSAT-style encoding.

The solver cases run twice: against the oracle's private reference DPLL
(``TestDpll``) and against ``solve_clauses``, the CDCL entry every
production route uses (``TestSolveClauses``).
"""

import itertools

import pytest

from repro.cnf.formula import random_ksat
from repro.db.evaluation import path_query_satisfied
from repro.db.instance import DatabaseInstance
from repro.db.repairs import count_repairs
from repro.solvers.brute_force import certain_answer_brute_force
from repro.scenarios.oracle import _dpll_solve
from repro.solvers.sat import solve_clauses
from repro.solvers.sat_encoding import (
    certain_answer_sat,
    encode_falsifying_repair,
)
from repro.workloads.generators import random_instance
from repro.workloads.paper_instances import figure2_instance, figure3_instance


class TestDpll:
    solve = staticmethod(_dpll_solve)

    def test_simple_sat(self):
        model = self.solve([[1, 2], [-1, 2], [1, -2]])
        assert model is not None
        assert model[1] or model[2]

    def test_simple_unsat(self):
        assert self.solve([[1], [-1]]) is None
        assert self.solve([[1, 2], [-1, 2], [1, -2], [-1, -2]]) is None

    def test_empty_formula_sat(self):
        assert self.solve([]) == {}

    def test_tautologies_dropped(self):
        assert self.solve([[1, -1]]) is not None

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            self.solve([[0]])

    def test_models_satisfy(self, rng):
        for _ in range(40):
            formula = random_ksat(rng.randint(3, 6), rng.randint(1, 15), 3, rng)
            clauses, numbering = formula.to_int_clauses()
            model = self.solve(clauses)
            if model is None:
                continue
            for clause in clauses:
                assert any(
                    (lit > 0) == model.get(abs(lit), False) for lit in clause
                )

    def test_against_truth_table(self, rng):
        for _ in range(50):
            formula = random_ksat(rng.randint(2, 4), rng.randint(1, 10), 2, rng)
            clauses, _ = formula.to_int_clauses()
            satisfiable = self.solve(clauses) is not None
            assert satisfiable == formula.brute_force_satisfiable()


class TestSolveClauses(TestDpll):
    solve = staticmethod(solve_clauses)


class TestEncoding:
    def test_block_clauses_present(self):
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)])
        clauses, var_fact = encode_falsifying_repair(db, "R")
        assert len(var_fact) == 2
        # one at-least-one clause + one blocking clause per fact.
        assert [1, 2] in clauses or [2, 1] in clauses

    def test_figure_instances(self):
        assert certain_answer_sat(figure2_instance(), "RRX").answer
        result = certain_answer_sat(figure3_instance(), "ARRX")
        assert not result.answer
        assert result.falsifying_repair is not None
        assert not path_query_satisfied("ARRX", result.falsifying_repair)

    @pytest.mark.parametrize("q", ["RRX", "ARRX", "RXRXRYRY", "RXRYRY"])
    def test_differential(self, q, rng):
        for _ in range(30):
            db = random_instance(rng, 4, rng.randint(2, 10), sorted(set(q)), 0.5)
            if count_repairs(db) > 4000:
                continue
            expected = certain_answer_brute_force(db, q).answer
            result = certain_answer_sat(db, q)
            assert result.answer == expected
            if not result.answer:
                assert result.falsifying_repair.is_repair_of(db)
                assert not path_query_satisfied(q, result.falsifying_repair)

    def test_generalized_query_encoding(self, rng):
        from repro.queries.generalized import GeneralizedPathQuery

        q = GeneralizedPathQuery("RS", {2: 1})
        for _ in range(20):
            db = random_instance(rng, 3, rng.randint(2, 8), ("R", "S"), 0.5)
            expected = certain_answer_brute_force(db, q).answer
            assert certain_answer_sat(db, q).answer == expected
