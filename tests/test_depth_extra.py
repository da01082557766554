"""Additional depth tests: engine cross-checks, D/C degeneration, and
exhaustive structural checks over short words."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.classification.conditions import (
    satisfies_c1,
    satisfies_c2,
    satisfies_c3,
)
from repro.classification.generalized import (
    satisfies_d1,
    satisfies_d2,
    satisfies_d3,
)
from repro.datalog.engine import (
    _evaluate_rule,
    evaluate_program,
    evaluate_program_naive,
)
from repro.datalog.stratify import is_linear, stratify
from repro.datalog.syntax import Literal, Program, Rule, var
from repro.datalog.cqa_program import build_cqa_program, split_query
from repro.queries.generalized import GeneralizedPathQuery, TerminalWord
from repro.words.word import Word

words = st.text(alphabet="RSX", max_size=7).map(Word)


class TestDConditionsDegenerate:
    """With γ = ⊤, D1/D2/D3 must equal C1/C2/C3 exactly."""

    @settings(max_examples=150, deadline=None)
    @given(words)
    def test_equalities(self, w):
        terminal = TerminalWord(w, None)
        assert satisfies_d1(terminal) == satisfies_c1(w)
        assert satisfies_d2(terminal) == satisfies_c2(w)
        assert satisfies_d3(terminal) == satisfies_c3(w)

    @settings(max_examples=80, deadline=None)
    @given(words)
    def test_constant_free_query_objects(self, w):
        q = GeneralizedPathQuery(w)
        assert satisfies_d1(q) == satisfies_c1(w)
        assert satisfies_d3(q) == satisfies_c3(w)


class TestEngineAgainstNaive:
    """The compact engine must agree with the scan-and-unify reference
    :func:`evaluate_program_naive`, and both with plain (not semi-naive)
    bottom-up iteration."""

    def _naive(self, program, edb):
        relations = {
            predicate: {tuple(row) for row in rows}
            for predicate, rows in edb.items()
        }
        for predicate in program.idb_predicates() | program.edb_predicates():
            relations.setdefault(predicate, set())
        for stratum in stratify(program):
            rules = [r for r in program.rules if r.head.predicate in stratum]
            changed = True
            while changed:
                changed = False
                for rule in rules:
                    derived = _evaluate_rule(rule, relations)
                    fresh = derived - relations[rule.head.predicate]
                    if fresh:
                        relations[rule.head.predicate] |= fresh
                        changed = True
        return relations

    def test_random_graph_programs(self, rng):
        x, y, z = var("X"), var("Y"), var("Z")
        program = Program(
            [
                Rule(Literal("reach", (x, y)), (Literal("edge", (x, y)),)),
                Rule(
                    Literal("reach", (x, z)),
                    (Literal("reach", (x, y)), Literal("edge", (y, z))),
                ),
                Rule(Literal("node", (x,)), (Literal("edge", (x, y)),)),
                Rule(Literal("node", (y,)), (Literal("edge", (x, y)),)),
                Rule(
                    Literal("unreached", (x, y)),
                    (
                        Literal("node", (x,)),
                        Literal("node", (y,)),
                        Literal("reach", (x, y), negated=True),
                    ),
                ),
            ]
        )
        for _ in range(15):
            n = rng.randint(2, 6)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 10))
            ]
            edb = {"edge": edges}
            reference = evaluate_program_naive(program, edb)
            assert evaluate_program(program, edb) == reference
            assert reference == self._naive(program, edb)

    def test_cqa_program_on_random_instances(self, rng):
        """The generated Claim 5 program: engine == reference == naive."""
        from repro.datalog.cqa_program import instance_to_edb
        from repro.workloads.generators import random_instance

        program = build_cqa_program("RRX").program
        for _ in range(10):
            db = random_instance(rng, 4, rng.randint(2, 10), ("R", "X"), 0.5)
            edb = instance_to_edb(db)
            reference = evaluate_program_naive(program, edb)
            assert evaluate_program(program, edb) == reference
            assert reference == self._naive(program, edb)


class TestExhaustiveProgramStructure:
    def test_all_short_c2_programs_linear_and_stratified(self):
        """Lemma 14's syntactic promise, exhaustively up to length 5."""
        for n in range(2, 6):
            for combo in itertools.product("RX", repeat=n):
                q = "".join(combo)
                if not satisfies_c2(q) or satisfies_c1(q):
                    continue
                if split_query(q) is None:
                    continue
                program = build_cqa_program(q).program
                assert is_linear(program), q
                assert stratify(program), q

    def test_split_head_tail_partition(self):
        for n in range(2, 6):
            for combo in itertools.product("RX", repeat=n):
                q = "".join(combo)
                parts = split_query(q)
                if parts is None:
                    continue
                assert parts.head + parts.tail == Word(q)
                assert len(parts.cycle) >= 1
