"""The compact integer data plane: kernels must equal the object plane.

Differential coverage for the array-backed execution representation:

* no process-wide table grows with the constants solves and deltas
  meet, on any route (ids are per-view local ids);
* :class:`~repro.db.compact.CompactInstance` -- the view built fresh
  and the view carried forward by O(delta) ``patched`` commits must
  describe the same instance (same adjacency, same live domain);
* :func:`~repro.solvers.fixpoint.fixpoint_bits` (compact kernel) ==
  :func:`~repro.solvers.fixpoint.fixpoint_relation` (object baseline)
  across all four Theorem 2 complexity classes and random instances;
* :func:`~repro.datalog.engine.evaluate_program` (the compact engine)
  == :func:`~repro.datalog.engine.evaluate_program_naive` on the Claim 5
  programs over planted and randomly grown instances, and on
  handwritten programs with constants, builtins, and negation through
  recursion;
* ``solve_delta`` update sequences and direct
  :class:`~repro.solvers.fixpoint.FixpointState` maintenance on the
  compact representation (the compact view being patched along the
  update chain, never recompiled);
* dense automata tables (:meth:`NFA.dense`, :meth:`DFA.dense_tables`)
  agreeing with the object-level semantics;
* the satellite contracts: ``Block.presorted``, instance pickling
  without the compact cache, lazy certificates surviving pickling
  unresolved, and ``CertaintyResult.strip``.
"""

import gc
import itertools
import pickle
import random
import tracemalloc

import pytest

from repro.automata.dfa import DFA
from repro.automata.query_nfa import query_nfa, query_nfa_dense
from repro.datalog.cqa_program import build_cqa_program, instance_to_edb
from repro.datalog.engine import (
    compact_program,
    evaluate_program,
    evaluate_program_naive,
)
from repro.datalog.syntax import Literal, Program, Rule, var
from repro.db.compact import CompactInstance
from repro.db.delta import Delta, DeltaInstance
from repro.db.facts import Fact
from repro.db.instance import Block, DatabaseInstance
from repro.engine import CertaintyEngine
from repro.solvers.fixpoint import (
    FixpointState,
    fixpoint_bits,
    fixpoint_relation,
)
from repro.solvers.result import CertaintyResult, LazyMinimalRepair
from repro.workloads.generators import (
    chain_instance,
    planted_instance,
    random_instance,
)

#: Two queries per Theorem 2 complexity class (as in the engine tests).
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


def decoded_edges(view):
    """The view's adjacency decoded to (relation, key, value) triples."""
    triples = set()
    for relation in view.relations:
        rows = view.out[relation]
        for key_lid, values in enumerate(rows):
            for value_lid in values:
                triples.add(
                    (relation, view.consts[key_lid], view.consts[value_lid])
                )
    return triples


def assert_views_equivalent(patched, fresh):
    """Structural equivalence of a patched view and a fresh build."""
    assert decoded_edges(patched) == decoded_edges(fresh)
    live_patched = {patched.consts[lid] for lid in patched.alive_lids()}
    live_fresh = {fresh.consts[lid] for lid in fresh.alive_lids()}
    assert live_patched == live_fresh
    # In-adjacency and degrees agree with the out-adjacency.
    for view in (patched, fresh):
        for relation in view.relations:
            for key_lid, values in enumerate(view.out[relation]):
                assert view.out_deg[relation][key_lid] == len(values)
                for value_lid in values:
                    assert key_lid in view.in_[relation][value_lid]


def random_update(rng, db, alphabet, n_constants=7):
    """A random effective delta overlay over *db*."""
    overlay = DeltaInstance(db)
    facts = sorted(db.facts)
    for _ in range(rng.randint(1, 3)):
        if facts and rng.random() < 0.5:
            overlay.remove_fact(rng.choice(facts))
        else:
            overlay.insert_fact(
                Fact(
                    rng.choice(alphabet),
                    rng.randrange(n_constants + 3),
                    rng.randrange(n_constants + 3),
                )
            )
    return overlay


_FRESH_TAGS = itertools.count()


def fresh_chain(query, conflict_every=None):
    """``chain_instance`` relabeled onto constants no solve has seen."""
    tag = ("fresh", next(_FRESH_TAGS))
    return DatabaseInstance(
        Fact(f.relation, (tag, f.key), (tag, f.value))
        for f in chain_instance(
            query, repetitions=4, conflict_every=conflict_every
        ).facts
    )


class TestNoProcessWideGrowth:
    """Solves over ever-fresh constants leave no process-wide table larger.

    Every route (FO, the Figure 5 fixpoint, the coNP prefilter and SAT,
    and the forced Claim 5 Datalog route) numbers constants by a view's
    own local ids, so once an engine's bounded plan and state caches are
    warm, the memory a stream of solves and deltas retains stays flat.
    """

    #: One query per Theorem 2 class: FO, NL, PTIME, coNP.
    QUERIES = ("RXRX", "RRX", "RXRYRY", "ARRX")
    ROUNDS = 17  # 12 forced-nl solves a round: 204 measured

    @classmethod
    def _round(cls, engine, methods):
        for conflict_every in (None, 1, 3):
            for query in cls.QUERIES:
                db = fresh_chain(query, conflict_every)
                methods.add(engine.solve(db, query).method)
                tag = ("fresh-delta", next(_FRESH_TAGS))
                delta = Delta.inserting(
                    (query[0], (tag, 0), (tag, 1)),
                    (query[-1], (tag, 1), (tag, 2)),
                )
                methods.add(engine.solve_delta(db, delta, query).method)
                db = fresh_chain("RRX", conflict_every)
                methods.add(engine.solve(db, "RRX", method="nl").method)

    def test_solves_and_deltas_retain_nothing(self):
        engine = CertaintyEngine()
        methods = set()
        # A full collection empties the interpreter's tuple/list/dict
        # free lists; left filled by earlier code, they hand out blocks
        # allocated before tracing began, and as the warm caches turn
        # over those untraced blocks give way to traced ones, which reads
        # as growth that depends on what ran before this test.
        gc.collect()
        tracemalloc.start()
        try:
            # Warm-up: 144 solves and 72 deltas, which fill the 64-entry
            # state cache, whose later evictions trade like for like.
            for _ in range(6):
                self._round(engine, methods)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(self.ROUNDS):
                self._round(engine, methods)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert {"fo", "fixpoint", "sat", "fixpoint-prefilter", "nl"} <= methods
        assert growth <= 64 * 1024, "retained {} bytes".format(growth)


class TestCompactInstance:
    def test_build_matches_instance(self):
        db = DatabaseInstance.from_triples(
            [("R", 0, 1), ("R", 0, 2), ("X", 2, 0), ("R", 2, 2)]
        )
        view = db.compact()
        assert view.n == 3
        assert decoded_edges(view) == {f.as_triple() for f in db.facts}
        assert db.compact() is view  # cached on the instance

    def test_csr_offsets_are_block_counts(self):
        db = DatabaseInstance.from_triples(
            [("R", 0, 1), ("R", 0, 2), ("R", 1, 2)]
        )
        view = db.compact()
        block_keys, offsets, values = view.csr("R")
        counts = {
            view.consts[block_keys[i]]: offsets[i + 1] - offsets[i]
            for i in range(len(block_keys))
        }
        assert counts == {0: 2, 1: 1}
        assert len(values) == 3

    def test_patched_equals_fresh_build_random_chains(self):
        rng = random.Random(0xC0)
        alphabet = ["R", "X"]
        db = random_instance(rng, 7, 14, alphabet=alphabet)
        db.compact()  # warm, so commits patch instead of recompiling
        for _ in range(25):
            overlay = random_update(rng, db, alphabet)
            committed = overlay.commit()
            patched = committed.compact()
            assert_views_equivalent(
                patched, CompactInstance.build(committed)
            )
            db = committed

    def test_patched_constant_arrival_and_departure(self):
        db = DatabaseInstance.from_triples([("R", 0, 1)])
        db.compact()
        grown = Delta.inserting(("R", 1, 2)).apply_to(db).commit()
        view = grown.compact()
        assert {view.consts[l] for l in view.alive_lids()} == {0, 1, 2}
        shrunk = (
            Delta.removing(("R", 1, 2), ("R", 0, 1))
            .then_inserting(("X", 5, 6))
            .apply_to(grown)
            .commit()
        )
        view = shrunk.compact()
        assert {view.consts[l] for l in view.alive_lids()} == {5, 6}
        assert_views_equivalent(view, CompactInstance.build(shrunk))

    def test_compact_refuses_pickle_and_instance_drops_it(self):
        db = DatabaseInstance.from_triples([("R", 0, 1)])
        view = db.compact()
        with pytest.raises(TypeError):
            pickle.dumps(view)
        clone = pickle.loads(pickle.dumps(db))
        assert clone == db and clone.blocks()[0].facts == db.blocks()[0].facts


class TestCompactFixpointKernel:
    @pytest.mark.parametrize("query,_cls", CLASS_QUERIES)
    def test_kernel_agreement_all_classes(self, query, _cls):
        rng = random.Random(len(query) * 131)
        for trial in range(6):
            db = planted_instance(
                rng,
                query,
                n_constants=6,
                n_paths=2,
                n_noise_facts=12,
                conflict_rate=0.5,
            )
            assert fixpoint_bits(db, query).to_set() == fixpoint_relation(
                db, query
            ), (query, trial)

    def test_kernel_agreement_random_words(self):
        rng = random.Random(0xF1)
        for trial in range(60):
            word = "".join(
                rng.choice("RX") for _ in range(rng.randint(0, 5))
            )
            db = random_instance(rng, 6, 12, alphabet=["R", "X"])
            n = fixpoint_bits(db, word)
            assert n.to_set() == fixpoint_relation(db, word), (word, trial)
            assert len(n) == len(fixpoint_relation(db, word))

    def test_kernel_on_patched_views(self):
        """The kernel must be exact on views carried forward by commits
        (dead local ids keep no pairs; arrivals get init axioms)."""
        rng = random.Random(0xF2)
        db = random_instance(rng, 6, 12, alphabet=["R", "X"])
        db.compact()
        for _ in range(20):
            overlay = random_update(rng, db, ["R", "X"])
            db = overlay.commit()
            for query in ("RRX", "RXRX"):
                assert fixpoint_bits(db, query).to_set() == fixpoint_relation(
                    db, query
                )

    def test_empty_query_and_empty_instance(self):
        db = DatabaseInstance.from_triples([("R", 0, 1)])
        assert fixpoint_bits(db, "").to_set() == {(0, 0), (1, 0)}
        empty = DatabaseInstance.empty()
        assert fixpoint_bits(empty, "RRX").to_set() == set()


def _negation_program():
    """A recursive program with ``neq``, negation and constants."""
    x, y = var("X"), var("Y")
    return Program(
        [
            Rule(Literal("base", (x,)), (Literal("e", (x, y)),)),
            Rule(
                Literal("p", (x, y)),
                (
                    Literal("e", (x, y)),
                    Literal("neq", (x, "a")),
                    Literal("e", (y, "c"), negated=True),
                ),
            ),
            Rule(Literal("reach", (x, y)), (Literal("p", (x, y)),)),
            Rule(
                Literal("reach", (x, y)),
                (Literal("reach", (x, "b")), Literal("p", ("b", y))),
            ),
        ]
    )


def _planted_prefix_cases(query):
    """Claim 5 program on growing fact prefixes of planted instances."""
    rng = random.Random(0xDA7A + sum(map(ord, query)))
    program = build_cqa_program(query).program
    for _trial in range(4):
        db = planted_instance(
            rng, query, 6, n_paths=2, n_noise_facts=8, conflict_rate=0.5
        )
        facts = sorted(db.facts)
        for end in range(max(1, len(facts) - 4), len(facts) + 1):
            yield program, instance_to_edb(DatabaseInstance(facts[:end]))


def _random_insert_cases(query):
    """Claim 5 program on random instances grown by random inserts
    (fresh facts, duplicates and brand-new constants)."""
    rng = random.Random(0xC0DE + sum(map(ord, query)))
    program = build_cqa_program(query).program
    alphabet = sorted(set(query))
    for _trial in range(3):
        facts = set(
            random_instance(rng, 6, rng.randint(4, 16), alphabet, 0.5).facts
        )
        for _step in range(7):
            yield program, instance_to_edb(DatabaseInstance(facts))
            facts.update(
                Fact(rng.choice(alphabet), rng.randint(0, 7), rng.randint(0, 7))
                for _ in range(rng.randint(1, 3))
            )


def _negation_cases():
    """Stratified negation through recursion over random EDBs."""
    program = _negation_program()
    rng = random.Random(0x9E6)
    constants = "abcdefg"
    for _trial in range(4):
        edges = {
            (rng.choice(constants), rng.choice(constants)) for _ in range(6)
        }
        for _step in range(9):
            yield program, {"e": sorted(edges)}
            edges.update(
                (rng.choice(constants), rng.choice(constants))
                for _ in range(rng.randint(1, 2))
            )


#: Differential inputs for the compact engine, by case name.
DATALOG_CASES = {
    "negation-recursion": _negation_cases,
    **{
        "planted-prefixes-" + q: (lambda q=q: _planted_prefix_cases(q))
        for q in ("RRX", "RXRY", "UVUVWV")
    },
    **{
        "random-inserts-" + q: (lambda q=q: _random_insert_cases(q))
        for q, cls in CLASS_QUERIES
        if cls == "NL-complete"
    },
}


class TestCompactDatalog:
    """:func:`evaluate_program` (the compact engine) against the
    scan-and-unify :func:`evaluate_program_naive`."""

    @pytest.mark.parametrize("query", ["RRX", "RXRY", "UVUVWV"])
    def test_cqa_materializations_equal(self, query):
        rng = random.Random(len(query))
        cqa = build_cqa_program(query)
        for n_noise in (8, 20):
            db = planted_instance(
                rng,
                query,
                n_constants=7,
                n_paths=2,
                n_noise_facts=n_noise,
                conflict_rate=0.4,
            )
            edb = instance_to_edb(db)
            assert evaluate_program(
                cqa.program, edb
            ) == evaluate_program_naive(cqa.program, edb)

    @pytest.mark.parametrize("case", sorted(DATALOG_CASES))
    def test_matches_naive(self, case):
        for program, edb in DATALOG_CASES[case]():
            assert evaluate_program(program, edb) == evaluate_program_naive(
                program, edb
            ), edb

    def test_constants_builtins_negation(self):
        x, y = var("X"), var("Y")
        program = Program(
            [
                Rule(Literal("base", (x,)), (Literal("e", (x, y)),)),
                Rule(
                    Literal("p", (x, y)),
                    (
                        Literal("e", (x, y)),
                        Literal("neq", (x, "a")),
                        Literal("e", (y, "c"), negated=True),
                    ),
                ),
                Rule(
                    Literal("anchored", (x,)),
                    (Literal("e", ("a", x)),),
                ),
                Rule(
                    Literal("diag", (x,)),
                    (Literal("e", (x, x)),),
                ),
                Rule(
                    Literal("round_trip", (x,)),
                    (Literal("e", ("a", x)), Literal("e", (x, "a"))),
                ),
            ]
        )
        # Constants that compare unequal across types: 1, "1", (1,).
        mixed = Program(
            [
                Rule(Literal("hit", (x,)), (Literal("e", (1, x)),)),
                Rule(
                    Literal("hit", (x,)),
                    (Literal("e", (x, "1")), Literal("neq", (x, (1,)))),
                ),
                Rule(
                    Literal("tagged", ((1,), x, y)),
                    (
                        Literal("e", (x, y)),
                        Literal("e", (y, (1,)), negated=True),
                    ),
                ),
            ]
        )
        assert compact_program(mixed).constants == (1, "1", (1,))
        cases = [
            (program, [("a", "b"), ("b", "c"), ("c", "a"), ("d", "d"),
                       ("b", "b")]),
            # Rule constants "a" and "c" absent from the EDB.
            (program, [("b", "d"), ("d", "b"), ("d", "d")]),
            # "a" under both key and value positions.
            (program, [("a", "b"), ("b", "a"), ("a", "a"), ("a", "c"),
                       ("c", "a")]),
            (mixed, [(1, "1"), ("1", 1), (1, (1,)), ((1,), "1"),
                     ("1", "1"), (2, (1,)), ((1,), (1,))]),
            # 1 absent, "1" and (1,) only as values.
            (mixed, [(2, "1"), (3, (1,)), ("x", 2)]),
        ]
        for prog, rows in cases:
            edb = {"e": rows}
            assert evaluate_program(prog, edb) == evaluate_program_naive(
                prog, edb
            ), rows

    def test_compact_program_memoized(self):
        program = build_cqa_program("RRX").program
        assert compact_program(program) is compact_program(program)


class TestOverlaySolves:
    @pytest.mark.parametrize("method", ["fixpoint", "nl"])
    def test_uncommitted_overlay_solves_like_its_commit(self, method):
        base = chain_instance("RRX", repetitions=6, conflict_every=3)
        engine = CertaintyEngine()
        for fact in [("R", 0, 99), ("X", 2, 98)]:
            overlay = Delta.inserting(fact).apply_to(base)
            got = engine.solve(overlay, "RRX", method=method)
            want = engine.solve(overlay.commit(), "RRX", method=method)
            assert (got.answer, got.witness_constant) == (
                want.answer,
                want.witness_constant,
            ), fact


class TestSolveDeltaOnCompactPlane:
    @pytest.mark.parametrize("query,expected", CLASS_QUERIES)
    def test_delta_sequences_match_scratch(self, query, expected):
        rng = random.Random(len(query) * 17 + 1)
        alphabet = sorted(set(query))
        db = planted_instance(
            rng, query, n_constants=6, n_paths=2,
            n_noise_facts=10, conflict_rate=0.5,
        )
        engine = CertaintyEngine()
        assert str(engine.compile(query).complexity) == expected
        scratch = CertaintyEngine()
        db.compact()  # ensure the chain patches the compact view
        for step in range(8):
            overlay = random_update(rng, db, alphabet)
            delta = Delta(
                removes=tuple(overlay.removed_facts),
                inserts=tuple(overlay.added_facts),
            )
            incremental = engine.solve_delta(db, delta, query)
            db = delta.apply_to(db).commit()
            fresh = scratch.solve(db, query)
            assert incremental.answer == fresh.answer, (query, step)

    def test_fixpoint_state_maintenance_on_patched_views(self):
        rng = random.Random(0xD5)
        for query in ("RRX", "RXRYRY", "ARRX"):
            db = planted_instance(
                rng, query, n_constants=6, n_paths=2,
                n_noise_facts=10, conflict_rate=0.5,
            )
            db.compact()
            state = FixpointState.compute(db, query)
            for step in range(12):
                overlay = random_update(rng, db, sorted(set(query)))
                new_db = overlay.commit()
                state.apply_delta(
                    new_db, overlay.added_facts, overlay.removed_facts
                )
                assert state.n_set == fixpoint_relation(new_db, query), (
                    query,
                    step,
                )
                assert state.starts == {
                    c for c, length in state.n_set if length == 0
                }
                db = new_db


class TestDenseAutomata:
    @pytest.mark.parametrize("query", ["RRX", "RXRRR", "UVUVWV"])
    def test_dense_nfa_accepts_agrees(self, query):
        rng = random.Random(len(query) * 5)
        nfa = query_nfa(query)
        dense = query_nfa_dense(query)
        alphabet = sorted(nfa.alphabet) + ["Z"]
        for _ in range(80):
            word = [
                rng.choice(alphabet)
                for _ in range(rng.randint(0, 2 * len(query)))
            ]
            assert dense.accepts(word) == nfa.accepts(word), word

    def test_dense_symbol_numbering(self):
        dense = query_nfa_dense("RRX")
        assert dense.symbols == ("R", "X")
        assert dense.symbol_index == {"R": 0, "X": 1}
        assert len(dense.trans_masks) == len(dense.symbols)

    def test_dense_tables_match_transitions(self):
        dfa = DFA.from_nfa(query_nfa("RXRRR"))
        symbols, table, accepting = dfa.dense_tables()
        n_symbols = len(symbols)
        for state in range(dfa.n_states):
            assert accepting[state] == (state in dfa.accepting)
            for si, symbol in enumerate(symbols):
                expected = dfa.transitions.get((state, symbol), -1)
                assert table[state * n_symbols + si] == expected


class TestSatellites:
    def test_block_presorted_trusted_path(self):
        facts = tuple(sorted([Fact("R", 0, 2), Fact("R", 0, 1)]))
        block = Block.presorted(("R", 0), facts)
        assert block.facts == facts
        assert block == block and block.is_conflicting()
        # The regular constructor still validates and sorts.
        assert Block(("R", 0), reversed(facts)).facts == facts
        with pytest.raises(ValueError):
            Block(("R", 1), facts)

    def test_commit_blocks_equal_fresh_instance_blocks(self):
        base = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])
        overlay = DeltaInstance(base)
        overlay.insert_fact(Fact("R", 0, 9))
        overlay.insert_fact(Fact("R", 0, 0))
        committed = overlay.commit()
        fresh = DatabaseInstance(committed.facts)
        assert [b.facts for b in committed.blocks()] == [
            b.facts for b in fresh.blocks()
        ]

    def test_lazy_certificate_survives_pickling_unresolved(self):
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)])
        result = CertaintyResult(
            query="RRX",
            answer=False,
            method="fixpoint",
            falsifying_repair=LazyMinimalRepair(db, "RRX"),
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.has_lazy_repair  # not resolved at pickle time
        assert clone.falsifying_repair.is_repair_of(db)

    def test_opaque_lazy_certificate_resolved_at_pickle_time(self):
        db = DatabaseInstance.from_triples([("R", 0, 1)])
        result = CertaintyResult(
            query="q", answer=False, method="m",
            falsifying_repair=lambda: db,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert not clone.has_lazy_repair
        assert clone.falsifying_repair == db

    def test_strip_drops_certificates(self):
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)])
        result = CertaintyResult(
            query="RRX", answer=False, method="fixpoint",
            falsifying_repair=LazyMinimalRepair(db, "RRX"),
        )
        assert result.strip() is result
        assert result.falsifying_repair is None
        assert not result.has_lazy_repair

    def test_batch_strip_certificates_local_and_parallel(self):
        dbs = [
            chain_instance("RRX", repetitions=2),  # yes-instance
            DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)]),  # no
        ]
        engine = CertaintyEngine()
        pairs = [(db, "RRX") for db in dbs]
        answers = [r.answer for r in engine.solve_batch(pairs)]
        for workers in (None, 2):
            stripped = engine.solve_batch(
                pairs, workers=workers, strip_certificates=True
            )
            assert [r.answer for r in stripped] == answers
            assert all(r._repair_source is None for r in stripped)
        # Without stripping, parallel "no" results come back still lazy.
        kept = engine.solve_batch(pairs, workers=2)
        assert [r.answer for r in kept] == answers
        assert kept[answers.index(False)].has_lazy_repair
