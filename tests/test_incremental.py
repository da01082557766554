"""The incremental execution layer: delta solves must equal from-scratch.

Two levels are pinned differentially across randomized update
sequences:

* :class:`FixpointState` -- the maintained Figure 5 relation ``N`` must
  equal a fresh :func:`fixpoint_relation` run after every delta
  (inserts, removes, constants arriving/leaving the domain);
* ``CertaintyEngine.solve_delta`` -- answers must equal ``solve`` on the
  updated instance for queries from all four Theorem 2 complexity
  classes, including the C3-violating (coNP) fallback through the sound
  pre-filter plus full SAT re-solve.
"""

import random
import sys
import threading

import pytest

from repro.datalog.cqa_program import build_cqa_program, instance_to_edb
from repro.datalog.engine import evaluate_program, evaluate_program_naive
from repro.db.delta import Delta, DeltaInstance
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.db.repairs import count_repairs
from repro.engine import CertaintyEngine
from repro.queries.generalized import GeneralizedPathQuery
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.fixpoint import (
    FixpointState,
    certain_answer_incremental,
    fixpoint_relation,
)
from repro.solvers.sat_encoding import (
    IncrementalSatContext,
    certain_answer_sat,
)
from repro.workloads.generators import (
    chain_instance,
    hardness_gadget_instance,
    random_instance,
)
from repro.workloads.paper_instances import figure3_instance

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


def random_update(rng, db, alphabet, n_constants=6):
    """A random effective single-step delta over *db*."""
    overlay = DeltaInstance(db)
    for _ in range(rng.randint(1, 3)):
        current = sorted(overlay.facts)
        if current and rng.random() < 0.45:
            overlay.remove_fact(rng.choice(current))
        else:
            overlay.insert_fact(
                Fact(
                    rng.choice(alphabet),
                    rng.randint(0, n_constants - 1),
                    rng.randint(0, n_constants - 1),
                )
            )
    return overlay


class TestFixpointStateDifferential:
    @pytest.mark.parametrize("query,_cls", CLASS_QUERIES)
    def test_apply_delta_matches_fresh_relation(self, query, _cls):
        rng = random.Random(0x1DC + sum(map(ord, query)))
        alphabet = sorted(set(query))
        for trial in range(6):
            db = random_instance(rng, 5, rng.randint(2, 14), alphabet, 0.5)
            state = FixpointState.compute(db, query)
            for _step in range(8):
                overlay = random_update(rng, state.db, alphabet)
                new_db = overlay.commit()
                state.apply_delta(
                    new_db, overlay.added_facts, overlay.removed_facts
                )
                assert state.n_set == fixpoint_relation(new_db, query), (
                    query,
                    trial,
                    new_db,
                )

    def test_incremental_answer_carries_certificates(self):
        db = DatabaseInstance.from_triples(
            [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)]
        )
        state = FixpointState.compute(db, "RRX")
        result = certain_answer_incremental(state)
        assert result.answer is True
        assert result.method == "fixpoint-incremental"
        assert result.witness_constant == 0
        # Break the path: the falsifying repair certificate must appear.
        overlay = DeltaInstance(db)
        overlay.remove_fact(Fact("X", 2, 3))
        new_db = overlay.commit()
        state.apply_delta(new_db, overlay.added_facts, overlay.removed_facts)
        result = certain_answer_incremental(state)
        assert result.answer is False
        assert result.falsifying_repair is not None
        assert result.falsifying_repair.is_repair_of(new_db)

    def test_empty_query_state(self):
        db = DatabaseInstance.from_triples([("R", 0, 1)])
        state = FixpointState.compute(db, "")
        overlay = DeltaInstance(db)
        overlay.insert_fact(Fact("R", 5, 6))
        new_db = overlay.commit()
        state.apply_delta(new_db, overlay.added_facts, overlay.removed_facts)
        assert state.n_set == fixpoint_relation(new_db, "")

    def test_domain_churn(self):
        """Constants leaving and re-entering adom keep N exact."""
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])
        state = FixpointState.compute(db, "RR")
        steps = [
            Delta.removing(("R", 1, 2)),          # 2 leaves adom
            Delta.inserting(("R", 1, 2)),          # 2 returns
            Delta.removing(("R", 0, 1), ("R", 1, 2)),  # everything gone
            Delta.inserting(("R", 7, 8), ("R", 8, 9)),  # new component
        ]
        for delta in steps:
            overlay = delta.apply_to(state.db)
            new_db = overlay.commit()
            state.apply_delta(
                new_db, overlay.added_facts, overlay.removed_facts
            )
            assert state.n_set == fixpoint_relation(new_db, "RR")


class TestMaintainedWitness:
    """The cached str-least start must equal a rescan after every step."""

    @pytest.mark.parametrize("query,_cls", CLASS_QUERIES)
    def test_witness_is_least_start(self, query, _cls):
        rng = random.Random(0x3A1 + sum(map(ord, query)))
        alphabet = sorted(set(query))
        for _trial in range(4):
            # 12 constants: "10" and "11" sort before "2" by str.
            db = random_instance(rng, 12, rng.randint(4, 16), alphabet, 0.4)
            state = FixpointState.compute(db, query)
            for _step in range(12):
                overlay = random_update(rng, state.db, alphabet, 12)
                new_db = overlay.commit()
                state.apply_delta(
                    new_db, overlay.added_facts, overlay.removed_facts
                )
                witness = state.witness
                if not state.starts:
                    assert witness is None
                    continue
                assert witness in state.starts
                assert str(witness) == min(map(str, state.starts))


class TestDatalogResume:
    """Claim 5 programs on random instances: :func:`evaluate_program`
    equals the scan-and-unify reference (the Datalog evaluator keeps no
    state across updates, so cold evaluation is all there is to pin)."""

    NL_QUERIES = ["RRX", "RXRY", "UVUVWV"]

    @pytest.mark.parametrize("query", NL_QUERIES)
    def test_indexed_equals_naive(self, query):
        rng = random.Random(0x1DE + sum(map(ord, query)))
        cqa = build_cqa_program(query)
        for _ in range(6):
            db = random_instance(
                rng, 5, rng.randint(3, 18), sorted(set(query)), 0.5
            )
            edb = instance_to_edb(db)
            assert evaluate_program(cqa.program, edb) == (
                evaluate_program_naive(cqa.program, edb)
            )


class TestSolveDeltaDifferential:
    @pytest.mark.parametrize("query,expected_class", CLASS_QUERIES)
    def test_solve_delta_matches_solve(self, query, expected_class):
        rng = random.Random(0x5D17 + sum(map(ord, query)))
        alphabet = sorted(set(query))
        engine = CertaintyEngine()
        reference = CertaintyEngine()
        assert str(engine.compile(query).complexity) == expected_class
        for trial in range(4):
            db = random_instance(rng, 5, rng.randint(2, 12), alphabet, 0.5)
            for _step in range(6):
                overlay = random_update(rng, db, alphabet)
                delta = Delta(
                    removes=tuple(sorted(overlay.removed_facts)),
                    inserts=tuple(sorted(overlay.added_facts)),
                )
                result = engine.solve_delta(db, delta, query)
                new_db = delta.apply_to(db).commit()
                expected = reference.solve(new_db, query)
                assert result.answer == expected.answer, (
                    query,
                    trial,
                    result.method,
                    new_db,
                )
                db = new_db
        # The update stream must be served mostly incrementally.
        assert engine.stats.delta_solves == 4 * 6
        assert engine.stats.incremental_hits > 0
        if expected_class != "coNP-complete":
            # One full solve per fresh instance; the rest are hits.
            assert engine.stats.incremental_hits >= 4 * 6 - 4 - 2

    def test_conp_fallback_is_flagged(self):
        """A C3-violating query that survives the pre-filter re-solves
        via SAT, and the result says so."""
        engine = CertaintyEngine()
        # Figure 3 flavor: ARRX on a fixpoint-yes instance.
        db = DatabaseInstance.from_triples(
            [("A", "a", "b"), ("R", "b", "c"), ("R", "c", "d"), ("X", "d", "e")]
        )
        delta = Delta.inserting(("R", "b", "b"))
        result = engine.solve_delta(db, delta, "ARRX")
        reference = CertaintyEngine().solve(
            delta.apply_to(db).commit(), "ARRX"
        )
        assert result.answer == reference.answer
        if result.method == "sat":
            assert result.details.get("prefilter") == "fixpoint-incremental-yes"

    def test_incremental_stats_and_details(self):
        engine = CertaintyEngine()
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])
        first = engine.solve_delta(db, Delta.inserting(("R", 2, 3)), "RRX")
        assert first.details["incremental"] is False
        assert engine.stats.full_resolves == 1
        db2 = Delta.inserting(("R", 2, 3)).apply_to(db).commit()
        second = engine.solve_delta(db2, Delta.inserting(("R", 0, 9)), "RRX")
        assert second.details["incremental"] is True
        assert second.method == "fixpoint-incremental"
        assert engine.stats.incremental_hits == 1
        assert engine.stats.delta_solves == 2

    def test_overlay_argument(self):
        engine = CertaintyEngine()
        db = DatabaseInstance.from_triples([("R", 0, 1)])
        overlay = DeltaInstance(db)
        overlay.insert_fact(Fact("R", 1, 2))
        result = engine.solve_delta(db, overlay, "RR")
        assert result.answer == CertaintyEngine().solve(
            overlay.commit(), "RR"
        ).answer
        with pytest.raises(ValueError):
            engine.solve_delta(
                DatabaseInstance.empty(), overlay, "RR"
            )

    def test_forced_method_falls_back_to_full(self):
        engine = CertaintyEngine()
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])
        result = engine.solve_delta(
            db, Delta.inserting(("R", 2, 3)), "RRX", method="fixpoint"
        )
        assert result.method == "fixpoint"
        assert result.details["incremental"] is False
        assert engine.stats.full_resolves == 1
        assert engine.stats.incremental_hits == 0

    def test_generalized_query_full_solve(self):
        from repro.queries.generalized import GeneralizedPathQuery

        engine = CertaintyEngine()
        db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])
        gq = GeneralizedPathQuery("RR", {1: 0})
        result = engine.solve_delta(db, Delta.inserting(("R", 2, 3)), gq)
        reference = CertaintyEngine().solve(
            Delta.inserting(("R", 2, 3)).apply_to(db).commit(), gq
        )
        assert result.answer == reference.answer
        assert result.details["incremental"] is False


class TestSolveBatchIter:
    def _pairs(self, n=8):
        rng = random.Random(0xBA7)
        pairs = []
        for query, _cls in CLASS_QUERIES[:4]:
            for _ in range(n // 4):
                pairs.append(
                    (
                        random_instance(
                            rng, 4, 8, sorted(set(query)), 0.5
                        ),
                        query,
                    )
                )
        return pairs

    def test_sequential_stream_matches_batch(self):
        pairs = self._pairs()
        engine = CertaintyEngine()
        batch = engine.solve_batch(pairs)
        streamed = list(engine.solve_batch_iter(pairs))
        assert [i for i, _ in streamed] == list(range(len(pairs)))
        assert [r.answer for _, r in streamed] == [r.answer for r in batch]
        assert [r.method for _, r in streamed] == [r.method for r in batch]

    def test_sequential_stream_is_lazy(self):
        pairs = self._pairs()
        engine = CertaintyEngine()
        iterator = engine.solve_batch_iter(pairs)
        solves_before = engine.stats.solves
        index, _result = next(iterator)
        assert index == 0
        # Only the first instance has been solved so far.
        assert engine.stats.solves == solves_before + 1
        iterator.close()

    def test_parallel_stream_matches_sequential(self):
        pairs = self._pairs()
        engine = CertaintyEngine()
        expected = engine.solve_batch(pairs)
        streamed = sorted(engine.solve_batch_iter(pairs, workers=2))
        assert [i for i, _ in streamed] == list(range(len(pairs)))
        assert [r.answer for _, r in streamed] == [
            r.answer for r in expected
        ]
        assert engine.stats.parallel_batches == 1


@pytest.mark.slow
class TestIncrementalSweep:
    """Longer randomized update sequences, excluded from the fast lane."""

    @pytest.mark.parametrize("query,_cls", CLASS_QUERIES)
    def test_long_update_streams(self, query, _cls):
        rng = random.Random(0x10F6 + sum(map(ord, query)))
        alphabet = sorted(set(query))
        engine = CertaintyEngine()
        reference = CertaintyEngine()
        db = random_instance(rng, 6, 10, alphabet, 0.5)
        for _step in range(40):
            overlay = random_update(rng, db, alphabet, n_constants=7)
            delta = Delta(
                removes=tuple(sorted(overlay.removed_facts)),
                inserts=tuple(sorted(overlay.added_facts)),
            )
            result = engine.solve_delta(db, delta, query)
            db = delta.apply_to(db).commit()
            assert result.answer == reference.solve(db, query).answer


class TestIncrementalSatDifferential:
    """Assumption-based SAT reuse against from-scratch encodings."""

    @pytest.mark.parametrize("query", ["ARRX", "RXRXRYRY"])
    def test_random_chains_match_fresh_sat(self, query):
        rng = random.Random(0x5A7 + sum(map(ord, query)))
        alphabet = sorted(set(query))
        for trial in range(3):
            db = random_instance(rng, 5, rng.randint(3, 12), alphabet, 0.5)
            ctx = IncrementalSatContext(db, query)
            assert (
                ctx.solve().answer == certain_answer_sat(db, query).answer
            )
            for _step in range(6):
                overlay = random_update(rng, db, alphabet)
                new_db = overlay.commit()
                ctx.apply_delta(
                    new_db, overlay.added_facts, overlay.removed_facts
                )
                got = ctx.solve()
                want = certain_answer_sat(new_db, query)
                assert got.answer == want.answer, (query, trial, new_db)
                if not got.answer:
                    assert got.falsifying_repair.is_repair_of(new_db)
                db = new_db

    def test_figure3_chain(self):
        """The paper's Figure 3 instance under edits around the fork."""
        db = figure3_instance()
        ctx = IncrementalSatContext(db, "ARRX")
        assert ctx.solve().answer == certain_answer_sat(db, "ARRX").answer
        rng = random.Random(0xF13)
        for _step in range(8):
            overlay = random_update(rng, db, ("A", "R", "X"))
            new_db = overlay.commit()
            ctx.apply_delta(
                new_db, overlay.added_facts, overlay.removed_facts
            )
            assert (
                ctx.solve().answer
                == certain_answer_sat(new_db, "ARRX").answer
            ), new_db
            db = new_db
        # The chain must actually have reused loaded clause groups.
        assert ctx.last_reused > 0

    def test_gadget_family_ground_truth(self):
        """Scaled hardness gadgets: provable answers, then delta chains."""
        rng = random.Random(0xF16)
        for n_branches, n_straight in [(3, 0), (3, 1), (4, 2), (4, 0)]:
            db = hardness_gadget_instance(rng, n_branches, n_straight)
            ctx = IncrementalSatContext(db, "ARRX")
            result = ctx.solve()
            assert result.answer is (n_straight >= 1), (
                n_branches,
                n_straight,
            )
            if not result.answer:
                assert result.falsifying_repair.is_repair_of(db)
            for _step in range(4):
                overlay = random_update(rng, db, ("A", "R", "X"))
                new_db = overlay.commit()
                ctx.apply_delta(
                    new_db, overlay.added_facts, overlay.removed_facts
                )
                assert (
                    ctx.solve().answer
                    == certain_answer_sat(new_db, "ARRX").answer
                ), (n_branches, n_straight, new_db)
                db = new_db


class TestGeneralizedDeltaDifferential:
    """Maintained Section 8 states against cold generalized solves."""

    GQ = [
        GeneralizedPathQuery("RR", {0: 0}),       # pure Lemma 27 segment
        GeneralizedPathQuery("RX", {2: 1}),       # ext(q), C3 inner word
        GeneralizedPathQuery("RXRYRY", {0: 0}),   # PTIME segment check
        GeneralizedPathQuery("ARRX", {4: 1}),     # ext(q), coNP inner word
    ]

    @pytest.mark.parametrize("gq", GQ, ids=str)
    def test_chain_matches_cold_solve(self, gq):
        rng = random.Random(0x6E2 + sum(map(ord, str(gq))))
        alphabet = sorted(set(str(gq.word)))
        engine = CertaintyEngine()
        for trial in range(3):
            db = random_instance(rng, 5, rng.randint(3, 12), alphabet, 0.5)
            warm = 0
            for _step in range(6):
                overlay = random_update(rng, db, alphabet)
                delta = Delta(
                    removes=tuple(sorted(overlay.removed_facts)),
                    inserts=tuple(sorted(overlay.added_facts)),
                )
                result = engine.solve_delta(db, delta, gq)
                new_db = delta.apply_to(db).commit()
                cold = CertaintyEngine().solve(new_db, gq)
                assert result.answer == cold.answer, (
                    str(gq),
                    trial,
                    new_db,
                )
                assert result.method == "generalized"
                if result.details.get("incremental"):
                    warm += 1
                db = new_db
            # Only the first step of each chain pays a full compute.
            assert warm >= 5, (str(gq), trial, warm)
        assert engine.stats.incremental_hits > 0


def _noop_overlay(db, fact):
    """An overlay that inserts then removes *fact*: no effective edit."""
    overlay = DeltaInstance(db)
    overlay.insert_fact(fact)
    overlay.remove_fact(fact)
    return overlay


class _CallCounter:
    """Counts IncrementalSatContext.solve and FixpointState.compute."""

    def __init__(self, monkeypatch):
        self.sat = 0
        self.compute = 0
        solve = IncrementalSatContext.solve
        compute = FixpointState.__dict__["compute"].__func__

        def counted_solve(ctx):
            self.sat += 1
            return solve(ctx)

        def counted_compute(cls, *args, **kwargs):
            self.compute += 1
            return compute(cls, *args, **kwargs)

        monkeypatch.setattr(IncrementalSatContext, "solve", counted_solve)
        monkeypatch.setattr(
            FixpointState, "compute", classmethod(counted_compute)
        )

    def calls(self):
        return self.sat, self.compute


class TestStoredAnswers:
    """A read with no effective edit returns the answer stored on the
    maintained state; every effective edit recomputes."""

    CASES = [
        pytest.param("RXRX", lambda: chain_instance("RXRX", 2, 3), id="FO"),
        pytest.param("RRX", lambda: chain_instance("RRX", 2, 3), id="NL"),
        pytest.param(
            "RXRYRY", lambda: chain_instance("RXRYRY", 1, 2), id="PTIME"
        ),
        pytest.param(
            "ARRX", lambda: chain_instance("ARRX", 2), id="coNP-chain"
        ),
        pytest.param("ARRX", figure3_instance, id="coNP-figure3"),
        pytest.param(
            GeneralizedPathQuery("ARRX", {4: 1}),
            lambda: DatabaseInstance.from_triples(
                [("A", 0, 2), ("R", 2, 3), ("R", 3, 4), ("X", 4, 1),
                 ("R", 2, 5)]
            ),
            id="generalized",
        ),
    ]

    @pytest.mark.parametrize("query,make_db", CASES)
    def test_interleaved_reads_and_edits(self, query, make_db, monkeypatch):
        rng = random.Random(0x570 + sum(map(ord, str(query))))
        db = make_db()
        alphabet = sorted(set(str(getattr(query, "word", query))))
        engine = CertaintyEngine()
        counter = _CallCounter(monkeypatch)
        seen = [db]
        reads = 0
        for step in range(40):
            kind = rng.choice(["read", "read", "edit", "noop", "return"])
            if kind == "read":
                arg, new_db = Delta(), db
            elif kind == "noop":
                if db.facts and rng.random() < 0.5:
                    # Remove-then-insert of a present fact.
                    fact = rng.choice(sorted(db.facts))
                    arg = Delta(removes=(fact,), inserts=(fact,))
                else:
                    fresh = Fact(alphabet[0], 9_000 + step, 9_001 + step)
                    arg = _noop_overlay(db, fresh)
                new_db = db
            elif kind == "edit":
                overlay = random_update(rng, db, alphabet)
                arg = Delta(
                    removes=tuple(sorted(overlay.removed_facts)),
                    inserts=tuple(sorted(overlay.added_facts)),
                )
                new_db = arg.apply_to(db).commit()
            else:
                earlier = rng.choice(seen)
                arg = Delta(
                    removes=tuple(sorted(db.facts - earlier.facts)),
                    inserts=tuple(sorted(earlier.facts - db.facts)),
                )
                new_db = arg.apply_to(db).commit()
                assert new_db == earlier
            before = counter.calls()
            result = engine.solve_delta(db, arg, query)
            if new_db is db and step > 0:
                reads += 1
                assert counter.calls() == before, (kind, step)
                assert result.details["incremental"] is True
            expected = CertaintyEngine().solve(new_db, query)
            assert result.answer == expected.answer, (kind, step, new_db)
            if count_repairs(new_db) <= 512:
                brute = certain_answer_brute_force(new_db, query)
                assert result.answer == brute.answer, (kind, step, new_db)
            if not result.answer and result.falsifying_repair is not None:
                assert result.falsifying_repair.is_repair_of(new_db)
            db = new_db
            seen.append(db)
        assert reads > 5
        stats = engine.stats
        assert stats.delta_solves == 40
        assert (
            stats.delta_solves == stats.incremental_hits + stats.full_resolves
        )

    @pytest.mark.parametrize(
        "query,db",
        [
            ("RRX", chain_instance("RRX", 3, conflict_every=1)),
            ("ARRX", figure3_instance()),
        ],
        ids=["fixpoint-no", "sat-no"],
    )
    def test_strip_leaves_the_next_reads_certificate(self, query, db):
        engine = CertaintyEngine()
        first = engine.solve_delta(db, Delta(), query)
        second = engine.solve_delta(db, Delta(), query)
        assert first.answer is False and second.answer is False
        first.strip()
        second.strip()
        third = engine.solve_delta(db, Delta(), query)
        assert third is not second
        assert third.falsifying_repair is not None
        assert third.falsifying_repair.is_repair_of(db)
        assert not certain_answer_brute_force(
            third.falsifying_repair, query
        ).answer
        # Writes into one read's details stay out of the next read.
        third.details["note"] = 1
        assert "note" not in engine.solve_delta(db, Delta(), query).details

    @pytest.mark.parametrize(
        "query,db,delta",
        [
            (
                "RRX",
                chain_instance("RRX", 2),
                Delta.inserting(("R", 1, 77), ("R", 4, 78)),
            ),
            (
                "ARRX",
                chain_instance("ARRX", 2),
                Delta.inserting(("A", 0, 99), ("A", 4, 98)),
            ),
        ],
        ids=["fixpoint", "sat"],
    )
    def test_reader_and_writer_threads_get_their_versions(
        self, query, db, delta
    ):
        new_db = delta.apply_to(db).commit()
        undo = Delta(removes=delta.inserts, inserts=delta.removes)
        want_v = CertaintyEngine().solve(db, query).answer
        want_next = CertaintyEngine().solve(new_db, query).answer
        assert want_v != want_next
        engine = CertaintyEngine()
        engine.solve_delta(db, Delta(), query)
        # Readers at v and v+1, a writer v -> v+1 and one back: more
        # threads than the two cores the suite is sized for, and states
        # that move between both versions while others read them.
        jobs = [
            (db, Delta(), want_v),
            (new_db, Delta(), want_next),
            (db, delta, want_next),
            (new_db, undo, want_v),
        ]
        barrier = threading.Barrier(len(jobs))
        wrong = []

        def run(base, arg, want):
            barrier.wait()
            for _ in range(100):
                result = engine.solve_delta(base, arg, query)
                if result.answer is not want:
                    wrong.append((base is db, len(arg), result))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=job) for job in jobs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_state_is_published_only_with_its_answer(self, monkeypatch):
        """A writer that advances the state while another call is still
        in its SAT re-solve must not find that state in the cache: the
        slower call would then store its answer on a state that has
        moved to another version."""
        db = chain_instance("ARRX", 2)
        fork = Delta.inserting(("A", 0, 99), ("A", 4, 98))
        forked = fork.apply_to(db).commit()
        undo = Delta(removes=fork.inserts)
        engine = CertaintyEngine()
        engine.solve_delta(forked, Delta(), "ARRX")
        solve = IncrementalSatContext.solve
        nested = []

        def solve_then_fork(ctx):
            if not nested:
                nested.append(engine.solve_delta(db, fork, "ARRX"))
            return solve(ctx)

        monkeypatch.setattr(IncrementalSatContext, "solve", solve_then_fork)
        assert engine.solve_delta(forked, undo, "ARRX").answer is True
        assert nested[0].answer is False
        assert engine.solve_delta(forked, Delta(), "ARRX").answer is False
        assert engine.solve_delta(db, Delta(), "ARRX").answer is True
