"""Compiled query plans: per-query work done once, per-instance work per call.

``certain_answer`` historically re-ran classification (Theorem 3), the
prefix tables of the Figure 5 algorithm, and -- for forced methods -- the
Claim 5 program generation on *every* ``(db, query)`` call.  All of that
depends only on the query, and the paper's headline result is exactly that
it is polynomial in ``|q|`` -- so a serving system should pay it once per
query.  A :class:`CompiledQuery` is that per-query residue:

* the Theorem 3 classification and the dispatch route it determines;
* the :class:`~repro.solvers.fixpoint.FixpointTables` of Figure 5;
* the Claim 5 linear-Datalog program, built on first use of the forced
  ``nl`` method (``auto`` decides NL-complete queries with the Figure 5
  fixpoint, which is exact on them: C2 ⊆ C3 by Proposition 1 and ``N``
  is exact under C3 by Lemma 7);
* lazily on first use: ``NFA(q)``, the ``NFAmin(q)`` DFA, and the
  Lemma 13 FO sentence (inspection artifacts; the hot paths use the
  direct semantic recursions).

``plan.solve(db)`` then performs only instance-dependent work, with
semantics identical to the classification-driven ``certain_answer``.
For coNP-complete queries that work is the fixpoint "no" pre-filter,
then the falsifying-repair encoding solved by the library's one CDCL
solver (:func:`~repro.solvers.sat_encoding.certain_answer_sat`), the
same solver the engine's warm delta route keeps per resident.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.classification.classifier import (
    Classification,
    ComplexityClass,
    classify,
)
from repro.datalog.cqa_program import (
    CqaProgram,
    UnsupportedQuery,
    build_cqa_program,
)
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.queries.generalized import GeneralizedPathQuery
from repro.queries.path_query import PathQuery
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.fixpoint import FixpointTables, certain_answer_fixpoint
from repro.solvers.fo_solver import certain_answer_fo
from repro.solvers.generalized_solver import _segment_certain
from repro.solvers.nl_solver import certain_answer_nl
from repro.solvers.result import CertaintyResult
from repro.solvers.sat_encoding import certain_answer_sat
from repro.words.word import Word, WordLike

PlanQuery = Union[str, Word, PathQuery]

_METHODS = ("auto", "fo", "nl", "fixpoint", "sat", "brute_force")

_UNSET = object()


def conp_solve(
    db: DatabaseInstance,
    q: WordLike,
    tables: Optional[FixpointTables] = None,
) -> CertaintyResult:
    """SAT with the sound fixpoint "no" pre-filter (Lemma 10).

    The fixpoint "no" comes with a Lemma 9 falsifying repair, which is
    sound for *every* query, so the expensive SAT call only runs on
    fixpoint-"yes" instances.  A fresh :class:`CertaintyResult` is built
    for the pre-filter answer -- the pre-filter's own result object is
    never mutated or returned, so no ``method``/``details`` state leaks
    between calls of a cached plan.
    """
    q = Word.coerce(q)
    prefilter = certain_answer_fixpoint(
        db, q, require_c3=False, tables=tables, is_c3=False
    )
    if not prefilter.answer:
        return CertaintyResult(
            query=prefilter.query,
            answer=False,
            method="fixpoint-prefilter",
            # Forward the certificate source unresolved: reading the
            # property here would force the lazy Lemma 9 construction.
            falsifying_repair=prefilter._repair_source,
            details=dict(prefilter.details),
        )
    result = certain_answer_sat(db, q)
    result.details["prefilter"] = "fixpoint-yes"
    return result


class CompiledQuery:
    """A constant-free path query compiled for repeated solving.

    >>> plan = CompiledQuery("RRX")
    >>> str(plan.classification.complexity)
    'NL-complete'
    >>> db = DatabaseInstance.from_triples(
    ...     [("R", 0, 1), ("R", 1, 2), ("R", 1, 3), ("R", 2, 3), ("X", 3, 4)])
    >>> plan.solve(db).answer
    True
    """

    __slots__ = (
        "word",
        "classification",
        "tables",
        "_datalog",
        "_datalog_error",
        "_datalog_compact",
        "_nfa",
        "_minimal_dfa",
        "_fo_sentence",
    )

    def __init__(self, query: PlanQuery) -> None:
        if isinstance(query, PathQuery):
            query = query.word
        self.word = Word.coerce(query)
        self.classification: Classification = classify(self.word)
        self.tables = FixpointTables.build(self.word)
        self._datalog: Union[CqaProgram, None, object] = _UNSET
        self._datalog_error: Optional[str] = None
        self._datalog_compact = None
        self._nfa = None
        self._minimal_dfa = None
        self._fo_sentence = _UNSET

    # ------------------------------------------------------------------
    # Compiled artifacts
    # ------------------------------------------------------------------

    @property
    def complexity(self) -> ComplexityClass:
        return self.classification.complexity

    def _build_datalog(self) -> Optional[CqaProgram]:
        if self._datalog is _UNSET:
            try:
                self._datalog = build_cqa_program(self.word)
            except UnsupportedQuery as exc:
                self._datalog = None
                self._datalog_error = str(exc)
        return self._datalog

    @property
    def datalog_program(self) -> Optional[CqaProgram]:
        """The Claim 5 program, or ``None`` when no verified decomposition
        exists (built on first access)."""
        return self._build_datalog()

    def _compact_datalog(self, program: CqaProgram):
        """The compact-engine compilation of the Claim 5 program, built
        once per plan so the per-instance NL solve skips even the
        module-level memo lookup."""
        if self._datalog_compact is None:
            from repro.datalog.engine import compact_program

            self._datalog_compact = compact_program(program.program)
        return self._datalog_compact

    @property
    def nfa(self):
        """``NFA(q)`` (Definition 3), built on first access."""
        if self._nfa is None:
            from repro.automata.query_nfa import query_nfa

            self._nfa = query_nfa(self.word)
        return self._nfa

    @property
    def minimal_dfa(self):
        """The ``NFAmin(q)`` DFA (Definition 13), built on first access."""
        if self._minimal_dfa is None:
            from repro.automata.query_nfa import nfa_min

            self._minimal_dfa = nfa_min(self.word)
        return self._minimal_dfa

    @property
    def fo_sentence(self):
        """The Lemma 13 rewriting ``∃x ψ(x)`` for C1 queries, else ``None``."""
        if self._fo_sentence is _UNSET:
            if self.classification.c1:
                from repro.fo.rewriting import c1_rewriting

                self._fo_sentence = c1_rewriting(self.word)
            else:
                self._fo_sentence = None
        return self._fo_sentence

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self, db: DatabaseInstance, method: str = "auto") -> CertaintyResult:
        """Decide CERTAINTY(q) on *db*; per-instance work only.

        Semantics match ``certain_answer(db, q, method=method)``: ``auto``
        dispatches along the Theorem 3 route and records the complexity
        class in ``details``; forced methods keep their applicability
        errors (``fo`` on a non-C1 query raises :class:`ValueError`,
        ``nl`` without a verified decomposition raises
        :class:`~repro.datalog.cqa_program.UnsupportedQuery`).
        """
        if method == "auto":
            result = self._solve_auto(db)
            result.details["complexity"] = str(self.complexity)
            return result
        if method == "fo":
            if not self.classification.c1:
                raise ValueError(
                    "query {} violates C1; its CERTAINTY problem is not "
                    "in FO".format(self.word)
                )
            return certain_answer_fo(db, self.word, check=False)
        if method == "nl":
            program = self._build_datalog()
            if program is None:
                raise UnsupportedQuery(self._datalog_error)
            return certain_answer_nl(
                db, self.word, program=program,
                compiled=self._compact_datalog(program),
            )
        if method == "fixpoint":
            return self._fixpoint(db, require_c3=True)
        if method == "sat":
            return certain_answer_sat(db, self.word)
        if method == "brute_force":
            return certain_answer_brute_force(db, self.word)
        raise ValueError("unknown method {!r}".format(method))

    def _fixpoint(self, db: DatabaseInstance, require_c3: bool) -> CertaintyResult:
        return certain_answer_fixpoint(
            db,
            self.word,
            require_c3=require_c3,
            tables=self.tables,
            is_c3=self.classification.c3,
        )

    def _solve_auto(self, db: DatabaseInstance) -> CertaintyResult:
        complexity = self.complexity
        if complexity is ComplexityClass.FO:
            return certain_answer_fo(db, self.word, check=False)
        if complexity in (
            ComplexityClass.NL_COMPLETE, ComplexityClass.PTIME_COMPLETE
        ):
            # Both classes satisfy C3 (C2 ⊆ C3 by Proposition 1), where
            # the Figure 5 fixpoint is exact (Lemma 7).  The Claim 5
            # program stays available as method="nl", but its binary
            # ``cyclepath`` closure costs O(n²) on chains.
            return self._fixpoint(db, require_c3=True)
        return conp_solve(db, self.word, tables=self.tables)

    def __repr__(self) -> str:
        return "CompiledQuery({!r}, {})".format(str(self.word), self.complexity)


class CompiledGeneralizedQuery:
    """A generalized path query (Section 8) compiled for repeated solving.

    The query-level pieces of ``certain_answer_generalized`` -- the
    Lemma 27 segment split, ``char(q)`` and the Lemma 29 ``ext(q)``
    reduction word -- are computed once; the inner constant-free decision
    runs through *solve_word* (the owning engine's cached dispatch), so
    the ``ext(q)`` plan is itself compiled exactly once.
    """

    __slots__ = ("query", "segments", "char", "ext_word", "fresh_relation")

    def __init__(self, query: GeneralizedPathQuery) -> None:
        if not query.has_constants():
            raise ValueError(
                "constant-free generalized queries compile to CompiledQuery"
            )
        self.query = query
        self.segments = tuple(query.segments())
        self.char = query.char()
        if self.char.word:
            self.ext_word = query.ext().word
            self.fresh_relation = self.ext_word.last()
        else:
            self.ext_word = None
            self.fresh_relation = None

    def solve(
        self,
        db: DatabaseInstance,
        method: str = "auto",
        solve_word=None,
    ) -> CertaintyResult:
        """Decide CERTAINTY(q); mirrors ``certain_answer_generalized``."""
        if method not in _METHODS:
            raise ValueError("unknown method {!r}".format(method))
        if solve_word is None:
            solve_word = lambda db_, w, m: CompiledQuery(w).solve(db_, m)

        # 1. The constant-rooted remainder, segment by segment (Lemma 27).
        for segment in self.segments:
            if not _segment_certain(db, segment):
                return CertaintyResult(
                    query=str(self.query),
                    answer=False,
                    method="generalized",
                    details={"failed_segment": str(segment)},
                )

        # 2. The characteristic prefix, via the ext(q) reduction (Lemma 29).
        if self.ext_word is None:
            return CertaintyResult(
                query=str(self.query),
                answer=True,
                method="generalized",
                details={"char": "empty"},
            )
        fresh_constant = "_ext_sink"
        while fresh_constant in db.adom():
            fresh_constant += "_"
        extended = db.with_facts(
            [Fact(self.fresh_relation, self.char.terminal, fresh_constant)]
        )
        inner = solve_word(extended, self.ext_word, method)
        return CertaintyResult(
            query=str(self.query),
            answer=inner.answer,
            method="generalized",
            witness_constant=inner.witness_constant,
            details={
                "char_reduction": str(self.ext_word),
                "inner_method": inner.method,
            },
        )

    def __repr__(self) -> str:
        return "CompiledGeneralizedQuery({!r})".format(str(self.query))
