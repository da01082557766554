"""CERTAINTY(q) for generalized path queries (Section 8).

By Lemma 25 (variable-disjoint components combine conjunctively) and
Lemma 28, ``CERTAINTY(q)`` splits into

* ``CERTAINTY(char(q))`` -- handled via the ``ext(q)`` reduction of
  Lemmas 26/29: add one fresh fact ``N(c, d)`` and decide the constant-free
  path query ``ext(q) = char-word · N`` with the Theorem 3 machinery; and
* ``CERTAINTY(q \\ char(q))`` -- a union of constant-rooted segments, each
  in FO (Lemma 27): rooted certainty, with a pinned endpoint when the
  segment ends at a constant (Lemma 26).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Tuple

from repro.db.delta import DeltaInstance
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.db.paths import rooted_certainty
from repro.queries.generalized import GeneralizedPathQuery, Segment
from repro.solvers.fixpoint import FixpointState, certain_answer_incremental
from repro.solvers.result import CertaintyResult
from repro.solvers.sat_encoding import certain_answer_sat
from repro.words.word import Word, WordLike


def rooted_certainty_to(
    db: DatabaseInstance, trace: WordLike, root: Hashable, end: Hashable
) -> bool:
    """Certainty of a segment pinned at both ends (Lemma 26).

    Does every repair have a *trace*-path from *root* ending exactly at
    *end*?  Equivalent to the Lemma 26 reduction (append a fresh relation
    ``N`` and a single fact ``N(end, d)``), specialized to a direct
    recursion: at the last position the reached constant must be *end*.
    """
    trace = Word.coerce(trace)
    memo = {}

    def certain(position: int, constant: Hashable) -> bool:
        if position == len(trace):
            return constant == end
        key = (position, constant)
        if key in memo:
            return memo[key]
        block = db.out_facts(constant, trace[position])
        result = bool(block) and all(
            certain(position + 1, fact.value) for fact in block
        )
        memo[key] = result
        return result

    return certain(0, root)


def _segment_certain(db: DatabaseInstance, segment: Segment) -> bool:
    if not segment.word:
        return True
    if segment.end is None:
        return rooted_certainty(db, segment.word, segment.root)
    return rooted_certainty_to(db, segment.word, segment.root, segment.end)


class GeneralizedState:
    """Maintained CERTAINTY(q) for a constant-carrying generalized query.

    The update-path twin of :class:`~repro.solvers.fixpoint.FixpointState`
    for Section 8 queries: the Lemma 27 segment verdicts and the Lemma 29
    ``ext(q)`` decision are computed once and then *maintained* under
    deltas --

    * a segment is re-checked only when the delta touches a relation in
      its word (segment certainty depends on nothing else);
    * the ``ext(q)`` word's Figure 5 fixpoint lives in a maintained
      :class:`FixpointState` over the extended instance (the base plus
      the one fresh ``N(c, d)`` fact), so each delta folds in with DRed
      instead of re-running the fixpoint;
    * if the delta collides with the reduction itself (it mentions the
      fresh relation, or introduces the fresh sink constant into the
      active domain), the state recomputes from scratch -- the same
      decision procedure, so answers stay identical to a cold solve.

    Constructed by the engine's ``solve_delta`` via :meth:`compute` with
    the compiled generalized plan and the compiled ``ext(q)`` word plan;
    cached in the engine's ``StateCache`` under the query's plan key.

    >>> from repro.engine.plan import CompiledGeneralizedQuery, CompiledQuery
    >>> q = GeneralizedPathQuery("RS", {2: "t"})       # R(x,y), S(y,'t')
    >>> plan = CompiledGeneralizedQuery(q)
    >>> inner = CompiledQuery(plan.ext_word)
    >>> db = DatabaseInstance.from_triples([("R", "a", "b"), ("S", "b", "t")])
    >>> state = GeneralizedState.compute(db, plan, inner)
    >>> state.verdict().answer
    True
    >>> wide = db.with_facts([Fact("S", "b", "u")])    # S(b,.) block forks
    >>> state.apply_delta(wide, [Fact("S", "b", "u")], []).verdict().answer
    False
    """

    __slots__ = (
        "plan",
        "inner_plan",
        "db",
        "segment_ok",
        "segment_alphabet",
        "fresh_constant",
        "fresh_fact",
        "ext_db",
        "ext_state",
        "_inner_answer",
        "_inner_method",
        "_inner_witness",
        "result",
    )

    def __init__(self, db: DatabaseInstance, plan, inner_plan) -> None:
        #: The engine's final answer for ``db``, kept so a read with no
        #: effective edit is a lookup; cleared by every delta.
        self.result: Optional[CertaintyResult] = None
        self.plan = plan
        self.inner_plan = inner_plan
        self.segment_alphabet: Tuple[frozenset, ...] = tuple(
            frozenset(seg.word[i] for i in range(len(seg.word)))
            for seg in plan.segments
        )
        self._recompute(db)

    @classmethod
    def compute(cls, db: DatabaseInstance, plan, inner_plan) -> "GeneralizedState":
        """Full run over *db*, retaining the state for incremental upkeep."""
        return cls(db, plan, inner_plan)

    def _recompute(self, db: DatabaseInstance) -> None:
        self.db = db
        self.segment_ok: List[bool] = [
            _segment_certain(db, seg) for seg in self.plan.segments
        ]
        if self.plan.ext_word is None:
            self.fresh_constant = None
            self.fresh_fact = None
            self.ext_db = None
            self.ext_state = None
            self._inner_answer = True
            self._inner_method = None
            self._inner_witness = None
            return
        fresh = "_ext_sink"
        adom = db.adom()
        while fresh in adom:
            fresh += "_"
        self.fresh_constant = fresh
        self.fresh_fact = Fact(
            self.plan.fresh_relation, self.plan.char.terminal, fresh
        )
        self.ext_db = db.with_facts([self.fresh_fact])
        self.ext_state = FixpointState.compute(
            self.ext_db, self.inner_plan.word, tables=self.inner_plan.tables
        )
        self._refresh_inner()

    def _refresh_inner(self) -> None:
        """Read the ext(q) decision off the maintained fixpoint.

        C3 ``ext(q)`` words are decided exactly by the relation ``N``;
        for C3-violating words the maintained state is the sound "no"
        pre-filter and a surviving "yes" re-solves with
        ``certain_answer_sat`` on the extended instance (same envelope as
        the engine's word-level delta route).
        """
        is_c3 = self.inner_plan.classification.c3
        inner = certain_answer_incremental(
            self.ext_state, require_c3=False, is_c3=is_c3
        )
        if not is_c3 and inner.answer:
            inner = certain_answer_sat(self.ext_db, self.inner_plan.word)
        self._inner_answer = inner.answer
        self._inner_method = inner.method
        self._inner_witness = inner.witness_constant

    def apply_delta(
        self,
        new_db: DatabaseInstance,
        added: Iterable[Fact],
        removed: Iterable[Fact],
    ) -> "GeneralizedState":
        """Fold a committed delta in; *new_db* is the post-delta instance."""
        self.result = None
        added = list(added)
        removed = list(removed)
        touched = {fact.relation for fact in added} | {
            fact.relation for fact in removed
        }
        if self.plan.ext_word is not None and (
            self.plan.fresh_relation in touched
            or any(
                self.fresh_constant in (fact.key, fact.value)
                for fact in added
            )
        ):
            self._recompute(new_db)
            return self
        for index, segment in enumerate(self.plan.segments):
            if self.segment_alphabet[index] & touched:
                self.segment_ok[index] = _segment_certain(new_db, segment)
        if self.plan.ext_word is not None:
            # Patch the maintained extended instance in O(delta) -- the
            # guard above ensured the delta cannot touch the fresh fact,
            # so (db + fresh) - removed + added == new_db + fresh.
            overlay = DeltaInstance(self.ext_db)
            for fact in removed:
                overlay.remove_fact(fact)
            for fact in added:
                overlay.insert_fact(fact)
            self.ext_db = overlay.commit()
            self.ext_state.apply_delta(self.ext_db, added, removed)
            self._refresh_inner()
        self.db = new_db
        return self

    def verdict(self) -> CertaintyResult:
        """The current CERTAINTY(q) verdict as a fresh result object."""
        query_str = str(self.plan.query)
        for ok, segment in zip(self.segment_ok, self.plan.segments):
            if not ok:
                return CertaintyResult(
                    query=query_str,
                    answer=False,
                    method="generalized",
                    details={"failed_segment": str(segment)},
                )
        if self.plan.ext_word is None:
            return CertaintyResult(
                query=query_str,
                answer=True,
                method="generalized",
                details={"char": "empty"},
            )
        return CertaintyResult(
            query=query_str,
            answer=self._inner_answer,
            method="generalized",
            witness_constant=self._inner_witness,
            details={
                "char_reduction": str(self.plan.ext_word),
                "inner_method": self._inner_method,
            },
        )


def certain_answer_generalized(
    db: DatabaseInstance,
    query: GeneralizedPathQuery,
    method: str = "auto",
    engine=None,
) -> CertaintyResult:
    """Decide CERTAINTY(q) for a generalized path query.

    The segment split, ``char(q)`` and the ``ext(q)`` reduction word are
    compiled once per query and cached by *engine* (the process-wide
    :func:`repro.engine.default_engine` when omitted); this call performs
    only the per-instance segment checks and the inner ``ext(q)``
    decision.

    >>> q = GeneralizedPathQuery("RS", {2: "t"})       # R(x,y), S(y,'t')
    >>> db = DatabaseInstance.from_triples([("R", "a", "b"), ("S", "b", "t")])
    >>> certain_answer_generalized(db, q).answer
    True
    """
    if engine is None:
        from repro.engine.engine import default_engine

        engine = default_engine()
    return engine.solve(db, query, method=method)
