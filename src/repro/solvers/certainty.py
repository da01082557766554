"""The classification-driven front end for CERTAINTY(q).

:func:`certain_answer` classifies the query (Theorem 3) and dispatches to
the matching algorithm:

* C1  -> first-order rewriting (Lemma 13);
* C2, C3 -> the Figure 5 fixpoint algorithm (Lemma 11; exact because
  C2 ⊆ C3 by Proposition 1); the linear-Datalog program of Lemma 14
  is the forced ``method="nl"``, quadratic on chains;
* else -> the SAT baseline, *pre-filtered* by the fixpoint algorithm: its
  "no" answers are sound for every query (Lemma 10 gives a falsifying
  repair), so the expensive SAT call only runs on fixpoint-"yes"
  instances.

A specific method can be forced with ``method=``; applicability is
checked against the classification.

Since the engine refactor this module is a thin compatibility shim: the
classification and every other per-query artifact are compiled once and
cached by the process-wide :func:`repro.engine.default_engine`, and each
call performs per-instance work only.  Use
:class:`repro.engine.CertaintyEngine` directly for batched workloads,
private plan caches, or per-engine statistics.
"""

from __future__ import annotations

from typing import Union

from repro.db.instance import DatabaseInstance
from repro.queries.generalized import GeneralizedPathQuery
from repro.queries.path_query import PathQuery
from repro.solvers.result import CertaintyResult
from repro.words.word import Word, WordLike

QueryLike = Union[str, Word, PathQuery, GeneralizedPathQuery]


def _conp_solve(db: DatabaseInstance, q: Word) -> CertaintyResult:
    """SAT with the sound fixpoint "no" pre-filter.

    Returns a *fresh* :class:`CertaintyResult` on the pre-filter path --
    the pre-filter's own result object (which cached plans may also hand
    out) is never mutated, so ``method``/``details`` cannot go stale
    across calls.
    """
    from repro.engine.plan import conp_solve

    return conp_solve(db, q)


def certain_answer(
    db: DatabaseInstance,
    query: QueryLike,
    method: str = "auto",
) -> CertaintyResult:
    """Decide whether every repair of *db* satisfies *query*.

    *method* is one of ``"auto"`` (classify and dispatch), ``"fo"``,
    ``"nl"``, ``"fixpoint"``, ``"sat"``, ``"brute_force"``.

    >>> db = DatabaseInstance.from_triples(
    ...     [("R", "a", "a"), ("R", "a", "b"), ("R", "b", "a"), ("R", "b", "b")])
    >>> certain_answer(db, "RR").answer        # Example 1 flavor: q1 = RR
    True
    """
    from repro.engine.engine import default_engine

    return default_engine().solve(db, query, method=method)
