"""The linear-Datalog NL solver for C2 queries (Lemma 14 / Claim 5).

Pipeline: split ``q`` into a language-verified ``head (cycle)* tail``
shape (Lemma 16), generate the Claim 5 linear Datalog program with
stratified negation, evaluate it on the instance with the semi-naive
engine, and answer "yes" iff some constant ``c`` has ``o(c)`` underivable
(Claim 4: ``o(c)`` holds iff some repair has no path from ``c`` with
trace in ``head (cycle)* tail``; by Lemmas 7 and 15 the instance is a
"yes"-instance iff some ``c`` defeats every repair).
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.cqa_program import (
    CqaProgram,
    UnsupportedQuery,
    instance_edb_compact,
)
from repro.datalog.engine import CompactProgram, compact_program
from repro.db.instance import DatabaseInstance
from repro.solvers.result import CertaintyResult, LazyMinimalRepair
from repro.words.word import Word, WordLike


def cached_program(q: WordLike) -> CqaProgram:
    """Fetch the Claim 5 program for *q* from the engine's plan cache.

    Claim 5 programs are cached on the
    :class:`~repro.engine.plan.CompiledQuery` plans of the process-wide
    engine: one cache with one (LRU) eviction policy for all per-query
    artifacts.

    Raises :class:`~repro.datalog.cqa_program.UnsupportedQuery` when no
    language-verified decomposition exists.
    """
    # Imported lazily: the engine package builds on the solvers.
    from repro.engine.engine import default_engine

    plan = default_engine().compile(Word.coerce(q))
    program = plan.datalog_program
    if program is None:
        raise UnsupportedQuery(plan._datalog_error)
    return program


def certain_answer_nl(
    db: DatabaseInstance,
    q: WordLike,
    program: Optional[CqaProgram] = None,
    compiled: Optional[CompactProgram] = None,
) -> CertaintyResult:
    """Decide CERTAINTY(q) for a C2 path query via linear Datalog.

    *program* may carry the precompiled Claim 5 program for *q*, and
    *compiled* its compact-engine compilation (compiled plans pass both;
    ad-hoc callers hit the module caches).  The program runs on the
    compact engine over the EDB of ``db.compact()``, in the view's own
    local ids.

    >>> db = DatabaseInstance.from_triples(
    ...     [("R", 0, 1), ("R", 1, 2), ("R", 2, 3), ("R", 3, 4), ("X", 4, 5)])
    >>> certain_answer_nl(db, "RRX").answer
    True
    """
    q = Word.coerce(q)
    cqa = program if program is not None else cached_program(q)
    view = db.compact()
    if compiled is None:
        compiled = compact_program(cqa.program)
    if compiled.constants:
        raise ValueError("Claim 5 programs must have no rule constants")
    relations = compiled.evaluate(instance_edb_compact(view))
    o_lids = {row[0] for row in relations.get("o", ())}
    consts = view.consts
    witnesses = [consts[lid] for lid in view.alive_lids() if lid not in o_lids]
    details = {
        "decomposition": str(cqa.parts),
        "program_rules": len(cqa.program),
        "o_size": len(o_lids),
    }
    repair = None
    if not witnesses:
        # Certificate: the Lemma 9 minimal repair falsifies q on
        # "no"-instances (query-generic construction); built lazily on
        # first access, picklable so laziness survives pool hops.
        repair = LazyMinimalRepair(db, q)
    return CertaintyResult(
        query=str(q),
        answer=bool(witnesses),
        method="nl",
        witness_constant=min(witnesses, key=str) if witnesses else None,
        falsifying_repair=repair,
        details=details,
    )


def nl_supported(q: WordLike) -> bool:
    """True iff the NL solver has a verified decomposition for *q*."""
    try:
        cached_program(q)
    except UnsupportedQuery:
        return False
    return True
