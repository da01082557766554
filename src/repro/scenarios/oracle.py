"""The differential reference oracle every matrix cell answers to.

A scenario cell is only evidence if something *independent* checks it:
the serving stack under test routes answers through compiled plans,
compact kernels, maintained fixpoint states, shard transports, and
journals -- precisely the machinery a regression would live in.  The
oracle therefore re-decides every answered request on the relevant
*committed* instance through a disjoint code path:

* **brute force** (repair enumeration, the semantic definition) whenever
  the instance has at most *repair_limit* repairs;
* the **object-plane SAT encoding** otherwise -- no compact views, no
  int-id kernels, no incremental state, sound and complete for every
  complexity class.  The encoding
  (:func:`~repro.solvers.sat_encoding.encode_falsifying_repair`) is
  shared with the engine's coNP route, but the search is not: the
  engine runs the CDCL solver of :mod:`repro.solvers.sat`, while the
  oracle runs its own private reference DPLL (:func:`_dpll_solve`,
  below), so the oracle never checks the CDCL against itself.

The same oracle backs three consumers with one code path (so a bug in
the cross-check cannot hide in a private copy):

* the scenario matrix (:mod:`repro.scenarios.matrix`) verifies every
  answered request of every cell through :func:`verify_answers`;
* ``tests/test_chaos.py`` verifies chaos-run read bursts through
  :func:`check_read_outcomes`;
* the hypothesis delta-chain properties in ``tests/test_properties.py``
  call :func:`reference_answer` directly.

>>> from repro.db.instance import DatabaseInstance
>>> db = DatabaseInstance.from_triples(
...     [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)])
>>> reference_answer(db, "RRX")
True
>>> verify_answers([AnsweredRequest("toy", "RRX", False, "nl", db)])
[Mismatch(name='toy', query='RRX', got=False, want=True)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.db.instance import DatabaseInstance
from repro.db.repairs import count_repairs
from repro.queries.generalized import GeneralizedPathQuery
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.sat import Clause, SatStats
from repro.solvers.sat_encoding import encode_falsifying_repair
from repro.words.word import Word, WordLike

#: Above this many repairs the oracle switches from enumeration to the
#: object-plane SAT encoding (still independent of everything the matrix
#: exercises, just not the literal semantic definition).
DEFAULT_REPAIR_LIMIT = 512


# The reference DPLL: unit propagation, pure-literal elimination at the
# root and a most-frequent-literal branching heuristic.  It copies the
# clause list and the assignment per decision and learns nothing, so it
# is slow; it is kept because it shares no code with the CDCL solver the
# engine runs.


def _propagate(
    clauses: List[List[int]], assignment: Dict[int, bool], stats: SatStats
) -> Optional[List[List[int]]]:
    """Unit propagation; returns the simplified clause set or ``None`` on
    conflict.  *assignment* is extended in place."""
    changed = True
    current = clauses
    while changed:
        changed = False
        simplified: List[List[int]] = []
        for clause in current:
            satisfied = False
            remaining: List[int] = []
            for literal in clause:
                var = abs(literal)
                value = assignment.get(var)
                if value is None:
                    remaining.append(literal)
                elif (literal > 0) == value:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not remaining:
                return None
            if len(remaining) == 1:
                literal = remaining[0]
                var = abs(literal)
                value = literal > 0
                existing = assignment.get(var)
                if existing is None:
                    assignment[var] = value
                    stats.propagations += 1
                    changed = True
                elif existing != value:
                    return None
                continue
            simplified.append(remaining)
        current = simplified
    return current


def _choose_literal(clauses: List[List[int]]) -> int:
    """Branch on the most frequent literal (ties broken by magnitude)."""
    counts: Dict[int, int] = {}
    for clause in clauses:
        for literal in clause:
            counts[literal] = counts.get(literal, 0) + 1
    return max(sorted(counts), key=lambda l: counts[l])


def _dpll(
    clauses: List[List[int]], assignment: Dict[int, bool], stats: SatStats
) -> Optional[Dict[int, bool]]:
    simplified = _propagate(clauses, assignment, stats)
    if simplified is None:
        return None
    if not simplified:
        return assignment
    literal = _choose_literal(simplified)
    stats.decisions += 1
    for value in ((literal > 0), (literal < 0)):
        trial = dict(assignment)
        trial[abs(literal)] = value
        result = _dpll(simplified, trial, stats)
        if result is not None:
            return result
    return None


def _dpll_solve(
    clauses: Iterable[Clause], stats: Optional[SatStats] = None
) -> Optional[Dict[int, bool]]:
    """Solve a CNF given as integer clauses.

    Returns a satisfying assignment ``{variable: bool}`` (unmentioned
    variables are unconstrained and absent), or ``None`` if unsatisfiable.

    >>> sorted(_dpll_solve([[1, 2], [-1], [-2, 3]]).items())
    [(1, False), (2, True), (3, True)]
    >>> _dpll_solve([[1], [-1]]) is None
    True
    """
    stats = stats or SatStats()
    materialized: List[List[int]] = []
    for clause in clauses:
        clause = list(clause)
        if any(literal == 0 for literal in clause):
            raise ValueError("literal 0 is not allowed")
        if any(-literal in clause for literal in clause):
            continue  # tautology
        materialized.append(clause)
    # Pure-literal elimination at the root.
    assignment: Dict[int, bool] = {}
    while True:
        literals = {l for clause in materialized for l in clause}
        pure = {l for l in literals if -l not in literals}
        if not pure:
            break
        for literal in pure:
            assignment.setdefault(abs(literal), literal > 0)
        materialized = [
            clause
            for clause in materialized
            if not any(l in pure for l in clause)
        ]
    return _dpll(materialized, assignment, stats)



def reference_answer(
    db: DatabaseInstance,
    query: WordLike,
    repair_limit: int = DEFAULT_REPAIR_LIMIT,
) -> bool:
    """Independent ground truth for CERTAINTY(*query*) on *db*.

    Section 8 generalized path queries are accepted as-is: both backends
    decide them directly (repair enumeration semantically, the SAT
    encoding via its conjunctive-query translation), so the oracle stays
    disjoint from the engine's Lemma 27/29 segment-and-``ext(q)`` route.
    Above *repair_limit* the encoding is solved by :func:`_dpll_solve`:
    *q* is certain iff no repair falsifies it, i.e. iff the clauses are
    unsatisfiable.
    """
    if isinstance(query, GeneralizedPathQuery):
        target: object = query
    else:
        target = Word.coerce(query)
    if count_repairs(db) <= repair_limit:
        return certain_answer_brute_force(db, target, repair_limit=None).answer
    clauses, _ = encode_falsifying_repair(db, target)
    return _dpll_solve(clauses) is None


@dataclass(frozen=True)
class AnsweredRequest:
    """One answered request plus the committed instance it must match.

    *expected_db* is the client-side replay of the instance at the
    moment the answer was read: the base instance for static solves,
    the committed chain state for delta steps, the final state for
    post-write read bursts.
    """

    name: str
    query: Hashable
    answer: bool
    method: str
    expected_db: DatabaseInstance


@dataclass(frozen=True)
class Mismatch:
    """A differentially-wrong answer: the cell said *got*, truth is *want*."""

    name: str
    query: Hashable
    got: bool
    want: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "query": str(self.query),
            "got": self.got,
            "want": self.want,
        }


def verify_answers(
    answered: Iterable[AnsweredRequest],
    repair_limit: int = DEFAULT_REPAIR_LIMIT,
) -> List[Mismatch]:
    """Re-decide every answered request; return the disagreements.

    Distinct requests frequently share one committed instance (a read
    burst against the final state), so reference answers are memoized
    per ``(instance, query)`` within the call.
    """
    memo: Dict[Tuple[int, str], bool] = {}
    keepalive: Dict[int, DatabaseInstance] = {}
    mismatches: List[Mismatch] = []
    for request in answered:
        key = (id(request.expected_db), request.query)
        keepalive[id(request.expected_db)] = request.expected_db
        if key not in memo:
            memo[key] = reference_answer(
                request.expected_db, request.query, repair_limit=repair_limit
            )
        if request.answer != memo[key]:
            mismatches.append(
                Mismatch(
                    name=request.name,
                    query=request.query,
                    got=request.answer,
                    want=memo[key],
                )
            )
    return mismatches


def check_read_outcomes(
    outcomes: Iterable[object],
    db: DatabaseInstance,
    query: WordLike,
    allowed: Tuple[type, ...] = (),
    repair_limit: int = DEFAULT_REPAIR_LIMIT,
) -> Dict[str, object]:
    """The chaos-run cross-check: answers match the reference, errors
    are typed.

    *outcomes* is a gathered result list (``return_exceptions=True``
    style): each entry is either a
    :class:`~repro.solvers.result.CertaintyResult` -- whose answer must
    equal :func:`reference_answer` on the committed instance *db* -- or
    an exception, which must be an instance of one of the *allowed*
    types (a request may be shed, never answered wrongly and never
    hung).  Raises :class:`AssertionError` on the first violation;
    returns ``{"reference", "answered", "errors"}`` counts otherwise.
    """
    reference = reference_answer(db, query, repair_limit=repair_limit)
    answered = errors = 0
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            if not isinstance(outcome, tuple(allowed)):
                raise AssertionError(
                    "disallowed error from read: {!r}".format(outcome)
                )
            errors += 1
        else:
            if outcome.answer is not reference:
                raise AssertionError(
                    "read answered {} but the reference on the committed "
                    "instance says {}".format(outcome.answer, reference)
                )
            answered += 1
    return {"reference": reference, "answered": answered, "errors": errors}
