"""The library's SAT solver (substrate for the coNP route).

Clauses are lists of nonzero integers (DIMACS convention: ``v`` means the
variable ``v`` is true, ``-v`` that it is false).  One solver,
:class:`IncrementalSatSolver`, decides them: an iterative CDCL solver
(two-watched literals, 1UIP clause learning with backjumping, phase
saving) that **persists across calls**: clauses stay loaded, learned
clauses and saved phases survive, and each
:meth:`~IncrementalSatSolver.solve` call takes a list of *assumption*
literals fixed before search.  The engine's delta-aware coNP route keeps
one solver per resident and toggles selector assumptions instead of
re-encoding the CNF; :func:`solve_clauses` is the one-shot entry for
cold solves, a fresh solver per call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Clause = Sequence[int]


class SatStats:
    """Mutable solver statistics (decisions / propagations / learned
    clauses, one per conflict)."""

    __slots__ = ("decisions", "propagations", "learned")

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.learned = 0


def solve_clauses(
    clauses: Iterable[Clause], stats: Optional[SatStats] = None
) -> Optional[Dict[int, bool]]:
    """Solve a CNF given as integer clauses with a fresh CDCL solver.

    Returns a satisfying assignment ``{variable: bool}`` covering every
    variable of a non-tautological clause, or ``None`` if unsatisfiable.
    *stats*, when given, accumulates the search counters.

    >>> sorted(solve_clauses([[1, 2], [-1], [-2, 3]]).items())
    [(1, False), (2, True), (3, True)]
    >>> solve_clauses([[1], [-1]]) is None
    True
    """
    solver = IncrementalSatSolver()
    if stats is not None:
        solver.stats = stats
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


class IncrementalSatSolver:
    """A persistent CDCL solver: solve under assumptions, keep learning.

    The clause database only grows (:meth:`add_clause`); deactivation is
    the *caller's* protocol: guard a retractable clause ``C`` with a
    fresh selector variable ``s`` by adding ``C + [-s]`` and passing
    ``s`` in *assumptions* while the clause should hold.  Without the
    assumption the solver may satisfy the stored clause by setting ``s``
    false, so the group is inert -- and every learned clause inherits the
    ``-s`` literals of the groups it was derived from, which keeps the
    learned database sound under any later activation pattern.

    Between calls the solver retains all clauses (including learned
    ones), variable activities, and saved phases, so a re-solve after a
    small change replays yesterday's search order instead of starting
    cold.

    >>> solver = IncrementalSatSolver()
    >>> solver.add_clause([1, 2]); solver.add_clause([-1, 2])
    >>> model = solver.solve()
    >>> model[2]
    True
    >>> solver.add_clause([-2, 3, -4])        # guarded by selector 4
    >>> solver.solve(assumptions=[4]) is not None
    True
    >>> solver.add_clause([-3, -4])
    >>> solver.solve(assumptions=[4, 2, 3]) is None   # 2,3,-3 forced
    True
    >>> solver.solve(assumptions=[2, 3]) is not None  # group 4 inert
    True
    """

    __slots__ = (
        "stats",
        "_clauses",
        "_n_original",
        "_watches",
        "_units",
        "_assign",
        "_level",
        "_reason",
        "_trail",
        "_trail_lim",
        "_qhead",
        "_phase",
        "_activity",
        "_var_inc",
        "_vars",
        "_unsat",
    )

    def __init__(self) -> None:
        #: Search counters since construction.
        self.stats = SatStats()
        self._clauses: List[List[int]] = []
        self._n_original = 0
        self._watches: Dict[int, List[int]] = {}
        self._units: List[int] = []
        self._assign: Dict[int, bool] = {}
        self._level: Dict[int, int] = {}
        self._reason: Dict[int, Optional[int]] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._phase: Dict[int, bool] = {}
        self._activity: Dict[int, float] = {}
        self._var_inc = 1.0
        self._vars: Set[int] = set()
        self._unsat = False

    @property
    def clause_count(self) -> int:
        """Clauses currently loaded (originals plus learned)."""
        return len(self._clauses)

    def add_clause(self, clause: Iterable[int]) -> None:
        """Load one clause permanently into the solver."""
        clause = list(clause)
        if any(literal == 0 for literal in clause):
            raise ValueError("literal 0 is not allowed")
        if any(-literal in clause for literal in clause):
            return  # tautology
        clause = list(dict.fromkeys(clause))
        for literal in clause:
            var = abs(literal)
            self._vars.add(var)
            self._activity.setdefault(var, 0.0)
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            self._units.append(clause[0])
            return
        self._attach(clause)
        self._n_original += 1

    def _attach(self, clause: List[int]) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(index)
        self._watches.setdefault(clause[1], []).append(index)
        return index

    def _value(self, literal: int) -> Optional[bool]:
        value = self._assign.get(abs(literal))
        if value is None:
            return None
        return value if literal > 0 else not value

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        var = abs(literal)
        value = literal > 0
        existing = self._assign.get(var)
        if existing is not None:
            return existing == value
        self._assign[var] = value
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)
        self.stats.propagations += 1
        return True

    def _propagate(self) -> Optional[int]:
        """Exhaust unit propagation; the conflicting clause index or None."""
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            watchers = self._watches.get(-p)
            if not watchers:
                continue
            kept: List[int] = []
            conflict: Optional[int] = None
            for position, ci in enumerate(watchers):
                clause = self._clauses[ci]
                if clause[0] == -p:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    kept.append(ci)
                    continue
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(ci)
                        break
                else:
                    kept.append(ci)
                    if self._value(first) is False:
                        kept.extend(watchers[position + 1:])
                        conflict = ci
                        break
                    self._enqueue(first, ci)
            self._watches[-p] = kept
            if conflict is not None:
                self._qhead = len(self._trail)
                return conflict
        return None

    def _bump(self, var: int) -> None:
        self._activity[var] = self._activity.get(var, 0.0) + self._var_inc
        if self._activity[var] > 1e100:
            for key in self._activity:
                self._activity[key] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """1UIP conflict analysis: (learned clause, backjump level)."""
        learnt: List[int] = []
        seen: Set[int] = set()
        counter = 0
        current = len(self._trail_lim)
        reason_clause = self._clauses[conflict]
        p: Optional[int] = None
        index = len(self._trail) - 1
        while True:
            for literal in reason_clause:
                if p is not None and literal == p:
                    continue
                var = abs(literal)
                if var in seen or self._level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] >= current:
                    counter += 1
                else:
                    learnt.append(literal)
            while abs(self._trail[index]) not in seen:
                index -= 1
            p = self._trail[index]
            seen.discard(abs(p))
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason_index = self._reason[abs(p)]
            assert reason_index is not None
            reason_clause = self._clauses[reason_index]
        learnt.insert(0, -p)
        back = 0
        if len(learnt) > 1:
            # Move the highest-level tail literal to the watch slot.
            best = max(
                range(1, len(learnt)), key=lambda i: self._level[abs(learnt[i])]
            )
            learnt[1], learnt[best] = learnt[best], learnt[1]
            back = self._level[abs(learnt[1])]
        return learnt, back

    def _backjump(self, level: int) -> None:
        while len(self._trail_lim) > level:
            mark = self._trail_lim.pop()
            while len(self._trail) > mark:
                literal = self._trail.pop()
                var = abs(literal)
                self._phase[var] = self._assign.pop(var)
                self._level.pop(var, None)
                self._reason.pop(var, None)
        self._qhead = min(self._qhead, len(self._trail))

    def _decide(self) -> Optional[int]:
        best_var = None
        best_act = -1.0
        for var in self._vars:
            if var in self._assign:
                continue
            act = self._activity.get(var, 0.0)
            if act > best_act or (act == best_act and (
                    best_var is None or var < best_var)):
                best_var = var
                best_act = act
        if best_var is None:
            return None
        return best_var if self._phase.get(best_var, True) else -best_var

    def solve(
        self, assumptions: Sequence[int] = ()
    ) -> Optional[Dict[int, bool]]:
        """Search under *assumptions*; a model dict or ``None`` (UNSAT).

        The returned model covers every variable the solver has seen.
        ``None`` means unsatisfiable *under these assumptions* -- other
        assumption sets may still be satisfiable.
        """
        if self._unsat:
            return None
        self._backjump(0)
        self._qhead = 0
        for literal in self._units:
            if not self._enqueue(literal, None):
                self._unsat = True
                return None
        if self._propagate() is not None:
            self._unsat = True
            return None
        assumptions = list(assumptions)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self._trail_lim:
                    return None  # conflict at root: globally UNSAT
                learnt, back = self._analyze(conflict)
                # Never backjump into the assumption prefix's middle: the
                # main loop re-asserts assumptions as needed.
                self._backjump(back)
                self.stats.learned += 1
                self._var_inc *= 1.05
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return None
                else:
                    index = self._attach(learnt)
                    self._n_original -= 1  # _attach counts originals
                    self._enqueue(learnt[0], index)
                continue
            level = len(self._trail_lim)
            if level < len(assumptions):
                literal = assumptions[level]
                value = self._value(literal)
                if value is False:
                    return None  # UNSAT under assumptions
                self._trail_lim.append(len(self._trail))
                if value is None:
                    self._enqueue(literal, None)
                continue
            decision = self._decide()
            if decision is None:
                model = dict(self._assign)
                for var in self._vars:
                    model.setdefault(var, self._phase.get(var, True))
                return model
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)
