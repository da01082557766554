"""Propositional CNF formulas over named variables.

The SAT problem ("does a CNF formula have a satisfying assignment?") is
the source problem of the Lemma 19 reduction.  Satisfiability here is
decided with the library's own CDCL solver
(:mod:`repro.solvers.sat`), after mapping named variables to integers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

#: A literal: (variable name, polarity); ``("x1", False)`` is ``¬x1``.
Literal = Tuple[str, bool]


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals."""

    literals: Tuple[Literal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))
        if not self.literals:
            raise ValueError("empty clauses are unsatisfiable by fiat; "
                             "construct them explicitly if needed")

    def variables(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.literals)

    def satisfied_by(self, assignment: Dict[str, bool]) -> bool:
        return any(
            assignment.get(name, False) == polarity
            for name, polarity in self.literals
        )

    def __str__(self) -> str:
        rendered = [
            ("" if polarity else "¬") + name for name, polarity in self.literals
        ]
        return "(" + " ∨ ".join(rendered) + ")"


class CnfFormula:
    """A conjunction of clauses."""

    def __init__(self, clauses: Iterable[Clause]) -> None:
        self.clauses: List[Clause] = list(clauses)

    def variables(self) -> List[str]:
        seen = set()
        for clause in self.clauses:
            seen |= clause.variables()
        return sorted(seen)

    def satisfied_by(self, assignment: Dict[str, bool]) -> bool:
        return all(clause.satisfied_by(assignment) for clause in self.clauses)

    def to_int_clauses(self) -> Tuple[List[List[int]], Dict[str, int]]:
        """DIMACS-style integer clauses plus the variable numbering."""
        numbering = {name: i for i, name in enumerate(self.variables(), start=1)}
        clauses = [
            [numbering[name] if polarity else -numbering[name]
             for name, polarity in clause.literals]
            for clause in self.clauses
        ]
        return clauses, numbering

    def satisfying_assignment(self) -> Optional[Dict[str, bool]]:
        """A satisfying assignment via the library CDCL solver, or ``None``."""
        from repro.solvers.sat import solve_clauses

        int_clauses, numbering = self.to_int_clauses()
        model = solve_clauses(int_clauses)
        if model is None:
            return None
        return {name: model.get(index, False) for name, index in numbering.items()}

    def is_satisfiable(self) -> bool:
        return self.satisfying_assignment() is not None

    def brute_force_satisfiable(self) -> bool:
        """Truth-table satisfiability (for cross-checking the CDCL solver)."""
        names = self.variables()
        for values in itertools.product((False, True), repeat=len(names)):
            if self.satisfied_by(dict(zip(names, values))):
                return True
        return False

    def __len__(self) -> int:
        return len(self.clauses)

    def __str__(self) -> str:
        return " ∧ ".join(str(clause) for clause in self.clauses)


def random_ksat(
    n_variables: int, n_clauses: int, k: int, rng: random.Random
) -> CnfFormula:
    """A random k-SAT formula over variables ``x1..xn``.

    Each clause draws *k* distinct variables and independent polarities.
    Around the satisfiability threshold (ratio ~4.27 for 3-SAT) instances
    mix "yes" and "no" answers, which is what the reduction benchmarks
    want.
    """
    if k > n_variables:
        raise ValueError("k cannot exceed the number of variables")
    names = ["x{}".format(i + 1) for i in range(n_variables)]
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(names, k)
        literals = tuple((name, rng.random() < 0.5) for name in chosen)
        clauses.append(Clause(literals))
    return CnfFormula(clauses)
