"""Solvers for CERTAINTY(q): the paper's algorithms and baselines.

* :mod:`repro.solvers.fixpoint` -- the polynomial-time algorithm of
  Figure 5 (complete for C3 queries; sound for "no" on all queries),
  including the Lemma 9/10 minimal-repair construction used as a
  verifiable "no" certificate;
* :mod:`repro.solvers.fo_solver` -- the first-order rewriting solver
  (Lemmas 12, 13; C1 queries);
* :mod:`repro.solvers.nl_solver` -- the linear-Datalog solver
  (Lemma 14; C2 queries; the forced ``method="nl"``);
* :mod:`repro.solvers.brute_force` -- exhaustive repair enumeration
  (exponential baseline, ground truth for tests);
* :mod:`repro.solvers.sat` / :mod:`repro.solvers.sat_encoding` -- the one
  CDCL SAT solver (cold and warm solves) and the CAvSAT-style encoding
  (generic baseline; the workhorse for coNP-complete queries);
* :mod:`repro.solvers.certainty` -- the classification-driven front end;
* :mod:`repro.solvers.generalized_solver` -- queries with constants
  (Section 8).
"""

from repro.solvers.result import CertaintyResult
from repro.solvers.fixpoint import (
    FixpointState,
    build_minimal_repair,
    certain_answer_fixpoint,
    certain_answer_incremental,
    fixpoint_relation,
)
from repro.solvers.state_cache import StateCache
from repro.solvers.fo_solver import certain_answer_fo
from repro.solvers.nl_solver import certain_answer_nl
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.sat import solve_clauses
from repro.solvers.sat_encoding import certain_answer_sat, encode_falsifying_repair
from repro.solvers.certainty import certain_answer
from repro.solvers.generalized_solver import certain_answer_generalized
from repro.solvers.answers import certain_head_answers, certain_tail_answers
from repro.solvers.counting import (
    count_satisfying_repairs,
    estimate_satisfying_fraction,
)
from repro.solvers.verify import verify_result

__all__ = [
    "CertaintyResult",
    "FixpointState",
    "build_minimal_repair",
    "certain_answer_fixpoint",
    "certain_answer_incremental",
    "fixpoint_relation",
    "certain_answer_fo",
    "certain_answer_nl",
    "certain_answer_brute_force",
    "solve_clauses",
    "certain_answer_sat",
    "encode_falsifying_repair",
    "certain_answer",
    "certain_answer_generalized",
    "certain_head_answers",
    "certain_tail_answers",
    "count_satisfying_repairs",
    "estimate_satisfying_fraction",
    "verify_result",
]
