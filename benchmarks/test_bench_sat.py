"""SAT solver gates: the cold coNP route on Lemma 19 reductions.

``certain_answer_sat`` -- the falsifying-repair encoding solved by the
library's one CDCL solver, which the coNP ``auto`` route runs after the
fixpoint "no" pre-filter -- decides the Lemma 19 instance
``sat_reduction("ARRX", random_ksat(n, int(4.26 * n), 3, Random(n)))``.
Random 3-SAT at a clause ratio of 4.26 sits at the satisfiability
threshold, where random formulas are hardest for a solver.

* **Conflicts.**  ``details["learned"]`` (one learned clause per
  conflict) repeats exactly for a seed, on any machine, so each n in
  ``SIZES`` is gated at its recorded count (``RECORDED_CONFLICTS``): a
  change that makes the search do more work fails here even where the
  clock would not show it.
* **Time.**  The median of ``ROUNDS`` cold solves at n = ``TIMED_N`` is
  gated at ``TIME_GATE_S``.  Five runs of this test on a 2-core Xeon VM
  read medians of 0.62--0.90 s (single solves 0.57--0.95 s); the
  recursive DPLL the route ran before took 11.9 s there (one run).
* **Answers.**  For n in ``TRUTH_TABLE_SIZES`` the answer equals
  ``not formula.brute_force_satisfiable()``, and at every n the engine's
  ``auto`` route answers as ``certain_answer_sat`` does.

n = 120 is left out: the CDCL takes over 30 s there.

Each gated n is one pytest-benchmark row whose ``extra_info`` carries
the conflicts, the per-round times and the gates; run with
``--benchmark-json BENCH_sat.json`` to record them.
"""

import statistics
import time
from random import Random

import pytest

from repro.cnf.formula import random_ksat
from repro.engine import CertaintyEngine
from repro.reductions.sat_reduction import sat_reduction
from repro.solvers.sat_encoding import certain_answer_sat

QUERY = "ARRX"

SIZES = (30, 60, 90)

#: Conflicts at each n, recorded; the gate is "at most this".
RECORDED_CONFLICTS = {30: 17, 60: 34, 90: 796}

#: The n whose solve time is gated.
TIMED_N = 90

#: Largest median cold solve time, in s, at n = TIMED_N.
TIME_GATE_S = 2.5

#: Cold solves timed per n.
ROUNDS = 5

#: Small enough for a truth table of the formula.
TRUTH_TABLE_SIZES = (10, 15, 20)


def lemma19(n):
    """The seeded threshold 3-SAT formula over n variables and its
    Lemma 19 instance."""
    formula = random_ksat(n, int(4.26 * n), 3, Random(n))
    return formula, sat_reduction(QUERY, formula).instance


@pytest.mark.parametrize("n", TRUTH_TABLE_SIZES)
def test_sat_reduction_matches_truth_table(n):
    formula, db = lemma19(n)
    result = certain_answer_sat(db, QUERY)
    assert result.answer is (not formula.brute_force_satisfiable())
    assert CertaintyEngine().solve(db, QUERY).answer is result.answer


@pytest.mark.parametrize("n", SIZES)
def test_bench_sat_reduction(benchmark, n):
    _formula, db = lemma19(n)
    seconds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = certain_answer_sat(db, QUERY)
        seconds.append(time.perf_counter() - start)
    conflicts = result.details["learned"]
    median = statistics.median(seconds)
    auto = CertaintyEngine().solve(db, QUERY)
    benchmark.pedantic(certain_answer_sat, args=(db, QUERY), rounds=1)
    benchmark.extra_info.update(
        {
            "n": n,
            "facts": len(db),
            "answer": result.answer,
            "conflicts": conflicts,
            "conflicts_gate": RECORDED_CONFLICTS[n],
            "decisions": result.details["decisions"],
            "seconds": [round(s, 4) for s in seconds],
            "median_s": round(median, 4),
            "time_gate_s": TIME_GATE_S if n == TIMED_N else None,
            "notes": "n={}: {} conflicts (gate {}), median {:.3f} s".format(
                n, conflicts, RECORDED_CONFLICTS[n], median
            ),
        }
    )
    assert auto.answer is result.answer, (n, auto.method)
    assert conflicts <= RECORDED_CONFLICTS[n], (
        "n={}: {} conflicts > recorded {}".format(
            n, conflicts, RECORDED_CONFLICTS[n]
        )
    )
    if n == TIMED_N:
        assert median <= TIME_GATE_S, (
            "n={}: median cold solve {:.2f} s > {} s (rounds {})".format(
                n, median, TIME_GATE_S, [round(s, 2) for s in seconds]
            )
        )
