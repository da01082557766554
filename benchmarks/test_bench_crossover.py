"""E11: solver crossover -- polynomial algorithms vs exponential baselines.

The shape Theorem 3 predicts: brute-force repair enumeration grows
exponentially with the number of conflicting blocks while the fixpoint
algorithm stays polynomial; the SAT encoding sits in between (polynomial
encoding, exponential worst-case search).
"""

import pytest

from repro.db.repairs import count_repairs
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.fixpoint import certain_answer_fixpoint
from repro.solvers.sat_encoding import certain_answer_sat
from repro.workloads.generators import chain_instance


def conflicted_chain(repetitions):
    return chain_instance("RRX", repetitions=repetitions, conflict_every=3)


@pytest.mark.parametrize("repetitions", [2, 4, 6])
def test_bench_e11_brute_force(benchmark, repetitions):
    db = conflicted_chain(repetitions)
    assert count_repairs(db) == 2 ** len(db.conflicting_blocks())
    result = benchmark(certain_answer_brute_force, db, "RRX")
    assert result.answer == certain_answer_fixpoint(db, "RRX").answer


@pytest.mark.parametrize("repetitions", [2, 4, 6, 12, 24])
def test_bench_e11_fixpoint(benchmark, repetitions):
    db = conflicted_chain(repetitions)
    result = benchmark(certain_answer_fixpoint, db, "RRX")
    if count_repairs(db) <= 10_000:
        assert result.answer == certain_answer_brute_force(db, "RRX").answer


@pytest.mark.parametrize("repetitions", [2, 4, 6, 12])
def test_bench_e11_sat(benchmark, repetitions):
    db = conflicted_chain(repetitions)
    result = benchmark(certain_answer_sat, db, "RRX")
    assert result.answer == certain_answer_fixpoint(db, "RRX").answer
