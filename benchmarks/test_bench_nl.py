"""E7: the linear-Datalog NL solver (Lemma 14).

Measures program generation (per query, cached in production use) and
``method="nl"`` evaluation; asserts agreement with the fixpoint
algorithm, the cross-check that the generated Claim 5 programs are
faithful, and that the compact engine's materialization equals the
scan-and-unify reference's.  How the Claim 5 route's cost grows with
the data is gated in ``test_bench_scaling.py`` (the ``RRX-nl`` row).
"""

import pytest

from repro.datalog.cqa_program import build_cqa_program, instance_to_edb
from repro.datalog.engine import evaluate_program, evaluate_program_naive
from repro.solvers.fixpoint import certain_answer_fixpoint
from repro.solvers.nl_solver import certain_answer_nl
from repro.workloads.generators import chain_instance, planted_instance

from conftest import seeded

NL_QUERIES = ["RRX", "RXRY", "UVUVWV"]


@pytest.mark.parametrize("query", NL_QUERIES)
def test_bench_e7_program_generation(benchmark, query):
    program = benchmark(build_cqa_program, query)
    assert len(program.program) > 0


@pytest.mark.parametrize("query", NL_QUERIES)
@pytest.mark.parametrize("n_facts", [40, 160])
def test_bench_e7_nl_evaluation(benchmark, query, n_facts):
    rng = seeded(n_facts * 13 + len(query))
    db = planted_instance(
        rng, query, n_constants=max(6, n_facts // 8),
        n_paths=n_facts // (4 * len(query)) + 1,
        n_noise_facts=n_facts // 2, conflict_rate=0.4,
    )
    result = benchmark(certain_answer_nl, db, query)
    assert result.answer == certain_answer_fixpoint(db, query).answer
    cqa = build_cqa_program(query)
    edb = instance_to_edb(db)
    assert evaluate_program(cqa.program, edb) == evaluate_program_naive(
        cqa.program, edb
    )


@pytest.mark.parametrize("repetitions", [10, 40])
def test_bench_e7_nl_chain(benchmark, repetitions):
    db = chain_instance("RRX", repetitions=repetitions, conflict_every=4)
    result = benchmark(certain_answer_nl, db, "RRX")
    assert result.answer == certain_answer_fixpoint(db, "RRX").answer
