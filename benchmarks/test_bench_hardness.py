"""E8 + E9 + E10: the hardness reductions as workloads.

E9: reachability reduction instances solved by the NL/PTIME machinery --
agreement with graph reachability on every input.
E8: SAT reduction instances -- the coNP pipeline (fixpoint prefilter +
CDCL) against truth-table satisfiability of the formula.
E10: MCVP reduction instances -- the fixpoint algorithm against circuit
evaluation.
"""

import pytest

from repro.circuits.circuit import random_assignment, random_monotone_circuit
from repro.cnf.formula import random_ksat
from repro.graphs.digraph import has_directed_path
from repro.graphs.generators import layered_dag
from repro.reductions.mcvp import mcvp_reduction
from repro.reductions.reachability import reachability_reduction
from repro.reductions.sat_reduction import sat_reduction
from repro.solvers.certainty import certain_answer

from conftest import seeded


@pytest.mark.parametrize("layers", [3, 5, 8])
def test_bench_e9_reachability_pipeline(benchmark, layers):
    rng = seeded(layers)
    graph, source, target = layered_dag(layers, 3, rng, density=0.35)
    reduction = reachability_reduction("RRX", graph, source, target)

    def solve():
        return certain_answer(reduction.instance, "RRX")

    result = benchmark(solve)
    expected = reduction.expected_certainty(
        has_directed_path(graph, source, target)
    )
    assert result.answer == expected


@pytest.mark.parametrize("n_vars,n_clauses", [(4, 8), (6, 18), (8, 30)])
def test_bench_e8_sat_pipeline(benchmark, n_vars, n_clauses):
    rng = seeded(n_vars * 100 + n_clauses)
    formula = random_ksat(n_vars, n_clauses, 3, rng)
    reduction = sat_reduction("ARRX", formula)

    def solve():
        return certain_answer(reduction.instance, "ARRX")

    result = benchmark(solve)
    assert result.answer == reduction.expected_certainty(
        formula.brute_force_satisfiable()
    )


@pytest.mark.parametrize("n_gates", [4, 10, 20])
def test_bench_e10_mcvp_pipeline(benchmark, n_gates):
    rng = seeded(n_gates)
    circuit = random_monotone_circuit(4, n_gates, rng)
    assignment = random_assignment(circuit.inputs, rng)
    reduction = mcvp_reduction("RXRYRY", circuit, assignment)

    def solve():
        return certain_answer(reduction.instance, "RXRYRY")

    result = benchmark(solve)
    assert result.answer == reduction.expected_certainty(
        circuit.value(assignment)
    )
