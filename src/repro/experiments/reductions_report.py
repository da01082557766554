"""E8/E9/E10 driver: reduction agreement sweeps against ground truth."""

from __future__ import annotations

import random
from typing import Dict, List

from repro.circuits.circuit import random_assignment, random_monotone_circuit
from repro.cnf.formula import random_ksat
from repro.graphs.digraph import has_directed_path
from repro.graphs.generators import random_dag
from repro.reductions.mcvp import mcvp_reduction
from repro.reductions.reachability import reachability_reduction
from repro.reductions.sat_reduction import sat_reduction
from repro.solvers.certainty import certain_answer


def reachability_agreement(
    query: str = "RRX", trials: int = 20, seed: int = 0
) -> Dict[str, object]:
    """E9: reachability reduction vs graph BFS ground truth."""
    rng = random.Random(seed)
    agree = 0
    for _ in range(trials):
        n = rng.randint(3, 7)
        graph = random_dag(n, 0.3, rng)
        source, target = 0, n - 1
        reduction = reachability_reduction(query, graph, source, target)
        expected = reduction.expected_certainty(
            has_directed_path(graph, source, target)
        )
        agree += certain_answer(reduction.instance, query).answer == expected
    return {"experiment": "E9", "query": query, "trials": trials, "agree": agree}


def sat_agreement(
    query: str = "ARRX", trials: int = 20, seed: int = 0
) -> Dict[str, object]:
    """E8: SAT reduction vs truth-table ground truth."""
    rng = random.Random(seed)
    agree = 0
    for _ in range(trials):
        formula = random_ksat(rng.randint(3, 5), rng.randint(2, 10), 3, rng)
        reduction = sat_reduction(query, formula)
        expected = reduction.expected_certainty(
            formula.brute_force_satisfiable()
        )
        agree += certain_answer(reduction.instance, query).answer == expected
    return {"experiment": "E8", "query": query, "trials": trials, "agree": agree}


def mcvp_agreement(
    query: str = "RXRYRY", trials: int = 20, seed: int = 0
) -> Dict[str, object]:
    """E10: MCVP reduction vs circuit-evaluation ground truth."""
    rng = random.Random(seed)
    agree = 0
    for _ in range(trials):
        circuit = random_monotone_circuit(rng.randint(2, 4), rng.randint(2, 8), rng)
        assignment = random_assignment(circuit.inputs, rng)
        reduction = mcvp_reduction(query, circuit, assignment)
        expected = reduction.expected_certainty(circuit.value(assignment))
        agree += certain_answer(reduction.instance, query).answer == expected
    return {"experiment": "E10", "query": query, "trials": trials, "agree": agree}


def full_report(trials: int = 20, seed: int = 0) -> List[Dict[str, object]]:
    return [
        reachability_agreement(trials=trials, seed=seed),
        sat_agreement(trials=trials, seed=seed),
        mcvp_agreement(trials=trials, seed=seed),
    ]
