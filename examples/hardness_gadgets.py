"""Hardness gadgets in action: the Section 7 reductions, end to end.

* Lemma 18: REACHABILITY -> complement of CERTAINTY(RRX)  (NL-hardness);
* Lemma 19: SAT          -> complement of CERTAINTY(ARRX) (coNP-hardness);
* Lemma 20: MCVP         -> CERTAINTY(RXRYRY)             (PTIME-hardness).

Each section builds the paper's own running example (Figures 8, 9, 10),
solves the produced CERTAINTY instance, and checks the reduction's
correctness statement against independently computed ground truth.

Run:  python examples/hardness_gadgets.py
"""

import random

from repro.circuits.circuit import Gate, MonotoneCircuit
from repro.cnf.formula import Clause, CnfFormula
from repro.graphs.digraph import DiGraph, has_directed_path
from repro.reductions.mcvp import mcvp_reduction
from repro.reductions.reachability import reachability_reduction
from repro.reductions.sat_reduction import sat_reduction
from repro.solvers.certainty import certain_answer


def lemma18_demo() -> None:
    print("Lemma 18 (Figure 8): graph s -> a -> t, query RRX")
    graph = DiGraph(edges=[("s", "a"), ("a", "t")])
    reduction = reachability_reduction("RRX", graph, "s", "t")
    print("  witness decomposition:", reduction.witness)
    print("  instance size:", len(reduction.instance), "facts")
    reachable = has_directed_path(graph, "s", "t")
    result = certain_answer(reduction.instance, "RRX")
    print("  reachable: {}  =>  CERTAINTY = {} (expected {})".format(
        reachable, result.answer, reduction.expected_certainty(reachable)))
    assert result.answer == reduction.expected_certainty(reachable)

    # Break the path: certainty flips to yes.
    broken = DiGraph(vertices=["s", "a", "t"], edges=[("s", "a")])
    reduction2 = reachability_reduction("RRX", broken, "s", "t")
    result2 = certain_answer(reduction2.instance, "RRX")
    print("  without the a->t edge: CERTAINTY = {}".format(result2.answer))
    assert result2.answer
    print()


def lemma19_demo() -> None:
    print("Lemma 19 (Figure 9): ψ = (x1 ∨ ¬x2) ∧ (¬x2 ∨ x3), query ARRX")
    formula = CnfFormula(
        [
            Clause((("x1", True), ("x2", False))),
            Clause((("x2", False), ("x3", True))),
        ]
    )
    reduction = sat_reduction("ARRX", formula)
    print("  instance size:", len(reduction.instance), "facts")
    satisfiable = formula.brute_force_satisfiable()
    result = certain_answer(reduction.instance, "ARRX")
    print("  satisfiable: {}  =>  CERTAINTY = {} (expected {})".format(
        satisfiable, result.answer, reduction.expected_certainty(satisfiable)))
    assert result.answer == reduction.expected_certainty(satisfiable)

    unsat = CnfFormula([Clause((("x1", True),)), Clause((("x1", False),))])
    result2 = certain_answer(sat_reduction("ARRX", unsat).instance, "ARRX")
    print("  on an unsatisfiable formula: CERTAINTY = {}".format(result2.answer))
    assert result2.answer
    print()


def lemma20_demo() -> None:
    print("Lemma 20 (Figure 10): circuit o = (x1 ∧ x2) ∨ x3, query RXRYRY")
    circuit = MonotoneCircuit(
        ["x1", "x2", "x3"],
        [Gate("g1", "and", "x1", "x2"), Gate("o", "or", "g1", "x3")],
        "o",
    )
    for assignment in (
        {"x1": True, "x2": True, "x3": False},
        {"x1": True, "x2": False, "x3": False},
        {"x1": False, "x2": False, "x3": True},
    ):
        reduction = mcvp_reduction("RXRYRY", circuit, assignment)
        value = circuit.value(assignment)
        result = certain_answer(reduction.instance, "RXRYRY")
        print("  σ = {}  circuit = {}  CERTAINTY = {}".format(
            assignment, value, result.answer))
        assert result.answer == reduction.expected_certainty(value)
    print()


def random_agreement_sweep() -> None:
    rng = random.Random(7)
    from repro.graphs.generators import random_dag

    agreements = 0
    trials = 20
    for _ in range(trials):
        graph = random_dag(6, 0.3, rng)
        reduction = reachability_reduction("RRX", graph, 0, 5)
        reachable = has_directed_path(graph, 0, 5)
        result = certain_answer(reduction.instance, "RRX")
        agreements += result.answer == reduction.expected_certainty(reachable)
    print("Random sweep: {}/{} reachability reductions agree".format(
        agreements, trials))
    assert agreements == trials


def main() -> None:
    lemma18_demo()
    lemma19_demo()
    lemma20_demo()
    random_agreement_sweep()


if __name__ == "__main__":
    main()
