"""Datalog substrate (Section 6.3).

Rules and programs with stratified negation and a ``neq`` builtin, a
stratifier with a *linearity* check (Lemma 14 places CERTAINTY(q) for C2
queries in *linear* Datalog with stratified negation), a semi-naive
bottom-up engine, and the generator of the Claim 5 CQA programs.
"""

from repro.datalog.syntax import Literal, Program, Rule
from repro.datalog.stratify import is_linear, stratify
from repro.datalog.engine import (
    CompactProgram,
    compact_program,
    evaluate_program,
)
from repro.datalog.cqa_program import build_cqa_program, CqaProgram

__all__ = [
    "Literal",
    "Program",
    "Rule",
    "is_linear",
    "stratify",
    "evaluate_program",
    "CompactProgram",
    "compact_program",
    "build_cqa_program",
    "CqaProgram",
]
