"""Compiled query plans and the batched certainty engine.

The per-query work of CERTAINTY(q) -- Theorem 3 classification, the
Figure 5 prefix tables, Claim 5 program generation, automata and FO
rewritings -- is polynomial in ``|q|`` and independent of the data, so a
serving system should pay it once per query.  This package separates that
compilation (:class:`CompiledQuery`) from per-instance execution
(:class:`CertaintyEngine`), which batches instances through cached plans:

>>> from repro.engine import CertaintyEngine
>>> from repro.db.instance import DatabaseInstance
>>> engine = CertaintyEngine()
>>> db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 0)])
>>> [r.answer for r in engine.solve_batch([(db, "RR"), (db, "RRR")])]
[True, True]
"""

from repro.engine.engine import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_STATE_CACHE_SIZE,
    CertaintyEngine,
    EngineStats,
    default_engine,
)
from repro.engine.plan import (
    CompiledGeneralizedQuery,
    CompiledQuery,
    conp_solve,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_STATE_CACHE_SIZE",
    "CertaintyEngine",
    "EngineStats",
    "default_engine",
    "CompiledGeneralizedQuery",
    "CompiledQuery",
    "conp_solve",
]
