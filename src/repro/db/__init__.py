"""Database substrate: facts, blocks, instances, repairs, paths.

Implements the data model of Section 2: database instances are finite sets
of binary facts; a *block* is a maximal set of key-equal facts; a *repair*
is an inclusion-maximal consistent subinstance (one fact per block).
"""

from repro.db.facts import Fact
from repro.db.instance import Block, DatabaseInstance
from repro.db.delta import Delta, DeltaInstance
from repro.db.compact import CompactInstance
from repro.db.repairs import (
    count_repairs,
    iter_repairs,
    random_repair,
    repair_signature,
)
from repro.db.paths import (
    Path,
    find_path_with_trace,
    has_path_with_trace,
    is_consistent_path,
    is_terminal,
    iter_paths_with_trace,
)
from repro.db.evaluation import (
    query_satisfied,
    path_query_satisfied,
    rooted_path_query_satisfied,
)

__all__ = [
    "Fact",
    "Block",
    "DatabaseInstance",
    "Delta",
    "DeltaInstance",
    "CompactInstance",
    "count_repairs",
    "iter_repairs",
    "random_repair",
    "repair_signature",
    "Path",
    "find_path_with_trace",
    "has_path_with_trace",
    "is_consistent_path",
    "is_terminal",
    "iter_paths_with_trace",
    "query_satisfied",
    "path_query_satisfied",
    "rooted_path_query_satisfied",
]
