"""Seeded inputs for the serving benchmark.

Every input is built here from the run's ``--seed``, so the program under
test only ever sees the generated facts and deltas.  The generators are
the benchmark's own rather than :mod:`repro.workloads`, so a change to the
program's generators cannot change what the benchmark measures.

Shapes are built once per run; the instances the timed operations see
are *relabelings* of a shape (every constant shifted by a per-copy
offset).  A relabeling is a fresh object with fresh content, so no
value-keyed cache of the program can recognise it, and since the queries
carry no constants, CERTAINTY is invariant under the renaming: the oracle
answer of the shape is the answer of every copy.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.db.delta import Delta
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance

#: One canonical query per class of the tetrachotomy.
QUERIES = {"fo": "RXRX", "nl": "RRX", "ptime": "RXRYRY", "conp": "ARRX"}
CLASSES = ("fo", "nl", "ptime", "conp")

Triple = Tuple[str, int, int]

#: Offsets of relabeled copies are multiples of this, above every shape's
#: own constants.
_RELABEL_STRIDE = 10_000_000


def chain(
    rng: random.Random, query: str, length: int, conflict_every: int
) -> List[Triple]:
    """A path of *length* facts spelling *query* over and over, with a
    dead-end alternative fact in the block of every *conflict_every*-th
    node.  Node names are a seeded permutation, so iteration orders vary
    with the seed while sizes do not.

    With ``conflict_every=1`` a repair can pick every dead end, so the
    query is not certain; sparse conflicts leave it certain.
    """
    dead_ends = len(range(0, length, conflict_every))
    names = list(range(length + 1 + dead_ends))
    rng.shuffle(names)
    triples = [
        (query[p % len(query)], names[p], names[p + 1]) for p in range(length)
    ]
    dead = length + 1
    for p in range(0, length, conflict_every):
        triples.append((query[p % len(query)], names[p], names[dead]))
        dead += 1
    return triples


def gadget(rng: random.Random, branches: int) -> List[Triple]:
    """A coNP hardness gadget for ``ARRX`` whose answer is a provable "no".

    Every branch forks after its ``A`` fact into a conflicting ``R``
    block: one side completes ``ARRX`` exactly, the other is one ``R``
    too long.  A repair taking the long side everywhere has no
    ``ARRX``-path, yet the Figure 5 fixpoint cannot dismiss the query,
    so the answer is only reached by the SAT route.
    """
    names = list(range(9 * branches))
    rng.shuffle(names)
    fresh = iter(names)
    triples: List[Triple] = []
    for _ in range(branches):
        root, a, b, c = next(fresh), next(fresh), next(fresh), next(fresh)
        b1, b2 = next(fresh), next(fresh)
        c1, c2, c3 = next(fresh), next(fresh), next(fresh)
        triples += [
            ("A", root, a),
            ("R", a, b),
            ("R", a, c),
            ("R", b, b1),
            ("X", b1, b2),
            ("R", c, c1),
            ("R", c1, c2),
            ("X", c2, c3),
        ]
    rng.shuffle(triples)
    return triples


def instance(triples: Sequence[Triple], copy: int = 0) -> DatabaseInstance:
    """Copy number *copy* of a shape: a fresh instance whose constants are
    shifted by ``copy * stride`` (``copy=0`` is the shape itself)."""
    offset = copy * _RELABEL_STRIDE
    return DatabaseInstance(
        Fact(relation, key + offset, value + offset)
        for relation, key, value in triples
    )


class DeltaStream:
    """A seeded firehose of 1-2 edit deltas against one resident.

    Inserts draw fresh facts over the resident's relations and constants,
    removes pick a live fact, so no edit is a no-op.  The k-th delta
    depends only on the seed and the base facts, never on how fast the
    stream is consumed.  Live facts sit in a list with a position map, so
    each delta costs O(1) to draw, not a sort of the resident.
    """

    def __init__(self, rng: random.Random, base: DatabaseInstance) -> None:
        self.rng = rng
        self.live: List[Fact] = sorted(base.facts)
        self.where: Dict[Fact, int] = {f: i for i, f in enumerate(self.live)}
        self.relations = sorted({f.relation for f in self.live})
        self.constants = sorted(base.adom())

    def _remove(self, fact: Fact) -> None:
        index = self.where.pop(fact)
        last = self.live.pop()
        if last is not fact:
            self.live[index] = last
            self.where[last] = index

    def next(self) -> Delta:
        rng = self.rng
        removes: List[Fact] = []
        inserts: List[Fact] = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.4 and len(self.live) > 1:
                fact = self.live[rng.randrange(len(self.live))]
                if fact in inserts:
                    # Deltas remove before they insert: removing a fact
                    # this delta inserts would be undone by the insert.
                    continue
                self._remove(fact)
                removes.append(fact)
            else:
                while True:
                    fact = Fact(
                        rng.choice(self.relations),
                        rng.choice(self.constants),
                        rng.choice(self.constants),
                    )
                    if fact not in self.where and fact not in removes:
                        break
                self.where[fact] = len(self.live)
                self.live.append(fact)
                inserts.append(fact)
        return Delta(removes=tuple(removes), inserts=tuple(inserts))
