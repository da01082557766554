"""Copy-on-write delta overlays over database instances.

:class:`DatabaseInstance` is immutable and pays O(db) to build, which is
the right trade for the solvers but the wrong one for update streams: a
single-fact insert would re-block, re-index and re-hash the entire
instance.  A :class:`DeltaInstance` is a mutable overlay that records
``insert_fact`` / ``remove_fact`` edits against a base instance, patching
only the touched blocks, the active-domain refcounts, and the
outgoing-edge index entries they affect -- O(delta) bookkeeping per edit.
``commit()`` then produces a full :class:`DatabaseInstance` by shallow-
copying the base's index dicts and overwriting the patched entries, so no
Block is rebuilt and no Fact re-sorted outside the touched blocks.

:class:`Delta` is the immutable description of an update batch (facts to
remove, facts to insert) that the certainty engine's ``solve_delta``
accepts; it applies removals before insertions.

The copy-on-write overlay contract
----------------------------------

Consumers (the engine's ``solve_delta``, ``FixpointState.apply_delta``,
the serving layer's shard workers) rely on these invariants:

* **The base is never mutated.**  Every read on the overlay
  (``block``, ``out_facts``, ``facts``, ``adom`` ...) sees base +
  edits; the base instance stays valid, hashable, and cache-keyable
  throughout.  Committing does not invalidate the overlay either --
  further edits and a re-commit are allowed.
* **Exposed deltas are effective, not literal.**  ``added_facts`` /
  ``removed_facts`` cancel round-trips: inserting a fact that was just
  removed yields an empty effective delta.  Incremental maintainers may
  therefore treat them as a set difference between base and overlay.
* **Cost is O(edits), not O(db).**  Edits patch only the touched
  blocks, the refcount deltas, and the touched out-edge entries;
  ``commit()`` shallow-copies the base's index dicts (C-level copies,
  linear in *entries* but with no re-sorting, re-hashing, or Block
  reconstruction outside touched blocks).
* **Commit is memoized and aliasing-safe.**  ``commit()`` returns the
  same instance object until the next edit, so the engine (which
  commits to key its state cache) and a registry holding the committed
  instance agree by identity, not just value.  An overlay with no
  effective edits commits to the base itself.
* **Value-equal means interchangeable.**  A committed instance equals
  (``==``, ``hash``) a from-scratch ``DatabaseInstance`` with the same
  facts; caches keyed by instance may mix both freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.db.facts import Fact
from repro.db.instance import Block, BlockId, DatabaseInstance


@dataclass(frozen=True)
class Delta:
    """An update batch: facts to remove, then facts to insert.

    >>> delta = Delta.inserting(("R", 0, 1)).then_removing(("R", 0, 2))
    >>> len(delta)
    2
    """

    removes: Tuple[Fact, ...] = ()
    inserts: Tuple[Fact, ...] = ()

    @staticmethod
    def _coerce(facts: Iterable) -> Tuple[Fact, ...]:
        coerced = []
        for fact in facts:
            if not isinstance(fact, Fact):
                fact = Fact(*fact)
            coerced.append(fact)
        return tuple(coerced)

    @classmethod
    def inserting(cls, *facts) -> "Delta":
        """A pure-insertion delta; facts may be ``(relation, key, value)``."""
        return cls(inserts=cls._coerce(facts))

    @classmethod
    def removing(cls, *facts) -> "Delta":
        """A pure-removal delta; facts may be ``(relation, key, value)``."""
        return cls(removes=cls._coerce(facts))

    def then_inserting(self, *facts) -> "Delta":
        return Delta(self.removes, self.inserts + self._coerce(facts))

    def then_removing(self, *facts) -> "Delta":
        return Delta(self.removes + self._coerce(facts), self.inserts)

    def __len__(self) -> int:
        return len(self.removes) + len(self.inserts)

    def apply_to(self, base: DatabaseInstance) -> "DeltaInstance":
        """An overlay over *base* with this delta applied (removals first)."""
        overlay = DeltaInstance(base)
        for fact in self.removes:
            overlay.remove_fact(fact)
        for fact in self.inserts:
            overlay.insert_fact(fact)
        return overlay

    def __str__(self) -> str:
        parts = ["-{}".format(f) for f in self.removes]
        parts += ["+{}".format(f) for f in self.inserts]
        return "Delta[{}]".format(", ".join(parts))


class DeltaInstance:
    """A mutable copy-on-write overlay over a :class:`DatabaseInstance`.

    Reads see the base instance with the recorded edits applied; only the
    touched blocks are materialized in the overlay.  ``added_facts`` /
    ``removed_facts`` expose the *effective* delta (idempotent edits and
    insert/remove round-trips cancel out), which the incremental solvers
    consume.

    >>> base = DatabaseInstance.from_triples([("R", 0, 1), ("R", 1, 2)])
    >>> overlay = DeltaInstance(base)
    >>> overlay.insert_fact(Fact("R", 0, 9))
    True
    >>> sorted(str(f) for f in overlay.block("R", 0))
    ['R(0, 1)', 'R(0, 9)']
    >>> overlay.commit() == base.with_facts([Fact("R", 0, 9)])
    True
    """

    __slots__ = (
        "_base",
        "_touched",
        "_added",
        "_removed",
        "_ref_delta",
        "_committed",
    )

    def __init__(self, base: DatabaseInstance) -> None:
        self._base = base
        #: Current fact list of every touched block (possibly empty).
        self._touched: Dict[BlockId, List[Fact]] = {}
        self._added: Set[Fact] = set()
        self._removed: Set[Fact] = set()
        #: Net refcount change per constant (key + value occurrences).
        self._ref_delta: Dict[Hashable, int] = {}
        #: Memoized result of commit(); invalidated by every edit.
        self._committed: Optional[DatabaseInstance] = None

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------

    @property
    def base(self) -> DatabaseInstance:
        return self._base

    @property
    def added_facts(self) -> FrozenSet[Fact]:
        """Facts present in the overlay but not the base (effective)."""
        return frozenset(self._added)

    @property
    def removed_facts(self) -> FrozenSet[Fact]:
        """Facts present in the base but not the overlay (effective)."""
        return frozenset(self._removed)

    def touched_blocks(self) -> FrozenSet[BlockId]:
        """Block ids whose fact set differs (or was edited) vs the base."""
        return frozenset(self._touched)

    def _block_facts(self, block_id: BlockId) -> List[Fact]:
        facts = self._touched.get(block_id)
        if facts is None:
            block = self._base.block(*block_id)
            facts = list(block.facts) if block is not None else []
            self._touched[block_id] = facts
        return facts

    def _bump(self, constant: Hashable, amount: int) -> None:
        count = self._ref_delta.get(constant, 0) + amount
        if count:
            self._ref_delta[constant] = count
        else:
            self._ref_delta.pop(constant, None)

    def insert_fact(self, fact: Fact) -> bool:
        """Insert *fact*; returns False (no-op) if already present."""
        if not isinstance(fact, Fact):
            fact = Fact(*fact)
        if fact in self:
            return False
        self._committed = None
        self._block_facts(fact.block_id).append(fact)
        if fact in self._removed:
            self._removed.discard(fact)
        else:
            self._added.add(fact)
        self._bump(fact.key, +1)
        self._bump(fact.value, +1)
        return True

    def remove_fact(self, fact: Fact) -> bool:
        """Remove *fact*; returns False (no-op) if not present."""
        if not isinstance(fact, Fact):
            fact = Fact(*fact)
        if fact not in self:
            return False
        self._committed = None
        self._block_facts(fact.block_id).remove(fact)
        if fact in self._added:
            self._added.discard(fact)
        else:
            self._removed.add(fact)
        self._bump(fact.key, -1)
        self._bump(fact.value, -1)
        return True

    def apply(self, delta: Delta) -> "DeltaInstance":
        """Apply *delta* (removals first) to this overlay; returns self."""
        for fact in delta.removes:
            self.remove_fact(fact)
        for fact in delta.inserts:
            self.insert_fact(fact)
        return self

    # ------------------------------------------------------------------
    # Reads (the DatabaseInstance view of base + edits)
    # ------------------------------------------------------------------

    def __contains__(self, fact: Fact) -> bool:
        if fact.block_id in self._touched:
            return fact in self._touched[fact.block_id]
        return fact in self._base

    def __len__(self) -> int:
        return len(self._base) + len(self._added) - len(self._removed)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self.facts))

    @property
    def facts(self) -> FrozenSet[Fact]:
        return (self._base.facts - self._removed) | self._added

    def adom(self) -> FrozenSet[Hashable]:
        base_adom = self._base.adom()
        if not self._ref_delta:
            return base_adom
        base_counts = self._base.adom_refcounts()
        born = {
            c
            for c, d in self._ref_delta.items()
            if d > 0 and c not in base_adom
        }
        dead = {
            c
            for c, d in self._ref_delta.items()
            if d < 0 and base_counts.get(c, 0) + d == 0
        }
        if not born and not dead:
            return base_adom
        return (base_adom | born) - dead

    def sorted_adom(self) -> Tuple[Hashable, ...]:
        return tuple(sorted(self.adom(), key=str))

    def block(self, relation: str, key: Hashable) -> Optional[Block]:
        block_id = (relation, key)
        if block_id in self._touched:
            facts = self._touched[block_id]
            return Block(block_id, facts) if facts else None
        return self._base.block(relation, key)

    def out_facts(self, constant: Hashable, relation: str) -> Tuple[Fact, ...]:
        block_id = (relation, constant)
        if block_id in self._touched:
            return tuple(sorted(self._touched[block_id]))
        return self._base.out_facts(constant, relation)

    def blocks(self) -> List[Block]:
        by_id: Dict[BlockId, Block] = {
            b.block_id: b for b in self._base.blocks()
        }
        for block_id, facts in self._touched.items():
            if facts:
                by_id[block_id] = Block(block_id, facts)
            else:
                by_id.pop(block_id, None)
        return [by_id[bid] for bid in sorted(by_id, key=str)]

    def is_consistent(self) -> bool:
        return all(len(block) == 1 for block in self.blocks())

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def compact(self):
        """The compact view of :meth:`commit`'s instance (solvers read it)."""
        return self.commit().compact()

    def commit(self) -> DatabaseInstance:
        """Freeze the overlay into a :class:`DatabaseInstance`.

        The base's block map, outgoing-edge index, domain and refcounts
        are shallow-copied and only the entries for touched blocks are
        rebuilt, so commit cost is O(delta) block work on top of the
        C-level dict copies (no per-fact re-sorting or re-hashing).

        The result is memoized until the next edit, so committing the
        same overlay twice (the engine commits inside ``solve_delta``;
        the serving layer commits again to advance its registry) pays the
        dict copies once and both callers share one instance object.
        """
        if self._committed is not None:
            return self._committed
        base = self._base
        if not self._added and not self._removed:
            # No *effective* edits (round-trips cancelled out): the
            # touched blocks hold exactly their base facts, so the
            # overlay commits to the base itself.
            return base
        facts = self.facts
        blocks = dict(base._blocks)
        out_index = dict(base._out_index)
        for block_id, block_facts in self._touched.items():
            relation, key = block_id
            if block_facts:
                block_facts.sort()
                block = Block.presorted(block_id, tuple(block_facts))
                blocks[block_id] = block
                out_index[(key, relation)] = block.facts
            else:
                blocks.pop(block_id, None)
                out_index.pop((key, relation), None)
        refcounts = dict(base.adom_refcounts())
        for constant, change in self._ref_delta.items():
            count = refcounts.get(constant, 0) + change
            if count > 0:
                refcounts[constant] = count
            else:
                refcounts.pop(constant, None)
        adom = frozenset(refcounts)
        committed = DatabaseInstance._from_parts(
            facts=facts,
            blocks=blocks,
            adom=adom,
            out_index=out_index,
            refcounts=refcounts,
        )
        if base._compact is not None:
            # Carry the compact execution view forward: patch the
            # parent's view in O(delta) instead of letting the committed
            # instance recompile it from scratch on first kernel use.
            committed._compact = base._compact.patched(
                self._added, self._removed, refcounts
            )
        self._committed = committed
        return self._committed

    def __str__(self) -> str:
        return "DeltaInstance(+{}, -{} over {} facts)".format(
            len(self._added), len(self._removed), len(self._base)
        )

    __repr__ = __str__
