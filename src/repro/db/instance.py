"""Database instances and blocks (Section 2).

A :class:`DatabaseInstance` is an immutable finite set of facts.  It
precomputes the block structure (maximal sets of key-equal facts), the
active domain, and per-constant outgoing-edge indexes, which all the
algorithms in the paper traverse.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.db.facts import Fact

BlockId = Tuple[str, Hashable]


class Block:
    """A block ``R(c, *)``: all facts with relation ``R`` and key ``c``."""

    __slots__ = ("_id", "_facts")

    def __init__(self, block_id: BlockId, facts: Iterable[Fact]) -> None:
        self._id = block_id
        self._facts: Tuple[Fact, ...] = tuple(sorted(facts))
        if not self._facts:
            raise ValueError("a block cannot be empty")
        for fact in self._facts:
            if fact.block_id != block_id:
                raise ValueError(
                    "fact {} does not belong to block {}".format(fact, block_id)
                )

    @classmethod
    def presorted(cls, block_id: BlockId, facts: Tuple[Fact, ...]) -> "Block":
        """Assemble a block from an already-sorted, validated fact tuple.

        Trusted internal fast path (instance construction, overlay
        commits): skips the per-construction re-sort and membership
        validation of ``__init__``, which dominate block construction
        cost on hot update paths.  Callers must pass a nonempty tuple of
        facts sorted in :class:`~repro.db.facts.Fact` order, all
        belonging to *block_id*.
        """
        block = cls.__new__(cls)
        block._id = block_id
        block._facts = facts
        return block

    @property
    def block_id(self) -> BlockId:
        return self._id

    @property
    def relation(self) -> str:
        return self._id[0]

    @property
    def key(self) -> Hashable:
        return self._id[1]

    @property
    def facts(self) -> Tuple[Fact, ...]:
        return self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def is_conflicting(self) -> bool:
        """True iff the block contains more than one fact."""
        return len(self._facts) > 1

    def __str__(self) -> str:
        return "{}({}, *) = {{{}}}".format(
            self.relation, self.key, ", ".join(str(f.value) for f in self._facts)
        )

    __repr__ = __str__


class DatabaseInstance:
    """An immutable database instance: a finite set of facts.

    >>> db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)])
    >>> db.is_consistent()
    False
    >>> len(db.blocks())
    1
    """

    __slots__ = (
        "_facts",
        "_blocks",
        "_adom",
        "_out_index",
        "_hash",
        "_sorted_adom",
        "_refcounts",
        "_compact",
    )

    def __init__(self, facts: Iterable[Fact]) -> None:
        self._facts: FrozenSet[Fact] = frozenset(facts)
        grouped: Dict[BlockId, List[Fact]] = {}
        adom = set()
        for fact in self._facts:
            grouped.setdefault(fact.block_id, []).append(fact)
            adom.add(fact.key)
            adom.add(fact.value)
        # The out-edge index partitions facts exactly like the blocks do
        # ((key, relation) vs (relation, key)), so one sort per block
        # serves both; Block.presorted skips the redundant re-sort.
        blocks: Dict[BlockId, Block] = {}
        out_index: Dict[Tuple[Hashable, str], Tuple[Fact, ...]] = {}
        for block_id, facts_ in grouped.items():
            facts_.sort()
            block = Block.presorted(block_id, tuple(facts_))
            blocks[block_id] = block
            out_index[(block_id[1], block_id[0])] = block.facts
        self._blocks = blocks
        self._adom: FrozenSet[Hashable] = frozenset(adom)
        self._out_index = out_index
        self._hash: Optional[int] = None
        self._sorted_adom: Optional[Tuple[Hashable, ...]] = None
        self._refcounts: Optional[Dict[Hashable, int]] = None
        self._compact = None

    @classmethod
    def _from_parts(
        cls,
        facts: FrozenSet[Fact],
        blocks: Dict[BlockId, Block],
        adom: FrozenSet[Hashable],
        out_index: Dict[Tuple[Hashable, str], Tuple[Fact, ...]],
        refcounts: Optional[Dict[Hashable, int]] = None,
    ) -> "DatabaseInstance":
        """Assemble an instance from prebuilt structures without the O(db)
        re-indexing pass.  Used by :class:`repro.db.delta.DeltaInstance` to
        commit O(delta)-patched copies of an existing instance's indexes;
        callers are responsible for the structures being consistent."""
        instance = cls.__new__(cls)
        instance._facts = facts
        instance._blocks = blocks
        instance._adom = adom
        instance._out_index = out_index
        instance._hash = None
        instance._sorted_adom = None
        instance._refcounts = refcounts
        instance._compact = None
        return instance

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_triples(
        cls, triples: Iterable[Tuple[str, Hashable, Hashable]]
    ) -> "DatabaseInstance":
        """Build an instance from ``(relation, key, value)`` triples."""
        return cls(Fact(r, k, v) for r, k, v in triples)

    @classmethod
    def empty(cls) -> "DatabaseInstance":
        return cls(())

    def union(self, other: "DatabaseInstance") -> "DatabaseInstance":
        return DatabaseInstance(self._facts | other._facts)

    def with_facts(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        return DatabaseInstance(self._facts | frozenset(facts))

    def without_facts(self, facts: Iterable[Fact]) -> "DatabaseInstance":
        return DatabaseInstance(self._facts - frozenset(facts))

    # ------------------------------------------------------------------
    # Set protocol
    # ------------------------------------------------------------------

    @property
    def facts(self) -> FrozenSet[Fact]:
        return self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts))

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DatabaseInstance):
            return self._facts == other._facts
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("DatabaseInstance", self._facts))
        return self._hash

    def __le__(self, other: "DatabaseInstance") -> bool:
        """Subinstance test."""
        return self._facts <= other._facts

    def __reduce__(self):
        # The wire-format contract (relied on by engine worker pools and
        # the serving layer's ProcessTransport, regression-tested by
        # tests/test_transport_contract.py): ship ONLY the facts.  The
        # indexes rebuild deterministically on the receiving side, and
        # the cached CompactInstance must NOT cross process boundaries
        # (it is a derived cache, as large as the facts) -- a receiver
        # compiles its own compact view from the facts and reaches the
        # same answers.
        return (DatabaseInstance, (tuple(self._facts),))

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in self) + "}"

    __repr__ = __str__

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def adom(self) -> FrozenSet[Hashable]:
        """``adom(db)``: the active domain (all constants occurring)."""
        return self._adom

    def sorted_adom(self) -> Tuple[Hashable, ...]:
        """The active domain in canonical (string) order, cached.

        Every deterministic sweep over the domain -- the FO solver probing
        constants, the generic FO evaluator's quantifier ranges, path
        enumeration -- needs this order; computing it once per instance
        instead of per call keeps repeated probes O(1) after the first.
        """
        if self._sorted_adom is None:
            self._sorted_adom = tuple(sorted(self._adom, key=str))
        return self._sorted_adom

    def adom_refcounts(self) -> Dict[Hashable, int]:
        """Occurrence counts of each constant (key + value positions).

        A constant is in ``adom`` iff its count is positive; delta overlays
        patch these counts to maintain the domain in O(delta) under fact
        removal.  Built lazily once per instance; callers must not mutate
        the returned dict.
        """
        if self._refcounts is None:
            counts: Dict[Hashable, int] = {}
            for fact in self._facts:
                counts[fact.key] = counts.get(fact.key, 0) + 1
                counts[fact.value] = counts.get(fact.value, 0) + 1
            self._refcounts = counts
        return self._refcounts

    def relation_names(self) -> FrozenSet[str]:
        return frozenset(f.relation for f in self._facts)

    def blocks(self) -> List[Block]:
        """All blocks, in canonical order."""
        return [self._blocks[bid] for bid in sorted(self._blocks, key=str)]

    def conflicting_blocks(self) -> List[Block]:
        """All blocks with more than one fact."""
        return [b for b in self.blocks() if b.is_conflicting()]

    def block(self, relation: str, key: Hashable) -> Optional[Block]:
        """The block ``R(c, *)``, or ``None`` if empty in this instance."""
        return self._blocks.get((relation, key))

    def out_facts(self, constant: Hashable, relation: str) -> Tuple[Fact, ...]:
        """All facts ``relation(constant, *)`` -- the block as a tuple."""
        return self._out_index.get((constant, relation), ())

    def compact(self):
        """The array-backed :class:`~repro.db.compact.CompactInstance`.

        Compiled lazily on first use and cached for the lifetime of this
        (immutable) instance; overlay commits carry the cache forward by
        patching it in O(delta), see
        :meth:`repro.db.delta.DeltaInstance.commit`.
        """
        if self._compact is None:
            from repro.db.compact import CompactInstance

            self._compact = CompactInstance.build(self)
        return self._compact

    def is_consistent(self) -> bool:
        """True iff no block contains more than one fact."""
        return all(len(block) == 1 for block in self._blocks.values())

    def is_repair_of(self, db: "DatabaseInstance") -> bool:
        """True iff this instance is a repair of *db*.

        A repair is a maximal consistent subinstance: consistent, contained
        in *db*, and containing exactly one fact from every block of *db*.
        """
        if not self._facts <= db._facts:
            return False
        if not self.is_consistent():
            return False
        return len(self._blocks) == len(db._blocks)
