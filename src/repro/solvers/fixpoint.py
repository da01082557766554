"""The polynomial-time fixpoint algorithm of Figure 5 (Section 6.1).

The algorithm computes the relation ``N = { (c, u) : db ⊢_q (c, u) }``
where ``db ⊢_q (c, u)`` means every repair of ``db`` has a path starting
at ``c`` accepted by ``S-NFA(q, u)`` (Definition 10).  Prefixes are
represented by their lengths.

* **Initialization**: ``(c, q)`` for every ``c ∈ adom(db)``.
* **Iterative rule**: if ``uR`` is a prefix of ``q`` and ``R(c, *)`` is a
  nonempty block all of whose facts ``R(c, y)`` have ``(y, uR) ∈ N``,
  add ``(c, u)`` (*forward*) and every ``(c, w)`` such that ``NFA(q)``
  has a backward transition from ``w`` to ``u`` (*backward*).

Lemma 10 proves ``N`` characterizes ``⊢_q`` exactly, for *every* path
query.  By Lemma 7 (reification), for queries satisfying **C3**,
``db`` is a "yes"-instance of CERTAINTY(q) iff ``(c, ε) ∈ N`` for some
``c``.  For queries violating C3 the "yes" direction may overshoot
(Figure 3 is the canonical counterexample), but the "no" direction stays
sound: the Lemma 9/10 repair construction yields a single repair with no
accepted path from any constant, hence falsifying ``q``.

Two kernels compute ``N``:

* :func:`fixpoint_bits` -- the production kernel.  It runs over the
  :class:`~repro.db.compact.CompactInstance` of the database: a pair
  ``(c, u)`` is the single integer ``c_lid * (k+1) + |u|``, membership
  is a ``bytearray`` bit per pair, the per-block countdown counters are
  one flat ``array('l')`` seeded by slice-copying the compact view's
  per-block fact counts, and the in-edge probe indexes the int
  adjacency directly -- no tuple is hashed on the hot path.
* :func:`fixpoint_relation` -- the historical object-level worklist
  over ``(constant, length)`` tuple pairs, retained as the differential
  baseline (``tests/test_compact.py`` pins kernel agreement,
  ``benchmarks/test_bench_compact.py`` pins the compact speedup).

Both run in ``O(|q|·|db| + |q|²·|adom|)``.

The DRed maintenance contract
-----------------------------

:class:`FixpointState` keeps ``N`` alive across updates -- on the
compact representation -- and maintains it under fact deltas with the
delete-and-rederive (DRed) discipline:

* **Over-delete** every pair whose derivation *may* have passed through
  a touched block or a departed constant, closing transitively over the
  old edge index and the backward-companion rule.  Init axioms
  ``(c, |q|)`` are never suspected while ``c`` survives in the domain.
* **Re-derive** from the affected frontier only: the worklist is seeded
  with the suspects, the touched blocks' candidate pairs, and the init
  axioms of newly arrived constants -- work is proportional to the
  affected region, not to ``|db|``.

Callers must uphold, and may rely on, the following:

* ``apply_delta(new_db, added, removed)`` receives the **effective**
  delta from the state's current ``db`` to *new_db* (exactly what
  :class:`repro.db.delta.DeltaInstance` exposes); passing a stale or
  partial delta silently corrupts ``N``.
* After ``apply_delta`` returns, ``state.n_set`` equals
  ``fixpoint_relation(new_db, q)`` exactly -- maintenance is sound *and*
  complete for every path query, independent of C3 (the differential
  tests in ``tests/test_incremental.py`` and ``tests/test_compact.py``
  pin this).
* ``starts`` is the maintained witness set ``{c : (c, ε) ∈ N}``, and
  ``witness`` its ``str``-least member, kept as a cached minimum: an
  arriving start is compared against it, and only the departure of the
  minimum itself leaves a rescan for the next read.  Answer reads never
  scan the domain.
* ``result`` holds the engine's final answer for ``db`` (``None`` until
  the engine stores one); ``apply_delta`` clears it.
* The state is **single-owner**: ``apply_delta`` mutates in place with
  no internal locking.  The engine enforces ownership by checking
  states out of its :class:`~repro.solvers.state_cache.StateCache`
  (checkout semantics) and re-publishing them only after the answer has
  been stored; shard workers get ownership for free from their
  single-threaded execution loop.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.classification.conditions import satisfies_c3
from repro.db.compact import CompactInstance
from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.solvers.result import CertaintyResult, LazyMinimalRepair
from repro.words.word import Word, WordLike

NPair = Tuple[Hashable, int]


@dataclass(frozen=True)
class FixpointTables:
    """The instance-independent prefix tables of the Figure 5 algorithm.

    ``longer_same_end`` drives the backward closure (prefix length ``i``
    maps to the longer prefixes ending in the same symbol); ``ends_with``
    maps each relation name to the prefix lengths ending with it (used by
    the Lemma 9 repair construction).  Built once per query by
    :meth:`build`; compiled plans cache them across instances.
    """

    query: Word
    longer_same_end: Dict[int, Tuple[int, ...]]
    ends_with: Dict[str, Tuple[int, ...]]

    @classmethod
    def build(cls, q: WordLike) -> "FixpointTables":
        q = Word.coerce(q)
        k = len(q)
        longer_same_end = {
            i: tuple(j for j in range(i + 1, k + 1) if q[j - 1] == q[i - 1])
            for i in range(1, k + 1)
        }
        ends_with: Dict[str, List[int]] = {}
        for i, symbol in enumerate(q):
            ends_with.setdefault(symbol, []).append(i + 1)
        return cls(
            query=q,
            longer_same_end=longer_same_end,
            ends_with={s: tuple(v) for s, v in ends_with.items()},
        )

    def longer_list(self) -> List[Tuple[int, ...]]:
        """``longer_same_end`` as a dense list indexed by prefix length."""
        k = len(self.query)
        return [self.longer_same_end.get(i, ()) for i in range(k + 1)]

    def shorter_list(self) -> List[Tuple[int, ...]]:
        """Reverse of ``longer_same_end``, indexed by prefix length."""
        k = len(self.query)
        shorter: List[List[int]] = [[] for _ in range(k + 1)]
        for i, longer in self.longer_same_end.items():
            for j in longer:
                shorter[j].append(i)
        return [tuple(v) for v in shorter]


def fixpoint_relation(
    db: DatabaseInstance,
    q: WordLike,
    tables: Optional[FixpointTables] = None,
) -> Set[NPair]:
    """The relation ``N`` of Figure 5; pairs ``(constant, prefix_length)``.

    This is the **object-level baseline kernel** (tuple pairs, dict/set
    membership), retained as the differential reference the compact
    kernel :func:`fixpoint_bits` is tested and benchmarked against.
    *tables* may carry the precomputed :class:`FixpointTables` for *q*
    (compiled plans pass them; ad-hoc callers leave them to be built).

    >>> db = DatabaseInstance.from_triples(
    ...     [("R", 0, 1), ("R", 1, 2), ("R", 2, 3), ("R", 3, 4), ("X", 4, 5)])
    >>> (0, 0) in fixpoint_relation(db, "RRX")      # Figure 6: <0, ε>
    True
    """
    q = Word.coerce(q)
    k = len(q)
    if k == 0:
        return {(c, 0) for c in db.adom()}

    # Backward closure: for each prefix length i >= 1 (ending with symbol
    # q[i-1]), the longer prefixes j > i with the same ending symbol.
    if tables is None:
        tables = FixpointTables.build(q)
    longer_same_end = tables.longer_same_end

    # Incoming index: (value, relation) -> keys c with relation(c, value).
    in_index: Dict[Tuple[Hashable, str], List[Hashable]] = {}
    for fact in db.facts:
        in_index.setdefault((fact.value, fact.relation), []).append(fact.key)

    n_set: Set[NPair] = set()
    counters: Dict[NPair, int] = {}
    worklist = deque()

    def add(c: Hashable, length: int) -> None:
        pair = (c, length)
        if pair in n_set:
            return
        n_set.add(pair)
        worklist.append(pair)

    def derive(c: Hashable, length: int) -> None:
        """Forward derivation of (c, u) plus its backward companions."""
        add(c, length)
        if length >= 1:
            for j in longer_same_end[length]:
                add(c, j)

    for c in db.adom():
        add(c, k)

    while worklist:
        y, j = worklist.popleft()
        if j == 0:
            continue
        relation = q[j - 1]
        for c in in_index.get((y, relation), ()):  # facts relation(c, y)
            pair = (c, j - 1)
            if pair in n_set:
                continue
            if pair not in counters:
                counters[pair] = len(db.out_facts(c, relation))
            counters[pair] -= 1
            if counters[pair] == 0:
                derive(c, j - 1)
    return n_set


class CompactNRelation:
    """The Figure 5 relation ``N`` as a bitset over a compact instance.

    One byte per pair ``(c, u)`` at index ``c_lid * (k+1) + |u|``.
    Supports the membership protocol the object-level consumers use
    (``(constant, length) in n``), ``len`` (pair count), and decoding
    back to the tuple-pair set for differential testing.
    """

    __slots__ = ("compact", "k", "stride", "bits", "_count")

    def __init__(self, compact: CompactInstance, k: int, bits: bytearray) -> None:
        self.compact = compact
        self.k = k
        self.stride = k + 1
        self.bits = bits
        self._count: Optional[int] = None

    def __contains__(self, pair: NPair) -> bool:
        constant, length = pair
        lid = self.compact.local_of.get(constant)
        if lid is None or not 0 <= length <= self.k:
            return False
        return self.bits[lid * self.stride + length] != 0

    def __len__(self) -> int:
        if self._count is None:
            self._count = self.bits.count(1)
        return self._count

    def __iter__(self) -> Iterator[NPair]:
        consts = self.compact.consts
        stride = self.stride
        for index, bit in enumerate(self.bits):
            if bit:
                yield (consts[index // stride], index % stride)

    def to_set(self) -> Set[NPair]:
        """Decode into the object-level pair set (differential tests)."""
        return set(self)

    def start_constants(self) -> List[Hashable]:
        """The constants ``c`` with ``(c, ε) ∈ N`` (Lemma 7 witnesses)."""
        consts = self.compact.consts
        return [
            consts[lid]
            for lid, bit in enumerate(self.bits[0 :: self.stride])
            if bit
        ]


def _kernel_plan(compact: CompactInstance, syms: Tuple[str, ...]):
    """The per-``(instance, query-shape)`` arrays of the compact kernel.

    ``inflat[p]`` for the encoded pair ``p = y*(k+1) + j`` is the tuple
    of encoded pairs ``(c, j-1)`` for the in-edges ``q[j-1](c, y)`` --
    the probe targets, pre-scaled so the hot loop does no arithmetic per
    edge.  ``counters`` is the countdown template: the counter of
    ``(c, j-1)`` starts at the fact count of the block ``q[j-1](c, *)``
    (the compact view's per-block counts array slice-copies straight
    into the right positions; zero-degree blocks never receive a
    decrement, so 0 is safe there).  Cached on the immutable view, so a
    warm instance pays only the worklist per solve.
    """

    def build():
        k = len(syms)
        stride = k + 1
        n_all = compact.n * stride
        inflat: List[Tuple[int, ...]] = [()] * n_all
        counters = array("l", [0]) * n_all
        for pos, symbol in enumerate(syms):
            in_rows = compact.in_.get(symbol)
            if in_rows is None:
                continue
            j = pos + 1
            for y, srcs in enumerate(in_rows):
                if srcs:
                    inflat[y * stride + j] = tuple(
                        c * stride + pos for c in srcs
                    )
            counters[pos::stride] = compact.out_deg[symbol]
        return counters, inflat

    return compact.cached_plan(("fixpoint", syms), build)


def fixpoint_bits(
    db,
    q: WordLike,
    tables: Optional[FixpointTables] = None,
) -> CompactNRelation:
    """The Figure 5 relation ``N``, computed by the compact kernel.

    Semantically identical to :func:`fixpoint_relation`; operationally a
    worklist of ``(const_lid, prefix_len)`` pairs encoded as single
    integers, with bitset membership, per-block countdown counters in
    one flat array, and a pre-scaled in-edge adjacency cached per
    ``(instance, query)`` on the cached view ``db.compact()``.

    >>> db = DatabaseInstance.from_triples(
    ...     [("R", 0, 1), ("R", 1, 2), ("R", 2, 3), ("R", 3, 4), ("X", 4, 5)])
    >>> n = fixpoint_bits(db, "RRX")
    >>> (0, 0) in n and n.to_set() == fixpoint_relation(db, "RRX")
    True
    """
    q = Word.coerce(q)
    compact = db.compact()
    k = len(q)
    n = compact.n
    stride = k + 1
    alive = compact.alive
    bits = bytearray(n * stride)
    if n == 0:
        return CompactNRelation(compact, k, bits)
    # Init axioms (c, |q|) for every live constant, via byte-slice copy.
    bits[k::stride] = alive
    if k == 0:
        return CompactNRelation(compact, 0, bits)
    if tables is None:
        tables = FixpointTables.build(q)
    longer = tables.longer_list()
    # Backward companions as offsets from the derived pair's encoding:
    # deriving p2 = c*stride + i also derives p2 + (j2 - i) for each
    # longer prefix j2 ending like i.
    comp_off = [tuple(j2 - i for j2 in longer[i]) for i in range(stride)]
    counter_template, inflat = _kernel_plan(compact, q.symbols)
    counters = array("l", counter_template)

    if alive.count(0) == 0:
        work = list(range(k, n * stride, stride))
    else:
        work = [p for p in range(k, n * stride, stride) if bits[p]]
    push = work.append
    pop = work.pop
    while work:
        p = pop()
        j = p % stride
        if j == 0:
            continue
        srcs = inflat[p]
        if not srcs:
            continue
        offs = comp_off[j - 1]
        for p2 in srcs:
            if bits[p2]:
                continue
            count = counters[p2] - 1
            counters[p2] = count
            if count == 0:
                # Forward derivation of (c, j-1) plus its backward
                # companions (the longer prefixes ending the same way).
                bits[p2] = 1
                push(p2)
                for off in offs:
                    p3 = p2 + off
                    if not bits[p3]:
                        bits[p3] = 1
                        push(p3)
    return CompactNRelation(compact, k, bits)


class FixpointState:
    """Persistent Figure 5 state for one ``(db, q)``, maintainable under
    fact deltas -- held in the compact integer representation.

    Holds the relation ``N`` as a growable pair bitset, per-query-symbol
    int in/out adjacency (sparse dicts keyed by local constant id), and
    the per-query prefix tables.  ``apply_delta`` folds a batch of
    inserted/removed facts into ``N`` with the DRed discipline:
    *over-delete* every pair whose derivation may have passed through a
    touched block (closing transitively over the old edges and the
    backward-companion rule), then *re-derive* from the surviving pairs
    -- the worklist is seeded with the touched blocks' candidate pairs,
    the deleted pairs themselves, and the init axioms of newly arrived
    constants, so the work is proportional to the affected region, not
    the database.

    The init axioms ``(c, |q|)`` for ``c ∈ adom`` are never suspected
    (they hold by definition while ``c`` survives in the domain).
    Constants keep their local id for the lifetime of the state;
    departed constants simply hold no pairs and no edges.
    """

    __slots__ = (
        "db",
        "query",
        "tables",
        "starts",
        "result",
        "_witness",
        "_witness_stale",
        "_consts",
        "_local_of",
        "_stride",
        "_bits",
        "_count",
        "_in",
        "_out",
        "_longer",
        "_shorter",
    )

    def __init__(
        self,
        db: DatabaseInstance,
        query: Word,
        tables: FixpointTables,
        n_bits: CompactNRelation,
    ) -> None:
        self.db = db
        self.query = query
        self.tables = tables
        compact = n_bits.compact
        self._consts: List[Hashable] = list(compact.consts)
        self._local_of: Dict[Hashable, int] = dict(compact.local_of)
        self._stride = n_bits.stride
        self._bits = bytearray(n_bits.bits)
        self._count = len(n_bits)
        #: Constants c with (c, ε) ∈ N -- the certainty witnesses (Lemma
        #: 7), maintained so answers need no domain scan.
        self.starts: Set[Hashable] = set(n_bits.start_constants())
        self._witness: Optional[Hashable] = min(
            self.starts, key=str, default=None
        )
        # Stale: the minimum left ``starts``; ``_witness`` is then still
        # a lower bound (by ``str``) of every start present since.
        self._witness_stale = False
        #: The engine's final answer for ``db``, kept so a read with no
        #: effective edit is a lookup; cleared by every delta.
        self.result: Optional[CertaintyResult] = None
        # Mutable per-symbol adjacency over local ids, restricted to the
        # query's alphabet (the only relations the Figure 5 rules read).
        self._in: Dict[str, Dict[int, Set[int]]] = {}
        self._out: Dict[str, Dict[int, Set[int]]] = {}
        for symbol in set(query.symbols):
            in_rows = compact.in_.get(symbol)
            out_rows = compact.out.get(symbol)
            self._in[symbol] = (
                {v: set(srcs) for v, srcs in enumerate(in_rows) if srcs}
                if in_rows is not None
                else {}
            )
            self._out[symbol] = (
                {c: set(vals) for c, vals in enumerate(out_rows) if vals}
                if out_rows is not None
                else {}
            )
        self._longer = tables.longer_list()
        self._shorter = tables.shorter_list()

    @classmethod
    def compute(
        cls,
        db: DatabaseInstance,
        q: WordLike,
        tables: Optional[FixpointTables] = None,
    ) -> "FixpointState":
        """Full Figure 5 run, retaining the state for incremental upkeep."""
        q = Word.coerce(q)
        if tables is None:
            tables = FixpointTables.build(q)
        return cls(db, q, tables, fixpoint_bits(db, q, tables=tables))

    # ------------------------------------------------------------------
    # The N-relation protocol (what answer construction reads)
    # ------------------------------------------------------------------

    def __contains__(self, pair: NPair) -> bool:
        constant, length = pair
        lid = self._local_of.get(constant)
        if lid is None or not 0 <= length < self._stride:
            return False
        return self._bits[lid * self._stride + length] != 0

    def __len__(self) -> int:
        return self._count

    @property
    def n_set(self) -> Set[NPair]:
        """The maintained relation decoded to object-level pairs.

        O(|adom|·|q|) per access -- differential tests compare it
        against a fresh :func:`fixpoint_relation` run; hot paths read
        ``starts`` / membership instead.
        """
        stride = self._stride
        consts = self._consts
        return {
            (consts[index // stride], index % stride)
            for index, bit in enumerate(self._bits)
            if bit
        }

    @property
    def witness(self) -> Optional[Hashable]:
        """A ``str``-least member of ``starts``, or ``None`` if empty."""
        if self._witness_stale:
            self._witness = min(self.starts, key=str, default=None)
            self._witness_stale = False
        return self._witness

    def _add_start(self, constant: Hashable) -> None:
        self.starts.add(constant)
        witness = self._witness
        if witness is None:
            self._witness = constant
            return
        key, least = str(constant), str(witness)
        if key < least or (self._witness_stale and key == least):
            # Below the bound every other start respects: the new least.
            self._witness = constant
            self._witness_stale = False

    def _discard_start(self, constant: Hashable) -> None:
        self.starts.discard(constant)
        if not self._witness_stale and constant == self._witness:
            self._witness_stale = True

    def _ensure(self, constant: Hashable) -> int:
        lid = self._local_of.get(constant)
        if lid is None:
            lid = len(self._consts)
            self._local_of[constant] = lid
            self._consts.append(constant)
            self._bits.extend(b"\x00" * self._stride)
        return lid

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        new_db: DatabaseInstance,
        added: Iterable[Fact],
        removed: Iterable[Fact],
    ) -> None:
        """Update ``N`` in place so it equals ``fixpoint_relation(new_db)``.

        *added* / *removed* is the effective fact delta from ``self.db``
        to *new_db* (as produced by
        :class:`repro.db.delta.DeltaInstance`).
        """
        self.result = None
        added = list(added)
        removed = list(removed)
        q = self.query
        k = len(q)
        stride = self._stride
        bits = self._bits
        new_counts = new_db.adom_refcounts()

        delta_constants = set()
        for fact in added:
            delta_constants.add(fact.key)
            delta_constants.add(fact.value)
        for fact in removed:
            delta_constants.add(fact.key)
            delta_constants.add(fact.value)
        for constant in delta_constants:
            self._ensure(constant)
        bits = self._bits  # _ensure may have grown the bitset
        local_of = self._local_of
        consts = self._consts

        if k == 0:
            for constant in delta_constants:
                lid = local_of[constant]
                here = constant in new_counts
                if here and not bits[lid]:
                    bits[lid] = 1
                    self._count += 1
                    self._add_start(constant)
                elif not here and bits[lid]:
                    bits[lid] = 0
                    self._count -= 1
                    self._discard_start(constant)
            self.db = new_db
            return

        # Domain churn is read off the refcounts of the constants the
        # delta mentions -- O(delta), not an O(adom) set difference.
        old_counts = self.db.adom_refcounts()
        gone_constants = [
            c for c in delta_constants if c in old_counts and c not in new_counts
        ]
        new_constants = [
            c for c in delta_constants if c not in old_counts and c in new_counts
        ]
        ends_with = self.tables.ends_with
        longer = self._longer
        shorter = self._shorter
        qsyms = q.symbols
        touched = {f.block_id for f in added} | {f.block_id for f in removed}

        # --- Over-deletion: close the suspects over old edges. ---------
        suspects: Set[int] = set()
        queue = deque()

        def suspect(p: int) -> None:
            if p in suspects or not bits[p]:
                return
            if p % stride == k and consts[p // stride] in new_counts:
                return  # init axiom: valid while the constant survives
            suspects.add(p)
            queue.append(p)

        for relation, key in touched:
            lengths = ends_with.get(relation)
            if lengths:
                base = local_of[key] * stride
                for length in lengths:
                    suspect(base + length - 1)
        for constant in gone_constants:
            base = local_of[constant] * stride
            for length in range(stride):
                suspect(base + length)
        while queue:
            p = queue.popleft()
            j = p % stride
            y = p // stride
            base = y * stride
            for j2 in longer[j]:
                suspect(base + j2)  # backward companions derived from (y, j)
            if j >= 1:
                srcs = self._in[qsyms[j - 1]].get(y)
                if srcs:
                    for c in srcs:
                        suspect(c * stride + j - 1)
        for p in suspects:
            bits[p] = 0
            if p % stride == 0:
                self._discard_start(consts[p // stride])
        self._count -= len(suspects)

        # --- Switch the index and db over to the new instance. ---------
        self._reindex(added, removed)
        self.db = new_db

        # --- Re-derivation from the affected frontier. -----------------
        work: List[int] = []
        push = work.append

        def add(p: int) -> None:
            if bits[p]:
                return
            bits[p] = 1
            self._count += 1
            if p % stride == 0:
                self._add_start(consts[p // stride])
            push(p)

        def derive(c: int, length: int) -> None:
            base = c * stride
            add(base + length)
            if length >= 1:
                for j in longer[length]:
                    add(base + j)

        def block_satisfied(c: int, symbol: str, j: int) -> bool:
            vals = self._out[symbol].get(c)
            if not vals:
                return False
            for v in vals:
                if not bits[v * stride + j]:
                    return False
            return True

        for constant in new_constants:
            add(local_of[constant] * stride + k)
        candidates: Set[int] = set(suspects)
        for relation, key in touched:
            lengths = ends_with.get(relation)
            if lengths:
                base = local_of[key] * stride
                for length in lengths:
                    candidates.add(base + length - 1)
        for p in candidates:
            if bits[p]:
                continue
            c = p // stride
            i = p % stride
            if i == k:
                if consts[c] in new_counts:
                    add(p)
                continue
            if block_satisfied(c, qsyms[i], i + 1) or any(
                bits[c * stride + i2] for i2 in shorter[i]
            ):
                derive(c, i)
        while work:
            p = work.pop()
            j = p % stride
            if j == 0:
                continue
            symbol = qsyms[j - 1]
            srcs = self._in[symbol].get(p // stride)
            if srcs:
                jm1 = j - 1
                for c in srcs:
                    if bits[c * stride + jm1]:
                        continue
                    if block_satisfied(c, symbol, j):
                        derive(c, jm1)

    def _reindex(
        self, added: Iterable[Fact], removed: Iterable[Fact]
    ) -> None:
        local_of = self._local_of
        for fact in removed:
            in_sym = self._in.get(fact.relation)
            if in_sym is None:
                continue  # relation outside the query alphabet
            key, value = local_of[fact.key], local_of[fact.value]
            srcs = in_sym.get(value)
            if srcs is not None:
                srcs.discard(key)
                if not srcs:
                    del in_sym[value]
            out_sym = self._out[fact.relation]
            vals = out_sym.get(key)
            if vals is not None:
                vals.discard(value)
                if not vals:
                    del out_sym[key]
        for fact in added:
            in_sym = self._in.get(fact.relation)
            if in_sym is None:
                continue
            key, value = local_of[fact.key], local_of[fact.value]
            in_sym.setdefault(value, set()).add(key)
            self._out[fact.relation].setdefault(key, set()).add(value)


def certain_answer_incremental(
    state: FixpointState,
    require_c3: bool = True,
    is_c3: Optional[bool] = None,
) -> CertaintyResult:
    """Read a CERTAINTY(q) answer off a maintained :class:`FixpointState`.

    Same semantics and soundness envelope as
    :func:`certain_answer_fixpoint`, with the ``N`` relation taken from
    the incrementally maintained state instead of a fresh run.
    """
    return _result_from_relation(
        state.db,
        state.query,
        state.tables,
        state,
        require_c3=require_c3,
        is_c3=is_c3,
        method="fixpoint-incremental",
        witness=state.witness,
    )


def build_minimal_repair(
    db: DatabaseInstance,
    q: WordLike,
    n_relation=None,
    tables: Optional[FixpointTables] = None,
) -> DatabaseInstance:
    """The repair ``r*`` of Lemmas 9 / 10.

    For every block ``R(a, *)``: among prefix lengths ``ℓ`` with
    ``q[ℓ-1] = R``, take the largest with ``(a, ℓ-1) ∉ N`` and insert a
    fact ``R(a, b)`` with ``(b, ℓ) ∉ N``; if every such prefix has
    ``(a, ℓ-1) ∈ N``, insert an arbitrary fact.

    *n_relation* may be any ``N`` supporting pair membership (the
    object-level pair set or a :class:`CompactNRelation`); by default
    the compact kernel computes a fresh one.

    This repair is ⪯_q-minimal (Lemma 9); in particular it minimizes
    ``start(q, ·)`` over all repairs (Lemma 6), and whenever ``(c, ε) ∉ N``
    for all ``c`` it contains no path accepted by ``NFA(q)``, hence
    falsifies ``q``.
    """
    q = Word.coerce(q)
    if tables is None:
        tables = FixpointTables.build(q)
    if n_relation is None:
        n_relation = fixpoint_bits(db, q, tables=tables)
    ends_with = tables.ends_with

    chosen: List[Fact] = []
    for block in db.blocks():
        lengths = ends_with.get(block.relation, ())
        target_length = None
        for length in sorted(lengths, reverse=True):
            if (block.key, length - 1) not in n_relation:
                target_length = length
                break
        fact = block.facts[0]
        if target_length is not None:
            for candidate in block.facts:
                if (candidate.value, target_length) not in n_relation:
                    fact = candidate
                    break
            else:  # pragma: no cover - contradicts the Iterative Rule
                raise AssertionError(
                    "block {} has no escaping fact; fixpoint inconsistent"
                    .format(block.block_id)
                )
        chosen.append(fact)
    return DatabaseInstance(chosen)


def certain_answer_fixpoint(
    db: DatabaseInstance,
    q: WordLike,
    require_c3: bool = True,
    tables: Optional[FixpointTables] = None,
    is_c3: Optional[bool] = None,
) -> CertaintyResult:
    """Decide CERTAINTY(q) with the Figure 5 algorithm.

    Complete for queries satisfying C3 (Lemmas 7, 10).  For other queries
    the "no" answer (with its falsifying-repair certificate) remains
    sound, but "yes" answers are unsound; by default a :class:`ValueError`
    is raised on a "yes" for a non-C3 query unless *require_c3* is
    disabled (which flags the result as unsound instead -- used by the
    Figure 3 demonstration and as a cheap pre-filter for the SAT solver).

    *tables* and *is_c3* let compiled plans supply the per-query prefix
    tables and the (already classified) C3 status, so the per-instance
    call does no per-query work.  Runs the compact kernel
    (:func:`fixpoint_bits`) over ``db.compact()``.
    """
    q = Word.coerce(q)
    if tables is None:
        tables = FixpointTables.build(q)
    n_relation = fixpoint_bits(db, q, tables=tables)
    return _result_from_relation(
        db, q, tables, n_relation, require_c3, is_c3,
        method="fixpoint",
        witness=min(n_relation.start_constants(), key=str, default=None),
    )


def _result_from_relation(
    db: DatabaseInstance,
    q: Word,
    tables: FixpointTables,
    n_relation,
    require_c3: bool,
    is_c3: Optional[bool],
    method: str,
    witness: Optional[Hashable],
) -> CertaintyResult:
    """Shared answer construction for the fresh and incremental paths.

    *n_relation* is any ``N`` view supporting ``len``; *witness* is a
    ``str``-least member of the witness set ``{c : (c, ε) ∈ N}``
    (``None`` when it is empty).
    """
    details: Dict[str, object] = {"n_size": len(n_relation)}
    if witness is not None:
        if is_c3 is None:
            is_c3 = satisfies_c3(q)
        if not is_c3:
            if require_c3:
                raise ValueError(
                    "query {} violates C3: the fixpoint algorithm is not "
                    "complete for it (pass require_c3=False to get the "
                    "unsound answer)".format(q)
                )
            details["sound"] = False
        else:
            details["sound"] = True
        return CertaintyResult(
            query=str(q),
            answer=True,
            method=method,
            witness_constant=witness,
            details=details,
        )
    details["sound"] = True
    return CertaintyResult(
        query=str(q),
        answer=False,
        method=method,
        # Lazy: the Lemma 9 construction is O(db); an update stream that
        # never reads the certificate should not pay for it per decision.
        # The (rarely read) certificate recomputes its own N on demand:
        # the incremental path's maintained N mutates under later deltas,
        # and holding the O(|q|·|adom|) relation alive on every unread
        # "no" result costs more than the occasional re-run.  The source
        # is a picklable data carrier, so laziness survives pool hops.
        falsifying_repair=LazyMinimalRepair(db, q),
        details=details,
    )
