"""The compact, array-backed execution view of a database instance.

The object-level :class:`~repro.db.instance.DatabaseInstance` indexes
facts by dicts keyed on ``(constant, relation)`` tuples -- the right
shape for correctness-first code, the wrong one for the solver kernels,
which spend their time hashing tuples of arbitrary constants.  A
:class:`CompactInstance` is the same instance re-expressed over dense
integers:

* constants get **local ids** ``0..n-1`` (in canonical ``sorted_adom``
  order for fresh builds).  They are the only constant ids in the
  process: every kernel, the Claim 5 Datalog route included, reads
  them, and no table outlives the views that use it;
* each relation gets an **int-indexed out-edge adjacency**
  (``out[rel][key_lid]`` is the tuple of value lids -- the block
  contents), the matching in-adjacency (``in_[rel][value_lid]`` is the
  tuple of key lids), and the **per-block fact counts**
  (``out_deg[rel]``, an ``array('l')`` the fixpoint kernel copies
  straight into its countdown counters);
* :meth:`csr` exposes the CSR-style per-relation edge arrays (block key
  ids, a block offset table, and the flat value array), built lazily.

A compact view is compiled lazily from -- and cached on -- its
:class:`~repro.db.instance.DatabaseInstance` via
:meth:`~repro.db.instance.DatabaseInstance.compact`;
:meth:`~repro.db.delta.DeltaInstance.commit` carries the cache forward
by **patching** the parent's view in O(delta) touched entries (plus
C-level container copies) via :meth:`patched`, so an update stream never
recompiles the compact representation from scratch.

Instances are immutable once built: patching returns a new view sharing
every untouched per-relation structure with its parent.  Departed
constants keep their local id with ``alive`` flipped to 0 and empty
adjacency -- kernels must consult :attr:`alive` before seeding
domain-wide axioms.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

from repro.db.facts import Fact

_EMPTY: Tuple[int, ...] = ()

#: Per-view bound on cached kernel plans (see CompactInstance.cached_plan).
_PLAN_CACHE_LIMIT = 32


class CompactInstance:
    """An immutable integer-indexed view of one database instance."""

    __slots__ = (
        "n",
        "consts",
        "local_of",
        "alive",
        "relations",
        "out",
        "out_deg",
        "in_",
        "_csr",
        "_plans",
    )

    def __init__(self) -> None:  # pragma: no cover - assembled via builders
        raise TypeError(
            "use CompactInstance.build(db) or DatabaseInstance.compact()"
        )

    @classmethod
    def _assemble(
        cls,
        consts: List[Hashable],
        local_of: Dict[Hashable, int],
        alive: bytearray,
        out: Dict[str, List[Tuple[int, ...]]],
        out_deg: Dict[str, "array"],
        in_: Dict[str, List[Tuple[int, ...]]],
    ) -> "CompactInstance":
        view = cls.__new__(cls)
        view.n = len(consts)
        view.consts = consts
        view.local_of = local_of
        view.alive = alive
        view.relations = tuple(sorted(out))
        view.out = out
        view.out_deg = out_deg
        view.in_ = in_
        view._csr = {}
        view._plans = {}
        return view

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, db) -> "CompactInstance":
        """Compile *db* (anything with ``facts`` / ``sorted_adom()``).

        >>> from repro.db.instance import DatabaseInstance
        >>> db = DatabaseInstance.from_triples([("R", 0, 1), ("R", 0, 2)])
        >>> view = CompactInstance.build(db)
        >>> view.n, view.relations
        (3, ('R',))
        >>> sorted(view.consts[v] for v in view.out["R"][view.local_of[0]])
        [1, 2]
        """
        consts = list(db.sorted_adom())
        n = len(consts)
        local_of = {c: i for i, c in enumerate(consts)}
        alive = bytearray(b"\x01") * n
        out_lists: Dict[str, List[List[int]]] = {}
        in_lists: Dict[str, List[List[int]]] = {}
        for fact in db.facts:
            relation = fact.relation
            out_rel = out_lists.get(relation)
            if out_rel is None:
                out_rel = out_lists[relation] = [None] * n
                in_lists[relation] = [None] * n
            in_rel = in_lists[relation]
            key, value = local_of[fact.key], local_of[fact.value]
            if out_rel[key] is None:
                out_rel[key] = [value]
            else:
                out_rel[key].append(value)
            if in_rel[value] is None:
                in_rel[value] = [key]
            else:
                in_rel[value].append(key)
        out: Dict[str, List[Tuple[int, ...]]] = {}
        out_deg: Dict[str, "array"] = {}
        in_: Dict[str, List[Tuple[int, ...]]] = {}
        for relation, rows in out_lists.items():
            out[relation] = [_EMPTY if r is None else tuple(r) for r in rows]
            out_deg[relation] = array(
                "l", (0 if r is None else len(r) for r in rows)
            )
            in_[relation] = [
                _EMPTY if r is None else tuple(r)
                for r in in_lists[relation]
            ]
        return cls._assemble(
            consts, local_of, alive, out, out_deg, in_
        )

    def patched(
        self,
        added: Iterable[Fact],
        removed: Iterable[Fact],
        refcounts: Dict[Hashable, int],
    ) -> "CompactInstance":
        """A new view with the effective fact delta applied.

        *refcounts* is the updated instance's ``adom_refcounts()``: it
        decides which delta-mentioned constants are alive afterwards.
        Cost is O(delta) touched adjacency entries on top of C-level
        copies of the per-relation containers -- untouched relations
        share their lists with the parent (unless new constants force a
        capacity extension).
        """
        added = list(added)
        removed = list(removed)
        if not added and not removed:
            return self
        consts = list(self.consts)
        local_of = dict(self.local_of)
        alive = bytearray(self.alive)

        delta_constants = set()
        for fact in added:
            delta_constants.add(fact.key)
            delta_constants.add(fact.value)
        for fact in removed:
            delta_constants.add(fact.key)
            delta_constants.add(fact.value)
        for constant in delta_constants:
            if constant not in local_of:
                local_of[constant] = len(consts)
                consts.append(constant)
                alive.append(0)
        for constant in delta_constants:
            alive[local_of[constant]] = 1 if constant in refcounts else 0

        n = len(consts)
        grow = n - self.n
        touched_relations = {f.relation for f in added} | {
            f.relation for f in removed
        }
        out = dict(self.out)
        out_deg = dict(self.out_deg)
        in_ = dict(self.in_)
        if grow:
            pad = [_EMPTY] * grow
            zeros = array("l", [0]) * grow
            for relation in list(out):
                if relation in touched_relations:
                    continue
                out[relation] = out[relation] + pad
                in_[relation] = in_[relation] + pad
                deg = array("l", out_deg[relation])
                deg.extend(zeros)
                out_deg[relation] = deg
        for relation in touched_relations:
            if relation in self.out:
                out_rel = list(self.out[relation])
                in_rel = list(self.in_[relation])
                deg = array("l", self.out_deg[relation])
            else:
                out_rel = [_EMPTY] * self.n
                in_rel = [_EMPTY] * self.n
                deg = array("l", [0]) * self.n
            if grow:
                out_rel.extend(pad)
                in_rel.extend(pad)
                deg.extend(zeros)
            out_touch: Dict[int, Tuple[set, List[int]]] = {}
            in_touch: Dict[int, Tuple[set, List[int]]] = {}
            for fact in removed:
                if fact.relation != relation:
                    continue
                key, value = local_of[fact.key], local_of[fact.value]
                out_touch.setdefault(key, (set(), []))[0].add(value)
                in_touch.setdefault(value, (set(), []))[0].add(key)
            for fact in added:
                if fact.relation != relation:
                    continue
                key, value = local_of[fact.key], local_of[fact.value]
                out_touch.setdefault(key, (set(), []))[1].append(value)
                in_touch.setdefault(value, (set(), []))[1].append(key)
            for key, (gone, fresh) in out_touch.items():
                vals = [v for v in out_rel[key] if v not in gone]
                vals.extend(fresh)
                out_rel[key] = tuple(vals)
                deg[key] = len(vals)
            for value, (gone, fresh) in in_touch.items():
                keys = [c for c in in_rel[value] if c not in gone]
                keys.extend(fresh)
                in_rel[value] = tuple(keys)
            out[relation] = out_rel
            in_[relation] = in_rel
            out_deg[relation] = deg
        return CompactInstance._assemble(
            consts, local_of, alive, out, out_deg, in_
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def csr(self, relation: str) -> Tuple["array", "array", "array"]:
        """CSR-style edge arrays ``(block_keys, block_offsets, values)``.

        ``block_keys[i]`` is the key lid of the ``i``-th nonempty block,
        ``values[block_offsets[i]:block_offsets[i+1]]`` its value lids;
        offset differences are the per-block fact counts.  Built lazily
        per relation and cached (the view is immutable).
        """
        cached = self._csr.get(relation)
        if cached is not None:
            return cached
        rows = self.out.get(relation, ())
        block_keys = array("l")
        offsets = array("l", [0])
        values = array("l")
        for key, vals in enumerate(rows):
            if vals:
                block_keys.append(key)
                values.extend(vals)
                offsets.append(len(values))
        result = (block_keys, offsets, values)
        self._csr[relation] = result
        return result

    def edges(self, relation: str) -> Iterator[Tuple[int, int]]:
        """All ``(key_lid, value_lid)`` edges of *relation*."""
        block_keys, offsets, values = self.csr(relation)
        for i, key in enumerate(block_keys):
            for j in range(offsets[i], offsets[i + 1]):
                yield (key, values[j])

    def cached_plan(self, key: Hashable, builder):
        """Memoize a per-``(instance, key)`` kernel artifact.

        Kernels derive query-shaped arrays from the view (e.g. the
        fixpoint kernel's pre-scaled flat in-adjacency); the view is
        immutable, so caching them here makes every re-solve against a
        warm instance skip the per-call index prep -- the pattern the
        serving layer's resident instances live off.  *builder* is
        called with no arguments on first use.  The cache is bounded
        (FIFO eviction): a long-lived resident answering many distinct
        query words must not grow a plan per word forever.
        """
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _PLAN_CACHE_LIMIT:
                self._plans.pop(next(iter(self._plans)))
            plan = self._plans[key] = builder()
        return plan

    def alive_lids(self) -> Iterator[int]:
        """Local ids of the constants currently in the active domain."""
        alive = self.alive
        return (lid for lid in range(self.n) if alive[lid])

    def __repr__(self) -> str:
        return "CompactInstance(n={}, relations={})".format(
            self.n, list(self.relations)
        )

    def __reduce__(self):
        raise TypeError(
            "CompactInstance ids are process-local; pickle the "
            "DatabaseInstance and rebuild via .compact()"
        )
