"""SAT-based CERTAINTY(q) (CAvSAT-style baseline; exact for all queries).

``db`` is a "no"-instance of CERTAINTY(q) iff some repair falsifies ``q``.
The encoding has one Boolean variable per fact and

* one *at-least-one* clause per block (a repair picks a fact per block);
  no *at-most-one* clauses are needed, because query satisfaction is
  monotone (any superset of a satisfying repair still embeds the query);
* one *blocking* clause per embedding of ``q`` into ``db``: at least one
  fact of the embedding must be absent.

The number of embeddings is polynomial in ``|db|`` for fixed ``q`` (data
complexity), so the encoding is polynomial-sized; the SAT search carries
the coNP-hardness.  A satisfying assignment yields a falsifying repair,
which is returned as a checkable certificate.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.db.facts import Fact
from repro.db.instance import DatabaseInstance
from repro.db.paths import iter_paths_with_trace
from repro.queries.conjunctive import ConjunctiveQuery
from repro.queries.generalized import GeneralizedPathQuery
from repro.queries.path_query import PathQuery
from repro.solvers.result import CertaintyResult
from repro.solvers.sat import IncrementalSatSolver, SatStats, solve_clauses
from repro.words.word import Word

QueryLike = Union[str, Word, PathQuery, GeneralizedPathQuery, ConjunctiveQuery]


def _embeddings(db: DatabaseInstance, query: QueryLike) -> List[frozenset]:
    """All fact-sets that are images of homomorphisms from *query*."""
    if isinstance(query, PathQuery):
        query = query.word
    images = set()
    if isinstance(query, (str, Word)):
        word = Word.coerce(query)
        for path in iter_paths_with_trace(db, word):
            images.add(frozenset(path))
        return sorted(images, key=lambda s: sorted(map(str, s)))
    if isinstance(query, GeneralizedPathQuery):
        query = query.to_conjunctive_query()
    if not isinstance(query, ConjunctiveQuery):
        raise TypeError("unsupported query type {!r}".format(type(query)))
    triples = [fact.as_triple() for fact in db.facts]
    fact_of = {fact.as_triple(): fact for fact in db.facts}
    for theta in query.homomorphisms_into(triples):
        image = frozenset(
            fact_of[
                (
                    atom.relation,
                    atom.substitute(theta).key,
                    atom.substitute(theta).value,
                )
            ]
            for atom in query.atoms
        )
        images.add(image)
    return sorted(images, key=lambda s: sorted(map(str, s)))


def encode_falsifying_repair(
    db: DatabaseInstance, query: QueryLike
) -> Tuple[List[List[int]], Dict[int, Fact]]:
    """CNF clauses satisfiable iff some repair of *db* falsifies *query*.

    Returns ``(clauses, variable_to_fact)``.
    """
    fact_var: Dict[Fact, int] = {}
    var_fact: Dict[int, Fact] = {}
    for index, fact in enumerate(sorted(db.facts), start=1):
        fact_var[fact] = index
        var_fact[index] = fact
    clauses: List[List[int]] = []
    for block in db.blocks():
        clauses.append([fact_var[f] for f in block.facts])
    for image in _embeddings(db, query):
        clauses.append(sorted(-fact_var[f] for f in image))
    return clauses, var_fact


def _sat_result(
    db: DatabaseInstance,
    query: str,
    method: str,
    model: Optional[Dict[int, bool]],
    fact_var: Dict[Fact, int],
    details: Dict[str, object],
) -> CertaintyResult:
    """The answer a SAT *model* gives (``None``: UNSAT, so "yes").

    A model yields its falsifying repair: per block, a fact the model
    marks present.  The block's at-least-one clause guarantees one, and
    the CDCL model covers every variable of a clause.
    """
    if model is None:
        return CertaintyResult(
            query=query, answer=True, method=method, details=details
        )
    chosen = []
    for block in db.blocks():
        for fact in block.facts:
            if model[fact_var[fact]]:
                chosen.append(fact)
                break
    return CertaintyResult(
        query=query,
        answer=False,
        method=method,
        falsifying_repair=DatabaseInstance(chosen),
        details=details,
    )


def _embeddings_through(
    db: DatabaseInstance,
    in_index: Dict[Tuple[Hashable, str], Set[Fact]],
    word: Word,
    fact: Fact,
) -> Set[FrozenSet[Fact]]:
    """All embeddings (walk images) of *word* into *db* that use *fact*.

    For each position ``i`` with ``word[i] == fact.relation``, backward
    DFS over *in_index* enumerates the walk prefixes ending at
    ``fact.key`` and forward DFS over ``db.out_facts`` the suffixes from
    ``fact.value``; their cross product is every walk through *fact* at
    position ``i``.  Work is proportional to walks through the fact, not
    walks in the database -- this is what lets the incremental encoding
    discover new blocking clauses in O(delta-affected) time.
    """
    syms = word.symbols
    images: Set[FrozenSet[Fact]] = set()

    def backward(j: int, node: Hashable) -> List[Tuple[Fact, ...]]:
        if j < 0:
            return [()]
        out: List[Tuple[Fact, ...]] = []
        for f in in_index.get((node, syms[j]), ()):
            for rest in backward(j - 1, f.key):
                out.append(rest + (f,))
        return out

    def forward(j: int, node: Hashable) -> List[Tuple[Fact, ...]]:
        if j >= len(syms):
            return [()]
        out: List[Tuple[Fact, ...]] = []
        for f in db.out_facts(node, syms[j]):
            for rest in forward(j + 1, f.value):
                out.append((f,) + rest)
        return out

    for pos, symbol in enumerate(syms):
        if symbol != fact.relation:
            continue
        suffixes = forward(pos + 1, fact.value)
        if not suffixes:
            continue
        for prefix in backward(pos - 1, fact.key):
            for suffix in suffixes:
                images.add(frozenset(prefix + (fact,) + suffix))
    return images


class IncrementalSatContext:
    """The falsifying-repair CNF as assumption-keyed clause groups.

    The per-fact variables and the clause *groups* -- one at-least-one
    group per block membership, one blocking group per embedding image --
    are loaded into a persistent :class:`IncrementalSatSolver` exactly
    once, each guarded by a fresh selector variable (the clause is
    stored with the selector negated, so it binds only while the
    selector is assumed).  A :class:`~repro.db.delta.Delta` then
    *toggles assumptions*: departed embeddings drop their selector,
    changed blocks switch to the selector of their new membership (old
    memberships that recur -- a fact removed and later re-added -- reuse
    their original group), and only genuinely new groups pay encoding
    work.  Learned clauses carry the ``-selector`` literals of the
    groups they were derived from, so they stay sound under every later
    activation pattern and keep accelerating re-solves down the chain.

    Single-owner, like :class:`~repro.solvers.fixpoint.FixpointState`:
    the engine checks contexts in and out of its ``StateCache``.

    >>> db = DatabaseInstance.from_triples(
    ...     [("A", 0, 1), ("R", 1, 2), ("R", 2, 3), ("X", 3, 4)])
    >>> ctx = IncrementalSatContext(db, "ARRX")
    >>> ctx.solve().answer
    True
    >>> new_db = db.with_facts([Fact("X", 3, 5)])
    >>> ctx.apply_delta(new_db, [Fact("X", 3, 5)], [])
    >>> ctx.solve().answer == certain_answer_sat(new_db, "ARRX").answer
    True
    """

    __slots__ = (
        "query",
        "db",
        "solver",
        "last_reused",
        "_fact_var",
        "_next_var",
        "_block_sel",
        "_block_groups",
        "_emb_sel",
        "_active_embs",
        "_fact_embs",
        "_in_index",
    )

    def __init__(self, db: DatabaseInstance, query: QueryLike) -> None:
        if isinstance(query, PathQuery):
            query = query.word
        self.query = Word.coerce(query)
        self.solver = IncrementalSatSolver()
        #: Clauses already loaded when the last ``apply_delta`` arrived
        #: (the re-encoding work the delta path avoided).
        self.last_reused = 0
        self._fact_var: Dict[Fact, int] = {}
        self._next_var = 1
        # block_id -> selector of the block's *current* membership group.
        self._block_sel: Dict[Tuple[str, Hashable], int] = {}
        # (block_id, frozenset of member vars) -> selector, ever seen.
        self._block_groups: Dict[Tuple, int] = {}
        # frozenset of embedding facts -> selector, ever seen.
        self._emb_sel: Dict[FrozenSet[Fact], int] = {}
        self._active_embs: Set[FrozenSet[Fact]] = set()
        # fact -> every embedding image ever seen containing it.
        self._fact_embs: Dict[Fact, Set[FrozenSet[Fact]]] = {}
        self._in_index: Dict[Tuple[Hashable, str], Set[Fact]] = {}
        self.db = db
        for fact in sorted(db.facts):
            self._var(fact)
            self._in_index.setdefault(
                (fact.value, fact.relation), set()
            ).add(fact)
        for block in db.blocks():
            self._ensure_block(block.block_id, block.facts)
        for image in _embeddings(db, self.query):
            self._activate_embedding(image)

    def _var(self, fact: Fact) -> int:
        var = self._fact_var.get(fact)
        if var is None:
            var = self._next_var
            self._next_var += 1
            self._fact_var[fact] = var
        return var

    def _fresh_selector(self) -> int:
        sel = self._next_var
        self._next_var += 1
        return sel

    def _ensure_block(self, block_id, facts: Tuple[Fact, ...]) -> None:
        members = frozenset(self._var(f) for f in facts)
        key = (block_id, members)
        sel = self._block_groups.get(key)
        if sel is None:
            sel = self._fresh_selector()
            self._block_groups[key] = sel
            self.solver.add_clause(sorted(members) + [-sel])
        self._block_sel[block_id] = sel

    def _activate_embedding(self, image: FrozenSet[Fact]) -> None:
        sel = self._emb_sel.get(image)
        if sel is None:
            sel = self._fresh_selector()
            self._emb_sel[image] = sel
            self.solver.add_clause(
                sorted(-self._fact_var[f] for f in image) + [-sel]
            )
            for fact in image:
                self._fact_embs.setdefault(fact, set()).add(image)
        self._active_embs.add(image)

    def apply_delta(
        self,
        new_db: DatabaseInstance,
        added: Iterable[Fact],
        removed: Iterable[Fact],
    ) -> None:
        """Re-key the assumption set for the effective delta to *new_db*.

        Same contract as ``FixpointState.apply_delta``: *added* /
        *removed* is the effective fact delta from ``self.db``.
        """
        added = list(added)
        removed = list(removed)
        self.last_reused = self.solver.clause_count
        for fact in removed:
            bucket = self._in_index.get((fact.value, fact.relation))
            if bucket is not None:
                bucket.discard(fact)
            for image in self._fact_embs.get(fact, ()):
                self._active_embs.discard(image)
        for fact in added:
            self._var(fact)
            self._in_index.setdefault(
                (fact.value, fact.relation), set()
            ).add(fact)
        touched = {f.block_id for f in added} | {f.block_id for f in removed}
        for block_id in touched:
            block = new_db.block(*block_id)
            if block is None:
                self._block_sel.pop(block_id, None)
            else:
                self._ensure_block(block_id, block.facts)
        for fact in added:
            for image in _embeddings_through(
                new_db, self._in_index, self.query, fact
            ):
                self._activate_embedding(image)
        self.db = new_db

    def solve(self) -> CertaintyResult:
        """Decide CERTAINTY(query) on the context's current instance."""
        assumptions = sorted(self._block_sel.values()) + sorted(
            self._emb_sel[image] for image in self._active_embs
        )
        stats = self.solver.stats
        decisions0, props0 = stats.decisions, stats.propagations
        model = self.solver.solve(assumptions=assumptions)
        details = {
            "clauses": self.solver.clause_count,
            "clauses_reused": self.last_reused,
            "learned": stats.learned,
            "variables": self._next_var - 1,
            "assumptions": len(assumptions),
            "decisions": stats.decisions - decisions0,
            "propagations": stats.propagations - props0,
        }
        return _sat_result(
            self.db, str(self.query), "sat-incremental", model,
            self._fact_var, details,
        )


def certain_answer_sat(db: DatabaseInstance, query: QueryLike) -> CertaintyResult:
    """Decide CERTAINTY(query) via the falsifying-repair SAT encoding.

    Exact for every query; the cold solver for coNP-complete queries and
    a cross-checking baseline elsewhere.  The clauses go to a fresh CDCL
    solver (:func:`~repro.solvers.sat.solve_clauses`).
    """
    clauses, var_fact = encode_falsifying_repair(db, query)
    stats = SatStats()
    model = solve_clauses(clauses, stats)
    details = {
        "clauses": len(clauses),
        "variables": len(var_fact),
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "learned": stats.learned,
    }
    name = str(query if not isinstance(query, PathQuery) else query.word)
    fact_var = {fact: var for var, fact in var_fact.items()}
    return _sat_result(db, name, "sat", model, fact_var, details)
