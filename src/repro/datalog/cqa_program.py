"""Generation of the Claim 5 linear-Datalog programs for C2 queries.

Lemma 14: for a path query ``q`` satisfying C2, ``CERTAINTY(q)`` is
expressible in linear Datalog with stratified negation.  The proof writes
``q = head · cycle^0 · tail`` where, per the B2a / B2b decompositions of
Lemma 3:

* B2b: ``q = s (uv)^{k-1} w v`` -- head ``s (uv)^{k-1}``, cycle ``uv``,
  tail ``wv``;
* B2a: ``q = s (u)^{j0} w (v)^k`` -- head ``s (u)^{j0}``, cycle ``u``,
  tail ``w (v)^k``;

and ``L↬(q)`` trimmed to minimal prefixes is ``head (cycle)* tail``
(Lemma 16).  The generated program mirrors the example program in the
proof of Claim 5:

* ``term_<part>(X)`` -- X is *terminal* for the part (Definition 15): an
  existential chain to a node with no continuation block, using stratified
  negation on the block-key predicates (Lemmas 12 and 17 make this
  first-order);
* ``cyclepath(X, Y)`` -- the linear recursion: a chain of cycle steps
  between tail-terminal period boundaries;
* ``p(X)`` -- the predicate P of the proof: a cycle chain of tail-terminal
  nodes ending in a cycle-terminal node or a loop;
* ``o(X)`` -- the predicate O: X is head-terminal, or a *consistent*
  head-path reaches some ``d`` with ``p(d)``.  Consistency of the head
  path ("no two distinct key-equal facts") is compiled into rule variants
  over each pair of equal relation names: keys differ (``neq``) or the
  atoms are unified.

``db`` is a "yes"-instance of CERTAINTY(q) iff some ``c ∈ adom`` has
``o(c)`` underivable (Claim 4).

Deviation from the paper, documented in DESIGN.md: the example program in
Claim 5 also requires ``wvterminal`` on the *intermediate* node of each
``uv`` step; the definition of the predicate P only constrains the period
boundaries ``d0, ..., dℓ``, and boundary-only checks are what differential
tests against brute force confirm correct, so the generator emits
boundary-only checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.query_nfa import nfa_min
from repro.classification.regex_conditions import (
    Decomposition,
    iter_b2a,
    iter_b2b,
)
from repro.datalog.syntax import Literal, Program, Rule
from repro.queries.atoms import Variable
from repro.words.word import Word, WordLike

#: Prefix for the EDB predicate holding relation ``R``.
REL_PREFIX = "rel_"
#: EDB predicate holding the active domain.
ADOM = "adom"


class UnsupportedQuery(ValueError):
    """Raised when no suffix-aligned B2a/B2b decomposition is found."""


@dataclass(frozen=True)
class CqaParts:
    """The ``head (cycle)* tail`` split of a C2 query.

    ``decomposition`` carries the B2a/B2b witness when the split came
    from one; splits found by the direct boundary sweep have ``None``.
    """

    query: Word
    head: Word
    cycle: Word
    tail: Word
    decomposition: Optional[Decomposition]

    def __str__(self) -> str:
        return "{} = {} ({})* {}".format(
            self.query, self.head or "ε", self.cycle, self.tail or "ε"
        )


@dataclass(frozen=True)
class CqaProgram:
    """A generated CQA program plus its decomposition metadata."""

    parts: CqaParts
    program: Program

    @property
    def query(self) -> Word:
        return self.parts.query


def _split_language_dfa(head: Word, cycle: Word, tail: Word) -> DFA:
    """A DFA for the regular language ``head (cycle)* tail``."""
    alphabet = set(head.alphabet()) | set(cycle.alphabet()) | set(tail.alphabet())
    states = []
    transitions = {}
    epsilon = {}

    def add_chain(word: Word, prefix: str):
        chain = ["{}{}".format(prefix, i) for i in range(len(word) + 1)]
        states.extend(chain)
        for i, symbol in enumerate(word):
            transitions.setdefault((chain[i], symbol), set()).add(chain[i + 1])
        return chain

    head_chain = add_chain(head, "h")
    cycle_chain = add_chain(cycle, "c")
    tail_chain = add_chain(tail, "t")
    boundary = head_chain[-1]
    epsilon[boundary] = {cycle_chain[0], tail_chain[0]}
    epsilon[cycle_chain[-1]] = {boundary}
    nfa = NFA(
        states=states,
        alphabet=alphabet,
        transitions=transitions,
        epsilon=epsilon,
        initial=head_chain[0],
        accepting=[tail_chain[-1]],
    )
    return DFA.from_nfa(nfa)


def _candidate_parts(q: Word, decomposition: Decomposition) -> Optional[CqaParts]:
    """Turn a suffix-aligned witness into a head/cycle/tail split."""
    if decomposition.kind == "B2b":
        period = len(decomposition.u) + len(decomposition.v)
        boundary = decomposition.k * period - decomposition.offset
        cycle = decomposition.u + decomposition.v
    else:
        boundary = decomposition.j * len(decomposition.u) - decomposition.offset
        cycle = decomposition.u
    if boundary < 0 or not cycle:
        return None
    return CqaParts(
        query=q,
        head=q[:boundary],
        cycle=cycle,
        tail=q[boundary:],
        decomposition=decomposition,
    )


def split_query(q: WordLike) -> Optional[CqaParts]:
    """Find a *language-verified* ``head (cycle)* tail`` split of *q*.

    Candidates come from two sources, and a split is accepted only if the
    language ``head (cycle)* tail`` is *equal* to the language of
    ``NFAmin(q)`` (Definition 13), checked by DFA equivalence:

    1. suffix-aligned B2b / B2a witnesses, giving the Lemma 16 shapes
       ``s (uv)^{k-1} (uv)* wv`` and ``s (u)^{j0} (u)* w (v)^k``;
    2. a direct sweep over every insertion point ``b`` and every
       contiguous factor of ``q`` adjacent to ``b`` as the cycle --
       covering the "q is a factor, not a suffix, of the pumped word"
       case that Lemma 14's proof leaves to "extra notation".

    The verification step guards against spurious witnesses whose pumped
    language differs from ``L↬(q)``; queries violating C2 are rejected
    up front, because the program's semantics rest on the Lemma 7
    reification (needs C3) and the Claim 4 characterization (needs C2) --
    a language-correct split alone is not sufficient (ARRX has the
    single-pump language ``ARR(R)*X`` yet is coNP-complete).

    Returns ``None`` when *q* violates C2 or no verified split exists.
    """
    q = Word.coerce(q)
    from repro.classification.conditions import satisfies_c2

    if not satisfies_c2(q):
        return None
    reference = nfa_min(q)
    witness_candidates = itertools.chain(
        iter_b2b(q, require_suffix=True), iter_b2a(q, require_suffix=True)
    )
    for decomposition in witness_candidates:
        parts = _candidate_parts(q, decomposition)
        if parts is None:
            continue
        language = _split_language_dfa(parts.head, parts.cycle, parts.tail)
        if language.equivalent(reference):
            return parts
    # Direct sweep: q = head·tail with the cycle pumped at the boundary.
    # The cycle must read back (or ahead) a contiguous stretch of q, so it
    # suffices to try q[b-l:b] and q[b:b+l] for each boundary b.
    seen = set()
    for boundary in range(len(q), -1, -1):
        head, tail = q[:boundary], q[boundary:]
        cycles = []
        for length in range(1, boundary + 1):
            cycles.append(q[boundary - length: boundary])
        for length in range(1, len(q) - boundary + 1):
            cycles.append(q[boundary: boundary + length])
        for cycle in cycles:
            key = (boundary, cycle)
            if key in seen:
                continue
            seen.add(key)
            language = _split_language_dfa(head, cycle, tail)
            if language.equivalent(reference):
                return CqaParts(
                    query=q, head=head, cycle=cycle, tail=tail,
                    decomposition=None,
                )
    return None


def rel(name: str) -> str:
    """EDB predicate name for relation *name*."""
    return REL_PREFIX + name


def _key_predicate(relation: str) -> str:
    return "key_" + relation


def _chain(
    word: Word, start: Variable, prefix: str
) -> Tuple[List[Literal], List[Variable]]:
    """Literals ``R1(start, v1), R2(v1, v2), ...`` for *word*.

    Returns the literals and the node variables (``[start, v1, ..., vn]``).
    """
    nodes = [start]
    literals = []
    for i, relation in enumerate(word):
        nxt = Variable("{}{}".format(prefix, i + 1))
        literals.append(Literal(rel(relation), (nodes[-1], nxt)))
        nodes.append(nxt)
    return literals, nodes


def _terminal_rules(name: str, word: Word) -> List[Rule]:
    """Rules for ``term_<name>(X)``: X is terminal for *word* (Def. 15).

    The existential unfolding of the negated Lemma 12 rewriting:
    for each ``i < |word|`` there is a (not necessarily consistent) path
    ``X --word[0:i]--> Y`` such that ``Y`` has no ``word[i]`` block.
    """
    rules: List[Rule] = []
    head_var = Variable("T0")
    for i in range(len(word)):
        literals, nodes = _chain(word[:i], head_var, "T")
        blocker = Literal(_key_predicate(word[i]), (nodes[-1],), negated=True)
        body = list(literals) + [blocker]
        if not literals:
            body.insert(0, Literal(ADOM, (head_var,)))
        rules.append(Rule(Literal("term_" + name, (head_var,)), tuple(body)))
    return rules


def _key_rules(relations) -> List[Rule]:
    rules = []
    for relation in sorted(relations):
        x, y = Variable("K0"), Variable("K1")
        rules.append(
            Rule(
                Literal(_key_predicate(relation), (x,)),
                (Literal(rel(relation), (x, y)),),
            )
        )
    return rules


def _consistency_variants(
    literals: List[Literal], nodes: List[Variable], word: Word
) -> List[Tuple[List[Literal], Dict[Variable, Variable]]]:
    """Rule-body variants enforcing consistency of the chain (Def. 15).

    For every pair of positions with the same relation name, either the
    keys differ (a ``neq`` guard) or both atoms are unified.  Each subset
    of "unified" pairs yields one variant: the substituted literals plus
    the extra guards.
    """
    pairs = [
        (i, j)
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] == word[j]
    ]
    if len(pairs) > 10:
        raise UnsupportedQuery(
            "head consistency would need {} pair constraints".format(len(pairs))
        )
    variants = []
    for choice in itertools.product((False, True), repeat=len(pairs)):
        # Union-find over node variables for the unified pairs.
        parent: Dict[Variable, Variable] = {}

        def find(v: Variable) -> Variable:
            while parent.get(v, v) != v:
                v = parent[v]
            return v

        def union(a: Variable, b: Variable) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for (i, j), unify in zip(pairs, choice):
            if unify:
                union(nodes[i], nodes[j])
                union(nodes[i + 1], nodes[j + 1])
        mapping = {v: find(v) for v in nodes}
        renamed = [l.substitute(mapping) for l in literals]
        guards = []
        consistent = True
        for (i, j), unify in zip(pairs, choice):
            if not unify:
                a, b = mapping[nodes[i]], mapping[nodes[j]]
                if a == b:
                    consistent = False
                    break
                guards.append(Literal("neq", (a, b)))
        if not consistent:
            continue
        variants.append((renamed + guards, mapping))
    return variants


def build_cqa_program(q: WordLike) -> CqaProgram:
    """Build the Claim 5 linear-Datalog program for a C2 path query.

    Raises :class:`UnsupportedQuery` if no suffix-aligned decomposition is
    found (all C2 queries exercised by the test-suite admit one).
    """
    q = Word.coerce(q)
    parts = split_query(q)
    if parts is None:
        raise UnsupportedQuery(
            "no suffix-aligned B2a/B2b decomposition for {}".format(q)
        )
    rules: List[Rule] = []
    rules.extend(_key_rules(q.alphabet()))
    rules.extend(_terminal_rules("head", parts.head))
    rules.extend(_terminal_rules("cycle", parts.cycle))
    rules.extend(_terminal_rules("tail", parts.tail))

    x = Variable("X")
    y = Variable("Y")
    z = Variable("Z")

    # cyclepath: chains of cycle steps between tail-terminal boundaries.
    step_literals, step_nodes = _chain(parts.cycle, x, "C")
    end = step_nodes[-1]
    rules.append(
        Rule(
            Literal("cyclepath", (x, end)),
            tuple(
                step_literals
                + [Literal("term_tail", (x,)), Literal("term_tail", (end,))]
            ),
        )
    )
    step_literals2, step_nodes2 = _chain(parts.cycle, y, "D")
    end2 = step_nodes2[-1]
    rules.append(
        Rule(
            Literal("cyclepath", (x, end2)),
            tuple(
                [Literal("cyclepath", (x, y))]
                + step_literals2
                + [Literal("term_tail", (end2,))]
            ),
        )
    )

    # p: the predicate P of Claim 4.
    rules.append(
        Rule(
            Literal("p", (x,)),
            (Literal("term_cycle", (x,)), Literal("term_tail", (x,))),
        )
    )
    rules.append(
        Rule(
            Literal("p", (x,)),
            (Literal("cyclepath", (x, y)), Literal("term_cycle", (y,))),
        )
    )
    rules.append(
        Rule(
            Literal("p", (x,)),
            (Literal("cyclepath", (x, y)), Literal("cyclepath", (y, y))),
        )
    )

    # o: head-terminal, or a consistent head path into p.
    if parts.head:
        rules.append(Rule(Literal("o", (x,)), (Literal("term_head", (x,)),)))
        head_var = Variable("H0")
        head_literals, head_nodes = _chain(parts.head, head_var, "H")
        for body, mapping in _consistency_variants(
            head_literals, head_nodes, parts.head
        ):
            last = mapping[head_nodes[-1]]
            rules.append(
                Rule(
                    Literal("o", (mapping[head_var],)),
                    tuple(body + [Literal("p", (last,))]),
                )
            )
    else:
        rules.append(Rule(Literal("o", (x,)), (Literal("p", (x,)),)))

    return CqaProgram(parts=parts, program=Program(rules))


def instance_to_edb(db) -> Dict[str, List[Tuple]]:
    """Encode a :class:`~repro.db.instance.DatabaseInstance` as EDB facts."""
    edb: Dict[str, List[Tuple]] = {ADOM: [(c,) for c in db.adom()]}
    for fact in db.facts:
        edb.setdefault(rel(fact.relation), []).append((fact.key, fact.value))
    return edb


def instance_edb_compact(view) -> Dict[str, List[Tuple]]:
    """The EDB of a :class:`~repro.db.compact.CompactInstance`, in lids.

    Rows carry the view's own local ids, read straight off its edge
    arrays -- no Fact object or object-level constant is touched.  A
    program evaluates over them as they are only if it has no rule
    constants (``CompactProgram.constants`` is empty, as for every
    Claim 5 program).  Cached on the (immutable) view, so repeated NL
    solves against a warm instance skip the export.
    """

    def build() -> Dict[str, List[Tuple]]:
        edb: Dict[str, List[Tuple]] = {
            ADOM: [(lid,) for lid in view.alive_lids()]
        }
        for relation in view.relations:
            rows = list(view.edges(relation))
            if rows:
                edb[rel(relation)] = rows
        return edb

    return view.cached_plan(("cqa-edb",), build)
