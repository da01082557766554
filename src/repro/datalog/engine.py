"""Semi-naive bottom-up evaluation with stratified negation.

The engine evaluates strata in order; within a stratum, recursive rules
are iterated semi-naively (each round joins one recursive body literal
against the delta of the previous round).  Negated literals look up fully
computed relations (stratification guarantees they are), and the ``neq``
builtin is checked once its arguments are bound.

One evaluator runs the Claim 5 programs: the **compact engine**
(:class:`CompactProgram`, :func:`evaluate_program`).  Rules are
compiled once into register programs (variables become list slots,
probe keys become precomputed extractor tuples), and rows are int
tuples in any id space where the program's ``k`` rule constants hold
the ids ``0..k-1`` -- per call in :func:`evaluate_program`, a compact
view's local ids in the NL solver (Claim 5 programs have ``k == 0``).
Joins are hash-indexed: each body literal probes a per-relation index
keyed on its bound positions -- constants and variables bound by
earlier literals -- built lazily on first probe and maintained as
tuples are derived.  No per-row binding dict is allocated and no
:class:`~repro.queries.atoms.Variable` is hashed on the hot path.

:func:`evaluate_program_naive` is the scan-and-unify reference the
compact engine is tested against: every body literal enumerates its
whole relation and unifies row by row.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.datalog.stratify import stratify
from repro.datalog.syntax import Literal, Program, Rule
from repro.queries.atoms import Variable, is_variable

Tuple_ = Tuple[Hashable, ...]
Database = Dict[str, Set[Tuple_]]

_EMPTY: Tuple[Tuple_, ...] = ()


def _reordered_body(rule: Rule) -> List[Literal]:
    """Positive non-builtin literals first (join), then builtins/negation."""
    positives = [l for l in rule.body if not l.negated and not l.is_builtin]
    checks = [l for l in rule.body if l.negated or l.is_builtin]
    return positives + checks


# ----------------------------------------------------------------------
# The compact engine: int rows, register-compiled rules
# ----------------------------------------------------------------------

_EMPTY_SET: frozenset = frozenset()

# Row-op kinds (third field of an op triple (pos, slot_or_const, kind)):
_OP_SET = 0    # regs[slot] = row[pos]          (first variable occurrence)
_OP_CHECK = 1  # row[pos] == regs[slot] or cut  (bound / repeated variable)
_OP_CONST = 2  # row[pos] == const or cut       (constant; delta path only)


class _LitAccess:
    """One positive body literal compiled to its access path.

    ``sig`` / ``key_parts`` describe the index probe (positions holding
    constants or variables bound by earlier literals; each key part is
    ``(is_register, slot_or_const_id)``); ``ops`` validate and
    bind the remaining positions of an indexed candidate row; and
    ``delta_ops`` re-validate *every* position (used when this literal
    is bound to the semi-naive delta, which bypasses the index).
    """

    __slots__ = (
        "pred",
        "arity",
        "sig",
        "key_parts",
        "ops",
        "delta_ops",
        "all_bound",
        "single",
    )

    def __init__(self, pred, arity, sig, key_parts, ops, delta_ops):
        self.pred = pred
        self.arity = arity
        self.sig = sig
        self.key_parts = key_parts
        self.ops = ops
        self.delta_ops = delta_ops
        self.all_bound = len(sig) == arity
        self.single = len(sig) == 1


class _CheckAccess:
    """A tail check (negated / builtin / fully-bound positive literal)."""

    __slots__ = ("pred", "parts", "negated", "is_neq")

    def __init__(self, pred, parts, negated, is_neq):
        self.pred = pred
        self.parts = parts
        self.negated = negated
        self.is_neq = is_neq


class _CompactRule:
    """A rule compiled to a register program over int constant ids.

    Variables are numbered into register slots once at compile time;
    evaluating the rule allocates a single ``regs`` list and never
    touches a binding dict or hashes a :class:`Variable`.  Backtracking
    needs no undo: a register is written only by the first occurrence
    of its variable, so deeper join levels never clobber shallower
    ones, and re-entry overwrites cleanly.
    """

    __slots__ = (
        "head_pred",
        "head_out",
        "n_regs",
        "lits",
        "checks",
    )

    def __init__(self, rule: Rule, const_id) -> None:
        body = _reordered_body(rule)
        positives = [l for l in body if not l.negated and not l.is_builtin]
        registers: Dict[Variable, int] = {}

        self.lits: List[_LitAccess] = []
        bound: Set[Variable] = set()
        for literal in positives:
            sig: List[int] = []
            key_parts: List[Tuple[bool, int]] = []
            ops: List[Tuple[int, int, int]] = []
            delta_ops: List[Tuple[int, int, int]] = []
            seen_here: Dict[Variable, int] = {}
            for pos, arg in enumerate(literal.args):
                if not is_variable(arg):
                    cid = const_id(arg)
                    sig.append(pos)
                    key_parts.append((False, cid))
                    delta_ops.append((pos, cid, _OP_CONST))
                elif arg in bound:
                    slot = registers[arg]
                    sig.append(pos)
                    key_parts.append((True, slot))
                    delta_ops.append((pos, slot, _OP_CHECK))
                elif arg in seen_here:
                    slot = seen_here[arg]
                    ops.append((pos, slot, _OP_CHECK))
                    delta_ops.append((pos, slot, _OP_CHECK))
                else:
                    slot = registers.setdefault(arg, len(registers))
                    seen_here[arg] = slot
                    ops.append((pos, slot, _OP_SET))
                    delta_ops.append((pos, slot, _OP_SET))
            bound |= literal.variables()
            self.lits.append(
                _LitAccess(
                    literal.predicate,
                    len(literal.args),
                    tuple(sig),
                    tuple(key_parts),
                    tuple(ops),
                    tuple(delta_ops),
                )
            )

        self.checks: List[_CheckAccess] = []
        for literal in body[len(positives):]:
            parts = tuple(
                (True, registers[arg]) if is_variable(arg)
                else (False, const_id(arg))
                for arg in literal.args
            )
            is_neq = literal.is_builtin
            if is_neq and literal.predicate != "neq":
                raise ValueError(
                    "unknown builtin {}".format(literal.predicate)
                )
            self.checks.append(
                _CheckAccess(literal.predicate, parts, literal.negated, is_neq)
            )

        self.head_pred = rule.head.predicate
        self.head_out = tuple(
            (True, registers[arg]) if is_variable(arg)
            else (False, const_id(arg))
            for arg in rule.head.args
        )
        self.n_regs = len(registers)


class _CompactStore:
    """Int-tuple relations plus lazily built, maintained join indexes.

    An index is keyed by ``(predicate, signature)`` where *signature* is
    the tuple of bound argument positions; ``add`` keeps every live index
    of the predicate current, so an index is built at most once per
    evaluation however many semi-naive rounds run.  Rows are tuples of
    constant ids, and single-position signatures are keyed by
    the bare int instead of a 1-tuple (the dominant probe shape of the
    Claim 5 chain rules).
    """

    __slots__ = ("relations", "_indexes")

    def __init__(self, relations: Database) -> None:
        self.relations = relations
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict] = {}

    def add(self, predicate: str, fresh: Iterable[Tuple_]) -> None:
        relation = self.relations.setdefault(predicate, set())
        added = [row for row in fresh if row not in relation]
        relation.update(added)
        if not added:
            return
        for (pred, signature), index in self._indexes.items():
            if pred != predicate:
                continue
            if len(signature) == 1:
                p = signature[0]
                for row in added:
                    index.setdefault(row[p], []).append(row)
            else:
                for row in added:
                    key = tuple(row[p] for p in signature)
                    index.setdefault(key, []).append(row)

    def lookup(
        self, predicate: str, signature: Tuple[int, ...], key
    ) -> List[Tuple_]:
        index = self._indexes.get((predicate, signature))
        if index is None:
            index = {}
            rows = self.relations.get(predicate, _EMPTY_SET)
            if len(signature) == 1:
                p = signature[0]
                for row in rows:
                    index.setdefault(row[p], []).append(row)
            else:
                for row in rows:
                    index.setdefault(
                        tuple(row[p] for p in signature), []
                    ).append(row)
            self._indexes[(predicate, signature)] = index
        return index.get(key, _EMPTY)


def _eval_rule_compact(
    plan: _CompactRule,
    store: _CompactStore,
    delta_predicate: Optional[str] = None,
    delta: Optional[Set[Tuple_]] = None,
) -> Set[Tuple_]:
    """All head rows derivable from *plan*, via the register program."""
    lits = plan.lits
    n_pos = len(lits)
    results: Set[Tuple_] = set()

    if delta_predicate is None:
        delta_positions: Tuple[Optional[int], ...] = (None,)
    else:
        delta_positions = tuple(
            i for i, l in enumerate(lits) if l.pred == delta_predicate
        )
        if not delta_positions:
            return results

    regs: List[Optional[int]] = [None] * plan.n_regs
    relations = store.relations
    lookup = store.lookup
    checks = plan.checks
    head_out = plan.head_out
    add_result = results.add

    def tail_ok() -> bool:
        for check in checks:
            if check.is_neq:
                (fa, va), (fb, vb) = check.parts
                if (regs[va] if fa else va) == (regs[vb] if fb else vb):
                    return False
            else:
                row = tuple(
                    regs[v] if f else v for f, v in check.parts
                )
                present = row in relations.get(check.pred, _EMPTY_SET)
                if present == check.negated:
                    return False
        return True

    def join(i: int, delta_at: Optional[int]) -> None:
        if i == n_pos:
            if tail_ok():
                add_result(
                    tuple(regs[v] if f else v for f, v in head_out)
                )
            return
        lit = lits[i]
        i1 = i + 1
        if delta_at == i:
            ops = lit.delta_ops
            for row in delta or _EMPTY:
                for pos, v, kind in ops:
                    x = row[pos]
                    if kind:
                        if x != (regs[v] if kind == _OP_CHECK else v):
                            break
                    else:
                        regs[v] = x
                else:
                    join(i1, delta_at)
            return
        sig = lit.sig
        if not sig:
            rows: Iterable[Tuple_] = relations.get(lit.pred, _EMPTY_SET)
        elif lit.all_bound:
            key = tuple(regs[v] if f else v for f, v in lit.key_parts)
            if key in relations.get(lit.pred, _EMPTY_SET):
                join(i1, delta_at)
            return
        else:
            if lit.single:
                f, v = lit.key_parts[0]
                key = regs[v] if f else v
            else:
                key = tuple(regs[v] if f else v for f, v in lit.key_parts)
            rows = lookup(lit.pred, sig, key)
        ops = lit.ops
        for row in rows:
            for pos, v, kind in ops:
                x = row[pos]
                if kind:
                    if x != regs[v]:
                        break
                else:
                    regs[v] = x
            else:
                join(i1, delta_at)

    for delta_at in delta_positions:
        join(0, delta_at)
    return results


def _run_stratum_compact(
    plans: List[_CompactRule],
    store: _CompactStore,
    stratum: Set[str],
) -> None:
    """Semi-naive fixpoint of one stratum over the compact store.

    Round 0 evaluates every rule against the full relations; each later
    round joins one recursive body literal against the previous round's
    delta, until no rule derives a fresh row.
    """
    relations = store.relations
    delta: Dict[str, Set[Tuple_]] = {p: set() for p in stratum}
    for plan in plans:
        derived = _eval_rule_compact(plan, store)
        fresh = derived - relations.get(plan.head_pred, _EMPTY_SET)
        store.add(plan.head_pred, fresh)
        delta[plan.head_pred] |= fresh

    while any(delta.values()):
        next_delta: Dict[str, Set[Tuple_]] = {p: set() for p in stratum}
        for plan in plans:
            for predicate, changed in delta.items():
                if not changed:
                    continue
                derived = _eval_rule_compact(plan, store, predicate, changed)
                fresh = derived - relations[plan.head_pred]
                store.add(plan.head_pred, fresh)
                next_delta[plan.head_pred] |= fresh
        delta = next_delta


class CompactProgram:
    """A program compiled once for the compact engine.

    Rule compilation (register numbering, probe signatures, constant
    numbering) happens here, so every :meth:`evaluate` call does
    instance-dependent work only.  The program's rule constants get the
    ids ``0..k-1`` in first-seen order; :attr:`constants` keeps them, so
    ``constants[i]`` is the constant behind id ``i``.  Obtain instances
    through :func:`compact_program`, which memoizes one compiled form
    per :class:`~repro.datalog.syntax.Program`.
    """

    __slots__ = ("program", "strata", "constants", "_plans_by_stratum")

    def __init__(self, program: Program) -> None:
        self.program = program
        ids: Dict[Hashable, int] = {}
        self.strata = stratify(program)
        self._plans_by_stratum: List[List[_CompactRule]] = [
            [
                _CompactRule(rule, lambda v: ids.setdefault(v, len(ids)))
                for rule in program.rules
                if rule.head.predicate in stratum
            ]
            for stratum in self.strata
        ]
        self.constants: Tuple[Hashable, ...] = tuple(ids)

    def evaluate(
        self, edb_int: Dict[str, Iterable[Tuple_]]
    ) -> Database:
        """Bottom-up evaluation over int rows.

        *edb_int* maps EDB predicate names to rows of int constant ids,
        in any id space where ``constants[i]`` has id ``i``; every other
        constant may take any other id.  Returns the full int-row
        materialization in the same id space.
        """
        relations: Database = {
            predicate: set(map(tuple, rows))
            for predicate, rows in edb_int.items()
        }
        for predicate in self.program.idb_predicates():
            relations.setdefault(predicate, set())
        for predicate in self.program.edb_predicates():
            relations.setdefault(predicate, set())
        store = _CompactStore(relations)
        for plans, stratum in zip(self._plans_by_stratum, self.strata):
            _run_stratum_compact(plans, store, stratum)
        return relations


#: One compiled CompactProgram per Program object, dropped with it.
_COMPACT_PROGRAMS: "weakref.WeakKeyDictionary[Program, CompactProgram]" = (
    weakref.WeakKeyDictionary()
)


def compact_program(program: Program) -> CompactProgram:
    """The memoized compact compilation of *program*."""
    compiled = _COMPACT_PROGRAMS.get(program)
    if compiled is None:
        compiled = _COMPACT_PROGRAMS[program] = CompactProgram(program)
    return compiled


def evaluate_program(
    program: Program, edb: Dict[str, Iterable[Tuple_]]
) -> Database:
    """Evaluate *program* bottom-up on the extensional database *edb*.

    Returns the full materialization: every EDB and IDB predicate mapped
    to its set of tuples, directly comparable to
    :func:`evaluate_program_naive` (the differential tests do exactly
    that).  Constants are numbered on the way in, after the program's
    own, and decoded on the way out; both tables die with the call.
    Callers holding int rows already (the NL solver reading a
    :class:`~repro.db.compact.CompactInstance`) should call
    :meth:`CompactProgram.evaluate` and skip both conversions.
    """
    compiled = compact_program(program)
    ids = {value: cid for cid, value in enumerate(compiled.constants)}
    edb_int = {
        predicate: [
            tuple(ids.setdefault(v, len(ids)) for v in row) for row in rows
        ]
        for predicate, rows in edb.items()
    }
    materialization = compiled.evaluate(edb_int)
    decode = list(ids)
    return {
        predicate: {tuple(decode[v] for v in row) for row in rows}
        for predicate, rows in materialization.items()
    }


# ----------------------------------------------------------------------
# The scan-and-unify reference
# ----------------------------------------------------------------------


def _match(
    literal: Literal, row: Tuple_, bindings: Dict[Variable, Hashable]
) -> Optional[Dict[Variable, Hashable]]:
    """Unify *literal*'s args with *row* under *bindings*; new bindings or None."""
    if len(literal.args) != len(row):
        return None
    new: Dict[Variable, Hashable] = {}
    for arg, value in zip(literal.args, row):
        if is_variable(arg):
            bound = bindings.get(arg, new.get(arg))
            if bound is None:
                new[arg] = value
            elif bound != value:
                return None
        elif arg != value:
            return None
    return new


def _resolve_args(
    literal: Literal, bindings: Dict[Variable, Hashable]
) -> Tuple_:
    values = []
    for arg in literal.args:
        if is_variable(arg):
            values.append(bindings[arg])
        else:
            values.append(arg)
    return tuple(values)


def _evaluate_rule(
    rule: Rule,
    relations: Database,
    delta_predicate: Optional[str] = None,
    delta: Optional[Set[Tuple_]] = None,
) -> Set[Tuple_]:
    """All head tuples derivable from *rule*, by scanning full relations.

    Every body literal enumerates its entire relation and unifies row by
    row: no index and no compilation.
    """
    body = _reordered_body(rule)
    positives = [l for l in body if not l.negated and not l.is_builtin]
    results: Set[Tuple_] = set()

    delta_positions: List[Optional[int]]
    if delta_predicate is None:
        delta_positions = [None]
    else:
        delta_positions = [
            i for i, l in enumerate(positives) if l.predicate == delta_predicate
        ]
        if not delta_positions:
            return results

    def source(index: int, delta_at: Optional[int]) -> Iterable[Tuple_]:
        literal = positives[index]
        if delta_at is not None and index == delta_at:
            return delta or ()
        return relations.get(literal.predicate, ())

    def check_tail(bindings: Dict[Variable, Hashable]) -> bool:
        for literal in body[len(positives):]:
            values = _resolve_args(literal, bindings)
            if literal.is_builtin:
                if literal.predicate == "neq":
                    if values[0] == values[1]:
                        return False
                else:
                    raise ValueError("unknown builtin {}".format(literal.predicate))
            else:
                present = values in relations.get(literal.predicate, ())
                if literal.negated and present:
                    return False
                if not literal.negated and not present:
                    return False
        return True

    def join(index: int, bindings: Dict[Variable, Hashable], delta_at) -> None:
        if index == len(positives):
            if check_tail(bindings):
                results.add(_resolve_args(rule.head, bindings))
            return
        for row in source(index, delta_at):
            new = _match(positives[index], row, bindings)
            if new is None:
                continue
            bindings.update(new)
            join(index + 1, bindings, delta_at)
            for key in new:
                del bindings[key]

    for delta_at in delta_positions:
        join(0, {}, delta_at)
    return results


def evaluate_program_naive(
    program: Program, edb: Dict[str, Iterable[Tuple_]]
) -> Database:
    """Scan-and-unify semi-naive evaluation: the reference
    :func:`evaluate_program` is tested against."""
    relations: Database = {
        predicate: {tuple(row) for row in rows} for predicate, rows in edb.items()
    }
    for predicate in program.idb_predicates():
        relations.setdefault(predicate, set())
    for predicate in program.edb_predicates():
        relations.setdefault(predicate, set())

    for stratum in stratify(program):
        rules = [r for r in program.rules if r.head.predicate in stratum]
        # Round 0: full evaluation seeds the deltas.
        delta: Dict[str, Set[Tuple_]] = {p: set() for p in stratum}
        for rule in rules:
            derived = _evaluate_rule(rule, relations)
            fresh = derived - relations[rule.head.predicate]
            relations[rule.head.predicate] |= fresh
            delta[rule.head.predicate] |= fresh
        # Semi-naive iteration.
        while any(delta.values()):
            next_delta: Dict[str, Set[Tuple_]] = {p: set() for p in stratum}
            for rule in rules:
                for predicate, changed in delta.items():
                    if not changed:
                        continue
                    derived = _evaluate_rule(rule, relations, predicate, changed)
                    fresh = derived - relations[rule.head.predicate]
                    relations[rule.head.predicate] |= fresh
                    next_delta[rule.head.predicate] |= fresh
            delta = next_delta
    return relations
