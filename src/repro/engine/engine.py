"""The batched certainty engine: compile once per query, solve per instance.

:class:`CertaintyEngine` owns an LRU cache of compiled plans keyed by the
query word (generalized queries by the query itself), per-engine counters
(:class:`EngineStats`), and two entry points:

* ``solve(db, query, method="auto")`` -- one instance through its cached
  plan;
* ``solve_batch(pairs, workers=N)`` -- a workload of ``(db, query)``
  pairs; with ``workers > 1`` the batch fans out over a multiprocessing
  pool (each worker process keeps its own plan cache, populated on first
  use via fork or re-compiled after spawn);
* ``solve_batch_iter(pairs, workers=N)`` -- the streaming variant:
  yields ``(index, result)`` as instances finish (a generator locally,
  ``imap_unordered`` across a pool with ``workers > 1``);
* ``solve_delta(db, delta, query)`` -- CERTAINTY on ``db`` with a
  :class:`~repro.db.delta.Delta` applied, served by incrementally
  maintaining the cached :class:`~repro.solvers.fixpoint.FixpointState`
  instead of re-solving from scratch; a delta with no effective edit
  returns the answer stored on the state (per-engine stats count
  incremental hits vs full re-solves).

``certain_answer`` is a thin shim over the process-wide
:func:`default_engine`, so library users get plan caching for free;
construct a private engine to isolate caches or statistics.

The plan-LRU contract
---------------------

The plan cache is keyed by the *query word* (generalized queries with
constants by the query itself), so ``"RRX"``, ``Word("RRX")`` and
``PathQuery("RRX")`` share one plan.  Invariants callers may rely on:

* **Plans are immutable after compilation** (lazily built members --
  NFA, DFA, FO sentence -- are compute-once and idempotent), so a plan
  may be handed to any number of threads or fork-started workers; the
  LRU never mutates a plan, only drops references.
* **Eviction is capacity-only.**  A plan is evicted solely when the
  cache exceeds ``cache_size`` (least recently used first); there is no
  TTL, and eviction never invalidates results -- a re-compile produces
  an equivalent plan.  ``cache_size=0`` disables caching (every solve
  recompiles; the measured pre-engine baseline).
* **Counters**: ``stats.compiles`` counts cache misses (plan
  constructions), ``stats.cache_hits`` counts served lookups; both are
  monotone between ``stats.reset()`` calls.  Concurrent misses on the
  same key may each compile (the lock covers bookkeeping, not
  compilation -- plans are equivalent, so last-write-wins is safe).

The *state* cache (incremental :class:`FixpointState`\\ s keyed by
``(plan key, instance)``) lives in a separate
:class:`~repro.solvers.state_cache.StateCache` with checkout semantics
-- see that module for its contract.  ``solve_delta`` checks a state
out, folds the delta in, decides, stores the final answer on the state,
and only then publishes it back under the updated instance's key, so a
state observable in the cache is never mid-mutation and its stored
answer always belongs to the instance it is keyed under.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import Counter, OrderedDict
from typing import (
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.db.delta import Delta, DeltaInstance
from repro.db.instance import DatabaseInstance
from repro.engine.plan import (
    CompiledGeneralizedQuery,
    CompiledQuery,
    PlanQuery,
)
from repro.queries.generalized import GeneralizedPathQuery
from repro.queries.path_query import PathQuery
from repro.solvers.fixpoint import FixpointState, certain_answer_incremental
from repro.solvers.generalized_solver import GeneralizedState
from repro.solvers.result import CertaintyResult
from repro.solvers.sat_encoding import IncrementalSatContext
from repro.solvers.state_cache import StateCache
from repro.words.word import Word

EngineQuery = Union[str, Word, PathQuery, GeneralizedPathQuery]
Pair = Tuple[DatabaseInstance, EngineQuery]
IndexedResult = Tuple[int, CertaintyResult]

#: Default number of plans kept by an engine's LRU cache.
DEFAULT_CACHE_SIZE = 128

#: Default number of incremental fixpoint states kept per engine.
DEFAULT_STATE_CACHE_SIZE = 64


class EngineStats:
    """Per-engine counters: compiles, cache hits, solves, wall time."""

    __slots__ = (
        "compiles",
        "cache_hits",
        "solves",
        "batches",
        "parallel_batches",
        "delta_solves",
        "incremental_hits",
        "full_resolves",
        "sat_incremental_hits",
        "sat_clauses_reused",
        "method_counts",
        "route_seconds",
        "wall_seconds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.compiles = 0
        self.cache_hits = 0
        self.solves = 0
        self.batches = 0
        self.parallel_batches = 0
        self.delta_solves = 0
        self.incremental_hits = 0
        self.full_resolves = 0
        self.sat_incremental_hits = 0
        self.sat_clauses_reused = 0
        self.method_counts: Counter = Counter()
        self.route_seconds: Counter = Counter()
        self.wall_seconds = 0.0

    def record(self, result: CertaintyResult, seconds: float) -> None:
        self.solves += 1
        self.method_counts[result.method] += 1
        self.route_seconds[result.method] += seconds
        self.wall_seconds += seconds

    @classmethod
    def from_dict(cls, data: dict) -> "EngineStats":
        """Rebuild counters from an :meth:`as_dict` payload.

        The serving layer's process transports ship engine counters
        across the pipe as plain dicts (see
        :meth:`repro.serving.shard.ShardCore.snapshot`); this is the
        receiving side of that wire format.  Unknown keys are ignored,
        missing keys default to zero, so payloads from older workers
        still load.
        """
        stats = cls()
        stats.merge(data)
        return stats

    def merge(self, other: Union["EngineStats", dict]) -> "EngineStats":
        """Fold another engine's counters into this one; returns self.

        Addition for every counter (``method_counts`` merge per method,
        wall time sums), so merging is associative and keeps totals
        monotone -- the property the process transport relies on when a
        restarted shard child starts counting from zero: the dead
        generation's last snapshot is merged into a carried base.
        """
        data = other.as_dict() if isinstance(other, EngineStats) else other
        self.compiles += data.get("compiles", 0)
        self.cache_hits += data.get("cache_hits", 0)
        self.solves += data.get("solves", 0)
        self.batches += data.get("batches", 0)
        self.parallel_batches += data.get("parallel_batches", 0)
        self.delta_solves += data.get("delta_solves", 0)
        self.incremental_hits += data.get("incremental_hits", 0)
        self.full_resolves += data.get("full_resolves", 0)
        self.sat_incremental_hits += data.get("sat_incremental_hits", 0)
        self.sat_clauses_reused += data.get("sat_clauses_reused", 0)
        self.method_counts.update(data.get("method_counts", {}))
        self.route_seconds.update(data.get("route_seconds", {}))
        self.wall_seconds += data.get("wall_seconds", 0.0)
        return self

    def as_dict(self) -> dict:
        return {
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "solves": self.solves,
            "batches": self.batches,
            "parallel_batches": self.parallel_batches,
            "delta_solves": self.delta_solves,
            "incremental_hits": self.incremental_hits,
            "full_resolves": self.full_resolves,
            "sat_incremental_hits": self.sat_incremental_hits,
            "sat_clauses_reused": self.sat_clauses_reused,
            "method_counts": dict(self.method_counts),
            "route_seconds": dict(self.route_seconds),
            "wall_seconds": self.wall_seconds,
        }

    def __str__(self) -> str:
        methods = ", ".join(
            "{}={} ({:.4f}s)".format(m, c, self.route_seconds.get(m, 0.0))
            for m, c in sorted(self.method_counts.items())
        )
        return (
            "EngineStats(solves={}, compiles={}, cache_hits={}, "
            "delta_solves={}, incremental_hits={}, full_resolves={}, "
            "sat_incremental_hits={}, sat_clauses_reused={}, "
            "wall={:.4f}s, methods: {})".format(
                self.solves,
                self.compiles,
                self.cache_hits,
                self.delta_solves,
                self.incremental_hits,
                self.full_resolves,
                self.sat_incremental_hits,
                self.sat_clauses_reused,
                self.wall_seconds,
                methods or "-",
            )
        )


class CertaintyEngine:
    """A CERTAINTY(q) serving engine with a per-query plan cache.

    *cache_size* bounds the LRU plan cache; ``0`` disables caching (every
    solve recompiles -- the pre-engine behavior, kept measurable for the
    compile-once benchmarks).

    >>> engine = CertaintyEngine()
    >>> db = DatabaseInstance.from_triples(
    ...     [("R", "a", "a"), ("R", "a", "b"), ("R", "b", "a"), ("R", "b", "b")])
    >>> engine.solve(db, "RR").answer
    True
    >>> engine.solve(db, "RR").answer        # second call hits the plan cache
    True
    >>> engine.stats.cache_hits
    1
    """

    def __init__(
        self,
        cache_size: int = DEFAULT_CACHE_SIZE,
        state_cache_size: int = DEFAULT_STATE_CACHE_SIZE,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.cache_size = cache_size
        self.stats = EngineStats()
        self._plans: "OrderedDict[Hashable, object]" = OrderedDict()
        #: Maintained fixpoint states, keyed by (plan key, instance); the
        #: instance key advances as deltas are applied, so a stream of
        #: updates against the same logical database keeps hitting.
        self.state_cache = StateCache(state_cache_size)
        # Guards the LRU bookkeeping: certain_answer was thread-safe
        # before it routed through a shared engine, so it must stay so.
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @staticmethod
    def _cache_key(query: EngineQuery) -> Hashable:
        if isinstance(query, GeneralizedPathQuery):
            if query.has_constants():
                return ("generalized", query)
            return ("word", query.word)
        if isinstance(query, PathQuery):
            return ("word", query.word)
        return ("word", Word.coerce(query))

    def compile(self, query: EngineQuery):
        """Return the cached plan for *query*, compiling on first use.

        The cache is keyed by the query word (generalized queries by the
        query itself), so ``"RRX"``, ``Word("RRX")`` and
        ``PathQuery("RRX")`` share one plan.
        """
        key = self._cache_key(query)
        with self._cache_lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.cache_hits += 1
                return plan
        if isinstance(query, GeneralizedPathQuery) and query.has_constants():
            plan = CompiledGeneralizedQuery(query)
        else:
            plan = CompiledQuery(key[1])
        with self._cache_lock:
            self.stats.compiles += 1
            if self.cache_size > 0:
                self._plans[key] = plan
                while len(self._plans) > self.cache_size:
                    self._plans.popitem(last=False)
        return plan

    def cache_info(self) -> dict:
        return {
            "size": len(self._plans),
            "max_size": self.cache_size,
            "hits": self.stats.cache_hits,
            "compiles": self.stats.compiles,
            "states": self.state_cache.info(),
        }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._plans.clear()
        self.state_cache.clear()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(
        self,
        db: DatabaseInstance,
        query: EngineQuery,
        method: str = "auto",
    ) -> CertaintyResult:
        """Decide whether every repair of *db* satisfies *query*."""
        start = time.perf_counter()
        plan = self.compile(query)
        if isinstance(plan, CompiledGeneralizedQuery):
            result = plan.solve(db, method=method, solve_word=self._solve_word)
        else:
            result = plan.solve(db, method=method)
        self.stats.record(result, time.perf_counter() - start)
        return result

    def _solve_word(self, db: DatabaseInstance, word: Word, method: str):
        """Inner dispatch for generalized plans (cached, not re-counted)."""
        plan = self.compile(word)
        return plan.solve(db, method=method)

    def solve_batch(
        self,
        pairs: Iterable[Pair],
        method: str = "auto",
        workers: Optional[int] = None,
        strip_certificates: bool = False,
    ) -> List[CertaintyResult]:
        """Solve a workload of ``(db, query)`` pairs, in order.

        With ``workers`` > 1 the batch fans out over a multiprocessing
        pool; results are identical to the sequential path (each item is
        independent), so batch mode is purely a throughput knob.  With
        *strip_certificates* the falsifying-repair certificates are
        dropped (see :meth:`solve_batch_iter`).
        """
        items = list(pairs)
        results: List[Optional[CertaintyResult]] = [None] * len(items)
        for index, result in self.solve_batch_iter(
            items,
            method=method,
            workers=workers,
            strip_certificates=strip_certificates,
        ):
            results[index] = result
        return results


    # ------------------------------------------------------------------
    # Incremental solving
    # ------------------------------------------------------------------

    def solve_delta(
        self,
        db: DatabaseInstance,
        delta: Union[Delta, DeltaInstance],
        query: EngineQuery,
        method: str = "auto",
    ) -> CertaintyResult:
        """Decide CERTAINTY(query) on *db* with *delta* applied.

        Semantically identical to ``solve(delta.apply_to(db).commit(),
        query)``; operationally, the engine maintains a
        :class:`~repro.solvers.fixpoint.FixpointState` per ``(query,
        instance)`` and folds the delta into it, so a stream of updates
        against the same logical database pays O(delta) *solver* work per
        decision (plus the shallow O(db) dict copies of
        ``DeltaInstance.commit`` -- cheap next to re-running the
        fixpoint, but not delta-sized):

        * FO / NL-complete / PTIME-complete queries satisfy C3, where the
          Figure 5 relation ``N`` decides CERTAINTY exactly -- the
          maintained state answers directly;
        * coNP-complete queries violate C3: the maintained state stays a
          sound "no" pre-filter (Lemma 10), and a "yes" falls back to a
          full SAT re-solve on the updated instance.

        Constant-carrying generalized queries are maintained too (a
        :class:`~repro.solvers.generalized_solver.GeneralizedState`
        keeps segment verdicts and the ``ext(q)`` fixpoint alive), and
        coNP "yes" re-solves reuse a cached assumption-keyed SAT context
        (``stats.sat_incremental_hits`` / ``stats.sat_clauses_reused``)
        instead of re-encoding.

        Each maintained state stores the final answer for its instance.
        A call whose delta has no effective edit (the overlay commits to
        *db* itself) is a lookup: it returns a fresh copy of that answer
        without touching the fixpoint, the witness or SAT, so SAT runs
        only on effective edits.  ``stats.incremental_hits`` counts
        decisions served from a maintained state, stored answers
        included;
        ``stats.full_resolves`` counts fallbacks (first sight of an
        instance and forced non-auto methods).  To chain updates, apply the
        same delta on the caller side (``delta.apply_to(db).commit()``)
        and pass the committed instance as the next call's *db* --
        value-equal instances hit the same maintained state.
        """
        start = time.perf_counter()
        if isinstance(delta, DeltaInstance):
            if delta.base is not db:
                raise ValueError(
                    "the DeltaInstance overlay must be rooted at db"
                )
            overlay = delta
        else:
            overlay = delta.apply_to(db)
        new_db = overlay.commit()
        self.stats.delta_solves += 1

        plan = self.compile(query)
        generalized = isinstance(plan, CompiledGeneralizedQuery)
        if method != "auto" or not (generalized or len(plan.word) > 0):
            result = (
                plan.solve(new_db, method=method, solve_word=self._solve_word)
                if generalized
                else plan.solve(new_db, method=method)
            )
            result.details["incremental"] = False
            self.stats.full_resolves += 1
            self.stats.record(result, time.perf_counter() - start)
            return result

        key = self._cache_key(query)
        state = self.state_cache.take((key, db))
        stored = state.result if state is not None else None
        if stored is not None and new_db is db:
            # No effective edit: the stored answer is the one a re-solve
            # would reach.  Each read gets its own copy, since callers
            # strip certificates and write ``details`` in place.
            self.state_cache.put((key, db), state)
            result = stored.copy()
            result.details["incremental"] = True
            self.stats.incremental_hits += 1
            self.stats.record(result, time.perf_counter() - start)
            return result
        if generalized:
            return self._solve_delta_generalized(
                overlay, new_db, plan, key, state, start
            )
        fresh_state = state is None
        if fresh_state:
            state = FixpointState.compute(new_db, plan.word, tables=plan.tables)
        else:
            state.apply_delta(
                new_db, overlay.added_facts, overlay.removed_facts
            )

        is_c3 = plan.classification.c3
        result = certain_answer_incremental(
            state, require_c3=False, is_c3=is_c3
        )
        if not is_c3 and result.answer:
            # C3-violating query and the pre-filter did not dismiss it:
            # the maintained "yes" is unsound, re-solve via SAT -- through
            # a maintained assumption-keyed context when one is cached, so
            # the re-solve toggles assumptions instead of re-encoding the
            # CNF and restarting the search.
            sat_key = ("satctx", key)
            ctx = self.state_cache.take((sat_key, db))
            fresh_ctx = ctx is None
            if fresh_ctx:
                ctx = IncrementalSatContext(new_db, plan.word)
            else:
                ctx.apply_delta(
                    new_db, overlay.added_facts, overlay.removed_facts
                )
            result = ctx.solve()
            self.state_cache.put((sat_key, new_db), ctx)
            result.details["prefilter"] = "fixpoint-incremental-yes"
            result.details["incremental"] = not fresh_ctx
            if fresh_ctx:
                self.stats.full_resolves += 1
            else:
                self.stats.sat_incremental_hits += 1
                self.stats.sat_clauses_reused += ctx.last_reused
                self.stats.incremental_hits += 1
        else:
            if not is_c3:
                # Keep any cached SAT context current across "no"
                # decisions, so the next "yes" re-solve still reuses it.
                sat_key = ("satctx", key)
                ctx = self.state_cache.take((sat_key, db))
                if ctx is not None:
                    ctx.apply_delta(
                        new_db, overlay.added_facts, overlay.removed_facts
                    )
                    self.state_cache.put((sat_key, new_db), ctx)
            result.details["incremental"] = not fresh_state
            if fresh_state:
                self.stats.full_resolves += 1
            else:
                self.stats.incremental_hits += 1
        result.details["complexity"] = str(plan.complexity)
        # Publish only once the final answer is stored: a concurrent
        # solve_delta could otherwise check the state out and advance it
        # to another instance before this answer lands on it.
        state.result = result.copy()
        self.state_cache.put((key, new_db), state)
        self.stats.record(result, time.perf_counter() - start)
        return result

    def _solve_delta_generalized(
        self,
        overlay: DeltaInstance,
        new_db: DatabaseInstance,
        plan: CompiledGeneralizedQuery,
        key: Hashable,
        state: Optional[GeneralizedState],
        start: float,
    ) -> CertaintyResult:
        """The maintained route for constant-carrying generalized queries.

        A :class:`~repro.solvers.generalized_solver.GeneralizedState`
        keeps the Lemma 27 segment verdicts and the Lemma 29 ``ext(q)``
        fixpoint alive between deltas; only segments whose alphabet the
        delta touches are re-checked, and the ``ext(q)`` decision folds
        the delta into its maintained :class:`FixpointState`.
        """
        fresh_state = state is None
        inner_plan = (
            self.compile(plan.ext_word) if plan.ext_word is not None else None
        )
        if fresh_state:
            state = GeneralizedState.compute(new_db, plan, inner_plan)
        else:
            state.apply_delta(
                new_db, overlay.added_facts, overlay.removed_facts
            )
        result = state.verdict()
        result.details["incremental"] = not fresh_state
        state.result = result.copy()
        self.state_cache.put((key, new_db), state)
        if fresh_state:
            self.stats.full_resolves += 1
        else:
            self.stats.incremental_hits += 1
        self.stats.record(result, time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    # Streaming batches
    # ------------------------------------------------------------------

    def solve_batch_iter(
        self,
        pairs: Iterable[Pair],
        method: str = "auto",
        workers: Optional[int] = None,
        strip_certificates: bool = False,
    ) -> Iterator[IndexedResult]:
        """Stream a workload: yield ``(index, result)`` as instances finish.

        The sequential path is a lazy generator over the cached plans (the
        first result is available before the last instance is touched);
        with ``workers > 1`` the batch fans out over a multiprocessing
        pool via ``imap_unordered``, so results arrive in completion
        order, not submission order.  Per-item results are identical to
        ``solve``; ``solve_batch`` remains the collect-everything variant.

        *strip_certificates* is for callers that only read ``.answer``:
        each worker calls :meth:`~repro.solvers.result.CertaintyResult.
        strip` before the result crosses the pool boundary, so "no"
        answers ship without their falsifying-repair certificate (lazy
        or otherwise).  Without it, lazy certificates stay *lazy* across
        the boundary -- they are picklable data carriers, and nothing is
        resolved at pickle time.
        """
        items = list(pairs)
        self.stats.batches += 1
        if workers is not None and workers > 1 and len(items) > 1:
            return self._iter_parallel(
                items, method, workers, strip_certificates
            )
        return self._iter_sequential(items, method, strip_certificates)

    def _iter_sequential(
        self, items: Sequence[Pair], method: str, strip_certificates: bool
    ) -> Iterator[IndexedResult]:
        plans: dict = {}
        for index, (db, query) in enumerate(items):
            start = time.perf_counter()
            if self.cache_size == 0:
                plan = self.compile(query)
            else:
                key = self._cache_key(query)
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = self.compile(query)
            if isinstance(plan, CompiledGeneralizedQuery):
                result = plan.solve(db, method=method, solve_word=self._solve_word)
            else:
                result = plan.solve(db, method=method)
            if strip_certificates:
                result.strip()
            self.stats.record(result, time.perf_counter() - start)
            yield index, result

    def _iter_parallel(
        self,
        items: Sequence[Pair],
        method: str,
        workers: int,
        strip_certificates: bool,
    ) -> Iterator[IndexedResult]:
        global _WORKER_ENGINE
        # Warm the parent cache (one compile per distinct query) so
        # fork-started workers inherit the plans.
        distinct = {self._cache_key(query): query for _, query in items}
        for query in distinct.values():
            self.compile(query)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        payload = [
            (index, db, query, method, strip_certificates)
            for index, (db, query) in enumerate(items)
        ]
        self.stats.parallel_batches += 1
        _WORKER_ENGINE = self
        pool = context.Pool(processes=min(workers, len(items)))
        try:
            start = time.perf_counter()
            for index, result in pool.imap_unordered(
                _solve_one_indexed, payload
            ):
                self.stats.record(result, time.perf_counter() - start)
                yield index, result
                # Restart the clock only after the consumer resumes us, so
                # its per-result processing time is not billed to wall.
                start = time.perf_counter()
        finally:
            _WORKER_ENGINE = None
            pool.terminate()
            pool.join()


#: The process-wide engine behind ``certain_answer``.
_DEFAULT_ENGINE: Optional[CertaintyEngine] = None

#: The batching engine, visible to fork-started pool workers (carries the
#: pre-warmed plan cache across the fork; None outside a parallel batch).
_WORKER_ENGINE: Optional[CertaintyEngine] = None

_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> CertaintyEngine:
    """The process-wide engine behind ``certain_answer``."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        with _DEFAULT_ENGINE_LOCK:
            if _DEFAULT_ENGINE is None:
                _DEFAULT_ENGINE = CertaintyEngine()
    return _DEFAULT_ENGINE



def _solve_one_indexed(
    item: Tuple[int, DatabaseInstance, EngineQuery, str, bool]
) -> Tuple[int, CertaintyResult]:
    """Pool worker for the streaming batch: keeps the submission index so
    ``imap_unordered`` consumers can reassociate completion-order results.
    Strips certificates before pickling when the caller opted out of
    them; otherwise lazy certificates ship back still-lazy."""
    index, db, query, method, strip_certificates = item
    engine = _WORKER_ENGINE if _WORKER_ENGINE is not None else default_engine()
    result = engine.solve(db, query, method=method)
    if strip_certificates:
        result.strip()
    return index, result
