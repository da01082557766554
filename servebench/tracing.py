"""Timing wrappers around the public calls of each layer, for traced runs.

:func:`install` replaces a fixed list of functions of ``repro`` with
wrappers that time each call into a :class:`Recorder`; nothing under
``src/`` changes.  Untraced runs never call it, so they run the program
exactly as shipped.

Process-transport shards run their engine in a child process.  There the
wrappers come from :func:`traced_engine`, the ``engine_factory`` the
benchmark hands the server in traced runs: the child calls it when it
builds its shard core, which installs the wrappers in the child, and the
returned engine drains the child's samples into ``cache_info()``, which
the child already ships back with every batch reply.  The parent's
wrapper of ``ProcessTransport.execute`` folds them in after each batch.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.db.compact import CompactInstance
from repro.db.delta import DeltaInstance
from repro.engine import plan as plan_module
from repro.engine.engine import CertaintyEngine, EngineStats
from repro.serving.journal import SqliteJournalStore
from repro.serving.shard import ShardCore, ShardWorker
from repro.serving.transport import ProcessTransport, ThreadTransport
from repro.solvers.fixpoint import FixpointState
from repro.solvers.sat_encoding import IncrementalSatContext

_clock = time.perf_counter

#: Key under which a traced child engine ships its samples in
#: ``cache_info()``.
SHIP_KEY = "servebench_trace"


class Recorder:
    """Durations (seconds) per ``(phase, name)``, from any thread.

    The benchmark sets :attr:`phase` as it moves through its phases; a
    sample lands in the phase current when it is recorded.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.samples[(self.phase, name)].append(seconds)

    def drain(self) -> List[Tuple[str, float]]:
        """Remove and return every sample as ``(name, seconds)``."""
        with self._lock:
            out = [
                (name, s)
                for (_, name), values in self.samples.items()
                for s in values
            ]
            self.samples.clear()
        return out

    def get(self, phase: str, name: str) -> List[float]:
        with self._lock:
            return list(self.samples.get((phase, name), ()))


_RECORDER: Recorder = None  # type: ignore[assignment]
_core_seconds = threading.local()
_submitted: Dict[int, float] = {}


def _timed(name):
    """Wrap a method so each call's duration is recorded under *name*."""

    def decorate(original):
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                _RECORDER.add(name, _clock() - start)

        return wrapper

    return decorate


def _wrap_submit(original):
    def submit(self, request):
        _submitted[id(request)] = _clock()
        return original(self, request)

    return submit


def _wrap_worker_execute(original):
    def execute(self, batch):
        now = _clock()
        for request in batch:
            sent = _submitted.pop(id(request), None)
            if sent is not None:
                _RECORDER.add("shard.queue_wait." + request.op, now - sent)
        return original(self, batch)

    return execute


def _batch_kind(requests) -> str:
    ops = {request.op for request in requests}
    if "register" in ops:
        return "register"
    return "read" if ops == {"solve"} else "write"


def _wrap_run_batch(original):
    def run_batch(self, ops):
        start = _clock()
        try:
            return original(self, ops)
        finally:
            seconds = _clock() - start
            _RECORDER.add("core.run_batch", seconds)
            _core_seconds.total = getattr(_core_seconds, "total", 0.0) + seconds

    return run_batch


def _wrap_thread_execute(original):
    def execute(self, requests):
        _core_seconds.total = 0.0
        start = _clock()
        try:
            return original(self, requests)
        finally:
            took = _clock() - start
            _RECORDER.add(
                "transport.overhead." + _batch_kind(requests),
                took - _core_seconds.total,
            )

    return execute


def _wrap_process_execute(original):
    def execute(self, requests):
        kind = _batch_kind(requests)
        start = _clock()
        try:
            return original(self, requests)
        finally:
            took = _clock() - start
            shipped = self.snapshot().get("plan_cache", {}).pop(SHIP_KEY, [])
            core = 0.0
            for name, seconds in shipped:
                _RECORDER.add(name, seconds)
                if name == "core.run_batch":
                    core += seconds
            _RECORDER.add("transport.overhead." + kind, took - core)

    return execute


def _wrap_compile(original):
    def compile(self, query):
        before = self.stats.compiles
        start = _clock()
        plan = original(self, query)
        if self.stats.compiles != before:
            _RECORDER.add("engine.compile", _clock() - start)
        return plan

    return compile


def _wrap_solve_delta(original):
    def solve_delta(self, db, delta, query, method="auto"):
        start = _clock()
        try:
            return original(self, db, delta, query, method=method)
        finally:
            kind = "write" if len(delta) else "read"
            _RECORDER.add("engine.solve_delta." + kind, _clock() - start)

    return solve_delta


def _wrap_commit(original):
    def commit(self):
        # A commit copies the base only if the overlay has effective
        # edits and has not been committed since its last edit.
        real = getattr(self, "_committed", None) is None and bool(
            self.added_facts or self.removed_facts
        )
        start = _clock()
        try:
            return original(self)
        finally:
            if real:
                _RECORDER.add("db.commit", _clock() - start)

    return commit


def _wrap_apply_delta(original):
    def apply_delta(self, new_db, added, removed):
        start = _clock()
        try:
            return original(self, new_db, added, removed)
        finally:
            if added or removed:
                _RECORDER.add("fixpoint.apply_delta", _clock() - start)

    return apply_delta


def _wrap_record(original):
    def record(self, result, seconds):
        _RECORDER.add("route." + result.method, seconds)
        return original(self, result, seconds)

    return record


def _wrap_classmethod(cls, name, metric):
    original = cls.__dict__[name].__func__
    setattr(cls, name, classmethod(_timed(metric)(original)))


def install(recorder: Recorder) -> None:
    """Install every wrapper in this process, recording into *recorder*.

    Idempotent: a second call only switches the recorder.
    """
    global _RECORDER
    first = _RECORDER is None
    _RECORDER = recorder
    if not first:
        return
    ShardWorker.submit = _wrap_submit(ShardWorker.submit)
    ShardWorker.execute = _wrap_worker_execute(ShardWorker.execute)
    ShardCore.run_batch = _wrap_run_batch(ShardCore.run_batch)
    ThreadTransport.execute = _wrap_thread_execute(ThreadTransport.execute)
    ProcessTransport.execute = _wrap_process_execute(ProcessTransport.execute)
    SqliteJournalStore.delta = _timed("journal.append")(SqliteJournalStore.delta)
    SqliteJournalStore.__init__ = _timed("journal.open")(
        SqliteJournalStore.__init__
    )
    CertaintyEngine.compile = _wrap_compile(CertaintyEngine.compile)
    CertaintyEngine.solve_delta = _wrap_solve_delta(CertaintyEngine.solve_delta)
    EngineStats.record = _wrap_record(EngineStats.record)
    DeltaInstance.commit = _wrap_commit(DeltaInstance.commit)
    _wrap_classmethod(CompactInstance, "build", "db.compact_build")
    _wrap_classmethod(FixpointState, "compute", "fixpoint.compute")
    FixpointState.apply_delta = _wrap_apply_delta(FixpointState.apply_delta)
    IncrementalSatContext.solve = _timed("sat.solve")(IncrementalSatContext.solve)
    plan_module.certain_answer_nl = _timed("datalog.nl")(
        plan_module.certain_answer_nl
    )


class TracedEngine(CertaintyEngine):
    """A shard-child engine that ships the child's samples home."""

    def cache_info(self) -> dict:
        info = super().cache_info()
        info[SHIP_KEY] = _RECORDER.drain()
        return info


def traced_engine() -> CertaintyEngine:
    """``engine_factory`` for traced process-transport shards."""
    if _RECORDER is None:
        install(Recorder())
    return TracedEngine()
