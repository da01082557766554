"""One benchmark run: set-up, six timed phases, and the answer checks.

A run drives the public :class:`~repro.serving.AsyncCertaintyServer` API
from one client process on one asyncio loop, against servers of two
shards whose residents are pinned explicitly.  The phases run one after
another, so each end-to-end metric is measured with nothing else in
flight, and they repeat in ``cycles`` so that each metric's samples
spread over the whole run:

``lone``     one closed-loop client reading warm resident x query pairs;
``fanin``    one client keeping ``in_flight`` warm reads outstanding, half
             of them on four hot pairs (in-batch duplicates);
``first``    ``register`` of a fresh large resident, then its first read,
             on a server started for the phase;
``cold``     ad-hoc ``solve(db, q)`` on instance objects never seen
             before, one canonical query per class;
``update``   per resident: a 1-2 fact ``solve_delta`` on a large resident
             of a sqlite-journaled server, then a read of another query;
``restart``  reopen that server on its journal until every resident has
             answered one read.

Every answer is checked against :func:`repro.scenarios.oracle.
reference_answer`, which decides CERTAINTY by repair enumeration or the
object-plane SAT encoding and shares no code path with the engine.  The
update phase also replays every delta on a plain Python fact set, which
``get_instance`` must equal.
"""

from __future__ import annotations

import asyncio
import faulthandler
import gc
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.db.instance import DatabaseInstance
from repro.scenarios.oracle import reference_answer
from repro.serving import AsyncCertaintyServer

import inputs
from inputs import CLASSES, QUERIES

_clock = time.perf_counter

#: Input sizes (facts along each chain) and client settings.  ``small``
#: halves every size of ``full``; ``tiny`` is the self-check: the same
#: phases on inputs small enough to finish in seconds.
SIZES = {
    "full": {
        "warm": 2000,
        "warm_conp_yes": 400,
        "cold": {"fo": 2400, "nl": 500, "ptime": 2400, "conp": 1200},
        "first": 10000,
        "update": 9000,
        "in_flight": 256,
        "cycles": 6,
    },
    "small": {
        "warm": 1000,
        "warm_conp_yes": 200,
        "cold": {"fo": 1200, "nl": 250, "ptime": 1200, "conp": 600},
        "first": 5000,
        "update": 4500,
        "in_flight": 256,
        "cycles": 6,
    },
    "tiny": {
        "warm": 60,
        "warm_conp_yes": 40,
        "cold": {"fo": 60, "nl": 30, "ptime": 60, "conp": 40},
        "first": 200,
        "update": 200,
        "in_flight": 16,
        "cycles": 2,
    },
}

#: Rounds each phase runs per second of ``--seconds``, sized so that a
#: run on the thread transport measures for about ``--seconds``.  The
#: work of a run is fixed by ``--seconds`` rather than by the clock, so a
#: slower program does the same work (and journals the same deltas
#: before its restarts), only for longer.  A lone round reads every warm
#: pair once; a fan-in round is one read; a cold round solves every cold
#: shape once; an update round sends one delta to every update resident.
#: The run has one restart per cycle.
ROUNDS_PER_SECOND = {
    "lone": 1.0,
    "fanin": 600,
    "first": 0.75,
    "cold": 0.5,
    "update": 0.6,
}
MIN_ROUNDS = {"lone": 1, "fanin": 64, "first": 3, "cold": 2, "update": 4}

#: Seconds a phase may go without finishing before the run is declared
#: stuck (see :meth:`Run._phase`).
STALL_SECONDS = 120

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Update steps (resident, round) whose answers the oracle re-decides.
SAMPLED_STEPS = 2

#: The query read right after each delta on a resident of each class.
OTHER = {"fo": "nl", "nl": "ptime", "ptime": "conp", "conp": "fo"}

#: The end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "lone_read_p50_ms": "ms",
    "fanin_reads_per_s": "1/s",
    "first_answer_p50_ms": "ms",
    "delta_p50_ms": "ms",
    "read_after_write_p50_ms": "ms",
    "restart_s": "s",
    "cold_fo_p50_ms": "ms",
    "cold_nl_p50_ms": "ms",
    "cold_ptime_p50_ms": "ms",
    "cold_conp_p50_ms": "ms",
}


def _yes_shape(rng: random.Random, cls: str, length: int):
    """A shape on which the class's query is certain."""
    return inputs.chain(rng, QUERIES[cls], length, 7)


def _no_shape(rng: random.Random, cls: str, length: int):
    """A shape on which the class's query is not certain."""
    if cls == "conp":
        return inputs.gadget(rng, max(1, length // 8))
    return inputs.chain(rng, QUERIES[cls], length // 2, 1)


class Inputs:
    """Everything a run feeds the server, built from the seed."""

    def __init__(self, seed: int, size: dict) -> None:
        rng = random.Random(seed)
        #: Warm residents: a certain and a non-certain shape per class.
        #: Every warm read of the certain coNP resident re-runs SAT, so
        #: it is kept small enough that SAT does not swamp the reads of
        #: the other classes.
        self.warm: Dict[str, list] = {}
        for cls in CLASSES:
            self.warm["w-{}-yes".format(cls)] = inputs.chain(
                rng, QUERIES[cls],
                size["warm_conp_yes" if cls == "conp" else "warm"], 7,
            )
            self.warm["w-{}-no".format(cls)] = _no_shape(rng, cls, size["warm"])
        #: Cold shapes: two certain and two non-certain per class, each
        #: its own seeded permutation, so that the search order of one
        #: shape does not set the class's latency.
        self.cold = {
            cls: [
                maker(rng, cls, size["cold"][cls])
                for maker in (_yes_shape, _no_shape) * 2
            ]
            for cls in CLASSES
        }
        self.first = inputs.chain(rng, QUERIES["nl"], size["first"], 7)
        self.update = {
            "u-" + cls: inputs.chain(rng, QUERIES[cls], size["update"], 7)
            for cls in CLASSES
        }
        #: Class of each update resident's own query.
        self.update_class = {"u-" + cls: cls for cls in CLASSES}
        self.stream_seed = rng.randrange(2 ** 32)
        self.order_seed = rng.randrange(2 ** 32)


class Oracle:
    """Reference answers, memoized per instance content and query."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple[frozenset, str], bool] = {}
        self.seconds = 0.0

    def answer(self, db: DatabaseInstance, query: str) -> bool:
        key = (db.facts, query)
        if key not in self._memo:
            start = _clock()
            self._memo[key] = reference_answer(db, query)
            self.seconds += _clock() - start
        return self._memo[key]


def _totals(server: AsyncCertaintyServer) -> Dict[str, float]:
    """Counters summed over shards, for per-layer ratios."""
    stats = server.stats()
    out: Dict[str, float] = {
        "compactions": stats["journal"].get("compactions", 0),
    }
    for shard in stats["shards"]:
        engine = shard["engine"]
        cache = shard["state_cache"]
        transport = shard["transport"]
        for key, value in (
            ("batches", shard["batches"]),
            ("batched", shard["mean_batch_size"] * shard["batches"]),
            ("requests", shard["requests"]),
            ("coalesced", shard["coalesced"]),
            ("delta_solves", engine["delta_solves"]),
            ("incremental_hits", engine["incremental_hits"]),
            ("full_resolves", engine["full_resolves"]),
            ("cache_hits", cache.get("hits", 0)),
            ("cache_misses", cache.get("misses", 0)),
            (
                "snapshot_bytes",
                transport["snapshot_bytes"] + transport["snapshot_shm"],
            ),
        ):
            out[key] = out.get(key, 0) + value
    return out


def _diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


class Run:
    """One run of one workload (a transport) for one seed."""

    def __init__(
        self,
        transport: str,
        seed: int,
        seconds: float,
        size: str = "full",
        recorder=None,
        engine_factory=None,
        workdir: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size]
        self.recorder = recorder
        self.server_options = {"num_shards": 2, "transport": transport}
        if engine_factory is not None:
            self.server_options["engine_factory"] = engine_factory
        self.workdir = workdir
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: Client-side latency samples per phase, seconds.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Counter changes over every cycle of a phase: phase -> counter ->
        #: change.
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: The same latencies per kind of operation: metric -> kind ->
        #: samples (see :meth:`_kind_p50_ms`).
        self.by_kind: Dict[str, Dict[object, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.cold_rounds = 0
        self.metrics: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    async def _call(self, coro):
        """Await one server operation; a raised error counts as failed."""
        self.attempted += 1
        try:
            return await coro
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.failed += 1
            print("operation failed: {!r}".format(error), file=sys.stderr)
            return None

    def _check(self, what: str, got, want: Optional[bool]) -> None:
        """Record a mismatch; a failed operation (``got`` or ``want`` is
        None) is counted as failed instead."""
        if got is not None and want is not None and got.answer != want:
            self.mismatches.append(
                "{}: answered {}, oracle says {}".format(what, got.answer, want)
            )

    def _phase(self, name: str, full: bool = False) -> None:
        """Enter phase *name*: collect garbage, then freeze every live
        object, so automatic collections inside timed windows scan only
        what the phase itself allocates, not the residents, the inputs
        and the oracle's memo.  *full* first unfreezes, so garbage of a
        closed server is collected too."""
        if full:
            gc.unfreeze()
        gc.collect()
        gc.freeze()
        if self.recorder is not None:
            self.recorder.phase = name
        # A phase that makes no progress for this long has lost a request
        # or deadlocked: dump every thread's stack and exit, rather than
        # hang until killed.
        faulthandler.dump_traceback_later(STALL_SECONDS, exit=True)

    def _rounds(self, phase: str, cycle: int) -> int:
        """Rounds of *phase* in cycle *cycle*: the run's total, fixed by
        ``--seconds``, split as evenly as the cycles allow."""
        total = max(MIN_ROUNDS[phase],
                    round(self.seconds * ROUNDS_PER_SECOND[phase]))
        cycles = self.size["cycles"]
        return total // cycles + (1 if cycle < total % cycles else 0)

    def _count(self, phase: str, server, before: Dict[str, float]) -> None:
        for key, change in _diff(_totals(server), before).items():
            self.counts[phase][key] += change

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    async def _setup_once(self, journal_path: str):
        inp = Inputs(self.seed, self.size)
        warm_server = AsyncCertaintyServer(**self.server_options).start()
        warm = {
            name: inputs.instance(shape) for name, shape in inp.warm.items()
        }
        await asyncio.gather(
            *(
                self._call(warm_server.register(name, db, shard=i % 2))
                for i, (name, db) in enumerate(warm.items())
            )
        )
        pairs = [(name, QUERIES[cls]) for name in warm for cls in CLASSES]
        warm_answers = await asyncio.gather(
            *(self._call(warm_server.solve(name, q)) for name, q in pairs)
        )
        update_server = AsyncCertaintyServer(
            journal_store="sqlite:" + journal_path, **self.server_options
        ).start()
        update = {
            name: inputs.instance(shape) for name, shape in inp.update.items()
        }
        await asyncio.gather(
            *(
                self._call(update_server.register(name, db, shard=i % 2))
                for i, (name, db) in enumerate(update.items())
            )
        )
        await asyncio.gather(
            *(
                self._call(update_server.solve(name, QUERIES[cls]))
                for name, own in inp.update_class.items()
                for cls in (own, OTHER[own])
            )
        )
        return inp, warm_server, warm, pairs, warm_answers, update_server, update

    async def _setup(self):
        """Build inputs and both servers ``SETUP_REPEATS`` times; keep the
        last.  Each repetition journals to a fresh sqlite file."""
        times = []
        for attempt in range(SETUP_REPEATS):
            self._phase("setup")
            path = os.path.join(self.tmp, "journal-{}.sqlite".format(attempt))
            start = _clock()
            state = await self._setup_once(path)
            times.append(_clock() - start)
            if attempt < SETUP_REPEATS - 1:
                state[1].close()
                state[5].close()
        self.metrics["setup_s"] = statistics.median(times)
        self.journal_path = path
        return state

    # ------------------------------------------------------------------
    # Phases; each call runs one cycle's share of the phase
    # ------------------------------------------------------------------

    async def _lone(self, cycle, server, order, expected) -> None:
        self._phase("lone")
        for _ in range(self._rounds("lone", cycle)):
            for name, q in order:
                start = _clock()
                result = await self._call(server.solve(name, q))
                self.samples["lone"].append(_clock() - start)
                self._check("lone read {} {}".format(name, q), result,
                            expected[(name, q)])

    async def _fanin(self, cycle, server, pairs, expected, rng) -> None:
        self._phase("fanin")
        # The hot set is fixed, one certain pair per class, so what a
        # read costs on average does not depend on the seed.
        hot = [("w-{}-yes".format(cls), QUERIES[cls]) for cls in CLASSES]
        total = self._rounds("fanin", cycle)
        issued = 0

        async def client() -> None:
            nonlocal issued
            while issued < total:
                issued += 1
                name, q = rng.choice(hot if rng.random() < 0.5 else pairs)
                result = await self._call(server.solve(name, q))
                self._check("fan-in read {} {}".format(name, q), result,
                            expected[(name, q)])

        before = _totals(server)
        start = _clock()
        await asyncio.gather(
            *(client() for _ in range(self.size["in_flight"]))
        )
        self.samples["fanin_seconds"].append(_clock() - start)
        self.counts["fanin"]["reads"] += total
        self._count("fanin", server, before)

    async def _first(self, cycle, shape, want) -> None:
        """Register fresh large residents on a server of their own, one
        per cycle, so they do not pile up in the heap of the shards the
        other phases read from."""
        self._phase("first")
        server = AsyncCertaintyServer(**self.server_options).start()
        try:
            # Warm-up outside the window: a fresh shard compiles its plan
            # (and a fresh process imports the solvers) on first use.
            small = inputs.instance(shape[: len(shape) // 50 + 8])
            for shard in (0, 1):
                name = "warm-up-{}".format(shard)
                await self._call(server.register(name, small, shard=shard))
                await self._call(server.solve(name, QUERIES["nl"]))
            before = _totals(server)
            for _ in range(self._rounds("first", cycle)):
                copy = len(self.samples["first"]) + 1
                db = inputs.instance(shape, copy)
                name = "first-{}".format(copy)
                # Each sample leaves a large resident behind: freeze it,
                # or every later sample's collections scan earlier ones.
                self._phase("first")
                start = _clock()
                await self._call(server.register(name, db, shard=copy % 2))
                result = await self._call(server.solve(name, QUERIES["nl"]))
                self.samples["first"].append(_clock() - start)
                self._check("first answer " + name, result, want)
                self.counts["first"]["registrations"] += 1
            self._count("first", server, before)
        finally:
            server.close()

    async def _timed_kind(self, metric: str, kind, coro):
        """Await *coro*, filing its latency under *metric* and *kind*."""
        start = _clock()
        result = await self._call(coro)
        took = _clock() - start
        self.samples[metric].append(took)
        self.by_kind[metric][kind].append(took)
        return result

    async def _cold(self, cycle, server, shapes, want) -> None:
        self._phase("cold")
        for _ in range(self._rounds("cold", cycle)):
            self.cold_rounds += 1
            for cls in CLASSES:
                for i, shape in enumerate(shapes[cls]):
                    db = inputs.instance(shape, self.cold_rounds)
                    result = await self._timed_kind(
                        "cold_" + cls, i, server.solve(db, QUERIES[cls])
                    )
                    self._check("cold {} shape {}".format(cls, i), result,
                                want[(cls, i)])

    async def _update(self, cycle, server, stream) -> None:
        self._phase("update")
        before = _totals(server)
        for _ in range(self._rounds("update", cycle)):
            step = len(self.samples["delta"]) // len(stream.names)
            for name in stream.names:
                cls = stream.classes[name]
                delta = stream.next(name)
                wrote = await self._timed_kind(
                    "delta", name, server.solve_delta(name, delta, QUERIES[cls])
                )
                read = await self._timed_kind(
                    "read_after_write", name,
                    server.solve(name, QUERIES[OTHER[cls]]),
                )
                stream.note(name, step, wrote, read)
        self.counts["update"]["deltas"] += (
            self._rounds("update", cycle) * len(stream.names)
        )
        self._count("update", server, before)

    async def _restart(self, server, stream, last: bool):
        """Close *server*, reopen it on its journal, and time until every
        resident has answered one read; returns the reopened server.

        Each read must repeat the answer the resident's last delta gave
        on the same facts; on the *last* restart the oracle re-decides it.
        """
        server.close()
        # Full: the closed server's garbage goes outside the window.
        self._phase("restart", full=True)
        own = {name: QUERIES[cls] for name, cls in stream.classes.items()}
        start = _clock()
        server = AsyncCertaintyServer(
            journal_store="sqlite:" + self.journal_path,
            **self.server_options,
        ).start()
        answers = await asyncio.gather(
            *(self._call(server.solve(name, own[name])) for name in own)
        )
        self.samples["restart"].append(_clock() - start)
        for name, result in zip(own, answers):
            want = (
                self.oracle.answer(stream.instance(name), own[name])
                if last
                else stream.last_answer[name]
            )
            self._check("restart read " + name, result, want)
        return server

    async def _verify_residents(self, server, stream, when) -> None:
        """``get_instance`` equals the client's replay, and both queries
        of every resident answer as the oracle does on it."""
        self._phase("verify")
        for name, cls in stream.classes.items():
            db = stream.instance(name)
            got = await self._call(server.get_instance(name))
            if got is not None and got.facts != db.facts:
                self.mismatches.append(
                    "{}: get_instance({}) differs from the client replay "
                    "({} vs {} facts)".format(when, name, len(got), len(db))
                )
            for q in (QUERIES[cls], QUERIES[OTHER[cls]]):
                result = await self._call(server.solve(name, q))
                self._check("{} read {} {}".format(when, name, q), result,
                            self.oracle.answer(db, q))

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        state = await self._setup()
        inp, warm_server, warm, pairs, warm_answers, update_server, update = (
            state
        )
        try:
            self._phase("oracle")
            expected = {
                (name, q): self.oracle.answer(warm[name], q)
                for name, q in pairs
            }
            for (name, q), result in zip(pairs, warm_answers):
                self._check("warm-up read {} {}".format(name, q), result,
                            expected[(name, q)])
            first_want = self.oracle.answer(
                inputs.instance(inp.first), QUERIES["nl"]
            )
            cold_want = {
                (cls, i): self.oracle.answer(
                    inputs.instance(shape), QUERIES[cls]
                )
                for cls in CLASSES
                for i, shape in enumerate(inp.cold[cls])
            }
            order = list(pairs)
            random.Random(inp.order_seed).shuffle(order)
            fanin_rng = random.Random(inp.order_seed + 1)
            total_steps = sum(
                self._rounds("update", c) for c in range(self.size["cycles"])
            )
            stream = _Stream(inp, update, total_steps)
            # The phases interleave in cycles, so that every metric's
            # samples spread over the whole run and a slow spell of the
            # machine touches all metrics alike.
            for cycle in range(self.size["cycles"]):
                await self._lone(cycle, warm_server, order, expected)
                await self._fanin(cycle, warm_server, pairs, expected,
                                  fanin_rng)
                await self._first(cycle, inp.first, first_want)
                await self._cold(cycle, warm_server, inp.cold, cold_want)
                await self._update(cycle, update_server, stream)
                if cycle == self.size["cycles"] - 1:
                    await self._verify_residents(
                        update_server, stream, "end of stream"
                    )
                update_server = await self._restart(
                    update_server, stream, last=cycle == self.size["cycles"] - 1
                )
            await self._verify_residents(update_server, stream, "after restart")
            for name, db, query, result in stream.checks():
                self._check("update step on " + name, result,
                            self.oracle.answer(db, query))
        finally:
            warm_server.close()
            update_server.close()
        self._summarize()

    def _summarize(self) -> None:
        s = self.samples
        ms = lambda values: statistics.median(values) * 1e3  # noqa: E731
        self.metrics.update({
            "lone_read_p50_ms": ms(s["lone"]),
            "fanin_reads_per_s": (
                self.counts["fanin"]["reads"] / sum(s["fanin_seconds"])
            ),
            "first_answer_p50_ms": ms(s["first"]),
            "delta_p50_ms": self._kind_p50_ms("delta"),
            "read_after_write_p50_ms": self._kind_p50_ms("read_after_write"),
            "restart_s": statistics.median(s["restart"]),
        })
        for cls in CLASSES:
            self.metrics["cold_{}_p50_ms".format(cls)] = self._kind_p50_ms(
                "cold_" + cls
            )

    def _kind_p50_ms(self, metric: str) -> float:
        """The geometric mean, over the kinds of operation behind
        *metric* (update residents, cold shapes), of each kind's median
        latency.  A plain median over a mix of kinds with different costs
        lands on whichever kind sits in the middle, and jumps when that
        changes; a geometric mean also keeps one slow kind from
        outweighing the rest."""
        medians = [statistics.median(v) for v in self.by_kind[metric].values()]
        return math.exp(statistics.fmean(math.log(m) for m in medians)) * 1e3

    def run(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix=".servebench-", dir=self.workdir)
        try:
            asyncio.run(self._run())
        finally:
            faulthandler.cancel_dump_traceback_later()
            shutil.rmtree(self.tmp, ignore_errors=True)


class _Stream:
    """The update residents' delta streams and the client's replay.

    Every delta is also applied to a plain Python set of facts per
    resident.  At a seeded sample of ``SAMPLED_STEPS`` steps the replayed
    facts and both answers are kept for the oracle, which re-decides
    them after the timed phases.
    """

    def __init__(self, inp: Inputs, update, total_steps: int) -> None:
        self.names = list(update)
        self.classes = inp.update_class
        self.streams = {
            name: inputs.DeltaStream(
                random.Random(inp.stream_seed + i), update[name]
            )
            for i, name in enumerate(self.names)
        }
        self.mirror = {name: set(update[name].facts) for name in self.names}
        pick = random.Random(inp.stream_seed - 1)
        self.sampled = {
            (pick.choice(self.names), pick.randrange(total_steps))
            for _ in range(SAMPLED_STEPS)
        }
        self._kept = []
        #: The answer of each resident's latest delta.
        self.last_answer: Dict[str, Optional[bool]] = {}

    def next(self, name: str):
        delta = self.streams[name].next()
        self.mirror[name].difference_update(delta.removes)
        self.mirror[name].update(delta.inserts)
        return delta

    def note(self, name: str, step: int, wrote, read) -> None:
        self.last_answer[name] = None if wrote is None else wrote.answer
        if (name, step) in self.sampled:
            self._kept.append((name, frozenset(self.mirror[name]), wrote, read))

    def instance(self, name: str) -> DatabaseInstance:
        return DatabaseInstance(self.mirror[name])

    def checks(self):
        """``(name, instance, query, answer)`` of every sampled step."""
        for name, facts, wrote, read in self._kept:
            db = DatabaseInstance(facts)
            cls = self.classes[name]
            yield name, db, QUERIES[cls], wrote
            yield name, db, QUERIES[OTHER[cls]], read
