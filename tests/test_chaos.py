"""Seeded chaos schedules over both transports, end to end.

The ISSUE's acceptance criteria: a deterministic fault schedule mixing
crashes (after commit), drops (before apply), delays past deadlines, and
duplicated deliveries must leave **zero lost and zero double-applied
writes**, with every request resolving to an answer or to one of the
typed fail-fast errors (:class:`DeadlineExceeded`,
:class:`ServerOverloaded`, :class:`ShardUnavailable`) -- never a hang --
and a shard whose restart budget is exhausted must keep serving reads of
durable residents *degraded* from its journal while the breaker is open,
then recover through a half-open probe.
"""

import asyncio
import time

import pytest

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.scenarios.oracle import check_read_outcomes
from repro.serving import (
    AsyncCertaintyServer,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    JournalStore,
    RestartPolicy,
    ServerOverloaded,
    ShardRequest,
    ShardUnavailable,
    ShardWorker,
)

TRANSPORTS = ["thread", "process"]


def _toy() -> DatabaseInstance:
    return DatabaseInstance.from_triples(
        [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)]
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestScriptedSchedule:
    """One worker, one fault per batch, every kind in the menagerie."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_crash_drop_delay_dup_schedule(self, transport):
        plan = FaultPlan(
            [
                FaultRule("crash", batch=1, times=1),  # die after commit
                FaultRule("drop", batch=3, times=1),   # die before apply
                FaultRule("delay", batch=4, seconds=0.2, times=1),
                FaultRule("dup", batch=5, times=1),    # deliver twice
            ]
        )
        store = JournalStore()
        worker = ShardWorker(
            0,
            transport=transport,
            journal_store=store,
            faults=plan,
            restart_policy=RestartPolicy(backoff_base=0.0),
        )
        try:
            base = _toy()
            worker.execute(
                [ShardRequest("register", name="toy", db=base)]
            )  # batch 0: clean
            # Batch 1: the delta commits, then the shard dies before the
            # reply -- recovery must replay the journal, not the write.
            d1 = ShardRequest(
                "delta", name="toy",
                delta=Delta.removing(("X", 2, 3)), query="RRX",
            )
            worker.execute([d1])
            assert d1.error is None and d1.result.answer is False
            s2 = ShardRequest("solve", name="toy", query="RRX")
            worker.execute([s2])  # batch 2: clean read-your-write
            assert s2.result.answer is False
            # Batch 3: the shard dies before applying -- the retried
            # delivery must land the write exactly once.
            d3 = ShardRequest(
                "delta", name="toy",
                delta=Delta.inserting(("X", 2, 3)), query="RRX",
            )
            worker.execute([d3])
            assert d3.error is None and d3.result.answer is True
            # Batch 4: delayed 0.2s against a ~50ms deadline.
            s4 = ShardRequest(
                "solve", name="toy", query="RRX",
                deadline=time.monotonic() + 0.05,
            )
            worker.execute([s4])
            assert isinstance(s4.error, DeadlineExceeded)
            # Batch 5: delivered twice; sequence numbers shield the
            # write, the duplicate's rows are discarded.
            d5 = ShardRequest(
                "delta", name="toy",
                delta=Delta.removing(("R", 0, 1)), query="RRX",
            )
            worker.execute([d5])
            assert d5.error is None and d5.result.answer is False
            s6 = ShardRequest("solve", name="toy", query="RRX")
            worker.execute([s6])  # batch 6: clean
            assert s6.result.answer is False
            got = ShardRequest("get", name="toy")
            worker.execute([got])  # batch 7: clean
            expected = (
                Delta.removing(("X", 2, 3))
                .apply_to(base).commit()
            )
            expected = Delta.inserting(("X", 2, 3)).apply_to(
                expected
            ).commit()
            expected = Delta.removing(("R", 0, 1)).apply_to(
                expected
            ).commit()
            assert got.result == expected
            stats = worker.stats()
            assert stats["transport"]["restarts"] == 2  # crash + drop
            assert stats["deadline_shed"] >= 1
            assert stats["transport"]["breaker"] == "closed"
            assert plan.describe()["injected"] == {
                "crash": 1, "drop": 1, "delay": 1, "dup": 1,
            }
        finally:
            worker.stop()


class TestBreakerLifecycle:
    """Budget exhaustion -> open -> degraded reads -> half-open probe."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_exhausted_budget_serves_degraded_then_recovers(self, transport):
        clock = FakeClock()
        policy = RestartPolicy(
            max_restarts=1,
            window=60.0,
            backoff_base=10.0,
            jitter=0.0,
            clock=clock,
        )
        plan = FaultPlan(
            [FaultRule("crash", batch=1), FaultRule("crash", batch=2)]
        )
        store = JournalStore()
        worker = ShardWorker(
            0,
            transport=transport,
            journal_store=store,
            faults=plan,
            restart_policy=policy,
        )
        try:
            worker.execute([ShardRequest("register", name="toy", db=_toy())])
            # First crash: inside the budget, supervised restart serves it.
            s1 = ShardRequest("solve", name="toy", query="RRX")
            worker.execute([s1])
            assert s1.result.answer is True
            health = worker.stats()["transport"]
            assert health["restarts"] == 1
            assert health["breaker"] == "closed"
            # Second crash: budget (1 per 60s) is spent -- the breaker
            # trips, but the read is a durable resident, so it is served
            # *degraded* from the journal instead of failing.
            s2 = ShardRequest("solve", name="toy", query="RRX")
            worker.execute([s2])
            assert s2.error is None and s2.result.answer is True
            health = worker.stats()["transport"]
            assert health["breaker"] == "open"
            assert health["degraded_served"] == 1
            assert health["restarts"] == 1  # no restart was attempted
            # Writes cannot be served degraded: fail fast, typed.
            d = ShardRequest(
                "delta", name="toy",
                delta=Delta.removing(("X", 2, 3)), query="RRX",
            )
            worker.execute([d])
            assert isinstance(d.error, ShardUnavailable)
            # Another read while open: degraded again, still no restart.
            s3 = ShardRequest("solve", name="toy", query="RRX")
            worker.execute([s3])
            assert s3.result.answer is True
            health = worker.stats()["transport"]
            assert health["degraded_served"] == 2
            assert health["unavailable_shed"] == 1
            # Cooldown (backoff(1) = 10s) elapses on the injected clock:
            # the next batch is a half-open probe, allowed to restart
            # regardless of the window budget.
            clock.advance(10.5)
            assert worker.stats()["transport"]["breaker"] == "half_open"
            probe = ShardRequest("solve", name="toy", query="RRX")
            worker.execute([probe])
            assert probe.result.answer is True
            health = worker.stats()["transport"]
            assert health["breaker"] == "closed"
            assert health["restarts"] == 2
            assert health["consecutive_failures"] == 0
        finally:
            worker.stop()


class TestServerChaosAcceptance:
    """The acceptance run: seeded crash+delay+dup chaos through the
    async server, both transports, zero lost or double-applied writes,
    every request resolving to an answer or a typed error."""

    DELTAS = [
        Delta.removing(("X", 2, 3)),
        Delta.inserting(("X", 3, 4)),
        Delta.inserting(("R", 2, 3)),
        Delta.removing(("R", 0, 1)),
    ]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_chaos_run_is_exactly_once_and_never_hangs(self, transport):
        chaos = (
            "crash:every=3;dup:every=4;delay:seconds=0.2,every=5;seed=13"
        )
        base = _toy()

        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=2,
                transport=transport,
                journal_store="memory",
                faults=chaos,
                restart_policy=RestartPolicy(backoff_base=0.0),
            ) as server:
                await server.register("toy", base)
                # Writes, in order, no timeout: every one must commit
                # exactly once through whatever the schedule throws.
                for delta in self.DELTAS:
                    result = await server.solve_delta("toy", delta, "RRX")
                    assert result is not None
                # A concurrent read burst with a deadline tight enough
                # that a delayed batch sheds: every request must resolve
                # to an answer or a typed error -- never hang.
                reads = await asyncio.gather(
                    *(
                        server.solve("toy", "RRX", timeout=0.15)
                        for _ in range(12)
                    ),
                    return_exceptions=True,
                )
                final = await server.get_instance("toy")
                return reads, final, server.stats()

        reads, final, stats = asyncio.run(scenario())

        expected = base
        for delta in self.DELTAS:
            expected = delta.apply_to(expected).commit()
        assert final == expected  # zero lost, zero double-applied

        # Shared differential oracle (repro.scenarios.oracle): every
        # read either matches the independent reference answer on the
        # committed instance or is one of the typed shed errors.
        check_read_outcomes(
            reads,
            expected,
            "RRX",
            allowed=(DeadlineExceeded, ServerOverloaded, ShardUnavailable),
        )
        # The schedule actually fired (deterministic in the seed): the
        # writes alone span enough batches to hit ``every=3``.
        injected = stats["faults"]["injected"]
        assert injected.get("crash", 0) >= 1
        assert stats["faults"]["armed"] is True
