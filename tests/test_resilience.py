"""The resilience layer, piece by piece.

Unit-level coverage of the PR's moving parts -- the restart policy and
circuit breaker state machine (with an injected clock, no sleeping), the
seeded fault-plan grammar and its determinism, bounded-queue admission,
deadline shedding at every layer it happens (server admission, batch
assembly, mid-batch in the core), the drain-loop monotonic floor, and
the escalating process-transport shutdown.  The end-to-end chaos
schedules live in ``tests/test_chaos.py``.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.serving import (
    AsyncCertaintyServer,
    CircuitBreaker,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    RestartPolicy,
    ServerOverloaded,
    ShardRequest,
    ShardWorker,
    make_fault_plan,
)
from repro.serving.shard import ShardCore
from repro.serving.transport import merge_snapshots


def _toy() -> DatabaseInstance:
    return DatabaseInstance.from_triples(
        [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)]
    )


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRestartPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RestartPolicy(
            backoff_base=0.5, backoff_factor=2.0, backoff_max=3.0, jitter=0.0
        )
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(4) == 3.0  # capped
        assert policy.backoff(0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RestartPolicy(backoff_base=1.0, jitter=0.25, seed=42)
        twin = RestartPolicy(backoff_base=1.0, jitter=0.25, seed=42)
        for attempt in range(1, 5):
            for shard in range(3):
                delay = policy.backoff(attempt, shard)
                assert delay == twin.backoff(attempt, shard)
                base = min(5.0, 1.0 * 2.0 ** (attempt - 1))
                assert base <= delay <= base * 1.25
        # A different seed gives a different schedule somewhere.
        other = RestartPolicy(backoff_base=1.0, jitter=0.25, seed=43)
        assert any(
            other.backoff(k) != policy.backoff(k) for k in range(1, 8)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(window=0)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RestartPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_rolling_window_budget(self):
        clock = FakeClock()
        policy = RestartPolicy(max_restarts=2, window=10.0, clock=clock)
        breaker = CircuitBreaker(policy)
        assert breaker.allow_restart()
        breaker.record_restart()
        clock.advance(1.0)
        breaker.record_restart()
        assert not breaker.allow_restart()  # 2 attempts inside the window
        clock.advance(9.5)  # first attempt (t=0) ages out of [t-10, t]
        assert breaker.allow_restart()
        assert breaker.restarts_in_window() == 1

    def test_trip_open_halfopen_close_cycle(self):
        clock = FakeClock()
        policy = RestartPolicy(
            max_restarts=1,
            window=100.0,
            backoff_base=2.0,
            jitter=0.0,
            clock=clock,
        )
        breaker = CircuitBreaker(policy)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.trip()
        assert breaker.state == "open"
        assert breaker.trips == 1
        clock.advance(1.9)
        assert breaker.state == "open"  # cooldown = backoff(1) = 2.0
        clock.advance(0.1)
        assert breaker.state == "half_open"
        breaker.record_success()  # the probe served
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_reopen_backs_off_longer(self):
        clock = FakeClock()
        policy = RestartPolicy(
            backoff_base=1.0, backoff_factor=2.0, jitter=0.0, clock=clock
        )
        breaker = CircuitBreaker(policy)
        breaker.record_failure()
        breaker.trip()
        clock.advance(1.0)
        assert breaker.state == "half_open"
        breaker.record_failure()  # the probe died too
        breaker.trip()
        clock.advance(1.0)
        assert breaker.state == "open"  # cooldown doubled to 2.0
        clock.advance(1.0)
        assert breaker.state == "half_open"

    def test_snapshot_is_plain_data(self):
        breaker = CircuitBreaker()
        assert breaker.snapshot() == {
            "state": "closed",
            "consecutive_failures": 0,
            "trips": 0,
            "restarts_in_window": 0,
        }


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse(
            "seed=9; crash:op=delta,times=1 ;"
            "delay:seconds=0.25,every=3,shard=1; dup:batch=4; drop:p=0.5"
        )
        assert plan.seed == 9
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["crash", "delay", "dup", "drop"]
        delay = plan.rules[1]
        assert delay.seconds == 0.25
        assert delay.every == 3
        assert delay.shard == 1
        assert plan.rules[3].p == 0.5
        assert "delay,shard=1,every=3,seconds=0.25" in plan.describe()["rules"]

    def test_parse_rejections(self):
        with pytest.raises(ValueError):
            FaultRule.parse("meteor")
        with pytest.raises(ValueError):
            FaultRule.parse("crash:when=now")
        with pytest.raises(ValueError):
            FaultRule.parse("crash:p=2.0")
        with pytest.raises(ValueError):
            FaultRule.parse("delay:seconds=-1")
        with pytest.raises(ValueError):
            FaultRule.parse("crash:every")

    def test_every_and_times_and_op(self):
        plan = FaultPlan.parse("crash:every=2,times=2;delay:op=solve")
        fired = []
        for batch in range(6):
            ops = ["solve"] if batch % 2 == 0 else ["delta"]
            fired.append(sorted(a.kind for a in plan.draw(0, ops)))
        # every=2 fires on batches 1, 3 (then its times=2 budget is out);
        # op=solve fires on the even batches.
        assert fired == [
            ["delay"], ["crash"], ["delay"], ["crash"], ["delay"], [],
        ]
        assert plan.describe()["injected"] == {"crash": 2, "delay": 3}

    def test_probabilistic_rules_replay(self):
        spec = "drop:p=0.4;seed=11"
        first = FaultPlan.parse(spec)
        second = FaultPlan.parse(spec)
        schedule = [
            [a.kind for a in first.draw(shard, ["solve"])]
            for shard in (0, 1)
            for _ in range(20)
        ]
        replay = [
            [a.kind for a in second.draw(shard, ["solve"])]
            for shard in (0, 1)
            for _ in range(20)
        ]
        assert schedule == replay
        assert any(schedule)  # p=0.4 over 40 draws fires somewhere
        assert not all(schedule)

    def test_per_shard_batch_counters(self):
        plan = FaultPlan([FaultRule("crash", batch=1)])
        assert plan.draw(0) == []
        assert [a.kind for a in plan.draw(0)] == ["crash"]
        # Shard 1 has its own counter: its batch 1 also matches.
        assert plan.draw(1) == []
        assert [a.kind for a in plan.draw(1)] == ["crash"]
        assert plan.batches_drawn(0) == plan.batches_drawn(1) == 2
        plan.reset()
        assert plan.batches_drawn(0) == 0
        assert plan.describe()["injected"] == {}

    def test_make_fault_plan_normalizes(self):
        assert make_fault_plan(None) is None
        plan = FaultPlan()
        assert make_fault_plan(plan) is plan
        assert make_fault_plan("crash:times=1").rules[0].kind == "crash"
        from_rules = make_fault_plan([FaultRule("dup")])
        assert from_rules.rules[0].kind == "dup"


class TestAdmissionControl:
    def test_worker_queue_limit_sheds(self):
        # Unstarted worker: nothing drains, so the queue depth is exact.
        worker = ShardWorker(0, queue_limit=2)
        admitted = [ShardRequest("solve", name="a", query="RRX")
                    for _ in range(2)]
        for request in admitted:
            worker.submit(request)
        third = ShardRequest("solve", name="a", query="RRX")
        worker.submit(third)
        assert isinstance(third.error, ServerOverloaded)
        assert all(r.error is None for r in admitted)
        assert worker.overload_shed == 1
        assert worker.stats()["overload_shed"] == 1
        worker.stop()

    def test_server_max_in_flight_sheds(self, monkeypatch):
        release = threading.Event()
        run_batch = ShardCore.run_batch

        def held_batch(core, ops):
            # The single shard stays busy until the test releases it.
            release.wait(timeout=30)
            return run_batch(core, ops)

        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=1, max_in_flight=1
            ) as server:
                await server.register("toy", _toy())
                monkeypatch.setattr(ShardCore, "run_batch", held_batch)
                try:
                    first = asyncio.ensure_future(server.solve("toy", "RRX"))
                    await asyncio.sleep(0)  # the first request is admitted
                    rest = await asyncio.gather(
                        *(server.solve("toy", "RRX") for _ in range(3)),
                        return_exceptions=True,
                    )
                finally:
                    release.set()
                done = [await first] + rest
                return done, server.stats()

        done, stats = asyncio.run(scenario())
        shed = [r for r in done if isinstance(r, ServerOverloaded)]
        served = [r for r in done if not isinstance(r, BaseException)]
        assert len(shed) == 3
        assert len(served) == 1 and served[0].answer is True
        assert stats["admission"]["overload_shed"] == 3

    def test_server_validates_caps(self):
        with pytest.raises(ValueError):
            AsyncCertaintyServer(max_in_flight=0)
        with pytest.raises(ValueError):
            ShardWorker(0, queue_limit=0)


class TestDeadlines:
    def test_assembly_shed(self):
        worker = ShardWorker(0)
        expired = ShardRequest(
            "solve", name="toy", query="RRX",
            deadline=time.monotonic() - 0.01,
        )
        live = ShardRequest("solve", name="toy", query="RRX")
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        worker.execute([expired, live])
        assert isinstance(expired.error, DeadlineExceeded)
        assert live.error is None and live.result.answer is True
        assert worker.stats()["deadline_shed"] == 1
        worker.stop()

    def test_core_mid_batch_shed(self):
        # The core checks again per op: a deadline that expires while
        # earlier ops in the same batch run sheds the later ones.
        core = ShardCore(0)
        past = time.monotonic() - 1.0
        rows = core.run_batch([
            ("register", "toy", _toy(), None, None, "auto", 1, None),
            ("solve", "toy", None, None, "RRX", "auto", 0, past),
            ("solve", "toy", None, None, "RRX", "auto", 0, None),
        ])
        ok, err = rows[1]
        assert not ok and isinstance(err, DeadlineExceeded)
        assert rows[0][0] and rows[2][0]
        assert core.deadline_shed == 1
        assert core.snapshot()["deadline_shed"] == 1

    def test_delta_write_commits_before_read_shed(self):
        # Deadline semantics for writes: the committed half is never
        # rolled back -- only the read half is shed.
        core = ShardCore(0)
        core.run_batch(
            [("register", "toy", _toy(), None, None, "auto", 1, None)]
        )
        past = time.monotonic() - 1.0
        (ok, err), = core.run_batch([
            ("delta", "toy", None, Delta.removing(("X", 2, 3)), "RRX",
             "auto", 2, past),
        ])
        assert not ok and isinstance(err, DeadlineExceeded)
        assert core.applied_seq == 2  # the write half landed
        assert core.instances["toy"] == Delta.removing(("X", 2, 3)).apply_to(
            _toy()
        ).commit()

    def test_timeout_zero_is_already_expired(self):
        async def scenario():
            async with AsyncCertaintyServer(num_shards=1) as server:
                await server.register("toy", _toy())
                with pytest.raises(DeadlineExceeded):
                    await server.solve("toy", "RRX", timeout=0.0)
                result = await server.solve("toy", "RRX", timeout=30.0)
                return result, server.stats()

        result, stats = asyncio.run(scenario())
        assert result.answer is True
        assert stats["admission"]["deadline_shed"] == 1

    def test_drain_floor_expired_first_item_dispatches_immediately(self):
        # A first queue item whose deadline is already past is shed at
        # assembly without waiting for companions.
        worker = ShardWorker(0)
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        worker.start()
        try:
            expired = ShardRequest(
                "solve", name="toy", query="RRX",
                deadline=time.monotonic() - 1.0,
            )
            worker.submit(expired)
            deadline = time.monotonic() + 5.0
            while expired.error is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert isinstance(expired.error, DeadlineExceeded)
        finally:
            worker.stop()


class TestStopEscalation:
    def test_stop_kills_a_wedged_child(self):
        worker = ShardWorker(0, transport="process")
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        child = worker.transport.process
        # Wedge the child: SIGSTOP freezes it, so the protocol stop and
        # SIGTERM both pend undelivered; only SIGKILL gets through.
        os.kill(child.pid, signal.SIGSTOP)
        worker.transport.stop_timeout = 0.3
        start = time.monotonic()
        worker.stop()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert not child.is_alive()

    def test_stop_fails_queued_requests(self):
        worker = ShardWorker(0, transport="process")
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        stranded = ShardRequest("solve", name="toy", query="RRX")
        worker.submit(stranded)  # never drained: the thread isn't running
        worker.stop()
        assert stranded.error is not None


class TestSnapshotMerge:
    def test_merge_carries_shed_counters(self):
        dead = {"requests": 5, "coalesced": 1, "errors": 2,
                "deadline_shed": 3, "warm_hits": 4, "cold_solves": 1}
        live = {"requests": 1, "coalesced": 0, "errors": 0,
                "deadline_shed": 1, "warm_hits": 0, "cold_solves": 1,
                "residents": 1, "applied_seq": 7}
        merged = merge_snapshots(dead, live)
        assert merged["requests"] == 6
        assert merged["deadline_shed"] == 4
        assert merged["errors"] == 2
        assert merged["residents"] == 1  # point-in-time, not summed
        assert merged["applied_seq"] == 7
