"""The sharded async serving layer: routing, workers, transports, server, CLI.

Worker- and server-semantics tests are parametrized over both shard
transports (``thread`` and ``process``): the transport seam promises
identical observable behavior -- routing, read-your-writes ordering,
coalescing, error propagation -- regardless of where the shard's engine
lives.  Transport-specific behavior (crash-restart recovery, journal
replay, certificate rehydration, health counters) is covered separately.
"""

import asyncio
import threading
import time

import pytest

from repro.cli import main, parse_workload
from repro.db.delta import Delta
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.serving import (
    AsyncCertaintyServer,
    ProcessTransport,
    ServerClosed,
    ShardRequest,
    ShardRouter,
    ShardWorker,
    ThreadTransport,
    make_transport,
    stable_shard,
)
from repro.workloads.generators import chain_instance

MIXED = ["RXRX", "RRX", "RXRYRY", "ARRX"]  # FO, NL, PTIME, coNP

TRANSPORTS = ["thread", "process"]


def _toy(extra=()):
    return DatabaseInstance.from_triples(
        [("R", 0, 1), ("R", 1, 2), ("X", 2, 3), *extra]
    )


class _ShardHold:
    """Parks ``ShardWorker.execute`` on an event, so the batch in service
    stays in service and later requests queue behind it.  Both transports
    call ``execute`` from the worker's own (parent-side) thread."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        execute = ShardWorker.execute

        def held(worker, batch):
            self.entered.set()
            self.release.wait(30)
            execute(worker, batch)

        monkeypatch.setattr(ShardWorker, "execute", held)

    async def wait_entered(self):
        assert await asyncio.to_thread(self.entered.wait, 30)


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


@pytest.fixture
def worker(transport):
    worker = ShardWorker(0, transport=transport)
    yield worker
    worker.stop()


class TestShardRouter:
    def test_hash_placement_is_deterministic(self):
        first = ShardRouter(num_shards=8)
        second = ShardRouter(num_shards=8)
        for name in ("orders", "users", "events"):
            assert first.register(name) == second.register(name)
            assert first.shard_of(name) == stable_shard(name, 8)

    def test_explicit_placement_wins_and_sticks(self):
        router = ShardRouter(num_shards=4, placement={"hot": 3})
        assert router.shard_of("hot") == 3
        assert router.register("hot") == 3  # re-register keeps the pin
        with pytest.raises(ValueError):
            router.register("hot", shard=1)  # conflicting move refused

    def test_shard_out_of_range_rejected(self):
        router = ShardRouter(num_shards=2)
        with pytest.raises(ValueError):
            router.register("x", shard=2)
        with pytest.raises(ValueError):
            ShardRouter(num_shards=0)

    def test_unregistered_and_instance_routing(self):
        router = ShardRouter(num_shards=4)
        assert router.shard_of("never-registered") in range(4)
        assert router.shard_of(_toy()) in range(4)

    def test_assignments_copy(self):
        router = ShardRouter(num_shards=2, placement={"a": 1})
        assignments = router.assignments()
        assignments["a"] = 0
        assert router.shard_of("a") == 1


class TestMakeTransport:
    def test_names_resolve(self):
        assert isinstance(make_transport("thread", 0), ThreadTransport)
        process = make_transport("process", 0)
        assert isinstance(process, ProcessTransport)
        process.stop()  # never started: a no-op

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon", 0)
        with pytest.raises(ValueError):
            ShardWorker(0, transport="carrier-pigeon")

    def test_instance_and_factory_pass_through(self):
        ready = ThreadTransport(7)
        assert make_transport(ready, 7) is ready
        built = make_transport(ThreadTransport, 3)
        assert isinstance(built, ThreadTransport)
        assert built.shard_id == 3


class TestShardWorker:
    """Drive execute() directly -- deterministic, no drain thread.

    Every test runs against both transports: execute() is a synchronous
    round trip either way (in-thread core, or one pipe message pair).
    """

    def test_register_solve_and_warm_state(self, worker):
        register = ShardRequest("register", name="toy", db=_toy())
        first = ShardRequest("solve", name="toy", query="RRX")
        second = ShardRequest("solve", name="toy", query="RRX")
        worker.execute([register])
        worker.execute([first])
        worker.execute([second])
        assert first.result.answer is True
        assert second.result.answer is True
        stats = worker.stats()
        assert stats["cold_solves"] == 1
        assert stats["warm_hits"] == 1
        assert stats["engine"]["delta_solves"] == 2

    def test_duplicate_reads_coalesce_within_batch(self, worker):
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        requests = [
            ShardRequest("solve", name="toy", query="RRX") for _ in range(5)
        ]
        worker.execute(requests)
        assert all(r.result.answer is True for r in requests)
        assert worker.coalesced == 4  # one engine call served five futures
        # Identity survives both transports: the in-thread core returns
        # the same object, and one pickled reply shares it via the memo.
        assert requests[0].result is requests[4].result

    def test_delta_invalidates_coalesced_read(self, worker):
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        before = ShardRequest("solve", name="toy", query="RRX")
        delta = ShardRequest(
            "delta",
            name="toy",
            delta=Delta.removing(("X", 2, 3)),
            query="RRX",
        )
        after = ShardRequest("solve", name="toy", query="RRX")
        worker.execute([before, delta, after])
        assert before.result.answer is True
        assert delta.result.answer is False
        assert after.result.answer is False  # not served from the memo

    def test_delta_advances_registry_to_committed_instance(self, worker):
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        delta = ShardRequest(
            "delta",
            name="toy",
            delta=Delta.inserting(("R", 5, 6)),
            query="RRX",
        )
        got = ShardRequest("get", name="toy")
        worker.execute([delta])
        worker.execute([got])
        assert ("R", 5, 6) in {
            (f.relation, f.key, f.value) for f in got.result.facts
        }

    def test_unknown_name_fails_request(self, worker):
        request = ShardRequest("solve", name="ghost", query="RRX")
        worker.execute([request])
        assert isinstance(request.error, KeyError)
        assert worker.errors == 1

    def test_forced_method_bypasses_warm_path(self, worker):
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        forced = ShardRequest("solve", name="toy", query="RRX", method="sat")
        worker.execute([forced])
        assert forced.result.method == "sat"
        assert worker.stats()["engine"]["delta_solves"] == 0

    def test_no_answer_certificate_survives_the_transport(self, worker):
        """A lazy "no" certificate reaches the caller on both transports.

        The process transport strips it on the wire and rehydrates from
        the router-side journal; the construction is deterministic in
        the facts, so the repair matches the in-process one exactly.
        """
        worker.execute([ShardRequest("register", name="toy", db=_toy())])
        request = ShardRequest(
            "delta",
            name="toy",
            delta=Delta.removing(("X", 2, 3)),
            query="RRX",
        )
        worker.execute([request])
        result = request.result
        assert result.answer is False
        assert result.has_lazy_repair  # not resolved by the hop
        updated = Delta.removing(("X", 2, 3)).apply_to(_toy()).commit()
        repair = result.falsifying_repair
        assert repair.is_repair_of(updated)
        reference = CertaintyEngine().solve(updated, "RRX")
        assert repair == reference.falsifying_repair

    def test_close_fails_queued_and_late_requests(self, worker):
        """Graceful shutdown: still-queued futures fail with ServerClosed."""
        queued = ShardRequest("solve", name="toy", query="RRX")
        worker.submit(queued)  # no thread running: stays queued
        worker.stop()
        assert isinstance(queued.error, ServerClosed)
        late = ShardRequest("solve", name="toy", query="RRX")
        worker.submit(late)
        assert isinstance(late.error, ServerClosed)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardWorker(0, max_batch=0)


class TestProcessTransportRecovery:
    """Crash-restart: the child dies, the journal replays, answers hold."""

    def test_worker_crash_restart_preserves_residents_and_deltas(self):
        worker = ShardWorker(0, transport="process")
        try:
            worker.execute([ShardRequest("register", name="toy", db=_toy())])
            delta = ShardRequest(
                "delta",
                name="toy",
                delta=Delta.removing(("X", 2, 3)),
                query="RRX",
            )
            worker.execute([delta])
            assert delta.result.answer is False
            worker.transport.process.kill()
            after = ShardRequest("solve", name="toy", query="RRX")
            got = ShardRequest("get", name="toy")
            worker.execute([after, got])
            # The replayed resident is the *post-delta* instance: the
            # journal compacts every forwarded delta into the snapshot.
            assert after.result.answer is False
            assert got.result == Delta.removing(("X", 2, 3)).apply_to(
                _toy()
            ).commit()
            health = worker.stats()["transport"]
            assert health["restarts"] == 1
            assert health["alive"] is True
        finally:
            worker.stop()

    def test_server_crash_restart_answers_unchanged(self):
        instances = {
            "chain{}".format(i): chain_instance(
                q, repetitions=3, conflict_every=3
            )
            for i, q in enumerate(MIXED)
        }
        reference = CertaintyEngine()
        expected = {
            (name, query): reference.solve(instances[name], query).answer
            for name in sorted(instances)
            for query in MIXED
        }

        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=2, transport="process"
            ) as server:
                for name, db in sorted(instances.items()):
                    await server.register(name, db)
                requests = list(expected)
                before = await server.solve_many(requests)
                for worker in server.workers:
                    worker.transport.process.kill()
                after = await server.solve_many(requests)
                return requests, before, after, server.stats()

        requests, before, after, stats = asyncio.run(scenario())
        for (name, query), cold, warm in zip(requests, before, after):
            assert cold.answer == expected[(name, query)], (name, query)
            assert warm.answer == expected[(name, query)], (name, query)
        # A killed child restarts lazily, on the next batch that reaches
        # it -- so exactly the shards that hold residents restart.
        serving_shards = set(stats["placement"].values())
        for shard_stats in stats["shards"]:
            expected = 1 if shard_stats["shard"] in serving_shards else 0
            assert shard_stats["transport"]["restarts"] == expected
        # Counters stay monotone across the restart: both passes counted.
        assert sum(s["requests"] for s in stats["shards"]) >= 2 * len(requests)

    def test_transport_health_counters(self):
        worker = ShardWorker(0, transport="process")
        try:
            worker.execute([ShardRequest("register", name="toy", db=_toy())])
            worker.execute(
                [
                    ShardRequest(
                        "delta",
                        name="toy",
                        delta=Delta.inserting(("X", 2, 9)),
                        query="RRX",
                    )
                ]
            )
            health = worker.stats()["transport"]
            assert health["transport"] == "process"
            assert health["alive"] is True
            assert health["restarts"] == 0
            assert health["snapshot_bytes"] > 0  # one facts-only snapshot
            assert health["deltas_forwarded"] == 1
            assert health["queue_depth"] == 0
        finally:
            worker.stop()

    def test_unpicklable_instance_fails_request_not_the_worker(self):
        """A payload the pipe cannot carry fails *that* future; the
        drain thread and the shard survive for later traffic."""
        bad = DatabaseInstance.from_triples([("R", (lambda: None), 1)])

        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=1, transport="process"
            ) as server:
                with pytest.raises(Exception):
                    await server.register("bad", bad)  # unpicklable facts
                await server.register("ok", _toy())
                return (await server.solve("ok", "RRX")).answer

        assert asyncio.run(scenario()) is True

    def test_thread_health_is_trivial(self):
        worker = ShardWorker(0, transport="thread")
        health = worker.stats()["transport"]
        assert health["transport"] == "thread"
        assert health["snapshot_bytes"] == 0
        assert health["deltas_forwarded"] == 0
        worker.stop()


class TestAsyncCertaintyServer:
    def test_answers_match_engine_across_classes(self, transport):
        reference = CertaintyEngine()
        instances = {
            "chain{}".format(i): chain_instance(q, repetitions=3, conflict_every=3)
            for i, q in enumerate(MIXED)
        }

        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=3, transport=transport
            ) as server:
                for name, db in sorted(instances.items()):
                    await server.register(name, db)
                requests = [
                    (name, query)
                    for name in sorted(instances)
                    for query in MIXED
                ]
                # Twice: the second pass is served fully shard-warm.
                cold = await server.solve_many(requests)
                warm = await server.solve_many(requests)
                return requests, cold, warm, server.stats()

        requests, cold, warm, stats = asyncio.run(scenario())
        for (name, query), cold_r, warm_r in zip(requests, cold, warm):
            expected = reference.solve(instances[name], query).answer
            assert cold_r.answer == expected, (name, query)
            assert warm_r.answer == expected, (name, query)
        assert stats["admission"]["failed"] == 0
        assert stats["admission"]["in_flight"] == 0
        assert sum(s["warm_hits"] for s in stats["shards"]) > 0

    def test_read_your_writes_per_instance(self, transport):
        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=2, transport=transport
            ) as server:
                await server.register("toy", _toy())
                answers = [(await server.solve("toy", "RRX")).answer]
                result = await server.solve_delta(
                    "toy", Delta.removing(("X", 2, 3)), "RRX"
                )
                answers.append(result.answer)
                answers.append((await server.solve("toy", "RRX")).answer)
                result = await server.solve_delta(
                    "toy", Delta.inserting(("X", 2, 9)), "RRX"
                )
                answers.append(result.answer)
                answers.append((await server.solve("toy", "RRX")).answer)
                db = await server.get_instance("toy")
                return answers, db

        answers, db = asyncio.run(scenario())
        assert answers == [True, False, False, True, True]
        # The registry advanced to the twice-updated instance.
        assert db == Delta.removing(("X", 2, 3)).then_inserting(
            ("X", 2, 9)
        ).apply_to(_toy()).commit()

    def test_adhoc_instance_passthrough(self, transport):
        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=2, transport=transport
            ) as server:
                return await server.solve(_toy(), "RRX")

        result = asyncio.run(scenario())
        assert result.answer is True

    def test_unknown_name_raises_for_awaiter(self, transport):
        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=2, transport=transport
            ) as server:
                with pytest.raises(KeyError):
                    await server.solve("ghost", "RRX")
                return server.stats()

        stats = asyncio.run(scenario())
        assert stats["admission"]["failed"] == 1

    def test_lifecycle_guards(self):
        server = AsyncCertaintyServer(num_shards=1)

        async def not_started():
            with pytest.raises(RuntimeError):
                await server.solve("toy", "RRX")

        asyncio.run(not_started())
        server.start()
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServerClosed):
            server.start()  # a closed server cannot be restarted

    def test_close_fails_pending_requests(self, transport, monkeypatch):
        """The graceful-shutdown contract at the asyncio surface:
        requests still queued when close() runs fail with ServerClosed
        instead of leaving their futures pending forever."""

        async def scenario():
            server = AsyncCertaintyServer(
                num_shards=1, transport=transport, max_batch=64
            )
            server.start()
            await server.register("toy", _toy())
            hold = _ShardHold(monkeypatch)
            held = asyncio.ensure_future(server.solve("toy", "RRX"))
            await hold.wait_entered()
            tasks = [
                asyncio.ensure_future(server.solve("toy", "RRX"))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # each task submits before it awaits
            worker = server.workers[0]
            assert worker.queue_depth() == 3

            def release_once_closing():
                while not worker._closing:
                    time.sleep(0.001)
                hold.release.set()

            timer = threading.Timer(0.0, release_once_closing)
            timer.start()
            server.close()
            timer.join(10)
            assert not timer.is_alive()
            settled = await asyncio.gather(*tasks, return_exceptions=True)
            with pytest.raises(ServerClosed):
                await server.solve("toy", "RRX")  # admission after close
            return await held, settled, server.stats()

        held, settled, stats = asyncio.run(scenario())
        assert held.answer is True  # the batch in service finishes
        assert all(isinstance(error, ServerClosed) for error in settled)
        assert stats["admission"]["failed"] == 3
        assert stats["admission"]["in_flight"] == 0

    def test_explicit_placement_routes_to_that_shard(self, transport):
        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=3, transport=transport
            ) as server:
                shard = await server.register("pinned", _toy(), shard=2)
                await server.solve("pinned", "RRX")
                return shard, server.stats()

        shard, stats = asyncio.run(scenario())
        assert shard == 2
        assert stats["placement"]["pinned"] == 2
        assert stats["shards"][2]["requests"] == 2  # register + solve
        assert stats["shards"][0]["requests"] == 0

    def test_concurrent_burst_is_batched(self, transport, monkeypatch):
        async def scenario():
            async with AsyncCertaintyServer(
                num_shards=1, max_batch=64, transport=transport
            ) as server:
                await server.register("toy", _toy())
                await server.solve("toy", "RRX")  # warm the state
                hold = _ShardHold(monkeypatch)
                held = asyncio.ensure_future(server.solve("toy", "RRX"))
                await hold.wait_entered()
                burst = asyncio.gather(
                    *(server.solve("toy", "RRX") for _ in range(32))
                )
                await asyncio.sleep(0)  # all 32 queue behind the held batch
                assert server.workers[0].queue_depth() == 32
                hold.release.set()
                results = [await held, *await burst]
                return results, server.stats()["shards"][0]

        burst, shard = asyncio.run(scenario())
        assert all(r.answer is True for r in burst)
        # What queued while a batch was in service is drained as one
        # micro-batch.
        assert shard["max_batch_size"] > 1


class TestServeCli:
    def _write_instance(self, tmp_path, name, lines):
        path = tmp_path / "{}.txt".format(name)
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("cli_transport", TRANSPORTS)
    def test_serve_workload_end_to_end(self, tmp_path, capsys, cli_transport):
        db_a = self._write_instance(
            tmp_path, "a", ["R,0,1", "R,1,2", "X,2,3"]
        )
        workload = tmp_path / "workload.txt"
        workload.write_text(
            "# demo\n"
            "solve a RRX\n"
            "delta a RRX -X,2,3\n"
            "solve a RRX\n"
        )
        code = main(
            [
                "serve",
                "--instance",
                "a={}".format(db_a),
                "--workload",
                str(workload),
                "--transport",
                cli_transport,
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # last answers are "not certain"
        assert "not certain" in out
        assert "admission: submitted=4 completed=4 failed=0" in out
        assert "warm=" in out
        assert "transport={}".format(cli_transport) in out
        assert "restarts=0" in out and "queue_depth=" in out
        if cli_transport == "process":
            assert "deltas_forwarded=1" in out

    def test_serve_sqlite_journal_survives_reruns(self, tmp_path, capsys):
        """Run 2 serves no ``--instance``: residents come from the log."""
        db_a = self._write_instance(
            tmp_path, "a", ["R,0,1", "R,1,2", "X,2,3"]
        )
        workload_first = tmp_path / "first.txt"
        workload_first.write_text("solve a RRX\ndelta a RRX -X,2,3\n")
        workload_second = tmp_path / "second.txt"
        workload_second.write_text("solve a RRX\n")
        journal = "sqlite:{}".format(tmp_path / "journal.db")

        code = main(
            [
                "serve",
                "--instance",
                "a={}".format(db_a),
                "--workload",
                str(workload_first),
                "--journal",
                journal,
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # the delta removed X: "not certain"
        assert "journal: store=sqlite" in out

        code = main(
            [
                "serve",
                "--workload",
                str(workload_second),
                "--journal",
                journal,
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # post-delta state survived the restart
        assert "not certain" in out
        assert "journal: store=sqlite residents=1" in out

    def test_serve_reports_per_request_errors(self, tmp_path, capsys):
        """A failing workload line is reported in its row, not a traceback."""
        db_a = self._write_instance(
            tmp_path, "a", ["R,0,1", "R,1,2", "X,2,3"]
        )
        workload = tmp_path / "workload.txt"
        workload.write_text(
            "solve a RRX\n"
            "solve ghost RRX\n"      # unregistered name
            "delta a RRX +\n"        # malformed edit
            "solve a RRX\n"
        )
        code = main(
            [
                "serve",
                "--instance",
                "a={}".format(db_a),
                "--workload",
                str(workload),
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("error") == 2
        assert "KeyError" in out and "ValueError" in out
        assert out.count("certain") >= 2  # healthy rows still served

    def test_serve_rejects_bad_instance_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--instance", "nofile", "--workload", "x"])

    def test_parse_workload_rejects_garbage(self):
        with pytest.raises(SystemExit):
            parse_workload(["solve onlytwo"])
        assert parse_workload(["", "# comment", "solve a RRX"]) == [
            ("solve", "a", "RRX", None)
        ]

    def test_bench_serve_cli_smoke(self, capsys):
        code = main(
            [
                "bench-serve",
                "--instances",
                "2",
                "--repetitions",
                "3",
                "--requests",
                "12",
                "--shards",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup:" in out
        assert "answers agree: True" in out

    def test_bench_serve_cpu_bound_cli_smoke(self, capsys):
        code = main(
            [
                "bench-serve",
                "--cpu-bound",
                "--shards",
                "2",
                "--repetitions",
                "50",
                "--requests",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "process/thread speedup:" in out
        assert "answers agree: True" in out
