"""The StateCache extracted from the engine: checkout, LRU, counters."""

import threading

import pytest

from repro.solvers.state_cache import StateCache


class TestStateCache:
    def test_take_checks_out(self):
        cache = StateCache(max_size=4)
        state = object()
        cache.put("k", state)
        assert cache.take("k") is state
        assert cache.take("k") is None  # checked out, not shared
        assert cache.info()["hits"] == 1
        assert cache.info()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = StateCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", cache.take("a"))  # refresh a -> b is now LRU
        cache.put("c", 3)
        assert cache.take("b") is None
        assert cache.take("a") == 1
        assert cache.take("c") == 3
        assert cache.info()["evictions"] == 1

    def test_zero_size_disables(self):
        cache = StateCache(max_size=0)
        cache.put("k", object())
        assert len(cache) == 0
        assert cache.take("k") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            StateCache(max_size=-1)

    def test_clear_resets_counters(self):
        cache = StateCache(max_size=2)
        cache.put("a", 1)
        cache.take("a")
        cache.take("a")
        cache.clear()
        info = cache.info()
        assert info == {
            "size": 0,
            "max_size": 2,
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
        }

    def test_concurrent_take_yields_single_owner(self):
        cache = StateCache(max_size=4)
        cache.put("k", object())
        winners = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            state = cache.take("k")
            if state is not None:
                winners.append(state)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1  # checkout semantics: one owner


class TestEngineStateCacheWiring:
    def test_engine_exposes_state_cache(self):
        from repro.db.delta import Delta
        from repro.engine import CertaintyEngine
        from repro.db.instance import DatabaseInstance

        engine = CertaintyEngine(state_cache_size=8)
        db = DatabaseInstance.from_triples(
            [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)]
        )
        engine.solve_delta(db, Delta(), "RRX")
        assert len(engine.state_cache) == 1
        assert engine.cache_info()["states"]["size"] == 1
        engine.solve_delta(db, Delta(), "RRX")
        assert engine.state_cache.hits == 1
        engine.clear_cache()
        assert len(engine.state_cache) == 0

    def test_engine_zero_state_cache_still_correct(self):
        from repro.db.delta import Delta
        from repro.engine import CertaintyEngine
        from repro.db.instance import DatabaseInstance

        engine = CertaintyEngine(state_cache_size=0)
        db = DatabaseInstance.from_triples(
            [("R", 0, 1), ("R", 1, 2), ("X", 2, 3)]
        )
        first = engine.solve_delta(db, Delta(), "RRX")
        second = engine.solve_delta(db, Delta(), "RRX")
        assert first.answer is True and second.answer is True
        assert engine.stats.full_resolves == 2  # nothing retained
