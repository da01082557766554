"""A bounded, thread-safe LRU cache for maintained solver states.

The engine keeps *maintainable* solver states -- the Figure 5
:class:`~repro.solvers.fixpoint.FixpointState`, the coNP route's
:class:`~repro.solvers.sat_encoding.IncrementalSatContext` and the
Section 8 :class:`~repro.solvers.generalized_solver.GeneralizedState`
-- whose value lies in being kept alive across calls: folding a delta
into a warm state is cheap, recomputing it from scratch is O(db).  Both the certainty
engine (``solve_delta``) and the sharded serving layer
(:mod:`repro.serving`) therefore need the same piece of machinery: a
bounded mapping from ``(plan key, instance)`` to a live state, with LRU
eviction and hit/miss accounting.  :class:`StateCache` is that machinery,
extracted from ``CertaintyEngine``'s private ``_states`` bookkeeping so a
shard worker, an engine, or a test can own one directly.

The cache is *checkout-based*: :meth:`take` removes the entry, the caller
mutates the state (e.g. ``FixpointState.apply_delta``) and :meth:`put`\\ s
it back -- usually under a new key, because applying a delta advances the
instance the state describes.  Removing on checkout makes the mutate
window race-free: a concurrent caller asking for the same key sees a miss
and computes its own state instead of observing a half-updated one.

>>> cache = StateCache(max_size=2)
>>> cache.put("a", object()); cache.put("b", object())
>>> cache.take("a") is not None      # hit (and checkout)
True
>>> cache.take("a") is None          # taken out above -> miss
True
>>> cache.info()["hits"], cache.info()["misses"]
(1, 1)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, TypeVar

State = TypeVar("State")


class StateCache:
    """LRU checkout cache for maintained solver states.

    *max_size* bounds the number of live states; ``0`` disables the cache
    (every :meth:`take` misses, every :meth:`put` is dropped), which
    turns incremental callers into from-scratch callers without a second
    code path.  All operations are thread-safe; counters are cumulative
    until :meth:`clear`.
    """

    __slots__ = (
        "max_size",
        "_entries",
        "_lock",
        "hits",
        "misses",
        "puts",
        "evictions",
    )

    def __init__(self, max_size: int) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    def take(self, key: Hashable) -> Optional[object]:
        """Check the state for *key* out of the cache (``None`` on miss).

        The entry is removed: the caller owns the state until it is
        :meth:`put` back (under the same or an advanced key).
        """
        with self._lock:
            state = self._entries.pop(key, None)
            if state is None:
                self.misses += 1
            else:
                self.hits += 1
            return state

    def put(self, key: Hashable, state: object) -> None:
        """Publish *state* under *key*, evicting LRU entries beyond bound."""
        if self.max_size == 0:
            return
        with self._lock:
            self.puts += 1
            self._entries[key] = state
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[Hashable]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.puts = self.evictions = 0

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return "StateCache(size={}, max_size={}, hits={}, misses={})".format(
            len(self), self.max_size, self.hits, self.misses
        )
