"""The sharded async serving layer in front of the certainty engine.

Where :mod:`repro.engine` made *compilation* pay once per query (PR 1)
and the incremental layer made *execution* pay once per delta (PR 2),
this package makes both survive **across requests**: registered
:class:`~repro.db.instance.DatabaseInstance`\\ s live on shards, each
served by a persistent worker whose engine -- plan LRU plus the
:class:`~repro.solvers.state_cache.StateCache` of maintained
:class:`~repro.solvers.fixpoint.FixpointState`\\ s -- stays warm for the
process lifetime.  Concurrent ``await``\\ s coalesce into per-shard
micro-batches with a bounded added latency.

* :class:`ShardRouter` -- hash or explicit placement of instances onto
  shards (sticky; deterministic across processes).
* :class:`ShardWorker` -- the per-shard micro-batch assembly loop,
  driving a transport-agnostic :class:`ShardCore` (resident instances,
  a private engine) through a pluggable :class:`ShardTransport`.
* :mod:`repro.serving.transport` -- the transport seam:
  :class:`ThreadTransport` (core in the worker's thread, shared memory)
  and :class:`ProcessTransport` (one persistent subprocess per shard:
  facts-only snapshots in, deltas forwarded, stripped results out,
  crash-restart with journal replay -- true CPU parallelism).
* :class:`AsyncCertaintyServer` -- the asyncio front door:
  ``await solve(...)``, ``await solve_delta(...)``, admission stats and
  per-shard warm/cold + transport-health counters via
  :meth:`AsyncCertaintyServer.stats`; graceful :meth:`close` fails
  still-queued requests with :class:`ServerClosed`.
* :mod:`repro.serving.journal` -- the durable journal tier: one
  :class:`JournalStore` records every registration and forwarded delta
  per shard, folded into a RAM view, over an optional log backend
  (:class:`KVBackend`).  Without one it is the in-process default; over
  :class:`MemoryKV`, :class:`FileKV` or :class:`SqliteKV` it appends
  checksummed records with compaction and torn-tail recovery, so a
  reopened server cold-starts its shards from the log with zero client
  re-registration (:class:`SqliteJournalStore` is the store bound to
  one sqlite file).
* :mod:`repro.serving.replication` -- the replicated journal tier:
  :class:`ReplicatedJournalStore` keeps one primary plus follower
  stores tailing its op log -- per-replica lag in ``health()``,
  promotion of the most-caught-up follower on primary failure
  (budgeted by a :class:`FailoverGuard`), and degraded reads answered
  from the freshest caught-up replica.
* :mod:`repro.serving.supervision` -- supervised restarts:
  :class:`RestartPolicy` (restart budget per rolling window,
  exponential backoff with deterministic jitter) and the per-shard
  :class:`CircuitBreaker` (closed / open / half-open), behind the
  fail-fast :class:`ShardUnavailable` path and degraded journal-backed
  reads.
* :mod:`repro.serving.faults` -- the deterministic fault-injection
  harness: a seeded :class:`FaultPlan` of crash / drop / delay / dup
  rules both transports consult per batch, wired through
  ``AsyncCertaintyServer(faults=...)`` and ``--chaos`` on the CLI.
* Admission control and deadlines -- bounded per-shard queues plus a
  server-wide in-flight cap (:class:`ServerOverloaded`), and
  ``timeout=`` on every read so expired requests are shed with
  :class:`DeadlineExceeded` before burning engine work.
* :mod:`repro.serving.bench` -- the mixed-workload and CPU-bound
  transport benchmarks behind ``python -m repro bench-serve`` and the
  pinned throughput assertions.

See ``docs/serving.md`` for the architecture and a worked example.
"""

from repro.serving.faults import (
    FaultPlan,
    FaultRule,
    make_fault_plan,
)
from repro.serving.journal import (
    CorruptRecord,
    FileKV,
    JournalStore,
    KVBackend,
    MemoryKV,
    ShardJournal,
    SqliteJournalStore,
    SqliteKV,
    make_journal_store,
    pack_record,
    unpack_record,
)
from repro.serving.replication import (
    JournalFault,
    JournalUnavailable,
    ReplicatedJournalStore,
)
from repro.serving.server import AsyncCertaintyServer
from repro.serving.shard import (
    EMPTY_DELTA,
    DeadlineExceeded,
    ServerClosed,
    ServerOverloaded,
    ShardCore,
    ShardRequest,
    ShardRouter,
    ShardUnavailable,
    ShardWorker,
    stable_shard,
)
from repro.serving.supervision import (
    CircuitBreaker,
    FailoverGuard,
    RestartPolicy,
)
from repro.serving.transport import (
    ProcessTransport,
    ShardTransport,
    ShardTransportError,
    ThreadTransport,
    make_transport,
)

__all__ = [
    "AsyncCertaintyServer",
    "CircuitBreaker",
    "CorruptRecord",
    "DeadlineExceeded",
    "EMPTY_DELTA",
    "FailoverGuard",
    "FaultPlan",
    "FaultRule",
    "FileKV",
    "JournalFault",
    "JournalStore",
    "JournalUnavailable",
    "KVBackend",
    "MemoryKV",
    "ProcessTransport",
    "ReplicatedJournalStore",
    "RestartPolicy",
    "ServerClosed",
    "ServerOverloaded",
    "ShardCore",
    "ShardJournal",
    "ShardRequest",
    "ShardRouter",
    "ShardTransport",
    "ShardTransportError",
    "ShardUnavailable",
    "ShardWorker",
    "SqliteJournalStore",
    "SqliteKV",
    "ThreadTransport",
    "make_fault_plan",
    "make_journal_store",
    "make_transport",
    "pack_record",
    "stable_shard",
    "unpack_record",
]
