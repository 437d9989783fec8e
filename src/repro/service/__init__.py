"""The serving layer: cache keys, caches, executors, planning, batching.

Six pieces (see DESIGN.md, "The service layer" and "Executors,
persistence, planning"):

* :mod:`repro.service.keys` — canonical cache keys for (model, labeling,
  pattern-union) solve requests, built on the ``freeze()`` hooks of the
  model and pattern classes;
* :mod:`repro.service.cache` — the one front cache, a thread-safe LRU
  :class:`SolverCache` with hit/miss/eviction statistics and
  single-flight, optionally over one :class:`Tier`; consumed by the
  solver dispatch and the query engine (``cache=`` parameter);
* :mod:`repro.service.persist` — the durable key encoding and the SQLite
  store (:class:`PersistentCache`) that shards write back to, making warm
  state survive restarts;
* :mod:`repro.service.shard` — the sharded *shared* tier
  (:class:`ShardGroup` embedded, :class:`ShardClient` attached to a
  :class:`ShardCacheServer`): warm state partitioned over canonical keys
  and served to a fleet of workers, with fleet-wide single-flight so N
  cold workers solve a hot key once;
* :mod:`repro.service.executors` — pluggable ``serial`` / ``thread`` /
  ``process`` execution backends over picklable ``SolveTask`` descriptors
  built from the canonical ``freeze()`` forms;
* :mod:`repro.service.planner` — DP state-count estimates and the
  largest-first (LPT) schedule of a batch's pending solves;
* :mod:`repro.service.service` — the :class:`PreferenceService` batch API
  (``answer_many``) that groups sessions across whole batches of requests
  and runs the distinct solves on the configured backend.

``PreferenceService`` is re-exported lazily: the query
engine imports :mod:`repro.service.keys` at load time, and an eager import
of :mod:`repro.service.service` here would close an import cycle back into
the engine.
"""

from repro.service.cache import CacheStats, SolverCache, Tier
from repro.service.executors import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SolveTask,
    TaskOutcome,
    ThreadBackend,
    resolve_backend,
    run_solve_task,
    task_model_form,
)
from repro.service.keys import freeze_model, session_cache_key, solve_cache_key
from repro.service.persist import PersistentCache
from repro.service.shard import (
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    ShardedSolverCache,
    shard_of,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "ExecutionBackend",
    "PersistentCache",
    "ProcessBackend",
    "SerialBackend",
    "ShardCacheServer",
    "ShardClient",
    "ShardGroup",
    "ShardedSolverCache",
    "SolveTask",
    "SolverCache",
    "TaskOutcome",
    "ThreadBackend",
    "Tier",
    "shard_of",
    "freeze_model",
    "resolve_backend",
    "run_solve_task",
    "task_model_form",
    "session_cache_key",
    "solve_cache_key",
    "PreferenceService",
]


def __getattr__(name: str):
    if name == "PreferenceService":
        from repro.service import service as _service

        return getattr(_service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
