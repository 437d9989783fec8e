"""The solver cache: one front LRU, optionally over a shared ``Tier``.

The cache is deliberately dumb: a bounded, thread-safe mapping from
canonical request keys (:mod:`repro.service.keys`) to solver outcomes.  All
the intelligence lives in the keys — semantically identical requests
collide there, so one :class:`SolverCache` shared across queries turns the
paper's within-query identical-request grouping (Section 6.4) into
cross-query reuse.  Beneath the LRU sits at most one :class:`Tier` (see
DESIGN.md, "The service layer" and Section 14).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, Protocol

from repro.service.persist import _persistable, encode_key

#: The ``(probability, solver)`` pair every tier stores — the same value
#: form :attr:`repro.service.executors.TaskOutcome.value` ships.
Value = tuple[float, str]


class Tier(Protocol):
    """The shared store beneath a front :class:`SolverCache`: the embedded
    :class:`~repro.service.shard.ShardGroup` or an attached
    :class:`~repro.service.shard.ShardClient`.

    Keys are :func:`~repro.service.persist.encode_key` TEXT forms, values
    ``(probability, solver)`` pairs; ``claim`` / ``wait`` / ``release``
    are the tier-wide single-flight behind :meth:`SolverCache.claim`.
    """

    def get(self, encoded_key: str) -> Value | None: ...

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None: ...

    def claim(self, encoded_key: str) -> tuple[str, Value | None]: ...

    def wait(self, encoded_key: str, timeout: float) -> Value | None: ...

    def release(self, encoded_key: str) -> None: ...

    def invalidate(self, encoded_keys: Iterable[str]) -> int: ...

    def clear(self) -> None: ...

    def stats(self) -> dict[str, Any]: ...

    def close(self) -> None: ...


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache counters.

    The plan-level counters (``n_solves_planned``, ``n_solves_eliminated``,
    ``n_passes_applied``) accumulate what the query planner
    (:mod:`repro.plan`) reported through :meth:`SolverCache.record_plan`:
    how many per-session solves the plans built against this cache
    contained, how many the optimizer's common-solve elimination merged
    away before any solver ran, and how many optimizer passes were applied
    in total.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    n_solves_planned: int = 0
    n_solves_eliminated: int = 0
    n_passes_applied: int = 0
    #: Entries dropped by targeted :meth:`SolverCache.invalidate` calls
    #: (the streaming layer retiring solves of expired/updated sessions) —
    #: distinct from capacity ``evictions`` and whole-store ``clear``.
    invalidations: int = 0
    #: Keys claimed in this cache's own flight table and not yet resolved.
    in_flight: int = 0

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {**dataclasses.asdict(self), "hit_rate": self.hit_rate}


_MISSING: Any = object()


class SolverCache:
    """A thread-safe LRU cache keyed by canonical solver-request keys.

    Values are whatever the caller stores — the solver dispatch caches
    :class:`~repro.solvers.base.SolverResult` objects, the query engine
    caches ``(probability, solver_name)`` pairs; the two never collide
    because their keys carry distinct tags ("solve" vs "session").

    ``get``/``put`` update recency and the hit/miss/eviction counters;
    ``__contains__`` and ``__len__`` are side-effect-free peeks.

    With a ``tier``, an LRU miss falls through to it (a hit is promoted;
    the lookup still counts as an LRU miss), ``(probability, solver)``
    pairs are written through, ``invalidate`` / ``clear`` reach it, and
    single-flight is the tier's, so every process sharing it solves a key
    once.  Without one, single-flight uses this cache's own flight table.
    """

    def __init__(
        self,
        capacity: int = 4096,
        tier: Tier | None = None,
        flight_timeout: float = 60.0,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._tier = tier
        self._flight_timeout = flight_timeout
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        #: Claimed keys of a tierless cache: the claimer solves, and
        #: concurrent claimers wait on the event instead of solving again.
        self._flights: dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._n_solves_planned = 0
        self._n_solves_eliminated = 0
        self._n_passes_applied = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        tier = f", tier={self._tier!r}" if self._tier is not None else ""
        return (
            f"{type(self).__name__}(size={len(self._data)}, "
            f"capacity={self._capacity}, hits={self._hits}, "
            f"misses={self._misses}{tier})"
        )

    # -- the LRU ----------------------------------------------------------

    def _hit(self, key: Hashable) -> Any:
        """The LRU's value (a counted hit, now most recent), or ``_MISSING``.

        Takes the (reentrant) lock itself, like :meth:`_store`.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self._hits += 1
            return value

    def _store(self, key: Hashable, value: Any) -> None:
        """Insert/refresh one entry, evicting beyond capacity.

        Takes the (reentrant) lock itself, so batch paths that already
        hold it can call this per entry without releasing in between.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    # -- the tier beneath the LRU (a ShardStore overrides these four) ----

    def _fetch(self, key: Hashable) -> Any:
        """The tier's value for an LRU miss, or ``_MISSING``."""
        if self._tier is None:
            return _MISSING
        found = self._tier.get(encode_key(key))
        return _MISSING if found is None else found

    def _write(self, items: list[tuple[Hashable, Any]]) -> None:
        """Write a flush through to the tier (its persistable pairs)."""
        if self._tier is None:
            return
        pairs = [
            (encode_key(key), (float(value[0]), value[1]))
            for key, value in items
            if _persistable(value)
        ]
        if pairs:
            self._tier.put_many(pairs)

    def _drop(self, keys: list[Hashable]) -> None:
        if self._tier is not None:
            self._tier.invalidate([encode_key(key) for key in keys])

    def _wipe(self) -> None:
        if self._tier is not None:
            self._tier.clear()

    # -- lookups and writes ----------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (marking it most recently used), or ``default``."""
        with self._lock:
            value = self._hit(key)
            if value is _MISSING:
                self._misses += 1
        if value is _MISSING:
            value = self._fetch(key)
            if value is _MISSING:
                return default
            self._store(key, value)  # promote into the LRU
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recently used beyond capacity."""
        self.put_many([(key, value)])

    def put_many(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """Insert/refresh many entries under ONE lock acquisition.

        A batch flush from the plan executor can carry hundreds of fresh
        outcomes; taking the lock per entry would interleave them with
        concurrent readers for no benefit.  The tier gets the batch in one
        flush (one SQLite transaction per shard), and only then are the
        waiters on the batch's keys woken.
        """
        items = list(items)
        with self._lock:
            for key, value in items:
                self._store(key, value)
            flights = [
                flight
                for key, _ in items
                if (flight := self._flights.pop(key, None)) is not None
            ]
        self._write(items)
        for flight in flights:
            flight.set()

    # -- single-flight ---------------------------------------------------

    def claim(self, key: Hashable) -> tuple[str, Any]:
        """Atomically: ``("value", v)``, or ``("claimed", None)`` — the
        caller owns the solve and must publish it (``put`` / ``put_many``)
        or give it up (:meth:`release_flight`) — or ``("wait", None)``:
        someone else is solving it, :meth:`wait_flight` for it."""
        if self._tier is not None:
            status, value = self._tier.claim(encode_key(key))
            if value is not None:
                self._store(key, value)
            return (status, value)
        with self._lock:
            value = self._hit(key)
            if value is not _MISSING:
                return ("value", value)
            if key in self._flights:
                return ("wait", None)
            # Read the lower store under the lock so a concurrent
            # publisher cannot interleave between miss and claim.
            value = self._fetch(key)
            if value is not _MISSING:
                self._store(key, value)
                return ("value", value)
            self._flights[key] = threading.Event()
            return ("claimed", None)

    def wait_flight(self, key: Hashable, timeout: float | None = None) -> Any:
        """Block on another owner's in-flight solve of ``key``; ``None``
        after ``timeout`` (default ``flight_timeout``) or an abandoned
        flight means the caller should solve locally."""
        if timeout is None:
            timeout = self._flight_timeout
        if self._tier is not None:
            found = self._tier.wait(encode_key(key), timeout)
            if found is not None:
                self._store(key, found)
            return found
        with self._lock:
            value = self._hit(key)
            flight = self._flights.get(key)
        if value is not _MISSING:
            return value
        if flight is not None and not flight.wait(timeout):
            return None
        return self.get(key)

    def release_flight(self, key: Hashable) -> None:
        """Give up a claimed flight without publishing, waking its waiters."""
        if self._tier is not None:
            self._tier.release(encode_key(key))
            return
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.set()

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached value, or ``compute()`` stored under ``key``.

        Single-flight through :meth:`claim`, with ``compute`` outside the
        lock.  If the owner raises (or a wait times out), the waiters
        compute locally, so a failure never strands a waiter.  ``compute``
        must not re-enter the cache with the same key.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        status, value = self.claim(key)
        if status == "value":
            return value
        if status == "wait":
            value = self.wait_flight(key)
            if value is not None:
                return value
        try:
            value = compute()
        except BaseException:
            if status == "claimed":
                self.release_flight(key)
            raise
        self.put(key, value)  # publishes the flight (a tier's if persistable)
        if status == "claimed" and not _persistable(value):
            self.release_flight(key)
        return value

    # -- invalidation, stats, lifecycle ----------------------------------

    def clear(self) -> None:
        """Drop all entries, in the tier too (counters are kept).  Waiters
        on open flights are woken and solve locally."""
        with self._lock:
            self._data.clear()
            flights = list(self._flights.values())
            self._flights.clear()
        for flight in flights:
            flight.set()
        self._wipe()

    def invalidate(self, keys: Iterable[Hashable]) -> int:
        """Drop exactly ``keys``, in the tier too; returns how many the LRU held.

        The targeted sibling of :meth:`clear`, used by the streaming
        layer to retire entries whose session was updated or expired
        (DESIGN.md Section 15).  Content-addressed keys make this a
        space/bookkeeping operation, never a correctness one: a changed
        session freezes to a *new* key, so stale entries can linger
        unread — invalidation reclaims them deterministically.  Absent
        keys are ignored; dropped entries count as ``invalidations`` in
        :meth:`stats`, not as evictions.
        """
        keys = list(keys)
        with self._lock:
            dropped = 0
            for key in keys:
                if self._data.pop(key, _MISSING) is not _MISSING:
                    dropped += 1
            self._invalidations += dropped
        self._drop(keys)
        return dropped

    def record_plan(
        self, n_planned: int, n_eliminated: int, n_passes: int
    ) -> None:
        """Accumulate one executed plan's counters (see :class:`CacheStats`)."""
        with self._lock:
            self._n_solves_planned += n_planned
            self._n_solves_eliminated += n_eliminated
            self._n_passes_applied += n_passes

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                capacity=self._capacity,
                n_solves_planned=self._n_solves_planned,
                n_solves_eliminated=self._n_solves_eliminated,
                n_passes_applied=self._n_passes_applied,
                invalidations=self._invalidations,
                in_flight=len(self._flights),
            )

    def tier_stats(self) -> dict[str, float]:
        """Flat tier counters merged into ``PreferenceService.stats()``
        (``{}`` without a tier): ``n_shards``, the ``shard_*`` totals, and
        the ``disk_*`` totals when the tier has write-back files."""
        if self._tier is None:
            return {}
        depth = self._tier.stats()
        flat: dict[str, float] = {"n_shards": depth["n_shards"]}
        for name, total in depth["totals"].items():
            flat[name if name.startswith("disk_") else f"shard_{name}"] = total
        return flat

    def tier_depth(self) -> dict[str, Any]:
        """The tier's structured per-shard payload for the server's
        ``/stats`` (``{}`` without a tier)."""
        return self._tier.stats() if self._tier is not None else {}

    def close(self) -> None:
        """Close the tier (its connection or write-back files)."""
        if self._tier is not None:
            self._tier.close()
