"""A sharded shared-cache tier: warm solve state for a fleet of workers.

The LRU :class:`~repro.service.cache.SolverCache` is per-process and the
SQLite tier of :mod:`repro.service.persist` is one file consulted only on
miss-after-miss; a fleet of worker processes therefore starts cold N times
and duplicates hot solves N times.  This module turns the warm state into
a *shared* tier partitioned over the canonical ``freeze()`` keys:

* :func:`shard_of` — a stable hash of the existing
  :func:`~repro.service.persist.encode_key` TEXT form picks one of N
  shards, so every process (and every restart) routes a canonical key to
  the same shard;
* :class:`ShardStore` / :class:`ShardGroup` — one bounded, thread-safe
  store per shard with per-shard hit/occupancy counters, per-key
  *in-flight* tracking (single-flight: a fleet of cache-cold workers
  hitting one hot key performs one solve, not N), and write-back through
  a per-shard :class:`~repro.service.persist.PersistentCache` SQLite file
  (one transaction per flush; the existing version-stamp clearing
  semantics carry over, so a format bump clears shards and can never
  serve a stale answer);
* :class:`ShardCacheServer` / :class:`ShardClient` — a small cache-server
  protocol over a localhost socket for multi-process fleets, framed
  exactly like the process backend ships its work: length-prefixed pickle
  of small builtin forms (encoded TEXT keys and the ``(probability,
  solver)`` pairs of :attr:`~repro.service.executors.TaskOutcome.value`).
  The client is picklable and re-connects lazily after a ``fork``, so it
  crosses process boundaries the way :class:`~repro.service.executors
  .SolveTask` does;
* :class:`ShardedSolverCache` — the drop-in :class:`SolverCache` subclass
  (like :class:`~repro.service.persist.PersistentSolverCache`) that the
  :class:`~repro.service.service.PreferenceService`, the plan executor,
  and the CLI inherit via ``cache_shards=`` / ``--cache-shards``: a
  process-local LRU in front, the shard tier beneath it — embedded
  in-process, or attached to a running :class:`ShardCacheServer` via
  ``shard_address=``.

The protocol is trusted-transport only (pickle over a loopback socket,
exactly like the ``ProcessPoolExecutor`` pipe the process backend already
uses); it is not an exposed network surface.  See DESIGN.md Section 14.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import struct
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, Union

from repro.service.cache import SolverCache
from repro.service.persist import (
    PersistentCache,
    _persistable,
    default_version,
    encode_key,
)

#: The ``(probability, solver)`` pair every shared tier stores — the same
#: value form :attr:`repro.service.executors.TaskOutcome.value` ships.
Value = tuple[float, str]

#: Default shard count of an embedded tier (a few shards decorrelate lock
#: and transaction contention without fragmenting the LRU budget).
DEFAULT_SHARDS = 4

#: Upper bound a server puts on one blocking ``wait`` call, so abandoned
#: flights cannot pin handler threads forever.
MAX_WAIT_SECONDS = 300.0

_MISSING: Any = object()


def shard_of(encoded_key: str, n_shards: int) -> int:
    """The shard index of a canonical key's ``encode_key`` TEXT form.

    Stable across processes, runs, and hosts (``blake2b``, not the
    per-process salted ``hash``), so every member of a fleet — and every
    restart — routes a canonical key to the same shard.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.blake2b(
        encoded_key.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


def shard_db_path(path: Union[str, "os.PathLike[str]"], index: int) -> str:
    """The per-shard SQLite file derived from a ``cache_db`` stem.

    ``cache.sqlite`` -> ``cache-shard0.sqlite``, ``cache-shard1.sqlite``,
    ... — per-shard files keep each flush a single small transaction and
    let shards clear independently on a version bump.
    """
    root, extension = os.path.splitext(os.fspath(path))
    return f"{root}-shard{index}{extension}"


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------


class ShardStore:
    """One shard: a bounded LRU of encoded keys with in-flight tracking.

    Values are the persistable ``(probability, solver)`` pairs.  With a
    ``persistent`` tier attached, misses fall through to its SQLite file
    (promoting hits back into memory) and every :meth:`put_many` flush
    writes back in one transaction.
    """

    def __init__(
        self, capacity: int, persistent: PersistentCache | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._persistent = persistent
        self._lock = threading.RLock()
        self._data: OrderedDict[str, Value] = OrderedDict()
        self._flights: dict[str, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    @property
    def persistent(self) -> PersistentCache | None:
        return self._persistent

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, encoded_key: str) -> Value | None:
        with self._lock:
            value = self._data.get(encoded_key)
            if value is not None:
                self._data.move_to_end(encoded_key)
                self._hits += 1
                return value
            self._misses += 1
        if self._persistent is None:
            return None
        found = self._persistent.get_encoded(encoded_key, _MISSING)
        if found is _MISSING:
            return None
        disk_value: Value = (float(found[0]), found[1])
        self._store(encoded_key, disk_value)
        return disk_value

    def _store(self, encoded_key: str, value: Value) -> None:
        """Insert/refresh one entry (takes the reentrant lock itself)."""
        with self._lock:
            if encoded_key in self._data:
                self._data.move_to_end(encoded_key)
            self._data[encoded_key] = value
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        """Publish a batch: memory, then ONE disk transaction, then wake
        every waiter whose key the batch resolved."""
        pairs = list(pairs)
        with self._lock:
            for encoded_key, value in pairs:
                self._store(encoded_key, value)
            flights = [
                flight
                for encoded_key, _ in pairs
                if (flight := self._flights.pop(encoded_key, None)) is not None
            ]
        if self._persistent is not None:
            self._persistent.put_many_encoded(pairs)
        for flight in flights:
            flight.set()

    def claim(self, encoded_key: str) -> tuple[str, Value | None]:
        """Atomically: the value, or ownership of computing it.

        Returns ``("value", v)`` when the shard (memory or disk) already
        holds the key, ``("claimed", None)`` when the caller now owns the
        in-flight computation, and ``("wait", None)`` when another worker
        owns it — the caller should :meth:`wait`.
        """
        with self._lock:
            value = self._data.get(encoded_key)
            if value is not None:
                self._data.move_to_end(encoded_key)
                self._hits += 1
                return ("value", value)
            if encoded_key in self._flights:
                return ("wait", None)
            if self._persistent is not None:
                # Read the disk tier under the shard lock so a concurrent
                # publisher cannot interleave between miss and claim.
                found = self._persistent.get_encoded(encoded_key, _MISSING)
                if found is not _MISSING:
                    disk_value: Value = (float(found[0]), found[1])
                    self._store(encoded_key, disk_value)
                    return ("value", disk_value)
            self._misses += 1
            self._flights[encoded_key] = threading.Event()
            return ("claimed", None)

    def wait(self, encoded_key: str, timeout: float) -> Value | None:
        """Block until the key's flight publishes (or ``timeout`` passes).

        ``None`` means the value never arrived — the owner abandoned the
        flight or timed out — and the caller should compute locally.
        """
        with self._lock:
            value = self._data.get(encoded_key)
            if value is not None:
                self._data.move_to_end(encoded_key)
                self._hits += 1
                return value
            flight = self._flights.get(encoded_key)
        if flight is not None and not flight.wait(
            min(max(timeout, 0.0), MAX_WAIT_SECONDS)
        ):
            return None
        return self.get(encoded_key)

    def release(self, encoded_key: str) -> None:
        """Resolve the key's flight (publish or abandon), waking waiters."""
        with self._lock:
            flight = self._flights.pop(encoded_key, None)
        if flight is not None:
            flight.set()

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            flights = list(self._flights.values())
            self._flights.clear()
        for flight in flights:
            flight.set()
        if self._persistent is not None:
            self._persistent.clear()

    def invalidate(self, encoded_keys: Iterable[str]) -> int:
        """Drop exactly ``encoded_keys`` (memory AND write-back file).

        The targeted sibling of :meth:`clear`: the streaming layer
        retires keys of expired/updated sessions without disturbing the
        rest of the shard.  In-flight computations of a dropped key are
        left alone — their eventual publish re-inserts a value that is
        correct for *its* key (content-addressed keys cannot go stale).
        Returns the in-memory drop count.
        """
        encoded_keys = list(encoded_keys)
        with self._lock:
            dropped = 0
            for encoded_key in encoded_keys:
                if self._data.pop(encoded_key, None) is not None:
                    dropped += 1
            self._invalidations += dropped
        if self._persistent is not None:
            self._persistent.invalidate_encoded(encoded_keys)
        return dropped

    def stats(self) -> dict[str, float]:
        with self._lock:
            counters: dict[str, float] = {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "size": len(self._data),
                "capacity": self._capacity,
                "in_flight": len(self._flights),
            }
        if self._persistent is not None:
            counters.update(self._persistent.stats())
        return counters

    def close(self) -> None:
        if self._persistent is not None:
            self._persistent.close()


class ShardGroup:
    """N :class:`ShardStore` shards routed by :func:`shard_of`.

    The embedded (in-process) form of the shared tier: a
    :class:`ShardedSolverCache` without a ``shard_address`` owns one, and
    a :class:`ShardCacheServer` serves one to a fleet.  ``capacity`` is
    the total entry budget, split evenly across shards; ``cache_db`` is
    the write-back stem — each shard gets its own SQLite file
    (:func:`shard_db_path`) whose version stamp clears it on a format
    bump, exactly like the unsharded persistent tier.
    """

    def __init__(
        self,
        n_shards: int = DEFAULT_SHARDS,
        capacity: int = 4096,
        cache_db: Union[str, "os.PathLike[str]", None] = None,
        version: str | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._version = version if version is not None else default_version()
        per_shard = max(1, -(-capacity // n_shards))  # ceil division
        self._stores = [
            ShardStore(
                per_shard,
                persistent=(
                    PersistentCache(
                        shard_db_path(cache_db, index), version=self._version
                    )
                    if cache_db is not None
                    else None
                ),
            )
            for index in range(n_shards)
        ]

    @property
    def n_shards(self) -> int:
        return len(self._stores)

    @property
    def version(self) -> str:
        return self._version

    @property
    def stores(self) -> list[ShardStore]:
        return list(self._stores)

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def _store(self, encoded_key: str) -> ShardStore:
        return self._stores[shard_of(encoded_key, len(self._stores))]

    def get(self, encoded_key: str) -> Value | None:
        return self._store(encoded_key).get(encoded_key)

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        """Group a flush by shard; each shard flushes in one transaction."""
        by_shard: dict[int, list[tuple[str, Value]]] = {}
        for encoded_key, value in pairs:
            index = shard_of(encoded_key, len(self._stores))
            by_shard.setdefault(index, []).append((encoded_key, value))
        for index, batch in by_shard.items():
            self._stores[index].put_many(batch)

    def claim(self, encoded_key: str) -> tuple[str, Value | None]:
        return self._store(encoded_key).claim(encoded_key)

    def wait(self, encoded_key: str, timeout: float) -> Value | None:
        return self._store(encoded_key).wait(encoded_key, timeout)

    def release(self, encoded_key: str) -> None:
        self._store(encoded_key).release(encoded_key)

    def clear(self) -> None:
        for store in self._stores:
            store.clear()

    def invalidate(self, encoded_keys: Iterable[str]) -> int:
        """Route a targeted drop by shard; returns the total drop count."""
        by_shard: dict[int, list[str]] = {}
        for encoded_key in encoded_keys:
            index = shard_of(encoded_key, len(self._stores))
            by_shard.setdefault(index, []).append(encoded_key)
        return sum(
            self._stores[index].invalidate(batch)
            for index, batch in by_shard.items()
        )

    def stats(self) -> dict[str, Any]:
        """Per-shard counters plus their totals (the ``/stats`` payload)."""
        shards = [store.stats() for store in self._stores]
        totals: dict[str, float] = {}
        for counters in shards:
            for name, value in counters.items():
                totals[name] = totals.get(name, 0.0) + value
        return {
            "n_shards": len(self._stores),
            "version": self._version,
            "shards": shards,
            "totals": totals,
        }

    def close(self) -> None:
        for store in self._stores:
            store.close()

    def __enter__(self) -> "ShardGroup":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# The cache-server protocol
# ----------------------------------------------------------------------


class ShardProtocolError(RuntimeError):
    """A shard request failed at the transport or protocol layer."""


def _send_frame(sock: socket.socket, message: object) -> None:
    """One length-prefixed pickle frame — the ``SolveTask`` transport
    convention (small picklable builtin forms), over a socket."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ShardProtocolError("shard connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Any:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    return pickle.loads(_recv_exact(sock, length))


def _check_pairs(pairs: object) -> list[tuple[str, Value]]:
    """Validate a wire-received ``put_many`` batch before it reaches a store."""
    if not isinstance(pairs, list):
        raise ShardProtocolError(f"put_many expects a list, got {pairs!r}")
    checked: list[tuple[str, Value]] = []
    for pair in pairs:
        if not (
            isinstance(pair, tuple)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and _persistable(pair[1])
        ):
            raise ShardProtocolError(
                "shard tier stores (encoded_key, (probability, solver)) "
                f"pairs, got {pair!r}"
            )
        checked.append((pair[0], (float(pair[1][0]), pair[1][1])))
    return checked


class ShardCacheServer:
    """Serve one :class:`ShardGroup` to a fleet over a localhost socket.

    Thread-per-connection (fleet sizes are worker counts, not crowds); a
    connection's blocking ``wait`` therefore never stalls other workers.
    ``port=0`` binds an ephemeral port; :attr:`address` is the
    ``host:port`` string clients attach to.  The handshake carries the
    cache-format version stamp, and a client from a different
    freeze()/solver generation is refused — the same never-serve-stale
    contract the SQLite tier enforces by clearing.
    """

    def __init__(
        self,
        n_shards: int = DEFAULT_SHARDS,
        capacity: int = 4096,
        cache_db: Union[str, "os.PathLike[str]", None] = None,
        version: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        group: ShardGroup | None = None,
    ) -> None:
        self.group = (
            group
            if group is not None
            else ShardGroup(
                n_shards=n_shards,
                capacity=capacity,
                cache_db=cache_db,
                version=version,
            )
        )
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._listener = socket.create_server((host, port))
        bound_host, bound_port = self._listener.getsockname()[:2]
        self._address = f"{bound_host}:{bound_port}"
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-accept", daemon=True
        )
        self._accept_thread = accept_thread
        accept_thread.start()

    @property
    def address(self) -> str:
        """``host:port`` of the listening socket (pass to clients)."""
        return self._address

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            handler = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="shard-conn",
                daemon=True,
            )
            with self._lock:
                if self._closed.is_set():
                    connection.close()
                    return
                self._connections.add(connection)
                self._threads.append(handler)
                self._threads = [
                    thread for thread in self._threads if thread.is_alive()
                ]
            handler.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            try:
                self._serve_frames(connection)
            finally:
                with self._lock:
                    self._connections.discard(connection)

    def _serve_frames(self, connection: socket.socket) -> None:
        while not self._closed.is_set():
            try:
                request = _recv_frame(connection)
            except Exception:
                return  # disconnect or garbage frame: drop the peer
            try:
                response: tuple[str, Any] = ("ok", self._handle(request))
            except ShardProtocolError as error:
                response = ("err", str(error))
            except Exception as error:  # never kill the handler thread
                response = ("err", f"{type(error).__name__}: {error}")
            try:
                _send_frame(connection, response)
            except OSError:
                return

    def _handle(self, request: object) -> Any:
        if not (isinstance(request, tuple) and request):
            raise ShardProtocolError(f"malformed request {request!r}")
        op = request[0]
        arguments = request[1:]
        if op == "hello":
            (client_version,) = arguments
            if client_version != self.group.version:
                raise ShardProtocolError(
                    f"cache-format version mismatch: client "
                    f"{client_version!r}, server {self.group.version!r} — "
                    "a stale client must not read these shards"
                )
            return {
                "n_shards": self.group.n_shards,
                "version": self.group.version,
            }
        if op == "get":
            (encoded_key,) = arguments
            return self.group.get(encoded_key)
        if op == "put_many":
            (pairs,) = arguments
            self.group.put_many(_check_pairs(pairs))
            return len(pairs)
        if op == "claim":
            (encoded_key,) = arguments
            return self.group.claim(encoded_key)
        if op == "wait":
            encoded_key, timeout = arguments
            return self.group.wait(encoded_key, float(timeout))
        if op == "release":
            (encoded_key,) = arguments
            self.group.release(encoded_key)
            return True
        if op == "invalidate":
            (encoded_keys,) = arguments
            if not (
                isinstance(encoded_keys, list)
                and all(isinstance(item, str) for item in encoded_keys)
            ):
                raise ShardProtocolError(
                    "invalidate expects a list of encoded TEXT keys, "
                    f"got {encoded_keys!r}"
                )
            return self.group.invalidate(encoded_keys)
        if op == "stats":
            return self.group.stats()
        if op == "clear":
            self.group.clear()
            return True
        raise ShardProtocolError(f"unknown shard op {op!r}")

    def close(self) -> None:
        """Stop accepting, drop connections, close the write-back files.

        Closing a socket does not wake a thread blocked on it, so the
        listener and every live connection are shut down first: the
        blocked ``accept()`` and ``recv()`` calls return at once and the
        joins below do not wait out their timeouts.
        """
        with self._lock:
            self._closed.set()
            sockets = [self._listener, *self._connections]
            threads = list(self._threads)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never connected, or the peer already left
        self._listener.close()
        self._accept_thread.join(timeout=5.0)
        for thread in threads:
            thread.join(timeout=1.0)
        self.group.close()

    def __enter__(self) -> "ShardCacheServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCacheServer(address={self._address!r}, "
            f"n_shards={self.group.n_shards})"
        )


class ShardClient:
    """A picklable handle on a running :class:`ShardCacheServer`.

    Mirrors the :class:`ShardGroup` surface over the socket protocol.
    The connection is opened lazily and re-opened after a ``fork`` (the
    owning pid is tracked), so a client can ride into worker processes
    like a :class:`~repro.service.executors.SolveTask` does.  One
    request is in flight per client at a time (the socket is guarded by a
    lock); workers wanting concurrency hold one client each.
    """

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(
                f"shard address must look like 'host:port', got {address!r}"
            )
        self._address = address
        self._host = host
        self._port = int(port_text)
        self._timeout = timeout
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._pid = -1

    @property
    def address(self) -> str:
        return self._address

    def __reduce__(self) -> tuple[Any, tuple[str, float]]:
        return (type(self), (self._address, self._timeout))

    def _connection(self) -> socket.socket:
        """The live socket, (re)connecting + handshaking as needed.

        Takes the (reentrant) client lock itself; a stale post-``fork``
        socket inherited from the parent is replaced, never shared.
        """
        with self._lock:
            if self._sock is not None and self._pid == os.getpid():
                return self._sock
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
            _send_frame(sock, ("hello", default_version()))
            status, payload = _recv_frame(sock)
            if status != "ok":
                sock.close()
                raise ShardProtocolError(str(payload))
            self._sock = sock
            self._pid = os.getpid()
            return sock

    def _call(
        self, message: "tuple[Any, ...]", read_timeout: float | None = None
    ) -> Any:
        with self._lock:
            sock = self._connection()
            try:
                if read_timeout is not None:
                    sock.settimeout(read_timeout)
                _send_frame(sock, message)
                status, payload = _recv_frame(sock)
            except (OSError, EOFError) as error:
                self._drop()
                raise ShardProtocolError(
                    f"shard server {self._address} unreachable: {error}"
                ) from error
            finally:
                if read_timeout is not None and self._sock is not None:
                    self._sock.settimeout(self._timeout)
        if status != "ok":
            raise ShardProtocolError(str(payload))
        return payload

    def _drop(self) -> None:
        """Discard the connection (takes the reentrant lock itself)."""
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
            self._sock = None
            self._pid = -1

    def get(self, encoded_key: str) -> Value | None:
        found = self._call(("get", encoded_key))
        return None if found is None else (float(found[0]), found[1])

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        self._call(("put_many", list(pairs)))

    def claim(self, encoded_key: str) -> tuple[str, Value | None]:
        status, value = self._call(("claim", encoded_key))
        if value is not None:
            value = (float(value[0]), value[1])
        return (status, value)

    def wait(self, encoded_key: str, timeout: float) -> Value | None:
        # The server blocks up to `timeout`; give the socket read slack
        # beyond it so a slow publish is not misread as a dead server.
        found = self._call(
            ("wait", encoded_key, timeout), read_timeout=timeout + 10.0
        )
        return None if found is None else (float(found[0]), found[1])

    def release(self, encoded_key: str) -> None:
        self._call(("release", encoded_key))

    def invalidate(self, encoded_keys: Iterable[str]) -> int:
        return int(self._call(("invalidate", list(encoded_keys))))

    def stats(self) -> dict[str, Any]:
        payload = self._call(("stats",))
        return dict(payload)

    def clear(self) -> None:
        self._call(("clear",))

    def close(self) -> None:
        self._drop()

    def __repr__(self) -> str:
        return f"ShardClient(address={self._address!r})"


#: Either face of the shared tier — embedded or attached.
ShardTier = Union[ShardGroup, ShardClient]


# ----------------------------------------------------------------------
# The drop-in cache
# ----------------------------------------------------------------------


class ShardedSolverCache(SolverCache):
    """An LRU :class:`SolverCache` with a sharded shared tier beneath it.

    * ``get`` — process-local LRU first; a miss consults the shard tier
      (promoting hits into the LRU), which itself falls through to its
      per-shard SQLite write-back files;
    * ``put`` / ``put_many`` — write-through: the LRU, the shard tier,
      and the per-shard files update together (one transaction per shard
      per flush).  Values the durable format cannot hold (anything but a
      ``(probability, solver)`` pair) stay in the local LRU, like the
      unsharded persistent tier;
    * ``claim`` / ``wait_flight`` / ``release_flight`` — fleet-wide
      single-flight: the plan executor claims a missing key before
      solving, and concurrent workers claiming the same key wait for the
      one in-flight solve instead of duplicating it.  An abandoned flight
      (owner died, timeout) degrades to a local solve, never a wrong or
      missing answer.

    Embedded by default (``n_shards`` stores in this process, optional
    ``cache_db`` write-back stem); pass ``address=`` to attach to a
    running :class:`ShardCacheServer` instead — the server then owns the
    shard topology and persistence.
    """

    def __init__(
        self,
        capacity: int = 4096,
        n_shards: int = DEFAULT_SHARDS,
        cache_db: Union[str, "os.PathLike[str]", None] = None,
        version: str | None = None,
        address: str | None = None,
        shard_capacity: int | None = None,
        flight_timeout: float = 60.0,
    ) -> None:
        super().__init__(capacity)
        if address is not None and cache_db is not None:
            raise ValueError(
                "an attached shard tier persists on the server side; pass "
                "cache_db to the ShardCacheServer, not the client"
            )
        self._tier: ShardTier = (
            ShardClient(address)
            if address is not None
            else ShardGroup(
                n_shards=n_shards,
                capacity=(
                    shard_capacity if shard_capacity is not None else capacity
                ),
                cache_db=cache_db,
                version=version,
            )
        )
        self._flight_timeout = flight_timeout

    @property
    def tier(self) -> ShardTier:
        return self._tier

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = super().get(key, _MISSING)
        if value is not _MISSING:
            return value
        found = self._tier.get(encode_key(key))
        if found is None:
            return default
        super().put(key, found)  # promote into the local LRU
        return found

    def put(self, key: Hashable, value: Any) -> None:
        super().put(key, value)
        if _persistable(value):
            self._tier.put_many(
                [(encode_key(key), (float(value[0]), value[1]))]
            )

    def put_many(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """One local lock acquisition, one tier flush (one transaction
        per shard), one wake-up sweep for fleet waiters."""
        items = list(items)
        SolverCache.put_many(self, items)
        pairs = [
            (encode_key(key), (float(value[0]), value[1]))
            for key, value in items
            if _persistable(value)
        ]
        if pairs:
            self._tier.put_many(pairs)

    # -- fleet-wide single-flight ---------------------------------------

    def claim(self, key: Hashable) -> tuple[str, Value | None]:
        """Claim one canonical key against the shared tier.

        ``("value", v)`` — served (and promoted locally); ``("claimed",
        None)`` — this worker owns the solve and must publish via ``put``
        / ``put_many`` or abandon via :meth:`release_flight`; ``("wait",
        None)`` — another worker is solving it: :meth:`wait_flight`.
        """
        status, value = self._tier.claim(encode_key(key))
        if value is not None:
            super().put(key, value)
        return (status, value)

    def wait_flight(
        self, key: Hashable, timeout: float | None = None
    ) -> Value | None:
        """Block on another worker's in-flight solve of ``key``.

        ``None`` after the timeout (or an abandoned flight) means the
        caller should solve locally.
        """
        value = self._tier.wait(
            encode_key(key),
            self._flight_timeout if timeout is None else timeout,
        )
        if value is not None:
            super().put(key, value)
        return value

    def release_flight(self, key: Hashable) -> None:
        """Abandon a claimed flight without publishing (solve failed, or
        the value is not persistable); waiters fall back to local solves."""
        self._tier.release(encode_key(key))

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Single-flight across the whole fleet, not just this process."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        status, found = self.claim(key)
        if status == "value":
            return found
        if status == "wait":
            found = self.wait_flight(key)
            if found is not None:
                return found
            # The owner vanished; fall through and solve locally (the
            # claim may have expired without a value — do not re-claim,
            # just publish when done).
        try:
            value = compute()
        except BaseException:
            self.release_flight(key)
            raise
        self.put(key, value)  # publishes the flight when persistable
        if not _persistable(value):
            self.release_flight(key)
        return value

    # -- stats / lifecycle ----------------------------------------------

    def tier_stats(self) -> dict[str, float]:
        """Flat shard-tier counters merged into ``PreferenceService.stats()``."""
        depth = self._tier.stats()
        totals = depth["totals"]
        flat: dict[str, float] = {
            "n_shards": depth["n_shards"],
            "shard_hits": totals.get("hits", 0.0),
            "shard_misses": totals.get("misses", 0.0),
            "shard_evictions": totals.get("evictions", 0.0),
            "shard_invalidations": totals.get("invalidations", 0.0),
            "shard_size": totals.get("size", 0.0),
        }
        for name in (
            "disk_hits", "disk_misses", "disk_size", "disk_invalidations"
        ):
            if name in totals:
                flat[name] = totals[name]
        return flat

    def tier_depth(self) -> dict[str, Any]:
        """The structured per-shard payload for the server's ``/stats``."""
        return self._tier.stats()

    def clear(self) -> None:
        """Drop the local LRU and every shard (counters are kept)."""
        super().clear()
        self._tier.clear()

    def invalidate(self, keys: Iterable[Hashable]) -> int:
        """Drop ``keys`` from the local LRU AND the shared tier.

        Write-through invalidation: the same keys leave every tier (the
        shard stores and their write-back files included), so a fleet
        member cannot re-promote a retired entry.  Returns the local
        drop count; the tier's own count shows up per shard in
        :meth:`tier_depth` (``invalidations``).
        """
        keys = list(keys)
        dropped = super().invalidate(keys)
        self._tier.invalidate([encode_key(key) for key in keys])
        return dropped

    def close(self) -> None:
        self._tier.close()

    def __repr__(self) -> str:
        tier = (
            f"address={self._tier.address!r}"
            if isinstance(self._tier, ShardClient)
            else f"n_shards={self._tier.n_shards}"
        )
        return (
            f"ShardedSolverCache(size={len(self)}, "
            f"capacity={self.capacity}, {tier})"
        )
