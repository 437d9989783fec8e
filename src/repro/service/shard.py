"""A sharded shared-cache tier: warm solve state for a fleet of workers.

The front :class:`~repro.service.cache.SolverCache` is per-process, so a
fleet of worker processes with nothing beneath it starts cold N times and
duplicates hot solves N times.  This module provides the
:class:`~repro.service.cache.Tier` beneath the front LRU, partitioned
over the canonical ``freeze()`` keys:

* :func:`shard_of` — a stable hash of the
  :func:`~repro.service.persist.encode_key` TEXT form picks one of N
  shards, so every process (and every restart) routes a canonical key to
  the same shard;
* :class:`ShardStore` / :class:`ShardGroup` — the embedded tier: one
  :class:`~repro.service.cache.SolverCache` LRU and flight table per shard
  (single-flight: a fleet of cache-cold workers hitting one hot key
  performs one solve, not N), with write-back through a per-shard
  :class:`~repro.service.persist.PersistentCache` SQLite file (one
  transaction per flush; a format bump clears the files, so a stale
  answer is never served);
* :class:`ShardCacheServer` / :class:`ShardClient` — the attached tier: a
  small cache-server protocol over a localhost socket for multi-process
  fleets, framed exactly like the process backend ships its work:
  length-prefixed pickle of small builtin forms (encoded TEXT keys and the
  ``(probability, solver)`` pairs of
  :attr:`~repro.service.executors.TaskOutcome.value`).  The client is
  picklable and re-connects lazily after a ``fork``, so it crosses process
  boundaries the way :class:`~repro.service.executors.SolveTask` does;
* :class:`ShardedSolverCache` — a front :class:`SolverCache` over either
  tier, built by ``cache_shards=`` / ``shard_address=`` / ``cache_db=``.

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
from typing import Any, Callable, Hashable, Iterable, Union

from repro.service.cache import SolverCache, Tier, Value, _MISSING
from repro.service.persist import (
    PersistentCache,
    _persistable,
    default_version,
)

#: Default shard count of an embedded tier (a few shards decorrelate lock
#: and transaction contention without fragmenting the LRU budget).
DEFAULT_SHARDS = 4

#: Upper bound a server puts on one blocking ``wait`` call, so abandoned
#: flights cannot pin handler threads forever.
MAX_WAIT_SECONDS = 300.0


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


class ShardStore(SolverCache):
    """One shard with a write-back file: the :class:`SolverCache` LRU and
    flight table over encoded TEXT keys, above a SQLite file.

    Misses fall through to the ``persistent`` file (promoting hits back
    into memory), every :meth:`put_many` flush writes back in one
    transaction, and ``invalidate`` / ``clear`` reach the file.  A shard
    without a file is a plain :class:`SolverCache`.
    """

    def __init__(self, capacity: int, persistent: PersistentCache) -> None:
        super().__init__(capacity)
        self.persistent = persistent

    def _fetch(self, key: Hashable) -> Any:
        return self.persistent.get(str(key), _MISSING)

    def _write(self, items: list[tuple[Hashable, Any]]) -> None:
        self.persistent.put_many((str(key), value) for key, value in items)

    def _drop(self, keys: list[Hashable]) -> None:
        self.persistent.invalidate([str(key) for key in keys])

    def _wipe(self) -> None:
        self.persistent.clear()

    def tier_stats(self) -> dict[str, float]:
        """The write-back file's ``disk_*`` counters."""
        return self.persistent.stats()

    def close(self) -> None:
        self.persistent.close()


def _shard_row(store: SolverCache) -> dict[str, float]:
    """One shard's row of the ``/stats`` payload."""
    stats = store.stats()
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "invalidations": stats.invalidations,
        "size": stats.size,
        "capacity": stats.capacity,
        "in_flight": stats.in_flight,
        **store.tier_stats(),
    }


class ShardGroup:
    """N shards routed by :func:`shard_of`.

    The embedded (in-process) :class:`~repro.service.cache.Tier`: a
    :class:`ShardedSolverCache` without a ``shard_address`` owns one, a
    ``cache_db=`` service owns a one-shard group, and a
    :class:`ShardCacheServer` serves one to a fleet.  ``capacity`` is the
    total entry budget, split evenly across shards.  Without ``cache_db``
    each shard is a plain :class:`~repro.service.cache.SolverCache`; with
    it, a :class:`ShardStore` over its own SQLite file
    (:func:`shard_db_path`; a single shard uses ``cache_db`` itself) whose
    version stamp clears it on a format bump.
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
                PersistentCache(
                    # One shard writes to the cache_db path itself.
                    cache_db if n_shards == 1
                    else shard_db_path(cache_db, index),
                    version=self._version,
                ),
            )
            if cache_db is not None
            else SolverCache(per_shard)
            for index in range(n_shards)
        ]

    @property
    def n_shards(self) -> int:
        return len(self._stores)

    @property
    def version(self) -> str:
        return self._version

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def _store(self, encoded_key: str) -> SolverCache:
        return self._stores[shard_of(encoded_key, len(self._stores))]

    def get(self, encoded_key: str) -> Value | None:
        found: Value | None = self._store(encoded_key).get(encoded_key)
        return found

    def _by_shard(
        self, items: Iterable[Any], key: Callable[[Any], str]
    ) -> dict[int, list[Any]]:
        by_shard: dict[int, list[Any]] = {}
        for item in items:
            index = shard_of(key(item), len(self._stores))
            by_shard.setdefault(index, []).append(item)
        return by_shard

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        """Group a flush by shard; each shard flushes in one transaction."""
        for index, batch in self._by_shard(pairs, lambda p: p[0]).items():
            self._stores[index].put_many(batch)

    def claim(self, encoded_key: str) -> tuple[str, Value | None]:
        return self._store(encoded_key).claim(encoded_key)

    def wait(self, encoded_key: str, timeout: float) -> Value | None:
        found: Value | None = self._store(encoded_key).wait_flight(
            encoded_key, timeout
        )
        return found

    def release(self, encoded_key: str) -> None:
        self._store(encoded_key).release_flight(encoded_key)

    def clear(self) -> None:
        for store in self._stores:
            store.clear()

    def invalidate(self, encoded_keys: Iterable[str]) -> int:
        """Route a targeted drop by shard; returns the total drop count."""
        return sum(
            self._stores[index].invalidate(batch)
            for index, batch in self._by_shard(encoded_keys, str).items()
        )

    def stats(self) -> dict[str, Any]:
        """Per-shard counters plus their totals (the ``/stats`` payload)."""
        shards = [_shard_row(store) for store in self._stores]
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

    def __repr__(self) -> str:
        return f"ShardGroup(n_shards={len(self._stores)})"

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


def _pair(found: Any) -> Value | None:
    """A wire-received value as a ``(probability, solver)`` pair."""
    return None if found is None else (float(found[0]), found[1])


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
        # Keys this connection claimed and has not published or released:
        # a peer that disconnects mid-solve must not leave every later
        # claimer waiting out its flight.
        claimed: set[str] = set()
        with connection:
            try:
                self._serve_frames(connection, claimed)
            finally:
                with self._lock:
                    self._connections.discard(connection)
                for encoded_key in claimed:
                    self.group.release(encoded_key)

    def _serve_frames(
        self, connection: socket.socket, claimed: set[str]
    ) -> None:
        while not self._closed.is_set():
            try:
                request = _recv_frame(connection)
            except Exception:
                return  # disconnect or garbage frame: drop the peer
            try:
                response: tuple[str, Any] = (
                    "ok", self._handle(request, claimed)
                )
            except ShardProtocolError as error:
                response = ("err", str(error))
            except Exception as error:  # never kill the handler thread
                response = ("err", f"{type(error).__name__}: {error}")
            try:
                _send_frame(connection, response)
            except OSError:
                return

    def _handle(self, request: object, claimed: set[str]) -> Any:
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
            checked = _check_pairs(pairs)
            self.group.put_many(checked)
            claimed.difference_update(key for key, _ in checked)
            return len(pairs)
        if op == "claim":
            (encoded_key,) = arguments
            status, value = self.group.claim(encoded_key)
            if status == "claimed":
                claimed.add(encoded_key)
            return (status, value)
        if op == "wait":
            encoded_key, timeout = arguments
            return self.group.wait(
                encoded_key, min(max(float(timeout), 0.0), MAX_WAIT_SECONDS)
            )
        if op == "release":
            (encoded_key,) = arguments
            self.group.release(encoded_key)
            claimed.discard(encoded_key)
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

    The attached :class:`~repro.service.cache.Tier`: the
    :class:`ShardGroup` surface over the socket protocol.
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
        return _pair(self._call(("get", encoded_key)))

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        self._call(("put_many", list(pairs)))

    def claim(self, encoded_key: str) -> tuple[str, Value | None]:
        status, value = self._call(("claim", encoded_key))
        return (status, _pair(value))

    def wait(self, encoded_key: str, timeout: float) -> Value | None:
        # The server blocks up to `timeout`; give the socket read slack
        # beyond it so a slow publish is not misread as a dead server.
        return _pair(self._call(
            ("wait", encoded_key, timeout), read_timeout=timeout + 10.0
        ))

    def release(self, encoded_key: str) -> None:
        self._call(("release", encoded_key))

    def invalidate(self, encoded_keys: Iterable[str]) -> int:
        return int(self._call(("invalidate", list(encoded_keys))))

    def stats(self) -> dict[str, Any]:
        return dict(self._call(("stats",)))

    def clear(self) -> None:
        self._call(("clear",))

    def close(self) -> None:
        self._drop()

    def __repr__(self) -> str:
        return f"ShardClient(address={self._address!r})"


# ----------------------------------------------------------------------
# The sharded front cache
# ----------------------------------------------------------------------


class ShardedSolverCache(SolverCache):
    """A :class:`SolverCache` over a sharded :class:`Tier`.

    Embedded by default: a :class:`ShardGroup` of ``n_shards`` stores in
    this process (``shard_capacity`` entries in total, ``capacity`` when
    unset), with per-shard SQLite write-back files under the optional
    ``cache_db`` stem.  Pass ``address=`` to attach to a running
    :class:`ShardCacheServer` instead — the server then owns the shard
    topology and persistence.  Everything else — tier fall-through,
    write-through, fleet-wide single-flight, invalidation — is the
    :class:`SolverCache` behaviour over that tier.
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
        if address is not None and cache_db is not None:
            raise ValueError(
                "an attached shard tier persists on the server side; pass "
                "cache_db to the ShardCacheServer, not the client"
            )
        tier: Tier = (
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
        super().__init__(capacity, tier=tier, flight_timeout=flight_timeout)
