"""``serve_open``: an open-loop Poisson client against ``python -m repro serve``.

The server runs as its own process with its defaults (thread backend, 10 ms
coalescing window) over a fixed-seed CrowdRank dataset.  The client sends a
seeded schedule of ``/answer`` singles and ``/answer_many`` batches over at
most two keep-alive connections.  Arrival times are a Poisson process
conditioned on its count (sorted uniform draws over the run), and every
corpus request appears equally often, so the seed changes order and timing,
never the amount of work.  Latency runs from when a request was *due*, so
a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.api.evaluate import answer
from repro.server.config import ServerConfig
from repro.server.protocol import jsonable

from measure import proc_cpu_seconds, proc_peak_rss_mb
from workloads import mixed_requests

#: Dataset seed of the server (its CLI default), held fixed.
DATASET_SEED = 7
#: Requests per second offered: with a quarter of them 4-request batches
#: that is 28 answers/s, 41% of the warm two-connection closed-loop
#: capacity of 67.6 answers/s measured when this workload was sized.
REQUEST_RATE = 16.0
BATCH_SHARE = 0.25
BATCH_SIZE = 4
CONNECTIONS = 2
REQUEST_TIMEOUT = 30.0
READY_TIMEOUT = 60.0
TRACE_PREFIX = "E2EBENCH_TRACE "


def corpus() -> list[str]:
    """The overlapping mixed-kind corpus: 12 queries under 4 kinds."""
    return mixed_requests(12)


def schedule(seed: int, seconds: float) -> list[dict]:
    """The seeded open-loop schedule: due offsets, routes and bodies."""
    rng = np.random.default_rng(seed)
    texts = corpus()
    n_requests = int(round(REQUEST_RATE * seconds))
    dues = np.sort(rng.uniform(0.0, seconds, n_requests))
    batched = np.zeros(n_requests, dtype=bool)
    batched[rng.choice(n_requests, int(round(BATCH_SHARE * n_requests)),
                       replace=False)] = True
    stream: list[str] = []

    def take(count: int) -> list[str]:
        while len(stream) < count:
            stream.extend(texts[int(i)] for i in rng.permutation(len(texts)))
        picked = stream[:count]
        del stream[:count]
        return picked

    items = []
    for due, is_batch in zip(dues, batched):
        if is_batch:
            chosen = take(BATCH_SIZE)
            items.append({"due": float(due), "path": "/answer_many",
                          "texts": chosen, "body": {"requests": chosen}})
        else:
            chosen = take(1)
            items.append({"due": float(due), "path": "/answer",
                          "texts": chosen, "body": {"request": chosen[0]}})
    return items


# ----------------------------------------------------------------------
# The open-loop client
# ----------------------------------------------------------------------


async def open_loop(items, senders, timeout=REQUEST_TIMEOUT, lead=0.05):
    """Send ``items`` at their due offsets over the given senders.

    Each sender is an object with ``async send(item) -> (status, body)``
    and ``async reset()``; at most one request is in flight per sender,
    so when all are busy a due request waits in the queue and that wait
    counts in its latency.  Returns one record per item with the absolute
    ``due``, ``sent`` and ``done`` times and the generator's lateness.
    """
    loop_queue: asyncio.Queue = asyncio.Queue()
    origin = time.perf_counter() + lead
    records: list[dict] = [None] * len(items)

    async def generate():
        for index, item in enumerate(items):
            due = origin + item["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            loop_queue.put_nowait((index, due, time.perf_counter() - due))
        for _ in senders:
            loop_queue.put_nowait(None)

    async def drain(sender):
        while True:
            entry = await loop_queue.get()
            if entry is None:
                return
            index, due, late = entry
            sent = time.perf_counter()
            try:
                status, body = await asyncio.wait_for(
                    sender.send(items[index]), timeout
                )
            except (asyncio.TimeoutError, OSError, ValueError) as error:
                status, body = None, {"error": repr(error)}
                await sender.reset()
            records[index] = {
                "due": due, "sent": sent, "done": time.perf_counter(),
                "late": late, "status": status, "body": body,
                "texts": items[index]["texts"],
            }

    await asyncio.gather(generate(), *(drain(s) for s in senders))
    return records


class HTTPSender:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int, client_id: str) -> None:
        self.host, self.port, self.client_id = host, port, client_id
        self.reader = self.writer = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def reset(self) -> None:
        await self.close()
        await self.connect()

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(self, method: str, path: str, body=None):
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Client-Id: {self.client_id}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ValueError("connection closed by server")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self.reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else None

    async def send(self, item):
        return await self.request("POST", item["path"], item["body"])


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` (or the traced launcher) as a child."""

    def __init__(self, root: Path, traced: bool) -> None:
        if traced:
            command = [sys.executable,
                       str(Path(__file__).with_name("serve_launcher.py"))]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        command += ["--port", "0", "--seed", str(DATASET_SEED)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.lines: queue.Queue = queue.Queue()
        self.stdout: list[str] = []
        self.stderr: list[str] = []
        self._readers = [
            threading.Thread(target=self._pump, args=(stream, sink),
                             daemon=True)
            for stream, sink in ((self.process.stdout, self.stdout),
                                 (self.process.stderr, self.stderr))
        ]
        for reader in self._readers:
            reader.start()
        self.host, self.port = self._await_ready()

    def _pump(self, stream, sink) -> None:
        """Drain one pipe so the server never blocks on a full buffer."""
        for line in stream:
            sink.append(line)
            if sink is self.stdout:
                self.lines.put(line)
        if sink is self.stdout:
            self.lines.put(None)  # end of output: the server has exited

    def _await_ready(self):
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    "server did not become ready: " + "".join(self.stderr)
                )
            if line.startswith("serving on "):
                address = line.split("serving on ", 1)[1].strip()
                host, port = address.split("://", 1)[1].rsplit(":", 1)
                return host, int(port)

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.process.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Ask for a drain (SIGTERM), wait, and reap the readers."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        for reader in self._readers:
            reader.join(timeout=30)

    def trace_payload(self) -> dict:
        for line in self.stdout:
            if line.startswith(TRACE_PREFIX):
                return json.loads(line[len(TRACE_PREFIX):])
        raise RuntimeError("traced server wrote no trace")


# ----------------------------------------------------------------------
# One server session: launch, warm, measure, stop
# ----------------------------------------------------------------------


def references() -> dict:
    """Cacheless wire-form ``(kind, value)`` of every corpus request."""
    db = ServerConfig(seed=DATASET_SEED).build_database()
    expected = {}
    for text in corpus():
        reference = answer(text, db)
        expected[text] = (
            reference.kind,
            json.loads(json.dumps(jsonable(reference.value))),
        )
    return expected


def answer_values(record) -> "list | None":
    """``(kind, value)`` of each answer in a 200 response, else None."""
    body = record["body"]
    if record["status"] != 200 or body is None:
        return None
    answers = body["answers"] if "answers" in body else [body]
    return [(one["kind"], one["value"]) for one in answers]


def response_ok(record, expected) -> bool:
    """200 and every answer's kind and value equal to its reference,
    bit for bit."""
    values = answer_values(record)
    return values is not None and len(values) == len(record["texts"]) and all(
        tuple(value) == expected[text]
        for value, text in zip(values, record["texts"])
    )


async def _session(server: ServerProcess, items, measure: bool):
    senders = [HTTPSender(server.host, server.port, f"e2ebench-{i}")
               for i in range(CONNECTIONS)]
    for sender in senders:
        await sender.connect()
    try:
        for text in corpus():
            status, _ = await senders[0].request(
                "POST", "/answer", {"request": text})
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status}")
        warm_batch = {"requests": corpus()[:BATCH_SIZE]}
        await senders[0].request("POST", "/answer_many", warm_batch)
        warmed = time.perf_counter()
        if not measure:
            return warmed, None
        _, before = await senders[0].request("GET", "/stats")
        cpu_before = server.cpu_seconds()
        records = await open_loop(items, senders)
        cpu = server.cpu_seconds() - cpu_before
        try:
            await senders[0].reset()
            _, after = await senders[0].request("GET", "/stats")
            misses = after["cache"]["misses"] - before["cache"]["misses"]
        except (OSError, ValueError, KeyError, TypeError):
            misses = None  # the server is gone: no steady-state evidence
        return warmed, {
            "records": records,
            "cpu": cpu,
            "misses": misses,
            "peak_rss_mb": server.peak_rss_mb(),
        }
    finally:
        for sender in senders:
            await sender.close()


def serve_session(root: Path, items, traced: bool, measure: bool = True):
    """Launch a server, warm it, optionally run the schedule, stop it.

    Returns ``(setup_seconds, measurement, server)``; set-up runs from
    process start to ready plus the warm-up pass.
    """
    server = ServerProcess(root, traced)
    try:
        warmed, measured = asyncio.run(_session(server, items, measure))
    finally:
        server.stop()
    return warmed - server.started, measured, server
