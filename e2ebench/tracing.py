"""An in-memory span tracer that wraps the public functions of repro's layers.

The tracer patches functions and methods from outside ``src/``: a wrapped
module-level function is replaced under every name a ``repro`` module
imported it by, and a wrapped method is replaced on the class that defines
it.  Each call records one span ``(id, name, start, end, parent, request,
value)``; spans stay in memory until the run ends.  The parent is the span
open in the same context (thread or asyncio task), or, on a worker thread
with nothing open, the open span that handed it the work (an executor run).

Generator functions (``ORelation.rows_where``) are timed per ``next()``
and recorded as *leaf time* of whichever span was open at each step, so
lazy scans interleaved with their consumer are charged correctly.  A leaf
record is ``(name, created, parent, seconds, first)``; ``first`` marks one
record per generator, so calls are counted once.

:class:`Ledger` turns spans into per-layer metrics: a span's self time is
its duration minus the union of its children's intervals and its leaf
time; a name's total counts only outermost spans of that name, so a
subclass method calling its wrapped base is not counted twice.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

#: Async server spans enclose waiting, not work, so they carry no self
#: time.  Every other span's layer is its name up to the first dot.
ASYNC_ENVELOPES = ("server.handle", "server.submit")

#: Layers whose self time is reported as ``share.<layer>``.
LAYERS = (
    "api", "plan", "query", "db", "cache", "executors", "solvers", "stream",
    "server",
)

PLAN_PASSES = (
    "simplify_unions",
    "resolve_methods",
    "annotate_costs",
    "eliminate_common_solves",
    "order_solves",
)


class Tracer:
    """Spans and leaf times, recorded in memory by installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.leaves: list[tuple] = []
        self.request = contextvars.ContextVar("e2ebench_request", default=None)
        self._current = contextvars.ContextVar("e2ebench_span", default=None)
        self._ids = itertools.count(1)
        self._handoff = None
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _parent(self):
        """The open span in this context; on a worker thread with none,
        the span that handed work over (never on the main thread, whose
        tasks in the server are unrelated to a concurrent executor run)."""
        parent = self._current.get()
        if parent is None and self._handoff is not None:
            owner, handing = self._handoff
            if (threading.get_ident() != owner
                    and threading.current_thread() is not threading.main_thread()):
                return handing
        return parent

    def wrap(self, fn, name, value=None, before=None, hands_off=False,
             request_arg=None):
        """A timing wrapper for ``fn``.

        ``value(args, kwargs, result, state)`` derives the span's value,
        with ``state = before(args, kwargs)`` taken before the call; an
        exception records ``"error:<Type>"`` instead.  ``hands_off`` makes
        the span the parent of spans opened on worker threads while it is
        open.  ``request_arg`` names the positional index whose value
        becomes the request id of this span and its descendants.
        """
        tracer = self
        clock = time.perf_counter
        current = self._current
        spans = self.spans
        ids = self._ids

        def enter(args, kwargs):
            parent = tracer._parent()
            sid = next(ids)
            token = current.set(sid)
            request_token = (
                tracer.request.set(args[request_arg])
                if request_arg is not None else None
            )
            previous = tracer._handoff
            if hands_off:
                tracer._handoff = (threading.get_ident(), sid)
            state = before(args, kwargs) if before is not None else None
            return sid, parent, token, request_token, previous, state

        def leave(frame, args, kwargs, start, result, error):
            sid, parent, token, request_token, previous, state = frame
            end = clock()
            if hands_off:
                tracer._handoff = previous
            if error is not None:
                recorded = f"error:{type(error).__name__}"
            elif value is not None:
                recorded = value(args, kwargs, result, state)
            else:
                recorded = None
            spans.append(
                (sid, name, start, end, parent, tracer.request.get(),
                 recorded)
            )
            if request_token is not None:
                tracer.request.reset(request_token)
            current.reset(token)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                frame = enter(args, kwargs)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException as error:
                    leave(frame, args, kwargs, start, None, error)
                    raise
                leave(frame, args, kwargs, start, result, None)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                leave(frame, args, kwargs, start, None, error)
                raise
            leave(frame, args, kwargs, start, result, None)
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        """Charge each ``next()`` of a generator to the span open then."""
        tracer = self
        clock = time.perf_counter
        leaves = self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            created = clock()
            by_parent: dict = defaultdict(float)
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    parent = tracer._parent()
                    started = clock()
                    try:
                        row = next(iterator)
                    except StopIteration:
                        by_parent[parent] += clock() - started
                        return
                    by_parent[parent] += clock() - started
                    yield row
            finally:
                first = True
                for parent, seconds in by_parent.items():
                    leaves.append((name, created, parent, seconds, first))
                    first = False

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def patch_function(self, module, attr, wrapper_of):
        """Replace ``module.attr`` under every name repro imported it by."""
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "") or ""
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            for key, bound in list(vars(loaded).items()):
                if bound is original:
                    setattr(loaded, key, wrapped)
                    self._patches.append((loaded, key, original))

    def patch_method(self, cls, attr, wrapper_of):
        """Replace a method on the class that defines it."""
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Span values
# ----------------------------------------------------------------------


def _hit(args, kwargs, result, state):
    return 0 if result is None else 1


def _returned(args, kwargs, result, state):
    return int(result)


def _count_returned(args, kwargs, result, state):
    return len(result)


def _evictions_before(args, kwargs):
    return args[0].stats().evictions


def _evictions_during(args, kwargs, result, state):
    return args[0].stats().evictions - state


def _plan_solves(args, kwargs, result, state):
    return (result.n_solves_planned, result.n_solves_eliminated)


def _topk_effort(args, kwargs, result, state):
    exact = bound = 0
    for answer in result:
        if answer.kind == "top_k":
            exact += answer.stats.get("n_exact_evaluations", 0)
            bound += answer.stats.get("n_upper_bound_evaluations", 0)
    return (exact, bound)


def _request_ids(args, kwargs, result, state):
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return tuple(id(request) for request in requests)


def _submitted_id(args, kwargs, result, state):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return id(request)


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public entry of every layer the ledger reports on."""
    from repro.api import evaluate as api_evaluate
    from repro.api import requests as api_requests
    from repro.db import mutable, schema
    from repro.plan import build, execute, passes
    from repro.query import engine
    from repro.server import admission, app, coalescer, protocol
    from repro.service import cache, executors, planner, service
    from repro.service import shard
    from repro.stream import standing

    def span(name, **options):
        return lambda fn: tracer.wrap(fn, name, **options)

    tracer.patch_function(api_requests, "as_request", span("api.parse"))
    tracer.patch_function(
        api_evaluate, "assemble_answers",
        span("api.assemble", value=_topk_effort),
    )
    tracer.patch_function(build, "build_plan", span("plan.build"))
    tracer.patch_function(
        engine, "compile_session_work", span("query.ground")
    )
    tracer.patch_method(
        schema.ORelation, "rows_where",
        lambda fn: tracer.wrap_generator(fn, "db.rows_where"),
    )
    tracer.patch_function(
        passes, "optimize_plan", span("plan.optimize", value=_plan_solves)
    )
    for pass_name in PLAN_PASSES:
        tracer.patch_function(
            passes, pass_name, span(f"plan.pass.{pass_name}")
        )
    tracer.patch_function(
        planner, "estimate_solve_states", span("plan.cost_estimate")
    )
    tracer.patch_function(execute, "execute_plan", span("plan.execute"))
    tracer.patch_function(
        execute, "session_upper_bound", span("solvers.upper_bound")
    )
    tracer.patch_function(engine, "solve_session", span("solvers.solve"))

    for cls in (cache.SolverCache, shard.ShardedSolverCache):
        for attr, name, options in (
            ("get", "cache.get", {"value": _hit}),
            ("put", "cache.put", {
                "before": _evictions_before, "value": _evictions_during}),
            ("put_many", "cache.put", {
                "before": _evictions_before, "value": _evictions_during}),
            ("invalidate", "cache.invalidate", {"value": _returned}),
        ):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, span(name, **options))
    tracer.patch_method(shard.ShardGroup, "get", span("cache.shard_get"))
    for cls in (executors.SerialBackend, executors.ThreadBackend):
        tracer.patch_method(cls, "run", span("executors.run", hands_off=True))
    tracer.patch_method(
        service.PreferenceService, "answer_many",
        span("service.answer_many", value=_request_ids),
    )

    for attr in ("add_session", "update_session", "expire_session"):
        tracer.patch_method(mutable.MutablePPDatabase, attr, span("db.mutate"))
    tracer.patch_method(
        standing.StandingQueryEngine, "refresh",
        span("stream.refresh", value=_count_returned),
    )

    for attr in ("decode_request", "decode_batch"):
        tracer.patch_function(protocol, attr, span("server.decode"))
    for attr in ("encode_answer", "encode_batch"):
        tracer.patch_function(protocol, attr, span("server.encode"))
    tracer.patch_method(
        coalescer.RequestCoalescer, "submit",
        span("server.submit", value=_submitted_id),
    )
    tracer.patch_method(
        app.ServerApp, "handle", span("server.handle", request_arg=4)
    )
    tracer.patch_method(
        admission.AdmissionController, "acquire", span("server.admit")
    )
    return tracer


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


class Ledger:
    """Per-name totals and self times over the spans inside ``windows``.

    ``windows`` is a list of ``(start, end)`` timed regions; spans and
    leaves starting outside every window (set-up, warm-up, correctness
    checks) are ignored, and the windows' total length is the wall time
    that shares are taken of.
    """

    def __init__(self, spans, leaves, windows) -> None:
        windows = sorted(windows)
        starts = [start for start, _ in windows]

        def inside(moment) -> bool:
            index = bisect.bisect_right(starts, moment) - 1
            return index >= 0 and moment <= windows[index][1]

        self.wall = sum(end - start for start, end in windows)
        self.spans = {span[0]: span for span in spans if inside(span[2])}
        self.leaf_seconds: dict = defaultdict(float)
        self.leaf_calls: dict = defaultdict(int)
        leaf_by_parent: dict = defaultdict(float)
        for name, created, parent, seconds, first in leaves:
            if inside(created):
                self.leaf_seconds[name] += seconds
                leaf_by_parent[parent] += seconds
                self.leaf_calls[name] += first

        children: dict = defaultdict(list)
        for sid, name, start, end, parent, _request, _value in (
            self.spans.values()
        ):
            children[parent].append((sid, start, end))
        self.self_seconds: dict = defaultdict(float)
        self.total_seconds: dict = defaultdict(float)
        self.count: dict = defaultdict(int)
        self.values: dict = defaultdict(list)
        for sid, name, start, end, parent, _request, value in (
            self.spans.values()
        ):
            if not self.has_ancestor(sid, name):
                self.total_seconds[name] += end - start
                self.count[name] += 1
                self.values[name].append(value)
            if name in ASYNC_ENVELOPES:
                continue
            covered = union_length(
                (max(start, c_start), min(end, c_end))
                for _, c_start, c_end in children[sid]
                if c_end > start and c_start < end
            )
            self.self_seconds[name] += max(
                0.0, end - start - covered - leaf_by_parent[sid]
            )
        for name, seconds in self.leaf_seconds.items():
            self.self_seconds[name] += seconds

    def has_ancestor(self, sid, ancestor_name) -> bool:
        parent = self.spans[sid][4]
        while parent in self.spans:
            if self.spans[parent][1] == ancestor_name:
                return True
            parent = self.spans[parent][4]
        return False

    def named(self, name):
        return [span for span in self.spans.values() if span[1] == name]

    def layer_share(self, layer) -> float:
        seconds = sum(
            value for name, value in self.self_seconds.items()
            if name.split(".", 1)[0] == layer
        )
        return seconds / self.wall if self.wall > 0 else 0.0


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger) -> dict:
    """The per-layer metrics of BENCHMARK.json from one ledger.

    Seconds are totals over the timed windows; ``*_per_*`` and shares are
    ratios.  ``driver.*`` and ``trace.*`` come from the workload itself.
    """
    total = ledger.total_seconds
    own = ledger.self_seconds
    count = ledger.count
    metrics = {
        "api.parse_s": total["api.parse"],
        "api.assemble_s": total["api.assemble"],
        "plan.build_s": own["plan.build"],
        "query.ground_s": total["query.ground"],
        "db.rows_where_calls": ledger.leaf_calls["db.rows_where"],
        "db.rows_where_s": ledger.leaf_seconds["db.rows_where"],
        "plan.optimize_s": total["plan.optimize"],
    }
    for pass_name in PLAN_PASSES:
        metrics[f"plan.pass.{pass_name}_s"] = total[f"plan.pass.{pass_name}"]
    plans = [v for v in ledger.values["plan.optimize"] if isinstance(v, tuple)]
    planned = sum(v[0] for v in plans)
    eliminated = sum(v[1] for v in plans)
    metrics.update({
        "plan.cost_estimates": count["plan.cost_estimate"],
        "plan.cost_estimates_per_solve": _ratio(
            count["plan.cost_estimate"], planned
        ),
        "plan.solves_planned": planned,
        "plan.solves_eliminated": eliminated,
        "plan.execute_self_s": own["plan.execute"],
    })
    effort = [v for v in ledger.values["api.assemble"] if isinstance(v, tuple)]
    metrics["topk.exact_per_bound"] = _ratio(
        sum(v[0] for v in effort), sum(v[1] for v in effort)
    )

    gets = [v for v in ledger.values["cache.get"] if isinstance(v, int)]
    hits = sum(gets)
    metrics.update({
        "cache.get_s": total["cache.get"],
        "cache.hits": hits,
        "cache.misses": len(gets) - hits,
        "cache.hit_ratio": _ratio(hits, len(gets)),
        "cache.put_s": total["cache.put"],
        "cache.invalidate_s": total["cache.invalidate"],
        "cache.invalidations": sum(
            v for v in ledger.values["cache.invalidate"] if isinstance(v, int)
        ),
        "cache.evictions": sum(
            v for v in ledger.values["cache.put"] if isinstance(v, int)
        ),
        "cache.shard_get_s": total["cache.shard_get"],
    })

    runs = ledger.named("executors.run")
    run_wall = sum(end - start for _, _, start, end, *_ in runs)
    run_ids = {span[0] for span in runs}
    solve_in_runs = sum(
        end - start
        for _, name, start, end, parent, *_ in ledger.spans.values()
        if name == "solvers.solve" and parent in run_ids
    )
    metrics.update({
        "executors.run_s": total["executors.run"],
        "executors.parallelism": _ratio(solve_in_runs, run_wall),
        "solvers.solve_s": total["solvers.solve"],
        "solvers.fresh_solves": count["solvers.solve"],
        "solvers.upper_bound_s": total["solvers.upper_bound"],
        "solvers.upper_bound_calls": count["solvers.upper_bound"],
        "db.mutate_s": total["db.mutate"],
        "db.deltas": count["db.mutate"],
    })

    refreshes = count["stream.refresh"]
    solves_in_refresh = sum(
        1 for span in ledger.named("solvers.solve")
        if ledger.has_ancestor(span[0], "stream.refresh")
    )
    metrics.update({
        "stream.refresh_self_s": own["stream.refresh"],
        "stream.stale_per_generation": _ratio(
            sum(v for v in ledger.values["stream.refresh"]
                if isinstance(v, int)),
            refreshes,
        ),
        "stream.fresh_solves_per_generation": _ratio(
            solves_in_refresh, refreshes
        ),
    })

    waits = window_waits(ledger)
    batches = [
        v for v in ledger.values["service.answer_many"]
        if isinstance(v, tuple)
    ]
    metrics.update({
        "server.decode_s": total["server.decode"],
        "server.encode_s": total["server.encode"],
        "server.window_wait_ms": (
            1000.0 * sum(waits) / len(waits) if waits else 0.0
        ),
        "server.batch_size_mean": (
            _ratio(sum(len(b) for b in batches), len(batches))
            if count["server.handle"] else 0.0
        ),
        "server.service_s": total["server.handle"],
        "server.rejected": sum(
            1 for v in ledger.values["server.admit"]
            if v == "error:AdmissionRejected"
        ),
    })
    for layer in LAYERS:
        metrics[f"share.{layer}"] = ledger.layer_share(layer)
    return metrics


def window_waits(ledger: Ledger) -> list[float]:
    """Seconds each coalesced request waited before its batch started.

    Matches each ``server.submit`` span (value: the request object's id)
    to the first ``service.answer_many`` call that started after it and
    carried that request.
    """
    batches = sorted(
        (span[2], span[6]) for span in ledger.named("service.answer_many")
        if isinstance(span[6], tuple)
    )
    batch_starts = [start for start, _ in batches]
    waits = []
    for span in ledger.named("server.submit"):
        submitted, request_id = span[2], span[6]
        index = bisect.bisect_left(batch_starts, submitted)
        for start, ids in batches[index:]:
            if request_id in ids:
                waits.append(start - submitted)
                break
    return waits


def dump(tracer: Tracer) -> dict:
    """The tracer's records as JSON-safe lists (for the server launcher)."""
    def safe(value):
        if isinstance(value, tuple):
            return list(value)
        return value

    return {
        "spans": [
            [sid, name, start, end, parent, request, safe(value)]
            for sid, name, start, end, parent, request, value in tracer.spans
        ],
        "leaves": [list(leaf) for leaf in tracer.leaves],
    }


def load(payload: dict) -> tuple[list, list]:
    """Inverse of :func:`dump` (lists back to the tuples the ledger reads)."""
    def restore(value):
        return tuple(value) if isinstance(value, list) else value

    spans = [
        (sid, name, start, end, parent, request, restore(value))
        for sid, name, start, end, parent, request, value in payload["spans"]
    ]
    leaves = [tuple(leaf) for leaf in payload["leaves"]]
    return spans, leaves
