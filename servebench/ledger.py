"""Per-layer span recording for the traced benchmark run.

The recorder wraps the public entry points of each layer with timing
shims (module-attribute and class-attribute patches, all undone by
:meth:`Recorder.uninstall`).  It never calls ``repro.obs.install_tracer``,
so the program's own ``obs`` spans stay on their no-op path.

Every span is ``(span_id, parent_id, request_id, name, wall_start,
wall_end, cpu_start, cpu_end, thread_id, op)``, times in ns; the CPU
clock is the recording thread's own.  A request's root span opens when
the server starts handling its line and closes when its response has
been written to the socket.  Fan-out legs run on pool threads: the
``fan_out`` shim hands the pool proxies of the leg transports that
carry the request's context to the worker thread, so those legs nest
under their request.

Self times are CPU times (see :func:`analyze`): with two requests in
flight, the handler threads share one interpreter lock, so a span's
wall time also counts the other request's work.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

class _LegProxy:
    """A fan-out leg's transport, carrying its request's trace context
    into whichever thread runs the leg."""

    def __init__(self, transport, recorder, request_id, parent_id):
        self._transport = transport
        self._recorder = recorder
        self._request_id = request_id
        self._parent_id = parent_id

    def __getattr__(self, attribute):
        return getattr(self._transport, attribute)

    def call(self, *args, **kwargs):
        local = self._recorder._local
        saved = (getattr(local, "stack", None), getattr(local, "rid", None))
        local.stack = [self._parent_id]
        local.rid = self._request_id
        try:
            return self._transport.call(*args, **kwargs)
        finally:
            local.stack, local.rid = saved


class Recorder:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.engine_docs = {"projected": 0, "fallback": 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._counts_lock = threading.Lock()

    # -- request roots ---------------------------------------------------

    def open_request(self) -> None:
        """Open a root span on this thread (the server's request start)."""
        local = self._local
        span_id = next(self._ids)
        local.rid = span_id
        local.stack = [span_id]
        local.root = (span_id, time.perf_counter_ns(), time.thread_time_ns())
        local.op = None

    def close_request(self) -> None:
        """Close this thread's root span, if one is open."""
        local = self._local
        root = getattr(local, "root", None)
        if root is None:
            return
        end, cpu_end = time.perf_counter_ns(), time.thread_time_ns()
        span_id, start, cpu_start = root
        self.spans.append(
            (span_id, None, span_id, "serve.request", start, end,
             cpu_start, cpu_end, threading.get_ident(), local.op)
        )
        local.root = None
        local.stack = None

    def abandon_request(self) -> None:
        """Forget this thread's open root without recording it."""
        self._local.root = None
        self._local.stack = None

    # -- shims -----------------------------------------------------------

    def _timed(self, name, function, after=None, legs=False):
        """A shim timing ``function`` as span ``name`` inside a request.

        ``legs`` marks ``ParallelTransport.fan_out(self, legs, ...)``:
        its leg transports are handed on as :class:`_LegProxy` objects
        that carry the request's context into the pool threads.
        ``after(args, kwargs, result)`` runs once the span has closed.
        """
        spans = self.spans
        ids = self._ids
        local = self._local
        recorder = self
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        def shim(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return function(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            rid = local.rid
            if legs:
                args = (
                    args[0],
                    [(_LegProxy(transport, recorder, rid, span_id), query)
                     for transport, query in args[1]],
                    *args[2:],
                )
            stack.append(span_id)
            start, cpu_start = clock(), cpu_clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end, cpu_end = clock(), cpu_clock()
                stack.pop()
                spans.append(
                    (span_id, parent, rid, name, start, end,
                     cpu_start, cpu_end, threading.get_ident(), None)
                )
            if after is not None:
                after(args, kwargs, result)
            return result

        return shim

    def _patch(self, owner, attribute, name, after=None, legs=False):
        original = owner.__dict__[attribute]
        is_static = isinstance(original, staticmethod)
        function = original.__func__ if is_static else original
        shim = self._timed(name, function, after, legs)
        setattr(owner, attribute, staticmethod(shim) if is_static else shim)
        self._patches.append((owner, attribute, original))

    def _count_engine_docs(self, args, kwargs, result) -> None:
        from repro.xmas.engine import compile_query

        query, documents = args[0], args[1]
        key = (
            "projected" if compile_query(query).projectable else "fallback"
        )
        with self._counts_lock:
            self.engine_docs[key] += len(documents)

    def _note_op(self, args, kwargs, result) -> None:
        if isinstance(result, dict):
            self._local.op = result.get("op")

    def install(self) -> None:
        """Patch every layer's entry points (server must be idle)."""
        from repro.mediator import matview, mediator, parallel, transport
        from repro.mediator.sharding import ShardedSource
        from repro.serve import protocol, server
        from repro.store.store import DocumentStore
        from repro.xmas import engine

        self._patch(protocol, "decode", "serve.decode", after=self._note_op)
        self._patch(protocol, "encode", "serve.encode")
        self._patch(server.AdmissionController, "acquire",
                    "serve.admission_wait")
        self._patch(server, "serialize_document", "xmlmodel.serialize")
        self._patch(mediator.Mediator, "materialize_union", "mediator.union")
        self._patch(mediator, "validate_document", "dtd.validate")
        self._patch(matview.MatViewCache, "probe", "matview.probe")
        self._patch(matview.MatViewCache, "store", "matview.store")
        self._patch(matview.MatViewCache, "_splice_validates",
                    "dtd.validate")
        self._patch(matview, "document_index", "xmlmodel.index")
        self._patch(parallel.ParallelTransport, "fan_out", "fanout.fan_out",
                    legs=True)
        self._patch(transport.SourceTransport, "call", "transport.call")
        self._patch(ShardedSource, "query", "sharding.query")
        self._patch(engine, "evaluate_many_compiled", "engine.eval",
                    after=self._count_engine_docs)
        self._patch(engine, "document_index", "xmlmodel.index")
        self._patch(DocumentStore, "page_rows", "store.page")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

_ID, _PARENT, _RID, _NAME, _WALL0, _WALL1, _CPU0, _CPU1, _TID, _OP = range(10)


def analyze(spans: list[tuple], op: str = "union") -> dict:
    """Per-span-name totals (ns) over the requests whose op is ``op``.

    A span's self time is its CPU time minus the CPU time of its
    children on the same thread.  Children on other threads (fan-out
    legs) spent their own thread's CPU, which their own spans count,
    so the self times of one request add up to exactly the CPU it cost
    on every thread: ``request_cpu_ns``.  ``wall_ns`` sums each span's
    wall duration (children included); waits such as admission are
    read from it, since a wait costs no CPU.
    """
    roots = {}
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[_PARENT] is None:
            roots[span[_ID]] = span
        else:
            children[span[_PARENT]].append(span)
    self_ns: dict[str, int] = defaultdict(int)
    wall_ns: dict[str, int] = defaultdict(int)
    requests = 0
    request_wall_ns = 0
    for root in roots.values():
        if root[_OP] != op:
            continue
        requests += 1
        request_wall_ns += root[_WALL1] - root[_WALL0]
        stack = [root]
        while stack:
            span = stack.pop()
            kids = children.get(span[_ID], ())
            own = span[_CPU1] - span[_CPU0] - sum(
                kid[_CPU1] - kid[_CPU0]
                for kid in kids
                if kid[_TID] == span[_TID]
            )
            self_ns[span[_NAME]] += own
            wall_ns[span[_NAME]] += span[_WALL1] - span[_WALL0]
            stack.extend(kids)
    return {
        "requests": requests,
        "request_wall_ns": request_wall_ns,
        "request_cpu_ns": sum(self_ns.values()),
        "self_ns": dict(self_ns),
        "wall_ns": dict(wall_ns),
    }


def chrome_trace(spans: list[tuple], max_requests: int) -> dict:
    """Chrome ``trace_event`` JSON for the first ``max_requests`` roots."""
    keep = set(sorted(s[_ID] for s in spans if s[_PARENT] is None)[
        :max_requests
    ])
    base = min((s[_WALL0] for s in spans), default=0)
    events = []
    for span in spans:
        if span[_RID] not in keep:
            continue
        events.append({
            "name": span[_NAME],
            "cat": span[_NAME].split(".")[0],
            "ph": "X",
            "ts": (span[_WALL0] - base) / 1000.0,
            "dur": (span[_WALL1] - span[_WALL0]) / 1000.0,
            "pid": 1,
            "tid": span[_TID],
            "args": {
                "request": span[_RID],
                "span": span[_ID],
                "parent": span[_PARENT],
                "cpu_us": (span[_CPU1] - span[_CPU0]) / 1000.0,
                "op": span[_OP],
            },
        })
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(summary: dict) -> str:
    """A plain-text per-span self-time table (µs per request)."""
    requests = max(1, summary["requests"])
    total = summary["request_cpu_ns"] / requests / 1000.0
    wall = summary["request_wall_ns"] / requests / 1000.0
    lines = [
        f"requests: {summary['requests']}   cpu per request: {total:.1f} us"
        f"   wall per request: {wall:.1f} us",
        f"{'span':<24}{'self cpu us':>13}{'share':>8}{'wall us':>11}",
    ]
    for name, ns in sorted(summary["self_ns"].items(), key=lambda i: -i[1]):
        mean = ns / requests / 1000.0
        span_wall = summary["wall_ns"].get(name, 0) / requests / 1000.0
        share = mean / total if total else 0.0
        lines.append(f"{name:<24}{mean:>13.1f}{share:>8.1%}{span_wall:>11.1f}")
    return "\n".join(lines) + "\n"


def write_exports(spans, summary, trace_path, table_path, max_requests):
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, max_requests), handle)
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(self_time_table(summary))
