"""The benchmark's server process: one workload behind ``MediatorServer``.

Run by ``run.py``; prints ``READY <port>`` on stdout once the server
listens, then serves until a ``shutdown`` request.  The served object
is a stock ``MediatorServer(ServePolicy())`` subclass that only adds
harness operations, each prefixed ``bench_`` or named ``mutate``:

* ``mutate``          -- ``sharded-write`` only: set one title's text
  (``Element.set_text``) while no read is evaluating;
* ``bench_counters``  -- the layers' own counters, read from their
  public APIs (matview, store page cache, shards, transports, stats);
* ``bench_trace``     -- ``on`` installs the timing shims of
  ``ledger.py``, ``off`` removes them; ``report`` writes the Chrome
  trace and the self-time table of every span recorded while on, and
  returns the per-layer totals.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.mediator import ShardedSource  # noqa: E402
from repro.serve import MediatorServer, ServePolicy  # noqa: E402
from repro.serve.protocol import ProtocolError  # noqa: E402

import federations  # noqa: E402
import ledger  # noqa: E402

#: requests exported to the Chrome trace of a traced run
TRACE_EXPORT_REQUESTS = 200


class _ReadWriteLock:
    """Many concurrent readers or one writer; waiting writers go first."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    @contextmanager
    def reading(self):
        with self._cond:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def writing(self):
        with self._cond:
            self._waiting_writers += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._waiting_writers -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _TracedConnection:
    """A connection whose ``sendall`` closes the request's root span."""

    def __init__(self, connection, server: "BenchServer") -> None:
        self._connection = connection
        self._server = server

    def __getattr__(self, attribute):
        return getattr(self._connection, attribute)

    def sendall(self, data) -> None:
        try:
            self._connection.sendall(data)
        finally:
            recorder = self._server.recorder
            if recorder is not None:
                recorder.close_request()


class BenchServer(MediatorServer):
    def __init__(self, mediator, store, args) -> None:
        super().__init__(mediator, ServePolicy())
        self.store = store
        self.out_prefix = args.out_prefix
        self.traceable = args.traceable
        self.corrupt_every = args.corrupt_every
        #: the recorder whose shims are installed (None while off)
        self.recorder: ledger.Recorder | None = None
        self._ledger: ledger.Recorder | None = None
        self._unions = itertools.count(1)
        self._rw = None
        self._targets: list = []
        if args.workload == "sharded-write":
            self._rw = _ReadWriteLock()
            self._targets = federations.title_targets(mediator)

    # -- tracing hooks (installed only for traced runs) -------------------

    def _handle_connection(self, connection) -> None:
        if self.traceable:
            connection = _TracedConnection(connection, self)
        super()._handle_connection(connection)

    def _handle_line(self, line: bytes):
        recorder = self.recorder
        if recorder is not None:
            recorder.open_request()
        return super()._handle_line(line)

    # -- operations -----------------------------------------------------

    def _dispatch(self, request: dict):
        op = request["op"]
        if op == "union":
            return self._union(request), False
        if op == "mutate":
            return self._mutate(request), False
        if op == "bench_counters":
            return {"ok": True, "counters": self._counters()}, False
        if op == "bench_trace":
            return self._trace(request), False
        return super()._dispatch(request)

    def _union(self, request: dict) -> dict:
        with self._rw.reading() if self._rw else nullcontext():
            response, _ = super()._dispatch(request)
        if self.corrupt_every and next(self._unions) % self.corrupt_every == 0:
            response["answer"] = response["answer"].replace(
                "<title>", "<title>corrupted ", 1
            )
        return response

    def _mutate(self, request: dict) -> dict:
        target = request.get("target")
        text = request.get("text")
        if (
            self._rw is None
            or not isinstance(target, int)
            or not 0 <= target < len(self._targets)
            or not isinstance(text, str)
        ):
            raise ProtocolError("mutate needs an int 'target' and a 'text'")
        with self._rw.writing():
            self._targets[target].set_text(text)
        return {"ok": True}

    def _transports(self):
        for source_name, transport in self.mediator.transports.items():
            yield transport
            source = self.mediator.sources[source_name]
            if isinstance(source, ShardedSource):
                yield from source.transports

    def _counters(self) -> dict:
        transport = {"calls": 0, "retries": 0, "failures": 0}
        for leg in self._transports():
            transport["calls"] += leg.stats.calls
            transport["retries"] += leg.stats.retries
            transport["failures"] += leg.stats.failures
        sharding = {"queries": 0, "shards_called": 0, "shards_pruned": 0}
        for source in self.mediator.sources.values():
            if isinstance(source, ShardedSource):
                for key in sharding:
                    sharding[key] += getattr(source.stats, key)
        matview = self.mediator.matview
        return {
            "serve": super()._dispatch({"op": "stats"})[0]["stats"],
            "matview": matview.info() if matview is not None else None,
            "store": self.store.cache_info() if self.store else None,
            "transport": transport,
            "sharding": sharding,
        }

    def _trace(self, request: dict) -> dict:
        """``on`` / ``off`` toggle the shims (the client only toggles
        while no request is in flight); ``report`` analyzes every span
        recorded while on, writes the exports and starts over."""
        action = request.get("action")
        if action == "on" and self.traceable and self.recorder is None:
            if self._ledger is None:
                self._ledger = ledger.Recorder()
            self._ledger.install()
            self.recorder = self._ledger
            return {"ok": True}
        if action == "off" and self.recorder is not None:
            self.recorder = None
            self._ledger.uninstall()
            # This request's own root never closes: forget it.
            self._ledger.abandon_request()
            return {"ok": True}
        if action == "report" and self.recorder is None and self._ledger:
            recorder, self._ledger = self._ledger, None
            summary = ledger.analyze(recorder.spans)
            ledger.write_exports(
                recorder.spans,
                summary,
                self.out_prefix + ".trace.json",
                self.out_prefix + ".ledger.txt",
                max_requests=TRACE_EXPORT_REQUESTS,
            )
            summary["engine_docs"] = dict(recorder.engine_docs)
            summary["spans"] = len(recorder.spans)
            return {"ok": True, "summary": summary}
        raise ProtocolError(f"bench_trace: cannot {action!r} now")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=federations.WORKLOADS,
                        required=True)
    sources = parser.add_mutually_exclusive_group(required=True)
    sources.add_argument("--corpus",
                         help="the corpus JSON the client generated")
    sources.add_argument("--store",
                         help="store-evict: the store the client ingested")
    parser.add_argument("--out-prefix", required=True)
    parser.add_argument("--traceable", action="store_true")
    parser.add_argument("--corrupt-every", type=int, default=0)
    args = parser.parse_args()
    if args.store:
        mediator, store = federations.open_store_federation(args.store)
    else:
        with open(args.corpus, encoding="utf-8") as handle:
            corpus = json.load(handle)
        mediator = federations.build(args.workload, corpus, serving=True)
        store = None
    server = BenchServer(mediator, store, args)
    server.start()
    print(f"READY {server.address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
