"""End-to-end serving benchmark with a per-layer ledger.

    python3 servebench/run.py --workload hot-hit --seed 1 --seconds 10 --trace 0

Spawns the workload's server (``server.py``, built from the checkout's
``src``), drives it in a closed loop over two connections, checks every
answer against an in-process oracle built from the same seed, and
prints one JSON line as the last line of stdout::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``END_TO_END``.
``--trace 1`` alternates untraced slices with slices that have the
layer shims of ``ledger.py`` installed, and reports the per-layer
metrics of ``PER_LAYER`` and the tracing overhead (traced against
untraced slices); it also writes ``out/<workload>-seed<n>.trace.json``
(Chrome trace), ``.ledger.txt`` (self-time table) and ``.ledger.json``.
A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: connections driven in the closed loop (one request outstanding each)
CONNECTIONS = 2
#: server spawns per untraced run; setup_s is their median
SETUPS = 5
#: the untraced phase is split into this many windows (see _phase_summary)
WINDOWS = 20
#: a window whose machine CPU steal share is above this is dropped
STEAL_LIMIT = 0.02
WARMUP_SECONDS = 1.0
#: a traced run alternates this many untraced and traced slices
TRACE_SLICES = 10
READY_TIMEOUT = 150.0

#: name -> (unit, better)
END_TO_END = {
    "qps": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "cpu_us_per_read": ("us", "lower"),
    "server_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

#: name -> (unit, better, the end-to-end metric and workload it moves)
PER_LAYER = {
    "serve.request_us": ("us", "lower", "cpu_us_per_read, qps on hot-hit"),
    "serve.request_wall_us": ("us", "lower", "p50_ms on hot-hit"),
    "serve.decode_us": ("us", "lower", "cpu_us_per_read, qps on hot-hit"),
    "serve.encode_us": ("us", "lower", "cpu_us_per_read, qps on hot-hit"),
    "serve.admission_wait_us": ("us", "lower", "p50_ms on hot-hit"),
    "serve.other_us": ("us", "lower", "cpu_us_per_read, qps on hot-hit"),
    "serve.reported_p50_us": ("us", "lower", "p50_ms on hot-hit"),
    "serve.client_gap_us": ("us", "lower", "p50_ms on hot-hit"),
    "mediator.union_us": ("us", "lower", "p50_ms on sharded-write"),
    "matview.probe_us": ("us", "lower", "p50_ms, client.p99_ms on sharded-write"),
    "matview.store_us": ("us", "lower", "p50_ms, client.p99_ms on sharded-write"),
    "matview.hits": ("count/read", "higher", "p50_ms on sharded-write"),
    "matview.deltas": ("count/read", "higher", "client.p99_ms on sharded-write"),
    "matview.misses": ("count/read", "lower", "client.p99_ms on sharded-write"),
    "matview.hit_ratio": ("ratio", "higher", "p50_ms, client.p99_ms on sharded-write"),
    "fanout.fan_out_us": ("us", "lower", "client.p99_ms on sharded-write, p50_ms on store-evict"),
    "transport.call_us": ("us", "lower", "client.p99_ms on sharded-write, p50_ms on store-evict"),
    "transport.calls": ("count/read", "lower", "p50_ms on store-evict"),
    "transport.retries": ("count/read", "lower", "client.p99_ms on sharded-write"),
    "sharding.query_us": ("us", "lower", "client.p99_ms on sharded-write"),
    "sharding.shards_queried": ("count/read", "lower", "client.p99_ms on sharded-write"),
    "sharding.shards_pruned": ("count/read", "higher", "client.p99_ms on sharded-write"),
    "sharding.prune_ratio": ("ratio", "higher", "client.p99_ms on sharded-write"),
    "engine.eval_us": ("us", "lower", "p50_ms, cpu_us_per_read on store-evict"),
    "engine.projected": ("count/read", "higher", "cpu_us_per_read on store-evict"),
    "engine.fallback": ("count/read", "lower", "p50_ms, cpu_us_per_read on store-evict"),
    "xmlmodel.serialize_us": ("us", "lower", "cpu_us_per_read, qps on hot-hit"),
    "xmlmodel.answer_bytes": ("B/read", "lower", "cpu_us_per_read on hot-hit"),
    "xmlmodel.index_us": ("us", "lower", "p50_ms on store-evict"),
    "store.page_us": ("us", "lower", "client.p99_ms on store-evict"),
    "store.page_hits": ("count/read", "higher", "client.p99_ms on store-evict"),
    "store.page_misses": ("count/read", "lower", "client.p99_ms on store-evict"),
    "store.page_evictions": ("count/read", "lower", "server_rss_mb on store-evict"),
    "store.hydrations": ("count/read", "lower", "client.p99_ms, server_rss_mb on store-evict"),
    "store.page_hit_ratio": ("ratio", "higher", "client.p99_ms on store-evict"),
    "dtd.validate_us": ("us", "lower", "p50_ms on sharded-write"),
    "trace.overhead_cpu_pct": ("%", "lower", "none: cost of the traced run"),
    "trace.overhead_p50_pct": ("%", "lower", "none: cost of the traced run"),
    "client.p99_ms": ("ms", "lower", "tail latency; steal-sensitive on hot-hit"),
    "client.failed_frac": ("ratio", "lower", "every end-to-end metric"),
}

#: ledger span -> per-layer metric of its CPU self time.  The
#: admission span is a wait, reported as wall time; its CPU self time
#: counts in serve.other_us, so the CPU ledger sums to serve.request_us.
SPAN_METRICS = {
    "serve.request": "serve.other_us",
    "serve.admission_wait": "serve.other_us",
    "serve.decode": "serve.decode_us",
    "serve.encode": "serve.encode_us",
    "mediator.union": "mediator.union_us",
    "matview.probe": "matview.probe_us",
    "matview.store": "matview.store_us",
    "fanout.fan_out": "fanout.fan_out_us",
    "transport.call": "transport.call_us",
    "sharding.query": "sharding.query_us",
    "engine.eval": "engine.eval_us",
    "xmlmodel.serialize": "xmlmodel.serialize_us",
    "xmlmodel.index": "xmlmodel.index_us",
    "store.page": "store.page_us",
    "dtd.validate": "dtd.validate_us",
}


def _fail_setup(message: str) -> None:
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    if __name__ == "__main__":
        _fail_setup(f"no program sources at {SRC}; run from a checkout")
sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# server processes
# ---------------------------------------------------------------------------


class Server:
    """One spawned ``server.py`` process."""

    def __init__(self, workload: str, data: list[str], prefix: str,
                 traceable: bool = False, corrupt_every: int = 0) -> None:
        """``data`` is ``["--corpus", path]`` or ``["--store", path]``."""
        self.prefix = prefix
        command = [
            sys.executable, os.path.join(HERE, "server.py"),
            "--workload", workload, *data, "--out-prefix", prefix,
        ]
        if traceable:
            command.append("--traceable")
        if corrupt_every:
            command += ["--corrupt-every", str(corrupt_every)]
        # A fixed hash seed gives every server the same dict and set
        # layouts, so runs differ in their inputs, not in hash order.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.port: int | None = None
        self.log = open(self.prefix + ".log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env,
            cwd=ROOT,
        )
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started
        self.pid = self.process.pid

    def _await_ready(self) -> int:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], READY_TIMEOUT)
        line = stdout.readline() if ready else b""
        if not line.startswith(b"READY "):
            raise RuntimeError(
                f"server did not become ready (see {self.prefix}.log)"
            )
        return int(line.split()[1])

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        process = self.process
        if process.poll() is None:
            if self.port is not None:
                from loadgen import Connection

                try:
                    connection = Connection(("127.0.0.1", self.port), iter(()))
                    connection.request({"op": "shutdown"})
                    connection.close()
                except (OSError, ValueError):
                    pass
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)
        process.stdout.close()
        self.log.close()


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


class Oracle:
    """The workload's federation in process, from the same seed."""

    def __init__(self, workload: str, seed: int) -> None:
        import federations
        from repro.xmlmodel import serialize_document

        self.workload = workload
        self.corpus = federations.generate_corpus(workload, seed)
        self.mediator = federations.build(workload, self.corpus)
        self.views = federations.views_for(workload)
        self._serialize = serialize_document
        self.n_targets = 0
        if workload == "sharded-write":
            self._map_title_slots()
        self.answers = {view: self.answer(view) for view in self.views}

    def _map_title_slots(self) -> None:
        """Which write target each ``title`` of an answer shows.

        Each target is marked with its own index, the answer computed
        and read back, and the original texts restored.  No query
        condition reads a title's text, so writes never change which
        targets an answer picks, nor their order."""
        import federations
        from repro.xmlmodel import parse_document

        targets = federations.title_targets(self.mediator)
        self.n_targets = len(targets)
        #: target -> its text before any write
        self.original_titles = [target.text for target in targets]
        for index, target in enumerate(targets):
            target.set_text(f"target-{index}")
        (view,) = self.views
        marked = parse_document(self.answer(view))
        #: answer title position -> write target
        self.title_slots = [
            int(text.removeprefix("target-")) for text in answer_titles(marked)
        ]
        for target, text in zip(targets, self.original_titles):
            target.set_text(text)

    def answer(self, view: str) -> str:
        return self._serialize(
            self.mediator.materialize_union(view, cache=False)
        )

    def view_dtds(self) -> dict:
        from repro.dtd import serialize_dtd

        return {
            name: serialize_dtd(self.mediator.union_views[name].dtd)
            for name in self.views
        }

    def apply_writes(self, writes: dict) -> None:
        import federations

        targets = federations.title_targets(self.mediator)
        for target, text in writes.items():
            targets[target].set_text(text)
        self.answers = {view: self.answer(view) for view in self.views}


def answer_titles(document) -> list:
    """The texts of an answer's ``title`` elements, in document order."""
    return [
        element.text for element in document.root.iter()
        if element.name == "title"
    ]


def verify(oracle: Oracle, tally, served_dtds: dict, seed: int) -> None:
    """Check every read the run kept a digest of (after timing)."""
    from loadgen import digest

    expected_dtds = oracle.view_dtds()
    for view in oracle.views:
        served = served_dtds.get(view, {}).get("dtd")
        if served != expected_dtds[view]:
            tally.fail(f"views: {view} DTD differs from the inferred one")
    if oracle.workload != "sharded-write":
        expected = {
            view: digest(text) for view, text in oracle.answers.items()
        }
        for (view, key), (count, _) in tally.answers.items():
            if expected.get(view) != key:
                tally.fail(f"read {view}: answer differs from the oracle",
                           count)
        return
    # Reads interleave with writes, so no single oracle answer exists:
    # every read must validate against the served view DTD, and show
    # its own connection's acknowledged writes.
    from repro.dtd import parse_dtd, validate_document
    from repro.xmlmodel import parse_document

    schemas = {
        view: parse_dtd(entry["dtd"]) for view, entry in served_dtds.items()
    }
    titles = {}
    for key, (count, text) in tally.answers.items():
        document = parse_document(text)
        if not validate_document(document, schemas[key[0]]).ok:
            tally.fail(f"read {key[0]}: answer violates the view DTD", count)
        else:
            titles[key] = answer_titles(document)
    read_your_writes(oracle, tally, titles, seed)


def read_your_writes(oracle: Oracle, tally, titles: dict, seed: int) -> None:
    """Every read must show its own connection's acknowledged writes.

    A connection sends a read only once its previous write has been
    acknowledged, and it alone writes the titles it owns.  So for each
    owned title the view picks, the answer must hold exactly the text
    of the connection's last write to it before the read, or the
    original text.  A stale cached answer is DTD-valid, but fails here.
    ``titles`` maps each DTD-valid answer to its title texts.
    """
    import federations

    reads: dict[int, list] = {}
    for conn, index, key in tally.reads:
        if key in titles:
            reads.setdefault(conn, []).append((index, key))
    slots = list(enumerate(oracle.title_slots))
    for conn, conn_reads in reads.items():
        owned = [(pos, target) for pos, target in slots
                 if target % federations.WRITERS == conn]
        ops = federations.op_stream(oracle.workload, seed, conn,
                                    oracle.n_targets)
        written: dict[int, str] = {}
        at = 0
        for index, key in sorted(conn_reads):
            for kind, target, text in itertools.islice(ops, index - at):
                if kind == "write":
                    written[target] = text
            at = index
            shown = titles[key]
            if len(shown) != len(oracle.title_slots) or any(
                shown[pos] != written.get(target, oracle.original_titles[target])
                for pos, target in owned
            ):
                tally.fail(f"read {key[0]} (connection {conn}, op {index}): "
                           "answer misses the connection's own writes")


def quiescent_checks(oracle: Oracle, connection, tally) -> None:
    """With no request in flight: cached reads, uncached reads and the
    oracle (after replaying the acknowledged writes) must all agree."""
    if tally.writes:
        oracle.apply_writes(tally.writes)
    for view in oracle.views:
        for cache in (True, False):
            tally.attempted += 1
            reply = connection.request(
                {"op": "union", "view": view, "cache": cache}
            )
            if not reply.get("ok") or reply.get("degraded"):
                tally.fail(f"quiescent read {view}: {reply.get('error')}")
            elif reply["answer"] != oracle.answers[view]:
                tally.fail(
                    f"quiescent read {view} (cache={cache}) differs from "
                    "the oracle"
                )


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[index]


def _figures(windows: list[dict]) -> dict:
    latencies = [x for window in windows for x in window["latencies"]]
    reads = len(latencies)
    return {
        "reads": reads,
        "qps": statistics.median(
            len(w["latencies"]) / w["seconds"] for w in windows
        ),
        "p50_ms": _quantile(latencies, 0.50) * 1e3,
        "p99_ms": _quantile(latencies, 0.99) * 1e3,
        "cpu_us_per_read": sum(w["cpu_seconds"] for w in windows)
        / max(1, reads) * 1e6,
        "steal": statistics.mean(w["steal"] for w in windows),
    }


def _phase_summary(windows: list[dict]) -> dict:
    """End-to-end figures over the quiet windows.

    Time the hypervisor gives to other tenants of the host is not the
    program's time.  Windows are ranked by the machine's CPU steal
    share; the kept ones are the least-stolen half, less those above
    ``STEAL_LIMIT``, but never fewer than the least-stolen quarter
    (``steal_bound`` is then true: the figures carry steal).  ``all``
    holds the figures over every window.
    """
    ranked = sorted(windows, key=lambda window: window["steal"])
    kept = [
        window for window in ranked[: (len(windows) + 1) // 2]
        if window["steal"] <= STEAL_LIMIT
    ]
    least = max(1, len(windows) // 4)
    steal_bound = len(kept) < least
    if steal_bound:
        kept = ranked[:least]
    summary = _figures(kept)
    summary["all"] = _figures(windows)
    summary["windows"] = len(windows)
    summary["kept"] = len(kept)
    summary["steal_bound"] = steal_bound
    return summary


def _counter_delta(after: dict, before: dict) -> dict:
    delta = {}
    for section, values in after.items():
        if isinstance(values, dict) and isinstance(before.get(section), dict):
            delta[section] = {
                key: value - before[section].get(key, 0)
                for key, value in values.items()
                if isinstance(value, (int, float))
            }
    return delta


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, delta: dict, reads: int,
                  traced_reads: int) -> dict:
    """Per-layer values: span self times per traced request, counter
    deltas per read, engine documents per traced read."""
    requests = max(1, summary["requests"])
    values = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for span, metric in SPAN_METRICS.items():
        values[metric] += summary["self_ns"].get(span, 0) / requests / 1e3
    values["serve.admission_wait_us"] = (
        summary["wall_ns"].get("serve.admission_wait", 0) / requests / 1e3
    )
    values["serve.request_us"] = summary["request_cpu_ns"] / requests / 1e3
    values["serve.request_wall_us"] = (
        summary["request_wall_ns"] / requests / 1e3
    )
    per_read = lambda count: _ratio(count, reads)  # noqa: E731
    matview = delta.get("matview", {})
    hits, deltas = matview.get("hits", 0), matview.get("deltas", 0)
    misses = matview.get("misses", 0)
    values["matview.hits"] = per_read(hits)
    values["matview.deltas"] = per_read(deltas)
    values["matview.misses"] = per_read(misses)
    values["matview.hit_ratio"] = _ratio(hits + deltas, hits + deltas + misses)
    transport = delta["transport"]
    values["transport.calls"] = per_read(transport["calls"])
    values["transport.retries"] = per_read(transport["retries"])
    sharding = delta["sharding"]
    called, pruned = sharding["shards_called"], sharding["shards_pruned"]
    values["sharding.shards_queried"] = per_read(called)
    values["sharding.shards_pruned"] = per_read(pruned)
    values["sharding.prune_ratio"] = _ratio(pruned, called + pruned)
    engine = summary["engine_docs"]
    values["engine.projected"] = _ratio(engine["projected"], traced_reads)
    values["engine.fallback"] = _ratio(engine["fallback"], traced_reads)
    store = delta.get("store", {})
    page_hits, page_misses = store.get("page_hits", 0), store.get("page_misses", 0)
    values["store.page_hits"] = per_read(page_hits)
    values["store.page_misses"] = per_read(page_misses)
    values["store.page_evictions"] = per_read(store.get("page_evictions", 0))
    values["store.hydrations"] = per_read(store.get("hydrations", 0))
    values["store.page_hit_ratio"] = _ratio(page_hits, page_hits + page_misses)
    return values


def _connect(server: Server, oracle: Oracle, seed: int):
    import federations
    from loadgen import Connection

    return [
        Connection(
            ("127.0.0.1", server.port),
            federations.op_stream(oracle.workload, seed, conn,
                                  oracle.n_targets),
            conn,
        )
        for conn in range(CONNECTIONS)
    ]


def run(args) -> dict:
    from loadgen import Tally, closed_loop, peak_rss_mib

    import federations

    os.makedirs(OUT, exist_ok=True)
    oracle = Oracle(args.workload, args.seed)
    prefix = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if args.workload == "store-evict":
        # Ingested once: every spawn reopens it, as a restarted
        # store-backed server does.
        data_path = prefix + ".store.db"
        federations.ingest_store(oracle.corpus, data_path)
        data = ["--store", data_path]
    else:
        data_path = prefix + ".corpus.json"
        with open(data_path, "w", encoding="utf-8") as handle:
            handle.write(federations.corpus_to_json(oracle.corpus))
        data = ["--corpus", data_path]
    tally = Tally()
    traced = bool(args.trace)
    setups = 1 if traced else SETUPS
    servers: list[Server] = []
    connections = []
    result: dict = {}
    try:
        setup_seconds = []
        for index in range(setups):
            if servers:
                servers.pop().stop()
            server = Server(args.workload, data, prefix,
                            traceable=traced,
                            corrupt_every=args.corrupt_every)
            servers.append(server)
            setup_seconds.append(server.setup_seconds)
        server = servers[-1]
        connections = _connect(server, oracle, args.seed)
        control = connections[0]
        served_dtds = control.request({"op": "views"})["views"]
        closed_loop(connections, WARMUP_SECONDS, tally, server.pid)
        result["setup_s"] = statistics.median(setup_seconds)
        result["setup_runs"] = setup_seconds
        if traced:
            result.update(_traced_phases(args, connections, tally, server))
        else:
            result["untraced"] = _phase_summary(closed_loop(
                connections, args.seconds, tally, server.pid, WINDOWS
            ))
        result["server_rss_mb"] = peak_rss_mib(server.pid)
        quiescent_checks(oracle, control, tally)
        verify(oracle, tally, served_dtds, args.seed)
    finally:
        for connection in connections:
            connection.close()
        for server in servers:
            server.stop()
        os.remove(data_path)
    result["tally"] = tally
    return result


def _traced_phases(args, connections, tally, server) -> dict:
    """Alternate untraced and traced slices, so that both halves see the
    same machine; the ledger covers the traced slices only."""
    from loadgen import closed_loop

    control = connections[0]

    def bench_trace(action: str) -> dict:
        return control.request({"op": "bench_trace", "action": action})

    slice_seconds = args.seconds / (2 * TRACE_SLICES)
    untraced, traced = [], []
    before = control.request({"op": "bench_counters"})["counters"]
    bytes_before = tally.answer_bytes
    for _ in range(TRACE_SLICES):
        untraced += closed_loop(connections, slice_seconds, tally, server.pid)
        bench_trace("on")
        traced += closed_loop(connections, slice_seconds, tally, server.pid)
        bench_trace("off")
    after = control.request({"op": "bench_counters"})["counters"]
    summary = bench_trace("report")["summary"]
    plain, shimmed = _phase_summary(untraced), _phase_summary(traced)
    reads = plain["all"]["reads"] + shimmed["all"]["reads"]
    layers = layer_metrics(
        summary, _counter_delta(after, before), reads,
        shimmed["all"]["reads"],
    )
    layers["xmlmodel.answer_bytes"] = _ratio(
        tally.answer_bytes - bytes_before, reads
    )
    reported_p50 = after["serve"]["latency"]["p50"] or 0.0
    layers["client.p99_ms"] = plain["all"]["p99_ms"]
    layers["serve.reported_p50_us"] = reported_p50 * 1e6
    layers["serve.client_gap_us"] = plain["p50_ms"] * 1e3 - reported_p50 * 1e6
    layers["trace.overhead_cpu_pct"] = 100 * (
        shimmed["cpu_us_per_read"] / plain["cpu_us_per_read"] - 1
    )
    layers["trace.overhead_p50_pct"] = 100 * (
        shimmed["p50_ms"] / plain["p50_ms"] - 1
    )
    return {
        "untraced": plain,
        "traced": shimmed,
        "layers": layers,
        "ledger": summary,
        "trace_prefix": server.prefix,
    }


def report(args, result: dict) -> dict:
    tally = result["tally"]
    attempted = max(1, tally.attempted)
    failed_frac = tally.failed / attempted
    if args.trace:
        values = dict(result["layers"])
        values["client.failed_frac"] = failed_frac
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values = dict(result["untraced"])
        values["setup_s"] = result["setup_s"]
        values["server_rss_mb"] = result["server_rss_mb"]
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _describe(args, result: dict, line: dict) -> None:
    """The human-readable summary on stderr (and the ledger JSON)."""
    tally = result["tally"]
    err = sys.stderr
    untraced = result["untraced"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{untraced['all']['reads']} timed reads over {CONNECTIONS} connections "
          f"(closed loop)", file=err)
    every = untraced["all"]
    if untraced["steal_bound"]:
        print(f"warning: fewer than {untraced['kept']} windows had CPU steal "
              f"<= {STEAL_LIMIT:.0%}; the timing figures carry host steal",
              file=err)
    print(f"kept {untraced['kept']} of "
          f"{untraced['windows']} windows: steal {untraced['steal']:.1%}, "
          f"p99 {untraced['p99_ms']:.3f} ms; all windows: steal "
          f"{every['steal']:.1%}, qps {every['qps']:.1f}, p50 "
          f"{every['p50_ms']:.3f} ms, p99 {every['p99_ms']:.3f} ms, cpu "
          f"{every['cpu_us_per_read']:.1f} us/read", file=err)
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_frac {tally.failed / max(1, tally.attempted):.4g}",
          file=err)
    for message in tally.failures:
        print(f"  failure: {message}", file=err)
    for name, metric in line["metrics"].items():
        print(f"  {name:<26} {metric['value']:>14.4f} {metric['unit']}",
              file=err)
    if not args.trace:
        return
    prefix = result["trace_prefix"]
    layers = result["layers"]
    largest = max(set(SPAN_METRICS.values()), key=layers.get)
    verdict = None
    if args.workload == "hot-hit":
        verdict = (
            "confirmed" if largest == "xmlmodel.serialize_us" else
            f"refuted (largest is {largest})"
        )
        print(f"prediction: xmlmodel.serialize_us is the largest layer self "
              f"time on hot-hit: {verdict}", file=err)
    print(f"ledger: {prefix}.ledger.txt  trace: {prefix}.trace.json",
          file=err)
    with open(prefix + ".ledger.txt", encoding="utf-8") as handle:
        err.write(handle.read())
    ledger = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced": untraced,
        "traced": result["traced"],
        "layers": {
            name: {"value": line["metrics"][name]["value"],
                   "unit": spec[0], "better": spec[1], "moves": spec[2]}
            for name, spec in PER_LAYER.items()
        },
        "largest_self_time": largest,
        "serialize_prediction": verdict,
        "ledger": result["ledger"],
    }
    with open(prefix + ".ledger.json", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)


def main(argv=None) -> int:
    import federations

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=federations.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-every", type=int, default=0, metavar="N",
        help="self-test only: the server corrupts every Nth answer",
    )
    args = parser.parse_args(argv)
    result = run(args)
    line = report(args, result)
    _describe(args, result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
