"""End-to-end server tests: real sockets on port 0, real threads.

Each test starts a :class:`MediatorServer` on an OS-assigned port,
talks to it with :class:`ServeClient` (the same code path the CLI and
the bench driver use), and shuts it down.  Admission-control behaviors
are forced with a slow source whose latency keeps requests inflight
long enough to fill the queue deterministically.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.mediator import BreakerState, FanoutPolicy
from repro.serve import (
    AdmissionController,
    MediatorServer,
    RequestFailed,
    ServeClient,
    ServePolicy,
    build_paper_federation,
    build_serve_workload,
)
from repro.serve.protocol import (
    QueueDeadlineExceeded,
    ServerOverloaded,
)

VIEW = "journals"


def paper_server(policy=None, n_sources=3, fanout=None):
    mediator = build_paper_federation(n_sources=n_sources, fanout=fanout)
    return MediatorServer(mediator, policy)


class TestServerBasics:
    def test_port_zero_picks_a_free_port(self):
        with paper_server() as server:
            host, port = server.address
            assert host == "127.0.0.1"
            assert port > 0

    def test_ping_views_union_health_stats(self):
        with paper_server(
            fanout=FanoutPolicy(max_workers=2)
        ) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                assert client.ping()
                views = client.views()
                assert VIEW in views
                assert views[VIEW]["sources"] == [
                    "dept0",
                    "dept1",
                    "dept2",
                ]
                assert "<!ELEMENT" in views[VIEW]["dtd"]
                response = client.union(VIEW, budget=5.0)
                assert "<journals>" in response["answer"]
                assert response["degraded"] is False
                health = client.health()
                assert set(health) == {"dept0", "dept1", "dept2"}
                assert all(
                    entry["breaker"] == "closed"
                    for entry in health.values()
                )
                stats = client.stats()
                assert stats["served"] >= 3
                assert stats["latency"]["count"] == 1

    def test_unknown_view_is_a_mediator_error(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.union("nope")
                assert excinfo.value.server_code == "MED001"

    def test_malformed_request_keeps_connection_alive(self):
        import socket as socket_module

        with paper_server() as server:
            host, port = server.address
            raw = socket_module.create_connection((host, port), timeout=5)
            try:
                raw.sendall(b"this is not json\n")
                reader = raw.makefile("rb")
                import json

                error = json.loads(reader.readline())
                assert error["ok"] is False
                assert error["error"]["code"] == "SRV001"
                # Same connection still serves well-formed requests.
                raw.sendall(b'{"op": "ping", "id": 2}\n')
                pong = json.loads(reader.readline())
                assert pong == {"ok": True, "pong": True, "id": 2}
            finally:
                raw.close()

    def test_unknown_op(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.request("frobnicate")
                assert excinfo.value.server_code == "SRV002"

    def test_client_shutdown_stops_server(self):
        server = paper_server().start()
        host, port = server.address
        with ServeClient(host, port) as client:
            client.shutdown()
        server.serve_forever()  # returns because shutdown completed
        # The port no longer accepts connections.
        import socket as socket_module

        with pytest.raises(OSError):
            socket_module.create_connection((host, port), timeout=0.5)

    def test_concurrent_clients_all_answered(self):
        with paper_server(
            ServePolicy(max_inflight=4), fanout=FanoutPolicy()
        ) as server:
            host, port = server.address
            answers = []
            errors = []

            def worker():
                try:
                    with ServeClient(host, port) as client:
                        for _ in range(5):
                            answers.append(client.union(VIEW))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=worker) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert len(answers) == 30
            first = answers[0]["answer"]
            assert all(a["answer"] == first for a in answers)


class TestAdmissionController:
    def make_deadline(self, budget):
        from repro.mediator import Deadline, SystemClock

        return Deadline.after(SystemClock(), budget)

    def test_admits_up_to_max_inflight(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        admission.acquire(self.make_deadline(1.0))
        admission.acquire(self.make_deadline(1.0))
        with pytest.raises(ServerOverloaded):
            admission.acquire(self.make_deadline(1.0))
        admission.release()
        admission.acquire(self.make_deadline(1.0))  # freed slot reusable

    def test_queue_full_drops_immediately(self):
        admission = AdmissionController(max_inflight=1, max_queue=1)
        admission.acquire(self.make_deadline(5.0))
        waiter_started = threading.Event()
        waiter_done = threading.Event()

        def waiter():
            waiter_started.set()
            admission.acquire(self.make_deadline(5.0))
            waiter_done.set()
            admission.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        waiter_started.wait(timeout=5)
        # Give the waiter time to enter the queue.
        deadline = time.monotonic() + 5
        while admission.queued() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert admission.queued() == 1
        with pytest.raises(ServerOverloaded):
            admission.acquire(self.make_deadline(5.0))  # queue is full
        admission.release()  # frees the slot; the queued waiter takes it
        assert waiter_done.wait(timeout=5)
        thread.join(timeout=5)

    def test_deadline_expires_in_queue(self):
        admission = AdmissionController(max_inflight=1, max_queue=4)
        admission.acquire(self.make_deadline(5.0))
        started = time.monotonic()
        with pytest.raises(QueueDeadlineExceeded):
            admission.acquire(self.make_deadline(0.05))
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # dropped at its own budget, not blocked
        assert admission.queued() == 0
        admission.release()


@pytest.mark.parametrize(
    "fields",
    [
        '"budget": NaN',
        '"budget": Infinity',
        '"budget": true',
        '"budget": "1"',
        '"budget": 0',
        '"degrade": "no"',
        '"degrade": 1',
        '"cache": "no"',
        '"cache": null',
    ],
)
def test_union_rejects_wrong_typed_fields(fields):
    """A budget must be a finite positive number (not a bool); degrade
    and cache must be JSON booleans -- never coerced."""
    mediator = build_serve_workload("paper")
    try:
        server = MediatorServer(mediator)
        line = '{"op": "union", "view": "journals", %s}' % fields
        response, shutdown = server._handle_line(line.encode())
    finally:
        mediator.close()
    assert not shutdown
    assert response["ok"] is False
    assert response["error"]["code"] == "SRV001"
    assert server.latency.count == 0


class TestAdmissionOverSockets:
    def test_queue_full_surfaces_srv003(self):
        # One slow source (50ms latency), inflight=1, queue=0: a second
        # concurrent union must be dropped with the overload code.
        mediator = build_serve_workload(
            "flaky",
            n_sources=1,
            latency=0.2,
            fanout=None,
        )
        policy = ServePolicy(
            max_inflight=1, max_queue=0, per_source_concurrency=0
        )
        with MediatorServer(mediator, policy) as server:
            host, port = server.address
            first_sent = threading.Event()
            codes = []

            def slow_request():
                with ServeClient(host, port) as client:
                    first_sent.set()
                    client.union(VIEW, budget=5.0)

            thread = threading.Thread(target=slow_request)
            thread.start()
            first_sent.wait(timeout=5)
            # Wait until the slow request actually holds the slot.
            deadline = time.monotonic() + 5
            while (
                server.admission.inflight() < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.union(VIEW, budget=5.0)
                assert excinfo.value.server_code == "SRV003"
            thread.join(timeout=10)
            assert server.stats.snapshot()["dropped_queue_full"] == 1

    def test_shedding_when_all_breakers_open(self):
        mediator = build_paper_federation(n_sources=2)
        for transport in mediator.transports.values():
            transport.breaker._state = BreakerState.OPEN
            transport.breaker._opened_at = mediator.clock.now()
        with MediatorServer(mediator, ServePolicy()) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.union(VIEW)
                assert excinfo.value.server_code == "SRV005"
                assert client.stats()["shed"] == 1

    def test_per_source_gate_is_installed(self):
        mediator = build_paper_federation(n_sources=2)
        with MediatorServer(
            mediator, ServePolicy(per_source_concurrency=3)
        ) as server:
            for transport in mediator.transports.values():
                assert transport.gate is not None
                # BoundedSemaphore of the configured width
                assert transport.gate._initial_value == 3

    def test_gate_disabled_when_zero(self):
        mediator = build_paper_federation(n_sources=2)
        with MediatorServer(
            mediator, ServePolicy(per_source_concurrency=0)
        ) as server:
            for transport in mediator.transports.values():
                assert transport.gate is None


class TestWarmCache:
    def cached_server(self, **kwargs):
        from repro.mediator import MatViewPolicy

        mediator = build_paper_federation(
            cache=MatViewPolicy(), **kwargs
        )
        return MediatorServer(mediator, ServePolicy())

    def test_repeat_requests_hit_the_shared_cache(self):
        with self.cached_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                first = client.union(VIEW)
                assert first["cache"] == "miss"
                second = client.union(VIEW)
                assert second["cache"] == "hit"
                assert second["answer"] == first["answer"]
                stats = client.stats()
                assert stats["matview"]["hits"] == 1
                assert stats["matview"]["misses"] == 1
                assert stats["cache_bypassed"] == 0

    def test_cache_false_bypasses_and_is_counted(self):
        with self.cached_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                client.union(VIEW)
                response = client.union(VIEW, cache=False)
                assert response["cache"] == "bypass"
                assert response["cache_code"] == "SRV008"
                stats = client.stats()
                assert stats["cache_bypassed"] == 1
                assert stats["matview"]["bypasses"] == 1
                # the stored entry survived the bypass
                assert client.union(VIEW)["cache"] == "hit"

    def test_uncached_server_reports_off(self):
        with paper_server() as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                response = client.union(VIEW)
                assert response["cache"] == "off"
                assert "matview" not in client.stats()


class TestBenchDriver:
    def test_run_bench_counts_everything(self):
        from repro.serve import run_bench

        with paper_server(
            ServePolicy(max_inflight=8), fanout=FanoutPolicy()
        ) as server:
            host, port = server.address
            result = run_bench(
                host, port, VIEW, requests=25, concurrency=5
            )
        assert result["answered"] == 25
        assert result["failures"] == 0
        assert result["rejected"] == {}
        assert result["qps"] > 0
        assert result["latency"]["p50"] <= result["latency"]["max"]


class TestRobustServing:
    def test_deep_chain_answer_is_served(self):
        # Nested far past the interpreter's recursion limit: the
        # answer must evaluate, validate, serialize and travel.
        from repro.dtd import dtd
        from repro.mediator import MatViewPolicy, Mediator, Source
        from repro.xmas import parse_query
        from repro.xmlmodel import parse_document
        from tests.xmlmodel.test_serializer import section_chain

        document = section_chain(1200)
        schema = dtd(
            {"doc": "section", "section": "title, section?", "title": "#PCDATA"},
            root="doc",
        )
        mediator = Mediator("deep", cache=MatViewPolicy())
        mediator.add_source(Source("deep", schema, [document]))
        mediator.register_union_view(
            [
                parse_query(
                    "chain = SELECT S WHERE <doc> S:<section/> </doc>",
                    source="deep",
                )
            ],
            "chain",
        )
        with MediatorServer(mediator) as server:
            with ServeClient(*server.address) as client:
                miss = client.union("chain")
                hit = client.union("chain")
        assert miss["ok"] and miss["cache"] == "miss"
        assert hit["ok"] and hit["cache"] == "hit"
        assert hit["answer"] == miss["answer"]
        (section,) = parse_document(miss["answer"]).root.children
        assert section.structurally_equal(document.root.children[0])

    def test_non_library_exception_gets_a_coded_reply(self, monkeypatch):
        import json
        import socket as socket_module

        with paper_server() as server:
            real = server.mediator.materialize_union
            failed = []

            def broken_once(*args, **kwargs):
                if not failed:
                    failed.append(True)
                    raise RuntimeError("boom")
                return real(*args, **kwargs)

            monkeypatch.setattr(
                server.mediator, "materialize_union", broken_once
            )
            raw = socket_module.create_connection(server.address, timeout=5)
            try:
                reader = raw.makefile("rb")
                raw.sendall(b'{"op": "union", "view": "journals", "id": 1}\n')
                error = json.loads(reader.readline())
                assert error["ok"] is False
                assert error["id"] == 1
                assert error["error"]["code"] == "REPRO001"
                assert "RuntimeError: boom" in error["error"]["message"]
                # The same connection keeps serving.
                raw.sendall(b'{"op": "stats", "id": 2}\n')
                stats = json.loads(reader.readline())
                assert stats["ok"] is True
                assert stats["stats"]["errors"] == 1
                assert stats["stats"]["inflight"] == 0
                raw.sendall(b'{"op": "union", "view": "journals", "id": 3}\n')
                answer = json.loads(reader.readline())
                assert answer["ok"] is True
            finally:
                raw.close()

    def test_server_latency_covers_serialization(self, monkeypatch):
        from repro.serve import server as server_module

        real = server_module.serialize_document

        def slow(document):
            time.sleep(0.05)
            return real(document)

        monkeypatch.setattr(server_module, "serialize_document", slow)
        with paper_server() as server:
            with ServeClient(*server.address) as client:
                response = client.union(VIEW)
                stats = client.stats()
        assert response["elapsed"] >= 0.05
        assert stats["latency"]["max"] >= 0.05


class TestServingLoop:
    """One loop thread reads every connection and answers cache hits
    itself; everything else goes to the connection's handler thread."""

    def cached_server(self):
        from repro.mediator import MatViewPolicy

        mediator = build_paper_federation(cache=MatViewPolicy())
        return MediatorServer(mediator, ServePolicy())

    @staticmethod
    def record_threads(server, monkeypatch):
        """(op, thread name) of every request line the server answers."""
        import json

        seen = []
        real = server._handle_line

        def recording(line):
            op = json.loads(line).get("op")
            seen.append((op, threading.current_thread().name))
            return real(line)

        monkeypatch.setattr(server, "_handle_line", recording)
        return seen

    def test_hits_are_answered_on_the_loop(self, monkeypatch):
        with self.cached_server() as server:
            seen = self.record_threads(server, monkeypatch)
            with ServeClient(*server.address) as client:
                miss = client.union(VIEW)
                hits = [client.union(VIEW) for _ in range(3)]
                client.ping()
        assert miss["cache"] == "miss"
        assert all(hit["cache"] == "hit" for hit in hits)
        assert all(hit["answer"] == miss["answer"] for hit in hits)
        assert seen == [
            ("union", "repro-serve-conn"),
            ("union", "repro-serve-loop"),
            ("union", "repro-serve-loop"),
            ("union", "repro-serve-loop"),
            ("ping", "repro-serve-conn"),
        ]

    def test_uncached_server_answers_on_handler_threads(self, monkeypatch):
        with paper_server() as server:
            seen = self.record_threads(server, monkeypatch)
            with ServeClient(*server.address) as client:
                client.union(VIEW)
                client.union(VIEW)
        assert {name for _, name in seen} == {"repro-serve-conn"}

    def test_pipelined_requests_keep_their_order(self, monkeypatch):
        import json
        import socket as socket_module

        lines = [
            {"op": "ping", "id": 1},  # slow, on the handler thread
            {"op": "union", "view": VIEW, "id": 2},  # a hit, queued
            {"op": "union", "view": VIEW, "cache": False, "id": 3},
            {"op": "nope", "id": 4},
            {"op": "union", "view": VIEW, "id": 5},
        ]
        payload = b"".join(json.dumps(m).encode() + b"\n" for m in lines)
        with self.cached_server() as server:
            real = server._dispatch

            def slow_ping(request):
                if request["op"] == "ping":
                    time.sleep(0.2)
                return real(request)

            monkeypatch.setattr(server, "_dispatch", slow_ping)
            raw = socket_module.create_connection(server.address, timeout=5)
            try:
                reader = raw.makefile("rb")
                raw.sendall(b'{"op": "union", "view": "journals"}\n')
                warm = json.loads(reader.readline())
                raw.sendall(payload)
                replies = [json.loads(reader.readline()) for _ in lines]
            finally:
                raw.close()
        assert warm["cache"] == "miss"
        assert [reply["id"] for reply in replies] == [1, 2, 3, 4, 5]
        assert [replies[i].get("cache") for i in (1, 2, 4)] == [
            "hit", "bypass", "hit"
        ]
        assert replies[3]["ok"] is False
        assert replies[4]["answer"] == warm["answer"]

    def test_a_hit_never_overtakes_a_reply_being_written(self):
        import json
        import socket as socket_module
        from repro.mediator import MatViewPolicy

        class SlowWrites:
            """A connection whose handler-thread writes take 0.3 s."""

            def __init__(self, connection):
                self._connection = connection

            def __getattr__(self, name):
                return getattr(self._connection, name)

            def sendall(self, data):
                if threading.current_thread().name == "repro-serve-conn":
                    time.sleep(0.3)
                self._connection.sendall(data)

        class SlowServer(MediatorServer):
            def _handle_connection(self, connection):
                super()._handle_connection(SlowWrites(connection))

        mediator = build_paper_federation(cache=MatViewPolicy())
        with SlowServer(mediator, ServePolicy()) as server:
            raw = socket_module.create_connection(server.address, timeout=5)
            try:
                reader = raw.makefile("rb")
                raw.sendall(b'{"op": "union", "view": "journals"}\n')
                assert json.loads(reader.readline())["cache"] == "miss"
                raw.sendall(b'{"op": "ping", "id": 1}\n')
                time.sleep(0.1)  # the handler is now writing the pong
                raw.sendall(b'{"op": "union", "view": "journals", "id": 2}\n')
                replies = [json.loads(reader.readline()) for _ in range(2)]
            finally:
                raw.close()
        assert [reply["id"] for reply in replies] == [1, 2]
        assert replies[1]["cache"] == "hit"

    def test_pipelined_connections_under_stress(self):
        # More connections than cores, each pipelining a mix of loop
        # and handler requests, with frequent thread switches: every
        # reply must come back, in its connection's request order.
        import json
        import random
        import socket as socket_module
        import sys

        kinds = [
            {"op": "union", "view": VIEW},
            {"op": "union", "view": VIEW, "cache": False},
            {"op": "ping"},
        ]
        errors = []

        def client(address, seed):
            rng = random.Random(seed)
            lines = [dict(rng.choice(kinds), id=i) for i in range(40)]
            raw = socket_module.create_connection(address, timeout=10)
            try:
                reader = raw.makefile("rb")
                for start in range(0, len(lines), 8):
                    raw.sendall(b"".join(
                        json.dumps(m).encode() + b"\n"
                        for m in lines[start:start + 8]
                    ))
                replies = [json.loads(reader.readline()) for _ in lines]
            except Exception as error:  # reported by the main thread
                errors.append(repr(error))
                return
            finally:
                raw.close()
            if [reply.get("id") for reply in replies] != list(range(40)):
                errors.append(f"client {seed}: replies out of order")
            elif not all(reply["ok"] for reply in replies):
                errors.append(f"client {seed}: a request failed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self.cached_server() as server:
                with ServeClient(*server.address) as warm:
                    warm.union(VIEW)
                workers = [
                    threading.Thread(target=client, args=(server.address, n))
                    for n in range(6)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                assert not any(worker.is_alive() for worker in workers)
                stats = server.stats.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert stats["served"] == 1 + 6 * 40
        assert stats["errors"] == 0

    def test_unread_replies_wait_on_the_handler(self, monkeypatch):
        # When earlier replies still sit unread in the socket, the loop
        # does not write the next one itself (it could block there);
        # the connection's handler thread writes it.
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_unsent_bytes", lambda c: 1)
        with self.cached_server() as server:
            with ServeClient(*server.address) as client:
                miss = client.union(VIEW)
                hits = [client.union(VIEW) for _ in range(3)]
                assert client.stats()["matview"]["hits"] == 3
        assert all(hit["answer"] == miss["answer"] for hit in hits)

    def test_final_line_without_newline_is_answered(self):
        import json
        import socket as socket_module

        with paper_server() as server:
            raw = socket_module.create_connection(server.address, timeout=5)
            try:
                raw.sendall(b'{"op": "ping", "id": 9}')
                raw.shutdown(socket_module.SHUT_WR)
                reply = json.loads(raw.makefile("rb").readline())
            finally:
                raw.close()
        assert reply == {"ok": True, "pong": True, "id": 9}

    def test_stop_does_not_wait_for_idle_connections(self):
        import socket as socket_module

        server = paper_server().start()
        idle = socket_module.create_connection(server.address, timeout=5)
        try:
            with ServeClient(*server.address) as client:
                client.ping()
                started = time.perf_counter()
                server.stop()
                assert time.perf_counter() - started < 2.0
            # The server closed the idle connection.
            assert idle.recv(1) == b""
        finally:
            idle.close()
