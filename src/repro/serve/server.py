"""The concurrent mediator front end behind ``repro serve``.

A :class:`MediatorServer` keeps one warm :class:`~repro.mediator.Mediator`
— view plans compiled, document indexes built, fan-out pool up — behind
a TCP socket speaking the JSON-line protocol of
:mod:`repro.serve.protocol`.  One serving-loop thread reads every
connection; it answers a union the cache already holds itself and hands
every other request, in order, to the connection's own handler thread.

What stands between the socket and the mediator is *admission control*
(:class:`AdmissionController`): the request path is bounded at every
point where an unbounded queue could hide, so overload degrades into
fast, explicit rejections instead of collapse:

* **bounded inflight** -- at most ``max_inflight`` requests evaluate at
  once; arrivals beyond that wait for a slot;
* **bounded queue, deadline-aware drop** -- at most ``max_queue``
  requests wait, each at most until its own budget expires (a request
  that would time out anyway is dropped *in the queue*, spending none
  of the mediator's capacity on a dead answer);
* **load shedding** -- when every source's circuit breaker is open the
  mediator cannot produce even a degraded answer, so union requests are
  rejected immediately (``SRV005``) without queuing;
* **per-source concurrency** -- each source transport is gated by a
  semaphore of ``per_source_concurrency`` slots, bounding the pressure
  any number of concurrent fan-outs can put on one wrapper.

See ``docs/SERVING.md`` for the protocol, tuning guidance, and the
relationship to the paper's mediator architecture.
"""

from __future__ import annotations

import json
import logging
import math
import queue
import selectors
import socket
import struct
import threading
from dataclasses import dataclass, field

from .. import obs
from ..dtd import serialize_dtd
from ..errors import ReproError
from ..mediator import BreakerState, Deadline, Mediator
from ..xmlmodel import serialize_document
from . import protocol
from .protocol import (
    LoadShedding,
    QueueDeadlineExceeded,
    ServerOverloaded,
    UnknownOperation,
)

try:
    import fcntl
    import termios

    _TIOCOUTQ: int | None = termios.TIOCOUTQ
except (ImportError, AttributeError):  # not a Linux-like platform
    _TIOCOUTQ = None

_log = logging.getLogger(__name__)

#: bytes the serving loop asks for per ``recv``
_RECV_BYTES = 1 << 16


@dataclass(frozen=True)
class ServePolicy:
    """Admission-control and serving knobs for a :class:`MediatorServer`."""

    #: requests evaluating concurrently before arrivals queue
    max_inflight: int = 8
    #: requests allowed to wait for a slot before hard rejection
    max_queue: int = 16
    #: deadline budget (seconds) for requests that name none
    default_budget: float = 2.0
    #: per-source transport concurrency gate (0 disables the gate)
    per_source_concurrency: int = 4
    #: shed union requests when every source breaker is open
    shed_when_all_open: bool = True


@dataclass
class ServerStats:
    """Counters the ``stats`` operation reports (lock-guarded)."""

    connections: int = 0
    requests: int = 0
    served: int = 0
    errors: int = 0
    dropped_queue_full: int = 0
    dropped_queue_deadline: int = 0
    shed: int = 0
    #: union requests that opted out of the matview cache (SRV008)
    cache_bypassed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, attribute: str) -> None:
        with self._lock:
            setattr(self, attribute, getattr(self, attribute) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "served": self.served,
                "errors": self.errors,
                "dropped_queue_full": self.dropped_queue_full,
                "dropped_queue_deadline": self.dropped_queue_deadline,
                "shed": self.shed,
                "cache_bypassed": self.cache_bypassed,
            }


class AdmissionController:
    """Bounded inflight + bounded, deadline-aware wait queue.

    ``acquire`` admits the caller when an inflight slot is free,
    raising :class:`ServerOverloaded` when the wait queue is already
    full and :class:`QueueDeadlineExceeded` when the caller's own
    budget dies first.  Every admission must be paired with
    ``release`` (use the context manager ``admitted``).
    """

    def __init__(self, max_inflight: int, max_queue: int) -> None:
        self.max_inflight = max(1, max_inflight)
        self.max_queue = max(0, max_queue)
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0

    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def queued(self) -> int:
        with self._cond:
            return self._queued

    def acquire(self, deadline: Deadline) -> None:
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._queued >= self.max_queue:
                raise ServerOverloaded(
                    f"admission queue full "
                    f"({self._queued} waiting, "
                    f"{self._inflight} inflight)"
                )
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise QueueDeadlineExceeded(
                            "request budget expired waiting for an "
                            "inflight slot"
                        )
                    self._cond.wait(remaining)
                self._inflight += 1
            finally:
                self._queued -= 1

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify()


def _seconds(value: object) -> float:
    """A request's budget field as seconds; NaN when not a JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        return math.inf


def _unsent_bytes(connection: socket.socket) -> int | None:
    """Bytes written to ``connection`` that the peer has not taken yet
    (None where the platform cannot say)."""
    if _TIOCOUTQ is None:
        return None
    try:
        raw = fcntl.ioctl(connection.fileno(), _TIOCOUTQ, b"\0\0\0\0")
    except OSError:
        return None
    return struct.unpack("i", raw)[0]


class _Link:
    """One client connection as the serving loop sees it.

    The loop reads the socket and cuts request lines; whatever it does
    not answer itself goes, in order, to the connection's handler
    thread through ``inbox`` (``None`` ends the stream).
    """

    def __init__(self, connection: socket.socket) -> None:
        self.connection = connection
        self.buffer = bytearray()
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        #: inbox items the handler thread has not yet begun to write;
        #: the loop answers a line itself only while this is 0, so
        #: replies keep their requests' order
        self.pending = 0
        self._lock = threading.Lock()
        #: held by whoever writes a reply; the handler takes it before
        #: it counts its item done, so a reply the loop writes can
        #: never overtake one still being written
        self.sending = threading.Lock()
        #: set once the loop no longer watches the socket
        self.released = threading.Event()
        try:
            send_buffer = connection.getsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF
            )
        except OSError:
            send_buffer = 0
        #: the largest reply the loop writes itself: into an empty send
        #: buffer it cannot block, even when the peer stops reading
        self.send_room = send_buffer // 2

    def take_line(self) -> bytes | None:
        """The next request line, cut as ``readline(MAX_LINE_BYTES + 1)``
        would cut it; None until one is complete."""
        limit = protocol.MAX_LINE_BYTES + 1
        end = self.buffer.find(b"\n", 0, limit)
        if end >= 0:
            size = end + 1
        elif len(self.buffer) >= limit:
            size = limit
        else:
            return None
        line = bytes(self.buffer[:size])
        del self.buffer[:size]
        return line

    def hand(self, item: tuple[str, bytes]) -> None:
        """Queue a ``("line", request)`` or ``("reply", payload)``."""
        with self._lock:
            self.pending += 1
        self.inbox.put(item)

    def done(self) -> None:
        with self._lock:
            self.pending -= 1


class MediatorServer:
    """One warm mediator behind a JSON-line TCP socket.

    ``start()`` binds (``port=0`` picks a free port — ``address``
    reports the real one), warms the mediator's plans and indexes,
    installs the per-source concurrency gates, and spawns the accept
    loop and the serving loop; ``stop()`` (or a client ``shutdown``
    request) closes the listening socket and joins the threads.
    Usable as a context manager.

    Each connection gets a handler thread, but one serving-loop thread
    reads them all.  A union request the cache can answer right now
    (:meth:`Mediator.union_cached`) is answered on the loop itself;
    every other request goes to its connection's handler thread, which
    may wait (admission, fan-out, a slow source) without holding up
    other connections.  Only one thread runs Python at a time, so
    answering hits on one thread costs no concurrency; it saves the
    interpreter-lock hand-off between handler threads that would
    otherwise cost more than the hit itself.
    """

    def __init__(
        self,
        mediator: Mediator,
        policy: ServePolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.mediator = mediator
        self.policy = policy or ServePolicy()
        self.host = host
        self.port = port
        self.stats = ServerStats()
        self.admission = AdmissionController(
            self.policy.max_inflight, self.policy.max_queue
        )
        #: union latencies (seconds) as measured server-side, from
        #: admission through serialization of the answer text
        self.latency = obs.Histogram()
        self._socket: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._loop_thread: threading.Thread | None = None
        self._selector: selectors.BaseSelector | None = None
        #: messages to the serving loop: ("attach" | "release", link)
        #: or ("stop", None); each write to ``_waker`` wakes it
        self._posts: queue.SimpleQueue = queue.SimpleQueue()
        self._posts_lock = threading.Lock()
        self._loop_done = False
        self._waker: socket.socket | None = None
        self._handlers: list[threading.Thread] = []
        self._handlers_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after ``start()``."""
        if self._socket is None:
            raise RuntimeError("server not started")
        return self._socket.getsockname()[:2]

    def start(self) -> "MediatorServer":
        if self._socket is not None:
            raise RuntimeError("server already started")
        warmed = self.mediator.warm()
        if self.policy.per_source_concurrency > 0:
            for transport in self.mediator.transports.values():
                transport.gate = threading.BoundedSemaphore(
                    self.policy.per_source_concurrency
                )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._socket = listener
        self._selector = selectors.DefaultSelector()
        wake_reader, self._waker = socket.socketpair()
        wake_reader.setblocking(False)
        self._waker.setblocking(False)
        self._selector.register(wake_reader, selectors.EVENT_READ, None)
        self._loop_thread = threading.Thread(
            target=self._serve_loop,
            args=(wake_reader,),
            name="repro-serve-loop",
            daemon=True,
        )
        self._loop_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="repro-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        with obs.span("serve.start") as sp:
            sp.set_attribute("indexed_documents", warmed)
            sp.set_attribute("port", self.address[1])
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, join handlers (idempotent)."""
        if self._stopping.is_set() or self._socket is None:
            return
        self._stopping.set()
        try:
            # Unblock accept() portably: connect-then-close to ourselves.
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        self._socket.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._post(("stop", None))
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)
        self.mediator.close()
        self._stopped.set()

    def serve_forever(self) -> None:
        """Block until ``stop()`` (or a client ``shutdown``) completes."""
        self._stopped.wait()

    def __enter__(self) -> "MediatorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling ---------------------------------------------

    def _accept_loop(self) -> None:
        assert self._socket is not None
        while not self._stopping.is_set():
            try:
                connection, _ = self._socket.accept()
            except OSError:
                break
            if self._stopping.is_set():
                connection.close()
                break
            self.stats.bump("connections")
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._handlers_lock:
                self._handlers = [
                    t for t in self._handlers if t.is_alive()
                ]
                self._handlers.append(handler)
            handler.start()

    def _handle_connection(self, connection: socket.socket) -> None:
        """Serve one connection: answer, in order, the requests the
        serving loop hands over, until the stream ends."""
        link = _Link(connection)
        try:
            if not self._post(("attach", link)):
                return
            while True:
                item = link.inbox.get()
                if item is None:
                    break
                kind, data = item
                shutdown = False
                if kind == "line":
                    response, shutdown = self._handle_line(data)
                    data = protocol.encode(response)
                try:
                    with link.sending:
                        link.done()
                        connection.sendall(data)
                except OSError:
                    break
                if shutdown:
                    # Respond first, then stop from a thread that is
                    # not among the handlers stop() joins.
                    threading.Thread(
                        target=self.stop, daemon=True
                    ).start()
                    break
        finally:
            if self._post(("release", link)):
                link.released.wait()
            try:
                connection.close()
            except OSError:
                pass

    # -- the serving loop ------------------------------------------------

    def _post(self, message: tuple) -> bool:
        """Send the serving loop a message; False once it has stopped."""
        with self._posts_lock:
            if self._loop_done or self._waker is None:
                return False
            self._posts.put(message)
            try:
                self._waker.send(b"\0")
            except BlockingIOError:
                pass  # a wake-up is already pending
            return True

    def _serve_loop(self, wake_reader: socket.socket) -> None:
        selector = self._selector
        assert selector is not None
        links: set[_Link] = set()
        running = True
        while running:
            for key, _ in selector.select():
                link = key.data
                if link is None:
                    running = self._take_posts(wake_reader, links)
                    if not running:
                        break
                    continue
                try:
                    self._read(link, links)
                except Exception:
                    # Never let one connection take the loop down.
                    _log.exception("serving loop failed on a connection")
                    self._end_stream(link, links)
        selector.close()
        wake_reader.close()

    def _take_posts(
        self, wake_reader: socket.socket, links: set[_Link]
    ) -> bool:
        """Apply the loop's messages; False when it must stop."""
        try:
            wake_reader.recv(4096)
        except BlockingIOError:
            pass
        selector = self._selector
        assert selector is not None
        while True:
            try:
                kind, link = self._posts.get_nowait()
            except queue.Empty:
                return True
            if kind == "attach":
                try:
                    selector.register(
                        link.connection, selectors.EVENT_READ, link
                    )
                except (OSError, ValueError):  # closed under us
                    self._end_stream(link, links)
                    continue
                links.add(link)
            elif kind == "release":
                self._unwatch(link, links)
            else:
                with self._posts_lock:
                    self._loop_done = True
                # Messages posted before the stop still need an answer.
                while True:
                    try:
                        _, pending = self._posts.get_nowait()
                    except queue.Empty:
                        break
                    if pending is not None and pending not in links:
                        pending.inbox.put(None)
                        pending.released.set()
                for open_link in list(links):
                    self._end_stream(open_link, links)
                assert self._waker is not None
                self._waker.close()
                return False

    def _unwatch(self, link: _Link, links: set[_Link]) -> None:
        if link in links:
            links.discard(link)
            assert self._selector is not None
            self._selector.unregister(link.connection)
        link.released.set()

    def _end_stream(self, link: _Link, links: set[_Link]) -> None:
        self._unwatch(link, links)
        link.inbox.put(None)

    def _read(self, link: _Link, links: set[_Link]) -> None:
        try:
            chunk = link.connection.recv(_RECV_BYTES)
        except OSError:
            chunk = b""
        if not chunk:
            # A final line without its newline is still a request.
            if link.buffer.strip():
                link.hand(("line", bytes(link.buffer).strip()))
            self._end_stream(link, links)
            return
        link.buffer += chunk
        while True:
            line = link.take_line()
            if line is None:
                return
            line = line.strip()
            if not line:
                continue
            if link.pending or not self._answerable_now(line):
                link.hand(("line", line))
                continue
            response, _ = self._handle_line(line)
            payload = protocol.encode(response)
            if len(payload) <= link.send_room and link.sending.acquire(
                blocking=False
            ):
                try:
                    if _unsent_bytes(link.connection) == 0:
                        link.connection.sendall(payload)
                        continue
                except OSError:
                    self._end_stream(link, links)
                    return
                finally:
                    link.sending.release()
            # The handler is still writing, or writing here might block
            # the loop on a peer that does not read: the handler thread
            # writes this reply (and may wait) instead.
            link.hand(("reply", payload))

    def _answerable_now(self, line: bytes) -> bool:
        """True when ``line`` asks for a union the cache holds right now
        and an inflight slot is free, so answering it cannot wait."""
        try:
            request = json.loads(line)
        except (ValueError, RecursionError):
            return False
        if not isinstance(request, dict) or request.get("op") != "union":
            return False
        view = request.get("view")
        return (
            isinstance(view, str)
            and request.get("cache", True) is True
            and self.admission.inflight() < self.admission.max_inflight
            and self.mediator.union_cached(view)
        )

    def _handle_line(self, line: bytes) -> tuple[dict, bool]:
        """One request line to one response dict (+ shutdown flag)."""
        self.stats.bump("requests")
        request_id = None
        try:
            request = protocol.decode(line)
            request_id = request.get("id")
            response, shutdown = self._dispatch(request)
            if request_id is not None:
                response["id"] = request_id
            self.stats.bump("served")
            return response, shutdown
        except ReproError as error:
            self.stats.bump("errors")
            return protocol.error_response(error, request_id), False
        except Exception as error:
            # A bug below the protocol must not kill the handler
            # thread (the client would see EOF, and no counter would
            # move): log it, answer with the generic library code.
            _log.exception("unhandled error serving a request")
            self.stats.bump("errors")
            failure = ReproError(f"{type(error).__name__}: {error}")
            return protocol.error_response(failure, request_id), False

    def _dispatch(self, request: dict) -> tuple[dict, bool]:
        op = request["op"]
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "views":
            return {"ok": True, "views": self._views()}, False
        if op == "union":
            return self._op_union(request), False
        if op == "health":
            return {"ok": True, "health": self.mediator.health()}, False
        if op == "stats":
            return {"ok": True, "stats": self._stats()}, False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        raise UnknownOperation(f"unknown operation {op!r}")

    # -- operations ------------------------------------------------------

    def _views(self) -> dict:
        return {
            name: {
                "sources": list(registration.source_names),
                "dtd": serialize_dtd(registration.dtd),
            }
            for name, registration in sorted(
                self.mediator.union_views.items()
            )
        }

    def _breakers_all_open(self) -> bool:
        transports = self.mediator.transports.values()
        if not transports:
            return False
        return all(
            transport.breaker.state is BreakerState.OPEN
            for transport in transports
        )

    def _op_union(self, request: dict) -> dict:
        """Materialize a union view and return its answer text.

        The server-side latency (the ``latency`` histogram and the
        response's ``elapsed``) runs from admission through having the
        answer text in hand, serialization included; only the protocol
        encode and the socket write fall outside it.
        """
        view = request.get("view")
        if not isinstance(view, str):
            raise protocol.ProtocolError(
                "union request needs a string 'view' field"
            )
        budget = _seconds(request.get("budget", self.policy.default_budget))
        if not 0 < budget < math.inf:
            raise protocol.ProtocolError(
                "'budget' must be a finite positive number of seconds"
            )
        degrade = request.get("degrade", True)
        use_cache = request.get("cache", True)
        for name, value in (("degrade", degrade), ("cache", use_cache)):
            if not isinstance(value, bool):
                raise protocol.ProtocolError(f"{name!r} must be a boolean")
        if not use_cache:
            self.stats.bump("cache_bypassed")
        if self.policy.shed_when_all_open and self._breakers_all_open():
            self.stats.bump("shed")
            raise LoadShedding(
                "all source circuit breakers are open; "
                "not queueing a request that cannot be answered"
            )
        deadline = self.mediator.deadline(budget)
        started = self.mediator.clock.now()
        try:
            self.admission.acquire(deadline)
        except ServerOverloaded:
            self.stats.bump("dropped_queue_full")
            raise
        except QueueDeadlineExceeded:
            self.stats.bump("dropped_queue_deadline")
            raise
        try:
            answer = self.mediator.materialize_union(
                view, deadline, degrade=degrade, cache=use_cache
            )
        finally:
            self.admission.release()
        # A cache hit (or a delta over a rendered entry) carries its
        # text already; anything else is serialized here.
        text = answer.text
        if text is None:
            text = serialize_document(answer)
        elapsed = self.mediator.clock.now() - started
        self.latency.observe(elapsed)
        response = {
            "ok": True,
            "answer": text,
            "degraded": answer.degraded,
            "elapsed": round(elapsed, 6),
            "cache": answer.cache,
        }
        if answer.cache == "bypass":
            response["cache_code"] = protocol.CACHE_BYPASS
        if answer.degraded:
            report = answer.report
            response["skipped"] = dict(sorted(report.skipped.items()))
            response["answered"] = list(report.answered)
        return response

    def _stats(self) -> dict:
        snapshot = self.stats.snapshot()
        snapshot["inflight"] = self.admission.inflight()
        snapshot["queued"] = self.admission.queued()
        snapshot["latency"] = {
            "count": self.latency.count,
            "p50": self.latency.quantile(0.5),
            "p95": self.latency.quantile(0.95),
            "max": self.latency.max,
        }
        if self.mediator.matview is not None:
            snapshot["matview"] = self.mediator.matview.info()
        return snapshot
