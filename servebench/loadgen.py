"""The closed-loop client: N connections, one request outstanding each.

A connection sends its next request only when the reply to the
previous one has arrived, the way callers that wait for their answer
load a server.  One thread drives every connection through a selector,
so the client's own scheduling adds no thread hand-offs to the
latencies it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import socket
import time

#: a reply slower than this is a stall; the run fails rather than hang
STALL_SECONDS = 30.0


class ServerStalled(RuntimeError):
    pass


def digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def encode(message: dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


class Connection:
    """One client socket and its seeded request stream."""

    def __init__(self, address: tuple[str, int], ops, conn: int = 0) -> None:
        self.sock = socket.create_connection(address, timeout=STALL_SECONDS)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.conn = conn
        self.ops = ops
        self.buffer = bytearray()
        self.scanned = 0
        self.op = None
        #: position of ``op`` in the stream (-1: none sent yet)
        self.index = -1
        self.sent_at = 0.0

    def request(self, message: dict) -> dict:
        """One blocking request/reply (control operations)."""
        self.sock.sendall(encode(message))
        while True:
            line = self._take_line()
            if line is not None:
                return json.loads(line)
            chunk = self.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def _take_line(self) -> bytes | None:
        newline = self.buffer.find(b"\n", self.scanned)
        if newline < 0:
            self.scanned = len(self.buffer)
            return None
        line = bytes(self.buffer[:newline])
        del self.buffer[: newline + 1]
        self.scanned = 0
        return line

    def send_next(self) -> None:
        self.op = kind, what, text = next(self.ops)
        self.index += 1
        if kind == "read":
            message = {"op": "union", "view": what}
        else:
            message = {"op": "mutate", "target": what, "text": text}
        self.sent_at = time.perf_counter()
        self.sock.sendall(encode(message))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Tally:
    """What one run observed.  Reads keep only digests (plus the first
    answer text per digest) and their place in their connection's op
    stream, so checking costs nothing while timed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (view, digest) -> [count, first answer text]
        self.answers: dict[tuple[str, bytes], list] = {}
        #: (connection, op index, (view, digest)) of every answered read
        self.reads: list[tuple[int, int, tuple[str, bytes]]] = []
        #: write target -> last acknowledged text
        self.writes: dict[int, str] = {}
        self.answer_bytes = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(message)

    def record(self, connection: Connection, reply: dict) -> bool:
        """Count the reply to ``connection.op``; True when it was an
        answered read."""
        self.attempted += 1
        kind, what, text = connection.op
        if not reply.get("ok"):
            self.fail(f"{kind} {what}: {reply.get('error')}")
            return False
        if kind == "write":
            self.writes[what] = text
            return False
        if reply.get("degraded"):
            self.fail(f"read {what}: degraded answer")
            return False
        answer = reply["answer"]
        self.answer_bytes += len(answer)
        key = (what, digest(answer))
        self.reads.append((connection.conn, connection.index, key))
        seen = self.answers.get(key)
        if seen is None:
            self.answers[key] = [1, answer]
        else:
            seen[0] += 1
        return True


def cpu_ticks(pid: int) -> int:
    """utime + stime of a process, in clock ticks."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def machine_ticks() -> tuple[int, int]:
    """``(steal, total)`` clock ticks of the machine's CPUs so far.

    Steal is time the hypervisor gave this machine's CPUs to others:
    while it rises, the measured server runs on fewer CPUs than it has.
    """
    with open("/proc/stat", "rb") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


TICK_SECONDS = 1.0 / os.sysconf("SC_CLK_TCK")


def _mark(pid: int) -> tuple[float, int, int, int]:
    steal, total = machine_ticks()
    return time.perf_counter(), cpu_ticks(pid), steal, total


def closed_loop(connections, seconds: float, tally: Tally, pid: int,
                windows: int = 1) -> list[dict]:
    """Drive every connection for ``seconds``, split into ``windows``
    equal windows.  Returns one dict per window: its ``seconds``, the
    latencies (s) of the reads answered in it, the server's CPU
    seconds and the machine's steal share.  Replies still in flight at
    the end are awaited and belong to the last window."""
    selector = selectors.DefaultSelector()
    marks = [_mark(pid)]
    start = marks[0][0]
    stop_at = start + seconds
    width = seconds / windows
    boundary = start + width
    latencies: list[list[float]] = [[]]
    active = 0
    try:
        for connection in connections:
            selector.register(connection.sock, selectors.EVENT_READ,
                              connection)
            connection.send_next()
            active += 1
        while active:
            events = selector.select(timeout=STALL_SECONDS)
            if not events:
                raise ServerStalled(
                    f"no reply within {STALL_SECONDS:.0f} s"
                )
            if len(marks) < windows and time.perf_counter() >= boundary:
                marks.append(_mark(pid))
                latencies.append([])
                boundary += width
            for key, _ in events:
                connection = key.data
                chunk = connection.sock.recv(1 << 18)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                connection.buffer += chunk
                line = connection._take_line()
                if line is None:
                    continue
                done = time.perf_counter()
                if tally.record(connection, json.loads(line)):
                    latencies[-1].append(done - connection.sent_at)
                if done < stop_at:
                    connection.send_next()
                else:
                    selector.unregister(connection.sock)
                    active -= 1
    finally:
        selector.close()
    marks.append(_mark(pid))
    return [
        {
            "seconds": after[0] - before[0],
            "latencies": window,
            "cpu_seconds": (after[1] - before[1]) * TICK_SECONDS,
            "steal": (after[2] - before[2]) / max(1, after[3] - before[3]),
        }
        for before, after, window in zip(marks, marks[1:], latencies)
    ]
