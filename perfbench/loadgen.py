"""Single-threaded load generator over raw non-blocking sockets.

Two phases drive the same connections:

* closed loop: each connection keeps a fixed window of requests
  outstanding and sends the next as soon as a reply is parsed (callers
  awaiting replies, pipelined);
* open loop: requests are due on an evenly spaced schedule at the
  offered rate and are pipelined in order whether or not earlier replies
  have arrived (independent users); latency is timed from each
  request's due time.

Each connection walks its own seeded request sequence: the open loop
continues where the closed loop stopped.

Every reply is checked against the :class:`~perfbench.oracle.Oracle`
in send order.  With cache-aside on, each missed GET key is followed by
a fill SET of the backing store's current version of that key.
"""

from __future__ import annotations

import contextlib
import gc
import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.oracle import Oracle
from perfbench.stats import INF, Tally
from perfbench.workload import DELETE, GET, SET, Request, Workload, encode_get

#: A reply still missing this long after its phase ended counts as lost,
#: and its connection with it.  Well above the 2 s disk stalls seen on a
#: shared VM, since every later slice would fail on a lost connection.
DRAIN_TIMEOUT_S = 20.0
#: Keys per GET line in the post-run residency sweep.
SWEEP_KEYS = 200

_clock = time.perf_counter


@dataclass
class Pending:
    __slots__ = ("kind", "keys", "version", "due")
    kind: str
    keys: Tuple[int, ...]
    version: int
    due: float


@dataclass
class PhaseResult:
    """Raw samples of one timed phase, or of several slices of the same
    kind of phase added together (seconds; INF = failed)."""

    #: Timed wall time.
    seconds: float = 0.0
    tally: Tally = field(default_factory=Tally)
    completions: List[float] = field(default_factory=list)
    get_latency: List[float] = field(default_factory=list)
    set_latency: List[float] = field(default_factory=list)
    all_latency: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    get_keys: int = 0
    get_hits: int = 0
    lost_get_keys: int = 0
    acked_value_bytes: int = 0
    cpu_seconds: float = 0.0
    #: Stream requests sent (cache-aside fills not counted).
    sent: int = 0

    def absorb(self, other: "PhaseResult") -> None:
        """Add another slice's samples and counts to this one."""
        self.tally.attempted += other.tally.attempted
        self.tally.failed += other.tally.failed
        for name in ("completions", "get_latency", "set_latency",
                     "all_latency", "lateness"):
            getattr(self, name).extend(getattr(other, name))
        for name in ("seconds", "get_keys", "get_hits", "lost_get_keys",
                     "acked_value_bytes", "cpu_seconds", "sent"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _Conn:
    def __init__(self, index: int, sock: socket.socket) -> None:
        self.index = index
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: "deque[Pending]" = deque()
        self.fills: "deque[int]" = deque()
        self.dead = False


def _take_reply(buf: bytearray, pos: int, kind: str):
    """(next_pos, hits, status_line) for one complete reply, else None.

    ``status_line`` is None for a clean GET reply (``END``) and the reply
    line otherwise (``STORED``, ``SERVER_ERROR ...``, ...).
    """
    if kind != GET:
        eol = buf.find(b"\r\n", pos)
        if eol < 0:
            return None
        return eol + 2, None, bytes(buf[pos:eol])
    hits = []
    while True:
        eol = buf.find(b"\r\n", pos)
        if eol < 0:
            return None
        if eol - pos == 3 and buf[pos:eol] == b"END":
            return eol + 2, hits, None
        line = bytes(buf[pos:eol])
        if not line.startswith(b"VALUE "):
            return eol + 2, hits, line
        parts = line.split(b" ")
        start = eol + 2
        end = start + int(parts[3])
        if len(buf) < end + 2:
            return None
        hits.append((parts[1], bytes(buf[start:end])))
        pos = end + 2


class LoadGen:
    """Drives one server on ``port`` with a :class:`Workload`."""

    def __init__(self, workload: Workload, port: int, host: str = "127.0.0.1") -> None:
        self.workload = workload
        self.oracle = Oracle(workload.book.value)
        # select(2) sleeps to the microsecond; epoll rounds a timeout up to
        # whole milliseconds, which would make the open loop send late.
        self.selector = selectors.SelectSelector()
        self.conns: List[_Conn] = []
        for index in range(workload.connections):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(index, sock)
            self.conns.append(conn)
            self.selector.register(sock, selectors.EVENT_READ, conn)
        #: Backing-store version per key as of the last request sent.
        self._db: Dict[int, int] = {}
        #: Next unsent request of each connection's stream.
        self._cursor = [0] * len(self.conns)
        self._phase: Optional[PhaseResult] = None
        self._closed_loop = False
        #: [hits, value bytes] while the residency sweep runs.
        self._swept: Optional[List[int]] = None

    def close(self) -> None:
        for conn in self.conns:
            try:
                self.selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self.selector.close()

    # -- plumbing ------------------------------------------------------------

    def _send(self, conn: _Conn, data: bytes) -> None:
        if conn.out:
            conn.out += data
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._kill(conn)
            return
        if sent < len(data):
            conn.out += data[sent:]
            self.selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:
            self._kill(conn)
            return
        del conn.out[:sent]
        if not conn.out:
            self.selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _kill(self, conn: _Conn) -> None:
        """Connection lost: everything in flight on it failed."""
        if conn.dead:
            return
        conn.dead = True
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        now = _clock()
        while conn.pending:
            self._fail(conn.pending.popleft(), now)

    def _pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` for I/O; process every complete reply."""
        for key, mask in self.selector.select(max(timeout, 0.0)):
            conn: _Conn = key.data
            if mask & selectors.EVENT_WRITE and conn.out:
                self._flush(conn)
            if mask & selectors.EVENT_READ:
                try:
                    data = conn.sock.recv(262144)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                if not data:
                    self._kill(conn)
                    continue
                conn.inbuf += data
                self._consume(conn)

    def _consume(self, conn: _Conn) -> None:
        pos = 0
        buf = conn.inbuf
        while conn.pending:
            taken = _take_reply(buf, pos, conn.pending[0].kind)
            if taken is None:
                break
            pos, hits, status = taken
            self._complete(conn, conn.pending.popleft(), hits, status, _clock())
        if pos:
            del buf[:pos]

    # -- request lifecycle ---------------------------------------------------

    def _send_request(self, conn: _Conn, request: Request, due: float) -> None:
        if request.kind != GET:
            self._db[request.keys[0]] = request.version
        if conn.dead:
            self._fail(Pending(request.kind, request.keys, request.version, due), due)
            return
        conn.pending.append(
            Pending(request.kind, request.keys, request.version, due)
        )
        self._send(conn, request.wire)

    def _send_fill(self, conn: _Conn, key: int, due: float) -> None:
        version = self._db.get(key, 0)
        if conn.dead:
            return
        conn.pending.append(Pending(SET, (key,), version, due))
        self._send(conn, self.workload.book.set_wire(key, version))

    def _fail(self, pending: Pending, now: float) -> None:
        phase = self._phase
        if pending.kind == SET:
            self.oracle.unknown_set(pending.keys[0], pending.version)
        elif pending.kind == DELETE:
            self.oracle.unknown_delete(pending.keys[0])
        if phase is None:
            return
        phase.tally.add(False)
        phase.completions.append(now)
        phase.all_latency.append(INF)
        if pending.kind == GET:
            phase.get_latency.append(INF)
            phase.lost_get_keys += len(pending.keys)
        else:
            phase.set_latency.append(INF)

    def _complete(self, conn: _Conn, pending: Pending, hits, status, now: float) -> None:
        phase = self._phase
        kind = pending.kind
        ok = True
        if kind not in (GET, SET, DELETE):
            return  # the preload's closing round trip
        if kind == GET:
            if status is not None:
                ok = False
            requested = set(pending.keys)
            hit_keys = set()
            for name, data in hits:
                key = int(name[1:])
                if key not in requested or key in hit_keys:
                    self.oracle.violations.append(
                        f"reply for key {name!r} not requested once"
                    )
                    continue
                hit_keys.add(key)
                if self.oracle.check_hit(key, data) and self._swept is not None:
                    self._swept[0] += 1
                    self._swept[1] += len(data)
            if ok and phase is not None:
                phase.get_keys += len(pending.keys)
                phase.get_hits += len(hit_keys)
            if ok and self.workload.spec.cache_aside and phase is not None:
                for key in pending.keys:
                    if key not in hit_keys:
                        if self._closed_loop:
                            conn.fills.append(key)
                        else:
                            self._send_fill(conn, key, now)
        elif kind == SET:
            if status == b"STORED":
                self.oracle.acknowledged_set(pending.keys[0], pending.version)
                if phase is not None:
                    phase.acked_value_bytes += len(
                        self.workload.book.value(pending.keys[0], pending.version)
                    )
            else:
                ok = False
                self.oracle.unknown_set(pending.keys[0], pending.version)
        else:
            if status in (b"DELETED", b"NOT_FOUND"):
                self.oracle.acknowledged_delete(pending.keys[0])
            else:
                ok = False
                self.oracle.unknown_delete(pending.keys[0])
        if not ok and status is not None and not status.startswith(b"SERVER_ERROR"):
            self.oracle.violations.append(
                f"unexpected {kind} reply {status[:80]!r}"
            )
        if phase is None:
            return
        latency = now - pending.due if ok else INF
        phase.tally.add(ok)
        phase.completions.append(now)
        phase.all_latency.append(latency)
        if kind == GET:
            phase.get_latency.append(latency)
            if not ok:
                phase.lost_get_keys += len(pending.keys)
        else:
            phase.set_latency.append(latency)

    def _drain(self, deadline: float) -> None:
        while any(c.pending for c in self.conns if not c.dead):
            now = _clock()
            if now >= deadline:
                for conn in self.conns:
                    if conn.pending:
                        self._kill(conn)
                return
            self._pump(deadline - now)

    # -- phases --------------------------------------------------------------

    def preload(self) -> None:
        """Every key SET once (noreply), then one synchronous round trip."""
        for conn, stream in zip(self.conns, self.workload.streams):
            for key in stream.key_ids:
                self.oracle.acknowledged_set(key, 0)
            conn.pending.append(Pending("version", (), 0, 0.0))
            self._send(conn, stream.preload + b"version\r\n")
        self._drain(_clock() + 120.0)
        if any(c.dead for c in self.conns):
            raise ConnectionError("connection lost during preload")

    def stats(self) -> Dict[str, str]:
        """One ``stats`` round trip on the first connection (idle only)."""
        conn = self.conns[0]
        if conn.dead:
            raise ConnectionError("stats connection lost")
        self._send(conn, b"stats\r\n")
        deadline = _clock() + 10.0
        while True:
            end = conn.inbuf.find(b"END\r\n")
            if end >= 0:
                break
            if _clock() > deadline or conn.dead:
                raise ConnectionError("no stats reply")
            for key, mask in self.selector.select(0.5):
                if key.data is conn:
                    if mask & selectors.EVENT_WRITE and conn.out:
                        self._flush(conn)
                    if mask & selectors.EVENT_READ:
                        conn.inbuf += conn.sock.recv(262144)
        text = bytes(conn.inbuf[:end]).decode()
        del conn.inbuf[: end + 5]
        out = {}
        for line in text.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[0] == "STAT":
                out[parts[1]] = parts[2]
        return out

    @contextlib.contextmanager
    def timing(self):
        """Around timed phases: no cyclic-GC passes over the pre-built
        streams, since a full collection of that many objects would stall
        the generator for milliseconds and show up as server latency."""
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
            gc.unfreeze()

    def closed_phase(self, seconds: float, window: int) -> PhaseResult:
        """Each connection keeps ``window`` requests outstanding."""
        phase = self._phase = PhaseResult()
        self._closed_loop = True
        streams = self.workload.streams
        cursor = self._cursor
        cpu0 = _cpu()
        start = _clock()
        end = start + seconds

        def top_up(conn: _Conn, now: float) -> None:
            while len(conn.pending) < window and not conn.dead:
                if conn.fills:
                    self._send_fill(conn, conn.fills.popleft(), now)
                    continue
                index = cursor[conn.index]
                requests = streams[conn.index].requests
                if index >= len(requests):
                    # Faster than the stream was built for: grow it here.
                    self.workload.extend(conn.index, index + 1)
                    if index >= len(requests):
                        return
                cursor[conn.index] = index + 1
                phase.sent += 1
                self._send_request(conn, requests[index], now)

        for conn in self.conns:
            top_up(conn, _clock())
        while True:
            now = _clock()
            if now >= end:
                break
            self._pump(end - now)
            now = _clock()
            if now >= end:
                break
            for conn in self.conns:
                top_up(conn, now)
            if not any(c.pending for c in self.conns):
                break  # every connection lost, or nothing left to send
        stopped = _clock()
        phase.seconds = stopped - start
        self._drain(stopped + DRAIN_TIMEOUT_S)
        for conn in self.conns:
            conn.fills.clear()
        phase.cpu_seconds = _cpu() - cpu0
        self._phase = None
        self._closed_loop = False
        return phase

    def open_phase(self, seconds: float, rate: float) -> PhaseResult:
        """``rate`` stream requests per second over all connections (the
        fills they cause come on top), the connections' arrivals
        interleaved so the offered load adds no burstiness of its own
        to the tail.  The schedule is built before timing starts."""
        period = len(self.conns) / rate
        # One request past the end, so every schedule outlasts the phase.
        count = int(seconds / period) + 2
        due = []
        for conn in self.conns:
            self.workload.extend(conn.index, self._cursor[conn.index] + count)
            due.append(
                [(i + conn.index / len(self.conns)) * period for i in range(count)]
            )
        return self._open_phase(seconds, due)

    def _open_phase(self, seconds: float, due: List[List[float]]) -> PhaseResult:
        phase = self._phase = PhaseResult()
        cpu0 = _cpu()
        start = _clock()
        end = start + seconds
        schedules = [[start + offset for offset in offsets] for offsets in due]
        first = list(self._cursor)
        sent = [0] * len(self.conns)
        while True:
            now = _clock()
            if now >= end:
                break
            soonest = end
            for conn, stream in zip(self.conns, self.workload.streams):
                times = schedules[conn.index]
                index = sent[conn.index]
                while times[index] <= now and times[index] < end:
                    phase.lateness.append(now - times[index])
                    self._send_request(
                        conn, stream.requests[first[conn.index] + index], times[index]
                    )
                    index += 1
                sent[conn.index] = index
                soonest = min(soonest, times[index])
            self._pump(soonest - _clock())
        stopped = _clock()
        phase.seconds = stopped - start
        self._drain(stopped + DRAIN_TIMEOUT_S)
        for conn in self.conns:
            self._cursor[conn.index] += sent[conn.index]
        phase.sent = sum(sent)
        phase.cpu_seconds = _cpu() - cpu0
        self._phase = None
        return phase

    def sweep(self) -> Tuple[int, int, int]:
        """Multi-get every key ever written; (keys, hits, resident bytes).

        Hits are checked against the model like any other reply.
        """
        swept = self._swept = [0, 0]
        total = 0
        for conn, stream in zip(self.conns, self.workload.streams):
            if conn.dead:
                raise ConnectionError("connection lost before the sweep")
            keys = stream.key_ids
            for i in range(0, len(keys), SWEEP_KEYS):
                chunk = tuple(keys[i : i + SWEEP_KEYS])
                conn.pending.append(Pending(GET, chunk, 0, 0.0))
                self._send(conn, encode_get(chunk))
            total += len(keys)
        self._drain(_clock() + 60.0)
        self._swept = None
        if any(c.dead for c in self.conns):
            raise ConnectionError("connection lost during the sweep")
        return total, swept[0], swept[1]


def _cpu() -> float:
    times = os.times()
    return times.user + times.system
