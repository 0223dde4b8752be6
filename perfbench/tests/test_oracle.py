"""The per-key model catches wrong bytes and stale reads, on the wire."""

import socket
import threading

from perfbench.loadgen import LoadGen, _take_reply
from perfbench.oracle import Oracle
from perfbench.workload import GET, Request, Workload, encode_delete, encode_get

from test_workload import small_spec


def book(key, version):
    return b"v%d-%d" % (key, version)


def test_oracle_accepts_current_version_only():
    oracle = Oracle(book)
    oracle.acknowledged_set(1, 3)
    assert oracle.check_hit(1, b"v1-3")
    assert not oracle.check_hit(1, b"v1-2")
    assert "wrong bytes" in oracle.violations[-1]


def test_oracle_flags_hit_after_delete_and_never_written():
    oracle = Oracle(book)
    oracle.acknowledged_set(2, 1)
    oracle.acknowledged_delete(2)
    assert not oracle.check_hit(2, b"v2-1")
    assert "hit after delete" in oracle.violations[-1]
    assert not oracle.check_hit(9, b"v9-0")
    assert "never written" in oracle.violations[-1]


def test_oracle_widens_on_unknown_outcome():
    oracle = Oracle(book)
    oracle.acknowledged_set(4, 1)
    oracle.unknown_set(4, 2)
    assert oracle.check_hit(4, b"v4-1") and oracle.check_hit(4, b"v4-2")
    oracle.unknown_delete(4)
    assert oracle.check_hit(4, b"v4-2")
    assert oracle.violations == []


def test_reply_parser_handles_values_errors_and_partial_input():
    buf = bytearray(b"VALUE k3 0 5\r\nhello\r\nEND\r\nSTORED\r\n")
    pos, hits, status = _take_reply(buf, 0, GET)
    assert hits == [(b"k3", b"hello")] and status is None
    assert _take_reply(buf, pos, "set") == (len(buf), None, b"STORED")
    assert _take_reply(bytearray(b"VALUE k3 0 5\r\nhel"), 0, GET) is None
    refused = bytearray(b"SERVER_ERROR overloaded\r\n")
    assert _take_reply(refused, 0, GET)[2] == b"SERVER_ERROR overloaded"


class _ScriptedServer:
    """Accepts the generator's connections and answers from ``script``:
    a function from one request line to the reply bytes."""

    def __init__(self, script):
        self.script = script
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self):
        for _ in range(2):
            conn, _ = self.listener.accept()
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                if line.startswith(b"set"):
                    size = int(line.split()[4])
                    lines.read(size + 2)
                    if b"noreply" in line:
                        continue
                reply = self.script(line)
                if reply:
                    conn.sendall(reply)

    def close(self):
        self.listener.close()


def _drive(script, requests):
    """Preload, then send ``requests`` on the first connection alone."""
    workload = Workload(small_spec(keys=20), seed=1, closed_seconds=0.1)
    for stream in workload.streams:
        stream.requests = []
    workload.streams[0].requests = list(requests)
    workload.extend = lambda conn, count: None  # send exactly these
    server = _ScriptedServer(script)
    loadgen = LoadGen(workload, server.port)
    try:
        loadgen.preload()
        loadgen.closed_phase(0.2, window=4)
    finally:
        loadgen.close()
        server.close()
    return loadgen.oracle.violations


def _answer(value_for_get):
    def script(line):
        if line.startswith(b"version"):
            return b"VERSION test\r\n"
        if line.startswith(b"get"):
            key = line.split()[1]
            return b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (
                key, len(value_for_get), value_for_get
            )
        if line.startswith(b"delete"):
            return b"DELETED\r\n"
        return b"STORED\r\n"

    return script


GET_KEY_0 = Request(GET, (0,), encode_get((0,)))


def _value_0():
    workload = Workload(small_spec(keys=20), seed=1, closed_seconds=0.1)
    return workload.book.value(0, 0)


def test_loadgen_flags_crafted_wrong_bytes_reply():
    violations = _drive(_answer(b"garbage"), [GET_KEY_0])
    assert any("wrong bytes" in v for v in violations)


def test_loadgen_accepts_the_model_value():
    assert _drive(_answer(_value_0()), [GET_KEY_0]) == []


def test_loadgen_flags_hit_after_delete():
    # The server acknowledges the delete, then serves the old bytes.
    delete = Request("delete", (0,), encode_delete(0), 1)
    violations = _drive(_answer(_value_0()), [delete, GET_KEY_0])
    assert any("hit after delete" in v for v in violations)
