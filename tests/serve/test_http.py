"""End-to-end tests over a real socket: ephemeral-port daemon + http.client.

The byte-identity contract from ISSUE.md is pinned here: a value served
over HTTP must equal the direct :func:`~repro.engine.evaluate_batch`
answer bit for bit, JSON round-trip included.
"""

import http.client
import json
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import evaluate_batch
from repro.serve import ServeApp, create_server


@pytest.fixture
def server(registry):
    app = ServeApp(registry, flush_window=0.001)
    with create_server(app, port=0) as srv:
        yield srv


def request(server, method, path, body=None, conn=None):
    own = conn is None
    if own:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        content_type = response.headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode()
    finally:
        if own:
            conn.close()


class TestOverTheWire:
    def test_bladecenter_single_point_byte_identical(self, server, registry):
        # The ISSUE.md acceptance criterion, verbatim: POST the default
        # point and compare against a direct engine call — exactly, not
        # approximately.
        expected = float(
            evaluate_batch(registry.get("bladecenter").evaluate, [{}]).outputs[0]
        )
        status, payload = request(
            server, "POST", "/models/bladecenter/evaluate", body={}
        )
        assert status == 200
        assert payload["value"] == expected

    def test_batch_request_byte_identical(self, server, registry):
        points = [{"cpu_failure_rate": r} for r in (1e-6, 2e-6, 4e-6)]
        expected = evaluate_batch(registry.get("bladecenter").evaluate, points)
        status, payload = request(
            server, "POST", "/models/bladecenter/evaluate", body=points
        )
        assert status == 200
        assert payload["values"] == [float(v) for v in expected.outputs]

    def test_all_models_serve_their_defaults(self, server, registry):
        status, listing = request(server, "GET", "/models")
        assert status == 200
        for row in listing["models"]:
            name = row["name"]
            expected = registry.get(name).evaluate({})
            status, payload = request(
                server, "POST", f"/models/{name}/evaluate", body={}
            )
            assert status == 200, name
            assert payload["value"] == expected, name

    def test_keep_alive_connection_reuse(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for _ in range(3):
                status, payload = request(server, "GET", "/healthz", conn=conn)
                assert status == 200 and payload["status"] == "ok"
        finally:
            conn.close()

    def test_concurrent_clients_coalesce_and_agree(self, server, registry):
        serial = evaluate_batch(
            registry.get("wfs").evaluate,
            [{"n_workstations": float(n)} for n in range(3, 11)],
        ).outputs
        results = [None] * 8
        barrier = threading.Barrier(8)

        def client(i):
            barrier.wait()
            _, payload = request(
                server,
                "POST",
                "/models/wfs/evaluate",
                body={"n_workstations": i + 3},
            )
            results[i] = payload["value"]

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [float(v) for v in serial]


class TestWireErrors:
    def test_malformed_json_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(
                "POST", "/models/wfs/evaluate", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["error_type"] == "MalformedRequest"

    def test_unknown_model_404(self, server):
        status, payload = request(
            server, "POST", "/models/atlantis/evaluate", body={}
        )
        assert status == 404
        assert payload["error"]["error_type"] == "UnknownModel"

    def test_method_not_allowed_405(self, server):
        status, payload = request(server, "PUT", "/models/wfs/evaluate", body={})
        assert status == 405
        assert payload["error"]["error_type"] == "MethodNotAllowed"

    def test_failed_single_point_422(self, server):
        status, payload = request(
            server, "POST", "/models/wfs/evaluate", body={"k_required": 2.5}
        )
        assert status == 422
        assert payload["value"] is None
        assert payload["errors"][0]["error_type"] == "ModelDefinitionError"


class _CountingSocket:
    """Server-side socket proxy recording the size of every send.

    ``fail_sends`` makes that many sends raise ``ConnectionResetError``
    after being recorded, as a client hanging up mid-write would.
    """

    def __init__(self, sock, writes, fail_sends=0):
        self._sock = sock
        self._writes = writes
        self._fail_sends = fail_sends

    def _record(self, data):
        self._writes.append(len(data))
        if self._fail_sends:
            self._fail_sends -= 1
            raise ConnectionResetError("injected send failure")

    def sendall(self, data, *args):
        self._record(data)
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._record(data)
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _Counting:
    """A daemon whose handlers count their socket writes."""

    def __init__(self, server):
        self.server = server
        self.writes = []
        self.fail_sends = 0
        counting = self

        class Handler(server._httpd.RequestHandlerClass):
            def setup(self):
                self.request = _CountingSocket(
                    self.request, counting.writes, counting.fail_sends
                )
                super().setup()

        server._httpd.RequestHandlerClass = Handler

    def request(self, method, path, body=None):
        """One request on a fresh connection: ``(status, payload, writes)``."""
        before = len(self.writes)
        status, payload = request(self.server, method, path, body)
        return status, payload, self.writes[before:]


@pytest.fixture
def counting(registry):
    app = ServeApp(registry, flush_window=0.001)
    server = create_server(app, port=0)
    wrapped = _Counting(server)
    with server:
        yield wrapped


def raw_exchange(server, data):
    """Send raw bytes, read until the server closes: the whole reply."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestOneWritePerResponse:
    def test_single_point_200(self, counting):
        status, payload, writes = counting.request(
            "POST", "/models/wfs/evaluate", body={}
        )
        assert status == 200 and payload["value"] is not None
        assert len(writes) == 1

    def test_array_200(self, counting):
        points = [{"n_workstations": n} for n in (3, 5, 8)]
        status, payload, writes = counting.request(
            "POST", "/models/wfs/evaluate", body=points
        )
        assert status == 200 and len(payload["values"]) == 3
        assert len(writes) == 1

    def test_unknown_model_404(self, counting):
        status, _, writes = counting.request(
            "POST", "/models/atlantis/evaluate", body={}
        )
        assert status == 404
        assert len(writes) == 1

    def test_failed_point_422(self, counting):
        status, _, writes = counting.request(
            "POST", "/models/wfs/evaluate", body={"k_required": 2.5}
        )
        assert status == 422
        assert len(writes) == 1

    def test_metrics_200(self, counting):
        counting.request("POST", "/models/sun/evaluate", body={})
        status, text, writes = counting.request("GET", "/metrics")
        assert status == 200 and "repro_serve_requests" in text
        assert len(writes) == 1

    def test_reply_larger_than_write_buffer(self, counting):
        # A buffered writer flushes the head on its own ahead of a body
        # larger than its 8 KiB buffer; the reply must still be one write.
        status, payload, writes = counting.request(
            "POST", "/models/wfs/evaluate", body=[{}] * 1000
        )
        assert status == 200 and len(payload["values"]) == 1000
        assert writes[0] > 8192
        assert len(writes) == 1

    def test_transport_error_500(self, counting, monkeypatch):
        def boom(method, path, body):
            raise RuntimeError("handler exploded")

        monkeypatch.setattr(counting.server.app, "handle", boom)
        status, payload, writes = counting.request("GET", "/healthz")
        assert status == 500
        assert payload["error"]["error_type"] == "RuntimeError"
        assert len(writes) == 1

    def test_failed_write_sends_nothing_more(self, counting):
        # A send that fails part-way may have put bytes on the wire: the
        # handler must close the connection, not try a second response.
        counting.fail_sends = 1
        reply = raw_exchange(
            counting.server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert reply == b""
        assert len(counting.writes) == 1


class TestKeepAlive:
    def test_sequential_round_trips_have_no_ack_stall(self, server):
        # Headers and body as two writes stall each reply ~40 ms on
        # Nagle + delayed ACK; one write keeps a round trip sub-ms.
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        timings = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                status, _ = request(
                    server, "POST", "/models/wfs/evaluate", body={}, conn=conn
                )
                timings.append(time.perf_counter() - started)
                assert status == 200
        finally:
            conn.close()
        assert statistics.median(timings) < 0.010, timings


class TestMalformedRequests:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_400_and_connection_closes(self, server, length):
        # The unread body must not be parsed as a next request: one 400
        # reply, then the server closes the connection.
        reply = raw_exchange(
            server,
            (
                "POST /models/wfs/evaluate HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n"
                "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            ).encode(),
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in lines
        length_line = next(ln for ln in lines if ln.startswith("Content-Length:"))
        assert len(body) == int(length_line.split(":", 1)[1])
        assert json.loads(body)["error"]["error_type"] == "MalformedRequest"

    def test_unsupported_method_is_structured(self, server):
        reply = raw_exchange(server, b"PATCH / HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert json.loads(body)["error"]["error_type"] == "NotImplemented"

    def test_head_rejection_has_no_body(self, server):
        reply = raw_exchange(server, b"HEAD / HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert body == b""


class TestConnectionBurst:
    def test_backlog_holds_a_burst_of_connections(self, registry):
        # Bound but not yet accepting: every handshake must complete in
        # the kernel's accept queue.  socketserver's default backlog of 5
        # drops the SYNs of the seventh connection on, and each dropped
        # SYN costs the client a 1 s retransmit.
        server = create_server(ServeApp(registry, batching=False), port=0)
        sockets = []
        try:
            for _ in range(32):
                sockets.append(
                    socket.create_connection((server.host, server.port), timeout=0.5)
                )
        finally:
            server.start()
            for sock in sockets:
                sock.close()
            server.close()


class TestMetricsOverTheWire:
    def test_prometheus_exposition_parses(self, server):
        request(server, "POST", "/models/sun/evaluate", body={})
        status, text = request(server, "GET", "/metrics")
        assert status == 200
        seen_types = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                seen_types[name] = kind
            elif line and not line.startswith("#"):
                # Every sample line is "name[{labels}] value".
                name_part, _, value = line.rpartition(" ")
                float(value)  # parses
                assert name_part.split("{", 1)[0].startswith("repro_")
        assert seen_types.get("repro_serve_requests") == "counter"
        assert seen_types.get("repro_serve_request_seconds") == "histogram"
        assert seen_types.get("repro_serve_batch_flushes") == "counter"

    def test_cache_counters_advance(self, server):
        body = {"n_workstations": 7}
        request(server, "POST", "/models/wfs/evaluate", body=body)
        request(server, "POST", "/models/wfs/evaluate", body=body)
        _, health = request(server, "GET", "/healthz")
        assert health["cache"]["hits"] >= 1
        assert health["cache"]["models"]["wfs"]["entries"] >= 1


class TestGracefulShutdown:
    def test_close_drains_inflight_requests(self, registry):
        # A slow in-flight request must complete while close() waits
        # for the drain, and the daemon must refuse new work afterwards.
        app = ServeApp(registry, flush_window=0.2, max_batch=1000)
        server = create_server(app, port=0).start()
        outcome = {}

        def slow_client():
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/models/wfs/evaluate",
                    body=json.dumps({"n_workstations": 5}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                outcome["status"] = response.status
                outcome["payload"] = json.loads(response.read())
            finally:
                conn.close()

        thread = threading.Thread(target=slow_client)
        thread.start()
        # Wait until the request is actually in flight (parked in the
        # 0.2 s flush window), then shut down underneath it.
        import time

        deadline = time.monotonic() + 5.0
        while not app._inflight and time.monotonic() < deadline:
            time.sleep(0.001)
        server.close()
        thread.join(timeout=30)
        assert outcome["status"] == 200
        assert outcome["payload"]["value"] is not None

    def test_close_is_idempotent(self, registry):
        server = create_server(ServeApp(registry, flush_window=0.001), port=0).start()
        server.close()
        server.close()


class TestSelfcheck:
    def test_module_selfcheck_exits_zero(self):
        # The tools/check.sh gate, exercised exactly as CI runs it.
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--selfcheck", "-q"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
