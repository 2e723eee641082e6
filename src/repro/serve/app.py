"""The daemon itself: route dispatch, request accounting, HTTP plumbing.

:class:`ServeApp` is the transport-free core — ``handle(method, path,
body)`` returns ``(status, content_type, payload)`` — so the whole API
contract is testable without opening a socket.  :func:`create_server`
wraps an app in a stdlib :class:`~http.server.ThreadingHTTPServer`
(zero new dependencies, HTTP/1.1 keep-alive) and returns a
:class:`ServeServer` whose :meth:`~ServeServer.close` shuts down
gracefully: stop accepting, wait out in-flight requests, drain the
micro-batcher, release the socket.

Endpoints
---------
``GET  /``                        endpoint index
``GET  /healthz``                 liveness + model count + uptime
``GET  /metrics``                 Prometheus text exposition
``GET  /models``                  registered model metadata
``GET  /models/<name>``           one model: parameters, defaults, size,
                                  registration diagnostics
``POST /models/<name>/evaluate``  one assignment object or an array

Every failure is a structured :class:`~repro.robust.ErrorRecord` JSON
envelope — a client never sees a bare traceback.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, time
from typing import Dict, List, Optional, Tuple

from ..engine.batch import evaluate_batch
from ..obs.export import to_prometheus
from ..obs.metrics import ThreadSafeMetricsRegistry
from ..obs.trace import Tracer
from ..robust.policy import ErrorRecord, FaultPolicy
from .batcher import EvaluationFailed, MicroBatcher
from .cache import ResultCache
from .registry import ModelRegistry, UnknownModelError, default_registry
from .schemas import (
    RequestError,
    error_body,
    evaluate_response,
    json_body,
    parse_evaluate_request,
)

__all__ = ["ServeApp", "ServeServer", "create_server"]

JSON = "application/json"
PROMETHEUS = "text/plain; version=0.0.4"

Response = Tuple[int, str, bytes]


class ServeApp:
    """The availability-query daemon, minus the transport.

    Parameters
    ----------
    registry:
        Models to serve; defaults to :func:`~repro.serve.default_registry`
        (the nine tutorial case studies).
    batching:
        Route point queries through a :class:`~repro.serve.MicroBatcher`
        (the default).  ``False`` evaluates synchronously in the request
        thread — one engine call per request, the naive baseline the E35
        benchmark compares against.
    max_batch / flush_window:
        Micro-batcher knobs (points per flush, seconds a burst waits).
    cache_size:
        Per-model result-cache bound; ``0`` disables the cache.
    executor / n_jobs:
        Engine fan-out per flush (default: serial, which keeps served
        values bit-identical to direct :func:`~repro.engine.evaluate_batch`).
    metrics:
        Metrics sink; defaults to a fresh
        :class:`~repro.obs.ThreadSafeMetricsRegistry` (request threads
        mutate it concurrently).
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        batching: bool = True,
        max_batch: int = 64,
        flush_window: float = 0.002,
        cache_size: int = 1024,
        executor=None,
        n_jobs: Optional[int] = None,
        metrics=None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.metrics = metrics if metrics is not None else ThreadSafeMetricsRegistry()
        self.cache = ResultCache(maxsize=cache_size)
        self.executor = executor
        self.n_jobs = n_jobs
        self.batcher: Optional[MicroBatcher] = (
            MicroBatcher(
                self.registry,
                max_batch=max_batch,
                flush_window=flush_window,
                executor=executor,
                n_jobs=n_jobs,
                metrics=self.metrics,
            )
            if batching
            else None
        )
        self.started_at = time()
        #: ring of recent request span dicts (debug/test introspection)
        self.recent_spans: "deque" = deque(maxlen=32)
        self._inflight = 0
        self._closing = False
        self._inflight_cond = threading.Condition()

    # ------------------------------------------------------------ dispatch
    def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        """One request in, one ``(status, content_type, payload)`` out."""
        with self._inflight_cond:
            if self._closing:
                record = ErrorRecord(
                    index=0, error_type="ServerClosing", message="server is shutting down"
                )
                return 503, JSON, error_body(record)
            self._inflight += 1
        started = perf_counter()
        path = path.split("?", 1)[0].rstrip("/") or "/"
        route = path
        # Per-request private tracer over the shared thread-safe metrics
        # registry: Tracer itself is single-thread by design.
        tracer = Tracer("serve.request", metrics=self.metrics)
        tracer.root.set(method=method, path=path)
        try:
            try:
                status, content_type, payload, route = self._route(
                    method, path, body, tracer
                )
            except RequestError as exc:
                status, content_type, payload = exc.status, JSON, error_body(exc.record)
            except UnknownModelError as exc:
                record = ErrorRecord(
                    index=0, error_type="UnknownModel", message=str(exc)
                )
                status, content_type, payload = 404, JSON, error_body(record)
            except Exception as exc:
                # Never a bare traceback on the wire: internal failures
                # leave as a structured ErrorRecord envelope.
                record = ErrorRecord(
                    index=0, error_type=type(exc).__name__, message=str(exc)
                )
                status, content_type, payload = 500, JSON, error_body(record)
            duration = perf_counter() - started
            tracer.root.set(status=status)
            tracer.close()
            self.recent_spans.append(tracer.root.to_dict())
            self.metrics.counter(
                "serve.requests", route=route, status=str(status)
            ).inc()
            self.metrics.histogram("serve.request.seconds", route=route).observe(
                duration
            )
            return status, content_type, payload
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def _route(
        self, method: str, path: str, body: bytes, tracer: Tracer
    ) -> Tuple[int, str, bytes, str]:
        """Returns ``(status, content_type, payload, route_label)``."""
        if path == "/":
            self._require(method, "GET", path)
            return 200, JSON, json_body(self._index()), "/"
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, JSON, json_body(self._health()), "/healthz"
        if path == "/metrics":
            self._require(method, "GET", path)
            text = to_prometheus(self.metrics) + "\n"
            return 200, PROMETHEUS, text.encode("utf-8"), "/metrics"
        if path == "/models":
            self._require(method, "GET", path)
            return 200, JSON, json_body({"models": self.registry.describe()}), "/models"
        if path.startswith("/models/"):
            rest = path[len("/models/") :]
            if "/" not in rest:
                self._require(method, "GET", path)
                entry = self.registry.get(rest)
                return 200, JSON, json_body(entry.describe(verbose=True)), "/models/{name}"
            name, _, action = rest.partition("/")
            if action == "evaluate":
                self._require(method, "POST", path)
                status, payload = self._evaluate(name, body, tracer)
                return status, JSON, json_body(payload), "/models/{name}/evaluate"
        raise RequestError(404, "UnknownEndpoint", f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise RequestError(
                405, "MethodNotAllowed", f"{path} only accepts {expected}, got {method}"
            )

    # ------------------------------------------------------------- routes
    def _index(self) -> Dict[str, object]:
        return {
            "service": "repro.serve",
            "endpoints": [
                "GET /healthz",
                "GET /metrics",
                "GET /models",
                "GET /models/{name}",
                "POST /models/{name}/evaluate",
            ],
            "models": self.registry.names(),
        }

    def _health(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "models": len(self.registry),
            "batching": self.batcher is not None,
            "cache": self.cache.stats(),
            "uptime_s": time() - self.started_at,
        }

    def _evaluate(
        self, name: str, body: bytes, tracer: Tracer
    ) -> Tuple[int, Dict[str, object]]:
        entry = self.registry.get(name)
        assignments, single = parse_evaluate_request(body)
        n = len(assignments)
        values: List[float] = [float("nan")] * n
        errors: List[ErrorRecord] = []
        misses: List[int] = []
        cache_hits = 0
        with tracer.span("serve.evaluate", model=name, points=n):
            for i, assignment in enumerate(assignments):
                found, value = self.cache.get(name, assignment)
                if found:
                    values[i] = value
                    cache_hits += 1
                else:
                    misses.append(i)
            if cache_hits:
                self.metrics.counter("serve.cache.hits", model=name).inc(cache_hits)
            if misses:
                self.metrics.counter("serve.cache.misses", model=name).inc(len(misses))
                if self.batcher is not None:
                    futures = self.batcher.submit_many(
                        name, [assignments[i] for i in misses]
                    )
                    for i, future in zip(misses, futures):
                        try:
                            values[i] = future.result()
                        except EvaluationFailed as exc:
                            errors.append(exc.record.with_index(i))
                        else:
                            self.cache.put(name, assignments[i], values[i])
                else:
                    result = evaluate_batch(
                        entry.evaluate,
                        [assignments[i] for i in misses],
                        executor=self.executor,
                        n_jobs=self.n_jobs,
                        policy=FaultPolicy("skip"),
                        tracer=tracer,
                    )
                    failed = {e.index: e for e in result.errors}
                    for pos, i in enumerate(misses):
                        if pos in failed:
                            errors.append(failed[pos].with_index(i))
                        else:
                            values[i] = float(result.outputs[pos])
                            self.cache.put(name, assignments[i], values[i])
        errors.sort(key=lambda e: e.index)
        # A fully-failed single-point request is a client-visible 422;
        # partial batch failure stays 200 with per-point records.
        status = 422 if (single and errors) else 200
        payload = evaluate_response(
            name,
            values,
            errors,
            single,
            cached=cache_hits,
            batched=self.batcher is not None,
        )
        return status, payload

    # -------------------------------------------------------------- close
    def close(self, timeout: float = 10.0) -> None:
        """Drain and stop: refuse new requests, wait out in-flight ones,
        then drain the micro-batcher.  Idempotent."""
        deadline = perf_counter() + timeout
        with self._inflight_cond:
            self._closing = True
            while self._inflight > 0:
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(remaining)
        if self.batcher is not None:
            self.batcher.close(drain=True, timeout=max(0.0, deadline - perf_counter()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "batched" if self.batcher is not None else "naive"
        return f"ServeApp({len(self.registry)} models, {mode})"


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter: socket in, ``app.handle`` out.  Subclassed per
    server by :func:`create_server` to bind the ``app`` attribute.

    Every response -- status line, headers and body -- leaves in one
    socket write (:meth:`_send`).  Headers and body as two small writes
    would park the body behind Nagle's algorithm until the client's
    delayed ACK (~40 ms per keep-alive request).
    """

    protocol_version = "HTTP/1.1"  # keep-alive: required for sane qps
    app: ServeApp

    def _dispatch(self) -> None:
        close = False
        try:
            body = self._read_body()
            status, content_type, payload = self.app.handle(
                self.command, self.path, body
            )
        except RequestError as exc:
            # Malformed framing: the body's extent is unknown, so the
            # rest of the stream cannot be parsed as further requests.
            status, content_type, payload = exc.status, JSON, error_body(exc.record)
            close = True
        except Exception as exc:
            # Transport-level failure before anything was sent: one
            # ErrorRecord response, never a traceback.
            record = ErrorRecord(
                index=0, error_type=type(exc).__name__, message=str(exc)
            )
            status, content_type, payload = 500, JSON, error_body(record)
            close = True
        self._send(status, content_type, payload, close=close)

    def _read_body(self) -> bytes:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise RequestError(
                400,
                "MalformedRequest",
                f"Content-Length must be a non-negative integer, got {raw!r}",
            )
        length = int(raw)
        return self.rfile.read(length) if length else b""

    def _send(self, status: int, content_type: str, payload: bytes, close: bool) -> None:
        """Write one complete response with a single socket write."""
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        if close:
            lines.append("Connection: close")
            self.close_connection = True
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if self.command == "HEAD":
            payload = b""
        try:
            self.wfile.write(head + payload)
        except OSError:
            # Part of the response may already be on the wire: nothing
            # further can be framed on this connection.
            self.close_connection = True

    def send_error(self, code: int, message=None, explain=None) -> None:
        # The stdlib's own rejections (bad request line, unsupported
        # method, oversized headers) leave as ErrorRecord envelopes too.
        reason = self.responses[code][0]
        record = ErrorRecord(
            index=0, error_type=reason.replace(" ", ""), message=message or reason
        )
        self._send(code, JSON, error_body(record), close=True)

    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:
        # Access logging goes through the metrics registry, not stderr.
        pass


class _Server(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5: a burst of new
    # connections overflows it and each dropped SYN costs the client a
    # 1 s retransmit.  Let the kernel's own cap decide instead.
    request_queue_size = socket.SOMAXCONN
    daemon_threads = True


class ServeServer:
    """A running daemon: threaded HTTP server + graceful shutdown.

    Use as a context manager (tests) or via :meth:`serve_forever`
    (the CLI)::

        with create_server(ServeApp(), port=0) as server:
            url = f"http://{server.host}:{server.port}"
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 8000):
        handler = type("BoundHandler", (_Handler,), {"app": app})
        self.app = app
        self._httpd = _Server((host, port), handler)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binding)."""
        return self._httpd.server_address[1]

    def start(self) -> "ServeServer":
        """Serve on a background thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, release the socket."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self.app.close()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServeServer(http://{self.host}:{self.port}, {self.app!r})"


def create_server(
    app: Optional[ServeApp] = None,
    host: str = "127.0.0.1",
    port: int = 8000,
) -> ServeServer:
    """Bind a :class:`ServeServer` (``port=0`` picks an ephemeral port).

    The server is bound but not yet serving: call
    :meth:`~ServeServer.start` (background thread) or
    :meth:`~ServeServer.serve_forever` (foreground), or enter it as a
    context manager.
    """
    return ServeServer(app if app is not None else ServeApp(), host=host, port=port)
