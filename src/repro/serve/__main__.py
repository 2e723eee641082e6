"""CLI entry point: ``python -m repro.serve [--port N] [--selfcheck]``.

Without ``--selfcheck`` this binds the daemon and serves until
interrupted — the first ``SIGTERM``/``SIGINT`` drains in-flight
requests and exits 0, a second force-exits
(:class:`~repro.robust.GracefulShutdown`).  With ``--selfcheck`` it instead boots a complete server
on an ephemeral port, exercises every registered model over real HTTP —
values must match direct evaluation bit-for-bit, and a 4-point what-if
array per model must match the case study's *uncompiled* module-level
``evaluate_availability`` byte for byte — probes the error
paths (malformed JSON, unknown model) and the ``/metrics`` endpoint,
times keep-alive round trips on one connection (a reply split over two
writes stalls ~40 ms on Nagle + delayed ACK), shuts down gracefully,
and exits non-zero on any mismatch.  CI runs the
selfcheck (see ``tools/check.sh``) so the serving stack cannot rot
silently.
"""

from __future__ import annotations

import argparse
import http.client
import importlib
import json
import statistics
import sys
import threading
import time
from typing import List, Optional, Tuple

from ..robust.shutdown import GracefulShutdown
from .app import ServeApp, create_server
from .registry import default_registry

__all__ = ["main", "selfcheck"]

#: Keep-alive transport guard: a Nagle/delayed-ACK stall is ~40 ms per
#: round trip, so a 10 ms median leaves a 4x margin.
KEEPALIVE_ROUND_TRIPS = 20
KEEPALIVE_MEDIAN_MS = 10.0

#: model -> (knob, values): the 4-point what-if array posted per model.
#: Served values are compared with ``repro.casestudies.<model>.
#: evaluate_availability`` itself, so drift between a compiled
#: evaluator and the uncompiled study fails the selfcheck.
WHATIF_ARRAYS = {
    "bladecenter": ("cpu_failure_rate", (1e-6, 2e-6, 3e-6, 4e-6)),
    "boeing": ("event_probability", (5e-4, 8e-4, 1.5e-3, 2e-3)),
    "cisco": ("coverage", (0.9, 0.93, 0.96, 0.99)),
    "nfvchain": ("failure_rate", (2e-4, 7e-4, 2e-3, 5e-3)),
    "rejuvenation": ("interval", (120.0, 200.0, 300.0, 480.0)),
    "sip": ("n_nodes", (3, 5, 6, 8)),
    "sun": ("coverage", (0.9, 0.93, 0.96, 0.99)),
    "telecom": ("coverage", (0.9, 0.93, 0.96, 0.99)),
    "wfs": ("n_workstations", (3, 5, 6, 8)),
}


def _request(
    host: str, port: int, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def selfcheck(quiet: bool = False) -> int:
    """Boot, exercise and drain a full server; 0 on success."""

    def say(line: str) -> None:
        if not quiet:
            print(line)

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        say(f"  {'ok' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    say("selfcheck: building default registry (compile + analyze + probe)")
    registry = default_registry()
    app = ServeApp(registry)
    with create_server(app, port=0) as server:
        host, port = server.host, server.port
        say(f"selfcheck: serving on http://{host}:{port}")

        status, body = _request(host, port, "GET", "/healthz")
        check(status == 200 and json.loads(body)["status"] == "ok", "GET /healthz")

        status, body = _request(host, port, "GET", "/models")
        listed = {m["name"] for m in json.loads(body)["models"]}
        check(
            status == 200 and listed == set(registry.names()),
            f"GET /models lists {len(listed)} models",
        )

        for name in registry.names():
            status, body = _request(host, port, "GET", f"/models/{name}")
            described = json.loads(body)
            check(
                status == 200 and "size" in described and "diagnostics" in described,
                f"GET /models/{name} (size + diagnostics)",
            )
            expected = float(registry.get(name).evaluate({}))
            status, body = _request(
                host, port, "POST", f"/models/{name}/evaluate", b"{}"
            )
            served = json.loads(body).get("value")
            check(
                status == 200 and served == expected,
                f"POST /models/{name}/evaluate matches direct evaluation "
                f"({served!r} == {expected!r})",
            )

        check(
            set(WHATIF_ARRAYS) == set(registry.names()),
            "every registered model has a what-if array",
        )
        for name, (knob, values) in sorted(WHATIF_ARRAYS.items()):
            points = [{knob: value} for value in values]
            uncompiled = importlib.import_module(f"repro.casestudies.{name}")
            expected = [float(uncompiled.evaluate_availability(p)).hex() for p in points]
            status, body = _request(
                host, port, "POST", f"/models/{name}/evaluate", json.dumps(points).encode()
            )
            served = json.loads(body).get("values") or []
            check(
                status == 200 and [float(v).hex() for v in served] == expected,
                f"POST /models/{name}/evaluate {len(points)}-point {knob} array is "
                f"byte-identical to the uncompiled study",
            )

        # client batch + result-cache round trip on one model
        name = registry.names()[0]
        points = json.dumps([{}, {}, {}]).encode()
        status, body = _request(host, port, "POST", f"/models/{name}/evaluate", points)
        payload = json.loads(body)
        check(
            status == 200
            and len(payload["values"]) == 3
            and len(set(payload["values"])) == 1
            and payload["stats"]["cache_hits"] >= 2,
            f"batched POST /models/{name}/evaluate (3 points, cache hits)",
        )

        status, body = _request(host, port, "POST", f"/models/{name}/evaluate", b"not json")
        check(
            status == 400 and json.loads(body)["error"]["error_type"] == "MalformedRequest",
            "malformed JSON -> 400 structured error",
        )
        status, body = _request(host, port, "POST", "/models/nope/evaluate", b"{}")
        check(
            status == 404 and json.loads(body)["error"]["error_type"] == "UnknownModel",
            "unknown model -> 404 structured error",
        )

        connection = http.client.HTTPConnection(host, port, timeout=30)
        round_trips = []
        try:
            for _ in range(KEEPALIVE_ROUND_TRIPS):
                started = time.perf_counter()
                connection.request(
                    "POST", f"/models/{name}/evaluate", body=b"{}",
                    headers={"Content-Type": "application/json"},
                )
                connection.getresponse().read()
                round_trips.append(time.perf_counter() - started)
        finally:
            connection.close()
        median_ms = 1e3 * statistics.median(round_trips)
        check(
            median_ms < KEEPALIVE_MEDIAN_MS,
            f"{KEEPALIVE_ROUND_TRIPS} keep-alive round trips, median "
            f"{median_ms:.2f} ms < {KEEPALIVE_MEDIAN_MS:g} ms",
        )

        status, body = _request(host, port, "GET", "/metrics")
        text = body.decode()
        check(
            status == 200
            and "# TYPE repro_serve_requests counter" in text
            and "repro_serve_batch_flushes" in text,
            "GET /metrics exposes serve counters",
        )
    say("selfcheck: graceful shutdown complete")
    if failures:
        say(f"selfcheck: {len(failures)} failure(s)")
        return 1
    say("selfcheck: all checks passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on availability-query daemon over the case-study registry.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument("--port", type=int, default=8035, help="bind port, 0 = ephemeral (default %(default)s)")
    parser.add_argument(
        "--models",
        nargs="+",
        metavar="NAME",
        help="serve only these registered case studies (default: all nine)",
    )
    parser.add_argument(
        "--no-batching",
        action="store_true",
        help="evaluate in the request thread (naive mode, no micro-batching)",
    )
    parser.add_argument("--max-batch", type=int, default=64, help="points per flush (default %(default)s)")
    parser.add_argument(
        "--flush-window",
        type=float,
        default=0.002,
        help="seconds a burst waits for company (default %(default)s)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="result-cache entries per model, 0 disables (default %(default)s)",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default=None,
        help="engine executor per flush (default: serial)",
    )
    parser.add_argument("--n-jobs", type=int, default=None, help="engine workers per flush")
    parser.add_argument(
        "--diagnostics",
        choices=("ignore", "warn", "strict"),
        default="strict",
        help="registration-time lint enforcement (default %(default)s)",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="boot an ephemeral server, exercise every endpoint, exit 0/1",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(quiet=args.quiet)

    registry = default_registry(diagnostics=args.diagnostics)
    if args.models:
        registry = registry.subset(args.models)
    app = ServeApp(
        registry,
        batching=not args.no_batching,
        max_batch=args.max_batch,
        flush_window=args.flush_window,
        cache_size=args.cache_size,
        executor=args.executor,
        n_jobs=args.n_jobs,
    )
    server = create_server(app, host=args.host, port=args.port)
    if not args.quiet:
        print(
            f"repro.serve: {len(registry)} model(s) on "
            f"http://{server.host}:{server.port} (Ctrl-C to stop)"
        )

    # Two-stage shutdown: the first SIGTERM/SIGINT drains in-flight
    # requests and exits 0; a second signal force-exits.  server.close()
    # calls shutdown(), which deadlocks if invoked from the thread inside
    # serve_forever() — hence the drain thread.
    def drain() -> None:
        if not args.quiet:
            print("repro.serve: draining and shutting down")
        threading.Thread(target=server.close, name="repro-serve-drain").start()

    shutdown = GracefulShutdown(on_first=drain)
    with shutdown:
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
            drain()
        finally:
            server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
